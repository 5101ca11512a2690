//! Normalising answers before they are compared: timing fields and cache
//! flags legitimately differ between a warm and a cold answer, everything
//! else must be byte-identical.
//!
//! [`normalise_line`] works on the raw text of one JSON line without
//! parsing it, so the load generator can check every response inside the
//! timed loop without measuring the client's own parser.

use sigrule_server::json::Json;

/// Whether a field's value is replaced by `_` before comparison: the request
/// id, every `*_ms` timing and the two cache flags.
fn volatile_key(key: &str) -> bool {
    key == "id" || key.ends_with("_ms") || key == "mined_cached" || key == "null_cached"
}

/// End (exclusive) of the JSON string starting at `bytes[start] == b'"'`.
fn string_end(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// End (exclusive) of the JSON value starting at `bytes[start]`.
fn value_end(bytes: &[u8], start: usize) -> usize {
    match bytes.get(start) {
        Some(b'"') => string_end(bytes, start),
        Some(b'{' | b'[') => {
            let mut depth = 0usize;
            let mut i = start;
            while i < bytes.len() {
                match bytes[i] {
                    b'"' => {
                        i = string_end(bytes, i);
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            return i + 1;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            bytes.len()
        }
        _ => {
            let mut i = start;
            while i < bytes.len() && !matches!(bytes[i], b',' | b'}' | b']') {
                i += 1;
            }
            i
        }
    }
}

/// Replaces the value of every volatile field of a JSON text with `_`,
/// at any depth, and drops the trailing newline.
pub fn normalise_line(text: &str) -> String {
    let bytes = text.trim_end().as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            out.push(bytes[i]);
            i += 1;
            continue;
        }
        let end = string_end(bytes, i);
        out.extend_from_slice(&bytes[i..end]);
        let is_key = bytes.get(end) == Some(&b':');
        let key = std::str::from_utf8(&bytes[i + 1..end.saturating_sub(1)]).unwrap_or("");
        i = end;
        if is_key && volatile_key(key) {
            out.extend_from_slice(b":_");
            i = value_end(bytes, end + 1);
        }
    }
    String::from_utf8(out).expect("only ASCII bytes were replaced")
}

/// The answer part of a `sigrule correct --format json` report: the mined
/// counts and every row of the comparison table with its `time_ms` cell
/// replaced by `_`.  Rendered as one line per row so a mismatch prints
/// readably.
pub fn report_answers(report: &str) -> Result<String, String> {
    let doc = Json::parse(report.trim()).map_err(|e| format!("report is not JSON: {e}"))?;
    let summary = doc.get("summary").ok_or("report has no summary")?;
    let mut out = String::new();
    for key in ["rules_mined", "hypothesis_tests"] {
        let value = summary.get(key).and_then(Json::as_str).ok_or(key)?;
        out.push_str(&format!("{key}={value}\n"));
    }
    let table = match doc.get("tables") {
        Some(Json::Array(tables)) => tables.first().ok_or("report has no table")?,
        _ => return Err("report has no tables".into()),
    };
    let (Some(Json::Array(columns)), Some(Json::Array(rows))) =
        (table.get("columns"), table.get("rows"))
    else {
        return Err("table has no columns or rows".into());
    };
    let names: Vec<&str> = columns.iter().filter_map(Json::as_str).collect();
    for row in rows {
        let Json::Array(cells) = row else {
            return Err("table row is not an array".into());
        };
        let cells: Vec<String> = cells
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_string)
            .collect();
        out.push_str(&answer_row(&names, &cells));
    }
    Ok(out)
}

/// One table row as `column=value` pairs, timing columns replaced by `_`.
pub fn answer_row(columns: &[&str], cells: &[String]) -> String {
    let pairs: Vec<String> = columns
        .iter()
        .zip(cells)
        .map(|(column, cell)| {
            let value = if column.ends_with("_ms") {
                "_"
            } else {
                cell.as_str()
            };
            format!("{column}={value}")
        })
        .collect();
    pairs.join(" ") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_ids_and_cache_flags_are_masked() {
        let cold = r#"{"id":3,"cmd":"correct","ok":true,"significant":7792,"p_value_cutoff":2.9e-5,"mine_ms":1171.5,"null_ms":4305.577,"correct_ms":1.273,"mined_cached":false,"null_cached":false,"rules":[{"rule":"A0=v3","p_value":1.4e-52}]}"#;
        let warm = r#"{"id":"w-17","cmd":"correct","ok":true,"significant":7792,"p_value_cutoff":2.9e-5,"mine_ms":0,"null_ms":0,"correct_ms":1.9,"mined_cached":true,"null_cached":true,"rules":[{"rule":"A0=v3","p_value":1.4e-52}]}"#;
        assert_eq!(normalise_line(cold), normalise_line(&format!("{warm}\n")));
        assert_eq!(
            normalise_line(r#"{"id":{"a":[1,"]"]},"x_ms":null,"n":1}"#),
            r#"{"id":_,"x_ms":_,"n":1}"#
        );
    }

    #[test]
    fn answers_are_not_masked() {
        let a = r#"{"ok":true,"significant":7792,"rules":[{"rule":"A0=v3"}]}"#;
        let b = r#"{"ok":true,"significant":7793,"rules":[{"rule":"A0=v3"}]}"#;
        assert_ne!(normalise_line(a), normalise_line(b));
        // A string value that looks like a volatile key is data, not a key.
        let c = r#"{"rule":"mine_ms","v":1}"#;
        assert_eq!(normalise_line(c), c);
        let d = r#"{"note":"say \"id\":","id":5}"#;
        assert_eq!(normalise_line(d), r#"{"note":"say \"id\":","id":_}"#);
    }

    #[test]
    fn report_rows_drop_their_time_cells() {
        let report = r#"{"command":"correct","summary":{"rules_mined":"12","hypothesis_tests":"12","load_ms":"3.1"},"tables":[{"title":"t","columns":["method","significant","time_ms"],"rows":[["BC","4","0.7"],["Perm_FWER","5","4516.8"]]}]}"#;
        let answers = report_answers(report).unwrap();
        assert_eq!(
            answers,
            "rules_mined=12\nhypothesis_tests=12\nmethod=BC significant=4 time_ms=_\nmethod=Perm_FWER significant=5 time_ms=_\n"
        );
        let slower = report.replace("4516.8", "9999.0").replace("3.1", "8.0");
        assert_eq!(report_answers(&slower).unwrap(), answers);
        assert!(report_answers(&report.replace("\"5\"", "\"6\"")).unwrap() != answers);
    }
}
