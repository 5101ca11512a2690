//! Loading class-labelled datasets from delimited text files (CSV / TSV).
//!
//! A deliberately small, dependency-free delimited-text reader: each row is
//! one record, one column is the class label, every other column is an
//! attribute.  Columns whose values all parse as numbers are treated as
//! continuous and discretized (supervised Fayyad–Irani by default); all other
//! columns are treated as categorical.  Missing values (`?` or empty) are
//! mapped to a dedicated `"?"` category, matching the common treatment of the
//! UCI files used in the paper.
//!
//! The reader is *streaming*: [`load_csv_reader`] pulls lines from any
//! [`BufRead`] source one at a time, so a file is never materialised as a
//! single string.  Fields may be quoted (RFC 4180 style: `"a, b"`, doubled
//! `""` escapes a literal quote, and a quoted field may span lines), and the
//! class column can be selected by index ([`LoadOptions::class_column`]) or
//! by header name ([`LoadOptions::class_column_name`]).
//!
//! [`dataset_to_csv`] is the inverse: it renders any columnar [`Dataset`]
//! back to CSV with the schema's attribute/value/class names, so datasets can
//! round-trip through files (e.g. synthetic data exported for the `sigrule`
//! CLI).
//!
//! Besides rows, the module reads *transaction* (market-basket) files: one
//! basket per line, items separated by whitespace and/or commas, the class
//! given by an optional `label:<name>` token ([`load_baskets_reader`]).
//! Basket files compile into the same [`ItemSpace`]-backed [`Dataset`] the
//! CSV path produces, so miners and corrections run unchanged on either.
//! [`InputFormat`] and [`detect_format`] pick the reader for a file.

use crate::dataset::Dataset;
use crate::discretize::{DiscretizeMethod, Discretizer};
use crate::error::DataError;
use crate::item::{ClassId, ItemId};
use crate::itemspace::ItemSpace;
use crate::record::Record;
use crate::schema::{Attribute, Schema};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;

/// Options controlling CSV/TSV parsing and preprocessing.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Column separator (default `,`).
    pub separator: char,
    /// Quote character wrapping fields that contain the separator, the quote
    /// itself (doubled) or line breaks; `None` disables quote handling
    /// (default `Some('"')`).
    pub quote: Option<char>,
    /// Whether the first row is a header with attribute names.
    pub has_header: bool,
    /// Index of the class column (default: the last column).
    pub class_column: Option<usize>,
    /// Name of the class column, resolved against the header.  Takes
    /// precedence over [`LoadOptions::class_column`]; requires
    /// [`LoadOptions::has_header`].
    pub class_column_name: Option<String>,
    /// How to discretize numeric columns.
    pub discretize: DiscretizeMethod,
    /// Token(s) treated as a missing value.
    pub missing_tokens: Vec<String>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            separator: ',',
            quote: Some('"'),
            has_header: true,
            class_column: None,
            class_column_name: None,
            discretize: DiscretizeMethod::EntropyMdl,
            missing_tokens: vec!["?".to_string(), String::new()],
        }
    }
}

impl LoadOptions {
    /// Options for tab-separated files (everything else as per
    /// [`LoadOptions::default`]).
    pub fn tsv() -> Self {
        LoadOptions {
            separator: '\t',
            ..LoadOptions::default()
        }
    }

    /// Sets the class column by header name.
    pub fn with_class_name(mut self, name: impl Into<String>) -> Self {
        self.class_column_name = Some(name.into());
        self
    }

    /// Sets the class column by index.
    pub fn with_class_column(mut self, index: usize) -> Self {
        self.class_column = Some(index);
        self
    }
}

/// Outcome of splitting one physical line into fields.
enum SplitOutcome {
    /// A complete row.
    Row(Vec<String>),
    /// The line ended inside a quoted field; the caller should append the
    /// next physical line (with the line break restored) and retry.
    Unterminated,
}

/// Splits one logical row into trimmed fields, honouring the quote character.
fn split_fields(text: &str, separator: char, quote: Option<char>) -> Result<SplitOutcome, String> {
    let Some(q) = quote else {
        return Ok(SplitOutcome::Row(
            text.split(separator)
                .map(|s| s.trim().to_string())
                .collect(),
        ));
    };

    let mut fields = Vec::new();
    let mut chars = text.chars().peekable();
    loop {
        // Skip leading whitespace of the field (but not the separator).
        while matches!(chars.peek(), Some(&c) if c.is_whitespace() && c != separator) {
            chars.next();
        }
        if chars.peek() == Some(&q) {
            chars.next();
            let mut field = String::new();
            loop {
                match chars.next() {
                    Some(c) if c == q => {
                        if chars.peek() == Some(&q) {
                            chars.next();
                            field.push(q);
                        } else {
                            break;
                        }
                    }
                    Some(c) => field.push(c),
                    None => return Ok(SplitOutcome::Unterminated),
                }
            }
            // Only whitespace may follow the closing quote before the
            // separator (or end of row).
            loop {
                match chars.next() {
                    None => {
                        fields.push(field);
                        return Ok(SplitOutcome::Row(fields));
                    }
                    Some(c) if c == separator => break,
                    Some(c) if c.is_whitespace() => continue,
                    Some(c) => {
                        return Err(format!("unexpected character {c:?} after closing quote"))
                    }
                }
            }
            fields.push(field);
        } else {
            let mut field = String::new();
            let mut ended = true;
            for c in chars.by_ref() {
                if c == separator {
                    ended = false;
                    break;
                }
                field.push(c);
            }
            fields.push(field.trim().to_string());
            if ended {
                return Ok(SplitOutcome::Row(fields));
            }
        }
    }
}

/// Reads logical rows (line number of their first physical line + fields)
/// from a line source, merging physical lines while a quoted field is open.
fn read_rows(
    lines: impl Iterator<Item = Result<String, std::io::Error>>,
    options: &LoadOptions,
) -> Result<Vec<(usize, Vec<String>)>, DataError> {
    let mut rows = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, line) in lines.enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let (start, text) = match pending.take() {
            Some((start, mut buf)) => {
                buf.push('\n');
                buf.push_str(&line);
                (start, buf)
            }
            None => {
                if line.trim().is_empty() {
                    continue;
                }
                (line_no, line)
            }
        };
        match split_fields(&text, options.separator, options.quote) {
            Ok(SplitOutcome::Row(fields)) => rows.push((start, fields)),
            Ok(SplitOutcome::Unterminated) => pending = Some((start, text)),
            Err(reason) => {
                return Err(DataError::Parse {
                    line: start,
                    reason,
                })
            }
        }
    }
    if let Some((start, _)) = pending {
        return Err(DataError::Parse {
            line: start,
            reason: "unterminated quoted field at end of input".into(),
        });
    }
    Ok(rows)
}

/// Parses a class-labelled dataset from any buffered reader (streaming: one
/// line at a time).
pub fn load_csv_reader<R: BufRead>(reader: R, options: &LoadOptions) -> Result<Dataset, DataError> {
    let mut rows = read_rows(reader.lines(), options)?;

    let header: Option<Vec<String>> = if options.has_header {
        if rows.is_empty() {
            return Err(DataError::Parse {
                line: 1,
                reason: "empty file".into(),
            });
        }
        Some(rows.remove(0).1)
    } else {
        None
    };
    if rows.is_empty() {
        return Err(DataError::Parse {
            line: 1,
            reason: "no data rows".into(),
        });
    }

    let n_columns = rows[0].1.len();
    if n_columns < 2 {
        return Err(DataError::Parse {
            line: rows[0].0,
            reason: "need at least one attribute column and one class column".into(),
        });
    }
    if let Some(h) = &header {
        if h.len() != n_columns {
            return Err(DataError::Parse {
                line: 1,
                reason: format!(
                    "header has {} columns but the data rows have {n_columns}",
                    h.len()
                ),
            });
        }
    }
    for (line_no, row) in &rows {
        if row.len() != n_columns {
            return Err(DataError::Parse {
                line: *line_no,
                reason: format!("expected {n_columns} columns, found {}", row.len()),
            });
        }
    }

    let column_names: Vec<String> = match &header {
        Some(h) => h.clone(),
        None => (0..n_columns).map(|i| format!("A{i}")).collect(),
    };

    let class_column = match (&options.class_column_name, options.class_column) {
        (Some(name), _) => {
            if header.is_none() {
                return Err(DataError::invalid_schema(
                    "class column selected by name but the file has no header",
                ));
            }
            column_names
                .iter()
                .position(|c| c == name)
                .ok_or_else(|| DataError::UnknownColumn {
                    name: name.clone(),
                    available: column_names.clone(),
                })?
        }
        (None, Some(index)) => index,
        (None, None) => n_columns - 1,
    };
    if class_column >= n_columns {
        return Err(DataError::Parse {
            line: rows[0].0,
            reason: format!(
                "class column {class_column} out of range (file has {n_columns} columns)"
            ),
        });
    }

    // Class labels.
    let mut class_names: Vec<String> = Vec::new();
    let mut class_ids: Vec<ClassId> = Vec::with_capacity(rows.len());
    for (_, row) in &rows {
        let label = &row[class_column];
        let id = match class_names.iter().position(|c| c == label) {
            Some(i) => i,
            None => {
                class_names.push(label.clone());
                class_names.len() - 1
            }
        };
        class_ids.push(id as ClassId);
    }
    if class_names.len() < 2 {
        return Err(DataError::invalid_schema(
            "class column has fewer than two distinct labels",
        ));
    }

    // Per-column processing: numeric columns are discretized, categorical
    // columns are interned.
    let attribute_columns: Vec<usize> = (0..n_columns).filter(|&c| c != class_column).collect();
    let mut attributes: Vec<Attribute> = Vec::with_capacity(attribute_columns.len());
    let mut encoded_columns: Vec<Vec<usize>> = Vec::with_capacity(attribute_columns.len());

    for &col in &attribute_columns {
        let raw: Vec<&String> = rows.iter().map(|(_, r)| &r[col]).collect();
        let is_missing = |s: &str| options.missing_tokens.iter().any(|t| t == s);
        let numeric: Option<Vec<f64>> = {
            let parsed: Vec<Option<f64>> = raw
                .iter()
                .map(|s| {
                    if is_missing(s) {
                        None
                    } else {
                        s.parse::<f64>().ok()
                    }
                })
                .collect();
            let n_present = parsed.iter().filter(|p| p.is_some()).count();
            let n_non_missing = raw.iter().filter(|s| !is_missing(s)).count();
            if n_present == n_non_missing && n_present > 0 {
                Some(parsed.iter().map(|p| p.unwrap_or(f64::NAN)).collect())
            } else {
                None
            }
        };

        if let Some(values) = numeric {
            // Fit the discretizer on non-missing values only.
            let present: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
            let present_labels: Vec<ClassId> = values
                .iter()
                .zip(class_ids.iter())
                .filter(|(v, _)| !v.is_nan())
                .map(|(_, &c)| c)
                .collect();
            let disc = Discretizer::fit(&present, &present_labels, options.discretize);
            let has_missing = values.iter().any(|v| v.is_nan());
            let mut value_names = disc.bin_labels();
            if has_missing {
                value_names.push("?".to_string());
            }
            let missing_bin = disc.n_bins();
            let encoded: Vec<usize> = values
                .iter()
                .map(|&v| if v.is_nan() { missing_bin } else { disc.bin(v) })
                .collect();
            attributes.push(Attribute::new(column_names[col].clone(), value_names));
            encoded_columns.push(encoded);
        } else {
            let mut value_names: Vec<String> = Vec::new();
            let mut encoded = Vec::with_capacity(raw.len());
            for s in &raw {
                let token = if is_missing(s) { "?" } else { s.as_str() };
                let idx = match value_names.iter().position(|v| v == token) {
                    Some(i) => i,
                    None => {
                        value_names.push(token.to_string());
                        value_names.len() - 1
                    }
                };
                encoded.push(idx);
            }
            attributes.push(Attribute::new(column_names[col].clone(), value_names));
            encoded_columns.push(encoded);
        }
    }

    let classes = class_names;
    let schema = Schema::new(attributes, classes)?;
    let mut records = Vec::with_capacity(rows.len());
    for row_idx in 0..rows.len() {
        let mut items = Vec::with_capacity(attribute_columns.len());
        for (attr_idx, column) in encoded_columns.iter().enumerate() {
            items.push(schema.item_id(attr_idx, column[row_idx])?);
        }
        records.push(Record::new(items, class_ids[row_idx]));
    }
    Dataset::new(schema, records)
}

/// Parses CSV text into a [`Dataset`].
pub fn load_csv_str(text: &str, options: &LoadOptions) -> Result<Dataset, DataError> {
    load_csv_reader(text.as_bytes(), options)
}

/// Loads a CSV file from disk (buffered and streaming).
pub fn load_csv_file(path: impl AsRef<Path>, options: &LoadOptions) -> Result<Dataset, DataError> {
    let file = std::fs::File::open(path)?;
    load_csv_reader(std::io::BufReader::new(file), options)
}

/// Quotes a field for CSV output when it contains the separator, a quote, a
/// line break, or leading/trailing whitespace.
fn csv_field(value: &str, separator: char) -> String {
    let needs_quotes = value.contains(separator)
        || value.contains('"')
        || value.contains('\n')
        || value.contains('\r')
        || value != value.trim();
    if needs_quotes {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Renders a columnar dataset back to CSV with the schema's attribute, value
/// and class names; the class label is the last column, named `class`.
///
/// Loading the result with [`load_csv_str`] and default options reconstructs
/// a dataset with the same per-item supports (value and class *indices* may
/// be renumbered in first-seen order; names are preserved).  Note that purely
/// numeric categorical value names would be re-discretized on load.
///
/// # Panics
///
/// Panics when the dataset carries no schema (basket data); use
/// [`dataset_to_baskets`] for those.
pub fn dataset_to_csv(dataset: &Dataset) -> String {
    let schema = dataset
        .schema()
        .expect("CSV export needs columnar data; use dataset_to_baskets for basket datasets");
    let separator = ',';
    let mut out = String::new();
    let header: Vec<String> = schema
        .attributes()
        .iter()
        .map(|a| csv_field(&a.name, separator))
        .chain(std::iter::once("class".to_string()))
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for record in dataset.records() {
        let mut cells = Vec::with_capacity(schema.n_attributes() + 1);
        for &item in record.items() {
            cells.push(csv_field(&schema.describe_value(item), separator));
        }
        cells.push(csv_field(
            schema.class_name(record.class()).unwrap_or("?"),
            separator,
        ));
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Which reader a file goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputFormat {
    /// Delimited rows: one record per row, one column per attribute
    /// ([`load_csv_reader`]).
    #[default]
    Rows,
    /// Transactions: one basket of item tokens per line
    /// ([`load_baskets_reader`]).
    Basket,
}

impl InputFormat {
    /// Parses a CLI-style name (`rows`/`csv` or `basket`/`baskets`/
    /// `transactions`).
    pub fn parse(name: &str) -> Option<InputFormat> {
        match name.to_ascii_lowercase().as_str() {
            "rows" | "row" | "csv" | "tabular" => Some(InputFormat::Rows),
            "basket" | "baskets" | "transactions" | "transaction" => Some(InputFormat::Basket),
            _ => None,
        }
    }

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            InputFormat::Rows => "rows",
            InputFormat::Basket => "basket",
        }
    }
}

/// Guesses the [`InputFormat`] of a file with the default [`BasketOptions`];
/// see [`detect_format_with`].
pub fn detect_format(path: impl AsRef<Path>) -> Result<InputFormat, DataError> {
    detect_format_with(path, &BasketOptions::default())
}

/// Guesses the [`InputFormat`] of a file, deterministically: first by
/// extension (`.csv`/`.tsv`/`.data` → rows; `.basket`/`.baskets`/`.dat` →
/// basket), then — for unknown extensions — by sniffing the first non-blank,
/// non-comment line: a line containing a label token (per the given
/// [`BasketOptions`], `label:` by default) reads as a basket, anything else
/// as rows.
pub fn detect_format_with(
    path: impl AsRef<Path>,
    options: &BasketOptions,
) -> Result<InputFormat, DataError> {
    let path = path.as_ref();
    match path
        .extension()
        .and_then(|e| e.to_str())
        .map(|e| e.to_ascii_lowercase())
        .as_deref()
    {
        Some("csv" | "tsv" | "data" | "test") => return Ok(InputFormat::Rows),
        Some("basket" | "baskets" | "dat" | "tx") => return Ok(InputFormat::Basket),
        _ => {}
    }
    let file = std::fs::File::open(path)?;
    for line in std::io::BufReader::new(file).lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || options.is_comment(trimmed) {
            continue;
        }
        let has_label =
            basket_tokens(trimmed).any(|t| t.strip_prefix(options.label_prefix.as_str()).is_some());
        return Ok(if has_label {
            InputFormat::Basket
        } else {
            InputFormat::Rows
        });
    }
    Ok(InputFormat::Rows)
}

/// Options controlling basket (transaction) file parsing.
///
/// The format is one transaction per line: item tokens separated by
/// whitespace and/or commas.  A token starting with
/// [`BasketOptions::label_prefix`] (default `label:`) names the transaction's
/// class; transactions without one take [`BasketOptions::default_class`] when
/// set and are an error otherwise.  Lines starting with
/// [`BasketOptions::comment_prefix`] are skipped.
#[derive(Debug, Clone)]
pub struct BasketOptions {
    /// Prefix marking the class token of a transaction (default `label:`).
    pub label_prefix: String,
    /// Class assigned to transactions that carry no label token; `None`
    /// makes an unlabelled transaction a parse error.
    pub default_class: Option<String>,
    /// Lines starting with this prefix are skipped (default `Some('#')`).
    pub comment_prefix: Option<char>,
}

impl Default for BasketOptions {
    fn default() -> Self {
        BasketOptions {
            label_prefix: "label:".to_string(),
            default_class: None,
            comment_prefix: Some('#'),
        }
    }
}

impl BasketOptions {
    /// Sets the class assigned to transactions without a label token.
    pub fn with_default_class(mut self, class: impl Into<String>) -> Self {
        self.default_class = Some(class.into());
        self
    }

    fn is_comment(&self, trimmed_line: &str) -> bool {
        self.comment_prefix
            .is_some_and(|p| trimmed_line.starts_with(p))
    }
}

/// A non-fatal problem encountered while loading a basket file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadWarning {
    /// Line number (1-based) the warning refers to.
    pub line: usize,
    /// What happened.
    pub message: String,
}

impl std::fmt::Display for LoadWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// The outcome of loading a basket file: the dataset plus any line-level
/// warnings (blank lines skipped, empty transactions).
#[derive(Debug, Clone)]
pub struct BasketLoad {
    /// The loaded dataset (basket [`ItemSpace`], no schema).
    pub dataset: Dataset,
    /// Non-fatal problems, in line order.
    pub warnings: Vec<LoadWarning>,
}

/// Splits one basket line into item tokens (whitespace- and/or
/// comma-separated; empty tokens are dropped).
fn basket_tokens(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| c == ',' || c.is_whitespace())
        .map(str::trim)
        .filter(|t| !t.is_empty())
}

/// Parses a transaction (market-basket) dataset from any buffered reader:
/// one basket per line.
///
/// * Items are tokens separated by whitespace and/or commas and are interned
///   into a basket [`ItemSpace`] in first-seen order.
/// * A token starting with the label prefix (`label:` by default) names the
///   transaction's class; two *different* label tokens on one line are a
///   parse error.
/// * Duplicate items within one transaction are collapsed deterministically —
///   the item counts once towards the basket's supports.
/// * Blank or whitespace-only lines are skipped with a line-numbered
///   [`LoadWarning`] instead of erroring; a transaction whose only token is
///   its label is kept (it still carries a class) with a warning.
pub fn load_baskets_reader<R: BufRead>(
    reader: R,
    options: &BasketOptions,
) -> Result<BasketLoad, DataError> {
    let mut tokens: Vec<String> = Vec::new();
    let mut token_ids: HashMap<String, ItemId> = HashMap::new();
    let mut classes: Vec<String> = Vec::new();
    let mut class_ids: HashMap<String, ClassId> = HashMap::new();
    let mut records: Vec<Record> = Vec::new();
    let mut warnings: Vec<LoadWarning> = Vec::new();

    let mut intern_class = |name: &str, classes: &mut Vec<String>| -> ClassId {
        *class_ids.entry(name.to_string()).or_insert_with(|| {
            classes.push(name.to_string());
            (classes.len() - 1) as ClassId
        })
    };

    let mut any_line = false;
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        any_line = true;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            warnings.push(LoadWarning {
                line: line_no,
                message: "blank line skipped".to_string(),
            });
            continue;
        }
        if options.is_comment(trimmed) {
            continue;
        }

        let mut label: Option<&str> = None;
        let mut items: Vec<ItemId> = Vec::new();
        for token in basket_tokens(trimmed) {
            if let Some(class) = token.strip_prefix(options.label_prefix.as_str()) {
                if class.is_empty() {
                    return Err(DataError::Parse {
                        line: line_no,
                        reason: format!("empty class label token {token:?}"),
                    });
                }
                match label {
                    Some(previous) if previous != class => {
                        return Err(DataError::Parse {
                            line: line_no,
                            reason: format!(
                                "conflicting class labels {previous:?} and {class:?} in one transaction"
                            ),
                        });
                    }
                    _ => label = Some(class),
                }
            } else {
                let next_id = tokens.len() as ItemId;
                let id = *token_ids.entry(token.to_string()).or_insert_with(|| {
                    tokens.push(token.to_string());
                    next_id
                });
                items.push(id);
            }
        }

        let class_name = match (label, &options.default_class) {
            (Some(label), _) => label,
            (None, Some(default)) => default.as_str(),
            (None, None) => {
                return Err(DataError::Parse {
                    line: line_no,
                    reason: format!(
                        "transaction has no {}<class> token and no default class is configured",
                        options.label_prefix
                    ),
                })
            }
        };
        if items.is_empty() {
            warnings.push(LoadWarning {
                line: line_no,
                message: "transaction has no items".to_string(),
            });
        }
        let class = intern_class(class_name, &mut classes);
        // Record::new sorts and dedups, collapsing repeated items.
        records.push(Record::new(items, class));
    }

    if !any_line || records.is_empty() {
        return Err(DataError::Parse {
            line: 1,
            reason: "no transactions in input".to_string(),
        });
    }
    if classes.len() < 2 {
        return Err(DataError::invalid_schema(
            "basket data has fewer than two distinct class labels",
        ));
    }
    let item_space = ItemSpace::baskets(tokens, classes)?;
    let dataset = Dataset::from_baskets(item_space, records)?;
    Ok(BasketLoad { dataset, warnings })
}

/// Parses basket text into a [`BasketLoad`].
pub fn load_baskets_str(text: &str, options: &BasketOptions) -> Result<BasketLoad, DataError> {
    load_baskets_reader(text.as_bytes(), options)
}

/// Loads a basket file from disk (buffered and streaming).
pub fn load_baskets_file(
    path: impl AsRef<Path>,
    options: &BasketOptions,
) -> Result<BasketLoad, DataError> {
    let file = std::fs::File::open(path)?;
    load_baskets_reader(std::io::BufReader::new(file), options)
}

/// Renders any dataset as basket lines: each record's item names as tokens
/// plus a `label:<class>` token, one transaction per line.
///
/// The textual format has no quoting, so a token must not contain the
/// separators (whitespace, commas): any run of them inside an item or class
/// name is replaced by a single `_`.  Typical attribute datasets re-encode
/// verbatim (`attribute=value` names are separator-free); names that needed
/// mangling still re-load as *one* item each, but two names that differ only
/// in separator placement would collide.
pub fn dataset_to_baskets(dataset: &Dataset) -> String {
    let space = dataset.item_space();
    let mut out = String::new();
    for record in dataset.records() {
        let mut line: Vec<String> = record
            .items()
            .iter()
            .map(|&i| basket_token(&space.describe_item(i)))
            .collect();
        line.push(format!(
            "label:{}",
            basket_token(space.class_name(record.class()).unwrap_or("?"))
        ));
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out
}

/// Collapses every run of basket separators (whitespace, commas) inside a
/// name into one `_`, so the name survives as a single token.
fn basket_token(name: &str) -> String {
    if !name.contains(|c: char| c == ',' || c.is_whitespace()) {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len());
    let mut in_separator = false;
    for c in name.chars() {
        if c == ',' || c.is_whitespace() {
            if !in_separator {
                out.push('_');
                in_separator = true;
            }
        } else {
            out.push(c);
            in_separator = false;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
age,color,outcome
23,red,yes
31,blue,no
45,red,yes
52,blue,no
29,green,yes
61,red,no
47,green,yes
38,blue,no
";

    #[test]
    fn loads_mixed_numeric_and_categorical_columns() {
        let d = load_csv_str(SAMPLE, &LoadOptions::default()).unwrap();
        assert_eq!(d.n_records(), 8);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.schema().unwrap().n_attributes(), 2);
        assert_eq!(d.schema().unwrap().attributes()[0].name, "age");
        assert_eq!(d.schema().unwrap().attributes()[1].name, "color");
        // color has three categories
        assert_eq!(d.schema().unwrap().attributes()[1].cardinality(), 3);
        // classes preserve first-seen order
        assert_eq!(
            d.schema().unwrap().classes(),
            &["yes".to_string(), "no".to_string()]
        );
    }

    #[test]
    fn no_header_and_custom_separator() {
        let text = "1;a;x\n2;b;y\n3;a;x\n";
        let opts = LoadOptions {
            separator: ';',
            has_header: false,
            ..LoadOptions::default()
        };
        let d = load_csv_str(text, &opts).unwrap();
        assert_eq!(d.n_records(), 3);
        assert_eq!(d.schema().unwrap().attributes()[0].name, "A0");
        assert_eq!(d.n_classes(), 2);
    }

    #[test]
    fn tsv_options() {
        let text = "a\tb\tcls\n1\tu\tx\n2\tv\ty\n";
        let d = load_csv_str(text, &LoadOptions::tsv()).unwrap();
        assert_eq!(d.n_records(), 2);
        assert_eq!(d.schema().unwrap().attributes()[1].name, "b");
    }

    #[test]
    fn missing_values_get_their_own_category() {
        let text = "a,b,cls\n1,?,x\n2,u,y\n3,v,x\n4,u,y\n";
        let d = load_csv_str(text, &LoadOptions::default()).unwrap();
        let b = &d.schema().unwrap().attributes()[1];
        assert!(b.values.contains(&"?".to_string()));
    }

    #[test]
    fn class_column_override() {
        let text = "cls,a\nx,1\ny,2\nx,3\n";
        let opts = LoadOptions {
            class_column: Some(0),
            ..LoadOptions::default()
        };
        let d = load_csv_str(text, &opts).unwrap();
        assert_eq!(d.schema().unwrap().n_attributes(), 1);
        assert_eq!(d.schema().unwrap().classes().len(), 2);
    }

    #[test]
    fn class_column_by_name() {
        let text = "cls,a\nx,1\ny,2\nx,3\n";
        let opts = LoadOptions::default().with_class_name("cls");
        let d = load_csv_str(text, &opts).unwrap();
        assert_eq!(d.schema().unwrap().n_attributes(), 1);
        assert_eq!(d.schema().unwrap().attributes()[0].name, "a");

        let missing = LoadOptions::default().with_class_name("nope");
        let err = load_csv_str(text, &missing).unwrap_err();
        assert!(matches!(err, DataError::UnknownColumn { .. }));
        assert!(err.to_string().contains("nope"));
        assert!(err.to_string().contains("cls"));

        // By-name selection needs a header to resolve against.
        let headerless = LoadOptions {
            has_header: false,
            ..LoadOptions::default().with_class_name("cls")
        };
        assert!(load_csv_str(text, &headerless).is_err());
    }

    #[test]
    fn quoted_fields() {
        let text = "name,note,cls\nalpha,\"a, quoted\",x\nbeta,\"say \"\"hi\"\"\",y\n gamma , \"padded\" ,x\n";
        let d = load_csv_str(text, &LoadOptions::default()).unwrap();
        assert_eq!(d.n_records(), 3);
        let note = &d.schema().unwrap().attributes()[1];
        assert!(note.values.contains(&"a, quoted".to_string()));
        assert!(note.values.contains(&"say \"hi\"".to_string()));
        assert!(note.values.contains(&"padded".to_string()));
        // unquoted fields are still trimmed
        let name = &d.schema().unwrap().attributes()[0];
        assert!(name.values.contains(&"gamma".to_string()));
    }

    #[test]
    fn quoted_field_spanning_lines() {
        let text = "a,cls\n\"line\nbreak\",x\nplain,y\n";
        let d = load_csv_str(text, &LoadOptions::default()).unwrap();
        assert_eq!(d.n_records(), 2);
        assert!(d.schema().unwrap().attributes()[0]
            .values
            .contains(&"line\nbreak".to_string()));
    }

    #[test]
    fn unterminated_quote_is_a_parse_error() {
        let text = "a,cls\n\"never closed,x\n";
        let err = load_csv_str(text, &LoadOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { .. }));
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn garbage_after_closing_quote_is_a_parse_error() {
        let text = "a,cls\n\"ok\"junk,x\n\"fine\",y\n";
        let err = load_csv_str(text, &LoadOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }));
    }

    #[test]
    fn quote_handling_can_be_disabled() {
        let text = "a,cls\n\"raw,x\n\"other,y\n";
        let opts = LoadOptions {
            quote: None,
            ..LoadOptions::default()
        };
        let d = load_csv_str(text, &opts).unwrap();
        assert!(d.schema().unwrap().attributes()[0]
            .values
            .contains(&"\"raw".to_string()));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(load_csv_str("", &LoadOptions::default()).is_err());
        assert!(load_csv_str("only_header\n", &LoadOptions::default()).is_err());
        // ragged rows
        let text = "a,b,cls\n1,2,x\n1,y\n";
        assert!(load_csv_str(text, &LoadOptions::default()).is_err());
        // single class label
        let text = "a,cls\n1,x\n2,x\n";
        assert!(load_csv_str(text, &LoadOptions::default()).is_err());
        // class column out of range
        let opts = LoadOptions {
            class_column: Some(9),
            ..LoadOptions::default()
        };
        assert!(load_csv_str("a,b\n1,x\n2,y\n", &opts).is_err());
    }

    #[test]
    fn header_width_must_match_the_data_rows() {
        // Wider data than header: previously panicked (indexing past the
        // header) or silently misaligned the column names.
        let err = load_csv_str("cls,a\nx,1,2\ny,3,4\n", &LoadOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }));
        assert!(err.to_string().contains("header has 2 columns"));
        let opts = LoadOptions {
            class_column: Some(0),
            ..LoadOptions::default()
        };
        assert!(load_csv_str("cls,a\nx,1,2\ny,3,4\n", &opts).is_err());
        // Narrower data than header.
        let err = load_csv_str("a,b,cls\n1,x\n2,y\n", &LoadOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }));
    }

    #[test]
    fn parse_error_reports_line_number() {
        let text = "a,b,cls\n1,2,x\n3,4,y\n5,z\n";
        match load_csv_str(text, &LoadOptions::default()).unwrap_err() {
            DataError::Parse { line, reason } => {
                assert_eq!(line, 4);
                assert!(reason.contains("expected 3 columns"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("sigrule_loader_test.csv");
        std::fs::write(&path, SAMPLE).unwrap();
        let d = load_csv_file(&path, &LoadOptions::default()).unwrap();
        assert_eq!(d.n_records(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_csv_file("/nonexistent/sigrule.csv", &LoadOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Io { .. }));
    }

    #[test]
    fn export_then_load_preserves_counts_and_names() {
        let d = load_csv_str(
            "x,cls\nred,a\nblue,b\nred,a\n\"c,d\",b\n",
            &LoadOptions::default(),
        )
        .unwrap();
        let csv = dataset_to_csv(&d);
        assert!(csv.starts_with("x,class\n"));
        assert!(csv.contains("\"c,d\""));
        let back = load_csv_str(&csv, &LoadOptions::default()).unwrap();
        assert_eq!(back.n_records(), d.n_records());
        assert_eq!(back.n_classes(), d.n_classes());
        assert_eq!(
            back.schema().unwrap().attributes()[0].values,
            d.schema().unwrap().attributes()[0].values
        );
    }

    const BASKETS: &str = "\
# toy transactions
milk bread label:weekday
milk, beer, label:weekend
bread eggs milk label:weekday
beer label:weekend
";

    #[test]
    fn loads_basket_transactions() {
        let load = load_baskets_str(BASKETS, &BasketOptions::default()).unwrap();
        let d = &load.dataset;
        assert!(load.warnings.is_empty());
        assert_eq!(d.n_records(), 4);
        assert!(d.schema().is_none());
        assert!(d.item_space().is_basket());
        // tokens interned in first-seen order
        let space = d.item_space();
        assert_eq!(space.describe_item(0), "milk");
        assert_eq!(space.describe_item(1), "bread");
        assert_eq!(space.describe_item(2), "beer");
        assert_eq!(space.describe_item(3), "eggs");
        assert_eq!(d.item_support(0), 3); // milk
        assert_eq!(d.item_support(2), 2); // beer
        assert_eq!(
            space.classes(),
            &["weekday".to_string(), "weekend".to_string()]
        );
        let counts = d.class_counts();
        assert_eq!(counts.count(0), 2);
        assert_eq!(counts.count(1), 2);
    }

    #[test]
    fn blank_basket_lines_warn_instead_of_erroring() {
        let text = "a b label:x\n\n   \nc label:y\n";
        let load = load_baskets_str(text, &BasketOptions::default()).unwrap();
        assert_eq!(load.dataset.n_records(), 2);
        assert_eq!(
            load.warnings,
            vec![
                LoadWarning {
                    line: 2,
                    message: "blank line skipped".into()
                },
                LoadWarning {
                    line: 3,
                    message: "blank line skipped".into()
                },
            ]
        );
        assert!(load.warnings[0].to_string().contains("line 2"));
    }

    #[test]
    fn duplicate_items_in_one_transaction_count_once() {
        let text = "a a b a label:x\nb label:y\n";
        let load = load_baskets_str(text, &BasketOptions::default()).unwrap();
        let d = &load.dataset;
        assert_eq!(d.records()[0].items(), &[0, 1]);
        assert_eq!(d.item_support(0), 1);
    }

    #[test]
    fn unlabelled_transactions_need_a_default_class() {
        let text = "a b\nc label:y\n";
        let err = load_baskets_str(text, &BasketOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }));

        let opts = BasketOptions::default().with_default_class("x");
        let load = load_baskets_str(text, &opts).unwrap();
        assert_eq!(load.dataset.n_records(), 2);
        assert_eq!(load.dataset.item_space().classes()[0], "x");
    }

    #[test]
    fn conflicting_labels_are_a_parse_error() {
        let text = "a label:x label:y\n";
        let err = load_baskets_str(text, &BasketOptions::default()).unwrap_err();
        match err {
            DataError::Parse { line, reason } => {
                assert_eq!(line, 1);
                assert!(reason.contains("conflicting"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // the same label twice is fine
        let ok = load_baskets_str("a label:x label:x\nb label:y\n", &BasketOptions::default());
        assert!(ok.is_ok());
        // an empty label token is rejected
        let err = load_baskets_str("a label:\nb label:y\n", &BasketOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }));
    }

    #[test]
    fn label_only_transaction_is_kept_with_a_warning() {
        let text = "label:x\na label:y\n";
        let load = load_baskets_str(text, &BasketOptions::default()).unwrap();
        assert_eq!(load.dataset.n_records(), 2);
        assert!(load.dataset.records()[0].is_empty());
        assert_eq!(load.warnings.len(), 1);
        assert!(load.warnings[0].message.contains("no items"));
    }

    #[test]
    fn degenerate_basket_inputs_error() {
        assert!(load_baskets_str("", &BasketOptions::default()).is_err());
        assert!(load_baskets_str("# only a comment\n", &BasketOptions::default()).is_err());
        // single class
        let err = load_baskets_str("a label:x\nb label:x\n", &BasketOptions::default());
        assert!(matches!(err, Err(DataError::InvalidSchema { .. })));
    }

    #[test]
    fn basket_export_mangles_separator_names_into_single_tokens() {
        // An attribute value containing a comma and spaces (quoted CSV)
        // must not split into several items on re-load.
        let d = load_csv_str(
            "note,cls\n\"a, quoted\",x\nplain,y\n\"a, quoted\",x\n",
            &LoadOptions::default(),
        )
        .unwrap();
        let text = dataset_to_baskets(&d);
        assert!(text.contains("note=a_quoted"));
        let back = load_baskets_str(&text, &BasketOptions::default()).unwrap();
        assert_eq!(back.dataset.n_records(), 3);
        let item = back
            .dataset
            .item_space()
            .item_named("note=a_quoted")
            .expect("mangled name is one token");
        assert_eq!(back.dataset.item_support(item), 2);
    }

    #[test]
    fn detect_format_honours_custom_label_prefix() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sigrule_detect_{}_c.txt", std::process::id()));
        std::fs::write(&path, "milk bread class:yes\n").unwrap();
        // default prefix sees no label token → rows
        assert_eq!(detect_format(&path).unwrap(), InputFormat::Rows);
        let opts = BasketOptions {
            label_prefix: "class:".to_string(),
            ..BasketOptions::default()
        };
        assert_eq!(
            detect_format_with(&path, &opts).unwrap(),
            InputFormat::Basket
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn basket_export_round_trips_supports() {
        let load = load_baskets_str(BASKETS, &BasketOptions::default()).unwrap();
        let text = dataset_to_baskets(&load.dataset);
        let back = load_baskets_str(&text, &BasketOptions::default()).unwrap();
        assert_eq!(back.dataset, load.dataset);
    }

    #[test]
    fn basket_file_round_trip_and_missing_file() {
        let path = std::env::temp_dir().join(format!(
            "sigrule_basket_loader_{}.basket",
            std::process::id()
        ));
        std::fs::write(&path, BASKETS).unwrap();
        let load = load_baskets_file(&path, &BasketOptions::default()).unwrap();
        assert_eq!(load.dataset.n_records(), 4);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_baskets_file("/nonexistent/x.basket", &BasketOptions::default()),
            Err(DataError::Io { .. })
        ));
    }

    #[test]
    fn input_format_parse_and_labels() {
        assert_eq!(InputFormat::parse("rows"), Some(InputFormat::Rows));
        assert_eq!(InputFormat::parse("CSV"), Some(InputFormat::Rows));
        assert_eq!(InputFormat::parse("basket"), Some(InputFormat::Basket));
        assert_eq!(
            InputFormat::parse("transactions"),
            Some(InputFormat::Basket)
        );
        assert_eq!(InputFormat::parse("nope"), None);
        assert_eq!(InputFormat::Rows.label(), "rows");
        assert_eq!(InputFormat::Basket.label(), "basket");
    }

    #[test]
    fn detect_format_by_extension_and_content() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();

        let csv = dir.join(format!("sigrule_detect_{pid}.csv"));
        std::fs::write(&csv, "a,cls\n1,x\n").unwrap();
        assert_eq!(detect_format(&csv).unwrap(), InputFormat::Rows);

        let basket = dir.join(format!("sigrule_detect_{pid}.basket"));
        std::fs::write(&basket, "a b label:x\n").unwrap();
        assert_eq!(detect_format(&basket).unwrap(), InputFormat::Basket);

        // unknown extension: sniff the first data line
        let sniff_basket = dir.join(format!("sigrule_detect_{pid}_b.txt"));
        std::fs::write(&sniff_basket, "# comment\n\nmilk bread label:yes\n").unwrap();
        assert_eq!(detect_format(&sniff_basket).unwrap(), InputFormat::Basket);

        let sniff_rows = dir.join(format!("sigrule_detect_{pid}_r.txt"));
        std::fs::write(&sniff_rows, "a,b,cls\n1,2,x\n").unwrap();
        assert_eq!(detect_format(&sniff_rows).unwrap(), InputFormat::Rows);

        for p in [csv, basket, sniff_basket, sniff_rows] {
            std::fs::remove_file(p).ok();
        }
        assert!(detect_format("/nonexistent/sigrule.unknown").is_err());
    }

    /// Fragments the loader fuzzers splice together: separators, quotes,
    /// line breaks, label tokens, numeric edge cases, a byte-order mark and
    /// bytes that are not UTF-8.
    const HOSTILE_FRAGMENTS: &[&[u8]] = &[
        b",",
        b"\t",
        b";",
        b" ",
        b"\"",
        b"\"\"",
        b"\n",
        b"\r\n",
        b"\r",
        b"a",
        b"b",
        b"x y",
        b"1",
        b"-2.5",
        b"1e308",
        b"-1e308",
        b"inf",
        b"-inf",
        b"NaN",
        b"?",
        b"",
        b"label:",
        b"label:a",
        b"label:b",
        b"label:label:",
        b"#",
        b"\xef\xbb\xbf",
        b"\xff",
        b"\xc3",
        b"\xe2\x82",
        b"\0",
        b"\xf0\x9f\x92\xa9",
    ];

    fn hostile_input(picks: &[usize]) -> Vec<u8> {
        picks
            .iter()
            .flat_map(|&i| {
                HOSTILE_FRAGMENTS[i % HOSTILE_FRAGMENTS.len()]
                    .iter()
                    .copied()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(400))]

        /// Malformed CSV — ragged rows, stray and unterminated quotes,
        /// invalid UTF-8, numeric edge cases — loads or errors, never
        /// panics, under every quoting, header and class-column option.
        #[test]
        fn hostile_csv_input_never_panics(
            picks in proptest::prop::collection::vec(0usize..64, 0..120),
            header in 0usize..2,
            quote in 0usize..2,
            class_column in 0usize..4,
            tsv in 0usize..2,
        ) {
            let mut options = if tsv == 1 { LoadOptions::tsv() } else { LoadOptions::default() };
            options.has_header = header == 1;
            if quote == 0 {
                options.quote = None;
            }
            if class_column < 3 {
                options.class_column = Some(class_column);
            }
            let input = hostile_input(&picks);
            if let Ok(dataset) = load_csv_reader(&input[..], &options) {
                proptest::prop_assert!(dataset.n_records() > 0);
                proptest::prop_assert!(dataset.n_classes() >= 2);
            }
        }

        /// Malformed basket input — lone or conflicting `label:` tokens,
        /// comment and blank lines, invalid UTF-8 — loads (possibly with
        /// warnings) or errors, never panics.
        #[test]
        fn hostile_basket_input_never_panics(
            picks in proptest::prop::collection::vec(0usize..64, 0..120),
            default_class in 0usize..2,
        ) {
            let mut options = BasketOptions::default();
            if default_class == 1 {
                options = options.with_default_class("rest");
            }
            let input = hostile_input(&picks);
            if let Ok(load) = load_baskets_reader(&input[..], &options) {
                proptest::prop_assert!(load.dataset.n_records() > 0);
                proptest::prop_assert!(load.dataset.n_classes() >= 2);
            }
        }
    }

    /// A lone `label:` token names no class: a line-numbered parse error.
    /// A line whose only token is a label is kept with a warning.
    #[test]
    fn hostile_lone_label_token() {
        let options = BasketOptions::default();
        match load_baskets_str("a label:x\nlabel:\n", &options) {
            Err(DataError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected a parse error, got {other:?}"),
        }
        let load = load_baskets_str("a label:x\nlabel:y\n", &options).unwrap();
        assert_eq!(load.dataset.n_records(), 2);
        assert_eq!(load.warnings.len(), 1);
        assert_eq!(load.warnings[0].line, 2);
        assert!(load_baskets_str("label:\n", &options).is_err());
        assert!(load_csv_str("label:\n", &LoadOptions::default()).is_err());
    }

    /// Bytes that are not UTF-8 are an i/o error naming the problem, in
    /// either format, whatever line they sit on.
    #[test]
    fn hostile_invalid_utf8_is_an_error() {
        for input in [
            &b"a,b\n1,\xff\n2,y\n"[..],
            &b"\xc3\n"[..],
            &b"a,b\n1,x\n2,y\n3,\xe2\x82"[..],
        ] {
            let csv = load_csv_reader(input, &LoadOptions::default());
            assert!(matches!(csv, Err(DataError::Io { .. })), "{csv:?}");
        }
        for input in [
            &b"a label:x\n\xff label:y\n"[..],
            &b"\xc3\n"[..],
            &b"a label:x\nb label:y\nlabel:\xe2\x82"[..],
        ] {
            let baskets = load_baskets_reader(input, &BasketOptions::default());
            assert!(matches!(baskets, Err(DataError::Io { .. })), "{baskets:?}");
        }
    }

    /// Numeric columns of infinities, extreme magnitudes or nothing but
    /// `NaN` load or error, never panic.
    #[test]
    fn hostile_numeric_edge_columns() {
        for text in [
            "a,c\nNaN,x\nNaN,y\n",
            "a,c\ninf,x\n-inf,y\n1e308,x\n-1e308,y\n",
            "a,c\ninf,x\ninf,y\n",
            "a,c\n1e-320,x\n0,y\n-0,x\n",
        ] {
            if let Ok(dataset) = load_csv_str(text, &LoadOptions::default()) {
                assert!(dataset.n_records() > 0, "{text:?}");
            }
        }
    }

    /// Multi-megabyte fields and tokens load (as one long value) or error;
    /// an unterminated multi-megabyte quote is a parse error.
    #[test]
    fn hostile_multi_megabyte_fields() {
        let long = "z".repeat(3 << 20);
        let csv = format!("a,class\n{long},x\n\"{long}\",y\n");
        let dataset = load_csv_str(&csv, &LoadOptions::default()).unwrap();
        assert_eq!(dataset.n_records(), 2);
        let unterminated = format!("a,class\n\"{long},x\n1,y\n");
        assert!(matches!(
            load_csv_str(&unterminated, &LoadOptions::default()),
            Err(DataError::Parse { line: 2, .. })
        ));
        let baskets = format!("{long} label:x\nb label:y\nlabel:{long}\n");
        let load = load_baskets_str(&baskets, &BasketOptions::default()).unwrap();
        assert_eq!(load.dataset.n_records(), 3);
        assert_eq!(load.dataset.n_classes(), 3);
    }
}
