//! The layered sigrule benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --sigrule <path>
//! ```
//!
//! Runs one workload from the root of a sigrule checkout, against the
//! `sigrule` binary built from it and its public library API.  An untraced
//! run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports per-layer self times from spans recorded around
//! calls into each layer.  Every answer is checked.  A human-readable report
//! goes to stderr; the last line of stdout is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  See `perfbench/README.md`.

mod common;
mod inputs;
mod norm;
mod proc;
mod rows;
mod serve;
mod stats;
mod trace;

use common::{Ctx, RunResult};
use serve::Kind;
use std::path::PathBuf;

/// The workloads, with why each was chosen.
const WORKLOADS: [(&str, &str); 4] = [
    (
        "rows-oneshot",
        "a fresh `sigrule correct` (all seven methods, --threads 2) on D2kA20R5: mining, the cold null and holdout all block the answer",
    ),
    (
        "rows-warm-serve",
        "warm re-asks at new alpha on a served, primed D2k: bypasses mining and the null, so decision, protocol and transport dominate",
    ),
    (
        "basket-refill-serve",
        "refill rounds (a fresh-seed permutation ask and a holdout ask) on a served sparse basket file: the null cache write path, few nodes with wide covers",
    ),
    (
        "rows-sharded",
        "rows-oneshot at --threads 1 plus one single-threaded serve worker: the only path through server.coordinate and perm_shard",
    ),
];

/// End-to-end metrics (untraced runs): name, unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cold_correct_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name, unit.
const PER_LAYER: [(&str, &str); 33] = [
    ("data.loader.load_s", "s"),
    ("data.loader.mb_per_s", "MB/s"),
    ("data.vertical.index_s", "s"),
    ("mining.forest.mine_s", "s"),
    ("mining.forest.nodes_per_s", "1/s"),
    ("core.miner.score_s", "s"),
    ("stats.buffer.tables_s", "s"),
    ("stats.buffer.table_bytes", "bytes"),
    ("core.permutation.null_s", "s"),
    ("core.permutation.rule_perms_per_s", "1/s"),
    ("data.kernel.batched_sweeps", "count"),
    ("data.kernel.per_perm_sweeps", "count"),
    ("core.holdout.holdout_s", "s"),
    ("core.decision.fwer_ms", "ms"),
    ("core.decision.fdr_ms", "ms"),
    ("core.decision.bonferroni_ms", "ms"),
    ("core.decision.bh_ms", "ms"),
    ("core.engine.query_ms", "ms"),
    ("core.engine.mine_hit_ratio", "ratio"),
    ("core.engine.null_hit_ratio", "ratio"),
    ("server.proto.handle_ms", "ms"),
    ("server.proto.resp_bytes", "bytes"),
    ("server.transport.self_ms", "ms"),
    ("server.json.parse_ms", "ms"),
    ("server.json.parse_mb_per_s", "MB/s"),
    ("server.coordinate.ranges_local", "count"),
    ("server.coordinate.ranges_remote", "count"),
    ("server.coordinate.retries", "count"),
    ("server.coordinate.payload_bytes", "bytes"),
    ("server.coordinate.remote_share", "ratio"),
    ("other.unattributed_s", "s"),
    ("other.trace_overhead_s", "s"),
    ("other.failed_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sigrule: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        sigrule: PathBuf::from(get("--sigrule")?),
    })
}

/// `rustc --version`, or "unknown".
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// The commit of the checkout, when it is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |v| v.trim().to_string(),
        )
}

/// Metric names and units, as `BENCHMARK.json` lists them.
type MetricList = &'static [(&'static str, &'static str)];

fn run(args: &Args) -> Result<(RunResult, MetricList), String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = proc::work_dir(&root, &args.workload).map_err(|e| format!("work dir: {e}"))?;
    let ctx = Ctx::new(root, args.sigrule.clone(), work, args.seed, args.seconds);
    let why = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map_or("", |w| w.1);
    eprintln!(
        "perfbench: workload {} (seed {}, {} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    eprintln!("  why: {why}");
    eprintln!(
        "  machine: nproc {}, kernel {}, commit {}, {}",
        ctx.nproc,
        sigrule_data::kernel::kind().name(),
        commit(),
        rustc_version()
    );
    eprintln!(
        "  inputs: D2kA20R5 generator seed {} (min_sup {}), basket {:?} generator seed {} (min_sup {}), N = {}",
        inputs::D2K_SEED,
        inputs::D2K_MIN_SUP,
        inputs::basket_params(),
        inputs::BASKET_SEED,
        inputs::BASKET_MIN_SUP,
        inputs::PERMUTATIONS
    );
    let result = match (args.workload.as_str(), args.trace) {
        ("rows-oneshot", false) => rows::run(&ctx, false),
        ("rows-oneshot", true) => rows::traced(&ctx, false),
        ("rows-sharded", false) => rows::run(&ctx, true),
        ("rows-sharded", true) => rows::traced(&ctx, true),
        ("rows-warm-serve", false) => serve::run(&ctx, Kind::Warm),
        ("rows-warm-serve", true) => serve::traced(&ctx, Kind::Warm),
        (_, false) => serve::run(&ctx, Kind::Refill),
        (_, true) => serve::traced(&ctx, Kind::Refill),
    }?;
    Ok((result, if args.trace { &PER_LAYER } else { &END_TO_END }))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --sigrule <path>",
                WORKLOADS.map(|w| w.0).join("|"));
            std::process::exit(2);
        }
    };
    let (mut result, wanted) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    result.set("other.failed_frac", result.tally.failed_frac());
    for line in &result.notes {
        eprintln!("  {line}");
    }
    let t = &result.tally;
    eprintln!(
        "  failed_frac {:.4}: {} attempted, {} wrong, {} errors, {} refused, {} timed out",
        t.failed_frac(),
        t.attempted,
        t.wrong,
        t.errors,
        t.refused,
        t.timed_out
    );
    for check in &result.checks_failed {
        eprintln!("  CHECK FAILED: {check}");
    }
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = result.values.get(name).copied().unwrap_or(0.0);
        eprintln!("  {name:<36} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = t.failed() == 0 && result.checks_failed.is_empty() && t.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.attempted.max(1),
        t.failed(),
        metrics.join(",")
    );
}

/// A finite JSON number with all its digits.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigrule_server::json::Json;

    /// Names and units of one `BENCHMARK.json` list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_harness_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(json_number(0.1234567891234), "0.1234567891234");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
