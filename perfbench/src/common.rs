//! What the workloads share: the run context, the method roster, the
//! library reference answers, the result record and the per-layer probes.

use crate::inputs::{self, PERMUTATIONS};
use crate::norm::answer_row;
use crate::stats::{self, Tally};
use crate::trace::{self, Span, Tracer};
use sigrule::correction::direct::{benjamini_hochberg, bonferroni};
use sigrule::correction::no_correction;
use sigrule::correction::permutation::{PermutationCorrection, PermutationStats};
use sigrule::engine::{Loader, Query};
use sigrule::miner::DEFAULT_STATIC_BUFFER_BYTES;
use sigrule::{CorrectionApproach, CorrectionResult, ErrorMetric, MinedRuleSet, RuleMiningConfig};
use sigrule_data::ClassId;
use sigrule_server::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Most repetitions of an in-process probe; the probe reports their median.
pub const PROBE_REPEATS: usize = 5;
/// A probe stops repeating once it has run this long.
const PROBE_BUDGET_S: f64 = 0.3;

/// One run's parameters.
pub struct Ctx {
    /// Root of the checkout; every file the run writes stays inside it.
    pub root: PathBuf,
    /// The shipped binary, built from this checkout.
    pub sigrule: PathBuf,
    /// Generated inputs and process logs.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Logical CPUs; at most this many busy threads and connections.
    pub nproc: usize,
    logs: std::cell::Cell<u32>,
}

impl Ctx {
    pub fn new(root: PathBuf, sigrule: PathBuf, work: PathBuf, seed: u64, seconds: f64) -> Ctx {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Ctx {
            root,
            sigrule,
            work,
            seed,
            seconds,
            nproc,
            logs: std::cell::Cell::new(0),
        }
    }

    /// A fresh stderr log path for the next spawned process.
    pub fn log(&self, what: &str) -> PathBuf {
        let n = self.logs.get() + 1;
        self.logs.set(n);
        self.work.join(format!("{n:03}-{what}.log"))
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct RunResult {
    pub tally: Tally,
    /// False when any check failed, besides the failures in `tally`.
    pub checks_failed: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (stderr).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.checks_failed.push(what.into());
        }
    }
}

/// The raw samples of the end-to-end metrics.
#[derive(Default)]
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub cold_correct_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub completed: u64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Stores every end-to-end metric and prints them with sample counts.
    pub fn finish(&self, out: &mut RunResult, operation: &str) {
        let n = self.latencies_ms.len();
        out.set("setup_s", stats::median(&self.setup_s));
        out.set("cold_correct_s", stats::median(&self.cold_correct_s));
        out.set(
            "latency_p50_ms",
            stats::percentile(&self.latencies_ms, 50.0),
        );
        out.set(
            "latency_p99_ms",
            stats::percentile(&self.latencies_ms, 99.0),
        );
        out.set(
            "throughput_qps",
            self.completed as f64 / self.wall_s.max(1e-9),
        );
        out.set("peak_rss_mb", self.peak_rss_mb);
        out.note(format!(
            "samples: setup {} | cold correct {} | {n} {operation}s in {:.2} s",
            self.setup_s.len(),
            self.cold_correct_s.len(),
            self.wall_s
        ));
        match stats::tail_percentile(n) {
            Some(p) => out.note(format!(
                "tail: p{p} = {:.3} ms over {n} samples (highest percentile with >= 10 samples beyond it)",
                stats::percentile(&self.latencies_ms, p)
            )),
            None => out.note(format!(
                "tail: {n} samples leave no percentile with 10 beyond it; latency_p99_ms is the nearest-rank p99 (the max)"
            )),
        }
    }
}

/// `sigrule correct`'s roster, in its order.
pub const ROSTER: [(CorrectionApproach, ErrorMetric); 7] = [
    (CorrectionApproach::None, ErrorMetric::Fwer),
    (CorrectionApproach::Direct, ErrorMetric::Fwer),
    (CorrectionApproach::Direct, ErrorMetric::Fdr),
    (CorrectionApproach::Permutation, ErrorMetric::Fwer),
    (CorrectionApproach::Permutation, ErrorMetric::Fdr),
    (CorrectionApproach::Holdout, ErrorMetric::Fwer),
    (CorrectionApproach::Holdout, ErrorMetric::Fdr),
];

/// Columns of `sigrule correct`'s comparison table.
pub const TABLE_COLUMNS: [&str; 7] = [
    "method",
    "metric",
    "alpha",
    "n_tests",
    "significant",
    "p_value_cutoff",
    "time_ms",
];

/// The query `sigrule correct` runs for one roster entry.
pub fn roster_query(
    mining: &RuleMiningConfig,
    (approach, metric): (CorrectionApproach, ErrorMetric),
    seed: u64,
    alpha: f64,
    threads: usize,
) -> Query {
    Query::new(mining.clone())
        .with_correction(approach, metric)
        .with_alpha(alpha)
        .with_permutations(PERMUTATIONS)
        .with_seed(seed)
        .with_threads(threads)
}

/// The answer text of a roster run, in the form
/// [`crate::norm::report_answers`] extracts from a report.
pub fn answers_text(mined: &MinedRuleSet, results: &[CorrectionResult]) -> String {
    let mut out = format!(
        "rules_mined={}\nhypothesis_tests={}\n",
        mined.rules().len(),
        mined.n_tests()
    );
    for result in results {
        let cells = sigrule_cli::output::method_summary_row(result, 0.0);
        out.push_str(&answer_row(&TABLE_COLUMNS, &cells));
    }
    out
}

/// The library's answers to `sigrule correct` on `path`: one resident
/// [`Engine`], mined once, queried for every roster entry.
pub fn reference_answers(path: &Path, seed: u64, alpha: f64) -> Result<String, String> {
    let engine = Loader::default()
        .load_file(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .into_engine();
    let mining = RuleMiningConfig::new(inputs::D2K_MIN_SUP);
    let (mined, _, _) = engine.mine(&mining);
    let mut results = Vec::new();
    for entry in ROSTER {
        let outcome = engine
            .query(&roster_query(&mining, entry, seed, alpha, 2))
            .map_err(|e| e.to_string())?;
        results.push(outcome.result);
    }
    Ok(answers_text(&mined, &results))
}

/// Runs `f` up to [`PROBE_REPEATS`] times, stopping early once the calls
/// took [`PROBE_BUDGET_S`] together, and returns the last value and the
/// median duration in seconds.
pub fn probe<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        times.push(start.elapsed().as_secs_f64());
        if times.len() == PROBE_REPEATS || times.iter().sum::<f64>() >= PROBE_BUDGET_S {
            return (value, stats::median(&times));
        }
    }
}

/// The decision layer's function for one query kind.
pub fn decision_kind(approach: CorrectionApproach, metric: ErrorMetric) -> &'static str {
    match (approach, metric) {
        (CorrectionApproach::Permutation, ErrorMetric::Fwer) => "fwer",
        (CorrectionApproach::Permutation, ErrorMetric::Fdr) => "fdr",
        (CorrectionApproach::Direct, ErrorMetric::Fwer) => "bonferroni",
        (CorrectionApproach::Direct, ErrorMetric::Fdr) => "bh",
        (CorrectionApproach::None, _) => "uncorrected",
        (CorrectionApproach::Holdout, _) => "holdout",
    }
}

/// Times the decision an [`Engine::query`] makes for `kind`, called
/// directly on the same rule set and null; seconds (median of repeats).
pub fn decision_probe(
    kind: &str,
    mined: &MinedRuleSet,
    null: Option<&PermutationStats>,
    alpha: f64,
    seed: u64,
) -> f64 {
    let correction = PermutationCorrection::new(PERMUTATIONS).with_seed(seed);
    let (_, secs) = probe(|| match (kind, null) {
        ("fwer", Some(stats)) => correction.fwer_from_stats(mined, stats, alpha),
        ("fdr", Some(stats)) => correction.fdr_from_stats(mined, stats, alpha),
        ("bonferroni", _) => bonferroni(mined, alpha),
        ("bh", _) => benjamini_hochberg(mined, alpha),
        _ => no_correction(mined, alpha),
    });
    secs
}

/// The `core.decision.*_ms` metrics: per kind, the median of the decision
/// probes the traced run already made (`probed`: kind and seconds); a kind
/// the workload never asks is probed once on `mined` and `null`.
pub fn decision_metrics(
    out: &mut RunResult,
    probed: &[(&str, f64)],
    mined: &MinedRuleSet,
    null: &PermutationStats,
    seed: u64,
    alpha: f64,
) {
    for (kind, name) in [
        ("fwer", "core.decision.fwer_ms"),
        ("fdr", "core.decision.fdr_ms"),
        ("bonferroni", "core.decision.bonferroni_ms"),
        ("bh", "core.decision.bh_ms"),
    ] {
        let mut secs: Vec<f64> = probed
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, s)| s)
            .collect();
        if secs.is_empty() {
            secs.push(decision_probe(kind, mined, Some(null), alpha, seed));
        }
        out.set(name, stats::median(&secs) * 1e3);
    }
}

/// Times the phases of `mine_rules` that follow the pattern forest —
/// closed-pattern selection, per-class supports and Fisher scoring —
/// through their public functions on the mined forest; seconds.
pub fn score_probe(mined: &MinedRuleSet) -> f64 {
    let forest = mined.forest();
    let (_, secs) = probe(|| {
        let selected = forest.closed_indices();
        let supports: Vec<Vec<usize>> = (0..mined.n_classes())
            .map(|c| forest.rule_supports(mined.labels(), c as ClassId))
            .collect();
        let (logs, mut caches) = mined.build_caches(DEFAULT_STATIC_BUFFER_BYTES);
        let mut sum = selected.len() as f64;
        for (i, rule) in mined.rules().iter().enumerate() {
            let node = mined.rule_node(i);
            let class = rule.class as usize;
            sum +=
                caches[class].p_value(forest.nodes()[node].support, supports[class][node], &logs);
        }
        sum
    });
    secs
}

/// Records the forest phase inside the `core.miner` span `miner`: the
/// span's time less the probed scoring phases.  Returns the forest's node
/// count and seconds.
pub fn split_mining(tracer: &Tracer, miner: usize, mined: &MinedRuleSet) -> (usize, f64) {
    let span = tracer.spans()[miner].clone();
    let forest_s = (span.duration() - score_probe(mined)).max(0.0);
    tracer.record(
        "mining.forest",
        Some(miner),
        span.req,
        span.start,
        span.start + forest_s,
    );
    (mined.forest().len(), forest_s)
}

/// Times `Json::parse` on `line`; stores `server.json.*`.
pub fn json_metrics(out: &mut RunResult, line: &str) {
    let (parsed, secs) = probe(|| Json::parse(line).is_ok());
    out.check(
        parsed,
        "the longest line the workload carries is valid JSON",
    );
    out.set("server.json.parse_ms", secs * 1e3);
    out.set(
        "server.json.parse_mb_per_s",
        line.len() as f64 / secs.max(1e-12) / 1e6,
    );
    out.note(format!(
        "server.json: longest line {} bytes parses in {:.3} ms",
        line.len(),
        secs * 1e3
    ));
}

/// The accounting of one traced timeline (the spans under `roots`).
pub struct Accounting {
    /// Self time per layer.
    pub layers: BTreeMap<&'static str, f64>,
    /// The timeline's duration less its layers' self time.
    pub unattributed_s: f64,
    /// The traced duration less the untraced duration of the same work.
    pub overhead_s: f64,
}

/// The largest tracing overhead a traced run accepts beyond the run-to-run
/// noise of its untraced baseline, and the largest negative unattributed
/// time where no spans run concurrently, as a share of the traced time.
/// Recording a span costs microseconds, so beyond this the traced timeline
/// is not the untraced run's work.
pub const TRACE_TOLERANCE: f64 = 0.2;

/// Accounts one traced timeline: per-layer self time over the spans under
/// `roots` (the roots' own self time is the unattributed part), printed
/// with the dominant layer, the unattributed time and the tracing overhead.
/// `untraced_s` times the same calls without spans, once before and once
/// after the traced timeline: their mean is the baseline, so a steady drift
/// of the machine cancels, and their difference is the noise.  Fails a
/// check when the overhead exceeds the noise plus [`TRACE_TOLERANCE`] of the
/// traced time, or, unless `concurrent` spans are expected, when the
/// unattributed time is below minus that share.
pub fn account(
    out: &mut RunResult,
    label: &str,
    spans: &[Span],
    roots: &[usize],
    untraced_s: [f64; 2],
    concurrent: bool,
) -> Accounting {
    let traced_s: f64 = roots.iter().map(|&r| spans[r].duration()).sum();
    let layers = trace::self_by_name(spans, |id| {
        !roots.contains(&id) && roots.iter().any(|&r| trace::descends_from(spans, id, r))
    });
    let attributed: f64 = layers.values().sum();
    let unattributed_s = traced_s - attributed;
    let baseline_s = (untraced_s[0] + untraced_s[1]) / 2.0;
    let noise_s = (untraced_s[0] - untraced_s[1]).abs();
    let overhead_s = traced_s - baseline_s;
    out.note(format!(
        "{label}: layer self times over the traced timeline"
    ));
    let mut ranked: Vec<(&str, f64)> = layers.iter().map(|(k, v)| (*k, *v)).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let share = |secs: f64| 100.0 * secs / traced_s.max(1e-12);
    for &(layer, secs) in &ranked {
        out.note(format!(
            "  {layer:<20} {secs:>10.4} s {:>6.1}%",
            share(secs)
        ));
    }
    out.note(format!(
        "  {:<20} {unattributed_s:>10.4} s {:>6.1}%",
        "other.unattributed",
        share(unattributed_s)
    ));
    let (top, top_s) = ranked.first().copied().unwrap_or(("none", 0.0));
    out.note(format!(
        "{label} summary: dominant layer {top} ({top_s:.4} s of {traced_s:.4} s traced); \
         other.unattributed_s {unattributed_s:.4}; tracing overhead {overhead_s:.4} s"
    ));
    if unattributed_s < 0.0 && concurrent {
        out.note(format!(
            "{label}: concurrent spans overlap by at least {:.4} s, so layer self times exceed the timeline",
            -unattributed_s
        ));
    }
    let share = TRACE_TOLERANCE * traced_s;
    let limit = noise_s + share;
    out.note(format!(
        "{label} check: layers {attributed:.4} s + unattributed {unattributed_s:.4} s = traced {traced_s:.4} s; \
         untraced {:.4} s before and {:.4} s after, so overhead {overhead_s:.4} s \
         (limit: noise {noise_s:.4} s + {share:.4} s)",
        untraced_s[0], untraced_s[1]
    ));
    out.check(
        overhead_s.abs() <= limit,
        format!("{label}: tracing overhead {overhead_s:.4} s exceeds {limit:.4} s"),
    );
    out.check(
        concurrent || unattributed_s >= -share,
        format!(
            "{label}: layer self times exceed the timeline by {:.4} s",
            -unattributed_s
        ),
    );
    Accounting {
        layers,
        unattributed_s,
        overhead_s,
    }
}

/// Hits over lookups of an engine cache; 0 when it was never consulted.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Flags a program-reported timing that disagrees with the span measuring
/// the same work by more than 10% and 5 ms.
pub fn compare_reported(
    out: &mut RunResult,
    what: &str,
    reported_ms: f64,
    span_ms: f64,
    caveat: &str,
) {
    let diff = (reported_ms - span_ms).abs();
    let flag = if diff > 5.0 && diff > 0.1 * span_ms.max(reported_ms) {
        " DISAGREES"
    } else {
        ""
    };
    out.note(format!(
        "reported vs span: {what}: program {reported_ms:.1} ms, span {span_ms:.1} ms{flag}{caveat}"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn overhead_within_noise_and_tolerance_passes() {
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("core.permutation", 0.0, 6.0, Some(0)),
        ];
        let mut out = RunResult::default();
        let acc = account(&mut out, "run", &spans, &[0], [9.0, 10.0], false);
        assert!(out.checks_failed.is_empty(), "{:?}", out.checks_failed);
        assert_eq!(acc.overhead_s, 0.5);
        assert_eq!(acc.layers["core.permutation"], 6.0);
        assert_eq!(acc.unattributed_s, 4.0);
    }

    #[test]
    fn overhead_beyond_noise_and_tolerance_fails() {
        let spans = vec![span("run", 0.0, 10.0, None)];
        let mut out = RunResult::default();
        // Baseline 7.4 s with 0.2 s noise: the limit is 0.2 + 2.0 s, and the
        // traced 10 s is 2.6 s over it.
        account(&mut out, "run", &spans, &[0], [7.3, 7.5], false);
        assert_eq!(out.checks_failed.len(), 1);
        assert!(out.checks_failed[0].contains("tracing overhead"));
    }

    #[test]
    fn overlapping_layers_fail_unless_concurrency_is_expected() {
        // Two concurrent children of 8 s each under a 10 s root: their self
        // times exceed the timeline by 6 s.
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("server.coordinate", 0.0, 10.0, Some(0)),
            span("core.permutation", 1.0, 9.0, Some(1)),
            span("server.transport", 1.0, 9.0, Some(1)),
        ];
        let mut out = RunResult::default();
        let acc = account(&mut out, "run", &spans, &[0], [10.0, 10.0], true);
        assert!(out.checks_failed.is_empty());
        assert!(acc.unattributed_s < -5.0);
        account(&mut out, "run", &spans, &[0], [10.0, 10.0], false);
        assert_eq!(out.checks_failed.len(), 1);
        assert!(out.checks_failed[0].contains("exceed the timeline"));
    }
}
