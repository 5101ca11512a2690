//! `rows-warm-serve` and `basket-refill-serve`: one served process on
//! loopback TCP, primed during set-up, under a closed-loop request mix; and
//! the traced run that drives one mix through `Engine::query`,
//! `handle_line` and the TCP client.

use crate::common::{
    self, account, compare_reported, decision_kind, decision_probe, json_metrics, split_mining,
    Ctx, EndToEnd, RunResult, SETUP_REPEATS,
};
use crate::inputs::{self, Mix, BASKET_MIN_SUP, D2K_MIN_SUP, PERMUTATIONS};
use crate::norm::normalise_line;
use crate::proc::{Conn, Server};
use crate::stats::{self, Outcome, Tally};
use crate::trace::{descends_from, Span, Tracer};
use sigrule::cancel::CancelToken;
use sigrule::correction::direct::{benjamini_hochberg, bonferroni};
use sigrule::correction::no_correction;
use sigrule::correction::permutation::{rayon_pool, PermutationCorrection, PermutationStats};
use sigrule::correction::{Correction, CorrectionContext, RandomHoldout};
use sigrule::engine::{Engine, Loader, Query};
use sigrule::{
    mine_rules, CorrectionApproach, CorrectionResult, ErrorMetric, MinedRuleSet, RuleMiningConfig,
};
use sigrule_server::json::{Json, ObjectBuilder};
use sigrule_server::proto::{handle_line, ServerState};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The two served workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// D2k primed with its N=1000 null; warm re-asks at new α.
    Warm,
    /// The basket file, mined; fresh-seed permutation and holdout asks.
    Refill,
}

impl Kind {
    fn dataset(self) -> &'static str {
        match self {
            Kind::Warm => "d2k",
            Kind::Refill => "refill",
        }
    }

    fn min_sup(self) -> usize {
        match self {
            Kind::Warm => D2K_MIN_SUP,
            Kind::Refill => BASKET_MIN_SUP,
        }
    }

    fn write_input(self, dir: &Path) -> Result<PathBuf, String> {
        match self {
            Kind::Warm => inputs::write_d2k(dir),
            Kind::Refill => inputs::write_basket(dir),
        }
        .map_err(|e| format!("write input: {e}"))
    }
}

/// One `correct` request: its line and the library query it asks.
#[derive(Clone)]
pub struct MixEntry {
    pub line: String,
    pub query: Query,
    pub kind: &'static str,
    pub alpha: f64,
}

/// A served `correct` request and its [`Query`].
fn entry(
    dataset: &str,
    min_sup: usize,
    correction: &str,
    metric: ErrorMetric,
    alpha: f64,
    seed: u64,
) -> MixEntry {
    let approach = match correction {
        "permutation" => CorrectionApproach::Permutation,
        "holdout" => CorrectionApproach::Holdout,
        "none" => CorrectionApproach::None,
        _ => CorrectionApproach::Direct,
    };
    let mut line = ObjectBuilder::new();
    line.string("cmd", "correct")
        .string("dataset", dataset)
        .number("min_sup", min_sup as f64)
        .string("correction", correction);
    if matches!(
        approach,
        CorrectionApproach::Permutation | CorrectionApproach::Holdout
    ) {
        line.string("metric", metric.label().to_ascii_lowercase().as_str());
    }
    line.number("alpha", alpha)
        .number("permutations", PERMUTATIONS as f64)
        .number("seed", seed as f64);
    MixEntry {
        line: line.finish(),
        query: Query::new(RuleMiningConfig::new(min_sup))
            .with_correction(approach, metric)
            .with_alpha(alpha)
            .with_permutations(PERMUTATIONS)
            .with_seed(seed),
        kind: decision_kind(approach, metric),
        alpha,
    }
}

/// The warm mix: Perm_FWER, Perm_FDR, Bonferroni, BH and uncorrected at
/// eight seeded α, one per eighth of [0.001, 0.1], all on the primed null of
/// seed `seed`.
fn warm_mix(seed: u64) -> Vec<MixEntry> {
    let mut mix = Mix::new(seed);
    let alphas = mix.alphas(8);
    let mut out = Vec::new();
    for alpha in alphas {
        for (correction, metric) in [
            ("permutation", ErrorMetric::Fwer),
            ("permutation", ErrorMetric::Fdr),
            ("bonferroni", ErrorMetric::Fwer),
            ("bh", ErrorMetric::Fdr),
            ("none", ErrorMetric::Fwer),
        ] {
            out.push(entry("d2k", D2K_MIN_SUP, correction, metric, alpha, seed));
        }
    }
    out
}

/// The `i`-th refill request: permutation and holdout alternate, FWER and
/// FDR alternate within each.  Each permutation ask has a fresh seed, so it
/// misses the null cache.  The holdout is never cached, so a fresh seed would
/// buy nothing but seed-dependent work (the split decides how many rules its
/// exploratory half mines); it keeps [`inputs::ROWS_SEED`].
fn refill_entry(i: usize, mix: &mut Mix) -> MixEntry {
    let metric = if (i / 2).is_multiple_of(2) {
        ErrorMetric::Fwer
    } else {
        ErrorMetric::Fdr
    };
    if i.is_multiple_of(2) {
        entry(
            "refill",
            BASKET_MIN_SUP,
            "permutation",
            metric,
            0.05,
            mix.seed(),
        )
    } else {
        entry(
            "refill",
            BASKET_MIN_SUP,
            "holdout",
            metric,
            0.05,
            inputs::ROWS_SEED,
        )
    }
}

/// Two refill rounds from the seed `seed`.
fn refill_mix(seed: u64) -> Vec<MixEntry> {
    let mut m = Mix::new(seed);
    (0..4).map(|i| refill_entry(i, &mut m)).collect()
}

/// How one answered (or unanswered) request ends, against an optional
/// normalised reference.
fn classify(resp: &std::io::Result<String>, reference: Option<&str>) -> Outcome {
    match resp {
        Err(_) => Outcome::TimedOut,
        Ok(r) if r.contains("\"ok\":false") => {
            if r.contains("\"code\":\"overloaded\"") {
                Outcome::Refused
            } else {
                Outcome::Error
            }
        }
        Ok(r) => match reference {
            Some(expected) if normalise_line(r) != expected => Outcome::Wrong,
            _ => Outcome::Ok,
        },
    }
}

pub fn load_line(path: &Path, name: &str) -> String {
    let mut line = ObjectBuilder::new();
    line.string("cmd", "load")
        .string("path", &path.display().to_string())
        .string("name", name);
    line.finish()
}

pub fn ok_request(conn: &mut Conn, line: &str) -> Result<String, String> {
    let resp = conn
        .request(line)
        .map_err(|e| format!("request {line}: {e}"))?;
    if !resp.contains("\"ok\":true") {
        return Err(format!("request {line} failed: {resp}"));
    }
    Ok(resp)
}

/// The prime request of a set-up: the cold `correct` that mines and
/// collects a null.
fn prime_entry(kind: Kind, seed: u64) -> MixEntry {
    match kind {
        Kind::Warm => warm_mix(seed).swap_remove(0),
        Kind::Refill => entry(
            "refill",
            BASKET_MIN_SUP,
            "permutation",
            ErrorMetric::Fwer,
            0.05,
            Mix::new(seed ^ 1).seed(),
        ),
    }
}

/// A primed server and what its set-up cost.
struct Primed {
    server: Server,
    setup_s: f64,
    cold_s: f64,
    /// The prime's answer: the one cold answer of the set-up.
    cold_answer: String,
}

/// One set-up on the generated input at `path`: spawn, load and the cold
/// prime `correct`, timed from spawn to the prime's answer.
fn set_up(ctx: &Ctx, kind: Kind, path: &Path) -> Result<Primed, String> {
    let start = Instant::now();
    let server = Server::spawn(&ctx.sigrule, &ctx.root, &ctx.log("serve"))
        .map_err(|e| format!("spawn serve: {e}"))?;
    let mut conn = server.connect().map_err(|e| e.to_string())?;
    ok_request(&mut conn, &load_line(path, kind.dataset()))?;
    let cold = Instant::now();
    let cold_answer = ok_request(&mut conn, &prime_entry(kind, ctx.seed).line)?;
    let cold_s = cold.elapsed().as_secs_f64();
    Ok(Primed {
        server,
        setup_s: start.elapsed().as_secs_f64(),
        cold_s,
        cold_answer,
    })
}

/// Engine cache counters of one served dataset.
fn served_stats(conn: &mut Conn, dataset: &str) -> Result<[u64; 4], String> {
    let resp = ok_request(conn, &format!(r#"{{"cmd":"stats","dataset":"{dataset}"}}"#))?;
    let doc = Json::parse(&resp).map_err(|e| e.to_string())?;
    let field = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
    Ok([
        field("mine_hits"),
        field("mine_misses"),
        field("null_hits"),
        field("null_misses"),
    ])
}

/// The untraced run.
pub fn run(ctx: &Ctx, kind: Kind) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let mut e2e = EndToEnd::default();
    let path = kind.write_input(&ctx.work)?;
    let mut measured = None;
    for _ in 0..SETUP_REPEATS {
        // Each set-up's server replaces the last; the last one is measured.
        let primed = set_up(ctx, kind, &path)?;
        e2e.setup_s.push(primed.setup_s);
        e2e.cold_correct_s.push(primed.cold_s);
        if let Some(old) = measured.replace(primed) {
            old.server.shutdown();
        }
    }
    let measured = measured.expect("SETUP_REPEATS > 0");
    let mut stats_conn = measured.server.connect().map_err(|e| e.to_string())?;
    let deadline = Duration::from_secs_f64(ctx.seconds);
    let mut n_perm = 0u64;
    let (before, after) = match kind {
        Kind::Warm => {
            let mix = warm_mix(ctx.seed);
            // The byte references of the timed loop: one answer per query,
            // each checked against the library's answer off the engine
            // caches, and the first against the prime's cold answer to the
            // same query.
            let refs: Vec<String> = mix
                .iter()
                .map(|m| ok_request(&mut stats_conn, &m.line))
                .collect::<Result<_, _>>()?;
            out.tally.note(
                if normalise_line(&refs[0]) == normalise_line(&measured.cold_answer) {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                },
            );
            library_check(&mut out, ctx, &path, &mix, &refs)?;
            let refs: Vec<String> = refs.iter().map(|r| normalise_line(r)).collect();
            let before = served_stats(&mut stats_conn, kind.dataset())?;
            let started = Instant::now();
            let clients = ctx.nproc.clamp(1, 2);
            let results: Vec<(Tally, Vec<f64>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let (mix, refs) = (&mix, &refs);
                        let server = &measured.server;
                        scope.spawn(move || {
                            closed_loop(
                                server,
                                mix,
                                refs,
                                c * mix.len() / clients,
                                started,
                                deadline,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("load generator thread panicked"))
                    .collect()
            });
            e2e.wall_s = started.elapsed().as_secs_f64();
            for (tally, lat) in results {
                out.tally.add(&tally);
                e2e.completed += lat.len() as u64;
                e2e.latencies_ms.extend(lat);
            }
            out.note(format!(
                "load: {clients} closed-loop connections over {} distinct queries",
                mix.len()
            ));
            (before, served_stats(&mut stats_conn, kind.dataset())?)
        }
        Kind::Refill => {
            let before = served_stats(&mut stats_conn, kind.dataset())?;
            // One operation is a refill round: a fresh-seed permutation ask,
            // then a holdout ask.  Timing whole rounds keeps the latency
            // distribution unimodal.
            let mut conn = measured.server.connect().map_err(|e| e.to_string())?;
            let mut mix = Mix::new(ctx.seed);
            let mut asked = Vec::new();
            let mut rounds = Vec::new();
            let started = Instant::now();
            while started.elapsed() < deadline {
                let t = Instant::now();
                for _ in 0..2 {
                    let req = refill_entry(asked.len(), &mut mix);
                    let resp = conn.request(&req.line);
                    asked.push((req, resp));
                }
                rounds.push(t.elapsed().as_secs_f64() * 1e3);
                n_perm += 1;
            }
            e2e.wall_s = started.elapsed().as_secs_f64();
            let after = served_stats(&mut stats_conn, kind.dataset())?;
            // Every answer is asked again after the clock: a permutation
            // answer must come back bit-identical from the warm cache, a
            // holdout (never cached) from a recomputation.
            let mut round_ok = vec![true; rounds.len()];
            for (i, (req, resp)) in asked.iter().enumerate() {
                let again = conn.request(&req.line).map(|r| normalise_line(&r));
                let expected = again.as_deref().unwrap_or("<no second answer>");
                let outcome = classify(resp, Some(expected));
                out.tally.note(outcome);
                round_ok[i / 2] &= outcome == Outcome::Ok;
            }
            for (ms, ok) in rounds.iter().zip(&round_ok) {
                if *ok {
                    e2e.latencies_ms.push(*ms);
                    e2e.completed += 1;
                }
            }
            out.note(format!(
                "load: 1 closed-loop connection, {} refill rounds (a fresh-seed permutation ask and a holdout ask)",
                rounds.len()
            ));
            (before, after)
        }
    };
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    out.note(format!(
        "served cache over the run: mine {} hits / {} misses, null {} hits / {} misses",
        delta[0], delta[1], delta[2], delta[3]
    ));
    match kind {
        Kind::Warm => out.check(
            delta[1] == 0 && delta[3] == 0,
            "warm requests never miss a cache",
        ),
        Kind::Refill => out.check(
            delta[1] == 0 && delta[3] == n_perm,
            format!(
                "one null miss per permutation request ({} misses, {n_perm} requests)",
                delta[3]
            ),
        ),
    }
    e2e.peak_rss_mb = measured.server.peak_rss_mb();
    drop(stats_conn);
    measured.server.shutdown();
    e2e.finish(
        &mut out,
        if kind == Kind::Warm {
            "request"
        } else {
            "refill round"
        },
    );
    Ok(out)
}

/// Checks the served answers `refs` to the warm mix against the library's
/// answers on a path that skips the engine caches: one null collected by
/// [`PermutationCorrection`] directly, then each query's decision function.
/// A mismatch counts as a failed operation.
fn library_check(
    out: &mut RunResult,
    ctx: &Ctx,
    path: &Path,
    mix: &[MixEntry],
    refs: &[String],
) -> Result<(), String> {
    let started = Instant::now();
    let dataset = Loader::default()
        .load_file(path)
        .map_err(|e| e.to_string())?
        .dataset;
    let mined = mine_rules(&dataset, &RuleMiningConfig::new(D2K_MIN_SUP));
    let pool = rayon_pool(ctx.nproc.clamp(1, 2)).map_err(|e| format!("thread pool: {e}"))?;
    let mut nulls: Vec<(u64, PermutationCorrection, PermutationStats)> = Vec::new();
    for (m, served) in mix.iter().zip(refs) {
        let seed = m.query.seed;
        if !nulls.iter().any(|(s, _, _)| *s == seed) {
            let correction = PermutationCorrection::new(PERMUTATIONS).with_seed(seed);
            let null = pool.install(|| correction.collect_stats(&mined));
            nulls.push((seed, correction, null));
        }
        let (_, correction, null) = nulls
            .iter()
            .find(|(s, _, _)| *s == seed)
            .expect("collected above");
        let result = match m.kind {
            "fwer" => correction.fwer_from_stats(&mined, null, m.alpha),
            "fdr" => correction.fdr_from_stats(&mined, null, m.alpha),
            "bonferroni" => bonferroni(&mined, m.alpha),
            "bh" => benjamini_hochberg(&mined, m.alpha),
            _ => no_correction(&mined, m.alpha),
        };
        let same = same_answer(served, &mined, &result);
        if !same {
            eprintln!("perfbench: served answer differs from the library's: {served}");
        }
        out.tally
            .note(if same { Outcome::Ok } else { Outcome::Wrong });
    }
    out.note(format!(
        "reference: {} served answers checked against the library off the engine caches in {:.2} s",
        refs.len(),
        started.elapsed().as_secs_f64()
    ));
    Ok(())
}

/// Whether a served `correct` answer carries the library's result: the
/// counts, the cutoff, and the p-values of the listed rules (the default
/// `top` 20 most significant).
fn same_answer(served: &str, mined: &MinedRuleSet, result: &CorrectionResult) -> bool {
    let Ok(doc) = Json::parse(served) else {
        return false;
    };
    let number = |key: &str| doc.get(key).and_then(Json::as_f64);
    let cutoff = match (doc.get("p_value_cutoff"), result.p_value_cutoff) {
        (Some(Json::Null), None) => true,
        (Some(served), Some(cutoff)) => served.as_f64() == Some(cutoff),
        _ => false,
    };
    let mut p_values: Vec<f64> = result
        .significant_rules()
        .iter()
        .map(|r| r.p_value)
        .collect();
    p_values.sort_by(f64::total_cmp);
    p_values.truncate(20);
    let listed: Vec<f64> = match doc.get("rules") {
        Some(Json::Array(rules)) => rules
            .iter()
            .filter_map(|r| r.get("p_value").and_then(Json::as_f64))
            .collect(),
        _ => Vec::new(),
    };
    cutoff
        && number("significant") == Some(result.n_significant() as f64)
        && number("hypothesis_tests") == Some(result.n_tests as f64)
        && number("rules_mined") == Some(mined.rules().len() as f64)
        && listed == p_values
}

/// One closed-loop connection cycling through `mix` from `offset` until the
/// deadline; every answer is compared with its reference as normalised
/// bytes.  A broken connection is reopened.
fn closed_loop(
    server: &Server,
    mix: &[MixEntry],
    refs: &[String],
    offset: usize,
    started: Instant,
    deadline: Duration,
) -> (Tally, Vec<f64>) {
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut conn = server.connect().ok();
    let mut i = offset;
    while started.elapsed() < deadline {
        let j = i % mix.len();
        i += 1;
        let Some(c) = conn.as_mut() else {
            tally.note(Outcome::TimedOut);
            conn = server.connect().ok();
            continue;
        };
        let t = Instant::now();
        let resp = c.request(&mix[j].line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let outcome = classify(&resp, Some(&refs[j]));
        tally.note(outcome);
        if outcome == Outcome::Ok {
            latencies.push(ms);
        }
        if resp.is_err() {
            conn = server.connect().ok();
        }
    }
    (tally, latencies)
}

/// Spans of one request through the three entry points.
struct Passes {
    tcp: Vec<usize>,
    handle: Vec<usize>,
    engine: Vec<usize>,
    responses: Vec<String>,
}

/// Drives `mix` over TCP (spans under `parent`), then through
/// `handle_line`, then through `engine_call` (which records its own
/// `core.engine` subtree and returns its root); grafts the in-process
/// passes into each round trip and checks that the TCP and `handle_line`
/// answers agree.
fn three_passes(
    out: &mut RunResult,
    tracer: &Tracer,
    parent: usize,
    conn: &mut Conn,
    state: &ServerState,
    mix: &[MixEntry],
    mut engine_call: impl FnMut(&MixEntry, u64) -> Result<usize, String>,
) -> Result<Passes, String> {
    let mut passes = Passes {
        tcp: Vec::new(),
        handle: Vec::new(),
        engine: Vec::new(),
        responses: Vec::new(),
    };
    for (i, m) in mix.iter().enumerate() {
        let req = i as u64 + 1;
        let start = tracer.now();
        let resp = conn.request(&m.line);
        passes
            .tcp
            .push(tracer.record("server.transport", Some(parent), req, start, tracer.now()));
        passes.responses.push(resp.unwrap_or_default());
    }
    // The parent covers the round trips only; the in-process passes below
    // are grafted into them.
    tracer.close(parent);
    for (i, m) in mix.iter().enumerate() {
        let req = i as u64 + 1;
        let (resp, id) = tracer.span("server.proto", None, req, |id| {
            (handle_line(state, &m.line).0, id)
        });
        passes.handle.push(id);
        let expected = normalise_line(&resp);
        out.tally
            .note(classify(&Ok(passes.responses[i].clone()), Some(&expected)));
    }
    for (i, m) in mix.iter().enumerate() {
        passes.engine.push(engine_call(m, i as u64 + 1)?);
    }
    let spans = tracer.spans();
    for i in 0..mix.len() {
        let at = spans[passes.tcp[i]].start;
        let proto = tracer.graft(passes.handle[i], Some(passes.tcp[i]), at);
        tracer.graft(passes.engine[i], Some(proto), at);
    }
    Ok(passes)
}

/// Round trips of the transport probe.
const TRANSPORT_PINGS: usize = 100;

/// Per-request layer metrics of a three-pass mix.  `Engine::query` is the
/// engine entry point; protocol time is `handle_line` beyond it.  A warm
/// answer's round trip and its in-process `handle_line` differ by less
/// than their noise, so the transport's own cost is measured on the
/// cheapest request (`stats`): TCP round trip less `handle_line`, medians
/// of [`TRANSPORT_PINGS`] each.
fn per_request_metrics(
    out: &mut RunResult,
    tracer: &Tracer,
    passes: &Passes,
    conn: &mut Conn,
    state: &ServerState,
    dataset: &str,
) -> Result<(), String> {
    let spans = tracer.spans();
    let ms =
        |ids: &[usize]| -> Vec<f64> { ids.iter().map(|&i| spans[i].duration() * 1e3).collect() };
    let (tcp, handle, engine) = (ms(&passes.tcp), ms(&passes.handle), ms(&passes.engine));
    let engine_p50 = stats::median(&engine);
    out.set("core.engine.query_ms", engine_p50);
    let beyond: Vec<f64> = handle.iter().zip(&engine).map(|(h, e)| h - e).collect();
    out.set("server.proto.handle_ms", stats::median(&beyond));
    let bytes: Vec<f64> = passes.responses.iter().map(|r| r.len() as f64).collect();
    out.set("server.proto.resp_bytes", stats::median(&bytes));
    out.note(format!(
        "per request over {} requests: TCP p50 {:.3} ms, handle_line p50 {:.3} ms, Engine::query p50 {:.3} ms",
        tcp.len(),
        stats::median(&tcp),
        stats::median(&handle),
        engine_p50
    ));
    let ping = format!(r#"{{"cmd":"stats","dataset":"{dataset}"}}"#);
    let (mut round_trips, mut in_process) = (Vec::new(), Vec::new());
    for _ in 0..TRANSPORT_PINGS {
        let t = Instant::now();
        ok_request(conn, &ping)?;
        round_trips.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(handle_line(state, &ping));
        in_process.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let transport = stats::median(&round_trips) - stats::median(&in_process);
    out.set("server.transport.self_ms", transport);
    out.note(format!(
        "server.transport: `stats` round trip p50 {:.4} ms, in-process {:.4} ms",
        stats::median(&round_trips),
        stats::median(&in_process)
    ));
    Ok(())
}

/// Untraced mixes on each side of a traced one.
const BASELINE_MIXES: u64 = 3;

/// The mix over TCP without spans: its answers and seconds.
fn tcp_mix(conn: &mut Conn, mix: &[MixEntry]) -> Result<(Vec<String>, f64), String> {
    let start = Instant::now();
    let answers = mix
        .iter()
        .map(|m| conn.request(&m.line).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((answers, start.elapsed().as_secs_f64()))
}

/// What the served set-up's calls left behind.
struct SetUp {
    root: usize,
    wall_s: f64,
    engine: Arc<Engine>,
    mined: Arc<MinedRuleSet>,
    miner_span: usize,
    null: Arc<PermutationStats>,
    prime_span: usize,
}

/// The calls the served `load` and the cold prime `correct` make, in
/// order, each inside a span of `tracer`; with [`Tracer::disabled`] the same
/// calls run untraced.
fn setup_replay(
    tracer: &Tracer,
    state: &ServerState,
    path: &Path,
    kind: Kind,
    prime: &MixEntry,
) -> Result<SetUp, String> {
    let mining = RuleMiningConfig::new(kind.min_sup());
    let seed = prime.query.seed;
    let started = Instant::now();
    let (root, calls) = tracer.span("setup", None, 0, |root| {
        let calls = || -> Result<_, String> {
            let loaded = tracer
                .span("data.loader", Some(root), 0, |_| {
                    Loader::default().load_file(path)
                })
                .map_err(|e| e.to_string())?;
            let engine = state
                .registry()
                .insert(kind.dataset(), loaded.into_engine());
            tracer.span("data.vertical", Some(root), 0, |_| {
                engine.shared().vertical()
            });
            let (miner_span, mined) = tracer.span("core.miner", Some(root), 0, |id| {
                (id, engine.mine(&mining).0)
            });
            tracer
                .span("stats.buffer", Some(root), 0, |_| {
                    engine.mined_with_tables(&mining, PERMUTATIONS, seed, &CancelToken::none())
                })
                .map_err(|e| e.to_string())?;
            let correction = PermutationCorrection::new(PERMUTATIONS).with_seed(seed);
            let (null, _) = tracer
                .span("core.engine", Some(root), 0, |id| {
                    engine.fill_null_with(
                        &mining,
                        PERMUTATIONS,
                        seed,
                        &CancelToken::none(),
                        |mined, tables, cancel| {
                            tracer.span("core.permutation", Some(id), 0, |_| {
                                correction.collect_stats_cancellable(mined, Some(tables), cancel)
                            })
                        },
                    )
                })
                .map_err(|e| e.to_string())?;
            let prime_span = tracer
                .span("core.engine", Some(root), 0, |id| {
                    engine.query(&prime.query).map(|_| id)
                })
                .map_err(|e| e.to_string())?;
            Ok((engine, mined, miner_span, null, prime_span))
        };
        (root, calls())
    });
    let wall_s = started.elapsed().as_secs_f64();
    let (engine, mined, miner_span, null, prime_span) = calls?;
    Ok(SetUp {
        root,
        wall_s,
        engine,
        mined,
        miner_span,
        null,
        prime_span,
    })
}

/// The traced run of a served workload.
pub fn traced(ctx: &Ctx, kind: Kind) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let seed = ctx.seed;
    let dataset = kind.dataset();
    let mining = RuleMiningConfig::new(kind.min_sup());
    let mix: Vec<MixEntry> = match kind {
        // Every distinct warm query twice.
        Kind::Warm => {
            let once = warm_mix(seed);
            once.iter().chain(&once).cloned().collect()
        }
        Kind::Refill => refill_mix(seed),
    };
    let path = kind.write_input(&ctx.work)?;
    let input_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;

    // The set-up's calls in-process: untraced, traced, untraced again.
    let prime = prime_entry(kind, seed);
    let untraced_setup = || -> Result<f64, String> {
        Ok(setup_replay(
            &Tracer::disabled(),
            &ServerState::new(),
            &path,
            kind,
            &prime,
        )?
        .wall_s)
    };
    let untraced_setup_before = untraced_setup()?;
    let tracer = Tracer::default();
    let state = ServerState::new();
    let kernel_before = sigrule_data::kernel::counters();
    let setup = setup_replay(&tracer, &state, &path, kind, &prime)?;
    let kernel_setup = sigrule_data::kernel::counters();
    let untraced_setup_s = [untraced_setup_before, untraced_setup()?];
    let (engine, mined, null) = (&setup.engine, &setup.mined, &setup.null);
    let (_, tables) = engine
        .mined_with_tables(
            &mining,
            PERMUTATIONS,
            prime.query.seed,
            &CancelToken::none(),
        )
        .map_err(|e| e.to_string())?;
    let decision_s = decision_probe(prime.kind, mined, Some(null), prime.alpha, prime.query.seed);
    let mut log = EngineLog {
        null_collections: 0,
        probed: vec![(prime.kind, decision_s)],
    };
    let start = tracer.spans()[setup.prime_span].start;
    tracer.record(
        "core.decision",
        Some(setup.prime_span),
        0,
        start,
        start + decision_s,
    );

    // The served process the mix runs against, primed like a measured one
    // (outside every timeline).
    let primed = set_up(ctx, kind, &path)?;
    out.note(format!(
        "untraced set-up: served {:.3} s, the same calls in-process {:.3} s",
        primed.setup_s, untraced_setup_s[0]
    ));
    let mut conn = primed.server.connect().map_err(|e| e.to_string())?;
    // The untraced baseline of the mix: the same kind of mix over TCP on the
    // same server, the median of three just before and of three just after
    // the traced pass (a mix is short, so one alone is mostly noise).  The
    // refill baselines ask other fresh seeds, so their permutation asks miss
    // too.
    let baseline = |conn: &mut Conn, first: u64| -> Result<(Vec<String>, f64), String> {
        let mut answers = Vec::new();
        let mut secs = Vec::new();
        for i in first..first + BASELINE_MIXES {
            let again = match kind {
                Kind::Warm => mix.clone(),
                Kind::Refill => refill_mix(seed ^ (i << 40)),
            };
            let (a, s) = tcp_mix(conn, &again)?;
            answers = a;
            secs.push(s);
        }
        Ok((answers, stats::median(&secs)))
    };
    let (untraced_answers, untraced_before) = baseline(&mut conn, 1)?;

    // The refill mix must miss in every entry point, so `handle_line` gets
    // an engine of its own, mined but without the mix's nulls.
    let handle_state = match kind {
        Kind::Warm => None,
        Kind::Refill => {
            let own = ServerState::new();
            let twin = own
                .registry()
                .insert(dataset, Engine::from_shared(engine.shared().clone()));
            twin.mine(&mining);
            Some(own)
        }
    };
    let mut kernel = (0u64, 0u64);
    let stats_before = served_stats(&mut conn, dataset)?;
    let run_root = tracer.open("run", None, 0);
    let passes = three_passes(
        &mut out,
        &tracer,
        run_root,
        &mut conn,
        handle_state.as_ref().unwrap_or(&state),
        &mix,
        |m, req| {
            let before = sigrule_data::kernel::counters();
            let id = engine_pass(&tracer, engine, mined, null, m, req, &mut log);
            let after = sigrule_data::kernel::counters();
            kernel.0 += after.batched_sweeps - before.batched_sweeps;
            kernel.1 += after.per_perm_sweeps - before.per_perm_sweeps;
            id
        },
    )?;
    let stats_after = served_stats(&mut conn, dataset)?;
    per_request_metrics(
        &mut out,
        &tracer,
        &passes,
        &mut conn,
        handle_state.as_ref().unwrap_or(&state),
        dataset,
    )?;
    let untraced_run_s = [untraced_before, baseline(&mut conn, 1 + BASELINE_MIXES)?.1];
    drop(conn);
    primed.server.shutdown();
    let delta: Vec<u64> = stats_after
        .iter()
        .zip(stats_before)
        .map(|(a, b)| a - b)
        .collect();
    out.set(
        "core.engine.mine_hit_ratio",
        common::hit_ratio(delta[0], delta[1]),
    );
    out.set(
        "core.engine.null_hit_ratio",
        common::hit_ratio(delta[2], delta[3]),
    );
    out.note(format!(
        "served cache over the traced mix: mine {} hits / {} misses, null {} hits / {} misses",
        delta[0], delta[1], delta[2], delta[3]
    ));
    if kind == Kind::Warm {
        for (answer, traced) in untraced_answers.iter().zip(&passes.responses) {
            out.tally
                .note(classify(&Ok(traced.clone()), Some(&normalise_line(answer))));
        }
    }

    let (nodes, forest_s) = split_mining(&tracer, setup.miner_span, mined);

    let spans = tracer.spans();
    // Set-up and the measured requests are accounted apart: the dominant
    // layer of the requests is the one the warm path is judged by.
    let setup_acc = account(
        &mut out,
        "set-up",
        &spans,
        &[setup.root],
        untraced_setup_s,
        false,
    );
    let run_acc = account(&mut out, "run", &spans, &[run_root], untraced_run_s, false);
    out.set(
        "other.unattributed_s",
        setup_acc.unattributed_s + run_acc.unattributed_s,
    );
    out.set(
        "other.trace_overhead_s",
        setup_acc.overhead_s + run_acc.overhead_s,
    );
    let get = |layer: &str| {
        setup_acc.layers.get(layer).copied().unwrap_or(0.0)
            + run_acc.layers.get(layer).copied().unwrap_or(0.0)
    };
    out.set("data.loader.load_s", get("data.loader"));
    out.set(
        "data.loader.mb_per_s",
        input_bytes / get("data.loader").max(1e-12) / 1e6,
    );
    out.set("data.vertical.index_s", get("data.vertical"));
    out.set("mining.forest.mine_s", forest_s);
    out.set(
        "mining.forest.nodes_per_s",
        nodes as f64 / forest_s.max(1e-12),
    );
    out.set("core.miner.score_s", get("core.miner"));
    out.set("stats.buffer.tables_s", get("stats.buffer"));
    out.set("stats.buffer.table_bytes", tables.resident_bytes() as f64);
    out.set("core.permutation.null_s", get("core.permutation"));
    out.set(
        "core.permutation.rule_perms_per_s",
        ((1 + log.null_collections) * mined.rules().len() * PERMUTATIONS) as f64
            / get("core.permutation").max(1e-12),
    );
    out.set(
        "data.kernel.batched_sweeps",
        (kernel_setup.batched_sweeps - kernel_before.batched_sweeps + kernel.0) as f64,
    );
    out.set(
        "data.kernel.per_perm_sweeps",
        (kernel_setup.per_perm_sweeps - kernel_before.per_perm_sweeps + kernel.1) as f64,
    );
    let holdouts: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(id, s)| {
            s.name == "core.holdout"
                && passes
                    .engine
                    .iter()
                    .any(|&e| crate::trace::descends_from(&spans, *id, e))
        })
        .map(|(_, s)| s.duration())
        .collect();
    let holdout_s = if holdouts.is_empty() {
        // No holdout in this mix: one call on the same dataset.
        let ctx_h = CorrectionContext::fresh(engine.dataset(), mined, ErrorMetric::Fwer, 0.05);
        let start = Instant::now();
        RandomHoldout::from_mining(seed, &mining).apply(&ctx_h);
        start.elapsed().as_secs_f64()
    } else {
        stats::median(&holdouts)
    };
    out.set("core.holdout.holdout_s", holdout_s);
    common::decision_metrics(&mut out, &log.probed, mined, null, seed, 0.05);
    out.set("server.coordinate.ranges_local", 0.0);
    out.set("server.coordinate.ranges_remote", 0.0);
    out.set("server.coordinate.retries", 0.0);
    out.set("server.coordinate.payload_bytes", 0.0);
    out.set("server.coordinate.remote_share", 0.0);
    let longest = passes
        .responses
        .iter()
        .max_by_key(|r| r.len())
        .cloned()
        .unwrap_or_default();
    json_metrics(&mut out, &longest);
    program_timings(&mut out, &spans, &passes, &mix);
    Ok(out)
}

/// What the engine-level passes did besides their spans.
struct EngineLog {
    /// Nulls collected (cache misses) by the passes.
    null_collections: usize,
    /// Decision probes: kind and seconds.
    probed: Vec<(&'static str, f64)>,
}

/// The engine-level call of one mix request, as a `core.engine` subtree:
/// a permutation request fills (or finds) its null and then asks
/// `Engine::query`; a holdout runs what `Engine::query` runs for it; the
/// rest ask `Engine::query`.  The decision inside each query is timed by a
/// direct call afterwards and recorded as its child.
fn engine_pass(
    tracer: &Tracer,
    engine: &Engine,
    mined: &sigrule::MinedRuleSet,
    primed_null: &PermutationStats,
    m: &MixEntry,
    req: u64,
    log: &mut EngineLog,
) -> Result<usize, String> {
    let q = &m.query;
    let mut query_start = 0.0;
    let mut null: Option<Arc<PermutationStats>> = None;
    let id = tracer.span("core.engine", None, req, |id| -> Result<usize, String> {
        match q.approach {
            CorrectionApproach::Holdout => {
                let ctx = CorrectionContext::fresh(engine.dataset(), mined, q.metric, q.alpha);
                let holdout = RandomHoldout::from_mining(q.seed, &q.mining);
                tracer.span("core.holdout", Some(id), req, |_| holdout.apply(&ctx));
                return Ok(id);
            }
            CorrectionApproach::Permutation => {
                let correction = PermutationCorrection::new(q.n_permutations).with_seed(q.seed);
                let (stats, cached) = engine
                    .fill_null_with(
                        &q.mining,
                        q.n_permutations,
                        q.seed,
                        &CancelToken::none(),
                        |mined, tables, cancel| {
                            tracer.span("core.permutation", Some(id), req, |_| {
                                correction.collect_stats_cancellable(mined, Some(tables), cancel)
                            })
                        },
                    )
                    .map_err(|e| e.to_string())?;
                if !cached {
                    log.null_collections += 1;
                }
                null = Some(stats);
            }
            _ => {}
        }
        query_start = tracer.now();
        engine.query(q).map_err(|e| e.to_string())?;
        Ok(id)
    })?;
    if q.approach != CorrectionApproach::Holdout {
        let stats = null.as_deref().unwrap_or(primed_null);
        let secs = decision_probe(m.kind, mined, Some(stats), q.alpha, q.seed);
        log.probed.push((m.kind, secs));
        tracer.record(
            "core.decision",
            Some(id),
            req,
            query_start,
            query_start + secs,
        );
    }
    Ok(id)
}

/// Puts the served responses' own timings beside the span numbers.
fn program_timings(out: &mut RunResult, spans: &[Span], passes: &Passes, mix: &[MixEntry]) {
    let field = |resp: &str, key: &str| {
        Json::parse(resp)
            .ok()
            .and_then(|d| d.get(key).and_then(Json::as_f64))
    };
    let under = |root: usize, name: &str| -> f64 {
        spans
            .iter()
            .enumerate()
            .filter(|(id, s)| s.name == name && descends_from(spans, *id, root))
            .map(|(_, s)| s.duration() * 1e3)
            .sum()
    };
    for (label, kinds) in [
        ("permutation", ["fwer", "fdr"]),
        ("holdout", ["holdout", "holdout"]),
    ] {
        // Only requests that collected a null have a null time to compare.
        let picked: Vec<usize> = (0..mix.len())
            .filter(|&i| {
                kinds.contains(&mix[i].kind)
                    && !passes.responses[i].contains("\"null_cached\":true")
            })
            .collect();
        if picked.is_empty() {
            continue;
        }
        let reported = |key: &str| -> Vec<f64> {
            picked
                .iter()
                .filter_map(|&i| field(&passes.responses[i], key))
                .collect()
        };
        let span_of = |name: &str| -> Vec<f64> {
            picked
                .iter()
                .map(|&i| under(passes.engine[i], name))
                .collect()
        };
        if label == "permutation" {
            compare_reported(
                out,
                "served null_ms p50 vs core.permutation span",
                stats::median(&reported("null_ms")),
                stats::median(&span_of("core.permutation")),
                " (null_ms leaves out the p-value table build)",
            );
            compare_reported(
                out,
                "served correct_ms p50 vs core.decision span",
                stats::median(&reported("correct_ms")),
                stats::median(&span_of("core.decision")),
                "",
            );
        } else {
            compare_reported(
                out,
                "served correct_ms p50 vs core.holdout span",
                stats::median(&reported("correct_ms")),
                stats::median(&span_of("core.holdout")),
                " (served holdout time lands in correct_ms)",
            );
        }
    }
}
