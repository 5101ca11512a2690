//! `rows-oneshot` and `rows-sharded`: cold `sigrule correct` processes on
//! D2kA20R5, and their traced replay through the library.

use crate::common::{
    self, account, answers_text, compare_reported, decision_kind, decision_probe, json_metrics,
    roster_query, split_mining, Ctx, EndToEnd, RunResult, ROSTER,
};
use crate::inputs::{self, D2K_MIN_SUP, PERMUTATIONS, ROWS_SEED};
use crate::norm::report_answers;
use crate::proc::{run_timed, Server};
use crate::serve::{load_line, ok_request};
use crate::stats::{self, Outcome};
use crate::trace::Tracer;
use sigrule::cancel::CancelToken;
use sigrule::correction::permutation::{
    rayon_pool, LocalExecutor, NullExecutor, PartialPermutationStats, PermutationCorrection,
    PermutationStats, ShardError,
};
use sigrule::correction::{Correction, CorrectionContext, RandomHoldout};
use sigrule::engine::{Engine, Loader};
use sigrule::{CorrectionApproach, CorrectionResult, ErrorMetric, MinedRuleSet, RuleMiningConfig};
use sigrule_server::coordinate::{scatter_collect, RemoteExecutor, ShardSpec};
use sigrule_server::json::Json;
use sigrule_server::proto::{handle_line, ServerState};
use sigrule_server::transport::ListenAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Set-up repetitions of the one-shot workloads; a set-up takes tens of
/// milliseconds, so many repeats steady its median.
const ROW_SETUP_REPEATS: usize = 21;

/// Threads of the coordinator: both cores unsharded; one core plus one
/// single-threaded worker sharded, so both workloads use the same 2 cores.
fn threads(sharded: bool) -> usize {
    if sharded {
        1
    } else {
        2
    }
}

/// α of a run: picked by the run seed (see [`inputs::ROWS_SEED`]).
fn alpha(ctx: &Ctx) -> f64 {
    inputs::Mix::new(ctx.seed).alpha()
}

fn correct_args(path: &Path, alpha: f64, sharded: bool, worker: Option<&str>) -> Vec<String> {
    let mut args: Vec<String> = [
        "correct",
        "--input",
        &path.display().to_string(),
        "--min-sup",
        &D2K_MIN_SUP.to_string(),
        "--permutations",
        &PERMUTATIONS.to_string(),
        "--seed",
        &ROWS_SEED.to_string(),
        "--alpha",
        &alpha.to_string(),
        "--threads",
        &threads(sharded).to_string(),
        "--format",
        "json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some(addr) = worker {
        args.extend(["--workers".to_string(), addr.to_string()]);
    }
    args
}

fn spawn_worker(ctx: &Ctx) -> Result<Server, String> {
    Server::spawn(&ctx.sigrule, &ctx.root, &ctx.log("worker"))
        .map_err(|e| format!("spawn worker: {e}"))
}

/// One set-up: spawn a `sigrule serve` process and load D2k into it; the
/// seconds from spawn to the load's answer.  On `rows-sharded` this is the
/// worker's set-up (the coordinator replays the same load); on
/// `rows-oneshot` it is the process start and load every cold process pays.
fn spawn_and_load(ctx: &Ctx, path: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let server = spawn_worker(ctx)?;
    let mut conn = server.connect().map_err(|e| e.to_string())?;
    ok_request(&mut conn, &load_line(path, "d2k"))?;
    let secs = start.elapsed().as_secs_f64();
    drop(conn);
    server.shutdown();
    Ok(secs)
}

struct ColdRun {
    wall_s: f64,
    peak_rss_mb: f64,
    report: String,
    outcome: Outcome,
}

/// One cold `sigrule correct`; its answers are checked against `reference`
/// when given.
fn cold_run(
    ctx: &Ctx,
    path: &Path,
    sharded: bool,
    worker: Option<&Server>,
    reference: Option<&str>,
) -> Result<ColdRun, String> {
    let addr = worker.map(Server::addr);
    let args = correct_args(path, alpha(ctx), sharded, addr.as_deref());
    let run = run_timed(&ctx.sigrule, &args, &ctx.root, &ctx.log("correct"))
        .map_err(|e| format!("sigrule correct: {e}"))?;
    let worker_rss = worker.map_or(0.0, Server::peak_rss_mb);
    let outcome = if !run.success {
        Outcome::Error
    } else {
        match report_answers(&run.stdout) {
            Ok(answers) => match reference {
                Some(expected) if answers != expected => {
                    eprintln!("perfbench: answers differ from the library reference:\n{answers}--- reference:\n{expected}");
                    Outcome::Wrong
                }
                _ => Outcome::Ok,
            },
            Err(_) => Outcome::Error,
        }
    };
    Ok(ColdRun {
        wall_s: run.wall.as_secs_f64(),
        peak_rss_mb: run.peak_rss_mb + worker_rss,
        report: run.stdout,
        outcome,
    })
}

/// The untraced run: the input, set-up, the library reference, then cold
/// processes for `--seconds` (at least one).
pub fn run(ctx: &Ctx, sharded: bool) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let mut e2e = EndToEnd::default();
    let path = inputs::write_d2k(&ctx.work).map_err(|e| format!("write input: {e}"))?;
    for _ in 0..ROW_SETUP_REPEATS {
        e2e.setup_s.push(spawn_and_load(ctx, &path)?);
    }
    let start = Instant::now();
    let reference = common::reference_answers(&path, ROWS_SEED, alpha(ctx))?;
    out.note(format!(
        "reference: library Engine answers in {:.2} s",
        start.elapsed().as_secs_f64()
    ));

    let loop_start = Instant::now();
    loop {
        // Every cold run gets a fresh worker: a worker that already mined
        // would make later runs warmer than the first.
        let worker = if sharded {
            Some(spawn_worker(ctx)?)
        } else {
            None
        };
        let cold = cold_run(ctx, &path, sharded, worker.as_ref(), Some(&reference))?;
        if let Some(server) = worker {
            server.shutdown();
        }
        out.tally.note(cold.outcome);
        e2e.cold_correct_s.push(cold.wall_s);
        e2e.latencies_ms.push(cold.wall_s * 1e3);
        e2e.peak_rss_mb = e2e.peak_rss_mb.max(cold.peak_rss_mb);
        if cold.outcome == Outcome::Ok {
            e2e.completed += 1;
        }
        let elapsed = loop_start.elapsed().as_secs_f64();
        if elapsed + stats::median(&e2e.cold_correct_s) > ctx.seconds {
            break;
        }
    }
    e2e.wall_s = loop_start.elapsed().as_secs_f64();
    e2e.finish(&mut out, "cold correct");
    Ok(out)
}

/// Wraps a null executor so each range it runs becomes a span.
struct TracedExecutor<'a> {
    inner: &'a dyn NullExecutor,
    tracer: &'a Tracer,
    parent: usize,
    req: u64,
    name: &'static str,
    ranges: Mutex<Vec<(usize, usize, usize)>>,
}

impl NullExecutor for TracedExecutor<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn is_remote(&self) -> bool {
        self.inner.is_remote()
    }

    fn run_range(
        &self,
        start: usize,
        end: usize,
        cancel: &CancelToken,
    ) -> Result<PartialPermutationStats, ShardError> {
        let began = self.tracer.now();
        let result = self.inner.run_range(start, end, cancel);
        let id = self.tracer.record(
            self.name,
            Some(self.parent),
            self.req,
            began,
            self.tracer.now(),
        );
        self.ranges
            .lock()
            .expect("range log poisoned: a traced range panicked")
            .push((start, end, id));
        result
    }
}

/// What the scattered null did, for the coordinate metrics.
#[derive(Default)]
struct ScatterLog {
    local: Vec<(usize, usize, usize)>,
    remote: Vec<(usize, usize, usize)>,
    retries: u64,
}

/// What one replay of `sigrule correct` left behind.
struct Replayed {
    root: usize,
    wall_s: f64,
    state: ServerState,
    engine: Arc<Engine>,
    mined: Arc<MinedRuleSet>,
    miner_span: usize,
    null: Arc<PermutationStats>,
    results: Vec<CorrectionResult>,
    query_spans: Vec<(usize, (CorrectionApproach, ErrorMetric))>,
    scatter: ScatterLog,
}

/// The public calls `sigrule correct` makes, in its order, each inside a
/// span of `tracer`; with [`Tracer::disabled`] the same calls run untraced.
/// Sharded, the null is scattered over a local executor and a fresh worker.
fn replay(ctx: &Ctx, path: &Path, sharded: bool, tracer: &Tracer) -> Result<Replayed, String> {
    let mining = RuleMiningConfig::new(D2K_MIN_SUP);
    let (seed, alpha) = (ROWS_SEED, alpha(ctx));
    let name = format!("cli:{}", path.display());
    let worker = if sharded {
        Some(spawn_worker(ctx)?)
    } else {
        None
    };
    let state = ServerState::new();
    let pool = rayon_pool(threads(sharded)).map_err(|e| format!("thread pool: {e}"))?;
    let mut scatter = ScatterLog::default();
    let started = Instant::now();
    let (root, replayed) = tracer.span("run", None, 0, |root| {
        let mut calls = || -> Result<_, String> {
            let loaded = tracer
                .span("data.loader", Some(root), 0, |_| {
                    Loader::default().load_file(path)
                })
                .map_err(|e| e.to_string())?;
            let engine = state.registry().insert(&name, loaded.into_engine());
            tracer.span("data.vertical", Some(root), 0, |_| {
                engine.shared().vertical()
            });
            let (miner_span, mined) = tracer.span("core.miner", Some(root), 0, |id| {
                (id, engine.mine(&mining).0)
            });
            let req_fwer = 1 + ROSTER
                .iter()
                .position(|&(a, m)| decision_kind(a, m) == "fwer")
                .expect("the roster has Perm_FWER") as u64;
            tracer
                .span("stats.buffer", Some(root), req_fwer, |_| {
                    engine.mined_with_tables(&mining, PERMUTATIONS, seed, &CancelToken::none())
                })
                .map_err(|e| e.to_string())?;
            let correction = PermutationCorrection::new(PERMUTATIONS).with_seed(seed);
            let null = tracer.span("core.engine", Some(root), req_fwer, |engine_span| {
                engine.fill_null_with(
                    &mining,
                    PERMUTATIONS,
                    seed,
                    &CancelToken::none(),
                    |mined, tables, cancel| {
                        let Some(worker) = &worker else {
                            return tracer.span(
                                "core.permutation",
                                Some(engine_span),
                                req_fwer,
                                |_| {
                                    pool.install(|| {
                                        correction.collect_stats_cancellable(
                                            mined,
                                            Some(tables),
                                            cancel,
                                        )
                                    })
                                },
                            );
                        };
                        tracer.span("server.coordinate", Some(engine_span), req_fwer, |coord| {
                            let addr = ListenAddr::parse(&worker.addr()).expect("a tcp address");
                            let remote =
                                tracer.span("server.transport", Some(coord), req_fwer, |_| {
                                    RemoteExecutor::connect(
                                        &addr,
                                        shard_spec(path, &mining),
                                        Some(&load_line(path, &name)),
                                        mined.rules().len(),
                                    )
                                });
                            let local = LocalExecutor::new(correction.clone(), mined, Some(tables))
                                .with_threads(1)
                                .expect("a one-thread pool builds");
                            let traced_local = TracedExecutor {
                                inner: &local,
                                tracer,
                                parent: coord,
                                req: req_fwer,
                                name: "core.permutation",
                                ranges: Mutex::default(),
                            };
                            let remote = remote.ok();
                            let traced_remote = remote.as_ref().map(|r| TracedExecutor {
                                inner: r,
                                tracer,
                                parent: coord,
                                req: req_fwer,
                                name: "server.transport",
                                ranges: Mutex::default(),
                            });
                            let mut executors: Vec<&dyn NullExecutor> = vec![&traced_local];
                            if let Some(r) = &traced_remote {
                                executors.push(r);
                            }
                            let (stats, report) =
                                scatter_collect(&executors, PERMUTATIONS, cancel)?;
                            scatter.local = traced_local.ranges.into_inner().expect("range log");
                            scatter.remote = traced_remote
                                .map(|r| r.ranges.into_inner().expect("range log"))
                                .unwrap_or_default();
                            scatter.retries = report.retries;
                            Ok(stats)
                        })
                    },
                )
            });
            let (null, _) = null.map_err(|e| e.to_string())?;
            let mut results = Vec::new();
            let mut query_spans = Vec::new();
            for (i, &entry) in ROSTER.iter().enumerate() {
                let req = i as u64 + 1;
                let result = tracer.span("core.engine", Some(root), req, |engine_span| {
                    query_spans.push((engine_span, entry));
                    if entry.0 == CorrectionApproach::Holdout {
                        // What `Engine::query` runs for a holdout: no cache.
                        let ctx =
                            CorrectionContext::fresh(engine.dataset(), &mined, entry.1, alpha);
                        let holdout = RandomHoldout::from_mining(seed, &mining);
                        return Ok(tracer.span("core.holdout", Some(engine_span), req, |_| {
                            holdout.apply(&ctx)
                        }));
                    }
                    engine
                        .query(&roster_query(&mining, entry, seed, alpha, threads(sharded)))
                        .map(|o| o.result)
                        .map_err(|e| e.to_string())
                })?;
                results.push(result);
            }
            Ok((engine, mined, miner_span, null, results, query_spans))
        };
        (root, calls())
    });
    let wall_s = started.elapsed().as_secs_f64();
    drop(worker);
    let (engine, mined, miner_span, null, results, query_spans) = replayed?;
    Ok(Replayed {
        root,
        wall_s,
        state,
        engine,
        mined,
        miner_span,
        null,
        results,
        query_spans,
        scatter,
    })
}

/// The `perm_shard` parameters of the sharded null: one worker thread.
fn shard_spec(path: &Path, mining: &RuleMiningConfig) -> ShardSpec {
    let name = format!("cli:{}", path.display());
    let mut spec = ShardSpec::new(&name, mining, PERMUTATIONS, ROWS_SEED);
    spec.threads = Some(1);
    spec
}

/// The traced run: one untraced cold process for the reference answers and
/// the program's own timings; the replay of its calls without spans, the
/// baseline of the tracing overhead; the same replay with spans; then the
/// probes that split monolithic calls into layers.
pub fn traced(ctx: &Ctx, sharded: bool) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let path = inputs::write_d2k(&ctx.work).map_err(|e| format!("write input: {e}"))?;
    let input_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64;
    let worker = if sharded {
        Some(spawn_worker(ctx)?)
    } else {
        None
    };
    let reference_cold = cold_run(ctx, &path, sharded, worker.as_ref(), None)?;
    drop(worker);
    let cold_answers = report_answers(&reference_cold.report)?;

    let untraced_before = replay(ctx, &path, sharded, &Tracer::disabled())?.wall_s;
    let tracer = Tracer::default();
    let kernel_before = sigrule_data::kernel::counters();
    let r = replay(ctx, &path, sharded, &tracer)?;
    let kernel_after = sigrule_data::kernel::counters();
    let untraced_s = [
        untraced_before,
        replay(ctx, &path, sharded, &Tracer::disabled())?.wall_s,
    ];
    out.note(format!(
        "untraced: cold process {:.3} s, the same calls in-process {:.3} s",
        reference_cold.wall_s, untraced_s[0]
    ));
    let (seed, alpha) = (ROWS_SEED, alpha(ctx));
    let mining = RuleMiningConfig::new(D2K_MIN_SUP);

    // The replay must reproduce the cold process's answers.
    out.tally
        .note(if answers_text(&r.mined, &r.results) == cold_answers {
            Outcome::Ok
        } else {
            Outcome::Wrong
        });
    let stats_snapshot = r.engine.stats();
    let (_, tables) = r
        .engine
        .mined_with_tables(&mining, PERMUTATIONS, seed, &CancelToken::none())
        .map_err(|e| e.to_string())?;

    // Probes: split the monolithic calls into their layers.
    let (nodes, forest_s) = split_mining(&tracer, r.miner_span, &r.mined);
    let (mut probed, mut query_ms) = (Vec::new(), Vec::new());
    for &(span, (approach, metric)) in &r.query_spans {
        if approach == CorrectionApproach::Holdout {
            continue;
        }
        let kind = decision_kind(approach, metric);
        let secs = decision_probe(kind, &r.mined, Some(&r.null), alpha, seed);
        probed.push((kind, secs));
        let query = tracer.spans()[span].clone();
        query_ms.push(query.duration() * 1e3);
        let start = query.start;
        tracer.record("core.decision", Some(span), 0, start, start + secs);
    }
    let mut longest = reference_cold.report.trim().to_string();
    // The worker's side of each remote range, replayed in-process on the
    // same rule set: its protocol handling around the range and the
    // client's parse of the answer.
    let (mut beyond_ms, mut transport_ms, mut resp_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let spec = shard_spec(&path, &mining);
    let one_thread = rayon_pool(1).map_err(|e| format!("thread pool: {e}"))?;
    for &(start, end, span) in &r.scatter.remote {
        let clock = Instant::now();
        let resp = handle_line(&r.state, &spec.shard_line(start, end)).0;
        let handle_s = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let _ = one_thread.install(|| {
            PermutationCorrection::new(PERMUTATIONS)
                .with_seed(seed)
                .collect_stats_range(&r.mined, Some(&tables), &CancelToken::none(), start, end)
        });
        let perm_s = clock.elapsed().as_secs_f64();
        let (_, parse_s) = common::probe(|| Json::parse(&resp).is_ok());
        let s = tracer.spans()[span].clone();
        let proto = tracer.record("server.proto", Some(span), 0, s.start, s.start + handle_s);
        tracer.record(
            "core.permutation",
            Some(proto),
            0,
            s.start,
            s.start + perm_s,
        );
        tracer.record("server.json", Some(span), 0, s.end - parse_s, s.end);
        beyond_ms.push((handle_s - perm_s) * 1e3);
        transport_ms.push((s.duration() - handle_s - parse_s) * 1e3);
        resp_bytes.push(resp.len() as f64);
        if resp.len() > longest.len() {
            longest = resp;
        }
    }

    let spans = tracer.spans();
    let run = account(&mut out, "run", &spans, &[r.root], untraced_s, sharded);
    out.set("other.unattributed_s", run.unattributed_s);
    out.set("other.trace_overhead_s", run.overhead_s);
    let layers = run.layers;
    let get = |layer: &str| layers.get(layer).copied().unwrap_or(0.0);
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
        (r.mined.rules().len() * PERMUTATIONS) as f64 / get("core.permutation").max(1e-12),
    );
    out.set(
        "data.kernel.batched_sweeps",
        (kernel_after.batched_sweeps - kernel_before.batched_sweeps) as f64,
    );
    out.set(
        "data.kernel.per_perm_sweeps",
        (kernel_after.per_perm_sweeps - kernel_before.per_perm_sweeps) as f64,
    );
    let holdout: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.holdout")
        .map(|s| s.duration())
        .collect();
    out.set("core.holdout.holdout_s", stats::median(&holdout));
    common::decision_metrics(&mut out, &probed, &r.mined, &r.null, seed, alpha);
    out.set("core.engine.query_ms", stats::median(&query_ms));
    out.set(
        "core.engine.mine_hit_ratio",
        common::hit_ratio(stats_snapshot.mine_hits, stats_snapshot.mine_misses),
    );
    out.set(
        "core.engine.null_hit_ratio",
        common::hit_ratio(stats_snapshot.null_hits, stats_snapshot.null_misses),
    );
    // No protocol or transport on the one-shot path (these read 0 there);
    // sharded, per remote range: `handle_line` beyond its permutations, the
    // answer's size, and the round trip less `handle_line` and the parse.
    out.set("server.proto.handle_ms", stats::median(&beyond_ms));
    out.set("server.proto.resp_bytes", stats::median(&resp_bytes));
    out.set("server.transport.self_ms", stats::median(&transport_ms));
    let scatter = &r.scatter;
    let payload: usize = resp_bytes.iter().map(|&b| b as usize).sum();
    out.set("server.coordinate.ranges_local", scatter.local.len() as f64);
    out.set(
        "server.coordinate.ranges_remote",
        scatter.remote.len() as f64,
    );
    out.set("server.coordinate.retries", scatter.retries as f64);
    out.set("server.coordinate.payload_bytes", payload as f64);
    let remote_perms: usize = scatter.remote.iter().map(|&(s, e, _)| e - s).sum();
    out.set(
        "server.coordinate.remote_share",
        remote_perms as f64 / PERMUTATIONS as f64,
    );
    if sharded {
        out.note(format!(
            "server.coordinate: {} local and {} remote ranges, {} retries, {payload} payload bytes",
            scatter.local.len(),
            scatter.remote.len(),
            scatter.retries,
        ));
    }
    json_metrics(&mut out, &longest);
    reported_timings(&mut out, sharded, &reference_cold.report, &spans, &layers);
    Ok(out)
}

/// Puts the cold process's own timings beside the span numbers.
fn reported_timings(
    out: &mut RunResult,
    sharded: bool,
    report: &str,
    spans: &[crate::trace::Span],
    layers: &std::collections::BTreeMap<&'static str, f64>,
) {
    let Ok(doc) = Json::parse(report.trim()) else {
        return;
    };
    let summary_ms = |key: &str| {
        doc.get("summary")
            .and_then(|s| s.get(key))
            .and_then(Json::as_str)
            .and_then(|v| v.parse::<f64>().ok())
    };
    let get = |layer: &str| layers.get(layer).copied().unwrap_or(0.0) * 1e3;
    if let Some(load) = summary_ms("load_ms") {
        compare_reported(out, "load", load, get("data.loader"), "");
    }
    if let Some(mine) = summary_ms("mine_ms") {
        let span_ms = spans
            .iter()
            .filter(|s| s.name == "core.miner")
            .map(|s| s.duration())
            .sum::<f64>()
            * 1e3;
        compare_reported(
            out,
            "mine (vertical index built inside)",
            mine,
            span_ms + get("data.vertical"),
            "",
        );
    }
    let Some(Json::Array(tables)) = doc.get("tables") else {
        return;
    };
    let Some(Json::Array(rows)) = tables.first().and_then(|t| t.get("rows")) else {
        return;
    };
    let cell = |row: &Json, i: usize| match row {
        Json::Array(cells) => cells.get(i).and_then(Json::as_str).map(str::to_string),
        _ => None,
    };
    for row in rows {
        let (Some(method), Some(ms)) = (
            cell(row, 0),
            cell(row, 6).and_then(|v| v.parse::<f64>().ok()),
        ) else {
            continue;
        };
        match method.as_str() {
            "Perm_FWER" => compare_reported(
                out,
                "Perm_FWER time_ms vs tables + null spans",
                ms,
                get("stats.buffer") + get("core.permutation"),
                if sharded {
                    " (--workers fills the null before the roster, so time_ms is the decision alone)"
                } else {
                    " (the engine's null_ms leaves out the p-value table build)"
                },
            ),
            "RH_BC" | "RH_BH" => {
                let holdout: Vec<f64> = spans
                    .iter()
                    .filter(|s| s.name == "core.holdout")
                    .map(|s| s.duration() * 1e3)
                    .collect();
                compare_reported(
                    out,
                    &format!("{method} time_ms vs holdout span"),
                    ms,
                    stats::median(&holdout),
                    "",
                );
            }
            _ => {}
        }
    }
}
