//! Property test for the resident engine's query caching (ISSUE 4): warm
//! queries — a second request against the same engine at a different α,
//! error metric, or correction approach — must be **bit-identical** to a
//! fresh one-shot [`Pipeline`] run with the same parameters, at any thread
//! count.  The engine is a caching layer, never a semantics change.

use proptest::prelude::*;
use sigrule_repro::prelude::*;

/// One shared synthetic dataset shape; the seed varies per case.
fn dataset(seed: u64, records: usize, attributes: usize) -> Dataset {
    let params = SyntheticParams::default()
        .with_records(records)
        .with_attributes(attributes)
        .with_rules(1)
        .with_coverage(records / 5, records / 4)
        .with_confidence(0.85, 0.95);
    SyntheticGenerator::new(params).unwrap().generate(seed).0
}

/// A basket dataset over three classes: variable-length records, several
/// rules per pattern.
fn baskets(seed: u64, transactions: usize) -> Dataset {
    let mut params = BasketParams::default()
        .with_transactions(transactions)
        .with_items(30)
        .with_rules(2)
        .with_coverage(transactions / 8, transactions / 5);
    params.n_classes = 3;
    BasketGenerator::new(params).unwrap().generate(seed).0
}

/// Everything a correction result says, with every float as its bit
/// pattern, so equality is bit-for-bit.
#[allow(clippy::type_complexity)]
fn bits(
    r: &CorrectionResult,
) -> (
    String,
    u64,
    Vec<bool>,
    Vec<(Pattern, u64, usize, usize, u64)>,
    Option<u64>,
    usize,
) {
    (
        r.method.clone(),
        r.alpha.to_bits(),
        r.significant.clone(),
        r.rules
            .iter()
            .map(|rule| {
                (
                    rule.pattern.clone(),
                    u64::from(rule.class),
                    rule.coverage,
                    rule.support,
                    rule.p_value.to_bits(),
                )
            })
            .collect(),
        r.p_value_cutoff.map(f64::to_bits),
        r.n_tests,
    )
}

/// The uncached reference for a holdout query.
fn reference_holdout(data: &Dataset, query: &Query) -> CorrectionResult {
    let holdout = RandomHoldout::from_mining(query.seed, &query.mining);
    random_holdout(
        data,
        query.seed,
        &holdout.exploratory,
        query.metric,
        query.alpha,
    )
}

fn holdout_query(min_sup: usize, metric: ErrorMetric, alpha: f64, seed: u64) -> Query {
    Query::new(RuleMiningConfig::new(min_sup))
        .with_correction(CorrectionApproach::Holdout, metric)
        .with_alpha(alpha)
        .with_seed(seed)
}

fn base_query(min_sup: usize, approach: CorrectionApproach, metric: ErrorMetric) -> Query {
    Query::new(RuleMiningConfig::new(min_sup))
        .with_correction(approach, metric)
        .with_permutations(30)
        .with_seed(23)
}

fn one_shot(dataset: &Dataset, query: &Query) -> CorrectionResult {
    let mut pipeline = Pipeline::new(query.mining.min_sup)
        .with_mining(query.mining.clone())
        .with_correction(query.approach, query.metric)
        .with_alpha(query.alpha)
        .with_permutations(query.n_permutations)
        .with_seed(query.seed);
    if let Some(threads) = query.threads {
        pipeline = pipeline.with_threads(threads);
    }
    pipeline.run_dataset(dataset).unwrap().result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A cold query populates the caches; every follow-up variation (new α,
    /// new metric, new approach) must answer warm and still match a fresh
    /// pipeline bit for bit.
    #[test]
    fn warm_queries_match_fresh_pipeline_runs(
        seed in 0u64..200,
        records in 150usize..300,
        attributes in 6usize..10,
        alpha_millis in 1usize..200,
    ) {
        let data = dataset(seed, records, attributes);
        let engine = Engine::new(data.clone());
        let min_sup = records / 6;
        let alpha = alpha_millis as f64 / 1000.0;

        // Cold: permutation FWER at the default α.
        let cold = engine
            .query(&base_query(min_sup, CorrectionApproach::Permutation, ErrorMetric::Fwer))
            .unwrap();
        prop_assert!(!cold.mined_cached);
        prop_assert_eq!(cold.null_cached, Some(false));

        // Warm variations: α, metric, and approach all change; the mined
        // rule set (and, for permutation, the null) must come from the cache
        // and the results must equal a fresh pipeline's exactly.
        let variations = [
            base_query(min_sup, CorrectionApproach::Permutation, ErrorMetric::Fwer)
                .with_alpha(alpha),
            base_query(min_sup, CorrectionApproach::Permutation, ErrorMetric::Fdr)
                .with_alpha(alpha),
            base_query(min_sup, CorrectionApproach::None, ErrorMetric::Fwer).with_alpha(alpha),
            base_query(min_sup, CorrectionApproach::Direct, ErrorMetric::Fwer).with_alpha(alpha),
            base_query(min_sup, CorrectionApproach::Direct, ErrorMetric::Fdr).with_alpha(alpha),
            base_query(min_sup, CorrectionApproach::Holdout, ErrorMetric::Fwer).with_alpha(alpha),
        ];
        for query in &variations {
            let warm = engine.query(query).unwrap();
            prop_assert!(warm.mined_cached, "{:?} should hit the mine cache", query.approach);
            if query.approach == CorrectionApproach::Permutation {
                prop_assert_eq!(warm.null_cached, Some(true));
            }
            let fresh = one_shot(&data, query);
            prop_assert_eq!(
                &warm.result,
                &fresh,
                "engine and pipeline disagree for {:?}/{:?} at alpha {}",
                query.approach,
                query.metric,
                query.alpha
            );
        }
    }

    /// Thread-count invariance through the cache: a null collected under a
    /// pinned pool of any size answers warm queries identically, and matches
    /// pipelines pinned to *different* thread counts.
    #[test]
    fn warm_cache_is_thread_count_invariant(
        seed in 0u64..100,
        collect_threads in 1usize..5,
    ) {
        let data = dataset(seed, 200, 8);
        let engine = Engine::new(data.clone());
        let cold_query = base_query(30, CorrectionApproach::Permutation, ErrorMetric::Fwer)
            .with_threads(collect_threads);
        let cold = engine.query(&cold_query).unwrap();
        prop_assert_eq!(cold.null_cached, Some(false));

        for query_threads in [1usize, 2, 4] {
            let warm_query = base_query(30, CorrectionApproach::Permutation, ErrorMetric::Fwer)
                .with_alpha(0.02)
                .with_threads(query_threads);
            let warm = engine.query(&warm_query).unwrap();
            prop_assert_eq!(warm.null_cached, Some(true), "same (N, seed) null is reused");
            let fresh = one_shot(&data, &warm_query);
            prop_assert_eq!(&warm.result, &fresh, "threads {} vs {}", collect_threads, query_threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A holdout through `Engine::query` equals the uncached
    /// `random_holdout` bit for bit whether its screen is cold, warm,
    /// evicted (what a zero byte budget does after every request) or
    /// rebuilt after a cancelled ask.
    #[test]
    fn cached_holdouts_match_random_holdout_bit_for_bit(
        seed in 0u64..500,
        records in 200usize..400,
        min_sup_div in 5usize..12,
        split_seed in 0u64..1000,
        alpha_millis in 1usize..300,
        // Bit 0: baskets (else rows); bit 1: FDR (else FWER).
        shape in 0usize..4,
    ) {
        let fdr = shape >> 1;
        let data = if shape & 1 == 1 {
            baskets(seed, records)
        } else {
            dataset(seed, records, 8)
        };
        let metric = if fdr == 1 { ErrorMetric::Fdr } else { ErrorMetric::Fwer };
        let alpha = alpha_millis as f64 / 1000.0;
        let query = holdout_query((records / min_sup_div).max(2), metric, alpha, split_seed);
        let expected = bits(&reference_holdout(&data, &query));
        // A zero byte budget: every enforcement pass evicts everything.
        let registry = EngineRegistry::with_budget(Some(0));
        let engine = registry.insert("d", Engine::new(data.clone()));

        let cold = engine.query(&query).unwrap();
        prop_assert_eq!(cold.holdout_cached, Some(false));
        prop_assert_eq!(cold.null_cached, None);
        prop_assert_eq!(bits(&cold.result), expected.clone(), "cold");

        let warm = engine.query(&query).unwrap();
        prop_assert_eq!(warm.holdout_cached, Some(true));
        prop_assert_eq!(bits(&warm.result), expected.clone(), "warm");

        // The other metric at another α decides from the same screen.
        let other_metric = if fdr == 1 { ErrorMetric::Fwer } else { ErrorMetric::Fdr };
        let other = holdout_query(query.mining.min_sup, other_metric, 0.05, split_seed);
        let shared = engine.query(&other).unwrap();
        prop_assert_eq!(shared.holdout_cached, Some(true));
        prop_assert_eq!(bits(&shared.result), bits(&reference_holdout(&data, &other)));

        registry.enforce_budget();
        prop_assert_eq!(engine.stats().resident_bytes(), 0);
        let evicted = engine.query(&query).unwrap();
        prop_assert_eq!(evicted.holdout_cached, Some(false));
        prop_assert_eq!(bits(&evicted.result), expected.clone(), "after eviction");

        registry.enforce_budget();
        let token = CancelToken::new();
        token.cancel();
        let cancelled = engine.query(&query.clone().with_cancel(token));
        prop_assert!(matches!(cancelled, Err(PipelineError::Cancelled(_))));
        prop_assert_eq!(engine.stats().holdout_bytes, 0);
        let retried = engine.query(&query).unwrap();
        prop_assert_eq!(retried.holdout_cached, Some(false));
        prop_assert_eq!(bits(&retried.result), expected, "after cancellation");

        let stats = engine.stats();
        prop_assert_eq!((stats.holdout_misses, stats.holdout_hits), (3, 2));
        prop_assert_eq!(stats.evicted_holdouts, 2);
        prop_assert_eq!(stats.cached_holdouts, 1);
        // Each answered holdout ask made exactly one whole-dataset mine
        // lookup; the pre-cancelled one never reached the mine stage.
        prop_assert_eq!(stats.mine_hits + stats.mine_misses, 5);
        prop_assert_eq!((stats.null_hits, stats.null_misses), (0, 0));
    }
}

/// A deadline that fires while the screen fills leaves the holdout cache
/// cold; the retry rebuilds it bit-identically.  Deadlines range from
/// "expired on arrival" to "never fires in time", so some asks are cut
/// inside the exploratory mine.
#[test]
fn holdout_cancelled_mid_fill_leaves_the_cache_cold() {
    let data = dataset(31, 900, 10);
    let query = holdout_query(40, ErrorMetric::Fwer, 0.05, 5);
    let expected = bits(&reference_holdout(&data, &query));
    let mut cancelled = 0;
    for micros in [0u64, 50, 200, 1_000, 5_000, 60_000_000] {
        let engine = Engine::new(data.clone());
        engine.mine(&query.mining);
        let deadline = CancelToken::with_deadline(std::time::Duration::from_micros(micros));
        match engine.query(&query.clone().with_cancel(deadline)) {
            Ok(outcome) => assert_eq!(bits(&outcome.result), expected, "{micros} µs"),
            Err(PipelineError::Cancelled(_)) => {
                cancelled += 1;
                let stats = engine.stats();
                assert_eq!(stats.holdout_bytes, 0, "{micros} µs");
                assert_eq!(stats.cached_holdouts, 0, "{micros} µs");
                let retry = engine.query(&query).unwrap();
                assert_eq!(retry.holdout_cached, Some(false));
                assert_eq!(bits(&retry.result), expected, "{micros} µs retry");
            }
            Err(other) => panic!("{micros} µs: {other}"),
        }
    }
    assert!(cancelled >= 1, "an expired deadline must cancel");
}

/// Two identical cold holdout asks racing on one engine build the screen
/// once: the second waits on the first's fill.
#[test]
fn racing_cold_holdouts_build_one_screen() {
    let data = dataset(17, 600, 9);
    let query = holdout_query(40, ErrorMetric::Fdr, 0.05, 3);
    let expected = bits(&reference_holdout(&data, &query));
    let engine = std::sync::Arc::new(Engine::new(data));
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let (engine, barrier, query) = (engine.clone(), barrier.clone(), query.clone());
            std::thread::spawn(move || {
                barrier.wait();
                engine.query(&query).unwrap()
            })
        })
        .collect();
    for handle in handles {
        assert_eq!(bits(&handle.join().unwrap().result), expected);
    }
    let stats = engine.stats();
    assert_eq!(stats.holdout_misses, 1);
    assert_eq!(stats.holdout_hits, 1);
    assert_eq!(stats.cached_holdouts, 1);
    let holdout_entries: Vec<CacheEntry> = engine
        .cache_entries()
        .into_iter()
        .filter(|e| e.kind == CacheEntryKind::Holdout)
        .collect();
    assert_eq!(holdout_entries.len(), 1);
    assert!(holdout_entries[0].bytes > 0);
    assert_eq!(holdout_entries[0].bytes, stats.holdout_bytes);
}

/// Non-property smoke check: the engine's own stats agree with the cache
/// behaviour the property tests rely on.
#[test]
fn engine_stats_reflect_cache_traffic() {
    let data = dataset(7, 200, 8);
    let engine = Engine::new(data);
    let q = base_query(30, CorrectionApproach::Permutation, ErrorMetric::Fwer);
    engine.query(&q).unwrap();
    engine.query(&q.clone().with_alpha(0.01)).unwrap();
    engine.query(&q.clone().with_alpha(0.2)).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.queries, 3);
    assert_eq!(stats.mine_misses, 1);
    assert_eq!(stats.mine_hits, 2);
    assert_eq!(stats.null_misses, 1);
    assert_eq!(stats.null_hits, 2);
    assert_eq!(stats.cached_rule_sets, 1);
    assert_eq!(stats.cached_nulls, 1);
}
