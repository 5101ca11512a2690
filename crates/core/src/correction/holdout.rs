//! The holdout approach (§4.3 of the paper; Webb 2007).
//!
//! The dataset is divided into an *exploratory* and an *evaluation* part.
//! Rules are mined on the exploratory part; those with a raw p-value at most
//! `α` become candidates and are re-tested on the evaluation part, where the
//! multiple-testing correction only has to account for the (much smaller)
//! number of candidates:
//!
//! * FWER: Bonferroni with `m = #candidates` ("HD_BC" / "RH_BC"),
//! * FDR: Benjamini–Hochberg over the candidates ("HD_BH" / "RH_BH").
//!
//! Two partitioning schemes are provided, matching the paper's experiments:
//! [`holdout_from_parts`] takes a pre-existing split (the paper's
//! "holdout", which pairs two independently generated sub-datasets), and
//! [`random_holdout`] splits a single dataset at random ("random holdout").
//!
//! Both run in two steps.  The [`HoldoutScreen`] mines the exploratory part
//! and re-scores **every** exploratory rule on the evaluation part; it
//! depends on neither α nor the metric.  [`HoldoutScreen::decide`] then
//! keeps the rules whose exploratory p-value is at most α and corrects over
//! them, which is cheap.  A resident engine caches the screen, so only the
//! first holdout ask per (mining configuration, seed) pays for the mine.

use crate::cancel::{CancelToken, Cancelled};
use crate::config::RuleMiningConfig;
use crate::correction::{CorrectionResult, ErrorMetric};
use crate::miner::{mine_rules, mine_rules_cancellable};
use crate::rule::ClassRule;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sigrule_data::{ClassId, Dataset, Pattern, TidSet, VerticalDataset};
use sigrule_stats::{
    benjamini_hochberg_threshold, bonferroni_threshold, LogFactorialTable, PValueBuffer,
};

/// The α-independent part of a holdout run: every rule mined on the
/// exploratory dataset, with its exploratory p-value and its statistics
/// re-measured on the evaluation dataset, in exploratory rule order.
///
/// Which rules become candidates depends on α, and the correction on the
/// error metric, but the screen depends on neither: [`decide`] turns one
/// screen into the answer at any α under either metric.  A resident
/// [`Engine`](crate::engine::Engine) therefore builds it once per (mining
/// configuration, split seed) and answers every later holdout ask from it.
/// It holds per-rule statistics only — no forest, split datasets or index.
///
/// [`decide`]: HoldoutScreen::decide
#[derive(Debug)]
pub struct HoldoutScreen {
    /// The exploratory rules, carrying their evaluation-dataset coverage,
    /// support and p-value.
    rules: Vec<ClassRule>,
    /// The exploratory p-value of each rule (parallel to `rules`).
    exploratory_p: Vec<f64>,
}

impl HoldoutScreen {
    /// Mines `exploratory` with `mining` and re-scores every rule on
    /// `evaluation`.
    pub fn build(exploratory: &Dataset, evaluation: &Dataset, mining: &RuleMiningConfig) -> Self {
        Self::build_cancellable(exploratory, evaluation, mining, &CancelToken::none())
            .expect("the never-firing token cannot cancel")
    }

    /// [`build`](HoldoutScreen::build) with a cancellation token, checked
    /// between the mining phases and before the evaluation pass.
    fn build_cancellable(
        exploratory: &Dataset,
        evaluation: &Dataset,
        mining: &RuleMiningConfig,
        cancel: &CancelToken,
    ) -> Result<Self, Cancelled> {
        let vertical = VerticalDataset::from_dataset(exploratory);
        let mined = mine_rules_cancellable(exploratory, &vertical, mining, cancel)?;
        drop(vertical);
        cancel.check()?;
        let exploratory_p = mined.rules().iter().map(|r| r.p_value).collect();
        let rules = evaluate(evaluation, mined.rules());
        Ok(HoldoutScreen {
            rules,
            exploratory_p,
        })
    }

    /// Splits `whole` into two random halves with `seed` and builds the
    /// screen with the first half as the exploratory dataset ("random
    /// holdout" in the paper).
    pub fn random(whole: &Dataset, seed: u64, mining: &RuleMiningConfig) -> Self {
        Self::random_cancellable(whole, seed, mining, &CancelToken::none())
            .expect("the never-firing token cannot cancel")
    }

    /// [`random`](HoldoutScreen::random) with a cancellation token.
    pub(crate) fn random_cancellable(
        whole: &Dataset,
        seed: u64,
        mining: &RuleMiningConfig,
        cancel: &CancelToken,
    ) -> Result<Self, Cancelled> {
        cancel.check()?;
        let (exploratory, evaluation) = random_split(whole, seed);
        Self::build_cancellable(&exploratory, &evaluation, mining, cancel)
    }

    /// Number of exploratory rules screened.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the exploratory dataset yielded no rule.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Approximate resident bytes (rules with their pattern items, plus the
    /// exploratory p-values), for byte-budget cache eviction.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rules.len() * (size_of::<ClassRule>() + size_of::<f64>())
            + self
                .rules
                .iter()
                .map(|r| std::mem::size_of_val(r.pattern.items()))
                .sum::<usize>()
    }

    /// Decides significance at `alpha`: the rules with an exploratory
    /// p-value at most `alpha` become candidates (in exploratory order), and
    /// the correction accounts for the candidates only.  `label_prefix`
    /// names the partitioning scheme in the method label (`"HD"` or `"RH"`).
    pub fn decide(&self, metric: ErrorMetric, alpha: f64, label_prefix: &str) -> CorrectionResult {
        let evaluated: Vec<ClassRule> = self
            .rules
            .iter()
            .zip(&self.exploratory_p)
            .filter(|&(_, &p)| p <= alpha)
            .map(|(rule, _)| rule.clone())
            .collect();

        let n_candidates = evaluated.len();
        let (method, significant, cutoff) = match metric {
            ErrorMetric::Fwer => {
                let cutoff = bonferroni_threshold(alpha, n_candidates.max(1));
                let significant: Vec<bool> =
                    evaluated.iter().map(|r| r.p_value <= cutoff).collect();
                (format!("{label_prefix}_BC"), significant, Some(cutoff))
            }
            ErrorMetric::Fdr => {
                if evaluated.is_empty() {
                    (format!("{label_prefix}_BH"), Vec::new(), None)
                } else {
                    let p_values: Vec<f64> = evaluated.iter().map(|r| r.p_value).collect();
                    let threshold = benjamini_hochberg_threshold(&p_values, alpha, None)
                        .expect("validated p-values");
                    let significant: Vec<bool> = p_values.iter().map(|&p| p <= threshold).collect();
                    (format!("{label_prefix}_BH"), significant, None)
                }
            }
        };

        CorrectionResult {
            method,
            metric,
            alpha,
            significant,
            rules: evaluated,
            p_value_cutoff: cutoff,
            n_tests: n_candidates,
        }
    }
}

/// Re-measures every rule on `evaluation` through its vertical index: a
/// pattern's cover is the intersection of its items' tid-sets, and its rule
/// support the covered records carrying the rule's class.  The two-sided
/// Fisher p-values are read from one p-value buffer per (class, coverage),
/// the same computation [`FisherTest`](sigrule_stats::FisherTest) runs per
/// rule, so the values are bit-identical to it.
fn evaluate(evaluation: &Dataset, rules: &[ClassRule]) -> Vec<ClassRule> {
    let vertical = VerticalDataset::from_dataset(evaluation);
    let labels = vertical.labels();
    let mut cover = TidSet::empty();
    let mut covered: Option<&Pattern> = None;
    let mut evaluated: Vec<ClassRule> = rules
        .iter()
        .map(|rule| {
            // Rules of one pattern (one per class) are adjacent.
            if covered != Some(&rule.pattern) {
                cover = cover_of(&vertical, &rule.pattern);
                covered = Some(&rule.pattern);
            }
            ClassRule {
                pattern: rule.pattern.clone(),
                class: rule.class,
                coverage: cover.len(),
                support: cover.count_class(labels, rule.class),
                p_value: 1.0,
            }
        })
        .collect();

    let n_eval = evaluation.n_records();
    if n_eval == 0 {
        return evaluated;
    }
    let class_counts = evaluation.class_counts();
    let logs = LogFactorialTable::new(n_eval);
    let mut order: Vec<(ClassId, usize, usize)> = evaluated
        .iter()
        .enumerate()
        .map(|(i, rule)| (rule.class, rule.coverage, i))
        .collect();
    order.sort_unstable();
    for group in order.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (class, coverage, _) = group[0];
        let buffer = PValueBuffer::build(n_eval, class_counts.count(class), coverage, &logs);
        for &(_, _, i) in group {
            evaluated[i].p_value = buffer.p_value(evaluated[i].support);
        }
    }
    evaluated
}

/// The records of `vertical` containing every item of `pattern`: the
/// intersection of the items' tid-sets, smallest first.
fn cover_of(vertical: &VerticalDataset, pattern: &Pattern) -> TidSet {
    let mut items: Vec<&TidSet> = pattern
        .items()
        .iter()
        .map(|&item| vertical.item_tids(item))
        .collect();
    items.sort_unstable_by_key(|tids| tids.len());
    let Some((smallest, rest)) = items.split_first() else {
        return TidSet::full(vertical.n_records());
    };
    let mut cover = (*smallest).clone();
    for tids in rest {
        if cover.is_empty() {
            break;
        }
        cover = cover.intersect(tids);
    }
    cover
}

/// Splits `whole` into a random half (the exploratory dataset, first) and
/// the rest, shuffling record indices with `seed`.
fn random_split(whole: &Dataset, seed: u64) -> (Dataset, Dataset) {
    let n = whole.n_records();
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let half = n / 2;
    let mut mask = vec![false; n];
    for &i in indices.iter().take(half) {
        mask[i] = true;
    }
    whole
        .split_by_mask(&mask)
        .expect("mask has exactly one entry per record")
}

/// Runs the holdout procedure on an existing exploratory/evaluation split.
///
/// `mining` is the configuration used on the **exploratory** dataset; the
/// paper sets its `min_sup` to half of the value used on the whole dataset.
/// `label_prefix` distinguishes the paper's two partitioning schemes in
/// reports (`"HD"` for the paired construction, `"RH"` for random splits).
pub fn holdout_from_parts(
    exploratory: &Dataset,
    evaluation: &Dataset,
    mining: &RuleMiningConfig,
    metric: ErrorMetric,
    alpha: f64,
    label_prefix: &str,
) -> CorrectionResult {
    HoldoutScreen::build(exploratory, evaluation, mining).decide(metric, alpha, label_prefix)
}

/// Splits `whole` into two random halves and runs the holdout procedure
/// ("random holdout" in the paper).  The first half is the exploratory
/// dataset.
pub fn random_holdout(
    whole: &Dataset,
    seed: u64,
    mining: &RuleMiningConfig,
    metric: ErrorMetric,
    alpha: f64,
) -> CorrectionResult {
    HoldoutScreen::random(whole, seed, mining).decide(metric, alpha, "RH")
}

/// Number of candidate rules that pass the exploratory screen at `alpha`
/// (used by the experiments that report "#rules tested" on the exploratory
/// and evaluation datasets, Figures 7 and 11).
pub fn count_exploratory_candidates(
    exploratory: &Dataset,
    mining: &RuleMiningConfig,
    alpha: f64,
) -> (usize, usize) {
    let mined = mine_rules(exploratory, mining);
    let candidates = mined.rules().iter().filter(|r| r.p_value <= alpha).count();
    (mined.n_tests(), candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigrule_synth::{SyntheticGenerator, SyntheticParams};

    fn paired(confidence: f64, seed: u64) -> sigrule_synth::PairedSynthetic {
        let params = SyntheticParams::default()
            .with_records(600)
            .with_attributes(12)
            .with_rules(1)
            .with_coverage(160, 160)
            .with_confidence(confidence, confidence);
        SyntheticGenerator::new(params)
            .unwrap()
            .generate_paired(seed)
    }

    #[test]
    fn strong_rule_survives_holdout_fwer() {
        let p = paired(0.95, 1);
        let r = holdout_from_parts(
            &p.exploratory,
            &p.evaluation,
            &RuleMiningConfig::new(40),
            ErrorMetric::Fwer,
            0.05,
            "HD",
        );
        assert_eq!(r.method, "HD_BC");
        assert!(r.n_significant() > 0, "confidence-0.95 rule should survive");
        // Every reported rule carries evaluation-dataset statistics.
        for rule in r.significant_rules() {
            assert!(rule.coverage <= p.evaluation.n_records());
        }
    }

    #[test]
    fn weak_rule_is_often_lost_by_holdout() {
        // A moderately confident rule is harder to detect at half coverage:
        // the holdout should report (weakly) fewer significant rules than a
        // whole-dataset Bonferroni.
        let p = paired(0.62, 2);
        let hd = holdout_from_parts(
            &p.exploratory,
            &p.evaluation,
            &RuleMiningConfig::new(40),
            ErrorMetric::Fwer,
            0.05,
            "HD",
        );
        let mined_whole = mine_rules(&p.whole, &RuleMiningConfig::new(80));
        let bc = crate::correction::direct::bonferroni(&mined_whole, 0.05);
        assert!(
            hd.n_significant() <= bc.n_significant() + 1,
            "holdout ({}) should not report far more rules than BC ({})",
            hd.n_significant(),
            bc.n_significant()
        );
    }

    #[test]
    fn candidate_counting_matches_the_screen() {
        let p = paired(0.9, 3);
        let (n_tests, candidates) =
            count_exploratory_candidates(&p.exploratory, &RuleMiningConfig::new(40), 0.05);
        assert!(candidates <= n_tests);
        let r = holdout_from_parts(
            &p.exploratory,
            &p.evaluation,
            &RuleMiningConfig::new(40),
            ErrorMetric::Fwer,
            0.05,
            "HD",
        );
        assert_eq!(r.n_tests, candidates);
        assert_eq!(r.rules.len(), candidates);
    }

    #[test]
    fn fdr_variant_reports_at_least_as_much_as_fwer() {
        let p = paired(0.85, 4);
        let mining = RuleMiningConfig::new(40);
        let fwer = holdout_from_parts(
            &p.exploratory,
            &p.evaluation,
            &mining,
            ErrorMetric::Fwer,
            0.05,
            "HD",
        );
        let fdr = holdout_from_parts(
            &p.exploratory,
            &p.evaluation,
            &mining,
            ErrorMetric::Fdr,
            0.05,
            "HD",
        );
        assert_eq!(fdr.method, "HD_BH");
        assert!(fdr.n_significant() >= fwer.n_significant());
    }

    #[test]
    fn random_holdout_runs_and_is_deterministic_per_seed() {
        let p = paired(0.9, 5);
        let a = random_holdout(
            &p.whole,
            7,
            &RuleMiningConfig::new(40),
            ErrorMetric::Fwer,
            0.05,
        );
        let b = random_holdout(
            &p.whole,
            7,
            &RuleMiningConfig::new(40),
            ErrorMetric::Fwer,
            0.05,
        );
        assert_eq!(a.method, "RH_BC");
        assert_eq!(a.n_significant(), b.n_significant());
        assert_eq!(a.rules.len(), b.rules.len());
    }

    /// First-principles oracle for the evaluation side: for every
    /// exploratory rule, the vertical-index coverage and support equal
    /// `Dataset::support`/`rule_support` row scans, and the p-value equals a
    /// per-rule `FisherTest` bit for bit.
    #[test]
    fn screen_statistics_match_row_scans_and_fisher() {
        use sigrule_stats::{FisherTest, RuleCounts, Tail};
        let rows = paired(0.85, 8).whole;
        // Baskets over three classes: several rules per pattern, and
        // variable-length records.
        let mut basket_params = sigrule_synth::BasketParams::default().with_rules(2);
        basket_params.n_classes = 3;
        let (baskets, _) = sigrule_synth::BasketGenerator::new(basket_params)
            .unwrap()
            .generate(9);
        for (whole, min_sup) in [(rows, 20), (baskets, 10)] {
            let (exploratory, evaluation) = random_split(&whole, 5);
            let mining = RuleMiningConfig::new(min_sup);
            let screen = HoldoutScreen::build(&exploratory, &evaluation, &mining);
            let mined = mine_rules(&exploratory, &mining);
            assert_eq!(screen.len(), mined.rules().len());
            assert!(!screen.is_empty());
            let n_eval = evaluation.n_records();
            let fisher = FisherTest::new(n_eval);
            let class_counts = evaluation.class_counts();
            for ((rule, explored), &p) in screen
                .rules
                .iter()
                .zip(mined.rules())
                .zip(&screen.exploratory_p)
            {
                assert_eq!(rule.pattern, explored.pattern);
                assert_eq!(rule.class, explored.class);
                assert_eq!(p.to_bits(), explored.p_value.to_bits());
                assert_eq!(rule.coverage, evaluation.support(&rule.pattern));
                assert_eq!(
                    rule.support,
                    evaluation.rule_support(&rule.pattern, rule.class)
                );
                let counts = RuleCounts::new(
                    n_eval,
                    class_counts.count(rule.class),
                    rule.coverage,
                    rule.support,
                )
                .unwrap();
                assert_eq!(
                    rule.p_value.to_bits(),
                    fisher.p_value(&counts, Tail::TwoSided).to_bits()
                );
            }
        }
    }

    #[test]
    fn one_screen_answers_every_alpha_and_metric() {
        let p = paired(0.9, 10);
        let mining = RuleMiningConfig::new(40);
        let screen = HoldoutScreen::build(&p.exploratory, &p.evaluation, &mining);
        for metric in [ErrorMetric::Fwer, ErrorMetric::Fdr] {
            for alpha in [1e-6, 0.01, 0.05, 0.5, 1.0] {
                let decided = screen.decide(metric, alpha, "HD");
                let candidates = screen.exploratory_p.iter().filter(|&&q| q <= alpha).count();
                assert_eq!(decided.n_tests, candidates);
                assert_eq!(decided.rules.len(), candidates);
                assert_eq!(decided.significant.len(), candidates);
            }
        }
    }

    #[test]
    fn empty_evaluation_dataset_scores_every_rule_p_one() {
        let p = paired(0.9, 11);
        let (empty, _) = p.evaluation.split_at(0);
        let screen = HoldoutScreen::build(&p.exploratory, &empty, &RuleMiningConfig::new(40));
        assert!(!screen.is_empty());
        for rule in &screen.rules {
            assert_eq!((rule.coverage, rule.support, rule.p_value), (0, 0, 1.0));
        }
    }

    #[test]
    fn empty_candidate_set_yields_empty_result() {
        // Random data with a very strict exploratory screen: no candidates.
        let params = SyntheticParams::default()
            .with_records(200)
            .with_attributes(8);
        let (d, _) = SyntheticGenerator::new(params).unwrap().generate(6);
        let (explore, eval) = d.split_at(100);
        let r = holdout_from_parts(
            &explore,
            &eval,
            &RuleMiningConfig::new(30),
            ErrorMetric::Fdr,
            1e-12,
            "HD",
        );
        assert_eq!(r.n_significant(), 0);
        assert!(r.rules.is_empty() || r.rules.iter().all(|x| x.p_value > 0.0));
    }
}
