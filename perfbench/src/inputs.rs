//! The generated input files and the pinned parameters behind them.
//!
//! The generator seeds are pinned, so every `--seed` does the same amount of
//! work on the same data; the run seed drives only the permutation and
//! holdout seeds and the request mix.  (D2k at generator seed 1 mines 12,808
//! rules and at seed 7 16,732, so letting the run seed pick the dataset
//! would make run-to-run spread a property of the data, not the program.)

use sigrule_data::loader::{dataset_to_baskets, dataset_to_csv};
use sigrule_synth::{BasketGenerator, BasketParams, SyntheticGenerator, SyntheticParams};
use std::path::{Path, PathBuf};

/// D2kA20R5 of the paper's Table 1: 2000 records, 20 attributes, 5
/// embedded rules, generator seed 7 (16,732 rules at min_sup 100).
pub const D2K_SEED: u64 = 7;
pub const D2K_MIN_SUP: usize = 100;
/// The `--seed` of every one-shot `sigrule correct` (the permutation and
/// holdout seed) and the seed of every refill holdout.  The holdout split
/// decides how many rules the exploratory half mines, so a run-chosen seed
/// would move the work; the run seed picks α and the refill null seeds
/// instead.
pub const ROWS_SEED: u64 = 7;
/// Permutations of every permutation null.
pub const PERMUTATIONS: usize = 1000;

/// The served basket file: 20k transactions of 15..=25 items over a
/// 1000-item zipf(0.75) catalogue with 5 planted rules, generator seed 7.
pub const BASKET_SEED: u64 = 7;
pub const BASKET_MIN_SUP: usize = 200;

pub fn basket_params() -> BasketParams {
    BasketParams::default()
        .with_transactions(20_000)
        .with_items(1000)
        .with_basket_size(15, 25)
        .with_zipf(0.75)
        .with_rules(5)
        .with_coverage(400, 600)
        .with_confidence(0.8, 0.9)
}

/// Writes the D2k CSV into `dir` and returns its path.
pub fn write_d2k(dir: &Path) -> std::io::Result<PathBuf> {
    let (dataset, _) = SyntheticGenerator::new(SyntheticParams::d2k_a20_r5())
        .expect("the paper's D2kA20R5 parameters are valid")
        .generate(D2K_SEED);
    let path = dir.join("d2k_a20_r5.csv");
    std::fs::write(&path, dataset_to_csv(&dataset))?;
    Ok(path)
}

/// Writes the basket file into `dir` and returns its path.
pub fn write_basket(dir: &Path) -> std::io::Result<PathBuf> {
    let (dataset, _) = BasketGenerator::new(basket_params())
        .expect("the basket parameters are valid")
        .generate(BASKET_SEED);
    let path = dir.join("refill.basket");
    std::fs::write(&path, dataset_to_baskets(&dataset))?;
    Ok(path)
}

/// A small deterministic generator (splitmix64) for seeds and request mixes.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix(seed ^ 0x05ee_d0fb_e4c4)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seed small enough to travel as an exact JSON number.
    pub fn seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_007
    }

    /// A significance level in [0.001, 0.1], rounded to 4 decimals.
    pub fn alpha(&mut self) -> f64 {
        let ticks = 10 + self.next_u64() % 991;
        ticks as f64 / 10_000.0
    }

    /// `n` significance levels in [0.001, 0.1], one drawn from each of `n`
    /// equal strata in ascending order, rounded to 4 decimals.  How many
    /// rules a decision passes, and so a warm request's cost, grows with α;
    /// one α per stratum gives every seed the same spread of work.
    pub fn alphas(&mut self, n: u64) -> Vec<f64> {
        (0..n)
            .map(|k| {
                let ticks = 10 + (k * 991 + self.next_u64() % 991) / n;
                ticks as f64 / 10_000.0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphas_take_one_level_per_stratum() {
        for seed in 0..50 {
            let alphas = Mix::new(seed).alphas(8);
            assert_eq!(alphas, Mix::new(seed).alphas(8));
            for (k, &alpha) in alphas.iter().enumerate() {
                let ticks = (alpha * 10_000.0).round() as u64;
                let lo = 10 + (k as u64 * 991) / 8;
                let hi = 10 + ((k as u64 + 1) * 991) / 8;
                assert!(
                    (lo..=hi).contains(&ticks),
                    "seed {seed}: α {alpha} outside stratum {k}"
                );
            }
        }
    }
}
