//! Sample statistics and failure accounting.

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile: the smallest sample with at least
/// `p`% of the samples at or below it.  0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps p = 99.9 of 10 000 samples at rank 9 990 despite
    // 99.9 having no exact binary form.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The percentiles the tail rule chooses from, highest last.
const TAIL_CANDIDATES: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile with at least ten samples beyond it, so a tail
/// figure never rests on a handful of points; `None` below 11 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= 1 && n - rank(n, p) >= 10)
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Answered, but the answer differs from the reference.
    Wrong,
    /// Answered with an error.
    Error,
    /// Refused by the server (over its connection cap).
    Refused,
    /// No answer before the deadline, or the connection broke.
    TimedOut,
}

/// Attempted and failed operations; every outcome but `Ok` is a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub wrong: u64,
    pub errors: u64,
    pub refused: u64,
    pub timed_out: u64,
}

impl Tally {
    pub fn note(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Wrong => self.wrong += 1,
            Outcome::Error => self.errors += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::TimedOut => self.timed_out += 1,
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.errors += other.errors;
        self.refused += other.refused;
        self.timed_out += other.timed_out;
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.errors + self.refused + self.timed_out
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: rank 10 of p50 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn every_non_ok_outcome_is_a_failure() {
        let mut tally = Tally::default();
        for outcome in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Wrong,
            Outcome::Error,
            Outcome::Refused,
            Outcome::TimedOut,
            Outcome::Ok,
            Outcome::Ok,
        ] {
            tally.note(outcome);
        }
        assert_eq!(tally.attempted, 8);
        assert_eq!(tally.failed(), 4);
        assert_eq!(tally.failed_frac(), 0.5);
        let mut total = Tally::default();
        total.add(&tally);
        total.note(Outcome::Refused);
        assert_eq!((total.attempted, total.refused, total.failed()), (9, 2, 5));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
