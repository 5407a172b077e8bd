//! Order statistics and the failure tally every workload reports.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A block of set-up samples lasts this long ...
const SETUP_BLOCK: Duration = Duration::from_millis(100);
/// ... and takes at least this many.
const SETUP_BLOCK_SAMPLES: usize = 5;

/// Times `setup` repeatedly for one block, [`SETUP_BLOCK`] long and at
/// least [`SETUP_BLOCK_SAMPLES`] samples, and appends the samples to
/// `samples`, in seconds.  Runs take blocks between their repeats: on a
/// shared machine set-up speed drifts by tens of percent within seconds,
/// so a median over the whole run repeats where one over its first
/// half-second does not.
pub fn time_setup<T>(samples: &mut Vec<f64>, mut setup: impl FnMut() -> T) {
    let started = Instant::now();
    let mut taken = 0;
    while taken < SETUP_BLOCK_SAMPLES || started.elapsed() < SETUP_BLOCK {
        let at = Instant::now();
        black_box(setup());
        samples.push(at.elapsed().as_secs_f64());
        taken += 1;
    }
}

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The percentile ladder, in basis points, from which a report picks the
/// highest one with enough samples beyond it.
const LADDER_BP: [u64; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The 1-based nearest rank of percentile `bp` (basis points) among `n`
/// samples: the smallest rank covering `bp / 10000` of them.
fn nearest_rank(n: usize, bp: u64) -> usize {
    ((bp as usize * n).div_ceil(10_000)).max(1)
}

/// Percentile `bp` (basis points, 5000 = median) of `sorted` by nearest
/// rank; `NaN` for an empty slice.
pub fn percentile_bp(sorted: &[f64], bp: u64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), bp).min(sorted.len()) - 1]
}

/// The median of `values`: the middle sample, or the mean of the two
/// middle samples of an even count; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of the ladder (p99.99, p99.9, p99, p90, p50)
/// that leaves at least [`MIN_TAIL_SAMPLES`] of `n` samples beyond it, in
/// basis points; `None` when not even the median does.
pub fn highest_tail_bp(n: usize) -> Option<u64> {
    LADDER_BP
        .into_iter()
        .find(|&bp| n - nearest_rank(n, bp).min(n) >= MIN_TAIL_SAMPLES)
}

/// Renders a basis-point percentile as its usual name (`p99.9`).
pub fn percentile_name(bp: u64) -> String {
    let whole = bp / 100;
    let frac = bp % 100;
    match frac {
        0 => format!("p{whole}"),
        f if f % 10 == 0 => format!("p{whole}.{}", f / 10),
        f => format!("p{whole}.{f:02}"),
    }
}

/// A latency sample set summarised the way the report prints it: median,
/// the highest well-populated tail percentile, and the sample count.
pub fn describe_ms(samples_ms: &[f64]) -> String {
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut out = format!("p50 {:.3} ms", percentile_bp(&sorted, 5_000));
    if let Some(bp) = highest_tail_bp(sorted.len()) {
        if bp > 5_000 {
            out += &format!(
                " | {} {:.3} ms",
                percentile_name(bp),
                percentile_bp(&sorted, bp)
            );
        }
    }
    out + &format!(" (n = {})", sorted.len())
}

/// Operations attempted and failed in one run, plus the run-level checks
/// (determinism, pinned fingerprints, snapshot equality).  A failed
/// run-level check makes every operation of the run count as failed.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
}

impl Tally {
    /// Records `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
    }

    /// Records a run-level check.
    pub fn check(&mut self, name: &str, passed: bool) {
        if !passed {
            self.failed_checks.push(name.to_string());
        }
    }

    /// Folds in another part of the same run.
    pub fn merge(&mut self, other: &Tally) {
        self.add(other.attempted, other.failed);
        self.failed_checks.extend_from_slice(&other.failed_checks);
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations counted as failed.
    pub fn failed(&self) -> u64 {
        if self.failed_checks.is_empty() {
            self.failed
        } else {
            self.attempted
        }
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// The names of the run-level checks that failed.
    pub fn failed_checks(&self) -> &[String] {
        &self.failed_checks
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_tail_bp(5), None);
        assert_eq!(highest_tail_bp(19), None);
        assert_eq!(highest_tail_bp(20), Some(5_000));
        assert_eq!(highest_tail_bp(99), Some(5_000));
        assert_eq!(highest_tail_bp(100), Some(9_000));
        assert_eq!(highest_tail_bp(999), Some(9_000));
        assert_eq!(highest_tail_bp(1_000), Some(9_900));
        assert_eq!(highest_tail_bp(9_999), Some(9_900));
        assert_eq!(highest_tail_bp(10_000), Some(9_990));
        assert_eq!(highest_tail_bp(100_000), Some(9_999));
        for n in 1..3_000 {
            if let Some(bp) = highest_tail_bp(n) {
                assert!(n - nearest_rank(n, bp) >= MIN_TAIL_SAMPLES, "n = {n}");
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_bp(&sorted, 5_000), 50.0);
        assert_eq!(percentile_bp(&sorted, 9_900), 99.0);
        assert_eq!(percentile_bp(&sorted, 10_000), 100.0);
        assert_eq!(percentile_bp(&[7.0], 9_900), 7.0);
        assert!(percentile_bp(&[], 5_000).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile_name(9_990), "p99.9");
        assert_eq!(percentile_name(9_999), "p99.99");
        assert_eq!(percentile_name(5_000), "p50");
    }

    #[test]
    fn failed_fraction_counts_ops_and_run_level_checks() {
        let mut tally = Tally::default();
        assert!(!tally.correct(), "an empty run proves nothing");
        tally.add(1_000, 0);
        tally.check("fingerprint repeats", true);
        assert!(tally.correct());
        assert_eq!(tally.failed_frac(), 0.0);

        tally.add(1_000, 5);
        assert_eq!((tally.attempted(), tally.failed()), (2_000, 5));
        assert_eq!(tally.failed_frac(), 0.0025);
        assert!(!tally.correct());

        // A failed run-level check fails every operation of the run.
        tally.check("pinned fingerprint", false);
        assert_eq!(tally.failed(), 2_000);
        assert_eq!(tally.failed_frac(), 1.0);
        assert_eq!(tally.failed_checks(), ["pinned fingerprint"]);
    }
}
