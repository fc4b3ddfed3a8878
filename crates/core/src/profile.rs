//! Timing and workload accounting for a scan.
//!
//! The paper's evaluation hinges on how total runtime splits between "LD
//! computation" (building matrix M: r² popcounts plus the Eq. 3 DP) and
//! "ω computation" (the nested maximisation loop); §I reports the two
//! collectively consume over 98 % of OmegaPlus runtime. These structures
//! capture that breakdown for every backend.

use std::time::Duration;

/// Wall-clock breakdown of one scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Time in r² computation (popcount kernels; scales with samples).
    pub r2: Duration,
    /// Time in the Eq. 3 recurrence (and matrix ring growth, if any).
    pub dp: Duration,
    /// Time in the ω maximisation loop (scales with SNP density).
    pub omega: Duration,
    /// End-to-end wall time of the scan.
    pub total: Duration,
}

impl Timings {
    /// The paper's "LD computation" bucket: everything spent building M.
    pub fn ld(&self) -> Duration {
        self.r2 + self.dp
    }

    /// Runtime not attributed to LD or ω (I/O, planning, reporting).
    pub fn other(&self) -> Duration {
        self.total.saturating_sub(self.ld() + self.omega)
    }

    /// Fraction of total runtime spent in LD + ω (the §I ≥98 % claim).
    pub fn kernel_fraction(&self) -> f64 {
        if self.total.is_zero() {
            return 0.0;
        }
        (self.ld() + self.omega).as_secs_f64() / self.total.as_secs_f64()
    }

    /// Fraction of the LD+ω kernel time spent on LD.
    pub fn ld_share(&self) -> f64 {
        // Durations are non-negative, so a strict sign test is a
        // total-order-safe zero check here.
        let k = (self.ld() + self.omega).as_secs_f64();
        if k > 0.0 {
            self.ld().as_secs_f64() / k
        } else {
            0.0
        }
    }

    /// Element-wise accumulation (for merging per-thread timings).
    pub fn accumulate(&mut self, other: &Timings) {
        self.r2 += other.r2;
        self.dp += other.dp;
        self.omega += other.omega;
        self.total += other.total;
    }

    /// Merges timings from work that ran concurrently with this one: CPU
    /// buckets (`r2`, `dp`, `omega`) add up across threads, but wall-clock
    /// `total` is the maximum, not the sum — summing it would report a
    /// 4-thread scan as taking 4× its real duration.
    pub fn merge_concurrent(&mut self, other: &Timings) {
        self.r2 += other.r2;
        self.dp += other.dp;
        self.omega += other.omega;
        self.total = self.total.max(other.total);
    }
}

/// Workload counters of one scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Grid positions planned.
    pub positions: usize,
    /// Positions with at least one scorable combination.
    pub scorable_positions: usize,
    /// ω scores evaluated (the unit of the paper's Gω/s throughput).
    pub omega_evaluations: u64,
    /// Fresh r² pairs computed (the unit of LD throughput).
    pub r2_pairs: u64,
    /// Matrix cells reused in place instead of recomputed (data-reuse
    /// savings).
    pub cells_reused: u64,
    /// Parallel-scan runs a worker pulled beyond its first (work stealing).
    pub steals: u64,
    /// Matrix cells whose reuse was forfeited because the scheduler
    /// cut the grid between two overlapping windows (each run starts with
    /// a fresh matrix). `cells_reused + reuse_lost_at_seams` equals the
    /// sequential scan's `cells_reused`.
    pub reuse_lost_at_seams: u64,
}

impl ScanStats {
    /// Element-wise accumulation (for merging per-thread stats).
    pub fn accumulate(&mut self, other: &ScanStats) {
        self.positions += other.positions;
        self.scorable_positions += other.scorable_positions;
        self.omega_evaluations += other.omega_evaluations;
        self.r2_pairs += other.r2_pairs;
        self.cells_reused += other.cells_reused;
        self.steals += other.steals;
        self.reuse_lost_at_seams += other.reuse_lost_at_seams;
    }
}

/// ω-score throughput in scores/second given evaluations and elapsed time.
pub fn throughput(evaluations: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    evaluations as f64 / elapsed.as_secs_f64()
}

/// Measured CPU kernel unit costs — the profile record behind
/// `backend=auto` scheduling.
///
/// `bench_omega` measures both rates on this host and writes them as the
/// `"calibration"` object of `BENCH_omega.json`; the cost predictor in
/// `omega-accel` multiplies them by a job's workload shape (ω score and
/// fresh-r²-pair counts) to predict CPU seconds, next to the gpu-sim /
/// fpga-sim cost models' modelled seconds. Hosts without a measured
/// record fall back to conservative single-core defaults, which biases
/// `auto` toward the accelerators — the safe direction when the CPU is
/// unprofiled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Measured CPU ω-kernel cost, in nanoseconds per evaluated score.
    pub cpu_omega_ns_per_score: f64,
    /// Measured CPU LD cost (r² popcounts plus the Eq. 3 DP recurrence),
    /// in nanoseconds per fresh pair.
    pub cpu_ld_ns_per_pair: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration { cpu_omega_ns_per_score: 5.0, cpu_ld_ns_per_pair: 60.0 }
    }
}

impl Calibration {
    /// Environment variable naming an alternative calibration file.
    pub const ENV_PATH: &'static str = "OMEGA_CALIBRATION";

    /// Default calibration file name, as written by `bench_omega`.
    pub const DEFAULT_PATH: &'static str = "BENCH_omega.json";

    /// Parses the `"calibration"` object out of a `BENCH_omega.json`
    /// document. `None` when the document is unparseable, the object is
    /// absent (pre-calibration baselines), or a rate is non-finite or
    /// non-positive.
    pub fn from_bench_json(text: &str) -> Option<Calibration> {
        let v = omega_obs::parse_json(text).ok()?;
        let c = v.get("calibration")?;
        let omega_ns = c.get("cpu_omega_ns_per_score")?.as_f64()?;
        let ld_ns = c.get("cpu_ld_ns_per_pair")?.as_f64()?;
        if !omega_ns.is_finite() || !ld_ns.is_finite() || omega_ns <= 0.0 || ld_ns <= 0.0 {
            return None;
        }
        Some(Calibration { cpu_omega_ns_per_score: omega_ns, cpu_ld_ns_per_pair: ld_ns })
    }

    /// Reads a calibration record from a `BENCH_omega.json` file.
    pub fn load(path: &std::path::Path) -> Option<Calibration> {
        Self::from_bench_json(&std::fs::read_to_string(path).ok()?)
    }

    /// The process-default calibration: `$OMEGA_CALIBRATION` if set,
    /// else `BENCH_omega.json` in the working directory, else the
    /// built-in defaults.
    pub fn load_default() -> Calibration {
        let path = std::env::var(Self::ENV_PATH).unwrap_or_else(|_| Self::DEFAULT_PATH.to_string());
        Self::load(std::path::Path::new(&path)).unwrap_or_default()
    }

    /// Predicted CPU seconds for a workload of `omega_scores` ω
    /// evaluations and `r2_pairs` fresh LD pairs.
    pub fn cpu_seconds(&self, omega_scores: u64, r2_pairs: u64) -> f64 {
        (omega_scores as f64 * self.cpu_omega_ns_per_score
            + r2_pairs as f64 * self.cpu_ld_ns_per_pair)
            * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn buckets_sum_correctly() {
        let timings = Timings { r2: t(30), dp: t(10), omega: t(50), total: t(100) };
        assert_eq!(timings.ld(), t(40));
        assert_eq!(timings.other(), t(10));
        assert!((timings.kernel_fraction() - 0.9).abs() < 1e-9);
        assert!((timings.ld_share() - 40.0 / 90.0).abs() < 1e-9);
    }

    #[test]
    fn other_saturates() {
        let timings = Timings { r2: t(80), dp: t(40), omega: t(50), total: t(100) };
        assert_eq!(timings.other(), Duration::ZERO);
    }

    #[test]
    fn zero_total_is_safe() {
        let timings = Timings::default();
        assert_eq!(timings.kernel_fraction(), 0.0);
        assert_eq!(timings.ld_share(), 0.0);
    }

    #[test]
    fn accumulate_merges() {
        let mut a = Timings { r2: t(1), dp: t(2), omega: t(3), total: t(6) };
        a.accumulate(&Timings { r2: t(10), dp: t(20), omega: t(30), total: t(60) });
        assert_eq!(a.r2, t(11));
        assert_eq!(a.total, t(66));

        let mut s = ScanStats {
            positions: 1,
            scorable_positions: 1,
            omega_evaluations: 5,
            r2_pairs: 7,
            cells_reused: 2,
            steals: 1,
            reuse_lost_at_seams: 4,
        };
        s.accumulate(&ScanStats {
            positions: 2,
            scorable_positions: 1,
            omega_evaluations: 10,
            r2_pairs: 3,
            cells_reused: 8,
            steals: 2,
            reuse_lost_at_seams: 6,
        });
        assert_eq!(s.positions, 3);
        assert_eq!(s.omega_evaluations, 15);
        assert_eq!(s.cells_reused, 10);
        assert_eq!(s.steals, 3);
        assert_eq!(s.reuse_lost_at_seams, 10);
    }

    #[test]
    fn merge_concurrent_maxes_wall_time() {
        let mut a = Timings { r2: t(1), dp: t(2), omega: t(3), total: t(50) };
        a.merge_concurrent(&Timings { r2: t(10), dp: t(20), omega: t(30), total: t(40) });
        assert_eq!(a.r2, t(11));
        assert_eq!(a.dp, t(22));
        assert_eq!(a.omega, t(33));
        assert_eq!(a.total, t(50), "wall time is the max of concurrent runs");

        let mut b = Timings { total: t(10), ..Timings::default() };
        b.merge_concurrent(&Timings { total: t(25), ..Timings::default() });
        assert_eq!(b.total, t(25));
    }

    #[test]
    fn throughput_computation() {
        assert_eq!(throughput(1000, Duration::from_secs(2)), 500.0);
        assert_eq!(throughput(1000, Duration::ZERO), 0.0);
    }

    #[test]
    fn calibration_parses_bench_json() {
        let text = r#"{
            "bench": "omega_kernel_vs_scalar",
            "calibration": {"cpu_omega_ns_per_score": 1.25, "cpu_ld_ns_per_pair": 48.5}
        }"#;
        let c = Calibration::from_bench_json(text).unwrap();
        assert!((c.cpu_omega_ns_per_score - 1.25).abs() < 1e-12);
        assert!((c.cpu_ld_ns_per_pair - 48.5).abs() < 1e-12);
        // 1e9 scores at 1.25 ns plus 1e6 pairs at 48.5 ns.
        let secs = c.cpu_seconds(1_000_000_000, 1_000_000);
        assert!((secs - (1.25 + 0.0485)).abs() < 1e-9);
    }

    #[test]
    fn calibration_rejects_bad_records() {
        assert_eq!(Calibration::from_bench_json("not json"), None);
        assert_eq!(Calibration::from_bench_json("{}"), None, "pre-calibration baseline");
        assert_eq!(
            Calibration::from_bench_json(
                r#"{"calibration": {"cpu_omega_ns_per_score": 0.0, "cpu_ld_ns_per_pair": 1.0}}"#
            ),
            None,
            "non-positive rate"
        );
        assert_eq!(
            Calibration::from_bench_json(r#"{"calibration": {"cpu_omega_ns_per_score": 1.0}}"#),
            None,
            "missing member"
        );
    }
}
