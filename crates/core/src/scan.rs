//! The sequential scan: grid traversal with matrix data-reuse — the CPU
//! side of the OmegaPlus workflow (Fig. 3 of the paper).

use std::time::Instant;

use omega_genome::Alignment;

use crate::grid::{BorderSet, GridPlan, PositionPlan};
use crate::kernel::{OmegaKernel, TaskView};
use crate::matrix::{MatrixBuildTiming, RegionMatrix};
use crate::params::{ParamError, ScanParams};
use crate::profile::{ScanStats, Timings};

/// Scan result at one grid position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionResult {
    /// ω position in bp.
    pub pos_bp: u64,
    /// Maximised ω statistic (0 when the position is unscorable).
    pub omega: f32,
    /// bp position of the maximising left border (0 when unscorable).
    pub left_bp: u64,
    /// bp position of the maximising right border (0 when unscorable).
    pub right_bp: u64,
    /// Combinations evaluated at this position.
    pub n_combinations: u64,
}

/// Complete result of a scan.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// One entry per grid position, ascending by bp.
    pub results: Vec<PositionResult>,
    /// Wall-clock breakdown.
    pub timings: Timings,
    /// Workload counters.
    pub stats: ScanStats,
}

impl ScanOutcome {
    /// The position with the highest ω, if any position was scorable.
    pub fn global_max(&self) -> Option<&PositionResult> {
        self.results
            .iter()
            .filter(|r| r.n_combinations > 0)
            .max_by(|a, b| a.omega.total_cmp(&b.omega))
    }
}

/// The ω scanner: validated parameters plus scan entry points.
#[derive(Debug, Clone)]
pub struct OmegaScanner {
    params: ScanParams,
}

impl OmegaScanner {
    /// Creates a scanner, validating the parameters.
    pub fn new(params: ScanParams) -> Result<Self, ParamError> {
        params.validate()?;
        Ok(OmegaScanner { params })
    }

    /// The scan parameters.
    pub fn params(&self) -> &ScanParams {
        &self.params
    }

    /// Sequential scan of the whole grid with matrix data-reuse between
    /// consecutive positions.
    pub fn scan(&self, alignment: &Alignment) -> ScanOutcome {
        let _span = omega_obs::span!("scan.sequential");
        let start = Instant::now();
        let plan = GridPlan::build(alignment, &self.params);
        let (results, mut timings, stats) =
            scan_positions(alignment, &self.params, plan.positions());
        timings.total = start.elapsed();
        omega_obs::histogram!("scan.sequential_ns").record(timings.total.as_nanos() as u64);
        ScanOutcome { results, timings, stats }
    }
}

/// Scans a contiguous run of planned positions with one shared matrix.
/// This is the unit of work that both the sequential scan and each thread
/// of the parallel scan execute.
pub(crate) fn scan_positions(
    alignment: &Alignment,
    params: &ScanParams,
    plans: &[PositionPlan],
) -> (Vec<PositionResult>, Timings, ScanStats) {
    let mut matrix = RegionMatrix::new();
    matrix.reserve(plans.iter().map(PositionPlan::width).max().unwrap_or(0));
    let mut kernel = OmegaKernel::new();
    let mut build_timing = MatrixBuildTiming::default();
    let mut timings = Timings::default();
    let mut stats = ScanStats { positions: plans.len(), ..ScanStats::default() };
    let mut results = Vec::with_capacity(plans.len());

    omega_obs::counter!("scan.positions").add(plans.len() as u64);
    for plan in plans {
        let _span = omega_obs::span!("scan.position");
        let borders = BorderSet::build(alignment, plan, params);
        let result = match borders {
            Some(b) if b.n_combinations() > 0 => {
                let mstats = matrix.advance(alignment, plan.lo, plan.hi, &mut build_timing);
                stats.r2_pairs += mstats.new_pairs;
                stats.cells_reused += mstats.reused_cells;

                let omega_start = Instant::now();
                let best = kernel
                    .run(&TaskView::new(&matrix, &b, plan))
                    // lint:allow(no-panic-lib): guarded by n_combinations() > 0 in the match arm; a None here is kernel-contract breakage worth aborting on
                    .expect("non-empty border set must yield a result");
                timings.omega += omega_start.elapsed();

                stats.scorable_positions += 1;
                stats.omega_evaluations += best.evaluated;
                omega_obs::counter!("scan.scorable_positions").inc();
                PositionResult {
                    pos_bp: plan.pos_bp,
                    omega: best.omega,
                    left_bp: alignment.position(plan.lo + best.left_border),
                    right_bp: alignment.position(plan.lo + best.right_border),
                    n_combinations: best.evaluated,
                }
            }
            _ => PositionResult {
                pos_bp: plan.pos_bp,
                omega: 0.0,
                left_bp: 0,
                right_bp: 0,
                n_combinations: 0,
            },
        };
        results.push(result);
    }
    timings.r2 = build_timing.r2;
    timings.dp = build_timing.dp;
    (results, timings, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_genome::SnpVec;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_alignment(n_sites: usize, n_samples: usize, seed: u64) -> Alignment {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites: Vec<SnpVec> = (0..n_sites)
            .map(|_| loop {
                let calls: Vec<u8> = (0..n_samples).map(|_| rng.gen_range(0..2)).collect();
                let s = SnpVec::from_bits(&calls);
                if !s.is_monomorphic() {
                    break s;
                }
            })
            .collect();
        let positions: Vec<u64> = (0..n_sites as u64).map(|i| 50 * (i + 1)).collect();
        Alignment::new(positions, sites, 50 * n_sites as u64 + 50).unwrap()
    }

    fn params(grid: usize) -> ScanParams {
        ScanParams { grid, min_win: 0, max_win: 2_000, min_snps_per_side: 2, threads: 1 }
    }

    #[test]
    fn scan_produces_one_result_per_grid_position() {
        let a = random_alignment(60, 20, 1);
        let scanner = OmegaScanner::new(params(15)).unwrap();
        let out = scanner.scan(&a);
        assert_eq!(out.results.len(), 15);
        assert_eq!(out.stats.positions, 15);
        // Positions ascending.
        assert!(out.results.windows(2).all(|w| w[0].pos_bp <= w[1].pos_bp));
    }

    #[test]
    fn interior_positions_are_scorable() {
        let a = random_alignment(60, 20, 2);
        let scanner = OmegaScanner::new(params(9)).unwrap();
        let out = scanner.scan(&a);
        // Middle grid positions have SNPs on both sides.
        let mid = &out.results[4];
        assert!(mid.n_combinations > 0);
        assert!(mid.omega > 0.0);
        assert!(mid.left_bp < mid.pos_bp && mid.pos_bp <= mid.right_bp);
    }

    #[test]
    fn edge_positions_unscorable() {
        let a = random_alignment(30, 16, 3);
        let scanner = OmegaScanner::new(params(7)).unwrap();
        let out = scanner.scan(&a);
        // The first grid position sits on the first SNP: no left pair.
        assert_eq!(out.results[0].n_combinations, 0);
        assert_eq!(out.results[0].omega, 0.0);
    }

    #[test]
    fn data_reuse_engages_on_overlapping_windows() {
        let a = random_alignment(120, 16, 4);
        let scanner = OmegaScanner::new(params(30)).unwrap();
        let out = scanner.scan(&a);
        assert!(out.stats.cells_reused > 0, "overlapping windows must reuse cells");
    }

    #[test]
    fn reuse_does_not_change_results() {
        let a = random_alignment(80, 16, 5);
        let p = params(20);
        let plan = GridPlan::build(&a, &p);
        // Reference: every position scanned with a fresh matrix.
        let mut fresh_results = Vec::new();
        for pp in plan.positions() {
            let (r, _, _) = scan_positions(&a, &p, std::slice::from_ref(pp));
            fresh_results.extend(r);
        }
        let (reused_results, _, _) = scan_positions(&a, &p, plan.positions());
        assert_eq!(fresh_results.len(), reused_results.len());
        for (f, r) in fresh_results.iter().zip(&reused_results) {
            assert_eq!(f.pos_bp, r.pos_bp);
            assert_eq!(f.n_combinations, r.n_combinations);
            let tol = 1e-3 * f.omega.abs().max(1.0);
            assert!((f.omega - r.omega).abs() <= tol, "{} vs {}", f.omega, r.omega);
        }
    }

    #[test]
    fn global_max_picks_highest_scorable() {
        let a = random_alignment(60, 20, 6);
        let scanner = OmegaScanner::new(params(11)).unwrap();
        let out = scanner.scan(&a);
        let gm = out.global_max().unwrap();
        for r in &out.results {
            if r.n_combinations > 0 {
                assert!(gm.omega >= r.omega);
            }
        }
    }

    fn outcome_from(results: Vec<PositionResult>) -> ScanOutcome {
        ScanOutcome { results, timings: Timings::default(), stats: ScanStats::default() }
    }

    fn pos(pos_bp: u64, omega: f32, n_combinations: u64) -> PositionResult {
        PositionResult { pos_bp, omega, left_bp: 0, right_bp: 0, n_combinations }
    }

    #[test]
    fn global_max_none_when_every_position_unscorable() {
        // A min_snps_per_side no window can satisfy leaves the whole grid
        // unscorable, and an all-unscorable grid has no global max.
        let a = random_alignment(30, 16, 8);
        let p = ScanParams { min_snps_per_side: 1_000, ..params(7) };
        let out = OmegaScanner::new(p).unwrap().scan(&a);
        assert_eq!(out.results.len(), 7);
        assert!(out.results.iter().all(|r| r.n_combinations == 0));
        assert!(out.global_max().is_none());
    }

    #[test]
    fn global_max_single_position_scan() {
        let a = random_alignment(40, 16, 9);
        let out = OmegaScanner::new(params(1)).unwrap().scan(&a);
        assert_eq!(out.results.len(), 1);
        match out.global_max() {
            Some(gm) => assert_eq!(gm.pos_bp, out.results[0].pos_bp),
            None => assert_eq!(out.results[0].n_combinations, 0),
        }
    }

    #[test]
    fn global_max_ignores_unscorable_even_with_higher_omega() {
        // An unscorable entry (n_combinations = 0) never wins, whatever
        // value its omega field carries.
        let out = outcome_from(vec![pos(100, 99.0, 0), pos(200, 1.5, 10)]);
        assert_eq!(out.global_max().unwrap().pos_bp, 200);
    }

    #[test]
    fn global_max_tie_breaks_to_last_position() {
        // total_cmp is a total order, so max_by keeps the last of equal
        // maxima — ties resolve to the highest-bp position,
        // deterministically.
        let out = outcome_from(vec![pos(100, 2.0, 5), pos(200, 2.0, 5), pos(300, 1.0, 5)]);
        assert_eq!(out.global_max().unwrap().pos_bp, 200);
    }

    #[test]
    fn global_max_handles_nan_omega_without_poisoning() {
        // total_cmp orders NaN above every finite value, but a NaN can only
        // appear in a scorable slot if a kernel misbehaved; the comparison
        // must stay deterministic (no panic, NaN ranks highest) rather than
        // silently depending on partial_cmp's NaN == incomparable.
        let out = outcome_from(vec![pos(100, f32::NAN, 5), pos(200, 3.0, 5), pos(300, 1.0, 5)]);
        let gm = out.global_max().unwrap();
        assert_eq!(gm.pos_bp, 100);
        assert!(gm.omega.is_nan());
        // And with no NaN present the finite maximum wins as usual.
        let out = outcome_from(vec![pos(100, 3.0, 5), pos(200, 1.0, 5)]);
        assert_eq!(out.global_max().unwrap().pos_bp, 100);
    }

    #[test]
    fn timings_are_populated() {
        let a = random_alignment(80, 20, 7);
        let scanner = OmegaScanner::new(params(20)).unwrap();
        let out = scanner.scan(&a);
        assert!(out.timings.total > std::time::Duration::ZERO);
        assert!(out.timings.ld() + out.timings.omega <= out.timings.total * 2);
        assert!(out.stats.omega_evaluations > 0);
        assert!(out.stats.r2_pairs > 0);
    }

    #[test]
    fn invalid_params_rejected_at_construction() {
        assert!(OmegaScanner::new(ScanParams::default().with_grid(0)).is_err());
    }

    #[test]
    fn empty_alignment_scans_cleanly() {
        let a = Alignment::new(vec![], vec![], 100).unwrap();
        let scanner = OmegaScanner::new(params(5)).unwrap();
        let out = scanner.scan(&a);
        assert!(out.results.is_empty());
        assert!(out.global_max().is_none());
    }
}
