//! The dynamic-programming matrix M of Eq. 3: all possible sums of r²
//! values over consecutive site ranges, with the data-reuse relocation
//! OmegaPlus applies when consecutive grid-position windows overlap.
//!
//! For window-relative sites `j < i`, entry `M(i, j)` holds
//! `Σ r²(a, b)` over all pairs `j ≤ b < a ≤ i`, built by the recurrence
//!
//! ```text
//! M(i, i)   = 0
//! M(i, i-1) = r²(i, i-1)
//! M(i, j)   = M(i, j+1) + M(i-1, j) − M(i-1, j+1) + r²(i, j)
//! ```
//!
//! Storage is column-major over the strict lower triangle, the layout the
//! paper's FPGA accelerator assumes ("we store matrix M in a column-major
//! order since we need two columns per iteration of i", §V).

use std::ops::Range;
use std::time::{Duration, Instant};

use omega_genome::Alignment;
use omega_ld::r2_row;

/// Cost counters for one matrix build/advance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixBuildStats {
    /// r² pairs computed fresh for this window.
    pub new_pairs: u64,
    /// Matrix cells relocated from the previous window (pairs *not*
    /// recomputed thanks to the data-reuse optimization).
    pub reused_cells: u64,
}

/// What moving the matrix window from sites `prev` to sites `next`
/// (absolute alignment indices) costs: the overlap
/// [`RegionMatrix::advance`] relocates, and the exact stats of the move —
/// `C(overlap, 2)` cells reused, the window's other `C(n, 2) − reused`
/// pairs computed fresh. Overlap only exists when `next` starts inside
/// `prev`, at or after its start (grid positions move right). Pure, so
/// the cluster seam planner and the `backend=auto` predictor count
/// exactly what a scan's matrix walk does.
pub fn window_step(prev: Range<usize>, next: Range<usize>) -> (usize, MatrixBuildStats) {
    let overlap = if next.start >= prev.start && next.start < prev.end {
        prev.end.min(next.end) - next.start
    } else {
        0
    };
    let reused_cells = tri_len(overlap) as u64;
    (
        overlap,
        MatrixBuildStats { new_pairs: tri_len(next.len()) as u64 - reused_cells, reused_cells },
    )
}

/// `C(n, 2)`: the site pairs (strict-lower-triangle cells) of `n` sites.
#[inline]
fn tri_len(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Wall-clock split of one matrix build, separating the sample-count-bound
/// LD part from the SNP-count-bound DP part.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatrixBuildTiming {
    /// Time spent computing r² values (popcount-bound, scales with sample
    /// count) — the paper's "LD computation".
    pub r2: Duration,
    /// Time spent in the Eq. 3 recurrence and relocation.
    pub dp: Duration,
}

/// The matrix M over the current window of sites `lo..lo+n` (absolute
/// alignment indices).
#[derive(Debug, Clone)]
pub struct RegionMatrix {
    lo: usize,
    n: usize,
    /// Column-major strict lower triangle: column `j` holds rows
    /// `j+1..n`, so its length is `n-1-j`.
    data: Vec<f32>,
    /// Spare buffer ping-ponged with `data` during relocation.
    spare: Vec<f32>,
    /// Scratch row of r² values reused across DP row passes.
    r2_scratch: Vec<f32>,
}

impl Default for RegionMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl RegionMatrix {
    /// An empty matrix (no window).
    pub fn new() -> Self {
        RegionMatrix { lo: 0, n: 0, data: Vec::new(), spare: Vec::new(), r2_scratch: Vec::new() }
    }

    /// Absolute index of the first window site.
    #[inline]
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// Window width in sites.
    #[inline]
    pub fn width(&self) -> usize {
        self.n
    }

    #[inline]
    fn offset(n: usize, j: usize) -> usize {
        j * (n - 1) - j * j.saturating_sub(1) / 2
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(j < i && i < self.n);
        Self::offset(self.n, j) + (i - j - 1)
    }

    /// Sum of r² over all pairs within the window-relative inclusive site
    /// range `[j ..= i]`; 0 when the range has fewer than two sites.
    #[inline]
    pub fn sum(&self, j: usize, i: usize) -> f32 {
        if i <= j {
            return 0.0;
        }
        self.data[self.idx(i, j)]
    }

    /// Column `j` of the strict lower triangle: entries
    /// `M(j+1, j), M(j+2, j), ..., M(n-1, j)` — the FPGA fetch unit reads
    /// these slices directly.
    pub fn column(&self, j: usize) -> &[f32] {
        let off = Self::offset(self.n, j);
        &self.data[off..off + (self.n - 1 - j)]
    }

    /// The contiguous run `M(i_lo, j), M(i_lo+1, j), ..., M(i_hi, j)` of
    /// column `j` — entry `p` of the returned slice is `sum(j, i_lo + p)`.
    ///
    /// Because storage is column-major, every per-left-border `TS` row and
    /// the shared `RS` table of the ω kernel are exactly such runs; the
    /// vectorized kernel streams them without any per-cell `idx()`
    /// arithmetic (the layout the paper's FPGA fetch unit assumes, §V).
    #[inline]
    pub fn column_span(&self, j: usize, i_lo: usize, i_hi: usize) -> &[f32] {
        debug_assert!(j < i_lo && i_lo <= i_hi && i_hi < self.n);
        let off = Self::offset(self.n, j) + (i_lo - j - 1);
        &self.data[off..off + (i_hi - i_lo + 1)]
    }

    /// Moves the window to absolute sites `lo..hi`, reusing every cell
    /// whose site pair is shared with the current window and computing
    /// fresh r² values (plus the DP recurrence) for the remainder.
    /// Returns the reuse statistics; timing is accumulated into `timing`.
    pub fn advance(
        &mut self,
        alignment: &Alignment,
        lo: usize,
        hi: usize,
        timing: &mut MatrixBuildTiming,
    ) -> MatrixBuildStats {
        assert!(hi >= lo && hi <= alignment.n_sites(), "window out of bounds");
        let _span = omega_obs::span!("matrix.advance");
        let n = hi - lo;
        let old_lo = self.lo;
        let (overlap, stats) = window_step(old_lo..old_lo + self.n, lo..hi);

        let dp_start = Instant::now();
        self.spare.clear();
        self.spare.resize(tri_len(n), 0.0);
        if overlap >= 2 {
            let s = lo - old_lo;
            for jn in 0..overlap - 1 {
                let jo = jn + s;
                let keep = overlap - 1 - jn; // rows jn+1..overlap
                let src = Self::offset(self.n, jo);
                let dst = Self::offset(n, jn);
                self.spare[dst..dst + keep].copy_from_slice(&self.data[src..src + keep]);
            }
        }
        std::mem::swap(&mut self.data, &mut self.spare);
        self.lo = lo;
        self.n = n;
        timing.dp += dp_start.elapsed();

        // Fresh rows: every window site at or past the overlap.
        self.r2_scratch.resize(n.saturating_sub(1).max(1), 0.0);
        for i in overlap.max(1)..n {
            let r2_start = Instant::now();
            let row_site = &alignment.sites()[lo + i];
            let (scratch, _) = self.r2_scratch.split_at_mut(i);
            r2_row(row_site, &alignment.sites()[lo..lo + i], scratch);
            timing.r2 += r2_start.elapsed();

            let dp_start = Instant::now();
            self.dp_row_pass(i);
            timing.dp += dp_start.elapsed();
        }
        omega_obs::counter!("matrix.r2_pairs").add(stats.new_pairs);
        omega_obs::counter!("matrix.cells_reused").add(stats.reused_cells);
        stats
    }

    /// Applies the Eq. 3 recurrence along row `i`, consuming the r² values
    /// already staged in `r2_scratch[..i]`.
    fn dp_row_pass(&mut self, i: usize) {
        let r2 = &self.r2_scratch[..i];
        // M(i, i-1) = r²(i, i-1).
        let idx_last = self.idx(i, i - 1);
        self.data[idx_last] = r2[i - 1];
        for j in (0..i - 1).rev() {
            let m_i_j1 = self.data[self.idx(i, j + 1)];
            let m_im1_j = self.data[self.idx(i - 1, j)];
            let m_im1_j1 = if j + 1 == i - 1 { 0.0 } else { self.data[self.idx(i - 1, j + 1)] };
            let v = m_i_j1 + m_im1_j - m_im1_j1 + r2[j];
            let idx = self.idx(i, j);
            self.data[idx] = v;
        }
    }

    /// Builds the window from scratch, without attempting reuse (used by
    /// tests and by the non-overlapping fallback).
    pub fn rebuild(
        &mut self,
        alignment: &Alignment,
        lo: usize,
        hi: usize,
        timing: &mut MatrixBuildTiming,
    ) -> MatrixBuildStats {
        self.lo = 0;
        self.n = 0;
        self.data.clear();
        self.advance(alignment, lo, hi, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_genome::{Alignment, SnpVec};
    use omega_ld::r2_sites;
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
        let positions: Vec<u64> = (0..n_sites as u64).map(|i| 10 * (i + 1)).collect();
        Alignment::new(positions, sites, 10 * n_sites as u64 + 10).unwrap()
    }

    /// O(range²) reference: direct double sum of r² in f64.
    fn naive_sum(a: &Alignment, lo: usize, j: usize, i: usize) -> f64 {
        let mut total = 0.0f64;
        for b in j..=i {
            for c in b + 1..=i {
                total += r2_sites(a.site(lo + c), a.site(lo + b)) as f64;
            }
        }
        total
    }

    fn assert_matches_naive(m: &RegionMatrix, a: &Alignment) {
        let n = m.width();
        for j in 0..n {
            for i in j + 1..n {
                let got = m.sum(j, i) as f64;
                let want = naive_sum(a, m.lo(), j, i);
                let tol = 1e-4 * want.abs().max(1.0);
                assert!((got - want).abs() <= tol, "M({i},{j}) = {got}, naive = {want}");
            }
        }
    }

    #[test]
    fn full_build_matches_naive_sums() {
        let a = random_alignment(12, 30, 1);
        let mut m = RegionMatrix::new();
        let mut t = MatrixBuildTiming::default();
        let stats = m.rebuild(&a, 0, 12, &mut t);
        assert_eq!(stats.new_pairs, 66);
        assert_eq!(stats.reused_cells, 0);
        assert_matches_naive(&m, &a);
    }

    #[test]
    fn partial_window_build() {
        let a = random_alignment(20, 30, 2);
        let mut m = RegionMatrix::new();
        let mut t = MatrixBuildTiming::default();
        m.rebuild(&a, 5, 14, &mut t);
        assert_eq!(m.lo(), 5);
        assert_eq!(m.width(), 9);
        assert_matches_naive(&m, &a);
    }

    #[test]
    fn advance_with_overlap_matches_rebuild() {
        let a = random_alignment(30, 25, 3);
        let mut t = MatrixBuildTiming::default();

        let mut reused = RegionMatrix::new();
        reused.rebuild(&a, 0, 15, &mut t);
        let stats = reused.advance(&a, 5, 22, &mut t);
        assert!(stats.reused_cells > 0, "expected relocation to fire");

        let mut fresh = RegionMatrix::new();
        fresh.rebuild(&a, 5, 22, &mut t);

        for j in 0..reused.width() {
            for i in j + 1..reused.width() {
                let d = (reused.sum(j, i) - fresh.sum(j, i)).abs();
                assert!(d <= 1e-3 * fresh.sum(j, i).abs().max(1.0), "cell ({i},{j})");
            }
        }
        assert_matches_naive(&reused, &a);
    }

    #[test]
    fn advance_counts_reuse_exactly() {
        let a = random_alignment(10, 20, 4);
        let mut t = MatrixBuildTiming::default();
        let mut m = RegionMatrix::new();
        m.rebuild(&a, 0, 6, &mut t);
        // New window 2..8: overlap sites 2..6 (4 sites => C(4,2)=6 cells
        // reused), new rows 6,7 => 4+... new pairs = sites 6,7 against all
        // previous in window: row sizes 4 and 5 => 9 pairs.
        let stats = m.advance(&a, 2, 8, &mut t);
        assert_eq!(stats.reused_cells, 6);
        assert_eq!(stats.new_pairs, 9);
        assert_matches_naive(&m, &a);
    }

    #[test]
    fn disjoint_advance_falls_back_to_rebuild() {
        let a = random_alignment(30, 20, 5);
        let mut t = MatrixBuildTiming::default();
        let mut m = RegionMatrix::new();
        m.rebuild(&a, 0, 8, &mut t);
        let stats = m.advance(&a, 15, 25, &mut t);
        assert_eq!(stats.reused_cells, 0);
        assert_eq!(stats.new_pairs, 45);
        assert_matches_naive(&m, &a);
    }

    #[test]
    fn repeated_advances_stay_consistent() {
        let a = random_alignment(40, 16, 6);
        let mut t = MatrixBuildTiming::default();
        let mut m = RegionMatrix::new();
        m.rebuild(&a, 0, 10, &mut t);
        for step in 1..10 {
            let lo = step * 3;
            let hi = (lo + 10).min(40);
            m.advance(&a, lo, hi, &mut t);
        }
        assert_matches_naive(&m, &a);
    }

    #[test]
    fn column_slices_match_entries() {
        let a = random_alignment(8, 20, 7);
        let mut t = MatrixBuildTiming::default();
        let mut m = RegionMatrix::new();
        m.rebuild(&a, 0, 8, &mut t);
        for j in 0..8 {
            let col = m.column(j);
            assert_eq!(col.len(), 7 - j);
            for (k, &v) in col.iter().enumerate() {
                assert_eq!(v, m.sum(j, j + 1 + k));
            }
        }
    }

    #[test]
    fn column_spans_match_entries() {
        let a = random_alignment(9, 20, 11);
        let mut t = MatrixBuildTiming::default();
        let mut m = RegionMatrix::new();
        m.rebuild(&a, 0, 9, &mut t);
        for j in 0..8 {
            for i_lo in j + 1..9 {
                for i_hi in i_lo..9 {
                    let span = m.column_span(j, i_lo, i_hi);
                    assert_eq!(span.len(), i_hi - i_lo + 1);
                    for (p, &v) in span.iter().enumerate() {
                        assert_eq!(v, m.sum(j, i_lo + p), "col {j} span [{i_lo},{i_hi}] at {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn sum_of_trivial_ranges_is_zero() {
        let a = random_alignment(5, 20, 8);
        let mut t = MatrixBuildTiming::default();
        let mut m = RegionMatrix::new();
        m.rebuild(&a, 0, 5, &mut t);
        for i in 0..5 {
            assert_eq!(m.sum(i, i), 0.0);
        }
    }

    #[test]
    fn empty_and_single_site_windows() {
        let a = random_alignment(5, 20, 9);
        let mut t = MatrixBuildTiming::default();
        let mut m = RegionMatrix::new();
        let stats = m.rebuild(&a, 2, 2, &mut t);
        assert_eq!(m.width(), 0);
        assert_eq!(stats.new_pairs, 0);
        let stats = m.rebuild(&a, 2, 3, &mut t);
        assert_eq!(m.width(), 1);
        assert_eq!(stats.new_pairs, 0);
    }

    #[test]
    fn shrinking_left_edge_triggers_rebuild() {
        // Moving the window left (never happens in a scan, but the API
        // tolerates it) must not reuse stale cells.
        let a = random_alignment(20, 16, 10);
        let mut t = MatrixBuildTiming::default();
        let mut m = RegionMatrix::new();
        m.rebuild(&a, 5, 15, &mut t);
        let stats = m.advance(&a, 2, 12, &mut t);
        assert_eq!(stats.reused_cells, 0);
        assert_matches_naive(&m, &a);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use omega_genome::{Alignment, SnpVec};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn alignment_from_seed(n_sites: usize, seed: u64) -> Alignment {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites: Vec<SnpVec> = (0..n_sites)
            .map(|_| {
                let calls: Vec<u8> = (0..24).map(|_| rng.gen_range(0..2)).collect();
                SnpVec::from_bits(&calls)
            })
            .collect();
        let positions: Vec<u64> = (0..n_sites as u64).map(|i| 10 * (i + 1)).collect();
        Alignment::new(positions, sites, 10 * n_sites as u64 + 10).unwrap()
    }

    /// Site pairs `(b, a)`, `b < a`, of the absolute window `w`.
    fn pair_set(w: std::ops::Range<usize>) -> std::collections::HashSet<(usize, usize)> {
        w.clone().flat_map(|a| (w.start..a).map(move |b| (b, a))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // Every move of a random window walk — overlapping, disjoint,
        // left-moving, empty and one-site windows — reports exactly the
        // brute-force pair sets: the previous window's pairs stay
        // resident unless the window moved left, resident pairs the new
        // window still covers are reused, and the rest are fresh.
        #[test]
        fn window_walk_stats_equal_pair_set_difference(
            seed in 0u64..1000,
            walk in proptest::collection::vec((0usize..24, 0usize..11), 1..12),
        ) {
            let a = alignment_from_seed(24, seed);
            let mut t = MatrixBuildTiming::default();
            let mut m = RegionMatrix::new();
            let mut prev = 0..0;
            for (lo, len) in walk {
                let next = lo..(lo + len).min(24);
                let resident =
                    if next.start >= prev.start { pair_set(prev.clone()) } else { Default::default() };
                let wanted = pair_set(next.clone());
                let reused = wanted.intersection(&resident).count() as u64;
                let fresh = wanted.difference(&resident).count() as u64;

                let stats = m.advance(&a, next.start, next.end, &mut t);
                prop_assert_eq!(stats, MatrixBuildStats { new_pairs: fresh, reused_cells: reused });
                prop_assert_eq!(window_step(prev.clone(), next.clone()).1, stats);
                prop_assert_eq!((m.lo(), m.width()), (next.start, next.len()));
                prev = next;
            }
        }

        #[test]
        fn relocation_equals_recompute(
            seed in 0u64..1000,
            lo1 in 0usize..8,
            w1 in 2usize..12,
            shift in 0usize..10,
            w2 in 2usize..12,
        ) {
            let a = alignment_from_seed(24, seed);
            let lo2 = lo1 + shift;
            let hi1 = (lo1 + w1).min(24);
            let hi2 = (lo2 + w2).min(24);
            prop_assume!(hi2 > lo2 && hi1 > lo1);

            let mut t = MatrixBuildTiming::default();
            let mut m = RegionMatrix::new();
            m.rebuild(&a, lo1, hi1, &mut t);
            m.advance(&a, lo2, hi2, &mut t);

            let mut fresh = RegionMatrix::new();
            fresh.rebuild(&a, lo2, hi2, &mut t);

            for j in 0..m.width() {
                for i in j + 1..m.width() {
                    let d = (m.sum(j, i) - fresh.sum(j, i)).abs();
                    prop_assert!(d <= 1e-3 * fresh.sum(j, i).abs().max(1.0));
                }
            }
        }
    }
}
