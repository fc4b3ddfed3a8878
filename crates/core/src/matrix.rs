//! The dynamic-programming matrix M of Eq. 3: all possible sums of r²
//! values over consecutive site ranges, with the data reuse OmegaPlus
//! applies when consecutive grid-position windows overlap.
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
//! Storage is column-major, the layout the paper's FPGA accelerator
//! assumes ("we store matrix M in a column-major order since we need two
//! columns per iteration of i", §V). Columns live in a ring of slots keyed
//! by *absolute* site: a cell's value depends only on its two absolute
//! sites, never on the window, so moving the window moves an offset and
//! every reused cell is already in place.

use std::ops::Range;
use std::time::{Duration, Instant};

use omega_genome::Alignment;
use omega_ld::r2_row;

/// Rows the Eq. 3 wavefront advances together: four independent
/// floating-point chains in flight instead of one.
const WAVE: usize = 4;

/// Cost counters for one matrix build/advance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixBuildStats {
    /// r² pairs computed fresh for this window.
    pub new_pairs: u64,
    /// Matrix cells reused in place from the previous window (pairs *not*
    /// recomputed thanks to the data-reuse optimization).
    pub reused_cells: u64,
}

/// What moving the matrix window from sites `prev` to sites `next`
/// (absolute alignment indices) costs: the overlap
/// [`RegionMatrix::advance`] reuses, and the exact stats of the move —
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
    /// Time spent in the Eq. 3 recurrence (and in growing the ring, when
    /// a window outgrows it).
    pub dp: Duration,
}

/// The matrix M over the current window of sites `lo..lo+n` (absolute
/// alignment indices).
#[derive(Debug, Clone)]
pub struct RegionMatrix {
    lo: usize,
    n: usize,
    /// Column slots of the ring; windows up to `cap` sites wide fit.
    cap: usize,
    /// Ring of `cap` column slots, [`slot_stride`] cells apart: absolute
    /// site `b` owns slot `b % cap`, whose first cells hold
    /// `M(b+1, b), M(b+2, b), ...` in row order.
    data: Vec<f32>,
    /// Start in `data` of each window column `j < n` (slot of `lo + j`).
    col: Vec<usize>,
    /// r² rows of one wavefront block, row `t` staged at `t * cap`.
    r2_stage: Vec<f32>,
}

impl Default for RegionMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl RegionMatrix {
    /// An empty matrix (no window, no ring).
    pub fn new() -> Self {
        RegionMatrix {
            lo: 0,
            n: 0,
            cap: 0,
            data: Vec::new(),
            col: Vec::new(),
            r2_stage: Vec::new(),
        }
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

    /// Sizes the ring for windows up to `max_width` sites, keeping the
    /// current window. A scan calls this once with its plan's widest
    /// window, so no later [`RegionMatrix::advance`] allocates or copies.
    pub fn reserve(&mut self, max_width: usize) {
        if max_width > self.cap {
            self.grow(max_width, self.lo, self.n);
            self.place(self.lo, self.n);
        }
    }

    /// Makes `lo..lo + n` the window, pointing each window column at its
    /// site's slot.
    fn place(&mut self, lo: usize, n: usize) {
        self.lo = lo;
        self.n = n;
        if n == 0 {
            return;
        }
        let stride = slot_stride(self.cap);
        let mut slot = lo % self.cap;
        for c in &mut self.col[..n] {
            *c = slot * stride;
            slot = if slot + 1 == self.cap { 0 } else { slot + 1 };
        }
    }

    /// Replaces the ring with one of `cap` slots, carrying over the cells
    /// of sites `keep_lo..keep_lo + keep_n`. With nothing to carry, the
    /// old ring is freed before the new one is allocated.
    fn grow(&mut self, cap: usize, keep_lo: usize, keep_n: usize) {
        if keep_n < 2 {
            self.data = Vec::new();
        }
        let (old, new) = (slot_stride(self.cap), slot_stride(cap));
        let mut data = vec![0.0; cap * new];
        for b in keep_lo..(keep_lo + keep_n).saturating_sub(1) {
            let len = keep_lo + keep_n - 1 - b; // rows b+1..keep_lo+keep_n
            let (src, dst) = ((b % self.cap) * old, (b % cap) * new);
            data[dst..dst + len].copy_from_slice(&self.data[src..src + len]);
        }
        self.data = data;
        self.cap = cap;
        self.col.resize(cap, 0);
        self.r2_stage.resize(WAVE * cap, 0.0);
    }

    /// Sum of r² over all pairs within the window-relative inclusive site
    /// range `[j ..= i]`; 0 when the range has fewer than two sites.
    #[inline]
    pub fn sum(&self, j: usize, i: usize) -> f32 {
        if i <= j {
            return 0.0;
        }
        debug_assert!(i < self.n);
        self.data[self.col[j] + (i - j - 1)]
    }

    /// Column `j` of the strict lower triangle: entries
    /// `M(j+1, j), M(j+2, j), ..., M(n-1, j)` — the FPGA fetch unit reads
    /// these slices directly.
    pub fn column(&self, j: usize) -> &[f32] {
        let off = self.col[j];
        &self.data[off..off + (self.n - 1 - j)]
    }

    /// The contiguous run `M(i_lo, j), M(i_lo+1, j), ..., M(i_hi, j)` of
    /// column `j` — entry `p` of the returned slice is `sum(j, i_lo + p)`.
    ///
    /// Because storage is column-major, every per-left-border `TS` row and
    /// the shared `RS` table of the ω kernel are exactly such runs; the
    /// vectorized kernel streams them without any per-cell index
    /// arithmetic (the layout the paper's FPGA fetch unit assumes, §V).
    #[inline]
    pub fn column_span(&self, j: usize, i_lo: usize, i_hi: usize) -> &[f32] {
        debug_assert!(j < i_lo && i_lo <= i_hi && i_hi < self.n);
        let off = self.col[j] + (i_lo - j - 1);
        &self.data[off..off + (i_hi - i_lo + 1)]
    }

    /// Moves the window to absolute sites `lo..hi`. Every cell whose site
    /// pair is shared with the current window is reused where it lies;
    /// fresh r² values (plus the DP recurrence) fill the remainder.
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
        let (overlap, stats) = window_step(self.lo..self.lo + self.n, lo..hi);

        if n > self.cap {
            let grow_start = Instant::now();
            self.grow(n, lo, overlap);
            timing.dp += grow_start.elapsed();
        }
        self.place(lo, n);

        // Fresh rows: every window site at or past the overlap, staged and
        // swept `WAVE` rows at a time.
        let sites = &alignment.sites()[lo..hi];
        let cap = self.cap;
        let mut i0 = overlap.max(1);
        while i0 < n {
            let rows = WAVE.min(n - i0);
            let r2_start = Instant::now();
            for t in 0..rows {
                let i = i0 + t;
                r2_row(&sites[i], &sites[..i], &mut self.r2_stage[t * cap..t * cap + i]);
            }
            timing.r2 += r2_start.elapsed();

            let dp_start = Instant::now();
            if rows == WAVE && i0 >= 2 {
                self.wavefront(i0);
            } else {
                for t in 0..rows {
                    let i = i0 + t;
                    let r2 = &self.r2_stage[t * cap..t * cap + i];
                    self.data[self.col[i - 1]] = r2[i - 1];
                    finish_row(&mut self.data, &self.col, r2, i, i - 1, r2[i - 1]);
                }
            }
            timing.dp += dp_start.elapsed();
            i0 += rows;
        }
        omega_obs::counter!("matrix.r2_pairs").add(stats.new_pairs);
        omega_obs::counter!("matrix.cells_reused").add(stats.reused_cells);
        stats
    }

    /// Applies Eq. 3 to rows `i0..i0 + WAVE` (r² staged, `i0 ≥ 2`, row
    /// `i0 − 1` complete) as a skewed wavefront: at step `s`, row
    /// `i0 + t` computes column `i0 + t − 2 − s`, the column row
    /// `i0 + t − 1` finished one step earlier. Each row's running
    /// `M(i, j+1)`, and the previous row's last two outputs, stay in
    /// registers, so a step reads one cell of row `i0 − 1` and `WAVE`
    /// staged r² values. Every cell is the same
    /// `((M(i,j+1) + M(i−1,j)) − M(i−1,j+1)) + r²(i,j)` the one-row pass
    /// computes.
    // Not inlined: inside `advance` the carried rows spill to the stack,
    // which puts a store-load on every step's dependency chain.
    #[inline(never)]
    fn wavefront(&mut self, i0: usize) {
        let RegionMatrix { cap, data, col, r2_stage, .. } = self;
        let cap = *cap;
        let r2: [&[f32]; WAVE] = std::array::from_fn(|t| &r2_stage[t * cap..t * cap + i0 + t]);
        // last[t] = row t's newest output, starting at M(i, i−1) = r²(i, i−1).
        let mut last: [f32; WAVE] = std::array::from_fn(|t| r2[t][i0 + t - 1]);
        for (t, &v) in last.iter().enumerate() {
            data[col[i0 + t - 1]] = v;
        }
        // Step s touches columns j0..j0 + WAVE, j0 = i0 − 2 − s; row t's
        // r² for its column is skew[t][j0].
        let steps = i0 - 1;
        let skew: [&[f32]; WAVE] = std::array::from_fn(|t| &r2[t][t..t + steps]);
        let cols = &col[..steps + WAVE - 1];
        // above[t] = M(i − 1, j) for row t's column j: row i0 − 1's cell
        // from memory for t = 0, else row t − 1's newest output. A step's
        // above is the next step's M(i − 1, j + 1); M(i − 1, i − 1) = 0.
        let mut above_prev = [0.0f32; WAVE];
        for (s, j0) in (0..steps).zip((0..steps).rev()) {
            let c = &cols[j0..j0 + WAVE];
            let up = data[c[0] + s];
            let above: [f32; WAVE] = std::array::from_fn(|t| if t == 0 { up } else { last[t - 1] });
            let next: [f32; WAVE] =
                std::array::from_fn(|t| last[t] + above[t] - above_prev[t] + skew[t][j0]);
            for (&c, &v) in c.iter().zip(&next) {
                data[c + s + 1] = v;
            }
            above_prev = above;
            last = next;
        }
        // Row i0 is done; row i0 + t still owes columns t−1..0.
        for t in 1..WAVE {
            finish_row(data, col, r2[t], i0 + t, t, last[t]);
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
        self.advance(alignment, lo, hi, timing)
    }
}

/// Cells between the starts of neighbouring column slots: at least `cap`,
/// rounded to an odd number of 64-byte lines, so the columns a wavefront
/// step writes fall in different cache sets even when `cap` is a power of
/// two.
fn slot_stride(cap: usize) -> usize {
    (cap.div_ceil(16) | 1) * 16
}

/// The one-row Eq. 3 pass: given `run = M(i, from)`, fills row `i` from
/// column `from − 1` down to 0, reading the complete row `i − 1`.
/// `M(i−1, i−1)` enters as 0.
fn finish_row(data: &mut [f32], col: &[usize], r2: &[f32], i: usize, from: usize, mut run: f32) {
    for j in (0..from).rev() {
        let up = data[col[j] + (i - 2 - j)];
        let up_right = if j + 1 == i - 1 { 0.0 } else { data[col[j + 1] + (i - 3 - j)] };
        run = run + up - up_right + r2[j];
        data[col[j] + (i - 1 - j)] = run;
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

    /// Start of column `j` in a packed column-major strict lower triangle
    /// of `n` sites.
    fn offset(n: usize, j: usize) -> usize {
        j * (n - 1) - j * j.saturating_sub(1) / 2
    }

    /// The one-row Eq. 3 pass along row `i` of a packed `n`-site
    /// triangle, consuming `r2[..i]`.
    fn dp_row_pass(data: &mut [f32], n: usize, r2: &[f32], i: usize) {
        let idx = |i: usize, j: usize| offset(n, j) + (i - j - 1);
        data[idx(i, i - 1)] = r2[i - 1];
        for j in (0..i - 1).rev() {
            let m_i_j1 = data[idx(i, j + 1)];
            let m_im1_j = data[idx(i - 1, j)];
            let m_im1_j1 = if j + 1 == i - 1 { 0.0 } else { data[idx(i - 1, j + 1)] };
            data[idx(i, j)] = m_i_j1 + m_im1_j - m_im1_j1 + r2[j];
        }
    }

    /// Oracle: window `lo..hi` built row by row with the one-row pass over
    /// a fresh packed triangle. Returns `M(i, j)` for window-relative
    /// `j < i`.
    pub(super) fn oracle(a: &Alignment, lo: usize, hi: usize) -> impl Fn(usize, usize) -> f32 {
        let n = hi - lo;
        let mut data = vec![0.0f32; n * n.saturating_sub(1) / 2];
        let mut r2 = vec![0.0f32; n];
        for i in 1..n {
            r2_row(&a.sites()[lo + i], &a.sites()[lo..lo + i], &mut r2[..i]);
            dp_row_pass(&mut data, n, &r2, i);
        }
        move |i, j| data[offset(n, j) + (i - j - 1)]
    }

    /// Every cell of `m` equals the oracle's bit for bit.
    pub(super) fn assert_bits_match_oracle(m: &RegionMatrix, a: &Alignment) {
        let want = oracle(a, m.lo(), m.lo() + m.width());
        for j in 0..m.width() {
            for i in j + 1..m.width() {
                assert_eq!(
                    m.sum(j, i).to_bits(),
                    want(i, j).to_bits(),
                    "M({i},{j}) of window {}..{}",
                    m.lo(),
                    m.lo() + m.width()
                );
            }
        }
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
        assert_bits_match_oracle(&m, &a);
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
        assert!(stats.reused_cells > 0, "expected reuse to fire");

        let mut fresh = RegionMatrix::new();
        fresh.rebuild(&a, 5, 22, &mut t);

        for j in 0..reused.width() {
            for i in j + 1..reused.width() {
                assert_eq!(reused.sum(j, i).to_bits(), fresh.sum(j, i).to_bits(), "cell ({i},{j})");
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

    #[test]
    fn reserve_keeps_the_window_and_stops_growth() {
        let a = random_alignment(60, 20, 12);
        let mut t = MatrixBuildTiming::default();
        let mut m = RegionMatrix::new();
        m.rebuild(&a, 3, 10, &mut t);
        m.reserve(13);
        assert_eq!((m.lo(), m.width(), m.cap), (3, 7, 13));
        assert_bits_match_oracle(&m, &a);
        let ring = m.data.as_ptr();
        for lo in 4..47 {
            m.advance(&a, lo, lo + 7 + lo % 7, &mut t);
            assert_bits_match_oracle(&m, &a);
        }
        assert_eq!(m.data.as_ptr(), ring, "a reserved ring is never replaced");
    }

    #[test]
    fn scripted_walk_covers_every_ring_case() {
        let a = random_alignment(64, 20, 13);
        let mut t = MatrixBuildTiming::default();
        let mut m = RegionMatrix::new();
        let mut wrapped = false;
        let walk: &[(usize, usize)] = &[
            (0, 0),   // width 0
            (0, 1),   // width 1
            (0, 2),   // width 2: one fresh row, below WAVE
            (0, 3),   // grows with overlap, one fresh row
            (0, 4),   // width == WAVE
            (1, 11),  // grows with overlap, 7 fresh rows (one block + 3)
            (3, 9),   // shrinks on both sides: nothing fresh
            (20, 26), // disjoint jump, no growth
            (22, 39), // grows with overlap past a multiple of WAVE
            (30, 49), // slides right, wrapping the ring
            (35, 52),
            (41, 58),
            (10, 14), // moves left
            (45, 64), // disjoint jump at full width
            (0, 30),  // grows with nothing reused
            (2, 32),
        ];
        for &(lo, hi) in walk {
            let prev = m.lo()..m.lo() + m.width();
            let stats = m.advance(&a, lo, hi, &mut t);
            assert_eq!(stats, window_step(prev, lo..hi).1);
            wrapped |= m.cap > 0 && lo % m.cap + (hi - lo) > m.cap;
            assert_bits_match_oracle(&m, &a);
        }
        assert!(wrapped, "the walk must wrap the ring");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::assert_bits_match_oracle;
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
                    prop_assert_eq!(m.sum(j, i).to_bits(), fresh.sum(j, i).to_bits());
                }
            }
        }

        // Random walks — slides that wrap the ring, growth with and
        // without overlap, shrinks, left moves, disjoint jumps, widths
        // 0..=15 around WAVE, optionally on a ring reserved up front —
        // leave every cell bit-identical to the one-row oracle.
        #[test]
        fn window_walk_cells_equal_one_row_oracle(
            seed in 0u64..1000,
            reserve in 0usize..16,
            walk in proptest::collection::vec((0u8..2, 0usize..8, 0usize..16), 1..16),
        ) {
            let a = alignment_from_seed(48, seed);
            let mut t = MatrixBuildTiming::default();
            let mut m = RegionMatrix::new();
            m.reserve(reserve);
            for (slide, step, len) in walk {
                let lo = if slide == 1 { (m.lo() + step).min(47) } else { step * 6 };
                let hi = (lo + len).min(48);
                let prev = m.lo()..m.lo() + m.width();
                let stats = m.advance(&a, lo, hi, &mut t);
                prop_assert_eq!(stats, window_step(prev, lo..hi).1);
                assert_bits_match_oracle(&m, &a);
            }
        }
    }
}
