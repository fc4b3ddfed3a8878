//! Counting-allocator harness proving the ω kernel hot path and the
//! matrix walk perform no heap allocation after warm-up.
//!
//! The whole test binary runs under a `#[global_allocator]` that counts
//! `alloc`/`realloc` calls. One warm-up `OmegaKernel::run` on the widest
//! workload grows the scratch tables and registers the obs span/counter
//! handles (both cached in `OnceLock`s); every subsequent per-position
//! evaluation — including narrower positions that reuse the scratch —
//! must then leave the allocation counter untouched. Likewise, once a
//! `RegionMatrix` ring is sized for the widest window, a sliding
//! `advance` walk moves an offset and allocates nothing. This is the CI
//! backstop for the "no allocation in the inner loop" and "zero-copy
//! reuse" claims in `kernel.rs`, `matrix.rs` and DESIGN.md.
//!
//! Single `#[test]` on purpose: the allocation counter is process-global,
//! and a sibling test allocating concurrently would make it flaky.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use omega_core::{
    omega_max, BorderSet, GridPlan, MatrixBuildTiming, OmegaKernel, RegionMatrix, ScanParams,
    TaskView,
};
use omega_genome::{Alignment, SnpVec};
use rand::{rngs::StdRng, Rng, SeedableRng};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
    let positions: Vec<u64> = (0..n_sites as u64).map(|i| 100 * (i + 1)).collect();
    Alignment::new(positions, sites, 100 * n_sites as u64 + 100).unwrap()
}

#[test]
fn kernel_hot_path_is_allocation_free_after_warmup() {
    let a = random_alignment(96, 24, 7);
    // Widest workload first (exhaustive window), then a narrower position
    // whose scratch fits inside the warmed capacity.
    let wide =
        ScanParams { grid: 1, min_win: 0, max_win: 1_000_000, min_snps_per_side: 2, threads: 1 };
    let narrow =
        ScanParams { grid: 1, min_win: 0, max_win: 2_000, min_snps_per_side: 2, threads: 1 };

    let mut workloads = Vec::new();
    for params in [wide, narrow] {
        let plan = GridPlan::plan_at(&a, 4_800, &params);
        let b = BorderSet::build(&a, &plan, &params).expect("workload must be scorable");
        let mut m = RegionMatrix::new();
        let mut t = MatrixBuildTiming::default();
        m.rebuild(&a, plan.lo, plan.hi, &mut t);
        workloads.push((m, b, plan));
    }

    let mut kernel = OmegaKernel::new();

    // Warm-up: grows `rf`/`comb_r` to the widest position and initialises
    // the obs handles. Allocation is expected and allowed here.
    let (m, b, plan) = &workloads[0];
    let warm = kernel.run(&TaskView::new(m, b, plan)).unwrap();
    assert_eq!(warm.omega.to_bits(), omega_max(m, b).unwrap().omega.to_bits());

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..64 {
        for (m, b, plan) in &workloads {
            let out = kernel.run(&TaskView::new(m, b, plan)).unwrap();
            black_box(out.omega);
        }
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "kernel hot path allocated {} time(s) after warm-up",
        after - before
    );

    // Matrix walk: 64+ overlapping steps whose widths vary below the
    // reserved ring. The first advance registers the matrix counters.
    let a = random_alignment(160, 24, 11);
    let mut m = RegionMatrix::new();
    let mut t = MatrixBuildTiming::default();
    m.reserve(40);
    m.advance(&a, 0, 30, &mut t);
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut reused = 0;
    for lo in 1..=100 {
        reused += m.advance(&a, lo, lo + 30 + lo % 11, &mut t).reused_cells;
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert!(reused > 0, "the walk must reuse cells");
    black_box(m.sum(0, m.width() - 1));
    assert_eq!(after - before, 0, "matrix walk allocated {} time(s)", after - before);
}
