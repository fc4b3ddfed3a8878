//! Full-scan benchmarks: the complete sweep-detection flow on the CPU
//! backend (sequential and parallel) and with the data-reuse ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use omega_bench::dataset;
use omega_core::{GridPlan, OmegaScanner, ScanParams};
use std::hint::black_box;

fn params(grid: usize, max_win: u64, threads: usize) -> ScanParams {
    ScanParams { grid, min_win: 0, max_win, min_snps_per_side: 2, threads }
}

fn bench_sequential_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_sequential");
    group.sample_size(10);
    for (snps, samples) in [(400usize, 50usize), (400, 1_000)] {
        let a = dataset(snps, samples, 46);
        let scanner = OmegaScanner::new(params(40, 200_000, 1)).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{snps}snps_{samples}seq")),
            &a,
            |b, a| b.iter(|| black_box(scanner.scan(a).stats.omega_evaluations)),
        );
    }
    group.finish();
}

fn bench_parallel_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_parallel");
    group.sample_size(10);
    let a = dataset(400, 200, 47);
    for threads in [1usize, 4] {
        let scanner = OmegaScanner::new(params(40, 200_000, threads)).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(threads), &a, |b, a| {
            b.iter(|| black_box(scanner.scan_parallel(a).stats.omega_evaluations))
        });
    }
    group.finish();
}

/// Ablation: the data-reuse optimization (Fig. 3) vs a fresh matrix per
/// position — rebuilding M from scratch at every grid position disables
/// reuse while computing the identical result.
fn bench_reuse_ablation(c: &mut Criterion) {
    use omega_core::{omega_max, BorderSet, MatrixBuildTiming, RegionMatrix};

    let mut group = c.benchmark_group("scan_reuse_ablation");
    group.sample_size(10);
    let a = dataset(500, 200, 48);
    let p = params(30, 100_000, 1);
    let plan = GridPlan::build(&a, &p);
    group.throughput(Throughput::Elements(plan.len() as u64));

    let run = |reuse: bool| {
        let mut matrix = RegionMatrix::new();
        let mut timing = MatrixBuildTiming::default();
        let mut best = 0.0f32;
        for pp in plan.positions() {
            let Some(b) = BorderSet::build(&a, pp, &p) else { continue };
            if b.n_combinations() == 0 {
                continue;
            }
            if reuse {
                matrix.advance(&a, pp.lo, pp.hi, &mut timing);
            } else {
                matrix.rebuild(&a, pp.lo, pp.hi, &mut timing);
            }
            best = best.max(omega_max(&matrix, &b).unwrap().omega);
        }
        best
    };

    group.bench_function("with_reuse", |b| b.iter(|| black_box(run(true))));
    group.bench_function("without_reuse", |b| b.iter(|| black_box(run(false))));
    group.finish();
}

criterion_group!(benches, bench_sequential_scan, bench_parallel_scan, bench_reuse_ablation);
criterion_main!(benches);
