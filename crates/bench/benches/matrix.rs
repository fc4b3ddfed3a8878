//! Matrix M benchmarks: full build vs in-place data reuse (the
//! optimization Fig. 3 highlights).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use omega_bench::dataset;
use omega_core::{MatrixBuildTiming, RegionMatrix};
use std::hint::black_box;

fn bench_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix_rebuild");
    group.sample_size(10);
    for width in [128usize, 512] {
        let a = dataset(width + 64, 50, 42);
        group.throughput(Throughput::Elements((width * (width - 1) / 2) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(width), &a, |b, a| {
            let mut m = RegionMatrix::new();
            let mut t = MatrixBuildTiming::default();
            b.iter(|| {
                m.rebuild(a, 0, width, &mut t);
                black_box(m.width())
            })
        });
    }
    group.finish();
}

fn bench_advance_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix_advance");
    group.sample_size(10);
    let width = 512usize;
    let shift = 32usize;
    let a = dataset(width + shift + 64, 50, 43);
    group.throughput(Throughput::Elements((shift * width) as u64));
    group.bench_function(BenchmarkId::from_parameter(format!("{width}w_{shift}s")), |b| {
        let mut t = MatrixBuildTiming::default();
        b.iter(|| {
            // Build one window, then advance to an overlapping one that
            // reuses the shared cells in place.
            let mut m = RegionMatrix::new();
            m.rebuild(&a, 0, width, &mut t);
            let s = m.advance(&a, shift, shift + width, &mut t);
            black_box(s.reused_cells)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rebuild, bench_advance_reuse);
criterion_main!(benches);
