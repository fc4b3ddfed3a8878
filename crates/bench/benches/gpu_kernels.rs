//! Simulated-GPU benchmarks: functional kernel execution cost on the
//! host, plus the analytic estimate path used by the figure sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use omega_bench::dataset;
use omega_core::{BorderSet, GridPlan, MatrixBuildTiming, OmegaTask, RegionMatrix, ScanParams};
use omega_gpu_sim::{workload_dims, GpuDevice, GpuOmegaEngine, KernelKind, TaskDims};
use std::hint::black_box;

fn mid_task(snps: usize) -> OmegaTask {
    let a = dataset(snps, 50, 45);
    let params =
        ScanParams { grid: 1, min_win: 0, max_win: 1_000_000, min_snps_per_side: 2, threads: 1 };
    let plan = GridPlan::plan_at(&a, (a.position(0) + a.position(snps - 1)) / 2, &params);
    let b = BorderSet::build(&a, &plan, &params).unwrap();
    let mut m = RegionMatrix::new();
    let mut t = MatrixBuildTiming::default();
    m.rebuild(&a, plan.lo, plan.hi, &mut t);
    OmegaTask::extract(&m, &b, &plan)
}

fn bench_functional_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpu_functional");
    group.sample_size(10);
    let task = mid_task(512);
    let engine = GpuOmegaEngine::new(GpuDevice::tesla_k80());
    group.throughput(Throughput::Elements(task.n_combinations()));
    for kind in [KernelKind::One, KernelKind::Two] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &task,
            |b, task| b.iter(|| black_box(engine.run_workload_with(task, kind).best)),
        );
    }
    group.finish();
}

fn bench_estimates(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpu_estimate");
    let engine = GpuOmegaEngine::new(GpuDevice::tesla_k80());
    let dims = TaskDims { n_lb: 10_000, n_rb: 10_000, n_valid: 100_000_000 };
    group.throughput(Throughput::Elements(1));
    group.bench_function("dynamic", |b| {
        b.iter(|| black_box(engine.estimate_dynamic(&dims).cost.total()))
    });
    group.finish();
}

fn bench_dispatch_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpu_scan");
    group.sample_size(10);
    let tasks: Vec<OmegaTask> = (0..4).map(|i| mid_task(128 + 32 * i)).collect();
    let engine = GpuOmegaEngine::new(GpuDevice::radeon_hd8750m());
    let scores: u64 = tasks.iter().map(|t| t.n_combinations()).sum();
    group.throughput(Throughput::Elements(scores));
    group.bench_function("run_scan_4pos", |b| {
        b.iter(|| {
            let (runs, cost) = engine.run_scan(&tasks);
            black_box((runs.len(), cost.total()))
        })
    });
    // Sanity: dims extraction is cheap.
    group.bench_function("workload_dims", |b| b.iter(|| black_box(workload_dims(&tasks[0]))));
    group.finish();
}

criterion_group!(benches, bench_functional_kernels, bench_estimates, bench_dispatch_scan);
criterion_main!(benches);
