//! The simulator instruments describe executed work only. A detection on
//! an accelerator lane accounts every scorable position once; a
//! `backend=auto` prediction, which executes nothing, records nothing.
//!
//! One `#[test]` on purpose: the metrics registry is process-global, so
//! this binary must not share it with concurrently running tests.

use omega_accel::{Backend, CostPredictor, SweepDetector};
use omega_core::{Calibration, ScanParams};
use omega_fpga_sim::FpgaDevice;
use omega_genome::{Alignment, SnpVec};
use omega_gpu_sim::GpuDevice;
use omega_obs::{registry, snapshot, MetricsSnapshot};
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

fn params() -> ScanParams {
    ScanParams { grid: 12, min_win: 0, max_win: 2_000, min_snps_per_side: 2, threads: 1 }
}

/// Every `gpu.*`, `fpga.*`, `matrix.*` and `transfer.*` instrument.
fn model_instruments() -> MetricsSnapshot {
    let keep =
        |name: &str| ["gpu.", "fpga.", "matrix.", "transfer."].iter().any(|p| name.starts_with(p));
    let mut snap = snapshot();
    snap.counters.retain(|(n, _)| keep(n));
    snap.gauges.retain(|(n, _)| keep(n));
    snap.histograms.retain(|(n, _)| keep(n));
    snap
}

fn counter(name: &'static str) -> u64 {
    registry().counter(name).get()
}

#[test]
fn detection_counts_each_position_and_prediction_records_nothing() {
    let alignments = [random_alignment(60, 24, 1), random_alignment(48, 16, 2)];

    for a in &alignments {
        let launches = || counter("gpu.kernel1.launches") + counter("gpu.kernel2.launches");
        let before = launches();
        let o =
            SweepDetector::new(params(), Backend::Gpu(GpuDevice::tesla_k80())).unwrap().detect(a);
        assert!(o.stats.scorable_positions > 0);
        assert_eq!(launches() - before, o.stats.scorable_positions as u64);

        let scores = || counter("fpga.hw_scores") + counter("fpga.sw_scores");
        let before = scores();
        let o = SweepDetector::new(params(), Backend::Fpga(FpgaDevice::alveo_u200()))
            .unwrap()
            .detect(a);
        assert!(o.stats.omega_evaluations > 0);
        assert_eq!(scores() - before, o.stats.omega_evaluations);
    }

    // The detections above registered and moved the instruments, so an
    // unchanged snapshot means the prediction touched none of them.
    let before = model_instruments();
    assert!(before.counters.iter().any(|(n, v)| n == "gpu.ld.pairs" && *v > 0));
    let p = CostPredictor::new(Calibration::default()).predict_batch(&alignments, &params());
    assert!(p.gpu_seconds > 0.0 && p.fpga_seconds > 0.0);
    assert_eq!(model_instruments(), before);
}
