//! Profile-guided backend prediction: the cost model behind
//! `backend=auto`.
//!
//! [`CostPredictor::predict`] reconstructs a job's workload *shape* —
//! per-position border counts, valid-combination counts, and the exact
//! fresh-r²-pair count of each matrix step ([`omega_core::window_step`],
//! the rule `RegionMatrix::advance` itself follows) — without touching
//! sample data, then prices that shape on every backend:
//!
//! * **CPU** — the measured [`Calibration`] record (ns/ω-score and
//!   ns/r²-pair from `bench_omega`, shipped in `BENCH_omega.json`);
//! * **GPU** — the gpu-sim cost model (GEMM LD update plus the dynamic
//!   two-kernel ω dispatch);
//! * **FPGA** — the fpga-sim pipeline cycle model plus the Bozikas
//!   et al. LD throughput constant.
//!
//! Both accelerator lanes are priced by the one per-position pricing
//! function `SweepDetector::detect` charges (serialized schedule), and
//! LD and ω seconds are summed separately in the detector's order, so
//! the prediction for a lane equals the modelled
//! `ld_seconds + omega_seconds` that lane would report, bit for bit —
//! the quantity that actually differs between backends. Host-side work
//! (matrix DP, planning, packing) is backend-independent and cancels
//! out of the comparison, so it is deliberately left out.
//!
//! The shape pass (border sets) parallelizes over grid positions with
//! rayon; the walk that prices them is sequential, because each step's
//! fresh-pair count depends on the previous scorable window. Every
//! position is priced directly: neighbouring positions rarely share a
//! shape, so a per-shape memo never paid for its lookups. A prediction
//! consult records nothing in the observability registry — the
//! simulators' cost functions are pure, and only the detector records
//! the work it executes.

use std::ops::Range;
use std::sync::OnceLock;

use omega_core::{total_order_key_f64, window_step, BorderSet, Calibration, GridPlan, ScanParams};
use omega_fpga_sim::{FpgaDevice, FpgaOmegaEngine};
use omega_genome::Alignment;
use omega_gpu_sim::GpuDevice;
use rayon::prelude::*;

use crate::backend::{Backend, DeviceModel};

/// One of the three execution lanes `backend=auto` chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoLane {
    /// Host CPU.
    Cpu,
    /// Simulated GPU (default device).
    Gpu,
    /// Simulated FPGA (default device).
    Fpga,
}

impl AutoLane {
    /// Lowercase label, used for counter suffixes and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            AutoLane::Cpu => "cpu",
            AutoLane::Gpu => "gpu",
            AutoLane::Fpga => "fpga",
        }
    }

    /// The default-device backend this lane executes on — the same
    /// devices [`CostPredictor::new`] prices, so routing is consistent
    /// with prediction.
    pub fn backend(self) -> Backend {
        match self {
            AutoLane::Cpu => Backend::Cpu,
            AutoLane::Gpu => Backend::Gpu(GpuDevice::tesla_k80()),
            AutoLane::Fpga => Backend::Fpga(FpgaDevice::alveo_u200()),
        }
    }
}

/// Predicted per-backend runtime of one job (or an accumulated batch).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prediction {
    /// Predicted CPU LD+ω seconds (calibration record × workload).
    pub cpu_seconds: f64,
    /// Modelled GPU LD+ω seconds (serialized schedule).
    pub gpu_seconds: f64,
    /// Modelled FPGA LD+ω seconds (serialized schedule).
    pub fpga_seconds: f64,
    /// ω scores the job will evaluate.
    pub omega_scores: u64,
    /// Fresh r² pairs the job will compute (after matrix reuse).
    pub r2_pairs: u64,
}

impl Prediction {
    /// The predicted-fastest lane. Ties resolve CPU over GPU over FPGA
    /// (prefer not to occupy an accelerator when it buys nothing); the
    /// comparison is total-order, so a NaN prediction ranks slowest
    /// rather than poisoning the choice.
    pub fn fastest(&self) -> AutoLane {
        let mut best = AutoLane::Cpu;
        let mut best_key = total_order_key_f64(self.cpu_seconds);
        for (lane, seconds) in
            [(AutoLane::Gpu, self.gpu_seconds), (AutoLane::Fpga, self.fpga_seconds)]
        {
            let key = total_order_key_f64(seconds);
            if key < best_key {
                best = lane;
                best_key = key;
            }
        }
        best
    }

    /// Predicted seconds for a given lane.
    pub fn seconds_for(&self, lane: AutoLane) -> f64 {
        match lane {
            AutoLane::Cpu => self.cpu_seconds,
            AutoLane::Gpu => self.gpu_seconds,
            AutoLane::Fpga => self.fpga_seconds,
        }
    }

    /// Element-wise accumulation (for batching multiple alignments).
    pub fn accumulate(&mut self, other: &Prediction) {
        self.cpu_seconds += other.cpu_seconds;
        self.gpu_seconds += other.gpu_seconds;
        self.fpga_seconds += other.fpga_seconds;
        self.omega_scores += other.omega_scores;
        self.r2_pairs += other.r2_pairs;
    }
}

/// Prices a job's workload shape on every backend.
#[derive(Debug, Clone)]
pub struct CostPredictor {
    calibration: Calibration,
    gpu: DeviceModel,
    fpga: DeviceModel,
}

impl CostPredictor {
    /// Predictor over the default devices (Tesla K80, Alveo U200) — the
    /// same devices the CLI and server construct for explicit backend
    /// selection.
    pub fn new(calibration: Calibration) -> Self {
        Self::with_devices(calibration, GpuDevice::tesla_k80(), FpgaDevice::alveo_u200())
    }

    /// Predictor over specific simulated devices.
    pub fn with_devices(calibration: Calibration, gpu: GpuDevice, fpga: FpgaDevice) -> Self {
        CostPredictor {
            calibration,
            gpu: DeviceModel::gpu(gpu),
            fpga: DeviceModel::Fpga(FpgaOmegaEngine::new(fpga)),
        }
    }

    /// The process-wide predictor, calibrated from
    /// [`Calibration::load_default`] on first use.
    pub fn global() -> &'static CostPredictor {
        static GLOBAL: OnceLock<CostPredictor> = OnceLock::new();
        GLOBAL.get_or_init(|| CostPredictor::new(Calibration::load_default()))
    }

    /// The calibration record in use.
    pub fn calibration(&self) -> Calibration {
        self.calibration
    }

    /// Predicts per-backend runtime of scanning `alignment` with
    /// `params`.
    pub fn predict(&self, alignment: &Alignment, params: &ScanParams) -> Prediction {
        let plan = GridPlan::build(alignment, params);
        let n_samples = alignment.n_samples() as u64;

        // Shape pass: border sets are independent per position.
        let shapes: Vec<Option<(Range<usize>, BorderSet, u64)>> = plan
            .positions()
            .par_iter()
            .map(|pp| {
                let b = BorderSet::build(alignment, pp, params)?;
                let n_valid = b.n_combinations();
                (n_valid > 0).then_some((pp.lo..pp.hi, b, n_valid))
            })
            .collect();

        // Sequential replay of the matrix window walk over the scorable
        // positions, pricing each step the way the detector does. LD and
        // ω seconds accumulate separately, in the detector's order, so
        // each lane's sum is bit-identical to its modelled
        // `ld_seconds + omega_seconds`.
        let mut prev = 0..0;
        let mut omega_scores = 0u64;
        let mut r2_pairs = 0u64;
        let (mut gpu_ld, mut gpu_omega, mut fpga_ld, mut fpga_omega) = (0.0, 0.0, 0.0, 0.0);
        for (window, b, n_valid) in shapes.iter().flatten() {
            let new_pairs = window_step(prev, window.clone()).1.new_pairs;
            prev = window.clone();
            r2_pairs += new_pairs;
            omega_scores += n_valid;

            let (ld, omega) = self.gpu.price(window.len(), b, new_pairs, n_samples).seconds();
            gpu_ld += ld;
            gpu_omega += omega;
            let (ld, omega) = self.fpga.price(window.len(), b, new_pairs, n_samples).seconds();
            fpga_ld += ld;
            fpga_omega += omega;
        }

        Prediction {
            cpu_seconds: self.calibration.cpu_seconds(omega_scores, r2_pairs),
            gpu_seconds: gpu_ld + gpu_omega,
            fpga_seconds: fpga_ld + fpga_omega,
            omega_scores,
            r2_pairs,
        }
    }

    /// Predicts the accumulated runtime of a batch of alignments sharing
    /// one parameter set (a serve job's replicates).
    pub fn predict_batch(&self, alignments: &[Alignment], params: &ScanParams) -> Prediction {
        let mut total = Prediction::default();
        for a in alignments {
            total.accumulate(&self.predict(a, params));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SweepDetector;
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

    fn params() -> ScanParams {
        ScanParams { grid: 12, min_win: 0, max_win: 2_000, min_snps_per_side: 2, threads: 1 }
    }

    fn relative_close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30)
    }

    #[test]
    fn workload_counts_match_detector_exactly() {
        for seed in 0..4u64 {
            let a = random_alignment(60, 24, seed);
            let p = CostPredictor::new(Calibration::default()).predict(&a, &params());
            let o = SweepDetector::new(params(), Backend::Cpu).unwrap().detect(&a);
            assert_eq!(p.omega_scores, o.stats.omega_evaluations, "seed {seed}");
            assert_eq!(p.r2_pairs, o.stats.r2_pairs, "seed {seed}");
        }
    }

    #[test]
    fn gpu_prediction_matches_detector_model() {
        let a = random_alignment(60, 24, 7);
        for gpu in [GpuDevice::tesla_k80(), GpuDevice::radeon_hd8750m()] {
            let p = CostPredictor::with_devices(
                Calibration::default(),
                gpu.clone(),
                FpgaDevice::alveo_u200(),
            )
            .predict(&a, &params());
            let o = SweepDetector::new(params(), Backend::Gpu(gpu.clone())).unwrap().detect(&a);
            let modelled = o.ld_seconds + o.omega_seconds;
            assert_eq!(
                p.gpu_seconds.to_bits(),
                modelled.to_bits(),
                "{}: predicted {} vs modelled {modelled}",
                gpu.name,
                p.gpu_seconds
            );
        }
    }

    #[test]
    fn fpga_prediction_matches_detector_model() {
        let a = random_alignment(60, 24, 8);
        for fpga in [FpgaDevice::alveo_u200(), FpgaDevice::zcu102()] {
            let p = CostPredictor::with_devices(
                Calibration::default(),
                GpuDevice::tesla_k80(),
                fpga.clone(),
            )
            .predict(&a, &params());
            let o = SweepDetector::new(params(), Backend::Fpga(fpga.clone())).unwrap().detect(&a);
            let modelled = o.ld_seconds + o.omega_seconds;
            assert_eq!(
                p.fpga_seconds.to_bits(),
                modelled.to_bits(),
                "{}: predicted {} vs modelled {modelled}",
                fpga.name,
                p.fpga_seconds
            );
        }
    }

    #[test]
    fn cpu_prediction_scales_with_calibration() {
        let a = random_alignment(50, 16, 9);
        let slow = Calibration { cpu_omega_ns_per_score: 100.0, cpu_ld_ns_per_pair: 100.0 };
        let fast = Calibration { cpu_omega_ns_per_score: 1.0, cpu_ld_ns_per_pair: 1.0 };
        let ps = CostPredictor::new(slow).predict(&a, &params());
        let pf = CostPredictor::new(fast).predict(&a, &params());
        assert!(ps.cpu_seconds > 0.0);
        assert!(relative_close(ps.cpu_seconds, 100.0 * pf.cpu_seconds));
        // Modelled lanes are calibration-independent.
        assert_eq!(ps.gpu_seconds.to_bits(), pf.gpu_seconds.to_bits());
        assert_eq!(ps.fpga_seconds.to_bits(), pf.fpga_seconds.to_bits());
    }

    #[test]
    fn fastest_resolves_ties_toward_cpu() {
        let even = Prediction {
            cpu_seconds: 1.0,
            gpu_seconds: 1.0,
            fpga_seconds: 1.0,
            ..Prediction::default()
        };
        assert_eq!(even.fastest(), AutoLane::Cpu);
        let gpu = Prediction { gpu_seconds: 0.5, ..even };
        assert_eq!(gpu.fastest(), AutoLane::Gpu);
        let fpga = Prediction { fpga_seconds: 0.25, ..gpu };
        assert_eq!(fpga.fastest(), AutoLane::Fpga);
        // NaN ranks slowest under the total order, never fastest.
        let poisoned = Prediction { cpu_seconds: f64::NAN, ..even };
        assert_eq!(poisoned.fastest(), AutoLane::Gpu);
    }

    #[test]
    fn batch_accumulates() {
        let a = random_alignment(40, 16, 10);
        let b = random_alignment(48, 16, 11);
        let pr = CostPredictor::new(Calibration::default());
        let one = pr.predict(&a, &params());
        let two = pr.predict(&b, &params());
        let batch = pr.predict_batch(&[a, b], &params());
        assert_eq!(batch.omega_scores, one.omega_scores + two.omega_scores);
        assert_eq!(batch.r2_pairs, one.r2_pairs + two.r2_pairs);
        assert!(relative_close(batch.gpu_seconds, one.gpu_seconds + two.gpu_seconds));
    }

    #[test]
    fn lane_labels_and_backends() {
        assert_eq!(AutoLane::Cpu.as_str(), "cpu");
        assert_eq!(AutoLane::Gpu.as_str(), "gpu");
        assert_eq!(AutoLane::Fpga.as_str(), "fpga");
        assert!(matches!(AutoLane::Cpu.backend(), Backend::Cpu));
        assert!(matches!(AutoLane::Gpu.backend(), Backend::Gpu(_)));
        assert!(matches!(AutoLane::Fpga.backend(), Backend::Fpga(_)));
    }
}
