//! Host scheduling of ω positions onto the FPGA accelerator.
//!
//! Per the paper (§V): the innermost (right-side) loop is unrolled by the
//! device's unroll factor, placing that many pipeline instances; right-side
//! iterations are distributed round-robin across instances; iterations
//! left over when the unroll factor does not divide the right-side trip
//! count are executed in software on the host; the RS column is
//! prefetched once per position and reused across all left-border
//! iterations.

use omega_core::units::{Cycles, Seconds};
use omega_core::{OmegaMax, OmegaWorkload};

use crate::device::FpgaDevice;
use crate::pipeline::{OmegaPipeline, PipeInput};

/// Cycles to warm the RS prefetch buffer before the pipelines can stream
/// (double-buffered afterwards, so only the initial burst is exposed).
pub const PREFETCH_INIT_CYCLES: Cycles = Cycles(28);

/// Host software fallback rate for remainder iterations, ω scores/s
/// (a single CPU core running the scalar loop).
pub const HOST_SW_RATE: f64 = 180.0e6;

/// Result of executing one grid position on the FPGA system.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaRun {
    /// Best combination (reference tie-breaking), if any was valid.
    pub best: Option<OmegaMax>,
    /// Scores computed by the hardware pipelines.
    pub hw_scores: u64,
    /// Remainder scores computed in host software.
    pub sw_scores: u64,
    /// Accelerator cycles consumed.
    pub cycles: Cycles,
    /// The non-streaming part of `cycles`: the RS prefetch burst plus the
    /// single pipeline fill the position pays.
    pub stall_cycles: Cycles,
    /// Wall time: accelerator cycles at the device clock plus host
    /// software remainder time.
    pub seconds: Seconds,
}

/// The FPGA-accelerated ω engine.
#[derive(Debug, Clone)]
pub struct FpgaOmegaEngine {
    device: FpgaDevice,
    pipeline: OmegaPipeline,
}

impl FpgaOmegaEngine {
    /// Creates an engine for a device.
    pub fn new(device: FpgaDevice) -> Self {
        FpgaOmegaEngine { device, pipeline: OmegaPipeline::new() }
    }

    /// The device.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// The pipeline instance model.
    pub fn pipeline(&self) -> &OmegaPipeline {
        &self.pipeline
    }

    /// Executes any workload form functionally — the zero-copy host view
    /// included — and charges the cycles [`FpgaOmegaEngine::estimate`]
    /// budgets for its trip counts.
    ///
    /// For each left border, the valid right-side iterations are split:
    /// the largest multiple of the unroll factor runs on the pipelines
    /// (all instances in lockstep), the remainder runs in host software.
    pub fn run_workload<W: OmegaWorkload>(&self, task: &W) -> FpgaRun {
        let _span = omega_obs::span!("fpga.task");
        let unroll = self.device.unroll as usize;
        let n_rb = task.n_rb();
        let n_lb = task.n_lb();
        let run = self.estimate((0..n_lb).map(|a| (n_rb - task.first_valid_rb(a)) as u64));
        let mut scores: Vec<f32> = vec![f32::NEG_INFINITY; n_lb * n_rb];

        for a in 0..n_lb {
            let first = task.first_valid_rb(a);
            let valid = n_rb - first;
            let hw = valid - valid % unroll;
            // Hardware slice: per instance `hw/unroll` inputs, instances in
            // lockstep.
            if hw > 0 {
                let per_instance = hw / unroll;
                for inst in 0..unroll {
                    let inputs: Vec<PipeInput> = (0..per_instance)
                        .map(|step| {
                            let b = first + step * unroll + inst;
                            PipeInput {
                                ls: task.ls(a),
                                rs: task.rs(b),
                                ts: task.ts(a, b),
                                l: task.l_snps(a),
                                r: task.r_snps(b),
                            }
                        })
                        .collect();
                    let (vals, c) = self.pipeline.process(&inputs);
                    // The pipeline streams across left-border iterations
                    // without draining (II = 1 throughout the position), so
                    // the estimate charges the fill once per position.
                    debug_assert_eq!(c, per_instance as u64 + u64::from(self.pipeline.latency()));
                    let _ = c;
                    for (step, v) in vals.into_iter().enumerate() {
                        scores[a * n_rb + first + step * unroll + inst] = v;
                    }
                }
            }
            // Software remainder.
            for b in first + hw..n_rb {
                scores[a * n_rb + b] = task.score(a, b);
            }
        }
        Self::record(&run);

        // Reference-order reduction over the score buffer, under the shared
        // `total_cmp` contract (NaN ranks above finite, first wins ties).
        let mut best: Option<OmegaMax> = None;
        for a in 0..n_lb {
            for b in task.first_valid_rb(a)..n_rb {
                let w = scores[a * n_rb + b];
                if best.is_none_or(|cur| w.total_cmp(&cur.omega).is_gt()) {
                    best = Some(OmegaMax {
                        omega: w,
                        left_border: task.left_border(a) as usize,
                        right_border: task.right_border(b) as usize,
                        evaluated: 0,
                    });
                }
            }
        }
        if let Some(b) = &mut best {
            b.evaluated = run.hw_scores + run.sw_scores;
        }
        FpgaRun { best, ..run }
    }

    /// Analytic cycle/time budget for a position given the valid
    /// right-side trip count of every left-border iteration — usable at
    /// paper-scale workloads without functional execution. Each
    /// iteration's largest multiple of the unroll factor streams through
    /// the pipelines at one input per instance per cycle; its remainder
    /// runs in host software at [`HOST_SW_RATE`]. A position with work
    /// pays the RS prefetch burst, and one pipeline fill if any score ran
    /// in hardware. Records nothing: the `backend=auto` predictor prices
    /// with it too.
    pub fn estimate(&self, rb_counts: impl IntoIterator<Item = u64>) -> FpgaRun {
        let unroll = self.device.unroll as u64;
        let mut streaming = Cycles::ZERO;
        let mut hw_scores = 0u64;
        let mut sw_scores = 0u64;
        let mut any_work = false;
        for valid in rb_counts {
            any_work |= valid > 0;
            let hw = valid - valid % unroll;
            streaming += Cycles(hw / unroll);
            hw_scores += hw;
            sw_scores += valid % unroll;
        }
        let mut stall_cycles = Cycles::ZERO;
        if any_work {
            stall_cycles += PREFETCH_INIT_CYCLES;
        }
        if hw_scores > 0 {
            stall_cycles += Cycles(u64::from(self.pipeline.latency()));
        }
        let cycles = streaming + stall_cycles;
        let seconds =
            cycles.at_clock_hz(self.device.clock_hz()) + Seconds(sw_scores as f64 / HOST_SW_RATE);
        FpgaRun { best: None, hw_scores, sw_scores, cycles, stall_cycles, seconds }
    }

    /// Accounts one executed position to the metrics registry: the
    /// `fpga.estimate` span, its cycles and stall cycles, its hardware
    /// and software scores, and its modelled ω stage time (exposed next
    /// to the serve/gpu stage histograms so `/metrics` can compare
    /// backends per stage). The one place the engine records work.
    pub fn record(run: &FpgaRun) {
        let _span = omega_obs::span!("fpga.estimate");
        omega_obs::counter!("fpga.pipeline.cycles").add(run.cycles.get());
        omega_obs::counter!("fpga.pipeline.stall_cycles").add(run.stall_cycles.get());
        omega_obs::counter!("fpga.hw_scores").add(run.hw_scores);
        omega_obs::counter!("fpga.sw_scores").add(run.sw_scores);
        omega_obs::histogram!("fpga.stage.omega_ns").record(run.seconds.to_nanos().get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_core::{BorderSet, GridPlan, MatrixBuildTiming, OmegaTask, RegionMatrix, ScanParams};
    use omega_genome::{Alignment, SnpVec};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_task(seed: u64, n_sites: usize, min_win: u64) -> OmegaTask {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites: Vec<SnpVec> = (0..n_sites)
            .map(|_| loop {
                let calls: Vec<u8> = (0..20).map(|_| rng.gen_range(0..2)).collect();
                let s = SnpVec::from_bits(&calls);
                if !s.is_monomorphic() {
                    break s;
                }
            })
            .collect();
        let positions: Vec<u64> = (0..n_sites as u64).map(|i| 100 * (i + 1)).collect();
        let a = Alignment::new(positions, sites, 100 * n_sites as u64 + 100).unwrap();
        let params =
            ScanParams { grid: 1, min_win, max_win: 1_000_000, min_snps_per_side: 2, threads: 1 };
        let plan = GridPlan::plan_at(&a, 100 * (n_sites as u64 / 2) + 50, &params);
        let b = BorderSet::build(&a, &plan, &params).unwrap();
        let mut m = RegionMatrix::new();
        let mut t = MatrixBuildTiming::default();
        m.rebuild(&a, plan.lo, plan.hi, &mut t);
        OmegaTask::extract(&m, &b, &plan)
    }

    #[test]
    fn run_view_matches_run_task() {
        let mut rng = StdRng::seed_from_u64(19);
        let n_sites = 18;
        let sites: Vec<SnpVec> = (0..n_sites)
            .map(|_| loop {
                let calls: Vec<u8> = (0..20).map(|_| rng.gen_range(0..2)).collect();
                let s = SnpVec::from_bits(&calls);
                if !s.is_monomorphic() {
                    break s;
                }
            })
            .collect();
        let positions: Vec<u64> = (0..n_sites as u64).map(|i| 100 * (i + 1)).collect();
        let a = Alignment::new(positions, sites, 100 * n_sites as u64 + 100).unwrap();
        let params = ScanParams {
            grid: 1,
            min_win: 400,
            max_win: 1_000_000,
            min_snps_per_side: 2,
            threads: 1,
        };
        let plan = GridPlan::plan_at(&a, 900, &params);
        let b = BorderSet::build(&a, &plan, &params).unwrap();
        let mut m = RegionMatrix::new();
        let mut t = MatrixBuildTiming::default();
        m.rebuild(&a, plan.lo, plan.hi, &mut t);

        let engine = FpgaOmegaEngine::new(FpgaDevice::zcu102());
        let task = OmegaTask::extract(&m, &b, &plan);
        let via_task = engine.run_workload(&task);
        let via_view = engine.run_workload(&omega_core::TaskView::new(&m, &b, &plan));
        assert_eq!(via_task.cycles, via_view.cycles);
        assert_eq!(via_task.hw_scores, via_view.hw_scores);
        assert_eq!(via_task.sw_scores, via_view.sw_scores);
        let (t_best, v_best) = (via_task.best.unwrap(), via_view.best.unwrap());
        assert_eq!(t_best.omega.to_bits(), v_best.omega.to_bits());
        assert_eq!(t_best.left_border, v_best.left_border);
        assert_eq!(t_best.right_border, v_best.right_border);
    }

    #[test]
    fn functional_matches_cpu_reference() {
        for seed in 0..6 {
            let task = random_task(seed, 18, 0);
            for device in FpgaDevice::paper_targets() {
                let engine = FpgaOmegaEngine::new(device);
                let run = engine.run_workload(&task);
                let r = task.max_reference().unwrap();
                let g = run.best.unwrap();
                assert_eq!(g.omega, r.omega, "seed {seed}");
                assert_eq!(g.left_border, r.left_border, "seed {seed}");
                assert_eq!(g.right_border, r.right_border, "seed {seed}");
                assert_eq!(g.evaluated, r.evaluated, "seed {seed}");
            }
        }
    }

    #[test]
    fn hw_sw_split_respects_unroll() {
        let task = random_task(10, 19, 0);
        let engine = FpgaOmegaEngine::new(FpgaDevice::zcu102());
        let run = engine.run_workload(&task);
        // Per-lb remainders are < unroll each.
        assert_eq!(run.hw_scores % 4, 0);
        assert_eq!(run.hw_scores + run.sw_scores, task.n_combinations());
        assert!(run.sw_scores < 4 * task.ls.len() as u64);
    }

    #[test]
    fn min_win_holes_handled() {
        let task = random_task(11, 18, 800);
        assert!(task.first_valid_rb.iter().any(|&f| f > 0));
        let engine = FpgaOmegaEngine::new(FpgaDevice::alveo_u200());
        let run = engine.run_workload(&task);
        let r = task.max_reference().unwrap();
        assert_eq!(run.best.unwrap().omega, r.omega);
        assert_eq!(run.hw_scores + run.sw_scores, task.n_combinations());
    }

    #[test]
    fn estimate_matches_run_cycles() {
        let task = random_task(12, 20, 0);
        let engine = FpgaOmegaEngine::new(FpgaDevice::zcu102());
        let run = engine.run_workload(&task);
        let n_rb = task.rs.len() as u64;
        let est = engine.estimate(task.first_valid_rb.iter().map(|&f| n_rb - u64::from(f)));
        assert_eq!(run.cycles, est.cycles);
        assert_eq!(run.hw_scores, est.hw_scores);
        assert_eq!(run.sw_scores, est.sw_scores);
        assert!((run.seconds.get() - est.seconds.get()).abs() < 1e-12);
    }

    #[test]
    fn bigger_unroll_fewer_cycles() {
        let counts = vec![3200u64; 10];
        let z = FpgaOmegaEngine::new(FpgaDevice::zcu102()).estimate(counts.clone());
        let a = FpgaOmegaEngine::new(FpgaDevice::alveo_u200()).estimate(counts);
        assert!(a.cycles < z.cycles);
        assert!(a.seconds < z.seconds);
    }

    #[test]
    fn empty_position_costs_nothing() {
        let engine = FpgaOmegaEngine::new(FpgaDevice::zcu102());
        let est = engine.estimate(std::iter::empty());
        assert_eq!(est.cycles, Cycles::ZERO);
        assert_eq!(est.seconds, Seconds::ZERO);
    }

    #[test]
    fn throughput_approaches_peak_with_long_streams() {
        let engine = FpgaOmegaEngine::new(FpgaDevice::alveo_u200());
        let n = 1_000_000u64;
        let est = engine.estimate(std::iter::once(n - n % 32));
        let thr = est.hw_scores as f64 / est.seconds.get();
        let peak = engine.device().peak_scores_per_sec();
        assert!(thr > 0.99 * peak, "thr {thr:e} vs peak {peak:e}");
    }
}
