//! The GPU LD path: the BLIS-style GEMM formulation of Binder et al.,
//! executed functionally by the tiled popcount GEMM of `omega-ld` and
//! timed by the device's GEMM model.

use omega_core::units::{Bytes, Seconds};
use omega_genome::SnpVec;
use omega_ld::r2_block;

use crate::cost::{CostModel, GpuCost};
use crate::device::GpuDevice;

/// GPU-accelerated LD engine.
#[derive(Debug, Clone)]
pub struct GpuLd {
    model: CostModel,
}

impl GpuLd {
    /// Creates an LD engine for a device.
    pub fn new(device: GpuDevice) -> Self {
        GpuLd { model: CostModel::new(device) }
    }

    /// The underlying device.
    pub fn device(&self) -> &GpuDevice {
        self.model.device()
    }

    /// Computes the r² block `rows × cols` on the simulated device:
    /// results come from the real popcount GEMM; the cost covers packing,
    /// both transfers, and the GEMM kernel — an update of `rows·cols`
    /// pairs shipping `rows + cols` SNPs.
    pub fn run_block(&self, rows: &[SnpVec], cols: &[SnpVec]) -> (Vec<f32>, GpuCost) {
        let _span = omega_obs::span!("gpu.ld.block");
        let r2 = r2_block(rows, cols);
        let n_samples = rows.first().or(cols.first()).map_or(0, SnpVec::n_samples);
        let (n_rows, n_cols) = (rows.len() as u64, cols.len() as u64);
        let cost = self.estimate_update(n_rows * n_cols, n_rows + n_cols, n_samples as u64);
        Self::record(n_rows * n_cols, &cost);
        (r2, cost)
    }

    /// Analytic cost of one scan step's LD update: `new_pairs` r² values
    /// computed against a window, shipping `snps_transferred` packed SNPs
    /// (two bit planes each) to the device. This is the per-grid-position
    /// LD workload of the Fig. 3 flow, where the data-reuse optimization
    /// has already pruned relocated pairs. Records nothing: the
    /// `backend=auto` predictor prices with it too.
    pub fn estimate_update(
        &self,
        new_pairs: u64,
        snps_transferred: u64,
        n_samples: u64,
    ) -> GpuCost {
        let words = n_samples.div_ceil(64).max(1);
        let snp_bytes = Bytes(snps_transferred * words * 8 * 2);
        let out_bytes = Bytes(new_pairs * 4);
        GpuCost {
            host_prep: self.model.host_prep_time(snp_bytes),
            h2d: self.model.transfer_time(snp_bytes),
            kernel: self.model.gemm_time(new_pairs, words),
            d2h: self.model.transfer_time(out_bytes),
            host_reduce: Seconds::ZERO,
            transfer_bytes: snp_bytes + out_bytes,
        }
    }

    /// Accounts one executed update of `pairs` r² values costing `cost`
    /// to the metrics registry (`gpu.ld.pairs`, `gpu.transfer.bytes`).
    /// The one place the LD engine records work.
    pub fn record(pairs: u64, cost: &GpuCost) {
        omega_obs::counter!("gpu.ld.pairs").add(pairs);
        omega_obs::counter!("gpu.transfer.bytes").add(cost.transfer_bytes.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_ld::r2_sites;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sites(n: usize, samples: usize, seed: u64) -> Vec<SnpVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let calls: Vec<u8> = (0..samples).map(|_| rng.gen_range(0..2)).collect();
                SnpVec::from_bits(&calls)
            })
            .collect()
    }

    #[test]
    fn functional_results_match_scalar() {
        let rows = sites(7, 40, 1);
        let cols = sites(9, 40, 2);
        let ld = GpuLd::new(GpuDevice::tesla_k80());
        let (r2, cost) = ld.run_block(&rows, &cols);
        for i in 0..rows.len() {
            for j in 0..cols.len() {
                assert_eq!(r2[i * cols.len() + j], r2_sites(&rows[i], &cols[j]));
            }
        }
        assert!(cost.total().get() > 0.0);
    }

    #[test]
    fn cost_scales_with_samples() {
        let ld = GpuLd::new(GpuDevice::tesla_k80());
        let small = ld.estimate_update(1000 * 1000, 1000 + 1000, 64);
        let big = ld.estimate_update(1000 * 1000, 1000 + 1000, 64_000);
        assert!(big.kernel.get() > 10.0 * small.kernel.get());
        assert!(big.h2d > small.h2d);
    }

    #[test]
    fn cost_scales_with_pairs() {
        let ld = GpuLd::new(GpuDevice::radeon_hd8750m());
        let small = ld.estimate_update(100 * 100, 100 + 100, 1000);
        let big = ld.estimate_update(10_000 * 100, 10_000 + 100, 1000);
        assert!(big.kernel > small.kernel);
        assert!(big.d2h > small.d2h);
    }

    #[test]
    fn k80_gemm_faster_than_radeon() {
        let k = GpuLd::new(GpuDevice::tesla_k80());
        let r = GpuLd::new(GpuDevice::radeon_hd8750m());
        let a = k.estimate_update(5_000 * 5_000, 5_000 + 5_000, 10_000);
        let b = r.estimate_update(5_000 * 5_000, 5_000 + 5_000, 10_000);
        assert!(a.kernel < b.kernel);
    }
}
