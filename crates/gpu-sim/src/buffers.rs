//! Device-buffer geometry for one ω grid position.
//!
//! The paper ships three input buffers per position — `LR` (the per-border
//! LD sums), `km` (the per-border SNP counts) and `TS` (the per-combination
//! total sums) — plus the `omega` output buffer (and `indexes` for
//! Kernel II). All buffers are padded to work-group multiples (§IV-C:
//! "all data buffers transferred to the GPU are padded to a size that is
//! a multiple of the work-group size").

use omega_core::units::Bytes;

use crate::cost::WORK_GROUP_SIZE;
use crate::device::GpuDevice;

/// Which of the two kernels a position is dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Kernel I — one ω score per work-item (low computational loads).
    One,
    /// Kernel II — `WILD` ω scores per work-item (high loads).
    Two,
}

/// Logical dimensions of one position's workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskDims {
    /// Number of left borders.
    pub n_lb: u64,
    /// Number of right borders.
    pub n_rb: u64,
    /// Valid combinations (excluding min-window padding holes).
    pub n_valid: u64,
}

impl TaskDims {
    /// Total combination slots including invalid (padded) ones.
    pub fn slots(&self) -> u64 {
        self.n_lb * self.n_rb
    }

    /// `true` when the sub-region order-switch optimization applies
    /// (§IV-B): the larger side is processed by the inner loop so memory
    /// accesses stay coalesced.
    pub fn order_switched(&self) -> bool {
        self.n_lb > self.n_rb
    }
}

/// Byte-level buffer plan for one position on one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferPlan {
    /// Kernel the plan was laid out for.
    pub kind: KernelKind,
    /// Scheduled work-items (including padding).
    pub items: u64,
    /// ω scores per work-item (`WILD`; 1 for Kernel I).
    pub wild: u64,
    /// Host→device bytes (LR + km + TS + validity vector, padded).
    pub input_bytes: Bytes,
    /// Device→host bytes (omega buffer, plus indexes for Kernel II).
    pub output_bytes: Bytes,
}

fn round_up(v: u64, multiple: u64) -> u64 {
    v.div_ceil(multiple) * multiple
}

impl BufferPlan {
    /// Lays out buffers for Kernel I: one work-item per combination slot,
    /// padded to the work-group size.
    pub fn kernel1(dims: &TaskDims) -> BufferPlan {
        let items = round_up(dims.slots().max(1), WORK_GROUP_SIZE);
        let lr_km = (dims.n_lb + dims.n_rb) * 8; // two f32/u32 planes
        let ts = round_up(dims.slots(), WORK_GROUP_SIZE) * 4;
        let valid = dims.n_lb * 4;
        BufferPlan {
            kind: KernelKind::One,
            items,
            wild: 1,
            input_bytes: Bytes(lr_km + ts + valid),
            output_bytes: Bytes(items * 4),
        }
    }

    /// Lays out buffers for Kernel II: the work-item count is held near
    /// the device's occupancy target and each item computes `WILD`
    /// scores; `TS` is padded out to `items × WILD` (Fig. 5).
    pub fn kernel2(dims: &TaskDims, device: &GpuDevice) -> BufferPlan {
        let slots = dims.slots().max(1);
        let target_items = device.n_thr();
        let wild = slots.div_ceil(target_items).max(1);
        let items = round_up(slots.div_ceil(wild), WORK_GROUP_SIZE);
        let lr_km = (dims.n_lb + dims.n_rb) * 8;
        let ts = items * wild * 4;
        let valid = dims.n_lb * 4;
        BufferPlan {
            kind: KernelKind::Two,
            items,
            wild,
            // Kernel II also ships the per-item load table (Fig. 5's
            // additional buffer).
            input_bytes: Bytes(lr_km + ts + valid + items * 4),
            // Per-item max ω plus its global index.
            output_bytes: Bytes(items * 8),
        }
    }

    /// Scores actually scheduled (≥ the valid combination count).
    pub fn scheduled_scores(&self) -> u64 {
        self.items * self.wild
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims(n_lb: u64, n_rb: u64) -> TaskDims {
        TaskDims { n_lb, n_rb, n_valid: n_lb * n_rb }
    }

    #[test]
    fn kernel1_pads_items_to_work_group() {
        let p = BufferPlan::kernel1(&dims(10, 30)); // 300 slots
        assert_eq!(p.items, 512);
        assert_eq!(p.wild, 1);
        assert_eq!(p.output_bytes, Bytes(512 * 4));
    }

    #[test]
    fn kernel1_input_accounts_all_buffers() {
        let p = BufferPlan::kernel1(&dims(10, 30));
        // LR+km = 40*8, TS = 512*4, valid = 40.
        assert_eq!(p.input_bytes, Bytes(40 * 8 + 512 * 4 + 40));
    }

    #[test]
    fn kernel2_wild_grows_with_load() {
        let d = GpuDevice::tesla_k80();
        let small = BufferPlan::kernel2(&dims(100, 100), &d); // 10k slots
        assert_eq!(small.wild, 1);
        let big = BufferPlan::kernel2(&dims(10_000, 10_000), &d); // 100M slots
        assert!(big.wild > 1);
        // Work-items stay near the occupancy target.
        assert!(big.items <= 2 * d.n_thr());
        assert!(big.scheduled_scores() >= 100_000_000);
    }

    #[test]
    fn kernel2_outputs_item_granular() {
        let d = GpuDevice::tesla_k80();
        let p = BufferPlan::kernel2(&dims(1000, 1000), &d);
        assert_eq!(p.output_bytes, Bytes(p.items * 8));
    }

    #[test]
    fn order_switch_detection() {
        assert!(dims(30, 10).order_switched());
        assert!(!dims(10, 30).order_switched());
        assert!(!dims(10, 10).order_switched());
    }

    #[test]
    fn empty_dims_still_schedule_one_group() {
        let p = BufferPlan::kernel1(&TaskDims { n_lb: 0, n_rb: 0, n_valid: 0 });
        assert_eq!(p.items, WORK_GROUP_SIZE);
    }
}
