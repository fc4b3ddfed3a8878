//! `omega-gpu-sim` — an OpenCL-style GPU substrate for the ω statistic.
//!
//! The paper evaluates two OpenCL kernels on an AMD Radeon HD8750M and an
//! NVIDIA Tesla K80. Neither device (nor any GPU) is available in this
//! reproduction environment, so this crate substitutes a *device
//! simulator* (see DESIGN.md):
//!
//! * kernels run **functionally** on the host via the same `omega_score`
//!   datapath as the CPU engine — results are bit-identical and verified
//!   against `OmegaTask::max_reference` — while
//! * time is charged by an **analytic device model** whose terms are the
//!   exact mechanisms the paper analyses: per-item dispatch bounds
//!   (Kernel I's plateau), ALU throughput (Kernel II's ceiling), memory
//!   coalescing, work-group padding, PCIe transfers, and cache-tiered
//!   host packing (the Fig. 13 decline).
//!
//! Key entry points:
//! * [`GpuDevice`] — Table II device presets;
//! * [`GpuOmegaEngine`] — Kernel I / Kernel II / dynamic dispatch (Eq. 4);
//! * [`GpuLd`] — the GEMM-formulated LD path of Binder et al.

pub mod buffers;
pub mod cost;
pub mod device;
pub mod kernels;
pub mod ld;
pub mod overlap;

pub use buffers::{BufferPlan, KernelKind, TaskDims};
pub use cost::{CostModel, GpuCost};
pub use device::{table2_rows, GpuDevice, HostCpu};
pub use kernels::{workload_dims, GpuOmegaEngine, KernelRun};
pub use ld::GpuLd;
pub use overlap::{OverlapMode, OverlapSummary, TransferPipeline};
