//! A GPU execution simulator.
//!
//! The paper implements its index on a GeForce GTX TITAN with CUDA 6
//! (§6.1.1) and leans on four CUDA concepts: a *grid of blocks* processed in
//! parallel ("one block per posting list", §4.3), per-block *shared memory*
//! (the compressed warping matrix of Appendix E), *SIMD divergence*
//! serialisation (the reason filtering and verification are separate phases,
//! §4.4), and a GPU *k-selection* kernel (§4.3.3, after Alabi et al.).
//!
//! This environment has no GPU, so — per the substitution policy in
//! DESIGN.md — this crate reproduces the CUDA execution model in software:
//!
//! * [`device::Device::launch`] runs a kernel over a grid of blocks with
//!   real multi-core parallelism, so wall-clock speedups from the index
//!   structure are genuine. Its blocks, like the core's GP column
//!   training, go through [`device::Device::host_map`], the workspace's
//!   one host parallel-for: the caller and scoped worker threads take
//!   items off one shared queue. [`device::Device::launch_chains`] runs a
//!   grid whose blocks form in-order chains, each chain on one worker, so
//!   a block may depend on the blocks before it in its chain and still
//!   report the same work on any host thread count;
//! * every block self-reports its memory traffic and arithmetic through
//!   [`device::BlockCtx`], and a calibrated [`cost`] model converts those
//!   counts into *simulated seconds* on a TITAN-class device, which is what
//!   the experiment harness reports for the paper's Figures 7/8 and Table 4;
//! * [`device::Device`] also models the 6 GB device memory so the
//!   "max sensors per GPU" experiment (Fig 12c) can be reproduced;
//! * [`kselect`] implements the bucket-based k-selection kernel with the
//!   paper's two extensions (one block per query; return all k results).
//!
//! The same cost framework includes a CPU model ([`cost::CpuSpec`]) so the
//! CPU baselines of Figure 7 are simulated under identical assumptions.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod device;
pub mod kselect;

pub use cost::{CostModel, CpuSpec, GpuSpec, KernelStats};
pub use device::{BackendKind, BlockCtx, Device, LaunchReport, SharedMemOverflow};
