//! Collective communication for the tutel-rs MoE stack.
//!
//! Implements the All-to-All family the paper builds on, in two layers:
//!
//! * a **functional layer** that actually moves `f32`s between per-rank
//!   buffers — bit-exact, used by correctness tests and the end-to-end
//!   model runs at small simulated world sizes; and
//! * a **timing layer** that prices every collective on a
//!   [`tutel_simgpu`] cluster (link α–β models, message-size-dependent
//!   bandwidth, strided-copy penalties) — used by the adaptive
//!   mechanisms and the scaling benchmarks up to 4,096 simulated GPUs.
//!
//! The algorithms:
//!
//! * [`linear_all_to_all`] — NCCL-style point-to-point loop
//!   (Algorithm 1 of the paper), and [`ragged_all_to_all`], its
//!   any-length form: the oracle of the threaded runtime's one
//!   All-to-All, [`runtime::Communicator::ialltoall_v`].
//! * [`two_dh_all_to_all`] — the paper's Two-Dimensional Hierarchical
//!   All-to-All (Algorithm 3): stride-memcpy align, intra-node exchange,
//!   align again, inter-node exchange.
//! * [`naive_local_agg_all_to_all`] — the strawman local-aggregation
//!   algorithm of Figure 15 whose non-contiguous memory access 2DH
//!   eliminates.
//! * [`flex::flex_all_to_all`] — Flexible All-to-All, whose output
//!   layout `(ΔE, C, M)` is independent of world size.
//! * ring [`primitives`]: all-gather, reduce-scatter, all-reduce.

mod algo;
mod error;
pub mod fault;
pub mod flex;
mod linear;
mod local_agg;
pub mod primitives;
pub mod runtime;
#[cfg(feature = "check-sched")]
pub mod sched;
mod stride;
mod timing;
mod world;

pub use algo::AllToAllAlgo;
pub use error::CommError;
pub use fault::{FaultAction, FaultPlan};
pub use linear::{linear_all_to_all, ragged_all_to_all};
pub use local_agg::naive_local_agg_all_to_all;
pub use runtime::{
    run_threaded, run_threaded_with, CommHandle, ReliableConfig, RetryPolicy, RunOpts,
};
pub use stride::stride_memcpy;
pub use timing::{A2aImpl, A2aPhase, CollectiveTiming};
pub use two_dh::two_dh_all_to_all;
pub use world::World;

mod two_dh;

/// Per-rank buffers: `bufs[r]` is the flat row-major payload on rank `r`.
///
/// Every functional collective takes and returns this shape. All ranks
/// must hold equally sized buffers divisible into the per-peer chunks
/// the collective requires.
pub type RankBuffers = Vec<Vec<f32>>;
