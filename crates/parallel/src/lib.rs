//! # predtop-parallel
//!
//! Parallelization plans and plan optimizers — the reproduction of the
//! Alpa machinery PredTOP plugs into.
//!
//! * [`config`] — intra-stage parallelism configurations (Table III):
//!   how many data-parallel replicas × how many model/tensor-parallel
//!   ways a stage runs with on its device mesh.
//! * [`sharding`] — per-operator sharding strategies (replicate, batch-,
//!   row-, column-sharded) and the collectives each transition costs.
//! * [`intra`] — the intra-stage optimizer: picks one sharding strategy
//!   per operator to minimize the stage's execution time on a mesh,
//!   generic over an [`intra::OpCost`] model (implemented by the
//!   simulator; this keeps `predtop-parallel` free of hardware specifics
//!   and lets tests drive the optimizer with synthetic costs).
//! * [`interstage`] — Alpa's inter-operator pass: dynamic programming
//!   over contiguous layer ranges × sub-mesh shapes minimizing the Eqn. 4
//!   pipeline latency, with candidate evaluation fanned out across
//!   worker threads (deterministically — see `predtop-runtime`).
//! * [`cache`] — hit/miss [`CacheStats`] accounting, shared by the
//!   `predtop-service` stack's memoization layer and the Fig. 10 cost
//!   reporting.
//! * [`intern`] — the [`StructuralInterner`]: hash-conses
//!   (stage, sub-mesh, configuration) sub-problems into
//!   [`StructuralKey`]s so memoization can key on *structure* (two
//!   isomorphic interior layer windows share one key) instead of raw
//!   query identity.
//! * [`plan`] — end-to-end pipeline plans and the Eqn. 4 white-box
//!   formula `T = Σ tᵢ + (B−1)·max tⱼ`.
//! * [`codec`] — the canonical byte encoding of model specs and plans,
//!   shared by plan files, store artifacts, and wire replies.
//!
//! The [`StageLatencyProvider`] trait is the gray-box seam of the whole
//! system: the inter-stage optimizer only needs *some* source of stage
//! latencies — full profiling (the simulator), partial profiling, or a
//! trained predictor — and the paper's Fig. 10 experiment is exactly the
//! comparison of those sources.

#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod config;
pub mod intern;
pub mod interstage;
pub mod intra;
pub mod plan;
pub mod schedule;
pub mod sharding;

pub use cache::CacheStats;
pub use config::{table3_configs, MeshShape, ParallelConfig};
pub use intern::{InternStats, StructuralDescriptor, StructuralInterner, StructuralKey};
pub use interstage::{
    enumerate_candidates, optimize_pipeline, optimize_pipeline_with_threads, solve_pipeline,
    EvaluatedCandidate, InterStageOptions, InterStageResult,
};
pub use intra::{IntraPlan, OpCost};
pub use plan::{pipeline_latency, PipelinePlan, PlanError, PlanRule, PlanViolation, PlannedStage};
pub use schedule::{one_f_one_b, Schedule, Slot};

use predtop_models::StageSpec;

/// Source of per-stage optimal latencies — the gray-box seam.
///
/// Implementations: the ground-truth profiler (simulator) and a trained
/// black-box predictor. The inter-stage optimizer calls this for every (stage, sub-mesh,
/// configuration) candidate — from multiple worker threads at once,
/// hence the `Sync` supertrait: a provider must tolerate concurrent
/// `stage_latency` calls (all in-tree providers already memoize behind
/// locks or are pure).
pub trait StageLatencyProvider: Sync {
    /// Optimal execution latency (seconds, forward+backward for one
    /// micro-batch) of `stage` on a `mesh`-shaped sub-mesh under
    /// `config`.
    fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64;
}

impl<P: StageLatencyProvider + ?Sized> StageLatencyProvider for &P {
    fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
        (**self).stage_latency(stage, mesh, config)
    }
}
