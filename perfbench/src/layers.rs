//! The per-layer metric table a traced run reports.
//!
//! Every workload reports every metric; a layer the workload does not
//! reach reads 0 (no work done there), which is the "no change"
//! baseline later changes are compared against.

use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("api.codec_us", "us"),
    ("wire.overhead_us", "us"),
    ("engine.handle_hit_us", "us"),
    ("engine.handle_miss_us", "us"),
    ("memo.hit_rate", "ratio"),
    ("memo.misses", "count"),
    ("intern.reuse_rate", "ratio"),
    ("batch.chunks", "count"),
    ("batch.inline", "count"),
    ("store.disk_hit_rate", "ratio"),
    ("store.writes", "count"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("models.build_graph_us", "us"),
    ("models.graph_nodes", "count"),
    ("sim.stage_latency_us", "us"),
    ("sim.profiles", "count"),
    ("sim.profiling_sim_s", "s"),
    ("search.enumerate_ms", "ms"),
    ("search.intern_ms", "ms"),
    ("search.batch_ms", "ms"),
    ("search.dp_ms", "ms"),
    ("search.truth_ms", "ms"),
    ("search.candidates", "count"),
    ("legality.ms", "ms"),
    ("legality.rejected", "count"),
    ("gnn.features_ms", "ms"),
    ("gnn.forward_ms", "ms"),
    ("gnn.train_epoch_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("quality.plan_regret", "ratio"),
    ("gen.repeat_share", "ratio"),
    ("gen.checked_share", "ratio"),
    ("gen.warm_share", "ratio"),
    ("gen.late_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("defect.full_checked_panics", "count"),
];

/// Measured per-layer values of one traced run.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}
