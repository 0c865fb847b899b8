//! Per-layer probes shared by the serving workloads: timed calls into
//! the public functions of each layer, made from the benchmark's own
//! code on the run's own requests and replies.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use predtop_analyze::StaticLegality;
use predtop_cluster::Platform;
use predtop_core::search::search_legality;
use predtop_models::{ModelSpec, StageSpec};
use predtop_parallel::{
    enumerate_candidates, solve_pipeline, EvaluatedCandidate, InterStageOptions, MeshShape,
    ParallelConfig, StageLatencyProvider,
};
use predtop_service::api::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    SearchSpec, StatsReport,
};
use predtop_service::{LatencyQuery, LatencyService, LedgerValue, ServiceBuilder, ServiceStack};
use predtop_sim::SimProfiler;
use predtop_store::{ObjectKind, Store};

use crate::layers::Layers;
use crate::trace::Tracer;
use crate::util::{mean, Rng};

/// Simulator seed of every profiler the benchmark and its daemons build.
pub const SIM_SEED: u64 = 7;

/// The CLI's `--scaled` shape of a Table IV model: a few milliseconds
/// per search, every layer of the stack still involved.
pub fn scaled_model(moe: bool, layers: usize, batch: usize) -> ModelSpec {
    let mut m = if moe {
        ModelSpec::moe_2p6b(batch)
    } else {
        ModelSpec::gpt3_1p3b(batch)
    };
    m.seq_len = 128;
    m.hidden = 128;
    m.num_heads = 8;
    m.vocab = 2048;
    m.num_layers = layers;
    if let Some(moe) = m.moe.as_mut() {
        moe.num_experts = 8;
        moe.expert_hidden = 256;
    }
    m
}

/// Count fields of the `Stats` ledgers, summed over one or more daemons.
#[derive(Default)]
pub struct LedgerTotals(std::collections::HashMap<(String, String), f64>);

impl LedgerTotals {
    pub fn add(&mut self, report: &StatsReport) {
        for l in &report.ledgers {
            for (field, v) in &l.fields {
                let v = match v {
                    LedgerValue::Count(c) => *c as f64,
                    LedgerValue::Seconds(s) => *s,
                    LedgerValue::Text(_) => continue,
                };
                *self.0.entry((l.name.clone(), field.clone())).or_default() += v;
            }
        }
    }

    fn get(&self, ledger: &str, field: &str) -> f64 {
        self.0
            .get(&(ledger.to_string(), field.to_string()))
            .copied()
            .unwrap_or(0.0)
    }

    /// The memo, interner, batch and store ledgers as per-layer metrics.
    pub fn set_layers(&self, layers: &mut Layers) {
        let hits = self.get("memoize", "cache_hits");
        let misses = self.get("memoize", "cache_misses");
        layers.set("memo.hit_rate", hits / (hits + misses).max(1.0));
        layers.set("memo.misses", misses);
        let lookups = self.get("structural", "structural_lookups");
        let distinct = self.get("structural", "distinct_structures");
        layers.set(
            "intern.reuse_rate",
            if lookups > 0.0 {
                1.0 - distinct / lookups
            } else {
                0.0
            },
        );
        layers.set("batch.chunks", self.get("dispatch", "chunks"));
        layers.set("batch.inline", self.get("dispatch", "inline"));
        let disk_hits = self.get("store", "store_disk_hits");
        let disk_misses = self.get("store", "store_disk_misses");
        layers.set(
            "store.disk_hit_rate",
            disk_hits / (disk_hits + disk_misses).max(1.0),
        );
        layers.set("store.writes", self.get("store", "store_writes"));
    }
}

/// Mean microseconds to encode and decode each request and its reply:
/// client encode, server decode, server encode, client decode.
pub fn codec_us(pairs: &[(Request, Response)], tracer: &Tracer) -> f64 {
    let mut per_pair = Vec::with_capacity(pairs.len());
    for (i, (req, resp)) in pairs.iter().enumerate() {
        let t = Instant::now();
        let span = tracer.span("api.codec", i as u64, None, 0);
        let rb = encode_request(req);
        let back = decode_request(&rb).is_ok();
        let pb = encode_response(resp);
        let resp_back = decode_response(&pb).is_ok();
        span.end();
        per_pair.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box((back, resp_back));
    }
    mean(&per_pair)
}

/// Mean microseconds of public `Store::put` then `Store::get` on this
/// run's plan payloads, in a scratch store under `dir`.
pub fn store_us(
    dir: &std::path::Path,
    plans: &[Vec<u8>],
    tracer: &Tracer,
) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir).map_err(|e| format!("open probe store: {e}"))?;
    let mut put_us = Vec::new();
    let mut get_us = Vec::new();
    for (i, payload) in plans.iter().enumerate() {
        let key = format!("probe:{i}").into_bytes();
        let t = Instant::now();
        {
            let _s = tracer.span("store.put", i as u64, None, 0);
            store
                .put(ObjectKind::Plan, &key, payload)
                .map_err(|e| format!("probe put: {e}"))?;
        }
        put_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let got = {
            let _s = tracer.span("store.get", i as u64, None, 0);
            store
                .get(ObjectKind::Plan, &key)
                .map_err(|e| format!("probe get: {e}"))?
        };
        get_us.push(t.elapsed().as_secs_f64() * 1e6);
        if got.as_deref() != Some(payload.as_slice()) {
            return Err("store probe read back different bytes".into());
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok((mean(&get_us), mean(&put_us)))
}

/// The daemon's simulator stack shape, built fresh in-process: faults,
/// deadline and retry are pass-throughs in the daemon's configuration,
/// so memoize → batched → instrumented is the same computation.
pub type FreshStack = ServiceStack<
    predtop_service::Instrumented<
        predtop_service::Batched<predtop_service::Memoize<Arc<SimProfiler>>>,
    >,
>;

pub fn fresh_stack(profiler: &Arc<SimProfiler>, threads: usize) -> FreshStack {
    ServiceBuilder::new(Arc::clone(profiler))
        .memoize_structural()
        .batched(threads)
        .instrumented()
        .finish()
}

/// Phase timings of one replayed search.
#[derive(Default, Clone, Copy)]
pub struct PhaseTimes {
    pub enumerate_ms: f64,
    pub legality_ms: f64,
    pub rejected: usize,
    pub intern_ms: f64,
    pub batch_ms: f64,
    pub dp_ms: f64,
    pub truth_ms: f64,
    pub candidates: usize,
}

/// Replay one plan search phase by phase through the public calls
/// `search_plan_service` makes, with a span around each phase, and
/// return the phase times.
pub fn replay_search(
    spec: &SearchSpec,
    stack: &FreshStack,
    profiler: &SimProfiler,
    cluster: MeshShape,
    tracer: &Tracer,
    request: u64,
) -> Result<PhaseTimes, String> {
    let mut t = PhaseTimes::default();
    let root = tracer.span("search", request, None, 0);
    let opts = InterStageOptions {
        microbatches: spec.microbatches,
        imbalance_tolerance: spec.imbalance_tolerance,
    };
    let clock = Instant::now();
    let full = {
        let _s = tracer.span("search.enumerate", request, root.id(), 0);
        enumerate_candidates(spec.model, cluster, opts)
    };
    t.enumerate_ms = clock.elapsed().as_secs_f64() * 1e3;
    let enumerated = full.len();
    let worklist = if spec.checked {
        let clock = Instant::now();
        let _s = tracer.span("legality", request, root.id(), 0);
        let legality: StaticLegality = search_legality(spec.model, profiler, opts);
        let kept: Vec<_> = full
            .into_iter()
            .filter(|(s, m, c)| legality.is_legal(s, *m, *c))
            .collect();
        t.legality_ms = clock.elapsed().as_secs_f64() * 1e3;
        t.rejected = enumerated - kept.len();
        kept
    } else {
        full
    };
    t.candidates = worklist.len();
    let queries: Vec<LatencyQuery> = worklist
        .iter()
        .map(|&(s, m, c)| LatencyQuery::new(s, m, c))
        .collect();
    let clock = Instant::now();
    if let Some(interner) = stack.handles().interner.as_ref() {
        let _s = tracer.span("search.intern", request, root.id(), 0);
        for q in &queries {
            interner.warm(&q.stage, q.mesh, q.config);
        }
    }
    t.intern_ms = clock.elapsed().as_secs_f64() * 1e3;
    let clock = Instant::now();
    let replies = {
        let _s = tracer.span("search.batch", request, root.id(), 0);
        stack.query_batch(&queries)
    };
    t.batch_ms = clock.elapsed().as_secs_f64() * 1e3;
    let mut cands = Vec::with_capacity(queries.len());
    for (q, r) in queries.iter().zip(replies) {
        cands.push(EvaluatedCandidate {
            stage: q.stage,
            mesh: q.mesh,
            config: q.config,
            seconds: r.map_err(|e| e.to_string())?.seconds,
        });
    }
    let clock = Instant::now();
    let solved = {
        let _s = tracer.span("search.dp", request, root.id(), 0);
        solve_pipeline(
            &cands,
            spec.model.num_layers,
            cluster.num_devices(),
            spec.microbatches,
        )
    };
    t.dp_ms = clock.elapsed().as_secs_f64() * 1e3;
    let (_, plan) = solved.ok_or("replayed search found no covering plan")?;
    let clock = Instant::now();
    let truth = {
        let _s = tracer.span("search.truth", request, root.id(), 0);
        plan.latency(profiler)
    };
    t.truth_ms = clock.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(truth);
    Ok(t)
}

/// Fold replayed phase times into the per-layer table (means per
/// search; `legality.*` over checked searches only).
pub fn search_layers(times: &[(PhaseTimes, bool)], layers: &mut Layers) {
    let of = |f: fn(&PhaseTimes) -> f64| mean(&times.iter().map(|(t, _)| f(t)).collect::<Vec<_>>());
    layers.set("search.enumerate_ms", of(|t| t.enumerate_ms));
    layers.set("search.intern_ms", of(|t| t.intern_ms));
    layers.set("search.batch_ms", of(|t| t.batch_ms));
    layers.set("search.dp_ms", of(|t| t.dp_ms));
    layers.set("search.truth_ms", of(|t| t.truth_ms));
    layers.set("search.candidates", of(|t| t.candidates as f64));
    let checked: Vec<&PhaseTimes> = times.iter().filter(|(_, c)| *c).map(|(t, _)| t).collect();
    layers.set(
        "legality.ms",
        mean(&checked.iter().map(|t| t.legality_ms).collect::<Vec<_>>()),
    );
    layers.set(
        "legality.rejected",
        mean(
            &checked
                .iter()
                .map(|t| t.rejected as f64)
                .collect::<Vec<_>>(),
        ),
    );
}

/// Time `StageSpec::build_graph` and a cold `SimProfiler::stage_latency`
/// (a fresh profiler per query) on up to `n` distinct queries drawn
/// from `keys` by `seed`. Returns mean µs per graph, mean node count,
/// and mean µs per cold simulation.
pub fn cold_stage_probe(
    mut keys: Vec<(StageSpec, MeshShape, ParallelConfig)>,
    n: usize,
    seed: u64,
    tracer: &Tracer,
) -> (f64, f64, f64) {
    let mut seen = HashSet::new();
    keys.retain(|k| seen.insert(*k));
    Rng::new(seed).fork(13).shuffle(&mut keys);
    keys.truncate(n);
    let (mut graph_us, mut nodes, mut sim_us) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (stage, mesh, config)) in keys.iter().enumerate() {
        let t = Instant::now();
        let g = {
            let _s = tracer.span("models.build_graph", i as u64, None, 0);
            stage.build_graph()
        };
        graph_us.push(t.elapsed().as_secs_f64() * 1e6);
        nodes.push(g.len() as f64);
        let profiler = SimProfiler::new(Platform::platform2(), SIM_SEED);
        let t = Instant::now();
        {
            let _s = tracer.span("sim.stage_latency", i as u64, None, 0);
            std::hint::black_box(profiler.stage_latency(stage, *mesh, *config));
        }
        sim_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (mean(&graph_us), mean(&nodes), mean(&sim_us))
}
