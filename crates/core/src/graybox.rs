//! The gray-box framework: profile a sample → train per-scenario
//! predictors → predict everything (§VI, Fig. 7).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use predtop_gnn::train::{train_with_threads, TrainConfig, TrainReport};
use predtop_gnn::{Dataset, GraphSample, Split, TrainedPredictor};
use predtop_models::{sample_stages, ModelSpec, StageSpec};
use predtop_parallel::codec::encode_model;
use predtop_parallel::interstage::candidate_submeshes;
use predtop_parallel::{table3_configs, MeshShape, ParallelConfig, StageLatencyProvider};
use predtop_runtime::par_map;
use predtop_service::{LatencyQuery, LatencyReply, LatencyService, ServiceError};
use predtop_sim::SimProfiler;
use predtop_store::{ByteReader, ByteWriter, DecodeError, ObjectKind, Store};
use predtop_tensor::Loss;

use crate::artifacts::{self, ArtifactError};
use crate::predictor::ArchConfig;

/// Configuration of the gray-box workflow.
#[derive(Debug, Clone, Copy)]
pub struct GrayBoxConfig {
    /// How many stage candidates to profile (the paper samples a subset
    /// of all candidates; Alpa would profile every one).
    pub num_profile_stages: usize,
    /// Length cap (in layers) for the sampled training stages — §IV-B1's
    /// "stages of different sizes", biased away from the quadratic-cost
    /// giants.
    pub max_stage_layers: usize,
    /// Predictor architecture.
    pub arch: ArchConfig,
    /// Training protocol.
    pub train: TrainConfig,
    /// Seed for stage sampling and weight init.
    pub seed: u64,
}

impl GrayBoxConfig {
    /// Default single-core protocol with the given architecture.
    pub fn scaled(arch: ArchConfig) -> GrayBoxConfig {
        GrayBoxConfig {
            num_profile_stages: 60,
            max_stage_layers: 6,
            arch,
            train: TrainConfig::quick(40),
            seed: 0,
        }
    }
}

/// One memoized prediction per (stage, scenario); its cell is the
/// single flight concurrent queries for the key wait on.
type PredictionMemo = Mutex<HashMap<(StageSpec, MeshShape, ParallelConfig), Arc<OnceLock<f64>>>>;

/// A fitted PredTOP instance: one trained predictor per (sub-mesh,
/// configuration) scenario, usable as a drop-in
/// [`StageLatencyProvider`] for the inter-stage optimizer.
///
/// Queries run concurrently: each (stage, scenario) forward runs once,
/// outside every lock, and racing queries on one key wait for that
/// forward instead of repeating it. A stage's input sample is built
/// once and shared by its scenarios' forwards.
pub struct PredTop {
    predictors: HashMap<(MeshShape, ParallelConfig), TrainedPredictor>,
    predictions: PredictionMemo,
    /// Input samples of the stages whose scenarios are not all
    /// predicted yet; an entry is dropped with its last forward.
    samples: Mutex<HashMap<StageSpec, Arc<StageSample>>>,
    forwards: AtomicUsize,
    pe_dim: usize,
    /// Wall-clock seconds spent training all scenario predictors,
    /// summed over the scenarios (which train concurrently).
    pub training_seconds: f64,
    /// Wall-clock seconds of inference so far, summed over forwards
    /// (which run concurrently).
    inference_seconds: Mutex<f64>,
    /// Number of stages profiled during the fitting phase.
    pub profiled_stage_count: usize,
    /// Per-scenario training reports.
    pub reports: Vec<(MeshShape, ParallelConfig, TrainReport)>,
}

impl PredTop {
    /// Run the profiling and training phases for `model` on `cluster`:
    /// sample stages, profile them on every (sub-mesh, configuration)
    /// scenario via `profiler` (the cost lands on the profiler's
    /// ledger), and fit one predictor per scenario.
    pub fn fit(
        model: ModelSpec,
        cluster: MeshShape,
        profiler: &SimProfiler,
        cfg: &GrayBoxConfig,
    ) -> PredTop {
        let stages = sample_stages(
            model,
            cfg.num_profile_stages,
            cfg.max_stage_layers,
            cfg.seed,
        );
        assert!(
            stages.len() >= 10,
            "need at least 10 profiled stages to fit a predictor"
        );
        let pe_dim = cfg.arch.pe_dim();

        // Build the (latency-independent) sample matrices once per stage.
        let base_samples: Vec<(StageSpec, GraphSample)> = stages
            .iter()
            .map(|s| {
                let g = profiler.stage_graph(s);
                (*s, GraphSample::new(&g, 1.0, pe_dim))
            })
            .collect();

        // Scenario-level parallelism: every (sub-mesh, configuration)
        // cell is an independent training run, so the fleet fans out
        // over scenarios while each cell trains serially inside (its
        // GEMMs run inline on the worker, so the pool is never
        // oversubscribed, and each cell's weights stay bit-identical to
        // a fully serial fit because its init seed and data order
        // depend only on its enumeration index).
        let scenarios: Vec<(u64, MeshShape, ParallelConfig)> = candidate_submeshes(cluster)
            .into_iter()
            .flat_map(|mesh| table3_configs(mesh).into_iter().map(move |c| (mesh, c)))
            .enumerate()
            .map(|(i, (mesh, config))| (i as u64, mesh, config))
            .collect();
        let fitted = par_map(scenarios, |(scenario_idx, mesh, config)| {
            // profiling phase for this scenario
            let samples: Vec<GraphSample> = base_samples
                .iter()
                .map(|(spec, base)| {
                    let mut s = base.clone();
                    s.latency = profiler.stage_latency(spec, mesh, config);
                    s
                })
                .collect();
            let ds = Dataset::new(samples);
            let split = fit_split(ds.len());

            // training phase
            let started = Instant::now();
            let mut net = cfg.arch.build(cfg.seed.wrapping_add(scenario_idx));
            let (scaler, report) = train_with_threads(net.as_mut(), &ds, &split, &cfg.train, 1);
            let secs = started.elapsed().as_secs_f64();
            profiler.ledger().add_training(secs);
            let predictor = TrainedPredictor { model: net, scaler };
            (mesh, config, predictor, report, secs)
        });

        let mut predictors = HashMap::new();
        let mut reports = Vec::new();
        let mut training_seconds = 0.0;
        for (mesh, config, predictor, report, secs) in fitted {
            training_seconds += secs;
            reports.push((mesh, config, report));
            predictors.insert((mesh, config), predictor);
        }

        PredTop::assemble(predictors, pe_dim, training_seconds, stages.len(), reports)
    }

    fn assemble(
        predictors: HashMap<(MeshShape, ParallelConfig), TrainedPredictor>,
        pe_dim: usize,
        training_seconds: f64,
        profiled_stage_count: usize,
        reports: Vec<(MeshShape, ParallelConfig, TrainReport)>,
    ) -> PredTop {
        PredTop {
            predictors,
            predictions: Mutex::new(HashMap::new()),
            samples: Mutex::new(HashMap::new()),
            forwards: AtomicUsize::new(0),
            pe_dim,
            training_seconds,
            inference_seconds: Mutex::new(0.0),
            profiled_stage_count,
            reports,
        }
    }

    /// [`PredTop::fit`] with a store-backed fast path: look the fitted
    /// snapshot up under [`graybox_snapshot_key`] first, and only run
    /// the (expensive) profile-and-train phases on a miss — writing the
    /// fresh fit behind for the next run. Returns the instance plus
    /// whether it was restored from disk.
    ///
    /// A corrupt or undecodable snapshot (including one whose restored
    /// weights fail the [`ParamStore`
    /// fingerprint](predtop_tensor::ParamStore::fingerprint) seal) is
    /// treated as a miss: the fit recomputes and rewrites the entry.
    /// Restored instances predict bit-identically to the fit they
    /// snapshot, but report zero `training_seconds` and carry no
    /// per-scenario training reports — those describe work this run
    /// did not do.
    pub fn fit_stored(
        model: ModelSpec,
        cluster: MeshShape,
        profiler: &SimProfiler,
        cfg: &GrayBoxConfig,
        store: &Store,
        namespace: &str,
    ) -> (PredTop, bool) {
        let key = graybox_snapshot_key(namespace, model, cluster, cfg);
        if let Ok(Some(bytes)) = store.get(ObjectKind::Model, &key) {
            if let Ok(pt) = decode_graybox(&bytes, cfg) {
                return (pt, true);
            }
        }
        let pt = PredTop::fit(model, cluster, profiler, cfg);
        let _ = store.put(ObjectKind::Model, &key, &encode_graybox(&pt, cfg));
        (pt, false)
    }

    /// Scenarios this instance can predict for.
    pub fn scenarios(&self) -> impl Iterator<Item = &(MeshShape, ParallelConfig)> {
        self.predictors.keys()
    }

    /// Wall-clock seconds of inference so far, summed over forwards:
    /// concurrent forwards each add their own time, so under a parallel
    /// search this can exceed the search's wall-clock (like
    /// [`PredTop::training_seconds`]).
    pub fn inference_seconds(&self) -> f64 {
        *self.inference_seconds.lock()
    }

    /// Predictor forwards run so far: one per distinct (stage,
    /// scenario) ever queried, however many threads raced on it. A pure
    /// function of the set of queries, like
    /// [`SimProfiler::queries_issued`].
    pub fn forwards_issued(&self) -> usize {
        self.forwards.load(Ordering::Relaxed)
    }

    /// Run `predictor`'s forward on `stage`'s sample, building the
    /// sample on the stage's first forward and dropping it after the
    /// last scenario's.
    fn forward(&self, stage: &StageSpec, predictor: &TrainedPredictor) -> f64 {
        let started = Instant::now();
        let entry = Arc::clone(self.samples.lock().entry(*stage).or_default());
        let sample = entry
            .sample
            .get_or_init(|| GraphSample::new(&stage.build_graph(), 1.0, self.pe_dim));
        let pred = predictor.predict(sample).max(1e-9);
        self.forwards.fetch_add(1, Ordering::Relaxed);
        // the memo runs each (stage, scenario) forward exactly once, so
        // the count reaches the scenario count exactly once per stage
        if entry.served.fetch_add(1, Ordering::Relaxed) + 1 == self.predictors.len() {
            self.samples.lock().remove(stage);
        }
        *self.inference_seconds.lock() += started.elapsed().as_secs_f64();
        pred
    }
}

/// A stage's inference sample, built once by the first forward that
/// needs it, with the number of scenario forwards that have used it.
#[derive(Default)]
struct StageSample {
    sample: OnceLock<GraphSample>,
    served: AtomicUsize,
}

/// Version byte heading every gray-box snapshot encoding.
pub const GRAYBOX_ENCODING_VERSION: u8 = 1;

/// Store key for a fitted gray-box snapshot: a pure function of the
/// namespace and everything that determines the fit bit-for-bit — the
/// model, the cluster, and the full [`GrayBoxConfig`] (sampling,
/// architecture, training protocol, seeds). Two processes configured
/// identically derive the same key; any config change misses cleanly.
pub fn graybox_snapshot_key(
    namespace: &str,
    model: ModelSpec,
    cluster: MeshShape,
    cfg: &GrayBoxConfig,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.str(namespace);
    w.str("graybox");
    encode_model(&mut w, &model);
    w.usize(cluster.nodes);
    w.usize(cluster.gpus_per_node);
    w.usize(cfg.num_profile_stages);
    w.usize(cfg.max_stage_layers);
    artifacts::encode_arch(&mut w, &cfg.arch);
    let t = &cfg.train;
    w.usize(t.epochs);
    w.usize(t.batch_size);
    w.f32_bits(t.base_lr);
    w.u8(match t.loss {
        Loss::Mae => 1,
        Loss::Mse => 2,
    });
    w.usize(t.patience);
    match t.clip_norm {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            w.f32_bits(c);
        }
    }
    w.u64(t.seed);
    w.u64(cfg.seed);
    w.into_bytes()
}

/// Encode a fitted instance as a store payload: every per-scenario
/// predictor (in a deterministic scenario order) through
/// [`artifacts::encode_predictor`], each sealed with its weight
/// fingerprint. Wall-clock facts (`training_seconds`, the per-scenario
/// reports) are excluded — they describe one run, not the fit.
pub fn encode_graybox(pt: &PredTop, cfg: &GrayBoxConfig) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(GRAYBOX_ENCODING_VERSION);
    w.usize(pt.profiled_stage_count);
    let mut scenarios: Vec<_> = pt.predictors.iter().collect();
    scenarios
        .sort_by_key(|((mesh, config), _)| (mesh.nodes, mesh.gpus_per_node, config.dp, config.mp));
    w.usize(scenarios.len());
    for ((mesh, config), predictor) in scenarios {
        w.usize(mesh.nodes);
        w.usize(mesh.gpus_per_node);
        w.usize(config.dp);
        w.usize(config.mp);
        w.bytes(&artifacts::encode_predictor(&cfg.arch, predictor));
    }
    w.into_bytes()
}

/// Rebuild a fitted instance from a payload written by
/// [`encode_graybox`]. Every scenario's weights are fingerprint-checked
/// and its declared architecture must match `cfg.arch` — a snapshot
/// from a different configuration is an [`ArtifactError::ArchMismatch`],
/// not a silently wrong predictor.
pub fn decode_graybox(bytes: &[u8], cfg: &GrayBoxConfig) -> Result<PredTop, ArtifactError> {
    let mut r = ByteReader::new(bytes);
    let version = r.u8("graybox version")?;
    if version != GRAYBOX_ENCODING_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            what: "graybox",
            version: version as u64,
        }
        .into());
    }
    let profiled_stage_count = r.usize("graybox profiled stages")?;
    let count = r.usize("graybox scenario count")?;
    let mut predictors = HashMap::new();
    for _ in 0..count {
        let mesh = MeshShape::new(r.usize("scenario nodes")?, r.usize("scenario gpus")?);
        let config = ParallelConfig::new(r.usize("scenario dp")?, r.usize("scenario mp")?);
        let blob = r.bytes("scenario predictor")?;
        let (arch, predictor) = artifacts::decode_predictor(blob)?;
        if arch != cfg.arch {
            return Err(ArtifactError::ArchMismatch);
        }
        predictors.insert((mesh, config), predictor);
    }
    r.finish().map_err(ArtifactError::Decode)?;
    Ok(PredTop::assemble(
        predictors,
        cfg.arch.pe_dim(),
        0.0,
        profiled_stage_count,
        Vec::new(),
    ))
}

/// 90/10 train/validation split over `n` fitted samples (no test part:
/// held-out evaluation happens at the table experiments, not inside the
/// workflow).
fn fit_split(n: usize) -> Split {
    let n_val = (n / 10).max(1);
    Split {
        train: (0..n - n_val).collect(),
        val: (n - n_val..n).collect(),
        test: Vec::new(),
    }
}

impl StageLatencyProvider for PredTop {
    fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
        let Some(predictor) = self.predictors.get(&(mesh, config)) else {
            panic!("no predictor trained for scenario ({mesh:?}, {config:?})");
        };
        let cell = Arc::clone(
            self.predictions
                .lock()
                .entry((*stage, mesh, config))
                .or_default(),
        );
        *cell.get_or_init(|| self.forward(stage, predictor))
    }
}

impl LatencyService for PredTop {
    fn name(&self) -> &'static str {
        "predictor"
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        // unlike the StageLatencyProvider impl (which panics), an
        // unfitted scenario is a recoverable condition here: a Fallback
        // layer degrades that query to the next source
        if !self.predictors.contains_key(&(q.mesh, q.config)) {
            return Err(ServiceError::ScenarioUnsupported {
                source: self.name(),
                mesh: q.mesh,
                config: q.config,
            });
        }
        Ok(LatencyReply {
            seconds: self.stage_latency(&q.stage, q.mesh, q.config),
            source: self.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_cluster::Platform;
    use predtop_gnn::{mean_relative_error, ModelKind};

    fn tiny_model() -> ModelSpec {
        let mut s = ModelSpec::gpt3_1p3b(2);
        s.seq_len = 32;
        s.hidden = 32;
        s.num_heads = 4;
        s.vocab = 64;
        s.num_layers = 6;
        s
    }

    fn tiny_cfg() -> GrayBoxConfig {
        let mut arch = ArchConfig::scaled(ModelKind::DagTransformer);
        arch.layers = 1;
        arch.hidden = 16;
        arch.heads = 2;
        GrayBoxConfig {
            num_profile_stages: 12,
            max_stage_layers: 4,
            arch,
            train: TrainConfig::quick(8),
            seed: 0,
        }
    }

    #[test]
    fn fit_and_predict_end_to_end() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cluster = MeshShape::new(1, 2);
        let pt = PredTop::fit(tiny_model(), cluster, &profiler, &tiny_cfg());
        // scenarios: (1,1) serial + (1,2) {dp, mp} = 3
        assert_eq!(pt.scenarios().count(), 3);
        assert_eq!(pt.profiled_stage_count, 12);
        assert!(pt.training_seconds > 0.0);

        // prediction works for an unseen stage and is positive
        let stage = StageSpec::new(tiny_model(), 0, 5);
        let t = pt.stage_latency(&stage, MeshShape::new(1, 2), ParallelConfig::new(2, 1));
        assert!(t > 0.0);

        // cached: second call must not spend more inference time
        let before = pt.inference_seconds();
        let t2 = pt.stage_latency(&stage, MeshShape::new(1, 2), ParallelConfig::new(2, 1));
        assert_eq!(t, t2);
        assert_eq!(pt.inference_seconds(), before);
    }

    #[test]
    fn predictions_track_ground_truth_direction() {
        // even a briefly-trained predictor must capture the dominant
        // signal: more layers = more latency
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cluster = MeshShape::new(1, 1);
        let mut cfg = tiny_cfg();
        cfg.train = TrainConfig::quick(25);
        let pt = PredTop::fit(tiny_model(), cluster, &profiler, &cfg);
        let mesh = MeshShape::new(1, 1);
        let c = ParallelConfig::SERIAL;
        let short = pt.stage_latency(&StageSpec::new(tiny_model(), 1, 2), mesh, c);
        let long = pt.stage_latency(&StageSpec::new(tiny_model(), 1, 6), mesh, c);
        assert!(
            long > short,
            "predictor missed size trend: short {short}, long {long}"
        );
    }

    #[test]
    fn predictor_mre_on_profiled_stages_is_sane() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cluster = MeshShape::new(1, 1);
        let mut cfg = tiny_cfg();
        cfg.train = TrainConfig::quick(30);
        let pt = PredTop::fit(tiny_model(), cluster, &profiler, &cfg);
        let mesh = MeshShape::new(1, 1);
        let c = ParallelConfig::SERIAL;
        let stages = sample_stages(tiny_model(), 12, 4, 0);
        let (mut preds, mut truth) = (Vec::new(), Vec::new());
        for s in &stages {
            preds.push(pt.stage_latency(s, mesh, c));
            truth.push(profiler.stage_latency(s, mesh, c));
        }
        let mre = mean_relative_error(&preds, &truth);
        assert!(mre < 60.0, "in-sample MRE {mre:.1}% is way off");
    }

    #[test]
    fn racing_and_repeated_queries_forward_once_per_key() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let pt = PredTop::fit(tiny_model(), MeshShape::new(1, 2), &profiler, &tiny_cfg());
        let stage = StageSpec::new(tiny_model(), 0, 5);
        let (mesh, config) = (MeshShape::new(1, 2), ParallelConfig::new(2, 1));
        assert_eq!(pt.forwards_issued(), 0);

        let start = std::sync::Barrier::new(8);
        let answers: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        pt.stage_latency(&stage, mesh, config).to_bits()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(answers.iter().all(|&a| a == answers[0]));
        assert_eq!(
            pt.forwards_issued(),
            1,
            "racing queries on one key forward once"
        );

        let again = pt.stage_latency(&stage, mesh, config);
        assert_eq!(again.to_bits(), answers[0]);
        assert_eq!(pt.forwards_issued(), 1, "a repeated query forwards nothing");

        // every other scenario of the stage adds exactly its own forward,
        // and the stage's sample is dropped after the last one
        for &(m, c) in pt.scenarios() {
            pt.stage_latency(&stage, m, c);
        }
        assert_eq!(pt.forwards_issued(), pt.scenarios().count());
        assert!(
            pt.samples.lock().is_empty(),
            "a fully served stage keeps its sample"
        );
    }

    fn fresh_store(name: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "predtop-graybox-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn fit_stored_restores_bit_identical_predictors() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cluster = MeshShape::new(1, 2);
        let cfg = tiny_cfg();
        let store = fresh_store("fit-stored");

        // cold: fits and writes the snapshot behind
        let (cold, restored) =
            PredTop::fit_stored(tiny_model(), cluster, &profiler, &cfg, &store, "sim:p1:7");
        assert!(!restored, "first fit cannot come from an empty store");
        assert!(cold.training_seconds > 0.0);

        // warm: restored from disk without touching the profiler
        let p2 = SimProfiler::new(Platform::platform1(), 7);
        let before = p2.queries_issued();
        let (warm, restored) =
            PredTop::fit_stored(tiny_model(), cluster, &p2, &cfg, &store, "sim:p1:7");
        assert!(restored, "second fit must restore the snapshot");
        assert_eq!(p2.queries_issued(), before, "restore must not profile");
        assert_eq!(warm.training_seconds, 0.0);
        assert_eq!(warm.profiled_stage_count, cold.profiled_stage_count);
        assert_eq!(warm.scenarios().count(), cold.scenarios().count());

        // predictions are bit-identical across the round trip
        let stage = StageSpec::new(tiny_model(), 0, 5);
        for &(mesh, config) in cold.scenarios() {
            assert_eq!(
                cold.stage_latency(&stage, mesh, config).to_bits(),
                warm.stage_latency(&stage, mesh, config).to_bits(),
                "scenario ({mesh:?}, {config:?}) diverged after restore"
            );
        }

        // a different namespace misses and refits
        let p3 = SimProfiler::new(Platform::platform1(), 7);
        let (_, restored) =
            PredTop::fit_stored(tiny_model(), cluster, &p3, &cfg, &store, "sim:p2:7");
        assert!(!restored, "namespaces must not cross-contaminate");
    }

    #[test]
    fn graybox_snapshot_rejects_foreign_architectures() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cfg = tiny_cfg();
        let pt = PredTop::fit(tiny_model(), MeshShape::new(1, 1), &profiler, &cfg);
        let bytes = encode_graybox(&pt, &cfg);

        // same bytes, different configured architecture: ArchMismatch
        let mut other = cfg;
        other.arch.hidden = 32;
        match decode_graybox(&bytes, &other) {
            Err(crate::artifacts::ArtifactError::ArchMismatch) => {}
            Err(e) => panic!("expected ArchMismatch, got {e:?}"),
            Ok(_) => panic!("expected ArchMismatch, got a decoded instance"),
        }

        // truncations surface as structured errors, never panics
        for cut in (0..bytes.len()).step_by(97) {
            assert!(decode_graybox(&bytes[..cut], &cfg).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn service_query_errors_instead_of_panicking_on_unknown_scenario() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let pt = PredTop::fit(tiny_model(), MeshShape::new(1, 1), &profiler, &tiny_cfg());
        let stage = StageSpec::new(tiny_model(), 0, 2);

        // fitted scenario: the service reply is the provider value
        let q = LatencyQuery::new(stage, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        let reply = pt.query(&q).unwrap();
        assert_eq!(reply.source, "predictor");
        assert_eq!(
            reply.seconds.to_bits(),
            pt.stage_latency(&stage, q.mesh, q.config).to_bits()
        );

        // unfitted scenario: a recoverable error, not a panic
        let q = LatencyQuery::new(stage, MeshShape::new(2, 2), ParallelConfig::new(4, 1));
        match pt.query(&q) {
            Err(ServiceError::ScenarioUnsupported { source, .. }) => {
                assert_eq!(source, "predictor")
            }
            other => panic!("expected ScenarioUnsupported, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "no predictor trained")]
    fn unknown_scenario_panics() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let pt = PredTop::fit(tiny_model(), MeshShape::new(1, 1), &profiler, &tiny_cfg());
        let stage = StageSpec::new(tiny_model(), 0, 1);
        let _ = pt.stage_latency(&stage, MeshShape::new(2, 2), ParallelConfig::new(4, 1));
    }
}
