//! The serving engine behind `predtop serve` — and behind the CLI.
//!
//! [`ServeEngine`] executes the unified [`Request`]/[`Response`] API of
//! `predtop_service::api` against long-lived service stacks: one
//! simulator-backed stack (the `profile`/`search` path, with the full
//! chaos-capable layer order of DESIGN.md §10 and the optional disk
//! tier of §13) and one predictor-backed stack (the `predict` path,
//! predictor → analytic fallback). The CLI commands and the framed wire
//! protocol construct the **same** `Request` values and hand them to
//! the **same** [`ServeEngine::handle`] — so a reply served over a
//! socket is bit-identical to the reply the CLI prints, by
//! construction rather than by convention.
//!
//! Admission control sits in front of every *work* request (`Profile`,
//! `Search`, `Predict`): the [`AdmissionControl`] handle runs the exact
//! closed/open/half-open machine of the in-stack `CircuitBreaker`, fed
//! by request outcomes, so a failing latency source trips the breaker
//! and subsequent requests are shed with [`ErrorKind::Shed`] instead of
//! queuing behind a source that cannot answer. `Stats` and `Shutdown`
//! are admission-exempt: observability and drain must keep working
//! while the server sheds load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use predtop_cluster::Platform;
use predtop_gnn::{GraphSample, TrainedPredictor};
use predtop_parallel::{InterStageOptions, MeshShape};
use predtop_runtime::configured_threads;
use predtop_service::api::{
    ErrorBody, ErrorKind, LedgerSnapshot, ProfileSpec, Request, Response, SearchResult, SearchSpec,
    StatsReport,
};
use predtop_service::{
    AdmissionControl, BreakerConfig, DeadlinePolicy, FaultConfig, LatencyQuery, LatencyReply,
    LatencyService, RetryPolicy, Retryability, ServiceBuilder, ServiceError, ServiceReport,
    ServiceStack, Unavailable,
};
use predtop_sim::SimProfiler;
use predtop_store::hash::digest_bytes;
use predtop_store::Store;

use crate::analytic::AnalyticBaseline;
use crate::artifacts::decode_predictor;
use crate::search::{persist_search_snapshots, search_legality, search_plan_service, SearchError};

/// Everything that shapes one serving engine: the platform and seed the
/// simulator runs, the stack knobs the `search` command exposes as
/// flags, the admission breaker, and the optional saved predictor the
/// `predict` path loads. Properties of the *engine*, not of individual
/// requests — every client of one server queries the same platform
/// through the same stack.
#[derive(Clone)]
pub struct EngineConfig {
    /// Hardware platform the simulator models.
    pub platform: Platform,
    /// The platform's numeric id (`"1"` | `"2"`), for store-key
    /// namespaces — replies simulated on different platforms must never
    /// collide.
    pub platform_id: String,
    /// Simulator seed.
    pub seed: u64,
    /// Evaluation worker threads for the `Batched` layer.
    pub threads: usize,
    /// Optional disk tier: latency replies, plan snapshots, and outcome
    /// snapshots persist into this content-addressed store.
    pub store: Option<Arc<Store>>,
    /// Injected transient-fault rate in `[0, 1]` (0 = pass-through);
    /// [`ServeEngine::new`] rejects anything else.
    pub fault_rate: f64,
    /// Fault-injection hash seed.
    pub fault_seed: u64,
    /// Retry budget for transient failures.
    pub retries: usize,
    /// Optional per-query latency budget in seconds; [`ServeEngine::new`]
    /// rejects a negative or non-finite one.
    pub deadline: Option<f64>,
    /// Admission-control breaker configuration.
    pub breaker: BreakerConfig,
    /// Optional saved-predictor file backing the `Predict` path; absent,
    /// predictions degrade to the analytic baseline.
    pub model_path: Option<String>,
}

impl EngineConfig {
    /// A default engine for `platform`: `configured_threads()` workers,
    /// no disk tier, every fault-tolerance layer a pass-through, the
    /// default breaker, no saved predictor.
    pub fn new(platform: Platform, platform_id: impl Into<String>, seed: u64) -> EngineConfig {
        EngineConfig {
            platform,
            platform_id: platform_id.into(),
            seed,
            threads: configured_threads(),
            store: None,
            fault_rate: 0.0,
            fault_seed: 0,
            retries: 0,
            deadline: None,
            breaker: BreakerConfig::default(),
            model_path: None,
        }
    }

    /// Store-key namespace of the simulator-backed paths:
    /// `sim:<platform>:<seed>` — shared with the CLI's `profile` and
    /// `search`, so a served search warms the store for later runs.
    pub fn sim_namespace(&self) -> String {
        format!("sim:{}:{}", self.platform_id, self.seed)
    }
}

/// A predictor restored from disk, lifted into the service stack: every
/// query rebuilds the stage graph and serves the DAG-Transformer
/// estimate, attributed to `"predictor"`.
struct SavedModelService {
    predictor: TrainedPredictor,
    pe_dim: usize,
}

impl LatencyService for SavedModelService {
    fn name(&self) -> &'static str {
        "predictor"
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        let sample = GraphSample::new(&q.stage.build_graph(), 1.0, self.pe_dim);
        Ok(LatencyReply {
            seconds: self.predictor.predict(&sample),
            source: self.name(),
        })
    }
}

/// Load a saved predictor as a service, or a named [`Unavailable`] that
/// carries the load failure into the fallback chain (the analytic
/// baseline answers instead of the command aborting).
pub fn load_model_service(path: &str) -> Box<dyn LatencyService + Send + Sync> {
    let attempt = || -> Result<SavedModelService, String> {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let (arch, predictor) = decode_predictor(&bytes).map_err(|e| e.to_string())?;
        Ok(SavedModelService {
            predictor,
            pe_dim: arch.pe_dim(),
        })
    };
    match attempt() {
        Ok(svc) => Box::new(svc),
        Err(reason) => {
            eprintln!("model load failed ({reason}); degrading to the analytic baseline");
            Box::new(Unavailable::new("predictor", reason))
        }
    }
}

/// The type-erased stacks a long-lived engine holds.
type BoxedStack = ServiceStack<Box<dyn LatencyService + Send + Sync>>;

/// One request-execution engine: the single implementation behind the
/// CLI commands, the `predtop serve` wire protocol, and the tests.
///
/// Determinism contract: the engine adds no layer that changes query
/// *values*, so every [`Response`] is bit-identical to the same request
/// executed against a freshly built in-process stack with the same
/// [`EngineConfig`] — the serving integration tests pin exactly that.
pub struct ServeEngine {
    config: EngineConfig,
    profiler: Arc<SimProfiler>,
    stack: BoxedStack,
    predict_stack: BoxedStack,
    admission: AdmissionControl,
    served: AtomicU64,
    shed: AtomicU64,
    draining: AtomicBool,
}

impl ServeEngine {
    /// Assemble the engine's stacks from `config`. This is one of the two
    /// places a search stack is assembled (the other is
    /// [`crate::run_search`]), and the layer order is fixed here rather
    /// than configurable. A config with a fault rate outside `[0, 1]` or
    /// a negative or non-finite deadline is refused with a message.
    pub fn new(config: EngineConfig) -> Result<ServeEngine, String> {
        if !(0.0..=1.0).contains(&config.fault_rate) {
            return Err(format!(
                "the injected fault rate must be a probability in [0, 1], got {}",
                config.fault_rate
            ));
        }
        if let Some(budget) = config.deadline.filter(|b| !(b.is_finite() && *b >= 0.0)) {
            return Err(format!(
                "the per-query deadline must be a finite, non-negative number of seconds, got {budget}"
            ));
        }
        let profiler = Arc::new(SimProfiler::new(config.platform.clone(), config.seed));

        // the fixed chaos-capable stack (DESIGN.md §10): faults
        // innermost, the deadline polices each attempt, the retry loop
        // absorbs transient failures, then persistence, memoization,
        // fan-out, and instrumentation see the (now reliable) service
        let builder = ServiceBuilder::new(Arc::clone(&profiler))
            .inject_faults(FaultConfig::errors(config.fault_seed, config.fault_rate))
            .deadline(DeadlinePolicy {
                per_query_seconds: config.deadline,
                per_batch_seconds: None,
            })
            .retry(RetryPolicy::retries(config.retries));
        let builder = match &config.store {
            Some(store) => builder
                .persist(Arc::clone(store), config.sim_namespace())
                .boxed(),
            None => builder.boxed(),
        };
        let stack = builder
            .memoize_structural()
            .batched(config.threads)
            .instrumented()
            .boxed()
            .finish();

        // predictor → analytic fallback chain: a missing or undecodable
        // model file degrades the answer instead of failing the request
        let base: Box<dyn LatencyService + Send + Sync> = match &config.model_path {
            Some(path) => load_model_service(path),
            None => Box::new(Unavailable::new("predictor", "no model configured")),
        };
        let predict_builder = ServiceBuilder::new(base)
            .or_fallback_to(AnalyticBaseline::new(config.platform.clone()));
        let predict_builder = match &config.store {
            Some(store) => {
                // the namespace ties persisted answers to the exact
                // model weights (file digest) and fallback platform, so
                // swapping the model file can never serve stale
                // predictions
                let weights = match config.model_path.as_deref().map(std::fs::read) {
                    Some(Ok(bytes)) => digest_bytes(&bytes).to_hex(),
                    _ => "unloadable".to_string(),
                };
                let ns = format!("predict:{}:{}", config.platform_id, weights);
                predict_builder.persist(Arc::clone(store), ns).boxed()
            }
            None => predict_builder.boxed(),
        };
        let predict_stack = predict_builder.memoize().boxed().finish();

        let admission = AdmissionControl::new(config.breaker);
        Ok(ServeEngine {
            config,
            profiler,
            stack,
            predict_stack,
            admission,
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        })
    }

    /// Execute one request. Infallible at this level: failures come
    /// back as [`Response::Error`], never as a crash of the engine.
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Profile(spec) => self.stage_query(spec, &self.stack),
            Request::Predict(spec) => self.stage_query(spec, &self.predict_stack),
            Request::Search(spec) => self.search(spec),
            Request::Stats => Response::Stats(self.stats_report()),
            Request::Shutdown => {
                self.draining.store(true, Ordering::SeqCst);
                Response::Bye
            }
        }
    }

    fn stage_query(&self, spec: &ProfileSpec, stack: &BoxedStack) -> Response {
        if let Some(rejection) = validate_stage(spec) {
            return rejection;
        }
        if let Err(cooldown) = self.admission.try_admit() {
            return self.shed_response(cooldown);
        }
        let query = LatencyQuery::new(spec.stage(), spec.mesh, spec.config);
        let result = stack.query(&query);
        self.admission.record(result.is_ok());
        match result {
            Ok(reply) => {
                self.served.fetch_add(1, Ordering::SeqCst);
                Response::Latency {
                    seconds: reply.seconds,
                    source: reply.source.to_string(),
                }
            }
            Err(e) => Response::Error(error_body(&e)),
        }
    }

    fn search(&self, spec: &SearchSpec) -> Response {
        if spec.microbatches == 0 {
            return bad_request("search requires at least one micro-batch".to_string());
        }
        if spec.checked && !spec.model.batch.is_multiple_of(spec.microbatches) {
            // P1301 rejects *every* candidate, so a checked search can
            // never find a covering partition — refuse up front instead
            // of panicking the engine
            return bad_request(format!(
                "checked search rejected up front: {} micro-batches do not divide batch {}",
                spec.microbatches, spec.model.batch
            ));
        }
        if let Err(cooldown) = self.admission.try_admit() {
            return self.shed_response(cooldown);
        }
        let opts = InterStageOptions {
            microbatches: spec.microbatches,
            imbalance_tolerance: spec.imbalance_tolerance,
        };
        let cluster = MeshShape::new(
            self.config.platform.max_nodes,
            self.config.platform.gpus_per_node,
        );
        let legality = spec
            .checked
            .then(|| search_legality(spec.model, &self.profiler, opts));
        let result = search_plan_service(
            spec.model,
            cluster,
            &self.stack,
            &self.profiler,
            opts,
            legality.as_ref(),
        );
        // a search with no legal plan is answered with a refusal: the
        // engine worked, so the breaker does not count it as a failure
        self.admission
            .record(!matches!(result, Err(SearchError::Service(_))));
        match result {
            Ok(out) => {
                self.served.fetch_add(1, Ordering::SeqCst);
                if let Some(store) = &self.config.store {
                    persist_search_snapshots(
                        store,
                        &self.config.sim_namespace(),
                        spec.model,
                        cluster,
                        opts,
                        spec.checked,
                        &out,
                    );
                }
                Response::Search(SearchResult {
                    plan: out.plan,
                    estimated_latency: out.estimated_latency,
                    true_latency: out.true_latency,
                    num_queries: out.num_queries,
                    num_rejected: out.num_rejected,
                    num_rejected_memory: out.num_rejected_memory,
                })
            }
            Err(SearchError::Service(e)) => Response::Error(error_body(&e)),
            Err(e @ SearchError::NoPlan { .. }) => bad_request(e.to_string()),
        }
    }

    fn shed_response(&self, cooldown: u64) -> Response {
        self.shed.fetch_add(1, Ordering::SeqCst);
        Response::Error(ErrorBody {
            kind: ErrorKind::Shed,
            transient: true,
            message: format!(
                "admission control open ({cooldown} rejections until half-open probe)"
            ),
        })
    }

    /// The live stats snapshot a [`Request::Stats`] serializes: request
    /// counters, drain state, and every installed ledger of the serving
    /// stack plus the admission breaker — rendered through the same
    /// [`predtop_service::Ledger`] surface the CLI prints from.
    pub fn stats_report(&self) -> StatsReport {
        let report = self.report();
        let mut ledgers: Vec<LedgerSnapshot> = report
            .ledgers()
            .into_iter()
            .map(LedgerSnapshot::of)
            .collect();
        let admission = self.admission.stats();
        ledgers.push(LedgerSnapshot::of(&admission));
        StatsReport {
            served: self.served.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            draining: self.draining.load(Ordering::SeqCst),
            ledgers,
        }
    }

    /// Per-layer accounting of the simulator-backed serving stack.
    pub fn report(&self) -> ServiceReport {
        ServiceReport::from_handles(self.stack.handles())
    }

    /// Per-layer accounting of the predictor-backed stack.
    pub fn predict_report(&self) -> ServiceReport {
        ServiceReport::from_handles(self.predict_stack.handles())
    }

    /// The ground-truth simulator the engine profiles and re-evaluates
    /// against (its profiling ledger backs the CLI's bill line).
    pub fn profiler(&self) -> &SimProfiler {
        &self.profiler
    }

    /// The configuration the engine was assembled from.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Requests served successfully since startup.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }

    /// Requests shed by admission control since startup.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::SeqCst)
    }

    /// True once a `Shutdown` request began graceful drain.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

fn bad_request(message: String) -> Response {
    Response::Error(ErrorBody {
        kind: ErrorKind::BadRequest,
        transient: false,
        message,
    })
}

fn validate_stage(spec: &ProfileSpec) -> Option<Response> {
    if spec.start >= spec.end || spec.end > spec.model.num_layers {
        return Some(bad_request(format!(
            "stage window {}..{} is not a valid layer range of a {}-layer model",
            spec.start, spec.end, spec.model.num_layers
        )));
    }
    if spec.config.num_devices() != spec.mesh.num_devices() {
        return Some(bad_request(format!(
            "config dp*mp = {} does not fill mesh {} ({} devices)",
            spec.config.num_devices(),
            spec.mesh.label(),
            spec.mesh.num_devices()
        )));
    }
    None
}

/// Map a stack failure onto the wire's coarse error classes; the
/// rendered `ServiceError` rides along as the message.
fn error_body(e: &ServiceError) -> ErrorBody {
    let kind = match e {
        ServiceError::Unavailable { .. } => ErrorKind::Unavailable,
        ServiceError::ScenarioUnsupported { .. } => ErrorKind::Unsupported,
        ServiceError::InjectedFault { .. } => ErrorKind::Fault,
        ServiceError::DeadlineExceeded { .. } => ErrorKind::Deadline,
        ServiceError::CircuitOpen { .. } => ErrorKind::Shed,
    };
    ErrorBody {
        kind,
        transient: matches!(e.retryability(), Retryability::Transient),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::ParallelConfig;
    use predtop_service::api;

    fn tiny_model() -> ModelSpec {
        let mut s = ModelSpec::gpt3_1p3b(2);
        s.seq_len = 32;
        s.hidden = 32;
        s.num_heads = 4;
        s.vocab = 64;
        s.num_layers = 6;
        s
    }

    fn tiny_engine() -> ServeEngine {
        ServeEngine::new(EngineConfig::new(Platform::platform1(), "1", 7)).unwrap()
    }

    #[test]
    fn a_model_file_that_fails_to_load_feeds_the_fallback_chain() {
        use predtop_parallel::StageLatencyProvider;
        // missing, undecodable, or sealed-wrong files all load as the
        // same named `Unavailable`...
        let broken = load_model_service("/nonexistent/predtop-model.bin");
        // ...which slots into the predictor → analytic chain instead of
        // aborting the caller
        let analytic = AnalyticBaseline::new(Platform::platform1());
        let stack = ServiceBuilder::new(broken)
            .or_fallback_to(&analytic)
            .finish();
        let stage = StageSpec::new(tiny_model(), 0, 2);
        let q = LatencyQuery::new(stage, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        let reply = stack.query(&q).expect("the fallback absorbs the failure");
        assert_eq!(reply.source, "analytic");
        assert_eq!(
            reply.seconds.to_bits(),
            analytic
                .stage_latency(&stage, MeshShape::new(1, 1), ParallelConfig::SERIAL)
                .to_bits()
        );
        let fb = stack.handles().fallback.clone().expect("fallback handle");
        assert_eq!(fb.stats().primary_served, 0);
        assert_eq!(fb.stats().fallback_served, 1);
    }

    #[test]
    fn profile_reply_is_bit_identical_to_a_direct_stack() {
        let engine = tiny_engine();
        let spec = api::ProfileSpec {
            model: tiny_model(),
            start: 0,
            end: 3,
            mesh: MeshShape::new(1, 2),
            config: ParallelConfig::new(2, 1),
        };
        let direct = {
            let profiler = SimProfiler::new(Platform::platform1(), 7);
            let stack = ServiceBuilder::new(&profiler).finish();
            stack
                .query(&LatencyQuery::new(spec.stage(), spec.mesh, spec.config))
                .unwrap()
        };
        match engine.handle(&Request::Profile(spec)) {
            Response::Latency { seconds, source } => {
                assert_eq!(seconds.to_bits(), direct.seconds.to_bits());
                assert_eq!(source, direct.source);
            }
            other => panic!("expected latency, got {other:?}"),
        }
        assert_eq!(engine.served(), 1);
    }

    #[test]
    fn search_reply_is_bit_identical_to_run_search() {
        let engine = tiny_engine();
        let spec = api::SearchSpec {
            model: tiny_model(),
            microbatches: 4,
            imbalance_tolerance: None,
            checked: false,
        };
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cluster = MeshShape::new(
            Platform::platform1().max_nodes,
            Platform::platform1().gpus_per_node,
        );
        let opts = InterStageOptions {
            microbatches: 4,
            imbalance_tolerance: None,
        };
        let reference = crate::search::run_search(
            &crate::search::SearchRequest::new(tiny_model(), cluster, opts),
            &profiler,
            &profiler,
        )
        .expect("the simulator serves every scenario");
        match engine.handle(&Request::Search(spec)) {
            Response::Search(result) => {
                assert_eq!(result.plan, reference.plan);
                assert_eq!(
                    result.estimated_latency.to_bits(),
                    reference.estimated_latency.to_bits()
                );
                assert_eq!(
                    result.true_latency.to_bits(),
                    reference.true_latency.to_bits()
                );
                assert_eq!(result.num_queries, reference.num_queries);
            }
            other => panic!("expected search result, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected_without_touching_admission() {
        let engine = tiny_engine();
        let bad_window = api::ProfileSpec {
            model: tiny_model(),
            start: 4,
            end: 2,
            mesh: MeshShape::new(1, 1),
            config: ParallelConfig::SERIAL,
        };
        match engine.handle(&Request::Profile(bad_window)) {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::BadRequest);
                assert!(!e.transient);
            }
            other => panic!("expected error, got {other:?}"),
        }
        let bad_fill = api::ProfileSpec {
            model: tiny_model(),
            start: 0,
            end: 3,
            mesh: MeshShape::new(1, 2),
            config: ParallelConfig::SERIAL,
        };
        match engine.handle(&Request::Predict(bad_fill)) {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::BadRequest);
                assert!(e.message.contains("does not fill mesh"));
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(engine.served(), 0);
        assert_eq!(engine.shed(), 0);
    }

    #[test]
    fn injected_faults_trip_admission_and_shed_further_requests() {
        let mut config = EngineConfig::new(Platform::platform1(), "1", 7);
        config.fault_rate = 1.0;
        config.breaker = BreakerConfig::tripping_after(2);
        let engine = ServeEngine::new(config).unwrap();
        let spec = api::ProfileSpec {
            model: tiny_model(),
            start: 0,
            end: 3,
            mesh: MeshShape::new(1, 1),
            config: ParallelConfig::SERIAL,
        };
        // every query fails with the injected fault until two failures
        // trip the admission machine...
        for _ in 0..2 {
            match engine.handle(&Request::Profile(spec.clone())) {
                Response::Error(e) => assert_eq!(e.kind, ErrorKind::Fault),
                other => panic!("expected injected fault, got {other:?}"),
            }
        }
        // ...after which requests are shed without touching the stack
        match engine.handle(&Request::Profile(spec.clone())) {
            Response::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Shed);
                assert!(e.transient);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert!(engine.shed() > 0);
        let stats = engine.stats_report();
        assert_eq!(stats.shed, engine.shed());
        assert!(
            stats.ledgers.iter().any(|l| l.name == "breaker"),
            "admission ledger rides along"
        );
    }

    #[test]
    fn a_search_with_no_legal_plan_is_refused_without_tripping_admission() {
        // a device too small for any stage: the memory rule rejects
        // every candidate, so no covering partition survives
        let mut platform = Platform::platform1();
        platform.gpu.memory_gib = 1e-6;
        let mut config = EngineConfig::new(platform, "tiny-gpu", 7);
        config.breaker = BreakerConfig::tripping_after(1);
        let engine = ServeEngine::new(config).unwrap();
        let spec = api::SearchSpec {
            model: tiny_model(),
            microbatches: 2,
            imbalance_tolerance: None,
            checked: true,
        };
        // with a one-failure breaker, a refusal counted as a failure
        // would shed the second request
        for _ in 0..3 {
            match engine.handle(&Request::Search(spec.clone())) {
                Response::Error(e) => {
                    assert_eq!(e.kind, ErrorKind::BadRequest);
                    assert!(!e.transient, "no legal plan is permanent");
                    assert!(e.message.contains("no legal plan"), "{}", e.message);
                }
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
        assert_eq!(engine.shed(), 0);
        assert_eq!(engine.served(), 0);
    }

    #[test]
    fn out_of_range_configs_are_refused_with_a_message() {
        for (rate, deadline) in [
            (1.5, None),
            (f64::NAN, None),
            (0.0, Some(-0.005)),
            (0.0, Some(f64::NAN)),
            (0.0, Some(f64::INFINITY)),
        ] {
            let mut config = EngineConfig::new(Platform::platform1(), "1", 7);
            config.fault_rate = rate;
            config.deadline = deadline;
            let err = ServeEngine::new(config)
                .err()
                .expect("an out-of-range config must be refused");
            assert!(
                err.contains("probability") || err.contains("deadline"),
                "{err}"
            );
        }
        let mut zero = EngineConfig::new(Platform::platform1(), "1", 7);
        zero.deadline = Some(0.0);
        assert!(ServeEngine::new(zero).is_ok(), "a zero budget is legal");
    }

    #[test]
    fn shutdown_acknowledges_and_marks_draining() {
        let engine = tiny_engine();
        assert!(!engine.draining());
        assert_eq!(engine.handle(&Request::Shutdown), Response::Bye);
        assert!(engine.draining());
        match engine.handle(&Request::Stats) {
            Response::Stats(s) => assert!(s.draining),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn predict_without_a_model_degrades_to_the_analytic_baseline() {
        let engine = tiny_engine();
        let spec = api::ProfileSpec {
            model: tiny_model(),
            start: 0,
            end: 3,
            mesh: MeshShape::new(1, 1),
            config: ParallelConfig::SERIAL,
        };
        match engine.handle(&Request::Predict(spec)) {
            Response::Latency { source, .. } => assert_eq!(source, "analytic"),
            other => panic!("expected latency, got {other:?}"),
        }
        let report = engine.predict_report();
        let fallback = report.fallback.expect("fallback layer installed");
        assert_eq!(fallback.fallback_served, 1);
    }
}
