//! The bridge from the pre-service [`StageLatencyProvider`] world into
//! the service stack — the *only* place the two traits are converted.
//!
//! [`ProviderService`] lifts any provider *into* the stack, and the
//! ground-truth [`SimProfiler`] is a service in its own right. Callers
//! must not hand-roll their own lift code: one conversion point keeps
//! the attribution labels consistent across the workspace.

use predtop_parallel::{PipelinePlan, StageLatencyProvider};
use predtop_sim::SimProfiler;

use crate::{LatencyQuery, LatencyReply, LatencyService, ServiceError};

/// Adapter lifting a [`StageLatencyProvider`] into a named
/// [`LatencyService`].
///
/// Providers are infallible by contract (they always return *some*
/// `f64`), so every query succeeds and is attributed to `name`.
pub struct ProviderService<P> {
    provider: P,
    name: &'static str,
}

impl<P> ProviderService<P> {
    /// Lift `provider` under the attribution label `name`.
    pub fn new(provider: P, name: &'static str) -> ProviderService<P> {
        ProviderService { provider, name }
    }

    /// The wrapped provider.
    pub fn provider(&self) -> &P {
        &self.provider
    }
}

impl<P: StageLatencyProvider> LatencyService for ProviderService<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        Ok(LatencyReply {
            seconds: self.provider.stage_latency(&q.stage, q.mesh, q.config),
            source: self.name,
        })
    }
}

impl LatencyService for SimProfiler {
    fn name(&self) -> &'static str {
        "simulator"
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        // the simulator can cost any (stage, mesh, config) triple, so it
        // is the infallible base of every fallback chain
        Ok(LatencyReply {
            seconds: self.stage_latency(&q.stage, q.mesh, q.config),
            source: self.name(),
        })
    }
}

/// A service that can never answer — the degenerate base of a
/// [`crate::Fallback`] chain, used e.g. when the CLI is asked for a
/// trained predictor but the model file failed to load.
pub struct Unavailable {
    name: &'static str,
    reason: String,
}

impl Unavailable {
    /// A source called `name` that refuses every query with `reason`.
    pub fn new(name: &'static str, reason: impl Into<String>) -> Unavailable {
        Unavailable {
            name,
            reason: reason.into(),
        }
    }
}

impl LatencyService for Unavailable {
    fn name(&self) -> &'static str {
        self.name
    }

    fn query(&self, _q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        Err(ServiceError::Unavailable {
            source: self.name,
            reason: self.reason.clone(),
        })
    }
}

/// Eqn. 4 pipeline latency of `plan`, with every stage latency resolved
/// through `svc` as one batch (so a [`crate::Batched`] layer fans the
/// stages out and a [`crate::Memoize`] layer is populated/consulted).
///
/// Returns the first error if any stage cannot be served.
pub fn plan_latency<S: LatencyService>(plan: &PipelinePlan, svc: &S) -> Result<f64, ServiceError> {
    let queries: Vec<LatencyQuery> = plan
        .stages
        .iter()
        .map(|s| LatencyQuery::new(s.stage, s.mesh, s.config))
        .collect();
    let mut seconds = Vec::with_capacity(queries.len());
    for reply in svc.query_batch(&queries) {
        seconds.push(reply?.seconds);
    }
    Ok(predtop_parallel::pipeline_latency(
        &seconds,
        plan.microbatches,
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use predtop_models::StageSpec;
    use predtop_parallel::{MeshShape, ParallelConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A deterministic pure test provider: latency derived from the
    /// query triple alone.
    pub(crate) struct SyntheticProvider;

    impl StageLatencyProvider for SyntheticProvider {
        fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
            let layers = (stage.end - stage.start) as f64;
            let devices = mesh.num_devices() as f64;
            let ways = config.num_devices() as f64;
            layers * 0.01 / devices + 0.001 * ways
        }
    }

    struct CountingService(Arc<AtomicUsize>);

    impl LatencyService for CountingService {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(LatencyReply {
                seconds: SyntheticProvider.stage_latency(&q.stage, q.mesh, q.config),
                source: "counting",
            })
        }
    }

    /// A service named "counting" whose replies are a pure function of
    /// the query, plus the shared call counter.
    pub(crate) fn counting_service() -> (impl LatencyService, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        (CountingService(calls.clone()), calls)
    }

    /// A service that refuses every query.
    pub(crate) fn failing_service(name: &'static str) -> Unavailable {
        Unavailable::new(name, "synthetic test failure")
    }

    use predtop_models::ModelSpec;
    use predtop_parallel::PlannedStage;

    fn sample_query() -> LatencyQuery {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = 4;
        LatencyQuery::new(
            StageSpec::new(m, 0, 2),
            MeshShape::new(1, 2),
            ParallelConfig::SERIAL,
        )
    }

    #[test]
    fn provider_service_serves_the_provider_value_under_its_label() {
        let q = sample_query();
        let direct = SyntheticProvider.stage_latency(&q.stage, q.mesh, q.config);
        let reply = ProviderService::new(SyntheticProvider, "synthetic")
            .query(&q)
            .unwrap();
        assert_eq!(reply.seconds.to_bits(), direct.to_bits());
        assert_eq!(reply.source, "synthetic");
    }

    #[test]
    fn plan_latency_matches_provider_path() {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = 4;
        let plan = PipelinePlan {
            stages: vec![
                PlannedStage {
                    stage: StageSpec::new(m, 0, 2),
                    mesh: MeshShape::new(1, 1),
                    config: ParallelConfig::SERIAL,
                },
                PlannedStage {
                    stage: StageSpec::new(m, 2, 4),
                    mesh: MeshShape::new(1, 1),
                    config: ParallelConfig::SERIAL,
                },
            ],
            microbatches: 4,
        };
        let via_provider = plan.latency(&SyntheticProvider);
        let via_service =
            plan_latency(&plan, &ProviderService::new(SyntheticProvider, "synthetic")).unwrap();
        assert_eq!(via_provider.to_bits(), via_service.to_bits());
    }
}
