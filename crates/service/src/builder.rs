//! [`ServiceBuilder`]: assemble a middleware stack layer by layer while
//! keeping shared handles to each layer's counters.

use std::sync::Arc;

use crate::batched::{BatchHandle, Batched, DispatchPolicy};
use crate::breaker::{BreakerConfig, BreakerHandle, CircuitBreaker};
use crate::bridge::ProviderService;
use crate::deadline::{Deadline, DeadlineHandle, DeadlinePolicy};
use crate::fallback::Fallback;
use crate::fault::{FaultConfig, FaultHandle, FaultInject};
use crate::instrument::Instrumented;
use crate::memoize::{CacheHandle, Memoize};
use crate::persist::{Persist, PersistHandle};
use crate::retry::{Retry, RetryHandle, RetryPolicy};
use crate::{
    FallbackHandle, LatencyQuery, LatencyReply, LatencyService, MetricsHandle, ServiceError,
};
use predtop_parallel::{StageLatencyProvider, StructuralInterner};

/// Shared handles onto the counters of the layers a [`ServiceBuilder`]
/// installed. Cloneable and independent of the stack's lifetime, so an
/// outcome struct can carry them out of the search that built the stack.
#[derive(Debug, Clone, Default)]
pub struct StackHandles {
    /// Hit/miss counters of the [`Memoize`] layer, if one was installed.
    pub cache: Option<CacheHandle>,
    /// The structural interner behind the [`Memoize`] layer, if the
    /// layer was installed in structural mode
    /// ([`ServiceBuilder::memoize_structural`]). The search engine warms
    /// it serially over the canonical work-list so key numbering is
    /// thread-count independent.
    pub interner: Option<Arc<StructuralInterner>>,
    /// Dispatch counters of the [`Batched`] layer, if one was installed.
    pub batch: Option<BatchHandle>,
    /// Counters of the [`Instrumented`] layer, if one was installed.
    pub metrics: Option<MetricsHandle>,
    /// Primary/secondary accounting of the [`Fallback`] layer, if one
    /// was installed.
    pub fallback: Option<FallbackHandle>,
    /// Injection counters of the [`FaultInject`] layer, if one was
    /// installed.
    pub fault: Option<FaultHandle>,
    /// Attempt accounting of the [`Retry`] layer, if one was installed.
    pub retry: Option<RetryHandle>,
    /// Overrun counters of the [`Deadline`] layer, if one was installed.
    pub deadline: Option<DeadlineHandle>,
    /// State-transition counters of the [`CircuitBreaker`] layer, if one
    /// was installed.
    pub breaker: Option<BreakerHandle>,
    /// Disk hit/miss/write accounting of the [`crate::Persist`] layer,
    /// if one was installed.
    pub persist: Option<PersistHandle>,
}

/// Type-state builder for a latency-service middleware stack.
///
/// Layers wrap outward: each call wraps the current service in one more
/// layer, so the *first* layer added sits closest to the base source and
/// the *last* sits outermost. The canonical search stack is
///
/// ```text
/// ServiceBuilder::from_provider(profiler, "simulator")
///     .memoize()        // innermost wrap: dedupe repeat queries
///     .batched(threads) // fan batches across the worker pool
///     .instrumented()   // outermost: count what the caller sees
///     .finish()
/// ```
///
/// i.e. `Instrumented(Batched(Memoize(ProviderService(profiler))))`.
/// Keeping [`Instrumented`] outside [`Batched`] is what makes its
/// latency accounting deterministic — it sums the already-ordered batch
/// replies instead of racing per-query.
pub struct ServiceBuilder<S> {
    svc: S,
    handles: StackHandles,
}

impl<P: StageLatencyProvider> ServiceBuilder<ProviderService<P>> {
    /// Start a stack from a pre-service [`StageLatencyProvider`],
    /// attributed to `name`.
    pub fn from_provider(provider: P, name: &'static str) -> ServiceBuilder<ProviderService<P>> {
        ServiceBuilder::new(ProviderService::new(provider, name))
    }
}

impl<S: LatencyService> ServiceBuilder<S> {
    /// Start a stack from a base service.
    pub fn new(svc: S) -> ServiceBuilder<S> {
        ServiceBuilder {
            svc,
            handles: StackHandles::default(),
        }
    }

    /// Degrade to `secondary` on any error from the current stack.
    pub fn or_fallback_to<T: LatencyService>(self, secondary: T) -> ServiceBuilder<Fallback<S, T>> {
        let svc = Fallback::new(self.svc, secondary);
        let mut handles = self.handles;
        handles.fallback = Some(svc.handle());
        ServiceBuilder { svc, handles }
    }

    /// Memoize successful replies per query (sharded, with
    /// [`predtop_parallel::CacheStats`] accounting).
    pub fn memoize(self) -> ServiceBuilder<Memoize<S>> {
        let svc = Memoize::new(self.svc);
        let mut handles = self.handles;
        handles.cache = Some(svc.handle());
        ServiceBuilder { svc, handles }
    }

    /// Memoize successful replies per *structural equivalence class*: a
    /// fresh [`StructuralInterner`] hash-conses each query's
    /// (stage, sub-mesh, configuration) structure, so isomorphic
    /// sub-problems — e.g. interior layer windows of equal length —
    /// share one cache entry and all but the first *hit*. Only sound
    /// over structure-pure sources (every in-tree provider; see
    /// [`Memoize`]). The interner rides along in
    /// [`StackHandles::interner`].
    pub fn memoize_structural(self) -> ServiceBuilder<Memoize<S>> {
        let interner = Arc::new(StructuralInterner::new());
        let svc = Memoize::structural(self.svc, interner.clone());
        let mut handles = self.handles;
        handles.cache = Some(svc.handle());
        handles.interner = Some(interner);
        ServiceBuilder { svc, handles }
    }

    /// Back the current stack with a persistent object store: replies
    /// are served from `store` when present (keyed by structural
    /// descriptor under `namespace`) and write-behind into it when not.
    /// Goes directly inside [`memoize`](Self::memoize) /
    /// [`memoize_structural`](Self::memoize_structural) — memory
    /// absorbs in-run repeats, disk absorbs across-run repeats — and
    /// inside [`batched`](Self::batched) so disk misses still fan out.
    pub fn persist(
        self,
        store: Arc<predtop_store::Store>,
        namespace: impl Into<String>,
    ) -> ServiceBuilder<Persist<S>> {
        let svc = Persist::new(self.svc, store, namespace);
        let mut handles = self.handles;
        handles.persist = Some(svc.handle());
        ServiceBuilder { svc, handles }
    }

    /// Fan query batches across `threads` deterministic workers with
    /// the default chunking policy.
    pub fn batched(self, threads: usize) -> ServiceBuilder<Batched<S>> {
        self.batched_with_policy(threads, DispatchPolicy::default())
    }

    /// Fan query batches across `threads` deterministic workers with an
    /// explicit [`DispatchPolicy`].
    pub fn batched_with_policy(
        self,
        threads: usize,
        policy: DispatchPolicy,
    ) -> ServiceBuilder<Batched<S>> {
        let svc = Batched::with_policy(self.svc, threads, policy);
        let mut handles = self.handles;
        handles.batch = Some(svc.handle());
        ServiceBuilder { svc, handles }
    }

    /// Inject deterministic hash-seeded faults (errors and latency
    /// spikes) in front of the current stack. Goes innermost in a chaos
    /// stack, directly over the base source, so every resilience layer
    /// above gets exercised.
    pub fn inject_faults(self, config: FaultConfig) -> ServiceBuilder<FaultInject<S>> {
        let svc = FaultInject::new(self.svc, config);
        let mut handles = self.handles;
        handles.fault = Some(svc.handle());
        ServiceBuilder { svc, handles }
    }

    /// Enforce wall-clock budgets on the current stack, converting
    /// overruns into [`ServiceError::DeadlineExceeded`]. Goes inside
    /// [`Batched`](Self::batched) for the per-batch budget to fire (see
    /// DESIGN.md §10).
    pub fn deadline(self, policy: DeadlinePolicy) -> ServiceBuilder<Deadline<S>> {
        let svc = Deadline::new(self.svc, policy);
        let mut handles = self.handles;
        handles.deadline = Some(svc.handle());
        ServiceBuilder { svc, handles }
    }

    /// Shed load off the current stack when it keeps failing, via a
    /// closed/open/half-open breaker over a sliding outcome window.
    pub fn circuit_breaker(self, config: BreakerConfig) -> ServiceBuilder<CircuitBreaker<S>> {
        let svc = CircuitBreaker::new(self.svc, config);
        let mut handles = self.handles;
        handles.breaker = Some(svc.handle());
        ServiceBuilder { svc, handles }
    }

    /// Re-attempt transient failures of the current stack, with
    /// deterministic accounted exponential backoff. Goes outside
    /// [`inject_faults`](Self::inject_faults) and
    /// [`circuit_breaker`](Self::circuit_breaker), inside
    /// [`memoize`](Self::memoize).
    pub fn retry(self, policy: RetryPolicy) -> ServiceBuilder<Retry<S>> {
        let svc = Retry::new(self.svc, policy);
        let mut handles = self.handles;
        handles.retry = Some(svc.handle());
        ServiceBuilder { svc, handles }
    }

    /// Count queries, batches, errors, and served seconds at this point
    /// in the stack.
    pub fn instrumented(self) -> ServiceBuilder<Instrumented<S>> {
        let svc = Instrumented::new(self.svc);
        let mut handles = self.handles;
        handles.metrics = Some(svc.handle());
        ServiceBuilder { svc, handles }
    }

    /// Erase the stack's concrete layer composition behind a trait
    /// object, so stacks whose shapes diverge at runtime (with vs.
    /// without a persist tier, say) share one type. Installs no layer:
    /// handles carry through unchanged, and boxing a service is
    /// behaviorally invisible.
    pub fn boxed(self) -> ServiceBuilder<Box<dyn LatencyService + Send + Sync>>
    where
        S: Send + Sync + 'static,
    {
        ServiceBuilder {
            svc: Box::new(self.svc),
            handles: self.handles,
        }
    }

    /// Seal the stack.
    pub fn finish(self) -> ServiceStack<S> {
        ServiceStack {
            svc: self.svc,
            handles: self.handles,
        }
    }
}

/// A sealed middleware stack: the composed service plus
/// [`StackHandles`] to every installed layer's counters.
pub struct ServiceStack<S> {
    svc: S,
    handles: StackHandles,
}

impl<S> ServiceStack<S> {
    /// Handles to the installed layers' counters.
    pub fn handles(&self) -> &StackHandles {
        &self.handles
    }

    /// The composed service.
    pub fn service(&self) -> &S {
        &self.svc
    }
}

impl<S: LatencyService> LatencyService for ServiceStack<S> {
    fn name(&self) -> &'static str {
        self.svc.name()
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        self.svc.query(q)
    }

    fn query_batch(&self, qs: &[LatencyQuery]) -> Vec<Result<LatencyReply, ServiceError>> {
        self.svc.query_batch(qs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::tests::{counting_service, failing_service, SyntheticProvider};
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{CacheStats, MeshShape, ParallelConfig};

    fn queries(n: usize) -> Vec<LatencyQuery> {
        let mut m = ModelSpec::gpt3_1p3b(2);
        m.num_layers = n;
        (0..n)
            .map(|i| {
                LatencyQuery::new(
                    StageSpec::new(m, i, i + 1),
                    MeshShape::new(1, 1),
                    ParallelConfig::SERIAL,
                )
            })
            .collect()
    }

    #[test]
    fn full_stack_is_transparent_and_all_handles_report() {
        let qs = queries(6);
        // ground truth straight from the provider
        let base = ServiceBuilder::from_provider(SyntheticProvider, "simulator").finish();
        let expected: Vec<f64> = qs.iter().map(|q| base.query(q).unwrap().seconds).collect();

        let stack = ServiceBuilder::new(failing_service("predictor"))
            .or_fallback_to(ProviderService::new(SyntheticProvider, "simulator"))
            .memoize()
            .batched(4)
            .instrumented()
            .finish();

        // two identical batches: second is all cache hits
        for _ in 0..2 {
            let replies = stack.query_batch(&qs);
            for (i, r) in replies.iter().enumerate() {
                let r = r.as_ref().unwrap();
                assert_eq!(r.seconds.to_bits(), expected[i].to_bits());
                assert_eq!(r.source, "simulator", "fallback attribution survives");
            }
        }

        let h = stack.handles();
        assert_eq!(
            h.cache.as_ref().unwrap().stats(),
            CacheStats { hits: 6, misses: 6 }
        );
        // the fallback only saw the six misses
        let fb = h.fallback.as_ref().unwrap().stats();
        assert_eq!(fb.primary_served, 0);
        assert_eq!(fb.fallback_served, 6);
        // the instrument layer saw all twelve
        let m = h.metrics.as_ref().unwrap().metrics();
        assert_eq!(m.queries, 12);
        assert_eq!(m.batches, 2);
        assert_eq!(m.errors, 0);
        let expected_sum: f64 = expected.iter().sum::<f64>() * 2.0;
        assert!((m.served_seconds - expected_sum).abs() < 1e-12);
    }

    #[test]
    fn handles_default_to_none_when_layers_absent() {
        let (svc, _) = counting_service();
        let stack = ServiceBuilder::new(svc).batched(2).finish();
        assert!(stack.handles().cache.is_none());
        assert!(stack.handles().interner.is_none());
        assert!(stack.handles().metrics.is_none());
        assert!(stack.handles().fallback.is_none());
        assert!(stack.handles().fault.is_none());
        assert!(stack.handles().retry.is_none());
        assert!(stack.handles().deadline.is_none());
        assert!(stack.handles().breaker.is_none());
        assert!(stack.handles().persist.is_none());
        // batched itself was installed, so its handle is present
        assert!(stack.handles().batch.is_some());
    }

    #[test]
    fn structural_memoize_stack_hits_across_isomorphic_queries() {
        // six 1-layer stages: the four interior ones are isomorphic
        let qs = queries(6);
        let (svc, calls) = counting_service();
        let stack = ServiceBuilder::new(svc)
            .memoize_structural()
            .batched(2)
            .finish();
        let replies = stack.query_batch(&qs);
        assert!(replies.iter().all(|r| r.is_ok()));
        // classes: embedding-window, interior-window, head-window
        let h = stack.handles();
        let interner = h.interner.as_ref().unwrap();
        assert_eq!(interner.len(), 3);
        assert_eq!(
            h.cache.as_ref().unwrap().stats(),
            CacheStats { hits: 3, misses: 3 }
        );
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 3);
        assert!(h.batch.is_some());
    }

    #[test]
    fn persisted_stack_combined_hit_accounting() {
        let dir = std::env::temp_dir().join(format!(
            "predtop-builder-persist-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(predtop_store::Store::open(&dir).unwrap());
        let qs = queries(6);

        let build = |store: Arc<predtop_store::Store>| {
            let (svc, calls) = counting_service();
            (
                ServiceBuilder::new(svc)
                    .persist(store, "test:ns")
                    .memoize_structural()
                    .batched(2)
                    .instrumented()
                    .finish(),
                calls,
            )
        };

        let (cold, cold_calls) = build(store.clone());
        let cold_replies = cold.query_batch(&qs);
        assert!(cold_replies.iter().all(|r| r.is_ok()));
        // 3 structural classes: memoize absorbs repeats in-run, persist
        // sees only the 3 first-in-run misses and writes them.
        let p = cold.handles().persist.as_ref().unwrap().stats();
        assert_eq!(p.disk_misses, 3);
        assert_eq!(p.writes, 3);
        assert_eq!(cold_calls.load(std::sync::atomic::Ordering::Relaxed), 3);

        // Warm stack over the same dir: the inner source is never
        // consulted and the replies are bit-identical.
        let (warm, warm_calls) = build(store);
        let warm_replies = warm.query_batch(&qs);
        for (c, w) in cold_replies.iter().zip(&warm_replies) {
            assert_eq!(
                c.as_ref().unwrap().seconds.to_bits(),
                w.as_ref().unwrap().seconds.to_bits()
            );
        }
        let p = warm.handles().persist.as_ref().unwrap().stats();
        assert_eq!(p.disk_hits, 3);
        assert_eq!(p.disk_misses, 0);
        assert_eq!(warm_calls.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert!(p.disk_served_rate() > 0.99);
    }

    #[test]
    fn chaos_stack_serves_clean_values_and_every_handle_reports() {
        let qs = queries(8);
        let base = ServiceBuilder::from_provider(SyntheticProvider, "simulator").finish();
        let expected: Vec<f64> = qs.iter().map(|q| base.query(q).unwrap().seconds).collect();

        let stack = ServiceBuilder::from_provider(SyntheticProvider, "simulator")
            .inject_faults(FaultConfig::errors(11, 0.3))
            .deadline(DeadlinePolicy::default())
            .retry(RetryPolicy::retries(16))
            .memoize()
            .batched(4)
            .instrumented()
            .finish();

        let replies = stack.query_batch(&qs);
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().seconds.to_bits(), expected[i].to_bits());
        }

        let h = stack.handles();
        let fault = h.fault.as_ref().unwrap().stats();
        assert!(fault.injected_errors > 0, "a 30% rate injects something");
        let retry = h.retry.as_ref().unwrap().stats();
        assert_eq!(retry.retries, fault.injected_errors);
        assert_eq!(retry.exhausted, 0);
        assert!(retry.backoff_seconds > 0.0);
        assert_eq!(h.deadline.as_ref().unwrap().stats().query_overruns, 0);
        assert_eq!(h.metrics.as_ref().unwrap().metrics().errors, 0);
    }
}
