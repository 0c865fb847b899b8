//! Acceptance contract of the `LatencyService` middleware: a checked
//! search driven through an explicitly assembled `ServiceBuilder` stack
//! is **bit-identical** to the plain `run_search` entry point, for both
//! benchmark model families and at multiple worker-pool sizes — the
//! stack's memoize / fallback layers report honest accounting while
//! staying transparent — and the serving engine's fixed layer order is
//! pinned by its ledgers.

use predtop::prelude::*;

fn gpt3() -> ModelSpec {
    // batch 4 over 2 micro-batches: the static filter has real work to
    // do (dp=4 and mp=4 candidates are illegal) without rejecting all
    let mut m = ModelSpec::gpt3_1p3b(4);
    m.seq_len = 32;
    m.hidden = 32;
    m.num_heads = 4;
    m.vocab = 128;
    m.num_layers = 6;
    m
}

fn moe() -> ModelSpec {
    let mut m = ModelSpec::moe_2p6b(4);
    m.seq_len = 32;
    m.hidden = 32;
    m.num_heads = 4;
    m.vocab = 128;
    m.num_layers = 6;
    if let Some(moe) = m.moe.as_mut() {
        moe.num_experts = 4;
        moe.expert_hidden = 64;
    }
    m
}

fn opts() -> InterStageOptions {
    InterStageOptions {
        microbatches: 2,
        imbalance_tolerance: None,
    }
}

#[test]
fn service_stack_checked_search_is_bit_identical_to_legacy() {
    let cluster = MeshShape::new(2, 2);
    for (name, model) in [("gpt3", gpt3()), ("moe", moe())] {
        for threads in [1usize, 4] {
            // the plain path: a bare `Batched` stack
            let profiler = SimProfiler::new(Platform::platform2(), 6);
            let legality = search_legality(model, &profiler, opts());
            let req = SearchRequest::new(model, cluster, opts())
                .threads(threads)
                .legality(&legality);
            let legacy = run_search(&req, &profiler, &profiler)
                .expect("the simulator serves every scenario");

            // the same search through a memoizing middleware stack
            let profiler2 = SimProfiler::new(Platform::platform2(), 6);
            let stack = ServiceBuilder::new(&profiler2)
                .memoize()
                .batched(threads)
                .finish();
            let out =
                search_plan_service(model, cluster, &stack, &profiler2, opts(), Some(&legality))
                    .expect("the simulator stack serves every scenario");

            assert_eq!(out.plan, legacy.plan, "{name}@{threads}: plan drifted");
            assert_eq!(
                out.estimated_latency.to_bits(),
                legacy.estimated_latency.to_bits(),
                "{name}@{threads}: estimated latency drifted"
            );
            assert_eq!(
                out.true_latency.to_bits(),
                legacy.true_latency.to_bits(),
                "{name}@{threads}: true latency drifted"
            );
            assert_eq!(out.num_queries, legacy.num_queries);
            assert_eq!(out.num_rejected, legacy.num_rejected);

            // memoize accounting: every search query hit the layer, and
            // within one search every candidate is distinct
            let report = out.service.expect("memoized stack reports");
            let cache = report.cache.expect("memoize layer installed");
            assert_eq!(
                cache.queries(),
                out.num_queries,
                "{name}@{threads}: cache accounting incomplete"
            );
            assert_eq!(cache.misses, out.num_queries);
            assert_eq!(cache.hits, 0);
        }
    }
}

#[test]
fn fallback_layer_attributes_sources_and_stays_deterministic() {
    let model = gpt3();
    let cluster = MeshShape::new(1, 2);
    let profiler = SimProfiler::new(Platform::platform1(), 6);

    // the honest path: simulator serves, fallback untouched
    let healthy = ServiceBuilder::new(&profiler)
        .or_fallback_to(&profiler)
        .finish();
    // the degraded path: a dead predictor falls back to the simulator
    let degraded = ServiceBuilder::new(Unavailable::new("predictor", "model file lost"))
        .or_fallback_to(&profiler)
        .batched(4)
        .finish();

    let healthy_out =
        search_plan_service(model, cluster, &healthy, &profiler, opts(), None).unwrap();
    let degraded_out =
        search_plan_service(model, cluster, &degraded, &profiler, opts(), None).unwrap();

    // degradation is invisible in the outcome (same base truth)...
    assert_eq!(healthy_out.plan, degraded_out.plan);
    assert_eq!(
        healthy_out.estimated_latency.to_bits(),
        degraded_out.estimated_latency.to_bits()
    );

    // ...but fully visible in the attribution
    let h = healthy_out.service.expect("fallback stack reports");
    let hstats = h.fallback.expect("fallback layer installed");
    assert_eq!(hstats.primary_served, healthy_out.num_queries);
    assert_eq!(hstats.fallback_served, 0);

    let d = degraded_out.service.expect("fallback stack reports");
    let dstats = d.fallback.expect("fallback layer installed");
    assert_eq!(dstats.primary_served, 0);
    assert_eq!(dstats.fallback_served, degraded_out.num_queries);

    // per-query attribution names the service that actually answered
    let stage = StageSpec::new(model, 0, 2);
    let q = LatencyQuery::new(stage, MeshShape::new(1, 1), ParallelConfig::SERIAL);
    assert_eq!(healthy.query(&q).unwrap().source, "simulator");
    assert_eq!(degraded.query(&q).unwrap().source, "simulator");
}

#[test]
fn exhausted_fallback_chain_surfaces_the_error() {
    let model = gpt3();
    let cluster = MeshShape::new(1, 2);
    let profiler = SimProfiler::new(Platform::platform1(), 6);
    let dead = ServiceBuilder::new(Unavailable::new("predictor", "gone"))
        .or_fallback_to(Unavailable::new("analytic", "also gone"))
        .finish();
    let err = search_plan_service(model, cluster, &dead, &profiler, opts(), None)
        .expect_err("a dead chain cannot serve a search");
    let SearchError::Service(err) = err else {
        panic!("expected the chain's service error, got {err:?}");
    };
    assert_eq!(err.source(), "analytic", "the last hop owns the error");
}

/// The layer order of the serving stack is fixed in `ServeEngine::new`;
/// this pins it through the ledgers of one chaos search against a cold
/// store. Each equality only holds in the intended order.
#[test]
fn serve_engine_ledgers_pin_the_fixed_layer_order() {
    let dir = std::env::temp_dir().join(format!("predtop-stack-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = EngineConfig::new(Platform::platform1(), "1", 7);
    config.fault_rate = 0.2;
    config.retries = 3;
    config.store = Some(std::sync::Arc::new(Store::open(&dir).unwrap()));
    let engine = ServeEngine::new(config).unwrap();

    // the CLI's `--scaled` GPT-3
    let mut model = ModelSpec::gpt3_1p3b(2);
    model.seq_len = 128;
    model.hidden = 128;
    model.num_heads = 8;
    model.vocab = 2048;
    model.num_layers = 8;
    let spec = api::SearchSpec {
        model,
        microbatches: 4,
        imbalance_tolerance: None,
        checked: false,
    };
    let num_queries = match engine.handle(&api::Request::Search(spec)) {
        api::Response::Search(result) => result.num_queries,
        other => panic!("expected a search result, got {other:?}"),
    };

    let report = engine.report();
    let fault = report.fault.expect("fault layer installed");
    let retry = report.retry.expect("retry layer installed");
    let persist = report.persist.expect("persist layer installed");
    let cache = report.cache.expect("memoize layer installed");
    let metrics = report.metrics.expect("instrumented layer installed");
    // Retry sits outside FaultInject: every injected error became a retry
    assert!(fault.injected_errors > 0, "no fault was ever injected");
    assert_eq!(retry.retries, fault.injected_errors);
    assert_eq!(retry.exhausted, 0);
    // Persist sits inside Memoize: only memo misses reach the disk tier
    assert!(cache.hits > 0, "the structural memo never hit");
    assert_eq!(persist.disk_misses, cache.misses);
    // Instrumented is outermost: it counts exactly the work-list
    assert_eq!(metrics.queries, num_queries);
    let _ = std::fs::remove_dir_all(&dir);
}
