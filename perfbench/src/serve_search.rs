//! `serve_search`: cold plan searches against `predtop serve --store`,
//! closed loop over one connection (a search driver waits for each
//! plan). The sweep covers seeded GPT-3/MoE variants (depth, batch,
//! micro-batches); a fixed share of requests is `checked`, and a fixed
//! share is the full-size Table IV models. Every run starts from the
//! same store, pre-filled in preparation with part of the sweep, so
//! disk reads sit beside write-behind.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use predtop_cluster::Platform;
use predtop_core::search::{search_legality, search_plan_service};
use predtop_core::{artifacts, EngineConfig, ServeEngine};
use predtop_models::ModelSpec;
use predtop_parallel::{InterStageOptions, MeshShape};
use predtop_runtime::configured_threads;
use predtop_service::api::{ErrorKind, Request, Response, SearchResult, SearchSpec};
use predtop_sim::costing::CostTotals;
use predtop_sim::SimProfiler;
use predtop_store::Store;

use crate::daemon::Daemon;
use crate::layers::Layers;
use crate::probe::{self, fresh_stack, scaled_model, SIM_SEED};
use crate::trace::Tracer;
use crate::util::{geomean, mean, median, progress, tail, Rng};
use crate::{Outcome, RunArgs};

/// Replies re-checked against an in-process search on a fresh stack.
const CHECK_SAMPLES: usize = 4;
/// Searches replayed phase by phase in a traced run.
const REPLAYS: usize = 24;
/// Scaled searches per second of `--seconds` a run makes.
const SEARCHES_PER_SECOND: f64 = 8.0;

/// The full-size share: these Table IV searches ride along in every
/// block of the scaled stream, each at a seeded position. The scaled
/// widths keep the sweep at a few milliseconds per search, so that a
/// run holds enough searches per (kind, depth) cell for steady medians
/// (a full-size checked MoE search takes seconds); the full-size shapes
/// keep the real widths in the traffic. Their latencies are reported
/// apart from the scaled populations. The full-size checked search is
/// sent once per run by [`known_defect_probe`] instead.
fn full_size() -> Vec<SearchSpec> {
    vec![
        full_size_spec(ModelSpec::gpt3_1p3b(8), false),
        full_size_spec(ModelSpec::moe_2p6b(8), false),
    ]
}

fn full_size_spec(model: ModelSpec, checked: bool) -> SearchSpec {
    SearchSpec {
        model,
        microbatches: 8,
        imbalance_tolerance: None,
        checked,
    }
}

/// What the in-process search panics with on a full-size checked
/// search at this commit (`crates/core/src/search.rs`).
const KNOWN_PANIC: &str = "no covering partition survived the filter";

/// Imbalance tolerances of the sweep: full profiling, then two levels
/// of partial (imbalance-tolerant) profiling.
const TOLERANCES: [Option<f64>; 3] = [None, Some(0.25), Some(0.5)];

/// The variant sweep: both Table IV model kinds at the `--scaled`
/// width, 4–14 layers deep, batches 2–16 with every dividing micro-batch
/// count, under full or partial profiling. Grouped into cells of one
/// (kind, depth), and within a cell into classes of one tolerance:
/// depth, kind and tolerance set a search's cost, so the request stream
/// balances them (see [`requests`]).
fn sweep_cells() -> Vec<[Vec<SearchSpec>; 3]> {
    let mut cells = Vec::new();
    for moe in [false, true] {
        for layers in 4..=14 {
            cells.push(TOLERANCES.map(|imbalance_tolerance| {
                let mut class = Vec::new();
                for batch in [2usize, 4, 8, 16] {
                    for mb in [1usize, 2, 4, 8, 16] {
                        if batch % mb == 0 {
                            class.push(SearchSpec {
                                model: scaled_model(moe, layers, batch),
                                microbatches: mb,
                                imbalance_tolerance,
                                checked: false,
                            });
                        }
                    }
                }
                class
            }));
        }
    }
    cells
}

/// Each tolerance class of `classes` in a seeded order.
fn shuffled(rng: &mut Rng, classes: &[Vec<SearchSpec>; 3]) -> [Vec<SearchSpec>; 3] {
    classes.clone().map(|mut class| {
        rng.shuffle(&mut class);
        class
    })
}

/// One request of the scaled stream, and whether its variant is
/// searched into the store in preparation.
struct Visit {
    spec: SearchSpec,
    warm: bool,
}

/// The twelve visits a cell gets in one block, as (tolerance class,
/// checked, warm): per class one checked visit and three unchecked, one
/// of them warm; the first class's checked visit is warm too. So every
/// block checks a quarter of a cell's visits, one per tolerance, and
/// warms a third of them.
const BLOCK_SLOTS: [(usize, bool, bool); 12] = [
    (0, true, true),
    (0, false, true),
    (0, false, false),
    (0, false, false),
    (1, true, false),
    (1, false, true),
    (1, false, false),
    (1, false, false),
    (2, true, false),
    (2, false, true),
    (2, false, false),
    (2, false, false),
];

/// The scaled request stream: `blocks` blocks of twelve rounds, each
/// round visiting every cell once in a seeded order, and every block
/// giving each cell the [`BLOCK_SLOTS`] in a seeded order. Unchecked
/// visits take their class's variants in a seeded order. Checked visits
/// take them in an order that is the same for every seed: a checked
/// search costs about ten unchecked ones and its cost moves with the
/// variant, so a seeded pick of three per cell set the checked median
/// as much as the program did.
fn requests(seed: u64, cells: &[[Vec<SearchSpec>; 3]], blocks: usize) -> Vec<Visit> {
    let mut rng = Rng::new(seed).fork(2);
    let unchecked: Vec<[Vec<SearchSpec>; 3]> =
        cells.iter().map(|c| shuffled(&mut rng, c)).collect();
    let checked: Vec<[Vec<SearchSpec>; 3]> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| shuffled(&mut Rng::new(0).fork(i as u64 + 1), c))
        .collect();
    // variants taken so far, per cell, per checked flag, per class
    let mut taken = vec![[[0usize; 3]; 2]; cells.len()];
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut out = Vec::with_capacity(blocks * BLOCK_SLOTS.len() * cells.len());
    for _ in 0..blocks {
        let mut slots: Vec<_> = cells
            .iter()
            .map(|_| {
                let mut s = BLOCK_SLOTS;
                rng.shuffle(&mut s);
                s.into_iter()
            })
            .collect();
        for _ in 0..BLOCK_SLOTS.len() {
            rng.shuffle(&mut order);
            for &c in &order {
                let (class, is_checked, warm) = slots[c].next().expect("a slot per round");
                let list = if is_checked {
                    &checked[c][class]
                } else {
                    &unchecked[c][class]
                };
                let n = &mut taken[c][usize::from(is_checked)][class];
                let mut spec = list[*n % list.len()].clone();
                *n += 1;
                spec.checked = is_checked;
                out.push(Visit { spec, warm });
            }
        }
    }
    out
}

fn engine_config(store: Option<Arc<Store>>, threads: usize) -> EngineConfig {
    let mut c = EngineConfig::new(Platform::platform2(), "2", SIM_SEED);
    c.threads = threads;
    c.store = store;
    c
}

fn cluster() -> MeshShape {
    let p = Platform::platform2();
    MeshShape::new(p.max_nodes, p.gpus_per_node)
}

/// Search the warm part of the sweep into a fresh store at `dir`, with
/// the same engine the daemon runs.
fn prefill(dir: &Path, warm: &[SearchSpec], threads: usize) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Arc::new(Store::open(dir).map_err(|e| format!("open store: {e}"))?);
    let engine = ServeEngine::new(engine_config(Some(store), threads))?;
    for spec in warm {
        match engine.handle(&Request::Search(spec.clone())) {
            Response::Search(_) => {}
            other => return Err(format!("prefill search failed: {other:?}")),
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// One request of the timed loop: the reply, or why the daemon gave
/// none (a dropped connection, a failed launch or drain).
struct Sent {
    spec: SearchSpec,
    full_size: bool,
    latency_ms: f64,
    reply: Result<Response, String>,
}

/// One search on a freshly launched daemon: launch seconds, client
/// latency in ms, the reply, and the daemon's peak RSS. A daemon that
/// answers but then fails to drain fails the search.
fn search_once(
    args: &RunArgs,
    socket: &Path,
    flags: &[String],
    spec: &SearchSpec,
    request: u64,
    tracer: &Tracer,
    ledgers: &mut probe::LedgerTotals,
) -> Result<(f64, f64, Response, f64), String> {
    let (daemon, launch_s) = Daemon::launch(&args.predtop, socket, flags)?;
    let mut client = daemon.connect()?;
    let t = Instant::now();
    let span = tracer.span("client.search", request, None, 1);
    let reply = client.call(&Request::Search(spec.clone()));
    span.end();
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    let reply = reply.map_err(|e| format!("no reply on the wire: {e}"));
    if reply.is_ok() && tracer.enabled() {
        match client.call(&Request::Stats) {
            Ok(Response::Stats(s)) => ledgers.add(&s),
            other => return Err(format!("stats request failed: {other:?}")),
        }
    }
    drop(client);
    let peak = daemon.peak_rss_mb();
    let drained = daemon.shutdown();
    match (reply, drained) {
        (Ok(reply), Ok(())) => Ok((launch_s, latency_ms, reply, peak)),
        (Ok(_), Err(e)) => Err(e),
        (Err(e), Ok(())) => Err(e),
        (Err(e), Err(d)) => Err(format!("{e}; {d}")),
    }
}

/// Whether an in-process `search_plan_service` on a fresh stack finds
/// no plan for `spec` (an error or a panic): a structured refusal from
/// the daemon is then the correct answer.
fn reference_finds_no_plan(spec: &SearchSpec, threads: usize) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        reference_search(spec, threads).is_err()
    }))
    .unwrap_or(true)
}

fn reference_search(
    spec: &SearchSpec,
    threads: usize,
) -> Result<predtop_core::SearchOutcome, String> {
    let profiler = Arc::new(SimProfiler::new(Platform::platform2(), SIM_SEED));
    let stack = fresh_stack(&profiler, threads);
    let opts = InterStageOptions {
        microbatches: spec.microbatches,
        imbalance_tolerance: spec.imbalance_tolerance,
    };
    let legality = spec
        .checked
        .then(|| search_legality(spec.model, &profiler, opts));
    search_plan_service(
        spec.model,
        cluster(),
        &stack,
        &profiler,
        opts,
        legality.as_ref(),
    )
    .map_err(|e| e.to_string())
}

/// Whether a daemon's plan is the in-process search's: same plan
/// bytes, same `true_latency` and `estimated_latency` bits.
fn same_plan(got: &SearchResult, want: &predtop_core::SearchOutcome) -> bool {
    artifacts::encode_plan(&want.plan) == artifacts::encode_plan(&got.plan)
        && want.true_latency.to_bits() == got.true_latency.to_bits()
        && want.estimated_latency.to_bits() == got.estimated_latency.to_bits()
}

/// The text of a caught panic.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// The known defect, probed once per run after the timed loop on a
/// daemon and store of its own: a full-size checked GPT-3 search. At
/// this commit the daemon's connection thread panics on it without a
/// reply (the daemon then exits 101 on drain), exactly where the
/// in-process search panics with [`KNOWN_PANIC`]. That outcome is
/// reported as the defect, not as a failed operation of the workload.
/// Any other outcome is one more operation, checked like the traffic:
/// a plan must match the in-process search, a refusal must be a
/// non-transient `BadRequest` where the in-process search finds none.
/// Returns whether the defect reproduced.
fn known_defect_probe(
    args: &RunArgs,
    dir: &Path,
    threads: usize,
    out: &mut Outcome,
) -> Result<bool, String> {
    let spec = full_size_spec(ModelSpec::gpt3_1p3b(8), true);
    let what = describe(&spec);
    let flags = daemon_flags(&dir.join("probe-store"), threads);
    let got = search_once(
        args,
        &dir.join("probe-sock"),
        &flags,
        &spec,
        0,
        &Tracer::new(false),
        &mut probe::LedgerTotals::default(),
    );
    let want = catch_unwind(AssertUnwindSafe(|| reference_search(&spec, threads)))
        .map_err(|p| panic_text(p.as_ref()));
    match (got, want) {
        (Err(e), Err(panic)) if panic.contains(KNOWN_PANIC) => {
            eprintln!("known defect reproduced: {what}: {e}; in-process: {panic}");
            return Ok(true);
        }
        (Ok((_, _, Response::Search(r), _)), Ok(Ok(want))) if same_plan(&r, &want) => {}
        (Ok((_, _, Response::Error(e), _)), Ok(Err(_)) | Err(_))
            if e.kind == ErrorKind::BadRequest && !e.transient => {}
        (got, want) => out.fail(format!(
            "{what}: daemon {:?}, in-process {:?}",
            got.map(|g| g.2),
            want.map(|w| w.map(|o| o.true_latency))
        )),
    }
    out.attempted += 1;
    Ok(false)
}

fn daemon_flags(store: &Path, threads: usize) -> Vec<String> {
    vec![
        "--store".to_string(),
        store.display().to_string(),
        "--seed".to_string(),
        SIM_SEED.to_string(),
        "--threads".to_string(),
        threads.to_string(),
    ]
}

pub fn run(args: &RunArgs, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(args, tracer, &mut out) {
        out.attempted = out.attempted.max(1);
        out.fail(e);
    }
    out
}

fn run_inner(args: &RunArgs, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let threads = configured_threads();
    let cells = sweep_cells();
    let variants: usize = cells.iter().flatten().map(Vec::len).sum();
    // a fixed number of searches, sized to the run's seconds on an idle
    // host, so a slow host makes the run longer rather than different;
    // in whole blocks, so every run holds the same mix
    let block = cells.len() * BLOCK_SLOTS.len();
    let blocks = ((args.seconds * SEARCHES_PER_SECOND / block as f64).round() as usize).max(1);
    let visits = requests(args.seed, &cells, blocks);
    // the prefilled variants: those of the warm visits
    let mut warm_keys = HashSet::new();
    let warm: Vec<SearchSpec> = visits
        .iter()
        .filter(|v| v.warm)
        .map(|v| SearchSpec {
            checked: false,
            ..v.spec.clone()
        })
        .filter(|s| warm_keys.insert(variant_key(s)))
        .collect();

    // preparation: the store every run starts from, searched into by
    // the same engine the daemon runs (deterministic, so every run of a
    // seed starts from the same objects); the traced run keeps a copy
    // for its in-process replay
    let dir = args
        .out_dir
        .join(format!("ss-{}-{}", args.seed, std::process::id()));
    let live = dir.join("store");
    progress("prefilling the store");
    let clock = Instant::now();
    prefill(&live, &warm, threads)?;
    out.detail
        .push(("prefill_s", clock.elapsed().as_secs_f64()));
    let replay_store = dir.join("replay-store");
    if tracer.enabled() {
        copy_dir(&live, &replay_store)?;
    }
    let socket = dir.join("sock");
    let flags = daemon_flags(&live, threads);
    // the timed closed loop: every search goes to a freshly launched
    // daemon, so each is cold in memory (memo, interner, graphs) while
    // the store carries what the prefill and earlier searches wrote
    progress("timed searches");
    let scaled: Vec<SearchSpec> = visits.into_iter().map(|v| v.spec).collect();
    let stream = with_full_size(args.seed, &scaled, block);
    let mut sent: Vec<Sent> = Vec::new();
    let mut launches = Vec::new();
    let mut peaks = Vec::new();
    let mut ledgers = probe::LedgerTotals::default();
    let started = Instant::now();
    for (spec, full_size) in stream {
        if started.elapsed().as_secs_f64() > 3.0 * args.seconds {
            break;
        }
        let i = sent.len() as u64;
        let (latency_ms, reply) =
            match search_once(args, &socket, &flags, &spec, i, tracer, &mut ledgers) {
                Ok((launch_s, latency_ms, reply, peak)) => {
                    launches.push(launch_s);
                    peaks.push(peak);
                    (latency_ms, Ok(reply))
                }
                Err(e) => (f64::NAN, Err(e)),
            };
        sent.push(Sent {
            spec,
            full_size,
            latency_ms,
            reply,
        });
    }
    out.setup_s = median(&launches);
    out.peak_mem_mb = median(&peaks);
    out.attempted = sent.len() as u64;
    progress("probing the known defect");
    let defect = known_defect_probe(args, &dir, threads, out)?;
    out.detail
        .push(("known_defect_reproduced", f64::from(u8::from(defect))));
    progress("checking replies");

    // every reply must be a plan; a structured refusal only where the
    // in-process search finds no plan either
    let mut results: Vec<Option<&SearchResult>> = Vec::new();
    for (i, s) in sent.iter().enumerate() {
        let what = describe(&s.spec);
        match &s.reply {
            Ok(Response::Search(r)) => results.push(Some(r)),
            Ok(Response::Error(e))
                if e.kind == ErrorKind::BadRequest
                    && !e.transient
                    && reference_finds_no_plan(&s.spec, threads) =>
            {
                results.push(None)
            }
            Ok(other) => {
                results.push(None);
                out.fail(format!("search {i} ({what}) answered {other:?}"));
            }
            Err(e) => {
                results.push(None);
                out.fail(format!("search {i} ({what}) failed: {e}"));
            }
        }
    }

    // a seeded sample of the scaled searches, and every full-size
    // plan, must match an in-process search on a fresh stack
    let clock = Instant::now();
    let mut pick = Rng::new(args.seed).fork(4);
    let scaled_at: Vec<usize> = (0..sent.len()).filter(|&i| !sent[i].full_size).collect();
    let mut to_check: Vec<usize> = (0..CHECK_SAMPLES.min(scaled_at.len()))
        .map(|_| scaled_at[pick.below(scaled_at.len())])
        .collect();
    to_check.extend((0..sent.len()).filter(|&i| sent[i].full_size));
    for i in to_check {
        let Some(got) = results[i] else { continue };
        match reference_search(&sent[i].spec, threads) {
            Ok(want) => {
                if !same_plan(got, &want) {
                    out.fail(format!(
                        "search {i} differs from the in-process search: true latency {} vs {}",
                        got.true_latency, want.true_latency
                    ));
                }
            }
            Err(e) => out.fail(format!("in-process check search failed: {e}")),
        }
    }

    out.detail.push(("check_s", clock.elapsed().as_secs_f64()));
    // the bounded latencies are the scaled searches that got a reply;
    // the full-size share is reported on its own
    let answered = |checked: bool, full_size: bool| -> Vec<f64> {
        sent.iter()
            .filter(|s| s.spec.checked == checked && s.full_size == full_size && s.reply.is_ok())
            .map(|s| s.latency_ms)
            .collect()
    };
    let unchecked = answered(false, false);
    let checked = answered(true, false);
    let scaled_ms: Vec<f64> = unchecked.iter().chain(&checked).copied().collect();
    out.detail
        .push(("full_size_unchecked_p50_ms", median(&answered(false, true))));
    out.p50_ms = median(&unchecked);
    out.tail = tail(&unchecked, 0.99);
    // the checked searches span a 50-fold range of cost with a few
    // dozen a run, so their median jumps between sparse order
    // statistics; the geometric mean weighs each in relative terms
    out.heavy_gmean_ms = geomean(&checked);
    out.detail.push(("checked_p50_ms", median(&checked)));
    out.heavy_tail = tail(&checked, 0.99);
    out.throughput = scaled_ms.len() as f64 / (scaled_ms.iter().sum::<f64>() / 1e3);
    let n = sent.len().max(1) as f64;
    let mut seen = HashSet::new();
    let repeats = sent
        .iter()
        .filter(|s| !seen.insert(variant_key(&s.spec)))
        .count();
    let repeat_share = repeats as f64 / n;
    let checked_share = sent.iter().filter(|s| s.spec.checked).count() as f64 / n;
    let full_size_share = sent.iter().filter(|s| s.full_size).count() as f64 / n;
    let warm_share = sent
        .iter()
        .filter(|s| warm_keys.contains(&variant_key(&s.spec)))
        .count() as f64
        / n;
    let mut sorted = unchecked.clone();
    sorted.sort_by(f64::total_cmp);
    for (name, q) in [
        ("unchecked_p10_ms", 0.1),
        ("unchecked_p25_ms", 0.25),
        ("unchecked_p75_ms", 0.75),
        ("unchecked_p90_ms", 0.9),
    ] {
        out.detail.push((name, crate::util::quantile(&sorted, q)));
    }
    out.detail.push(("searches", n));
    out.detail.push(("variants", variants as f64));
    out.detail.push(("checked_share", checked_share));
    out.detail.push(("full_size_share", full_size_share));
    out.detail.push(("warm_share", warm_share));
    out.detail.push(("repeat_share", repeat_share));
    out.detail.push(("tail_level", out.tail.level));
    out.detail
        .push(("checked_tail_level", out.heavy_tail.level));

    if tracer.enabled() {
        let mut layers = Layers::default();
        ledgers.set_layers(&mut layers);
        layers.set("gen.repeat_share", repeat_share);
        layers.set("gen.checked_share", checked_share);
        layers.set("gen.warm_share", warm_share);
        layers.set("gen.late_ms", 0.0);
        layers.set("defect.full_checked_panics", f64::from(u8::from(defect)));
        trace_layers(
            args,
            tracer,
            &sent,
            &dir,
            &replay_store,
            threads,
            &mut layers,
            out,
        )?;
        out.layers = Some(layers);
    }
    progress("cleaning up");
    let _ = std::fs::remove_dir_all(&dir);
    progress("done");
    Ok(())
}

/// The traced pass: codec and store probes on this run's messages, an
/// in-process engine replay of the first requests (handle time per
/// request, hit or miss by the memo ledger), and a phase-by-phase
/// replay of the same searches with and without spans.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    args: &RunArgs,
    tracer: &Tracer,
    sent: &[Sent],
    dir: &Path,
    replay_store: &Path,
    threads: usize,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let pairs: Vec<_> = sent
        .iter()
        .filter_map(|s| Some((Request::Search(s.spec.clone()), s.reply.clone().ok()?)))
        .collect();
    layers.set("api.codec_us", probe::codec_us(&pairs, tracer));
    let plans: Vec<Vec<u8>> = sent
        .iter()
        .filter_map(|s| match &s.reply {
            Ok(Response::Search(r)) => Some(artifacts::encode_plan(&r.plan)),
            _ => None,
        })
        .collect();
    let (get_us, put_us) = probe::store_us(&dir.join("probe"), &plans, tracer)?;
    layers.set("store.get_us", get_us);
    layers.set("store.put_us", put_us);

    // a fresh in-process engine per request, as the daemons were, on a
    // copy of the same starting store; the first scaled searches that
    // got a plan (the full-size share would set the means alone)
    let replay: Vec<&Sent> = sent
        .iter()
        .filter(|s| !s.full_size && matches!(s.reply, Ok(Response::Search(_))))
        .take(REPLAYS)
        .collect();
    let store = Arc::new(Store::open(replay_store).map_err(|e| e.to_string())?);
    let (mut hit_us, mut miss_us, mut handle_us, mut client_us) = (vec![], vec![], vec![], vec![]);
    for (i, s) in replay.iter().enumerate() {
        let engine = ServeEngine::new(engine_config(Some(Arc::clone(&store)), threads))?;
        let misses_before = engine.report().cache.map_or(0, |c| c.misses);
        let t = Instant::now();
        let reply = {
            let _s = tracer.span("engine.handle", i as u64, None, 2);
            engine.handle(&Request::Search(s.spec.clone()))
        };
        let us = t.elapsed().as_secs_f64() * 1e6;
        if Ok(&reply) != s.reply.as_ref() {
            out.fail(format!(
                "in-process engine replay of search {i} differs from the daemon"
            ));
        }
        handle_us.push(us);
        client_us.push(s.latency_ms * 1e3);
        if engine.report().cache.map_or(0, |c| c.misses) > misses_before {
            miss_us.push(us);
        } else {
            hit_us.push(us);
        }
    }
    layers.set("engine.handle_hit_us", mean(&hit_us));
    layers.set("engine.handle_miss_us", mean(&miss_us));
    // paired per request: the daemon and the in-process engine served
    // the same request from the same state
    let overhead: Vec<f64> = client_us
        .iter()
        .zip(&handle_us)
        .map(|(c, h)| c - h)
        .collect();
    layers.set("wire.overhead_us", median(&overhead));

    // phase-by-phase replay, untraced then traced, a fresh stack per
    // search (without the store: the phases, not the disk, are priced)
    let cluster = cluster();
    let untraced = Tracer::new(false);
    let run_replay = |t: &Tracer| -> Result<PhaseReplay, String> {
        let clock = Instant::now();
        let mut times = Vec::new();
        let mut bill = CostTotals::default();
        for (i, s) in replay.iter().enumerate() {
            let profiler = Arc::new(SimProfiler::new(Platform::platform2(), SIM_SEED));
            let stack = fresh_stack(&profiler, threads);
            let pt = probe::replay_search(&s.spec, &stack, &profiler, cluster, t, i as u64)?;
            times.push((pt, s.spec.checked));
            let b = profiler.ledger().totals();
            bill.stages_profiled += b.stages_profiled;
            bill.profiling_s += b.profiling_s;
        }
        Ok((clock.elapsed().as_secs_f64(), times, bill))
    };
    let (untraced_s, _, _) = run_replay(&untraced)?;
    let (traced_s, times, bill) = run_replay(tracer)?;
    probe::search_layers(&times, layers);
    layers.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    layers.set("sim.profiles", bill.stages_profiled as f64);
    layers.set("sim.profiling_sim_s", bill.profiling_s);

    // the models and simulator layers, cold, on the replayed work-lists'
    // distinct stage windows
    let (graph_us, nodes, sim_us) = probe::cold_stage_probe(
        replay
            .iter()
            .flat_map(|s| {
                predtop_parallel::enumerate_candidates(
                    s.spec.model,
                    cluster,
                    InterStageOptions {
                        microbatches: s.spec.microbatches,
                        imbalance_tolerance: None,
                    },
                )
            })
            .collect(),
        64,
        args.seed,
        tracer,
    );
    layers.set("models.build_graph_us", graph_us);
    layers.set("models.graph_nodes", nodes);
    layers.set("sim.stage_latency_us", sim_us);
    Ok(())
}

/// A phase replay: wall seconds, each search's phase times and whether
/// it was checked, and the summed profiling bill.
type PhaseReplay = (f64, Vec<(probe::PhaseTimes, bool)>, CostTotals);

/// `scaled` with the [`full_size`] searches inserted into every `block`
/// of it, each at a seeded position; flags which are full-size.
fn with_full_size(seed: u64, scaled: &[SearchSpec], block: usize) -> Vec<(SearchSpec, bool)> {
    let mut rng = Rng::new(seed).fork(5);
    let extra = full_size();
    let mut out = Vec::with_capacity(scaled.len() + extra.len() * scaled.len() / block);
    for chunk in scaled.chunks(block) {
        let mut part: Vec<(SearchSpec, bool)> = chunk.iter().map(|s| (s.clone(), false)).collect();
        for spec in &extra {
            let at = rng.below(part.len() + 1);
            part.insert(at, (spec.clone(), true));
        }
        out.extend(part);
    }
    out
}

/// A short description of a search for failure messages.
fn describe(spec: &SearchSpec) -> String {
    format!(
        "{:?} {} layers, hidden {}, batch {}, {} micro-batches{}",
        spec.model.kind,
        spec.model.num_layers,
        spec.model.hidden,
        spec.model.batch,
        spec.microbatches,
        if spec.checked { ", checked" } else { "" }
    )
}

/// A variant's identity regardless of its `checked` flag.
fn variant_key(spec: &SearchSpec) -> Vec<u8> {
    let mut plain = spec.clone();
    plain.checked = false;
    predtop_service::api::encode_request(&Request::Search(plain))
}
