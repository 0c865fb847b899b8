//! The MRE-grid engine behind Tables V and VI (and the Fig. 3 subset).
//!
//! For one (platform, benchmark) pair:
//!
//! 1. sample the protocol's stage pool and profile every stage under
//!    every scenario (memoized by the simulator);
//! 2. build the per-stage sample matrices once;
//! 3. for each scenario × training fraction × architecture: split
//!    (train / 10% val / rest test, §VIII-A), train, and report the
//!    held-out MRE.

use predtop_cluster::Platform;
use predtop_gnn::train::{eval_mre, train};
use predtop_gnn::{Dataset, GraphSample, ModelKind};
use predtop_models::{sample_stages, ModelSpec, StageSpec};
use predtop_parallel::StageLatencyProvider;
use predtop_sim::SimProfiler;
use predtop_store::json::Json;

use crate::protocol::Protocol;
use crate::scenario::Scenario;

/// One grid cell result.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Scenario id, e.g. `"(2,1)"`.
    pub scenario: String,
    /// Training fraction (0.1–0.8).
    pub fraction: f64,
    /// Architecture label (`GCN` / `GAT` / `Tran`).
    pub model: String,
    /// Held-out mean relative error, percent.
    pub mre: f64,
    /// Epochs actually run (early stopping).
    pub epochs_run: usize,
    /// Wall-clock training seconds.
    pub train_seconds: f64,
}

/// Full grid output for one (platform, benchmark).
#[derive(Debug, Clone)]
pub struct GridResult {
    /// Platform name.
    pub platform: String,
    /// Benchmark name (`GPT-3` / `MoE`).
    pub benchmark: String,
    /// Number of profiled stages.
    pub num_stages: usize,
    /// All cells.
    pub cells: Vec<GridCell>,
}

impl GridResult {
    /// Cells for a given architecture, in scenario-major order.
    pub fn cells_for<'a>(&'a self, model: &'a str) -> impl Iterator<Item = &'a GridCell> + 'a {
        self.cells.iter().filter(move |c| c.model == model)
    }

    /// MREs of one architecture across all scenarios and fractions.
    pub fn mres_for(&self, model: &str) -> Vec<f64> {
        self.cells_for(model).map(|c| c.mre).collect()
    }

    /// The raw grid with per-cell metadata, as written next to the
    /// rendered Tables V and VI (`results/table{5,6}_*_raw.json`).
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            Json::obj()
                .field("scenario", c.scenario.as_str())
                .field("fraction", c.fraction)
                .field("model", c.model.as_str())
                .field("mre", c.mre)
                .field("epochs_run", c.epochs_run)
                .field("train_seconds", c.train_seconds)
        });
        Json::obj()
            .field("platform", self.platform.as_str())
            .field("benchmark", self.benchmark.as_str())
            .field("num_stages", self.num_stages)
            .field("cells", Json::Arr(cells.collect()))
    }
}

/// The three architectures in table column order.
pub const ARCHES: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::Gat, ModelKind::DagTransformer];

/// Run the full grid for one platform and benchmark.
///
/// `progress` receives one line per completed cell (use
/// `|s| eprintln!("{s}")` in binaries, `|_| {}` in tests).
pub fn run_grid(
    platform: &Platform,
    platform_label: &'static str,
    benchmark: ModelSpec,
    scenarios: &[Scenario],
    proto: &Protocol,
    progress: &mut dyn FnMut(&str),
) -> GridResult {
    let profiler = SimProfiler::new(platform.clone(), proto.seed);
    let stages: Vec<StageSpec> = sample_stages(
        benchmark,
        proto.stage_budget(&benchmark),
        proto.max_stage_layers.min(benchmark.num_layers),
        proto.seed,
    );
    progress(&format!(
        "[{platform_label}/{}] profiling {} stages x {} scenarios",
        benchmark.kind.name(),
        stages.len(),
        scenarios.len()
    ));

    // latency-independent sample matrices, built once
    let base_samples: Vec<GraphSample> = stages
        .iter()
        .map(|s| GraphSample::new(&profiler.stage_graph(s), 1.0, proto.pe_dim()))
        .collect();

    let mut cells = Vec::new();
    for sc in scenarios {
        // profiling phase for this scenario (memoized by the profiler)
        let samples: Vec<GraphSample> = stages
            .iter()
            .zip(&base_samples)
            .map(|(spec, base)| {
                let mut s = base.clone();
                s.latency = profiler.stage_latency(spec, sc.mesh, sc.config);
                s
            })
            .collect();
        let ds = Dataset::new(samples);

        // the (fraction, architecture) cells of one scenario are fully
        // independent: fan them out over the configured worker threads
        // (PREDTOP_THREADS; order- and value-deterministic at any count)
        let work: Vec<(f64, ModelKind)> = proto
            .fractions
            .iter()
            .flat_map(|&f| ARCHES.into_iter().map(move |k| (f, k)))
            .collect();
        let cell_results = predtop_runtime::par_map(work, |(fraction, kind)| {
            let split = ds.split(fraction, proto.seed ^ (fraction * 1000.0) as u64);
            let mut net = proto.arch(kind).build(proto.seed);
            let (scaler, report) = train(net.as_mut(), &ds, &split, &proto.train);
            let mre = eval_mre(net.as_ref(), &scaler, &ds, &split.test);
            GridCell {
                scenario: sc.id(),
                fraction,
                model: kind.label().to_string(),
                mre,
                epochs_run: report.epochs_run,
                train_seconds: report.train_seconds,
            }
        });
        for cell in cell_results {
            progress(&format!(
                "[{platform_label}/{}] {} f={:.0}% {}: MRE {:.2}% ({} epochs, {:.1}s)",
                benchmark.kind.name(),
                cell.scenario,
                cell.fraction * 100.0,
                cell.model,
                cell.mre,
                cell.epochs_run,
                cell.train_seconds
            ));
            cells.push(cell);
        }
    }

    GridResult {
        platform: platform_label.to_string(),
        benchmark: benchmark.kind.name().to_string(),
        num_stages: stages.len(),
        cells,
    }
}

/// Render a [`GridResult`] in the Tables V/VI layout: one row per
/// training fraction (descending, like the paper), one column triple
/// (GCN, GAT, Tran) per scenario.
pub fn render_table(result: &GridResult, scenarios: &[Scenario]) -> crate::table::TableWriter {
    let mut headers: Vec<String> = vec!["# Samples".to_string()];
    for sc in scenarios {
        for kind in ARCHES {
            headers.push(format!("{} {}", sc.id(), kind.label()));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = crate::table::TableWriter::new(
        format!(
            "MRE (%) — {} / {} ({} profiled stages)",
            result.platform, result.benchmark, result.num_stages
        ),
        &header_refs,
    );

    let mut fractions: Vec<f64> = result.cells.iter().map(|c| c.fraction).collect();
    fractions.sort_by(f64::total_cmp);
    fractions.dedup();
    fractions.reverse(); // paper lists 80% first

    for f in fractions {
        let mut row = vec![format!("{:.0}%", f * 100.0)];
        for sc in scenarios {
            for kind in ARCHES {
                let cell = result
                    .cells
                    .iter()
                    .find(|c| c.scenario == sc.id() && c.fraction == f && c.model == kind.label());
                row.push(cell.map_or("-".into(), |c| format!("{:.2}", c.mre)));
            }
        }
        table.add_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::platform_scenarios;
    use predtop_gnn::TrainConfig;

    /// A micro protocol exercising the full grid machinery.
    fn micro_protocol() -> Protocol {
        let mut p = Protocol::default_scaled();
        p.stages_gpt = 14;
        p.stages_moe = 14;
        p.max_stage_layers = 2;
        p.train = TrainConfig::quick(4);
        p.fractions = vec![0.5];
        p
    }

    fn micro_gpt() -> ModelSpec {
        let mut m = ModelSpec::gpt3_1p3b(1);
        m.seq_len = 32;
        m.hidden = 32;
        m.num_heads = 4;
        m.vocab = 128;
        m.num_layers = 4;
        m
    }

    #[test]
    fn grid_produces_all_cells() {
        let platform = Platform::platform1();
        let scenarios = platform_scenarios(&platform);
        let proto = micro_protocol();
        let result = run_grid(
            &platform,
            "P1",
            micro_gpt(),
            &scenarios,
            &proto,
            &mut |_| {},
        );
        // 3 scenarios × 1 fraction × 3 architectures
        assert_eq!(result.cells.len(), 9);
        assert!(result
            .cells
            .iter()
            .all(|c| c.mre.is_finite() && c.mre >= 0.0));
        assert_eq!(result.mres_for("Tran").len(), 3);
    }

    #[test]
    fn table_renders_expected_shape() {
        let platform = Platform::platform1();
        let scenarios = platform_scenarios(&platform);
        let proto = micro_protocol();
        let result = run_grid(
            &platform,
            "P1",
            micro_gpt(),
            &scenarios,
            &proto,
            &mut |_| {},
        );
        let table = render_table(&result, &scenarios);
        assert_eq!(table.headers.len(), 1 + 9);
        assert_eq!(table.rows.len(), 1);
        let rendered = table.render();
        assert!(rendered.contains("(2,2) Tran"));
    }
}
