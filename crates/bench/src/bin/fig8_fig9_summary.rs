//! Fig. 8 & Fig. 9 — mean and standard deviation of the per-scenario
//! MREs, aggregated per (platform, benchmark, architecture).
//!
//! Computes the four MRE grids of Tables V and VI fresh with the
//! current protocol flags (the same grids `table5_mre_platform1` and
//! `table6_mre_platform2` render).

use predtop_bench::grid::{run_grid, GridResult, ARCHES};
use predtop_bench::{platform_scenarios, Protocol, TableWriter};
use predtop_cluster::Platform;
use predtop_gnn::metrics::mean_std;
use predtop_models::ModelSpec;

fn grid(
    platform: &Platform,
    label: &'static str,
    model: ModelSpec,
    proto: &Protocol,
) -> GridResult {
    let scenarios = platform_scenarios(platform);
    run_grid(platform, label, model, &scenarios, proto, &mut |l| {
        eprintln!("{l}")
    })
}

fn main() {
    let proto = Protocol::from_args();
    let p1 = Platform::platform1();
    let p2 = Platform::platform2();

    let grids = vec![
        grid(&p1, "Platform 1", proto.gpt3(), &proto),
        grid(&p1, "Platform 1", proto.moe(), &proto),
        grid(&p2, "Platform 2", proto.gpt3(), &proto),
        grid(&p2, "Platform 2", proto.moe(), &proto),
    ];

    let mut fig8 = TableWriter::new(
        "Fig. 8 — average of MREs (%) over scenarios and training fractions",
        &["platform", "benchmark", "GCN", "GAT", "Tran"],
    );
    let mut fig9 = TableWriter::new(
        "Fig. 9 — standard deviation of MREs (%) over scenarios and training fractions",
        &["platform", "benchmark", "GCN", "GAT", "Tran"],
    );

    for grid in &grids {
        let mut means = Vec::new();
        let mut stds = Vec::new();
        for kind in ARCHES {
            let mres = grid.mres_for(kind.label());
            assert!(!mres.is_empty(), "grid missing {} cells", kind.label());
            let (m, s) = mean_std(&mres);
            means.push(format!("{m:.2}"));
            stds.push(format!("{s:.2}"));
        }
        let mut row8 = vec![grid.platform.to_string(), grid.benchmark.to_string()];
        row8.extend(means);
        fig8.add_row(row8);
        let mut row9 = vec![grid.platform.to_string(), grid.benchmark.to_string()];
        row9.extend(stds);
        fig9.add_row(row9);
    }

    fig8.print();
    fig9.print();
    let p8 = fig8.save_json("fig8_mre_mean");
    let p9 = fig9.save_json("fig9_mre_std");
    println!("saved {} and {}", p8.display(), p9.display());
}
