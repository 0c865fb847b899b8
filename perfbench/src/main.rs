//! The predtop benchmark: one command, two workloads.
//!
//! ```sh
//! python3 perfbench/run.py --workload serve_search --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `run.py` builds the `predtop` binary and this one from source, then
//! runs this binary with the same arguments plus `--predtop PATH`. The
//! last line of standard output is the result object; a provenance
//! line and the detailed result (written under `perfbench/out/`)
//! precede it. See `perfbench/NOTES.md` for what each workload and
//! metric means.

mod daemon;
mod heap;
mod layers;
mod predtop_loop;
mod probe;
mod serve_search;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::{Layers, PER_LAYER};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;
use trace::Tracer;
use util::{Json, Tail};

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub predtop: PathBuf,
    pub out_dir: PathBuf,
    pub commit: String,
    /// Digest of the sources the run was built from.
    pub source: String,
    pub command: String,
    /// Time `predtop_loop`'s set-up in this process, print the seconds
    /// and exit: how that workload times its set-up in fresh processes.
    pub setup_probe: bool,
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: f64,
    pub peak_mem_mb: f64,
    pub p50_ms: f64,
    pub tail: Tail,
    pub heavy_gmean_ms: f64,
    pub heavy_tail: Tail,
    pub throughput: f64,
    /// Workload-specific readings for the detailed result file.
    pub detail: Vec<(&'static str, f64)>,
    /// Output digests that must repeat across runs of one seed.
    pub digests: Vec<u64>,
    pub layers: Option<Layers>,
}

impl Outcome {
    /// Count one failed operation and keep its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            eprintln!("FAILED: {reason}");
            self.failures.push(reason);
        }
    }
}

impl Default for Tail {
    fn default() -> Tail {
        Tail {
            value: 0.0,
            level: 0.0,
            samples: 0,
        }
    }
}

fn parse_args() -> Result<RunArgs, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        predtop: PathBuf::new(),
        out_dir: PathBuf::from("perfbench/out"),
        commit: "unknown".to_string(),
        source: "unknown".to_string(),
        command: String::new(),
        setup_probe: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value == "1",
            "--predtop" => args.predtop = PathBuf::from(value),
            "--out" => args.out_dir = PathBuf::from(value),
            "--commit" => args.commit = value.clone(),
            "--source" => args.source = value.clone(),
            "--command" => args.command = value.clone(),
            "--setup-probe" => args.setup_probe = value == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn provenance(args: &RunArgs) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj()
        .with("nproc", nproc)
        .with("isa", predtop_tensor::kernel::active_isa().name())
        .with(
            "predtop_threads",
            std::env::var("PREDTOP_THREADS").unwrap_or_else(|_| "unset".into()),
        )
        .with("commit", args.commit.as_str())
        .with("source", args.source.as_str())
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("command", args.command.as_str())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

fn tail_json(t: &Tail) -> Json {
    Json::obj()
        .with("value", t.value)
        .with("level", t.level)
        .with("samples", t.samples)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let times: Vec<String> = predtop_loop::setup_times(&args)
            .iter()
            .map(f64::to_string)
            .collect();
        println!("{}", times.join(" "));
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let header = provenance(&args);
    println!(
        "{}",
        Json::obj().with("provenance", header.clone()).render()
    );

    let tracer = Tracer::new(args.trace);
    let out = match args.workload.as_str() {
        "serve_search" => serve_search::run(&args, &tracer),
        "predtop_loop" => predtop_loop::run(&args, &tracer),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };

    let tag = format!(
        "{}-{}{}",
        args.workload,
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    let mut detail = Json::obj();
    for (k, v) in &out.detail {
        detail = detail.with(k, *v);
    }

    let metrics = if args.trace {
        let layers = out.layers.clone().unwrap_or_default();
        let mut m = Json::obj();
        for (name, unit) in PER_LAYER {
            m = m.with(name, metric(layers.get(name), unit));
        }
        if let Err(e) = tracer.write_chrome_trace(&args.out_dir.join(format!("{tag}.trace.json"))) {
            eprintln!("perfbench: cannot write trace: {e}");
            return ExitCode::from(1);
        }
        let mut table =
            String::from("span                           count    total_ms     self_ms\n");
        for (name, t) in tracer.self_times() {
            table.push_str(&format!(
                "{name:<30} {:>5} {:>11.3} {:>11.3}\n",
                t.count,
                t.total_s * 1e3,
                t.self_s * 1e3
            ));
        }
        eprint!("{table}");
        let _ = std::fs::write(args.out_dir.join(format!("{tag}.layers.txt")), &table);
        m
    } else {
        Json::obj()
            .with("setup_s", metric(out.setup_s, "s"))
            .with("peak_mem_mb", metric(out.peak_mem_mb, "MB"))
            .with("p50_ms", metric(out.p50_ms, "ms"))
            .with("heavy_gmean_ms", metric(out.heavy_gmean_ms, "ms"))
            .with("throughput_per_s", metric(out.throughput, "1/s"))
    };

    let correct = out.failed == 0 && out.attempted > 0;
    let record = Json::obj()
        .with("provenance", header)
        .with("correct", correct)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with(
            "failures",
            Json::Arr(
                out.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        )
        .with("tail", tail_json(&out.tail))
        .with("heavy_tail", tail_json(&out.heavy_tail))
        .with(
            "digests",
            Json::Arr(
                out.digests
                    .iter()
                    .map(|d| Json::from(format!("{d:016x}")))
                    .collect(),
            ),
        )
        .with("detail", detail)
        .with("metrics", metrics.clone());
    let _ = std::fs::write(args.out_dir.join(format!("{tag}.json")), record.render());

    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", out.attempted)
            .with("failed", out.failed)
            .with("metrics", metrics)
            .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
