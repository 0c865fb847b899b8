//! # predtop-bench
//!
//! Shared experiment infrastructure for the binaries that regenerate
//! every table and figure of the paper (see `DESIGN.md` §3 for the
//! experiment index and `EXPERIMENTS.md` for recorded results).
//!
//! Each binary accepts `--paper` to run the full published protocol
//! (409/205 profiled stages, 500 epochs, paper-sized networks) and
//! defaults to a scaled-down protocol sized for a single CPU core; both
//! are defined here so tables stay comparable across binaries.

#![warn(missing_docs)]

pub mod grid;
pub mod protocol;
pub mod scenario;
pub mod table;

pub use grid::{render_table, run_grid, GridResult};
// the deterministic worker pool moved to the shared runtime crate; the
// re-export keeps existing `predtop_bench::par_map` callers working
pub use predtop_runtime::{configured_threads, par_map, par_map_with};
pub use protocol::Protocol;
pub use scenario::{platform_scenarios, Scenario};
pub use table::TableWriter;
