//! The repository benchmark: four workloads that drive the simdize
//! crates through their public functions, check every output, and
//! report end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! Per-layer numbers come from timing this crate's own calls into each
//! layer's public functions ([`Layers`]); nothing inside the program is
//! instrumented. See `README.md` for the workloads, the metric tables
//! and how to run one workload.

pub mod inputs;
pub mod kernel_steady;
pub mod metrics;
pub mod paper_sweep;
pub mod prove_quick;
pub mod replay;
pub mod serve_mixed;

pub use metrics::{Layers, Outcome};

use std::time::Duration;

/// Set-up is repeated this many times per run and `setup_s` is the
/// median, so a single slow start does not decide the figure.
pub const SETUPS: usize = 3;

/// An in-process traced run fails when the replayed layers cover less
/// than this share of the untraced wall time they replay. They covered
/// 90-100% when the benchmark was written; the gap is run-to-run noise
/// between the untraced call and its replay, while a layer the replay
/// stopped crossing would open a larger one.
pub const MIN_COVERAGE: f64 = 0.75;

/// The benchmark's workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 4] = ["paper-sweep", "serve-mixed", "kernel-steady", "prove-quick"];

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Root of the repository checkout (where `loops/` lives).
    pub root: std::path::PathBuf,
    /// Length of the measured window.
    pub measure: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The executable started as the `simdize serve` child
    /// (`serve-mixed` only): the benchmark binary itself, which runs
    /// the simdize CLI when its first argument is `simdize`.
    pub server_exe: std::path::PathBuf,
}

/// Runs one workload by name.
///
/// # Errors
///
/// An unknown workload name, unreadable inputs, or a failure to start
/// or reach the server child.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match name {
        "paper-sweep" => paper_sweep::run(cfg),
        "serve-mixed" => serve_mixed::run(cfg),
        "kernel-steady" => kernel_steady::run(cfg),
        "prove-quick" => prove_quick::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
