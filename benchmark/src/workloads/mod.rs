//! The four workloads. Each has an untraced pass that produces the
//! end-to-end metrics and a traced pass that produces the per-layer ones.

pub mod lib;
pub mod serve_open;
pub mod serve_update_mix;
pub mod wire;

use crate::metrics::Outcome;
use crate::trace::Tracer;
use std::path::PathBuf;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Lanes per engine, pool workers, server threads and client
    /// connections: the host's hardware threads.
    pub nproc: usize,
    /// Where `jitspmm-serve` was built (serve workloads only).
    pub serve_binary: Option<PathBuf>,
}

impl RunConfig {
    pub fn serve_binary(&self) -> Result<&std::path::Path, String> {
        self.serve_binary.as_deref().ok_or_else(|| "jitspmm-serve was not built".to_string())
    }
}

pub fn needs_server(workload: &str) -> bool {
    workload.starts_with("serve_")
}

pub fn run_end_to_end(workload: &str, config: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "lib_large" => lib::run_end_to_end(lib::Kind::Large, config),
        "lib_mid_paced" => lib::run_end_to_end(lib::Kind::MidPaced, config),
        "serve_open" => serve_open::run_end_to_end(config),
        "serve_update_mix" => serve_update_mix::run_end_to_end(config),
        other => Err(format!("unknown workload {other:?}")),
    }
}

pub fn run_per_layer(
    workload: &str,
    config: &RunConfig,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    match workload {
        "lib_large" => lib::run_per_layer(lib::Kind::Large, config, tracer),
        "lib_mid_paced" => lib::run_per_layer(lib::Kind::MidPaced, config, tracer),
        "serve_open" => serve_open::run_per_layer(config, tracer),
        "serve_update_mix" => serve_update_mix::run_per_layer(config, tracer),
        other => Err(format!("unknown workload {other:?}")),
    }
}
