//! The repo's one benchmark: five closed-loop workloads over the query
//! engine, each checked against an oracle, reporting the end-to-end
//! metrics a user of `rdb_query::Db` would see and, from a separate traced
//! pass, the per-layer metrics that explain them. See README.md.

pub mod compare;
pub mod engine;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod probes;
pub mod rng;
pub mod span;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

pub use metrics::Report;

/// The seed `all` uses when none is given (the paper's year).
pub const DEFAULT_SEED: u64 = 1993;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    /// Reaches only the generators: the engine sees generated rows and
    /// bindings, never the seed.
    pub seed: u64,
    /// Length of the measured window. It ends with the first pass that
    /// finishes after this many seconds.
    pub seconds: f64,
    /// False: end-to-end metrics, tracing off. True: the traced pass,
    /// per-layer metrics.
    pub trace: bool,
    /// Multiplies table sizes (not op counts); 1.0 is the benchmark,
    /// smaller is for smoke tests.
    pub scale: f64,
    /// Where temp databases and `<workload>.trace.json` go.
    pub out_dir: PathBuf,
    /// Test hook: corrupt the expectation of one op so the run must
    /// report a failure.
    pub corrupt_one_expectation: bool,
}

impl Config {
    pub fn new(workload: &str) -> Config {
        Config {
            workload: workload.to_string(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            scale: 1.0,
            out_dir: default_out_dir(),
            corrupt_one_expectation: false,
        }
    }

    /// `n` rows at the configured scale (never below 200, so every
    /// statement class still finds rows).
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(200)
    }
}

/// `benchmark/out`, found through the manifest directory Cargo exports to
/// what it runs; beside the current directory otherwise. Either way
/// inside the checkout.
pub fn default_out_dir() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("out"),
        None => PathBuf::from("benchmark").join("out"),
    }
}

/// Runs the workload `cfg` names.
pub fn run(cfg: &Config) -> Result<Report, String> {
    workloads::run(cfg)
}
