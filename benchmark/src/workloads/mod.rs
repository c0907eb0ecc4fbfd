//! The five workloads and what they share: op scripts, temp directories,
//! the process's peak memory.

pub mod families;
pub mod ingest;
pub mod join;
pub mod read;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::engine::{Db, QueryOptions};
use crate::metrics::Report;
use crate::oracle::Expect;
use crate::rng::{mix, Rng};
use crate::Config;

/// Every workload, in run order, with why it exists (`BENCHMARK.json`
/// repeats this).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "adhoc-warm",
        "SQL text per op on resident data: parse, resolve, lower and estimation dominate; pool and store idle",
    ),
    (
        "prepared-warm",
        "same data and bindings through prepared handles: the plan-cache path, so a gain on one front half that costs the other shows",
    ),
    (
        "sweep-beyond-ram",
        "durable table 8x the pool, 2 clients, host-variable sweeps: competition, kill rules, eviction, read-ahead and frame reads do the work",
    ),
    (
        "join-race",
        "two-table joins in three key modes under a 128-page pool: the join competition dominates, single-table tactics are bypassed",
    ),
    (
        "ingest-durable",
        "insert, checkpoint, read-your-writes, crash, reopen: WAL, write-back, fsync, recovery and B-tree insert; the optimizer idles",
    ),
];

pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "adhoc-warm" => read::run(cfg, &families::warm_workload(cfg, Mode::Adhoc)),
        "prepared-warm" => read::run(cfg, &families::warm_workload(cfg, Mode::Prepared)),
        "sweep-beyond-ram" => read::run(cfg, &families::sweep_workload(cfg)),
        "join-race" => read::run(cfg, &join::workload(cfg)),
        "ingest-durable" => ingest::run(cfg),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {}",
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
        )),
    }
}

/// The hash of the op script `cfg` would run, without running it.
pub fn script_hash(cfg: &Config) -> Result<u64, String> {
    Ok(match cfg.workload.as_str() {
        "adhoc-warm" => families::warm_workload(cfg, Mode::Adhoc).plan.script_hash(),
        "prepared-warm" => families::warm_workload(cfg, Mode::Prepared)
            .plan
            .script_hash(),
        "sweep-beyond-ram" => families::sweep_workload(cfg).plan.script_hash(),
        "join-race" => join::workload(cfg).plan.script_hash(),
        "ingest-durable" => ingest::script_hash(cfg),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// How a read workload issues its statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// SQL text through `Db::query` on every op.
    Adhoc,
    /// `Prepared::execute` on handles prepared once per client.
    Prepared,
}

/// One statement class of a mix and its fixed op count per pass.
#[derive(Debug, Clone)]
pub struct Class {
    pub name: &'static str,
    pub ops_per_pass: usize,
}

/// One scripted op: a statement, its host-variable binding and what a
/// correct result looks like.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into `ReadPlan::statements`.
    pub stmt: usize,
    /// Index into `ReadPlan::classes`.
    pub class: usize,
    pub binding: Vec<i64>,
    pub opts: QueryOptions,
    pub expect: Arc<Expect>,
}

/// The seeded part of a read workload: statements, one op script per
/// client (a pass runs each script once) and the oracle's expectations.
#[derive(Debug, Clone)]
pub struct ReadPlan {
    pub statements: Vec<String>,
    pub classes: Vec<Class>,
    pub scripts: Vec<Vec<Op>>,
    pub mode: Mode,
}

impl ReadPlan {
    /// Hash of every client's (statement, binding) sequence: equal seeds
    /// must give equal hashes, different seeds different ones.
    pub fn script_hash(&self) -> u64 {
        let mut h = 0u64;
        for op in self.scripts.iter().flatten() {
            h = mix(h ^ op.stmt as u64);
            for b in &op.binding {
                h = mix(h ^ *b as u64);
            }
        }
        h
    }

    pub fn ops_per_pass(&self) -> usize {
        self.scripts.iter().map(Vec::len).sum()
    }
}

/// The oracle's answer for one binding of a class.
pub type ExpectFn<'a> = Box<dyn Fn(&[i64]) -> Expect + 'a>;

/// One statement class of a mix, before it is scripted.
pub struct ClassSpec<'a> {
    pub name: &'static str,
    pub sql: &'static str,
    /// Host variables of `sql`, in the order bindings list their values.
    pub vars: &'static [&'static str],
    /// The class's part of every pass, in per mille.
    pub share: u32,
    /// Every binding the class uses. A script cycles through the grid, and
    /// grids are sized to divide the class's ops per pass, so every pass
    /// of every seed issues the same bindings and only their order
    /// differs: the work per pass, and with it every metric, stays
    /// comparable across seeds.
    pub grid: Vec<Vec<i64>>,
    pub expect: ExpectFn<'a>,
}

/// Scripts a mix: per client, each class's share of `ops_per_pass` ops
/// (shares are chosen to come out whole), in seeded order.
pub fn script(
    seed: u64,
    mode: Mode,
    clients: usize,
    ops_per_pass: usize,
    mix: &[ClassSpec<'_>],
) -> ReadPlan {
    let mut statements: Vec<String> = Vec::new();
    let mut classes = Vec::new();
    let mut stmt_of_class = Vec::new();
    for class in mix {
        let stmt = statements
            .iter()
            .position(|s| s == class.sql)
            .unwrap_or_else(|| {
                statements.push(class.sql.to_string());
                statements.len() - 1
            });
        stmt_of_class.push(stmt);
        classes.push(Class {
            name: class.name,
            ops_per_pass: ops_per_pass * class.share as usize / 1000,
        });
    }
    let mut cache: HashMap<(usize, &[i64]), Arc<Expect>> = HashMap::new();
    let mut scripts = Vec::new();
    for client in 0..clients {
        let mut rng = Rng::new(seed, 100 + client as u64);
        let mut ops = Vec::new();
        for (ci, class) in mix.iter().enumerate() {
            for j in 0..classes[ci].ops_per_pass {
                let binding = &class.grid[j % class.grid.len()];
                let expect = cache
                    .entry((stmt_of_class[ci], binding))
                    .or_insert_with(|| Arc::new((class.expect)(binding)))
                    .clone();
                let opts = class
                    .vars
                    .iter()
                    .zip(binding)
                    .fold(QueryOptions::new(), |o, (v, b)| o.with_param(*v, *b));
                ops.push(Op {
                    stmt: stmt_of_class[ci],
                    class: ci,
                    binding: binding.clone(),
                    opts,
                    expect,
                });
            }
        }
        rng.shuffle(&mut ops);
        scripts.push(ops);
    }
    ReadPlan {
        statements,
        classes,
        scripts,
        mode,
    }
}

/// A loaded database, with the directory it lives in when durable. The
/// database closes before the directory is removed (field order).
pub struct Built {
    pub db: Db,
    pub dir: Option<TempDir>,
}

/// A directory under `<out>/tmp`, removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(cfg: &Config, label: &str) -> Result<TempDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = cfg.out_dir.join("tmp").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A leftover from a killed run with the same pid would make the
        // engine recover someone else's data.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `<out>/tmp` itself only while another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
