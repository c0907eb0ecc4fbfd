//! The repo's code policy, expressed as data.
//!
//! Everything the rules need to know about *this* workspace — which file
//! may use `unsafe`, which modules own atomics, which scan modules must
//! expose fallible entry points — lives here, in one place, so a policy
//! change is a reviewed diff rather than folklore. Every allowlist entry
//! is itself checked for staleness (rule `X001`): an exemption that no
//! longer matches anything fails the lint run, so dead carve-outs cannot
//! linger.

use std::path::PathBuf;

/// Workspace-relative policy configuration consumed by [`crate::rules`].
#[derive(Debug, Clone)]
pub struct Policy {
    /// Workspace root (the directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Path prefixes (relative, `/`-separated) excluded from the walk.
    pub exclude: Vec<String>,
    /// Files allowed to contain `unsafe` at all. A crate whose `src/`
    /// holds an entry here is also the only kind of crate exempt from the
    /// `#![forbid(unsafe_code)]` crate-root requirement.
    pub unsafe_allowlist: Vec<String>,
    /// Library modules allowed to use `std::sync::atomic::Ordering`.
    pub atomics_allowlist: Vec<String>,
    /// Library modules allowed to hold per-session deferred state in
    /// `thread_local!` buffers. Each such module must also carry a `Drop`
    /// guard that absorbs pending counters on every exit path (rule
    /// `D002`).
    pub deferred_allowlist: Vec<String>,
    /// Lines above a `Relaxed` use searched for a justification comment.
    pub relaxed_window: usize,
    /// Lines above an `unsafe` searched for a `SAFETY:` comment.
    pub safety_window: usize,
    /// Library files allowed to print to stdout (designated reporters).
    pub print_allowlist: Vec<String>,
    /// Planning/estimation modules that must stay infallible: no
    /// `try_access`, no `StorageError`. Entries are files or dir prefixes.
    pub planning_modules: Vec<String>,
    /// Scan modules whose `pub fn step/run/execute*` must return `Result`.
    pub scan_entry_files: Vec<String>,
    /// `(file, fn)` pairs exempt from the scan-entry rule, with a reason.
    pub scan_entry_exempt: Vec<(String, String, String)>,
    /// Sync-facade modules: the only library files allowed to issue raw
    /// atomic operations on the protected concurrency fields (the seqlock
    /// mirror, the WAL publication frontier, the deferred tallies). Rule
    /// `S003` flags facade-bypassing atomics anywhere else.
    pub facade_modules: Vec<String>,
    /// Files/prefixes whose panic tokens are counted against the ratchet.
    pub ratchet_scope: Vec<String>,
    /// The committed ratchet baseline, relative to `root`.
    pub ratchet_path: String,
}

impl Policy {
    /// The policy for this repository.
    pub fn repo(root: PathBuf) -> Policy {
        Policy {
            root,
            exclude: vec![
                "vendor/".into(),
                "target/".into(),
                // The lint tool's own rule fixtures are violations by
                // construction.
                "crates/lint/tests/fixtures/".into(),
            ],
            unsafe_allowlist: vec![
                // Open-addressed buffer pool: bounds-proven unchecked slot
                // access on the hot probe path (see the SAFETY comments).
                "crates/storage/src/buffer.rs".into(),
                // Seqlock probe mirror: the same bounds-proven unchecked
                // walk, factored out of the pool behind the Sync facade.
                "crates/storage/src/mirror.rs".into(),
                // Model-checker facade: ghost state and modeled mutex
                // cells are `UnsafeCell`s made sound by the engine's
                // one-virtual-thread-at-a-time baton (SAFETY comments).
                "crates/check/src/sync.rs".into(),
                // Counting global allocator used by the zero-allocation
                // proof; `GlobalAlloc` is an unsafe trait.
                "crates/core/tests/alloc_free.rs".into(),
                // Its twin: the front end's and the prepared run's
                // allocation budget.
                "crates/query/tests/alloc_budget.rs".into(),
            ],
            atomics_allowlist: vec![
                // Lock-free cost metering.
                "crates/storage/src/cost.rs".into(),
                // Sharded pool: fault-policy arming flag and contention
                // counter.
                "crates/storage/src/buffer.rs".into(),
                // Seqlock probe mirror: the fence-based reader/writer
                // protocol, generic over the Sync facade.
                "crates/storage/src/mirror.rs".into(),
                // WAL tail: the allocate/publish LSN handoff.
                "crates/storage/src/lsn.rs".into(),
                // File store: the `page_reads` / `batch_reads` statistics,
                // kept out of the WAL mutex so a reader never queues
                // behind an append's write for a counter.
                "crates/storage/src/file_store.rs".into(),
                // Per-session deferred touch buffers: the shared
                // absorption tally behind the lock-free hit path.
                "crates/storage/src/touch.rs".into(),
                // The model checker's ordering interpreter: it *consumes*
                // `Ordering` values to simulate them.
                "crates/check/src/engine.rs".into(),
            ],
            deferred_allowlist: vec![
                // The one home of per-session deferred counters; its
                // `PoolLocal` drop guard absorbs pending tallies on every
                // exit path.
                "crates/storage/src/touch.rs".into(),
                // The checker's per-OS-thread virtual-thread identity
                // (`CURRENT`), uninstalled by the `CurrentGuard` drop.
                "crates/check/src/engine.rs".into(),
            ],
            relaxed_window: 8,
            safety_window: 5,
            print_allowlist: vec![
                // The experiment harness's designated table printer.
                "crates/bench/src/report.rs".into(),
            ],
            planning_modules: vec![
                "crates/core/src/initial.rs".into(),
                // Join cost/cardinality model: estimation never touches
                // fallible storage, same contract as the scan estimators.
                "crates/core/src/join/estimate.rs".into(),
                "crates/btree/src/estimate.rs".into(),
                "crates/btree/src/stats.rs".into(),
                "crates/dist/src/".into(),
            ],
            scan_entry_files: vec![
                // Durable backend: every page-store/WAL/recovery entry
                // point is on the real-I/O path and must surface typed
                // errors, never panic.
                "crates/storage/src/store.rs".into(),
                "crates/storage/src/file_store.rs".into(),
                "crates/storage/src/wal.rs".into(),
                "crates/storage/src/durable.rs".into(),
                "crates/core/src/tscan.rs".into(),
                "crates/core/src/sscan.rs".into(),
                "crates/core/src/fscan.rs".into(),
                "crates/core/src/jscan.rs".into(),
                "crates/core/src/union.rs".into(),
                "crates/core/src/dynamic.rs".into(),
                "crates/core/src/baseline.rs".into(),
                "crates/core/src/join/nested.rs".into(),
                "crates/core/src/join/hash.rs".into(),
                "crates/core/src/join/merge.rs".into(),
                "crates/core/src/join/competition.rs".into(),
            ],
            scan_entry_exempt: vec![
                (
                    "crates/core/src/jscan.rs".into(),
                    "step".into(),
                    "Jscan absorbs an index's storage fault, reporting a \
                     FaultAbsorbed trace event and dropping the scan; its \
                     quantum cannot fail"
                        .into(),
                ),
                (
                    "crates/core/src/jscan.rs".into(),
                    "run".into(),
                    "drives step(); same fault-absorption contract".into(),
                ),
            ],
            facade_modules: vec![
                // The facade definition itself (`RealSync`).
                "crates/storage/src/sync.rs".into(),
                // The protocol modules expressed against the facade.
                "crates/storage/src/mirror.rs".into(),
                "crates/storage/src/lsn.rs".into(),
                "crates/storage/src/touch.rs".into(),
                // The model-side facade implementation.
                "crates/check/src/sync.rs".into(),
            ],
            ratchet_scope: vec![
                "crates/storage/src/".into(),
                "crates/btree/src/".into(),
                "crates/core/src/tscan.rs".into(),
                "crates/core/src/sscan.rs".into(),
                "crates/core/src/fscan.rs".into(),
                "crates/core/src/jscan.rs".into(),
                "crates/core/src/union.rs".into(),
                "crates/core/src/ridlist.rs".into(),
                "crates/core/src/filter.rs".into(),
                "crates/core/src/tactics.rs".into(),
                "crates/core/src/dynamic.rs".into(),
                "crates/core/src/baseline.rs".into(),
                "crates/core/src/join/".into(),
            ],
            ratchet_path: "lint-ratchet.toml".into(),
        }
    }

    /// True when `rel` is excluded from the walk entirely.
    pub fn excluded(&self, rel: &str) -> bool {
        self.exclude.iter().any(|p| rel.starts_with(p.as_str()))
    }

    /// True when `rel` is test/bench/example code rather than shipped
    /// library or binary source.
    pub fn is_test_context(rel: &str) -> bool {
        rel.starts_with("tests/")
            || rel.starts_with("examples/")
            || rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/")
    }

    /// True when `rel` is library code: under a crate's `src/`, not a
    /// binary entry point, not test context.
    pub fn is_lib_code(rel: &str) -> bool {
        rel.starts_with("crates/")
            && rel.contains("/src/")
            && !rel.contains("/src/bin/")
            && !rel.ends_with("/src/main.rs")
            && !Self::is_test_context(rel)
    }

    /// True when `rel` falls under the panic-freedom ratchet.
    pub fn in_ratchet_scope(&self, rel: &str) -> bool {
        Self::is_lib_code(rel)
            && self
                .ratchet_scope
                .iter()
                .any(|p| rel == p.as_str() || (p.ends_with('/') && rel.starts_with(p.as_str())))
    }

    /// True when `rel` is a planning/estimation module.
    pub fn is_planning(&self, rel: &str) -> bool {
        self.planning_modules
            .iter()
            .any(|p| rel == p.as_str() || (p.ends_with('/') && rel.starts_with(p.as_str())))
    }
}
