#![forbid(unsafe_code)]

//! # rdb-simtest
//!
//! Deterministic simulation harness for the dynamic-optimization stack.
//! A single `u64` seed reproduces an entire run bit-for-bit:
//!
//! * [`scenario`] grows a randomized table (skewed, clustered, correlated,
//!   NULL-heavy columns via `rdb-workload`) plus a batch of predicate
//!   workloads — point, narrow, wide, half-open, and *empty* ranges, with
//!   both optimization goals and row limits;
//! * [`oracle`] is an independent straight-line evaluator over a shadow
//!   copy of the rows — no indexes, no cost model, no buffer pool — the
//!   ground truth every strategy is differenced against;
//! * [`harness`] executes every retrieval through all four scan
//!   strategies (Tscan/Sscan/Fscan/Jscan), the static baselines, and the
//!   [`rdb_core::DynamicOptimizer`], checks row sets, delivery order, and
//!   record contents against the oracle, asserts cost invariants
//!   (guaranteed-best multiple, fast-first first-row bound), and then
//!   re-runs the dynamic optimizer under injected storage faults
//!   ([`rdb_storage::FaultPolicy`]) — verifying that every run either
//!   fails cleanly with [`rdb_storage::StorageError::InjectedFault`] or
//!   returns *exactly* the right rows, and that a dead index mid-Jscan
//!   degrades gracefully instead of corrupting the result. A round of
//!   two-arm OR requests runs the optimizer's union scan the same way,
//!   clean and under faults.
//!
//! * [`join`] grows seeded *two-table* worlds (PK/FK-correlated, skewed,
//!   disjoint, and NULL-heavy key distributions), runs every generated
//!   join query through the SQL layer's join competition, and differences
//!   the rows against a naive nested-loop shadow oracle — plus a
//!   core-layer contract pass: dynamic join cost bounded by the best
//!   static join plan, and every pair the race and each forced method
//!   deliver satisfying the query's predicates (`--joins` on the
//!   binary).
//!
//! * [`durable`] grows seeded *on-disk* worlds, kills them at arbitrary
//!   points — clean close, hard crash, WAL boundary cuts, ragged
//!   mid-record cuts, torn data frames with and without a covering
//!   full-page image — and differences every recovered database against
//!   the shadow oracle's snapshot at the kill point, including a fault
//!   campaign over the recovered state (`--durable` on the binary).
//!
//! The `simtest` binary drives seed campaigns
//! (`cargo run -p rdb-simtest -- --seeds 500`) and replays a single
//! failing seed verbatim (`--replay <seed>`). A failing seed is printed
//! with the exact replay command. The harness also carries a built-in
//! mutation smoke check: it deliberately drops a row from a result and
//! asserts the oracle catches the difference, proving the differential
//! comparison has teeth.

pub mod concurrency;
pub mod durable;
pub mod failure;
pub mod harness;
pub mod join;
pub mod oracle;
pub mod scenario;

pub use concurrency::{concurrency_check, ConcurrencyReport};
pub use durable::{
    durable_mutation_check, run_durable_seed, DurableOp, DurableReport, DurableScenario,
};
pub use failure::{FailureKind, SimFailure};
pub use harness::{mutation_check, run_seed, OrReport, SeedReport, SimConfig};
pub use join::{join_mutation_check, run_join_seed, JoinQuery, JoinReport, JoinScenario, KeyMode};
pub use scenario::{Conjunct, OrQuery, Query, Scenario};
