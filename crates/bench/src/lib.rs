#![forbid(unsafe_code)]

//! # rdb-bench
//!
//! The experiment harness reproducing every figure and quantified claim of
//! *Dynamic Query Optimization in Rdb/VMS* (Antoshenkov, ICDE 1993).
//! `src/bin/*` regenerates each artifact; `EXPERIMENTS.md` at the
//! repository root records paper-expected vs measured outcomes.
//!
//! | Binary | What it runs |
//! |---|---|
//! | `paper` | Every figure and quantified claim, one row per `EXPERIMENTS.md` section (`paper [<id>]`): the Section 2 distribution algebra and Section 3 competition models in units (E1-E5, NWAY, E17), and the engine claims in cost units with the clock beside them (E6-E19, A1-A3); E18, HIST and A4 print units only |
//! | `gate` | Every mechanism gate, one row per gate (`gate [<id>] [--write]`): `trace_overhead`, `throughput`, `prepared_vs_adhoc`, `join_methods` and `beyond_ram`, timed through [`gate`]; `--write` regenerates their `BENCH_*.json` reports |

pub mod fixtures;
pub mod gate;
pub mod histogram;
pub mod report;
