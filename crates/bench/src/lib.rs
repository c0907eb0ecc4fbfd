#![forbid(unsafe_code)]

//! # rdb-bench
//!
//! The experiment harness reproducing every figure and quantified claim of
//! *Dynamic Query Optimization in Rdb/VMS* (Antoshenkov, ICDE 1993).
//! `src/bin/*` regenerates each artifact; `EXPERIMENTS.md` at the
//! repository root records paper-expected vs measured outcomes.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_1` | Figure 2.1 + the hyperbola-fit errors (E1, E2) |
//! | `fig2_2` | Figure 2.2 degradation-of-certainty panels (E3) |
//! | `competition` | Section 3 direct & two-stage competition (E4, E5) |
//! | `estimation` | Figure 5 descent-to-split-node estimation (E7, E8) |
//! | `paper` | The engine-level claims in cost units and milliseconds: Section 4 `AGE >= :A1` (E6), Section 6 Jscan and RID tiers (E9, E10), Section 7 tactics (E11-E14), end-to-end dynamic vs static (E16), the Section 8 steady-state mix (E19) |

pub mod fixtures;
pub mod report;
