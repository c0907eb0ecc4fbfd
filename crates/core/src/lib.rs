#![forbid(unsafe_code)]

//! # rdb-core
//!
//! The dynamic single-table retrieval optimizer of *Dynamic Query
//! Optimization in Rdb/VMS* (Antoshenkov, ICDE 1993) — the paper's primary
//! contribution, reimplemented faithfully:
//!
//! * The four scan strategies of Section 4 — [`Tscan`], [`Sscan`],
//!   [`Fscan`], [`Jscan`] — as resumable state machines that can be
//!   advanced in quanta, raced at proportional speeds, and abandoned
//!   mid-run.
//! * The **initial stage** of Section 5 ([`initial`]): index
//!   classification (self-sufficient / fetch-needed / order-needed),
//!   descent-to-split-node range estimation, ascending-selectivity
//!   preordering, and the OLTP shortcuts (empty range ⇒ instant end of
//!   data; tiny range ⇒ skip everything else).
//! * The **Jscan** joint scan of Section 6 ([`jscan`]): RID-list
//!   intersection through sorted-buffer and hashed-bitmap filters, tiered
//!   RID storage (zero ⇒ shortcut, ≤20 ⇒ static buffer, bigger ⇒ heap
//!   buffer, bigger still ⇒ temp table + bitmap), two-stage competition
//!   against the guaranteed-best retrieval, the direct-competition scan
//!   spend limit, and Tscan recommendation.
//! * The four **retrieval tactics** of Section 7 ([`tactics`]):
//!   background-only, fast-first, sorted, and index-only, built on the
//!   foreground/background process structure of Figure 4, whose processes
//!   take turns in cooperative quanta at proportional speeds.
//! * The **kill rules** ([`KillRules`], from `rdb-competition`): every
//!   competition above and below asks the one `judge` function whether a
//!   competitor's projection or spend has reached its share of the
//!   guaranteed best.
//! * The **dynamic optimizer** ([`dynamic`]) that picks and drives a
//!   tactic per run, after host variables are bound.
//! * The **baselines** the paper argues against ([`baseline`]): a
//!   Selinger-style static optimizer and the statically-thresholded
//!   multi-index scan of Mohan et al. \[MoHa90\].
//! * The **join layer** ([`join`]): two-table retrieval as a competition
//!   arena — nested-loop, index-nested-loop, hash, and Jscan-style
//!   RID-intersection joins raced under the same kill rules, applying
//!   Section 2's JOIN selectivity transformation at planning time.

pub mod baseline;
pub mod dynamic;
pub mod filter;
pub mod fscan;
pub mod initial;
pub mod join;
pub mod jscan;
pub mod request;
pub mod ridlist;
pub mod sscan;
pub mod tactics;
pub mod trace;
pub mod tscan;
pub mod union;

pub use baseline::{StaticJscan, StaticOptimizer, StaticPlan};
pub use dynamic::{DynamicConfig, DynamicOptimizer, TacticChoice};
pub use filter::Filter;
pub use fscan::Fscan;
pub use initial::{InitialPlan, InitialStage, ShortcutKind};
pub use join::competition::{run_join, run_join_method};
pub use join::nested::{JoinScan, JoinStepOutcome};
pub use join::{JoinMethod, JoinOp, JoinPair, JoinRequest, JoinResult, JoinSide, PairPred, SideId};
pub use jscan::{DiscardReason, Jscan, JscanConfig, JscanIndex, JscanOutcome};
pub use rdb_competition::KillRules;
pub use request::{
    Delivery, DeliveryObserver, IndexChoice, KeyPred, OptimizeGoal, RecordPred, RetrievalRequest,
    RetrievalResult, Sink,
};
pub use ridlist::{RidList, RidListBuilder, RidTierConfig};
pub use sscan::Sscan;
pub use trace::{
    event_json, json_string, render_timeline, trace_json, RunTrace, TraceBuffer, TraceEvent,
    TraceSink, Tracer,
};
pub use tscan::Tscan;
pub use union::{UnionArm, UnionOutcome, UnionScan};
