#![forbid(unsafe_code)]

//! # rdb-competition
//!
//! The **competition model** of Section 3 of *Dynamic Query Optimization in
//! Rdb/VMS* (Antoshenkov, ICDE 1993).
//!
//! When execution-cost estimates degenerate into L-shaped distributions
//! (half the probability in a cheap knee, half spread over an expensive
//! tail — see `rdb-dist`), committing to the plan with the lowest *mean*
//! cost wastes the cheap-knee opportunity of the alternatives. The paper's
//! remedy:
//!
//! * **Direct competition** ([`direct`]): run the risky plan `A₂` only
//!   until its cost reaches its knee `c₂`, then switch to the safe plan
//!   `A₁`. Expected cost ≈ `(m₂ + c₂ + M₁)/2`, "about twice smaller than
//!   the traditional `M₁`". With hyperbolic shapes, running both plans
//!   *simultaneously with proportional speeds* is better still.
//! * **Two-stage competition** ([`two_stage`]): when a plan's cheap first
//!   stage continuously refines an estimate of its expensive second stage,
//!   keep running the first stage while the projected second-stage cost
//!   stays below ~95% of the guaranteed-best alternative; switch the
//!   moment it no longer does.
//!
//! [`CostDist`] supplies the cost-distribution families (including the
//! truncated hyperbola the paper fits everywhere). [`rules`] and [`sched`]
//! are the two pieces the engine runs on: [`KillRules::judge`], the one
//! function that decides the paper's 95 % / 50 % switch criteria for every
//! competition in the workspace, and the deterministic proportional-speed
//! quantum scheduler that interleaves the competitors.

pub mod direct;
pub mod dist;
pub mod rules;
pub mod sched;
pub mod two_stage;

pub use direct::{
    direct_competition_cost, optimal_switch_point, simultaneous_cost, simultaneous_cost_n,
    DirectOutcome,
};
pub use dist::CostDist;
pub use rules::{Kill, KillRules};
pub use sched::ProportionalScheduler;
pub use two_stage::{two_stage_cost, TwoStageConfig, TwoStageOutcome};
