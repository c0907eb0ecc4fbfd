//! Folds the engine's typed `TraceEvent`s, collected per op through
//! `QueryOptions::with_trace(TraceBuffer)` in the traced pass, into the
//! `core.*` layer metrics: which tactic ran, where the cost units went,
//! how often each kill rule fired and how much work the losers wasted.

use std::collections::BTreeMap;

use crate::engine::TraceEvent;

/// Phases `core.phase.<name>_cost_frac` reports by name; the join methods'
/// phases fold into `join`, anything else into `other`.
const PHASES: &[&str] = &[
    "estimation",
    "tscan",
    "fscan",
    "sscan",
    "jscan",
    "final-stage",
    "foreground",
    "union",
];

#[derive(Debug, Default, Clone)]
pub struct CoreCounts {
    pub ops: u64,
    estimation_nodes: u64,
    tactics: BTreeMap<String, u64>,
    phase_cost: BTreeMap<&'static str, f64>,
    total_cost: f64,
    /// Index scans admitted into Jscan competitions, and how they ended.
    candidates: u64,
    killed_projected: u64,
    killed_spend: u64,
    killed_spent_cost: f64,
    switches: u64,
    ops_with_shortcut: u64,
    /// Join methods admitted into join races, and how they ended.
    join_ops: u64,
    join_admitted: u64,
    join_killed: u64,
    join_killed_spent_cost: f64,
    join_winners: BTreeMap<&'static str, u64>,
    join_cost: f64,
}

impl CoreCounts {
    /// Adds the events of one op.
    pub fn add_op(&mut self, events: &[TraceEvent]) {
        self.ops += 1;
        let mut shortcut = false;
        let mut is_join = false;
        for event in events {
            match event {
                TraceEvent::TacticChosen {
                    tactic,
                    estimation_nodes,
                } => {
                    *self.tactics.entry(tactic.clone()).or_default() += 1;
                    self.estimation_nodes += estimation_nodes;
                }
                TraceEvent::CompetitionStart { candidates, .. } => {
                    self.candidates += *candidates as u64;
                }
                TraceEvent::IndexDiscarded { reason, spent, .. } => {
                    // Matched by name so the benchmark does not depend on
                    // the engine's `DiscardReason` type.
                    match format!("{reason:?}").as_str() {
                        "ProjectedCost" => self.killed_projected += 1,
                        "ScanSpend" => self.killed_spend += 1,
                        _ => {}
                    }
                    self.killed_spent_cost += spent;
                }
                TraceEvent::Switch { .. } => self.switches += 1,
                TraceEvent::Shortcut { .. } => shortcut = true,
                TraceEvent::PhaseCost { phase, cost } => {
                    let name = match PHASES.iter().find(|p| **p == phase.as_str()) {
                        Some(p) => *p,
                        None if phase.starts_with("join-") => "join",
                        None => "other",
                    };
                    *self.phase_cost.entry(name).or_default() += cost;
                }
                TraceEvent::JoinStart { admitted, .. } => {
                    is_join = true;
                    self.join_admitted += *admitted as u64;
                }
                // Methods pruned at planning time are reported killed with
                // nothing spent, before `JoinStart`; only the ones that ran
                // are losers of the race.
                TraceEvent::JoinKilled { spent, .. } if is_join => {
                    self.join_killed += 1;
                    self.join_killed_spent_cost += spent;
                }
                TraceEvent::Winner { strategy, cost, .. } => {
                    self.total_cost += cost;
                    if let Some(method) = strategy.strip_prefix("join: ") {
                        self.join_cost += cost;
                        *self.join_winners.entry(join_method(method)).or_default() += 1;
                    }
                }
                _ => {}
            }
        }
        self.ops_with_shortcut += u64::from(shortcut);
        self.join_ops += u64::from(is_join);
    }

    pub fn merge(&mut self, other: &CoreCounts) {
        self.ops += other.ops;
        self.estimation_nodes += other.estimation_nodes;
        for (k, v) in &other.tactics {
            *self.tactics.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.phase_cost {
            *self.phase_cost.entry(k).or_default() += v;
        }
        self.total_cost += other.total_cost;
        self.candidates += other.candidates;
        self.killed_projected += other.killed_projected;
        self.killed_spend += other.killed_spend;
        self.killed_spent_cost += other.killed_spent_cost;
        self.switches += other.switches;
        self.ops_with_shortcut += other.ops_with_shortcut;
        self.join_ops += other.join_ops;
        self.join_admitted += other.join_admitted;
        self.join_killed += other.join_killed;
        self.join_killed_spent_cost += other.join_killed_spent_cost;
        for (k, v) in &other.join_winners {
            *self.join_winners.entry(k).or_default() += v;
        }
        self.join_cost += other.join_cost;
    }

    /// The `core.*` metrics these counts support.
    pub fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
        let ops = self.ops as f64;
        out.insert(
            "core.initial.estimate_nodes_per_op",
            per(self.estimation_nodes as f64, ops),
        );
        let tactic = |name: &str| self.tactics.get(name).copied().unwrap_or(0) as f64;
        let named = [
            ("core.tactic.background_only_frac", "BackgroundOnly"),
            ("core.tactic.fast_first_frac", "FastFirst"),
            ("core.tactic.sorted_frac", "Sorted"),
            ("core.tactic.index_only_frac", "IndexOnly"),
        ];
        let chosen: f64 = self.tactics.values().sum::<u64>() as f64;
        let mut rest = chosen;
        for (metric, name) in named {
            out.insert(metric, per(tactic(name), chosen));
            rest -= tactic(name);
        }
        out.insert("core.tactic.other_frac", per(rest, chosen));

        let phase_total: f64 = self.phase_cost.values().sum();
        let phase = |name: &str| {
            per(
                self.phase_cost.get(name).copied().unwrap_or(0.0),
                phase_total,
            )
        };
        out.insert("core.phase.estimation_cost_frac", phase("estimation"));
        out.insert("core.phase.tscan_cost_frac", phase("tscan"));
        out.insert("core.phase.fscan_cost_frac", phase("fscan"));
        out.insert("core.phase.sscan_cost_frac", phase("sscan"));
        out.insert("core.phase.jscan_cost_frac", phase("jscan"));
        out.insert("core.phase.final-stage_cost_frac", phase("final-stage"));
        out.insert("core.phase.foreground_cost_frac", phase("foreground"));
        out.insert("core.phase.union_cost_frac", phase("union"));
        out.insert("core.phase.join_cost_frac", phase("join"));
        out.insert("core.phase.other_cost_frac", phase("other"));

        let candidates = self.candidates as f64;
        out.insert(
            "core.kill.projected_frac",
            per(self.killed_projected as f64, candidates),
        );
        out.insert(
            "core.kill.spend_frac",
            per(self.killed_spend as f64, candidates),
        );
        out.insert(
            "core.kill.wasted_cost_frac",
            per(self.killed_spent_cost, self.total_cost - self.join_cost),
        );
        out.insert("core.switch_per_op", per(self.switches as f64, ops));
        out.insert(
            "core.shortcut_frac",
            per(self.ops_with_shortcut as f64, ops),
        );

        let join_ops = self.join_ops as f64;
        let win = |m: &str| {
            per(
                self.join_winners.get(m).copied().unwrap_or(0) as f64,
                join_ops,
            )
        };
        out.insert("core.join.win.nested_frac", win("nested"));
        out.insert("core.join.win.index_nested_frac", win("index_nested"));
        out.insert("core.join.win.hash_left_frac", win("hash_left"));
        out.insert("core.join.win.hash_right_frac", win("hash_right"));
        out.insert("core.join.win.merge_rid_frac", win("merge_rid"));
        out.insert(
            "core.join.kill_frac",
            per(self.join_killed as f64, self.join_admitted as f64),
        );
        out.insert(
            "core.join.wasted_cost_frac",
            per(self.join_killed_spent_cost, self.join_cost),
        );
    }
}

/// Folds the engine's join-method labels (`hash(build=left)`, …) onto the
/// names `core.join.win.*` reports.
fn join_method(label: &str) -> &'static str {
    match label {
        l if l.starts_with("nested") => "nested",
        l if l.starts_with("index-nested") => "index_nested",
        "hash(build=left)" => "hash_left",
        "hash(build=right)" => "hash_right",
        "merge-rid" => "merge_rid",
        _ => "other",
    }
}
