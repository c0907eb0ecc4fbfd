//! The metric catalogue (names and units, mirrored by `BENCHMARK.json`,
//! which adds direction and bounds; a test keeps the two in step) and the
//! report one run produces.

use std::collections::BTreeMap;

use crate::json::Json;

/// End-to-end metrics, in print order. Every workload reports all of them
/// from its untraced window.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, in print order. Every workload's traced pass prints
/// all of them; one that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // query
    ("query.parser.parse_ns", "ns"),
    ("query.prepared.prepare_miss_us", "us"),
    ("query.prepared.prepare_hit_ns", "ns"),
    ("query.plan_cache.hit_frac", "fraction"),
    ("query.exec.adhoc_us", "us"),
    ("query.exec.spec_us", "us"),
    ("query.exec.prepared_us", "us"),
    ("query.exec.rows_per_op", "count"),
    ("query.insert_ns", "ns"),
    ("query.dml_us", "us"),
    // core
    ("core.cost_units_per_op", "units"),
    ("core.initial.estimate_nodes_per_op", "count"),
    ("core.tactic.background_only_frac", "fraction"),
    ("core.tactic.fast_first_frac", "fraction"),
    ("core.tactic.sorted_frac", "fraction"),
    ("core.tactic.index_only_frac", "fraction"),
    ("core.tactic.other_frac", "fraction"),
    ("core.phase.estimation_cost_frac", "fraction"),
    ("core.phase.tscan_cost_frac", "fraction"),
    ("core.phase.fscan_cost_frac", "fraction"),
    ("core.phase.sscan_cost_frac", "fraction"),
    ("core.phase.jscan_cost_frac", "fraction"),
    ("core.phase.final-stage_cost_frac", "fraction"),
    ("core.phase.foreground_cost_frac", "fraction"),
    ("core.phase.union_cost_frac", "fraction"),
    ("core.phase.join_cost_frac", "fraction"),
    ("core.phase.other_cost_frac", "fraction"),
    ("core.kill.projected_frac", "fraction"),
    ("core.kill.spend_frac", "fraction"),
    ("core.kill.wasted_cost_frac", "fraction"),
    ("core.switch_per_op", "count"),
    ("core.shortcut_frac", "fraction"),
    ("core.strategy.tscan_us", "us"),
    ("core.strategy.sscan_us", "us"),
    ("core.strategy.fscan_us", "us"),
    ("core.strategy.jscan_us", "us"),
    ("core.join.win.nested_frac", "fraction"),
    ("core.join.win.index_nested_frac", "fraction"),
    ("core.join.win.hash_left_frac", "fraction"),
    ("core.join.win.hash_right_frac", "fraction"),
    ("core.join.win.merge_rid_frac", "fraction"),
    ("core.join.kill_frac", "fraction"),
    ("core.join.wasted_cost_frac", "fraction"),
    // btree
    ("btree.estimate_range_ns", "ns"),
    ("btree.estimate_qerr_p50", "ratio"),
    ("btree.estimate_qerr_p95", "ratio"),
    ("btree.range_scan_ns_per_entry", "ns"),
    ("btree.descent_pages_per_lookup", "count"),
    ("btree.insert_ns", "ns"),
    // storage
    ("storage.pool.hit_frac", "fraction"),
    ("storage.pool.accesses_per_op", "count"),
    ("storage.pool.hit_ns", "ns"),
    ("storage.pool.miss_ns", "ns"),
    ("storage.pool.contention_per_kop", "count"),
    ("storage.readahead.consumed_frac", "fraction"),
    ("storage.heap.scan_ns_per_row", "ns"),
    ("storage.heap.fetch_ns", "ns"),
    ("storage.store.page_reads_per_op", "count"),
    ("storage.store.batch_factor", "ratio"),
    ("storage.store.read_page_us", "us"),
    ("storage.store.read_run_us_per_page", "us"),
    ("storage.wal.append_us", "us"),
    ("storage.wal.appends_per_row", "count"),
    ("storage.wal.bytes_per_row", "bytes"),
    ("storage.durable.ckpt_ms", "ms"),
    ("storage.durable.ckpt_pages_written", "count"),
    ("storage.durable.ckpt_stall_max_ms", "ms"),
    ("storage.durable.syncs_per_ckpt", "count"),
    ("storage.durable.recover_s", "s"),
    ("storage.durable.recover_ms_per_krecord", "ms"),
    ("storage.durable.open_clean_ms", "ms"),
    ("storage.durable.write_amp", "ratio"),
    ("storage.durable.space_amp", "ratio"),
    // the benchmark itself
    ("bench.trace_overhead_frac", "fraction"),
];

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub trace: bool,
    /// Ops issued in the measured window(s), and how many of them
    /// returned an error or a result the oracle rejects (on
    /// `ingest-durable` also: checkpointed rows missing after the crash).
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Load description and exact counts: script hash, passes, rounds,
    /// ops per class, samples behind each percentile, notes.
    pub info: Vec<(String, Json)>,
}

impl Report {
    /// A report holding every metric of the catalogue for this kind of
    /// run; values not in `values` read 0 (the metric does not apply to
    /// the workload).
    pub fn new(
        workload: &str,
        trace: bool,
        values: BTreeMap<&'static str, f64>,
        attempted: u64,
        failed: u64,
    ) -> Report {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        for name in values.keys() {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalogue"
            );
        }
        Report {
            workload: workload.to_string(),
            trace,
            attempted,
            failed,
            metrics: catalogue
                .iter()
                .map(|(name, _)| (*name, values.get(name).copied().unwrap_or(0.0)))
                .collect(),
            info: Vec::new(),
        }
    }

    pub fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `failed ÷ attempted`, the issue's `fail_frac` (0 when nothing ran).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(unit_of(name))),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Every metric by name with its unit, one per line, then the load
    /// description.
    pub fn human(&self) -> String {
        let mut out = format!(
            "== {} ({}) ==\n",
            self.workload,
            if self.trace {
                "traced pass: per-layer metrics"
            } else {
                "untraced window: end-to-end metrics"
            }
        );
        for (name, value) in &self.metrics {
            out.push_str(&format!("  {name:<44} {value:>16.4} {}\n", unit_of(name)));
        }
        out.push_str(&format!(
            "  {:<44} {:>16.6} fraction ({} of {} ops)\n",
            "fail_frac",
            self.fail_frac(),
            self.failed,
            self.attempted
        ));
        for (key, value) in &self.info {
            out.push_str(&format!("  # {key}: {}\n", value.render()));
        }
        out
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}
