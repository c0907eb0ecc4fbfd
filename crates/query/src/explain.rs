//! `EXPLAIN ANALYZE`: execute a query with tracing attached and package
//! the competition timeline for humans (rendered text) and machines
//! (hand-rolled JSON, no serde).

use std::sync::Arc;

use rdb_core::{json_string, render_timeline, trace_json, TraceBuffer, TraceEvent, TraceSink};

use crate::exec::QueryResult;
use crate::options::QueryOptions;

/// The product of [`crate::db::Db::explain_analyze`]: the query's real
/// result plus the full decision trace the engine emitted while producing
/// it — candidate estimates, refinements, knee/switch points, discards,
/// phase costs, and the winner.
#[derive(Debug)]
pub struct ExplainAnalyze {
    /// The SQL text that ran.
    pub sql: String,
    /// The executed query's result (rows, cost, strategy, metrics).
    pub result: QueryResult,
    /// The typed trace, in execution order.
    pub events: Vec<TraceEvent>,
}

impl ExplainAnalyze {
    /// Renders the competition timeline for terminals: a header with the
    /// winning strategy and totals, then one line per trace event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("EXPLAIN ANALYZE ");
        out.push_str(&self.sql);
        out.push('\n');
        out.push_str(&format!(
            "winner {} | {} row(s) | cost {:.1} | pool {} hit(s) / {} miss(es)\n",
            self.result.strategy,
            self.result.rows.len(),
            self.result.cost,
            self.result.metrics.pool_hits,
            self.result.metrics.pool_misses,
        ));
        if self.result.metrics.prefetched_pages > 0 {
            out.push_str(&format!(
                "read-ahead {} page(s) prefetched / {} consumed\n",
                self.result.metrics.prefetched_pages, self.result.metrics.prefetch_consumed,
            ));
        }
        out.push_str(&render_timeline(&self.events));
        out
    }

    /// Machine-readable form: one JSON object with the run summary and the
    /// `events` array (each event tagged by kind, as
    /// [`rdb_core::event_json`] emits it).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sql\":{},\"strategy\":{},\"rows\":{},\"cost\":{:.6},\
             \"pool\":{{\"hits\":{},\"misses\":{}}},\
             \"read_ahead\":{{\"prefetched\":{},\"consumed\":{}}},\"events\":{}}}",
            json_string(&self.sql),
            json_string(self.result.strategy),
            self.result.rows.len(),
            self.result.cost,
            self.result.metrics.pool_hits,
            self.result.metrics.pool_misses,
            self.result.metrics.prefetched_pages,
            self.result.metrics.prefetch_consumed,
            trace_json(&self.events),
        )
    }
}

/// Tee sink: captures into the analyze buffer while forwarding to the
/// sink the caller attached via [`QueryOptions::with_trace`].
struct Fanout {
    capture: Arc<TraceBuffer>,
    forward: Arc<dyn TraceSink>,
}

impl TraceSink for Fanout {
    fn emit(&self, event: TraceEvent) {
        self.forward.emit(event.clone());
        self.capture.emit(event);
    }
}

/// Clones `opts` with `capture` attached as the trace sink, teeing to any
/// sink the caller had already installed.
pub(crate) fn with_capture(opts: &QueryOptions, capture: Arc<TraceBuffer>) -> QueryOptions {
    let sink: Arc<dyn TraceSink> = match opts.trace_sink() {
        Some(forward) => Arc::new(Fanout { capture, forward }),
        None => capture,
    };
    opts.clone().with_trace(sink)
}
