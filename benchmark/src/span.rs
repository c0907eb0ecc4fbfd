//! In-memory spans recorded by the traced pass from the benchmark's own
//! code, around its calls into each layer. (Spans inside the engine are a
//! later change, ROADMAP item 1(a).)
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`: `parent` is the
//! index of the enclosing span in the same recorder (-1 for a root) and
//! spans of one op share `op_id`. A span's self time is its duration minus
//! the part its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats::median;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i32,
    pub op_id: u64,
}

/// One client's span log. Times are nanoseconds since `epoch`, which all
/// recorders of a pass share.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub client: usize,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, client: usize) -> Recorder {
        Recorder {
            epoch,
            client,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) {
        let parent = self.open.last().map_or(-1, |&p| p as i32);
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op_id,
        });
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> u64 {
        let i = self.open.pop().expect("exit without enter");
        let s = &mut self.spans[i];
        s.end_ns = self.epoch.elapsed().as_nanos() as u64;
        s.end_ns - s.start_ns
    }

    /// Times `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op_id);
        let out = f();
        self.exit();
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }
}

/// Per span name: count, median duration and total self time.
pub fn summarize(recorders: &[Recorder]) -> Json {
    let mut by_name: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if s.parent >= 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in rec.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let entry = by_name.entry(s.name).or_default();
            entry.0.push(dur as f64);
            entry.1 += dur.saturating_sub(*children) as f64;
        }
    }
    Json::Obj(
        by_name
            .into_iter()
            .map(|(name, (durs, self_ns))| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::from(durs.len() as u64)),
                        ("median_us", Json::Num(median(&durs) / 1e3)),
                        ("self_ms", Json::Num(self_ns / 1e6)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The trace file: a summary over every span, and the spans themselves up
/// to `max_spans` per client (a warm workload records millions).
pub fn to_json(workload: &str, recorders: &[Recorder], max_spans: usize) -> Json {
    let total: usize = recorders.iter().map(|r| r.spans.len()).sum();
    let spans: Vec<Json> = recorders
        .iter()
        .flat_map(|rec| {
            rec.spans.iter().take(max_spans).map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("client", Json::from(rec.client as u64)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", Json::Num(f64::from(s.parent))),
                    ("op_id", Json::from(s.op_id)),
                ])
            })
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("spans_recorded", Json::from(total as u64)),
        ("spans_written", Json::from(spans.len() as u64)),
        ("summary", summarize(recorders)),
        ("spans", Json::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.enter("op", 7);
        rec.span("child", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.exit();
        assert_eq!(rec.spans[0].parent, -1);
        assert_eq!(rec.spans[1].parent, 0);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        let summary = summarize(&[rec]);
        let self_ms = |n: &str| {
            summary
                .get(n)
                .unwrap()
                .get("self_ms")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!(self_ms("child") >= 2.0);
        assert!(self_ms("op") < self_ms("child"));
    }
}
