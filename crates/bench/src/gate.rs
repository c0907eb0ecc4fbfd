//! What the mechanism gates share: arms timed in interleaved rounds,
//! verdicts collected instead of panicked, and the one writer of every
//! `BENCH_*.json` report.
//!
//! The `gate` binary runs the gates through this module, and so do the
//! `hotpath` bench's two pool gates.

use std::time::Instant;

use rdb_core::json_string;

/// One timed call of an arm: its wall-clock nanoseconds and what it
/// returned.
pub struct Run<T> {
    /// Wall-clock nanoseconds of the call.
    pub ns: f64,
    /// What the call returned.
    pub out: T,
}

/// Every timed call of [`interleaved`], indexed `[round][arm]`.
pub struct Rounds<T>(pub Vec<Vec<Run<T>>>);

/// Times `arms` arms, calling `arm(i)` for arm `i`, in `rounds`
/// interleaved rounds after one untimed warm-up call of each arm.
///
/// Round `r` runs every arm once, starting with arm `r % arms` and going
/// on in rotation: a slow spell on a shared host lands on every arm
/// rather than on one arm's block of runs, and no arm always runs first.
pub fn interleaved<T>(rounds: usize, arms: usize, mut arm: impl FnMut(usize) -> T) -> Rounds<T> {
    for i in 0..arms {
        std::hint::black_box(arm(i));
    }
    Rounds(
        (0..rounds)
            .map(|r| {
                let mut runs: Vec<Run<T>> = (0..arms)
                    .map(|k| {
                        let t = Instant::now();
                        let out = std::hint::black_box(arm((r + k) % arms));
                        let ns = t.elapsed().as_nanos() as f64;
                        Run { ns, out }
                    })
                    .collect();
                // `runs[k]` is arm `(r + k) % arms`; index it by arm.
                runs.rotate_right(r % arms.max(1));
                runs
            })
            .collect(),
    )
}

impl<T> Rounds<T> {
    /// The fastest timed call of `arm`, in nanoseconds.
    pub fn best_ns(&self, arm: usize) -> f64 {
        self.0
            .iter()
            .map(|round| round[arm].ns)
            .fold(f64::INFINITY, f64::min)
    }

    /// The median over rounds of `stat`, a statistic of one round's runs.
    pub fn median(&self, stat: impl Fn(&[Run<T>]) -> f64) -> f64 {
        median(self.0.iter().map(|round| stat(round)).collect())
    }
}

/// The median of `values`; the upper one of the middle two when there
/// is an even number.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Which side of its bound a measurement must fall on.
#[derive(Clone, Copy)]
pub enum Bound {
    /// A floor: the measurement passes at or above it.
    AtLeast(f64),
    /// A ceiling: the measurement passes at or below it.
    AtMost(f64),
}

/// One checked bound of one gate.
pub struct Verdict {
    /// The gate's id.
    pub gate: &'static str,
    /// What was measured.
    pub check: String,
    /// The measurement.
    pub measured: f64,
    /// Its bound.
    pub bound: Bound,
}

impl Verdict {
    /// Whether the measurement meets its bound.
    pub fn pass(&self) -> bool {
        match self.bound {
            Bound::AtLeast(floor) => self.measured >= floor,
            Bound::AtMost(ceiling) => self.measured <= ceiling,
        }
    }
}

/// The verdicts of a run of gates, in the order they were checked. A
/// failed bound is recorded, not panicked, so the gates after it run.
#[derive(Default)]
pub struct Verdicts(pub Vec<Verdict>);

impl Verdicts {
    /// Records `measured` against `bound` and returns whether it passed.
    pub fn check(
        &mut self,
        gate: &'static str,
        check: impl Into<String>,
        measured: f64,
        bound: Bound,
    ) -> bool {
        let verdict = Verdict {
            gate,
            check: check.into(),
            measured,
            bound,
        };
        let pass = verdict.pass();
        self.0.push(verdict);
        pass
    }

    /// Every gate with a failed bound, once each, in order.
    pub fn failed(&self) -> Vec<&'static str> {
        let mut gates: Vec<&'static str> = Vec::new();
        for v in self.0.iter().filter(|v| !v.pass()) {
            if !gates.contains(&v.gate) {
                gates.push(v.gate);
            }
        }
        gates
    }
}

/// A JSON value of a `BENCH_*.json` report. A number keeps the text it
/// prints as, so each report picks its precision.
pub enum Json {
    /// A number, as printed.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, its keys in order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// `v` with `decimals` digits after the point.
    pub fn num(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// An integer (or any number that prints itself).
    pub fn int(n: impl std::fmt::Display) -> Json {
        Json::Num(n.to_string())
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    fn is_scalar(&self) -> bool {
        matches!(self, Json::Num(_) | Json::Str(_))
    }

    fn render(&self, indent: usize, out: &mut String) {
        match self {
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => out.push_str(&json_string(s)),
            Json::Arr(items) => {
                let items = items.iter().map(|v| (None, v)).collect();
                block(items, ['[', ']'], indent, false, out);
            }
            Json::Obj(fields) => {
                let items = fields.iter().map(|(k, v)| (Some(*k), v)).collect();
                block(items, ['{', '}'], indent, false, out);
            }
        }
    }
}

/// Renders an array's or object's `items` at `indent` spaces. Items that
/// are all scalars stay on one line, unless `open`; otherwise each item
/// gets a line of its own.
fn block(
    items: Vec<(Option<&str>, &Json)>,
    brackets: [char; 2],
    indent: usize,
    open: bool,
    out: &mut String,
) {
    let inline = !open && items.iter().all(|(_, v)| v.is_scalar());
    out.push(brackets[0]);
    for (i, (key, value)) in items.iter().enumerate() {
        out.push_str(match (i, inline) {
            (0, true) => "",
            (_, true) => ", ",
            (0, false) => "\n",
            (_, false) => ",\n",
        });
        if !inline {
            out.push_str(&" ".repeat(indent + 2));
        }
        if let Some(key) = key {
            out.push_str(&json_string(key));
            out.push_str(": ");
        }
        value.render(indent + 2, out);
    }
    if !inline && !items.is_empty() {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(brackets[1]);
}

/// One gate's `BENCH_*.json` report: the stamp every report carries, then
/// the gate's own fields.
pub struct Report {
    /// The file name, at the repository root.
    pub file: &'static str,
    /// The source of the gate that measured it.
    pub bench: &'static str,
    /// What the figures are and how they were measured.
    pub note: String,
    /// The gate's figures, in order.
    pub fields: Vec<(&'static str, Json)>,
}

impl Report {
    /// The report's bytes, stamped with `commit` and `host_parallelism`.
    pub fn render(&self, commit: &str, host_parallelism: usize) -> String {
        let stamp = [
            ("bench", Json::str(self.bench)),
            (
                "command",
                Json::str("cargo run --release -p rdb-bench --bin gate -- --write"),
            ),
            ("commit", Json::str(commit)),
            ("host_parallelism", Json::int(host_parallelism)),
            ("note", Json::str(&self.note)),
        ];
        let items = stamp.iter().chain(&self.fields).map(|(k, v)| (Some(*k), v));
        let mut out = String::new();
        block(items.collect(), ['{', '}'], 0, true, &mut out);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_arm_runs_once_per_round_and_first_equally_often() {
        const ARMS: usize = 4;
        const K: usize = 3;
        let mut log: Vec<usize> = Vec::new();
        let rounds = interleaved(K * ARMS, ARMS, |i| {
            log.push(i);
            i
        });
        let (warm_up, timed) = log.split_at(ARMS);
        assert_eq!(warm_up, [0, 1, 2, 3], "one untimed call of each arm");
        let mut firsts = [0usize; ARMS];
        for round in timed.chunks(ARMS) {
            let mut seen = round.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, [0, 1, 2, 3], "every arm once per round");
            firsts[round[0]] += 1;
        }
        assert_eq!(firsts, [K; ARMS], "each arm first exactly K times");
        for round in &rounds.0 {
            let arms: Vec<usize> = round.iter().map(|run| run.out).collect();
            assert_eq!(arms, [0, 1, 2, 3], "runs are indexed by arm");
        }
    }

    #[test]
    fn median_ratio_over_a_fixed_vector() {
        assert_eq!(median(vec![1.4, 1.1, 1.3, 1.2, 9.0]), 1.3);
        let rounds = Rounds(
            [(10.0, 5.0), (10.0, 8.0), (12.0, 4.0)]
                .iter()
                .map(|&(a, b)| vec![Run { ns: a, out: () }, Run { ns: b, out: () }])
                .collect(),
        );
        assert_eq!(rounds.median(|r| r[0].ns / r[1].ns), 2.0);
        assert_eq!(rounds.best_ns(0), 10.0);
        assert_eq!(rounds.best_ns(1), 4.0);
    }

    #[test]
    fn a_failed_bound_is_collected_not_panicked() {
        let mut v = Verdicts::default();
        assert!(v.check("a", "floor", 1.5, Bound::AtLeast(1.5)));
        assert!(!v.check("b", "floor", 1.4, Bound::AtLeast(1.5)));
        assert!(!v.check("b", "ceiling", 3.1, Bound::AtMost(3.0)));
        assert!(v.check("c", "ceiling", 3.0, Bound::AtMost(3.0)));
        assert_eq!(v.failed(), ["b"]);
        assert_eq!(v.0.len(), 4);
    }

    #[test]
    fn the_writer_bytes_are_pinned() {
        let report = Report {
            file: "BENCH_test.json",
            bench: "crates/bench/src/bin/gate/test.rs",
            note: "A \"quoted\" note.".into(),
            fields: vec![
                ("rows", Json::int(40_000)),
                (
                    "ratios",
                    Json::Arr(vec![Json::num(1.034, 2), Json::num(1.5, 2)]),
                ),
                (
                    "runs",
                    Json::Arr(vec![
                        Json::Obj(vec![
                            ("threads", Json::int(1)),
                            ("qps", Json::num(767.94, 1)),
                        ]),
                        Json::Obj(vec![
                            ("threads", Json::int(2)),
                            ("qps", Json::num(785.2, 1)),
                        ]),
                    ]),
                ),
                (
                    "gate",
                    Json::Obj(vec![("min", Json::num(1.5, 2)), ("ok", Json::str("yes"))]),
                ),
                ("empty", Json::Arr(vec![])),
            ],
        };
        assert_eq!(
            report.render("abc1234", 2),
            r#"{
  "bench": "crates/bench/src/bin/gate/test.rs",
  "command": "cargo run --release -p rdb-bench --bin gate -- --write",
  "commit": "abc1234",
  "host_parallelism": 2,
  "note": "A \"quoted\" note.",
  "rows": 40000,
  "ratios": [1.03, 1.50],
  "runs": [
    {"threads": 1, "qps": 767.9},
    {"threads": 2, "qps": 785.2}
  ],
  "gate": {"min": 1.50, "ok": "yes"},
  "empty": []
}
"#
        );
    }
}
