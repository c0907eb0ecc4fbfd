//! The mechanism gates, one module per gate, each a bound on a
//! measurement of one mechanism taken while in-run asserts check every
//! answer it times. The ids (see `GATES`) keep the names of the binaries
//! the gates once were.
//!
//! Every gate runs to the end even when one before it fails, by a failed
//! bound or by a panicked in-run assert; each gate prints its report, a
//! table of every bound's verdict follows, and the exit status is nonzero
//! naming each failed gate. `--write` also writes each report over the
//! committed `BENCH_*.json` at the repository root, whatever its verdict.
//!
//! Run: `cargo run --release -p rdb-bench --bin gate [-- <id>] [--write]`

#[path = "gate/beyond_ram.rs"]
mod beyond_ram;
#[path = "gate/join_methods.rs"]
mod join_methods;
#[path = "gate/prepared_vs_adhoc.rs"]
mod prepared_vs_adhoc;
#[path = "gate/throughput.rs"]
mod throughput;
#[path = "gate/trace_overhead.rs"]
mod trace_overhead;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

use rdb_bench::gate::{Bound, Report, Verdicts};
use rdb_bench::report::{commit, host_parallelism, print_table};

/// Runs one gate: checks its bounds into the verdicts and returns its
/// report, if it keeps one.
type Gate = fn(&mut Verdicts) -> Option<Report>;

/// Where `--write` keeps the reports.
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The gates, in the order they run.
const GATES: [(&str, Gate); 5] = [
    ("trace_overhead", trace_overhead::run),
    ("throughput", throughput::run),
    ("prepared_vs_adhoc", prepared_vs_adhoc::run),
    ("join_methods", join_methods::run),
    ("beyond_ram", beyond_ram::run),
];

fn main() -> ExitCode {
    let mut filter = None;
    let mut write = false;
    for arg in std::env::args().skip(1) {
        if arg == "--write" {
            write = true;
        } else if filter.is_none() && GATES.iter().any(|(id, _)| *id == arg) {
            filter = Some(arg);
        } else {
            eprintln!(
                "usage: gate [<id>] [--write], where <id> is one of {:?}",
                GATES.map(|(id, _)| id)
            );
            return ExitCode::from(2);
        }
    }
    // Stamped once, before `--write` dirties the checkout.
    let commit = commit();
    let mut verdicts = Verdicts::default();
    for (id, run) in GATES {
        if filter.as_deref().is_some_and(|f| f != id) {
            continue;
        }
        println!("== {id} ==\n");
        match catch_unwind(AssertUnwindSafe(|| run(&mut verdicts))) {
            Ok(Some(report)) => {
                let text = report.render(&commit, host_parallelism());
                print!("{text}");
                if write {
                    std::fs::write(Path::new(REPO_ROOT).join(report.file), text)
                        .expect("write the gate's report");
                    println!("wrote {}", report.file);
                }
            }
            Ok(None) => {}
            Err(_) => {
                verdicts.check(
                    id,
                    "in-run asserts held (0: panicked)",
                    0.0,
                    Bound::AtLeast(1.0),
                );
            }
        }
        println!();
    }

    let rows: Vec<Vec<String>> = verdicts
        .0
        .iter()
        .map(|v| {
            let bound = match v.bound {
                Bound::AtLeast(floor) => format!(">= {floor:.2}"),
                Bound::AtMost(ceiling) => format!("<= {ceiling:.2}"),
            };
            let verdict = if v.pass() { "PASS" } else { "FAIL" };
            let measured = format!("{:.3}", v.measured);
            [v.gate, &v.check, &measured, &bound, verdict]
                .map(String::from)
                .to_vec()
        })
        .collect();
    print_table(&["gate", "check", "measured", "bound", "verdict"], &rows);
    let failed = verdicts.failed();
    if failed.is_empty() {
        println!("\nevery gate passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("\ngate FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
