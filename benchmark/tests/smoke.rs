//! Smoke and determinism tests of the benchmark itself, at 2 % of the
//! table sizes with 0.2 s windows: the contract with `BENCHMARK.json`
//! (every metric printed once, finite, with its unit), seed discipline
//! (same seed: same script and same exact counts; another seed: another
//! script), and that the oracle check bites.

use std::collections::BTreeSet;
use std::path::PathBuf;

use rdb_benchmark::json::Json;
use rdb_benchmark::metrics::unit_of;
use rdb_benchmark::workloads::WORKLOADS;
use rdb_benchmark::{Config, Report};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn run(test: &str, workload: &str, seed: u64, trace: bool) -> Report {
    let mut cfg = Config::new(workload);
    cfg.seed = seed;
    cfg.seconds = 0.2;
    cfg.scale = 0.02;
    cfg.trace = trace;
    cfg.out_dir = manifest_dir().join("out").join("test").join(test);
    rdb_benchmark::run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn names_of(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").unwrap().as_str().unwrap().to_string(),
                m.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_metric_of_benchmark_json_is_printed_once_with_its_unit() {
    let spec = benchmark_json();
    let declared: Vec<String> = spec
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    let implemented: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
    assert_eq!(declared, implemented, "BENCHMARK.json workloads");

    for (workload, _) in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run("metrics", workload, 11, trace);
            assert!(report.correct(), "{workload}: {} ops failed", report.failed);
            let expected = names_of(spec.get(key).unwrap());
            let printed: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            assert_eq!(
                printed.iter().copied().collect::<BTreeSet<_>>().len(),
                printed.len(),
                "{workload}: a metric is printed twice"
            );
            assert_eq!(
                printed.iter().copied().collect::<BTreeSet<_>>(),
                expected
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<BTreeSet<_>>(),
                "{workload} {key}: printed metrics differ from BENCHMARK.json"
            );
            for (name, unit) in &expected {
                assert!(
                    name.len() <= 64
                        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {name}"
                );
                assert_eq!(unit_of(name), unit, "unit of {name}");
                let value = report.get(name).unwrap();
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
                }
            }

            // The line the driver reads.
            let line = Json::parse(&report.result_line()).unwrap();
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            assert_eq!(
                line.get("metrics").unwrap().as_obj().unwrap().len(),
                expected.len()
            );
            if trace {
                layers_separate(&report);
            }
        }
    }
}

/// The workloads stress different layers: what must read zero, one or
/// non-zero where.
fn layers_separate(report: &Report) {
    let get = |name: &str| report.get(name).unwrap();
    let join_wins: f64 = report
        .metrics
        .iter()
        .filter(|m| m.0.starts_with("core.join.win."))
        .map(|m| m.1)
        .sum();
    match report.workload.as_str() {
        "adhoc-warm" | "prepared-warm" => {
            assert_eq!(get("storage.pool.hit_frac"), 1.0);
            assert_eq!(get("storage.store.page_reads_per_op"), 0.0);
            assert_eq!(get("core.phase.join_cost_frac"), 0.0);
            assert_eq!(join_wins, 0.0);
        }
        "sweep-beyond-ram" => {
            assert!(get("storage.store.page_reads_per_op") > 0.0);
            assert!(get("storage.pool.hit_frac") < 1.0);
            assert_eq!(join_wins, 0.0);
        }
        "join-race" => {
            assert_eq!(get("core.phase.join_cost_frac"), 1.0);
            assert!(
                (join_wins - 1.0).abs() < 1e-9,
                "join winners sum to {join_wins}"
            );
            assert_eq!(get("core.tactic.background_only_frac"), 0.0);
        }
        "ingest-durable" => {
            assert!(get("storage.wal.appends_per_row") >= 1.0);
            assert!(get("storage.durable.write_amp") > 1.0);
            assert!(get("storage.durable.recover_s") > 0.0);
            assert_eq!(join_wins, 0.0);
        }
        other => panic!("no layer expectations for {other}"),
    }
}

fn note<'a>(report: &'a Report, key: &str) -> &'a Json {
    &report
        .info
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("{}: no note {key}", report.workload))
        .1
}

#[test]
fn same_seed_same_script_and_exact_counts_other_seed_other_script() {
    const EXACT: &[&str] = &[
        "core.cost_units_per_op",
        "storage.pool.accesses_per_op",
        "storage.wal.appends_per_row",
        "storage.durable.write_amp",
        "query.exec.rows_per_op",
    ];
    for (workload, _) in WORKLOADS {
        let a = run("seeds-a", workload, 7, true);
        let b = run("seeds-b", workload, 7, true);
        assert_eq!(
            note(&a, "script_hash"),
            note(&b, "script_hash"),
            "{workload}: same seed, different script"
        );
        let hash = |seed: u64| {
            let mut cfg = Config::new(workload);
            cfg.seed = seed;
            cfg.scale = 0.02;
            rdb_benchmark::workloads::script_hash(&cfg).unwrap()
        };
        assert_eq!(
            note(&a, "script_hash").as_str(),
            Some(format!("{:016x}", hash(7)).as_str())
        );
        assert_ne!(hash(7), hash(8), "{workload}: different seeds, same script");
        // Two clients interleave differently from run to run; one client
        // must repeat exactly.
        if *workload != "sweep-beyond-ram" {
            for name in EXACT {
                assert_eq!(
                    a.get(name).unwrap().to_bits(),
                    b.get(name).unwrap().to_bits(),
                    "{workload}: {name} is not exact"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_expectation_is_counted_as_a_failure() {
    for workload in [
        "adhoc-warm",
        "sweep-beyond-ram",
        "join-race",
        "ingest-durable",
    ] {
        let mut cfg = Config::new(workload);
        cfg.seconds = 0.1;
        cfg.scale = 0.02;
        cfg.out_dir = manifest_dir().join("out").join("test").join("corrupt");
        cfg.corrupt_one_expectation = true;
        let report = rdb_benchmark::run(&cfg).unwrap();
        assert!(
            report.failed > 0,
            "{workload}: the corrupted op passed the check"
        );
        assert!(report.fail_frac() > 0.0);
        assert!(!report.correct());
        let line = Json::parse(&report.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
