//! Command line of the benchmark. See README.md.
//!
//! ```text
//! rdb-benchmark --workload W --seed N --seconds S --trace 0|1 [--scale F]
//! rdb-benchmark all|W... [--seed N] [--measure-s S] [--scale F] [--runs R]
//!                        [--json PATH] [--stamp key=value]...
//! rdb-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use rdb_benchmark::compare::{self, Verdict};
use rdb_benchmark::json::Json;
use rdb_benchmark::metrics::{unit_of, END_TO_END, PER_LAYER};
use rdb_benchmark::stats::median;
use rdb_benchmark::workloads::WORKLOADS;
use rdb_benchmark::{Config, DEFAULT_SEED};

const USAGE: &str = "usage:
  rdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
      one run of one workload; the last line of stdout is the result as JSON
  rdb-benchmark all | <workload>... [--seed <n>] [--measure-s <s>] [--scale <f>] [--runs <r>]
                [--json <path>] [--stamp key=value]...
      every (or the named) workload, one child process per run: the untraced window,
      then the traced pass; prints every metric with its unit
  rdb-benchmark compare <A.json> <B.json> [--bounds <BENCHMARK.json>]
      applies BENCHMARK.json's bounds to two result files written by --json
workloads: adhoc-warm prepared-warm sweep-beyond-ram join-race ingest-durable";

/// `--key value` options and the positional arguments before them.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.options.push((key.to_string(), value));
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, keys: &[&str]) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| keys.contains(&k.as_str()))
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, keys: &[&str], default: T) -> Result<T, String> {
        match self.get(keys) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{} {v}: not a valid number", keys[0])),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let outcome = if args.get(&["workload"]).is_some() {
        single(&args)
    } else {
        match args.positional.first().map(String::as_str) {
            Some("compare") => compare_files(&args),
            Some(_) => suite(&args),
            None => Err(USAGE.to_string()),
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(2)
}

fn config(args: &Args, workload: &str) -> Result<Config, String> {
    let mut cfg = Config::new(workload);
    cfg.seed = args.number(&["seed"], DEFAULT_SEED)?;
    cfg.seconds = args.number(&["seconds", "measure-s"], cfg.seconds)?;
    cfg.scale = args.number(&["scale"], 1.0)?;
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if !(cfg.scale > 0.0 && cfg.scale <= 4.0) {
        return Err("--scale must be in (0, 4]".into());
    }
    if let Some(dir) = args.get(&["out"]) {
        cfg.out_dir = PathBuf::from(dir);
    }
    Ok(cfg)
}

/// The driver's form: one run, result as the last line of stdout.
fn single(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&[
        "workload",
        "seed",
        "seconds",
        "measure-s",
        "trace",
        "scale",
        "out",
    ])?;
    let mut cfg = config(args, args.get(&["workload"]).expect("checked by caller"))?;
    cfg.trace = match args.get(&["trace"]).unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let report = rdb_benchmark::run(&cfg)?;
    print!("{}", report.human());
    println!("{}", Json::Obj(report.info.clone()).render());
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// What one child run printed: its result line and, above it, its notes.
struct ChildRun {
    result: Json,
    info: Json,
    human: String,
}

fn run_child(cfg: &Config) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &cfg.workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .args(["--scale", &cfg.scale.to_string()])
        .arg("--out")
        .arg(&cfg.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", cfg.workload))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().map(Json::parse);
    let info = lines.pop().map(Json::parse);
    match (result, info) {
        (Some(Ok(result)), Some(Ok(info))) if result.get("metrics").is_some() => Ok(ChildRun {
            result,
            info,
            human: lines.join("\n"),
        }),
        _ => Err(format!(
            "{} (trace {}) exited with {} and no result",
            cfg.workload,
            u8::from(cfg.trace),
            out.status
        )),
    }
}

/// `all` or named workloads: untraced window then traced pass, one child
/// process each, `--runs` times.
fn suite(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&[
        "seed",
        "seconds",
        "measure-s",
        "scale",
        "runs",
        "json",
        "stamp",
        "out",
    ])?;
    let names: Vec<&str> = if args.positional[0] == "all" {
        WORKLOADS.iter().map(|w| w.0).collect()
    } else {
        args.positional.iter().map(String::as_str).collect()
    };
    if let Some(bad) = names.iter().find(|n| !WORKLOADS.iter().any(|w| w.0 == **n)) {
        return Err(format!("unknown workload {bad}\n{USAGE}"));
    }
    let runs: usize = args.number(&["runs"], 1)?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }

    let base = config(args, "all")?;
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for name in names {
        let mut cfg = Config {
            workload: name.to_string(),
            ..base.clone()
        };
        // metric -> one value per run
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut infos = Vec::new();
        for run in 0..runs {
            for trace in [false, true] {
                cfg.trace = trace;
                let child = run_child(&cfg)?;
                if run + 1 == runs {
                    println!("{}", child.human);
                    infos.push((if trace { "traced" } else { "untraced" }, child.info));
                }
                attempted += child
                    .result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                failed += child
                    .result
                    .get("failed")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                all_correct &= child.result.get("correct") == Some(&Json::Bool(true));
                let catalogue = if trace { PER_LAYER } else { END_TO_END };
                for (metric, _) in catalogue {
                    let v = child
                        .result
                        .get("metrics")
                        .and_then(|m| m.get(metric))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{name}: result lacks {metric}"))?;
                    values.entry(metric).or_default().push(v);
                }
            }
        }
        let section = |catalogue: &[(&'static str, &'static str)]| {
            Json::Obj(
                catalogue
                    .iter()
                    .map(|(metric, _)| {
                        let runs = &values[metric];
                        (
                            metric.to_string(),
                            Json::obj([
                                ("median", Json::Num(median(runs))),
                                ("unit", Json::str(unit_of(metric))),
                                (
                                    "runs",
                                    Json::Arr(runs.iter().map(|v| Json::Num(*v)).collect()),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        workloads_json.push((
            name.to_string(),
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "fail_frac",
                    Json::Num(if attempted > 0.0 {
                        failed / attempted
                    } else {
                        0.0
                    }),
                ),
                ("end_to_end", section(END_TO_END)),
                ("per_layer", section(PER_LAYER)),
                ("info", Json::obj(infos)),
            ]),
        ));
    }

    if let Some(path) = args.get(&["json"]) {
        let mut provenance: Vec<(String, Json)> = args
            .options
            .iter()
            .filter(|(k, _)| k == "stamp")
            .filter_map(|(_, v)| v.split_once('='))
            .map(|(k, v)| (k.to_string(), Json::str(v)))
            .collect();
        provenance.push(("seed".into(), Json::from(base.seed)));
        provenance.push(("scale".into(), Json::Num(base.scale)));
        provenance.push(("measure_s".into(), Json::Num(base.seconds)));
        provenance.push(("runs".into(), Json::from(runs as u64)));
        provenance.push((
            "available_parallelism".into(),
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ));
        let doc = Json::obj([
            ("provenance", Json::Obj(provenance)),
            ("workloads", Json::Obj(workloads_json)),
        ]);
        if let Some(parent) = PathBuf::from(path).parent() {
            std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, doc.pretty()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if !all_correct {
        eprintln!(
            "FAILED: at least one op returned an error, a wrong result, or lost a checkpointed row"
        );
    }
    Ok(all_correct)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&["bounds"])?;
    let [_, a, b] = args.positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bounds_path = args.get(&["bounds"]).unwrap_or("BENCHMARK.json");
    let bounds = compare::bounds_of(&read(bounds_path)?)?;
    let worst = compare::compare(&read(a)?, &read(b)?, &bounds)?;
    println!("worst verdict: {}", worst.as_str());
    Ok(worst != Verdict::Regressed)
}
