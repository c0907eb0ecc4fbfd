//! The runner the four read workloads share: set-up, the closed-loop
//! window, the oracle check of every op, and the traced pass.
//!
//! Closed loop: each client is one OS thread that issues its next op only
//! when the previous one has returned. A pass runs every client's script
//! once (clients start a pass together); the window is whole passes until
//! the time is up. Passes are grouped into rounds of at least
//! [`ROUND_MIN_OPS`] ops, each metric is computed per round and the
//! median over the rounds is reported, so one disturbed second of a
//! shared box moves one round, not the result.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::engine::*;
use crate::json::Json;
use crate::metrics::Report;
use crate::probes::{self, ProbeSpec};
use crate::span::{self, Recorder};
use crate::stats::{fast_decile, median, percentile_us};
use crate::trace::CoreCounts;
use crate::workloads::{peak_rss_mib, Built, Mode, Op, ReadPlan};
use crate::Config;

/// Ops a round must hold so that at least 20 samples lie beyond its p99.
pub const ROUND_MIN_OPS: usize = 2000;

/// Times the set-up runs in an untraced run; `setup_s` is their median.
/// Five when one takes under [`CHEAP_SETUP_S`], three otherwise.
const SETUP_REPEATS: (usize, usize) = (5, 3);
const CHEAP_SETUP_S: f64 = 0.6;

/// Share of `--seconds` each of the traced run's two windows gets.
const TRACED_WINDOW_SHARE: f64 = 0.3;

/// Spans per client written to the trace file (all are summarized).
const MAX_SPANS_WRITTEN: usize = 20_000;

/// A read workload: its seeded plan, how to build its database, and what
/// the layer probes should look at.
pub struct Workload {
    pub name: &'static str,
    pub plan: ReadPlan,
    pub build: Box<dyn Fn() -> Result<Built, String>>,
    pub probes: ProbeSpec,
}

/// One client of a window: its session and the handles prepared once.
struct Client<'db> {
    id: usize,
    db: &'db Db,
    session: Session<'db>,
    handles: Vec<Prepared<'db>>,
}

impl<'db> Client<'db> {
    fn new(id: usize, db: &'db Db, plan: &ReadPlan, mode: Mode) -> Result<Client<'db>, String> {
        let session = db.session();
        let handles = if mode == Mode::Prepared {
            plan.statements
                .iter()
                .map(|sql| {
                    session
                        .prepare(sql)
                        .map_err(|e| format!("prepare {sql}: {e}"))
                })
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Client {
            id,
            db,
            session,
            handles,
        })
    }
}

/// What one client did in one pass.
#[derive(Debug, Default)]
struct Tally {
    lat_ns: Vec<u64>,
    failed: u64,
    rows: u64,
    cost: f64,
}

impl Tally {
    /// Checks one result after its span has closed.
    fn check(&mut self, op: &Op, result: Result<QueryResult, QueryError>) {
        match result {
            Ok(r) => {
                self.rows += r.rows.len() as u64;
                self.cost += r.cost;
                if !op.expect.accepts(&r.rows) {
                    self.failed += 1;
                }
            }
            Err(_) => self.failed += 1,
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.lat_ns.extend(other.lat_ns);
        self.failed += other.failed;
        self.rows += other.rows;
        self.cost += other.cost;
    }
}

/// The untraced op loop.
fn run_script(client: &Client<'_>, plan: &ReadPlan, script: &[Op], mode: Mode) -> Tally {
    let mut tally = Tally::default();
    tally.lat_ns.reserve(script.len());
    for op in script {
        let sql = &plan.statements[op.stmt];
        let t = Instant::now();
        let result = match mode {
            Mode::Adhoc => client.db.query(sql, &op.opts),
            Mode::Prepared => client.handles[op.stmt].execute(&op.opts),
        };
        tally.lat_ns.push(t.elapsed().as_nanos() as u64);
        tally.check(op, result);
    }
    tally
}

/// What the traced op loop keeps per client across passes.
struct ClientTrace {
    recorder: Recorder,
    /// Attached to every op when the pass collects engine events.
    buffer: Option<Arc<TraceBuffer>>,
    core: CoreCounts,
    next_op: u64,
}

/// The traced op loop: a root `op` span per op with `query.parse` /
/// `query.exec` children, and the engine's `TraceEvent`s of each op folded
/// into `core`. An ad-hoc op is issued as `parse_query` then
/// `Session::query_spec` (what `Db::query` does, in two calls), so the
/// halves can be timed.
fn run_script_traced(
    client: &Client<'_>,
    plan: &ReadPlan,
    script: &[Op],
    mode: Mode,
    tr: &mut ClientTrace,
) -> Tally {
    let mut tally = Tally::default();
    for op in script {
        let sql = &plan.statements[op.stmt];
        let opts = match &tr.buffer {
            Some(buf) => op.opts.clone().with_trace(buf.clone()),
            None => op.opts.clone(),
        };
        let id = tr.next_op;
        tr.next_op += 1;
        tr.recorder.enter("op", id);
        let result = match mode {
            Mode::Prepared => tr
                .recorder
                .span("query.exec", id, || client.handles[op.stmt].execute(&opts)),
            Mode::Adhoc => tr
                .recorder
                .span("query.parse", id, || parse_query(sql))
                .and_then(|spec| {
                    tr.recorder
                        .span("query.exec", id, || client.session.query_spec(&spec, &opts))
                }),
        };
        tally.lat_ns.push(tr.recorder.exit());
        if let Some(buf) = &tr.buffer {
            tr.core.add_op(&buf.take());
        }
        tally.check(op, result);
    }
    tally
}

/// Runs every client's script once; clients run concurrently and the pass
/// ends when the last one finishes. Returns the pass's wall time too.
fn run_pass(
    clients: &[Client<'_>],
    plan: &ReadPlan,
    mode: Mode,
    traces: Option<&mut [ClientTrace]>,
) -> (Tally, u64) {
    let mut traces: Vec<Option<&mut ClientTrace>> = match traces {
        Some(traces) => traces.iter_mut().map(Some).collect(),
        None => clients.iter().map(|_| None).collect(),
    };
    let run = |c: &Client<'_>, tr: Option<&mut ClientTrace>| match tr {
        Some(tr) => run_script_traced(c, plan, &plan.scripts[c.id], mode, tr),
        None => run_script(c, plan, &plan.scripts[c.id], mode),
    };
    let start = Instant::now();
    let mut total = Tally::default();
    if let [only] = clients {
        // One client runs on this thread, so its counts repeat exactly.
        total = run(only, traces.pop().expect("one trace slot per client"));
    } else {
        std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter()
                .zip(traces)
                .map(|(c, tr)| s.spawn(move || run(c, tr)))
                .collect();
            for w in workers {
                total.absorb(w.join().expect("client thread panicked"));
            }
        });
    }
    (total, start.elapsed().as_nanos() as u64)
}

/// What a window measured. Throughput and the median latency are taken
/// per pass, the 99th percentile per round (whole passes holding at least
/// [`ROUND_MIN_OPS`] ops).
#[derive(Debug, Default)]
struct Window {
    pass_qps: Vec<f64>,
    pass_p50_us: Vec<f64>,
    round_p99_us: Vec<f64>,
    passes: u64,
    ops: u64,
    failed: u64,
    rows: u64,
    cost: f64,
    wall_s: f64,
    /// Latencies of the last pass, in script order (client by client).
    last_pass_ns: Vec<u64>,
}

impl Window {
    fn qps(&self) -> f64 {
        fast_decile(&self.pass_qps, true)
    }
    fn p50_us(&self) -> f64 {
        fast_decile(&self.pass_p50_us, false)
    }
    fn p99_us(&self) -> f64 {
        fast_decile(&self.round_p99_us, false)
    }

    fn describe(&self, report: &mut Report, plan: &ReadPlan) {
        report.note("passes", Json::from(self.passes));
        report.note("rounds", Json::from(self.round_p99_us.len() as u64));
        let passes_per_round = ROUND_MIN_OPS.div_ceil(plan.ops_per_pass());
        report.note(
            "samples_per_round",
            Json::from((passes_per_round * plan.ops_per_pass()) as u64),
        );
        report.note("window_s", Json::Num(self.wall_s));
        report.note("qps_whole_window", Json::Num(self.ops as f64 / self.wall_s));
        // Where each class sits, from the last pass: the mix rule wants
        // p50 and p99 each inside one class.
        let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); plan.classes.len()];
        for (op, ns) in plan.scripts.iter().flatten().zip(&self.last_pass_ns) {
            by_class[op.class].push(*ns as f64 / 1e3);
        }
        let per_class = |f: fn(&[f64]) -> f64| {
            Json::Obj(
                plan.classes
                    .iter()
                    .zip(&by_class)
                    .map(|(c, us)| (c.name.to_string(), Json::Num(f(us))))
                    .collect(),
            )
        };
        report.note("class_p50_us", per_class(median));
        report.note(
            "class_max_us",
            per_class(|us| us.iter().copied().fold(0.0, f64::max)),
        );
        report.note(
            "ops_per_pass_by_class",
            Json::Obj(
                plan.classes
                    .iter()
                    .map(|c| {
                        (
                            c.name.to_string(),
                            Json::from((c.ops_per_pass * plan.scripts.len()) as u64),
                        )
                    })
                    .collect(),
            ),
        );
    }
}

/// Runs passes until `seconds` have elapsed (at least one).
fn run_window(
    db: &Db,
    plan: &ReadPlan,
    mode: Mode,
    seconds: f64,
    mut traces: Option<&mut [ClientTrace]>,
) -> Result<Window, String> {
    let clients: Vec<Client<'_>> = (0..plan.scripts.len())
        .map(|id| Client::new(id, db, plan, mode))
        .collect::<Result<_, _>>()?;
    let mut window = Window::default();
    let mut round_ns: Vec<u64> = Vec::new();
    let start = Instant::now();
    loop {
        let (mut tally, wall_ns) = run_pass(&clients, plan, mode, traces.as_deref_mut());
        window.passes += 1;
        window.ops += tally.lat_ns.len() as u64;
        window.failed += tally.failed;
        window.rows += tally.rows;
        window.cost += tally.cost;
        window.last_pass_ns.clone_from(&tally.lat_ns);
        round_ns.extend_from_slice(&tally.lat_ns);
        window
            .pass_qps
            .push(tally.lat_ns.len() as f64 / (wall_ns as f64 / 1e9));
        window
            .pass_p50_us
            .push(percentile_us(&mut tally.lat_ns, 0.50));
        if round_ns.len() >= ROUND_MIN_OPS {
            window.round_p99_us.push(percentile_us(&mut round_ns, 0.99));
            round_ns.clear();
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // Passes left over after the last full round are no round of their
    // own, unless they are all there is.
    if window.round_p99_us.is_empty() {
        window.round_p99_us.push(percentile_us(&mut round_ns, 0.99));
    }
    window.wall_s = start.elapsed().as_secs_f64();
    Ok(window)
}

/// Builds the database and runs one checked warm-up pass, so caches are
/// filled and every statement has been planned once before timing.
fn set_up(workload: &Workload) -> Result<(Built, f64), String> {
    let t = Instant::now();
    let built = (workload.build)()?;
    let warm = run_window(&built.db, &workload.plan, workload.plan.mode, 0.0, None)?;
    let secs = t.elapsed().as_secs_f64();
    if warm.failed > 0 {
        eprintln!(
            "{}: {} of {} warm-up ops failed the oracle",
            workload.name, warm.failed, warm.ops
        );
    }
    Ok((built, secs))
}

/// Counters read at window boundaries, for the count-kind layer metrics.
#[derive(Debug, Clone, Copy)]
struct Counters {
    pool: PoolStats,
    prefetch: PrefetchStats,
    store: StoreStats,
    plans: PlanCacheStats,
    contention: u64,
}

impl Counters {
    fn read(db: &Db) -> Counters {
        Counters {
            pool: db.pool().stats(),
            prefetch: db.pool().prefetch_stats(),
            store: db.store().map(|s| s.stats()).unwrap_or_default(),
            plans: db.plan_cache_stats(),
            contention: db.pool().contention(),
        }
    }
}

fn corrupt_one(plan: &mut ReadPlan) {
    let op = &mut plan.scripts[0][0];
    op.expect = Arc::new(op.expect.corrupted());
}

pub fn run(cfg: &Config, workload: &Workload) -> Result<Report, String> {
    if cfg.trace {
        run_traced(cfg, workload)
    } else {
        run_untraced(cfg, workload)
    }
}

fn run_untraced(cfg: &Config, workload: &Workload) -> Result<Report, String> {
    let (mut built, first) = set_up(workload)?;
    let repeats = if first < CHEAP_SETUP_S {
        SETUP_REPEATS.0
    } else {
        SETUP_REPEATS.1
    };
    let mut setups = vec![first];
    while setups.len() < repeats {
        // The previous database (and its directory) goes before the next
        // one is built, as it would between two runs of an application.
        drop(built);
        let (next, secs) = set_up(workload)?;
        built = next;
        setups.push(secs);
    }

    let mut corrupted;
    let plan = if cfg.corrupt_one_expectation {
        corrupted = workload.plan.clone();
        corrupt_one(&mut corrupted);
        &corrupted
    } else {
        &workload.plan
    };
    let window = run_window(&built.db, plan, plan.mode, cfg.seconds, None)?;

    let mut values = BTreeMap::new();
    values.insert("setup_s", median(&setups));
    values.insert("qps", window.qps());
    values.insert("lat_p50_us", window.p50_us());
    values.insert("lat_p99_us", window.p99_us());
    values.insert("rss_mb", peak_rss_mib());
    let mut report = Report::new(workload.name, false, values, window.ops, window.failed);
    report.note(
        "script_hash",
        Json::str(format!("{:016x}", plan.script_hash())),
    );
    report.note("clients", Json::from(plan.scripts.len() as u64));
    window.describe(&mut report, plan);
    report.note(
        "setup_s_each",
        Json::Arr(setups.iter().map(|s| Json::Num(*s)).collect()),
    );
    Ok(report)
}

fn run_traced(cfg: &Config, workload: &Workload) -> Result<Report, String> {
    let plan = &workload.plan;
    let (built, _) = set_up(workload)?;
    let db = &built.db;
    let seconds = cfg.seconds * TRACED_WINDOW_SHARE;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };

    // 1. Exactly one untraced pass with the counters read around it: the
    //    counts (at one client they repeat exactly from run to run, which
    //    a window of however many passes fit the time would not quite:
    //    costs are float sums). Then an untraced window, the base for the
    //    tracing overhead.
    let before = Counters::read(db);
    let counted = run_window(db, plan, plan.mode, 0.0, None)?;
    let after = Counters::read(db);
    let plain = run_window(db, plan, plan.mode, seconds, None)?;
    let ops = counted.ops as f64;
    let pool = after.pool.since(&before.pool);
    let accesses = (pool.hits + pool.misses) as f64;
    values.insert("storage.pool.hit_frac", per(pool.hits as f64, accesses));
    values.insert("storage.pool.accesses_per_op", per(accesses, ops));
    values.insert(
        "storage.pool.contention_per_kop",
        per((after.contention - before.contention) as f64 * 1e3, ops),
    );
    let prefetch = after.prefetch.since(&before.prefetch);
    values.insert(
        "storage.readahead.consumed_frac",
        per(
            prefetch.consumed_pages as f64,
            prefetch.prefetched_pages as f64,
        ),
    );
    let store = after.store.since(&before.store);
    values.insert(
        "storage.store.page_reads_per_op",
        per(store.page_reads as f64, ops),
    );
    values.insert(
        "storage.store.batch_factor",
        per(store.page_reads as f64, store.batch_reads as f64),
    );
    let plan_hits = (after.plans.hits - before.plans.hits) as f64;
    let plan_misses = (after.plans.misses - before.plans.misses) as f64;
    values.insert(
        "query.plan_cache.hit_frac",
        per(plan_hits, plan_hits + plan_misses),
    );
    values.insert("core.cost_units_per_op", per(counted.cost, ops));
    values.insert("query.exec.rows_per_op", per(counted.rows as f64, ops));

    // 2. The traced window: spans from here, `TraceEvent`s from the engine.
    let epoch = Instant::now();
    let mut traces: Vec<ClientTrace> = (0..plan.scripts.len())
        .map(|client| ClientTrace {
            recorder: Recorder::new(epoch, client),
            buffer: Some(TraceBuffer::shared(4096)),
            core: CoreCounts::default(),
            next_op: 0,
        })
        .collect();
    let traced = run_window(db, plan, plan.mode, seconds, Some(&mut traces))?;
    values.insert(
        "bench.trace_overhead_frac",
        1.0 - per(traced.qps(), plain.qps()),
    );
    let mut core = CoreCounts::default();
    for t in &traces {
        core.merge(&t.core);
    }
    core.metrics(&mut values);
    let events_dropped: u64 = traces
        .iter()
        .filter_map(|t| t.buffer.as_ref())
        .map(|b| b.dropped())
        .sum();

    // 3. The same script (client 0's) issued the three ways, spans only:
    //    adhoc − spec is the parse share, spec − prepared the
    //    resolve/lower share.
    let mut solo = plan.clone();
    solo.scripts.truncate(1);
    let mut failed_in_split = 0;
    for mode in [Mode::Adhoc, Mode::Prepared] {
        let mut tr = [ClientTrace {
            recorder: Recorder::new(epoch, 0),
            buffer: None,
            core: CoreCounts::default(),
            next_op: 0,
        }];
        let w = run_window(db, &solo, mode, cfg.seconds * 0.05, Some(&mut tr))?;
        failed_in_split += w.failed;
        let med_us = |name: &str| median(&tr[0].recorder.durations(name)) / 1e3;
        if mode == Mode::Adhoc {
            values.insert("query.exec.adhoc_us", med_us("op"));
            values.insert("query.exec.spec_us", med_us("query.exec"));
        } else {
            values.insert("query.exec.prepared_us", med_us("op"));
        }
    }

    // 4. The layer probes, on this workload's own data.
    let probe_notes = probes::read_workload(db, plan, &workload.probes, &mut values)?;

    let recorders: Vec<Recorder> = traces.into_iter().map(|t| t.recorder).collect();
    let trace_path = cfg.out_dir.join(format!("{}.trace.json", workload.name));
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    std::fs::write(
        &trace_path,
        span::to_json(workload.name, &recorders, MAX_SPANS_WRITTEN).render(),
    )
    .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let mut report = Report::new(
        workload.name,
        true,
        values,
        counted.ops + plain.ops + traced.ops,
        counted.failed + plain.failed + traced.failed + failed_in_split,
    );
    report.note(
        "script_hash",
        Json::str(format!("{:016x}", plan.script_hash())),
    );
    report.note("untraced_qps", Json::Num(plain.qps()));
    report.note("traced_qps", Json::Num(traced.qps()));
    report.note("trace_events_dropped", Json::from(events_dropped));
    report.note("spans", span::summarize(&recorders));
    report.note("trace_file", Json::str(trace_path.display().to_string()));
    for (k, v) in probe_notes {
        report.note(&k, v);
    }
    Ok(report)
}
