//! Multi-client throughput — the gate for the `Send + Sync` engine.
//!
//! One shared [`Db`] (FAMILIES, 40k rows, four indexes), N OS threads
//! each driving their own [`rdb_query::Session`] through a fixed query
//! mix for a wall-clock measurement window. Reports queries/second at
//! 1, 2, 4 and 8 threads plus the buffer pool's shard-contention
//! counter, and asserts correctness while it measures: every thread
//! checks each query's row count against the sequentially-computed
//! expectation, and every session meter must end up charged.
//!
//! Environment knobs:
//!
//! * `THROUGHPUT_MEASURE_MS` — per-thread-count measurement window
//!   (default 1500 ms).
//! * `THROUGHPUT_MIN_SPEEDUP` — required 8-thread/1-thread qps ratio
//!   (default 3.0; set 0 to report without gating). The effective gate
//!   is capped at `0.75 × available_parallelism`: scaling past the
//!   core count is physics, not engineering, so on a 1-core CI box the
//!   gate degrades to "no throughput collapse under 8-way contention"
//!   while any ≥4-core machine still demands the full 3x.
//! * `THROUGHPUT_JSON` — path to write the machine-readable report
//!   (the committed `BENCH_concurrency.json` at the repo root), stamped
//!   with the checkout's commit and the host's parallelism.
//! * `THROUGHPUT_POOL_PAGES` — buffer-pool capacity (default 512:
//!   smaller than the FAMILIES heap plus its four indexes, so the mix
//!   runs in the beyond-RAM eviction regime and threads contend for
//!   frames, not just shard locks).
//!
//! Run: `cargo run --release -p rdb-bench --bin throughput`

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rdb_bench::report::{commit, fmt, host_parallelism, print_table};
use rdb_query::parser::parse_query;
use rdb_query::{Db, QueryOptions};
use rdb_workload::{families_db, FamiliesConfig};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Case {
    sql: &'static str,
    opts: QueryOptions,
    expected_rows: usize,
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The mixed workload: host-variable sweeps over the uniform column,
/// Zipf-skewed point lookups, a clustered-range scan, and a two-index
/// conjunction — the shapes whose strategies the dynamic optimizer picks
/// per binding.
fn build_workload(db: &Db) -> Vec<Case> {
    let mut cases = Vec::new();
    for a1 in [95i64, 80, 50] {
        cases.push((
            "select * from FAMILIES where AGE >= :A1",
            QueryOptions::new().with_param("A1", a1),
        ));
    }
    for city in [0i64, 7, 200] {
        cases.push((
            "select * from FAMILIES where CITY = :C",
            QueryOptions::new().with_param("C", city),
        ));
    }
    cases.push((
        "select * from FAMILIES where REGION = :R",
        QueryOptions::new().with_param("R", 3i64),
    ));
    cases.push((
        "select * from FAMILIES where AGE >= :A1 and INCOME_BAND >= :I",
        QueryOptions::new()
            .with_param("A1", 90i64)
            .with_param("I", 90i64),
    ));
    cases
        .into_iter()
        .map(|(sql, opts)| {
            let expected_rows = db.query(sql, &opts).expect("workload query").rows.len();
            Case {
                sql,
                opts,
                expected_rows,
            }
        })
        .collect()
}

struct Measurement {
    threads: usize,
    queries: u64,
    elapsed_s: f64,
    qps: f64,
    /// Per-query latency percentiles across every thread, microseconds.
    p50_us: f64,
    p95_us: f64,
    contention: u64,
}

/// The `q`-quantile (nearest-rank) of an unsorted nanosecond sample,
/// in microseconds.
fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1e3
}

fn measure(db: &Db, workload: &[Case], threads: usize, window_ms: u64) -> Measurement {
    let specs: Vec<_> = workload
        .iter()
        .map(|c| parse_query(c.sql).expect("workload parses"))
        .collect();
    let contention_before = db.pool().contention();
    let done = AtomicU64::new(0);
    let latencies = std::sync::Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let (done, specs, latencies) = (&done, &specs, &latencies);
            s.spawn(move || {
                let session = db.session();
                let mut local = 0u64;
                let mut local_ns: Vec<u64> = Vec::with_capacity(4096);
                // Stagger start positions so threads don't convoy on the
                // same pages in lockstep.
                let mut qi = tid % workload.len();
                while start.elapsed().as_millis() < u128::from(window_ms) {
                    let case = &workload[qi];
                    let q_start = Instant::now();
                    let result = session
                        .query_spec(&specs[qi], &case.opts)
                        .expect("workload query under concurrency");
                    local_ns.push(q_start.elapsed().as_nanos() as u64);
                    assert_eq!(
                        result.rows.len(),
                        case.expected_rows,
                        "thread {tid} got a wrong row count for {:?}",
                        case.sql
                    );
                    local += 1;
                    qi = (qi + 1) % workload.len();
                }
                assert!(
                    session.cost().total() > 0.0,
                    "session meter must be charged"
                );
                // Replay this worker's deferred LRU touches before the
                // scope joins (scoped threads may outlive TLS teardown
                // ordering assumptions; see `rdb_storage::touch`).
                db.pool().flush_session();
                done.fetch_add(local, Ordering::Relaxed);
                latencies
                    .lock()
                    .expect("latency collector")
                    .append(&mut local_ns);
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let queries = done.load(Ordering::Relaxed);
    let mut all_ns = latencies.into_inner().expect("latency collector");
    all_ns.sort_unstable();
    Measurement {
        threads,
        queries,
        elapsed_s,
        qps: queries as f64 / elapsed_s,
        p50_us: percentile_us(&all_ns, 0.50),
        p95_us: percentile_us(&all_ns, 0.95),
        contention: db.pool().contention() - contention_before,
    }
}

fn write_json(
    path: &str,
    rows: usize,
    pool_pages: usize,
    window_ms: u64,
    cores: usize,
    runs: &[Measurement],
    gate: f64,
) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"crates/bench/src/bin/throughput.rs\",\n");
    out.push_str(
        "  \"command\": \"THROUGHPUT_JSON=BENCH_concurrency.json cargo run --release -p rdb-bench --bin throughput\",\n",
    );
    out.push_str(&format!("  \"rows\": {rows},\n"));
    out.push_str(&format!("  \"pool_pages\": {pool_pages},\n"));
    out.push_str(&format!("  \"measure_ms_per_thread_count\": {window_ms},\n"));
    out.push_str(&format!("  \"commit\": \"{}\",\n", commit()));
    out.push_str(&format!("  \"host_parallelism\": {cores},\n"));
    out.push_str(
        "  \"note\": \"One shared Db under a bounded buffer pool (pool_pages < heap + indexes, \
         the beyond-RAM regime); each OS thread drives its own Session (private cost meter) \
         through the mixed FAMILIES workload. Row counts are asserted against the sequential \
         expectation on every query, so these numbers are from verified-correct runs. \
         p50_us/p95_us are per-query wall-clock latency percentiles pooled across all \
         threads at that thread count. \
         shard_contention is the buffer pool's contended-shard-acquisition counter delta \
         for the whole run at that thread count. The speedup gate is capped at \
         0.75 x host_parallelism: thread scaling cannot beat the core count.\",\n",
    );
    let base_qps = runs[0].qps;
    out.push_str("  \"runs\": [\n");
    for (i, m) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"queries\": {}, \"elapsed_s\": {:.3}, \"qps\": {:.1}, \
             \"speedup_vs_1t\": {:.2}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \
             \"shard_contention\": {}}}{}\n",
            m.threads,
            m.queries,
            m.elapsed_s,
            m.qps,
            m.qps / base_qps,
            m.p50_us,
            m.p95_us,
            m.contention,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let last = runs.last().expect("at least one run");
    out.push_str(&format!(
        "  \"gate\": {{\"min_speedup_8t\": {:.2}, \"achieved\": {:.2}}}\n}}\n",
        gate,
        last.qps / base_qps
    ));
    std::fs::write(path, out).expect("write throughput json");
    println!("wrote {path}");
}

fn main() {
    let window_ms = env_f64("THROUGHPUT_MEASURE_MS", 1500.0) as u64;
    let cores = host_parallelism();
    let gate = env_f64("THROUGHPUT_MIN_SPEEDUP", 3.0).min(0.75 * cores as f64);
    let rows = 40_000;
    let pool_pages = env_f64("THROUGHPUT_POOL_PAGES", 512.0) as usize;
    let mut config = FamiliesConfig {
        rows,
        ..FamiliesConfig::default()
    };
    config.db.pool_pages = pool_pages;
    let db = families_db(&config);
    let workload = build_workload(&db);
    println!(
        "throughput: {} queries/mix, {} rows, {pool_pages}-page pool, {window_ms} ms per \
         thread count, {cores} cores (effective gate {gate:.2}x)\n",
        workload.len(),
        rows
    );

    // Warm the pool once so every thread count sees the same cache state.
    let _ = measure(&db, &workload, 1, window_ms.min(300));

    let runs: Vec<Measurement> = THREAD_COUNTS
        .iter()
        .map(|&t| measure(&db, &workload, t, window_ms))
        .collect();

    let base_qps = runs[0].qps;
    let mut table = Vec::new();
    for m in &runs {
        table.push(vec![
            m.threads.to_string(),
            m.queries.to_string(),
            fmt(m.qps),
            format!("{:.2}x", m.qps / base_qps),
            format!("{:.0}", m.p50_us),
            format!("{:.0}", m.p95_us),
            m.contention.to_string(),
        ]);
    }
    print_table(
        &[
            "threads",
            "queries",
            "qps",
            "speedup",
            "p50 us",
            "p95 us",
            "shard contention",
        ],
        &table,
    );

    if let Ok(path) = std::env::var("THROUGHPUT_JSON") {
        write_json(&path, rows, pool_pages, window_ms, cores, &runs, gate);
    }

    let achieved = runs.last().expect("runs").qps / base_qps;
    if gate > 0.0 {
        assert!(
            achieved >= gate,
            "throughput gate FAILED: 8-thread speedup {achieved:.2}x < required {gate:.2}x \
             (override with THROUGHPUT_MIN_SPEEDUP)"
        );
        println!("\nthroughput gate passed: {achieved:.2}x >= {gate:.2}x at 8 threads");
    } else {
        println!("\nthroughput gate disabled (THROUGHPUT_MIN_SPEEDUP=0); speedup {achieved:.2}x");
    }
}
