//! `throughput`: multi-client scaling over one shared [`Db`].
//!
//! FAMILIES (40k rows, four indexes) is queried by 1, 2, 4 and 8 OS
//! threads, each driving its own [`rdb_query::Session`] through a fixed
//! query mix for a `WINDOW_MS` window. The four thread counts are the
//! arms of `ROUNDS` interleaved rounds, so a slow spell on a shared host
//! lands on every thread count. Every query's row count is checked
//! against the sequential answer, and every session meter must be
//! charged.
//!
//! Two regimes run under the same rounds:
//! * **bounded** (gated): a 512-page pool, smaller than the heap plus its
//!   indexes, so threads contend for frames and not only for locks;
//! * **resident** (reported): a 200 000-page pool that holds everything,
//!   the figure the lock-free hit path was decided on.
//!
//! **Gate:** in the bounded regime, the median per-round 8-thread over
//! 1-thread qps is at least min(3.0, 0.75 x host parallelism): scaling
//! past the core count is physics, not engineering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rdb_bench::gate::{interleaved, median, Bound, Json, Report, Run, Verdicts};
use rdb_bench::report::host_parallelism;
use rdb_query::parser::parse_query;
use rdb_query::{Db, QueryOptions};
use rdb_workload::{families_db, FamiliesConfig};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const ROUNDS: usize = 8;
const WINDOW_MS: u128 = 200;
const ROWS: usize = 40_000;
/// The gated regime's pool, in pages.
const BOUNDED_POOL: usize = 512;
/// The reported regime's pool, in pages.
const RESIDENT_POOL: usize = 200_000;

struct Case {
    sql: &'static str,
    opts: QueryOptions,
    expected_rows: usize,
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

/// One window of `threads` clients; returns the queries they completed
/// and the pool's shard-contention delta.
fn window(db: &Db, workload: &[Case], threads: usize) -> (u64, u64) {
    let specs: Vec<_> = workload
        .iter()
        .map(|c| parse_query(c.sql).expect("workload parses"))
        .collect();
    let contention_before = db.pool().contention();
    let done = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let (done, specs) = (&done, &specs);
            s.spawn(move || {
                let session = db.session();
                let mut local = 0u64;
                // Stagger start positions so threads don't convoy on the
                // same pages in lockstep.
                let mut qi = tid % workload.len();
                while start.elapsed().as_millis() < WINDOW_MS {
                    let case = &workload[qi];
                    let result = session
                        .query_spec(&specs[qi], &case.opts)
                        .expect("workload query under concurrency");
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
            });
        }
    });
    (
        done.load(Ordering::Relaxed),
        db.pool().contention() - contention_before,
    )
}

fn qps(run: &Run<(u64, u64)>) -> f64 {
    run.out.0 as f64 / (run.ns / 1e9)
}

/// One regime's rounds as report JSON, and its median 8-thread speedup.
fn regime(name: &'static str, pool_pages: usize) -> (f64, Json) {
    let mut config = FamiliesConfig {
        rows: ROWS,
        ..FamiliesConfig::default()
    };
    config.db.pool_pages = pool_pages;
    let db = families_db(&config);
    let workload = build_workload(&db);
    let rounds = interleaved(ROUNDS, THREADS.len(), |i| {
        window(&db, &workload, THREADS[i])
    });

    let mut runs = Vec::new();
    let mut speedup = 0.0;
    for (arm, threads) in THREADS.iter().enumerate() {
        let speedups: Vec<f64> = rounds.0.iter().map(|r| qps(&r[arm]) / qps(&r[0])).collect();
        let lo = speedups.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = speedups.iter().copied().fold(0.0, f64::max);
        speedup = median(speedups);
        runs.push(Json::Obj(vec![
            ("threads", Json::int(threads)),
            (
                "queries",
                Json::int(rounds.0.iter().map(|r| r[arm].out.0).sum::<u64>()),
            ),
            ("median_qps", Json::num(rounds.median(|r| qps(&r[arm])), 1)),
            ("median_speedup_vs_1t", Json::num(speedup, 2)),
            ("min_speedup_vs_1t", Json::num(lo, 2)),
            ("max_speedup_vs_1t", Json::num(hi, 2)),
            (
                "shard_contention",
                Json::int(rounds.0.iter().map(|r| r[arm].out.1).sum::<u64>()),
            ),
        ]));
    }
    let json = Json::Obj(vec![
        ("regime", Json::str(name)),
        ("pool_pages", Json::int(pool_pages)),
        ("runs", Json::Arr(runs)),
    ]);
    (speedup, json) // the last arm's: 8 threads
}

pub fn run(verdicts: &mut Verdicts) -> Option<Report> {
    let floor = 3.0f64.min(0.75 * host_parallelism() as f64);
    let (gated, bounded) = regime("bounded", BOUNDED_POOL);
    let (_, resident) = regime("resident", RESIDENT_POOL);
    verdicts.check(
        "throughput",
        "8-thread / 1-thread qps, median per round (bounded pool)",
        gated,
        Bound::AtLeast(floor),
    );
    Some(Report {
        file: "BENCH_concurrency.json",
        bench: "crates/bench/src/bin/gate/throughput.rs",
        note: "One shared Db; each OS thread drives its own Session (private cost meter) \
               through the mixed FAMILIES workload for one window, and the four thread counts \
               are the arms of interleaved rounds that rotate which count runs first. Row \
               counts are asserted against the sequential expectation on every query. Speedups \
               are per-round qps over the same round's 1-thread qps: median, min and max over \
               the rounds. shard_contention is the pool's contended-shard-acquisition counter \
               summed over the rounds. The bounded regime (pool smaller than heap + indexes) is \
               gated at min(3.0, 0.75 x host_parallelism) on the median 8-thread speedup; the \
               resident regime (every page fits) is reported only."
            .into(),
        fields: vec![
            ("rows", Json::int(ROWS)),
            ("rounds", Json::int(ROUNDS)),
            ("window_ms", Json::int(WINDOW_MS)),
            ("regimes", Json::Arr(vec![bounded, resident])),
            (
                "gate",
                Json::Obj(vec![
                    ("min_speedup_8t", Json::num(floor, 2)),
                    ("achieved_median", Json::num(gated, 2)),
                ]),
            ),
        ],
    })
}
