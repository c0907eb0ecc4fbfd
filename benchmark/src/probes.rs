//! Layer probes: isolated timed loops over one layer's public function,
//! on the workload's own data, run after the windows of the traced pass.
//! Each reports the median of [`BATCHES`] batches of at least
//! [`MIN_CALLS`] calls.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::engine::*;
use crate::json::Json;
use crate::rng::Rng;
use crate::stats::{median, percentile_sorted};
use crate::workloads::ReadPlan;

pub const BATCHES: usize = 5;
pub const MIN_CALLS: usize = 1000;

/// What a read workload's probes look at.
pub struct ProbeSpec {
    /// Table whose heap is scanned and fetched from.
    pub table: &'static str,
    /// Index (by name, on `table`) for the B-tree probes.
    pub index: &'static str,
    /// The workload's bound ranges on that index.
    pub ranges: Vec<KeyRange>,
    /// One statement per single-table strategy, `(metric, sql, binding)`;
    /// empty where the workload bypasses them.
    pub strategies: Vec<(&'static str, &'static str, QueryOptions)>,
}

/// Median over [`BATCHES`] batches of `calls` calls, in ns per call.
/// `f` gets the call's index within its batch.
pub fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}

type Values = BTreeMap<&'static str, f64>;

pub fn read_workload(
    db: &Db,
    plan: &ReadPlan,
    spec: &ProbeSpec,
    out: &mut Values,
) -> Result<Vec<(String, Json)>, String> {
    front_end(db, &plan.statements, out)?;
    let seen = strategies(db, spec, out)?;
    storage_layers(db, spec, out)?;
    Ok(vec![("probe_strategies".to_string(), seen)])
}

/// The probes below the query layer: B-tree, pool, heap and page store.
pub fn storage_layers(db: &Db, spec: &ProbeSpec, out: &mut Values) -> Result<(), String> {
    let heap = db.heap(spec.table).ok_or("probe table missing")?;
    let tree = db
        .indexes(spec.table)
        .and_then(|ix| ix.iter().find(|t| t.name() == spec.index))
        .ok_or("probe index missing")?;
    btree(tree, &spec.ranges, out);
    btree_insert(out);
    pool(db.pool().capacity(), out);
    heap_probes(heap, out)?;
    if let Some(store) = db.store() {
        store_reads(store, heap, out)?;
    }
    Ok(())
}

/// The host variables (`:NAME`) of a statement.
fn host_vars(sql: &str) -> Vec<&str> {
    sql.split(':')
        .skip(1)
        .map(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .collect()
}

/// `query.parser.*`, `query.prepared.*`: the front end alone, over the
/// workload's statements.
pub fn front_end(db: &Db, statements: &[String], out: &mut Values) -> Result<(), String> {
    let n = statements.len();
    let calls = MIN_CALLS.div_ceil(n) * n;
    for sql in statements {
        parse_query(sql).map_err(|e| e.to_string())?;
    }
    out.insert(
        "query.parser.parse_ns",
        ns_per_call(calls, |i| {
            black_box(parse_query(black_box(&statements[i % n])).is_ok());
        }),
    );
    out.insert(
        "query.prepared.prepare_hit_ns",
        ns_per_call(calls, |i| {
            black_box(db.prepare(&statements[i % n]).is_ok());
        }),
    );
    // A miss: `prepare` on an emptied cache (parse), then the first
    // `execute`, which resolves and lowers the statement before it runs
    // it. Every host variable is bound past its column's domain, so the
    // run itself selects nothing and the front end is most of the time.
    let bindings: Vec<QueryOptions> = statements
        .iter()
        .map(|sql| {
            host_vars(sql)
                .into_iter()
                .fold(QueryOptions::new(), |o, v| o.with_param(v, i64::MAX / 2))
        })
        .collect();
    let miss_ns = ns_per_call(n * 40, |i| {
        let stmt = i % n;
        db.clear_plan_cache();
        let handle = db.prepare(&statements[stmt]).expect("parsed above");
        black_box(handle.execute(&bindings[stmt]).is_ok());
    });
    out.insert("query.prepared.prepare_miss_us", miss_ns / 1e3);
    Ok(())
}

/// `core.strategy.*_us`: one statement per strategy whose shape admits
/// only it, warm. The strategy the engine reports is noted beside it.
fn strategies(db: &Db, spec: &ProbeSpec, out: &mut Values) -> Result<Json, String> {
    let mut seen = Vec::new();
    for (metric, sql, opts) in &spec.strategies {
        let stmt = db.prepare(sql).map_err(|e| format!("{sql}: {e}"))?;
        let warm = stmt.execute(opts).map_err(|e| format!("{sql}: {e}"))?;
        seen.push((metric.to_string(), Json::str(warm.strategy)));
        let mut times = Vec::new();
        let t = Instant::now();
        while times.len() < 30 || (times.len() < 300 && t.elapsed().as_millis() < 300) {
            let t0 = Instant::now();
            black_box(stmt.execute(opts).is_ok());
            times.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        out.insert(metric, median(&times));
    }
    Ok(Json::Obj(seen))
}

/// `btree.*` over the workload's own index and bound ranges.
fn btree(tree: &BTree, ranges: &[KeyRange], out: &mut Values) {
    let meter = CostMeter::new(CostConfig::default());
    let n = ranges.len();
    let calls = MIN_CALLS.div_ceil(n) * n;
    out.insert(
        "btree.estimate_range_ns",
        ns_per_call(calls, |i| {
            black_box(tree.estimate_range(&ranges[i % n], &meter).estimate);
        }),
    );

    // q-error of the descent-to-split-node estimate against the truth,
    // with both sides floored at one entry.
    let mut qerr: Vec<f64> = ranges
        .iter()
        .map(|r| {
            let est = tree.estimate_range(r, &meter).estimate.max(1.0);
            let actual = (tree.count_range(r.clone(), &meter) as f64).max(1.0);
            (est / actual).max(actual / est)
        })
        .collect();
    qerr.sort_by(f64::total_cmp);
    out.insert("btree.estimate_qerr_p50", percentile_sorted(&qerr, 0.50));
    out.insert("btree.estimate_qerr_p95", percentile_sorted(&qerr, 0.95));

    // Iteration cost: scan each range (to at most 2 000 entries) and
    // divide by the entries delivered.
    let mut entries = 0u64;
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let mut seen = 0u64;
            for r in ranges {
                let mut scan = tree.range_scan(r.clone(), &meter);
                let mut taken = 0;
                while taken < 2000 {
                    match scan.next(tree, &meter) {
                        Ok(Some(e)) => {
                            black_box(&e);
                            taken += 1;
                        }
                        _ => break,
                    }
                }
                seen += taken;
            }
            entries = seen;
            t.elapsed().as_nanos() as f64 / seen.max(1) as f64
        })
        .collect();
    out.insert("btree.range_scan_ns_per_entry", median(&per_batch));
    black_box(entries);

    // Pages touched to reach the first entry of a range: the descent.
    let pool = tree.pool();
    let before = pool.stats();
    for r in ranges {
        let mut scan = tree.range_scan(r.clone(), &meter);
        black_box(scan.next(tree, &meter).is_ok());
    }
    let touched = pool.stats().since(&before);
    out.insert(
        "btree.descent_pages_per_lookup",
        (touched.hits + touched.misses) as f64 / n as f64,
    );
}

/// `btree.insert_ns`: random-key inserts into a scratch tree.
fn btree_insert(out: &mut Values) {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|batch| {
            let pool = shared_pool(1 << 16, shared_meter(CostConfig::default()));
            let mut tree = BTree::new("SCRATCH", FileId(9000), pool, vec![0], 64);
            let mut rng = Rng::new(7, batch as u64);
            let calls = 20 * MIN_CALLS;
            let keys: Vec<i64> = (0..calls).map(|_| rng.below(1 << 40) as i64).collect();
            let t = Instant::now();
            for (i, k) in keys.into_iter().enumerate() {
                tree.insert(
                    vec![Value::Int(k)],
                    Rid::new(i as u32 / 64, (i % 64) as u16),
                );
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    out.insert("btree.insert_ns", median(&per_batch));
}

/// `storage.pool.hit_ns` / `miss_ns`, on a scratch pool of the workload's
/// capacity: re-touching one resident page, and cycling through twice
/// the capacity so every touch evicts.
fn pool(capacity: usize, out: &mut Values) {
    let capacity = capacity.min(1 << 16);
    let meter = CostMeter::new(CostConfig::default());
    let pool = shared_pool(capacity, shared_meter(CostConfig::default()));
    let file = FileId(9001);
    pool.access(PageId::new(file, 0), &meter);
    out.insert(
        "storage.pool.hit_ns",
        ns_per_call(20 * MIN_CALLS, |_| {
            black_box(pool.access(PageId::new(file, 0), &meter));
        }),
    );
    let cycle = 2 * capacity;
    let mut next = 0usize;
    out.insert(
        "storage.pool.miss_ns",
        ns_per_call((20 * MIN_CALLS).max(cycle), |_| {
            black_box(pool.access(PageId::new(file, 1 + (next % cycle) as u32), &meter));
            next += 1;
        }),
    );
}

/// `storage.heap.*`: a full scan of the workload's table through its own
/// pool (beyond RAM, that includes the frame reads), and fetches of
/// random rows found by it.
fn heap_probes(heap: &HeapTable, out: &mut Values) -> Result<(), String> {
    let meter = CostMeter::new(CostConfig::default());
    let mut rids = Vec::new();
    let mut per_batch = Vec::new();
    for _ in 0..BATCHES {
        rids.clear();
        let mut scan = heap.scan();
        let t = Instant::now();
        while let Some((rid, record)) = scan.next(heap, &meter).map_err(|e| e.to_string())? {
            black_box(&record);
            rids.push(rid);
        }
        per_batch.push(t.elapsed().as_nanos() as f64 / rids.len().max(1) as f64);
    }
    out.insert("storage.heap.scan_ns_per_row", median(&per_batch));
    if rids.is_empty() {
        return Ok(());
    }
    let mut rng = Rng::new(11, 0);
    let picks: Vec<Rid> = (0..2 * MIN_CALLS)
        .map(|_| rids[rng.below(rids.len() as u64) as usize])
        .collect();
    out.insert(
        "storage.heap.fetch_ns",
        ns_per_call(picks.len(), |i| {
            black_box(heap.fetch(picks[i], &meter).is_ok());
        }),
    );
    Ok(())
}

/// `storage.store.read_*`: checksummed frame reads of the heap's file,
/// one at a time and in runs of 16.
fn store_reads(store: &SharedStore, heap: &HeapTable, out: &mut Values) -> Result<(), String> {
    const RUN: u32 = 16;
    let file = heap.file();
    let pages = heap.page_count();
    if pages < RUN {
        return Ok(());
    }
    store
        .read_page(PageId::new(file, 0))
        .map_err(|e| e.to_string())?;
    let single_ns = ns_per_call(MIN_CALLS, |i| {
        black_box(store.read_page(PageId::new(file, i as u32 % pages)).is_ok());
    });
    out.insert("storage.store.read_page_us", single_ns / 1e3);
    let runs = pages / RUN;
    let run_ns = ns_per_call(MIN_CALLS.div_ceil(RUN as usize), |i| {
        black_box(store.read_run(file, (i as u32 % runs) * RUN, RUN).len());
    });
    out.insert(
        "storage.store.read_run_us_per_page",
        run_ns / f64::from(RUN) / 1e3,
    );
    Ok(())
}
