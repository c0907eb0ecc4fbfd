//! `ingest-durable`: the write side of the storage stack, with reads
//! beside the writes.
//!
//! Every pass opens a fresh durable directory, creates a table and two
//! indexes, inserts rows, checkpoints every fifth of them, and after each
//! checkpoint runs one `update_where`, one `delete_where` and
//! read-your-writes point and range queries; then it inserts an unsynced
//! tail, crashes (drops the handle without `close`) and reopens. One
//! client, because writes take `&mut Db`. Flush policy is the engine's as
//! shipped: `sync` at checkpoint only.
//!
//! Two things are checked beyond each op's result. After the reopen the
//! whole table must equal the oracle's (the operating system still holds
//! the unsynced tail, so recovery redoes it). And a copy of the directory
//! with every file cut back to its length at the last checkpoint's return
//! — what a power cut leaves of unflushed bytes — must reopen to exactly
//! the rows that checkpoint acknowledged; rows lost there count as
//! failed ops.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::engine::*;
use crate::json::Json;
use crate::metrics::Report;
use crate::oracle::{Digest, Expect};
use crate::probes;
use crate::rng::Rng;
use crate::span::{self, Recorder};
use crate::stats::{fast_decile, median, percentile_us};
use crate::trace::CoreCounts;
use crate::workloads::{peak_rss_mib, TempDir};
use crate::Config;

const ROWS: usize = 10_000;
const CHECKPOINTS: usize = 5;
/// Rows inserted after the last checkpoint and never synced, as a share
/// of `ROWS` (500 at scale 1).
const TAIL_DIVISOR: usize = 20;
const POOL_PAGES: usize = 256;
/// Rows per value of the clustered column G.
const GROUP: i64 = 100;
/// Reads after each checkpoint. Together they are just under 4 % of a
/// pass's ops, so p50 sits inside the inserts and p99 inside the range
/// reads.
const POINT_READS: usize = 60;
const RANGE_READS: usize = 100;
const PAD_BYTES: usize = 32;
/// What one row adds to the user's data: four ints and the pad.
const USER_BYTES_PER_ROW: u64 = 4 * 8 + PAD_BYTES as u64;
/// The store writes pages back as 4-KiB frames.
const FRAME_BYTES: u64 = 4096;
const SETUP_REPEATS: usize = 5;

const POINT_SQL: &str = "select * from T where K = :K";
const RANGE_SQL: &str = "select ID, K, V from T where G = :G";
const ALL_SQL: &str = "select * from T";
const GROUP_PRED_SQL: &str = "select * from T where G = :G";

#[derive(Debug, Clone, Copy)]
struct Row {
    id: i64,
    k: i64,
    v: i64,
}

impl Row {
    fn g(&self) -> i64 {
        self.id / GROUP
    }
    fn values(&self) -> Vec<Value> {
        vec![
            Value::Int(self.id),
            Value::Int(self.k),
            Value::Int(self.g()),
            Value::Int(self.v),
            Value::Str(format!("{:0>PAD_BYTES$}", self.id)),
        ]
    }
}

/// What follows one checkpoint, with the oracle's expectations.
struct Interval {
    /// Rows `[first, end)` are inserted before the checkpoint.
    end: usize,
    /// The table as the checkpoint acknowledged it.
    at_checkpoint: Digest,
    user_bytes_at_checkpoint: u64,
    update_group: i64,
    update_to: i64,
    updated: usize,
    delete_group: i64,
    deleted: usize,
    /// `(is_range, binding, expectation)`.
    reads: Vec<(bool, i64, Expect)>,
}

/// The seeded script of a pass and everything the oracle expects of it.
struct Plan {
    rows: Vec<Row>,
    intervals: Vec<Interval>,
    /// The table after the tail, which the reopen must recover.
    at_crash: Digest,
    script_hash: u64,
}

fn plan(cfg: &Config) -> Plan {
    let n = cfg.scaled(ROWS);
    let per_interval = n / CHECKPOINTS;
    let total = per_interval * CHECKPOINTS + n / TAIL_DIVISOR;
    let mut rng = Rng::new(cfg.seed, 1);
    let keys = (n / 4).max(1) as u64;
    let rows: Vec<Row> = (0..total as i64)
        .map(|id| Row {
            id,
            k: rng.below(keys) as i64,
            v: 0,
        })
        .collect();

    // The oracle's table: a plain Vec, `None` once deleted.
    let mut table: Vec<Option<Row>> = Vec::with_capacity(total);
    let mut digest = Digest::default();
    let mut live = 0u64;
    let mut rng = Rng::new(cfg.seed, 2);
    let mut hash = 0u64;
    let mut intervals = Vec::new();
    for c in 0..CHECKPOINTS {
        let (first, end) = (c * per_interval, (c + 1) * per_interval);
        for r in &rows[first..end] {
            table.push(Some(*r));
            digest.add(&r.values());
            live += 1;
        }
        let at_checkpoint = digest;
        let user_bytes_at_checkpoint = live * USER_BYTES_PER_ROW;

        let groups = (first as i64 / GROUP)..=((end as i64 - 1) / GROUP);
        let update_group = rng.range(*groups.start(), *groups.end());
        let delete_group = loop {
            let g = rng.range(*groups.start(), *groups.end());
            if g != update_group || groups.start() == groups.end() {
                break g;
            }
        };
        let update_to = c as i64 + 1;
        let mut updated = 0;
        for r in table.iter_mut().flatten().filter(|r| r.g() == update_group) {
            digest.remove(&r.values());
            r.v = update_to;
            digest.add(&r.values());
            updated += 1;
        }
        let mut deleted = 0;
        for slot in table.iter_mut() {
            if slot.is_some_and(|r| r.g() == delete_group) {
                digest.remove(&slot.take().expect("checked").values());
                deleted += 1;
                live -= 1;
            }
        }

        // Read-your-writes: keys and groups of rows this interval
        // inserted; the first two range reads look at the groups just
        // updated and deleted.
        let mut reads = Vec::with_capacity(POINT_READS + RANGE_READS);
        for i in 0..POINT_READS + RANGE_READS {
            let target = &rows[first + rng.below((end - first) as u64) as usize];
            let is_range = i >= POINT_READS;
            let binding = match i.checked_sub(POINT_READS) {
                None => target.k,
                Some(0) => update_group,
                Some(1) => delete_group,
                Some(_) => target.g(),
            };
            let mut d = Digest::default();
            for r in table.iter().flatten() {
                if is_range && r.g() == binding {
                    d.add(&[Value::Int(r.id), Value::Int(r.k), Value::Int(r.v)]);
                } else if !is_range && r.k == binding {
                    d.add(&r.values());
                }
            }
            hash = crate::rng::mix(hash ^ binding as u64 ^ u64::from(is_range));
            reads.push((is_range, binding, Expect::Bag(d)));
        }
        rng.shuffle(&mut reads);
        intervals.push(Interval {
            end,
            at_checkpoint,
            user_bytes_at_checkpoint,
            update_group,
            update_to,
            updated,
            delete_group,
            deleted,
            reads,
        });
    }
    for r in &rows[per_interval * CHECKPOINTS..] {
        digest.add(&r.values());
    }
    for r in &rows {
        hash = crate::rng::mix(hash ^ r.k as u64);
    }
    Plan {
        rows,
        intervals,
        at_crash: digest,
        script_hash: hash,
    }
}

/// Times each op; in the traced pass also records it as a root `op` span
/// with one child naming the layer entered.
struct Clock<'a> {
    recorder: Option<&'a mut Recorder>,
    lat_ns: Vec<u64>,
    next_op: u64,
}

impl Clock<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.next_op;
        self.next_op += 1;
        let (out, ns) = match &mut self.recorder {
            Some(rec) => {
                rec.enter("op", id);
                let out = rec.span(name, id, f);
                (out, rec.exit())
            }
            None => {
                let t = Instant::now();
                let out = f();
                (out, t.elapsed().as_nanos() as u64)
            }
        };
        self.lat_ns.push(ns);
        (out, ns)
    }
}

/// What one pass measured.
#[derive(Default)]
struct PassOut {
    lat_ns: Vec<u64>,
    failed: u64,
    /// Wall time of the pass without the paused durability check.
    wall_ns: u64,
    recover_ns: u64,
    records_scanned: u64,
    insert_ns: Vec<u64>,
    read_ns: Vec<u64>,
    dml_ns: Vec<u64>,
    ckpt_ns: Vec<u64>,
    ckpt_pages: u64,
    rows_inserted: u64,
    read_rows: u64,
    read_cost: f64,
    /// Bytes appended to the WAL, by directory listing around checkpoints.
    wal_bytes: u64,
    /// Catalog and meta files as rewritten by each checkpoint.
    meta_bytes: u64,
    /// Directory size right after the last checkpoint.
    dir_bytes: u64,
    store: StoreStats,
    /// WAL records appended by the inserts alone.
    insert_wal_appends: u64,
    pool: PoolStats,
    open_clean_ns: u64,
    core: CoreCounts,
}

impl PassOut {
    /// WAL appends + frame writes + meta, over the user's row bytes.
    fn write_amp(&self) -> f64 {
        (self.wal_bytes + self.store.page_writes * FRAME_BYTES + self.meta_bytes) as f64
            / (self.rows_inserted * USER_BYTES_PER_ROW) as f64
    }
}

fn file_lengths(dir: &Path) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let len = entry.metadata().map_err(|e| e.to_string())?.len();
        out.insert(entry.file_name().to_string_lossy().into_owned(), len);
    }
    Ok(out)
}

/// The store's file naming: `wal-<seq>.rdb` log segments, `f<file>.rdb`
/// page files; the rest is catalog and meta.
fn is_wal(name: &str) -> bool {
    name.starts_with("wal-")
}
fn is_page_file(name: &str) -> bool {
    name.strip_prefix('f')
        .and_then(|rest| rest.strip_suffix(".rdb"))
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

fn wal_bytes(lengths: &BTreeMap<String, u64>) -> u64 {
    lengths
        .iter()
        .filter(|(name, _)| is_wal(name))
        .map(|(_, len)| len)
        .sum()
}

/// T(ID, K, G, V, PAD) with an index on K and one on G.
fn create_table(db: &mut Db) -> Result<(), String> {
    db.create_table(
        "T",
        Schema::new(vec![
            Column::new("ID", ValueType::Int),
            Column::new("K", ValueType::Int),
            Column::new("G", ValueType::Int),
            Column::new("V", ValueType::Int),
            Column::new("PAD", ValueType::Str),
        ]),
    )
    .and_then(|()| db.create_index("IDX_K", "T", &["K"]))
    .and_then(|()| db.create_index("IDX_G", "T", &["G"]))
    .map_err(|e| e.to_string())
}

fn open(dir: &Path) -> Result<Db, String> {
    Db::builder()
        .path(dir)
        .pool_pages(POOL_PAGES)
        .open()
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Rows of T, as a bag.
fn table_digest(db: &Db) -> Result<Digest, String> {
    let all = db
        .query(ALL_SQL, &QueryOptions::new())
        .map_err(|e| e.to_string())?;
    Ok(Digest::of(&all.rows))
}

/// How many of the `expected` rows a table reading `found` lacks. A digest
/// cannot say which rows differ: the shortfall in count, and at least one
/// when the counts agree but the content does not.
fn rows_lost(found: &Digest, expected: &Digest) -> u64 {
    if found == expected {
        0
    } else {
        expected.rows.saturating_sub(found.rows).max(1)
    }
}

/// Copies `dir` as a power cut after the checkpoint would have left it:
/// each file cut back to its length when the checkpoint returned, files
/// created since gone. Returns how many acknowledged rows are missing or
/// wrong when that copy is reopened.
fn lost_after_power_cut(
    cfg: &Config,
    dir: &Path,
    at_checkpoint: &BTreeMap<String, u64>,
    expected: &Digest,
) -> Result<u64, String> {
    let copy = TempDir::new(cfg, "ingest-cut")?;
    for (name, len) in at_checkpoint {
        let bytes = std::fs::read(dir.join(name)).map_err(|e| format!("read {name}: {e}"))?;
        let keep = bytes.len().min(*len as usize);
        std::fs::write(copy.path().join(name), &bytes[..keep])
            .map_err(|e| format!("write {name}: {e}"))?;
    }
    let db = match open(copy.path()) {
        Ok(db) => db,
        Err(_) => return Ok(expected.rows),
    };
    Ok(rows_lost(&table_digest(&db)?, expected))
}

fn run_pass(
    cfg: &Config,
    plan: &Plan,
    recorder: Option<&mut Recorder>,
    trace: Option<&std::sync::Arc<TraceBuffer>>,
    corrupt: bool,
) -> Result<PassOut, String> {
    let dir = TempDir::new(cfg, "ingest")?;
    let mut out = PassOut::default();
    let mut clock = Clock {
        recorder,
        lat_ns: Vec::with_capacity(plan.rows.len() + 8 * plan.intervals.len() * 128),
        next_op: 0,
    };
    let group_pred = parse_query(GROUP_PRED_SQL)
        .map_err(|e| e.to_string())?
        .predicate;
    let start = Instant::now();

    let (db, _) = clock.time("storage.open", || open(dir.path()));
    let mut db = db?;
    create_table(&mut db)?;
    let store = db
        .store()
        .ok_or("durable database without a store")?
        .clone();
    let store_start = store.stats();
    let pool_start = db.pool().stats();

    let insert = |db: &mut Db, clock: &mut Clock<'_>, out: &mut PassOut, rows: &[Row]| {
        let before = store.stats();
        for r in rows {
            let values = r.values();
            let (res, ns) = clock.time("query.insert", || db.insert("T", values));
            out.insert_ns.push(ns);
            out.failed += u64::from(res.is_err());
        }
        out.rows_inserted += rows.len() as u64;
        out.insert_wal_appends += store.stats().since(&before).wal_appends;
    };

    let mut first = 0;
    let mut wal_after_ckpt = wal_bytes(&file_lengths(dir.path())?);
    let mut at_last_checkpoint = BTreeMap::new();
    for (c, iv) in plan.intervals.iter().enumerate() {
        insert(&mut db, &mut clock, &mut out, &plan.rows[first..iv.end]);
        first = iv.end;

        out.wal_bytes += wal_bytes(&file_lengths(dir.path())?) - wal_after_ckpt;
        let (stats, ns) = clock.time("storage.checkpoint", || db.checkpoint());
        out.ckpt_ns.push(ns);
        match stats {
            Ok(s) => out.ckpt_pages += s.pages_written,
            Err(_) => out.failed += 1,
        }
        at_last_checkpoint = file_lengths(dir.path())?;
        wal_after_ckpt = wal_bytes(&at_last_checkpoint);
        out.meta_bytes += at_last_checkpoint
            .iter()
            .filter(|(name, _)| !is_wal(name) && !is_page_file(name))
            .map(|(_, len)| len)
            .sum::<u64>();
        out.dir_bytes = at_last_checkpoint.values().sum();

        let bind = |g: i64| QueryOptions::new().with_param("G", g);
        let (res, ns) = clock.time("query.dml", || {
            db.update_where(
                "T",
                "V",
                Value::Int(iv.update_to),
                &group_pred,
                &bind(iv.update_group),
            )
        });
        out.dml_ns.push(ns);
        out.failed += u64::from(res.ok() != Some(iv.updated));
        let (res, ns) = clock.time("query.dml", || {
            db.delete_where("T", &group_pred, &bind(iv.delete_group))
        });
        out.dml_ns.push(ns);
        out.failed += u64::from(res.ok() != Some(iv.deleted));

        for (i, (is_range, binding, expect)) in iv.reads.iter().enumerate() {
            let (sql, var) = if *is_range {
                (RANGE_SQL, "G")
            } else {
                (POINT_SQL, "K")
            };
            let mut opts = QueryOptions::new().with_param(var, *binding);
            if let Some(buf) = trace {
                opts = opts.with_trace(buf.clone());
            }
            let (res, ns) = clock.time("query.exec", || db.query(sql, &opts));
            out.read_ns.push(ns);
            if let Some(buf) = trace {
                out.core.add_op(&buf.take());
            }
            match res {
                Ok(r) => {
                    out.read_rows += r.rows.len() as u64;
                    out.read_cost += r.cost;
                    let ok = if corrupt && c == 0 && i == 0 {
                        expect.corrupted().accepts(&r.rows)
                    } else {
                        expect.accepts(&r.rows)
                    };
                    out.failed += u64::from(!ok);
                }
                Err(_) => out.failed += 1,
            }
        }
    }
    insert(&mut db, &mut clock, &mut out, &plan.rows[first..]);
    out.wal_bytes += wal_bytes(&file_lengths(dir.path())?) - wal_after_ckpt;
    out.store = store.stats().since(&store_start);
    out.pool = db.pool().stats().since(&pool_start);

    // The crash: no `close`, no checkpoint, the tail only in the WAL.
    drop(db);
    drop(store);
    let (db, ns) = clock.time("storage.open", || open(dir.path()));
    out.recover_ns = ns;
    let db = match db {
        Ok(db) => db,
        Err(e) => {
            eprintln!("ingest-durable: reopen after the crash failed: {e}");
            out.failed += plan.at_crash.rows;
            out.lat_ns = clock.lat_ns;
            out.wall_ns = start.elapsed().as_nanos() as u64;
            return Ok(out);
        }
    };
    out.records_scanned = db.recovery_report().map_or(0, |r| r.records_scanned);

    // Checks, off the clock.
    let pause = Instant::now();
    out.failed += rows_lost(&table_digest(&db)?, &plan.at_crash);
    let last = plan.intervals.last().ok_or("no checkpoints planned")?;
    out.failed += lost_after_power_cut(cfg, dir.path(), &at_last_checkpoint, &last.at_checkpoint)?;
    out.wall_ns = (start.elapsed() - pause.elapsed()).as_nanos() as u64;

    // A clean shutdown and reopen, for `storage.durable.open_clean_ms`
    // (outside the pass's ops).
    if clock.recorder.is_some() {
        db.close().map_err(|e| e.to_string())?;
        let t = Instant::now();
        let db = open(dir.path())?;
        out.open_clean_ns = t.elapsed().as_nanos() as u64;
        drop(db);
    }
    out.lat_ns = clock.lat_ns;
    Ok(out)
}

pub fn script_hash(cfg: &Config) -> u64 {
    plan(cfg).script_hash
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let plan = plan(cfg);
    if cfg.trace {
        run_traced(cfg, &plan)
    } else {
        run_untraced(cfg, &plan)
    }
}

fn median_ns(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|n| *n as f64).collect::<Vec<_>>())
}

fn run_untraced(cfg: &Config, plan: &Plan) -> Result<Report, String> {
    // Set-up here is the warm-up pass: everything a pass does, once, so
    // the page cache, the allocator and the directory tree are warm.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        run_pass(cfg, plan, None, None, false)?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let (mut qps, mut p50, mut p99, mut recover, mut write_amp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut passes) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    loop {
        let mut pass = run_pass(cfg, plan, None, None, cfg.corrupt_one_expectation)?;
        passes += 1;
        attempted += pass.lat_ns.len() as u64;
        failed += pass.failed;
        qps.push(pass.lat_ns.len() as f64 / (pass.wall_ns as f64 / 1e9));
        p50.push(percentile_us(&mut pass.lat_ns, 0.50));
        p99.push(percentile_us(&mut pass.lat_ns, 0.99));
        recover.push(pass.recover_ns as f64 / 1e9);
        write_amp.push(pass.write_amp());
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let mut values = BTreeMap::new();
    values.insert("setup_s", median(&setups));
    // Each pass is a round of its own (over 10 000 ops at scale 1).
    values.insert("qps", fast_decile(&qps, true));
    values.insert("lat_p50_us", fast_decile(&p50, false));
    values.insert("lat_p99_us", fast_decile(&p99, false));
    values.insert("rss_mb", peak_rss_mib());
    let mut report = Report::new("ingest-durable", false, values, attempted, failed);
    report.note(
        "script_hash",
        Json::str(format!("{:016x}", plan.script_hash)),
    );
    report.note("clients", Json::from(1u64));
    report.note("passes", Json::from(passes));
    report.note("rounds", Json::from(passes));
    report.note("samples_per_round", Json::from(attempted / passes));
    report.note("window_s", Json::Num(start.elapsed().as_secs_f64()));
    report.note("recover_s", Json::Num(fast_decile(&recover, false)));
    report.note("write_amp", Json::Num(median(&write_amp)));
    report.note(
        "setup_s_each",
        Json::Arr(setups.iter().map(|s| Json::Num(*s)).collect()),
    );
    report.note(
        "flush_policy",
        Json::str("engine default: sync at checkpoint only"),
    );
    Ok(report)
}

fn run_traced(cfg: &Config, plan: &Plan) -> Result<Report, String> {
    let per = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    run_pass(cfg, plan, None, None, false)?; // warm-up

    // Untraced passes, then traced ones, for the same length of time.
    let epoch = Instant::now();
    let mut recorder = Recorder::new(epoch, 0);
    let buffer = TraceBuffer::shared(4096);
    let mut windows: [Vec<PassOut>; 2] = [Vec::new(), Vec::new()];
    for (trace, passes) in windows.iter_mut().enumerate() {
        let start = Instant::now();
        while passes.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds * 0.3 {
            passes.push(if trace == 1 {
                run_pass(cfg, plan, Some(&mut recorder), Some(&buffer), false)?
            } else {
                run_pass(cfg, plan, None, None, false)?
            });
        }
    }
    let [untraced, traced] = windows;
    // Counts are the same on every pass; one untraced pass reports them.
    let plain = untraced.last().expect("at least one untraced pass");
    let last = traced.last().expect("at least one traced pass");

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let qps = |passes: &[PassOut]| {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|p| p.lat_ns.len() as f64 / (p.wall_ns as f64 / 1e9))
            .collect();
        fast_decile(&per_pass, true)
    };
    let (untraced_qps, traced_qps) = (qps(&untraced), qps(&traced));
    values.insert(
        "bench.trace_overhead_frac",
        1.0 - per(traced_qps, untraced_qps),
    );

    // Spans.
    let all = |f: fn(&PassOut) -> &Vec<u64>| -> Vec<u64> {
        traced.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    values.insert("query.insert_ns", median_ns(&all(|p| &p.insert_ns)));
    values.insert("query.dml_us", median_ns(&all(|p| &p.dml_ns)) / 1e3);
    values.insert("query.exec.adhoc_us", median_ns(&all(|p| &p.read_ns)) / 1e3);
    let ckpt = all(|p| &p.ckpt_ns);
    values.insert("storage.durable.ckpt_ms", median_ns(&ckpt) / 1e6);
    values.insert(
        "storage.durable.ckpt_stall_max_ms",
        ckpt.iter().copied().max().unwrap_or(0) as f64 / 1e6,
    );
    let recover_s: Vec<f64> = traced.iter().map(|p| p.recover_ns as f64 / 1e9).collect();
    values.insert("storage.durable.recover_s", median(&recover_s));
    values.insert(
        "storage.durable.recover_ms_per_krecord",
        per(median(&recover_s) * 1e3, last.records_scanned as f64 / 1e3),
    );
    values.insert(
        "storage.durable.open_clean_ms",
        last.open_clean_ns as f64 / 1e6,
    );

    // Counts.
    let reads = plain.read_ns.len() as f64;
    let ops = plain.lat_ns.len() as f64;
    let ckpts = plain.ckpt_ns.len() as f64;
    values.insert("query.exec.rows_per_op", per(plain.read_rows as f64, reads));
    values.insert("core.cost_units_per_op", per(plain.read_cost, reads));
    values.insert(
        "storage.wal.appends_per_row",
        per(plain.insert_wal_appends as f64, plain.rows_inserted as f64),
    );
    values.insert(
        "storage.wal.bytes_per_row",
        per(plain.wal_bytes as f64, plain.rows_inserted as f64),
    );
    values.insert(
        "storage.durable.ckpt_pages_written",
        per(plain.ckpt_pages as f64, ckpts),
    );
    values.insert(
        "storage.durable.syncs_per_ckpt",
        per(plain.store.syncs as f64, ckpts),
    );
    values.insert("storage.durable.write_amp", plain.write_amp());
    let live_bytes = plan
        .intervals
        .last()
        .map_or(0, |iv| iv.user_bytes_at_checkpoint);
    values.insert(
        "storage.durable.space_amp",
        per(plain.dir_bytes as f64, live_bytes as f64),
    );
    let accesses = (plain.pool.hits + plain.pool.misses) as f64;
    values.insert(
        "storage.pool.hit_frac",
        per(plain.pool.hits as f64, accesses),
    );
    values.insert("storage.pool.accesses_per_op", per(accesses, ops));
    values.insert(
        "storage.store.page_reads_per_op",
        per(plain.store.page_reads as f64, ops),
    );
    values.insert(
        "storage.store.batch_factor",
        per(
            plain.store.page_reads as f64,
            plain.store.batch_reads as f64,
        ),
    );
    let mut core = CoreCounts::default();
    for p in &traced {
        core.merge(&p.core);
    }
    core.metrics(&mut values);

    // Probes, on a loaded and checkpointed copy of the table.
    let probe_dir = TempDir::new(cfg, "ingest-probe")?;
    let notes = probe_layers(probe_dir.path(), plan, &mut values)?;

    let trace_path = cfg.out_dir.join("ingest-durable.trace.json");
    let recorders = [recorder];
    std::fs::write(
        &trace_path,
        span::to_json("ingest-durable", &recorders, 20_000).render(),
    )
    .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let both = || untraced.iter().chain(&traced);
    let attempted: u64 = both().map(|p| p.lat_ns.len() as u64).sum();
    let failed: u64 = both().map(|p| p.failed).sum();
    let mut report = Report::new("ingest-durable", true, values, attempted, failed);
    report.note(
        "script_hash",
        Json::str(format!("{:016x}", plan.script_hash)),
    );
    report.note("untraced_qps", Json::Num(untraced_qps));
    report.note("traced_qps", Json::Num(traced_qps));
    report.note("traced_passes", Json::from(traced.len() as u64));
    report.note(
        "write_amp_numerator_bytes",
        Json::from(plain.wal_bytes + plain.store.page_writes * FRAME_BYTES + plain.meta_bytes),
    );
    report.note("spans", span::summarize(&recorders));
    report.note("trace_file", Json::str(trace_path.display().to_string()));
    for (k, v) in notes {
        report.note(&k, v);
    }
    Ok(report)
}

/// Builds the table once more (first four fifths, checkpointed and
/// reopened clean) and runs the layer probes on it, plus the WAL append
/// probe on its store.
fn probe_layers(
    dir: &Path,
    plan: &Plan,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<(String, Json)>, String> {
    let mut db = open(dir)?;
    create_table(&mut db)?;
    for r in &plan.rows {
        db.insert("T", r.values()).map_err(|e| e.to_string())?;
    }
    db.close().map_err(|e| e.to_string())?;
    let db = open(dir)?;

    let groups = plan.rows.len() as i64 / GROUP;
    let spec = probes::ProbeSpec {
        table: "T",
        index: "IDX_G",
        ranges: (0..20).map(|i| KeyRange::eq(i * groups / 20)).collect(),
        strategies: Vec::new(),
    };
    let statements = [POINT_SQL.to_string(), RANGE_SQL.to_string()];
    probes::front_end(&db, &statements, values)?;
    probes::storage_layers(&db, &spec, values)?;

    // WAL appends of a typical insert record, on this (scratch) store.
    let store = db.store().ok_or("durable database without a store")?;
    let record = WalRecord::Insert {
        page: PageId::new(FileId(0), 0),
        slot: 0,
        bytes: vec![0u8; USER_BYTES_PER_ROW as usize + 16],
    };
    let ns = probes::ns_per_call(5 * probes::MIN_CALLS, |_| {
        std::hint::black_box(store.append(&record).is_ok());
    });
    values.insert("storage.wal.append_us", ns / 1e3);
    Ok(Vec::new())
}
