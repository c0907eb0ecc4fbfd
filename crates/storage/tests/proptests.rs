//! Property-based tests for the storage substrate.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use rdb_storage::file_store::FRAME_HEADER;
use rdb_storage::page::Page;
use rdb_storage::wal::{checksum64, checksum64_seeded};
use rdb_storage::{
    shared_meter, shared_pool, BufferPool, Column, CostConfig, CostMeter, EvictionPolicy, FileId,
    FilePageStore, HeapTable, PageId, PageStore, Record, ReferencePool, Rid, Schema, StorageError,
    StoreStats, Value, ValueType, DURABLE_PAGE_BYTES, FRAME_BYTES,
};

fn arb_policy() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![Just(EvictionPolicy::Lru), Just(EvictionPolicy::Midpoint)]
}

/// One step of a buffer-pool workload for the differential test below.
#[derive(Debug, Clone)]
enum PoolOp {
    Access { file: u32, page: u32 },
    Run { file: u32, first: u32, n: u32 },
    Perturb { file: u32, pages: u32 },
    Clear,
}

fn arb_pool_op(files: u32, pages: u32) -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0..files, 0..pages).prop_map(|(file, page): (u32, u32)| -> PoolOp {
            PoolOp::Access { file, page }
        }),
        (0..files, 0..pages, 0u32..12).prop_map(|(file, first, n): (u32, u32, u32)| -> PoolOp {
            PoolOp::Run { file, first, n }
        }),
        (100u32..104, 0u32..10).prop_map(|(file, pages): (u32, u32)| -> PoolOp {
            PoolOp::Perturb { file, pages }
        }),
        Just(PoolOp::Clear),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,40}".prop_map(Value::Str),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    prop::collection::vec(arb_value(), 0..8).prop_map(Record::new)
}

/// A record's encoding: intact, or damaged in one of the ways the codec
/// must reject — cut short, trailing bytes, a bad first tag, or `0xFF`
/// poked anywhere (bad UTF-8 inside a `Str`, a bad tag, a wrong length or
/// arity, depending on where it lands).
fn arb_encoding() -> impl Strategy<Value = Vec<u8>> {
    (arb_record(), 0usize..5, any::<usize>(), any::<u8>()).prop_map(
        |(record, damage, at, byte): (Record, usize, usize, u8)| {
            let mut buf = Vec::new();
            record.encode(&mut buf);
            match damage {
                0 => {}
                1 => buf.truncate(at % buf.len()),
                2 => buf.push(byte),
                3 if buf.len() > 2 => buf[2] = 4 + byte % 252,
                _ => {
                    let i = at % buf.len();
                    buf[i] = 0xFF;
                }
            }
            buf
        },
    )
}

/// Codec results compared through the total order (NaN != NaN under
/// `PartialEq`); errors must be the same error.
fn same_decode(a: &Result<Record, StorageError>, b: &Result<Record, StorageError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.len() == b.len()
                && a.values()
                    .iter()
                    .zip(b.values())
                    .all(|(x, y)| x.cmp(y) == std::cmp::Ordering::Equal)
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

proptest! {
    /// One scratch record reused across a stream of rows — different
    /// arities, `Str` columns, corrupted buffers in between — decodes
    /// each exactly as a fresh `Record::decode` does, and a failed decode
    /// leaves nothing of any earlier row behind.
    #[test]
    fn decode_into_a_reused_record_matches_decode(
        stream in prop::collection::vec(arb_encoding(), 1..12),
    ) {
        let mut scratch = Record::default();
        for buf in &stream {
            let fresh = Record::decode(buf);
            let reused = scratch.decode_into(buf).map(|()| scratch.clone());
            prop_assert!(same_decode(&fresh, &reused), "{fresh:?} vs {reused:?} on {buf:?}");
            if reused.is_err() {
                prop_assert!(scratch.is_empty());
            }
        }
    }

    #[test]
    fn value_codec_roundtrips(v in arb_value()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        prop_assert_eq!(buf.len(), v.encoded_len());
        let mut pos = 0;
        let decoded = Value::decode(&buf, &mut pos).unwrap();
        prop_assert_eq!(pos, buf.len());
        // NaN != NaN under PartialEq; compare via total order instead.
        prop_assert!(decoded.cmp(&v) == std::cmp::Ordering::Equal);
    }

    #[test]
    fn record_codec_roundtrips(r in arb_record()) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let decoded = Record::decode(&buf).unwrap();
        prop_assert_eq!(decoded.len(), r.len());
        for (a, b) in decoded.values().iter().zip(r.values()) {
            prop_assert!(a.cmp(b) == std::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn value_ordering_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity (spot-check one chain direction).
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert!(a.cmp(&c) != Ordering::Greater);
        }
    }

    #[test]
    fn rid_u64_roundtrip_preserves_order(
        p1 in 0u32..1_000_000, s1 in 0u16..1000,
        p2 in 0u32..1_000_000, s2 in 0u16..1000,
    ) {
        let a = Rid::new(p1, s1);
        let b = Rid::new(p2, s2);
        prop_assert_eq!(Rid::from_u64(a.to_u64()), a);
        prop_assert_eq!(a.cmp(&b), a.to_u64().cmp(&b.to_u64()));
    }

    #[test]
    fn heap_preserves_all_inserted_records(xs in prop::collection::vec(any::<i64>(), 1..200)) {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(1024, cost);
        let schema = Schema::new(vec![Column::new("x", ValueType::Int)]);
        let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool, 128);
        let mut rids = Vec::new();
        for &x in &xs {
            rids.push(table.insert(Record::new(vec![Value::Int(x)])).unwrap());
        }
        // Every RID fetches back its own record.
        let meter = shared_meter(CostConfig::default());
        for (rid, &x) in rids.iter().zip(&xs) {
            let rec = table.fetch(*rid, &meter).unwrap();
            prop_assert_eq!(rec[0].as_i64().unwrap(), x);
        }
        // Scan sees exactly the inserted multiset, in insertion order.
        let mut scan = table.scan();
        let mut seen = Vec::new();
        while let Some((_, rec)) = scan.next(&table, &meter).unwrap() {
            seen.push(rec[0].as_i64().unwrap());
        }
        prop_assert_eq!(seen, xs);
    }

    /// The open-addressed pool is defined to be observably equivalent to
    /// the `HashMap`+slab reference model: same hit/miss sequence,
    /// counters, residency, and cost on any interleaving of accesses,
    /// batched runs, perturbations, and cold restarts, at any capacity —
    /// under both eviction policies.
    #[test]
    fn pool_matches_reference_lru(
        capacity in 1usize..40,
        policy in arb_policy(),
        ops in prop::collection::vec(arb_pool_op(5, 64), 1..400),
    ) {
        let cost_new = shared_meter(CostConfig::default());
        let cost_ref = shared_meter(CostConfig::default());
        let pool = BufferPool::with_policy(capacity, 1, policy, cost_new.clone());
        let mut reference = ReferencePool::with_policy(capacity, policy, cost_ref.clone());
        for op in &ops {
            match *op {
                PoolOp::Access { file, page } => {
                    let pid = PageId::new(FileId(file), page);
                    prop_assert_eq!(pool.access(pid, &cost_new), reference.access(pid));
                }
                PoolOp::Run { file, first, n } => {
                    let (hits, misses) = pool.access_run(FileId(file), first, n, &cost_new);
                    let mut ref_hits = 0u64;
                    for p in first..first + n {
                        let got = reference.access(PageId::new(FileId(file), p));
                        if got == rdb_storage::Access::Hit {
                            ref_hits += 1;
                        }
                    }
                    prop_assert_eq!(hits, ref_hits);
                    prop_assert_eq!(hits + misses, n as u64);
                }
                PoolOp::Perturb { file, pages } => {
                    pool.perturb(FileId(file), pages);
                    reference.perturb(FileId(file), pages);
                }
                PoolOp::Clear => {
                    pool.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(pool.len(), reference.len());
            prop_assert_eq!(pool.hits(), reference.hits());
            prop_assert_eq!(pool.misses(), reference.misses());
        }
        // Residency agrees for every page either pool could hold.
        for f in (0..5u32).chain(100..104) {
            for p in 0..80 {
                let pid = PageId::new(FileId(f), p);
                prop_assert_eq!(pool.contains(pid), reference.contains(pid));
            }
        }
        // Charges agree exactly: the meter total is a pure function of the
        // counters, so batched and per-page charging are bit-identical.
        prop_assert_eq!(cost_new.snapshot(), cost_ref.snapshot());
        prop_assert!(cost_new.total() == cost_ref.total(), "totals must be bit-identical");
    }

    /// Sharded pools are defined shard-locally: project the access
    /// sequence onto each shard (via the pool's own routing) and each
    /// shard must behave exactly like an independent reference LRU of the
    /// per-shard capacity — identical hit/miss classification, counters,
    /// residency, and bit-identical cost totals.
    #[test]
    fn sharded_pool_matches_per_shard_reference_lrus(
        capacity in 1usize..60,
        shards in prop_oneof![Just(2usize), Just(4usize), Just(8usize)],
        policy in arb_policy(),
        ops in prop::collection::vec(arb_pool_op(5, 64), 1..400),
    ) {
        let cost_new = shared_meter(CostConfig::default());
        let cost_ref = shared_meter(CostConfig::default());
        let pool = BufferPool::with_policy(capacity, shards, policy, cost_new.clone());
        let per_shard = pool.capacity() / pool.num_shards();
        let mut refs: Vec<ReferencePool> = (0..pool.num_shards())
            .map(|_| ReferencePool::with_policy(per_shard, policy, cost_ref.clone()))
            .collect();
        for op in &ops {
            match *op {
                PoolOp::Access { file, page } => {
                    let pid = PageId::new(FileId(file), page);
                    let got = pool.access(pid, &cost_new);
                    let want = refs[pool.shard_of(pid)].access(pid);
                    prop_assert_eq!(got, want);
                }
                PoolOp::Run { file, first, n } => {
                    let (hits, misses) = pool.access_run(FileId(file), first, n, &cost_new);
                    let mut ref_hits = 0u64;
                    for p in first..first + n {
                        let pid = PageId::new(FileId(file), p);
                        if refs[pool.shard_of(pid)].access(pid) == rdb_storage::Access::Hit {
                            ref_hits += 1;
                        }
                    }
                    prop_assert_eq!(hits, ref_hits);
                    prop_assert_eq!(hits + misses, n as u64);
                }
                PoolOp::Perturb { file, pages } => {
                    pool.perturb(FileId(file), pages);
                    for p in 0..pages {
                        let pid = PageId::new(FileId(file), p);
                        refs[pool.shard_of(pid)].perturb_one(pid);
                    }
                }
                PoolOp::Clear => {
                    pool.clear();
                    for r in &mut refs {
                        r.clear();
                    }
                }
            }
            let stats = pool.stats();
            prop_assert_eq!(stats.hits, refs.iter().map(|r| r.hits()).sum::<u64>());
            prop_assert_eq!(stats.misses, refs.iter().map(|r| r.misses()).sum::<u64>());
            prop_assert_eq!(pool.len(), refs.iter().map(|r| r.len()).sum::<usize>());
        }
        // Residency agrees shard by shard — a page resident in the sharded
        // pool is resident in exactly its own shard's reference model.
        for f in (0..5u32).chain(100..104) {
            for p in 0..80 {
                let pid = PageId::new(FileId(f), p);
                prop_assert_eq!(pool.contains(pid), refs[pool.shard_of(pid)].contains(pid));
            }
        }
        prop_assert_eq!(cost_new.snapshot(), cost_ref.snapshot());
        prop_assert!(cost_new.total() == cost_ref.total(), "totals must be bit-identical");
    }

    #[test]
    fn heap_scan_cost_is_pages_plus_records(n in 1usize..300) {
        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(4096, cost.clone());
        let schema = Schema::new(vec![Column::new("x", ValueType::Int)]);
        let mut table = HeapTable::with_page_bytes("t", FileId(0), schema, pool, 256);
        for i in 0..n {
            table.insert(Record::new(vec![Value::Int(i as i64)])).unwrap();
        }
        let before = cost.snapshot();
        let mut scan = table.scan();
        let mut count = 0;
        while scan.next(&table, &cost).unwrap().is_some() { count += 1; }
        let d = cost.snapshot().since(&before);
        prop_assert_eq!(count, n);
        prop_assert_eq!(d.records_examined as usize, n);
        prop_assert_eq!(d.page_reads as u32, table.page_count());
    }
}

/// A fresh database directory for one test case.
fn frame_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CASE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rdb-frameprop-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Pages of every shape a frame has to carry: empty, a few slots with
/// tombstones among them, and filled until nothing more fits.
fn arb_page() -> impl Strategy<Value = Page> {
    let slot = (prop::collection::vec(any::<u8>(), 0..120), any::<bool>());
    (0usize..3, prop::collection::vec(slot, 0..24)).prop_map(
        |(shape, slots): (usize, Vec<(Vec<u8>, bool)>)| {
            let mut page = Page::new(DURABLE_PAGE_BYTES);
            match shape {
                0 => {}
                1 => {
                    for (bytes, dead) in slots {
                        let slot = page.insert(bytes).unwrap();
                        if dead {
                            page.delete(slot).unwrap();
                        }
                    }
                }
                _ => {
                    let filler = slots.first().map_or(40, |(b, _)| b.len() + 1);
                    while page.fits(filler) {
                        page.insert(vec![0xA5; filler]).unwrap();
                    }
                }
            }
            page
        },
    )
}

/// One step of a page's life for the image-length property below: the
/// mutations a running table makes, the ones WAL replay makes, and a round
/// trip through the serialized image.
#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Delete(u16),
    ApplyInsertAt(u16, Vec<u8>),
    ApplyDeleteAt(u16),
    RoundTrip,
}

fn arb_page_op() -> impl Strategy<Value = PageOp> {
    let bytes = || prop::collection::vec(any::<u8>(), 0..90);
    prop_oneof![
        bytes().prop_map(PageOp::Insert),
        (0u16..40).prop_map(PageOp::Delete),
        (0u16..40, bytes()).prop_map(|(slot, b): (u16, Vec<u8>)| PageOp::ApplyInsertAt(slot, b)),
        (0u16..40).prop_map(PageOp::ApplyDeleteAt),
        Just(PageOp::RoundTrip),
    ]
}

proptest! {
    /// `image_len` is computed from the page's byte accounting rather
    /// than by walking the slots; it must still equal the length of the
    /// image `encode_image` writes after any mix of inserts, deletes,
    /// redo applications and decode round trips.
    #[test]
    fn image_len_equals_encoded_length(ops in prop::collection::vec(arb_page_op(), 0..60)) {
        let mut page = Page::new(DURABLE_PAGE_BYTES);
        let image = |page: &Page| {
            let mut buf = Vec::new();
            page.encode_image(&mut buf).unwrap();
            buf
        };
        for op in ops {
            match op {
                PageOp::Insert(bytes) => {
                    if page.fits(bytes.len()) {
                        page.insert(bytes).unwrap();
                    }
                }
                PageOp::Delete(slot) => {
                    let _ = page.delete(slot);
                }
                PageOp::ApplyInsertAt(slot, bytes) => page.apply_insert_at(slot, bytes),
                PageOp::ApplyDeleteAt(slot) => page.apply_delete_at(slot),
                PageOp::RoundTrip => {
                    page = Page::decode_image(DURABLE_PAGE_BYTES, &image(&page)).unwrap();
                }
            }
            prop_assert_eq!(page.image_len(), image(&page).len(), "{page:?}");
        }
    }
}

fn torn(pid: PageId) -> StorageError {
    StorageError::TornPage {
        file: pid.file,
        page: pid.page,
    }
}

/// `verify_run` gathered into the shape `read_run` has once its pages
/// are dropped.
fn verify_run_vec(
    store: &FilePageStore,
    file: FileId,
    first: u32,
    n: u32,
    scratch: &mut Vec<u8>,
) -> Vec<Result<(), StorageError>> {
    let mut out = Vec::new();
    store.verify_run(file, first, n, scratch, &mut |r| out.push(r));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Nothing inside the checked part of a frame can change unseen: one
    /// flipped bit anywhere in `[0, 32 + len)`, a cut anywhere inside the
    /// payload, or the frame sitting under another page's identity is a
    /// `TornPage` from the materialising read and from the verify alike,
    /// while a flip in the uncovered padding changes neither answer.
    #[test]
    fn damaged_frames_are_torn_for_read_and_verify_alike(
        page in arb_page(),
        file in 0u32..3,
        page_no in 0u32..3,
        lsn in any::<u64>(),
        picks in prop::collection::vec(any::<usize>(), 6),
    ) {
        let dir = frame_dir("damage");
        let pid = PageId::new(FileId(file), page_no);
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        store.write_page(pid, &page, lsn).unwrap();
        let path = FilePageStore::data_path(&dir, pid.file);
        let clean = fs::read(&path).unwrap();
        let at = page_no as usize * FRAME_BYTES;
        let checked = FRAME_HEADER + page.image_len();
        prop_assert_eq!(clean.len(), at + FRAME_BYTES);
        let intact = Ok(Some((page.clone(), lsn)));
        prop_assert_eq!(&store.read_page(pid), &intact);
        prop_assert_eq!(store.verify_page(pid), Ok(()));
        let reads_clean = store.stats().page_reads;

        // The store keeps its handle; the file is damaged underneath it.
        for pick in &picks {
            let bit = pick % (checked * 8);
            let mut bytes = clean.clone();
            bytes[at + bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bytes).unwrap();
            prop_assert_eq!(store.read_page(pid), Err(torn(pid)), "bit {bit} (read)");
            prop_assert_eq!(store.verify_page(pid), Err(torn(pid)), "bit {bit} (verify)");

            let pad = checked * 8 + pick % ((FRAME_BYTES - checked) * 8);
            let mut bytes = clean.clone();
            bytes[at + pad / 8] ^= 1 << (pad % 8);
            fs::write(&path, &bytes).unwrap();
            prop_assert_eq!(&store.read_page(pid), &intact, "padding bit {pad} (read)");
            prop_assert_eq!(store.verify_page(pid), Ok(()), "padding bit {pad} (verify)");

            let cut = FRAME_HEADER + pick % (checked - FRAME_HEADER);
            fs::write(&path, &clean[..at + cut]).unwrap();
            prop_assert_eq!(store.read_page(pid), Err(torn(pid)), "cut at {cut} (read)");
            prop_assert_eq!(store.verify_page(pid), Err(torn(pid)), "cut at {cut} (verify)");
        }
        // A cut inside the header leaves no frame at all, for both.
        fs::write(&path, &clean[..at + picks[0] % FRAME_HEADER]).unwrap();
        prop_assert_eq!(store.read_page(pid), Ok(None));
        prop_assert_eq!(store.verify_page(pid), Ok(()));

        // The same frame one slot further, and under another file's name.
        let mut moved = clean.clone();
        moved.extend_from_slice(&clean[at..]);
        fs::write(&path, &moved).unwrap();
        let next = PageId::new(pid.file, page_no + 1);
        prop_assert_eq!(store.read_page(next), Err(torn(next)));
        prop_assert_eq!(store.verify_page(next), Err(torn(next)));
        let other = PageId::new(FileId(file + 1), page_no);
        fs::write(FilePageStore::data_path(&dir, other.file), &clean).unwrap();
        prop_assert_eq!(store.read_page(other), Err(torn(other)));
        prop_assert_eq!(store.verify_page(other), Err(torn(other)));

        // Only intact frames were ever counted: twice per padding flip.
        prop_assert_eq!(
            store.stats().page_reads,
            reads_clean + 2 * picks.len() as u64
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `verify_page(p)` is `read_page(p).map(|_| ())` and `verify_run` is
    /// `read_run` mapped the same way, slot by slot, over files holding
    /// intact frames, holes, poked bytes and a cut-off tail — with the
    /// same `StoreStats` deltas, and with one scratch buffer carried from
    /// window to window (stale bytes behind a short read are never
    /// checked).
    #[test]
    fn verify_matches_read_with_identical_stats(
        frames in prop::collection::vec((arb_page(), 0usize..4, any::<usize>()), 1..10),
        tail_cut in any::<usize>(),
        windows in prop::collection::vec((0u32..12, 0u32..14), 1..8),
    ) {
        let dir = frame_dir("equiv");
        let fid = FileId(1);
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        for (p, (page, fate, _)) in frames.iter().enumerate() {
            if *fate != 0 {
                // fate 0: never written — a hole, or EOF if it is last.
                store.write_page(PageId::new(fid, p as u32), page, p as u64 + 1).unwrap();
            }
        }
        let path = FilePageStore::data_path(&dir, fid);
        if let Ok(mut bytes) = fs::read(&path) {
            for (p, (_, fate, at)) in frames.iter().enumerate() {
                // fate 1: intact; 2: a byte poked somewhere in the frame;
                // 3: a bit flipped in the header.
                let frame = p * FRAME_BYTES;
                match fate {
                    2 => bytes[frame + at % FRAME_BYTES] ^= 0x40,
                    3 => bytes[frame + at % FRAME_HEADER] ^= 1 << (at % 8),
                    _ => {}
                }
            }
            if tail_cut.is_multiple_of(3) {
                bytes.truncate(bytes.len() - tail_cut % FRAME_BYTES);
            }
            fs::write(&path, &bytes).unwrap();
        }

        let delta = |before: StoreStats| store.stats().since(&before);
        let pages = frames.len() as u32 + 2; // two past EOF
        let before = store.stats();
        let read: Vec<_> = (0..pages).map(|p| store.read_page(PageId::new(fid, p))).collect();
        let read_stats = delta(before);
        let before = store.stats();
        let verified: Vec<_> = (0..pages).map(|p| store.verify_page(PageId::new(fid, p))).collect();
        prop_assert_eq!(delta(before), read_stats);
        let expect: Vec<_> = read.iter().map(|r| r.clone().map(|_| ())).collect();
        prop_assert_eq!(&verified, &expect);

        let mut scratch = Vec::new();
        for &(first, n) in &windows {
            for file in [fid, FileId(9)] {
                // FileId(9) has no data file: every slot reads as a hole.
                let before = store.stats();
                let run = store.read_run(file, first, n);
                let run_stats = delta(before);
                let before = store.stats();
                let got = verify_run_vec(&store, file, first, n, &mut scratch);
                prop_assert_eq!(delta(before), run_stats, "window {first}+{n}");
                let expect: Vec<_> = run.into_iter().map(|r| r.map(|_| ())).collect();
                prop_assert_eq!(&got, &expect, "window {first}+{n}");
                if file == fid {
                    // ... and each slot is what the single-page path says.
                    for (i, outcome) in got.iter().enumerate() {
                        let p = first + i as u32;
                        let single = store.verify_page(PageId::new(fid, p));
                        prop_assert_eq!(outcome, &single, "page {p}");
                    }
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

fn sum_pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 131 + 7) as u8).collect()
}

/// The on-disk checksum cannot drift silently: these sums are in every
/// frame, WAL record and header ever written by this format version.
/// Lengths straddle the 32-byte block (tail only, exact block, block +
/// tail) and cover a full frame payload.
#[test]
fn checksum64_pinned_vectors() {
    assert_eq!(checksum64(b""), 0xd209_9249_f6c7_bf69);
    assert_eq!(checksum64(b"abc"), 0x9ff7_ba61_695e_bbf8);
    assert_eq!(checksum64(&sum_pattern(31)), 0x03e5_1a09_49a3_2918);
    assert_eq!(checksum64(&sum_pattern(32)), 0xaf4f_09b8_f815_6174);
    assert_eq!(checksum64(&sum_pattern(33)), 0xce7d_37b7_7fcd_644a);
    assert_eq!(checksum64(&sum_pattern(4064)), 0x29ae_2de8_4426_9956);
    assert_eq!(
        checksum64_seeded(checksum64(&sum_pattern(20)), &sum_pattern(100)),
        0x58fa_9746_c04d_30a2
    );
    assert_eq!(checksum64_seeded(0, b"abc"), checksum64(b"abc"));
}

/// The bijection argument as a test: every one of the 32 512 single-bit
/// flips of a full frame payload changes the sum, and so does every
/// single-bit flip of the seed.
#[test]
fn every_single_bit_flip_changes_the_checksum() {
    let mut buf = sum_pattern(4064);
    let clean = checksum64(&buf);
    for bit in 0..buf.len() * 8 {
        buf[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(checksum64(&buf), clean, "flip of bit {bit} went unseen");
        buf[bit / 8] ^= 1 << (bit % 8);
    }
    assert_eq!(checksum64(&buf), clean);
    for bit in 0..64 {
        assert_ne!(checksum64_seeded(1 << bit, &buf), clean, "seed bit {bit}");
    }
}

/// 8 threads hammer one sharded pool with interleaved point accesses and
/// batched runs. Conservation must hold exactly: every access is charged
/// to its thread's meter as exactly one hit or miss (hits + misses ==
/// accesses, per thread and pool-wide), and afterwards no residency was
/// lost or duplicated — with ample capacity every touched page is resident
/// and the resident count equals the number of distinct pages touched.
#[test]
fn eight_thread_stress_conserves_counters_and_residency() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const THREADS: u32 = 8;
    const PAGES_PER_THREAD: u32 = 600;
    const OPS_PER_THREAD: u32 = 4_000;
    const TOTAL_PAGES: u32 = THREADS * PAGES_PER_THREAD;

    // Per-shard capacity covers the entire working set, so no shard ever
    // evicts regardless of how the hash skews blocks across stripes —
    // making the final residency exactly the union of working sets.
    let pool = Arc::new(BufferPool::with_shards(
        TOTAL_PAGES as usize * 8,
        8,
        shared_meter(CostConfig::default()),
    ));
    let total_accesses = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = Arc::clone(&pool);
            let total_accesses = &total_accesses;
            s.spawn(move || {
                // Each thread works a distinct file with its own meter and
                // a cheap deterministic LCG for page selection.
                let meter = CostMeter::new(CostConfig::default());
                let file = FileId(t);
                let mut x: u64 = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1);
                let mut accesses = 0u64;
                // Deterministic warm pass: touch the whole working set once
                // so the per-thread miss count below is exact.
                let (h0, m0) = pool.access_run(file, 0, PAGES_PER_THREAD, &meter);
                assert_eq!((h0, m0), (0, PAGES_PER_THREAD as u64));
                accesses += PAGES_PER_THREAD as u64;
                for _ in 0..OPS_PER_THREAD {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if x & 7 == 0 {
                        let first = (x >> 20) as u32 % (PAGES_PER_THREAD - 100);
                        let n = 1 + (x >> 50) as u32 % 100;
                        let (h, m) = pool.access_run(file, first, n, &meter);
                        assert_eq!(h + m, n as u64);
                        accesses += n as u64;
                    } else {
                        pool.access(
                            PageId::new(file, (x >> 33) as u32 % PAGES_PER_THREAD),
                            &meter,
                        );
                        accesses += 1;
                    }
                }
                let snap = meter.snapshot();
                assert_eq!(
                    snap.page_reads + snap.cache_hits,
                    accesses,
                    "thread {t}: every access charged exactly once as hit or miss"
                );
                // With no eviction and the warm pass covering every page,
                // this thread misses exactly once per distinct page —
                // nothing lost, nothing double-faulted.
                assert_eq!(snap.page_reads, PAGES_PER_THREAD as u64, "thread {t}");
                // Scoped threads signal completion before TLS destructors
                // run, so absorb this thread's deferred pool state (hit
                // tallies + LRU promotions) explicitly before the main
                // thread reads pool-wide stats.
                pool.flush_session();
                total_accesses.fetch_add(accesses, Ordering::Relaxed);
            });
        }
    });

    // Pool-wide conservation: shard counters sum to exactly the accesses
    // issued, and residency equals the union of per-thread working sets
    // (no page lost, none duplicated across shards).
    let stats = pool.stats();
    assert_eq!(
        stats.hits + stats.misses,
        total_accesses.load(Ordering::Relaxed)
    );
    assert_eq!(stats.misses, TOTAL_PAGES as u64);
    assert_eq!(pool.len(), TOTAL_PAGES as usize);
    for t in 0..THREADS {
        for p in 0..PAGES_PER_THREAD {
            assert!(pool.contains(PageId::new(FileId(t), p)), "lost page {t}/{p}");
        }
    }
}
