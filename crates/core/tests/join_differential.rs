//! Differential property tests for the join methods: on LCG-generated
//! table pairs — including NULL-heavy join keys and an empty probe side —
//! the hash join (both build orientations) and the Jscan-style
//! RID-intersection merge join must produce exactly the pair set of the
//! index-nested-loop reference, with no duplicates and with every
//! delivered record matching what the heap holds.

use std::sync::Arc;

use proptest::prelude::*;

use rdb_btree::BTree;
use rdb_core::join::competition::run_join_method;
use rdb_core::join::{JoinMethod, JoinOp, JoinRequest, JoinResult, JoinSide, SideId};
use rdb_core::RecordPred;
use rdb_storage::{
    shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Rid, Schema, Value,
    ValueType,
};

/// Deterministic 64-bit LCG (Knuth's MMIX multiplier); the high bits are
/// the usable stream.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

struct JoinWorld {
    left: HeapTable,
    right: HeapTable,
    idx_l: BTree,
    idx_r: BTree,
}

/// Grows two tables `(K, V)` whose join keys come from an LCG over a
/// `k_dom`-sized domain with `null_pct`% NULLs, and indexes both join
/// columns so every method orientation is feasible.
fn build_world(seed: u64, n_l: u64, n_r: u64, k_dom: u64, null_pct: u64) -> JoinWorld {
    let pool = shared_pool(100_000, shared_meter(CostConfig::default()));
    let schema = || {
        Schema::new(vec![
            Column::nullable("K", ValueType::Int),
            Column::new("V", ValueType::Int),
        ])
    };
    let mut left = HeapTable::with_page_bytes("L", FileId(0), schema(), pool.clone(), 512);
    let mut right = HeapTable::with_page_bytes("R", FileId(1), schema(), pool.clone(), 512);
    let mut idx_l = BTree::new("IDX_L_K", FileId(2), pool.clone(), vec![0], 8);
    let mut idx_r = BTree::new("IDX_R_K", FileId(3), pool, vec![0], 8);
    let mut rng = Lcg::new(seed);
    let mut fill = |table: &mut HeapTable, idx: &mut BTree, n: u64| {
        for i in 0..n {
            let key = if rng.below(100) < null_pct {
                Value::Null
            } else {
                Value::Int(rng.below(k_dom) as i64)
            };
            let rid = table
                .insert(Record::new(vec![key.clone(), Value::Int(i as i64)]))
                .unwrap();
            idx.insert(vec![key], rid);
        }
    };
    fill(&mut left, &mut idx_l, n_l);
    fill(&mut right, &mut idx_r, n_r);
    JoinWorld {
        left,
        right,
        idx_l,
        idx_r,
    }
}

impl JoinWorld {
    /// A fresh equi-join request over the two tables, optionally keeping
    /// only even `V` on the left (a side-local residual so the methods
    /// also agree under restriction).
    fn request(&self, even_left_only: bool) -> JoinRequest<'_> {
        let mut l = JoinSide::new(&self.left).on_column(0).with_index(&self.idx_l);
        if even_left_only {
            let residual: RecordPred =
                Arc::new(|r: &Record| r[1].as_i64().map(|v| v % 2 == 0).unwrap_or(false));
            let est = self.left.cardinality() as f64 / 2.0;
            l = l.with_residual(residual, est);
        }
        let r = JoinSide::new(&self.right).on_column(0).with_index(&self.idx_r);
        JoinRequest::new(l, r, JoinOp::Eq, self.left.pool().cost().clone())
    }
}

/// The canonical comparable form of a result: sorted RID pairs.
fn pair_set(result: &JoinResult) -> Vec<(Rid, Rid)> {
    let mut pairs: Vec<(Rid, Rid)> = result
        .pairs
        .iter()
        .map(|p| (p.left_rid, p.right_rid))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Every delivered row must be the heap's rows for its RIDs: by default
/// every left column, then every right column.
fn records_match_heap(world: &JoinWorld, result: &JoinResult) -> bool {
    let cost = world.left.pool().cost().clone();
    result.pairs.iter().all(|p| {
        let mut row = world.left.fetch(p.left_rid, &cost).unwrap().into_values();
        row.extend(world.right.fetch(p.right_rid, &cost).unwrap().into_values());
        row == p.row
    })
}

const CHALLENGERS: [JoinMethod; 3] = [
    JoinMethod::Hash { build: SideId::Left },
    JoinMethod::Hash { build: SideId::Right },
    JoinMethod::Merge,
];

fn assert_methods_agree(world: &JoinWorld, even_left_only: bool) {
    let reference = run_join_method(
        &world.request(even_left_only),
        JoinMethod::IndexNested { outer: SideId::Left },
    )
    .unwrap();
    let truth = pair_set(&reference);
    let mut deduped = truth.clone();
    deduped.dedup();
    assert_eq!(deduped.len(), truth.len(), "reference delivered duplicates");
    assert!(records_match_heap(world, &reference));
    for method in CHALLENGERS {
        let got = run_join_method(&world.request(even_left_only), method).unwrap();
        assert_eq!(
            pair_set(&got),
            truth,
            "{} disagrees with the index-nested-loop reference",
            method.label()
        );
        assert!(records_match_heap(world, &got), "{}: stale records", method.label());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary shapes: both hash orientations and the merge join agree
    /// pair-for-pair with index-nested-loop, NULLs never matching.
    #[test]
    fn hash_and_merge_agree_with_index_nested_loop(
        seed in any::<u64>(),
        n_l in 0u64..120,
        n_r in 0u64..160,
        k_dom in 1u64..40,
        null_pct in 0u64..=80,
        even_left_only in any::<bool>(),
    ) {
        let world = build_world(seed, n_l, n_r, k_dom, null_pct);
        assert_methods_agree(&world, even_left_only);
    }
}

/// The probe/inner side can be completely empty; every method must
/// return the empty result rather than erroring or looping.
#[test]
fn empty_probe_side_yields_empty_result_everywhere() {
    for (n_l, n_r) in [(40, 0), (0, 40), (0, 0)] {
        let world = build_world(7, n_l, n_r, 8, 20);
            for method in [
            JoinMethod::NestedLoop { outer: SideId::Left },
            JoinMethod::IndexNested { outer: SideId::Left },
            JoinMethod::IndexNested { outer: SideId::Right },
            JoinMethod::Hash { build: SideId::Left },
            JoinMethod::Hash { build: SideId::Right },
            JoinMethod::Merge,
        ] {
            let got = run_join_method(&world.request(false), method).unwrap();
            assert!(
                got.pairs.is_empty(),
                "{} on {n_l}x{n_r} rows must be empty",
                method.label()
            );
        }
    }
}

/// All-NULL join keys on both sides: SQL semantics say nothing matches,
/// however the methods walk their inputs.
#[test]
fn all_null_keys_never_match() {
    let world = build_world(11, 60, 60, 8, 100);
    assert_methods_agree(&world, false);
    let got = run_join_method(
        &world.request(false),
        JoinMethod::Hash { build: SideId::Left },
    )
    .unwrap();
    assert!(got.pairs.is_empty());
}
