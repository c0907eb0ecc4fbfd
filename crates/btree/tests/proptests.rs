//! Property-based tests: the B+-tree agrees with a sorted-vector model.

use proptest::prelude::*;
use rdb_btree::{BTree, KeyBound, KeyRange};
use rdb_storage::{shared_meter, shared_pool, CostConfig, FileId, Rid, Value};

fn build(keys: &[i64], fanout: usize) -> BTree {
    let pool = shared_pool(100_000, shared_meter(CostConfig::default()));
    let mut tree = BTree::new("idx", FileId(1), pool, vec![0], fanout);
    for (i, &k) in keys.iter().enumerate() {
        tree.insert(vec![Value::Int(k)], Rid::new(i as u32, 0));
    }
    tree
}

/// The pool's default meter — single-session tests charge there.
fn meter(t: &BTree) -> rdb_storage::SharedCost {
    t.pool().cost().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_matches_sorted_model(
        keys in prop::collection::vec(-100i64..100, 0..400),
        fanout in 4usize..12,
        lo in -120i64..120,
        len in 0i64..120,
    ) {
        let tree = build(&keys, fanout);
        tree.check_invariants();
        let hi = lo + len;
        let got: Vec<i64> = tree
            .range_to_vec(KeyRange::closed(lo, hi), &meter(&tree))
            .into_iter()
            .map(|(k, _)| k[0].as_i64().unwrap())
            .collect();
        let mut expect: Vec<i64> = keys.iter().copied().filter(|&k| lo <= k && k <= hi).collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn estimate_exactness_contract(
        keys in prop::collection::vec(0i64..1000, 1..500),
        lo in 0i64..1000,
        len in 0i64..200,
    ) {
        let tree = build(&keys, 6);
        let hi = lo + len;
        let range = KeyRange::closed(lo, hi);
        let est = tree.estimate_range(&range, &meter(&tree));
        let truth = keys.iter().filter(|&&k| lo <= k && k <= hi).count() as f64;
        if est.exact {
            prop_assert_eq!(est.estimate, truth, "exact estimates must be the truth");
        } else {
            prop_assert!(est.estimate > 0.0);
        }
        // Counted variant is exact whenever the plain one is, and its
        // estimate is never negative.
        let counted = tree.estimate_range_counted(&range, &meter(&tree));
        prop_assert!(counted.estimate >= 0.0);
        if counted.exact {
            prop_assert_eq!(counted.estimate, truth);
        }
    }

    /// The engine's estimate is the exact count, on inserted and
    /// bulk-loaded trees of any fanout with duplicate-heavy keys, for
    /// closed, half-open, point, empty and inverted ranges alike, and it
    /// touches at most the descent to the split node plus its two edges.
    #[test]
    fn edge_descent_estimate_is_the_count(
        keys in prop::collection::vec(0i64..40, 0..600),
        fanout in 4usize..65,
        bulk in any::<bool>(),
        lo in -5i64..45,
        len in -3i64..30,
        shape in 0u8..6,
    ) {
        let tree = if bulk {
            let pool = shared_pool(100_000, shared_meter(CostConfig::default()));
            let entries = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (vec![Value::Int(k)], Rid::new(i as u32, 0)))
                .collect();
            BTree::bulk_load("bulk", FileId(1), pool, vec![0], fanout, entries)
        } else {
            build(&keys, fanout)
        };
        let hi = lo + len;
        let range = match shape {
            0 => KeyRange::closed(lo, hi),
            1 => KeyRange::at_least(lo),
            2 => KeyRange::at_most(hi),
            3 => KeyRange::eq(lo),
            4 => KeyRange { lo: KeyBound::exclusive(lo), hi: KeyBound::exclusive(hi) },
            _ => KeyRange::all(),
        };
        let cost = meter(&tree);
        let est = tree.estimate_range(&range, &cost);
        prop_assert!(est.exact);
        prop_assert_eq!(est.estimate, tree.count_range(range, &cost) as f64);
        prop_assert!(
            est.nodes_visited <= tree.height() + 2 * (est.split_level - 1),
            "{} touches on a height-{} tree split at level {}",
            est.nodes_visited, tree.height(), est.split_level
        );
    }

    #[test]
    fn delete_then_scan_consistent(
        keys in prop::collection::vec(0i64..50, 1..200),
        delete_mask in prop::collection::vec(any::<bool>(), 200),
    ) {
        let mut tree = build(&keys, 5);
        let mut model: Vec<(i64, u32)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        for (i, &k) in keys.iter().enumerate() {
            if delete_mask[i % delete_mask.len()] {
                prop_assert!(tree.delete(&[Value::Int(k)], Rid::new(i as u32, 0)));
                model.retain(|&(_, idx)| idx != i as u32);
            }
        }
        tree.check_invariants();
        let got: Vec<(i64, u32)> = tree
            .range_to_vec(KeyRange::all(), &meter(&tree))
            .into_iter()
            .map(|(k, rid)| (k[0].as_i64().unwrap(), rid.page))
            .collect();
        model.sort_unstable();
        prop_assert_eq!(got, model);
    }

    /// Shuffled entries with duplicate and composite keys, bulk-loaded,
    /// give the same full-order scan and entry count as inserting them one
    /// by one, and every internal node's subtree counts equal what its
    /// children hold (`check_invariants`) — the counts
    /// `estimate_range_counted` reads.
    #[test]
    fn bulk_load_equals_incremental(
        keys in prop::collection::vec((0i64..5, 0i64..4), 0..400),
        fanout in 4usize..12,
        seed in any::<u64>(),
        lead in 0i64..5,
    ) {
        let mut entries: Vec<(Vec<Value>, Rid)> = keys
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let rid = Rid::new(i as u32 / 3, (i % 3) as u16);
                (vec![Value::Int(a), Value::Int(b)], rid)
            })
            .collect();
        let mut state = seed | 1;
        for i in (1..entries.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            entries.swap(i, (state >> 33) as usize % (i + 1));
        }
        let pool = shared_pool(100_000, shared_meter(CostConfig::default()));
        let bulk = BTree::bulk_load("bulk", FileId(7), pool.clone(), vec![0, 1], fanout, entries.clone());
        let mut inserted = BTree::new("ins", FileId(8), pool, vec![0, 1], fanout);
        for (key, rid) in entries {
            inserted.insert(key, rid);
        }
        bulk.check_invariants();
        inserted.check_invariants();
        prop_assert_eq!(bulk.len(), inserted.len());
        let cost = meter(&bulk);
        prop_assert_eq!(
            bulk.range_to_vec(KeyRange::all(), &cost),
            inserted.range_to_vec(KeyRange::all(), &cost)
        );
        // A prefix range on the leading column sees the same entries too.
        prop_assert_eq!(
            bulk.range_to_vec(KeyRange::eq(lead), &cost),
            inserted.range_to_vec(KeyRange::eq(lead), &cost)
        );
    }

    #[test]
    fn exclusive_bounds_match_model(
        keys in prop::collection::vec(0i64..100, 0..200),
        lo in 0i64..100,
        hi in 0i64..100,
    ) {
        let tree = build(&keys, 5);
        let range = KeyRange {
            lo: KeyBound::exclusive(lo),
            hi: KeyBound::exclusive(hi),
        };
        let got: Vec<i64> = tree
            .range_to_vec(range, &meter(&tree))
            .into_iter()
            .map(|(k, _)| k[0].as_i64().unwrap())
            .collect();
        let mut expect: Vec<i64> = keys.iter().copied().filter(|&k| lo < k && k < hi).collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
