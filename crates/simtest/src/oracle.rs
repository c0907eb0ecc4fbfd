//! The independent ground-truth evaluator.
//!
//! The oracle never touches the storage engine: it filters the shadow
//! `Vec` of rows with straight-line predicate evaluation — no indexes, no
//! cost model, no buffer pool. Anything the real executor returns is
//! differenced against this. The two implementations share nothing but
//! the [`Conjunct`] comparison rule, so a bug in either side shows up as
//! a mismatch instead of cancelling out.

use std::collections::HashMap;

use rdb_core::request::Delivery;
use rdb_storage::{Rid, Value};

use crate::failure::SimFailure;
use crate::scenario::{Conjunct, OrQuery, Query, Scenario, NUM_COLS};

/// RIDs of the rows matching the full predicate, in physical (RID) order.
pub fn expected_rids(scenario: &Scenario, query: &Query) -> Vec<Rid> {
    scenario
        .shadow
        .iter()
        .filter(|(_, row)| query.matches_row(row))
        .map(|(rid, _)| *rid)
        .collect()
}

/// RIDs of the rows matching an OR query's disjunction, in physical order.
pub fn expected_or_rids(scenario: &Scenario, query: &OrQuery) -> Vec<Rid> {
    scenario
        .shadow
        .iter()
        .filter(|(_, row)| query.matches_row(row))
        .map(|(rid, _)| *rid)
        .collect()
}

/// RIDs matching only the given conjuncts (e.g. the indexed subset a
/// Jscan intersection is responsible for), in physical order.
pub fn expected_for_conjuncts(scenario: &Scenario, conjuncts: &[Conjunct]) -> Vec<Rid> {
    scenario
        .shadow
        .iter()
        .filter(|(_, row)| conjuncts.iter().all(|c| c.matches(&row[c.col])))
        .map(|(rid, _)| *rid)
        .collect()
}

fn sorted(mut rids: Vec<Rid>) -> Vec<Rid> {
    rids.sort_unstable();
    rids
}

/// Checks an *unlimited* run: the delivered RID set must equal the
/// expected set exactly (order ignored — physical vs key order both
/// legal), and every materialized record must match the shadow row
/// byte-for-byte. `sscan_col` is the key column when deliveries carry
/// index key tuples instead of full records.
pub fn check_full(
    scenario: &Scenario,
    expected: &[Rid],
    deliveries: &[Delivery],
    sscan_col: Option<usize>,
    what: &str,
) -> Result<(), SimFailure> {
    let got: Vec<Rid> = deliveries.iter().map(|d| d.rid).collect();
    if sorted(got) != sorted(expected.to_vec()) {
        return Err(SimFailure::row_set(format!(
            "{what}: row-set mismatch: got {} rows, expected {}",
            deliveries.len(),
            expected.len()
        )));
    }
    check_contents(scenario, deliveries, sscan_col, what)
}

/// Checks a *limited* run: deliveries must be a subset of the expected
/// set, without duplicates, of size `min(limit, expected)`.
pub fn check_limited(
    scenario: &Scenario,
    expected: &[Rid],
    deliveries: &[Delivery],
    limit: Option<usize>,
    sscan_col: Option<usize>,
    what: &str,
) -> Result<(), SimFailure> {
    match limit {
        None => return check_full(scenario, expected, deliveries, sscan_col, what),
        Some(limit) => {
            let want = expected.len().min(limit);
            if deliveries.len() != want {
                return Err(SimFailure::row_set(format!(
                    "{what}: limited run delivered {} rows, expected {want} (limit {limit}, {} qualifying)",
                    deliveries.len(),
                    expected.len()
                )));
            }
            let mut seen = std::collections::HashSet::new();
            for d in deliveries {
                if !expected.contains(&d.rid) {
                    return Err(SimFailure::row_set(format!("{what}: delivered non-qualifying row {}", d.rid)));
                }
                if !seen.insert(d.rid) {
                    return Err(SimFailure::row_set(format!("{what}: duplicate delivery of {}", d.rid)));
                }
            }
        }
    }
    check_contents(scenario, deliveries, sscan_col, what)
}

/// Verifies that every delivered record equals the shadow row it claims
/// to be — the partial-result-corruption check the fault injector leans
/// on: a run that returns `Ok` must not have smuggled damaged rows out.
fn check_contents(
    scenario: &Scenario,
    deliveries: &[Delivery],
    sscan_col: Option<usize>,
    what: &str,
) -> Result<(), SimFailure> {
    let by_rid: HashMap<Rid, &Vec<Value>> =
        scenario.shadow.iter().map(|(rid, row)| (*rid, row)).collect();
    for d in deliveries {
        let row = by_rid
            .get(&d.rid)
            .ok_or_else(|| SimFailure::row_set(format!("{what}: delivered unknown RID {}", d.rid)))?;
        match (&d.record, d.from_index, sscan_col) {
            (Some(rec), true, Some(col)) => {
                if rec[0] != row[col] {
                    return Err(SimFailure::contents(format!(
                        "{what}: index key tuple for {} is {:?}, shadow says {:?}",
                        d.rid, rec[0], row[col]
                    )));
                }
            }
            (Some(rec), false, _) => {
                for i in 0..NUM_COLS {
                    if rec[i] != row[i] {
                        return Err(SimFailure::contents(format!(
                            "{what}: record {} column {i} is {:?}, shadow says {:?}",
                            d.rid, rec[i], row[i]
                        )));
                    }
                }
            }
            // RID-only delivery (no record materialized): set membership
            // above is the whole check.
            (None, _, _) => {}
            (Some(_), true, None) => {
                return Err(SimFailure::contents(format!(
                    "{what}: from_index delivery but no self-sufficient index was offered"
                )));
            }
        }
    }
    Ok(())
}

/// Checks that delivered key-column values are non-decreasing — the order
/// contract of a forward index scan (Fscan/Sscan).
pub fn check_key_order(
    scenario: &Scenario,
    deliveries: &[Delivery],
    col: usize,
    what: &str,
) -> Result<(), SimFailure> {
    let by_rid: HashMap<Rid, &Vec<Value>> =
        scenario.shadow.iter().map(|(rid, row)| (*rid, row)).collect();
    let mut prev: Option<&Value> = None;
    for d in deliveries {
        let row = by_rid
            .get(&d.rid)
            .ok_or_else(|| SimFailure::row_set(format!("{what}: delivered unknown RID {}", d.rid)))?;
        let v = &row[col];
        if let Some(p) = prev {
            if p > v {
                return Err(SimFailure::order(format!(
                    "{what}: key order violated: {p:?} delivered before {v:?}"
                )));
            }
        }
        prev = Some(v);
    }
    Ok(())
}

/// Checks strictly increasing RID order — the order contract of a
/// sequential heap scan.
pub fn check_rid_order(deliveries: &[Delivery], what: &str) -> Result<(), SimFailure> {
    for pair in deliveries.windows(2) {
        if pair[0].rid >= pair[1].rid {
            return Err(SimFailure::order(format!(
                "{what}: physical order violated: {} before {}",
                pair[0].rid, pair[1].rid
            )));
        }
    }
    Ok(())
}
