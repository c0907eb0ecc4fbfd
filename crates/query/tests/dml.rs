//! DML through the optimizer: `update_where` / `delete_where` locate their
//! victims with the table's indexes offered, like a query, then rewrite
//! them in RID order.
//!
//! * A Halloween test: rewriting the very column an index range was
//!   located through changes each matched row exactly once.
//! * A differential property test over random restrictions (equality,
//!   ranges, BETWEEN, AND, OR, a column no index covers, host variables)
//!   against a shadow table: the rows affected and the table after every
//!   statement match, and every index scan equals the heap.
//! * A traced `delete_where` over a tiny indexed range names a winner
//!   that is not a table scan.
//! * An index covering every column answers DML index-only, its key
//!   tuples reordered into whole records.

use proptest::prelude::*;
use rdb_core::{TraceBuffer, TraceEvent};
use rdb_query::parser::parse_query;
use rdb_query::prelude::*;
use rdb_query::Expr;
use rdb_storage::Rid;

/// T(ID, A, B, C): IDX_A on A, IDX_B_A on (B, A); C has no index.
fn table(rows: i64) -> Db {
    let mut db = Db::builder().page_bytes(512).open().unwrap();
    db.create_table(
        "T",
        Schema::new(vec![
            Column::new("ID", ValueType::Int),
            Column::new("A", ValueType::Int),
            Column::new("B", ValueType::Int),
            Column::new("C", ValueType::Int),
        ]),
    )
    .unwrap();
    for id in 0..rows {
        db.insert("T", row(id, id * 7 % 50, id % 6, id % 9))
            .unwrap();
    }
    db.create_index("IDX_A", "T", &["A"]).unwrap();
    db.create_index("IDX_B_A", "T", &["B", "A"]).unwrap();
    db
}

fn row(id: i64, a: i64, b: i64, c: i64) -> Vec<Value> {
    vec![Value::Int(id), Value::Int(a), Value::Int(b), Value::Int(c)]
}

fn restriction(sql: &str) -> Expr {
    parse_query(&format!("select * from T where {sql}"))
        .unwrap()
        .predicate
}

/// Asserts that every index of `table` holds exactly one entry per live
/// row, keyed by that row's values: the scan of each index, in full
/// order, equals the heap's rows mapped to `(key, rid)` and sorted.
fn assert_indexes_match_heap(db: &Db, table: &str) {
    let heap = db.heap(table).unwrap();
    let mut rows: Vec<(Rid, Vec<Value>)> = Vec::new();
    let mut scan = heap.scan();
    while let Some((rid, record)) = scan.next(heap, db.cost()).unwrap() {
        rows.push((rid, record.into_values()));
    }
    for tree in db.indexes(table).unwrap() {
        let mut expect: Vec<(Vec<Value>, Rid)> = rows
            .iter()
            .map(|(rid, values)| {
                let key = tree
                    .key_columns()
                    .iter()
                    .map(|&c| values[c].clone())
                    .collect();
                (key, *rid)
            })
            .collect();
        expect.sort();
        let got = tree.range_to_vec(rdb_btree::KeyRange::all(), db.cost());
        assert_eq!(got, expect, "{} disagrees with the heap", tree.name());
        tree.check_invariants();
    }
}

/// The tactic and the winner a traced statement announced.
fn decisions(buffer: &TraceBuffer) -> (String, String) {
    let events = buffer.take();
    let tactic = events.iter().find_map(|e| match e {
        TraceEvent::TacticChosen { tactic, .. } => Some(tactic.clone()),
        _ => None,
    });
    let winner = events.iter().find_map(|e| match e {
        TraceEvent::Winner { strategy, .. } => Some(strategy.clone()),
        _ => None,
    });
    (
        tactic.expect("tactic-chosen event"),
        winner.expect("winner event"),
    )
}

/// Rewriting the column the victims were found through: each matched row
/// is changed once — the located RIDs are materialised before the first
/// write, so re-inserted entries landing back inside the scanned range are
/// never revisited — and IDX_A stays consistent with the heap.
#[test]
fn updating_the_located_column_rewrites_each_match_once() {
    let mut db = table(600);
    let matched = |db: &Db, sql: &str| db.query(sql, &QueryOptions::new()).unwrap().rows.len();
    let buffer = TraceBuffer::shared(4096);
    let opts = QueryOptions::new()
        .with_param("A", 7i64)
        .with_trace(buffer.clone());

    // Same value: every rewritten entry re-enters the range it came from.
    let before = matched(&db, "select * from T where A = 7");
    assert!(before > 0);
    let n = db
        .update_where("T", "A", Value::Int(7), &restriction("A = :A"), &opts)
        .unwrap();
    assert_eq!(n, before);
    assert_ne!(
        decisions(&buffer).0,
        "TscanOnly",
        "the victims came through IDX_A"
    );
    assert_eq!(matched(&db, "select * from T where A = 7"), before);
    assert_eq!(db.row_count("T"), Some(600));
    assert_indexes_match_heap(&db, "T");

    // A larger value: every rewritten entry lands ahead of an ascending
    // range scan over A >= :A.
    let at_least = matched(&db, "select * from T where A >= 45");
    let opts = QueryOptions::new().with_param("A", 45i64);
    let n = db
        .update_where("T", "A", Value::Int(49), &restriction("A >= :A"), &opts)
        .unwrap();
    assert_eq!(n, at_least);
    assert_eq!(matched(&db, "select * from T where A = 49"), at_least);
    assert_eq!(matched(&db, "select * from T where A >= 45"), at_least);
    assert_indexes_match_heap(&db, "T");
}

#[test]
fn traced_delete_of_a_tiny_indexed_range_is_not_a_table_scan() {
    let mut db = table(2000);
    let buffer = TraceBuffer::shared(4096);
    let opts = QueryOptions::new()
        .with_param("A", 13i64)
        .with_param("B", 1i64)
        .with_trace(buffer.clone());
    let expect = db
        .query(
            "select * from T where B = 1 and A = 13",
            &QueryOptions::new(),
        )
        .unwrap()
        .rows
        .len();
    assert!(expect > 0 && expect < 20, "tiny range: {expect} rows");
    let n = db
        .delete_where("T", &restriction("B = :B and A = :A"), &opts)
        .unwrap();
    assert_eq!(n, expect);
    let (tactic, winner) = decisions(&buffer);
    assert_ne!(tactic, "TscanOnly");
    assert!(!winner.to_lowercase().contains("tscan"), "winner {winner}");
    assert_indexes_match_heap(&db, "T");
}

/// Victims are located with their full records: an index is offered
/// index-only only when its key covers every column, and then its key
/// tuple — here `(A, ID)` — is reordered into the schema's `(ID, A)`, so the
/// rewrite keeps each row's ID and index maintenance finds every entry.
#[test]
fn a_covering_index_supplies_whole_victim_records() {
    let mut db = Db::builder().page_bytes(512).open().unwrap();
    let schema = Schema::new(vec![
        Column::new("ID", ValueType::Int),
        Column::new("A", ValueType::Int),
    ]);
    db.create_table("P", schema).unwrap();
    for id in 0..2000 {
        db.insert("P", vec![Value::Int(id), Value::Int(id % 100)])
            .unwrap();
    }
    db.create_index("IDX_A_ID", "P", &["A", "ID"]).unwrap();
    let buffer = TraceBuffer::shared(4096);
    let opts = QueryOptions::new().with_trace(buffer.clone());

    let n = db
        .update_where("P", "A", Value::Int(50), &restriction("A >= 60"), &opts)
        .unwrap();
    assert_eq!(n, 800);
    assert_eq!(decisions(&buffer).0, "SscanStatic");
    let n = db
        .delete_where("P", &restriction("A < 20"), &opts)
        .unwrap();
    assert_eq!(n, 400);
    assert_eq!(decisions(&buffer).0, "SscanStatic");

    let mut got: Vec<(i64, i64)> = db
        .query("select ID, A from P", &QueryOptions::new())
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    got.sort_unstable();
    let want: Vec<(i64, i64)> = (0..2000)
        .map(|id| (id, if id % 100 >= 60 { 50 } else { id % 100 }))
        .filter(|&(_, a)| a >= 20)
        .collect();
    assert_eq!(got, want);
    assert_indexes_match_heap(&db, "P");
}

/// One restriction term, with its host variables numbered on rendering.
#[derive(Debug, Clone)]
enum Pred {
    Cmp(usize, &'static str, i64),
    Between(usize, i64, i64),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
}

const COLUMNS: [&str; 4] = ["ID", "A", "B", "C"];

impl Pred {
    /// SQL text; every third literal becomes a host variable, bound in
    /// `opts`.
    fn render(&self, opts: &mut QueryOptions, vars: &mut usize) -> String {
        let mut operand = |v: i64, opts: &mut QueryOptions| {
            *vars += 1;
            if vars.is_multiple_of(3) {
                let name = format!("V{vars}");
                *opts = opts.clone().with_param(&name, v);
                format!(":{name}")
            } else {
                v.to_string()
            }
        };
        match self {
            Pred::Cmp(c, op, v) => format!("{} {op} {}", COLUMNS[*c], operand(*v, opts)),
            Pred::Between(c, lo, hi) => {
                let (lo, hi) = (operand(*lo, opts), operand(*hi, opts));
                format!("{} between {lo} and {hi}", COLUMNS[*c])
            }
            Pred::And(l, r) => format!("({}) and ({})", l.render(opts, vars), r.render(opts, vars)),
            Pred::Or(l, r) => format!("({}) or ({})", l.render(opts, vars), r.render(opts, vars)),
        }
    }

    fn eval(&self, row: &[i64; 4]) -> bool {
        match self {
            Pred::Cmp(c, op, v) => {
                let x = row[*c];
                match *op {
                    "=" => x == *v,
                    "<" => x < *v,
                    "<=" => x <= *v,
                    ">" => x > *v,
                    _ => x >= *v,
                }
            }
            Pred::Between(c, lo, hi) => (*lo..=*hi).contains(&row[*c]),
            Pred::And(l, r) => l.eval(row) && r.eval(row),
            Pred::Or(l, r) => l.eval(row) || r.eval(row),
        }
    }
}

/// A small seeded generator for restrictions and statements.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }

    fn value(&mut self, column: usize) -> i64 {
        let domain = [700, 50, 6, 9][column];
        self.below(domain + 2) as i64 - 1
    }

    fn pred(&mut self, depth: u32) -> Pred {
        let column = self.below(4) as usize;
        match self.below(if depth == 0 { 2 } else { 4 }) {
            0 => {
                let op = ["=", "=", "<", "<=", ">", ">="][self.below(6) as usize];
                Pred::Cmp(column, op, self.value(column))
            }
            1 => {
                let lo = self.value(column);
                Pred::Between(column, lo, lo + self.below(5) as i64)
            }
            2 => Pred::And(
                Box::new(self.pred(depth - 1)),
                Box::new(self.pred(depth - 1)),
            ),
            _ => Pred::Or(
                Box::new(self.pred(depth - 1)),
                Box::new(self.pred(depth - 1)),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DML against a shadow table: the count each statement
    /// reports, the table after it and every index agree with the shadow.
    #[test]
    fn dml_matches_a_shadow_table(seed in any::<u64>()) {
        let rows = 400;
        let mut db = table(rows);
        let mut shadow: Vec<[i64; 4]> = (0..rows).map(|id| [id, id * 7 % 50, id % 6, id % 9]).collect();
        let mut next_id = rows;
        let mut gen = Gen(seed | 1);
        for _ in 0..12 {
            let pred = gen.pred(2);
            let mut opts = QueryOptions::new();
            let sql = pred.render(&mut opts, &mut 0);
            let expr = restriction(&sql);
            let hits = shadow.iter().filter(|r| pred.eval(r)).count();
            match gen.below(3) {
                0 => {
                    let n = db.delete_where("T", &expr, &opts).unwrap();
                    prop_assert_eq!(n, hits, "delete where {}", sql);
                    shadow.retain(|r| !pred.eval(r));
                }
                1 => {
                    let column = 1 + gen.below(3) as usize;
                    let value = gen.value(column);
                    let set = COLUMNS[column];
                    let n = db.update_where("T", set, Value::Int(value), &expr, &opts).unwrap();
                    prop_assert_eq!(n, hits, "update {} where {}", set, sql);
                    for r in shadow.iter_mut().filter(|r| pred.eval(r)) {
                        r[column] = value;
                    }
                }
                _ => {
                    for _ in 0..1 + gen.below(20) {
                        let r = [next_id, gen.value(1), gen.value(2), gen.value(3)];
                        db.insert("T", row(r[0], r[1], r[2], r[3])).unwrap();
                        shadow.push(r);
                        next_id += 1;
                    }
                }
            }
            let mut got: Vec<[i64; 4]> = db
                .query("select * from T", &QueryOptions::new())
                .unwrap()
                .rows
                .iter()
                .map(|r| [0, 1, 2, 3].map(|c| r[c].as_i64().unwrap()))
                .collect();
            got.sort_unstable();
            let mut want = shadow.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want, "after {}", sql);
            assert_indexes_match_heap(&db, "T");
        }
    }
}
