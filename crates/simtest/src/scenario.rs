//! Seeded scenario generation: one `u64` seed determines the table shape,
//! the data distributions, the index set, and the query batch.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdb_btree::{BTree, KeyRange};
use rdb_core::request::{IndexChoice, OptimizeGoal, RecordPred, RetrievalRequest};
use rdb_storage::{
    shared_meter, shared_pool, Column, CostConfig, FileId, HeapTable, Record, Rid, Schema,
    SharedPool, Value, ValueType,
};
use rdb_workload::{ColumnSpec, TableGen};

/// Number of columns in every generated table.
pub const NUM_COLS: usize = 5;

/// One `lo <= col <= hi` conjunct (either bound optional). Comparisons
/// against NULL are false, matching SQL semantics and the B-tree's
/// NULL-sorts-first key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conjunct {
    /// Column position in the schema.
    pub col: usize,
    /// Inclusive lower bound, if any.
    pub lo: Option<i64>,
    /// Inclusive upper bound, if any.
    pub hi: Option<i64>,
}

impl Conjunct {
    /// Straight-line evaluation on one value.
    pub fn matches(&self, v: &Value) -> bool {
        match v {
            Value::Int(i) => {
                self.lo.is_none_or(|l| *i >= l) && self.hi.is_none_or(|h| *i <= h)
            }
            _ => false,
        }
    }

    /// The key range this conjunct binds to an index on its column.
    pub fn key_range(&self) -> KeyRange {
        match (self.lo, self.hi) {
            (Some(l), Some(h)) => KeyRange::closed(l, h),
            (Some(l), None) => KeyRange::at_least(l),
            (None, Some(h)) => KeyRange::at_most(h),
            (None, None) => KeyRange::all(),
        }
    }
}

/// One generated retrieval: a conjunction of range predicates plus the
/// request knobs the optimizer reacts to.
#[derive(Debug, Clone)]
pub struct Query {
    /// The conjuncts (ANDed).
    pub conjuncts: Vec<Conjunct>,
    /// Optimization goal.
    pub goal: OptimizeGoal,
    /// Row limit (models `LIMIT` / `EXISTS`).
    pub limit: Option<usize>,
}

impl Query {
    /// Straight-line evaluation of the full predicate on one row.
    pub fn matches_row(&self, row: &[Value]) -> bool {
        self.conjuncts.iter().all(|c| c.matches(&row[c.col]))
    }

    /// The predicate as a [`RecordPred`] for the executor.
    pub fn record_pred(&self) -> RecordPred {
        let conjuncts = self.conjuncts.clone();
        Arc::new(move |r: &Record| conjuncts.iter().all(|c| c.matches(&r[c.col])))
    }

    /// The conjunct restricting `col`, if any.
    pub fn conjunct_on(&self, col: usize) -> Option<&Conjunct> {
        self.conjuncts.iter().find(|c| c.col == col)
    }

    /// Short human description for failure messages.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .conjuncts
            .iter()
            .map(|c| format!("c{} in [{:?}, {:?}]", c.col, c.lo, c.hi))
            .collect();
        format!(
            "{} goal={:?} limit={:?}",
            parts.join(" AND "),
            self.goal,
            self.limit
        )
    }
}

/// One generated OR-connected retrieval: two range arms, each on an
/// indexed column, so the optimizer runs the union scan.
#[derive(Debug, Clone)]
pub struct OrQuery {
    /// The two disjuncts (ORed).
    pub arms: [Conjunct; 2],
    /// Optimization goal.
    pub goal: OptimizeGoal,
    /// Row limit (models `LIMIT` / `EXISTS`).
    pub limit: Option<usize>,
}

impl OrQuery {
    /// Straight-line evaluation of the disjunction on one row.
    pub fn matches_row(&self, row: &[Value]) -> bool {
        self.arms.iter().any(|c| c.matches(&row[c.col]))
    }

    /// Short human description for failure messages.
    pub fn describe(&self) -> String {
        let [a, b] = self.arms;
        format!(
            "c{} in [{:?}, {:?}] OR c{} in [{:?}, {:?}] goal={:?} limit={:?}",
            a.col, a.lo, a.hi, b.col, b.lo, b.hi, self.goal, self.limit
        )
    }
}

/// A fully materialized simulation world: table, indexes, shadow rows,
/// and the query batch — all derived from `seed`.
pub struct Scenario {
    /// The generating seed.
    pub seed: u64,
    /// The shared buffer pool (fault policies attach here).
    pub pool: SharedPool,
    /// The heap table under test.
    pub table: HeapTable,
    /// Secondary indexes.
    pub indexes: Vec<BTree>,
    /// Column indexed by each tree (parallel to `indexes`).
    pub index_cols: Vec<usize>,
    /// Shadow copy of every row, in insertion (= RID) order. This is the
    /// oracle's entire worldview.
    pub shadow: Vec<(Rid, Vec<Value>)>,
    /// The generated retrievals.
    pub queries: Vec<Query>,
    /// The generated OR-connected retrievals, drawn from a generator of
    /// their own so that adding them moved nothing else.
    pub or_queries: Vec<OrQuery>,
}

impl Scenario {
    /// Generates the scenario for `seed`. Same seed, same world.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed);
        let rows = rng.gen_range(150usize..=800);
        let a_dom = rng.gen_range(8i64..=200);
        let b_dom = rng.gen_range(10usize..=120);
        let theta = rng.gen_range(0.4f64..1.2);
        let run_len = rng.gen_range(20i64..=200);
        let d_dom = rng.gen_range(5i64..=80);
        let null_rate = rng.gen_range(0.2f64..0.7);
        let d_correlated = rng.gen_bool(0.4);

        let d_spec = if d_correlated {
            ColumnSpec::CorrelatedWith {
                of: 1,
                agreement: rng.gen_range(0.5f64..0.95),
                n: a_dom,
            }
        } else {
            ColumnSpec::Nullable {
                null_rate,
                inner: Box::new(ColumnSpec::Uniform { n: d_dom }),
            }
        };
        // Effective domain of column D for predicate generation.
        let d_eff_dom = if d_correlated { a_dom } else { d_dom };
        let domains: [i64; NUM_COLS] = [
            rows as i64,
            a_dom,
            b_dom as i64,
            rows as i64 / run_len + 1,
            d_eff_dom,
        ];

        let cost = shared_meter(CostConfig::default());
        let pool = shared_pool(100_000, cost);
        let mut table = HeapTable::with_page_bytes(
            "SIM",
            FileId(0),
            Schema::new(vec![
                Column::new("ID", ValueType::Int),
                Column::new("A", ValueType::Int),
                Column::new("B", ValueType::Int),
                Column::new("C", ValueType::Int),
                Column::nullable("D", ValueType::Int),
            ]),
            pool.clone(),
            1024,
        );

        // Index set: A always; B and D by coin toss (D may be NULL-heavy —
        // NULL keys sort first and fall outside every integer range).
        let mut index_cols = vec![1usize];
        if rng.gen_bool(0.7) {
            index_cols.push(2);
        }
        if rng.gen_bool(0.6) {
            index_cols.push(4);
        }
        let fanout = rng.gen_range(8usize..=48);
        let mut indexes: Vec<BTree> = index_cols
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                BTree::new(
                    format!("IDX_c{c}"),
                    FileId(1 + i as u32),
                    pool.clone(),
                    vec![c],
                    fanout,
                )
            })
            .collect();

        let mut generator = TableGen::new(
            vec![
                ColumnSpec::Serial,
                ColumnSpec::Uniform { n: a_dom },
                ColumnSpec::Zipf { n: b_dom, theta },
                ColumnSpec::Clustered {
                    run_length: run_len,
                },
                d_spec,
            ],
            seed,
        );
        let mut shadow: Vec<(Rid, Vec<Value>)> = Vec::with_capacity(rows);
        for _ in 0..rows {
            let row = generator.next_row();
            let rid = table
                .insert(Record::new(row.clone()))
                .expect("generated row fits schema");
            for (i, &c) in index_cols.iter().enumerate() {
                indexes[i].insert(vec![row[c].clone()], rid);
            }
            shadow.push((rid, row));
        }

        let queries = gen_queries(&mut rng, &index_cols, &domains);
        let mut or_rng = StdRng::seed_from_u64(seed ^ 0x4F52_5F41_524D_5331);
        let or_queries = gen_or_queries(&mut or_rng, &index_cols, &domains);
        Scenario {
            seed,
            pool,
            table,
            indexes,
            index_cols,
            shadow,
            queries,
            or_queries,
        }
    }

    /// Evicts every cached page so the next run starts cold.
    pub fn cold(&self) {
        self.pool.clear();
    }

    /// Position (in `indexes`) of the tree on `col`, if one exists.
    pub fn index_on(&self, col: usize) -> Option<usize> {
        self.index_cols.iter().position(|&c| c == col)
    }

    /// Builds the optimizer-facing request for `query`. Every index is
    /// offered; indexes without a conjunct get an unbounded range (the
    /// initial stage discards them as unselective). An index is marked
    /// self-sufficient when the whole predicate lives on its key column.
    pub fn request(&self, query: &Query) -> RetrievalRequest<'_> {
        let single_col = (query.conjuncts.len() == 1).then(|| query.conjuncts[0].col);
        let choices: Vec<IndexChoice<'_>> = self
            .indexes
            .iter()
            .zip(&self.index_cols)
            .map(|(tree, &col)| {
                let range = query
                    .conjunct_on(col)
                    .map(|c| c.key_range())
                    .unwrap_or_else(KeyRange::all);
                let mut choice = IndexChoice::fetch_needed(tree, range);
                if single_col == Some(col) {
                    let conj = query.conjuncts[0];
                    choice = choice
                        .with_self_sufficient(Arc::new(move |key: &[Value]| conj.matches(&key[0])));
                }
                choice
            })
            .collect();
        RetrievalRequest {
            table: &self.table,
            indexes: choices,
            arms: Vec::new(),
            residual: query.record_pred(),
            goal: query.goal,
            order_required: false,
            limit: query.limit,
            cost: self.pool.cost().clone(),
        }
    }

    /// Builds the optimizer-facing request for an OR query: each arm is
    /// the index on its column with the arm's key range, and no index is
    /// offered — what the SQL layer builds for an OR whose every disjunct
    /// binds to an index.
    pub fn or_request(&self, query: &OrQuery) -> RetrievalRequest<'_> {
        let arms = query.arms.map(|c| {
            let pos = self.index_on(c.col).expect("OR arms restrict indexed columns");
            (&self.indexes[pos], c.key_range())
        });
        let disjuncts = query.arms;
        RetrievalRequest {
            table: &self.table,
            indexes: Vec::new(),
            arms: arms.to_vec(),
            residual: Arc::new(move |r: &Record| disjuncts.iter().any(|c| c.matches(&r[c.col]))),
            goal: query.goal,
            order_required: false,
            limit: query.limit,
            cost: self.pool.cost().clone(),
        }
    }
}

fn gen_queries(rng: &mut StdRng, index_cols: &[usize], domains: &[i64; NUM_COLS]) -> Vec<Query> {
    let n = 6;
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        let two = rng.gen_bool(0.4);
        // Mostly hit indexed columns; sometimes the serial ID column,
        // which no index covers — forcing the pure-Tscan path.
        let first_col = if rng.gen_bool(0.8) {
            index_cols[rng.gen_range(0..index_cols.len())]
        } else {
            0
        };
        let mut conjuncts = vec![gen_conjunct(rng, first_col, domains[first_col])];
        if two {
            let others: Vec<usize> = (0..NUM_COLS).filter(|&c| c != first_col && c != 0).collect();
            let col = others[rng.gen_range(0..others.len())];
            conjuncts.push(gen_conjunct(rng, col, domains[col]));
        }
        let goal = if rng.gen_bool(0.35) {
            OptimizeGoal::FastFirst
        } else {
            OptimizeGoal::TotalTime
        };
        let limit = match rng.gen_range(0u32..10) {
            0..=5 => None,
            6..=7 => Some(1),
            _ => Some(5),
        };
        queries.push(Query {
            conjuncts,
            goal,
            limit,
        });
    }
    queries
}

fn gen_or_queries(
    rng: &mut StdRng,
    index_cols: &[usize],
    domains: &[i64; NUM_COLS],
) -> Vec<OrQuery> {
    (0..4)
        .map(|_| {
            let mut arm = || {
                let col = index_cols[rng.gen_range(0..index_cols.len())];
                gen_conjunct(rng, col, domains[col])
            };
            let arms = [arm(), arm()];
            let goal = if rng.gen_bool(0.35) {
                OptimizeGoal::FastFirst
            } else {
                OptimizeGoal::TotalTime
            };
            let limit = match rng.gen_range(0u32..10) {
                0..=6 => None,
                7..=8 => Some(1),
                _ => Some(5),
            };
            OrQuery { arms, goal, limit }
        })
        .collect()
}

fn gen_conjunct(rng: &mut StdRng, col: usize, dom: i64) -> Conjunct {
    let dom = dom.max(1);
    let v = rng.gen_range(0..dom);
    let (lo, hi) = match rng.gen_range(0u32..100) {
        // Point restriction.
        0..=14 => (Some(v), Some(v)),
        // Narrow range.
        15..=44 => (Some(v), Some(v + (dom / 10).clamp(1, 20))),
        // Wide range.
        45..=69 => (Some(v), Some(v + dom / 2)),
        // Half-open.
        70..=79 => (Some(v), None),
        80..=87 => (None, Some(v)),
        // Inverted (trivially empty: lo > hi).
        88..=93 => (Some(v + 10), Some(v)),
        // Beyond the domain (empty, but the estimator must discover it).
        _ => (Some(dom * 2), Some(dom * 2 + 5)),
    };
    Conjunct { col, lo, hi }
}
