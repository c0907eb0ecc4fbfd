//! `join-race`: two-table statements whose work is the join competition
//! (seven candidate methods, kill rules, hash / index-nested / merge-RID),
//! in the three key modes of the `join_methods` mechanism bench: foreign
//! keys uniform over the parents, quadratically skewed toward the low
//! keys, and a left residual that keeps one parent in sixteen.

use crate::engine::*;
use crate::oracle::{Digest, Expect};
use crate::probes::ProbeSpec;
use crate::rng::{mix, Rng};
use crate::workloads::read::Workload;
use crate::workloads::{script, Built, ClassSpec, Mode};
use crate::Config;

const PARENTS: usize = 2_000;
const CHILDREN_PER_PARENT: usize = 4;
const PAGE_BYTES: usize = 2048;
/// Smaller than the heaps plus indexes, so every method races while
/// evicting.
const POOL_PAGES: usize = 128;
const KINDS: i64 = 16;
const X_DOMAIN: i64 = 32;

/// PARENT(ID serial, KIND = ID mod 16) and CHILD(FK, X in 0..32).
struct Pair {
    parent_kind: Vec<i64>,
    children: Vec<(i64, i64)>,
}

/// The child rows are the same bag for every seed (every parent exactly
/// four children when uniform; the quadratic of an even grid when skewed),
/// so join sizes do not move with the seed; the seed sets their physical
/// order, and with it which pages each method touches when.
fn generate(cfg: &Config, skewed: bool) -> Pair {
    let parents = cfg.scaled(PARENTS);
    let n = parents * CHILDREN_PER_PARENT;
    let mut children: Vec<(i64, i64)> = (0..n)
        .map(|j| {
            let fk = if skewed {
                let u = (j as f64 + 0.5) / n as f64;
                (u * u * parents as f64) as usize
            } else {
                j % parents
            };
            (fk as i64, (mix(j as u64) % X_DOMAIN as u64) as i64)
        })
        .collect();
    Rng::new(cfg.seed, if skewed { 2 } else { 1 }).shuffle(&mut children);
    Pair {
        parent_kind: (0..parents as i64).map(|i| i % KINDS).collect(),
        children,
    }
}

fn load(db: &mut Db, suffix: &str, pair: &Pair) -> Result<(), QueryError> {
    let (parent, child) = (format!("PARENT_{suffix}"), format!("CHILD_{suffix}"));
    let ints =
        |names: [&str; 2]| Schema::new(names.map(|n| Column::new(n, ValueType::Int)).to_vec());
    db.create_table(&parent, ints(["ID", "KIND"]))?;
    db.create_table(&child, ints(["FK", "X"]))?;
    for (id, kind) in pair.parent_kind.iter().enumerate() {
        db.insert(&parent, vec![Value::Int(id as i64), Value::Int(*kind)])?;
    }
    for (fk, x) in &pair.children {
        db.insert(&child, vec![Value::Int(*fk), Value::Int(*x)])?;
    }
    db.create_index(format!("IDX_P{suffix}"), &parent, &["ID"])?;
    db.create_index(format!("IDX_C{suffix}"), &child, &["FK"])?;
    Ok(())
}

/// One join statement with the oracle's reading of its residuals:
/// `pred(kind of the parent, x of the child, binding)`.
struct Shape {
    sql: &'static str,
    vars: &'static [&'static str],
    skewed: bool,
    pred: fn(i64, i64, &[i64]) -> bool,
}

const BOTH_SIDES: Shape = Shape {
    sql: "select ID, X from PARENT_U, CHILD_U where ID = FK and KIND = :K and X >= :X0",
    vars: &["K", "X0"],
    skewed: false,
    pred: |kind, x, b| kind == b[0] && x >= b[1],
};
const SELECTIVE_LEFT: Shape = Shape {
    sql: "select ID, X from PARENT_U, CHILD_U where ID = FK and KIND = :K",
    vars: &["K"],
    skewed: false,
    pred: |kind, _, b| kind == b[0],
};
const UNIFORM_RIGHT: Shape = Shape {
    sql: "select ID, X from PARENT_U, CHILD_U where ID = FK and X >= :X0",
    vars: &["X0"],
    skewed: false,
    pred: |_, x, b| x >= b[0],
};
const SKEWED_RIGHT: Shape = Shape {
    sql: "select ID, X from PARENT_S, CHILD_S where ID = FK and X >= :X0",
    vars: &["X0"],
    skewed: true,
    pred: |_, x, b| x >= b[0],
};

struct MixClass {
    name: &'static str,
    shape: &'static Shape,
    /// Per mille of every pass.
    share: u32,
    grid: fn() -> Vec<Vec<i64>>,
}

/// The lightest class (both sides restricted) holds the median; the
/// unrestricted join, every pair delivered, alone holds the top 2.4 %.
const MIX: &[MixClass] = &[
    MixClass {
        name: "both-sides",
        shape: &BOTH_SIDES,
        share: 600,
        grid: || {
            (0..KINDS)
                .step_by(3)
                .take(5)
                .flat_map(|k| (24..29).map(move |x0| vec![k, x0]))
                .collect()
        },
    },
    MixClass {
        name: "selective-left",
        shape: &SELECTIVE_LEFT,
        share: 128,
        grid: || (0..KINDS).map(|k| vec![k]).collect(),
    },
    MixClass {
        name: "uniform-fk",
        shape: &UNIFORM_RIGHT,
        share: 120,
        grid: || (16..31).map(|x0| vec![x0]).collect(),
    },
    MixClass {
        name: "skewed-fk",
        shape: &SKEWED_RIGHT,
        share: 128,
        grid: || (16..X_DOMAIN).map(|x0| vec![x0]).collect(),
    },
    MixClass {
        name: "full-join",
        shape: &UNIFORM_RIGHT,
        share: 24,
        grid: || vec![vec![0], vec![1], vec![2]],
    },
];

const OPS_PER_PASS: usize = 125;

fn expect(shape: &Shape, binding: &[i64], pair: &Pair) -> Expect {
    let mut d = Digest::default();
    for (fk, x) in &pair.children {
        // IDs are 0..parents, so the matching parent is the one at `fk`.
        if let Some(kind) = pair.parent_kind.get(*fk as usize) {
            if (shape.pred)(*kind, *x, binding) {
                d.add(&[Value::Int(*fk), Value::Int(*x)]);
            }
        }
    }
    Expect::Bag(d)
}

pub fn workload(cfg: &Config) -> Workload {
    let uniform = generate(cfg, false);
    let skewed = generate(cfg, true);
    let specs: Vec<ClassSpec<'_>> = MIX
        .iter()
        .map(|class| {
            let pair = if class.shape.skewed {
                &skewed
            } else {
                &uniform
            };
            ClassSpec {
                name: class.name,
                sql: class.shape.sql,
                vars: class.shape.vars,
                share: class.share,
                grid: (class.grid)(),
                expect: Box::new(move |binding| expect(class.shape, binding, pair)),
            }
        })
        .collect();
    let plan = script(cfg.seed, Mode::Prepared, 1, OPS_PER_PASS, &specs);

    let parents = uniform.parent_kind.len() as i64;
    let build_cfg = cfg.clone();
    Workload {
        name: "join-race",
        plan,
        build: Box::new(move || {
            let mut db = Db::builder()
                .page_bytes(PAGE_BYTES)
                .pool_pages(POOL_PAGES)
                .open()
                .map_err(|e| e.to_string())?;
            load(&mut db, "U", &generate(&build_cfg, false)).map_err(|e| e.to_string())?;
            load(&mut db, "S", &generate(&build_cfg, true)).map_err(|e| e.to_string())?;
            Ok(Built { db, dir: None })
        }),
        // The child foreign-key index the index-nested and merge methods
        // walk: single keys and key runs.
        probes: ProbeSpec {
            table: "CHILD_U",
            index: "IDX_CU",
            ranges: (0..10)
                .map(|i| KeyRange::eq(i * parents / 10))
                .chain((0..10).map(|i| KeyRange::closed(i * parents / 10, i * parents / 10 + 20)))
                .collect(),
            strategies: Vec::new(),
        },
    }
}
