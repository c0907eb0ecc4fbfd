//! The SQL front end against hostile and generated input.
//!
//! * Nesting is bounded: parentheses or `NOT`s nested past the parser's
//!   limit come back as a typed parse error instead of exhausting the
//!   stack, and ordinary nesting still parses.
//! * Round trip: a seeded generator builds statements from the grammar —
//!   projections, `count(*)`, two-table FROM, AND / OR / NOT / parentheses,
//!   BETWEEN, literals of every type, host variables, ORDER BY … DESC,
//!   LIMIT and OPTIMIZE FOR — and a renderer prints each one with random
//!   keyword case and spacing; parsing the text must give back the
//!   statement it was printed from.
//! * Robustness: byte-level mutations of those statements, and arbitrary
//!   byte strings, parse or fail with `QueryError::Parse` — never a panic.
//!
//! Every case count is fixed, so `cargo test` runs the same inputs every
//! time.

use rdb_query::parser::{parse_query, ParseErrorKind, QuerySpec, MAX_NESTING};
use rdb_query::prelude::*;
use rdb_query::{CmpOp, Expr, Scalar};

fn too_deep(sql: &str) -> bool {
    matches!(parse_query(sql), Err(QueryError::Parse(e)) if e.kind == ParseErrorKind::TooDeep)
}

#[test]
fn nesting_past_the_limit_is_a_parse_error() {
    let parens = 100_000;
    let sql = format!(
        "select * from T where {}a = 1{}",
        "(".repeat(parens),
        ")".repeat(parens)
    );
    assert!(too_deep(&sql), "100 000 parentheses");
    let sql = format!("select * from T where {}a = 1", "not ".repeat(100_000));
    assert!(too_deep(&sql), "100 000 NOTs");

    let nested = |depth: usize| {
        format!(
            "select * from T where {}a = 1{}",
            "(not ".repeat(depth / 2),
            ")".repeat(depth / 2)
        )
    };
    assert!(parse_query(&nested(100)).is_ok(), "100 levels parse");
    assert!(
        parse_query(&nested(MAX_NESTING)).is_ok(),
        "the limit itself parses"
    );
    assert!(too_deep(&nested(MAX_NESTING + 2)));
}

/// The generator's random source (an LCG: the cases are fixed by seed).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

const KEYWORDS: [&str; 22] = [
    "select", "from", "where", "and", "or", "not", "between", "order", "by", "asc", "desc",
    "limit", "to", "rows", "row", "optimize", "for", "fast", "first", "total", "time", "count",
];

/// A name the lexer reads as one identifier and the parser as no keyword:
/// a letter or `_` first, then letters, digits and `_` (some non-ASCII).
fn ident(rng: &mut Rng) -> String {
    const FIRST: [char; 8] = ['A', 'g', 'Z', '_', 'x', 'é', 'Ж', 'q'];
    const REST: [char; 10] = ['a', 'B', '0', '7', '_', 'Q', 'ß', '9', 'k', 'Ω'];
    loop {
        let mut name = String::new();
        name.push(*rng.pick(&FIRST));
        for _ in 0..rng.below(6) {
            name.push(*rng.pick(&REST));
        }
        if !KEYWORDS.iter().any(|kw| name.eq_ignore_ascii_case(kw)) {
            return name;
        }
    }
}

/// A column reference, sometimes table-qualified.
fn column(rng: &mut Rng) -> String {
    if rng.chance(3) {
        format!("{}.{}", ident(rng), ident(rng))
    } else {
        ident(rng)
    }
}

fn scalar(rng: &mut Rng) -> Scalar {
    match rng.below(5) {
        0 => Scalar::HostVar(match rng.below(3) {
            0 => "1st".to_string(),
            _ => ident(rng),
        }),
        1 => Scalar::Literal(Value::Int(match rng.below(4) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.next() as i64 - (1 << 30),
        })),
        2 => Scalar::Literal(Value::Float((rng.next() as i64 - (1 << 30)) as f64 / 4.0)),
        _ => {
            const CHARS: [char; 10] = ['a', ' ', 'Z', '9', ';', '(', '"', 'ü', '-', ':'];
            Scalar::Literal(Value::Str(
                (0..rng.below(8)).map(|_| *rng.pick(&CHARS)).collect(),
            ))
        }
    }
}

fn op(rng: &mut Rng) -> CmpOp {
    *rng.pick(&[
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

/// A restriction as the parser builds it: AND / OR lists of two or more.
fn expr(rng: &mut Rng, depth: u32) -> Expr {
    match if depth == 0 {
        rng.below(3)
    } else {
        rng.below(6)
    } {
        0 => Expr::Cmp {
            column: column(rng),
            op: op(rng),
            rhs: scalar(rng),
        },
        1 => Expr::Between {
            column: column(rng),
            lo: scalar(rng),
            hi: scalar(rng),
        },
        2 => Expr::ColCmp {
            left: column(rng),
            op: op(rng),
            right: column(rng),
        },
        3 => Expr::And(
            (0..2 + rng.below(3))
                .map(|_| expr(rng, depth - 1))
                .collect(),
        ),
        4 => Expr::Or(
            (0..2 + rng.below(3))
                .map(|_| expr(rng, depth - 1))
                .collect(),
        ),
        _ => Expr::Not(Box::new(expr(rng, depth - 1))),
    }
}

fn statement(rng: &mut Rng) -> QuerySpec {
    let count_star = rng.chance(5);
    let projection = (!count_star && rng.chance(2))
        .then(|| (0..1 + rng.below(4)).map(|_| column(rng)).collect());
    let order_by = rng.chance(2).then(|| column(rng));
    QuerySpec {
        count_star,
        projection,
        table: ident(rng),
        join_table: rng.chance(3).then(|| ident(rng)),
        predicate: if rng.chance(4) {
            Expr::True
        } else {
            expr(rng, 3)
        },
        order_desc: order_by.is_some() && rng.chance(2),
        order_by,
        limit: rng.chance(3).then(|| rng.below(1000) as usize),
        goal: match rng.below(3) {
            0 => Some(OptimizeGoal::FastFirst),
            1 => Some(OptimizeGoal::TotalTime),
            _ => None,
        },
    }
}

/// Prints a statement token by token, keywords in random case, tokens
/// apart by random whitespace.
struct Renderer<'r> {
    rng: &'r mut Rng,
    out: String,
}

impl Renderer<'_> {
    fn token(&mut self, text: &str) {
        if !self.out.is_empty() {
            for _ in 0..1 + self.rng.below(2) {
                self.out.push(*self.rng.pick(&[' ', ' ', '\t', '\n']));
            }
        }
        self.out.push_str(text);
    }

    fn keyword(&mut self, kw: &str) {
        let cased: String = kw
            .chars()
            .map(|c| {
                if self.rng.chance(2) {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect();
        self.token(&cased);
    }

    fn scalar(&mut self, s: &Scalar) {
        match s {
            Scalar::HostVar(name) => self.token(&format!(":{name}")),
            Scalar::Literal(Value::Int(v)) => self.token(&v.to_string()),
            Scalar::Literal(Value::Float(v)) => self.token(&format!("{v:?}")),
            Scalar::Literal(Value::Str(s)) => self.token(&format!("'{s}'")),
            Scalar::Literal(other) => panic!("the generator makes no {other:?}"),
        }
    }

    fn expr(&mut self, e: &Expr) {
        let operand = |r: &mut Self, e: &Expr| {
            let group = matches!(e, Expr::And(_) | Expr::Or(_));
            if group {
                r.token("(");
            }
            r.expr(e);
            if group {
                r.token(")");
            }
        };
        match e {
            Expr::True => {}
            Expr::Cmp { column, op, rhs } => {
                self.token(column);
                self.token(&op.to_string());
                self.scalar(rhs);
            }
            Expr::Between { column, lo, hi } => {
                self.token(column);
                self.keyword("between");
                self.scalar(lo);
                self.keyword("and");
                self.scalar(hi);
            }
            Expr::ColCmp { left, op, right } => {
                self.token(left);
                self.token(&op.to_string());
                self.token(right);
            }
            Expr::And(parts) | Expr::Or(parts) => {
                let joiner = if matches!(e, Expr::And(_)) {
                    "and"
                } else {
                    "or"
                };
                for (i, part) in parts.iter().enumerate() {
                    if i > 0 {
                        self.keyword(joiner);
                    }
                    operand(self, part);
                }
            }
            Expr::Not(inner) => {
                self.keyword("not");
                operand(self, inner);
            }
        }
    }

    fn statement(mut self, q: &QuerySpec) -> String {
        self.keyword("select");
        if q.count_star {
            self.keyword("count");
            for t in ["(", "*", ")"] {
                self.token(t);
            }
        } else {
            match &q.projection {
                None => self.token("*"),
                Some(cols) => {
                    for (i, c) in cols.iter().enumerate() {
                        if i > 0 {
                            self.token(",");
                        }
                        self.token(c);
                    }
                }
            }
        }
        self.keyword("from");
        self.token(&q.table);
        if let Some(right) = &q.join_table {
            self.token(",");
            self.token(right);
        }
        if q.predicate != Expr::True {
            self.keyword("where");
            self.expr(&q.predicate);
        }
        if let Some(col) = &q.order_by {
            self.keyword("order");
            self.keyword("by");
            self.token(col);
            if q.order_desc {
                self.keyword("desc");
            } else if self.rng.chance(2) {
                self.keyword("asc");
            }
        }
        if let Some(n) = q.limit {
            self.keyword("limit");
            if self.rng.chance(2) {
                self.keyword("to");
            }
            self.token(&n.to_string());
            match self.rng.below(3) {
                0 => self.keyword("rows"),
                1 => self.keyword("row"),
                _ => {}
            }
        }
        match q.goal {
            Some(OptimizeGoal::FastFirst) => {
                for kw in ["optimize", "for", "fast", "first"] {
                    self.keyword(kw);
                }
            }
            Some(OptimizeGoal::TotalTime) => {
                for kw in ["optimize", "for", "total", "time"] {
                    self.keyword(kw);
                }
            }
            None => {}
        }
        if self.rng.chance(2) {
            self.token(";");
        }
        self.out
    }
}

fn render(rng: &mut Rng, q: &QuerySpec) -> String {
    Renderer {
        rng,
        out: String::new(),
    }
    .statement(q)
}

/// Parses `bytes` (lossily decoded), which must succeed or fail with a
/// typed parse error.
fn parses_or_fails_typed(bytes: &[u8]) {
    let sql = String::from_utf8_lossy(bytes);
    match parse_query(&sql) {
        Ok(_) | Err(QueryError::Parse(_)) => {}
        Err(other) => panic!("{sql:?} failed untyped: {other:?}"),
    }
}

const STATEMENTS: u64 = 2_000;

#[test]
fn generated_statements_round_trip() {
    for seed in 0..STATEMENTS {
        let mut rng = Rng(seed);
        let spec = statement(&mut rng);
        let sql = render(&mut rng, &spec);
        match parse_query(&sql) {
            Ok(parsed) => assert_eq!(parsed, spec, "seed {seed}: {sql}"),
            Err(e) => panic!("seed {seed}: {sql}: {e}"),
        }
    }
}

#[test]
fn mutated_and_arbitrary_input_fails_typed() {
    for seed in 0..STATEMENTS {
        let mut rng = Rng(seed);
        let spec = statement(&mut rng);
        let sql = render(&mut rng, &spec).into_bytes();
        for _ in 0..8 {
            let mut bytes = sql.clone();
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            match rng.below(5) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                2 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                3 => bytes.insert(at, *rng.pick(b"()'.:-*,;<>=9 aZ\xff")),
                _ => {
                    let tail = bytes[at..].to_vec();
                    bytes.extend_from_slice(&tail);
                }
            }
            parses_or_fails_typed(&bytes);
        }
        let noise: Vec<u8> = (0..rng.below(64)).map(|_| rng.next() as u8).collect();
        parses_or_fails_typed(&noise);
    }
}
