//! The correctness oracle: expected answers computed from the generated
//! rows with hand-written Rust predicates, never through the engine, and
//! compared to what the engine returned as order-free digests.

use std::collections::HashSet;

use crate::engine::Value;
use crate::rng::mix;

/// Hash of one value. Ints and strings are the only types the workloads
/// generate; anything else folds to a constant, so a type the oracle does
/// not expect cannot match by accident of its payload.
fn hash_value(v: &Value) -> u64 {
    if let Some(i) = v.as_i64() {
        mix(i as u64 ^ 0x1)
    } else if let Some(s) = v.as_str() {
        s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    } else {
        0x5EED
    }
}

/// Hash of one row; column order matters, so a swapped projection fails.
pub fn hash_row(row: &[Value]) -> u64 {
    row.iter()
        .fold(0x9E37_79B9u64, |h, v| mix(h.rotate_left(5) ^ hash_value(v)))
}

/// Order-free digest of a bag of rows (count, wrapping sum and xor of the
/// row hashes): equal bags give equal digests whatever order the engine
/// delivered them in; a missing, extra or altered row changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    pub fn add(&mut self, row: &[Value]) {
        let h = hash_row(row);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }

    /// Takes back a row added earlier (the oracle's update and delete).
    pub fn remove(&mut self, row: &[Value]) {
        let h = hash_row(row);
        self.rows -= 1;
        self.sum = self.sum.wrapping_sub(h);
        self.xor ^= h;
    }

    pub fn of<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> Digest {
        let mut d = Digest::default();
        for r in rows {
            d.add(r);
        }
        d
    }

    /// A digest that no result matches.
    pub fn corrupted(mut self) -> Digest {
        self.xor ^= 1;
        self
    }
}

/// What a correct result looks like for one (statement, binding).
#[derive(Debug, Clone)]
pub enum Expect {
    /// The result's rows, as a bag. Also used for join pairs.
    Bag(Digest),
    /// `limit to n rows`, with or without `order by`: which rows come back
    /// is not unique (ties under the order key, or no order at all), so a
    /// correct result is `rows` distinct members of `allowed`; under an
    /// order, its key column (position, values) also reads `keys` in order.
    Prefix {
        rows: usize,
        allowed: HashSet<u64>,
        keys: Option<(usize, Vec<i64>)>,
    },
}

impl Expect {
    /// True when `rows`, as the engine returned them, are a correct result.
    pub fn accepts(&self, rows: &[Vec<Value>]) -> bool {
        match self {
            Expect::Bag(d) => Digest::of(rows) == *d,
            Expect::Prefix {
                rows: n,
                allowed,
                keys,
            } => {
                let mut seen = HashSet::with_capacity(rows.len());
                rows.len() == *n
                    && rows.iter().all(|row| {
                        let h = hash_row(row);
                        allowed.contains(&h) && seen.insert(h)
                    })
                    && keys.as_ref().is_none_or(|(pos, keys)| {
                        rows.iter()
                            .zip(keys)
                            .all(|(row, k)| row.get(*pos).and_then(Value::as_i64) == Some(*k))
                    })
            }
        }
    }

    /// Rows a correct result holds (load sanity, `query.exec.rows_per_op`).
    pub fn rows(&self) -> u64 {
        match self {
            Expect::Bag(d) => d.rows,
            Expect::Prefix { rows, .. } => *rows as u64,
        }
    }

    /// An expectation no result meets: how the tests check that a wrong
    /// answer is counted as a failure.
    pub fn corrupted(&self) -> Expect {
        match self {
            Expect::Bag(d) => Expect::Bag(d.corrupted()),
            Expect::Prefix { rows, keys, .. } => Expect::Prefix {
                rows: rows + 1,
                allowed: HashSet::new(),
                keys: keys.clone(),
            },
        }
    }
}

/// Builds the expectation for a statement limited to `limit` rows from
/// its qualifying rows (already projected, in any order); `order_key` is
/// the position of the `order by` column, if the statement has one.
pub fn prefix(mut qualifying: Vec<Vec<Value>>, limit: usize, order_key: Option<usize>) -> Expect {
    let rows = qualifying.len().min(limit);
    let Some(pos) = order_key else {
        return Expect::Prefix {
            rows,
            allowed: qualifying.iter().map(|r| hash_row(r)).collect(),
            keys: None,
        };
    };
    let key = |r: &Vec<Value>| r[pos].as_i64().expect("order keys are ints");
    qualifying.sort_by_key(key);
    let keys: Vec<i64> = qualifying.iter().take(limit).map(key).collect();
    let last = keys.last().copied();
    Expect::Prefix {
        rows,
        allowed: qualifying
            .iter()
            .take_while(|r| Some(key(r)) <= last)
            .map(|r| hash_row(r))
            .collect(),
        keys: Some((pos, keys)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn bag_digest_ignores_order_but_not_content() {
        let a = [row(&[1, 2]), row(&[3, 4]), row(&[3, 4])];
        let b = [row(&[3, 4]), row(&[1, 2]), row(&[3, 4])];
        assert_eq!(Digest::of(&a), Digest::of(&b));
        assert_ne!(Digest::of(&a), Digest::of(&a[..2]));
        assert_ne!(Digest::of(&[row(&[1, 2])]), Digest::of(&[row(&[2, 1])]));
        assert_ne!(Digest::of(&a), Digest::of(&a).corrupted());
        let mut d = Digest::of(&a);
        d.remove(&a[2]);
        assert_eq!(d, Digest::of(&a[..2]));
    }

    #[test]
    fn prefix_accepts_any_tie_order_only() {
        let rows = vec![row(&[1, 5]), row(&[2, 5]), row(&[3, 6]), row(&[4, 7])];
        let e = prefix(rows.clone(), 1, Some(1));
        assert!(e.accepts(&[row(&[1, 5])]));
        assert!(e.accepts(&[row(&[2, 5])]));
        assert!(!e.accepts(&[row(&[3, 6])]));
        assert!(!e.accepts(&[row(&[1, 5]), row(&[2, 5])]));
        assert!(!e.corrupted().accepts(&[row(&[1, 5])]));
        // Without an order any two distinct qualifying rows do.
        let e = prefix(rows, 2, None);
        assert!(e.accepts(&[row(&[4, 7]), row(&[1, 5])]));
        assert!(!e.accepts(&[row(&[4, 7]), row(&[4, 7])]));
        assert!(!e.accepts(&[row(&[4, 7])]));
    }
}
