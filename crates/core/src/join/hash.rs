//! Build/probe hash join, spill-free: the build side streams through the
//! buffer pool into an in-memory arena chained by the canonical join-key
//! hash; the probe side then streams once, probing the arena.
//!
//! Equality is decided by [`Value`]'s `Ord` (`cmp == Equal`), never by
//! the hash alone — [`super::join_key_hash`] is consistent with that
//! order (Int/Float coerce identically), so a chain hit is a candidate,
//! not a match. NULL join keys are skipped on both sides, matching SQL
//! semantics.
//!
//! Rows are decoded once, into a scratch record. A build row that passes
//! its NULL-key and residual checks has its values moved onto the end of
//! one flat value arena, so the build phase allocates per arena growth,
//! not per row; a probe row is looked at in place, and a pair it forms
//! copies only its output columns. One work unit of [`JoinScan::step`] is
//! one build or probe row; a probe row's chain walk is the atomic part.

use rdb_storage::{HeapScan, Record, Rid, StorageError, Value};

use super::nested::{push_if_match, JoinScan, JoinStepOutcome};
use super::{join_key_hash, JoinPair, JoinRequest, JoinSide, SideId};

enum Phase {
    /// Streaming the build side into the arena.
    Build(HeapScan),
    /// Streaming the probe side against the arena.
    Probe(HeapScan),
    Done,
}

/// End of a hash chain.
const NIL: u32 = u32::MAX;

/// One surviving build row, linked to the next row of its chain; its
/// values are `values[start..end]` of the scan's value arena.
struct BuildRow {
    hash: u64,
    next: u32,
    rid: Rid,
    start: usize,
    end: usize,
}

/// The hash-join candidate. `build` names the side held in memory.
pub struct HashJoinScan<'a, 'r> {
    req: &'r JoinRequest<'a>,
    build: SideId,
    phase: Phase,
    /// The row under the cursor, decoded in place.
    scratch: Record,
    /// Build rows that passed the residual and have a non-NULL join key,
    /// in scan order.
    arena: Vec<BuildRow>,
    /// The build rows' values, back to back in arena order.
    values: Vec<Value>,
    /// Chain heads into the arena, a power-of-two table indexed by the
    /// top bits of the canonical hash; linked when the build phase ends,
    /// each chain in arena order.
    heads: Vec<u32>,
    pairs: Vec<JoinPair>,
}

impl<'a, 'r> HashJoinScan<'a, 'r> {
    /// A hash join building on `build`. Requires an equi-join; callers
    /// check [`super::estimate::feasible`].
    pub fn new(req: &'r JoinRequest<'a>, build: SideId) -> Self {
        let scan = side(req, build).table.scan();
        HashJoinScan {
            req,
            build,
            phase: Phase::Build(scan),
            scratch: Record::default(),
            arena: Vec::new(),
            values: Vec::new(),
            heads: Vec::new(),
            pairs: Vec::new(),
        }
    }
}

fn side<'r, 'a>(req: &'r JoinRequest<'a>, id: SideId) -> &'r JoinSide<'a> {
    match id {
        SideId::Left => &req.left,
        SideId::Right => &req.right,
    }
}

/// Slot of `hash` in a table of `len` (a power of two, at least 2) heads:
/// the top bits of a Fibonacci multiply, which spreads FNV-1a's weakly
/// mixed low bits.
fn head_slot(hash: u64, len: usize) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
}

/// Links every arena row into its chain, last row first, so each chain
/// lists its rows in arena order.
fn link_chains(arena: &mut [BuildRow]) -> Vec<u32> {
    let len = arena.len().next_power_of_two().max(2);
    let mut heads = vec![NIL; len];
    for (at, row) in arena.iter_mut().enumerate().rev() {
        if let Some(head) = heads.get_mut(head_slot(row.hash, len)) {
            row.next = std::mem::replace(head, at as u32);
        }
    }
    heads
}

impl JoinScan for HashJoinScan<'_, '_> {
    fn step(&mut self, batch: usize) -> Result<JoinStepOutcome, StorageError> {
        let b = side(self.req, self.build);
        let p = side(self.req, self.build.other());
        let cost = &self.req.cost;
        let limit = self.req.limit_or_max();
        for _ in 0..batch.max(1) {
            if self.pairs.len() >= limit {
                self.phase = Phase::Done;
                return Ok(JoinStepOutcome::Done);
            }
            match &mut self.phase {
                Phase::Build(scan) => match scan.next_into(b.table, cost, &mut self.scratch)? {
                    None => {
                        self.heads = link_chains(&mut self.arena);
                        self.phase = Phase::Probe(p.table.scan());
                    }
                    Some(rid) => {
                        let key = self.scratch.get(b.join_col).filter(|k| !k.is_null());
                        if let Some(key) = key.filter(|_| (b.residual)(&self.scratch)) {
                            let hash = join_key_hash(key);
                            // Move the values out and hand the emptied
                            // buffer back as the scratch record.
                            let mut row = std::mem::take(&mut self.scratch).into_values();
                            let start = self.values.len();
                            self.values.append(&mut row);
                            self.scratch = Record::new(row);
                            self.arena.push(BuildRow {
                                hash,
                                next: NIL,
                                rid,
                                start,
                                end: self.values.len(),
                            });
                        }
                    }
                },
                Phase::Probe(scan) => match scan.next_into(p.table, cost, &mut self.scratch)? {
                    None => {
                        self.phase = Phase::Done;
                        return Ok(JoinStepOutcome::Done);
                    }
                    Some(prid) => {
                        let prec = &self.scratch;
                        let Some(key) = prec.get(p.join_col).filter(|k| !k.is_null()) else {
                            continue;
                        };
                        if !(p.residual)(prec) {
                            continue;
                        }
                        let hash = join_key_hash(key);
                        let mut at = self
                            .heads
                            .get(head_slot(hash, self.heads.len()))
                            .copied()
                            .unwrap_or(NIL);
                        while let Some(row) = self.arena.get(at as usize) {
                            at = row.next;
                            if row.hash != hash {
                                continue;
                            }
                            // A chain hit is a candidate; the pair check
                            // decides true equality plus any extra pair
                            // filter, and only a match is copied.
                            let brow = self.values.get(row.start..row.end).unwrap_or_default();
                            push_if_match(
                                self.req,
                                self.build,
                                (row.rid, brow),
                                (prid, prec.values()),
                                &mut self.pairs,
                            );
                            if self.pairs.len() >= limit {
                                break;
                            }
                        }
                    }
                },
                Phase::Done => return Ok(JoinStepOutcome::Done),
            }
        }
        Ok(JoinStepOutcome::Progress)
    }

    fn progress(&self) -> f64 {
        let b = side(self.req, self.build);
        let p = side(self.req, self.build.other());
        // Both sides stream exactly once: weight each by its page share.
        let bp = b.table.page_count().max(1) as f64;
        let pp = p.table.page_count().max(1) as f64;
        let total = bp + pp;
        match &self.phase {
            Phase::Build(scan) => scan.progress(b.table) * bp / total,
            Phase::Probe(scan) => (bp + scan.progress(p.table) * pp) / total,
            Phase::Done => 1.0,
        }
    }

    fn take_pairs(&mut self) -> Vec<JoinPair> {
        std::mem::take(&mut self.pairs)
    }
}
