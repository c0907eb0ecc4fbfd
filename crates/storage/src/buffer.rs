//! Buffer-pool cache simulator.
//!
//! Section 3(c) of the paper singles out disk-page caching as a major source
//! of cost uncertainty: "the pattern of caching the disk pages is influenced
//! by many asynchronous processes totally unrelated to a given retrieval."
//! This module reproduces exactly that phenomenon. Data structures
//! (heap tables, B-trees, temp tables) route every logical page touch
//! through [`BufferPool::access`], which classifies it as hit or miss
//! against a capacity-bounded cache and charges the caller's
//! [`crate::CostMeter`] accordingly. [`BufferPool::perturb`] injects the
//! "asynchronous interference" the paper describes.
//!
//! # Eviction policy
//!
//! The replacement policy is **midpoint-insertion LRU**
//! ([`EvictionPolicy::Midpoint`], the default): each shard's LRU list is
//! split into a young head-side prefix and an old tail-side suffix holding
//! at least 3/8 of the current list length
//! ([`EvictionPolicy::old_target`]). Misses insert at the old-sublist head
//! (the midpoint); only a *second* touch promotes a page to the young head;
//! eviction always takes the tail, which is always old. A beyond-RAM
//! sequential scan therefore churns the old sublist and cannot flush the
//! re-referenced working set riding the young sublist. Classic LRU
//! ([`EvictionPolicy::Lru`]) is the degenerate `old_target == len`
//! configuration — same code path, every page old, midpoint == head.
//! [`crate::ReferencePool`] is the executable specification of both
//! configurations; the differential proptests pin equivalence.
//!
//! # Hot-path layout
//!
//! Every simulated page touch goes through this module, so the residency
//! check is the innermost loop of the whole engine. The pool therefore keys
//! pages by a packed `u64` ([`PageId::pack`]) and stores them in
//! open-addressed tables (Fibonacci hashing, linear probing, backward-shift
//! deletion) whose entries double as intrusive LRU links — one array, no
//! `HashMap`, no separate slab, at most one cache line per probe step. Each
//! table is sized to at most 50% load, and slot vacancy is encoded in the
//! `prev` link (`FREE`) so no page key needs to be reserved as a sentinel.
//!
//! # Sharding
//!
//! The pool is shared by every session of one database instance, so it is
//! lock-striped: residency state lives in `N` power-of-two shards, each an
//! independent open-addressed table + LRU list behind its own mutex. A page
//! is routed to a shard by Fibonacci-hashing its packed key with the low
//! [`BLOCK_PAGES`] page bits masked off, so a sequential 64-page run stays
//! in one shard and [`BufferPool::access_run`] takes one lock per block
//! rather than one per page. Disjoint working sets therefore never contend;
//! contended acquisitions are counted in [`BufferPool::contention`].
//!
//! [`shared_pool`] builds a **single-shard** pool: with one shard the pool
//! is one global true-LRU, observably identical (hit/miss sequence,
//! eviction order, counters) to the pre-sharding pool — this is what the
//! deterministic tests, goldens and the simulation harness use. Multi-shard
//! pools ([`shared_pool_sharded`]) partition capacity evenly across shards,
//! which changes *which* pages are evicted under pressure (each shard runs
//! its own LRU) but preserves every conservation property: a page is
//! resident in exactly one shard, and hits + misses always equals accesses.
//!
//! # Lock-free hit path
//!
//! A resident-page hit used to pay an uncontended shard lock plus two
//! counter bumps — the "hot-hit tax". Now each shard pairs its
//! mutex-guarded table with a `ProbeMirror`: a seqlock-versioned array
//! of atomic key words mirroring slot occupancy, readable without the
//! lock. [`BufferPool::access`] first probes the mirror optimistically:
//! read the version (odd means a writer is mid-mutation — fall back), walk
//! the probe chain, then re-read the version and accept the answer only if
//! it is unchanged. All residency mutations run under the shard mutex and
//! bump the version to odd before moving any key and back to even after
//! (`ProbeMirror::begin_write`/`ProbeMirror::end_write`), so a torn
//! read can never validate. Crucially, a locked-path *hit* only splices
//! LRU links — keys do not move — so pure-hit traffic never invalidates
//! concurrent optimistic readers.
//!
//! A validated optimistic hit defers its two former under-lock effects to
//! the per-thread, per-pool touch buffer in `crate::touch`: the LRU
//! splice is recorded as a pending *touch* and the pool-wide hit tally as
//! a pending *count*, both absorbed at batch boundaries by
//! [`BufferPool::flush_session`]. The caller's [`crate::CostMeter`] is
//! still charged per access — mid-run cost totals feed the competition's
//! kill rules, so their timing must not change.
//!
//! **Deferred-promotion invariant.** Hit/miss classification depends only
//! on residency, and residency changes only under shard locks. Every
//! locked entry point (a miss, a batched run, `perturb`, `clear`) and
//! every counter read first replays the calling thread's pending touches
//! in access order, so under single-threaded use the pool is *observably
//! identical* to [`crate::ReferencePool`] — the differential proptests
//! prove identical hit/miss sequences, counters, residency and
//! bit-identical cost totals. Under concurrency, another thread's pending
//! promotions may land up to `crate::touch::TOUCH_CAP` accesses late,
//! which can only make a recently-hit page look slightly colder to an
//! eviction decision; classification, counter conservation and cost
//! totals are unaffected. Pending *counts* are absorbed on every exit
//! path, including thread teardown, via the touch buffer's drop guard;
//! only pending *promotions* may be dropped when a thread exits.
//!
//! Cost attribution is the caller's: every charging entry point takes the
//! meter to charge, so concurrent sessions sharing the pool each pay for
//! exactly their own page touches.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::cost::{CostConfig, CostMeter, SharedCost};
use crate::error::StorageError;
use crate::fault::FaultPolicy;
use crate::mirror::{ProbeMirror, FIB, MIRROR_VACANT};
use crate::touch::{self, DeferredCounters, Recorded};

/// Shared handle to one [`BufferPool`]. All storage structures of one
/// database instance (heap tables, indexes, temp tables) share a pool so
/// they compete for the same simulated memory, as in the paper; sessions on
/// different OS threads clone the `Arc`.
pub type SharedPool = Arc<BufferPool>;

/// Creates a fresh shared pool with a **single shard** — fully
/// deterministic, observably identical to the pre-sharding pool. Use
/// [`shared_pool_sharded`] for multi-session throughput.
pub fn shared_pool(capacity: usize, cost: SharedCost) -> SharedPool {
    Arc::new(BufferPool::new(capacity, cost))
}

/// Creates a fresh shared pool with `shards` lock stripes (rounded up to a
/// power of two).
pub fn shared_pool_sharded(capacity: usize, shards: usize, cost: SharedCost) -> SharedPool {
    Arc::new(BufferPool::with_shards(capacity, shards, cost))
}

/// Pages per shard-routing block: runs of this many consecutive pages of
/// one file always land in the same shard, so batched sequential access
/// takes one lock per block.
pub const BLOCK_PAGES: u32 = 64;

/// Immutable snapshot of a pool's lifetime hit/miss counters.
///
/// Per-query observability takes one snapshot before the run and one after;
/// [`PoolStats::since`] yields the delta the query itself caused. (Under
/// concurrency the pool-wide delta includes other sessions' traffic —
/// per-session accounting reads the session's own [`crate::CostMeter`]
/// instead.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Buffer hits (page found resident).
    pub hits: u64,
    /// Buffer misses (simulated physical read).
    pub misses: u64,
}

impl PoolStats {
    /// Hits and misses accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// Identifies one storage file (a heap table, one index, a temp area).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

/// Identifies one page across all files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Owning file.
    pub file: FileId,
    /// Page number within the file.
    pub page: u32,
}

impl PageId {
    /// Creates a page id.
    pub fn new(file: FileId, page: u32) -> Self {
        PageId { file, page }
    }

    /// Packs the id into one word: `file` in the high 32 bits, `page` in
    /// the low 32. Every `(file, page)` pair maps to a distinct `u64`, so
    /// the pool can key on a single integer.
    #[inline]
    pub fn pack(self) -> u64 {
        ((self.file.0 as u64) << 32) | self.page as u64
    }

    /// Inverse of [`PageId::pack`].
    #[inline]
    pub fn unpack(key: u64) -> Self {
        PageId::new(FileId((key >> 32) as u32), key as u32)
    }
}

/// Outcome of a page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Page was resident; charged [`crate::CostConfig::cache_hit`].
    Hit,
    /// Page was faulted in; charged [`crate::CostConfig::io_read`].
    Miss,
}

/// Replacement policy of a [`BufferPool`] (see the module docs).
///
/// Both variants run the same midpoint machinery; they differ only in the
/// old-sublist target length, so the differential proptests cover both
/// with one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Classic true-LRU: the old sublist spans the whole list, so the
    /// midpoint is the head and insert/promote/evict reduce to textbook
    /// LRU. Kept as the baseline the beyond-RAM bench measures against.
    Lru,
    /// Midpoint insertion (the default): misses enter at the boundary of
    /// the old suffix (3/8 of the current list length); promotion to the
    /// young prefix requires a second touch. Scan-resistant.
    #[default]
    Midpoint,
}

impl EvictionPolicy {
    /// The old-sublist target length `T` for a list currently holding
    /// `len` pages: the whole list for [`EvictionPolicy::Lru`], 3/8 of it
    /// (at least one page — the eviction victim must be old) for
    /// [`EvictionPolicy::Midpoint`]. Derived from the *current* length,
    /// not the capacity, so a working set re-referenced while the pool is
    /// still filling turns young and is already protected when beyond-RAM
    /// pressure arrives.
    pub fn old_target(self, len: usize) -> usize {
        match self {
            EvictionPolicy::Lru => len,
            EvictionPolicy::Midpoint => {
                if len == 0 {
                    0
                } else {
                    (len * 3 / 8).max(1)
                }
            }
        }
    }
}

/// `prev` value marking a vacant slot. Never a valid slot index (tables are
/// far smaller than `u32::MAX` entries).
const FREE: u32 = u32::MAX;
/// `prev`/`next` value terminating the LRU list. Distinct from [`FREE`] so
/// the list head is not mistaken for a vacant slot.
const NIL: u32 = u32::MAX - 1;

/// Generator for [`BufferPool::id`] — the key per-thread touch buffers use
/// to tell pools apart.
static POOL_IDS: AtomicU64 = AtomicU64::new(1);

/// One open-addressed table slot: the packed page key plus the intrusive
/// LRU links. `prev == FREE` means the slot is vacant; occupied slots have
/// `prev` either a slot index or [`NIL`] (list head). `old` is the
/// midpoint-policy sublist label (see [`EvictionPolicy`]).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    prev: u32,
    next: u32,
    old: bool,
}

const VACANT: Slot = Slot {
    key: 0,
    prev: FREE,
    next: NIL,
    old: false,
};

/// Result of one table walk: the key's slot, or the FREE slot terminating
/// its probe chain (which is the insertion point while the table is
/// unchanged).
enum Probe {
    Hit(usize),
    Miss(usize),
}

/// One lock stripe: the mutex-guarded open-addressed true-LRU table plus
/// its lock-free probe mirror.
#[derive(Debug)]
struct Shard {
    state: Mutex<PoolShard>,
    mirror: ProbeMirror,
}

impl Shard {
    fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        let state = PoolShard::new(capacity, policy);
        let mirror = ProbeMirror::new(state.slots.len());
        Shard {
            state: Mutex::new(state),
            mirror,
        }
    }
}

/// Mutex-guarded state of one lock stripe: an independent open-addressed
/// true-LRU table (the PR-1 hot-path layout, unchanged) plus its lifetime
/// hit/miss counters. Every mutation that moves a key also updates the
/// shard's [`ProbeMirror`], passed in by the caller.
#[derive(Debug)]
struct PoolShard {
    capacity: usize,
    /// Replacement policy — determines the old-sublist target length
    /// [`PoolShard::rebalance`] restores (see [`EvictionPolicy`]).
    policy: EvictionPolicy,
    slots: Box<[Slot]>,
    mask: usize,
    shift: u32,
    len: usize,
    head: u32, // most recently used
    tail: u32, // least recently used
    /// First old slot walking head→tail, or [`NIL`] when the old sublist
    /// is empty. Old slots always form a contiguous tail suffix.
    mid: u32,
    old_len: usize,
    hits: u64,
    misses: u64,
}

impl PoolShard {
    fn new(capacity: usize, policy: EvictionPolicy) -> Self {
        assert!(capacity >= 1, "shard capacity must be at least 1");
        assert!(
            capacity < (NIL as usize) / 2,
            "shard capacity exceeds slot index range"
        );
        // ≤50% load keeps linear-probe runs short; power of two lets the
        // Fibonacci hash reduce by shift instead of modulo.
        let table_len = (capacity * 2).next_power_of_two().max(4);
        PoolShard {
            capacity,
            policy,
            slots: vec![VACANT; table_len].into_boxed_slice(),
            mask: table_len - 1,
            shift: 64 - table_len.trailing_zeros(),
            len: 0,
            head: NIL,
            tail: NIL,
            mid: NIL,
            old_len: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// One probe resolving `key` to either its slot (`Hit`) or the FREE
    /// slot ending its probe chain (`Miss`) — the single table walk that
    /// serves both classification and insertion. Linear probing; terminates
    /// because the table is at most half full.
    ///
    /// SAFETY of the unchecked indexing here and in
    /// [`PoolShard::unlink`]/[`PoolShard::push_front`]: every index is
    /// either reduced by `& self.mask` or read from a stored LRU link, and
    /// the module maintains the invariant that `mask == slots.len() - 1`
    /// (a power of two) and that every non-[`NIL`]/[`FREE`] link is a valid
    /// slot index. `debug_assert!`s guard the invariant in debug builds.
    #[inline]
    fn probe(&self, key: u64) -> Probe {
        let mut i = self.home(key);
        loop {
            debug_assert!(i < self.slots.len());
            // SAFETY: `i` comes from `home` (reduced by the table mask) or
            // from the `& self.mask` wrap below, and `mask == slots.len()-1`
            // with a power-of-two length, so `i < slots.len()` always.
            let s = unsafe { self.slots.get_unchecked(i) };
            if s.prev == FREE {
                return Probe::Miss(i);
            }
            if s.key == key {
                return Probe::Hit(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        debug_assert!(i < self.slots.len());
        // SAFETY: callers pass `i` from `probe` results or stored LRU links,
        // both maintained `< slots.len()` by this module's invariant (see
        // the `probe` doc comment).
        unsafe { self.slots.get_unchecked_mut(i) }
    }

    /// Classifies `key` and updates residency/recency (no counters, no
    /// charges — the callers batch those).
    #[inline]
    fn touch(&mut self, key: u64, mirror: &ProbeMirror) -> Access {
        match self.probe(key) {
            Probe::Hit(i) => {
                self.hit_promote(i);
                Access::Hit
            }
            Probe::Miss(f) => {
                self.place(key, f, mirror);
                Access::Miss
            }
        }
    }

    /// The hit path: moves slot `i` to the global MRU head as a young
    /// entry and restores the sublist invariant. Re-reference is the only
    /// way into the young sublist (see [`EvictionPolicy`]). Pure link/flag
    /// surgery — keys never move, so no mirror writer section is needed.
    #[inline]
    fn hit_promote(&mut self, i: usize) {
        let iu = i as u32;
        if self.slot_mut(i).old {
            self.slot_mut(i).old = false;
            self.old_len -= 1;
            if self.mid == iu {
                self.mid = self.slot_mut(i).next;
            }
        }
        if self.head != iu {
            self.unlink(i);
            self.push_front(i);
        }
        self.rebalance();
    }

    /// Restores `old_len >= policy.old_target(len)` by demoting young-tail
    /// entries into the old sublist (re-labelled in place, never
    /// repositioned). One-sided on purpose: the old sublist may *exceed*
    /// its target — misses stay old until genuinely re-referenced — and
    /// only a hit's promotion can shrink it, so the bound caps the young
    /// sublist at `len - target` without ever promoting a page the
    /// workload did not touch twice.
    #[inline]
    fn rebalance(&mut self) {
        let target = self.policy.old_target(self.len);
        while self.old_len < target {
            // Demote the young entry adjacent to the boundary (the young
            // tail) into the old sublist.
            let i = if self.mid == NIL {
                self.tail
            } else {
                self.slot_mut(self.mid as usize).prev
            };
            debug_assert_ne!(i, NIL, "demote with no young entry");
            self.slot_mut(i as usize).old = true;
            self.mid = i;
            self.old_len += 1;
        }
    }

    /// Replays one deferred touch: promotes `key` to MRU if still
    /// resident, silently skips it otherwise (the page may have been
    /// evicted or cleared since the optimistic hit recorded it).
    #[inline]
    fn promote_if_resident(&mut self, key: u64) {
        if let Probe::Hit(i) = self.probe(key) {
            self.hit_promote(i);
        }
    }

    /// Replays one deferred touch using the slot the mirror probe saw the
    /// key in. In the common case — the page has not moved since the
    /// optimistic hit — the residency check is a single compare and the
    /// probe walk is skipped entirely. A stale slot (the page was evicted
    /// and the slot reused, or the key re-faulted elsewhere after a
    /// backward shift) fails the compare and degrades to
    /// [`PoolShard::promote_if_resident`], which re-probes; semantics are
    /// identical either way.
    #[inline]
    fn promote_at(&mut self, key: u64, slot: u32) {
        let i = slot as usize;
        if i < self.slots.len() {
            let s = *self.slot_mut(i);
            if s.prev != FREE && s.key == key {
                self.hit_promote(i);
                return;
            }
        }
        self.promote_if_resident(key);
    }

    fn contains(&self, key: u64) -> bool {
        matches!(self.probe(key), Probe::Hit(_))
    }

    fn clear(&mut self, mirror: &ProbeMirror) {
        mirror.begin_write();
        self.slots.fill(VACANT);
        mirror.fill_vacant();
        self.head = NIL;
        self.tail = NIL;
        self.mid = NIL;
        self.old_len = 0;
        self.len = 0;
        mirror.end_write();
    }

    /// Faults `key` in without recency update if already resident and
    /// without any counters — the perturbation path.
    fn fault_in_if_absent(&mut self, key: u64, mirror: &ProbeMirror) {
        if let Probe::Miss(f) = self.probe(key) {
            self.place(key, f, mirror);
        }
    }

    /// Single insertion path: evicts the LRU page if full, claims a vacant
    /// slot for `key`, and links it at the MRU end. `key` must not be
    /// resident and `f` must be the FREE slot terminating its probe chain
    /// (as returned by [`PoolShard::probe`]). Access misses, batched-run
    /// misses and [`BufferPool::perturb`] faults all go through here.
    /// The entire mutation — eviction, backward shift, claim — runs inside
    /// one mirror writer section.
    fn place(&mut self, key: u64, f: usize, mirror: &ProbeMirror) {
        mirror.begin_write();
        let mut slot = f;
        if self.len == self.capacity {
            let hole = self.evict_lru(mirror);
            // Eviction vacates exactly one slot. If it lies on `key`'s
            // probe chain — cyclically in `[home, f)` — then inserting at
            // `f` would leave a FREE gap that terminates lookups early, so
            // the new entry claims the hole instead. Either way the probe
            // from the classification walk is reused, not repeated.
            let home = self.home(key);
            let in_chain = if home <= f {
                hole >= home && hole < f
            } else {
                hole >= home || hole < f
            };
            if in_chain {
                slot = hole;
            }
        }
        debug_assert_eq!(self.slot_mut(slot).prev, FREE, "place on an occupied slot");
        self.slot_mut(slot).key = key;
        mirror.set(slot, key);
        self.len += 1;
        self.link_at_mid(slot);
        self.rebalance();
        mirror.end_write();
    }

    /// Links the claimed slot `i` just above the old-sublist head (the
    /// midpoint) and marks it old — the miss insertion position of the
    /// midpoint policy. With an empty old sublist the midpoint is the tail
    /// end, so the entry is appended there. Like [`PoolShard::push_front`],
    /// this is what marks a claimed slot occupied (`prev` becomes
    /// non-[`FREE`]: either a slot index or [`NIL`]).
    #[inline]
    fn link_at_mid(&mut self, i: usize) {
        let iu = i as u32;
        self.slot_mut(i).old = true;
        if self.mid == NIL {
            // Old sublist empty: the midpoint is the list's back.
            let tail = self.tail;
            let s = self.slot_mut(i);
            s.prev = tail;
            s.next = NIL;
            if tail == NIL {
                self.head = iu;
            } else {
                self.slot_mut(tail as usize).next = iu;
            }
            self.tail = iu;
        } else {
            let mid = self.mid;
            let prev = self.slot_mut(mid as usize).prev;
            {
                let s = self.slot_mut(i);
                s.prev = prev;
                s.next = mid;
            }
            self.slot_mut(mid as usize).prev = iu;
            if prev == NIL {
                self.head = iu;
            } else {
                self.slot_mut(prev as usize).next = iu;
            }
        }
        self.mid = iu;
        self.old_len += 1;
    }

    /// Evicts the LRU page and returns the table slot left vacant after
    /// backward-shift compaction. Caller must be inside a mirror writer
    /// section (only [`PoolShard::place`] calls this).
    fn evict_lru(&mut self, mirror: &ProbeMirror) -> usize {
        debug_assert_ne!(self.tail, NIL, "evict from empty shard");
        let i = self.tail as usize;
        debug_assert!(self.slots[i].old, "the tail is always an old page");
        self.slot_mut(i).old = false;
        self.old_len -= 1;
        if self.mid == self.tail {
            self.mid = NIL; // the tail was the only old entry
        }
        self.unlink(i);
        self.len -= 1;
        self.remove_slot(i, mirror)
    }

    /// Detaches slot `i` from the LRU list (slot stays occupied).
    #[inline]
    fn unlink(&mut self, i: usize) {
        let Slot { prev, next, .. } = *self.slot_mut(i);
        if prev == NIL {
            self.head = next;
        } else {
            self.slot_mut(prev as usize).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slot_mut(next as usize).prev = prev;
        }
    }

    /// Links slot `i` at the MRU end. Also what marks a claimed slot
    /// occupied: it overwrites `prev` with a non-[`FREE`] value.
    #[inline]
    fn push_front(&mut self, i: usize) {
        let iu = i as u32;
        let head = self.head;
        let s = self.slot_mut(i);
        s.prev = NIL;
        s.next = head;
        if head == NIL {
            self.tail = iu;
        } else {
            self.slot_mut(head as usize).prev = iu;
        }
        self.head = iu;
    }

    /// Vacates slot `i` (already unlinked from the LRU list) by the
    /// backward-shift technique: entries displaced past `i` by linear
    /// probing are moved into the hole so lookups never need tombstones.
    /// Moved entries drag their LRU links along via [`PoolShard::relink`]
    /// and their mirror words along via [`ProbeMirror::set`]. Returns the
    /// slot that ends up vacant once the shift cascade settles. Caller
    /// must be inside a mirror writer section.
    fn remove_slot(&mut self, mut i: usize, mirror: &ProbeMirror) -> usize {
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let sj = *self.slot_mut(j);
            if sj.prev == FREE {
                break;
            }
            let h = self.home(sj.key);
            // The entry at `j` may stay iff its home `h` lies cyclically in
            // `(i, j]`; otherwise the hole at `i` would break its probe
            // chain, so it moves into the hole.
            let stays = if j > i {
                h > i && h <= j
            } else {
                h > i || h <= j
            };
            if stays {
                continue;
            }
            *self.slot_mut(i) = sj;
            mirror.set(i, sj.key);
            self.relink(i);
            if self.mid == j as u32 {
                // `mid` is a slot-index pointer like the LRU links: when
                // the entry it names moves, it moves with it.
                self.mid = i as u32;
            }
            i = j;
        }
        self.slot_mut(i).prev = FREE;
        mirror.set(i, MIRROR_VACANT);
        i
    }

    /// Repoints the LRU neighbours of the entry now living in slot `i`
    /// (after a backward-shift move changed its slot index).
    fn relink(&mut self, i: usize) {
        let Slot { prev, next, .. } = *self.slot_mut(i);
        let iu = i as u32;
        if prev == NIL {
            self.head = iu;
        } else {
            self.slot_mut(prev as usize).next = iu;
        }
        if next == NIL {
            self.tail = iu;
        } else {
            self.slot_mut(next as usize).prev = iu;
        }
    }
}

/// A capacity-bounded, lock-striped true-LRU page cache that charges the
/// caller's [`crate::CostMeter`].
///
/// The pool stores no page bytes — the in-memory data structures own their
/// data. What the pool simulates is the *cost* of residency: which logical
/// pages would have been in memory, and therefore whether an access is a
/// physical I/O. This keeps the experiments faithful to the paper's
/// I/O-dominated cost model while remaining deterministic.
///
/// All methods take `&self`; the pool is `Send + Sync` and is shared across
/// session threads via [`SharedPool`].
#[derive(Debug)]
pub struct BufferPool {
    /// Process-unique instance id keying the per-thread touch buffers.
    id: u64,
    /// The database-default meter (sessions carry their own; this one backs
    /// load-time work and single-session callers).
    cost: SharedCost,
    shards: Box<[Shard]>,
    /// log2(number of shards); shard routing shifts by `64 - shard_bits`.
    shard_bits: u32,
    capacity: usize,
    /// Count of shard-lock acquisitions that found the lock held.
    contention: AtomicU64,
    /// Absorption target for the per-thread deferred hit tallies; `Arc`'d
    /// so a thread outliving the pool can still absorb safely.
    deferred: Arc<DeferredCounters>,
    /// Fast-path flag: fault checks are skipped entirely unless armed.
    fault_armed: AtomicBool,
    fault: Mutex<Option<FaultPolicy>>,
    /// Pages modified since the last checkpoint write-back. A sorted set
    /// (not per-shard) because it is touched only on the cold write path;
    /// reads never mark. Eviction ignores it: page *bytes* live in the
    /// owning data structures, so evicting a dirty page loses residency,
    /// never data — write-back is driven by checkpoints, not eviction.
    dirty: Mutex<BTreeSet<u64>>,
    /// Sequential read-ahead switch, consulted by heap scans before they
    /// build a prefetch window. On by default; benchmarks flip it off to
    /// measure the unbatched baseline.
    read_ahead: AtomicBool,
    /// Read-ahead windows issued (each one batched store read).
    prefetch_runs: AtomicU64,
    /// Frames fetched early by read-ahead windows.
    prefetched_pages: AtomicU64,
    /// Prefetched frames later consumed by the miss they anticipated;
    /// `prefetched_pages - consumed` is the wasted-prefetch count.
    prefetch_consumed: AtomicU64,
}

/// Point-in-time copy of a pool's read-ahead counters.
///
/// Prefetch lives *outside* the residency simulation — prefetched frames
/// are not admitted into the LRU until their miss actually happens — so
/// these counters are kept apart from [`PoolStats`] and never affect
/// hit/miss equivalence with the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchStats {
    /// Read-ahead windows issued (batched store reads).
    pub runs: u64,
    /// Frames fetched early across all windows.
    pub prefetched_pages: u64,
    /// Prefetched frames consumed by the miss they anticipated.
    pub consumed_pages: u64,
}

impl PrefetchStats {
    /// Frames fetched ahead but never consumed (the scan ended, the page
    /// turned dirty, or another session faulted it in first).
    pub fn unused_pages(&self) -> u64 {
        self.prefetched_pages.saturating_sub(self.consumed_pages)
    }

    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &PrefetchStats) -> PrefetchStats {
        PrefetchStats {
            runs: self.runs - earlier.runs,
            prefetched_pages: self.prefetched_pages - earlier.prefetched_pages,
            consumed_pages: self.consumed_pages - earlier.consumed_pages,
        }
    }
}

impl BufferPool {
    /// Creates a single-shard pool that can hold `capacity` pages
    /// (`capacity >= 1`) — the deterministic configuration.
    pub fn new(capacity: usize, cost: SharedCost) -> Self {
        Self::with_shards(capacity, 1, cost)
    }

    /// Creates a pool striped over `shards` locks (rounded up to a power of
    /// two) under the default [`EvictionPolicy::Midpoint`] policy. Total
    /// capacity is split evenly; every shard holds at least one page.
    pub fn with_shards(capacity: usize, shards: usize, cost: SharedCost) -> Self {
        Self::with_policy(capacity, shards, EvictionPolicy::default(), cost)
    }

    /// Creates a pool with an explicit eviction policy, applied per shard
    /// (each shard runs its own midpoint boundary over its own LRU list,
    /// matching a per-shard [`crate::ReferencePool`] built the same way).
    pub fn with_policy(
        capacity: usize,
        shards: usize,
        policy: EvictionPolicy,
        cost: SharedCost,
    ) -> Self {
        assert!(capacity >= 1, "buffer pool capacity must be at least 1");
        assert!(shards >= 1, "buffer pool needs at least one shard");
        let n = shards.next_power_of_two();
        let per_shard = capacity.div_ceil(n).max(1);
        let shards: Vec<Shard> = (0..n).map(|_| Shard::new(per_shard, policy)).collect();
        BufferPool {
            // Relaxed: unique-id counter; no ordering with other memory.
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            cost,
            shards: shards.into_boxed_slice(),
            shard_bits: n.trailing_zeros(),
            capacity: per_shard * n,
            contention: AtomicU64::new(0),
            deferred: Arc::new(DeferredCounters::default()),
            fault_armed: AtomicBool::new(false),
            fault: Mutex::new(None),
            dirty: Mutex::new(BTreeSet::new()),
            read_ahead: AtomicBool::new(true),
            prefetch_runs: AtomicU64::new(0),
            prefetched_pages: AtomicU64::new(0),
            prefetch_consumed: AtomicU64::new(0),
        }
    }

    /// Enables or disables sequential read-ahead for scans over this pool.
    pub fn set_read_ahead(&self, enabled: bool) {
        // Relaxed: an independent on/off flag; readers only need to see
        // the value eventually, nothing is published under it.
        self.read_ahead.store(enabled, Ordering::Relaxed);
    }

    /// True when sequential scans should issue read-ahead windows.
    pub fn read_ahead_enabled(&self) -> bool {
        // Relaxed: see `set_read_ahead`.
        self.read_ahead.load(Ordering::Relaxed)
    }

    /// Records one issued read-ahead window of `pages` frames.
    pub fn note_prefetch(&self, pages: u64) {
        // Relaxed: statistical tallies, same independent-counter argument
        // as `contention`; no reader infers other state from them.
        self.prefetch_runs.fetch_add(1, Ordering::Relaxed);
        self.prefetched_pages.fetch_add(pages, Ordering::Relaxed);
    }

    /// Records one prefetched frame consumed by the miss it anticipated.
    pub fn note_prefetch_consumed(&self) {
        // Relaxed: see `note_prefetch`.
        self.prefetch_consumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the read-ahead counters.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        // Relaxed: monotonic tally snapshot; exact under a quiesced pool,
        // statistically consistent under concurrency like `PoolStats`.
        PrefetchStats {
            runs: self.prefetch_runs.load(Ordering::Relaxed),
            prefetched_pages: self.prefetched_pages.load(Ordering::Relaxed),
            consumed_pages: self.prefetch_consumed.load(Ordering::Relaxed),
        }
    }

    /// Installs (or with `None`, removes) a read-fault injection policy.
    /// Only the fallible [`BufferPool::try_access`]/
    /// [`BufferPool::try_access_run`] path consults it. The policy is
    /// global to the pool (one mutex, shared by all shards): its fault
    /// sequence is a function of the order reads reach it, which is
    /// deterministic exactly when the access stream is.
    pub fn set_fault_policy(&self, policy: Option<FaultPolicy>) {
        let mut guard = lock(&self.fault);
        self.fault_armed.store(policy.is_some(), Ordering::Release);
        *guard = policy;
    }

    /// A copy of the installed fault policy, if any (for its counters).
    pub fn fault_policy(&self) -> Option<FaultPolicy> {
        lock(&self.fault).clone()
    }

    /// Number of pages the pool can hold (summed over shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of pages currently resident (sums shards; a racing snapshot
    /// under concurrency). Unaffected by deferred touches — promotions
    /// never change residency — so no flush is needed here.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.state).len).sum()
    }

    /// True if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The database-default cost meter, shared by every thread using the
    /// pool. Sessions charge their own meters; this is the fallback for
    /// load-time and single-session work.
    pub fn cost(&self) -> &SharedCost {
        &self.cost
    }

    /// The cost weights in force (for estimate formulas).
    pub fn cost_config(&self) -> CostConfig {
        self.cost.config()
    }

    /// Lifetime hit count (summed over shards).
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// Lifetime miss count (summed over shards).
    pub fn misses(&self) -> u64 {
        self.stats().misses
    }

    /// Shard-lock acquisitions that found the lock already held — the
    /// contention signal reported by the throughput benchmark.
    pub fn contention(&self) -> u64 {
        // Relaxed: statistical counter read; orders against nothing.
        self.contention.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the hit/miss counters, for per-query deltas.
    /// Flushes the calling thread's deferred state first, so a
    /// single-threaded caller always reads exact values.
    pub fn stats(&self) -> PoolStats {
        self.flush_session();
        let mut stats = PoolStats::default();
        for shard in self.shards.iter() {
            let g = lock(&shard.state);
            stats.hits += g.hits;
            stats.misses += g.misses;
        }
        stats.hits += self.deferred.total();
        stats
    }

    /// The shard `page` routes to — exposed so differential tests can
    /// project an access sequence onto per-shard reference models.
    pub fn shard_of(&self, page: PageId) -> usize {
        self.shard_index(page.pack())
    }

    /// Routes a packed page key to its shard. The low [`BLOCK_PAGES`] page
    /// bits are masked off before hashing so sequential runs stay in one
    /// shard; the remaining bits are Fibonacci-hashed so files and blocks
    /// spread evenly across stripes.
    #[inline]
    fn shard_index(&self, key: u64) -> usize {
        if self.shard_bits == 0 {
            return 0;
        }
        ((key / BLOCK_PAGES as u64).wrapping_mul(FIB) >> (64 - self.shard_bits)) as usize
    }

    /// Locks shard `i`, counting contended acquisitions.
    #[inline]
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, PoolShard> {
        match self.shards[i].state.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                // Relaxed: contention tally only feeds benchmark reporting;
                // the subsequent blocking lock provides the real ordering.
                self.contention.fetch_add(1, Ordering::Relaxed);
                lock(&self.shards[i].state)
            }
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    /// Absorbs the calling thread's deferred state for this pool: pending
    /// hit tallies land in the pool-wide counters and buffered LRU
    /// promotions are replayed in access order. Runs automatically on
    /// every locked entry point, on counter reads, and when the touch
    /// buffer fills; the tallies alone are also absorbed at thread exit by
    /// the buffer's drop guard. Safe to call at any time; a no-op when
    /// nothing is pending.
    pub fn flush_session(&self) {
        touch::drain(self.id, |keys| self.apply_touches(keys));
    }

    /// Replays drained `(key, slot)` touches as LRU promotions, holding
    /// each shard lock across the consecutive keys that route to it. The
    /// remembered mirror slot makes each replay a compare-and-splice in
    /// the common case (see [`PoolShard::promote_at`]).
    fn apply_touches(&self, touches: &[(u64, u32)]) {
        let mut iter = touches.iter().peekable();
        while let Some(&(key, slot)) = iter.next() {
            let si = self.shard_index(key);
            let mut state = self.lock_shard(si);
            state.promote_at(key, slot);
            while let Some(&&(k, s)) = iter.peek() {
                if self.shard_index(k) != si {
                    break;
                }
                state.promote_at(k, s);
                iter.next();
            }
        }
    }

    /// Touches `page`, classifying the access and charging `cost`.
    ///
    /// Hits on resident pages take the lock-free optimistic path (see the
    /// module docs): a validated mirror probe defers the LRU splice and
    /// pool tally to the session touch buffer and only charges the meter.
    /// Misses, unvalidated probes and the one `MIRROR_VACANT` key fall
    /// back to the locked path, which first replays this thread's pending
    /// promotions so any eviction sees them.
    pub fn access(&self, page: PageId, cost: &CostMeter) -> Access {
        let key = page.pack();
        let si = self.shard_index(key);
        if key != MIRROR_VACANT {
            if let Some((true, slot)) = self.shards[si].mirror.probe_resident(key) {
                match touch::record_hit(self.id, &self.deferred, key, slot) {
                    Recorded::Ok => {
                        cost.charge_cache_hit();
                        return Access::Hit;
                    }
                    Recorded::NeedsFlush => {
                        cost.charge_cache_hit();
                        self.flush_session();
                        return Access::Hit;
                    }
                    // Thread-local storage is tearing down; classify under
                    // the lock instead.
                    Recorded::Unavailable => {}
                }
            }
        }
        self.flush_session();
        let shard = &self.shards[si];
        let mut state = self.lock_shard(si);
        match state.touch(key, &shard.mirror) {
            Access::Hit => {
                state.hits += 1;
                drop(state);
                cost.charge_cache_hit();
                Access::Hit
            }
            Access::Miss => {
                state.misses += 1;
                drop(state);
                cost.charge_page_read();
                Access::Miss
            }
        }
    }

    /// Fallible variant of [`BufferPool::access`] used by *data* read
    /// paths (heap fetches and scans, index range scans, temp-table
    /// scan-backs). With no fault policy installed it is exactly
    /// `Ok(self.access(page, cost))`; with one, the read may fail with
    /// [`StorageError::InjectedFault`] before anything is charged or any
    /// LRU state changes — a failed read never happened.
    pub fn try_access(&self, page: PageId, cost: &CostMeter) -> Result<Access, StorageError> {
        if self.fault_armed.load(Ordering::Acquire) {
            let mut guard = lock(&self.fault);
            if let Some(policy) = guard.as_mut() {
                if policy.should_fail(page) {
                    return Err(StorageError::InjectedFault {
                        file: page.file,
                        page: page.page,
                    });
                }
            }
        }
        Ok(self.access(page, cost))
    }

    /// Fallible variant of [`BufferPool::access_run`]. Pages before a
    /// fault are accessed and charged normally (the scan really did read
    /// them); the faulting page and everything after it are not.
    pub fn try_access_run(
        &self,
        file: FileId,
        first_page: u32,
        n: u32,
        cost: &CostMeter,
    ) -> Result<(u64, u64), StorageError> {
        if !self.fault_armed.load(Ordering::Acquire) {
            return Ok(self.access_run(file, first_page, n, cost));
        }
        let (mut hits, mut misses) = (0u64, 0u64);
        for p in first_page..first_page.saturating_add(n) {
            match self.try_access(PageId::new(file, p), cost) {
                Ok(Access::Hit) => hits += 1,
                Ok(Access::Miss) => misses += 1,
                Err(e) => return Err(e),
            }
        }
        Ok((hits, misses))
    }

    /// Touches the sequential run `first_page .. first_page + n` of `file`
    /// with identical semantics (and identical resulting state, counters
    /// and cost) to `n` successive [`BufferPool::access`] calls, but with a
    /// single batched charge per class and one lock acquisition per
    /// [`BLOCK_PAGES`]-aligned block (block-masked routing guarantees each
    /// block lives in one shard). Returns `(hits, misses)` for the run.
    /// This is the fast path for full scans and temp-table reads.
    pub fn access_run(&self, file: FileId, first_page: u32, n: u32, cost: &CostMeter) -> (u64, u64) {
        self.flush_session();
        let end = first_page.saturating_add(n);
        let mut hits = 0u64;
        let mut p = first_page;
        while p < end {
            // End of the 64-page block containing `p`, clamped to the run.
            let block_end = match (p - p % BLOCK_PAGES).checked_add(BLOCK_PAGES) {
                Some(b) => b.min(end),
                None => end,
            };
            let key0 = PageId::new(file, p).pack();
            let si = self.shard_index(key0);
            let shard = &self.shards[si];
            let mut state = self.lock_shard(si);
            let mut block_hits = 0u64;
            for q in p..block_end {
                if state.touch(PageId::new(file, q).pack(), &shard.mirror) == Access::Hit {
                    block_hits += 1;
                }
            }
            let block_misses = (block_end - p) as u64 - block_hits;
            state.hits += block_hits;
            state.misses += block_misses;
            drop(state);
            hits += block_hits;
            p = block_end;
        }
        let misses = n as u64 - hits;
        cost.charge_cache_hits(hits);
        cost.charge_page_reads(misses);
        (hits, misses)
    }

    /// Records a page *write* access (temp-table spill). Writes always cost
    /// an I/O and do not pollute the read cache.
    pub fn write(&self, _page: PageId, cost: &CostMeter) {
        cost.charge_page_write();
    }

    /// Records `n` sequential page writes with one batched charge.
    pub fn write_run(&self, _file: FileId, _first_page: u32, n: u32, cost: &CostMeter) {
        cost.charge_page_writes(n as u64);
    }

    /// Marks `page` dirty: modified in memory since the last checkpoint
    /// write-back. Durable tables call this on every insert/delete; the
    /// next checkpoint drains the set via [`BufferPool::take_dirty`].
    pub fn mark_dirty(&self, page: PageId) {
        lock(&self.dirty).insert(page.pack());
    }

    /// True when `page` has unwritten-back modifications. Durable reads
    /// use this to skip disk verification for pages whose frame is
    /// legitimately stale (or absent) until the next checkpoint.
    pub fn is_dirty(&self, page: PageId) -> bool {
        lock(&self.dirty).contains(&page.pack())
    }

    /// Number of dirty pages awaiting write-back.
    pub fn dirty_len(&self) -> usize {
        lock(&self.dirty).len()
    }

    /// Drains the dirty set in sorted page order (the checkpoint's
    /// write-back worklist). A failed checkpoint must re-mark what it
    /// could not write.
    pub fn take_dirty(&self) -> Vec<PageId> {
        std::mem::take(&mut *lock(&self.dirty))
            .into_iter()
            .map(PageId::unpack)
            .collect()
    }

    /// True if `page` is currently resident (no cost charged, no LRU
    /// touch). Answered lock-free when the mirror probe validates.
    pub fn contains(&self, page: PageId) -> bool {
        let key = page.pack();
        let si = self.shard_index(key);
        if key != MIRROR_VACANT {
            if let Some((resident, _)) = self.shards[si].mirror.probe_resident(key) {
                return resident;
            }
        }
        lock(&self.shards[si].state).contains(key)
    }

    /// Evicts every resident page — a cold restart. Shards are cleared one
    /// at a time in index order (the only multi-shard operation; it takes
    /// no two locks at once, so no ordering constraint arises).
    pub fn clear(&self) {
        self.flush_session();
        for shard in self.shards.iter() {
            lock(&shard.state).clear(&shard.mirror);
        }
    }

    /// Simulates interference from unrelated queries (paper Section 3(c)):
    /// touches `foreign_pages` synthetic pages belonging to `foreign_file`,
    /// evicting that much of this query's working set, without charging any
    /// meter (the cost belongs to the "other" query). Foreign pages already
    /// resident are left in place (their recency belongs to whoever faulted
    /// them in).
    pub fn perturb(&self, foreign_file: FileId, foreign_pages: u32) {
        self.flush_session();
        for p in 0..foreign_pages {
            let key = PageId::new(foreign_file, p).pack();
            let si = self.shard_index(key);
            let shard = &self.shards[si];
            lock(&shard.state).fault_in_if_absent(key, &shard.mirror);
        }
    }

    /// Asserts that every shard's mirror word-for-word matches its slot
    /// table — the invariant the lock-free probe relies on.
    #[cfg(test)]
    fn assert_mirror_consistent(&self) {
        for (si, shard) in self.shards.iter().enumerate() {
            let g = lock(&shard.state);
            for (i, s) in g.slots.iter().enumerate() {
                let expect = if s.prev == FREE { MIRROR_VACANT } else { s.key };
                let got = shard.mirror.peek(i);
                assert_eq!(got, expect, "mirror drift in shard {si} slot {i}");
            }
        }
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Remove the dropping thread's touch buffer for this pool; its
        // drop guard absorbs any pending tally. Buffers on other threads
        // drain at their own exit — the Arc'd counters outlive the pool.
        touch::forget(self.id);
    }
}

/// Locks a mutex, recovering the data from a poisoned lock (shard and
/// policy state are plain data; a panicking holder — only ever an assert in
/// tests — leaves them readable).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{shared_meter, CostConfig};

    fn pool(capacity: usize) -> (BufferPool, SharedCost) {
        let cost = shared_meter(CostConfig::default());
        (BufferPool::new(capacity, cost.clone()), cost)
    }

    fn pid(file: u32, page: u32) -> PageId {
        PageId::new(FileId(file), page)
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
        assert_send_sync::<SharedPool>();
    }

    #[test]
    fn packed_key_roundtrips_and_orders() {
        let p = pid(7, 0xDEAD_BEEF);
        assert_eq!(PageId::unpack(p.pack()), p);
        assert_ne!(pid(0, 1).pack(), pid(1, 0).pack());
    }

    #[test]
    fn first_access_misses_second_hits() {
        let (p, cost) = pool(4);
        assert_eq!(p.access(pid(0, 0), &cost), Access::Miss);
        assert_eq!(p.access(pid(0, 0), &cost), Access::Hit);
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (p, cost) = pool(2);
        p.access(pid(0, 0), &cost);
        p.access(pid(0, 1), &cost);
        p.access(pid(0, 0), &cost); // 1 becomes LRU
        p.access(pid(0, 2), &cost); // evicts 1
        assert!(p.contains(pid(0, 0)));
        assert!(!p.contains(pid(0, 1)));
        assert!(p.contains(pid(0, 2)));
    }

    #[test]
    fn capacity_is_respected() {
        let (p, cost) = pool(3);
        for i in 0..100 {
            p.access(pid(0, i), &cost);
        }
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn costs_match_access_classes() {
        let (p, cost) = pool(2);
        p.access(pid(0, 0), &cost); // miss: 1.0
        p.access(pid(0, 0), &cost); // hit: 0.01
        assert!((cost.total() - 1.01).abs() < 1e-12);
    }

    #[test]
    fn charges_go_to_the_callers_meter() {
        let (p, pool_cost) = pool(4);
        let session = shared_meter(CostConfig::default());
        p.access(pid(0, 0), &session);
        assert_eq!(pool_cost.total(), 0.0, "default meter untouched");
        assert!((session.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perturb_pressures_old_pages_without_cost() {
        let (p, cost) = pool(4);
        p.access(pid(0, 0), &cost);
        p.access(pid(0, 1), &cost);
        p.access(pid(0, 0), &cost); // second touch: page 0 turns young
        let before = cost.total();
        p.perturb(FileId(99), 4);
        assert_eq!(cost.total(), before, "interference must be free");
        // Midpoint policy: the foreign scan churns the old sublist, so the
        // once-touched page 1 is flushed but the re-referenced page 0
        // survives pressure that exceeds the whole pool capacity.
        assert!(p.contains(pid(0, 0)));
        assert!(!p.contains(pid(0, 1)));
    }

    #[test]
    fn lru_policy_lets_perturb_flush_everything() {
        // Under the classic-LRU configuration the same interference evicts
        // the entire working set — the pre-midpoint behaviour, kept as the
        // beyond-RAM baseline.
        let cost = shared_meter(CostConfig::default());
        let p = BufferPool::with_policy(4, 1, EvictionPolicy::Lru, cost.clone());
        p.access(pid(0, 0), &cost);
        p.access(pid(0, 1), &cost);
        p.access(pid(0, 0), &cost);
        p.perturb(FileId(99), 4);
        assert!(!p.contains(pid(0, 0)));
        assert!(!p.contains(pid(0, 1)));
    }

    #[test]
    fn midpoint_retains_hot_set_under_scan_pressure() {
        // The scan-resistance property, deterministically: a hot set that
        // has been re-referenced rides the young sublist while a huge
        // sequential scan (4x pool capacity) cycles through the old
        // sublist. Pure LRU retains none of the hot set here. The filler
        // touches between the hot set's first and second rounds give the
        // old sublist colder pages to hold, so every hot page is young
        // (not merely recent) when pressure arrives.
        let (p, cost) = pool(64);
        for page in 0..16 {
            p.access(pid(0, page), &cost);
        }
        for page in 0..16 {
            p.access(pid(8, page), &cost); // filler, touched once
        }
        for page in 0..16 {
            p.access(pid(0, page), &cost); // second touch: hot set young
        }
        for page in 0..256 {
            p.access(pid(9, page), &cost); // beyond-RAM scan, single touch
        }
        let retained = (0..16).filter(|&page| p.contains(pid(0, page))).count();
        assert_eq!(retained, 16, "young sublist must survive the scan");
    }

    #[test]
    fn clear_makes_everything_cold() {
        let (p, cost) = pool(4);
        p.access(pid(0, 0), &cost);
        p.clear();
        assert_eq!(p.access(pid(0, 0), &cost), Access::Miss);
    }

    #[test]
    fn different_files_do_not_collide() {
        let (p, cost) = pool(4);
        p.access(pid(0, 7), &cost);
        assert_eq!(p.access(pid(1, 7), &cost), Access::Miss);
    }

    #[test]
    fn access_run_matches_per_page_accesses() {
        let (a, cost_a) = pool(6);
        let (b, cost_b) = pool(6);
        // Shared warm state in both pools.
        for p in 0..4 {
            a.access(pid(1, p), &cost_a);
            b.access(pid(1, p), &cost_b);
        }
        let (hits, misses) = a.access_run(FileId(1), 2, 8, &cost_a);
        let mut expect_hits = 0;
        for p in 2..10 {
            if b.access(pid(1, p), &cost_b) == Access::Hit {
                expect_hits += 1;
            }
        }
        assert_eq!(hits, expect_hits);
        assert_eq!(hits + misses, 8);
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.misses(), b.misses());
        assert_eq!(cost_a.total(), cost_b.total(), "batched charge must be exact");
        for p in 0..12 {
            assert_eq!(a.contains(pid(1, p)), b.contains(pid(1, p)));
        }
    }

    #[test]
    fn access_run_crossing_block_boundaries_matches_per_page() {
        // A run spanning several 64-page blocks must classify identically
        // to per-page accesses, on both single- and multi-shard pools.
        for shards in [1usize, 4] {
            let cost_a = shared_meter(CostConfig::default());
            let cost_b = shared_meter(CostConfig::default());
            let a = BufferPool::with_shards(400, shards, cost_a.clone());
            let b = BufferPool::with_shards(400, shards, cost_b.clone());
            a.access_run(FileId(1), 30, 200, &cost_a);
            for p in 30..230 {
                b.access(pid(1, p), &cost_b);
            }
            let (hits, misses) = a.access_run(FileId(1), 100, 64, &cost_a);
            let mut expect_hits = 0u64;
            for p in 100..164 {
                if b.access(pid(1, p), &cost_b) == Access::Hit {
                    expect_hits += 1;
                }
            }
            assert_eq!(hits, expect_hits, "{shards} shards");
            assert_eq!(hits + misses, 64);
            assert_eq!(a.stats(), b.stats(), "{shards} shards");
            assert_eq!(cost_a.total(), cost_b.total());
        }
    }

    #[test]
    fn sharded_pool_keeps_each_page_in_exactly_one_shard() {
        let cost = shared_meter(CostConfig::default());
        let p = BufferPool::with_shards(1024, 8, cost.clone());
        assert_eq!(p.num_shards(), 8);
        for i in 0..500 {
            p.access(pid(i % 5, i), &cost);
        }
        // Every accessed page is resident (capacity exceeds the working
        // set) and found again — residency was not lost or duplicated
        // across shards.
        let mut resident = 0;
        for i in 0..500 {
            if p.contains(pid(i % 5, i)) {
                resident += 1;
            }
        }
        assert_eq!(resident, 500);
        assert_eq!(p.len(), 500);
        let stats = p.stats();
        assert_eq!(stats.hits + stats.misses, 500);
    }

    #[test]
    fn concurrent_accesses_conserve_counters() {
        let cost = shared_meter(CostConfig::default());
        let p = Arc::new(BufferPool::with_shards(4096, 8, cost));
        let threads = 8;
        let per_thread = 5_000u32;
        std::thread::scope(|s| {
            for t in 0..threads {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    let meter = CostMeter::new(CostConfig::default());
                    for i in 0..per_thread {
                        p.access(pid(t, i % 700), &meter);
                    }
                    let snap = meter.snapshot();
                    assert_eq!(
                        snap.page_reads + snap.cache_hits,
                        per_thread as u64,
                        "every access charged exactly once"
                    );
                    // Scoped threads signal completion before TLS
                    // destructors run, so flush deferred pool state
                    // explicitly rather than relying on the drop guard.
                    p.flush_session();
                });
            }
        });
        let stats = p.stats();
        assert_eq!(stats.hits + stats.misses, threads as u64 * per_thread as u64);
    }

    #[test]
    fn heavy_mixed_workload_is_consistent() {
        // Cross-check against a naive reference implementation. The Vec
        // model is pure LRU, so pin the classic-LRU policy explicitly.
        let cost = shared_meter(CostConfig::default());
        let p = BufferPool::with_policy(8, 1, EvictionPolicy::Lru, cost.clone());
        let mut reference: Vec<PageId> = Vec::new(); // front = MRU
        let mut x: u64 = 12345;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let page = pid((x >> 33) as u32 % 3, (x >> 17) as u32 % 20);
            let expect_hit = reference.contains(&page);
            let got = p.access(page, &cost);
            assert_eq!(got == Access::Hit, expect_hit);
            reference.retain(|&q| q != page);
            reference.insert(0, page);
            reference.truncate(8);
        }
    }

    #[test]
    fn try_access_without_policy_matches_access() {
        let (a, cost_a) = pool(4);
        let (b, cost_b) = pool(4);
        for i in 0..10 {
            let got = a.try_access(pid(0, i % 6), &cost_a).expect("no policy, no faults");
            assert_eq!(got, b.access(pid(0, i % 6), &cost_b));
        }
        assert_eq!(cost_a.total(), cost_b.total());
        assert_eq!(a.hits(), b.hits());
    }

    #[test]
    fn injected_fault_charges_nothing_and_leaves_state_alone() {
        let (p, cost) = pool(4);
        p.access(pid(0, 0), &cost);
        let before = cost.total();
        p.set_fault_policy(Some(crate::FaultPolicy::fail_from_nth(0)));
        let err = p.try_access(pid(0, 1), &cost).unwrap_err();
        assert_eq!(
            err,
            crate::StorageError::InjectedFault {
                file: FileId(0),
                page: 1
            }
        );
        assert_eq!(cost.total(), before, "failed read must not be charged");
        assert!(!p.contains(pid(0, 1)), "failed read must not become resident");
        assert!(p.contains(pid(0, 0)));
        // Removing the policy restores the infallible behaviour.
        p.set_fault_policy(None);
        assert!(p.try_access(pid(0, 1), &cost).is_ok());
    }

    #[test]
    fn try_access_run_commits_pages_before_the_fault() {
        let (p, cost) = pool(8);
        p.set_fault_policy(Some(crate::FaultPolicy::fail_from_nth(3)));
        let err = p.try_access_run(FileId(2), 0, 6, &cost).unwrap_err();
        assert_eq!(
            err,
            crate::StorageError::InjectedFault {
                file: FileId(2),
                page: 3
            }
        );
        for page in 0..3 {
            assert!(p.contains(pid(2, page)), "pre-fault pages were read");
        }
        for page in 3..6 {
            assert!(!p.contains(pid(2, page)), "post-fault pages were not");
        }
        assert!((cost.total() - 3.0).abs() < 1e-12, "three misses charged");
    }

    #[test]
    fn scoped_policy_spares_other_files() {
        let (p, cost) = pool(8);
        p.set_fault_policy(Some(
            crate::FaultPolicy::fail_from_nth(0).scoped_to(FileId(7)),
        ));
        assert!(p.try_access(pid(1, 0), &cost).is_ok());
        assert!(p.try_access_run(FileId(1), 0, 4, &cost).is_ok());
        assert!(p.try_access(pid(7, 0), &cost).is_err());
        let policy = p.fault_policy().expect("policy still installed");
        assert_eq!(policy.faults_injected(), 1);
    }

    #[test]
    fn backward_shift_keeps_table_and_list_coherent() {
        // Small capacity + many files forces constant eviction, exercising
        // hole-filling moves and the LRU relinking they require.
        let (p, cost) = pool(5);
        let mut x: u64 = 99;
        for step in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            p.access(pid((x >> 40) as u32 % 17, (x >> 20) as u32 % 13), &cost);
            assert!(p.len() <= 5);
            if step % 1024 == 0 {
                p.clear();
                assert!(p.is_empty());
            }
        }
        assert_eq!(p.hits() + p.misses(), 20_000);
    }

    #[test]
    fn optimistic_hits_keep_counters_and_costs_exact() {
        let (p, cost) = pool(4);
        assert_eq!(p.access(pid(0, 0), &cost), Access::Miss);
        for _ in 0..100 {
            assert_eq!(p.access(pid(0, 0), &cost), Access::Hit);
        }
        assert_eq!(p.hits(), 100, "deferred tallies flushed on read");
        assert_eq!(p.misses(), 1);
        assert!(
            (cost.total() - (1.0 + 100.0 * 0.01)).abs() < 1e-12,
            "meter charged per access, not per flush"
        );
    }

    #[test]
    fn deferred_tallies_survive_thread_exit_without_a_flush() {
        let cost = shared_meter(CostConfig::default());
        let p = Arc::new(BufferPool::new(64, cost));
        let worker = Arc::clone(&p);
        let meter = shared_meter(CostConfig::default());
        let m = Arc::clone(&meter);
        std::thread::spawn(move || {
            worker.access(pid(3, 1), &m); // miss
            for _ in 0..10 {
                worker.access(pid(3, 1), &m); // optimistic hits, never flushed
            }
        })
        .join()
        .expect("worker thread");
        // The worker never read stats; its drop guard absorbed the tally.
        let stats = p.stats();
        assert_eq!(stats.hits, 10);
        assert_eq!(stats.misses, 1);
        assert_eq!(meter.snapshot().cache_hits, 10);
    }

    #[test]
    fn sentinel_page_takes_the_locked_path_correctly() {
        // (u32::MAX, u32::MAX) packs to the mirror's vacant sentinel; it
        // must still classify, promote and count exactly.
        let (p, cost) = pool(2);
        let weird = pid(u32::MAX, u32::MAX);
        assert_eq!(p.access(weird, &cost), Access::Miss);
        assert_eq!(p.access(weird, &cost), Access::Hit);
        assert!(p.contains(weird));
        p.access(pid(0, 1), &cost); // weird becomes the LRU entry
        p.access(pid(0, 2), &cost); // evicts weird
        assert!(!p.contains(weird));
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 3);
    }

    #[test]
    fn mirror_tracks_table_through_evictions_and_clears() {
        let (p, cost) = pool(5);
        let mut x: u64 = 7;
        for step in 0..4_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            p.access(pid((x >> 40) as u32 % 11, (x >> 20) as u32 % 9), &cost);
            if step % 512 == 0 {
                p.flush_session();
                p.assert_mirror_consistent();
            }
            if step % 1500 == 0 {
                p.clear();
                p.assert_mirror_consistent();
            }
        }
        p.flush_session();
        p.assert_mirror_consistent();
    }

    #[test]
    fn flush_session_is_idempotent() {
        let (p, cost) = pool(4);
        p.access(pid(0, 0), &cost);
        p.access(pid(0, 0), &cost);
        p.flush_session();
        p.flush_session();
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 1);
    }
}
