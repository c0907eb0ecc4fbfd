//! The `Sync` facade: the few atomic operations the lock-free protocols
//! are written against.
//!
//! The storage crate has three concurrency protocols whose correctness is
//! argued rather than typechecked: the seqlock [`crate::mirror::ProbeMirror`],
//! the deferred touch-counter absorption in [`crate::touch`], and the
//! WAL-append/checkpoint LSN handoff in [`crate::lsn::WalTail`]. Each is
//! generic over a [`SyncFacade`] so the *same* protocol code runs in two
//! worlds:
//!
//! * [`RealSync`] — thin `#[inline]` wrappers over `std::sync::atomic`,
//!   the production instantiation. Every method is a direct delegation,
//!   so release codegen is identical to writing the std calls by hand
//!   (the hotpath bench gate holds this to "zero cost").
//! * `ModelSync` (in the `rdb-check` crate) — modeled atomics recorded by
//!   an exhaustive interleaving checker, which explores every schedule of
//!   bounded two/three-thread programs over the protocol and every
//!   admissible stale value a relaxed load may return.
//!
//! Protocol modules must route **all** loads/stores of protocol fields
//! through this facade; lint rule `S003` rejects direct atomic access to
//! mirror/meter fields anywhere else.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};

/// One 64-bit atomic word as seen by a protocol: the subset of the
/// `std::sync::atomic::AtomicU64` API the storage protocols actually use.
///
/// Orderings are the std [`Ordering`] enum in both worlds; the model
/// implementation interprets them with an explicit per-word modification
/// order instead of deferring to the hardware.
pub trait AtomicWord: Debug + Send + Sync + 'static {
    /// Creates a word holding `value`.
    fn new(value: u64) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> u64;
    /// Atomic store.
    fn store(&self, value: u64, order: Ordering);
    /// Atomic add; returns the previous value.
    fn fetch_add(&self, delta: u64, order: Ordering) -> u64;
    /// Atomic max; returns the previous value.
    fn fetch_max(&self, value: u64, order: Ordering) -> u64;
}

/// The world a protocol runs in: real atomics or the model checker.
///
/// Selected by generic parameter (defaulting to [`RealSync`]) so the
/// production build monomorphizes straight to std atomics.
pub trait SyncFacade: Debug + Send + Sync + 'static {
    /// The 64-bit atomic word type of this world.
    type Word: AtomicWord;
    /// Standalone memory fence.
    fn fence(order: Ordering);
}

/// The production world: std atomics, inlined.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealSync;

impl AtomicWord for AtomicU64 {
    #[inline(always)]
    fn new(value: u64) -> Self {
        AtomicU64::new(value)
    }

    #[inline(always)]
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }

    #[inline(always)]
    fn store(&self, value: u64, order: Ordering) {
        AtomicU64::store(self, value, order)
    }

    #[inline(always)]
    fn fetch_add(&self, delta: u64, order: Ordering) -> u64 {
        AtomicU64::fetch_add(self, delta, order)
    }

    #[inline(always)]
    fn fetch_max(&self, value: u64, order: Ordering) -> u64 {
        AtomicU64::fetch_max(self, value, order)
    }
}

impl SyncFacade for RealSync {
    type Word = AtomicU64;

    #[inline(always)]
    fn fence(order: Ordering) {
        std::sync::atomic::fence(order)
    }
}
