//! The model world: `ModelSync` (the checker's [`SyncFacade`]), modeled
//! mutexes, and ghost state for specification-only bookkeeping.
//!
//! Everything here may only be used inside a program run by
//! [`crate::explore`] / [`crate::replay`]; constructing a model primitive
//! outside an execution panics with a clear message.

use std::cell::UnsafeCell;
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use rdb_storage::sync::{AtomicWord, SyncFacade};

use crate::engine;

/// The checker's world: modeled atomics and fences, recorded and
/// explored by the engine. Plugs into the storage protocols through the
/// same [`SyncFacade`] the production [`rdb_storage::RealSync`] uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelSync;

/// A modeled 64-bit atomic word: an index into the execution's cell
/// table. Cheap to copy around; all state lives in the engine.
#[derive(Debug)]
pub struct ModelWord {
    cell: u32,
}

impl AtomicWord for ModelWord {
    fn new(value: u64) -> Self {
        ModelWord {
            cell: engine::with_state(|st, _| st.alloc_cell(value)),
        }
    }

    fn load(&self, order: Ordering) -> u64 {
        engine::op(|st, tid| st.atomic_load(tid, self.cell, order))
    }

    fn store(&self, value: u64, order: Ordering) {
        engine::op(|st, tid| st.atomic_store(tid, self.cell, value, order))
    }

    fn fetch_add(&self, delta: u64, order: Ordering) -> u64 {
        engine::op(|st, tid| st.atomic_rmw(tid, self.cell, order, |v| v.wrapping_add(delta)))
    }

    fn fetch_max(&self, value: u64, order: Ordering) -> u64 {
        engine::op(|st, tid| st.atomic_rmw(tid, self.cell, order, |v| v.max(value)))
    }
}

// SAFETY: a ModelWord is only an index; all mutation happens inside the
// engine's state mutex.
unsafe impl Send for ModelWord {}
// SAFETY: as above — shared references never touch unsynchronized data.
unsafe impl Sync for ModelWord {}

impl SyncFacade for ModelSync {
    type Word = ModelWord;

    fn fence(order: Ordering) {
        engine::op(|st, tid| st.fence(tid, order));
    }
}

/// A modeled mutex: lock acquisition is a scheduling point that blocks
/// the virtual thread while another owns it; unlock releases the owner's
/// view to the next acquirer (the usual mutex happens-before edge).
#[derive(Debug)]
pub struct ModelMutex<T> {
    id: usize,
    data: UnsafeCell<T>,
}

// SAFETY: access to `data` only happens between the modeled lock and
// unlock operations, which the engine serializes: at most one virtual
// thread owns the mutex, and at most one virtual thread runs at all;
// real-memory visibility rides on the engine's state-mutex handoffs.
unsafe impl<T: Send> Send for ModelMutex<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for ModelMutex<T> {}

impl<T: Send> ModelMutex<T> {
    /// A fresh modeled mutex guarding `value`.
    pub fn new(value: T) -> Self {
        ModelMutex {
            id: engine::with_state(|st, _| st.alloc_mutex()),
            data: UnsafeCell::new(value),
        }
    }

    /// Locks, runs `f` on the guarded data, unlocks. The closure runs
    /// between two scheduling points; operations inside it (modeled
    /// atomics, ghost updates) interleave as usual.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        engine::mutex_lock(self.id);
        // SAFETY: we hold the modeled lock (see the Sync impl argument),
        // so no other virtual thread can be between lock and unlock for
        // this mutex, and only one virtual thread runs at a time.
        let r = f(unsafe { &mut *self.data.get() });
        engine::mutex_unlock(self.id);
        r
    }
}

/// Ghost (auxiliary) state: specification-only data a harness updates at
/// linearization points and checks in assertions. Ghost access is **not**
/// a scheduling point and takes no part in the memory model — it is the
/// standard auxiliary-variable device of model checking.
///
/// Soundness contract: harness code must not *branch* on ghost data
/// except to panic (assert). The engine folds each post-access snapshot
/// hash into the pruning key, which covers mutations and assertions but
/// not silent control flow.
#[derive(Debug)]
pub struct Ghost<T> {
    inner: Arc<GhostInner<T>>,
}

#[derive(Debug)]
struct GhostInner<T> {
    data: UnsafeCell<T>,
}

// SAFETY: only the single running virtual thread (or the controller
// while every thread is parked) touches `data`; the engine's state mutex
// provides the real-memory handoff between them.
unsafe impl<T: Send> Send for GhostInner<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for GhostInner<T> {}

impl<T: Hash + Send + 'static> Ghost<T> {
    /// Fresh ghost state, registered with the engine so its content
    /// participates in the pruning state hash.
    pub fn new(init: T) -> Self {
        let inner = Arc::new(GhostInner {
            data: UnsafeCell::new(init),
        });
        let weak = Arc::downgrade(&inner);
        engine::register_ghost(Box::new(move || {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            if let Some(g) = weak.upgrade() {
                // SAFETY: the controller calls hashers only while every
                // virtual thread is parked (see GhostInner's Sync
                // argument).
                unsafe { &*g.data.get() }.hash(&mut h);
            }
            h.finish()
        }));
        Ghost { inner }
    }

    /// Mutably accesses the ghost data. Exclusive by construction: only
    /// the running virtual thread executes user code.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        // SAFETY: see GhostInner's Sync argument — single running thread.
        let r = f(unsafe { &mut *self.inner.data.get() });
        // Fold the post-access content into the thread's observation
        // hash so pruning distinguishes runs whose ghost state diverged.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // SAFETY: as above.
        unsafe { &*self.inner.data.get() }.hash(&mut h);
        engine::observe(h.finish());
        r
    }
}

impl<T> Clone for Ghost<T> {
    fn clone(&self) -> Self {
        Ghost {
            inner: Arc::clone(&self.inner),
        }
    }
}
