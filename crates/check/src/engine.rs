//! The execution engine: virtual threads, modeled memory, and the DFS
//! over schedules.
//!
//! # How a check runs
//!
//! A *program* is a closure over modeled primitives ([`crate::ModelSync`]
//! atomics, [`crate::ModelMutex`], [`spawn`]). The
//! explorer runs it to completion once per **schedule**: at every model
//! operation the executing virtual thread parks, and a controller picks
//! which parked thread runs next. Each such pick — and each admissible
//! stale value a relaxed load may return — is a recorded decision. After
//! a run completes, the deepest not-yet-exhausted decision is advanced
//! and the program re-executes from scratch down the new branch:
//! depth-first search over the whole bounded schedule tree.
//!
//! Virtual threads are real OS threads serialized by a condvar baton —
//! exactly one runs between two scheduling points, so user code between
//! operations needs no instrumentation.
//!
//! # The memory model
//!
//! Each atomic word keeps an explicit **modification order**: the list of
//! stores performed on it, each carrying the *message view* it publishes.
//! Threads carry vector-clock views mapping each word to the oldest store
//! index they may still read:
//!
//! * a load chooses (a DFS decision) among the stores at or above the
//!   thread's floor for that word — relaxed loads really do return stale
//!   values here;
//! * an `Acquire` load joins the chosen store's message view into the
//!   thread view; a `Relaxed` load stashes it, to be applied by a later
//!   acquire fence (C11 fence synchronization);
//! * a `Release` store publishes the thread view; a `Relaxed` store
//!   publishes the view captured at the last release fence;
//! * read-modify-writes read the newest store and continue its release
//!   sequence.
//!
//! `SeqCst` is approximated conservatively as acquire-release plus
//! read-newest; the storage protocols under check use only
//! relaxed/acquire/release and fences, so the approximation is never
//! load-bearing.
//!
//! # Pruning
//!
//! At every thread-choice decision the controller hashes the whole
//! modeled state (memory, views, mutexes, ghost state, plus each
//! thread's *observation history* — what its loads returned — which is
//! what makes pruning sound for deterministic programs). Subtrees rooted
//! at a state that some exhausted subtree already covered are skipped.

use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Index of a virtual thread.
pub type ThreadId = usize;

/// Per-word vector clock: for each atomic cell, the oldest store index
/// the holder may still read (coherence floor). Joining clocks is the
/// pointwise max.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct Clock(BTreeMap<u32, usize>);

impl Clock {
    fn floor(&self, cell: u32) -> usize {
        self.0.get(&cell).copied().unwrap_or(0)
    }

    fn raise(&mut self, cell: u32, idx: usize) {
        let e = self.0.entry(cell).or_insert(0);
        if idx > *e {
            *e = idx;
        }
    }

    fn join(&mut self, other: &Clock) {
        for (&cell, &idx) in &other.0 {
            self.raise(cell, idx);
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// One store in a word's modification order: the value plus the message
/// view it publishes to synchronizing readers.
#[derive(Debug, Clone, Hash)]
struct StoreMsg {
    val: u64,
    clock: Clock,
}

/// One modeled atomic word.
#[derive(Debug, Hash)]
struct Cell {
    /// The modification order; never empty (index 0 is the initial value).
    hist: Vec<StoreMsg>,
}

/// What a blocked thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum BlockOn {
    /// A [`crate::ModelMutex`], by index.
    Mutex(usize),
    /// Another virtual thread finishing.
    Join(ThreadId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Status {
    Live,
    Blocked(BlockOn),
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    /// True while the OS thread is waiting for a grant (or finished).
    parked: bool,
    /// Read floors plus everything acquired so far.
    view: Clock,
    /// Message views stashed by relaxed loads, applied at the next
    /// acquire fence.
    pending: Clock,
    /// View captured at the last release fence; published by subsequent
    /// relaxed stores.
    rel_fence: Clock,
    /// Model operations performed (the livelock bound).
    ops: u64,
    /// Hash of the values this thread has observed; part of the state
    /// hash so pruning never merges runs the program could distinguish.
    obs: u64,
}

impl ThreadState {
    fn child(view: Clock) -> ThreadState {
        ThreadState {
            status: Status::Live,
            parked: false,
            view,
            pending: Clock::default(),
            rel_fence: Clock::default(),
            ops: 0,
            obs: 0,
        }
    }
}

/// One modeled mutex.
#[derive(Debug, Hash)]
struct MutexState {
    owner: Option<ThreadId>,
    /// View released by the last unlock; joined on acquisition.
    clock: Clock,
}

/// One recorded decision: which of `arity` alternatives was taken.
/// `hash` is the pre-decision state hash for thread choices (the pruning
/// key); value choices carry `None`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Choice {
    chosen: u32,
    arity: u32,
    hash: Option<u64>,
}

/// Why a run stopped.
#[derive(Debug, Clone)]
pub(crate) struct Failure {
    /// Human-readable cause (panic message, deadlock, bound).
    pub message: String,
}

/// The shared mutable execution state, behind `Exec::state`.
pub(crate) struct ExecState {
    threads: Vec<ThreadState>,
    cells: Vec<Cell>,
    mutexes: Vec<MutexState>,
    schedule: Vec<Choice>,
    cursor: usize,
    running: Option<ThreadId>,
    failure: Option<Failure>,
    abort: bool,
    /// Global operation sequence number (ghost timestamps).
    op_seq: u64,
    /// Per-op human-readable trace, recorded when tracing is on.
    trace: Option<Vec<String>>,
    max_ops: u64,
}

/// One execution's shared context: the state, the baton condvar, the
/// ghost hashers, and the worker pool running virtual threads.
pub(crate) struct Exec {
    state: Mutex<ExecState>,
    cv: Condvar,
    ghosts: Mutex<Vec<Box<dyn Fn() -> u64 + Send>>>,
    pool: Arc<WorkerPool>,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: std::collections::VecDeque<Job>,
    idle: usize,
    closed: bool,
}

/// Reuses OS threads across the thousands of re-executions a DFS
/// performs: spawning a fresh thread per virtual thread per schedule
/// dominates exploration time otherwise. One pool lives for the whole
/// `explore`/`replay` call; workers exit at shutdown.
struct WorkerPool {
    queue: Mutex<PoolQueue>,
    cv: Condvar,
}

impl WorkerPool {
    fn new() -> Arc<WorkerPool> {
        Arc::new(WorkerPool {
            queue: Mutex::new(PoolQueue {
                jobs: std::collections::VecDeque::new(),
                idle: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn submit(self: &Arc<Self>, job: Job) {
        let mut q = lock(&self.queue);
        q.jobs.push_back(job);
        if q.idle == 0 {
            let pool = Arc::clone(self);
            std::thread::Builder::new()
                // The "rdb-check-vt" prefix keeps the quiet panic hook
                // applying to pooled virtual threads.
                .name("rdb-check-vt-pool".to_string())
                .spawn(move || pool.worker_loop())
                .expect("spawn pool worker");
        }
        drop(q);
        self.cv.notify_one();
    }

    fn worker_loop(self: Arc<Self>) {
        let mut q = lock(&self.queue);
        loop {
            while q.jobs.is_empty() && !q.closed {
                q.idle += 1;
                q = self.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
                q.idle -= 1;
            }
            let Some(job) = q.jobs.pop_front() else {
                return; // closed and drained
            };
            drop(q);
            job();
            q = lock(&self.queue);
        }
    }

    fn shutdown(&self) {
        lock(&self.queue).closed = true;
        self.cv.notify_all();
    }
}

thread_local! {
    /// The execution this OS thread belongs to, while acting as a virtual
    /// thread. Installed by the wrapper, cleared by its drop guard.
    static CURRENT: std::cell::RefCell<Option<(Arc<Exec>, ThreadId)>> =
        const { std::cell::RefCell::new(None) };
}

/// Clears [`CURRENT`] when a virtual-thread wrapper exits, panicking or
/// not, so a pooled test thread never leaks a dead execution handle.
struct CurrentGuard;

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.borrow_mut().take());
    }
}

/// Panic payload used to unwind virtual threads when a run is aborted
/// (prune, failure elsewhere, replay done). Never reported as a failure.
struct AbortToken;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn current() -> (Arc<Exec>, ThreadId) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("model primitive used outside a checker execution")
    })
}

fn is_acquire(order: Ordering) -> bool {
    matches!(order, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(order: Ordering) -> bool {
    matches!(order, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// FNV-style fold of one observation into a thread's history hash.
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// Outcome of one attempt at a blocking operation.
enum Attempt<R> {
    Ready(R),
    Block(BlockOn),
}

impl ExecState {
    /// Consumes the next decision (or records a fresh one) with `arity`
    /// alternatives; returns the branch to take. Used for value choices;
    /// thread choices go through the controller.
    fn choose(&mut self, arity: usize) -> usize {
        if arity <= 1 {
            return 0;
        }
        if self.cursor == self.schedule.len() {
            self.schedule.push(Choice {
                chosen: 0,
                arity: arity as u32,
                hash: None,
            });
        } else {
            let c = &mut self.schedule[self.cursor];
            if c.arity == 0 {
                // Replay schedules carry choices without arities; fill in.
                c.arity = arity as u32;
            }
            if c.chosen as usize >= arity {
                self.fail("replay schedule does not fit this program (bad branch index)");
                self.cursor += 1;
                return 0;
            }
        }
        let c = self.schedule[self.cursor];
        self.cursor += 1;
        c.chosen as usize
    }

    fn fail(&mut self, message: impl Into<String>) {
        if self.failure.is_none() {
            self.failure = Some(Failure {
                message: message.into(),
            });
        }
        self.abort = true;
    }

    fn trace(&mut self, line: impl FnOnce() -> String) {
        if let Some(t) = self.trace.as_mut() {
            t.push(line());
        }
    }

    // ---------------------------------------------------- memory model

    /// Allocates a fresh atomic word holding `init`.
    pub(crate) fn alloc_cell(&mut self, init: u64) -> u32 {
        let id = self.cells.len() as u32;
        self.cells.push(Cell {
            hist: vec![StoreMsg {
                val: init,
                clock: Clock::default(),
            }],
        });
        id
    }

    /// Atomic load: picks (as a DFS decision) among the admissible stores
    /// in the word's modification order and applies the synchronization
    /// the ordering grants.
    pub(crate) fn atomic_load(&mut self, tid: ThreadId, cell: u32, order: Ordering) -> u64 {
        let len = self.cells[cell as usize].hist.len();
        let lo = if order == Ordering::SeqCst {
            // Conservative SC approximation: read the newest store.
            len - 1
        } else {
            self.threads[tid].view.floor(cell).min(len - 1)
        };
        let pick = lo + self.choose(len - lo);
        let msg = self.cells[cell as usize].hist[pick].clone();
        let t = &mut self.threads[tid];
        t.view.raise(cell, pick);
        if is_acquire(order) {
            t.view.join(&msg.clock);
        } else {
            t.pending.join(&msg.clock);
        }
        t.obs = mix(t.obs, (u64::from(cell) << 32) ^ pick as u64);
        t.obs = mix(t.obs, msg.val);
        self.trace(|| format!("t{tid} load c{cell} -> {} (mo[{pick}], {order:?})", msg.val));
        msg.val
    }

    /// Atomic store: appends to the modification order, publishing the
    /// view the ordering dictates.
    pub(crate) fn atomic_store(&mut self, tid: ThreadId, cell: u32, val: u64, order: Ordering) {
        let idx = self.cells[cell as usize].hist.len();
        let t = &mut self.threads[tid];
        let mut msg = if is_release(order) {
            t.view.clone()
        } else {
            t.rel_fence.clone()
        };
        msg.raise(cell, idx);
        t.view.raise(cell, idx);
        self.cells[cell as usize].hist.push(StoreMsg { val, clock: msg });
        self.trace(|| format!("t{tid} store c{cell} <- {val} (mo[{idx}], {order:?})"));
    }

    /// Atomic read-modify-write: reads the newest store (RMW atomicity),
    /// writes `f(old)`, and continues the release sequence of the store
    /// it read.
    pub(crate) fn atomic_rmw(
        &mut self,
        tid: ThreadId,
        cell: u32,
        order: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let idx_read = self.cells[cell as usize].hist.len() - 1;
        let prev = self.cells[cell as usize].hist[idx_read].clone();
        let t = &mut self.threads[tid];
        t.view.raise(cell, idx_read);
        if is_acquire(order) {
            t.view.join(&prev.clock);
        } else {
            t.pending.join(&prev.clock);
        }
        t.obs = mix(t.obs, (u64::from(cell) << 32) ^ prev.val);
        let new = f(prev.val);
        let idx = idx_read + 1;
        let mut msg = if is_release(order) {
            t.view.clone()
        } else {
            t.rel_fence.clone()
        };
        // A RMW continues the release sequence headed by the store it
        // read: its message carries that store's view too, so a relaxed
        // RMW does not break an acquire/release chain.
        msg.join(&prev.clock);
        msg.raise(cell, idx);
        t.view.raise(cell, idx);
        self.cells[cell as usize].hist.push(StoreMsg {
            val: new,
            clock: msg,
        });
        self.trace(|| format!("t{tid} rmw c{cell} {} -> {new} ({order:?})", prev.val));
        prev.val
    }

    /// Standalone fence.
    pub(crate) fn fence(&mut self, tid: ThreadId, order: Ordering) {
        let t = &mut self.threads[tid];
        if is_acquire(order) {
            // Acquire fence: upgrade every earlier relaxed load — their
            // stashed message views become acquired now.
            let pending = std::mem::take(&mut t.pending);
            t.view.join(&pending);
            t.pending.clear();
        }
        if is_release(order) {
            t.rel_fence = t.view.clone();
        }
        self.trace(|| format!("t{tid} fence {order:?}"));
    }

    // --------------------------------------------------------- mutexes

    pub(crate) fn alloc_mutex(&mut self) -> usize {
        let id = self.mutexes.len();
        self.mutexes.push(MutexState {
            owner: None,
            clock: Clock::default(),
        });
        id
    }

    fn try_lock_mutex(&mut self, tid: ThreadId, m: usize) -> Attempt<()> {
        if self.mutexes[m].owner.is_some() {
            return Attempt::Block(BlockOn::Mutex(m));
        }
        self.mutexes[m].owner = Some(tid);
        let clock = self.mutexes[m].clock.clone();
        self.threads[tid].view.join(&clock);
        self.trace(|| format!("t{tid} lock m{m}"));
        Attempt::Ready(())
    }

    fn unlock_mutex(&mut self, tid: ThreadId, m: usize) {
        debug_assert_eq!(self.mutexes[m].owner, Some(tid));
        self.mutexes[m].clock = self.threads[tid].view.clone();
        self.mutexes[m].owner = None;
        self.trace(|| format!("t{tid} unlock m{m}"));
    }

    // ------------------------------------------------------ scheduling

    /// Threads the controller may grant right now, ascending.
    fn schedulable(&self) -> Vec<ThreadId> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.parked
                    && match t.status {
                        Status::Live => true,
                        Status::Blocked(BlockOn::Mutex(m)) => self.mutexes[m].owner.is_none(),
                        Status::Blocked(BlockOn::Join(o)) => {
                            self.threads[o].status == Status::Finished
                        }
                        Status::Finished => false,
                    }
            })
            .map(|(i, _)| i)
            .collect()
    }

    fn state_hash(&self, ghosts: &[Box<dyn Fn() -> u64 + Send>]) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for t in &self.threads {
            t.status.hash(&mut h);
            t.view.hash(&mut h);
            t.pending.hash(&mut h);
            t.rel_fence.hash(&mut h);
            t.ops.hash(&mut h);
            t.obs.hash(&mut h);
        }
        self.cells.hash(&mut h);
        self.mutexes.hash(&mut h);
        for g in ghosts {
            g().hash(&mut h);
        }
        h.finish()
    }
}

// ------------------------------------------------------------- op entry

/// Parks the calling virtual thread at a scheduling point, waits for the
/// controller's grant, then runs `f` on the locked state. `f` may be
/// re-attempted (blocking ops): returning `Attempt::Block` re-parks with
/// the given reason.
fn op_attempt<R>(mut f: impl FnMut(&mut ExecState, ThreadId) -> Attempt<R>) -> R {
    let (exec, tid) = current();
    let mut st = lock(&exec.state);
    if std::thread::panicking() {
        // Drop guards may perform model ops while a failing (or aborted)
        // run unwinds — e.g. a tally absorbing its pending count. The
        // run's fate is already decided, so apply the effect directly
        // instead of scheduling: parking here would panic again inside
        // the unwind and abort the whole process. Blocked resources are
        // force-released — mutual exclusion no longer matters in a run
        // whose result is discarded, and the owner may never run again.
        loop {
            match f(&mut st, tid) {
                Attempt::Ready(r) => return r,
                Attempt::Block(BlockOn::Mutex(m)) => st.mutexes[m].owner = None,
                Attempt::Block(BlockOn::Join(t)) => st.threads[t].status = Status::Finished,
            }
        }
    }
    loop {
        st.threads[tid].parked = true;
        st.running = None;
        exec.cv.notify_all();
        while st.running != Some(tid) {
            if st.abort {
                drop(st);
                panic::panic_any(AbortToken);
            }
            st = exec
                .cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if st.abort {
            drop(st);
            panic::panic_any(AbortToken);
        }
        match f(&mut st, tid) {
            Attempt::Ready(r) => {
                st.threads[tid].status = Status::Live;
                st.threads[tid].ops += 1;
                st.op_seq += 1;
                if st.threads[tid].ops > st.max_ops {
                    let bound = st.max_ops;
                    st.fail(format!(
                        "thread {tid} exceeded the {bound}-operation bound (livelock?)"
                    ));
                    drop(st);
                    panic::panic_any(AbortToken);
                }
                return r;
            }
            Attempt::Block(on) => {
                st.threads[tid].status = Status::Blocked(on);
            }
        }
    }
}

/// A non-blocking model operation: one scheduling point, then `f`.
pub(crate) fn op<R>(f: impl FnOnce(&mut ExecState, ThreadId) -> R) -> R {
    let mut f = Some(f);
    op_attempt(move |st, tid| {
        let g = f.take().expect("non-blocking op attempted twice");
        Attempt::Ready(g(st, tid))
    })
}

/// Runs `f` on the execution state *without* a scheduling point — for
/// bookkeeping (allocation, ghost timestamps) that is not a visible
/// memory action.
pub(crate) fn with_state<R>(f: impl FnOnce(&mut ExecState, ThreadId) -> R) -> R {
    let (exec, tid) = current();
    let mut st = lock(&exec.state);
    f(&mut st, tid)
}

/// Registers a ghost-state hasher for pruning soundness; returns nothing.
pub(crate) fn register_ghost(hasher: Box<dyn Fn() -> u64 + Send>) {
    let (exec, _) = current();
    lock(&exec.ghosts).push(hasher);
}

/// The global op sequence number — a ghost timestamp for linearization
/// interval assertions. Not a scheduling point.
pub fn now() -> u64 {
    with_state(|st, _| st.op_seq)
}

/// Folds an observation a harness made through ghost state into the
/// calling thread's observation hash, keeping pruning sound when ghost
/// data influences later assertions.
pub(crate) fn observe(x: u64) {
    with_state(|st, tid| {
        let t = &mut st.threads[tid];
        t.obs = mix(t.obs, x);
    });
}

/// A pure scheduling point: models a stretch of real work (a frame
/// write, a page copy) during which other threads may run and observe
/// shared state. No memory effect.
pub fn yield_now() {
    op(|st, tid| st.trace(|| format!("t{tid} yield")));
}

/// Locks a modeled mutex (one scheduling point; blocks until free).
pub(crate) fn mutex_lock(m: usize) {
    op_attempt(|st, tid| st.try_lock_mutex(tid, m));
}

/// Unlocks a modeled mutex (one scheduling point).
pub(crate) fn mutex_unlock(m: usize) {
    op(|st, tid| st.unlock_mutex(tid, m));
}

// ----------------------------------------------------------- threading

/// Handle to a spawned virtual thread.
#[derive(Debug)]
pub struct JoinHandle {
    tid: ThreadId,
}

impl JoinHandle {
    /// Blocks (virtually) until the thread finishes, acquiring its final
    /// view — the model analogue of `std::thread::JoinHandle::join`.
    pub fn join(self) {
        op_attempt(|st, tid| {
            let target = self.tid;
            if st.threads[target].status == Status::Finished {
                let v = st.threads[target].view.clone();
                st.threads[tid].view.join(&v);
                st.trace(|| format!("t{tid} joined t{target}"));
                Attempt::Ready(())
            } else {
                Attempt::Block(BlockOn::Join(target))
            }
        })
    }
}

/// Spawns a virtual thread running `f`. Must be called from inside a
/// checker execution.
pub fn spawn(f: impl FnOnce() + Send + 'static) -> JoinHandle {
    // The spawn itself is a scheduling point; the child inherits the
    // parent's view (thread creation synchronizes-with thread start).
    let tid = op(|st, me| {
        let view = st.threads[me].view.clone();
        let tid = st.threads.len();
        st.threads.push(ThreadState::child(view));
        st.trace(|| format!("t{me} spawned t{tid}"));
        tid
    });
    let (exec, _) = current();
    let exec2 = Arc::clone(&exec);
    let pool = Arc::clone(&exec.pool);
    pool.submit(Box::new(move || wrapper(exec2, tid, f)));
    JoinHandle { tid }
}

/// Body of every virtual OS thread: park for the first grant, run the
/// user closure (which parks at each model op), then mark finished —
/// recording a real panic as the run's failure.
fn wrapper(exec: Arc<Exec>, tid: ThreadId, f: impl FnOnce()) {
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
    let _guard = CurrentGuard;
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        // The start-of-thread scheduling point: user code runs only once
        // the controller grants this thread.
        op(|st, t| st.trace(|| format!("t{t} start")));
        f();
    }));
    let mut st = lock(&exec.state);
    if let Err(payload) = result {
        if payload.downcast_ref::<AbortToken>().is_none() {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            st.fail(format!("thread {tid} panicked: {msg}"));
        }
    }
    st.threads[tid].status = Status::Finished;
    st.threads[tid].parked = true;
    if st.running == Some(tid) {
        st.running = None;
    }
    exec.cv.notify_all();
}

// ------------------------------------------------------------ explorer

/// Exploration knobs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Per-thread model-operation bound; exceeding it fails the run.
    pub max_ops: u64,
    /// Cap on explored schedules; exceeding it yields [`Outcome::Capped`].
    pub max_schedules: u64,
    /// Enable state-hash subtree pruning.
    pub prune: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_ops: 5_000,
            max_schedules: 2_000_000,
            prune: true,
        }
    }
}

/// A failing schedule, reported so `--replay` can rerun it.
#[derive(Debug, Clone)]
pub struct FailReport {
    /// What went wrong (assertion message, deadlock, bound).
    pub message: String,
    /// The decision string to pass to `--replay`.
    pub schedule: String,
    /// Per-operation trace of the failing run (filled by replay runs).
    pub trace: Vec<String>,
}

/// Result of exploring a program.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Every schedule in the bounded tree passed.
    Pass {
        /// Schedules executed (pruned subtrees count once).
        schedules: u64,
        /// Runs cut short because their state was already covered.
        pruned: u64,
    },
    /// Some schedule failed.
    Fail(FailReport),
    /// The schedule cap was hit before the tree was exhausted.
    Capped {
        /// Schedules executed before giving up.
        schedules: u64,
    },
}

impl Outcome {
    /// True when the exploration proved every bounded schedule passes.
    pub fn passed(&self) -> bool {
        matches!(self, Outcome::Pass { .. })
    }
}

struct RunOutput {
    failure: Option<Failure>,
    pruned: bool,
    trace: Vec<String>,
}

/// Runs `program` once under `schedule` (extending it at fresh decision
/// points), returning the failure if any. `schedule` comes back possibly
/// extended; `done` is consulted for pruning only.
fn run_once(
    program: &Arc<dyn Fn() + Send + Sync>,
    schedule: &mut Vec<Choice>,
    done: &HashSet<u64>,
    cfg: &Config,
    trace: bool,
    pool: &Arc<WorkerPool>,
) -> RunOutput {
    let exec = Arc::new(Exec {
        state: Mutex::new(ExecState {
            threads: vec![ThreadState::child(Clock::default())],
            cells: Vec::new(),
            mutexes: Vec::new(),
            schedule: std::mem::take(schedule),
            cursor: 0,
            running: None,
            failure: None,
            abort: false,
            op_seq: 0,
            trace: trace.then(Vec::new),
            max_ops: cfg.max_ops,
        }),
        cv: Condvar::new(),
        ghosts: Mutex::new(Vec::new()),
        pool: Arc::clone(pool),
    });

    install_quiet_panic_hook();
    {
        let p = Arc::clone(program);
        let exec2 = Arc::clone(&exec);
        pool.submit(Box::new(move || wrapper(exec2, 0, move || p())));
    }

    let mut pruned = false;
    let mut st = lock(&exec.state);
    loop {
        while !(st.running.is_none() && st.threads.iter().all(|t| t.parked)) {
            st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.failure.is_some() || st.abort {
            break;
        }
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            if st.cursor < st.schedule.len() {
                st.fail("program finished before consuming its schedule (nondeterministic?)");
            }
            break;
        }
        let sched = st.schedulable();
        if sched.is_empty() {
            let blocked: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status != Status::Finished)
                .map(|(i, t)| format!("t{i} {:?}", t.status))
                .collect();
            st.fail(format!("deadlock: {}", blocked.join(", ")));
            break;
        }
        let pick = if sched.len() == 1 {
            sched[0]
        } else {
            if st.cursor == st.schedule.len() {
                let h = st.state_hash(&lock(&exec.ghosts));
                if cfg.prune && done.contains(&h) {
                    pruned = true;
                    st.abort = true;
                    break;
                }
                st.schedule.push(Choice {
                    chosen: 0,
                    arity: sched.len() as u32,
                    hash: Some(h),
                });
            } else {
                let cursor = st.cursor;
                let c = &mut st.schedule[cursor];
                if c.arity == 0 {
                    c.arity = sched.len() as u32;
                }
                if c.chosen as usize >= sched.len() {
                    st.fail("replay schedule does not fit this program (bad thread index)");
                    break;
                }
            }
            let c = st.schedule[st.cursor];
            st.cursor += 1;
            sched[c.chosen as usize]
        };
        st.threads[pick].parked = false;
        st.running = Some(pick);
        exec.cv.notify_all();
    }

    // Drain: wake everything with the abort flag up and wait for every
    // virtual thread to unwind.
    st.abort = true;
    exec.cv.notify_all();
    while !st.threads.iter().all(|t| t.status == Status::Finished) {
        st = exec.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        exec.cv.notify_all();
    }
    let failure = st.failure.take();
    let run_trace = st.trace.take().unwrap_or_default();
    *schedule = std::mem::take(&mut st.schedule);
    drop(st);
    RunOutput {
        failure,
        pruned,
        trace: run_trace,
    }
}

/// Silences panic output from checker virtual threads (each failing
/// schedule deliberately panics; thousands may be explored). Installed
/// once, chains to the previous hook for every other thread.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let quiet = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("rdb-check-vt"));
            if !quiet {
                prev(info);
            }
        }));
    });
}

fn encode_schedule(schedule: &[Choice]) -> String {
    schedule
        .iter()
        .map(|c| c.chosen.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

/// A `--replay` decision string that failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleParseError {
    /// The token that is not a decision index.
    pub token: String,
}

impl std::fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad schedule token {:?}", self.token)
    }
}

impl std::error::Error for ScheduleParseError {}

/// Parses a `--replay` decision string (`"1.0.2"`).
pub fn parse_schedule(s: &str) -> Result<Vec<u32>, ScheduleParseError> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split('.')
        .map(|tok| {
            tok.trim().parse::<u32>().map_err(|_| ScheduleParseError {
                token: tok.to_string(),
            })
        })
        .collect()
}

/// Explores every schedule of `program` (depth-first, pruned) under
/// `cfg`.
pub fn explore(cfg: &Config, program: impl Fn() + Send + Sync + 'static) -> Outcome {
    let pool = WorkerPool::new();
    let out = explore_with(cfg, Arc::new(program), &pool);
    pool.shutdown();
    out
}

fn explore_with(
    cfg: &Config,
    program: Arc<dyn Fn() + Send + Sync>,
    pool: &Arc<WorkerPool>,
) -> Outcome {
    let mut schedule: Vec<Choice> = Vec::new();
    let mut done: HashSet<u64> = HashSet::new();
    let mut schedules = 0u64;
    let mut pruned = 0u64;
    loop {
        if schedules >= cfg.max_schedules {
            return Outcome::Capped { schedules };
        }
        schedules += 1;
        let run = run_once(&program, &mut schedule, &done, cfg, false, pool);
        if let Some(f) = run.failure {
            return Outcome::Fail(FailReport {
                message: f.message,
                schedule: encode_schedule(&schedule),
                trace: run.trace,
            });
        }
        if run.pruned {
            pruned += 1;
        }
        loop {
            match schedule.last() {
                None => return Outcome::Pass { schedules, pruned },
                Some(c) if c.chosen + 1 < c.arity => {
                    let last = schedule.last_mut().expect("nonempty");
                    last.chosen += 1;
                    break;
                }
                Some(c) => {
                    if let Some(h) = c.hash {
                        done.insert(h);
                    }
                    schedule.pop();
                }
            }
        }
    }
}

/// Reruns exactly one schedule (from a [`FailReport`] or `--replay`),
/// with per-operation tracing on. Fresh decision points beyond the given
/// prefix take branch 0.
pub fn replay(cfg: &Config, decisions: &[u32], program: impl Fn() + Send + Sync + 'static) -> RunReport {
    let program: Arc<dyn Fn() + Send + Sync> = Arc::new(program);
    let mut schedule: Vec<Choice> = decisions
        .iter()
        .map(|&chosen| Choice {
            chosen,
            arity: 0,
            hash: None,
        })
        .collect();
    let done = HashSet::new();
    let pool = WorkerPool::new();
    let run = run_once(&program, &mut schedule, &done, cfg, true, &pool);
    pool.shutdown();
    RunReport {
        failure: run.failure.map(|f| f.message),
        trace: run.trace,
        schedule: encode_schedule(&schedule),
    }
}

/// Outcome of a single replayed schedule.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The failure message, if the run failed.
    pub failure: Option<String>,
    /// Per-operation trace of the run.
    pub trace: Vec<String>,
    /// The full decision string actually taken (prefix + defaults).
    pub schedule: String,
}
