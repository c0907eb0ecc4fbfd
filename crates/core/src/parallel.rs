//! The worker-thread background driver: the Jscan competition runs on an
//! OS thread while the tactic's foreground proceeds on the caller's.
//!
//! The tactic bodies in [`crate::tactics`] are written against a
//! [`Background`] driver. The cooperative driver interleaves quanta on
//! one thread; [`Threaded`] is the *real-concurrency* one: [`drive`] puts
//! the joint scan (index-range scans + RID-list builds) on a
//! `std::thread::scope` worker that streams what it learns — a tightened
//! guaranteed-best cost, fresh borrowable RIDs, and finally the
//! [`JscanOutcome`] — back through an mpsc channel, and hands the tactic a driver that turns
//! those messages into the answers the tactic asks for. Nothing about the
//! tactics themselves lives here.
//!
//! What is this module's own:
//!
//! * **The abandon latch.** Dropping the driver raises it, so every way
//!   out of a tactic — limit reached, foreground finished, a storage
//!   fault propagated with `?`, a panic — stops the worker within one
//!   Jscan quantum instead of letting it finish a scan nobody will read.
//! * **The private meter.** The worker charges a meter of its own so the
//!   foreground's direct-competition arithmetic (its spend against the
//!   background's guaranteed best) stays unpolluted by concurrent
//!   charging; [`drive`] absorbs it into the session meter once the
//!   worker has joined (see [`rdb_storage::CostMeter::absorb`]) and books
//!   it to the run's `jscan` phase, so the session's bill — and the trace
//!   — still cover all work done on its behalf, on every exit path.
//!
//! Trace events from the worker are stamped
//! [`crate::trace::Stage::Background`] by giving the Jscan a
//! [`crate::trace::Tracer::for_stage`] handle before it moves to the
//! worker thread; sinks are `Send + Sync`, so foreground and background
//! events interleave safely in one buffer.
//!
//! Determinism note: delivered *row sets* are identical to the cooperative
//! driver's (the exclusion logic is interleaving-independent), but
//! delivery order and per-run cost splits depend on thread timing. The
//! simulation harness therefore keeps the cooperative driver as its
//! differential oracle; this one is opt-in via
//! [`crate::DynamicConfig::parallel`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

use rdb_storage::{Rid, SharedCost};

use crate::jscan::{Jscan, JscanOutcome, JscanStatus};
use crate::tactics::{Background, Turn};
use crate::trace::RunTrace;

/// One refinement message from the background worker to the foreground.
enum BgrUpdate {
    /// The competition moved: a new guaranteed-best bound and any RIDs
    /// freshly available for foreground borrowing.
    Progress {
        guaranteed_best: f64,
        fresh_rids: Vec<Rid>,
    },
    /// The joint scan finished with this outcome.
    Done(JscanOutcome),
}

/// Worker loop: steps the Jscan to completion, streaming refinements.
/// Exits early (without an outcome) when `abandon` is raised or the
/// foreground hung up.
fn background_worker(jscan: Jscan<'_>, tx: mpsc::Sender<BgrUpdate>, abandon: &AtomicBool) {
    let pool = jscan.pool().clone();
    background_worker_inner(jscan, tx, abandon);
    // Scoped-thread completion is observable before TLS destructors run,
    // so the worker flushes its deferred buffer-pool state (hit tallies +
    // LRU promotions) itself — the foreground may read pool stats the
    // moment the scope ends.
    pool.flush_session();
}

fn background_worker_inner(
    mut jscan: Jscan<'_>,
    tx: mpsc::Sender<BgrUpdate>,
    abandon: &AtomicBool,
) {
    let mut cursor = 0usize;
    let mut last_best = f64::INFINITY;
    loop {
        // Relaxed: the abandon flag is an advisory latch — the background
        // stage may run at most one extra quantum after it flips, and all
        // result hand-off happens through the channel/join, which orders.
        if abandon.load(Ordering::Relaxed) {
            return;
        }
        let status = jscan.step();
        let (next, fresh) = jscan.borrow_rids(cursor);
        let fresh_rids = fresh.to_vec();
        cursor = next;
        if status == JscanStatus::Finished {
            let _ = tx.send(BgrUpdate::Done(jscan.take_outcome()));
            return;
        }
        let best = jscan.guaranteed_best();
        if !fresh_rids.is_empty() || best != last_best {
            last_best = best;
            let update = BgrUpdate::Progress {
                guaranteed_best: best,
                fresh_rids,
            };
            if tx.send(update).is_err() {
                return; // foreground gone: nothing left to refine
            }
        }
    }
}

/// The worker-thread [`Background`]: turns are taken from the channel —
/// the background's "turn" comes when it has finished — and the
/// foreground runs whenever the channel has nothing to say.
pub(crate) struct Threaded<'s> {
    rx: mpsc::Receiver<BgrUpdate>,
    abandon: &'s AtomicBool,
    /// True until the tactic has been handed the Jscan's outcome (or
    /// stopped the worker, or the worker vanished without one).
    open: bool,
    /// The outcome, received but not yet asked for.
    finished: Option<JscanOutcome>,
    fgr_active: bool,
    /// Whether the foreground reads the borrow stream at all; if not, the
    /// RIDs the worker streams are dropped on receipt.
    borrowing: bool,
    pending: VecDeque<Rid>,
    guaranteed_best: f64,
}

impl Threaded<'_> {
    /// Takes at most one message off the channel, waiting for it if
    /// `block` — which is how a foreground with nothing to do sleeps
    /// instead of spinning.
    fn receive(&mut self, block: bool) {
        let update = if block {
            self.rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
        } else {
            self.rx.try_recv()
        };
        match update {
            Ok(BgrUpdate::Progress {
                guaranteed_best,
                fresh_rids,
            }) => {
                self.guaranteed_best = guaranteed_best;
                if self.borrowing {
                    self.pending.extend(fresh_rids);
                }
            }
            Ok(BgrUpdate::Done(finished)) => self.finished = Some(finished),
            Err(mpsc::TryRecvError::Empty) => {}
            Err(mpsc::TryRecvError::Disconnected) => self.open = false,
        }
    }
}

impl Background for Threaded<'_> {
    fn turn(&mut self) -> Option<Turn> {
        loop {
            if self.finished.is_some() {
                return Some(Turn::Background);
            }
            if !self.open {
                return self.fgr_active.then_some(Turn::Foreground);
            }
            // With no foreground left there is nothing to do but wait for
            // the background's word.
            self.receive(!self.fgr_active);
            if self.fgr_active && self.finished.is_none() {
                return Some(Turn::Foreground);
            }
        }
    }

    fn step(&mut self, _rt: &mut RunTrace<'_>) -> Option<JscanOutcome> {
        let finished = self.finished.take()?;
        self.open = false;
        Some(finished)
    }

    fn borrow(&mut self) -> Option<Rid> {
        if self.pending.is_empty() && self.open && self.finished.is_none() {
            self.receive(true);
        }
        self.pending.pop_front()
    }

    fn borrow_open(&self) -> bool {
        self.open
    }

    fn guaranteed_best(&self) -> f64 {
        self.guaranteed_best
    }

    fn retire_foreground(&mut self) {
        self.fgr_active = false;
        self.borrowing = false;
        self.pending.clear();
    }

    fn stop(&mut self) -> bool {
        // Relaxed: advisory latch (see the worker's load).
        self.abandon.store(true, Ordering::Relaxed);
        self.finished = None;
        std::mem::replace(&mut self.open, false)
    }
}

impl Drop for Threaded<'_> {
    fn drop(&mut self) {
        // Relaxed: advisory latch (see the worker's load).
        self.abandon.store(true, Ordering::Relaxed);
    }
}

/// Runs `body` — a tactic — against a worker-thread background.
///
/// `build` makes the Jscan over the private meter it is given; the worker
/// owns it from then on. `borrowing` says whether the tactic's foreground
/// will [`Background::borrow`]. When `body` is done — returned or unwinding
/// — the driver is dropped, so the worker stops within a quantum and the
/// scope joins it; whatever `body` returned, `Err` included, the private
/// meter is then absorbed into `session` and booked to the `jscan` phase
/// of `rt`.
pub(crate) fn drive<'a, R>(
    build: impl FnOnce(&SharedCost) -> Jscan<'a>,
    borrowing: bool,
    session: &SharedCost,
    rt: &mut RunTrace<'_>,
    body: impl FnOnce(&mut Threaded<'_>, &mut RunTrace<'_>) -> R,
) -> R {
    let private = rdb_storage::shared_meter(session.config());
    let jscan = build(&private);
    let abandon = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel();
    let mut driver = Threaded {
        rx,
        abandon: &abandon,
        open: true,
        finished: None,
        fgr_active: true,
        borrowing,
        pending: VecDeque::new(),
        guaranteed_best: jscan.guaranteed_best(),
    };
    let result = std::thread::scope(|s| {
        s.spawn(|| background_worker(jscan, tx, &abandon));
        let result = body(&mut driver, rt);
        drop(driver);
        result
    });
    session.absorb(&private.snapshot());
    rt.phase("jscan");
    result
}
