//! Sequential read-ahead window: the per-scan state machine behind
//! batched disk reads.
//!
//! A beyond-RAM sequential scan misses on page after page; without
//! batching every miss performs its own positioned read. [`ReadAhead`]
//! turns that into one batched
//! [`verify_run`](crate::store::PageStore::verify_run) per *window*: when
//! the scan misses on a page with no window coverage, the heap builds a
//! run of upcoming clean, on-disk, non-resident pages, reads them all at
//! once, and parks the per-frame outcomes here. Subsequent misses consume
//! their parked outcome instead of touching the store — a torn frame
//! surfaces exactly when the scan reaches the page it belongs to, never
//! earlier.
//!
//! The window owns what a batched read needs: one byte buffer the store
//! stages the run's frames in, and the outcome vector. Both are reused
//! from window to window, so a scan allocates while its depth grows and
//! not at all once it has settled — a fresh 256 KiB buffer per 64-page
//! window would cost more than the reads it batches.
//!
//! # Adaptive depth
//!
//! The window starts at [`MIN_DEPTH`] frames. Each time a new window is
//! filled, the previous window's fate decides the next size: fully
//! consumed doubles the depth (up to [`MAX_DEPTH`]) — the scan is
//! genuinely sequential and longer runs amortize better; any unused frame
//! halves it (down to `MIN_DEPTH`) — the scan is stopping short or the
//! pages keep turning resident, so fetching ahead is wasted work. The
//! depth therefore tracks the observed sequentiality of the access
//! pattern, not a static guess.

use crate::error::StorageError;

/// Smallest (and initial) read-ahead window, in frames.
pub const MIN_DEPTH: u32 = 4;

/// Largest read-ahead window, in frames.
pub const MAX_DEPTH: u32 = 64;

/// Per-scan read-ahead state: the current window of deferred per-frame
/// outcomes plus the adaptive depth.
#[derive(Debug, Clone, Default)]
pub struct ReadAhead {
    /// Page number of the window's first frame.
    first: u32,
    /// Deferred outcome per frame, `None` once consumed.
    outcomes: Vec<Option<Result<(), StorageError>>>,
    /// Frames of the current window already consumed.
    taken: usize,
    /// Next window size, in frames (0 until the first `fill`, which
    /// initializes it to [`MIN_DEPTH`]).
    depth: u32,
    /// The store's staging buffer for a window's frames, kept across
    /// windows (contents are the store's business, never read here).
    buf: Vec<u8>,
}

impl ReadAhead {
    /// Fresh state with an empty window.
    pub fn new() -> Self {
        ReadAhead {
            first: 0,
            outcomes: Vec::new(),
            taken: 0,
            depth: MIN_DEPTH,
            buf: Vec::new(),
        }
    }

    /// Frames the next window should cover, given how the previous ones
    /// went.
    pub fn depth(&self) -> u32 {
        self.depth.clamp(MIN_DEPTH, MAX_DEPTH)
    }

    /// Takes the deferred outcome for `page` out of the window, if the
    /// window covers it and it has not been consumed yet.
    pub fn take(&mut self, page: u32) -> Option<Result<(), StorageError>> {
        let at = page.checked_sub(self.first)? as usize;
        let out = self.outcomes.get_mut(at)?.take();
        if out.is_some() {
            self.taken += 1;
        }
        out
    }

    /// Installs a new window starting at page `first`, adapting the depth
    /// to the fate of the window being replaced: fully consumed doubles
    /// it, any unused frame halves it. `read` performs the batched read:
    /// it gets the window's staging buffer and a sink that takes one
    /// outcome per frame, in page order.
    pub fn fill(
        &mut self,
        first: u32,
        read: impl FnOnce(&mut Vec<u8>, &mut dyn FnMut(Result<(), StorageError>)),
    ) {
        if !self.outcomes.is_empty() {
            self.depth = if self.taken == self.outcomes.len() {
                (self.depth() * 2).min(MAX_DEPTH)
            } else {
                (self.depth() / 2).max(MIN_DEPTH)
            };
        }
        self.first = first;
        self.taken = 0;
        let outcomes = &mut self.outcomes;
        outcomes.clear();
        read(&mut self.buf, &mut |outcome| outcomes.push(Some(outcome)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::FileId;

    fn window(n: usize) -> Vec<Result<(), StorageError>> {
        vec![Ok(()); n]
    }

    fn fill(ra: &mut ReadAhead, first: u32, outcomes: Vec<Result<(), StorageError>>) {
        ra.fill(first, |_, each| outcomes.into_iter().for_each(each));
    }

    #[test]
    fn take_consumes_each_frame_once() {
        let mut ra = ReadAhead::new();
        assert!(ra.take(0).is_none(), "empty window covers nothing");
        fill(&mut ra, 10, window(3));
        assert!(ra.take(9).is_none(), "below the window");
        assert!(ra.take(13).is_none(), "past the window");
        assert_eq!(ra.take(11), Some(Ok(())));
        assert!(ra.take(11).is_none(), "a frame is consumed once");
        assert_eq!(ra.take(10), Some(Ok(())));
        assert_eq!(ra.take(12), Some(Ok(())));
    }

    #[test]
    fn deferred_error_surfaces_on_its_own_page() {
        let mut ra = ReadAhead::new();
        let torn = StorageError::TornPage {
            file: FileId(1),
            page: 6,
        };
        fill(&mut ra, 5, vec![Ok(()), Err(torn.clone()), Ok(())]);
        assert_eq!(ra.take(5), Some(Ok(())));
        assert_eq!(ra.take(6), Some(Err(torn)));
        assert_eq!(ra.take(7), Some(Ok(())));
    }

    #[test]
    fn depth_doubles_when_fully_consumed_and_halves_otherwise() {
        let mut ra = ReadAhead::new();
        assert_eq!(ra.depth(), MIN_DEPTH);
        fill(&mut ra, 0, window(MIN_DEPTH as usize));
        assert_eq!(ra.depth(), MIN_DEPTH, "first window never adapts");
        for p in 0..MIN_DEPTH {
            ra.take(p);
        }
        fill(&mut ra, MIN_DEPTH, window(8));
        assert_eq!(ra.depth(), MIN_DEPTH * 2, "full consumption doubles");
        // Leave one frame unused: the next fill halves the depth.
        for p in MIN_DEPTH..MIN_DEPTH + 7 {
            ra.take(p);
        }
        fill(&mut ra, 100, window(4));
        assert_eq!(ra.depth(), MIN_DEPTH, "waste halves, floored at MIN");
    }

    #[test]
    fn depth_saturates_at_max() {
        let mut ra = ReadAhead::new();
        let mut first = 0u32;
        for _ in 0..10 {
            let n = ra.depth();
            fill(&mut ra, first, window(n as usize));
            for p in first..first + n {
                ra.take(p);
            }
            first += n;
        }
        fill(&mut ra, first, window(1));
        assert_eq!(ra.depth(), MAX_DEPTH);
    }
}
