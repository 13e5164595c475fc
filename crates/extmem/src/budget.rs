//! Internal-memory budget accounting.
//!
//! The external-memory model gives an algorithm `M` blocks of internal
//! memory. The paper's experiments vary exactly this parameter (Figure 5), so
//! the substrate makes the budget explicit: every structure that pins block
//! frames in memory (stream buffers, stack windows, sort buffers, merge
//! fan-in buffers) must reserve them from a shared [`MemoryBudget`] first.
//! Reservations are RAII guards, so frames are returned automatically.

use std::cell::Cell;
use std::rc::Rc;

use crate::error::{ExtError, Result};

#[derive(Debug)]
struct Inner {
    total: usize,
    used: Cell<usize>,
    high_water: Cell<usize>,
}

/// A shared budget of `M` internal-memory block frames.
#[derive(Clone, Debug)]
pub struct MemoryBudget {
    inner: Rc<Inner>,
}

impl MemoryBudget {
    /// A budget of `total_frames` block frames (the paper's `m = M/B`).
    pub fn new(total_frames: usize) -> Self {
        Self {
            inner: Rc::new(Inner {
                total: total_frames,
                used: Cell::new(0),
                high_water: Cell::new(0),
            }),
        }
    }

    /// Total frames in the budget.
    pub fn total_frames(&self) -> usize {
        self.inner.total
    }

    /// Frames currently reserved.
    pub fn used_frames(&self) -> usize {
        self.inner.used.get()
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> usize {
        self.inner.total - self.inner.used.get()
    }

    /// Highest simultaneous reservation seen, for post-hoc verification that
    /// an algorithm stayed within `M`.
    pub fn high_water_frames(&self) -> usize {
        self.inner.high_water.get()
    }

    /// Reserve `n` frames, failing if fewer than `n` are free.
    pub fn reserve(&self, n: usize) -> Result<FrameGuard> {
        if !self.take(n) {
            return Err(ExtError::BudgetExceeded { requested: n, free: self.free_frames() });
        }
        Ok(FrameGuard { budget: self.clone(), frames: n })
    }

    /// Count `n` more frames as used if that many are free.
    fn take(&self, n: usize) -> bool {
        let used = self.inner.used.get();
        if used + n > self.inner.total {
            return false;
        }
        self.inner.used.set(used + n);
        self.inner.high_water.set(self.inner.high_water.get().max(used + n));
        true
    }

    /// Reserve every currently-free frame (possibly zero).
    pub fn reserve_all(&self) -> FrameGuard {
        let free = self.free_frames();
        self.inner.used.set(self.inner.total);
        self.inner.high_water.set(self.inner.high_water.get().max(self.inner.total));
        FrameGuard { budget: self.clone(), frames: free }
    }
}

/// RAII reservation of frames; dropping it releases them.
#[derive(Debug)]
pub struct FrameGuard {
    budget: MemoryBudget,
    frames: usize,
}

impl FrameGuard {
    /// Number of frames held by this guard.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Take one more frame from the budget if one is free; false (and no
    /// change) when the budget is exhausted.
    pub fn try_grow(&mut self) -> bool {
        let grown = self.budget.take(1);
        self.frames += usize::from(grown);
        grown
    }

    /// Release `n` of the held frames early (e.g. shrinking a sort buffer).
    pub fn release(&mut self, n: usize) {
        let n = n.min(self.frames);
        self.frames -= n;
        let used = self.budget.inner.used.get();
        self.budget.inner.used.set(used - n);
    }
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        let used = self.budget.inner.used.get();
        self.budget.inner.used.set(used - self.frames);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_roundtrip() {
        let b = MemoryBudget::new(10);
        assert_eq!(b.free_frames(), 10);
        let g = b.reserve(4).unwrap();
        assert_eq!(b.used_frames(), 4);
        assert_eq!(g.frames(), 4);
        drop(g);
        assert_eq!(b.used_frames(), 0);
    }

    #[test]
    fn over_reservation_fails_with_free_count() {
        let b = MemoryBudget::new(3);
        let _g = b.reserve(2).unwrap();
        match b.reserve(2) {
            Err(ExtError::BudgetExceeded { requested, free }) => {
                assert_eq!(requested, 2);
                assert_eq!(free, 1);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn high_water_records_peak_usage() {
        let b = MemoryBudget::new(8);
        {
            let _a = b.reserve(3).unwrap();
            let _c = b.reserve(4).unwrap();
        }
        let _d = b.reserve(1).unwrap();
        assert_eq!(b.high_water_frames(), 7);
    }

    #[test]
    fn partial_release_shrinks_a_guard() {
        let b = MemoryBudget::new(5);
        let mut g = b.reserve(5).unwrap();
        g.release(2);
        assert_eq!(b.used_frames(), 3);
        assert_eq!(g.frames(), 3);
        g.release(100); // clamps
        assert_eq!(b.used_frames(), 0);
        drop(g);
        assert_eq!(b.used_frames(), 0);
    }

    #[test]
    fn try_grow_takes_only_free_frames() {
        let b = MemoryBudget::new(3);
        let mut g = b.reserve(1).unwrap();
        let _other = b.reserve(1).unwrap();
        assert!(g.try_grow());
        assert_eq!((g.frames(), b.free_frames(), b.high_water_frames()), (2, 0, 3));
        assert!(!g.try_grow(), "nothing left to lend");
        assert_eq!(g.frames(), 2);
        g.release(1);
        assert_eq!(b.free_frames(), 1);
    }

    #[test]
    fn reserve_all_takes_exactly_the_remainder() {
        let b = MemoryBudget::new(6);
        let _g = b.reserve(2).unwrap();
        let all = b.reserve_all();
        assert_eq!(all.frames(), 4);
        assert_eq!(b.free_frames(), 0);
    }

    #[test]
    fn budget_clones_share_state() {
        let a = MemoryBudget::new(4);
        let b = a.clone();
        let _g = a.reserve(3).unwrap();
        assert_eq!(b.free_frames(), 1);
    }
}
