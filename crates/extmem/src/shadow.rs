//! Shadow-state I/O sanitizer: the dynamic counterpart of `xlint`.
//!
//! Native tooling (ASan, Miri, the race detector) cannot see through a
//! *simulated* block device: to the host allocator a freed block is still
//! perfectly valid memory. `ShadowState` closes that gap by mirroring, per
//! block, the allocation state and pin discipline that
//! [`Disk`](crate::Disk) is supposed to maintain -- and
//! failing loudly (as [`ExtError::ShadowViolation`]) the moment an operation
//! contradicts the mirror.
//!
//! Checks:
//!
//! - **use-before-alloc** -- a logical read/write of an in-range block that
//!   was never handed out by `alloc_block`.
//! - **read-after-free / write-after-free** -- a logical access to a block
//!   after `free_block`, before any reallocation of the id. The devices
//!   themselves cannot catch this: a freed block id is still in range.
//! - **write-to-pinned-shared** -- a logical write (or exclusive pin) of a
//!   block while a shared [`PinGuard`](crate::PinGuard) on it is alive,
//!   which would mutate bytes a reader holds borrowed.
//! - **budget-frame-leak** -- at pool teardown (when the pool's frame
//!   reservation guard drops), the cache's [`MemoryBudget`] did not return
//!   to its enable-time baseline: frames leaked.
//!
//! The sanitizer is enabled by constructing a `Disk` with the environment
//! variable `NEXSORT_SHADOW=1` set (CI runs the whole test suite that way),
//! or explicitly via [`Disk::enable_shadow`](crate::Disk::enable_shadow).
//! When disabled it costs one `Option` check per logical transfer.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use crate::budget::MemoryBudget;
use crate::error::{ExtError, Result};

/// Allocation state the sanitizer believes a block to be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    /// Handed out by `alloc_block` and not freed since.
    Allocated,
    /// Returned by `free_block`; any access before reallocation is a fault.
    Freed,
}

/// Mirror of the allocation / pin discipline of one [`Disk`].
///
/// All methods are cheap (`BTreeMap`/`BTreeSet` operations keyed by block
/// id) and deterministic, so enabling the sanitizer never perturbs the
/// I/O sequence -- it only observes it.
///
/// [`Disk`]: crate::Disk
#[derive(Debug)]
pub struct ShadowState {
    /// Blocks below this id existed before the sanitizer attached; their
    /// allocation history is unknown, so they are treated as allocated.
    preexisting: u64,
    state: RefCell<BTreeMap<u64, BlockState>>,
    /// Live shared pin count per block (from [`crate::PinGuard`]).
    shared_pins: RefCell<BTreeMap<u64, usize>>,
    /// Blocks with a live exclusive pin (from [`crate::PinMutGuard`]).
    excl_pins: RefCell<BTreeSet<u64>>,
    /// The cache's budget and its `used_frames()` baseline at enable time.
    budget_watch: RefCell<Option<(MemoryBudget, usize)>>,
}

impl ShadowState {
    /// A sanitizer attached to a device that currently has `preexisting`
    /// blocks (their history is unknown and is not checked).
    pub fn new(preexisting: u64) -> Self {
        Self {
            preexisting,
            state: RefCell::new(BTreeMap::new()),
            shared_pins: RefCell::new(BTreeMap::new()),
            excl_pins: RefCell::new(BTreeSet::new()),
            budget_watch: RefCell::new(None),
        }
    }

    /// Construct only when `NEXSORT_SHADOW=1` is set in the environment.
    pub fn from_env(preexisting: u64) -> Option<Self> {
        if std::env::var_os("NEXSORT_SHADOW").is_some_and(|v| v == "1") {
            Some(Self::new(preexisting))
        } else {
            None
        }
    }

    /// Record a fresh allocation of `id`.
    pub fn note_alloc(&self, id: u64) {
        self.state.borrow_mut().insert(id, BlockState::Allocated);
    }

    /// Record that `id` was freed.
    pub fn note_free(&self, id: u64) {
        self.state.borrow_mut().insert(id, BlockState::Freed);
    }

    /// Validate a logical read of `id` on a device with `total` blocks.
    pub fn check_read(&self, id: u64, total: u64) -> Result<()> {
        self.check_state(id, total, "read-after-free", "use-before-alloc")
    }

    /// Validate a logical write of `id`: allocation state plus the pin
    /// discipline (no shared pin may be alive).
    pub fn check_write(&self, id: u64, total: u64) -> Result<()> {
        self.check_state(id, total, "write-after-free", "use-before-alloc")?;
        if self.shared_pins.borrow().get(&id).copied().unwrap_or(0) > 0 {
            return Err(ExtError::ShadowViolation { check: "write-to-pinned-shared", block: id });
        }
        Ok(())
    }

    fn check_state(
        &self,
        id: u64,
        total: u64,
        after_free: &'static str,
        before_alloc: &'static str,
    ) -> Result<()> {
        match self.state.borrow().get(&id) {
            Some(BlockState::Freed) => {
                Err(ExtError::ShadowViolation { check: after_free, block: id })
            }
            Some(BlockState::Allocated) => Ok(()),
            None if id < self.preexisting => Ok(()),
            // In range but never allocated through this disk.
            None if id < total => Err(ExtError::ShadowViolation { check: before_alloc, block: id }),
            // Out of range: the device itself reports `BadBlock`.
            None => Ok(()),
        }
    }

    /// Record a new pin on `id` (`shared` distinguishes `PinGuard` from
    /// `PinMutGuard`).
    pub fn note_pin(&self, id: u64, shared: bool) {
        if shared {
            *self.shared_pins.borrow_mut().entry(id).or_insert(0) += 1;
        } else {
            self.excl_pins.borrow_mut().insert(id);
        }
    }

    /// Record that a pin on `id` was dropped.
    pub fn note_unpin(&self, id: u64, shared: bool) {
        if shared {
            let mut pins = self.shared_pins.borrow_mut();
            if let Some(n) = pins.get_mut(&id) {
                *n -= 1;
                if *n == 0 {
                    pins.remove(&id);
                }
            }
        } else {
            self.excl_pins.borrow_mut().remove(&id);
        }
    }

    /// Start watching `budget`: record the baseline `used_frames()` that the
    /// pool teardown must restore.
    pub fn watch_budget(&self, budget: &MemoryBudget) {
        *self.budget_watch.borrow_mut() = Some((budget.clone(), budget.used_frames()));
    }

    /// At pool teardown: the watched budget must be back at its baseline,
    /// otherwise frames reserved against the cache's budget leaked.
    pub fn check_budget_restored(&self) -> Result<()> {
        let mut watch = self.budget_watch.borrow_mut();
        if let Some((budget, baseline)) = watch.take() {
            let used = budget.used_frames();
            if used != baseline {
                return Err(ExtError::ShadowViolation {
                    check: "budget-frame-leak",
                    block: used.abs_diff(baseline) as u64,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation_check(r: Result<()>) -> &'static str {
        match r {
            Err(ExtError::ShadowViolation { check, .. }) => check,
            other => panic!("expected a shadow violation, got {other:?}"),
        }
    }

    #[test]
    fn alloc_free_lifecycle_is_tracked() {
        let sh = ShadowState::new(0);
        sh.note_alloc(3);
        assert!(sh.check_read(3, 4).is_ok());
        assert!(sh.check_write(3, 4).is_ok());
        sh.note_free(3);
        assert_eq!(violation_check(sh.check_read(3, 4)), "read-after-free");
        assert_eq!(violation_check(sh.check_write(3, 4)), "write-after-free");
        // Reallocation of the id heals it.
        sh.note_alloc(3);
        assert!(sh.check_read(3, 4).is_ok());
    }

    #[test]
    fn in_range_unallocated_blocks_are_use_before_alloc() {
        let sh = ShadowState::new(2);
        // Pre-existing blocks have unknown history: allowed.
        assert!(sh.check_read(0, 8).is_ok());
        assert!(sh.check_read(1, 8).is_ok());
        // In range, never allocated through this disk: flagged.
        assert_eq!(violation_check(sh.check_read(5, 8)), "use-before-alloc");
        // Out of range: left for the device's BadBlock.
        assert!(sh.check_read(9, 8).is_ok());
    }

    #[test]
    fn shared_pins_block_writes_until_released() {
        let sh = ShadowState::new(0);
        sh.note_alloc(1);
        sh.note_pin(1, true);
        sh.note_pin(1, true);
        assert_eq!(violation_check(sh.check_write(1, 2)), "write-to-pinned-shared");
        sh.note_unpin(1, true);
        assert_eq!(violation_check(sh.check_write(1, 2)), "write-to-pinned-shared");
        sh.note_unpin(1, true);
        assert!(sh.check_write(1, 2).is_ok());
        // Exclusive pins do not forbid the owner's writes.
        sh.note_pin(1, false);
        assert!(sh.check_write(1, 2).is_ok());
        sh.note_unpin(1, false);
    }

    #[test]
    fn negative_a_leaked_frame_reservation_trips_the_budget_watch() {
        let budget = MemoryBudget::new(8);
        let sh = ShadowState::new(0);
        sh.watch_budget(&budget);
        let leak = budget.reserve(3).expect("frames available");
        assert_eq!(violation_check(sh.check_budget_restored()), "budget-frame-leak");
        drop(leak);
        // Re-arm and release properly: clean.
        sh.watch_budget(&budget);
        let guard = budget.reserve(3).expect("frames available");
        drop(guard);
        assert!(sh.check_budget_restored().is_ok());
    }

    mod through_the_disk {
        use super::violation_check;
        use crate::budget::MemoryBudget;
        use crate::pool::{CachePolicy, WriteMode};
        use crate::stats::IoCat;
        use crate::Disk;

        #[test]
        fn negative_read_after_free_trips() {
            let disk = Disk::new_mem(64);
            disk.enable_shadow();
            let id = disk.alloc_block();
            disk.write_block(id, &[7u8; 64], IoCat::RunWrite).unwrap();
            disk.free_block(id).unwrap();
            let mut buf = vec![0u8; 64];
            let err = disk.read_block(id, &mut buf, IoCat::RunRead).unwrap_err();
            assert_eq!(violation_check(Err(err)), "read-after-free");
            // Writing the freed block is caught too.
            let err = disk.write_block(id, &buf, IoCat::RunWrite).unwrap_err();
            assert_eq!(violation_check(Err(err)), "write-after-free");
            // Reallocating the id heals it.
            let id2 = disk.alloc_block();
            assert_eq!(id, id2);
            disk.write_block(id2, &buf, IoCat::RunWrite).unwrap();
        }

        #[test]
        fn negative_write_to_shared_pinned_block_trips() {
            let disk = Disk::new_mem(64);
            disk.enable_shadow();
            let budget = MemoryBudget::new(4);
            disk.enable_cache(&budget, 2, CachePolicy::Lru, WriteMode::Through).unwrap();
            let id = disk.alloc_block();
            disk.write_block(id, &[1u8; 64], IoCat::RunWrite).unwrap();
            let pin = disk.pin(id, IoCat::RunRead).unwrap();
            let err = disk.write_block(id, &[2u8; 64], IoCat::RunWrite).unwrap_err();
            assert_eq!(violation_check(Err(err)), "write-to-pinned-shared");
            let err = disk.pin_mut(id, IoCat::RunWrite).unwrap_err();
            assert_eq!(violation_check(Err(err)), "write-to-pinned-shared");
            drop(pin);
            // The pin is gone: the same write is legal again.
            disk.write_block(id, &[2u8; 64], IoCat::RunWrite).unwrap();
            disk.disable_cache().unwrap();
        }

        #[test]
        fn negative_budget_frame_leak_at_pool_teardown_trips() {
            let disk = Disk::new_mem(64);
            disk.enable_shadow();
            let budget = MemoryBudget::new(4);
            disk.enable_cache(&budget, 2, CachePolicy::Lru, WriteMode::Through).unwrap();
            // A reservation against the cache's budget that outlives the
            // pool is a leak the teardown check must catch.
            let leak = budget.reserve(1).expect("frames available");
            let err = disk.disable_cache().unwrap_err();
            assert_eq!(violation_check(Err(err)), "budget-frame-leak");
            drop(leak);
        }

        #[test]
        fn clean_runs_stay_silent_under_the_sanitizer() {
            let disk = Disk::new_mem(64);
            disk.enable_shadow();
            let budget = MemoryBudget::new(4);
            disk.enable_cache(&budget, 2, CachePolicy::Lru, WriteMode::Back).unwrap();
            let a = disk.alloc_block();
            let b = disk.alloc_block();
            disk.write_block(a, &[1u8; 64], IoCat::RunWrite).unwrap();
            disk.write_block(b, &[2u8; 64], IoCat::RunWrite).unwrap();
            let mut buf = vec![0u8; 64];
            disk.read_block(a, &mut buf, IoCat::RunRead).unwrap();
            assert_eq!(buf[0], 1);
            disk.free_block(b).unwrap();
            disk.disable_cache().unwrap();
            assert_eq!(budget.used_frames(), 0);
        }
    }
}
