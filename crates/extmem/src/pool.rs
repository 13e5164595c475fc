//! The buffer pool (page cache) between [`Disk`](crate::Disk) and its device.
//!
//! The paper's analysis gives the algorithm `M` blocks of internal memory and
//! counts every block transfer; our substrate routes all of those transfers
//! through [`Disk`](crate::Disk). This module adds the layer a production
//! engine puts exactly there: a pool of block frames that absorbs re-reads of
//! hot blocks (stack tops, run directory pages, merge fan-in frames) so that
//! *physical* device transfers can drop below the *logical* transfer count
//! the paper analyses -- without changing the logical count at all.
//!
//! Structure:
//!
//! * [`PoolCore`] owns the frames (plain block buffers, extra memory outside
//!   the algorithm's `M`) and the block -> frame index;
//! * eviction is pluggable behind [`EvictionPolicy`], with [`LruPolicy`] and
//!   [`ClockPolicy`] provided and selectable by [`CachePolicy`];
//! * writes follow a [`WriteMode`]: write-through keeps the device current on
//!   every logical write, write-back defers dirty frames to eviction or an
//!   explicit flush.
//!
//! Determinism matters as much as performance here: the fault layer under
//! the pool injects faults by physical operation index, so victim selection
//! and flush order must be reproducible. The index is a `BTreeMap` and all
//! bulk operations iterate in block order; policies are deterministic.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::stats::IoCat;

/// Which eviction policy a pool uses; the CLI-facing selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Least-recently-used: evict the frame untouched the longest.
    #[default]
    Lru,
    /// CLOCK (second chance): one reference bit per frame and a sweeping
    /// hand; a cheap LRU approximation with O(1) metadata per access.
    Clock,
}

impl CachePolicy {
    /// Short name used in flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Clock => "clock",
        }
    }

    /// Instantiate the policy for a pool of `frames` slots.
    pub fn build(self, frames: usize) -> Box<dyn EvictionPolicy> {
        match self {
            CachePolicy::Lru => Box::new(LruPolicy::new(frames)),
            CachePolicy::Clock => Box::new(ClockPolicy::new(frames)),
        }
    }
}

impl fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CachePolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "lru" => Ok(CachePolicy::Lru),
            "clock" => Ok(CachePolicy::Clock),
            other => Err(format!("unknown cache policy {other:?} (expected lru or clock)")),
        }
    }
}

/// When a logical write reaches the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMode {
    /// Every logical write is written to the device immediately; frames only
    /// serve re-reads. The device (and its checksum layer) is always current.
    #[default]
    Through,
    /// Logical writes land in the frame and are marked dirty; the device
    /// sees them at eviction or at an explicit
    /// [`Disk::cache_flush_all`](crate::Disk::cache_flush_all). Coalesces
    /// repeated writes to the same block into one physical transfer.
    Back,
}

impl WriteMode {
    /// Short name used in flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            WriteMode::Through => "write-through",
            WriteMode::Back => "write-back",
        }
    }
}

impl fmt::Display for WriteMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Chooses eviction victims among a pool's frame slots.
///
/// The pool calls `on_insert` when a block is installed in a slot,
/// `on_access` on every hit, and `on_remove` when a slot is evicted or
/// invalidated. `pick_victim` is consulted only when every slot is occupied,
/// so any slot is a legal victim. Implementations must be deterministic:
/// the fault-injection layer below the pool schedules faults by physical
/// operation index.
pub trait EvictionPolicy {
    /// The policy's report name.
    fn name(&self) -> &'static str;
    /// A block was installed in `slot`.
    fn on_insert(&mut self, slot: usize);
    /// The frame in `slot` was accessed (hit).
    fn on_access(&mut self, slot: usize);
    /// The frame in `slot` was evicted or invalidated.
    fn on_remove(&mut self, slot: usize);
    /// Choose the slot to evict from a full pool.
    fn pick_victim(&mut self) -> usize;
}

/// Exact least-recently-used eviction: every insert/access stamps the slot
/// with a monotone tick; the victim is the slot with the smallest stamp.
/// O(frames) per eviction, O(1) per access -- fine at the pool sizes the
/// model considers (a slice of `M`).
#[derive(Debug)]
pub struct LruPolicy {
    stamps: Vec<u64>,
    tick: u64,
}

const VACANT: u64 = u64::MAX;

impl LruPolicy {
    /// A policy for a pool of `frames` slots.
    pub fn new(frames: usize) -> Self {
        Self { stamps: vec![VACANT; frames], tick: 0 }
    }

    fn touch(&mut self, slot: usize) {
        self.stamps[slot] = self.tick;
        self.tick += 1;
    }
}

impl EvictionPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn on_insert(&mut self, slot: usize) {
        self.touch(slot);
    }

    fn on_access(&mut self, slot: usize) {
        self.touch(slot);
    }

    fn on_remove(&mut self, slot: usize) {
        self.stamps[slot] = VACANT;
    }

    fn pick_victim(&mut self) -> usize {
        // A vacant slot carries the largest stamp, so it is never the victim
        // while an occupied one exists.
        self.stamps.iter().enumerate().min_by_key(|&(_, &stamp)| stamp).map_or(0, |(slot, _)| slot)
    }
}

/// CLOCK (second-chance) eviction: a reference bit per slot and a hand that
/// sweeps the slots, clearing set bits and evicting the first slot whose bit
/// is clear.
#[derive(Debug)]
pub struct ClockPolicy {
    referenced: Vec<bool>,
    hand: usize,
}

impl ClockPolicy {
    /// A policy for a pool of `frames` slots.
    pub fn new(frames: usize) -> Self {
        Self { referenced: vec![false; frames], hand: 0 }
    }
}

impl EvictionPolicy for ClockPolicy {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn on_insert(&mut self, slot: usize) {
        self.referenced[slot] = true;
    }

    fn on_access(&mut self, slot: usize) {
        self.referenced[slot] = true;
    }

    fn on_remove(&mut self, _slot: usize) {}

    fn pick_victim(&mut self) -> usize {
        // One sweep clears every set bit, so this ends within n + 1 steps.
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.referenced.len();
            if !std::mem::take(&mut self.referenced[slot]) {
                return slot;
            }
        }
    }
}

struct Frame {
    block: u64,
    data: Vec<u8>,
    /// `Some(len)`: the first `len` bytes diverge from the device and must be
    /// written back. Length tracking preserves the device contract that a
    /// write covers a prefix of the block (the checksum layer records
    /// exactly the written prefix).
    dirty_len: Option<usize>,
    /// Category the eventual writeback is charged to (the category of the
    /// logical write that dirtied the frame).
    cat: IoCat,
}

/// How the pool hands out a slot for a new block (see
/// [`PoolCore::acquire_plan`]). On `Evict`, the caller performs any dirty
/// writeback *before* detaching the victim, so a failed writeback leaves the
/// pool unchanged and the error reports the victim block.
pub(crate) enum SlotAcquire {
    /// An unoccupied slot, already detached from the free list.
    Free(usize),
    /// Evict the frame in `slot` (currently holding `block`); `dirty` is the
    /// writeback obligation.
    Evict { slot: usize, block: u64, dirty: Option<(usize, IoCat)> },
}

/// The frame table of a buffer pool. Owned by [`Disk`](crate::Disk); all
/// physical I/O and stats accounting stay in the disk layer, keeping this
/// type purely about residency, dirtiness, and victim choice.
pub(crate) struct PoolCore {
    frames: Vec<Frame>,
    index: BTreeMap<u64, usize>,
    free: Vec<usize>,
    policy: Box<dyn EvictionPolicy>,
    mode: WriteMode,
}

impl PoolCore {
    pub(crate) fn new(
        capacity: usize,
        block_size: usize,
        policy: Box<dyn EvictionPolicy>,
        mode: WriteMode,
    ) -> Self {
        assert!(capacity > 0, "a buffer pool needs at least one frame");
        let frames = (0..capacity)
            .map(|_| Frame {
                block: u64::MAX,
                data: vec![0u8; block_size],
                dirty_len: None,
                cat: IoCat::SortScratch,
            })
            .collect();
        // Free slots are popped from the back; keep ascending order of use.
        let free = (0..capacity).rev().collect();
        Self { frames, index: BTreeMap::new(), free, policy, mode }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn mode(&self) -> WriteMode {
        self.mode
    }

    pub(crate) fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Find `block`'s slot and record the access with the policy.
    pub(crate) fn lookup(&mut self, block: u64) -> Option<usize> {
        let slot = *self.index.get(&block)?;
        self.policy.on_access(slot);
        Some(slot)
    }

    /// Find `block`'s slot without counting an access.
    pub(crate) fn peek(&self, block: u64) -> Option<usize> {
        self.index.get(&block).copied()
    }

    pub(crate) fn slot_data(&self, slot: usize) -> &[u8] {
        &self.frames[slot].data
    }

    pub(crate) fn slot_data_mut(&mut self, slot: usize) -> &mut [u8] {
        &mut self.frames[slot].data
    }

    pub(crate) fn slot_block(&self, slot: usize) -> u64 {
        self.frames[slot].block
    }

    pub(crate) fn dirty_of(&self, slot: usize) -> Option<(usize, IoCat)> {
        let f = &self.frames[slot];
        f.dirty_len.map(|len| (len, f.cat))
    }

    /// Mark the first `len` bytes of `slot` dirty, to be written back under
    /// `cat`. Widens (never shrinks) an existing dirty prefix so coalesced
    /// writes lose no data.
    pub(crate) fn mark_dirty(&mut self, slot: usize, len: usize, cat: IoCat) {
        let f = &mut self.frames[slot];
        f.dirty_len = Some(f.dirty_len.map_or(len, |old| old.max(len)));
        f.cat = cat;
    }

    pub(crate) fn clean(&mut self, slot: usize) {
        self.frames[slot].dirty_len = None;
    }

    /// Plan how to obtain a slot for a new block: a free slot if one exists,
    /// otherwise an eviction victim. Nothing is detached yet for the `Evict`
    /// case; the caller completes (or abandons) the plan.
    pub(crate) fn acquire_plan(&mut self) -> SlotAcquire {
        if let Some(slot) = self.free.pop() {
            return SlotAcquire::Free(slot);
        }
        let slot = self.policy.pick_victim();
        let f = &self.frames[slot];
        SlotAcquire::Evict { slot, block: f.block, dirty: f.dirty_len.map(|len| (len, f.cat)) }
    }

    /// Remove the mapping of `slot` (after any writeback), leaving the slot
    /// loose for `install` or `release_slot`.
    pub(crate) fn detach(&mut self, slot: usize) {
        let block = self.frames[slot].block;
        self.index.remove(&block);
        self.policy.on_remove(slot);
        let f = &mut self.frames[slot];
        f.block = u64::MAX;
        f.dirty_len = None;
    }

    /// Return a loose slot to the free list (e.g. after a failed load).
    pub(crate) fn release_slot(&mut self, slot: usize) {
        self.free.push(slot);
    }

    /// Map `block` into the loose `slot` (clean).
    pub(crate) fn install(&mut self, slot: usize, block: u64) {
        let f = &mut self.frames[slot];
        f.block = block;
        f.dirty_len = None;
        self.index.insert(block, slot);
        self.policy.on_insert(slot);
    }

    /// Drop `block`'s frame without writing it back (the block is dead, e.g.
    /// freed).
    pub(crate) fn invalidate(&mut self, block: u64) {
        if let Some(&slot) = self.index.get(&block) {
            self.detach(slot);
            self.release_slot(slot);
        }
    }

    /// Slots holding dirty frames, in ascending block order (deterministic
    /// flush order for the fault layer's operation indexing).
    pub(crate) fn dirty_slots_in_block_order(&self) -> Vec<usize> {
        self.index.values().copied().filter(|&slot| self.frames[slot].dirty_len.is_some()).collect()
    }

    /// Drop every resident frame without writing anything back. Crash
    /// recovery only: after a simulated crash the device image is the
    /// authoritative state, so frame contents (dirty or not) are dead.
    pub(crate) fn purge_all(&mut self) {
        let slots: Vec<usize> = self.index.values().copied().collect();
        for slot in slots {
            self.detach(slot);
            self.release_slot(slot);
        }
    }

    /// Number of resident (mapped) frames.
    pub(crate) fn resident(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_policy_parses_and_prints() {
        assert_eq!("lru".parse::<CachePolicy>().unwrap(), CachePolicy::Lru);
        assert_eq!("clock".parse::<CachePolicy>().unwrap(), CachePolicy::Clock);
        assert!("fifo".parse::<CachePolicy>().is_err());
        assert_eq!(CachePolicy::Lru.to_string(), "lru");
        assert_eq!(CachePolicy::Clock.to_string(), "clock");
        assert_eq!(WriteMode::Through.to_string(), "write-through");
        assert_eq!(WriteMode::Back.to_string(), "write-back");
        assert_eq!(CachePolicy::default(), CachePolicy::Lru);
        assert_eq!(WriteMode::default(), WriteMode::Through);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_slot() {
        let mut p = LruPolicy::new(3);
        p.on_insert(0);
        p.on_insert(1);
        p.on_insert(2);
        p.on_access(0); // order now: 1, 2, 0
        assert_eq!(p.pick_victim(), 1);
        p.on_access(1); // order now: 2, 0, 1
        assert_eq!(p.pick_victim(), 2);
        p.on_remove(2);
        assert_eq!(p.pick_victim(), 0, "vacant slots are not victims");
    }

    #[test]
    fn clock_gives_referenced_frames_a_second_chance() {
        let mut p = ClockPolicy::new(3);
        p.on_insert(0);
        p.on_insert(1);
        p.on_insert(2);
        // First sweep clears all bits, then slot 0 is the victim.
        assert_eq!(p.pick_victim(), 0);
        // Re-reference slot 1: the hand (at 1) clears it and takes slot 2.
        p.on_access(1);
        assert_eq!(p.pick_victim(), 2);
    }

    #[test]
    fn pool_core_tracks_residency_and_dirt() {
        let mut pc = PoolCore::new(2, 64, CachePolicy::Lru.build(2), WriteMode::Back);
        assert_eq!(pc.capacity(), 2);
        assert_eq!(pc.resident(), 0);

        let SlotAcquire::Free(s0) = pc.acquire_plan() else {
            panic!("first acquire must find a free slot")
        };
        pc.install(s0, 10);
        let SlotAcquire::Free(s1) = pc.acquire_plan() else {
            panic!("second acquire must find a free slot")
        };
        pc.install(s1, 20);
        assert_eq!(pc.resident(), 2);
        assert_eq!(pc.lookup(10), Some(s0));
        assert_eq!(pc.peek(99), None);

        pc.mark_dirty(s1, 16, IoCat::RunWrite);
        pc.mark_dirty(s1, 8, IoCat::RunWrite); // narrower write: prefix widens only
        assert_eq!(pc.dirty_of(s1), Some((16, IoCat::RunWrite)));
        assert_eq!(pc.dirty_slots_in_block_order(), vec![s1]);

        // Full pool: the next acquire plans an eviction; block 10 was
        // re-accessed by the lookup above, so 20 is the LRU victim, and the
        // plan carries its writeback obligation.
        match pc.acquire_plan() {
            SlotAcquire::Evict { slot, block, dirty } => {
                assert_eq!((slot, block), (s1, 20), "10 was re-accessed");
                assert_eq!(dirty, Some((16, IoCat::RunWrite)));
            }
            SlotAcquire::Free(_) => panic!("pool is full"),
        }

        // Invalidation drops a frame without a writeback and frees its slot.
        pc.invalidate(20);
        assert_eq!(pc.resident(), 1);
        assert!(pc.dirty_slots_in_block_order().is_empty());
        assert!(matches!(pc.acquire_plan(), SlotAcquire::Free(s) if s == s1));
        pc.install(s1, 30);
        pc.purge_all();
        assert_eq!(pc.resident(), 0);
    }
}
