//! Externally-paged stacks with the paper's no-prefetch policy.
//!
//! NEXSORT keeps three stacks that can outgrow internal memory (Section 3.1):
//! the *data stack* of scanned elements, the *path stack* of subtree start
//! locations, and the *output location stack* driving the output phase. Each
//! is an [`ExtStack`]: a byte stack laid out over device blocks, with a small
//! window of resident block frames (at least two for the path stack, one for
//! the others -- the premise of Lemmas 4.10, 4.11 and 4.13).
//!
//! Paging policy, as assumed by the analysis:
//! * **no prefetch** -- a block is paged in only when a byte on it must be
//!   read (a pop touching it, or a push landing mid-block after a truncate);
//! * page-out happens only when a frame must be reclaimed, and writes only if
//!   the frame is dirty;
//! * replacement prefers frames *above* the access point (their contents have
//!   been consumed), else the deepest frame (top-of-stack blocks stay hot).
//!
//! **Lending.** A stack built with [`ExtStack::lending`] may hold more than
//! its reserved frames: when the alternative is a page-out, it takes one
//! more frame from the budget if one is free, up to its cap, and gives frames
//! back as soon as `truncate`/`pop` leaves them without a block, or when the
//! owner asks ([`ExtStack::shed`]). Every resident frame is charged to the
//! budget while it is held, so memory stays within `M` at every instant. A
//! cap equal to the reservation is the paper's fixed window.
//!
//! All paging goes through [`Disk::read_block`] / [`Disk::write_block`], so
//! when the disk has a buffer pool enabled ([`DiskBuilder::cache`](crate::DiskBuilder::cache)) the
//! stack's repaging of hot boundary blocks is absorbed by the pool: logical
//! counts (the lemmas' quantities) are unchanged, physical transfers shrink.

use std::rc::Rc;

use crate::budget::{FrameGuard, MemoryBudget};
use crate::device::Disk;
use crate::error::{ExtError, Result};
use crate::extent::Extent;
use crate::stats::IoCat;

struct ResidentBlock {
    idx: usize,
    buf: Vec<u8>,
    dirty: bool,
}

/// A byte stack paged over device blocks.
pub struct ExtStack {
    disk: Rc<Disk>,
    cat: IoCat,
    /// The reserved frames plus any lent ones: always
    /// `max(reserved, resident.len())`.
    frames: FrameGuard,
    reserved: usize,
    /// Cap on resident frames; above `reserved` only when lending.
    max_resident: usize,
    bs: usize,
    /// Block ids for indices `0..ceil(len/bs)`; only grows/shrinks at the top.
    blocks: Vec<u64>,
    len: u64,
    resident: Vec<ResidentBlock>,
}

impl ExtStack {
    /// A stack charging its paging to `cat`, with `resident_frames` block
    /// frames reserved from `budget` (the paper requires >= 2 for the path
    /// stack and >= 1 for the data and output-location stacks).
    pub fn new(
        disk: Rc<Disk>,
        budget: &MemoryBudget,
        cat: IoCat,
        resident_frames: usize,
    ) -> Result<Self> {
        assert!(resident_frames >= 1, "a stack needs at least one resident frame");
        let frames = budget.reserve(resident_frames)?;
        let bs = disk.block_size();
        Ok(Self {
            disk,
            cat,
            frames,
            reserved: resident_frames,
            max_resident: resident_frames,
            bs,
            blocks: Vec::new(),
            len: 0,
            resident: Vec::new(),
        })
    }

    /// Let the stack borrow free budget frames, up to `cap` resident frames
    /// in all, instead of paging out (see the module docs). A `cap` at or
    /// below the reservation keeps the fixed window.
    pub fn lending(mut self, cap: usize) -> Self {
        self.max_resident = cap.max(self.reserved);
        self
    }

    /// True if the stack may hold more frames than it reserved.
    pub fn lends(&self) -> bool {
        self.max_resident > self.reserved
    }

    /// Frames held beyond the reservation, borrowed from the budget.
    pub fn lent_frames(&self) -> usize {
        self.frames.frames() - self.reserved
    }

    /// True if every block holding a byte at or above offset `from` is
    /// resident, so the bytes `[from, len)` can be popped without a transfer.
    pub fn is_resident_from(&self, from: u64) -> bool {
        let first = (from / self.bs as u64) as usize;
        let above = self.resident.iter().filter(|r| r.idx >= first).count();
        above == self.blocks.len().saturating_sub(first)
    }

    /// Give up to `n` lent frames back to the budget: page out that many of
    /// the deepest resident blocks, writing the dirty ones. The reserved
    /// frames stay.
    pub fn shed(&mut self, n: usize) -> Result<()> {
        let keep = self.resident.len().saturating_sub(n).max(self.reserved);
        while self.resident.len() > keep {
            let Some(pos) = self.deepest_resident() else { break };
            let r = self.resident.swap_remove(pos);
            if r.dirty {
                self.disk.write_block(self.blocks[r.idx], &r.buf, self.cat)?;
            }
        }
        self.give_back();
        Ok(())
    }

    /// Return lent frames that no resident block uses any more.
    fn give_back(&mut self) {
        let keep = self.reserved.max(self.resident.len());
        self.frames.release(self.frames.frames().saturating_sub(keep));
    }

    fn deepest_resident(&self) -> Option<usize> {
        self.resident.iter().enumerate().min_by_key(|(_, r)| r.idx).map(|(i, _)| i)
    }

    /// Current length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the stack holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of device blocks currently backing the stack.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn find_resident(&self, idx: usize) -> Option<usize> {
        self.resident.iter().position(|r| r.idx == idx)
    }

    fn evict_for(&mut self, incoming_idx: usize) -> Result<()> {
        if self.resident.len() < self.frames.frames() {
            return Ok(());
        }
        if self.resident.len() < self.max_resident && self.frames.try_grow() {
            return Ok(());
        }
        // Prefer the frame farthest above the access point (already
        // consumed); otherwise the deepest frame below it.
        let victim = self
            .resident
            .iter()
            .enumerate()
            .filter(|(_, r)| r.idx > incoming_idx)
            .max_by_key(|(_, r)| r.idx)
            .map(|(i, _)| i)
            .or_else(|| self.deepest_resident());
        // The resident set was checked full above, so non-empty; if it ever
        // were empty there is nothing to evict.
        let Some(victim) = victim else { return Ok(()) };
        let r = self.resident.swap_remove(victim);
        if r.dirty {
            self.disk.write_block(self.blocks[r.idx], &r.buf, self.cat)?;
        }
        Ok(())
    }

    /// Make block `idx` resident, paging it in from the device if needed.
    fn ensure_resident(&mut self, idx: usize) -> Result<usize> {
        if let Some(pos) = self.find_resident(idx) {
            return Ok(pos);
        }
        self.evict_for(idx)?;
        let mut buf = vec![0u8; self.bs];
        self.disk.read_block(self.blocks[idx], &mut buf, self.cat)?;
        self.resident.push(ResidentBlock { idx, buf, dirty: false });
        Ok(self.resident.len() - 1)
    }

    /// Append a brand-new top block (no I/O: nothing to page in).
    fn push_new_block(&mut self) -> Result<usize> {
        let idx = self.blocks.len();
        self.evict_for(idx)?;
        self.blocks.push(self.disk.alloc_block());
        self.resident.push(ResidentBlock { idx, buf: vec![0u8; self.bs], dirty: false });
        Ok(self.resident.len() - 1)
    }

    /// Push `data` onto the stack.
    pub fn push(&mut self, mut data: &[u8]) -> Result<()> {
        while !data.is_empty() {
            let off = (self.len % self.bs as u64) as usize;
            let bidx = (self.len / self.bs as u64) as usize;
            let pos = if off == 0 {
                debug_assert_eq!(bidx, self.blocks.len());
                self.push_new_block()?
            } else {
                // Mid-block push: the block exists; after a truncate it may
                // have been paged out, in which case this pages it back in
                // (the "+x" term of Lemma 4.10).
                self.ensure_resident(bidx)?
            };
            let take = (self.bs - off).min(data.len());
            self.resident[pos].buf[off..off + take].copy_from_slice(&data[..take]);
            self.resident[pos].dirty = true;
            self.len += take as u64;
            data = &data[take..];
        }
        Ok(())
    }

    /// Pop the top `n` bytes, returned in forward (bottom-to-top) order.
    pub fn pop(&mut self, n: usize) -> Result<Vec<u8>> {
        if n as u64 > self.len {
            return Err(ExtError::StackUnderflow { wanted: n, len: self.len as usize });
        }
        let start = self.len - n as u64;
        let mut out = vec![0u8; n];
        let bs = self.bs as u64;
        let mut end = self.len;
        while end > start {
            let last = end - 1;
            let bidx = (last / bs) as usize;
            let block_lo = bidx as u64 * bs;
            let lo = start.max(block_lo);
            let pos = self.ensure_resident(bidx)?;
            let src = &self.resident[pos].buf[(lo - block_lo) as usize..(end - block_lo) as usize];
            out[(lo - start) as usize..(end - start) as usize].copy_from_slice(src);
            end = lo;
        }
        self.truncate(start)?;
        Ok(out)
    }

    /// Discard all bytes at or above offset `new_len`, freeing whole blocks.
    pub fn truncate(&mut self, new_len: u64) -> Result<()> {
        if new_len > self.len {
            return Err(ExtError::StackUnderflow {
                wanted: new_len as usize,
                len: self.len as usize,
            });
        }
        let keep_blocks = (new_len as usize).div_ceil(self.bs);
        while self.blocks.len() > keep_blocks {
            let idx = self.blocks.len() - 1;
            if let Some(pos) = self.find_resident(idx) {
                self.resident.swap_remove(pos);
            }
            let Some(id) = self.blocks.pop() else { break };
            self.disk.free_block(id)?;
        }
        self.len = new_len;
        self.give_back();
        Ok(())
    }

    /// Write all dirty resident frames back to the device, so the backing
    /// blocks can be read through an independent cursor (see
    /// [`ExtStack::range_extent`]).
    pub fn flush(&mut self) -> Result<()> {
        for r in &mut self.resident {
            if r.dirty {
                self.disk.write_block(self.blocks[r.idx], &r.buf, self.cat)?;
                r.dirty = false;
            }
        }
        Ok(())
    }

    /// Flush and expose the stack's backing storage as an [`Extent`], so a
    /// byte range (e.g. a complete subtree, Figure 4 line 10) can be streamed
    /// with an `ExtentReader`/`ExtentRevCursor` without materializing it.
    pub fn range_extent(&mut self) -> Result<Extent> {
        self.flush()?;
        Ok(Extent::from_raw(self.blocks.clone(), self.len))
    }

    /// Push a little-endian `u64` (fixed 8-byte entry).
    pub fn push_u64(&mut self, v: u64) -> Result<()> {
        self.push(&v.to_le_bytes())
    }

    /// Pop a little-endian `u64`.
    pub fn pop_u64(&mut self) -> Result<u64> {
        let b = self.pop(8)?;
        let arr: [u8; 8] = b
            .try_into()
            .map_err(|_| ExtError::Corrupt("stack pop(8) returned a different width".into()))?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Push a little-endian `u32` (fixed 4-byte entry).
    pub fn push_u32(&mut self, v: u32) -> Result<()> {
        self.push(&v.to_le_bytes())
    }

    /// Pop a little-endian `u32`.
    pub fn pop_u32(&mut self) -> Result<u32> {
        let b = self.pop(4)?;
        let arr: [u8; 4] = b
            .try_into()
            .map_err(|_| ExtError::Corrupt("stack pop(4) returned a different width".into()))?;
        Ok(u32::from_le_bytes(arr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::{ByteReader, ExtentReader};

    fn setup(bs: usize, frames: usize) -> (Rc<Disk>, MemoryBudget) {
        (Disk::new_mem(bs), MemoryBudget::new(frames))
    }

    #[test]
    fn push_pop_roundtrip_within_one_block() {
        let (disk, budget) = setup(64, 2);
        let mut s = ExtStack::new(disk, &budget, IoCat::PathStack, 1).unwrap();
        s.push(b"hello").unwrap();
        s.push(b" world").unwrap();
        assert_eq!(s.len(), 11);
        assert_eq!(s.pop(6).unwrap(), b" world");
        assert_eq!(s.pop(5).unwrap(), b"hello");
        assert!(s.is_empty());
    }

    #[test]
    fn pop_more_than_len_underflows() {
        let (disk, budget) = setup(16, 2);
        let mut s = ExtStack::new(disk, &budget, IoCat::PathStack, 1).unwrap();
        s.push(b"abc").unwrap();
        assert!(matches!(s.pop(4), Err(ExtError::StackUnderflow { wanted: 4, len: 3 })));
    }

    #[test]
    fn deep_stack_pages_out_and_back_in() {
        let (disk, budget) = setup(16, 4);
        let mut s = ExtStack::new(disk.clone(), &budget, IoCat::DataStack, 1).unwrap();
        let data: Vec<u8> = (0..200u8).collect();
        s.push(&data).unwrap();
        assert!(s.num_blocks() > 1);
        // Everything comes back in order despite paging with a single frame.
        let back = s.pop(200).unwrap();
        assert_eq!(back, data);
        let snap = disk.stats().snapshot();
        assert!(snap.writes(IoCat::DataStack) > 0, "deep pushes must page out");
        assert!(snap.reads(IoCat::DataStack) > 0, "deep pops must page in");
    }

    #[test]
    fn u64_and_u32_entry_helpers() {
        let (disk, budget) = setup(8, 2); // entries straddle tiny blocks
        let mut s = ExtStack::new(disk, &budget, IoCat::OutLocStack, 1).unwrap();
        for i in 0..50u64 {
            s.push_u64(i * 3).unwrap();
            s.push_u32(i as u32).unwrap();
        }
        for i in (0..50u64).rev() {
            assert_eq!(s.pop_u32().unwrap(), i as u32);
            assert_eq!(s.pop_u64().unwrap(), i * 3);
        }
    }

    #[test]
    fn truncate_frees_blocks_and_push_resumes_mid_block() {
        let (disk, budget) = setup(16, 4);
        let mut s = ExtStack::new(disk.clone(), &budget, IoCat::DataStack, 1).unwrap();
        s.push(&[1u8; 100]).unwrap();
        let blocks_before = s.num_blocks();
        s.truncate(10).unwrap();
        assert_eq!(s.len(), 10);
        assert!(s.num_blocks() < blocks_before);
        s.push(b"XY").unwrap();
        let tail = s.pop(3).unwrap();
        assert_eq!(tail, [1, b'X', b'Y']);
    }

    #[test]
    fn range_extent_streams_an_interior_range() {
        let (disk, budget) = setup(16, 4);
        let mut s = ExtStack::new(disk.clone(), &budget, IoCat::DataStack, 1).unwrap();
        let data: Vec<u8> = (0..120u8).collect();
        s.push(&data).unwrap();
        let ext = s.range_extent().unwrap();
        let mut r = ExtentReader::new(disk, &budget, &ext, IoCat::DataStack).unwrap();
        r.seek(40);
        let mut mid = [0u8; 50];
        r.read_exact(&mut mid).unwrap();
        assert_eq!(&mid[..], &data[40..90]);
        // The stack itself is untouched by the range read.
        assert_eq!(s.len(), 120);
        assert_eq!(s.pop(1).unwrap(), [119]);
    }

    #[test]
    fn lifo_workload_with_two_frames_stays_cheap() {
        // Pure LIFO traffic that oscillates inside the top two blocks should
        // cause no paging at all once both are resident.
        let (disk, budget) = setup(32, 4);
        let mut s = ExtStack::new(disk.clone(), &budget, IoCat::PathStack, 2).unwrap();
        s.push(&[0u8; 48]).unwrap(); // top two blocks resident
        let before = disk.stats().snapshot();
        for _ in 0..1000 {
            s.push(&[1u8; 8]).unwrap();
            s.pop(8).unwrap();
        }
        let delta = disk.stats().snapshot().since(&before);
        assert_eq!(delta.grand_total(), 0, "oscillation within resident frames must be free");
    }

    #[test]
    fn paging_cost_of_full_sweep_is_linear_in_blocks() {
        let (disk, budget) = setup(32, 2);
        let mut s = ExtStack::new(disk.clone(), &budget, IoCat::DataStack, 1).unwrap();
        let n_bytes = 32 * 50;
        s.push(&vec![9u8; n_bytes]).unwrap();
        let snap = disk.stats().snapshot();
        // 50 blocks, one frame: all but the top block paged out exactly once.
        assert_eq!(snap.writes(IoCat::DataStack), 49);
        s.pop(n_bytes).unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.reads(IoCat::DataStack), 49, "each paged-out block read back once");
    }

    #[test]
    fn stack_matches_vec_model_under_random_program() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let (disk, budget) = setup(8, 4);
        let mut s = ExtStack::new(disk, &budget, IoCat::DataStack, 2).unwrap();
        let mut model: Vec<u8> = Vec::new();
        for step in 0..2000 {
            if model.is_empty() || rng.gen_bool(0.55) {
                let n = rng.gen_range(1..20);
                let data: Vec<u8> = (0..n).map(|i| (step + i) as u8).collect();
                s.push(&data).unwrap();
                model.extend_from_slice(&data);
            } else {
                let n = rng.gen_range(1..=model.len().min(25));
                let got = s.pop(n).unwrap();
                let expect: Vec<u8> = model.split_off(model.len() - n);
                assert_eq!(got, expect, "mismatch at step {step}");
            }
            assert_eq!(s.len(), model.len() as u64);
        }
    }

    #[test]
    fn frames_come_from_the_budget() {
        let (disk, budget) = setup(8, 3);
        let _a = ExtStack::new(disk.clone(), &budget, IoCat::PathStack, 2).unwrap();
        assert_eq!(budget.used_frames(), 2);
        assert!(ExtStack::new(disk, &budget, IoCat::DataStack, 2).is_err());
    }

    #[test]
    fn flush_makes_blocks_readable_and_is_idempotent() {
        let (disk, budget) = setup(16, 4);
        let mut s = ExtStack::new(disk.clone(), &budget, IoCat::DataStack, 2).unwrap();
        s.push(&[5u8; 40]).unwrap();
        s.flush().unwrap();
        let w1 = disk.stats().snapshot().writes(IoCat::DataStack);
        s.flush().unwrap(); // nothing dirty: free
        let w2 = disk.stats().snapshot().writes(IoCat::DataStack);
        assert_eq!(w1, w2);
    }

    #[test]
    fn a_lending_stack_borrows_free_frames_instead_of_paging_out() {
        let (disk, budget) = setup(16, 6);
        let _other = budget.reserve(1).unwrap();
        let mut s = ExtStack::new(disk.clone(), &budget, IoCat::DataStack, 1).unwrap().lending(8);
        s.push(&[3u8; 16 * 5]).unwrap();
        assert_eq!((s.lent_frames(), budget.free_frames()), (4, 0));
        assert_eq!(disk.stats().snapshot().grand_total(), 0, "no page-out while frames are free");
        // The budget is empty: the sixth block pages the deepest one out.
        s.push(&[3u8; 16]).unwrap();
        assert_eq!(s.lent_frames(), 4);
        assert_eq!(disk.stats().snapshot().writes(IoCat::DataStack), 1);
        assert!(!s.is_resident_from(0) && s.is_resident_from(16));
        // Truncating gives the frames of the dropped blocks back.
        s.truncate(16 * 2 + 3).unwrap();
        assert_eq!((s.lent_frames(), budget.free_frames()), (1, 3));
        assert!(s.is_resident_from(16));
    }

    #[test]
    fn lending_stops_at_the_cap() {
        let (disk, budget) = setup(16, 10);
        let mut s = ExtStack::new(disk.clone(), &budget, IoCat::DataStack, 1).unwrap().lending(3);
        s.push(&[1u8; 16 * 5]).unwrap();
        assert_eq!((s.lent_frames(), budget.used_frames()), (2, 3));
        assert_eq!(disk.stats().snapshot().writes(IoCat::DataStack), 2);
        assert_eq!(s.pop(16 * 5).unwrap(), [1u8; 16 * 5]);
        assert_eq!(budget.used_frames(), 1, "only the reservation outlives the bytes");
    }

    #[test]
    fn shed_writes_dirty_frames_and_returns_them() {
        let (disk, budget) = setup(16, 8);
        let mut s = ExtStack::new(disk.clone(), &budget, IoCat::DataStack, 1).unwrap().lending(8);
        let data: Vec<u8> = (0..64u8).collect();
        s.push(&data).unwrap();
        assert_eq!(s.lent_frames(), 3);
        s.shed(1).unwrap();
        assert_eq!((s.lent_frames(), budget.used_frames()), (2, 3));
        s.shed(usize::MAX).unwrap();
        assert_eq!((s.lent_frames(), budget.used_frames()), (0, 1));
        assert_eq!(disk.stats().snapshot().writes(IoCat::DataStack), 3, "deep frames written");
        assert!(s.is_resident_from(48), "the top block stays");
        assert_eq!(s.pop(64).unwrap(), data);
    }

    #[test]
    fn a_fixed_window_never_lends() {
        let (disk, budget) = setup(16, 8);
        let mut s = ExtStack::new(disk.clone(), &budget, IoCat::DataStack, 1).unwrap().lending(1);
        assert!(!s.lends());
        s.push(&[2u8; 16 * 4]).unwrap();
        assert_eq!((s.lent_frames(), budget.used_frames()), (0, 1));
        assert_eq!(disk.stats().snapshot().writes(IoCat::DataStack), 3);
    }

    #[test]
    fn boundary_ping_pong_repaging_is_absorbed_by_a_buffer_pool() {
        // A pop/push cycle straddling a block boundary with one resident
        // frame repages the boundary block every cycle (the "+x" term of
        // Lemma 4.10). A pool absorbs those re-reads: logical paging -- the
        // lemma's quantity -- is identical, physical paging shrinks.
        let run = |disk: &Rc<Disk>| {
            let budget = MemoryBudget::new(2);
            let mut s = ExtStack::new(disk.clone(), &budget, IoCat::DataStack, 1).unwrap();
            s.push(&[7u8; 34]).unwrap(); // bs=16: two full blocks + 2 bytes
            for _ in 0..8 {
                assert_eq!(s.pop(4).unwrap(), [7u8; 4]);
                s.push(&[7u8; 4]).unwrap();
            }
            assert_eq!(s.pop(34).unwrap(), [7u8; 34]);
        };
        let plain = Disk::new_mem(16);
        run(&plain);
        let cached = Disk::new_mem(16);
        cached.enable_cache(4, crate::CachePolicy::Lru, crate::WriteMode::Through);
        run(&cached);
        let p = plain.stats().snapshot();
        let c = cached.stats().snapshot();
        assert_eq!(p.reads(IoCat::DataStack), c.reads(IoCat::DataStack));
        assert_eq!(p.writes(IoCat::DataStack), c.writes(IoCat::DataStack));
        assert!(
            c.phys_reads(IoCat::DataStack) < c.reads(IoCat::DataStack),
            "boundary re-reads must hit the pool: {} phys vs {} logical",
            c.phys_reads(IoCat::DataStack),
            c.reads(IoCat::DataStack)
        );
    }
}
