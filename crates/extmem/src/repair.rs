//! Self-healing run storage: XOR parity groups, block reconstruction, and
//! the repairing run reader.
//!
//! A persistent media fault -- a block whose checksum never verifies or
//! whose reads exhaust the retry budget -- used to abort the whole sort.
//! This module makes sealed runs *redundant*: every `K` data blocks of a
//! run get one XOR parity block (`K = 1` is mirroring), written through the
//! normal pool path and charged to [`IoCat::Parity`]. When a
//! merge read hits a hard fault, [`RunReader`] reconstructs the block from
//! the surviving `K - 1` members plus parity, verifies the reconstruction
//! against a per-block FNV-1a sum recorded at seal time, relocates the data
//! to a fresh block, and quarantines the bad one in the disk's
//! [`DeviceHealth`](crate::fault::DeviceHealth) map. The sort continues with
//! bit-identical output; only the parity accounting and the health counters
//! show anything happened.
//!
//! Tolerance is exactly one lost block per parity group. A second loss in
//! the same group surfaces as
//! [`ExtError::UnrecoverableGroup`](crate::ExtError::UnrecoverableGroup),
//! which the sorter treats as a signal to re-derive the run from its
//! journalled source rather than fail the job (see `nexsort-core`).
//!
//! The parity accumulator and per-block sums live in host memory next to
//! the checksum table of
//! [`ChecksummedDevice`](crate::ChecksummedDevice): metadata-scale state
//! outside the paper's `M`-block budget, like a real controller's NVRAM.

use std::rc::Rc;

use crate::budget::{FrameGuard, MemoryBudget};
use crate::device::Disk;
use crate::error::{ExtError, Result};
use crate::extent::ByteReader;
use crate::fault::{fnv1a64, fnv1a64_seed, fnv1a64_update};
use crate::run_store::{RunId, RunStore};
use crate::stats::IoCat;

/// Redundancy metadata of one sealed run: the parity blocks plus a FNV-1a
/// sum of every data block's meaningful prefix, recorded at seal time and
/// journalled with the run so scrub and recovery can verify reconstructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunParity {
    /// Data blocks per parity block (`K`; 1 = mirror).
    pub group: u32,
    /// Parity block ids, one per group of `K` data blocks, in order.
    pub parity: Vec<u64>,
    /// FNV-1a sum of each data block's meaningful prefix, in extent order.
    pub sums: Vec<u64>,
}

/// Bytes of block `idx` that carry run data: the block size everywhere
/// except a partial final block.
pub(crate) fn block_prefix_len(len: u64, bs: usize, idx: usize, num_blocks: usize) -> usize {
    let tail = (len % bs as u64) as usize;
    if idx + 1 == num_blocks && tail != 0 {
        tail
    } else {
        bs
    }
}

/// Streaming XOR-parity accumulator fed by `RunWriter` as run bytes flow
/// past. Block boundaries are tracked independently of the extent writer's
/// buffer but land on exactly the same offsets (both advance one block per
/// `block_size` bytes), so the sums and parity line up with the extent.
pub(crate) struct ParityBuilder {
    group: usize,
    bs: usize,
    /// XOR of the current group's data so far; tail beyond every member's
    /// prefix stays zero, which keeps partial final blocks XOR-exact.
    acc: Vec<u8>,
    /// Bytes absorbed into the current data block.
    filled: usize,
    /// Data blocks absorbed into the current group.
    group_fill: usize,
    /// Incremental FNV-1a state of the current data block.
    cur: u64,
    sums: Vec<u64>,
    parity: Vec<u64>,
}

impl ParityBuilder {
    pub(crate) fn new(group: usize, bs: usize) -> Self {
        assert!(group > 0, "parity group must be at least 1");
        Self {
            group,
            bs,
            acc: vec![0u8; bs],
            filled: 0,
            group_fill: 0,
            cur: fnv1a64_seed(),
            sums: Vec::new(),
            parity: Vec::new(),
        }
    }

    /// Absorb the next run bytes; emits a parity block every `group` data
    /// blocks. Called after the extent writer has accepted the same bytes,
    /// so a group's parity write always follows its data writes.
    pub(crate) fn absorb(&mut self, disk: &Rc<Disk>, mut buf: &[u8]) -> Result<()> {
        while !buf.is_empty() {
            let take = (self.bs - self.filled).min(buf.len());
            let (chunk, rest) = buf.split_at(take);
            for (i, &b) in chunk.iter().enumerate() {
                self.acc[self.filled + i] ^= b;
            }
            self.cur = fnv1a64_update(self.cur, chunk);
            self.filled += take;
            buf = rest;
            if self.filled == self.bs {
                self.seal_block(disk)?;
            }
        }
        Ok(())
    }

    fn seal_block(&mut self, disk: &Rc<Disk>) -> Result<()> {
        self.sums.push(self.cur);
        self.cur = fnv1a64_seed();
        self.filled = 0;
        self.group_fill += 1;
        if self.group_fill == self.group {
            self.flush_parity(disk)?;
        }
        Ok(())
    }

    fn flush_parity(&mut self, disk: &Rc<Disk>) -> Result<()> {
        let id = disk.alloc_block();
        disk.write_block(id, &self.acc, IoCat::Parity)?;
        self.parity.push(id);
        self.acc.fill(0);
        self.group_fill = 0;
        Ok(())
    }

    /// Seal any partial final block and flush the residual parity group.
    /// `None` for an empty run (nothing to protect).
    pub(crate) fn finish(mut self, disk: &Rc<Disk>) -> Result<Option<RunParity>> {
        if self.filled > 0 {
            self.seal_block(disk)?;
        }
        if self.group_fill > 0 {
            self.flush_parity(disk)?;
        }
        if self.sums.is_empty() {
            return Ok(None);
        }
        Ok(Some(RunParity {
            group: self.group as u32,
            parity: std::mem::take(&mut self.parity),
            sums: std::mem::take(&mut self.sums),
        }))
    }
}

/// Rebuild data block `idx` of a run into `out` (one full block) by XORing
/// its parity block with the group's surviving members, then verify the
/// reconstruction against the sealed per-block sum.
///
/// A hard fault on a sibling or on the parity block itself quarantines that
/// block too (it is lost as well) and yields
/// [`ExtError::UnrecoverableGroup`]; a reconstruction that fails the sum
/// check yields [`ExtError::ParityMismatch`]. All reads are charged to
/// [`IoCat::Parity`] -- repair traffic must not perturb the paper's logical
/// categories.
pub(crate) fn reconstruct_block(
    disk: &Rc<Disk>,
    run: u32,
    blocks: &[u64],
    len: u64,
    par: &RunParity,
    idx: usize,
    out: &mut [u8],
) -> Result<()> {
    let bs = disk.block_size();
    let k = par.group as usize;
    let g = idx / k;
    let lost = blocks[idx];
    let parity_block = *par.parity.get(g).ok_or(ExtError::ParityMismatch { block: lost })?;
    if let Err(e) = disk.read_block(parity_block, out, IoCat::Parity) {
        if e.is_hard_media_fault() {
            disk.quarantine_block(parity_block);
            return Err(ExtError::UnrecoverableGroup { run, lost });
        }
        return Err(e);
    }
    let mut sibling = vec![0u8; bs];
    let group_end = ((g + 1) * k).min(blocks.len());
    for j in g * k..group_end {
        if j == idx {
            continue;
        }
        if let Err(e) = disk.read_block(blocks[j], &mut sibling, IoCat::Parity) {
            if e.is_hard_media_fault() {
                disk.quarantine_block(blocks[j]);
                return Err(ExtError::UnrecoverableGroup { run, lost });
            }
            return Err(e);
        }
        let plen = block_prefix_len(len, bs, j, blocks.len());
        for (o, &s) in out.iter_mut().zip(&sibling[..plen]) {
            *o ^= s;
        }
    }
    let plen = block_prefix_len(len, bs, idx, blocks.len());
    let sum = *par.sums.get(idx).ok_or(ExtError::ParityMismatch { block: lost })?;
    if fnv1a64(&out[..plen]) != sum {
        return Err(ExtError::ParityMismatch { block: lost });
    }
    Ok(())
}

/// What a [`RunStore::scrub`] pass found and fixed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Data blocks whose sums were verified.
    pub scanned: u64,
    /// Data blocks reconstructed and relocated off a quarantined sector.
    pub repaired: u64,
    /// Parity blocks found stale or unreadable and rewritten.
    pub parity_rewritten: u64,
    /// Blocks that could not be reconstructed (a second loss in their
    /// group, or a reconstruction failing its sum). The run data is still
    /// damaged; only re-derivation from the source can heal it.
    pub unrecoverable: u64,
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} scanned, {} repaired, {} parity rewritten, {} unrecoverable",
            self.scanned, self.repaired, self.parity_rewritten, self.unrecoverable
        )
    }
}

/// Forward cursor over a run that self-heals: hard media faults on a data
/// block trigger parity reconstruction, relocation, and quarantine instead
/// of surfacing to the merge. Mirrors `ExtentReader`'s cost model -- one
/// resident frame, one logical read per block load, sequential read-ahead --
/// so the paper's accounting is unchanged on the fault-free path.
pub struct RunReader {
    store: Rc<RunStore>,
    id: RunId,
    cat: IoCat,
    _frame: FrameGuard,
    len: u64,
    num_blocks: usize,
    pos: u64,
    frame: Vec<u8>,
    loaded: Option<usize>,
}

impl RunReader {
    pub(crate) fn new(
        store: Rc<RunStore>,
        id: RunId,
        budget: &MemoryBudget,
        cat: IoCat,
    ) -> Result<Self> {
        let frame = budget.reserve(1)?;
        let ext = store.extent_of(id)?;
        let bs = store.disk().block_size();
        Ok(Self {
            store,
            id,
            cat,
            _frame: frame,
            len: ext.len(),
            num_blocks: ext.num_blocks(),
            pos: 0,
            frame: vec![0u8; bs],
            loaded: None,
        })
    }

    /// Current byte offset.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Total byte length of the run.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the run is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Jump to an absolute offset. Costs nothing until the next read.
    pub fn seek(&mut self, pos: u64) {
        debug_assert!(pos <= self.len);
        self.pos = pos;
    }

    fn load(&mut self, block_idx: usize) -> Result<()> {
        if self.loaded != Some(block_idx) {
            self.store.read_run_block(self.id, block_idx, &mut self.frame, self.cat)?;
            self.loaded = Some(block_idx);
        }
        Ok(())
    }
}

impl ByteReader for RunReader {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let available = (self.len - self.pos) as usize;
        if buf.len() > available {
            return Err(ExtError::UnexpectedEof { wanted: buf.len(), available });
        }
        let bs = self.store.disk().block_size() as u64;
        let mut filled = 0;
        while filled < buf.len() {
            let block_idx = (self.pos / bs) as usize;
            let off = (self.pos % bs) as usize;
            debug_assert!(block_idx < self.num_blocks);
            self.load(block_idx)?;
            let take = (bs as usize - off).min(buf.len() - filled);
            buf[filled..filled + take].copy_from_slice(&self.frame[off..off + take]);
            filled += take;
            self.pos += take as u64;
        }
        Ok(())
    }

    fn remaining(&self) -> u64 {
        self.len - self.pos
    }
}
