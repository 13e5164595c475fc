//! Storage for sorted runs, connected by run pointers into a tree.
//!
//! In the sorting phase NEXSORT collapses each sufficiently large complete
//! subtree into a *sorted run* on disk, leaving behind a pointer; the runs
//! form a tree (Figure 3) that the output phase traverses depth-first. The
//! [`RunStore`] owns the runs' extents and hands out accounting cursors.
//! Run I/O flows through [`Disk`], so an enabled buffer pool serves re-reads
//! of hot run pages (e.g. the heads of merge fan-in runs) from memory, and
//! discarding a run invalidates its cached frames before the blocks recycle.
//!
//! With a parity group configured ([`RunStore::set_parity_group`]), sealing
//! a run also writes one XOR parity block per `K` data blocks (see
//! [`repair`](crate::repair)), and [`RunStore::open`] hands out a
//! self-healing [`RunReader`] that survives hard media faults on any single
//! block of a group.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::budget::MemoryBudget;
use crate::device::Disk;
use crate::error::{ExtError, Result};
use crate::extent::{ByteSink, Extent, ExtentWriter};
use crate::fault::fnv1a64;
use crate::repair::{
    block_prefix_len, reconstruct_block, ParityBuilder, RunParity, RunReader, ScrubReport,
};
use crate::stats::IoCat;

/// Identifier of a sorted run within a [`RunStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(pub u32);

/// A collection of sorted runs on one disk.
pub struct RunStore {
    disk: Rc<Disk>,
    runs: RefCell<Vec<Extent>>,
    /// Redundancy metadata, parallel to `runs`; `None` for unprotected runs.
    parity: RefCell<Vec<Option<RunParity>>>,
    /// Data blocks per parity block for newly created runs; 0 disables
    /// parity (the default -- redundancy is strictly opt-in).
    parity_group: Cell<usize>,
}

impl RunStore {
    /// An empty store on `disk`.
    pub fn new(disk: Rc<Disk>) -> Rc<Self> {
        Rc::new(Self {
            disk,
            runs: RefCell::new(Vec::new()),
            parity: RefCell::new(Vec::new()),
            parity_group: Cell::new(0),
        })
    }

    /// Rebuild a store from journal-recovered runs: `(token, extent, parity)`
    /// triples where each token is the run's original store index. Gaps
    /// (tokens of runs that were discarded or never committed) become empty
    /// extents, so surviving ids keep their original numbering and journal
    /// records that name them stay meaningful.
    pub fn restore(disk: Rc<Disk>, runs: Vec<(u32, Extent, Option<RunParity>)>) -> Rc<Self> {
        let len = runs.iter().map(|&(t, _, _)| t as usize + 1).max().unwrap_or(0);
        let mut slots = vec![Extent::empty(); len];
        let mut pslots: Vec<Option<RunParity>> = vec![None; len];
        for (token, ext, par) in runs {
            slots[token as usize] = ext;
            pslots[token as usize] = par;
        }
        Rc::new(Self {
            disk,
            runs: RefCell::new(slots),
            parity: RefCell::new(pslots),
            parity_group: Cell::new(0),
        })
    }

    /// Protect runs created from now on with one XOR parity block per
    /// `group` data blocks (`1` = mirror every block, `0` = no parity).
    pub fn set_parity_group(&self, group: usize) {
        self.parity_group.set(group);
    }

    /// The configured parity group size (0 = parity disabled).
    pub fn parity_group(&self) -> usize {
        self.parity_group.get()
    }

    /// The extent of run `id` (cloned). Checkpointing journals this as the
    /// run's durable identity.
    pub fn extent_of(&self, id: RunId) -> Result<Extent> {
        let runs = self.runs.borrow();
        runs.get(id.0 as usize)
            .cloned()
            .ok_or(ExtError::BadRun { run: id.0, total: runs.len() as u32 })
    }

    /// The redundancy metadata of run `id` (cloned), if it was sealed with
    /// parity. Checkpointing journals this alongside the extent.
    pub fn parity_of(&self, id: RunId) -> Result<Option<RunParity>> {
        let runs = self.runs.borrow();
        if id.0 as usize >= runs.len() {
            return Err(ExtError::BadRun { run: id.0, total: runs.len() as u32 });
        }
        Ok(self.parity.borrow()[id.0 as usize].clone())
    }

    /// The disk the runs live on.
    pub fn disk(&self) -> &Rc<Disk> {
        &self.disk
    }

    /// Begin writing a new run; writes are charged to `cat` (normally
    /// [`IoCat::RunWrite`], or [`IoCat::SortScratch`] for intermediate runs
    /// of an external merge). With a parity group configured, parity blocks
    /// stream out alongside the data, charged to [`IoCat::Parity`].
    pub fn create(self: &Rc<Self>, budget: &MemoryBudget, cat: IoCat) -> Result<RunWriter> {
        let inner = ExtentWriter::new(self.disk.clone(), budget, cat)?;
        let builder = match self.parity_group.get() {
            0 => None,
            k => Some(ParityBuilder::new(k, self.disk.block_size())),
        };
        Ok(RunWriter { store: self.clone(), inner: Some(inner), builder })
    }

    /// Open run `id` for sequential reading, charging reads to `cat`. The
    /// returned [`RunReader`] transparently repairs hard media faults when
    /// the run carries parity.
    pub fn open(
        self: &Rc<Self>,
        id: RunId,
        budget: &MemoryBudget,
        cat: IoCat,
    ) -> Result<RunReader> {
        RunReader::new(self.clone(), id, budget, cat)
    }

    /// Length of run `id` in bytes.
    pub fn run_len(&self, id: RunId) -> Result<u64> {
        let runs = self.runs.borrow();
        runs.get(id.0 as usize)
            .map(Extent::len)
            .ok_or(ExtError::BadRun { run: id.0, total: runs.len() as u32 })
    }

    /// Number of runs created so far (the paper's `x`, plus any scratch runs).
    pub fn num_runs(&self) -> u32 {
        self.runs.borrow().len() as u32
    }

    /// Total device blocks across all live runs (Lemma 4.8 measures this).
    /// Parity blocks are not counted: the lemma measures run data.
    pub fn total_blocks(&self) -> u64 {
        self.runs.borrow().iter().map(|e| e.num_blocks() as u64).sum()
    }

    /// Free the blocks of run `id` (used to discard scratch runs after a
    /// merge pass), along with its parity blocks. Quarantined blocks stay
    /// retired (freeing them is a no-op at the [`Disk`] layer). The id
    /// remains valid but the run becomes empty.
    pub fn discard(&self, id: RunId) -> Result<()> {
        {
            let mut runs = self.runs.borrow_mut();
            let total = runs.len() as u32;
            let ext = runs.get_mut(id.0 as usize).ok_or(ExtError::BadRun { run: id.0, total })?;
            ext.free(&self.disk)?;
        }
        if let Some(par) = self.parity.borrow_mut()[id.0 as usize].take() {
            for b in par.parity {
                self.disk.free_block(b)?;
            }
        }
        Ok(())
    }

    /// Read data block `block_idx` of run `id` into `buf`, repairing a hard
    /// media fault from the run's parity group when possible. This is the
    /// single read seam of [`RunReader`]: the fault-free path is exactly one
    /// logical read charged to `cat`.
    pub(crate) fn read_run_block(
        &self,
        id: RunId,
        block_idx: usize,
        buf: &mut [u8],
        cat: IoCat,
    ) -> Result<()> {
        let block = {
            let runs = self.runs.borrow();
            let ext = runs
                .get(id.0 as usize)
                .ok_or(ExtError::BadRun { run: id.0, total: runs.len() as u32 })?;
            ext.blocks()[block_idx]
        };
        match self.disk.read_block(block, buf, cat) {
            Ok(()) => Ok(()),
            Err(e) if e.is_hard_media_fault() => {
                self.repair_run_block(id, block_idx, block, buf, e)
            }
            Err(e) => Err(e),
        }
    }

    /// Reconstruct a hard-faulted data block from parity, relocate it to a
    /// fresh block, and quarantine the bad sector. `cause` is returned
    /// unchanged when the run carries no parity.
    fn repair_run_block(
        &self,
        id: RunId,
        block_idx: usize,
        bad: u64,
        buf: &mut [u8],
        cause: ExtError,
    ) -> Result<()> {
        let Some(par) = self.parity.borrow()[id.0 as usize].clone() else {
            return Err(cause);
        };
        let (blocks, len) = {
            let runs = self.runs.borrow();
            let ext = &runs[id.0 as usize];
            (ext.blocks().to_vec(), ext.len())
        };
        reconstruct_block(&self.disk, id.0, &blocks, len, &par, block_idx, buf)?;
        let fresh = self.disk.alloc_block();
        let plen = block_prefix_len(len, self.disk.block_size(), block_idx, blocks.len());
        self.disk.write_block(fresh, &buf[..plen], IoCat::Parity)?;
        self.disk.quarantine_block(bad);
        self.runs.borrow_mut()[id.0 as usize].replace_block(block_idx, fresh);
        self.disk.note_repair();
        Ok(())
    }

    /// Verify-and-repair pass over every parity-protected run: each data
    /// block is read back and checked against its sealed FNV sum; failures
    /// (bad sums *or* unreadable blocks) are reconstructed from parity,
    /// relocated, and the bad sector quarantined. Stale or unreadable parity
    /// blocks are then rewritten from the verified data, so one pass returns
    /// the store to full redundancy. All I/O is charged to [`IoCat::Parity`].
    pub fn scrub(&self) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let bs = self.disk.block_size();
        let mut buf = vec![0u8; bs];
        let num = self.runs.borrow().len();
        for run in 0..num {
            let Some(par) = self.parity.borrow()[run].clone() else { continue };
            let (blocks, len) = {
                let runs = self.runs.borrow();
                (runs[run].blocks().to_vec(), runs[run].len())
            };
            let k = par.group as usize;
            let mut acc = vec![0u8; bs];
            for idx in 0..blocks.len() {
                report.scanned += 1;
                let plen = block_prefix_len(len, bs, idx, blocks.len());
                let healthy = self.disk.read_block(blocks[idx], &mut buf, IoCat::Parity).is_ok()
                    && fnv1a64(&buf[..plen]) == par.sums[idx];
                if !healthy {
                    match reconstruct_block(
                        &self.disk, run as u32, &blocks, len, &par, idx, &mut buf,
                    ) {
                        Ok(()) => {
                            let fresh = self.disk.alloc_block();
                            self.disk.write_block(fresh, &buf[..plen], IoCat::Parity)?;
                            self.disk.quarantine_block(blocks[idx]);
                            self.runs.borrow_mut()[run].replace_block(idx, fresh);
                            self.disk.note_repair();
                            report.repaired += 1;
                        }
                        Err(
                            ExtError::UnrecoverableGroup { .. } | ExtError::ParityMismatch { .. },
                        ) => {
                            report.unrecoverable += 1;
                            continue; // leave the group's parity untouched
                        }
                        Err(e) => return Err(e),
                    }
                }
                for (a, &b) in acc.iter_mut().zip(&buf[..plen]) {
                    *a ^= b;
                }
                let group_end = idx + 1 == blocks.len() || (idx + 1) % k == 0;
                if group_end {
                    let g = idx / k;
                    let stale = match self.disk.read_block(par.parity[g], &mut buf, IoCat::Parity) {
                        Ok(()) => buf != acc,
                        Err(_) => true,
                    };
                    if stale {
                        let fresh = self.disk.alloc_block();
                        self.disk.write_block(fresh, &acc, IoCat::Parity)?;
                        self.disk.quarantine_block(par.parity[g]);
                        let mut parity = self.parity.borrow_mut();
                        if let Some(slot) = parity[run].as_mut() {
                            slot.parity[g] = fresh;
                        }
                        report.parity_rewritten += 1;
                    }
                    acc.fill(0);
                }
            }
        }
        Ok(report)
    }

    fn install(&self, ext: Extent, par: Option<RunParity>) -> RunId {
        let mut runs = self.runs.borrow_mut();
        runs.push(ext);
        self.parity.borrow_mut().push(par);
        RunId(runs.len() as u32 - 1)
    }
}

/// Append-only writer for one run; finishing registers it in the store.
pub struct RunWriter {
    store: Rc<RunStore>,
    inner: Option<ExtentWriter>,
    builder: Option<ParityBuilder>,
}

impl RunWriter {
    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.inner.as_ref().map_or(0, ExtentWriter::len)
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush and register the run, returning its id.
    pub fn finish(mut self) -> Result<RunId> {
        let Some(inner) = self.inner.take() else {
            return Err(ExtError::Corrupt("run writer finished twice".into()));
        };
        let ext = inner.finish()?;
        let par = match self.builder.take() {
            Some(b) => b.finish(self.store.disk())?,
            None => None,
        };
        Ok(self.store.install(ext, par))
    }
}

impl ByteSink for RunWriter {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        match self.inner.as_mut() {
            Some(inner) => inner.write_all(buf)?,
            None => return Err(ExtError::Corrupt("write to a finished run writer".into())),
        }
        if let Some(b) = self.builder.as_mut() {
            b.absorb(self.store.disk(), buf)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::ByteReader;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::MemDevice;

    fn setup() -> (Rc<Disk>, MemoryBudget, Rc<RunStore>) {
        let disk = Disk::new_mem(32);
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk.clone());
        (disk, budget, store)
    }

    #[test]
    fn create_finish_open_roundtrip() {
        let (_disk, budget, store) = setup();
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(b"sorted subtree payload").unwrap();
        let id = w.finish().unwrap();
        assert_eq!(store.run_len(id).unwrap(), 22);
        let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
        let mut buf = vec![0u8; 22];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"sorted subtree payload");
    }

    #[test]
    fn byte_reads_serve_the_resident_frame_and_load_blocks_as_read_exact_does() {
        let (disk, budget, store) = setup();
        let data: Vec<u8> = (0..100u8).collect();
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&data).unwrap();
        let id = w.finish().unwrap();
        let before = disk.stats().reads(IoCat::RunRead);
        let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
        assert!(r.resident().is_empty(), "nothing is resident before the first read");
        let mut got = vec![r.read_u8().unwrap()];
        assert_eq!(r.resident(), &data[1..32], "the rest of the first 32-byte block");
        r.consume(5);
        got.extend_from_slice(&data[1..6]);
        while r.remaining() > 0 {
            got.push(r.read_u8().unwrap());
        }
        assert_eq!(got, data);
        assert!(r.resident().is_empty() && r.read_u8().is_err());
        // One logical read per block, exactly as a single read_exact.
        assert_eq!(disk.stats().reads(IoCat::RunRead) - before, 4);
    }

    #[test]
    fn run_ids_are_dense_and_ordered() {
        let (_disk, budget, store) = setup();
        let a = store.create(&budget, IoCat::RunWrite).unwrap().finish().unwrap();
        let b = store.create(&budget, IoCat::RunWrite).unwrap().finish().unwrap();
        assert_eq!(a, RunId(0));
        assert_eq!(b, RunId(1));
        assert_eq!(store.num_runs(), 2);
    }

    #[test]
    fn total_blocks_counts_all_runs() {
        let (_disk, budget, store) = setup();
        for len in [10usize, 64, 100] {
            let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
            w.write_all(&vec![1u8; len]).unwrap();
            w.finish().unwrap();
        }
        // ceil(10/32)+ceil(64/32)+ceil(100/32) = 1+2+4
        assert_eq!(store.total_blocks(), 7);
    }

    #[test]
    fn bad_run_id_errors() {
        let (_disk, budget, store) = setup();
        assert!(store.open(RunId(3), &budget, IoCat::RunRead).is_err());
        assert!(store.run_len(RunId(0)).is_err());
        assert!(store.discard(RunId(9)).is_err());
    }

    #[test]
    fn discard_recycles_blocks() {
        let (disk, budget, store) = setup();
        let mut w = store.create(&budget, IoCat::SortScratch).unwrap();
        w.write_all(&vec![2u8; 320]).unwrap();
        let id = w.finish().unwrap();
        let blocks_before = disk.num_blocks();
        store.discard(id).unwrap();
        assert_eq!(store.run_len(id).unwrap(), 0);
        // Writing a same-sized run reuses the freed blocks.
        let mut w = store.create(&budget, IoCat::SortScratch).unwrap();
        w.write_all(&vec![3u8; 320]).unwrap();
        w.finish().unwrap();
        assert_eq!(disk.num_blocks(), blocks_before);
    }

    #[test]
    fn warm_pool_serves_run_rereads_without_physical_io() {
        let disk = Disk::new_mem(32);
        let cache_budget = MemoryBudget::new(8);
        disk.enable_cache(&cache_budget, 8, crate::CachePolicy::Clock, crate::WriteMode::Back)
            .unwrap();
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk.clone());
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&[5u8; 100]).unwrap(); // 4 blocks
        let id = w.finish().unwrap();
        // Write-back: the whole run is still resident in the pool.
        for _ in 0..2 {
            let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
            let mut buf = vec![0u8; 100];
            r.read_exact(&mut buf).unwrap();
            assert_eq!(buf, vec![5u8; 100]);
        }
        let snap = disk.stats().snapshot();
        assert_eq!(snap.reads(IoCat::RunRead), 8, "two logical passes over 4 blocks");
        assert_eq!(snap.phys_reads(IoCat::RunRead), 0, "both passes hit the pool");
        assert_eq!(snap.phys_writes(IoCat::RunWrite), 0, "write-back absorbed the run build");
        // Discarding the run drops its dirty frames along with the blocks:
        // nothing is ever written back for a dead run.
        store.discard(id).unwrap();
        disk.cache_flush_all().unwrap();
        assert_eq!(disk.stats().snapshot().grand_total_physical(), 0);
    }

    #[test]
    fn writes_and_reads_charge_their_categories() {
        let (disk, budget, store) = setup();
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&[4u8; 100]).unwrap();
        let id = w.finish().unwrap();
        let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
        let mut buf = vec![0u8; 100];
        r.read_exact(&mut buf).unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.writes(IoCat::RunWrite), 4); // ceil(100/32)
        assert_eq!(snap.reads(IoCat::RunRead), 4);
    }

    #[test]
    fn parity_writes_one_block_per_group_charged_to_parity() {
        let (disk, budget, store) = setup();
        store.set_parity_group(2);
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&[7u8; 100]).unwrap(); // 4 data blocks -> 2 parity blocks
        let id = w.finish().unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.writes(IoCat::RunWrite), 4, "data accounting is unchanged");
        assert_eq!(snap.writes(IoCat::Parity), 2, "ceil(4/2) parity blocks");
        let par = store.parity_of(id).unwrap().expect("run sealed with parity");
        assert_eq!(par.group, 2);
        assert_eq!(par.parity.len(), 2);
        assert_eq!(par.sums.len(), 4);
    }

    #[test]
    fn partial_final_group_still_gets_a_parity_block() {
        let (_disk, budget, store) = setup();
        store.set_parity_group(4);
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&[9u8; 170]).unwrap(); // 6 blocks: one full group + 2
        let id = w.finish().unwrap();
        let par = store.parity_of(id).unwrap().unwrap();
        assert_eq!(par.parity.len(), 2);
        assert_eq!(par.sums.len(), 6);
        // The empty run is unprotected: nothing to protect.
        let id2 = store.create(&budget, IoCat::RunWrite).unwrap().finish().unwrap();
        assert_eq!(store.parity_of(id2).unwrap(), None);
    }

    #[test]
    fn hard_fault_on_a_protected_run_is_repaired_transparently() {
        let (disk, injector) = Disk::new_faulty(Box::new(MemDevice::new(32)), FaultPlan::new(0));
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk.clone());
        store.set_parity_group(2);
        let data: Vec<u8> = (0..100u8).collect();
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&data).unwrap();
        let id = w.finish().unwrap();
        // Persistently corrupt the run's second data block: every read of it
        // now fails its checksum, a hard media fault after retries.
        let victim = store.extent_of(id).unwrap().blocks()[1];
        injector.script_block_read(victim, FaultKind::BitFlip);

        let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
        let mut out = vec![0u8; 100];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, data, "reconstruction is bit-identical");
        let health = disk.health();
        assert_eq!(health.repairs(), 1);
        assert!(health.is_quarantined(victim));
        // The extent now points at a fresh block; re-reads are clean.
        let healed = store.extent_of(id).unwrap().blocks()[1];
        assert_ne!(healed, victim);
        let mut r2 = store.open(id, &budget, IoCat::RunRead).unwrap();
        let mut out2 = vec![0u8; 100];
        r2.read_exact(&mut out2).unwrap();
        assert_eq!(out2, data);
        assert_eq!(disk.health().repairs(), 1, "no second repair needed");
    }

    #[test]
    fn unprotected_run_still_surfaces_the_hard_fault() {
        let (disk, injector) = Disk::new_faulty(Box::new(MemDevice::new(32)), FaultPlan::new(0));
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk.clone());
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&[1u8; 100]).unwrap();
        let id = w.finish().unwrap();
        let victim = store.extent_of(id).unwrap().blocks()[0];
        injector.script_block_read(victim, FaultKind::BitFlip);
        let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
        let mut out = vec![0u8; 100];
        let err = r.read_exact(&mut out).unwrap_err();
        assert!(err.is_hard_media_fault(), "{err}");
        assert_eq!(disk.health().repairs(), 0);
    }

    #[test]
    fn two_losses_in_one_group_are_unrecoverable() {
        let (disk, injector) = Disk::new_faulty(Box::new(MemDevice::new(32)), FaultPlan::new(0));
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk.clone());
        store.set_parity_group(4);
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&[3u8; 128]).unwrap(); // 4 blocks, one group
        let id = w.finish().unwrap();
        let blocks = store.extent_of(id).unwrap().blocks().to_vec();
        injector.script_block_read(blocks[0], FaultKind::BitFlip);
        injector.script_block_read(blocks[2], FaultKind::BitFlip);
        let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
        let mut out = vec![0u8; 128];
        let err = r.read_exact(&mut out).unwrap_err();
        assert!(matches!(err, ExtError::UnrecoverableGroup { run: 0, .. }), "{err}");
        // Both lost blocks are quarantined for the re-derivation path.
        assert!(disk.is_quarantined(blocks[0]) || disk.is_quarantined(blocks[2]));
    }

    #[test]
    fn mirror_mode_survives_a_fault_on_every_other_block() {
        let (disk, injector) = Disk::new_faulty(Box::new(MemDevice::new(32)), FaultPlan::new(0));
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk.clone());
        store.set_parity_group(1); // K=1: every data block mirrored
        let data: Vec<u8> = (0..200).map(|i| (i * 7 % 251) as u8).collect();
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&data).unwrap();
        let id = w.finish().unwrap();
        let blocks = store.extent_of(id).unwrap().blocks().to_vec();
        for &b in blocks.iter().step_by(2) {
            injector.script_block_read(b, FaultKind::BitFlip);
        }
        let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
        let mut out = vec![0u8; data.len()];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(disk.health().repairs() as usize, blocks.len().div_ceil(2));
    }

    #[test]
    fn scrub_repairs_silent_corruption_and_restores_redundancy() {
        let (disk, injector) = Disk::new_faulty(Box::new(MemDevice::new(32)), FaultPlan::new(0));
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk.clone());
        store.set_parity_group(2);
        let data: Vec<u8> = (0..100u8).collect();
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&data).unwrap();
        let id = w.finish().unwrap();
        let victim = store.extent_of(id).unwrap().blocks()[2];
        injector.script_block_read(victim, FaultKind::BitFlip);

        let report = store.scrub().unwrap();
        assert_eq!(report.scanned, 4);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.unrecoverable, 0);
        assert!(disk.is_quarantined(victim));
        // After the scrub the store is fully healthy again: a second pass
        // finds nothing, and the data reads back clean.
        let again = store.scrub().unwrap();
        assert_eq!((again.repaired, again.parity_rewritten, again.unrecoverable), (0, 0, 0));
        let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
        let mut out = vec![0u8; 100];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn scrub_rewrites_a_lost_parity_block() {
        let (disk, injector) = Disk::new_faulty(Box::new(MemDevice::new(32)), FaultPlan::new(0));
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk.clone());
        store.set_parity_group(2);
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&[6u8; 100]).unwrap();
        let id = w.finish().unwrap();
        let par = store.parity_of(id).unwrap().unwrap();
        injector.script_block_read(par.parity[0], FaultKind::BitFlip);
        let report = store.scrub().unwrap();
        assert_eq!(report.repaired, 0, "data was fine");
        assert_eq!(report.parity_rewritten, 1);
        let healed = store.parity_of(id).unwrap().unwrap();
        assert_ne!(healed.parity[0], par.parity[0]);
        // Redundancy works again: lose a data block of that group and repair.
        let victim = store.extent_of(id).unwrap().blocks()[0];
        injector.script_block_read(victim, FaultKind::BitFlip);
        let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
        let mut out = vec![0u8; 100];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, vec![6u8; 100]);
    }

    #[test]
    fn discard_frees_parity_blocks_but_never_quarantined_ones() {
        let (disk, injector) = Disk::new_faulty(Box::new(MemDevice::new(32)), FaultPlan::new(0));
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk.clone());
        store.set_parity_group(2);
        let mut w = store.create(&budget, IoCat::RunWrite).unwrap();
        w.write_all(&[8u8; 100]).unwrap();
        let id = w.finish().unwrap();
        let victim = store.extent_of(id).unwrap().blocks()[1];
        injector.script_block_read(victim, FaultKind::BitFlip);
        let mut r = store.open(id, &budget, IoCat::RunRead).unwrap();
        let mut out = vec![0u8; 100];
        r.read_exact(&mut out).unwrap(); // triggers the repair + quarantine
        drop(r);
        store.discard(id).unwrap();
        // The quarantined sector did not return to the allocator: it is
        // never handed out again.
        injector.clear_block_fault(victim);
        let reused: Vec<u64> = (0..disk.num_blocks() + 2).map(|_| disk.alloc_block()).collect();
        assert!(!reused.contains(&victim));
    }
}
