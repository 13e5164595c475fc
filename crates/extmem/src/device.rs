//! Block devices and the accounting [`Disk`] wrapper.
//!
//! The paper measures algorithms in the standard external-memory model of
//! Aggarwal and Vitter: data moves between internal memory and disk in blocks
//! of a fixed size, and the cost of an algorithm is the number of block
//! transfers. [`BlockDevice`] is the raw storage; [`Disk`] is the only way
//! algorithms touch it, and every transfer through `Disk` is tagged with an
//! [`IoCat`] and counted, reproducing the explicit I/O accounting the paper
//! got from TPIE.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::rc::Rc;

use crate::error::{ExtError, Result};
use crate::fault::{
    ChecksummedDevice, DeviceHealth, DiskFailure, FaultInjector, FaultPlan, FaultyDevice, IoPhase,
    RetryPolicy,
};
use crate::pool::{CachePolicy, PoolCore, SlotAcquire, WriteMode};
use crate::stats::{CacheEvent, IoCat, IoStats};

/// Raw block storage: fixed-size blocks addressed by a dense `u64` id.
pub trait BlockDevice {
    /// The block size in bytes. Constant for the lifetime of the device.
    fn block_size(&self) -> usize;
    /// Number of blocks ever allocated (ids are `0..num_blocks`).
    fn num_blocks(&self) -> u64;
    /// Allocate a fresh zeroed block and return its id. Recycles freed blocks.
    fn allocate(&mut self) -> u64;
    /// Return a block to the allocator for reuse.
    fn free(&mut self, id: u64) -> Result<()>;
    /// Read a whole block into `buf` (`buf.len() == block_size`).
    fn read(&mut self, id: u64, buf: &mut [u8]) -> Result<()>;
    /// Overwrite a whole block from `data` (`data.len() <= block_size`; the
    /// remainder of the block is unspecified and must not be relied upon).
    fn write(&mut self, id: u64, data: &[u8]) -> Result<()>;
    /// Whether `id` is allocated and not freed since: the allocator's own
    /// answer, which [`Disk`] consults before every logical transfer.
    fn is_live(&self, id: u64) -> bool;
    /// Ids of all currently-allocated (live) blocks, in ascending order.
    ///
    /// Crash recovery uses this to reconcile the allocator against the
    /// journal: blocks that are live on the device but belong to no
    /// committed structure are leaked by an interrupted sort and get freed.
    fn live_blocks(&self) -> Vec<u64> {
        (0..self.num_blocks()).filter(|&id| self.is_live(id)).collect()
    }
}

// Boxes delegate, so wrappers like `FaultyDevice<Box<dyn BlockDevice>>`
// compose over already-erased devices.
impl<T: BlockDevice + ?Sized> BlockDevice for Box<T> {
    fn block_size(&self) -> usize {
        (**self).block_size()
    }
    fn num_blocks(&self) -> u64 {
        (**self).num_blocks()
    }
    fn allocate(&mut self) -> u64 {
        (**self).allocate()
    }
    fn free(&mut self, id: u64) -> Result<()> {
        (**self).free(id)
    }
    fn read(&mut self, id: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read(id, buf)
    }
    fn write(&mut self, id: u64, data: &[u8]) -> Result<()> {
        (**self).write(id, data)
    }
    fn is_live(&self, id: u64) -> bool {
        (**self).is_live(id)
    }
}

/// The block-id allocator both devices share: ids are dense, freed ids are
/// recycled last-freed first, and a free of an id that is out of range or
/// already free is refused.
struct Allocator {
    num_blocks: u64,
    free_list: Vec<u64>,
    free_set: HashSet<u64>,
}

impl Allocator {
    /// An allocator whose ids `0..num_blocks` are all live.
    fn new(num_blocks: u64) -> Self {
        Self { num_blocks, free_list: Vec::new(), free_set: HashSet::new() }
    }

    /// A recycled id if there is one, else the next fresh id.
    fn allocate(&mut self) -> u64 {
        if let Some(id) = self.free_list.pop() {
            self.free_set.remove(&id);
            return id;
        }
        self.num_blocks += 1;
        self.num_blocks - 1
    }

    fn free(&mut self, id: u64) -> Result<()> {
        self.check(id)?;
        // A double free would enqueue the id twice and hand the same block
        // to two later allocations -- the classic aliasing corruption.
        if !self.free_set.insert(id) {
            return Err(ExtError::DoubleFree { block: id });
        }
        self.free_list.push(id);
        Ok(())
    }

    /// `BadBlock` unless `id` has ever been allocated.
    fn check(&self, id: u64) -> Result<()> {
        if id >= self.num_blocks {
            return Err(ExtError::BadBlock { block: id, total: self.num_blocks });
        }
        Ok(())
    }

    fn is_live(&self, id: u64) -> bool {
        id < self.num_blocks && !self.free_set.contains(&id)
    }

    /// Ids allocated and not freed.
    fn live(&self) -> u64 {
        self.num_blocks - self.free_list.len() as u64
    }
}

/// An in-memory block device: the default substrate for tests and benches.
///
/// Keeping blocks in host RAM does not change what is being measured -- the
/// experiments report block-transfer *counts*, which are identical whatever
/// medium backs the blocks.
pub struct MemDevice {
    block_size: usize,
    /// One buffer per id `alloc` has ever handed out, indexed by id.
    blocks: Vec<Box<[u8]>>,
    alloc: Allocator,
    high_water: u64,
}

impl MemDevice {
    /// A device with the given block size in bytes (must be nonzero).
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be nonzero");
        Self { block_size, blocks: Vec::new(), alloc: Allocator::new(0), high_water: 0 }
    }

    /// Maximum number of live (allocated, unfreed) blocks seen so far.
    pub fn high_water_blocks(&self) -> u64 {
        self.high_water
    }
}

impl BlockDevice for MemDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.alloc.num_blocks
    }

    fn allocate(&mut self) -> u64 {
        let id = self.alloc.allocate();
        match self.blocks.get_mut(id as usize) {
            Some(recycled) => recycled.fill(0),
            None => self.blocks.push(vec![0u8; self.block_size].into_boxed_slice()),
        }
        self.high_water = self.high_water.max(self.alloc.live());
        id
    }

    fn free(&mut self, id: u64) -> Result<()> {
        self.alloc.free(id)
    }

    fn read(&mut self, id: u64, buf: &mut [u8]) -> Result<()> {
        self.alloc.check(id)?;
        buf[..self.block_size].copy_from_slice(&self.blocks[id as usize]);
        Ok(())
    }

    fn write(&mut self, id: u64, data: &[u8]) -> Result<()> {
        self.alloc.check(id)?;
        self.blocks[id as usize][..data.len()].copy_from_slice(data);
        Ok(())
    }

    fn is_live(&self, id: u64) -> bool {
        self.alloc.is_live(id)
    }
}

/// A file-backed block device, for runs larger than host RAM or for running
/// the experiments against a real filesystem.
pub struct FileDevice {
    block_size: usize,
    file: File,
    alloc: Allocator,
}

impl FileDevice {
    /// Create (truncating) a device backed by the file at `path`.
    pub fn create(path: &Path, block_size: usize) -> Result<Self> {
        assert!(block_size > 0, "block size must be nonzero");
        let file = File::options().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(Self { block_size, file, alloc: Allocator::new(0) })
    }

    /// Open an *existing* device file without truncating it, e.g. to scrub or
    /// recover a finished sort. Every block within the file length starts out
    /// live; journal recovery reconciles the free map from there.
    pub fn open(path: &Path, block_size: usize) -> Result<Self> {
        assert!(block_size > 0, "block size must be nonzero");
        let file = File::options().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(Self { block_size, file, alloc: Allocator::new(len.div_ceil(block_size as u64)) })
    }
}

impl BlockDevice for FileDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.alloc.num_blocks
    }

    fn allocate(&mut self) -> u64 {
        self.alloc.allocate()
    }

    fn free(&mut self, id: u64) -> Result<()> {
        self.alloc.free(id)
    }

    fn read(&mut self, id: u64, buf: &mut [u8]) -> Result<()> {
        self.alloc.check(id)?;
        self.file.seek(SeekFrom::Start(id * self.block_size as u64))?;
        // A freshly-allocated block may not have been written yet; a short
        // read past EOF yields zeroes, matching MemDevice semantics.
        let mut filled = 0;
        while filled < self.block_size {
            let n = self.file.read(&mut buf[filled..self.block_size])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        buf[filled..self.block_size].fill(0);
        Ok(())
    }

    fn write(&mut self, id: u64, data: &[u8]) -> Result<()> {
        self.alloc.check(id)?;
        self.file.seek(SeekFrom::Start(id * self.block_size as u64))?;
        self.file.write_all(data)?;
        Ok(())
    }

    fn is_live(&self, id: u64) -> bool {
        self.alloc.is_live(id)
    }
}

/// The accounting front door to a block device.
///
/// All substrate structures (streams, stacks, the run store) perform their
/// transfers through a shared `Rc<Disk>`, tagging each with the [`IoCat`]
/// that names its purpose in the paper's cost breakdown.
///
/// # Logical vs. physical transfers
///
/// Every [`Disk::read_block`] / [`Disk::write_block`] call is one *logical*
/// transfer -- the quantity the paper's analysis bounds. When a buffer pool
/// is attached ([`DiskBuilder::cache`](crate::DiskBuilder::cache)), logical transfers that hit a resident
/// frame are served from memory, so the *physical* transfer counters (and the
/// trace, which records what actually reached the device) can fall below the
/// logical ones. With no pool the two coincide and behavior is byte-identical
/// to a pool-less build.
pub struct Disk {
    dev: RefCell<Box<dyn BlockDevice>>,
    stats: IoStats,
    block_size: usize,
    trace: RefCell<Option<Vec<TraceEntry>>>,
    retry: Cell<RetryPolicy>,
    phase: Cell<IoPhase>,
    last_failure: Cell<Option<DiskFailure>>,
    pool: RefCell<Option<PoolCore>>,
    stripe: usize,
    health: RefCell<DeviceHealth>,
}

/// One recorded block transfer (see [`Disk::start_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// True for a read, false for a write.
    pub is_read: bool,
    /// The block id touched.
    pub block: u64,
    /// The purpose the transfer was charged to.
    pub cat: IoCat,
}

impl Disk {
    /// Wrap an arbitrary device.
    pub fn new(dev: Box<dyn BlockDevice>) -> Rc<Self> {
        Self::with_stripe(dev, 1)
    }

    /// Wrap `dev`, which stripes blocks round-robin over `stripe` devices;
    /// the width attributes quarantined blocks to their stripe device.
    pub(crate) fn with_stripe(dev: Box<dyn BlockDevice>, stripe: usize) -> Rc<Self> {
        let block_size = dev.block_size();
        Rc::new(Self {
            dev: RefCell::new(dev),
            stats: IoStats::new(),
            block_size,
            trace: RefCell::new(None),
            retry: Cell::new(RetryPolicy::default()),
            phase: Cell::new(IoPhase::default()),
            last_failure: Cell::new(None),
            pool: RefCell::new(None),
            stripe: stripe.max(1),
            health: RefCell::new(DeviceHealth::new()),
        })
    }

    /// Wrap `dev` in the fault-injection stack: faults injected per `plan`
    /// below a checksum layer that detects any corruption they cause. The
    /// returned [`FaultInjector`] observes (and can extend) the schedule.
    /// Combine with [`Disk::set_retry_policy`] so transient faults heal.
    pub fn new_faulty(dev: Box<dyn BlockDevice>, plan: FaultPlan) -> (Rc<Self>, FaultInjector) {
        let faulty = FaultyDevice::new(dev, plan);
        let injector = faulty.injector();
        (Self::new(Box::new(ChecksummedDevice::new(faulty))), injector)
    }

    /// Start recording every *physical* block transfer (id + direction +
    /// category). Used to inspect access patterns -- e.g. asserting that a
    /// pass is sequential, or visualizing stack paging. With a buffer pool
    /// enabled, cache hits do not appear (nothing reached the device); with
    /// no pool, physical and logical transfers coincide. Any previous trace
    /// is discarded.
    pub fn start_trace(&self) {
        *self.trace.borrow_mut() = Some(Vec::new());
    }

    /// Stop tracing and return the recorded transfers (empty if tracing was
    /// never started).
    pub fn take_trace(&self) -> Vec<TraceEntry> {
        self.trace.borrow_mut().take().unwrap_or_default()
    }

    /// An in-memory disk with the given block size -- the usual choice.
    pub fn new_mem(block_size: usize) -> Rc<Self> {
        Self::new(Box::new(MemDevice::new(block_size)))
    }

    /// How many devices the underlying storage is striped across (1 when
    /// not striped).
    pub fn stripe_width(&self) -> usize {
        self.stripe
    }

    /// A file-backed disk at `path` (truncates any existing file).
    pub fn new_file(path: &Path, block_size: usize) -> Result<Rc<Self>> {
        Ok(Self::new(Box::new(FileDevice::create(path, block_size)?)))
    }

    /// A disk over an *existing* device file at `path`, preserving its
    /// contents (see [`FileDevice::open`]). Used by the scrub/recovery paths.
    pub fn open_file(path: &Path, block_size: usize) -> Result<Rc<Self>> {
        Ok(Self::new(Box::new(FileDevice::open(path, block_size)?)))
    }

    /// A point-in-time copy of the device health map: quarantined blocks,
    /// parity repairs, re-derived runs, and per-device fault clustering.
    pub fn health(&self) -> DeviceHealth {
        self.health.borrow().clone()
    }

    /// True if `block` has been quarantined after a hard media fault.
    pub fn is_quarantined(&self, block: u64) -> bool {
        self.health.borrow().is_quarantined(block)
    }

    /// Quarantine `block`: it is never freed, never reallocated, and every
    /// subsequent transfer addressing it fails with
    /// [`ExtError::BlockQuarantined`](crate::ExtError::BlockQuarantined).
    /// Any cached frame of the block is dropped -- its content is
    /// untrustworthy and must not resurface. The fault is
    /// attributed to stripe device `block % stripe_width` for clustering.
    pub fn quarantine_block(&self, block: u64) {
        if let Some(pool) = self.pool.borrow_mut().as_mut() {
            pool.invalidate(block);
        }
        let device = (block % self.stripe as u64) as u32;
        self.health.borrow_mut().quarantine(block, device);
    }

    /// Count one successful parity reconstruction in the health map.
    pub fn note_repair(&self) {
        self.health.borrow_mut().note_repair();
    }

    /// Count one run re-derived from its journalled source in the health map.
    pub fn note_rederivation(&self) {
        self.health.borrow_mut().note_rederivation();
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Handle onto the shared I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stats.clone()
    }

    /// Set how transfers respond to transient failures. Takes effect for all
    /// subsequent transfers; the default is [`RetryPolicy::none`].
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        assert!(policy.max_attempts >= 1, "a transfer needs at least one attempt");
        self.retry.set(policy);
    }

    /// The current retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry.get()
    }

    /// Label subsequent transfers with the algorithm phase performing them,
    /// so failures can be reported against it. Crate-private: everything
    /// outside the substrate stamps a phase through [`Disk::in_phase`],
    /// which cannot forget to restore it.
    pub(crate) fn set_phase(&self, phase: IoPhase) {
        self.phase.set(phase);
    }

    /// Run `f` with its transfers labelled `phase`. When `f` succeeds the
    /// caller's phase is restored; when it fails the failing phase stays in
    /// force, so [`Disk::phase`] still names where the work died (failure
    /// classification falls back to it when no transfer gave up).
    pub fn in_phase<T, E>(
        &self,
        phase: IoPhase,
        f: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        let entry = self.phase.replace(phase);
        let out = f();
        if out.is_ok() {
            self.phase.set(entry);
        }
        out
    }

    /// The phase label currently in force.
    pub fn phase(&self) -> IoPhase {
        self.phase.get()
    }

    /// The last transfer this disk gave up on (after exhausting retries or
    /// hitting a non-transient error), if any. Sticky until the next failure.
    pub fn last_failure(&self) -> Option<DiskFailure> {
        self.last_failure.get()
    }

    /// Run the retry loop around one attempt closure. Charges retries and
    /// simulated backoff to the stats; records a [`DiskFailure`] and wraps
    /// the final error in `RetriesExhausted` when the budget ran out.
    fn with_retries(
        &self,
        cat: IoCat,
        id: u64,
        is_read: bool,
        mut attempt_op: impl FnMut(&mut dyn BlockDevice) -> Result<()>,
    ) -> Result<()> {
        let policy = self.retry.get();
        let mut attempt = 1u32;
        loop {
            let outcome = attempt_op(&mut **self.dev.borrow_mut());
            match outcome {
                Ok(()) => {
                    if attempt > 1 {
                        self.stats.add_retries(cat, u64::from(attempt - 1));
                    }
                    return Ok(());
                }
                Err(e) if e.is_transient() && attempt < policy.max_attempts => {
                    self.stats.add_backoff(policy.backoff_before(attempt));
                    attempt += 1;
                }
                Err(e) => {
                    let retried = attempt - 1;
                    if retried > 0 {
                        self.stats.add_retries(cat, u64::from(retried));
                    }
                    self.last_failure.set(Some(DiskFailure {
                        cat,
                        block: id,
                        is_read,
                        attempts: attempt,
                        phase: self.phase.get(),
                    }));
                    return Err(if retried > 0 {
                        ExtError::RetriesExhausted { attempts: attempt, last: Box::new(e) }
                    } else {
                        e
                    });
                }
            }
        }
    }

    /// Number of blocks ever allocated on the underlying device.
    pub fn num_blocks(&self) -> u64 {
        self.dev.borrow().num_blocks()
    }

    /// Ids of all currently-allocated blocks on the underlying device, in
    /// ascending order (see [`BlockDevice::live_blocks`]). Crash recovery
    /// uses this to find and free blocks leaked by an interrupted sort.
    pub fn live_blocks(&self) -> Vec<u64> {
        self.dev.borrow().live_blocks()
    }

    /// Allocate a fresh block. Allocation itself is free in the I/O model;
    /// only transfers cost.
    pub fn alloc_block(&self) -> u64 {
        self.dev.borrow_mut().allocate()
    }

    /// Return a block for reuse (e.g. popped stack blocks). Any cached frame
    /// for the block is invalidated first -- its dirty contents are dead, and
    /// must not be written back over a future reallocation of the id.
    pub fn free_block(&self, id: u64) -> Result<()> {
        // A quarantined block is permanently retired: it must never re-enter
        // the allocator (a recycled bad sector would fault again), so freeing
        // one -- e.g. while discarding a partially-healed run -- is a no-op.
        if self.health.borrow().is_quarantined(id) {
            return Ok(());
        }
        if let Some(pool) = self.pool.borrow_mut().as_mut() {
            pool.invalidate(id);
        }
        self.dev.borrow_mut().free(id)
    }

    /// The liveness check every logical transfer makes first: the block
    /// must be one the device's allocator holds live. It runs before the
    /// pool, so a write-back write to a freed block is refused at once
    /// instead of landing in a frame. Ids past the end are left to the
    /// device, which reports them as [`ExtError::BadBlock`].
    fn check_live(&self, id: u64) -> Result<()> {
        let dev = self.dev.borrow();
        if dev.is_live(id) || id >= dev.num_blocks() {
            Ok(())
        } else {
            Err(ExtError::BlockNotLive { block: id })
        }
    }

    /// One physical read reaching the device: retry loop, physical
    /// counter, trace entry. No logical charge.
    fn phys_read(&self, id: u64, buf: &mut [u8], cat: IoCat) -> Result<()> {
        self.with_retries(cat, id, true, |dev| dev.read(id, buf))?;
        self.stats.add_phys_reads(cat, 1);
        if let Some(t) = self.trace.borrow_mut().as_mut() {
            t.push(TraceEntry { is_read: true, block: id, cat });
        }
        Ok(())
    }

    /// One physical write reaching the device: retry loop, physical
    /// counter, trace entry. No logical charge.
    fn phys_write(&self, id: u64, data: &[u8], cat: IoCat) -> Result<()> {
        self.with_retries(cat, id, false, |dev| dev.write(id, data))?;
        self.stats.add_phys_writes(cat, 1);
        if let Some(t) = self.trace.borrow_mut().as_mut() {
            t.push(TraceEntry { is_read: false, block: id, cat });
        }
        Ok(())
    }

    /// Read block `id` into `buf`, charging one logical read to `cat`.
    /// Transient failures are retried per the [`RetryPolicy`]; each transfer
    /// is charged once however many attempts it took, with the extra attempts
    /// counted in the stats' retry tally. With a buffer pool enabled, a
    /// resident block is served from its frame with no physical transfer.
    pub fn read_block(&self, id: u64, buf: &mut [u8], cat: IoCat) -> Result<()> {
        self.check_live(id)?;
        if self.health.borrow().is_quarantined(id) {
            return Err(ExtError::BlockQuarantined { block: id });
        }
        {
            let mut pool_ref = self.pool.borrow_mut();
            if let Some(pool) = pool_ref.as_mut() {
                self.cached_read(pool, id, buf, cat)?;
            } else {
                self.phys_read(id, buf, cat)?;
            }
        }
        self.stats.add_reads(cat, 1);
        Ok(())
    }

    /// Write `data` to block `id`, charging one logical write to `cat`.
    /// Retries like [`Disk::read_block`]. With a buffer pool enabled, the
    /// write follows the pool's [`WriteMode`]: write-through reaches the
    /// device immediately, write-back lands in the frame and reaches the
    /// device at eviction or flush.
    pub fn write_block(&self, id: u64, data: &[u8], cat: IoCat) -> Result<()> {
        debug_assert!(data.len() <= self.block_size);
        self.check_live(id)?;
        if self.health.borrow().is_quarantined(id) {
            return Err(ExtError::BlockQuarantined { block: id });
        }
        {
            let mut pool_ref = self.pool.borrow_mut();
            if let Some(pool) = pool_ref.as_mut() {
                self.cached_write(pool, id, data, cat)?;
            } else {
                self.phys_write(id, data, cat)?;
            }
        }
        self.stats.add_writes(cat, 1);
        Ok(())
    }

    /// Serve a logical read through the pool.
    fn cached_read(&self, pool: &mut PoolCore, id: u64, buf: &mut [u8], cat: IoCat) -> Result<()> {
        let phase = self.phase.get();
        if let Some(slot) = pool.lookup(id) {
            self.stats.add_cache_event(phase, CacheEvent::Hit);
            buf[..self.block_size].copy_from_slice(pool.slot_data(slot));
            return Ok(());
        }
        self.stats.add_cache_event(phase, CacheEvent::Miss);
        let slot = self.obtain_slot(pool)?;
        if let Err(e) = self.phys_read(id, pool.slot_data_mut(slot), cat) {
            pool.release_slot(slot);
            return Err(e);
        }
        pool.install(slot, id);
        buf[..self.block_size].copy_from_slice(pool.slot_data(slot));
        Ok(())
    }

    /// Serve a logical write through the pool.
    ///
    /// On a write-back miss the frame's tail beyond `data_in` is zero-filled
    /// rather than read from the device. The [`BlockDevice`] contract leaves
    /// a partially-written block's tail unspecified, so no consumer may
    /// depend on it -- and skipping the read-before-write keeps write misses
    /// at zero physical reads.
    fn cached_write(&self, pool: &mut PoolCore, id: u64, data_in: &[u8], cat: IoCat) -> Result<()> {
        let phase = self.phase.get();
        match pool.mode() {
            WriteMode::Through => {
                self.phys_write(id, data_in, cat)?;
                // Keep any resident frame coherent. Not a cache hit or miss:
                // through-writes are never absorbed by the pool.
                if let Some(slot) = pool.peek(id) {
                    pool.slot_data_mut(slot)[..data_in.len()].copy_from_slice(data_in);
                }
                Ok(())
            }
            WriteMode::Back => {
                if let Some(slot) = pool.lookup(id) {
                    self.stats.add_cache_event(phase, CacheEvent::Hit);
                    pool.slot_data_mut(slot)[..data_in.len()].copy_from_slice(data_in);
                    pool.mark_dirty(slot, data_in.len(), cat);
                    return Ok(());
                }
                self.stats.add_cache_event(phase, CacheEvent::Miss);
                let slot = self.obtain_slot(pool)?;
                let frame = pool.slot_data_mut(slot);
                frame[..data_in.len()].copy_from_slice(data_in);
                frame[data_in.len()..].fill(0);
                pool.install(slot, id);
                pool.mark_dirty(slot, data_in.len(), cat);
                Ok(())
            }
        }
    }

    /// Obtain a loose slot for a new block, evicting (and writing back a
    /// dirty victim) if the pool is full. On writeback failure the victim
    /// stays resident and dirty, so nothing is lost and the recorded
    /// [`DiskFailure`] names the victim block under the current phase.
    fn obtain_slot(&self, pool: &mut PoolCore) -> Result<usize> {
        match pool.acquire_plan() {
            SlotAcquire::Free(slot) => Ok(slot),
            SlotAcquire::Evict { slot, block, dirty } => {
                if let Some((len, wcat)) = dirty {
                    self.phys_write(block, &pool.slot_data(slot)[..len], wcat)?;
                    self.stats.add_cache_event(self.phase.get(), CacheEvent::DirtyWriteback);
                }
                self.stats.add_cache_event(self.phase.get(), CacheEvent::Eviction);
                pool.detach(slot);
                Ok(slot)
            }
        }
    }

    /// Read a journal block *synchronously*, bypassing the buffer pool:
    /// journal replay must see the device image, never a cached frame.
    /// Charged as one logical + one physical read under [`IoCat::Journal`].
    pub fn journal_read(&self, id: u64, buf: &mut [u8]) -> Result<()> {
        self.check_live(id)?;
        self.phys_read(id, buf, IoCat::Journal)?;
        self.stats.add_reads(IoCat::Journal, 1);
        Ok(())
    }

    /// Write a journal block *synchronously*, bypassing the buffer pool:
    /// when this returns, the bytes are on the device. Journal records must be durable before the commit record
    /// that covers them, so deferring them is never correct. Any stale
    /// cached frame for the block is invalidated first.
    pub fn journal_write(&self, id: u64, data: &[u8]) -> Result<()> {
        debug_assert!(data.len() <= self.block_size);
        self.check_live(id)?;
        if let Some(pool) = self.pool.borrow_mut().as_mut() {
            pool.invalidate(id);
        }
        self.phys_write(id, data, IoCat::Journal)?;
        self.stats.add_writes(IoCat::Journal, 1);
        Ok(())
    }

    /// Discard every buffer-pool frame without writing anything back. Crash
    /// recovery only -- after a simulated crash the device image (not what
    /// this process had in memory) is the authoritative state, and writing
    /// stale dirty frames over it would corrupt the recovered sort.
    pub fn purge_volatile(&self) {
        if let Some(pool) = self.pool.borrow_mut().as_mut() {
            pool.purge_all();
        }
    }
}

/// Buffer-pool management (see the [`pool`](crate::pool) module).
impl Disk {
    /// Enable a buffer pool of `frames` frames, using the named eviction
    /// `policy` and write `mode`. The frames are extra memory on top of the
    /// sorting algorithm's `M`, not part of it, so the paper's logical I/O
    /// counts stay comparable across pool sizes.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0` or a pool is already enabled (check
    /// [`Disk::cache_enabled`] first).
    pub(crate) fn enable_cache(&self, frames: usize, policy: CachePolicy, mode: WriteMode) {
        let mut slot = self.pool.borrow_mut();
        assert!(slot.is_none(), "buffer pool already enabled on this disk");
        *slot = Some(PoolCore::new(frames, self.block_size, policy.build(frames), mode));
    }

    /// Whether a buffer pool is currently enabled.
    pub fn cache_enabled(&self) -> bool {
        self.pool.borrow().is_some()
    }

    /// The pool's frame capacity, if enabled.
    pub fn cache_capacity(&self) -> Option<usize> {
        self.pool.borrow().as_ref().map(PoolCore::capacity)
    }

    /// The pool's eviction-policy name (`"lru"`, `"clock"`, ...), if enabled.
    pub fn cache_policy_name(&self) -> Option<&'static str> {
        self.pool.borrow().as_ref().map(PoolCore::policy_name)
    }

    /// The pool's write mode, if enabled.
    pub fn cache_mode(&self) -> Option<WriteMode> {
        self.pool.borrow().as_ref().map(PoolCore::mode)
    }

    /// Number of blocks currently resident in the pool (0 if disabled).
    pub fn cache_resident(&self) -> usize {
        self.pool.borrow().as_ref().map_or(0, PoolCore::resident)
    }

    /// Write back every dirty frame, in ascending block order (deterministic
    /// for the fault layer's operation indexing). Frames stay resident. A
    /// no-op when no pool is enabled. On error, already-flushed frames are
    /// clean and the failing frame (named by the recorded [`DiskFailure`])
    /// is still dirty.
    pub fn cache_flush_all(&self) -> Result<()> {
        let mut pool_ref = self.pool.borrow_mut();
        let Some(pool) = pool_ref.as_mut() else { return Ok(()) };
        for slot in pool.dirty_slots_in_block_order() {
            let Some((len, cat)) = pool.dirty_of(slot) else { continue };
            let block = pool.slot_block(slot);
            self.phys_write(block, &pool.slot_data(slot)[..len], cat)?;
            pool.clean(slot);
            self.stats.add_cache_event(self.phase.get(), CacheEvent::DirtyWriteback);
        }
        Ok(())
    }

    /// Flush all dirty frames, then tear the pool down. A no-op when no pool
    /// is enabled; on a flush error the pool stays enabled.
    pub fn disable_cache(&self) -> Result<()> {
        self.cache_flush_all()?;
        *self.pool.borrow_mut() = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(disk: &Disk) {
        let a = disk.alloc_block();
        let b = disk.alloc_block();
        assert_ne!(a, b);
        let bs = disk.block_size();
        let data: Vec<u8> = (0..bs).map(|i| (i % 251) as u8).collect();
        disk.write_block(a, &data, IoCat::RunWrite).unwrap();
        let mut buf = vec![0u8; bs];
        disk.read_block(a, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, data);
        // Block b was never written: reads as zeroes.
        disk.read_block(b, &mut buf, IoCat::RunRead).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn mem_device_roundtrip_and_accounting() {
        let disk = Disk::new_mem(512);
        roundtrip(&disk);
        let snap = disk.stats().snapshot();
        assert_eq!(snap.writes(IoCat::RunWrite), 1);
        assert_eq!(snap.reads(IoCat::RunRead), 2);
        assert_eq!(snap.grand_total(), 3);
    }

    #[test]
    fn file_device_roundtrip() {
        let dir = std::env::temp_dir().join(format!("nexsort-dev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks.bin");
        let disk = Disk::new_file(&path, 256).unwrap();
        roundtrip(&disk);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_block_write_preserves_length_contract() {
        let disk = Disk::new_mem(128);
        let id = disk.alloc_block();
        disk.write_block(id, b"short", IoCat::DataStack).unwrap();
        let mut buf = vec![0u8; 128];
        disk.read_block(id, &mut buf, IoCat::DataStack).unwrap();
        assert_eq!(&buf[..5], b"short");
    }

    #[test]
    fn freed_blocks_are_recycled_and_zeroed_in_mem_device() {
        let mut dev = MemDevice::new(64);
        let a = dev.allocate();
        dev.write(a, &[0xAA; 64]).unwrap();
        dev.free(a).unwrap();
        let b = dev.allocate();
        assert_eq!(a, b, "free list should recycle");
        let mut buf = [0xFFu8; 64];
        dev.read(b, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0), "recycled block must be zeroed");
    }

    #[test]
    fn high_water_tracks_live_blocks() {
        let mut dev = MemDevice::new(64);
        let a = dev.allocate();
        let _b = dev.allocate();
        assert_eq!(dev.high_water_blocks(), 2);
        dev.free(a).unwrap();
        let _c = dev.allocate();
        assert_eq!(dev.high_water_blocks(), 2, "reuse should not raise high water");
    }

    #[test]
    fn double_free_is_rejected_by_both_devices() {
        let mut dev = MemDevice::new(64);
        let a = dev.allocate();
        dev.free(a).unwrap();
        assert!(matches!(dev.free(a), Err(ExtError::DoubleFree { block }) if block == a));
        // Free -> allocate -> free is legal again.
        let b = dev.allocate();
        assert_eq!(a, b);
        dev.free(b).unwrap();

        let dir = std::env::temp_dir().join(format!("nexsort-dev3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks3.bin");
        let mut dev = FileDevice::create(&path, 64).unwrap();
        let a = dev.allocate();
        dev.free(a).unwrap();
        assert!(matches!(dev.free(a), Err(ExtError::DoubleFree { block }) if block == a));
        assert_eq!(dev.allocate(), a);
        dev.free(a).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_block_ids_error() {
        let disk = Disk::new_mem(64);
        let mut buf = vec![0u8; 64];
        assert!(disk.read_block(0, &mut buf, IoCat::InputRead).is_err());
        assert!(disk.write_block(5, b"x", IoCat::InputRead).is_err());
        assert!(disk.free_block(3).is_err());
    }

    #[test]
    fn file_device_rejects_unallocated_ids() {
        let dir = std::env::temp_dir().join(format!("nexsort-dev2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks2.bin");
        let mut dev = FileDevice::create(&path, 64).unwrap();
        let mut buf = [0u8; 64];
        assert!(dev.read(0, &mut buf).is_err());
        let id = dev.allocate();
        assert!(dev.read(id, &mut buf).is_ok());
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use crate::fault::FaultKind;

    fn faulty_disk(plan: FaultPlan, retries: u32) -> (Rc<Disk>, FaultInjector) {
        let (disk, inj) = Disk::new_faulty(Box::new(MemDevice::new(64)), plan);
        disk.set_retry_policy(RetryPolicy::retries(retries));
        (disk, inj)
    }

    #[test]
    fn transient_faults_heal_and_are_counted_as_retries() {
        let plan = FaultPlan::new(1)
            .at_write(0, FaultKind::TransientError)
            .at_read(0, FaultKind::TransientError)
            .at_read(1, FaultKind::TransientError);
        let (disk, inj) = faulty_disk(plan, 3);
        let id = disk.alloc_block();
        disk.write_block(id, &[9u8; 64], IoCat::RunWrite).unwrap();
        let mut buf = [0u8; 64];
        disk.read_block(id, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, [9u8; 64]);
        let snap = disk.stats().snapshot();
        // One logical transfer each, despite the extra physical attempts.
        assert_eq!(snap.writes(IoCat::RunWrite), 1);
        assert_eq!(snap.reads(IoCat::RunRead), 1);
        assert_eq!(snap.retries(IoCat::RunWrite), 1);
        assert_eq!(snap.retries(IoCat::RunRead), 2);
        assert!(snap.backoff_units() > 0);
        assert_eq!(inj.counts().write_errors, 1);
        assert_eq!(inj.counts().read_errors, 2);
        assert!(disk.last_failure().is_none(), "nothing was given up on");
    }

    #[test]
    fn read_path_bit_flips_heal_via_checksum_plus_retry() {
        let plan = FaultPlan::new(2).at_read(0, FaultKind::BitFlip);
        let (disk, _inj) = faulty_disk(plan, 2);
        let id = disk.alloc_block();
        disk.write_block(id, &[0xCD; 64], IoCat::DataStack).unwrap();
        let mut buf = [0u8; 64];
        disk.read_block(id, &mut buf, IoCat::DataStack).unwrap();
        assert_eq!(buf, [0xCD; 64], "the flip was detected and the re-read healed it");
        assert_eq!(disk.stats().snapshot().retries(IoCat::DataStack), 1);
    }

    #[test]
    fn persistent_corruption_exhausts_retries_with_structured_failure() {
        let plan = FaultPlan::new(3).at_write(0, FaultKind::BitFlip);
        let (disk, _inj) = faulty_disk(plan, 2);
        disk.set_phase(IoPhase::RunFormation);
        let id = disk.alloc_block();
        disk.write_block(id, &[0x77; 64], IoCat::RunWrite).unwrap();
        let mut buf = [0u8; 64];
        let err = disk.read_block(id, &mut buf, IoCat::RunRead).unwrap_err();
        match err {
            ExtError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, ExtError::ChecksumMismatch { .. }));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        let failure = disk.last_failure().expect("failure recorded");
        assert_eq!(failure.cat, IoCat::RunRead);
        assert_eq!(failure.block, id);
        assert!(failure.is_read);
        assert_eq!(failure.attempts, 3);
        assert_eq!(failure.phase, IoPhase::RunFormation);
        assert_eq!(disk.stats().snapshot().retries(IoCat::RunRead), 2);
    }

    #[test]
    fn no_retry_policy_preserves_seed_behaviour() {
        let plan = FaultPlan::new(4).at_read(0, FaultKind::TransientError);
        let (disk, _inj) = Disk::new_faulty(Box::new(MemDevice::new(64)), plan);
        let id = disk.alloc_block();
        disk.write_block(id, &[1u8; 64], IoCat::RunWrite).unwrap();
        let mut buf = [0u8; 64];
        let err = disk.read_block(id, &mut buf, IoCat::RunRead).unwrap_err();
        assert!(matches!(err, ExtError::Io(_)), "raw error, not RetriesExhausted: {err}");
        assert_eq!(disk.stats().snapshot().total_retries(), 0);
        assert_eq!(disk.last_failure().unwrap().attempts, 1);
    }

    #[test]
    fn non_transient_errors_are_never_retried() {
        let disk = Disk::new_mem(64);
        disk.set_retry_policy(RetryPolicy::retries(5));
        let mut buf = [0u8; 64];
        let err = disk.read_block(99, &mut buf, IoCat::InputRead).unwrap_err();
        assert!(matches!(err, ExtError::BadBlock { .. }));
        assert_eq!(disk.stats().snapshot().total_retries(), 0, "logic errors fail fast");
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::budget::MemoryBudget;
    use crate::extent::{ByteReader, ByteSink, ExtentReader, ExtentWriter};

    #[test]
    fn trace_records_transfers_in_order() {
        let disk = Disk::new_mem(64);
        let budget = MemoryBudget::new(4);
        disk.start_trace();
        let mut w = ExtentWriter::new(disk.clone(), &budget, IoCat::RunWrite).unwrap();
        w.write_all(&[1u8; 200]).unwrap();
        let ext = w.finish().unwrap();
        let mut r = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::RunRead).unwrap();
        let mut buf = [0u8; 200];
        r.read_exact(&mut buf).unwrap();
        let trace = disk.take_trace();
        assert_eq!(trace.len(), 8); // 4 writes + 4 reads
        assert!(trace[..4].iter().all(|t| !t.is_read && t.cat == IoCat::RunWrite));
        assert!(trace[4..].iter().all(|t| t.is_read && t.cat == IoCat::RunRead));
        // Sequential passes touch strictly increasing block ids.
        let write_blocks: Vec<u64> = trace[..4].iter().map(|t| t.block).collect();
        assert!(write_blocks.windows(2).all(|w| w[0] < w[1]), "{write_blocks:?}");
        let read_blocks: Vec<u64> = trace[4..].iter().map(|t| t.block).collect();
        assert_eq!(write_blocks, read_blocks, "read pass revisits the same blocks");
    }

    #[test]
    fn trace_is_off_by_default_and_take_is_terminal() {
        let disk = Disk::new_mem(64);
        let id = disk.alloc_block();
        disk.write_block(id, b"x", IoCat::DataStack).unwrap();
        assert!(disk.take_trace().is_empty());
        disk.start_trace();
        disk.write_block(id, b"y", IoCat::DataStack).unwrap();
        assert_eq!(disk.take_trace().len(), 1);
        // Tracing stopped: further transfers are not recorded.
        disk.write_block(id, b"z", IoCat::DataStack).unwrap();
        assert!(disk.take_trace().is_empty());
    }
}

#[cfg(test)]
mod cached_tests {
    use super::*;
    use crate::fault::FaultKind;

    const BS: usize = 64;

    fn cached_disk(frames: usize, policy: CachePolicy, mode: WriteMode) -> Rc<Disk> {
        let disk = Disk::new_mem(BS);
        disk.enable_cache(frames, policy, mode);
        disk
    }

    fn block_of(disk: &Disk, fill: u8) -> u64 {
        let id = disk.alloc_block();
        disk.write_block(id, &[fill; BS], IoCat::RunWrite).unwrap();
        id
    }

    #[test]
    fn rereads_hit_the_pool_and_skip_physical_io() {
        let disk = cached_disk(4, CachePolicy::Lru, WriteMode::Through);
        let id = block_of(&disk, 0xAB);
        let mut buf = [0u8; BS];
        for _ in 0..5 {
            disk.read_block(id, &mut buf, IoCat::RunRead).unwrap();
            assert_eq!(buf, [0xAB; BS]);
        }
        let snap = disk.stats().snapshot();
        assert_eq!(snap.reads(IoCat::RunRead), 5, "every logical read is charged");
        assert_eq!(snap.phys_reads(IoCat::RunRead), 1, "only the miss reached the device");
        assert_eq!(snap.total_cache_misses(), 1);
        assert_eq!(snap.total_cache_hits(), 4);
        assert_eq!(snap.cache_hit_ratio(), Some(0.8));
        assert!(snap.grand_total_physical() < snap.grand_total());
    }

    #[test]
    fn write_through_keeps_the_device_current_and_frames_coherent() {
        let disk = cached_disk(2, CachePolicy::Lru, WriteMode::Through);
        let id = block_of(&disk, 0x11);
        let mut buf = [0u8; BS];
        disk.read_block(id, &mut buf, IoCat::RunRead).unwrap(); // frame now resident
        disk.write_block(id, &[0x22; BS], IoCat::RunWrite).unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.phys_writes(IoCat::RunWrite), 2, "through-writes always hit the device");
        // The resident frame absorbed the write: the next read hits and sees
        // the new bytes.
        disk.read_block(id, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, [0x22; BS]);
        let snap2 = disk.stats().snapshot();
        assert_eq!(snap2.phys_reads(IoCat::RunRead), snap.phys_reads(IoCat::RunRead));
    }

    #[test]
    fn write_back_coalesces_writes_until_flush() {
        let disk = cached_disk(2, CachePolicy::Lru, WriteMode::Back);
        let id = disk.alloc_block();
        for round in 0..4u8 {
            disk.write_block(id, &[round; BS], IoCat::RunWrite).unwrap();
        }
        let snap = disk.stats().snapshot();
        assert_eq!(snap.writes(IoCat::RunWrite), 4);
        assert_eq!(snap.phys_writes(IoCat::RunWrite), 0, "all four writes were absorbed");
        disk.cache_flush_all().unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.phys_writes(IoCat::RunWrite), 1, "one coalesced writeback");
        assert_eq!(snap.total_cache_writebacks(), 1);
        // Flushing a clean pool is free.
        disk.cache_flush_all().unwrap();
        assert_eq!(disk.stats().snapshot().phys_writes(IoCat::RunWrite), 1);
        // The device (not just the frame) really holds the last value.
        disk.disable_cache().unwrap();
        let mut buf = [0u8; BS];
        disk.read_block(id, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, [3u8; BS]);
    }

    #[test]
    fn eviction_writes_back_dirty_victims_deterministically() {
        let disk = cached_disk(1, CachePolicy::Lru, WriteMode::Back);
        let a = disk.alloc_block();
        let b = disk.alloc_block();
        disk.write_block(a, &[0xAA; BS], IoCat::DataStack).unwrap();
        // Loading b evicts a's dirty frame: exactly one physical write.
        let mut buf = [0u8; BS];
        disk.read_block(b, &mut buf, IoCat::DataStack).unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.phys_writes(IoCat::DataStack), 1);
        assert_eq!(snap.total_cache_evictions(), 1);
        assert_eq!(snap.total_cache_writebacks(), 1);
        // a's bytes survived the round trip.
        disk.read_block(a, &mut buf, IoCat::DataStack).unwrap();
        assert_eq!(buf, [0xAA; BS]);
    }

    #[test]
    fn logical_counts_match_an_uncached_disk_exactly() {
        let run = |disk: &Rc<Disk>| {
            let ids: Vec<u64> = (0..3).map(|i| block_of(disk, i as u8)).collect();
            let mut buf = [0u8; BS];
            for _ in 0..3 {
                for &id in &ids {
                    disk.read_block(id, &mut buf, IoCat::RunRead).unwrap();
                }
            }
            for &id in &ids {
                disk.free_block(id).unwrap();
            }
        };
        let plain = Disk::new_mem(BS);
        run(&plain);
        for policy in [CachePolicy::Lru, CachePolicy::Clock] {
            for mode in [WriteMode::Through, WriteMode::Back] {
                let cached = cached_disk(3, policy, mode);
                run(&cached);
                let p = plain.stats().snapshot();
                let c = cached.stats().snapshot();
                assert_eq!(p.reads(IoCat::RunRead), c.reads(IoCat::RunRead), "{policy}/{mode}");
                assert_eq!(p.writes(IoCat::RunWrite), c.writes(IoCat::RunWrite), "{policy}/{mode}");
                assert_eq!(p.grand_total(), c.grand_total(), "logical I/O is cache-invariant");
                assert!(
                    c.grand_total_physical() < c.grand_total(),
                    "{policy}/{mode}: the pool must absorb some transfers"
                );
            }
        }
        // Uncached: physical mirrors logical exactly.
        let p = plain.stats().snapshot();
        assert_eq!(p.grand_total_physical(), p.grand_total());
        assert_eq!(p.total_cache_hits() + p.total_cache_misses(), 0);
    }

    #[test]
    fn free_block_invalidates_stale_frames() {
        let disk = cached_disk(2, CachePolicy::Lru, WriteMode::Back);
        let a = disk.alloc_block();
        disk.write_block(a, &[0xEE; BS], IoCat::DataStack).unwrap();
        disk.free_block(a).unwrap();
        // The dirty frame died with the block: no writeback ever happens.
        disk.cache_flush_all().unwrap();
        assert_eq!(disk.stats().snapshot().grand_total_physical(), 0);
        // Reallocating the id sees the device's zeroed block, not stale bytes.
        let b = disk.alloc_block();
        assert_eq!(a, b, "MemDevice recycles the freed id");
        let mut buf = [0xFFu8; BS];
        disk.read_block(b, &mut buf, IoCat::DataStack).unwrap();
        assert_eq!(buf, [0u8; BS]);
    }

    #[test]
    fn cache_api_errors_and_introspection() {
        let disk = Disk::new_mem(BS);
        assert!(!disk.cache_enabled());
        assert_eq!(disk.cache_capacity(), None);
        assert_eq!(disk.cache_resident(), 0);
        disk.cache_flush_all().unwrap(); // no-op without a pool
        disk.disable_cache().unwrap(); // likewise

        disk.enable_cache(3, CachePolicy::Clock, WriteMode::Back);
        assert!(disk.cache_enabled());
        assert_eq!(disk.cache_capacity(), Some(3));
        assert_eq!(disk.cache_policy_name(), Some("clock"));
        assert_eq!(disk.cache_mode(), Some(WriteMode::Back));

        let id = block_of(&disk, 9);
        assert_eq!(disk.cache_resident(), 1);
        disk.disable_cache().unwrap();
        assert!(!disk.cache_enabled());
        assert_eq!(disk.cache_resident(), 0);
        // The dirty frame was flushed on the way down.
        let mut buf = [0u8; BS];
        disk.read_block(id, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, [9u8; BS]);
    }

    #[test]
    fn writeback_failure_names_the_victim_block_and_phase() {
        // The fourth physical write (index 3) fails on every attempt:
        // writes 0-2 are block setup; write 3 is the eviction writeback,
        // and the two retries land on indices 4 and 5.
        let plan = FaultPlan::new(11)
            .at_write(3, FaultKind::TransientError)
            .at_write(4, FaultKind::TransientError)
            .at_write(5, FaultKind::TransientError);
        let (disk, _inj) = Disk::new_faulty(Box::new(MemDevice::new(BS)), plan);
        disk.set_retry_policy(RetryPolicy::retries(2));
        disk.enable_cache(1, CachePolicy::Lru, WriteMode::Back);

        let a = disk.alloc_block();
        let b = disk.alloc_block();
        // Three through-the-pool setup writes: a (miss), evict a -> phys
        // write 0 is a's writeback... keep it simple: write a, flush, then
        // dirty a again so the eviction triggered by reading b must write it.
        disk.write_block(a, &[1; BS], IoCat::RunWrite).unwrap();
        disk.cache_flush_all().unwrap(); // phys write 0
        disk.write_block(b, &[2; BS], IoCat::RunWrite).unwrap(); // evicts a (clean)
        disk.cache_flush_all().unwrap(); // phys write 1
        disk.write_block(a, &[3; BS], IoCat::RunWrite).unwrap(); // evicts b (clean)... and dirties a
        disk.cache_flush_all().unwrap(); // phys write 2
        disk.write_block(a, &[4; BS], IoCat::RunWrite).unwrap(); // hit, dirty again

        disk.set_phase(IoPhase::MergePass(1));
        let mut buf = [0u8; BS];
        // Loading b must evict dirty a; that writeback (phys write 3) is
        // corrupted on every attempt, so the read of b fails with a's error.
        let err = disk.read_block(b, &mut buf, IoCat::RunRead).unwrap_err();
        assert!(matches!(err, ExtError::RetriesExhausted { attempts: 3, .. }), "{err}");
        let failure = disk.last_failure().expect("failure recorded");
        assert_eq!(failure.block, a, "the failure names the evicted block, not the one read");
        assert_eq!(failure.cat, IoCat::RunWrite, "charged to the write that dirtied the frame");
        assert!(!failure.is_read);
        assert_eq!(failure.phase, IoPhase::MergePass(1));
        // The victim stayed resident and dirty: its bytes are not lost.
        disk.read_block(a, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, [4; BS]);
    }
}

#[cfg(test)]
mod liveness_tests {
    use super::*;
    use crate::build::DiskBuilder;
    use crate::fault::FaultRng;
    use crate::stripe::StripedDevice;
    use std::collections::BTreeSet;

    const BS: usize = 64;

    /// Allocate a block, write it, and free it again.
    fn freed_block(disk: &Disk) -> u64 {
        let id = disk.alloc_block();
        disk.write_block(id, &[7u8; BS], IoCat::RunWrite).unwrap();
        disk.free_block(id).unwrap();
        id
    }

    /// On a 3-wide stripe, allocation rotates over devices 0, 1, 2, 0 (ids
    /// 0..=3). Id 1 is freed and recycled on device 1; the next allocation
    /// lands on device 2 at local 1, global id 5. That leaves id 4 (device
    /// 1, local 1) in range but never allocated.
    fn stripe_gap(disk: &Disk) -> u64 {
        let ids: Vec<u64> = (0..4).map(|_| disk.alloc_block()).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        disk.free_block(1).unwrap();
        assert_eq!(disk.alloc_block(), 1);
        assert_eq!(disk.alloc_block(), 5);
        4
    }

    fn read(disk: &Disk, id: u64) -> Result<()> {
        disk.read_block(id, &mut [0u8; BS], IoCat::RunRead)
    }

    fn write(disk: &Disk, id: u64) -> Result<()> {
        disk.write_block(id, &[1u8; BS], IoCat::RunWrite)
    }

    /// Every transfer through the disk to a block its allocator does not
    /// hold live is refused before it is charged, with nothing to switch on
    /// first.
    #[test]
    fn transfers_to_blocks_that_are_not_live_are_refused() {
        type Setup = fn(&Disk) -> u64;
        type Access = fn(&Disk, u64) -> Result<()>;
        let plain = || DiskBuilder::new(BS);
        let cases: [(&str, DiskBuilder, Setup, Access); 6] = [
            ("read-after-free", plain(), freed_block, read),
            ("write-after-free", plain(), freed_block, write),
            ("journal-read-after-free", plain(), freed_block, |disk, id| {
                disk.journal_read(id, &mut [0u8; BS])
            }),
            ("journal-write-after-free", plain(), freed_block, |disk, id| {
                disk.journal_write(id, &[1u8; BS])
            }),
            ("never-allocated id on a 3-wide stripe", plain().stripe(3), stripe_gap, read),
            // A write-back frame would take this write silently and flush it
            // over whoever owns the id next.
            (
                "write-after-free into a write-back pool",
                plain().cache(2, CachePolicy::Lru, WriteMode::Back),
                freed_block,
                write,
            ),
        ];
        for (name, builder, setup, access) in cases {
            let disk = builder.build().unwrap().disk;
            let id = setup(&disk);
            let before = disk.stats().snapshot();
            match access(&disk, id) {
                Err(ExtError::BlockNotLive { block }) => assert_eq!(block, id, "{name}"),
                other => panic!("{name}: expected BlockNotLive, got {other:?}"),
            }
            let d = disk.stats().snapshot().since(&before);
            assert_eq!(d.grand_total() + d.grand_total_physical(), 0, "{name}: nothing charged");
            assert_eq!(disk.cache_resident(), 0, "{name}: no frame took the transfer");
            assert!(disk.last_failure().is_none(), "{name}");
        }
    }

    /// A block is live from allocation to free; reallocating the freed id
    /// makes it live again.
    #[test]
    fn alloc_free_lifecycle_is_tracked() {
        let disk = DiskBuilder::new(BS).build().unwrap().disk;
        let id = disk.alloc_block();
        write(&disk, id).unwrap();
        read(&disk, id).unwrap();
        disk.free_block(id).unwrap();
        assert!(matches!(read(&disk, id), Err(ExtError::BlockNotLive { block }) if block == id));
        assert!(matches!(write(&disk, id), Err(ExtError::BlockNotLive { block }) if block == id));
        assert_eq!(disk.alloc_block(), id, "the freed id is recycled");
        write(&disk, id).unwrap();
        read(&disk, id).unwrap();
    }

    /// An id inside the device that was never allocated is not live; an id
    /// past the end is left to the device, which reports a bad block.
    #[test]
    fn in_range_unallocated_blocks_are_not_live() {
        let disk = DiskBuilder::new(BS).stripe(3).build().unwrap().disk;
        let gap = stripe_gap(&disk);
        assert!(gap < disk.num_blocks());
        assert!(matches!(read(&disk, gap), Err(ExtError::BlockNotLive { block }) if block == gap));
        let past = disk.num_blocks();
        assert!(
            matches!(read(&disk, past), Err(ExtError::BadBlock { block, .. }) if block == past)
        );
    }

    /// Drive `dev` through a seeded random alloc/free sequence, checking
    /// after every step that `is_live` and the derived `live_blocks` agree
    /// with a model set.
    fn check_against_model(name: &str, dev: &mut dyn BlockDevice, seed: u64) {
        let mut rng = FaultRng::new(seed);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for step in 0..400 {
            let free_one = !model.is_empty() && rng.next_f64() < 0.45;
            if free_one {
                let pick = (rng.next_u64() % model.len() as u64) as usize;
                let id = *model.iter().nth(pick).unwrap();
                dev.free(id).unwrap();
                model.remove(&id);
            } else {
                let id = dev.allocate();
                assert!(model.insert(id), "{name} step {step}: id {id} handed out twice");
            }
            let live = dev.live_blocks();
            assert_eq!(live, model.iter().copied().collect::<Vec<_>>(), "{name} step {step}");
            for id in 0..dev.num_blocks() + 2 {
                assert_eq!(dev.is_live(id), model.contains(&id), "{name} step {step} id {id}");
            }
        }
    }

    #[test]
    fn derived_live_blocks_match_a_model_on_every_device() {
        let dir = std::env::temp_dir().join(format!("nexsort-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks.bin");
        for seed in [1, 7, 42] {
            check_against_model("mem", &mut MemDevice::new(BS), seed);
            check_against_model("file", &mut FileDevice::create(&path, BS).unwrap(), seed);
            let inners: Vec<Box<dyn BlockDevice>> =
                (0..3).map(|_| Box::new(MemDevice::new(BS)) as Box<dyn BlockDevice>).collect();
            check_against_model("stripe-3", &mut StripedDevice::new(inners), seed);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
