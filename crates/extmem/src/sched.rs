//! Asynchronous I/O scheduling: sequential read-ahead, write-behind, and
//! multi-device striping.
//!
//! The paper's experiments (Section 5) ran on TPIE, whose stream layer
//! overlaps block transfers with computation; until this module every
//! [`Disk`](crate::Disk) transfer was synchronous and device-serial. Because
//! the crate is deliberately single-threaded (`Rc`/`Cell`), the scheduler
//! does not spawn OS threads. Instead it models a worker pool in
//! *deterministic virtual time*: every physical transfer occupies one tick
//! on the queue of the device it lands on, and the scheduler tracks which
//! transfers the algorithm must wait for (synchronous reads) versus which
//! proceed in the background (prefetches, deferred writes). The resulting
//! tick count is a reproducible stand-in for wall time -- identical across
//! runs of the same configuration -- while the concurrency *semantics*
//! (bounded dirty queues, barrier ordering, drain-before-read coherence)
//! are real and fully exercised.
//!
//! Three cooperating features:
//!
//! - **Sequential read-ahead** -- [`Disk::prefetch`](crate::Disk::prefetch)
//!   loads upcoming blocks of a sequentially-scanned extent into the buffer
//!   pool in the background. Prefetched frames are charged to the pool's
//!   [`MemoryBudget`](crate::MemoryBudget); hits and wasted prefetches are
//!   counted per phase in [`IoStats`](crate::IoStats).
//! - **Write-behind** -- with [`SchedConfig::write_behind`], physical writes
//!   enqueue onto a bounded dirty queue and reach the device when the queue
//!   fills, when a read needs the block, or at an
//!   [`io_barrier`](crate::Disk::io_barrier). A fault or checksum error in a
//!   deferred write surfaces at the barrier naming the exact failing block
//!   and the phase that issued the write; the entry stays queued so nothing
//!   is lost.
//! - **Striping** -- [`StripedDevice`] round-robins blocks across N inner
//!   devices (each independently faultable), giving the scheduler multiple
//!   device queues to keep busy at once.
//!
//! The hard invariant: none of this changes *logical* I/O counts or output
//! bytes. The scheduler only defers, reorders, and overlaps physical
//! transfers; what the algorithm reads and writes is bit-identical to the
//! synchronous path.

use std::collections::{BTreeMap, VecDeque};

use crate::device::BlockDevice;
use crate::error::{ExtError, Result};
use crate::fault::IoPhase;
use crate::stats::IoCat;

/// Configuration of the asynchronous I/O scheduler, attached with
/// [`DiskBuilder::sched`](crate::DiskBuilder::sched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Number of I/O worker threads being modeled (>= 1). The scheduler
    /// services at most `min(workers, stripe width)` device queues
    /// concurrently; `workers = 1` reproduces the synchronous tick-per-op
    /// timeline exactly.
    pub workers: usize,
    /// How many blocks ahead of a sequential scan to prefetch into the
    /// buffer pool (0 disables read-ahead; requires an enabled pool to have
    /// any effect).
    pub prefetch_depth: usize,
    /// Defer physical writes onto the bounded dirty queue, draining them in
    /// the background and at barriers.
    pub write_behind: bool,
    /// Capacity of the write-behind queue; a full queue backpressures by
    /// draining its oldest entry synchronously.
    pub queue_capacity: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self { workers: 1, prefetch_depth: 0, write_behind: false, queue_capacity: 32 }
    }
}

/// One deferred physical write parked on the write-behind queue.
///
/// The data is copied at enqueue time, so later frame reuse cannot alias it,
/// and the phase is stamped at enqueue time so a failure at the barrier is
/// attributed to the phase that issued the write, not the one that happened
/// to drain it.
pub(crate) struct WbEntry {
    pub(crate) block: u64,
    pub(crate) data: Vec<u8>,
    pub(crate) cat: IoCat,
    pub(crate) phase: IoPhase,
}

/// The scheduler state embedded in a [`Disk`](crate::Disk).
///
/// Virtual-time model: `ready[q]` is the tick at which device queue `q`
/// finishes its last accepted transfer; `now` is the algorithm's clock.
/// A synchronous transfer completes at `max(now, ready[q]) + 1` and advances
/// `now` to that point (the caller waited). An asynchronous transfer
/// (prefetch, deferred write) occupies the same device time but leaves `now`
/// alone -- the caller kept computing -- and the completion tick is observed
/// later, when the result is actually consumed or at a barrier.
pub(crate) struct SchedCore {
    pub(crate) prefetch_depth: usize,
    pub(crate) write_behind: bool,
    pub(crate) queue_capacity: usize,
    /// The algorithm's clock, in ticks.
    now: u64,
    /// Per-queue busy-until ticks.
    ready: Vec<u64>,
    /// FIFO of deferred writes awaiting the device.
    pub(crate) wb: VecDeque<WbEntry>,
    /// Completion tick of each prefetched block not yet consumed.
    pub(crate) inflight: BTreeMap<u64, u64>,
    /// Stripe width used to route blocks to queues.
    devices: usize,
}

impl SchedCore {
    pub(crate) fn new(cfg: SchedConfig, devices: usize) -> Self {
        assert!(cfg.workers >= 1, "the scheduler needs at least one worker");
        assert!(cfg.queue_capacity >= 1, "the write-behind queue needs capacity");
        let devices = devices.max(1);
        let queues = cfg.workers.min(devices);
        Self {
            prefetch_depth: cfg.prefetch_depth,
            write_behind: cfg.write_behind,
            queue_capacity: cfg.queue_capacity,
            now: 0,
            ready: vec![0; queues],
            wb: VecDeque::new(),
            inflight: BTreeMap::new(),
            devices,
        }
    }

    /// Which service queue `block` lands on: its stripe device, folded onto
    /// the available workers.
    fn queue_index(&self, block: u64) -> usize {
        ((block % self.devices as u64) as usize) % self.ready.len()
    }

    /// Account one synchronous transfer of `block`: the caller waits for it.
    pub(crate) fn tick_sync(&mut self, block: u64) {
        let q = self.queue_index(block);
        let done = self.now.max(self.ready[q]) + 1;
        self.ready[q] = done;
        self.now = done;
    }

    /// Account one background transfer of `block`: the device queue is busy
    /// but the caller keeps computing. Returns the completion tick, to be
    /// fed to [`SchedCore::observe_completion`] when the result is consumed.
    pub(crate) fn tick_async(&mut self, block: u64) -> u64 {
        let q = self.queue_index(block);
        let done = self.now.max(self.ready[q]) + 1;
        self.ready[q] = done;
        done
    }

    /// Wait for every queue to go idle (barrier semantics).
    pub(crate) fn barrier_clock(&mut self) {
        let busy = self.ready.iter().copied().max().unwrap_or(0);
        self.now = self.now.max(busy);
    }

    /// The consumer of a background transfer caught up with it: wait if it
    /// has not completed yet.
    pub(crate) fn observe_completion(&mut self, tick: u64) {
        self.now = self.now.max(tick);
    }

    /// Current virtual time in ticks.
    pub(crate) fn ticks(&self) -> u64 {
        self.now
    }

    /// Whether a deferred write for `block` is still parked on the queue.
    pub(crate) fn has_pending_write(&self, block: u64) -> bool {
        self.wb.iter().any(|e| e.block == block)
    }
}

/// A [`BlockDevice`] that round-robins blocks across N inner devices.
///
/// Global block id `local * N + d` lives at local id `local` on inner device
/// `d`; allocation rotates over the devices, so a sequential extent's blocks
/// land on distinct devices and the scheduler can overlap their transfers.
/// Each inner device can independently be wrapped in a
/// [`FaultyDevice`](crate::FaultyDevice); put a
/// [`ChecksummedDevice`](crate::ChecksummedDevice) *outside* the stripe so
/// checksums are keyed by global id.
pub struct StripedDevice {
    inners: Vec<Box<dyn BlockDevice>>,
    block_size: usize,
    next_dev: usize,
    num_blocks: u64,
}

impl StripedDevice {
    /// Stripe over `inners` (at least one; all the same block size).
    pub fn new(inners: Vec<Box<dyn BlockDevice>>) -> Self {
        assert!(!inners.is_empty(), "striping needs at least one inner device");
        let block_size = inners[0].block_size();
        assert!(
            inners.iter().all(|d| d.block_size() == block_size),
            "striped inner devices must share a block size"
        );
        // Reopened inner devices may already hold blocks; the global count
        // must cover their highest mapped id (local id `nb-1` of device `d`
        // maps to `(nb-1) * n + d`), or a reattached stack would treat
        // preexisting blocks as out of bounds (and the shadow sanitizer
        // would refuse to grandfather them).
        let n = inners.len() as u64;
        let num_blocks = inners
            .iter()
            .enumerate()
            .filter(|(_, dev)| dev.num_blocks() > 0)
            .map(|(d, dev)| (dev.num_blocks() - 1) * n + d as u64 + 1)
            .max()
            .unwrap_or(0);
        Self { inners, block_size, next_dev: 0, num_blocks }
    }

    /// Number of inner devices.
    pub fn width(&self) -> usize {
        self.inners.len()
    }

    fn split(&self, id: u64) -> (usize, u64) {
        let n = self.inners.len() as u64;
        ((id % n) as usize, id / n)
    }

    /// Re-express an inner device's error in terms of the global block id.
    fn globalize(&self, e: ExtError, id: u64) -> ExtError {
        match e {
            ExtError::BadBlock { .. } => ExtError::BadBlock { block: id, total: self.num_blocks },
            ExtError::DoubleFree { .. } => ExtError::DoubleFree { block: id },
            other => other,
        }
    }
}

impl BlockDevice for StripedDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn allocate(&mut self) -> u64 {
        let n = self.inners.len() as u64;
        let d = self.next_dev;
        self.next_dev = (self.next_dev + 1) % self.inners.len();
        let local = self.inners[d].allocate();
        let id = local * n + d as u64;
        self.num_blocks = self.num_blocks.max(id + 1);
        id
    }

    fn free(&mut self, id: u64) -> Result<()> {
        let (d, local) = self.split(id);
        self.inners[d].free(local).map_err(|e| self.globalize(e, id))
    }

    fn read(&mut self, id: u64, buf: &mut [u8]) -> Result<()> {
        let (d, local) = self.split(id);
        self.inners[d].read(local, buf).map_err(|e| self.globalize(e, id))
    }

    fn write(&mut self, id: u64, data: &[u8]) -> Result<()> {
        let (d, local) = self.split(id);
        self.inners[d].write(local, data).map_err(|e| self.globalize(e, id))
    }

    fn live_blocks(&self) -> Vec<u64> {
        // Union of the inner devices' live sets, each local id mapped back
        // to its global id (the inverse of `split`), in ascending order.
        let n = self.inners.len() as u64;
        let mut all: Vec<u64> = self
            .inners
            .iter()
            .enumerate()
            .flat_map(|(d, dev)| {
                dev.live_blocks().into_iter().map(move |local| local * n + d as u64)
            })
            .collect();
        all.sort_unstable();
        all
    }
}

#[cfg(test)]
mod core_tests {
    use super::*;

    #[test]
    fn one_queue_serializes_every_transfer() {
        let mut s = SchedCore::new(SchedConfig::default(), 1);
        for b in 0..10u64 {
            s.tick_sync(b);
        }
        assert_eq!(s.ticks(), 10, "workers=1 ticks like the synchronous path");
        // Async ops on one queue still serialize through it.
        let done = s.tick_async(3);
        assert_eq!(done, 11);
        s.barrier_clock();
        assert_eq!(s.ticks(), 11);
    }

    #[test]
    fn background_transfers_overlap_across_queues() {
        let cfg = SchedConfig { workers: 4, ..SchedConfig::default() };
        let mut s = SchedCore::new(cfg, 4);
        // Eight deferred writes round-robined over four devices: two ticks
        // of device time, zero ticks of caller time until the barrier.
        for b in 0..8u64 {
            s.tick_async(b);
        }
        assert_eq!(s.ticks(), 0, "the caller never waited");
        s.barrier_clock();
        assert_eq!(s.ticks(), 2, "four queues drained eight transfers in two ticks");
    }

    #[test]
    fn workers_cap_the_usable_queues() {
        let cfg = SchedConfig { workers: 2, ..SchedConfig::default() };
        let mut s = SchedCore::new(cfg, 4);
        for b in 0..8u64 {
            s.tick_async(b);
        }
        s.barrier_clock();
        assert_eq!(s.ticks(), 4, "two workers over four devices give two queues");
    }

    #[test]
    fn consuming_a_prefetch_waits_only_if_it_is_still_in_flight() {
        let cfg = SchedConfig { workers: 2, ..SchedConfig::default() };
        let mut s = SchedCore::new(cfg, 2);
        let done = s.tick_async(0); // prefetch completes at tick 1
        assert_eq!(done, 1);
        s.observe_completion(done);
        assert_eq!(s.ticks(), 1, "caught up with the prefetch: wait to its completion");
        // A later consumption of an already-complete transfer costs nothing.
        s.tick_sync(1); // now = 2
        s.observe_completion(done);
        assert_eq!(s.ticks(), 2);
    }

    #[test]
    fn sync_after_async_waits_for_the_shared_queue() {
        let cfg = SchedConfig { workers: 2, ..SchedConfig::default() };
        let mut s = SchedCore::new(cfg, 2);
        s.tick_async(0); // queue 0 busy until tick 1
        s.tick_async(0); // queue 0 busy until tick 2
        s.tick_sync(2); // same queue (block 2 -> device 0): completes at 3
        assert_eq!(s.ticks(), 3);
        s.tick_sync(1); // other queue was idle: completes at 4 (after now)
        assert_eq!(s.ticks(), 4);
    }
}

#[cfg(test)]
mod striped_tests {
    use super::*;
    use crate::build::DiskBuilder;
    use crate::device::MemDevice;
    use crate::fault::{FaultKind, FaultPlan, FaultyDevice};

    fn mems(n: usize, bs: usize) -> Vec<Box<dyn BlockDevice>> {
        (0..n).map(|_| Box::new(MemDevice::new(bs)) as Box<dyn BlockDevice>).collect()
    }

    #[test]
    fn allocation_round_robins_and_ids_stay_dense() {
        let mut dev = StripedDevice::new(mems(3, 64));
        let ids: Vec<u64> = (0..7).map(|_| dev.allocate()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6], "fresh allocation yields dense global ids");
        assert_eq!(dev.num_blocks(), 7);
        assert_eq!(dev.width(), 3);
    }

    #[test]
    fn striped_blocks_roundtrip_and_recycle() {
        let disk = DiskBuilder::new(64).stripe(4).build().unwrap().disk;
        assert_eq!(disk.stripe_width(), 4);
        let ids: Vec<u64> = (0..8).map(|_| disk.alloc_block()).collect();
        for (i, &id) in ids.iter().enumerate() {
            disk.write_block(id, &[i as u8 + 1; 64], crate::IoCat::RunWrite).unwrap();
        }
        let mut buf = [0u8; 64];
        for (i, &id) in ids.iter().enumerate() {
            disk.read_block(id, &mut buf, crate::IoCat::RunRead).unwrap();
            assert_eq!(buf, [i as u8 + 1; 64]);
        }
        disk.free_block(ids[2]).unwrap();
        assert!(matches!(
            disk.free_block(ids[2]),
            Err(ExtError::DoubleFree { block }) if block == ids[2]
        ));
    }

    #[test]
    fn inner_devices_fault_independently() {
        // Device 0's first write always fails; device 1 is healthy. Blocks
        // alternate devices, so the write to the even block fails and the
        // write to the odd block succeeds.
        let plan = FaultPlan::new(5)
            .at_write(0, FaultKind::TransientError)
            .at_write(1, FaultKind::TransientError);
        let faulty0 = FaultyDevice::new(MemDevice::new(64), plan);
        let inners: Vec<Box<dyn BlockDevice>> =
            vec![Box::new(faulty0), Box::new(MemDevice::new(64))];
        let mut dev = StripedDevice::new(inners);
        let a = dev.allocate(); // device 0
        let b = dev.allocate(); // device 1
        assert!(dev.write(a, &[1; 64]).is_err(), "device 0 is scripted to fail");
        assert!(dev.write(b, &[2; 64]).is_ok(), "device 1 is unaffected");
        let mut buf = [0u8; 64];
        dev.read(b, &mut buf).unwrap();
        assert_eq!(buf, [2; 64]);
    }
}

#[cfg(test)]
mod disk_sched_tests {
    use super::*;
    use crate::budget::MemoryBudget;
    use crate::build::DiskBuilder;
    use crate::device::{Disk, MemDevice};
    use crate::extent::{ByteReader, ByteSink, ExtentReader, ExtentWriter};
    use crate::fault::{FaultKind, FaultPlan};
    use crate::pool::{CachePolicy, WriteMode};
    use crate::stats::IoCat;
    use std::rc::Rc;

    const BS: usize = 64;

    #[test]
    fn write_behind_defers_until_the_barrier_and_preserves_bytes() {
        let disk = Disk::new_mem(BS);
        disk.enable_sched(SchedConfig { write_behind: true, ..SchedConfig::default() });
        assert!(disk.sched_enabled());
        let ids: Vec<u64> = (0..3).map(|_| disk.alloc_block()).collect();
        for (i, &id) in ids.iter().enumerate() {
            disk.write_block(id, &[i as u8 + 1; BS], IoCat::RunWrite).unwrap();
        }
        let snap = disk.stats().snapshot();
        assert_eq!(snap.writes(IoCat::RunWrite), 3, "logical writes are charged immediately");
        assert_eq!(snap.phys_writes(IoCat::RunWrite), 0, "nothing reached the device yet");
        assert_eq!(snap.total_deferred_writes(), 3);
        disk.io_barrier().unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.phys_writes(IoCat::RunWrite), 3, "the barrier drained the queue");
        let mut buf = [0u8; BS];
        for (i, &id) in ids.iter().enumerate() {
            disk.read_block(id, &mut buf, IoCat::RunRead).unwrap();
            assert_eq!(buf, [i as u8 + 1; BS]);
        }
    }

    #[test]
    fn reading_a_block_with_a_pending_write_drains_it_first() {
        let disk = Disk::new_mem(BS);
        disk.enable_sched(SchedConfig { write_behind: true, ..SchedConfig::default() });
        let id = disk.alloc_block();
        disk.write_block(id, &[0xAA; BS], IoCat::DataStack).unwrap();
        disk.write_block(id, &[0xBB; BS], IoCat::DataStack).unwrap();
        let mut buf = [0u8; BS];
        disk.read_block(id, &mut buf, IoCat::DataStack).unwrap();
        assert_eq!(buf, [0xBB; BS], "the read sees the latest queued write");
        let snap = disk.stats().snapshot();
        assert_eq!(snap.phys_writes(IoCat::DataStack), 2, "both queued writes were drained");
    }

    #[test]
    fn full_queue_backpressures_by_draining_the_oldest_entry() {
        let disk = Disk::new_mem(BS);
        disk.enable_sched(SchedConfig {
            write_behind: true,
            queue_capacity: 2,
            ..SchedConfig::default()
        });
        let ids: Vec<u64> = (0..4).map(|_| disk.alloc_block()).collect();
        for &id in &ids {
            disk.write_block(id, &[7; BS], IoCat::RunWrite).unwrap();
        }
        let snap = disk.stats().snapshot();
        assert_eq!(
            snap.phys_writes(IoCat::RunWrite),
            2,
            "two of four writes spilled past the 2-entry queue"
        );
        disk.io_barrier().unwrap();
        assert_eq!(disk.stats().snapshot().phys_writes(IoCat::RunWrite), 4);
    }

    #[test]
    fn barrier_failure_names_the_block_and_the_phase_that_wrote_it() {
        let plan = FaultPlan::new(17).at_write(0, FaultKind::TransientError);
        let (disk, _inj) = Disk::new_faulty(Box::new(MemDevice::new(BS)), plan);
        disk.enable_sched(SchedConfig { write_behind: true, ..SchedConfig::default() });
        let id = disk.alloc_block();
        disk.set_phase(IoPhase::RunFormation);
        disk.write_block(id, &[0x5C; BS], IoCat::RunWrite).unwrap();
        // The algorithm has moved on by the time the write hits the device.
        disk.set_phase(IoPhase::OutputEmit);
        let err = disk.io_barrier().unwrap_err();
        assert!(matches!(err, ExtError::Io(_)), "{err}");
        let failure = disk.last_failure().expect("failure recorded");
        assert_eq!(failure.block, id, "the failure names the deferred block");
        assert_eq!(failure.cat, IoCat::RunWrite);
        assert!(!failure.is_read);
        assert_eq!(
            failure.phase,
            IoPhase::RunFormation,
            "attributed to the phase that issued the write, not the one at the barrier"
        );
        assert_eq!(disk.phase(), IoPhase::OutputEmit, "the live phase label is restored");
        // The entry stayed queued: the fault was one-shot, so retrying the
        // barrier lands the bytes.
        disk.io_barrier().unwrap();
        let mut buf = [0u8; BS];
        disk.read_block(id, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, [0x5C; BS], "no data was lost to the failed attempt");
    }

    #[test]
    fn freeing_a_block_discards_its_queued_writes() {
        let disk = Disk::new_mem(BS);
        disk.enable_sched(SchedConfig { write_behind: true, ..SchedConfig::default() });
        let a = disk.alloc_block();
        disk.write_block(a, &[0xEE; BS], IoCat::DataStack).unwrap();
        disk.free_block(a).unwrap();
        disk.io_barrier().unwrap();
        assert_eq!(
            disk.stats().snapshot().grand_total_physical(),
            0,
            "the dead block's write never reached the device"
        );
        // Reallocating the id sees zeroes, not the stale queued bytes.
        let b = disk.alloc_block();
        assert_eq!(a, b, "MemDevice recycles the freed id");
        let mut buf = [0xFFu8; BS];
        disk.read_block(b, &mut buf, IoCat::DataStack).unwrap();
        assert_eq!(buf, [0u8; BS]);
    }

    #[test]
    fn prefetch_counts_hits_and_wasted_frames() {
        let disk = Disk::new_mem(BS);
        let budget = MemoryBudget::new(4);
        disk.enable_cache(&budget, 4, CachePolicy::Lru, WriteMode::Through).unwrap();
        disk.enable_sched(SchedConfig { prefetch_depth: 2, ..SchedConfig::default() });
        assert_eq!(disk.prefetch_depth(), 2);
        let a = disk.alloc_block();
        let b = disk.alloc_block();
        disk.write_block(a, &[1; BS], IoCat::RunWrite).unwrap();
        disk.write_block(b, &[2; BS], IoCat::RunWrite).unwrap();
        let before = disk.stats().snapshot();
        disk.prefetch(&[a, b], IoCat::RunRead);
        let snap = disk.stats().snapshot();
        let d = snap.since(&before);
        assert_eq!(d.total_prefetch_issued(), 2);
        assert_eq!(d.phys_reads(IoCat::RunRead), 2, "prefetches are physical transfers");
        assert_eq!(d.reads(IoCat::RunRead), 0, "prefetches are never logical transfers");
        // Consuming one prefetched block is a pool hit and a prefetch hit.
        let mut buf = [0u8; BS];
        disk.read_block(a, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, [1; BS]);
        // Re-reading it is a plain cache hit, not a second prefetch hit.
        disk.read_block(a, &mut buf, IoCat::RunRead).unwrap();
        // Freeing the other before anyone read it wastes its prefetch.
        disk.free_block(b).unwrap();
        let d = disk.stats().snapshot().since(&before);
        assert_eq!(d.total_prefetch_hits(), 1);
        assert_eq!(d.total_prefetch_wasted(), 1);
        assert_eq!(d.phys_reads(IoCat::RunRead), 2, "the consuming read was served from the pool");
    }

    #[test]
    fn prefetch_skips_blocks_with_pending_writes_and_resident_frames() {
        let disk = Disk::new_mem(BS);
        let budget = MemoryBudget::new(4);
        disk.enable_cache(&budget, 4, CachePolicy::Lru, WriteMode::Back).unwrap();
        disk.enable_sched(SchedConfig {
            prefetch_depth: 4,
            write_behind: true,
            ..SchedConfig::default()
        });
        let a = disk.alloc_block();
        // A write-back write leaves a resident dirty frame for `a`; an
        // eviction would also park a deferred write. Prefetching it must be
        // a no-op -- reading the device now would resurrect stale bytes.
        disk.write_block(a, &[9; BS], IoCat::RunWrite).unwrap();
        let before = disk.stats().snapshot();
        disk.prefetch(&[a], IoCat::RunRead);
        let d = disk.stats().snapshot().since(&before);
        assert_eq!(d.total_prefetch_issued(), 0, "resident blocks are never prefetched");
        assert_eq!(d.grand_total_physical(), 0);
        let mut buf = [0u8; BS];
        disk.read_block(a, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, [9; BS]);
    }

    #[test]
    fn prefetch_swallows_faults_and_leaves_failure_reporting_clean() {
        let plan = FaultPlan::new(23).at_read(0, FaultKind::TransientError);
        let (disk, _inj) = Disk::new_faulty(Box::new(MemDevice::new(BS)), plan);
        let budget = MemoryBudget::new(4);
        disk.enable_cache(&budget, 4, CachePolicy::Lru, WriteMode::Through).unwrap();
        disk.enable_sched(SchedConfig { prefetch_depth: 2, ..SchedConfig::default() });
        let a = disk.alloc_block();
        disk.write_block(a, &[3; BS], IoCat::RunWrite).unwrap();
        disk.prefetch(&[a], IoCat::RunRead);
        assert!(disk.last_failure().is_none(), "a speculative miss is not a failure");
        let d = disk.stats().snapshot();
        assert_eq!(d.total_prefetch_issued(), 0, "the faulted prefetch was abandoned");
        // The synchronous read still works (the fault was one-shot).
        let mut buf = [0u8; BS];
        disk.read_block(a, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, [3; BS]);
    }

    /// Write a multi-block extent and scan it back; returns the bytes read
    /// and the disk's final virtual-time ticks (physical ops when no
    /// scheduler is enabled).
    fn extent_workload(disk: &Rc<Disk>) -> (Vec<u8>, u64) {
        let budget = MemoryBudget::new(4);
        let payload: Vec<u8> = (0..BS * 32).map(|i| (i % 251) as u8).collect();
        let mut w = ExtentWriter::new(disk.clone(), &budget, IoCat::RunWrite).unwrap();
        w.write_all(&payload).unwrap();
        let ext = w.finish().unwrap();
        // The run boundary: RunWriter::finish barriers here in the real
        // sorter path, so the scan below starts with an empty write queue.
        disk.io_barrier().unwrap();
        let mut r = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::RunRead).unwrap();
        let mut back = vec![0u8; payload.len()];
        r.read_exact(&mut back).unwrap();
        disk.io_barrier().unwrap();
        let snap = disk.stats().snapshot();
        let ticks =
            disk.sched_ticks().unwrap_or(snap.grand_total_physical() + snap.total_retries());
        (back, ticks)
    }

    #[test]
    fn overlap_cuts_virtual_time_without_touching_bytes_or_logical_io() {
        let sync_disk = Disk::new_mem(BS);
        let (sync_bytes, sync_ticks) = extent_workload(&sync_disk);

        let async_disk = DiskBuilder::new(BS).stripe(4).build().unwrap().disk;
        let cache_budget = MemoryBudget::new(16);
        async_disk.enable_cache(&cache_budget, 16, CachePolicy::Lru, WriteMode::Through).unwrap();
        async_disk.enable_sched(SchedConfig {
            workers: 4,
            prefetch_depth: 8,
            write_behind: true,
            queue_capacity: 32,
        });
        let (async_bytes, async_ticks) = extent_workload(&async_disk);

        assert_eq!(sync_bytes, async_bytes, "the scheduler must not change a single byte");
        let s = sync_disk.stats().snapshot();
        let a = async_disk.stats().snapshot();
        assert_eq!(s.reads(IoCat::RunRead), a.reads(IoCat::RunRead));
        assert_eq!(s.writes(IoCat::RunWrite), a.writes(IoCat::RunWrite));
        assert_eq!(s.grand_total(), a.grand_total(), "logical I/O is scheduler-invariant");
        assert!(
            async_ticks * 2 <= sync_ticks,
            "4-way overlap should at least halve virtual time: {async_ticks} vs {sync_ticks}"
        );
        assert!(a.total_prefetch_hits() > 0, "the sequential scan hit its read-ahead");
        assert!(a.total_deferred_writes() > 0);
    }

    #[test]
    fn workers_1_on_one_device_reproduces_the_synchronous_timeline() {
        let plain = Disk::new_mem(BS);
        let (_, plain_ticks) = extent_workload(&plain);
        let sched = Disk::new_mem(BS);
        sched.enable_sched(SchedConfig::default());
        let (_, sched_ticks) = extent_workload(&sched);
        assert_eq!(plain_ticks, sched_ticks, "one worker, one device: tick per physical op");
    }

    #[test]
    fn sched_lifecycle_and_introspection() {
        let disk = Disk::new_mem(BS);
        assert!(!disk.sched_enabled());
        assert_eq!(disk.sched_ticks(), None);
        assert_eq!(disk.prefetch_depth(), 0);
        disk.io_barrier().unwrap(); // no-op without a scheduler
        disk.enable_sched(SchedConfig { write_behind: true, ..SchedConfig::default() });
        assert!(disk.sched_enabled());
        assert_eq!(disk.prefetch_depth(), 0, "read-ahead needs a buffer pool");
        let id = disk.alloc_block();
        disk.write_block(id, &[1; BS], IoCat::RunWrite).unwrap();
        disk.disable_sched().unwrap();
        assert!(!disk.sched_enabled());
        let mut buf = [0u8; BS];
        disk.read_block(id, &mut buf, IoCat::RunRead).unwrap();
        assert_eq!(buf, [1; BS], "disable drains the queue first");
    }
}
