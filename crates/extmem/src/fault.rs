//! Fault injection, per-block checksums, and the retry policy.
//!
//! The paper's analysis assumes a perfectly reliable disk; a production
//! deployment cannot. This module makes the substrate's failure behaviour a
//! first-class, *testable* property:
//!
//! * [`FaultyDevice`] wraps any [`BlockDevice`] and injects faults driven by
//!   a seeded, deterministic [`FaultPlan`] -- transient read/write errors,
//!   torn (partial) writes, and silent single-bit corruption, either at
//!   configured probabilities or scripted at exact operation indices;
//! * [`ChecksummedDevice`] keeps a per-block checksum beside the data so
//!   corruption is *detected* as [`ExtError::ChecksumMismatch`] instead of
//!   surfacing as silently wrong sort output;
//! * [`RetryPolicy`] tells [`Disk`](crate::Disk) how many attempts a
//!   transfer gets and how much simulated backoff each retry costs; retries
//!   are tallied per [`IoCat`] in [`IoStats`](crate::IoStats).
//!
//! The composition order matters: `Disk` -> `ChecksummedDevice` ->
//! `FaultyDevice` -> raw device. A bit flipped on the *read* path is caught
//! by the checksum above and healed by a retry (the stored block is intact);
//! a bit flipped on the *write* path lands on the medium, so every re-read
//! keeps failing verification until the retry budget runs out and the error
//! escalates to [`ExtError::RetriesExhausted`] -- exactly the
//! transient/persistent distinction real storage exhibits.
//!
//! Everything is deterministic per seed: the same plan over the same I/O
//! sequence injects the same faults, which the fault-determinism integration
//! tests rely on.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

use crate::device::BlockDevice;
use crate::error::{ExtError, Result};
use crate::stats::IoCat;

// ---------- deterministic randomness ----------

/// SplitMix64: tiny, high-quality, and keeps this crate dependency-free.
/// The seeded generator behind every fault plan, the daemon's network
/// fault plans included.
#[derive(Debug, Clone)]
pub struct FaultRng {
    x: u64,
}

impl FaultRng {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Self {
        FaultRng { x: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------- fault plans ----------

/// What a single injected fault does to the targeted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an injected I/O error; stored data is intact.
    /// This is the transient class a retry heals.
    TransientError,
    /// Half the payload reaches the medium, then the write fails. Only
    /// meaningful for writes; scripted on a read it degrades to
    /// [`FaultKind::TransientError`].
    TornWrite,
    /// One bit flips silently and the operation reports success. On the read
    /// path the stored block stays intact (re-reads heal); on the write path
    /// the corruption is persistent.
    BitFlip,
}

/// A seeded, deterministic schedule of faults for one device.
///
/// Faults come from three sources, checked in order per operation:
/// 1. *block-scripted* faults keyed by the block id the operation targets
///    (these fire on *every* matching operation, modelling a bad sector);
/// 2. *scripted* faults at exact read/write operation indices (0-based,
///    counted separately for reads and writes), for precise test scenarios;
/// 3. *probabilistic* faults drawn from the plan's seeded generator at the
///    configured per-operation rates.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    read_error_rate: f64,
    write_error_rate: f64,
    read_flip_rate: f64,
    write_flip_rate: f64,
    torn_write_rate: f64,
    scripted_reads: HashMap<u64, FaultKind>,
    scripted_writes: HashMap<u64, FaultKind>,
    block_reads: HashMap<u64, FaultKind>,
    block_writes: HashMap<u64, FaultKind>,
}

fn check_rate(rate: f64) -> f64 {
    assert!((0.0..=1.0).contains(&rate), "fault rate out of [0,1]: {rate}");
    rate
}

impl FaultPlan {
    /// A plan with the given seed and no faults (until configured).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            read_error_rate: 0.0,
            write_error_rate: 0.0,
            read_flip_rate: 0.0,
            write_flip_rate: 0.0,
            torn_write_rate: 0.0,
            scripted_reads: HashMap::new(),
            scripted_writes: HashMap::new(),
            block_reads: HashMap::new(),
            block_writes: HashMap::new(),
        }
    }

    /// Convenience: transient read *and* write errors at `rate`.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self::new(seed).with_read_error_rate(rate).with_write_error_rate(rate)
    }

    /// The same plan with its seed offset by `delta`: how a stripe set turns
    /// one plan into independently seeded per-device plans.
    pub fn reseeded(mut self, delta: u64) -> Self {
        self.seed = self.seed.wrapping_add(delta);
        self
    }

    /// Probability that a read fails with a transient error.
    pub fn with_read_error_rate(mut self, rate: f64) -> Self {
        self.read_error_rate = check_rate(rate);
        self
    }

    /// Probability that a write fails with a transient error.
    pub fn with_write_error_rate(mut self, rate: f64) -> Self {
        self.write_error_rate = check_rate(rate);
        self
    }

    /// Probability that a read returns data with one bit flipped (the stored
    /// block stays intact).
    pub fn with_read_flip_rate(mut self, rate: f64) -> Self {
        self.read_flip_rate = check_rate(rate);
        self
    }

    /// Probability that a write silently stores data with one bit flipped
    /// (persistent corruption).
    pub fn with_write_flip_rate(mut self, rate: f64) -> Self {
        self.write_flip_rate = check_rate(rate);
        self
    }

    /// Probability that a write is torn: half the payload lands, then the
    /// operation fails.
    pub fn with_torn_write_rate(mut self, rate: f64) -> Self {
        self.torn_write_rate = check_rate(rate);
        self
    }

    /// Script `kind` at the `index`-th read (0-based).
    pub fn at_read(mut self, index: u64, kind: FaultKind) -> Self {
        self.scripted_reads.insert(index, kind);
        self
    }

    /// Script `kind` at the `index`-th write (0-based).
    pub fn at_write(mut self, index: u64, kind: FaultKind) -> Self {
        self.scripted_writes.insert(index, kind);
        self
    }

    /// Script `kind` on *every* read of block `block` (a bad sector).
    pub fn at_block_read(mut self, block: u64, kind: FaultKind) -> Self {
        self.block_reads.insert(block, kind);
        self
    }

    /// Script `kind` on *every* write to block `block`. With
    /// [`FaultKind::BitFlip`] this models a hard media fault: the write lands
    /// corrupted and every subsequent read fails checksum verification.
    pub fn at_block_write(mut self, block: u64, kind: FaultKind) -> Self {
        self.block_writes.insert(block, kind);
        self
    }
}

// ---------- the fault-injecting device ----------

/// Tally of faults a [`FaultyDevice`] has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient errors injected on reads.
    pub read_errors: u64,
    /// Transient errors injected on writes.
    pub write_errors: u64,
    /// Torn writes injected.
    pub torn_writes: u64,
    /// Bits flipped in read buffers (stored data intact).
    pub read_flips: u64,
    /// Bits flipped in stored data (persistent corruption).
    pub write_flips: u64,
}

impl FaultCounts {
    /// Total faults of every kind.
    pub fn total(&self) -> u64 {
        self.read_errors + self.write_errors + self.torn_writes + self.read_flips + self.write_flips
    }
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    rng: FaultRng,
    read_ops: u64,
    write_ops: u64,
    counts: FaultCounts,
}

impl FaultState {
    /// Decide the fate of the next read. Draws a fixed number of random
    /// values per op so the stream stays aligned whatever the outcomes.
    fn decide_read(&mut self, block: u64) -> Option<FaultKind> {
        let idx = self.read_ops;
        self.read_ops += 1;
        let (err, flip) = (self.rng.next_f64(), self.rng.next_f64());
        if let Some(k) = self.plan.block_reads.get(&block).or(self.plan.scripted_reads.get(&idx)) {
            // TornWrite makes no sense for a read; degrade to transient.
            return Some(match k {
                FaultKind::TornWrite => FaultKind::TransientError,
                k => *k,
            });
        }
        if err < self.plan.read_error_rate {
            Some(FaultKind::TransientError)
        } else if flip < self.plan.read_flip_rate {
            Some(FaultKind::BitFlip)
        } else {
            None
        }
    }

    fn decide_write(&mut self, block: u64) -> Option<FaultKind> {
        let idx = self.write_ops;
        self.write_ops += 1;
        let (err, torn, flip) = (self.rng.next_f64(), self.rng.next_f64(), self.rng.next_f64());
        if let Some(k) = self.plan.block_writes.get(&block).or(self.plan.scripted_writes.get(&idx))
        {
            return Some(*k);
        }
        if err < self.plan.write_error_rate {
            Some(FaultKind::TransientError)
        } else if torn < self.plan.torn_write_rate {
            Some(FaultKind::TornWrite)
        } else if flip < self.plan.write_flip_rate {
            Some(FaultKind::BitFlip)
        } else {
            None
        }
    }
}

fn injected_error(dir: &str, block: u64) -> ExtError {
    ExtError::Io(std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!("injected transient {dir} fault on block {block}"),
    ))
}

/// A [`BlockDevice`] wrapper that injects the faults of a [`FaultPlan`].
pub struct FaultyDevice<D: BlockDevice> {
    inner: D,
    state: Rc<RefCell<FaultState>>,
}

impl<D: BlockDevice> FaultyDevice<D> {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: D, plan: FaultPlan) -> Self {
        let rng = FaultRng::new(plan.seed ^ 0xFA_01_7D_E5_1C_ED_0D_15);
        FaultyDevice {
            inner,
            state: Rc::new(RefCell::new(FaultState {
                plan,
                rng,
                read_ops: 0,
                write_ops: 0,
                counts: FaultCounts::default(),
            })),
        }
    }

    /// A handle for observing (and extending) the injection schedule after
    /// the device has been swallowed by a [`Disk`](crate::Disk).
    pub fn injector(&self) -> FaultInjector {
        FaultInjector { state: Rc::clone(&self.state) }
    }
}

impl<D: BlockDevice> BlockDevice for FaultyDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    // Allocation metadata lives in host memory, not on the simulated medium,
    // so allocate/free are not fault targets.
    fn allocate(&mut self) -> u64 {
        self.inner.allocate()
    }

    fn free(&mut self, id: u64) -> Result<()> {
        self.inner.free(id)
    }

    fn is_live(&self, id: u64) -> bool {
        self.inner.is_live(id)
    }

    fn read(&mut self, id: u64, buf: &mut [u8]) -> Result<()> {
        let mut st = self.state.borrow_mut();
        match st.decide_read(id) {
            None => {
                drop(st);
                self.inner.read(id, buf)
            }
            Some(FaultKind::TransientError) | Some(FaultKind::TornWrite) => {
                st.counts.read_errors += 1;
                Err(injected_error("read", id))
            }
            Some(FaultKind::BitFlip) => {
                st.counts.read_flips += 1;
                let bit = st.rng.next_u64();
                drop(st);
                self.inner.read(id, buf)?;
                if !buf.is_empty() {
                    let bit = bit % (buf.len() as u64 * 8);
                    buf[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                Ok(())
            }
        }
    }

    fn write(&mut self, id: u64, data: &[u8]) -> Result<()> {
        let mut st = self.state.borrow_mut();
        match st.decide_write(id) {
            None => {
                drop(st);
                self.inner.write(id, data)
            }
            Some(FaultKind::TransientError) => {
                st.counts.write_errors += 1;
                Err(injected_error("write", id))
            }
            Some(FaultKind::TornWrite) => {
                st.counts.torn_writes += 1;
                drop(st);
                // Half the payload reaches the medium, then the op fails.
                self.inner.write(id, &data[..data.len() / 2])?;
                Err(injected_error("write (torn)", id))
            }
            Some(FaultKind::BitFlip) => {
                st.counts.write_flips += 1;
                let bit = st.rng.next_u64();
                drop(st);
                let mut corrupted = data.to_vec();
                if !corrupted.is_empty() {
                    let bit = bit % (corrupted.len() as u64 * 8);
                    corrupted[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                // Reports success: the corruption is silent by construction.
                self.inner.write(id, &corrupted)
            }
        }
    }
}

/// Observer handle onto a [`FaultyDevice`]'s state.
#[derive(Clone)]
pub struct FaultInjector {
    state: Rc<RefCell<FaultState>>,
}

impl FaultInjector {
    /// Faults injected so far, by kind.
    pub fn counts(&self) -> FaultCounts {
        self.state.borrow().counts
    }

    /// Read operations the device has seen (including faulted ones).
    pub fn read_ops(&self) -> u64 {
        self.state.borrow().read_ops
    }

    /// Write operations the device has seen (including faulted ones).
    pub fn write_ops(&self) -> u64 {
        self.state.borrow().write_ops
    }

    /// Script `kind` at the `index`-th read (0-based), counted from device
    /// creation. Indices already consumed never fire.
    pub fn script_read(&self, index: u64, kind: FaultKind) {
        self.state.borrow_mut().plan.scripted_reads.insert(index, kind);
    }

    /// Script `kind` at the `index`-th write (0-based), counted from device
    /// creation. Indices already consumed never fire.
    pub fn script_write(&self, index: u64, kind: FaultKind) {
        self.state.borrow_mut().plan.scripted_writes.insert(index, kind);
    }

    /// Script `kind` on every read of block `block` from now on.
    pub fn script_block_read(&self, block: u64, kind: FaultKind) {
        self.state.borrow_mut().plan.block_reads.insert(block, kind);
    }

    /// Script `kind` on every write to block `block` from now on.
    pub fn script_block_write(&self, block: u64, kind: FaultKind) {
        self.state.borrow_mut().plan.block_writes.insert(block, kind);
    }

    /// Drop any block-scripted fault on `block` (both directions).
    pub fn clear_block_fault(&self, block: u64) {
        let mut st = self.state.borrow_mut();
        st.plan.block_reads.remove(&block);
        st.plan.block_writes.remove(&block);
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("FaultInjector")
            .field("read_ops", &st.read_ops)
            .field("write_ops", &st.write_ops)
            .field("counts", &st.counts)
            .finish()
    }
}

// ---------- the crash-point injector ----------

/// When a [`CrashDevice`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPlan {
    /// Never crash (until armed through the [`CrashController`]).
    Disarmed,
    /// Crash once `n` physical I/Os (reads + writes combined) have
    /// completed: the `n`-th subsequent transfer fails and the image
    /// freezes. `AfterIos(0)` fails the very first transfer.
    AfterIos(u64),
    /// Crash after a seeded, uniformly random number of completed I/Os in
    /// `[0, max)`. Deterministic per seed.
    Random {
        /// Seed of the draw.
        seed: u64,
        /// Exclusive upper bound on the crash point.
        max: u64,
    },
}

impl CrashPlan {
    fn resolve(self) -> Option<u64> {
        match self {
            CrashPlan::Disarmed => None,
            CrashPlan::AfterIos(n) => Some(n),
            CrashPlan::Random { seed, max } => {
                let mut rng = FaultRng::new(seed ^ 0x00C4_A511_D00F_F1CE);
                Some(rng.next_u64() % max.max(1))
            }
        }
    }
}

#[derive(Debug)]
struct CrashState {
    /// Physical I/Os (reads + writes) completed so far.
    ios: u64,
    /// Crash when `ios` reaches this; `None` = disarmed.
    point: Option<u64>,
    /// Set once the crash has fired; every transfer fails until thawed.
    crashed: bool,
}

impl CrashState {
    /// Gate one transfer: either count it through or fail frozen.
    fn admit(&mut self) -> Result<()> {
        if self.crashed {
            return Err(ExtError::SimulatedCrash { after_ios: self.ios });
        }
        if let Some(p) = self.point {
            if self.ios >= p {
                self.crashed = true;
                return Err(ExtError::SimulatedCrash { after_ios: self.ios });
            }
        }
        self.ios += 1;
        Ok(())
    }
}

/// A [`BlockDevice`] wrapper that simulates a whole-process crash at a
/// deterministic I/O index: once the armed point is reached, every transfer
/// fails with [`ExtError::SimulatedCrash`] and the device image is frozen
/// exactly as the completed I/Os left it. Recovery code *thaws* the device
/// through the [`CrashController`] and replays the journal against the
/// frozen image -- the in-process equivalent of restarting after `kill -9`.
///
/// Allocation metadata lives in host memory (as with [`FaultyDevice`]), so
/// `allocate`/`free` are not crash targets; only `read`/`write` count and
/// fail.
pub struct CrashDevice<D: BlockDevice> {
    inner: D,
    state: Rc<RefCell<CrashState>>,
}

impl<D: BlockDevice> CrashDevice<D> {
    /// Wrap `inner`, crashing per `plan`.
    pub fn new(inner: D, plan: CrashPlan) -> Self {
        CrashDevice {
            inner,
            state: Rc::new(RefCell::new(CrashState {
                ios: 0,
                point: plan.resolve(),
                crashed: false,
            })),
        }
    }

    /// A handle for arming, observing, and thawing the crash point after the
    /// device has been swallowed by a [`Disk`](crate::Disk).
    pub fn controller(&self) -> CrashController {
        CrashController { state: Rc::clone(&self.state) }
    }
}

impl<D: BlockDevice> BlockDevice for CrashDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn allocate(&mut self) -> u64 {
        self.inner.allocate()
    }

    fn free(&mut self, id: u64) -> Result<()> {
        self.inner.free(id)
    }

    fn is_live(&self, id: u64) -> bool {
        self.inner.is_live(id)
    }

    fn read(&mut self, id: u64, buf: &mut [u8]) -> Result<()> {
        self.state.borrow_mut().admit()?;
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: u64, data: &[u8]) -> Result<()> {
        self.state.borrow_mut().admit()?;
        self.inner.write(id, data)
    }
}

/// Observer/actuator handle onto a [`CrashDevice`]'s state.
#[derive(Clone)]
pub struct CrashController {
    state: Rc<RefCell<CrashState>>,
}

impl CrashController {
    /// Arm (or re-arm) the crash per `plan`, counted from device creation.
    pub fn arm(&self, plan: CrashPlan) {
        self.state.borrow_mut().point = plan.resolve();
    }

    /// Arm a crash once `n` total physical I/Os have completed.
    pub fn arm_after(&self, n: u64) {
        self.arm(CrashPlan::AfterIos(n));
    }

    /// Physical I/Os (reads + writes) completed so far.
    pub fn ios(&self) -> u64 {
        self.state.borrow().ios
    }

    /// True once the crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.borrow().crashed
    }

    /// The armed crash point, if any.
    pub fn crash_point(&self) -> Option<u64> {
        self.state.borrow().point
    }

    /// Unfreeze the device and disarm the crash point, simulating the
    /// post-restart world where the frozen image becomes readable again.
    pub fn thaw(&self) {
        let mut st = self.state.borrow_mut();
        st.crashed = false;
        st.point = None;
    }
}

impl fmt::Debug for CrashController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("CrashController")
            .field("ios", &st.ios)
            .field("point", &st.point)
            .field("crashed", &st.crashed)
            .finish()
    }
}

// ---------- the checksum layer ----------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a64(data: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET, data)
}

/// Fold `data` into a running FNV-1a state (seeded with [`fnv1a64_seed`]),
/// so per-block sums can be computed incrementally while streaming.
pub(crate) fn fnv1a64_update(mut h: u64, data: &[u8]) -> u64 {
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV-1a offset basis: the initial state for [`fnv1a64_update`].
pub(crate) fn fnv1a64_seed() -> u64 {
    FNV_OFFSET
}

/// A [`BlockDevice`] wrapper that verifies block content against a per-block
/// checksum recorded at write time.
///
/// The checksum covers exactly the bytes passed to `write` (callers may
/// write less than a full block; the tail is unspecified by contract) and is
/// recorded only after the inner write *succeeds* -- so a torn write leaves
/// the previous checksum in place and the damage is detected on the next
/// read. Checksums live in host memory beside the device, playing the role
/// of the out-of-band CRCs real storage formats keep per sector.
pub struct ChecksummedDevice<D: BlockDevice> {
    inner: D,
    sums: HashMap<u64, (usize, u64)>,
}

impl<D: BlockDevice> ChecksummedDevice<D> {
    /// Wrap `inner` with checksum tracking.
    pub fn new(inner: D) -> Self {
        ChecksummedDevice { inner, sums: HashMap::new() }
    }
}

impl<D: BlockDevice> BlockDevice for ChecksummedDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn allocate(&mut self) -> u64 {
        let id = self.inner.allocate();
        // A recycled block is zeroed by the allocator: its old checksum no
        // longer applies.
        self.sums.remove(&id);
        id
    }

    fn free(&mut self, id: u64) -> Result<()> {
        self.inner.free(id)?;
        self.sums.remove(&id);
        Ok(())
    }

    fn is_live(&self, id: u64) -> bool {
        self.inner.is_live(id)
    }

    fn read(&mut self, id: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read(id, buf)?;
        if let Some(&(len, sum)) = self.sums.get(&id) {
            if fnv1a64(&buf[..len]) != sum {
                return Err(ExtError::ChecksumMismatch { block: id });
            }
        }
        Ok(())
    }

    fn write(&mut self, id: u64, data: &[u8]) -> Result<()> {
        self.inner.write(id, data)?;
        self.sums.insert(id, (data.len(), fnv1a64(data)));
        Ok(())
    }
}

// ---------- retry policy and phase tracking ----------

/// How [`Disk`](crate::Disk) responds to transient transfer failures.
///
/// Backoff is *simulated*: before retry `k` (1-based), `backoff_base << (k-1)`
/// units are added to the stats' backoff counter instead of sleeping, keeping
/// tests fast and deterministic while still measuring what a real deployment
/// would pay in wait time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per transfer (>= 1); 1 means no retries.
    pub max_attempts: u32,
    /// Simulated backoff before the first retry; doubles each retry.
    pub backoff_base: u64,
}

impl RetryPolicy {
    /// No retries: every failure is immediately fatal (the seed behaviour).
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, backoff_base: 0 }
    }

    /// Allow `n` retries (so `n + 1` total attempts) with unit base backoff.
    pub fn retries(n: u32) -> Self {
        RetryPolicy { max_attempts: n + 1, backoff_base: 1 }
    }

    /// Simulated backoff units charged before retry number `retry` (1-based).
    pub fn backoff_before(&self, retry: u32) -> u64 {
        if self.backoff_base == 0 {
            return 0;
        }
        // Cap the shift: beyond 2^20 units per wait, precision is meaningless.
        self.backoff_base.saturating_mul(1u64 << (retry - 1).min(20))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// What the sorter was doing when a transfer happened; set on the
/// [`Disk`](crate::Disk) by the algorithm layers so unrecoverable failures
/// can be reported against the phase that hit them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoPhase {
    /// Before any algorithm phase (staging, setup).
    #[default]
    Setup,
    /// Scanning the input document.
    InputScan,
    /// Forming initial sorted runs.
    RunFormation,
    /// Intermediate merge pass `k` (1-based).
    MergePass(u32),
    /// The final merge producing one run.
    FinalMerge,
    /// Emitting the sorted document.
    OutputEmit,
    /// Replaying the journal and reconciling device state after a crash.
    Recovery,
}

impl IoPhase {
    /// Number of phase *classes* used for per-phase accounting (see
    /// [`IoStats`](crate::IoStats)'s cache counters). All intermediate merge
    /// passes share one class so the counter arrays stay fixed-size.
    pub const NUM_CLASSES: usize = 7;

    /// The index of this phase's class, in `0..NUM_CLASSES`.
    pub fn class_index(self) -> usize {
        match self {
            IoPhase::Setup => 0,
            IoPhase::InputScan => 1,
            IoPhase::RunFormation => 2,
            IoPhase::MergePass(_) => 3,
            IoPhase::FinalMerge => 4,
            IoPhase::OutputEmit => 5,
            IoPhase::Recovery => 6,
        }
    }

    /// Stable report label of the class at `index` (see
    /// [`IoPhase::class_index`]).
    pub fn class_label(index: usize) -> &'static str {
        [
            "setup",
            "input-scan",
            "run-formation",
            "merge-pass",
            "final-merge",
            "output-emit",
            "recovery",
        ][index]
    }
}

impl fmt::Display for IoPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoPhase::Setup => f.write_str("setup"),
            IoPhase::InputScan => f.write_str("input scan"),
            IoPhase::RunFormation => f.write_str("run formation"),
            IoPhase::MergePass(k) => write!(f, "merge pass {k}"),
            IoPhase::FinalMerge => f.write_str("final merge"),
            IoPhase::OutputEmit => f.write_str("output emit"),
            IoPhase::Recovery => f.write_str("recovery"),
        }
    }
}

// ---------- the device health map ----------

/// Per-device health record kept by [`Disk`](crate::Disk): which blocks have
/// been quarantined after hard media faults, how many repairs the parity
/// layer performed, and how the faults cluster across the devices of a
/// stripe set (device 0 for an unstriped disk).
///
/// A quarantined block is *never freed and never reallocated*: its content is
/// untrustworthy, so the self-healing layer rewrites repaired data to a fresh
/// block and abandons the bad one here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceHealth {
    quarantined: BTreeSet<u64>,
    repairs: u64,
    rederived_runs: u64,
    faults_by_device: BTreeMap<u32, u64>,
}

impl DeviceHealth {
    /// A health map with no recorded faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Quarantine `block`, attributing the fault to stripe device `device`.
    /// Re-quarantining an already-quarantined block is a no-op.
    pub fn quarantine(&mut self, block: u64, device: u32) {
        if self.quarantined.insert(block) {
            *self.faults_by_device.entry(device).or_insert(0) += 1;
        }
    }

    /// True if `block` has been quarantined.
    pub fn is_quarantined(&self, block: u64) -> bool {
        self.quarantined.contains(&block)
    }

    /// Count one successful parity reconstruction.
    pub fn note_repair(&mut self) {
        self.repairs += 1;
    }

    /// Count one run re-derived from its journalled source region.
    pub fn note_rederivation(&mut self) {
        self.rederived_runs += 1;
    }

    /// Blocks quarantined so far, ascending.
    pub fn quarantined_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.quarantined.iter().copied()
    }

    /// Number of quarantined blocks.
    pub fn num_quarantined(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// Successful parity reconstructions so far.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Runs re-derived from their source so far.
    pub fn rederived_runs(&self) -> u64 {
        self.rederived_runs
    }

    /// Hard faults attributed to each stripe device: `(device, faults)`
    /// pairs, ascending by device. Clustering here (many faults on one
    /// device) is the signal an operator would use to pull a disk.
    pub fn fault_clustering(&self) -> Vec<(u32, u64)> {
        self.faults_by_device.iter().map(|(&d, &n)| (d, n)).collect()
    }
}

impl fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} quarantined, {} repaired, {} rederived",
            self.num_quarantined(),
            self.repairs,
            self.rederived_runs
        )?;
        for (dev, n) in self.fault_clustering() {
            write!(f, "; dev{dev}:{n}")?;
        }
        Ok(())
    }
}

/// Details of the last transfer a [`Disk`](crate::Disk) gave up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFailure {
    /// The I/O category the failed transfer was charged to.
    pub cat: IoCat,
    /// The block id involved.
    pub block: u64,
    /// True if the failed transfer was a read.
    pub is_read: bool,
    /// Attempts spent (1 = failed without retrying).
    pub attempts: u32,
    /// The [`IoPhase`] active when the transfer failed.
    pub phase: IoPhase,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    fn dev() -> MemDevice {
        MemDevice::new(64)
    }

    #[test]
    fn clean_plan_is_a_no_op() {
        let mut d = FaultyDevice::new(dev(), FaultPlan::new(1));
        let id = d.allocate();
        d.write(id, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        d.read(id, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        assert_eq!(d.injector().counts().total(), 0);
    }

    #[test]
    fn scripted_faults_fire_at_exact_indices() {
        let plan = FaultPlan::new(2)
            .at_write(1, FaultKind::TransientError)
            .at_read(0, FaultKind::TransientError);
        let mut d = FaultyDevice::new(dev(), plan);
        let id = d.allocate();
        d.write(id, &[1u8; 64]).unwrap(); // write #0: clean
        assert!(d.write(id, &[2u8; 64]).is_err()); // write #1: scripted
        d.write(id, &[3u8; 64]).unwrap(); // write #2: clean
        let mut buf = [0u8; 64];
        assert!(d.read(id, &mut buf).is_err()); // read #0: scripted
        d.read(id, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 64], "failed write must not have landed");
        let c = d.injector().counts();
        assert_eq!((c.read_errors, c.write_errors), (1, 1));
    }

    #[test]
    fn same_seed_injects_identical_fault_sequences() {
        let run = || {
            let mut d = FaultyDevice::new(dev(), FaultPlan::transient(42, 0.3));
            let inj = d.injector();
            let id = d.allocate();
            let mut outcomes = Vec::new();
            for i in 0..200u8 {
                outcomes.push(d.write(id, &[i; 64]).is_ok());
                let mut buf = [0u8; 64];
                outcomes.push(d.read(id, &mut buf).is_ok());
            }
            (outcomes, inj.counts())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b);
        assert_eq!(ca, cb);
        assert!(ca.total() > 50, "30% fault rate over 400 ops: {ca:?}");
    }

    #[test]
    fn checksum_detects_read_flip_and_reread_heals() {
        let plan = FaultPlan::new(3).at_read(0, FaultKind::BitFlip);
        let mut d = ChecksummedDevice::new(FaultyDevice::new(dev(), plan));
        let id = d.allocate();
        d.write(id, &[0xAB; 64]).unwrap();
        let mut buf = [0u8; 64];
        match d.read(id, &mut buf) {
            Err(e @ ExtError::ChecksumMismatch { block: 0 }) => assert!(e.is_transient()),
            other => panic!("flip must be detected: {other:?}"),
        }
        // The stored block is intact: the next read succeeds.
        d.read(id, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 64]);
    }

    #[test]
    fn checksum_detects_persistent_write_flip_on_every_read() {
        let plan = FaultPlan::new(4).at_write(0, FaultKind::BitFlip);
        let mut d = ChecksummedDevice::new(FaultyDevice::new(dev(), plan));
        let id = d.allocate();
        d.write(id, &[0x55; 64]).unwrap(); // reports success, stores corruption
        let mut buf = [0u8; 64];
        for _ in 0..3 {
            assert!(
                matches!(d.read(id, &mut buf), Err(ExtError::ChecksumMismatch { .. })),
                "write-path corruption persists across re-reads"
            );
        }
    }

    #[test]
    fn torn_write_fails_and_leaves_detectable_state() {
        let plan = FaultPlan::new(5).at_write(1, FaultKind::TornWrite);
        let mut d = ChecksummedDevice::new(FaultyDevice::new(dev(), plan));
        let id = d.allocate();
        d.write(id, &[0x11; 64]).unwrap();
        assert!(d.write(id, &[0x22; 64]).is_err(), "torn write reports failure");
        // The old checksum is still in force and the block is half-new: a
        // read detects the tear rather than returning the mixed content.
        let mut buf = [0u8; 64];
        assert!(matches!(d.read(id, &mut buf), Err(ExtError::ChecksumMismatch { .. })));
        // A successful re-write repairs the block and its checksum.
        d.write(id, &[0x33; 64]).unwrap();
        d.read(id, &mut buf).unwrap();
        assert_eq!(buf, [0x33; 64]);
    }

    #[test]
    fn checksums_are_cleared_on_free_and_recycle() {
        let mut d = ChecksummedDevice::new(dev());
        let id = d.allocate();
        d.write(id, &[9u8; 64]).unwrap();
        d.free(id).unwrap();
        let id2 = d.allocate();
        assert_eq!(id, id2, "MemDevice recycles");
        let mut buf = [0u8; 64];
        d.read(id2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0), "recycled block reads zeroed, no stale checksum");
    }

    #[test]
    fn checksum_covers_only_the_written_prefix() {
        let mut d = ChecksummedDevice::new(dev());
        let id = d.allocate();
        d.write(id, b"short payload").unwrap();
        let mut buf = [0u8; 64];
        d.read(id, &mut buf).unwrap();
        assert_eq!(&buf[..13], b"short payload");
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy { max_attempts: 8, backoff_base: 2 };
        assert_eq!(p.backoff_before(1), 2);
        assert_eq!(p.backoff_before(2), 4);
        assert_eq!(p.backoff_before(3), 8);
        assert_eq!(RetryPolicy::none().backoff_before(1), 0);
        let huge = RetryPolicy { max_attempts: 100, backoff_base: u64::MAX };
        assert_eq!(huge.backoff_before(64), u64::MAX, "saturates, never panics");
    }

    #[test]
    fn io_phase_displays_name_the_paper_phases() {
        assert_eq!(IoPhase::RunFormation.to_string(), "run formation");
        assert_eq!(IoPhase::MergePass(3).to_string(), "merge pass 3");
        assert_eq!(IoPhase::default(), IoPhase::Setup);
    }

    #[test]
    fn io_phase_classes_are_dense_and_merge_passes_collapse() {
        let all = [
            IoPhase::Setup,
            IoPhase::InputScan,
            IoPhase::RunFormation,
            IoPhase::MergePass(1),
            IoPhase::FinalMerge,
            IoPhase::OutputEmit,
            IoPhase::Recovery,
        ];
        let mut seen = std::collections::HashSet::new();
        for p in all {
            let i = p.class_index();
            assert!(i < IoPhase::NUM_CLASSES);
            assert!(seen.insert(i), "duplicate class for {p}");
            assert!(!IoPhase::class_label(i).is_empty());
        }
        assert_eq!(IoPhase::MergePass(1).class_index(), IoPhase::MergePass(9).class_index());
    }

    #[test]
    fn crash_fires_at_the_exact_io_index_and_freezes_the_image() {
        let mut d = CrashDevice::new(dev(), CrashPlan::AfterIos(3));
        let ctl = d.controller();
        let a = d.allocate();
        let b = d.allocate();
        d.write(a, &[1u8; 64]).unwrap(); // io 0
        d.write(b, &[2u8; 64]).unwrap(); // io 1
        let mut buf = [0u8; 64];
        d.read(a, &mut buf).unwrap(); // io 2
        assert!(!ctl.crashed());
        match d.write(a, &[9u8; 64]) {
            Err(ExtError::SimulatedCrash { after_ios: 3 }) => {}
            other => panic!("crash must fire at io 3: {other:?}"),
        }
        assert!(ctl.crashed());
        // Frozen: everything fails, nothing mutates.
        assert!(d.read(b, &mut buf).is_err());
        assert!(d.write(b, &[7u8; 64]).is_err());
        ctl.thaw();
        d.read(a, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64], "the rejected write must not have landed");
        d.read(b, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 64]);
    }

    #[test]
    fn disarmed_crash_device_is_transparent_and_counts_ios() {
        let mut d = CrashDevice::new(dev(), CrashPlan::Disarmed);
        let ctl = d.controller();
        let id = d.allocate();
        for i in 0..5u8 {
            d.write(id, &[i; 64]).unwrap();
        }
        assert_eq!(ctl.ios(), 5);
        assert!(!ctl.crashed());
        assert_eq!(ctl.crash_point(), None);
        ctl.arm_after(5);
        assert!(d.write(id, &[9u8; 64]).is_err(), "armed point already reached");
    }

    #[test]
    fn block_scripted_faults_fire_on_every_touch_of_that_block() {
        let mut d = FaultyDevice::new(dev(), FaultPlan::new(6));
        let inj = d.injector();
        let a = d.allocate();
        let b = d.allocate();
        inj.script_block_write(b, FaultKind::BitFlip);
        d.write(a, &[1u8; 64]).unwrap();
        d.write(b, &[2u8; 64]).unwrap(); // lands corrupted, reports success
        d.write(b, &[3u8; 64]).unwrap(); // corrupts again: a bad sector
        assert_eq!(d.injector().counts().write_flips, 2);
        let mut buf = [0u8; 64];
        d.read(a, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 64], "other blocks are untouched");
        inj.clear_block_fault(b);
        d.write(b, &[4u8; 64]).unwrap();
        d.read(b, &mut buf).unwrap();
        assert_eq!(buf, [4u8; 64], "cleared block faults stop firing");
    }

    #[test]
    fn block_scripted_write_flip_is_a_persistent_checksum_failure() {
        let faulty = FaultyDevice::new(dev(), FaultPlan::new(7));
        let inj = faulty.injector();
        let mut d = ChecksummedDevice::new(faulty);
        let a = d.allocate();
        inj.script_block_write(a, FaultKind::BitFlip);
        d.write(a, &[9u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        for _ in 0..3 {
            assert!(matches!(d.read(a, &mut buf), Err(ExtError::ChecksumMismatch { .. })));
        }
    }

    #[test]
    fn device_health_tracks_quarantine_repairs_and_clustering() {
        let mut h = DeviceHealth::new();
        assert_eq!(h.num_quarantined(), 0);
        h.quarantine(10, 0);
        h.quarantine(11, 1);
        h.quarantine(10, 2); // duplicate: ignored, not re-attributed
        h.note_repair();
        h.note_repair();
        h.note_rederivation();
        assert!(h.is_quarantined(10) && h.is_quarantined(11));
        assert!(!h.is_quarantined(12));
        assert_eq!(h.num_quarantined(), 2);
        assert_eq!(h.quarantined_blocks().collect::<Vec<_>>(), vec![10, 11]);
        assert_eq!(h.repairs(), 2);
        assert_eq!(h.rederived_runs(), 1);
        assert_eq!(h.fault_clustering(), vec![(0, 1), (1, 1)]);
        let s = h.to_string();
        assert!(s.contains("2 quarantined") && s.contains("2 repaired"), "{s}");
        assert!(s.contains("dev0:1") && s.contains("dev1:1"), "{s}");
    }

    #[test]
    fn incremental_fnv_matches_the_one_shot_hash() {
        let data = b"parity groups protect sealed runs";
        let mut h = fnv1a64_seed();
        h = fnv1a64_update(h, &data[..7]);
        h = fnv1a64_update(h, &data[7..]);
        assert_eq!(h, fnv1a64(data));
        assert_eq!(fnv1a64_seed(), fnv1a64(b""));
    }

    #[test]
    fn random_crash_plans_are_deterministic_per_seed() {
        let point = |seed| CrashPlan::Random { seed, max: 100 }.resolve().unwrap();
        assert_eq!(point(11), point(11));
        assert!(point(11) < 100);
        let distinct: std::collections::HashSet<u64> = (0..20).map(point).collect();
        assert!(distinct.len() > 10, "seeds must spread the crash point");
    }
}
