//! # nexsort-extmem
//!
//! External-memory substrate for the NEXSORT reproduction (Silberstein &
//! Yang, *NEXSORT: Sorting XML in External Memory*, ICDE 2004).
//!
//! The paper implements NEXSORT and its external-merge-sort baseline on TPIE
//! to obtain explicit control and accounting of block I/Os under a bounded
//! internal memory. This crate rebuilds that substrate from scratch:
//!
//! * [`Disk`] / [`BlockDevice`]: a block device (in-memory or file-backed)
//!   whose every transfer is tagged with an [`IoCat`] and counted in
//!   [`IoStats`], reproducing the cost breakdown of Section 4.2;
//! * [`MemoryBudget`]: the model's `M` blocks of internal memory, enforced
//!   via RAII frame reservations (Figure 5 sweeps exactly this knob);
//! * [`Extent`] with forward/backward/append cursors: sequential storage at
//!   `ceil(L/B)` I/Os per pass;
//! * [`ExtStack`]: externally-paged stacks with the paper's no-prefetch
//!   policy (data, path, and output-location stacks of Section 3.1);
//! * [`RunStore`]: sorted runs linked by pointers into a tree (Figure 3);
//! * [`KWayMerger`]: the merging engine for external merge sort;
//! * [`FaultyDevice`] / [`ChecksummedDevice`] / [`RetryPolicy`]: deterministic
//!   fault injection, corruption detection, and transparent retry of
//!   transient failures (see the [`fault`](crate::FaultPlan) types);
//! * the pinning buffer pool ([`DiskBuilder::cache`], [`PinGuard`],
//!   [`CachePolicy`], [`WriteMode`]): an optional page cache between the
//!   accounting layer and the device, so *physical* transfers can drop below
//!   the *logical* transfers the paper's analysis counts;
//! * [`StripedDevice`] ([`DiskBuilder::stripe`]): round-robin striping over
//!   independently faultable devices;
//! * the crash-consistency layer ([`Journal`], [`recover`], [`CrashDevice`]):
//!   a write-ahead manifest journal whose commit records land only after the
//!   pool's dirty frames are flushed, replay with strict torn-tail rules,
//!   free-map reconciliation, and a deterministic crash-point injector.
//!
//! Everything here is deliberately single-threaded (`Rc`/`Cell`), so the
//! paper's sequential logical I/O accounting -- and every run's
//! bit-for-bit reproducibility -- survives intact.

#![warn(missing_docs)]
// Failures surface as `ExtError`/`SortFailure`, never as a panic: the
// fault-injection and crash suites' recovery guarantees depend on it. Test
// code may unwrap freely.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod arbiter;
mod budget;
mod build;
mod device;
mod error;
mod extent;
mod fault;
mod journal;
mod kway;
pub mod locksan;
mod pool;
mod recovery;
mod repair;
mod run_store;
mod shadow;
mod stack;
mod stats;
mod stripe;

pub use arbiter::{BudgetArbiter, BudgetLease};
pub use budget::{FrameGuard, MemoryBudget};
pub use build::{BuildError, DiskBuilder, DiskStack};
pub use device::{BlockDevice, Disk, FileDevice, MemDevice, TraceEntry};
pub use error::{ExtError, Result};
pub use extent::{
    ByteReader, ByteSink, Extent, ExtentReader, ExtentRevCursor, ExtentWriter, IoSink, PartFile,
    SliceReader, STREAM_BUF,
};
pub use fault::{
    ChecksummedDevice, CrashController, CrashDevice, CrashPlan, DeviceHealth, DiskFailure,
    FaultCounts, FaultInjector, FaultKind, FaultPlan, FaultRng, FaultyDevice, IoPhase, RetryPolicy,
};
pub use journal::{Journal, JournalRecord, JournalStats};
pub use kway::{KWayMerger, MergeStream, VecStream};
pub use pool::{
    CachePolicy, ClockPolicy, EvictionPolicy, LruPolicy, PinGuard, PinMutGuard, WriteMode,
};
pub use recovery::{fold_records, recover, RecoveredState};
pub use repair::{RunParity, RunReader, ScrubReport};
pub use run_store::{RunId, RunStore, RunWriter};
pub use shadow::ShadowState;
pub use stack::ExtStack;
pub use stats::{CacheEvent, IoCat, IoSnapshot, IoStats};
pub use stripe::StripedDevice;
