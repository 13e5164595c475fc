//! Degraded-mode completion: permanent media faults inside the run store
//! must never change one byte of sorted output.
//!
//! The contract under test (ISSUE: self-healing run storage):
//!
//! 1. with parity protection on, a permanent hard fault (a bad sector that
//!    silently corrupts every write, so each re-read fails its checksum) at
//!    *any single* run-store data block heals through parity reconstruction
//!    or source re-derivation: the output is bit-identical to the
//!    fault-free run and the sort reports `degraded`;
//! 2. the same holds across device stacks: a plain synchronous device and
//!    an 8-frame write-back pool over a 4-way stripe;
//! 3. at fault rate zero nothing is repaired, quarantined, or re-derived;
//! 4. (property) any random set of hard faults within parity tolerance --
//!    mirrored runs tolerate every data-block loss -- never changes output.
//!
//! Every transfer here passes the disk's always-on liveness check, so the
//! repair path's allocate/quarantine/rewrite traffic is also audited: a
//! touch of a freed block fails the sort instead of passing silently.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::OnceLock;

use proptest::prelude::*;

use nexsort::{Nexsort, NexsortOptions, SortReport};
use nexsort_baseline::stage_input;
use nexsort_extmem::{CachePolicy, Disk, DiskBuilder, FaultKind, FaultPlan, IoCat, WriteMode};
use nexsort_xml::{Rec, SortSpec};

const BLOCK: usize = 128;
const STRIPE: u64 = 4;

fn doc() -> String {
    let mut d = String::from("<root>");
    for i in (0..300).rev() {
        d.push_str(&format!("<item k=\"{i:06}\"/>"));
    }
    d.push_str("</root>");
    d
}

fn opts(parity_group: usize) -> NexsortOptions {
    // Degeneration merges scratch runs *during* the sort, so injected
    // faults exercise the repair path mid-sort, not only at output time.
    NexsortOptions { degeneration: true, mem_frames: 10, parity_group, ..Default::default() }
}

/// A synchronous fault-injected in-memory disk; `faults` are device block
/// ids modelling bad sectors: every write lands silently corrupted (one
/// bit flipped inside the written bytes), so every later read of the block
/// fails checksum verification no matter how often it is retried -- a
/// permanent hard media fault.
fn sync_disk(faults: &[u64]) -> Rc<Disk> {
    let stack = DiskBuilder::new(BLOCK).faults(FaultPlan::new(0)).build().unwrap();
    for &b in faults {
        stack.injectors[0].script_block_write(b, FaultKind::BitFlip);
    }
    stack.disk
}

/// A 4-way striped disk with per-device injectors under an 8-frame
/// write-back pool; global block ids map to `(id % STRIPE, id / STRIPE)`.
fn striped_disk(faults: &[u64]) -> Rc<Disk> {
    let stack = DiskBuilder::new(BLOCK)
        .stripe(STRIPE as usize)
        .faults_per_device(vec![FaultPlan::new(0); STRIPE as usize])
        .cache(8, CachePolicy::Lru, WriteMode::Back)
        .build()
        .unwrap();
    let (disk, injs) = (stack.disk, stack.injectors);
    for &b in faults {
        injs[(b % STRIPE) as usize].script_block_write(b / STRIPE, FaultKind::BitFlip);
    }
    disk
}

struct Outcome {
    recs: Vec<Rec>,
    report: SortReport,
    /// Run-store data blocks in first-write order (deterministic replay).
    scratch: Vec<u64>,
    /// Blocks the sort itself read back (merge inputs); faults on these
    /// must surface as in-sort repairs, not only at serialization time.
    read_back: BTreeSet<u64>,
    /// Device-health repair events, counted after serialization so that
    /// repairs on the final output run are included too.
    health_events: u64,
    trace: Vec<nexsort_extmem::TraceEntry>,
}

fn run(build: &dyn Fn(&[u64]) -> Rc<Disk>, opts: &NexsortOptions, faults: &[u64]) -> Outcome {
    let disk = build(faults);
    let input = stage_input(&disk, doc().as_bytes()).expect("stage input");
    // Flush staging's dirty frames so the trace holds the sort's alone.
    disk.cache_flush_all().expect("flush staging");
    disk.start_trace();
    let nx = Nexsort::new(disk.clone(), opts.clone(), SortSpec::by_attribute("k"))
        .expect("construct sorter");
    let sorted = nx.sort_xml_extent(&input).expect("degraded sort must still complete");
    let trace = disk.take_trace();
    // Fault targets: blocks whose *every* write is run-store data. A block
    // recycled as e.g. a stack page or a parity block sees other writes
    // too; corrupting those would damage state outside the parity layer's
    // protection, which is a different failure (and a different test).
    let mut write_order: Vec<u64> = Vec::new();
    let mut data_only: BTreeMap<u64, bool> = BTreeMap::new();
    for t in trace.iter().filter(|t| !t.is_read) {
        let e = data_only.entry(t.block).or_insert_with(|| {
            write_order.push(t.block);
            true
        });
        *e &= t.cat == IoCat::SortScratch;
    }
    let scratch: Vec<u64> = write_order.into_iter().filter(|b| data_only[b]).collect();
    let read_back: BTreeSet<u64> = trace.iter().filter(|t| t.is_read).map(|t| t.block).collect();
    let recs = sorted.to_recs().expect("serialize sorted output");
    let health = disk.health();
    Outcome {
        recs,
        report: sorted.report.clone(),
        scratch,
        read_back,
        health_events: health.repairs() + health.rederived_runs(),
        trace,
    }
}

fn sweep(build: &dyn Fn(&[u64]) -> Rc<Disk>, opts: &NexsortOptions) {
    let clean = run(build, opts, &[]);
    assert!(!clean.report.degraded, "fault-free run must not be degraded");
    assert_eq!(clean.report.repairs, 0, "fault-free run must repair nothing");
    assert_eq!(clean.report.quarantined_blocks, 0);
    assert_eq!(clean.report.rederivations, 0);
    assert_eq!(clean.health_events, 0, "fault-free run must leave device health untouched");
    assert!(clean.scratch.len() >= 4, "workload must spill several run blocks");

    // Lose every run-store block in turn: one loss per parity group is
    // always reconstructible, and a loss outside any group's tolerance
    // falls back to re-deriving the run from the (intact) source. Either
    // way the output bytes must not move.
    for (i, &b) in clean.scratch.iter().enumerate() {
        let hurt = run(build, opts, &[b]);
        assert_eq!(
            hurt.recs, clean.recs,
            "block index {i} (device block {b}): output changed under a permanent fault"
        );
        if clean.read_back.contains(&b) {
            assert!(
                hurt.report.degraded,
                "block index {i} (device block {b}): read back mid-sort but not degraded \
                 (repairs={} rederivations={} quarantined={} health_events={})\nclean: {:?}\nhurt: {:?}",
                hurt.report.repairs,
                hurt.report.rederivations,
                hurt.report.quarantined_blocks,
                hurt.health_events,
                clean.trace.iter().filter(|t| t.block == b).collect::<Vec<_>>(),
                hurt.trace.iter().filter(|t| t.block == b).collect::<Vec<_>>()
            );
            assert!(
                hurt.health_events >= 1,
                "block index {i} (device block {b}): no repair or re-derivation recorded"
            );
        }
    }
}

#[test]
fn every_block_loss_heals_bit_identically_on_a_sync_device() {
    sweep(&sync_disk, &opts(2));
}

#[test]
fn every_block_loss_heals_bit_identically_under_write_back_striping() {
    sweep(&striped_disk, &opts(2));
}

#[test]
fn fault_rate_zero_repairs_nothing_on_either_stack() {
    for build in [&sync_disk as &dyn Fn(&[u64]) -> Rc<Disk>, &striped_disk] {
        let out = run(build, &opts(4), &[]);
        assert!(!out.report.degraded);
        assert_eq!(out.report.repairs, 0);
        assert_eq!(out.report.quarantined_blocks, 0);
        assert_eq!(out.report.rederivations, 0);
        assert_eq!(out.health_events, 0);
    }
}

/// Fault-free mirror-protected reference, computed once: its output bytes
/// and the deterministic list of run-store blocks to aim faults at.
fn mirror_reference() -> &'static (Vec<Rec>, Vec<u64>, BTreeSet<u64>) {
    static REF: OnceLock<(Vec<Rec>, Vec<u64>, BTreeSet<u64>)> = OnceLock::new();
    REF.get_or_init(|| {
        let clean = run(&sync_disk, &opts(1), &[]);
        (clean.recs, clean.scratch, clean.read_back)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // With mirrored runs (parity group of 1) every data block carries its
    // own replica, so *any* set of data-block losses is within parity
    // tolerance: the sort must absorb all of them without moving a byte.
    #[test]
    fn random_hard_fault_sets_within_tolerance_never_change_output(
        picks in prop::collection::vec(0usize..4096, 0..4)
    ) {
        let (clean_recs, scratch, read_back) = mirror_reference();
        let faults: Vec<u64> = picks
            .iter()
            .map(|p| scratch[p % scratch.len()])
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let hurt = run(&sync_disk, &opts(1), &faults);
        prop_assert!(&hurt.recs == clean_recs, "faults at {faults:?} changed the output");
        if faults.iter().any(|b| read_back.contains(b)) {
            prop_assert!(hurt.report.degraded, "in-sort losses at {:?} must degrade", faults);
            prop_assert!(hurt.health_events >= 1);
        }
    }
}
