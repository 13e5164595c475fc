//! End-to-end behavior of the pinning buffer pool under the full sorter.
//!
//! The contract under test (ISSUE: buffer pool subsystem):
//!
//! 1. the pool is *transparent*: sorted output is bit-identical across
//!    uncached, LRU, and CLOCK configurations, write-through and write-back,
//!    and the logical transfer counts (the paper's cost model) never move;
//! 2. a zero-frame pool leaves the accounting byte-identical to a pool-less
//!    run -- physical equals logical, no cache counters, no extra report
//!    lines;
//! 3. a warm pool performs strictly fewer physical reads than logical reads;
//! 4. faults injected while the pool runs write-back still surface
//!    deterministically as a structured `SortFailure` naming the phase and
//!    the block the checksum rejected.

use std::rc::Rc;

use nexsort::{Nexsort, NexsortOptions, SortFailure, SortedDoc};
use nexsort_baseline::stage_input;
use nexsort_extmem::{
    CachePolicy, Disk, DiskBuilder, ExtError, FaultKind, FaultPlan, IoCat, IoPhase, IoSnapshot,
    RetryPolicy, WriteMode,
};
use nexsort_xml::{SortSpec, XmlError};

const BLOCK: usize = 256;

fn doc() -> String {
    let mut d = String::from("<catalog>");
    for g in 0..6 {
        d.push_str(&format!("<group k=\"{:02}\">", 5 - g));
        for i in 0..50 {
            d.push_str(&format!(
                "<item k=\"{:03}\"><sub k=\"z\">text-{i:03}</sub><sub k=\"a\"/></item>",
                49 - i
            ));
        }
        d.push_str("</group>");
    }
    d.push_str("</catalog>");
    d
}

fn opts() -> NexsortOptions {
    NexsortOptions { mem_frames: 12, ..Default::default() }
}

/// A stack over `BLOCK`-byte blocks with a `cache_frames`-frame pool (none
/// at 0); the pool is part of the stack from the start, so staging goes
/// through it too.
fn cached(cache_frames: usize, policy: CachePolicy, mode: WriteMode) -> DiskBuilder {
    DiskBuilder::new(BLOCK).cache(cache_frames, policy, mode)
}

fn sort_with(stack: DiskBuilder) -> (Vec<u8>, IoSnapshot, Rc<Disk>) {
    let disk = stack.build().unwrap().disk;
    let input = stage_input(&disk, doc().as_bytes()).unwrap();
    let spec = SortSpec::by_attribute("k");
    let sorted = Nexsort::new(disk.clone(), opts(), spec).unwrap().sort_xml_extent(&input).unwrap();
    let xml = sorted.to_xml(false).unwrap();
    disk.cache_flush_all().unwrap();
    (xml, disk.stats().snapshot(), disk)
}

fn phys_reads_total(s: &IoSnapshot) -> u64 {
    IoCat::ALL.iter().map(|&c| s.phys_reads(c)).sum()
}

#[test]
fn every_cache_configuration_sorts_bit_identically() {
    let (clean, clean_io, _) = sort_with(cached(0, CachePolicy::Lru, WriteMode::Through));
    // A pool small enough to force evictions and one big enough to go warm.
    for frames in [3usize, 64] {
        for policy in [CachePolicy::Lru, CachePolicy::Clock] {
            for mode in [WriteMode::Through, WriteMode::Back] {
                let (xml, io, _) = sort_with(cached(frames, policy, mode));
                assert_eq!(
                    xml, clean,
                    "{frames} frames, {policy}, {mode}: output must be bit-identical"
                );
                assert_eq!(
                    io.grand_total(),
                    clean_io.grand_total(),
                    "{frames} frames, {policy}, {mode}: logical transfers must not move"
                );
            }
        }
    }
}

#[test]
fn zero_cache_frames_is_byte_identical_accounting() {
    let (_, io, disk) = sort_with(cached(0, CachePolicy::Lru, WriteMode::Through));
    assert!(!disk.cache_enabled(), "a zero-frame pool must not be built");
    assert_eq!(io.grand_total_physical(), io.grand_total(), "physical == logical without a pool");
    assert_eq!(io.total_cache_hits() + io.total_cache_misses(), 0);
    assert_eq!(io.total_cache_evictions() + io.total_cache_writebacks(), 0);
    assert_eq!(io.cache_hit_ratio(), None);
    let report = format!("{io}");
    assert!(!report.contains("CACHE"), "no cache lines in a pool-less report:\n{report}");
    assert!(!report.contains("PHYSICAL"), "no physical lines either:\n{report}");
}

#[test]
fn a_warm_pool_reads_physically_less_than_logically() {
    let (_, uncached, _) = sort_with(cached(0, CachePolicy::Lru, WriteMode::Through));
    for policy in [CachePolicy::Lru, CachePolicy::Clock] {
        let (_, io, disk) = sort_with(cached(64, policy, WriteMode::Back));
        assert!(disk.cache_enabled());
        assert_eq!(io.grand_total(), uncached.grand_total(), "{policy}: logical count fixed");
        assert!(
            phys_reads_total(&io) < io.total_reads(),
            "{policy}: warm pool must absorb re-reads: {} physical vs {} logical",
            phys_reads_total(&io),
            io.total_reads()
        );
        assert!(io.total_cache_hits() > 0, "{policy}: hits must be recorded");
        assert!(io.cache_hit_ratio().unwrap() > 0.0);
        // Flushed at the end: nothing the device doesn't have.
        assert!(
            io.grand_total_physical() < io.grand_total(),
            "{policy}: pool must cut total physical transfers"
        );
    }
}

fn sort_faulty_cached(plan: FaultPlan, retries: u32) -> Result<SortedDoc, Box<SortFailure>> {
    let mut stack = cached(4, CachePolicy::Lru, WriteMode::Back).faults(plan);
    if retries > 0 {
        stack = stack.retry(RetryPolicy::retries(retries));
    }
    let disk = stack.build().expect("faulty cached stack").disk;
    let input = stage_input(&disk, doc().as_bytes())
        .map_err(|e| SortFailure::classify(&disk, XmlError::Ext(e), &disk.stats().snapshot()))
        .map_err(Box::new)?;
    let spec = SortSpec::by_attribute("k");
    let sorter = Nexsort::new(disk.clone(), opts(), spec)
        .map_err(|e| SortFailure::classify(&disk, e, &disk.stats().snapshot()))
        .map_err(Box::new)?;
    sorter.try_sort_xml_extent(&input)
}

#[test]
fn write_back_does_not_mask_persistent_corruption() {
    // Bit flips on the *physical* write path persist on the device. A
    // write-back pool delays and coalesces those writes but must not hide
    // the corruption: the next physical read fails its checksum, retries
    // run out, and the failure names the phase and block.
    let mut plan = FaultPlan::new(5);
    for w in 30..50_000 {
        plan = plan.at_write(w, FaultKind::BitFlip);
    }
    let failure = match sort_faulty_cached(plan, 3) {
        Err(f) => f,
        Ok(_) => panic!("persistent corruption must not sort successfully under write-back"),
    };
    assert!(!matches!(failure.phase, IoPhase::Setup), "phase must be named: {failure}");
    assert!(failure.cat.is_some(), "failing category must be recorded: {failure}");
    let corrupt_block = match &failure.error {
        XmlError::Ext(ExtError::RetriesExhausted { attempts, last }) => {
            assert_eq!(*attempts, 4, "1 try + 3 retries");
            match **last {
                ExtError::ChecksumMismatch { block } => block,
                ref other => panic!("checksums must detect the corruption, got {other}"),
            }
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    };
    assert_eq!(
        failure.block,
        Some(corrupt_block),
        "SortFailure must name the block the checksum rejected: {failure}"
    );
}

#[test]
fn transient_faults_heal_identically_with_and_without_the_pool() {
    // The retry layer sits *below* the pool (physical ops), so a transient
    // rate that heals uncached must heal cached too, with the same output.
    let sort_under = |cache_frames: usize| -> Vec<u8> {
        let disk = cached(cache_frames, CachePolicy::Clock, WriteMode::Back)
            .faults(FaultPlan::transient(77, 0.01))
            .retry(RetryPolicy::retries(4))
            .build()
            .unwrap()
            .disk;
        let input = stage_input(&disk, doc().as_bytes()).unwrap();
        let sorted = Nexsort::new(disk.clone(), opts(), SortSpec::by_attribute("k"))
            .unwrap()
            .try_sort_xml_extent(&input)
            .unwrap_or_else(|f| panic!("cache_frames {cache_frames} must heal: {f}"));
        sorted.to_xml(false).unwrap()
    };
    assert_eq!(sort_under(0), sort_under(8), "pooled and pool-less outputs agree under faults");
}
