//! Crash-point sweep over checkpointed sorts (ISSUE: robustness).
//!
//! The contract under test:
//!
//! 1. for *every* physical I/O index `N` of a small checkpointed sort --
//!    including a striped configuration with a write-back pool -- crashing at
//!    `N`, thawing, and resuming yields output byte-identical to the
//!    uninterrupted run;
//! 2. a resume never redoes a committed merge pass: the resumed run's own
//!    merges plus the journal-committed passes it skipped equal the
//!    uninterrupted run's pass count, and the resume's scratch I/O never
//!    exceeds the full sort's;
//! 3. the disk's liveness check stays clean across crash -> recover ->
//!    resume (no transfer touches a block recovery freed or never
//!    allocated);
//! 4. a corrupted journal surfaces as a structured `ExtError`, never as a
//!    silent wrong resume.

use std::rc::Rc;

use proptest::prelude::*;

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::stage_input;
use nexsort_extmem::{
    recover, CachePolicy, CrashController, CrashPlan, Disk, DiskBuilder, ExtError, Extent, IoCat,
    Journal, JournalRecord, WriteMode,
};
use nexsort_xml::{SortSpec, XmlError};

// 256-byte blocks: big enough for the journal header to self-describe a
// 24-block extent (8 magic + 4 count + 24 * 8 ids + 8 crc = 212 bytes),
// small enough that a 300-element document still degenerates into enough
// incomplete runs for intermediate merge passes.
const BLOCK: usize = 256;
const JOURNAL_BLOCKS: usize = 24;

/// A flat document: under `degeneration` it spills incomplete runs and needs
/// both intermediate merge passes and a final merge, so crash points land in
/// every journalled phase (scan, per-pass commits, final commit).
fn flat_doc(n: usize) -> String {
    let mut d = String::from("<root>");
    for i in 0..n {
        d.push_str(&format!("<item k=\"{:04}\" pad=\"xxxxxxxx\"/>", n - 1 - i));
    }
    d.push_str("</root>");
    d
}

fn opts() -> NexsortOptions {
    NexsortOptions {
        mem_frames: 8,
        degeneration: true,
        checkpoint: true,
        journal_blocks: JOURNAL_BLOCKS,
        ..Default::default()
    }
}

/// A disarmed crash-capable stack striped `stripe` ways; with `write_back`
/// it also carries an 8-frame write-back pool, so crash points fall while
/// data writes the journal describes exist only in dirty frames.
fn make_disk(stripe: usize, write_back: bool) -> (Rc<Disk>, CrashController) {
    let mut b = DiskBuilder::new(BLOCK).stripe(stripe).crash(CrashPlan::Disarmed);
    if write_back {
        b = b.cache(8, CachePolicy::Lru, WriteMode::Back);
    }
    let stack = b.build().unwrap();
    (stack.disk, stack.crash.unwrap())
}

/// Stage `doc` and push it through the pool onto the device, so every
/// crash point falls inside the sort, never inside staging.
fn stage(disk: &Rc<Disk>, doc: &str) -> Extent {
    let input = stage_input(disk, doc.as_bytes()).unwrap();
    disk.cache_flush_all().unwrap();
    input
}

fn is_simulated_crash(e: &XmlError) -> bool {
    e.to_string().contains("simulated crash")
}

/// The uninterrupted run every crash point is checked against.
struct Baseline {
    xml: Vec<u8>,
    /// `degenerate_merges` of the full run.
    merges: u32,
    /// Scratch (merge) I/O of the full run.
    scratch: u64,
    /// Physical I/Os spent staging the input (crash points start here).
    stage_ios: u64,
    /// Physical I/Os once the sort returned (crash points end here).
    sort_ios: u64,
}

fn baseline(
    stripe: usize,
    write_back: bool,
    o: &NexsortOptions,
    doc: &str,
    spec: &SortSpec,
) -> Baseline {
    let (disk, ctl) = make_disk(stripe, write_back);
    let input = stage(&disk, doc);
    let stage_ios = ctl.ios();
    let nx = Nexsort::new(disk, o.clone(), spec.clone()).unwrap();
    let sorted = nx.sort_xml_extent(&input).unwrap();
    let sort_ios = ctl.ios();
    Baseline {
        xml: sorted.to_xml(false).unwrap(),
        merges: sorted.report.degenerate_merges,
        scratch: sorted.report.io.total(IoCat::SortScratch),
        stage_ios,
        sort_ios,
    }
}

/// Crash at physical I/O `n`, thaw, resume, and check the resumed document
/// against `base`. Returns whether the journal made the resume a real resume
/// (as opposed to the crash landing before any journal header survived).
fn crash_resume_check(
    stripe: usize,
    write_back: bool,
    o: &NexsortOptions,
    doc: &str,
    spec: &SortSpec,
    base: &Baseline,
    n: u64,
) -> bool {
    let (disk, ctl) = make_disk(stripe, write_back);
    let input = stage(&disk, doc);
    assert_eq!(ctl.ios(), base.stage_ios, "staging must be deterministic");
    ctl.arm_after(n);
    let nx = Nexsort::new(disk.clone(), o.clone(), spec.clone()).unwrap();
    match nx.sort_xml_extent(&input) {
        Ok(sorted) => {
            // The crash point fell beyond the sort's own I/O; nothing to
            // recover, but the output must still be intact.
            ctl.thaw();
            assert_eq!(sorted.to_xml(false).unwrap(), base.xml, "crash point {n}");
            false
        }
        Err(e) => {
            assert!(is_simulated_crash(&e), "crash point {n}: unexpected error {e}");
            assert!(ctl.crashed(), "crash point {n} must have fired");
            ctl.thaw();
            let before = disk.stats().snapshot();
            let resumed = nx
                .resume_xml_extent(&input)
                .unwrap_or_else(|e| panic!("resume after crash at {n} failed: {e}"));
            let resume_io = disk.stats().snapshot().since(&before);
            assert_eq!(
                resumed.to_xml(false).unwrap(),
                base.xml,
                "crash at {n}: resumed output is not bit-identical"
            );
            let r = &resumed.report;
            if r.resumed {
                // Merge-pass accounting: work done now + committed work
                // skipped = the uninterrupted run's passes, exactly.
                assert_eq!(
                    r.degenerate_merges + r.committed_passes_skipped,
                    base.merges,
                    "crash at {n}: a committed pass was redone or lost"
                );
                // ... and never *more* scratch I/O than sorting from scratch.
                assert!(
                    resume_io.total(IoCat::SortScratch) <= base.scratch,
                    "crash at {n}: resume spent {} scratch transfers, full sort {}",
                    resume_io.total(IoCat::SortScratch),
                    base.scratch
                );
                if r.committed_passes_skipped == base.merges {
                    assert_eq!(
                        resume_io.total(IoCat::SortScratch),
                        0,
                        "crash at {n}: a fully committed sort must reattach with no merge I/O"
                    );
                }
            }
            r.resumed
        }
    }
}

fn sweep_every_crash_point(stripe: usize, write_back: bool) {
    let doc = flat_doc(300);
    let o = opts();
    let spec = SortSpec::by_attribute("k");
    let base = baseline(stripe, write_back, &o, &doc, &spec);
    assert!(base.merges >= 2, "workload too small: need intermediate passes plus a final merge");
    let mut real_resumes = 0u64;
    for n in base.stage_ios..base.sort_ios {
        if crash_resume_check(stripe, write_back, &o, &doc, &spec, &base, n) {
            real_resumes += 1;
        }
    }
    assert!(
        real_resumes > 0,
        "the sweep never exercised a journalled resume: crash range {}..{}",
        base.stage_ios,
        base.sort_ios
    );
}

#[test]
fn crash_sweep_synchronous_single_device() {
    sweep_every_crash_point(1, false);
}

#[test]
fn crash_sweep_write_back_and_striping() {
    sweep_every_crash_point(4, true);
}

#[test]
fn resume_on_a_finished_sort_reattaches_without_merge_io() {
    let doc = flat_doc(300);
    let o = opts();
    let spec = SortSpec::by_attribute("k");
    let disk = Disk::new_mem(BLOCK);
    let input = stage_input(&disk, doc.as_bytes()).unwrap();
    let nx = Nexsort::new(disk.clone(), o, spec).unwrap();
    let sorted = nx.sort_xml_extent(&input).unwrap();
    let expect = sorted.to_xml(false).unwrap();
    let merges = sorted.report.degenerate_merges;
    drop(sorted);

    let before = disk.stats().snapshot();
    let resumed = nx.resume_xml_extent(&input).unwrap();
    let resume_io = disk.stats().snapshot().since(&before);
    assert_eq!(resumed.to_xml(false).unwrap(), expect);
    assert!(resumed.report.resumed);
    assert_eq!(resumed.report.degenerate_merges, 0, "no merges may run on reattach");
    assert_eq!(resumed.report.committed_passes_skipped, merges);
    assert_eq!(resume_io.total(IoCat::SortScratch), 0);
    assert_eq!(resume_io.total(IoCat::RunWrite), 0, "reattach must not rewrite runs");
    assert!(
        resume_io.total(IoCat::InputRead) > 0,
        "the dictionary rebuild is recovery's one repeated read"
    );
    let summary = resumed.report.summary();
    assert!(summary.contains("resumed"), "{summary}");
}

#[test]
fn standard_mode_crash_resume_restarts_and_matches() {
    // Without degeneration the journal seals only start and finish: any
    // mid-sort crash must resume by redoing the sort -- and still match.
    let mut doc = String::from("<catalog>");
    for g in 0..6 {
        doc.push_str(&format!("<group k=\"{:02}\">", 5 - g));
        for i in 0..25 {
            doc.push_str(&format!("<item k=\"{:03}\"><sub k=\"b\"/><sub k=\"a\"/></item>", 24 - i));
        }
        doc.push_str("</group>");
    }
    doc.push_str("</catalog>");
    let o = NexsortOptions {
        mem_frames: 10,
        checkpoint: true,
        journal_blocks: JOURNAL_BLOCKS,
        ..Default::default()
    };
    let spec = SortSpec::by_attribute("k");
    let (disk, ctl) = make_disk(1, false);
    let input = stage(&disk, &doc);
    let stage_ios = ctl.ios();
    let nx = Nexsort::new(disk, o.clone(), spec.clone()).unwrap();
    let sorted = nx.sort_xml_extent(&input).unwrap();
    let sort_ios = ctl.ios();
    let expect = sorted.to_xml(false).unwrap();
    drop(sorted);

    for n in (stage_ios..sort_ios).step_by(5) {
        let (disk, ctl) = make_disk(1, false);
        let input = stage(&disk, &doc);
        ctl.arm_after(n);
        let nx = Nexsort::new(disk, o.clone(), spec.clone()).unwrap();
        let Err(e) = nx.sort_xml_extent(&input) else {
            continue; // crash point beyond this attempt's I/O
        };
        assert!(is_simulated_crash(&e), "crash at {n}: {e}");
        ctl.thaw();
        let resumed = nx
            .resume_xml_extent(&input)
            .unwrap_or_else(|e| panic!("standard-mode resume at {n} failed: {e}"));
        assert_eq!(resumed.to_xml(false).unwrap(), expect, "crash at {n}");
    }
}

/// A flat document whose records switch between short and long every 25
/// items, so its incomplete runs differ in length (a run of short records
/// carries more key-path bytes) and the merge plan's shortest-first choice
/// is not the head of the pending list.
fn uneven_doc(n: usize) -> String {
    let mut d = String::from("<root>");
    for i in 0..n {
        let pad = if (i / 25) % 2 == 0 { 1 } else { 40 };
        d.push_str(&format!("<item k=\"{:04}\" pad=\"{}\"/>", n - 1 - i, "x".repeat(pad)));
    }
    d.push_str("</root>");
    d
}

/// The merge passes the journal on `disk` committed, in order: each one's
/// consumed runs and its output.
fn merge_history(disk: &Rc<Disk>) -> Vec<(Vec<u32>, u32)> {
    let records = Journal::locate(disk).unwrap().expect("a journal").replay().unwrap();
    let passes = records.into_iter().filter_map(|rec| match rec {
        JournalRecord::MergePassCommitted { consumed, output, .. } => Some((consumed, output)),
        _ => None,
    });
    passes.collect()
}

#[test]
fn a_crash_between_merge_passes_resumes_the_same_plan() {
    let doc = uneven_doc(400);
    let o = opts();
    let spec = SortSpec::by_attribute("k");
    let (disk, ctl) = make_disk(1, false);
    let input = stage(&disk, &doc);
    let (stage_ios, before) = (ctl.ios(), disk.stats().snapshot());
    let nx = Nexsort::new(disk.clone(), o.clone(), spec.clone()).unwrap();
    let sorted = nx.sort_xml_extent(&input).unwrap();
    let full_io = disk.stats().snapshot().since(&before);
    let (sort_ios, merges, xml) =
        (ctl.ios(), sorted.report.degenerate_merges, sorted.to_xml(false).unwrap());
    drop(sorted);
    let history = merge_history(&disk);

    // The committed passes did not all take the head of the pending list:
    // the runs are uneven enough for the plan to choose.
    let mut pending = Vec::new();
    let mut off_head = 0;
    for rec in Journal::locate(&disk).unwrap().expect("journal").replay().unwrap() {
        match rec {
            JournalRecord::ScanDone { pending: p, .. } => pending = p,
            JournalRecord::MergePassCommitted { output, consumed, .. } => {
                off_head += usize::from(pending[..consumed.len()] != consumed[..]);
                pending.retain(|t| !consumed.contains(t));
                pending.push(output);
            }
            _ => {}
        }
    }
    assert!(merges >= 3 && off_head > 0, "{merges} merges, {off_head} off the list head");

    // Crash at every point: the resume must make the uninterrupted run's
    // merges, run for run, and produce its output. The first crash point
    // after pass j's commit falls between passes; from there the crashed
    // plus the resumed transfers equal the uninterrupted ones in every
    // category but the resume's own overhead (the dictionary's input
    // re-read, the journal).
    let mut last_skipped = 0;
    for n in stage_ios..sort_ios {
        let (disk, ctl) = make_disk(1, false);
        let input = stage(&disk, &doc);
        ctl.arm_after(n);
        let before = disk.stats().snapshot();
        let nx = Nexsort::new(disk.clone(), o.clone(), spec.clone()).unwrap();
        let Err(e) = nx.sort_xml_extent(&input) else { continue };
        assert!(is_simulated_crash(&e), "crash at {n}: {e}");
        ctl.thaw();
        let crashed = disk.stats().snapshot();
        let resumed = nx.resume_xml_extent(&input).unwrap();
        let resume_io = disk.stats().snapshot().since(&crashed);
        let crashed = crashed.since(&before);
        assert_eq!(resumed.to_xml(false).unwrap(), xml, "crash at {n}");
        assert_eq!(merge_history(&disk), history, "crash at {n}: the merges differ");
        let skipped = resumed.report.committed_passes_skipped;
        if skipped == last_skipped || skipped >= merges {
            continue;
        }
        last_skipped = skipped;
        assert_eq!(resumed.report.degenerate_merges + skipped, merges, "crash at {n}");
        for cat in IoCat::ALL.into_iter().filter(|&c| c != IoCat::InputRead && c != IoCat::Journal)
        {
            assert_eq!(
                crashed.total(cat) + resume_io.total(cat),
                full_io.total(cat),
                "crash at {n}, after pass {skipped}: {cat} transfers"
            );
        }
    }
    assert_eq!(last_skipped, merges - 1, "every pass boundary was crashed at");
}

#[test]
fn liveness_check_stays_clean_across_crash_and_resume() {
    // purge_volatile, the journal replay and the free-map reconciliation
    // touch blocks outside the normal read/write path; a transfer to a block
    // they freed shows up as BlockNotLive here.
    let doc = flat_doc(300);
    let o = opts();
    let spec = SortSpec::by_attribute("k");
    let base = baseline(4, true, &o, &doc, &spec);
    let mid = base.stage_ios + (base.sort_ios - base.stage_ios) / 2;

    let (disk, ctl) = make_disk(4, true);
    let input = stage(&disk, &doc);
    ctl.arm_after(mid);
    let nx = Nexsort::new(disk.clone(), o, spec).unwrap();
    let e = match nx.sort_xml_extent(&input) {
        Err(e) => e,
        Ok(_) => panic!("mid-sort crash must fire"),
    };
    assert!(is_simulated_crash(&e), "{e}");
    ctl.thaw();
    let resumed = nx.resume_xml_extent(&input).expect("liveness-checked resume must stay clean");
    assert_eq!(resumed.to_xml(false).unwrap(), base.xml);
}

#[test]
fn a_corrupted_journal_is_a_structured_error_not_a_wrong_resume() {
    let doc = flat_doc(120);
    let o = opts();
    let spec = SortSpec::by_attribute("k");
    let disk = Disk::new_mem(BLOCK);
    let input = stage_input(&disk, doc.as_bytes()).unwrap();
    let nx = Nexsort::new(disk.clone(), o, spec).unwrap();
    nx.sort_xml_extent(&input).unwrap();

    // Flip one byte inside the first committed record on the device.
    let journal = Journal::locate(&disk).unwrap().expect("a checkpointed sort leaves a journal");
    let rec_block = journal.blocks()[1];
    drop(journal);
    let mut buf = vec![0u8; BLOCK];
    disk.journal_read(rec_block, &mut buf).unwrap();
    buf[2] ^= 0x40;
    disk.journal_write(rec_block, &buf).unwrap();

    let err = match recover(&disk, input.blocks()) {
        Err(e) => e,
        Ok(_) => panic!("recovery must reject a corrupted journal"),
    };
    assert!(matches!(err, ExtError::JournalCorrupt { .. }), "expected JournalCorrupt, got {err}");
    let resume_err = match nx.resume_xml_extent(&input) {
        Err(e) => e,
        Ok(_) => panic!("resume must refuse a corrupted journal too"),
    };
    assert!(resume_err.to_string().contains("journal corrupt"), "{resume_err}");
}

// ---------- satellite: randomized crash sweep ----------

/// A deterministic pseudo-random document from `(height, fanout, seed)`.
fn gen_doc(height: u32, fanout: usize, seed: u64) -> String {
    fn next_key(state: &mut u64) -> u32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) % 1000) as u32
    }
    fn emit(out: &mut String, level: u32, height: u32, fanout: usize, state: &mut u64) {
        let name = (b'a' + (level % 26) as u8) as char;
        out.push_str(&format!("<{name} k=\"{:03}\">", next_key(state)));
        if level < height {
            for _ in 0..fanout {
                emit(out, level + 1, height, fanout, state);
            }
        }
        out.push_str(&format!("</{name}>"));
    }
    let mut out = String::from("<doc>");
    let mut state = seed | 1;
    for _ in 0..fanout {
        emit(&mut out, 1, height, fanout, &mut state);
    }
    out.push_str("</doc>");
    out
}

fn random_doc_crash_sweep(doc: &str, stride: u64) -> Result<(), TestCaseError> {
    let o = opts();
    let spec = SortSpec::by_attribute("k");
    let base = baseline(1, false, &o, doc, &spec);
    let mut n = base.stage_ios;
    while n < base.sort_ios {
        crash_resume_check(1, false, &o, doc, &spec, &base, n);
        n += stride;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: random (height, fanout, seed) documents, crash at every
    /// `stride`-th I/O, resume, and compare with the uninterrupted run.
    #[test]
    fn random_documents_survive_crash_at_any_point(
        height in 1u32..4,
        fanout in 2usize..5,
        seed in any::<u64>(),
        stride in 3u64..10,
    ) {
        let doc = gen_doc(height, fanout, seed);
        random_doc_crash_sweep(&doc, stride)?;
    }
}
