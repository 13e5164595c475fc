//! Graceful degeneration into external merge sort (Section 3.2).
//!
//! The published algorithm wastes a pass on flat inputs: it pushes the whole
//! document through the external data stack only to pop it again for the
//! root sort. The fix the paper sketches: "whenever an incomplete subtree
//! has filled internal memory, we sort it in internal memory and create an
//! *incomplete sorted run* ... incomplete sorted runs for the same subtree
//! must be merged to produce a regular, complete sorted run."
//!
//! This module implements that variant. The scanned frontier is buffered in
//! memory (no data-stack traffic at all):
//!
//! * a complete subtree that is still entirely buffered and exceeds the
//!   threshold is sorted in memory and collapsed to a pointer -- the normal
//!   NEXSORT move, now free of stack I/O;
//! * when the buffer fills mid-subtree, the buffered fragment is sorted by
//!   key path (seeded with the open ancestors' keys) and spilled as an
//!   incomplete run, attached to the deepest element that owns the whole
//!   fragment;
//! * when an element whose subtree was split across incomplete runs closes,
//!   its runs are promoted upward; the root's close merges all surviving
//!   incomplete runs -- for a flat document this is *exactly* external merge
//!   sort's pass structure, which is the point.
//!
//! Restriction: deferred (end-tag-resolved) keys are not supported here; the
//! caller falls back to the standard algorithm for such specs.

use std::rc::Rc;
use std::time::Instant;

use nexsort_baseline::{merge_pass, merge_pathed_runs, run_lens, PathedArena, RecSource};
use nexsort_extmem::{
    Disk, IoCat, IoPhase, Journal, JournalRecord, MemoryBudget, MergePlan, RecoveredState, RunId,
    RunStore, SliceReader,
};
use nexsort_xml::{
    sorts_children_of, EncodedForest, EncodedPath, KeyValue, PtrRec, Rec, RecKind, Result,
    SortSpec, XmlError,
};

use crate::checkpoint::{journal_stats, restore_report, seal_records};
use crate::options::NexsortOptions;
use crate::report::SortReport;

struct Frame {
    level: u32,
    /// Index of this element's record in `Degenerate::spans`; `None` once a
    /// flush has spilled it into an incomplete run.
    start_idx: Option<usize>,
    /// Incomplete runs whose contents lie entirely within this subtree.
    pendings: Vec<RunId>,
    fanout: u64,
}

struct Degenerate<'a> {
    opts: &'a NexsortOptions,
    budget: &'a MemoryBudget,
    store: Rc<RunStore>,
    threshold: u64,
    capacity: u64,
    /// The staged records' bytes, back to back, in document order.
    staging: Vec<u8>,
    /// Where each staged record starts in `staging`, and its level.
    spans: Vec<(usize, u32)>,
    frames: Vec<Frame>,
    /// The key-path components of the open elements, one per frame.
    open_path: EncodedPath,
    /// Owner depth of the current staging fragment (number of frames open
    /// when its first record was staged; 0 = the document itself).
    owner_depth: usize,
    /// Key-path prefix of the current fragment: the components of every
    /// element open when the fragment's first record was staged. Ancestors
    /// that close mid-fragment stay available here for path building.
    fragment_seed: EncodedPath,
    /// Incomplete runs owned above the root (the fragment holding the root's
    /// own start record).
    super_pendings: Vec<RunId>,
    root_run: Option<RunId>,
    root_has_ptrs: bool,
    /// Write-ahead journal when checkpointing is on: the scan seal and every
    /// merge pass commit go through here.
    journal: &'a mut Option<Journal>,
    /// Merge passes committed before this process started (resume only);
    /// continues the journal's pass numbering and the phase labels.
    pass_base: u32,
    /// Final-merge inputs whose discard must wait for the sort-done commit:
    /// until that commit lands, the last committed pending list still names
    /// them, so their blocks must stay allocated for a second crash.
    deferred_discards: Vec<RunId>,
    report: SortReport,
}

impl Degenerate<'_> {
    fn stage(&mut self, rec: &[u8], level: u32) {
        if self.spans.is_empty() {
            self.owner_depth = self.frames.len();
            self.fragment_seed = self.open_path.clone();
        }
        self.spans.push((self.staging.len(), level));
        self.staging.extend_from_slice(rec);
    }

    /// True if the key of a record at `level` is masked in its key path:
    /// under `--depth d` only elements at level `<= d` have their children
    /// reordered, exactly as [`nexsort_baseline::PathedAdapter`] masks.
    fn masked(&self, level: u32) -> bool {
        !sorts_children_of(self.opts.depth_limit, level.saturating_sub(1))
    }

    /// The bytes of staged record `k`.
    fn staged(&self, k: usize) -> &[u8] {
        let end = self.spans.get(k + 1).map_or(self.staging.len(), |s| s.0);
        &self.staging[self.spans[k].0..end]
    }

    /// Spill the staging buffer as one incomplete sorted run.
    fn flush(&mut self) -> Result<()> {
        if self.spans.is_empty() {
            return Ok(());
        }
        // Seed the key-path builder with the fragment's opening context:
        // every ancestor of the first staged record. Ancestors that closed
        // mid-fragment are covered by the seed; elements opened later have
        // their own records in the staging buffer.
        let mut path = std::mem::take(&mut self.fragment_seed);
        let mut arena = PathedArena::new();
        let mut pathed = Vec::new();
        for k in 0..self.spans.len() {
            let (rec, level) = (self.staged(k), self.spans[k].1 as usize);
            if level == 0 || level > path.depth() + 1 {
                return Err(XmlError::Record(format!(
                    "staged record at level {level} jumps past path depth {}",
                    path.depth()
                )));
            }
            path.truncate(level - 1);
            path.push_encoded(rec, self.masked(self.spans[k].1))?;
            pathed.clear();
            let path_len = path.write_prefix(&mut pathed)?;
            pathed.extend_from_slice(rec);
            arena.push(&pathed, path_len)?;
        }
        self.staging.clear();
        self.spans.clear();
        // Spilling an incomplete run is run formation.
        let run = self.store.disk().in_phase(IoPhase::RunFormation, || -> Result<RunId> {
            let mut w = self.store.create(self.budget, IoCat::SortScratch)?;
            arena.spill(&mut w)?;
            Ok(w.finish()?)
        })?;
        self.report.incomplete_runs += 1;
        match self.owner_depth {
            0 => self.super_pendings.push(run),
            d => self.frames[d - 1].pendings.push(run),
        }
        for f in &mut self.frames {
            f.start_idx = None;
        }
        Ok(())
    }

    /// Multi-level merge of incomplete runs into the complete root run, in
    /// the order the [`MergePlan`] picks.
    fn merge_all(&mut self, runs: Vec<RunId>) -> Result<RunId> {
        let fan_in = self.budget.free_frames().saturating_sub(1).max(2);
        let mut plan = MergePlan::new(fan_in, run_lens(&self.store, &runs)?);
        let (store, budget, cat) = (&self.store, self.budget, IoCat::SortScratch);
        plan.merge_down(|n, group| {
            merge_pass(store, budget, self.journal, self.pass_base + n, group, cat, u64::MAX)
        })?;
        // Final merge strips key paths: the complete, sorted root run.
        let runs = plan.runs();
        let final_run = store.disk().in_phase(IoPhase::FinalMerge, || -> Result<RunId> {
            let (final_run, _) =
                merge_pathed_runs(store, budget, &runs, cat, IoCat::RunWrite, u64::MAX, |p| {
                    self.root_has_ptrs |= p.is_run_ptr();
                    p.rec_bytes()
                })?;
            if self.journal.is_some() {
                // The final run commits as part of `SortDone`; until that lands,
                // the last committed pending list still names these inputs, so
                // their discard is deferred past the commit.
                self.deferred_discards = runs;
            } else {
                runs.iter().try_for_each(|&id| store.discard(id))?;
            }
            Ok(final_run)
        })?;
        self.report.degenerate_merges += plan.merges() + 1;
        Ok(final_run)
    }

    /// Seal the scan phase: every run now on disk plus the pending-merge
    /// order becomes durable in one committed batch. From here on, a crash
    /// resumes into the merge loop instead of rescanning the input.
    fn checkpoint_scan_done(&mut self, pending: &[RunId]) -> Result<()> {
        let Some(j) = self.journal.as_mut() else {
            return Ok(());
        };
        let mut recs = seal_records(&self.store)?;
        recs.push(JournalRecord::ScanDone {
            pending: pending.iter().map(|r| r.0).collect(),
            stats: journal_stats(&self.report),
        });
        j.checkpoint(&recs)?;
        Ok(())
    }

    fn close_top(&mut self) -> Result<()> {
        let Some(frame) = self.frames.pop() else {
            return Err(XmlError::Record("close with no open frame".into()));
        };
        self.open_path.truncate(self.frames.len());
        self.report.max_fanout = self.report.max_fanout.max(frame.fanout);
        self.owner_depth = self.owner_depth.min(self.frames.len());
        let is_root = self.frames.is_empty();
        match frame.start_idx {
            Some(i) => {
                debug_assert!(frame.pendings.is_empty(), "unflushed frame cannot own runs");
                let start = self.spans[i].0;
                let size = (self.staging.len() - start) as u64;
                let within_depth =
                    sorts_children_of(self.opts.depth_limit, frame.level.saturating_sub(1));
                if (size > self.threshold && within_depth) || is_root {
                    // The whole subtree is still buffered: a pure in-memory
                    // NEXSORT collapse with zero stack I/O, sorted as bytes.
                    self.report.subtree_sorts += 1;
                    self.report.internal_sorts += 1;
                    self.report.sum_sorted_bytes += size;
                    self.report.max_sort_bytes = self.report.max_sort_bytes.max(size);
                    let forest = EncodedForest::index(&self.staging[start..])?;
                    self.report.sum_sorted_records += forest.len() as u64;
                    if is_root {
                        self.root_has_ptrs = forest.has_run_ptrs();
                    }
                    let root = match forest.first() {
                        Some((RecKind::Elem, l, key, seq)) if l == frame.level => PtrRec {
                            level: l,
                            run: 0,
                            key: KeyValue::decode(&mut SliceReader::new(key))?,
                            seq,
                        },
                        other => {
                            return Err(XmlError::Record(format!(
                                "buffered subtree does not start at level {}: {other:?}",
                                frame.level
                            )))
                        }
                    };
                    let depth_limit = self.opts.depth_limit;
                    let run = self.store.disk().in_phase(IoPhase::RunFormation, || {
                        let mut w = self.store.create(self.budget, IoCat::RunWrite)?;
                        forest.write_sorted(depth_limit, &mut w)?;
                        Ok::<_, XmlError>(w.finish()?)
                    })?;
                    self.staging.truncate(start);
                    self.spans.truncate(i);
                    if is_root {
                        self.root_run = Some(run);
                    } else {
                        let mut ptr = Vec::new();
                        Rec::RunPtr(PtrRec { run: run.0, ..root }).encode(&mut ptr)?;
                        self.stage(&ptr, frame.level);
                    }
                }
                // else: small and fully buffered -- leave it alone.
                Ok(())
            }
            None => {
                if is_root {
                    // Finalize the document: spill the remainder, seal the
                    // scan, merge all incomplete runs into the complete
                    // root run.
                    self.flush()?;
                    let mut all = std::mem::take(&mut self.super_pendings);
                    all.extend(frame.pendings);
                    self.checkpoint_scan_done(&all)?;
                    self.root_run = Some(self.merge_all(all)?);
                } else {
                    // Split subtree: its pieces live in ancestor-owned runs;
                    // promote its own runs upward.
                    let Some(parent) = self.frames.last_mut() else {
                        return Err(XmlError::Record("non-root frame has no parent".into()));
                    };
                    parent.pendings.extend(frame.pendings);
                }
                Ok(())
            }
        }
    }
}

/// The degeneration-mode sorting phase. Same contract as the standard one.
pub(crate) fn sort_degenerate(
    disk: &Rc<Disk>,
    opts: &NexsortOptions,
    spec: &SortSpec,
    src: &mut dyn RecSource,
    budget: &MemoryBudget,
    journal: &mut Option<Journal>,
) -> Result<(Rc<RunStore>, RunId, SortReport)> {
    debug_assert!(!spec.has_deferred_keys());
    let start_time = Instant::now();
    let stats = disk.stats();
    let io_before = stats.snapshot();
    let block_size = disk.block_size();
    let threshold = opts.threshold_bytes(block_size);
    let mut report = SortReport::new(block_size, opts.mem_frames, threshold);

    // Staging capacity: everything except a writer frame and one slack frame.
    let staging_frames = budget.free_frames().saturating_sub(2);
    if staging_frames < 2 {
        return Err(XmlError::Ext(nexsort_extmem::ExtError::BudgetExceeded {
            requested: 4,
            free: budget.free_frames(),
        }));
    }
    let mut staging_guard = budget.reserve(staging_frames).map_err(XmlError::from)?;
    let capacity = staging_frames as u64 * block_size as u64;

    let store = RunStore::new(disk.clone());
    store.set_parity_group(opts.parity_group);
    let mut st = Degenerate {
        opts,
        budget,
        store,
        threshold,
        capacity,
        staging: Vec::new(),
        spans: Vec::new(),
        frames: Vec::new(),
        open_path: EncodedPath::new(),
        owner_depth: 0,
        fragment_seed: EncodedPath::new(),
        super_pendings: Vec::new(),
        root_run: None,
        root_has_ptrs: false,
        journal,
        pass_base: 0,
        deferred_discards: Vec::new(),
        report,
    };

    // Records arrive as the builder's bytes and are staged as they are.
    let mut rec = Vec::new();
    loop {
        rec.clear();
        let Some((kind, lvl)) = src.next_encoded(&mut rec)? else {
            break;
        };
        if kind == RecKind::KeyPatch {
            return Err(XmlError::Record(
                "deferred keys are not supported in degeneration mode".into(),
            ));
        }
        while st.frames.len() as u32 >= lvl {
            st.close_top()?;
        }
        let encoded_len = rec.len() as u64;
        if st.staging.len() as u64 + encoded_len > st.capacity && !st.spans.is_empty() {
            st.flush()?;
        }
        match kind {
            RecKind::Elem => {
                if lvl as usize != st.frames.len() + 1 {
                    return Err(XmlError::Record(format!(
                        "level jump: element at level {lvl} under {} open elements",
                        st.frames.len()
                    )));
                }
                if st.root_run.is_some() {
                    return Err(XmlError::Record("records after the root closed".into()));
                }
                if let Some(parent) = st.frames.last_mut() {
                    parent.fanout += 1;
                }
                st.open_path.push_encoded(&rec, st.masked(lvl))?;
                st.frames.push(Frame {
                    level: lvl,
                    start_idx: Some(st.spans.len()),
                    pendings: Vec::new(),
                    fanout: 0,
                });
            }
            RecKind::Text | RecKind::RunPtr => {
                if lvl as usize != st.frames.len() + 1 || st.frames.is_empty() {
                    return Err(XmlError::Record(format!(
                        "level jump: leaf record at level {lvl} under {} open elements",
                        st.frames.len()
                    )));
                }
                if let Some(top) = st.frames.last_mut() {
                    top.fanout += 1;
                }
            }
            RecKind::KeyPatch => {
                return Err(XmlError::Record("key patch in the degenerate input stream".into()))
            }
        }
        st.report.n_records += 1;
        st.report.max_level = st.report.max_level.max(lvl);
        st.report.input_bytes += encoded_len;
        st.stage(&rec, lvl);
    }
    while !st.frames.is_empty() {
        if st.frames.len() == 1 && st.frames[0].start_idx.is_none() {
            // The root's close will merge runs: spill the remainder and
            // release the staging frames so the merge fan-in has the memory.
            st.flush()?;
            staging_guard.release(usize::MAX);
        }
        st.close_top()?;
    }
    drop(staging_guard);
    let root_run =
        st.root_run.ok_or_else(|| XmlError::Record("empty input: no root element".into()))?;

    st.report.root_flat = !st.root_has_ptrs;
    finish_degenerate(&mut st, root_run)?;
    report = st.report;
    report.io = stats.snapshot().since(&io_before);
    report.elapsed = start_time.elapsed();
    Ok((st.store, root_run, report))
}

/// Shared tail of a fresh or resumed degenerate sort: commit `SortDone`
/// (sealing the entire surviving run tree), then release the final merge's
/// deferred inputs -- in that order, so a crash between the two leaves every
/// committed block allocated.
fn finish_degenerate(st: &mut Degenerate<'_>, root_run: RunId) -> Result<()> {
    if let Some(j) = st.journal.as_mut() {
        let consumed: Vec<u32> = st.deferred_discards.iter().map(|r| r.0).collect();
        let mut recs = crate::checkpoint::seal_records_except(&st.store, &consumed)?;
        // The final merge's inputs are journalled as discarded (not
        // re-sealed): a crash after this commit must not resurrect them.
        recs.extend(consumed.into_iter().map(|token| JournalRecord::RunDiscarded { token }));
        recs.push(JournalRecord::SortDone {
            root: root_run.0,
            root_flat: st.report.root_flat,
            stats: journal_stats(&st.report),
        });
        j.checkpoint(&recs)?;
    }
    for id in std::mem::take(&mut st.deferred_discards) {
        st.store.discard(id)?;
    }
    Ok(())
}

/// Re-enter the merge loop from journal-recovered state: the scan is sealed,
/// the pending order and committed pass count are known, and every surviving
/// run is already in the restored store. Committed passes are never re-run;
/// the pass counter, phase labels, and fan-in continue exactly where the
/// interrupted process left off, so the remaining passes -- and the final
/// output bytes -- are identical to an uninterrupted run's.
pub(crate) fn resume_degenerate(
    disk: &Rc<Disk>,
    opts: &NexsortOptions,
    state: RecoveredState,
    journal: &mut Option<Journal>,
    budget: &MemoryBudget,
) -> Result<(Rc<RunStore>, RunId, SortReport)> {
    let start_time = Instant::now();
    let stats = disk.stats();
    let io_before = stats.snapshot();
    let block_size = disk.block_size();
    let threshold = opts.threshold_bytes(block_size);
    let mut report = SortReport::new(block_size, opts.mem_frames, threshold);
    restore_report(&state.stats, &mut report);
    // Merge passes run *here* are counted fresh; the interrupted process's
    // committed passes are reported as skipped, never redone.
    report.degenerate_merges = 0;
    report.resumed = true;
    report.committed_passes_skipped = state.committed_passes;
    let pending: Vec<RunId> = state.pending.iter().flatten().map(|&t| RunId(t)).collect();
    if pending.is_empty() {
        return Err(XmlError::Record("journal seals the scan but names no pending runs".into()));
    }
    let store = RunStore::restore(disk.clone(), state.runs);
    store.set_parity_group(opts.parity_group);
    let mut st = Degenerate {
        opts,
        budget,
        store,
        threshold,
        capacity: 0,
        staging: Vec::new(),
        spans: Vec::new(),
        frames: Vec::new(),
        open_path: EncodedPath::new(),
        owner_depth: 0,
        fragment_seed: EncodedPath::new(),
        super_pendings: Vec::new(),
        root_run: None,
        root_has_ptrs: false,
        journal,
        pass_base: state.committed_passes,
        deferred_discards: Vec::new(),
        report,
    };
    let root_run = st.merge_all(pending)?;
    st.report.root_flat = !st.root_has_ptrs;
    finish_degenerate(&mut st, root_run)?;
    let mut report = st.report;
    report.io = stats.snapshot().since(&io_before);
    report.elapsed = start_time.elapsed();
    Ok((st.store, root_run, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::NexsortOptions;
    use crate::sorter::Nexsort;
    use nexsort_baseline::{sorted_dom, stage_input};
    use nexsort_xml::{events_to_dom, parse_dom, SortSpec};

    fn spec() -> SortSpec {
        SortSpec::by_attribute("k")
    }

    fn flat_doc(n: usize) -> String {
        let mut doc = String::from("<root>");
        for i in (0..n).rev() {
            doc.push_str(&format!("<item k=\"{i:06}\"/>"));
        }
        doc.push_str("</root>");
        doc
    }

    fn deep_doc() -> String {
        let mut doc = String::from("<root>");
        for g in 0..12 {
            doc.push_str(&format!("<group k=\"{:02}\">", 11 - g));
            for i in 0..40 {
                doc.push_str(&format!(
                    "<item k=\"{:03}\"><sub k=\"z\">pad-{i:04}</sub><sub k=\"a\"/></item>",
                    39 - i
                ));
            }
            doc.push_str("</group>");
        }
        doc.push_str("</root>");
        doc
    }

    fn sort(doc: &str, degeneration: bool, mem: usize) -> crate::output::SortedDoc {
        let disk = Disk::new_mem(128);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let opts = NexsortOptions { degeneration, mem_frames: mem, ..Default::default() };
        Nexsort::new(disk, opts, spec()).unwrap().sort_xml_extent(&input).unwrap()
    }

    #[test]
    fn degeneration_sorts_flat_documents_correctly() {
        let doc = flat_doc(500);
        let sorted = sort(&doc, true, 10);
        assert!(sorted.report.incomplete_runs > 1, "{}", sorted.report.summary());
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        let expect = sorted_dom(&parse_dom(doc.as_bytes()).unwrap(), &spec(), None);
        assert_eq!(got, expect);
    }

    #[test]
    fn degeneration_matches_standard_mode_output() {
        let doc = deep_doc();
        let a = sort(&doc, true, 12).to_recs().unwrap();
        let b = sort(&doc, false, 12).to_recs().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degeneration_eliminates_data_stack_traffic() {
        let doc = flat_doc(800);
        let degen = sort(&doc, true, 10);
        let std = sort(&doc, false, 10);
        assert_eq!(degen.report.io_of(IoCat::DataStack), 0);
        assert!(std.report.io_of(IoCat::DataStack) > 0);
        assert!(
            degen.report.total_ios() < std.report.total_ios(),
            "degeneration must beat the wasted pass on flat input: {} vs {}",
            degen.report.total_ios(),
            std.report.total_ios()
        );
    }

    #[test]
    fn small_documents_sort_entirely_in_memory() {
        let doc = flat_doc(10);
        let sorted = sort(&doc, true, 16);
        assert_eq!(sorted.report.incomplete_runs, 0);
        assert_eq!(sorted.report.subtree_sorts, 1);
        // Setup-free: only the input read and the run write cost anything.
        assert_eq!(sorted.report.io_of(IoCat::DataStack), 0);
        assert_eq!(sorted.report.io_of(IoCat::SortScratch), 0);
    }

    #[test]
    fn deep_documents_mix_collapses_and_incomplete_runs() {
        let doc = deep_doc();
        let disk = Disk::new_mem(128);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let opts = NexsortOptions {
            degeneration: true,
            mem_frames: 9,
            threshold: Some(60), // item subtrees exceed this, groups exceed staging
            ..Default::default()
        };
        let sorted = Nexsort::new(disk, opts, spec()).unwrap().sort_xml_extent(&input).unwrap();
        assert!(sorted.report.subtree_sorts > 0, "{}", sorted.report.summary());
        assert!(sorted.report.incomplete_runs > 0, "{}", sorted.report.summary());
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        let expect = sorted_dom(&parse_dom(doc.as_bytes()).unwrap(), &spec(), None);
        assert_eq!(got, expect);
    }
}

#[cfg(test)]
mod promote_tests {
    use crate::options::NexsortOptions;
    use crate::sorter::Nexsort;
    use nexsort_baseline::{sorted_dom, stage_input};
    use nexsort_extmem::Disk;
    use nexsort_xml::{events_to_dom, parse_dom, SortSpec};

    /// Exercises the pending-run *promotion* path: an inner element whose
    /// start record was flushed and that owns incomplete runs closes before
    /// its ancestors, so its runs must climb the open path until the
    /// element that finally merges them.
    #[test]
    fn pending_runs_promote_through_closing_ancestors() {
        let mut doc = String::from("<root><x k=\"x\">");
        for i in 0..18 {
            doc.push_str(&format!("<f k=\"{:02}\"/>", 17 - i));
        }
        doc.push_str("<y k=\"y\">");
        for i in 0..30 {
            doc.push_str(&format!("<g k=\"{:02}\"/>", 29 - i));
        }
        doc.push_str("</y>");
        for i in 0..6 {
            doc.push_str(&format!("<t k=\"{:02}\"/>", 5 - i));
        }
        doc.push_str("</x></root>");

        let disk = Disk::new_mem(128);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let spec = SortSpec::by_attribute("k");
        let opts = NexsortOptions {
            degeneration: true,
            mem_frames: 9,
            threshold: Some(1 << 20), // no in-memory collapses: force runs
            ..Default::default()
        };
        let sorted =
            Nexsort::new(disk, opts, spec.clone()).unwrap().sort_xml_extent(&input).unwrap();
        assert!(
            sorted.report.incomplete_runs >= 2,
            "must spill several incomplete runs: {}",
            sorted.report.summary()
        );
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        let expect = sorted_dom(&parse_dom(doc.as_bytes()).unwrap(), &spec, None);
        assert_eq!(got, expect);
    }
}
