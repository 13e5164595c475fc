//! The external merge-sort engine over key-path records.
//!
//! This is the paper's baseline algorithm (Section 1, "External merge sort")
//! and also the subroutine NEXSORT uses for subtrees too large to sort in
//! internal memory (Figure 4 line 11). Structure:
//!
//! * **run formation** -- fill the free internal memory with records, sort
//!   them by key path, spill a sorted scratch run; repeat;
//! * **merge passes** -- merge up to `m - 1` runs at a time (one input frame
//!   per run plus one output frame), in the order a [`MergePlan`] picks,
//!   until one final merge remains;
//! * the **final merge** strips the key paths and writes plain records with
//!   a caller-chosen I/O category (the sorted output).
//!
//! The logarithmic factor the paper derives -- `log_{M/B}(N/B)` passes --
//! falls directly out of this loop, which is what Figures 5 and 6 measure.

use std::rc::Rc;

use nexsort_extmem::{
    ByteSink, ExtError, IoCat, IoPhase, Journal, JournalRecord, KWayMerger, MemoryBudget,
    MergePlan, MergeStream, Result as ExtResult, RunId, RunReader, RunStore,
};
use nexsort_xml::{cmp_encoded_paths, read_pathed_raw, PathedBytes, Rec, Result, XmlError};

use crate::source::PathedSource;

/// What one external merge sort did (pass structure for the experiments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtSortReport {
    /// Records sorted.
    pub items: u64,
    /// Total encoded bytes of pathed records.
    pub bytes: u64,
    /// Sorted runs produced by run formation.
    pub initial_runs: u32,
    /// Intermediate (non-final) merge operations.
    pub intermediate_merges: u32,
    /// Passes over the data: 1 (formation) + merge levels (incl. final).
    pub passes: u32,
    /// Merge fan-in used.
    pub fan_in: usize,
}

/// One sorted run of encoded key-path records, read record by record as
/// [`PathedBytes`] (validated, never decoded) into the buffer of the record
/// the merge emitted last.
struct PathedRunStream {
    reader: RunReader,
    left: u64,
}

impl MergeStream for PathedRunStream {
    type Item = PathedBytes;

    fn next_item(&mut self, spare: Option<PathedBytes>) -> ExtResult<Option<PathedBytes>> {
        if self.left == 0 {
            return Ok(None);
        }
        let mut bytes = spare.map(|p| p.bytes).unwrap_or_default();
        bytes.clear();
        match read_pathed_raw(&mut self.reader, &mut bytes) {
            Ok(path_len) => {
                self.left = self.left.saturating_sub(bytes.len() as u64);
                Ok(Some(PathedBytes { bytes, path_len }))
            }
            Err(XmlError::Ext(e)) => Err(e),
            Err(e) => Err(ExtError::Corrupt(e.to_string())),
        }
    }
}

/// Merge the key-path runs `ids`, in order (ties go to the earlier run),
/// into a new run charged to `out_cat`: the first `limit` records in
/// key-path order, each written as the bytes `emit` picks from it (the
/// whole pair, or its plain record). Reads are charged to `cat`, one frame
/// per run. Returns the new run and how many records it holds.
pub fn merge_pathed_runs(
    store: &Rc<RunStore>,
    budget: &MemoryBudget,
    ids: &[RunId],
    cat: IoCat,
    out_cat: IoCat,
    limit: u64,
    mut emit: impl FnMut(&PathedBytes) -> &[u8],
) -> Result<(RunId, u64)> {
    let mut streams = Vec::with_capacity(ids.len());
    for &id in ids {
        let (left, reader) = (store.run_len(id)?, store.open(id, budget, cat)?);
        streams.push(PathedRunStream { reader, left });
    }
    let mut merger = KWayMerger::new(streams, PathedBytes::cmp_path)?;
    let mut w = store.create(budget, out_cat)?;
    let mut emitted = 0;
    while emitted < limit {
        let Some((p, _)) = merger.next_merged()? else { break };
        w.write_all(emit(p))?;
        emitted += 1;
    }
    Ok((w.finish()?, emitted))
}

/// Intermediate merge pass `pass` of key-path runs, labelled as such on the
/// disk: `group` merged into a new run of `cat` (at most `limit` records),
/// its inputs discarded. Under a journal the pass is an intent record, the
/// merge, the output's seal and the pass commit in one batch, and only
/// then the discard -- a crash before the commit replays to the previous
/// one, and a crash after it finds every run the commit names allocated.
/// Returns the new run and its length, as a [`MergePlan`] takes them.
pub fn merge_pass(
    store: &Rc<RunStore>,
    budget: &MemoryBudget,
    journal: &mut Option<Journal>,
    pass: u32,
    group: &[RunId],
    cat: IoCat,
    limit: u64,
) -> Result<(RunId, u64)> {
    store.disk().in_phase(IoPhase::MergePass(pass), || {
        if let Some(j) = journal.as_mut() {
            j.append(&JournalRecord::MergePassStarted { pass })?;
        }
        let (out, _) = merge_pathed_runs(store, budget, group, cat, cat, limit, |p| &p.bytes)?;
        if let Some(j) = journal.as_mut() {
            let consumed = group.iter().map(|r| r.0).collect();
            let commit = JournalRecord::MergePassCommitted { pass, output: out.0, consumed };
            j.checkpoint(&[store.seal_record(out)?, commit])?;
        }
        group.iter().try_for_each(|&id| store.discard(id))?;
        Ok((out, store.run_len(out)?))
    })
}

/// Runs `ids` with their lengths: the pending list a [`MergePlan`] takes.
pub fn run_lens(store: &RunStore, ids: &[RunId]) -> Result<Vec<(RunId, u64)>> {
    ids.iter().map(|&id| Ok((id, store.run_len(id)?))).collect()
}

/// A memory-load of encoded key-path records: one byte arena plus each
/// record's span, sorted in place by [`cmp_encoded_paths`] and spilled as
/// one run -- run formation without a decoded record in sight.
#[derive(Debug, Default)]
pub struct PathedArena {
    bytes: Vec<u8>,
    spans: Vec<(usize, usize)>,
}

impl PathedArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if no record is held.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Add one encoded `(path, rec)` pair.
    pub fn push(&mut self, pathed: &[u8]) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(pathed);
        self.spans.push((start, self.bytes.len()));
    }

    /// Write the records to `w` in key-path order and empty the arena. Ties
    /// keep arrival order (key paths are unique, but stay stable anyway).
    pub fn spill(&mut self, w: &mut impl ByteSink) -> Result<()> {
        let bytes = &self.bytes;
        self.spans.sort_unstable_by(|a, b| {
            cmp_encoded_paths(&bytes[a.0..a.1], &bytes[b.0..b.1]).then(a.0.cmp(&b.0))
        });
        for &(s, e) in &self.spans {
            w.write_all(&bytes[s..e])?;
        }
        self.bytes.clear();
        self.spans.clear();
        Ok(())
    }
}

/// External merge sort of a pathed record stream. Returns the final run
/// (sorted document order, key paths stripped) and a pass report. Scratch
/// runs (formation and intermediate merges) are charged to
/// [`IoCat::SortScratch`], the final run to `final_cat`.
///
/// Frame usage: during formation, all free frames buffer records except one
/// for the spill writer; during merges, one frame per input run plus one for
/// the writer (so fan-in = free - 1). The caller's source holds its own
/// frames and must stay within the same [`MemoryBudget`].
pub fn external_merge_sort(
    store: &Rc<RunStore>,
    budget: &MemoryBudget,
    src: &mut dyn PathedSource,
    final_cat: IoCat,
) -> Result<(RunId, ExtSortReport)> {
    let disk = store.disk().clone();
    let block_size = disk.block_size() as u64;
    let mut report = ExtSortReport::default();

    // Label the disk with the phase each transfer belongs to, so an
    // unrecoverable fault is reported against run formation / merge pass k /
    // the final merge.

    // ---- Run formation ----
    let mut runs: Vec<RunId> = Vec::new();
    disk.in_phase(IoPhase::RunFormation, || {
        // One frame stays free for the spill writer.
        let free = budget.free_frames();
        if free < 2 {
            return Err(XmlError::Ext(ExtError::BudgetExceeded { requested: 2, free }));
        }
        let buffer_guard = budget.reserve(free - 1).expect("just checked");
        let capacity = buffer_guard.frames() as u64 * block_size;
        let mut arena = PathedArena::new();
        let mut buf_bytes = 0u64;
        let mut rec = Vec::new();

        let spill = |arena: &mut PathedArena,
                     report: &mut ExtSortReport,
                     runs: &mut Vec<RunId>|
         -> Result<()> {
            let mut w = store.create(budget, IoCat::SortScratch)?;
            arena.spill(&mut w)?;
            runs.push(w.finish()?);
            report.initial_runs += 1;
            Ok(())
        };

        loop {
            rec.clear();
            if src.next_encoded(&mut rec)?.is_none() {
                break;
            }
            let len = rec.len() as u64;
            if buf_bytes + len > capacity && !arena.is_empty() {
                spill(&mut arena, &mut report, &mut runs)?;
                buf_bytes = 0;
            }
            buf_bytes += len;
            report.items += 1;
            report.bytes += len;
            arena.push(&rec);
        }
        if !arena.is_empty() || runs.is_empty() {
            spill(&mut arena, &mut report, &mut runs)?;
        }
        Ok(())
    })?;

    // ---- Merge passes ----
    let fan_in = budget.free_frames().saturating_sub(1).max(2);
    report.fan_in = fan_in;
    let (mut plan, cat) = (MergePlan::new(fan_in, run_lens(store, &runs)?), IoCat::SortScratch);
    plan.merge_down(|n, group| merge_pass(store, budget, &mut None, n, group, cat, u64::MAX))?;
    report.intermediate_merges = plan.merges();
    report.passes = 1 + plan.depth();

    // ---- Final merge: strip paths, write the sorted output run ----
    let final_run = disk.in_phase(IoPhase::FinalMerge, || -> Result<RunId> {
        let group = plan.runs();
        let (final_run, _) =
            merge_pathed_runs(store, budget, &group, cat, final_cat, u64::MAX, |p| p.rec_bytes())?;
        group.iter().try_for_each(|&id| store.discard(id))?;
        Ok(final_run)
    })?;
    Ok((final_run, report))
}

/// Decode a (plain-record) run back into memory (test/inspection helper).
pub fn run_to_recs(
    store: &Rc<RunStore>,
    budget: &MemoryBudget,
    run: RunId,
    cat: IoCat,
) -> Result<Vec<Rec>> {
    let reader = store.open(run, budget, cat)?;
    let mut dec = nexsort_xml::RecDecoder::new(reader);
    let mut out = Vec::new();
    while let Some(r) = dec.next_rec()? {
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{PathedAdapter, VecRecSource};
    use nexsort_extmem::Disk;
    use nexsort_xml::{events_to_recs, parse_events, SortSpec, TagDict};

    fn make_recs(n_children: usize) -> (Vec<Rec>, TagDict) {
        let mut doc = String::from("<root>");
        for i in 0..n_children {
            // Reverse order keys so sorting must move everything.
            doc.push_str(&format!(
                "<item key=\"{:05}\"><leaf key=\"b\"/><leaf key=\"a\"/></item>",
                n_children - i
            ));
        }
        doc.push_str("</root>");
        let events = parse_events(doc.as_bytes()).unwrap();
        let spec = SortSpec::by_attribute("key");
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
        (recs, dict)
    }

    fn sort_with(mem_frames: usize, n_children: usize) -> (Vec<Rec>, ExtSortReport, u64) {
        let (recs, _dict) = make_recs(n_children);
        let disk = Disk::new_mem(256);
        let budget = MemoryBudget::new(mem_frames);
        let store = RunStore::new(disk.clone());
        let mut src = PathedAdapter::new(VecRecSource::new(recs), None);
        let before = disk.stats().snapshot();
        let (run, report) =
            external_merge_sort(&store, &budget, &mut src, IoCat::OutputWrite).unwrap();
        let ios = disk.stats().snapshot().since(&before).grand_total();
        let out = run_to_recs(&store, &budget, run, IoCat::SortScratch).unwrap();
        (out, report, ios)
    }

    #[test]
    fn output_is_globally_sorted_dfs_order() {
        let (out, report, _) = sort_with(8, 50);
        assert_eq!(report.items as usize, out.len());
        // Items at level 2 must be ascending by key; leaves follow parents.
        let keys: Vec<String> =
            out.iter().filter(|r| r.level() == 2).map(|r| r.key().display_lossy()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Each item is followed by its leaves a then b.
        let pos_a = out.iter().position(|r| r.key().display_lossy() == "a").unwrap();
        assert_eq!(out[pos_a].level(), 3);
        assert_eq!(out[pos_a + 1].key().display_lossy(), "b");
    }

    #[test]
    fn small_memory_forces_multiple_runs_and_merges() {
        let (_, small_mem, small_ios) = sort_with(4, 400);
        let (_, big_mem, big_ios) = sort_with(64, 400);
        assert!(small_mem.initial_runs > big_mem.initial_runs);
        assert!(small_mem.passes >= big_mem.passes);
        assert!(small_ios > big_ios, "less memory must cost more I/O");
    }

    #[test]
    fn results_agree_across_memory_sizes() {
        let (a, _, _) = sort_with(4, 120);
        let (b, _, _) = sort_with(32, 120);
        assert_eq!(a, b);
    }

    #[test]
    fn pass_counts_jump_when_runs_exceed_fan_in() {
        // With 4 frames: formation buffer = 3 frames; fan-in = 3.
        let (_, report, _) = sort_with(4, 800);
        assert!(report.initial_runs > report.fan_in as u32);
        assert!(report.intermediate_merges > 0, "must need intermediate merges");
        assert!(report.passes >= 3);
    }

    #[test]
    fn scratch_runs_are_reclaimed() {
        let (recs, _) = make_recs(300);
        let disk = Disk::new_mem(256);
        let budget = MemoryBudget::new(4);
        let store = RunStore::new(disk.clone());
        let mut src = PathedAdapter::new(VecRecSource::new(recs), None);
        let (run, _) = external_merge_sort(&store, &budget, &mut src, IoCat::OutputWrite).unwrap();
        // Only the final run still occupies blocks.
        let final_blocks = store.run_len(run).unwrap().div_ceil(256);
        assert_eq!(store.total_blocks(), final_blocks);
    }

    #[test]
    fn tiny_budget_is_rejected() {
        let (recs, _) = make_recs(10);
        let disk = Disk::new_mem(256);
        let budget = MemoryBudget::new(1);
        let store = RunStore::new(disk.clone());
        let mut src = PathedAdapter::new(VecRecSource::new(recs), None);
        assert!(external_merge_sort(&store, &budget, &mut src, IoCat::OutputWrite).is_err());
    }

    #[test]
    fn empty_input_yields_an_empty_run() {
        let disk = Disk::new_mem(256);
        let budget = MemoryBudget::new(4);
        let store = RunStore::new(disk.clone());
        let mut src = PathedAdapter::new(VecRecSource::new(vec![]), None);
        let (run, report) =
            external_merge_sort(&store, &budget, &mut src, IoCat::OutputWrite).unwrap();
        assert_eq!(report.items, 0);
        assert_eq!(store.run_len(run).unwrap(), 0);
    }
}
