//! The external merge-sort engine over key-path records.
//!
//! This is the paper's baseline algorithm (Section 1, "External merge sort")
//! and also the subroutine NEXSORT uses for subtrees too large to sort in
//! internal memory (Figure 4 line 11). Structure:
//!
//! * **run formation** -- fill the free internal memory with records, sort
//!   them by key path, spill a sorted scratch run; repeat;
//! * **merge passes** -- merge up to `m - 1` runs at a time (one input frame
//!   per run plus one output frame) until one run remains;
//! * the **final merge** strips the key paths and writes plain records with
//!   a caller-chosen I/O category (the sorted output).
//!
//! The logarithmic factor the paper derives -- `log_{M/B}(N/B)` passes --
//! falls directly out of this loop, which is what Figures 5 and 6 measure.

use std::collections::VecDeque;
use std::rc::Rc;

use nexsort_extmem::{
    ByteSink, IoCat, IoPhase, KWayMerger, MemoryBudget, MergeStream, RunId, RunReader, RunStore,
};
use nexsort_xml::{cmp_encoded_paths, read_pathed_raw, PathedBytes, Rec, Result, XmlError};

use crate::source::PathedSource;

/// Options for one external merge sort.
#[derive(Debug, Clone)]
pub struct ExtSortOptions {
    /// Category charged for scratch runs (formation + intermediate merges).
    pub scratch_cat: IoCat,
    /// Category charged for the final sorted output run.
    pub final_cat: IoCat,
    /// Strip key paths in the final pass (plain records out). Kept on for
    /// document sorts; off when a caller wants a pathed result.
    pub strip_paths: bool,
}

impl Default for ExtSortOptions {
    fn default() -> Self {
        Self { scratch_cat: IoCat::SortScratch, final_cat: IoCat::OutputWrite, strip_paths: true }
    }
}

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
/// [`PathedBytes`] (validated, never decoded): the merge stream of every
/// key-path merge -- this module's, graceful degeneration's and top-k's.
pub struct PathedRunStream {
    reader: RunReader,
    left: u64,
    /// Size of the last record read: the next buffer's starting capacity.
    hint: usize,
}

impl PathedRunStream {
    /// Open every run of `ids`, in order, charging reads to `cat` (one
    /// frame each).
    pub fn open_all(
        store: &Rc<RunStore>,
        ids: &[RunId],
        budget: &MemoryBudget,
        cat: IoCat,
    ) -> Result<Vec<Self>> {
        ids.iter()
            .map(|&id| {
                let left = store.run_len(id)?;
                let reader = store.open(id, budget, cat)?;
                Ok(Self { reader, left, hint: 64 })
            })
            .collect()
    }
}

impl MergeStream for PathedRunStream {
    type Item = PathedBytes;

    fn next_item(&mut self) -> nexsort_extmem::Result<Option<PathedBytes>> {
        if self.left == 0 {
            return Ok(None);
        }
        let mut bytes = Vec::with_capacity(self.hint);
        match read_pathed_raw(&mut self.reader, &mut bytes) {
            Ok(path_len) => {
                self.left = self.left.saturating_sub(bytes.len() as u64);
                self.hint = bytes.len();
                Ok(Some(PathedBytes { bytes, path_len }))
            }
            Err(XmlError::Ext(e)) => Err(e),
            Err(e) => Err(nexsort_extmem::ExtError::Corrupt(e.to_string())),
        }
    }
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
/// (sorted document order) and a pass report.
///
/// Frame usage: during formation, all free frames buffer records except one
/// for the spill writer; during merges, one frame per input run plus one for
/// the writer (so fan-in = free - 1). The caller's source holds its own
/// frames and must stay within the same [`MemoryBudget`].
pub fn external_merge_sort(
    store: &Rc<RunStore>,
    budget: &MemoryBudget,
    src: &mut dyn PathedSource,
    opts: &ExtSortOptions,
) -> Result<(RunId, ExtSortReport)> {
    let disk = store.disk().clone();
    let block_size = disk.block_size() as u64;
    let mut report = ExtSortReport::default();

    // Label the disk with the phase each transfer belongs to, so an
    // unrecoverable fault is reported against run formation / merge pass k /
    // the final merge.

    // ---- Run formation ----
    let mut runs: VecDeque<RunId> = VecDeque::new();
    disk.in_phase(IoPhase::RunFormation, || {
        // One frame stays free for the spill writer.
        let free = budget.free_frames();
        if free < 2 {
            return Err(XmlError::Ext(nexsort_extmem::ExtError::BudgetExceeded {
                requested: 2,
                free,
            }));
        }
        let buffer_guard = budget.reserve(free - 1).expect("just checked");
        let capacity = buffer_guard.frames() as u64 * block_size;
        let mut arena = PathedArena::new();
        let mut buf_bytes = 0u64;
        let mut rec = Vec::new();

        let spill = |arena: &mut PathedArena,
                     report: &mut ExtSortReport,
                     runs: &mut VecDeque<RunId>|
         -> Result<()> {
            let mut w = store.create(budget, opts.scratch_cat)?;
            arena.spill(&mut w)?;
            runs.push_back(w.finish()?);
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
    report.passes = 1;

    // ---- Merge passes ----
    let fan_in = budget.free_frames().saturating_sub(1).max(2);
    report.fan_in = fan_in;

    // Intermediate merges until the remainder fits in one final merge.
    while runs.len() > fan_in {
        disk.in_phase(IoPhase::MergePass(report.intermediate_merges + 1), || -> Result<()> {
            let group: Vec<RunId> = runs.drain(..fan_in).collect();
            let streams = PathedRunStream::open_all(store, &group, budget, opts.scratch_cat)?;
            let mut merger = KWayMerger::new(streams, PathedBytes::cmp_path)?;
            let mut w = store.create(budget, opts.scratch_cat)?;
            while let Some((p, _)) = merger.next_merged()? {
                w.write_all(&p.bytes)?;
            }
            runs.push_back(w.finish()?);
            for id in group {
                store.discard(id)?;
            }
            Ok(())
        })?;
        report.intermediate_merges += 1;
    }
    // Count pass levels: every intermediate merge touches a subset; the
    // standard accounting is ceil(log_fanin(initial_runs)) extra passes.
    let mut levels = 0u32;
    let mut r = report.initial_runs.max(1) as u64;
    while r > 1 {
        r = r.div_ceil(fan_in as u64);
        levels += 1;
    }
    report.passes += levels.max(1); // the final merge is always one pass

    // ---- Final merge: strip paths, write the sorted output run ----
    let final_run = disk.in_phase(IoPhase::FinalMerge, || -> Result<RunId> {
        let group: Vec<RunId> = runs.drain(..).collect();
        let streams = PathedRunStream::open_all(store, &group, budget, opts.scratch_cat)?;
        let mut merger = KWayMerger::new(streams, PathedBytes::cmp_path)?;
        let mut w = store.create(budget, opts.final_cat)?;
        while let Some((p, _)) = merger.next_merged()? {
            w.write_all(if opts.strip_paths { p.rec_bytes() } else { &p.bytes })?;
        }
        let final_run = w.finish()?;
        for id in group {
            store.discard(id)?;
        }
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
            external_merge_sort(&store, &budget, &mut src, &ExtSortOptions::default()).unwrap();
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
        let (run, _) =
            external_merge_sort(&store, &budget, &mut src, &ExtSortOptions::default()).unwrap();
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
        assert!(external_merge_sort(&store, &budget, &mut src, &ExtSortOptions::default()).is_err());
    }

    #[test]
    fn empty_input_yields_an_empty_run() {
        let disk = Disk::new_mem(256);
        let budget = MemoryBudget::new(4);
        let store = RunStore::new(disk.clone());
        let mut src = PathedAdapter::new(VecRecSource::new(vec![]), None);
        let (run, report) =
            external_merge_sort(&store, &budget, &mut src, &ExtSortOptions::default()).unwrap();
        assert_eq!(report.items, 0);
        assert_eq!(store.run_len(run).unwrap(), 0);
    }

    #[test]
    fn final_run_can_keep_paths_when_requested() {
        let (recs, _) = make_recs(5);
        let disk = Disk::new_mem(256);
        let budget = MemoryBudget::new(8);
        let store = RunStore::new(disk.clone());
        let mut src = PathedAdapter::new(VecRecSource::new(recs), None);
        let opts = ExtSortOptions { strip_paths: false, ..Default::default() };
        let (run, _) = external_merge_sort(&store, &budget, &mut src, &opts).unwrap();
        // Decodes as pathed records.
        let mut reader = store.open(run, &budget, IoCat::SortScratch).unwrap();
        let (p, _) = nexsort_xml::PathedRec::decode(&mut reader).unwrap();
        assert_eq!(p.path.len(), 1);
    }
}
