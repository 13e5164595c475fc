//! Subtree sorting (Figure 4, line 11).
//!
//! When the sorting phase detects a complete subtree larger than the
//! threshold, the subtree's records are streamed off the data stack and
//! sorted into a run. "Depending on the actual size of the subtree, sorting
//! may use either an internal-memory algorithm or an external-memory
//! algorithm": a subtree that fits in the free internal memory uses the
//! recursive sort, over the records' bytes; a larger one (the paper notes
//! any sorted subtree is smaller than `k*t`, but that can exceed `M`) uses
//! the key-path external merge sort, preceded by the stream-reversal
//! pre-pass when the ordering criterion defers keys to end tags.
//!
//! A subtree rooted exactly at the depth limit is *dumped* verbatim
//! (Section 3.2: "no sorting is needed but the subtree is still written to
//! disk, ensuring that we do not carry large subtrees along").
//!
//! When the data stack lends ([`ExtStack::lending`]) and holds the whole
//! range resident, an internal sort takes the bytes straight off the stack:
//! no flush, no range read, no reload of the block the pointer lands in.
//! Every other sort first sheds the window to one frame, so it streams the
//! range from the device with exactly the budget a one-frame stack leaves.

use std::rc::Rc;

use nexsort_baseline::{
    external_merge_sort, resolve_deferred, ExtentRecSource, PathedAdapter, RecSource,
};
use nexsort_extmem::{
    ByteReader, ByteSink, Disk, ExtStack, Extent, ExtentReader, IoCat, IoPhase, MemoryBudget,
    RunStore, SliceReader,
};
use nexsort_xml::{
    sorts_children_of, EncodedForest, KeyValue, PtrRec, Rec, RecDecoder, RecKind, Result, SortSpec,
    XmlError,
};

use crate::report::SortReport;

pub(crate) struct SubtreeSorter<'a> {
    pub disk: &'a Rc<Disk>,
    pub store: &'a Rc<RunStore>,
    pub budget: &'a MemoryBudget,
    pub spec: &'a SortSpec,
    pub depth_limit: Option<u32>,
}

impl SubtreeSorter<'_> {
    /// Sort the data stack's top range `[start, len)`, whose first record is
    /// the subtree root at `level`, into a run; truncate the stack to
    /// `start` and return the pointer record that replaces the subtree.
    pub(crate) fn sort_range(
        &self,
        data: &mut ExtStack,
        start: u64,
        level: u32,
        report: &mut SortReport,
    ) -> Result<PtrRec> {
        let len = data.len() - start;
        report.subtree_sorts += 1;
        report.sum_sorted_bytes += len;
        report.max_sort_bytes = report.max_sort_bytes.max(len);

        self.disk.in_phase(IoPhase::RunFormation, || {
            let sorts = sorts_children_of(self.depth_limit, level);
            let block_size = self.disk.block_size() as u64;
            // Frames left after the sorting phase's fixtures: we need one for
            // the range reader and one for the run writer; the rest buffer
            // the sort. Frames the data stack borrowed count as free, so the
            // choice is the one a one-frame stack would make.
            let free = (self.budget.free_frames() + data.lent_frames()) as u64;
            let internal = len <= free.saturating_sub(2) * block_size;
            if sorts && internal && data.lends() && data.is_resident_from(start) {
                return self.sort_in_place(data, len, level, report);
            }
            data.shed(data.lent_frames())?;
            let stack_ext = data.range_extent()?;
            let ptr = if !sorts {
                self.dump_range(&stack_ext, start, len, level, report)
            } else if internal {
                self.sort_internal(&stack_ext, start, len, level, report)
            } else {
                self.sort_external(&stack_ext, start, len, level, report)
            }?;
            data.truncate(start)?;
            Ok(ptr)
        })
    }

    /// Internal-memory sort of a range the data stack holds resident: the
    /// pop moves its bytes out of the window with no transfer, and the
    /// consumed frames are dropped unwritten.
    fn sort_in_place(
        &self,
        data: &mut ExtStack,
        len: u64,
        level: u32,
        report: &mut SortReport,
    ) -> Result<PtrRec> {
        report.internal_sorts += 1;
        let arena = data.pop(len as usize)?;
        // The arena and the run writer need frames the window may still
        // hold below the range: page out its deepest blocks until they fit.
        let arena_frames = (len.div_ceil(self.disk.block_size() as u64) as usize).max(1);
        data.shed((arena_frames + 1).saturating_sub(self.budget.free_frames()))?;
        let _buffer = self.budget.reserve(arena_frames).map_err(XmlError::from)?;
        self.write_sorted_run(&arena, level, report)
    }

    /// Internal-memory sort of the range: its bytes go into an arena, the
    /// records are indexed in place and written to the run in sorted DFS
    /// order, none decoded ([`EncodedForest`]).
    fn sort_internal(
        &self,
        stack_ext: &Extent,
        start: u64,
        len: u64,
        level: u32,
        report: &mut SortReport,
    ) -> Result<PtrRec> {
        report.internal_sorts += 1;
        // Account the in-memory buffer against the budget while sorting.
        let buffer_frames = (len.div_ceil(self.disk.block_size() as u64) as usize).max(1);
        let _buffer = self
            .budget
            .reserve(buffer_frames.min(self.budget.free_frames().saturating_sub(2)))
            .map_err(XmlError::from)?;

        let mut arena = vec![0u8; len as usize];
        {
            let mut src =
                ExtentReader::new(self.disk.clone(), self.budget, stack_ext, IoCat::DataStack)?;
            src.seek(start);
            src.read_exact(&mut arena)?;
        }
        self.write_sorted_run(&arena, level, report)
    }

    /// Index the subtree's record bytes and write them to a new run in
    /// sorted DFS order; returns the pointer record for its root.
    fn write_sorted_run(
        &self,
        arena: &[u8],
        level: u32,
        report: &mut SortReport,
    ) -> Result<PtrRec> {
        let forest = EncodedForest::index(arena)?;
        report.sum_sorted_records += forest.len() as u64;
        let root = match forest.first() {
            Some((RecKind::Elem, l, key, seq)) if l == level => {
                PtrRec { level, run: 0, key: KeyValue::decode(&mut SliceReader::new(key))?, seq }
            }
            other => {
                return Err(XmlError::Record(format!(
                    "subtree range does not start with a level-{level} element: {other:?}"
                )))
            }
        };

        let mut w = self.store.create(self.budget, IoCat::RunWrite)?;
        forest.write_sorted(self.depth_limit, &mut w)?;
        let run = w.finish()?;
        Ok(PtrRec { run: run.0, ..root })
    }

    /// Key-path external merge sort of the range.
    fn sort_external(
        &self,
        stack_ext: &Extent,
        start: u64,
        len: u64,
        level: u32,
        report: &mut SortReport,
    ) -> Result<PtrRec> {
        report.external_sorts += 1;
        let (run, sort_report, resolved) = if self.spec.has_deferred_keys() {
            // Deferred keys: reversal pre-pass over the stack range first.
            let resolved = resolve_deferred(
                self.disk,
                self.budget,
                stack_ext,
                start,
                len,
                IoCat::SortScratch,
            )?;
            let inner = ExtentRecSource::new(
                self.disk.clone(),
                self.budget,
                &resolved,
                IoCat::SortScratch,
            )?;
            let mut pathed = PathedAdapter::new(inner, self.depth_limit);
            let (run, rep) =
                external_merge_sort(self.store, self.budget, &mut pathed, IoCat::RunWrite)?;
            (run, rep, Some(resolved))
        } else {
            let inner = ExtentRecSource::range(
                self.disk.clone(),
                self.budget,
                stack_ext,
                start,
                len,
                IoCat::DataStack,
            )?;
            let mut pathed = PathedAdapter::new(inner, self.depth_limit);
            let (run, rep) =
                external_merge_sort(self.store, self.budget, &mut pathed, IoCat::RunWrite)?;
            (run, rep, None)
        };
        if let Some(mut ext) = resolved {
            ext.free(self.disk)?;
        }
        report.sum_sorted_records += sort_report.items;

        // The run's first record is the subtree root (its key path is a
        // prefix of every other); read it back for the pointer record.
        let reader = self.store.open(run, self.budget, IoCat::RunRead)?;
        let mut dec = RecDecoder::new(reader);
        match dec.next_rec()? {
            Some(Rec::Elem(e)) if e.level == level => {
                Ok(PtrRec { level, run: run.0, key: e.key, seq: e.seq })
            }
            other => Err(XmlError::Record(format!(
                "externally sorted run does not start with a level-{level} element: {other:?}"
            ))),
        }
    }

    /// Verbatim dump of a subtree at the depth limit: records are copied
    /// unsorted into a run (key patches included; emitters skip them).
    fn dump_range(
        &self,
        stack_ext: &Extent,
        start: u64,
        len: u64,
        level: u32,
        report: &mut SortReport,
    ) -> Result<PtrRec> {
        report.dumped_runs += 1;
        let mut src = ExtentRecSource::range(
            self.disk.clone(),
            self.budget,
            stack_ext,
            start,
            len,
            IoCat::DataStack,
        )?;
        let mut w = self.store.create(self.budget, IoCat::RunWrite)?;
        let mut buf = Vec::new();
        let mut root: Option<PtrRec> = None;
        let mut elems = 0u64;
        while let Some(rec) = src.next_rec()? {
            match &rec {
                Rec::Elem(e) if root.is_none() => {
                    if e.level != level {
                        return Err(XmlError::Record(format!(
                            "dumped subtree does not start at level {level}"
                        )));
                    }
                    root = Some(PtrRec { level, run: 0, key: e.key.clone(), seq: e.seq });
                }
                // A deferred key for the dumped root still patches the
                // pointer so the *parent* can order this subtree correctly.
                Rec::KeyPatch(p) if p.level == level => {
                    if let Some(r) = &mut root {
                        r.key = p.key.clone();
                    }
                }
                _ => {}
            }
            if !matches!(rec, Rec::KeyPatch(_)) {
                elems += 1;
            }
            buf.clear();
            rec.encode(&mut buf)?;
            w.write_all(&buf)?;
        }
        report.sum_sorted_records += elems;
        let run = w.finish()?;
        let root = root.ok_or_else(|| XmlError::Record("dumped subtree range was empty".into()))?;
        Ok(PtrRec { run: run.0, ..root })
    }
}
