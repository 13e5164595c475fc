//! The output phase (Figure 4, lines 13-21) and the sorted-document handle.
//!
//! After the sorting phase the document is a tree of sorted runs connected
//! by pointer records (Figure 3). [`DocCursor`] performs the depth-first
//! traversal with an explicit external *output location stack*, exactly as
//! the pseudo-code does -- recursion is never used, so a pathological run
//! tree deeper than memory still works and its paging is accounted
//! (Lemma 4.13: O(N/t) I/Os). Jumping into a run and returning to the
//! middle of a block re-reads that block, reproducing the `1 + p(b)`
//! accesses per sorted-run block counted by Lemma 4.12.

use std::rc::Rc;
use std::time::Instant;

use nexsort_baseline::RecSource;
use nexsort_extmem::{
    ByteSink, Disk, ExtStack, IoCat, IoPhase, IoSnapshot, MemoryBudget, RunId, RunReader, RunStore,
};
use nexsort_xml::{Event, Rec, RecDecoder, RecXmlWriter, Result, TagDict, XmlError, XmlWriter};

use crate::report::SortReport;

/// A sorted document: the tree of sorted runs plus everything needed to
/// stream or serialize it.
pub struct SortedDoc {
    disk: Rc<Disk>,
    store: Rc<RunStore>,
    /// The root of the run tree.
    pub root_run: RunId,
    /// Name dictionary used by the records (compaction).
    pub dict: TagDict,
    /// Instrumentation of the sorting phase.
    pub report: SortReport,
    mem_frames: usize,
}

/// What the output phase cost.
#[derive(Debug, Clone)]
pub struct OutputReport {
    /// Records emitted.
    pub records: u64,
    /// I/O of the output phase by category.
    pub io: IoSnapshot,
    /// Wall-clock time of the output phase.
    pub elapsed: std::time::Duration,
}

impl SortedDoc {
    pub(crate) fn new(
        disk: Rc<Disk>,
        store: Rc<RunStore>,
        root_run: RunId,
        dict: TagDict,
        report: SortReport,
        mem_frames: usize,
    ) -> Self {
        Self { disk, store, root_run, dict, report, mem_frames }
    }

    /// The run store holding the document.
    pub fn store(&self) -> &Rc<RunStore> {
        &self.store
    }

    /// The disk the document lives on.
    pub fn disk(&self) -> &Rc<Disk> {
        &self.disk
    }

    /// Open a streaming cursor over the sorted document's records.
    pub fn cursor(&self) -> Result<DocCursor> {
        DocCursor::new(self.disk.clone(), self.store.clone(), self.root_run, self.mem_frames)
    }

    /// Run the full output phase, writing the sorted document as a record
    /// stream (the measured "Writing the output" cost) and reporting its
    /// I/O breakdown.
    pub fn write_output_run(&self) -> Result<(RunId, OutputReport)> {
        if self.report.root_flat {
            // The root run has no pointers: it *is* the sorted output, no
            // copy needed (cf. merge sort, whose final pass is the output).
            let empty = nexsort_extmem::IoStats::new();
            return Ok((
                self.root_run,
                OutputReport {
                    records: self.report.n_records,
                    io: empty.snapshot(),
                    elapsed: std::time::Duration::ZERO,
                },
            ));
        }
        let start = Instant::now();
        let stats = self.disk.stats();
        let before = stats.snapshot();
        self.disk.in_phase(IoPhase::OutputEmit, || {
            let mut cursor = self.cursor()?;
            let budget = MemoryBudget::new(2);
            let mut w = self.store.create(&budget, IoCat::OutputWrite)?;
            let mut buf = Vec::new();
            let mut records = 0u64;
            while let Some(rec) = cursor.next_rec()? {
                buf.clear();
                rec.encode(&mut buf)?;
                w.write_all(&buf)?;
                records += 1;
            }
            let run = w.finish()?;
            let io = stats.snapshot().since(&before);
            Ok((run, OutputReport { records, io, elapsed: start.elapsed() }))
        })
    }

    /// Collect the sorted document's records in memory (tests/inspection).
    pub fn to_recs(&self) -> Result<Vec<Rec>> {
        let mut cursor = self.cursor()?;
        let mut out = Vec::new();
        while let Some(r) = cursor.next_rec()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Reconstruct the sorted document as events (end tags regenerated from
    /// level transitions, Section 3.2).
    pub fn to_events(&self) -> Result<Vec<Event>> {
        let recs = self.to_recs()?;
        let mut em = nexsort_xml::RecEmitter::new(&self.dict);
        let mut out = Vec::new();
        for r in &recs {
            em.push_rec(r, &mut out)?;
        }
        em.finish(&mut out);
        Ok(out)
    }

    /// Stream the sorted document as XML text into `sink`: the output
    /// phase's single DFS over the run tree (Figure 4, lines 13-21), each
    /// record written as soon as the cursor yields it. Resident memory is
    /// the cursor's frames plus O(depth) open-tag names, whatever the size
    /// of the document.
    pub fn write_xml(&self, sink: impl ByteSink, pretty: bool) -> Result<()> {
        let mut cursor = self.cursor()?;
        let mut w = RecXmlWriter::new(sink, pretty);
        while let Some(rec) = cursor.next_rec()? {
            w.push_rec(&rec, &self.dict)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Serialize the sorted document to XML text in memory (convenience).
    pub fn to_xml(&self, pretty: bool) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.write_xml(&mut out, pretty)?;
        Ok(out)
    }

    /// Stream the document once and verify it is *fully sorted* under
    /// `spec`: every element's children must be in nondecreasing key order.
    /// O(height) memory; returns the number of records checked.
    ///
    /// `depth_limit` mirrors the sort's own option: children of elements
    /// deeper than the limit are exempt.
    pub fn verify_sorted(
        &self,
        spec: &nexsort_xml::SortSpec,
        depth_limit: Option<u32>,
    ) -> Result<u64> {
        let _ = spec; // keys were extracted at scan time; records carry them
        let mut cursor = self.cursor()?;
        // last_key[l] = key of the last sibling seen at level l+1.
        let mut last_key: Vec<Option<nexsort_xml::KeyValue>> = Vec::new();
        let mut checked = 0u64;
        while let Some(rec) = cursor.next_rec()? {
            checked += 1;
            let lvl = rec.level() as usize;
            last_key.truncate(lvl);
            while last_key.len() < lvl {
                last_key.push(None);
            }
            let within = depth_limit.is_none_or(|d| rec.level() <= d + 1);
            if within {
                if let Some(Some(prev)) = last_key.get(lvl - 1) {
                    if prev > rec.key() {
                        return Err(XmlError::Record(format!(
                            "document not sorted: level {} key {} after {}",
                            rec.level(),
                            rec.key(),
                            prev
                        )));
                    }
                }
            }
            last_key[lvl - 1] = Some(rec.key().clone());
        }
        Ok(checked)
    }

    /// Serialize to XML text using an *external* stack of unclosed tag
    /// names for end-tag reconstruction -- the fully external-memory output
    /// path of Section 3.2, usable even when the document is deeper than
    /// memory. Returns the records emitted.
    pub fn write_xml_external(&self, sink: impl ByteSink, pretty: bool) -> Result<u64> {
        self.disk.in_phase(IoPhase::OutputEmit, || self.write_xml_external_inner(sink, pretty))
    }

    fn write_xml_external_inner<S: ByteSink>(&self, sink: S, pretty: bool) -> Result<u64> {
        let mut cursor = self.cursor()?;
        let budget = MemoryBudget::new(2);
        let mut tags = ExtStack::new(self.disk.clone(), &budget, IoCat::OutTagStack, 1)?;
        let mut writer = XmlWriter::new(sink).pretty(pretty);
        let mut open_levels = 0u32;
        let mut records = 0u64;

        let close_one = |tags: &mut ExtStack, w: &mut XmlWriter<S>| -> Result<()> {
            let len = tags.pop_u32()? as usize;
            let name = tags.pop(len)?;
            w.write(&Event::End { name })?;
            Ok(())
        };

        while let Some(rec) = cursor.next_rec()? {
            records += 1;
            let lvl = rec.level();
            while open_levels >= lvl {
                close_one(&mut tags, &mut writer)?;
                open_levels -= 1;
            }
            match rec {
                Rec::Elem(e) => {
                    if lvl != open_levels + 1 {
                        return Err(XmlError::Record(format!(
                            "level jump to {lvl} with {open_levels} open tags"
                        )));
                    }
                    let name = e.name.resolve(&self.dict)?.to_vec();
                    let attrs = e
                        .attrs
                        .iter()
                        .map(|(k, v)| Ok((k.resolve(&self.dict)?.to_vec(), v.clone())))
                        .collect::<Result<Vec<_>>>()?;
                    writer.write(&Event::Start { name: name.clone(), attrs })?;
                    tags.push(&name)?;
                    tags.push_u32(name.len() as u32)?;
                    open_levels += 1;
                }
                Rec::Text(t) => {
                    writer.write(&Event::Text { content: t.content })?;
                }
                Rec::RunPtr(_) | Rec::KeyPatch(_) => {
                    return Err(XmlError::Record(
                        "unresolved pointer or patch record reached output".into(),
                    ))
                }
            }
        }
        while open_levels > 0 {
            close_one(&mut tags, &mut writer)?;
            open_levels -= 1;
        }
        Ok(records)
    }
}

/// Streaming depth-first cursor over a tree of sorted runs.
pub struct DocCursor {
    store: Rc<RunStore>,
    budget: MemoryBudget,
    outloc: ExtStack,
    /// Current run and its decoder, with the run id and base offset needed
    /// to compute the return location when a pointer is followed.
    cur: Option<(RunId, u64, u64, RecDecoder<RunReader>)>,
}

impl DocCursor {
    fn new(disk: Rc<Disk>, store: Rc<RunStore>, root: RunId, mem_frames: usize) -> Result<Self> {
        let budget = MemoryBudget::new(mem_frames);
        let mut outloc = ExtStack::new(disk, &budget, IoCat::OutLocStack, 1)?;
        // Figure 4 line 13: initialize with (s, 0), s = the root run.
        outloc.push_u32(root.0)?;
        outloc.push_u64(0)?;
        Ok(Self { store, budget, outloc, cur: None })
    }

    fn open_at(&mut self, run: RunId, offset: u64) -> Result<()> {
        let len = self.store.run_len(run)?;
        let mut reader = self.store.open(run, &self.budget, IoCat::RunRead)?;
        reader.seek(offset);
        let dec = RecDecoder::with_limit(reader, len - offset);
        self.cur = Some((run, offset, len, dec));
        Ok(())
    }
}

impl RecSource for DocCursor {
    /// The next record of the fully sorted document, in DFS order. Pointer
    /// records are followed transparently; key patches are dropped.
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        loop {
            match &mut self.cur {
                Some((run, base, len, dec)) => match dec.next_rec()? {
                    Some(Rec::RunPtr(p)) => {
                        // Push the return location, then jump (lines 18-20).
                        let pos = *base + (*len - *base - dec.remaining_bytes());
                        let run_id = run.0;
                        self.outloc.push_u32(run_id)?;
                        self.outloc.push_u64(pos)?;
                        self.open_at(RunId(p.run), 0)?;
                    }
                    Some(Rec::KeyPatch(_)) => continue,
                    Some(rec) => return Ok(Some(rec)),
                    None => self.cur = None,
                },
                None => {
                    if self.outloc.is_empty() {
                        return Ok(None);
                    }
                    let offset = self.outloc.pop_u64()?;
                    let run = RunId(self.outloc.pop_u32()?);
                    self.open_at(run, offset)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::NexsortOptions;
    use crate::sorter::Nexsort;
    use nexsort_baseline::stage_input;
    use nexsort_xml::{parse_dom, parse_events, SortSpec};

    fn sorted_fixture(threshold: u64) -> SortedDoc {
        let doc = "<company><region name=\"NW\"><branch name=\"Miami\"/>\
                   <branch name=\"Durham\"><desk id=\"9\"/><desk id=\"3\"/></branch></region>\
                   <region name=\"AC\"><branch name=\"Raleigh\">hello</branch></region></company>";
        let disk = Disk::new_mem(64);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let spec = SortSpec::by_attribute("name")
            .with_rule("desk", nexsort_xml::KeyRule::attr_numeric("id"));
        let opts = NexsortOptions { threshold: Some(threshold), ..Default::default() };
        Nexsort::new(disk, opts, spec).unwrap().sort_xml_extent(&input).unwrap()
    }

    #[test]
    fn cursor_resolves_nested_runs_into_one_stream() {
        // Tiny threshold: many runs, so the cursor must follow pointers.
        let doc = sorted_fixture(1);
        assert!(doc.report.subtree_sorts > 2);
        let recs = doc.to_recs().unwrap();
        assert!(recs.iter().all(|r| !matches!(r, Rec::RunPtr(_) | Rec::KeyPatch(_))));
        assert_eq!(recs.len() as u64, doc.report.n_records);
    }

    #[test]
    fn output_is_identical_across_thresholds() {
        let a = sorted_fixture(1).to_recs().unwrap();
        let b = sorted_fixture(1 << 30).to_recs().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn xml_serializations_agree_internal_and_external() {
        let doc = sorted_fixture(1);
        let quick = doc.to_xml(false).unwrap();
        let mut ext = Vec::new();
        let n = doc.write_xml_external(&mut ext, false).unwrap();
        assert_eq!(quick, ext);
        assert_eq!(n, doc.report.n_records);
        // And it reparses into a legal permutation of itself.
        let dom = parse_dom(&quick).unwrap();
        assert!(dom.permutation_equivalent(&dom.clone()));
    }

    #[test]
    fn output_run_contains_the_whole_document() {
        let doc = sorted_fixture(1);
        let (run, report) = doc.write_output_run().unwrap();
        assert_eq!(report.records, doc.report.n_records);
        assert!(report.io.writes(IoCat::OutputWrite) >= 1);
        assert!(report.io.reads(IoCat::RunRead) >= 1);
        // The flat output run decodes to the same records as the cursor.
        let budget = MemoryBudget::new(2);
        let flat =
            nexsort_baseline::run_to_recs(doc.store(), &budget, run, IoCat::RunRead).unwrap();
        assert_eq!(flat, doc.to_recs().unwrap());
    }

    #[test]
    fn pretty_output_reparses_to_the_same_document() {
        let doc = sorted_fixture(64);
        let compact = parse_events(&doc.to_xml(false).unwrap()).unwrap();
        let pretty = parse_events(&doc.to_xml(true).unwrap()).unwrap();
        assert_eq!(compact, pretty);
    }
}

#[cfg(test)]
mod verify_tests {
    use crate::options::NexsortOptions;
    use crate::sorter::Nexsort;
    use nexsort_baseline::stage_input;
    use nexsort_extmem::Disk;
    use nexsort_xml::SortSpec;

    #[test]
    fn verify_sorted_accepts_every_sorted_document() {
        let doc = "<r><a name=\"z\"><c name=\"2\"/><c name=\"1\"/></a><a name=\"d\"/>\
                   <a name=\"m\">text</a></r>";
        let disk = Disk::new_mem(128);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let spec = SortSpec::by_attribute("name");
        let sorted = Nexsort::new(disk, NexsortOptions::default(), spec.clone())
            .unwrap()
            .sort_xml_extent(&input)
            .unwrap();
        let n = sorted.verify_sorted(&spec, None).unwrap();
        assert_eq!(n, sorted.report.n_records);
    }

    #[test]
    fn verify_sorted_respects_the_depth_limit() {
        let doc = "<r><a name=\"b\"><c name=\"2\"/><c name=\"1\"/></a><a name=\"a\"/></r>";
        let disk = Disk::new_mem(128);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let spec = SortSpec::by_attribute("name");
        let opts = NexsortOptions { depth_limit: Some(1), ..Default::default() };
        let sorted =
            Nexsort::new(disk, opts, spec.clone()).unwrap().sort_xml_extent(&input).unwrap();
        // The c's keep document order 2,1 -- full verification must fail...
        assert!(sorted.verify_sorted(&spec, None).is_err());
        // ...while depth-limited verification passes.
        assert!(sorted.verify_sorted(&spec, Some(1)).is_ok());
    }
}
