//! The full-document key-path merge-sort baseline.
//!
//! This is the comparison system of the paper's experiments: "We read in the
//! entire input document and generate its alternative key-path representation
//! ... We sort the key-path representation using the well-known external
//! merge-sort algorithm" (Section 1). Its weakness -- the reason NEXSORT
//! wins -- is built in faithfully: every record drags its full ancestor key
//! path through every pass, and the pass count grows as `log_{M/B}(N/B)`.

use std::rc::Rc;

use nexsort_extmem::{ByteSink, Disk, Extent, ExtentWriter, IoCat, MemoryBudget, RunId, RunStore};
use nexsort_xml::{
    Event, Rec, RecDecoder, RecEmitter, RecKind, RecXmlWriter, Result, SortSpec, TagDict,
};

use crate::extsort::{external_merge_sort, ExtSortReport};
use crate::resolve::resolve_deferred;
use crate::source::{ExtentRecSource, ParsedRecSource, PathedAdapter, RecSource};

/// Options for a baseline document sort.
#[derive(Debug, Clone)]
pub struct BaselineOptions {
    /// Internal memory, in block frames (the model's `m`).
    pub mem_frames: usize,
    /// Tag-dictionary + end-tag-elimination compaction (Section 3.2).
    pub compaction: bool,
    /// Depth-limited sorting (Section 3.2): levels > `d` keep document order.
    pub depth_limit: Option<u32>,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        Self { mem_frames: 16, compaction: true, depth_limit: None }
    }
}

/// A sorted document produced by the baseline: one flat run of records.
pub struct BaselineSorted {
    /// The run store holding the output.
    pub store: Rc<RunStore>,
    /// The final sorted run (plain records, DFS order of the sorted tree).
    pub run: RunId,
    /// Names dictionary (when compaction was on).
    pub dict: TagDict,
    /// Pass structure of the sort.
    pub report: ExtSortReport,
}

impl BaselineSorted {
    /// Decode the sorted document into records (uses a 2-frame budget of its
    /// own; reading the output is not part of the sort's cost).
    pub fn to_recs(&self) -> Result<Vec<Rec>> {
        let budget = MemoryBudget::new(2);
        crate::extsort::run_to_recs(&self.store, &budget, self.run, IoCat::RunRead)
    }

    /// Reconstruct the sorted document as events (end tags regenerated).
    pub fn to_events(&self) -> Result<Vec<Event>> {
        let recs = self.to_recs()?;
        let mut em = RecEmitter::new(&self.dict);
        let mut out = Vec::new();
        for r in &recs {
            em.push_rec(r, &mut out)?;
        }
        em.finish(&mut out);
        Ok(out)
    }

    /// Stream the sorted document as XML text into `sink`, formatting the
    /// final run's records from their bytes one at a time (a 2-frame budget
    /// of its own, like [`Self::to_recs`]).
    pub fn write_xml(&self, sink: impl ByteSink, pretty: bool) -> Result<()> {
        let budget = MemoryBudget::new(2);
        let mut dec = RecDecoder::new(self.store.open(self.run, &budget, IoCat::RunRead)?);
        let mut w = RecXmlWriter::new(sink, pretty);
        let mut buf = Vec::new();
        while dec.next_encoded(&mut buf)?.is_some() {
            w.push_encoded(&buf, &self.dict)?;
            buf.clear();
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
}

/// Sort an XML text document resident on `disk` with the key-path external
/// merge-sort baseline.
pub fn sort_xml_extent(
    disk: &Rc<Disk>,
    input: &Extent,
    spec: &SortSpec,
    opts: &BaselineOptions,
) -> Result<BaselineSorted> {
    spec.validate()?;
    let budget = MemoryBudget::new(opts.mem_frames);
    let store = RunStore::new(disk.clone());
    let mut src = ParsedRecSource::new(disk.clone(), &budget, input, spec, opts.compaction)?;
    let (run, report) = sort_source(disk, &store, &budget, &mut src, spec, opts)?;
    let dict = src.into_dict();
    Ok(BaselineSorted { store, run, dict, report })
}

/// Sort a pre-encoded record extent (bench fast path; `dict` must be the
/// dictionary the records were encoded against).
pub fn sort_rec_extent(
    disk: &Rc<Disk>,
    input: &Extent,
    dict: TagDict,
    spec: &SortSpec,
    opts: &BaselineOptions,
) -> Result<BaselineSorted> {
    spec.validate()?;
    let budget = MemoryBudget::new(opts.mem_frames);
    let store = RunStore::new(disk.clone());
    let mut src = ExtentRecSource::new(disk.clone(), &budget, input, IoCat::InputRead)?;
    let (run, report) = sort_source(disk, &store, &budget, &mut src, spec, opts)?;
    Ok(BaselineSorted { store, run, dict, report })
}

fn sort_source(
    disk: &Rc<Disk>,
    store: &Rc<RunStore>,
    budget: &MemoryBudget,
    src: &mut dyn RecSource,
    spec: &SortSpec,
    opts: &BaselineOptions,
) -> Result<(RunId, ExtSortReport)> {
    if spec.has_deferred_keys() {
        // Complex criteria: materialize the record stream, resolve the
        // deferred keys with the reversal pre-pass, then sort the resolved
        // stream. (The paper's baseline assumes start-known keys; this is
        // the extension that keeps the comparison possible at all.)
        let mut staged = {
            let mut w = ExtentWriter::new(disk.clone(), budget, IoCat::SortScratch)?;
            let mut buf = Vec::new();
            while src.next_encoded(&mut buf)?.is_some() {
                w.write_all(&buf)?;
                buf.clear();
            }
            w.finish()?
        };
        let mut resolved =
            resolve_deferred(disk, budget, &staged, 0, staged.len(), IoCat::SortScratch)?;
        staged.free(disk)?;
        let inner = ExtentRecSource::new(disk.clone(), budget, &resolved, IoCat::SortScratch)?;
        let mut pathed = PathedAdapter::new(inner, opts.depth_limit);
        let out = external_merge_sort(store, budget, &mut pathed, IoCat::OutputWrite)?;
        resolved.free(disk)?;
        Ok(out)
    } else {
        struct DynAdapter<'a>(&'a mut dyn RecSource);
        impl RecSource for DynAdapter<'_> {
            fn next_rec(&mut self) -> Result<Option<Rec>> {
                self.0.next_rec()
            }

            fn next_encoded(&mut self, out: &mut Vec<u8>) -> Result<Option<(RecKind, u32)>> {
                self.0.next_encoded(out)
            }
        }
        let mut pathed = PathedAdapter::new(DynAdapter(src), opts.depth_limit);
        external_merge_sort(store, budget, &mut pathed, IoCat::OutputWrite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::internal::sorted_dom;
    use crate::source::stage_input;
    use nexsort_xml::{events_to_dom, parse_dom, KeyRule};

    fn spec() -> SortSpec {
        SortSpec::by_attribute("name").with_rule("employee", KeyRule::attr_numeric("ID"))
    }

    fn sort_doc(doc: &str, opts: &BaselineOptions) -> BaselineSorted {
        let disk = Disk::new_mem(128);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        sort_xml_extent(&disk, &input, &spec(), opts).unwrap()
    }

    #[test]
    fn baseline_agrees_with_the_internal_oracle() {
        let doc = "<company><region name=\"NW\"><branch name=\"Miami\"/>\
                   <branch name=\"Durham\"/></region><region name=\"AC\">\
                   <employee ID=\"10\">junior</employee><employee ID=\"9\"/></region></company>";
        let sorted = sort_doc(doc, &BaselineOptions::default());
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        let expect = sorted_dom(&parse_dom(doc.as_bytes()).unwrap(), &spec(), None);
        assert_eq!(got, expect);
    }

    #[test]
    fn output_is_a_legal_permutation_of_the_input() {
        let doc = "<r><a name=\"q\"><b name=\"2\"/><b name=\"1\"/></a><a name=\"p\"/></r>";
        let sorted = sort_doc(doc, &BaselineOptions::default());
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        assert!(parse_dom(doc.as_bytes()).unwrap().permutation_equivalent(&got));
    }

    #[test]
    fn deferred_keys_sort_via_the_resolution_pre_pass() {
        let s =
            SortSpec::uniform(KeyRule::doc_order()).with_rule("item", KeyRule::child_path(&["k"]));
        let doc = "<list><item><k>pear</k></item><item><k>apple</k></item>\
                   <item><k>mango</k></item></list>";
        let disk = Disk::new_mem(128);
        let input = stage_input(&disk, doc.as_bytes()).unwrap();
        let sorted = sort_xml_extent(&disk, &input, &s, &BaselineOptions::default()).unwrap();
        let xml = String::from_utf8(sorted.to_xml(false).unwrap()).unwrap();
        let apple = xml.find("apple").unwrap();
        let mango = xml.find("mango").unwrap();
        let pear = xml.find("pear").unwrap();
        assert!(apple < mango && mango < pear);
    }

    #[test]
    fn depth_limited_baseline_freezes_deep_levels() {
        let doc = "<r><a name=\"z\"><c name=\"2\"/><c name=\"1\"/></a><a name=\"y\"/></r>";
        let opts = BaselineOptions { depth_limit: Some(1), ..Default::default() };
        let sorted = sort_doc(doc, &opts);
        let xml = String::from_utf8(sorted.to_xml(false).unwrap()).unwrap();
        assert!(xml.find("\"y\"").unwrap() < xml.find("\"z\"").unwrap());
        assert!(xml.find("\"2\"").unwrap() < xml.find("\"1\"").unwrap());
        let expect = sorted_dom(&parse_dom(doc.as_bytes()).unwrap(), &spec(), Some(1));
        assert_eq!(events_to_dom(&sorted.to_events().unwrap()).unwrap(), expect);
    }

    #[test]
    fn compaction_off_still_sorts_correctly() {
        let doc = "<r><a name=\"z\"/><a name=\"y\"/></r>";
        let opts = BaselineOptions { compaction: false, ..Default::default() };
        let sorted = sort_doc(doc, &opts);
        let xml = String::from_utf8(sorted.to_xml(false).unwrap()).unwrap();
        assert!(xml.find("\"y\"").unwrap() < xml.find("\"z\"").unwrap());
    }

    #[test]
    fn rec_extent_input_matches_xml_input() {
        use nexsort_xml::{events_to_recs, parse_events};
        let doc = "<r><a name=\"z\"><b name=\"m\"/></a><a name=\"y\"/></r>";
        let from_xml = sort_doc(doc, &BaselineOptions::default());

        let events = parse_events(doc.as_bytes()).unwrap();
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec(), &mut dict, true).unwrap();
        let disk = Disk::new_mem(128);
        let ext = crate::source::stage_recs(&disk, &recs).unwrap();
        let from_recs =
            sort_rec_extent(&disk, &ext, dict, &spec(), &BaselineOptions::default()).unwrap();
        assert_eq!(from_xml.to_recs().unwrap(), from_recs.to_recs().unwrap());
    }

    #[test]
    fn larger_documents_with_tiny_memory_still_sort() {
        let mut doc = String::from("<root>");
        for i in (0..300).rev() {
            doc.push_str(&format!("<item name=\"{i:04}\"><x name=\"b\"/><x name=\"a\"/></item>"));
        }
        doc.push_str("</root>");
        let opts = BaselineOptions { mem_frames: 4, ..Default::default() };
        let sorted = sort_doc(&doc, &opts);
        assert!(sorted.report.initial_runs > 1);
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        let expect = sorted_dom(&parse_dom(doc.as_bytes()).unwrap(), &spec(), None);
        assert_eq!(got, expect);
    }
}
