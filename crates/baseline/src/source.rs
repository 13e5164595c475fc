//! Record sources: uniform streaming input for the sorters.
//!
//! Both sorters consume a document as a stream of records. The stream can
//! come from parsing XML text resident on the device (charging `input-read`
//! I/Os, the paper's "Reading the input") or from an already-encoded record
//! extent (used by the benchmarks to factor out parse CPU, and internally
//! after the deferred-key resolution pre-pass).

use nexsort_extmem::{
    ByteReader, Disk, Extent, ExtentReader, IoCat, MemoryBudget, SliceReader, STREAM_BUF,
};
use nexsort_xml::{
    EncodedPath, EventSource, KeyValue, PathedRec, Rec, RecBuilder, RecDecoder, Result, SortSpec,
    TagDict, XmlError, XmlParser,
};
use std::io::{BufRead, BufReader, Read};
use std::rc::Rc;

/// A stream of records in document order.
pub trait RecSource {
    /// The next record, or `None` at end of stream.
    fn next_rec(&mut self) -> Result<Option<Rec>>;
}

/// Records decoded from an extent of encoded records.
pub struct ExtentRecSource {
    dec: RecDecoder<ExtentReader>,
}

impl ExtentRecSource {
    /// Stream all records of `extent`, charging reads to `cat`.
    pub fn new(
        disk: Rc<Disk>,
        budget: &MemoryBudget,
        extent: &Extent,
        cat: IoCat,
    ) -> nexsort_extmem::Result<Self> {
        let reader = ExtentReader::new(disk, budget, extent, cat)?;
        Ok(Self { dec: RecDecoder::new(reader) })
    }

    /// Stream `len` bytes of records starting at `start` within `extent`
    /// (used to stream a subtree range off the data stack).
    pub fn range(
        disk: Rc<Disk>,
        budget: &MemoryBudget,
        extent: &Extent,
        start: u64,
        len: u64,
        cat: IoCat,
    ) -> nexsort_extmem::Result<Self> {
        let mut reader = ExtentReader::new(disk, budget, extent, cat)?;
        reader.seek(start);
        Ok(Self { dec: RecDecoder::with_limit(reader, len) })
    }
}

impl RecSource for ExtentRecSource {
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        self.dec.next_rec()
    }
}

/// Records produced by parsing XML text from an extent through the
/// event-to-record builder (keys evaluated on the fly).
pub struct ParsedRecSource {
    parser: XmlParser<ExtentReader>,
    builder: RecBuilder,
    dict: TagDict,
    queue: std::collections::VecDeque<Rec>,
    scratch: Vec<Rec>,
}

impl ParsedRecSource {
    /// Parse `extent` as XML text (reads charged to [`IoCat::InputRead`]).
    pub fn new(
        disk: Rc<Disk>,
        budget: &MemoryBudget,
        extent: &Extent,
        spec: &SortSpec,
        compaction: bool,
    ) -> nexsort_extmem::Result<Self> {
        let reader = ExtentReader::new(disk, budget, extent, IoCat::InputRead)?;
        Ok(Self {
            parser: XmlParser::new(reader),
            builder: RecBuilder::new(spec.clone(), compaction),
            dict: TagDict::new(),
            queue: std::collections::VecDeque::new(),
            scratch: Vec::new(),
        })
    }

    /// The tag dictionary accumulated while parsing (needed to emit output).
    pub fn into_dict(self) -> TagDict {
        self.dict
    }

    /// Borrow the dictionary built so far.
    pub fn dict(&self) -> &TagDict {
        &self.dict
    }
}

impl RecSource for ParsedRecSource {
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        loop {
            if let Some(rec) = self.queue.pop_front() {
                return Ok(Some(rec));
            }
            match self.parser.next_event()? {
                None => return Ok(None),
                Some(ev) => {
                    self.scratch.clear();
                    self.builder.push_event(&ev, &mut self.dict, &mut self.scratch)?;
                    self.queue.extend(self.scratch.drain(..));
                }
            }
        }
    }
}

/// An in-memory record source (tests, generators).
pub struct VecRecSource {
    recs: std::vec::IntoIter<Rec>,
}

impl VecRecSource {
    /// Stream the given records.
    pub fn new(recs: Vec<Rec>) -> Self {
        Self { recs: recs.into_iter() }
    }
}

impl RecSource for VecRecSource {
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        Ok(self.recs.next())
    }
}

/// A stream of key-path-annotated records.
pub trait PathedSource {
    /// Append the next record's encoded `(path, rec)` pair (the
    /// [`PathedRec`] format) to `out` and return its path prefix's length,
    /// or `None` at end of stream.
    fn next_encoded(&mut self, out: &mut Vec<u8>) -> Result<Option<usize>>;

    /// The next annotated record, decoded (or `None` at end of stream).
    fn next_pathed(&mut self) -> Result<Option<PathedRec>> {
        let mut buf = Vec::new();
        if self.next_encoded(&mut buf)?.is_none() {
            return Ok(None);
        }
        Ok(Some(PathedRec::decode(&mut SliceReader::new(&buf))?.0))
    }
}

/// Adapts a [`RecSource`] (deferred keys already resolved) into a
/// [`PathedSource`] by tracking the root-to-here path over level
/// transitions. `depth_limit` implements depth-limited sorting: with
/// `Some(d)`, only elements at level <= `d` have their children reordered,
/// so path components at levels > `d + 1` are masked to `Missing` and those
/// siblings keep document order (the sequence tiebreak).
pub struct PathedAdapter<S: RecSource> {
    src: S,
    path: EncodedPath,
    base: u32,
    depth_limit: Option<u32>,
    started: bool,
}

impl<S: RecSource> PathedAdapter<S> {
    /// Adapt `src`; the first record's level defines the path base (so
    /// subtree streams with absolute levels work unchanged).
    pub fn new(src: S, depth_limit: Option<u32>) -> Self {
        Self { src, path: EncodedPath::new(), base: 0, depth_limit, started: false }
    }

    /// Recover the wrapped source.
    pub fn into_inner(self) -> S {
        self.src
    }
}

impl<S: RecSource> PathedSource for PathedAdapter<S> {
    fn next_encoded(&mut self, out: &mut Vec<u8>) -> Result<Option<usize>> {
        let Some(rec) = self.src.next_rec()? else {
            return Ok(None);
        };
        if matches!(rec, Rec::KeyPatch(_)) {
            return Err(XmlError::Record(
                "deferred keys must be resolved before key-path sorting".into(),
            ));
        }
        if !self.started {
            self.base = rec.level().saturating_sub(1);
            self.started = true;
        }
        if rec.level() <= self.base {
            return Err(XmlError::Record(format!(
                "record level {} at or below stream base {}",
                rec.level(),
                self.base
            )));
        }
        let rel = (rec.level() - self.base) as usize;
        if rel > self.path.depth() + 1 {
            return Err(XmlError::Record(format!(
                "level jump to {} (relative {rel}) in pathed stream",
                rec.level()
            )));
        }
        self.path.truncate(rel - 1);
        let masked = self.depth_limit.is_some_and(|d| rec.level() > d + 1);
        let key = if masked { &KeyValue::Missing } else { rec.key() };
        self.path.push(key, rec.seq())?;
        Ok(Some(self.path.encode_with(&rec, out)?))
    }
}

/// Store a byte buffer on the disk as a fresh extent (test/bench helper for
/// staging input documents; writes are *not* charged -- staging the input is
/// not part of the measured sort).
pub fn stage_input(disk: &Rc<Disk>, data: &[u8]) -> nexsort_extmem::Result<Extent> {
    stage_reader(disk, data)
}

/// Copy everything `src` yields onto the disk as a fresh extent, through one
/// fixed [`STREAM_BUF`] buffer, so staging a file never holds the file in
/// memory. Uncharged like [`stage_input`]: staging is setup, not sort cost.
pub fn stage_reader(disk: &Rc<Disk>, src: impl Read) -> nexsort_extmem::Result<Extent> {
    use nexsort_extmem::ByteSink;
    // A private budget so staging never competes with the sort's frames.
    let staging_budget = MemoryBudget::new(1);
    let stats = disk.stats();
    let before = stats.snapshot();
    let mut w =
        nexsort_extmem::ExtentWriter::new(disk.clone(), &staging_budget, IoCat::SortScratch)?;
    // A `BufReader`'s buffer is filled by the reads themselves, so a small
    // input costs only the pages it touches, not the whole buffer.
    let mut src = BufReader::with_capacity(STREAM_BUF, src);
    loop {
        let n = match src.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => {
                w.write_all(chunk)?;
                chunk.len()
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        src.consume(n);
    }
    let ext = w.finish()?;
    // Roll back the accounting (logical and physical): staging is setup,
    // not algorithm cost.
    let delta = stats.snapshot().since(&before);
    // xlint::allow(R7): staging is deliberately invisible to measurements.
    stats.sub_writes(IoCat::SortScratch, delta.writes(IoCat::SortScratch));
    stats.sub_phys_writes(IoCat::SortScratch, delta.phys_writes(IoCat::SortScratch)); // xlint::allow(R7)
    Ok(ext)
}

/// Encode records into a staged extent (bench helper; uncharged like
/// [`stage_input`]).
pub fn stage_recs(disk: &Rc<Disk>, recs: &[Rec]) -> Result<Extent> {
    let mut buf = Vec::new();
    for r in recs {
        r.encode(&mut buf)?;
    }
    Ok(stage_input(disk, &buf)?)
}

/// Read back an extent into a byte vector (test helper, uncharged the same
/// way as staging).
pub fn unstage(disk: &Rc<Disk>, extent: &Extent) -> nexsort_extmem::Result<Vec<u8>> {
    let budget = MemoryBudget::new(1);
    let stats = disk.stats();
    let before = stats.snapshot();
    let mut r = ExtentReader::new(disk.clone(), &budget, extent, IoCat::SortScratch)?;
    let mut out = vec![0u8; extent.len() as usize];
    r.read_exact(&mut out)?;
    let delta = stats.snapshot().since(&before);
    // xlint::allow(R7): unstaging is deliberately invisible to measurements.
    stats.sub_reads(IoCat::SortScratch, delta.reads(IoCat::SortScratch));
    stats.sub_phys_reads(IoCat::SortScratch, delta.phys_reads(IoCat::SortScratch)); // xlint::allow(R7)
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_xml::{events_to_recs, parse_events};

    fn setup() -> (Rc<Disk>, MemoryBudget) {
        (Disk::new_mem(64), MemoryBudget::new(16))
    }

    #[test]
    fn parsed_source_streams_records_and_charges_input_reads() {
        let (disk, budget) = setup();
        let doc = b"<r><a name=\"z\"/><a name=\"y\"/></r>";
        let ext = stage_input(&disk, doc).unwrap();
        assert_eq!(disk.stats().grand_total(), 0, "staging is uncharged");
        let spec = SortSpec::by_attribute("name");
        let mut src = ParsedRecSource::new(disk.clone(), &budget, &ext, &spec, true).unwrap();
        let mut n = 0;
        while src.next_rec().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(disk.stats().reads(IoCat::InputRead) >= 1);
        assert_eq!(src.into_dict().len(), 3); // r, a, name
    }

    #[test]
    fn stage_reader_matches_stage_input_whatever_the_read_sizes() {
        /// Yields 7 bytes per read, interrupted before every other read.
        struct Trickle<'a>(&'a [u8], bool);
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let n = buf.len().min(7).min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let disk = Disk::new_mem(64);
        let ext = stage_reader(&disk, Trickle(&data, false)).unwrap();
        assert_eq!(disk.stats().grand_total(), 0, "staging is uncharged");
        assert_eq!(ext.num_blocks(), stage_input(&disk, &data).unwrap().num_blocks());
        assert_eq!(unstage(&disk, &ext).unwrap(), data);
    }

    #[test]
    fn extent_source_roundtrips_encoded_records() {
        let (disk, budget) = setup();
        let events = parse_events(b"<r><b name=\"x\">t</b></r>").unwrap();
        let spec = SortSpec::by_attribute("name");
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
        let ext = stage_recs(&disk, &recs).unwrap();
        let mut src = ExtentRecSource::new(disk, &budget, &ext, IoCat::SortScratch).unwrap();
        let mut out = Vec::new();
        while let Some(r) = src.next_rec().unwrap() {
            out.push(r);
        }
        assert_eq!(out, recs);
    }

    #[test]
    fn pathed_adapter_builds_paths_with_subtree_base() {
        use nexsort_xml::{ElemRec, NameRef};
        // A subtree stream starting at absolute level 3.
        let recs = vec![
            Rec::Elem(ElemRec {
                level: 3,
                name: NameRef::Sym(0),
                attrs: vec![],
                key: KeyValue::Num(1),
                seq: 0,
            }),
            Rec::Elem(ElemRec {
                level: 4,
                name: NameRef::Sym(0),
                attrs: vec![],
                key: KeyValue::Num(2),
                seq: 1,
            }),
        ];
        let mut a = PathedAdapter::new(VecRecSource::new(recs), None);
        let p1 = a.next_pathed().unwrap().unwrap();
        assert_eq!(p1.path.len(), 1);
        let p2 = a.next_pathed().unwrap().unwrap();
        assert_eq!(p2.path.len(), 2);
        assert_eq!(p2.path.comps[0].key, KeyValue::Num(1));
    }

    #[test]
    fn encoded_pairs_match_the_decoded_path_builder() {
        let doc = b"<r name=\"r\"><a name=\"z\"><c name=\"2\">t</c><c/></a><b name=\"y\"/></r>";
        let events = parse_events(doc).unwrap();
        let spec = SortSpec::by_attribute("name");
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
        let mut expect = Vec::new();
        for p in nexsort_xml::attach_paths(recs.clone()).unwrap() {
            p.encode(&mut expect).unwrap();
        }
        let mut a = PathedAdapter::new(VecRecSource::new(recs), None);
        let mut got = Vec::new();
        while let Some(path_len) = a.next_encoded(&mut got).unwrap() {
            assert!(path_len > 0);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn pathed_adapter_masks_above_depth_limit() {
        let events = parse_events(b"<r><a name=\"z\"><c name=\"2\"/></a></r>").unwrap();
        let spec = SortSpec::by_attribute("name");
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
        // d = 1: only the root's children get sorted, so level-3 components
        // (children of level-2 elements) are masked.
        let mut a = PathedAdapter::new(VecRecSource::new(recs), Some(1));
        let _r = a.next_pathed().unwrap().unwrap();
        let _a = a.next_pathed().unwrap().unwrap();
        let c = a.next_pathed().unwrap().unwrap();
        assert_eq!(c.path.comps[2].key, KeyValue::Missing, "level-3 key masked");
        assert_ne!(c.path.comps[1].key, KeyValue::Missing, "level-2 key kept");
    }

    #[test]
    fn pathed_adapter_rejects_unresolved_patches() {
        use nexsort_xml::PatchRec;
        let recs = vec![Rec::KeyPatch(PatchRec { level: 1, key: KeyValue::Num(1) })];
        let mut a = PathedAdapter::new(VecRecSource::new(recs), None);
        assert!(a.next_pathed().is_err());
    }

    #[test]
    fn stage_and_unstage_are_inverse_and_uncharged() {
        let (disk, _) = setup();
        let data: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        let ext = stage_input(&disk, &data).unwrap();
        let back = unstage(&disk, &ext).unwrap();
        assert_eq!(back, data);
        assert_eq!(disk.stats().grand_total(), 0);
    }
}
