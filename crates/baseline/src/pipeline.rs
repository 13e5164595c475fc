//! Parsing on a second thread; every transfer on the caller's.
//!
//! Parsing a sort's input is CPU work that needs no device: XML text into
//! encoded records. This module runs it on a worker thread while the calling
//! thread keeps everything that touches the [`Disk`] -- input block reads
//! and the sort itself -- so every transfer is charged where the cost model
//! counts it, and the `Rc`-based substrate never crosses a thread. It is the
//! only place on the sort path that starts threads; nothing here needs a
//! lock or an atomic, only two bounded channels and a join.
//!
//! The caller reads the input's blocks through its [`ExtentReader`] and
//! sends their bytes to the worker, which parses them with [`XmlParser`]
//! and builds records with [`RecBuilder`] into its own [`TagDict`]. The
//! worker closes a batch of records each time the parser has pulled
//! another `W / 2` blocks, tagged with the blocks pulled so far. Before
//! handing out the records of a batch tagged `j`, the caller reads blocks
//! until it has sent `min(j + W, total)` ([`read_ahead_blocks`]). Tags and
//! records depend only on the input, so the position of every input read
//! among the sort's other transfers does too, never on thread timing.
//!
//! A short input is parsed on the calling thread ([`INLINE_BELOW`]); the
//! choice depends only on the input's length.
//!
//! The bytes in flight sit outside the [`MemoryBudget`], like the CLI's
//! [`STREAM_BUF`](nexsort_extmem::STREAM_BUF) buffers: a constant, whatever
//! the document's size. Reserving them from the budget would shrink fan-in
//! and run-formation capacity and so move the logical I/O counts.

use std::cell::RefCell;
use std::panic::resume_unwind;
use std::rc::Rc;
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::thread::JoinHandle;

use nexsort_extmem::{
    ByteReader, Disk, ExtError, Extent, ExtentReader, IoCat, MemoryBudget, SliceReader,
};
use nexsort_xml::{Rec, RecBuilder, RecKind, Result, SortSpec, TagDict, XmlError, XmlParser};

use crate::source::RecSource;

/// Input bytes the caller reads ahead of the parser.
const READ_AHEAD: usize = 64 * 1024;

/// Blocks of `block_size` bytes the caller reads ahead of the parser
/// (`W`): [`READ_AHEAD`] bytes' worth, and at least 2.
fn read_ahead_blocks(block_size: usize) -> u64 {
    (READ_AHEAD / block_size.max(1)).max(2) as u64
}

/// Blocks the parser pulls per batch when the caller reads `ahead` blocks
/// ahead (`B = W / 2`): the worker closes a batch whenever its pull count
/// reaches a multiple of `B`, just before it pulls the next block. The
/// caller, handing out the batch tagged `j`, has sent `j + W` blocks (or
/// all of them), while the worker needs only `j + B` to close the next
/// one: it never waits on a block for a batch the caller waits on. A batch
/// per block would cost two thread handoffs per block.
fn batch_blocks(ahead: u64) -> u64 {
    ahead / 2
}

/// The error a worker sees once the caller has hung up (nobody reads it).
fn hung_up() -> ExtError {
    ExtError::Corrupt("pipeline closed by its caller".into())
}

/// One input block on its way to the parser, carrying a spent batch back
/// for reuse.
struct Block {
    bytes: nexsort_extmem::Result<Vec<u8>>,
    spare: Option<Batch>,
}

/// Records the parser made by the time it had pulled `tag` blocks.
#[derive(Default)]
struct Batch {
    tag: u64,
    /// The records, back to back in the [`Rec::encode`] format.
    recs: Vec<u8>,
    /// Each record's kind, level and end offset in `recs`.
    index: Vec<(RecKind, u32, usize)>,
    /// The blocks the parser finished with since the batch before, for
    /// reuse.
    spent: Vec<Vec<u8>>,
    /// On the stream's last batch: `Ok` at the end of the document, or the
    /// error that followed these records.
    end: Option<Result<()>>,
}

impl Batch {
    /// This batch emptied for reuse, keeping its buffers' capacity.
    fn recycled(mut self) -> Self {
        self.recs.clear();
        self.index.clear();
        self.spent.clear();
        self.end = None;
        self
    }
}

/// Inputs and outputs shorter than this stay on the calling thread: a
/// thread and its handoffs cost more than the little parsing or formatting
/// they could hide (a daemon's 58 KB jobs lost a tenth of their throughput
/// to them).
const INLINE_BELOW: u64 = 256 * 1024;

/// Records produced by parsing XML text from an extent through the
/// event-to-record builder (keys evaluated on the fly): on a worker thread
/// fed by this source's input reads, or for a short input on this thread.
/// [`RecSource::next_rec`] decodes the records for scans that want owned
/// ones.
pub struct ParsedRecSource(Parse);

enum Parse {
    Inline(Inline),
    Piped(Piped),
}

impl ParsedRecSource {
    /// Parse `extent` as XML text (reads charged to [`IoCat::InputRead`],
    /// through one frame of `budget`).
    pub fn new(
        disk: Rc<Disk>,
        budget: &MemoryBudget,
        extent: &Extent,
        spec: &SortSpec,
        compaction: bool,
    ) -> nexsort_extmem::Result<Self> {
        Self::with_threads(disk, budget, extent, spec, compaction, extent.len() >= INLINE_BELOW)
    }

    fn with_threads(
        disk: Rc<Disk>,
        budget: &MemoryBudget,
        extent: &Extent,
        spec: &SortSpec,
        compaction: bool,
        piped: bool,
    ) -> nexsort_extmem::Result<Self> {
        let ahead = read_ahead_blocks(disk.block_size());
        let reader = ExtentReader::new(disk, budget, extent, IoCat::InputRead)?;
        Ok(Self(if piped {
            Parse::Piped(Piped::start(reader, ahead, extent, spec, compaction)?)
        } else {
            Parse::Inline(Inline {
                parser: XmlParser::new(reader),
                builder: RecBuilder::new(spec.clone(), compaction),
                dict: TagDict::new(),
                rec: Vec::new(),
            })
        }))
    }

    /// The tag dictionary the parse built (needed to emit output). Call it
    /// after draining the source: it stops the parse wherever it is.
    pub fn into_dict(self) -> TagDict {
        match self.0 {
            Parse::Inline(inline) => inline.dict,
            Parse::Piped(mut piped) => piped.stop().unwrap_or_default(),
        }
    }

    /// The next record's kind, level and bytes, or `None` at the end of
    /// the stream (and after its error).
    fn next_record(&mut self) -> Result<Option<(RecKind, u32, &[u8])>> {
        match &mut self.0 {
            Parse::Inline(inline) => inline.next_record(),
            Parse::Piped(piped) => piped.next_record(),
        }
    }
}

impl RecSource for ParsedRecSource {
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        match self.next_record()? {
            Some((_, _, rec)) => Ok(Some(Rec::decode(&mut SliceReader::new(rec))?.0)),
            None => Ok(None),
        }
    }

    fn next_encoded(&mut self, out: &mut Vec<u8>) -> Result<Option<(RecKind, u32)>> {
        Ok(self.next_record()?.map(|(kind, level, rec)| {
            out.extend_from_slice(rec);
            (kind, level)
        }))
    }
}

/// The parse on the calling thread: each record built as its events come.
struct Inline {
    parser: XmlParser<ExtentReader>,
    builder: RecBuilder,
    dict: TagDict,
    rec: Vec<u8>,
}

impl Inline {
    fn next_record(&mut self) -> Result<Option<(RecKind, u32, &[u8])>> {
        self.rec.clear();
        while let Some(ev) = self.parser.next_ref()? {
            if let Some((kind, level)) = self.builder.push(&ev, &mut self.dict, &mut self.rec)? {
                return Ok(Some((kind, level, &self.rec)));
            }
        }
        Ok(None)
    }
}

/// The parse on a worker, fed by this side's input reads.
struct Piped {
    reader: ExtentReader,
    /// Blocks in the input, sent to the worker, and to keep sent ahead of
    /// the batch being handed out.
    total: u64,
    sent: u64,
    ahead: u64,
    /// An input read failed; its error went to the worker in its block's
    /// place, and nothing after it is read.
    read_failed: bool,
    /// Block buffers the worker has finished with.
    free_blocks: Vec<Vec<u8>>,
    /// A handed-out batch, to ride back to the worker with the next block.
    spare: Option<Batch>,
    blocks: Option<SyncSender<Block>>,
    batches: Option<Receiver<Batch>>,
    worker: Option<JoinHandle<TagDict>>,
    /// The batch being handed out and the index of its next record.
    batch: Batch,
    next: usize,
    /// The stream's end (or error) has been handed out.
    done: bool,
}

impl Piped {
    /// Start the worker on `extent`, which `reader` reads, `ahead` blocks
    /// ahead of it.
    fn start(
        reader: ExtentReader,
        ahead: u64,
        extent: &Extent,
        spec: &SortSpec,
        compaction: bool,
    ) -> nexsort_extmem::Result<Self> {
        // The caller never has more than `ahead` blocks unreceived, so
        // sending a block never blocks; batches may wait for the caller.
        let (blocks, blocks_rx) = sync_channel(ahead as usize);
        let (batches_tx, batches) = sync_channel(ahead as usize);
        let (len, spec) = (extent.len(), spec.clone());
        let worker = std::thread::Builder::new().name("nexsort-parse".into()).spawn(move || {
            parse(blocks_rx, batches_tx, batch_blocks(ahead), len, spec, compaction)
        })?;
        Ok(Self {
            reader,
            total: extent.num_blocks() as u64,
            sent: 0,
            ahead,
            read_failed: false,
            free_blocks: Vec::new(),
            spare: None,
            blocks: Some(blocks),
            batches: Some(batches),
            worker: Some(worker),
            batch: Batch::default(),
            next: 0,
            done: false,
        })
    }

    /// Hang up on the worker and join it, re-raising its panic unless this
    /// thread is already unwinding.
    fn stop(&mut self) -> Option<TagDict> {
        self.blocks = None;
        self.batches = None;
        match self.worker.take()?.join() {
            Ok(dict) => Some(dict),
            Err(panic) if !std::thread::panicking() => resume_unwind(panic),
            Err(_) => None,
        }
    }

    /// Read and send blocks until `min(tag + W, total)` are sent. A failed
    /// read is sent in its block's place and ends the reading. A worker that
    /// has stopped early (at a parse error) gets none, but the blocks are
    /// read all the same: how many are read must not depend on when it
    /// stopped.
    fn read_ahead(&mut self, tag: u64) {
        let want = (tag + self.ahead).min(self.total);
        while self.sent < want && !self.read_failed {
            let bytes = self.read_block();
            self.read_failed = bytes.is_err();
            let block = Block { bytes, spare: self.spare.take() };
            let Some(tx) = &self.blocks else { return };
            if let Err(SendError(block)) = tx.send(block) {
                self.free_blocks.extend(block.bytes.ok());
                self.spare = block.spare;
            }
            self.sent += 1;
        }
    }

    fn read_block(&mut self) -> nexsort_extmem::Result<Vec<u8>> {
        self.reader.fill()?;
        let mut buf = self.free_blocks.pop().unwrap_or_default();
        buf.clear();
        let bytes = self.reader.resident();
        buf.extend_from_slice(bytes);
        let n = bytes.len();
        self.reader.consume(n);
        Ok(buf)
    }

    /// Retire the handed-out batch and receive the next one, reading ahead
    /// for it first.
    fn next_batch(&mut self) -> Result<()> {
        self.read_ahead(self.batch.tag);
        let received = self.batches.as_ref().map(|rx| rx.recv());
        let Some(Ok(mut batch)) = received else {
            // The worker ended without its last batch: it panicked.
            self.stop();
            return Err(XmlError::Ext(hung_up()));
        };
        self.free_blocks.append(&mut batch.spent);
        let old = std::mem::replace(&mut self.batch, batch);
        self.spare = Some(old.recycled());
        self.next = 0;
        if self.batch.end.is_none() {
            self.read_ahead(self.batch.tag);
        }
        Ok(())
    }

    /// The next record's kind, level and bytes, or `None` at the end of
    /// the stream (and after its error).
    fn next_record(&mut self) -> Result<Option<(RecKind, u32, &[u8])>> {
        loop {
            if let Some(&(kind, level, end)) = self.batch.index.get(self.next) {
                let start = self.next.checked_sub(1).map_or(0, |i| self.batch.index[i].2);
                self.next += 1;
                return Ok(Some((kind, level, &self.batch.recs[start..end])));
            }
            if self.done {
                return Ok(None);
            }
            if let Some(end) = self.batch.end.take() {
                self.done = true;
                return end.map(|()| None);
            }
            self.next_batch()?;
        }
    }
}

impl Drop for Piped {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The worker's side of a batch: filled by the record builder, closed by
/// [`Feed::fill`] each time the parser has pulled another `B` blocks.
struct Outbox {
    tx: SyncSender<Batch>,
    batch: Batch,
    free: Vec<Batch>,
    /// Blocks the parser has pulled, and pulls per batch (`B`).
    pulled: u64,
    per_batch: u64,
}

impl Outbox {
    /// Send the open batch, tagged with the blocks pulled so far; false
    /// once the caller has hung up.
    fn close(&mut self, end: Option<Result<()>>) -> bool {
        let fresh = self.free.pop().unwrap_or_default();
        let mut batch = std::mem::replace(&mut self.batch, fresh);
        batch.tag = self.pulled;
        batch.end = end;
        self.tx.send(batch).is_ok()
    }
}

/// The parser's input on the worker: one block at a time off the channel.
struct Feed {
    rx: Receiver<Block>,
    out: Rc<RefCell<Outbox>>,
    block: Vec<u8>,
    at: usize,
    /// Input bytes not yet consumed.
    left: u64,
}

impl ByteReader for Feed {
    fn read_exact(&mut self, buf: &mut [u8]) -> nexsort_extmem::Result<()> {
        if buf.len() as u64 > self.left {
            return Err(ExtError::UnexpectedEof {
                wanted: buf.len(),
                available: self.left as usize,
            });
        }
        let mut filled = 0;
        while filled < buf.len() {
            self.fill()?;
            let take = self.resident().len().min(buf.len() - filled);
            if take == 0 {
                return Err(ExtError::Corrupt("an input block arrived empty".into()));
            }
            buf[filled..filled + take].copy_from_slice(&self.resident()[..take]);
            self.consume(take);
            filled += take;
        }
        Ok(())
    }

    fn remaining(&self) -> u64 {
        self.left
    }

    fn resident(&self) -> &[u8] {
        &self.block[self.at..]
    }

    fn consume(&mut self, n: usize) {
        let n = n.min(self.block.len() - self.at);
        self.at += n;
        self.left -= n as u64;
    }

    /// Pull the next block once this one is used up, first closing the
    /// batch of the records made so far if it has pulled another `B`.
    fn fill(&mut self) -> nexsort_extmem::Result<()> {
        if self.at < self.block.len() || self.left == 0 {
            return Ok(());
        }
        let mut out = self.out.borrow_mut();
        let spent = std::mem::take(&mut self.block);
        if spent.capacity() > 0 {
            out.batch.spent.push(spent);
        }
        if out.pulled.is_multiple_of(out.per_batch) && !out.close(None) {
            return Err(hung_up());
        }
        let block = self.rx.recv().map_err(|_| hung_up())?;
        if let Some(spare) = block.spare {
            out.free.push(spare);
        }
        self.block = block.bytes?;
        self.at = 0;
        out.pulled += 1;
        Ok(())
    }
}

/// The input worker: parse the blocks as they come, build records into
/// batches, and return the dictionary.
fn parse(
    blocks: Receiver<Block>,
    batches: SyncSender<Batch>,
    per_batch: u64,
    len: u64,
    spec: SortSpec,
    compaction: bool,
) -> TagDict {
    let outbox =
        Outbox { tx: batches, batch: Batch::default(), free: Vec::new(), pulled: 0, per_batch };
    let outbox = Rc::new(RefCell::new(outbox));
    let feed = Feed { rx: blocks, out: Rc::clone(&outbox), block: Vec::new(), at: 0, left: len };
    let mut parser = XmlParser::new(feed);
    let mut builder = RecBuilder::new(spec, compaction);
    let mut dict = TagDict::new();
    let end = loop {
        let ev = match parser.next_ref() {
            Ok(Some(ev)) => ev,
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        };
        let mut out = outbox.borrow_mut();
        let batch = &mut out.batch;
        match builder.push(&ev, &mut dict, &mut batch.recs) {
            Ok(Some((kind, level))) => batch.index.push((kind, level, batch.recs.len())),
            Ok(None) => {}
            Err(e) => break Err(e),
        }
    };
    outbox.borrow_mut().close(Some(end));
    dict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::stage_input;
    use nexsort_datagen::{collect_events, AuctionConfig, AuctionGen, ExactGen, GenConfig, IbmGen};
    use nexsort_extmem::{ByteSink, ExtentWriter, FaultKind, FaultPlan, MemDevice};
    use nexsort_xml::{events_to_xml, EventSource, KeyRule};

    /// A source over `ext`: parsed on a worker, or as the sorters always
    /// parsed before the pipeline (the oracle), on this thread.
    fn source(
        disk: &Rc<Disk>,
        ext: &Extent,
        spec: &SortSpec,
        compaction: bool,
        piped: bool,
    ) -> ParsedRecSource {
        let budget = MemoryBudget::new(1);
        ParsedRecSource::with_threads(disk.clone(), &budget, ext, spec, compaction, piped).unwrap()
    }

    /// Everything a drain shows: each record's kind, level and bytes, then
    /// how the stream ended (an error as its text).
    type Drained = (Vec<(RecKind, u32, Vec<u8>)>, std::result::Result<(), String>);

    fn drain(src: &mut ParsedRecSource) -> Drained {
        let mut recs = Vec::new();
        loop {
            let mut buf = Vec::new();
            match src.next_encoded(&mut buf) {
                Ok(Some((kind, level))) => recs.push((kind, level, buf)),
                Ok(None) => return (recs, Ok(())),
                Err(e) => return (recs, Err(e.to_string())),
            }
        }
    }

    fn names(dict: &TagDict) -> Vec<Vec<u8>> {
        (0..dict.len() as u32).map(|id| dict.resolve(id).unwrap().to_vec()).collect()
    }

    /// Parse `doc` on `block`-byte blocks on a worker and on this thread;
    /// the records, the ending, the dictionary and the input reads must
    /// agree. After a parse error in block `p` the worker's side has read
    /// on to `j + W` blocks (as far as the input goes), `j` the last batch
    /// tag before `p`, the greatest multiple of `B` below `p`.
    fn agree(doc: &[u8], block: usize, spec: &SortSpec, compaction: bool) -> Drained {
        let run = |piped: bool| {
            let disk = Disk::new_mem(block);
            let ext = stage_input(&disk, doc).unwrap();
            let mut src = source(&disk, &ext, spec, compaction, piped);
            let drained = drain(&mut src);
            let reads = disk.stats().reads(IoCat::InputRead);
            (drained, names(&src.into_dict()), reads, ext.num_blocks() as u64)
        };
        let (want, got) = (run(false), run(true));
        assert_eq!(got.0, want.0, "block {block}, compaction {compaction}");
        assert_eq!(got.1, want.1, "dictionary, block {block}");
        let reads = match want.0 .1 {
            Ok(()) => want.2,
            Err(_) => {
                let ahead = read_ahead_blocks(block);
                let per_batch = batch_blocks(ahead);
                (want.2.saturating_sub(1) / per_batch * per_batch + ahead).min(want.3)
            }
        };
        assert_eq!(got.2, reads, "input reads, block {block}");
        got.0
    }

    fn xml(src: &mut dyn EventSource) -> Vec<u8> {
        events_to_xml(&collect_events(src).unwrap(), false)
    }

    #[test]
    fn records_and_dictionary_equal_the_inline_parse_on_generated_documents() {
        let cfg = GenConfig { seed: 5, avg_elem_bytes: 60, ..Default::default() };
        let docs = [
            xml(&mut ExactGen::new(&[3, 4, 5], cfg.clone())),
            xml(&mut ExactGen::new(&[40], cfg.clone())),
            xml(&mut IbmGen::new(4, 6, Some(300), cfg)),
            xml(&mut AuctionGen::new(AuctionConfig { seed: 5, sellers: 6, ..Default::default() })),
        ];
        let specs = [
            SortSpec::by_attribute("k"),
            nexsort_datagen::auction_spec(),
            SortSpec::uniform(KeyRule::attr("id"))
                .with_rule("item", KeyRule::child_path(&["description"])),
        ];
        for doc in &docs {
            for block in [64, 100, 4096] {
                for spec in &specs {
                    for compaction in [true, false] {
                        let (recs, end) = agree(doc, block, spec, compaction);
                        assert!(!recs.is_empty() && end.is_ok());
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_documents_fail_after_the_same_records_with_the_same_error() {
        let body = "<a k=\"1\">text &amp; more</a>".repeat(20);
        let docs = [
            format!("<r>{body}<a k=\"2\">"),
            format!("<r>{body}</r><r/>"),
            format!("<r>{body}<a>&bogus;</a></r>"),
            // An early error in a long input: the read-ahead stops short of
            // its end.
            format!("<r>{body}<a>&bogus;</a>{}</r>", "<a/>".repeat(50_000)),
            format!("<r>{body}</r>stray"),
            String::new(),
        ];
        let spec = SortSpec::by_attribute("k");
        for doc in &docs {
            for block in [64, 100, 4096] {
                let (_, end) = agree(doc.as_bytes(), block, &spec, true);
                assert!(end.is_err(), "{doc:?} must fail");
            }
        }
    }

    #[test]
    fn a_failed_input_read_arrives_where_the_parser_needs_its_block() {
        let doc = format!("<r>{}</r>", "<a k=\"1\">some text</a>".repeat(200));
        let spec = SortSpec::by_attribute("k");
        let run = |piped: bool| {
            let (disk, injector) =
                Disk::new_faulty(Box::new(MemDevice::new(64)), FaultPlan::new(1));
            let ext = stage_input(&disk, doc.as_bytes()).unwrap();
            injector.script_block_read(ext.blocks()[40], FaultKind::TransientError);
            drain(&mut source(&disk, &ext, &spec, true, piped))
        };
        let (want, got) = (run(false), run(true));
        assert!(want.1.is_err());
        assert_eq!(got, want);
    }

    #[test]
    fn short_inputs_are_parsed_inline_and_long_ones_on_a_worker() {
        let spec = SortSpec::by_attribute("k");
        let disk = Disk::new_mem(4096);
        let budget = MemoryBudget::new(1);
        for (len, piped) in [(100, false), (INLINE_BELOW as usize, true)] {
            let doc = format!("<r>{}</r>", " ".repeat(len - 7));
            let ext = stage_input(&disk, doc.as_bytes()).unwrap();
            let src = ParsedRecSource::new(disk.clone(), &budget, &ext, &spec, true).unwrap();
            assert_eq!(matches!(src.0, Parse::Piped(_)), piped, "{len} bytes");
        }
    }

    #[test]
    fn dropping_the_source_after_any_record_stops_the_worker() {
        let doc = format!("<r>{}</r>", "<a k=\"1\"><b/>t</a>".repeat(30));
        let spec = SortSpec::by_attribute("k");
        let disk = Disk::new_mem(64);
        let ext = stage_input(&disk, doc.as_bytes()).unwrap();
        let budget = MemoryBudget::new(1);
        let start = || {
            ParsedRecSource::with_threads(disk.clone(), &budget, &ext, &spec, true, true).unwrap()
        };
        let n = drain(&mut start()).0.len();
        for k in 0..=n {
            let mut src = start();
            for _ in 0..k {
                src.next_encoded(&mut Vec::new()).unwrap().unwrap();
            }
            if k % 2 == 0 {
                drop(src);
            } else {
                src.into_dict();
            }
            assert_eq!(budget.free_frames(), 1, "the frame comes back after {k} records");
        }
    }

    #[test]
    fn the_transfer_order_is_a_function_of_the_input() {
        let doc = xml(&mut ExactGen::new(&[10, 10, 12], GenConfig::default()));
        let spec = SortSpec::by_attribute("k");
        let trace = || {
            let disk = Disk::new_mem(256);
            let ext = stage_input(&disk, &doc).unwrap();
            let budget = MemoryBudget::new(2);
            let mut src =
                ParsedRecSource::with_threads(disk.clone(), &budget, &ext, &spec, true, true)
                    .unwrap();
            // A write per record: the input reads' places among them must
            // never move.
            let mut w = ExtentWriter::new(disk.clone(), &budget, IoCat::SortScratch).unwrap();
            disk.start_trace();
            let mut buf = Vec::new();
            while src.next_encoded(&mut buf).unwrap().is_some() {
                w.write_all(&buf).unwrap();
                buf.clear();
            }
            w.finish().unwrap();
            disk.take_trace().iter().map(|t| (t.is_read, t.block)).collect::<Vec<_>>()
        };
        let first = trace();
        let reads = first.iter().filter(|t| t.0).count() as u64;
        assert!(reads > 2 * read_ahead_blocks(256), "the input outruns the read-ahead");
        assert!(first.len() as u64 > reads, "writes interleave with the reads");
        for _ in 0..20 {
            assert_eq!(trace(), first);
        }
    }
}
