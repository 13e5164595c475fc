//! An external-memory priority queue over the run store.
//!
//! Wei & Yi (PAPERS.md) prove external priority queues and external sorting
//! are I/O-equivalent; this queue is the constructive direction over
//! NEXSORT's substrate. Entries are `(key bytes, insertion seq)` pairs,
//! ordered lexicographically by key with the monotone sequence number
//! breaking ties FIFO -- exactly a `BTreeMap<(key, seq), ()>`'s iteration
//! order, which the tests use as the oracle.
//!
//! * **push** appends to an in-memory buffer; when the buffer outgrows its
//!   frame budget it is sorted once and sealed as an *insertion run*
//!   (charged to [`IoCat::SortScratch`], parity-protected if the store is
//!   configured for it).
//! * **pop / peek** take the minimum across the buffer and the head of
//!   every open insertion run -- a lazy merge that reads each run
//!   sequentially, block by block, through the self-healing
//!   [`RunReader`](nexsort_extmem::RunReader).
//! * **lazy deletion.** Popping a run entry only advances that run's
//!   cursor: the consumed prefix is a *tombstone* region still on disk.
//!   Tombstones cost nothing until restructuring; a fully-consumed run's
//!   blocks are recycled immediately.
//! * **amortized restructuring.** When open runs exceed the merge fan-in,
//!   the live suffixes of all runs are merged into one fresh run and the
//!   tombstoned prefixes dropped for good. Each entry is rewritten at most
//!   once per fan-in-fold of queue growth -- the sorting-equivalent cost.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

use nexsort_extmem::{ByteSink, Disk, IoCat, MemoryBudget, RunId, RunReader, RunStore};
use nexsort_xml::{
    read_bytes, read_uvarint, uvarint_len, write_bytes, write_uvarint, Result, XmlError,
};

/// One queue entry: key bytes plus the monotone insertion sequence that
/// makes every entry unique (and equal keys FIFO).
type Entry = (Vec<u8>, u64);

fn entry_len(e: &Entry) -> u64 {
    (uvarint_len(e.0.len() as u64) + e.0.len() + uvarint_len(e.1)) as u64
}

/// Counters for one queue's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct PqStats {
    /// Entries pushed.
    pub pushes: u64,
    /// Entries popped.
    pub pops: u64,
    /// Insertion runs sealed.
    pub runs_sealed: u64,
    /// Restructuring merges performed.
    pub restructures: u64,
    /// Entries whose tombstoned (already-popped) prefix bytes were dropped
    /// by a restructuring instead of being rewritten.
    pub tombstones_dropped: u64,
}

/// A cursor over one sealed insertion run: the decoded head entry plus how
/// much of the run is still live.
struct Cursor {
    run: RunId,
    reader: RunReader,
    head: Entry,
    /// Encoded bytes not yet consumed (head excluded).
    left: u64,
    /// Entries not yet consumed (head included).
    remaining: u64,
    /// Entries consumed so far: the tombstoned prefix.
    consumed: u64,
}

impl Cursor {
    /// Advance past the head; false when the run is exhausted.
    fn advance(&mut self) -> Result<bool> {
        self.consumed += 1;
        self.remaining -= 1;
        if self.remaining == 0 {
            return Ok(false);
        }
        self.head = decode_entry(&mut self.reader)?;
        self.left = self.left.saturating_sub(entry_len(&self.head));
        Ok(true)
    }
}

fn decode_entry(reader: &mut RunReader) -> Result<Entry> {
    let key = read_bytes(reader)?;
    let seq = read_uvarint(reader)?;
    Ok((key, seq))
}

/// An external priority queue backed by sealed runs. Single-threaded, like
/// the rest of the substrate; the server wraps one per job.
pub struct ExtPq {
    disk: Rc<Disk>,
    store: Rc<RunStore>,
    budget: MemoryBudget,
    /// In-memory insertion buffer (min-heap via `Reverse`).
    buffer: BinaryHeap<std::cmp::Reverse<Entry>>,
    buffer_bytes: u64,
    capacity_bytes: u64,
    cursors: Vec<Cursor>,
    next_seq: u64,
    /// Counters.
    pub stats: PqStats,
}

impl ExtPq {
    /// A queue on `disk` metered by `mem_frames` block frames: roughly half
    /// buffer the in-memory insertion batch, the rest bound how many
    /// insertion runs may be open before a restructuring merge folds them.
    /// `parity_group > 0` seals insertion runs with XOR parity (see
    /// [`RunStore::set_parity_group`]).
    pub fn new(disk: Rc<Disk>, mem_frames: usize, parity_group: usize) -> Result<Self> {
        if mem_frames < 4 {
            return Err(XmlError::Ext(nexsort_extmem::ExtError::BudgetExceeded {
                requested: 4,
                free: mem_frames,
            }));
        }
        let budget = MemoryBudget::new(mem_frames);
        let store = RunStore::new(disk.clone());
        store.set_parity_group(parity_group);
        let capacity_bytes = (mem_frames / 2).max(1) as u64 * disk.block_size() as u64;
        Ok(Self {
            disk,
            store,
            budget,
            buffer: BinaryHeap::new(),
            buffer_bytes: 0,
            capacity_bytes,
            cursors: Vec::new(),
            next_seq: 0,
            stats: PqStats::default(),
        })
    }

    /// Entries currently in the queue.
    pub fn len(&self) -> u64 {
        self.buffer.len() as u64 + self.cursors.iter().map(|c| c.remaining).sum::<u64>()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The run store backing the queue (tests scrub/fault it directly).
    pub fn store(&self) -> &Rc<RunStore> {
        &self.store
    }

    /// Insert `key`. Equal keys pop in insertion order.
    pub fn push(&mut self, key: &[u8]) -> Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let e: Entry = (key.to_vec(), seq);
        self.buffer_bytes += entry_len(&e);
        self.buffer.push(std::cmp::Reverse(e));
        self.stats.pushes += 1;
        if self.buffer_bytes >= self.capacity_bytes {
            self.seal_buffer()?;
        }
        Ok(())
    }

    /// The minimum entry's key without removing it.
    pub fn peek(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.min_source().map(|src| match src {
            MinSource::Buffer => self.buffer.peek().map(|r| r.0 .0.clone()).unwrap_or_default(),
            MinSource::Cursor(i) => self.cursors[i].head.0.clone(),
        }))
    }

    /// Remove and return the minimum key.
    pub fn pop(&mut self) -> Result<Option<Vec<u8>>> {
        let Some(src) = self.min_source() else {
            return Ok(None);
        };
        let key = match src {
            MinSource::Buffer => {
                let std::cmp::Reverse(e) =
                    self.buffer.pop().expect("min_source said the buffer has the min");
                self.buffer_bytes = self.buffer_bytes.saturating_sub(entry_len(&e));
                e.0
            }
            MinSource::Cursor(i) => {
                let key = std::mem::take(&mut self.cursors[i].head.0);
                if !self.cursors[i].advance()? {
                    // Exhausted: recycle the run's blocks right away.
                    let done = self.cursors.swap_remove(i);
                    self.store.discard(done.run).map_err(XmlError::Ext)?;
                }
                key
            }
        };
        self.stats.pops += 1;
        Ok(Some(key))
    }

    /// Which source currently holds the minimum entry.
    fn min_source(&self) -> Option<MinSource> {
        let mut best: Option<(MinSource, &Entry)> =
            self.buffer.peek().map(|r| (MinSource::Buffer, &r.0));
        for (i, c) in self.cursors.iter().enumerate() {
            let better = match &best {
                None => true,
                Some((_, e)) => c.head.cmp(e) == Ordering::Less,
            };
            if better {
                best = Some((MinSource::Cursor(i), &c.head));
            }
        }
        best.map(|(src, _)| src)
    }

    /// Sort the buffer and seal it as one insertion run, then restructure
    /// if the open-run count now exceeds the merge fan-in.
    fn seal_buffer(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        // NB: into_sorted_vec on a heap of Reverse<_> would come out
        // descending; unwrap first and sort ascending.
        let mut entries: Vec<Entry> =
            std::mem::take(&mut self.buffer).into_iter().map(|r| r.0).collect();
        entries.sort_unstable();
        self.buffer_bytes = 0;
        let mut w = self.store.create(&self.budget, IoCat::SortScratch).map_err(XmlError::Ext)?;
        let mut count = 0u64;
        let mut bytes = 0u64;
        let mut buf: Vec<u8> = Vec::new();
        for e in &entries {
            buf.clear();
            write_bytes(&mut buf, &e.0)?;
            write_uvarint(&mut buf, e.1)?;
            w.write_all(&buf).map_err(XmlError::Ext)?;
            count += 1;
            bytes += entry_len(e);
        }
        let id = w.finish().map_err(XmlError::Ext)?;
        self.stats.runs_sealed += 1;
        self.open_cursor(id, count, bytes)?;
        // Fan-in bound: each cursor holds a reader frame; leave headroom
        // for the buffer's next seal and one restructuring writer.
        let fan_in = (self.budget.total_frames() / 2).saturating_sub(1).max(2);
        if self.cursors.len() > fan_in {
            self.restructure()?;
        }
        Ok(())
    }

    fn open_cursor(&mut self, id: RunId, count: u64, bytes: u64) -> Result<()> {
        if count == 0 {
            self.store.discard(id).map_err(XmlError::Ext)?;
            return Ok(());
        }
        let mut reader =
            self.store.open(id, &self.budget, IoCat::SortScratch).map_err(XmlError::Ext)?;
        let head = decode_entry(&mut reader)?;
        let left = bytes - entry_len(&head);
        self.cursors.push(Cursor { run: id, reader, head, left, remaining: count, consumed: 0 });
        Ok(())
    }

    /// Merge every open run's live suffix into one fresh run, dropping the
    /// tombstoned prefixes. Amortized: runs only pile up one per sealed
    /// buffer, so this runs once per fan-in seals.
    fn restructure(&mut self) -> Result<()> {
        let old = std::mem::take(&mut self.cursors);
        let mut heap: BinaryHeap<std::cmp::Reverse<(Entry, usize)>> = BinaryHeap::new();
        let mut streams: Vec<Cursor> = Vec::with_capacity(old.len());
        for (i, c) in old.into_iter().enumerate() {
            self.stats.tombstones_dropped += c.consumed;
            heap.push(std::cmp::Reverse((c.head.clone(), i)));
            streams.push(c);
        }
        let mut w = self.store.create(&self.budget, IoCat::SortScratch).map_err(XmlError::Ext)?;
        let mut count = 0u64;
        let mut bytes = 0u64;
        let mut buf: Vec<u8> = Vec::new();
        while let Some(std::cmp::Reverse((e, i))) = heap.pop() {
            buf.clear();
            write_bytes(&mut buf, &e.0)?;
            write_uvarint(&mut buf, e.1)?;
            w.write_all(&buf).map_err(XmlError::Ext)?;
            count += 1;
            bytes += entry_len(&e);
            if streams[i].advance()? {
                heap.push(std::cmp::Reverse((streams[i].head.clone(), i)));
            }
        }
        let id = w.finish().map_err(XmlError::Ext)?;
        for c in &streams {
            self.store.discard(c.run).map_err(XmlError::Ext)?;
        }
        drop(streams);
        self.stats.restructures += 1;
        self.open_cursor(id, count, bytes)?;
        Ok(())
    }

    /// Drain the queue into a sorted vector (convenience for tests and the
    /// CLI's `pq` subcommand).
    pub fn drain_sorted(&mut self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        while let Some(k) = self.pop()? {
            out.push(k);
        }
        Ok(out)
    }

    /// The disk the queue runs on.
    pub fn disk(&self) -> &Rc<Disk> {
        &self.disk
    }

    /// Execute a script of `push KEY` | `pop` | `peek` lines (blank lines
    /// and `#` comments skipped) and return its transcript: one line per
    /// pop/peek (`pop KEY`, or `pop -` on an empty queue) plus a final
    /// `len N`. The script is deterministic, so rerunning it on a fresh
    /// queue reproduces the transcript exactly.
    pub fn run_script(&mut self, script: &str) -> std::result::Result<String, ScriptError> {
        let mut out = String::new();
        for (i, raw) in script.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let step = if let Some(key) = line.strip_prefix("push ") {
                self.push(key.as_bytes()).map(|()| None)
            } else if line == "pop" {
                self.pop().map(Some)
            } else if line == "peek" {
                self.peek().map(Some)
            } else {
                return Err(ScriptError { line: i + 1, text: line.to_string(), error: None });
            };
            match step {
                Ok(None) => {}
                Ok(Some(head)) => {
                    let key = head
                        .map_or_else(|| "-".into(), |k| String::from_utf8_lossy(&k).into_owned());
                    out.push_str(&format!("{line} {key}\n"));
                }
                Err(e) => {
                    return Err(ScriptError { line: i + 1, text: line.to_string(), error: Some(e) })
                }
            }
        }
        out.push_str(&format!("len {}\n", self.len()));
        Ok(out)
    }
}

/// Why [`ExtPq::run_script`] stopped: the 1-based script line, its text,
/// and the queue's error -- `None` when the line is not a known verb.
#[derive(Debug)]
pub struct ScriptError {
    /// 1-based line number within the script.
    pub line: usize,
    /// The offending line, trimmed.
    pub text: String,
    /// The queue operation's error; `None` for an unknown verb.
    pub error: Option<XmlError>,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.error {
            Some(e) => write!(f, "pq script line {}: {e}", self.line),
            None => write!(
                f,
                "pq script line {}: expected \"push KEY\", \"pop\", or \"peek\", got {:?}",
                self.line, self.text
            ),
        }
    }
}

impl std::error::Error for ScriptError {}

#[derive(Clone, Copy)]
enum MinSource {
    Buffer,
    Cursor(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn pq(frames: usize) -> ExtPq {
        ExtPq::new(Disk::new_mem(512), frames, 0).unwrap()
    }

    #[test]
    fn push_all_pop_all_is_sorted() {
        let mut q = pq(4);
        for i in (0..500u32).rev() {
            q.push(format!("{i:05}").as_bytes()).unwrap();
        }
        assert!(q.stats.runs_sealed > 0, "must spill at this buffer size");
        let got = q.drain_sorted().unwrap();
        let want: Vec<Vec<u8>> = (0..500u32).map(|i| format!("{i:05}").into_bytes()).collect();
        assert_eq!(got, want);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_ops_match_btreemap_oracle() {
        let mut q = pq(4);
        let mut oracle: BTreeMap<(Vec<u8>, u64), ()> = BTreeMap::new();
        let mut seq = 0u64;
        // Deterministic interleave: pushes in a scrambled order, a pop
        // every third op.
        for step in 0..900u64 {
            if step % 3 == 2 {
                let got = q.pop().unwrap();
                let want = oracle.keys().next().cloned();
                if let Some(k) = want {
                    oracle.remove(&k);
                    assert_eq!(got.as_deref(), Some(k.0.as_slice()), "step {step}");
                } else {
                    assert_eq!(got, None, "step {step}");
                }
            } else {
                let key = format!("{:04}", (step * 73) % 997).into_bytes();
                q.push(&key).unwrap();
                oracle.insert((key, seq), ());
                seq += 1;
            }
            assert_eq!(q.len(), oracle.len() as u64, "step {step}");
        }
        // Drain both; the tails must agree too.
        let got = q.drain_sorted().unwrap();
        let want: Vec<Vec<u8>> = oracle.keys().map(|(k, _)| k.clone()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn equal_keys_pop_fifo() {
        let mut q = pq(4);
        for _ in 0..300 {
            q.push(b"same").unwrap();
        }
        let got = q.drain_sorted().unwrap();
        assert_eq!(got.len(), 300);
        assert!(got.iter().all(|k| k == b"same"));
    }

    #[test]
    fn restructuring_folds_runs_and_drops_tombstones() {
        let mut q = pq(4);
        // Ascending keys so the global minimum sits in the oldest sealed
        // run: pops advance cursors, leaving tombstoned prefixes for the
        // restructuring merges to drop.
        for i in 0..2000u32 {
            q.push(format!("{i:06}").as_bytes()).unwrap();
            if i % 4 == 3 {
                q.pop().unwrap();
            }
        }
        assert!(q.stats.restructures > 0, "{:?}", q.stats);
        assert!(q.stats.tombstones_dropped > 0, "{:?}", q.stats);
        let drained = q.drain_sorted().unwrap();
        assert_eq!(drained.len(), 1500);
        assert!(drained.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn parity_protected_runs_survive_a_hard_fault() {
        use nexsort_extmem::{FaultKind, FaultPlan, MemDevice};
        let (disk, injector) = Disk::new_faulty(Box::new(MemDevice::new(512)), FaultPlan::new(0));
        let mut q = ExtPq::new(disk.clone(), 4, 2).unwrap();
        for i in (0..400u32).rev() {
            q.push(format!("{i:05}").as_bytes()).unwrap();
        }
        assert!(q.stats.runs_sealed > 0);
        // Corrupt one block of the first live run; the self-healing reader
        // must repair it mid-pop.
        let store = q.store().clone();
        let victim = (0..store.num_runs())
            .map(RunId)
            .find_map(|id| store.extent_of(id).ok().and_then(|e| e.blocks().get(1).copied()))
            .expect("a sealed run with at least two blocks");
        injector.script_block_read(victim, FaultKind::BitFlip);
        let got = q.drain_sorted().unwrap();
        let want: Vec<Vec<u8>> = (0..400u32).map(|i| format!("{i:05}").into_bytes()).collect();
        assert_eq!(got, want);
        assert!(disk.health().repairs() >= 1);
    }
}
