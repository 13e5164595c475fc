//! Write-ahead manifest journal: the durable record of run-store lifecycle.
//!
//! A crash mid-sort leaves the device in a state that a write-back buffer
//! pool makes genuinely non-trivial: dirty frames may or may not have
//! reached the device, in whatever order eviction chose. The journal makes
//! that state recoverable by logging, *before* they take effect, the events
//! that change what the run store means: a run sealed, a merge pass
//! started or committed, an extent freed. Recovery (see
//! [`recovery`](crate::recovery)) replays the journal and reconstructs
//! exactly the committed prefix of the sort.
//!
//! # On-device layout
//!
//! The journal occupies a fixed extent allocated at [`Journal::create`]
//! time and zero-filled up front. Block 0 of the extent is a *header*
//! block naming the full extent (magic, block list, checksum), so
//! [`Journal::locate`] can find the journal on a cold device by scanning
//! live blocks. Records are appended byte-contiguously over the remaining
//! blocks:
//!
//! ```text
//! [seq u64 LE][type u8][payload_len u32 LE][payload...][crc u64 LE]
//! ```
//!
//! `crc` is FNV-1a over `seq ‖ type ‖ payload_len ‖ payload`. Sequence
//! numbers start at 1 and increase by exactly 1 per record, so an all-zero
//! record header marks the clean end of the log (the extent was zeroed at
//! creation).
//!
//! # Commit protocol
//!
//! Appends are *synchronous* ([`Disk::journal_write`] bypasses the buffer
//! pool), but the data writes they describe may still sit in dirty pool
//! frames. A record therefore only *counts* once a later `Commit` record
//! covers it -- and [`Journal::checkpoint`] writes that `Commit` only after
//! [`Disk::cache_flush_all`] has forced every described data write onto the
//! device. Replay folds state strictly up to the last `Commit`; everything
//! after it is an uncommitted tail that recovery discards.
//!
//! # Torn tails vs. corruption
//!
//! A crash can tear the last record mid-write. Because the extent is
//! zero-filled at creation and stale bytes are re-zeroed when recovery
//! truncates an uncommitted tail, a genuine torn record is always followed
//! by zeroes. Replay therefore tolerates a checksum mismatch whose trailing
//! bytes are all zero (torn tail: stop parsing), but reports structured
//! [`ExtError::JournalCorrupt`] for anything else: a checksum mismatch with
//! nonzero data after it, a sequence-number break, or a record overrunning
//! the extent.

use std::rc::Rc;

use crate::device::Disk;
use crate::error::{ExtError, Result};
use crate::extent::{ByteReader, ByteSink, SliceReader};
use crate::fault::fnv1a64;
use crate::repair::RunParity;

/// Magic prefix of the journal header block.
const JOURNAL_MAGIC: &[u8; 8] = b"NXJRNL01";

/// Record type tags (wire format).
const T_SORT_STARTED: u8 = 1;
const T_RUN_SEALED: u8 = 2;
const T_MERGE_STARTED: u8 = 3;
const T_MERGE_COMMITTED: u8 = 4;
const T_RUN_DISCARDED: u8 = 5;
const T_SCAN_DONE: u8 = 6;
const T_SORT_DONE: u8 = 7;
const T_COMMIT: u8 = 8;

/// Fixed per-record overhead: seq (8) + type (1) + payload_len (4) + crc (8).
const RECORD_OVERHEAD: usize = 8 + 1 + 4 + 8;

// In-memory payload assembly and parsing. `Vec<u8>` cannot fail to grow and
// every caller bounds-checks its reads first, so unlike the `ByteSink`/
// `ByteReader` device paths these carry no `Result`.

fn put_u8(p: &mut Vec<u8>, v: u8) {
    p.push(v);
}

fn put_u32(p: &mut Vec<u8>, v: u32) {
    p.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(p: &mut Vec<u8>, v: u64) {
    p.extend_from_slice(&v.to_le_bytes());
}

/// `buf[at..at + 4]` as a little-endian `u32`.
fn le_u32(buf: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(a)
}

/// `buf[at..at + 8]` as a little-endian `u64`.
fn le_u64(buf: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(a)
}

/// Sort-progress counters carried by the phase-seal records, so a resumed
/// sort can report the same totals an uninterrupted one would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Records scanned from the input.
    pub n_records: u64,
    /// Input bytes scanned.
    pub input_bytes: u64,
    /// Maximum nesting level observed.
    pub max_level: u32,
    /// Maximum fanout observed.
    pub max_fanout: u32,
    /// Incomplete runs spilled during the scan.
    pub incomplete_runs: u32,
    /// Subtree sorts performed.
    pub subtree_sorts: u32,
    /// Degenerate merge passes performed so far.
    pub degenerate_merges: u32,
}

/// One journal record: a run-store lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A sort began over an input of `input_len` bytes.
    SortStarted {
        /// Input length in bytes (identity check on resume).
        input_len: u64,
    },
    /// Run `token` was sealed: its extent (block list + byte length) is
    /// fully on the device once the covering `Commit` lands.
    RunSealed {
        /// Caller-chosen stable run token (run-store index).
        token: u32,
        /// Byte length of the run.
        len: u64,
        /// The run's blocks, in extent order.
        blocks: Vec<u64>,
        /// Redundancy metadata when the run was sealed with parity. Encoded
        /// as a versioned record tail, so journals written before parity
        /// existed replay as `None`. Recovery treats the parity blocks as
        /// journal-owned: they must survive free-map reconciliation or the
        /// run loses its protection.
        parity: Option<RunParity>,
    },
    /// Merge pass `pass` began (advisory; not required for replay).
    MergePassStarted {
        /// 1-based merge pass number.
        pass: u32,
    },
    /// Merge pass `pass` finished: `consumed` (in merge order) were merged
    /// into `output`. The consumed runs' blocks may be freed once the
    /// covering `Commit` lands.
    MergePassCommitted {
        /// 1-based merge pass number.
        pass: u32,
        /// Token of the output run (sealed by a paired `RunSealed`).
        output: u32,
        /// Tokens of the input runs, in the order they were merged.
        consumed: Vec<u32>,
    },
    /// Run `token`'s extent was freed outside a merge pass.
    RunDiscarded {
        /// Token of the discarded run.
        token: u32,
    },
    /// The input scan finished with `pending` runs awaiting merging, in
    /// merge order. Recovery restarts from the merge phase.
    ScanDone {
        /// Pending run tokens, in the order the merge loop consumes them.
        pending: Vec<u32>,
        /// Progress counters at the seal point.
        stats: JournalStats,
    },
    /// The sort finished: `root` is the final output run.
    SortDone {
        /// Token of the final output run.
        root: u32,
        /// Whether the root run stores records without path prefixes.
        root_flat: bool,
        /// Final progress counters.
        stats: JournalStats,
    },
    /// Everything before this record is durable on the device. Only written
    /// by [`Journal::checkpoint`], after the pool flush.
    Commit,
}

impl JournalRecord {
    fn type_tag(&self) -> u8 {
        match self {
            JournalRecord::SortStarted { .. } => T_SORT_STARTED,
            JournalRecord::RunSealed { .. } => T_RUN_SEALED,
            JournalRecord::MergePassStarted { .. } => T_MERGE_STARTED,
            JournalRecord::MergePassCommitted { .. } => T_MERGE_COMMITTED,
            JournalRecord::RunDiscarded { .. } => T_RUN_DISCARDED,
            JournalRecord::ScanDone { .. } => T_SCAN_DONE,
            JournalRecord::SortDone { .. } => T_SORT_DONE,
            JournalRecord::Commit => T_COMMIT,
        }
    }

    /// Whether this is a commit record.
    pub fn is_commit(&self) -> bool {
        matches!(self, JournalRecord::Commit)
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            JournalRecord::SortStarted { input_len } => {
                put_u64(&mut p, *input_len);
            }
            JournalRecord::RunSealed { token, len, blocks, parity } => {
                put_u32(&mut p, *token);
                put_u64(&mut p, *len);
                put_u32(&mut p, blocks.len() as u32);
                for &b in blocks {
                    put_u64(&mut p, b);
                }
                if let Some(par) = parity {
                    put_u8(&mut p, 1); // parity-tail version
                    put_u32(&mut p, par.group);
                    put_u32(&mut p, par.parity.len() as u32);
                    for &b in &par.parity {
                        put_u64(&mut p, b);
                    }
                    put_u32(&mut p, par.sums.len() as u32);
                    for &s in &par.sums {
                        put_u64(&mut p, s);
                    }
                }
            }
            JournalRecord::MergePassStarted { pass } => {
                put_u32(&mut p, *pass);
            }
            JournalRecord::MergePassCommitted { pass, output, consumed } => {
                put_u32(&mut p, *pass);
                put_u32(&mut p, *output);
                put_u32(&mut p, consumed.len() as u32);
                for &t in consumed {
                    put_u32(&mut p, t);
                }
            }
            JournalRecord::RunDiscarded { token } => {
                put_u32(&mut p, *token);
            }
            JournalRecord::ScanDone { pending, stats } => {
                encode_stats(&mut p, stats);
                put_u32(&mut p, pending.len() as u32);
                for &t in pending {
                    put_u32(&mut p, t);
                }
            }
            JournalRecord::SortDone { root, root_flat, stats } => {
                encode_stats(&mut p, stats);
                put_u32(&mut p, *root);
                put_u8(&mut p, u8::from(*root_flat));
            }
            JournalRecord::Commit => {}
        }
        p
    }

    fn decode(tag: u8, payload: &[u8], offset: u64) -> Result<Self> {
        let mut r = SliceReader::new(payload);
        let rec = match tag {
            T_SORT_STARTED => JournalRecord::SortStarted { input_len: r.read_u64()? },
            T_RUN_SEALED => {
                let token = r.read_u32()?;
                let len = r.read_u64()?;
                let n = r.read_u32()? as usize;
                let mut blocks = Vec::with_capacity(n);
                for _ in 0..n {
                    blocks.push(r.read_u64()?);
                }
                // Pre-parity records end here; newer ones carry a versioned
                // redundancy tail.
                let parity = if r.remaining() > 0 {
                    if r.read_u8()? != 1 {
                        return Err(ExtError::JournalCorrupt {
                            offset,
                            reason: "unknown parity tail version",
                        });
                    }
                    let group = r.read_u32()?;
                    let np = r.read_u32()? as usize;
                    let mut pblocks = Vec::with_capacity(np);
                    for _ in 0..np {
                        pblocks.push(r.read_u64()?);
                    }
                    let ns = r.read_u32()? as usize;
                    let mut sums = Vec::with_capacity(ns);
                    for _ in 0..ns {
                        sums.push(r.read_u64()?);
                    }
                    Some(RunParity { group, parity: pblocks, sums })
                } else {
                    None
                };
                JournalRecord::RunSealed { token, len, blocks, parity }
            }
            T_MERGE_STARTED => JournalRecord::MergePassStarted { pass: r.read_u32()? },
            T_MERGE_COMMITTED => {
                let pass = r.read_u32()?;
                let output = r.read_u32()?;
                let n = r.read_u32()? as usize;
                let mut consumed = Vec::with_capacity(n);
                for _ in 0..n {
                    consumed.push(r.read_u32()?);
                }
                JournalRecord::MergePassCommitted { pass, output, consumed }
            }
            T_RUN_DISCARDED => JournalRecord::RunDiscarded { token: r.read_u32()? },
            T_SCAN_DONE => {
                let stats = decode_stats(&mut r)?;
                let n = r.read_u32()? as usize;
                let mut pending = Vec::with_capacity(n);
                for _ in 0..n {
                    pending.push(r.read_u32()?);
                }
                JournalRecord::ScanDone { pending, stats }
            }
            T_SORT_DONE => {
                let stats = decode_stats(&mut r)?;
                let root = r.read_u32()?;
                let root_flat = r.read_u8()? != 0;
                JournalRecord::SortDone { root, root_flat, stats }
            }
            T_COMMIT => JournalRecord::Commit,
            _ => return Err(ExtError::JournalCorrupt { offset, reason: "unknown record type" }),
        };
        Ok(rec)
    }
}

fn encode_stats(p: &mut Vec<u8>, s: &JournalStats) {
    put_u64(p, s.n_records);
    put_u64(p, s.input_bytes);
    put_u32(p, s.max_level);
    put_u32(p, s.max_fanout);
    put_u32(p, s.incomplete_runs);
    put_u32(p, s.subtree_sorts);
    put_u32(p, s.degenerate_merges);
}

fn decode_stats(r: &mut SliceReader<'_>) -> Result<JournalStats> {
    Ok(JournalStats {
        n_records: r.read_u64()?,
        input_bytes: r.read_u64()?,
        max_level: r.read_u32()?,
        max_fanout: r.read_u32()?,
        incomplete_runs: r.read_u32()?,
        subtree_sorts: r.read_u32()?,
        degenerate_merges: r.read_u32()?,
    })
}

fn record_crc(seq: u64, tag: u8, payload: &[u8]) -> u64 {
    let mut pre = Vec::with_capacity(13 + payload.len());
    pre.extend_from_slice(&seq.to_le_bytes());
    pre.push(tag);
    pre.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    pre.extend_from_slice(payload);
    fnv1a64(&pre)
}

/// The write-ahead journal over a fixed extent of a [`Disk`].
///
/// The journal keeps an in-memory mirror of its extent; every append writes
/// the affected block(s) through [`Disk::journal_write`] synchronously, so
/// an append that returned `Ok` is on the device.
pub struct Journal {
    disk: Rc<Disk>,
    /// The full extent, header block first.
    blocks: Vec<u64>,
    /// In-memory mirror of the record region (`blocks[1..]`).
    image: Vec<u8>,
    /// Next append offset within the record region.
    head: usize,
    /// Sequence number the next appended record will carry.
    next_seq: u64,
}

impl Journal {
    /// Allocate and zero-fill a fresh journal extent of `nblocks` blocks
    /// (at least 2: one header + one record block) and write its header.
    pub fn create(disk: &Rc<Disk>, nblocks: usize) -> Result<Self> {
        assert!(nblocks >= 2, "a journal needs a header block plus at least one record block");
        let bs = disk.block_size();
        let blocks: Vec<u64> = (0..nblocks).map(|_| disk.alloc_block()).collect();
        // Zero-fill the record region so replay can tell a torn tail (zero
        // suffix) from corruption (nonzero bytes after a bad record).
        let zeros = vec![0u8; bs];
        for &b in &blocks[1..] {
            disk.journal_write(b, &zeros)?;
        }
        let journal = Self {
            disk: Rc::clone(disk),
            blocks,
            image: vec![0u8; (nblocks - 1) * bs],
            head: 0,
            next_seq: 1,
        };
        journal.write_header()?;
        Ok(journal)
    }

    /// Open the journal whose header lives at `header_block`, loading the
    /// record region into memory. The cursor is positioned at the start;
    /// call [`Journal::replay`] to parse records and position for appends.
    pub fn open(disk: &Rc<Disk>, header_block: u64) -> Result<Self> {
        let bs = disk.block_size();
        let mut buf = vec![0u8; bs];
        disk.journal_read(header_block, &mut buf)?;
        let blocks = parse_header(&buf, header_block)
            .ok_or(ExtError::JournalCorrupt { offset: 0, reason: "bad journal header" })?;
        let mut image = vec![0u8; (blocks.len() - 1) * bs];
        for (i, &b) in blocks[1..].iter().enumerate() {
            disk.journal_read(b, &mut image[i * bs..(i + 1) * bs])?;
        }
        Ok(Self { disk: Rc::clone(disk), blocks, image, head: 0, next_seq: 1 })
    }

    /// Scan the device's live blocks for a journal header and open the
    /// journal found, if any. This is how recovery finds the journal on a
    /// cold device: the header block self-describes the whole extent.
    pub fn locate(disk: &Rc<Disk>) -> Result<Option<Self>> {
        let bs = disk.block_size();
        let mut buf = vec![0u8; bs];
        for id in disk.live_blocks() {
            disk.journal_read(id, &mut buf)?;
            if parse_header(&buf, id).is_some() {
                return Ok(Some(Self::open(disk, id)?));
            }
        }
        Ok(None)
    }

    /// The journal's blocks (header first). Recovery must not free these.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Bytes of record capacity in the extent.
    pub fn capacity(&self) -> usize {
        self.image.len()
    }

    /// Bytes of record region currently used.
    pub fn used(&self) -> usize {
        self.head
    }

    fn write_header(&self) -> Result<()> {
        let bs = self.disk.block_size();
        let mut h = Vec::with_capacity(bs);
        h.extend_from_slice(JOURNAL_MAGIC);
        h.write_u32(self.blocks.len() as u32)?;
        for &b in &self.blocks {
            h.write_u64(b)?;
        }
        let crc = fnv1a64(&h);
        h.write_u64(crc)?;
        if h.len() > bs {
            return Err(ExtError::Corrupt(format!(
                "journal header needs {} bytes but the block size is {bs}",
                h.len()
            )));
        }
        self.disk.journal_write(self.blocks[0], &h)
    }

    /// Append one record durably: when this returns `Ok`, the record is on
    /// the device. Note that the record only *counts* once a later `Commit`
    /// covers it -- use [`Journal::checkpoint`] for the flush + commit
    /// sequence.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<()> {
        let payload = rec.encode_payload();
        let total = RECORD_OVERHEAD + payload.len();
        if self.head + total > self.image.len() {
            return Err(ExtError::Corrupt(format!(
                "journal overflow: record of {total} bytes does not fit ({} of {} used)",
                self.head,
                self.image.len()
            )));
        }
        let seq = self.next_seq;
        let tag = rec.type_tag();
        let start = self.head;
        let mut w = start;
        self.image[w..w + 8].copy_from_slice(&seq.to_le_bytes());
        w += 8;
        self.image[w] = tag;
        w += 1;
        self.image[w..w + 4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        w += 4;
        self.image[w..w + payload.len()].copy_from_slice(&payload);
        w += payload.len();
        self.image[w..w + 8].copy_from_slice(&record_crc(seq, tag, &payload).to_le_bytes());
        w += 8;
        self.flush_range(start, w)?;
        self.head = w;
        self.next_seq = seq + 1;
        self.disk.stats().add_journal_appends(1);
        if rec.is_commit() {
            self.disk.stats().add_journal_commits(1);
        }
        Ok(())
    }

    /// Write the blocks covering image byte range `[from, to)` to the device.
    fn flush_range(&self, from: usize, to: usize) -> Result<()> {
        let bs = self.disk.block_size();
        let first = from / bs;
        let last = (to.max(1) - 1) / bs;
        for i in first..=last {
            self.disk.journal_write(self.blocks[1 + i], &self.image[i * bs..(i + 1) * bs])?;
        }
        Ok(())
    }

    /// Checkpoint: append `recs`, force every outstanding data write onto
    /// the device (pool flush), then append the `Commit` record that makes
    /// them count. This ordering is the whole crash-consistency contract --
    /// the commit must never precede the flush.
    pub fn checkpoint(&mut self, recs: &[JournalRecord]) -> Result<()> {
        for rec in recs {
            debug_assert!(!rec.is_commit(), "checkpoint writes the commit itself");
            self.append(rec)?;
        }
        self.disk.cache_flush_all()?;
        self.append_commit()
    }

    /// Append the commit record. Callers must have flushed the pool
    /// (`cache_flush_all`) first; [`Journal::checkpoint`] is the sanctioned
    /// wrapper.
    fn append_commit(&mut self) -> Result<()> {
        self.append(&JournalRecord::Commit)
    }

    /// Compact the journal in place: zero the record region (in memory and
    /// on the device), restart sequence numbering, then [`checkpoint`]
    /// `recs` as the new log. An append-only log over a fixed extent
    /// eventually overflows under repeated maintenance -- scrub re-seals
    /// every repaired extent after each pass -- so compaction folds the
    /// live state back down to the space one checkpoint needs.
    ///
    /// Not crash-atomic: a crash between the zeroing and the commit leaves
    /// an empty journal. Callers run it on quiescent maintenance paths
    /// (scrub on a finished sort), never mid-sort.
    ///
    /// [`checkpoint`]: Journal::checkpoint
    pub fn reset(&mut self, recs: &[JournalRecord]) -> Result<()> {
        self.image.fill(0);
        let zeros = vec![0u8; self.disk.block_size()];
        for &b in &self.blocks[1..] {
            self.disk.journal_write(b, &zeros)?;
        }
        self.head = 0;
        self.next_seq = 1;
        self.checkpoint(recs)
    }

    /// Parse the record region, returning every record up to and including
    /// the last `Commit`. The journal is then positioned to append after
    /// that commit, and any bytes beyond it (an uncommitted tail, torn or
    /// whole) are re-zeroed on the device so they cannot confuse a later
    /// replay.
    ///
    /// Strictness: a checksum mismatch followed only by zeroes is a
    /// tolerated torn tail (parsing stops); a mismatch with nonzero bytes
    /// after it, a sequence-number break, or a record overrunning the
    /// extent yield [`ExtError::JournalCorrupt`].
    pub fn replay(&mut self) -> Result<Vec<JournalRecord>> {
        let mut records = Vec::new();
        let mut pos = 0usize;
        let mut last_seq = 0u64;
        let mut committed_end = 0usize;
        let mut committed_count = 0usize;
        loop {
            if pos + RECORD_OVERHEAD > self.image.len() {
                break; // no room for another record header: clean end
            }
            let seq = le_u64(&self.image, pos);
            if seq == 0 {
                break; // zeroed header: clean end of log
            }
            let tag = self.image[pos + 8];
            let plen = le_u32(&self.image, pos + 9) as usize;
            let total = RECORD_OVERHEAD + plen;
            if pos + total > self.image.len() {
                return Err(ExtError::JournalCorrupt {
                    offset: pos as u64,
                    reason: "record overruns journal extent",
                });
            }
            let payload = &self.image[pos + 13..pos + 13 + plen];
            let stored_crc = le_u64(&self.image, pos + total - 8);
            if stored_crc != record_crc(seq, tag, payload) {
                // A torn append leaves zeroes after the partially-landed
                // record (the extent was zero-filled up front); a bad
                // record with more data behind it is corruption.
                if self.image[pos + total..].iter().all(|&b| b == 0) {
                    break;
                }
                return Err(ExtError::JournalCorrupt {
                    offset: pos as u64,
                    reason: "checksum mismatch",
                });
            }
            if seq != last_seq + 1 {
                return Err(ExtError::JournalCorrupt {
                    offset: pos as u64,
                    reason: "sequence break",
                });
            }
            let rec = JournalRecord::decode(tag, payload, pos as u64)?;
            let is_commit = rec.is_commit();
            records.push(rec);
            last_seq = seq;
            pos += total;
            if is_commit {
                committed_end = pos;
                committed_count = records.len();
            }
        }
        // Truncate to the last commit: later appends overwrite the
        // uncommitted tail, and the stale bytes are re-zeroed now so a torn
        // future append still leaves a zero suffix behind it.
        records.truncate(committed_count);
        if committed_end < pos {
            self.image[committed_end..pos].fill(0);
            self.flush_range(committed_end, pos)?;
        }
        self.head = committed_end;
        self.next_seq = {
            // Sequence of the last surviving record + 1.
            let mut seq = 0u64;
            let mut p = 0usize;
            while p < committed_end {
                seq = le_u64(&self.image, p);
                let plen = le_u32(&self.image, p + 9) as usize;
                p += RECORD_OVERHEAD + plen;
            }
            seq + 1
        };
        Ok(records)
    }
}

/// Validate a journal header block; returns the extent's block list.
fn parse_header(buf: &[u8], self_id: u64) -> Option<Vec<u64>> {
    if buf.len() < JOURNAL_MAGIC.len() + 4 + 8 || &buf[..8] != JOURNAL_MAGIC {
        return None;
    }
    let n = le_u32(buf, 8) as usize;
    if n < 2 {
        return None;
    }
    let body_len = 12 + n * 8;
    if body_len + 8 > buf.len() {
        return None;
    }
    let crc = le_u64(buf, body_len);
    if fnv1a64(&buf[..body_len]) != crc {
        return None;
    }
    let blocks: Vec<u64> = (0..n).map(|i| le_u64(buf, 12 + i * 8)).collect();
    // The header must name itself as the first block.
    if blocks[0] != self_id {
        return None;
    }
    Some(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoCat;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::SortStarted { input_len: 4096 },
            JournalRecord::RunSealed { token: 0, len: 777, blocks: vec![5, 9, 13], parity: None },
            JournalRecord::RunSealed {
                token: 5,
                len: 888,
                blocks: vec![20, 21],
                parity: Some(RunParity { group: 2, parity: vec![22], sums: vec![10, 11] }),
            },
            JournalRecord::MergePassStarted { pass: 1 },
            JournalRecord::MergePassCommitted { pass: 1, output: 2, consumed: vec![0, 1] },
            JournalRecord::RunDiscarded { token: 1 },
            JournalRecord::ScanDone { pending: vec![2, 3], stats: JournalStats::default() },
            JournalRecord::SortDone {
                root: 4,
                root_flat: true,
                stats: JournalStats { n_records: 12, ..JournalStats::default() },
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_append_and_replay() {
        let disk = crate::Disk::new_mem(128);
        let mut j = Journal::create(&disk, 8).unwrap();
        let recs = sample_records();
        j.checkpoint(&recs).unwrap();
        let header = j.blocks()[0];
        drop(j);
        let mut j2 = Journal::open(&disk, header).unwrap();
        let mut expected = recs;
        expected.push(JournalRecord::Commit);
        assert_eq!(j2.replay().unwrap(), expected);
        let snap = disk.stats().snapshot();
        assert_eq!(snap.journal_appends(), 9, "eight records plus the commit");
        assert_eq!(snap.journal_commits(), 1);
        assert!(snap.writes(IoCat::Journal) > 0 && snap.reads(IoCat::Journal) > 0);
    }

    #[test]
    fn reset_compacts_the_log_and_survives_a_cold_reopen() {
        let disk = crate::Disk::new_mem(128);
        let mut j = Journal::create(&disk, 8).unwrap();
        // Burn most of the extent with append-only history.
        for token in 0..8u32 {
            j.checkpoint(&[JournalRecord::RunSealed {
                token,
                len: 64,
                blocks: vec![u64::from(token)],
                parity: None,
            }])
            .unwrap();
        }
        let used_before = j.used();
        let snapshot = vec![
            JournalRecord::SortStarted { input_len: 99 },
            JournalRecord::RunSealed { token: 7, len: 64, blocks: vec![7], parity: None },
        ];
        j.reset(&snapshot).unwrap();
        assert!(j.used() < used_before, "compaction must reclaim space");
        let header = j.blocks()[0];
        drop(j);
        // A cold reopen replays exactly the snapshot (plus its commit):
        // the pre-reset history is gone from the device too.
        let mut j2 = Journal::open(&disk, header).unwrap();
        let mut expected = snapshot;
        expected.push(JournalRecord::Commit);
        assert_eq!(j2.replay().unwrap(), expected);
        // The reset journal keeps accepting appends with a clean sequence.
        j2.checkpoint(&[JournalRecord::RunDiscarded { token: 7 }]).unwrap();
        drop(j2);
        let mut j3 = Journal::open(&disk, header).unwrap();
        assert_eq!(j3.replay().unwrap().len(), 5);
    }

    #[test]
    fn locate_finds_the_journal_among_data_blocks() {
        let disk = crate::Disk::new_mem(128);
        // Data blocks before and after the journal extent.
        let a = disk.alloc_block();
        disk.write_block(a, &[0xAB; 128], IoCat::RunWrite).unwrap();
        let mut j = Journal::create(&disk, 4).unwrap();
        let b = disk.alloc_block();
        disk.write_block(b, &[0xCD; 128], IoCat::RunWrite).unwrap();
        j.checkpoint(&[JournalRecord::SortStarted { input_len: 1 }]).unwrap();
        let expect = j.blocks().to_vec();
        drop(j);
        let mut found = Journal::locate(&disk).unwrap().expect("journal present");
        assert_eq!(found.blocks(), &expect[..]);
        assert_eq!(found.replay().unwrap().len(), 2);
        // A journal-less disk locates nothing.
        let empty = crate::Disk::new_mem(128);
        empty.alloc_block();
        assert!(Journal::locate(&empty).unwrap().is_none());
    }

    #[test]
    fn replay_discards_an_uncommitted_tail_and_rezeros_it() {
        let disk = crate::Disk::new_mem(128);
        let mut j = Journal::create(&disk, 8).unwrap();
        j.checkpoint(&[JournalRecord::SortStarted { input_len: 10 }]).unwrap();
        // Appended but never committed: must not survive replay.
        j.append(&JournalRecord::RunSealed { token: 9, len: 1, blocks: vec![], parity: None })
            .unwrap();
        let header = j.blocks()[0];
        drop(j);
        let mut j2 = Journal::open(&disk, header).unwrap();
        let recs = j2.replay().unwrap();
        assert_eq!(recs, vec![JournalRecord::SortStarted { input_len: 10 }, JournalRecord::Commit]);
        // The tail was re-zeroed on the device: a fresh open+replay agrees
        // and appending continues the sequence cleanly.
        j2.append(&JournalRecord::RunDiscarded { token: 0 }).unwrap();
        drop(j2);
        let mut j3 = Journal::open(&disk, header).unwrap();
        // The new tail record is uncommitted, so replay drops it again --
        // but parsing must get past it without a corruption error.
        assert_eq!(j3.replay().unwrap().len(), 2);
    }

    #[test]
    fn torn_tail_record_is_tolerated() {
        let disk = crate::Disk::new_mem(128);
        let mut j = Journal::create(&disk, 8).unwrap();
        j.checkpoint(&[JournalRecord::SortStarted { input_len: 10 }]).unwrap();
        j.append(&JournalRecord::RunSealed { token: 1, len: 64, blocks: vec![7], parity: None })
            .unwrap();
        let (blocks, used) = (j.blocks().to_vec(), j.used());
        drop(j);
        // Tear the last record: zero its trailing 10 bytes (as if the crash
        // cut the write short), via the raw device image.
        let bs = disk.block_size();
        let torn_start = used - 10;
        let blk = blocks[1 + torn_start / bs];
        let mut buf = vec![0u8; bs];
        disk.journal_read(blk, &mut buf).unwrap();
        let at = torn_start % bs;
        buf[at..(at + 10).min(bs)].fill(0);
        disk.journal_write(blk, &buf).unwrap();
        let mut j2 = Journal::open(&disk, blocks[0]).unwrap();
        let recs = j2.replay().expect("a torn tail is not corruption");
        assert_eq!(recs.len(), 2, "only the committed prefix survives");
    }

    #[test]
    fn negative_bitflip_in_a_committed_record_is_corruption() {
        let disk = crate::Disk::new_mem(128);
        let mut j = Journal::create(&disk, 8).unwrap();
        j.checkpoint(&sample_records()).unwrap();
        let blocks = j.blocks().to_vec();
        drop(j);
        // Flip one payload bit in the middle of the record region (offset
        // 50 is inside the second record's payload, clear of any length
        // field -- damaging a length instead surfaces as an overrun).
        let mut buf = vec![0u8; 128];
        disk.journal_read(blocks[1], &mut buf).unwrap();
        buf[50] ^= 0x10;
        disk.journal_write(blocks[1], &buf).unwrap();
        let mut j2 = Journal::open(&disk, blocks[0]).unwrap();
        let err = j2.replay().unwrap_err();
        assert!(
            matches!(err, ExtError::JournalCorrupt { reason: "checksum mismatch", .. }),
            "{err}"
        );
    }

    #[test]
    fn negative_sequence_break_is_corruption() {
        let disk = crate::Disk::new_mem(128);
        let mut j = Journal::create(&disk, 8).unwrap();
        j.checkpoint(&[JournalRecord::SortStarted { input_len: 1 }]).unwrap();
        // Forge a duplicate sequence number on the next record by rolling
        // the counter back: the record checksums fine but repeats seq 2.
        j.next_seq = 2;
        j.append(&JournalRecord::RunDiscarded { token: 0 }).unwrap();
        let header = j.blocks()[0];
        drop(j);
        let mut j2 = Journal::open(&disk, header).unwrap();
        let err = j2.replay().unwrap_err();
        assert!(matches!(err, ExtError::JournalCorrupt { reason: "sequence break", .. }), "{err}");
    }

    #[test]
    fn negative_record_overrunning_the_extent_is_corruption() {
        let disk = crate::Disk::new_mem(128);
        let mut j = Journal::create(&disk, 4).unwrap();
        j.checkpoint(&[JournalRecord::SortStarted { input_len: 1 }]).unwrap();
        let (blocks, used) = (j.blocks().to_vec(), j.used());
        drop(j);
        // Forge a record header at the tail claiming an enormous payload.
        let bs = disk.block_size();
        let blk_idx = used / bs;
        let mut buf = vec![0u8; bs];
        disk.journal_read(blocks[1 + blk_idx], &mut buf).unwrap();
        let off = used % bs;
        buf[off..off + 8].copy_from_slice(&3u64.to_le_bytes()); // seq 3
        buf[off + 8] = T_COMMIT;
        buf[off + 9..off + 13].copy_from_slice(&u32::MAX.to_le_bytes());
        disk.journal_write(blocks[1 + blk_idx], &buf).unwrap();
        let mut j2 = Journal::open(&disk, blocks[0]).unwrap();
        let err = j2.replay().unwrap_err();
        assert!(
            matches!(
                err,
                ExtError::JournalCorrupt { reason: "record overruns journal extent", .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn journal_overflow_is_a_structured_error() {
        let disk = crate::Disk::new_mem(64);
        let mut j = Journal::create(&disk, 2).unwrap(); // one 64-byte record block
        j.append(&JournalRecord::SortStarted { input_len: 1 }).unwrap();
        j.append(&JournalRecord::Commit).unwrap();
        let err = j
            .append(&JournalRecord::RunSealed {
                token: 0,
                len: 0,
                blocks: vec![1, 2, 3],
                parity: None,
            })
            .unwrap_err();
        assert!(matches!(err, ExtError::Corrupt(ref m) if m.contains("journal overflow")), "{err}");
    }
}
