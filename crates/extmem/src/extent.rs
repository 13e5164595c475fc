//! Extents: byte sequences laid out over device blocks, with forward,
//! backward, and append cursors.
//!
//! An [`Extent`] is the unit of on-disk storage for everything in the system:
//! the input document, sorted runs, merge scratch, and the backing store of
//! the external stacks. Cursors hold exactly one internal-memory block frame
//! (reserved from the [`MemoryBudget`]) and count one block transfer each
//! time the frame is refilled or flushed, so a sequential pass over an extent
//! of `L` bytes costs exactly `ceil(L / B)` I/Os -- the unit the paper's
//! analysis is written in. Those are *logical* I/Os: with a buffer pool
//! enabled on the [`Disk`], a re-scan of a recently written or read extent
//! can be served from resident frames at zero physical transfers, without
//! changing the `ceil(L / B)` logical count.

use std::fs::File;
use std::io::BufWriter;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::budget::{FrameGuard, MemoryBudget};
use crate::device::Disk;
use crate::error::{ExtError, Result};
use crate::stats::IoCat;

/// A byte sequence stored across whole device blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Extent {
    blocks: Vec<u64>,
    len: u64,
}

impl Extent {
    /// An empty extent occupying no blocks.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the extent holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of device blocks backing the extent.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The block ids, in order.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    pub(crate) fn set_raw(&mut self, blocks: Vec<u64>, len: u64) {
        self.blocks = blocks;
        self.len = len;
    }

    /// Assemble an extent from raw parts (`blocks` in order plus the byte
    /// length): `ExtStack::range_extent` internally, and reattachment from a
    /// persisted job manifest after a daemon restart. The caller vouches
    /// that the blocks are live on the target disk.
    pub fn from_raw(blocks: Vec<u64>, len: u64) -> Self {
        let mut ext = Self::empty();
        ext.set_raw(blocks, len);
        ext
    }

    /// Swap the block at `idx` for `block` -- the extent's length and layout
    /// are unchanged; only the backing device block moves. Used by the repair
    /// path to relocate a run block off a quarantined sector.
    pub(crate) fn replace_block(&mut self, idx: usize, block: u64) {
        self.blocks[idx] = block;
    }

    /// Return all blocks to the device allocator. The extent becomes empty.
    pub fn free(&mut self, disk: &Disk) -> Result<()> {
        for &b in &self.blocks {
            disk.free_block(b)?;
        }
        self.blocks.clear();
        self.len = 0;
        Ok(())
    }
}

/// Minimal byte-source abstraction so record codecs can run over extents,
/// stack ranges, and in-memory slices alike.
pub trait ByteReader {
    /// Fill `buf` completely or fail with `UnexpectedEof`.
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()>;
    /// Bytes left to read.
    fn remaining(&self) -> u64;

    /// Read a single byte.
    fn read_u8(&mut self) -> Result<u8> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b)?;
        Ok(b[0])
    }

    /// The bytes from the current position on that are already in memory
    /// (the rest of the loaded block frame, the rest of a slice): reading
    /// them costs no transfer. Empty when the next read must load a block.
    fn resident(&self) -> &[u8] {
        &[]
    }

    /// Move past the first `n` bytes of [`Self::resident`] (at most all of
    /// them).
    fn consume(&mut self, n: usize) {
        let _ = n;
    }

    /// Make [`Self::resident`] non-empty if bytes remain, loading the next
    /// frame exactly as the next read would (same transfer, same charge).
    /// A no-op for readers that keep no window.
    fn fill(&mut self) -> Result<()> {
        Ok(())
    }

    /// Read a little-endian `u32`.
    fn read_u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian `u64`.
    fn read_u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

impl<R: ByteReader + ?Sized> ByteReader for &mut R {
    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        (**self).read_exact(buf)
    }

    fn remaining(&self) -> u64 {
        (**self).remaining()
    }

    fn read_u8(&mut self) -> Result<u8> {
        (**self).read_u8()
    }

    fn resident(&self) -> &[u8] {
        (**self).resident()
    }

    fn consume(&mut self, n: usize) {
        (**self).consume(n)
    }

    fn fill(&mut self) -> Result<()> {
        (**self).fill()
    }
}

/// Minimal byte-sink abstraction, mirror of [`ByteReader`].
pub trait ByteSink {
    /// Append all of `buf`.
    fn write_all(&mut self, buf: &[u8]) -> Result<()>;

    /// Append a single byte.
    fn write_u8(&mut self, v: u8) -> Result<()> {
        self.write_all(&[v])
    }

    /// Append a little-endian `u32`.
    fn write_u32(&mut self, v: u32) -> Result<()> {
        self.write_all(&v.to_le_bytes())
    }

    /// Append a little-endian `u64`.
    fn write_u64(&mut self, v: u64) -> Result<()> {
        self.write_all(&v.to_le_bytes())
    }
}

impl<S: ByteSink + ?Sized> ByteSink for &mut S {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        (**self).write_all(buf)
    }

    fn write_u8(&mut self, v: u8) -> Result<()> {
        (**self).write_u8(v)
    }
}

impl ByteSink for Vec<u8> {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.extend_from_slice(buf);
        Ok(())
    }

    fn write_u8(&mut self, v: u8) -> Result<()> {
        self.push(v);
        Ok(())
    }
}

/// A [`ByteSink`] over any [`std::io::Write`]: a file, locked stdout, or a
/// `BufWriter` around either. OS errors surface as [`ExtError::Io`].
pub struct IoSink<W: std::io::Write>(pub W);

impl<W: std::io::Write> ByteSink for IoSink<W> {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        Ok(self.0.write_all(buf)?)
    }
}

/// Bytes a stream of a whole document (staging its input, writing its
/// output) holds in memory at a time.
pub const STREAM_BUF: usize = 64 * 1024;

/// A [`ByteReader`] over any [`std::io::Read`] of known length (a file):
/// one [`STREAM_BUF`] window, refilled by [`ByteReader::fill`], so a
/// streaming consumer holds at most that much of the input. Input that
/// ends before `len` bytes is an [`ExtError::UnexpectedEof`]; OS errors
/// surface as [`ExtError::Io`].
pub struct IoSource<R: std::io::Read> {
    src: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes not yet read from `src`.
    unread: u64,
}

impl<R: std::io::Read> IoSource<R> {
    /// Read the `len` bytes `src` holds.
    pub fn new(src: R, len: u64) -> Self {
        Self { src, buf: Vec::new(), start: 0, end: 0, unread: len }
    }
}

impl<R: std::io::Read> ByteReader for IoSource<R> {
    fn read_exact(&mut self, mut out: &mut [u8]) -> Result<()> {
        let available = self.remaining();
        if out.len() as u64 > available {
            return Err(ExtError::UnexpectedEof {
                wanted: out.len(),
                available: available as usize,
            });
        }
        while !out.is_empty() {
            self.fill()?;
            let w = self.resident();
            let take = w.len().min(out.len());
            out[..take].copy_from_slice(&w[..take]);
            self.start += take;
            out = &mut out[take..];
        }
        Ok(())
    }

    fn remaining(&self) -> u64 {
        (self.end - self.start) as u64 + self.unread
    }

    fn resident(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn consume(&mut self, n: usize) {
        self.start += n.min(self.end - self.start);
    }

    fn fill(&mut self) -> Result<()> {
        if self.start < self.end || self.unread == 0 {
            return Ok(());
        }
        let want = STREAM_BUF.min(usize::try_from(self.unread).unwrap_or(STREAM_BUF));
        self.buf.resize(want, 0);
        let n = loop {
            match self.src.read(&mut self.buf[..want]) {
                Ok(0) => return Err(ExtError::UnexpectedEof { wanted: want, available: 0 }),
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        };
        (self.start, self.end) = (0, n);
        self.unread -= n as u64;
        Ok(())
    }
}

/// An output file that appears at its path only once it is complete. Bytes
/// go through a [`STREAM_BUF`] buffer into `PATH.part`; [`PartFile::commit`]
/// flushes it and renames it to `PATH`. Dropped uncommitted -- its writer
/// failed -- it removes the part file, so a failure never leaves a
/// truncated file at `PATH`, nor a stray `PATH.part`.
pub struct PartFile {
    out: IoSink<BufWriter<File>>,
    part: PathBuf,
    path: PathBuf,
    committed: bool,
}

impl PartFile {
    /// Create (or truncate) `path.part`.
    pub fn create(path: &Path) -> Result<Self> {
        let mut part = path.as_os_str().to_owned();
        part.push(".part");
        let part = PathBuf::from(part);
        let file = File::create(&part)?;
        let out = IoSink(BufWriter::with_capacity(STREAM_BUF, file));
        Ok(Self { out, part, path: path.to_path_buf(), committed: false })
    }

    /// Flush everything written and move the file to its path.
    pub fn commit(mut self) -> Result<()> {
        std::io::Write::flush(&mut self.out.0)?;
        std::fs::rename(&self.part, &self.path)?;
        self.committed = true;
        Ok(())
    }
}

impl ByteSink for PartFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.out.write_all(buf)
    }
}

impl Drop for PartFile {
    fn drop(&mut self) {
        if !self.committed {
            // Best effort: the error that abandoned the file is the one
            // the caller reports.
            let _ = std::fs::remove_file(&self.part);
        }
    }
}

/// A [`ByteReader`] over an in-memory slice.
pub struct SliceReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl ByteReader for SliceReader<'_> {
    fn resident(&self) -> &[u8] {
        self.data.get(self.pos..).unwrap_or(&[])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n.min(self.resident().len());
    }

    fn read_u8(&mut self) -> Result<u8> {
        let b =
            *self.data.get(self.pos).ok_or(ExtError::UnexpectedEof { wanted: 1, available: 0 })?;
        self.pos += 1;
        Ok(b)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let available = self.data.len() - self.pos;
        if buf.len() > available {
            return Err(ExtError::UnexpectedEof { wanted: buf.len(), available });
        }
        buf.copy_from_slice(&self.data[self.pos..self.pos + buf.len()]);
        self.pos += buf.len();
        Ok(())
    }

    fn remaining(&self) -> u64 {
        (self.data.len() - self.pos) as u64
    }
}

/// Append-only writer building an [`Extent`], holding one block frame.
pub struct ExtentWriter {
    disk: Rc<Disk>,
    cat: IoCat,
    _frame: FrameGuard,
    buf: Vec<u8>,
    blocks: Vec<u64>,
    len: u64,
}

impl ExtentWriter {
    /// Start a new extent; charges writes to `cat`; pins one frame.
    pub fn new(disk: Rc<Disk>, budget: &MemoryBudget, cat: IoCat) -> Result<Self> {
        let frame = budget.reserve(1)?;
        let bs = disk.block_size();
        Ok(Self {
            disk,
            cat,
            _frame: frame,
            buf: Vec::with_capacity(bs),
            blocks: Vec::new(),
            len: 0,
        })
    }

    /// Bytes written so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn flush_block(&mut self) -> Result<()> {
        let id = self.disk.alloc_block();
        self.disk.write_block(id, &self.buf, self.cat)?;
        self.blocks.push(id);
        self.buf.clear();
        Ok(())
    }

    /// Flush any partial block and return the finished extent.
    pub fn finish(mut self) -> Result<Extent> {
        if !self.buf.is_empty() {
            self.flush_block()?;
        }
        Ok(Extent { blocks: std::mem::take(&mut self.blocks), len: self.len })
    }
}

impl ByteSink for ExtentWriter {
    fn write_all(&mut self, mut buf: &[u8]) -> Result<()> {
        let bs = self.disk.block_size();
        while !buf.is_empty() {
            let space = bs - self.buf.len();
            let take = space.min(buf.len());
            self.buf.extend_from_slice(&buf[..take]);
            self.len += take as u64;
            buf = &buf[take..];
            if self.buf.len() == bs {
                self.flush_block()?;
            }
        }
        Ok(())
    }
}

/// Forward cursor over an extent, holding one block frame; supports seeking.
pub struct ExtentReader {
    disk: Rc<Disk>,
    cat: IoCat,
    _frame: FrameGuard,
    blocks: Vec<u64>,
    len: u64,
    pos: u64,
    frame: Vec<u8>,
    loaded: Option<usize>,
    /// Extent offsets the loaded frame holds (empty until a load).
    resident: Range<u64>,
}

impl ExtentReader {
    /// Read `extent` from the start; charges reads to `cat`; pins one frame.
    pub fn new(disk: Rc<Disk>, budget: &MemoryBudget, extent: &Extent, cat: IoCat) -> Result<Self> {
        let frame = budget.reserve(1)?;
        let bs = disk.block_size();
        Ok(Self {
            disk,
            cat,
            _frame: frame,
            blocks: extent.blocks.clone(),
            len: extent.len,
            pos: 0,
            frame: vec![0u8; bs],
            loaded: None,
            resident: 0..0,
        })
    }

    /// Current byte offset.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Total byte length of the extent.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the extent is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Jump to an absolute offset. Costs nothing until the next read.
    pub fn seek(&mut self, pos: u64) {
        debug_assert!(pos <= self.len);
        self.pos = pos;
    }

    fn load(&mut self, block_idx: usize) -> Result<()> {
        if self.loaded != Some(block_idx) {
            self.disk.read_block(self.blocks[block_idx], &mut self.frame, self.cat)?;
            self.loaded = Some(block_idx);
            self.resident = resident_range(block_idx, self.frame.len(), self.len);
        }
        Ok(())
    }
}

/// Offsets `[idx * bs, min((idx + 1) * bs, len))` of a stream whose block
/// `idx` sits in a `bs`-byte frame.
pub(crate) fn resident_range(block_idx: usize, bs: usize, len: u64) -> Range<u64> {
    let lo = block_idx as u64 * bs as u64;
    lo..(lo + bs as u64).min(len)
}

/// The bytes of `frame`, which holds stream offsets `range`, from offset
/// `pos` to the range's end; empty when `pos` lies outside it.
pub(crate) fn resident_bytes<'a>(frame: &'a [u8], range: &Range<u64>, pos: u64) -> &'a [u8] {
    if !range.contains(&pos) {
        return &[];
    }
    let (from, to) = ((pos - range.start) as usize, (range.end - range.start) as usize);
    frame.get(from..to).unwrap_or(&[])
}

impl ByteReader for ExtentReader {
    /// A byte inside the loaded frame comes straight from it; anything else
    /// goes through [`Self::read_exact`], so transfers are exactly those of
    /// a `read_exact` per byte.
    fn read_u8(&mut self) -> Result<u8> {
        match self.resident().first() {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => {
                let mut b = [0u8; 1];
                self.read_exact(&mut b)?;
                Ok(b[0])
            }
        }
    }

    fn resident(&self) -> &[u8] {
        resident_bytes(&self.frame, &self.resident, self.pos)
    }

    fn consume(&mut self, n: usize) {
        self.pos += n.min(self.resident().len()) as u64;
    }

    fn fill(&mut self) -> Result<()> {
        if self.pos < self.len && self.resident().is_empty() {
            self.load((self.pos / self.disk.block_size() as u64) as usize)?;
        }
        Ok(())
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let available = (self.len - self.pos) as usize;
        if buf.len() > available {
            return Err(ExtError::UnexpectedEof { wanted: buf.len(), available });
        }
        let bs = self.disk.block_size() as u64;
        let mut filled = 0;
        while filled < buf.len() {
            let block_idx = (self.pos / bs) as usize;
            let off = (self.pos % bs) as usize;
            self.load(block_idx)?;
            let take = (bs as usize - off).min(buf.len() - filled);
            buf[filled..filled + take].copy_from_slice(&self.frame[off..off + take]);
            filled += take;
            self.pos += take as u64;
        }
        Ok(())
    }

    fn remaining(&self) -> u64 {
        self.len - self.pos
    }
}

/// Backward cursor over an extent: reads ranges that *end* at the cursor.
///
/// Used by the stream-reversal pre-pass that resolves end-of-element sort
/// keys before an external subtree sort (see `nexsort::subtree`). A full
/// backward pass costs `ceil(L / B)` reads, same as a forward pass.
pub struct ExtentRevCursor {
    disk: Rc<Disk>,
    cat: IoCat,
    _frame: FrameGuard,
    blocks: Vec<u64>,
    pos: u64,
    frame: Vec<u8>,
    loaded: Option<usize>,
}

impl ExtentRevCursor {
    /// Position the cursor at the end of `extent`.
    pub fn new(disk: Rc<Disk>, budget: &MemoryBudget, extent: &Extent, cat: IoCat) -> Result<Self> {
        let frame = budget.reserve(1)?;
        let bs = disk.block_size();
        Ok(Self {
            disk,
            cat,
            _frame: frame,
            blocks: extent.blocks.clone(),
            pos: extent.len,
            frame: vec![0u8; bs],
            loaded: None,
        })
    }

    /// Bytes remaining before the cursor (i.e. still readable).
    pub fn remaining(&self) -> u64 {
        self.pos
    }

    /// Reposition the cursor at an absolute offset (it will read the bytes
    /// *before* `pos`). Costs nothing until the next read.
    pub fn seek_to(&mut self, pos: u64) {
        self.pos = pos;
    }

    fn load(&mut self, block_idx: usize) -> Result<()> {
        if self.loaded != Some(block_idx) {
            self.disk.read_block(self.blocks[block_idx], &mut self.frame, self.cat)?;
            self.loaded = Some(block_idx);
        }
        Ok(())
    }

    /// Read the `buf.len()` bytes immediately before the cursor (in forward
    /// order) and move the cursor back past them.
    pub fn read_back(&mut self, buf: &mut [u8]) -> Result<()> {
        if (buf.len() as u64) > self.pos {
            return Err(ExtError::UnexpectedEof {
                wanted: buf.len(),
                available: self.pos as usize,
            });
        }
        let bs = self.disk.block_size() as u64;
        let start = self.pos - buf.len() as u64;
        // Fill from the tail backward so the resident frame walks down-block,
        // keeping a sequential backward pass at one load per block.
        let mut end = self.pos;
        while end > start {
            let last = end - 1;
            let block_idx = (last / bs) as usize;
            let block_start = block_idx as u64 * bs;
            let lo = start.max(block_start);
            self.load(block_idx)?;
            let src_lo = (lo - block_start) as usize;
            let src_hi = (end - block_start) as usize;
            let dst_lo = (lo - start) as usize;
            let dst_hi = (end - start) as usize;
            buf[dst_lo..dst_hi].copy_from_slice(&self.frame[src_lo..src_hi]);
            end = lo;
        }
        self.pos = start;
        Ok(())
    }

    /// Read a little-endian `u32` that ends at the cursor.
    pub fn read_back_u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        self.read_back(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::IoCat;

    fn setup(block_size: usize, frames: usize) -> (Rc<Disk>, MemoryBudget) {
        (Disk::new_mem(block_size), MemoryBudget::new(frames))
    }

    fn build_extent(disk: &Rc<Disk>, budget: &MemoryBudget, data: &[u8]) -> Extent {
        let mut w = ExtentWriter::new(disk.clone(), budget, IoCat::SortScratch).unwrap();
        w.write_all(data).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn byte_reads_cost_what_read_exact_costs() {
        let (disk, budget) = setup(16, 4);
        let data: Vec<u8> = (0..100u8).collect();
        let ext = build_extent(&disk, &budget, &data);
        let before = disk.stats().reads(IoCat::SortScratch);
        let mut r = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::SortScratch).unwrap();
        r.seek(30);
        assert!(r.resident().is_empty());
        assert_eq!(r.read_u8().unwrap(), 30);
        assert_eq!(r.resident(), &data[31..32], "block 1 ends at offset 32");
        r.consume(usize::MAX);
        assert_eq!(r.position(), 32);
        let mut got = Vec::new();
        while r.remaining() > 0 {
            got.push(r.read_u8().unwrap());
        }
        assert_eq!(got, &data[32..]);
        // Blocks 1..=6, each loaded once.
        assert_eq!(disk.stats().reads(IoCat::SortScratch) - before, 6);
        // Seeking back into the loaded block reads from the frame again.
        r.seek(97);
        assert_eq!(r.read_u8().unwrap(), 97);
        assert_eq!(disk.stats().reads(IoCat::SortScratch) - before, 6);
    }

    #[test]
    fn fill_loads_the_next_frame_as_a_read_would() {
        let (disk, budget) = setup(16, 4);
        let data: Vec<u8> = (0..40u8).collect();
        let ext = build_extent(&disk, &budget, &data);
        let before = disk.stats().reads(IoCat::SortScratch);
        let mut r = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::SortScratch).unwrap();
        let mut windows = Vec::new();
        loop {
            r.fill().unwrap();
            let w = r.resident().to_vec();
            if w.is_empty() {
                break;
            }
            r.consume(w.len());
            windows.push(w);
        }
        assert_eq!(windows, vec![&data[..16], &data[16..32], &data[32..]]);
        assert_eq!(disk.stats().reads(IoCat::SortScratch) - before, 3, "one load per block");
        r.fill().unwrap();
        assert_eq!(disk.stats().reads(IoCat::SortScratch) - before, 3, "no load at the end");
    }

    #[test]
    fn io_source_streams_any_reader_through_one_window() {
        /// Yields at most 5 bytes per read, interrupted before every other.
        struct Trickle<'a>(&'a [u8], bool);
        impl std::io::Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.1 = !self.1;
                if self.1 {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                let n = buf.len().min(5).min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let data: Vec<u8> = (0..=255u8).collect();
        let mut r = IoSource::new(Trickle(&data, false), data.len() as u64);
        assert_eq!(r.read_u8().unwrap(), 0);
        let mut got = vec![0u8; 100];
        r.read_exact(&mut got).unwrap();
        assert_eq!(got, &data[1..101]);
        r.fill().unwrap();
        assert!(!r.resident().is_empty());
        let mut rest = vec![0u8; r.remaining() as usize];
        r.read_exact(&mut rest).unwrap();
        assert_eq!(rest, &data[101..]);
        assert_eq!(r.remaining(), 0);
        // A stream shorter than its declared length is an EOF error.
        let mut short = IoSource::new(Trickle(&data[..3], false), 10);
        assert!(short.read_exact(&mut [0u8; 10]).is_err());
    }

    #[test]
    fn write_then_read_roundtrip_across_blocks() {
        let (disk, budget) = setup(16, 4);
        let data: Vec<u8> = (0..100u8).collect();
        let ext = build_extent(&disk, &budget, &data);
        assert_eq!(ext.len(), 100);
        assert_eq!(ext.num_blocks(), 7); // ceil(100/16)
        let mut r = ExtentReader::new(disk, &budget, &ext, IoCat::SortScratch).unwrap();
        let mut out = vec![0u8; 100];
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sequential_pass_costs_exactly_ceil_len_over_b_ios() {
        let (disk, budget) = setup(64, 4);
        let data = vec![7u8; 1000];
        let before = disk.stats().snapshot();
        let ext = build_extent(&disk, &budget, &data);
        let after_write = disk.stats().snapshot().since(&before);
        assert_eq!(after_write.writes(IoCat::SortScratch), 16); // ceil(1000/64)

        let before = disk.stats().snapshot();
        let mut r = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::SortScratch).unwrap();
        let mut out = vec![0u8; 1000];
        r.read_exact(&mut out).unwrap();
        let after_read = disk.stats().snapshot().since(&before);
        assert_eq!(after_read.reads(IoCat::SortScratch), 16);
    }

    #[test]
    fn reads_spanning_block_boundaries_assemble_correctly() {
        let (disk, budget) = setup(8, 4);
        let data: Vec<u8> = (0..40u8).collect();
        let ext = build_extent(&disk, &budget, &data);
        let mut r = ExtentReader::new(disk, &budget, &ext, IoCat::SortScratch).unwrap();
        let mut chunk = [0u8; 13]; // deliberately not aligned to 8
        r.read_exact(&mut chunk).unwrap();
        assert_eq!(&chunk[..], &data[0..13]);
        r.read_exact(&mut chunk).unwrap();
        assert_eq!(&chunk[..], &data[13..26]);
    }

    #[test]
    fn eof_is_detected_before_any_partial_fill() {
        let (disk, budget) = setup(8, 4);
        let ext = build_extent(&disk, &budget, b"hello");
        let mut r = ExtentReader::new(disk, &budget, &ext, IoCat::SortScratch).unwrap();
        let mut buf = [0u8; 6];
        match r.read_exact(&mut buf) {
            Err(ExtError::UnexpectedEof { wanted: 6, available: 5 }) => {}
            other => panic!("expected EOF error, got {other:?}"),
        }
    }

    #[test]
    fn seek_supports_random_access() {
        let (disk, budget) = setup(8, 4);
        let data: Vec<u8> = (0..64u8).collect();
        let ext = build_extent(&disk, &budget, &data);
        let mut r = ExtentReader::new(disk, &budget, &ext, IoCat::SortScratch).unwrap();
        r.seek(40);
        assert_eq!(r.read_u8().unwrap(), 40);
        r.seek(7);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.position(), 8);
    }

    #[test]
    fn rev_cursor_reads_backward_in_forward_order() {
        let (disk, budget) = setup(8, 4);
        let data: Vec<u8> = (0..30u8).collect();
        let ext = build_extent(&disk, &budget, &data);
        let mut rc = ExtentRevCursor::new(disk, &budget, &ext, IoCat::SortScratch).unwrap();
        let mut tail = [0u8; 12];
        rc.read_back(&mut tail).unwrap();
        assert_eq!(&tail[..], &data[18..30]);
        let mut mid = [0u8; 10];
        rc.read_back(&mut mid).unwrap();
        assert_eq!(&mid[..], &data[8..18]);
        assert_eq!(rc.remaining(), 8);
        let mut head = [0u8; 9];
        assert!(rc.read_back(&mut head).is_err());
    }

    #[test]
    fn backward_pass_costs_one_read_per_block() {
        let (disk, budget) = setup(32, 4);
        let data = vec![1u8; 320];
        let ext = build_extent(&disk, &budget, &data);
        let before = disk.stats().snapshot();
        let mut rc = ExtentRevCursor::new(disk.clone(), &budget, &ext, IoCat::RunRead).unwrap();
        let mut buf = [0u8; 5];
        while rc.remaining() >= 5 {
            rc.read_back(&mut buf).unwrap();
        }
        let delta = disk.stats().snapshot().since(&before);
        assert_eq!(delta.reads(IoCat::RunRead), 10); // 320/32 blocks, each loaded once
    }

    #[test]
    fn cursors_reserve_and_release_budget_frames() {
        let (disk, budget) = setup(8, 2);
        let ext = build_extent(&disk, &budget, b"abc");
        assert_eq!(budget.used_frames(), 0);
        {
            let _r1 = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::InputRead).unwrap();
            let _r2 = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::InputRead).unwrap();
            assert_eq!(budget.used_frames(), 2);
            assert!(ExtentReader::new(disk.clone(), &budget, &ext, IoCat::InputRead).is_err());
        }
        assert_eq!(budget.used_frames(), 0);
    }

    #[test]
    fn freeing_an_extent_recycles_its_blocks() {
        let (disk, budget) = setup(8, 4);
        let mut ext = build_extent(&disk, &budget, &[9u8; 100]);
        let before = disk.num_blocks();
        ext.free(&disk).unwrap();
        assert!(ext.is_empty());
        // New allocations should reuse the freed blocks, not grow the device.
        let _ext2 = build_extent(&disk, &budget, &[3u8; 100]);
        assert_eq!(disk.num_blocks(), before);
    }

    #[test]
    fn slice_reader_matches_extent_reader_semantics() {
        let data = b"0123456789";
        let mut r = SliceReader::new(data);
        let mut b = [0u8; 4];
        r.read_exact(&mut b).unwrap();
        assert_eq!(&b, b"0123");
        assert_eq!(r.remaining(), 6);
        assert_eq!(r.position(), 4);
        let mut too_big = [0u8; 7];
        assert!(r.read_exact(&mut too_big).is_err());
    }

    #[test]
    fn numeric_helpers_roundtrip() {
        let mut v: Vec<u8> = Vec::new();
        v.write_u8(7).unwrap();
        v.write_u32(0xDEADBEEF).unwrap();
        v.write_u64(0x0123_4567_89AB_CDEF).unwrap();
        let mut r = SliceReader::new(&v);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn empty_extent_behaves() {
        let (disk, budget) = setup(8, 4);
        let w = ExtentWriter::new(disk.clone(), &budget, IoCat::SortScratch).unwrap();
        assert!(w.is_empty());
        let ext = w.finish().unwrap();
        assert!(ext.is_empty());
        assert_eq!(ext.num_blocks(), 0);
        let mut r = ExtentReader::new(disk, &budget, &ext, IoCat::SortScratch).unwrap();
        assert!(r.is_empty());
        assert!(r.read_u8().is_err());
    }

    #[test]
    fn rescans_keep_the_logical_cost_but_hit_a_warm_pool() {
        let (disk, budget) = setup(16, 4);
        disk.enable_cache(8, crate::CachePolicy::Lru, crate::WriteMode::Through);
        let data: Vec<u8> = (0..100u8).collect();
        let ext = build_extent(&disk, &budget, &data); // 7 blocks, written through
        let mut out = vec![0u8; 100];
        for _ in 0..3 {
            let mut r = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::SortScratch).unwrap();
            r.read_exact(&mut out).unwrap();
            assert_eq!(out, data);
        }
        let snap = disk.stats().snapshot();
        // Every pass still costs ceil(L/B) = 7 logical reads -- the paper's
        // quantity is cache-invariant.
        assert_eq!(snap.reads(IoCat::SortScratch), 21);
        // But only the first pass faulted the blocks in (pool holds all 7).
        assert_eq!(snap.phys_reads(IoCat::SortScratch), 7);
        assert_eq!(snap.total_cache_hits(), 14);
    }
}
