//! Key-path records as bytes.
//!
//! The key-path sorts (the baseline, NEXSORT's external subtree sorts and
//! graceful degeneration, top-k) order `(path, rec)` pairs. Decoding every
//! pair into owned [`KeyPath`](crate::KeyPath)/[`Rec`](crate::Rec) trees to
//! compare it, then re-encoding it on the way out, costs more than the
//! comparison itself. This module keeps the records encoded instead -- the
//! normalized-key idea (Graefe, *Implementing Sorting in Database Systems*)
//! applied without changing the on-disk format:
//!
//! * [`cmp_encoded_paths`] orders two encoded pairs exactly like
//!   [`KeyPath::cmp_path`](crate::KeyPath::cmp_path) orders their decoded
//!   paths, walking the bytes and allocating nothing;
//! * [`read_pathed_raw`] copies one pair off a byte source while validating
//!   it exactly as [`PathedRec::decode`](crate::PathedRec::decode) does,
//!   building an error only when the pair fails;
//! * [`PathedForest`] indexes a memory-load of pairs as sibling lists, so
//!   run formation sorts siblings by their last component, not whole paths;
//! * [`EncodedPath`] builds the root-to-here path as bytes, so a record is
//!   encoded with its path once, straight into the caller's buffer;
//! * [`PathedBytes`] is one such encoded pair, as the merges carry it.
//!
//! Plain records stay encoded the same way through the in-memory subtree
//! sort and the output phase:
//!
//! * [`read_rec_raw`] copies one record off a byte source while validating
//!   it exactly as [`Rec::decode`](crate::Rec::decode) does, and [`RecHead`] is what that
//!   validation learns: kind, level, where the key lies, sequence number;
//! * [`RecRef`] reads a validated record's name, attributes, text or run in
//!   place, for the XML writer and the checks;
//! * [`cmp_encoded_keys`] and [`cmp_encoded_siblings`] order encoded keys
//!   as [`KeyValue`](crate::KeyValue)'s `Ord` and
//!   [`Rec::sibling_cmp`](crate::Rec::sibling_cmp) order decoded ones;
//! * [`EncodedForest`] sorts a range of records in memory by reordering
//!   their spans -- the paper's "simply involves reordering the pointers"
//!   (Section 1) -- and writes them out without decoding one.

use std::cmp::Ordering;

use nexsort_extmem::{ByteReader, ByteSink, ExtError, SliceReader};

use crate::error::{Result, XmlError};
use crate::key::sorts_children_of;
use crate::rec::{RecKind, KIND_ELEM, KIND_PATCH, KIND_PTR, KIND_TEXT};
use crate::sym::TagDict;
use crate::varint::{uvarint_len, write_uvarint};

/// Order two encoded `(path, rec)` pairs by key path: component by
/// component (key, then sequence number), a proper prefix first. Only the
/// path prefixes are read, so bare encoded paths compare the same way.
///
/// Agrees exactly with [`KeyPath::cmp_path`](crate::KeyPath::cmp_path) on
/// the decoded paths: key tags order by rank (`Missing < Num < Bytes <
/// Desc < Tuple`), numbers by value, byte strings lexicographically, `Desc`
/// reversed, tuples componentwise then by arity. Meant for encodings this
/// crate wrote or [`read_pathed_raw`] validated; malformed bytes compare
/// deterministically but meaninglessly, and never panic.
pub fn cmp_encoded_paths(a: &[u8], b: &[u8]) -> Ordering {
    let same = common_prefix(a, b);
    let (mut a, mut b) = (Cursor::new(a), Cursor::new(b));
    let (na, nb) = (a.uvarint(), b.uvarint());
    let mut i = 0;
    // Components lying wholly inside the common byte prefix are identical,
    // so equal: skip them by parsing one side only.
    while i < na.min(nb) {
        let start = a.pos;
        a.skip_comp();
        if a.pos > same {
            a.pos = start;
            break;
        }
        b.pos = a.pos;
        i += 1;
    }
    for _ in i..na.min(nb) {
        if a.exhausted() && b.exhausted() {
            break;
        }
        match cmp_key(&mut a, &mut b).then_with(|| a.uvarint().cmp(&b.uvarint())) {
            Ordering::Equal => {}
            ord => return ord,
        }
    }
    na.cmp(&nb)
}

/// Length of the longest common prefix of `a` and `b`, eight bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let word = |s: &[u8]| u64::from_le_bytes(<[u8; 8]>::try_from(s).unwrap_or_default());
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    let (ta, tb) = (a.get(n..).unwrap_or(&[]), b.get(n..).unwrap_or(&[]));
    n + ta.iter().zip(tb).take_while(|(x, y)| x == y).count()
}

/// Compare the encoded keys at both cursors. On `Equal` both keys have been
/// consumed whole; otherwise the cursors are left mid-key (the caller stops).
fn cmp_key(a: &mut Cursor<'_>, b: &mut Cursor<'_>) -> Ordering {
    let (ta, tb) = (a.u8(), b.u8());
    if ta != tb {
        // Tags are the ranks.
        return ta.cmp(&tb);
    }
    match ta {
        1 => unzigzag(a.uvarint()).cmp(&unzigzag(b.uvarint())),
        2 => {
            let (la, lb) = (a.uvarint(), b.uvarint());
            a.take(la).cmp(b.take(lb))
        }
        3 => cmp_key(b, a),
        4 => {
            let (na, nb) = (a.uvarint(), b.uvarint());
            for _ in 0..na.min(nb) {
                if a.exhausted() && b.exhausted() {
                    break;
                }
                match cmp_key(a, b) {
                    Ordering::Equal => {}
                    ord => return ord,
                }
            }
            na.cmp(&nb)
        }
        _ => Ordering::Equal,
    }
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Order two encoded keys exactly as [`KeyValue`](crate::KeyValue)'s `Ord` orders the
/// decoded keys. Like [`cmp_encoded_paths`], it allocates nothing and never
/// panics on malformed bytes.
pub fn cmp_encoded_keys(a: &[u8], b: &[u8]) -> Ordering {
    cmp_key(&mut Cursor::new(a), &mut Cursor::new(b))
}

/// Sibling order over encoded `(key, seq)` pairs: key, then sequence
/// number. Defined to equal [`Rec::sibling_cmp`](crate::Rec::sibling_cmp) on
/// the decoded records.
pub fn cmp_encoded_siblings(a: (&[u8], u64), b: (&[u8], u64)) -> Ordering {
    cmp_encoded_keys(a.0, b.0).then(a.1.cmp(&b.1))
}

/// The comparator's byte cursor. Reads past the end yield zeros, so the
/// comparator stays total and panic-free on any input; past both ends every
/// further component compares equal, so the loops stop there.
#[derive(Debug, Clone, Copy)]
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn exhausted(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn u8(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn uvarint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8();
            v |= u64::from(byte & 0x7F).checked_shl(shift).unwrap_or(0);
            if byte & 0x80 == 0 {
                return v;
            }
            shift = shift.saturating_add(7);
        }
    }

    /// Step over one encoded key.
    fn skip_key(&mut self) {
        match self.u8() {
            1 => {
                self.uvarint();
            }
            2 => {
                let len = self.uvarint();
                self.take(len);
            }
            3 => self.skip_key(),
            4 => {
                for _ in 0..self.uvarint() {
                    if self.exhausted() {
                        break;
                    }
                    self.skip_key();
                }
            }
            _ => {}
        }
    }

    /// Step over one path component: its key and sequence number.
    fn skip_comp(&mut self) {
        self.skip_key();
        self.uvarint();
    }

    fn take(&mut self, n: u64) -> &'a [u8] {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        let n = usize::try_from(n).unwrap_or(usize::MAX).min(rest.len());
        self.pos += n;
        &rest[..n]
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self) -> &'a [u8] {
        let len = self.uvarint();
        self.take(len)
    }

    /// A record's name: a dictionary id or inline bytes.
    fn name(&mut self) -> NameBytes<'a> {
        match self.u8() {
            0 => NameBytes::Sym(self.uvarint() as u32),
            _ => NameBytes::Inline(self.bytes()),
        }
    }
}

/// Append one encoded `(path, rec)` pair from `src` to `out`, validating it
/// exactly as [`PathedRec::decode`](crate::PathedRec::decode) does: key and
/// name tags, byte-string lengths and the path length against the bytes
/// remaining, the attribute count, tuple arity (at most 64), the record
/// kind and its 4-byte trailer. Returns the length of the path prefix, so
/// `out[start + path_len..]` is the plain record. On error `out` may hold a
/// partial pair.
pub fn read_pathed_raw(src: &mut impl ByteReader, out: &mut Vec<u8>) -> Result<usize> {
    // Most pairs lie wholly in the reader's resident bytes: validate them
    // there and copy them in one piece. A pair that validates against the
    // window's smaller `remaining` validates against the stream's too.
    let window = src.resident();
    let mut fast = Window { bytes: window, pos: 0 };
    if let Some(path_len) = fast.pathed() {
        out.extend_from_slice(&window[..fast.pos]);
        src.consume(fast.pos);
        return Ok(path_len);
    }
    // The pair runs past the window (or is malformed): validate it byte by
    // byte off the stream, copying as it goes.
    Tee::run(src, out, |t| t.pathed())
}

/// Append one encoded record from `src` to `out`, validating it exactly as
/// [`Rec::decode`](crate::Rec::decode) does, and return its layout: the plain-record
/// counterpart of [`read_pathed_raw`], with the same transfers as a decode.
/// On error `out` may hold a partial record.
pub fn read_rec_raw(src: &mut impl ByteReader, out: &mut Vec<u8>) -> Result<RecHead> {
    let window = src.resident();
    let mut fast = Window { bytes: window, pos: 0 };
    if let Some(head) = fast.rec() {
        out.extend_from_slice(&window[..head.len]);
        src.consume(head.len);
        return Ok(head);
    }
    Tee::run(src, out, |t| t.rec())
}

/// The layout of one encoded record, as validating it found it: what the
/// byte-level sort, writer and checks read instead of a decoded [`Rec`](crate::Rec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecHead {
    /// The record's kind.
    pub kind: RecKind,
    /// The record's level.
    pub level: u32,
    /// Where the key lies in the record: `rec[key.0..key.1]`.
    pub key: (usize, usize),
    /// The input sequence number (0 for a key patch, as [`Rec::seq`](crate::Rec::seq)).
    pub seq: u64,
    /// The encoded length, trailer included.
    pub len: usize,
}

impl RecHead {
    /// Validate the record at the start of `rec` exactly as [`Rec::decode`](crate::Rec::decode)
    /// does and return its layout.
    pub fn parse(rec: &[u8]) -> Result<RecHead> {
        if let Some(head) = (Window { bytes: rec, pos: 0 }).rec() {
            return Ok(head);
        }
        // Only a failure pays for its error: validate again, as a stream
        // over the same bytes, which says why.
        Tee::run(&mut SliceReader::new(rec), &mut Vec::new(), |t| t.rec())
    }

    /// The key bytes of the record `rec` this head describes.
    pub fn key_of<'a>(&self, rec: &'a [u8]) -> &'a [u8] {
        rec.get(self.key.0..self.key.1).unwrap_or(&[])
    }
}

/// A byte source for the validator, which mirrors the decoders of the same
/// shapes (`read_uvarint`, `read_bytes`, `KeyValue::decode`, `Rec::decode`)
/// but builds nothing: every step answers `None` on failure, and only a
/// validator that reports why ([`Tee`]) builds the error, at the failing
/// step.
trait Validate {
    fn u8(&mut self) -> Option<u8>;
    /// Step over `n` bytes, already checked against [`Self::remaining`].
    fn skip(&mut self, n: usize) -> Option<()>;
    fn u32(&mut self) -> Option<u32>;
    fn remaining(&self) -> u64;
    /// Bytes consumed so far.
    fn consumed(&self) -> usize;
    /// Fail the current step for the reason `why` builds, if this
    /// validator reports reasons.
    fn fail<T>(&mut self, why: impl FnOnce() -> XmlError) -> Option<T>;

    fn uvarint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return self
                    .fail(|| XmlError::Ext(ExtError::Corrupt("varint overflows u64".into())));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    fn bytes(&mut self) -> Option<()> {
        let len = self.uvarint()? as usize;
        if len as u64 > self.remaining() {
            return self.fail(|| {
                let msg = format!("byte-string length {len} exceeds remaining input");
                XmlError::Ext(ExtError::Corrupt(msg))
            });
        }
        self.skip(len)
    }

    fn key(&mut self) -> Option<()> {
        match self.u8()? {
            0 => {}
            1 => {
                self.uvarint()?;
            }
            2 => self.bytes()?,
            3 => self.key()?,
            4 => {
                let n = self.uvarint()? as usize;
                if n > 64 {
                    return self.fail(|| XmlError::Record(format!("implausible tuple arity {n}")));
                }
                for _ in 0..n {
                    self.key()?;
                }
            }
            t => return self.fail(|| XmlError::Record(format!("bad key tag {t}"))),
        }
        Some(())
    }

    fn name(&mut self) -> Option<()> {
        match self.u8()? {
            0 => {
                self.uvarint()?;
            }
            1 => self.bytes()?,
            t => return self.fail(|| XmlError::Record(format!("bad name tag {t}"))),
        }
        Some(())
    }

    fn rec(&mut self) -> Option<RecHead> {
        let start = self.consumed();
        let kind = self.u8()?;
        let level = self.uvarint()? as u32;
        let body_start = self.consumed();
        let before = self.remaining();
        let kind = match kind {
            KIND_ELEM => {
                self.name()?;
                let nattrs = self.uvarint()? as usize;
                if nattrs as u64 > before {
                    return self.fail(|| {
                        XmlError::Record(format!("implausible attribute count {nattrs}"))
                    });
                }
                for _ in 0..nattrs {
                    self.name()?;
                    self.bytes()?;
                }
                RecKind::Elem
            }
            KIND_TEXT => {
                self.bytes()?;
                RecKind::Text
            }
            KIND_PTR => {
                self.uvarint()?;
                RecKind::RunPtr
            }
            KIND_PATCH => RecKind::KeyPatch,
            t => return self.fail(|| XmlError::Record(format!("bad record kind {t}"))),
        };
        let key_start = self.consumed() - start;
        self.key()?;
        let key = (key_start, self.consumed() - start);
        let seq = if kind == RecKind::KeyPatch { 0 } else { self.uvarint()? };
        // Counted the way `Rec::decode` counts, so the same trailers pass.
        let consumed =
            1 + uvarint_len(u64::from(level)) as u64 + (self.consumed() - body_start) as u64 + 4;
        let total = self.u32()?;
        if u64::from(total) != consumed {
            return self.fail(|| {
                XmlError::Record(format!("record trailer says {total} bytes, decoded {consumed}"))
            });
        }
        Some(RecHead { kind, level, key, seq, len: self.consumed() - start })
    }

    /// Validate one `(path, rec)` pair; returns the path prefix's length.
    fn pathed(&mut self) -> Option<usize> {
        let n = self.uvarint()?;
        if n > self.remaining() {
            return self.fail(|| XmlError::Record(format!("implausible key-path length {n}")));
        }
        for _ in 0..n {
            self.key()?;
            self.uvarint()?;
        }
        let path_len = self.consumed();
        self.rec()?;
        Some(path_len)
    }
}

/// Validates in place over a reader's resident bytes, and never says why it
/// failed: a failure here only means "ask the stream".
struct Window<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Validate for Window<'_> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn skip(&mut self, n: usize) -> Option<()> {
        self.pos += n;
        Some(())
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn remaining(&self) -> u64 {
        self.bytes.len().saturating_sub(self.pos) as u64
    }

    fn consumed(&self) -> usize {
        self.pos
    }

    fn fail<T>(&mut self, _why: impl FnOnce() -> XmlError) -> Option<T> {
        None
    }
}

/// Validates off a stream, appending every byte it reads to `out`, and
/// keeps why it failed: the stream's own error (a device fault, the end of
/// the data) or the grammar's.
struct Tee<'a, R: ByteReader> {
    start: usize,
    src: &'a mut R,
    out: &'a mut Vec<u8>,
    why: Option<XmlError>,
}

impl<'a, R: ByteReader> Tee<'a, R> {
    /// Validate off `src` as `step` does, appending what it reads to `out`:
    /// its answer, or why it failed.
    fn run<T>(
        src: &'a mut R,
        out: &'a mut Vec<u8>,
        step: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Result<T> {
        let mut tee = Tee { start: out.len(), src, out, why: None };
        step(&mut tee).ok_or_else(|| {
            tee.why.take().unwrap_or_else(|| XmlError::Record("invalid record".into()))
        })
    }
}

impl<R: ByteReader> Validate for Tee<'_, R> {
    fn u8(&mut self) -> Option<u8> {
        match self.src.read_u8() {
            Ok(b) => {
                self.out.push(b);
                Some(b)
            }
            Err(e) => self.fail(|| e.into()),
        }
    }

    fn skip(&mut self, n: usize) -> Option<()> {
        let at = self.out.len();
        self.out.resize(at + n, 0);
        match self.src.read_exact(&mut self.out[at..]) {
            Ok(()) => Some(()),
            Err(e) => self.fail(|| e.into()),
        }
    }

    fn u32(&mut self) -> Option<u32> {
        match self.src.read_u32() {
            Ok(v) => {
                self.out.extend_from_slice(&v.to_le_bytes());
                Some(v)
            }
            Err(e) => self.fail(|| e.into()),
        }
    }

    fn remaining(&self) -> u64 {
        self.src.remaining()
    }

    fn consumed(&self) -> usize {
        self.out.len() - self.start
    }

    fn fail<T>(&mut self, why: impl FnOnce() -> XmlError) -> Option<T> {
        self.why = Some(why());
        None
    }
}

/// The current root-to-here key path, kept encoded: the components' bytes
/// (`key ‖ uvarint(seq)` each) plus the end offset of every level. Moving
/// to a sibling or a child truncates and appends; the ancestors' bytes are
/// never touched, cloned or re-encoded.
#[derive(Debug, Clone, Default)]
pub struct EncodedPath {
    comps: Vec<u8>,
    ends: Vec<usize>,
}

impl EncodedPath {
    /// An empty path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of components.
    pub fn depth(&self) -> usize {
        self.ends.len()
    }

    /// Keep only the first `depth` components.
    pub fn truncate(&mut self, depth: usize) {
        if depth < self.ends.len() {
            self.ends.truncate(depth);
            self.comps.truncate(self.ends.last().copied().unwrap_or(0));
        }
    }

    /// Append the component of an encoded element, text or pointer record
    /// (the [`Rec::encode`](crate::Rec::encode) format): its key bytes as they are (the
    /// `Missing` key instead when `masked`) and its sequence number.
    pub fn push_encoded(&mut self, rec: &[u8], masked: bool) -> Result<()> {
        let (key, seq) = rec_key_seq(rec)?;
        self.comps.extend_from_slice(if masked { &[0] } else { key });
        write_uvarint(&mut self.comps, seq)?;
        self.ends.push(self.comps.len());
        Ok(())
    }

    /// Append the path prefix of a `(path, rec)` pair -- `uvarint(depth) ‖
    /// components`, the [`PathedRec`](crate::PathedRec) format -- to `out`,
    /// returning its length; the encoded record goes right after it.
    pub fn write_prefix(&self, out: &mut Vec<u8>) -> Result<usize> {
        let start = out.len();
        write_uvarint(out, self.ends.len() as u64)?;
        out.extend_from_slice(&self.comps);
        Ok(out.len() - start)
    }
}

/// The key bytes and sequence number of an encoded element, text or
/// pointer record this crate wrote.
fn rec_key_seq(rec: &[u8]) -> Result<(&[u8], u64)> {
    let mut c = Cursor::new(rec);
    let kind = c.u8();
    c.uvarint(); // level
    match kind {
        KIND_ELEM => {
            c.name();
            for _ in 0..c.uvarint() {
                if c.exhausted() {
                    break;
                }
                c.name();
                c.bytes();
            }
        }
        KIND_TEXT => {
            c.bytes();
        }
        KIND_PTR => {
            c.uvarint(); // run
        }
        k => return Err(XmlError::Record(format!("record kind {k} has no path component"))),
    }
    let start = c.pos;
    c.skip_key();
    let end = c.pos;
    let seq = c.uvarint();
    match rec.get(start..end) {
        Some(key) if !c.exhausted() => Ok((key, seq)),
        _ => Err(XmlError::Record("truncated record".into())),
    }
}

/// One encoded `(path, rec)` pair and where its path prefix ends: the unit
/// the key-path merges move from run to run without decoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathedBytes {
    /// The pair's bytes, in the [`PathedRec`](crate::PathedRec) format.
    pub bytes: Vec<u8>,
    /// Length of the path prefix; the plain record follows it.
    pub path_len: usize,
}

impl PathedBytes {
    /// Key-path order ([`cmp_encoded_paths`]).
    pub fn cmp_path(&self, other: &Self) -> Ordering {
        cmp_encoded_paths(&self.bytes, &other.bytes)
    }

    /// The plain encoded record, without its path.
    pub fn rec_bytes(&self) -> &[u8] {
        self.bytes.get(self.path_len..).unwrap_or(&[])
    }

    /// True if the record is a collapsed subtree ([`Rec::RunPtr`](crate::Rec::RunPtr)).
    pub fn is_run_ptr(&self) -> bool {
        self.rec_bytes().first() == Some(&KIND_PTR)
    }

    /// The record's level.
    pub fn level(&self) -> u32 {
        let mut c = Cursor::new(self.rec_bytes());
        c.u8();
        c.uvarint() as u32
    }
}

/// A name as an encoded record stores it, borrowed from the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameBytes<'a> {
    /// A dictionary id (compaction on).
    Sym(u32),
    /// The name itself (compaction off).
    Inline(&'a [u8]),
}

impl<'a> NameBytes<'a> {
    /// The name's bytes: an inline name as it is, an id through `dict`.
    pub fn resolve<'d>(self, dict: &'d TagDict) -> Result<&'d [u8]>
    where
        'a: 'd,
    {
        match self {
            NameBytes::Sym(id) => dict.resolve(id),
            NameBytes::Inline(b) => Ok(b),
        }
    }
}

/// The attributes of an encoded element record, read in place: `(name,
/// value)` pairs in document order.
#[derive(Debug, Clone, Copy)]
pub struct AttrBytes<'a> {
    c: Cursor<'a>,
    left: u64,
}

impl<'a> Iterator for AttrBytes<'a> {
    type Item = (NameBytes<'a>, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 || self.c.exhausted() {
            return None;
        }
        self.left -= 1;
        let name = self.c.name();
        Some((name, self.c.bytes()))
    }
}

/// One encoded record (the [`Rec::encode`](crate::Rec::encode) format), read in place: the
/// borrowed counterpart of [`Rec`](crate::Rec) that the XML writer and the checks use.
/// Meant for records that were validated ([`read_rec_raw`],
/// [`RecHead::parse`]); on other bytes only an unknown kind is an error,
/// and the rest reads as zeros or empty slices, never a panic.
#[derive(Debug, Clone, Copy)]
pub enum RecRef<'a> {
    /// An element start.
    Elem {
        /// Its level.
        level: u32,
        /// Its name.
        name: NameBytes<'a>,
        /// Its attributes.
        attrs: AttrBytes<'a>,
    },
    /// A text node.
    Text {
        /// Its level.
        level: u32,
        /// Its content.
        content: &'a [u8],
    },
    /// A collapsed subtree.
    RunPtr {
        /// Its level.
        level: u32,
        /// The sorted run holding the subtree.
        run: u32,
    },
    /// A deferred-key patch.
    KeyPatch {
        /// The level of the element it patches.
        level: u32,
    },
}

impl<'a> RecRef<'a> {
    /// Read the record at the start of `rec`.
    pub fn read(rec: &'a [u8]) -> Result<Self> {
        let mut c = Cursor::new(rec);
        let kind = c.u8();
        let level = c.uvarint() as u32;
        Ok(match kind {
            KIND_ELEM => {
                let name = c.name();
                let left = c.uvarint();
                RecRef::Elem { level, name, attrs: AttrBytes { c, left } }
            }
            KIND_TEXT => RecRef::Text { level, content: c.bytes() },
            KIND_PTR => RecRef::RunPtr { level, run: c.uvarint() as u32 },
            KIND_PATCH => RecRef::KeyPatch { level },
            k => return Err(XmlError::Record(format!("bad record kind {k}"))),
        })
    }
}

/// One record of an [`EncodedForest`].
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Offset of the record in the arena.
    at: usize,
    head: RecHead,
    /// The sort key's span in the arena: the record's own key, or the key
    /// of the last patch applied to it.
    key: (usize, usize),
    /// One past the last node of this record's subtree.
    end: usize,
}

impl Node {
    fn patched(&self) -> bool {
        self.key != (self.at + self.head.key.0, self.at + self.head.key.1)
    }
}

/// A byte range of encoded records in DFS order -- a subtree, or a forest
/// of them -- indexed for the in-memory sort: the byte-level counterpart
/// of sorting owned records as a tree, which it is defined to equal.
///
/// [`Self::index`] walks the records once, keeping each one's offset and
/// layout, and applies every [`Rec::KeyPatch`](crate::Rec::KeyPatch) as an out-of-line key span
/// on its open element. [`Self::write_sorted`] then orders each sibling
/// list by [`cmp_encoded_siblings`] and writes the records' bytes in DFS
/// order; a patched element is re-emitted with its key spliced in and its
/// trailer recomputed, exactly as [`Rec::encode`](crate::Rec::encode) writes
/// the patched record.
/// Patches themselves are consumed.
pub struct EncodedForest<'a> {
    bytes: &'a [u8],
    nodes: Vec<Node>,
}

impl<'a> EncodedForest<'a> {
    /// Validate and index the records of `bytes`. Levels are absolute; a
    /// record at level `l` closes every open element at level `>= l`, and a
    /// patch at level `l` every one deeper than `l`. Errors: a record that
    /// fails validation, a patch with no open element at its level, and a
    /// record more than one level below the open element.
    pub fn index(bytes: &'a [u8]) -> Result<Self> {
        let mut nodes: Vec<Node> = Vec::new();
        // Open elements, by node index; their levels increase.
        let mut open: Vec<usize> = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let head = RecHead::parse(&bytes[at..])?;
            let level = head.level;
            let patch = head.kind == RecKind::KeyPatch;
            let close_to = if patch { level.saturating_add(1) } else { level };
            while let Some(&top) = open.last().filter(|&&t| nodes[t].head.level >= close_to) {
                open.pop();
                nodes[top].end = nodes.len();
            }
            let key = (at + head.key.0, at + head.key.1);
            if patch {
                match open.last() {
                    Some(&top) if nodes[top].head.level == level => nodes[top].key = key,
                    _ => {
                        return Err(XmlError::Record(format!(
                            "key patch at level {level} has no open element"
                        )))
                    }
                }
            } else {
                if let Some(&top) = open.last() {
                    let parent = nodes[top].head.level;
                    if parent.checked_add(1) != Some(level) {
                        return Err(XmlError::Record(format!(
                            "level jump to {level} under level {parent}"
                        )));
                    }
                }
                let i = nodes.len();
                if head.kind == RecKind::Elem {
                    open.push(i);
                }
                nodes.push(Node { at, head, key, end: i + 1 });
            }
            at += head.len;
        }
        for top in open {
            nodes[top].end = nodes.len();
        }
        Ok(Self { bytes, nodes })
    }

    /// Number of records, patches excluded.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the range held no record but patches (or nothing).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The first record -- the first root, which the sort leaves first --
    /// as its kind, level, sort key bytes (patched, if a patch applied) and
    /// sequence number.
    pub fn first(&self) -> Option<(RecKind, u32, &'a [u8], u64)> {
        self.nodes.first().map(|n| (n.head.kind, n.head.level, self.key(n), n.head.seq))
    }

    /// True if some record is a collapsed subtree ([`Rec::RunPtr`](crate::Rec::RunPtr)).
    pub fn has_run_ptrs(&self) -> bool {
        self.nodes.iter().any(|n| n.head.kind == RecKind::RunPtr)
    }

    fn key(&self, n: &Node) -> &'a [u8] {
        &self.bytes[n.key.0..n.key.1]
    }

    /// Write the records to `sink` in DFS order, every sibling list sorted
    /// by key then sequence number -- except the children of elements below
    /// `depth_limit` (levels `> d` keep document order; the roots always
    /// do).
    pub fn write_sorted(&self, depth_limit: Option<u32>, mut sink: impl ByteSink) -> Result<()> {
        let nodes = &self.nodes;
        walk_sorted(
            nodes.len(),
            |i| nodes[i].end,
            |i| sorts_children_of(depth_limit, nodes[i].head.level),
            |a, b| {
                let (x, y) = (&nodes[a], &nodes[b]);
                cmp_encoded_siblings((self.key(x), x.head.seq), (self.key(y), y.head.seq))
            },
            |i| self.write_node(&nodes[i], &mut sink),
        )
    }

    fn write_node(&self, n: &Node, sink: &mut impl ByteSink) -> Result<()> {
        let rec = &self.bytes[n.at..n.at + n.head.len];
        if !n.patched() {
            sink.write_all(rec)?;
            return Ok(());
        }
        let key = self.key(n);
        let (from, to) = n.head.key;
        sink.write_all(&rec[..from])?;
        sink.write_all(key)?;
        sink.write_all(&rec[to..rec.len() - 4])?;
        sink.write_u32((rec.len() - (to - from) + key.len()) as u32)?;
        Ok(())
    }
}

/// Visit a forest kept in pre-order -- node `i`'s subtree is the nodes
/// `i..end(i)` -- depth first: the roots in their order, and the children of
/// every node `i` with `sorts(i)` ordered by `cmp`, ties to the earlier
/// node. The one walk behind [`EncodedForest::write_sorted`] and
/// [`PathedForest::write_sorted`].
fn walk_sorted(
    len: usize,
    end: impl Fn(usize) -> usize,
    sorts: impl Fn(usize) -> bool,
    mut cmp: impl FnMut(usize, usize) -> Ordering,
    mut visit: impl FnMut(usize) -> Result<()>,
) -> Result<()> {
    let siblings = |from: usize, to: usize, out: &mut Vec<usize>| {
        let mut j = from;
        while j < to {
            out.push(j);
            j = end(j);
        }
    };
    // Nodes still to visit, the next on top.
    let mut work = Vec::new();
    siblings(0, len, &mut work);
    work.reverse();
    let mut kids = Vec::new();
    while let Some(i) = work.pop() {
        visit(i)?;
        let to = end(i);
        if to == i + 1 {
            continue;
        }
        kids.clear();
        siblings(i + 1, to, &mut kids);
        if sorts(i) {
            // Unstable, with the index last: the order a stable sort gives,
            // without its buffer.
            kids.sort_unstable_by(|&a, &b| cmp(a, b).then(a.cmp(&b)));
        }
        work.extend(kids.iter().rev());
    }
    Ok(())
}

/// One node of a [`PathedForest`]: a pair of the load, or a spine node
/// standing for an ancestor the load does not hold. Offsets are into the
/// arena the pairs lie in.
#[derive(Debug, Clone, Copy)]
struct PathNode {
    /// Where the pair starts (unused for a spine node).
    at: u32,
    /// The key path's components, without the depth: `arena[path.0..path.1]`.
    path: (u32, u32),
    /// The last component's key: `arena[key.0..key.1]`.
    key: (u32, u32),
    /// One past the last node of this node's subtree (`u32::MAX` while it
    /// is open).
    end: u32,
    /// The last component's sequence number.
    seq: u64,
    /// [`key_lead`] of the last component's key.
    lead: u64,
}

impl PathNode {
    /// A node for the component `arena[key.0..]` (a key, then `seq`) of the
    /// path `arena[path.0..path.1]`, whose pair starts at `at`.
    fn new(
        arena: &[u8],
        at: usize,
        path: (usize, usize),
        key: (usize, usize),
        seq: u64,
    ) -> Result<Self> {
        let offset =
            |x: usize| u32::try_from(x).map_err(|_| XmlError::Record("load over 4 GiB".into()));
        Ok(PathNode {
            at: offset(at)?,
            path: (offset(path.0)?, offset(path.1)?),
            key: (offset(key.0)?, offset(key.1)?),
            end: u32::MAX,
            seq,
            lead: key_lead(&arena[key.0..key.1]),
        })
    }
}

/// The first bytes of an encoded key's order, as a number: two keys whose
/// leads differ order as their leads do ([`cmp_encoded_keys`]); equal leads
/// say nothing. The tag's rank, then the top 56 bits of a number or the
/// first 7 bytes of a byte string -- a normalized key prefix (Graefe), which
/// settles most sibling comparisons in one integer compare.
fn key_lead(key: &[u8]) -> u64 {
    let mut c = Cursor::new(key);
    let tag = c.u8();
    let body = match tag {
        1 => ((unzigzag(c.uvarint()) as u64) ^ (1 << 63)) >> 8,
        2 => {
            let (bytes, mut lead) = (c.bytes(), [0u8; 8]);
            let n = bytes.len().min(7);
            lead[1..1 + n].copy_from_slice(&bytes[..n]);
            u64::from_be_bytes(lead)
        }
        _ => 0,
    };
    (u64::from(tag) << 56) | body
}

/// A memory-load of encoded `(path, rec)` pairs in document order, indexed
/// as the tree their key paths describe, so that sorting it sorts sibling
/// lists by their last component instead of whole key paths -- the paper's
/// point that sorting siblings "simply involves reordering the pointers"
/// (Section 1), applied to run formation.
///
/// The pairs lie back to back in an arena the caller owns; [`Self::push`]
/// indexes each one as it is appended. The first pair's path prefix becomes
/// a spine of nodes standing for the ancestors the load does not hold; every
/// later pair hangs under the open node one component up, whose path must
/// be its path's prefix byte for byte. [`Self::write_sorted`] then writes
/// the pairs depth first, every sibling list ordered by
/// [`cmp_encoded_siblings`] on the last component, ties to arrival order:
/// exactly the order [`cmp_encoded_paths`] gives the pairs, ties to arrival
/// order too, which is why two siblings with equal components, one of them
/// with children, are an error rather than a tie.
#[derive(Debug, Default)]
pub struct PathedForest {
    nodes: Vec<PathNode>,
    /// The open nodes, root first: `open[d]` has a path of `d` components.
    open: Vec<usize>,
    /// How many nodes are spine nodes (the first ones).
    spine: usize,
}

impl PathedForest {
    /// True if no pair was pushed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forget every pair.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.open.clear();
        self.spine = 0;
    }

    /// Index the pair `arena[at..]` -- the last one appended -- whose path
    /// prefix is `path_len` bytes long. Errors if its path is not an open
    /// node's path plus one component: a pair out of document order, a
    /// level jump, or an empty path.
    pub fn push(&mut self, arena: &[u8], at: usize, path_len: usize) -> Result<()> {
        let bad = |what: &str| Err(XmlError::Record(format!("key-path load: {what}")));
        let Some(prefix) = arena.get(at..).and_then(|p| p.get(..path_len)) else {
            return bad("path prefix runs past the pair");
        };
        let mut c = Cursor::new(prefix);
        let depth = c.uvarint();
        let path_start = at + c.pos;
        if depth == 0 {
            return bad("empty key path");
        }
        if self.nodes.is_empty() {
            // The spine: a root for the empty path, then one node per
            // ancestor the first pair names.
            let root = (path_start, path_start);
            self.nodes.push(PathNode::new(arena, 0, root, root, 0)?);
            self.open.push(0);
            for _ in 1..depth {
                let (key, seq) = Self::comp(&mut c, path_len)?;
                let path = (path_start, at + c.pos);
                self.open.push(self.nodes.len());
                self.nodes.push(PathNode::new(arena, 0, path, (at + key.0, at + key.1), seq)?);
            }
            self.spine = self.nodes.len();
        } else {
            if depth > self.open.len() as u64 {
                return bad("level jump");
            }
            // A load holds fewer than 2^32 nodes (PathNode::new checks the
            // arena's offsets); `u32::MAX` would still read as "to the end".
            let end = u32::try_from(self.nodes.len()).unwrap_or(u32::MAX);
            while self.open.len() as u64 > depth {
                if let Some(top) = self.open.pop() {
                    self.nodes[top].end = end;
                }
            }
            let parent = self.nodes[self.open[self.open.len() - 1]];
            let parent_path = &arena[parent.path.0 as usize..parent.path.1 as usize];
            let from = path_start - at;
            match prefix.get(from..from + parent_path.len()) {
                Some(p) if p == parent_path => c.pos = from + parent_path.len(),
                _ => return bad("path is not an open node's path plus one component"),
            }
        }
        let (key, seq) = Self::comp(&mut c, path_len)?;
        if c.pos != path_len {
            return bad("path is not an open node's path plus one component");
        }
        let path = (path_start, at + path_len);
        self.open.push(self.nodes.len());
        self.nodes.push(PathNode::new(arena, at, path, (at + key.0, at + key.1), seq)?);
        Ok(())
    }

    /// Step `c` over one path component, which must end by `limit`: the
    /// span of its key, and its sequence number.
    fn comp(c: &mut Cursor<'_>, limit: usize) -> Result<((usize, usize), u64)> {
        let from = c.pos;
        c.skip_key();
        let key = (from, c.pos);
        let seq = c.uvarint();
        if c.pos > limit {
            return Err(XmlError::Record("key-path load: component runs past the path".into()));
        }
        Ok((key, seq))
    }

    /// Write the pairs of `arena` (the one every [`Self::push`] indexed) to
    /// `sink` in key-path order.
    pub fn write_sorted(&self, arena: &[u8], sink: &mut impl ByteSink) -> Result<()> {
        let nodes = &self.nodes;
        let len = nodes.len();
        let end = |i: usize| (nodes[i].end as usize).min(len);
        let span = |s: (u32, u32)| &arena[s.0 as usize..s.1 as usize];
        let clash = std::cell::Cell::new(false);
        walk_sorted(
            len,
            end,
            |_| true,
            |a, b| {
                let (x, y) = (&nodes[a], &nodes[b]);
                let ord = x
                    .lead
                    .cmp(&y.lead)
                    .then_with(|| cmp_encoded_siblings((span(x.key), x.seq), (span(y.key), y.seq)));
                if ord == Ordering::Equal && (end(a) > a + 1 || end(b) > b + 1) {
                    clash.set(true);
                }
                ord
            },
            |i| {
                if clash.get() {
                    return Err(XmlError::Record(
                        "key-path load: two siblings share a component".into(),
                    ));
                }
                if i >= self.spine {
                    let to = nodes.get(i + 1).map_or(arena.len(), |n| n.at as usize);
                    sink.write_all(&arena[nodes[i].at as usize..to])?;
                }
                Ok(())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyValue;
    use crate::keypath::{KeyPath, PathComp, PathedRec};
    use crate::rec::Rec;
    use crate::rec::{ElemRec, PatchRec, PtrRec, TextRec};
    use crate::sym::{NameRef, TagDict};
    use nexsort_extmem::SliceReader;
    use proptest::prelude::*;

    fn key_strategy() -> BoxedStrategy<KeyValue> {
        let leaf = prop_oneof![
            Just(KeyValue::Missing),
            // Small magnitudes collide often; large ones cover long varints.
            (-3i64..4).prop_map(KeyValue::Num),
            any::<i64>().prop_map(KeyValue::Num),
            // Empty and shared-prefix byte strings.
            prop::collection::vec(0u8..3, 0..4).prop_map(KeyValue::Bytes),
            prop::collection::vec(any::<u8>(), 0..12).prop_map(KeyValue::Bytes),
        ];
        leaf.prop_recursive(3, 16, 4, |inner| {
            prop_oneof![
                inner.clone().prop_map(|k| KeyValue::Desc(Box::new(k))),
                prop::collection::vec(inner, 0..4).prop_map(KeyValue::Tuple),
            ]
        })
    }

    fn path_strategy() -> BoxedStrategy<KeyPath> {
        let comp = (key_strategy(), 0u64..3).prop_map(|(key, seq)| PathComp { key, seq });
        prop::collection::vec(comp, 0..5).prop_map(|comps| KeyPath { comps }).boxed()
    }

    /// Two paths that share a random prefix, so the comparison reaches deep
    /// components instead of stopping at the first.
    fn path_pair() -> BoxedStrategy<(KeyPath, KeyPath)> {
        (path_strategy(), path_strategy(), path_strategy())
            .prop_map(|(common, a, b)| {
                let join = |tail: KeyPath| KeyPath {
                    comps: common.comps.iter().cloned().chain(tail.comps).collect(),
                };
                (join(a), join(b))
            })
            .boxed()
    }

    /// A slice reader that shows at most `window` resident bytes, so the
    /// raw reader's stream path runs (and its window path at every size).
    struct Windowed<'a> {
        inner: SliceReader<'a>,
        window: usize,
    }

    impl ByteReader for Windowed<'_> {
        fn read_exact(&mut self, buf: &mut [u8]) -> nexsort_extmem::Result<()> {
            self.inner.read_exact(buf)
        }

        fn remaining(&self) -> u64 {
            self.inner.remaining()
        }

        fn resident(&self) -> &[u8] {
            let r = self.inner.resident();
            &r[..r.len().min(self.window)]
        }

        fn consume(&mut self, n: usize) {
            self.inner.consume(n.min(self.window));
        }
    }

    /// `read_pathed_raw` over `bytes` with a `window`-byte resident view.
    fn raw(bytes: &[u8], window: usize) -> (Result<usize>, Vec<u8>, u64) {
        let mut src = Windowed { inner: SliceReader::new(bytes), window };
        let mut out = vec![0xAA];
        let got = read_pathed_raw(&mut src, &mut out);
        out.remove(0);
        (got, out, src.remaining())
    }

    fn leaf(key: KeyValue, seq: u64) -> Rec {
        Rec::Text(TextRec { level: 1, content: b"t".to_vec(), key, seq })
    }

    fn enc(p: &PathedRec) -> Vec<u8> {
        let mut out = Vec::new();
        p.encode(&mut out).unwrap();
        out
    }

    fn pathed(path: KeyPath) -> PathedRec {
        PathedRec { path, rec: leaf(KeyValue::Missing, 0) }
    }

    fn sample() -> Vec<PathedRec> {
        let path = KeyPath {
            comps: vec![
                PathComp { key: KeyValue::Missing, seq: 0 },
                PathComp { key: KeyValue::Num(-5), seq: 300 },
                PathComp {
                    key: KeyValue::Tuple(vec![
                        KeyValue::Desc(Box::new(KeyValue::Bytes(b"x".to_vec()))),
                        KeyValue::Num(1),
                    ]),
                    seq: 2,
                },
            ],
        };
        let recs = vec![
            Rec::Elem(ElemRec {
                level: 3,
                name: NameRef::Inline(b"item".to_vec()),
                attrs: vec![(NameRef::Sym(1), b"v".to_vec()), (NameRef::Sym(2), vec![])],
                key: KeyValue::Num(7),
                seq: 2,
            }),
            leaf(KeyValue::Bytes(b"abc".to_vec()), 9),
            Rec::RunPtr(PtrRec { level: 3, run: 4, key: KeyValue::Missing, seq: 1 }),
            Rec::KeyPatch(PatchRec { level: 2, key: KeyValue::Num(3) }),
        ];
        recs.into_iter().map(|rec| PathedRec { path: path.clone(), rec }).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn encoded_comparator_equals_cmp_path(pair in path_pair()) {
            let (a, b) = pair;
            let (ea, eb) = (enc(&pathed(a.clone())), enc(&pathed(b.clone())));
            prop_assert_eq!(cmp_encoded_paths(&ea, &eb), a.cmp_path(&b));
            prop_assert_eq!(cmp_encoded_paths(&eb, &ea), b.cmp_path(&a));
        }

        #[test]
        fn raw_reader_returns_the_encoding_and_path_length(a in path_strategy()) {
            let p = pathed(a.clone());
            let mut bytes = enc(&p);
            let len = bytes.len();
            let mut plain = Vec::new();
            p.rec.encode(&mut plain).unwrap();
            bytes.extend_from_slice(b"next");
            for window in [0, 1, len / 2, len - 1, len, len + 4] {
                let (path_len, out, left) = raw(&bytes, window);
                prop_assert_eq!(path_len.unwrap(), len - plain.len());
                prop_assert_eq!(&out[..], &bytes[..len]);
                prop_assert_eq!(left, 4);
            }
        }

        #[test]
        fn encoded_path_builds_the_pathed_rec_format(a in path_strategy()) {
            let p = pathed(a.clone());
            let mut ep = EncodedPath::new();
            for c in &a.comps {
                let mut comp = Vec::new();
                leaf(c.key.clone(), c.seq).encode(&mut comp).unwrap();
                ep.push_encoded(&comp, false).unwrap();
            }
            let mut out = Vec::new();
            let path_len = ep.write_prefix(&mut out).unwrap();
            p.rec.encode(&mut out).unwrap();
            prop_assert_eq!(&out, &enc(&p));
            let item = PathedBytes { bytes: out, path_len };
            prop_assert_eq!(item.level(), 1);
            prop_assert!(!item.is_run_ptr());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn encoded_sibling_order_equals_sibling_cmp(
            a in key_strategy(),
            b in key_strategy(),
            sa in 0u64..3,
            sb in 0u64..3
        ) {
            let (ka, kb) = (enc_key(&a), enc_key(&b));
            prop_assert_eq!(cmp_encoded_keys(&ka, &kb), a.cmp(&b));
            prop_assert_eq!(cmp_encoded_keys(&kb, &ka), b.cmp(&a));
            let (ra, rb) = (leaf(a.clone(), sa), leaf(b.clone(), sb));
            prop_assert_eq!(cmp_encoded_siblings((&ka, sa), (&kb, sb)), ra.sibling_cmp(&rb));
            prop_assert_eq!(cmp_encoded_siblings((&kb, sb), (&ka, sa)), rb.sibling_cmp(&ra));
        }

        #[test]
        fn key_leads_that_differ_order_as_the_keys(a in key_strategy(), b in key_strategy()) {
            let (ka, kb) = (enc_key(&a), enc_key(&b));
            let (la, lb) = (key_lead(&ka), key_lead(&kb));
            if la != lb {
                prop_assert_eq!(la.cmp(&lb), a.cmp(&b));
            }
        }
    }

    fn enc_key(k: &KeyValue) -> Vec<u8> {
        let mut out = Vec::new();
        k.encode(&mut out).unwrap();
        out
    }

    /// The plain records of [`sample`], encoded.
    fn plain_samples() -> Vec<(Rec, Vec<u8>)> {
        sample()
            .into_iter()
            .map(|p| {
                let mut bytes = Vec::new();
                p.rec.encode(&mut bytes).unwrap();
                (p.rec, bytes)
            })
            .collect()
    }

    #[test]
    fn rec_heads_and_views_describe_the_decoded_record() {
        for (rec, bytes) in plain_samples() {
            let head = RecHead::parse(&bytes).unwrap();
            assert_eq!(
                (head.kind, head.level, head.seq, head.len),
                (rec.kind(), rec.level(), rec.seq(), bytes.len())
            );
            assert_eq!(head.key_of(&bytes), &enc_key(rec.key())[..]);
            let dict = TagDict::new();
            match (RecRef::read(&bytes).unwrap(), &rec) {
                (RecRef::Elem { level, name, attrs }, Rec::Elem(e)) => {
                    assert_eq!(level, e.level);
                    assert_eq!(name, NameBytes::Inline(b"item"));
                    assert_eq!(name.resolve(&dict).unwrap(), b"item");
                    let got: Vec<_> = attrs.collect();
                    let want: Vec<_> = e
                        .attrs
                        .iter()
                        .map(|(k, v)| {
                            let k = match k {
                                NameRef::Sym(id) => NameBytes::Sym(*id),
                                NameRef::Inline(b) => NameBytes::Inline(b),
                            };
                            (k, &v[..])
                        })
                        .collect();
                    assert_eq!(got, want);
                }
                (RecRef::Text { level, content }, Rec::Text(t)) => {
                    assert_eq!((level, content), (t.level, &t.content[..]));
                }
                (RecRef::RunPtr { level, run }, Rec::RunPtr(p)) => {
                    assert_eq!((level, run), (p.level, p.run));
                }
                (RecRef::KeyPatch { level }, Rec::KeyPatch(p)) => assert_eq!(level, p.level),
                (got, want) => panic!("{got:?} read from {want:?}"),
            }
        }
        assert!(RecRef::read(&[9, 1]).is_err());
    }

    /// Each sample whole, cut at every byte, and with every byte set to each
    /// of a few values (which covers bad key and name tags, kinds, lengths
    /// and trailers).
    fn damaged(bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut out = vec![bytes.to_vec()];
        out.extend((0..bytes.len()).map(|cut| bytes[..cut].to_vec()));
        for at in 0..bytes.len() {
            for v in [0u8, 1, 4, 5, 9, 0x40, 0x80, 0xFF] {
                let mut bad = bytes.to_vec();
                bad[at] = v;
                out.push(bad);
            }
        }
        out
    }

    /// The error texts the raw readers gave for [`damaged`] samples before
    /// their errors were built lazily, `(count, text)` per `reader`, in text
    /// order.
    fn pinned_errors(reader: &str) -> Vec<(usize, String)> {
        include_str!("testdata/raw_reader_errors.txt")
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let mut f = l.splitn(3, '\t');
                let (r, n, text) = (f.next()?, f.next()?, f.next()?);
                (r == reader).then(|| (n.parse().unwrap(), text.to_string()))
            })
            .collect()
    }

    /// Tally error texts, as [`pinned_errors`] lists them.
    fn tally(texts: impl IntoIterator<Item = String>) -> Vec<(usize, String)> {
        let mut counts = std::collections::BTreeMap::new();
        for t in texts {
            *counts.entry(t).or_insert(0) += 1;
        }
        counts.into_iter().map(|(t, n)| (n, t)).collect()
    }

    /// Whatever the damage, the raw record reader accepts exactly when the
    /// decoder does, and then copies exactly the bytes the decoder consumed,
    /// off the resident window and off the stream alike; when it rejects,
    /// it says the same thing at every window size, and so does
    /// [`RecHead::parse`]. Returns that error's text.
    fn rec_raw_agrees_with_decode(bytes: &[u8]) -> Option<String> {
        let decoded = Rec::decode(&mut SliceReader::new(bytes));
        let mut said = None;
        for window in [0, bytes.len() / 2, bytes.len()] {
            let mut src = Windowed { inner: SliceReader::new(bytes), window };
            let mut out = vec![0xAA];
            let got = read_rec_raw(&mut src, &mut out);
            match (&decoded, got) {
                (Ok((rec, consumed)), Ok(head)) => {
                    assert_eq!(&out[1..], &bytes[..*consumed as usize]);
                    assert_eq!((head.len as u64, head.kind), (*consumed, rec.kind()));
                    assert_eq!(RecHead::parse(bytes).unwrap(), head);
                }
                (Err(_), Err(e)) => {
                    let parsed = RecHead::parse(bytes).unwrap_err().to_string();
                    assert_eq!(e.to_string(), parsed, "window {window} on {bytes:?}");
                    said = Some(parsed);
                }
                (d, r) => panic!("decode {:?} vs raw {:?} on {bytes:?}", d.is_ok(), r.is_ok()),
            }
        }
        said
    }

    #[test]
    fn raw_record_reader_rejects_what_decode_rejects() {
        let mut texts = Vec::new();
        for (_, bytes) in plain_samples() {
            texts.extend(damaged(&bytes).iter().filter_map(|bad| rec_raw_agrees_with_decode(bad)));
        }
        assert_eq!(tally(texts), pinned_errors("plain"));
    }

    #[test]
    fn a_component_from_record_bytes_equals_one_from_the_record() {
        for p in sample() {
            let mut plain = Vec::new();
            p.rec.encode(&mut plain).unwrap();
            let mut from_bytes = EncodedPath::new();
            if let Rec::KeyPatch(_) = p.rec {
                assert!(from_bytes.push_encoded(&plain, false).is_err());
                continue;
            }
            let mut comps = Vec::new();
            for masked in [false, true] {
                from_bytes.push_encoded(&plain, masked).unwrap();
                let key = if masked { KeyValue::Missing } else { p.rec.key().clone() };
                comps.push(PathComp { key, seq: p.rec.seq() });
            }
            let mut prefix = Vec::new();
            from_bytes.write_prefix(&mut prefix).unwrap();
            let owned = enc(&PathedRec { path: KeyPath { comps }, rec: p.rec.clone() });
            assert_eq!(owned, [prefix, plain.clone()].concat());
            assert!(from_bytes.push_encoded(&plain[..plain.len() - 5], false).is_err());
        }
    }

    #[test]
    fn mixed_variants_at_one_position_order_by_rank() {
        let keys = [
            KeyValue::Missing,
            KeyValue::Num(i64::MAX),
            KeyValue::Bytes(vec![]),
            KeyValue::Desc(Box::new(KeyValue::Missing)),
            KeyValue::Tuple(vec![]),
        ];
        for (i, ka) in keys.iter().enumerate() {
            for (j, kb) in keys.iter().enumerate() {
                let a = pathed(KeyPath { comps: vec![PathComp { key: ka.clone(), seq: 5 }] });
                let b = pathed(KeyPath { comps: vec![PathComp { key: kb.clone(), seq: 5 }] });
                assert_eq!(cmp_encoded_paths(&enc(&a), &enc(&b)), i.cmp(&j), "{ka:?} vs {kb:?}");
            }
        }
    }

    #[test]
    fn raw_reader_accepts_every_record_kind() {
        for p in sample() {
            let bytes = enc(&p);
            let (path_len, out, _) = raw(&bytes, 0);
            assert_eq!(raw(&bytes, bytes.len()).1, bytes);
            let path_len = path_len.unwrap();
            assert_eq!(out, bytes);
            let item = PathedBytes { bytes: out, path_len };
            let mut plain = Vec::new();
            p.rec.encode(&mut plain).unwrap();
            assert_eq!(item.rec_bytes(), &plain[..]);
            assert_eq!(item.level(), p.rec.level());
            assert_eq!(item.is_run_ptr(), matches!(p.rec, Rec::RunPtr(_)));
        }
    }

    /// Whatever the damage, the raw reader accepts exactly when the decoder
    /// does, and then copies exactly the bytes the decoder consumed --
    /// off the resident window and off the stream alike; when it rejects,
    /// it says the same thing at every window size. Returns that error's
    /// text.
    fn agrees_with_decode(bytes: &[u8]) -> Option<String> {
        let decoded = PathedRec::decode(&mut SliceReader::new(bytes));
        let mut said: Option<String> = None;
        for window in [0, bytes.len() / 2, bytes.len()] {
            let (got, out, _) = raw(bytes, window);
            match (&decoded, got) {
                (Ok((_, consumed)), Ok(_)) => assert_eq!(out.len() as u64, *consumed),
                (Err(_), Err(e)) => {
                    let text = e.to_string();
                    if let Some(first) = &said {
                        assert_eq!(&text, first, "window {window} on {bytes:?}");
                    }
                    said = Some(text);
                }
                (d, r) => panic!("decode {:?} vs raw {:?} on {bytes:?}", d.is_ok(), r.is_ok()),
            }
        }
        said
    }

    #[test]
    fn raw_reader_rejects_every_truncation() {
        for p in sample() {
            let bytes = enc(&p);
            for cut in 0..bytes.len() {
                agrees_with_decode(&bytes[..cut]);
                assert!(
                    read_pathed_raw(&mut SliceReader::new(&bytes[..cut]), &mut Vec::new()).is_err()
                );
            }
        }
    }

    #[test]
    fn raw_reader_rejects_what_decode_rejects() {
        let mut texts = Vec::new();
        for p in sample() {
            let bytes = enc(&p);
            let rec_at = bytes.len() - {
                let mut plain = Vec::new();
                p.rec.encode(&mut plain).unwrap();
                plain.len()
            };
            let n = bytes.len();
            // A bad kind, a bad trailer, and every single-byte corruption
            // (which covers bad key and name tags and bad lengths).
            for (at, v) in [(rec_at, 99u8), (n - 4, bytes[n - 4] ^ 0xFF), (n - 1, 0x7F)] {
                let mut bad = bytes.clone();
                bad[at] = v;
                agrees_with_decode(&bad);
                assert!(raw(&bad, n).0.is_err() && raw(&bad, 0).0.is_err());
            }
            texts.extend(damaged(&bytes).iter().filter_map(|bad| agrees_with_decode(bad)));
        }
        assert_eq!(tally(texts), pinned_errors("pathed"));
    }

    /// A reader whose device fails once `ok` bytes have been read, with
    /// no resident window: every read goes through the stream.
    struct Failing<'a> {
        inner: SliceReader<'a>,
        ok: usize,
    }

    impl ByteReader for Failing<'_> {
        fn read_exact(&mut self, buf: &mut [u8]) -> nexsort_extmem::Result<()> {
            if self.inner.position() + buf.len() > self.ok {
                return Err(ExtError::ChecksumMismatch { block: 7 });
            }
            self.inner.read_exact(buf)
        }

        fn remaining(&self) -> u64 {
            self.inner.remaining()
        }
    }

    /// A device fault mid-record reaches the caller as that fault, not as
    /// a grammar error, from both raw readers.
    #[test]
    fn a_device_error_mid_record_is_the_error_returned() {
        for p in sample() {
            let pair = enc(&p);
            let mut plain = Vec::new();
            p.rec.encode(&mut plain).unwrap();
            for (bytes, pathed) in [(&pair, true), (&plain, false)] {
                for ok in 0..bytes.len() {
                    let mut src = Failing { inner: SliceReader::new(bytes), ok };
                    let got = if pathed {
                        read_pathed_raw(&mut src, &mut Vec::new()).map(|_| ())
                    } else {
                        read_rec_raw(&mut src, &mut Vec::new()).map(|_| ())
                    };
                    assert!(
                        matches!(got, Err(XmlError::Ext(ExtError::ChecksumMismatch { block: 7 }))),
                        "{got:?} after {ok} bytes"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_key_tag_is_rejected() {
        let p = pathed(KeyPath { comps: vec![PathComp { key: KeyValue::Num(1), seq: 0 }] });
        let mut bad = enc(&p);
        bad[1] = 5; // the first component's key tag
        assert!(PathedRec::decode(&mut SliceReader::new(&bad)).is_err());
        assert!(raw(&bad, bad.len()).0.is_err() && raw(&bad, 0).0.is_err());
    }

    /// DESIGN.md's "What is resident" counts 40 bytes of index per pair.
    #[test]
    fn a_pathed_forest_node_is_40_bytes() {
        assert_eq!(std::mem::size_of::<PathNode>(), 40);
    }

    #[test]
    fn comparator_survives_garbage() {
        let junk: [&[u8]; 5] = [&[], &[0xFF; 20], &[3, 3, 3, 3], &[1, 4, 0xFF, 0xFF], &[2, 2, 200]];
        for a in junk {
            for b in junk {
                let _ = cmp_encoded_paths(a, b);
            }
        }
    }
}
