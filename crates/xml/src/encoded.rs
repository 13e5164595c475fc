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
//!   it exactly as [`PathedRec::decode`](crate::PathedRec::decode) does;
//! * [`EncodedPath`] builds the root-to-here path as bytes, so a record is
//!   encoded with its path once, straight into the caller's buffer;
//! * [`PathedBytes`] is one such encoded pair, as the merges carry it.

use std::cmp::Ordering;

use nexsort_extmem::{ByteReader, ExtError};

use crate::error::{Result, XmlError};
use crate::key::KeyValue;
use crate::rec::{Rec, KIND_ELEM, KIND_PATCH, KIND_PTR, KIND_TEXT};
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

/// The comparator's byte cursor. Reads past the end yield zeros, so the
/// comparator stays total and panic-free on any input; past both ends every
/// further component compares equal, so the loops stop there.
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
    if let Ok(path_len) = fast.pathed() {
        out.extend_from_slice(&window[..fast.pos]);
        src.consume(fast.pos);
        return Ok(path_len);
    }
    // The pair runs past the window (or is malformed): validate it byte by
    // byte off the stream, copying as it goes.
    Tee { start: out.len(), src, out }.pathed()
}

/// A byte source for the validator, which mirrors the decoders of the same
/// shapes (`read_uvarint`, `read_bytes`, `KeyValue::decode`, `Rec::decode`)
/// but builds nothing.
trait Validate {
    fn u8(&mut self) -> Result<u8>;
    /// Step over `n` bytes, already checked against [`Self::remaining`].
    fn skip(&mut self, n: usize) -> Result<()>;
    fn u32(&mut self) -> Result<u32>;
    fn remaining(&self) -> u64;
    /// Bytes consumed so far.
    fn consumed(&self) -> usize;

    fn uvarint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(XmlError::Ext(ExtError::Corrupt("varint overflows u64".into())));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn bytes(&mut self) -> Result<()> {
        let len = self.uvarint()? as usize;
        if len as u64 > self.remaining() {
            return Err(XmlError::Ext(ExtError::Corrupt(format!(
                "byte-string length {len} exceeds remaining input"
            ))));
        }
        self.skip(len)
    }

    fn key(&mut self) -> Result<()> {
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
                    return Err(XmlError::Record(format!("implausible tuple arity {n}")));
                }
                for _ in 0..n {
                    self.key()?;
                }
            }
            t => return Err(XmlError::Record(format!("bad key tag {t}"))),
        }
        Ok(())
    }

    fn name(&mut self) -> Result<()> {
        match self.u8()? {
            0 => {
                self.uvarint()?;
            }
            1 => self.bytes()?,
            t => return Err(XmlError::Record(format!("bad name tag {t}"))),
        }
        Ok(())
    }

    fn rec(&mut self) -> Result<()> {
        let kind = self.u8()?;
        let level = self.uvarint()? as u32;
        let body_start = self.consumed();
        let before = self.remaining();
        match kind {
            KIND_ELEM => {
                self.name()?;
                let nattrs = self.uvarint()? as usize;
                if nattrs as u64 > before {
                    return Err(XmlError::Record(format!("implausible attribute count {nattrs}")));
                }
                for _ in 0..nattrs {
                    self.name()?;
                    self.bytes()?;
                }
                self.key()?;
                self.uvarint()?;
            }
            KIND_TEXT => {
                self.bytes()?;
                self.key()?;
                self.uvarint()?;
            }
            KIND_PTR => {
                self.uvarint()?;
                self.key()?;
                self.uvarint()?;
            }
            KIND_PATCH => self.key()?,
            t => return Err(XmlError::Record(format!("bad record kind {t}"))),
        }
        // Counted the way `Rec::decode` counts, so the same trailers pass.
        let consumed =
            1 + uvarint_len(u64::from(level)) as u64 + (self.consumed() - body_start) as u64 + 4;
        let total = self.u32()?;
        if u64::from(total) != consumed {
            return Err(XmlError::Record(format!(
                "record trailer says {total} bytes, decoded {consumed}"
            )));
        }
        Ok(())
    }

    /// Validate one `(path, rec)` pair; returns the path prefix's length.
    fn pathed(&mut self) -> Result<usize> {
        let n = self.uvarint()?;
        if n > self.remaining() {
            return Err(XmlError::Record(format!("implausible key-path length {n}")));
        }
        for _ in 0..n {
            self.key()?;
            self.uvarint()?;
        }
        let path_len = self.consumed();
        self.rec()?;
        Ok(path_len)
    }
}

/// Validates in place over a reader's resident bytes.
struct Window<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Validate for Window<'_> {
    fn u8(&mut self) -> Result<u8> {
        let b =
            *self.bytes.get(self.pos).ok_or(ExtError::UnexpectedEof { wanted: 1, available: 0 })?;
        self.pos += 1;
        Ok(b)
    }

    fn skip(&mut self, n: usize) -> Result<()> {
        self.pos += n;
        Ok(())
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.bytes.get(self.pos..self.pos + 4).ok_or(ExtError::UnexpectedEof {
            wanted: 4,
            available: self.bytes.len().saturating_sub(self.pos),
        })?;
        self.pos += 4;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn remaining(&self) -> u64 {
        self.bytes.len().saturating_sub(self.pos) as u64
    }

    fn consumed(&self) -> usize {
        self.pos
    }
}

/// Validates off a stream, appending every byte it reads to `out`.
struct Tee<'a, R: ByteReader> {
    start: usize,
    src: &'a mut R,
    out: &'a mut Vec<u8>,
}

impl<R: ByteReader> Validate for Tee<'_, R> {
    fn u8(&mut self) -> Result<u8> {
        let b = self.src.read_u8()?;
        self.out.push(b);
        Ok(b)
    }

    fn skip(&mut self, n: usize) -> Result<()> {
        let at = self.out.len();
        self.out.resize(at + n, 0);
        self.src.read_exact(&mut self.out[at..])?;
        Ok(())
    }

    fn u32(&mut self) -> Result<u32> {
        let v = self.src.read_u32()?;
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(v)
    }

    fn remaining(&self) -> u64 {
        self.src.remaining()
    }

    fn consumed(&self) -> usize {
        self.out.len() - self.start
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

    /// Append the component `(key, seq)`.
    pub fn push(&mut self, key: &KeyValue, seq: u64) -> Result<()> {
        key.encode(&mut self.comps)?;
        write_uvarint(&mut self.comps, seq)?;
        self.ends.push(self.comps.len());
        Ok(())
    }

    /// Append the component of an encoded element, text or pointer record
    /// (the [`Rec::encode`] format): its key bytes as they are (the
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

    /// Append the encoded `(path, rec)` pair to `out`. Returns the path
    /// prefix's length.
    pub fn encode_with(&self, rec: &Rec, out: &mut Vec<u8>) -> Result<usize> {
        let path_len = self.write_prefix(out)?;
        rec.encode(out)?;
        Ok(path_len)
    }
}

/// The key bytes and sequence number of an encoded element, text or
/// pointer record this crate wrote.
fn rec_key_seq(rec: &[u8]) -> Result<(&[u8], u64)> {
    let mut c = Cursor::new(rec);
    let kind = c.u8();
    c.uvarint(); // level
    let skip_name = |c: &mut Cursor<'_>| match c.u8() {
        0 => {
            c.uvarint();
        }
        _ => {
            let len = c.uvarint();
            c.take(len);
        }
    };
    match kind {
        KIND_ELEM => {
            skip_name(&mut c);
            for _ in 0..c.uvarint() {
                if c.exhausted() {
                    break;
                }
                skip_name(&mut c);
                let len = c.uvarint();
                c.take(len);
            }
        }
        KIND_TEXT => {
            let len = c.uvarint();
            c.take(len);
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

    /// True if the record is a collapsed subtree ([`Rec::RunPtr`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keypath::{KeyPath, PathComp, PathedRec};
    use crate::rec::{ElemRec, PatchRec, PtrRec, TextRec};
    use crate::sym::NameRef;
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
                ep.push(&c.key, c.seq).unwrap();
            }
            let mut out = Vec::new();
            let path_len = ep.encode_with(&p.rec, &mut out).unwrap();
            prop_assert_eq!(&out, &enc(&p));
            let item = PathedBytes { bytes: out, path_len };
            prop_assert_eq!(item.level(), 1);
            prop_assert!(!item.is_run_ptr());
        }
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
            let mut from_rec = EncodedPath::new();
            for masked in [false, true] {
                from_bytes.push_encoded(&plain, masked).unwrap();
                let key = if masked { &KeyValue::Missing } else { p.rec.key() };
                from_rec.push(key, p.rec.seq()).unwrap();
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            from_bytes.write_prefix(&mut a).unwrap();
            from_rec.write_prefix(&mut b).unwrap();
            assert_eq!(a, b);
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
    /// off the resident window and off the stream alike.
    fn agrees_with_decode(bytes: &[u8]) {
        let decoded = PathedRec::decode(&mut SliceReader::new(bytes));
        for window in [0, bytes.len() / 2, bytes.len()] {
            let (got, out, _) = raw(bytes, window);
            match (&decoded, got) {
                (Ok((_, consumed)), Ok(_)) => assert_eq!(out.len() as u64, *consumed),
                (Err(_), Err(_)) => {}
                (d, r) => panic!("decode {:?} vs raw {:?} on {bytes:?}", d.is_ok(), r.is_ok()),
            }
        }
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
            for at in 0..n {
                for v in [0u8, 1, 4, 5, 9, 0x40, 0x80, 0xFF] {
                    let mut bad = bytes.clone();
                    bad[at] = v;
                    agrees_with_decode(&bad);
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
