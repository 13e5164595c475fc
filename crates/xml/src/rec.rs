//! Compact element records and their on-disk codec.
//!
//! The compaction techniques of Section 3.2, realized: start tags carry a
//! *level number* instead of a matching end tag (end tags are reconstructed
//! during output from level transitions), names are dictionary ids
//! ([`NameRef::Sym`]) when compaction is on, and each element carries its
//! pre-extracted sort key and input sequence number so comparisons never
//! re-parse anything.
//!
//! Record kinds:
//! * [`Rec::Elem`] -- an element start (its subtree follows in DFS order);
//! * [`Rec::Text`] -- a text node;
//! * [`Rec::RunPtr`] -- a collapsed subtree: a pointer to its sorted run
//!   (Figure 2, "replace the subtree with just its root element ... together
//!   with a pointer to the disk location of the sorted run");
//! * [`Rec::KeyPatch`] -- a deferred key, emitted at an element's end tag
//!   when the ordering criterion needs the subtree (Section 3.2, complex
//!   ordering criteria: "this result can be pushed onto the data stack with
//!   the end tag and used for sorting").
//!
//! Every encoded record ends with a fixed 4-byte total length, so streams of
//! records can also be decoded *backward* (used by the reversal pre-pass
//! that resolves deferred keys before an external subtree sort).

use std::cmp::Ordering;

use nexsort_extmem::{ByteReader, ByteSink, ExtentRevCursor, SliceReader};

use crate::error::{Result, XmlError};
use crate::key::KeyValue;
use crate::sym::NameRef;
use crate::varint::{read_bytes, read_uvarint, write_bytes, write_uvarint};

/// An element start record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElemRec {
    /// Depth in the document; the root is at level 1 (paper convention).
    pub level: u32,
    /// Element name (interned or inline).
    pub name: NameRef,
    /// Attributes in document order.
    pub attrs: Vec<(NameRef, Vec<u8>)>,
    /// Sort key; `KeyValue::Missing` until a deferred key is patched in.
    pub key: KeyValue,
    /// Input sequence number: the sibling-uniqueness tiebreak.
    pub seq: u64,
}

/// A text-node record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextRec {
    /// Depth of the text node (parent's level + 1).
    pub level: u32,
    /// The text content.
    pub content: Vec<u8>,
    /// Sort key (see [`crate::key::TextKey`]).
    pub key: KeyValue,
    /// Input sequence number.
    pub seq: u64,
}

/// A collapsed subtree: pointer to its sorted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtrRec {
    /// Level the collapsed subtree's root occupies.
    pub level: u32,
    /// The sorted run holding the subtree (root element included).
    pub run: u32,
    /// The root element's sort key (the subtree sorts by it in its parent).
    pub key: KeyValue,
    /// The root element's input sequence number.
    pub seq: u64,
}

/// A deferred key resolved at an element's end tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchRec {
    /// Level of the element this key belongs to.
    pub level: u32,
    /// The resolved key.
    pub key: KeyValue,
}

/// One record in a document's record stream (DFS order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rec {
    /// Element start.
    Elem(ElemRec),
    /// Text node.
    Text(TextRec),
    /// Collapsed subtree (pointer to a sorted run).
    RunPtr(PtrRec),
    /// Deferred-key patch.
    KeyPatch(PatchRec),
}

pub(crate) const KIND_ELEM: u8 = 1;
pub(crate) const KIND_TEXT: u8 = 2;
pub(crate) const KIND_PTR: u8 = 3;
pub(crate) const KIND_PATCH: u8 = 4;

fn write_name(buf: &mut Vec<u8>, name: &NameRef) -> Result<()> {
    match name {
        NameRef::Sym(id) => {
            buf.write_u8(0)?;
            write_uvarint(buf, u64::from(*id))?;
        }
        NameRef::Inline(b) => {
            buf.write_u8(1)?;
            write_bytes(buf, b)?;
        }
    }
    Ok(())
}

fn read_name(src: &mut impl ByteReader) -> Result<NameRef> {
    match src.read_u8()? {
        0 => Ok(NameRef::Sym(read_uvarint(src)? as u32)),
        1 => Ok(NameRef::Inline(read_bytes(src)?)),
        t => Err(XmlError::Record(format!("bad name tag {t}"))),
    }
}

fn write_key(buf: &mut Vec<u8>, key: &KeyValue) -> Result<()> {
    key.encode(buf)
}

fn read_key(src: &mut impl ByteReader) -> Result<KeyValue> {
    KeyValue::decode(src)
}

impl Rec {
    /// The record's level (depth in the document tree).
    pub fn level(&self) -> u32 {
        match self {
            Rec::Elem(r) => r.level,
            Rec::Text(r) => r.level,
            Rec::RunPtr(r) => r.level,
            Rec::KeyPatch(r) => r.level,
        }
    }

    /// The record's sort key.
    pub fn key(&self) -> &KeyValue {
        match self {
            Rec::Elem(r) => &r.key,
            Rec::Text(r) => &r.key,
            Rec::RunPtr(r) => &r.key,
            Rec::KeyPatch(r) => &r.key,
        }
    }

    /// The record's input sequence number (patches have none and return 0).
    pub fn seq(&self) -> u64 {
        match self {
            Rec::Elem(r) => r.seq,
            Rec::Text(r) => r.seq,
            Rec::RunPtr(r) => r.seq,
            Rec::KeyPatch(_) => 0,
        }
    }

    /// Replace the record's key (applying a patch).
    pub fn set_key(&mut self, key: KeyValue) {
        match self {
            Rec::Elem(r) => r.key = key,
            Rec::Text(r) => r.key = key,
            Rec::RunPtr(r) => r.key = key,
            Rec::KeyPatch(r) => r.key = key,
        }
    }

    /// Sibling comparison: `(key, seq)` -- the paper's uniqueness tiebreak.
    pub fn sibling_cmp(&self, other: &Rec) -> Ordering {
        self.key().cmp(other.key()).then(self.seq().cmp(&other.seq()))
    }

    /// Append the encoded record (body + 4-byte trailing total length).
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        let start = out.len();
        match self {
            Rec::Elem(r) => {
                out.write_u8(KIND_ELEM)?;
                write_uvarint(out, u64::from(r.level))?;
                write_name(out, &r.name)?;
                write_uvarint(out, r.attrs.len() as u64)?;
                for (k, v) in &r.attrs {
                    write_name(out, k)?;
                    write_bytes(out, v)?;
                }
                write_key(out, &r.key)?;
                write_uvarint(out, r.seq)?;
            }
            Rec::Text(r) => {
                out.write_u8(KIND_TEXT)?;
                write_uvarint(out, u64::from(r.level))?;
                write_bytes(out, &r.content)?;
                write_key(out, &r.key)?;
                write_uvarint(out, r.seq)?;
            }
            Rec::RunPtr(r) => {
                out.write_u8(KIND_PTR)?;
                write_uvarint(out, u64::from(r.level))?;
                write_uvarint(out, u64::from(r.run))?;
                write_key(out, &r.key)?;
                write_uvarint(out, r.seq)?;
            }
            Rec::KeyPatch(r) => {
                out.write_u8(KIND_PATCH)?;
                write_uvarint(out, u64::from(r.level))?;
                write_key(out, &r.key)?;
            }
        }
        let total = (out.len() - start + 4) as u32;
        out.write_u32(total)?;
        Ok(())
    }

    /// Encoded size in bytes (encodes into a scratch buffer).
    pub fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf).expect("Vec sink cannot fail");
        buf.len()
    }

    /// Decode one record from a forward byte source. Returns the record and
    /// the number of bytes consumed.
    pub fn decode(src: &mut impl ByteReader) -> Result<(Rec, u64)> {
        let kind = src.read_u8()?;
        let level = read_uvarint(src)? as u32;
        let mut consumed = 1 + crate::varint::uvarint_len(u64::from(level)) as u64;
        let before = src.remaining();
        let rec = match kind {
            KIND_ELEM => {
                let name = read_name(src)?;
                let nattrs = read_uvarint(src)? as usize;
                if nattrs as u64 > before {
                    return Err(XmlError::Record(format!("implausible attribute count {nattrs}")));
                }
                let mut attrs = Vec::with_capacity(nattrs);
                for _ in 0..nattrs {
                    let k = read_name(src)?;
                    let v = read_bytes(src)?;
                    attrs.push((k, v));
                }
                let key = read_key(src)?;
                let seq = read_uvarint(src)?;
                Rec::Elem(ElemRec { level, name, attrs, key, seq })
            }
            KIND_TEXT => {
                let content = read_bytes(src)?;
                let key = read_key(src)?;
                let seq = read_uvarint(src)?;
                Rec::Text(TextRec { level, content, key, seq })
            }
            KIND_PTR => {
                let run = read_uvarint(src)? as u32;
                let key = read_key(src)?;
                let seq = read_uvarint(src)?;
                Rec::RunPtr(PtrRec { level, run, key, seq })
            }
            KIND_PATCH => {
                let key = read_key(src)?;
                Rec::KeyPatch(PatchRec { level, key })
            }
            t => return Err(XmlError::Record(format!("bad record kind {t}"))),
        };
        consumed += before - src.remaining();
        let total = src.read_u32()?;
        consumed += 4;
        if u64::from(total) != consumed {
            return Err(XmlError::Record(format!(
                "record trailer says {total} bytes, decoded {consumed}"
            )));
        }
        Ok((rec, consumed))
    }

    /// Decode the record that *ends* at the cursor, moving the cursor back
    /// past it (backward stream decoding via the trailing length).
    pub fn decode_backward(cursor: &mut ExtentRevCursor) -> Result<Rec> {
        let total = cursor.read_back_u32()? as usize;
        if total < 5 || total as u64 - 4 > cursor.remaining() {
            return Err(XmlError::Record(format!("implausible backward record length {total}")));
        }
        // Body and trailer in one buffer, so the forward decode verifies
        // the trailer it would see on a forward stream.
        let mut buf = vec![0u8; total];
        let (body, trailer) = buf.split_at_mut(total - 4);
        cursor.read_back(body)?;
        trailer.copy_from_slice(&(total as u32).to_le_bytes());
        let (rec, consumed) = Rec::decode(&mut SliceReader::new(&buf))?;
        debug_assert_eq!(consumed as usize, total);
        Ok(rec)
    }
}

/// Decodes a bounded stream of records from a byte source.
pub struct RecDecoder<R: ByteReader> {
    src: R,
    left: u64,
}

impl<R: ByteReader> RecDecoder<R> {
    /// Decode all remaining bytes of `src` as records.
    pub fn new(src: R) -> Self {
        let left = src.remaining();
        Self { src, left }
    }

    /// Decode exactly `nbytes` of records from `src`.
    pub fn with_limit(src: R, nbytes: u64) -> Self {
        Self { src, left: nbytes }
    }

    /// Bytes of encoded records left to decode.
    pub fn remaining_bytes(&self) -> u64 {
        self.left
    }

    /// The next record, or `None` when the byte budget is exhausted.
    pub fn next_rec(&mut self) -> Result<Option<Rec>> {
        if self.left == 0 {
            return Ok(None);
        }
        let (rec, consumed) = Rec::decode(&mut self.src)?;
        if consumed > self.left {
            return Err(XmlError::Record("record overruns its byte budget".into()));
        }
        self.left -= consumed;
        Ok(Some(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recs() -> Vec<Rec> {
        vec![
            Rec::Elem(ElemRec {
                level: 1,
                name: NameRef::Sym(0),
                attrs: vec![(NameRef::Sym(1), b"NE".to_vec())],
                key: KeyValue::Bytes(b"NE".to_vec()),
                seq: 0,
            }),
            Rec::Text(TextRec {
                level: 2,
                content: b"Smith".to_vec(),
                key: KeyValue::Missing,
                seq: 1,
            }),
            Rec::RunPtr(PtrRec { level: 2, run: 7, key: KeyValue::Num(454), seq: 2 }),
            Rec::KeyPatch(PatchRec { level: 2, key: KeyValue::Bytes(b"Jones".to_vec()) }),
            Rec::Elem(ElemRec {
                level: 3,
                name: NameRef::Inline(b"verbatim-name".to_vec()),
                attrs: vec![
                    (NameRef::Inline(b"a".to_vec()), b"1".to_vec()),
                    (NameRef::Sym(2), vec![0u8, 255, 7]),
                ],
                key: KeyValue::Num(-12),
                seq: u64::MAX,
            }),
        ]
    }

    #[test]
    fn encode_decode_roundtrip_every_kind() {
        for rec in sample_recs() {
            let mut buf = Vec::new();
            rec.encode(&mut buf).unwrap();
            let mut src = SliceReader::new(&buf);
            let (back, consumed) = Rec::decode(&mut src).unwrap();
            assert_eq!(back, rec);
            assert_eq!(consumed as usize, buf.len());
            assert_eq!(src.remaining(), 0);
        }
    }

    #[test]
    fn decoder_streams_a_concatenated_sequence() {
        let recs = sample_recs();
        let mut buf = Vec::new();
        for r in &recs {
            r.encode(&mut buf).unwrap();
        }
        let mut dec = RecDecoder::new(SliceReader::new(&buf));
        let mut out = Vec::new();
        while let Some(r) = dec.next_rec().unwrap() {
            out.push(r);
        }
        assert_eq!(out, recs);
    }

    #[test]
    fn backward_decoding_walks_the_stream_in_reverse() {
        let recs = sample_recs();
        let mut buf = Vec::new();
        for r in &recs {
            r.encode(&mut buf).unwrap();
        }
        // Store on a tiny-block disk so backward reads cross blocks.
        let disk = nexsort_extmem::Disk::new_mem(16);
        let budget = nexsort_extmem::MemoryBudget::new(4);
        let mut w = nexsort_extmem::ExtentWriter::new(
            disk.clone(),
            &budget,
            nexsort_extmem::IoCat::SortScratch,
        )
        .unwrap();
        w.write_all(&buf).unwrap();
        let ext = w.finish().unwrap();
        let mut cur = nexsort_extmem::ExtentRevCursor::new(
            disk,
            &budget,
            &ext,
            nexsort_extmem::IoCat::SortScratch,
        )
        .unwrap();
        let mut out = Vec::new();
        while cur.remaining() > 0 {
            out.push(Rec::decode_backward(&mut cur).unwrap());
        }
        out.reverse();
        assert_eq!(out, recs);
    }

    #[test]
    fn corrupt_kind_and_trailer_are_rejected() {
        let mut buf = Vec::new();
        sample_recs()[0].encode(&mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = 99; // bad kind
        assert!(Rec::decode(&mut SliceReader::new(&bad)).is_err());
        let n = buf.len();
        let mut bad = buf.clone();
        bad[n - 4] ^= 0xFF; // bad trailer
        assert!(Rec::decode(&mut SliceReader::new(&bad)).is_err());
    }

    #[test]
    fn sibling_cmp_orders_by_key_then_seq() {
        let a = Rec::Text(TextRec { level: 2, content: vec![], key: KeyValue::Num(1), seq: 5 });
        let b = Rec::Text(TextRec { level: 2, content: vec![], key: KeyValue::Num(1), seq: 9 });
        let c = Rec::Text(TextRec { level: 2, content: vec![], key: KeyValue::Num(2), seq: 0 });
        assert_eq!(a.sibling_cmp(&b), Ordering::Less);
        assert_eq!(b.sibling_cmp(&c), Ordering::Less);
        assert_eq!(a.sibling_cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn set_key_applies_a_patch() {
        let mut r = Rec::Elem(ElemRec {
            level: 1,
            name: NameRef::Sym(0),
            attrs: vec![],
            key: KeyValue::Missing,
            seq: 0,
        });
        r.set_key(KeyValue::Bytes(b"resolved".to_vec()));
        assert_eq!(r.key(), &KeyValue::Bytes(b"resolved".to_vec()));
    }

    #[test]
    fn decoder_respects_its_byte_limit() {
        let recs = sample_recs();
        let mut buf = Vec::new();
        recs[0].encode(&mut buf).unwrap();
        let first_len = buf.len() as u64;
        recs[1].encode(&mut buf).unwrap();
        let mut dec = RecDecoder::with_limit(SliceReader::new(&buf), first_len);
        assert_eq!(dec.next_rec().unwrap(), Some(recs[0].clone()));
        assert_eq!(dec.next_rec().unwrap(), None);
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        for rec in sample_recs() {
            let mut buf = Vec::new();
            rec.encode(&mut buf).unwrap();
            assert_eq!(rec.encoded_len(), buf.len());
        }
    }

    #[test]
    fn truncated_record_is_rejected() {
        let mut buf = Vec::new();
        sample_recs()[4].encode(&mut buf).unwrap();
        for cut in [1, buf.len() / 2, buf.len() - 1] {
            assert!(Rec::decode(&mut SliceReader::new(&buf[..cut])).is_err());
        }
    }
}
