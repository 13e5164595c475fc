//! The `.xrec` container: a sorted (or any) record stream plus its tag
//! dictionary in one self-describing byte stream.
//!
//! Re-parsing XML text is the most CPU-expensive step of any pipeline built
//! on these crates; a document that has already been scanned, keyed, and
//! sorted can be persisted as records and fed straight back into a merge,
//! batch update, or later sort. Layout:
//!
//! ```text
//! magic  "XREC1"                      5 bytes
//! flags  uvarint                      (bit 0: records carry final keys)
//! dict   uvarint count, then count x (uvarint len, bytes)
//! body   uvarint record-byte-length, then encoded records back to back
//! ```

use nexsort_extmem::{ByteReader, ByteSink};

use crate::error::{Result, XmlError};
use crate::rec::{Rec, RecDecoder};
use crate::sym::TagDict;
use crate::varint::{read_bytes, read_uvarint, write_bytes, write_uvarint};

const MAGIC: &[u8; 5] = b"XREC1";

/// Flag bit: every record's key is final (no pending patches).
pub const FLAG_KEYS_FINAL: u64 = 1;

/// Serialize a dictionary and record sequence as an `.xrec` stream.
pub fn write_xrec(out: &mut Vec<u8>, dict: &TagDict, recs: &[Rec], flags: u64) -> Result<()> {
    out.write_all(MAGIC)?;
    write_uvarint(out, flags)?;
    write_uvarint(out, dict.len() as u64)?;
    for id in 0..dict.len() as u32 {
        write_bytes(out, dict.resolve(id)?)?;
    }
    let mut body = Vec::new();
    for r in recs {
        r.encode(&mut body)?;
    }
    write_uvarint(out, body.len() as u64)?;
    out.write_all(&body)?;
    Ok(())
}

/// Quick sniff: does this byte stream start with the `.xrec` magic?
pub fn is_xrec(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC
}

/// Read the first bytes of a stream, as many as the `.xrec` magic has (fewer
/// only at end of stream): enough for [`is_xrec`] to tell a container from
/// XML text without reading the rest.
pub fn read_head(src: impl std::io::Read) -> std::io::Result<Vec<u8>> {
    use std::io::Read;
    let mut head = Vec::with_capacity(MAGIC.len());
    src.take(MAGIC.len() as u64).read_to_end(&mut head)?;
    Ok(head)
}

/// Deserialize an `.xrec` stream.
pub fn read_xrec(src: &mut impl ByteReader) -> Result<(TagDict, Vec<Rec>, u64)> {
    let mut magic = [0u8; 5];
    src.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(XmlError::Record("not an XREC1 stream (bad magic)".into()));
    }
    let flags = read_uvarint(src)?;
    let count = read_uvarint(src)? as usize;
    if count as u64 > src.remaining() {
        return Err(XmlError::Record(format!("implausible dictionary size {count}")));
    }
    let mut dict = TagDict::new();
    for i in 0..count {
        let name = read_bytes(src)?;
        let id = dict.intern(&name);
        if id as usize != i {
            return Err(XmlError::Record(format!(
                "duplicate dictionary entry {:?}",
                String::from_utf8_lossy(&name)
            )));
        }
    }
    let body_len = read_uvarint(src)?;
    if body_len > src.remaining() {
        return Err(XmlError::Record(format!(
            "truncated XREC body: header says {body_len}, {} available",
            src.remaining()
        )));
    }
    let mut dec = RecDecoder::with_limit(src, body_len);
    let mut recs = Vec::new();
    while let Some(r) = dec.next_rec()? {
        recs.push(r);
    }
    Ok((dict, recs, flags))
}

/// Wrapper over `RecDecoder` that streams records from an already-validated
/// `.xrec` body without materializing them (large pipelines).
pub struct XrecReader<R: ByteReader> {
    dict: TagDict,
    flags: u64,
    dec: RecDecoder<R>,
}

impl<R: ByteReader> XrecReader<R> {
    /// Parse the header of an `.xrec` stream; records stream afterwards.
    pub fn open(mut src: R) -> Result<Self> {
        let mut magic = [0u8; 5];
        src.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(XmlError::Record("not an XREC1 stream (bad magic)".into()));
        }
        let flags = read_uvarint(&mut src)?;
        let count = read_uvarint(&mut src)? as usize;
        if count as u64 > src.remaining() {
            return Err(XmlError::Record(format!("implausible dictionary size {count}")));
        }
        let mut dict = TagDict::new();
        for _ in 0..count {
            let name = read_bytes(&mut src)?;
            dict.intern(&name);
        }
        let body_len = read_uvarint(&mut src)?;
        if body_len > src.remaining() {
            return Err(XmlError::Record("truncated XREC body".into()));
        }
        Ok(Self { dict, flags, dec: RecDecoder::with_limit(src, body_len) })
    }

    /// The embedded dictionary.
    pub fn dict(&self) -> &TagDict {
        &self.dict
    }

    /// The header flags.
    pub fn flags(&self) -> u64 {
        self.flags
    }

    /// The next record, or `None` at end of body.
    pub fn next_rec(&mut self) -> Result<Option<Rec>> {
        self.dec.next_rec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SortSpec;
    use crate::parser::parse_events;
    use crate::recstream::{events_to_recs, recs_to_events};
    use nexsort_extmem::SliceReader;

    fn sample() -> (TagDict, Vec<Rec>) {
        let doc = b"<r><a k=\"2\">hi</a><a k=\"1\"/></r>";
        let events = parse_events(doc).unwrap();
        let spec = SortSpec::by_attribute("k");
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
        (dict, recs)
    }

    #[test]
    fn roundtrip_preserves_dictionary_and_records() {
        let (dict, recs) = sample();
        let mut buf = Vec::new();
        write_xrec(&mut buf, &dict, &recs, FLAG_KEYS_FINAL).unwrap();
        assert!(is_xrec(&buf));
        let (dict2, recs2, flags) = read_xrec(&mut SliceReader::new(&buf)).unwrap();
        assert_eq!(flags, FLAG_KEYS_FINAL);
        assert_eq!(recs2, recs);
        assert_eq!(dict2.len(), dict.len());
        // The round-tripped pair regenerates the same events.
        assert_eq!(recs_to_events(&recs2, &dict2).unwrap(), recs_to_events(&recs, &dict).unwrap());
    }

    #[test]
    fn streaming_reader_matches_bulk_reader() {
        let (dict, recs) = sample();
        let mut buf = Vec::new();
        write_xrec(&mut buf, &dict, &recs, 0).unwrap();
        let mut r = XrecReader::open(SliceReader::new(&buf)).unwrap();
        assert_eq!(r.flags(), 0);
        assert_eq!(r.dict().len(), dict.len());
        let mut streamed = Vec::new();
        while let Some(rec) = r.next_rec().unwrap() {
            streamed.push(rec);
        }
        assert_eq!(streamed, recs);
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let (dict, recs) = sample();
        let mut buf = Vec::new();
        write_xrec(&mut buf, &dict, &recs, 0).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] = b'Y';
        assert!(read_xrec(&mut SliceReader::new(&bad)).is_err());
        assert!(!is_xrec(&bad));
        // Truncations at every prefix must error, never panic.
        for cut in [3, 6, 10, buf.len() / 2, buf.len() - 1] {
            assert!(read_xrec(&mut SliceReader::new(&buf[..cut])).is_err(), "cut {cut}");
        }
        // Oversized body length.
        let mut huge = Vec::new();
        huge.extend_from_slice(MAGIC);
        write_uvarint(&mut huge, 0).unwrap();
        write_uvarint(&mut huge, 0).unwrap();
        write_uvarint(&mut huge, u64::MAX).unwrap();
        assert!(read_xrec(&mut SliceReader::new(&huge)).is_err());
    }

    #[test]
    fn empty_document_roundtrips() {
        let dict = TagDict::new();
        let mut buf = Vec::new();
        write_xrec(&mut buf, &dict, &[], 0).unwrap();
        let (d2, r2, _) = read_xrec(&mut SliceReader::new(&buf)).unwrap();
        assert!(d2.is_empty() && r2.is_empty());
    }
}
