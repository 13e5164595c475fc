//! Key paths: the flat representation the merge-sort baseline sorts by.
//!
//! "The key path of an element is the concatenation of the sort key values of
//! all elements along the path from the root" (Section 1, Table 1). Sorting
//! all records lexicographically by key path yields the DFS preorder of the
//! fully sorted tree, because a parent's path is a proper prefix of its
//! children's and siblings compare by their own `(key, seq)` component.
//!
//! This module provides the path type, the streaming path builder (tracking
//! level transitions over a record stream), the `(path, record)` codec used
//! by external runs, and the Table 1 rendering.

use std::cmp::Ordering;

use nexsort_extmem::ByteReader;

use crate::error::{Result, XmlError};
use crate::key::KeyValue;
use crate::rec::Rec;
use crate::varint::{read_uvarint, write_uvarint};

/// One component of a key path: an element's `(key, seq)` pair. The sequence
/// number is the paper's "appending the element's location in the input" to
/// make keys unique among siblings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathComp {
    /// The element's sort key.
    pub key: KeyValue,
    /// The element's input sequence number (uniqueness tiebreak).
    pub seq: u64,
}

impl PathComp {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key).then(self.seq.cmp(&other.seq))
    }
}

/// A key path: components from the root down to (and including) the record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KeyPath {
    /// Components, root first.
    pub comps: Vec<PathComp>,
}

impl KeyPath {
    /// Number of components (equals the record's level).
    pub fn len(&self) -> usize {
        self.comps.len()
    }

    /// True if the path has no components.
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// Lexicographic comparison; a proper prefix sorts first, so parents
    /// precede their descendants.
    pub fn cmp_path(&self, other: &Self) -> Ordering {
        for (a, b) in self.comps.iter().zip(&other.comps) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        self.comps.len().cmp(&other.comps.len())
    }

    /// Render like Table 1: `/AC/Durham/454`.
    pub fn display(&self) -> String {
        if self.comps.is_empty() {
            return "/".to_string();
        }
        // The root's own key is conventionally omitted in Table 1 ("/" for
        // the document element), so skip the first component.
        let mut s = String::new();
        if self.comps.len() == 1 {
            return "/".to_string();
        }
        for c in &self.comps[1..] {
            s.push('/');
            s.push_str(&c.key.display_lossy());
        }
        s
    }

    fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        write_uvarint(out, self.comps.len() as u64)?;
        for c in &self.comps {
            c.key.encode(out)?;
            write_uvarint(out, c.seq)?;
        }
        Ok(())
    }

    fn decode(src: &mut impl ByteReader) -> Result<KeyPath> {
        let n = read_uvarint(src)? as usize;
        if n as u64 > src.remaining() {
            return Err(XmlError::Record(format!("implausible key-path length {n}")));
        }
        let mut comps = Vec::with_capacity(n);
        for _ in 0..n {
            let key = KeyValue::decode(src)?;
            let seq = read_uvarint(src)?;
            comps.push(PathComp { key, seq });
        }
        Ok(KeyPath { comps })
    }
}

/// A record annotated with its key path -- the unit the key-path external
/// merge sort works on. Note the space blow-up the paper warns about: tall
/// trees repeat long ancestor prefixes in every record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathedRec {
    /// Key path from the root down to this record.
    pub path: KeyPath,
    /// The record itself.
    pub rec: Rec,
}

impl PathedRec {
    /// Append the encoded `(path, rec)` pair.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        self.path.encode(out)?;
        self.rec.encode(out)?;
        Ok(())
    }

    /// Decode one `(path, rec)` pair, returning it and the bytes consumed.
    pub fn decode(src: &mut impl ByteReader) -> Result<(PathedRec, u64)> {
        let before = src.remaining();
        let path = KeyPath::decode(src)?;
        let (rec, _) = Rec::decode(src)?;
        let consumed = before - src.remaining();
        Ok((PathedRec { path, rec }, consumed))
    }
}

/// Streaming key-path builder over a record stream in document order.
///
/// Records must arrive with final keys (deferred keys already resolved); the
/// builder maintains the current root-to-here path via level transitions.
#[derive(Debug, Default)]
pub struct PathBuilder {
    path: Vec<PathComp>,
}

impl PathBuilder {
    /// A builder with an empty current path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Annotate the next record of the stream with its key path.
    pub fn attach(&mut self, rec: Rec) -> Result<PathedRec> {
        let level = rec.level() as usize;
        if level == 0 {
            return Err(XmlError::Record("record at level 0".into()));
        }
        if level > self.path.len() + 1 {
            return Err(XmlError::Record(format!(
                "level jump from {} to {}",
                self.path.len(),
                level
            )));
        }
        self.path.truncate(level - 1);
        self.path.push(PathComp { key: rec.key().clone(), seq: rec.seq() });
        Ok(PathedRec { path: KeyPath { comps: self.path.clone() }, rec })
    }
}

/// Annotate a whole record stream with key paths (convenience wrapper).
pub fn attach_paths(recs: Vec<Rec>) -> Result<Vec<PathedRec>> {
    let mut b = PathBuilder::new();
    recs.into_iter().map(|r| b.attach(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SortSpec;
    use crate::parser::parse_events;
    use crate::rec::RecDecoder;
    use crate::recstream::events_to_recs;
    use crate::sym::TagDict;
    use nexsort_extmem::SliceReader;

    fn d1_recs() -> Vec<Rec> {
        // The document of Figure 1 / Table 1 (D1, first region subtree).
        let doc = "<company><region name=\"NE\"/><region name=\"AC\">\
                   <branch name=\"Durham\"><employee ID=\"454\"/>\
                   <employee ID=\"323\"><name>Smith</name><phone>5552345</phone></employee>\
                   </branch><branch name=\"Atlanta\"/></region></company>";
        let spec = SortSpec::by_attribute("name")
            .with_rule("employee", crate::key::KeyRule::attr("ID"))
            .with_rule("name", crate::key::KeyRule::tag_name())
            .with_rule("phone", crate::key::KeyRule::tag_name())
            .with_text_key(crate::key::TextKey::Content);
        let events = parse_events(doc.as_bytes()).unwrap();
        let mut dict = TagDict::new();
        events_to_recs(&events, &spec, &mut dict, true).unwrap()
    }

    #[test]
    fn table_1_key_paths_render_as_in_the_paper() {
        let pathed = attach_paths(d1_recs()).unwrap();
        let shown: Vec<String> = pathed.iter().map(|p| p.path.display()).collect();
        assert_eq!(
            shown,
            vec![
                "/",
                "/NE",
                "/AC",
                "/AC/Durham",
                "/AC/Durham/454",
                "/AC/Durham/323",
                "/AC/Durham/323/name",
                "/AC/Durham/323/name/Smith",
                "/AC/Durham/323/phone",
                "/AC/Durham/323/phone/5552345",
                "/AC/Atlanta",
            ]
        );
    }

    #[test]
    fn parents_sort_before_descendants() {
        let pathed = attach_paths(d1_recs()).unwrap();
        let root = &pathed[0];
        for p in &pathed[1..] {
            assert_eq!(root.path.cmp_path(&p.path), Ordering::Less);
        }
        // /AC/Durham before /AC/Durham/454.
        assert_eq!(pathed[3].path.cmp_path(&pathed[4].path), Ordering::Less);
    }

    #[test]
    fn sorting_by_key_path_yields_sorted_sibling_order() {
        let mut pathed = attach_paths(d1_recs()).unwrap();
        pathed.sort_by(|a, b| a.path.cmp_path(&b.path));
        let shown: Vec<String> = pathed.iter().map(|p| p.path.display()).collect();
        // AC < NE; Atlanta < Durham; 323 < 454 (byte comparison).
        assert_eq!(shown[1], "/AC");
        assert_eq!(shown[2], "/AC/Atlanta");
        assert_eq!(shown[3], "/AC/Durham");
        assert_eq!(shown[4], "/AC/Durham/323");
        assert_eq!(*shown.last().unwrap(), "/NE");
    }

    #[test]
    fn seq_breaks_ties_between_equal_keys() {
        use crate::rec::{ElemRec, Rec};
        use crate::sym::NameRef;
        let mk = |seq| {
            Rec::Elem(ElemRec {
                level: 1,
                name: NameRef::Sym(0),
                attrs: vec![],
                key: KeyValue::Bytes(b"same".to_vec()),
                seq,
            })
        };
        let mut b1 = PathBuilder::new();
        let p1 = b1.attach(mk(7)).unwrap();
        let mut b2 = PathBuilder::new();
        let p2 = b2.attach(mk(9)).unwrap();
        assert_eq!(p1.path.cmp_path(&p2.path), Ordering::Less);
    }

    #[test]
    fn pathed_rec_codec_roundtrip() {
        let pathed = attach_paths(d1_recs()).unwrap();
        let mut buf = Vec::new();
        for p in &pathed {
            p.encode(&mut buf).unwrap();
        }
        let mut src = SliceReader::new(&buf);
        let mut out = Vec::new();
        while src.remaining() > 0 {
            let (p, _) = PathedRec::decode(&mut src).unwrap();
            out.push(p);
        }
        assert_eq!(out, pathed);
    }

    #[test]
    fn key_path_space_blowup_grows_with_depth() {
        // The paper's motivation: tall trees repeat ancestor keys. Verify the
        // pathed encoding of a chain grows quadratically while records alone
        // grow linearly.
        let depth = 30;
        let mut doc = String::new();
        for i in 0..depth {
            doc.push_str(&format!("<n k=\"key-{i:04}\">"));
        }
        for _ in 0..depth {
            doc.push_str("</n>");
        }
        let events = parse_events(doc.as_bytes()).unwrap();
        let spec = SortSpec::by_attribute("k");
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
        let mut plain = Vec::new();
        for r in &recs {
            r.encode(&mut plain).unwrap();
        }
        let plain = plain.len();
        let pathed = attach_paths(recs).unwrap();
        let mut with_paths = Vec::new();
        for p in &pathed {
            p.encode(&mut with_paths).unwrap();
        }
        let with_paths = with_paths.len();
        assert!(
            with_paths > plain * (depth / 8),
            "expected super-linear blow-up: plain={plain} pathed={with_paths}"
        );
    }

    #[test]
    fn level_jumps_are_rejected() {
        use crate::rec::{ElemRec, Rec};
        use crate::sym::NameRef;
        let mut b = PathBuilder::new();
        let bad = Rec::Elem(ElemRec {
            level: 3,
            name: NameRef::Sym(0),
            attrs: vec![],
            key: KeyValue::Missing,
            seq: 0,
        });
        assert!(b.attach(bad).is_err());
    }

    #[test]
    fn rec_stream_roundtrips_through_extent_storage() {
        // Sanity: records with paths survive block storage (cross-module).
        let pathed = attach_paths(d1_recs()).unwrap();
        let recs: Vec<Rec> = pathed.iter().map(|p| p.rec.clone()).collect();
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
}
