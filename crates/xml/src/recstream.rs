//! Conversion between XML events and compact records.
//!
//! [`RecBuilder`] is the scanning half: it turns the event stream into level-
//! numbered encoded records (end tags are consumed, not stored -- Section 3.2's
//! end-tag elimination) while evaluating the ordering criterion. Keys known
//! from the start tag are embedded directly; *deferred* keys (text or
//! child-path sources) are evaluated in a single pass with constant state per
//! open element and emitted as [`Rec::KeyPatch`] records at the end tag,
//! exactly as the paper describes augmenting the path stack with pending
//! ordering expressions.
//!
//! [`RecEmitter`] is the output half: it regenerates events from records,
//! reconstructing end tags from level transitions ("a transition from a start
//! tag on level l1 to a start tag on level l2 <= l1 must have l1 - l2 + 1 end
//! tags in between"). [`RecXmlWriter`] runs the same reconstruction straight
//! from encoded records into an [`XmlWriter`], one record at a time.

use crate::encoded::RecRef;
use crate::error::{Result, XmlError};
use crate::event::{Attrs, Event, EventRef};
use crate::key::{KeyRule, KeySource, KeyType, KeyValue, SortSpec, TextKey};
use crate::rec::{Rec, RecDecoder, RecKind, KIND_ELEM, KIND_PATCH, KIND_TEXT};
use crate::sym::TagDict;
use crate::varint::{write_bytes, write_uvarint};
use crate::writer::XmlWriter;
use nexsort_extmem::{ByteSink, SliceReader};

/// Deferred-key evaluation state for one open element.
#[derive(Debug)]
struct Pending {
    /// The element's rule (see [`rule_at`]).
    rule: usize,
    /// For `ChildPath`: number of path components matched along the current
    /// open chain. Unused for `Text`.
    matched: usize,
    captured: Option<Vec<u8>>,
}

/// Rule `ix` of `spec`: 0 is the default, `i + 1` the `i`-th per-tag rule.
fn rule_at(spec: &SortSpec, ix: usize) -> &KeyRule {
    match ix {
        0 => &spec.default,
        i => &spec.per_tag[i - 1].1,
    }
}

/// Streaming events-to-records converter with key evaluation. Records are
/// appended to a byte buffer in exactly the [`Rec::encode`] format, built
/// from the borrowed event: no [`Rec`] or [`KeyValue`] is made on the way.
pub struct RecBuilder {
    spec: SortSpec,
    compaction: bool,
    /// Some rule defers its key to the end tag, so the open elements'
    /// matchers must be advanced on every event.
    deferred: bool,
    level: u32,
    seq: u64,
    frames: Vec<Option<Pending>>,
}

impl RecBuilder {
    /// A builder for `spec`. With `compaction` on, names are interned into
    /// the caller's [`TagDict`]; off, they are stored inline in each record.
    pub fn new(spec: SortSpec, compaction: bool) -> Self {
        let deferred = spec.has_deferred_keys();
        Self { spec, compaction, deferred, level: 0, seq: 0, frames: Vec::new() }
    }

    /// Current element nesting depth (root = 1 while open).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Total records' sequence numbers issued so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn write_name(&self, dict: &mut TagDict, name: &[u8], out: &mut Vec<u8>) -> Result<()> {
        if self.compaction {
            out.push(0);
            write_uvarint(out, u64::from(dict.intern(name)))
        } else {
            out.push(1);
            write_bytes(out, name)
        }
    }

    /// Feed one event. The record it yields, if any (an end tag yields at
    /// most a `KeyPatch`), is appended to `out`; its kind and level are
    /// returned.
    pub fn push(
        &mut self,
        ev: &EventRef<'_>,
        dict: &mut TagDict,
        out: &mut Vec<u8>,
    ) -> Result<Option<(RecKind, u32)>> {
        let start = out.len();
        let made = match *ev {
            EventRef::Start { name, attrs } => {
                self.start(name, &attrs, dict, out)?;
                (RecKind::Elem, self.level)
            }
            EventRef::Text { content } => {
                self.text(content, out)?;
                (RecKind::Text, self.level + 1)
            }
            EventRef::End { .. } => match self.end(out)? {
                Some(level) => (RecKind::KeyPatch, level),
                None => return Ok(None),
            },
        };
        let total = (out.len() - start + 4) as u32;
        out.extend_from_slice(&total.to_le_bytes());
        Ok(Some(made))
    }

    fn start(
        &mut self,
        name: &[u8],
        attrs: &Attrs<'_>,
        dict: &mut TagDict,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.level += 1;
        if self.deferred {
            // Advance child-path matchers of open ancestors.
            let new_level = self.level as usize;
            for (j, frame) in self.frames.iter_mut().enumerate() {
                let Some(p) = frame.as_mut().filter(|p| p.captured.is_none()) else {
                    continue;
                };
                if let KeySource::ChildPath(path) = &rule_at(&self.spec, p.rule).source {
                    let d = new_level - (j + 1); // relative depth
                    if d >= 1 && p.matched == d - 1 && d - 1 < path.len() && path[d - 1] == name {
                        p.matched = d;
                    }
                }
            }
        }
        let ix = self.spec.per_tag.iter().position(|(t, _)| t == name).map_or(0, |i| i + 1);
        out.push(KIND_ELEM);
        write_uvarint(out, u64::from(self.level))?;
        self.write_name(dict, name, out)?;
        write_uvarint(out, attrs.len() as u64)?;
        for (k, v) in attrs.iter() {
            self.write_name(dict, k, out)?;
            write_bytes(out, v)?;
        }
        let rule = rule_at(&self.spec, ix);
        let pending = if rule.source.is_deferred() {
            out.push(0); // `KeyValue::Missing` until the patch
            Some(Pending { rule: ix, matched: 0, captured: None })
        } else {
            SortSpec::encode_start_key(rule, name, attrs, out)?;
            None
        };
        self.frames.push(pending);
        write_uvarint(out, self.seq)?;
        self.seq += 1;
        Ok(())
    }

    fn text(&mut self, content: &[u8], out: &mut Vec<u8>) -> Result<()> {
        if self.level == 0 {
            return Err(XmlError::Record("text outside the root element".into()));
        }
        if self.deferred {
            let text_level = self.level as usize + 1;
            for (j, frame) in self.frames.iter_mut().enumerate() {
                let Some(p) = frame.as_mut().filter(|p| p.captured.is_none()) else {
                    continue;
                };
                let owner_level = j + 1;
                let captures = match &rule_at(&self.spec, p.rule).source {
                    KeySource::Text => text_level == owner_level + 1,
                    KeySource::ChildPath(path) => {
                        p.matched == path.len() && text_level == owner_level + path.len() + 1
                    }
                    _ => false,
                };
                if captures {
                    p.captured = Some(content.to_vec());
                }
            }
        }
        out.push(KIND_TEXT);
        write_uvarint(out, u64::from(self.level + 1))?;
        write_bytes(out, content)?;
        match self.spec.text_key {
            TextKey::DocOrder => out.push(0),
            TextKey::Content => KeyValue::encode_from_bytes(content, KeyType::Bytes, false, out)?,
        }
        write_uvarint(out, self.seq)?;
        self.seq += 1;
        Ok(())
    }

    /// Close the innermost element, writing its key patch if it captured
    /// a deferred key; returns the patch's level.
    fn end(&mut self, out: &mut Vec<u8>) -> Result<Option<u32>> {
        if self.level == 0 {
            return Err(XmlError::Record("end tag with no open element".into()));
        }
        let closing_level = self.level as usize;
        let frame = self.frames.pop().expect("frame per open element");
        let mut patched = None;
        if let Some(Pending { rule, captured: Some(raw), .. }) = frame {
            let rule = rule_at(&self.spec, rule);
            out.push(KIND_PATCH);
            write_uvarint(out, u64::from(self.level))?;
            KeyValue::encode_from_bytes(&raw, rule.ty, rule.descending, out)?;
            patched = Some(self.level);
        }
        if self.deferred {
            // Backtrack child-path matchers of remaining ancestors.
            for (j, frame) in self.frames.iter_mut().enumerate() {
                let Some(p) = frame.as_mut().filter(|p| p.captured.is_none()) else {
                    continue;
                };
                if let KeySource::ChildPath(_) = &rule_at(&self.spec, p.rule).source {
                    let d = closing_level - (j + 1);
                    if d >= 1 && p.matched == d {
                        p.matched = d - 1;
                    }
                }
            }
        }
        self.level -= 1;
        Ok(patched)
    }
}

/// Convert a complete event sequence to records (convenience wrapper).
pub fn events_to_recs(
    events: &[Event],
    spec: &SortSpec,
    dict: &mut TagDict,
    compaction: bool,
) -> Result<Vec<Rec>> {
    let mut b = RecBuilder::new(spec.clone(), compaction);
    let mut buf = Vec::new();
    for ev in events {
        b.push(&ev.view(), dict, &mut buf)?;
    }
    if b.level() != 0 {
        return Err(XmlError::Record("event stream ended with open elements".into()));
    }
    let mut dec = RecDecoder::new(SliceReader::new(&buf));
    let mut out = Vec::new();
    while let Some(rec) = dec.next_rec()? {
        out.push(rec);
    }
    Ok(out)
}

/// Apply all [`Rec::KeyPatch`] records in a stream to their target elements,
/// returning the patched stream without the patches.
pub fn apply_patches(recs: Vec<Rec>) -> Result<Vec<Rec>> {
    let mut out: Vec<Rec> = Vec::with_capacity(recs.len());
    let mut open: Vec<usize> = Vec::new(); // indices of open Elem records
    for rec in recs {
        match rec {
            Rec::KeyPatch(p) => {
                while open.last().is_some_and(|&i| out[i].level() > p.level) {
                    open.pop();
                }
                match open.last() {
                    Some(&i) if out[i].level() == p.level => {
                        out[i].set_key(p.key);
                        open.pop();
                    }
                    _ => {
                        return Err(XmlError::Record(format!(
                            "key patch at level {} has no open element",
                            p.level
                        )))
                    }
                }
            }
            rec => {
                let lvl = rec.level();
                while open.last().is_some_and(|&i| out[i].level() >= lvl) {
                    open.pop();
                }
                if matches!(rec, Rec::Elem(_)) {
                    open.push(out.len());
                }
                out.push(rec);
            }
        }
    }
    Ok(out)
}

/// End-tag reconstruction state: the names of the open elements. A record
/// at level `l` first closes every open element at level `>= l`.
#[derive(Default)]
struct OpenTags(Vec<Vec<u8>>);

impl OpenTags {
    fn close_to(&mut self, target_open: usize, out: &mut Vec<Event>) {
        while self.0.len() > target_open {
            let name = self.0.pop().expect("checked non-empty");
            out.push(Event::End { name });
        }
    }

    fn push_rec(&mut self, rec: &Rec, dict: &TagDict, out: &mut Vec<Event>) -> Result<()> {
        match rec {
            Rec::Elem(r) => {
                let target = (r.level - 1) as usize;
                if target > self.0.len() {
                    return Err(XmlError::Record(format!(
                        "level jump: element at level {} under {} open elements",
                        r.level,
                        self.0.len()
                    )));
                }
                self.close_to(target, out);
                let name = r.name.resolve(dict)?.to_vec();
                let attrs = r
                    .attrs
                    .iter()
                    .map(|(k, v)| Ok((k.resolve(dict)?.to_vec(), v.clone())))
                    .collect::<Result<Vec<_>>>()?;
                out.push(Event::Start { name: name.clone(), attrs });
                self.0.push(name);
                Ok(())
            }
            Rec::Text(r) => {
                let target = (r.level.max(1) - 1) as usize;
                if r.level < 2 || target > self.0.len() {
                    return Err(XmlError::Record(format!(
                        "level jump: text at level {} under {} open elements",
                        r.level,
                        self.0.len()
                    )));
                }
                self.close_to(target, out);
                out.push(Event::Text { content: r.content.clone() });
                Ok(())
            }
            Rec::RunPtr(r) => Err(XmlError::Record(format!(
                "run pointer (run {}) cannot be emitted as events; resolve runs first",
                r.run
            ))),
            Rec::KeyPatch(_) => Ok(()), // metadata only
        }
    }
}

/// Streaming records-to-events converter (end-tag reconstruction).
pub struct RecEmitter<'a> {
    dict: &'a TagDict,
    open: OpenTags,
}

impl<'a> RecEmitter<'a> {
    /// An emitter resolving interned names against `dict`.
    pub fn new(dict: &'a TagDict) -> Self {
        Self { dict, open: OpenTags::default() }
    }

    /// Feed one record; resulting events are appended to `out`.
    pub fn push_rec(&mut self, rec: &Rec, out: &mut Vec<Event>) -> Result<()> {
        self.open.push_rec(rec, self.dict, out)
    }

    /// Close any still-open elements.
    pub fn finish(&mut self, out: &mut Vec<Event>) {
        self.open.close_to(0, out);
    }
}

/// Records straight to XML text, formatted from their encoded bytes: names
/// come from the [`TagDict`] as slices, attribute values and text are
/// escaped straight from the record, and end tags are reconstructed from
/// level transitions as [`RecEmitter`] does. The open elements' names are
/// kept as spans of one byte arena, so memory is O(depth) names whatever
/// the document's size, and a sorted document streams to a file or stdout
/// without being held.
pub struct RecXmlWriter<S: ByteSink> {
    /// Names of the open elements, back to back.
    names: Vec<u8>,
    /// Where each open element's name starts in `names`.
    open: Vec<usize>,
    xml: XmlWriter<S>,
    /// Scratch for [`Self::push_rec`]'s encoding.
    scratch: Vec<u8>,
}

impl<S: ByteSink> RecXmlWriter<S> {
    /// A writer into `sink`, compact or indented like [`XmlWriter`].
    pub fn new(sink: S, pretty: bool) -> Self {
        Self {
            names: Vec::new(),
            open: Vec::new(),
            xml: XmlWriter::new(sink).pretty(pretty),
            scratch: Vec::new(),
        }
    }

    /// Write the end tags of the open elements beyond the first `target`.
    fn close_to(&mut self, target: usize) -> Result<()> {
        while self.open.len() > target {
            let at = self.open.pop().expect("checked non-empty");
            self.xml.end_tag(&self.names[at..])?;
            self.names.truncate(at);
        }
        Ok(())
    }

    /// Write one encoded record (the [`Rec::encode`] format, as validated
    /// by [`RecDecoder::next_encoded`]), resolving its interned names
    /// against `dict`. Key patches are skipped; a run pointer or a level
    /// jump is an error.
    pub fn push_encoded(&mut self, rec: &[u8], dict: &TagDict) -> Result<()> {
        match RecRef::read(rec)? {
            RecRef::Elem { level, name, attrs } => {
                let target = level.wrapping_sub(1) as usize;
                if target > self.open.len() {
                    return Err(XmlError::Record(format!(
                        "level jump: element at level {level} under {} open elements",
                        self.open.len()
                    )));
                }
                self.close_to(target)?;
                let name = name.resolve(dict)?;
                self.xml.start_tag(name, attrs.map(|(k, v)| Ok((k.resolve(dict)?, v))))?;
                self.open.push(self.names.len());
                self.names.extend_from_slice(name);
                Ok(())
            }
            RecRef::Text { level, content } => {
                let target = (level.max(1) - 1) as usize;
                if level < 2 || target > self.open.len() {
                    return Err(XmlError::Record(format!(
                        "level jump: text at level {level} under {} open elements",
                        self.open.len()
                    )));
                }
                self.close_to(target)?;
                self.xml.text(content)
            }
            RecRef::RunPtr { run, .. } => Err(XmlError::Record(format!(
                "run pointer (run {run}) cannot be emitted as events; resolve runs first"
            ))),
            RecRef::KeyPatch { .. } => Ok(()), // metadata only
        }
    }

    /// Write one owned record: its encoding, through [`Self::push_encoded`].
    pub fn push_rec(&mut self, rec: &Rec, dict: &TagDict) -> Result<()> {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        rec.encode(&mut buf)?;
        let done = self.push_encoded(&buf, dict);
        self.scratch = buf;
        done
    }

    /// Close the still-open elements and return the sink.
    pub fn finish(mut self) -> Result<S> {
        self.close_to(0)?;
        self.xml.into_inner()
    }
}

/// Convert a complete record sequence back to events (convenience wrapper).
pub fn recs_to_events(recs: &[Rec], dict: &TagDict) -> Result<Vec<Event>> {
    let mut em = RecEmitter::new(dict);
    let mut out = Vec::new();
    for rec in recs {
        em.push_rec(rec, &mut out)?;
    }
    em.finish(&mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_events;
    use crate::rec::ElemRec;
    use crate::sym::NameRef;

    fn roundtrip(doc: &str, spec: &SortSpec) -> (Vec<Event>, Vec<Rec>, Vec<Event>) {
        let events = parse_events(doc.as_bytes()).unwrap();
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, spec, &mut dict, true).unwrap();
        let back = recs_to_events(&recs, &dict).unwrap();
        (events, recs, back)
    }

    #[test]
    fn events_records_events_roundtrip() {
        let spec = SortSpec::by_attribute("name");
        let doc = "<company><region name=\"NE\"><branch name=\"Durham\">\
                   <employee ID=\"454\"><name>Smith</name></employee></branch></region></company>";
        let (events, recs, back) = roundtrip(doc, &spec);
        assert_eq!(events, back);
        // End tags are eliminated: record count < event count.
        assert!(recs.len() < events.len());
    }

    #[test]
    fn levels_follow_the_paper_convention_root_is_one() {
        let spec = SortSpec::by_attribute("x");
        let (_, recs, _) = roundtrip("<a><b><c/></b><d/></a>", &spec);
        let levels: Vec<u32> = recs.iter().map(Rec::level).collect();
        assert_eq!(levels, vec![1, 2, 3, 2]);
    }

    #[test]
    fn start_known_keys_are_embedded_directly() {
        let spec = SortSpec::by_attribute("name");
        let (_, recs, _) = roundtrip("<a name=\"root\"><b name=\"x\"/></a>", &spec);
        assert_eq!(recs[0].key(), &KeyValue::Bytes(b"root".to_vec()));
        assert_eq!(recs[1].key(), &KeyValue::Bytes(b"x".to_vec()));
    }

    #[test]
    fn text_source_emits_a_patch_at_end_tag() {
        let spec = SortSpec::uniform(KeyRule::text());
        let (_, recs, _) = roundtrip("<a><b>beta</b></a>", &spec);
        // a(elem, key pending), b(elem), "beta"(text), patch(b), patch(a).
        let patches: Vec<&Rec> = recs.iter().filter(|r| matches!(r, Rec::KeyPatch(_))).collect();
        assert_eq!(patches.len(), 1, "only b has an immediate text child");
        match patches[0] {
            Rec::KeyPatch(p) => {
                assert_eq!(p.level, 2);
                assert_eq!(p.key, KeyValue::Bytes(b"beta".to_vec()));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn child_path_key_follows_the_paper_example() {
        // order employee by personalInfo/name/lastName (Section 3.2).
        let spec = SortSpec::by_attribute("name")
            .with_rule("employee", KeyRule::child_path(&["personalInfo", "name", "lastName"]));
        let doc = "<employee><personalInfo><name><firstName>Ada</firstName>\
                   <lastName>Lovelace</lastName></name></personalInfo></employee>";
        let (_, recs, _) = roundtrip(doc, &spec);
        let patch = recs.iter().find_map(|r| match r {
            Rec::KeyPatch(p) if p.level == 1 => Some(p.key.clone()),
            _ => None,
        });
        assert_eq!(patch, Some(KeyValue::Bytes(b"Lovelace".to_vec())));
    }

    #[test]
    fn child_path_does_not_match_deeper_or_sideways_text() {
        let spec = SortSpec::uniform(KeyRule::child_path(&["k"]));
        // Root's key must come from its immediate k child's text, not from
        // the nested one under w or the k grandchild.
        let doc = "<root><w><k>wrong</k></w><k><k>nested-wrong</k></k><k>right-late</k></root>";
        let (_, recs, _) = roundtrip(doc, &spec);
        let root_patch = recs.iter().find_map(|r| match r {
            Rec::KeyPatch(p) if p.level == 1 => Some(p.key.clone()),
            _ => None,
        });
        // First text at exactly root/k/<text>: the nested k contains only a
        // deeper k, so the first capture is "right-late"? No: the second
        // child <k> has a <k> child whose text is at depth root+3, too deep.
        assert_eq!(root_patch, Some(KeyValue::Bytes(b"right-late".to_vec())));

        // A matched first step that closes is forgotten: text under a
        // later sibling with another name does not match.
        let spec = SortSpec::uniform(KeyRule::child_path(&["b", "c"]));
        let doc = "<root><b/><x><c>wrong</c></x><b><c>right</c></b></root>";
        let (_, recs, _) = roundtrip(doc, &spec);
        let root_patch = recs.iter().find_map(|r| match r {
            Rec::KeyPatch(p) if p.level == 1 => Some(p.key.clone()),
            _ => None,
        });
        assert_eq!(root_patch, Some(KeyValue::Bytes(b"right".to_vec())));
    }

    #[test]
    fn first_capture_wins_for_deferred_keys() {
        let spec = SortSpec::uniform(KeyRule::text());
        let (_, recs, _) = roundtrip("<a>first<b/>second</a>", &spec);
        let patch = recs.iter().find_map(|r| match r {
            Rec::KeyPatch(p) if p.level == 1 => Some(p.key.clone()),
            _ => None,
        });
        assert_eq!(patch, Some(KeyValue::Bytes(b"first".to_vec())));
    }

    #[test]
    fn apply_patches_embeds_and_removes() {
        let spec = SortSpec::uniform(KeyRule::text());
        let (_, recs, _) = roundtrip("<a><b>bee</b><c>sea</c></a>", &spec);
        let patched = apply_patches(recs).unwrap();
        assert!(patched.iter().all(|r| !matches!(r, Rec::KeyPatch(_))));
        let b = patched.iter().find(|r| r.level() == 2 && matches!(r, Rec::Elem(_))).unwrap();
        assert_eq!(b.key(), &KeyValue::Bytes(b"bee".to_vec()));
    }

    #[test]
    fn text_nodes_keyed_by_content_when_requested() {
        let spec = SortSpec::by_attribute("x").with_text_key(TextKey::Content);
        let (_, recs, _) = roundtrip("<a>zeta</a>", &spec);
        assert_eq!(recs[1].key(), &KeyValue::Bytes(b"zeta".to_vec()));
    }

    #[test]
    fn compaction_off_stores_names_inline() {
        let events = parse_events(b"<verylongtagname attr=\"v\"/>").unwrap();
        let spec = SortSpec::by_attribute("attr");
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec, &mut dict, false).unwrap();
        assert!(dict.is_empty());
        match &recs[0] {
            Rec::Elem(e) => {
                assert_eq!(e.name, NameRef::Inline(b"verylongtagname".to_vec()));
            }
            _ => panic!("expected element"),
        }
    }

    #[test]
    fn compaction_shrinks_encoded_size() {
        let doc = "<longelementname><longelementname a=\"1\"/><longelementname a=\"2\"/>\
                   </longelementname>";
        let events = parse_events(doc.as_bytes()).unwrap();
        let spec = SortSpec::by_attribute("a");
        let size = |compaction: bool| {
            let mut dict = TagDict::new();
            let recs = events_to_recs(&events, &spec, &mut dict, compaction).unwrap();
            let mut bytes = Vec::new();
            for r in &recs {
                r.encode(&mut bytes).unwrap();
            }
            bytes.len()
        };
        assert!(size(true) < size(false));
    }

    #[test]
    fn emitter_rejects_level_jumps_and_run_pointers() {
        let dict = TagDict::new();
        let mut em = RecEmitter::new(&dict);
        let mut out = Vec::new();
        let jump = Rec::Elem(ElemRec {
            level: 3,
            name: NameRef::Inline(b"x".to_vec()),
            attrs: vec![],
            key: KeyValue::Missing,
            seq: 0,
        });
        assert!(em.push_rec(&jump, &mut out).is_err());
        let ptr =
            Rec::RunPtr(crate::rec::PtrRec { level: 1, run: 0, key: KeyValue::Missing, seq: 0 });
        assert!(em.push_rec(&ptr, &mut out).is_err());
    }

    #[test]
    fn rec_xml_writer_equals_the_whole_document_serialization() {
        let doc = "<r><a name=\"z\" k=\"&quot;\">x &amp; y<b name=\"m\"/></a>\
                   <a name=\"y\"><c><d>deep</d></c></a>tail</r>";
        let events = parse_events(doc.as_bytes()).unwrap();
        let mut dict = TagDict::new();
        let spec = SortSpec::by_attribute("name");
        let recs = events_to_recs(&events, &spec, &mut dict, true).unwrap();
        for pretty in [false, true] {
            let whole =
                crate::writer::events_to_xml(&recs_to_events(&recs, &dict).unwrap(), pretty);
            let mut w = RecXmlWriter::new(Vec::new(), pretty);
            for r in &recs {
                w.push_rec(r, &dict).unwrap();
            }
            assert_eq!(w.finish().unwrap(), whole, "pretty={pretty}");
        }
    }

    /// The encoded writer's output, or its error, over `recs`.
    fn write_encoded(recs: &[Rec], dict: &TagDict, pretty: bool) -> Result<Vec<u8>> {
        let mut w = RecXmlWriter::new(Vec::new(), pretty);
        let mut buf = Vec::new();
        for r in recs {
            buf.clear();
            r.encode(&mut buf)?;
            w.push_encoded(&buf, dict)?;
        }
        w.finish()
    }

    /// The owned oracle: records to events, events to text.
    fn write_owned(recs: &[Rec], dict: &TagDict, pretty: bool) -> Result<Vec<u8>> {
        Ok(crate::writer::events_to_xml(&recs_to_events(recs, dict)?, pretty))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// `nexsort-datagen` documents (exact, ibm and auction shapes), plus
        /// one full of characters that need escaping, with names interned
        /// and inline, compact and pretty: the encoded writer equals the
        /// owned path byte for byte.
        #[test]
        fn encoded_writer_equals_the_owned_path(seed in proptest::prelude::any::<u64>()) {
            let mut docs = crate::oracle::tests::datagen_docs(seed);
            docs.push(
                b"<r a=\"&quot;&lt;&gt;&amp;'\">x &amp; y &lt; z &gt; w \"q\"\
                  <b c=\"1\"/>mid<b c=\"&amp;\"><d>deep</d></b>tail</r>"
                    .to_vec(),
            );
            let docs: Vec<Vec<Event>> = docs.iter().map(|d| parse_events(d).unwrap()).collect();
            let spec = SortSpec::by_attribute("k")
                .with_rule("item", KeyRule::child_path(&["description"]));
            for events in &docs {
                for compaction in [true, false] {
                    let mut dict = TagDict::new();
                    let recs = events_to_recs(events, &spec, &mut dict, compaction).unwrap();
                    for pretty in [false, true] {
                        let got = write_encoded(&recs, &dict, pretty).unwrap();
                        proptest::prop_assert_eq!(got, write_owned(&recs, &dict, pretty).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn encoded_writer_refuses_run_pointers_and_level_jumps_as_the_owned_path_does() {
        let dict = TagDict::new();
        let elem = |level| {
            Rec::Elem(ElemRec {
                level,
                name: NameRef::Inline(b"x".to_vec()),
                attrs: vec![],
                key: KeyValue::Missing,
                seq: 0,
            })
        };
        let text = |level| {
            Rec::Text(crate::rec::TextRec {
                level,
                content: b"t".to_vec(),
                key: KeyValue::Missing,
                seq: 0,
            })
        };
        let ptr =
            Rec::RunPtr(crate::rec::PtrRec { level: 2, run: 7, key: KeyValue::Missing, seq: 0 });
        let unknown = Rec::Elem(ElemRec {
            level: 1,
            name: NameRef::Sym(3),
            attrs: vec![],
            key: KeyValue::Missing,
            seq: 0,
        });
        for recs in [
            vec![elem(1), ptr],
            vec![elem(1), elem(3)],
            vec![elem(2)],
            vec![text(1)],
            vec![elem(1), text(3)],
            vec![unknown],
        ] {
            for pretty in [false, true] {
                let got = write_encoded(&recs, &dict, pretty).unwrap_err().to_string();
                assert_eq!(got, write_owned(&recs, &dict, pretty).unwrap_err().to_string());
            }
        }
    }

    #[test]
    fn unbalanced_event_streams_are_rejected() {
        let spec = SortSpec::by_attribute("x");
        let mut dict = TagDict::new();
        let events = vec![Event::start("a", &[]), Event::start("b", &[])];
        assert!(events_to_recs(&events, &spec, &mut dict, true).is_err());
        let events = vec![Event::end("a")];
        assert!(events_to_recs(&events, &spec, &mut dict, true).is_err());
        let events = vec![Event::text("stray")];
        assert!(events_to_recs(&events, &spec, &mut dict, true).is_err());
    }
}
