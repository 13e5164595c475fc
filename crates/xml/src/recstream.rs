//! Conversion between XML events and compact records.
//!
//! [`RecBuilder`] is the scanning half: it turns the event stream into level-
//! numbered records (end tags are consumed, not stored -- Section 3.2's
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
//! into an [`XmlWriter`], one record at a time.

use crate::error::{Result, XmlError};
use crate::event::Event;
use crate::key::{KeyRule, KeySource, KeyValue, SortSpec};
use crate::rec::{ElemRec, PatchRec, Rec, TextRec};
use crate::sym::{NameRef, TagDict};
use crate::writer::XmlWriter;
use nexsort_extmem::ByteSink;

/// Deferred-key evaluation state for one open element.
#[derive(Debug)]
struct Pending {
    rule: KeyRule,
    /// For `ChildPath`: number of path components matched along the current
    /// open chain. Unused for `Text`.
    matched: usize,
    captured: Option<Vec<u8>>,
}

#[derive(Debug)]
struct EvalFrame {
    pending: Option<Pending>,
}

/// Streaming events-to-records converter with key evaluation.
pub struct RecBuilder {
    spec: SortSpec,
    compaction: bool,
    level: u32,
    seq: u64,
    frames: Vec<EvalFrame>,
}

impl RecBuilder {
    /// A builder for `spec`. With `compaction` on, names are interned into
    /// the caller's [`TagDict`]; off, they are stored inline in each record.
    pub fn new(spec: SortSpec, compaction: bool) -> Self {
        Self { spec, compaction, level: 0, seq: 0, frames: Vec::new() }
    }

    /// Current element nesting depth (root = 1 while open).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Total records' sequence numbers issued so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    fn name_ref(&self, dict: &mut TagDict, name: &[u8]) -> NameRef {
        if self.compaction {
            NameRef::Sym(dict.intern(name))
        } else {
            NameRef::Inline(name.to_vec())
        }
    }

    /// Feed one event; resulting records are appended to `out` (0..=2 per
    /// event: an end tag yields at most one `KeyPatch`).
    pub fn push_event(&mut self, ev: &Event, dict: &mut TagDict, out: &mut Vec<Rec>) -> Result<()> {
        match ev {
            Event::Start { name, attrs } => {
                self.level += 1;
                // Advance child-path matchers of open ancestors.
                let new_level = self.level as usize;
                for (j, frame) in self.frames.iter_mut().enumerate() {
                    if let Some(p) = &mut frame.pending {
                        if p.captured.is_some() {
                            continue;
                        }
                        if let KeySource::ChildPath(path) = &p.rule.source {
                            let d = new_level - (j + 1); // relative depth
                            if d >= 1
                                && p.matched == d - 1
                                && d - 1 < path.len()
                                && path[d - 1] == *name
                            {
                                p.matched = d;
                            }
                        }
                    }
                }
                let rule = self.spec.rule_for(name);
                let key = self.spec.start_key(name, attrs);
                let pending = if key.is_none() {
                    Some(Pending { rule: rule.clone(), matched: 0, captured: None })
                } else {
                    None
                };
                self.frames.push(EvalFrame { pending });
                let name_ref = self.name_ref(dict, name);
                let attrs =
                    attrs.iter().map(|(k, v)| (self.name_ref(dict, k), v.clone())).collect();
                out.push(Rec::Elem(ElemRec {
                    level: self.level,
                    name: name_ref,
                    attrs,
                    key: key.unwrap_or(KeyValue::Missing),
                    seq: self.seq,
                }));
                self.seq += 1;
                Ok(())
            }
            Event::Text { content } => {
                if self.level == 0 {
                    return Err(XmlError::Record("text outside the root element".into()));
                }
                let text_level = self.level as usize + 1;
                for (j, frame) in self.frames.iter_mut().enumerate() {
                    if let Some(p) = &mut frame.pending {
                        if p.captured.is_some() {
                            continue;
                        }
                        let owner_level = j + 1;
                        match &p.rule.source {
                            KeySource::Text if text_level == owner_level + 1 => {
                                p.captured = Some(content.clone());
                            }
                            KeySource::ChildPath(path)
                                if p.matched == path.len()
                                    && text_level == owner_level + path.len() + 1 =>
                            {
                                p.captured = Some(content.clone());
                            }
                            _ => {}
                        }
                    }
                }
                out.push(Rec::Text(TextRec {
                    level: self.level + 1,
                    content: content.clone(),
                    key: self.spec.text_node_key(content),
                    seq: self.seq,
                }));
                self.seq += 1;
                Ok(())
            }
            Event::End { .. } => {
                if self.level == 0 {
                    return Err(XmlError::Record("end tag with no open element".into()));
                }
                let closing_level = self.level as usize;
                let frame = self.frames.pop().expect("frame per open element");
                if let Some(p) = frame.pending {
                    let key = match p.captured {
                        Some(raw) => p.rule.oriented(KeyValue::from_bytes(&raw, p.rule.ty)),
                        None => KeyValue::Missing,
                    };
                    if key != KeyValue::Missing {
                        out.push(Rec::KeyPatch(PatchRec { level: self.level, key }));
                    }
                }
                // Backtrack child-path matchers of remaining ancestors.
                for (j, frame) in self.frames.iter_mut().enumerate() {
                    if let Some(p) = &mut frame.pending {
                        if p.captured.is_none() {
                            if let KeySource::ChildPath(_) = &p.rule.source {
                                let d = closing_level - (j + 1);
                                if d >= 1 && p.matched == d {
                                    p.matched = d - 1;
                                }
                            }
                        }
                    }
                }
                self.level -= 1;
                Ok(())
            }
        }
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
    let mut out = Vec::new();
    for ev in events {
        b.push_event(ev, dict, &mut out)?;
    }
    if b.level() != 0 {
        return Err(XmlError::Record("event stream ended with open elements".into()));
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

/// Records straight to XML text: the events of each record are regenerated
/// as [`RecEmitter`] does, written, and dropped before the next record
/// arrives. Memory is O(depth) open-tag names whatever the document's size,
/// so a sorted document streams to a file or stdout without being held.
pub struct RecXmlWriter<S: ByteSink> {
    open: OpenTags,
    events: Vec<Event>,
    xml: XmlWriter<S>,
}

impl<S: ByteSink> RecXmlWriter<S> {
    /// A writer into `sink`, compact or indented like [`XmlWriter`].
    pub fn new(sink: S, pretty: bool) -> Self {
        Self {
            open: OpenTags::default(),
            events: Vec::new(),
            xml: XmlWriter::new(sink).pretty(pretty),
        }
    }

    /// Write one record, resolving its interned names against `dict`.
    pub fn push_rec(&mut self, rec: &Rec, dict: &TagDict) -> Result<()> {
        self.open.push_rec(rec, dict, &mut self.events)?;
        self.write_events()
    }

    fn write_events(&mut self) -> Result<()> {
        for ev in self.events.drain(..) {
            self.xml.write(&ev)?;
        }
        Ok(())
    }

    /// Close the still-open elements and return the sink.
    pub fn finish(mut self) -> Result<S> {
        self.open.close_to(0, &mut self.events);
        self.write_events()?;
        Ok(self.xml.into_inner())
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
    use crate::key::{KeyRule, TextKey};
    use crate::parser::parse_events;

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
            recs.iter().map(Rec::encoded_len).sum::<usize>()
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
