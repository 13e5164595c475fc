//! Test-only oracle: the byte-at-a-time parser, the owned record builder
//! and its key extraction that the slice-scanning front end replaced, kept
//! verbatim apart from the second-root check both parsers now make. The
//! property tests at the bottom hold the front end ([`crate::XmlParser`]
//! and [`crate::RecBuilder`]) to them: equal event streams, equal errors at
//! equal byte offsets, blocks read at the same points, and equal record
//! bytes, whatever the block size that splits the input into frames.

use std::collections::VecDeque;

use nexsort_extmem::ByteReader;

use crate::error::{Result, XmlError};
use crate::event::{Event, EventSource};
use crate::key::{KeyRule, KeySource, KeyValue, SortSpec};
use crate::rec::{ElemRec, PatchRec, Rec, TextRec};
use crate::sym::{NameRef, TagDict};

/// The byte-at-a-time pull parser.
pub(crate) struct OracleParser<R: ByteReader> {
    src: R,
    peeked: Option<u8>,
    pos: u64,
    pending: VecDeque<Event>,
    open: Vec<Vec<u8>>,
    keep_whitespace: bool,
    done: bool,
    seen_root: bool,
}

impl<R: ByteReader> OracleParser<R> {
    /// Parse from `src`, dropping whitespace-only text (the default for
    /// data-centric documents; see [`OracleParser::keep_whitespace`]).
    pub(crate) fn new(src: R) -> Self {
        Self {
            src,
            peeked: None,
            pos: 0,
            pending: VecDeque::new(),
            open: Vec::new(),
            keep_whitespace: false,
            done: false,
            seen_root: false,
        }
    }

    /// Retain whitespace-only text nodes instead of dropping them.
    pub(crate) fn keep_whitespace(mut self, keep: bool) -> Self {
        self.keep_whitespace = keep;
        self
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(XmlError::Parse { offset: self.pos, msg: msg.into() })
    }

    fn peek_byte(&mut self) -> Result<Option<u8>> {
        if self.peeked.is_none() {
            if self.src.remaining() == 0 {
                return Ok(None);
            }
            let b = self.src.read_u8()?;
            self.peeked = Some(b);
        }
        Ok(self.peeked)
    }

    fn next_byte(&mut self) -> Result<Option<u8>> {
        let b = self.peek_byte()?;
        if b.is_some() {
            self.peeked = None;
            self.pos += 1;
        }
        Ok(b)
    }

    fn expect_byte(&mut self) -> Result<u8> {
        match self.next_byte()? {
            Some(b) => Ok(b),
            None => self.err("unexpected end of input"),
        }
    }

    fn expect_literal(&mut self, lit: &[u8]) -> Result<()> {
        for &want in lit {
            let got = self.expect_byte()?;
            if got != want {
                return self.err(format!(
                    "expected {:?}, found byte {:?}",
                    String::from_utf8_lossy(lit),
                    got as char
                ));
            }
        }
        Ok(())
    }

    fn skip_ws(&mut self) -> Result<()> {
        while let Some(b) = self.peek_byte()? {
            if b.is_ascii_whitespace() {
                self.next_byte()?;
            } else {
                break;
            }
        }
        Ok(())
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn read_name(&mut self) -> Result<Vec<u8>> {
        let first = self.expect_byte()?;
        if !Self::is_name_start(first) {
            return self.err(format!("invalid name start character {:?}", first as char));
        }
        let mut name = vec![first];
        while let Some(b) = self.peek_byte()? {
            if Self::is_name_char(b) {
                name.push(b);
                self.next_byte()?;
            } else {
                break;
            }
        }
        Ok(name)
    }

    fn read_entity(&mut self, out: &mut Vec<u8>) -> Result<()> {
        // '&' already consumed.
        let mut ent = Vec::new();
        loop {
            match self.next_byte()? {
                Some(b';') => break,
                Some(b) if ent.len() < 12 => ent.push(b),
                Some(_) => return self.err("entity reference too long"),
                None => return self.err("unterminated entity reference"),
            }
        }
        match ent.as_slice() {
            b"lt" => out.push(b'<'),
            b"gt" => out.push(b'>'),
            b"amp" => out.push(b'&'),
            b"apos" => out.push(b'\''),
            b"quot" => out.push(b'"'),
            _ if ent.first() == Some(&b'#') => {
                let digits = &ent[1..];
                let cp = if digits.first() == Some(&b'x') || digits.first() == Some(&b'X') {
                    u32::from_str_radix(&String::from_utf8_lossy(&digits[1..]), 16).ok()
                } else {
                    String::from_utf8_lossy(digits).parse::<u32>().ok()
                };
                let Some(cp) = cp else {
                    return self.err("bad numeric character reference");
                };
                match char::from_u32(cp) {
                    Some(c) => {
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    None => return self.err("numeric character reference out of range"),
                }
            }
            _ => return self.err(format!("unknown entity &{};", String::from_utf8_lossy(&ent))),
        }
        Ok(())
    }

    fn read_attr_value(&mut self) -> Result<Vec<u8>> {
        let quote = self.expect_byte()?;
        if quote != b'"' && quote != b'\'' {
            return self.err("attribute value must be quoted");
        }
        let mut val = Vec::new();
        loop {
            match self.expect_byte()? {
                b if b == quote => break,
                b'&' => self.read_entity(&mut val)?,
                b'<' => return self.err("'<' not allowed in attribute value"),
                b => val.push(b),
            }
        }
        Ok(val)
    }

    /// Skip a `<!-- ... -->` comment; the leading `<!` has been consumed and
    /// the next two bytes are known to be `--`.
    fn skip_comment(&mut self) -> Result<()> {
        self.expect_literal(b"--")?;
        let mut dashes = 0;
        loop {
            match self.expect_byte()? {
                b'-' => dashes += 1,
                b'>' if dashes >= 2 => return Ok(()),
                _ => dashes = 0,
            }
        }
    }

    /// Skip `<!DOCTYPE ...>` including a bracketed internal subset.
    fn skip_doctype(&mut self) -> Result<()> {
        let mut depth = 0i32; // '[' nesting
        loop {
            match self.expect_byte()? {
                b'[' => depth += 1,
                b']' => depth -= 1,
                b'>' if depth <= 0 => return Ok(()),
                _ => {}
            }
        }
    }

    /// Skip `<? ... ?>`.
    fn skip_pi(&mut self) -> Result<()> {
        let mut question = false;
        loop {
            match self.expect_byte()? {
                b'?' => question = true,
                b'>' if question => return Ok(()),
                _ => question = false,
            }
        }
    }

    /// Read `<![CDATA[ ... ]]>` content; the `<!` is consumed, `[` is next.
    fn read_cdata(&mut self, out: &mut Vec<u8>) -> Result<()> {
        self.expect_literal(b"[CDATA[")?;
        let mut brackets = 0;
        loop {
            match self.expect_byte()? {
                b']' => {
                    brackets += 1;
                    if brackets > 2 {
                        out.push(b']');
                        brackets = 2;
                    }
                }
                b'>' if brackets >= 2 => return Ok(()),
                b => {
                    for _ in 0..brackets {
                        out.push(b']');
                    }
                    brackets = 0;
                    out.push(b);
                }
            }
        }
    }

    /// Parse one markup construct starting at `<` (already consumed),
    /// enqueueing any resulting events.
    fn parse_markup(&mut self) -> Result<()> {
        match self.peek_byte()? {
            Some(b'/') => {
                self.next_byte()?;
                let name = self.read_name()?;
                self.skip_ws()?;
                if self.expect_byte()? != b'>' {
                    return self.err("malformed end tag");
                }
                match self.open.pop() {
                    Some(top) if top == name => {}
                    Some(top) => {
                        return self.err(format!(
                            "mismatched end tag </{}>, open element is <{}>",
                            String::from_utf8_lossy(&name),
                            String::from_utf8_lossy(&top)
                        ))
                    }
                    None => {
                        return self.err(format!(
                            "end tag </{}> with no open element",
                            String::from_utf8_lossy(&name)
                        ))
                    }
                }
                self.pending.push_back(Event::End { name });
                Ok(())
            }
            Some(b'!') => {
                self.next_byte()?;
                match self.peek_byte()? {
                    Some(b'-') => self.skip_comment(),
                    Some(b'[') => {
                        let mut content = Vec::new();
                        self.read_cdata(&mut content)?;
                        if self.open.is_empty() {
                            return self.err("CDATA outside the root element");
                        }
                        self.pending.push_back(Event::Text { content });
                        Ok(())
                    }
                    Some(b'D') => {
                        if self.seen_root {
                            return self.err("DOCTYPE after the root element");
                        }
                        self.skip_doctype()
                    }
                    _ => self.err("unrecognized '<!' construct"),
                }
            }
            Some(b'?') => {
                self.next_byte()?;
                self.skip_pi()
            }
            Some(_) => {
                if self.seen_root && self.open.is_empty() {
                    return Err(XmlError::Parse {
                        offset: self.pos - 1,
                        msg: "a second root element (a document has exactly one)".into(),
                    });
                }
                let name = self.read_name()?;
                let mut attrs = Vec::new();
                loop {
                    self.skip_ws()?;
                    match self.peek_byte()? {
                        Some(b'>') => {
                            self.next_byte()?;
                            self.open.push(name.clone());
                            self.seen_root = true;
                            self.pending.push_back(Event::Start { name, attrs });
                            return Ok(());
                        }
                        Some(b'/') => {
                            self.next_byte()?;
                            if self.expect_byte()? != b'>' {
                                return self.err("expected '>' after '/'");
                            }
                            self.seen_root = true;
                            self.pending.push_back(Event::Start { name: name.clone(), attrs });
                            self.pending.push_back(Event::End { name });
                            return Ok(());
                        }
                        Some(b) if Self::is_name_start(b) => {
                            let key = self.read_name()?;
                            self.skip_ws()?;
                            if self.expect_byte()? != b'=' {
                                return self.err("expected '=' after attribute name");
                            }
                            self.skip_ws()?;
                            let val = self.read_attr_value()?;
                            if attrs.iter().any(|(k, _)| *k == key) {
                                return self.err(format!(
                                    "duplicate attribute {:?}",
                                    String::from_utf8_lossy(&key)
                                ));
                            }
                            attrs.push((key, val));
                        }
                        Some(b) => {
                            return self
                                .err(format!("unexpected character {:?} in start tag", b as char))
                        }
                        None => return self.err("unterminated start tag"),
                    }
                }
            }
            None => self.err("dangling '<' at end of input"),
        }
    }

    /// Accumulate character data up to the next `<` (or end of input).
    fn parse_text(&mut self) -> Result<()> {
        let mut content = Vec::new();
        let mut first_non_ws = None;
        loop {
            let b = self.peek_byte()?;
            if first_non_ws.is_none() && b.is_some_and(|b| !b.is_ascii_whitespace()) {
                first_non_ws = Some(self.pos);
            }
            match b {
                Some(b'<') | None => break,
                Some(b'&') => {
                    self.next_byte()?;
                    self.read_entity(&mut content)?;
                }
                Some(b) => {
                    content.push(b);
                    self.next_byte()?;
                }
            }
        }
        let all_ws = content.iter().all(u8::is_ascii_whitespace);
        if self.open.is_empty() {
            // Outside the root only whitespace is allowed.
            if all_ws {
                return Ok(());
            }
            return Err(XmlError::Parse {
                offset: first_non_ws.unwrap_or(self.pos),
                msg: "character data outside the root element".into(),
            });
        }
        if all_ws && !self.keep_whitespace {
            return Ok(());
        }
        self.pending.push_back(Event::Text { content });
        Ok(())
    }

    fn advance(&mut self) -> Result<()> {
        match self.peek_byte()? {
            None => {
                if let Some(open) = self.open.last() {
                    return self.err(format!(
                        "input ended with <{}> still open",
                        String::from_utf8_lossy(open)
                    ));
                }
                if !self.seen_root {
                    return self.err("document has no root element");
                }
                self.done = true;
                Ok(())
            }
            Some(b'<') => {
                self.next_byte()?;
                self.parse_markup()
            }
            Some(_) => self.parse_text(),
        }
    }
}

impl<R: ByteReader> EventSource for OracleParser<R> {
    fn next_event(&mut self) -> Result<Option<Event>> {
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Ok(Some(ev));
            }
            if self.done {
                return Ok(None);
            }
            self.advance()?;
        }
    }
}

/// The owned path's key extraction, which `SortSpec::encode_start_key`
/// writes as bytes.
impl SortSpec {
    /// Extract the *immediately available* key for an element from its start
    /// tag. Returns `None` for deferred sources (resolved later by a patch).
    pub(crate) fn start_key(&self, tag: &[u8], attrs: &[(Vec<u8>, Vec<u8>)]) -> Option<KeyValue> {
        let rule = self.rule_for(tag);
        Self::start_key_for(rule, tag, attrs)
    }

    fn start_key_for(rule: &KeyRule, tag: &[u8], attrs: &[(Vec<u8>, Vec<u8>)]) -> Option<KeyValue> {
        let raw = match &rule.source {
            KeySource::DocOrder => KeyValue::Missing,
            KeySource::TagName => KeyValue::from_bytes(tag, rule.ty),
            KeySource::Attribute(name) => attrs
                .iter()
                .find(|(k, _)| k == name)
                .map_or(KeyValue::Missing, |(_, v)| KeyValue::from_bytes(v, rule.ty)),
            KeySource::Composite(rules) => {
                let mut parts = Vec::with_capacity(rules.len());
                for r in rules {
                    parts.push(Self::start_key_for(r, tag, attrs)?);
                }
                KeyValue::Tuple(parts)
            }
            KeySource::Text | KeySource::ChildPath(_) => return None,
        };
        Some(rule.oriented(raw))
    }
}

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

/// The owned events-to-records converter with key evaluation.
pub(crate) struct OracleRecBuilder {
    spec: SortSpec,
    compaction: bool,
    level: u32,
    seq: u64,
    frames: Vec<EvalFrame>,
}

impl OracleRecBuilder {
    /// A builder for `spec`. With `compaction` on, names are interned into
    /// the caller's [`TagDict`]; off, they are stored inline in each record.
    pub(crate) fn new(spec: SortSpec, compaction: bool) -> Self {
        Self { spec, compaction, level: 0, seq: 0, frames: Vec::new() }
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
    pub(crate) fn push_event(
        &mut self,
        ev: &Event,
        dict: &mut TagDict,
        out: &mut Vec<Rec>,
    ) -> Result<()> {
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

pub(crate) mod tests {
    use std::rc::Rc;

    use nexsort_extmem::{
        ByteSink, Disk, Extent, ExtentReader, ExtentWriter, IoCat, IoSource, MemoryBudget,
        SliceReader, STREAM_BUF,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::key::{KeyRule, TextKey};
    use crate::parser::XmlParser;
    use crate::recstream::RecBuilder;

    /// Block sizes that cut the input into frames: at 64 and 100 bytes
    /// nearly every start tag straddles two.
    const BLOCKS: [usize; 3] = [64, 100, 4096];

    /// The events up to the first error, and that error as displayed (its
    /// message and byte offset).
    type Outcome = (Vec<Event>, Option<String>);

    fn drain(src: &mut dyn EventSource) -> Outcome {
        let mut events = Vec::new();
        loop {
            match src.next_event() {
                Ok(Some(ev)) => events.push(ev),
                Ok(None) => return (events, None),
                Err(e) => return (events, Some(e.to_string())),
            }
        }
    }

    fn on_disk(doc: &[u8], block: usize) -> (Rc<Disk>, Extent) {
        let disk = Disk::new_mem(block);
        let mut w = ExtentWriter::new(disk.clone(), &MemoryBudget::new(1), IoCat::SortScratch)
            .expect("one frame");
        w.write_all(doc).expect("in-memory device");
        let ext = w.finish().expect("in-memory device");
        (disk, ext)
    }

    /// Run `f` on the new parser over `doc` through a `SliceReader`, an
    /// `IoSource` (which learns the length only at the end) and an
    /// `ExtentReader` at every block size, labelling each result.
    fn each_reader<T>(
        doc: &[u8],
        keep_ws: bool,
        f: impl Fn(&mut XmlParser<&mut dyn ByteReader>) -> T,
    ) -> Vec<(String, T)> {
        let mut out = Vec::new();
        let mut slice = SliceReader::new(doc);
        let mut p = XmlParser::new(&mut slice as &mut dyn ByteReader).keep_whitespace(keep_ws);
        out.push(("slice".into(), f(&mut p)));
        let mut stream = IoSource::new(doc);
        let mut p = XmlParser::new(&mut stream as &mut dyn ByteReader).keep_whitespace(keep_ws);
        out.push(("stream".into(), f(&mut p)));
        for block in BLOCKS {
            let (disk, ext) = on_disk(doc, block);
            let budget = MemoryBudget::new(1);
            let mut r = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::InputRead)
                .expect("one frame");
            let mut p = XmlParser::new(&mut r as &mut dyn ByteReader).keep_whitespace(keep_ws);
            let got = f(&mut p);
            let reads = disk.stats().reads(IoCat::InputRead);
            assert!(reads <= ext.num_blocks() as u64, "block {block}: {reads} reads");
            out.push((format!("block {block}"), got));
        }
        out
    }

    /// Input-block reads done by the time each event (and the end) is
    /// returned, parsing `doc` off `block`-byte blocks.
    fn read_schedule(doc: &[u8], block: usize, oracle: bool) -> Vec<u64> {
        let (disk, ext) = on_disk(doc, block);
        let budget = MemoryBudget::new(1);
        let mut r =
            ExtentReader::new(disk.clone(), &budget, &ext, IoCat::InputRead).expect("one frame");
        let mut src: Box<dyn EventSource + '_> = if oracle {
            Box::new(OracleParser::new(&mut r))
        } else {
            Box::new(XmlParser::new(&mut r))
        };
        let mut schedule = Vec::new();
        loop {
            let more = matches!(src.next_event(), Ok(Some(_)));
            schedule.push(disk.stats().reads(IoCat::InputRead));
            if !more {
                return schedule;
            }
        }
    }

    fn assert_same_events(doc: &[u8], keep_ws: bool) -> Outcome {
        let want = drain(&mut OracleParser::new(SliceReader::new(doc)).keep_whitespace(keep_ws));
        if want.1.is_none() {
            // A well-formed document's blocks load when the oracle's would.
            for block in BLOCKS {
                assert_eq!(
                    read_schedule(doc, block, false),
                    read_schedule(doc, block, true),
                    "block {block}, doc {:?}",
                    String::from_utf8_lossy(doc)
                );
            }
        }
        for (label, got) in each_reader(doc, keep_ws, |p| drain(p)) {
            assert_eq!(
                got,
                want,
                "{label}, keep_ws={keep_ws}, doc {:?}",
                String::from_utf8_lossy(doc)
            );
        }
        want
    }

    /// The old owned path's record bytes: oracle events, the owned
    /// builder, `Rec::encode`.
    fn oracle_records(doc: &[u8], spec: &SortSpec, compaction: bool) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut p = OracleParser::new(SliceReader::new(doc));
        let mut b = OracleRecBuilder::new(spec.clone(), compaction);
        let (mut dict, mut recs, mut bytes) = (TagDict::new(), Vec::new(), Vec::new());
        while let Some(ev) = p.next_event().expect("only well-formed documents") {
            recs.clear();
            b.push_event(&ev, &mut dict, &mut recs).expect("well-formed events");
            for r in &recs {
                r.encode(&mut bytes).expect("Vec sink");
            }
        }
        (bytes, names(&dict))
    }

    fn new_records(
        p: &mut XmlParser<&mut dyn ByteReader>,
        spec: &SortSpec,
        compaction: bool,
    ) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut b = RecBuilder::new(spec.clone(), compaction);
        let (mut dict, mut bytes) = (TagDict::new(), Vec::new());
        while let Some(ev) = p.next_ref().expect("only well-formed documents") {
            let before = bytes.len();
            let made = b.push(&ev, &mut dict, &mut bytes).expect("well-formed events");
            assert_eq!(made.is_some(), bytes.len() > before, "a record iff one is reported");
        }
        (bytes, names(&dict))
    }

    fn names(dict: &TagDict) -> Vec<Vec<u8>> {
        (0..dict.len() as u32).map(|i| dict.resolve(i).expect("dense ids").to_vec()).collect()
    }

    /// Every kind of key source, each rule modifier, and text keying.
    fn specs() -> Vec<SortSpec> {
        vec![
            SortSpec::by_attribute("k"),
            SortSpec::uniform(KeyRule::attr_numeric("k")),
            SortSpec::uniform(KeyRule::attr_numeric("id").desc()).with_text_key(TextKey::Content),
            SortSpec::uniform(KeyRule::tag_name().desc()),
            SortSpec::uniform(KeyRule::doc_order()),
            SortSpec::uniform(KeyRule::text()),
            SortSpec::uniform(KeyRule::attr("x").desc()).with_rule("b", KeyRule::text().desc()),
            SortSpec::by_attribute("k")
                .with_rule("a", KeyRule::child_path(&["b", "c"]))
                .with_rule("company", KeyRule::child_path(&["region", "branch"]))
                .with_rule("item", KeyRule::attr_numeric("id")),
            SortSpec::uniform(
                KeyRule::composite(vec![
                    KeyRule::attr("x"),
                    KeyRule::attr_numeric("k").desc(),
                    KeyRule::tag_name(),
                ])
                .desc(),
            ),
            crate::specstr::build_spec(Some("@k:num:desc+@k"), &[]).expect("valid rule"),
            SortSpec::uniform(KeyRule::child_path(&["b", "c"]))
                .with_rule("b", KeyRule::child_path(&["c"]).desc())
                .with_rule("seller", KeyRule::child_path(&["item", "description"])),
        ]
    }

    fn assert_same_records(doc: &[u8]) {
        for spec in specs() {
            for compaction in [true, false] {
                let want = oracle_records(doc, &spec, compaction);
                for (label, got) in each_reader(doc, false, |p| new_records(p, &spec, compaction)) {
                    assert!(
                        got == want,
                        "{label}, compaction={compaction}, spec {spec:?}, doc {:?}",
                        String::from_utf8_lossy(doc)
                    );
                }
            }
        }
    }

    /// Random XML-ish text: mostly well-formed nesting, with entities
    /// (good and bad), CDATA, comments, PIs, a DOCTYPE, multi-byte names,
    /// `>` and quotes inside values, and now and then a malformed token.
    fn soup(seed: u64) -> Vec<u8> {
        const NAMES: [&str; 9] =
            ["a", "b", "c", "b", "c", "item", "r\u{e9}sum\u{e9}", "ns:el-em.2", "_\u{2603}"];
        const TEXT: [&str; 14] = [
            "hello",
            " ",
            "\n  ",
            "a&amp;b",
            "&lt;&gt;",
            "&#65;&#x42;",
            "x > y",
            "caf\u{e9}",
            "&apos;&quot;",
            "&#x+41;",
            "&bogus;",
            "&#xZZ;",
            "&#1114112;",
            "&verylongentity1;",
        ];
        const VALUES: [&str; 9] =
            ["1", "v", "a&amp;b", "x>y", "&#65;", "it&apos;s", "12", "-3", " 7 "];
        const JUNK: [&str; 14] = [
            "<",
            ">",
            "&",
            "<!",
            "<!x>",
            "</>",
            "<a x=1>",
            "<a x='1\">",
            "<a x=\"<\">",
            "<a x=\"1\" x=\"2\">",
            "<1a>",
            "<a/ >",
            "<a x>",
            "]]>",
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut doc = String::new();
        let pick = |rng: &mut StdRng, xs: &[&'static str]| xs[rng.gen_range(0..xs.len())];
        if rng.gen_range(0..4u32) == 0 {
            doc.push_str(
                "<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ELEMENT a ANY> [x]]>\n<!-- top -->",
            );
        }
        let mut open: Vec<&str> = Vec::new();
        let steps = rng.gen_range(1..40u32);
        for step in 0..steps {
            // Open the root first, and mostly stop once it closes.
            let roll = if step == 0 && rng.gen_range(0..10u32) != 0 {
                0
            } else {
                rng.gen_range(0..100u32)
            };
            if open.is_empty() && step > 0 && roll < 90 {
                break;
            }
            match roll {
                0..=29 => {
                    let name = pick(&mut rng, &NAMES);
                    doc.push('<');
                    doc.push_str(name);
                    let mut keys = vec!["k", "x", "id", "a:b", "k2", "k"];
                    for _ in 0..rng.gen_range(0..4u32) {
                        let q = if rng.gen_range(0..2u32) == 0 { '"' } else { '\'' };
                        let ws = if rng.gen_range(0..3u32) == 0 { "\n " } else { "" };
                        let key = keys.swap_remove(rng.gen_range(0..keys.len()));
                        let value = pick(&mut rng, &VALUES);
                        doc.push_str(&format!(" {key}{ws}={ws}{q}{value}{q}"));
                    }
                    if step > 0 && rng.gen_range(0..3u32) == 0 {
                        doc.push_str(" />");
                    } else {
                        doc.push('>');
                        open.push(name);
                    }
                }
                30..=54 => {
                    let name = open.pop().unwrap_or("a");
                    let name = if rng.gen_range(0..40u32) == 0 { "c" } else { name };
                    doc.push_str(&format!("</{name}>"));
                }
                55..=74 => doc.push_str(pick(&mut rng, &TEXT)),
                75..=79 => doc.push_str(pick(
                    &mut rng,
                    &["<![CDATA[x < & >]]>", "<![CDATA[]]>", "<![CDATA[a]]]>", "<![CDATA[ ]]>"],
                )),
                80..=86 => doc.push_str(pick(
                    &mut rng,
                    &[
                        "<!-- c -->",
                        "<!---->",
                        "<!-- a - -- b --->",
                        "<!-- x>y -->",
                        "<!-- a -> b -->",
                    ],
                )),
                87..=92 => doc.push_str(pick(&mut rng, &["<?pi data?>", "<?x?y?>", "<?a>b?>"])),
                _ => doc.push_str(pick(&mut rng, &JUNK)),
            }
        }
        if rng.gen_range(0..10u32) != 0 {
            while let Some(name) = open.pop() {
                doc.push_str(&format!("</{name}>"));
            }
        }
        if rng.gen_range(0..8u32) == 0 {
            doc.push_str(pick(&mut rng, &["<b k=\"2\"/>", "tail", "<!-- after -->", " \n"]));
        }
        doc.into_bytes()
    }

    /// `nexsort-datagen` documents of every generator, as XML text.
    pub(crate) fn datagen_docs(seed: u64) -> Vec<Vec<u8>> {
        use nexsort_datagen::{
            stage_as_xml, AuctionConfig, AuctionGen, ExactGen, GenConfig, IbmGen,
        };
        let cfg =
            GenConfig { seed, avg_elem_bytes: 60 + (seed % 4) as usize * 40, ..Default::default() };
        let auction = AuctionConfig { seed, sellers: 3, ..Default::default() };
        let disk = Disk::new_mem(4096);
        let staged = [
            stage_as_xml(&disk, &mut ExactGen::new(&[3, 4, 2], cfg.clone())),
            stage_as_xml(&disk, &mut ExactGen::new(&[2, 2, 2, 2, 2], cfg.clone())),
            stage_as_xml(&disk, &mut IbmGen::new(4, 5, Some(60), cfg)),
            stage_as_xml(&disk, &mut AuctionGen::new(auction)),
        ];
        staged
            .into_iter()
            .map(|doc| {
                let ext = doc.expect("generators emit well-formed events").extent;
                let budget = MemoryBudget::new(1);
                let mut r = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::SortScratch)
                    .expect("one frame");
                let mut bytes = vec![0u8; ext.len() as usize];
                r.read_exact(&mut bytes).expect("staged");
                bytes
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn soup_parses_as_the_oracle_does(seed in any::<u64>()) {
            let doc = soup(seed);
            let keep_ws = seed % 5 == 0;
            let (_, err) = assert_same_events(&doc, keep_ws);
            if err.is_none() && !keep_ws {
                assert_same_records(&doc);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn datagen_documents_parse_and_encode_as_the_oracle_does(seed in any::<u64>()) {
            for doc in datagen_docs(seed) {
                let (events, err) = assert_same_events(&doc, false);
                prop_assert!(err.is_none() && !events.is_empty());
                assert_same_records(&doc);
            }
        }
    }

    #[test]
    fn every_prefix_of_a_document_fails_as_the_oracle_does() {
        let doc = b"<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]><r k=\"1\" \
                    x='a&amp;b'><!-- c --><a k=\"2\">t&#65;<![CDATA[ c ]]></a><?p q?><b/></r>";
        for cut in 0..=doc.len() {
            assert_same_events(&doc[..cut], false);
        }
    }

    #[test]
    fn documents_ending_at_a_stream_window_edge_parse_as_the_oracle_does() {
        // An `IoSource` learns that a full window was the last one only
        // from the zero-length read after it.
        for tail in ["</r>", "</r>\n", "</r>tail", "</r"] {
            for len in [STREAM_BUF - 1, STREAM_BUF, STREAM_BUF + 1] {
                let mut doc = b"<r>".to_vec();
                doc.resize(len - tail.len(), b'a');
                doc.extend_from_slice(tail.as_bytes());
                assert_same_events(&doc, false);
            }
        }
    }

    #[test]
    fn a_second_root_fails_at_its_open_angle() {
        let doc = b"<a k=\"1\"/><b k=\"2\"/>";
        let (events, err) = assert_same_events(doc, false);
        assert_eq!(events.len(), 2);
        assert_eq!(
            err.as_deref(),
            Some("XML parse error at byte 10: a second root element (a document has exactly one)")
        );
    }
}
