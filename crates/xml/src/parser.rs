//! A from-scratch streaming (SAX-style) XML parser.
//!
//! NEXSORT's sorting phase is a single event-driven scan of the input
//! (Figure 4 line 2, "can be implemented using a simple event-based XML
//! parser"). This parser scans any [`ByteReader`] -- in particular a
//! device-resident extent, so parsing the input charges the `input-read`
//! I/O category exactly once per block.
//!
//! It scans the reader's resident window ([`ByteReader::resident`], the
//! loaded block frame) with slice searches and yields borrowed
//! [`EventRef`]s: names, attribute values and text are slices of that
//! window. Only three things are copied, each into a buffer reused across
//! events: entity-decoded text and attribute values, a construct that
//! straddles two frames (carried over and parsed from the carry), and the
//! names of the open elements (one byte arena, for end-tag matching). A
//! straddling construct pulls the next frame exactly when a byte-at-a-time
//! scan would have read into it, so block transfers happen in the same
//! order as the input is consumed.
//!
//! Supported: elements, attributes (single- or double-quoted), self-closing
//! tags, character data with the five predefined entities plus numeric
//! character references, CDATA sections, comments, processing instructions,
//! the XML declaration, and a (skipped) DOCTYPE with internal subset.
//! Not supported (not needed for data-centric documents): external entities
//! and namespaces-aware processing (prefixes are kept verbatim in names).
//! A malformed document fails with [`XmlError::Parse`] at the byte offset
//! where it stops being well-formed, including a second root element.

use nexsort_extmem::ByteReader;

use crate::error::{Result, XmlError};
use crate::event::{AttrSpan, Attrs, Event, EventRef, EventSource};

/// Why a scan of the bytes at hand stopped short of a whole construct.
enum Halt {
    /// The construct runs past the bytes at hand.
    More,
    /// Malformed input, detected `at` bytes into the scanned slice.
    Fail { at: usize, msg: String },
}

type Scan<T> = std::result::Result<T, Halt>;

/// `NAME_CHAR[b]`: 1 for a name-start byte, 2 for a byte that may only
/// continue a name, 0 otherwise.
const NAME_CHAR: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        t[b] = if c.is_ascii_alphabetic() || c == b'_' || c == b':' || c >= 0x80 {
            1
        } else if c.is_ascii_digit() || c == b'-' || c == b'.' {
            2
        } else {
            0
        };
        b += 1;
    }
    t
};

fn is_name_start(b: u8) -> bool {
    NAME_CHAR[b as usize] == 1
}

/// A cursor over one contiguous slice of input. `eof` says the input ends
/// with the slice; otherwise running off its end asks for more.
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
    eof: bool,
}

impl Cur<'_> {
    fn peek(&self) -> Scan<Option<u8>> {
        match self.b.get(self.i) {
            Some(&c) => Ok(Some(c)),
            None if self.eof => Ok(None),
            None => Err(Halt::More),
        }
    }

    fn expect(&mut self) -> Scan<u8> {
        match self.peek()? {
            Some(c) => {
                self.i += 1;
                Ok(c)
            }
            None => self.fail("unexpected end of input"),
        }
    }

    fn fail<T>(&self, msg: impl Into<String>) -> Scan<T> {
        Err(Halt::Fail { at: self.i, msg: msg.into() })
    }

    fn expect_literal(&mut self, lit: &[u8]) -> Scan<()> {
        for &want in lit {
            let got = self.expect()?;
            if got != want {
                return self.fail(format!(
                    "expected {:?}, found byte {:?}",
                    String::from_utf8_lossy(lit),
                    got as char
                ));
            }
        }
        Ok(())
    }

    fn skip_ws(&mut self) -> Scan<()> {
        while let Some(c) = self.peek()? {
            if !c.is_ascii_whitespace() {
                break;
            }
            self.i += 1;
        }
        Ok(())
    }

    /// Move to the first byte from here on that `stop` accepts, returning
    /// it; at the end of input, move there and return `None`.
    fn find(&mut self, stop: impl Fn(u8) -> bool) -> Scan<Option<u8>> {
        match self.b[self.i..].iter().position(|&c| stop(c)) {
            Some(n) => {
                self.i += n;
                Ok(Some(self.b[self.i]))
            }
            None if self.eof => {
                self.i = self.b.len();
                Ok(None)
            }
            None => Err(Halt::More),
        }
    }

    /// Read a name, returning its span.
    fn name(&mut self) -> Scan<(usize, usize)> {
        let start = self.i;
        let first = self.expect()?;
        if !is_name_start(first) {
            return self.fail(format!("invalid name start character {:?}", first as char));
        }
        self.find(|c| NAME_CHAR[c as usize] == 0)?;
        Ok((start, self.i))
    }

    /// Skip to just past the first `>` whose two preceding bytes, both at
    /// or after `from`, satisfy `closes` (`-->`, `?>`, `]]>`). Returns the
    /// offset of that `>`.
    fn skip_to_close(&mut self, from: usize, closes: impl Fn(&[u8]) -> bool) -> Scan<usize> {
        loop {
            if self.find(|c| c == b'>')?.is_none() {
                return self.fail("unexpected end of input");
            }
            let gt = self.i;
            self.i += 1;
            if closes(&self.b[from.max(gt.saturating_sub(2))..gt]) {
                return Ok(gt);
            }
        }
    }

    /// Decode the entity reference after a consumed `&` onto `out`.
    fn entity(&mut self, out: &mut Vec<u8>) -> Scan<()> {
        let start = self.i;
        loop {
            match self.peek()? {
                Some(b';') => break,
                Some(_) if self.i - start < 12 => self.i += 1,
                Some(_) => {
                    self.i += 1;
                    return self.fail("entity reference too long");
                }
                None => return self.fail("unterminated entity reference"),
            }
        }
        let ent = &self.b[start..self.i];
        self.i += 1;
        match ent {
            b"lt" => out.push(b'<'),
            b"gt" => out.push(b'>'),
            b"amp" => out.push(b'&'),
            b"apos" => out.push(b'\''),
            b"quot" => out.push(b'"'),
            [b'#', digits @ ..] => {
                let digits = std::str::from_utf8(digits).ok();
                let cp = match digits {
                    Some(d) if d.starts_with(['x', 'X']) => u32::from_str_radix(&d[1..], 16).ok(),
                    Some(d) => d.parse::<u32>().ok(),
                    None => None,
                };
                let Some(cp) = cp else {
                    return self.fail("bad numeric character reference");
                };
                let Some(c) = char::from_u32(cp) else {
                    return self.fail("numeric character reference out of range");
                };
                out.extend_from_slice(c.encode_utf8(&mut [0u8; 4]).as_bytes());
            }
            _ => return self.fail(format!("unknown entity &{};", String::from_utf8_lossy(ent))),
        }
        Ok(())
    }
}

/// Where a text event's content sits: in the input, or (when it held an
/// entity reference) in the decode scratch.
#[derive(Clone, Copy)]
struct TextSpan {
    span: (usize, usize),
    decoded: bool,
}

/// What one construct produced.
enum Got {
    /// Nothing to report (comment, PI, DOCTYPE, dropped whitespace).
    Skip,
    /// End of a complete document.
    Eof,
    /// A start tag; its name is the open-name stack's top.
    Start,
    /// `<name .../>`: a start tag whose end tag comes next.
    Empty,
    /// An end tag matching the open-name stack's top.
    End,
    /// Character data or a CDATA section.
    Text(TextSpan),
}

/// The names of the open elements, back to back in one buffer.
#[derive(Default)]
struct OpenNames {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl OpenNames {
    fn top(&self) -> Option<&[u8]> {
        let end = *self.ends.last()?;
        let start = self.ends.len().checked_sub(2).map_or(0, |i| self.ends[i]);
        Some(&self.bytes[start..end])
    }

    fn push(&mut self, name: &[u8]) {
        self.bytes.extend_from_slice(name);
        self.ends.push(self.bytes.len());
    }

    fn pop(&mut self) {
        self.ends.pop();
        self.bytes.truncate(self.ends.last().copied().unwrap_or(0));
    }

    fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// The parse state a construct reads and updates; kept apart from the
/// input buffers so a scan can borrow both.
#[derive(Default)]
struct State {
    open: OpenNames,
    attrs: Vec<AttrSpan>,
    decoded: Vec<u8>,
    keep_whitespace: bool,
    seen_root: bool,
}

impl State {
    /// Parse one construct from the start of `c`. Only a whole construct
    /// changes the state, so one that halts with [`Halt::More`] is parsed
    /// again from its start once more input is at hand.
    fn construct(&mut self, c: &mut Cur<'_>) -> Scan<Got> {
        self.attrs.clear();
        self.decoded.clear();
        match c.peek()? {
            None => {
                if let Some(open) = self.open.top() {
                    return c.fail(format!(
                        "input ended with <{}> still open",
                        String::from_utf8_lossy(open)
                    ));
                }
                if !self.seen_root {
                    return c.fail("document has no root element");
                }
                Ok(Got::Eof)
            }
            Some(b'<') => {
                c.i += 1;
                self.markup(c)
            }
            Some(_) => self.text(c),
        }
    }

    /// Character data up to the next `<` (or end of input).
    fn text(&mut self, c: &mut Cur<'_>) -> Scan<Got> {
        let start = c.i;
        let mut decoded = false;
        loop {
            let seg = c.i;
            let stop = c.find(|b| b == b'<' || b == b'&')?;
            if decoded {
                self.decoded.extend_from_slice(&c.b[seg..c.i]);
            }
            if stop != Some(b'&') {
                break;
            }
            if !decoded {
                decoded = true;
                self.decoded.extend_from_slice(&c.b[start..c.i]);
            }
            c.i += 1;
            c.entity(&mut self.decoded)?;
        }
        let text = if decoded {
            TextSpan { span: (0, self.decoded.len()), decoded }
        } else {
            TextSpan { span: (start, c.i), decoded }
        };
        let content = if decoded { &self.decoded[..] } else { &c.b[start..c.i] };
        let all_ws = content.iter().all(u8::is_ascii_whitespace);
        if self.open.is_empty() {
            // Outside the root only whitespace is allowed.
            if all_ws {
                return Ok(Got::Skip);
            }
            return c.fail("character data outside the root element");
        }
        if all_ws && !self.keep_whitespace {
            return Ok(Got::Skip);
        }
        Ok(Got::Text(text))
    }

    /// One markup construct; the `<` is consumed.
    fn markup(&mut self, c: &mut Cur<'_>) -> Scan<Got> {
        match c.peek()? {
            Some(b'/') => {
                c.i += 1;
                let (ns, ne) = c.name()?;
                c.skip_ws()?;
                if c.expect()? != b'>' {
                    return c.fail("malformed end tag");
                }
                let name = &c.b[ns..ne];
                match self.open.top() {
                    Some(top) if top == name => Ok(Got::End),
                    Some(top) => c.fail(format!(
                        "mismatched end tag </{}>, open element is <{}>",
                        String::from_utf8_lossy(name),
                        String::from_utf8_lossy(top)
                    )),
                    None => c.fail(format!(
                        "end tag </{}> with no open element",
                        String::from_utf8_lossy(name)
                    )),
                }
            }
            Some(b'!') => {
                c.i += 1;
                match c.peek()? {
                    Some(b'-') => {
                        c.expect_literal(b"--")?;
                        let from = c.i;
                        c.skip_to_close(from, |w| w == b"--")?;
                        Ok(Got::Skip)
                    }
                    Some(b'[') => {
                        c.expect_literal(b"[CDATA[")?;
                        let from = c.i;
                        let gt = c.skip_to_close(from, |w| w == b"]]")?;
                        if self.open.is_empty() {
                            return c.fail("CDATA outside the root element");
                        }
                        Ok(Got::Text(TextSpan { span: (from, gt - 2), decoded: false }))
                    }
                    Some(b'D') => {
                        if self.seen_root {
                            return c.fail("DOCTYPE after the root element");
                        }
                        let mut depth = 0i32; // '[' nesting
                        loop {
                            match c.expect()? {
                                b'[' => depth += 1,
                                b']' => depth -= 1,
                                b'>' if depth <= 0 => return Ok(Got::Skip),
                                _ => {}
                            }
                        }
                    }
                    _ => c.fail("unrecognized '<!' construct"),
                }
            }
            Some(b'?') => {
                c.i += 1;
                let from = c.i;
                c.skip_to_close(from, |w| w.last() == Some(&b'?'))?;
                Ok(Got::Skip)
            }
            Some(_) => {
                if self.seen_root && self.open.is_empty() {
                    c.i -= 1;
                    return c.fail("a second root element (a document has exactly one)");
                }
                self.start_tag(c)
            }
            None => c.fail("dangling '<' at end of input"),
        }
    }

    /// A start tag after its `<`.
    fn start_tag(&mut self, c: &mut Cur<'_>) -> Scan<Got> {
        let (ns, ne) = c.name()?;
        loop {
            c.skip_ws()?;
            match c.peek()? {
                Some(b'>') => {
                    c.i += 1;
                    self.open.push(&c.b[ns..ne]);
                    self.seen_root = true;
                    return Ok(Got::Start);
                }
                Some(b'/') => {
                    c.i += 1;
                    if c.expect()? != b'>' {
                        return c.fail("expected '>' after '/'");
                    }
                    self.open.push(&c.b[ns..ne]);
                    self.seen_root = true;
                    return Ok(Got::Empty);
                }
                Some(b) if is_name_start(b) => {
                    let name = c.name()?;
                    c.skip_ws()?;
                    if c.expect()? != b'=' {
                        return c.fail("expected '=' after attribute name");
                    }
                    c.skip_ws()?;
                    let (value, decoded) = self.attr_value(c)?;
                    let key = &c.b[name.0..name.1];
                    if self.attrs.iter().any(|a| &c.b[a.name.0..a.name.1] == key) {
                        return c.fail(format!(
                            "duplicate attribute {:?}",
                            String::from_utf8_lossy(key)
                        ));
                    }
                    self.attrs.push(AttrSpan { name, value, decoded });
                }
                Some(b) => {
                    return c.fail(format!("unexpected character {:?} in start tag", b as char))
                }
                None => return c.fail("unterminated start tag"),
            }
        }
    }

    /// A quoted attribute value: its span, in the input or (after an
    /// entity reference) in the decode scratch.
    fn attr_value(&mut self, c: &mut Cur<'_>) -> Scan<((usize, usize), bool)> {
        let quote = c.expect()?;
        if quote != b'"' && quote != b'\'' {
            return c.fail("attribute value must be quoted");
        }
        let start = c.i;
        let mut from = None; // where the value starts in `decoded`
        loop {
            let seg = c.i;
            let stop = c.find(|b| b == quote || b == b'&' || b == b'<')?;
            if from.is_some() {
                self.decoded.extend_from_slice(&c.b[seg..c.i]);
            }
            match stop {
                Some(b'&') => {
                    if from.is_none() {
                        from = Some(self.decoded.len());
                        self.decoded.extend_from_slice(&c.b[start..c.i]);
                    }
                    c.i += 1;
                    c.entity(&mut self.decoded)?;
                }
                Some(b'<') => {
                    c.i += 1;
                    return c.fail("'<' not allowed in attribute value");
                }
                Some(_) => {
                    c.i += 1;
                    return Ok(match from {
                        Some(from) => ((from, self.decoded.len()), true),
                        None => ((start, c.i - 1), false),
                    });
                }
                None => return c.fail("unexpected end of input"),
            }
        }
    }
}

/// Streaming pull parser over a byte source.
pub struct XmlParser<R: ByteReader> {
    src: R,
    /// Input taken off the reader ahead of the window: a construct that
    /// straddled frames, and whatever followed it in the frames pulled.
    carry: Vec<u8>,
    carry_pos: usize,
    /// The last event's bytes: window bytes to consume on the next call,
    /// or the carry offset it was parsed from.
    borrowed: usize,
    event_in_carry: bool,
    event_base: usize,
    /// Input offset of the next unparsed byte.
    pos: u64,
    st: State,
    /// The last event was a self-closing start tag: its end comes next.
    pending_end: bool,
    /// The last event closed the open-name stack's top.
    pending_pop: bool,
    done: bool,
}

impl<R: ByteReader> XmlParser<R> {
    /// Parse from `src`, dropping whitespace-only text (the default for
    /// data-centric documents; see [`XmlParser::keep_whitespace`]).
    pub fn new(src: R) -> Self {
        Self {
            src,
            carry: Vec::new(),
            carry_pos: 0,
            borrowed: 0,
            event_in_carry: false,
            event_base: 0,
            pos: 0,
            st: State::default(),
            pending_end: false,
            pending_pop: false,
            done: false,
        }
    }

    /// Retain whitespace-only text nodes instead of dropping them.
    pub fn keep_whitespace(mut self, keep: bool) -> Self {
        self.st.keep_whitespace = keep;
        self
    }

    /// The next event, borrowed from the parser until its next call, or
    /// `None` at the end of a well-formed document.
    pub fn next_ref(&mut self) -> Result<Option<EventRef<'_>>> {
        self.src.consume(std::mem::take(&mut self.borrowed));
        if std::mem::take(&mut self.pending_pop) {
            self.st.open.pop();
        }
        if std::mem::take(&mut self.pending_end) {
            self.pending_pop = true;
            return Ok(Some(EventRef::End { name: self.open_top() }));
        }
        loop {
            if self.done {
                return Ok(None);
            }
            match self.step()? {
                Got::Skip => {}
                Got::Eof => self.done = true,
                Got::Start => return Ok(Some(self.start_event())),
                Got::Empty => {
                    self.pending_end = true;
                    return Ok(Some(self.start_event()));
                }
                Got::End => {
                    self.pending_pop = true;
                    return Ok(Some(EventRef::End { name: self.open_top() }));
                }
                Got::Text(t) => {
                    let bytes = if t.decoded { &self.st.decoded[..] } else { self.event_input() };
                    return Ok(Some(EventRef::Text { content: &bytes[t.span.0..t.span.1] }));
                }
            }
        }
    }

    fn open_top(&self) -> &[u8] {
        self.st.open.top().expect("an element is open at its start and end events")
    }

    fn start_event(&self) -> EventRef<'_> {
        let attrs = Attrs::spans(&self.st.attrs, self.event_input(), &self.st.decoded);
        EventRef::Start { name: self.open_top(), attrs }
    }

    /// The input slice the last construct was parsed from.
    fn event_input(&self) -> &[u8] {
        if self.event_in_carry {
            &self.carry[self.event_base..]
        } else {
            self.src.resident()
        }
    }

    /// Parse the next construct from the carry or, once it is used up,
    /// from the reader's window.
    fn step(&mut self) -> Result<Got> {
        loop {
            if self.carry_pos == self.carry.len() {
                self.carry.clear();
                self.carry_pos = 0;
                if self.src.resident().is_empty() && self.src.remaining() > 0 {
                    self.src.fill()?;
                }
            }
            let in_carry = !self.carry.is_empty();
            let (b, eof) = if in_carry {
                (&self.carry[self.carry_pos..], self.src.remaining() == 0)
            } else {
                let w = self.src.resident();
                (w, self.src.remaining() == w.len() as u64)
            };
            let mut c = Cur { b, i: 0, eof };
            match self.st.construct(&mut c) {
                Ok(got) => {
                    let n = c.i;
                    self.pos += n as u64;
                    self.event_in_carry = in_carry;
                    if in_carry {
                        self.event_base = self.carry_pos;
                        self.carry_pos += n;
                    } else if matches!(got, Got::Skip | Got::Eof) {
                        self.src.consume(n);
                    } else {
                        self.borrowed = n;
                    }
                    return Ok(got);
                }
                Err(Halt::More) => {
                    // Text ends at a `<`, markup at a `>`: no scan can
                    // finish before one arrives.
                    let stop = if b.first() == Some(&b'<') { b'>' } else { b'<' };
                    self.pull(stop)?;
                }
                Err(Halt::Fail { at, msg }) => {
                    return Err(XmlError::Parse { offset: self.pos + at as u64, msg })
                }
            }
        }
    }

    /// Move the unparsed input into the carry and append frames until one
    /// holds `stop` or the input ends.
    fn pull(&mut self, stop: u8) -> Result<()> {
        if self.carry.is_empty() {
            let w = self.src.resident();
            let n = w.len();
            self.carry.extend_from_slice(w);
            self.src.consume(n);
        } else {
            self.carry.drain(..self.carry_pos);
        }
        self.carry_pos = 0;
        while self.src.remaining() > 0 {
            self.src.fill()?;
            let w = self.src.resident();
            if w.is_empty() {
                // A reader without a window: a byte at a time.
                let b = self.src.read_u8()?;
                self.carry.push(b);
                if b == stop {
                    break;
                }
                continue;
            }
            let (n, found) = (w.len(), w.contains(&stop));
            self.carry.extend_from_slice(w);
            self.src.consume(n);
            if found {
                break;
            }
        }
        Ok(())
    }
}

impl<R: ByteReader> EventSource for XmlParser<R> {
    fn next_event(&mut self) -> Result<Option<Event>> {
        Ok(self.next_ref()?.map(EventRef::into_owned))
    }
}

/// Parse a complete byte slice into an event vector (convenience).
pub fn parse_events(input: &[u8]) -> Result<Vec<Event>> {
    let mut p = XmlParser::new(nexsort_extmem::SliceReader::new(input));
    let mut out = Vec::new();
    while let Some(ev) = p.next_ref()? {
        out.push(ev.into_owned());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(input: &str) -> Vec<Event> {
        parse_events(input.as_bytes()).unwrap()
    }

    #[test]
    fn simple_document() {
        let events = ev("<a><b x=\"1\">hi</b></a>");
        assert_eq!(
            events,
            vec![
                Event::start("a", &[]),
                Event::start("b", &[("x", "1")]),
                Event::text("hi"),
                Event::end("b"),
                Event::end("a"),
            ]
        );
    }

    #[test]
    fn self_closing_tags_expand_to_start_end() {
        assert_eq!(
            ev("<a><b/><c x='2'/></a>"),
            vec![
                Event::start("a", &[]),
                Event::start("b", &[]),
                Event::end("b"),
                Event::start("c", &[("x", "2")]),
                Event::end("c"),
                Event::end("a"),
            ]
        );
    }

    #[test]
    fn prolog_doctype_comments_and_pis_are_skipped() {
        let doc = "<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n\
                   <!-- top --><a><!-- inner --><?pi data?><b/></a><!-- after -->";
        let events = ev(doc);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0], Event::start("a", &[]));
    }

    #[test]
    fn entities_decode_in_text_and_attributes() {
        let events = ev("<a t=\"x &lt; y &#65;\">a&amp;b &gt; c &#x41;</a>");
        assert_eq!(events[0].attr(b"t"), Some(&b"x < y A"[..]));
        assert_eq!(events[1], Event::text("a&b > c A"));
    }

    #[test]
    fn cdata_passes_raw_content() {
        let events = ev("<a><![CDATA[x < & > ]] y]]></a>");
        assert_eq!(events[1], Event::text("x < & > ]] y"));
    }

    #[test]
    fn whitespace_only_text_dropped_unless_requested() {
        let events = ev("<a>\n  <b/>\n</a>");
        assert_eq!(events.len(), 4);
        let mut p = XmlParser::new(nexsort_extmem::SliceReader::new(b"<a>\n  <b/>\n</a>" as &[u8]))
            .keep_whitespace(true);
        let mut n = 0;
        while p.next_event().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 6);
    }

    #[test]
    fn single_quoted_attributes_and_whitespace_in_tags() {
        let events = ev("<a  k1 = 'v1'\n k2=\"v2\" ></a>");
        assert_eq!(events[0], Event::start("a", &[("k1", "v1"), ("k2", "v2")]));
    }

    #[test]
    fn mismatched_tags_are_rejected_with_position() {
        match parse_events(b"<a><b></a></b>") {
            Err(XmlError::Parse { offset, msg }) => {
                assert!(offset > 0);
                assert!(msg.contains("mismatched"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_documents_are_rejected() {
        assert!(parse_events(b"<a><b>").is_err());
        assert!(parse_events(b"<a").is_err());
        assert!(parse_events(b"<a x=>").is_err());
        assert!(parse_events(b"").is_err());
    }

    #[test]
    fn stray_content_outside_root_is_rejected() {
        assert!(parse_events(b"hello<a/>").is_err());
        assert!(parse_events(b"</a>").is_err());
    }

    #[test]
    fn duplicate_attributes_are_rejected() {
        assert!(parse_events(b"<a x=\"1\" x=\"2\"/>").is_err());
    }

    #[test]
    fn unknown_entities_are_rejected() {
        assert!(parse_events(b"<a>&unknown;</a>").is_err());
        assert!(parse_events(b"<a>&#xGG;</a>").is_err());
        assert!(parse_events(b"<a>&#1114112;</a>").is_err()); // beyond char::MAX
    }

    #[test]
    fn names_allow_xml_identifier_characters() {
        let events = ev("<ns:el-em.2 _a=\"1\"/>");
        assert_eq!(events[0], Event::start("ns:el-em.2", &[("_a", "1")]));
    }

    #[test]
    fn deeply_nested_document_parses_iteratively() {
        let depth = 5000;
        let mut doc = String::new();
        for i in 0..depth {
            doc.push_str(&format!("<n{i}>"));
        }
        for i in (0..depth).rev() {
            doc.push_str(&format!("</n{i}>"));
        }
        let events = ev(&doc);
        assert_eq!(events.len(), 2 * depth);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn doctype_with_nested_internal_subset() {
        let doc = b"<!DOCTYPE a [ <!ENTITY x \"y\"> [nested] ]><a/>";
        let events = parse_events(doc).unwrap();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn processing_instructions_everywhere() {
        let doc = b"<?xml version=\"1.0\"?><?style q?><a><?inner x?></a><?post y?>";
        let events = parse_events(doc).unwrap();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn comments_with_tricky_dashes() {
        let doc = b"<a><!-- - -- almost-end --- --><b/></a>";
        let events = parse_events(doc).unwrap();
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn attribute_values_spanning_lines_and_quotes() {
        let doc = b"<a k=\"line1\nline2\" q='has \"double\" quotes'/>";
        let events = parse_events(doc).unwrap();
        assert_eq!(events[0].attr(b"k"), Some(&b"line1\nline2"[..]));
        assert_eq!(events[0].attr(b"q"), Some(&b"has \"double\" quotes"[..]));
    }

    #[test]
    fn utf8_multibyte_content_and_names_pass_through() {
        let doc = "<r\u{e9}sum\u{e9} lang=\"fran\u{e7}ais\">caf\u{e9} \u{2603}</r\u{e9}sum\u{e9}>";
        let events = parse_events(doc.as_bytes()).unwrap();
        assert_eq!(events.len(), 3);
        match &events[1] {
            Event::Text { content } => {
                assert_eq!(String::from_utf8_lossy(content), "caf\u{e9} \u{2603}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comment_inside_text_splits_text_nodes() {
        let events = parse_events(b"<a>before<!-- x -->after</a>").unwrap();
        assert_eq!(
            events,
            vec![
                Event::start("a", &[]),
                Event::text("before"),
                Event::text("after"),
                Event::end("a"),
            ]
        );
    }

    #[test]
    fn unterminated_constructs_error_cleanly() {
        for doc in [
            &b"<a><!-- never closed"[..],
            b"<a><![CDATA[ never closed",
            b"<!DOCTYPE a [ <a/>",
            b"<a k=\"unclosed value/>",
            b"<a>&unterminated",
        ] {
            assert!(parse_events(doc).is_err(), "{:?}", String::from_utf8_lossy(doc));
        }
    }
}
