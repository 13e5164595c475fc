//! XML serialization: events back to text, the inverse of the parser.
//!
//! [`XmlWriter`] is the one formatter. It writes borrowed events
//! ([`EventRef`]); the output phase calls its tag and text methods straight
//! from record bytes, and [`XmlWriter::write`] of an owned [`Event`] is a
//! view of the same path.

use nexsort_extmem::ByteSink;

use crate::error::Result;
use crate::event::{Event, EventRef};

/// Output an [`XmlWriter`] gathers before handing it to its sink, so the
/// sink sees a few large writes instead of one per tag and attribute.
const CHUNK: usize = 8 * 1024;

/// Append `s` escaped: `&`, `<` and `>` in character data; `&`, `<` and
/// `"` in an attribute value. Runs without special bytes are copied whole.
fn escape_into(out: &mut Vec<u8>, mut s: &[u8], attr: bool) {
    let special = |b: u8| match b {
        b'&' | b'<' => true,
        b'"' => attr,
        b'>' => !attr,
        _ => false,
    };
    while let Some(i) = s.iter().position(|&b| special(b)) {
        out.extend_from_slice(&s[..i]);
        out.extend_from_slice(match s[i] {
            b'&' => b"&amp;",
            b'<' => b"&lt;",
            b'>' => b"&gt;",
            _ => b"&quot;",
        });
        s = &s[i + 1..];
    }
    out.extend_from_slice(s);
}

/// Serializes events to XML text, optionally pretty-printed. Output is
/// gathered in chunks: call [`Self::into_inner`] at the end, or the last
/// chunk never reaches the sink.
pub struct XmlWriter<S: ByteSink> {
    sink: S,
    pretty: bool,
    depth: usize,
    /// The last thing written was a start tag (pretty-printing state).
    after_start: bool,
    /// The element being closed contained only text (inline close).
    had_text: bool,
    /// Output not yet handed to the sink (up to about [`CHUNK`] bytes).
    buf: Vec<u8>,
}

impl<S: ByteSink> XmlWriter<S> {
    /// Compact output (no added whitespace) -- byte-faithful round-trips.
    pub fn new(sink: S) -> Self {
        Self { sink, pretty: false, depth: 0, after_start: false, had_text: false, buf: Vec::new() }
    }

    /// Indented output for human inspection.
    ///
    /// Caveat (inherent to streaming pretty-printers): indentation inserts
    /// whitespace between tags, which is only round-trip-safe for documents
    /// without *mixed content* -- a text node with element siblings will
    /// absorb the inserted whitespace on re-parse. Use compact output when
    /// byte-faithful round-trips of mixed content matter.
    pub fn pretty(mut self, pretty: bool) -> Self {
        self.pretty = pretty;
        self
    }

    fn newline_indent(&mut self) {
        self.buf.push(b'\n');
        for _ in 0..self.depth {
            self.buf.extend_from_slice(b"  ");
        }
    }

    /// Hand the gathered output to the sink once there is a chunk of it.
    fn spill(&mut self) -> Result<()> {
        if self.buf.len() >= CHUNK {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Write one event.
    pub fn write(&mut self, ev: &Event) -> Result<()> {
        self.write_ref(&ev.view())
    }

    /// Write one borrowed event.
    pub fn write_ref(&mut self, ev: &EventRef<'_>) -> Result<()> {
        match *ev {
            EventRef::Start { name, attrs } => self.start_tag(name, attrs.iter().map(Ok)),
            EventRef::End { name } => self.end_tag(name),
            EventRef::Text { content } => self.text(content),
        }
    }

    /// Write a start tag with its `(name, value)` attributes; values are
    /// escaped here. An attribute that fails to resolve ends the tag early
    /// with its error.
    pub fn start_tag<'a>(
        &mut self,
        name: &[u8],
        attrs: impl IntoIterator<Item = Result<(&'a [u8], &'a [u8])>>,
    ) -> Result<()> {
        if self.pretty && self.depth > 0 {
            self.newline_indent();
        }
        self.buf.push(b'<');
        self.buf.extend_from_slice(name);
        for attr in attrs {
            let (k, v) = attr?;
            self.buf.push(b' ');
            self.buf.extend_from_slice(k);
            self.buf.extend_from_slice(b"=\"");
            escape_into(&mut self.buf, v, true);
            self.buf.push(b'"');
        }
        self.buf.push(b'>');
        self.depth += 1;
        self.after_start = true;
        self.had_text = false;
        self.spill()
    }

    /// Write an end tag.
    pub fn end_tag(&mut self, name: &[u8]) -> Result<()> {
        self.depth = self.depth.saturating_sub(1);
        if self.pretty && !self.after_start && !self.had_text {
            self.newline_indent();
        }
        self.buf.extend_from_slice(b"</");
        self.buf.extend_from_slice(name);
        self.buf.push(b'>');
        self.after_start = false;
        self.had_text = false;
        self.spill()
    }

    /// Write character data, escaped.
    pub fn text(&mut self, content: &[u8]) -> Result<()> {
        escape_into(&mut self.buf, content, false);
        self.had_text = true;
        self.spill()
    }

    /// Hand the rest of the output to the sink and return the sink.
    pub fn into_inner(mut self) -> Result<S> {
        self.sink.write_all(&self.buf)?;
        Ok(self.sink)
    }
}

/// Serialize a full event sequence to a byte vector (convenience).
pub fn events_to_xml(events: &[Event], pretty: bool) -> Vec<u8> {
    let mut w = XmlWriter::new(Vec::new()).pretty(pretty);
    for ev in events {
        w.write(ev).expect("Vec sink cannot fail");
    }
    w.into_inner().expect("Vec sink cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_events;

    #[test]
    fn compact_output_roundtrips_through_the_parser() {
        let doc = b"<a k=\"v&amp;w\"><b>x &lt; y</b><c/></a>";
        let events = parse_events(doc).unwrap();
        let text = events_to_xml(&events, false);
        let reparsed = parse_events(&text).unwrap();
        assert_eq!(events, reparsed);
    }

    #[test]
    fn escaping_covers_special_characters() {
        let events = vec![
            Event::start("a", &[("k", "a\"b<c&d")]),
            Event::text("1<2 & 3>2"),
            Event::end("a"),
        ];
        let text = events_to_xml(&events, false);
        let s = String::from_utf8(text.clone()).unwrap();
        assert!(s.contains("&quot;") && s.contains("&lt;") && s.contains("&amp;"));
        assert_eq!(parse_events(&text).unwrap(), events);
    }

    #[test]
    fn escaping_is_exact_and_only_where_needed() {
        let events = vec![
            Event::start("a", &[("k", "x\"y<z&w>v'"), ("e", "")]),
            Event::text("1<2 & 3>2 \"q\" 'p'"),
            Event::end("a"),
        ];
        let text = String::from_utf8(events_to_xml(&events, false)).unwrap();
        assert_eq!(
            text,
            "<a k=\"x&quot;y&lt;z&amp;w>v'\" e=\"\">1&lt;2 &amp; 3&gt;2 \"q\" 'p'</a>"
        );
    }

    #[test]
    fn pretty_output_is_indented_and_reparses_equal() {
        let events = parse_events(b"<a><b><c>leaf</c></b><d/></a>").unwrap();
        let text = events_to_xml(&events, true);
        let s = String::from_utf8(text.clone()).unwrap();
        assert!(s.contains("\n  <b>"));
        assert!(s.contains("\n    <c>leaf</c>"));
        assert_eq!(parse_events(&text).unwrap(), events);
    }

    #[test]
    fn text_heavy_content_stays_inline() {
        let events = vec![Event::start("p", &[]), Event::text("body"), Event::end("p")];
        let s = String::from_utf8(events_to_xml(&events, true)).unwrap();
        assert_eq!(s, "<p>body</p>");
    }
}
