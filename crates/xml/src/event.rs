//! SAX-style XML events: the unit the sorting phase scans (Figure 4 line 3,
//! "a start tag, an end tag, or a piece of text").

use std::fmt;

/// One unit of XML data in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<name a="v" ...>`
    Start {
        /// Element name bytes.
        name: Vec<u8>,
        /// Attributes in document order.
        attrs: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// `</name>`
    End {
        /// Element name bytes (matches the corresponding `Start`).
        name: Vec<u8>,
    },
    /// Character data between tags (entity-decoded).
    Text {
        /// The decoded text content.
        content: Vec<u8>,
    },
}

impl Event {
    /// Convenience constructor for a start tag.
    pub fn start(name: &str, attrs: &[(&str, &str)]) -> Self {
        Event::Start {
            name: name.as_bytes().to_vec(),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                .collect(),
        }
    }

    /// Convenience constructor for an end tag.
    pub fn end(name: &str) -> Self {
        Event::End { name: name.as_bytes().to_vec() }
    }

    /// Convenience constructor for text content.
    pub fn text(content: &str) -> Self {
        Event::Text { content: content.as_bytes().to_vec() }
    }

    /// Attribute value lookup on a start tag; `None` otherwise.
    pub fn attr(&self, key: &[u8]) -> Option<&[u8]> {
        match self {
            Event::Start { attrs, .. } => {
                attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_slice())
            }
            _ => None,
        }
    }
}

impl Event {
    /// Borrow this event as an [`EventRef`] (what the record builder reads).
    pub fn view(&self) -> EventRef<'_> {
        match self {
            Event::Start { name, attrs } => {
                EventRef::Start { name, attrs: Attrs(AttrsRepr::Owned(attrs)) }
            }
            Event::End { name } => EventRef::End { name },
            Event::Text { content } => EventRef::Text { content },
        }
    }
}

/// One event, borrowed: what [`crate::XmlParser::next_ref`] yields. Names,
/// attributes and text are slices of the parser's input window or of its
/// reusable scratch, valid until the parser's next call.
#[derive(Debug, Clone, Copy)]
pub enum EventRef<'a> {
    /// `<name a="v" ...>`
    Start {
        /// Element name bytes.
        name: &'a [u8],
        /// Attributes in document order (values entity-decoded).
        attrs: Attrs<'a>,
    },
    /// `</name>`
    End {
        /// Element name bytes.
        name: &'a [u8],
    },
    /// Character data between tags (entity-decoded).
    Text {
        /// The decoded text content.
        content: &'a [u8],
    },
}

impl EventRef<'_> {
    /// Copy the borrowed bytes into an owned [`Event`].
    pub fn into_owned(self) -> Event {
        match self {
            EventRef::Start { name, attrs } => Event::Start {
                name: name.to_vec(),
                attrs: attrs.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect(),
            },
            EventRef::End { name } => Event::End { name: name.to_vec() },
            EventRef::Text { content } => Event::Text { content: content.to_vec() },
        }
    }
}

/// Where one attribute's name and value sit in the parser's buffers: the
/// name always in the input, the value in the input or, when it held an
/// entity reference, in the decode scratch.
#[derive(Clone, Copy)]
pub(crate) struct AttrSpan {
    pub(crate) name: (usize, usize),
    pub(crate) value: (usize, usize),
    pub(crate) decoded: bool,
}

/// The attributes of a start tag, borrowed.
#[derive(Clone, Copy)]
pub struct Attrs<'a>(AttrsRepr<'a>);

#[derive(Clone, Copy)]
enum AttrsRepr<'a> {
    Owned(&'a [(Vec<u8>, Vec<u8>)]),
    Spans { spans: &'a [AttrSpan], input: &'a [u8], decoded: &'a [u8] },
}

impl<'a> Attrs<'a> {
    pub(crate) fn spans(spans: &'a [AttrSpan], input: &'a [u8], decoded: &'a [u8]) -> Self {
        Attrs(AttrsRepr::Spans { spans, input, decoded })
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        match self.0 {
            AttrsRepr::Owned(v) => v.len(),
            AttrsRepr::Spans { spans, .. } => spans.len(),
        }
    }

    /// True for a tag without attributes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th `(name, value)` pair in document order.
    fn at(&self, i: usize) -> (&'a [u8], &'a [u8]) {
        match self.0 {
            AttrsRepr::Owned(v) => (&v[i].0, &v[i].1),
            AttrsRepr::Spans { spans, input, decoded } => {
                let s = spans[i];
                let values = if s.decoded { decoded } else { input };
                (&input[s.name.0..s.name.1], &values[s.value.0..s.value.1])
            }
        }
    }

    /// The `(name, value)` pairs in document order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 'a {
        let attrs = *self;
        (0..attrs.len()).map(move |i| attrs.at(i))
    }

    /// The value of the first attribute named `key`.
    pub fn get(&self, key: &[u8]) -> Option<&'a [u8]> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

impl fmt::Debug for Attrs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(
                self.iter().map(|(k, v)| (String::from_utf8_lossy(k), String::from_utf8_lossy(v))),
            )
            .finish()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Start { name, attrs } => {
                write!(f, "<{}", String::from_utf8_lossy(name))?;
                for (k, v) in attrs {
                    write!(
                        f,
                        " {}=\"{}\"",
                        String::from_utf8_lossy(k),
                        String::from_utf8_lossy(v)
                    )?;
                }
                write!(f, ">")
            }
            Event::End { name } => write!(f, "</{}>", String::from_utf8_lossy(name)),
            Event::Text { content } => write!(f, "{}", String::from_utf8_lossy(content)),
        }
    }
}

/// Anything that yields XML events in document order.
///
/// Implemented by the streaming parser, generators, and record decoders, so
/// the sorters accept input from any of them.
pub trait EventSource {
    /// The next event, or `None` at end of document.
    fn next_event(&mut self) -> crate::error::Result<Option<Event>>;
}

/// An [`EventSource`] over a pre-built vector of events.
pub struct VecEvents {
    events: std::vec::IntoIter<Event>,
}

impl VecEvents {
    /// Stream the given events.
    pub fn new(events: Vec<Event>) -> Self {
        Self { events: events.into_iter() }
    }
}

impl EventSource for VecEvents {
    fn next_event(&mut self) -> crate::error::Result<Option<Event>> {
        Ok(self.events.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_attr_lookup() {
        let e = Event::start("employee", &[("ID", "454"), ("dept", "x")]);
        assert_eq!(e.attr(b"ID"), Some(&b"454"[..]));
        assert_eq!(e.attr(b"missing"), None);
        assert_eq!(Event::end("employee").attr(b"ID"), None);
        assert_eq!(Event::text("hi").attr(b"ID"), None);
    }

    #[test]
    fn display_renders_tags() {
        assert_eq!(Event::start("a", &[("k", "v")]).to_string(), "<a k=\"v\">");
        assert_eq!(Event::end("a").to_string(), "</a>");
        assert_eq!(Event::text("body").to_string(), "body");
    }

    #[test]
    fn views_borrow_and_into_owned_copies_back() {
        let events = [
            Event::start("employee", &[("ID", "454"), ("dept", "x")]),
            Event::text("hi"),
            Event::end("employee"),
        ];
        for e in &events {
            assert_eq!(e.view().into_owned(), *e);
        }
        let EventRef::Start { name, attrs } = events[0].view() else { panic!("start") };
        assert_eq!(name, b"employee");
        assert_eq!(
            (attrs.len(), attrs.get(b"dept"), attrs.get(b"nope")),
            (2, Some(&b"x"[..]), None)
        );
        assert_eq!(attrs.iter().next(), Some((&b"ID"[..], &b"454"[..])));
    }

    #[test]
    fn vec_source_streams_in_order() {
        let mut s = VecEvents::new(vec![Event::start("a", &[]), Event::end("a")]);
        assert_eq!(s.next_event().unwrap(), Some(Event::start("a", &[])));
        assert_eq!(s.next_event().unwrap(), Some(Event::end("a")));
        assert_eq!(s.next_event().unwrap(), None);
    }
}
