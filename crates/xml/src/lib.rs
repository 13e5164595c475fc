//! # nexsort-xml
//!
//! The XML data model for the NEXSORT reproduction: a from-scratch streaming
//! parser and serializer, a small DOM, the compact level-numbered record
//! representation with the compaction techniques of Section 3.2 (tag
//! dictionaries, end-tag elimination), sort keys and ordering criteria
//! (including the complex single-pass subtree criteria), and the key-path
//! representation (Table 1) that the external merge-sort baseline sorts by.

#![warn(missing_docs)]

mod dom;
mod encoded;
mod error;
mod event;
mod key;
mod keypath;
#[cfg(test)]
mod oracle;
mod parser;
mod rec;
mod recstream;
mod specstr;
mod sym;
mod varint;
mod writer;

pub use dom::{events_to_dom, parse_dom, Element, XNode};
pub use encoded::{
    cmp_encoded_keys, cmp_encoded_paths, cmp_encoded_siblings, read_pathed_raw, read_rec_raw,
    AttrBytes, EncodedForest, EncodedPath, NameBytes, PathedBytes, PathedForest, RecHead, RecRef,
};
pub use error::{Result, XmlError};
pub use event::{Attrs, Event, EventRef, EventSource, VecEvents};
pub use key::{sorts_children_of, KeyRule, KeySource, KeyType, KeyValue, SortSpec, TextKey};
pub use keypath::{attach_paths, KeyPath, PathBuilder, PathComp, PathedRec};
pub use parser::{parse_events, XmlParser};
pub use rec::{ElemRec, PatchRec, PtrRec, Rec, RecDecoder, RecKind, TextRec};
pub use recstream::{
    apply_patches, events_to_recs, recs_to_events, RecBuilder, RecEmitter, RecXmlWriter,
};
pub use specstr::{build_spec, parse_key_arg, parse_rule};
pub use sym::{NameRef, TagDict};
pub use varint::{
    read_bytes, read_ivarint, read_uvarint, uvarint_len, write_bytes, write_ivarint, write_uvarint,
};
pub use writer::{events_to_xml, XmlWriter};
