//! Sort keys and ordering criteria.
//!
//! A *fully sorted* XML document orders the children of every non-leaf
//! element by a given criterion (Section 1). This module defines what a
//! criterion is ([`SortSpec`]), the key values it produces ([`KeyValue`]),
//! and how ties are broken: the paper assumes "the sort key value of an
//! element is unique among its siblings (if not, we can make it unique by
//! appending it with the element's location in the input)" -- every record
//! carries its input sequence number, and all comparisons are on the pair
//! `(key, seq)`.

use std::cmp::Ordering;
use std::fmt;

use crate::event::Attrs;

/// A sort key value, with a total order:
/// `Missing < Num(_) < Bytes(_) < Desc(_) < Tuple(_)`.
///
/// Numeric keys compare by value (`ID=9` before `ID=10`), byte keys compare
/// lexicographically. `Missing` sorts first so elements without the keyed
/// attribute cluster ahead, in document order. `Desc` inverts its inner
/// key's order (descending criteria); `Tuple` compares componentwise
/// (composite criteria, e.g. order by `@last` then `@first`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyValue {
    /// No key (criterion is document order, or the source was absent).
    Missing,
    /// Numeric key, compared by value.
    Num(i64),
    /// Byte-string key, compared lexicographically.
    Bytes(Vec<u8>),
    /// A key whose order is inverted (descending rules).
    Desc(Box<KeyValue>),
    /// A composite key, compared lexicographically componentwise.
    Tuple(Vec<KeyValue>),
}

/// `raw` as a number, if the key type compares it as one.
fn numeric(raw: &[u8], ty: KeyType) -> Option<i64> {
    match ty {
        KeyType::Bytes => None,
        KeyType::Numeric => std::str::from_utf8(raw).ok().and_then(|s| s.trim().parse().ok()),
    }
}

impl KeyValue {
    /// Build a key from raw bytes under the given [`KeyType`]. Numeric keys
    /// fall back to byte comparison when the value does not parse.
    pub fn from_bytes(raw: &[u8], ty: KeyType) -> KeyValue {
        match numeric(raw, ty) {
            Some(n) => KeyValue::Num(n),
            None => KeyValue::Bytes(raw.to_vec()),
        }
    }

    /// Append the encoding of `KeyValue::from_bytes(raw, ty)`, oriented by
    /// `descending` as [`KeyRule::oriented`] does, without building it.
    pub(crate) fn encode_from_bytes(
        raw: &[u8],
        ty: KeyType,
        descending: bool,
        out: &mut Vec<u8>,
    ) -> crate::error::Result<()> {
        if descending {
            out.push(3);
        }
        match numeric(raw, ty) {
            Some(n) => {
                out.push(1);
                crate::varint::write_ivarint(out, n)
            }
            None => {
                out.push(2);
                crate::varint::write_bytes(out, raw)
            }
        }
    }

    fn rank(&self) -> u8 {
        match self {
            KeyValue::Missing => 0,
            KeyValue::Num(_) => 1,
            KeyValue::Bytes(_) => 2,
            KeyValue::Desc(_) => 3,
            KeyValue::Tuple(_) => 4,
        }
    }

    /// Render for key-path displays (Table 1).
    pub fn display_lossy(&self) -> String {
        match self {
            KeyValue::Missing => "·".to_string(),
            KeyValue::Num(n) => n.to_string(),
            KeyValue::Bytes(b) => String::from_utf8_lossy(b).into_owned(),
            KeyValue::Desc(inner) => format!("~{}", inner.display_lossy()),
            KeyValue::Tuple(parts) => {
                let inner: Vec<String> = parts.iter().map(Self::display_lossy).collect();
                format!("({})", inner.join(","))
            }
        }
    }

    /// Append the encoded key (shared by the record and key-path codecs).
    pub fn encode(&self, out: &mut Vec<u8>) -> crate::error::Result<()> {
        use nexsort_extmem::ByteSink;
        match self {
            KeyValue::Missing => out.write_u8(0)?,
            KeyValue::Num(n) => {
                out.write_u8(1)?;
                crate::varint::write_ivarint(out, *n)?;
            }
            KeyValue::Bytes(b) => {
                out.write_u8(2)?;
                crate::varint::write_bytes(out, b)?;
            }
            KeyValue::Desc(inner) => {
                out.write_u8(3)?;
                inner.encode(out)?;
            }
            KeyValue::Tuple(parts) => {
                out.write_u8(4)?;
                crate::varint::write_uvarint(out, parts.len() as u64)?;
                for p in parts {
                    p.encode(out)?;
                }
            }
        }
        Ok(())
    }

    /// Decode a key (inverse of [`KeyValue::encode`]).
    pub fn decode(src: &mut impl nexsort_extmem::ByteReader) -> crate::error::Result<KeyValue> {
        use crate::error::XmlError;
        Ok(match src.read_u8()? {
            0 => KeyValue::Missing,
            1 => KeyValue::Num(crate::varint::read_ivarint(src)?),
            2 => KeyValue::Bytes(crate::varint::read_bytes(src)?),
            3 => KeyValue::Desc(Box::new(KeyValue::decode(src)?)),
            4 => {
                let n = crate::varint::read_uvarint(src)? as usize;
                if n > 64 {
                    return Err(XmlError::Record(format!("implausible tuple arity {n}")));
                }
                let mut parts = Vec::with_capacity(n);
                for _ in 0..n {
                    parts.push(KeyValue::decode(src)?);
                }
                KeyValue::Tuple(parts)
            }
            t => return Err(XmlError::Record(format!("bad key tag {t}"))),
        })
    }
}

impl Ord for KeyValue {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (KeyValue::Num(a), KeyValue::Num(b)) => a.cmp(b),
            (KeyValue::Bytes(a), KeyValue::Bytes(b)) => a.cmp(b),
            (KeyValue::Desc(a), KeyValue::Desc(b)) => b.cmp(a),
            (KeyValue::Tuple(a), KeyValue::Tuple(b)) => {
                for (x, y) in a.iter().zip(b) {
                    match x.cmp(y) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for KeyValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_lossy())
    }
}

/// Where an element's key comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeySource {
    /// No key: siblings keep document order (via the sequence tiebreak).
    DocOrder,
    /// The element's tag name.
    TagName,
    /// The value of the named attribute (e.g. `order employee by @ID`).
    Attribute(Vec<u8>),
    /// The element's first immediate text child (resolved at its end tag).
    Text,
    /// A *complex ordering criterion* (Section 3.2): the first text reached
    /// by following the given child-element path, e.g.
    /// `personalInfo/name/lastName`. Evaluated in a single pass over the
    /// subtree with constant space, resolved at the element's end tag.
    ChildPath(Vec<Vec<u8>>),
    /// A composite criterion: primary, secondary, ... sub-rules producing a
    /// [`KeyValue::Tuple`] (e.g. order by `@last`, then `@first`). Sub-rules
    /// must be start-known (no text/child-path sources); see
    /// [`SortSpec::validate`].
    Composite(Vec<KeyRule>),
}

impl KeySource {
    /// Whether the key can only be known once the element's end tag is seen.
    pub fn is_deferred(&self) -> bool {
        match self {
            KeySource::Text | KeySource::ChildPath(_) => true,
            KeySource::Composite(rules) => rules.iter().any(|r| r.source.is_deferred()),
            _ => false,
        }
    }
}

/// How raw key bytes compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyType {
    /// Lexicographic byte comparison.
    Bytes,
    /// Numeric comparison when the bytes parse as an integer.
    Numeric,
}

/// One ordering rule: a source, a comparison type, and a direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRule {
    /// Where the key value comes from.
    pub source: KeySource,
    /// How key values compare.
    pub ty: KeyType,
    /// Invert the order (descending).
    pub descending: bool,
}

impl KeyRule {
    /// Apply the rule's direction to an extracted key value. `Missing` stays
    /// unwrapped so keyless elements keep their document-order cluster.
    pub fn oriented(&self, key: KeyValue) -> KeyValue {
        if self.descending && key != KeyValue::Missing {
            KeyValue::Desc(Box::new(key))
        } else {
            key
        }
    }

    /// Builder: flip this rule to descending order.
    pub fn desc(mut self) -> Self {
        self.descending = true;
        self
    }

    /// Rule: composite (primary, secondary, ...) of start-known sub-rules.
    pub fn composite(rules: Vec<KeyRule>) -> Self {
        KeyRule { source: KeySource::Composite(rules), ty: KeyType::Bytes, descending: false }
    }

    /// Rule: order by attribute value, byte comparison.
    pub fn attr(name: &str) -> Self {
        KeyRule {
            source: KeySource::Attribute(name.as_bytes().to_vec()),
            ty: KeyType::Bytes,
            descending: false,
        }
    }

    /// Rule: order by attribute value, numeric comparison.
    pub fn attr_numeric(name: &str) -> Self {
        KeyRule {
            source: KeySource::Attribute(name.as_bytes().to_vec()),
            ty: KeyType::Numeric,
            descending: false,
        }
    }

    /// Rule: order by tag name.
    pub fn tag_name() -> Self {
        KeyRule { source: KeySource::TagName, ty: KeyType::Bytes, descending: false }
    }

    /// Rule: order by first immediate text child.
    pub fn text() -> Self {
        KeyRule { source: KeySource::Text, ty: KeyType::Bytes, descending: false }
    }

    /// Rule: keep document order.
    pub fn doc_order() -> Self {
        KeyRule { source: KeySource::DocOrder, ty: KeyType::Bytes, descending: false }
    }

    /// Rule: order by the text reached via a child-element path.
    pub fn child_path(path: &[&str]) -> Self {
        KeyRule {
            source: KeySource::ChildPath(path.iter().map(|s| s.as_bytes().to_vec()).collect()),
            ty: KeyType::Bytes,
            descending: false,
        }
    }
}

/// How text nodes are keyed relative to their element siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TextKey {
    /// Text nodes keep document order among siblings (default).
    #[default]
    DocOrder,
    /// Text nodes are keyed by their content.
    Content,
}

/// Whether a depth limit (`--depth d`; `None` for no limit) lets the
/// children of an element at `level` be reordered: the levels `1..=d` are
/// sorted, the root being level 1. A record at level `l` keeps its key,
/// and its place among its siblings, exactly when the children of level
/// `l - 1` are sorted. Every depth test goes through here, and none adds
/// to the limit, so `--depth 4294967295` means "no limit".
pub fn sorts_children_of(depth_limit: Option<u32>, level: u32) -> bool {
    depth_limit.is_none_or(|d| level <= d)
}

/// The full ordering criterion for a document: a default rule, per-tag
/// overrides (Figure 1: region by name, branch by name, employee by ID), and
/// the treatment of text nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortSpec {
    /// Rule applied to elements without a per-tag override.
    pub default: KeyRule,
    /// Per-tag overrides, looked up by element name.
    pub per_tag: Vec<(Vec<u8>, KeyRule)>,
    /// Keying of text nodes.
    pub text_key: TextKey,
}

impl SortSpec {
    /// A spec with the given default rule and no overrides.
    pub fn uniform(default: KeyRule) -> Self {
        SortSpec { default, per_tag: Vec::new(), text_key: TextKey::DocOrder }
    }

    /// The Figure 1 style spec: every element ordered by the same attribute.
    pub fn by_attribute(name: &str) -> Self {
        Self::uniform(KeyRule::attr(name))
    }

    /// Add a per-tag override.
    pub fn with_rule(mut self, tag: &str, rule: KeyRule) -> Self {
        self.per_tag.push((tag.as_bytes().to_vec(), rule));
        self
    }

    /// Set the text-node keying.
    pub fn with_text_key(mut self, tk: TextKey) -> Self {
        self.text_key = tk;
        self
    }

    /// The rule in force for elements named `tag`.
    pub fn rule_for(&self, tag: &[u8]) -> &KeyRule {
        self.per_tag.iter().find(|(t, _)| t == tag).map_or(&self.default, |(_, r)| r)
    }

    /// True if any rule defers key resolution to the end tag (text or
    /// child-path sources), which requires the key-patch machinery.
    pub fn has_deferred_keys(&self) -> bool {
        self.default.source.is_deferred()
            || self.per_tag.iter().any(|(_, r)| r.source.is_deferred())
    }

    /// Append the encoding of the start-known key `rule` gives element
    /// `tag` with `attrs`: the bytes [`KeyValue::encode`] writes for the
    /// key [`KeyValue::from_bytes`] and [`KeyRule::oriented`] give it, built
    /// from the borrowed attributes with no intermediate [`KeyValue`].
    /// `rule` must not be deferred.
    pub(crate) fn encode_start_key(
        rule: &KeyRule,
        tag: &[u8],
        attrs: &Attrs<'_>,
        out: &mut Vec<u8>,
    ) -> crate::error::Result<()> {
        let raw = match &rule.source {
            KeySource::DocOrder => None,
            KeySource::TagName => Some(tag),
            KeySource::Attribute(name) => attrs.get(name),
            KeySource::Composite(rules) => {
                if rule.descending {
                    out.push(3);
                }
                out.push(4);
                crate::varint::write_uvarint(out, rules.len() as u64)?;
                for r in rules {
                    Self::encode_start_key(r, tag, attrs, out)?;
                }
                return Ok(());
            }
            KeySource::Text | KeySource::ChildPath(_) => {
                unreachable!("deferred rules have no start key")
            }
        };
        match raw {
            Some(raw) => KeyValue::encode_from_bytes(raw, rule.ty, rule.descending, out),
            None => {
                out.push(0);
                Ok(())
            }
        }
    }

    /// Check structural restrictions: composite rules may not contain
    /// deferred (text/child-path) or nested composite sub-rules -- those
    /// would need multiple key patches per element, which the single-pass
    /// evaluation of Section 3.2 does not cover.
    pub fn validate(&self) -> crate::error::Result<()> {
        use crate::error::XmlError;
        let check = |rule: &KeyRule| -> crate::error::Result<()> {
            if let KeySource::Composite(subs) = &rule.source {
                for sub in subs {
                    match &sub.source {
                        KeySource::Composite(_) => {
                            return Err(XmlError::Record(
                                "nested composite key rules are not supported".into(),
                            ))
                        }
                        s if s.is_deferred() => {
                            return Err(XmlError::Record(
                                "composite key rules require start-known sources                                  (attribute or tag name)"
                                    .into(),
                            ))
                        }
                        _ => {}
                    }
                }
            }
            Ok(())
        };
        check(&self.default)?;
        for (_, rule) in &self.per_tag {
            check(rule)?;
        }
        Ok(())
    }

    /// Key for a text node with the given content.
    pub fn text_node_key(&self, content: &[u8]) -> KeyValue {
        match self.text_key {
            TextKey::DocOrder => KeyValue::Missing,
            TextKey::Content => KeyValue::Bytes(content.to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_value_total_order() {
        let missing = KeyValue::Missing;
        let n1 = KeyValue::Num(5);
        let n2 = KeyValue::Num(40);
        let b1 = KeyValue::Bytes(b"Atlanta".to_vec());
        let b2 = KeyValue::Bytes(b"Durham".to_vec());
        let mut v = vec![b2.clone(), n2.clone(), missing.clone(), b1.clone(), n1.clone()];
        v.sort();
        assert_eq!(v, vec![missing, n1, n2, b1, b2]);
    }

    #[test]
    fn numeric_keys_compare_by_value_not_lexicographically() {
        let nine = KeyValue::from_bytes(b"9", KeyType::Numeric);
        let ten = KeyValue::from_bytes(b"10", KeyType::Numeric);
        assert!(nine < ten);
        // Byte comparison would say the opposite.
        let nine_b = KeyValue::from_bytes(b"9", KeyType::Bytes);
        let ten_b = KeyValue::from_bytes(b"10", KeyType::Bytes);
        assert!(nine_b > ten_b);
    }

    #[test]
    fn numeric_parse_failure_falls_back_to_bytes() {
        assert_eq!(
            KeyValue::from_bytes(b"abc", KeyType::Numeric),
            KeyValue::Bytes(b"abc".to_vec())
        );
        assert_eq!(KeyValue::from_bytes(b" 42 ", KeyType::Numeric), KeyValue::Num(42));
    }

    #[test]
    fn per_tag_rules_override_the_default() {
        let spec = SortSpec::by_attribute("name")
            .with_rule("employee", KeyRule::attr_numeric("ID"))
            .with_rule("note", KeyRule::doc_order());
        assert_eq!(spec.rule_for(b"region"), &KeyRule::attr("name"));
        assert_eq!(spec.rule_for(b"employee"), &KeyRule::attr_numeric("ID"));
        assert_eq!(spec.rule_for(b"note"), &KeyRule::doc_order());
    }

    #[test]
    fn start_key_extraction() {
        let spec =
            SortSpec::by_attribute("name").with_rule("employee", KeyRule::attr_numeric("ID"));
        let attrs = vec![(b"name".to_vec(), b"NE".to_vec())];
        assert_eq!(spec.start_key(b"region", &attrs), Some(KeyValue::Bytes(b"NE".to_vec())));
        assert_eq!(spec.start_key(b"region", &[]), Some(KeyValue::Missing));
        let id = vec![(b"ID".to_vec(), b"454".to_vec())];
        assert_eq!(spec.start_key(b"employee", &id), Some(KeyValue::Num(454)));
    }

    #[test]
    fn deferred_sources_are_detected() {
        assert!(!SortSpec::by_attribute("name").has_deferred_keys());
        assert!(SortSpec::uniform(KeyRule::text()).has_deferred_keys());
        let spec = SortSpec::by_attribute("name")
            .with_rule("employee", KeyRule::child_path(&["personalInfo", "name", "lastName"]));
        assert!(spec.has_deferred_keys());
        assert_eq!(spec.start_key(b"employee", &[]), None);
    }

    #[test]
    fn text_node_keying_modes() {
        let doc_order = SortSpec::by_attribute("x");
        assert_eq!(doc_order.text_node_key(b"hello"), KeyValue::Missing);
        let by_content = SortSpec::by_attribute("x").with_text_key(TextKey::Content);
        assert_eq!(by_content.text_node_key(b"hello"), KeyValue::Bytes(b"hello".to_vec()));
    }

    #[test]
    fn tag_name_source_keys_by_name() {
        let spec = SortSpec::uniform(KeyRule::tag_name());
        assert_eq!(spec.start_key(b"beta", &[]), Some(KeyValue::Bytes(b"beta".to_vec())));
    }
}

#[cfg(test)]
mod direction_tests {
    use super::*;
    use nexsort_extmem::SliceReader;

    #[test]
    fn desc_inverts_order_and_tuple_is_lexicographic() {
        let d = |n: i64| KeyValue::Desc(Box::new(KeyValue::Num(n)));
        assert!(d(10) < d(9), "descending numbers");
        let t = |a: i64, b: &str| {
            KeyValue::Tuple(vec![KeyValue::Num(a), KeyValue::Bytes(b.as_bytes().to_vec())])
        };
        assert!(t(1, "z") < t(2, "a"), "first component dominates");
        assert!(t(1, "a") < t(1, "b"), "second breaks ties");
        let short = KeyValue::Tuple(vec![KeyValue::Num(1)]);
        assert!(short < t(1, "a"), "prefix tuple sorts first");
    }

    #[test]
    fn nested_desc_in_tuple_orders_componentwise() {
        // Order by @last ascending, @age descending.
        let key = |last: &str, age: i64| {
            KeyValue::Tuple(vec![
                KeyValue::Bytes(last.as_bytes().to_vec()),
                KeyValue::Desc(Box::new(KeyValue::Num(age))),
            ])
        };
        assert!(key("smith", 50) < key("smith", 30));
        assert!(key("adams", 1) < key("smith", 99));
    }

    #[test]
    fn new_variants_roundtrip_through_the_codec() {
        let keys = vec![
            KeyValue::Desc(Box::new(KeyValue::Bytes(b"zeta".to_vec()))),
            KeyValue::Tuple(vec![
                KeyValue::Num(-3),
                KeyValue::Missing,
                KeyValue::Desc(Box::new(KeyValue::Num(7))),
            ]),
            KeyValue::Tuple(vec![]),
        ];
        for k in keys {
            let mut buf = Vec::new();
            k.encode(&mut buf).unwrap();
            let back = KeyValue::decode(&mut SliceReader::new(&buf)).unwrap();
            assert_eq!(back, k);
        }
    }

    #[test]
    fn oriented_wraps_except_missing() {
        let rule = KeyRule::attr("k").desc();
        assert_eq!(rule.oriented(KeyValue::Num(5)), KeyValue::Desc(Box::new(KeyValue::Num(5))));
        assert_eq!(rule.oriented(KeyValue::Missing), KeyValue::Missing);
        let asc = KeyRule::attr("k");
        assert_eq!(asc.oriented(KeyValue::Num(5)), KeyValue::Num(5));
    }

    #[test]
    fn composite_start_key_builds_tuples() {
        let spec = SortSpec::uniform(KeyRule::composite(vec![
            KeyRule::attr("last"),
            KeyRule::attr_numeric("age").desc(),
        ]));
        spec.validate().unwrap();
        let attrs = vec![(b"last".to_vec(), b"smith".to_vec()), (b"age".to_vec(), b"41".to_vec())];
        let key = spec.start_key(b"person", &attrs).unwrap();
        assert_eq!(
            key,
            KeyValue::Tuple(vec![
                KeyValue::Bytes(b"smith".to_vec()),
                KeyValue::Desc(Box::new(KeyValue::Num(41))),
            ])
        );
    }

    #[test]
    fn validate_rejects_deferred_and_nested_composites() {
        let bad = SortSpec::uniform(KeyRule::composite(vec![KeyRule::text()]));
        assert!(bad.validate().is_err());
        let nested = SortSpec::uniform(KeyRule::composite(vec![KeyRule::composite(vec![])]));
        assert!(nested.validate().is_err());
        let fine =
            SortSpec::uniform(KeyRule::composite(vec![KeyRule::tag_name(), KeyRule::attr("x")]));
        assert!(fine.validate().is_ok());
    }

    #[test]
    fn descending_composite_displays_readably() {
        let k = KeyValue::Tuple(vec![
            KeyValue::Bytes(b"a".to_vec()),
            KeyValue::Desc(Box::new(KeyValue::Num(2))),
        ]);
        assert_eq!(k.display_lossy(), "(a,~2)");
    }
}
