//! Structural merge: the XML sort-merge (outer) join of Example 1.1.
//!
//! Given two documents sorted under the *same* criterion, a single
//! synchronized pass merges them: at every level the two sorted sibling
//! sequences are interleaved by key; elements with equal keys and equal
//! names are *matched* -- their attributes are unioned and their child
//! sequences merged recursively (Figure 1's company/region/branch/employee
//! example). Unmatched elements are copied through (outer-join semantics).
//!
//! Inputs stream from [`RecSource`]s (typically [`nexsort::SortedDoc`]
//! cursors), so the merge is a single pass over both documents -- the whole
//! point of sorting them first.

use std::cmp::Ordering;

use nexsort_baseline::RecSource;
use nexsort_xml::{ElemRec, KeyValue, Rec, Result, TagDict, TextRec, XmlError};

use crate::cursor::Peek;

/// Merge configuration.
#[derive(Debug, Clone)]
pub struct MergeOptions {
    /// Elements match only when their names agree (in addition to keys).
    pub match_requires_same_name: bool,
    /// With `true`, elements whose key is `Missing` never match; the default
    /// (`false`) lets same-named keyless elements (e.g. both documents'
    /// roots, or structural containers like `<personalInfo>`) pair up
    /// positionally, which the Figure 1 merge depends on.
    pub skip_missing_keys: bool,
    /// Recursion guard: maximum document depth.
    pub max_depth: u32,
    /// Treat the two level-1 roots as matching whenever their names agree,
    /// regardless of keys (two documents being merged share a root by
    /// definition -- Figure 1's `company`).
    pub match_roots: bool,
}

impl Default for MergeOptions {
    fn default() -> Self {
        Self {
            match_requires_same_name: true,
            skip_missing_keys: false,
            max_depth: 50_000,
            match_roots: true,
        }
    }
}

/// What a merge did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Matched element pairs merged into one.
    pub merged: u64,
    /// Records copied from the left document only.
    pub left_only: u64,
    /// Records copied from the right document only.
    pub right_only: u64,
    /// Attributes contributed by the right side of a match.
    pub attrs_unioned: u64,
    /// Records emitted.
    pub emitted: u64,
}

/// The structural merge engine.
pub struct StructuralMerge<'a> {
    opts: MergeOptions,
    dict_a: &'a TagDict,
    dict_b: &'a TagDict,
    out_dict: TagDict,
    stats: MergeStats,
    next_seq: u64,
}

enum Side {
    Left,
    Right,
    Both,
}

impl<'a> StructuralMerge<'a> {
    /// A merge of records interned against `dict_a` (left) and `dict_b`
    /// (right). Output records are re-interned into a fresh dictionary.
    pub fn new(dict_a: &'a TagDict, dict_b: &'a TagDict, opts: MergeOptions) -> Self {
        Self {
            opts,
            dict_a,
            dict_b,
            out_dict: TagDict::new(),
            stats: MergeStats::default(),
            next_seq: 0,
        }
    }

    /// Run the merge, emitting output records in document order, each with
    /// the unified dictionary as it stands (every name the record uses is
    /// already interned). Returns the final dictionary and statistics.
    pub fn run(
        mut self,
        a: &mut dyn RecSource,
        b: &mut dyn RecSource,
        out: &mut dyn FnMut(Rec, &TagDict) -> Result<()>,
    ) -> Result<(TagDict, MergeStats)> {
        let mut pa = Peek::new(DynSource(a));
        let mut pb = Peek::new(DynSource(b));
        self.merge_level(&mut pa, &mut pb, 1, out)?;
        if pa.peek()?.is_some() || pb.peek()?.is_some() {
            return Err(XmlError::Record("input continued past its root element".into()));
        }
        Ok((self.out_dict, self.stats))
    }

    fn remap(&mut self, rec: Rec, left: bool) -> Result<Rec> {
        let dict = if left { self.dict_a } else { self.dict_b };
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(match rec {
            Rec::Elem(e) => {
                let name = nexsort_xml::NameRef::Sym(self.out_dict.intern(e.name.resolve(dict)?));
                let attrs = e
                    .attrs
                    .iter()
                    .map(|(k, v)| {
                        Ok((
                            nexsort_xml::NameRef::Sym(self.out_dict.intern(k.resolve(dict)?)),
                            v.clone(),
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?;
                Rec::Elem(ElemRec { level: e.level, name, attrs, key: e.key, seq })
            }
            Rec::Text(t) => {
                Rec::Text(TextRec { level: t.level, content: t.content, key: t.key, seq })
            }
            other => {
                return Err(XmlError::Record(format!(
                    "unexpected record kind in merge input: {other:?}"
                )))
            }
        })
    }

    /// Order two head records of the same sibling sequence, and whether they
    /// form a match.
    fn classify(&self, ra: &Rec, rb: &Rec, level: u32) -> Result<Side> {
        if level == 1 && self.opts.match_roots {
            if let (Rec::Elem(ea), Rec::Elem(eb)) = (ra, rb) {
                if ea.name.resolve(self.dict_a)? == eb.name.resolve(self.dict_b)? {
                    return Ok(Side::Both);
                }
            }
        }
        match ra.key().cmp(rb.key()) {
            Ordering::Less => Ok(Side::Left),
            Ordering::Greater => Ok(Side::Right),
            Ordering::Equal => {
                let matchable = match (ra, rb) {
                    (Rec::Elem(ea), Rec::Elem(eb)) => {
                        let keys_ok =
                            !self.opts.skip_missing_keys || !matches!(ea.key, KeyValue::Missing);
                        let names_ok = !self.opts.match_requires_same_name
                            || ea.name.resolve(self.dict_a)? == eb.name.resolve(self.dict_b)?;
                        keys_ok && names_ok
                    }
                    _ => false,
                };
                Ok(if matchable { Side::Both } else { Side::Left })
            }
        }
    }

    /// Copy one whole subtree from one side to the output.
    fn copy_subtree(
        &mut self,
        src: &mut Peek<DynSource<'_, '_>>,
        level: u32,
        left: bool,
        out: &mut dyn FnMut(Rec, &TagDict) -> Result<()>,
    ) -> Result<()> {
        let root = src.take()?.ok_or_else(|| XmlError::Record("copy from empty stream".into()))?;
        debug_assert_eq!(root.level(), level);
        let mapped = self.remap(root, left)?;
        if left {
            self.stats.left_only += 1;
        } else {
            self.stats.right_only += 1;
        }
        self.stats.emitted += 1;
        out(mapped, &self.out_dict)?;
        while let Some(r) = src.peek()? {
            if r.level() <= level {
                break;
            }
            let r = src.take()?.expect("peeked");
            let mapped = self.remap(r, left)?;
            if left {
                self.stats.left_only += 1;
            } else {
                self.stats.right_only += 1;
            }
            self.stats.emitted += 1;
            out(mapped, &self.out_dict)?;
        }
        Ok(())
    }

    /// Merge two matched elements: union attributes, then merge children.
    fn merge_match(
        &mut self,
        a: &mut Peek<DynSource<'_, '_>>,
        b: &mut Peek<DynSource<'_, '_>>,
        level: u32,
        out: &mut dyn FnMut(Rec, &TagDict) -> Result<()>,
    ) -> Result<()> {
        if level > self.opts.max_depth {
            return Err(XmlError::Record(format!(
                "merge exceeded the configured depth limit {}",
                self.opts.max_depth
            )));
        }
        let (Some(Rec::Elem(ea)), Some(Rec::Elem(eb))) = (a.take()?, b.take()?) else {
            return Err(XmlError::Record("match on non-elements".into()));
        };
        let mut merged = self.remap(Rec::Elem(ea), true)?;
        // Union in the right side's attributes that the left lacks.
        if let Rec::Elem(m) = &mut merged {
            for (k, v) in &eb.attrs {
                let kb = k.resolve(self.dict_b)?;
                let mut exists = false;
                for (mk, _) in &m.attrs {
                    if mk.resolve(&self.out_dict)? == kb {
                        exists = true;
                        break;
                    }
                }
                if !exists {
                    let key_sym = nexsort_xml::NameRef::Sym(self.out_dict.intern(kb));
                    m.attrs.push((key_sym, v.clone()));
                    self.stats.attrs_unioned += 1;
                }
            }
        }
        self.stats.merged += 1;
        self.stats.emitted += 1;
        out(merged, &self.out_dict)?;
        self.merge_level(a, b, level + 1, out)
    }

    /// Merge the two sorted sibling sequences at `level`.
    fn merge_level(
        &mut self,
        a: &mut Peek<DynSource<'_, '_>>,
        b: &mut Peek<DynSource<'_, '_>>,
        level: u32,
        out: &mut dyn FnMut(Rec, &TagDict) -> Result<()>,
    ) -> Result<()> {
        loop {
            let ha = a.peek_at(level)?.cloned();
            let hb = b.peek_at(level)?.cloned();
            match (ha, hb) {
                (None, None) => return Ok(()),
                (Some(_), None) => self.copy_subtree(a, level, true, out)?,
                (None, Some(_)) => self.copy_subtree(b, level, false, out)?,
                (Some(ra), Some(rb)) => match self.classify(&ra, &rb, level)? {
                    Side::Left => self.copy_subtree(a, level, true, out)?,
                    Side::Right => self.copy_subtree(b, level, false, out)?,
                    Side::Both => self.merge_match(a, b, level, out)?,
                },
            }
        }
    }
}

/// Object-safe shim so `Peek` can wrap a `&mut dyn RecSource`.
struct DynSource<'a, 'b>(&'a mut (dyn RecSource + 'b));

impl RecSource for DynSource<'_, '_> {
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        self.0.next_rec()
    }
}

/// Merge two sorted record vectors (in-memory convenience used by tests and
/// small examples; the streaming form is [`StructuralMerge::run`]).
pub fn merge_rec_vecs(
    a: Vec<Rec>,
    dict_a: &TagDict,
    b: Vec<Rec>,
    dict_b: &TagDict,
    opts: MergeOptions,
) -> Result<(Vec<Rec>, TagDict, MergeStats)> {
    let merge = StructuralMerge::new(dict_a, dict_b, opts);
    let mut va = nexsort_baseline::VecRecSource::new(a);
    let mut vb = nexsort_baseline::VecRecSource::new(b);
    let mut out = Vec::new();
    let (dict, stats) = merge.run(&mut va, &mut vb, &mut |r, _| {
        out.push(r);
        Ok(())
    })?;
    Ok((out, dict, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_baseline::sorted_dom;
    use nexsort_xml::{
        events_to_dom, events_to_recs, parse_dom, parse_events, recs_to_events, KeyRule, SortSpec,
    };

    fn spec() -> SortSpec {
        SortSpec::by_attribute("name").with_rule("employee", KeyRule::attr("ID"))
    }

    fn sorted_recs(doc: &str) -> (Vec<Rec>, TagDict) {
        let events = parse_events(doc.as_bytes()).unwrap();
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec(), &mut dict, true).unwrap();
        let sorted = nexsort_baseline::sort_recs(recs, true, None).unwrap();
        (sorted, dict)
    }

    fn merge_docs(a: &str, b: &str) -> (nexsort_xml::Element, MergeStats) {
        let (ra, da) = sorted_recs(a);
        let (rb, db) = sorted_recs(b);
        let (out, dict, stats) = merge_rec_vecs(ra, &da, rb, &db, MergeOptions::default()).unwrap();
        let dom = events_to_dom(&recs_to_events(&out, &dict).unwrap()).unwrap();
        (dom, stats)
    }

    /// The documents of Figure 1.
    fn d1() -> &'static str {
        "<company><region name=\"NE\"><branch name=\"Durham\">\
         <employee ID=\"454\"/></branch><branch name=\"Atlanta\">\
         <employee ID=\"323\"><name>Smith</name><phone>5552345</phone></employee>\
         </branch></region></company>"
    }

    fn d2() -> &'static str {
        "<company><region name=\"NW\"><branch name=\"Durham\">\
         <employee ID=\"844\"/></branch></region><region name=\"NE\">\
         <branch name=\"Atlanta\"><employee ID=\"323\"><salary>45000</salary>\
         <bonus>5000</bonus></employee></branch></region></company>"
    }

    #[test]
    fn figure_1_merge_combines_matching_employees() {
        let (dom, stats) = merge_docs(d1(), d2());
        let xml = String::from_utf8(dom.to_xml(false)).unwrap();
        // Matched: company, region NE, branch Atlanta, employee 323.
        assert_eq!(stats.merged, 4, "{xml}");
        // Employee 323 now holds personal AND payroll children.
        let e323 = xml.find("ID=\"323\"").unwrap();
        let close = xml[e323..].find("</employee>").unwrap() + e323;
        let body = &xml[e323..close];
        assert!(body.contains("Smith") && body.contains("45000") && body.contains("5000"));
        // Outer join: NW region (only in D2) and employee 454 (only in D1)
        // both survive.
        assert!(xml.contains("NW") && xml.contains("454") && xml.contains("844"));
    }

    #[test]
    fn merge_output_is_sorted() {
        let (dom, _) = merge_docs(d1(), d2());
        let resorted = sorted_dom(&dom, &spec(), None);
        assert_eq!(dom, resorted, "merge must preserve sortedness");
    }

    #[test]
    fn merging_a_document_with_itself_unions_to_itself() {
        let (dom, stats) = merge_docs(d1(), d1());
        let expect = sorted_dom(&parse_dom(d1().as_bytes()).unwrap(), &spec(), None);
        // Text children pair up from both sides (text never matches), so
        // element structure matches but text duplicates; check elements.
        assert_eq!(stats.left_only + stats.right_only, 4, "only the text nodes split");
        let mut got = dom.clone();
        // Remove duplicate texts for comparison.
        fn dedup_text(e: &mut nexsort_xml::Element) {
            let mut seen = std::collections::HashSet::new();
            e.children.retain(|c| match c {
                nexsort_xml::XNode::Text(t) => seen.insert(t.clone()),
                _ => true,
            });
            for c in &mut e.children {
                if let nexsort_xml::XNode::Elem(el) = c {
                    dedup_text(el);
                }
            }
        }
        dedup_text(&mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn attribute_union_prefers_the_left_value() {
        let a = "<r><x name=\"k\" v=\"left\" only_a=\"1\"/></r>";
        let b = "<r><x name=\"k\" v=\"right\" only_b=\"2\"/></r>";
        let (dom, stats) = merge_docs(a, b);
        let xml = String::from_utf8(dom.to_xml(false)).unwrap();
        assert!(xml.contains("v=\"left\""));
        assert!(!xml.contains("v=\"right\""));
        assert!(xml.contains("only_a=\"1\"") && xml.contains("only_b=\"2\""));
        assert_eq!(stats.attrs_unioned, 1); // only_b (name and v collide)
    }

    #[test]
    fn same_key_different_names_do_not_match() {
        let a = "<r><x name=\"k\"/></r>";
        let b = "<r><y name=\"k\"/></r>";
        let (dom, stats) = merge_docs(a, b);
        assert_eq!(stats.merged, 1, "only the roots merge");
        assert_eq!(dom.children.len(), 2);
    }

    #[test]
    fn missing_keys_match_positionally_by_default() {
        let a = "<r><x><p name=\"1\"/></x></r>";
        let b = "<r><x><p name=\"2\"/></x></r>";
        let (dom, stats) = merge_docs(a, b);
        assert_eq!(stats.merged, 2, "root and the keyless x merge");
        let xml = String::from_utf8(dom.to_xml(false)).unwrap();
        assert_eq!(xml.matches("<x>").count(), 1);
        assert!(xml.contains("name=\"1\"") && xml.contains("name=\"2\""));
    }

    #[test]
    fn skip_missing_keys_keeps_keyless_elements_apart() {
        let (ra, da) = sorted_recs("<r name=\"top\"><x/></r>");
        let (rb, db) = sorted_recs("<r name=\"top\"><x/></r>");
        let opts = MergeOptions { skip_missing_keys: true, ..Default::default() };
        let (out, dict, stats) = merge_rec_vecs(ra, &da, rb, &db, opts).unwrap();
        assert_eq!(stats.merged, 1, "only the keyed roots merge");
        let dom = events_to_dom(&recs_to_events(&out, &dict).unwrap()).unwrap();
        assert_eq!(dom.children.len(), 2, "keyless x's copied, not merged");
    }

    #[test]
    fn disjoint_documents_concatenate_in_key_order() {
        let a = "<r><x name=\"b\"/><x name=\"d\"/></r>";
        let b = "<r><x name=\"a\"/><x name=\"c\"/></r>";
        let (dom, stats) = merge_docs(a, b);
        assert_eq!(stats.merged, 1);
        let names: Vec<String> = dom
            .children
            .iter()
            .map(|c| match c {
                nexsort_xml::XNode::Elem(e) => {
                    String::from_utf8(e.attr(b"name").unwrap().to_vec()).unwrap()
                }
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn merge_is_key_symmetric_for_disjoint_inputs() {
        let a = "<r><x name=\"b\"/></r>";
        let b = "<r><x name=\"a\"/></r>";
        let (ab, _) = merge_docs(a, b);
        let (ba, _) = merge_docs(b, a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn deep_matching_merges_level_by_level() {
        let a = "<c><r name=\"R\"><b name=\"B\"><e ID=\"1\"><p>x</p></e></b></r></c>";
        let b = "<c><r name=\"R\"><b name=\"B\"><e ID=\"1\"><q>y</q></e></b></r></c>";
        let (dom, stats) = merge_docs(a, b);
        assert_eq!(stats.merged, 4);
        let xml = String::from_utf8(dom.to_xml(false)).unwrap();
        assert!(xml.contains("<p>x</p>") && xml.contains("<q>y</q>"));
        // Exactly one e element.
        assert_eq!(xml.matches("<e ").count(), 1);
    }
}
