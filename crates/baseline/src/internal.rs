//! Internal-memory recursive sort (the paper's first straw-man, Section 1).
//!
//! "To sort a subtree rooted at an element, we first recursively sort the
//! subtree rooted at every child element. Then, we sort the list of children,
//! which simply involves reordering the pointers to them."
//!
//! Two forms are provided, both oracles: over the DOM (the cross-sorter
//! test oracle) and over owned record streams ([`sort_recs`], including
//! collapsed `RunPtr` leaves and deferred-key patches). No production path
//! calls [`sort_recs`]: NEXSORT sorts in-memory subtrees as bytes with
//! `nexsort_xml::EncodedForest`, which is *defined* to equal [`sort_recs`]
//! followed by `Rec::encode`, and the property tests below hold it to that
//! over `nexsort-datagen` documents and random forests.

use std::cmp::Ordering;

use nexsort_xml::{sorts_children_of, Element, Rec, Result, SortSpec, XNode, XmlError};

/// Recursively sort `root`'s descendants in place under `spec`.
///
/// `depth_limit` is the paper's depth-limited sorting (Section 3.2): with
/// `Some(d)` (root at level 1), only elements at level <= `d` have their
/// children reordered; deeper subtrees are treated as atomic units.
pub fn sort_dom(root: &mut Element, spec: &SortSpec, depth_limit: Option<u32>) {
    sort_dom_at(root, spec, depth_limit, 1);
}

fn node_key_cmp(a: &(usize, &XNode), b: &(usize, &XNode), spec: &SortSpec) -> Ordering {
    let key = |n: &XNode| match n {
        XNode::Elem(e) => e.key_under(spec),
        XNode::Text(t) => spec.text_node_key(t),
    };
    key(a.1).cmp(&key(b.1)).then(a.0.cmp(&b.0))
}

fn sort_dom_at(el: &mut Element, spec: &SortSpec, depth_limit: Option<u32>, level: u32) {
    if !sorts_children_of(depth_limit, level) {
        return;
    }
    for c in &mut el.children {
        if let XNode::Elem(e) = c {
            sort_dom_at(e, spec, depth_limit, level + 1);
        }
    }
    // Decorate with original positions for the document-order tiebreak, then
    // reorder (the "pointer reordering" of the paper, done by index).
    let mut order: Vec<usize> = (0..el.children.len()).collect();
    order.sort_by(|&i, &j| node_key_cmp(&(i, &el.children[i]), &(j, &el.children[j]), spec));
    let mut taken: Vec<Option<XNode>> = el.children.drain(..).map(Some).collect();
    el.children =
        order.into_iter().map(|i| taken[i].take().expect("each index moved once")).collect();
}

/// Convenience: a sorted copy.
pub fn sorted_dom(root: &Element, spec: &SortSpec, depth_limit: Option<u32>) -> Element {
    let mut copy = root.clone();
    sort_dom(&mut copy, spec, depth_limit);
    copy
}

struct RNode {
    rec: Rec,
    children: Vec<RNode>,
}

fn flatten(node: RNode, out: &mut Vec<Rec>) {
    out.push(node.rec);
    for c in node.children {
        flatten(c, out);
    }
}

fn sort_rnode(node: &mut RNode, depth_limit: Option<u32>) {
    if !sorts_children_of(depth_limit, node.rec.level()) {
        return;
    }
    for c in &mut node.children {
        sort_rnode(c, depth_limit);
    }
    node.children.sort_by(|a, b| a.rec.sibling_cmp(&b.rec));
}

/// Sort a record stream in memory: build the subtree forest, apply key
/// patches, recursively sort sibling lists, and flatten back to DFS order.
/// The owned-record oracle of `nexsort_xml::EncodedForest` (and of the
/// `merge`/`update` tests); production sorts call that instead.
///
/// The stream may be a forest (several roots at its minimum level); with
/// `sort_roots`, the root list itself is also ordered. Patches are consumed
/// (the output carries final keys only). `depth_limit` is in *absolute*
/// levels, matching the records' level numbers.
pub fn sort_recs(recs: Vec<Rec>, sort_roots: bool, depth_limit: Option<u32>) -> Result<Vec<Rec>> {
    let mut roots: Vec<RNode> = Vec::new();
    let mut stack: Vec<RNode> = Vec::new(); // open elements, increasing level

    fn close_down_to(roots: &mut Vec<RNode>, stack: &mut Vec<RNode>, level: u32) {
        while stack.last().is_some_and(|n| n.rec.level() >= level) {
            let done = stack.pop().expect("checked non-empty");
            match stack.last_mut() {
                Some(parent) => parent.children.push(done),
                None => roots.push(done),
            }
        }
    }

    for rec in recs {
        match rec {
            Rec::KeyPatch(p) => {
                close_down_to(&mut roots, &mut stack, p.level + 1);
                match stack.last_mut() {
                    Some(open) if open.rec.level() == p.level => open.rec.set_key(p.key),
                    _ => {
                        return Err(XmlError::Record(format!(
                            "key patch at level {} has no open element",
                            p.level
                        )))
                    }
                }
            }
            rec => {
                let level = rec.level();
                close_down_to(&mut roots, &mut stack, level);
                if stack.last().is_some_and(|n| n.rec.level() + 1 != level) && !stack.is_empty() {
                    return Err(XmlError::Record(format!(
                        "level jump to {level} under level {}",
                        stack.last().map(|n| n.rec.level()).unwrap_or(0)
                    )));
                }
                let node = RNode { rec, children: Vec::new() };
                if matches!(node.rec, Rec::Elem(_)) {
                    stack.push(node);
                } else {
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(node),
                        None => roots.push(node),
                    }
                }
            }
        }
    }
    close_down_to(&mut roots, &mut stack, 0);

    for r in &mut roots {
        sort_rnode(r, depth_limit);
    }
    if sort_roots {
        roots.sort_by(|a, b| a.rec.sibling_cmp(&b.rec));
    }
    let mut out = Vec::new();
    for r in roots {
        flatten(r, &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_xml::{
        events_to_dom, events_to_recs, parse_dom, parse_events, recs_to_events, EncodedForest,
        Event, EventSource, KeyRule, KeyValue, TagDict,
    };
    use proptest::prelude::*;

    fn spec() -> SortSpec {
        SortSpec::by_attribute("name").with_rule("employee", KeyRule::attr_numeric("ID"))
    }

    #[test]
    fn dom_sort_orders_every_level() {
        let mut d = parse_dom(
            b"<company><region name=\"NW\"><branch name=\"Durham\"/>\
              <branch name=\"Miami\"/></region><region name=\"AC\">\
              <employee ID=\"10\"/><employee ID=\"9\"/></region></company>",
        )
        .unwrap();
        sort_dom(&mut d, &spec(), None);
        let xml = String::from_utf8(d.to_xml(false)).unwrap();
        let ac = xml.find("AC").unwrap();
        let nw = xml.find("NW").unwrap();
        assert!(ac < nw, "regions sorted by name");
        let nine = xml.find("ID=\"9\"").unwrap();
        let ten = xml.find("ID=\"10\"").unwrap();
        assert!(nine < ten, "employees sorted numerically");
    }

    #[test]
    fn dom_sort_output_is_a_legal_permutation() {
        let d =
            parse_dom(b"<r><a name=\"z\"><b name=\"2\"/><b name=\"1\"/></a><a name=\"a\"/></r>")
                .unwrap();
        let s = sorted_dom(&d, &spec(), None);
        assert!(d.permutation_equivalent(&s));
    }

    #[test]
    fn dom_sort_is_idempotent() {
        let d =
            parse_dom(b"<r><a name=\"b\"/><a name=\"a\"><c name=\"2\"/><c name=\"1\"/></a></r>")
                .unwrap();
        let once = sorted_dom(&d, &spec(), None);
        let twice = sorted_dom(&once, &spec(), None);
        assert_eq!(once, twice);
    }

    #[test]
    fn depth_limit_freezes_deeper_levels() {
        let d =
            parse_dom(b"<r><a name=\"z\"><c name=\"2\"/><c name=\"1\"/></a><a name=\"y\"/></r>")
                .unwrap();
        // d=1: only the root's children are sorted; the c's keep document order.
        let s = sorted_dom(&d, &spec(), Some(1));
        let xml = String::from_utf8(s.to_xml(false)).unwrap();
        assert!(xml.find("\"y\"").unwrap() < xml.find("\"z\"").unwrap());
        assert!(xml.find("\"2\"").unwrap() < xml.find("\"1\"").unwrap(), "c children untouched");
        // d=2 sorts the c's as well.
        let s2 = sorted_dom(&d, &spec(), Some(2));
        let xml2 = String::from_utf8(s2.to_xml(false)).unwrap();
        assert!(xml2.find("\"1\"").unwrap() < xml2.find("\"2\"").unwrap());
    }

    #[test]
    fn equal_keys_keep_document_order() {
        let d =
            parse_dom(b"<r><x name=\"same\" id=\"first\"/><x name=\"same\" id=\"second\"/></r>")
                .unwrap();
        let s = sorted_dom(&d, &spec(), None);
        let xml = String::from_utf8(s.to_xml(false)).unwrap();
        assert!(xml.find("first").unwrap() < xml.find("second").unwrap());
    }

    #[test]
    fn rec_sort_agrees_with_dom_sort() {
        let doc = "<company><region name=\"NW\"><branch name=\"Miami\"/>\
                   <branch name=\"Durham\"/></region><region name=\"AC\">\
                   <employee ID=\"10\">text</employee><employee ID=\"9\"/></region></company>";
        let events = parse_events(doc.as_bytes()).unwrap();
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec(), &mut dict, true).unwrap();
        let sorted = sort_recs(recs, true, None).unwrap();
        let got = events_to_dom(&recs_to_events(&sorted, &dict).unwrap()).unwrap();

        let expect = sorted_dom(&parse_dom(doc.as_bytes()).unwrap(), &spec(), None);
        assert_eq!(got, expect);
    }

    #[test]
    fn rec_sort_applies_deferred_key_patches() {
        let doc = "<list><item><k>zebra</k></item><item><k>apple</k></item></list>";
        let s =
            SortSpec::uniform(KeyRule::doc_order()).with_rule("item", KeyRule::child_path(&["k"]));
        let events = parse_events(doc.as_bytes()).unwrap();
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &s, &mut dict, true).unwrap();
        assert!(recs.iter().any(|r| matches!(r, Rec::KeyPatch(_))));
        let sorted = sort_recs(recs, true, None).unwrap();
        assert!(sorted.iter().all(|r| !matches!(r, Rec::KeyPatch(_))), "patches consumed");
        let xml = String::from_utf8(
            events_to_dom(&recs_to_events(&sorted, &dict).unwrap()).unwrap().to_xml(false),
        )
        .unwrap();
        assert!(xml.find("apple").unwrap() < xml.find("zebra").unwrap());
    }

    #[test]
    fn rec_sort_handles_forests_and_run_pointers() {
        use nexsort_xml::{KeyValue, PtrRec};
        let recs = vec![
            Rec::RunPtr(PtrRec { level: 2, run: 1, key: KeyValue::Num(9), seq: 5 }),
            Rec::RunPtr(PtrRec { level: 2, run: 0, key: KeyValue::Num(3), seq: 2 }),
        ];
        let sorted = sort_recs(recs, true, None).unwrap();
        match (&sorted[0], &sorted[1]) {
            (Rec::RunPtr(a), Rec::RunPtr(b)) => {
                assert_eq!((a.run, b.run), (0, 1), "pointers ordered by their keys");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rec_sort_rejects_dangling_patches() {
        use nexsort_xml::{KeyValue, PatchRec};
        let recs = vec![Rec::KeyPatch(PatchRec { level: 3, key: KeyValue::Num(1) })];
        assert!(sort_recs(recs, true, None).is_err());
    }

    /// The byte-level sort of `recs`, encoded back to back.
    fn sort_bytes(recs: &[Rec], depth_limit: Option<u32>) -> Result<Vec<u8>> {
        let mut arena = Vec::new();
        for r in recs {
            r.encode(&mut arena)?;
        }
        let mut out = Vec::new();
        EncodedForest::index(&arena)?.write_sorted(depth_limit, &mut out)?;
        Ok(out)
    }

    /// The oracle: the owned sort, then `Rec::encode`.
    fn sort_owned(recs: &[Rec], depth_limit: Option<u32>) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        for r in sort_recs(recs.to_vec(), false, depth_limit)? {
            r.encode(&mut out)?;
        }
        Ok(out)
    }

    /// Both sorts give the same bytes, or both fail with the same error.
    fn agree(recs: &[Rec], depth_limit: Option<u32>) -> std::result::Result<(), String> {
        match (sort_bytes(recs, depth_limit), sort_owned(recs, depth_limit)) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (Err(a), Err(b)) if a.to_string() == b.to_string() => Ok(()),
            (a, b) => Err(format!("depth {depth_limit:?}: encoded {a:?} vs owned {b:?}")),
        }
    }

    fn small_key() -> BoxedStrategy<KeyValue> {
        // Few distinct values, so sibling keys tie and the seq decides.
        let leaf = prop_oneof![
            Just(KeyValue::Missing),
            (-3i64..4).prop_map(KeyValue::Num),
            prop::collection::vec(0u8..3, 0..3).prop_map(KeyValue::Bytes),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                inner.clone().prop_map(|k| KeyValue::Desc(Box::new(k))),
                prop::collection::vec(inner, 0..3).prop_map(KeyValue::Tuple),
            ]
        })
    }

    /// A random DFS record stream: a forest of roots at level `base`, with
    /// elements (names interned or inline), text and run-pointer leaves,
    /// and elements whose key arrives as a patch at their end.
    fn build_forest(base: u32, ops: Vec<(u8, KeyValue, bool)>) -> Vec<Rec> {
        use nexsort_xml::{ElemRec, NameRef, PatchRec, PtrRec, TextRec};
        let mut out = Vec::new();
        let mut open: Vec<(u32, Option<KeyValue>)> = Vec::new();
        for (seq, (op, key, flag)) in ops.into_iter().enumerate() {
            let (seq, level) = (seq as u64, base + open.len() as u32);
            match op {
                0..=3 if open.len() < 5 => {
                    let name = if flag {
                        NameRef::Sym(u32::from(op))
                    } else {
                        NameRef::Inline(b"e".to_vec())
                    };
                    let attrs = vec![(NameRef::Inline(b"a".to_vec()), b"v&<\"".to_vec())];
                    let own = if flag { KeyValue::Missing } else { key.clone() };
                    out.push(Rec::Elem(ElemRec { level, name, attrs, key: own, seq }));
                    open.push((level, flag.then_some(key)));
                }
                4 | 5 => {
                    let content = b"t".repeat(usize::from(op));
                    out.push(Rec::Text(TextRec { level, content, key, seq }));
                }
                6 => out.push(Rec::RunPtr(PtrRec { level, run: seq as u32, key, seq })),
                _ => {
                    if let Some((level, Some(key))) = open.pop() {
                        out.push(Rec::KeyPatch(PatchRec { level, key }));
                    }
                }
            }
        }
        while let Some((level, patch)) = open.pop() {
            if let Some(key) = patch {
                out.push(Rec::KeyPatch(PatchRec { level, key }));
            }
        }
        out
    }

    fn gen_events(gen: &mut dyn EventSource) -> Vec<Event> {
        let mut events = Vec::new();
        while let Some(ev) = gen.next_event().unwrap() {
            events.push(ev);
        }
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// `nexsort-datagen` documents under attribute, numeric, tag,
        /// doc-order, descending, text and child-path (deferred) keys, with
        /// compaction on and off, at every depth limit.
        #[test]
        fn encoded_sort_equals_the_owned_sort_on_generated_documents(seed in any::<u64>()) {
            use nexsort_datagen::{AuctionConfig, AuctionGen, ExactGen, GenConfig};
            let cfg = GenConfig { seed, avg_elem_bytes: 40, ..Default::default() };
            let auction = AuctionConfig { seed, sellers: 3, ..Default::default() };
            let docs = [
                gen_events(&mut ExactGen::new(&[3, 4, 2], cfg.clone())),
                gen_events(&mut ExactGen::new(&[2, 2, 2, 2], cfg.clone())),
                gen_events(&mut ExactGen::new(&[14], cfg)),
                gen_events(&mut AuctionGen::new(auction)),
            ];
            let specs = [
                SortSpec::by_attribute("k"),
                SortSpec::uniform(KeyRule::attr("k").desc()),
                SortSpec::uniform(KeyRule::tag_name()),
                SortSpec::uniform(KeyRule::doc_order()),
                SortSpec::uniform(KeyRule::text()),
                SortSpec::uniform(KeyRule::attr("id"))
                    .with_rule("item", KeyRule::child_path(&["description"]))
                    .with_rule("bid", KeyRule::attr_numeric("amount")),
            ];
            for events in &docs {
                for spec in &specs {
                    for compaction in [true, false] {
                        let mut dict = TagDict::new();
                        let recs = events_to_recs(events, spec, &mut dict, compaction).unwrap();
                        for depth in [None, Some(1), Some(2), Some(3)] {
                            prop_assert_eq!(agree(&recs, depth), Ok(()));
                        }
                    }
                }
            }
        }

        /// Random forests with run-pointer leaves and patched keys; and the
        /// same streams with one record dropped, which leaves dangling
        /// patches and level jumps that both sorts must refuse alike.
        #[test]
        fn encoded_sort_equals_the_owned_sort_on_random_forests(
            base in 1u32..4,
            ops in prop::collection::vec((0u8..10, small_key(), any::<bool>()), 0..60),
            drop_at in any::<u64>()
        ) {
            let recs = build_forest(base, ops);
            for depth in [None, Some(1), Some(2), Some(3)] {
                prop_assert_eq!(agree(&recs, depth), Ok(()));
            }
            if !recs.is_empty() {
                let mut cut = recs.clone();
                cut.remove((drop_at % recs.len() as u64) as usize);
                prop_assert_eq!(agree(&cut, None), Ok(()));
            }
        }
    }

    #[test]
    fn encoded_sort_refuses_dangling_patches_and_level_jumps() {
        use nexsort_xml::{ElemRec, NameRef, PatchRec, TextRec};
        let elem = |level| {
            Rec::Elem(ElemRec {
                level,
                name: NameRef::Sym(0),
                attrs: vec![],
                key: KeyValue::Missing,
                seq: 0,
            })
        };
        let patch = |level| Rec::KeyPatch(PatchRec { level, key: KeyValue::Num(1) });
        let text =
            |level| Rec::Text(TextRec { level, content: vec![], key: KeyValue::Missing, seq: 1 });
        for recs in [
            vec![patch(3)],
            vec![elem(1), elem(3)],
            vec![elem(1), text(2), patch(2)],
            vec![elem(2), text(4)],
        ] {
            let err = sort_bytes(&recs, None).unwrap_err().to_string();
            assert_eq!(err, sort_owned(&recs, None).unwrap_err().to_string());
        }
    }

    #[test]
    fn text_nodes_sort_among_siblings_by_doc_order_by_default() {
        let doc = "<r><b name=\"x\"/>hello<a name=\"w\"/>world</r>";
        let events = parse_events(doc.as_bytes()).unwrap();
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec(), &mut dict, true).unwrap();
        let sorted = sort_recs(recs, true, None).unwrap();
        let xml = nexsort_xml::events_to_xml(&recs_to_events(&sorted, &dict).unwrap(), false);
        let s = String::from_utf8(xml).unwrap();
        // Missing-key text sorts first (doc order), then w, then x.
        assert_eq!(s, "<r>helloworld<a name=\"w\"></a><b name=\"x\"></b></r>");
    }
}
