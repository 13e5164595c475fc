//! Property-based tests (proptest) of the core invariants, over randomly
//! generated documents, ordering criteria, and configurations.

use proptest::prelude::*;

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::{sorted_dom, stage_input};
use nexsort_extmem::{Disk, ExtStack, FrameGuard, IoCat, MemoryBudget};
use nexsort_xml::{
    events_to_dom, parse_dom, parse_events, Element, KeyRule, KeyValue, SortSpec, XNode,
};

// ---------- random document strategy ----------

/// XML text cannot represent *adjacent* text siblings (they re-parse as one
/// node), so generated documents coalesce them up front.
fn coalesce_text(e: &mut Element) {
    let mut out: Vec<XNode> = Vec::with_capacity(e.children.len());
    for c in e.children.drain(..) {
        match (out.last_mut(), c) {
            (Some(XNode::Text(prev)), XNode::Text(t)) => prev.extend_from_slice(&t),
            (_, mut c) => {
                if let XNode::Elem(el) = &mut c {
                    coalesce_text(el);
                }
                out.push(c);
            }
        }
    }
    e.children = out;
}

fn arb_element() -> impl Strategy<Value = Element> {
    let leaf = (0..4u8, 0..30u32).prop_map(|(name, key)| Element {
        name: vec![b'a' + name],
        attrs: vec![(b"k".to_vec(), key.to_string().into_bytes())],
        children: Vec::new(),
    });
    leaf.prop_recursive(4, 48, 6, |inner| {
        (
            0..4u8,
            0..30u32,
            prop::collection::vec(
                prop_oneof![
                    3 => inner.prop_map(XNode::Elem),
                    1 => "[a-z<&\"]{1,10}".prop_map(|s| XNode::Text(s.into_bytes())),
                ],
                0..6,
            ),
        )
            .prop_map(|(name, key, children)| {
                let mut e = Element {
                    name: vec![b'a' + name],
                    attrs: vec![(b"k".to_vec(), key.to_string().into_bytes())],
                    children,
                };
                coalesce_text(&mut e);
                e
            })
    })
}

fn arb_spec() -> impl Strategy<Value = SortSpec> {
    prop_oneof![
        Just(SortSpec::by_attribute("k")),
        Just(SortSpec::uniform(KeyRule::attr_numeric("k"))),
        Just(SortSpec::uniform(KeyRule::tag_name())),
        Just(SortSpec::by_attribute("k").with_rule("b", KeyRule::doc_order())),
    ]
}

fn assert_sorted(e: &Element, spec: &SortSpec) {
    let keys: Vec<KeyValue> = e
        .children
        .iter()
        .map(|c| match c {
            XNode::Elem(el) => el.key_under(spec),
            XNode::Text(t) => spec.text_node_key(t),
        })
        .collect();
    for w in keys.windows(2) {
        prop_assert_le_keys(&w[0], &w[1]);
    }
    for c in &e.children {
        if let XNode::Elem(el) = c {
            assert_sorted(el, spec);
        }
    }
}

fn prop_assert_le_keys(a: &KeyValue, b: &KeyValue) {
    assert!(a <= b, "out of order: {a} > {b}");
}

fn nexsort_dom(doc: &Element, spec: &SortSpec, opts: NexsortOptions) -> Element {
    let xml = doc.to_xml(false);
    let disk = Disk::new_mem(256);
    let input = stage_input(&disk, &xml).unwrap();
    let sorted = Nexsort::new(disk, opts, spec.clone()).unwrap().sort_xml_extent(&input).unwrap();
    events_to_dom(&sorted.to_events().unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NEXSORT output is always a legal permutation, fully sorted, and equal
    /// to the internal-memory oracle -- across thresholds.
    #[test]
    fn nexsort_is_correct_on_random_documents(
        doc in arb_element(),
        spec in arb_spec(),
        threshold in prop_oneof![Just(1u64), Just(64), Just(512), Just(1 << 20)],
    ) {
        let opts = NexsortOptions { threshold: Some(threshold), ..Default::default() };
        let got = nexsort_dom(&doc, &spec, opts);
        let oracle = sorted_dom(&doc, &spec, None);
        prop_assert_eq!(&got, &oracle);
        prop_assert!(doc.permutation_equivalent(&got));
        assert_sorted(&got, &spec);
    }

    /// The degeneration variant agrees with the oracle too.
    #[test]
    fn degeneration_is_correct_on_random_documents(
        doc in arb_element(),
        spec in arb_spec(),
    ) {
        let opts = NexsortOptions { degeneration: true, mem_frames: 9, ..Default::default() };
        let got = nexsort_dom(&doc, &spec, opts);
        let oracle = sorted_dom(&doc, &spec, None);
        prop_assert_eq!(got, oracle);
    }

    /// The baseline agrees with the oracle.
    #[test]
    fn baseline_is_correct_on_random_documents(
        doc in arb_element(),
        spec in arb_spec(),
    ) {
        let xml = doc.to_xml(false);
        let disk = Disk::new_mem(256);
        let input = stage_input(&disk, &xml).unwrap();
        let opts = nexsort_baseline::BaselineOptions { mem_frames: 6, ..Default::default() };
        let sorted = nexsort_baseline::sort_xml_extent(&disk, &input, &spec, &opts).unwrap();
        let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
        prop_assert_eq!(got, sorted_dom(&doc, &spec, None));
    }

    /// Sorting is idempotent: sort(sort(d)) == sort(d). (Sorting can move
    /// text siblings adjacent; XML text merges those, so compare the
    /// coalesced forms.)
    #[test]
    fn sorting_is_idempotent(doc in arb_element(), spec in arb_spec()) {
        let mut once = nexsort_dom(&doc, &spec, NexsortOptions::default());
        coalesce_text(&mut once);
        let twice = nexsort_dom(&once, &spec, NexsortOptions::default());
        prop_assert_eq!(once, twice);
    }

    /// Depth-limited output agrees with the depth-limited oracle, for all d.
    #[test]
    fn depth_limit_is_correct(doc in arb_element(), d in 1u32..5) {
        let spec = SortSpec::by_attribute("k");
        let opts = NexsortOptions { depth_limit: Some(d), ..Default::default() };
        let got = nexsort_dom(&doc, &spec, opts);
        prop_assert_eq!(got, sorted_dom(&doc, &spec, Some(d)));
    }

    /// Parser <-> writer round-trip on arbitrary trees (escaping included).
    #[test]
    fn xml_text_roundtrip(doc in arb_element()) {
        let xml = doc.to_xml(false);
        let back = parse_dom(&xml).unwrap();
        prop_assert_eq!(&back, &doc);
        // Pretty-printing inserts ignorable whitespace, which is only
        // round-trip-safe without mixed content (see XmlWriter::pretty).
        fn mixed(e: &Element) -> bool {
            let has_text = e.children.iter().any(|c| matches!(c, XNode::Text(_)));
            let has_elem = e.children.iter().any(|c| matches!(c, XNode::Elem(_)));
            (has_text && has_elem)
                || e.children.iter().any(|c| matches!(c, XNode::Elem(el) if mixed(el)))
        }
        if !mixed(&doc) {
            let pretty = doc.to_xml(true);
            let back = parse_dom(&pretty).unwrap();
            prop_assert_eq!(back, doc);
        }
    }

    /// Record codec round-trip through events for arbitrary documents.
    #[test]
    fn record_roundtrip(doc in arb_element(), compaction in any::<bool>()) {
        let xml = doc.to_xml(false);
        let events = parse_events(&xml).unwrap();
        let spec = SortSpec::by_attribute("k");
        let mut dict = nexsort_xml::TagDict::new();
        let recs = nexsort_xml::events_to_recs(&events, &spec, &mut dict, compaction).unwrap();
        // Byte-encode and decode every record.
        let mut buf = Vec::new();
        for r in &recs {
            r.encode(&mut buf).unwrap();
        }
        let mut src = nexsort_extmem::SliceReader::new(&buf);
        let mut back = Vec::new();
        use nexsort_extmem::ByteReader;
        while src.remaining() > 0 {
            back.push(nexsort_xml::Rec::decode(&mut src).unwrap().0);
        }
        prop_assert_eq!(&back, &recs);
        let events2 = nexsort_xml::recs_to_events(&back, &dict).unwrap();
        prop_assert_eq!(events2, events);
    }

    /// The external stack behaves exactly like a Vec under arbitrary
    /// programs, for any frame count and block size.
    #[test]
    fn ext_stack_matches_vec_model(
        ops in prop::collection::vec((any::<bool>(), 1usize..24), 1..120),
        frames in 1usize..4,
        block in prop_oneof![Just(8usize), Just(16), Just(64)],
    ) {
        let disk = Disk::new_mem(block);
        let budget = MemoryBudget::new(8);
        let mut s = ExtStack::new(disk, &budget, IoCat::DataStack, frames).unwrap();
        let mut model: Vec<u8> = Vec::new();
        let mut counter = 0u8;
        for (push, n) in ops {
            if push || model.is_empty() {
                let data: Vec<u8> = (0..n).map(|_| { counter = counter.wrapping_add(1); counter }).collect();
                s.push(&data).unwrap();
                model.extend_from_slice(&data);
            } else {
                let n = n.min(model.len());
                let got = s.pop(n).unwrap();
                let expect = model.split_off(model.len() - n);
                prop_assert_eq!(got, expect);
            }
            prop_assert_eq!(s.len(), model.len() as u64);
        }
    }

    /// Structural merge of two random sorted documents: the result is
    /// sorted, legal in size, and contains the left root's identity.
    #[test]
    fn merge_of_sorted_documents_is_sorted(a in arb_element(), b in arb_element()) {
        let spec = SortSpec::by_attribute("k");
        // Force a common root so the documents are mergeable.
        let mut a = a; a.name = b"root".to_vec();
        let mut b = b; b.name = b"root".to_vec();
        let sa = sorted_dom(&a, &spec, None);
        let sb = sorted_dom(&b, &spec, None);
        let (ra, da) = doc_to_sorted_recs(&sa, &spec);
        let (rb, db) = doc_to_sorted_recs(&sb, &spec);
        let (out, dict, stats) = nexsort_merge::merge_rec_vecs(ra, &da, rb, &db).unwrap();
        let merged = events_to_dom(&nexsort_xml::recs_to_events(&out, &dict).unwrap()).unwrap();
        assert_sorted(&merged, &spec);
        let (na, nb, nm) = (sa.num_nodes(), sb.num_nodes(), merged.num_nodes());
        prop_assert!(nm < na + nb, "at least the roots merge");
        prop_assert!(nm >= na.max(nb));
        prop_assert!(stats.merged >= 1);
    }
}

fn doc_to_sorted_recs(
    doc: &Element,
    spec: &SortSpec,
) -> (Vec<nexsort_xml::Rec>, nexsort_xml::TagDict) {
    let mut events = Vec::new();
    doc.to_events(&mut events);
    let mut dict = nexsort_xml::TagDict::new();
    let recs = nexsort_xml::events_to_recs(&events, spec, &mut dict, true).unwrap();
    (recs, dict)
}

// ---------- MemoryBudget RAII guards ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reservations within the budget succeed, over-reservations are
    /// rejected without corrupting the accounting, and every dropped guard
    /// returns exactly its frames.
    #[test]
    fn budget_guards_account_exactly(
        total in 1usize..64,
        requests in prop::collection::vec(1usize..24, 1..16),
    ) {
        let budget = MemoryBudget::new(total);
        let mut held: Vec<FrameGuard> = Vec::new();
        let mut used = 0usize;
        let mut high = 0usize;
        for n in requests {
            match budget.reserve(n) {
                Ok(g) => {
                    prop_assert!(used + n <= total, "over-reservation accepted");
                    prop_assert_eq!(g.frames(), n);
                    used += n;
                    high = high.max(used);
                    held.push(g);
                }
                Err(e) => {
                    prop_assert!(used + n > total, "rejected a fitting request: {e}");
                }
            }
            prop_assert_eq!(budget.used_frames(), used); // failed reserves must not leak
            prop_assert_eq!(budget.free_frames(), total - used);
            prop_assert_eq!(budget.high_water_frames(), high);
        }
        while let Some(g) = held.pop() {
            used -= g.frames();
            drop(g);
            prop_assert_eq!(budget.used_frames(), used);
        }
        prop_assert_eq!(budget.used_frames(), 0);
        // High water survives releases: the post-hoc M verification.
        prop_assert_eq!(budget.high_water_frames(), high);
    }

    /// The high-water mark never decreases under any interleaving of
    /// reserves, early partial releases, and drops -- and always brackets
    /// the current usage.
    #[test]
    fn budget_high_water_is_monotone(
        ops in prop::collection::vec((any::<bool>(), 1usize..8), 1..40),
    ) {
        let budget = MemoryBudget::new(16);
        let mut held: Vec<FrameGuard> = Vec::new();
        let mut last_high = 0usize;
        for (acquire, n) in ops {
            if acquire {
                if let Ok(g) = budget.reserve(n) {
                    held.push(g);
                }
            } else if let Some(mut g) = held.pop() {
                g.release(n.min(g.frames())); // partial early release, then drop
            }
            let high = budget.high_water_frames();
            prop_assert!(high >= last_high, "high water decreased: {last_high} -> {high}");
            prop_assert!(high >= budget.used_frames());
            prop_assert!(high <= budget.total_frames());
            last_high = high;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Frames come back even when the guard goes out of scope by panic
    /// (the RAII drop runs during unwinding).
    #[test]
    fn budget_frames_survive_panics(n in 1usize..16) {
        let budget = MemoryBudget::new(16);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the expected panic quiet
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = budget.reserve(n).unwrap();
            assert_eq!(budget.used_frames(), n);
            panic!("unwound with a live reservation");
        }));
        std::panic::set_hook(hook);
        prop_assert!(result.is_err());
        prop_assert_eq!(budget.used_frames(), 0); // a panic must not leak frames
        prop_assert_eq!(budget.free_frames(), 16);
        prop_assert_eq!(budget.high_water_frames(), n); // high water still recorded
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics on arbitrary bytes -- it either parses or
    /// returns a structured error.
    #[test]
    fn parser_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = parse_events(&bytes);
    }

    /// Nor on strings biased toward XML-looking syntax.
    #[test]
    fn parser_never_panics_on_xmlish_soup(s in "[<>/=a-c\"'& !\\?\\-\\[\\]]{0,120}") {
        let _ = parse_events(s.as_bytes());
    }

    /// Record decoding never panics on arbitrary bytes.
    #[test]
    fn record_decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut src = nexsort_extmem::SliceReader::new(&bytes);
        let _ = nexsort_xml::Rec::decode(&mut src);
    }
}
