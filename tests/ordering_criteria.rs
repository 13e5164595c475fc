//! End-to-end coverage of the extended ordering criteria: descending rules
//! and composite (multi-key) rules -- the paper's "more complex ordering
//! criteria" future-work direction -- through the full external-memory
//! pipeline of every sorter.

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::{sort_xml_extent, sorted_dom, stage_input, BaselineOptions};
use nexsort_extmem::Disk;
use nexsort_xml::{events_to_dom, parse_dom, Element, KeyRule, SortSpec};

fn nexsort_dom(xml: &[u8], spec: &SortSpec, opts: NexsortOptions) -> Element {
    let disk = Disk::new_mem(512);
    let input = stage_input(&disk, xml).unwrap();
    let sorted = Nexsort::new(disk, opts, spec.clone()).unwrap().sort_xml_extent(&input).unwrap();
    events_to_dom(&sorted.to_events().unwrap()).unwrap()
}

fn names_in_order(e: &Element, attr: &str) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(e: &Element, attr: &[u8], out: &mut Vec<String>) {
        if let Some(v) = e.attr(attr) {
            out.push(String::from_utf8_lossy(v).into_owned());
        }
        for c in &e.children {
            if let nexsort_xml::XNode::Elem(el) = c {
                walk(el, attr, out);
            }
        }
    }
    walk(e, attr.as_bytes(), &mut out);
    out
}

#[test]
fn descending_attribute_sorts_reverse() {
    let doc = br#"<scores><s v="10"/><s v="50"/><s v="3"/><s v="22"/></scores>"#;
    let spec = SortSpec::uniform(KeyRule::attr_numeric("v").desc());
    let got = nexsort_dom(doc, &spec, NexsortOptions::default());
    assert_eq!(names_in_order(&got, "v"), vec!["50", "22", "10", "3"]);
    // Agrees with the oracle and the baseline.
    let oracle = sorted_dom(&parse_dom(doc).unwrap(), &spec, None);
    assert_eq!(got, oracle);
    let disk = Disk::new_mem(512);
    let input = stage_input(&disk, doc).unwrap();
    let base = sort_xml_extent(&disk, &input, &spec, &BaselineOptions::default()).unwrap();
    assert_eq!(events_to_dom(&base.to_events().unwrap()).unwrap(), oracle);
}

#[test]
fn descending_ties_still_break_by_document_order() {
    let doc = br#"<r><x v="5" tag="first"/><x v="5" tag="second"/><x v="9" tag="top"/></r>"#;
    let spec = SortSpec::uniform(KeyRule::attr_numeric("v").desc());
    let got = nexsort_dom(doc, &spec, NexsortOptions::default());
    assert_eq!(names_in_order(&got, "tag"), vec!["top", "first", "second"]);
}

#[test]
fn composite_key_orders_primary_then_secondary() {
    let doc = br#"<staff>
      <p last="smith" first="zoe"/>
      <p last="adams" first="mel"/>
      <p last="smith" first="amy"/>
      <p last="adams" first="bob"/>
    </staff>"#;
    let spec =
        SortSpec::uniform(KeyRule::composite(vec![KeyRule::attr("last"), KeyRule::attr("first")]));
    let got = nexsort_dom(doc, &spec, NexsortOptions::default());
    assert_eq!(names_in_order(&got, "first"), vec!["bob", "mel", "amy", "zoe"]);
    assert_eq!(got, sorted_dom(&parse_dom(doc).unwrap(), &spec, None));
}

#[test]
fn composite_with_descending_component() {
    // Alphabetical by last name; within a last name, highest salary first.
    let doc = br#"<staff>
      <p last="smith" sal="50"/>
      <p last="adams" sal="10"/>
      <p last="smith" sal="90"/>
    </staff>"#;
    let spec = SortSpec::uniform(KeyRule::composite(vec![
        KeyRule::attr("last"),
        KeyRule::attr_numeric("sal").desc(),
    ]));
    let got = nexsort_dom(doc, &spec, NexsortOptions::default());
    assert_eq!(names_in_order(&got, "sal"), vec!["10", "90", "50"]);
}

#[test]
fn extended_criteria_survive_external_subtree_sorts() {
    // Big enough (and memory small enough) that subtree sorts go external:
    // the Desc/Tuple keys must round-trip through run encodings and key
    // paths.
    let mut doc = String::from("<root>");
    for i in 0..500 {
        doc.push_str(&format!(
            "<p last=\"L{:02}\" n=\"{:03}\" pad=\"{}\"/>",
            (i * 7) % 40,
            i,
            "y".repeat(30)
        ));
    }
    doc.push_str("</root>");
    let spec = SortSpec::uniform(KeyRule::composite(vec![
        KeyRule::attr("last"),
        KeyRule::attr_numeric("n").desc(),
    ]));
    let opts = NexsortOptions { mem_frames: 8, ..Default::default() };
    let got = nexsort_dom(doc.as_bytes(), &spec, opts);
    let oracle = sorted_dom(&parse_dom(doc.as_bytes()).unwrap(), &spec, None);
    assert_eq!(got, oracle);
    // Spot-check: within last-name group L00, n strictly decreasing.
    let all = names_in_order(&got, "n");
    let lasts = names_in_order(&got, "last");
    let group: Vec<i32> = lasts
        .iter()
        .zip(&all)
        .filter(|(l, _)| l.as_str() == "L00")
        .map(|(_, n)| n.parse().unwrap())
        .collect();
    assert!(group.len() > 2);
    assert!(group.windows(2).all(|w| w[0] > w[1]), "{group:?}");
}

#[test]
fn descending_deferred_text_key() {
    let doc = br#"<list><e><t>apple</t></e><e><t>pear</t></e><e><t>mango</t></e></list>"#;
    let spec =
        SortSpec::uniform(KeyRule::doc_order()).with_rule("e", KeyRule::child_path(&["t"]).desc());
    let got = nexsort_dom(doc, &spec, NexsortOptions::default());
    let xml = String::from_utf8(got.to_xml(false)).unwrap();
    let p = xml.find("pear").unwrap();
    let m = xml.find("mango").unwrap();
    let a = xml.find("apple").unwrap();
    assert!(p < m && m < a, "{xml}");
    assert_eq!(got, sorted_dom(&parse_dom(doc).unwrap(), &spec, None));
}

#[test]
fn degeneration_supports_the_extended_criteria() {
    let doc = br#"<r><x a="1" b="9"/><x a="1" b="2"/><x a="0" b="5"/></r>"#;
    let spec = SortSpec::uniform(KeyRule::composite(vec![
        KeyRule::attr_numeric("a"),
        KeyRule::attr_numeric("b").desc(),
    ]));
    let opts = NexsortOptions { degeneration: true, mem_frames: 9, ..Default::default() };
    let got = nexsort_dom(doc, &spec, opts);
    assert_eq!(names_in_order(&got, "b"), vec!["5", "9", "2"]);
}

#[test]
fn invalid_specs_are_rejected_by_every_entry_point() {
    let bad = SortSpec::uniform(KeyRule::composite(vec![KeyRule::text()]));
    let disk = Disk::new_mem(512);
    let input = stage_input(&disk, b"<r/>").unwrap();
    assert!(Nexsort::new(disk.clone(), NexsortOptions::default(), bad.clone()).is_err());
    assert!(sort_xml_extent(&disk, &input, &bad, &BaselineOptions::default()).is_err());
}

/// An `ExactGen` document whose `k` values are rewritten so a numeric rule
/// sees every kind of value: some fail to parse (`KeyValue::from_bytes`
/// falls back to `Bytes`, so `Num` and `Bytes` keys meet at one position),
/// some are negative, some large, some empty.
fn mixed_numeric_doc(fanouts: &[u64], seed: u64) -> Vec<u8> {
    use nexsort_datagen::{ExactGen, GenConfig};
    use nexsort_xml::{events_to_xml, Event, EventSource};
    let mut gen = ExactGen::new(fanouts, GenConfig { seed, ..Default::default() });
    let mut events = Vec::new();
    let mut i = 0u64;
    while let Some(mut ev) = gen.next_event().unwrap() {
        if let Event::Start { attrs, .. } = &mut ev {
            for (_, value) in attrs.iter_mut().filter(|(n, _)| n == b"k") {
                i += 1;
                match i % 7 {
                    1 => value.insert(0, b'x'),
                    2 => value.insert(0, b'-'),
                    3 => value.extend_from_slice(b"0000000000"),
                    4 => value.clear(),
                    _ => {}
                }
            }
        }
        events.push(ev);
    }
    events_to_xml(&events, false)
}

fn exact_doc(fanouts: &[u64], seed: u64) -> Vec<u8> {
    use nexsort_datagen::{ExactGen, GenConfig};
    use nexsort_xml::{events_to_xml, EventSource};
    let mut gen = ExactGen::new(fanouts, GenConfig { seed, ..Default::default() });
    let mut events = Vec::new();
    while let Some(ev) = gen.next_event().unwrap() {
        events.push(ev);
    }
    events_to_xml(&events, false)
}

/// Sort `doc` with the key-path baseline at 4 and 5 frames, graceful
/// degeneration at 9 and a top-k, all on 512-byte blocks so every one of
/// them merges runs in several passes, and check each against the
/// in-memory oracle (the top-k against the full sort's first k records).
fn check_multi_pass_merges(doc: &[u8], spec: &SortSpec) {
    use nexsort_query::TopK;
    let oracle = sorted_dom(&parse_dom(doc).unwrap(), spec, None);
    for mem_frames in [4, 5] {
        let disk = Disk::new_mem(512);
        let input = stage_input(&disk, doc).unwrap();
        let opts = BaselineOptions { mem_frames, ..Default::default() };
        let sorted = sort_xml_extent(&disk, &input, spec, &opts).unwrap();
        assert!(sorted.report.intermediate_merges > 0, "{:?}", sorted.report);
        assert!(sorted.report.passes >= 3, "{:?}", sorted.report);
        assert_eq!(events_to_dom(&sorted.to_events().unwrap()).unwrap(), oracle);
    }

    let disk = Disk::new_mem(512);
    let input = stage_input(&disk, doc).unwrap();
    let opts = NexsortOptions { degeneration: true, mem_frames: 9, ..Default::default() };
    let degen = Nexsort::new(disk, opts, spec.clone()).unwrap().sort_xml_extent(&input).unwrap();
    assert!(degen.report.degenerate_merges > 1, "{}", degen.report.summary());
    assert_eq!(events_to_dom(&degen.to_events().unwrap()).unwrap(), oracle);

    let full = degen.to_recs().unwrap();
    for k in [1u64, 37, 400] {
        let disk = Disk::new_mem(512);
        let input = stage_input(&disk, doc).unwrap();
        let opts = NexsortOptions { mem_frames: 9, ..Default::default() };
        let top = TopK::new(disk, opts, spec.clone(), k).unwrap().topk_xml_extent(&input).unwrap();
        assert!(top.report.runs_formed > 1, "{}", top.report.summary());
        assert_eq!(top.to_recs().unwrap(), full[..k as usize], "k={k}");
    }
}

#[test]
fn descending_composite_keys_survive_multi_pass_merges() {
    let spec = nexsort_xml::build_spec(Some("@k:num:desc+@k"), &[]).unwrap();
    check_multi_pass_merges(&exact_doc(&[12, 20, 4], 7), &spec);
}

#[test]
fn partly_numeric_keys_survive_multi_pass_merges() {
    let doc = mixed_numeric_doc(&[12, 20, 4], 11);
    for rule in ["@k:num", "@k:num:desc", "@k:num:desc+@k"] {
        let spec = nexsort_xml::build_spec(Some(rule), &[]).unwrap();
        check_multi_pass_merges(&doc, &spec);
    }
}
