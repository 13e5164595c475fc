//! Full sort -> merge pipelines across crates (the paper's motivating use).

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::stage_input;
use nexsort_datagen::{collect_events, GenConfig, IbmGen};
use nexsort_extmem::Disk;
use nexsort_merge::{annotate_order, restore_order, BatchUpdate, MergeOptions, StructuralMerge};
use nexsort_xml::{
    events_to_dom, events_to_xml, parse_dom, recs_to_events, Element, KeyValue, Rec, SortSpec,
    XNode,
};

fn sort_doc(xml: &[u8], spec: &SortSpec) -> nexsort::SortedDoc {
    let disk = Disk::new_mem(1024);
    let input = stage_input(&disk, xml).unwrap();
    Nexsort::new(disk, NexsortOptions::default(), spec.clone())
        .unwrap()
        .sort_xml_extent(&input)
        .unwrap()
}

fn merge_sorted(
    a: &nexsort::SortedDoc,
    b: &nexsort::SortedDoc,
) -> (Vec<Rec>, nexsort_xml::TagDict) {
    let merge = StructuralMerge::new(&a.dict, &b.dict, MergeOptions::default());
    let mut ca = a.cursor().unwrap();
    let mut cb = b.cursor().unwrap();
    let mut out = Vec::new();
    let (dict, _stats) = merge
        .run(&mut ca, &mut cb, &mut |r, _| {
            out.push(r);
            Ok(())
        })
        .unwrap();
    (out, dict)
}

/// Naive in-memory reference merge over DOMs (the spec the streaming merge
/// must implement).
fn reference_merge(a: &Element, b: &Element, spec: &SortSpec) -> Element {
    fn node_key(n: &XNode, spec: &SortSpec) -> KeyValue {
        match n {
            XNode::Elem(e) => e.key_under(spec),
            XNode::Text(t) => spec.text_node_key(t),
        }
    }
    fn merge_elems(a: &Element, b: &Element, spec: &SortSpec) -> Element {
        let mut out =
            Element { name: a.name.clone(), attrs: a.attrs.clone(), children: Vec::new() };
        for (k, v) in &b.attrs {
            if out.attr(k).is_none() {
                out.attrs.push((k.clone(), v.clone()));
            }
        }
        let mut ia = a.children.iter().peekable();
        let mut ib = b.children.iter().peekable();
        loop {
            match (ia.peek(), ib.peek()) {
                (None, None) => break,
                (Some(_), None) => out.children.push(ia.next().unwrap().clone()),
                (None, Some(_)) => out.children.push(ib.next().unwrap().clone()),
                (Some(na), Some(nb)) => {
                    let ka = node_key(na, spec);
                    let kb = node_key(nb, spec);
                    if ka < kb {
                        out.children.push(ia.next().unwrap().clone());
                    } else if kb < ka {
                        out.children.push(ib.next().unwrap().clone());
                    } else {
                        match (na, nb) {
                            (XNode::Elem(ea), XNode::Elem(eb)) if ea.name == eb.name => {
                                let merged = merge_elems(ea, eb, spec);
                                out.children.push(XNode::Elem(merged));
                                ia.next();
                                ib.next();
                            }
                            _ => out.children.push(ia.next().unwrap().clone()),
                        }
                    }
                }
            }
        }
        out
    }
    merge_elems(a, b, spec)
}

#[test]
fn streaming_merge_matches_the_naive_reference() {
    let spec = SortSpec::by_attribute("k");
    for seed in 0..5u64 {
        let mut ga = IbmGen::new(4, 5, Some(120), GenConfig { seed, ..Default::default() });
        let mut gb =
            IbmGen::new(4, 5, Some(120), GenConfig { seed: seed + 100, ..Default::default() });
        // Share the root name so the documents are mergeable.
        let xa = events_to_xml(&collect_events(&mut ga).unwrap(), false);
        let xb = events_to_xml(&collect_events(&mut gb).unwrap(), false);
        let sa = sort_doc(&xa, &spec);
        let sb = sort_doc(&xb, &spec);
        let (out, dict) = merge_sorted(&sa, &sb);
        let got = events_to_dom(&recs_to_events(&out, &dict).unwrap()).unwrap();

        let ra = events_to_dom(&sa.to_events().unwrap()).unwrap();
        let rb = events_to_dom(&sb.to_events().unwrap()).unwrap();
        let expect = reference_merge(&ra, &rb, &spec);
        assert_eq!(got, expect, "seed {seed}");
    }
}

#[test]
fn merge_result_contains_every_input_element() {
    let spec = SortSpec::by_attribute("k");
    let mut ga = IbmGen::new(4, 6, Some(300), GenConfig { seed: 9, ..Default::default() });
    let mut gb = IbmGen::new(4, 6, Some(300), GenConfig { seed: 10, ..Default::default() });
    let xa = events_to_xml(&collect_events(&mut ga).unwrap(), false);
    let xb = events_to_xml(&collect_events(&mut gb).unwrap(), false);
    let na = parse_dom(&xa).unwrap().num_nodes();
    let nb = parse_dom(&xb).unwrap().num_nodes();
    let sa = sort_doc(&xa, &spec);
    let sb = sort_doc(&xb, &spec);
    let (out, dict) = merge_sorted(&sa, &sb);
    let merged = events_to_dom(&recs_to_events(&out, &dict).unwrap()).unwrap();
    let n_merged = merged.num_nodes();
    // Outer join: no element vanishes; matches collapse pairs into one.
    assert!(n_merged <= na + nb);
    assert!(n_merged >= na.max(nb));
}

#[test]
fn merge_then_batch_update_composes() {
    let spec = SortSpec::by_attribute("id");
    let base = sort_doc(
        br#"<db><rec id="2" v="two"/><rec id="1" v="one"/><rec id="3" v="three"/></db>"#,
        &spec,
    );
    let other = sort_doc(br#"<db><rec id="4" v="four"/><rec id="2" extra="yes"/></db>"#, &spec);
    let (merged, dict) = merge_sorted(&base, &other);
    // Re-sort the merged records? They are already sorted; apply a batch.
    let upd = sort_doc(br#"<db><rec id="1" op="delete"/><rec id="5" v="five"/></db>"#, &spec);
    let apply = BatchUpdate::new(&dict, &upd.dict, MergeOptions::default());
    let mut mb = nexsort_baseline::VecRecSource::new(merged);
    let mut mu = upd.cursor().unwrap();
    let mut out = Vec::new();
    let (dict2, stats) = apply
        .run(&mut mb, &mut mu, &mut |r, _| {
            out.push(r);
            Ok(())
        })
        .unwrap();
    assert_eq!(stats.deleted, 1);
    assert_eq!(stats.inserted, 1);
    let xml =
        String::from_utf8(events_to_xml(&recs_to_events(&out, &dict2).unwrap(), false)).unwrap();
    assert!(!xml.contains("id=\"1\""));
    assert!(xml.contains("extra=\"yes\"") && xml.contains("v=\"two\""));
    assert!(xml.contains("id=\"5\""));
    let order: Vec<usize> = ["id=\"2\"", "id=\"3\"", "id=\"4\"", "id=\"5\""]
        .iter()
        .map(|s| xml.find(s).unwrap())
        .collect();
    assert!(order.windows(2).all(|w| w[0] < w[1]), "{xml}");
}

#[test]
fn document_order_survives_sort_via_sequence_numbers() {
    let original =
        parse_dom(br#"<r><x k="z"><b k="9"/><a k="1"/></x><y k="a"/><w k="m"/></r>"#).unwrap();
    let mut annotated = original.clone();
    annotate_order(&mut annotated);
    // Full external sort of the annotated document by k.
    let spec = SortSpec::by_attribute("k");
    let sorted = sort_doc(&annotated.to_xml(false), &spec);
    let mut back = events_to_dom(&sorted.to_events().unwrap()).unwrap();
    assert_ne!(back, annotated, "sorting must have reordered something");
    restore_order(&mut back);
    assert_eq!(back, original);
}

#[test]
fn merging_empty_ish_documents() {
    let spec = SortSpec::by_attribute("k");
    let a = sort_doc(br#"<r><x k="1"/></r>"#, &spec);
    let b = sort_doc(br#"<r/>"#, &spec);
    let (out, dict) = merge_sorted(&a, &b);
    let dom = events_to_dom(&recs_to_events(&out, &dict).unwrap()).unwrap();
    assert_eq!(dom.children.len(), 1);
}
