//! The three sorters -- NEXSORT (standard and degeneration variants), the
//! key-path external merge-sort baseline, and the internal-memory recursive
//! oracle -- must agree exactly on every input, criterion, and
//! configuration.

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::{sort_xml_extent, sorted_dom, stage_input, BaselineOptions};
use nexsort_datagen::{collect_events, ExactGen, GenConfig, IbmGen};
use nexsort_extmem::Disk;
use nexsort_xml::{events_to_dom, events_to_xml, parse_dom, Element, KeyRule, SortSpec};

fn nexsort_result(xml: &[u8], spec: &SortSpec, opts: NexsortOptions, block_size: usize) -> Element {
    let disk = Disk::new_mem(block_size);
    let input = stage_input(&disk, xml).unwrap();
    let sorted = Nexsort::new(disk, opts, spec.clone()).unwrap().sort_xml_extent(&input).unwrap();
    events_to_dom(&sorted.to_events().unwrap()).unwrap()
}

fn baseline_result(xml: &[u8], spec: &SortSpec, mem: usize, block_size: usize) -> Element {
    let disk = Disk::new_mem(block_size);
    let input = stage_input(&disk, xml).unwrap();
    let opts = BaselineOptions { mem_frames: mem, ..Default::default() };
    let sorted = sort_xml_extent(&disk, &input, spec, &opts).unwrap();
    events_to_dom(&sorted.to_events().unwrap()).unwrap()
}

fn agreement_case(xml: &[u8], spec: &SortSpec) {
    let oracle = sorted_dom(&parse_dom(xml).unwrap(), spec, None);
    // NEXSORT across thresholds and memory sizes.
    for (mem, threshold) in [(8usize, Some(1u64)), (8, None), (16, Some(64)), (32, Some(1 << 20))] {
        let opts = NexsortOptions { mem_frames: mem, threshold, ..Default::default() };
        let got = nexsort_result(xml, spec, opts, 512);
        assert_eq!(got, oracle, "nexsort mem={mem} t={threshold:?}");
    }
    // Degeneration variant (start-known keys only).
    if !spec.has_deferred_keys() {
        for mem in [9usize, 16, 64] {
            let opts = NexsortOptions { mem_frames: mem, degeneration: true, ..Default::default() };
            let got = nexsort_result(xml, spec, opts, 512);
            assert_eq!(got, oracle, "nexsort+degen mem={mem}");
        }
    }
    // Baseline across memory sizes.
    for mem in [4usize, 16] {
        let got = baseline_result(xml, spec, mem, 512);
        assert_eq!(got, oracle, "baseline mem={mem}");
    }
}

#[test]
fn agreement_on_ibm_style_documents() {
    for seed in 0..4u64 {
        let mut g = IbmGen::new(5, 7, Some(400), GenConfig { seed, ..Default::default() });
        let xml = events_to_xml(&collect_events(&mut g).unwrap(), false);
        agreement_case(&xml, &SortSpec::by_attribute("k"));
    }
}

#[test]
fn agreement_on_exact_shapes() {
    for fanouts in [vec![50u64], vec![10, 8], vec![5, 5, 5], vec![2, 2, 2, 2, 2, 2]] {
        let mut g = ExactGen::new(&fanouts, GenConfig::default());
        let xml = events_to_xml(&collect_events(&mut g).unwrap(), false);
        agreement_case(&xml, &SortSpec::by_attribute("k"));
    }
}

#[test]
fn agreement_with_numeric_keys_and_overrides() {
    let doc = br#"<org>
      <dept name="ops"><emp ID="10"/><emp ID="9"/><emp ID="100"/></dept>
      <dept name="eng"><emp ID="3"/><emp ID="30"/><note>hi</note></dept>
    </org>"#;
    let spec = SortSpec::by_attribute("name")
        .with_rule("emp", KeyRule::attr_numeric("ID"))
        .with_rule("note", KeyRule::doc_order());
    agreement_case(doc, &spec);
}

#[test]
fn agreement_with_deferred_text_keys() {
    let doc = br#"<list>
      <entry><t>pear</t></entry><entry><t>fig</t></entry>
      <entry><t>apple</t></entry><entry><t>mango</t></entry>
    </list>"#;
    let spec = SortSpec::uniform(KeyRule::doc_order())
        .with_rule("entry", KeyRule::child_path(&["t"]))
        .with_rule("t", KeyRule::text());
    agreement_case(doc, &spec);
}

#[test]
fn agreement_with_mixed_content_and_duplicate_keys() {
    let doc = br#"<r>
      <x k="dup">first</x><x k="dup">second</x>
      loose text
      <x k="aaa"/><x k="dup">third</x>
    </r>"#;
    agreement_case(doc, &SortSpec::by_attribute("k"));
}

#[test]
fn agreement_on_deep_narrow_documents() {
    let mut doc = String::new();
    for i in 0..40 {
        doc.push_str(&format!("<n k=\"{:02}\"><leaf k=\"z{i}\"/>", 39 - i));
    }
    for _ in 0..40 {
        doc.push_str("</n>");
    }
    agreement_case(doc.as_bytes(), &SortSpec::by_attribute("k"));
}

#[test]
fn degeneration_handles_boundary_sized_documents() {
    // Documents right around the staging-capacity boundary.
    let spec = SortSpec::by_attribute("k");
    for n in [1u64, 2, 3, 10, 60, 61, 62, 120] {
        let mut g = ExactGen::new(&[n], GenConfig::default());
        let xml = events_to_xml(&collect_events(&mut g).unwrap(), false);
        let oracle = sorted_dom(&parse_dom(&xml).unwrap(), &spec, None);
        let opts = NexsortOptions { mem_frames: 9, degeneration: true, ..Default::default() };
        let got = nexsort_result(&xml, &spec, opts, 512);
        assert_eq!(got, oracle, "flat doc n={n}");
    }
}

#[test]
fn single_element_and_tiny_documents() {
    for doc in [
        &b"<only/>"[..],
        b"<a><b/></a>",
        b"<a>text</a>",
        b"<a k=\"1\"><b k=\"2\"/><c k=\"0\"/></a>",
    ] {
        agreement_case(doc, &SortSpec::by_attribute("k"));
    }
}

/// Under a depth limit only the elements at level `<= d` have their
/// children reordered. Degeneration spills incomplete runs sorted by key
/// path whenever staging fills mid-subtree, so those key paths must mask
/// the deeper levels exactly as the baseline's do, or the deeper sibling
/// lists come out sorted. Small memory makes the subtrees span flushes.
#[test]
fn degeneration_nexsort_and_baseline_agree_under_depth_limits() {
    let spec = SortSpec::by_attribute("k");
    for (fanouts, seed) in [(vec![3u64, 4, 5, 5], 9u64), (vec![2, 3, 3, 3, 4], 4)] {
        let mut g = ExactGen::new(&fanouts, GenConfig { seed, ..Default::default() });
        let xml = events_to_xml(&collect_events(&mut g).unwrap(), false);
        for depth in [1u32, 2, 3] {
            let oracle = sorted_dom(&parse_dom(&xml).unwrap(), &spec, Some(depth));
            let disk = Disk::new_mem(512);
            let input = stage_input(&disk, &xml).unwrap();
            let opts = NexsortOptions {
                mem_frames: 9,
                degeneration: true,
                depth_limit: Some(depth),
                ..Default::default()
            };
            let degen = Nexsort::new(disk, opts, spec.clone()).unwrap().sort_xml_extent(&input);
            let degen = degen.unwrap();
            assert!(degen.report.incomplete_runs > 1, "{}", degen.report.summary());
            let got = events_to_dom(&degen.to_events().unwrap()).unwrap();
            assert_eq!(got, oracle, "degen {fanouts:?} depth {depth}");
            let opts =
                NexsortOptions { mem_frames: 9, depth_limit: Some(depth), ..Default::default() };
            assert_eq!(nexsort_result(&xml, &spec, opts, 512), oracle, "nexsort depth {depth}");
            let disk = Disk::new_mem(512);
            let input = stage_input(&disk, &xml).unwrap();
            let opts =
                BaselineOptions { mem_frames: 9, depth_limit: Some(depth), ..Default::default() };
            let sorted = sort_xml_extent(&disk, &input, &spec, &opts).unwrap();
            let got = events_to_dom(&sorted.to_events().unwrap()).unwrap();
            assert_eq!(got, oracle, "baseline depth {depth}");
        }
    }
}
