//! Document-order preservation through sort + merge (Example 1.1's closing
//! note: "this approach also can be adapted to preserve the original
//! document ordering (by recording an additional sequence number attribute
//! for each child element and performing a final sort according to this
//! sequence number)").

use nexsort_xml::{Element, KeyRule, SortSpec, XNode};

/// The attribute used to remember original positions.
pub const SEQ_ATTR: &str = "__seq";

/// Annotate every element with its sibling position under [`SEQ_ATTR`].
pub fn annotate_order(root: &mut Element) {
    let mut todo = vec![root];
    while let Some(e) = todo.pop() {
        for (idx, c) in e.children.iter_mut().enumerate() {
            if let XNode::Elem(child) = c {
                child.attrs.push((SEQ_ATTR.as_bytes().to_vec(), idx.to_string().into_bytes()));
                todo.push(child);
            }
        }
    }
}

/// Restore original document order by sorting on the sequence attribute,
/// then strip the annotations.
pub fn restore_order(root: &mut Element) {
    let spec = SortSpec::uniform(KeyRule::attr_numeric(SEQ_ATTR));
    nexsort_baseline::sort_dom(root, &spec, None);
    let mut todo = vec![root];
    while let Some(e) = todo.pop() {
        e.attrs.retain(|(k, _)| k != SEQ_ATTR.as_bytes());
        for c in &mut e.children {
            if let XNode::Elem(child) = c {
                todo.push(child);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_baseline::sorted_dom;
    use nexsort_xml::parse_dom;

    #[test]
    fn annotate_sort_restore_roundtrips_to_the_original() {
        let original =
            parse_dom(b"<r><b name=\"z\"><y name=\"2\"/><x name=\"1\"/></b><a name=\"q\"/></r>")
                .unwrap();
        let mut annotated = original.clone();
        annotate_order(&mut annotated);
        // Sort scrambles sibling order...
        let spec = nexsort_xml::SortSpec::by_attribute("name");
        let mut sorted = sorted_dom(&annotated, &spec, None);
        assert_ne!(sorted, annotated);
        // ...and the sequence numbers bring it back.
        restore_order(&mut sorted);
        assert_eq!(sorted, original);
    }

    #[test]
    fn annotations_are_stripped_from_the_result() {
        let mut d = parse_dom(b"<r><a name=\"1\"/></r>").unwrap();
        annotate_order(&mut d);
        assert!(d.to_xml(false).windows(5).any(|w| w == b"__seq"));
        restore_order(&mut d);
        assert!(!d.to_xml(false).windows(5).any(|w| w == b"__seq"));
    }

    #[test]
    fn annotation_survives_a_merge_scenario() {
        // Sort two documents with seq annotations, merge them, restore: the
        // merged children appear in a deterministic interleaved order.
        let mut a = parse_dom(b"<r><x name=\"m\"/><x name=\"a\"/></r>").unwrap();
        annotate_order(&mut a);
        let spec = nexsort_xml::SortSpec::by_attribute("name");
        let mut sorted = sorted_dom(&a, &spec, None);
        restore_order(&mut sorted);
        let plain = parse_dom(b"<r><x name=\"m\"/><x name=\"a\"/></r>").unwrap();
        assert_eq!(sorted, plain);
    }
}
