//! Batch updates over a sorted document (Section 1).
//!
//! "Assume that the existing document is already sorted. We first sort the
//! batch of updates according to the same ordering criterion ... Then, we
//! can process the batched updates in a way similar to merging them with the
//! existing document. The result document remains sorted."
//!
//! The update batch is itself an XML document mirroring the base document's
//! structure, with the same root; elements may carry an `op` attribute:
//!
//! * `op="delete"`  -- remove the matching base element (and its subtree);
//! * `op="replace"` -- replace the matching subtree with the update's;
//! * no `op` / `op="merge"` -- structural-merge semantics: union attributes
//!   (the update's value wins), merge the children, insert when there is no
//!   match.
//!
//! The `op` attributes are stripped from the output. The pass is the walk
//! shared with [`crate::StructuralMerge`].

use nexsort_baseline::RecSource;
use nexsort_xml::{Rec, Result, TagDict};

use crate::walk::{walk, Job};

/// What a batch-update application did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Elements merged (matched, merge semantics).
    pub merged: u64,
    /// Subtrees deleted from the base.
    pub deleted: u64,
    /// Subtrees replaced wholesale.
    pub replaced: u64,
    /// Subtrees inserted from the batch (no base match).
    pub inserted: u64,
    /// Delete requests that matched nothing (ignored).
    pub missed_deletes: u64,
}

/// Applies a sorted update batch to a sorted base document.
pub struct BatchUpdate<'a> {
    dict_base: &'a TagDict,
    dict_upd: &'a TagDict,
}

impl<'a> BatchUpdate<'a> {
    /// An applier for a base document interned against `dict_base` and an
    /// update batch against `dict_upd`.
    pub fn new(dict_base: &'a TagDict, dict_upd: &'a TagDict) -> Self {
        Self { dict_base, dict_upd }
    }

    /// Apply the batch; emits the updated (still sorted) document, each
    /// record with the output dictionary its names are interned in. A batch
    /// whose root is named differently from the base's, or that deletes the
    /// root, is an error.
    pub fn run(
        self,
        base: &mut dyn RecSource,
        updates: &mut dyn RecSource,
        out: &mut dyn FnMut(Rec, &TagDict) -> Result<()>,
    ) -> Result<(TagDict, UpdateStats)> {
        let (dict, c) = walk(Job::Update, [self.dict_base, self.dict_upd], base, updates, out)?;
        let stats = UpdateStats {
            merged: c.merged,
            deleted: c.deleted,
            replaced: c.replaced,
            inserted: c.inserted,
            missed_deletes: c.missed_deletes,
        };
        Ok((dict, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_baseline::{sort_recs, VecRecSource};
    use nexsort_xml::{
        events_to_dom, events_to_recs, parse_events, recs_to_events, KeyRule, SortSpec,
    };

    fn spec() -> SortSpec {
        SortSpec::by_attribute("id").with_rule("r", KeyRule::doc_order())
    }

    fn sorted(doc: &str) -> (Vec<Rec>, TagDict) {
        let events = parse_events(doc.as_bytes()).unwrap();
        let mut dict = TagDict::new();
        let recs = events_to_recs(&events, &spec(), &mut dict, true).unwrap();
        (sort_recs(recs, true, None).unwrap(), dict)
    }

    fn apply(base: &str, upd: &str) -> (nexsort_xml::Element, UpdateStats) {
        let (rb, db) = sorted(base);
        let (ru, du) = sorted(upd);
        let b = BatchUpdate::new(&db, &du);
        let mut sb = VecRecSource::new(rb);
        let mut su = VecRecSource::new(ru);
        let mut out = Vec::new();
        let (dict, stats) = b
            .run(&mut sb, &mut su, &mut |r, _| {
                out.push(r);
                Ok(())
            })
            .unwrap();
        (events_to_dom(&recs_to_events(&out, &dict).unwrap()).unwrap(), stats)
    }

    const BASE: &str = "<r><e id=\"1\" v=\"a\"/><e id=\"2\" v=\"b\"><c id=\"9\"/></e>\
                        <e id=\"3\" v=\"c\"/></r>";

    #[test]
    fn delete_removes_the_matching_subtree() {
        let (dom, stats) = apply(BASE, "<r><e id=\"2\" op=\"delete\"/></r>");
        assert_eq!(stats.deleted, 1);
        let xml = String::from_utf8(dom.to_xml(false)).unwrap();
        assert!(!xml.contains("id=\"2\"") && !xml.contains("id=\"9\""));
        assert!(xml.contains("id=\"1\"") && xml.contains("id=\"3\""));
    }

    #[test]
    fn replace_swaps_the_whole_subtree() {
        let (dom, stats) =
            apply(BASE, "<r><e id=\"2\" op=\"replace\" v=\"new\"><d id=\"7\"/></e></r>");
        assert_eq!(stats.replaced, 1);
        let xml = String::from_utf8(dom.to_xml(false)).unwrap();
        assert!(xml.contains("v=\"new\"") && xml.contains("id=\"7\""));
        assert!(!xml.contains("id=\"9\""), "old children replaced");
        assert!(!xml.contains("op="), "op attribute stripped");
    }

    #[test]
    fn merge_updates_attributes_and_inserts_children() {
        let (dom, stats) = apply(BASE, "<r><e id=\"2\" v=\"patched\"><c id=\"10\"/></e></r>");
        assert_eq!(stats.merged, 2); // r and e#2
        let xml = String::from_utf8(dom.to_xml(false)).unwrap();
        assert!(xml.contains("v=\"patched\""), "update value wins: {xml}");
        assert!(xml.contains("id=\"9\"") && xml.contains("id=\"10\""));
    }

    #[test]
    fn inserts_land_in_sorted_position() {
        let (dom, stats) = apply(BASE, "<r><e id=\"25\" v=\"x\"/></r>");
        assert_eq!(stats.inserted, 1);
        let xml = String::from_utf8(dom.to_xml(false)).unwrap();
        let p1 = xml.find("id=\"2\"").unwrap();
        let p25 = xml.find("id=\"25\"").unwrap();
        let p3 = xml.find("id=\"3\"").unwrap();
        assert!(p1 < p25 && p25 < p3, "byte order 2 < 25 < 3: {xml}");
    }

    #[test]
    fn missed_deletes_are_counted_and_ignored() {
        let (dom, stats) = apply(BASE, "<r><e id=\"99\" op=\"delete\"/></r>");
        assert_eq!(stats.missed_deletes, 1);
        assert_eq!(stats.deleted, 0);
        assert_eq!(dom.children.len(), 3);
    }

    #[test]
    fn mixed_batch_applies_every_operation() {
        let upd = "<r><e id=\"1\" op=\"delete\"/><e id=\"2\" v=\"upd\"/>\
                   <e id=\"4\" v=\"ins\"/></r>";
        let (dom, stats) = apply(BASE, upd);
        assert_eq!((stats.deleted, stats.merged, stats.inserted), (1, 2, 1));
        let xml = String::from_utf8(dom.to_xml(false)).unwrap();
        assert!(!xml.contains("id=\"1\""));
        assert!(xml.contains("v=\"upd\"") && xml.contains("v=\"ins\""));
    }

    #[test]
    fn result_stays_sorted_so_updates_compose() {
        let (dom1, _) = apply(BASE, "<r><e id=\"0\" v=\"first\"/></r>");
        let resorted = nexsort_baseline::sorted_dom(&dom1, &spec(), None);
        assert_eq!(dom1, resorted, "batch update must preserve sortedness");
    }

    #[test]
    fn unknown_ops_are_rejected() {
        let (rb, db) = sorted(BASE);
        let (ru, du) = sorted("<r><e id=\"1\" op=\"explode\"/></r>");
        let b = BatchUpdate::new(&db, &du);
        let mut sb = VecRecSource::new(rb);
        let mut su = VecRecSource::new(ru);
        let res = b.run(&mut sb, &mut su, &mut |_, _| Ok(()));
        assert!(res.is_err());
    }
}
