//! Batch updates over a sorted document (Section 1).
//!
//! "Assume that the existing document is already sorted. We first sort the
//! batch of updates according to the same ordering criterion ... Then, we
//! can process the batched updates in a way similar to merging them with the
//! existing document. The result document remains sorted."
//!
//! The update batch is itself an XML document mirroring the base document's
//! structure; elements may carry an `op` attribute:
//!
//! * `op="delete"`  -- remove the matching base element (and its subtree);
//! * `op="replace"` -- replace the matching subtree with the update's;
//! * no `op` / `op="merge"` -- structural-merge semantics: union attributes,
//!   recurse into children, insert when there is no match.
//!
//! The `op` attributes are stripped from the output.

use std::cmp::Ordering;

use nexsort_baseline::RecSource;
use nexsort_xml::{ElemRec, KeyValue, Rec, Result, TagDict, TextRec, XmlError};

use crate::cursor::Peek;
use crate::merge::MergeOptions;

/// The update operation an element in the batch requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Merge,
    Delete,
    Replace,
}

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
    opts: MergeOptions,
    dict_base: &'a TagDict,
    dict_upd: &'a TagDict,
    out_dict: TagDict,
    op_attr: Vec<u8>,
    stats: UpdateStats,
    next_seq: u64,
}

struct DynSource<'a, 'b>(&'a mut (dyn RecSource + 'b));

impl RecSource for DynSource<'_, '_> {
    fn next_rec(&mut self) -> Result<Option<Rec>> {
        self.0.next_rec()
    }
}

type P<'a, 'b> = Peek<DynSource<'a, 'b>>;

impl<'a> BatchUpdate<'a> {
    /// An applier for a base document interned against `dict_base` and an
    /// update batch against `dict_upd`.
    pub fn new(dict_base: &'a TagDict, dict_upd: &'a TagDict, opts: MergeOptions) -> Self {
        Self {
            opts,
            dict_base,
            dict_upd,
            out_dict: TagDict::new(),
            op_attr: b"op".to_vec(),
            stats: UpdateStats::default(),
            next_seq: 0,
        }
    }

    /// Apply the batch; emits the updated (still sorted) document, each
    /// record with the output dictionary its names are interned in.
    pub fn run(
        mut self,
        base: &mut dyn RecSource,
        updates: &mut dyn RecSource,
        out: &mut dyn FnMut(Rec, &TagDict) -> Result<()>,
    ) -> Result<(TagDict, UpdateStats)> {
        let mut pb = Peek::new(DynSource(base));
        let mut pu = Peek::new(DynSource(updates));
        self.apply_level(&mut pb, &mut pu, 1, out)?;
        Ok((self.out_dict, self.stats))
    }

    fn op_of(&self, rec: &Rec) -> Result<Op> {
        let Rec::Elem(e) = rec else { return Ok(Op::Merge) };
        for (k, v) in &e.attrs {
            if k.resolve(self.dict_upd)? == self.op_attr.as_slice() {
                return match v.as_slice() {
                    b"delete" => Ok(Op::Delete),
                    b"replace" => Ok(Op::Replace),
                    b"merge" | b"" => Ok(Op::Merge),
                    other => Err(XmlError::Record(format!(
                        "unknown update op {:?}",
                        String::from_utf8_lossy(other)
                    ))),
                };
            }
        }
        Ok(Op::Merge)
    }

    fn remap(&mut self, rec: Rec, from_base: bool) -> Result<Rec> {
        let dict = if from_base { self.dict_base } else { self.dict_upd };
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(match rec {
            Rec::Elem(e) => {
                let name = nexsort_xml::NameRef::Sym(self.out_dict.intern(e.name.resolve(dict)?));
                let mut attrs = Vec::with_capacity(e.attrs.len());
                for (k, v) in &e.attrs {
                    let kb = k.resolve(dict)?;
                    if !from_base && kb == self.op_attr.as_slice() {
                        continue; // strip op attributes from the output
                    }
                    attrs.push((nexsort_xml::NameRef::Sym(self.out_dict.intern(kb)), v.clone()));
                }
                Rec::Elem(ElemRec { level: e.level, name, attrs, key: e.key, seq })
            }
            Rec::Text(t) => {
                Rec::Text(TextRec { level: t.level, content: t.content, key: t.key, seq })
            }
            other => {
                return Err(XmlError::Record(format!(
                    "unexpected record kind in update input: {other:?}"
                )))
            }
        })
    }

    fn skip_subtree(src: &mut P<'_, '_>, level: u32) -> Result<()> {
        src.take()?;
        while let Some(r) = src.peek()? {
            if r.level() <= level {
                break;
            }
            src.take()?;
        }
        Ok(())
    }

    fn copy_subtree(
        &mut self,
        src: &mut P<'_, '_>,
        level: u32,
        from_base: bool,
        out: &mut dyn FnMut(Rec, &TagDict) -> Result<()>,
    ) -> Result<()> {
        let root = src.take()?.ok_or_else(|| XmlError::Record("copy from empty stream".into()))?;
        let mapped = self.remap(root, from_base)?;
        out(mapped, &self.out_dict)?;
        while let Some(r) = src.peek()? {
            if r.level() <= level {
                break;
            }
            let r = src.take()?.expect("peeked");
            let mapped = self.remap(r, from_base)?;
            out(mapped, &self.out_dict)?;
        }
        Ok(())
    }

    fn matchable(&self, rb: &Rec, ru: &Rec) -> Result<bool> {
        match (rb, ru) {
            (Rec::Elem(eb), Rec::Elem(eu)) => {
                let keys_ok = !self.opts.skip_missing_keys || !matches!(eb.key, KeyValue::Missing);
                let names_ok = !self.opts.match_requires_same_name
                    || eb.name.resolve(self.dict_base)? == eu.name.resolve(self.dict_upd)?;
                Ok(keys_ok && names_ok)
            }
            _ => Ok(false),
        }
    }

    fn apply_level(
        &mut self,
        base: &mut P<'_, '_>,
        upd: &mut P<'_, '_>,
        level: u32,
        out: &mut dyn FnMut(Rec, &TagDict) -> Result<()>,
    ) -> Result<()> {
        loop {
            let hb = base.peek_at(level)?.cloned();
            let hu = upd.peek_at(level)?.cloned();
            match (hb, hu) {
                (None, None) => return Ok(()),
                (Some(_), None) => self.copy_subtree(base, level, true, out)?,
                (None, Some(ru)) => self.apply_unmatched(upd, level, &ru, out)?,
                (Some(rb), Some(ru)) => match rb.key().cmp(ru.key()) {
                    Ordering::Less => self.copy_subtree(base, level, true, out)?,
                    Ordering::Greater => self.apply_unmatched(upd, level, &ru, out)?,
                    Ordering::Equal => {
                        if !self.matchable(&rb, &ru)? {
                            self.copy_subtree(base, level, true, out)?;
                            continue;
                        }
                        match self.op_of(&ru)? {
                            Op::Delete => {
                                Self::skip_subtree(base, level)?;
                                Self::skip_subtree(upd, level)?;
                                self.stats.deleted += 1;
                            }
                            Op::Replace => {
                                Self::skip_subtree(base, level)?;
                                self.copy_subtree(upd, level, false, out)?;
                                self.stats.replaced += 1;
                            }
                            Op::Merge => {
                                let (Some(Rec::Elem(eb)), Some(Rec::Elem(eu))) =
                                    (base.take()?, upd.take()?)
                                else {
                                    return Err(XmlError::Record("match on non-elements".into()));
                                };
                                let mut merged = self.remap(Rec::Elem(eb), true)?;
                                if let Rec::Elem(m) = &mut merged {
                                    for (k, v) in &eu.attrs {
                                        let kb = k.resolve(self.dict_upd)?;
                                        if kb == self.op_attr.as_slice() {
                                            continue;
                                        }
                                        // Updates overwrite base attributes.
                                        let sym =
                                            nexsort_xml::NameRef::Sym(self.out_dict.intern(kb));
                                        if let Some(slot) = m.attrs.iter_mut().find(|(mk, _)| {
                                            mk.resolve(&self.out_dict)
                                                .map(|n| n == kb)
                                                .unwrap_or(false)
                                        }) {
                                            slot.1 = v.clone();
                                        } else {
                                            m.attrs.push((sym, v.clone()));
                                        }
                                    }
                                }
                                self.stats.merged += 1;
                                out(merged, &self.out_dict)?;
                                self.apply_level(base, upd, level + 1, out)?;
                            }
                        }
                    }
                },
            }
        }
    }

    /// An update element with no base match: inserts merge/replace subtrees,
    /// ignores deletes.
    fn apply_unmatched(
        &mut self,
        upd: &mut P<'_, '_>,
        level: u32,
        head: &Rec,
        out: &mut dyn FnMut(Rec, &TagDict) -> Result<()>,
    ) -> Result<()> {
        match self.op_of(head)? {
            Op::Delete => {
                Self::skip_subtree(upd, level)?;
                self.stats.missed_deletes += 1;
            }
            Op::Merge | Op::Replace => {
                self.copy_subtree(upd, level, false, out)?;
                self.stats.inserted += 1;
            }
        }
        Ok(())
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
        let b = BatchUpdate::new(&db, &du, MergeOptions::default());
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
        let b = BatchUpdate::new(&db, &du, MergeOptions::default());
        let mut sb = VecRecSource::new(rb);
        let mut su = VecRecSource::new(ru);
        let res = b.run(&mut sb, &mut su, &mut |_, _| Ok(()));
        assert!(res.is_err());
    }
}
