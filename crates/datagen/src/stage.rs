//! Staging generated documents onto a simulated disk.
//!
//! Generators stream events; these helpers put the resulting document on the
//! device -- as XML text (the honest full pipeline: the sorters then parse
//! it, paying `input-read` I/Os) or as a pre-encoded record extent (the
//! bench fast path that factors out parse CPU while keeping the measured
//! I/O identical). Staging itself is harness setup and is *not* charged:
//! its block writes are rolled back from the counters.

use std::rc::Rc;

use nexsort_extmem::{ByteSink, Disk, Extent, ExtentWriter, IoCat, MemoryBudget};
use nexsort_xml::{Event, EventSource, RecBuilder, Result, SortSpec, TagDict, XmlWriter};

/// A staged document ready to sort.
pub struct GeneratedDoc {
    /// Where the document's bytes live on the device.
    pub extent: Extent,
    /// The tag dictionary (record staging only; empty for XML text).
    pub dict: TagDict,
    /// Elements generated (start tags).
    pub n_elements: u64,
    /// Bytes staged.
    pub bytes: u64,
}

fn uncharged<T>(disk: &Rc<Disk>, f: impl FnOnce(&MemoryBudget) -> Result<T>) -> Result<T> {
    let budget = MemoryBudget::new(2);
    let stats = disk.stats();
    let before = stats.snapshot();
    let out = f(&budget)?;
    let delta = stats.snapshot().since(&before);
    // xlint::allow(R7): staged generation is invisible to measurements.
    stats.sub_writes(IoCat::SortScratch, delta.writes(IoCat::SortScratch));
    stats.sub_reads(IoCat::SortScratch, delta.reads(IoCat::SortScratch)); // xlint::allow(R7)
    stats.sub_phys_writes(IoCat::SortScratch, delta.phys_writes(IoCat::SortScratch)); // xlint::allow(R7)
    stats.sub_phys_reads(IoCat::SortScratch, delta.phys_reads(IoCat::SortScratch)); // xlint::allow(R7)
    Ok(out)
}

/// Stage a generated document as XML text.
pub fn stage_as_xml(disk: &Rc<Disk>, gen: &mut dyn EventSource) -> Result<GeneratedDoc> {
    uncharged(disk, |budget| {
        let w = ExtentWriter::new(disk.clone(), budget, IoCat::SortScratch)?;
        let mut xml = XmlWriter::new(w);
        let mut n_elements = 0u64;
        while let Some(ev) = gen.next_event()? {
            if matches!(ev, Event::Start { .. }) {
                n_elements += 1;
            }
            xml.write(&ev)?;
        }
        let extent = xml.into_inner()?.finish()?;
        let bytes = extent.len();
        Ok(GeneratedDoc { extent, dict: TagDict::new(), n_elements, bytes })
    })
}

/// Stage a generated document as an encoded record stream under `spec`
/// (keys pre-extracted, compaction per flag).
pub fn stage_as_recs(
    disk: &Rc<Disk>,
    gen: &mut dyn EventSource,
    spec: &SortSpec,
    compaction: bool,
) -> Result<GeneratedDoc> {
    uncharged(disk, |budget| {
        let mut w = ExtentWriter::new(disk.clone(), budget, IoCat::SortScratch)?;
        let mut builder = RecBuilder::new(spec.clone(), compaction);
        let mut dict = TagDict::new();
        let mut buf = Vec::new();
        let mut n_elements = 0u64;
        while let Some(ev) = gen.next_event()? {
            if matches!(ev, Event::Start { .. }) {
                n_elements += 1;
            }
            buf.clear();
            builder.push(&ev.view(), &mut dict, &mut buf)?;
            w.write_all(&buf)?;
        }
        let extent = w.finish()?;
        let bytes = extent.len();
        Ok(GeneratedDoc { extent, dict, n_elements, bytes })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExactGen, GenConfig};
    use nexsort_xml::KeyRule;

    #[test]
    fn xml_staging_is_parseable_and_uncharged() {
        let disk = Disk::new_mem(256);
        let mut g = ExactGen::new(&[5, 3], GenConfig::default());
        let doc = stage_as_xml(&disk, &mut g).unwrap();
        assert_eq!(doc.n_elements, 1 + 5 + 15);
        assert_eq!(disk.stats().grand_total(), 0);
        // Read it back (unstaged) and parse.
        let bytes = nexsort_baseline_readback(&disk, &doc.extent);
        let events = nexsort_xml::parse_events(&bytes).unwrap();
        assert_eq!(
            events.iter().filter(|e| matches!(e, Event::Start { .. })).count() as u64,
            doc.n_elements
        );
    }

    fn nexsort_baseline_readback(disk: &Rc<Disk>, ext: &Extent) -> Vec<u8> {
        use nexsort_extmem::{ByteReader, ExtentReader};
        let budget = MemoryBudget::new(1);
        let mut r = ExtentReader::new(disk.clone(), &budget, ext, IoCat::SortScratch).unwrap();
        let mut out = vec![0u8; ext.len() as usize];
        r.read_exact(&mut out).unwrap();
        disk.stats().reset();
        out
    }

    #[test]
    fn rec_staging_decodes_with_keys_attached() {
        use nexsort_extmem::ExtentReader;
        use nexsort_xml::{Rec, RecDecoder};
        let disk = Disk::new_mem(256);
        let mut g = ExactGen::new(&[4], GenConfig::default());
        let spec = SortSpec::uniform(KeyRule::attr("k"));
        let doc = stage_as_recs(&disk, &mut g, &spec, true).unwrap();
        assert_eq!(disk.stats().grand_total(), 0);
        let budget = MemoryBudget::new(1);
        let reader =
            ExtentReader::new(disk.clone(), &budget, &doc.extent, IoCat::SortScratch).unwrap();
        let mut dec = RecDecoder::new(reader);
        let mut n = 0u64;
        while let Some(r) = dec.next_rec().unwrap() {
            assert!(matches!(r, Rec::Elem(_)));
            if r.level() > 1 {
                assert_ne!(r.key(), &nexsort_xml::KeyValue::Missing);
            }
            n += 1;
        }
        assert_eq!(n, doc.n_elements);
        assert!(doc.dict.len() >= 2);
    }

    #[test]
    fn rec_staging_is_denser_than_xml_staging() {
        let disk = Disk::new_mem(256);
        let spec = SortSpec::uniform(KeyRule::attr("k"));
        let mut g1 = ExactGen::new(&[30], GenConfig::default());
        let xml = stage_as_xml(&disk, &mut g1).unwrap();
        let mut g2 = ExactGen::new(&[30], GenConfig::default());
        let recs = stage_as_recs(&disk, &mut g2, &spec, true).unwrap();
        assert!(recs.bytes < xml.bytes, "records {} vs xml {}", recs.bytes, xml.bytes);
    }
}
