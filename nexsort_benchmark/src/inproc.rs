//! The traced in-process run: the calls `xsort sort` makes, each wrapped in
//! a span, and the fused sort split into separate calls on the same bytes.
//! Spans sit around the benchmark's calls into each layer's public
//! functions; nothing inside the program is instrumented.

use std::path::Path;
use std::time::Instant;

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::{stage_input, BaselineOptions};
use nexsort_extmem::{Disk, DiskBuilder, IoCat, IoSnapshot};
use nexsort_xml::{events_to_recs, events_to_xml, parse_events, Rec, RecEmitter, TagDict};

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::{durations_ms, Tracer};
use crate::workload::{spec, Algo, BLOCK, MEM_FRAMES};
use crate::Tally;

/// Root span of one mirrored `xsort sort`.
pub const MIRROR_ROOT: &str = "cli.sort";
/// Root span of one split of the fused sort.
pub const SPLIT_ROOT: &str = "split";

/// What one mirrored sort produced and counted.
pub struct Mirror {
    pub xml: Vec<u8>,
    /// The `TOTAL` that `--stats` prints: the sort's logical transfers.
    pub sort_ios: IoSnapshot,
    /// Every transfer from staging to output, by category.
    pub all_ios: IoSnapshot,
    pub recs: Vec<Rec>,
    counts: Vec<(&'static str, f64)>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn fresh_disk() -> Result<std::rc::Rc<Disk>, String> {
    Ok(DiskBuilder::new(BLOCK).build().map_err(err)?.disk)
}

fn nexsort_options(algo: Algo) -> NexsortOptions {
    NexsortOptions {
        mem_frames: MEM_FRAMES,
        degeneration: algo == Algo::Degen,
        ..Default::default()
    }
}

fn baseline_options() -> BaselineOptions {
    BaselineOptions { mem_frames: MEM_FRAMES, ..Default::default() }
}

/// Sort `input` into `output` with the calls and options of `xsort sort
/// --algo ALGO --block 4K --mem 96K --default @k`, one span per call.
pub fn mirror(
    tr: &mut Tracer,
    trace: &str,
    algo: Algo,
    input: &Path,
    output: &Path,
) -> Result<Mirror, String> {
    let spec = spec();
    let root = tr.begin(MIRROR_ROOT, None, trace);
    let bytes = tr.span("cli.read_input", root, || std::fs::read(input)).map_err(err)?;
    let disk = fresh_disk()?;
    let before = disk.stats().snapshot();
    let ext = tr.span("baseline.stage_input", root, || stage_input(&disk, &bytes)).map_err(err)?;
    let (recs, sort_ios, dict, counts) = match algo {
        Algo::Nexsort | Algo::Degen => {
            let sorter = Nexsort::new(disk.clone(), nexsort_options(algo), spec).map_err(err)?;
            let doc = tr
                .span("core.sort_xml_extent", root, || sorter.try_sort_xml_extent(&ext))
                .map_err(err)?;
            let recs = tr.span("core.to_recs", root, || doc.to_recs()).map_err(err)?;
            let r = &doc.report;
            let counts = vec![
                ("core.subtree_sorts", f64::from(r.subtree_sorts)),
                ("core.internal_sorts", f64::from(r.internal_sorts)),
                ("core.external_sorts", f64::from(r.external_sorts)),
                ("core.degenerate_merges", f64::from(r.degenerate_merges)),
            ];
            (recs, r.io, doc.dict.clone(), counts)
        }
        Algo::Mergesort => {
            let sorted = tr
                .span("baseline.sort_xml_extent", root, || {
                    nexsort_baseline::sort_xml_extent(&disk, &ext, &spec, &baseline_options())
                })
                .map_err(err)?;
            let sort_ios = disk.stats().snapshot().since(&before);
            let recs = tr.span("baseline.to_recs", root, || sorted.to_recs()).map_err(err)?;
            let r = &sorted.report;
            let counts = vec![
                ("baseline.passes", f64::from(r.passes)),
                ("baseline.initial_runs", f64::from(r.initial_runs)),
                ("baseline.fan_in", r.fan_in as f64),
                ("baseline.pathed_mb", r.bytes as f64 / 1e6),
            ];
            (recs, sort_ios, sorted.dict.clone(), counts)
        }
    };
    let events = tr
        .span("xml.rec_emit", root, || {
            let mut em = RecEmitter::new(&dict);
            let mut out = Vec::new();
            for r in &recs {
                em.push_rec(r, &mut out)?;
            }
            em.finish(&mut out);
            Ok::<_, nexsort_xml::XmlError>(out)
        })
        .map_err(err)?;
    let xml = tr.span("xml.events_to_xml", root, || events_to_xml(&events, false));
    tr.span("cli.write_output", root, || std::fs::write(output, &xml)).map_err(err)?;
    tr.end(root);
    let all_ios = disk.stats().snapshot().since(&before);
    Ok(Mirror { xml, sort_ios, all_ios, recs, counts })
}

/// Re-run the fused sort of `input` as separate calls: parse, build
/// records (compaction and key extraction), encode, sort the encoded
/// extent, and replay the mirrored sort's transfer counts on a bare disk.
/// Returns the records the extent sort produced.
pub fn split(
    tr: &mut Tracer,
    trace: &str,
    algo: Algo,
    input: &[u8],
    replay_ios: &IoSnapshot,
) -> Result<Vec<Rec>, String> {
    let spec = spec();
    let root = tr.begin(SPLIT_ROOT, None, trace);
    let events = tr.span("xml.parse_events", root, || parse_events(input)).map_err(err)?;
    let mut dict = TagDict::new();
    let recs = tr
        .span("xml.events_to_recs", root, || events_to_recs(&events, &spec, &mut dict, true))
        .map_err(err)?;
    let encoded = tr
        .span("xml.rec_encode", root, || {
            let mut buf = Vec::new();
            for r in &recs {
                r.encode(&mut buf)?;
            }
            Ok::<_, nexsort_xml::XmlError>(buf)
        })
        .map_err(err)?;
    let disk = fresh_disk()?;
    let ext = stage_input(&disk, &encoded).map_err(err)?;
    let sorted = match algo {
        Algo::Nexsort | Algo::Degen => {
            let sorter = Nexsort::new(disk.clone(), nexsort_options(algo), spec).map_err(err)?;
            let doc = tr
                .span("core.sort_rec_extent", root, || sorter.sort_rec_extent(&ext, dict))
                .map_err(err)?;
            doc.to_recs().map_err(err)?
        }
        Algo::Mergesort => tr
            .span("baseline.sort_rec_extent", root, || {
                nexsort_baseline::sort_rec_extent(&disk, &ext, dict, &spec, &baseline_options())
            })
            .and_then(|sorted| sorted.to_recs())
            .map_err(err)?,
    };
    tr.span("extmem.disk_replay", root, || {
        replay(replay_ios.total_reads(), replay_ios.total_writes())
    })?;
    tr.end(root);
    Ok(sorted)
}

/// Perform `reads` and `writes` block transfers through `Disk::read_block`
/// and `Disk::write_block` on a fresh in-memory disk, cycling over a small
/// ring of blocks: the per-transfer cost of the accounting layer and device.
fn replay(reads: u64, writes: u64) -> Result<(), String> {
    const RING: u64 = 64;
    let disk = Disk::new_mem(BLOCK);
    let ring: Vec<u64> = (0..writes.min(RING)).map(|_| disk.alloc_block()).collect();
    if ring.is_empty() && reads > 0 {
        return Err("cannot replay reads of a sort that wrote nothing".into());
    }
    let slot = |i: u64| ring[(i % ring.len() as u64) as usize];
    let block = vec![0xA5u8; BLOCK];
    for i in 0..writes {
        disk.write_block(slot(i), &block, IoCat::SortScratch).map_err(err)?;
    }
    let mut buf = vec![0u8; BLOCK];
    for i in 0..reads {
        disk.read_block(slot(i), &mut buf, IoCat::SortScratch).map_err(err)?;
    }
    let done = disk.stats().snapshot();
    if (done.total_reads(), done.total_writes()) != (reads, writes) {
        return Err("the replay's transfer count drifted from the sort's".into());
    }
    Ok(())
}

/// Span names of the traced run and the metrics their median durations feed.
const SPAN_METRICS: [(&str, &str); 15] = [
    ("cli.read_input", "cli.read_input_ms"),
    ("baseline.stage_input", "baseline.stage_input_ms"),
    ("core.sort_xml_extent", "core.sort_xml_extent_ms"),
    ("baseline.sort_xml_extent", "baseline.sort_xml_extent_ms"),
    ("core.to_recs", "core.to_recs_ms"),
    ("baseline.to_recs", "baseline.to_recs_ms"),
    ("xml.rec_emit", "xml.rec_emit_ms"),
    ("xml.events_to_xml", "xml.events_to_xml_ms"),
    ("cli.write_output", "cli.write_output_ms"),
    ("xml.parse_events", "xml.parse_events_ms"),
    ("xml.events_to_recs", "xml.events_to_recs_ms"),
    ("xml.rec_encode", "xml.rec_encode_ms"),
    ("core.sort_rec_extent", "core.sort_rec_extent_ms"),
    ("baseline.sort_rec_extent", "baseline.sort_rec_extent_ms"),
    ("extmem.disk_replay", "extmem.disk_replay_ms"),
];

/// One document to sort in-process, as `xsort sort --algo ALGO` would.
pub struct Traced<'a> {
    pub label: &'a str,
    pub algo: Algo,
    pub input: &'a [u8],
    /// Where `input` is stored, for the mirrored read.
    pub in_path: &'a Path,
}

impl Traced<'_> {
    /// Mirror and split the sort at least `min_iters` times and until
    /// `budget_s` seconds have passed, checking each mirrored sort with
    /// `verify` and each split against it. Records the median duration of
    /// every span and the last sort's exact counts.
    pub fn run(
        &self,
        tr: &mut Tracer,
        m: &mut Metrics,
        tally: &mut Tally,
        budget_s: f64,
        min_iters: usize,
        verify: impl Fn(&Mirror) -> Result<(), String>,
    ) -> Result<(), String> {
        let out_path = self.in_path.with_extension("inproc.xml");
        let start = Instant::now();
        let mut iters = 0;
        let mut last = None;
        while iters < min_iters || start.elapsed().as_secs_f64() < budget_s {
            let trace = format!("{}/{iters}", self.label);
            iters += 1;
            let mirrored = mirror(tr, &trace, self.algo, self.in_path, &out_path)?;
            let split = split(tr, &trace, self.algo, self.input, &mirrored.sort_ios)?;
            tally.record(verify(&mirrored).and_then(|()| {
                if split == mirrored.recs {
                    Ok(())
                } else {
                    Err("the split sort's records differ from the fused sort's".into())
                }
            }));
            last = Some(mirrored);
        }
        for (span, metric) in SPAN_METRICS {
            m.set(metric, median(&durations_ms(tr.spans(), span)).unwrap_or(0.0));
        }
        record_counts(m, &last.expect("at least one iteration ran"));
        Ok(())
    }
}

/// The exact counts of one mirrored sort as per-layer metrics; counters of
/// the sorter a workload does not run report 0.
fn record_counts(m: &mut Metrics, mirror: &Mirror) {
    for name in [
        "core.subtree_sorts",
        "core.internal_sorts",
        "core.external_sorts",
        "core.degenerate_merges",
        "baseline.passes",
        "baseline.initial_runs",
        "baseline.fan_in",
        "baseline.pathed_mb",
    ] {
        m.set(name, 0.0);
    }
    for &(name, value) in &mirror.counts {
        m.set(name, value);
    }
    let io = &mirror.all_ios;
    for (name, cat) in [
        ("extmem.io.input_read", IoCat::InputRead),
        ("extmem.io.data_stack", IoCat::DataStack),
        ("extmem.io.path_stack", IoCat::PathStack),
        ("extmem.io.run_write", IoCat::RunWrite),
        ("extmem.io.run_read", IoCat::RunRead),
        ("extmem.io.sort_scratch", IoCat::SortScratch),
        ("extmem.io.output_write", IoCat::OutputWrite),
    ] {
        m.set(name, io.total(cat) as f64);
    }
    m.set("xml.records", mirror.recs.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{check, generate, oracle};

    #[test]
    fn mirror_and_split_agree_with_the_oracle_for_every_sorter() {
        let dir = std::env::temp_dir().join(format!("nexsort-bench-inproc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = generate(&[3, 40], 5).unwrap();
        let in_path = dir.join("in.xml");
        std::fs::write(&in_path, &input).unwrap();
        let want = oracle(&input).unwrap();
        for algo in [Algo::Nexsort, Algo::Degen, Algo::Mergesort] {
            let (mut tr, mut m, mut tally) =
                (Tracer::new(Instant::now()), Metrics::default(), Tally::default());
            let traced = Traced { label: "t", algo, input: &input, in_path: &in_path };
            traced.run(&mut tr, &mut m, &mut tally, 0.0, 2, |mir| check(&mir.xml, &want)).unwrap();
            assert_eq!((tally.attempted, tally.failed), (2, 0), "{algo:?}: {:?}", tally.errors);
            assert_eq!(tr.spans().iter().filter(|s| s.name == MIRROR_ROOT).count(), 2);
            assert_eq!(m.get("xml.records"), Some(124.0));
            assert!(m.get("extmem.io.input_read").unwrap() > 0.0);
            assert!(m.get("xml.parse_events_ms").unwrap() > 0.0);
            let sorted_by_baseline = m.get("baseline.sort_xml_extent_ms").unwrap() > 0.0;
            assert_eq!(sorted_by_baseline, algo == Algo::Mergesort);
            let out = std::fs::read(in_path.with_extension("inproc.xml")).unwrap();
            assert!(check(&out, &want).is_ok(), "the mirror writes the sorted document");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_performs_exactly_the_requested_transfers() {
        replay(300, 100).unwrap();
        replay(0, 5).unwrap();
        assert!(replay(3, 0).is_err());
    }
}
