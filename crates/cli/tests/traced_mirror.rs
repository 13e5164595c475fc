//! The in-process mirror of `xsort sort` that nexsort_benchmark's traced
//! runs build must describe the binary exactly.
//!
//! A traced benchmark run sorts the same document twice more, in-process:
//! once with the calls the CLI makes (`stage_input`, then
//! `Nexsort::try_sort_xml_extent` with options taken from
//! `NexsortOptions::default()`), and once split into parse, record
//! building, encoding and `Nexsort::sort_rec_extent`. It refuses the run
//! unless the mirror reports the same `--stats` TOTAL as `xsort`, the
//! mirror's records re-emitted as XML are `xsort`'s output bytes, and the
//! split yields the same records. A sorter setting that reaches the CLI
//! but not `NexsortOptions::default()` breaks the first check; these tests
//! make it fail here, on the shapes and flags the benchmark uses.

use std::path::{Path, PathBuf};
use std::process::Command;

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::stage_input;
use nexsort_extmem::DiskBuilder;
use nexsort_xml::{
    build_spec, events_to_recs, events_to_xml, parse_events, RecEmitter, SortSpec, TagDict,
};

const XSORT: &str = env!("CARGO_BIN_EXE_xsort");

/// `--block 4K --mem 96K`: 24 frames of 4 KiB.
const BLOCK: usize = 4096;
const MEM_FRAMES: usize = 24;
const SORT_FLAGS: [&str; 6] = ["--block", "4K", "--mem", "96K", "--default", "@k"];

/// The quick cli-deep shape and the daemon-small job shape, seed 42.
const SHAPES: [&str; 2] = ["exact:4,4,85", "exact:7,7,7"];

fn tempdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xsort-mirror-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec() -> SortSpec {
    build_spec(Some("@k"), &[]).unwrap()
}

/// `xsort sort --stats`: the output bytes and the TOTAL row.
fn xsort_sort(input: &Path, algo: &str, out: &Path) -> (Vec<u8>, u64) {
    let run = Command::new(XSORT)
        .arg("sort")
        .arg(input)
        .args(["--algo", algo, "--stats", "-o"])
        .arg(out)
        .args(SORT_FLAGS)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "xsort sort --algo {algo}: {stderr}");
    let total = stderr
        .lines()
        .find_map(|l| l.strip_prefix("TOTAL"))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or_else(|| panic!("no TOTAL row in --stats: {stderr}"));
    (std::fs::read(out).unwrap(), total)
}

fn options(degeneration: bool) -> NexsortOptions {
    NexsortOptions { mem_frames: MEM_FRAMES, degeneration, ..Default::default() }
}

#[test]
fn the_in_process_mirror_reproduces_xsorts_total_and_bytes() {
    let dir = tempdir();
    for shape in SHAPES {
        let input = dir.join("in.xml");
        let status = Command::new(XSORT)
            .args(["gen", shape, "--seed", "42", "-o"])
            .arg(&input)
            .status()
            .unwrap();
        assert!(status.success(), "xsort gen {shape}");
        let bytes = std::fs::read(&input).unwrap();
        for (algo, degeneration) in [("nexsort", false), ("degen", true)] {
            let case = format!("{shape} --algo {algo}");
            let (want_xml, want_total) = xsort_sort(&input, algo, &dir.join("out.xml"));

            // The mirror: the CLI's calls on a plain 4 KiB disk.
            let disk = DiskBuilder::new(BLOCK).build().unwrap().disk;
            let ext = stage_input(&disk, &bytes).unwrap();
            let sorter = Nexsort::new(disk, options(degeneration), spec()).unwrap();
            let doc = sorter.try_sort_xml_extent(&ext).unwrap_or_else(|f| panic!("{case}: {f}"));
            assert_eq!(doc.report.io.grand_total(), want_total, "{case}: TOTAL");
            let recs = doc.to_recs().unwrap();
            let mut em = RecEmitter::new(&doc.dict);
            let mut events = Vec::new();
            for r in &recs {
                em.push_rec(r, &mut events).unwrap();
            }
            em.finish(&mut events);
            assert!(events_to_xml(&events, false) == want_xml, "{case}: output bytes differ");

            // The split: the same records from a pre-encoded extent.
            let mut dict = TagDict::new();
            let parsed = parse_events(&bytes).unwrap();
            let mut encoded = Vec::new();
            for r in events_to_recs(&parsed, &spec(), &mut dict, true).unwrap() {
                r.encode(&mut encoded).unwrap();
            }
            let disk = DiskBuilder::new(BLOCK).build().unwrap().disk;
            let ext = stage_input(&disk, &encoded).unwrap();
            let sorter = Nexsort::new(disk, options(degeneration), spec()).unwrap();
            let split = sorter.sort_rec_extent(&ext, dict).unwrap().to_recs().unwrap();
            assert!(split == recs, "{case}: the split sort's records differ");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
