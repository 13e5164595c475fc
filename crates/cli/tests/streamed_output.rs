//! `xsort` streams its output: what it writes to stdout or `-o` must equal,
//! byte for byte, the whole-document path (collect every record, rebuild
//! every event, serialize the lot), and a command that fails must leave
//! nothing at the `-o` path -- not even its `.part` file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use nexsort::{Nexsort, SortedDoc};
use nexsort_baseline::{sort_xml_extent, stage_input, BaselineOptions};
use nexsort_cli::app::{disk_spec, parse_args, Algo, Cli};
use nexsort_merge::{BatchUpdate, MergeOptions, StructuralMerge};
use nexsort_xml::{events_to_xml, recs_to_events, Rec, TagDict};

const XSORT: &str = env!("CARGO_BIN_EXE_xsort");

/// Small blocks and memory, so every sorter spills runs to the device.
const FLAGS: [&str; 6] = ["--block", "512", "--mem", "8K", "--default", "@k"];

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xsort-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn xsort(args: &[String]) -> Output {
    Command::new(XSORT).args(args).output().unwrap()
}

fn gen(shape: &str, seed: &str, out: &Path) {
    let done = xsort(&strings(&["gen", shape, "--seed", seed, "-o", &path_str(out)]));
    assert!(done.status.success(), "{}", String::from_utf8_lossy(&done.stderr));
}

fn strings(s: &[&str]) -> Vec<String> {
    s.iter().map(ToString::to_string).collect()
}

fn path_str(p: &Path) -> String {
    p.to_str().unwrap().to_string()
}

/// The command line `xsort` runs, parsed the way `xsort` parses it.
fn cli(args: &[String]) -> Cli {
    parse_args(args).unwrap()
}

/// Sort `input` as `cli` says, with the library, on a fresh device.
fn sort_nexsort(cli: &Cli, input: &Path) -> SortedDoc {
    let disk = disk_spec(cli).unwrap().build().unwrap().disk;
    let ext = stage_input(&disk, &std::fs::read(input).unwrap()).unwrap();
    let sorter = Nexsort::new(disk, cli.job.nexsort_options(false), cli.spec.clone()).unwrap();
    sorter.sort_xml_extent(&ext).unwrap()
}

/// The reference serialization: every record, then every event, then the
/// whole text, all held in memory.
fn whole_document_sort(cli: &Cli, input: &Path) -> Vec<u8> {
    if cli.algo == Algo::Mergesort {
        let disk = disk_spec(cli).unwrap().build().unwrap().disk;
        let ext = stage_input(&disk, &std::fs::read(input).unwrap()).unwrap();
        let opts = BaselineOptions {
            mem_frames: cli.job.mem_frames,
            compaction: true,
            depth_limit: cli.job.depth_limit,
        };
        let sorted = sort_xml_extent(&disk, &ext, &cli.spec, &opts).unwrap();
        return events_to_xml(&sorted.to_events().unwrap(), cli.job.pretty);
    }
    events_to_xml(&sort_nexsort(cli, input).to_events().unwrap(), cli.job.pretty)
}

#[test]
fn sort_output_equals_the_whole_document_path_for_every_algo() {
    let dir = tempdir("streamed-sort");
    let input = dir.join("in.xml");
    gen("exact:6,6,20", "3", &input);
    let out = dir.join("out.xml");
    for algo in ["nexsort", "degen", "mergesort"] {
        for pretty in [false, true] {
            let mut args = strings(&["sort", &path_str(&input), "--algo", algo]);
            args.extend(strings(&FLAGS));
            if pretty {
                args.push("--pretty".into());
            }
            let want = whole_document_sort(&cli(&args), &input);

            let to_stdout = xsort(&args);
            assert!(to_stdout.status.success(), "{}", String::from_utf8_lossy(&to_stdout.stderr));
            assert!(to_stdout.stdout == want, "{algo} pretty={pretty}: stdout differs");

            args.extend(strings(&["-o", &path_str(&out)]));
            let to_file = xsort(&args);
            assert!(to_file.status.success(), "{}", String::from_utf8_lossy(&to_file.stderr));
            assert!(std::fs::read(&out).unwrap() == want, "{algo} pretty={pretty}: -o differs");
            assert!(!dir.join("out.xml.part").exists(), "a finished sort leaves no part file");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run a structural `merge` or batch `update` with the library, collecting
/// every record before serializing the lot.
fn whole_document_combine(cli: &Cli, verb: &str, left: &Path, right: &Path) -> Vec<u8> {
    let (a, b) = (sort_nexsort(cli, left), sort_nexsort(cli, right));
    let (mut ca, mut cb) = (a.cursor().unwrap(), b.cursor().unwrap());
    let mut recs: Vec<Rec> = Vec::new();
    let mut collect = |r, _: &TagDict| {
        recs.push(r);
        Ok(())
    };
    let dict = if verb == "merge" {
        StructuralMerge::new(&a.dict, &b.dict, MergeOptions::default())
            .run(&mut ca, &mut cb, &mut collect)
            .unwrap()
            .0
    } else {
        BatchUpdate::new(&a.dict, &b.dict, MergeOptions::default())
            .run(&mut ca, &mut cb, &mut collect)
            .unwrap()
            .0
    };
    events_to_xml(&recs_to_events(&recs, &dict).unwrap(), cli.job.pretty)
}

#[test]
fn merge_and_update_outputs_equal_the_whole_document_path() {
    let dir = tempdir("streamed-merge");
    let (left, right) = (dir.join("a.xml"), dir.join("b.xml"));
    gen("exact:5,5,8", "1", &left);
    gen("exact:5,4,8", "2", &right);
    let out = dir.join("out.xml");
    for verb in ["merge", "update"] {
        for pretty in [false, true] {
            let mut args = strings(&[verb, &path_str(&left), &path_str(&right)]);
            args.extend(strings(&FLAGS));
            if pretty {
                args.push("--pretty".into());
            }
            let want = whole_document_combine(&cli(&args), verb, &left, &right);
            let to_stdout = xsort(&args);
            assert!(to_stdout.status.success(), "{}", String::from_utf8_lossy(&to_stdout.stderr));
            assert!(to_stdout.stdout == want, "{verb} pretty={pretty}: stdout differs");
            args.extend(strings(&["-o", &path_str(&out)]));
            assert!(xsort(&args).status.success());
            assert!(std::fs::read(&out).unwrap() == want, "{verb} pretty={pretty}: -o differs");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_sort_leaves_no_file_at_the_output_path() {
    let dir = tempdir("streamed-fail");
    let input = dir.join("in.xml");
    gen("exact:6,6,20", "3", &input);
    let out = dir.join("out.xml");
    for algo in ["nexsort", "mergesort"] {
        // Persistent bit flips with one retry: the sort must fail (exit 1
        // or a media-fault code), and must leave nothing behind.
        let mut args = strings(&["sort", &path_str(&input), "--algo", algo, "-o", &path_str(&out)]);
        args.extend(strings(&FLAGS));
        args.extend(strings(&["--fault-flips", "0.5", "--retries", "1"]));
        let failed = xsort(&args);
        assert!(!failed.status.success(), "{algo}: a sort under 50% bit flips succeeded");
        assert!(!out.exists(), "{algo}: a failed sort left a file at -o");
        assert!(!dir.join("out.xml.part").exists(), "{algo}: a failed sort left its part file");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
