//! Peak RSS follows the sort memory `M`, not the document.
//!
//! `xsort sort --device FILE` keeps the device image on disk, stages the
//! input through a fixed buffer and streams the sorted records straight into
//! a buffered writer. What stays resident is then `M` frames, O(depth)
//! open-tag names and two 64 KiB stream buffers, so a document 8 times
//! larger must not raise the peak resident set by more than a small
//! constant. `xsort check` streams the sorted documents back through the
//! parser and must hold as little, from a file and from a pipe alike.
//! Peak RSS is read the way the benchmark
//! reads it: by polling `VmHWM` in `/proc/<pid>/status` while the child
//! runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

const XSORT: &str = env!("CARGO_BIN_EXE_xsort");

/// The most the 8x document may add to the peak resident set, in KiB.
/// Streaming adds well under 1 MiB here (extent block lists grow with the
/// input); holding the document in memory at any stage adds tens of MiB.
const MAX_GROWTH_KB: u64 = 4 * 1024;

/// The benchmark's sort flags: 4 KiB blocks, `M` = 96 KiB, sort by `@k`.
const SORT_FLAGS: [&str; 6] = ["--block", "4K", "--mem", "96K", "--default", "@k"];

fn tempdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xsort-bounded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn gen(shape: &str, out: &Path) {
    let status =
        Command::new(XSORT).args(["gen", shape, "--seed", "7", "-o"]).arg(out).status().unwrap();
    assert!(status.success(), "xsort gen {shape} failed");
}

/// Run `sort` to completion and return its peak `VmHWM` in KiB. The file
/// `stdin`, when given, is written into a real pipe on its standard input
/// by a writer thread.
fn peak_kb(mut sort: Command, stdin: Option<&Path>) -> u64 {
    let piped = if stdin.is_some() { Stdio::piped() } else { Stdio::null() };
    let mut child = sort.stdin(piped).stdout(Stdio::null()).spawn().unwrap();
    let writer = stdin.map(|path| {
        let mut pipe = child.stdin.take().unwrap();
        let mut file = std::fs::File::open(path).unwrap();
        std::thread::spawn(move || std::io::copy(&mut file, &mut pipe).unwrap())
    });
    let status = format!("/proc/{}/status", child.id());
    let mut peak = 0;
    loop {
        if let Ok(text) = std::fs::read_to_string(&status) {
            let kb = text
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok());
            peak = peak.max(kb.unwrap_or(0));
        }
        if let Some(exit) = child.try_wait().unwrap() {
            assert!(exit.success(), "{sort:?} failed");
            if let Some(writer) = writer {
                writer.join().unwrap();
            }
            return peak;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// `xsort sort INPUT` with the benchmark's flags, writing to `output`.
fn sort(input: &Path, output: &Path) -> Command {
    let mut cmd = Command::new(XSORT);
    cmd.arg("sort").arg(input).args(SORT_FLAGS).arg("-o").arg(output);
    cmd
}

fn sort_on_file_device(input: &Path, device: &Path, output: &Path) -> u64 {
    let mut cmd = sort(input, output);
    cmd.arg("--device").arg(device);
    peak_kb(cmd, None)
}

#[test]
fn peak_rss_does_not_grow_with_the_document_on_a_file_device() {
    let dir = tempdir();
    let (small, large) = (dir.join("1x.xml"), dir.join("8x.xml"));
    gen("exact:8,8,85", &small);
    gen("exact:8,8,85,8", &large);
    let ratio = std::fs::metadata(&large).unwrap().len() / std::fs::metadata(&small).unwrap().len();
    assert!(ratio >= 8, "the large document is only {ratio}x the small one");

    let device = dir.join("dev.bin");
    let hwm_1x = sort_on_file_device(&small, &device, &dir.join("1x.out.xml"));
    let hwm_8x = sort_on_file_device(&large, &device, &dir.join("8x.out.xml"));
    let growth = hwm_8x.saturating_sub(hwm_1x);
    assert!(
        growth < MAX_GROWTH_KB,
        "peak RSS grew by {growth} KiB ({hwm_1x} -> {hwm_8x}) for an 8x larger document; \
         the bound is {MAX_GROWTH_KB} KiB"
    );

    // `check` streams its input as well: checking the sorted 8x document
    // holds no more than checking the 1x one.
    let check = |doc: &Path| {
        let mut cmd = Command::new(XSORT);
        cmd.arg("check").arg(doc).args(["--default", "@k"]);
        peak_kb(cmd, None)
    };
    let check_1x = check(&dir.join("1x.out.xml"));
    let check_8x = check(&dir.join("8x.out.xml"));
    let growth = check_8x.saturating_sub(check_1x);
    assert!(
        growth < MAX_GROWTH_KB,
        "check's peak RSS grew by {growth} KiB ({check_1x} -> {check_8x}) for an 8x larger \
         document; the bound is {MAX_GROWTH_KB} KiB"
    );

    // The same through a real pipe: `/dev/stdin` is then a FIFO with no
    // length up front, and `check` still streams it.
    let check_pipe = |doc: &Path| {
        let mut cmd = Command::new(XSORT);
        cmd.args(["check", "/dev/stdin", "--default", "@k"]);
        peak_kb(cmd, Some(doc))
    };
    let pipe_1x = check_pipe(&dir.join("1x.out.xml"));
    let pipe_8x = check_pipe(&dir.join("8x.out.xml"));
    let growth = pipe_8x.saturating_sub(pipe_1x);
    assert!(
        growth < MAX_GROWTH_KB,
        "check's peak RSS on a pipe grew by {growth} KiB ({pipe_1x} -> {pipe_8x}) for an 8x \
         larger document; the bound is {MAX_GROWTH_KB} KiB"
    );

    // The streamed output is the in-memory device's output, byte for byte.
    let in_mem = dir.join("8x.mem.xml");
    let status = sort(&large, &in_mem).status().unwrap();
    assert!(status.success());
    assert!(std::fs::read(dir.join("8x.out.xml")).unwrap() == std::fs::read(&in_mem).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}
