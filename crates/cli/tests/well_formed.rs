//! Input that is not one well-formed document fails at the byte where it
//! stops being one, whichever sorter reads it; `xsort check` streams its
//! input and gives the verdict the whole-document check gave.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const XSORT: &str = env!("CARGO_BIN_EXE_xsort");

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xsort-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn xsort(args: &[&str]) -> Output {
    Command::new(XSORT).args(args).output().unwrap()
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn a_second_root_element_fails_every_sorter_and_check_at_its_offset() {
    let dir = tempdir("two-roots");
    let input = dir.join("two.xml");
    std::fs::write(&input, b"<a k=\"1\"/><b k=\"2\"/>").unwrap();
    let want = "XML parse error at byte 10: a second root element";
    for algo in ["nexsort", "degen", "mergesort"] {
        let out = dir.join(format!("{algo}.xml"));
        let done =
            xsort(&["sort", path(&input), "--algo", algo, "--default", "@k", "-o", path(&out)]);
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert!(!done.status.success(), "{algo} accepted two roots");
        assert!(stderr.contains(want), "{algo}: {stderr}");
        assert!(!out.exists(), "{algo} left an output file");
    }
    let done = xsort(&["check", path(&input), "--default", "@k"]);
    assert!(!done.status.success(), "check accepted two roots");
    assert!(String::from_utf8_lossy(&done.stderr).contains(want));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn streamed_check_accepts_sorted_output_and_names_the_first_misorder() {
    let dir = tempdir("check");
    let doc = dir.join("doc.xml");
    // Keys by text (deferred to the end tag) and by attribute.
    std::fs::write(
        &doc,
        "<r><p k=\"2\"><n>zed</n><n>amy</n></p><p k=\"1\"><n>bo</n>tail</p></r>".as_bytes(),
    )
    .unwrap();
    for rule in ["@k", "text"] {
        let sorted = dir.join(format!("sorted-{rule}.xml"));
        let done = xsort(&["sort", path(&doc), "--default", rule, "-o", path(&sorted)]);
        assert!(done.status.success(), "{}", String::from_utf8_lossy(&done.stderr));
        let done = xsort(&["check", path(&sorted), "--default", rule, "--stats"]);
        assert!(done.status.success(), "{}", String::from_utf8_lossy(&done.stderr));
        assert!(String::from_utf8_lossy(&done.stderr).contains("check: 10 records, fully sorted"));
    }
    let done = xsort(&["check", path(&doc), "--default", "@k"]);
    assert!(
        String::from_utf8_lossy(&done.stderr).contains("NOT SORTED: level 2 key 1 appears after 2")
    );
    // Under `text` the deferred keys compare when their elements close.
    let done = xsort(&["check", path(&doc), "--default", "text"]);
    assert!(String::from_utf8_lossy(&done.stderr)
        .contains("NOT SORTED: level 3 key amy appears after zed"));
    std::fs::remove_dir_all(&dir).unwrap();
}
