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
    // A second root fails at its `<`; bytes that are not XML at all (a
    // binary container's magic number) fail at the first of them.
    let cases: [(&str, &[u8], &str); 2] = [
        ("two", b"<a k=\"1\"/><b k=\"2\"/>", "XML parse error at byte 10: a second root element"),
        (
            "binary",
            b"XREC1\x00\x01<\x02\xff",
            "XML parse error at byte 0: character data outside the root element",
        ),
    ];
    for (name, doc, want) in cases {
        let input = dir.join(format!("{name}.in"));
        std::fs::write(&input, doc).unwrap();
        for algo in ["nexsort", "degen", "mergesort"] {
            let out = dir.join(format!("{name}-{algo}.xml"));
            let done =
                xsort(&["sort", path(&input), "--algo", algo, "--default", "@k", "-o", path(&out)]);
            let stderr = String::from_utf8_lossy(&done.stderr);
            assert!(!done.status.success(), "{algo} accepted {name}");
            assert!(stderr.contains(want), "{algo}: {stderr}");
            assert!(!out.exists(), "{algo} left an output file");
        }
        let done = xsort(&["check", path(&input), "--default", "@k"]);
        assert!(!done.status.success(), "check accepted {name}");
        assert!(String::from_utf8_lossy(&done.stderr).contains(want));
    }
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

#[test]
fn client_submit_refuses_a_file_that_is_not_utf8_before_it_connects() {
    let dir = tempdir("submit-bytes");
    let sock = dir.join("d.sock");
    let connect = format!("unix:{}", path(&sock));
    /// Kills the daemon if the test fails before shutting it down.
    struct Daemon(std::process::Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daemon = Daemon(
        Command::new(XSORT)
            .args(["serve", "--listen", &connect, "--job-dir", path(&dir.join("jobs"))])
            .args(["--workers", "1"])
            .spawn()
            .unwrap(),
    );
    let up = (0..100).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(50));
        xsort(&["client", "ping", "--connect", &connect]).status.success()
    });
    assert!(up, "the daemon never answered a ping");
    // 0xE9 is Latin-1 'é': JSON text would carry it as U+FFFD.
    let input = dir.join("latin1.xml");
    std::fs::write(&input, b"<r><a k=\"caf\xE9\"/></r>").unwrap();
    let done = xsort(&["client", "submit", path(&input), "--connect", &connect, "--default", "@k"]);
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(!done.status.success(), "submit accepted bytes it would rewrite");
    assert!(stderr.contains("byte 12 (0xE9) is not UTF-8"), "{stderr}");
    let listed = xsort(&["client", "list", "--connect", &connect]);
    assert!(listed.status.success());
    assert!(String::from_utf8_lossy(&listed.stdout).contains("\"jobs\":[]"), "a job was made");
    assert!(xsort(&["client", "shutdown", "--connect", &connect]).status.success());
    daemon.0.wait().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `merge` and `update` write one root: the two inputs' same-named roots
/// combine whatever their keys, while roots with different names, or an
/// update that deletes the root, fail and leave no file at `-o`.
#[test]
fn merge_and_update_write_one_root_or_fail_without_output() {
    let dir = tempdir("one-root");
    let write = |name: &str, doc: &str| {
        let p = dir.join(name);
        std::fs::write(&p, doc).unwrap();
        p
    };
    let base = write("base.xml", "<r id=\"1\"><e id=\"1\"/></r>");
    let other = write("other.xml", "<r id=\"2\"><e id=\"2\"/></r>");
    let renamed = write("renamed.xml", "<s id=\"2\"><e id=\"2\"/></s>");
    let delete_root = write("delete.xml", "<r id=\"1\" op=\"delete\"/>");
    let out = dir.join("out.xml");
    let run = |verb: &str, right: &Path| {
        xsort(&[verb, path(&base), path(right), "--default", "@id", "-o", path(&out)])
    };

    for (verb, want) in [
        ("merge", "<r id=\"1\"><e id=\"1\"></e><e id=\"2\"></e></r>"),
        ("update", "<r id=\"2\"><e id=\"1\"></e><e id=\"2\"></e></r>"),
    ] {
        let done = run(verb, &other);
        assert!(done.status.success(), "{verb}: {}", String::from_utf8_lossy(&done.stderr));
        assert_eq!(std::fs::read_to_string(&out).unwrap(), want, "{verb}");
        let check = xsort(&["check", path(&out), "--default", "@id"]);
        assert!(check.status.success(), "{verb}: {}", String::from_utf8_lossy(&check.stderr));
        std::fs::remove_file(&out).unwrap();
    }

    let refused = [
        ("merge", &renamed, "the two roots differ: <r> and <s>"),
        ("update", &renamed, "the two roots differ: <r> and <s>"),
        ("update", &delete_root, "an update cannot delete the root element <r>"),
    ];
    for (verb, right, want) in refused {
        let done = run(verb, right);
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(1), "{verb} {right:?}: {stderr}");
        assert!(stderr.contains(want), "{verb} {right:?}: {stderr}");
        assert!(!out.exists(), "{verb} {right:?} left an output file");
        assert!(!dir.join("out.xml.part").exists(), "{verb} {right:?} left its part file");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
