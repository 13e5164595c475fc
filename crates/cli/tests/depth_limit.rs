//! `--depth u32::MAX` sorts every level: it gives exactly the bytes and
//! exit code of no `--depth`, for every sorter, `topk` and `check`.

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

/// Run `args` with and without `--depth 4294967295`; both must agree on
/// stdout, stderr and exit code.
fn same_as_unlimited(args: &[&str]) -> Output {
    let plain = xsort(args);
    let limited = xsort(&[args, &["--depth", "4294967295"]].concat());
    assert_eq!(limited.status.code(), plain.status.code(), "{args:?}");
    assert!(limited.stdout == plain.stdout, "{args:?}: output differs from the unlimited run");
    assert_eq!(
        String::from_utf8_lossy(&limited.stderr),
        String::from_utf8_lossy(&plain.stderr),
        "{args:?}"
    );
    plain
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn the_largest_depth_limit_is_no_limit() {
    let dir = tempdir("depth-max");
    // A height-6 tree (deep key paths) and a wide two-level one that
    // forces external subtree sorts at 8 frames.
    let shapes = [("deep", "exact:4,4,5,5,5", "9"), ("wide", "exact:40,60", "3")];
    for (name, shape, seed) in shapes {
        let input = dir.join(format!("{name}.xml"));
        let gen = xsort(&["gen", shape, "--seed", seed, "-o", path(&input)]);
        assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
        let mem = ["--default", "@k", "--block", "512", "--mem", "8K"];
        for algo in ["nexsort", "degen", "mergesort"] {
            let sorted =
                same_as_unlimited(&[&["sort", path(&input), "--algo", algo][..], &mem].concat());
            assert!(sorted.status.success(), "{name}/{algo}");
        }
        let top = same_as_unlimited(&[&["topk", path(&input), "-k", "25"][..], &mem].concat());
        assert!(top.status.success(), "{name}: topk");

        // The generated input is unsorted: check must say so, limit or not.
        let check = same_as_unlimited(&["check", path(&input), "--default", "@k"]);
        assert_eq!(check.status.code(), Some(1), "{name}: check accepted unsorted input");
        assert!(String::from_utf8_lossy(&check.stderr).contains("NOT SORTED"), "{name}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
