//! The four workloads, their inputs, and the in-memory oracle their outputs
//! are checked against.

use nexsort_datagen::{ExactGen, GenConfig};
use nexsort_xml::{events_to_xml, parse_dom, Element, EventSource, SortSpec};

/// Which sorter `xsort sort --algo` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Nexsort,
    Degen,
    Mergesort,
}

impl Algo {
    pub fn flag(self) -> &'static str {
        match self {
            Algo::Nexsort => "nexsort",
            Algo::Degen => "degen",
            Algo::Mergesort => "mergesort",
        }
    }
}

/// How a workload reaches the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `xsort sort` child process per sort.
    Cli(Algo),
    /// One `xsort serve` child, driven over a Unix socket by two clients.
    Daemon,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `ExactGen` per-level fan-outs of the full and the `--quick` input.
    pub fanouts: &'static [u64],
    pub quick_fanouts: &'static [u64],
}

impl Workload {
    pub fn fanouts(&self, quick: bool) -> &'static [u64] {
        if quick {
            self.quick_fanouts
        } else {
            self.fanouts
        }
    }
}

/// Device block size and sort memory of every workload: `--block 4K
/// --mem 96K` on the command line, 24 frames in a daemon job. The CLI
/// inputs are 7-8 MB, about 75 times the sort memory.
pub const BLOCK: usize = 4096;
pub const MEM_FRAMES: usize = 24;
/// The ordering every workload sorts by (`--default @k`).
pub const DEFAULT_RULE: &str = "@k";

pub const WORKLOADS: [Workload; 4] = [
    // Figure 6 shape (maximum fan-out 85) at about 50k elements: each
    // bottom-level subtree exceeds the threshold and fits in memory, so 577
    // internal subtree sorts, data-stack paging, parse and output do the
    // work and the merge path stays idle.
    Workload {
        name: "cli-deep",
        kind: Kind::Cli(Algo::Nexsort),
        fanouts: &[24, 24, 85],
        quick_fanouts: &[4, 4, 85],
    },
    // Table 2 height 2 at 1/64 scale (`table2_shapes(64)`): no subtree
    // sorts; 79 incomplete runs and 4 degenerate k-way merges, two thirds of
    // the transfers sort-scratch. Isolates the merge layer cli-deep skips.
    Workload {
        name: "cli-flat",
        kind: Kind::Cli(Algo::Degen),
        fanouts: &[46875],
        quick_fanouts: &[2930],
    },
    // Table 2 height 6 at 1/64 scale: the paper's key-path merge-sort
    // baseline, 3 passes over 128 runs at fan-in 22 with long key-path
    // records. A merge change that helps short keys but hurts long ones
    // shows here.
    Workload {
        name: "cli-keypath",
        kind: Kind::Cli(Algo::Mergesort),
        fanouts: &[8, 8, 9, 9, 9],
        quick_fanouts: &[5, 5, 5, 5, 5],
    },
    // 400-element (58 KB) jobs that fit in sort memory: protocol, accept,
    // queueing and job journaling dominate, so sort-layer gains must not
    // show here and server gains show only here.
    Workload {
        name: "daemon-small",
        kind: Kind::Daemon,
        fanouts: &[7, 7, 7],
        quick_fanouts: &[3, 3, 3],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The ordering criterion of `--default @k`.
pub fn spec() -> SortSpec {
    nexsort_xml::build_spec(Some(DEFAULT_RULE), &[]).expect("@k is a valid rule")
}

/// The document `xsort gen exact:F1,F2,.. --seed SEED` writes.
pub fn generate(fanouts: &[u64], seed: u64) -> Result<Vec<u8>, String> {
    let mut gen = ExactGen::new(fanouts, GenConfig { seed, ..Default::default() });
    let mut events = Vec::new();
    while let Some(ev) = gen.next_event().map_err(|e| e.to_string())? {
        events.push(ev);
    }
    Ok(events_to_xml(&events, false))
}

/// The fully sorted document, computed in memory by the internal sort.
pub fn oracle(input: &[u8]) -> Result<Element, String> {
    let dom = parse_dom(input).map_err(|e| format!("input does not parse: {e}"))?;
    Ok(nexsort_baseline::sorted_dom(&dom, &spec(), None))
}

/// Compare a sorted output with the oracle as a DOM.
pub fn check(output: &[u8], oracle: &Element) -> Result<(), String> {
    let got = parse_dom(output).map_err(|e| format!("output does not parse: {e}"))?;
    if &got == oracle {
        Ok(())
    } else {
        Err("output differs from the in-memory oracle".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_datagen::table2_shapes;

    #[test]
    fn table2_workloads_use_the_library_shapes() {
        let full = table2_shapes(64);
        assert_eq!(find("cli-flat").unwrap().fanouts, full[0].fanouts.as_slice());
        assert_eq!(find("cli-keypath").unwrap().fanouts, full[4].fanouts.as_slice());
        let quick = table2_shapes(1024);
        assert_eq!(find("cli-flat").unwrap().quick_fanouts, quick[0].fanouts.as_slice());
        assert_eq!(find("cli-keypath").unwrap().quick_fanouts, quick[4].fanouts.as_slice());
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = generate(&[3, 4], 7).unwrap();
        assert_eq!(a, generate(&[3, 4], 7).unwrap());
        assert_ne!(a, generate(&[3, 4], 8).unwrap());
        // Fixed-width keys and padding: the size, and so every I/O count,
        // is the same for every seed.
        assert_eq!(a.len(), generate(&[3, 4], 8).unwrap().len());
    }

    #[test]
    fn the_oracle_accepts_sorted_and_rejects_unsorted_documents() {
        let input = b"<r><x k=\"2\"/><x k=\"1\"/></r>";
        let want = oracle(input).unwrap();
        assert!(check(b"<r><x k=\"1\"></x><x k=\"2\"></x></r>", &want).is_ok());
        assert!(check(input, &want).is_err());
        assert!(check(b"<r>", &want).is_err());
    }
}
