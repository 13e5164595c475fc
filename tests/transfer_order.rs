//! Parsing runs on a worker thread, but every block transfer stays on the
//! sorting thread in an order fixed by the input: the same sort gives the
//! same transfer trace, run after run, for every algorithm, and a sort that
//! fails (a seeded fault, a parse error) fails the same way each time.

use std::rc::Rc;

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::{sort_xml_extent, stage_input, BaselineOptions};
use nexsort_datagen::{collect_events, ExactGen, GenConfig};
use nexsort_extmem::{Disk, FaultPlan, MemDevice, RetryPolicy};
use nexsort_xml::{events_to_xml, SortSpec};

const BLOCK: usize = 256;
const RUNS: usize = 20;

/// 316 KB: over the size below which parsing stays on the sorting thread.
fn doc() -> Vec<u8> {
    let mut gen = ExactGen::new(&[10, 10, 20], GenConfig { seed: 7, ..Default::default() });
    let doc = events_to_xml(&collect_events(&mut gen).unwrap(), false);
    assert!(doc.len() > 256 * 1024);
    doc
}

#[derive(Clone, Copy, Debug)]
enum Algo {
    Nexsort,
    Degen,
    Mergesort,
}

/// A sort's output (or its failure, as text) and its transfers.
type Traced = (Result<Vec<u8>, String>, Vec<(bool, u64)>);

/// Sort and serialize `doc` on `disk`, tracing every transfer after
/// staging.
fn traced(disk: &Rc<Disk>, doc: &[u8], algo: Algo) -> Traced {
    // Staging retries past injected faults; the sort does not.
    disk.set_retry_policy(RetryPolicy::retries(20));
    let input = stage_input(disk, doc).unwrap();
    disk.set_retry_policy(RetryPolicy::none());
    let spec = SortSpec::by_attribute("k");
    disk.start_trace();
    let out = match algo {
        Algo::Nexsort | Algo::Degen => {
            let opts = NexsortOptions {
                mem_frames: 12,
                degeneration: matches!(algo, Algo::Degen),
                ..Default::default()
            };
            let sorter = Nexsort::new(disk.clone(), opts, spec).unwrap();
            sorter
                .try_sort_xml_extent(&input)
                .map_err(|f| format!("{f:?}"))
                .and_then(|doc| doc.to_xml(false).map_err(|e| e.to_string()))
        }
        Algo::Mergesort => {
            let opts = BaselineOptions { mem_frames: 12, ..Default::default() };
            sort_xml_extent(disk, &input, &spec, &opts)
                .and_then(|sorted| sorted.to_xml(false))
                .map_err(|e| e.to_string())
        }
    };
    let trace = disk.take_trace().iter().map(|t| (t.is_read, t.block)).collect();
    (out, trace)
}

#[test]
fn every_algorithm_makes_the_same_transfers_in_the_same_order_each_time() {
    let doc = doc();
    for algo in [Algo::Nexsort, Algo::Degen, Algo::Mergesort] {
        let first = traced(&Disk::new_mem(BLOCK), &doc, algo);
        assert!(first.0.is_ok(), "{algo:?}: {:?}", first.0);
        assert!(first.1.len() > 100, "{algo:?} traced {} transfers", first.1.len());
        for _ in 1..RUNS {
            assert!(traced(&Disk::new_mem(BLOCK), &doc, algo) == first, "{algo:?} moved");
        }
    }
}

#[test]
fn a_fault_seeded_sort_fails_identically_each_time() {
    let doc = doc();
    let faulty =
        || Disk::new_faulty(Box::new(MemDevice::new(BLOCK)), FaultPlan::transient(11, 0.05)).0;
    for algo in [Algo::Nexsort, Algo::Degen, Algo::Mergesort] {
        let first = traced(&faulty(), &doc, algo);
        assert!(first.0.is_err(), "{algo:?}: 5% faults without retries must fail");
        for _ in 1..RUNS {
            assert!(traced(&faulty(), &doc, algo) == first, "{algo:?} failed differently");
        }
    }
}

#[test]
fn a_parse_error_fails_identically_each_time() {
    // An unknown entity early in a long document: the parser stops there,
    // while the sorting thread has read ahead of it.
    let mut doc = doc();
    let at = 2000 + doc[2000..].iter().position(|&b| b == b'<').unwrap();
    doc.splice(at..at, b"&bogus;".iter().copied());
    for algo in [Algo::Nexsort, Algo::Degen, Algo::Mergesort] {
        let first = traced(&Disk::new_mem(BLOCK), &doc, algo);
        let err = first.0.clone().unwrap_err();
        assert!(err.contains("unknown entity"), "{algo:?}: {err}");
        for _ in 1..RUNS {
            assert!(
                traced(&Disk::new_mem(BLOCK), &doc, algo) == first,
                "{algo:?} failed differently"
            );
        }
    }
}
