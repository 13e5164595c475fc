//! The I/O analysis of Section 4, checked against live executions: the exact
//! identity of Lemma 4.6, the count bound of Lemma 4.7, the O(N/B) stack and
//! run costs of Lemmas 4.8 and 4.10-4.13, and the overall envelopes of
//! Theorems 4.4 and 4.5.

use nexsort::{analysis, Nexsort, NexsortOptions, SortedDoc};
use nexsort_baseline::stage_input;
use nexsort_datagen::{collect_events, ExactGen, GenConfig, IbmGen};
use nexsort_extmem::{Disk, IoCat};
use nexsort_xml::{events_to_xml, EventSource, SortSpec};

struct Run {
    doc: SortedDoc,
    output_io: u64,
    input_blocks: u64,
}

fn run_nexsort(gen: &mut dyn EventSource, opts: NexsortOptions, block_size: usize) -> Run {
    let xml = events_to_xml(&collect_events(gen).unwrap(), false);
    let spec = SortSpec::by_attribute("k");
    let disk = Disk::new_mem(block_size);
    let input = stage_input(&disk, &xml).unwrap();
    let doc = Nexsort::new(disk.clone(), opts, spec).unwrap().sort_xml_extent(&input).unwrap();
    let before = disk.stats().snapshot();
    let (_run, _rep) = doc.write_output_run().unwrap();
    let output_io = disk.stats().snapshot().since(&before).grand_total();
    let input_blocks = doc.report.input_bytes.div_ceil(block_size as u64);
    Run { doc, output_io, input_blocks }
}

fn standard_run(seed: u64, elems: u64) -> Run {
    let mut g = IbmGen::new(5, 9, Some(elems), GenConfig { seed, ..Default::default() });
    run_nexsort(&mut g, NexsortOptions { mem_frames: 16, ..Default::default() }, 512)
}

#[test]
fn lemma_4_6_exact_identity_across_workloads() {
    for seed in 0..6u64 {
        let r = standard_run(seed, 300 + seed * 150);
        assert!(r.doc.report.lemma_4_6_holds(), "seed {seed}: {}", r.doc.report.summary());
    }
}

#[test]
fn lemma_4_7_bounds_the_number_of_subtree_sorts() {
    for seed in 0..4u64 {
        let r = standard_run(seed, 800);
        let rep = &r.doc.report;
        assert!(
            u64::from(rep.subtree_sorts) <= rep.lemma_4_7_bound(),
            "x={} bound={}",
            rep.subtree_sorts,
            rep.lemma_4_7_bound()
        );
    }
}

#[test]
fn lemma_4_8_run_blocks_are_linear_in_input() {
    let r = standard_run(1, 1200);
    // Blocks written as runs (RunWrite) across the whole sort: O(N/B) with
    // constant ~1 + x partial-block overheads.
    let run_writes = r.doc.report.io_of(IoCat::RunWrite);
    let bound = 2 * r.input_blocks + 2 * u64::from(r.doc.report.subtree_sorts);
    assert!(run_writes <= bound, "run writes {run_writes} > bound {bound}");
}

#[test]
fn lemma_4_10_data_stack_paging_is_linear_in_input() {
    // The lemma counts the published one-frame data stack's paging.
    let mut g = IbmGen::new(5, 9, Some(1500), GenConfig { seed: 2, ..Default::default() });
    let opts = NexsortOptions { mem_frames: 16, data_stack_frames: 1, ..Default::default() };
    let r = run_nexsort(&mut g, opts, 512);
    let rep = &r.doc.report;
    let ds = rep.io_of(IoCat::DataStack);
    // The lemma's count: <= 3x + (N-1+x)/B page-ins (+ equal page-outs).
    // Our data-stack category also carries the subtree-sort range reads
    // (case 1 of the lemma's proof), so compare against 2*(3x + 2N/B).
    let bound = 2 * (3 * u64::from(rep.subtree_sorts) + 2 * r.input_blocks + 4);
    assert!(ds <= bound, "data stack {ds} > bound {bound} ({})", rep.summary());
}

#[test]
fn lemma_4_11_path_stack_paging_is_linear_and_rare() {
    // A deep document forces genuine path-stack depth.
    let mut g = IbmGen::new(30, 3, Some(4000), GenConfig { seed: 3, ..Default::default() });
    let r = run_nexsort(&mut g, NexsortOptions { mem_frames: 16, ..Default::default() }, 512);
    let ps = r.doc.report.io_of(IoCat::PathStack);
    // Path-stack entries are 8 bytes; its traffic must be far below the
    // input's block count (the fringe-element argument).
    assert!(
        ps <= r.input_blocks,
        "path stack {ps} should be well under input blocks {}",
        r.input_blocks
    );
}

#[test]
fn lemma_4_12_output_run_reads_are_linear() {
    let r = standard_run(4, 1500);
    // Output phase reads each sorted-run block 1 + p(b) times; summed, that
    // is the run blocks plus the number of pointers (x - 1).
    let run_blocks = 2 * r.input_blocks + u64::from(r.doc.report.subtree_sorts);
    let bound = run_blocks + u64::from(r.doc.report.subtree_sorts) + 4;
    // output_io also includes the output writes (~input blocks).
    assert!(
        r.output_io <= bound + 2 * r.input_blocks,
        "output {} > bound {}",
        r.output_io,
        bound + 2 * r.input_blocks
    );
}

#[test]
fn lemma_4_13_outloc_stack_traffic_is_tiny() {
    let r = standard_run(5, 2000);
    let disk_snapshot = r.doc.report.io.total(IoCat::OutLocStack);
    assert_eq!(disk_snapshot, 0, "sorting phase never touches the outloc stack");
    // During output, the outloc stack holds 12-byte entries, one per run
    // pointer: its paging is O(x / (B/12)).
    let x = u64::from(r.doc.report.subtree_sorts);
    let per_block = 512 / 12;
    let bound = 2 * (x / per_block + 2);
    // Re-measure just the output phase.
    let disk = r.doc.disk();
    let before = disk.stats().snapshot();
    let _ = r.doc.write_output_run().unwrap();
    let outloc = disk.stats().snapshot().since(&before).total(IoCat::OutLocStack);
    assert!(outloc <= bound, "outloc {outloc} > bound {bound} for x={x}");
}

#[test]
fn theorem_4_5_total_io_within_the_envelope() {
    for (fanouts, mem) in
        [(vec![12u64, 12, 12], 16usize), (vec![40, 40], 24), (vec![6, 6, 6, 6], 16)]
    {
        let mut g = ExactGen::new(&fanouts, GenConfig::default());
        let r = run_nexsort(&mut g, NexsortOptions { mem_frames: mem, ..Default::default() }, 512);
        let rep = &r.doc.report;
        let n = r.input_blocks;
        let b_elems = (512f64 / (rep.input_bytes as f64 / rep.n_records as f64)).max(1.0) as u64;
        let t_elems = (rep.threshold as f64 / (rep.input_bytes as f64 / rep.n_records as f64))
            .max(1.0) as u64;
        let bound = analysis::nexsort_bound_ios(
            n,
            mem as u64,
            rep.max_fanout,
            t_elems,
            rep.n_records,
            b_elems,
        );
        let total = rep.total_ios() + r.output_io;
        // The theorem drops constants; a factor-10 envelope catches real
        // regressions (an extra pass, unbounded stack traffic) without
        // flaking on the constant.
        assert!(
            (total as f64) <= 10.0 * bound.max(n as f64),
            "total {total} > 10x bound {bound:.0} for {fanouts:?} (n={n})"
        );
        assert!((total as f64) >= n as f64, "must at least read the input once");
    }
}

#[test]
fn nexsort_io_is_insensitive_to_memory_where_mergesort_is_not() {
    // The Figure 5 effect as an assertion.
    let spec = SortSpec::by_attribute("k");
    let measure = |mem: usize| -> (u64, u64) {
        let mut g = IbmGen::new(8, 10, Some(2500), GenConfig { seed: 8, ..Default::default() });
        let xml = events_to_xml(&collect_events(&mut g).unwrap(), false);
        let disk = Disk::new_mem(512);
        let input = stage_input(&disk, &xml).unwrap();
        let doc = Nexsort::new(
            disk.clone(),
            NexsortOptions { mem_frames: mem, ..Default::default() },
            spec.clone(),
        )
        .unwrap()
        .sort_xml_extent(&input)
        .unwrap();
        doc.write_output_run().unwrap();
        let nx = disk.stats().grand_total();

        let disk2 = Disk::new_mem(512);
        let input2 = stage_input(&disk2, &xml).unwrap();
        let opts = nexsort_baseline::BaselineOptions { mem_frames: mem, ..Default::default() };
        nexsort_baseline::sort_xml_extent(&disk2, &input2, &spec, &opts).unwrap();
        let ms = disk2.stats().grand_total();
        (nx, ms)
    };
    let (nx_small, ms_small) = measure(10);
    let (nx_big, ms_big) = measure(64);
    let nx_degradation = nx_small as f64 / nx_big as f64;
    let ms_degradation = ms_small as f64 / ms_big as f64;
    assert!(
        ms_degradation > nx_degradation,
        "merge sort must be the memory-hungry one: nx {nx_degradation:.2} vs ms {ms_degradation:.2}"
    );
}

#[test]
fn budget_high_water_stays_within_m() {
    // The MemoryBudget is enforced, not advisory: nothing reserves beyond m.
    // (Indirect check: any over-reservation would have errored the sort.)
    for mem in [8usize, 12, 16, 48] {
        let mut g = IbmGen::new(5, 8, Some(600), GenConfig { seed: 11, ..Default::default() });
        let r = run_nexsort(&mut g, NexsortOptions { mem_frames: mem, ..Default::default() }, 512);
        assert!(r.doc.report.lemma_4_6_holds(), "mem={mem}");
    }
}

#[test]
fn concrete_cost_model_matches_measurement_in_the_internal_regime() {
    // A workload whose subtree sorts all fit in memory (fig5's m >= 48
    // regime): the 6n + 5x model of the published one-frame data stack
    // must land within 15%.
    let fanouts = [10u64, 10, 10, 10];
    let mut g = ExactGen::new(&fanouts, GenConfig::default());
    let opts = NexsortOptions { mem_frames: 16, data_stack_frames: 1, ..Default::default() };
    let r = run_nexsort(&mut g, opts, 512);
    let rep = &r.doc.report;
    assert_eq!(rep.external_sorts, 0, "model only covers the internal regime");
    let predicted =
        analysis::predict_nexsort_total(r.input_blocks, u64::from(rep.subtree_sorts)) as f64;
    let measured = (rep.total_ios() + r.output_io) as f64;
    let ratio = measured / predicted;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "measured {measured} vs predicted {predicted} (ratio {ratio:.3})"
    );
}

fn run_exact(fanouts: &[u64], mem_frames: usize, data_stack_frames: usize) -> Run {
    let mut g = ExactGen::new(fanouts, GenConfig::default());
    run_nexsort(&mut g, NexsortOptions { mem_frames, data_stack_frames, ..Default::default() }, 512)
}

#[test]
fn lent_data_stack_never_costs_more_than_the_published_one() {
    // Internal, mixed and mostly external regimes (m = 8 is the floor).
    let cases: [(&[u64], usize); 5] = [
        (&[10, 10, 10, 10], 16),
        (&[12, 12, 12], 16),
        (&[40, 40], 24),
        (&[6, 6, 6, 6], 16),
        (&[8, 8, 8, 8], 8),
    ];
    for (fanouts, mem) in cases {
        let published = run_exact(fanouts, mem, 1);
        let lent = run_exact(fanouts, mem, NexsortOptions::default().data_stack_frames);
        let (p, l) = (&published.doc.report, &lent.doc.report);
        let what = format!("{fanouts:?} m={mem}: published {} / lent {}", p.summary(), l.summary());
        assert!(l.io_of(IoCat::DataStack) <= p.io_of(IoCat::DataStack), "{what}");
        assert!(l.total_ios() <= p.total_ios(), "{what}");
        assert_eq!(lent.output_io, published.output_io, "{what}");
        // The same sorts, each internal or external as published.
        assert_eq!(
            (l.subtree_sorts, l.internal_sorts, l.external_sorts),
            (p.subtree_sorts, p.internal_sorts, p.external_sorts),
            "{what}"
        );
        assert_eq!(lent.doc.to_recs().unwrap(), published.doc.to_recs().unwrap(), "{what}");
    }
}

#[test]
fn lent_data_stack_is_free_while_the_open_path_fits() {
    // Each open path (the root's pointers plus the subtree being scanned)
    // fits the frames the budget lends, so every subtree sort takes its
    // range off the resident window: no data-stack transfer at all, and
    // the total lands on the window's 4n + 2x model.
    for (fanouts, mem) in [(&[10u64, 10, 10, 10][..], 16usize), (&[40, 40], 24)] {
        let r = run_exact(fanouts, mem, NexsortOptions::default().data_stack_frames);
        let rep = &r.doc.report;
        assert_eq!(rep.io_of(IoCat::DataStack), 0, "{fanouts:?}: {}", rep.summary());
        assert_eq!(rep.external_sorts, 0, "model only covers the internal regime");
        let predicted =
            analysis::predict_nexsort_total_lent(r.input_blocks, u64::from(rep.subtree_sorts))
                as f64;
        let ratio = (rep.total_ios() + r.output_io) as f64 / predicted;
        assert!((0.85..=1.15).contains(&ratio), "{fanouts:?}: ratio {ratio:.3}");
    }
}
