//! The paper's experiments (Section 5), one function per table/figure, plus
//! the ablations called out in DESIGN.md.
//!
//! Inputs are scaled versions of the paper's: the analysis depends only on
//! the ratios N/B, M/B, k and t/B, so shrinking everything proportionally
//! preserves pass counts and curve shapes while keeping single-machine run
//! times sane. `ExpScale::full()` approaches the paper's absolute sizes.

use nexsort::analysis;
use nexsort_datagen::{table2_shapes, ExactGen, GenConfig, IbmGen};
use nexsort_extmem::{CachePolicy, FaultPlan, IoCat, WriteMode};
use nexsort_xml::{attach_paths, events_to_recs, parse_events, KeyRule, Result, SortSpec, TagDict};

use crate::runner::{
    measure_mergesort, measure_nexsort, measure_nexsort_degraded, measure_nexsort_faulty,
    measure_recovery, Measurement, RunConfig,
};
use crate::table::ExpTable;

/// Size knobs for the experiment suite.
#[derive(Debug, Clone)]
pub struct ExpScale {
    /// Elements of the Figure 5 / threshold-experiment document.
    pub base_elements: u64,
    /// Element counts swept in Figure 6.
    pub fig6_sizes: Vec<u64>,
    /// Memory frames swept in Figure 5.
    pub fig5_mems: Vec<usize>,
    /// Shrink factor for the Table 2 documents (1 = paper size, ~3M).
    pub table2_scale: u64,
    /// Block size in bytes.
    pub block_size: usize,
}

impl ExpScale {
    /// Seconds-fast sizes for CI and Criterion.
    pub fn quick() -> Self {
        Self {
            base_elements: 12_000,
            fig6_sizes: vec![2_000, 8_000, 30_000],
            fig5_mems: vec![10, 16, 24, 48],
            table2_scale: 512,
            block_size: 1024,
        }
    }

    /// The default harness sizes (minutes for the full suite).
    pub fn standard() -> Self {
        Self {
            base_elements: 120_000,
            fig6_sizes: vec![10_000, 40_000, 160_000, 640_000],
            fig5_mems: vec![12, 16, 24, 32, 48, 64, 96, 128],
            table2_scale: 32,
            block_size: 4096,
        }
    }

    /// Near the paper's absolute sizes (long-running).
    pub fn full() -> Self {
        Self {
            base_elements: 600_000,
            fig6_sizes: vec![10_000, 40_000, 160_000, 640_000, 2_560_000],
            fig5_mems: vec![12, 16, 24, 32, 48, 64, 96, 128, 192, 256],
            table2_scale: 8,
            block_size: 4096,
        }
    }
}

/// The uniform ordering criterion used by all generated workloads.
pub fn bench_spec() -> SortSpec {
    SortSpec::uniform(KeyRule::attr("k"))
}

fn ios_cell(m: &Measurement) -> Vec<String> {
    vec![
        m.sort_ios.to_string(),
        m.output_ios.to_string(),
        m.total_ios().to_string(),
        format!("{:.1}", m.sim_seconds()),
        format!("{:.0?}", m.wall),
        m.detail.clone(),
    ]
}

const IOS_HEADERS: [&str; 6] = ["sort-io", "out-io", "total-io", "sim-s", "wall", "detail"];

/// Per-level fan-out vector hitting roughly `target` elements with max
/// fan-out `k` (the Figure 6 inputs: "maximum fan-out is capped at 85").
pub fn fanouts_for(target: u64, k: u64) -> Vec<u64> {
    let mut fanouts = Vec::new();
    let mut total = 1u64;
    let mut width = 1u64;
    loop {
        let next = width.saturating_mul(k);
        if total.saturating_add(next) > target {
            break;
        }
        fanouts.push(k);
        width = next;
        total += width;
    }
    let rem = target.saturating_sub(total) / width.max(1);
    if rem >= 2 {
        fanouts.push(rem.min(k));
    }
    if fanouts.is_empty() {
        fanouts.push(target.saturating_sub(1).max(2).min(k));
    }
    fanouts
}

/// **Table 1** -- the key-path representation of Figure 1's D1.
pub fn table1() -> Result<ExpTable> {
    let doc = "<company><region name=\"NE\"/><region name=\"AC\">\
               <branch name=\"Durham\"><employee ID=\"454\"/>\
               <employee ID=\"323\"><name>Smith</name><phone>5552345</phone></employee>\
               </branch><branch name=\"Atlanta\"/></region></company>";
    let spec = SortSpec::by_attribute("name")
        .with_rule("employee", KeyRule::attr("ID"))
        .with_rule("name", KeyRule::tag_name())
        .with_rule("phone", KeyRule::tag_name())
        .with_text_key(nexsort_xml::TextKey::Content);
    let events = parse_events(doc.as_bytes())?;
    let mut dict = TagDict::new();
    let recs = events_to_recs(&events, &spec, &mut dict, true)?;
    let pathed = attach_paths(recs)?;
    let mut t = ExpTable::new(
        "table1",
        "Key-path representation of D1 (paper Table 1)",
        &["key path", "element content"],
    );
    let mut em = nexsort_xml::RecEmitter::new(&dict);
    for p in &pathed {
        let mut evs = Vec::new();
        em.push_rec(&p.rec, &mut evs)?;
        let shown = evs
            .iter()
            .filter(|e| !matches!(e, nexsort_xml::Event::End { .. }))
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("");
        t.push_row(vec![p.path.display(), shown]);
    }
    t.note("matches the paper's Table 1 (text nodes are separate records here)");
    Ok(t)
}

/// **Table 2** -- the tree-shape inputs, with realized scaled sizes.
pub fn table2(scale: &ExpScale) -> ExpTable {
    let mut t = ExpTable::new(
        "table2",
        "Input document shapes (paper Table 2)",
        &["height", "fan-out per level", "paper size", "scaled fan-outs", "scaled size"],
    );
    let paper = table2_shapes(1);
    let scaled = table2_shapes(scale.table2_scale);
    for (p, s) in paper.iter().zip(&scaled) {
        t.push_row(vec![
            p.height.to_string(),
            format!("{:?}", p.fanouts),
            p.paper_size.to_string(),
            format!("{:?}", s.fanouts),
            ExactGen::total_elements(&s.fanouts).to_string(),
        ]);
    }
    t.note(format!("scale factor 1/{}", scale.table2_scale));
    t
}

/// **Threshold experiment** (Section 5, "results not shown due to space"):
/// sort cost vs the threshold `t`.
pub fn threshold_experiment(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let mut t = ExpTable::new(
        "threshold",
        "Effect of sort threshold t (Section 5; U-shaped, not shown in the paper)",
        &[&["t/B", "t(bytes)"], &IOS_HEADERS[..]].concat(),
    );
    for mult in [0.5f64, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let threshold = (mult * scale.block_size as f64) as u64;
        let mut cfg = RunConfig::sized(scale.block_size, 32);
        cfg.job.threshold = Some(threshold);
        let mut g = IbmGen::new(5, 40, Some(scale.base_elements), GenConfig::default());
        let m = measure_nexsort(&mut g, &spec, &cfg)?;
        let mut row = vec![format!("{mult}"), threshold.to_string()];
        row.extend(ios_cell(&m));
        t.push_row(row);
    }
    t.note("paper: small t -> many tiny sorts (overhead); large t -> multi-level external subtree sorts; t ~ 2B works well");
    Ok(t)
}

/// **Figure 5** -- effect of main memory size.
pub fn fig5(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let mut t = ExpTable::new(
        "fig5",
        "Effect of main memory size (paper Figure 5)",
        &[&["mem(frames)", "algo"], &IOS_HEADERS[..]].concat(),
    );
    for &mem in &scale.fig5_mems {
        let cfg = RunConfig::sized(scale.block_size, mem);
        let mut g = IbmGen::new(5, 40, Some(scale.base_elements), GenConfig::default());
        let nx = measure_nexsort(&mut g, &spec, &cfg)?;
        let mut row = vec![mem.to_string(), nx.algo.clone()];
        row.extend(ios_cell(&nx));
        t.push_row(row);

        let mut g = IbmGen::new(5, 40, Some(scale.base_elements), GenConfig::default());
        let ms = measure_mergesort(&mut g, &spec, &cfg)?;
        let mut row = vec![mem.to_string(), ms.algo.clone()];
        row.extend(ios_cell(&ms));
        t.push_row(row);
    }
    t.note("paper: merge sort 13-27% slower overall; NEXSORT nearly flat in memory, merge sort jumps when passes increase");
    Ok(t)
}

/// **Figure 6** -- effect of input size at constant maximum fan-out 85.
pub fn fig6(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let mut t = ExpTable::new(
        "fig6",
        "Effect of input size with constant maximum fan-out (paper Figure 6)",
        &[&["elements", "fanouts", "algo"], &IOS_HEADERS[..]].concat(),
    );
    for &target in &scale.fig6_sizes {
        let fanouts = fanouts_for(target, 85);
        let n = ExactGen::total_elements(&fanouts);
        let cfg = RunConfig::sized(scale.block_size, 24);
        let mut g = ExactGen::new(&fanouts, GenConfig::default());
        let nx = measure_nexsort(&mut g, &spec, &cfg)?;
        let mut row = vec![n.to_string(), format!("{fanouts:?}"), nx.algo.clone()];
        row.extend(ios_cell(&nx));
        t.push_row(row);

        let mut g = ExactGen::new(&fanouts, GenConfig::default());
        let ms = measure_mergesort(&mut g, &spec, &cfg)?;
        let mut row = vec![n.to_string(), format!("{fanouts:?}"), ms.algo.clone()];
        row.extend(ios_cell(&ms));
        t.push_row(row);
    }
    t.note("paper: NEXSORT linear in input size (log factor is log_m(kt/B), size-independent); merge sort superlinear with jumps at pass boundaries");
    Ok(t)
}

/// **Figure 7** -- effect of input tree shape (the Table 2 documents).
pub fn fig7(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let mut t = ExpTable::new(
        "fig7",
        "Effect of tree shape (paper Figure 7, inputs from Table 2)",
        &[&["height", "k", "elements", "algo"], &IOS_HEADERS[..]].concat(),
    );
    // The paper ran this experiment with 64 KiB blocks (~427 elements per
    // block) and 4 MB of memory: big enough that the height-4 input's
    // level-2 subtrees (~3 MB) sort internally, small enough that merge
    // sort needs an intermediate merge pass. Those two regimes coexist only
    // with a large block-to-element ratio, so this experiment scales the
    // block size up 4x and uses m = 24 (~384 KiB at standard scale).
    let block_size = scale.block_size * 4;
    let mem = 24;
    for shape in table2_shapes(scale.table2_scale) {
        let n = ExactGen::total_elements(&shape.fanouts);
        let k = *shape.fanouts.iter().max().unwrap_or(&0);
        let cfg = RunConfig::sized(block_size, mem);
        for (algo, degeneration) in [("nexsort", false), ("nexsort+degen", true)] {
            let mut cfg = cfg.clone();
            cfg.job.degeneration = degeneration;
            let mut g = ExactGen::new(&shape.fanouts, GenConfig::default());
            let m = measure_nexsort(&mut g, &spec, &cfg)?;
            let mut row =
                vec![shape.height.to_string(), k.to_string(), n.to_string(), algo.to_string()];
            row.extend(ios_cell(&m));
            t.push_row(row);
        }
        let mut g = ExactGen::new(&shape.fanouts, GenConfig::default());
        let ms = measure_mergesort(&mut g, &spec, &cfg)?;
        let mut row = vec![shape.height.to_string(), k.to_string(), n.to_string(), ms.algo.clone()];
        row.extend(ios_cell(&ms));
        t.push_row(row);
    }
    t.note("paper: NEXSORT (no degeneration, as published) loses on the flat height-2 input, wins clearly once fan-out drops below the critical level (height >= 4); merge sort slightly worsens with height (longer key paths)");
    t.note(
        "nexsort+degen is the Section 3.2 optimization the paper describes but did not implement",
    );
    Ok(t)
}

/// **Ablation: compaction** -- tag-dictionary compression on/off.
pub fn ablate_compaction(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let mut t = ExpTable::new(
        "ablate-compaction",
        "Ablation: XML compaction (Section 3.2 tag dictionaries)",
        &[&["compaction", "algo", "input-bytes"], &IOS_HEADERS[..]].concat(),
    );
    let n = scale.base_elements / 2;
    for compaction in [true, false] {
        let cfg = RunConfig { compaction, ..RunConfig::sized(scale.block_size, 32) };
        let mut g = IbmGen::new(5, 40, Some(n), GenConfig::default());
        let nx = measure_nexsort(&mut g, &spec, &cfg)?;
        let mut row = vec![compaction.to_string(), nx.algo.clone(), nx.input_bytes.to_string()];
        row.extend(ios_cell(&nx));
        t.push_row(row);
        let mut g = IbmGen::new(5, 40, Some(n), GenConfig::default());
        let ms = measure_mergesort(&mut g, &spec, &cfg)?;
        let mut row = vec![compaction.to_string(), ms.algo.clone(), ms.input_bytes.to_string()];
        row.extend(ios_cell(&ms));
        t.push_row(row);
    }
    t.note("compaction shrinks every pass's bytes for both algorithms");
    Ok(t)
}

/// **Ablation: path-stack frames** -- Lemma 4.11 assumes two resident
/// frames; measure the path-stack paging with 1, 2, 4, 8 on a document
/// whose depth oscillates across a path-stack block boundary (the case the
/// second frame exists for).
pub fn ablate_frames(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let mut t = ExpTable::new(
        "ablate-frames",
        "Ablation: path-stack resident frames (Lemma 4.11 premise)",
        &["frames", "path-stack io", "total-io"],
    );
    // Path-stack entries are 8 bytes, so one block holds B/8 of them. Build
    // a chain that parks the open path exactly at that boundary, then hang
    // many small bushy subtrees off it: every subtree completion pops across
    // the boundary and the next one pushes back over it.
    let per_block = (scale.block_size / 8) as u64;
    let mut fanouts = vec![1u64; per_block as usize - 2];
    fanouts.push(200); // many siblings right at the boundary
    fanouts.extend([2u64; 5]); // each a small bushy subtree crossing it
    for frames in [1usize, 2, 4, 8] {
        let cfg = RunConfig { path_stack_frames: frames, ..RunConfig::sized(scale.block_size, 32) };
        let mut g = ExactGen::new(&fanouts, GenConfig::default());
        let m = measure_nexsort(&mut g, &spec, &cfg)?;
        t.push_row(vec![
            frames.to_string(),
            m.breakdown.total(nexsort_extmem::IoCat::PathStack).to_string(),
            m.total_ios().to_string(),
        ]);
    }
    t.note("a single frame thrashes at the boundary; >= 2 frames page only at fringe elements (O(N/B) total)");
    Ok(t)
}

/// **Ablation: data-stack frames** -- the published one-frame data stack
/// (Section 3.1's minimum, which every other experiment runs) against the
/// lending window the sorter uses by default, on the Figure 5 document
/// across its memory sizes and the Figure 6 documents at `m = 24`.
pub fn ablate_dsframes(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let mut t = ExpTable::new(
        "ablate-dsframes",
        "Ablation: data-stack resident frames, published (1) vs lent (Section 3.1 minimum)",
        &[&["input", "mem(frames)", "data-stack", "data-stack io"][..], &IOS_HEADERS[..]].concat(),
    );
    let fig6: Vec<Vec<u64>> = scale.fig6_sizes.iter().map(|&n| fanouts_for(n, 85)).collect();
    let runs = scale.fig5_mems.iter().map(|&mem| (None, mem));
    let runs = runs.chain(fig6.iter().map(|f| (Some(f.as_slice()), 24)));
    for (fanouts, mem) in runs {
        let input = match fanouts {
            None => format!("fig5 n={}", scale.base_elements),
            Some(f) => format!("fig6 {f:?}"),
        };
        for (policy, frames) in [("published", 1), ("lent", nexsort::NexsortOptions::LEND_ALL)] {
            let cfg =
                RunConfig { data_stack_frames: frames, ..RunConfig::sized(scale.block_size, mem) };
            let m = match fanouts {
                None => {
                    let mut g = IbmGen::new(5, 40, Some(scale.base_elements), GenConfig::default());
                    measure_nexsort(&mut g, &spec, &cfg)?
                }
                Some(f) => {
                    measure_nexsort(&mut ExactGen::new(f, GenConfig::default()), &spec, &cfg)?
                }
            };
            let mut row = vec![
                input.clone(),
                mem.to_string(),
                policy.to_string(),
                m.breakdown.total(IoCat::DataStack).to_string(),
            ];
            row.extend(ios_cell(&m));
            t.push_row(row);
        }
    }
    t.note("lent: the data stack borrows budget frames nobody holds during the scan and sorts a resident subtree where it sits; its choices of internal vs external sort, run formation and fan-in are the published ones");
    Ok(t)
}

/// **Bounds check** -- Section 4's formulas against a measured run.
pub fn bounds_vs_measured(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let cfg = RunConfig::sized(scale.block_size, 32);
    let mut g = IbmGen::new(5, 40, Some(scale.base_elements / 2), GenConfig::default());
    let m = measure_nexsort(&mut g, &spec, &cfg)?;
    let b_elems = (scale.block_size / 150).max(1) as u64; // ~150 B/element
    let n_blocks = m.input_blocks;
    let t_elems = (2 * scale.block_size as u64) / 150;
    let lower =
        analysis::lower_bound_ios(n_blocks, cfg.job.mem_frames as u64, m.max_fanout, b_elems);
    let upper = analysis::nexsort_bound_ios(
        n_blocks,
        cfg.job.mem_frames as u64,
        m.max_fanout,
        t_elems.max(1),
        m.n_elements,
        b_elems,
    );
    let flat = analysis::mergesort_bound_ios(n_blocks, cfg.job.mem_frames as u64);
    let mut t = ExpTable::new(
        "bounds",
        "Section 4 bounds vs a measured NEXSORT run (constants dropped in bounds)",
        &["quantity", "blocks / I/Os"],
    );
    t.push_row(vec!["input blocks n".into(), n_blocks.to_string()]);
    t.push_row(vec!["lower bound (Thm 4.4)".into(), format!("{lower:.0}")]);
    t.push_row(vec!["NEXSORT bound (Thm 4.5)".into(), format!("{upper:.0}")]);
    t.push_row(vec!["flat-sort bound".into(), format!("{flat:.0}")]);
    t.push_row(vec!["measured NEXSORT total".into(), m.total_ios().to_string()]);
    t.push_row(vec![
        "log2 #outcomes (xml, Lem 4.2)".into(),
        format!("{:.0}", analysis::ln_possible_outcomes(m.n_elements, m.max_fanout) / 2f64.ln()),
    ]);
    t.push_row(vec![
        "log2 #outcomes (flat file)".into(),
        format!("{:.0}", analysis::ln_flat_outcomes(m.n_elements) / 2f64.ln()),
    ]);
    t.note(
        "measured totals sit between the lower bound and a small constant times the upper bound",
    );
    Ok(t)
}

/// **Fault sweep** -- NEXSORT under injected transient faults. Logical I/O
/// must not change with the fault rate (retries are accounted separately),
/// and the final row shows persistent corruption defeating the retry layer.
pub fn fault_sweep(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let cfg = RunConfig::sized(scale.block_size, 24);
    let mut t = ExpTable::new(
        "faults",
        "NEXSORT on a fault-injecting checksummed disk (retry budget 4)",
        &[
            &["fault-rate", "injected", "retried", "backoff", "outcome"],
            &IOS_HEADERS[..2],
            &["total-io"],
        ]
        .concat(),
    );
    let elems = Some(scale.base_elements / 4);
    let mut clean_total = None;
    for rate in [0.0f64, 0.001, 0.005, 0.01, 0.02] {
        let plan = FaultPlan::transient(0xFA_u64, rate);
        let mut g = IbmGen::new(5, 40, elems, GenConfig::default());
        let (m, counts) = measure_nexsort_faulty(&mut g, &spec, &cfg, plan, 4)?;
        let total = m.total_ios();
        match clean_total {
            None => clean_total = Some(total),
            Some(c) => {
                if c != total {
                    t.note(format!(
                        "WARNING: logical I/O drifted under rate {rate}: {total} vs {c}"
                    ));
                }
            }
        }
        t.push_row(vec![
            format!("{rate}"),
            counts.total().to_string(),
            m.breakdown.total_retries().to_string(),
            m.breakdown.backoff_units().to_string(),
            "ok".into(),
            m.sort_ios.to_string(),
            m.output_ios.to_string(),
            total.to_string(),
        ]);
    }
    // Persistent corruption: bit flips on the write path survive re-reads,
    // so the checksum keeps failing and retries run out.
    let plan = FaultPlan::new(0xFA_u64).with_write_flip_rate(0.2);
    let mut g = IbmGen::new(5, 40, elems, GenConfig::default());
    let outcome = match measure_nexsort_faulty(&mut g, &spec, &cfg, plan, 2) {
        Ok(_) => "ok (unexpected)".to_string(),
        Err(e) => e.to_string(),
    };
    t.push_row(vec![
        "flip 0.2 (writes)".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        outcome,
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.note("transient faults heal via retry: logical transfers identical across rates, cost visible only as retries/backoff");
    Ok(t)
}

/// **Degradation sweep** -- the self-healing run store. The healthy rows
/// sweep the parity-group size with no faults: the non-parity *logical*
/// transfer count (the paper's Aggarwal-Vitter cost) must be identical on
/// every row, and the physical overhead of parity must stay small at the
/// default group size. The faulted rows turn run-store data blocks into
/// permanent bad sectors and show the sort completing degraded --
/// reconstructing from parity, quarantining the sectors, falling back to
/// source re-derivation past parity tolerance -- with bit-identical output.
pub fn degradation_sweep(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let mut t = ExpTable::new(
        "degradation",
        "Self-healing sweep: parity overhead when healthy, repairs under permanent block loss",
        &[
            "parity-group",
            "bad-sectors",
            "logical-io",
            "data-io",
            "parity-io",
            "phys-io",
            "overhead",
            "repairs",
            "quarantined",
            "rederived",
            "degraded",
            "match",
        ],
    );
    let elems = Some(scale.base_elements / 4);
    // Tight memory + degeneration: scratch runs are merged *during* the
    // sort, so the faulted rows exercise the repair path mid-sort.
    let cfg_for = |parity_group: usize| {
        let mut cfg = RunConfig::sized(scale.block_size, 12);
        cfg.job.degeneration = true;
        cfg.job.parity_group = parity_group;
        cfg
    };
    let mut phys0: Option<u64> = None;
    let mut data0: Option<u64> = None;
    for k in [0usize, 8, 4, 2, 1] {
        let cfg = cfg_for(k);
        let mut g = IbmGen::new(5, 40, elems, GenConfig::default());
        let m = measure_nexsort(&mut g, &spec, &cfg)?;
        let b = &m.breakdown;
        let logical = b.grand_total();
        let parity = b.total(IoCat::Parity);
        let phys = b.grand_total_physical();
        let data = logical - parity;
        if k == 0 {
            phys0 = Some(phys);
            data0 = Some(data);
        } else if data0.is_some_and(|d| d != data) {
            t.note(format!(
                "WARNING: non-parity logical I/O drifted at parity-group {k}: {data} vs {}",
                data0.unwrap_or(0)
            ));
        }
        let overhead = phys0.map_or(0.0, |p| (phys as f64 - p as f64) / p.max(1) as f64 * 100.0);
        t.push_row(vec![
            if k == 0 { "off".into() } else { k.to_string() },
            "0".into(),
            logical.to_string(),
            data.to_string(),
            parity.to_string(),
            phys.to_string(),
            format!("{overhead:+.1}%"),
            "0".into(),
            "0".into(),
            "0".into(),
            "false".into(),
            "-".into(),
        ]);
    }
    // Permanent faults: every `stride`-th run-store data block becomes a
    // bad sector (writes land silently corrupted; every re-read fails its
    // checksum, retries included).
    for (k, stride) in [(8usize, 9usize), (1, 3)] {
        let cfg = cfg_for(k);
        let mut a = IbmGen::new(5, 40, elems, GenConfig::default());
        let mut b = IbmGen::new(5, 40, elems, GenConfig::default());
        let d = measure_nexsort_degraded(&mut a, &mut b, &spec, &cfg, stride)?;
        let overhead =
            phys0.map_or(0.0, |p| (d.physical_ios as f64 - p as f64) / p.max(1) as f64 * 100.0);
        t.push_row(vec![
            k.to_string(),
            d.faults.to_string(),
            d.logical_ios.to_string(),
            (d.logical_ios - d.parity_ios).to_string(),
            d.parity_ios.to_string(),
            d.physical_ios.to_string(),
            format!("{overhead:+.1}%"),
            d.repairs.to_string(),
            d.quarantined.to_string(),
            d.rederivations.to_string(),
            d.degraded.to_string(),
            d.outputs_match.to_string(),
        ]);
    }
    t.note("overhead: physical I/O vs the parity-off row; the paper's model charges none of it");
    t.note("healthy rows: parity moves only the parity-io column -- the data-io column (the paper's cost) is bit-identical across group sizes");
    t.note("faulted rows: repairs reconstruct the lost block from its XOR group, quarantine the sector, and rewrite to a fresh extent; losses past a group's tolerance re-derive the whole run from the journaled source; either way `match` certifies bit-identical output");
    Ok(t)
}

/// **Cache sweep** -- the buffer pool under varying frame budgets, eviction
/// policies, and write modes. The pool is extra memory on top of `m`, so the
/// *logical* transfer count (the paper's Aggarwal-Vitter cost) must be
/// byte-identical on every row; only the *physical* count may drop as the
/// pool absorbs re-reads and coalesces writes.
pub fn cache_sweep(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let mut t = ExpTable::new(
        "cache",
        "Buffer-pool sweep: logical vs physical transfers (frames x policy x mode)",
        &[
            "frames",
            "policy",
            "mode",
            "logical-io",
            "phys-io",
            "logical-rd",
            "phys-rd",
            "hits",
            "misses",
            "hit-ratio",
            "evictions",
            "writebacks",
        ],
    );
    let elems = Some(scale.base_elements / 4);
    let mut logical0: Option<u64> = None;
    for &frames in &[0usize, 4, 16, 64] {
        for (policy, mode) in [
            (CachePolicy::Lru, WriteMode::Through),
            (CachePolicy::Lru, WriteMode::Back),
            (CachePolicy::Clock, WriteMode::Through),
            (CachePolicy::Clock, WriteMode::Back),
        ] {
            // Without a pool, policy and mode are moot: one row suffices.
            if frames == 0 && !(policy == CachePolicy::Lru && mode == WriteMode::Through) {
                continue;
            }
            let mut cfg = RunConfig::sized(scale.block_size, 24);
            cfg.job.cache_frames = frames;
            cfg.job.cache_policy = policy;
            cfg.job.write_back = mode == WriteMode::Back;
            let mut g = IbmGen::new(5, 40, elems, GenConfig::default());
            let m = measure_nexsort(&mut g, &spec, &cfg)?;
            let b = &m.breakdown;
            let logical = b.grand_total();
            let phys = b.grand_total_physical();
            let logical_rd = b.total_reads();
            let phys_rd: u64 = IoCat::ALL.iter().map(|&c| b.phys_reads(c)).sum();
            match logical0 {
                None => logical0 = Some(logical),
                Some(c) if c != logical => t.note(format!(
                    "WARNING: logical I/O drifted at {frames} frames ({policy}, {mode}): \
                     {logical} vs {c}"
                )),
                Some(_) => {}
            }
            t.push_row(vec![
                frames.to_string(),
                if frames == 0 { "-".into() } else { policy.to_string() },
                if frames == 0 { "-".into() } else { mode.to_string() },
                logical.to_string(),
                phys.to_string(),
                logical_rd.to_string(),
                phys_rd.to_string(),
                b.total_cache_hits().to_string(),
                b.total_cache_misses().to_string(),
                b.cache_hit_ratio().map_or_else(|| "-".into(), |r| format!("{:.1}%", r * 100.0)),
                b.total_cache_evictions().to_string(),
                b.total_cache_writebacks().to_string(),
            ]);
        }
    }
    t.note("logical transfers are the paper's cost model and never move with the pool");
    t.note("physical reads fall below logical reads once the pool captures the re-read working set (run re-reads, stack ping-pong)");
    Ok(t)
}

/// **Recovery sweep** -- the crash-consistency layer's price and payoff.
/// Every row crashes the same checkpointed degenerate sort at a different
/// fraction of its sorting phase and resumes it from the journal: the
/// journal columns show what checkpointing costs an uninterrupted run
/// (journal writes as a share of total I/O), the resume columns show what
/// it buys (committed merge passes skipped, resume I/O below a rerun).
pub fn recovery_sweep(scale: &ExpScale) -> Result<ExpTable> {
    let spec = bench_spec();
    let mut t = ExpTable::new(
        "recovery",
        "Crash/resume sweep: journal overhead vs resume cost (checkpointed nexsort+degen)",
        &[
            "crash-at",
            "sort-span",
            "total-io",
            "journal-io",
            "journal-%",
            "resume-io",
            "resume-%",
            "skipped",
            "replayed",
            "match",
        ],
    );
    // A flat document under tight memory: degeneration's merge passes are
    // the committed work units a late resume gets to skip.
    let n = scale.base_elements / 4;
    let mut cfg = RunConfig { checkpoint: true, ..RunConfig::sized(scale.block_size, 12) };
    cfg.job.degeneration = true;
    for (num, den) in [(1u64, 4u64), (2, 4), (3, 4), (19, 20)] {
        let mut a = ExactGen::new(&[n], GenConfig::default());
        let mut b = ExactGen::new(&[n], GenConfig::default());
        let m = measure_recovery(&mut a, &mut b, &spec, &cfg, num, den)?;
        t.push_row(vec![
            m.crash_at.to_string(),
            m.sort_span.to_string(),
            m.total_ios.to_string(),
            m.journal_ios.to_string(),
            format!("{:.1}%", m.journal_ios as f64 / m.total_ios.max(1) as f64 * 100.0),
            m.resume_ios.to_string(),
            format!("{:.0}%", m.resume_ios as f64 / m.total_ios.max(1) as f64 * 100.0),
            m.passes_skipped.to_string(),
            m.resumed.to_string(),
            m.outputs_match.to_string(),
        ]);
    }
    t.note("journal-%: what checkpointing costs an uninterrupted sort; the paper's model does not charge it");
    t.note("resume-%: the resume's logical I/O relative to the uninterrupted sort; late crashes resume cheaply because committed merge passes are replayed from the journal, never redone");
    Ok(t)
}

/// **Jobs sweep** -- the sort daemon's throughput and latency profile.
/// A fixed batch of journaled jobs is pushed through `nexsort-server`
/// worker pools of 1/2/4/8 real OS threads (then through shrinking
/// admission queues at 4 workers, where the submitter must ride the busy
/// backpressure). Wall-clock throughput and latency quantiles may move
/// with the pool; each job's *logical* I/O is the paper's cost and must be
/// bit-constant across every row -- the sweep asserts it.
pub fn jobs_sweep(scale: &ExpScale) -> Result<ExpTable> {
    use nexsort_server::{JobInput, JobSpec, JobState, Server, ServerConfig, SubmitError};

    let mut t = ExpTable::new(
        "jobs",
        "Sort-daemon sweep: jobs/sec and latency vs worker pool and queue depth",
        &[
            "workers",
            "queue",
            "jobs",
            "wall-s",
            "jobs-per-s",
            "p50-ms",
            "p99-ms",
            "logical-io-per-job",
        ],
    );
    let jobs = 12usize;
    let elems = (scale.base_elements / 12).clamp(500, 40_000) as usize;
    let docs: Vec<Vec<u8>> = (0..jobs)
        .map(|j| {
            let mut doc = String::from("<root>");
            let mut z = 0x9E3779B97F4A7C15u64 ^ (j as u64) << 17;
            for i in 0..elems {
                z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                doc.push_str(&format!(
                    "<item k=\"{:05}\" pad=\"xxxxxxxx\"/>",
                    (z >> 33) as usize % (8 * elems) + i % 2
                ));
            }
            doc.push_str("</root>");
            doc.into_bytes()
        })
        .collect();
    let spec_for = |doc: &[u8]| JobSpec {
        input: JobInput::Inline(doc.to_vec()),
        default_rule: Some("@k:num".into()),
        block_size: scale.block_size,
        mem_frames: 16,
        degeneration: true,
        ..JobSpec::default()
    };

    // Per-job logical I/O from the first row is the reference every later
    // row must reproduce exactly.
    let mut reference: Option<Vec<u64>> = None;
    let base = std::env::temp_dir().join(format!("nxbench-jobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    for &(workers, queue) in &[(1usize, 16usize), (2, 16), (4, 16), (8, 16), (4, 4), (4, 2)] {
        let dir = base.join(format!("w{workers}-q{queue}"));
        let mut cfg = ServerConfig::new(workers, &dir);
        cfg.queue_depth = queue;
        cfg.budget_frames = 16 * jobs * 2;
        let server = Server::start(cfg).map_err(|e| bench_err(&e))?;
        let started = std::time::Instant::now();
        let mut ids = Vec::with_capacity(jobs);
        for doc in &docs {
            // A full queue is backpressure, not failure: ride it out.
            let id = loop {
                match server.submit(spec_for(doc)) {
                    Ok(id) => break id,
                    Err(SubmitError::Busy(_)) => {
                        std::thread::sleep(std::time::Duration::from_millis(1))
                    }
                    Err(SubmitError::Invalid(e)) => return Err(bench_err(&e)),
                }
            };
            ids.push(id);
        }
        let mut latencies_ms = Vec::with_capacity(jobs);
        let mut logical = Vec::with_capacity(jobs);
        for id in &ids {
            let st = server
                .wait(*id, std::time::Duration::from_secs(600))
                .ok_or_else(|| bench_err("job vanished"))?;
            if st.state != JobState::Done {
                return Err(bench_err(&format!("job {id} ended {:?}: {:?}", st.state, st.error)));
            }
            let report = st.report.as_ref().ok_or_else(|| bench_err("missing report"))?;
            logical.push(report.logical_reads + report.logical_writes);
            let lat = st.latency.ok_or_else(|| bench_err("missing latency"))?;
            latencies_ms.push(lat.as_secs_f64() * 1000.0);
        }
        let wall = started.elapsed().as_secs_f64();
        server.shutdown();
        match &reference {
            None => reference = Some(logical.clone()),
            Some(want) => {
                if want != &logical {
                    t.note(format!(
                        "WARNING: logical I/O drifted at workers={workers} queue={queue}"
                    ));
                }
            }
        }
        latencies_ms.sort_by(|a, b| a.total_cmp(b));
        let q = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p) as usize];
        let per_job = logical.iter().sum::<u64>() / jobs as u64;
        t.push_row(vec![
            workers.to_string(),
            queue.to_string(),
            jobs.to_string(),
            format!("{wall:.2}"),
            format!("{:.1}", jobs as f64 / wall.max(1e-9)),
            format!("{:.1}", q(0.50)),
            format!("{:.1}", q(0.99)),
            per_job.to_string(),
        ]);
    }
    let _ = std::fs::remove_dir_all(&base);
    t.note("logical-io-per-job: mean per-job logical transfers; asserted identical across all rows (concurrency and queueing never change the paper's cost model)");
    t.note("wall-s/latency: real threads on real time -- the one table where wall clock, not simulated disk time, is the measurement");
    t.note(format!(
        "host parallelism: {} hardware thread(s); throughput scales with min(workers, host threads)",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    Ok(t)
}

/// **Top-k sweep** -- logical I/O of `ORDER BY ... LIMIT k` vs k, against
/// the full-sort cost of the same document. The pruning claim in one curve:
/// I/O decreases monotonically as k shrinks and sits strictly below the
/// full sort once k is a small fraction of N, while the output stays
/// byte-identical to the first k records of the full sort.
pub fn topk_sweep(scale: &ExpScale) -> Result<ExpTable> {
    use nexsort::{Nexsort, NexsortOptions};
    use nexsort_baseline::stage_input;
    use nexsort_extmem::Disk;
    use nexsort_query::TopK;
    use nexsort_xml::EventSource;

    let mut t = ExpTable::new(
        "topk",
        "Top-k sweep: logical I/O of ORDER BY ... LIMIT k vs the full sort",
        &[
            "k",
            "emitted",
            "runs",
            "pruned",
            "bound-drops",
            "passes",
            "skipped",
            "topk-io",
            "fullsort-io",
            "io-ratio",
            "identical",
        ],
    );
    let spec = bench_spec();
    let mem_frames = 12usize;
    let mut gen = ExactGen::new(
        &fanouts_for(scale.base_elements, 85),
        GenConfig { seed: 11, ..Default::default() },
    );
    let mut events = Vec::new();
    while let Some(ev) = gen.next_event()? {
        events.push(ev);
    }
    let xml = nexsort_xml::events_to_xml(&events, false);

    // The full-sort reference: same document, same memory, same stack.
    let disk = Disk::new_mem(scale.block_size);
    let input = stage_input(&disk, &xml)?;
    let opts = NexsortOptions { degeneration: true, mem_frames, ..Default::default() };
    let full = Nexsort::new(disk, opts, spec.clone())?.sort_xml_extent(&input)?;
    let full_ios = full.report.total_ios();
    let full_recs = full.to_recs()?;
    let n = full_recs.len() as u64;

    let mut ks: Vec<u64> = vec![1, (n / 1000).max(2), n / 100, n / 10, n / 2, n]
        .into_iter()
        .filter(|&k| k > 0)
        .collect();
    ks.dedup();
    for k in ks {
        let disk = Disk::new_mem(scale.block_size);
        let input = stage_input(&disk, &xml)?;
        let opts = NexsortOptions { mem_frames, ..Default::default() };
        let doc = TopK::new(disk, opts, spec.clone(), k)?.topk_xml_extent(&input)?;
        let got = doc.to_recs()?;
        let want: Vec<_> = full_recs.iter().take(k as usize).cloned().collect();
        let identical = got == want;
        let r = &doc.report;
        t.push_row(vec![
            k.to_string(),
            r.records_emitted.to_string(),
            r.runs_formed.to_string(),
            r.runs_pruned.to_string(),
            r.bound_drops.to_string(),
            r.sort.degenerate_merges.to_string(),
            r.merge_passes_skipped.to_string(),
            r.total_ios().to_string(),
            full_ios.to_string(),
            format!("{:.3}", r.total_ios() as f64 / full_ios.max(1) as f64),
            identical.to_string(),
        ]);
        if !identical {
            t.note(format!("WARNING: k={k} output diverged from the full-sort prefix"));
        }
    }
    t.note(format!(
        "document: {n} records, {mem_frames} memory frames, block {} B",
        scale.block_size
    ));
    t.note(
        "identical: topk output == first k records of the full sort (byte-level record compare)",
    );
    t.note("io-ratio: topk logical I/O over full-sort logical I/O; shrinks with k as run pruning and pass skipping bite");
    Ok(t)
}

/// Adapt a daemon-side `String` error to the experiment `Result` type.
fn bench_err(msg: &str) -> nexsort_xml::XmlError {
    nexsort_xml::XmlError::Record(msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanouts_for_keeps_k_capped_and_size_close() {
        for target in [100u64, 1_000, 10_000, 100_000] {
            let f = fanouts_for(target, 85);
            assert!(f.iter().all(|&x| (2..=85).contains(&x)), "{f:?}");
            let n = ExactGen::total_elements(&f);
            assert!(n <= target + 85, "overshoot: {n} for {target}");
            assert!(n * 3 >= target, "undershoot: {n} for {target}");
        }
    }

    #[test]
    fn table1_reproduces_the_paper_rows() {
        let t = table1().unwrap();
        assert_eq!(t.rows.len(), 11);
        assert_eq!(t.rows[0][0], "/");
        assert!(t.rows.iter().any(|r| r[0] == "/AC/Durham/454"));
        assert!(t.render().contains("employee"));
    }

    #[test]
    fn table2_lists_five_shapes() {
        let t = table2(&ExpScale::quick());
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0][2], "3000001");
        assert!(!t.to_csv().is_empty());
    }

    #[test]
    fn quick_fig5_shows_nexsort_flatter_than_mergesort() {
        let t = fig5(&ExpScale::quick()).unwrap();
        // Rows alternate nexsort / mergesort per memory point.
        let totals = |algo: &str| -> Vec<u64> {
            t.rows.iter().filter(|r| r[1] == algo).map(|r| r[4].parse().unwrap()).collect()
        };
        let nx = totals("nexsort");
        let ms = totals("mergesort");
        assert_eq!(nx.len(), ms.len());
        // Low-memory degradation ratio is worse for merge sort.
        let nx_ratio = nx[0] as f64 / *nx.last().unwrap() as f64;
        let ms_ratio = ms[0] as f64 / *ms.last().unwrap() as f64;
        assert!(
            ms_ratio >= nx_ratio,
            "merge sort should degrade more as memory shrinks: nx {nx_ratio:.2} ms {ms_ratio:.2}"
        );
    }

    #[test]
    fn quick_fig6_shows_nexsort_linear_scaling() {
        let t = fig6(&ExpScale::quick()).unwrap();
        let rows: Vec<(u64, String, u64)> = t
            .rows
            .iter()
            .map(|r| (r[0].parse().unwrap(), r[2].clone(), r[5].parse().unwrap()))
            .collect();
        let nx: Vec<(u64, u64)> =
            rows.iter().filter(|r| r.1 == "nexsort").map(|r| (r.0, r.2)).collect();
        // I/O per element roughly constant for NEXSORT across sizes.
        let per0 = nx[0].1 as f64 / nx[0].0 as f64;
        let per_last = nx.last().unwrap().1 as f64 / nx.last().unwrap().0 as f64;
        assert!(
            per_last < per0 * 1.6,
            "NEXSORT I/O per element should stay near-constant: {per0:.4} -> {per_last:.4}"
        );
    }

    #[test]
    fn quick_ablate_dsframes_lent_never_costs_more() {
        let t = ablate_dsframes(&ExpScale::quick()).unwrap();
        for pair in t.rows.chunks(2) {
            let (published, lent) = (&pair[0], &pair[1]);
            assert_eq!((published[2].as_str(), lent[2].as_str()), ("published", "lent"));
            let io = |r: &Vec<String>, col: usize| -> u64 { r[col].parse().unwrap() };
            assert!(io(lent, 3) <= io(published, 3), "data stack: {pair:?}");
            assert!(io(lent, 6) <= io(published, 6), "total: {pair:?}");
            assert_eq!(lent[9], published[9], "same subtree sorts: {pair:?}");
        }
    }

    #[test]
    fn quick_fault_sweep_keeps_logical_io_constant() {
        let t = fault_sweep(&ExpScale::quick()).unwrap();
        assert!(!t.notes.iter().any(|n| n.contains("WARNING")), "{:?}", t.notes);
        let ok_rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[4] == "ok").collect();
        assert!(ok_rows.len() >= 4);
        let totals: Vec<&str> = ok_rows.iter().map(|r| r[7].as_str()).collect();
        assert!(totals.windows(2).all(|w| w[0] == w[1]), "{totals:?}");
        // Nonzero rates must actually inject and retry.
        let faulted = ok_rows.iter().filter(|r| r[0] != "0").collect::<Vec<_>>();
        assert!(faulted.iter().any(|r| r[1].parse::<u64>().unwrap() > 0));
        assert!(faulted.iter().any(|r| r[2].parse::<u64>().unwrap() > 0));
        // The persistent-corruption row reports a structured failure.
        let last = t.rows.last().unwrap();
        assert!(last[4].contains("sort failed during"), "{}", last[4]);
    }

    #[test]
    fn quick_degradation_sweep_heals_and_keeps_parity_overhead_small() {
        let t = degradation_sweep(&ExpScale::quick()).unwrap();
        assert!(!t.notes.iter().any(|n| n.contains("WARNING")), "{:?}", t.notes);
        let cell = |r: &Vec<String>, i: usize| -> u64 { r[i].parse().unwrap() };
        // Columns: parity-group, bad-sectors, logical, data, parity, phys,
        // overhead, repairs, quarantined, rederived, degraded, match.
        let off = t.rows.iter().find(|r| r[0] == "off").unwrap();
        assert_eq!(cell(off, 4), 0, "parity off must charge no parity I/O: {off:?}");
        assert_eq!(cell(off, 2), cell(off, 5), "no pool: physical == logical");
        let healthy: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[1] == "0").collect();
        assert_eq!(healthy.len(), 5);
        for r in &healthy {
            assert_eq!(cell(r, 3), cell(off, 3), "data I/O must not move with parity: {r:?}");
            if r[0] != "off" {
                assert!(cell(r, 4) > 0, "parity on must charge parity I/O: {r:?}");
            }
        }
        // Acceptance bar: <= 15% physical overhead at the default group
        // size of 8 (mirroring at 1 is allowed to cost more).
        let k8 = healthy.iter().find(|r| r[0] == "8").unwrap();
        assert!(
            cell(k8, 5) as f64 <= cell(off, 5) as f64 * 1.15,
            "parity-group 8 overhead above 15%: {k8:?} vs {off:?}"
        );
        // Every faulted row heals to bit-identical output and says so.
        let faulted: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[1] != "0").collect();
        assert_eq!(faulted.len(), 2);
        for r in &faulted {
            assert!(cell(r, 1) >= 2, "stride must inject several bad sectors: {r:?}");
            assert_eq!(r[11], "true", "faulted output must match the clean run: {r:?}");
            assert_eq!(r[10], "true", "mid-sort losses must mark the report degraded: {r:?}");
            assert!(cell(r, 7) + cell(r, 9) >= 1, "faults must be repaired or re-derived: {r:?}");
            assert!(cell(r, 8) >= 1, "hard faults must quarantine sectors: {r:?}");
        }
    }

    #[test]
    fn quick_cache_sweep_cuts_physical_io_without_moving_logical_io() {
        let t = cache_sweep(&ExpScale::quick()).unwrap();
        assert!(!t.notes.iter().any(|n| n.contains("WARNING")), "{:?}", t.notes);
        // Columns: frames, policy, mode, logical, phys, logical-rd, phys-rd, ...
        let cell = |r: &Vec<String>, i: usize| -> u64 { r[i].parse().unwrap() };
        let uncached = t.rows.iter().find(|r| r[0] == "0").unwrap();
        assert_eq!(
            cell(uncached, 3),
            cell(uncached, 4),
            "no pool: physical == logical, byte-identical accounting"
        );
        // Every row reports the same logical total...
        assert!(t.rows.iter().all(|r| cell(r, 3) == cell(uncached, 3)), "{:?}", t.rows);
        // ...and a warm pool performs strictly fewer physical reads than
        // logical reads, for every policy and write mode at the top size.
        let warm: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "64").collect();
        assert_eq!(warm.len(), 4, "lru/clock x through/back");
        for r in &warm {
            assert!(
                cell(r, 6) < cell(r, 5),
                "physical reads should drop below logical with 64 frames: {r:?}"
            );
            assert!(cell(r, 7) > 0, "warm pool must record hits: {r:?}");
        }
        // Write-back coalesces: strictly fewer physical transfers than
        // write-through at the same size and policy.
        let phys_of = |policy: &str, mode: &str| -> u64 {
            cell(warm.iter().find(|r| r[1] == policy && r[2] == mode).unwrap(), 4)
        };
        assert!(phys_of("lru", "write-back") <= phys_of("lru", "write-through"));
    }

    #[test]
    fn quick_recovery_sweep_resumes_cheaper_than_rerunning() {
        let t = recovery_sweep(&ExpScale::quick()).unwrap();
        assert_eq!(t.rows.len(), 4);
        let cell = |r: &Vec<String>, i: usize| -> u64 { r[i].parse().unwrap() };
        for r in &t.rows {
            assert_eq!(r[9], "true", "resumed output must match the uninterrupted run: {r:?}");
            assert!(cell(r, 3) > 0, "a checkpointed run must write journal records: {r:?}");
        }
        // The latest crash point replays committed merge passes instead of
        // redoing them: a genuine resume, skipping work, cheaper than the
        // uninterrupted sort.
        let last = t.rows.last().unwrap();
        assert_eq!(last[8], "true", "a near-complete sort must resume from the journal");
        assert!(cell(last, 7) > 0, "late resume should skip committed passes: {last:?}");
        assert!(
            cell(last, 5) < cell(last, 2),
            "late resume should cost less than the full sort: {last:?}"
        );
    }

    #[test]
    fn bounds_table_is_internally_consistent() {
        let t = bounds_vs_measured(&ExpScale::quick()).unwrap();
        let get = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0].starts_with(name)).unwrap()[1].parse().unwrap()
        };
        assert!(get("lower bound") <= get("NEXSORT bound") * 8.0);
        assert!(get("log2 #outcomes (xml") <= get("log2 #outcomes (flat"));
        assert!(get("measured") >= get("input blocks"));
    }
}
