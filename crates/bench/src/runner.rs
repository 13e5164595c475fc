//! Running one sort under measurement.
//!
//! Every measurement stages a generated document on a fresh simulated disk
//! (uncharged), runs one algorithm end to end -- sorting phase *and* output
//! phase, matching the paper's reported sort times -- and collects the
//! per-category I/O breakdown, pass structure, and wall-clock.

use std::rc::Rc;
use std::time::Duration;

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::{sort_rec_extent, BaselineOptions};
use nexsort_datagen::stage_as_recs;
use nexsort_extmem::{
    CrashPlan, Disk, DiskBuilder, DiskStack, FaultCounts, FaultKind, FaultPlan, IoCat, IoSnapshot,
    RetryPolicy,
};
use nexsort_server::JobSpec;
use nexsort_xml::{EventSource, Result, SortSpec, XmlError};

/// Simulated disk service time per block transfer. The paper's testbed did
/// ~64 KB transfers on a 2003-era disk (roughly 12 ms each, seek-dominated);
/// the absolute value only scales the "sim time" column, never the shapes.
pub const SIM_MS_PER_IO: f64 = 12.0;

/// Configuration of one measured run: the job knobs `xsort` and the daemon
/// share, plus the sorter knobs only the bench sweeps.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Block size, memory, threshold, depth limit, degeneration, page cache,
    /// stripe and parity, mapped onto a device stack and sorter options
    /// exactly as `xsort` and the daemon map them.
    pub job: JobSpec,
    /// Compaction (tag dictionary) on/off.
    pub compaction: bool,
    /// Path-stack resident frames (Lemma 4.11 ablation).
    pub path_stack_frames: usize,
    /// Cap on the data stack's resident frames. The experiments model the
    /// paper, so the default is its one-frame policy; `ablate-dsframes`
    /// sets [`NexsortOptions::LEND_ALL`], the sorter's own default.
    pub data_stack_frames: usize,
    /// Crash-consistent checkpointing: keep a write-ahead manifest journal
    /// on the device (extra I/O the paper's model does not charge).
    pub checkpoint: bool,
    /// Journal extent size in blocks when `checkpoint` is on.
    pub journal_blocks: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            job: JobSpec::default(),
            compaction: true,
            path_stack_frames: 2,
            data_stack_frames: 1,
            checkpoint: false,
            journal_blocks: 32,
        }
    }
}

impl RunConfig {
    /// The default run at the given block size and memory.
    pub fn sized(block_size: usize, mem_frames: usize) -> Self {
        Self { job: JobSpec { block_size, mem_frames, ..JobSpec::default() }, ..Self::default() }
    }
}

/// The sorter options a [`RunConfig`] describes.
fn nexsort_opts(cfg: &RunConfig) -> NexsortOptions {
    NexsortOptions {
        compaction: cfg.compaction,
        path_stack_frames: cfg.path_stack_frames,
        data_stack_frames: cfg.data_stack_frames,
        journal_blocks: cfg.journal_blocks,
        ..cfg.job.nexsort_options(cfg.checkpoint)
    }
}

fn build(builder: DiskBuilder) -> Result<DiskStack> {
    builder.build().map_err(|e| XmlError::Record(e.to_string()))
}

/// The configured simulated disk: in-memory, striped over `job.stripe`
/// devices, with the configured page cache.
fn bench_disk(cfg: &RunConfig) -> Result<Rc<Disk>> {
    Ok(build(cfg.job.disk_builder())?.disk)
}

/// The outcome of one measured run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm label ("nexsort", "nexsort+degen", "mergesort").
    pub algo: String,
    /// Elements in the input.
    pub n_elements: u64,
    /// Input bytes (encoded records).
    pub input_bytes: u64,
    /// Input blocks (the analysis' `n`).
    pub input_blocks: u64,
    /// Observed max fan-out `k` (0 when the algorithm does not track it).
    pub max_fanout: u64,
    /// Observed height.
    pub height: u32,
    /// Memory frames `m`.
    pub mem_frames: usize,
    /// I/O of the sorting phase.
    pub sort_ios: u64,
    /// I/O of the output phase.
    pub output_ios: u64,
    /// Combined per-category breakdown.
    pub breakdown: IoSnapshot,
    /// NEXSORT: subtree sorts `x`; merge sort: passes over the data.
    pub structure: u64,
    /// Human-readable detail line.
    pub detail: String,
    /// Wall-clock of the measured phases.
    pub wall: Duration,
}

impl Measurement {
    /// Total block transfers, sorting + output.
    pub fn total_ios(&self) -> u64 {
        self.sort_ios + self.output_ios
    }

    /// Simulated disk time in seconds at [`SIM_MS_PER_IO`].
    pub fn sim_seconds(&self) -> f64 {
        self.total_ios() as f64 * SIM_MS_PER_IO / 1000.0
    }
}

/// Measure NEXSORT end-to-end on a freshly staged document.
pub fn measure_nexsort(
    gen: &mut dyn EventSource,
    spec: &SortSpec,
    cfg: &RunConfig,
) -> Result<Measurement> {
    let disk = bench_disk(cfg)?;
    let staged = stage_as_recs(&disk, gen, spec, cfg.compaction)?;
    let sorter = Nexsort::new(disk.clone(), nexsort_opts(cfg), spec.clone())?;
    let sorted = sorter.sort_rec_extent(&staged.extent, staged.dict.clone())?;
    let (_out_run, out_report) = sorted.write_output_run()?;

    let report = &sorted.report;
    let sort_ios = report.io.grand_total();
    let output_ios = out_report.io.grand_total();
    // Under write-back the pool may still hold dirty frames; flush them so
    // the physical counters in the breakdown are final.
    disk.cache_flush_all()?;
    let breakdown = disk.stats().snapshot();
    Ok(Measurement {
        algo: if cfg.job.degeneration { "nexsort+degen".into() } else { "nexsort".into() },
        n_elements: staged.n_elements,
        input_bytes: staged.bytes,
        input_blocks: staged.bytes.div_ceil(cfg.job.block_size as u64),
        max_fanout: report.max_fanout,
        height: report.max_level,
        mem_frames: cfg.job.mem_frames,
        sort_ios,
        output_ios,
        breakdown,
        structure: u64::from(report.subtree_sorts),
        detail: format!(
            "x={} (int {}, ext {}, dump {}, inc {}, mrg {})",
            report.subtree_sorts,
            report.internal_sorts,
            report.external_sorts,
            report.dumped_runs,
            report.incomplete_runs,
            report.degenerate_merges
        ),
        wall: report.elapsed + out_report.elapsed,
    })
}

/// Measure NEXSORT end-to-end on a fault-injecting, checksummed disk with
/// `retries` transient-fault retries per transfer. Returns the measurement
/// plus the count of faults actually injected; an unrecoverable fault is
/// reported as an error carrying the structured failure description
/// (phase, failing transfer, attempts).
pub fn measure_nexsort_faulty(
    gen: &mut dyn EventSource,
    spec: &SortSpec,
    cfg: &RunConfig,
    plan: FaultPlan,
    retries: u32,
) -> Result<(Measurement, FaultCounts)> {
    // Each inner device runs its own copy of the plan (same seed: the
    // schedules stay deterministic, drawn per-device).
    let mut builder = cfg.job.disk_builder().faults_per_device(vec![plan; cfg.job.stripe.max(1)]);
    if retries > 0 {
        builder = builder.retry(RetryPolicy::retries(retries));
    }
    let DiskStack { disk, injectors, .. } = build(builder)?;
    let staged = stage_as_recs(&disk, gen, spec, cfg.compaction)?;
    let sorter = Nexsort::new(disk.clone(), nexsort_opts(cfg), spec.clone())?;
    let sorted = sorter
        .try_sort_rec_extent(&staged.extent, staged.dict.clone())
        .map_err(|f| XmlError::Record(f.to_string()))?;
    let (_out_run, out_report) = sorted.write_output_run()?;

    let report = &sorted.report;
    let sort_ios = report.io.grand_total();
    let output_ios = out_report.io.grand_total();
    disk.cache_flush_all()?;
    let breakdown = disk.stats().snapshot();
    let m = Measurement {
        algo: "nexsort+faults".into(),
        n_elements: staged.n_elements,
        input_bytes: staged.bytes,
        input_blocks: staged.bytes.div_ceil(cfg.job.block_size as u64),
        max_fanout: report.max_fanout,
        height: report.max_level,
        mem_frames: cfg.job.mem_frames,
        sort_ios,
        output_ios,
        breakdown,
        structure: u64::from(report.subtree_sorts),
        detail: format!(
            "retried={} backoff={}",
            breakdown.total_retries(),
            breakdown.backoff_units()
        ),
        wall: report.elapsed + out_report.elapsed,
    };
    let mut counts = FaultCounts::default();
    for inj in &injectors {
        let c = inj.counts();
        counts.read_errors += c.read_errors;
        counts.write_errors += c.write_errors;
        counts.torn_writes += c.torn_writes;
        counts.read_flips += c.read_flips;
        counts.write_flips += c.write_flips;
    }
    Ok((m, counts))
}

/// The outcome of one degraded-mode measurement.
#[derive(Debug, Clone)]
pub struct DegradedMeasurement {
    /// Bad sectors injected into run-store data blocks.
    pub faults: usize,
    /// Logical transfers of the faulted run, serialization included.
    pub logical_ios: u64,
    /// Physical transfers of the faulted run.
    pub physical_ios: u64,
    /// Parity-category transfers within the logical total.
    pub parity_ios: u64,
    /// Blocks reconstructed from their parity group and rewritten.
    pub repairs: u64,
    /// Device blocks quarantined after a hard media fault.
    pub quarantined: u64,
    /// Runs re-derived from the journaled source (parity tolerance exceeded).
    pub rederivations: u64,
    /// The sort itself crossed a repair (`SortReport.degraded`).
    pub degraded: bool,
    /// The faulted output equals the fault-free run's, record for record.
    pub outputs_match: bool,
}

/// Measure NEXSORT under *permanent* media faults: run fault-free once to
/// learn the run-store data blocks and the reference output, then rerun the
/// same input with every `fault_stride`-th of those blocks turned into a bad
/// sector (each write lands silently corrupted, so every re-read fails its
/// checksum). `fault_stride == 0` injects nothing -- the second pass then
/// measures the healthy parity overhead with the report's repair counters
/// live. `gen_base` and `gen_fault` must be identically seeded generators.
pub fn measure_nexsort_degraded(
    gen_base: &mut dyn EventSource,
    gen_fault: &mut dyn EventSource,
    spec: &SortSpec,
    cfg: &RunConfig,
    fault_stride: usize,
) -> Result<DegradedMeasurement> {
    // Reference pass: trace the sorting phase to find blocks whose every
    // write is run-store data (a block recycled as a stack page or a parity
    // block is outside the parity layer's protection).
    let stripe = cfg.job.stripe.max(1) as u64;
    let faulty = || {
        build(cfg.job.disk_builder().faults_per_device(vec![FaultPlan::new(0); stripe as usize]))
    };
    let disk = faulty()?.disk;
    let staged = stage_as_recs(&disk, gen_base, spec, cfg.compaction)?;
    disk.start_trace();
    let sorter = Nexsort::new(disk.clone(), nexsort_opts(cfg), spec.clone())?;
    let sorted = sorter.sort_rec_extent(&staged.extent, staged.dict.clone())?;
    let base_recs = sorted.to_recs()?;
    let trace = disk.take_trace();
    let mut order: Vec<u64> = Vec::new();
    let mut data_only: std::collections::BTreeMap<u64, bool> = std::collections::BTreeMap::new();
    for t in trace.iter().filter(|t| !t.is_read) {
        let e = data_only.entry(t.block).or_insert_with(|| {
            order.push(t.block);
            true
        });
        *e &= t.cat == IoCat::SortScratch;
    }
    let scratch: Vec<u64> = order.into_iter().filter(|b| data_only[b]).collect();
    let targets: Vec<u64> = match fault_stride {
        0 => Vec::new(),
        s => scratch.iter().copied().step_by(s).collect(),
    };

    // Faulted pass: the identical input on a fresh disk with the bad
    // sectors armed before any byte is staged.
    let DiskStack { disk: disk2, injectors: inj2, .. } = faulty()?;
    for &b in &targets {
        // Global block ids stripe round-robin over the devices.
        inj2[(b % stripe) as usize].script_block_write(b / stripe, FaultKind::BitFlip);
    }
    let staged2 = stage_as_recs(&disk2, gen_fault, spec, cfg.compaction)?;
    let before = disk2.stats().snapshot();
    let sorter2 = Nexsort::new(disk2.clone(), nexsort_opts(cfg), spec.clone())?;
    let sorted2 = sorter2
        .try_sort_rec_extent(&staged2.extent, staged2.dict.clone())
        .map_err(|f| XmlError::Record(f.to_string()))?;
    let recs = sorted2.to_recs()?;
    disk2.cache_flush_all()?;
    let io = disk2.stats().snapshot().since(&before);
    // Health is read after serialization so repairs on the final output run
    // count too; the report's `degraded` bit covers only the sort itself.
    let health = disk2.health();
    Ok(DegradedMeasurement {
        faults: targets.len(),
        logical_ios: io.grand_total(),
        physical_ios: io.grand_total_physical(),
        parity_ios: io.total(IoCat::Parity),
        repairs: health.repairs(),
        quarantined: health.num_quarantined(),
        rederivations: health.rederived_runs(),
        degraded: sorted2.report.degraded,
        outputs_match: recs == base_recs,
    })
}

/// The outcome of one crash/resume measurement.
#[derive(Debug, Clone)]
pub struct RecoveryMeasurement {
    /// Logical transfers of the uninterrupted checkpointed sorting phase.
    pub total_ios: u64,
    /// Journal transfers within that total (the checkpointing overhead).
    pub journal_ios: u64,
    /// Physical I/O span of the sorting phase: the scale crash points are
    /// expressed against.
    pub sort_span: u64,
    /// Physical I/Os into the sort at which the crash fired.
    pub crash_at: u64,
    /// Logical transfers the resume spent, journal replay included.
    pub resume_ios: u64,
    /// Whether recovery genuinely replayed journal state (false: the crash
    /// predates the journal header and the resume fell back to a fresh sort).
    pub resumed: bool,
    /// Committed merge passes the resume skipped instead of redoing.
    pub passes_skipped: u32,
    /// The resumed output equals the uninterrupted run's, record for record.
    pub outputs_match: bool,
}

/// Measure one crash/resume cycle: run the checkpointed sort uninterrupted
/// for reference, then rerun the same input with a whole-device crash armed
/// `crash_num/crash_den` of the way through the sorting phase (by physical
/// I/O count), thaw, and resume from the journal. `gen_base` and
/// `gen_crash` must be identically seeded generators.
pub fn measure_recovery(
    gen_base: &mut dyn EventSource,
    gen_crash: &mut dyn EventSource,
    spec: &SortSpec,
    cfg: &RunConfig,
    crash_num: u64,
    crash_den: u64,
) -> Result<RecoveryMeasurement> {
    let cfg = RunConfig { checkpoint: true, ..cfg.clone() };
    // Reference run on a crash-capable (but disarmed) disk: its physical
    // I/O counter measures the sorting phase's span.
    let crashable = || -> Result<(Rc<Disk>, nexsort_extmem::CrashController)> {
        let stack = build(cfg.job.disk_builder().crash(CrashPlan::Disarmed))?;
        Ok((stack.disk, stack.crash.expect("a crash layer was configured")))
    };
    let (disk, ctl) = crashable()?;
    let staged = stage_as_recs(&disk, gen_base, spec, cfg.compaction)?;
    let stage_ios = ctl.ios();
    let before = disk.stats().snapshot();
    let sorter = Nexsort::new(disk.clone(), nexsort_opts(&cfg), spec.clone())?;
    let sorted = sorter.sort_rec_extent(&staged.extent, staged.dict.clone())?;
    let sort_span = ctl.ios() - stage_ios;
    let base_io = disk.stats().snapshot().since(&before);
    let base_recs = sorted.to_recs()?;

    // Crash run: the identical input on a fresh disk, interrupted mid-sort.
    let (disk2, ctl2) = crashable()?;
    let staged2 = stage_as_recs(&disk2, gen_crash, spec, cfg.compaction)?;
    let crash_at = (sort_span * crash_num / crash_den.max(1)).max(1);
    ctl2.arm_after(ctl2.ios() + crash_at);
    let sorter2 = Nexsort::new(disk2.clone(), nexsort_opts(&cfg), spec.clone())?;
    if sorter2.sort_rec_extent(&staged2.extent, staged2.dict.clone()).is_ok() {
        return Err(XmlError::Record(format!(
            "crash point {crash_at} of {sort_span} did not interrupt the sort"
        )));
    }
    ctl2.thaw();
    let before2 = disk2.stats().snapshot();
    let resumed = sorter2.resume_rec_extent(&staged2.extent, staged2.dict.clone())?;
    let resume_io = disk2.stats().snapshot().since(&before2);

    Ok(RecoveryMeasurement {
        total_ios: base_io.grand_total(),
        journal_ios: base_io.total(IoCat::Journal),
        sort_span,
        crash_at,
        resume_ios: resume_io.grand_total(),
        resumed: resumed.report.resumed,
        passes_skipped: resumed.report.committed_passes_skipped,
        outputs_match: resumed.to_recs()? == base_recs,
    })
}

/// Measure the key-path external merge-sort baseline end-to-end. Its final
/// merge pass *is* the output write, so no separate output phase exists.
pub fn measure_mergesort(
    gen: &mut dyn EventSource,
    spec: &SortSpec,
    cfg: &RunConfig,
) -> Result<Measurement> {
    let disk = bench_disk(cfg)?;
    let staged = stage_as_recs(&disk, gen, spec, cfg.compaction)?;
    let opts = BaselineOptions {
        mem_frames: cfg.job.mem_frames,
        compaction: cfg.compaction,
        depth_limit: cfg.job.depth_limit,
    };
    let start = std::time::Instant::now();
    let sorted = sort_rec_extent(&disk, &staged.extent, staged.dict.clone(), spec, &opts)?;
    let wall = start.elapsed();
    disk.cache_flush_all()?;
    let breakdown = disk.stats().snapshot();
    let output_ios = breakdown.total(IoCat::OutputWrite);
    let sort_ios = breakdown.grand_total() - output_ios;
    Ok(Measurement {
        algo: "mergesort".into(),
        n_elements: staged.n_elements,
        input_bytes: staged.bytes,
        input_blocks: staged.bytes.div_ceil(cfg.job.block_size as u64),
        max_fanout: 0,
        height: 0,
        mem_frames: cfg.job.mem_frames,
        sort_ios,
        output_ios,
        breakdown,
        structure: u64::from(sorted.report.passes),
        detail: format!(
            "passes={} runs={} fan-in={} pathed-bytes={}",
            sorted.report.passes,
            sorted.report.initial_runs,
            sorted.report.fan_in,
            sorted.report.bytes
        ),
        wall,
    })
}

/// Check both algorithms produce the same sorted document on a small input
/// (used by the harness's self-test mode and by tests).
pub fn outputs_agree(
    gen_a: &mut dyn EventSource,
    gen_b: &mut dyn EventSource,
    spec: &SortSpec,
    cfg: &RunConfig,
) -> Result<bool> {
    let disk = Disk::new_mem(cfg.job.block_size);
    let staged = stage_as_recs(&disk, gen_a, spec, cfg.compaction)?;
    let opts = NexsortOptions {
        mem_frames: cfg.job.mem_frames,
        threshold: cfg.job.threshold,
        degeneration: cfg.job.degeneration,
        compaction: cfg.compaction,
        ..Default::default()
    };
    let nx = Nexsort::new(disk.clone(), opts, spec.clone())?
        .sort_rec_extent(&staged.extent, staged.dict.clone())?;
    let nx_recs = nx.to_recs()?;

    let disk_b: Rc<Disk> = Disk::new_mem(cfg.job.block_size);
    let staged_b = stage_as_recs(&disk_b, gen_b, spec, cfg.compaction)?;
    let b_opts = BaselineOptions {
        mem_frames: cfg.job.mem_frames,
        compaction: cfg.compaction,
        depth_limit: None,
    };
    let ms = sort_rec_extent(&disk_b, &staged_b.extent, staged_b.dict.clone(), spec, &b_opts)?;
    let ms_recs = ms.to_recs()?;

    // Sequence numbers match (same generator seed), so exact equality holds.
    Ok(nx_recs == ms_recs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_datagen::{ExactGen, GenConfig, IbmGen};
    use nexsort_xml::KeyRule;

    fn spec() -> SortSpec {
        SortSpec::uniform(KeyRule::attr("k"))
    }

    #[test]
    fn nexsort_and_mergesort_measurements_agree_on_output() {
        let cfg = RunConfig::sized(512, 12);
        let mut a = ExactGen::new(&[12, 8], GenConfig::default());
        let mut b = ExactGen::new(&[12, 8], GenConfig::default());
        assert!(outputs_agree(&mut a, &mut b, &spec(), &cfg).unwrap());
    }

    #[test]
    fn measurements_carry_sane_numbers() {
        let cfg = RunConfig::sized(512, 12);
        let mut g = IbmGen::new(7, 8, Some(800), GenConfig::default());
        let m = measure_nexsort(&mut g, &spec(), &cfg).unwrap();
        assert!(m.n_elements > 500, "budget should bind: {}", m.n_elements);
        assert!(m.total_ios() > 0);
        assert!(m.sort_ios > 0 && m.output_ios > 0);
        assert!(m.structure >= 1, "at least the root sort");
        assert!(m.sim_seconds() > 0.0);

        let mut g = IbmGen::new(7, 8, Some(800), GenConfig::default());
        let b = measure_mergesort(&mut g, &spec(), &cfg).unwrap();
        assert_eq!(b.n_elements, m.n_elements);
        assert!(b.structure >= 2, "formation + final pass");
    }

    #[test]
    fn hierarchical_input_favors_nexsort() {
        // A 5-level document with modest fan-out, sized so merge sort needs
        // several passes: the headline claim of the paper (13-27% faster).
        let cfg = RunConfig::sized(512, 16);
        let fanouts = [10, 10, 10, 10];
        let mut g = ExactGen::new(&fanouts, GenConfig::default());
        let nx = measure_nexsort(&mut g, &spec(), &cfg).unwrap();
        let mut g = ExactGen::new(&fanouts, GenConfig::default());
        let ms = measure_mergesort(&mut g, &spec(), &cfg).unwrap();
        assert!(
            nx.total_ios() < ms.total_ios(),
            "NEXSORT {} vs merge sort {}",
            nx.total_ios(),
            ms.total_ios()
        );
    }

    #[test]
    fn flat_input_favors_mergesort_without_degeneration() {
        let cfg = RunConfig::sized(512, 10);
        let mut g = ExactGen::new(&[600], GenConfig::default());
        let nx = measure_nexsort(&mut g, &spec(), &cfg).unwrap();
        let mut g = ExactGen::new(&[600], GenConfig::default());
        let ms = measure_mergesort(&mut g, &spec(), &cfg).unwrap();
        assert!(
            nx.total_ios() > ms.total_ios(),
            "published NEXSORT loses on flat input: {} vs {}",
            nx.total_ios(),
            ms.total_ios()
        );
        // ...and degeneration repairs it (within a small margin).
        let mut g = ExactGen::new(&[600], GenConfig::default());
        let mut cfg = cfg;
        cfg.job.degeneration = true;
        let dg = measure_nexsort(&mut g, &spec(), &cfg).unwrap();
        assert!(
            (dg.total_ios() as f64) <= ms.total_ios() as f64 * 1.15,
            "degeneration {} should be within 15% of merge sort {}",
            dg.total_ios(),
            ms.total_ios()
        );
    }
}
