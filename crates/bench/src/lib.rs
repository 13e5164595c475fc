//! # nexsort-bench
//!
//! The experiment harness regenerating every table and figure of the NEXSORT
//! paper's evaluation (Section 5), plus the ablations listed in DESIGN.md.
//! The `xsort-bench` binary drives it; Criterion benches under `benches/`
//! wrap the same experiments at quick scale.

#![warn(missing_docs)]

mod experiments;
mod runner;
mod table;

pub use experiments::{
    ablate_compaction, ablate_dsframes, ablate_frames, bench_spec, bounds_vs_measured, cache_sweep,
    degradation_sweep, fanouts_for, fault_sweep, fig5, fig6, fig7, jobs_sweep, recovery_sweep,
    table1, table2, threshold_experiment, topk_sweep, ExpScale,
};
pub use runner::{
    measure_mergesort, measure_nexsort, measure_nexsort_degraded, measure_nexsort_faulty,
    measure_recovery, outputs_agree, DegradedMeasurement, Measurement, RecoveryMeasurement,
    RunConfig, SIM_MS_PER_IO,
};
pub use table::ExpTable;
