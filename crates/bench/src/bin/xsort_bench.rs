//! The experiment harness CLI: regenerates every table and figure of the
//! NEXSORT paper.
//!
//! ```text
//! xsort-bench [--quick|--full] [--csv DIR] [--json DIR] [all|table1|table2|
//!              threshold|fig5|fig6|fig7|ablate-compaction|ablate-frames|
//!              ablate-dsframes|bounds|faults|cache|recovery|degradation|jobs|topk]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use nexsort_bench::{
    ablate_compaction, ablate_dsframes, ablate_frames, bounds_vs_measured, cache_sweep,
    degradation_sweep, fault_sweep, fig5, fig6, fig7, jobs_sweep, recovery_sweep, table1, table2,
    threshold_experiment, topk_sweep, ExpScale, ExpTable,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: xsort-bench [--quick|--full] [--csv DIR] [--json DIR] \
         [all|table1|table2|threshold|fig5|fig6|fig7|ablate-compaction|ablate-frames|ablate-dsframes|bounds|faults|cache|recovery|degradation|jobs|topk]..."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut scale = ExpScale::standard();
    let mut csv_dir: Option<PathBuf> = None;
    let mut json_dir: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = ExpScale::quick(),
            "--full" => scale = ExpScale::full(),
            "--csv" => match args.next() {
                Some(d) => csv_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "--json" => match args.next() {
                Some(d) => json_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "-h" | "--help" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    let run_one = |name: &str, scale: &ExpScale| -> Result<Option<ExpTable>, String> {
        let t = match name {
            "table1" => table1().map_err(|e| e.to_string())?,
            "table2" => table2(scale),
            "threshold" => threshold_experiment(scale).map_err(|e| e.to_string())?,
            "fig5" => fig5(scale).map_err(|e| e.to_string())?,
            "fig6" => fig6(scale).map_err(|e| e.to_string())?,
            "fig7" => fig7(scale).map_err(|e| e.to_string())?,
            "ablate-compaction" => ablate_compaction(scale).map_err(|e| e.to_string())?,
            "ablate-frames" => ablate_frames(scale).map_err(|e| e.to_string())?,
            "ablate-dsframes" => ablate_dsframes(scale).map_err(|e| e.to_string())?,
            "bounds" => bounds_vs_measured(scale).map_err(|e| e.to_string())?,
            "faults" => fault_sweep(scale).map_err(|e| e.to_string())?,
            "cache" => cache_sweep(scale).map_err(|e| e.to_string())?,
            "recovery" => recovery_sweep(scale).map_err(|e| e.to_string())?,
            "degradation" => degradation_sweep(scale).map_err(|e| e.to_string())?,
            "jobs" => jobs_sweep(scale).map_err(|e| e.to_string())?,
            "topk" => topk_sweep(scale).map_err(|e| e.to_string())?,
            _ => return Ok(None),
        };
        Ok(Some(t))
    };

    let all = [
        "table1",
        "table2",
        "threshold",
        "fig5",
        "fig6",
        "fig7",
        "ablate-compaction",
        "ablate-frames",
        "ablate-dsframes",
        "bounds",
        "faults",
        "cache",
        "recovery",
        "degradation",
        "jobs",
        "topk",
    ];
    let mut queue: Vec<&str> = Vec::new();
    for t in &targets {
        if t == "all" {
            queue.extend(all);
        } else {
            queue.push(t);
        }
    }

    for name in queue {
        let started = std::time::Instant::now();
        match run_one(name, &scale) {
            Ok(Some(table)) => {
                println!("{}", table.render());
                println!("  ({name} completed in {:.1?})\n", started.elapsed());
                let exports: [(&Option<PathBuf>, &str, String); 2] =
                    [(&csv_dir, "csv", table.to_csv()), (&json_dir, "json", table.to_json())];
                for (dir, ext, payload) in exports {
                    let Some(dir) = dir else { continue };
                    if let Err(e) = std::fs::create_dir_all(dir) {
                        eprintln!("cannot create {dir:?}: {e}");
                        return ExitCode::FAILURE;
                    }
                    let path = dir.join(format!("{name}.{ext}"));
                    if let Err(e) = std::fs::write(&path, payload) {
                        eprintln!("cannot write {path:?}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Ok(None) => {
                eprintln!("unknown experiment: {name}");
                return usage();
            }
            Err(e) => {
                eprintln!("experiment {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
