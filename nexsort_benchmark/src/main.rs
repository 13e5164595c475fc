//! `nexsort_benchmark`: wall-clock benchmark of the `xsort` CLI and daemon.
//!
//! End-to-end runs drive the real `xsort` binary found next to this one:
//! `xsort sort` as a child process per sort, and one `xsort serve` child
//! reached over a Unix socket. A traced run (`--trace 1`) times the same
//! work in-process instead, one span around each call into a layer. Every
//! output is checked against the in-memory oracle. See README.md.

#![forbid(unsafe_code)]

mod cli;
mod daemon;
mod inproc;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use nexsort_server::json::{b, n, obj, s, Value};

use crate::metrics::{Metrics, Row, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, tail};
use crate::trace::Span;
use crate::workload::{Kind, Workload, WORKLOADS};

const USAGE: &str = "\
usage: nexsort_benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                         [--quick] [--json PATH] [--spans PATH]

  --workload  cli-deep | cli-flat | cli-keypath | daemon-small | all (default all)
  --seed      inputs are generated from it (default 42)
  --seconds   measuring time per workload (default 25; 1 with --quick)
  --trace 1   time the work in-process, one span per layer call, and report
              the per-layer metrics instead of the end-to-end ones
  --quick     tiny inputs: the same code in seconds
  --json      write every metric, sample summary and failure to PATH
  --spans     with --trace 1, write the spans to PATH as JSON lines

The last line printed is one JSON object:
  {\"correct\":..,\"attempted\":..,\"failed\":..,\"metrics\":{NAME:{\"value\":..,\"unit\":..}}}
Run it through run.sh, which builds xsort and this binary side by side.";

/// Where a run finds the program and keeps its files.
pub struct Ctx {
    pub xsort: PathBuf,
    pub scratch: PathBuf,
    pub seconds: f64,
    pub quick: bool,
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation; true when it succeeded.
    pub fn record(&mut self, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

/// A named set of timing samples, summarised in the report.
pub struct Samples {
    label: &'static str,
    unit: &'static str,
    values: Vec<f64>,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    pub notes: Vec<String>,
    pub samples: Vec<Samples>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn timings(&mut self, label: &'static str, unit: &'static str, values: Vec<f64>) {
        self.samples.push(Samples { label, unit, values });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn finish(mut self, tally: Tally) -> Self {
        self.tally = tally;
        self
    }
}

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    json: Option<PathBuf>,
    spans: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workloads: WORKLOADS.iter().collect(),
            seed: 42,
            seconds: None,
            trace: false,
            quick: false,
            json: None,
            spans: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    o.workloads = match name.as_str() {
                        "all" => WORKLOADS.iter().collect(),
                        _ => vec![workload::find(name).ok_or(format!("unknown workload {name}"))?],
                    };
                }
                "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
                "--seconds" => {
                    let secs: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(secs > 0.0 && secs <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    o.seconds = Some(secs);
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--quick" => o.quick = true,
                "--json" => o.json = Some(PathBuf::from(value()?)),
                "--spans" => o.spans = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(o)
    }
}

/// The per-run scratch directory under the working directory, removed when
/// the run ends.
struct Scratch(PathBuf);

impl Scratch {
    const ROOT: &'static str = ".nexsort_bench_tmp";

    fn create() -> Result<Scratch, String> {
        let path = Path::new(Self::ROOT).join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds when no other run is using it.
        let _ = std::fs::remove_dir(Self::ROOT);
    }
}

/// The `xsort` built alongside this binary.
fn locate_xsort() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let xsort = exe.with_file_name("xsort");
    if xsort.is_file() {
        Ok(xsort)
    } else {
        Err(format!("no xsort next to {}: build both with run.sh", exe.display()))
    }
}

/// The file-system type holding `path`, from `/proc/self/mountinfo`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".into() };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = fields.get(4)?;
            let fstype = fields.get(fields.iter().position(|f| *f == "-")? + 1)?;
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// `n`, median, quartiles and tail of a sample set, as printed and saved.
fn summary(samples: &Samples) -> (String, Value) {
    let v = &samples.values;
    let med = median(v).unwrap_or(f64::NAN);
    let (q1, q3) = quartiles(v).unwrap_or((med, med));
    let unit = samples.unit;
    let mut line = format!(
        "{}: n={} median {med:.2} {unit}, IQR {:.2} {unit} ({:.1}% of median)",
        samples.label,
        v.len(),
        q3 - q1,
        (q3 - q1) / med * 100.0
    );
    let mut json = vec![
        ("unit", s(unit)),
        ("n", n(v.len() as u64)),
        ("median", Value::Num(med)),
        ("q1", Value::Num(q1)),
        ("q3", Value::Num(q3)),
        ("values", Value::Arr(v.iter().map(|&x| Value::Num(x)).collect())),
    ];
    match tail(v) {
        Some((p, t)) => {
            line.push_str(&format!(", p{p} {t:.2} {unit}"));
            json.push(("tail_percentile", Value::Num(p)));
            json.push(("tail", Value::Num(t)));
        }
        None => line.push_str(", too few samples for a tail percentile"),
    }
    (line, obj(json))
}

fn metrics_json(rows: &[Row], prefix: &str) -> Vec<(String, Value)> {
    rows.iter()
        .map(|r| {
            let v = obj(vec![("value", Value::Num(r.value)), ("unit", s(r.unit))]);
            (format!("{prefix}{}", r.name), v)
        })
        .collect()
}

fn report(w: &Workload, out: &Outcome, rows: &[Row]) -> Value {
    println!("== {}", w.name);
    let mut samples = Vec::new();
    for set in &out.samples {
        let (line, json) = summary(set);
        println!("  {line}");
        samples.push((set.label.to_string(), json));
    }
    for note in &out.notes {
        println!("  {note}");
    }
    if !out.spans.is_empty() {
        println!(
            "  {:<28} {:>7} {:>12} {:>12} {:>7}",
            "span", "calls", "total ms", "self ms", "share"
        );
        for r in trace::table(&out.spans) {
            println!(
                "  {:<28} {:>7} {:>12.1} {:>12.1} {:>6.1}%",
                r.name,
                r.calls,
                r.total_us as f64 / 1000.0,
                r.self_us as f64 / 1000.0,
                r.share * 100.0
            );
        }
    }
    for r in rows {
        println!("  {:<32} {:>14} {}", r.name, fmt_value(r.value), r.unit);
    }
    let t = &out.tally;
    println!("  {} operations, {} failed", t.attempted, t.failed);
    for e in &t.errors {
        println!("  FAILED: {e}");
    }
    obj(vec![
        ("name", s(w.name)),
        ("correct", b(t.failed == 0)),
        ("attempted", n(t.attempted)),
        ("failed", n(t.failed)),
        ("errors", Value::Arr(t.errors.iter().map(|e| s(e.clone())).collect())),
        ("notes", Value::Arr(out.notes.iter().map(|l| s(l.clone())).collect())),
        ("samples", Value::Obj(samples)),
        ("metrics", Value::Obj(metrics_json(rows, ""))),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run the selected workloads; true when every operation succeeded.
fn run(o: &Options) -> Result<bool, String> {
    let xsort = locate_xsort()?;
    let scratch = Scratch::create()?;
    let seconds = o.seconds.unwrap_or(if o.quick { 1.0 } else { 25.0 });
    let ctx = Ctx { xsort, scratch: scratch.0.clone(), seconds, quick: o.quick };
    let cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
    let fs = filesystem_of(&ctx.scratch);
    println!(
        "nexsort_benchmark: seed {}, {seconds} s per workload{}, trace {}; {cpus} cpus; \
         scratch {} ({fs})",
        o.seed,
        if o.quick { " (quick)" } else { "" },
        u8::from(o.trace),
        ctx.scratch.display()
    );
    let declared = if o.trace { PER_LAYER } else { END_TO_END };
    let (mut attempted, mut failed) = (0, 0);
    let (mut saved, mut metrics, mut spans) = (Vec::new(), Vec::new(), Vec::<Span>::new());
    for &w in &o.workloads {
        let out = match w.kind {
            Kind::Cli(algo) => cli::run(&ctx, w, algo, o.seed, o.trace)?,
            Kind::Daemon => daemon::run(&ctx, w, o.seed, o.trace)?,
        };
        let rows = out.metrics.select(declared)?;
        saved.push(report(w, &out, &rows));
        let prefix = if o.workloads.len() > 1 { format!("{}/", w.name) } else { String::new() };
        metrics.extend(metrics_json(&rows, &prefix));
        attempted += out.tally.attempted;
        failed += out.tally.failed;
        let base = spans.len();
        spans.extend(out.spans.into_iter().map(|mut sp| {
            sp.parent = sp.parent.map(|p| p + base);
            sp
        }));
    }
    if let Some(path) = &o.json {
        let doc = obj(vec![
            ("seed", n(o.seed)),
            ("seconds", Value::Num(seconds)),
            ("trace", b(o.trace)),
            ("quick", b(o.quick)),
            ("cpus", n(cpus as u64)),
            ("scratch_fs", s(fs)),
            ("workloads", Value::Arr(saved)),
        ]);
        write_file(path, &(doc.to_json() + "\n"))?;
    }
    if let Some(path) = &o.spans {
        write_file(path, &trace::to_json_lines(&spans))?;
    }
    let correct = failed == 0;
    let result = obj(vec![
        ("correct", b(correct)),
        ("attempted", n(attempted)),
        ("failed", n(failed)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nexsort_benchmark: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nexsort_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
