//! The `cli-*` workloads: `xsort sort` run as a child process, timed from
//! spawn to exit, its peak resident set polled from `/proc`.

use std::ffi::OsString;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::inproc::{self, MIRROR_ROOT};
use crate::stats::{lower_quartile, median, parse_total, parse_vmhwm_kb};
use crate::trace::{self, Tracer};
use crate::workload::{check, generate, oracle, Algo, Workload, BLOCK, DEFAULT_RULE, MEM_FRAMES};
use crate::{Ctx, Outcome, Tally};

/// Fewest timed sorts per run, however long they take.
const MIN_TIMED: usize = 7;
/// Fewest sorts and in-process iterations in a traced run.
const MIN_TRACED: usize = 3;

/// Metrics of the daemon, which a CLI workload does not touch.
const DAEMON_ONLY: [&str; 10] = [
    "net.ping_ms_p50",
    "net.submit_ms_p50",
    "net.wait_ms_p50",
    "net.fetch_ms_p50",
    "server.json_parse_submit_ms",
    "server.json_parse_chunk_ms",
    "server.queue_wait_ms_p50",
    "core.job_sort_ms_p50",
    "server.conns_per_job",
    "server.requests_per_job",
];

/// One finished `xsort` child.
struct Invocation {
    wall_s: f64,
    peak_kb: u64,
    success: bool,
    stderr: String,
}

impl Invocation {
    /// Ok when the child exited 0.
    fn exit_ok(&self) -> Result<(), String> {
        if self.success {
            Ok(())
        } else {
            Err(format!("xsort failed: {}", self.stderr.trim()))
        }
    }

    /// The `TOTAL` row of `--stats`.
    fn total(&self) -> Result<u64, String> {
        parse_total(&self.stderr).ok_or_else(|| "xsort --stats printed no TOTAL row".to_string())
    }
}

/// Run `xsort ARGS` to completion. Wall time runs from just before the
/// spawn to the reaped exit; a second thread polls the child's `VmHWM`
/// every 10 ms.
fn invoke(xsort: &Path, args: &[OsString]) -> Result<Invocation, String> {
    let start = Instant::now();
    let mut child = Command::new(xsort)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", xsort.display()))?;
    let pid = child.id();
    let (stop, stopped) = channel::<()>();
    std::thread::scope(|sc| {
        let poller = sc.spawn(move || poll_peak_kb(pid, stopped));
        let mut stderr = String::new();
        if let Some(mut pipe) = child.stderr.take() {
            // Read to EOF before waiting, so a chatty child never blocks on a
            // full pipe.
            let _ = pipe.read_to_string(&mut stderr);
        }
        let status = child.wait().map_err(|e| format!("waiting for xsort: {e}"));
        let wall_s = start.elapsed().as_secs_f64();
        drop(stop);
        let peak_kb = poller.join().expect("the RSS poller does not panic");
        Ok(Invocation { wall_s, peak_kb, success: status?.success(), stderr })
    })
}

fn poll_peak_kb(pid: u32, stop: Receiver<()>) -> u64 {
    let path = format!("/proc/{pid}/status");
    let mut peak = 0;
    loop {
        if let Some(kb) = std::fs::read_to_string(&path).ok().as_deref().and_then(parse_vmhwm_kb) {
            peak = peak.max(kb);
        }
        match stop.recv_timeout(Duration::from_millis(10)) {
            Err(RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(RecvTimeoutError::Disconnected) => return peak,
        }
    }
}

fn sort_args(algo: Algo, input: &Path, output: &Path) -> Vec<OsString> {
    let block = format!("{}K", BLOCK / 1024);
    let mem = format!("{}K", MEM_FRAMES * BLOCK / 1024);
    let flags =
        ["--algo", algo.flag(), "--block", &block, "--mem", &mem, "--default", DEFAULT_RULE];
    let mut args: Vec<OsString> = vec!["sort".into(), input.into()];
    args.extend(flags.into_iter().chain(["--stats", "-o"]).map(OsString::from));
    args.push(output.into());
    args
}

/// Run one `cli-*` workload: end-to-end, or traced when `traced`.
pub fn run(
    ctx: &Ctx,
    w: &Workload,
    algo: Algo,
    seed: u64,
    traced: bool,
) -> Result<Outcome, String> {
    let dir = ctx.scratch.join(w.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).map(|()| path).map_err(|e| e.to_string())
    };
    let input = generate(w.fanouts(ctx.quick), seed)?;
    let in_path = write("in.xml", &input)?;
    let want = oracle(&input)?;
    let one = generate(&[], seed)?;
    let one_path = write("one.xml", &one)?;
    let one_want = oracle(&one)?;
    let (out_path, one_out) = (dir.join("out.xml"), dir.join("one.out.xml"));
    let read = |path: &Path| std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()));
    let mut tally = Tally::default();
    let mut out = Outcome::default();

    // Set-up is the fixed cost of one invocation: the same command on a
    // one-element document. One such run precedes every timed sort, so the
    // samples spread over the run like the sorts do instead of catching the
    // host in one state.
    let setup_args = sort_args(algo, &one_path, &one_out);
    let mut setup = Vec::new();
    let first = invoke(&ctx.xsort, &setup_args)?;
    tally.record(first.exit_ok().and_then(|()| check(&read(&one_out)?, &one_want)));

    // The cold run fixes the reference bytes and I/O count every later run
    // must reproduce; it is checked against the oracle and not timed.
    let args = sort_args(algo, &in_path, &out_path);
    let cold = invoke(&ctx.xsort, &args)?;
    tally.attempted += 1;
    cold.exit_ok()?;
    let total = cold.total()?;
    let reference = read(&out_path)?;
    check(&reference, &want)?;

    let (budget, min_runs) =
        if traced { (ctx.seconds / 2.0, MIN_TRACED) } else { (ctx.seconds, MIN_TIMED) };
    let mut walls = Vec::new();
    let mut peak_kb = cold.peak_kb;
    let start = Instant::now();
    let mut runs = 0;
    while runs < min_runs || start.elapsed().as_secs_f64() < budget {
        runs += 1;
        let one = invoke(&ctx.xsort, &setup_args)?;
        if tally.record(one.exit_ok()) {
            setup.push(one.wall_s);
        }
        let inv = invoke(&ctx.xsort, &args)?;
        let verdict = inv.exit_ok().and_then(|()| inv.total()).and_then(|t| {
            if t != total {
                return Err(format!("TOTAL {t} differs from the cold run's {total}"));
            }
            if read(&out_path)? != reference {
                return Err("output bytes differ from the cold run's".into());
            }
            Ok(())
        });
        if tally.record(verdict) {
            walls.push(inv.wall_s);
            peak_kb = peak_kb.max(inv.peak_kb);
        }
    }
    out.timings("sort wall", "ms", walls.iter().map(|s| s * 1000.0).collect());
    out.timings("setup wall", "ms", setup.iter().map(|s| s * 1000.0).collect());

    if !traced {
        let fast = lower_quartile(&walls).ok_or("fewer than two sorts succeeded")?;
        let m = &mut out.metrics;
        m.set("throughput_mb_s", input.len() as f64 / 1e6 / fast);
        m.set("peak_rss_mb", peak_kb as f64 * 1024.0 / 1e6);
        m.set("logical_ios", total as f64);
        m.set("setup_s", median(&setup).ok_or("no set-up run succeeded")?);
        out.note(format!("input {} bytes, TOTAL {total} blocks", input.len()));
        return Ok(out.finish(tally));
    }

    // Traced: the same sort in-process, mirrored call by call, then split.
    let mut tr = Tracer::new(Instant::now());
    let verify = |mirror: &inproc::Mirror| {
        let mirrored = mirror.sort_ios.grand_total();
        if mirror.xml != reference {
            Err("the in-process sort's output differs from xsort's".to_string())
        } else if mirrored != total {
            Err(format!("in-process TOTAL {mirrored} differs from xsort's {total}"))
        } else {
            Ok(())
        }
    };
    let traced = inproc::Traced { label: w.name, algo, input: &input, in_path: &in_path };
    traced.run(&mut tr, &mut out.metrics, &mut tally, budget, MIN_TRACED, verify)?;
    let spans = tr.spans();
    let m = &mut out.metrics;
    for name in DAEMON_ONLY {
        m.set(name, 0.0);
    }
    let coverage = trace::coverage_of(spans, MIRROR_ROOT);
    m.set("trace.coverage", coverage);
    let root_ms = median(&trace::durations_ms(spans, MIRROR_ROOT)).unwrap_or(0.0);
    let wall = median(&walls).ok_or("no sort succeeded")?;
    m.set("trace.overhead", root_ms / (wall * 1000.0));
    if coverage < 0.95 {
        tally.record(Err(format!("trace coverage {coverage:.3} is below 0.95")));
    }
    out.spans = tr.into_spans();
    Ok(out.finish(tally))
}
