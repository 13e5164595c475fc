//! The `daemon-small` workload: one `xsort serve` child on a Unix socket,
//! driven by two client threads in a closed loop through the same client
//! calls `xsort client` makes.

use std::hint::black_box;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use nexsort_server::json::{b, n, obj, parse, s, Value};
use nexsort_server::{request, request_fetch_chunked, submit_value, JobInput, JobSpec};
use nexsort_xml::Element;

use crate::inproc::Traced;
use crate::stats::{lower_quartile, median, parse_vmhwm_kb};
use crate::trace::{self, Tracer};
use crate::workload::{check, generate, oracle, Algo, Workload, BLOCK, DEFAULT_RULE, MEM_FRAMES};
use crate::{Ctx, Outcome, Tally};

/// Daemons started and pinged for `setup_s`, besides the one under load.
const SETUP_SPAWNS: usize = 15;
/// Client threads, each with its own connection per request; one per core
/// of the 2-core host the benchmark was calibrated on.
const CLIENTS: u64 = 2;
/// `fetch_chunk` length, as `xsort client fetch` asks for.
const CHUNK: u64 = 64 * 1024;
/// Pings and JSON parses timed per traced run.
const PINGS: usize = 21;
const PARSES: usize = 9;
/// Root span of one job, submit to last chunk.
const JOB_ROOT: &str = "daemon.job";

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

fn ping() -> Value {
    obj(vec![("op", s("ping"))])
}

/// A running `xsort serve`; dropping it kills and reaps the process.
struct Daemon {
    child: Option<Child>,
    pid: u32,
    addr: String,
}

impl Daemon {
    /// Spawn `xsort serve` on `dir/s` and wait for its first answered ping.
    /// Returns the daemon and the seconds from spawn to that answer.
    fn start(xsort: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let addr = format!("unix:{}", dir.join("s").display());
        let start = Instant::now();
        let child = Command::new(xsort)
            .args(["serve", "--workers", "2", "--listen", &addr, "--job-dir"])
            .arg(dir.join("jobs"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", xsort.display()))?;
        let mut daemon = Daemon { pid: child.id(), child: Some(child), addr };
        loop {
            if request(&daemon.addr, &ping()).is_ok_and(|v| ok(&v)) {
                return Ok((daemon, start.elapsed().as_secs_f64()));
            }
            if let Some(status) = daemon.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(format!("xsort serve exited during start-up: {status}"));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("xsort serve did not answer a ping within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn peak_rss_kb(&self) -> Result<u64, String> {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .ok()
            .as_deref()
            .and_then(parse_vmhwm_kb)
            .ok_or_else(|| "cannot read the daemon's VmHWM".to_string())
    }

    fn stats(&self) -> Result<Value, String> {
        let resp = request(&self.addr, &obj(vec![("op", s("stats"))]))?;
        resp.get("stats").cloned().ok_or_else(|| format!("bad stats reply: {}", resp.to_json()))
    }

    /// Ask the daemon to shut down and wait for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let resp = request(&self.addr, &obj(vec![("op", s("shutdown"))]))?;
        let mut child = self.child.take().expect("a daemon is stopped once");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() && ok(&resp) => return Ok(()),
                Ok(Some(status)) => return Err(format!("xsort serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("xsort serve did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client's document: its bytes, the submit request carrying it
/// inline, and its oracle.
struct Doc {
    input: Vec<u8>,
    submit: Value,
    oracle: Element,
}

impl Doc {
    fn new(fanouts: &[u64], seed: u64) -> Result<Doc, String> {
        let input = generate(fanouts, seed)?;
        let oracle = oracle(&input)?;
        let spec = JobSpec {
            input: JobInput::Inline(input.clone()),
            default_rule: Some(DEFAULT_RULE.into()),
            block_size: BLOCK,
            mem_frames: MEM_FRAMES,
            ..Default::default()
        };
        Ok(Doc { submit: submit_value(&spec), input, oracle })
    }
}

/// One job's round trips, seen from the client, and its `wait` reply.
struct Job {
    id: u64,
    start: Instant,
    submitted: Instant,
    waited: Instant,
    end: Instant,
    /// Submit-to-finish latency and sort time the daemon reports.
    server_ms: f64,
    sort_ms: f64,
    /// `logical_reads + logical_writes` of the job's sort.
    ios: u64,
}

impl Job {
    fn latency_ms(&self) -> f64 {
        ms(self.end - self.start)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// submit -> wait -> fetch_chunk until eof.
fn one_job(addr: &str, doc: &Doc) -> Result<(Job, String), String> {
    let start = Instant::now();
    let resp = request(addr, &doc.submit)?;
    let id = resp
        .get("id")
        .and_then(Value::as_u64)
        .filter(|_| ok(&resp))
        .ok_or_else(|| format!("submit refused: {}", resp.to_json()))?;
    let submitted = Instant::now();
    let wait = obj(vec![("op", s("wait")), ("id", n(id)), ("timeout_ms", n(60_000))]);
    let resp = request(addr, &wait)?;
    let job = resp.get("job").filter(|_| ok(&resp));
    let state = job.and_then(|j| j.get("state")).and_then(Value::as_str);
    if state != Some("done") {
        return Err(format!("job {id} is not done: {}", resp.to_json()));
    }
    let field = |v: Option<&Value>, key: &str| {
        v.and_then(|v| v.get(key))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("wait reply lacks {key}: {}", resp.to_json()))
    };
    let report = job.and_then(|j| j.get("report"));
    let server_ms = field(job, "latency_ms")?;
    let sort_ms = field(report, "elapsed_ms")?;
    let ios = (field(report, "logical_reads")? + field(report, "logical_writes")?) as u64;
    let waited = Instant::now();
    let output = request_fetch_chunked(addr, id, CHUNK)?;
    let end = Instant::now();
    Ok((Job { id, start, submitted, waited, end, server_ms, sort_ms, ios }, output))
}

/// What one closed-loop phase produced.
#[derive(Default)]
struct Phase {
    /// Each client's first, oracle-checked output.
    outputs: Vec<String>,
    jobs: Vec<Job>,
    bytes: u64,
    wall_s: f64,
    tally: Tally,
    spans: Option<Tracer>,
}

/// Run every client's closed loop for `budget_s` seconds. Each client
/// checks its first job against the oracle and every later output against
/// that first one. With `origin`, each job is recorded as spans.
fn closed_loop(
    addr: &str,
    docs: &[Doc],
    budget_s: f64,
    origin: Option<Instant>,
) -> Result<Phase, String> {
    let barrier = Barrier::new(docs.len());
    let per_client: Vec<_> = std::thread::scope(|sc| {
        let handles: Vec<_> = docs
            .iter()
            .map(|doc| {
                let barrier = &barrier;
                sc.spawn(move || -> Result<_, String> {
                    let (_, first) = one_job(addr, doc)?;
                    check(first.as_bytes(), &doc.oracle)?;
                    barrier.wait();
                    let mut tr = origin.map(Tracer::new);
                    let (mut jobs, mut tally) = (Vec::new(), Tally::default());
                    let start = Instant::now();
                    while start.elapsed().as_secs_f64() < budget_s {
                        let verdict = one_job(addr, doc).and_then(|(job, out)| {
                            if out != first {
                                return Err(format!("job {} output differs", job.id));
                            }
                            Ok(job)
                        });
                        let verdict = verdict.map(|job| {
                            if let Some(tr) = tr.as_mut() {
                                record_job(tr, &job);
                            }
                            jobs.push(job);
                        });
                        tally.record(verdict);
                    }
                    Ok((first, jobs, tally, tr, start, Instant::now()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client threads do not panic")).collect()
    });
    let mut phase = Phase::default();
    let (mut first, mut last) = (None::<Instant>, None::<Instant>);
    for (client, doc) in per_client.into_iter().zip(docs) {
        let (output, jobs, tally, tr, start, end) = client?;
        phase.outputs.push(output);
        phase.bytes += jobs.len() as u64 * doc.input.len() as u64;
        phase.jobs.extend(jobs);
        phase.tally.merge(tally);
        first = Some(first.map_or(start, |f| f.min(start)));
        last = Some(last.map_or(end, |l| l.max(end)));
        if let Some(tr) = tr {
            match phase.spans.as_mut() {
                Some(all) => all.absorb(tr),
                None => phase.spans = Some(tr),
            }
        }
    }
    if let (Some(first), Some(last)) = (first, last) {
        phase.wall_s = (last - first).as_secs_f64();
    }
    Ok(phase)
}

fn record_job(tr: &mut Tracer, job: &Job) {
    let trace = format!("job-{}", job.id);
    let root = tr.record(JOB_ROOT, None, &trace, job.start, job.end);
    tr.record("net.submit", Some(root), &trace, job.start, job.submitted);
    tr.record("net.wait", Some(root), &trace, job.submitted, job.waited);
    tr.record("net.fetch", Some(root), &trace, job.waited, job.end);
}

fn p50<'a>(jobs: impl Iterator<Item = &'a Job>, f: impl Fn(&Job) -> f64) -> f64 {
    median(&jobs.map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Every job of a document shape must cost the same logical I/O.
fn same_ios<'a>(mut jobs: impl Iterator<Item = &'a Job>) -> Result<(), String> {
    let Some(first) = jobs.next() else { return Ok(()) };
    match jobs.find(|j| j.ios != first.ios) {
        Some(j) => {
            Err(format!("job {} cost {} logical I/Os, job {} {}", j.id, j.ios, first.id, first.ios))
        }
        None => Ok(()),
    }
}

/// Median time of `reps` runs of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Run `daemon-small`: end-to-end, or traced when `traced`.
pub fn run(ctx: &Ctx, w: &Workload, seed: u64, traced: bool) -> Result<Outcome, String> {
    let dir = ctx.scratch.join(w.name);
    let docs = (1..=CLIENTS)
        .map(|c| Doc::new(w.fanouts(ctx.quick), seed + c))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Outcome::default();
    let mut tally = Tally::default();

    // Set-up: spawn to first answered ping, on fresh job directories.
    let mut setup = Vec::new();
    for i in 0..SETUP_SPAWNS {
        let (daemon, secs) = Daemon::start(&ctx.xsort, &dir.join(format!("setup-{i}")))?;
        setup.push(secs);
        tally.record(daemon.stop());
    }
    let (daemon, secs) = Daemon::start(&ctx.xsort, &dir.join("load"))?;
    setup.push(secs);
    out.timings("setup wall", "ms", setup.iter().map(|s| s * 1000.0).collect());

    let budget = if traced { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut plain = closed_loop(&daemon.addr, &docs, budget, None)?;
    // The first job of each client is the unmeasured warm-up.
    tally.attempted += CLIENTS;
    let latencies: Vec<f64> = plain.jobs.iter().map(Job::latency_ms).collect();
    tally.merge(std::mem::take(&mut plain.tally));
    out.timings("job latency", "ms", latencies.clone());

    if !traced {
        let peak_kb = daemon.peak_rss_kb()?;
        tally.record(daemon.stop());
        // A closed loop keeps one job per client in flight, so by Little's
        // law throughput is clients x document bytes / job latency; the
        // lower quartile of latency keeps host bursts out, as for the CLI.
        let fast_ms = lower_quartile(&latencies).ok_or("too few jobs completed")?;
        let doc_bytes = docs[0].input.len() as f64;
        tally.record(same_ios(plain.jobs.iter()));
        let m = &mut out.metrics;
        m.set("throughput_mb_s", CLIENTS as f64 * doc_bytes / 1e6 / (fast_ms / 1000.0));
        m.set("peak_rss_mb", peak_kb as f64 * 1024.0 / 1e6);
        m.set("logical_ios", plain.jobs.first().ok_or("no job completed")?.ios as f64);
        m.set("setup_s", median(&setup).ok_or("no daemon started")?);
        out.note(format!(
            "{} jobs of {doc_bytes} bytes from {CLIENTS} clients in {:.2} s: {:.4} MB/s overall",
            plain.jobs.len(),
            plain.wall_s,
            plain.bytes as f64 / 1e6 / plain.wall_s
        ));
        return Ok(out.finish(tally));
    }

    // Traced: the same loop again with every job recorded as spans.
    let origin = Instant::now();
    let mut spanned = closed_loop(&daemon.addr, &docs, budget, Some(origin))?;
    tally.attempted += CLIENTS;
    tally.merge(std::mem::take(&mut spanned.tally));
    let mut tr = spanned.spans.take().unwrap_or_else(|| Tracer::new(origin));
    let stats = daemon.stats()?;
    let count = |key: &str| stats.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    // Not per job: the start-up ping and this stats request.
    let (conns, requests) = (count("conns_accepted") - 2.0, count("requests") - 2.0);
    let done = count("done").max(1.0);
    for i in 0..PINGS {
        let t = Instant::now();
        let resp = request(&daemon.addr, &ping());
        tr.record("net.ping", None, &format!("ping-{i}"), t, Instant::now());
        tally.record(resp.and_then(|v| if ok(&v) { Ok(()) } else { Err(v.to_json()) }));
    }
    tally.record(daemon.stop());

    let all_jobs = || plain.jobs.iter().chain(&spanned.jobs);
    tally.record(same_ios(all_jobs()));
    let m = &mut out.metrics;
    let spans = tr.spans();
    m.set("net.ping_ms_p50", median(&trace::durations_ms(spans, "net.ping")).unwrap_or(0.0));
    m.set("net.submit_ms_p50", p50(spanned.jobs.iter(), |j| ms(j.submitted - j.start)));
    m.set("net.wait_ms_p50", p50(spanned.jobs.iter(), |j| ms(j.waited - j.submitted)));
    m.set("net.fetch_ms_p50", p50(spanned.jobs.iter(), |j| ms(j.end - j.waited)));
    m.set("server.queue_wait_ms_p50", p50(all_jobs(), |j| j.server_ms - j.sort_ms));
    m.set("core.job_sort_ms_p50", p50(all_jobs(), |j| j.sort_ms));
    m.set("server.conns_per_job", conns / done);
    m.set("server.requests_per_job", requests / done);
    m.set("trace.coverage", trace::coverage_of(spans, JOB_ROOT));
    let traced_p50 = median(&trace::durations_ms(spans, JOB_ROOT)).unwrap_or(0.0);
    m.set("trace.overhead", traced_p50 / median(&latencies).ok_or("no job completed")?);

    // JSON decoding of the exact lines the daemon and the client parse: the
    // submit request, and the reply carrying a whole output as one chunk.
    let submit_line = docs[0].submit.to_json();
    let output = plain.outputs[0].clone();
    let total = output.len() as u64;
    let chunk_reply = obj(vec![
        ("ok", b(true)),
        ("chunk", s(output)),
        ("offset", n(0)),
        ("total", n(total)),
        ("eof", b(true)),
    ])
    .to_json();
    let mut parsed = true;
    let mut parse_ms = |line: &str| time_ms(PARSES, || parsed &= black_box(parse(line)).is_ok());
    m.set("server.json_parse_submit_ms", parse_ms(&submit_line));
    m.set("server.json_parse_chunk_ms", parse_ms(&chunk_reply));
    tally.record(if parsed { Ok(()) } else { Err("a protocol line failed to parse".into()) });

    // The sort layers, on the first client's document in-process; a job's
    // sort takes well under a millisecond, so one second gives many samples.
    let in_path = dir.join("doc.xml");
    std::fs::write(&in_path, &docs[0].input).map_err(|e| e.to_string())?;
    let traced =
        Traced { label: w.name, algo: Algo::Nexsort, input: &docs[0].input, in_path: &in_path };
    let want = &docs[0].oracle;
    traced.run(&mut tr, m, &mut tally, 1.0, 1, |mir| check(&mir.xml, want))?;
    out.spans = tr.into_spans();
    Ok(out.finish(tally))
}
