//! The sort daemon: a bounded worker pool running journaled, resumable sort
//! jobs under one globally-arbitrated memory budget.
//!
//! # Job lifecycle
//!
//! ```text
//! submit -> queued -> running -> done
//!              |         |-----> failed        (unrecoverable fault)
//!              |         `-----> interrupted   (device froze mid-sort)
//!              `-> canceled                    (cancel before a worker)
//! interrupted/queued/running --[restart: Server::open]--> queued -> ...
//! ```
//!
//! Admission control happens at `submit`: a job whose frame demand exceeds
//! the global budget is rejected outright (it could never run), and a full
//! queue pushes back with a busy error instead of queueing unboundedly.
//! Once accepted, a job is durable: its input copy, manifest, and device
//! file live in the server's job directory, so a killed daemon reopened
//! with [`Server::open`] re-queues every unfinished job and resumes it from
//! its on-device journal (PR-5 crash consistency) -- committed merge passes
//! are never redone.
//!
//! # Threading
//!
//! The sorting substrate is deliberately single-threaded (`Rc`/`Cell`), so
//! each job's entire device stack is built, used, and dropped on one worker
//! thread. The only cross-thread pieces are plain-data [`JobSpec`]s, the
//! job table, and the [`BudgetArbiter`]: a worker leases its job's frames
//! (sort memory + private page cache) before building the stack and
//! releases them when the job leaves the thread, so concurrent jobs share
//! one machine-wide budget with strict-FIFO fairness.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::stage_reader;
use nexsort_extmem::locksan::{self, TrackedCondvar, TrackedGuard, TrackedMutex};
use nexsort_extmem::{BudgetArbiter, CrashPlan, DiskStack, ExtError, Extent, PartFile};
use nexsort_xml::XmlError;

use crate::job::{JobInput, JobOp, JobSpec, JobState, JobSummary, Manifest};

/// Configuration of a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (concurrent jobs).
    pub workers: usize,
    /// Maximum jobs waiting in the queue before `submit` pushes back.
    pub queue_depth: usize,
    /// Global memory budget in frames, shared by all concurrent jobs.
    pub budget_frames: usize,
    /// Max budget leases any single tenant may hold at once (0 = no cap).
    /// See `BudgetArbiter::set_tenant_cap` for the fairness model.
    pub tenant_cap: usize,
    /// Directory owning every job's input copy, device file, and manifest.
    pub job_dir: PathBuf,
}

impl ServerConfig {
    /// A config with `workers` threads and proportionate defaults, rooted
    /// at `job_dir`.
    pub fn new(workers: usize, job_dir: impl Into<PathBuf>) -> Self {
        Self {
            workers: workers.max(1),
            queue_depth: 16,
            budget_frames: 4096,
            tenant_cap: 0,
            job_dir: job_dir.into(),
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is full; retry later (backpressure, not failure).
    Busy(String),
    /// The job can never run as specified.
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy(msg) => write!(f, "busy: {msg}"),
            SubmitError::Invalid(msg) => write!(f, "invalid job: {msg}"),
        }
    }
}

/// A queryable snapshot of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Error message of a failed job.
    pub error: Option<String>,
    /// Where the output landed (or will land).
    pub output: PathBuf,
    /// True when the job was resumed from its journal at least once.
    pub resumed: bool,
    /// The sort's report summary, once a sort or top-k job is done.
    pub report: Option<JobSummary>,
    /// Submit-to-finish latency, once the job is terminal.
    pub latency: Option<Duration>,
}

/// Aggregate server counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Worker threads.
    pub workers: usize,
    /// Queue capacity.
    pub queue_depth: usize,
    /// Jobs currently waiting for a worker.
    pub queued: usize,
    /// Jobs currently on a worker.
    pub running: usize,
    /// Jobs completed byte-exact.
    pub done: usize,
    /// Jobs failed.
    pub failed: usize,
    /// Jobs canceled before running.
    pub canceled: usize,
    /// Jobs frozen mid-sort, awaiting a restart.
    pub interrupted: usize,
    /// Jobs accepted over this instance's lifetime (including re-queued
    /// jobs adopted by [`Server::open`]).
    pub submitted: u64,
    /// Jobs that went through journal resume.
    pub resumed: u64,
    /// Global budget: total frames.
    pub budget_total: usize,
    /// Global budget: frames currently leased.
    pub budget_used: usize,
    /// Global budget: high-water mark of simultaneous leases.
    pub budget_high_water: usize,
    /// Requests parked in the budget's FIFO waiter queue.
    pub budget_waiters: usize,
    /// Mutex-poisoning recoveries performed (process-wide) by the audited
    /// `locksan::recover_poison` helper: each one means a thread panicked
    /// while holding a lock and the guard was recovered rather than
    /// silently swallowed.
    pub lock_recoveries: u64,
    /// Violations recorded (process-wide) by the `NEXSORT_LOCKSAN=1`
    /// lock-discipline sanitizer; always 0 when the sanitizer is off.
    pub locksan_violations: u64,
    /// True while the server is draining: admissions get lame-duck busy
    /// replies and workers exit once no job is running.
    pub draining: bool,
    /// Drains initiated over this instance's lifetime.
    pub drains: u64,
    /// Submits deduplicated by idempotency token: each one is a retried
    /// `submit` that adopted its existing job instead of sorting twice.
    pub duplicate_submits: u64,
    /// Connections the socket front end accepted.
    pub conns_accepted: u64,
    /// Connections closed by a read deadline (idle or mid-request).
    pub conns_timed_out: u64,
    /// Responses hit by an injected network fault (chaos testing).
    pub conns_faulted: u64,
    /// Requests dispatched by the socket front end.
    pub requests: u64,
    /// Requests rejected for exceeding the frame length cap.
    pub lines_too_long: u64,
    /// Retries performed (process-wide) by this process's
    /// `request_with_retry` clients; observable here so in-process chaos
    /// tests can assert the retry path actually ran.
    pub client_retries: u64,
}

/// Counters the socket front end (`net::serve`) bumps per connection and
/// per request. Plain atomics: they sit outside every lock order.
#[derive(Debug, Default)]
pub(crate) struct NetStats {
    pub(crate) conns_accepted: AtomicU64,
    pub(crate) conns_timed_out: AtomicU64,
    pub(crate) conns_faulted: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) lines_too_long: AtomicU64,
}

/// One live job's record in the in-memory table. Terminal jobs leave the
/// table once their manifest is stored; they are served from it.
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    /// Start via journal resume (set for jobs adopted from manifests).
    resume: bool,
    /// Why the job failed, for a job that stays live failed.
    error: Option<String>,
    output: PathBuf,
    submitted: Instant,
    latency: Option<Duration>,
    resumed: bool,
}

struct Core {
    queue: VecDeque<u64>,
    /// Live jobs only: queued, running, interrupted.
    jobs: BTreeMap<u64, JobRecord>,
    /// Terminal jobs of this directory (adopted ones included), by state.
    done: usize,
    failed: usize,
    canceled: usize,
    /// Idempotency token -> job id, covering every job ever accepted by
    /// this directory (terminal ones included): a retried submit must adopt
    /// its job no matter how far the job got in the meantime.
    idem: BTreeMap<String, u64>,
    next_id: u64,
    submitted: u64,
    resumed_total: u64,
    duplicate_submits: u64,
    drains: u64,
    shutdown: bool,
    draining: bool,
}

struct Shared {
    cfg: ServerConfig,
    arbiter: BudgetArbiter,
    core: TrackedMutex<Core>,
    cv: TrackedCondvar,
    net: NetStats,
}

impl Core {
    /// Count a job that just reached terminal `state`.
    fn count_terminal(&mut self, state: JobState) {
        match state {
            JobState::Done => self.done += 1,
            JobState::Failed => self.failed += 1,
            JobState::Canceled => self.canceled += 1,
            JobState::Queued | JobState::Running | JobState::Interrupted => {}
        }
    }
}

impl Shared {
    /// The single acquisition choke point for the core lock: the job
    /// table, queue, and lifetime counters are only ever touched through
    /// the guard returned here, which is what lets the static checker
    /// (xlint R11-R14) and the runtime sanitizer identify core critical
    /// sections. Poisoning routes through the audited
    /// `locksan::recover_poison` helper inside `TrackedMutex::lock` and is
    /// surfaced as `ServerStats::lock_recoveries`.
    fn lock_core(&self) -> TrackedGuard<'_, Core> {
        let core = self.core.lock();
        locksan::access("server.job-table");
        core
    }

    fn job_path(&self, id: u64) -> PathBuf {
        self.cfg.job_dir.join(format!("job-{id}"))
    }

    /// Status of a job that is not live, from its manifest. Call without
    /// the core lock: this reads a file.
    fn stored_status(&self, id: u64) -> Option<JobStatus> {
        let m = Manifest::load(&self.job_path(id)).ok().flatten()?;
        Some(JobStatus {
            id,
            state: m.state,
            output: resolve_output(&self.cfg, id, &m.spec),
            error: m.error,
            resumed: m.resumed,
            report: m.summary,
            latency: m.latency_ms.and_then(|ms| Duration::try_from_secs_f64(ms / 1000.0).ok()),
        })
    }
}

/// The daemon: owns the worker pool and the job table. Dropping (or
/// [`shutdown`](Server::shutdown)) stops the workers after their current
/// job; everything else is durable in the job directory.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Start a fresh server over `cfg.job_dir` (created if missing).
    pub fn start(cfg: ServerConfig) -> Result<Self, String> {
        std::fs::create_dir_all(&cfg.job_dir)
            .map_err(|e| format!("cannot create job dir {:?}: {e}", cfg.job_dir))?;
        Ok(Self::boot(cfg, Vec::new()))
    }

    /// Open an existing job directory: adopt every persisted job, re-queue
    /// the unfinished ones (resuming from their journals), and start the
    /// workers. This is the restart path after a daemon death.
    pub fn open(cfg: ServerConfig) -> Result<Self, String> {
        std::fs::create_dir_all(&cfg.job_dir)
            .map_err(|e| format!("cannot create job dir {:?}: {e}", cfg.job_dir))?;
        let mut adopted = Vec::new();
        let entries = std::fs::read_dir(&cfg.job_dir)
            .map_err(|e| format!("cannot scan job dir {:?}: {e}", cfg.job_dir))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot scan job dir: {e}"))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with("job-") {
                continue;
            }
            let Some(mut m) = Manifest::load(&entry.path())? else { continue };
            // A manifest written before a bound existed (or edited by hand)
            // may hold a spec no worker can run: fail it instead of
            // re-queueing a job that would take the daemon down again.
            if !m.state.is_terminal() {
                if let Err(e) = m.spec.validate() {
                    m.state = JobState::Failed;
                    m.error = Some(format!("invalid job spec: {e}"));
                    m.store(&entry.path())?;
                }
            }
            adopted.push(m);
        }
        adopted.sort_by_key(|m| m.id);
        Ok(Self::boot(cfg, adopted))
    }

    fn boot(cfg: ServerConfig, adopted: Vec<Manifest>) -> Self {
        let mut core = Core {
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            done: 0,
            failed: 0,
            canceled: 0,
            idem: BTreeMap::new(),
            next_id: adopted.iter().map(|m| m.id + 1).max().unwrap_or(0),
            submitted: 0,
            resumed_total: 0,
            duplicate_submits: 0,
            drains: 0,
            shutdown: false,
            draining: false,
        };
        for m in adopted {
            if let Some(tok) = &m.spec.idem {
                core.idem.insert(tok.clone(), m.id);
            }
            if m.state.is_terminal() {
                core.count_terminal(m.state);
                continue;
            }
            // A job with a staged input extent has a device image (and
            // journal) worth reattaching; one without re-runs from its
            // input copy. An unfinished pq job that already ran once is a
            // deterministic redo: flag it so the crash hook (which models
            // the daemon death that got us here) is not re-armed.
            let resume =
                m.staged.is_some() || (m.spec.op == JobOp::Pq && m.state != JobState::Queued);
            let output = resolve_output(&cfg, m.id, &m.spec);
            core.jobs.insert(
                m.id,
                JobRecord {
                    spec: m.spec,
                    state: JobState::Queued,
                    resume,
                    error: None,
                    output,
                    submitted: Instant::now(),
                    latency: None,
                    resumed: m.resumed,
                },
            );
            core.queue.push_back(m.id);
            core.submitted += 1;
        }
        let arbiter = BudgetArbiter::new(cfg.budget_frames);
        arbiter.set_tenant_cap(cfg.tenant_cap);
        let shared = Arc::new(Shared {
            arbiter,
            cfg,
            core: TrackedMutex::new("server.core", core),
            cv: TrackedCondvar::new(),
            net: NetStats::default(),
        });
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let sh = shared.clone();
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        Self { shared, workers }
    }

    /// The job directory this server owns.
    pub fn job_dir(&self) -> &PathBuf {
        &self.shared.cfg.job_dir
    }

    /// Submit a job. Validates the spec, copies the input into the job
    /// directory, persists the manifest, and queues the job. Backpressure:
    /// a full queue returns [`SubmitError::Busy`] without accepting.
    pub fn submit(&self, mut spec: JobSpec) -> Result<u64, SubmitError> {
        // Validation first: reject what could never run.
        spec.validate().map_err(SubmitError::Invalid)?;
        spec.mem_frames = spec.mem_frames.max(NexsortOptions::MIN_MEM_FRAMES);
        if spec.frames_needed() > self.shared.arbiter.total_frames() {
            return Err(SubmitError::Invalid(format!(
                "job needs {} frames ({} sort + {} cache); the global budget is {}",
                spec.frames_needed(),
                spec.mem_frames,
                spec.cache_frames,
                self.shared.arbiter.total_frames()
            )));
        }
        // Take the input out of the spec: inline bytes move into the job's
        // copy and are never cloned; a file is copied by the OS below.
        let input = std::mem::replace(&mut spec.input, JobInput::Inline(Vec::new()));
        // Admission: reserve a queue slot (or push back) and an id. A
        // resubmit carrying a known idempotency token short-circuits to its
        // existing job -- the client's first submit was accepted but the
        // ACK never arrived, so accepting again would sort twice.
        let id = {
            let mut core = self.shared.lock_core();
            if core.shutdown {
                return Err(SubmitError::Busy("server is shutting down".into()));
            }
            if let Some(tok) = &spec.idem {
                if let Some(&existing) = core.idem.get(tok) {
                    core.duplicate_submits += 1;
                    return Ok(existing);
                }
            }
            if core.draining {
                return Err(SubmitError::Busy("server is draining; not accepting new jobs".into()));
            }
            if core.queue.len() >= self.shared.cfg.queue_depth {
                return Err(SubmitError::Busy(format!(
                    "queue full ({} job(s) waiting); retry later",
                    core.queue.len()
                )));
            }
            let id = core.next_id;
            core.next_id += 1;
            // Register the token before the lock drops: a concurrent retry
            // of the same submit must adopt this id, not race to a second.
            if let Some(tok) = &spec.idem {
                core.idem.insert(tok.clone(), id);
            }
            id
        };
        // Make the job durable before announcing it.
        let job_dir = self.shared.job_path(id);
        spec.input = JobInput::Path(job_dir.join("input.xml"));
        let persist = (|| -> Result<(), String> {
            std::fs::create_dir_all(&job_dir).map_err(|e| format!("mkdir {job_dir:?}: {e}"))?;
            let copy = job_dir.join("input.xml");
            match &input {
                JobInput::Path(path) => std::fs::copy(path, &copy)
                    .map(drop)
                    .map_err(|e| format!("cannot copy input {path:?}: {e}")),
                JobInput::Inline(bytes) => {
                    std::fs::write(&copy, bytes).map_err(|e| format!("cannot copy input: {e}"))
                }
            }?;
            Manifest {
                id,
                state: JobState::Queued,
                spec: spec.clone(),
                staged: None,
                error: None,
                resumed: false,
                summary: None,
                latency_ms: None,
            }
            .store(&job_dir)
        })();
        if let Err(e) = persist {
            // The job never became durable: drop what the attempt left in
            // its directory, and un-register its token so a genuine
            // resubmit is not pointed at a ghost.
            let _ = std::fs::remove_dir_all(&job_dir);
            if let Some(tok) = &spec.idem {
                let mut core = self.shared.lock_core();
                core.idem.remove(tok);
            }
            return Err(SubmitError::Invalid(e));
        }
        let output = resolve_output(&self.shared.cfg, id, &spec);
        let mut core = self.shared.lock_core();
        core.jobs.insert(
            id,
            JobRecord {
                spec,
                state: JobState::Queued,
                resume: false,
                error: None,
                output,
                submitted: Instant::now(),
                latency: None,
                resumed: false,
            },
        );
        core.queue.push_back(id);
        core.submitted += 1;
        drop(core);
        self.shared.cv.notify_all();
        Ok(id)
    }

    /// Status of one job.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        {
            let core = self.shared.lock_core();
            if let Some(rec) = core.jobs.get(&id) {
                return Some(snapshot(id, rec));
            }
            if id >= core.next_id {
                return None;
            }
        }
        self.shared.stored_status(id)
    }

    /// Status of every known job, in id order.
    pub fn list(&self) -> Vec<JobStatus> {
        let (mut live, next_id) = {
            let core = self.shared.lock_core();
            let live: BTreeMap<u64, JobStatus> =
                core.jobs.iter().map(|(&id, r)| (id, snapshot(id, r))).collect();
            (live, core.next_id)
        };
        (0..next_id)
            .filter_map(|id| live.remove(&id).or_else(|| self.shared.stored_status(id)))
            .collect()
    }

    /// Cancel a queued job. Returns true when the job was dequeued; a job
    /// already on a worker runs to completion (the sorting substrate is
    /// single-threaded and cannot be interrupted across threads) and
    /// cancel returns false.
    pub fn cancel(&self, id: u64) -> bool {
        let mut core = self.shared.lock_core();
        let Some(rec) = core.jobs.get_mut(&id) else { return false };
        if rec.state != JobState::Queued {
            return false;
        }
        rec.state = JobState::Canceled;
        let (spec, resumed, submitted) = (rec.spec.clone(), rec.resumed, rec.submitted);
        core.queue.retain(|&q| q != id);
        drop(core);
        let canceled =
            Outcome { state: JobState::Canceled, staged: None, error: None, report: None };
        finish(&self.shared, id, spec, resumed, submitted, canceled);
        true
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServerStats {
        // Lock order (xlint R11): the arbiter counters are read *before*
        // the core lock is taken — each arbiter getter briefly takes the
        // arbiter lock, and the global order is arbiter before core.
        let budget_total = self.shared.arbiter.total_frames();
        let budget_used = self.shared.arbiter.used_frames();
        let budget_high_water = self.shared.arbiter.high_water_frames();
        let budget_waiters = self.shared.arbiter.waiters();
        // Likewise read outside the core region: violation_count takes the
        // sanitizer's own bookkeeping lock, which must not nest under core.
        let lock_recoveries = locksan::poison_recoveries();
        let locksan_violations = locksan::violation_count() as u64;
        // Socket-edge counters are plain atomics outside every lock order.
        let conns_accepted = self.shared.net.conns_accepted.load(Ordering::Relaxed);
        let conns_timed_out = self.shared.net.conns_timed_out.load(Ordering::Relaxed);
        let conns_faulted = self.shared.net.conns_faulted.load(Ordering::Relaxed);
        let requests = self.shared.net.requests.load(Ordering::Relaxed);
        let lines_too_long = self.shared.net.lines_too_long.load(Ordering::Relaxed);
        let client_retries = crate::net::client_retries();
        let core = self.shared.lock_core();
        let mut st = ServerStats {
            workers: self.shared.cfg.workers,
            queue_depth: self.shared.cfg.queue_depth,
            done: core.done,
            failed: core.failed,
            canceled: core.canceled,
            submitted: core.submitted,
            resumed: core.resumed_total,
            budget_total,
            budget_used,
            budget_high_water,
            budget_waiters,
            lock_recoveries,
            locksan_violations,
            draining: core.draining,
            drains: core.drains,
            duplicate_submits: core.duplicate_submits,
            conns_accepted,
            conns_timed_out,
            conns_faulted,
            requests,
            lines_too_long,
            client_retries,
            ..ServerStats::default()
        };
        for rec in core.jobs.values() {
            match rec.state {
                JobState::Queued => st.queued += 1,
                JobState::Running => st.running += 1,
                JobState::Interrupted => st.interrupted += 1,
                // Counted by `finish`: a terminal job is live only until
                // its manifest is stored, or when storing it failed.
                JobState::Done | JobState::Failed | JobState::Canceled => {}
            }
        }
        st
    }

    /// The output path of a done job.
    fn done_output(&self, id: u64) -> Result<PathBuf, String> {
        let st = self.status(id).ok_or_else(|| format!("no such job {id}"))?;
        if st.state != JobState::Done {
            return Err(format!("job {id} is {}, not done", st.state.name()));
        }
        Ok(st.output)
    }

    /// Read the finished output of a done job.
    pub fn fetch_output(&self, id: u64) -> Result<Vec<u8>, String> {
        let output = self.done_output(id)?;
        std::fs::read(&output).map_err(|e| format!("cannot read output {output:?}: {e}"))
    }

    /// Read one bounded chunk of a done job's output: up to `len` bytes
    /// starting at byte `offset`, trimmed back to a UTF-8 character
    /// boundary so every chunk is valid text on the wire. Returns
    /// `(chunk, total_len, eof)`. Reads only the chunk (plus one byte to
    /// see whether it ends inside a character), never the whole file.
    pub fn fetch_output_chunk(
        &self,
        id: u64,
        offset: u64,
        len: u64,
    ) -> Result<(Vec<u8>, u64, bool), String> {
        let output = self.done_output(id)?;
        let read_err = |e: std::io::Error| format!("cannot read output {output:?}: {e}");
        let mut file = std::fs::File::open(&output).map_err(read_err)?;
        let total = file.metadata().map_err(read_err)?.len();
        let start = offset.min(total);
        let end = offset.saturating_add(len).min(total);
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(start)).map_err(read_err)?;
        file.take(end - start + u64::from(end < total))
            .read_to_end(&mut bytes)
            .map_err(read_err)?;
        // Never split a multi-byte character: back off while the byte at
        // `cut` is a UTF-8 continuation byte (0b10xxxxxx).
        let mut cut = ((end - start) as usize).min(bytes.len());
        while cut > 0 && cut < bytes.len() && bytes[cut] & 0xC0 == 0x80 {
            cut -= 1;
        }
        bytes.truncate(cut);
        let eof = start + cut as u64 >= total;
        Ok((bytes, total, eof))
    }

    /// Block until job `id` reaches a settled state (terminal or
    /// interrupted) or `timeout` passes. Returns the final status.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        {
            let mut core = self.shared.lock_core();
            while let Some(rec) = core.jobs.get(&id) {
                let now = Instant::now();
                if rec.state.is_terminal() || rec.state == JobState::Interrupted || now >= deadline
                {
                    return Some(snapshot(id, rec));
                }
                core = self.shared.cv.wait_timeout(core, deadline - now).0;
            }
            if id >= core.next_id {
                return None;
            }
        }
        // Not live: the job settled (and left the table) or never existed.
        self.shared.stored_status(id)
    }

    /// Block until no job is queued or running, or `timeout` passes.
    /// Returns true when the server is idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, |core| {
            core.queue.is_empty() && !core.jobs.values().any(|r| r.state == JobState::Running)
        })
    }

    /// Block on the core condvar until `idle(core)` holds or `timeout`
    /// passes; returns whether it holds.
    fn wait_until(&self, timeout: Duration, idle: impl Fn(&Core) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut core = self.shared.lock_core();
        loop {
            if idle(&core) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            core = self.shared.cv.wait_timeout(core, deadline - now).0;
        }
    }

    /// Enter lame-duck mode: new submits get a busy reply (retryable
    /// backpressure), idle workers exit, running jobs keep their workers
    /// until they settle. Queued jobs stay parked in their manifests and
    /// run on the next [`Server::open`]. Idempotent.
    pub fn begin_drain(&self) {
        {
            let mut core = self.shared.lock_core();
            if core.draining {
                return;
            }
            core.draining = true;
            core.drains += 1;
        }
        self.shared.cv.notify_all();
    }

    /// Graceful drain: [`begin_drain`](Server::begin_drain), then block
    /// until no job is running or `timeout` passes. Returns true when
    /// every running job settled in time; false means the drain deadline
    /// expired with work still on a worker (the caller may still shut
    /// down -- the journal makes that equivalent to a kill -9, and the
    /// next [`Server::open`] resumes without redoing committed passes).
    pub fn drain(&self, timeout: Duration) -> bool {
        self.begin_drain();
        self.wait_until(timeout, |core| !core.jobs.values().any(|r| r.state == JobState::Running))
    }

    /// The socket front end's counters (bumped by `net::serve`).
    pub(crate) fn net_stats(&self) -> &NetStats {
        &self.shared.net
    }

    /// Stop accepting work, let running jobs finish, and join the workers.
    /// Queued jobs stay queued in their manifests and run on the next
    /// [`Server::open`].
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        {
            let mut core = self.shared.lock_core();
            core.shutdown = true;
        }
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

fn snapshot(id: u64, rec: &JobRecord) -> JobStatus {
    JobStatus {
        id,
        state: rec.state,
        error: rec.error.clone(),
        output: rec.output.clone(),
        resumed: rec.resumed,
        // Reports live in manifests: a done job is no longer in the table.
        report: None,
        latency: rec.latency,
    }
}

/// Where a job's output lands: the requested path, or `out.xml` in the job
/// directory.
fn resolve_output(cfg: &ServerConfig, id: u64, spec: &JobSpec) -> PathBuf {
    match &spec.output {
        Some(path) => path.clone(),
        None => cfg.job_dir.join(format!("job-{id}")).join("out.xml"),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(id) = next_job(shared) {
        run_job(shared, id);
    }
    // A drain or shutdown may be waiting for the pool to wind down.
    shared.cv.notify_all();
}

/// Block until a job is queued (`Some`) or the pool must stop (`None`).
fn next_job(shared: &Shared) -> Option<u64> {
    let mut core = shared.lock_core();
    loop {
        if core.shutdown || core.draining {
            return None;
        }
        if let Some(id) = core.queue.pop_front() {
            // Mark Running inside the same critical section as the pop: a
            // drain that observed "queue empty, none running" between the
            // two would think the job never existed and declare the server
            // idle too early.
            if let Some(rec) = core.jobs.get_mut(&id) {
                rec.state = JobState::Running;
            }
            return Some(id);
        }
        core = shared.cv.wait(core);
    }
}

/// Run one job end to end on this thread. Every failure path lands in the
/// job record and manifest; this function never panics the worker.
fn run_job(shared: &Arc<Shared>, id: u64) {
    let (spec, resume, was_resumed, submitted) = {
        let mut core = shared.lock_core();
        let Some(rec) = core.jobs.get_mut(&id) else { return };
        rec.state = JobState::Running;
        (rec.spec.clone(), rec.resume, rec.resumed, rec.submitted)
    };
    let job_dir = shared.job_path(id);
    let resumed_now = was_resumed || resume;
    let running = |staged: &Option<(Vec<u64>, u64)>| {
        let _ = Manifest {
            id,
            state: JobState::Running,
            spec: spec.clone(),
            staged: staged.clone(),
            error: None,
            resumed: resumed_now,
            summary: None,
            latency_ms: None,
        }
        .store(&job_dir);
    };
    // Keep whatever input extent an earlier (interrupted) run staged: the
    // resume path reattaches through it. A fresh job has none.
    let prior_staged =
        if resume { Manifest::load(&job_dir).ok().flatten().and_then(|m| m.staged) } else { None };
    running(&prior_staged);
    if resume {
        let mut core = shared.lock_core();
        core.resumed_total += 1;
        if let Some(rec) = core.jobs.get_mut(&id) {
            rec.resumed = true;
        }
    }

    // Lease the job's frames from the global budget (strict-FIFO with the
    // per-tenant cap; blocks until admitted) for the whole on-thread
    // lifetime of the stack.
    let outcome = match shared.arbiter.acquire_as(spec.frames_needed(), spec.tenant.as_deref()) {
        Ok(lease) => {
            let outcome = execute(shared, id, &spec, resume, &job_dir, prior_staged, &running);
            drop(lease);
            outcome
        }
        Err(e) => Outcome::failed(None, format!("budget lease: {e}")),
    };
    finish(shared, id, spec, resumed_now, submitted, outcome);
}

/// How a job left its worker (or the queue), as its manifest records it.
struct Outcome {
    state: JobState,
    /// The staged input extent `(blocks, byte_len)` a restart reattaches.
    staged: Option<(Vec<u64>, u64)>,
    error: Option<String>,
    report: Option<JobSummary>,
}

impl Outcome {
    fn done(staged: Option<(Vec<u64>, u64)>, report: Option<JobSummary>) -> Self {
        Outcome { state: JobState::Done, staged, error: None, report }
    }

    fn interrupted(staged: Option<(Vec<u64>, u64)>) -> Self {
        Outcome { state: JobState::Interrupted, staged, error: None, report: None }
    }

    fn failed(staged: Option<(Vec<u64>, u64)>, error: String) -> Self {
        Outcome { state: JobState::Failed, staged, error: Some(error), report: None }
    }
}

/// Writer persisting a `running` manifest with the given staged extent.
type RunningWriter<'a> = dyn Fn(&Option<(Vec<u64>, u64)>) + 'a;

/// Record how job `id` ended up. In this order: store its manifest (with
/// the report summary and latency), then -- for a terminal job -- drop it
/// from the live table and bump its state's counter, then wake every
/// waiter. A job is therefore never missing from both the table and a
/// manifest that says how it ended.
fn finish(
    shared: &Shared,
    id: u64,
    spec: JobSpec,
    resumed: bool,
    submitted: Instant,
    outcome: Outcome,
) {
    let latency = submitted.elapsed();
    let job_dir = shared.job_path(id);
    let state = outcome.state;
    let persisted = Manifest {
        id,
        state,
        spec,
        staged: outcome.staged,
        error: outcome.error.clone(),
        resumed,
        summary: outcome.report,
        latency_ms: Some(latency.as_secs_f64() * 1000.0),
    }
    .store(&job_dir);
    {
        let mut core = shared.lock_core();
        match persisted {
            Ok(()) if state.is_terminal() => {
                core.jobs.remove(&id);
                core.count_terminal(state);
            }
            persisted => {
                // Interrupted jobs stay live until a restart resumes them. A
                // terminal job whose manifest could not be stored cannot be
                // served from it, so it stays live, failed, with the reason.
                let (state, error) = match persisted {
                    Err(e) if state.is_terminal() => {
                        (JobState::Failed, Some(format!("cannot record the job's end: {e}")))
                    }
                    _ => (state, outcome.error),
                };
                core.count_terminal(state);
                if let Some(rec) = core.jobs.get_mut(&id) {
                    rec.state = state;
                    rec.error = error;
                    rec.latency = Some(latency);
                }
            }
        }
    }
    shared.cv.notify_all();
}

/// The single-threaded portion: device stack, staging, sort (or resume),
/// output. Everything `Rc` lives and dies inside this call.
fn execute(
    shared: &Arc<Shared>,
    id: u64,
    spec: &JobSpec,
    resume: bool,
    job_dir: &std::path::Path,
    prior_staged: Option<(Vec<u64>, u64)>,
    running: &RunningWriter<'_>,
) -> Outcome {
    if spec.op == JobOp::Pq {
        // Not journaled: the script is deterministic, so an interrupted pq
        // job redoes the whole script from its input copy.
        return execute_pq(shared, id, spec, resume, job_dir);
    }
    let sortspec = match spec.validate() {
        Ok(sp) => sp,
        Err(e) => return Outcome::failed(None, format!("invalid job spec: {e}")),
    };
    let device_path = job_dir.join("device.bin");
    let mut builder = spec.disk_builder();
    builder = if resume { builder.open_file(&device_path) } else { builder.file(&device_path) };
    if !resume && spec.crash_after_ios.is_some() {
        // Created disarmed; armed only after staging so the crash point
        // counts I/Os of the sort proper, exactly like the CLI.
        builder = builder.crash(CrashPlan::Disarmed);
    }
    let DiskStack { disk, injectors: _injectors, crash } = match builder.build() {
        Ok(stack) => stack,
        Err(e) => return Outcome::failed(None, e.to_string()),
    };

    // Stage (or reattach) the input.
    let (input, staged) = if resume {
        match prior_staged {
            Some((blocks, len)) => {
                let ext = Extent::from_raw(blocks.clone(), len);
                (ext, Some((blocks, len)))
            }
            None => return Outcome::failed(None, "resume without a staged input extent".into()),
        }
    } else {
        let copy = match std::fs::File::open(job_dir.join("input.xml")) {
            Ok(f) => f,
            Err(e) => return Outcome::failed(None, format!("cannot read input copy: {e}")),
        };
        let ext = match stage_reader(&disk, copy) {
            Ok(ext) => ext,
            Err(e) => return Outcome::failed(None, format!("staging: {e}")),
        };
        // The pool is already attached: push the staged blocks through it
        // onto the device file before the extent is
        // recorded, or a job killed mid-sort resumes from blocks that never
        // reached the device.
        if let Err(e) = disk.cache_flush_all() {
            return Outcome::failed(None, format!("staging: {e}"));
        }
        let staged = Some((ext.blocks().to_vec(), ext.len()));
        (ext, staged)
    };
    // The staged extent is what a restart reattaches: persist it before the
    // sort can be interrupted.
    running(&staged);

    let opts = spec.nexsort_options(true);
    if spec.op == JobOp::TopK {
        let topk = match nexsort_query::TopK::new(disk.clone(), opts, sortspec, spec.k) {
            Ok(t) => t,
            Err(e) => return Outcome::failed(None, e.to_string()),
        };
        if let (Some(ctl), Some(after)) = (&crash, spec.crash_after_ios) {
            ctl.arm_after(ctl.ios() + after);
        }
        let result =
            if resume { topk.resume_xml_extent(&input) } else { topk.topk_xml_extent(&input) };
        let text = result.and_then(|doc| doc.to_text().map(|t| (t, doc.report)));
        let (text, report) = match text {
            Ok(pair) => pair,
            Err(XmlError::Ext(ExtError::SimulatedCrash { .. }))
                if crash.as_ref().is_some_and(|c| c.crashed()) =>
            {
                // Same durable state as a killed sort: the journal has the
                // last sealed phase, and the next Server::open resumes it.
                return Outcome::interrupted(staged);
            }
            Err(e) => return Outcome::failed(staged, e.to_string()),
        };
        let output = resolve_output(&shared.cfg, id, spec);
        if let Err(e) = std::fs::write(&output, &text) {
            return Outcome::failed(staged, format!("cannot write output {output:?}: {e}"));
        }
        let _ = disk.cache_flush_all();
        let mut sort_report = report.sort;
        sort_report.resumed = sort_report.resumed || resume;
        return Outcome::done(staged, Some(JobSummary::of(&sort_report)));
    }

    let sorter = match Nexsort::new(disk.clone(), opts, sortspec) {
        Ok(s) => s,
        Err(e) => return Outcome::failed(None, e.to_string()),
    };
    if let (Some(ctl), Some(after)) = (&crash, spec.crash_after_ios) {
        ctl.arm_after(ctl.ios() + after);
    }
    let result = if resume {
        sorter.try_resume_xml_extent(&input)
    } else {
        sorter.try_sort_xml_extent(&input)
    };
    let doc = match result {
        Ok(doc) => doc,
        Err(f)
            if matches!(f.error, XmlError::Ext(ExtError::SimulatedCrash { .. }))
                && crash.as_ref().is_some_and(|c| c.crashed()) =>
        {
            // The device froze mid-sort: the job's durable state (journal,
            // staged input, manifest) is exactly what a kill -9 leaves
            // behind. The next Server::open resumes it.
            return Outcome::interrupted(staged);
        }
        Err(f) => return Outcome::failed(staged, f.to_string()),
    };
    // The output streams into a part file, renamed only once it is
    // complete: a job that dies mid-output never leaves a partial file
    // where `fetch` could serve it.
    let output = resolve_output(&shared.cfg, id, spec);
    let written = PartFile::create(&output).map_err(XmlError::from).and_then(|mut out| {
        doc.write_xml(&mut out, spec.pretty)?;
        Ok(out.commit()?)
    });
    match written {
        Ok(()) => {}
        Err(XmlError::Ext(ExtError::SimulatedCrash { .. }))
            if crash.as_ref().is_some_and(|c| c.crashed()) =>
        {
            // Froze during the output phase: the sort itself is fully
            // journalled, so the restart replays it and redoes the output.
            return Outcome::interrupted(staged);
        }
        Err(e) => return Outcome::failed(staged, format!("output phase: {e}")),
    }
    // Settle the device image (flush write-back pages) so the on-disk file is consistent once the job is marked done.
    let _ = disk.cache_flush_all();
    let mut report = doc.report.clone();
    report.resumed = report.resumed || resume;
    Outcome::done(staged, Some(JobSummary::of(&report)))
}

/// Run a pq job: execute its `push KEY` / `pop` / `peek` script over an
/// [`ExtPq`](nexsort_query::ExtPq) on the job's device, recording one
/// output line per pop/peek. The script is deterministic, so this same
/// function is also the resume path -- an interrupted job redoes the
/// script from the input copy and lands on identical output.
fn execute_pq(
    shared: &Arc<Shared>,
    id: u64,
    spec: &JobSpec,
    redo: bool,
    job_dir: &std::path::Path,
) -> Outcome {
    let mut builder = spec.disk_builder().file(&job_dir.join("device.bin"));
    if !redo && spec.crash_after_ios.is_some() {
        // The crash hook models the daemon death; a post-restart redo runs
        // the script to completion on a clean device.
        builder = builder.crash(CrashPlan::Disarmed);
    }
    let DiskStack { disk, injectors: _injectors, crash } = match builder.build() {
        Ok(stack) => stack,
        Err(e) => return Outcome::failed(None, e.to_string()),
    };
    let script = match std::fs::read_to_string(job_dir.join("input.xml")) {
        Ok(s) => s,
        Err(e) => return Outcome::failed(None, format!("cannot read pq script copy: {e}")),
    };
    let mut pq = match nexsort_query::ExtPq::new(disk.clone(), spec.mem_frames, spec.parity_group) {
        Ok(q) => q,
        Err(e) => return Outcome::failed(None, e.to_string()),
    };
    if let (Some(ctl), Some(after)) = (&crash, spec.crash_after_ios) {
        ctl.arm_after(ctl.ios() + after);
    }
    let out = match pq.run_script(&script) {
        Ok(out) => out,
        Err(e)
            if matches!(e.error, Some(XmlError::Ext(ExtError::SimulatedCrash { .. })))
                && crash.as_ref().is_some_and(|c| c.crashed()) =>
        {
            // The device froze mid-script; the next Server::open
            // re-queues the job, which redoes the script from scratch.
            return Outcome::interrupted(None);
        }
        Err(e) => return Outcome::failed(None, e.to_string()),
    };
    let output = resolve_output(&shared.cfg, id, spec);
    if let Err(e) = std::fs::write(&output, &out) {
        return Outcome::failed(None, format!("cannot write output {output:?}: {e}"));
    }
    let _ = disk.cache_flush_all();
    Outcome::done(None, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_baseline::stage_input;
    use nexsort_extmem::DiskBuilder;
    use nexsort_xml::build_spec;

    fn sample_xml() -> Vec<u8> {
        let mut doc = String::from("<catalog>");
        for i in (0..40).rev() {
            doc.push_str(&format!("<item id=\"{:03}\"><name>n{}</name></item>", i, (i * 7) % 40));
        }
        doc.push_str("</catalog>");
        doc.into_bytes()
    }

    /// What a one-shot in-memory sort of the same spec produces.
    fn direct_sort(xml: &[u8], spec: &JobSpec) -> Vec<u8> {
        let stack = DiskBuilder::new(spec.block_size).build().unwrap();
        let input = stage_input(&stack.disk, xml).unwrap();
        let sortspec = build_spec(spec.default_rule.as_deref(), &spec.keys).unwrap();
        let opts = NexsortOptions { mem_frames: spec.mem_frames, ..Default::default() };
        let sorter = Nexsort::new(stack.disk.clone(), opts, sortspec).unwrap();
        sorter.sort_xml_extent(&input).unwrap().to_xml(spec.pretty).unwrap()
    }

    #[test]
    fn stats_surface_lock_recovery_counters() {
        let st = ServerStats::default();
        assert_eq!(st.lock_recoveries, 0);
        assert_eq!(st.locksan_violations, 0);
    }

    #[test]
    fn submit_runs_to_done_bit_identical() {
        let dir = std::env::temp_dir().join(format!("nxsrv-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(ServerConfig::new(2, &dir)).unwrap();
        let xml = sample_xml();
        let spec = JobSpec {
            input: JobInput::Inline(xml.clone()),
            default_rule: Some("@id".into()),
            ..JobSpec::default()
        };
        let expected = direct_sort(&xml, &spec);
        let id = server.submit(spec).unwrap();
        let st = server.wait(id, Duration::from_secs(30)).unwrap();
        assert_eq!(st.state, JobState::Done, "error: {:?}", st.error);
        assert_eq!(server.fetch_output(id).unwrap(), expected);
        let report = st.report.expect("done job carries a report");
        assert!(report.records >= 40, "report covers the whole document");
        assert!(st.latency.is_some());
        // The manifest on disk agrees.
        let m = Manifest::load(&dir.join(format!("job-{id}"))).unwrap().unwrap();
        assert_eq!(m.state, JobState::Done);
        assert!(m.staged.is_some());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn unit_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nxsrv-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_job(xml: &[u8]) -> JobSpec {
        JobSpec {
            input: JobInput::Inline(xml.to_vec()),
            default_rule: Some("@k".into()),
            block_size: 512,
            ..JobSpec::default()
        }
    }

    #[test]
    fn finished_jobs_leave_memory_but_stay_queryable() {
        let dir = unit_dir("hist");
        let mut cfg = ServerConfig::new(2, &dir);
        cfg.queue_depth = 256;
        let server = Server::start(cfg).unwrap();
        let spec = small_job(b"<r><x k=\"2\"/><x k=\"1\"/></r>");
        let JobInput::Inline(xml) = &spec.input else { unreachable!() };
        let expected = direct_sort(xml, &spec);
        let ids: Vec<u64> = (0..200).map(|_| server.submit(spec.clone()).unwrap()).collect();
        assert!(server.wait_idle(Duration::from_secs(120)));
        assert!(server.shared.lock_core().jobs.is_empty(), "terminal jobs stay in memory");
        for &id in &ids {
            let st = server.status(id).expect("a finished job is still known");
            assert_eq!(st.state, JobState::Done, "job {id}: {:?}", st.error);
            assert!(st.report.is_some() && st.latency.is_some(), "job {id} lost its report");
            let waited = server.wait(id, Duration::ZERO).unwrap();
            assert_eq!(waited.report, st.report);
            let (chunk, total, eof) = server.fetch_output_chunk(id, 0, 1 << 20).unwrap();
            assert_eq!((chunk, total, eof), (expected.clone(), expected.len() as u64, true));
        }
        let listed = server.list();
        assert_eq!(listed.iter().map(|st| st.id).collect::<Vec<_>>(), ids);
        assert!(listed.iter().all(|st| st.state == JobState::Done && st.report.is_some()));
        let stats = server.stats();
        assert_eq!((stats.done, stats.queued, stats.running), (200, 0, 0));
        assert!(server.status(200).is_none(), "ids past the last one are unknown");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_wait_sees_the_job_it_blocked_on_leave_the_table() {
        let dir = unit_dir("evict");
        let mut cfg = ServerConfig::new(1, &dir);
        cfg.budget_frames = 32;
        let server = Server::start(cfg).unwrap();
        // Hold the whole budget so the job parks on its lease, running.
        let lease = server.shared.arbiter.acquire(32).unwrap();
        let id = server.submit(small_job(b"<r><x k=\"2\"/><x k=\"1\"/></r>")).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let st = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                tx.send(()).unwrap();
                server.wait(id, Duration::from_secs(60))
            });
            rx.recv().unwrap();
            drop(lease);
            waiter.join().unwrap()
        });
        let st = st.expect("the evicted job is served from its manifest");
        assert_eq!(st.state, JobState::Done, "{:?}", st.error);
        assert!(st.report.is_some());
        assert!(server.shared.lock_core().jobs.is_empty());
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn canceled_jobs_are_counted_across_a_restart() {
        let dir = unit_dir("cancel");
        let mut cfg = ServerConfig::new(1, &dir);
        cfg.budget_frames = 32;
        let server = Server::start(cfg.clone()).unwrap();
        // The only worker parks on the first job's lease, so the second
        // job stays queued until it is canceled.
        let lease = server.shared.arbiter.acquire(32).unwrap();
        let spec = small_job(b"<r><x k=\"1\"/></r>");
        let first = server.submit(spec.clone()).unwrap();
        let second = server.submit(spec).unwrap();
        assert!(server.cancel(second));
        drop(lease);
        assert_eq!(server.wait(first, Duration::from_secs(30)).unwrap().state, JobState::Done);
        let before = server.stats();
        assert_eq!((before.done, before.canceled), (1, 1));
        server.shutdown();
        let server = Server::open(cfg).unwrap();
        let after = server.stats();
        assert_eq!((after.done, after.canceled, after.queued), (1, 1, 0));
        assert_eq!(server.status(second).unwrap().state, JobState::Canceled);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fetch_chunks_never_split_a_character() {
        let dir = unit_dir("utf8");
        let server = Server::start(ServerConfig::new(1, &dir)).unwrap();
        let xml = "<r><x k=\"2\">é中😀ü</x><x k=\"1\">€𝄞ß</x></r>";
        let id = server.submit(small_job(xml.as_bytes())).unwrap();
        assert_eq!(server.wait(id, Duration::from_secs(30)).unwrap().state, JobState::Done);
        let full = server.fetch_output(id).unwrap();
        let mut trimmed = false;
        // Every chunk length from "fits one 4-byte character" up puts a
        // boundary inside some multi-byte character.
        for len in 4..=12u64 {
            let (mut out, mut offset) = (Vec::new(), 0u64);
            loop {
                let (chunk, total, eof) = server.fetch_output_chunk(id, offset, len).unwrap();
                assert_eq!(total, full.len() as u64);
                assert!(std::str::from_utf8(&chunk).is_ok(), "len {len} offset {offset}");
                trimmed |= !eof && (chunk.len() as u64) < len;
                offset += chunk.len() as u64;
                out.extend_from_slice(&chunk);
                if eof {
                    break;
                }
            }
            assert_eq!(out, full, "chunks of {len} bytes reassemble the output");
        }
        assert!(trimmed, "some chunk boundary straddled a character");
        let past = server.fetch_output_chunk(id, full.len() as u64 + 9, 16).unwrap();
        assert_eq!(past, (Vec::new(), full.len() as u64, true), "past EOF: empty, eof");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_fails_an_adopted_job_whose_spec_cannot_run() {
        // A manifest holding a 1 TiB block size (written before the bound
        // existed) must not be re-queued: staging it would abort the daemon
        // on the allocation, and every restart would abort again.
        let dir = unit_dir("badspec");
        let job_dir = dir.join("job-0");
        std::fs::create_dir_all(&job_dir).unwrap();
        std::fs::write(job_dir.join("input.xml"), b"<r/>").unwrap();
        Manifest {
            id: 0,
            state: JobState::Queued,
            spec: JobSpec { block_size: 1 << 40, ..JobSpec::default() },
            staged: None,
            error: None,
            resumed: false,
            summary: None,
            latency_ms: None,
        }
        .store(&job_dir)
        .unwrap();
        let server = Server::open(ServerConfig::new(1, &dir)).unwrap();
        let st = server.status(0).expect("the adopted job is known");
        assert_eq!(st.state, JobState::Failed);
        assert!(st.error.as_deref().unwrap_or("").contains("maximum"), "{:?}", st.error);
        assert_eq!(server.stats().failed, 1);
        assert_eq!(Manifest::load(&job_dir).unwrap().unwrap().state, JobState::Failed);
        // The daemon is alive and takes the next job.
        let id = server.submit(small_job(b"<r><x k=\"2\"/><x k=\"1\"/></r>")).unwrap();
        assert_eq!(id, 1);
        assert_eq!(server.wait(id, Duration::from_secs(30)).unwrap().state, JobState::Done);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_jobs_are_rejected_at_submit() {
        let dir = std::env::temp_dir().join(format!("nxsrv-unit-inv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServerConfig::new(1, &dir);
        cfg.budget_frames = 64;
        let server = Server::start(cfg).unwrap();
        // Bad ordering criterion.
        let bad_rule = JobSpec {
            input: JobInput::Inline(b"<a/>".to_vec()),
            default_rule: Some("::".into()),
            ..JobSpec::default()
        };
        assert!(matches!(server.submit(bad_rule), Err(SubmitError::Invalid(_))));
        // Demands more frames than the global budget will ever have.
        let too_big = JobSpec {
            input: JobInput::Inline(b"<a/>".to_vec()),
            mem_frames: 1000,
            ..JobSpec::default()
        };
        assert!(matches!(server.submit(too_big), Err(SubmitError::Invalid(_))));
        // Missing input file.
        let no_input =
            JobSpec { input: JobInput::Path(dir.join("nope.xml")), ..JobSpec::default() };
        assert!(matches!(server.submit(no_input), Err(SubmitError::Invalid(_))));
        assert!(!dir.join("job-0").exists(), "a failed copy left its job directory");
        // A block size no stream could allocate.
        let huge_block = JobSpec {
            input: JobInput::Inline(b"<a/>".to_vec()),
            block_size: 1 << 40,
            ..JobSpec::default()
        };
        assert!(matches!(server.submit(huge_block), Err(SubmitError::Invalid(_))));
        assert_eq!(server.stats().submitted, 0);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
