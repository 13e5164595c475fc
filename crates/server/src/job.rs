//! Job specifications, lifecycle state, and the persisted per-job manifest.
//!
//! Every accepted job owns a directory `job-<id>/` under the server's job
//! root holding:
//!
//! * `input.xml`  -- a private copy of the input document, taken at accept
//!   time so a resumed job never depends on the submitter's file surviving;
//! * `device.bin` (plus `.0..N-1` when striped) -- the job's block device,
//!   carrying the sort's PR-5 write-ahead journal;
//! * `job.json`   -- the manifest: the full spec, the lifecycle state, and
//!   (once staged) the raw input extent, i.e. everything a restarted daemon
//!   needs to reattach the device and resume the sort.
//!
//! The manifest is rewritten via temp-file + rename so a crash mid-update
//! leaves the previous consistent version in place.

use std::path::{Path, PathBuf};

use nexsort::{journal_blocks, NexsortOptions, SortReport};
use nexsort_extmem::{CachePolicy, DiskBuilder, WriteMode};
use nexsort_xml::{build_spec, SortSpec};

use crate::json::{self, b, n, obj, s, Value};

/// Where a submitted job's input bytes come from.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Read the file at accept time.
    Path(PathBuf),
    /// The document text was inlined in the submit request.
    Inline(Vec<u8>),
}

/// What kind of work a job performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobOp {
    /// Full NEXSORT sort (the default).
    #[default]
    Sort,
    /// `ORDER BY ... LIMIT k`: sort, keep only the first `k` records.
    /// Journaled and resumable exactly like a sort.
    TopK,
    /// External priority queue: the input is a script of `push KEY` /
    /// `pop` / `peek` lines; the output records each pop/peek result.
    /// Deterministic, so an interrupted job redoes the script from its
    /// input copy.
    Pq,
}

impl JobOp {
    /// Stable wire/manifest name.
    pub fn name(self) -> &'static str {
        match self {
            JobOp::Sort => "sort",
            JobOp::TopK => "topk",
            JobOp::Pq => "pq",
        }
    }

    /// Parse a manifest/wire name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        Ok(match name {
            "sort" => JobOp::Sort,
            "topk" => JobOp::TopK,
            "pq" => JobOp::Pq,
            other => return Err(format!("unknown job op {other:?} (expected sort, topk, pq)")),
        })
    }
}

/// Smallest accepted device block size in bytes.
pub const MIN_BLOCK_SIZE: usize = 64;

/// Largest accepted device block size in bytes (1 MiB; the paper's
/// experiments use 64 KB blocks). Every stream over the device holds whole
/// blocks in memory, so an unbounded block size is an unbounded allocation.
pub const MAX_BLOCK_SIZE: usize = 1 << 20;

/// Everything needed to run one sort job, and the one declaration of the
/// sort knobs: `xsort` parses its flags into a `JobSpec`, `client submit`
/// ships the same value to the daemon, and both map it onto a device stack
/// ([`disk_builder`](Self::disk_builder)) and sorter options
/// ([`nexsort_options`](Self::nexsort_options)) the same way. Plain data
/// (`Send`): the worker thread builds the actual stack and sorter from it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to do with the input.
    pub op: JobOp,
    /// The `k` of a top-k job; ignored by other ops.
    pub k: u64,
    /// Tenant this job is billed to, for the per-tenant fairness cap.
    pub tenant: Option<String>,
    /// Client-supplied idempotency token. A resubmit carrying a token the
    /// server has already accepted adopts the existing job (same id) instead
    /// of sorting twice -- the dropped-ACK retry case. Persisted in the
    /// manifest, so deduplication survives a daemon restart.
    pub idem: Option<String>,
    /// Input document.
    pub input: JobInput,
    /// Where the sorted output lands; `out.xml` inside the job directory
    /// when absent (fetch it over the protocol).
    pub output: Option<PathBuf>,
    /// Default ordering rule (spec-string grammar); document order if absent.
    pub default_rule: Option<String>,
    /// Per-tag `TAG=RULE` overrides.
    pub keys: Vec<String>,
    /// Device block size in bytes.
    pub block_size: usize,
    /// Sort memory in frames (the model's `m`).
    pub mem_frames: usize,
    /// Sort threshold in bytes (`None` = 2 blocks).
    pub threshold: Option<u64>,
    /// Depth limit for subtree descent.
    pub depth_limit: Option<u32>,
    /// Run the graceful-degeneration variant.
    pub degeneration: bool,
    /// Page-cache frames (0 = no cache). Leased from the global budget on
    /// top of `mem_frames`.
    pub cache_frames: usize,
    /// Page-cache eviction policy.
    pub cache_policy: CachePolicy,
    /// Write-back caching instead of write-through.
    pub write_back: bool,
    /// Stripe the device over N backing files.
    pub stripe: usize,
    /// Parity blocks per K data blocks of each sealed run (0 = none).
    pub parity_group: usize,
    /// Pretty-print the XML output.
    pub pretty: bool,
    /// Test hook: freeze the job's device after this many physical I/Os of
    /// the sort proper -- the in-process stand-in for `kill -9` mid-job.
    pub crash_after_ios: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            op: JobOp::Sort,
            k: 0,
            tenant: None,
            idem: None,
            input: JobInput::Inline(Vec::new()),
            output: None,
            default_rule: None,
            keys: Vec::new(),
            block_size: 4096,
            mem_frames: 32,
            threshold: None,
            depth_limit: None,
            degeneration: false,
            cache_frames: 0,
            cache_policy: CachePolicy::Lru,
            write_back: false,
            stripe: 1,
            parity_group: 0,
            pretty: false,
            crash_after_ios: None,
        }
    }
}

impl JobSpec {
    /// Frames this job holds from the global budget while it runs: its sort
    /// memory plus its private page cache.
    pub fn frames_needed(&self) -> usize {
        self.mem_frames + self.cache_frames
    }

    /// Reject what could never run, and return the ordering criterion the
    /// spec names. The one validator shared by `xsort`, `Server::submit`,
    /// and the restart path that adopts persisted manifests.
    pub fn validate(&self) -> Result<SortSpec, String> {
        let spec = build_spec(self.default_rule.as_deref(), &self.keys)?;
        if self.block_size < MIN_BLOCK_SIZE {
            return Err(format!(
                "block size {} is below the {MIN_BLOCK_SIZE}-byte minimum",
                self.block_size
            ));
        }
        if self.block_size > MAX_BLOCK_SIZE {
            return Err(format!(
                "block size {} is above the {MAX_BLOCK_SIZE}-byte maximum",
                self.block_size
            ));
        }
        if self.stripe == 0 {
            return Err("stripe width must be at least 1".into());
        }
        if self.op == JobOp::TopK && self.k == 0 {
            return Err("top-k jobs need k >= 1".into());
        }
        Ok(spec)
    }

    /// The device stack the spec's knobs describe: block size, striping,
    /// and page cache. Callers add their own backing and
    /// test layers (device file, faults, retries, crash injection).
    pub fn disk_builder(&self) -> DiskBuilder {
        let mut b = DiskBuilder::new(self.block_size).stripe(self.stripe);
        if self.cache_frames > 0 {
            let mode = if self.write_back { WriteMode::Back } else { WriteMode::Through };
            b = b.cache(self.cache_frames, self.cache_policy, mode);
        }
        b
    }

    /// The sorter options the spec's knobs describe; `checkpoint` turns on
    /// the write-ahead journal (always on for daemon jobs).
    pub fn nexsort_options(&self, checkpoint: bool) -> NexsortOptions {
        NexsortOptions {
            mem_frames: self.mem_frames,
            threshold: self.threshold,
            depth_limit: self.depth_limit,
            degeneration: self.degeneration,
            checkpoint,
            journal_blocks: journal_blocks(self.block_size),
            parity_group: self.parity_group,
            ..Default::default()
        }
    }
}

/// Lifecycle of a job. Terminal states are `Done`, `Failed`, and
/// `Canceled`; `Interrupted` means the job's device froze mid-sort (crash
/// injection or daemon death) and the job resumes on the next restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// On a worker thread (staging, sorting, or writing output).
    Running,
    /// Output written and byte-complete.
    Done,
    /// Sort failed; see the error message.
    Failed,
    /// Dequeued by a cancel request before a worker picked it up.
    Canceled,
    /// Frozen mid-sort; will resume from the journal on restart.
    Interrupted,
}

impl JobState {
    /// Stable wire/manifest name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
            JobState::Interrupted => "interrupted",
        }
    }

    /// Parse a manifest/wire name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        Ok(match name {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "canceled" => JobState::Canceled,
            "interrupted" => JobState::Interrupted,
            other => return Err(format!("unknown job state {other:?}")),
        })
    }

    /// True when no further work will happen on this job.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Canceled)
    }
}

/// What the daemon keeps of a finished job's [`SortReport`]: the fields
/// `status` and `wait` send, plus `degenerate_merges`. Persisted in the
/// manifest, so a done job keeps its report across restarts.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Records sorted.
    pub records: u64,
    /// Input document size in bytes.
    pub input_bytes: u64,
    /// Logical block reads of the sort.
    pub logical_reads: u64,
    /// Logical block writes of the sort.
    pub logical_writes: u64,
    /// Physical transfers of every kind.
    pub physical_total: u64,
    /// Subtree sorts that ran externally.
    pub external_sorts: u32,
    /// Degenerate merge passes run (by this run, not skipped ones).
    pub degenerate_merges: u32,
    /// Journal-committed merge passes a resume skipped.
    pub committed_passes_skipped: u32,
    /// True when the sort went through journal resume.
    pub resumed: bool,
    /// True when the sort completed in degraded mode.
    pub degraded: bool,
    /// Blocks rebuilt from parity.
    pub repairs: u64,
    /// Blocks quarantined as bad sectors.
    pub quarantined_blocks: u64,
    /// Wall time of the sort in milliseconds.
    pub elapsed_ms: f64,
}

impl JobSummary {
    /// Summarize a finished sort's report.
    pub fn of(report: &SortReport) -> Self {
        JobSummary {
            records: report.n_records,
            input_bytes: report.input_bytes,
            logical_reads: report.io.total_reads(),
            logical_writes: report.io.total_writes(),
            physical_total: report.io.grand_total_physical(),
            external_sorts: report.external_sorts,
            degenerate_merges: report.degenerate_merges,
            committed_passes_skipped: report.committed_passes_skipped,
            resumed: report.resumed,
            degraded: report.degraded,
            repairs: report.repairs,
            quarantined_blocks: report.quarantined_blocks,
            elapsed_ms: report.elapsed.as_secs_f64() * 1000.0,
        }
    }

    /// The JSON object form, shared by the `status`/`wait` replies and the
    /// manifest.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("records", n(self.records)),
            ("input_bytes", n(self.input_bytes)),
            ("logical_reads", n(self.logical_reads)),
            ("logical_writes", n(self.logical_writes)),
            ("physical_total", n(self.physical_total)),
            ("external_sorts", n(u64::from(self.external_sorts))),
            ("resumed", b(self.resumed)),
            ("committed_passes_skipped", n(u64::from(self.committed_passes_skipped))),
            ("degraded", b(self.degraded)),
            ("repairs", n(self.repairs)),
            ("quarantined_blocks", n(self.quarantined_blocks)),
            ("elapsed_ms", Value::Num(self.elapsed_ms)),
            ("degenerate_merges", n(u64::from(self.degenerate_merges))),
        ])
    }

    /// Parse the object [`to_value`](Self::to_value) writes.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let num = |key: &str| {
            v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("summary missing {key:?}"))
        };
        let count = |key: &str| {
            num(key).and_then(|x| u32::try_from(x).map_err(|_| format!("summary {key:?} too big")))
        };
        let flag = |key: &str| {
            v.get(key).and_then(Value::as_bool).ok_or_else(|| format!("summary missing {key:?}"))
        };
        Ok(JobSummary {
            records: num("records")?,
            input_bytes: num("input_bytes")?,
            logical_reads: num("logical_reads")?,
            logical_writes: num("logical_writes")?,
            physical_total: num("physical_total")?,
            external_sorts: count("external_sorts")?,
            degenerate_merges: count("degenerate_merges")?,
            committed_passes_skipped: count("committed_passes_skipped")?,
            resumed: flag("resumed")?,
            degraded: flag("degraded")?,
            repairs: num("repairs")?,
            quarantined_blocks: num("quarantined_blocks")?,
            elapsed_ms: v
                .get("elapsed_ms")
                .and_then(Value::as_f64)
                .ok_or("summary missing \"elapsed_ms\"")?,
        })
    }
}

/// The persisted manifest of one job.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Job id (also names the job directory).
    pub id: u64,
    /// Lifecycle state at the last manifest write.
    pub state: JobState,
    /// The job's full specification (input is always the job-local copy).
    pub spec: JobSpec,
    /// The staged input extent `(blocks, byte_len)`, recorded before the
    /// sort starts so a restart can reattach it.
    pub staged: Option<(Vec<u64>, u64)>,
    /// Error message of a failed job.
    pub error: Option<String>,
    /// True when the job has already been resumed at least once.
    pub resumed: bool,
    /// The report summary of a done sort or top-k job.
    pub summary: Option<JobSummary>,
    /// Submit-to-finish latency of a job that has left its worker.
    pub latency_ms: Option<f64>,
}

/// Cache-policy wire names.
pub fn policy_name(policy: CachePolicy) -> &'static str {
    match policy {
        CachePolicy::Lru => "lru",
        CachePolicy::Clock => "clock",
    }
}

/// Parse a cache-policy wire name.
pub fn policy_from_name(name: &str) -> Result<CachePolicy, String> {
    match name {
        "lru" => Ok(CachePolicy::Lru),
        "clock" => Ok(CachePolicy::Clock),
        other => Err(format!("unknown cache policy {other:?} (expected lru, clock)")),
    }
}

fn opt_num(v: Option<u64>) -> Value {
    match v {
        Some(x) => n(x),
        None => Value::Null,
    }
}

fn opt_str(v: &Option<String>) -> Value {
    match v {
        Some(x) => s(x.clone()),
        None => Value::Null,
    }
}

/// Serialize a spec to its JSON object form (shared by the manifest and the
/// submit protocol's echo).
pub fn spec_to_value(spec: &JobSpec) -> Value {
    obj(vec![
        ("op", s(spec.op.name())),
        ("k", n(spec.k)),
        ("tenant", opt_str(&spec.tenant)),
        ("idem", opt_str(&spec.idem)),
        ("output", spec.output.as_ref().map_or(Value::Null, |p| s(p.display().to_string()))),
        ("default", opt_str(&spec.default_rule)),
        ("keys", Value::Arr(spec.keys.iter().map(|k| s(k.clone())).collect())),
        ("block", n(spec.block_size as u64)),
        ("mem_frames", n(spec.mem_frames as u64)),
        ("threshold", opt_num(spec.threshold)),
        ("depth_limit", opt_num(spec.depth_limit.map(u64::from))),
        ("degeneration", b(spec.degeneration)),
        ("cache_frames", n(spec.cache_frames as u64)),
        ("cache_policy", s(policy_name(spec.cache_policy))),
        ("write_back", b(spec.write_back)),
        ("stripe", n(spec.stripe as u64)),
        ("parity_group", n(spec.parity_group as u64)),
        ("pretty", b(spec.pretty)),
        ("crash_after_ios", opt_num(spec.crash_after_ios)),
    ])
}

/// Parse the spec fields out of a JSON object (absent fields keep their
/// defaults; unknown fields, such as the I/O-scheduler knobs older
/// manifests carry, are ignored). The `input` field is handled by the
/// caller: the protocol accepts `input` (a path) or `xml` (inline text);
/// the manifest always uses the job-local copy.
pub fn spec_from_value(v: &Value) -> Result<JobSpec, String> {
    let mut spec = JobSpec::default();
    let get_usize = |key: &str| -> Result<Option<usize>, String> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => x
                .as_u64()
                .map(|u| Some(u as usize))
                .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
        }
    };
    let get_bool = |key: &str| -> Result<Option<bool>, String> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => {
                x.as_bool().map(Some).ok_or_else(|| format!("field {key:?} must be a boolean"))
            }
        }
    };
    let get_str = |key: &str| -> Result<Option<String>, String> {
        match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => x
                .as_str()
                .map(|t| Some(t.to_string()))
                .ok_or_else(|| format!("field {key:?} must be a string")),
        }
    };
    if let Some(name) = get_str("op")? {
        spec.op = JobOp::from_name(&name)?;
    }
    if let Some(x) = get_usize("k")? {
        spec.k = x as u64;
    }
    spec.tenant = get_str("tenant")?;
    spec.idem = get_str("idem")?;
    spec.output = get_str("output")?.map(PathBuf::from);
    spec.default_rule = get_str("default")?;
    if let Some(keys) = v.get("keys") {
        let items = keys.as_arr().ok_or("field \"keys\" must be an array of TAG=RULE strings")?;
        for item in items {
            spec.keys.push(item.as_str().ok_or("field \"keys\" must contain strings")?.to_string());
        }
    }
    if let Some(x) = get_usize("block")? {
        spec.block_size = x;
    }
    if let Some(x) = get_usize("mem_frames")? {
        spec.mem_frames = x;
    }
    if let Some(x) = get_usize("threshold")? {
        spec.threshold = Some(x as u64);
    }
    if let Some(x) = get_usize("depth_limit")? {
        let depth = u32::try_from(x)
            .map_err(|_| format!("field \"depth_limit\" must be at most {}", u32::MAX))?;
        spec.depth_limit = Some(depth);
    }
    if let Some(x) = get_bool("degeneration")? {
        spec.degeneration = x;
    }
    if let Some(x) = get_usize("cache_frames")? {
        spec.cache_frames = x;
    }
    if let Some(name) = get_str("cache_policy")? {
        spec.cache_policy = policy_from_name(&name)?;
    }
    if let Some(x) = get_bool("write_back")? {
        spec.write_back = x;
    }
    if let Some(x) = get_usize("stripe")? {
        spec.stripe = x;
    }
    if let Some(x) = get_usize("parity_group")? {
        spec.parity_group = x;
    }
    if let Some(x) = get_bool("pretty")? {
        spec.pretty = x;
    }
    if let Some(x) = get_usize("crash_after_ios")? {
        spec.crash_after_ios = Some(x as u64);
    }
    Ok(spec)
}

impl Manifest {
    /// Serialize to the `job.json` document.
    pub fn to_json(&self) -> String {
        let staged = match &self.staged {
            None => Value::Null,
            Some((blocks, len)) => obj(vec![
                ("blocks", Value::Arr(blocks.iter().map(|&id| n(id)).collect())),
                ("len", n(*len)),
            ]),
        };
        obj(vec![
            ("id", n(self.id)),
            ("state", s(self.state.name())),
            ("spec", spec_to_value(&self.spec)),
            ("staged", staged),
            ("error", opt_str(&self.error)),
            ("resumed", b(self.resumed)),
            ("summary", self.summary.as_ref().map_or(Value::Null, JobSummary::to_value)),
            ("latency_ms", self.latency_ms.map_or(Value::Null, Value::Num)),
        ])
        .to_json()
    }

    /// Parse a `job.json` document. `job_dir` supplies the input path (the
    /// manifest never records it; the copy is always `job_dir/input.xml`).
    pub fn from_json(text: &str, job_dir: &Path) -> Result<Self, String> {
        let v = json::parse(text)?;
        let id = v.get("id").and_then(Value::as_u64).ok_or("manifest missing \"id\"")?;
        let state = JobState::from_name(
            v.get("state").and_then(Value::as_str).ok_or("manifest missing \"state\"")?,
        )?;
        let mut spec = spec_from_value(v.get("spec").ok_or("manifest missing \"spec\"")?)?;
        spec.input = JobInput::Path(job_dir.join("input.xml"));
        let staged = match v.get("staged") {
            None | Some(Value::Null) => None,
            Some(st) => {
                let blocks = st
                    .get("blocks")
                    .and_then(Value::as_arr)
                    .ok_or("manifest \"staged\" missing \"blocks\"")?
                    .iter()
                    .map(|b| b.as_u64().ok_or("staged block ids must be integers"))
                    .collect::<Result<Vec<u64>, _>>()?;
                let len = st
                    .get("len")
                    .and_then(Value::as_u64)
                    .ok_or("manifest \"staged\" missing \"len\"")?;
                Some((blocks, len))
            }
        };
        let error = v.get("error").and_then(Value::as_str).map(str::to_string);
        let resumed = v.get("resumed").and_then(Value::as_bool).unwrap_or(false);
        // Manifests written before summaries existed load without one.
        let summary = match v.get("summary") {
            None | Some(Value::Null) => None,
            Some(sum) => Some(JobSummary::from_value(sum)?),
        };
        let latency_ms = v.get("latency_ms").and_then(Value::as_f64);
        Ok(Self { id, state, spec, staged, error, resumed, summary, latency_ms })
    }

    /// Write the manifest atomically (temp file + rename) into `job_dir`.
    pub fn store(&self, job_dir: &Path) -> Result<(), String> {
        let tmp = job_dir.join("job.json.tmp");
        let dst = job_dir.join("job.json");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("cannot write manifest {tmp:?}: {e}"))?;
        std::fs::rename(&tmp, &dst).map_err(|e| format!("cannot commit manifest {dst:?}: {e}"))
    }

    /// Load the manifest from `job_dir`, if one exists.
    pub fn load(job_dir: &Path) -> Result<Option<Self>, String> {
        let path = job_dir.join("job.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => Self::from_json(&text, job_dir).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("cannot read manifest {path:?}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifests_round_trip() {
        let spec = JobSpec {
            op: JobOp::TopK,
            k: 25,
            tenant: Some("acme".into()),
            idem: Some("retry-token-1".into()),
            output: Some(PathBuf::from("/tmp/out.xml")),
            default_rule: Some("@k:num".into()),
            keys: vec!["t=@a".into(), "u=@b:desc".into()],
            block_size: 256,
            mem_frames: 16,
            threshold: Some(512),
            depth_limit: Some(3),
            degeneration: true,
            cache_frames: 8,
            cache_policy: CachePolicy::Clock,
            write_back: true,
            stripe: 3,
            parity_group: 4,
            pretty: true,
            crash_after_ios: Some(77),
            ..JobSpec::default()
        };
        let m = Manifest {
            id: 9,
            state: JobState::Interrupted,
            spec,
            staged: Some((vec![5, 6, 7], 1234)),
            error: None,
            resumed: true,
            summary: Some(JobSummary {
                records: 400,
                input_bytes: 9000,
                logical_reads: 31,
                logical_writes: 29,
                physical_total: 61,
                external_sorts: 2,
                degenerate_merges: 3,
                committed_passes_skipped: 1,
                resumed: true,
                degraded: true,
                repairs: 4,
                quarantined_blocks: 5,
                elapsed_ms: 2.625,
            }),
            latency_ms: Some(12.5),
        };
        let back = Manifest::from_json(&m.to_json(), Path::new("/jobs/job-9")).unwrap();
        assert_eq!(back.summary, m.summary);
        assert_eq!(back.latency_ms, Some(12.5));
        assert_eq!(back.id, 9);
        assert_eq!(back.state, JobState::Interrupted);
        assert_eq!(back.staged, Some((vec![5, 6, 7], 1234)));
        assert!(back.resumed);
        assert_eq!(back.spec.block_size, 256);
        assert_eq!(back.spec.mem_frames, 16);
        assert_eq!(back.spec.threshold, Some(512));
        assert_eq!(back.spec.depth_limit, Some(3));
        assert!(back.spec.degeneration && back.spec.write_back);
        assert_eq!(back.spec.cache_policy, CachePolicy::Clock);
        assert_eq!(back.spec.stripe, 3);
        assert_eq!(back.spec.parity_group, 4);
        assert_eq!(back.spec.crash_after_ios, Some(77));
        assert_eq!(back.spec.op, JobOp::TopK);
        assert_eq!(back.spec.k, 25);
        assert_eq!(back.spec.tenant.as_deref(), Some("acme"));
        assert_eq!(back.spec.idem.as_deref(), Some("retry-token-1"));
        assert_eq!(back.spec.keys, vec!["t=@a".to_string(), "u=@b:desc".to_string()]);
        match &back.spec.input {
            JobInput::Path(p) => assert_eq!(p, Path::new("/jobs/job-9/input.xml")),
            other => panic!("expected job-local input path, got {other:?}"),
        }
    }

    #[test]
    fn manifests_without_a_summary_still_load() {
        let text = r#"{"id":3,"state":"done","spec":{"block":512},"staged":null,"error":null,"resumed":false}"#;
        let m = Manifest::from_json(text, Path::new("/jobs/job-3")).unwrap();
        assert_eq!(m.state, JobState::Done);
        assert_eq!(m.summary, None);
        assert_eq!(m.latency_ms, None);
    }

    #[test]
    fn manifests_with_the_retired_scheduler_keys_still_load() {
        // Written before the I/O scheduler was removed: its three keys are
        // ignored and the rest of the spec loads as before.
        let text = r#"{"id":4,"state":"queued","spec":{"block":512,"cache_frames":16,"write_back":true,"io_workers":4,"prefetch_depth":8,"write_behind":true,"stripe":4},"staged":null,"error":null,"resumed":false}"#;
        let m = Manifest::from_json(text, Path::new("/jobs/job-4")).unwrap();
        assert_eq!(m.state, JobState::Queued);
        assert_eq!((m.spec.block_size, m.spec.cache_frames, m.spec.stripe), (512, 16, 4));
        assert!(m.spec.write_back);
        assert!(m.spec.validate().is_ok());
    }

    #[test]
    fn wrong_typed_fields_are_rejected_by_name() {
        for key in ["op", "tenant", "idem", "output", "default", "cache_policy"] {
            let err = spec_from_value(&obj(vec![(key, n(7))])).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{key}: {err}");
        }
        // Out of u32 range: rejected, not truncated to depth 1.
        let err = spec_from_value(&obj(vec![("depth_limit", n(4_294_967_297))])).unwrap_err();
        assert!(err.contains("depth_limit"), "{err}");
        let spec = spec_from_value(&obj(vec![("depth_limit", n(u64::from(u32::MAX)))])).unwrap();
        assert_eq!(spec.depth_limit, Some(u32::MAX));
        // Null still means "absent": the default stays.
        let spec = spec_from_value(&obj(vec![("default", Value::Null)])).unwrap();
        assert_eq!(spec.default_rule, None);
    }

    #[test]
    fn validate_bounds_the_block_size_and_names_the_criterion() {
        let ok = JobSpec { default_rule: Some("@k".into()), ..JobSpec::default() };
        assert!(ok.validate().is_ok());
        for block_size in [MIN_BLOCK_SIZE, MAX_BLOCK_SIZE] {
            assert!(
                JobSpec { block_size, ..JobSpec::default() }.validate().is_ok(),
                "{block_size}"
            );
        }
        let err = JobSpec { block_size: MAX_BLOCK_SIZE + 1, ..JobSpec::default() }
            .validate()
            .unwrap_err();
        assert!(err.contains("maximum"), "{err}");
        let err = JobSpec { block_size: 1 << 40, ..JobSpec::default() }.validate().unwrap_err();
        assert!(err.contains("maximum"), "{err}");
        let err = JobSpec { block_size: MIN_BLOCK_SIZE - 1, ..JobSpec::default() }
            .validate()
            .unwrap_err();
        assert!(err.contains("minimum"), "{err}");
        assert!(JobSpec { default_rule: Some("::".into()), ..JobSpec::default() }
            .validate()
            .is_err());
        assert!(JobSpec { op: JobOp::TopK, ..JobSpec::default() }.validate().is_err());
        assert!(JobSpec { stripe: 0, ..JobSpec::default() }.validate().is_err());
        // A submitted `"stripe": 0` reaches the same check instead of being
        // clamped to 1.
        let spec = spec_from_value(&obj(vec![("stripe", n(0))])).unwrap();
        let err = spec.validate().unwrap_err();
        assert_eq!(err, "stripe width must be at least 1");
    }

    #[test]
    fn states_round_trip_and_classify() {
        for st in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Canceled,
            JobState::Interrupted,
        ] {
            assert_eq!(JobState::from_name(st.name()).unwrap(), st);
        }
        assert!(JobState::Done.is_terminal());
        assert!(!JobState::Interrupted.is_terminal(), "interrupted jobs resume on restart");
        assert!(JobState::from_name("zombie").is_err());
    }

    #[test]
    fn store_and_load_are_atomic_siblings() {
        let dir = std::env::temp_dir().join(format!("xjob-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(Manifest::load(&dir).unwrap().is_none());
        let m = Manifest {
            id: 1,
            state: JobState::Queued,
            spec: JobSpec::default(),
            staged: None,
            error: Some("boom".into()),
            resumed: false,
            summary: None,
            latency_ms: None,
        };
        m.store(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap().expect("stored");
        assert_eq!(back.error.as_deref(), Some("boom"));
        assert!(!dir.join("job.json.tmp").exists(), "temp file was renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }
}
