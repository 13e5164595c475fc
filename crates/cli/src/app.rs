//! The `xsort` application: argument handling and command execution.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use nexsort::{FailureCategory, Nexsort, NexsortOptions, SortFailure, SortedDoc};
use nexsort_baseline::{sort_xml_extent, stage_reader, BaselineOptions};
use nexsort_extmem::{
    recover, ByteSink, CrashController, CrashPlan, Disk, DiskBuilder, ExtError, Extent,
    FaultInjector, FaultPlan, IoCat, IoPhase, IoSink, IoSnapshot, IoSource, JournalRecord,
    PartFile, RetryPolicy, RunId, RunStore, ScrubReport, STREAM_BUF,
};
use nexsort_merge::{BatchUpdate, StructuralMerge};
use nexsort_server::{JobInput, JobOp, JobSpec};
use nexsort_xml::{
    cmp_encoded_keys, sorts_children_of, KeyValue, RecHead, RecKind, RecRef, RecXmlWriter,
    SortSpec, XmlWriter,
};

use crate::specarg::parse_size;

fn xml_err(e: nexsort_xml::XmlError) -> String {
    e.to_string()
}

/// Which algorithm a `sort` command runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// NEXSORT as published (Figure 4).
    Nexsort,
    /// NEXSORT with the Section 3.2 graceful-degeneration optimization.
    Degen,
    /// The key-path external merge-sort baseline.
    Mergesort,
}

/// Parsed command line.
#[derive(Debug)]
pub struct Cli {
    /// Subcommand: sort, merge, or update.
    pub command: Command,
    /// The sort knobs `xsort` shares with the daemon: output, block size,
    /// memory (`--mem` converted to frames), threshold, depth, pool,
    /// stripe, parity, pretty-printing, and the `client submit`
    /// job fields. `client submit` ships exactly this value.
    pub job: JobSpec,
    /// Device file for the simulated disk (in memory if absent).
    pub device: Option<PathBuf>,
    /// Algorithm (`--algo degen` also sets `job.degeneration`).
    pub algo: Algo,
    /// Print the sort report to stderr.
    pub stats: bool,
    /// Probability of a transient I/O error per transfer (fault injection).
    pub fault_rate: f64,
    /// Probability of bit corruption per transfer (fault injection).
    pub fault_flips: f64,
    /// Probability of a torn (partial) write (fault injection).
    pub fault_torn: f64,
    /// Seed of the deterministic fault-injection RNG.
    pub fault_seed: u64,
    /// Retries per transfer for transient faults (`None` = pick a default:
    /// 3 when faults are injected, otherwise 0).
    pub retries: Option<u32>,
    /// Maintain a write-ahead manifest journal so an interrupted sort can be
    /// resumed without redoing committed work.
    pub checkpoint: bool,
    /// After a simulated crash, thaw the device and resume from the journal
    /// instead of failing (needs `--checkpoint`).
    pub resume: bool,
    /// With `--crash-after-ios N`: pick the crash point seeded-randomly in
    /// `0..N` instead of exactly at `N`.
    pub crash_seed: Option<u64>,
    /// Scrub test hook: corrupt the IDX-th data block of the first
    /// parity-protected run instead of scrubbing.
    pub corrupt: Option<usize>,
    /// Per-tenant outstanding-lease cap for `serve` (0 = disabled).
    pub tenant_cap: usize,
    /// The ordering criterion `job.default_rule` and `job.keys` name.
    pub spec: SortSpec,
}

impl Cli {
    /// True when any fault-injection rate is nonzero.
    pub fn faults_enabled(&self) -> bool {
        self.fault_rate > 0.0 || self.fault_flips > 0.0 || self.fault_torn > 0.0
    }
}

/// The operation to perform.
#[derive(Debug)]
pub enum Command {
    /// Fully sort one document.
    Sort {
        /// Input document path.
        input: PathBuf,
    },
    /// Sort two documents and structurally merge them.
    Merge {
        /// Left document path.
        left: PathBuf,
        /// Right document path.
        right: PathBuf,
    },
    /// Sort a base document and an update batch, then apply the batch.
    Update {
        /// Base document path.
        base: PathBuf,
        /// Update batch path (elements may carry `op="delete|replace|merge"`).
        updates: PathBuf,
    },
    /// Verify a document is fully sorted under the criterion (exit 1 if not).
    Check {
        /// Document path.
        input: PathBuf,
    },
    /// ORDER BY ... LIMIT k: the first k records of the full sort, computed
    /// with run-level pruning so the I/O stays well below a full sort.
    TopK {
        /// Input document path.
        input: PathBuf,
    },
    /// Run an external priority-queue script (`push KEY` / `pop` / `peek`,
    /// one operation per line) against the run store.
    Pq {
        /// Script path.
        script: PathBuf,
    },
    /// Verify-and-repair every parity-protected run on a finished
    /// `--checkpoint` device file, then re-seal the repaired extents.
    Scrub {
        /// Device file of a completed `--checkpoint` sort.
        device: PathBuf,
    },
    /// Generate a synthetic test document.
    Gen {
        /// Generator: "exact:F1,F2,..." | "ibm:HEIGHT,MAXFAN[,MAXELEMS]" |
        /// "auction:SELLERS".
        shape: String,
        /// RNG seed.
        seed: u64,
    },
    /// Run the sort daemon: accept jobs over a socket until told to stop.
    Serve {
        /// Listen address: `unix:/path` or `host:port`.
        listen: String,
        /// Worker threads (concurrent jobs).
        workers: usize,
        /// Queue capacity before `submit` pushes back.
        queue: usize,
        /// Global memory budget in frames, shared across jobs.
        budget_frames: usize,
        /// Directory owning job inputs, manifests, and device files.
        job_dir: PathBuf,
        /// Read/write deadline per in-progress exchange, ms (0 = off).
        request_timeout_ms: u64,
        /// Idle deadline between requests on one connection, ms (0 = off).
        idle_timeout_ms: u64,
        /// Default deadline of a drain shutdown, ms.
        drain_timeout_ms: u64,
        /// Longest accepted request line, bytes.
        max_line_bytes: usize,
    },
    /// Talk to a running daemon.
    Client {
        /// Daemon address: `unix:/path` or `host:port`.
        connect: String,
        /// Verb: ping | submit | status | wait | fetch | cancel | list |
        /// stats | shutdown.
        verb: String,
        /// Verb arguments (a file for submit, a job id for the rest).
        args: Vec<String>,
        /// Timeout for `wait`, in milliseconds.
        timeout_ms: u64,
        /// Retry budget: extra attempts after the first request fails.
        retry: u32,
        /// Base backoff delay between retries, in milliseconds.
        retry_base_ms: u64,
        /// Seed of the deterministic retry jitter.
        retry_seed: u64,
        /// With `shutdown`: drain (finish running jobs) instead of stopping now.
        drain: bool,
    },
}

/// Usage text.
pub const USAGE: &str = "\
xsort -- sort, merge, and batch-update XML in external memory (NEXSORT, ICDE 2004)

USAGE:
  xsort sort   INPUT.xml           [OPTIONS]
  xsort merge  LEFT.xml RIGHT.xml  [OPTIONS]
  xsort update BASE.xml BATCH.xml  [OPTIONS]
  xsort check  INPUT.xml           [OPTIONS]      # is it fully sorted?
  xsort topk   INPUT.xml -k N      [OPTIONS]      # ORDER BY ... LIMIT k
  xsort pq     SCRIPT.txt          [OPTIONS]      # external priority queue
  xsort gen    SHAPE [--seed N]    [OPTIONS]      # synthetic documents
  xsort scrub  DEVICE.bin          [OPTIONS]      # repair parity-protected runs
  xsort serve                      [SERVER OPTS]  # run the sort daemon
  xsort client VERB [ARGS]         [OPTIONS]      # talk to a running daemon

OPTIONS:
  -o, --output FILE     write result here (default: stdout)
      --key TAG=RULE    per-tag ordering rule (repeatable)
      --default RULE    default rule (default: doc)
      --algo A          nexsort | degen | mergesort   (default: nexsort)
      --mem SIZE        internal memory, e.g. 4M      (default: 4M)
      --block SIZE      block size, 64 bytes to 1M    (default: 64K)
      --threshold SIZE  sort threshold t              (default: 2 blocks)
      --depth N         depth-limited sorting
      --device FILE     back the block device with FILE (default: in-memory)
      --pretty          indent the output
      --stats           print the I/O report to stderr

QUERY OPERATORS (`xsort topk` / `xsort pq`):
  -k, --limit N         topk: how many leading records of the full sort to
                        produce. Runs whose minimum key exceeds the running
                        k-th bound are pruned whole; logical I/O shrinks as
                        k does. Output is one line per record (`level kind
                        name key`) -- byte-identical to the first k records
                        of a full sort. Honors --checkpoint / --resume /
                        --crash-after-ios exactly like sort.
  `xsort pq SCRIPT` executes `push KEY` | `pop` | `peek` lines (# comments)
  against an external priority queue backed by sealed insertion runs, and
  prints one result line per pop/peek plus a final `len N`. Duplicate keys
  pop in FIFO order. --parity-group protects the sealed runs.

BUFFER POOL (a page cache between the sorter and the device):
      --cache-frames N  pool capacity in frames (default: 0 = no cache);
                        extra memory on top of --mem, so the logical I/O
                        counts stay comparable across cache sizes
      --cache-policy P  eviction policy: lru | clock    (default: lru)
      --write-back      coalesce repeated writes in the pool; the default
                        write-through keeps the device current on every write

STRIPING (sorted bytes and logical I/O counts never change):
      --stripe N        stripe the device round-robin over N backing devices
                        (default: 1; with --device FILE, uses FILE.0..FILE.N-1)

CRASH CONSISTENCY (a write-ahead manifest journal on the device):
      --checkpoint      journal run-store lifecycle events so an interrupted
                        sort can resume without redoing committed work
      --crash-after-ios N  simulate a whole-device crash N physical I/Os
                        into the sort (the frozen image is what recovery sees)
      --crash-seed S    with --crash-after-ios N: crash at a seeded-random
                        point in 0..N instead of exactly at N
      --resume          after a simulated crash, thaw the device and resume
                        from the journal (needs --checkpoint)

FAULT INJECTION (deterministic; the device checksums every block):
      --fault-rate P    transient I/O error probability per transfer (0..1)
      --fault-flips P   bit-corruption probability per transfer (0..1)
      --fault-torn P    torn (partial) write probability (0..1)
      --fault-seed N    fault-injection RNG seed        (default: 42)
      --retries N       retry transient faults up to N times per transfer
                        (default: 3 when faults are injected, else 0)

SELF-HEALING RUN STORAGE (XOR parity over sealed runs; nexsort/degen):
      --parity-group K  one parity block per K data blocks of every sealed
                        run (1 = mirror; default: 0 = no redundancy). A hard
                        media fault on a run block is repaired from parity,
                        relocated, and the bad block quarantined; the sort
                        completes bit-identically and reports itself degraded
      --corrupt IDX     (scrub only) corrupt the IDX-th data block of the
                        first protected run instead of scrubbing -- a test
                        hook for exercising the repair path end to end
  `xsort scrub DEVICE.bin --block SIZE` reopens the device file of a
  completed --checkpoint sort (same --block as the sort), verifies every
  protected data block against its sealed sum, repairs failures from parity,
  rewrites stale parity, and re-seals the repaired extents into the journal.

SORT DAEMON (`xsort serve` / `xsort client`, newline-delimited JSON):
      --listen ADDR     serve: listen address, unix:/path or host:port
                        (default: 127.0.0.1:7171)
      --connect ADDR    client: daemon address   (default: 127.0.0.1:7171)
      --workers N       serve: worker threads / concurrent jobs (default: 4)
      --queue N         serve: queued jobs before submit pushes back
                        (default: 16)
      --budget-frames N serve: global memory budget shared by all jobs,
                        in frames (default: 4096)
      --job-dir DIR     serve: durable job state -- inputs, manifests,
                        device files (default: ./xsort-jobs). Restarting a
                        daemon on the same --job-dir resumes every
                        unfinished job from its journal
      --tenant-cap N    serve: at most N outstanding frame leases per tenant
                        (0 = disabled); capped tenants step aside in the
                        FIFO queue so a greedy tenant cannot starve others
      --request-timeout-ms N  serve: per-exchange read/write deadline on a
                        connection, ms (default: 30000; 0 = no deadline)
      --idle-timeout-ms N  serve: reap a connection idle between requests
                        for N ms (default: 300000; 0 = no deadline)
      --drain-timeout-ms N  serve: default deadline of a drain shutdown
                        (default: 30000)
      --max-line-bytes N  serve: reject request lines longer than N bytes
                        with a structured error (default: 16777216)
      --timeout-ms N    client wait: give up after N ms (default: 60000);
                        also the deadline sent with `shutdown --drain`
      --op OP           client submit: job kind, sort | topk | pq
                        (default: sort; topk needs -k N; pq ships a script)
      --tenant NAME     client submit: tag the job for per-tenant fairness
      --retry N         client: retry a failed request up to N extra times
                        with seeded exponential backoff (default: 0)
      --retry-base-ms N client: base backoff delay, doubling per retry and
                        jittered deterministically (default: 50)
      --retry-seed N    client: retry-jitter seed (default: 42)
      --idem TOKEN      client submit: idempotency token; a retried submit
                        that lost only the ACK adopts the existing job
                        instead of creating a duplicate (--retry generates
                        one automatically when absent)
  Client verbs: ping | submit FILE | status ID | wait ID | fetch ID |
                cancel ID | list | stats | shutdown [--drain].
  `client shutdown --drain` puts the daemon in lame-duck mode: new submits
  are refused as busy, running jobs finish within the drain deadline, and
  the daemon exits; a restart on the same --job-dir redoes no committed work.
  `client submit` forwards exactly the sort flags above (--default, --key,
  --block, --mem, --cache-frames, --stripe, --parity-group, ...) as the job
  spec and ships FILE inline, as text: a FILE that is not UTF-8 is refused;
  `client fetch` streams the output in bounded
  chunks (the `fetch_chunk` protocol verb) and writes it to -o or stdout.

EXIT CODES:
  0  success
  1  failure outside I/O (malformed input, memory budget, internal error)
  2  command-line usage error
  3  transient I/O fault survived the retry budget; a clean re-run may pass
  4  persistent media fault beyond redundancy; the same device will fail again
  5  the source document itself is unreadable; nothing on disk can heal it

RULE syntax: '@attr', '@attr:num', '@attr:desc', 'tag', 'text',
             'path=a/b/c', 'doc', composites with '+': '@last+@first'.

GEN shapes:  'exact:F1,F2,...' (per-level fan-outs), 'ibm:H,K[,N]'
             (height, max fan-out, optional element budget),
             'auction:SELLERS'.

EXAMPLES:
  xsort sort personnel.xml --default @name --key employee=@ID:num -o sorted.xml
  xsort merge personnel.xml payroll.xml --default @name --key employee=@ID:num
  xsort update master.xml batch.xml --default @sku:num --stats
";

/// Parse `args` (without the leading program name).
pub fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    let sub = it.next().ok_or_else(|| "missing subcommand".to_string())?;
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut job = JobSpec { block_size: 64 * 1024, ..JobSpec::default() };
    let mut mem_bytes = 4 * 1024 * 1024;
    let mut op_given = false;
    let mut device = None;
    let mut algo = Algo::Nexsort;
    let mut stats = false;
    let mut seed = 42u64;
    let mut fault_rate = 0.0f64;
    let mut fault_flips = 0.0f64;
    let mut fault_torn = 0.0f64;
    let mut fault_seed = 42u64;
    let mut retries: Option<u32> = None;
    let mut checkpoint = false;
    let mut resume = false;
    let mut crash_seed: Option<u64> = None;
    let mut corrupt: Option<usize> = None;
    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut workers = 4usize;
    let mut queue = 16usize;
    let mut budget_frames = 4096usize;
    let mut job_dir: Option<PathBuf> = None;
    let mut timeout_ms = 60_000u64;
    let mut tenant_cap = 0usize;
    let mut request_timeout_ms = 30_000u64;
    let mut idle_timeout_ms = 300_000u64;
    let mut drain_timeout_ms = 30_000u64;
    let mut max_line_bytes = 16usize << 20;
    let mut retry = 0u32;
    let mut retry_base_ms = 50u64;
    let mut retry_seed = 42u64;
    let mut drain = false;

    let next_value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                      flag: &str|
     -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let parse_rate = |s: String, flag: &str| -> Result<f64, String> {
        let v: f64 = s.parse().map_err(|_| format!("{flag} needs a probability"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{flag} must be within 0..=1, got {v}"));
        }
        Ok(v)
    };

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" | "--output" => job.output = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--device" => device = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--block" => {
                job.block_size = usize::try_from(parse_size(&next_value(&mut it, arg)?)?)
                    .map_err(|_| "--block is too large".to_string())?
            }
            "--mem" => mem_bytes = parse_size(&next_value(&mut it, arg)?)?,
            "--threshold" => job.threshold = Some(parse_size(&next_value(&mut it, arg)?)?),
            "--depth" => {
                job.depth_limit = Some(
                    next_value(&mut it, arg)?
                        .parse::<u32>()
                        .map_err(|_| "--depth needs a positive integer".to_string())?,
                )
            }
            "--algo" => {
                algo = match next_value(&mut it, arg)?.as_str() {
                    "nexsort" => Algo::Nexsort,
                    "degen" => Algo::Degen,
                    "mergesort" => Algo::Mergesort,
                    other => return Err(format!("unknown algorithm {other:?}")),
                };
                job.degeneration = algo == Algo::Degen;
            }
            "--seed" => {
                seed = next_value(&mut it, arg)?
                    .parse::<u64>()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--default" => job.default_rule = Some(next_value(&mut it, arg)?),
            "--key" => job.keys.push(next_value(&mut it, arg)?),
            "--fault-rate" => fault_rate = parse_rate(next_value(&mut it, arg)?, arg)?,
            "--fault-flips" => fault_flips = parse_rate(next_value(&mut it, arg)?, arg)?,
            "--fault-torn" => fault_torn = parse_rate(next_value(&mut it, arg)?, arg)?,
            "--fault-seed" => {
                fault_seed = next_value(&mut it, arg)?
                    .parse::<u64>()
                    .map_err(|_| "--fault-seed needs an integer".to_string())?
            }
            "--retries" => {
                retries = Some(
                    next_value(&mut it, arg)?
                        .parse::<u32>()
                        .map_err(|_| "--retries needs a nonnegative integer".to_string())?,
                )
            }
            "--cache-frames" => {
                job.cache_frames = next_value(&mut it, arg)?
                    .parse::<usize>()
                    .map_err(|_| "--cache-frames needs a nonnegative integer".to_string())?
            }
            "--cache-policy" => job.cache_policy = next_value(&mut it, arg)?.parse()?,
            "--write-back" => job.write_back = true,
            "--stripe" => {
                job.stripe = next_value(&mut it, arg)?
                    .parse::<usize>()
                    .map_err(|_| "--stripe needs a positive integer".to_string())?;
                if job.stripe == 0 {
                    return Err("--stripe must be at least 1".into());
                }
            }
            "--checkpoint" => checkpoint = true,
            "--resume" => resume = true,
            "--parity-group" => {
                job.parity_group = next_value(&mut it, arg)?
                    .parse::<usize>()
                    .map_err(|_| "--parity-group needs a nonnegative integer".to_string())?
            }
            "--corrupt" => {
                corrupt = Some(
                    next_value(&mut it, arg)?
                        .parse::<usize>()
                        .map_err(|_| "--corrupt needs a nonnegative block index".to_string())?,
                )
            }
            "--crash-after-ios" => {
                job.crash_after_ios = Some(
                    next_value(&mut it, arg)?
                        .parse::<u64>()
                        .map_err(|_| "--crash-after-ios needs a nonnegative integer".to_string())?,
                )
            }
            "--crash-seed" => {
                crash_seed = Some(
                    next_value(&mut it, arg)?
                        .parse::<u64>()
                        .map_err(|_| "--crash-seed needs an integer".to_string())?,
                )
            }
            "--listen" => listen = Some(next_value(&mut it, arg)?),
            "--connect" => connect = Some(next_value(&mut it, arg)?),
            "--workers" => {
                workers = next_value(&mut it, arg)?
                    .parse::<usize>()
                    .map_err(|_| "--workers needs a positive integer".to_string())?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--queue" => {
                queue = next_value(&mut it, arg)?
                    .parse::<usize>()
                    .map_err(|_| "--queue needs a positive integer".to_string())?;
                if queue == 0 {
                    return Err("--queue must be at least 1".into());
                }
            }
            "--budget-frames" => {
                budget_frames = next_value(&mut it, arg)?
                    .parse::<usize>()
                    .map_err(|_| "--budget-frames needs a positive integer".to_string())?
            }
            "--job-dir" => job_dir = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "-k" | "--limit" => {
                job.k = next_value(&mut it, arg)?
                    .parse::<u64>()
                    .map_err(|_| "-k/--limit needs a positive integer".to_string())?;
                if job.k == 0 {
                    return Err("-k/--limit must be at least 1".into());
                }
            }
            "--tenant" => job.tenant = Some(next_value(&mut it, arg)?),
            "--tenant-cap" => {
                tenant_cap = next_value(&mut it, arg)?
                    .parse::<usize>()
                    .map_err(|_| "--tenant-cap needs a nonnegative integer".to_string())?
            }
            "--op" => {
                let op = next_value(&mut it, arg)?;
                job.op = JobOp::from_name(&op)
                    .map_err(|_| format!("--op must be sort, topk, or pq, got {op:?}"))?;
                op_given = true;
            }
            "--timeout-ms" => {
                timeout_ms = next_value(&mut it, arg)?
                    .parse::<u64>()
                    .map_err(|_| "--timeout-ms needs a nonnegative integer".to_string())?
            }
            "--request-timeout-ms" => {
                request_timeout_ms = next_value(&mut it, arg)?
                    .parse::<u64>()
                    .map_err(|_| "--request-timeout-ms needs a nonnegative integer".to_string())?
            }
            "--idle-timeout-ms" => {
                idle_timeout_ms = next_value(&mut it, arg)?
                    .parse::<u64>()
                    .map_err(|_| "--idle-timeout-ms needs a nonnegative integer".to_string())?
            }
            "--drain-timeout-ms" => {
                drain_timeout_ms = next_value(&mut it, arg)?
                    .parse::<u64>()
                    .map_err(|_| "--drain-timeout-ms needs a nonnegative integer".to_string())?
            }
            "--max-line-bytes" => {
                max_line_bytes = next_value(&mut it, arg)?
                    .parse::<usize>()
                    .map_err(|_| "--max-line-bytes needs a positive integer".to_string())?;
                if max_line_bytes == 0 {
                    return Err("--max-line-bytes must be at least 1".into());
                }
            }
            "--retry" => {
                retry = next_value(&mut it, arg)?
                    .parse::<u32>()
                    .map_err(|_| "--retry needs a nonnegative integer".to_string())?
            }
            "--retry-base-ms" => {
                retry_base_ms = next_value(&mut it, arg)?
                    .parse::<u64>()
                    .map_err(|_| "--retry-base-ms needs a nonnegative integer".to_string())?
            }
            "--retry-seed" => {
                retry_seed = next_value(&mut it, arg)?
                    .parse::<u64>()
                    .map_err(|_| "--retry-seed needs an integer".to_string())?
            }
            "--idem" => job.idem = Some(next_value(&mut it, arg)?),
            "--drain" => drain = true,
            "--pretty" => job.pretty = true,
            "--stats" => stats = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => positional.push(PathBuf::from(other)),
        }
    }

    let command = match (sub.as_str(), positional.len()) {
        ("sort", 1) => Command::Sort { input: positional.remove(0) },
        ("check", 1) => Command::Check { input: positional.remove(0) },
        ("topk", 1) => Command::TopK { input: positional.remove(0) },
        ("pq", 1) => Command::Pq { script: positional.remove(0) },
        ("scrub", 1) => Command::Scrub { device: positional.remove(0) },
        ("gen", 1) => {
            Command::Gen { shape: positional.remove(0).to_string_lossy().into_owned(), seed }
        }
        ("merge", 2) => {
            let right = positional.pop().expect("len 2");
            let left = positional.pop().expect("len 1");
            Command::Merge { left, right }
        }
        ("update", 2) => {
            let updates = positional.pop().expect("len 2");
            let base = positional.pop().expect("len 1");
            Command::Update { base, updates }
        }
        ("serve", 0) => Command::Serve {
            listen: listen.or(connect).unwrap_or_else(|| "127.0.0.1:7171".into()),
            workers,
            queue,
            budget_frames,
            job_dir: job_dir.unwrap_or_else(|| PathBuf::from("xsort-jobs")),
            request_timeout_ms,
            idle_timeout_ms,
            drain_timeout_ms,
            max_line_bytes,
        },
        ("client", n) if n >= 1 => {
            let mut words = positional.drain(..).map(|p| p.to_string_lossy().into_owned());
            Command::Client {
                connect: connect.or(listen).unwrap_or_else(|| "127.0.0.1:7171".into()),
                verb: words.next().expect("n >= 1"),
                args: words.collect(),
                timeout_ms,
                retry,
                retry_base_ms,
                retry_seed,
                drain,
            }
        }
        ("serve", n) => return Err(format!("serve takes no positional arguments, got {n}")),
        ("client", _) => return Err("client needs a verb (ping | submit | status | ...)".into()),
        ("sort" | "check" | "gen" | "scrub" | "topk" | "pq", n) => {
            return Err(format!("{sub} expects 1 argument, got {n}"))
        }
        ("merge" | "update", n) => return Err(format!("{sub} expects 2 input files, got {n}")),
        (other, _) => return Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };

    if crash_seed.is_some() && job.crash_after_ios.is_none() {
        return Err("--crash-seed needs --crash-after-ios N as the crash-point range".into());
    }
    if resume && !checkpoint {
        return Err("--resume needs --checkpoint (nothing is journalled without it)".into());
    }
    if resume && algo == Algo::Mergesort {
        return Err("--resume applies to nexsort/degen (the baseline is not journalled)".into());
    }
    if corrupt.is_some() && !matches!(command, Command::Scrub { .. }) {
        return Err("--corrupt is a scrub-only test hook".into());
    }
    if job.parity_group > 0 && algo == Algo::Mergesort {
        return Err(
            "--parity-group applies to nexsort/degen (the baseline is measured bare)".into()
        );
    }
    if matches!(command, Command::TopK { .. }) && job.k == 0 {
        return Err("topk needs -k N (how many leading records to produce)".into());
    }
    if op_given && !matches!(command, Command::Client { .. }) {
        return Err("--op applies to client submit".into());
    }
    if job.tenant.is_some() && !matches!(command, Command::Client { .. }) {
        return Err("--tenant applies to client submit".into());
    }
    if tenant_cap > 0 && !matches!(command, Command::Serve { .. }) {
        return Err("--tenant-cap applies to serve".into());
    }
    if (retry > 0 || job.idem.is_some() || drain) && !matches!(command, Command::Client { .. }) {
        return Err("--retry/--idem/--drain apply to client".into());
    }
    if drain && !matches!(&command, Command::Client { verb, .. } if verb == "shutdown") {
        return Err("--drain applies to client shutdown".into());
    }
    if job.k > 0 && !matches!(command, Command::TopK { .. } | Command::Client { .. }) {
        return Err("-k/--limit applies to topk (or client submit --op topk)".into());
    }
    let spec = job.validate()?;
    // The unit conversion happens once, here: every consumer reads frames.
    job.mem_frames = (mem_bytes / job.block_size as u64)
        .max(NexsortOptions::MIN_MEM_FRAMES as u64)
        .try_into()
        .map_err(|_| "--mem is too large".to_string())?;
    Ok(Cli {
        command,
        job,
        device,
        algo,
        stats,
        fault_rate,
        fault_flips,
        fault_torn,
        fault_seed,
        retries,
        checkpoint,
        resume,
        crash_seed,
        corrupt,
        tenant_cap,
        spec,
    })
}

/// A failed command plus the process exit code its failure category maps to
/// (see the EXIT CODES section of [`USAGE`]). Plain-`String` errors convert
/// to the generic code 1.
#[derive(Debug)]
pub struct CliError {
    /// Process exit code: 1 generic, 3 transient, 4 persistent media
    /// fault, 5 lost source (2 is reserved for argument parsing).
    pub code: u8,
    /// Human-readable message.
    pub message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::from(message.to_string())
    }
}

impl From<&SortFailure> for CliError {
    fn from(f: &SortFailure) -> Self {
        CliError { code: exit_code(f.category()), message: f.to_string() }
    }
}

/// The exit code a [`FailureCategory`] maps to.
fn exit_code(cat: FailureCategory) -> u8 {
    match cat {
        FailureCategory::Other => 1,
        FailureCategory::Transient => 3,
        FailureCategory::Persistent => 4,
        FailureCategory::Source => 5,
    }
}

/// The crash point (in sort I/Os) requested on the command line: exactly
/// `--crash-after-ios N`, or a seed-scrambled point in `0..N` when
/// `--crash-seed` is also given.
fn crash_offset(cli: &Cli) -> Option<u64> {
    let max = cli.job.crash_after_ios?;
    Some(match cli.crash_seed {
        None => max,
        Some(seed) => {
            // SplitMix-style scramble: deterministic per seed, in 0..N.
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % max.max(1)
        }
    })
}

/// The `i`-th backing file of a striped `--device FILE`: `FILE.i` (the
/// builder's scheme; tests use this to inspect the created stripe set).
#[cfg(test)]
fn stripe_path(path: &Path, i: usize) -> PathBuf {
    DiskBuilder::stripe_path(path, i)
}

/// A configured device stack: the disk, its per-device fault injectors, and
/// the crash controller when `--crash-after-ios` is in play.
type DiskSetup = (Rc<Disk>, Vec<FaultInjector>, Option<CrashController>);

/// Map the parsed command line onto a [`DiskBuilder`]: the job's own stack
/// ([`JobSpec::disk_builder`], exactly what the daemon builds for the same
/// flags) plus the CLI-only layers -- device file, fault injection,
/// retries, and crash injection.
pub fn disk_spec(cli: &Cli) -> Result<DiskBuilder, String> {
    // The crash layer is created *disarmed*: `--crash-after-ios` counts I/Os
    // of the sort itself (armed in `sort_one`), not the input staging.
    let want_crash = cli.job.crash_after_ios.is_some();
    if want_crash && cli.faults_enabled() {
        return Err("--crash-after-ios cannot be combined with fault injection".into());
    }
    if cli.faults_enabled() && cli.job.stripe > 1 && cli.device.is_some() {
        return Err("--stripe with fault injection uses the in-memory device; drop --device".into());
    }
    let mut b = cli.job.disk_builder();
    if let Some(path) = &cli.device {
        b = b.file(path);
    }
    if want_crash {
        b = b.crash(CrashPlan::Disarmed);
    }
    if cli.faults_enabled() {
        // One base plan; the builder reseeds it per stripe device.
        b = b.faults(
            FaultPlan::new(cli.fault_seed)
                .with_read_error_rate(cli.fault_rate)
                .with_write_error_rate(cli.fault_rate)
                .with_read_flip_rate(cli.fault_flips)
                .with_write_flip_rate(cli.fault_flips)
                .with_torn_write_rate(cli.fault_torn),
        );
    }
    // Retries default to 3 under fault injection (transient faults are the
    // point), and to none otherwise.
    let retries = cli.retries.unwrap_or(if cli.faults_enabled() { 3 } else { 0 });
    if retries > 0 {
        b = b.retry(RetryPolicy::retries(retries));
    }
    Ok(b)
}

fn make_disk(cli: &Cli) -> Result<DiskSetup, String> {
    let stack = disk_spec(cli)?.build().map_err(|e| e.to_string())?;
    Ok((stack.disk, stack.injectors, stack.crash))
}

/// `xsort check`'s test, one encoded record at a time: the children of
/// every element must come in ascending key order. It keeps the last
/// sibling key per level, as bytes in a reused buffer, and the levels of
/// open elements whose key is deferred (text or child-path rules); a
/// deferred key is compared when its `KeyPatch` arrives, or as `Missing`
/// when its element closes without one. Keys are compared encoded
/// (`cmp_encoded_keys`) and decoded only to report a failure. Memory is
/// O(height), whatever the document's size.
struct SiblingCheck<'a> {
    spec: &'a SortSpec,
    depth_limit: Option<u32>,
    /// `last[l]` holds the last key seen at level `l + 1`, when `seen[l]`.
    last: Vec<Vec<u8>>,
    seen: Vec<bool>,
    deferred: Vec<u32>,
    records: u64,
}

/// The encoded `Missing` key.
const MISSING_KEY: &[u8] = &[0];

impl<'a> SiblingCheck<'a> {
    fn new(spec: &'a SortSpec, depth_limit: Option<u32>) -> Self {
        Self {
            spec,
            depth_limit,
            last: Vec::new(),
            seen: Vec::new(),
            deferred: Vec::new(),
            records: 0,
        }
    }

    /// Stream the XML text of `path`, a file or a pipe, through one
    /// [`IoSource`] window and check its records as they are built.
    fn scan_xml(&mut self, path: &Path) -> Result<(), CliError> {
        let cannot_read = |e: std::io::Error| format!("cannot read {path:?}: {e}");
        let file = File::open(path).map_err(cannot_read)?;
        let mut parser = nexsort_xml::XmlParser::new(IoSource::new(file));
        let mut builder = nexsort_xml::RecBuilder::new(self.spec.clone(), true);
        let mut dict = nexsort_xml::TagDict::new();
        let mut buf = Vec::new();
        // The only raw I/O errors here are the input's own.
        let parse_err = |e| match e {
            nexsort_xml::XmlError::Ext(ExtError::Io(e)) => cannot_read(e),
            e => e.to_string(),
        };
        while let Some(ev) = parser.next_ref().map_err(parse_err)? {
            buf.clear();
            if builder.push(&ev, &mut dict, &mut buf).map_err(xml_err)?.is_some() {
                self.push(&buf, &dict)?;
            }
        }
        Ok(())
    }

    /// Check one encoded record.
    fn push(&mut self, rec: &[u8], dict: &nexsort_xml::TagDict) -> Result<(), CliError> {
        let head = RecHead::parse(rec).map_err(xml_err)?;
        let level = head.level;
        let patch = head.kind == RecKind::KeyPatch;
        // The record closes every open element deeper than its parent; a
        // patch belongs to the element at its own level.
        let parent = if patch { level } else { level.saturating_sub(1) };
        while let Some(&open) = self.deferred.last().filter(|&&l| l > parent) {
            self.deferred.pop();
            self.compare(open, MISSING_KEY)?;
        }
        if patch {
            if self.deferred.pop() != Some(level) {
                return Err(format!("key patch at level {level} has no open element").into());
            }
            return self.compare(level, head.key_of(rec));
        }
        self.records += 1;
        self.seen.truncate(level as usize);
        let deferred = match RecRef::read(rec).map_err(xml_err)? {
            RecRef::Elem { name, .. } => {
                self.spec.rule_for(name.resolve(dict).map_err(xml_err)?).source.is_deferred()
            }
            _ => false,
        };
        if deferred {
            self.deferred.push(level);
            return Ok(());
        }
        self.compare(level, head.key_of(rec))
    }

    /// Compare `key` with the last sibling key at `level`, then record it.
    fn compare(&mut self, level: u32, key: &[u8]) -> Result<(), CliError> {
        let at = level as usize;
        if self.seen.len() < at {
            self.seen.resize(at, false);
        }
        if self.last.len() < at {
            self.last.resize(at, Vec::new());
        }
        let within = sorts_children_of(self.depth_limit, level - 1);
        let prev = &self.last[at - 1];
        if within && self.seen[at - 1] && cmp_encoded_keys(prev, key).is_gt() {
            let decode = |k: &[u8]| {
                KeyValue::decode(&mut nexsort_extmem::SliceReader::new(k)).map_err(xml_err)
            };
            let (key, prev) = (decode(key)?, decode(prev)?);
            return Err(format!("NOT SORTED: level {level} key {key} appears after {prev}").into());
        }
        self.last[at - 1].clear();
        self.last[at - 1].extend_from_slice(key);
        self.seen[at - 1] = true;
        Ok(())
    }

    /// Settle the keys still deferred at the end; the record count.
    fn finish(mut self) -> Result<u64, CliError> {
        while let Some(open) = self.deferred.pop() {
            self.compare(open, MISSING_KEY)?;
        }
        Ok(self.records)
    }
}

/// Stream a document's XML text onto the device through `stage_reader`.
fn load(disk: &Rc<Disk>, path: &Path) -> Result<Extent, String> {
    let file = File::open(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    // A path that opens but cannot be read (a directory) fails here.
    stage_reader(disk, file).map_err(|e| format!("cannot stage {path:?}: {e}"))
}

fn sort_one(
    cli: &Cli,
    disk: &Rc<Disk>,
    input: &Extent,
    crash: Option<&CrashController>,
) -> Result<SortedDoc, CliError> {
    let opts = cli.job.nexsort_options(cli.checkpoint);
    let sorter = Nexsort::new(disk.clone(), opts, cli.spec.clone()).map_err(|e| e.to_string())?;
    if let (Some(ctl), Some(offset)) = (crash, crash_offset(cli)) {
        // Counted from here, so staging I/O doesn't shift the crash point.
        ctl.arm_after(ctl.ios() + offset);
    }
    // The try_* variants classify unrecoverable faults into a structured
    // SortFailure naming the phase, failing transfer, and I/O spent.
    let doc = match sorter.try_sort_xml_extent(input) {
        Ok(doc) => doc,
        Err(f)
            if cli.resume
                && matches!(
                    f.error,
                    nexsort_xml::XmlError::Ext(ExtError::SimulatedCrash { .. })
                )
                && crash.is_some_and(|c| c.crashed()) =>
        {
            // The simulated crash fired mid-sort: thaw the frozen image (the
            // in-process stand-in for a restart) and resume from the journal.
            let ctl = crash.expect("guard checked");
            ctl.thaw();
            eprintln!(
                "xsort: simulated crash after {} physical I/Os; resuming from the journal",
                ctl.ios()
            );
            sorter.try_resume_xml_extent(input).map_err(|f| CliError {
                code: exit_code(f.category()),
                message: format!("resume failed: {f}"),
            })?
        }
        Err(f) => return Err(CliError::from(&*f)),
    };
    if let Some(ctl) = crash {
        // The sort outlived the armed point (or was resumed): disarm so the
        // output phase and any later sorts start from a live device.
        ctl.thaw();
    }
    if cli.stats {
        eprintln!("sort: {}", doc.report.summary());
        eprintln!("{}", doc.report.io);
        print_stack_stats(disk);
        let retried = doc.report.io.total_retries();
        if retried > 0 {
            eprintln!("sort: {retried} transfer(s) healed by retry");
        }
        if doc.report.degraded {
            eprintln!(
                "sort: degraded completion; device health: {} block(s) quarantined",
                disk.health().num_quarantined()
            );
        }
    }
    Ok(doc)
}

/// Run the top-k operator over a staged XML extent, with the same
/// crash/resume choreography as [`sort_one`].
fn topk_one(
    cli: &Cli,
    disk: &Rc<Disk>,
    input: &Extent,
    crash: Option<&CrashController>,
) -> Result<nexsort_query::TopKDoc, CliError> {
    let opts = cli.job.nexsort_options(cli.checkpoint);
    let topk = nexsort_query::TopK::new(disk.clone(), opts, cli.spec.clone(), cli.job.k)
        .map_err(|e| e.to_string())?;
    if let (Some(ctl), Some(offset)) = (crash, crash_offset(cli)) {
        ctl.arm_after(ctl.ios() + offset);
    }
    let doc = match topk.topk_xml_extent(input) {
        Ok(doc) => doc,
        Err(nexsort_xml::XmlError::Ext(ExtError::SimulatedCrash { .. }))
            if cli.resume && crash.is_some_and(|c| c.crashed()) =>
        {
            let ctl = crash.expect("guard checked");
            ctl.thaw();
            eprintln!(
                "xsort: simulated crash after {} physical I/Os; resuming top-k from the journal",
                ctl.ios()
            );
            topk.resume_xml_extent(input)
                .map_err(|e| CliError { code: 1, message: format!("resume failed: {e}") })?
        }
        Err(e) => return Err(CliError { code: 1, message: e.to_string() }),
    };
    if let Some(ctl) = crash {
        ctl.thaw();
    }
    if cli.stats {
        eprintln!("topk: {}", doc.report.summary());
        eprintln!("{}", doc.report.sort.io);
    }
    Ok(doc)
}

/// The `cache:` line of `--stats`, when the stack has a pool.
fn print_stack_stats(disk: &Disk) {
    if let (Some(policy), Some(mode)) = (disk.cache_policy_name(), disk.cache_mode()) {
        eprintln!("cache: {} frames, {policy}, {mode}", disk.cache_capacity().unwrap_or(0));
    }
}

/// Stream a command's output: `body` writes through a [`STREAM_BUF`]
/// buffer to locked stdout, or for `-o PATH` to a [`PartFile`] that becomes
/// `PATH` only once `body` succeeds, so a failed command never leaves a
/// truncated file there. An existing `PATH` that is not a regular file
/// (`/dev/null`, a FIFO) is written in place.
fn emit_with(
    cli: &Cli,
    body: impl FnOnce(&mut dyn ByteSink) -> Result<(), CliError>,
) -> Result<(), CliError> {
    fn buffered<W: Write>(
        w: W,
        name: &str,
        body: impl FnOnce(&mut dyn ByteSink) -> Result<(), CliError>,
    ) -> Result<(), CliError> {
        let mut out = IoSink(BufWriter::with_capacity(STREAM_BUF, w));
        body(&mut out)?;
        out.0.flush().map_err(|e| format!("cannot write {name}: {e}").into())
    }
    let Some(path) = &cli.job.output else {
        return buffered(std::io::stdout().lock(), "stdout", body);
    };
    let cannot_write = |e: ExtError| CliError::from(format!("cannot write {path:?}: {e}"));
    if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
        let file = File::create(path).map_err(|e| cannot_write(e.into()))?;
        return buffered(file, &format!("{path:?}"), body);
    }
    let mut out = PartFile::create(path).map_err(cannot_write)?;
    body(&mut out)?;
    out.commit().map_err(cannot_write)
}

/// Emit a sorted document as `write` formats it. A transfer of the sort's
/// own device that fails while formatting is classified like one that fails
/// during the sort ([`SortFailure`], counted from `before`); a failure of
/// the output sink itself keeps its plain message.
fn emit_sorted(
    cli: &Cli,
    disk: &Disk,
    before: &IoSnapshot,
    write: impl FnOnce(&mut dyn ByteSink) -> nexsort_xml::Result<()>,
) -> Result<(), CliError> {
    /// The output sink, noting whether a write to it failed.
    struct Watched<'a> {
        out: &'a mut dyn ByteSink,
        failed: bool,
    }
    impl ByteSink for Watched<'_> {
        fn write_all(&mut self, buf: &[u8]) -> nexsort_extmem::Result<()> {
            let done = self.out.write_all(buf);
            self.failed |= done.is_err();
            done
        }
    }
    emit_with(cli, |out| {
        let mut sink = Watched { out, failed: false };
        write(&mut sink).map_err(|e| {
            if sink.failed {
                CliError::from(xml_err(e))
            } else {
                CliError::from(&SortFailure::classify(disk, e, before))
            }
        })
    })
}

/// Emit output already held in memory (listings).
fn emit(cli: &Cli, bytes: &[u8]) -> Result<(), CliError> {
    emit_with(cli, |out| out.write_all(bytes).map_err(|e| e.to_string().into()))
}

/// Execute a parsed command line. Convenience wrapper over [`run_code`]
/// that drops the exit-code classification.
pub fn run(cli: &Cli) -> Result<(), String> {
    run_code(cli).map_err(|e| e.message)
}

/// Open the device file of a finished `--checkpoint` sort, replay its
/// journal, and scrub every parity-protected run -- or, with `--corrupt
/// IDX`, damage a data block instead (the test hook the repair path is
/// exercised with end to end). Repaired extents are re-sealed into the
/// journal, so the healed layout is what the next invocation sees.
pub fn scrub_device(cli: &Cli, path: &Path) -> Result<ScrubReport, CliError> {
    let disk = Disk::open_file(path, cli.job.block_size)
        .map_err(|e| format!("cannot open device file {path:?}: {e}"))?;
    let recovered = recover(&disk, &[]).map_err(|e| format!("journal replay: {e}"))?;
    let Some((mut journal, state)) = recovered else {
        return Err(
            format!("no journal on {path:?}: scrub needs a --checkpoint device file").into()
        );
    };
    if let Some(idx) = cli.corrupt {
        // Test hook: damage the idx-th data block of the first protected
        // run. The write goes through the normal checksum layer, so only
        // the sealed per-block sums (journalled with the run) can convict
        // it -- exactly the silent-corruption case scrub exists for.
        let (token, ext, _) = state
            .runs
            .iter()
            .find(|(_, ext, par)| par.is_some() && ext.num_blocks() > idx)
            .ok_or_else(|| format!("no parity-protected run with more than {idx} block(s)"))?;
        let block = ext.blocks()[idx];
        let junk = vec![0xA5u8; disk.block_size()];
        disk.write_block(block, &junk, IoCat::Parity).map_err(|e| e.to_string())?;
        println!("scrub: corrupted run {token} data block {idx} (device block {block})");
        return Ok(ScrubReport::default());
    }
    let store = RunStore::restore(disk.clone(), state.runs.clone());
    let report =
        store.scrub().map_err(|e| CliError { code: 4, message: format!("scrub failed: {e}") })?;
    // Re-seal the healed layout: repairs relocate data blocks and rewrite
    // parity, and only a journal record makes that durable. The snapshot
    // goes through `reset` (in-place compaction) rather than an append --
    // repeated maintenance passes must not grow the fixed journal extent
    // until it overflows.
    let mut records = vec![JournalRecord::SortStarted { input_len: state.input_len }];
    for &(token, _, _) in &state.runs {
        records.push(store.seal_record(RunId(token)).map_err(|e| e.to_string())?);
    }
    if let Some((root, root_flat)) = state.sort_done {
        records.push(JournalRecord::SortDone { root, root_flat, stats: state.stats });
    } else if let Some(pending) = state.pending.clone() {
        records.push(JournalRecord::ScanDone { pending, stats: state.stats });
    }
    journal.reset(&records).map_err(|e| format!("re-seal: {e}"))?;
    println!("scrub: {report}");
    let quarantined = disk.health().num_quarantined();
    if quarantined > 0 {
        println!("scrub: {quarantined} block(s) quarantined this pass");
    }
    if report.unrecoverable > 0 {
        return Err(CliError {
            code: 4,
            message: format!(
                "scrub: {} block(s) unrecoverable; re-derive them from the source",
                report.unrecoverable
            ),
        });
    }
    Ok(report)
}

/// Boot (or re-open) the daemon over its job directory and serve until a
/// client asks it to shut down. Re-opening an existing `--job-dir` adopts
/// and resumes every unfinished job -- that is the whole restart story.
fn run_serve(
    listen: &str,
    workers: usize,
    queue: usize,
    budget_frames: usize,
    tenant_cap: usize,
    job_dir: &Path,
    serve_opts: nexsort_server::ServeOptions,
) -> Result<(), String> {
    let mut cfg = nexsort_server::ServerConfig::new(workers, job_dir);
    cfg.queue_depth = queue;
    cfg.budget_frames = budget_frames;
    cfg.tenant_cap = tenant_cap;
    let server = nexsort_server::Server::open(cfg)?;
    eprintln!(
        "xsort serve: listening on {listen}; {workers} worker(s), queue {queue}, \
         budget {budget_frames} frames, jobs in {}",
        job_dir.display()
    );
    nexsort_server::serve_with(server, listen, serve_opts)
}

/// One client exchange: build the request for `verb`, send it through the
/// retrying client, and print the response. A `busy` rejection maps to
/// exit code 3 (transient: a retry may pass), any other failure to 1.
fn run_client(cli: &Cli) -> Result<(), CliError> {
    use nexsort_server::json::{n, obj, s, Value};
    let Command::Client {
        connect,
        verb,
        args,
        timeout_ms,
        retry,
        retry_base_ms,
        retry_seed,
        drain,
    } = &cli.command
    else {
        unreachable!("run_client dispatched on a non-client command")
    };
    let (timeout_ms, drain) = (*timeout_ms, *drain);
    let copts = if *retry == 0 {
        nexsort_server::ClientOptions::default()
    } else {
        nexsort_server::ClientOptions::retries(*retry, *retry_base_ms, *retry_seed)
    };
    let job_id = |args: &[String]| -> Result<u64, String> {
        args.first()
            .ok_or_else(|| format!("client {verb} needs a job id"))?
            .parse::<u64>()
            .map_err(|_| format!("client {verb} needs a numeric job id"))
    };
    if verb == "fetch" {
        // Stream the output in bounded chunks (the fetch_chunk protocol
        // verb): arbitrarily large results never need one giant response.
        let output = nexsort_server::request_fetch_chunked(connect, job_id(args)?, 64 * 1024)
            .map_err(CliError::from)?;
        match &cli.job.output {
            Some(path) => {
                std::fs::write(path, &output).map_err(|e| format!("cannot write {path:?}: {e}"))?
            }
            None => print!("{output}"),
        }
        return Ok(());
    }
    let req = match verb.as_str() {
        "shutdown" if drain => {
            obj(vec![("op", s("shutdown")), ("mode", s("drain")), ("timeout_ms", n(timeout_ms))])
        }
        "ping" | "list" | "stats" | "shutdown" => obj(vec![("op", s(verb))]),
        "submit" => {
            // The parsed sort flags are the job spec; the file rides inline.
            let input =
                args.first().ok_or_else(|| "client submit needs an input file".to_string())?;
            let bytes = std::fs::read(input).map_err(|e| format!("cannot read {input:?}: {e}"))?;
            // The request carries the document as JSON text, which would
            // replace every invalid byte with U+FFFD: refuse rather than
            // sort different bytes.
            if let Err(e) = std::str::from_utf8(&bytes) {
                let at = e.valid_up_to();
                return Err(format!(
                    "cannot submit {input:?}: byte {at} (0x{:02X}) is not UTF-8; \
                     client submit sends the document as text",
                    bytes[at]
                )
                .into());
            }
            nexsort_server::submit_value(&JobSpec {
                input: JobInput::Inline(bytes),
                ..cli.job.clone()
            })
        }
        "status" | "cancel" => obj(vec![("op", s(verb)), ("id", n(job_id(args)?))]),
        "wait" => {
            obj(vec![("op", s(verb)), ("id", n(job_id(args)?)), ("timeout_ms", n(timeout_ms))])
        }
        other => return Err(format!("unknown client verb {other:?}").into()),
    };
    let resp = nexsort_server::request_with_retry(connect, &req, &copts).map_err(CliError::from)?;
    if resp.get("ok").and_then(Value::as_bool) != Some(true) {
        let message = resp
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("daemon rejected the request")
            .to_string();
        let busy = resp.get("busy").and_then(Value::as_bool) == Some(true);
        return Err(CliError { code: if busy { 3 } else { 1 }, message });
    }
    println!("{}", resp.to_json());
    Ok(())
}

/// Execute a parsed command line, classifying any failure into the exit
/// code the process should end with (see the EXIT CODES section of
/// [`USAGE`]).
pub fn run_code(cli: &Cli) -> Result<(), CliError> {
    if let Command::Scrub { device } = &cli.command {
        return scrub_device(cli, device).map(|_| ());
    }
    if let Command::Serve {
        listen,
        workers,
        queue,
        budget_frames,
        job_dir,
        request_timeout_ms,
        idle_timeout_ms,
        drain_timeout_ms,
        max_line_bytes,
    } = &cli.command
    {
        let opts = nexsort_server::ServeOptions {
            request_timeout_ms: *request_timeout_ms,
            idle_timeout_ms: *idle_timeout_ms,
            max_line_bytes: *max_line_bytes,
            drain_timeout_ms: *drain_timeout_ms,
            fault_plan: None,
        };
        return run_serve(listen, *workers, *queue, *budget_frames, cli.tenant_cap, job_dir, opts)
            .map_err(CliError::from);
    }
    if matches!(cli.command, Command::Client { .. }) {
        return run_client(cli);
    }
    let (disk, injectors, crash) = make_disk(cli)?;
    let result: Result<(), CliError> = match &cli.command {
        Command::Sort { input } => {
            let staged = load(&disk, input)?;
            let before = disk.stats().snapshot();
            if cli.algo == Algo::Mergesort {
                let opts = BaselineOptions {
                    mem_frames: cli.job.mem_frames,
                    compaction: true,
                    depth_limit: cli.job.depth_limit,
                };
                let sorted = sort_xml_extent(&disk, &staged, &cli.spec, &opts)
                    .map_err(|e| CliError::from(&SortFailure::classify(&disk, e, &before)))?;
                if cli.stats {
                    eprintln!(
                        "mergesort: passes={} runs={} fan-in={}",
                        sorted.report.passes, sorted.report.initial_runs, sorted.report.fan_in
                    );
                    eprintln!("{}", disk.stats().snapshot());
                    print_stack_stats(&disk);
                }
                emit_sorted(cli, &disk, &before, |out| sorted.write_xml(out, cli.job.pretty))
            } else {
                let doc = sort_one(cli, &disk, &staged, crash.as_ref())?;
                emit_sorted(cli, &disk, &before, |out| doc.write_xml(out, cli.job.pretty))
            }
        }
        Command::TopK { input } => {
            let doc = topk_one(cli, &disk, &load(&disk, input)?, crash.as_ref())?;
            emit(cli, doc.to_text().map_err(|e| e.to_string())?.as_bytes())
        }
        Command::Pq { script } => {
            let text = std::fs::read_to_string(script)
                .map_err(|e| format!("cannot read {script:?}: {e}"))?;
            let mut pq =
                nexsort_query::ExtPq::new(disk.clone(), cli.job.mem_frames, cli.job.parity_group)
                    .map_err(|e| e.to_string())?;
            let out = pq.run_script(&text).map_err(|e| e.to_string())?;
            if cli.stats {
                let s = &pq.stats;
                eprintln!(
                    "pq: pushes={} pops={} runs_sealed={} restructures={} tombstones_dropped={}",
                    s.pushes, s.pops, s.runs_sealed, s.restructures, s.tombstones_dropped
                );
            }
            emit(cli, out.as_bytes())
        }
        Command::Merge { left, right } => {
            let before = disk.stats().snapshot();
            let a = sort_one(cli, &disk, &load(&disk, left)?, crash.as_ref())?;
            let b = sort_one(cli, &disk, &load(&disk, right)?, crash.as_ref())?;
            let merge = StructuralMerge::new(&a.dict, &b.dict);
            let mut ca = a.cursor().map_err(|e| e.to_string())?;
            let mut cb = b.cursor().map_err(|e| e.to_string())?;
            emit_sorted(cli, &disk, &before, |out| {
                disk.in_phase(IoPhase::OutputEmit, || {
                    let mut w = RecXmlWriter::new(out, cli.job.pretty);
                    let (_, stats) =
                        merge.run(&mut ca, &mut cb, &mut |r, dict| w.push_rec(&r, dict))?;
                    w.finish()?;
                    if cli.stats {
                        eprintln!("merge: {stats:?}");
                    }
                    Ok(())
                })
            })
        }
        Command::Check { input } => {
            let mut check = SiblingCheck::new(&cli.spec, cli.job.depth_limit);
            check.scan_xml(input)?;
            let records = check.finish()?;
            if cli.stats {
                eprintln!("check: {records} records, fully sorted");
            }
            Ok(())
        }
        Command::Gen { shape, seed } => {
            use nexsort_datagen::{AuctionConfig, AuctionGen, ExactGen, GenConfig, IbmGen};
            use nexsort_xml::EventSource;
            let cfg = GenConfig { seed: *seed, ..Default::default() };
            let mut gen: Box<dyn EventSource> = if let Some(spec) = shape.strip_prefix("exact:") {
                let fanouts = spec
                    .split(',')
                    .map(|f| f.trim().parse::<u64>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| format!("bad exact fan-outs {spec:?}"))?;
                Box::new(ExactGen::new(&fanouts, cfg))
            } else if let Some(spec) = shape.strip_prefix("ibm:") {
                let parts: Vec<u64> = spec
                    .split(',')
                    .map(|f| f.trim().parse::<u64>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| format!("bad ibm parameters {spec:?}"))?;
                match parts.as_slice() {
                    [h, k] => Box::new(IbmGen::new(*h as u32, *k, None, cfg)),
                    [h, k, n] => Box::new(IbmGen::new(*h as u32, *k, Some(*n), cfg)),
                    _ => return Err("ibm: expects HEIGHT,MAXFAN[,MAXELEMS]".to_string().into()),
                }
            } else if let Some(spec) = shape.strip_prefix("auction:") {
                let sellers =
                    spec.trim().parse::<u64>().map_err(|_| format!("bad seller count {spec:?}"))?;
                Box::new(AuctionGen::new(AuctionConfig {
                    seed: *seed,
                    sellers,
                    ..Default::default()
                }))
            } else {
                return Err(format!(
                    "unknown shape {shape:?} (expected exact:..., ibm:..., auction:...)"
                )
                .into());
            };
            emit_with(cli, |out| {
                let mut w = XmlWriter::new(out).pretty(cli.job.pretty);
                while let Some(ev) = gen.next_event().map_err(xml_err)? {
                    w.write(&ev).map_err(xml_err)?;
                }
                w.into_inner().map_err(xml_err)?;
                Ok(())
            })
        }
        Command::Update { base, updates } => {
            let before = disk.stats().snapshot();
            let b = sort_one(cli, &disk, &load(&disk, base)?, crash.as_ref())?;
            let u = sort_one(cli, &disk, &load(&disk, updates)?, crash.as_ref())?;
            let apply = BatchUpdate::new(&b.dict, &u.dict);
            let mut cb = b.cursor().map_err(|e| e.to_string())?;
            let mut cu = u.cursor().map_err(|e| e.to_string())?;
            emit_sorted(cli, &disk, &before, |out| {
                disk.in_phase(IoPhase::OutputEmit, || {
                    let mut w = RecXmlWriter::new(out, cli.job.pretty);
                    let (_, stats) =
                        apply.run(&mut cb, &mut cu, &mut |r, dict| w.push_rec(&r, dict))?;
                    w.finish()?;
                    if cli.stats {
                        eprintln!("update: {stats:?}");
                    }
                    Ok(())
                })
            })
        }
        Command::Scrub { .. } | Command::Serve { .. } | Command::Client { .. } => {
            unreachable!("scrub/serve/client are handled before device setup")
        }
    };
    // Under write-back the pool may still hold dirty frames; push them to the
    // device so a `--device` file is complete on exit.
    let result = result.and_then(|()| {
        disk.cache_flush_all().map_err(|e| CliError::from(format!("final cache flush: {e}")))
    });
    if cli.stats {
        for (i, inj) in injectors.iter().enumerate() {
            let counts = inj.counts();
            let dev = if injectors.len() > 1 { format!(" (device {i})") } else { String::new() };
            eprintln!(
                "faults injected{dev}: {} over {} reads / {} writes ({counts:?})",
                counts.total(),
                inj.read_ops(),
                inj.write_ops(),
            );
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexsort_extmem::{CachePolicy, WriteMode};

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn sort_command_parses_fully() {
        let cli = parse_args(&args(&[
            "sort",
            "in.xml",
            "-o",
            "out.xml",
            "--default",
            "@name",
            "--key",
            "employee=@ID:num",
            "--mem",
            "8M",
            "--block",
            "32K",
            "--threshold",
            "64K",
            "--depth",
            "3",
            "--algo",
            "degen",
            "--pretty",
            "--stats",
        ]))
        .unwrap();
        assert!(matches!(cli.command, Command::Sort { .. }));
        assert_eq!(cli.job.block_size, 32 * 1024);
        assert_eq!(cli.job.mem_frames, 8 * 1024 * 1024 / (32 * 1024));
        assert_eq!(cli.job.threshold, Some(64 * 1024));
        assert_eq!(cli.job.depth_limit, Some(3));
        assert_eq!(cli.algo, Algo::Degen);
        assert!(cli.job.degeneration);
        assert!(cli.job.pretty && cli.stats);
        assert_eq!(cli.job.mem_frames, 256);
    }

    #[test]
    fn merge_and_update_take_two_files() {
        let cli = parse_args(&args(&["merge", "a.xml", "b.xml"])).unwrap();
        match cli.command {
            Command::Merge { left, right } => {
                assert_eq!(left, PathBuf::from("a.xml"));
                assert_eq!(right, PathBuf::from("b.xml"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&args(&["merge", "a.xml"])).is_err());
        assert!(parse_args(&args(&["update", "a.xml", "b.xml", "c.xml"])).is_err());
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let cli = parse_args(&args(&[
            "sort",
            "in.xml",
            "--fault-rate",
            "0.02",
            "--fault-flips",
            "0.001",
            "--fault-torn",
            "0.005",
            "--fault-seed",
            "9",
            "--retries",
            "5",
        ]))
        .unwrap();
        assert!(cli.faults_enabled());
        assert_eq!(cli.fault_rate, 0.02);
        assert_eq!(cli.fault_flips, 0.001);
        assert_eq!(cli.fault_torn, 0.005);
        assert_eq!(cli.fault_seed, 9);
        assert_eq!(cli.retries, Some(5));
        assert!(!parse_args(&args(&["sort", "x.xml"])).unwrap().faults_enabled());
        assert!(parse_args(&args(&["sort", "x.xml", "--fault-rate", "1.5"])).is_err());
        assert!(parse_args(&args(&["sort", "x.xml", "--fault-rate", "-0.1"])).is_err());
        assert!(parse_args(&args(&["sort", "x.xml", "--retries", "-1"])).is_err());
    }

    #[test]
    fn faulty_sort_heals_by_retry_and_matches_the_clean_output() {
        let dir = std::env::temp_dir().join(format!("xsort-flt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let clean = dir.join("clean.xml");
        let faulty = dir.join("faulty.xml");
        let gen =
            parse_args(&args(&["gen", "exact:30,6", "--seed", "5", "-o", raw.to_str().unwrap()]))
                .unwrap();
        run(&gen).unwrap();

        let base = ["--default", "@k", "--block", "256", "--mem", "4K"];
        let mut a = vec!["sort", raw.to_str().unwrap(), "-o", clean.to_str().unwrap()];
        a.extend_from_slice(&base);
        run(&parse_args(&args(&a)).unwrap()).unwrap();

        let mut b = vec!["sort", raw.to_str().unwrap(), "-o", faulty.to_str().unwrap()];
        b.extend_from_slice(&base);
        b.extend_from_slice(&["--fault-rate", "0.02", "--fault-seed", "11"]);
        run(&parse_args(&args(&b)).unwrap()).unwrap();

        assert_eq!(
            std::fs::read(&clean).unwrap(),
            std::fs::read(&faulty).unwrap(),
            "retries must make the faulty sort byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unrecoverable_faults_surface_a_structured_failure() {
        let dir = std::env::temp_dir().join(format!("xsort-fl2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let gen = parse_args(&args(&["gen", "exact:40,4", "-o", raw.to_str().unwrap()])).unwrap();
        run(&gen).unwrap();
        // Massive corruption with no retries: the sort must fail and the
        // message must name the failure site.
        let cli = parse_args(&args(&[
            "sort",
            raw.to_str().unwrap(),
            "--default",
            "@k",
            "--block",
            "256",
            "--fault-flips",
            "0.5",
            "--retries",
            "0",
        ]))
        .unwrap();
        let err = run(&cli).unwrap_err();
        assert!(err.contains("sort failed during"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_flags_parse_with_sane_defaults() {
        let plain = parse_args(&args(&["sort", "x.xml"])).unwrap();
        assert_eq!(plain.job.cache_frames, 0);
        assert_eq!(plain.job.cache_policy, CachePolicy::Lru);
        assert!(!plain.job.write_back);

        let cli = parse_args(&args(&[
            "sort",
            "x.xml",
            "--cache-frames",
            "32",
            "--cache-policy",
            "clock",
            "--write-back",
        ]))
        .unwrap();
        assert_eq!(cli.job.cache_frames, 32);
        assert_eq!(cli.job.cache_policy, CachePolicy::Clock);
        assert!(cli.job.write_back);

        assert!(parse_args(&args(&["sort", "x.xml", "--cache-frames", "many"])).is_err());
        let err = parse_args(&args(&["sort", "x.xml", "--cache-policy", "fifo"])).unwrap_err();
        assert!(err.contains("unknown cache policy"), "{err}");
    }

    #[test]
    fn cached_sorts_match_the_uncached_output_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("xsort-cch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let gen =
            parse_args(&args(&["gen", "exact:25,5", "--seed", "7", "-o", raw.to_str().unwrap()]))
                .unwrap();
        run(&gen).unwrap();

        let base = ["--default", "@k", "--block", "256", "--mem", "4K"];
        let sort_with = |extra: &[&str], out: &Path| {
            let mut a = vec!["sort", raw.to_str().unwrap(), "-o", out.to_str().unwrap()];
            a.extend_from_slice(&base);
            a.extend_from_slice(extra);
            run(&parse_args(&args(&a)).unwrap()).unwrap();
            std::fs::read(out).unwrap()
        };

        let out = dir.join("out.xml");
        let uncached = sort_with(&[], &out);
        for extra in [
            &["--cache-frames", "8"][..],
            &["--cache-frames", "8", "--cache-policy", "clock"][..],
            &["--cache-frames", "4", "--write-back"][..],
            &["--cache-frames", "6", "--cache-policy", "clock", "--write-back"][..],
            &["--cache-frames", "8", "--algo", "mergesort"][..],
        ] {
            assert_eq!(sort_with(extra, &out), uncached, "{extra:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stripe_flag_parses_and_the_scheduler_flags_are_unknown() {
        let plain = parse_args(&args(&["sort", "x.xml"])).unwrap();
        assert_eq!(plain.job.stripe, 1);
        let cli = parse_args(&args(&["sort", "x.xml", "--stripe", "4"])).unwrap();
        assert_eq!(cli.job.stripe, 4);
        assert!(parse_args(&args(&["sort", "x.xml", "--stripe", "0"])).is_err());

        // Scripts still passing the retired scheduler flags or the retired
        // output-format flag fail loudly instead of silently sorting
        // without them.
        for flag in [
            &["--io-workers", "1"][..],
            &["--prefetch-depth", "8"],
            &["--write-behind"],
            &["--format", "xml"],
        ] {
            let err = parse_args(&args(&[&["sort", "x.xml"][..], flag].concat())).unwrap_err();
            assert!(err.contains("unknown option"), "{flag:?}: {err}");
        }
    }

    #[test]
    fn serve_and_client_args_parse() {
        let cli = parse_args(&args(&["serve"])).unwrap();
        match cli.command {
            Command::Serve {
                listen,
                workers,
                queue,
                budget_frames,
                job_dir,
                request_timeout_ms,
                idle_timeout_ms,
                drain_timeout_ms,
                max_line_bytes,
            } => {
                assert_eq!(listen, "127.0.0.1:7171");
                assert_eq!(workers, 4);
                assert_eq!(queue, 16);
                assert_eq!(budget_frames, 4096);
                assert_eq!(job_dir, PathBuf::from("xsort-jobs"));
                assert_eq!(request_timeout_ms, 30_000);
                assert_eq!(idle_timeout_ms, 300_000);
                assert_eq!(drain_timeout_ms, 30_000);
                assert_eq!(max_line_bytes, 16 << 20);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        let cli = parse_args(&args(&[
            "serve",
            "--listen",
            "unix:/tmp/x.sock",
            "--workers",
            "8",
            "--queue",
            "2",
            "--budget-frames",
            "512",
            "--job-dir",
            "/tmp/jobs",
            "--request-timeout-ms",
            "1500",
            "--idle-timeout-ms",
            "9000",
            "--drain-timeout-ms",
            "2500",
            "--max-line-bytes",
            "4096",
        ]))
        .unwrap();
        match cli.command {
            Command::Serve {
                listen,
                workers,
                queue,
                budget_frames,
                job_dir,
                request_timeout_ms,
                idle_timeout_ms,
                drain_timeout_ms,
                max_line_bytes,
            } => {
                assert_eq!(listen, "unix:/tmp/x.sock");
                assert_eq!(workers, 8);
                assert_eq!(queue, 2);
                assert_eq!(budget_frames, 512);
                assert_eq!(job_dir, PathBuf::from("/tmp/jobs"));
                assert_eq!(request_timeout_ms, 1500);
                assert_eq!(idle_timeout_ms, 9000);
                assert_eq!(drain_timeout_ms, 2500);
                assert_eq!(max_line_bytes, 4096);
            }
            other => panic!("expected serve, got {other:?}"),
        }

        let cli = parse_args(&args(&[
            "client",
            "submit",
            "input.xml",
            "--connect",
            "unix:/tmp/x.sock",
            "--default",
            "@id",
            "--key",
            "emp=@name",
        ]))
        .unwrap();
        assert_eq!(cli.job.default_rule.as_deref(), Some("@id"));
        assert_eq!(cli.job.keys, vec!["emp=@name".to_string()]);
        assert_eq!(cli.job.idem, None);
        match cli.command {
            Command::Client { connect, verb, args, retry, drain, .. } => {
                assert_eq!(connect, "unix:/tmp/x.sock");
                assert_eq!(verb, "submit");
                assert_eq!(args, vec!["input.xml".to_string()]);
                assert_eq!(retry, 0);
                assert!(!drain);
            }
            other => panic!("expected client, got {other:?}"),
        }

        // The hardened-edge client knobs parse and stay client-scoped.
        let cli = parse_args(&args(&[
            "client",
            "submit",
            "input.xml",
            "--retry",
            "3",
            "--retry-base-ms",
            "20",
            "--retry-seed",
            "9",
            "--idem",
            "tok-1",
        ]))
        .unwrap();
        assert_eq!(cli.job.idem.as_deref(), Some("tok-1"));
        match cli.command {
            Command::Client { retry, retry_base_ms, retry_seed, .. } => {
                assert_eq!(retry, 3);
                assert_eq!(retry_base_ms, 20);
                assert_eq!(retry_seed, 9);
            }
            other => panic!("expected client, got {other:?}"),
        }
        let cli = parse_args(&args(&["client", "shutdown", "--drain"])).unwrap();
        match cli.command {
            Command::Client { verb, drain, .. } => {
                assert_eq!(verb, "shutdown");
                assert!(drain);
            }
            other => panic!("expected client, got {other:?}"),
        }
        let err = parse_args(&args(&["serve", "--retry", "2"])).unwrap_err();
        assert!(err.contains("client"), "{err}");
        let err = parse_args(&args(&["client", "ping", "--drain"])).unwrap_err();
        assert!(err.contains("shutdown"), "{err}");
        assert!(parse_args(&args(&["serve", "--max-line-bytes", "0"])).is_err());

        assert!(parse_args(&args(&["serve", "stray"])).is_err());
        assert!(parse_args(&args(&["client"])).is_err());
        assert!(parse_args(&args(&["serve", "--workers", "0"])).is_err());
    }

    #[test]
    fn cli_and_builder_assemble_identical_stacks() {
        // Describe-level identity: mapping the CLI flags through `disk_spec`
        // yields exactly the builder a caller would configure by hand.
        let cli = parse_args(&args(&[
            "sort",
            "x.xml",
            "--block",
            "256",
            "--stripe",
            "4",
            "--cache-frames",
            "8",
            "--cache-policy",
            "clock",
            "--write-back",
            "--retries",
            "2",
        ]))
        .unwrap();
        let by_hand = DiskBuilder::new(256).stripe(4).retry(RetryPolicy::retries(2)).cache(
            8,
            CachePolicy::Clock,
            WriteMode::Back,
        );
        assert_eq!(disk_spec(&cli).unwrap().describe(), by_hand.describe());

        // Fault flags map to one reseedable base plan plus default retries.
        let faulty = parse_args(&args(&[
            "sort",
            "x.xml",
            "--block",
            "128",
            "--fault-rate",
            "0.01",
            "--fault-seed",
            "9",
        ]))
        .unwrap();
        let by_hand = DiskBuilder::new(128)
            .stripe(1)
            .faults(
                FaultPlan::new(9)
                    .with_read_error_rate(0.01)
                    .with_write_error_rate(0.01)
                    .with_read_flip_rate(0.0)
                    .with_write_flip_rate(0.0)
                    .with_torn_write_rate(0.0),
            )
            .retry(RetryPolicy::retries(3));
        assert_eq!(disk_spec(&faulty).unwrap().describe(), by_hand.describe());

        // Behavioural identity: both assembly paths run the same workload
        // with the same physical accounting.
        let (cli_disk, _, _) = make_disk(&cli).unwrap();
        let hand_disk = by_hand.build().unwrap().disk;
        assert_eq!(cli_disk.stripe_width(), 4);
        for disk in [&cli_disk, &hand_disk] {
            for i in 0..10u8 {
                let b = disk.alloc_block();
                disk.write_block(b, &[i; 128], IoCat::SortScratch).unwrap();
            }
        }
        // (the faulty hand-built stack has block size 128; the CLI stack 256
        // -- compare each against itself over time, and the two fault-free
        // paths against each other)
        let (a, _, _) = make_disk(&faulty).unwrap();
        let b = disk_spec(&faulty).unwrap().build().unwrap().disk;
        for disk in [&a, &b] {
            for i in 0..10u8 {
                let blk = disk.alloc_block();
                disk.write_block(blk, &[i; 128], IoCat::SortScratch).unwrap();
                let mut buf = [0u8; 128];
                disk.read_block(blk, &mut buf, IoCat::SortScratch).unwrap();
                assert_eq!(buf, [i; 128]);
            }
        }
        assert!(
            a.stats().snapshot() == b.stats().snapshot(),
            "identical stacks must account identically"
        );

        // Sort/submit parity: the same flags through `xsort sort` and through
        // `client submit` (parse, JobSpec, JSON on the wire, the daemon's
        // `spec_from_value`, `disk_builder`) give the same stack and the
        // same sorter options.
        let flags = [
            "--block",
            "512",
            "--mem",
            "8K",
            "--stripe",
            "3",
            "--cache-frames",
            "8",
            "--cache-policy",
            "clock",
            "--write-back",
            "--parity-group",
            "2",
            "--threshold",
            "2K",
            "--depth",
            "4",
            "--algo",
            "degen",
            "--checkpoint",
        ];
        let local = parse_args(&args(&[&["sort", "x.xml"][..], &flags[..]].concat())).unwrap();
        let remote =
            parse_args(&args(&[&["client", "submit", "x.xml"][..], &flags[..]].concat())).unwrap();
        let wire = nexsort_server::submit_value(&remote.job).to_json();
        let request = nexsort_server::json::parse(&wire).unwrap();
        let daemon = nexsort_server::job::spec_from_value(request.get("spec").unwrap()).unwrap();
        let local_stack = disk_spec(&local).unwrap().describe();
        assert_eq!(local_stack, daemon.disk_builder().describe());
        assert!(local_stack.contains("cache=8/Clock/Back"), "{local_stack}");
        assert!(local_stack.contains("stripe=3"), "{local_stack}");
        // The daemon always journals: compare against a checkpointed sort.
        assert_eq!(
            format!("{:?}", local.job.nexsort_options(local.checkpoint)),
            format!("{:?}", daemon.nexsort_options(true))
        );
    }

    #[test]
    fn striped_and_write_back_sorts_match_the_uncached_output_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("xsort-sch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let gen =
            parse_args(&args(&["gen", "exact:25,5", "--seed", "7", "-o", raw.to_str().unwrap()]))
                .unwrap();
        run(&gen).unwrap();

        let base = ["--default", "@k", "--block", "256", "--mem", "4K"];
        let sort_with = |extra: &[&str], out: &Path| {
            let mut a = vec!["sort", raw.to_str().unwrap(), "-o", out.to_str().unwrap()];
            a.extend_from_slice(&base);
            a.extend_from_slice(extra);
            run(&parse_args(&args(&a)).unwrap()).unwrap();
            std::fs::read(out).unwrap()
        };

        let out = dir.join("out.xml");
        let sync = sort_with(&[], &out);
        let full = ["--cache-frames", "8", "--write-back", "--stripe", "4"];
        for extra in [
            &["--stripe", "4"][..],
            &["--cache-frames", "8", "--write-back"][..],
            &full[..],
            &["--cache-frames", "8", "--write-back", "--stripe", "2", "--algo", "mergesort"][..],
        ] {
            // Mergesort output differs from nexsort's only in report, not
            // bytes: both are fully sorted documents under the same spec.
            assert_eq!(sort_with(extra, &out), sync, "{extra:?}");
        }

        // A write-back sort on a striped faulty disk still heals by retry
        // and agrees with the uncached output.
        let mut f = vec!["sort", raw.to_str().unwrap(), "-o", out.to_str().unwrap()];
        f.extend_from_slice(&base);
        f.extend_from_slice(&full);
        f.extend_from_slice(&["--fault-rate", "0.02", "--fault-seed", "11"]);
        run(&parse_args(&args(&f)).unwrap()).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), sync);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn striped_device_files_are_created_per_inner_device() {
        let dir = std::env::temp_dir().join(format!("xsort-std-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        std::fs::write(&raw, b"<r><e id=\"2\"/><e id=\"1\"/></r>").unwrap();
        let dev = dir.join("device.bin");
        let out = dir.join("out.xml");
        let cli = parse_args(&args(&[
            "sort",
            raw.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--default",
            "@id:num",
            "--block",
            "256",
            "--device",
            dev.to_str().unwrap(),
            "--stripe",
            "3",
            "--cache-frames",
            "4",
            "--write-back",
        ]))
        .unwrap();
        run(&cli).unwrap();
        for i in 0..3 {
            let p = stripe_path(&dev, i);
            assert!(p.exists(), "missing stripe file {p:?}");
        }
        // Striped fault injection is in-memory only: --device must error.
        let cli = parse_args(&args(&[
            "sort",
            raw.to_str().unwrap(),
            "--default",
            "@id:num",
            "--device",
            dev.to_str().unwrap(),
            "--stripe",
            "2",
            "--fault-rate",
            "0.01",
        ]))
        .unwrap();
        assert!(run(&cli).unwrap_err().contains("--stripe"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_flags_parse_and_validate() {
        let cli = parse_args(&args(&[
            "sort",
            "x.xml",
            "--checkpoint",
            "--resume",
            "--crash-after-ios",
            "120",
            "--crash-seed",
            "7",
        ]))
        .unwrap();
        assert!(cli.checkpoint && cli.resume);
        assert_eq!(cli.job.crash_after_ios, Some(120));
        assert_eq!(cli.crash_seed, Some(7));
        assert!(!parse_args(&args(&["sort", "x.xml"])).unwrap().checkpoint);

        let err = parse_args(&args(&["sort", "x.xml", "--resume"])).unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
        let err = parse_args(&args(&["sort", "x.xml", "--crash-seed", "3"])).unwrap_err();
        assert!(err.contains("--crash-after-ios"), "{err}");
        let err = parse_args(&args(&[
            "sort",
            "x.xml",
            "--checkpoint",
            "--resume",
            "--algo",
            "mergesort",
        ]))
        .unwrap_err();
        assert!(err.contains("baseline"), "{err}");
        // Crash simulation and fault injection are separate harnesses.
        let cli = parse_args(&args(&[
            "sort",
            "x.xml",
            "--crash-after-ios",
            "10",
            "--fault-rate",
            "0.01",
        ]))
        .unwrap();
        assert!(run(&cli).unwrap_err().contains("cannot be combined"));
    }

    #[test]
    fn crash_then_resume_matches_the_uninterrupted_output() {
        let dir = std::env::temp_dir().join(format!("xsort-crs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let gen =
            parse_args(&args(&["gen", "exact:30,6", "--seed", "5", "-o", raw.to_str().unwrap()]))
                .unwrap();
        run(&gen).unwrap();

        let base = ["--default", "@k", "--block", "256", "--mem", "4K", "--checkpoint"];
        let sort_with = |extra: &[&str], out: &Path| {
            let mut a = vec!["sort", raw.to_str().unwrap(), "-o", out.to_str().unwrap()];
            a.extend_from_slice(&base);
            a.extend_from_slice(extra);
            run(&parse_args(&args(&a)).unwrap()).unwrap();
            std::fs::read(out).unwrap()
        };

        let out = dir.join("out.xml");
        let clean = sort_with(&[], &out);
        for extra in [
            &["--resume", "--crash-after-ios", "10"][..],
            &["--resume", "--crash-after-ios", "80"][..],
            &["--resume", "--crash-after-ios", "200"][..],
            &["--resume", "--crash-after-ios", "150", "--crash-seed", "9"][..],
            &["--resume", "--crash-after-ios", "90", "--algo", "degen"][..],
            &["--resume", "--crash-after-ios", "120", "--stripe", "3"][..],
            &[
                "--resume",
                "--crash-after-ios",
                "120",
                "--cache-frames",
                "6",
                "--write-back",
                "--stripe",
                "4",
            ][..],
        ] {
            assert_eq!(sort_with(extra, &out), clean, "{extra:?}");
        }

        // Without --resume, a crash is a hard failure naming the cause.
        let mut a = vec!["sort", raw.to_str().unwrap(), "-o", out.to_str().unwrap()];
        a.extend_from_slice(&base);
        a.extend_from_slice(&["--crash-after-ios", "40"]);
        let err = run(&parse_args(&args(&a)).unwrap()).unwrap_err();
        assert!(err.contains("simulated crash"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_stripe_creation_cleans_up_partial_backing_files() {
        let dir = std::env::temp_dir().join(format!("xsort-stc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        std::fs::write(&raw, b"<r><e id=\"2\"/><e id=\"1\"/></r>").unwrap();
        let dev = dir.join("device.bin");
        // `device.bin.1` exists as a *directory*: creating the second stripe
        // device must fail -- and must take `device.bin.0` down with it.
        std::fs::create_dir_all(stripe_path(&dev, 1)).unwrap();
        let cli = parse_args(&args(&[
            "sort",
            raw.to_str().unwrap(),
            "--default",
            "@id:num",
            "--block",
            "256",
            "--device",
            dev.to_str().unwrap(),
            "--stripe",
            "3",
        ]))
        .unwrap();
        let err = run(&cli).unwrap_err();
        assert!(err.contains("cannot open device file"), "{err}");
        assert!(
            !stripe_path(&dev, 0).exists(),
            "a failed stripe set must not leave partial backing files behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_back_to_a_device_file_is_flushed_on_exit() {
        let dir = std::env::temp_dir().join(format!("xsort-cfl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let plain_out = dir.join("plain.xml");
        let cached_out = dir.join("cached.xml");
        std::fs::write(&raw, b"<r><e id=\"2\"/><e id=\"3\"/><e id=\"1\"/></r>").unwrap();
        let common = ["--default", "@id:num", "--block", "256"];

        let mut a = vec!["sort", raw.to_str().unwrap(), "-o", plain_out.to_str().unwrap()];
        a.extend_from_slice(&common);
        run(&parse_args(&args(&a)).unwrap()).unwrap();

        let dev = dir.join("device.bin");
        let mut b = vec!["sort", raw.to_str().unwrap(), "-o", cached_out.to_str().unwrap()];
        b.extend_from_slice(&common);
        b.extend_from_slice(&["--device", dev.to_str().unwrap(), "--cache-frames", "4"]);
        b.extend_from_slice(&["--write-back"]);
        run(&parse_args(&args(&b)).unwrap()).unwrap();

        assert_eq!(std::fs::read(&plain_out).unwrap(), std::fs::read(&cached_out).unwrap());
        assert!(std::fs::metadata(&dev).unwrap().len() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parity_flags_parse_and_validate() {
        let plain = parse_args(&args(&["sort", "x.xml"])).unwrap();
        assert_eq!(plain.job.parity_group, 0, "redundancy is opt-in");
        assert_eq!(plain.corrupt, None);

        let cli = parse_args(&args(&["sort", "x.xml", "--parity-group", "4"])).unwrap();
        assert_eq!(cli.job.parity_group, 4);
        let cli = parse_args(&args(&["scrub", "dev.bin", "--corrupt", "2"])).unwrap();
        assert!(matches!(cli.command, Command::Scrub { .. }));
        assert_eq!(cli.corrupt, Some(2));

        assert!(parse_args(&args(&["sort", "x.xml", "--parity-group", "some"])).is_err());
        let err = parse_args(&args(&["sort", "x.xml", "--corrupt", "1"])).unwrap_err();
        assert!(err.contains("scrub"), "{err}");
        let err =
            parse_args(&args(&["sort", "x.xml", "--parity-group", "2", "--algo", "mergesort"]))
                .unwrap_err();
        assert!(err.contains("nexsort/degen"), "{err}");
        assert!(parse_args(&args(&["scrub"])).is_err());
    }

    #[test]
    fn failure_categories_map_to_documented_exit_codes() {
        assert_eq!(exit_code(FailureCategory::Other), 1);
        assert_eq!(exit_code(FailureCategory::Transient), 3);
        assert_eq!(exit_code(FailureCategory::Persistent), 4);
        assert_eq!(exit_code(FailureCategory::Source), 5);
        // Untyped errors fall back to the generic failure code.
        assert_eq!(CliError::from("boom".to_string()).code, 1);
        // An unrecoverable faulty sort must exit through an I/O code (3..=5),
        // never the generic 1 that hides what a re-run could achieve.
        let dir = std::env::temp_dir().join(format!("xsort-exc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let gen = parse_args(&args(&["gen", "exact:40,4", "-o", raw.to_str().unwrap()])).unwrap();
        run(&gen).unwrap();
        let cli = parse_args(&args(&[
            "sort",
            raw.to_str().unwrap(),
            "--default",
            "@k",
            "--block",
            "256",
            "--fault-flips",
            "0.5",
            "--retries",
            "0",
        ]))
        .unwrap();
        let err = run_code(&cli).unwrap_err();
        assert!((3..=5).contains(&err.code), "code {} for {}", err.code, err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parity_protected_sort_matches_the_bare_output() {
        let dir = std::env::temp_dir().join(format!("xsort-par-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let gen =
            parse_args(&args(&["gen", "exact:30,6", "--seed", "5", "-o", raw.to_str().unwrap()]))
                .unwrap();
        run(&gen).unwrap();

        let base = ["--default", "@k", "--block", "256", "--mem", "4K"];
        let sort_with = |extra: &[&str], out: &Path| {
            let mut a = vec!["sort", raw.to_str().unwrap(), "-o", out.to_str().unwrap()];
            a.extend_from_slice(&base);
            a.extend_from_slice(extra);
            run(&parse_args(&args(&a)).unwrap()).unwrap();
            std::fs::read(out).unwrap()
        };
        let out = dir.join("out.xml");
        let bare = sort_with(&[], &out);
        for extra in [
            &["--parity-group", "1"][..],
            &["--parity-group", "4"][..],
            &["--parity-group", "4", "--algo", "degen"][..],
            &["--parity-group", "2", "--checkpoint"][..],
        ] {
            assert_eq!(sort_with(extra, &out), bare, "{extra:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scrub_corrupt_repair_roundtrip_restores_full_redundancy() {
        let dir = std::env::temp_dir().join(format!("xsort-scr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let dev = dir.join("device.bin");
        let out = dir.join("out.xml");
        let gen =
            parse_args(&args(&["gen", "exact:40,6", "--seed", "3", "-o", raw.to_str().unwrap()]))
                .unwrap();
        run(&gen).unwrap();

        // A checkpointed, parity-protected sort leaves its journal and the
        // sealed root run (plus parity) on the device file.
        let sort = parse_args(&args(&[
            "sort",
            raw.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--default",
            "@k",
            "--block",
            "256",
            "--mem",
            "4K",
            "--checkpoint",
            "--parity-group",
            "2",
            "--device",
            dev.to_str().unwrap(),
        ]))
        .unwrap();
        run(&sort).unwrap();

        let scrub_args = |extra: &[&str]| {
            let mut a = vec!["scrub", dev.to_str().unwrap(), "--block", "256"];
            a.extend_from_slice(extra);
            parse_args(&args(&a)).unwrap()
        };
        // Pass 1: a healthy store scrubs clean.
        let clean = scrub_args(&[]);
        let report = scrub_device(&clean, &dev).unwrap();
        assert!(report.scanned > 0, "the sealed root run must be scanned");
        assert_eq!(report.repaired, 0);
        assert_eq!(report.unrecoverable, 0);
        // Pass 2: corrupt one data block (the test hook), then scrub heals it.
        scrub_device(&scrub_args(&["--corrupt", "0"]), &dev).unwrap();
        let report = scrub_device(&clean, &dev).unwrap();
        assert_eq!(report.repaired, 1, "{report:?}");
        assert_eq!(report.unrecoverable, 0);
        // Pass 3: the re-sealed layout scrubs clean again.
        let report = scrub_device(&clean, &dev).unwrap();
        assert_eq!(report.repaired, 0, "{report:?}");
        assert_eq!(report.parity_rewritten, 0, "{report:?}");
        assert_eq!(report.unrecoverable, 0);

        // A journal-less device file is rejected with a helpful message.
        let bare = dir.join("bare.bin");
        std::fs::write(&bare, vec![0u8; 512]).unwrap();
        let err = scrub_device(&scrub_args(&[]), &bare).unwrap_err();
        assert!(err.message.contains("--checkpoint"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn topk_and_pq_args_parse_and_validate() {
        let cli = parse_args(&args(&["topk", "in.xml", "-k", "10", "--default", "@id"])).unwrap();
        assert!(matches!(cli.command, Command::TopK { .. }));
        assert_eq!(cli.job.k, 10);
        let cli = parse_args(&args(&["topk", "in.xml", "--limit", "3"])).unwrap();
        assert_eq!(cli.job.k, 3);
        let cli = parse_args(&args(&["pq", "script.txt"])).unwrap();
        assert!(matches!(cli.command, Command::Pq { .. }));

        let err = parse_args(&args(&["topk", "in.xml"])).unwrap_err();
        assert!(err.contains("-k"), "{err}");
        assert!(parse_args(&args(&["topk", "in.xml", "-k", "0"])).is_err());
        let err = parse_args(&args(&["sort", "in.xml", "-k", "5"])).unwrap_err();
        assert!(err.contains("topk"), "{err}");

        // Server-side knobs stay scoped to their commands.
        let cli = parse_args(&args(&["serve", "--tenant-cap", "2"])).unwrap();
        assert_eq!(cli.tenant_cap, 2);
        assert!(parse_args(&args(&["sort", "x.xml", "--tenant-cap", "2"])).is_err());
        let cli = parse_args(&args(&[
            "client", "submit", "in.xml", "--op", "topk", "-k", "7", "--tenant", "acme",
        ]))
        .unwrap();
        assert_eq!(cli.job.op, JobOp::TopK);
        assert_eq!(cli.job.k, 7);
        assert_eq!(cli.job.tenant.as_deref(), Some("acme"));
        assert!(parse_args(&args(&["client", "submit", "in.xml", "--op", "topk"])).is_err());
        assert!(parse_args(&args(&["client", "submit", "in.xml", "--op", "frob"])).is_err());
        assert!(parse_args(&args(&["sort", "x.xml", "--op", "topk"])).is_err());
        assert!(parse_args(&args(&["sort", "x.xml", "--tenant", "acme"])).is_err());
    }

    #[test]
    fn topk_output_is_a_prefix_of_the_full_listing() {
        let dir = std::env::temp_dir().join(format!("xsort-tpk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let gen =
            parse_args(&args(&["gen", "exact:40,5", "--seed", "5", "-o", raw.to_str().unwrap()]))
                .unwrap();
        run(&gen).unwrap();

        let topk_with = |extra: &[&str], out: &Path| {
            let mut a = vec!["topk", raw.to_str().unwrap(), "-o", out.to_str().unwrap()];
            a.extend_from_slice(&["--default", "@k", "--block", "256", "--mem", "4K"]);
            a.extend_from_slice(extra);
            run(&parse_args(&args(&a)).unwrap()).unwrap();
            std::fs::read_to_string(out).unwrap()
        };
        let out = dir.join("out.txt");
        // A huge k degenerates to the whole sorted record listing; every
        // smaller k must be an exact prefix of it.
        let all = topk_with(&["-k", "100000"], &out);
        for k in ["1", "5", "25"] {
            let some = topk_with(&["-k", k], &out);
            assert_eq!(some.lines().count(), k.parse::<usize>().unwrap());
            assert!(all.starts_with(&some), "k={k} must be a prefix of the full listing");
        }
        // The crash/resume choreography carries over from sort.
        let resumed =
            topk_with(&["-k", "5", "--checkpoint", "--resume", "--crash-after-ios", "40"], &out);
        assert_eq!(resumed, topk_with(&["-k", "5"], &out));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pq_scripts_pop_in_sorted_fifo_order() {
        let dir = std::env::temp_dir().join(format!("xsort-cpq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("ops.txt");
        let out = dir.join("out.txt");
        std::fs::write(
            &script,
            "# a tiny interleave\npush b\npush a\npush c\npop\npeek\npush a\npop\npop\n",
        )
        .unwrap();
        let cli = parse_args(&args(&[
            "pq",
            script.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--block",
            "256",
            "--mem",
            "4K",
        ]))
        .unwrap();
        run(&cli).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "pop a\npeek b\npop a\npop b\nlen 1\n");
        // An unknown verb names its line.
        std::fs::write(&script, "push x\nshove y\n").unwrap();
        let err = run(&parse_args(&args(&[
            "pq",
            script.to_str().unwrap(),
            "--block",
            "256",
            "--mem",
            "4K",
        ]))
        .unwrap())
        .unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_arguments_error_out() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["frobnicate", "x.xml"])).is_err());
        assert!(parse_args(&args(&["sort"])).is_err());
        assert!(parse_args(&args(&["sort", "x.xml", "--algo", "bubble"])).is_err());
        assert!(parse_args(&args(&["sort", "x.xml", "--mem"])).is_err());
        assert!(parse_args(&args(&["sort", "x.xml", "--wat"])).is_err());
        assert!(parse_args(&args(&["sort", "x.xml", "--block", "8"])).is_err());
    }

    #[test]
    fn end_to_end_sort_merge_update_against_real_files() {
        let dir = std::env::temp_dir().join(format!("xsort-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.xml");
        let b = dir.join("b.xml");
        let out = dir.join("out.xml");
        std::fs::write(&a, b"<r><e id=\"2\" v=\"x\"/><e id=\"1\"/></r>").unwrap();
        std::fs::write(&b, b"<r><e id=\"3\"/><e id=\"2\" w=\"y\"/></r>").unwrap();

        // sort
        let cli = parse_args(&args(&[
            "sort",
            a.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--default",
            "@id:num",
        ]))
        .unwrap();
        run(&cli).unwrap();
        let sorted = std::fs::read_to_string(&out).unwrap();
        assert!(sorted.find("id=\"1\"").unwrap() < sorted.find("id=\"2\"").unwrap());

        // merge
        let cli = parse_args(&args(&[
            "merge",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--default",
            "@id:num",
        ]))
        .unwrap();
        run(&cli).unwrap();
        let merged = std::fs::read_to_string(&out).unwrap();
        assert!(merged.contains("id=\"1\"") && merged.contains("id=\"3\""));
        assert!(merged.contains("v=\"x\"") && merged.contains("w=\"y\""));
        assert_eq!(merged.matches("id=\"2\"").count(), 1, "2s merged: {merged}");

        // update with a delete
        let upd = dir.join("upd.xml");
        std::fs::write(&upd, b"<r><e id=\"1\" op=\"delete\"/></r>").unwrap();
        let cli = parse_args(&args(&[
            "update",
            a.to_str().unwrap(),
            upd.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--default",
            "@id:num",
        ]))
        .unwrap();
        run(&cli).unwrap();
        let updated = std::fs::read_to_string(&out).unwrap();
        assert!(!updated.contains("id=\"1\""));
        assert!(updated.contains("id=\"2\""));

        // sort with a file-backed device and the mergesort algorithm
        let dev = dir.join("device.bin");
        let cli = parse_args(&args(&[
            "sort",
            a.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--default",
            "@id:num",
            "--algo",
            "mergesort",
            "--device",
            dev.to_str().unwrap(),
        ]))
        .unwrap();
        run(&cli).unwrap();
        let sorted2 = std::fs::read_to_string(&out).unwrap();
        assert_eq!(sorted, sorted2, "both algorithms and devices agree");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn output_appears_at_the_path_only_when_the_command_succeeds() {
        let dir = std::env::temp_dir().join(format!("xsort-emit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("out.xml");
        let cli = parse_args(&args(&["gen", "exact:2", "-o", out.to_str().unwrap()])).unwrap();

        // Fails after writing more than one buffer's worth: nothing remains.
        let part = dir.join("out.xml.part");
        let failed = emit_with(&cli, |sink| {
            sink.write_all(&vec![b'x'; 3 * STREAM_BUF]).map_err(|e| e.to_string())?;
            Err("output phase failed".into())
        });
        assert_eq!(failed.unwrap_err().message, "output phase failed");
        assert!(!out.exists() && !part.exists());

        // A failure replaces nothing either: an earlier output survives it.
        emit(&cli, b"first").unwrap();
        assert!(emit_with(&cli, |_| Err("late failure".into())).is_err());
        assert_eq!(std::fs::read(&out).unwrap(), b"first");
        assert!(!part.exists());

        // A path that is not a regular file is written in place.
        let null = parse_args(&args(&["gen", "exact:2", "-o", "/dev/null"])).unwrap();
        emit(&null, b"discarded").unwrap();
        assert!(!Path::new("/dev/null.part").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod checkgen_tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn gen_then_sort_then_check_pipeline() {
        let dir = std::env::temp_dir().join(format!("xsort-cg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("raw.xml");
        let sorted = dir.join("sorted.xml");

        let cli =
            parse_args(&args(&["gen", "exact:8,4", "--seed", "3", "-o", raw.to_str().unwrap()]))
                .unwrap();
        run(&cli).unwrap();
        assert!(std::fs::metadata(&raw).unwrap().len() > 100);

        // An unsorted generated document fails the check...
        let cli = parse_args(&args(&["check", raw.to_str().unwrap(), "--default", "@k"])).unwrap();
        assert!(run(&cli).is_err());

        // ...and passes after sorting.
        let cli = parse_args(&args(&[
            "sort",
            raw.to_str().unwrap(),
            "--default",
            "@k",
            "-o",
            sorted.to_str().unwrap(),
        ]))
        .unwrap();
        run(&cli).unwrap();
        let cli =
            parse_args(&args(&["check", sorted.to_str().unwrap(), "--default", "@k"])).unwrap();
        run(&cli).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_supports_all_three_generators() {
        for shape in ["exact:3,2", "ibm:4,3,50", "auction:3"] {
            let dir = std::env::temp_dir().join(format!("xsort-g3-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let out = dir.join("g.xml");
            let cli = parse_args(&args(&["gen", shape, "-o", out.to_str().unwrap()])).unwrap();
            run(&cli).unwrap();
            let bytes = std::fs::read(&out).unwrap();
            assert!(nexsort_xml::parse_events(&bytes).is_ok(), "{shape}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn gen_rejects_bad_shapes() {
        for shape in ["exact:", "exact:a,b", "ibm:1", "auction:lots", "mystery:9"] {
            let cli = parse_args(&args(&["gen", shape])).unwrap();
            assert!(run(&cli).is_err(), "{shape} should fail");
        }
    }

    #[test]
    fn check_respects_depth_limit() {
        let dir = std::env::temp_dir().join(format!("xsort-cd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("d.xml");
        // Sorted at level 2, unsorted at level 3.
        std::fs::write(&f, b"<r><a k=\"1\"><c k=\"9\"/><c k=\"2\"/></a><a k=\"5\"/></r>").unwrap();
        let full = parse_args(&args(&["check", f.to_str().unwrap(), "--default", "@k"])).unwrap();
        assert!(run(&full).is_err());
        let limited =
            parse_args(&args(&["check", f.to_str().unwrap(), "--default", "@k", "--depth", "1"]))
                .unwrap();
        run(&limited).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
