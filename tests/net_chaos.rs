//! Network chaos harness for the hardened daemon edge (ISSUE PR 10).
//!
//! The daemon's wire protocol must deliver **exactly-once** job semantics
//! under every single-fault scenario the injector can produce: a dropped
//! connection, a torn frame, a corrupted byte, or a stalled response, at
//! *any* exchange of the protocol conversation, on either side of the
//! socket. The sweep below drives the same workload (submit -> wait ->
//! fetch -> stats -> shutdown) once per (fault kind, exchange index) pair
//! and asserts, for every run:
//!
//! - the job completes exactly once (`submitted == 1`, `done == 1`; a
//!   retried submit that lost only its ACK adopts the existing job via the
//!   idempotency token instead of creating a twin);
//! - the fetched output is byte-identical to a one-shot in-process sort;
//! - the job directory holds exactly one `job-*` entry -- no duplicates.
//!
//! The daemon's locks are plain `std::sync` mutexes whose discipline the
//! compiler and xlint R11-R14 hold statically; the disk's block liveness
//! check is always on in every run.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::stage_input;
use nexsort_extmem::DiskBuilder;
use nexsort_server::json::{n, obj, s, Value};
use nexsort_server::{
    connect_with_retry, request_with_retry, request_with_retry_injected, serve_with, submit_value,
    ClientOptions, JobInput, JobSpec, NetFaultKind, NetFaultPlan, NetFaultState, NetRetryPolicy,
    ServeOptions, Server, ServerConfig,
};
use nexsort_xml::build_spec;

/// Small blocks so even a small document takes real merge work.
const BLOCK: usize = 256;

/// Every fault kind the injector knows, in sweep order.
const KINDS: [NetFaultKind; 4] =
    [NetFaultKind::Disconnect, NetFaultKind::TornFrame, NetFaultKind::Corrupt, NetFaultKind::Stall];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nxchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn flat_doc(n: usize, seed: u64) -> Vec<u8> {
    let mut doc = String::from("<root>");
    let mut z = seed;
    for i in 0..n {
        z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        doc.push_str(&format!(
            "<item k=\"{:04}\" pad=\"xxxxxxxx\"/>",
            (z >> 33) as usize % (4 * n) + i % 2
        ));
    }
    doc.push_str("</root>");
    doc.into_bytes()
}

fn chaos_spec(doc_seed: u64) -> JobSpec {
    JobSpec {
        input: JobInput::Inline(flat_doc(120, doc_seed)),
        default_rule: Some("@k:num".into()),
        block_size: BLOCK,
        mem_frames: 8,
        degeneration: true,
        ..JobSpec::default()
    }
}

/// Ground truth: the same document through a one-shot in-process sort.
fn one_shot(spec: &JobSpec) -> Vec<u8> {
    let JobInput::Inline(xml) = &spec.input else { unreachable!() };
    let stack = DiskBuilder::new(spec.block_size).build().unwrap();
    let input = stage_input(&stack.disk, xml).unwrap();
    let criterion = build_spec(spec.default_rule.as_deref(), &spec.keys).unwrap();
    let opts = NexsortOptions {
        mem_frames: spec.mem_frames,
        degeneration: spec.degeneration,
        ..Default::default()
    };
    let sorter = Nexsort::new(stack.disk.clone(), opts, criterion).unwrap();
    sorter.sort_xml_extent(&input).unwrap().to_xml(false).unwrap()
}

/// Boot a daemon over `dir` on a fresh Unix socket and wait until it
/// answers a ping (the shared startup helper -- no hand-rolled polling).
fn start_daemon(
    dir: &Path,
    opts: ServeOptions,
) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let sock = format!("unix:{}", dir.join("chaos.sock").display());
    let server = Server::open(ServerConfig::new(2, dir)).unwrap();
    let handle = std::thread::spawn({
        let sock = sock.clone();
        move || serve_with(server, &sock, opts)
    });
    connect_with_retry(&sock, &NetRetryPolicy::retries(300, 10, 7)).unwrap();
    (sock, handle)
}

fn ok_of(resp: &Value) -> bool {
    resp.get("ok").and_then(Value::as_bool) == Some(true)
}

fn stat_of(resp: &Value, field: &str) -> u64 {
    resp.get("stats").and_then(|st| st.get(field)).and_then(Value::as_u64).unwrap_or_else(|| {
        panic!("stats response lacks {field:?}: {}", resp.to_json());
    })
}

fn job_dirs(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("job-"))
        .count()
}

/// The startup ping `connect_with_retry` sends consumes the daemon's first
/// exchange; conversation indices below are relative to the exchange after
/// it. (Sweep plans must never fault exchange 0, or startup itself would
/// consume a variable number of exchanges and shift every later index.)
const STARTUP_EXCHANGES: u64 = 1;

/// One full protocol conversation against a daemon with `plan` injected
/// into its responses. Returns (fetched output, final stats response).
fn run_workload(dir: &Path, plan: Option<NetFaultPlan>, seed: u64) -> (Vec<u8>, Value) {
    let opts = ServeOptions { fault_plan: plan, ..ServeOptions::default() };
    let (sock, daemon) = start_daemon(dir, opts);
    let copts = ClientOptions::retries(6, 2, seed);
    let spec = chaos_spec(seed);

    // Exchange 0: submit (auto idempotency token -- the retry policy is on).
    let resp = request_with_retry(&sock, &submit_value(&spec), &copts).unwrap();
    assert!(ok_of(&resp), "submit: {}", resp.to_json());
    let id = resp.get("id").and_then(Value::as_u64).unwrap();

    // Exchange 1: wait until the job is terminal.
    let req = obj(vec![("op", s("wait")), ("id", n(id)), ("timeout_ms", n(120_000u64))]);
    let resp = request_with_retry(&sock, &req, &copts).unwrap();
    assert!(ok_of(&resp), "wait: {}", resp.to_json());
    assert_eq!(
        resp.get("job").and_then(|j| j.get("state")).and_then(Value::as_str),
        Some("done"),
        "{}",
        resp.to_json()
    );

    // Exchange 2: fetch the sorted bytes.
    let req = obj(vec![("op", s("fetch")), ("id", n(id))]);
    let resp = request_with_retry(&sock, &req, &copts).unwrap();
    assert!(ok_of(&resp), "fetch: {}", resp.to_json());
    let output = resp.get("output").and_then(Value::as_str).unwrap().as_bytes().to_vec();

    // Exchange 3: stats (a faulted stats reply is retried, so the snapshot
    // the client keeps always post-dates the injected fault).
    let req = obj(vec![("op", s("stats"))]);
    let stats = request_with_retry(&sock, &req, &copts).unwrap();
    assert!(ok_of(&stats), "stats: {}", stats.to_json());

    // Exchange 4: shutdown. A faulted ACK must not stop the daemon -- the
    // retried, delivered ACK does.
    let req = obj(vec![("op", s("shutdown"))]);
    let resp = request_with_retry(&sock, &req, &copts).unwrap();
    assert!(ok_of(&resp), "shutdown: {}", resp.to_json());
    daemon.join().unwrap().unwrap();
    (output, stats)
}

#[test]
fn server_side_fault_sweep_keeps_jobs_exactly_once_and_byte_identical() {
    // The clean conversation has five exchanges (submit, wait, fetch,
    // stats, shutdown). Sweep every fault kind over indices 0..6: index 5
    // exists only when a retry added exchanges, which doubles as the
    // "fault scheduled past the conversation" control run.
    let want = one_shot(&chaos_spec(1000));
    for (k, kind) in KINDS.into_iter().enumerate() {
        for index in 0..6u64 {
            let tag = format!("sweep-{k}-{index}");
            let dir = tmpdir(&tag);
            let plan = NetFaultPlan::new(0xC0_FFEE ^ index)
                .stall_ms(5)
                .at_exchange(STARTUP_EXCHANGES + index, kind);
            let seed = 1000; // same document every run: outputs must agree
            let (output, stats) = run_workload(&dir, Some(plan), seed);
            assert_eq!(
                output, want,
                "{kind:?}@{index}: daemon output differs from the one-shot sort"
            );
            // Exactly once: one job submitted, one done, one directory on
            // disk -- no matter which exchange the fault hit.
            assert_eq!(stat_of(&stats, "submitted"), 1, "{kind:?}@{index}");
            assert_eq!(stat_of(&stats, "done"), 1, "{kind:?}@{index}");
            assert_eq!(job_dirs(&dir), 1, "{kind:?}@{index}: duplicate job directories");
            // Faults at pre-stats exchanges are visible in the snapshot the
            // client kept (a destroyed stats reply is retried, so that
            // snapshot also post-dates the fault; a *stalled* stats reply is
            // delivered as-is and predates its own fault's counter bump).
            if index < 3 || (index == 3 && kind != NetFaultKind::Stall) {
                assert!(
                    stat_of(&stats, "conns_faulted") >= 1,
                    "{kind:?}@{index}: fault never fired"
                );
            }
            // A faulted submit ACK forces a duplicate submit, which the
            // idempotency token must have absorbed.
            if index == 0 && kind != NetFaultKind::Stall {
                assert!(
                    stat_of(&stats, "duplicate_submits") >= 1,
                    "{kind:?}@{index}: retried submit was not deduplicated"
                );
                assert!(stat_of(&stats, "client_retries") >= 1, "{kind:?}@{index}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn client_side_request_faults_are_survived_by_the_retry_loop() {
    // The mirror sweep: the *request* is dropped, torn, corrupted, or
    // stalled before it reaches an entirely healthy daemon. Every kind is
    // scripted onto the first attempt; the retry loop must converge to
    // exactly one job per submit.
    let dir = tmpdir("client-faults");
    let (sock, daemon) = start_daemon(&dir, ServeOptions::default());
    let copts = ClientOptions::retries(6, 2, 99);
    let want = one_shot(&chaos_spec(2000));

    let mut ids = Vec::new();
    for (k, kind) in KINDS.into_iter().enumerate() {
        let injector = Mutex::new(NetFaultState::new(
            NetFaultPlan::new(7 + k as u64).stall_ms(5).at_exchange(0, kind),
        ));
        let mut spec = chaos_spec(2000);
        spec.idem = Some(format!("client-fault-{k}"));
        let resp =
            request_with_retry_injected(&sock, &submit_value(&spec), &copts, Some(&injector))
                .unwrap();
        assert!(ok_of(&resp), "{kind:?}: {}", resp.to_json());
        ids.push(resp.get("id").and_then(Value::as_u64).unwrap());
    }
    // Distinct tokens, distinct jobs: the injector never collapsed two
    // different submits, and never duplicated one.
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "distinct submits must get distinct jobs");

    for id in &ids {
        let req = obj(vec![("op", s("wait")), ("id", n(*id)), ("timeout_ms", n(120_000u64))]);
        let resp = request_with_retry(&sock, &req, &copts).unwrap();
        assert_eq!(
            resp.get("job").and_then(|j| j.get("state")).and_then(Value::as_str),
            Some("done"),
            "{}",
            resp.to_json()
        );
        let req = obj(vec![("op", s("fetch")), ("id", n(*id))]);
        let resp = request_with_retry(&sock, &req, &copts).unwrap();
        assert_eq!(
            resp.get("output").and_then(Value::as_str).map(str::as_bytes),
            Some(want.as_slice()),
            "job {id}: output differs"
        );
    }

    let stats = request_with_retry(&sock, &obj(vec![("op", s("stats"))]), &copts).unwrap();
    assert_eq!(stat_of(&stats, "submitted"), KINDS.len() as u64);
    assert_eq!(stat_of(&stats, "done"), KINDS.len() as u64);
    assert_eq!(job_dirs(&dir), KINDS.len(), "duplicate job directories");

    let resp = request_with_retry(&sock, &obj(vec![("op", s("shutdown"))]), &copts).unwrap();
    assert!(ok_of(&resp));
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulted_drain_ack_still_drains_exactly_once() {
    // The drain ACK is dropped on the floor; the client retries, the second
    // drain is an idempotent no-op (the daemon is already drained), and the
    // delivered ACK stops the accept loop. A restart over the directory
    // finds the job finished -- nothing is redone.
    let dir = tmpdir("drain-ack");
    // Conversation: submit(0), wait(1), drain(2: dropped), drain(3: ok).
    let plan =
        NetFaultPlan::new(0xD12A).at_exchange(STARTUP_EXCHANGES + 2, NetFaultKind::Disconnect);
    let opts = ServeOptions { fault_plan: Some(plan), ..ServeOptions::default() };
    let (sock, daemon) = start_daemon(&dir, opts);
    let copts = ClientOptions::retries(6, 2, 3);
    let spec = chaos_spec(3000);
    let want = one_shot(&spec);

    let resp = request_with_retry(&sock, &submit_value(&spec), &copts).unwrap();
    let id = resp.get("id").and_then(Value::as_u64).unwrap();
    let req = obj(vec![("op", s("wait")), ("id", n(id)), ("timeout_ms", n(120_000u64))]);
    let resp = request_with_retry(&sock, &req, &copts).unwrap();
    assert!(ok_of(&resp), "{}", resp.to_json());

    let req = obj(vec![("op", s("shutdown")), ("mode", s("drain")), ("timeout_ms", n(120_000u64))]);
    let resp = request_with_retry(&sock, &req, &copts).unwrap();
    assert!(ok_of(&resp), "{}", resp.to_json());
    assert_eq!(resp.get("drained").and_then(Value::as_bool), Some(true));
    daemon.join().unwrap().unwrap();

    let server = Server::open(ServerConfig::new(2, &dir)).unwrap();
    assert!(server.wait_idle(std::time::Duration::from_secs(60)));
    let st = server.wait(id, std::time::Duration::from_secs(10)).unwrap();
    assert_eq!(st.state, nexsort_server::JobState::Done, "{:?}", st.error);
    assert!(!st.resumed, "the job finished before the drain; nothing to resume");
    assert_eq!(server.fetch_output(id).unwrap(), want);
    assert_eq!(job_dirs(&dir), 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
