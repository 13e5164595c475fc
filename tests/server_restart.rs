//! The sort daemon's two headline promises (ISSUE PR 7):
//!
//! 1. **Concurrency without drift**: jobs running concurrently on real
//!    worker threads under one arbitrated memory budget -- across cache,
//!    striping, and parity configurations -- produce output
//!    byte-identical to a one-shot in-process sort of the same document.
//! 2. **Kill-9 restart**: a daemon that dies mid-flight (modeled by the
//!    per-job crash hook freezing each job's device, the in-process
//!    stand-in for SIGKILL) restarts over the same job directory, adopts
//!    every unfinished job from its manifest, and resumes each one from
//!    its write-ahead journal to byte-identical output -- without redoing
//!    any committed merge pass.
//!
//! Every device stack the workers build checks block liveness on each
//! transfer (always on), so a resume that touches a freed block fails.

use std::path::PathBuf;
use std::time::Duration;

use nexsort::{Nexsort, NexsortOptions, SortReport};
use nexsort_baseline::stage_input;
use nexsort_extmem::DiskBuilder;
use nexsort_server::json::Value;
use nexsort_server::{
    connect_with_retry, request_with_retry, submit_value, ClientOptions, JobInput, JobSpec,
    JobState, NetRetryPolicy, Server, ServerConfig,
};
use nexsort_xml::build_spec;

/// Small blocks so a few-hundred-element document still needs real merge
/// passes (same choice as the crash_recovery suite).
const BLOCK: usize = 256;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nxsrv-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A flat document with seed-scrambled keys: under `degeneration` it spills
/// incomplete runs and needs intermediate merges, so crash points land in
/// every journalled phase.
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

/// The ground truth: a one-shot, in-memory, single-threaded sort with the
/// same ordering criterion and memory geometry. Sorted bytes must not
/// depend on cache/stripe/parity choices, so the baseline uses
/// none of them.
fn one_shot(xml: &[u8], spec: &JobSpec) -> (Vec<u8>, SortReport) {
    let stack = DiskBuilder::new(spec.block_size).build().unwrap();
    let input = stage_input(&stack.disk, xml).unwrap();
    let criterion = build_spec(spec.default_rule.as_deref(), &spec.keys).unwrap();
    let opts = NexsortOptions {
        mem_frames: spec.mem_frames,
        threshold: spec.threshold,
        depth_limit: spec.depth_limit,
        degeneration: spec.degeneration,
        ..Default::default()
    };
    let sorter = Nexsort::new(stack.disk.clone(), opts, criterion).unwrap();
    let doc = sorter.sort_xml_extent(&input).unwrap();
    (doc.to_xml(spec.pretty).unwrap(), doc.report.clone())
}

/// Mixed job configurations exercising every device-stack feature the
/// builder offers, all with the same memory geometry.
fn mixed_specs(crashes: Option<&[u64]>) -> Vec<JobSpec> {
    let base =
        JobSpec { block_size: BLOCK, mem_frames: 8, degeneration: true, ..JobSpec::default() };
    let mut specs = vec![
        // Bare device, document order by numeric key.
        JobSpec {
            input: JobInput::Inline(flat_doc(300, 1)),
            default_rule: Some("@k:num".into()),
            ..base.clone()
        },
        // Write-back page cache with clock eviction.
        JobSpec {
            input: JobInput::Inline(flat_doc(340, 2)),
            default_rule: Some("@k".into()),
            cache_frames: 16,
            cache_policy: nexsort_extmem::CachePolicy::Clock,
            write_back: true,
            ..base.clone()
        },
        // Three-way striped device file set.
        JobSpec {
            input: JobInput::Inline(flat_doc(320, 3)),
            default_rule: Some("@k:desc".into()),
            stripe: 3,
            ..base.clone()
        },
        // Parity-protected runs (self-healing storage).
        JobSpec {
            input: JobInput::Inline(flat_doc(360, 4)),
            default_rule: Some("@k:num:desc".into()),
            parity_group: 2,
            ..base.clone()
        },
        // Write-back page cache over a four-way stripe.
        JobSpec {
            input: JobInput::Inline(flat_doc(280, 5)),
            default_rule: Some("@k".into()),
            cache_frames: 8,
            write_back: true,
            stripe: 4,
            ..base.clone()
        },
    ];
    if let Some(points) = crashes {
        for (spec, &at) in specs.iter_mut().zip(points) {
            spec.crash_after_ios = Some(at);
        }
    }
    specs
}

#[test]
fn concurrent_jobs_match_one_shot_sorts() {
    let dir = tmpdir("conc");
    let server = Server::start(ServerConfig::new(4, &dir)).unwrap();
    let specs = mixed_specs(None);
    let expected: Vec<Vec<u8>> = specs
        .iter()
        .map(|spec| {
            let JobInput::Inline(xml) = &spec.input else { unreachable!() };
            one_shot(xml, spec).0
        })
        .collect();
    let ids: Vec<u64> = specs.into_iter().map(|spec| server.submit(spec).unwrap()).collect();
    for (id, want) in ids.iter().zip(&expected) {
        let st = server.wait(*id, Duration::from_secs(120)).unwrap();
        assert_eq!(st.state, JobState::Done, "job {id}: {:?}", st.error);
        assert_eq!(
            &server.fetch_output(*id).unwrap(),
            want,
            "job {id}: daemon output differs from the one-shot sort"
        );
        assert!(st.report.is_some() && st.latency.is_some());
    }
    let stats = server.stats();
    assert_eq!(stats.done, 5);
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.failed + stats.interrupted + stats.canceled, 0);
    // Every job leased at least its 8 sort frames from the shared budget.
    assert!(stats.budget_high_water >= 8, "high water {}", stats.budget_high_water);
    assert_eq!(stats.budget_used, 0, "all leases returned");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_restarts_and_resumes_every_job() {
    let dir = tmpdir("kill");
    // Crash points spread across the sort: early scan, mid-run-formation,
    // and deep into the merge passes. Every job's device freezes there --
    // exactly the image a SIGKILL leaves on disk.
    let crash_points = [40u64, 80, 120, 160, 200];
    let specs = mixed_specs(Some(&crash_points));
    let baselines: Vec<(Vec<u8>, SortReport)> = specs
        .iter()
        .map(|spec| {
            let JobInput::Inline(xml) = &spec.input else { unreachable!() };
            one_shot(xml, spec)
        })
        .collect();

    let cfg = ServerConfig::new(4, &dir);
    let server = Server::open(cfg.clone()).unwrap();
    let ids: Vec<u64> = specs.into_iter().map(|spec| server.submit(spec).unwrap()).collect();
    for id in &ids {
        let st = server.wait(*id, Duration::from_secs(120)).unwrap();
        assert_eq!(
            st.state,
            JobState::Interrupted,
            "job {id} should have frozen mid-sort: {:?}",
            st.error
        );
    }
    assert_eq!(server.stats().interrupted, ids.len());
    // The daemon dies. Running jobs are frozen on their device files;
    // manifests and journals are the only survivors.
    server.shutdown();

    // Restart over the same job directory: every interrupted job is
    // adopted, re-queued, and resumed from its journal.
    let server = Server::open(cfg).unwrap();
    assert!(
        server.wait_idle(Duration::from_secs(240)),
        "restarted daemon never drained its adopted jobs"
    );
    for ((id, (want, base)), at) in ids.iter().zip(&baselines).zip(&crash_points) {
        let st = server.wait(*id, Duration::from_secs(10)).unwrap();
        assert_eq!(st.state, JobState::Done, "job {id} (crash at {at}): {:?}", st.error);
        assert!(st.resumed, "job {id} must have gone through journal resume");
        assert_eq!(
            &server.fetch_output(*id).unwrap(),
            want,
            "job {id} (crash at {at}): resumed output is not bit-identical"
        );
        let report = st.report.expect("resumed job carries a report");
        assert!(report.resumed);
        // No committed merge pass is redone: the resume's own merges plus
        // the journal-committed passes it skipped equal the uninterrupted
        // run's pass count.
        assert_eq!(
            report.degenerate_merges + report.committed_passes_skipped,
            base.degenerate_merges,
            "job {id} (crash at {at}): merge-pass accounting"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.done, ids.len());
    assert_eq!(stats.resumed, ids.len() as u64);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_back_job_killed_before_any_eviction_resumes_from_its_staged_input() {
    // The pool is part of the job's stack from the start, so staging writes
    // land in write-back frames. A pool big enough to hold the whole input
    // and a crash on the sort's first physical I/O leave nothing but the
    // device file: the staged extent the manifest records must already be
    // on it, or the restart resumes from blocks that were never written.
    let dir = tmpdir("wbstage");
    let spec = JobSpec {
        input: JobInput::Inline(flat_doc(300, 13)),
        default_rule: Some("@k:num".into()),
        block_size: BLOCK,
        mem_frames: 8,
        degeneration: true,
        cache_frames: 96,
        write_back: true,
        crash_after_ios: Some(1),
        ..JobSpec::default()
    };
    let (want, _) = {
        let JobInput::Inline(xml) = &spec.input else { unreachable!() };
        one_shot(xml, &spec)
    };
    let cfg = ServerConfig::new(1, &dir);
    let server = Server::open(cfg.clone()).unwrap();
    let id = server.submit(spec).unwrap();
    let st = server.wait(id, Duration::from_secs(120)).unwrap();
    assert_eq!(st.state, JobState::Interrupted, "{:?}", st.error);
    server.shutdown();

    let server = Server::open(cfg).unwrap();
    let st = server.wait(id, Duration::from_secs(120)).unwrap();
    assert_eq!(st.state, JobState::Done, "{:?}", st.error);
    assert!(st.resumed);
    assert_eq!(server.fetch_output(id).unwrap(), want, "resumed from a torn input");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_also_reruns_jobs_that_never_started() {
    // A job killed while still queued (manifest written, no worker yet) has
    // no journal to resume from; the restart must re-run it from the input
    // copy instead of wedging.
    let dir = tmpdir("queued");
    let mut cfg = ServerConfig::new(1, &dir);
    cfg.queue_depth = 8;
    let spec = JobSpec {
        input: JobInput::Inline(flat_doc(120, 9)),
        default_rule: Some("@k:num".into()),
        block_size: BLOCK,
        mem_frames: 8,
        ..JobSpec::default()
    };
    let (want, _) = {
        let JobInput::Inline(xml) = &spec.input else { unreachable!() };
        one_shot(xml, &spec)
    };
    // Write the manifest exactly as submit would, but never hand it to a
    // live server: this *is* the killed-while-queued state on disk.
    let id = 0u64;
    let job_dir = dir.join(format!("job-{id}"));
    std::fs::create_dir_all(&job_dir).unwrap();
    let JobInput::Inline(xml) = &spec.input else { unreachable!() };
    std::fs::write(job_dir.join("input.xml"), xml).unwrap();
    let mut stored = spec.clone();
    stored.input = JobInput::Path(job_dir.join("input.xml"));
    nexsort_server::Manifest {
        id,
        state: JobState::Queued,
        spec: stored,
        staged: None,
        error: None,
        resumed: false,
        summary: None,
        latency_ms: None,
    }
    .store(&job_dir)
    .unwrap();

    let server = Server::open(cfg).unwrap();
    let st = server.wait(id, Duration::from_secs(120)).unwrap();
    assert_eq!(st.state, JobState::Done, "{:?}", st.error);
    assert!(!st.resumed, "a never-started job re-runs fresh, not via resume");
    assert_eq!(server.fetch_output(id).unwrap(), want);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drained_daemon_restarts_without_redoing_committed_work() {
    // Graceful drain is the polite sibling of kill-9: the daemon stops
    // admitting, lets running jobs reach a stopping point, and exits. A
    // restart over the same job directory must then behave exactly like the
    // kill-9 restart -- byte-identical output, no committed pass redone.
    //
    // The whole exchange runs over the socket: startup uses the shared
    // `connect_with_retry` helper (no hand-rolled polling), and the client
    // side goes through the retrying `request_with_retry` path.
    use nexsort_server::json::{n, obj, s};
    let dir = tmpdir("drain");
    let sock = format!("unix:{}", dir.join("drain.sock").display());

    // One job that freezes mid-merge (the in-process SIGKILL stand-in) and
    // one that completes cleanly while the drain waits for it.
    let base =
        JobSpec { block_size: BLOCK, mem_frames: 8, degeneration: true, ..JobSpec::default() };
    let crash_spec = JobSpec {
        input: JobInput::Inline(flat_doc(340, 11)),
        default_rule: Some("@k:num".into()),
        crash_after_ios: Some(140),
        ..base.clone()
    };
    let clean_spec = JobSpec {
        input: JobInput::Inline(flat_doc(200, 12)),
        default_rule: Some("@k".into()),
        ..base.clone()
    };
    let (crash_want, crash_base) = {
        let JobInput::Inline(xml) = &crash_spec.input else { unreachable!() };
        one_shot(xml, &crash_spec)
    };
    let (clean_want, _) = {
        let JobInput::Inline(xml) = &clean_spec.input else { unreachable!() };
        one_shot(xml, &clean_spec)
    };

    let cfg = ServerConfig::new(2, &dir);
    let server = Server::open(cfg.clone()).unwrap();
    let daemon = std::thread::spawn({
        let sock = sock.clone();
        move || nexsort_server::serve(server, &sock)
    });
    connect_with_retry(&sock, &NetRetryPolicy::retries(300, 10, 7)).unwrap();

    let copts = ClientOptions::retries(3, 5, 42);
    let submit = |spec: &JobSpec| -> u64 {
        let resp = request_with_retry(&sock, &submit_value(spec), &copts).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.to_json());
        resp.get("id").and_then(Value::as_u64).unwrap()
    };
    let crash_id = submit(&crash_spec);
    let clean_id = submit(&clean_spec);

    // The crash job must have started (and frozen) before the drain, or
    // the restart would re-run it fresh instead of resuming its journal.
    let req = obj(vec![("op", s("wait")), ("id", n(crash_id)), ("timeout_ms", n(120_000u64))]);
    let resp = request_with_retry(&sock, &req, &copts).unwrap();
    assert_eq!(
        resp.get("job").and_then(|j| j.get("state")).and_then(Value::as_str),
        Some("interrupted"),
        "{}",
        resp.to_json()
    );

    // Drain: running jobs reach a stopping point (the crash job froze,
    // the clean one finishes), then the daemon exits its accept loop.
    let req = obj(vec![("op", s("shutdown")), ("mode", s("drain")), ("timeout_ms", n(120_000u64))]);
    let resp = request_with_retry(&sock, &req, &copts).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{}", resp.to_json());
    assert_eq!(resp.get("drained").and_then(Value::as_bool), Some(true), "drain timed out");
    daemon.join().unwrap().unwrap();

    // Restart over the same directory: the frozen job resumes from its
    // journal, the finished one is simply adopted as done.
    let server = Server::open(cfg).unwrap();
    assert!(server.wait_idle(Duration::from_secs(240)), "restarted daemon never went idle");
    let st = server.wait(crash_id, Duration::from_secs(10)).unwrap();
    assert_eq!(st.state, JobState::Done, "{:?}", st.error);
    assert!(st.resumed, "the drained-while-frozen job must resume via its journal");
    assert_eq!(server.fetch_output(crash_id).unwrap(), crash_want);
    let report = st.report.expect("resumed job carries a report");
    assert_eq!(
        report.degenerate_merges + report.committed_passes_skipped,
        crash_base.degenerate_merges,
        "drain + restart must not redo a committed merge pass"
    );
    let st = server.wait(clean_id, Duration::from_secs(10)).unwrap();
    assert_eq!(st.state, JobState::Done, "{:?}", st.error);
    assert_eq!(server.fetch_output(clean_id).unwrap(), clean_want);
    // A drained server no longer admits; the refusal is the retryable-busy
    // kind so a retrying client backs off instead of erroring out.
    server.begin_drain();
    match server.submit(clean_spec.clone()) {
        Err(nexsort_server::SubmitError::Busy(msg)) => {
            assert!(msg.contains("draining"), "{msg}")
        }
        other => panic!("submit during drain should be busy, got {other:?}"),
    }
    assert!(server.stats().draining);
    assert_eq!(server.stats().drains, 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_keeps_finished_jobs_reports_and_counts() {
    // Finished jobs live in their manifests, not in the daemon's memory: a
    // restarted daemon must answer for them exactly as the old one did.
    let dir = tmpdir("history");
    let cfg = ServerConfig::new(2, &dir);
    let server = Server::open(cfg.clone()).unwrap();
    let mut specs = mixed_specs(None);
    specs.truncate(2);
    specs.push(JobSpec {
        input: JobInput::Inline(b"<root><item k=\"1\">unclosed".to_vec()),
        default_rule: Some("@k".into()),
        ..specs[0].clone()
    });
    let ids: Vec<u64> = specs.into_iter().map(|spec| server.submit(spec).unwrap()).collect();
    let before: Vec<_> =
        ids.iter().map(|&id| server.wait(id, Duration::from_secs(120)).unwrap()).collect();
    let states: Vec<JobState> = before.iter().map(|st| st.state).collect();
    assert_eq!(states, [JobState::Done, JobState::Done, JobState::Failed]);
    let stats = server.stats();
    server.shutdown();

    let server = Server::open(cfg).unwrap();
    for (id, old) in ids.iter().zip(&before) {
        for st in [server.status(*id).unwrap(), server.wait(*id, Duration::ZERO).unwrap()] {
            assert_eq!(st.state, old.state, "job {id}");
            assert_eq!(st.error, old.error, "job {id}");
            assert_eq!(st.report, old.report, "job {id}: the summary must survive the restart");
            assert_eq!(st.latency, old.latency, "job {id}");
        }
    }
    assert!(before[0].report.is_some() && before[1].report.is_some());
    let again = server.stats();
    assert_eq!(
        (again.done, again.failed, again.canceled),
        (stats.done, stats.failed, stats.canceled)
    );
    assert_eq!((again.done, again.failed), (2, 1));
    assert_eq!(server.list().len(), ids.len());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
