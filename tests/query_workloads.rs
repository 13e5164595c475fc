//! Query-operator workloads (ISSUE PR 8): the `nexsort-query` operators
//! exercised end to end, in process and through the sort daemon.
//!
//! 1. **Top-k = sort | head -k**: on every tested device stack (bare,
//!    striped, write-back cache, parity-protected), the top-k operator's
//!    records are byte-identical to the first k records of a full sort of
//!    the same document -- while doing strictly less logical I/O at small k.
//! 2. **Pq = ordered map**: an interleaved push/pop/peek script against the
//!    external priority queue matches a `BTreeMap` oracle exactly,
//!    including FIFO order among equal keys.
//! 3. **Kill-9**: a daemon dying mid-topk resumes the job from its journal
//!    to identical output; a daemon dying mid-pq redoes the script
//!    deterministically. Both are modeled by the per-job crash hook.
//!
//! Every device stack checks block liveness on each transfer (always on),
//! so an operator that touches a freed block fails.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;

use nexsort::{Nexsort, NexsortOptions};
use nexsort_baseline::stage_input;
use nexsort_extmem::{CachePolicy, Disk, DiskBuilder, WriteMode};
use nexsort_query::{ExtPq, TopK};
use nexsort_server::{JobInput, JobOp, JobSpec, JobState, Server, ServerConfig};
use nexsort_xml::{Rec, SortSpec};

const BLOCK: usize = 256;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nxquery-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec() -> SortSpec {
    SortSpec::by_attribute("k")
}

/// A flat document with seed-scrambled keys, large enough to spill runs
/// under 8-10 frames of memory.
fn flat_doc(n: usize, seed: u64) -> Vec<u8> {
    let mut doc = String::from("<root>");
    let mut z = seed;
    for i in 0..n {
        z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        doc.push_str(&format!(
            "<item k=\"{:05}\" pad=\"xxxxxxxx\"/>",
            (z >> 33) as usize % (4 * n) + i % 2
        ));
    }
    doc.push_str("</root>");
    doc.into_bytes()
}

/// The device stacks the acceptance criteria call out: bare, striped,
/// write-back cached, and combinations; parity rides in via the operator
/// options where noted.
fn stacks() -> Vec<(&'static str, DiskBuilder, usize)> {
    vec![
        ("bare", DiskBuilder::new(BLOCK), 0),
        ("striped", DiskBuilder::new(BLOCK).stripe(3), 0),
        ("write-back", DiskBuilder::new(BLOCK).cache(8, CachePolicy::Clock, WriteMode::Back), 0),
        ("parity", DiskBuilder::new(BLOCK), 2),
        (
            "striped+write-back+parity",
            DiskBuilder::new(BLOCK).stripe(3).cache(8, CachePolicy::Lru, WriteMode::Back),
            2,
        ),
    ]
}

fn full_sort_recs(disk: &Rc<Disk>, xml: &[u8], parity_group: usize) -> (Vec<Rec>, u64) {
    let input = stage_input(disk, xml).unwrap();
    let opts =
        NexsortOptions { mem_frames: 10, degeneration: true, parity_group, ..Default::default() };
    let doc = Nexsort::new(disk.clone(), opts, spec()).unwrap().sort_xml_extent(&input).unwrap();
    let ios = doc.report.total_ios();
    (doc.to_recs().unwrap(), ios)
}

#[test]
fn topk_equals_sort_head_k_on_mixed_stacks() {
    let xml = flat_doc(500, 7);
    for (name, builder, parity_group) in stacks() {
        let disk = builder.clone().build().unwrap().disk;
        let (full, full_ios) = full_sort_recs(&disk, &xml, parity_group);
        for k in [1u64, 9, 50, 250, 10_000] {
            let disk = builder.clone().build().unwrap().disk;
            let input = stage_input(&disk, &xml).unwrap();
            let opts = NexsortOptions { mem_frames: 10, parity_group, ..Default::default() };
            let doc = TopK::new(disk, opts, spec(), k).unwrap().topk_xml_extent(&input).unwrap();
            let got = doc.to_recs().unwrap();
            let want: Vec<Rec> = full.iter().take(k as usize).cloned().collect();
            assert_eq!(got, want, "stack {name}, k={k}: {}", doc.report.summary());
            if k <= full.len() as u64 / 10 {
                assert!(
                    doc.report.total_ios() < full_ios,
                    "stack {name}, k={k}: topk {} ios vs full sort {full_ios}",
                    doc.report.total_ios()
                );
            }
        }
    }
}

/// A deterministic interleaved pq script plus the transcript a `BTreeMap`
/// oracle produces for it: `(key, insertion seq)` ordering is exactly the
/// queue's sorted-FIFO contract.
fn pq_script_and_oracle(steps: usize, seed: u64) -> (String, String) {
    let mut script = String::new();
    let mut oracle: BTreeMap<(Vec<u8>, u64), ()> = BTreeMap::new();
    let mut want = String::new();
    let mut seq = 0u64;
    let mut z = seed;
    for _ in 0..steps {
        z = z.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        match (z >> 33) % 5 {
            0..=2 => {
                // Small key space so duplicates exercise FIFO order.
                let key = format!("key{:03}", (z >> 40) % 40);
                script.push_str(&format!("push {key}\n"));
                oracle.insert((key.into_bytes(), seq), ());
                seq += 1;
            }
            3 => {
                script.push_str("pop\n");
                match oracle.pop_first() {
                    Some(((key, _), ())) => {
                        want.push_str(&format!("pop {}\n", String::from_utf8_lossy(&key)))
                    }
                    None => want.push_str("pop -\n"),
                }
            }
            _ => {
                script.push_str("peek\n");
                match oracle.first_key_value() {
                    Some(((key, _), ())) => {
                        want.push_str(&format!("peek {}\n", String::from_utf8_lossy(key)))
                    }
                    None => want.push_str("peek -\n"),
                }
            }
        }
    }
    want.push_str(&format!("len {}\n", oracle.len()));
    (script, want)
}

#[test]
fn pq_interleave_matches_btreemap_oracle_in_process() {
    let (script, want) = pq_script_and_oracle(800, 0xFEED);
    // Replay through ExtPq directly, on a bare and a parity-protected store.
    for parity_group in [0usize, 2] {
        let disk = Disk::new_mem(BLOCK);
        let mut pq = ExtPq::new(disk, 6, parity_group).unwrap();
        let mut got = String::new();
        for line in script.lines() {
            if let Some(key) = line.strip_prefix("push ") {
                pq.push(key.as_bytes()).unwrap();
            } else if line == "pop" {
                match pq.pop().unwrap() {
                    Some(k) => got.push_str(&format!("pop {}\n", String::from_utf8_lossy(&k))),
                    None => got.push_str("pop -\n"),
                }
            } else if line == "peek" {
                match pq.peek().unwrap() {
                    Some(k) => got.push_str(&format!("peek {}\n", String::from_utf8_lossy(&k))),
                    None => got.push_str("peek -\n"),
                }
            }
        }
        got.push_str(&format!("len {}\n", pq.len()));
        assert_eq!(got, want, "parity_group={parity_group}");
        assert!(pq.stats.runs_sealed > 0, "the workload must actually spill");
    }
}

#[test]
fn server_runs_topk_and_pq_jobs() {
    let dir = tmpdir("ops");
    let server = Server::start(ServerConfig::new(2, &dir)).unwrap();

    // A topk job's output is the operator's record listing.
    let xml = flat_doc(400, 3);
    let disk = Disk::new_mem(BLOCK);
    let input = stage_input(&disk, &xml).unwrap();
    let opts = NexsortOptions { mem_frames: 8, ..Default::default() };
    let want_listing = TopK::new(disk, opts, SortSpec::by_attribute("k"), 17)
        .unwrap()
        .topk_xml_extent(&input)
        .unwrap()
        .to_text()
        .unwrap();
    let topk_id = server
        .submit(JobSpec {
            op: JobOp::TopK,
            k: 17,
            input: JobInput::Inline(xml),
            default_rule: Some("@k".into()),
            block_size: BLOCK,
            mem_frames: 8,
            ..JobSpec::default()
        })
        .unwrap();

    // A pq job's output is the script transcript.
    let (script, want_transcript) = pq_script_and_oracle(400, 0xBEEF);
    let pq_id = server
        .submit(JobSpec {
            op: JobOp::Pq,
            input: JobInput::Inline(script.into_bytes()),
            block_size: BLOCK,
            mem_frames: 6,
            ..JobSpec::default()
        })
        .unwrap();

    for (id, want) in [(topk_id, &want_listing), (pq_id, &want_transcript)] {
        let st = server.wait(id, Duration::from_secs(120)).unwrap();
        assert_eq!(st.state, JobState::Done, "job {id}: {:?}", st.error);
        assert_eq!(String::from_utf8(server.fetch_output(id).unwrap()).unwrap(), *want);
    }
    // Top-k jobs without k are rejected at submit.
    assert!(server
        .submit(JobSpec {
            op: JobOp::TopK,
            input: JobInput::Inline(b"<r/>".to_vec()),
            ..JobSpec::default()
        })
        .is_err());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_daemon_resumes_topk_and_redoes_pq() {
    let dir = tmpdir("kill");
    let xml = flat_doc(420, 11);
    let (script, want_transcript) = pq_script_and_oracle(600, 0xACE);

    // Ground truth from uninterrupted in-process runs.
    let disk = Disk::new_mem(BLOCK);
    let input = stage_input(&disk, &xml).unwrap();
    let opts = NexsortOptions { mem_frames: 8, parity_group: 2, ..Default::default() };
    let want_listing = TopK::new(disk, opts, SortSpec::by_attribute("k"), 25)
        .unwrap()
        .topk_xml_extent(&input)
        .unwrap()
        .to_text()
        .unwrap();

    let cfg = ServerConfig::new(2, &dir);
    let server = Server::open(cfg.clone()).unwrap();
    let topk_id = server
        .submit(JobSpec {
            op: JobOp::TopK,
            k: 25,
            input: JobInput::Inline(xml),
            default_rule: Some("@k".into()),
            block_size: BLOCK,
            mem_frames: 8,
            parity_group: 2,
            crash_after_ios: Some(20),
            ..JobSpec::default()
        })
        .unwrap();
    let pq_id = server
        .submit(JobSpec {
            op: JobOp::Pq,
            input: JobInput::Inline(script.into_bytes()),
            block_size: BLOCK,
            mem_frames: 6,
            crash_after_ios: Some(4),
            ..JobSpec::default()
        })
        .unwrap();
    for id in [topk_id, pq_id] {
        let st = server.wait(id, Duration::from_secs(120)).unwrap();
        assert_eq!(
            st.state,
            JobState::Interrupted,
            "job {id}: state {:?} err {:?}",
            st.state,
            st.error
        );
    }
    // The daemon dies; manifests, journals, and device files survive.
    server.shutdown();

    // Restart adopts both: the topk job resumes from its journal, the pq
    // job redoes its script deterministically from the input copy.
    let server = Server::open(cfg).unwrap();
    assert!(server.wait_idle(Duration::from_secs(240)), "restarted daemon never drained");
    for (id, want) in [(topk_id, &want_listing), (pq_id, &want_transcript)] {
        let st = server.status(id).unwrap();
        assert_eq!(st.state, JobState::Done, "job {id}: {:?}", st.error);
        assert_eq!(
            String::from_utf8(server.fetch_output(id).unwrap()).unwrap(),
            *want,
            "job {id}: post-restart output differs from the uninterrupted run"
        );
    }
    let report = server.status(topk_id).unwrap().report;
    assert!(report.expect("topk jobs report").resumed, "topk must resume, not redo");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
