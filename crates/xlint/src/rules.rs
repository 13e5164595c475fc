//! The repo-specific rules. Each rule is lexical, runs on the
//! [masked](crate::lexer::mask) source, and answers for one substrate
//! invariant (see DESIGN.md, "Enforced invariants").

use crate::callgraph::Analysis;
use crate::lexer::{self, Tok};
use crate::symbols::{self, body_open, brace_match, line_at, LockClass};

/// One finding, printed as `file:line: rule — message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (`R1`..`R15`).
    pub rule: &'static str,
    /// Human explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {} — {}", self.file, self.line, self.rule, self.message)
    }
}

/// The rule registry: `(id, title, summary)`. The DESIGN.md "Enforced
/// invariants" table is generated from this list (`--rules-table`), and a
/// drift test fails when the two disagree — keep summaries free of `|`.
pub const RULES: &[(&str, &str, &str)] = &[
    (
        "R1",
        "device confinement",
        "raw BlockDevice access appears only in the extmem device layer and the DiskBuilder \
         assembly site; everything else goes through Disk so no I/O bypasses the per-category \
         accounting the Section-4 lemmas are asserted against",
    ),
    (
        "R5",
        "no wildcard ExtError arms",
        "a match whose patterns name ExtError variants may not have a bare `_ =>` arm: adding an \
         error variant forces every classification site to decide explicitly",
    ),
    (
        "R7",
        "accounting confinement",
        "the IoStats counter mutators are called only from device.rs and stats.rs, so logical \
         I/O accounting cannot drift (pragma'd exceptions: the staging helpers that roll setup \
         cost out of measurements)",
    ),
    (
        "R8",
        "path-only dependencies, workspace lints",
        "every manifest dependency resolves inside the workspace (path = or workspace = true): \
         the build is offline and the crates/shim-* stand-ins are the only registry substitutes; \
         every member manifest inherits the workspace lints ([lints] workspace = true), which is \
         what forbids unsafe code in every crate",
    ),
    (
        "R9",
        "flush-before-commit",
        "a journal Commit record is appended only after a cache_flush_all in the same function \
         body (Journal::checkpoint is the sanctioned wrapper), guarding the crash-consistency \
         contract the crash_recovery sweep relies on",
    ),
    (
        "R11",
        "lock acquisition order",
        "the arbiter lock (BudgetArbiter::lock_state) is never acquired, even transitively, \
         while the server core lock (Shared::lock_core) is held: the global order is arbiter \
         before core, so the two-lock server path cannot deadlock",
    ),
    (
        "R12",
        "no blocking while holding core",
        "no device I/O, thread::sleep, or socket read may run, even transitively, while the \
         server core lock is held, and every Condvar wait sits inside a predicate loop",
    ),
    (
        "R13",
        "concurrency confinement",
        "Mutex, Condvar, Arc, atomics, and thread spawns appear only in the sanctioned sites \
         (crates/server, arbiter.rs, and the sort's parse pipeline.rs); the Rc/Cell sorting \
         substrate stays provably single-threaded",
    ),
    (
        "R14",
        "no guard across barriers",
        "arbiter and core lock guards are never held across checkpoint or cache_flush_all, even \
         transitively: critical sections stay memory-only and never couple to \
         device flushing",
    ),
    (
        "R15",
        "audited poison recovery",
        "mutex-poisoning recovery (into_inner on a poisoned lock, by unwrap_or_else or a \
         match/if-let Err arm) lives only in arbiter.rs's recover_poison helper, which counts \
         every recovery into server stats instead of silently swallowing the panic",
    ),
];

/// Files allowed to name `BlockDevice`: the device layer itself, plus its
/// one sanctioned assembly site (`DiskBuilder`). Front ends (cli, server,
/// bench) must go through the builder, not name devices directly.
const R1_ALLOW: &[&str] = &[
    "crates/extmem/src/device.rs",
    "crates/extmem/src/fault.rs",
    "crates/extmem/src/stripe.rs",
    "crates/extmem/src/pool.rs",
    "crates/extmem/src/lib.rs",
    "crates/extmem/src/build.rs",
];

/// Files allowed to call the raw counter mutators.
const R7_ALLOW: &[&str] = &["crates/extmem/src/device.rs", "crates/extmem/src/stats.rs"];

/// The counter mutators R7 confines.
const R7_MUTATORS: &[&str] = &[
    "add_reads",
    "add_writes",
    "sub_reads",
    "sub_writes",
    "add_phys_reads",
    "add_phys_writes",
    "sub_phys_reads",
    "sub_phys_writes",
    "add_retries",
    "add_backoff",
    "add_cache_event",
];

/// Lint one Rust source file in isolation: the cross-file rules (R11–R14)
/// see only this file's call graph. `rel` is the workspace-relative path,
/// which selects each rule's scope.
pub fn check_rust_file(rel: &str, src: &str) -> Vec<Finding> {
    let m = lexer::mask(src);
    let toks = lexer::tokens(&m.code);
    let analysis = Analysis::of_tokens(&toks, &m);
    check_masked(rel, &m, &toks, &analysis)
}

/// Lint a set of sources as one workspace: the call graph is built over
/// all of them first, so R11–R14 see cross-file (and cross-crate)
/// reachability. Findings come back sorted by (file, line, rule).
pub fn check_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    let prepared: Vec<(&str, lexer::Masked)> =
        files.iter().map(|&(rel, src)| (rel, lexer::mask(src))).collect();
    let mut graph = crate::callgraph::CallGraph::new();
    let toks: Vec<Vec<Tok>> = prepared.iter().map(|(_, m)| lexer::tokens(&m.code)).collect();
    for ((_, m), t) in prepared.iter().zip(&toks) {
        graph.add_file(t, m);
    }
    let analysis = Analysis::build(graph);
    let mut findings = Vec::new();
    for ((rel, m), t) in prepared.iter().zip(&toks) {
        findings.extend(check_masked(rel, m, t, &analysis));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// The per-file rule pass over an already-masked source, with the
/// workspace [`Analysis`] supplied by the caller. Suppressed findings are
/// filtered here.
pub fn check_masked(
    rel: &str,
    m: &lexer::Masked,
    toks: &[Tok],
    analysis: &Analysis,
) -> Vec<Finding> {
    let mut out = Vec::new();

    let in_tests_dir = rel.starts_with("tests/") || rel.contains("/tests/");
    let non_test = |pos: usize| !in_tests_dir && !m.in_test(pos);

    rule_r1(rel, toks, &non_test, &mut out);
    rule_r5(rel, toks, &non_test, &mut out);
    rule_r7(rel, toks, &non_test, &mut out);
    rule_r9(rel, toks, &non_test, &mut out);
    rule_r11(rel, toks, analysis, &non_test, &mut out);
    rule_r12(rel, toks, analysis, &non_test, &mut out);
    rule_r13(rel, toks, &non_test, &mut out);
    rule_r14(rel, toks, analysis, &non_test, &mut out);
    rule_r15(rel, toks, &non_test, &mut out);

    let mut findings: Vec<Finding> =
        out.into_iter().filter(|f| !m.allowed(f.line, f.rule)).collect();
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

fn push(out: &mut Vec<Finding>, rel: &str, code_pos_line: usize, rule: &'static str, msg: String) {
    out.push(Finding { file: rel.to_string(), line: code_pos_line, rule, message: msg });
}

/// R1: the `BlockDevice` trait (raw, unaccounted I/O) stays inside the
/// device layer; everything else goes through `Disk`.
fn rule_r1(rel: &str, toks: &[Tok], non_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    if R1_ALLOW.contains(&rel) {
        return;
    }
    for t in toks {
        if t.text == "BlockDevice" && non_test(t.pos) {
            push(
                out,
                rel,
                line_at(toks, t.pos),
                "R1",
                "raw BlockDevice access outside the extmem device layer; go through Disk"
                    .to_string(),
            );
        }
    }
}

/// R5: a `match` whose arms name `ExtError::` variants may not have a
/// wildcard `_ =>` arm — new error variants must be classified explicitly.
fn rule_r5(rel: &str, toks: &[Tok], non_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "match" {
            if let Some(open) = toks[i..].iter().position(|t| t.text == "{").map(|p| p + i) {
                if let Some(close) = brace_match(toks, open) {
                    check_match_arms(rel, toks, open, close, non_test, out);
                }
            }
        }
        i += 1;
    }
}

fn check_match_arms(
    rel: &str,
    toks: &[Tok],
    open: usize,
    close: usize,
    non_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    // Pattern regions: from an arm's start to its top-level `=>`.
    let mut depth = 0usize;
    let mut arm_start = open + 1;
    let mut names_exterror = false;
    let mut wildcard_at: Option<usize> = None;
    let mut k = open;
    while k < close {
        match toks[k].text {
            "{" | "[" | "(" => depth += 1,
            "}" | "]" | ")" => depth = depth.saturating_sub(1),
            "=" if depth == 1 && toks.get(k + 1).map(|t| t.text) == Some(">") => {
                let pat = &toks[arm_start..k];
                if pat.iter().any(|t| t.text == "ExtError") {
                    names_exterror = true;
                }
                if pat.len() == 1 && pat[0].text == "_" {
                    wildcard_at = Some(pat[0].pos);
                }
                // Skip to the end of the arm body: a `,` at depth 1 or a
                // braced body's closing `}`.
                k += 2;
                let mut bdepth = 0usize;
                while k < close {
                    match toks[k].text {
                        "{" | "[" | "(" => bdepth += 1,
                        "}" | "]" | ")" => {
                            if bdepth == 0 {
                                break;
                            }
                            bdepth -= 1;
                            if bdepth == 0 && toks[k].text == "}" {
                                k += 1;
                                break;
                            }
                        }
                        "," if bdepth == 0 => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                arm_start = k;
                continue;
            }
            _ => {}
        }
        k += 1;
    }
    if names_exterror {
        if let Some(pos) = wildcard_at {
            if non_test(pos) {
                push(
                    out,
                    rel,
                    line_at(toks, pos),
                    "R5",
                    "wildcard `_ =>` arm in a match over ExtError; list the variants".to_string(),
                );
            }
        }
    }
}

/// R7: only the accounting layer mutates the counters, so logical I/O
/// accounting cannot drift.
fn rule_r7(rel: &str, toks: &[Tok], non_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    if R7_ALLOW.contains(&rel) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if R7_MUTATORS.contains(&t.text)
            && toks.get(i + 1).map(|n| n.text) == Some("(")
            && non_test(t.pos)
        {
            push(
                out,
                rel,
                line_at(toks, t.pos),
                "R7",
                format!("counter mutator `{}` called outside the device/stats layer", t.text),
            );
        }
    }
}

/// R9: a journal `Commit` record asserts that every data write it covers is
/// already durable, so appending one is only sound after the page cache's
/// dirty frames are flushed: each `.append_commit()` call must be preceded
/// by `cache_flush_all` in the same function body ([`Journal::checkpoint`]
/// is the sanctioned wrapper).
///
/// [`Journal::checkpoint`]: ../nexsort_extmem/struct.Journal.html#method.checkpoint
fn rule_r9(rel: &str, toks: &[Tok], non_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    let spans = fn_spans(toks);
    for (i, t) in toks.iter().enumerate() {
        if t.text != "append_commit"
            || toks.get(i + 1).map(|n| n.text) != Some("(")
            || i == 0
            || toks[i - 1].text != "."
            || !non_test(t.pos)
        {
            continue;
        }
        // The innermost fn body containing the call; a call outside any fn
        // (e.g. a const initialiser) has no flush to find and fires.
        let span =
            spans.iter().filter(|&&(s, e)| s <= i && i < e).min_by_key(|&&(s, e)| e - s).copied();
        let guarded =
            span.is_some_and(|(s, _)| toks[s..i].iter().any(|t| t.text == "cache_flush_all"));
        if !guarded {
            push(
                out,
                rel,
                line_at(toks, t.pos),
                "R9",
                "journal commit appended without a preceding cache_flush_all() in this function; \
                 go through Journal::checkpoint"
                    .to_string(),
            );
        }
    }
}

/// Files sanctioned to use cross-thread primitives (R13): the server
/// crate (the one threaded component), the arbiter it leases frames
/// from, and the sort's one thread site, which parses beside a
/// single-threaded disk.
const R13_ALLOW_PREFIX: &str = "crates/server/src/";
const R13_ALLOW: &[&str] = &["crates/extmem/src/arbiter.rs", "crates/baseline/src/pipeline.rs"];

/// Cross-thread primitives R13 confines (plus any `Atomic*`-prefixed
/// ident and `spawn`).
const R13_TOKENS: &[&str] = &["Mutex", "RwLock", "Condvar", "Arc", "spawn"];

/// The one audited poisoning-recovery site R15 permits.
const R15_ALLOW: &[&str] = &["crates/extmem/src/arbiter.rs"];

/// Call names the hold-region rules (R11/R12/R14) never flag: a condvar
/// wait under the lock is the one sanctioned block — the guard is released
/// while the thread is parked, so nothing is actually held across whatever
/// the merged `wait` name may reach. R12 separately checks every wait for
/// the predicate-loop shape.
const WAIT_CALLS: &[&str] = &["wait", "wait_timeout"];

/// Hold regions of `class` across every function body in the file.
fn regions_of(toks: &[Tok], class: LockClass) -> Vec<symbols::HoldRegion> {
    let mut all = Vec::new();
    for (open, close) in fn_spans(toks) {
        all.extend(
            symbols::hold_regions(toks, open, close).into_iter().filter(|r| r.class == class),
        );
    }
    all
}

/// Calls inside `region` excluding the acquiring call itself.
fn region_calls<'a>(toks: &[Tok<'a>], region: &symbols::HoldRegion) -> Vec<(usize, &'a str)> {
    symbols::calls_in(toks, region.start, region.end)
        .into_iter()
        .filter(|&(i, _)| i != region.acquire)
        .collect()
}

/// R11: the global lock order is arbiter before core. While the server
/// core lock is held, nothing may acquire the arbiter lock — directly or
/// through any function whose may-acquire set reaches `lock_state`.
fn rule_r11(
    rel: &str,
    toks: &[Tok],
    analysis: &Analysis,
    non_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for region in regions_of(toks, LockClass::Core) {
        for (i, callee) in region_calls(toks, &region) {
            if analysis.may_arbiter.contains(callee)
                && !WAIT_CALLS.contains(&callee)
                && non_test(toks[i].pos)
            {
                push(
                    out,
                    rel,
                    line_at(toks, toks[i].pos),
                    "R11",
                    format!(
                        "`{callee}` may acquire {} while {} is held; the global lock order \
                         is arbiter before core",
                        LockClass::Arbiter.describe(),
                        LockClass::Core.describe()
                    ),
                );
            }
        }
    }
}

/// R12: no blocking call while holding the server core lock, and every
/// `Condvar::wait` sits in a predicate loop.
fn rule_r12(
    rel: &str,
    toks: &[Tok],
    analysis: &Analysis,
    non_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for region in regions_of(toks, LockClass::Core) {
        for (i, callee) in region_calls(toks, &region) {
            if analysis.may_block.contains(callee)
                && !WAIT_CALLS.contains(&callee)
                && non_test(toks[i].pos)
            {
                push(
                    out,
                    rel,
                    line_at(toks, toks[i].pos),
                    "R12",
                    format!(
                        "`{callee}` may block (sleep, device or socket I/O) while {} is held",
                        LockClass::Core.describe()
                    ),
                );
            }
        }
    }
    let spans = fn_spans(toks);
    for i in symbols::condvar_waits(toks) {
        if !non_test(toks[i].pos) {
            continue;
        }
        let span =
            spans.iter().filter(|&&(s, e)| s <= i && i < e).min_by_key(|&&(s, e)| e - s).copied();
        let looped = span.is_some_and(|(s, e)| symbols::in_predicate_loop(toks, s, e, i));
        if !looped {
            push(
                out,
                rel,
                line_at(toks, toks[i].pos),
                "R12",
                "Condvar::wait outside a predicate loop; spurious wakeups make the awaited \
                 condition unreliable without `while !cond { .. }`"
                    .to_string(),
            );
        }
    }
}

/// R13: cross-thread primitives stay confined to the sanctioned
/// concurrency sites, keeping the Rc/Cell sorting substrate provably
/// single-threaded ahead of in-sort parallelism.
fn rule_r13(rel: &str, toks: &[Tok], non_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    if rel.starts_with(R13_ALLOW_PREFIX) || R13_ALLOW.contains(&rel) {
        return;
    }
    for t in toks {
        if (R13_TOKENS.contains(&t.text) || t.text.starts_with("Atomic")) && non_test(t.pos) {
            push(
                out,
                rel,
                line_at(toks, t.pos),
                "R13",
                format!(
                    "cross-thread primitive `{}` outside the sanctioned concurrency sites \
                     (crates/server, arbiter.rs, pipeline.rs)",
                    t.text
                ),
            );
        }
    }
}

/// R14: no lock guard (arbiter or core) held across a durability barrier.
fn rule_r14(
    rel: &str,
    toks: &[Tok],
    analysis: &Analysis,
    non_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for class in [LockClass::Arbiter, LockClass::Core] {
        for region in regions_of(toks, class) {
            for (i, callee) in region_calls(toks, &region) {
                if analysis.may_barrier.contains(callee)
                    && !WAIT_CALLS.contains(&callee)
                    && non_test(toks[i].pos)
                {
                    push(
                        out,
                        rel,
                        line_at(toks, toks[i].pos),
                        "R14",
                        format!(
                            "`{callee}` may reach a durability barrier (checkpoint/\
                             cache_flush_all) while {} is held",
                            class.describe()
                        ),
                    );
                }
            }
        }
    }
}

/// R15: recovering a poisoned guard with `into_inner` is allowed only inside
/// the audited `arbiter::recover_poison` helper, which counts recoveries
/// instead of silently swallowing them. Two shapes recover: a closure,
/// `.unwrap_or_else(|p| p.into_inner())`, and an `Err` arm of a `match` or
/// `if let`, `Err(p) => p.into_inner()`.
fn rule_r15(rel: &str, toks: &[Tok], non_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    if R15_ALLOW.contains(&rel) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if !non_test(t.pos) {
            continue;
        }
        let recovers = match t.text {
            "unwrap_or_else" => {
                toks[i + 1..toks.len().min(i + 14)].iter().any(|n| n.text == "into_inner")
            }
            "Err" => match toks.get(i + 1..i + 4) {
                Some([open, bind, close]) if open.text == "(" && close.text == ")" => {
                    toks[i + 4..toks.len().min(i + 20)].windows(3).any(|w| {
                        w[0].text == bind.text && w[1].text == "." && w[2].text == "into_inner"
                    })
                }
                _ => false,
            },
            _ => false,
        };
        if recovers {
            push(
                out,
                rel,
                line_at(toks, t.pos),
                "R15",
                "mutex-poisoning recovery outside the audited helper; route the lock through \
                 nexsort_extmem::recover_poison so recoveries are counted"
                    .to_string(),
            );
        }
    }
}

/// R8: every dependency in a manifest must resolve inside the workspace
/// (`path = ...` or `workspace = true`): the build environment is offline.
/// A member manifest (anything but the workspace root's `Cargo.toml`) must
/// also inherit the workspace lints, `[lints] workspace = true`, so no
/// crate escapes `unsafe_code = "forbid"`.
pub fn check_manifest(rel: &str, src: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut section = "";
    let mut in_deps = false;
    let mut allow_prev = false;
    let mut inherits_lints = false;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let allow_here = raw.contains("xlint::allow(R8)");
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']);
            in_deps = section.ends_with("dependencies");
            allow_prev = allow_here;
            continue;
        }
        if section == "lints" && line.replace(' ', "") == "workspace=true" {
            inherits_lints = true;
        }
        if in_deps
            && !line.is_empty()
            && !line.starts_with('#')
            && line.contains('=')
            && !line.contains("path")
            && !line.contains("workspace = true")
            && !line.contains("workspace=true")
            && !allow_here
            && !allow_prev
        {
            out.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule: "R8",
                message: "dependency does not resolve by path inside the workspace (offline \
                          build)"
                    .to_string(),
            });
        }
        allow_prev = allow_here;
    }
    if rel != "Cargo.toml" && !inherits_lints {
        out.push(Finding {
            file: rel.to_string(),
            line: 1,
            rule: "R8",
            message: "member manifest does not inherit the workspace lints; add \
                      `[lints] workspace = true`"
                .to_string(),
        });
    }
    out
}

// ---- token-walking helpers (line_at/body_open/brace_match live in symbols.rs) ----

/// Token spans of every `fn` body in the file. Nested fns get their own
/// spans (overlapping with the enclosing one); closures are checked as
/// part of their enclosing span.
fn fn_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "fn" {
            if let Some(open) = body_open(toks, i) {
                if let Some(close) = brace_match(toks, open) {
                    spans.push((open, close + 1));
                    i = open + 1; // descend: nested fns get their own span too
                    continue;
                }
            }
        }
        i += 1;
    }
    spans
}
