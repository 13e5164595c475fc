//! Golden fixtures: for every rule, a minimal source that fires it exactly
//! once, a clean twin, and the same source silenced by its pragma.

use xlint::{check_manifest, check_rust_file, check_sources};

fn rules_fired(rel: &str, src: &str) -> Vec<String> {
    check_rust_file(rel, src).into_iter().map(|f| f.rule.to_string()).collect()
}

#[test]
fn r1_block_device_outside_the_device_layer() {
    let bad = r#"
fn attach(dev: &dyn BlockDevice) -> u64 {
    dev_blocks(dev)
}
"#;
    assert_eq!(rules_fired("crates/merge/src/fake.rs", bad), ["R1"]);

    // The device layer itself may name the trait.
    assert_eq!(rules_fired("crates/extmem/src/stripe.rs", bad), Vec::<String>::new());

    let silenced = r#"
// xlint::allow(R1): fixture exception.
fn attach(dev: &dyn BlockDevice) -> u64 {
    dev_blocks(dev)
}
"#;
    assert_eq!(rules_fired("crates/merge/src/fake.rs", silenced), Vec::<String>::new());
}

#[test]
fn r5_wildcard_arm_over_exterror() {
    let bad = r#"
fn transient(e: &ExtError) -> bool {
    match e {
        ExtError::Io(_) => true,
        _ => false,
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", bad), ["R5"]);

    // A binding arm (`other => ...`) is not a wildcard.
    let good = r#"
fn transient(e: &ExtError) -> bool {
    match e {
        ExtError::Io(_) => true,
        other => is_soft(other),
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", good), Vec::<String>::new());

    // Naming every variant does not excuse a wildcard: it would let the
    // *next* variant slip through unclassified.
    let every = r#"
fn transient(e: &ExtError) -> bool {
    match e {
        ExtError::Io(_) => true,
        ExtError::Corrupt(_) => false,
        _ => false,
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/error.rs", every), ["R5"]);

    // A match with no ExtError in any pattern may use wildcards freely.
    let unrelated = r#"
fn classify(n: u32) -> bool {
    match n {
        0 => true,
        _ => false,
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", unrelated), Vec::<String>::new());

    let silenced = r#"
fn transient(e: &ExtError) -> bool {
    match e {
        ExtError::Io(_) => true,
        _ => false, // xlint::allow(R5)
    }
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", silenced), Vec::<String>::new());
}

#[test]
fn r10_exterror_transience_classification_must_be_total() {
    // Totality is now enforced by clippy lints denied on the classifier
    // rather than by an xlint rule; this pins the real `error.rs` to that
    // shape: the lints stay attached, every variant is named, and no
    // catch-all arm absorbs the next one.
    let rel = "crates/extmem/src/error.rs";
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(rel);
    let src = std::fs::read_to_string(path).expect("read error.rs");

    let enum_body = src
        .split_once("pub enum ExtError {")
        .and_then(|(_, rest)| rest.split_once("\n}"))
        .map(|(body, _)| body)
        .expect("ExtError enum");
    let variants: Vec<&str> = enum_body
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| l.starts_with(|c: char| c.is_ascii_uppercase()))
        .map(|l| l.split(|c: char| !c.is_alphanumeric()).next().unwrap_or(""))
        .collect();
    assert!(variants.len() > 2, "parsed too few variants: {variants:?}");

    let (head, rest) = src.split_once("pub fn is_transient(&self) -> bool {").expect("classifier");
    let guard = head.trim_end().lines().last().unwrap_or("");
    assert!(
        guard.contains("clippy::wildcard_enum_match_arm")
            && guard.contains("clippy::match_wildcard_for_single_variants"),
        "is_transient lost its totality lints: {guard}"
    );
    let body = rest.split_once("\n    }\n").map(|(b, _)| b).expect("classifier body");
    for v in &variants {
        assert!(body.contains(&format!("ExtError::{v}")), "is_transient does not name {v}");
    }
    assert!(!body.contains("_ =>"), "is_transient has a wildcard arm");
    assert_eq!(rules_fired(rel, &src), Vec::<String>::new());
}

#[test]
fn r7_counter_mutator_outside_the_accounting_layer() {
    let bad = r#"
fn charge(s: &IoStats) {
    s.add_reads(IoCat::Sort, 1);
}
"#;
    assert_eq!(rules_fired("crates/merge/src/fake.rs", bad), ["R7"]);

    // The accounting layer itself is exempt.
    assert_eq!(rules_fired("crates/extmem/src/device.rs", bad), Vec::<String>::new());

    let silenced = r#"
fn charge(s: &IoStats) {
    s.add_reads(IoCat::Sort, 1); // xlint::allow(R7)
}
"#;
    assert_eq!(rules_fired("crates/merge/src/fake.rs", silenced), Vec::<String>::new());
}

/// The tail every member manifest carries (see `r8_member_manifest_...`).
const LINTS: &str = "\n[lints]\nworkspace = true\n";

#[test]
fn r8_non_path_dependency_in_a_manifest() {
    let bad = format!("[package]\nname = \"fake\"\n\n[dependencies]\nserde = \"1.0\"\n{LINTS}");
    let found = check_manifest("crates/fake/Cargo.toml", &bad);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, "R8");
    assert_eq!(found[0].line, 5);

    let good = format!(
        "[package]\nname = \"fake\"\n\n[dependencies]\nfoo = {{ path = \"../foo\" }}\nbar.workspace = true\n{LINTS}"
    );
    assert!(check_manifest("crates/fake/Cargo.toml", &good).is_empty());

    let silenced = format!(
        "[package]\nname = \"fake\"\n\n[dependencies]\nserde = \"1.0\" # xlint::allow(R8)\n{LINTS}"
    );
    assert!(check_manifest("crates/fake/Cargo.toml", &silenced).is_empty());
}

#[test]
fn r8_member_manifest_must_inherit_the_workspace_lints() {
    // Without the `[lints]` table the crate escapes `unsafe_code = "forbid"`.
    let bare = "[package]\nname = \"fake\"\n\n[dependencies]\nfoo.workspace = true\n";
    let found = check_manifest("crates/fake/Cargo.toml", bare);
    assert_eq!(found.len(), 1);
    assert_eq!((found[0].rule, found[0].line), ("R8", 1));
    assert!(found[0].message.contains("[lints] workspace = true"), "{}", found[0].message);

    let inherits = format!("{bare}{LINTS}");
    assert!(check_manifest("crates/fake/Cargo.toml", &inherits).is_empty());

    // `workspace = true` outside the `[lints]` table does not count.
    let elsewhere = format!("{bare}\n[dev-dependencies]\nbar.workspace = true\n");
    assert_eq!(check_manifest("crates/fake/Cargo.toml", &elsewhere).len(), 1);

    // The workspace root declares the lints; it does not inherit them.
    assert!(check_manifest("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n").is_empty());
}

#[test]
fn r9_journal_commit_without_a_barrier() {
    let bad = r#"
fn seal(j: &mut Journal) -> Result<()> {
    j.append_commit()
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", bad), ["R9"]);

    // The sanctioned shape: flush first, commit after, same body.
    let good = r#"
fn seal(d: &Disk, j: &mut Journal) -> Result<()> {
    d.cache_flush_all()?;
    j.append_commit()
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", good), Vec::<String>::new());

    // A flush *after* the commit does not make the commit sound.
    let late = r#"
fn seal(d: &Disk, j: &mut Journal) -> Result<()> {
    j.append_commit()?;
    d.cache_flush_all()
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", late), ["R9"]);

    // The definition itself (`fn append_commit`) is not a call site.
    let def = r#"
fn append_commit(&mut self) -> Result<()> {
    self.append(&JournalRecord::Commit)
}
"#;
    assert_eq!(rules_fired("crates/extmem/src/fake.rs", def), Vec::<String>::new());

    // A flush in the *enclosing* fn does not cover a nested fn's commit.
    let nested = r#"
fn outer(d: &Disk, j: &mut Journal) {
    d.cache_flush_all();
    fn inner(j: &mut Journal) {
        j.append_commit();
    }
    inner(j);
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", nested), ["R9"]);

    // Test modules are exempt, and the pragma silences it.
    let in_tests = r#"
fn prod() {}
#[cfg(test)]
mod tests {
    fn t(j: &mut Journal) {
        j.append_commit().unwrap();
    }
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", in_tests), Vec::<String>::new());

    let silenced = r#"
fn seal(j: &mut Journal) -> Result<()> {
    j.append_commit() // xlint::allow(R9)
}
"#;
    assert_eq!(rules_fired("crates/core/src/fake.rs", silenced), Vec::<String>::new());
}

#[test]
fn r11_arbiter_acquired_while_core_is_held() {
    // `grab_frames` transitively acquires the arbiter lock; calling it
    // from inside a core hold region inverts the arbiter-before-core
    // order.
    let bad = r#"
fn grab_frames(arb: &BudgetArbiter) -> usize {
    let st = arb.lock_state();
    st.free
}
fn schedule(sh: &Shared) -> usize {
    let core = sh.lock_core();
    grab_frames(&sh.arbiter) + core.queue.len()
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), ["R11"]);

    // Clean twin: read the arbiter *before* taking core.
    let good = r#"
fn grab_frames(arb: &BudgetArbiter) -> usize {
    let st = arb.lock_state();
    st.free
}
fn schedule(sh: &Shared) -> usize {
    let free = grab_frames(&sh.arbiter);
    let core = sh.lock_core();
    free + core.queue.len()
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", good), Vec::<String>::new());

    // Dropping the guard ends the hold region.
    let dropped = r#"
fn grab_frames(arb: &BudgetArbiter) -> usize {
    let st = arb.lock_state();
    st.free
}
fn schedule(sh: &Shared) -> usize {
    let core = sh.lock_core();
    let depth = core.queue.len();
    drop(core);
    grab_frames(&sh.arbiter) + depth
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", dropped), Vec::<String>::new());

    let silenced = bad.replace(
        "    grab_frames(&sh.arbiter) + core.queue.len()",
        "    // xlint::allow(R11)\n    grab_frames(&sh.arbiter) + core.queue.len()",
    );
    assert_eq!(rules_fired("crates/server/src/fake.rs", &silenced), Vec::<String>::new());
}

#[test]
fn r11_sees_the_acquisition_across_files() {
    // The acquiring helper lives in another file; only the workspace-wide
    // call graph can convict the caller.
    let helper = r#"
fn grab_frames(arb: &BudgetArbiter) -> usize {
    let st = arb.lock_state();
    st.free
}
"#;
    let caller = r#"
fn schedule(sh: &Shared) -> usize {
    let core = sh.lock_core();
    grab_frames(&sh.arbiter) + core.queue.len()
}
"#;
    let findings = check_sources(&[
        ("crates/server/src/budget_helper.rs", helper),
        ("crates/server/src/fake.rs", caller),
    ]);
    let fired: Vec<(String, String)> =
        findings.iter().map(|f| (f.file.clone(), f.rule.to_string())).collect();
    assert_eq!(fired, [("crates/server/src/fake.rs".to_string(), "R11".to_string())]);

    // The same caller linted alone is blind to the helper's acquisition —
    // the conviction genuinely needs the cross-file pass.
    assert_eq!(rules_fired("crates/server/src/fake.rs", caller), Vec::<String>::new());
}

#[test]
fn r12_blocking_call_while_core_is_held() {
    let bad = r#"
fn chew(d: &Disk) -> Result<()> {
    d.read_block(0, &mut buf)
}
fn pump(sh: &Shared, d: &Disk) -> Result<()> {
    let core = sh.lock_core();
    chew(d)
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), ["R12"]);

    // Clean twin: do the I/O after releasing the lock.
    let good = r#"
fn chew(d: &Disk) -> Result<()> {
    d.read_block(0, &mut buf)
}
fn pump(sh: &Shared, d: &Disk) -> Result<()> {
    let id = { let core = sh.lock_core(); core.next };
    chew(d)
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", good), Vec::<String>::new());

    let silenced = bad.replace("    chew(d)\n}", "    // xlint::allow(R12)\n    chew(d)\n}");
    assert_eq!(rules_fired("crates/server/src/fake.rs", &silenced), Vec::<String>::new());
}

#[test]
fn r12_condvar_wait_needs_a_predicate_loop() {
    // An `if`-gated wait misses spurious wakeups.
    let bad = r#"
fn park(sh: &Shared) {
    let mut core = sh.lock_core();
    if core.queue.is_empty() {
        core = sh.cv.wait(core);
    }
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), ["R12"]);

    let good = bad.replace("if core.queue.is_empty()", "while core.queue.is_empty()");
    assert_eq!(rules_fired("crates/server/src/fake.rs", &good), Vec::<String>::new());

    let silenced = bad.replace(
        "        core = sh.cv.wait(core);",
        "        // xlint::allow(R12)\n        core = sh.cv.wait(core);",
    );
    assert_eq!(rules_fired("crates/server/src/fake.rs", &silenced), Vec::<String>::new());
}

#[test]
fn r13_concurrency_primitives_outside_the_sanctioned_sites() {
    let bad = "use std::sync::Mutex;\n\nstruct S {\n    m: Mutex<u32>,\n}\n";
    assert_eq!(rules_fired("crates/extmem/src/pool.rs", bad), ["R13", "R13"]);

    // The server crate and the arbiter are sanctioned.
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), Vec::<String>::new());
    assert_eq!(rules_fired("crates/extmem/src/arbiter.rs", bad), Vec::<String>::new());

    // The sort's parse/format pipeline may start threads; its neighbour
    // in the same crate may not.
    let spawns = "fn go() {\n    let h = std::thread::spawn(|| 1);\n}\n";
    assert_eq!(rules_fired("crates/baseline/src/pipeline.rs", spawns), Vec::<String>::new());
    assert_eq!(rules_fired("crates/baseline/src/source.rs", spawns), ["R13"]);

    // Atomics are covered by prefix; test code is exempt.
    let atomics = "fn hot() {\n    let c = AtomicU64::new(0);\n}\n";
    assert_eq!(rules_fired("crates/core/src/run.rs", atomics), ["R13"]);
    let in_test = format!("#[cfg(test)]\nmod tests {{\n{atomics}}}\n");
    assert_eq!(rules_fired("crates/core/src/run.rs", &in_test), Vec::<String>::new());

    let silenced = bad.replace("    m: Mutex<u32>,", "    m: Mutex<u32>, // xlint::allow(R13)");
    assert_eq!(rules_fired("crates/extmem/src/pool.rs", &silenced), ["R13"]);
}

#[test]
fn r14_guard_held_across_a_durability_barrier() {
    let bad = r#"
fn persist(d: &Disk) -> Result<()> {
    d.cache_flush_all()
}
fn commit_all(sh: &Shared, d: &Disk) -> Result<()> {
    let core = sh.lock_core();
    persist(d)
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), ["R14"]);

    // Both lock classes are covered: an arbiter guard is just as wrong.
    let arb = bad.replace("sh.lock_core()", "sh.arbiter.lock_state()");
    assert_eq!(rules_fired("crates/server/src/fake.rs", &arb), ["R14"]);

    // Clean twin: release before flushing.
    let good = r#"
fn persist(d: &Disk) -> Result<()> {
    d.cache_flush_all()
}
fn commit_all(sh: &Shared, d: &Disk) -> Result<()> {
    let core = sh.lock_core();
    drop(core);
    persist(d)
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", good), Vec::<String>::new());

    let silenced = bad.replace("    persist(d)\n}", "    // xlint::allow(R14)\n    persist(d)\n}");
    assert_eq!(rules_fired("crates/server/src/fake.rs", &silenced), Vec::<String>::new());
}

#[test]
fn r15_poison_recovery_outside_the_audited_helper() {
    let bad = r#"
fn grab(m: &Mutex<u32>) -> u32 {
    let g = m.lock().unwrap_or_else(|p| p.into_inner());
    *g
}
"#;
    assert_eq!(rules_fired("crates/server/src/fake.rs", bad), ["R15"]);

    // The audited helper itself is the one sanctioned site.
    assert_eq!(rules_fired("crates/extmem/src/arbiter.rs", bad), Vec::<String>::new());

    // `unwrap_or_else` without `into_inner` nearby is not the pattern.
    let good = bad.replace("|p| p.into_inner()", "|_| panic!()");
    assert_eq!(
        rules_fired("crates/server/src/fake.rs", &good),
        Vec::<String>::new(),
        "only the poisoning-recovery shape fires"
    );

    let silenced = bad.replace(
        "    let g = m.lock().unwrap_or_else(|p| p.into_inner());",
        "    // xlint::allow(R15)\n    let g = m.lock().unwrap_or_else(|p| p.into_inner());",
    );
    assert_eq!(rules_fired("crates/server/src/fake.rs", &silenced), Vec::<String>::new());
}

#[test]
fn r15_sees_the_match_and_if_let_forms() {
    let matched = r#"
fn grab(m: &Mutex<u32>) -> u32 {
    let g = match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    *g
}
"#;
    assert_eq!(rules_fired("crates/server/src/net.rs", matched), ["R15"]);
    assert_eq!(rules_fired("crates/extmem/src/arbiter.rs", matched), Vec::<String>::new());

    let if_let = r#"
fn grab(m: &Mutex<u32>) -> u32 {
    if let Err(poisoned) = m.lock() {
        return *poisoned.into_inner();
    }
    0
}
"#;
    assert_eq!(rules_fired("crates/server/src/net.rs", if_let), ["R15"]);

    // An `Err` arm that does not recover its binding is not the pattern.
    let other = matched.replace("Err(p) => p.into_inner()", "Err(p) => panic!(\"{p}\")");
    assert_eq!(rules_fired("crates/server/src/net.rs", &other), Vec::<String>::new());
    let elsewhere = matched.replace("Err(p) => p.into_inner()", "Err(_) => q.into_inner()");
    assert_eq!(rules_fired("crates/server/src/net.rs", &elsewhere), Vec::<String>::new());
}

#[test]
fn findings_format_as_file_line_rule_message() {
    let found = check_rust_file(
        "crates/merge/src/fake.rs",
        "fn f(s: &IoStats) {\n    s.add_reads(IoCat::Sort, 1);\n}\n",
    );
    assert_eq!(found.len(), 1);
    let line = found[0].to_string();
    assert!(line.starts_with("crates/merge/src/fake.rs:2: R7 — "), "unexpected format: {line}");
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let findings = xlint::check_workspace(root).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "xlint found violations:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
