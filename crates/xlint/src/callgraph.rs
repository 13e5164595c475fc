//! Workspace-approximate call graph over the symbol pass, and the
//! precomputed "may" sets the concurrency rules (R11–R14) consume.
//!
//! Functions are keyed by bare name; same-named functions across files
//! and crates are merged (callee sets union). See the module docs of
//! [`crate::symbols`] for why that approximation is the right direction
//! for these rules.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Masked, Tok};
use crate::symbols;

/// Calls that park the thread or perform device/socket I/O. Transitive
/// callers of these must not run while the server core lock is held (R12).
/// `wait`/`wait_timeout` are deliberately absent: a condvar wait under the
/// lock is the one sanctioned block, checked separately for the
/// predicate-loop shape.
pub const BLOCKING_SEEDS: &[&str] = &[
    "sleep",
    "read_block",
    "write_block",
    "read_line",
    "read_exact",
    "accept",
    "recv",
    // The hardened daemon edge (PR 10): the bounded framer parks on the
    // socket, and connecting (with or without retries) parks on the dial.
    "read_frame",
    "fill_buf",
    "connect",
    "connect_with_retry",
];

/// Calls that publish a durability point. Holding a lock guard across one
/// couples an in-memory critical section to device flushing (R14).
pub const BARRIER_SEEDS: &[&str] = &["checkpoint", "cache_flush_all"];

/// Name-merging cutoff: a function name defined more than this many times
/// across the scanned set is a *hub* (`new`, `default`, `fmt`, ...).
/// Merging a hub's bodies relates dozens of unrelated functions, so taint
/// flowing through one is pure noise; [`CallGraph::reach`] treats hubs as
/// opaque (they neither join a may-set nor propagate one) unless the name
/// is itself a seed.
pub const HUB_DEF_LIMIT: usize = 3;

/// The merged, name-keyed call graph of every file fed to
/// [`add_file`](CallGraph::add_file).
#[derive(Debug, Default)]
pub struct CallGraph {
    calls: BTreeMap<String, BTreeSet<String>>,
    defs: BTreeMap<String, usize>,
}

impl CallGraph {
    /// An empty graph.
    pub fn new() -> Self {
        CallGraph::default()
    }

    /// Merge every non-test function definition in `toks` into the graph.
    /// Definitions inside `#[cfg(test)]` spans are skipped: test helpers
    /// sleep, spin, and shadow production names freely, and feeding them
    /// to the name-merged graph taints those names for every caller.
    pub fn add_file(&mut self, toks: &[Tok], m: &Masked) {
        for def in symbols::fn_defs(toks) {
            if m.in_test(toks[def.open].pos) {
                continue;
            }
            *self.defs.entry(def.name.clone()).or_default() += 1;
            let entry = self.calls.entry(def.name).or_default();
            for (_, callee) in symbols::calls_in(toks, def.open, def.close) {
                entry.insert(callee.to_string());
            }
        }
    }

    /// Number of distinct function names in the table.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// The names that may — directly or transitively — call any of
    /// `seeds`, including the seed names themselves. Reverse reachability
    /// by fixpoint: a function joins the set when any of its callees is in
    /// it. Hub names (more than [`HUB_DEF_LIMIT`] definitions) never join
    /// unless seeded — see the constant's docs.
    pub fn reach(&self, seeds: &[&str]) -> BTreeSet<String> {
        let mut out: BTreeSet<String> = seeds.iter().map(|s| s.to_string()).collect();
        loop {
            let mut grew = false;
            for (f, callees) in &self.calls {
                if !out.contains(f)
                    && self.defs.get(f).copied().unwrap_or(0) <= HUB_DEF_LIMIT
                    && callees.iter().any(|c| out.contains(c))
                {
                    out.insert(f.clone());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        out
    }
}

/// The whole-workspace analysis the per-file rule pass consumes: the call
/// graph plus its three fixpoint "may" sets, computed once.
#[derive(Debug)]
pub struct Analysis {
    /// The merged call graph.
    pub graph: CallGraph,
    /// Names that may (transitively) acquire the arbiter lock.
    pub may_arbiter: BTreeSet<String>,
    /// Names that may (transitively) acquire the server core lock.
    pub may_core: BTreeSet<String>,
    /// Names that may (transitively) block (sleep, device/socket I/O).
    pub may_block: BTreeSet<String>,
    /// Names that may (transitively) hit a durability barrier.
    pub may_barrier: BTreeSet<String>,
}

impl Analysis {
    /// Seal a populated graph into its fixpoint sets.
    pub fn build(graph: CallGraph) -> Self {
        let may_arbiter = graph.reach(symbols::ARBITER_ACQUIRERS);
        let may_core = graph.reach(symbols::CORE_ACQUIRERS);
        let may_block = graph.reach(BLOCKING_SEEDS);
        let may_barrier = graph.reach(BARRIER_SEEDS);
        Analysis { graph, may_arbiter, may_core, may_block, may_barrier }
    }

    /// The analysis of a single file in isolation (used by
    /// [`crate::check_rust_file`]; workspace runs feed every file first).
    pub fn of_tokens(toks: &[Tok], m: &Masked) -> Self {
        let mut graph = CallGraph::new();
        graph.add_file(toks, m);
        Analysis::build(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn analysis_of(src: &str) -> Analysis {
        let m = lexer::mask(src);
        let toks = lexer::tokens(&m.code);
        Analysis::of_tokens(&toks, &m)
    }

    #[test]
    fn reach_is_transitive_across_functions() {
        let a = analysis_of(
            "fn leaf(d: &D) { d.write_block(0, buf); }\n\
             fn mid(d: &D) { leaf(d); }\n\
             fn top(d: &D) { mid(d); }\n\
             fn clean() { let x = 1; }\n",
        );
        assert!(a.may_block.contains("leaf"));
        assert!(a.may_block.contains("mid"));
        assert!(a.may_block.contains("top"));
        assert!(!a.may_block.contains("clean"));
    }

    #[test]
    fn same_named_functions_merge_conservatively() {
        let mut graph = CallGraph::new();
        for src in [
            "fn helper() { nothing(); }\nfn entry() { helper(); }\n",
            "fn helper(a: &A) { let st = a.lock_state(); }\n",
        ] {
            let m = lexer::mask(src);
            let toks = lexer::tokens(&m.code);
            graph.add_file(&toks, &m);
        }
        let a = Analysis::build(graph);
        assert!(a.may_arbiter.contains("helper"), "merged name carries both bodies' callees");
        assert!(a.may_arbiter.contains("entry"), "reachability flows through the merged name");
    }

    #[test]
    fn hub_names_do_not_carry_taint() {
        // Four `fn new` definitions push the name over HUB_DEF_LIMIT; the
        // one body that blocks must not taint every caller of `new`.
        let a = analysis_of(
            "fn new(d: &D) -> J { d.write_block(0, buf); J }\n\
             impl A { fn new() -> A { A } }\n\
             impl B { fn new() -> B { B } }\n\
             impl C { fn new() -> C { C } }\n\
             fn caller() { let j = J::new(); }\n",
        );
        assert!(!a.may_block.contains("new"), "hub name stays opaque");
        assert!(!a.may_block.contains("caller"));
    }

    #[test]
    fn test_definitions_stay_out_of_the_graph() {
        let a = analysis_of(
            "fn prod() { helper(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() { std::thread::sleep(d); }\n\
             }\n",
        );
        assert!(!a.may_block.contains("helper"), "test-only defs are skipped");
        assert!(!a.may_block.contains("prod"));
    }

    #[test]
    fn framer_and_dial_seeds_taint_their_callers() {
        // The daemon-edge seeds added for the hardened protocol layer:
        // reading a frame and dialing a peer both park the thread, so any
        // transitive caller lands in `may_block` (and R12 will flag it if
        // it runs under the core lock).
        let a = analysis_of(
            "fn pump(r: &mut R) -> Frame { read_frame(r, max, idle, req) }\n\
             fn handle(r: &mut R) { let f = pump(r); }\n\
             fn dial(addr: &str) { connect_with_retry(addr, &policy); }\n\
             fn boot(addr: &str) { dial(addr); }\n\
             fn pure() { let x = 2; }\n",
        );
        for name in ["pump", "handle", "dial", "boot"] {
            assert!(a.may_block.contains(name), "{name} should be block-tainted");
        }
        assert!(!a.may_block.contains("pure"));
    }

    #[test]
    fn macros_and_definitions_are_not_calls() {
        let a = analysis_of("fn f() { format!(\"{}\", 1); }\nfn sleep() {}\n");
        assert!(!a.may_block.contains("f"), "format! is a macro, fn sleep( is a definition");
    }
}
