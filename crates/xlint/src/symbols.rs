//! Tier-1 symbol/scope pass over the masked token stream: function
//! definitions, approximate call sites, and lock-hold regions.
//!
//! Everything here is *lexical and approximate by design* — the same
//! trade-off the rest of xlint makes (no `syn`, no type information, the
//! build stays offline). Two choices make the approximation workable:
//!
//! * **Locks are identified by choke-point method names**, not variable
//!   names or types (there is no type information, so one `Mutex<_>`
//!   looks like any other). `Shared::lock_core` and
//!   `BudgetArbiter::lock_state` are the single sanctioned acquisition
//!   sites for the two server-path locks; every critical section starts
//!   with one of those calls, so the rules can find every hold region by
//!   finding those idents.
//! * **Functions are keyed by bare name** across the whole workspace;
//!   same-named functions are merged (their callees union). That is
//!   conservative in the direction we want for R11/R12/R14 — a merged
//!   name *may* reach a blocking seed — at the cost of needing a few
//!   well-known std method names excluded (see [`CALL_EXCLUDED`]).

use crate::lexer::Tok;

/// The lock classes the cross-file analysis tracks on the threaded server
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// `BudgetArbiter`'s state lock.
    Arbiter,
    /// The server's core lock over the job table.
    Core,
}

impl LockClass {
    /// Human name used in findings.
    pub fn describe(self) -> &'static str {
        match self {
            LockClass::Arbiter => "the arbiter lock (BudgetArbiter::lock_state)",
            LockClass::Core => "the server core lock (Shared::lock_core)",
        }
    }
}

/// The sanctioned acquisition choke points for the arbiter lock.
pub const ARBITER_ACQUIRERS: &[&str] = &["lock_state"];
/// The sanctioned acquisition choke points for the server core lock.
pub const CORE_ACQUIRERS: &[&str] = &["lock_core"];

/// Idents that look like calls but are control flow, bindings, or the
/// explicit-drop intrinsic. `drop` is excluded because almost every
/// `drop(guard)` is a *release*, and the one interesting case
/// (`BudgetLease::drop`) cannot be told apart by name.
pub const CALL_EXCLUDED: &[&str] =
    &["if", "while", "for", "match", "loop", "return", "fn", "let", "in", "move", "else", "drop"];

/// One function definition found in a token stream. `open`/`close` are
/// token indices spanning the body (`open` is the `{`, `close` is one past
/// the matching `}`), matching the convention of `fn_spans` in `rules.rs`.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The bare function name (workspace-wide merge key).
    pub name: String,
    /// Token index of the body's opening `{`.
    pub open: usize,
    /// One past the token index of the body's closing `}`.
    pub close: usize,
}

/// A region of a function body during which a tracked lock guard is held:
/// from the acquiring call to the end of the innermost enclosing block, an
/// explicit `drop(<binding>)`, or the end of the statement for a guard
/// temporary.
#[derive(Debug, Clone)]
pub struct HoldRegion {
    /// Which lock the region holds.
    pub class: LockClass,
    /// Token index of the acquiring call's ident (`lock_core`/`lock_state`).
    pub acquire: usize,
    /// First token index of the region (the acquiring call itself).
    pub start: usize,
    /// One past the last token index of the region.
    pub end: usize,
}

// ---- shared token-walking helpers (also used by rules.rs) ----

/// 1-based line of the token at byte offset `pos`.
pub(crate) fn line_at(toks: &[Tok], pos: usize) -> usize {
    match toks.binary_search_by(|t| t.pos.cmp(&pos)) {
        Ok(k) => toks[k].line,
        Err(k) => toks.get(k.saturating_sub(1)).map_or(1, |t| t.line),
    }
}

/// First `{` at or after `from`, stopping at a `;` (a bodiless item).
pub(crate) fn body_open(toks: &[Tok], from: usize) -> Option<usize> {
    for (k, t) in toks.iter().enumerate().skip(from) {
        match t.text {
            "{" => return Some(k),
            ";" => return None,
            _ => {}
        }
    }
    None
}

/// Matching `}` for the `{` at token index `open`.
pub(crate) fn brace_match(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

fn is_ident_tok(text: &str) -> bool {
    text.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Every named `fn` definition in the stream, nested fns included.
pub fn fn_defs(toks: &[Tok]) -> Vec<FnDef> {
    let mut defs = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "fn" {
            let name = toks.get(i + 1).map(|t| t.text).filter(|t| is_ident_tok(t));
            if let (Some(name), Some(open)) = (name, body_open(toks, i)) {
                if let Some(close) = brace_match(toks, open) {
                    defs.push(FnDef { name: name.to_string(), open, close: close + 1 });
                    i = open + 1; // descend so nested fns get their own defs
                    continue;
                }
            }
        }
        i += 1;
    }
    defs
}

/// Approximate call sites in `toks[start..end]`: an ident directly
/// followed by `(` that is not a definition (`fn name(`), a macro
/// (`name!(` never matches — the `!` separates them), or an excluded
/// pseudo-call. Returns `(token index, callee name)` pairs.
pub fn calls_in<'a>(toks: &[Tok<'a>], start: usize, end: usize) -> Vec<(usize, &'a str)> {
    let mut out = Vec::new();
    for i in start..end.min(toks.len()) {
        let t = toks[i].text;
        if !is_ident_tok(t) || CALL_EXCLUDED.contains(&t) {
            continue;
        }
        if toks.get(i + 1).map(|n| n.text) != Some("(") {
            continue;
        }
        if i > 0 && toks[i - 1].text == "fn" {
            continue;
        }
        out.push((i, t));
    }
    out
}

/// Token index (exclusive) of the end of the innermost `{ .. }` block
/// containing token `i` within the body `toks[open..close]`. Falls back to
/// `close` when `i` sits directly in the outermost body.
fn enclosing_block_end(toks: &[Tok], open: usize, close: usize, i: usize) -> usize {
    for &blk in enclosing_opens(toks, open, close, i).iter().rev() {
        if blk == open {
            continue; // the fn body itself; close already covers it
        }
        return brace_match(toks, blk).map(|c| c + 1).unwrap_or(close);
    }
    close
}

/// Open-brace token indices of every block enclosing token `i` within
/// `toks[open..close]`, outermost first (starting with `open` itself).
fn enclosing_opens(toks: &[Tok], open: usize, close: usize, i: usize) -> Vec<usize> {
    let mut stack = Vec::new();
    for (k, t) in toks.iter().enumerate().take(close.min(i + 1)).skip(open) {
        match t.text {
            "{" => stack.push(k),
            "}" => {
                stack.pop();
            }
            _ => {}
        }
    }
    stack
}

/// Lock-hold regions in the function body `toks[open..close]`: each call
/// to a sanctioned acquirer starts a region. A `let`-bound guard is held
/// to the end of the innermost enclosing block or to an explicit
/// `drop(<binding>)`; a guard temporary is held to the end of its
/// statement.
pub fn hold_regions(toks: &[Tok], open: usize, close: usize) -> Vec<HoldRegion> {
    let mut out = Vec::new();
    for (i, name) in calls_in(toks, open, close) {
        let class = if CORE_ACQUIRERS.contains(&name) {
            LockClass::Core
        } else if ARBITER_ACQUIRERS.contains(&name) {
            LockClass::Arbiter
        } else {
            continue;
        };
        let end = match binding_of(toks, open, i) {
            Some(binding) => {
                let block_end = enclosing_block_end(toks, open, close, i);
                explicit_drop(toks, i, block_end, binding).unwrap_or(block_end)
            }
            None => statement_end(toks, i, close),
        };
        out.push(HoldRegion { class, acquire: i, start: i, end });
    }
    out
}

/// The binding name when the call at token `i` is the right-hand side of
/// `let [mut] <name> = <receiver>.call(..)`; `None` for temporaries.
fn binding_of<'a>(toks: &[Tok<'a>], open: usize, i: usize) -> Option<&'a str> {
    let mut j = i;
    // Walk back over the receiver chain: idents, `.`, `::`, `&`.
    while j > open + 1 {
        let prev = toks[j - 1].text;
        if prev == "." || prev == ":" || prev == "&" || is_ident_tok(prev) {
            j -= 1;
            continue;
        }
        break;
    }
    if toks.get(j - 1).map(|t| t.text) != Some("=") {
        return None;
    }
    let mut k = j - 1; // the `=`
    if toks.get(k - 1).map(|t| t.text) == Some("=") {
        return None; // `==` comparison
    }
    let name = toks.get(k - 1).map(|t| t.text).filter(|t| is_ident_tok(t))?;
    k -= 1;
    if toks.get(k - 1).map(|t| t.text) == Some("mut") {
        k -= 1;
    }
    if toks.get(k - 1).map(|t| t.text) == Some("let") {
        Some(name)
    } else {
        None
    }
}

/// Token index one past an explicit `drop(<binding>)` between `from` and
/// `until`, if any.
fn explicit_drop(toks: &[Tok], from: usize, until: usize, binding: &str) -> Option<usize> {
    for k in from..until.min(toks.len()).saturating_sub(3) {
        if toks[k].text == "drop"
            && toks[k + 1].text == "("
            && toks[k + 2].text == binding
            && toks[k + 3].text == ")"
        {
            return Some(k + 4);
        }
    }
    None
}

/// One past the end of the statement containing the call at token `i`: the
/// first `;` at the call's own nesting depth, or the close of the
/// enclosing block, whichever comes first.
fn statement_end(toks: &[Tok], i: usize, close: usize) -> usize {
    let mut depth = 0isize;
    for (k, t) in toks.iter().enumerate().take(close.min(toks.len())).skip(i) {
        match t.text {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return k; // closing the enclosing block ends the statement
                }
            }
            ";" if depth == 0 => return k + 1,
            _ => {}
        }
    }
    close
}

/// Token indices of `Condvar::wait`-shaped calls: `<cv-ish>.wait(..)` /
/// `<cv-ish>.wait_timeout(..)` where the receiver ident names a condition
/// variable by convention (`cv`, `cond*`). The convention is what the
/// server and arbiter use; a condvar bound to another name simply is not
/// checked (lexical analysis cannot see types).
pub fn condvar_waits(toks: &[Tok]) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 2..toks.len() {
        let t = toks[i].text;
        if (t == "wait" || t == "wait_timeout")
            && toks.get(i + 1).map(|n| n.text) == Some("(")
            && toks[i - 1].text == "."
        {
            let recv = toks[i - 2].text;
            if recv == "cv" || recv.starts_with("cv_") || recv.starts_with("cond") {
                out.push(i);
            }
        }
    }
    out
}

/// Whether the call at token `i` sits inside a `loop { .. }` or
/// `while .. { .. }` block within the body `toks[open..close]` — the
/// predicate-loop shape R12 requires around every `Condvar::wait`.
pub fn in_predicate_loop(toks: &[Tok], open: usize, close: usize, i: usize) -> bool {
    for &blk in enclosing_opens(toks, open, close, i).iter().rev() {
        if blk == 0 {
            continue;
        }
        if toks[blk - 1].text == "loop" {
            return true;
        }
        // Scan the block's header backwards to the previous statement
        // boundary; a `while` there makes this a predicate loop.
        let mut k = blk;
        while k > 0 {
            k -= 1;
            match toks[k].text {
                ";" | "{" | "}" => break,
                "while" => return true,
                _ => {}
            }
        }
    }
    false
}
