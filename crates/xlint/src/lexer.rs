//! A hand-rolled Rust lexer, in the spirit of the workspace's offline shims:
//! just enough of the language to *mask* everything that is not code.
//!
//! The linter's rules are lexical, so their one correctness obligation is to
//! never mistake the inside of a string, raw string, char literal, or
//! comment for code (or vice versa). [`mask`] produces a same-length copy of
//! the source in which every such byte is blanked to a space (newlines are
//! kept, so line numbers survive), plus the `xlint::allow(...)` suppression
//! pragmas found in comments and the spans of `#[cfg(test)]` modules.

use std::collections::HashMap;

/// The lexer's view of one source file.
pub struct Masked {
    /// The source with comments and literal contents blanked to spaces.
    /// Byte-for-byte the same length as the input; newlines are preserved.
    pub code: String,
    /// Rules suppressed per line: `// xlint::allow(R7)` registers `R7` on
    /// the line the comment ends on (a finding is suppressed by a pragma on
    /// its own line or on the line directly above).
    pub allows: HashMap<usize, Vec<String>>,
    /// Byte ranges (half-open) covered by `#[cfg(test)]` modules.
    pub test_spans: Vec<(usize, usize)>,
}

impl Masked {
    /// Whether `rule` is suppressed for a finding on `line` (1-based).
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        let hit = |l: usize| self.allows.get(&l).is_some_and(|v| v.iter().any(|r| r == rule));
        hit(line) || (line > 1 && hit(line - 1))
    }

    /// Whether byte offset `pos` falls inside a `#[cfg(test)]` module.
    pub fn in_test(&self, pos: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| pos >= s && pos < e)
    }
}

/// 1-based line number of byte offset `pos` in `src`.
pub fn line_of(src: &str, pos: usize) -> usize {
    src.as_bytes()[..pos.min(src.len())].iter().filter(|&&b| b == b'\n').count() + 1
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Record any `xlint::allow(a, b)` pragmas inside comment text `c`,
/// registering them on `line`.
fn collect_pragmas(c: &str, line: usize, allows: &mut HashMap<usize, Vec<String>>) {
    let mut rest = c;
    while let Some(i) = rest.find("xlint::allow(") {
        rest = &rest[i + "xlint::allow(".len()..];
        if let Some(close) = rest.find(')') {
            for rule in rest[..close].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    allows.entry(line).or_default().push(rule.to_string());
                }
            }
            rest = &rest[close..];
        } else {
            break;
        }
    }
}

/// Blank comments and literals out of `src`. See the module docs.
pub fn mask(src: &str) -> Masked {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut allows = HashMap::new();
    let mut i = 0;
    let mut line = 1;
    // True when the previous retained byte continues an identifier, so a
    // raw-string prefix like the `r` of `r"..."` is not confused with the
    // tail of an identifier such as `var` in `var"` (not valid Rust anyway).
    let mut prev_ident = false;

    // Blank out[s..e] except newlines.
    let blank = |out: &mut Vec<u8>, s: usize, e: usize| {
        let e = e.min(out.len());
        for slot in &mut out[s..e] {
            if *slot != b'\n' {
                *slot = b' ';
            }
        }
    };

    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            prev_ident = false;
            i += 1;
            continue;
        }
        // Line comment (also doc comments // /// //!).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            collect_pragmas(&src[start..i], line, &mut allows);
            blank(&mut out, start, i);
            prev_ident = false;
            continue;
        }
        // Block comment, with nesting.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            collect_pragmas(&src[start..i], line, &mut allows);
            blank(&mut out, start, i);
            prev_ident = false;
            continue;
        }
        // Raw (byte) string: r"..."  r#"..."#  br##"..."##  etc.
        if (c == b'r' || c == b'b') && !prev_ident {
            let mut j = i;
            if b[j] == b'b' && j + 1 < b.len() && b[j + 1] == b'r' {
                j += 1;
            }
            if b[j] == b'r' {
                let mut k = j + 1;
                while k < b.len() && b[k] == b'#' {
                    k += 1;
                }
                if k < b.len() && b[k] == b'"' {
                    let hashes = k - (j + 1);
                    let close: Vec<u8> =
                        std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
                    let start = i;
                    i = k + 1;
                    while i < b.len() {
                        if b[i] == b'\n' {
                            line += 1;
                            i += 1;
                        } else if b[i] == b'"' && b[i..].starts_with(&close) {
                            i += close.len();
                            break;
                        } else {
                            i += 1;
                        }
                    }
                    blank(&mut out, start, i);
                    prev_ident = false;
                    continue;
                }
            }
        }
        // Byte string b"..." falls through to plain string handling below
        // after consuming the prefix.
        if c == b'b' && !prev_ident && i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'\'') {
            i += 1; // the quote is handled on the next iteration
            prev_ident = false;
            // Treat the `b` itself as code (blank? keep): blank it so the
            // literal vanishes entirely.
            out[i - 1] = b' ';
            continue;
        }
        // String literal.
        if c == b'"' {
            let start = i;
            i += 1;
            while i < b.len() {
                match b[i] {
                    b'\\' => {
                        // A line continuation (`\` at end of line) still
                        // advances the line counter.
                        if i + 1 < b.len() && b[i + 1] == b'\n' {
                            line += 1;
                        }
                        // Clamp: a truncated escape must not run past EOF.
                        i = (i + 2).min(b.len());
                    }
                    b'\n' => {
                        line += 1;
                        i += 1;
                    }
                    b'"' => {
                        i += 1;
                        break;
                    }
                    _ => i += 1,
                }
            }
            blank(&mut out, start, i);
            prev_ident = false;
            continue;
        }
        // Char literal vs. lifetime.
        if c == b'\'' {
            if i + 1 < b.len() && b[i + 1] == b'\\' {
                // Escaped char literal: '\n', '\'', '\u{...}'.
                let start = i;
                i += 2;
                while i < b.len() && b[i] != b'\'' {
                    i += 1;
                }
                i = (i + 1).min(b.len());
                blank(&mut out, start, i);
                prev_ident = false;
                continue;
            }
            // 'x' is a char literal; 'ident (no closing quote) a lifetime.
            let mut k = i + 1;
            while k < b.len() && is_ident(b[k]) {
                k += 1;
            }
            if k > i + 1 && k < b.len() && b[k] == b'\'' && k == i + 2 {
                // Exactly one ident char then a quote: 'a' or '_'.
                blank(&mut out, i, k + 1);
                i = k + 1;
                prev_ident = false;
                continue;
            }
            if k == i + 1 && k < b.len() {
                // Non-ident single char: '+' etc.
                if k + 1 < b.len() && b[k + 1] == b'\'' {
                    blank(&mut out, i, k + 2);
                    i = k + 2;
                    prev_ident = false;
                    continue;
                }
            }
            // A lifetime: leave as code.
            i = k.max(i + 1);
            prev_ident = false;
            continue;
        }
        prev_ident = is_ident(c);
        i += 1;
    }

    let code = String::from_utf8_lossy(&out).into_owned();
    let test_spans = find_test_spans(&code);
    Masked { code, allows, test_spans }
}

/// Spans of `#[cfg(test)] mod ... { ... }` in masked code.
fn find_test_spans(code: &str) -> Vec<(usize, usize)> {
    let b = code.as_bytes();
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(off) = code[from..].find("#[cfg(test)]") {
        let attr = from + off;
        // Find the opening brace of the annotated item, then match it.
        if let Some(rel) = code[attr..].find('{') {
            let open = attr + rel;
            let mut depth = 0usize;
            let mut end = code.len();
            for (k, &ch) in b.iter().enumerate().skip(open) {
                if ch == b'{' {
                    depth += 1;
                } else if ch == b'}' {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
            }
            spans.push((attr, end));
            from = end;
        } else {
            break;
        }
    }
    spans
}

/// One lexical token of masked code: an identifier/number word or a single
/// punctuation byte, with its byte offset and 1-based line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok<'a> {
    /// The token text (a word, or one punctuation character).
    pub text: &'a str,
    /// Byte offset in the (masked) source.
    pub pos: usize,
    /// 1-based line number.
    pub line: usize,
}

/// Split masked code into identifier/number words and punctuation bytes.
pub fn tokens(code: &str) -> Vec<Tok<'_>> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        if b[i] == b'\n' {
            line += 1;
            i += 1;
        } else if b[i].is_ascii_whitespace() {
            i += 1;
        } else if is_ident(b[i]) {
            let start = i;
            while i < b.len() && is_ident(b[i]) {
                i += 1;
            }
            out.push(Tok { text: &code[start..i], pos: start, line });
        } else {
            out.push(Tok { text: &code[i..i + 1], pos: i, line });
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let m = mask("let x = \"unwrap()\"; // unwrap()\nlet y = 1; /* panic! */");
        assert!(!m.code.contains("unwrap"));
        assert!(!m.code.contains("panic"));
        assert!(m.code.contains("let x ="));
        assert!(m.code.contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let m = mask("let s = r#\"has \"quotes\" and unwrap()\"#; call();");
        assert!(!m.code.contains("unwrap"));
        assert!(m.code.contains("call();"));
        let m = mask("let s = br##\"x\"# still in\"##; after();");
        assert!(!m.code.contains("still in"));
        assert!(m.code.contains("after();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let m = mask("let c = 'x'; fn f<'a>(v: &'a str) -> &'a str { v }");
        assert!(!m.code.contains("'x'"));
        assert!(m.code.contains("'a str"));
        let m = mask("let n = '\\n'; let q = '\\''; let p = '('; done();");
        assert!(!m.code.contains("'('"), "char-literal '(' must be blanked: {}", m.code);
        assert!(m.code.contains("done();"));
    }

    #[test]
    fn nested_block_comments() {
        let m = mask("a(); /* outer /* inner */ still comment */ b();");
        assert!(m.code.contains("a();") && m.code.contains("b();"));
        assert!(!m.code.contains("still"));
    }

    #[test]
    fn pragmas_are_collected_per_line() {
        let m = mask("x();\n// xlint::allow(R7, R5)\ny();\nz(); // xlint::allow(R1)\n");
        assert!(m.allowed(2, "R7") && m.allowed(2, "R5"));
        assert!(m.allowed(3, "R7"), "pragma applies to the following line");
        assert!(m.allowed(4, "R1"));
        assert!(!m.allowed(1, "R7"));
    }

    #[test]
    fn crlf_sources_keep_line_numbers_and_pragmas() {
        // Windows checkouts: `\r\n` line endings must not shift line
        // numbers, leak `\r` into tokens, or detach pragmas from the line
        // they cover.
        let src = "a();\r\n// xlint::allow(R7)\r\nb.unwrap();\r\nc();\r\n";
        let m = mask(src);
        assert!(m.allowed(3, "R7"), "pragma covers the line below across CRLF");
        assert!(!m.allowed(4, "R7"));
        let toks = tokens(&m.code);
        assert!(toks.iter().all(|t| !t.text.contains('\r')), "no \\r inside tokens");
        let c = toks.iter().find(|t| t.text == "c").expect("c survives");
        assert_eq!(c.line, 4);
    }

    #[test]
    fn trailing_backslash_string_continuation() {
        // A `\` before the newline continues the string literal onto the
        // next line; the continuation is still string content and must be
        // masked, while line accounting stays exact.
        let src = "let s = \"spans \\\n    unwrap() lines\";\nafter();\n";
        let m = mask(src);
        assert!(!m.code.contains("unwrap"), "continued string content is blanked");
        assert!(m.code.contains("after();"));
        assert_eq!(m.code.matches('\n').count(), src.matches('\n').count(), "newlines preserved");
        let toks = tokens(&m.code);
        let after = toks.iter().find(|t| t.text == "after").expect("after survives");
        assert_eq!(after.line, 3);
    }

    #[test]
    fn truncated_escape_at_eof_does_not_panic() {
        // A source ending mid-escape (backslash as the last byte of an
        // unterminated string) must mask to the end without panicking.
        for src in ["let s = \"dangling\\", "let c = '\\", "x(); // trail\\"] {
            let m = mask(src);
            assert_eq!(m.code.len(), src.len(), "mask preserves length for {src:?}");
        }
    }

    #[test]
    fn cfg_test_spans_cover_test_modules() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn more() {}\n";
        let m = mask(src);
        let unwrap_pos = m.code.find("unwrap").expect("unwrap is code here");
        assert!(m.in_test(unwrap_pos));
        let prod_pos = m.code.find("prod").expect("prod");
        assert!(!m.in_test(prod_pos));
        let more_pos = m.code.find("more").expect("more");
        assert!(!m.in_test(more_pos));
    }
}
