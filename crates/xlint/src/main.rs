//! CLI entry point:
//! `cargo run -p xlint -- [--deny] [--root DIR] [--list-rules] [--rules-table] [--json]`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut list = false;
    let mut table = false;
    let mut json = false;
    // Default to the workspace root this binary was built in, so the tool
    // works no matter where `cargo run -p xlint` is invoked from.
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--list-rules" => list = true,
            "--rules-table" => table = true,
            "--json" => json = true,
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("xlint: --root needs a directory");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(dir);
            }
            other => {
                eprintln!("xlint: unknown argument `{other}`");
                eprintln!(
                    "usage: xlint [--deny] [--root DIR] [--list-rules] [--rules-table] [--json]"
                );
                return ExitCode::from(2);
            }
        }
    }

    if list {
        for (id, title, summary) in xlint::RULES {
            println!("{id}  {title} — {summary}");
        }
        return ExitCode::SUCCESS;
    }
    if table {
        // The exact markdown rows DESIGN.md's "Enforced invariants" table
        // carries; the design_drift test fails when they diverge.
        println!("| Rule | Invariant it guards |");
        println!("|------|---------------------|");
        for (id, title, summary) in xlint::RULES {
            println!("| **{id}** {title} | {summary} |");
        }
        return ExitCode::SUCCESS;
    }

    match xlint::check_workspace(&root) {
        Ok(findings) => {
            if json {
                println!("{}", findings_json(&findings));
            } else {
                for f in &findings {
                    println!("{f}");
                }
            }
            if findings.is_empty() {
                eprintln!("xlint: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("xlint: {} finding(s)", findings.len());
                if deny {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
        }
        Err(e) => {
            eprintln!("xlint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Machine-readable findings: a JSON array of
/// `{"file", "line", "rule", "message"}` objects (hand-rolled — the build
/// is offline, no serde).
fn findings_json(findings: &[xlint::Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message)
        ));
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
