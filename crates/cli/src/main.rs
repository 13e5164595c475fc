//! `xsort` binary entry point.

use std::process::ExitCode;

use nexsort_cli::app::{parse_args, run_code, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    match parse_args(&args) {
        Ok(cli) => match run_code(&cli) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xsort: {}", e.message);
                ExitCode::from(e.code)
            }
        },
        // `-h`/`--help` surface the usage text as a parse "error": that is a
        // requested success, not a usage mistake.
        Err(msg) if msg == USAGE => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
