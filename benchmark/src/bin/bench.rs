//! `bench` — end-to-end metrics of each workload, and `bench compare`.
//!
//! ```text
//! bench [--workload NAME] [--seed N] [--seconds S] [--out FILE]
//! bench compare A.jsonl B.jsonl
//! ```

use nrscope_perf_ledger::{cli, compare, ledger};
use std::process::ExitCode;

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    compare::compare(&read("BENCHMARK.json")?, &read(a)?, &read(b)?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("usage: bench compare A.jsonl B.jsonl");
            return ExitCode::from(2);
        };
        return match run_compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    match cli::parse(&argv) {
        Ok(a) if a.trace => {
            eprintln!("bench: --trace 1 is the `trace` bin's job (benchmark/run.sh dispatches)");
            ExitCode::from(2)
        }
        Ok(args) => cli::drive("bench", &args, |w, a, out, host| {
            ledger::run_bench(w, a.seed, a.seconds, out, host)
        }),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
