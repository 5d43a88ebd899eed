//! `trace` — per-layer metrics of each workload, with a counting
//! allocator installed (this bin only) and spans written to
//! `benchmark/out/trace-<workload>.jsonl`.
//!
//! ```text
//! trace [--workload NAME] [--seed N] [--out FILE]
//! ```

use nrscope_perf_ledger::alloc::CountingAlloc;
use nrscope_perf_ledger::{cli, layers};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&argv) {
        Ok(args) => cli::drive("trace", &args, |w, a, out, host| {
            layers::run_trace(w, a.seed, a.seconds, out, host)
        }),
        Err(e) => {
            eprintln!("trace: {e}");
            ExitCode::from(2)
        }
    }
}
