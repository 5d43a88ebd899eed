//! Argument parsing shared by the `bench` and `trace` bins.

use crate::check::Failure;
use crate::report::{HostFacts, RunRecord};
use crate::tape::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Timed replay per run when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` carries the same number.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Directory (relative to the checkout root, where `run.sh` puts the
/// process) for everything the benchmark writes.
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workloads to run: the one named by `--workload`, else all.
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics (the `trace` bin's job).
    pub trace: bool,
    /// JSONL file the full run records are appended to.
    pub out: PathBuf,
}

/// Parse `--workload NAME --seed N --seconds S --trace 0|1 --out FILE`.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(OUT_DIR).join("runs.jsonl"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?;
                parsed.workloads = vec![w];
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// The body both bins share: run `run` on each requested workload, append
/// its record to `args.out`, print every metric and — last line of each
/// workload's output — the result object. Fails when a run errors or a
/// record is not `correct`, with the exit code of the first failed check's
/// class ([`crate::check::Class::exit_code`]).
pub fn drive(
    bin: &str,
    args: &Args,
    run: impl Fn(Workload, &Args, &Path, &HostFacts) -> Result<RunRecord, Failure>,
) -> ExitCode {
    let out = Path::new(OUT_DIR);
    let give_up = |workload: &str, f: Failure| {
        eprintln!("{bin}: {workload}: {f}");
        ExitCode::from(f.class.exit_code())
    };
    if let Err(e) = std::fs::create_dir_all(out) {
        return give_up(OUT_DIR, e.into());
    }
    let host = HostFacts::gather(out);
    let mut first_failure = None;
    for workload in &args.workloads {
        let record = match run(*workload, args, out, &host) {
            Ok(r) => r,
            Err(f) => return give_up(workload.name, f),
        };
        if let Err(e) = record.append_to(&args.out) {
            return give_up(workload.name, e.into());
        }
        record.print_human();
        for f in &record.failures {
            eprintln!("{bin}: {}: CHECK FAILED: {f}", workload.name);
        }
        println!("{}", record.contract_line());
        first_failure = first_failure.or(record.failures.first().map(|f| f.class));
    }
    match first_failure {
        None => ExitCode::SUCCESS,
        Some(class) => ExitCode::from(class.exit_code()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse(&args("--workload iq-dense --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "iq-dense");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
    }

    #[test]
    fn defaults_run_every_workload() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.workloads.len(), WORKLOADS.len());
        assert_eq!((a.seed, a.seconds, a.trace), (1, DEFAULT_SECONDS, false));
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--frobnicate 1")).is_err());
    }
}
