//! Result records: the one-line contract JSON on stdout, the full record
//! (quartiles, sample counts, host facts, tape hash) appended to a JSONL
//! file, and the human-readable metric lines.

use crate::check::Failure;
use crate::stats::Summary;
use serde::{Content, DeError, Deserialize, Serialize};
use std::io::{self, Write};
use std::path::Path;
use std::process::Command;

/// A JSON value: the vendored serde's content tree, made (de)serialisable
/// so `serde_json` can render and parse free-form documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Content);

impl Serialize for Json {
    fn serialize_content(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn deserialize_content(c: &Content) -> Result<Json, DeError> {
        Ok(Json(c.clone()))
    }
}

pub fn obj(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string().into(), v))
            .collect(),
    )
}

pub fn text(s: &str) -> Content {
    Content::Str(s.to_string().into())
}

impl Json {
    pub fn parse(s: &str) -> Result<Json, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("content tree renders")
    }

    pub fn get(&self, key: &str) -> Option<Json> {
        match &self.0 {
            Content::Map(m) => m
                .iter()
                .find(|(k, _)| k.as_ref() == key)
                .map(|(_, v)| Json(v.clone())),
            _ => None,
        }
    }

    /// The string under `key`, if there is one.
    pub fn str_field(&self, key: &str) -> Option<String> {
        self.get(key)?.as_str().map(String::from)
    }

    pub fn entries(&self) -> Vec<(String, Json)> {
        match &self.0 {
            Content::Map(m) => m
                .iter()
                .map(|(k, v)| (k.to_string(), Json(v.clone())))
                .collect(),
            _ => Vec::new(),
        }
    }

    pub fn items(&self) -> Vec<Json> {
        match &self.0 {
            Content::Seq(s) => s.iter().cloned().map(Json).collect(),
            _ => Vec::new(),
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            Content::F64(v) => Some(v),
            Content::U64(v) => Some(v as f64),
            Content::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match &self.0 {
            Content::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }
}

/// One reported metric: `summary.median` is the reported value (for the
/// end-to-end timings the estimate over all reps, see `ledger::estimate`;
/// for set-up and kernel timings the median reading), the quartiles and
/// `n` describe the readings behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, summary: Summary) -> Metric {
        Metric {
            name,
            unit,
            summary,
        }
    }

    /// A metric read once (counts, accuracy shares).
    pub fn once(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::new(
            name,
            unit,
            Summary {
                median: value,
                q1: value,
                q3: value,
                n: 1,
            },
        )
    }
}

/// Facts about the host recorded in every output, so a number is never
/// read without knowing what produced it.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    /// Filesystem type under the benchmark's output directory (where the
    /// durable workload journals).
    pub out_fs: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

impl HostFacts {
    pub fn gather(out_dir: &Path) -> HostFacts {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            out_fs: fs_type(out_dir),
        }
    }

    pub fn to_content(&self) -> Content {
        obj(vec![
            ("nproc", Content::U64(self.nproc as u64)),
            ("rustc", text(&self.rustc)),
            ("commit", text(&self.commit)),
            ("out_fs", text(&self.out_fs)),
            ("tmpfs", Content::Bool(self.out_fs == "tmpfs")),
        ])
    }
}

/// Everything one run reports.
pub struct RunRecord {
    /// `"bench"` (end-to-end metrics) or `"trace"` (per-layer metrics).
    pub kind: &'static str,
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub tape_hash: u64,
    pub tape_slots: u64,
    pub reps: usize,
    pub failures: Vec<Failure>,
    /// Slot calls timed, and how many of them misbehaved.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Context printed beside the metrics but not compared across runs.
    pub info: Vec<(&'static str, f64)>,
    pub host: HostFacts,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    obj(vec![
                        ("value", Content::F64(m.summary.median)),
                        ("unit", text(m.unit)),
                    ]),
                )
            })
            .collect();
        Json(obj(vec![
            ("correct", Content::Bool(self.correct())),
            ("attempted", Content::U64(self.attempted)),
            ("failed", Content::U64(self.failed)),
            ("metrics", obj(metrics)),
        ]))
        .render()
    }

    fn full_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    obj(vec![
                        ("value", Content::F64(m.summary.median)),
                        ("unit", text(m.unit)),
                        ("q1", Content::F64(m.summary.q1)),
                        ("q3", Content::F64(m.summary.q3)),
                        ("n", Content::U64(m.summary.n as u64)),
                    ]),
                )
            })
            .collect();
        let info = self
            .info
            .iter()
            .map(|(k, v)| (*k, Content::F64(*v)))
            .collect();
        Json(obj(vec![
            ("kind", text(self.kind)),
            ("workload", text(self.workload)),
            ("seed", Content::U64(self.seed)),
            ("seconds", Content::F64(self.seconds)),
            ("tape_hash", text(&format!("{:016x}", self.tape_hash))),
            ("tape_slots", Content::U64(self.tape_slots)),
            ("reps", Content::U64(self.reps as u64)),
            ("correct", Content::Bool(self.correct())),
            (
                "failures",
                Content::Seq(self.failures.iter().map(|f| text(&f.to_string())).collect()),
            ),
            ("attempted", Content::U64(self.attempted)),
            ("failed", Content::U64(self.failed)),
            ("host", self.host.to_content()),
            ("metrics", obj(metrics)),
            ("info", obj(info)),
        ]))
        .render()
    }

    /// Append the full record as one line of `path`.
    pub fn append_to(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(self.full_line().as_bytes())?;
        f.write_all(b"\n")
    }

    /// Every metric by name with unit, quartiles and sample count, then
    /// the context figures, host facts and any failed checks.
    pub fn print_human(&self) {
        println!(
            "== {} {} seed {} | tape {:016x} ({} slots) | {} reps | nproc {} | {} | commit {} | out on {}",
            self.kind,
            self.workload,
            self.seed,
            self.tape_hash,
            self.tape_slots,
            self.reps,
            self.host.nproc,
            self.host.rustc,
            self.host.commit,
            self.host.out_fs,
        );
        for m in &self.metrics {
            let s = m.summary;
            println!(
                "{:<34} {:>14.4} {:<8} q1 {:.4} q3 {:.4} n {}",
                m.name, s.median, m.unit, s.q1, s.q3, s.n
            );
        }
        for (k, v) in &self.info {
            println!("  {k:<32} {v:>14.4}");
        }
        println!(
            "  ops_attempted {} ops_failed {}",
            self.attempted, self.failed
        );
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let rec = RunRecord {
            kind: "bench",
            workload: "iq-sparse",
            seed: 1,
            seconds: 1.0,
            tape_hash: 7,
            tape_slots: 10,
            reps: 3,
            failures: Vec::new(),
            attempted: 30,
            failed: 0,
            metrics: vec![Metric::once("slots_per_s", "1/s", 401.25)],
            info: vec![("realtime_factor", 0.2)],
            host: HostFacts {
                nproc: 2,
                rustc: "rustc".into(),
                commit: "abc".into(),
                out_fs: "ext4".into(),
            },
        };
        let parsed = Json::parse(&rec.contract_line()).unwrap();
        let keys: Vec<String> = parsed.entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = parsed.get("metrics").unwrap().get("slots_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(401.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
        // The full record round-trips and carries the host facts.
        let full = Json::parse(&rec.full_line()).unwrap();
        assert_eq!(full.get("workload").unwrap().as_str(), Some("iq-sparse"));
        assert_eq!(
            full.get("host").unwrap().get("nproc").unwrap().as_f64(),
            Some(2.0)
        );
    }
}
