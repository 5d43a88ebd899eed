//! `bench compare A.jsonl B.jsonl`: apply each end-to-end metric's bound
//! from `BENCHMARK.json` to two sets of runs (A = parent, B = change).

use crate::report::Json;
use crate::stats::{median, summarize};
use std::collections::BTreeMap;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Run-to-run spread is wider than the bound: no statement possible.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's readings on one side: a value per run, plus the widest
/// within-run spread (quartiles across reps) any of those runs recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Side {
    pub values: Vec<f64>,
    pub within_run_spread: f64,
}

impl Side {
    /// Spread across runs when there are several, else the within-run one.
    pub fn spread(&self) -> f64 {
        if self.values.len() >= 2 {
            summarize(&self.values).spread()
        } else {
            self.within_run_spread
        }
    }
}

/// Share by which `b` is worse than `a` (negative when better).
pub fn worse_by(rule: &Rule, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if rule.higher_is_better {
        -change
    } else {
        change
    }
}

/// The verdict for one (metric, workload) pairing.
pub fn verdict(rule: &Rule, a: &Side, b: &Side) -> (Verdict, f64, f64) {
    let worse = worse_by(rule, median(&a.values), median(&b.values));
    let spread = a.spread().max(b.spread());
    let every_b_beats_every_a = a
        .values
        .iter()
        .all(|&x| b.values.iter().all(|&y| worse_by(rule, x, y) < 0.0));
    let v = if every_b_beats_every_a {
        Verdict::Ok
    } else if worse > rule.bound && worse > spread {
        Verdict::Worse
    } else if spread > rule.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (v, worse, spread)
}

/// The `end_to_end` rules of a parsed `BENCHMARK.json`.
pub fn rules_from(benchmark: &Json) -> Result<Vec<Rule>, String> {
    let list = benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.items()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks `{k}`"));
            Ok(Rule {
                name: m.str_field("name").ok_or("name is not a string")?,
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// (workload → metric → readings) of the `bench` records in a JSONL text.
pub fn sides_from(jsonl: &str) -> Result<BTreeMap<String, BTreeMap<String, Side>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Side>> = BTreeMap::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if rec.str_field("kind").as_deref() != Some("bench") {
            continue;
        }
        let workload = rec
            .str_field("workload")
            .ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = rec
            .get("metrics")
            .ok_or(format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics.entries() {
            let num = |k: &str| m.get(k).and_then(|v| v.as_f64());
            let value = num("value").ok_or(format!("line {}: {name} has no value", i + 1))?;
            let side = out
                .entry(workload.clone())
                .or_default()
                .entry(name)
                .or_default();
            side.values.push(value);
            if let (Some(q1), Some(q3)) = (num("q1"), num("q3")) {
                if value != 0.0 {
                    side.within_run_spread = side.within_run_spread.max((q3 - q1) / value.abs());
                }
            }
        }
    }
    Ok(out)
}

/// Compare two run sets; prints one row per (metric, workload) and
/// returns whether any row is `worse`.
pub fn compare(benchmark: &str, a_jsonl: &str, b_jsonl: &str) -> Result<bool, String> {
    let rules = rules_from(&Json::parse(benchmark)?)?;
    let a = sides_from(a_jsonl)?;
    let b = sides_from(b_jsonl)?;
    let mut any_worse = false;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            return Err(format!("workload {workload} is missing from B"));
        };
        for rule in &rules {
            let (Some(sa), Some(sb)) = (a_metrics.get(&rule.name), b_metrics.get(&rule.name))
            else {
                return Err(format!("{workload}: metric {} is missing", rule.name));
            };
            let (v, worse, spread) = verdict(rule, sa, sb);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<12} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
                workload,
                rule.name,
                median(&sa.values),
                median(&sb.values),
                worse * 100.0,
                spread * 100.0,
                rule.bound * 100.0,
                v.name()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    fn side(values: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            within_run_spread: 0.0,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(&rule(true, 0.1), 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(&rule(false, 0.1), 100.0, 90.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let thr = rule(true, 0.05);
        // Within the bound, tight spread.
        let a = side(&[100.0, 101.0, 99.0]);
        assert_eq!(verdict(&thr, &a, &side(&[98.0, 99.0, 97.5])).0, Verdict::Ok);
        // 20 % slower, tight spread.
        assert_eq!(
            verdict(&thr, &a, &side(&[80.0, 81.0, 79.0])).0,
            Verdict::Worse
        );
        // Spread wider than the bound and medians close: no statement.
        let noisy_a = side(&[100.0, 120.0, 80.0]);
        let noisy_b = side(&[97.0, 125.0, 78.0]);
        assert_eq!(verdict(&thr, &noisy_a, &noisy_b).0, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(
            verdict(&thr, &noisy_a, &side(&[130.0, 150.0, 121.0])).0,
            Verdict::Ok
        );
        // A regression larger than the (wide) spread is still a regression.
        assert_eq!(
            verdict(&thr, &noisy_a, &side(&[40.0, 50.0, 30.0])).0,
            Verdict::Worse
        );
        // Lower-is-better latency.
        let lat = rule(false, 0.10);
        assert_eq!(verdict(&lat, &side(&[20.0]), &side(&[21.0])).0, Verdict::Ok);
        assert_eq!(
            verdict(&lat, &side(&[20.0]), &side(&[23.0])).0,
            Verdict::Worse
        );
    }

    #[test]
    fn single_runs_fall_back_to_within_run_spread() {
        let thr = rule(true, 0.05);
        let a = Side {
            values: vec![100.0],
            within_run_spread: 0.2,
        };
        assert_eq!(verdict(&thr, &a, &side(&[96.0])).0, Verdict::Unresolved);
    }

    #[test]
    fn parses_rules_and_records() {
        let bm = Json::parse(
            r#"{"end_to_end":[{"name":"slots_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let rules = rules_from(&bm).unwrap();
        assert_eq!(
            rules[0],
            Rule {
                name: "slots_per_s".into(),
                higher_is_better: true,
                bound: 0.1
            }
        );
        let line = r#"{"kind":"bench","workload":"w","metrics":{"slots_per_s":{"value":100.0,"unit":"1/s","q1":98.0,"q3":103.0,"n":5}}}"#;
        let trace = r#"{"kind":"trace","workload":"w","metrics":{"x":{"value":1.0,"unit":"us"}}}"#;
        let sides = sides_from(&format!("{line}\n{trace}\n{line}\n")).unwrap();
        let s = &sides["w"]["slots_per_s"];
        assert_eq!(s.values, [100.0, 100.0]);
        assert!((s.within_run_spread - 0.05).abs() < 1e-12);
        assert!(!sides["w"].contains_key("x"));
    }
}
