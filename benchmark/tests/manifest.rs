//! `BENCHMARK.json` and the tables compiled into the bins must agree:
//! the driver refuses a run whose metrics differ from the manifest's.

use nrscope_perf_ledger::report::Json;
use nrscope_perf_ledger::{cli, layers, ledger, tape};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.items()
        .iter()
        .map(|m| {
            (
                m.get("name").unwrap().as_str().unwrap().to_string(),
                m.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn manifest_lists_exactly_what_the_bins_emit() {
    let m = manifest();
    let keys: Vec<String> = m.entries().into_iter().map(|(k, _)| k).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        m.get("run_seconds").unwrap().as_f64(),
        Some(cli::DEFAULT_SECONDS)
    );

    let workloads: Vec<String> = m
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| {
            let why = w.get("why").unwrap();
            let why = why.as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
            w.get("name").unwrap().as_str().unwrap().to_string()
        })
        .collect();
    let compiled: Vec<&str> = tape::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, compiled);

    let e2e = names_and_units(&m.get("end_to_end").unwrap());
    let compiled: Vec<(String, String)> = ledger::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, compiled);
    for entry in m.get("end_to_end").unwrap().items() {
        let bound = entry.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    let layers = names_and_units(&m.get("per_layer").unwrap());
    let compiled: Vec<(String, String)> = layers::PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(layers, compiled);
    assert!(layers.len() <= 128);

    let mut all: Vec<&String> = e2e.iter().chain(&layers).map(|(n, _)| n).collect();
    all.extend(&workloads);
    let distinct: std::collections::BTreeSet<&&String> = all.iter().collect();
    assert_eq!(distinct.len(), all.len(), "every name is used once");
}
