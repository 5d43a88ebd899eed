//! Doc drift: a knob the docs name must be a knob the config has. A
//! backticked `governor.*` / `admission.*` / `clock.*` / `supervise.*`
//! name in README.md or DESIGN.md that is not a key of
//! `ScopeConfig::default().to_json()` is a documented option with
//! nothing behind it; a counter or gauge the docs name must be one a
//! scope's metrics snapshot emits; a constant's value the docs state is
//! the constant's.

use nr_scope::phy::pdcch::PILOT_SNR_FLOOR;
use nr_scope::scope::{NrScope, ScopeConfig};

/// The text of JSON object `"block":{…}` inside `json`, braces matched.
fn block<'a>(json: &'a str, block: &str) -> &'a str {
    let open = format!("\"{block}\":{{");
    let start = json.find(&open).expect("config block") + open.len();
    let mut depth = 1;
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return &json[start..start + i];
        }
    }
    panic!("unbalanced braces in {block}");
}

#[test]
fn every_documented_knob_is_a_config_key() {
    let json = ScopeConfig::default().to_json();
    let mut checked = 0;
    for (doc, text) in [
        ("README.md", include_str!("../README.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
    ] {
        // Odd-numbered pieces of a split on '`' are the backticked spans.
        for span in text.split('`').skip(1).step_by(2) {
            let Some((prefix, key)) = span.split_once('.') else {
                continue;
            };
            let is_block = ["governor", "admission", "clock", "supervise"].contains(&prefix);
            let is_knob = key.chars().all(|c| c.is_ascii_lowercase() || c == '_');
            if !is_block || !is_knob || key == "rs" {
                continue;
            }
            assert!(
                block(&json, prefix).contains(&format!("\"{key}\":")),
                "{doc} names `{span}`, which ScopeConfig does not have"
            );
            checked += 1;
        }
    }
    assert!(checked >= 8, "the knob tables were found ({checked} names)");
}

/// A doc that calls a backticked snake_case name a counter or a gauge —
/// "`a` / `b` counters", "`c`, and `d` gauges", "gauge `e`" — names a
/// metric family `NrScope::metrics_snapshot()` must emit — the registry's
/// instruments and the scope's own (the telemetry audit's "families not
/// emitted" finding, SNIPPETS.md 2).
#[test]
fn every_documented_counter_and_gauge_is_emitted() {
    let snap = NrScope::new(ScopeConfig::default(), None).metrics_snapshot();
    let emitted: Vec<&str> = (snap.counters.iter().map(|c| c.name.as_str()))
        .chain(snap.gauges.iter().map(|g| g.name.as_str()))
        .collect();
    let snake = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_lowercase())
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let is_kind = |w: &str| ["counter", "counters", "gauge", "gauges"].contains(&w);
    let mut checked = 0;
    for (doc, text) in [
        ("README.md", include_str!("../README.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
    ] {
        let pieces: Vec<&str> = text.split('`').collect();
        // Backticked names joined by nothing but separators, so far.
        let mut run: Vec<&str> = Vec::new();
        for i in (1..pieces.len()).step_by(2) {
            let (before, span) = (pieces[i - 1], pieces[i]);
            let after = pieces.get(i + 1).copied().unwrap_or("");
            if !snake(span) {
                run.clear();
                continue;
            }
            let separator = (before.split(|c: char| c.is_whitespace() || c == ',' || c == '/'))
                .all(|w| w.is_empty() || w == "and" || w == "or");
            if !separator {
                run.clear();
            }
            run.push(span);
            let word_after: String = (after.trim_start().chars())
                .take_while(char::is_ascii_alphabetic)
                .collect();
            let mut word_before = before.trim_end().rsplit(|c: char| !c.is_ascii_alphabetic());
            let named = if is_kind(&word_after) {
                std::mem::take(&mut run)
            } else if before.ends_with(' ') && word_before.next().is_some_and(is_kind) {
                vec![span]
            } else {
                continue;
            };
            for name in named {
                assert!(
                    emitted.contains(&name),
                    "{doc} calls `{name}` a counter or gauge; a scope's snapshot has no such name"
                );
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 20,
        "the metric names were found ({checked} names)"
    );
}

/// DESIGN.md states the pilot gate's floor beside the constant's name: the
/// number there is the constant's.
#[test]
fn documented_pilot_snr_floor_is_the_constant() {
    let design = include_str!("../DESIGN.md");
    let stated = design.split("`pdcch::PILOT_SNR_FLOOR` (").nth(1);
    let stated = stated.and_then(|rest| rest.split(')').next()?.parse::<f32>().ok());
    assert_eq!(stated, Some(PILOT_SNR_FLOOR));
}
