//! Doc drift: a knob the docs name must be a knob the config has. A
//! backticked `governor.*` / `admission.*` / `clock.*` / `supervise.*`
//! name in README.md or DESIGN.md that is not a key of
//! `ScopeConfig::default().to_json()` is a documented option with
//! nothing behind it; a constant's value the docs state is the constant's.

use nr_scope::phy::pdcch::PILOT_SNR_FLOOR;
use nr_scope::scope::ScopeConfig;

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

/// DESIGN.md states the pilot gate's floor beside the constant's name: the
/// number there is the constant's.
#[test]
fn documented_pilot_snr_floor_is_the_constant() {
    let design = include_str!("../DESIGN.md");
    let stated = design.split("`pdcch::PILOT_SNR_FLOOR` (").nth(1);
    let stated = stated.and_then(|rest| rest.split(')').next()?.parse::<f32>().ok());
    assert_eq!(stated, Some(PILOT_SNR_FLOOR));
}
