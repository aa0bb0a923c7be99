//! `BENCHMARK.json` and the program agree on every metric name and unit.

use lcrs_perfbench::layers;
use lcrs_perfbench::EndToEnd;

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric entry in the `section` array (the file
/// keeps one entry per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let start = SPEC.find(&format!("\"{section}\"")).expect("section present");
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines().filter_map(|l| Some((field(l, "name")?, field(l, "unit")?))).collect()
}

#[test]
fn end_to_end_names_and_units_match() {
    let e = EndToEnd { write_amp: Some(1.0), ..EndToEnd::default() };
    let mut emitted: Vec<(String, String)> =
        e.into_outcome().metrics.0.into_iter().map(|m| (m.name, m.unit.to_string())).collect();
    // peak_rss_mb is absent where /proc/self/status is.
    if !emitted.iter().any(|(n, _)| n == "peak_rss_mb") {
        emitted.push(("peak_rss_mb".into(), "MB".into()));
    }
    let mut spec = declared("end_to_end");
    spec.sort();
    emitted.sort();
    assert_eq!(spec, emitted);
}

#[test]
fn per_layer_names_and_units_match() {
    let mut emitted: Vec<(String, String)> =
        layers::template().0.into_iter().map(|m| (m.name, m.unit.to_string())).collect();
    let mut spec = declared("per_layer");
    spec.sort();
    emitted.sort();
    assert_eq!(spec, emitted);
}
