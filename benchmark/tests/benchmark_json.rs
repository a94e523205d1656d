//! `BENCHMARK.json` at the repository root is well formed and names
//! exactly the workloads and metrics the benchmark reports.

use std::collections::BTreeSet;
use std::path::Path;

use bvf_benchmark::workload::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use serde_json::Value;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
}

fn spec() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect()
}

fn sorted<'a>(names: &[&'a str]) -> Vec<&'a str> {
    let mut v = names.to_vec();
    v.sort_unstable();
    v
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn top_level_shape() {
    let s = spec();
    assert_eq!(
        keys(&s),
        sorted(&[
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ])
    );
    let secs = s["run_seconds"].as_u64().unwrap();
    assert!((1..=60).contains(&secs));
    assert_eq!(secs, RUN_SECONDS);
    let command = s["command"].as_array().unwrap();
    assert!(!command.is_empty() && command.len() <= 32);
    let paths = s["paths"].as_array().unwrap();
    assert!((1..=16).contains(&paths.len()));
    for p in paths {
        let p = p.as_str().unwrap();
        assert!(
            !p.starts_with('/') && !p.split('/').any(|c| c == ".."),
            "{p}"
        );
        assert!(root().join(p).is_dir(), "{p}");
    }
    for arg in command {
        let arg = arg.as_str().unwrap();
        assert!(arg.len() <= 200 && !arg.starts_with('/'), "{arg}");
        if arg.contains('/') {
            assert!(
                paths.iter().any(|p| arg.starts_with(p.as_str().unwrap())),
                "{arg} lies outside paths"
            );
        }
    }
}

#[test]
fn names_are_valid_and_unique() {
    let s = spec();
    let mut seen = BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for item in s[section].as_array().unwrap() {
            let name = item["name"].as_str().unwrap();
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.to_string()), "{name} used twice");
        }
    }
}

#[test]
fn workloads_match_the_code() {
    let s = spec();
    let ws = s["workloads"].as_array().unwrap();
    assert!((2..=8).contains(&ws.len()));
    assert_eq!(ws.len(), WORKLOADS.len());
    for (j, w) in ws.iter().zip(&WORKLOADS) {
        assert_eq!(keys(j), ["name", "why"]);
        assert_eq!(j["name"].as_str(), Some(w.name));
        let why = j["why"].as_str().unwrap();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert_eq!(why, w.why);
    }
}

#[test]
fn end_to_end_metrics_match_the_code() {
    let s = spec();
    let ms = s["end_to_end"].as_array().unwrap();
    assert!((1..=16).contains(&ms.len()));
    assert_eq!(ms.len(), END_TO_END.len());
    for (j, m) in ms.iter().zip(END_TO_END) {
        assert_eq!(keys(j), ["better", "bound", "name", "unit"]);
        assert_eq!(j["name"].as_str(), Some(m.name));
        assert_eq!(j["unit"].as_str(), Some(m.unit));
        assert!(valid_unit(m.unit), "{}", m.unit);
        assert_eq!(j["better"].as_str(), Some(m.better.as_str()));
        let bound = j["bound"].as_f64().unwrap();
        assert_eq!(Some(bound), m.bound);
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
    }
    let setup = ms
        .iter()
        .find(|m| m["name"].as_str() == Some("setup_s"))
        .expect("setup_s");
    assert_eq!(setup["unit"].as_str(), Some("s"));
    assert_eq!(setup["better"].as_str(), Some("lower"));
    let largest = ms
        .iter()
        .map(|m| m["bound"].as_f64().unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup["bound"].as_f64(), Some(largest));
}

#[test]
fn per_layer_metrics_match_the_code() {
    let s = spec();
    let ms = s["per_layer"].as_array().unwrap();
    assert!((1..=128).contains(&ms.len()));
    assert_eq!(ms.len(), PER_LAYER.len());
    for (j, m) in ms.iter().zip(PER_LAYER) {
        assert_eq!(keys(j), ["better", "name", "unit"]);
        assert_eq!(j["name"].as_str(), Some(m.name));
        assert_eq!(j["unit"].as_str(), Some(m.unit));
        assert!(valid_unit(m.unit), "{}", m.unit);
        assert_eq!(j["better"].as_str(), Some(m.better.as_str()));
    }
}

#[test]
fn every_layer_metric_names_what_it_moves() {
    for m in PER_LAYER {
        let (metric, workload) = m.moves.expect("a per-layer metric names what it moves");
        assert!(
            END_TO_END.iter().any(|e| e.name == metric),
            "{}: {metric} is no end-to-end metric",
            m.name
        );
        assert!(
            WORKLOADS.iter().any(|w| w.name == workload),
            "{}: {workload} is no workload",
            m.name
        );
    }
    for m in END_TO_END {
        assert!(m.moves.is_none() && m.bound.is_some(), "{}", m.name);
    }
}

#[test]
fn every_time_has_a_share() {
    let names: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for m in PER_LAYER.iter().filter(|m| m.unit == "s") {
        let share = format!("{}_share", m.name.strip_suffix("_s").unwrap());
        assert!(names.contains(share.as_str()), "{} has no {share}", m.name);
    }
}
