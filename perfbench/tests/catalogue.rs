//! The metric catalogue and `BENCHMARK.json` name the same metrics, and
//! the manifest names the workloads the command accepts.

use hopi_server::json::{self, Json};
use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::Workload;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_default()
}

fn assert_same(section: &str, defs: &[MetricDef]) {
    let manifest = manifest();
    let entries = manifest.get(section).and_then(Json::as_arr).expect(section);
    let listed: Vec<(&str, &str, &str)> = entries
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect();
    let catalogued: Vec<(&str, &str, &str)> =
        defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
    assert_eq!(listed, catalogued, "{section} differs from the catalogue");
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    assert_same("end_to_end", END_TO_END);
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    assert_same("per_layer", PER_LAYER);
}

#[test]
fn bounds_are_within_the_allowed_share() {
    let manifest = manifest();
    for e in manifest.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = e.get("bound").and_then(Json::as_f64).unwrap();
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            field(e, "name")
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
}

#[test]
fn workloads_match_the_manifest() {
    let manifest = manifest();
    let names: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for n in names {
        assert!(Workload::parse(n).is_some());
    }
}

#[test]
fn names_are_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n);
}
