//! Every metric `BENCHMARK.json` names appears in a run's printed report,
//! with its unit, and the report prints no metric `BENCHMARK.json` lacks.
//!
//! Each workload is run for one second, untraced and traced, from the
//! repository root.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

fn object(value: &Value) -> &BTreeMap<String, Value> {
    value.as_object().expect("a JSON object")
}

fn string(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(workloads, end_to_end name→unit, per_layer name→unit)` of
/// `BENCHMARK.json`.
fn declared() -> (
    Vec<String>,
    BTreeMap<String, String>,
    BTreeMap<String, String>,
) {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let value: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let root = object(&value);
    let table = |key: &str| -> BTreeMap<String, String> {
        root[key]
            .as_array()
            .expect("a metric list")
            .iter()
            .map(|m| (string(&object(m)["name"]), string(&object(m)["unit"])))
            .collect()
    };
    let workloads = root["workloads"]
        .as_array()
        .expect("a workload list")
        .iter()
        .map(|w| string(&object(w)["name"]))
        .collect();
    (workloads, table("end_to_end"), table("per_layer"))
}

/// Runs one short run; returns the printed report and its result line.
fn run(workload: &str, trace: &str) -> (String, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_deepgate-benchmark"))
        .current_dir(root())
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    let result: Value = serde_json::from_str(&last).expect("the last line is JSON");
    (stdout, result)
}

fn check(workload: &str, trace: &str, want: &BTreeMap<String, String>) {
    let (report, result) = run(workload, trace);
    let fields = object(&result);
    let keys: Vec<&String> = fields.keys().collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(fields["correct"], Value::Bool(true), "{workload}: {report}");
    let metrics = object(&fields["metrics"]);
    let printed: BTreeMap<String, String> = metrics
        .iter()
        .map(|(name, entry)| (name.clone(), string(&object(entry)["unit"])))
        .collect();
    assert_eq!(&printed, want, "{workload} --trace {trace}: result metrics");
    // The human-readable report prints one `metric <name> <value> <unit>`
    // line per metric: the same names and units as the result line.
    let lines: BTreeMap<String, String> = report
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("metric ")?.split_whitespace();
            let name = words.next()?.to_string();
            let unit = words.nth(1)?.to_string();
            Some((name, unit))
        })
        .collect();
    assert_eq!(&lines, want, "{workload} --trace {trace}: printed report");
}

#[test]
fn every_declared_metric_is_reported_and_no_other() {
    let (workloads, end_to_end, per_layer) = declared();
    assert_eq!(workloads, ["warm_repeat", "cold_ingest", "large_designs"]);
    for workload in &workloads {
        check(workload, "0", &end_to_end);
        check(workload, "1", &per_layer);
    }
}
