//! The spread command: reruns one workload with successive seeds and sets
//! each end-to-end metric's run-to-run spread beside its bound in
//! `BENCHMARK.json`. This is the record of how the bounds were chosen.

use crate::report::{median, quartiles, END_TO_END};
use crate::workload::Kind;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// Bounds of the end-to-end metrics, from `BENCHMARK.json` in the working
/// directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = value
        .as_object()
        .and_then(|root| root.get("end_to_end"))
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut bounds = BTreeMap::new();
    for metric in metrics {
        let fields = metric
            .as_object()
            .ok_or("end_to_end entry is not an object")?;
        let (Some(Value::Str(name)), Some(bound)) = (fields.get("name"), fields.get("bound"))
        else {
            return Err("end_to_end entry without name or bound".into());
        };
        let bound = match bound {
            Value::Float(f) => *f,
            Value::UInt(u) => *u as f64,
            _ => return Err(format!("{name}: bound is not a number")),
        };
        bounds.insert(name.clone(), bound);
    }
    Ok(bounds)
}

/// Parses the result line of a run: `(attempted, failed, metric values)`.
fn parse_result(stdout: &str) -> Result<(u64, u64, BTreeMap<String, f64>), String> {
    let last = stdout.lines().last().ok_or("a run printed nothing")?;
    let value: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let root = value.as_object().ok_or("result is not an object")?;
    if root.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("a run reported incorrect output:\n{stdout}"));
    }
    let count = |key: &str| match root.get(key) {
        Some(Value::UInt(n)) => Ok(*n),
        _ => Err(format!("result without `{key}`")),
    };
    let mut values = BTreeMap::new();
    for (name, entry) in root
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result without metrics")?
    {
        if let Some(Value::Float(v)) = entry.as_object().and_then(|e| e.get("value")) {
            values.insert(name.clone(), *v);
        }
    }
    Ok((count("attempted")?, count("failed")?, values))
}

/// Runs `runs` untraced runs of `kind` with seeds `first_seed..` and prints
/// each end-to-end metric's median, quartiles and spread beside its bound.
/// Returns whether every spread (other than `setup_s`'s) is within bound.
pub fn spread(kind: Kind, first_seed: u64, seconds: u64, runs: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    for run in 0..runs {
        let seed = first_seed + run as u64;
        let output = Command::new(&exe)
            .args(["--workload", kind.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .output()
            .map_err(|e| format!("starting a run: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!(
                "run with seed {seed} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let (attempted, failed, values) = parse_result(&stdout)?;
        eprintln!("seed {seed}: {attempted} attempted, {failed} failed");
        shares.push((failed, attempted));
        for (name, value) in values {
            samples.entry(name).or_default().push(value);
        }
    }
    println!(
        "== spread of {} over {runs} runs (seeds {first_seed}..{}), {seconds} s each",
        kind.name(),
        first_seed + runs as u64 - 1
    );
    println!(
        "{:<20} {:>14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut steady = true;
    for (name, _) in END_TO_END {
        let values = samples.get(name).cloned().unwrap_or_default();
        let bound = bounds.get(name).copied().unwrap_or(f64::NAN);
        let Some([q1, _, q3]) = quartiles(&values) else {
            println!("{name:<20} (fewer than two runs)");
            continue;
        };
        let mid = median(&values);
        let spread = (q3 - q1) / mid.abs();
        let verdict = if name == "setup_s" {
            "not gated (median drift only)"
        } else if spread.is_nan() || spread > bound {
            steady = false;
            "OVER BOUND"
        } else if spread > bound / 3.0 {
            "within bound, above a third of it"
        } else {
            "steady"
        };
        println!(
            "{name:<20} {q1:>14.6} {mid:>14.6} {q3:>14.6} {spread:>9.4} {bound:>7.3}  {verdict}"
        );
    }
    let same_share = shares
        .windows(2)
        .all(|pair| pair[0].0 * pair[1].1 == pair[1].0 * pair[0].1);
    println!(
        "failed share: {}",
        if same_share {
            "identical in every run"
        } else {
            "DIFFERS between runs"
        }
    );
    Ok(steady && same_share)
}
