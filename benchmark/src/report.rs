//! Metric names, statistics and the printed report.

use serde_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "requests/s"),
    ("gates_per_s", "nodes/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("hit_latency_p50_ms", "ms"),
    ("hit_latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("netlist.parse_us", "us"),
    ("aig.aiger_read_us", "us"),
    ("aig.latch_apply_us", "us"),
    ("aig.map_us", "us"),
    ("aig.opt_us", "us"),
    ("gnn.encode_us", "us"),
    ("gnn.fingerprint_us", "us"),
    ("gnn.plan_us", "us"),
    ("gnn.kernel_us", "us"),
    ("gnn.kernel_ns_per_node", "ns/node"),
    ("gnn.level_agg_ms", "ms"),
    ("gnn.regress_us", "us"),
    ("gnn.levels", "count"),
    ("gnn.level_width_p50", "nodes"),
    ("session.fuse_us", "us"),
    ("session.batch_plan_us", "us"),
    ("session.batch_predict_us", "us"),
    ("serve.frame_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.json_write_us", "us"),
    ("serve.b64_decode_us", "us"),
    ("serve.text_key_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("server.request_p50_ms", "ms"),
    ("client.wire_overhead_ms", "ms"),
    ("server.stage_parse_us", "us"),
    ("server.stage_encode_us", "us"),
    ("server.stage_plan_us", "us"),
    ("server.stage_infer_us", "us"),
    ("server.stage_respond_us", "us"),
    ("scheduler.mean_batch", "requests"),
    ("scheduler.dedup_ratio", "share"),
    ("scheduler.batch_latency_us", "us"),
    ("cache.hit_ratio", "share"),
    ("cache.misses", "count"),
    ("engine.plans_per_req", "plans/request"),
    ("engine.fuse_us", "us"),
    ("eventloop.wakeups_per_req", "wakeups/request"),
    ("client.generator_lag_ms", "ms"),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// One measured value with the samples it summarises.
#[derive(Debug, Clone)]
pub struct Reading {
    /// The reported value.
    pub value: f64,
    /// What the value is taken over, e.g. "5 set-ups".
    pub basis: String,
    /// Quartiles of the underlying samples, when there are several.
    pub spread: Option<[f64; 3]>,
}

impl Reading {
    /// A value with no distribution behind it.
    pub fn single(value: f64, basis: impl Into<String>) -> Reading {
        Reading {
            value,
            basis: basis.into(),
            spread: None,
        }
    }

    /// A value summarising `samples`.
    pub fn over(value: f64, samples: &[f64], basis: impl Into<String>) -> Reading {
        Reading {
            value,
            basis: basis.into(),
            spread: quartiles(samples),
        }
    }
}

/// The machine a run was taken on.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU model name.
    pub cpu: String,
    /// Usable cores.
    pub cores: usize,
    /// Compiler flags the benchmark (and the program) were built with.
    pub rustflags: String,
    /// Source revision.
    pub revision: String,
}

impl Host {
    /// Reads the host description.
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|name| name.trim().to_string())
            })
            .unwrap_or_else(|| std::env::consts::ARCH.to_string());
        let revision = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
        Host {
            cpu,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustflags: env!("BENCH_RUSTFLAGS").to_string(),
            revision,
        }
    }
}

/// Everything one run prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Host block.
    pub host: Host,
    /// Requests the measured window attempted.
    pub attempted: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Correctness failures (empty when every check passed).
    pub problems: Vec<String>,
    /// Metric readings by name.
    pub metrics: BTreeMap<String, Reading>,
    /// Free-form lines (the where-the-time-goes table and notes).
    pub notes: Vec<String>,
}

impl Report {
    /// Prints the human-readable report, then the one-line JSON result as
    /// the last line of standard output.
    pub fn print(&self) {
        let host = &self.host;
        println!(
            "== deepgate benchmark: workload {} seed {}{}",
            self.workload,
            self.seed,
            if self.traced { " (traced)" } else { "" }
        );
        println!(
            "host: cpu \"{}\", {} cores, rustflags \"{}\", revision {}",
            host.cpu, host.cores, host.rustflags, host.revision
        );
        println!(
            "requests: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for (name, reading) in &self.metrics {
            let unit = unit_of(name).unwrap_or("");
            let spread = match reading.spread {
                Some([q1, q2, q3]) => format!("  [q1 {q1:.6}, median {q2:.6}, q3 {q3:.6}]"),
                None => String::new(),
            };
            println!(
                "metric {name:<28} {:>16.6} {unit:<15} over {}{spread}",
                reading.value, reading.basis
            );
        }
        for note in &self.notes {
            println!("{note}");
        }
        for problem in &self.problems {
            println!("CHECK FAILED: {problem}");
        }
        println!("{}", self.result_json());
    }

    /// The JSON result line.
    pub fn result_json(&self) -> String {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|(name, reading)| {
                let mut entry = BTreeMap::new();
                entry.insert("value".to_string(), Value::Float(reading.value));
                entry.insert(
                    "unit".to_string(),
                    Value::Str(unit_of(name).unwrap_or("").to_string()),
                );
                (name.clone(), Value::Object(entry))
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("correct".to_string(), Value::Bool(self.problems.is_empty()));
        root.insert("attempted".to_string(), Value::UInt(self.attempted));
        root.insert("failed".to_string(), Value::UInt(self.failed));
        root.insert("metrics".to_string(), Value::Object(metrics));
        serde_json::to_string(&Value::Object(root)).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
