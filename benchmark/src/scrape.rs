//! The server's own view of a run, read through its `metrics` wire verb
//! before and after the measured window.

use crate::client::Wire;
use serde_json::Value;
use std::collections::BTreeMap;

/// Counters and histograms of one `metrics` response.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Hist>,
}

/// A histogram as the wire carries it: count, sum and `(le, count)`
/// buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of the recorded values.
    pub sum: u64,
    /// Non-empty buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl Hist {
    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the rank-`⌈p·count⌉` value, the
    /// server's own percentile rule (0 when empty).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for &(le, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return le;
            }
        }
        self.buckets.last().map_or(0, |&(le, _)| le)
    }

    /// What was recorded between `before` and `self`.
    pub fn since(&self, before: &Hist) -> Hist {
        let earlier: BTreeMap<u64, u64> = before.buckets.iter().copied().collect();
        Hist {
            count: self.count - before.count,
            sum: self.sum - before.sum,
            buckets: self
                .buckets
                .iter()
                .map(|&(le, count)| (le, count - earlier.get(&le).copied().unwrap_or(0)))
                .filter(|&(_, count)| count > 0)
                .collect(),
        }
    }
}

impl Scrape {
    /// Sends the `metrics` verb on `wire` (which must have no request in
    /// flight) and parses the reply.
    pub fn take(wire: &mut Wire, id: u64) -> Result<Scrape, String> {
        let line = wire.call(id, &format!("{{\"id\":{id},\"op\":\"metrics\"}}\n"))?;
        Scrape::parse(&line)
    }

    fn parse(line: &str) -> Result<Scrape, String> {
        let value: Value = serde_json::from_str(line).map_err(|e| format!("metrics reply: {e}"))?;
        let metrics = value
            .as_object()
            .and_then(|fields| fields.get("metrics"))
            .and_then(Value::as_object)
            .ok_or("metrics reply without `metrics`")?;
        let mut scrape = Scrape::default();
        if let Some(counters) = metrics.get("counters").and_then(Value::as_object) {
            for (name, value) in counters {
                if let Value::UInt(v) = value {
                    scrape.counters.insert(name.clone(), *v);
                }
            }
        }
        if let Some(histograms) = metrics.get("histograms").and_then(Value::as_object) {
            for (name, entry) in histograms {
                let Some(entry) = entry.as_object() else {
                    continue;
                };
                let uint = |key: &str| match entry.get(key) {
                    Some(Value::UInt(v)) => *v,
                    _ => 0,
                };
                let buckets = entry
                    .get("buckets")
                    .and_then(Value::as_array)
                    .map(|pairs| {
                        pairs
                            .iter()
                            .filter_map(|pair| match pair.as_array()?.as_slice() {
                                [Value::UInt(le), Value::UInt(count)] => Some((*le, *count)),
                                _ => None,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                scrape.histograms.insert(
                    name.clone(),
                    Hist {
                        count: uint("count"),
                        sum: uint("sum"),
                        buckets,
                    },
                );
            }
        }
        Ok(scrape)
    }

    /// A counter's increase since `before`.
    pub fn counter_since(&self, before: &Scrape, name: &str) -> u64 {
        let now = self.counters.get(name).copied().unwrap_or(0);
        now - before.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's recordings since `before`.
    pub fn hist_since(&self, before: &Scrape, name: &str) -> Hist {
        let empty = Hist::default();
        let now = self.histograms.get(name).unwrap_or(&empty);
        now.since(before.histograms.get(name).unwrap_or(&empty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_deltas_and_percentiles() {
        let before = Hist {
            count: 2,
            sum: 30,
            buckets: vec![(10, 1), (20, 1)],
        };
        let after = Hist {
            count: 6,
            sum: 150,
            buckets: vec![(10, 1), (20, 3), (40, 2)],
        };
        let window = after.since(&before);
        assert_eq!(window.count, 4);
        assert_eq!(window.buckets, vec![(20, 2), (40, 2)]);
        assert_eq!(window.percentile(0.5), 20);
        assert_eq!(window.percentile(0.99), 40);
        assert_eq!(window.mean(), 30.0);
    }

    #[test]
    fn parses_the_metrics_verb() {
        let line = r#"{"id":1,"metrics":{"counters":{"cache_misses_total":5},"gauges":{},"histograms":{"batch_size":{"buckets":[[1,3],[2,1]],"count":4,"max":2,"p50":1,"p90":2,"p99":2,"sum":5}}}}"#;
        let scrape = Scrape::parse(line).unwrap();
        let zero = Scrape::default();
        assert_eq!(scrape.counter_since(&zero, "cache_misses_total"), 5);
        assert_eq!(scrape.hist_since(&zero, "batch_size").count, 4);
        assert_eq!(scrape.hist_since(&zero, "batch_size").percentile(0.5), 1);
    }
}
