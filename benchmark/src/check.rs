//! Correctness checks applied to every response the benchmark receives.

use serde_json::Value;

/// A parsed response line: its `id` and either the probabilities or the
/// server's error message.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The echoed request id.
    pub id: u64,
    /// `Ok(probs)` or `Err(error message)`.
    pub result: Result<Vec<f32>, String>,
}

/// Parses one response line. A line that is not a response to a predict
/// request of this benchmark (bad JSON, no integer `id`, neither `probs`
/// nor `error`, a non-numeric probability) is an error.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("bad response JSON: {e}"))?;
    let fields = value.as_object().ok_or("response is not a JSON object")?;
    let id = match fields.get("id") {
        Some(Value::UInt(id)) => *id,
        other => return Err(format!("response without an integer id: {other:?}")),
    };
    if let Some(error) = fields.get("error") {
        let message = match error {
            Value::Str(message) => message.clone(),
            other => format!("{other:?}"),
        };
        return Ok(Response {
            id,
            result: Err(message),
        });
    }
    let Some(Value::Array(items)) = fields.get("probs") else {
        return Err(format!("response {id} has neither `probs` nor `error`"));
    };
    let probs = items
        .iter()
        .map(|item| match item {
            // The server writes each f32 widened to f64 in shortest form;
            // narrowing back is exact.
            Value::Float(f) => Ok(*f as f32),
            Value::UInt(u) => Ok(*u as f32),
            Value::Int(i) => Ok(*i as f32),
            // Non-finite floats are written as `null`.
            Value::Null => Ok(f32::NAN),
            other => Err(format!("response {id}: non-numeric probability {other:?}")),
        })
        .collect::<Result<Vec<f32>, String>>()?;
    Ok(Response {
        id,
        result: Ok(probs),
    })
}

/// Checks one response's probabilities: one per node of the circuit the
/// benchmark prepared itself, each finite and in `[0, 1]`, and bit for bit
/// equal to the in-process reference prediction.
pub fn check_probs(got: &[f32], nodes: usize, reference: &[f32]) -> Result<(), String> {
    if got.len() != nodes {
        return Err(format!("{} probabilities for {nodes} nodes", got.len()));
    }
    if reference.len() != nodes {
        return Err(format!(
            "reference has {} values for {nodes} nodes",
            reference.len()
        ));
    }
    for (i, (&p, &want)) in got.iter().zip(reference).enumerate() {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(format!("node {i}: probability {p} outside [0, 1]"));
        }
        if p.to_bits() != want.to_bits() {
            return Err(format!(
                "node {i}: {p:e} differs from the reference {want:e}"
            ));
        }
    }
    Ok(())
}

/// A reference prediction with its exact wire form, so a response can be
/// checked by comparing bytes instead of parsing it.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The reference probabilities.
    pub probs: Vec<f32>,
    /// The response line after its `{"id":N,` prefix.
    tail: String,
}

impl Expected {
    /// Validates a reference for a circuit of `nodes` nodes (one value per
    /// node, each finite and in `[0, 1]`) and renders its wire form, which
    /// must parse back to the same bits: then a response whose bytes equal
    /// the wire form carries exactly the reference.
    pub fn new(probs: Vec<f32>, nodes: usize) -> Result<Expected, String> {
        check_probs(&probs, nodes, &probs)?;
        let mut fields = std::collections::BTreeMap::new();
        fields.insert(
            "probs".to_string(),
            Value::Array(probs.iter().map(|&p| Value::Float(p as f64)).collect()),
        );
        let object = serde_json::to_string(&Value::Object(fields)).map_err(|e| e.to_string())?;
        let tail = object[1..].to_string();
        let parsed = parse_response(&format!("{{\"id\":0,{tail}"))?.result?;
        check_probs(&parsed, nodes, &probs)?;
        Ok(Expected { probs, tail })
    }

    /// Whether `line` is, byte for byte, the response carrying this
    /// prediction (under any id).
    pub fn matches(&self, line: &str) -> bool {
        line.strip_prefix("{\"id\":")
            .and_then(|rest| rest.split_once(','))
            .is_some_and(|(id, tail)| {
                !id.is_empty() && id.bytes().all(|b| b.is_ascii_digit()) && tail == self.tail
            })
    }
}

/// Checks that every `cold_ingest` main-stream request missed the cache:
/// the server's `cache_misses_total` over the window equals the number of
/// main-stream requests, and no main-stream request was a hit.
pub fn check_cold_misses(misses: u64, main_requests: u64) -> Result<(), String> {
    if misses != main_requests {
        return Err(format!(
            "cache_misses_total rose by {misses} over {main_requests} structurally new requests"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Vec<f32> {
        vec![0.5, 0.25, 0.0, 1.0, 0.123_456_79, 0.987_654_3]
    }

    /// Serialises probabilities exactly as the server does.
    fn wire(id: u64, probs: &[f32]) -> String {
        let mut fields = std::collections::BTreeMap::new();
        fields.insert("id".to_string(), Value::UInt(id));
        fields.insert(
            "probs".to_string(),
            Value::Array(probs.iter().map(|&p| Value::Float(p as f64)).collect()),
        );
        serde_json::to_string(&Value::Object(fields)).unwrap()
    }

    fn round_trip(probs: &[f32]) -> Vec<f32> {
        parse_response(&wire(7, probs)).unwrap().result.unwrap()
    }

    #[test]
    fn exact_response_passes_after_the_json_round_trip() {
        let want = reference();
        let got = round_trip(&want);
        assert_eq!(check_probs(&got, want.len(), &want), Ok(()));
    }

    #[test]
    fn one_ulp_change_is_rejected() {
        let want = reference();
        for i in 0..want.len() {
            let mut changed = want.clone();
            let bits = changed[i].to_bits();
            // Step towards the inside of [0, 1] so only the bits differ.
            changed[i] = f32::from_bits(if changed[i] >= 1.0 {
                bits - 1
            } else {
                bits + 1
            });
            let got = round_trip(&changed);
            assert_ne!(got[i].to_bits(), want[i].to_bits(), "the wire kept the ulp");
            let err = check_probs(&got, want.len(), &want).unwrap_err();
            assert!(err.contains(&format!("node {i}")), "{err}");
        }
    }

    #[test]
    fn byte_comparison_accepts_only_the_exact_wire_form() {
        let want = reference();
        let expected = Expected::new(want.clone(), want.len()).unwrap();
        assert!(expected.matches(&wire(12, &want)));
        let mut changed = want.clone();
        changed[4] = f32::from_bits(changed[4].to_bits() + 1);
        let line = wire(12, &changed);
        assert!(!expected.matches(&line));
        // The full check then rejects it.
        let got = parse_response(&line).unwrap().result.unwrap();
        assert!(check_probs(&got, want.len(), &expected.probs).is_err());
        assert!(!expected.matches(&wire(12, &want[..5])));
        assert!(!expected.matches(r#"{"error":"x","id":12}"#));
        // A reference that is itself invalid is refused up front.
        assert!(Expected::new(vec![0.5, 1.5], 2).is_err());
        assert!(Expected::new(vec![0.5], 2).is_err());
    }

    #[test]
    fn wrong_length_is_rejected() {
        let want = reference();
        let short = round_trip(&want[..want.len() - 1]);
        assert!(check_probs(&short, want.len(), &want).is_err());
        let mut long = want.clone();
        long.push(0.5);
        let long = round_trip(&long);
        assert!(check_probs(&long, want.len(), &want).is_err());
        // A reference of the wrong length never vouches for a response.
        assert!(check_probs(&want, want.len() + 1, &want).is_err());
    }

    #[test]
    fn values_outside_the_unit_interval_are_rejected() {
        for bad in [1.5f32, -0.25, 1.0 + f32::EPSILON, -0.0 - f32::MIN_POSITIVE] {
            let mut probs = reference();
            probs[1] = bad;
            let got = round_trip(&probs);
            // Even a reference that agrees cannot make it pass.
            let err = check_probs(&got, probs.len(), &probs).unwrap_err();
            assert!(err.contains("outside [0, 1]"), "{bad}: {err}");
        }
        let mut probs = reference();
        probs[2] = f32::NAN;
        let got = round_trip(&probs);
        assert!(check_probs(&got, probs.len(), &probs).is_err());
    }

    #[test]
    fn cold_stream_with_a_cache_hit_is_rejected() {
        assert_eq!(check_cold_misses(120, 120), Ok(()));
        // One request resolved from the cache: one miss short.
        assert!(check_cold_misses(119, 120).is_err());
        assert!(check_cold_misses(121, 120).is_err());
    }

    #[test]
    fn error_and_malformed_responses_are_told_apart() {
        let error = parse_response(r#"{"error":"bad request: x","id":3}"#).unwrap();
        assert_eq!(error.id, 3);
        assert!(error.result.is_err());
        assert!(parse_response(r#"{"error":"invalid JSON"}"#).is_err());
        assert!(parse_response(r#"{"id":3}"#).is_err());
        assert!(parse_response(r#"{"id":3,"probs":["x"]}"#).is_err());
        assert!(parse_response("not json").is_err());
    }
}
