//! The traced run: a workload's exact request sequence fed through the
//! public layer functions in-process, one span per call.
//!
//! Spans are recorded by the benchmark around calls into each layer
//! (nothing is added inside the program). They stay in memory until the
//! replay ends; each layer's self time is its spans' time minus the time
//! their child spans cover.

use crate::workload::{Circuit, Payload};
use deepgate::aig::{aiger, opt, Aig};
use deepgate::gnn::CircuitGraph;
use deepgate::telemetry::Registry;
use deepgate::{Engine, EngineMetrics, PreparedCircuit, QuantMode};
use deepgate_serve::{b64, keyed_with_mode, request_key, text_key, CircuitCache, LineFramer};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// AIG optimisation rounds of the engine's default serving pipeline.
const OPT_ROUNDS: usize = 2;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `netlist.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the call served (a batch span carries its first
    /// request's id).
    pub request: u64,
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let span = Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn exit(&mut self, span: usize) {
        assert_eq!(self.open.pop(), Some(span), "spans close in order");
        self.spans[span].end = self.now();
    }

    /// Records `f` as one span.
    pub fn record<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, request);
        let out = f();
        self.exit(span);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.end - span.start;
            }
        }
        own
    }
}

/// Per-call-name totals of a replay's spans.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Total span duration per name, nanoseconds.
    pub total_ns: BTreeMap<&'static str, u64>,
}

impl Totals {
    /// Sums the spans of `tracer` by name.
    pub fn of(tracer: &Tracer) -> Totals {
        let mut totals = Totals::default();
        for span in tracer.spans() {
            *totals.calls.entry(span.name).or_default() += 1;
            *totals.total_ns.entry(span.name).or_default() += span.end - span.start;
        }
        totals
    }

    /// Mean span duration per call, microseconds (0 without calls).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.calls.get(name) {
            Some(&calls) if calls > 0 => self.total_ns[name] as f64 / calls as f64 / 1e3,
            _ => 0.0,
        }
    }
}

/// One request of the replayed sequence.
#[derive(Debug, Clone, Copy)]
pub struct Step<'a> {
    /// The request id the run used.
    pub id: u64,
    /// The circuit it carried.
    pub circuit: &'a Circuit,
    /// Whether it belongs to the set-up pass.
    pub setup: bool,
}

/// What the replay produced.
pub struct Replay {
    /// Every span.
    pub tracer: Tracer,
    /// The engine's and kernel's own telemetry over the replay.
    pub kernel: Arc<EngineMetrics>,
    /// Each batch span with the ids of the requests it served.
    pub batches: Vec<(usize, Vec<u64>)>,
    /// Probabilities per request id.
    pub outputs: HashMap<u64, Vec<f32>>,
}

/// Replays `steps` through the layers the server runs, in the server's
/// order: framing, JSON parsing, payload decoding, cache keys and lookup;
/// on a miss BENCH parsing or AIGER reading and latch handling, AIG mapping
/// and optimisation, graph encoding, fingerprinting and planning; then
/// batches of `batch` requests deduplicated and predicted as the
/// scheduler does (one distinct circuit through its cached plan, several
/// fused per worker chunk); finally the JSON response is written.
/// Set-up steps run one at a time, as the set-up pass sends them.
pub fn replay(engine: &Engine, steps: &[Step<'_>], batch: usize) -> Result<Replay, String> {
    let registry = Registry::new();
    let metrics = Arc::new(EngineMetrics::registered(&registry));
    let session = engine.session().with_metrics(Arc::clone(&metrics));
    let model = engine.model();
    let kernel = model.compile(QuantMode::F32);
    let iterations = model.config().num_iterations;
    let config = deepgate_serve::ServeConfig::default();
    let cache = CircuitCache::new(config.cache_capacity);
    let mut framer = LineFramer::new(config.max_request_bytes);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tracer = Tracer::default();
    let mut outputs = HashMap::new();
    let mut batches = Vec::new();

    let mut k = 0;
    while k < steps.len() {
        let width = if steps[k].setup { 1 } else { batch.max(1) };
        let group: Vec<Step<'_>> = steps[k..]
            .iter()
            .take(width)
            .take_while(|s| s.setup == steps[k].setup)
            .copied()
            .collect();
        k += group.len();

        let mut prepared = Vec::with_capacity(group.len());
        for step in &group {
            prepared.push(ingest(&mut tracer, &mut framer, &cache, &session, step)?);
        }

        // The scheduler's dedup: one prediction per distinct cached circuit.
        let mut distinct: Vec<Arc<PreparedCircuit>> = Vec::new();
        let mut slot_of = Vec::with_capacity(group.len());
        for circuit in &prepared {
            let slot = match distinct.iter().position(|d| Arc::ptr_eq(d, circuit)) {
                Some(slot) => slot,
                None => {
                    distinct.push(Arc::clone(circuit));
                    distinct.len() - 1
                }
            };
            slot_of.push(slot);
        }
        let batch_span = tracer.enter("batch", group[0].id);
        batches.push((batch_span, group.iter().map(|step| step.id).collect()));
        let mut results: Vec<Vec<f32>> = Vec::with_capacity(distinct.len());
        if distinct.len() == 1 {
            let mut out = Vec::new();
            tracer
                .record("gnn.kernel", group[0].id, || {
                    session.predict_into(&distinct[0], &mut out)
                })
                .map_err(|e| e.to_string())?;
            results.push(out);
        } else {
            let chunk_size = distinct.len().div_ceil(threads);
            for chunk in distinct.chunks(chunk_size) {
                let refs: Vec<&CircuitGraph> = chunk.iter().map(|p| p.circuit()).collect();
                let (union, _) = tracer
                    .record("session.fuse", group[0].id, || {
                        CircuitGraph::disjoint_union(&refs)
                    })
                    .map_err(|e| e.to_string())?;
                let plan = tracer.record("session.batch_plan", group[0].id, || model.plan(&union));
                let predict = tracer.enter("session.batch_predict", group[0].id);
                let mut merged = Vec::new();
                tracer
                    .record("gnn.kernel", group[0].id, || {
                        kernel.predict_into(&plan, iterations, &mut merged, Some(&metrics.gnn))
                    })
                    .map_err(|e| e.to_string())?;
                let mut offset = 0;
                for circuit in &refs {
                    results.push(merged[offset..offset + circuit.num_nodes].to_vec());
                    offset += circuit.num_nodes;
                }
                tracer.exit(predict);
            }
        }
        tracer.exit(batch_span);

        for (step, &slot) in group.iter().zip(&slot_of) {
            let probs = &results[slot];
            tracer
                .record("serve.json_write", step.id, || {
                    let mut fields = BTreeMap::new();
                    fields.insert("id".to_string(), Value::UInt(step.id));
                    fields.insert(
                        "probs".to_string(),
                        Value::Array(probs.iter().map(|&p| Value::Float(p as f64)).collect()),
                    );
                    serde_json::to_string(&Value::Object(fields))
                })
                .map_err(|e| e.to_string())?;
            outputs.insert(step.id, probs.clone());
        }
    }
    Ok(Replay {
        tracer,
        kernel: metrics,
        batches,
        outputs,
    })
}

impl Replay {
    /// Self time per call name attributed to each request, nanoseconds: a
    /// span on a request's own path counts for that request, a span under a
    /// batch is shared equally by the batch's requests.
    pub fn per_request(&self) -> HashMap<u64, BTreeMap<&'static str, f64>> {
        let spans = self.tracer.spans();
        let own = self.tracer.self_times();
        // A parent is recorded before its children.
        let mut root = vec![0; spans.len()];
        for (i, span) in spans.iter().enumerate() {
            root[i] = span.parent.map_or(i, |parent| root[parent]);
        }
        let members: HashMap<usize, &[u64]> = self
            .batches
            .iter()
            .map(|(span, ids)| (*span, ids.as_slice()))
            .collect();
        let mut out: HashMap<u64, BTreeMap<&'static str, f64>> = HashMap::new();
        for (i, span) in spans.iter().enumerate() {
            if matches!(span.name, "request" | "batch") {
                continue;
            }
            let ids = members
                .get(&root[i])
                .copied()
                .unwrap_or(std::slice::from_ref(&span.request));
            let share = own[i] as f64 / ids.len() as f64;
            for id in ids {
                *out.entry(*id).or_default().entry(span.name).or_default() += share;
            }
        }
        out
    }
}

/// One request's front-end and ingestion path, up to its prepared circuit.
fn ingest(
    tracer: &mut Tracer,
    framer: &mut LineFramer,
    cache: &CircuitCache,
    session: &deepgate::InferenceSession,
    step: &Step<'_>,
) -> Result<Arc<PreparedCircuit>, String> {
    let id = step.id;
    let root = tracer.enter("request", id);
    let wire = step.circuit.line(id);
    let line = tracer.record("serve.frame", id, || {
        framer.push(wire.as_bytes());
        let line = framer
            .next_line()
            .ok()
            .flatten()
            .map(|bytes| String::from_utf8_lossy(bytes).into_owned());
        framer.compact();
        line
    });
    let line = line.ok_or("request line did not frame")?;
    let request: Value = tracer
        .record("serve.json_parse", id, || serde_json::from_str(line.trim()))
        .map_err(|e| e.to_string())?;
    let fields = request.as_object().ok_or("request is not an object")?;
    let field = |key: &str| match fields.get(key) {
        Some(Value::Str(text)) => Some(text.as_str()),
        _ => None,
    };
    let name = field("name").unwrap_or("request");
    let (key, aiger_bytes) = match &step.circuit.payload {
        Payload::Bench(_) => {
            let text = field("bench").ok_or("no bench field")?;
            let key = tracer.record("serve.text_key", id, || {
                keyed_with_mode(text_key(text), QuantMode::F32.label())
            });
            (key, None)
        }
        Payload::Aiger { policy, .. } => {
            let encoded = field("aiger_b64").ok_or("no aiger_b64 field")?;
            let bytes = tracer
                .record("serve.b64_decode", id, || b64::decode(encoded))
                .map_err(|e| e.to_string())?;
            let key = tracer.record("serve.text_key", id, || {
                keyed_with_mode(
                    request_key("aiger", &policy.to_string(), &bytes),
                    QuantMode::F32.label(),
                )
            });
            (key, Some((bytes, *policy)))
        }
    };
    if let Some(hit) = tracer.record("serve.cache_lookup", id, || cache.lookup_text(key)) {
        tracer.exit(root);
        return Ok(hit);
    }
    let netlist = match (&aiger_bytes, field("bench")) {
        (Some((bytes, policy)), _) => {
            let aig = tracer
                .record("aig.aiger_read", id, || aiger::parse_auto(bytes, name))
                .map_err(|e| e.to_string())?;
            tracer
                .record("aig.latch_apply", id, || {
                    policy
                        .apply(&aig)
                        .map(|combinational| combinational.to_netlist())
                })
                .map_err(|e| e.to_string())?
        }
        (None, Some(text)) => tracer
            .record("netlist.parse", id, || {
                deepgate::netlist::bench::parse(text, name)
            })
            .map_err(|e| e.to_string())?,
        (None, None) => return Err("request without a circuit".into()),
    };
    let aig = tracer
        .record("aig.map", id, || Aig::from_netlist(&netlist))
        .map_err(|e| e.to_string())?;
    let aig = tracer.record("aig.opt", id, || opt::optimize(&aig, OPT_ROUNDS));
    let graph = tracer.record("gnn.encode", id, || CircuitGraph::from_aig(&aig).0);
    let fingerprint = tracer.record("gnn.fingerprint", id, || graph.fingerprint());
    let found = tracer.record("serve.cache_lookup", id, || {
        cache.lookup_fingerprint(key, fingerprint)
    });
    let prepared = match found {
        Some(hit) => hit,
        None => {
            let prepared = tracer.record("gnn.plan", id, || Arc::new(session.prepare(graph)));
            tracer.record("serve.cache_insert", id, || {
                cache.insert(key, Arc::clone(&prepared))
            });
            prepared
        }
    };
    tracer.exit(root);
    Ok(prepared)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::default();
        let outer = tracer.enter("outer", 1);
        let inner = tracer.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.exit(inner);
        tracer.exit(outer);
        let own = tracer.self_times();
        let spans = tracer.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(own[inner], spans[inner].end - spans[inner].start);
        assert_eq!(
            own[outer] + own[inner],
            spans[outer].end - spans[outer].start
        );
        let totals = Totals::of(&tracer);
        assert_eq!(totals.calls["inner"], 1);
        assert!(totals.mean_us("inner") >= 2000.0);
        assert_eq!(totals.mean_us("missing"), 0.0);
    }
}
