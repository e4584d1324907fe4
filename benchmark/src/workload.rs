//! Workload definitions: the model each workload serves and the seeded
//! circuits it sends.
//!
//! Every input is a pure function of the workload's `--seed`; the server
//! only ever sees the generated request lines.

use deepgate::aig::aiger;
use deepgate::core::DeepGateConfig;
use deepgate::dataset::{LargeDesign, SuiteKind};
use deepgate::gnn::CircuitGraph;
use deepgate::netlist::Netlist;
use deepgate::{AigerBytes, BenchText, CircuitSource, Engine, LatchPolicy};
use deepgate_serve::{b64, request_key, text_key};
use serde_json::Value;
use std::collections::{BTreeMap, HashSet};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 64 pipelined requests in flight over a cached hot set of 16 small
    /// circuits.
    WarmRepeat,
    /// A stream of structurally new circuits, two in flight, beside an
    /// open-loop probe stream of cached circuits.
    ColdIngest,
    /// The five Table III designs with the paper's default model, one
    /// request in flight.
    LargeDesigns,
}

/// Hot-set size of `warm_repeat` (and of the `cold_ingest` probe set).
pub const HOT_SET: usize = 16;
/// Suite size scale of the hot set.
pub const HOT_SCALE: f64 = 0.12;
/// Node-count band of hot-set circuits: about 70 nodes each on average,
/// with the same spread of sizes whatever the seed.
pub const HOT_NODES: std::ops::RangeInclusive<usize> = 40..=120;
/// Suite size scale of the `cold_ingest` main stream.
pub const COLD_SCALE: f64 = 1.0;
/// Table III design scale of `large_designs`.
pub const LARGE_SCALE: f64 = 0.3;
/// Requests per connection kept in flight by `warm_repeat`.
pub const WARM_WINDOW: usize = 32;
/// Requests kept in flight by the `cold_ingest` main stream.
pub const COLD_WINDOW: usize = 2;
/// Probe rate of `cold_ingest`, requests per second.
pub const PROBE_RATE: f64 = 100.0;
/// Most candidates drawn for one distinct circuit. Every stream has an
/// unbounded family (`random_logic`, random AIGs), so this is never reached
/// in practice; it turns a generator defect into an error, not a hang.
const MAX_DRAWS: usize = 10_000;

impl Kind {
    /// Every workload, in the order of `BENCHMARK.json`.
    pub const ALL: [Kind; 3] = [Kind::WarmRepeat, Kind::ColdIngest, Kind::LargeDesigns];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmRepeat => "warm_repeat",
            Kind::ColdIngest => "cold_ingest",
            Kind::LargeDesigns => "large_designs",
        }
    }

    /// The served model. The weights are the seeded initialisation;
    /// inference cost depends on them only through the kernel's zero-skip.
    pub fn model(self) -> DeepGateConfig {
        match self {
            Kind::WarmRepeat | Kind::ColdIngest => DeepGateConfig {
                hidden_dim: 32,
                num_iterations: 6,
                ..DeepGateConfig::default()
            },
            Kind::LargeDesigns => DeepGateConfig::default(),
        }
    }

    /// How many times one run sets the server up; `setup_s` is the median.
    pub fn setup_repeats(self) -> usize {
        match self {
            Kind::WarmRepeat | Kind::ColdIngest => 5,
            Kind::LargeDesigns => 3,
        }
    }
}

/// How a circuit travels on the wire.
#[derive(Debug, Clone)]
pub enum Payload {
    /// BENCH text in the `bench` field.
    Bench(String),
    /// A binary AIGER file, base64-encoded in `aiger_b64`, with its latch
    /// policy in `latch`.
    Aiger {
        /// The `.aig` bytes.
        bytes: Vec<u8>,
        /// The ingestion policy.
        policy: LatchPolicy,
    },
}

/// One circuit the benchmark sends.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Design name, sent in the `name` field.
    pub name: String,
    /// The circuit as it is sent.
    pub payload: Payload,
    /// The request line after `{"id":N,` (fields in the server's key order,
    /// closing brace included).
    pub body: String,
}

impl Circuit {
    /// Packages `payload` for the wire.
    pub fn new(name: &str, payload: Payload) -> Circuit {
        let mut fields = BTreeMap::new();
        fields.insert("name".to_string(), Value::Str(name.to_string()));
        match &payload {
            Payload::Bench(text) => {
                fields.insert("bench".to_string(), Value::Str(text.clone()));
            }
            Payload::Aiger { bytes, policy } => {
                fields.insert("aiger_b64".to_string(), Value::Str(b64::encode(bytes)));
                fields.insert("latch".to_string(), Value::Str(policy.to_string()));
            }
        }
        let object = serde_json::to_string(&Value::Object(fields))
            .expect("a map of strings always serialises");
        Circuit {
            name: name.to_string(),
            payload,
            body: object[1..].to_string(),
        }
    }

    /// The full request line for request `id`, newline included.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}\n", self.body)
    }

    /// Runs the serving ingestion pipeline in-process (without the
    /// server): the graph the benchmark checks responses against.
    pub fn prepare(&self, engine: &Engine) -> Result<CircuitGraph, String> {
        let source: Box<dyn CircuitSource> = match &self.payload {
            Payload::Bench(text) => Box::new(BenchText::new(self.name.as_str(), text.as_str())),
            Payload::Aiger { bytes, policy } => {
                Box::new(AigerBytes::new(self.name.as_str(), bytes.clone()).latch_policy(*policy))
            }
        };
        engine
            .prepare_unlabelled(source.as_ref())
            .map_err(|e| format!("{}: {e}", self.name))?
            .pop()
            .ok_or_else(|| format!("{}: no circuit", self.name))
    }
}

/// SplitMix64: a small, fully specified generator so inputs are identical
/// on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

fn bench_text(mut netlist: Netlist) -> String {
    // A fixed name keeps structurally equal designs textually equal.
    netlist.set_name("c");
    deepgate::netlist::bench::write(&netlist)
}

/// The hot set: `HOT_SET` structurally distinct small suite circuits of
/// `HOT_NODES` nodes as BENCH text, each with its prepared graph.
pub fn hot_set(engine: &Engine, seed: u64) -> Result<Vec<(Circuit, CircuitGraph)>, String> {
    let mut rng = Rng::new(seed, 1);
    let mut seen = HashSet::new();
    let mut circuits = Vec::new();
    for _ in 0..MAX_DRAWS {
        if circuits.len() == HOT_SET {
            return Ok(circuits);
        }
        let suite = SuiteKind::ALL[rng.range(0, SuiteKind::ALL.len() - 1)];
        let index = rng.range(0, 1 << 20);
        let text = bench_text(suite.generate_design(index, rng.next_u64(), HOT_SCALE));
        let circuit = Circuit::new(&format!("hot{}", circuits.len()), Payload::Bench(text));
        let graph = circuit.prepare(engine)?;
        if HOT_NODES.contains(&graph.num_nodes) && seen.insert(graph.fingerprint()) {
            circuits.push((circuit, graph));
        }
    }
    Err(format!(
        "no {HOT_SET} distinct hot-set circuits in {MAX_DRAWS} draws"
    ))
}

/// The Table III designs, starting the cycle at a seed-chosen design, each
/// with its prepared graph.
pub fn large_designs(engine: &Engine, seed: u64) -> Result<Vec<(Circuit, CircuitGraph)>, String> {
    let start = (seed % LargeDesign::ALL.len() as u64) as usize;
    (0..LargeDesign::ALL.len())
        .map(|k| {
            let design = LargeDesign::ALL[(start + k) % LargeDesign::ALL.len()];
            let text = bench_text(design.generate(LARGE_SCALE));
            let name = design.label().replace(' ', "_").to_lowercase();
            let circuit = Circuit::new(&name, Payload::Bench(text));
            circuit.prepare(engine).map(|graph| (circuit, graph))
        })
        .collect()
}

/// The `cold_ingest` main stream: circuits deterministic in `(seed, index)`,
/// none repeating an earlier one's text. A third are latch-bearing random
/// AIGs sent as binary AIGER (alternately under `cut` and `unroll:2`); the
/// rest are BENCH text, half suite designs at full scale and half
/// `random_logic` circuits. Circuits are made as they are sent, so the
/// benchmark holds none of them during the window.
pub struct ColdStream {
    rng: Rng,
    seen: HashSet<u128>,
    next: usize,
}

impl ColdStream {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> ColdStream {
        ColdStream {
            rng: Rng::new(seed, 2),
            seen: HashSet::new(),
            next: 0,
        }
    }

    /// The next circuit of the stream.
    pub fn next_circuit(&mut self) -> Circuit {
        let index = self.next;
        self.next += 1;
        let name = format!("cold{index}");
        for _ in 0..MAX_DRAWS {
            let payload = match index % 6 {
                2 | 5 => {
                    let inputs = self.rng.range(8, 32);
                    let latches = self.rng.range(4, 32);
                    let ands = self.rng.range(100, 900);
                    let mut aig = aiger::random_aig(self.rng.next_u64(), inputs, latches, ands);
                    aig.set_name("c");
                    let bytes = aiger::write_aig(&aig).expect("generated AIGs are well formed");
                    let policy = if index % 6 == 2 {
                        LatchPolicy::Cut
                    } else {
                        LatchPolicy::Unroll(2)
                    };
                    Payload::Aiger { bytes, policy }
                }
                0 | 3 => {
                    let suite = SuiteKind::ALL[self.rng.range(0, 3)];
                    let design = self.rng.range(0, 1 << 20);
                    let netlist = suite.generate_design(design, self.rng.next_u64(), COLD_SCALE);
                    Payload::Bench(bench_text(netlist))
                }
                _ => {
                    let inputs = self.rng.range(8, 24);
                    let gates = self.rng.range(100, 1200);
                    let netlist = deepgate::dataset::generators::random_logic(
                        inputs,
                        gates,
                        self.rng.next_u64(),
                    );
                    Payload::Bench(bench_text(netlist))
                }
            };
            let circuit = Circuit::new(&name, payload);
            let key = match &circuit.payload {
                Payload::Bench(text) => text_key(text),
                Payload::Aiger { bytes, policy } => {
                    request_key("aiger", &policy.to_string(), bytes)
                }
            };
            if self.seen.insert(key) {
                return circuit;
            }
        }
        panic!("cold stream: no new circuit in {MAX_DRAWS} draws");
    }
}
