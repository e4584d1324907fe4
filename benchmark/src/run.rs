//! One benchmark run: set-up, the measured window, the checks, and (for
//! the traced run) the replay.

use crate::check::{check_cold_misses, check_probs, parse_response, Expected};
use crate::client::{closed_loop, open_loop, Sample, Wire};
use crate::report::{median, percentile, Host, Reading, Report, END_TO_END, PER_LAYER};
use crate::scrape::Scrape;
use crate::trace::{replay, Step, Totals};
use crate::workload::{
    hot_set, large_designs, Circuit, ColdStream, Kind, COLD_WINDOW, PROBE_RATE, WARM_WINDOW,
};
use deepgate::gnn::CircuitGraph;
use deepgate::{Engine, InferenceSession};
use deepgate_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where a run keeps its checkpoint, relative to the checkout root.
const WORK_DIR: &str = ".bench_work";
/// First request id of each stream; ids never repeat within a run.
const SETUP_IDS: u64 = 1;
const SCRAPE_IDS: u64 = 900_000;
const MAIN_IDS: u64 = 1_000_000;
const PROBE_IDS: u64 = 100_000_000;
/// Responses per block of the end-to-end figures (`large_designs` uses one
/// cycle of its designs instead): enough for a 99th percentile with ten
/// responses beyond it.
const BLOCK: usize = 1000;
/// Most measured requests the traced replay feeds through the layers.
const REPLAY_CAP: usize = 20_000;

/// The command-line arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// A circuit with what the benchmark prepared itself: its size and its
/// in-process reference prediction.
struct Known {
    circuit: Circuit,
    nodes: usize,
    levels: usize,
    fingerprint: u128,
    reference: Expected,
}

/// The reference for a circuit: an in-process prediction of the graph the
/// benchmark prepared itself, without the server, the cache, batching or
/// fusion.
fn known_of(
    session: &InferenceSession,
    (circuit, graph): (Circuit, CircuitGraph),
) -> Result<Known, String> {
    let probs = session.predict(&graph).map_err(|e| e.to_string())?;
    let reference =
        Expected::new(probs, graph.num_nodes).map_err(|e| format!("{}: {e}", circuit.name))?;
    Ok(Known {
        circuit,
        nodes: graph.num_nodes,
        levels: graph.max_level + 1,
        fingerprint: graph.fingerprint(),
        reference,
    })
}

/// Checks responses of one stream as they arrive.
struct Checker<'a> {
    known: &'a [Known],
    /// First probabilities seen per circuit (`large_designs` repeats must
    /// return the same bits).
    first: BTreeMap<usize, Vec<f32>>,
    /// Responses for circuits made during the window (`cold_ingest`), by
    /// circuit index, checked once their references exist.
    deferred: Vec<(usize, Vec<f32>)>,
    /// Error responses: failed requests, not failed checks.
    errors: Vec<String>,
    problems: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(known: &'a [Known]) -> Checker<'a> {
        Checker {
            known,
            first: BTreeMap::new(),
            deferred: Vec::new(),
            errors: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Checks one response; returns whether the server answered without
    /// error.
    fn check(&mut self, index: usize, line: &str) -> bool {
        // Fast path: the exact bytes of the reference's wire form.
        if self
            .known
            .get(index)
            .is_some_and(|k| k.reference.matches(line))
        {
            return true;
        }
        let response = match parse_response(line) {
            Ok(response) => response,
            Err(e) => {
                self.problems.push(format!("circuit {index}: {e}"));
                return false;
            }
        };
        let probs = match response.result {
            Ok(probs) => probs,
            Err(message) => {
                self.errors
                    .push(format!("circuit {index} (id {}): {message}", response.id));
                return false;
            }
        };
        let Some(known) = self.known.get(index) else {
            self.deferred.push((index, probs));
            return true;
        };
        if let Err(e) = check_probs(&probs, known.nodes, &known.reference.probs) {
            self.problems
                .push(format!("{} (id {}): {e}", known.circuit.name, response.id));
        }
        let first = self.first.entry(index).or_insert_with(|| probs.clone());
        if first
            .iter()
            .map(|p| p.to_bits())
            .ne(probs.iter().map(|p| p.to_bits()))
        {
            self.problems.push(format!(
                "{} (id {}): differs from the first response for the same circuit",
                known.circuit.name, response.id
            ));
        }
        true
    }
}

/// A live server with the benchmark's connections.
struct Live {
    server: Server,
    main: Wire,
    probe: Option<Wire>,
}

/// Starts the server from the checkpoint file, connects and runs the
/// set-up pass, checking every response.
fn set_up(
    kind: Kind,
    checkpoint: &Path,
    known: &[Known],
    warmup: &[usize],
    checker: &mut Checker<'_>,
    ids: &mut Vec<(u64, usize)>,
) -> Result<Live, String> {
    let engine = Engine::from_checkpoint_file(checkpoint).map_err(|e| e.to_string())?;
    let server = Server::start(engine, ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut main = Wire::connect(server.local_addr())?;
    let probe = match kind {
        Kind::LargeDesigns => None,
        Kind::WarmRepeat | Kind::ColdIngest => Some(Wire::connect(server.local_addr())?),
    };
    ids.clear();
    for (j, &index) in warmup.iter().enumerate() {
        let id = SETUP_IDS + j as u64;
        let response = main.call(id, &known[index].circuit.line(id))?;
        checker.check(index, &response);
        ids.push((id, index));
    }
    Ok(Live {
        server,
        main,
        probe,
    })
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Processor time of this process and of the whole machine.
#[derive(Debug, Clone, Copy, Default)]
struct CpuTimes {
    /// User plus system time of this process, seconds.
    process_s: f64,
    /// Machine-wide ticks: all states, and stolen by the hypervisor.
    total_ticks: u64,
    steal_ticks: u64,
    /// Share of the machine's time stolen, for an interval.
    steal_share: f64,
}

impl CpuTimes {
    /// Reads `/proc/self/stat` and `/proc/stat` (zeros where unreadable).
    fn read() -> CpuTimes {
        let ticks_per_s = 100.0;
        let process_s = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|stat| {
                // Fields after the parenthesised command name; utime and
                // stime are the 14th and 15th fields of the line.
                let rest = stat.rsplit_once(')')?.1;
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let user: f64 = fields.get(11)?.parse().ok()?;
                let system: f64 = fields.get(12)?.parse().ok()?;
                Some((user + system) / ticks_per_s)
            })
            .unwrap_or(0.0);
        let (total_ticks, steal_ticks) = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| {
                let line = stat.lines().next()?;
                let ticks: Vec<u64> = line
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|t| t.parse().ok())
                    .collect();
                Some((ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0)))
            })
            .unwrap_or((0, 0));
        CpuTimes {
            process_s,
            total_ticks,
            steal_ticks,
            steal_share: 0.0,
        }
    }

    fn since(&self, before: &CpuTimes) -> CpuTimes {
        let total = self.total_ticks.saturating_sub(before.total_ticks);
        let steal = self.steal_ticks.saturating_sub(before.steal_ticks);
        CpuTimes {
            process_s: self.process_s - before.process_s,
            total_ticks: total,
            steal_ticks: steal,
            steal_share: steal as f64 / total.max(1) as f64,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one workload and builds its report.
pub fn run(args: Args) -> Result<Report, String> {
    let kind = args.kind;
    let host = Host::detect();
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let checkpoint = work.join(format!("{}-{}.json", kind.name(), std::process::id()));
    let result = run_with(args, host, &checkpoint);
    let _ = std::fs::remove_file(&checkpoint);
    let _ = std::fs::remove_dir(&work);
    result
}

fn run_with(args: Args, host: Host, checkpoint: &Path) -> Result<Report, String> {
    let kind = args.kind;
    // Training is out of scope: the weights are the seeded initialisation,
    // written to a checkpoint file and loaded back as a deployment does.
    Engine::builder()
        .model(kind.model())
        .build()
        .and_then(|engine| engine.save_checkpoint(checkpoint))
        .map_err(|e| e.to_string())?;
    let engine = Engine::from_checkpoint_file(checkpoint).map_err(|e| e.to_string())?;
    let session = engine.session();

    // Inputs: every circuit the set-up pass sends, each with its reference
    // (the cold stream's circuits are made as they are sent).
    let circuits = match kind {
        Kind::WarmRepeat | Kind::ColdIngest => hot_set(&engine, args.seed)?,
        Kind::LargeDesigns => large_designs(&engine, args.seed)?,
    };
    let mut known = circuits
        .into_iter()
        .map(|circuit| known_of(&session, circuit))
        .collect::<Result<Vec<Known>, String>>()?;
    let hot = known.len();
    let warmup: Vec<usize> = (0..hot).collect();

    // Set-up, several times; the last server stays up for the window.
    let mut checker = Checker::new(&known);
    let mut setups = Vec::new();
    let mut setup_ids = Vec::new();
    let repeats = if args.trace { 1 } else { kind.setup_repeats() };
    let mut live = None;
    for _ in 0..repeats {
        // The previous server drains and joins before the next starts.
        drop(live.take());
        let start = Instant::now();
        let up = set_up(
            kind,
            checkpoint,
            &known,
            &warmup,
            &mut checker,
            &mut setup_ids,
        )?;
        setups.push(start.elapsed().as_secs_f64());
        live = Some(up);
    }
    let Live {
        server,
        mut main,
        probe,
    } = live.ok_or("no set-up ran")?;
    let before = Scrape::take(&mut main, SCRAPE_IDS)?;

    // The measured window.
    let window = Duration::from_secs(args.seconds);
    let mut probe_checker = Checker::new(&known);
    let cpu_before = CpuTimes::read();
    let start = Instant::now();
    let deadline = start + window;
    let (main_samples, probe_samples): (Vec<Sample>, Vec<Sample>) = match (kind, probe) {
        (Kind::WarmRepeat, Some(mut second)) => {
            let mut picks = [
                crate::workload::Rng::new(args.seed, 10),
                crate::workload::Rng::new(args.seed, 11),
            ];
            let [pick_a, pick_b] = &mut picks;
            let known = &known;
            let (a, b) = std::thread::scope(|scope| {
                let other = scope.spawn(|| {
                    closed_loop(
                        &mut second,
                        WARM_WINDOW,
                        PROBE_IDS,
                        |_, id| {
                            let index = pick_b.range(0, hot - 1);
                            (index, known[index].circuit.line(id))
                        },
                        |_, now| now >= deadline,
                        |index, line| probe_checker.check(index, line),
                    )
                });
                let a = closed_loop(
                    &mut main,
                    WARM_WINDOW,
                    MAIN_IDS,
                    |_, id| {
                        let index = pick_a.range(0, hot - 1);
                        (index, known[index].circuit.line(id))
                    },
                    |_, now| now >= deadline,
                    |index, line| checker.check(index, line),
                );
                let b = other
                    .join()
                    .map_err(|_| "client thread panicked".to_string());
                (a, b)
            });
            let mut samples = a?;
            samples.extend(b??);
            (samples, Vec::new())
        }
        (Kind::ColdIngest, Some(mut second)) => {
            let mut pick = crate::workload::Rng::new(args.seed, 12);
            let known = &known;
            let probes = (args.seconds as f64 * PROBE_RATE) as usize;
            let mut stream = ColdStream::new(args.seed);
            let (a, b) = std::thread::scope(|scope| {
                let other = scope.spawn(|| {
                    open_loop(
                        &mut second,
                        start,
                        PROBE_RATE,
                        probes,
                        PROBE_IDS,
                        |_, id| {
                            let index = pick.range(0, hot - 1);
                            (index, known[index].circuit.line(id))
                        },
                        |index, line| probe_checker.check(index, line),
                    )
                });
                let a = closed_loop(
                    &mut main,
                    COLD_WINDOW,
                    MAIN_IDS,
                    |k, id| (hot + k, stream.next_circuit().line(id)),
                    |_, now| now >= deadline,
                    |index, line| checker.check(index, line),
                );
                let b = other
                    .join()
                    .map_err(|_| "client thread panicked".to_string());
                (a, b)
            });
            (a?, b??)
        }
        (Kind::LargeDesigns, None) => {
            let designs = hot;
            let samples = closed_loop(
                &mut main,
                1,
                MAIN_IDS,
                |k, id| (k % designs, known[k % designs].circuit.line(id)),
                // Whole cycles only: every design is measured equally often.
                |k, now| now >= deadline && k % designs == 0,
                |index, line| checker.check(index, line),
            )?;
            (samples, Vec::new())
        }
        _ => {
            unreachable!("the set-up opens a probe connection exactly when the workload needs one")
        }
    };
    let after = Scrape::take(&mut main, SCRAPE_IDS + 1)?;
    let peak_rss = peak_rss_mib();
    let cpu = CpuTimes::read().since(&cpu_before);
    drop(main);
    server.shutdown();

    let mut problems = checker.problems;
    problems.extend(probe_checker.problems);
    let deferred = checker.deferred;
    let errors: Vec<String> = checker
        .errors
        .into_iter()
        .chain(probe_checker.errors)
        .collect();
    let cold_misses = after.counter_since(&before, "cache_misses_total");
    if kind == Kind::ColdIngest {
        if let Err(e) = check_cold_misses(cold_misses, main_samples.len() as u64) {
            problems.push(e);
        }
        // Remake the circuits the stream sent, with their references.
        let mut stream = ColdStream::new(args.seed);
        let sent: Vec<Circuit> = (0..main_samples.len())
            .map(|_| stream.next_circuit())
            .collect();
        known.extend(known_all(&engine, &session, sent)?);
        for (index, probs) in &deferred {
            let cold = &known[*index];
            if let Err(e) = check_probs(probs, cold.nodes, &cold.reference.probs) {
                problems.push(format!("{}: {e}", cold.circuit.name));
            }
        }
        let distinct: std::collections::HashSet<u128> =
            known.iter().map(|k| k.fingerprint).collect();
        if distinct.len() != known.len() {
            problems.push("the cold stream repeated a structure".into());
        }
    }

    // End-to-end figures: each is computed per block of consecutive
    // responses and reported as the median over blocks, so one stalled
    // stretch of the window moves one block, not the result.
    let block = match kind {
        Kind::WarmRepeat | Kind::ColdIngest => BLOCK,
        // One block per cycle of the designs.
        Kind::LargeDesigns => hot,
    };
    let main_blocks = Blocks::of(&main_samples, start, block, |s| known[s.circuit].nodes);
    let hit_blocks = if kind == Kind::ColdIngest {
        Blocks::of(&probe_samples, start, block, |_| 0)
    } else {
        main_blocks.clone()
    };
    let attempted = (main_samples.len() + probe_samples.len()) as u64;
    let failed = main_samples
        .iter()
        .chain(&probe_samples)
        .filter(|s| !s.ok)
        .count() as u64;
    let nodes: usize = main_samples.iter().map(|s| known[s.circuit].nodes).sum();
    let basis = main_blocks.basis(main_samples.len(), "main-stream responses");
    let hit_basis = if kind == Kind::ColdIngest {
        hit_blocks.basis(
            probe_samples.len(),
            &format!("probes at {PROBE_RATE}/s, timed from due time"),
        )
    } else {
        hit_blocks.basis(main_samples.len(), "responses, all cache hits")
    };
    let mut e2e = BTreeMap::new();
    let setup_basis = format!("median of {} set-ups", setups.len());
    e2e.insert(
        "setup_s",
        Reading::over(median(&setups), &setups, setup_basis),
    );
    e2e.insert(
        "throughput_rps",
        main_blocks.reading(&main_blocks.rate, &basis),
    );
    e2e.insert(
        "gates_per_s",
        main_blocks.reading(&main_blocks.gates, &format!("{basis}, {nodes} nodes")),
    );
    e2e.insert(
        "latency_p50_ms",
        main_blocks.reading(&main_blocks.p50, &basis),
    );
    e2e.insert(
        "latency_p99_ms",
        main_blocks.reading(&main_blocks.p99, &basis),
    );
    e2e.insert(
        "hit_latency_p50_ms",
        hit_blocks.reading(&hit_blocks.p50, &hit_basis),
    );
    e2e.insert(
        "hit_latency_p99_ms",
        hit_blocks.reading(&hit_blocks.p99, &hit_basis),
    );
    e2e.insert(
        "peak_rss_mb",
        Reading::single(peak_rss, "VmHWM of the benchmark process"),
    );

    let mut notes = vec![input_summary(&known[..hot], "set-up circuits")];
    notes.extend(
        errors
            .iter()
            .take(5)
            .map(|e| format!("error response: {e}")),
    );
    if kind == Kind::ColdIngest {
        notes.push(input_summary(&known[hot..], "main-stream circuits"));
        let lag: Vec<f64> = probe_samples.iter().map(|s| ms(s.sent - s.due)).collect();
        notes.push(format!(
            "probe generator lag: mean {:.3} ms, max {:.3} ms",
            lag.iter().sum::<f64>() / lag.len().max(1) as f64,
            lag.iter().copied().fold(0.0, f64::max)
        ));
    }
    notes.push(format!(
        "cpu over the window: benchmark process {:.3} s ({:.3} ms per main-stream response); host steal share {:.3}",
        cpu.process_s,
        1e3 * cpu.process_s / main_samples.len().max(1) as f64,
        cpu.steal_share
    ));
    notes.push(format!(
        "server over the window: {} predict requests, {} cache misses",
        after.counter_since(&before, "requests_predict_total"),
        cold_misses
    ));

    let metrics: BTreeMap<String, Reading> = if args.trace {
        let mut all: Vec<&Sample> = main_samples.iter().chain(&probe_samples).collect();
        all.sort_by_key(|s| s.sent);
        let layer = per_layer(
            &engine,
            &known,
            &setup_ids,
            &all,
            &before,
            &after,
            &mut notes,
            &mut problems,
        )?;
        PER_LAYER
            .iter()
            .map(|(name, _)| {
                layer
                    .get(*name)
                    .cloned()
                    .map(|reading| (name.to_string(), reading))
                    .ok_or_else(|| format!("per-layer metric {name} was not computed"))
            })
            .collect::<Result<_, String>>()?
    } else {
        END_TO_END
            .iter()
            .map(|(name, _)| (name.to_string(), e2e[name].clone()))
            .collect()
    };

    Ok(Report {
        workload: kind.name().to_string(),
        seed: args.seed,
        traced: args.trace,
        host,
        attempted,
        failed,
        problems,
        metrics,
        notes,
    })
}

/// Prepares and predicts `circuits` in-process on two threads (the server
/// is down by then), in order.
fn known_all(
    engine: &Engine,
    session: &InferenceSession,
    circuits: Vec<Circuit>,
) -> Result<Vec<Known>, String> {
    let mut slots: Vec<Option<Result<Known, String>>> = (0..circuits.len()).map(|_| None).collect();
    let (even, odd): (Vec<_>, Vec<_>) = circuits
        .into_iter()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let work = |part: Vec<(usize, Circuit)>| -> Vec<(usize, Result<Known, String>)> {
        part.into_iter()
            .map(|(i, circuit)| {
                (
                    i,
                    circuit
                        .prepare(engine)
                        .and_then(|graph| known_of(session, (circuit, graph))),
                )
            })
            .collect()
    };
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(|| work(odd));
        (work(even), other.join())
    });
    for (i, known) in a
        .into_iter()
        .chain(b.map_err(|_| "reference thread panicked")?)
    {
        slots[i] = Some(known);
    }
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Err("missing reference".into())))
        .collect()
}

/// One line describing a set of circuits: count, payload formats, node and
/// level ranges.
fn input_summary(circuits: &[Known], what: &str) -> String {
    let nodes: Vec<usize> = circuits.iter().map(|k| k.nodes).collect();
    let levels: Vec<usize> = circuits.iter().map(|k| k.levels).collect();
    let aiger = circuits
        .iter()
        .filter(|k| matches!(k.circuit.payload, crate::workload::Payload::Aiger { .. }))
        .count();
    format!(
        "inputs: {} {what} ({} BENCH, {aiger} AIGER), nodes {}..{} (mean {:.0}), levels {}..{}",
        circuits.len(),
        circuits.len() - aiger,
        nodes.iter().min().unwrap_or(&0),
        nodes.iter().max().unwrap_or(&0),
        nodes.iter().sum::<usize>() as f64 / nodes.len().max(1) as f64,
        levels.iter().min().unwrap_or(&0),
        levels.iter().max().unwrap_or(&0),
    )
}

/// Per-block figures of one stream: consecutive blocks of responses in
/// completion order, a short last block joining the one before.
#[derive(Debug, Clone, Default)]
struct Blocks {
    /// Responses per block.
    size: usize,
    /// Completions per second over each block's stretch of the window.
    rate: Vec<f64>,
    /// Circuit nodes completed per second over each block's stretch.
    gates: Vec<f64>,
    /// Median latency of each block, ms.
    p50: Vec<f64>,
    /// 99th-percentile latency of each block, ms.
    p99: Vec<f64>,
}

impl Blocks {
    fn of(
        samples: &[Sample],
        start: Instant,
        size: usize,
        nodes: impl Fn(&Sample) -> usize,
    ) -> Blocks {
        let mut done: Vec<&Sample> = samples.iter().collect();
        done.sort_by_key(|s| s.received);
        let count = (done.len() / size.max(1)).max(1);
        let mut blocks = Blocks {
            size,
            ..Blocks::default()
        };
        let mut from = start;
        for k in 0..count {
            let end = if k + 1 == count {
                done.len()
            } else {
                (k + 1) * size
            };
            let block = &done[k * size..end];
            let Some(last) = block.last() else { break };
            let seconds = (last.received - from).as_secs_f64();
            from = last.received;
            blocks.rate.push(block.len() as f64 / seconds);
            blocks
                .gates
                .push(block.iter().map(|s| nodes(s)).sum::<usize>() as f64 / seconds);
            let mut latency: Vec<f64> = block.iter().map(|s| ms(s.latency())).collect();
            latency.sort_by(f64::total_cmp);
            blocks.p50.push(percentile(&latency, 0.5));
            blocks.p99.push(percentile(&latency, 0.99));
        }
        blocks
    }

    fn basis(&self, responses: usize, what: &str) -> String {
        format!(
            "median of {} blocks of {} over {responses} {what}",
            self.rate.len(),
            self.size
        )
    }

    fn reading(&self, values: &[f64], basis: &str) -> Reading {
        Reading::over(median(values), values, basis)
    }
}

/// The traced run's per-layer figures: the server's own counters over the
/// window, and the layer spans of the in-process replay.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    engine: &Engine,
    known: &[Known],
    setup_ids: &[(u64, usize)],
    measured: &[&Sample],
    before: &Scrape,
    after: &Scrape,
    notes: &mut Vec<String>,
    problems: &mut Vec<String>,
) -> Result<BTreeMap<&'static str, Reading>, String> {
    let mut out = BTreeMap::new();

    // The server's view of the window.
    let requests = after.counter_since(before, "requests_predict_total").max(1) as f64;
    let latency = after.hist_since(before, "request_latency_ns");
    let server_p50 = latency.percentile(0.5) as f64 / 1e6;
    let client: Vec<f64> = {
        let mut values: Vec<f64> = measured.iter().map(|s| ms(s.received - s.sent)).collect();
        values.sort_by(f64::total_cmp);
        values
    };
    let client_p50 = percentile(&client, 0.5);
    let basis = format!("{} predict requests (server metrics)", requests as u64);
    out.insert("server.request_p50_ms", Reading::single(server_p50, &basis));
    out.insert(
        "client.wire_overhead_ms",
        Reading::single(
            client_p50 - server_p50,
            format!("client p50 {client_p50:.3} ms minus server p50"),
        ),
    );
    for (name, stage) in [
        ("server.stage_parse_us", "stage_parse_ns"),
        ("server.stage_encode_us", "stage_encode_ns"),
        ("server.stage_plan_us", "stage_plan_ns"),
        ("server.stage_infer_us", "stage_infer_ns"),
        ("server.stage_respond_us", "stage_respond_ns"),
    ] {
        let total = after.hist_since(before, stage).sum as f64;
        out.insert(
            name,
            Reading::single(total / requests / 1e3, format!("{basis}, per request")),
        );
    }
    let batches = after
        .counter_since(before, "scheduler_batches_total")
        .max(1) as f64;
    let batched = after.counter_since(before, "scheduler_batched_requests_total") as f64;
    let mean_batch = batched / batches;
    out.insert(
        "scheduler.mean_batch",
        Reading::single(mean_batch, format!("{} batches", batches as u64)),
    );
    out.insert(
        "scheduler.dedup_ratio",
        Reading::single(
            after.counter_since(before, "scheduler_deduplicated_total") as f64 / batched.max(1.0),
            "batched requests",
        ),
    );
    out.insert(
        "scheduler.batch_latency_us",
        Reading::single(
            after.hist_since(before, "batch_latency_ns").mean() / 1e3,
            "per batch",
        ),
    );
    let hits = (after.counter_since(before, "cache_text_hits_total")
        + after.counter_since(before, "cache_fingerprint_hits_total")) as f64;
    let misses = after.counter_since(before, "cache_misses_total") as f64;
    out.insert(
        "cache.hit_ratio",
        Reading::single(hits / (hits + misses).max(1.0), "cache lookups"),
    );
    out.insert("cache.misses", Reading::single(misses, "the window"));
    out.insert(
        "engine.plans_per_req",
        Reading::single(
            after.hist_since(before, "engine_plan_ns").count as f64 / requests,
            &basis,
        ),
    );
    out.insert(
        "engine.fuse_us",
        Reading::single(
            after.hist_since(before, "engine_fuse_ns").mean() / 1e3,
            "per fuse",
        ),
    );
    out.insert(
        "eventloop.wakeups_per_req",
        Reading::single(
            after.counter_since(before, "eventloop_wakeups_total") as f64 / requests,
            &basis,
        ),
    );
    let lags: Vec<f64> = measured
        .iter()
        .filter(|s| s.due != s.sent)
        .map(|s| ms(s.sent - s.due))
        .collect();
    out.insert(
        "client.generator_lag_ms",
        Reading::single(
            lags.iter().fold(0.0, |sum, lag| sum + lag) / lags.len().max(1) as f64,
            format!("{} open-loop requests", lags.len()),
        ),
    );

    // The replay: set-up pass, then the measured sequence in send order.
    let sequence: Vec<(u64, usize, bool)> = setup_ids
        .iter()
        .map(|&(id, index)| (id, index, true))
        .chain(
            measured
                .iter()
                .take(REPLAY_CAP)
                .map(|s| (s.id, s.circuit, false)),
        )
        .collect();
    let steps: Vec<Step<'_>> = sequence
        .iter()
        .map(|&(id, index, setup)| Step {
            id,
            circuit: &known[index].circuit,
            setup,
        })
        .collect();
    let width = mean_batch.round().max(1.0) as usize;
    let replayed = replay(engine, &steps, width)?;
    for (step, &(_, index, _)) in steps.iter().zip(&sequence) {
        match replayed.outputs.get(&step.id) {
            Some(probs) => {
                if let Err(e) =
                    check_probs(probs, known[index].nodes, &known[index].reference.probs)
                {
                    problems.push(format!("replay of {}: {e}", step.circuit.name));
                }
            }
            None => problems.push(format!("replay produced nothing for id {}", step.id)),
        }
    }
    let all = Totals::of(&replayed.tracer);
    let replay_basis = format!(
        "{} replayed requests ({} set-up), batches of {width}",
        steps.len(),
        setup_ids.len()
    );
    for (metric, span) in [
        ("netlist.parse_us", "netlist.parse"),
        ("aig.aiger_read_us", "aig.aiger_read"),
        ("aig.latch_apply_us", "aig.latch_apply"),
        ("aig.map_us", "aig.map"),
        ("aig.opt_us", "aig.opt"),
        ("gnn.encode_us", "gnn.encode"),
        ("gnn.fingerprint_us", "gnn.fingerprint"),
        ("gnn.plan_us", "gnn.plan"),
        ("gnn.kernel_us", "gnn.kernel"),
        ("session.fuse_us", "session.fuse"),
        ("session.batch_plan_us", "session.batch_plan"),
        ("session.batch_predict_us", "session.batch_predict"),
        ("serve.frame_us", "serve.frame"),
        ("serve.json_parse_us", "serve.json_parse"),
        ("serve.json_write_us", "serve.json_write"),
        ("serve.b64_decode_us", "serve.b64_decode"),
        ("serve.text_key_us", "serve.text_key"),
        ("serve.cache_lookup_us", "serve.cache_lookup"),
    ] {
        let calls = all.calls.get(span).copied().unwrap_or(0);
        out.insert(
            metric,
            Reading::single(all.mean_us(span), format!("{calls} calls, {replay_basis}")),
        );
    }
    let gnn = &replayed.kernel.gnn;
    let kernel_calls = gnn.circuit_nodes.count().max(1) as f64;
    let kernel_nodes = gnn.circuit_nodes.snapshot().sum.max(1) as f64;
    let kernel_ns = all.total_ns.get("gnn.kernel").copied().unwrap_or(0) as f64;
    let kernel_basis = format!(
        "{} kernel calls over {} nodes",
        kernel_calls as u64, kernel_nodes as u64
    );
    out.insert(
        "gnn.kernel_ns_per_node",
        Reading::single(kernel_ns / kernel_nodes, &kernel_basis),
    );
    out.insert(
        "gnn.level_agg_ms",
        Reading::single(
            gnn.level_agg_ns.snapshot().sum as f64 / kernel_calls / 1e6,
            format!("{kernel_basis}, per call"),
        ),
    );
    out.insert(
        "gnn.regress_us",
        Reading::single(
            gnn.regress_ns.snapshot().sum as f64 / kernel_calls / 1e3,
            format!("{kernel_basis}, per call"),
        ),
    );
    out.insert(
        "gnn.levels",
        Reading::single(
            gnn.levels_total.get() as f64 / kernel_calls,
            format!("{kernel_basis}, level passes per call"),
        ),
    );
    out.insert(
        "gnn.level_width_p50",
        Reading::single(
            gnn.csr_level_width.snapshot().percentile(0.5) as f64,
            "level slices",
        ),
    );

    // Where the time goes, per measured request of each stream.
    let attributed = replayed.per_request();
    let streams: Vec<(&str, Vec<&Sample>)> = if measured.iter().any(|s| s.due != s.sent) {
        let (probes, main): (Vec<&Sample>, Vec<&Sample>) =
            measured.iter().partition(|s| s.due != s.sent);
        vec![("main-stream", main), ("probe", probes)]
    } else {
        vec![("measured", measured.to_vec())]
    };
    for (stream, samples) in streams {
        let traced: Vec<&Sample> = samples
            .into_iter()
            .filter(|s| attributed.contains_key(&s.id))
            .collect();
        let count = traced.len().max(1) as f64;
        let mut per_name: BTreeMap<&str, f64> = BTreeMap::new();
        for sample in &traced {
            for (name, ns) in &attributed[&sample.id] {
                *per_name.entry(name).or_default() += ns / count / 1e3;
            }
        }
        notes.push(format!(
            "where the time goes, per {stream} request (traced self time, {} requests):",
            traced.len()
        ));
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, us) in &per_name {
            notes.push(format!("  {name:<24} {us:>12.2} us"));
            let layer = match *name {
                "gnn.kernel" => "gnn (kernel)",
                n if n.starts_with("gnn.") => "gnn (ingest)",
                n => n.split('.').next().unwrap_or(n),
            };
            *by_layer.entry(layer).or_default() += us;
        }
        let layer_sum: f64 = by_layer.values().sum();
        for (layer, us) in &by_layer {
            notes.push(format!(
                "  layer {layer:<18} {us:>12.2} us  {:>5.1}%",
                100.0 * us / layer_sum.max(1e-9)
            ));
        }
        let mut latency: Vec<f64> = traced.iter().map(|s| ms(s.received - s.sent)).collect();
        latency.sort_by(f64::total_cmp);
        let mean = latency.iter().sum::<f64>() / latency.len().max(1) as f64;
        notes.push(format!(
            "  traced layer sum {:.3} ms per request; untraced client latency (from send) mean {mean:.3} ms, p50 {:.3} ms; gap (queueing, wire, event loop) {:.3} ms",
            layer_sum / 1e3,
            percentile(&latency, 0.5),
            mean - layer_sum / 1e3
        ));
    }
    Ok(out)
}
