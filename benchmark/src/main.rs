//! `deepgate-benchmark` — the repository benchmark: runs one named workload
//! against `deepgate-serve` with its default configuration, checks every
//! response, and prints every metric by name and unit.
//!
//! ```text
//! deepgate-benchmark --workload <warm_repeat|cold_ingest|large_designs>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! deepgate-benchmark --workload <name> --seed <first> --seconds <s> --spread <runs>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. `--spread` reruns
//! the workload with seeds `first..first+runs` and prints each end-to-end
//! metric's spread beside its bound in `BENCHMARK.json`. See the README
//! beside this crate.

mod check;
mod client;
mod report;
mod run;
mod scrape;
mod spread;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::Kind;

const USAGE: &str = "usage: deepgate-benchmark --workload <warm_repeat|cold_ingest|large_designs> \
--seed <n> --seconds <s> (--trace <0|1> | --spread <runs>)";

struct Cli {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    spread: Option<usize>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spread = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spread" => spread = Some(number()?.max(2) as usize),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Cli {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spread,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = cli.spread {
        return match spread::spread(cli.kind, cli.seed, cli.seconds, runs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(3),
            Err(e) => {
                eprintln!("spread: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = run::Args {
        kind: cli.kind,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    match run::run(args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
