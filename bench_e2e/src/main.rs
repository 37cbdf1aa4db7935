//! End-to-end LogStore benchmark.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <ingest|query_cold|mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the engine through `LogStore::{open, ingest, query_with_options,
//! flush, compact, gc, control_tick}`, checks the outputs, and prints one
//! line per metric followed by a JSON summary as the last line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` re-drives the same inputs
//! through the engine's public layer calls with spans around each call and
//! reports the per-layer metrics (see `README.md`). Exits non-zero when a
//! correctness check fails.

mod redrive;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for the WALs, inside the checkout; removed at exit.
    pub run_dir: PathBuf,
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The metrics for the JSON summary.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric and prints it.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("{name} = {value:.6} {unit}");
        self.metrics.push(Metric { name, value, unit });
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no infinity: a percentile that lands on a failed
            // operation is reported as the largest finite number.
            let value = if metric.value.is_finite() { metric.value } else { f64::MAX };
            write!(
                m,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {:?}", workloads::NAMES));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let run_dir =
        PathBuf::from("bench_e2e").join(".run").join(format!("{workload}-{}", std::process::id()));
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false), run_dir })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("bench_e2e: cannot create {}: {e}", args.run_dir.display());
        std::process::exit(2);
    }
    println!(
        "workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = workloads::run(&args);
    if let Err(e) = std::fs::remove_dir_all(&args.run_dir) {
        eprintln!("bench_e2e: cannot remove {}: {e}", args.run_dir.display());
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
