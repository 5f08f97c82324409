//! The FiCSUM benchmark: one binary, two workloads, end-to-end metrics by
//! default and per-layer metrics from a separate traced run.
//!
//! ```sh
//! ficsum-perfbench --workload stagger --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Every workload builds its inputs from `--seed` with `ficsum-synth`,
//! drives the system only through public calls, in its default
//! configuration (`FicsumConfig::default()`, `Variant::Full`, batch
//! extraction, `emd_stride` 1, one extraction thread), and checks the
//! outcomes it gets back. The human-readable lines list every metric with
//! its unit and sample count; the last line is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Any outcome mismatch, refusal or step error makes the run fail with a
//! non-zero exit code.

mod churn;
mod layers;
mod quality;
mod report;
mod single;
mod stats;
mod tapes;
mod trace;

use std::path::PathBuf;

use report::Outcome;

#[global_allocator]
static ALLOC: ficsum_bench::alloc_count::CountingAllocator =
    ficsum_bench::alloc_count::CountingAllocator;

/// Command-line arguments, checked where they enter.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 50;
    let mut trace = false;
    let mut trace_dir = PathBuf::from(".bench_build/perfbench-traces");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        trace_dir,
    })
}

const WORKLOADS: [&str; 2] = ["stagger", "net-churn"];

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ficsum-perfbench: {e}");
            std::process::exit(2);
        }
    };
    report::print_host(&args);
    let outcome: Outcome = match args.workload.as_str() {
        "stagger" => single::run(&single::STAGGER, &args),
        "net-churn" => churn::run(&args),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    let ok = outcome.print(&args);
    if !ok {
        std::process::exit(1);
    }
}
