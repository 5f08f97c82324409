//! Metric names, units and the printed result.
//!
//! The two tables below are the contract with `BENCHMARK.json`: a run
//! without tracing reports exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`], and every workload reports every name. A layer a
//! workload does not exercise (the `serve` and `net` layers on the
//! single-stream workloads) is printed as 0 and marked as not measured.

use crate::Args;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 9] = [
    ("steps_per_sec", "steps/s"),
    ("latency_tail_us", "us"),
    ("accuracy", "fraction"),
    ("cf1", "fraction"),
    ("drift_precision", "fraction"),
    ("drift_recall", "fraction"),
    ("detection_delay_steps", "steps"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of metrics printed with the end-to-end ones but left
/// out of the JSON result. The median step latency swings with the shared
/// host's state far more than throughput does (on the QG stand-in its IQR over
/// ten seeds reached 0.40 of the median), too much for any bound.
pub const INFORMATIONAL: [(&str, &str); 1] = [("latency_p50_us", "us")];

/// `(name, unit)` of every per-layer metric, grouped by workspace crate.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("meta.extract.calls", "count"),
    ("meta.extract.busy_ms", "ms"),
    ("meta.extract.mean_us", "us"),
    ("meta.src.feature_ms", "ms"),
    ("meta.src.classifier_ms", "ms"),
    ("meta.kernel.emd_us", "us"),
    ("meta.kernel.mi_us", "us"),
    ("meta.kernel.acf_us", "us"),
    ("core.reassess.calls", "count"),
    ("core.reassess.busy_ms", "ms"),
    ("core.repository.size", "count"),
    ("core.similarity.busy_ms", "ms"),
    ("core.residual_ms", "ms"),
    ("drift.check.busy_ms", "ms"),
    ("drift.detections", "count"),
    ("drift.false_alarms", "count"),
    ("drift.missed_drifts", "count"),
    ("classifiers.predict_train_us", "us"),
    ("alloc.steady_per_step", "count"),
    ("alloc.drift_per_step", "count"),
    ("serve.admit_us_p99", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.service_frac", "fraction"),
    ("serve.wait_us_p50", "us"),
    ("serve.wait_us_p99", "us"),
    ("serve.queue_depth_max", "count"),
    ("serve.requests_per_drain", "count"),
    ("serve.rejected", "count"),
    ("serve.sessions_created", "count"),
    ("serve.sessions_evicted", "count"),
    ("serve.generator_lag_p99_us", "us"),
    ("net.rtt_us_p50", "us"),
    ("net.direct_us_p50", "us"),
    ("net.overhead_us", "us"),
    ("net.bytes_per_step", "bytes"),
    ("net.batches_accepted", "count"),
    ("net.batches_rejected", "count"),
    ("net.protocol_errors", "count"),
    ("obs.trace_overhead_frac", "fraction"),
    ("error_frac", "fraction"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Steps (requests) the run attempted.
    pub attempted: u64,
    /// Steps that failed: refused, errored, or whose outcome digest did
    /// not match the reference.
    pub failed: u64,
    /// Human-readable reasons for `failed`.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Lines printed before the metric table.
    pub notes: Vec<String>,
    /// Name prefixes of the per-layer metrics this workload does not
    /// exercise.
    pub not_applicable: &'static [&'static str],
}

impl Outcome {
    /// Sets a metric, replacing an earlier value of the same name.
    pub fn add(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records `count` failed steps with a reason.
    pub fn fail(&mut self, count: u64, reason: String) {
        self.failed += count;
        self.errors.push(reason);
    }

    /// Folds another run's accounting (attempts, failures, notes) into
    /// this one; metrics are not merged.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.notes.extend(other.notes);
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Prints the human-readable table and the final JSON line; returns
    /// whether the run was correct.
    pub fn print(mut self, args: &Args) -> bool {
        let error_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.add("error_frac", error_frac, self.attempted);
        for note in &self.notes {
            println!("{note}");
        }
        let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut json = Vec::with_capacity(table.len());
        let mut missing = Vec::new();
        let mut skipped = Vec::new();
        for &(name, unit) in table {
            let applies = !self.not_applicable.iter().any(|p| name.starts_with(p));
            match self.get(name) {
                None if !applies => {
                    skipped.push(name);
                    json.push(format!(
                        "\"{name}\": {{\"value\": 0, \"unit\": \"{unit}\"}}"
                    ));
                }
                Some(m) if m.value.is_finite() => {
                    json.push(format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        m.value
                    ));
                }
                Some(m) => missing.push(format!("{name} is not finite: {}", m.value)),
                None => missing.push(format!("{name} was not measured")),
            }
        }
        self.errors.extend(missing);
        println!(
            "workload {} seed {} trace {}:",
            args.workload, args.seed, args.trace as u8
        );
        for m in &self.metrics {
            let unit = END_TO_END
                .iter()
                .chain(&INFORMATIONAL)
                .chain(&PER_LAYER)
                .find(|(n, _)| *n == m.name)
                .map_or("", |u| u.1);
            println!(
                "  {:<30} {:>16.4} {:<9} n={}",
                m.name, m.value, unit, m.samples
            );
        }
        if !skipped.is_empty() {
            println!(
                "  not measured on this workload, reported as 0: {}",
                skipped.join(" ")
            );
        }
        for e in &self.errors {
            println!("ERROR: {e}");
        }
        let correct = self.errors.is_empty() && self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        correct
    }
}

/// Host facts recorded with every result: the host's cores, the cores the
/// run may use, the CPU model and the commit (or source digest) the run
/// measured. `run.py` passes in the commit and the host's core count, since
/// it restricts the run to one core.
pub fn print_host(args: &Args) {
    let usable = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nproc = std::env::var("PERFBENCH_NPROC").unwrap_or_else(|_| usable.to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    println!(
        "host: nproc={nproc} cores_used={usable} cpu=\"{cpu}\" commit={commit} workload={} seed={} \
         seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
