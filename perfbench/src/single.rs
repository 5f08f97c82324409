//! The single-stream workload: one `Ficsum` pipeline per tape, driven by
//! `process` calls.
//!
//! `stagger` — d=3, 3 contexts × 9 recurrences, drift in p(y|X). A narrow
//! stream where the classifier-dependent sources and repository
//! reassessment carry much of the cost: reprediction and reassessment work
//! shows here.
//!
//! A run takes independent tapes one after another, each through a fresh
//! pipeline, until `--seconds` have passed and at least the scored tapes
//! are done. Detection quality, the latency tail and peak memory come from
//! the scored tapes only, so they rest on the same steps for a seed however
//! fast the host is; throughput is measured over every tape of the run. A prefix of the first tape is then replayed
//! in a fresh pipeline, and its outcomes must match.

use std::time::{Duration, Instant};

use ficsum_core::FicsumBuilder;

use crate::layers::{self, LayerTotals};
use crate::quality::{mismatches, Matching, Quality};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, mix, Samples};
use crate::tapes::{self, Tape};
use crate::trace::Tracer;
use crate::Args;

/// A single-stream workload.
///
/// Behaviour varies from one generated stream to the next (drift count,
/// repository size, tree shape), and the shared host's speed drifts by a
/// fifth over minutes, so a run takes many independent tapes over its whole
/// length and reports the median over tapes of the per-tape throughput.
/// The tail is rare (repository reassessment), so it is one quantile over
/// every step of the scored tapes: per tape it rests on too few samples
/// and varies with each tape's repository.
pub struct Spec {
    dataset: &'static str,
    /// Steps per tape.
    steps: usize,
    /// Seconds one untraced tape takes on the reference host; sizes the
    /// number of scored tapes from `--seconds`.
    nominal_tape_seconds: f64,
    /// Steps of the first tape replayed for the determinism check.
    replay_steps: usize,
    matching: Matching,
}

/// 7.5k steps is 6.75 segments of 1111: each of the 3 contexts recurs
/// about twice. Short tapes make detection quality vary far less from one
/// seed to the next than long ones: over ten seeds, the IQR of recall was
/// 0.03–0.08 of the median with twenty 7.5k-step tapes, against 0.08–0.24
/// with ten 15k-step tapes holding as many concept changes.
pub const STAGGER: Spec = Spec {
    dataset: "STAGGER",
    steps: 7_500,
    nominal_tape_seconds: 0.5,
    replay_steps: 5_000,
    matching: Matching {
        grace: 500,
        window: 1_000,
    },
};

/// Share of `--seconds` the scored tapes take on the reference host. A
/// host half as fast still finishes them inside `--seconds`.
const SCORED_SHARE: f64 = 0.6;

fn build(tape: &Tape) -> ficsum_core::Ficsum {
    FicsumBuilder::new(tape.dims, tape.classes)
        .build()
        .expect("the default configuration is valid")
}

/// The highest of p99.9 and p99 that leaves at least a hundred of `n`
/// samples beyond it: with fewer, the tail moved by a fifth from one run
/// to the next.
fn tail_quantile(n: u64) -> f64 {
    if n >= 100_000 {
        0.999
    } else {
        0.99
    }
}

/// Set-up trials taken before each tape.
const SETUP_TRIALS: usize = 21;

/// Set-up trials: the pipeline built and its first observation
/// processed, in seconds. Set-up takes a few microseconds and its time
/// drifts over a run on the shared host, so a run takes trials before
/// every tape and reports their median.
fn setup_trials(tape: &Tape) -> Vec<f64> {
    (0..SETUP_TRIALS)
        .map(|_| {
            let t0 = Instant::now();
            let mut system = build(tape);
            let o = &tape.obs[0];
            std::hint::black_box(system.process(&o.features, o.label));
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // A traced run passes every tape twice (untraced, then traced).
    let per_tape = spec.nominal_tape_seconds * if args.trace { 2.0 } else { 1.0 };
    let scored = ((args.seconds as f64 * SCORED_SHARE / per_tape).round() as usize).max(1);
    let mut out = Outcome {
        not_applicable: &["serve.", "net."],
        ..Outcome::default()
    };

    let mut tracer = Tracer::new(Instant::now(), args.trace);
    let mut off = Tracer::off();
    let mut layers = LayerTotals::default();
    let mut unused = LayerTotals::default();
    let mut quality = Quality::default();
    let mut setup = Vec::new();
    let (mut rates, mut traced_rates, mut p50) = (Vec::new(), Vec::new(), Vec::new());
    let mut scored_steps = Samples::default();
    let mut first: Option<(Tape, Vec<u64>)> = None;
    let mut tapes = 0;
    while tapes < scored || Instant::now() < deadline {
        let tape = tapes::tape(spec.dataset, mix(args.seed, tapes as u64), spec.steps);
        setup.extend(setup_trials(&tape));
        let pass = layers::pass(build(&tape), &tape.obs, &mut off, 0, &mut unused);
        rates.push(pass.digests.len() as f64 / pass.seconds);
        let mut step_us = Samples::default();
        step_us.extend(&pass.step_us);
        p50.push(step_us.quantile(0.5));
        if tapes < scored {
            scored_steps.extend(&pass.step_us);
            quality.score(&tape.obs, &pass.digests, spec.matching);
        }
        if args.trace {
            // The traced pass follows the untraced one, so the pair sees
            // the same host conditions.
            let span = tracer.open("pass", 0, tapes as u64);
            let traced = layers::pass(build(&tape), &tape.obs, &mut tracer, span, &mut layers);
            tracer.close(span);
            traced_rates.push(traced.digests.len() as f64 / traced.seconds);
            let bad = mismatches(&traced.digests, &pass.digests);
            if bad > 0 {
                out.fail(
                    bad,
                    format!("{bad} outcomes differ between the traced and untraced passes"),
                );
            }
            layers.add_allocs(&pass);
        }
        if first.is_none() {
            first = Some((tape, pass.digests));
        }
        tapes += 1;
    }

    let (tape0, digests0) = first.expect("a run takes at least one tape");
    let replay_tape = &tape0.obs[..spec.replay_steps.min(tape0.obs.len())];
    let replay = layers::pass(build(&tape0), replay_tape, &mut off, 0, &mut unused);
    let bad = mismatches(&replay.digests, &digests0[..replay.digests.len()]);
    if bad > 0 {
        out.fail(
            bad,
            format!("{bad} outcomes differ when the first tape is replayed"),
        );
    }

    let tail_q = tail_quantile(scored_steps.len());
    let steps = (tapes * tape0.obs.len()) as u64;
    out.attempted = steps + replay.digests.len() as u64;
    let sps = median(&rates);
    out.add("steps_per_sec", sps, steps);
    out.add("latency_p50_us", median(&p50), steps);
    out.add(
        "latency_tail_us",
        scored_steps.quantile(tail_q),
        scored_steps.len(),
    );
    quality.report(&mut out);
    out.add("setup_s", median(&setup), setup.len() as u64);
    out.add("peak_rss_mb", peak_rss_mb(), 1);
    out.notes.push(format!(
        "{}: {tapes} tapes x {} steps (d={}), quality scored on the first {scored}; latency is per \
         Ficsum::process call: the median over tapes of each tape's p50, and p{} over every step \
         of the scored tapes",
        spec.dataset,
        tape0.obs.len(),
        tape0.dims,
        tail_q * 100.0
    ));

    if args.trace {
        out.add(
            "obs.trace_overhead_frac",
            1.0 - median(&traced_rates) / sps,
            steps,
        );
        layers.report(&mut out);
        layers::kernels(&tape0.obs, tape0.classes, &mut tracer, &mut out);
        tracer.write(args, &mut out);
    }
    out
}
