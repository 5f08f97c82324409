//! Fingerprint extraction throughput: the pre-engine framework path
//! (copy the window into an owned `Vec`, clone-and-relabel every
//! observation, then run [`FingerprintExtractor::extract`]) against the
//! reusable [`FingerprintEngine`] re-predicting the window in place, on the
//! 20-feature / 100-observation window the engine's parity tests use.
//!
//! The two paths are timed in short interleaved rounds rather than one
//! long block each: clock-frequency drift and background scheduling noise
//! then hit both paths almost equally instead of biasing whichever path
//! happened to run during the quiet stretch.
//!
//! A third interleaved round times the engine with the observability
//! clock attached (per-source span timing on), so the cost of
//! instrumentation is measured against the disabled default in the same
//! noise environment. With no clock attached (the `NullRecorder`
//! default) the obs layer costs one branch per extraction.
//!
//! A final round times steady-state *streaming* extraction — push one frame
//! into a ring window, then fingerprint its active view — which is the
//! framework's per-extraction shape and what the CI perf gate regresses:
//! `--out PATH` records the baseline, `--check PATH` fails (exit 1) when the
//! engine or the streaming path drops more than 20% below it, and
//! `--assert-zero-alloc` (requires the `alloc-count` feature) fails when the
//! streaming steady state allocates at all, or when a repository-scan step
//! (push one frame, `scan_static`, then `extract` with that scan under two
//! stored trees) does.
//!
//! Usage: `extraction_throughput [--secs S] [--d D] [--window W] [--reps R]
//! [--jsonl PATH] [--out PATH] [--check PATH] [--min-ratio F]
//! [--assert-zero-alloc]` (defaults: 0.25 s per round, 8 rounds per path,
//! d = 20, w = 100).

use std::sync::Arc;

use ficsum_bench::harness::{synthetic_window, time_throughput, Options, Throughput};
use ficsum_bench::jsonl_out::JsonlReporter;
use ficsum_classifiers::{Classifier, HoeffdingTree};
use ficsum_meta::{FingerprintEngine, FingerprintExtractor, StaticScan};
use ficsum_obs::MonotonicClock;
use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
use ficsum_stream::{FrameWindows, LabeledObservation};

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: ficsum_bench::alloc_count::CountingAllocator =
    ficsum_bench::alloc_count::CountingAllocator;

fn interleaved(
    rounds: usize,
    secs: f64,
    units: u64,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Throughput, Throughput) {
    let mut acc_a = Throughput { iterations: 0, seconds: 0.0, units_per_iter: units };
    let mut acc_b = Throughput { iterations: 0, seconds: 0.0, units_per_iter: units };
    for _ in 0..rounds {
        let ra = time_throughput(secs, units, &mut a);
        let rb = time_throughput(secs, units, &mut b);
        acc_a.iterations += ra.iterations;
        acc_a.seconds += ra.seconds;
        acc_b.iterations += rb.iterations;
        acc_b.seconds += rb.seconds;
    }
    (acc_a, acc_b)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut secs = 0.25f64;
    let mut d = 20usize;
    let mut w = 100usize;
    let mut reps = 8usize;
    let mut jsonl: Option<String> = None;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut min_ratio = 0.8f64;
    let mut assert_zero_alloc = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--jsonl" => {
                jsonl = Some(args[i + 1].clone());
                i += 1;
            }
            "--out" => {
                out = Some(args[i + 1].clone());
                i += 1;
            }
            "--check" => {
                check = Some(args[i + 1].clone());
                i += 1;
            }
            "--min-ratio" => {
                min_ratio = args[i + 1].parse().expect("--min-ratio requires a number");
                i += 1;
            }
            "--assert-zero-alloc" => assert_zero_alloc = true,
            "--secs" => {
                secs = args[i + 1].parse().expect("--secs requires a number");
                i += 1;
            }
            "--d" => {
                d = args[i + 1].parse().expect("--d requires a number");
                i += 1;
            }
            "--window" => {
                w = args[i + 1].parse().expect("--window requires a number");
                i += 1;
            }
            "--reps" => {
                reps = args[i + 1].parse().expect("--reps requires a number");
                i += 1;
            }
            other => panic!("unknown option {other}"),
        }
        i += 1;
    }

    let window = synthetic_window(w, d, 42);
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let mut tree = HoeffdingTree::new(d, 2);
    // A second concept's tree, for the repository-scan round below.
    let mut other_tree = HoeffdingTree::new(d, 2);
    for _ in 0..2000 {
        let x: Vec<f64> = (0..d).map(|_| rng.random()).collect();
        tree.train(&x, (x[0] > 0.5) as usize);
        other_tree.train(&x, (x[1] > 0.5) as usize);
    }

    let extractor = FingerprintExtractor::full(d);
    let mut engine = FingerprintEngine::new(extractor.clone());
    let mut timed_engine = FingerprintEngine::new(extractor.clone());
    timed_engine.set_clock(Some(Arc::new(MonotonicClock::new())));

    // Parity first: a benchmark comparing two paths is only meaningful if
    // they compute the same thing.
    let relabel = |win: &[LabeledObservation], clf: &HoeffdingTree| -> Vec<LabeledObservation> {
        win.iter()
            .map(|o| o.observation.clone().labeled(clf.predict(o.features())))
            .collect()
    };
    // Each engine call returns a fresh vector, as the legacy path does.
    let extract = |engine: &mut FingerprintEngine| {
        let mut fp = Vec::new();
        engine.extract(&window[..], &tree, None, &mut fp);
        fp
    };
    let legacy_fp = extractor.extract(&relabel(&window, &tree), Some(&tree));
    assert_eq!(legacy_fp, extract(&mut engine), "engine must be bit-identical to the legacy path");

    println!(
        "extraction throughput: d = {d}, window = {w} observations, \
         {reps} interleaved rounds x {secs:.2}s per path"
    );
    println!("{:<28} {:>14} {:>14}", "path", "obs/sec", "ms/window");

    let (legacy, fast) = interleaved(
        reps,
        secs,
        w as u64,
        || {
            let owned: Vec<LabeledObservation> = window.to_vec();
            let relabeled = relabel(&owned, &tree);
            std::hint::black_box(extractor.extract(&relabeled, Some(&tree)));
        },
        || {
            std::hint::black_box(extract(&mut engine));
        },
    );
    println!(
        "{:<28} {:>14.0} {:>14.3}",
        "legacy (clone + relabel)",
        legacy.units_per_sec(),
        legacy.secs_per_iter() * 1e3
    );
    println!(
        "{:<28} {:>14.0} {:>14.3}",
        "engine (in place)",
        fast.units_per_sec(),
        fast.secs_per_iter() * 1e3
    );

    // Instrumentation cost: the same engine path with the obs clock
    // attached, interleaved against the disabled default so both see the
    // same scheduling noise. The disabled path is what every run without
    // a recorder (the `NullRecorder` default) pays.
    let (plain, timed) = interleaved(
        reps,
        secs,
        w as u64,
        || {
            std::hint::black_box(extract(&mut engine));
        },
        || {
            std::hint::black_box(extract(&mut timed_engine));
        },
    );
    println!(
        "{:<28} {:>14.0} {:>14.3}",
        "engine (timing enabled)",
        timed.units_per_sec(),
        timed.secs_per_iter() * 1e3
    );

    let speedup = fast.units_per_sec() / legacy.units_per_sec();
    println!("speedup: {speedup:.2}x");
    let overhead_pct = 100.0 * (plain.units_per_sec() / timed.units_per_sec() - 1.0);
    println!(
        "obs timing overhead: {overhead_pct:.2}% (clock attached vs NullRecorder default)"
    );

    // Streaming steady state: each iteration pushes one frame into a ring
    // window and fingerprints its active view — the framework's
    // per-extraction shape.
    let tape = synthetic_window(w * 4, d, 9);
    let mut fw = FrameWindows::new(w, 0, d);
    for o in tape.iter().take(w) {
        fw.push(o.features(), o.label());
    }
    let mut fp = Vec::new();
    let mut next = 0usize;
    let mut stream_step = || {
        let o = &tape[next % tape.len()];
        next += 1;
        fw.push(o.features(), o.label());
        engine.extract(&fw.a_view(), &tree, None, &mut fp);
        std::hint::black_box(&fp);
    };
    let stream_batch = time_throughput(secs * reps as f64, w as u64, &mut stream_step);
    println!(
        "{:<28} {:>14.0} {:>14.3}",
        "stream (ring view)",
        stream_batch.units_per_sec(),
        stream_batch.secs_per_iter() * 1e3
    );

    if assert_zero_alloc {
        if !cfg!(feature = "alloc-count") {
            eprintln!(
                "--assert-zero-alloc needs the alloc-count feature \
                 (cargo run --features alloc-count ...)"
            );
            std::process::exit(1);
        }
        // Warm the scratch buffers, then demand a fully allocation-free
        // steady state: each step must stay inside reused capacity.
        let assert_steady = |what: &str, step: &mut dyn FnMut()| {
            let iters = 256usize;
            for _ in 0..64 {
                step();
            }
            let a0 = alloc_sample();
            for _ in 0..iters {
                step();
            }
            let allocs = alloc_sample() - a0;
            println!(
                "zero-alloc assertion ({what}): {allocs} allocations over {iters} steady-state steps"
            );
            if allocs != 0 {
                eprintln!(
                    "ALLOC REGRESSION: steady-state {what} allocated {allocs} times \
                     over {iters} steps (expected 0)"
                );
                std::process::exit(1);
            }
        };
        assert_steady("streaming extraction", &mut stream_step);
        // The repository sweep's shape: push one frame, scan the window's
        // classifier-independent sources once, then fingerprint it under
        // each stored tree.
        let mut scan = StaticScan::new();
        let mut scan_step = || {
            let o = &tape[next % tape.len()];
            next += 1;
            fw.push(o.features(), o.label());
            let view = fw.a_view();
            engine.scan_static(&view, &mut scan);
            for stored in [&tree, &other_tree] {
                engine.extract(&view, stored, Some(&scan), &mut fp);
                std::hint::black_box(&fp);
            }
        };
        assert_steady("repository scan", &mut scan_step);
    }

    let line = format!(
        "{{\"bench\":\"extraction_throughput\",\"d\":{d},\"window\":{w},\
         \"legacy_obs_per_sec\":{:.1},\"engine_obs_per_sec\":{:.1},\
         \"stream_batch_obs_per_sec\":{:.1}}}",
        legacy.units_per_sec(),
        fast.units_per_sec(),
        stream_batch.units_per_sec(),
    );
    if let Some(path) = &out {
        std::fs::write(path, format!("{line}\n")).unwrap_or_else(|e| panic!("--out {path}: {e}"));
        println!("wrote {path}");
    }
    if let Some(path) = &check {
        let baseline =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check {path}: {e}"));
        let mut failed = false;
        for (field, current) in [
            ("engine_obs_per_sec", fast.units_per_sec()),
            ("stream_batch_obs_per_sec", stream_batch.units_per_sec()),
        ] {
            let base = json_field(&baseline, field)
                .unwrap_or_else(|| panic!("--check {path}: no {field} field"));
            let ratio = current / base;
            println!(
                "perf check: {field} {current:.0} vs baseline {base:.0} \
                 (ratio {ratio:.2}, floor {min_ratio:.2})"
            );
            if ratio < min_ratio {
                eprintln!("PERF REGRESSION: {field} ratio {ratio:.2} below {min_ratio:.2}");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    if jsonl.is_some() {
        let opts = Options { seeds: 0, quick: false, only: None, jsonl };
        let mut rep = JsonlReporter::from_options("extraction_throughput", &opts)
            .expect("--jsonl was given");
        rep.record_throughput("legacy", &legacy);
        rep.record_throughput("engine", &fast);
        rep.record_throughput("engine_untimed", &plain);
        rep.record_throughput("engine_timed", &timed);
        rep.record_throughput("stream_batch", &stream_batch);
        rep.finish();
    }
}

#[cfg(feature = "alloc-count")]
fn alloc_sample() -> u64 {
    ficsum_bench::alloc_count::allocations()
}

#[cfg(not(feature = "alloc-count"))]
fn alloc_sample() -> u64 {
    0
}

/// Pulls a numeric field out of a single-object JSON line without a JSON
/// dependency (the file is machine-written by this binary).
fn json_field(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let at = json.find(&key)? + key.len();
    let rest = &json[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}
