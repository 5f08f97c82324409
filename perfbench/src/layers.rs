//! Standalone pipeline passes and the per-layer measurements taken from
//! them: stage totals from the public `InMemoryRecorder`, per-source
//! extraction time from `FingerprintEngine::source_timings`, allocation
//! counts, and standalone timings of the `meta` kernels and the
//! `classifiers` learner on windows cut from the workload's own tape.

use std::hint::black_box;
use std::time::Instant;

use ficsum_bench::alloc_count::allocations;
use ficsum_classifiers::{Classifier, HoeffdingTree};
use ficsum_core::{Ficsum, Variant};
use ficsum_meta::{
    autocorrelation, imf_entropies_scratch, lagged_mutual_information_scratch,
    partial_autocorrelation, EmdScratch, MiScratch,
};
use ficsum_obs::{InMemoryRecorder, Stage};
use ficsum_stream::Observation;

use crate::quality::digest;
use crate::report::Outcome;
use crate::stats::{median, micros};
use crate::trace::{SpanId, Tracer};

/// Sources whose sequences depend on the classifier (reprediction).
const CLASSIFIER_SOURCES: [&str; 3] = ["l", "err", "errdist"];

/// The window length the kernels are timed on: `FicsumConfig::default()`.
const KERNEL_WINDOW: usize = 75;

/// One standalone pipeline's run over a tape.
#[derive(Debug, Default)]
pub struct Pass {
    pub digests: Vec<u64>,
    /// Per-step `Ficsum::process` time, µs, in step order.
    pub step_us: Vec<f64>,
    /// Wall time of the whole pass, seconds.
    pub seconds: f64,
    /// Allocation calls during `process` after warm-up, split by whether
    /// the step detected a drift. The counter is process-wide, so the
    /// counts mean something only for a pass that ran alone.
    pub allocs: AllocCounts,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct AllocCounts {
    steady_steps: u64,
    steady_allocs: u64,
    drift_steps: u64,
    drift_allocs: u64,
}

/// Runs `tape` through `system` step by step. With a traced `tracer`, a
/// fresh `InMemoryRecorder` is attached first and the stage totals and
/// source timings are folded into `layers`.
pub fn pass(
    mut system: Ficsum,
    tape: &[Observation],
    tracer: &mut Tracer,
    parent: SpanId,
    layers: &mut LayerTotals,
) -> Pass {
    let traced = tracer.enabled();
    if traced {
        system.attach_recorder(Box::new(InMemoryRecorder::new()));
    }
    let warmup = 2_000.min(tape.len() / 4);
    let mut out = Pass {
        digests: Vec::with_capacity(tape.len()),
        step_us: Vec::with_capacity(tape.len()),
        ..Pass::default()
    };
    let start = Instant::now();
    for (i, o) in tape.iter().enumerate() {
        let a0 = allocations();
        let t0 = Instant::now();
        let r = system.process(&o.features, o.label);
        let t1 = Instant::now();
        let allocs = allocations() - a0;
        if i >= warmup {
            let a = &mut out.allocs;
            if r.drift {
                a.drift_steps += 1;
                a.drift_allocs += allocs;
            } else {
                a.steady_steps += 1;
                a.steady_allocs += allocs;
            }
        }
        tracer.record("process", parent, i as u64, t0, t1);
        out.step_us.push(micros(t1 - t0));
        out.digests
            .push(digest(r.prediction, r.drift, r.active_concept as u64));
    }
    out.seconds = start.elapsed().as_secs_f64();
    if traced {
        layers.add_pipeline(&system, out.step_us.iter().sum());
    }
    out
}

/// Per-layer totals summed over every traced pass of a run.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pipelines: u64,
    process_us: f64,
    extract_calls: u64,
    extract_ns: u64,
    similarity_ns: u64,
    drift_check_ns: u64,
    reassess_calls: u64,
    reassess_ns: u64,
    feature_ns: u64,
    classifier_ns: u64,
    repository_size: u64,
    allocs: AllocCounts,
}

impl LayerTotals {
    /// Adds the allocation counts of an untraced pass that ran alone (an
    /// attached recorder allocates for its own events).
    pub fn add_allocs(&mut self, pass: &Pass) {
        let (a, b) = (&mut self.allocs, pass.allocs);
        a.steady_steps += b.steady_steps;
        a.steady_allocs += b.steady_allocs;
        a.drift_steps += b.drift_steps;
        a.drift_allocs += b.drift_allocs;
    }

    fn add_pipeline(&mut self, system: &Ficsum, process_us: f64) {
        let rec = system
            .recorder()
            .as_any()
            .and_then(|a| a.downcast_ref::<InMemoryRecorder>())
            .expect("traced passes attach an InMemoryRecorder");
        let stage = |s: Stage| {
            rec.stage_histogram(s)
                .map_or((0, 0), |h| (h.count(), h.sum_nanos()))
        };
        let (extract_calls, extract_ns) = stage(Stage::Extract);
        let (reassess_calls, reassess_ns) = stage(Stage::RepositoryReassess);
        self.pipelines += 1;
        self.process_us += process_us;
        self.extract_calls += extract_calls;
        self.extract_ns += extract_ns;
        self.reassess_calls += reassess_calls;
        self.reassess_ns += reassess_ns;
        self.similarity_ns += stage(Stage::Similarity).1;
        self.drift_check_ns += stage(Stage::DriftCheck).1;
        for (source, nanos) in system.engine().source_timings() {
            if CLASSIFIER_SOURCES.contains(&source.as_str()) {
                self.classifier_ns += nanos;
            } else {
                self.feature_ns += nanos;
            }
        }
        self.repository_size += system.repository().len() as u64;
    }

    /// Adds the `meta`, `core`, `drift.check` and `alloc` metrics.
    pub fn report(&self, out: &mut Outcome) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let n = self.pipelines;
        out.add("meta.extract.calls", self.extract_calls as f64, n);
        out.add(
            "meta.extract.busy_ms",
            ms(self.extract_ns),
            self.extract_calls,
        );
        out.add(
            "meta.extract.mean_us",
            self.extract_ns as f64 / 1e3 / self.extract_calls.max(1) as f64,
            self.extract_calls,
        );
        out.add(
            "meta.src.feature_ms",
            ms(self.feature_ns),
            self.extract_calls,
        );
        out.add(
            "meta.src.classifier_ms",
            ms(self.classifier_ns),
            self.extract_calls,
        );
        out.add("core.reassess.calls", self.reassess_calls as f64, n);
        out.add(
            "core.reassess.busy_ms",
            ms(self.reassess_ns),
            self.reassess_calls,
        );
        out.add(
            "core.repository.size",
            self.repository_size as f64 / n.max(1) as f64,
            n,
        );
        out.add(
            "core.similarity.busy_ms",
            ms(self.similarity_ns),
            self.extract_calls,
        );
        let stages_ns =
            self.extract_ns + self.reassess_ns + self.similarity_ns + self.drift_check_ns;
        out.add("core.residual_ms", self.process_us / 1e3 - ms(stages_ns), n);
        out.add("drift.check.busy_ms", ms(self.drift_check_ns), n);
        let a = &self.allocs;
        out.add(
            "alloc.steady_per_step",
            a.steady_allocs as f64 / a.steady_steps.max(1) as f64,
            a.steady_steps,
        );
        out.add(
            "alloc.drift_per_step",
            a.drift_allocs as f64 / a.drift_steps.max(1) as f64,
            a.drift_steps,
        );
    }
}

/// Times the public `meta` kernels on w=75 windows of the tape's feature
/// sequences, and a standalone `HoeffdingTree` predict+train over the
/// tape. Each figure is the median over rounds of the mean per-call time.
pub fn kernels(tape: &[Observation], n_classes: usize, tracer: &mut Tracer, out: &mut Outcome) {
    let dims = tape[0].features.len();
    let extractor = Variant::Full.extractor(dims);
    let windows: Vec<Vec<f64>> = (0..dims.min(8))
        .flat_map(|j| {
            tape.chunks_exact(KERNEL_WINDOW)
                .take(32)
                .map(move |w| w.iter().map(|o| o.features[j]).collect::<Vec<f64>>())
        })
        .collect();
    let calls = windows.len() as u64;
    let mut emd = EmdScratch::new();
    let mut mi = MiScratch::new();
    let mut time = |name: &'static str, f: &mut dyn FnMut(&[f64]) -> f64| {
        let rounds: Vec<f64> = (0..5)
            .map(|round| {
                let t0 = Instant::now();
                for w in &windows {
                    black_box(f(black_box(w)));
                }
                let t1 = Instant::now();
                tracer.record(name, 0, round, t0, t1);
                micros(t1 - t0) / calls as f64
            })
            .collect();
        median(&rounds)
    };
    let emd_us = time("kernel.emd", &mut |w| {
        let (a, b) = imf_entropies_scratch(w, extractor.emd_config(), &mut emd);
        a + b
    });
    let mi_us = time("kernel.mi", &mut |w| {
        lagged_mutual_information_scratch(w, 1, extractor.mi_bins(), &mut mi)
    });
    let acf_us = time("kernel.acf", &mut |w| {
        autocorrelation(w, 1)
            + autocorrelation(w, 2)
            + partial_autocorrelation(w, 1)
            + partial_autocorrelation(w, 2)
    });
    out.add("meta.kernel.emd_us", emd_us, calls * 5);
    out.add("meta.kernel.mi_us", mi_us, calls * 5);
    out.add("meta.kernel.acf_us", acf_us, calls * 5);

    let steps = tape.len().min(10_000);
    let rounds: Vec<f64> = (0..3)
        .map(|round| {
            let mut tree = HoeffdingTree::new(dims, n_classes);
            let t0 = Instant::now();
            for o in &tape[..steps] {
                black_box(tree.predict(black_box(&o.features)));
                tree.train(&o.features, o.label);
            }
            let t1 = Instant::now();
            tracer.record("classifiers.predict_train", 0, round, t0, t1);
            micros(t1 - t0) / steps as f64
        })
        .collect();
    out.add(
        "classifiers.predict_train_us",
        median(&rounds),
        steps as u64 * 3,
    );
}
