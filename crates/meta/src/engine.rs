//! The fingerprint engine: allocation-free, optionally parallel
//! meta-feature extraction.
//!
//! [`FingerprintExtractor::extract`] is a faithful but naive transcription
//! of the paper: every call materialises one `Vec` per behaviour source,
//! re-derives the four moment statistics with separate passes, and lets the
//! EMD sifting loop allocate freely. That is fine for a one-off fingerprint
//! but FiCSUM fingerprints *constantly* — every fingerprint gap, every
//! repository comparison, every recheck.
//!
//! [`FingerprintEngine`] wraps an extractor and reuses all working memory
//! across calls:
//!
//! * **Cached source-sequence pass** — the window is materialised once into
//!   per-source scratch buffers shared by every meta-function; repeated
//!   extraction allocates nothing after warm-up (EMD, MI histograms and
//!   spline fitting included).
//! * **Fused moments** — mean, standard deviation, skew and kurtosis come
//!   from a single two-pass sweep instead of nine, with bit-identical
//!   results to the batch functions.
//! * **One classifier pass** — re-prediction and the feature-importance
//!   tail ask the classifier about each row once, through
//!   [`Classifier::predict_contributions_with`], summing importance in row
//!   order as before.
//! * **Shared static scan** — a repository sweep scores one window under
//!   many classifiers; the classifier-independent sources are evaluated
//!   once into a [`StaticScan`] and reused for every classifier.
//! * **Opt-in parallelism** — [`FingerprintEngine::set_threads`] fans the
//!   `d + 4` behaviour sources across a [`std::thread::scope`] worker pool.
//!   Each source's computation is independent and writes a disjoint slice
//!   of the output, so parallel extraction is bit-identical to sequential.
//!
//! Every entry point reads its window through [`FrameSource`] — ring views,
//! owned frame blocks and observation slices — and produces the same bits
//! as [`FingerprintExtractor::extract`] on the same observations. The
//! legacy extractor path is kept untouched: it is the reference the engine
//! is tested against, and the baseline for the throughput comparison in
//! `ficsum-bench`.

use std::sync::Arc;

use ficsum_classifiers::Classifier;
use ficsum_obs::Clock;
use ficsum_stream::{FrameSource, LabeledObservation};

use crate::autocorr::{autocorrelation, partial_autocorrelation};
use crate::emd::{imf_entropies_scratch, EmdConfig, EmdScratch};
use crate::extractor::{FingerprintExtractor, FingerprintSchema};
use crate::functions::{turning_point_rate, MetaFunction};
use crate::mutual_info::{lagged_mutual_information_scratch, MiScratch};
use crate::sources::{behaviour_sources, SourceKind};

/// One work item of the parallel source sweep: the source sequence, the
/// disjoint output chunk it fills, and its per-source timing slot.
type SourceTask<'a> = (&'a [f64], &'a mut [f64], &'a mut u64);

/// Per-worker scratch: everything one behaviour source needs.
#[derive(Debug, Clone, Default)]
struct SourceScratch {
    emd: EmdScratch,
    mi: MiScratch,
}

/// The classifier-independent half of one window's repredicted extraction.
///
/// A repository sweep scores *one* window under *many* classifiers. The
/// feature and label behaviour sources do not depend on the classifier, yet
/// the plain entry points re-evaluate their meta-functions (EMD sifting,
/// mutual information, autocorrelation, the moment sweep) once per
/// classifier. [`FingerprintEngine::static_scan_frames`] evaluates those
/// sources once into this cache; [`FingerprintEngine::extract_with_scan`]
/// then copies the cached dimensions and computes only the
/// prediction-dependent sources and the importance tail per classifier.
///
/// Bit-exactness: the cached dimensions are produced by the very same
/// per-source evaluation on the very same cached sequences as the plain
/// path, and copying an `f64` preserves its bits. Validity is the caller's
/// contract — a scan must be rebuilt whenever the window contents change.
/// The cache is `Sync` (plain data), so one scan can feed parallel workers.
#[derive(Debug, Clone, Default)]
pub struct StaticScan {
    /// Evaluated function blocks for the whole source section, aligned with
    /// the engine's source order; only the chunks of classifier-independent
    /// sources hold meaningful values.
    vals: Vec<f64>,
    ready: bool,
}

impl StaticScan {
    /// An empty (not yet scanned) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the scan; the next use requires a rebuild.
    pub fn invalidate(&mut self) {
        self.ready = false;
    }
}

/// Reusable, optionally parallel fingerprint extraction.
///
/// Wraps a [`FingerprintExtractor`] configuration and produces the same
/// fingerprints through [`FingerprintEngine::extract`] — allocation-free
/// after warm-up, and bit-identical to the legacy path. See the module
/// docs for the full design.
#[derive(Debug, Clone)]
pub struct FingerprintEngine {
    extractor: FingerprintExtractor,
    /// Selected behaviour sources in schema order (empty when the extractor
    /// is importance-only).
    kinds: Vec<SourceKind>,
    /// Worker threads for the per-source fan-out; 1 = sequential.
    threads: usize,
    /// One cached sequence buffer per selected source.
    seqs: Vec<Vec<f64>>,
    /// Re-predicted labels for [`FingerprintEngine::extract_repredicted`].
    preds: Vec<usize>,
    /// Probability scratch for allocation-free classifier calls.
    proba: Vec<f64>,
    /// Contribution scratch for the feature-importance tail.
    contrib: Vec<f64>,
    workers: Vec<SourceScratch>,
    /// Span clock for per-source timing; `None` = timing off (zero cost).
    clock: Option<Arc<dyn Clock>>,
    /// Cumulative nanoseconds spent evaluating each source, aligned with
    /// `kinds`. Parallel workers write disjoint slots, so sequential and
    /// parallel attribution use identical bookkeeping.
    source_nanos: Vec<u64>,
    /// Extractions measured since the last [`FingerprintEngine::reset_timings`].
    timed_extractions: u64,
}

impl FingerprintEngine {
    /// Sequential engine around `extractor`.
    pub fn new(extractor: FingerprintExtractor) -> Self {
        let kinds = if extractor.functions().is_empty() {
            Vec::new()
        } else {
            behaviour_sources(extractor.n_features())
                .into_iter()
                .filter(|&k| extractor.sources().includes(k))
                .collect()
        };
        let n_sources = kinds.len();
        Self {
            extractor,
            kinds,
            threads: 1,
            seqs: vec![Vec::new(); n_sources],
            preds: Vec::new(),
            proba: Vec::new(),
            contrib: Vec::new(),
            workers: vec![SourceScratch::default()],
            clock: None,
            source_nanos: vec![0; n_sources],
            timed_extractions: 0,
        }
    }

    /// Builder-style thread-count override; see
    /// [`FingerprintEngine::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Sets the number of worker threads the per-source fan-out may use.
    /// `0` and `1` both mean sequential. Parallel extraction is guaranteed
    /// bit-identical to sequential: sources are computed by identical code
    /// on disjoint output slices, whichever thread runs them.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Current worker-thread setting.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables per-source extraction timing against `clock` (pass `None` to
    /// disable — the default, with zero cost on the extraction path). The
    /// clock is shared, not owned, so the framework, engine and tests can
    /// observe one coherent timeline; the parallel fan-out reads the same
    /// clock from every worker, which is why [`Clock`] is `Send + Sync`.
    pub fn set_clock(&mut self, clock: Option<Arc<dyn Clock>>) {
        self.clock = clock;
    }

    /// Whether per-source timing is active.
    pub fn timing_enabled(&self) -> bool {
        self.clock.is_some()
    }

    /// Cumulative nanoseconds spent evaluating each behaviour source since
    /// timing was enabled (or last reset), as `(source name, nanos)` in
    /// schema order. Empty when timing is off.
    pub fn source_timings(&self) -> Vec<(String, u64)> {
        if self.clock.is_none() {
            return Vec::new();
        }
        self.kinds
            .iter()
            .zip(&self.source_nanos)
            .map(|(k, &n)| (k.name(), n))
            .collect()
    }

    /// Number of extractions measured since the last reset.
    pub fn timed_extractions(&self) -> u64 {
        self.timed_extractions
    }

    /// Zeroes the per-source timing accumulators.
    pub fn reset_timings(&mut self) {
        self.source_nanos.iter_mut().for_each(|n| *n = 0);
        self.timed_extractions = 0;
    }

    /// The wrapped configuration.
    pub fn extractor(&self) -> &FingerprintExtractor {
        &self.extractor
    }

    /// The vector layout produced by extraction (same as the extractor's).
    pub fn schema(&self) -> &FingerprintSchema {
        self.extractor.schema()
    }

    /// Number of input features the engine was built for.
    pub fn n_features(&self) -> usize {
        self.extractor.n_features()
    }

    /// Drop-in equivalent of [`FingerprintExtractor::extract`]; see
    /// [`FingerprintEngine::extract_into`].
    pub fn extract(
        &mut self,
        window: &[LabeledObservation],
        classifier: Option<&dyn Classifier>,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.extract_into(window, classifier, &mut out);
        out
    }

    /// Computes the raw fingerprint of `window` into `out` (cleared first),
    /// reusing the engine's scratch buffers. Produces bit-identical values
    /// to [`FingerprintExtractor::extract`] on the same window.
    pub fn extract_into(
        &mut self,
        window: &[LabeledObservation],
        classifier: Option<&dyn Classifier>,
        out: &mut Vec<f64>,
    ) {
        self.extract_frames_into(window, classifier, out);
    }

    /// [`FingerprintEngine::extract_into`] over any [`FrameSource`] — ring
    /// views, owned frame blocks and observation slices all extract through
    /// the same code, bit-identically.
    pub fn extract_frames_into<S: FrameSource + ?Sized>(
        &mut self,
        src: &S,
        classifier: Option<&dyn Classifier>,
        out: &mut Vec<f64>,
    ) {
        self.run(src, classifier, false, out);
    }

    /// Extracts the fingerprint `window` would have under `classifier`'s
    /// *current* predictions: every observation is re-predicted and the
    /// prediction-dependent sources (predictions, errors, error distances)
    /// are built from those fresh labels. Equivalent to cloning the window,
    /// overwriting each `prediction`, and extracting — without the clone.
    pub fn extract_repredicted(
        &mut self,
        window: &[LabeledObservation],
        classifier: &dyn Classifier,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.extract_repredicted_into(window, classifier, &mut out);
        out
    }

    /// [`FingerprintEngine::extract_repredicted`] writing into `out`.
    pub fn extract_repredicted_into(
        &mut self,
        window: &[LabeledObservation],
        classifier: &dyn Classifier,
        out: &mut Vec<f64>,
    ) {
        self.extract_frames_repredicted_into(window, classifier, out);
    }

    /// [`FingerprintEngine::extract_repredicted_into`] over any
    /// [`FrameSource`].
    pub fn extract_frames_repredicted_into<S: FrameSource + ?Sized>(
        &mut self,
        src: &S,
        classifier: &dyn Classifier,
        out: &mut Vec<f64>,
    ) {
        self.run(src, Some(classifier), true, out);
    }

    /// Evaluates the classifier-independent sources of `src` into `scan`,
    /// for a sweep that scores one window under many classifiers via
    /// [`FingerprintEngine::extract_with_scan`].
    pub fn static_scan_frames<S: FrameSource + ?Sized>(&mut self, src: &S, scan: &mut StaticScan) {
        let n = src.len();
        let Self { extractor, kinds, seqs, workers, clock, source_nanos, .. } = self;
        let functions = extractor.functions();
        let nf = functions.len();
        scan.vals.clear();
        scan.vals.resize(kinds.len() * nf, 0.0);
        scan.ready = true;
        if nf == 0 || kinds.is_empty() {
            return;
        }
        let needs_emd = functions
            .iter()
            .any(|f| matches!(f, MetaFunction::ImfEntropy1 | MetaFunction::ImfEntropy2));
        let emd_cfg = *extractor.emd_config();
        let mi_bins = extractor.mi_bins();
        for (seq, &kind) in seqs.iter_mut().zip(kinds.iter()) {
            match kind {
                SourceKind::Feature(j) => {
                    seq.clear();
                    seq.extend((0..n).map(|i| src.features(i)[j]));
                }
                SourceKind::Labels => {
                    seq.clear();
                    seq.extend((0..n).map(|i| src.label(i) as f64));
                }
                _ => {}
            }
        }
        if workers.is_empty() {
            workers.push(SourceScratch::default());
        }
        let worker = &mut workers[0];
        for (i, ((seq, chunk), nano)) in
            seqs.iter().zip(scan.vals.chunks_mut(nf)).zip(source_nanos.iter_mut()).enumerate()
        {
            if !kind_is_static(kinds[i]) {
                continue;
            }
            let t0 = clock.as_deref().map(Clock::now_nanos);
            eval_source_into(seq, functions, needs_emd, &emd_cfg, mi_bins, worker, chunk);
            if let (Some(c), Some(t0)) = (clock.as_deref(), t0) {
                *nano += c.now_nanos().saturating_sub(t0);
            }
        }
    }

    /// One classifier's repredicted fingerprint of the window previously
    /// scanned into `scan`: the cached classifier-independent dimensions
    /// are copied, and only the prediction-dependent sources plus the
    /// importance tail are computed. Bit-identical to
    /// [`FingerprintEngine::extract_frames_repredicted_into`] on the same
    /// window — `src` must hold exactly the contents the scan was built
    /// from.
    pub fn extract_with_scan<S: FrameSource + ?Sized>(
        &mut self,
        src: &S,
        scan: &StaticScan,
        classifier: &dyn Classifier,
        out: &mut Vec<f64>,
    ) {
        debug_assert!(scan.ready, "extract_with_scan before static_scan");
        let n = src.len();
        out.clear();
        out.resize(self.extractor.schema().len(), 0.0);
        self.predict_rows(src, classifier, true, out);
        {
            let Self {
                extractor,
                kinds,
                seqs,
                preds,
                workers,
                clock,
                source_nanos,
                timed_extractions,
                ..
            } = self;
            let functions = extractor.functions();
            let nf = functions.len();
            let src_len = kinds.len() * nf;
            if nf > 0 && !kinds.is_empty() {
                debug_assert_eq!(scan.vals.len(), src_len, "scan built for another schema");
                let needs_emd = functions
                    .iter()
                    .any(|f| matches!(f, MetaFunction::ImfEntropy1 | MetaFunction::ImfEntropy2));
                let emd_cfg = *extractor.emd_config();
                let mi_bins = extractor.mi_bins();
                for (seq, &kind) in seqs.iter_mut().zip(kinds.iter()) {
                    match kind {
                        SourceKind::Predictions => {
                            seq.clear();
                            seq.extend(preds.iter().map(|&v| v as f64));
                        }
                        SourceKind::Errors => {
                            seq.clear();
                            seq.extend(
                                (0..n).map(|i| if preds[i] != src.label(i) { 1.0 } else { 0.0 }),
                            );
                        }
                        SourceKind::ErrorDistances => {
                            seq.clear();
                            let mut last: Option<usize> = None;
                            for (i, &p) in preds.iter().enumerate() {
                                if p != src.label(i) {
                                    if let Some(prev) = last {
                                        seq.push((i - prev) as f64);
                                    }
                                    last = Some(i);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                if workers.is_empty() {
                    workers.push(SourceScratch::default());
                }
                let worker = &mut workers[0];
                for (i, ((seq, chunk), nano)) in seqs
                    .iter()
                    .zip(out[..src_len].chunks_mut(nf))
                    .zip(source_nanos.iter_mut())
                    .enumerate()
                {
                    if kind_is_static(kinds[i]) {
                        chunk.copy_from_slice(&scan.vals[i * nf..(i + 1) * nf]);
                        continue;
                    }
                    let t0 = clock.as_deref().map(Clock::now_nanos);
                    eval_source_into(seq, functions, needs_emd, &emd_cfg, mi_bins, worker, chunk);
                    if let (Some(c), Some(t0)) = (clock.as_deref(), t0) {
                        *nano += c.now_nanos().saturating_sub(t0);
                    }
                }
                if *timed_extractions < u64::MAX {
                    *timed_extractions += clock.is_some() as u64;
                }
            }
        }
        debug_assert_eq!(out.len(), self.extractor.schema().len());
    }

    /// Shared extraction core over any frame source.
    fn run<S: FrameSource + ?Sized>(
        &mut self,
        src: &S,
        classifier: Option<&dyn Classifier>,
        repredict: bool,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(self.extractor.schema().len(), 0.0);
        match classifier {
            Some(clf) => self.predict_rows(src, clf, repredict, out),
            None => assert!(!repredict, "re-predicted extraction requires a classifier"),
        }
        self.fill_sequences(src, repredict);
        let src_len = self.kinds.len() * self.extractor.functions().len();
        self.eval_sources(&mut out[..src_len]);
        debug_assert_eq!(out.len(), self.extractor.schema().len());
    }

    /// The one pass over the window's rows that asks `clf` anything: it
    /// re-predicts each row into `self.preds` when `repredict` is set, and
    /// when the schema has a feature-importance tail it sums each attributed
    /// row's absolute contributions into the tail of `out` (zeroed by the
    /// caller) in row order, then averages them. A row that is both
    /// re-predicted and attributed costs one
    /// [`Classifier::predict_contributions_with`] call.
    fn predict_rows<S: FrameSource + ?Sized>(
        &mut self,
        src: &S,
        clf: &dyn Classifier,
        repredict: bool,
        out: &mut [f64],
    ) {
        let n = src.len();
        let Self { extractor, preds, proba, contrib, .. } = self;
        preds.clear();
        if !extractor.includes_feature_importance() {
            if repredict {
                preds.extend((0..n).map(|i| clf.predict_with(src.features(i), proba)));
            }
            return;
        }
        let tail = out.len() - extractor.n_features();
        let importance = &mut out[tail..];
        let mut counted = 0usize;
        for i in 0..n {
            let (label, attributed) = clf.predict_contributions_with(src.features(i), contrib, proba);
            if repredict {
                preds.push(label);
            }
            if attributed {
                for (acc, c) in importance.iter_mut().zip(contrib.iter()) {
                    *acc += c.abs();
                }
                counted += 1;
            }
        }
        if counted > 0 {
            for acc in importance.iter_mut() {
                *acc /= counted as f64;
            }
        }
    }

    /// The cached source-sequence pass: materialises every selected
    /// behaviour source into its scratch buffer, optionally substituting
    /// re-predicted labels for the prediction-dependent sources.
    fn fill_sequences<S: FrameSource + ?Sized>(&mut self, src: &S, use_preds: bool) {
        let n = src.len();
        let preds = if use_preds { Some(self.preds.as_slice()) } else { None };
        for (seq, &kind) in self.seqs.iter_mut().zip(self.kinds.iter()) {
            seq.clear();
            match kind {
                SourceKind::Feature(j) => seq.extend((0..n).map(|i| src.features(i)[j])),
                SourceKind::Labels => seq.extend((0..n).map(|i| src.label(i) as f64)),
                SourceKind::Predictions => match preds {
                    Some(p) => seq.extend(p.iter().map(|&v| v as f64)),
                    None => seq.extend((0..n).map(|i| src.prediction(i) as f64)),
                },
                SourceKind::Errors => match preds {
                    Some(p) => seq.extend(
                        (0..n).map(|i| if p[i] != src.label(i) { 1.0 } else { 0.0 }),
                    ),
                    None => seq.extend(
                        (0..n).map(|i| if src.prediction(i) != src.label(i) { 1.0 } else { 0.0 }),
                    ),
                },
                SourceKind::ErrorDistances => {
                    let mut last: Option<usize> = None;
                    for i in 0..n {
                        let err = match preds {
                            Some(p) => p[i] != src.label(i),
                            None => src.prediction(i) != src.label(i),
                        };
                        if err {
                            if let Some(prev) = last {
                                seq.push((i - prev) as f64);
                            }
                            last = Some(i);
                        }
                    }
                }
            }
        }
    }

    /// Evaluates every (source, function) dimension into `out`, fanning
    /// sources across the worker pool when `threads > 1`.
    fn eval_sources(&mut self, out: &mut [f64]) {
        let functions = self.extractor.functions();
        let nf = functions.len();
        if nf == 0 || self.kinds.is_empty() {
            return;
        }
        let needs_emd = functions
            .iter()
            .any(|f| matches!(f, MetaFunction::ImfEntropy1 | MetaFunction::ImfEntropy2));
        let emd_cfg = *self.extractor.emd_config();
        let mi_bins = self.extractor.mi_bins();
        let seqs = &self.seqs;
        let clock = self.clock.clone();
        let nanos = &mut self.source_nanos;
        if self.timed_extractions < u64::MAX {
            self.timed_extractions += clock.is_some() as u64;
        }
        let n_workers = self.threads.min(self.kinds.len());
        if n_workers <= 1 {
            if self.workers.is_empty() {
                self.workers.push(SourceScratch::default());
            }
            let worker = &mut self.workers[0];
            for ((seq, chunk), nano) in seqs.iter().zip(out.chunks_mut(nf)).zip(nanos.iter_mut()) {
                let t0 = clock.as_deref().map(Clock::now_nanos);
                eval_source_into(seq, functions, needs_emd, &emd_cfg, mi_bins, worker, chunk);
                if let (Some(c), Some(t0)) = (clock.as_deref(), t0) {
                    *nano += c.now_nanos().saturating_sub(t0);
                }
            }
        } else {
            if self.workers.len() < n_workers {
                self.workers.resize_with(n_workers, SourceScratch::default);
            }
            // Round-robin the sources over the workers; each work item owns
            // a disjoint slice of `out` (and its own timing slot), so no
            // synchronisation is needed and the result cannot depend on
            // scheduling.
            let mut batches: Vec<Vec<SourceTask<'_>>> =
                (0..n_workers).map(|_| Vec::new()).collect();
            for (i, ((seq, chunk), nano)) in
                seqs.iter().zip(out.chunks_mut(nf)).zip(nanos.iter_mut()).enumerate()
            {
                batches[i % n_workers].push((seq, chunk, nano));
            }
            std::thread::scope(|scope| {
                for (worker, batch) in self.workers.iter_mut().zip(batches) {
                    let clock = clock.clone();
                    scope.spawn(move || {
                        for (seq, chunk, nano) in batch {
                            let t0 = clock.as_deref().map(Clock::now_nanos);
                            eval_source_into(
                                seq, functions, needs_emd, &emd_cfg, mi_bins, worker, chunk,
                            );
                            if let (Some(c), Some(t0)) = (clock.as_deref(), t0) {
                                *nano += c.now_nanos().saturating_sub(t0);
                            }
                        }
                    });
                }
            });
        }
    }
}

/// Whether `kind`'s behaviour sequence is independent of the classifier
/// (and therefore cacheable across a repository sweep).
fn kind_is_static(kind: SourceKind) -> bool {
    matches!(kind, SourceKind::Feature(_) | SourceKind::Labels)
}

/// Evaluates one behaviour source's function block into `out`
/// (`out.len() == functions.len()`).
///
/// The moment statistics come from a fused two-pass sweep; the remaining
/// functions run on the cached sequence with scratch-backed EMD and MI.
/// Every value is bit-identical to the corresponding
/// [`FingerprintExtractor::extract`] dimension.
fn eval_source_into(
    seq: &[f64],
    functions: &[MetaFunction],
    needs_emd: bool,
    emd_cfg: &EmdConfig,
    mi_bins: usize,
    scratch: &mut SourceScratch,
    out: &mut [f64],
) {
    let imf = needs_emd.then(|| imf_entropies_scratch(seq, emd_cfg, &mut scratch.emd));
    let n = seq.len();
    let needs_moments = functions.iter().any(|f| {
        matches!(
            f,
            MetaFunction::Mean | MetaFunction::StdDev | MetaFunction::Skew | MetaFunction::Kurtosis
        )
    });
    let mut mean_v = 0.0;
    let (mut cm2, mut cm3, mut cm4) = (0.0, 0.0, 0.0);
    if needs_moments && n > 0 {
        let nf = n as f64;
        mean_v = seq.iter().sum::<f64>() / nf;
        let (mut s2, mut s3, mut s4) = (0.0, 0.0, 0.0);
        for &x in seq {
            let d = x - mean_v;
            let d2 = d * d;
            s2 += d2;
            s3 += d2 * d;
            s4 += d2 * d2;
        }
        cm2 = s2 / nf;
        cm3 = s3 / nf;
        cm4 = s4 / nf;
    }
    for (slot, &function) in out.iter_mut().zip(functions) {
        *slot = match function {
            MetaFunction::Mean => {
                if n == 0 {
                    0.0
                } else {
                    mean_v
                }
            }
            MetaFunction::StdDev => {
                if n < 2 {
                    0.0
                } else {
                    cm2.sqrt()
                }
            }
            MetaFunction::Skew => {
                if n < 3 || cm2 <= f64::EPSILON {
                    0.0
                } else {
                    cm3 / cm2.powf(1.5)
                }
            }
            MetaFunction::Kurtosis => {
                if n < 4 || cm2 <= f64::EPSILON {
                    0.0
                } else {
                    cm4 / (cm2 * cm2) - 3.0
                }
            }
            MetaFunction::Acf1 => autocorrelation(seq, 1),
            MetaFunction::Acf2 => autocorrelation(seq, 2),
            MetaFunction::Pacf1 => partial_autocorrelation(seq, 1),
            MetaFunction::Pacf2 => partial_autocorrelation(seq, 2),
            MetaFunction::MutualInformation => {
                lagged_mutual_information_scratch(seq, 1, mi_bins, &mut scratch.mi)
            }
            MetaFunction::TurningPointRate => turning_point_rate(seq),
            MetaFunction::ImfEntropy1 => imf.map_or(0.0, |(a, _)| a),
            MetaFunction::ImfEntropy2 => imf.map_or(0.0, |(_, b)| b),
            MetaFunction::FeatureImportance => {
                unreachable!("feature importance is not a sequence function")
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::SourceSelection;
    use ficsum_classifiers::HoeffdingTree;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    fn window(rng: &mut Xoshiro256pp, n: usize, d: usize, classes: usize) -> Vec<LabeledObservation> {
        (0..n)
            .map(|_| {
                let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
                let y = rng.random_range(0..classes);
                let l = rng.random_range(0..classes);
                LabeledObservation::new(x, y, l)
            })
            .collect()
    }

    fn trained_tree(rng: &mut Xoshiro256pp, d: usize) -> HoeffdingTree {
        let mut tree = HoeffdingTree::new(d, 2);
        for _ in 0..2000 {
            let y = rng.random_range(0..2usize);
            let mut x: Vec<f64> = (0..d).map(|_| rng.random()).collect();
            x[0] += 2.0 * y as f64;
            tree.train(&x, y);
        }
        tree
    }

    #[test]
    fn engine_matches_legacy_extractor_exactly() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let ex = FingerprintExtractor::full(4);
        let mut engine = FingerprintEngine::new(ex.clone());
        let tree = trained_tree(&mut rng, 4);
        for trial in 0..5 {
            let w = window(&mut rng, 40 + trial * 17, 4, 2);
            let legacy = ex.extract(&w, Some(&tree));
            let fast = engine.extract(&w, Some(&tree));
            assert_eq!(legacy, fast, "trial {trial}: engine must be bit-identical");
        }
    }

    #[test]
    fn scanned_sweep_matches_plain_repredicted_extraction() {
        // The repository-sweep fast path: one static scan of a window,
        // reused across several classifiers, must reproduce the plain
        // repredicted extraction bit-for-bit — including when the scan is
        // consumed by a *different* engine instance (the parallel workers).
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let ex = FingerprintExtractor::full(4);
        let mut engine = FingerprintEngine::new(ex.clone());
        let mut worker = FingerprintEngine::new(ex);
        let trees: Vec<HoeffdingTree> =
            (0..4).map(|_| trained_tree(&mut rng, 4)).collect();
        let mut scan = StaticScan::new();
        for trial in 0..3 {
            let w = window(&mut rng, 30 + trial * 25, 4, 2);
            engine.static_scan_frames(&w[..], &mut scan);
            for tree in &trees {
                let plain = engine.extract_repredicted(&w, tree);
                let mut scanned = Vec::new();
                engine.extract_with_scan(&w[..], &scan, tree, &mut scanned);
                assert_eq!(plain, scanned, "trial {trial}: owner engine diverged");
                let mut other = Vec::new();
                worker.extract_with_scan(&w[..], &scan, tree, &mut other);
                assert_eq!(plain, other, "trial {trial}: worker engine diverged");
            }
        }
    }

    #[test]
    fn engine_matches_legacy_on_ablation_variants() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let variants = [
            FingerprintExtractor::error_rate_only(3),
            FingerprintExtractor::single_function(3, MetaFunction::Skew),
            FingerprintExtractor::single_function(3, MetaFunction::FeatureImportance),
            FingerprintExtractor::new(
                3,
                MetaFunction::SEQUENCE_FUNCTIONS.to_vec(),
                SourceSelection::unsupervised_only(),
                false,
            ),
            FingerprintExtractor::new(
                3,
                MetaFunction::SEQUENCE_FUNCTIONS.to_vec(),
                SourceSelection::supervised_only(),
                false,
            ),
        ];
        let tree = trained_tree(&mut rng, 3);
        for ex in variants {
            let mut engine = FingerprintEngine::new(ex.clone());
            let w = window(&mut rng, 60, 3, 2);
            assert_eq!(ex.extract(&w, Some(&tree)), engine.extract(&w, Some(&tree)));
            assert_eq!(ex.extract(&w, None), engine.extract(&w, None));
        }
    }

    #[test]
    fn sequential_and_parallel_are_bit_identical() {
        // The golden parity test: a 20-feature synthetic stream window,
        // extracted sequentially and with a worker pool, must agree on
        // every bit.
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let d = 20;
        let mut seq_engine = FingerprintEngine::new(FingerprintExtractor::full(d));
        let mut par_engine =
            FingerprintEngine::new(FingerprintExtractor::full(d)).with_threads(4);
        assert_eq!(par_engine.threads(), 4);
        let tree = trained_tree(&mut rng, d);
        for trial in 0..3 {
            let w: Vec<LabeledObservation> = (0..100)
                .map(|i| {
                    let x: Vec<f64> = (0..d)
                        .map(|j| (i as f64 * 0.1 + j as f64).sin() + rng.random::<f64>() * 0.3)
                        .collect();
                    let y = rng.random_range(0..2usize);
                    let l = rng.random_range(0..2usize);
                    LabeledObservation::new(x, y, l)
                })
                .collect();
            let sequential = seq_engine.extract(&w, Some(&tree));
            let parallel = par_engine.extract(&w, Some(&tree));
            assert_eq!(sequential, parallel, "trial {trial}");
            // Reprediction path too.
            let sequential = seq_engine.extract_repredicted(&w, &tree);
            let parallel = par_engine.extract_repredicted(&w, &tree);
            assert_eq!(sequential, parallel, "repredicted trial {trial}");
        }
    }

    #[test]
    fn repredicted_matches_manual_relabel() {
        let mut rng = Xoshiro256pp::seed_from_u64(14);
        let ex = FingerprintExtractor::full(3);
        let mut engine = FingerprintEngine::new(ex.clone());
        let tree = trained_tree(&mut rng, 3);
        let w = window(&mut rng, 75, 3, 2);
        // The legacy framework path: clone, overwrite predictions, extract.
        let relabeled: Vec<LabeledObservation> = w
            .iter()
            .map(|o| {
                let mut o = o.clone();
                o.prediction = tree.predict(o.features());
                o
            })
            .collect();
        let legacy = ex.extract(&relabeled, Some(&tree));
        let fast = engine.extract_repredicted(&w, &tree);
        assert_eq!(legacy, fast);
    }

    #[test]
    fn ring_views_extract_bit_identically_to_collected_rows() {
        // The framework extracts straight from ring-backed views; they must
        // produce the same bits as the slice path on the same rows, for
        // both windows, once the ring has wrapped, and across the stale
        // window's restart after a drift.
        let mut rng = Xoshiro256pp::seed_from_u64(15);
        let (w, delay, d) = (30, 7, 3);
        let mut engine = FingerprintEngine::new(FingerprintExtractor::full(d));
        let tree = trained_tree(&mut rng, d);
        let mut fw = ficsum_stream::FrameWindows::new(w, delay, d);
        let (mut from_view, mut compared_stale) = (Vec::new(), 0);
        for (step, o) in window(&mut rng, 200, d, 2).into_iter().enumerate() {
            fw.push(o.features(), o.label(), o.prediction);
            if step == 90 {
                fw.clear_buffer();
                assert_eq!(fw.stale_len(), 0);
            }
            if step % 11 != 0 {
                continue;
            }
            for view in [fw.a_view(), fw.stale_view()] {
                if view.is_empty() {
                    continue;
                }
                let rows: Vec<LabeledObservation> = (0..view.len())
                    .map(|i| {
                        LabeledObservation::new(
                            view.features(i).to_vec(),
                            view.label(i),
                            view.prediction(i),
                        )
                    })
                    .collect();
                engine.extract_frames_into(&view, Some(&tree), &mut from_view);
                assert_eq!(from_view, engine.extract(&rows, Some(&tree)), "step {step}");
                engine.extract_frames_repredicted_into(&view, &tree, &mut from_view);
                assert_eq!(from_view, engine.extract_repredicted(&rows, &tree), "step {step}");
            }
            compared_stale += (step > 90 && fw.stale_len() > 0) as usize;
        }
        assert!(compared_stale > 0, "the restarted stale window must be compared");
    }

    #[test]
    fn per_source_timing_covers_sequential_and_parallel_paths() {
        use ficsum_obs::MonotonicClock;
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let d = 6;
        let w = window(&mut rng, 80, d, 2);
        for threads in [1, 3] {
            let mut engine =
                FingerprintEngine::new(FingerprintExtractor::full(d)).with_threads(threads);
            assert!(!engine.timing_enabled());
            assert!(engine.source_timings().is_empty());
            engine.set_clock(Some(Arc::new(MonotonicClock::new())));
            assert!(engine.timing_enabled());
            let _ = engine.extract(&w, None);
            let _ = engine.extract(&w, None);
            assert_eq!(engine.timed_extractions(), 2, "threads={threads}");
            let timings = engine.source_timings();
            assert_eq!(timings.len(), d + 4, "one slot per behaviour source");
            assert!(
                timings.iter().any(|(_, n)| *n > 0),
                "threads={threads}: wall clock must attribute some cost"
            );
            engine.reset_timings();
            assert_eq!(engine.timed_extractions(), 0);
            assert!(engine.source_timings().iter().all(|(_, n)| *n == 0));
        }
    }

    #[test]
    fn timing_does_not_perturb_extraction_values() {
        use ficsum_obs::ManualClock;
        let mut rng = Xoshiro256pp::seed_from_u64(22);
        let w = window(&mut rng, 60, 3, 2);
        let mut plain = FingerprintEngine::new(FingerprintExtractor::full(3));
        let mut timed = FingerprintEngine::new(FingerprintExtractor::full(3));
        timed.set_clock(Some(Arc::new(ManualClock::new())));
        assert_eq!(plain.extract(&w, None), timed.extract(&w, None));
    }

    #[test]
    fn repeated_extraction_reuses_buffers() {
        // Not a direct allocation count (no custom allocator available),
        // but the scratch buffers must retain capacity between calls.
        let mut rng = Xoshiro256pp::seed_from_u64(16);
        let mut engine = FingerprintEngine::new(FingerprintExtractor::full(2));
        let w = window(&mut rng, 80, 2, 2);
        let _ = engine.extract(&w, None);
        let caps: Vec<usize> = engine.seqs.iter().map(Vec::capacity).collect();
        let _ = engine.extract(&w, None);
        let caps_after: Vec<usize> = engine.seqs.iter().map(Vec::capacity).collect();
        assert_eq!(caps, caps_after, "sequence buffers must be reused");
    }
}
