//! The fingerprint engine: allocation-free meta-feature extraction.
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
//!
//! There are two entry points, [`FingerprintEngine::scan_static`] and
//! [`FingerprintEngine::extract`], and one per-source loop behind both.
//! Extraction always re-predicts the window through the classifier it is
//! given (Algorithm 1 makes every fingerprint with the classifier it is
//! scored against), so the prediction-dependent sources never read a
//! stored prediction. Both read their window through [`FrameSource`] —
//! ring views, owned frame blocks and observation slices — and produce the
//! same bits as [`FingerprintExtractor::extract`] on a copy of the window
//! whose predictions were overwritten by the classifier's. The legacy
//! extractor path is kept untouched: it is the reference the engine is
//! tested against, and the baseline for the throughput comparison in
//! `ficsum-bench`.

use std::sync::Arc;

use ficsum_classifiers::Classifier;
use ficsum_obs::Clock;
use ficsum_stream::FrameSource;

use crate::autocorr::{autocorrelation, partial_autocorrelation};
use crate::emd::{imf_entropies_scratch, EmdConfig, EmdScratch};
use crate::extractor::{FingerprintExtractor, FingerprintSchema};
use crate::functions::{turning_point_rate, MetaFunction};
use crate::mutual_info::{lagged_mutual_information_scratch, MiScratch};
use crate::sources::{behaviour_sources, SourceKind};

/// Scratch for one behaviour source's evaluation.
#[derive(Debug, Clone, Default)]
struct SourceScratch {
    emd: EmdScratch,
    mi: MiScratch,
}

/// The classifier-independent half of one window's extraction.
///
/// A repository sweep scores *one* window under *many* classifiers. The
/// feature and label behaviour sources do not depend on the classifier, yet
/// a plain extraction re-evaluates their meta-functions (EMD sifting,
/// mutual information, autocorrelation, the moment sweep) once per
/// classifier. [`FingerprintEngine::scan_static`] evaluates those sources
/// once into this cache; [`FingerprintEngine::extract`] given the scan then
/// copies the cached dimensions and computes only the prediction-dependent
/// sources and the importance tail per classifier.
///
/// Bit-exactness: the cached dimensions are produced by the very same
/// per-source evaluation on the very same sequences as the plain path, and
/// copying an `f64` preserves its bits. Validity is the caller's contract —
/// a scan must be rebuilt whenever the window contents change.
#[derive(Debug, Clone, Default)]
pub struct StaticScan {
    /// Evaluated function blocks for the whole source section, aligned with
    /// the engine's source order; only the chunks of classifier-independent
    /// sources hold meaningful values.
    vals: Vec<f64>,
}

impl StaticScan {
    /// An empty (not yet scanned) cache.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which sources one run of the per-source loop evaluates.
#[derive(Clone, Copy)]
enum Pass<'a> {
    /// Only the classifier-independent sources, into a [`StaticScan`].
    Static,
    /// Every source, copying the classifier-independent blocks from a
    /// scan's values when one is given.
    Full(Option<&'a [f64]>),
}

/// Reusable fingerprint extraction.
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
    /// One cached sequence buffer per selected source.
    seqs: Vec<Vec<f64>>,
    /// The window's labels re-predicted by the last extraction's classifier.
    preds: Vec<usize>,
    /// Probability scratch for allocation-free classifier calls.
    proba: Vec<f64>,
    /// Contribution scratch for the feature-importance tail.
    contrib: Vec<f64>,
    scratch: SourceScratch,
    /// Span clock for per-source timing; `None` = timing off (zero cost).
    clock: Option<Arc<dyn Clock>>,
    /// Cumulative nanoseconds spent evaluating each source, aligned with
    /// `kinds`.
    source_nanos: Vec<u64>,
    /// Extractions measured since the last [`FingerprintEngine::reset_timings`].
    timed_extractions: u64,
}

impl FingerprintEngine {
    /// Engine around `extractor`.
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
            seqs: vec![Vec::new(); n_sources],
            preds: Vec::new(),
            proba: Vec::new(),
            contrib: Vec::new(),
            scratch: SourceScratch::default(),
            clock: None,
            source_nanos: vec![0; n_sources],
            timed_extractions: 0,
        }
    }

    /// Enables per-source extraction timing against `clock` (pass `None` to
    /// disable — the default, with zero cost on the extraction path). The
    /// clock is shared, not owned, so the framework, engine and tests can
    /// observe one coherent timeline.
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

    /// Evaluates the classifier-independent sources of `src` into `scan`,
    /// for a sweep that scores one window under many classifiers through
    /// [`FingerprintEngine::extract`].
    pub fn scan_static<S: FrameSource + ?Sized>(&mut self, src: &S, scan: &mut StaticScan) {
        scan.vals.clear();
        scan.vals.resize(self.kinds.len() * self.extractor.functions().len(), 0.0);
        self.eval_sources(src, Pass::Static, &mut scan.vals);
    }

    /// Computes into `out` (cleared first) the fingerprint `src` has under
    /// `classifier`'s *current* predictions: every row is re-predicted and
    /// the prediction-dependent sources (predictions, errors, error
    /// distances) are built from those fresh labels. Bit-identical to
    /// [`FingerprintExtractor::extract`] on a copy of the window whose
    /// predictions were overwritten by `classifier`, without the copy.
    ///
    /// With a `scan` of the same window, the classifier-independent
    /// dimensions are copied from it instead of being evaluated, with the
    /// same bits; `src` must hold exactly the contents the scan was built
    /// from.
    pub fn extract<S: FrameSource + ?Sized>(
        &mut self,
        src: &S,
        classifier: &dyn Classifier,
        scan: Option<&StaticScan>,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(self.extractor.schema().len(), 0.0);
        self.predict_rows(src, classifier, out);
        let src_len = self.kinds.len() * self.extractor.functions().len();
        let cached = scan.map(|s| {
            debug_assert_eq!(s.vals.len(), src_len, "scan built for another schema");
            s.vals.as_slice()
        });
        self.eval_sources(src, Pass::Full(cached), &mut out[..src_len]);
    }

    /// The one pass over the window's rows that asks `clf` anything: it
    /// re-predicts each row into `self.preds`, and when the schema has a
    /// feature-importance tail it sums each attributed row's absolute
    /// contributions into the tail of `out` (zeroed by the caller) in row
    /// order, then averages them. A row costs one
    /// [`Classifier::predict_contributions_with`] call.
    fn predict_rows<S: FrameSource + ?Sized>(
        &mut self,
        src: &S,
        clf: &dyn Classifier,
        out: &mut [f64],
    ) {
        let n = src.len();
        let Self { extractor, preds, proba, contrib, .. } = self;
        preds.clear();
        if !extractor.includes_feature_importance() {
            preds.extend((0..n).map(|i| clf.predict_with(src.features(i), proba)));
            return;
        }
        let tail = out.len() - extractor.n_features();
        let importance = &mut out[tail..];
        let mut counted = 0usize;
        for i in 0..n {
            let (label, attributed) = clf.predict_contributions_with(src.features(i), contrib, proba);
            preds.push(label);
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

    /// The per-source loop behind both entry points: materialises each
    /// source `pass` selects into its cached sequence and evaluates its
    /// function block into its chunk of `out`, timing it when a clock is
    /// set.
    fn eval_sources<S: FrameSource + ?Sized>(&mut self, src: &S, pass: Pass<'_>, out: &mut [f64]) {
        let Self {
            extractor, kinds, seqs, preds, scratch, clock, source_nanos, timed_extractions, ..
        } = self;
        let functions = extractor.functions();
        let nf = functions.len();
        if nf == 0 || kinds.is_empty() {
            return;
        }
        let needs_emd = functions
            .iter()
            .any(|f| matches!(f, MetaFunction::ImfEntropy1 | MetaFunction::ImfEntropy2));
        let emd_cfg = *extractor.emd_config();
        let mi_bins = extractor.mi_bins();
        if matches!(pass, Pass::Full(_)) && *timed_extractions < u64::MAX {
            *timed_extractions += clock.is_some() as u64;
        }
        for (i, ((seq, chunk), nano)) in
            seqs.iter_mut().zip(out.chunks_mut(nf)).zip(source_nanos.iter_mut()).enumerate()
        {
            let kind = kinds[i];
            match pass {
                Pass::Static if !kind_is_static(kind) => continue,
                Pass::Full(Some(vals)) if kind_is_static(kind) => {
                    chunk.copy_from_slice(&vals[i * nf..(i + 1) * nf]);
                    continue;
                }
                _ => fill_sequence(seq, kind, src, preds),
            }
            let t0 = clock.as_deref().map(Clock::now_nanos);
            eval_source_into(seq, functions, needs_emd, &emd_cfg, mi_bins, scratch, chunk);
            if let (Some(c), Some(t0)) = (clock.as_deref(), t0) {
                *nano += c.now_nanos().saturating_sub(t0);
            }
        }
    }
}

/// Materialises `kind`'s behaviour sequence of `src` into `seq` (cleared
/// first); the prediction-dependent sources read the re-predicted `preds`.
fn fill_sequence<S: FrameSource + ?Sized>(
    seq: &mut Vec<f64>,
    kind: SourceKind,
    src: &S,
    preds: &[usize],
) {
    let n = src.len();
    seq.clear();
    match kind {
        SourceKind::Feature(j) => seq.extend((0..n).map(|i| src.features(i)[j])),
        SourceKind::Labels => seq.extend((0..n).map(|i| src.label(i) as f64)),
        SourceKind::Predictions => seq.extend(preds.iter().map(|&p| p as f64)),
        SourceKind::Errors => {
            seq.extend((0..n).map(|i| if preds[i] != src.label(i) { 1.0 } else { 0.0 }))
        }
        SourceKind::ErrorDistances => {
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
    use ficsum_stream::LabeledObservation;

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

    /// `w` with every prediction overwritten by `clf`: the window the
    /// reference extractor must see to match a re-predicting extraction.
    fn relabel(w: &[LabeledObservation], clf: &dyn Classifier) -> Vec<LabeledObservation> {
        w.iter()
            .map(|o| {
                let mut o = o.clone();
                o.prediction = clf.predict(o.features());
                o
            })
            .collect()
    }

    /// One unscanned extraction into a fresh vector.
    fn extract<S: FrameSource + ?Sized>(
        engine: &mut FingerprintEngine,
        src: &S,
        clf: &dyn Classifier,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        engine.extract(src, clf, None, &mut out);
        out
    }

    /// The paper's ablation extractors (Tables III–V).
    fn ablation_extractors(d: usize) -> [FingerprintExtractor; 5] {
        [
            FingerprintExtractor::error_rate_only(d),
            FingerprintExtractor::single_function(d, MetaFunction::Skew),
            FingerprintExtractor::single_function(d, MetaFunction::FeatureImportance),
            FingerprintExtractor::new(
                d,
                MetaFunction::SEQUENCE_FUNCTIONS.to_vec(),
                SourceSelection::unsupervised_only(),
                false,
            ),
            FingerprintExtractor::new(
                d,
                MetaFunction::SEQUENCE_FUNCTIONS.to_vec(),
                SourceSelection::supervised_only(),
                false,
            ),
        ]
    }

    #[test]
    fn engine_matches_legacy_extractor_exactly() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let ex = FingerprintExtractor::full(4);
        let mut engine = FingerprintEngine::new(ex.clone());
        let tree = trained_tree(&mut rng, 4);
        for trial in 0..5 {
            let w = window(&mut rng, 40 + trial * 17, 4, 2);
            let legacy = ex.extract(&relabel(&w, &tree), Some(&tree));
            let fast = extract(&mut engine, &w[..], &tree);
            assert_eq!(legacy, fast, "trial {trial}: engine must be bit-identical");
        }
    }

    #[test]
    fn scanned_sweep_matches_plain_repredicted_extraction() {
        // The repository-sweep fast path: one static scan of a window,
        // reused across several classifiers, must reproduce the plain
        // extraction bit-for-bit — also when the scan is consumed by a
        // different engine instance. The extractors cover every shape of
        // the per-source loop: static and classifier-dependent sources
        // (full, S-MI, single function), static sources only (U-MI),
        // classifier-dependent only (error rate) and no source at all
        // (importance only).
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let d = 4;
        let trees: Vec<HoeffdingTree> = (0..4).map(|_| trained_tree(&mut rng, d)).collect();
        let extractors =
            std::iter::once(FingerprintExtractor::full(d)).chain(ablation_extractors(d));
        for (v, ex) in extractors.enumerate() {
            let mut engine = FingerprintEngine::new(ex.clone());
            let mut other_engine = FingerprintEngine::new(ex);
            let mut scan = StaticScan::new();
            let (mut scanned, mut other) = (Vec::new(), Vec::new());
            for trial in 0..3 {
                let w = window(&mut rng, 30 + trial * 25, d, 2);
                engine.scan_static(&w[..], &mut scan);
                for tree in &trees {
                    let plain = extract(&mut engine, &w[..], tree);
                    engine.extract(&w[..], tree, Some(&scan), &mut scanned);
                    assert_eq!(plain, scanned, "extractor {v} trial {trial}: owner diverged");
                    other_engine.extract(&w[..], tree, Some(&scan), &mut other);
                    assert_eq!(plain, other, "extractor {v} trial {trial}: other diverged");
                }
            }
        }
    }

    #[test]
    fn engine_matches_legacy_on_ablation_variants() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let tree = trained_tree(&mut rng, 3);
        for ex in ablation_extractors(3) {
            let mut engine = FingerprintEngine::new(ex.clone());
            let w = window(&mut rng, 60, 3, 2);
            let legacy = ex.extract(&relabel(&w, &tree), Some(&tree));
            assert_eq!(legacy, extract(&mut engine, &w[..], &tree));
        }
    }

    #[test]
    fn repredicted_matches_manual_relabel() {
        let mut rng = Xoshiro256pp::seed_from_u64(14);
        let ex = FingerprintExtractor::full(3);
        let mut engine = FingerprintEngine::new(ex.clone());
        let tree = trained_tree(&mut rng, 3);
        let w = window(&mut rng, 75, 3, 2);
        let legacy = ex.extract(&relabel(&w, &tree), Some(&tree));
        assert_eq!(legacy, extract(&mut engine, &w[..], &tree));
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
            fw.push(o.features(), o.label());
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
                    .map(|i| LabeledObservation::new(view.features(i).to_vec(), view.label(i), 0))
                    .collect();
                engine.extract(&view, &tree, None, &mut from_view);
                assert_eq!(from_view, extract(&mut engine, &rows[..], &tree), "step {step}");
            }
            compared_stale += (step > 90 && fw.stale_len() > 0) as usize;
        }
        assert!(compared_stale > 0, "the restarted stale window must be compared");
    }

    #[test]
    fn per_source_timing_attributes_every_source() {
        use ficsum_obs::MonotonicClock;
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let d = 6;
        let w = window(&mut rng, 80, d, 2);
        let tree = trained_tree(&mut rng, d);
        let mut engine = FingerprintEngine::new(FingerprintExtractor::full(d));
        assert!(!engine.timing_enabled());
        assert!(engine.source_timings().is_empty());
        engine.set_clock(Some(Arc::new(MonotonicClock::new())));
        assert!(engine.timing_enabled());
        let _ = extract(&mut engine, &w[..], &tree);
        let _ = extract(&mut engine, &w[..], &tree);
        assert_eq!(engine.timed_extractions(), 2);
        let timings = engine.source_timings();
        assert_eq!(timings.len(), d + 4, "one slot per behaviour source");
        assert!(timings.iter().any(|(_, n)| *n > 0), "wall clock must attribute some cost");
        engine.reset_timings();
        assert_eq!(engine.timed_extractions(), 0);
        assert!(engine.source_timings().iter().all(|(_, n)| *n == 0));
    }

    #[test]
    fn timing_does_not_perturb_extraction_values() {
        use ficsum_obs::ManualClock;
        let mut rng = Xoshiro256pp::seed_from_u64(22);
        let w = window(&mut rng, 60, 3, 2);
        let tree = trained_tree(&mut rng, 3);
        let mut plain = FingerprintEngine::new(FingerprintExtractor::full(3));
        let mut timed = FingerprintEngine::new(FingerprintExtractor::full(3));
        timed.set_clock(Some(Arc::new(ManualClock::new())));
        assert_eq!(extract(&mut plain, &w[..], &tree), extract(&mut timed, &w[..], &tree));
    }

    #[test]
    fn repeated_extraction_reuses_buffers() {
        // Not a direct allocation count (no custom allocator available),
        // but the scratch buffers must retain capacity between calls.
        let mut rng = Xoshiro256pp::seed_from_u64(16);
        let mut engine = FingerprintEngine::new(FingerprintExtractor::full(2));
        let w = window(&mut rng, 80, 2, 2);
        let tree = trained_tree(&mut rng, 2);
        let _ = extract(&mut engine, &w[..], &tree);
        let caps: Vec<usize> = engine.seqs.iter().map(Vec::capacity).collect();
        let _ = extract(&mut engine, &w[..], &tree);
        let caps_after: Vec<usize> = engine.seqs.iter().map(Vec::capacity).collect();
        assert_eq!(caps, caps_after, "sequence buffers must be reused");
    }
}
