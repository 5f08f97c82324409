//! Session checkpoints: full, dependency-free captures of a running
//! [`crate::Ficsum`] pipeline.
//!
//! A checkpoint is everything `process` reads or writes across steps — the
//! active concept (fingerprint, `F_SC`, classifier, similarity baseline,
//! retained pairs), the stored repository, the frame ring, the drift detector, the
//! normaliser, the dynamic weights and every counter — deep-cloned into an
//! owned, `Send + Sync` value with no live borrows. Restoring it through
//! [`crate::SessionTemplate::restore`] yields a pipeline that continues
//! **bit-identically**: driven with the same observations it produces the
//! same [`crate::StepOutcome`]s as the uninterrupted original (pinned by
//! the snapshot→restore→replay property test).
//!
//! What is deliberately *not* captured:
//!
//! * pure caches and scratch buffers ([`crate::similarity::CachedFingerprint`],
//!   extraction scratch, the shared static scan) — they are
//!   recomputed on demand from captured state and the recomputation is
//!   bit-identical by construction;
//! * the observability recorder and clock — observers, not state; a
//!   restored session gets whatever the restoring template attaches.
//!
//! Classifiers cross the checkpoint boundary as [`Classifier::clone_box`]
//! deep copies: the trait requires `Send + Sync`, so a checkpoint is plain
//! data that can be handed between threads, parked on a session snapshot,
//! or shipped to a fresh server — without this crate growing a
//! serialisation dependency.

use ficsum_classifiers::Classifier;
use ficsum_drift::Adwin;
use ficsum_stream::{EwStats, FrameWindows};

use crate::config::FicsumConfig;
use crate::fingerprint::{ConceptFingerprint, FingerprintNormalizer};
use crate::framework::FicsumStats;
use crate::repository::{ConceptId, Repository, RetainedPair};
use crate::weights::DynamicWeights;

/// Why a checkpoint cannot be restored through a given template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RestoreError {
    /// The template's feature count differs from the checkpointed session's.
    FeatureCountMismatch {
        /// Features the template builds sessions for.
        template: usize,
        /// Features the checkpointed session was built for.
        checkpoint: usize,
    },
    /// The template's class count differs from the checkpointed session's.
    ClassCountMismatch {
        /// Classes the template builds sessions for.
        template: usize,
        /// Classes the checkpointed session was built for.
        checkpoint: usize,
    },
    /// The template's variant produces a different fingerprint schema.
    DimensionMismatch {
        /// Fingerprint dimensions of the template's extractor.
        template: usize,
        /// Fingerprint dimensions the checkpoint was captured with.
        checkpoint: usize,
    },
    /// The template's hyper-parameters differ from the checkpointed
    /// session's. Replaying under different hyper-parameters would diverge
    /// silently, so the mismatch is refused instead.
    ConfigMismatch,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::FeatureCountMismatch { template, checkpoint } => write!(
                f,
                "template serves {template}-feature streams but the checkpoint \
                 holds a {checkpoint}-feature session"
            ),
            RestoreError::ClassCountMismatch { template, checkpoint } => write!(
                f,
                "template serves {template}-class streams but the checkpoint \
                 holds a {checkpoint}-class session"
            ),
            RestoreError::DimensionMismatch { template, checkpoint } => write!(
                f,
                "template extractor produces {template} fingerprint dimensions \
                 but the checkpoint was captured with {checkpoint}"
            ),
            RestoreError::ConfigMismatch => {
                write!(f, "template hyper-parameters differ from the checkpointed session's")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// A complete capture of one session's learned and in-flight state.
///
/// Obtain one with [`crate::Ficsum::checkpoint`]; rehydrate it with
/// [`crate::SessionTemplate::restore`]. The value is self-contained and
/// `Send + Sync` — see the module docs for what is captured and why the
/// restored pipeline replays bit-identically.
#[derive(Clone)]
pub struct SessionCheckpoint {
    pub(crate) n_features: usize,
    pub(crate) n_classes: usize,
    pub(crate) config: FicsumConfig,

    pub(crate) active_id: ConceptId,
    pub(crate) active_fp: ConceptFingerprint,
    pub(crate) active_clf: Box<dyn Classifier>,
    pub(crate) active_sim: EwStats,
    pub(crate) active_retained: Vec<RetainedPair>,
    pub(crate) active_sc: ConceptFingerprint,

    pub(crate) repo: Repository,
    pub(crate) normalizer: FingerprintNormalizer,
    pub(crate) weights: DynamicWeights,
    pub(crate) weights_gen: u64,
    pub(crate) weights_stamp: Option<(u64, u64, u64)>,
    pub(crate) detector: Adwin,
    pub(crate) frames: FrameWindows,

    pub(crate) t: u64,
    pub(crate) pending_recheck: Option<(u64, bool)>,
    pub(crate) stats: FicsumStats,
    pub(crate) last_similarity: Option<f64>,
    pub(crate) extreme_streak: u32,
    pub(crate) last_plasticity: u64,
    pub(crate) baseline_outliers: u32,
    pub(crate) cooldown_until: u64,
}

impl SessionCheckpoint {
    /// Observation count at capture time.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Feature dimensionality the session was built for.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Class count the session was built for.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Fingerprint dimensions of the captured representation.
    pub fn dims(&self) -> usize {
        self.active_fp.dims()
    }

    /// The hyper-parameters the session ran with.
    pub fn config(&self) -> &FicsumConfig {
        &self.config
    }

    /// Concept active at capture time.
    pub fn active_concept(&self) -> ConceptId {
        self.active_id
    }

    /// Lifetime counters at capture time.
    pub fn stats(&self) -> FicsumStats {
        self.stats
    }

    /// Ids stored in the captured repository, ascending.
    pub fn stored_concepts(&self) -> Vec<ConceptId> {
        let mut ids: Vec<ConceptId> = self.repo.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids
    }
}

impl std::fmt::Debug for SessionCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCheckpoint")
            .field("steps", &self.t)
            .field("n_features", &self.n_features)
            .field("n_classes", &self.n_classes)
            .field("dims", &self.dims())
            .field("active_concept", &self.active_id)
            .field("stored_concepts", &self.stored_concepts())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

// A checkpoint is plain data: it crosses thread boundaries in the serving
// layer (snapshot stores, restore at worker startup).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SessionCheckpoint>();
    assert_send_sync::<RestoreError>();
};

#[cfg(test)]
mod tests {
    use crate::config::FicsumConfig;
    use crate::template::SessionTemplate;
    use crate::variant::Variant;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
    use ficsum_synth::{Labeller, StaggerLabeller};

    use super::RestoreError;

    fn quick_config() -> FicsumConfig {
        FicsumConfig {
            window_size: 50,
            fingerprint_gap: 5,
            repository_gap: 50,
            ..FicsumConfig::default()
        }
    }

    fn template() -> SessionTemplate {
        SessionTemplate::new(3, 2, quick_config(), Variant::Full).expect("valid config")
    }

    /// Deterministic drifting stream: STAGGER concepts alternating every
    /// `seg_len` observations.
    fn observation(rng: &mut Xoshiro256pp, step: usize, seg_len: usize) -> ([f64; 3], usize) {
        let x = [rng.random(), rng.random(), rng.random()];
        let concept = (step / seg_len) % 2;
        let y = StaggerLabeller::new(concept).label(&x);
        (x, y)
    }

    #[test]
    fn restored_session_replays_bit_identically() {
        let template = template();
        let mut original = template.instantiate();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        // Drive through at least one drift so the checkpoint captures a
        // non-trivial repository, then checkpoint mid-segment.
        for step in 0..1100 {
            let (x, y) = observation(&mut rng, step, 400);
            original.process(&x, y);
        }
        let checkpoint = original.checkpoint();
        assert_eq!(checkpoint.steps(), 1100);
        assert_eq!(checkpoint.active_concept(), original.active_concept());
        let mut restored = template.restore(&checkpoint).expect("same template restores");
        // The tail crosses further drift boundaries; every outcome must be
        // bit-identical between the uninterrupted original and the restored
        // copy.
        for step in 1100..2600 {
            let (x, y) = observation(&mut rng, step, 400);
            let a = original.process(&x, y);
            let b = restored.process(&x, y);
            assert_eq!(a, b, "outcomes diverged at step {step}");
        }
        assert_eq!(original.stats(), restored.stats());
        assert!(
            original.stats().n_drifts >= 2,
            "test must exercise drift + selection on both sides of the \
             checkpoint: {:?}",
            original.stats()
        );
    }

    #[test]
    fn checkpoint_is_an_independent_deep_copy() {
        let template = template();
        let mut original = template.instantiate();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for step in 0..900 {
            let (x, y) = observation(&mut rng, step, 300);
            original.process(&x, y);
        }
        let checkpoint = original.checkpoint();
        let stats_at_capture = checkpoint.stats();
        // Mutating the original after capture must not leak into the
        // checkpoint: two restores bracketing further processing behave
        // identically.
        let mut restored_before = template.restore(&checkpoint).expect("restores");
        for step in 900..1400 {
            let (x, y) = observation(&mut rng, step, 300);
            original.process(&x, y);
        }
        let mut restored_after = template.restore(&checkpoint).expect("still restores");
        assert_eq!(checkpoint.stats(), stats_at_capture);
        let mut rng2 = Xoshiro256pp::seed_from_u64(99);
        for step in 0..600 {
            let (x, y) = observation(&mut rng2, step, 200);
            let a = restored_before.process(&x, y);
            let b = restored_after.process(&x, y);
            assert_eq!(a, b, "checkpoint mutated by original at step {step}");
        }
    }

    #[test]
    fn checkpoint_reports_repository_membership() {
        let template = template();
        let mut original = template.instantiate();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for step in 0..1700 {
            let (x, y) = observation(&mut rng, step, 400);
            original.process(&x, y);
        }
        let checkpoint = original.checkpoint();
        let mut expected: Vec<_> = original.repository().iter().map(|e| e.id).collect();
        expected.sort_unstable();
        assert_eq!(checkpoint.stored_concepts(), expected);
        assert_eq!(checkpoint.dims(), original.engine().schema().len());
        assert_eq!(checkpoint.n_features(), 3);
        assert_eq!(checkpoint.n_classes(), 2);
    }

    #[test]
    fn restore_validates_template_compatibility() {
        let checkpoint = {
            let mut f = template().instantiate();
            let mut rng = Xoshiro256pp::seed_from_u64(5);
            for step in 0..200 {
                let (x, y) = observation(&mut rng, step, 1000);
                f.process(&x, y);
            }
            f.checkpoint()
        };
        let wrong_features = SessionTemplate::new(4, 2, quick_config(), Variant::Full).unwrap();
        assert_eq!(
            wrong_features.restore(&checkpoint).err(),
            Some(RestoreError::FeatureCountMismatch { template: 4, checkpoint: 3 })
        );
        let wrong_classes = SessionTemplate::new(3, 3, quick_config(), Variant::Full).unwrap();
        assert_eq!(
            wrong_classes.restore(&checkpoint).err(),
            Some(RestoreError::ClassCountMismatch { template: 3, checkpoint: 2 })
        );
        let wrong_config = SessionTemplate::new(
            3,
            2,
            FicsumConfig { window_size: 80, ..quick_config() },
            Variant::Full,
        )
        .unwrap();
        assert_eq!(wrong_config.restore(&checkpoint).err(), Some(RestoreError::ConfigMismatch));
        let wrong_variant =
            SessionTemplate::new(3, 2, quick_config(), Variant::ErrorRate).unwrap();
        assert!(matches!(
            wrong_variant.restore(&checkpoint).err(),
            Some(RestoreError::DimensionMismatch { template: 1, .. })
        ));
        // And the compatible template still restores.
        assert!(template().restore(&checkpoint).is_ok());
    }
}
