//! Outcome digests and detection quality against the known concepts.
//!
//! Every path the benchmark drives — a standalone pipeline, the sharded
//! server, the wire — is reduced to one digest per step holding the
//! prediction, the drift flag and the active concept. Digests are what
//! the correctness checks compare, and quality is scored from them.

use ficsum_eval::{CoOccurrenceF1, ObsSummary};
use ficsum_obs::{DriftTrigger, InMemoryRecorder, Recorder, StreamEvent};
use ficsum_stream::Observation;

use crate::report::Outcome;

/// Packs one step's outcome: prediction in the low 32 bits, the drift
/// flag in bit 32, the active concept above.
pub fn digest(prediction: usize, drift: bool, active_concept: u64) -> u64 {
    debug_assert!(prediction < 1 << 32);
    prediction as u64 | (drift as u64) << 32 | active_concept << 33
}

fn prediction(d: u64) -> usize {
    (d & 0xFFFF_FFFF) as usize
}

fn drift(d: u64) -> bool {
    d >> 32 & 1 == 1
}

fn concept(d: u64) -> usize {
    (d >> 33) as usize
}

/// Compares served digests with the reference; returns the number of
/// steps that differ (a length difference counts every missing step).
pub fn mismatches(served: &[u64], reference: &[u64]) -> u64 {
    let differing = served.iter().zip(reference).filter(|(a, b)| a != b).count();
    (differing + served.len().abs_diff(reference.len())) as u64
}

/// How drifts are matched to true concept changes: the greedy one-to-one
/// rule of [`ObsSummary::from_recorder`], with a warm-up `grace` and a
/// `window` within which a drift counts as detecting a change. Fixed per
/// workload, in observations.
#[derive(Debug, Clone, Copy)]
pub struct Matching {
    pub grace: u64,
    pub window: u64,
}

/// Quality over every tape (or session) of a run: accuracy pools every
/// step, C-F1 is the mean over tapes, drift matching is pooled over tapes.
#[derive(Debug, Default)]
pub struct Quality {
    steps: u64,
    correct: u64,
    cf1: Vec<f64>,
    drifts: u64,
    detected: u64,
    missed: u64,
    false_alarms: u64,
    delay_sum: f64,
}

impl Quality {
    /// Scores one tape's digests against its labels and concepts.
    pub fn score(&mut self, tape: &[Observation], digests: &[u64], matching: Matching) {
        let mut cf1 = CoOccurrenceF1::new();
        let mut drifts = InMemoryRecorder::new();
        let mut truth = Vec::new();
        for (i, (o, &d)) in tape.iter().zip(digests).enumerate() {
            let t = i as u64 + 1;
            self.correct += (prediction(d) == o.label) as u64;
            cf1.record(o.concept, concept(d));
            if drift(d) {
                drifts.event(
                    t,
                    StreamEvent::DriftDetected {
                        trigger: DriftTrigger::Detector,
                    },
                );
            }
            if i > 0 && tape[i - 1].concept != o.concept {
                truth.push(t);
            }
        }
        let summary = ObsSummary::from_recorder(&drifts, &truth, matching.grace, matching.window);
        self.steps += digests.len().min(tape.len()) as u64;
        self.cf1.push(cf1.c_f1());
        self.drifts += summary.n_drifts;
        self.detected += summary.detected;
        self.missed += summary.missed;
        self.false_alarms += summary.false_alarms;
        self.delay_sum += summary.mean_detection_delay.unwrap_or(0.0) * summary.detected as f64;
    }

    /// Adds `accuracy`, `cf1`, the drift-matching shares and delay, and
    /// the drift layer's counts.
    pub fn report(&self, out: &mut Outcome) {
        let tapes = self.cf1.len() as u64;
        let share = |part: f64, whole: u64| part / whole.max(1) as f64;
        out.add(
            "accuracy",
            share(self.correct as f64, self.steps),
            self.steps,
        );
        out.add("cf1", share(self.cf1.iter().sum(), tapes), tapes);
        let counted = self.detected + self.false_alarms;
        out.add(
            "drift_precision",
            share(self.detected as f64, counted),
            counted,
        );
        let changes = self.detected + self.missed;
        out.add(
            "drift_recall",
            share(self.detected as f64, changes),
            changes,
        );
        out.add(
            "detection_delay_steps",
            share(self.delay_sum, self.detected),
            self.detected,
        );
        out.add("drift.detections", self.drifts as f64, tapes);
        out.add("drift.false_alarms", self.false_alarms as f64, tapes);
        out.add("drift.missed_drifts", self.missed as f64, tapes);
    }
}
