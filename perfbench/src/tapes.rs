//! Workload inputs, generated by `ficsum-synth` from the workload seed.
//! The same seed always gives the same tapes; the system under test sees
//! only the observations.

use ficsum_core::{FicsumConfig, SessionTemplate, Variant};
use ficsum_serve::SessionId;
use ficsum_stream::{Observation, StreamSource};
use ficsum_synth::dataset_by_name;

use crate::stats::mix;

/// A dataset's observations with its shape.
pub struct Tape {
    pub obs: Vec<Observation>,
    pub dims: usize,
    pub classes: usize,
}

/// The first `steps` observations of `dataset` generated from `seed`.
pub fn tape(dataset: &str, seed: u64, steps: usize) -> Tape {
    let stream = dataset_by_name(dataset, seed).expect("workload datasets exist in ficsum-synth");
    let mut obs = stream.observations().to_vec();
    obs.truncate(steps);
    Tape {
        obs,
        dims: stream.dims(),
        classes: stream.n_classes(),
    }
}

/// `count` independent tapes of one dataset, seeded from the workload seed.
pub fn tapes(dataset: &str, seed: u64, count: usize, steps: usize) -> Vec<Tape> {
    (0..count)
        .map(|k| tape(dataset, mix(seed, k as u64), steps))
        .collect()
}

/// One served stream: its id and the observations sent for it, a slice
/// of a longer generated stream.
pub struct Session<'a> {
    pub id: SessionId,
    pub obs: &'a [Observation],
}

/// The session recipe every server in the benchmark uses: the default
/// configuration, `Variant::Full`, batch extraction, one thread.
pub fn template(dims: usize, classes: usize) -> SessionTemplate {
    SessionTemplate::new(dims, classes, FicsumConfig::default(), Variant::Full)
        .expect("the default configuration is valid")
}
