//! Exact statistics over raw samples the benchmark timed itself.
//!
//! Quantiles come from a sorted copy of every sample (nearest rank), never
//! from `LatencyHistogram`, whose power-of-two buckets would report a
//! bucket representative instead of a measurement.

/// Raw samples in microseconds, sorted once for quantile queries.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            values: Vec::with_capacity(n),
            sorted: false,
        }
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, values: &[f64]) {
        self.values.extend_from_slice(values);
        self.sorted = false;
    }

    pub fn len(&self) -> u64 {
        self.values.len() as u64
    }

    /// Nearest-rank quantile; NaN when there are no samples, so an empty
    /// measurement cannot pass as a number.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }
}

/// Cuts time-ordered samples into `parts` consecutive segments and returns
/// the median over segments of each segment's `q` quantile. A host stall
/// or a slow spell of the shared machine that covers fewer than half the
/// segments does not move it.
pub fn segmented_quantile(values: &[f64], parts: usize, q: f64) -> f64 {
    let per = values.len().div_ceil(parts.max(1)).max(1);
    let quantiles: Vec<f64> = values
        .chunks(per)
        .map(|segment| {
            let mut s = Samples::with_capacity(segment.len());
            s.extend(segment);
            s.quantile(q)
        })
        .collect();
    median(&quantiles)
}

/// Median of a handful of values (set-up repetitions, kernel rounds).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::with_capacity(values.len());
    values.iter().for_each(|&v| s.push(v));
    s.quantile(0.5)
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
