//! Empirical Mode Decomposition and IMF entropy.
//!
//! The "entropy of intrinsic mode functions 1 & 2" meta-features (Ding &
//! Luo, Entropy 2019) require decomposing a window into intrinsic mode
//! functions (IMFs) via sifting: repeatedly subtracting the mean of the
//! cubic-spline envelopes through the local maxima and minima until the
//! residual behaves like an IMF. Each IMF is then summarised by the Shannon
//! entropy of its value histogram, capturing behaviour at that timescale.
//!
//! [`imf_entropies`] is the allocating reference. Extraction runs
//! [`imf_entropies_scratch`], the same sifting with reused buffers: one
//! branch-free sweep finds both extrema lists, both envelopes are fitted
//! together ([`SplineScratch::fit_pair`]) and read segment by segment on the
//! integer grid ([`SplineScratch::eval_grid`]). Every floating-point
//! operation keeps its operands and order, so the two agree bit for bit.

use crate::spline::{CubicSpline, SplineScratch};

/// Parameters of the sifting process.
#[derive(Debug, Clone, Copy)]
pub struct EmdConfig {
    /// Stop sifting when the normalised squared change falls below this
    /// (Huang's SD criterion, usually 0.2–0.3).
    pub sd_threshold: f64,
    /// Hard cap on sifting iterations per IMF.
    pub max_siftings: usize,
    /// Number of IMFs to extract.
    pub n_imfs: usize,
    /// Histogram bins for the entropy summary.
    pub entropy_bins: usize,
}

impl Default for EmdConfig {
    fn default() -> Self {
        Self { sd_threshold: 0.3, max_siftings: 8, n_imfs: 2, entropy_bins: 10 }
    }
}

/// Indices of local maxima (`true`) or minima (`false`), with plateau
/// handling (the first point of a plateau counts).
fn local_extrema(xs: &[f64], maxima: bool) -> Vec<usize> {
    let mut out = Vec::new();
    let n = xs.len();
    if n < 3 {
        return out;
    }
    for i in 1..n - 1 {
        let (a, b, c) = (xs[i - 1], xs[i], xs[i + 1]);
        let is_ext = if maxima { b > a && b >= c } else { b < a && b <= c };
        if is_ext {
            out.push(i);
        }
    }
    out
}

/// One sifting pass: signal minus the mean envelope. `None` when the signal
/// has too few extrema to build envelopes (it is a residual/trend).
fn sift_once(xs: &[f64]) -> Option<Vec<f64>> {
    let maxima = local_extrema(xs, true);
    let minima = local_extrema(xs, false);
    if maxima.len() < 2 || minima.len() < 2 {
        return None;
    }
    let n = xs.len();
    // Anchor envelopes at the endpoints to avoid swing-out.
    let build = |idx: &[usize]| -> Option<CubicSpline> {
        let mut kx = Vec::with_capacity(idx.len() + 2);
        let mut ky = Vec::with_capacity(idx.len() + 2);
        kx.push(0.0);
        ky.push(xs[0]);
        for &i in idx {
            kx.push(i as f64);
            ky.push(xs[i]);
        }
        if *idx.last().unwrap() != n - 1 {
            kx.push((n - 1) as f64);
            ky.push(xs[n - 1]);
        }
        CubicSpline::fit(&kx, &ky)
    };
    let upper = build(&maxima)?;
    let lower = build(&minima)?;
    Some(
        (0..n)
            .map(|i| {
                let x = i as f64;
                xs[i] - 0.5 * (upper.eval(x) + lower.eval(x))
            })
            .collect(),
    )
}

/// Extracts one IMF from `xs` by iterated sifting. Returns `None` when `xs`
/// is already a residual.
fn extract_imf(xs: &[f64], config: &EmdConfig) -> Option<Vec<f64>> {
    let mut h = sift_once(xs)?;
    for _ in 1..config.max_siftings {
        let next = match sift_once(&h) {
            Some(n) => n,
            None => break,
        };
        // Huang's stopping criterion.
        let num: f64 = h.iter().zip(&next).map(|(a, b)| (a - b) * (a - b)).sum();
        let den: f64 = h.iter().map(|a| a * a).sum::<f64>().max(1e-12);
        h = next;
        if num / den < config.sd_threshold {
            break;
        }
    }
    Some(h)
}

/// Full decomposition: returns up to `config.n_imfs` IMFs (coarser modes
/// later). The final residual is not returned.
pub fn decompose(xs: &[f64], config: &EmdConfig) -> Vec<Vec<f64>> {
    let mut residual = xs.to_vec();
    let mut imfs = Vec::with_capacity(config.n_imfs);
    for _ in 0..config.n_imfs {
        match extract_imf(&residual, config) {
            Some(imf) => {
                for (r, i) in residual.iter_mut().zip(&imf) {
                    *r -= i;
                }
                imfs.push(imf);
            }
            None => break,
        }
    }
    imfs
}

/// Shannon entropy (nats) of an equal-width histogram of `xs`.
fn histogram_entropy(xs: &[f64], bins: usize) -> f64 {
    if xs.len() < 2 || bins < 2 {
        return 0.0;
    }
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !(hi - lo).is_finite() || hi - lo <= f64::EPSILON {
        return 0.0;
    }
    let mut counts = vec![0.0f64; bins];
    for &x in xs {
        let b = (((x - lo) / (hi - lo) * bins as f64) as usize).min(bins - 1);
        counts[b] += 1.0;
    }
    let n = xs.len() as f64;
    -counts
        .iter()
        .filter(|&&c| c > 0.0)
        .map(|&c| {
            let p = c / n;
            p * p.ln()
        })
        .sum::<f64>()
}

/// The two IMF-entropy meta-features: `(H(IMF1), H(IMF2))`.
///
/// When the window is too smooth to yield an IMF, the corresponding entropy
/// is 0 (no oscillatory behaviour at that timescale).
pub fn imf_entropies(xs: &[f64], config: &EmdConfig) -> (f64, f64) {
    let imfs = decompose(xs, config);
    let h = |i: usize| {
        imfs.get(i).map_or(0.0, |imf| histogram_entropy(imf, config.entropy_bins))
    };
    (h(0), h(1))
}

/// Reusable working memory for [`imf_entropies_scratch`].
///
/// The sifting loop is by far the most allocation-heavy part of fingerprint
/// extraction: every pass builds two extrema lists, two knot arrays, two
/// splines and an output signal. Holding all of that here lets repeated
/// extraction (one EMD per behaviour source per fingerprint) run without
/// touching the allocator after warm-up, while producing bit-identical
/// results to the allocating [`imf_entropies`] path.
#[derive(Debug, Clone, Default)]
pub struct EmdScratch {
    residual: Vec<f64>,
    h: Vec<f64>,
    next: Vec<f64>,
    sift: SiftBuffers,
    counts: Vec<f64>,
}

impl EmdScratch {
    /// Empty scratch; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Buffers consumed by a single sifting pass.
#[derive(Debug, Clone, Default)]
struct SiftBuffers {
    /// Extremum indices; only the prefix counted by the sweep is valid.
    max_idx: Vec<usize>,
    min_idx: Vec<usize>,
    upper: SplineScratch,
    lower: SplineScratch,
    /// The two envelopes evaluated on the grid `0..n`.
    upper_grid: Vec<f64>,
    lower_grid: Vec<f64>,
}

/// Both [`local_extrema`] passes fused into one branch-free sweep over
/// `xs`: every index is written to both lists, and each list's length
/// advances by its own condition, so a rejected index is overwritten by the
/// next one. Returns the numbers of maxima and minima; the lists hold them
/// in their first entries, in the order [`local_extrema`] gives them.
fn local_extrema_both_into(
    xs: &[f64],
    max_out: &mut Vec<usize>,
    min_out: &mut Vec<usize>,
) -> (usize, usize) {
    let n = xs.len();
    if n < 3 {
        return (0, 0);
    }
    // One slot per candidate `1..n - 1`: a list's length never exceeds the
    // number of candidates already swept.
    for buf in [&mut *max_out, &mut *min_out] {
        if buf.len() < n - 2 {
            buf.resize(n - 2, 0);
        }
    }
    let (mut n_max, mut n_min) = (0, 0);
    for (i, w) in xs.windows(3).enumerate() {
        let (a, b, c) = (w[0], w[1], w[2]);
        max_out[n_max] = i + 1;
        min_out[n_min] = i + 1;
        n_max += (b > a && b >= c) as usize;
        n_min += (b < a && b <= c) as usize;
    }
    (n_max, n_min)
}

/// The knots of an endpoint-anchored envelope through the extrema at `idx`,
/// as [`sift_once`] builds them.
fn envelope_knots<'a>(xs: &'a [f64], idx: &'a [usize]) -> impl Iterator<Item = (f64, f64)> + 'a {
    let last = xs.len() - 1;
    let tail = (*idx.last().expect("an envelope has at least two extrema") != last).then_some(last);
    std::iter::once(0).chain(idx.iter().copied()).chain(tail).map(|i| (i as f64, xs[i]))
}

/// [`sift_once`] with reused buffers; returns `false` where the allocating
/// version returns `None`. Both envelopes are fitted together
/// ([`SplineScratch::fit_pair`]) and evaluated on the grid `0..n`
/// ([`SplineScratch::eval_grid`]), matching [`CubicSpline::eval`] at every
/// point.
fn sift_once_into(xs: &[f64], out: &mut Vec<f64>, s: &mut SiftBuffers) -> bool {
    let (n_max, n_min) = local_extrema_both_into(xs, &mut s.max_idx, &mut s.min_idx);
    if n_max < 2 || n_min < 2 {
        return false;
    }
    if !SplineScratch::fit_pair(
        &mut s.upper,
        &mut s.lower,
        envelope_knots(xs, &s.max_idx[..n_max]),
        envelope_knots(xs, &s.min_idx[..n_min]),
    ) {
        return false;
    }
    let n = xs.len();
    for grid in [&mut s.upper_grid, &mut s.lower_grid] {
        if grid.len() < n {
            grid.resize(n, 0.0);
        }
    }
    let (upper, lower) = (&mut s.upper_grid[..n], &mut s.lower_grid[..n]);
    s.upper.eval_grid(upper);
    s.lower.eval_grid(lower);
    out.clear();
    let mean_envelope = upper.iter().zip(lower.iter()).map(|(&u, &l)| 0.5 * (u + l));
    out.extend(xs.iter().zip(mean_envelope).map(|(&v, m)| v - m));
    true
}

/// [`extract_imf`] with reused buffers; the extracted IMF lands in `h`.
fn extract_imf_into(
    xs: &[f64],
    h: &mut Vec<f64>,
    next: &mut Vec<f64>,
    sift: &mut SiftBuffers,
    config: &EmdConfig,
) -> bool {
    if !sift_once_into(xs, h, sift) {
        return false;
    }
    for _ in 1..config.max_siftings {
        if !sift_once_into(h, next, sift) {
            break;
        }
        // Huang's criterion with both sums in one sweep; each accumulator
        // adds the same terms in the same order as the two-pass form.
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (a, b) in h.iter().zip(next.iter()) {
            num += (a - b) * (a - b);
            den += a * a;
        }
        let den = den.max(1e-12);
        std::mem::swap(h, next);
        if num / den < config.sd_threshold {
            break;
        }
    }
    true
}

/// [`histogram_entropy`] with a reused counts buffer.
fn histogram_entropy_into(xs: &[f64], bins: usize, counts: &mut Vec<f64>) -> f64 {
    if xs.len() < 2 || bins < 2 {
        return 0.0;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if !(hi - lo).is_finite() || hi - lo <= f64::EPSILON {
        return 0.0;
    }
    counts.clear();
    counts.resize(bins, 0.0);
    for &x in xs {
        let b = (((x - lo) / (hi - lo) * bins as f64) as usize).min(bins - 1);
        counts[b] += 1.0;
    }
    let n = xs.len() as f64;
    -counts
        .iter()
        .filter(|&&c| c > 0.0)
        .map(|&c| {
            let p = c / n;
            p * p.ln()
        })
        .sum::<f64>()
}

/// Allocation-free variant of [`imf_entropies`]: decomposition, sifting and
/// the entropy histograms all run inside `scratch`. Bit-identical output.
pub fn imf_entropies_scratch(xs: &[f64], config: &EmdConfig, scratch: &mut EmdScratch) -> (f64, f64) {
    let EmdScratch { residual, h, next, sift, counts } = scratch;
    residual.clear();
    residual.extend_from_slice(xs);
    let mut out = (0.0, 0.0);
    for k in 0..config.n_imfs {
        if !extract_imf_into(residual, h, next, sift, config) {
            break;
        }
        let e = histogram_entropy_into(h, config.entropy_bins, counts);
        if k == 0 {
            out.0 = e;
        } else if k == 1 {
            out.1 = e;
        }
        for (r, i) in residual.iter_mut().zip(h.iter()) {
            *r -= i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ficsum_stream::rng::{RandomSource, Xoshiro256pp};

    #[test]
    fn extrema_detection() {
        let xs = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0];
        assert_eq!(local_extrema(&xs, true), vec![1, 5]);
        assert_eq!(local_extrema(&xs, false), vec![3]);
    }

    #[test]
    fn monotone_signal_has_no_imfs() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert!(decompose(&xs, &EmdConfig::default()).is_empty());
        assert_eq!(imf_entropies(&xs, &EmdConfig::default()), (0.0, 0.0));
    }

    #[test]
    fn imf1_captures_the_fast_component() {
        // fast sine + slow sine: IMF1 should correlate with the fast one.
        let n = 256;
        let fast: Vec<f64> = (0..n).map(|i| (i as f64 * 1.0).sin()).collect();
        let slow: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin() * 2.0).collect();
        let xs: Vec<f64> = fast.iter().zip(&slow).map(|(a, b)| a + b).collect();
        let imfs = decompose(&xs, &EmdConfig::default());
        assert!(!imfs.is_empty());
        let imf1 = &imfs[0];
        // Correlation of IMF1 with the fast component.
        let mf = fast.iter().sum::<f64>() / n as f64;
        let mi = imf1.iter().sum::<f64>() / n as f64;
        let num: f64 = fast.iter().zip(imf1).map(|(f, i)| (f - mf) * (i - mi)).sum();
        let df: f64 = fast.iter().map(|f| (f - mf) * (f - mf)).sum::<f64>().sqrt();
        let di: f64 = imf1.iter().map(|i| (i - mi) * (i - mi)).sum::<f64>().sqrt();
        let corr = num / (df * di);
        assert!(corr > 0.8, "IMF1 should track the fast sine, corr={corr}");
    }

    #[test]
    fn decomposition_is_additive() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let xs: Vec<f64> = (0..128)
            .map(|i| (i as f64 * 0.9).sin() + 0.3 * (i as f64 * 0.1).cos() + rng.random::<f64>() * 0.1)
            .collect();
        let config = EmdConfig::default();
        let imfs = decompose(&xs, &config);
        assert!(!imfs.is_empty());
        // signal = sum(imfs) + residual; residual = signal - sum must have
        // fewer oscillations (fewer extrema) than the signal.
        let mut residual = xs.clone();
        for imf in &imfs {
            for (r, v) in residual.iter_mut().zip(imf) {
                *r -= v;
            }
        }
        let ext = |v: &[f64]| local_extrema(v, true).len() + local_extrema(v, false).len();
        assert!(
            ext(&residual) < ext(&xs),
            "residual must be smoother: {} vs {}",
            ext(&residual),
            ext(&xs)
        );
    }

    #[test]
    fn entropies_distinguish_dense_from_spiky_oscillation() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        // Dense oscillation: IMF values spread over their range.
        let noise: Vec<f64> = (0..128).map(|_| rng.random::<f64>()).collect();
        // Spiky signal: mostly flat with rare large impulses, so the IMF's
        // value histogram is concentrated near zero (low entropy).
        let spiky: Vec<f64> = (0..128)
            .map(|i| {
                let base = 0.01 * ((i % 3) as f64 - 1.0); // tiny ripple so extrema exist
                if i % 32 == 5 {
                    5.0
                } else {
                    base
                }
            })
            .collect();
        let (hn, hn2) = imf_entropies(&noise, &EmdConfig::default());
        let (hs, _) = imf_entropies(&spiky, &EmdConfig::default());
        assert!(hn > 0.0 && hn2 > 0.0);
        assert!(
            hn - hs > 0.5,
            "dense ({hn}) vs spiky ({hs}) IMF1 entropy should differ clearly"
        );
    }

    #[test]
    fn scratch_is_bit_identical_to_allocating_path_on_stream_shapes() {
        // The sequences extraction feeds EMD: feature values, label runs,
        // sparse error indicators and short error distances, at window-like
        // lengths, then every length up to 10. One scratch serves them all,
        // so buffers left longer by an earlier sequence are exercised too.
        // The IMFs themselves are compared too: an entropy histogram hides
        // a last-bit difference in the signal it bins.
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let mut scratch = EmdScratch::new();
        let config = EmdConfig::default();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut check = |xs: &[f64], what: &str| {
            let (a, b) = imf_entropies(xs, &config);
            let (sa, sb) = imf_entropies_scratch(xs, &config, &mut scratch);
            assert_eq!((a.to_bits(), b.to_bits()), (sa.to_bits(), sb.to_bits()), "{what}: {xs:?}");
            let EmdScratch { residual, h, next, sift, .. } = &mut scratch;
            residual.clear();
            residual.extend_from_slice(xs);
            for imf in decompose(xs, &config) {
                assert!(extract_imf_into(residual, h, next, sift, &config), "{what}: {xs:?}");
                assert_eq!(bits(h), bits(&imf), "{what}: {xs:?}");
                for (r, i) in residual.iter_mut().zip(h.iter()) {
                    *r -= i;
                }
            }
        };
        for trial in 0..40 {
            let n = [75, 50, 100, 30, 13][trial % 5];
            let noise: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
            check(&noise, "uniform noise");
            let mut label = 0.0;
            let runs: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.random::<f64>() < 0.15 {
                        label = 1.0 - label;
                    }
                    label
                })
                .collect();
            check(&runs, "label runs");
            let errors: Vec<f64> =
                (0..n).map(|_| if rng.random::<f64>() < 0.1 { 1.0 } else { 0.0 }).collect();
            check(&errors, "sparse errors");
            let distances: Vec<f64> =
                (0..n / 4).map(|_| (1 + rng.random_range(0..6usize)) as f64).collect();
            check(&distances, "error distances");
        }
        for n in 0..=10 {
            let noise: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
            check(&noise, "short noise");
            let bits: Vec<f64> = (0..n).map(|i| ((i * 7 + n) % 3 == 0) as u8 as f64).collect();
            check(&bits, "short 0/1");
        }
    }

    #[test]
    fn short_windows_do_not_panic() {
        for n in 0..10 {
            let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let _ = imf_entropies(&xs, &EmdConfig::default());
        }
    }
}
