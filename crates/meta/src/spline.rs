//! Natural cubic spline interpolation.
//!
//! Used by the empirical mode decomposition to build upper/lower envelopes
//! through the local extrema of a signal. Knots are `(x, y)` pairs with
//! strictly increasing `x`; the spline has zero second derivative at both
//! ends (the "natural" boundary condition) and is evaluated with clamped
//! constant extrapolation outside the knot range.
//!
//! [`CubicSpline`] is the reference: one fit, one binary search per query.
//! [`SplineScratch`] is what EMD runs: reusable storage, two splines fitted
//! in lockstep and read on the integer grid, bit-identical to the reference.

/// A natural cubic spline through a set of knots.
#[derive(Debug, Clone)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots.
    m: Vec<f64>,
}

impl CubicSpline {
    /// Fits a natural cubic spline. Requires at least 2 knots with strictly
    /// increasing `x`; returns `None` otherwise.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Option<Self> {
        let n = xs.len();
        if n < 2 || n != ys.len() {
            return None;
        }
        if xs.windows(2).any(|w| w[1] <= w[0]) {
            return None;
        }
        // Solve the tridiagonal system for second derivatives (Thomas
        // algorithm). Natural boundary: m[0] = m[n-1] = 0.
        let mut m = vec![0.0; n];
        if n > 2 {
            let k = n - 2; // interior unknowns
            let mut a = vec![0.0; k]; // sub-diagonal
            let mut b = vec![0.0; k]; // diagonal
            let mut c = vec![0.0; k]; // super-diagonal
            let mut d = vec![0.0; k]; // rhs
            for i in 0..k {
                let h0 = xs[i + 1] - xs[i];
                let h1 = xs[i + 2] - xs[i + 1];
                a[i] = h0;
                b[i] = 2.0 * (h0 + h1);
                c[i] = h1;
                d[i] = 6.0 * ((ys[i + 2] - ys[i + 1]) / h1 - (ys[i + 1] - ys[i]) / h0);
            }
            // Forward elimination.
            for i in 1..k {
                let w = a[i] / b[i - 1];
                b[i] -= w * c[i - 1];
                d[i] -= w * d[i - 1];
            }
            // Back substitution.
            m[k] = d[k - 1] / b[k - 1];
            for i in (0..k - 1).rev() {
                m[i + 1] = (d[i] - c[i] * m[i + 2]) / b[i];
            }
        }
        Some(Self { xs: xs.to_vec(), ys: ys.to_vec(), m })
    }

    /// Evaluates the spline at `x`. Outside the knot range the boundary
    /// value is extended (constant extrapolation keeps EMD envelopes sane).
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        // Binary search for the containing interval.
        let i = match self.xs.binary_search_by(|v| v.total_cmp(&x)) {
            Ok(i) => return self.ys[i],
            Err(i) => i - 1,
        };
        let h = self.xs[i + 1] - self.xs[i];
        let t = x - self.xs[i];
        let u = self.xs[i + 1] - x;
        (self.m[i] * u * u * u + self.m[i + 1] * t * t * t) / (6.0 * h)
            + (self.ys[i] / h - self.m[i] * h / 6.0) * u
            + (self.ys[i + 1] / h - self.m[i + 1] * h / 6.0) * t
    }
}

/// A natural cubic spline with caller-owned, reusable storage.
///
/// Functionally identical to [`CubicSpline`] — the fit solves the same
/// tridiagonal system and the evaluation uses the same interpolation
/// formula, operand for operand — but every buffer (knots, second
/// derivatives, eliminated diagonal and right-hand side) is retained across
/// fits, so refitting inside a hot loop allocates nothing after warm-up.
/// Built for the EMD sifting loop, which fits an upper and a lower envelope
/// per sifting pass and reads both on the integer grid `x = 0, 1, …`:
///
/// * [`SplineScratch::fit_pair`] solves the two envelopes' systems in
///   lockstep. Each Thomas solve is a serial chain of divisions; advancing
///   two independent chains in one loop lets their latencies overlap.
/// * [`SplineScratch::eval_grid`] walks the knots segment by segment,
///   computes a segment's interpolation terms once, and fills the integer
///   points inside it in a straight loop. A point on a knot gets the knot
///   value, as [`CubicSpline::eval`] gives it.
#[derive(Debug, Clone, Default)]
pub struct SplineScratch {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the knots.
    m: Vec<f64>,
    /// Diagonal and right-hand side of the interior system after forward
    /// elimination.
    b: Vec<f64>,
    d: Vec<f64>,
}

/// Forward-elimination state of one natural-spline system between rows:
/// the last knot gap and slope, and the previous row's super-diagonal,
/// eliminated diagonal and eliminated right-hand side.
struct Sweep {
    h0: f64,
    s0: f64,
    pc: f64,
    pb: f64,
    pd: f64,
}

impl SplineScratch {
    /// Empty scratch; buffers grow on first fit and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores the knots and sizes the buffers. Same contract as
    /// [`CubicSpline::fit`]: `false` unless there are at least 2 knots with
    /// strictly increasing `x`.
    fn load(&mut self, knots: impl IntoIterator<Item = (f64, f64)>) -> bool {
        self.xs.clear();
        self.ys.clear();
        for (x, y) in knots {
            self.xs.push(x);
            self.ys.push(y);
        }
        let n = self.xs.len();
        if n < 2 || self.xs.windows(2).any(|w| w[1] <= w[0]) {
            return false;
        }
        // Natural boundary: m[0] = m[n - 1] = 0; the interior is solved.
        self.m.clear();
        self.m.resize(n, 0.0);
        // Every interior row of b/d is written before it is read, so the
        // buffers only grow, never refill.
        let k = n - 2;
        if self.b.len() < k {
            self.b.resize(k, 0.0);
            self.d.resize(k, 0.0);
        }
        true
    }

    // The solver below advances one interior row at a time, so that two
    // systems can share a loop. Row `i` is built from knots `i..=i + 2`
    // exactly as in [`CubicSpline::fit`] (sub-diagonal `h0`, diagonal
    // `2 (h0 + h1)`, super-diagonal `h1`, rhs `6 (s1 - s0)`) and eliminated
    // against the previous row with the same operands as the indexed form.
    // Each knot's left slope is the previous knot's right slope, so it is
    // carried rather than divided again.

    /// Builds interior row 0, which has nothing to eliminate.
    #[inline(always)]
    fn forward_first(&mut self) -> Sweep {
        let (xs, ys) = (&self.xs, &self.ys);
        let h0 = xs[1] - xs[0];
        let s0 = (ys[1] - ys[0]) / h0;
        let h1 = xs[2] - xs[1];
        let s1 = (ys[2] - ys[1]) / h1;
        let pb = 2.0 * (h0 + h1);
        let pd = 6.0 * (s1 - s0);
        self.b[0] = pb;
        self.d[0] = pd;
        Sweep { h0: h1, s0: s1, pc: h1, pb, pd }
    }

    /// Builds interior row `i >= 1` and eliminates it.
    #[inline(always)]
    fn forward_row(&mut self, sw: &mut Sweep, i: usize) {
        let h1 = self.xs[i + 2] - self.xs[i + 1];
        let s1 = (self.ys[i + 2] - self.ys[i + 1]) / h1;
        let w = sw.h0 / sw.pb;
        sw.pb = 2.0 * (sw.h0 + h1) - w * sw.pc;
        sw.pd = 6.0 * (s1 - sw.s0) - w * sw.pd;
        self.b[i] = sw.pb;
        self.d[i] = sw.pd;
        sw.pc = h1;
        sw.h0 = h1;
        sw.s0 = s1;
    }

    /// Back substitution's first step, `m[k] = d[k - 1] / b[k - 1]`;
    /// returns `m[k]`.
    #[inline(always)]
    fn back_last(&mut self, k: usize) -> f64 {
        self.m[k] = self.d[k - 1] / self.b[k - 1];
        self.m[k]
    }

    /// `m[i + 1] = (d[i] - c[i] m[i + 2]) / b[i]` with `next = m[i + 2]` and
    /// `c[i]` the row's super-diagonal `x[i + 2] - x[i + 1]`; returns
    /// `m[i + 1]`.
    #[inline(always)]
    fn back_row(&mut self, i: usize, next: f64) -> f64 {
        let ci = self.xs[i + 2] - self.xs[i + 1];
        self.m[i + 1] = (self.d[i] - ci * next) / self.b[i];
        self.m[i + 1]
    }

    /// Fits natural cubic splines through two sets of knots at once —
    /// `(x, y)` pairs with strictly increasing `x`, as for
    /// [`CubicSpline::fit`]. Returns `false` (leaving both scratches unusable
    /// until the next successful fit) when either set is invalid.
    ///
    /// The two tridiagonal systems are solved in lockstep: one loop advances
    /// both forward eliminations, another both back substitutions, and the
    /// longer system finishes alone. Every value is computed from the same
    /// operands in the same order as [`CubicSpline::fit`], so the second
    /// derivatives are bit-identical to it.
    pub fn fit_pair(
        p: &mut SplineScratch,
        q: &mut SplineScratch,
        p_knots: impl IntoIterator<Item = (f64, f64)>,
        q_knots: impl IntoIterator<Item = (f64, f64)>,
    ) -> bool {
        if !p.load(p_knots) || !q.load(q_knots) {
            return false;
        }
        // Interior unknowns of each system (0 for a two-knot line).
        let kp = p.xs.len() - 2;
        let kq = q.xs.len() - 2;
        let both = kp.min(kq);
        if both == 0 {
            p.solve_alone();
            q.solve_alone();
            return true;
        }
        let mut sp = p.forward_first();
        let mut sq = q.forward_first();
        for i in 1..both {
            p.forward_row(&mut sp, i);
            q.forward_row(&mut sq, i);
        }
        for i in both..kp {
            p.forward_row(&mut sp, i);
        }
        for i in both..kq {
            q.forward_row(&mut sq, i);
        }
        // Step `j` substitutes row `k - 2 - j` of each system, so both
        // chains start together from their own last row.
        let (mut np, mut nq) = (p.back_last(kp), q.back_last(kq));
        for j in 0..both - 1 {
            np = p.back_row(kp - 2 - j, np);
            nq = q.back_row(kq - 2 - j, nq);
        }
        for i in (0..kp - both).rev() {
            np = p.back_row(i, np);
        }
        for i in (0..kq - both).rev() {
            nq = q.back_row(i, nq);
        }
        true
    }

    /// Solves this scratch's loaded system by itself (the case of
    /// [`SplineScratch::fit_pair`] where either system has no interior).
    fn solve_alone(&mut self) {
        let k = self.xs.len() - 2;
        if k == 0 {
            return;
        }
        let mut sweep = self.forward_first();
        for i in 1..k {
            self.forward_row(&mut sweep, i);
        }
        let mut next = self.back_last(k);
        for i in (0..k - 1).rev() {
            next = self.back_row(i, next);
        }
    }

    /// Evaluates the fitted spline at every integer `x = 0, 1, …,
    /// out.len() - 1` into `out`. Bit-identical to [`CubicSpline::eval`] at
    /// each point, including knot hits and the clamped ends.
    ///
    /// Works segment by segment: the terms that do not depend on `x` are
    /// computed once per segment that holds a grid point, by exactly the
    /// expressions [`CubicSpline::eval`] evaluates per point, and `t`/`u`
    /// are the same differences of `x` and the segment's knots.
    pub fn eval_grid(&self, out: &mut [f64]) {
        let (xs, ys, m) = (&self.xs, &self.ys, &self.m);
        let n = xs.len();
        let g = out.len();
        // Left clamp: x <= xs[0].
        let mut x = 0usize;
        while x < g && (x as f64) <= xs[0] {
            out[x] = ys[0];
            x += 1;
        }
        for i in 0..n - 1 {
            let (x0, x1) = (xs[i], xs[i + 1]);
            // Grid points strictly inside (x0, x1); those left of x0 were
            // written by the previous segment or the left clamp.
            let end = (x1.ceil() as usize).min(g);
            if x < end {
                let h = x1 - x0;
                let six_h = 6.0 * h;
                let (m0, m1) = (m[i], m[i + 1]);
                let c0 = ys[i] / h - m0 * h / 6.0;
                let c1 = ys[i + 1] / h - m1 * h / 6.0;
                // The grid coordinate is counted in floating point: every
                // integer below 2^53 is exact, so it equals `x as f64`.
                let mut xf = x as f64;
                for slot in &mut out[x..end] {
                    let t = xf - x0;
                    let u = x1 - xf;
                    *slot = (m0 * u * u * u + m1 * t * t * t) / six_h + c0 * u + c1 * t;
                    xf += 1.0;
                }
                x = end;
            }
            // A grid point on the knot takes the knot value.
            if x < g && x as f64 == x1 {
                out[x] = ys[i + 1];
                x += 1;
            }
        }
        // Right clamp: x >= xs[n - 1].
        out[x..].fill(ys[n - 1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_knots_exactly() {
        let xs = [0.0, 1.0, 2.5, 4.0];
        let ys = [1.0, -1.0, 3.0, 0.5];
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((s.eval(*x) - y).abs() < 1e-9, "knot ({x},{y})");
        }
    }

    #[test]
    fn two_knots_is_linear() {
        let s = CubicSpline::fit(&[0.0, 2.0], &[0.0, 4.0]).unwrap();
        assert!((s.eval(1.0) - 2.0).abs() < 1e-12);
        assert!((s.eval(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reproduces_smooth_function_between_knots() {
        // Sample sin on a dense grid; spline error should be small.
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for i in 0..190 {
            let x = i as f64 * 0.05;
            assert!(
                (s.eval(x) - x.sin()).abs() < 0.01,
                "x={x} spline={} sin={}",
                s.eval(x),
                x.sin()
            );
        }
    }

    #[test]
    fn extrapolation_is_clamped() {
        let s = CubicSpline::fit(&[0.0, 1.0, 2.0], &[5.0, 0.0, 7.0]).unwrap();
        assert_eq!(s.eval(-10.0), 5.0);
        assert_eq!(s.eval(10.0), 7.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(CubicSpline::fit(&[0.0], &[1.0]).is_none());
        assert!(CubicSpline::fit(&[0.0, 0.0], &[1.0, 2.0]).is_none());
        assert!(CubicSpline::fit(&[0.0, 1.0], &[1.0]).is_none());
        assert!(CubicSpline::fit(&[1.0, 0.5], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn scratch_is_bit_identical_to_legacy_on_ascending_queries() {
        use ficsum_stream::rng::{RandomSource, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        // Integer-spaced knots with occasional gaps, like EMD extrema; some
        // sets start right of 0 or sit off the grid, to cover the clamps.
        let mut knots = |k: usize, start: f64| {
            let mut x = start;
            let mut xs = Vec::new();
            for _ in 0..k {
                xs.push(x);
                x += 1.0 + (rng.random::<f64>() * 3.0).floor();
            }
            let ys: Vec<f64> = (0..k).map(|_| rng.random::<f64>() * 4.0 - 2.0).collect();
            (xs, ys)
        };
        let (mut p, mut q) = (SplineScratch::new(), SplineScratch::new());
        let (mut p_grid, mut q_grid) = (Vec::new(), Vec::new());
        for trial in 0..60 {
            // Unequal knot counts in both directions, equal ones, and the
            // two-knot line (no interior unknowns) on either side.
            let kp = 2 + (trial % 30);
            let kq = 2 + (trial * 7 % 23);
            let start = [0.0, 0.0, 2.0, 0.5][trial % 4];
            let (pxs, pys) = knots(kp, start);
            let (qxs, qys) = knots(kq, 0.0);
            let pairs = |xs: &[f64], ys: &[f64]| -> Vec<(f64, f64)> {
                xs.iter().copied().zip(ys.iter().copied()).collect()
            };
            assert!(SplineScratch::fit_pair(&mut p, &mut q, pairs(&pxs, &pys), pairs(&qxs, &qys)));
            for (xs, ys, scratch, grid) in
                [(&pxs, &pys, &p, &mut p_grid), (&qxs, &qys, &q, &mut q_grid)]
            {
                let legacy = CubicSpline::fit(xs, ys).unwrap();
                let len = xs.last().unwrap().ceil() as usize + 3;
                grid.clear();
                grid.resize(len, f64::NAN);
                scratch.eval_grid(grid);
                for (x, v) in grid.iter().enumerate() {
                    assert_eq!(
                        legacy.eval(x as f64).to_bits(),
                        v.to_bits(),
                        "trial {trial}, knots {}, x {x}",
                        xs.len()
                    );
                }
            }
        }
        // Invalid knots on either side fail the pair.
        assert!(!SplineScratch::fit_pair(&mut p, &mut q, [(0.0, 1.0)], [(0.0, 1.0), (1.0, 2.0)]));
        assert!(!SplineScratch::fit_pair(
            &mut p,
            &mut q,
            [(0.0, 1.0), (1.0, 2.0)],
            [(1.0, 1.0), (1.0, 2.0)]
        ));
    }

    #[test]
    fn natural_boundary_second_derivative_is_zero() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x * 0.7).cos()).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        assert_eq!(s.m[0], 0.0);
        assert_eq!(s.m[9], 0.0);
    }
}
