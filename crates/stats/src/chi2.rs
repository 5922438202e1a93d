//! Central and noncentral χ² distributions.
//!
//! The BDD residual statistic `J = ‖z − Hθ̂‖²_W` follows:
//!
//! * under no attack: a **central** χ² with `M − n` degrees of freedom
//!   (measurement count minus state dimension), which calibrates the
//!   detection threshold for a target false-positive rate α;
//! * under attack `a` and MTD `H'`: a **noncentral** χ² with the same
//!   degrees of freedom and noncentrality `λ = ‖r'_a‖²_W` (Appendix B of
//!   the paper), which gives the detection probability in closed form.
//!
//! The noncentral tails are Poisson mixtures of central ones; they are
//! evaluated with one incomplete gamma per call and a recurrence walk
//! over the Poisson weights (AS 275), see [`NoncentralChiSquared`].

use crate::gamma::{ln_poisson_pmf, reg_lower_gamma, reg_upper_gamma};

/// Central χ² distribution with `k` degrees of freedom.
///
/// # Example
///
/// ```
/// use gridmtd_stats::chi2::ChiSquared;
///
/// let d = ChiSquared::new(4.0);
/// // Median of χ²_4 is about 3.357.
/// assert!((d.cdf(3.3567) - 0.5).abs() < 1e-4);
/// // Threshold for a 5e-4 false-positive rate.
/// let tau_sq = d.inv_cdf(1.0 - 5e-4);
/// assert!((d.sf(tau_sq) - 5e-4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    k: f64,
}

impl ChiSquared {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not strictly positive and finite.
    pub fn new(k: f64) -> ChiSquared {
        assert!(k > 0.0 && k.is_finite(), "χ² requires k > 0, got {k}");
        ChiSquared { k }
    }

    /// Degrees of freedom.
    pub fn df(&self) -> f64 {
        self.k
    }

    /// Cumulative distribution function `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_lower_gamma(self.k / 2.0, x / 2.0)
        }
    }

    /// Survival function `P(X > x)` with full tail precision.
    pub fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            reg_upper_gamma(self.k / 2.0, x / 2.0)
        }
    }

    /// Mean `k`.
    pub fn mean(&self) -> f64 {
        self.k
    }

    /// Variance `2k`.
    pub fn variance(&self) -> f64 {
        2.0 * self.k
    }

    /// Inverse CDF (quantile) by bracketed bisection.
    ///
    /// Accuracy ~1e-10 in `x`, ample for threshold calibration.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    pub fn inv_cdf(&self, p: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&p) && p > 0.0,
            "quantile requires 0 < p < 1, got {p}"
        );
        // Bracket: [0, hi] with hi grown until cdf(hi) >= p.
        let mut hi = self.k + 10.0 * (2.0 * self.k).sqrt() + 10.0;
        while self.cdf(hi) < p {
            hi *= 2.0;
        }
        let mut lo = 0.0;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + hi) {
                break;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Noncentral χ² distribution with `k` degrees of freedom and
/// noncentrality `lambda`.
///
/// Both tails are the Poisson(λ/2) mixture of central χ² tails,
/// `F(x; k, λ) = Σ_j e^{−λ/2} (λ/2)^j / j! · P(k/2 + j, x/2)` (and the
/// same with `Q = 1 − P` for the survival function), evaluated as a walk
/// over the Poisson weights (Ding 1992, AS 275; Benton & Krishnamoorthy
/// 2003). One regularized incomplete gamma is evaluated at the modal
/// index `j₀ = ⌊λ/2⌋`; every other term follows from its neighbour by
/// the recurrence `Q(a + 1, y) = Q(a, y) + t(a)` (mirrored,
/// `P(a + 1, y) = P(a, y) − t(a)`), where `t(a) = yᵃe⁻ʸ/Γ(a + 1)` costs
/// one multiplication per step. The walk runs outward from `j₀` in both
/// directions until the Poisson weights are exhausted and the terms are
/// negligible against the sum (`O(√λ)` steps of a few flops each near
/// the bulk), so a call evaluates one incomplete gamma whatever `λ` is,
/// and large `λ` never underflows the weights.
///
/// # Example
///
/// ```
/// use gridmtd_stats::chi2::{ChiSquared, NoncentralChiSquared};
///
/// let central = ChiSquared::new(6.0);
/// let shifted = NoncentralChiSquared::new(6.0, 9.0);
/// let tau = central.inv_cdf(0.999);
/// // An attack with noncentrality 9 is detected far more often than α.
/// assert!(shifted.sf(tau) > central.sf(tau));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoncentralChiSquared {
    k: f64,
    lambda: f64,
}

/// The tail a Poisson walk mixes: `P(a, y)` for the CDF, `Q(a, y)` for
/// the survival function.
#[derive(Debug, Clone, Copy)]
enum Tail {
    Lower,
    Upper,
}

impl NoncentralChiSquared {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0` or `lambda < 0` or either is non-finite.
    pub fn new(k: f64, lambda: f64) -> NoncentralChiSquared {
        assert!(
            k > 0.0 && k.is_finite(),
            "noncentral χ² requires k > 0, got {k}"
        );
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "noncentral χ² requires λ >= 0, got {lambda}"
        );
        NoncentralChiSquared { k, lambda }
    }

    /// Degrees of freedom.
    pub fn df(&self) -> f64 {
        self.k
    }

    /// Noncentrality parameter.
    pub fn noncentrality(&self) -> f64 {
        self.lambda
    }

    /// Mean `k + λ`.
    pub fn mean(&self) -> f64 {
        self.k + self.lambda
    }

    /// Variance `2(k + 2λ)`.
    pub fn variance(&self) -> f64 {
        2.0 * (self.k + 2.0 * self.lambda)
    }

    /// Cumulative distribution function `P(X ≤ x)`.
    ///
    /// Walks the smaller tail and complements it above the mean, as
    /// [`NoncentralChiSquared::sf`] does below it.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if self.lambda == 0.0 {
            return ChiSquared::new(self.k).cdf(x);
        }
        if x > self.mean() {
            return 1.0 - self.poisson_walk(x, Tail::Upper);
        }
        self.poisson_walk(x, Tail::Lower)
    }

    /// Survival function `P(X > x)`.
    ///
    /// Above the mean it walks the central survival functions `Q`
    /// themselves, never `1 − P`, so the upper tail retains relative
    /// precision. Below the mean it returns `1 − cdf`: the walk sums
    /// weights that add up to one only to a few ulps, so walking `Q`
    /// there drifts a few ulps below one where the lower tail is far
    /// under `10⁻¹⁶`, while the complement of the small tail rounds to
    /// the nearest double.
    pub fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        if self.lambda == 0.0 {
            return ChiSquared::new(self.k).sf(x);
        }
        if x < self.mean() {
            return 1.0 - self.poisson_walk(x, Tail::Lower);
        }
        self.poisson_walk(x, Tail::Upper)
    }

    /// `Σ_j w_j G(k/2 + j, x/2)` with Poisson(λ/2) weights `w_j` and `G`
    /// the regularized incomplete gamma of `tail`, for `x > 0`, `λ > 0`.
    ///
    /// `G` is evaluated once, at the modal index; the walk steps it with
    /// `t(a) = yᵃe⁻ʸ/Γ(a + 1)`, which moves `Q` up and `P` down as `a`
    /// grows. Every step is clamped into `[0, 1]`, so rounding never
    /// drives a vanishing tail negative. The modal weight and `t` are
    /// taken from [`ln_poisson_pmf`], which keeps their logarithms to
    /// about 1e-15 absolute even where the direct form
    /// `j ln(λ/2) − λ/2 − ln Γ(j + 1)` cancels terms of size 1e4.
    ///
    /// Each direction stops once its Poisson weights are exhausted
    /// (above the mode: the weights summed so far reach `1 − 10⁻¹⁴` or
    /// fall below `10⁻¹⁸`; below it: they fall below `10⁻¹⁸`) **and**
    /// its terms are negligible (`w·G ≤ 10⁻¹⁷·total`). The weights alone
    /// are not enough: above the mean `Q(k/2 + j, x/2)` grows with `j`,
    /// so far in the upper tail the terms past the last sizeable weight
    /// still carry much of a tiny survival probability.
    fn poisson_walk(&self, x: f64, tail: Tail) -> f64 {
        const TERM_EPS: f64 = 1e-17;
        let half = self.lambda / 2.0;
        let y = x / 2.0;
        let a0 = self.k / 2.0;
        let j0 = half.floor() as i64;
        let a_mode = a0 + j0 as f64;
        let w0 = ln_poisson_pmf(j0 as f64, half).exp();
        let t0 = ln_poisson_pmf(a_mode, y).exp();
        // Sign of `t(a)` in `G(a + 1) = G(a) ± t(a)`.
        let (g0, up) = match tail {
            Tail::Lower => (reg_lower_gamma(a_mode, y), -1.0),
            Tail::Upper => (reg_upper_gamma(a_mode, y), 1.0),
        };

        let mut total = w0 * g0;
        let mut weight_sum = w0;

        // Upward: once `j` is incremented, `g` and `t` still hold
        // `G(a0 + j − 1)` and `t(a0 + j − 1)`.
        let (mut w, mut g, mut t, mut j) = (w0, g0, t0, j0);
        loop {
            j += 1;
            w *= half / j as f64;
            g = (g + up * t).clamp(0.0, 1.0);
            t *= y / (a0 + j as f64);
            total += w * g;
            weight_sum += w;
            let weights_done = weight_sum >= 1.0 - 1e-14 || (w < 1e-18 && j > j0 + 4);
            if (weights_done && w * g <= TERM_EPS * total) || j - j0 > 10_000 {
                break;
            }
        }
        // Downward: once `j` is decremented, `g` and `t` still hold
        // `G(a0 + j + 1)` and `t(a0 + j + 1)`.
        let (mut w, mut g, mut t, mut j) = (w0, g0, t0, j0);
        while j > 0 {
            w *= j as f64 / half;
            j -= 1;
            t *= (a0 + j as f64 + 1.0) / y;
            g = (g - up * t).clamp(0.0, 1.0);
            total += w * g;
            if w < 1e-18 && j0 - j > 4 && w * g <= TERM_EPS * total {
                break;
            }
        }
        total.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_cdf_known_values() {
        // χ²_1: F(x) = erf(sqrt(x/2)); F(1) = 0.6826894921370859
        let d = ChiSquared::new(1.0);
        assert!((d.cdf(1.0) - 0.682_689_492_137_085_9).abs() < 1e-12);
        // χ²_2 is Exp(1/2): F(x) = 1 - e^{-x/2}
        let d2 = ChiSquared::new(2.0);
        for &x in &[0.5, 1.0, 4.0] {
            assert!((d2.cdf(x) - (1.0 - (-x / 2.0).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_roundtrips_cdf() {
        for &k in &[1.0, 3.0, 10.0, 40.0, 100.0] {
            let d = ChiSquared::new(k);
            for &p in &[0.001, 0.05, 0.5, 0.95, 0.9995] {
                let x = d.inv_cdf(p);
                assert!((d.cdf(x) - p).abs() < 1e-8, "k={k} p={p}");
            }
        }
    }

    #[test]
    fn central_moments() {
        let d = ChiSquared::new(7.0);
        assert_eq!(d.mean(), 7.0);
        assert_eq!(d.variance(), 14.0);
    }

    #[test]
    fn noncentral_with_zero_lambda_is_central() {
        let nc = NoncentralChiSquared::new(5.0, 0.0);
        let c = ChiSquared::new(5.0);
        for &x in &[0.1, 1.0, 5.0, 20.0] {
            assert!((nc.cdf(x) - c.cdf(x)).abs() < 1e-14);
        }
    }

    #[test]
    fn noncentral_cdf_sf_complementarity() {
        let nc = NoncentralChiSquared::new(12.0, 30.0);
        for &x in &[1.0, 10.0, 40.0, 42.0, 100.0] {
            assert!((nc.cdf(x) + nc.sf(x) - 1.0).abs() < 1e-10, "x={x}");
        }
    }

    #[test]
    fn noncentral_known_value() {
        // Cross-checked against an independent Poisson-mixture
        // implementation (and consistent with the Monte-Carlo test below).
        let nc = NoncentralChiSquared::new(4.0, 5.0);
        assert!(
            (nc.cdf(10.0) - 0.638_228_859_582_311).abs() < 1e-10,
            "got {}",
            nc.cdf(10.0)
        );
        let nc2 = NoncentralChiSquared::new(20.0, 25.0);
        assert!(
            (nc2.cdf(50.0) - 0.686_080_708_636_577_4).abs() < 1e-10,
            "got {}",
            nc2.cdf(50.0)
        );
    }

    #[test]
    fn noncentral_cdf_matches_monte_carlo() {
        // X = Σ_{i=1}^{k} (Z_i + δ_i)² with Σ δ_i² = λ is noncentral χ².
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (k, lambda) = (4usize, 5.0f64);
        let delta = (lambda / k as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(123);
        let n = 200_000;
        let x0 = 10.0;
        let mut below = 0usize;
        for _ in 0..n {
            let mut s = 0.0;
            for _ in 0..k {
                let z = crate::normal::sample_standard(&mut rng) + delta;
                s += z * z;
            }
            if s <= x0 {
                below += 1;
            }
        }
        let empirical = below as f64 / n as f64;
        let analytic = NoncentralChiSquared::new(k as f64, lambda).cdf(x0);
        assert!(
            (empirical - analytic).abs() < 0.005,
            "MC {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn detection_probability_increases_with_noncentrality() {
        // Theorem 1's mechanism: P(X > τ) is increasing in λ.
        let tau = ChiSquared::new(30.0).inv_cdf(1.0 - 5e-4);
        let mut prev = 0.0;
        for i in 0..20 {
            let lambda = i as f64 * 5.0;
            let pd = NoncentralChiSquared::new(30.0, lambda).sf(tau);
            assert!(pd >= prev - 1e-12, "λ={lambda}: {pd} < {prev}");
            prev = pd;
        }
        // And it approaches 1 for huge noncentrality.
        assert!(NoncentralChiSquared::new(30.0, 500.0).sf(tau) > 0.999);
    }

    #[test]
    fn noncentral_moments() {
        let nc = NoncentralChiSquared::new(6.0, 4.0);
        assert_eq!(nc.mean(), 10.0);
        assert_eq!(nc.variance(), 2.0 * (6.0 + 8.0));
    }

    #[test]
    fn large_lambda_stability() {
        // λ large enough that naive series from j=0 would underflow.
        let nc = NoncentralChiSquared::new(50.0, 2000.0);
        let m = nc.mean();
        assert!(nc.cdf(m) > 0.4 && nc.cdf(m) < 0.6);
        assert!(nc.cdf(m * 2.0) > 0.999_9);
        assert!(nc.cdf(m * 0.5) < 1e-3);
    }

    #[test]
    #[should_panic(expected = "requires k > 0")]
    fn zero_df_panics() {
        ChiSquared::new(0.0);
    }

    #[test]
    #[should_panic(expected = "λ >= 0")]
    fn negative_lambda_panics() {
        NoncentralChiSquared::new(1.0, -1.0);
    }
}
