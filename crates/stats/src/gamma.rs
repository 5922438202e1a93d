//! Gamma-family special functions.
//!
//! Provides the log-gamma function (Lanczos approximation) and the
//! regularized incomplete gamma functions `P(a, x)` / `Q(a, x)`, which
//! together give the central χ² distribution in closed form:
//! `F_{χ²_k}(x) = P(k/2, x/2)`.

/// Lanczos coefficients (g = 7, n = 9), double-precision accurate.
/// Quoted digit-for-digit from the published table, hence beyond f64
/// precision.
const LANCZOS_G: f64 = 7.0;
#[allow(clippy::excessive_precision)]
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_571_6e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Accurate to ~15 significant digits over the range used by the χ²
/// machinery (half-integer arguments up to a few hundred).
///
/// # Panics
///
/// Panics if `x <= 0` (reflection is not needed in this workspace).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps accuracy for small positive arguments.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln(μˣe^{−μ}/Γ(x + 1))`, the log Poisson(μ) probability of `x`
/// extended to real `x ≥ 0`, for `μ > 0`.
///
/// The direct form `x·ln μ − μ − ln Γ(x + 1)` cancels terms of size
/// `x ln μ`, so its absolute error grows like `x·ε` (about 1e-12 at
/// `x ≈ 2000`). This uses Loader's saddle-point split instead,
/// `−stirlerr(x) − bd0(x, μ) − ½ln(2πx)`, whose parts are each small
/// near the mode, and keeps about 1e-15 absolute for any `x`.
///
/// # Panics
///
/// Panics if `x < 0` or `μ <= 0`.
pub fn ln_poisson_pmf(x: f64, mu: f64) -> f64 {
    assert!(
        x >= 0.0 && mu > 0.0,
        "ln_poisson_pmf requires x >= 0 and μ > 0, got x = {x}, μ = {mu}"
    );
    if x == 0.0 {
        return -mu;
    }
    -stirlerr(x) - bd0(x, mu) - 0.5 * (2.0 * std::f64::consts::PI * x).ln()
}

/// `ln Γ(x + 1) − ((x + ½)ln x − x + ½ln 2π)`, the error of Stirling's
/// formula, for `x > 0`: its asymptotic series above 15, directly below.
fn stirlerr(x: f64) -> f64 {
    const S0: f64 = 1.0 / 12.0;
    const S1: f64 = 1.0 / 360.0;
    const S2: f64 = 1.0 / 1260.0;
    const S3: f64 = 1.0 / 1680.0;
    const S4: f64 = 1.0 / 1188.0;
    if x <= 15.0 {
        return ln_gamma(x + 1.0) - (x + 0.5) * x.ln() + x
            - 0.5 * (2.0 * std::f64::consts::PI).ln();
    }
    let xx = x * x;
    if x > 500.0 {
        (S0 - S1 / xx) / x
    } else if x > 80.0 {
        (S0 - (S1 - S2 / xx) / xx) / x
    } else if x > 35.0 {
        (S0 - (S1 - (S2 - S3 / xx) / xx) / xx) / x
    } else {
        (S0 - (S1 - (S2 - (S3 - S4 / xx) / xx) / xx) / xx) / x
    }
}

/// `x·ln(x/μ) + μ − x` (the deviance term of the Poisson saddle point),
/// by its series in `v = (x − μ)/(x + μ)` when `x` is near `μ`, where
/// the direct form cancels.
fn bd0(x: f64, mu: f64) -> f64 {
    if (x - mu).abs() >= 0.1 * (x + mu) {
        x * (x / mu).ln() + mu - x
    } else {
        bd0_series(x, mu)
    }
}

/// [`bd0`] by its series `(x − μ)v + 2x·Σ_{j≥1} v^{2j+1}/(2j + 1)` in
/// `v = (x − μ)/(x + μ)`, convergent for any `|v| < 1`.
fn bd0_series(x: f64, mu: f64) -> f64 {
    let v = (x - mu) / (x + mu);
    let v2 = v * v;
    let mut s = (x - mu) * v;
    let mut ej = 2.0 * x * v;
    for j in 1..MAX_ITER {
        ej *= v2;
        let next = s + ej / (2 * j + 1) as f64;
        if next == s {
            break;
        }
        s = next;
    }
    s
}

/// Maximum iterations for the series / continued-fraction evaluations.
const MAX_ITER: usize = 500;
const EPS: f64 = 1e-15;

/// Regularized lower incomplete gamma function `P(a, x)`, for `a > 0`,
/// `x ≥ 0`.
///
/// `P(a, x) = γ(a, x) / Γ(a)` increases from 0 at `x = 0` to 1 as
/// `x → ∞`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_lower_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
///
/// Computed directly by continued fraction when `x` is large so the upper
/// tail keeps full relative precision — important because the BDD
/// false-positive rates in the paper are as small as `5 × 10⁻⁴`.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_upper_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_upper_gamma requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_upper_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion of `P(a, x)`, convergent for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut ap = a;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Lentz continued fraction for `Q(a, x)`, convergent for `x ≥ a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Error function `erf(x)` via the incomplete gamma identity
/// `erf(x) = sign(x) · P(1/2, x²)`.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        reg_lower_gamma(0.5, x * x)
    } else {
        -reg_lower_gamma(0.5, x * x)
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)` with full relative
/// precision in the upper tail.
pub fn erfc(x: f64) -> f64 {
    if x <= 0.0 {
        1.0 + reg_lower_gamma(0.5, x * x).min(1.0) * if x == 0.0 { 0.0 } else { 1.0 }
    } else {
        reg_upper_gamma(0.5, x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts: [f64; 7] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let got = ln_gamma((n + 1) as f64);
            assert!((got - f.ln()).abs() < 1e-12, "Γ({}) mismatch: {got}", n + 1);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        let got = ln_gamma(0.5);
        assert!((got - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-12);
        // Γ(3/2) = √π / 2
        let got = ln_gamma(1.5);
        let expect = 0.5 * std::f64::consts::PI.ln() - 2.0_f64.ln();
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn incomplete_gamma_complementarity() {
        for &a in &[0.5, 1.0, 2.5, 10.0, 50.0] {
            for &x in &[0.1, 1.0, 5.0, 20.0, 100.0] {
                let p = reg_lower_gamma(a, x);
                let q = reg_upper_gamma(a, x);
                assert!((p + q - 1.0).abs() < 1e-12, "a={a} x={x}: p+q={}", p + q);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.0, 0.5, 1.0, 3.0, 10.0] {
            let got = reg_lower_gamma(1.0, x);
            assert!((got - (1.0 - (-x).exp())).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn incomplete_gamma_is_monotone_in_x() {
        let a = 3.7;
        let mut prev = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.3;
            let p = reg_lower_gamma(a, x);
            assert!(p >= prev - 1e-14);
            prev = p;
        }
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-15);
        // erf(1) = 0.8427007929497149
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-12);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-12);
        assert!((erf(3.0) - 0.999_977_909_503_001_4).abs() < 1e-12);
    }

    #[test]
    fn erfc_tail_precision() {
        // erfc(5) = 1.5374597944280347e-12; direct 1-erf would lose all digits.
        let got = erfc(5.0);
        assert!(
            (got / 1.537_459_794_428_034_7e-12 - 1.0).abs() < 1e-9,
            "got {got}"
        );
    }

    #[test]
    fn ln_poisson_pmf_matches_the_direct_form_where_it_is_exact() {
        // Small arguments: the direct form has nothing to cancel.
        for &(x, mu) in &[(0.0, 2.0), (1.0, 0.3), (3.0, 3.5), (7.5, 2.0), (15.0, 14.0)] {
            let direct = x * f64::ln(mu) - mu - ln_gamma(x + 1.0);
            let got = ln_poisson_pmf(x, mu);
            assert!(
                (got - direct).abs() < 1e-13,
                "x={x} μ={mu}: {got} vs {direct}"
            );
        }
        // Large arguments: the pmf sums to one over the integers, to
        // within the rounding of a few hundred terms.
        for &mu in &[40.0, 1907.3, 2500.0] {
            let j0 = f64::floor(mu);
            let total: f64 = (0..=(j0 as i64 + 600))
                .map(|j| ln_poisson_pmf(j as f64, mu).exp())
                .sum();
            assert!((total - 1.0).abs() < 1e-14, "μ={mu}: Σ = {total}");
        }
        // The series and direct forms of bd0 agree where both are
        // accurate, on either side of the switch.
        for &(x, mu) in &[
            (125.0_f64, 100.0),
            (119.0, 100.0),
            (80.0, 100.0),
            (2300.0, 1907.3),
        ] {
            let direct = x * (x / mu).ln() + mu - x;
            let series = bd0_series(x, mu);
            assert!((series / direct - 1.0).abs() < 1e-13, "x={x} μ={mu}");
        }
    }

    #[test]
    #[should_panic(expected = "requires a > 0")]
    fn negative_shape_panics() {
        reg_lower_gamma(-1.0, 1.0);
    }
}
