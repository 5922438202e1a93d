//! Reference noncentral χ² tails: the Poisson(λ/2) mixture summed term
//! by term, one full incomplete gamma per Poisson term, outward from the
//! modal index.
//!
//! Untruncated to double precision, and sharing neither a stopping rule
//! nor a log-prefactor with `NoncentralChiSquared`'s walk:
//!
//! * the weights are the Poisson ratios `w_{j+1}/w_j = (λ/2)/(j + 1)`
//!   taken from the mode and normalized by their sum over the whole
//!   support (every weight down to 1e-300), so no `exp` of a large log
//!   prefactor enters them;
//! * each side of the mixture is summed until its terms are falling and
//!   below 1e-24 of the running total. The terms are log-concave in `j`
//!   (Poisson weights times a Poisson tail in the shape parameter), so
//!   once they fall they keep falling, and what is left is far below
//!   double precision of the sum.
//!
//! Shared by the stats property test and the core pipeline agreement
//! test (`#[path]`-included there).

use gridmtd_stats::chi2::ChiSquared;
use gridmtd_stats::gamma::{reg_lower_gamma, reg_upper_gamma};

/// Smallest unnormalized weight kept in the support.
const SUPPORT_FLOOR: f64 = 1e-300;
/// A side stops once its falling terms drop below this share of the sum.
const TERM_EPS: f64 = 1e-24;

/// `P(X ≤ x)` for `X ~ χ²_nc(k, λ)`, one `reg_lower_gamma` per term.
pub fn cdf(k: f64, lambda: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if lambda == 0.0 {
        return ChiSquared::new(k).cdf(x);
    }
    mixture(k, lambda, x, reg_lower_gamma)
}

/// `P(X > x)` for `X ~ χ²_nc(k, λ)`, one `reg_upper_gamma` per term.
pub fn sf(k: f64, lambda: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    if lambda == 0.0 {
        return ChiSquared::new(k).sf(x);
    }
    mixture(k, lambda, x, reg_upper_gamma)
}

/// `Σ_j w_j G(k/2 + j, x/2)` for `λ > 0`, `x > 0`.
fn mixture(k: f64, lambda: f64, x: f64, tail: fn(f64, f64) -> f64) -> f64 {
    let half = lambda / 2.0;
    let j0 = half.floor() as usize;
    // Unnormalized weights relative to the mode: `up[i]` is index
    // `j0 + i`, `down[i]` is index `j0 − 1 − i`.
    let mut up = vec![1.0_f64];
    loop {
        let r = up[up.len() - 1] * half / (j0 + up.len()) as f64;
        if r < SUPPORT_FLOOR {
            break;
        }
        up.push(r);
    }
    let mut down = Vec::new();
    let mut r = 1.0_f64;
    for j in (0..j0).rev() {
        r *= (j + 1) as f64 / half;
        if r < SUPPORT_FLOOR {
            break;
        }
        down.push(r);
    }
    // Smallest first, so the normalization loses nothing to order.
    let norm: f64 = up.iter().rev().chain(down.iter().rev()).sum();

    let (a0, y) = (k / 2.0, x / 2.0);
    let term = |j: usize, r: f64| r / norm * tail(a0 + j as f64, y);
    let mode = term(j0, up[0]);
    let mut total = mode;
    let mut prev = mode;
    for (i, &r) in up.iter().enumerate().skip(1) {
        let t = term(j0 + i, r);
        total += t;
        if t < prev && t <= TERM_EPS * total {
            break;
        }
        prev = t;
    }
    let mut prev = mode;
    for (i, &r) in down.iter().enumerate() {
        let t = term(j0 - 1 - i, r);
        total += t;
        if t < prev && t <= TERM_EPS * total {
            break;
        }
        prev = t;
    }
    total.clamp(0.0, 1.0)
}
