//! Reference noncentral χ² tails: the Poisson(λ/2) mixture summed term
//! by term, one full incomplete gamma per Poisson term, outward from the
//! modal index. This is the direct form of the sums that
//! `NoncentralChiSquared` evaluates by recurrence; it stops on the same
//! weight criteria, so both sum the same terms.
//!
//! Shared by the stats property test and the core pipeline agreement
//! test (`#[path]`-included there).

use gridmtd_stats::chi2::ChiSquared;
use gridmtd_stats::gamma::{ln_gamma, reg_lower_gamma, reg_upper_gamma};

/// `P(X ≤ x)` for `X ~ χ²_nc(k, λ)`, one `reg_lower_gamma` per term.
pub fn cdf(k: f64, lambda: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if lambda == 0.0 {
        return ChiSquared::new(k).cdf(x);
    }
    let half = lambda / 2.0;
    // Start at the modal Poisson term and expand outward until the
    // accumulated weight is (numerically) complete.
    let j0 = half.floor() as i64;
    let ln_w0 = -half + (j0 as f64) * half.ln() - ln_gamma(j0 as f64 + 1.0);
    let w0 = ln_w0.exp();

    let mut total = w0 * reg_lower_gamma(k / 2.0 + j0 as f64, x / 2.0);
    let mut weight_sum = w0;

    // upward
    let mut w = w0;
    let mut j = j0;
    while weight_sum < 1.0 - 1e-14 {
        j += 1;
        w *= half / j as f64;
        if w < 1e-18 && j > j0 + 4 {
            break;
        }
        total += w * reg_lower_gamma(k / 2.0 + j as f64, x / 2.0);
        weight_sum += w;
        if j - j0 > 10_000 {
            break;
        }
    }
    // downward
    let mut w = w0;
    let mut j = j0;
    while j > 0 {
        w *= j as f64 / half;
        j -= 1;
        if w < 1e-18 && j0 - j > 4 {
            break;
        }
        total += w * reg_lower_gamma(k / 2.0 + j as f64, x / 2.0);
    }
    total.clamp(0.0, 1.0)
}

/// `P(X > x)` for `X ~ χ²_nc(k, λ)`, one `reg_upper_gamma` per term.
pub fn sf(k: f64, lambda: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    if lambda == 0.0 {
        return ChiSquared::new(k).sf(x);
    }
    let half = lambda / 2.0;
    let j0 = half.floor() as i64;
    let ln_w0 = -half + (j0 as f64) * half.ln() - ln_gamma(j0 as f64 + 1.0);
    let w0 = ln_w0.exp();

    let mut total = w0 * reg_upper_gamma(k / 2.0 + j0 as f64, x / 2.0);
    let mut weight_sum = w0;

    let mut w = w0;
    let mut j = j0;
    while weight_sum < 1.0 - 1e-14 {
        j += 1;
        w *= half / j as f64;
        if w < 1e-18 && j > j0 + 4 {
            break;
        }
        total += w * reg_upper_gamma(k / 2.0 + j as f64, x / 2.0);
        weight_sum += w;
        if j - j0 > 10_000 {
            break;
        }
    }
    let mut w = w0;
    let mut j = j0;
    while j > 0 {
        w *= j as f64 / half;
        j -= 1;
        if w < 1e-18 && j0 - j > 4 {
            break;
        }
        total += w * reg_upper_gamma(k / 2.0 + j as f64, x / 2.0);
    }
    total.clamp(0.0, 1.0)
}
