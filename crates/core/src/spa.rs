//! The subspace-angle design metric `γ(H, H')` of Section V-C.
//!
//! # A note on "smallest" vs operational angle
//!
//! Definition V.1 of the paper defines the *smallest* principal angle
//! (maximizing `|uᵀv|`). However, when fewer than `N − 1` lines carry
//! D-FACTS devices, **the smallest principal angle between `Col(H)` and
//! `Col(H')` is identically zero**: any state offset `c` whose angle
//! differences vanish across every perturbed line satisfies `Hc = H'c`,
//! so the two column spaces always intersect in a subspace of dimension
//! at least `(N − 1) − |L_D|` (for the paper's IEEE 14-bus setup:
//! 13 − 6 = 7). A constraint `γ_smallest ≥ γ_th > 0` would therefore be
//! infeasible for every perturbation, while the paper reports achievable
//! values up to 0.45 rad.
//!
//! The quantity that actually behaves as the paper describes — zero for
//! scaled matrices, increasing with perturbation aggressiveness, governing
//! the `‖r'_a‖ ≤ sin(γ)‖a‖` bound of Appendix C — is the **largest**
//! principal angle, which is also exactly what MATLAB's `subspace(A, B)`
//! (the natural tool in the authors' toolchain) returns. This crate
//! therefore uses the largest principal angle as the operational design
//! metric [`gamma`], and keeps [`smallest_angle`] / [`angles`] available
//! for analysis. `EXPERIMENTS.md` revisits this discrepancy.

use std::sync::atomic::{AtomicU64, Ordering};

use gridmtd_linalg::{diff, subspace, Matrix};

use crate::MtdError;

/// Process-wide count of [`GammaBasis`] constructions (each one is a QR
/// factorization of the full pre-perturbation measurement matrix). The
/// one-off bases of the free functions [`gamma`], [`smallest_angle`] and
/// [`angles`] are not cached, so they are not counted. Warm paths —
/// [`crate::MtdSession`] above all — cache the basis per `x_pre` and
/// must not rebuild it across repeated selections and evaluations; the
/// regression guards pin that with this counter, in the same style as
/// `gridmtd_powergrid::stats`.
static GAMMA_BASIS_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of [`GammaBasis`] constructions so far (monotone, relaxed
/// atomics; diagnostics only).
pub fn gamma_basis_builds() -> u64 {
    GAMMA_BASIS_BUILDS.load(Ordering::Relaxed)
}

/// A precomputed orthonormal basis of `Col(H_pre)` for repeated
/// `γ(H_pre, ·)` queries.
///
/// The selection optimizer compares one fixed pre-perturbation matrix
/// against hundreds of candidates. Every query — the exact angles, the
/// differentiable `sin²γ` state — solves the small pencil
/// `(B − A)c = s·Bc` of the candidate against this basis
/// ([`gridmtd_linalg::diff`]), so the `m × k` QR of `H_pre` is paid once
/// per `x_pre` and the candidate is never orthonormalized. Produces
/// bit-identical values to [`gamma`] and [`smallest_angle`], which
/// solve the same pencil against a one-off basis.
#[derive(Debug, Clone)]
pub struct GammaBasis {
    basis: subspace::OrthonormalBasis,
}

impl GammaBasis {
    /// Orthonormalizes the pre-perturbation matrix once.
    ///
    /// # Errors
    ///
    /// Propagates numerical failures.
    pub fn new(h_pre: &Matrix) -> Result<GammaBasis, MtdError> {
        GAMMA_BASIS_BUILDS.fetch_add(1, Ordering::Relaxed);
        Ok(GammaBasis {
            basis: subspace::OrthonormalBasis::new(h_pre)?,
        })
    }

    /// `γ(H_pre, h_post)` against the cached basis.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches and numerical failures.
    pub fn gamma_to(&self, h_post: &Matrix) -> Result<f64, MtdError> {
        Ok(self.basis.largest_angle_to(h_post)?)
    }

    /// `(γ, smallest angle)` against the cached basis — the largest and
    /// the literal smallest principal angle, both from one eigensolve.
    /// Bit-identical to [`GammaBasis::gamma_to`] and [`smallest_angle`].
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches and numerical failures.
    pub fn gamma_and_smallest_to(&self, h_post: &Matrix) -> Result<(f64, f64), MtdError> {
        let (smallest, largest) = self.basis.extreme_angles_to(h_post)?;
        Ok((largest, smallest))
    }

    /// Differentiable `sin²γ` state against the cached basis: the value
    /// plus everything needed to map sparse `∂H/∂x_l` stamps
    /// ([`gridmtd_powergrid::Network::measurement_matrix_derivative`])
    /// to `∂ sin²γ / ∂x_l` in O(1) per branch. The gradient-based
    /// selection path builds one state per candidate and reads the
    /// whole γ-gradient off it.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches and numerical failures.
    pub fn sin_sq_to(&self, h_post: &Matrix) -> Result<diff::SinSqState, MtdError> {
        Ok(diff::sin_sq_largest_angle(&self.basis, h_post)?)
    }
}

/// The operational subspace angle `γ(H, H') ∈ [0, π/2]` — the largest
/// principal angle between the two column spaces (see the module docs for
/// why this, and not the literal "smallest", is the metric that
/// reproduces the paper).
///
/// # Errors
///
/// Propagates shape mismatches and numerical failures.
///
/// # Example
///
/// ```
/// use gridmtd_core::spa;
/// use gridmtd_powergrid::cases;
///
/// # fn main() -> Result<(), gridmtd_core::MtdError> {
/// let net = cases::case14();
/// let x = net.nominal_reactances();
/// let h = net.measurement_matrix(&x).unwrap();
/// // Pure scaling leaves the column space unchanged: γ = 0.
/// let g = spa::gamma(&h, &h.scale(1.2))?;
/// assert!(g < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn gamma(h_pre: &Matrix, h_post: &Matrix) -> Result<f64, MtdError> {
    Ok(subspace::largest_principal_angle(h_pre, h_post)?)
}

/// The literal smallest principal angle of Definition V.1 (zero whenever
/// the column spaces intersect, i.e. for every partial-line perturbation;
/// the pencil resolves such a zero angle to about `1e-8`, the square
/// root of its roundoff in `sin²`).
///
/// # Errors
///
/// Propagates shape mismatches and numerical failures.
pub fn smallest_angle(h_pre: &Matrix, h_post: &Matrix) -> Result<f64, MtdError> {
    Ok(subspace::smallest_principal_angle(h_pre, h_post)?)
}

/// All principal angles (ascending, radians).
///
/// # Errors
///
/// Propagates shape mismatches and numerical failures.
pub fn angles(h_pre: &Matrix, h_post: &Matrix) -> Result<Vec<f64>, MtdError> {
    Ok(subspace::principal_angles(h_pre, h_post)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmtd_powergrid::cases;
    use std::f64::consts::FRAC_PI_2;

    fn h14(xmod: impl Fn(usize, f64) -> f64) -> (Matrix, Matrix) {
        let net = cases::case14();
        let x = net.nominal_reactances();
        let h_pre = net.measurement_matrix(&x).unwrap();
        let x_post: Vec<f64> = x.iter().enumerate().map(|(l, &v)| xmod(l, v)).collect();
        let h_post = net.measurement_matrix(&x_post).unwrap();
        (h_pre, h_post)
    }

    #[test]
    fn scaled_matrix_has_zero_gamma() {
        // H' = (1+η)H (all reactances scaled the same) keeps Col(H).
        let (h_pre, h_post) = h14(|_, v| v / 1.25);
        assert!(gamma(&h_pre, &h_post).unwrap() < 1e-6);
    }

    #[test]
    fn partial_perturbation_keeps_smallest_angle_zero() {
        // The motivating observation: with only 6 perturbed lines the
        // column spaces intersect, so the literal SPA is 0 while the
        // operational gamma is positive.
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let (h_pre, h_post) = h14(|l, v| if dfacts.contains(&l) { v * 1.4 } else { v });
        assert!(smallest_angle(&h_pre, &h_post).unwrap() < 1e-6);
        assert!(gamma(&h_pre, &h_post).unwrap() > 0.01);
    }

    #[test]
    fn gamma_grows_with_perturbation_magnitude() {
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let mut prev = 0.0;
        for eta in [0.1, 0.2, 0.3, 0.4, 0.5] {
            let (h_pre, h_post) = h14(|l, v| {
                if dfacts.contains(&l) {
                    // alternate signs for stronger rotation
                    if l % 2 == 0 {
                        v * (1.0 + eta)
                    } else {
                        v * (1.0 - eta)
                    }
                } else {
                    v
                }
            });
            let g = gamma(&h_pre, &h_post).unwrap();
            assert!(g > prev, "γ should grow: {g} after {prev}");
            prev = g;
        }
    }

    #[test]
    fn angles_are_sorted_and_bounded() {
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let (h_pre, h_post) = h14(|l, v| if dfacts.contains(&l) { v * 0.6 } else { v });
        let a = angles(&h_pre, &h_post).unwrap();
        assert_eq!(a.len(), net.n_states());
        for w in a.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!(a[0] >= -1e-12 && *a.last().unwrap() <= FRAC_PI_2 + 1e-12);
        // At least 7 of 13 angles are ~0 (shared subspace dimension).
        let zeros = a.iter().filter(|&&t| t < 1e-6).count();
        assert!(zeros >= 7, "expected >= 7 zero angles, got {zeros}");
    }

    #[test]
    fn gamma_basis_matches_gamma() {
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let (h_pre, h_post) = h14(|l, v| if dfacts.contains(&l) { v * 1.3 } else { v });
        let basis = GammaBasis::new(&h_pre).unwrap();
        assert_eq!(
            basis.gamma_to(&h_post).unwrap().to_bits(),
            gamma(&h_pre, &h_post).unwrap().to_bits(),
            "cached and direct γ must agree exactly"
        );
    }

    #[test]
    fn gamma_and_smallest_match_the_free_functions() {
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let (h_pre, h_post) = h14(|l, v| if dfacts.contains(&l) { v * 0.7 } else { v });
        let (g, small) = GammaBasis::new(&h_pre)
            .unwrap()
            .gamma_and_smallest_to(&h_post)
            .unwrap();
        assert_eq!(g.to_bits(), gamma(&h_pre, &h_post).unwrap().to_bits());
        assert_eq!(
            small.to_bits(),
            smallest_angle(&h_pre, &h_post).unwrap().to_bits()
        );
        let all = angles(&h_pre, &h_post).unwrap();
        assert_eq!(all.first().map(|a| a.to_bits()), Some(small.to_bits()));
        assert_eq!(all.last().map(|a| a.to_bits()), Some(g.to_bits()));
    }

    #[test]
    fn gamma_is_symmetric() {
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let (h_pre, h_post) = h14(|l, v| if dfacts.contains(&l) { v * 1.3 } else { v });
        let g1 = gamma(&h_pre, &h_post).unwrap();
        let g2 = gamma(&h_post, &h_pre).unwrap();
        assert!((g1 - g2).abs() < 1e-9);
    }
}
