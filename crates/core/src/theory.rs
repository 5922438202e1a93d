//! Executable forms of Proposition 1 and Theorem 1.
//!
//! * **Proposition 1**: an attack `a = H c` is undetectable under MTD
//!   `H'` iff `rank(H') = rank([H' a])`, i.e. `a ∈ Col(H')`.
//! * **Theorem 1**: if `Col(H')` is the orthogonal complement of
//!   `Col(H)` (under the weighting `W`), no nonzero attack of the form
//!   `a = Hc` is undetectable, and each attack's detection probability is
//!   maximal among all MTDs.
//!
//! For physically realizable reactance perturbations the orthogonality
//! condition is generally unreachable (Section V-C) — these predicates
//! exist so that the tests (`crates/core/tests/theorem1.rs`) can check
//! the theory on matrices where it *is* reachable, and quantify how far
//! realizable MTDs fall short.

use gridmtd_linalg::{vector, Matrix, Svd};

use crate::MtdError;

/// Numerical tolerance for subspace-membership decisions, relative to the
/// attack magnitude.
const MEMBERSHIP_TOL: f64 = 1e-8;

/// Proposition 1: is the attack vector undetectable under MTD `h_post`?
///
/// Implemented as a rank test on the augmented matrix
/// `[H' a]` (the paper's formulation): the attack stays stealthy iff
/// appending it does not increase the rank, i.e. `a ∈ Col(H')`.
///
/// # Errors
///
/// Propagates SVD failures.
pub fn is_undetectable(h_post: &Matrix, attack: &[f64]) -> Result<bool, MtdError> {
    if vector::norm2(attack) == 0.0 {
        return Ok(true); // the zero attack never changes the residual
    }
    let a_col = Matrix::column(attack);
    let augmented = h_post.hstack(&a_col).map_err(MtdError::from)?;
    let rank_h = Svd::compute(h_post).map_err(MtdError::from)?.rank();
    let rank_aug = Svd::compute(&augmented).map_err(MtdError::from)?.rank();
    Ok(rank_aug == rank_h)
}

/// Residual magnitude `‖(I − P')a‖₂` of an attack under MTD `h_post`
/// (the noiseless BDD residual of the paper's Table I).
///
/// # Errors
///
/// Propagates projector failures.
pub fn noiseless_residual(h_post: &Matrix, attack: &[f64]) -> Result<f64, MtdError> {
    let p = gridmtd_linalg::subspace::complement_projector(h_post)?;
    let r = p.matvec(attack)?;
    Ok(vector::norm2(&r))
}

/// Theorem 1 premise: does `Col(h_post)` lie in the `W`-orthogonal
/// complement of `Col(h_pre)`, i.e. `H'ᵀ W H = 0`?
///
/// With uniform weights this is plain column-space orthogonality.
///
/// # Errors
///
/// Propagates shape mismatches.
pub fn orthogonality_condition_holds(
    h_pre: &Matrix,
    h_post: &Matrix,
    weights: &[f64],
) -> Result<bool, MtdError> {
    if weights.len() != h_pre.rows() || h_pre.rows() != h_post.rows() {
        return Err(MtdError::Numerical(
            gridmtd_linalg::LinalgError::ShapeMismatch {
                op: "orthogonality_condition",
                lhs: h_pre.shape(),
                rhs: (weights.len(), h_post.rows()),
            },
        ));
    }
    // Compute H'ᵀ W H and compare to zero, relative to the factor norms.
    let mut wh = h_pre.clone();
    for (i, &w) in weights.iter().enumerate() {
        for v in wh.row_mut(i) {
            *v *= w;
        }
    }
    let cross = h_post.transpose().matmul(&wh).map_err(MtdError::from)?;
    let scale = h_post.frobenius_norm() * wh.frobenius_norm();
    Ok(cross.max_abs() <= MEMBERSHIP_TOL * scale.max(f64::MIN_POSITIVE))
}

/// Theorem 1 consequence check: under an orthogonal MTD, every nonzero
/// attack `a = H c` has residual equal to its own magnitude (`r'_a = a`),
/// the maximum possible.
///
/// Returns the worst ratio `‖r'_a‖/‖a‖` over the columns of `h_pre`
/// (1.0 means the theorem's bound is met exactly).
///
/// # Errors
///
/// Propagates projector failures.
pub fn min_residual_ratio_over_columns(h_pre: &Matrix, h_post: &Matrix) -> Result<f64, MtdError> {
    let p = gridmtd_linalg::subspace::complement_projector(h_post)?;
    let mut worst: f64 = 1.0;
    for j in 0..h_pre.cols() {
        let a = h_pre.col(j);
        let norm = vector::norm2(&a);
        if norm == 0.0 {
            continue;
        }
        let r = p.matvec(&a)?;
        worst = worst.min(vector::norm2(&r) / norm);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmtd_powergrid::cases;

    #[test]
    fn stealthy_attack_is_undetectable_without_mtd() {
        let net = cases::case4();
        let h = net.measurement_matrix(&net.nominal_reactances()).unwrap();
        let a = h.matvec(&[0.1, -0.2, 0.3]).unwrap();
        assert!(is_undetectable(&h, &a).unwrap());
    }

    #[test]
    fn zero_attack_is_trivially_undetectable() {
        let net = cases::case4();
        let h = net.measurement_matrix(&net.nominal_reactances()).unwrap();
        assert!(is_undetectable(&h, &vec![0.0; h.rows()]).unwrap());
    }

    #[test]
    fn table1_detectability_pattern() {
        // The paper's Table I: attack 1 (c = [0,1,1,1]) is caught by MTDs
        // on lines 1 and 2 but NOT lines 3, 4; attack 2 (c = [0,0,0,1])
        // the reverse. With bus 1 as slack, c maps to [1,1,1] and
        // [0,0,1].
        let net = cases::case4();
        let x0 = net.nominal_reactances();
        let h = net.measurement_matrix(&x0).unwrap();
        let attack1 = h.matvec(&[1.0, 1.0, 1.0]).unwrap();
        let attack2 = h.matvec(&[0.0, 0.0, 1.0]).unwrap();
        let expected_detect_1 = [true, true, false, false];
        let expected_detect_2 = [false, false, true, true];
        for l in 0..4 {
            let mut x = x0.clone();
            x[l] *= 1.2; // η = 0.2 like the paper
            let h_post = net.measurement_matrix(&x).unwrap();
            let undetectable1 = is_undetectable(&h_post, &attack1).unwrap();
            let undetectable2 = is_undetectable(&h_post, &attack2).unwrap();
            assert_eq!(
                !undetectable1,
                expected_detect_1[l],
                "attack 1 vs MTD on line {}",
                l + 1
            );
            assert_eq!(
                !undetectable2,
                expected_detect_2[l],
                "attack 2 vs MTD on line {}",
                l + 1
            );
        }
    }

    #[test]
    fn noiseless_residual_zero_iff_undetectable() {
        let net = cases::case4();
        let x0 = net.nominal_reactances();
        let h = net.measurement_matrix(&x0).unwrap();
        let attack = h.matvec(&[0.0, 0.0, 1.0]).unwrap();
        let mut x = x0.clone();
        x[2] *= 1.2; // MTD on line 3 detects attack 2
        let h_post = net.measurement_matrix(&x).unwrap();
        let r = noiseless_residual(&h_post, &attack).unwrap();
        assert!(r > 1e-3, "expected nonzero residual, got {r}");
        assert!(!is_undetectable(&h_post, &attack).unwrap());
        // And without MTD the residual vanishes.
        assert!(noiseless_residual(&h, &attack).unwrap() < 1e-8);
    }

    #[test]
    fn orthogonality_condition_on_synthetic_matrices() {
        // Construct H and an exactly orthogonal H' in R^6 with 2 columns
        // each; Theorem 1 then guarantees maximal residuals.
        let h = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
        ])
        .unwrap();
        let h_orth = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[0.0, 0.0],
            &[0.0, 0.0],
        ])
        .unwrap();
        let w = vec![1.0; 6];
        assert!(orthogonality_condition_holds(&h, &h_orth, &w).unwrap());
        assert!(!orthogonality_condition_holds(&h, &h, &w).unwrap());
        // Every column of H keeps its full magnitude in the residual.
        let ratio = min_residual_ratio_over_columns(&h, &h_orth).unwrap();
        assert!((ratio - 1.0).abs() < 1e-12);
        // No nonzero attack from Col(H) is undetectable under H'.
        let a = h.matvec(&[0.3, -0.7]).unwrap();
        assert!(!is_undetectable(&h_orth, &a).unwrap());
    }

    #[test]
    fn realizable_mtd_falls_short_of_orthogonality() {
        // Section V-C's motivation: D-FACTS perturbations cannot reach the
        // orthogonal complement.
        let net = cases::case14();
        let x0 = net.nominal_reactances();
        let h = net.measurement_matrix(&x0).unwrap();
        let mut x = x0.clone();
        for l in net.dfacts_branches() {
            x[l] *= 1.5;
        }
        let h_post = net.measurement_matrix(&x).unwrap();
        let w = vec![1.0; h.rows()];
        assert!(!orthogonality_condition_holds(&h, &h_post, &w).unwrap());
        // Shared directions exist => some column ratio far below 1.
        let ratio = min_residual_ratio_over_columns(&h, &h_post).unwrap();
        assert!(ratio < 0.5, "ratio {ratio}");
    }

    #[test]
    fn mismatched_weights_length_is_error() {
        let net = cases::case4();
        let h = net.measurement_matrix(&net.nominal_reactances()).unwrap();
        assert!(orthogonality_condition_holds(&h, &h, &[1.0]).is_err());
    }
}
