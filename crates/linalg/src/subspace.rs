//! Column-space geometry: orthonormal bases, projectors and principal
//! angles between subspaces.
//!
//! The MTD design criterion of the paper (Section V-C) is the subspace
//! angle `γ(H, H')` between the column spaces of the pre-perturbation and
//! post-perturbation measurement matrices; the pipeline uses the
//! **largest** principal angle (`gridmtd_core::spa` explains why the
//! literal smallest angle of Definition V.1 is identically zero for
//! partial-line perturbations). Every principal angle comes from one
//! generalized symmetric eigenproblem against a cached orthonormal basis
//! `Q₁` of the first space: with `B = HᵀH` and `A = HᵀQ₁Q₁ᵀH`, the
//! eigenvalues of the pencil `(B − A) c = s B c` are the squared sines of
//! the principal angles ([`crate::diff`] assembles and solves it). The
//! second space is never orthonormalized, so one angle query costs one
//! `k×k` Cholesky factorization and one values-only symmetric
//! eigensolve: no eigenvector is computed for an angle.
//!
//! Angles lie in `[0, π/2]`: `0` for a shared direction, `π/2` for a
//! direction orthogonal to the other space.

use crate::diff::{angle_of_sin_sq, sin_sq_spectrum};
use crate::{qr, LinalgError, Matrix};

/// All principal angles (radians, non-decreasing) between `Col(a)` and
/// `Col(b)`.
///
/// Both inputs must be tall full-column-rank matrices of the same shape;
/// one angle is returned per column.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if the shapes differ.
/// * Propagates QR, Cholesky and eigensolver failures for degenerate
///   inputs.
pub fn principal_angles(a: &Matrix, b: &Matrix) -> Result<Vec<f64>, LinalgError> {
    OrthonormalBasis::new(a)?.angles_to(b)
}

/// A precomputed orthonormal basis of one column space, for computing
/// principal angles against many other subspaces.
///
/// The fixed side (the pre-perturbation measurement matrix inside a
/// selection sweep, compared against hundreds of candidates) is
/// orthonormalized once; each query then solves only the small pencil
/// of the other side against it.
#[derive(Debug, Clone)]
pub struct OrthonormalBasis {
    q: Matrix,
}

impl OrthonormalBasis {
    /// Orthonormalizes `Col(a)` once.
    ///
    /// # Errors
    ///
    /// Propagates QR failures for degenerate inputs.
    pub fn new(a: &Matrix) -> Result<OrthonormalBasis, LinalgError> {
        Ok(OrthonormalBasis {
            q: qr::orthonormal_basis(a)?,
        })
    }

    /// The cached orthonormal basis `Q`.
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// All principal angles (radians, non-decreasing) between the cached
    /// subspace and `Col(b)`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `b` does not have the shape of
    ///   the cached basis.
    /// * [`LinalgError::NotPositiveDefinite`] if `b` is numerically
    ///   column-rank deficient.
    /// * [`LinalgError::NonConvergence`] if the eigensolver fails.
    pub fn angles_to(&self, b: &Matrix) -> Result<Vec<f64>, LinalgError> {
        Ok(sin_sq_spectrum(self, b)?
            .into_iter()
            .rev()
            .map(angle_of_sin_sq)
            .collect())
    }

    /// The `(smallest, largest)` principal angles between the cached
    /// subspace and `Col(b)`, both read off one eigensolve.
    ///
    /// # Errors
    ///
    /// See [`OrthonormalBasis::angles_to`].
    pub fn extreme_angles_to(&self, b: &Matrix) -> Result<(f64, f64), LinalgError> {
        let spectrum = sin_sq_spectrum(self, b)?;
        match (spectrum.last(), spectrum.first()) {
            (Some(&lo), Some(&hi)) => Ok((angle_of_sin_sq(lo), angle_of_sin_sq(hi))),
            _ => Err(LinalgError::Empty),
        }
    }

    /// The largest principal angle between the cached subspace and
    /// `Col(b)`.
    ///
    /// # Errors
    ///
    /// See [`OrthonormalBasis::angles_to`].
    pub fn largest_angle_to(&self, b: &Matrix) -> Result<f64, LinalgError> {
        Ok(self.extreme_angles_to(b)?.1)
    }
}

/// The smallest principal angle `γ(a, b) ∈ [0, π/2]` (Definition V.1).
///
/// `γ = 0` when the subspaces intersect nontrivially; `γ = π/2` when they
/// are mutually orthogonal.
///
/// # Errors
///
/// See [`principal_angles`].
pub fn smallest_principal_angle(a: &Matrix, b: &Matrix) -> Result<f64, LinalgError> {
    Ok(OrthonormalBasis::new(a)?.extreme_angles_to(b)?.0)
}

/// The largest principal angle between the two column spaces.
///
/// # Errors
///
/// See [`principal_angles`].
pub fn largest_principal_angle(a: &Matrix, b: &Matrix) -> Result<f64, LinalgError> {
    OrthonormalBasis::new(a)?.largest_angle_to(b)
}

/// Orthogonal projector `P = Q Qᵀ` onto `Col(a)`.
///
/// # Errors
///
/// See [`qr::orthonormal_basis`].
pub fn projector(a: &Matrix) -> Result<Matrix, LinalgError> {
    let q = qr::orthonormal_basis(a)?;
    q.matmul(&q.transpose())
}

/// Orthogonal projector `I − Q Qᵀ` onto the orthogonal complement of
/// `Col(a)`.
///
/// This is the residual operator of an (unweighted) least-squares fit: the
/// BDD residual under measurement matrix `H` is `‖(I − P_H) z‖`.
///
/// # Errors
///
/// See [`projector`].
pub fn complement_projector(a: &Matrix) -> Result<Matrix, LinalgError> {
    let p = projector(a)?;
    Ok(&Matrix::identity(p.rows()) - &p)
}

/// Weighted oblique residual projector `S = I − H (HᵀWH)⁻¹ HᵀW` for a
/// diagonal weight vector `w` (entries of `W`).
///
/// This is exactly the operator of Appendix A of the paper: the BDD
/// residual under attack is `r' = S(n + a)`. `S` is idempotent
/// (`S² = S`) and annihilates `Col(H)`.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `w.len() != h.rows()`.
/// * [`LinalgError::NotPositiveDefinite`] if `H` is column-rank deficient.
pub fn weighted_residual_projector(h: &Matrix, w: &[f64]) -> Result<Matrix, LinalgError> {
    let (m, _n) = h.shape();
    if w.len() != m {
        return Err(LinalgError::ShapeMismatch {
            op: "weighted_residual_projector",
            lhs: h.shape(),
            rhs: (w.len(), 1),
        });
    }
    // WH: scale rows of H by w.
    let mut wh = h.clone();
    for (i, &wi) in w.iter().enumerate().take(m) {
        for v in wh.row_mut(i) {
            *v *= wi;
        }
    }
    // G = HᵀWH (SPD for full-column-rank H).
    let g = h.transpose().matmul(&wh)?;
    let ginv = crate::Cholesky::factor(&g)?.inverse()?;
    // K = H G⁻¹ HᵀW  (the hat matrix).
    let hginv = h.matmul(&ginv)?;
    let hat = hginv.matmul(&wh.transpose())?;
    Ok(&Matrix::identity(m) - &hat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn identical_subspaces_have_zero_angle() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let gamma = smallest_principal_angle(&a, &a.scale(2.5)).unwrap();
        assert!(gamma.abs() < 1e-7, "gamma = {gamma}");
    }

    #[test]
    fn orthogonal_subspaces_have_right_angle() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0], &[0.0, 0.0], &[0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let gamma = smallest_principal_angle(&a, &b).unwrap();
        assert!((gamma - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn known_angle_between_planes() {
        // Col(a) = span{e1}; Col(b) = span{cos t e1 + sin t e2}.
        let t = 0.3_f64;
        let a = Matrix::from_rows(&[&[1.0], &[0.0]]).unwrap();
        let b = Matrix::from_rows(&[&[t.cos()], &[t.sin()]]).unwrap();
        let gamma = smallest_principal_angle(&a, &b).unwrap();
        assert!((gamma - t).abs() < 1e-12);
    }

    #[test]
    fn shared_direction_gives_zero_smallest_angle() {
        // Both subspaces contain e1, so the smallest angle is 0 even though
        // the other directions differ.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0], &[0.0, 0.0]]).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let angles = principal_angles(&a, &b).unwrap();
        assert!(angles[0].abs() < 1e-7);
        assert!((angles[1] - FRAC_PI_2).abs() < 1e-7);
    }

    #[test]
    fn angles_are_symmetric_in_arguments() {
        let a = Matrix::from_rows(&[&[1.0, 0.3], &[0.2, 1.0], &[0.5, -0.4], &[0.0, 0.8]]).unwrap();
        let b = Matrix::from_rows(&[&[0.9, -0.1], &[0.1, 0.7], &[0.3, 0.3], &[-0.2, 0.5]]).unwrap();
        let g_ab = smallest_principal_angle(&a, &b).unwrap();
        let g_ba = smallest_principal_angle(&b, &a).unwrap();
        assert!((g_ab - g_ba).abs() < 1e-10);
    }

    #[test]
    fn mismatched_rows_is_error() {
        let a = Matrix::zeros(3, 1);
        let b = Matrix::zeros(4, 1);
        assert!(principal_angles(&a, &b).is_err());
        let basis = OrthonormalBasis::new(&Matrix::identity(3)).unwrap();
        assert!(basis.angles_to(&b).is_err());
    }

    #[test]
    fn mismatched_column_counts_is_a_shape_error() {
        let a = Matrix::from_rows(&[&[1.0], &[0.0], &[0.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        for outcome in [
            principal_angles(&a, &b).map(drop),
            principal_angles(&b, &a).map(drop),
            smallest_principal_angle(&a, &b).map(drop),
            largest_principal_angle(&b, &a).map(drop),
        ] {
            assert!(
                matches!(outcome, Err(LinalgError::ShapeMismatch { .. })),
                "{outcome:?}"
            );
        }
    }

    #[test]
    fn cached_basis_matches_direct_computation() {
        let a = Matrix::from_rows(&[&[1.0, 0.3], &[0.2, 1.0], &[0.5, -0.4], &[0.0, 0.8]]).unwrap();
        let b = Matrix::from_rows(&[&[0.9, -0.1], &[0.1, 0.7], &[0.3, 0.3], &[-0.2, 0.5]]).unwrap();
        let basis = OrthonormalBasis::new(&a).unwrap();
        let direct = principal_angles(&a, &b).unwrap();
        let cached = basis.angles_to(&b).unwrap();
        assert_eq!(direct, cached, "same algorithm, same bits");
        assert_eq!(
            basis.largest_angle_to(&b).unwrap(),
            largest_principal_angle(&a, &b).unwrap()
        );
        assert_eq!(
            basis.extreme_angles_to(&b).unwrap(),
            (cached[0], cached[1]),
            "the extremes come from the same spectrum"
        );
    }

    #[test]
    fn projector_is_idempotent_and_fixes_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[1.0, 0.0], &[2.0, 1.0]]).unwrap();
        let p = projector(&a).unwrap();
        assert!(p.matmul(&p).unwrap().approx_eq(&p, 1e-10));
        for j in 0..a.cols() {
            let col = a.col(j);
            let proj = p.matvec(&col).unwrap();
            assert!(vector::approx_eq(&proj, &col, 1e-10));
        }
    }

    #[test]
    fn complement_projector_annihilates_columns() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 2.0]]).unwrap();
        let pc = complement_projector(&a).unwrap();
        for j in 0..a.cols() {
            let r = pc.matvec(&a.col(j)).unwrap();
            assert!(vector::norm2(&r) < 1e-10);
        }
    }

    #[test]
    fn weighted_projector_idempotent_and_annihilates_col_h() {
        let h = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 1.0], &[-1.0, 2.0], &[0.0, 1.0]]).unwrap();
        let w = [1.0, 4.0, 0.25, 2.0];
        let s = weighted_residual_projector(&h, &w).unwrap();
        assert!(s.matmul(&s).unwrap().approx_eq(&s, 1e-10));
        for j in 0..h.cols() {
            let r = s.matvec(&h.col(j)).unwrap();
            assert!(vector::norm2(&r) < 1e-10, "S should annihilate Col(H)");
        }
    }

    #[test]
    fn weighted_projector_with_unit_weights_is_orthogonal_projector() {
        let h = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let s = weighted_residual_projector(&h, &[1.0, 1.0, 1.0]).unwrap();
        let pc = complement_projector(&h).unwrap();
        assert!(s.approx_eq(&pc, 1e-10));
    }

    #[test]
    fn weighted_projector_rejects_bad_weight_length() {
        let h = Matrix::zeros(3, 1);
        assert!(weighted_residual_projector(&h, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn rank_deficient_h_is_reported() {
        let h = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        assert!(matches!(
            weighted_residual_projector(&h, &[1.0, 1.0, 1.0]),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }
}
