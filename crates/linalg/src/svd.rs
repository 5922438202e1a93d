use crate::{LinalgError, Matrix, RANK_TOL};

/// Singular value decomposition `A = U Σ Vᵀ` via the one-sided Jacobi
/// method.
///
/// One-sided Jacobi applies Givens rotations from the right until the
/// columns of the working matrix are mutually orthogonal; the column norms
/// are then the singular values. It is simple, numerically robust and very
/// accurate for small singular values, which is what the rank checks need
/// (principal angles come from [`crate::diff`]'s pencil instead; the
/// Björck–Golub SVD of `Q₁ᵀQ₂` survives only as a test oracle).
///
/// # Example
///
/// ```
/// use gridmtd_linalg::{Matrix, Svd};
///
/// # fn main() -> Result<(), gridmtd_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]])?;
/// let svd = Svd::compute(&a)?;
/// assert!((svd.singular_values()[0] - 3.0).abs() < 1e-12);
/// assert!((svd.singular_values()[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: Matrix,
    sigma: Vec<f64>,
    v: Matrix,
}

/// Maximum number of Jacobi sweeps before reporting non-convergence.
const MAX_SWEEPS: usize = 60;

/// Off-diagonal tolerance for declaring two columns orthogonal.
const ORTHO_TOL: f64 = 1e-14;

impl Svd {
    /// Computes the thin SVD of an `m × n` matrix with `m ≥ n`.
    ///
    /// For wide matrices compute the SVD of the transpose and swap `U`/`V`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] for an empty matrix.
    /// * [`LinalgError::ShapeMismatch`] if `m < n`.
    /// * [`LinalgError::NonConvergence`] if Jacobi sweeps fail to converge
    ///   (not observed in practice for the sizes used here).
    pub fn compute(a: &Matrix) -> Result<Svd, LinalgError> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                op: "svd (requires rows >= cols)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        // Work on columns of U (initialized to A); V accumulates rotations.
        let mut u = a.clone();
        let mut v = Matrix::identity(n);
        let scale = a.max_abs();
        if scale == 0.0 {
            // Zero matrix: U = first n columns of identity, sigma = 0.
            let mut u0 = Matrix::zeros(m, n);
            for j in 0..n {
                u0[(j, j)] = 1.0;
            }
            return Ok(Svd {
                u: u0,
                sigma: vec![0.0; n],
                v,
            });
        }

        let mut converged = false;
        let mut sweeps = 0;
        while !converged && sweeps < MAX_SWEEPS {
            converged = true;
            sweeps += 1;
            for p in 0..n {
                for q in (p + 1)..n {
                    // Compute the 2x2 Gram block of columns p, q.
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for i in 0..m {
                        let up = u[(i, p)];
                        let uq = u[(i, q)];
                        app += up * up;
                        aqq += uq * uq;
                        apq += up * uq;
                    }
                    if apq.abs() <= ORTHO_TOL * (app * aqq).sqrt().max(f64::MIN_POSITIVE) {
                        continue;
                    }
                    converged = false;
                    // Jacobi rotation that annihilates the off-diagonal.
                    let zeta = (aqq - app) / (2.0 * apq);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for i in 0..m {
                        let up = u[(i, p)];
                        let uq = u[(i, q)];
                        u[(i, p)] = c * up - s * uq;
                        u[(i, q)] = s * up + c * uq;
                    }
                    for i in 0..n {
                        let vp = v[(i, p)];
                        let vq = v[(i, q)];
                        v[(i, p)] = c * vp - s * vq;
                        v[(i, q)] = s * vp + c * vq;
                    }
                }
            }
        }
        if !converged {
            return Err(LinalgError::NonConvergence {
                op: "jacobi_svd",
                iterations: sweeps,
            });
        }

        // Column norms are the singular values; normalize U's columns.
        let mut order: Vec<usize> = (0..n).collect();
        let mut sigma = vec![0.0; n];
        for j in 0..n {
            let mut norm_sq = 0.0;
            for i in 0..m {
                norm_sq += u[(i, j)] * u[(i, j)];
            }
            sigma[j] = norm_sq.sqrt();
        }
        order.sort_by(|&a, &b| sigma[b].partial_cmp(&sigma[a]).expect("NaN singular value"));

        let mut u_sorted = Matrix::zeros(m, n);
        let mut v_sorted = Matrix::zeros(n, n);
        let mut sigma_sorted = vec![0.0; n];
        for (dst, &src) in order.iter().enumerate() {
            sigma_sorted[dst] = sigma[src];
            if sigma[src] > 0.0 {
                for i in 0..m {
                    u_sorted[(i, dst)] = u[(i, src)] / sigma[src];
                }
            } else {
                // Zero singular value: leave a zero column (caller should
                // not rely on U columns past the rank).
                u_sorted[(src.min(m - 1), dst)] = 0.0;
            }
            for i in 0..n {
                v_sorted[(i, dst)] = v[(i, src)];
            }
        }
        Ok(Svd {
            u: u_sorted,
            sigma: sigma_sorted,
            v: v_sorted,
        })
    }

    /// Left singular vectors (thin, `m × n`). Columns past the numerical
    /// rank are zero.
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// Singular values in non-increasing order.
    pub fn singular_values(&self) -> &[f64] {
        &self.sigma
    }

    /// Right singular vectors (`n × n`).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Numerical rank: number of singular values above
    /// [`RANK_TOL`]` * σ_max`.
    pub fn rank(&self) -> usize {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        self.sigma.iter().filter(|&&s| s > RANK_TOL * smax).count()
    }

    /// Spectral (2-) norm, `σ_max`.
    pub fn norm2(&self) -> f64 {
        self.sigma.first().copied().unwrap_or(0.0)
    }

    /// 2-norm condition number `σ_max / σ_min`; `f64::INFINITY` when rank
    /// deficient.
    pub fn condition_number(&self) -> f64 {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        let smin = self.sigma.last().copied().unwrap_or(0.0);
        if smin == 0.0 {
            f64::INFINITY
        } else {
            smax / smin
        }
    }
}

/// Numerical rank of an arbitrary (tall or wide) matrix via SVD.
///
/// # Errors
///
/// See [`Svd::compute`].
pub fn rank(a: &Matrix) -> Result<usize, LinalgError> {
    let tall = if a.rows() >= a.cols() {
        a.clone()
    } else {
        a.transpose()
    };
    Ok(Svd::compute(&tall)?.rank())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_singular_values() {
        let a = Matrix::from_rows(&[&[0.0, 5.0], &[1.0, 0.0], &[0.0, 0.0]]).unwrap();
        let svd = Svd::compute(&a).unwrap();
        assert!((svd.singular_values()[0] - 5.0).abs() < 1e-12);
        assert!((svd.singular_values()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_u_sigma_vt() {
        let a = Matrix::from_rows(&[
            &[2.0, 1.0, 0.0],
            &[-1.0, 3.0, 1.0],
            &[0.5, 0.0, 2.0],
            &[1.0, 1.0, 1.0],
        ])
        .unwrap();
        let svd = Svd::compute(&a).unwrap();
        let us = Matrix::from_fn(4, 3, |i, j| svd.u()[(i, j)] * svd.singular_values()[j]);
        let back = us.matmul(&svd.v().transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn u_and_v_are_orthonormal() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let svd = Svd::compute(&a).unwrap();
        let utu = svd.u().transpose().matmul(svd.u()).unwrap();
        assert!(utu.approx_eq(&Matrix::identity(2), 1e-10));
        let vtv = svd.v().transpose().matmul(svd.v()).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(2), 1e-10));
    }

    #[test]
    fn singular_values_are_sorted_descending() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let svd = Svd::compute(&a).unwrap();
        let s = svd.singular_values();
        for w in s.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn rank_of_rank_deficient_matrix() {
        // Column 2 = 2 * column 0.
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 2.0],
            &[2.0, 1.0, 4.0],
            &[3.0, -1.0, 6.0],
            &[0.0, 1.0, 0.0],
        ])
        .unwrap();
        assert_eq!(Svd::compute(&a).unwrap().rank(), 2);
    }

    #[test]
    fn rank_of_wide_matrix_via_helper() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]]).unwrap();
        assert_eq!(rank(&a).unwrap(), 1);
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        let a = Matrix::zeros(3, 2);
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(), 0);
        assert_eq!(svd.singular_values(), &[0.0, 0.0]);
    }

    #[test]
    fn spectral_norm_and_condition_number() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]).unwrap();
        let svd = Svd::compute(&a).unwrap();
        assert!((svd.norm2() - 3.0).abs() < 1e-12);
        assert!((svd.condition_number() - 3.0).abs() < 1e-12);
        let singular = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert_eq!(
            Svd::compute(&singular).unwrap().condition_number(),
            f64::INFINITY
        );
    }

    #[test]
    fn wide_matrix_is_rejected_by_compute() {
        assert!(Svd::compute(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn singular_values_match_eigenvalues_of_gram() {
        // For A with known Gram spectrum: A = [[2,0],[0,0],[0,3]] has
        // AᵀA = diag(4, 9) so singular values are 3, 2.
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 0.0], &[0.0, 3.0]]).unwrap();
        let s = Svd::compute(&a).unwrap();
        assert!((s.singular_values()[0] - 3.0).abs() < 1e-12);
        assert!((s.singular_values()[1] - 2.0).abs() < 1e-12);
    }
}
