use crate::{LinalgError, Matrix, RANK_TOL};

/// Householder QR factorization `A = Q R` of an `m × n` matrix with
/// `m ≥ n`.
///
/// The thin orthonormal factor `Q₁ ∈ R^{m×n}` is the orthonormal basis of
/// `Col(A)` that principal-angle queries are solved against
/// ([`crate::subspace::OrthonormalBasis`]), and QR least squares backs the state estimator
/// when the normal equations are ill-conditioned.
///
/// # Example
///
/// ```
/// use gridmtd_linalg::{Matrix, Qr};
///
/// # fn main() -> Result<(), gridmtd_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let qr = Qr::factor(&a)?;
/// let q = qr.q_thin();
/// // Columns of Q are orthonormal.
/// let qtq = q.transpose().matmul(&q)?;
/// assert!(qtq.approx_eq(&Matrix::identity(2), 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Householder vectors stored below the diagonal; R on and above it.
    qr: Matrix,
    /// Scalar factors of the elementary reflectors.
    tau: Vec<f64>,
}

impl Qr {
    /// Factors an `m × n` matrix with `m ≥ n`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] for an empty matrix.
    /// * [`LinalgError::ShapeMismatch`] if `m < n` (factor the transpose or
    ///   pad instead; the workspace only needs tall matrices).
    pub fn factor(a: &Matrix) -> Result<Qr, LinalgError> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                op: "qr_factor (requires rows >= cols)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Build the Householder reflector for column k.
            let mut norm_sq = 0.0;
            for i in k..m {
                let v = qr[(i, k)];
                norm_sq += v * v;
            }
            let norm = norm_sq.sqrt();
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            // v = x - alpha e1, stored with v[k] implicit after normalization
            let v0 = qr[(k, k)] - alpha;
            // tau = 2 / (vᵀv) scaled so that H = I - tau v vᵀ with v[k] = 1
            let vtv = norm_sq - 2.0 * qr[(k, k)] * alpha + alpha * alpha;
            if vtv == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            // normalize v so v[k] = 1
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            tau[k] = 2.0 * v0 * v0 / vtv;
            qr[(k, k)] = alpha;

            // Apply H to the trailing columns.
            let v: Vec<f64> = ((k + 1)..m).map(|i| qr[(i, k)]).collect();
            apply_reflector(&mut qr, &v, k, k + 1, tau[k]);
        }
        Ok(Qr { qr, tau })
    }

    /// Row count of the factored matrix.
    pub fn rows(&self) -> usize {
        self.qr.rows()
    }

    /// Column count of the factored matrix.
    pub fn cols(&self) -> usize {
        self.qr.cols()
    }

    /// Upper-triangular factor `R ∈ R^{n×n}`.
    pub fn r(&self) -> Matrix {
        let n = self.cols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }

    /// Thin orthonormal factor `Q₁ ∈ R^{m×n}`.
    pub fn q_thin(&self) -> Matrix {
        let (m, n) = self.qr.shape();
        // Accumulate Q = H_0 H_1 ... H_{n-1} applied to the first n columns
        // of the identity, working backwards.
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            q[(j, j)] = 1.0;
        }
        for k in (0..n).rev() {
            if self.tau[k] == 0.0 {
                continue;
            }
            // Columns j < k are still e_j, zero on rows k.., which the
            // reflector leaves untouched.
            let v: Vec<f64> = ((k + 1)..m).map(|i| self.qr[(i, k)]).collect();
            apply_reflector(&mut q, &v, k, k, self.tau[k]);
        }
        q
    }

    /// Applies `Qᵀ` to a vector of length `m`, returning length `m`.
    fn apply_qt(&self, b: &[f64]) -> Vec<f64> {
        let n = self.qr.cols();
        let mut y = b.to_vec();
        for k in 0..n {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut dot = y[k];
            for (i, &yi) in y.iter().enumerate().skip(k + 1) {
                dot += self.qr[(i, k)] * yi;
            }
            let t = self.tau[k] * dot;
            y[k] -= t;
            for (i, yi) in y.iter_mut().enumerate().skip(k + 1) {
                *yi -= t * self.qr[(i, k)];
            }
        }
        y
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `b.len() != self.rows()`.
    /// * [`LinalgError::Singular`] if `R` is rank deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                op: "qr_lstsq",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let y = self.apply_qt(b);
        // back substitution on R
        let mut x = vec![0.0; n];
        let scale = self.qr.max_abs().max(1.0);
        for i in (0..n).rev() {
            let mut acc = y[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                acc -= self.qr[(i, j)] * xj;
            }
            let rii = self.qr[(i, i)];
            if rii.abs() <= RANK_TOL * scale {
                return Err(LinalgError::Singular);
            }
            x[i] = acc / rii;
        }
        Ok(x)
    }

    /// Numerical rank of the factored matrix, judged from the diagonal of
    /// `R` with relative tolerance [`RANK_TOL`].
    ///
    /// Note: QR without column pivoting can over- or under-estimate rank in
    /// pathological cases; the grids in this workspace are far from those.
    /// Use [`crate::Svd::rank`] for a robust rank.
    pub fn rank_estimate(&self) -> usize {
        let n = self.cols();
        let mut max_diag = 0.0_f64;
        for i in 0..n {
            max_diag = max_diag.max(self.qr[(i, i)].abs());
        }
        if max_diag == 0.0 {
            return 0;
        }
        (0..n)
            .filter(|&i| self.qr[(i, i)].abs() > RANK_TOL * max_diag)
            .count()
    }
}

/// Applies the reflector `I − τ v vᵀ` (with `v_k = 1` and `v_tail`
/// holding `v_{k+1..m}`) to columns `first..` of `target`, streaming
/// rows: the per-column dots `x_k + Σ_{i>k} v_i x_i` accumulate with `i`
/// ascending, so each column sees the same operations in the same order
/// as a column-by-column sweep and the result is bit-identical to it.
fn apply_reflector(target: &mut Matrix, v_tail: &[f64], k: usize, first: usize, tau: f64) {
    let mut t: Vec<f64> = target.row(k)[first..].to_vec();
    for (r, &vi) in v_tail.iter().enumerate() {
        for (dot, &x) in t.iter_mut().zip(&target.row(k + 1 + r)[first..]) {
            *dot += vi * x;
        }
    }
    for dot in &mut t {
        *dot *= tau;
    }
    for (x, &tj) in target.row_mut(k)[first..].iter_mut().zip(&t) {
        *x -= tj;
    }
    for (r, &vi) in v_tail.iter().enumerate() {
        for (x, &tj) in target.row_mut(k + 1 + r)[first..].iter_mut().zip(&t) {
            *x -= tj * vi;
        }
    }
}

/// Orthonormal basis of `Col(A)` for a full-column-rank tall matrix, i.e.
/// the thin-Q factor.
///
/// # Errors
///
/// See [`Qr::factor`].
pub fn orthonormal_basis(a: &Matrix) -> Result<Matrix, LinalgError> {
    Ok(Qr::factor(a)?.q_thin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    fn example_tall() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, -1.0, 4.0],
            &[1.0, 4.0, -2.0],
            &[1.0, 4.0, 2.0],
            &[1.0, -1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn q_is_orthonormal_and_qr_reconstructs() {
        let a = example_tall();
        let qr = Qr::factor(&a).unwrap();
        let q = qr.q_thin();
        let r = qr.r();
        let qtq = q.transpose().matmul(&q).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(3), 1e-12));
        let back = q.matmul(&r).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn r_is_upper_triangular() {
        let qr = Qr::factor(&example_tall()).unwrap();
        let r = qr.r();
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = example_tall();
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = Qr::factor(&a).unwrap().solve_least_squares(&b).unwrap();
        // Normal equations solution for cross-check.
        let g = a.gram();
        let atb = a.matvec_transposed(&b).unwrap();
        let x_ne = crate::Cholesky::factor(&g).unwrap().solve(&atb).unwrap();
        assert!(vector::approx_eq(&x, &x_ne, 1e-9));
    }

    #[test]
    fn exact_system_is_solved_exactly() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0], &[0.0, 0.0]]).unwrap();
        let x = Qr::factor(&a)
            .unwrap()
            .solve_least_squares(&[4.0, 9.0, 0.0])
            .unwrap();
        assert!(vector::approx_eq(&x, &[2.0, 3.0], 1e-12));
    }

    #[test]
    fn wide_matrix_is_rejected() {
        assert!(Qr::factor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn rank_estimate_full_and_deficient() {
        assert_eq!(Qr::factor(&example_tall()).unwrap().rank_estimate(), 3);
        // Third column = first + second: rank 2.
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0],
            &[1.0, 1.0, 2.0],
            &[2.0, -1.0, 1.0],
        ])
        .unwrap();
        assert_eq!(Qr::factor(&a).unwrap().rank_estimate(), 2);
    }

    #[test]
    fn rank_deficient_least_squares_is_singular_error() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let qr = Qr::factor(&a).unwrap();
        assert_eq!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn orthonormal_basis_spans_input_columns() {
        let a = example_tall();
        let q = orthonormal_basis(&a).unwrap();
        // Every column of A must be reproduced by Q Qᵀ a_j.
        for j in 0..a.cols() {
            let col = a.col(j);
            let proj = q.matvec(&q.matvec_transposed(&col).unwrap()).unwrap();
            assert!(vector::approx_eq(&proj, &col, 1e-10));
        }
    }
}
