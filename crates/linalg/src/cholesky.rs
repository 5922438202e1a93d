use crate::{LinalgError, Matrix};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
/// matrix.
///
/// The weighted-least-squares state estimator solves the normal equations
/// `(HᵀWH) θ̂ = HᵀWz`; the Gram matrix `HᵀWH` is SPD for a full-column-rank
/// `H`, making Cholesky the natural (and fastest) solver.
///
/// # Example
///
/// ```
/// use gridmtd_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), gridmtd_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve(&[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (upper triangle is garbage and never read).
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the input is the
    /// caller's responsibility (the Gram matrices built in this workspace
    /// are symmetric by construction).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a diagonal pivot is not
    ///   strictly positive (relative to the matrix scale).
    pub fn factor(a: &Matrix) -> Result<Cholesky, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let scale = a.max_abs().max(1.0);
        let tol = 1e-13 * scale;
        let mut l = a.clone();
        // Row by row: entry (i, j < i) is `(a_ij − Σ_{k<j} l_ik·l_jk) / l_jj`
        // and the pivot `a_ii − Σ_{k<i} l_ik²`, each sum taken with `k`
        // ascending — the operations, in the order, of the column-by-column
        // sweep, so the factor is bit-identical to it; only the memory walk
        // is contiguous. The first pivot at or below `tol` is the same in
        // both orders, since each pivot reads only earlier rows.
        for i in 0..n {
            let (done, rest) = l.as_mut_slice().split_at_mut(i * n);
            let row_i = &mut rest[..n];
            for j in 0..i {
                let row_j = &done[j * n..j * n + j + 1];
                let mut v = row_i[j];
                for (lik, ljk) in row_i[..j].iter().zip(&row_j[..j]) {
                    v -= lik * ljk;
                }
                row_i[j] = v / row_j[j];
            }
            let mut d = row_i[i];
            for lik in &row_i[..i] {
                d -= lik * lik;
            }
            if d <= tol {
                return Err(LinalgError::NotPositiveDefinite);
            }
            row_i[i] = d.sqrt();
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Lower-triangular factor `L` (upper triangle zeroed).
    pub fn l(&self) -> Matrix {
        let n = self.dim();
        Matrix::from_fn(n, n, |i, j| if j <= i { self.l[(i, j)] } else { 0.0 })
    }

    /// Solves `A x = b` via forward/backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        // L y = b
        for i in 0..n {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                acc -= self.l[(i, j)] * xj;
            }
            x[i] = acc / self.l[(i, i)];
        }
        // Lᵀ x = y
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                acc -= self.l[(j, i)] * xj;
            }
            x[i] = acc / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let x = self.solve(&b.col(j))?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully factored
    /// matrix).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    #[test]
    fn factor_reconstructs_matrix() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let c = Cholesky::factor(&a).unwrap();
        let l = c.l();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_agrees_with_lu() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x_chol = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&x_chol, &x_lu, 1e-10));
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn semidefinite_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn non_square_is_rejected() {
        assert!(Cholesky::factor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap();
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        assert!(a
            .matmul(&inv)
            .unwrap()
            .approx_eq(&Matrix::identity(2), 1e-12));
    }

    /// The column-by-column sweep the row-streamed factor replaced,
    /// kept as the bit-identity reference.
    fn indexed_factor(a: &Matrix) -> Option<Matrix> {
        let n = a.rows();
        let tol = 1e-13 * a.max_abs().max(1.0);
        let mut l = a.clone();
        for j in 0..n {
            let mut d = l[(j, j)];
            for k in 0..j {
                let ljk = l[(j, k)];
                d -= ljk * ljk;
            }
            if d <= tol {
                return None;
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut v = l[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / dj;
            }
        }
        Some(Matrix::from_fn(
            n,
            n,
            |i, j| if j <= i { l[(i, j)] } else { 0.0 },
        ))
    }

    /// Seeded SPD matrix `GᵀG + n·I` from a linear congruential stream.
    fn seeded_spd(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let g = Matrix::from_fn(n + 3, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / f64::from(1u32 << 31) - 1.0
        });
        g.gram()
            .try_add(&Matrix::identity(n).scale(n as f64))
            .unwrap()
    }

    #[test]
    fn row_streamed_factor_is_bit_identical_to_the_indexed_sweep() {
        for (n, seed) in [
            (1, 1u64),
            (2, 2),
            (7, 3),
            (13, 4),
            (40, 5),
            (117, 6),
            (120, 7),
        ] {
            let a = seeded_spd(n, seed);
            let reference = indexed_factor(&a).expect("SPD by construction");
            let l = Cholesky::factor(&a).unwrap().l();
            assert!(
                l.as_slice()
                    .iter()
                    .zip(reference.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "n = {n}: factor differs from the indexed sweep"
            );
        }
        // Both orders reject the same indefinite input.
        let mut bad = seeded_spd(30, 8);
        bad[(17, 17)] = -1.0;
        assert!(indexed_factor(&bad).is_none());
        assert!(Cholesky::factor(&bad).is_err());
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let c = Cholesky::factor(&Matrix::identity(3)).unwrap();
        assert!(c.solve(&[1.0]).is_err());
    }
}
