//! Sparse LU factorization `P A = L U` (Gilbert–Peierls, left-looking,
//! partial pivoting).
//!
//! Built for matrices like the simplex basis of a θ-form DC-OPF, with a
//! handful of nonzeros per column, where a dense factorization spends
//! `O(m³)` on mostly-zero arithmetic. (The DC-OPF now solves a
//! shift-factor LP whose bases are a few dozen rows and factor densely.)
//! Gilbert–Peierls runs in
//! time proportional to the arithmetic actually performed (symbolic
//! reachability per column via depth-first search, then a sparse
//! triangular solve), with row pivoting for the same numerical safety as
//! the dense [`crate::Lu`].

use super::SparseMatrix;
use crate::LinalgError;

/// Absent-entry sentinel for the inverse row permutation.
const NONE: usize = usize::MAX;

/// Pivot tolerance relative to the matrix scale (matches [`crate::Lu`]).
const PIVOT_TOL: f64 = 1e-13;

/// Sparse LU factors `P A = L U` with partial (row) pivoting.
///
/// `L` is unit lower triangular and `U` upper triangular, both stored
/// column-compressed in pivot-order row indices.
///
/// # Example
///
/// ```
/// use gridmtd_linalg::sparse::{SparseLu, SparseMatrix};
///
/// # fn main() -> Result<(), gridmtd_linalg::LinalgError> {
/// let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 3.0), (1, 0, 6.0), (1, 1, 3.0)])?;
/// let lu = SparseLu::factor(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    l_colptr: Vec<usize>,
    l_rowidx: Vec<usize>,
    l_vals: Vec<f64>,
    u_colptr: Vec<usize>,
    u_rowidx: Vec<usize>,
    u_vals: Vec<f64>,
    /// `perm[k]` = original row index pivoted to position `k`.
    perm: Vec<usize>,
}

impl SparseLu {
    /// Factors a square sparse matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square.
    /// * [`LinalgError::Empty`] for a 0×0 matrix.
    /// * [`LinalgError::Singular`] if no acceptable pivot exists in some
    ///   column (structurally or numerically singular).
    /// * [`LinalgError::NonFinite`] if a NaN/infinite value reaches the
    ///   factorization — poisoned input is rejected here rather than
    ///   silently baked into the factors.
    pub fn factor(a: &SparseMatrix) -> Result<SparseLu, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_lu_factor",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        let n = a.nrows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let scale = a.max_abs().max(1.0);

        // During factorization L's row indices are *original* rows (the
        // pivot order of later rows is not yet known); they are remapped
        // to pivot positions at the end.
        let mut l_colptr = Vec::with_capacity(n + 1);
        let mut l_rowidx: Vec<usize> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_colptr = Vec::with_capacity(n + 1);
        let mut u_rowidx: Vec<usize> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        l_colptr.push(0);
        u_colptr.push(0);

        let mut pinv = vec![NONE; n]; // original row -> pivot position
        let mut perm = vec![0usize; n];
        let mut x = vec![0.0f64; n]; // dense accumulator, original rows
        let mut stamp = vec![NONE; n]; // DFS visit marker per column
        let mut pattern: Vec<usize> = Vec::with_capacity(n); // DFS postorder
        let mut dfs_node: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_child: Vec<usize> = Vec::with_capacity(n);

        #[allow(clippy::needless_range_loop)] // k drives far more than `perm`
        for k in 0..n {
            // Symbolic step: reachability of A(:,k)'s rows in the graph
            // of already-computed L columns (depth-first, postorder).
            pattern.clear();
            for p in a.col_range(k) {
                let start = a.row_indices()[p];
                if stamp[start] == k {
                    continue;
                }
                dfs_node.push(start);
                dfs_child.push(0);
                stamp[start] = k;
                while let Some(&node) = dfs_node.last() {
                    let jcol = pinv[node];
                    let mut advanced = false;
                    if jcol != NONE {
                        // Children: below-diagonal rows of L column jcol.
                        let lo = l_colptr[jcol] + 1;
                        let hi = l_colptr[jcol + 1];
                        let depth = dfs_node.len() - 1;
                        while lo + dfs_child[depth] < hi {
                            let child = l_rowidx[lo + dfs_child[depth]];
                            dfs_child[depth] += 1;
                            if stamp[child] != k {
                                stamp[child] = k;
                                dfs_node.push(child);
                                dfs_child.push(0);
                                advanced = true;
                                break;
                            }
                        }
                    }
                    if !advanced {
                        pattern.push(node);
                        dfs_node.pop();
                        dfs_child.pop();
                    }
                }
            }

            // Numeric step: x = L \ A(:,k), visiting pivotal nodes in
            // reverse postorder (each before everything it updates).
            for p in a.col_range(k) {
                x[a.row_indices()[p]] = a.values()[p];
            }
            for &node in pattern.iter().rev() {
                let jcol = pinv[node];
                if jcol == NONE {
                    continue;
                }
                let xj = x[node];
                if xj != 0.0 {
                    for p in (l_colptr[jcol] + 1)..l_colptr[jcol + 1] {
                        x[l_rowidx[p]] -= l_vals[p] * xj;
                    }
                }
            }

            // Partial pivoting over the not-yet-pivotal candidate rows
            // (ties broken by smallest original row index).
            let mut ipiv = NONE;
            let mut best = -1.0f64;
            for &i in &pattern {
                if pinv[i] == NONE {
                    let v = x[i].abs();
                    if v > best || (v == best && i < ipiv) {
                        best = v;
                        ipiv = i;
                    }
                }
            }
            if ipiv == NONE || best <= PIVOT_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if gridmtd_faults::point!("linalg.sparse_lu.zero_pivot") {
                return Err(LinalgError::Singular);
            }
            let pivot = x[ipiv];
            if !pivot.is_finite() {
                return Err(LinalgError::NonFinite {
                    op: "sparse_lu_factor",
                });
            }
            pinv[ipiv] = k;
            perm[k] = ipiv;

            // Split the solved column: pivotal rows → U, the rest → L
            // (scaled by the pivot). Diagonals are stored first.
            u_rowidx.push(k);
            u_vals.push(pivot);
            l_rowidx.push(ipiv);
            l_vals.push(1.0);
            for &i in &pattern {
                if i == ipiv {
                    x[i] = 0.0;
                    continue;
                }
                // NaN in a *non-pivot* entry would sail through the
                // pivot test (NaN loses every `>` comparison, so it is
                // never the pivot) and poison L/U silently; refuse it
                // with a typed error at the source instead.
                if !x[i].is_finite() {
                    return Err(LinalgError::NonFinite {
                        op: "sparse_lu_factor",
                    });
                }
                let pos = pinv[i];
                if pos != NONE {
                    u_rowidx.push(pos);
                    u_vals.push(x[i]);
                } else {
                    l_rowidx.push(i);
                    l_vals.push(x[i] / pivot);
                }
                x[i] = 0.0;
            }
            l_colptr.push(l_rowidx.len());
            u_colptr.push(u_rowidx.len());
        }

        // Remap L's rows from original indices to pivot positions.
        for r in l_rowidx.iter_mut() {
            *r = pinv[*r];
        }

        Ok(SparseLu {
            n,
            l_colptr,
            l_rowidx,
            l_vals,
            u_colptr,
            u_rowidx,
            u_vals,
            perm,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries across both factors.
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // x = P b, then L y = x (unit diagonal), then U x = y.
        let mut x: Vec<f64> = self.perm.iter().map(|&pi| b[pi]).collect();
        for j in 0..n {
            let xj = x[j];
            if xj != 0.0 {
                for p in (self.l_colptr[j] + 1)..self.l_colptr[j + 1] {
                    x[self.l_rowidx[p]] -= self.l_vals[p] * xj;
                }
            }
        }
        for j in (0..n).rev() {
            let range = self.u_colptr[j]..self.u_colptr[j + 1];
            let xj = x[j] / self.u_vals[range.start];
            x[j] = xj;
            if xj != 0.0 {
                for p in (range.start + 1)..range.end {
                    x[self.u_rowidx[p]] -= self.u_vals[p] * xj;
                }
            }
        }
        Ok(x)
    }

    /// Solves `Aᵀ x = b` from the same factorization
    /// (`Aᵀ = Uᵀ Lᵀ P`) — the simplex dual solve.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve_transposed(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_lu_solve_transposed",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Uᵀ w = b: Uᵀ is lower triangular; column j of U is row j of Uᵀ,
        // so each step is a sparse dot product.
        let mut w = b.to_vec();
        for j in 0..n {
            let range = self.u_colptr[j]..self.u_colptr[j + 1];
            let mut acc = w[j];
            for p in (range.start + 1)..range.end {
                acc -= self.u_vals[p] * w[self.u_rowidx[p]];
            }
            w[j] = acc / self.u_vals[range.start];
        }
        // Lᵀ z = w (unit diagonal).
        for j in (0..n).rev() {
            let mut acc = w[j];
            for p in (self.l_colptr[j] + 1)..self.l_colptr[j + 1] {
                acc -= self.l_vals[p] * w[self.l_rowidx[p]];
            }
            w[j] = acc;
        }
        // Undo the row permutation.
        let mut x = vec![0.0; n];
        for (i, &pi) in self.perm.iter().enumerate() {
            x[pi] = w[i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lu, vector, Matrix};

    fn unsymmetric(n: usize) -> SparseMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 3.0 + (i % 4) as f64));
            if i + 1 < n {
                t.push((i, i + 1, -1.0 - (i % 3) as f64 * 0.5));
                t.push((i + 1, i, 0.75));
            }
            if i + 5 < n {
                t.push((i + 5, i, -0.3));
            }
        }
        SparseMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn solve_matches_dense_lu() {
        for n in [1, 2, 3, 8, 25, 60] {
            let a = unsymmetric(n);
            let slu = SparseLu::factor(&a).unwrap();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
            let x = slu.solve(&b).unwrap();
            let xd = lu::solve(&a.to_dense(), &b).unwrap();
            assert!(vector::approx_eq(&x, &xd, 1e-9), "n = {n}");
            let xt = slu.solve_transposed(&b).unwrap();
            let xtd = lu::solve(&a.to_dense().transpose(), &b).unwrap();
            assert!(vector::approx_eq(&xt, &xtd, 1e-9), "transposed n = {n}");
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let x = SparseLu::factor(&a).unwrap().solve(&[2.0, 3.0]).unwrap();
        assert!(vector::approx_eq(&x, &[3.0, 2.0], 1e-12));
    }

    #[test]
    fn residual_is_small_for_a_tough_column_ordering() {
        // Dense-ish block requiring genuine pivoting decisions.
        let a = Matrix::from_rows(&[
            &[1e-8, 1.0, 0.0, 2.0],
            &[1.0, 0.0, 3.0, 0.0],
            &[0.0, 2.0, 1.0, 1.0],
            &[4.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        let sa = SparseMatrix::from_dense(&a);
        let slu = SparseLu::factor(&sa).unwrap();
        let b = [1.0, -2.0, 0.5, 3.0];
        let x = slu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        assert!(vector::approx_eq(&back, &b, 1e-9));
    }

    #[test]
    fn singular_matrices_are_detected() {
        // Structurally singular: empty column.
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        assert_eq!(SparseLu::factor(&a).unwrap_err(), LinalgError::Singular);
        // Numerically singular: duplicated row.
        let a = SparseMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.0), (1, 1, 2.0)],
        )
        .unwrap();
        assert_eq!(SparseLu::factor(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = SparseMatrix::from_triplets(2, 3, &[]).unwrap();
        assert!(SparseLu::factor(&a).is_err());
        let empty = SparseMatrix::from_triplets(0, 0, &[]).unwrap();
        assert!(matches!(SparseLu::factor(&empty), Err(LinalgError::Empty)));
        let ok = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        let lu = SparseLu::factor(&ok).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
        assert!(lu.solve_transposed(&[1.0]).is_err());
    }
}
