//! Sparse Cholesky `P A Pᵀ = L Lᵀ` with a split symbolic/numeric
//! factorization.
//!
//! The split is the point: MTD reactance perturbations change the
//! *values* of the reduced susceptance matrix `B̃` and the WLS gain
//! matrix `HᵀWH` but never their sparsity *pattern* (which is fixed by
//! the grid topology). [`SymbolicCholesky::analyze`] does the
//! graph work — fill-reducing ordering, elimination tree, nonzero
//! pattern of `L`, scatter plan — once per topology;
//! [`SparseCholesky::refactor`] then re-runs only the `O(flops(L))`
//! numeric phase for each new value assignment, and
//! [`SparseCholesky::solve`] performs sparse triangular solves against
//! the cached factor.
//!
//! The numeric phase is an up-looking factorization: row `k` of `L` is
//! obtained by a sparse triangular solve against the already-computed
//! leading submatrix, visiting exactly the nonzero positions recorded by
//! the symbolic phase (no searching, no allocation).

use std::sync::Arc;

use super::{ordering, SparseMatrix};
use crate::LinalgError;

/// No-parent sentinel in the elimination tree.
const NONE: usize = usize::MAX;

/// Symbolic Cholesky analysis of a sparse symmetric matrix: everything
/// that depends only on the pattern.
///
/// Computed once per topology and shared (it is immutable) by any number
/// of numeric factorizations.
#[derive(Debug, Clone)]
pub struct SymbolicCholesky {
    n: usize,
    /// Fill-reducing permutation: `perm[k]` = original index at position `k`.
    perm: Vec<usize>,
    /// Pattern the analysis was built for (refactor guard): the scatter
    /// plan indexes `a.values()` positionally, so a refactor input must
    /// match coordinate for coordinate, not just in shape and count.
    a_colptr: Vec<usize>,
    a_rowidx: Vec<usize>,
    /// Column pointers of `L` (CSC, permuted indices).
    l_colptr: Vec<usize>,
    /// Row-wise pattern of `L`: for each permuted row `k`, the columns
    /// `j < k` with `L(k,j) ≠ 0`, in the topological (elimination-tree)
    /// order the numeric pass must visit them.
    rowpat_ptr: Vec<usize>,
    rowpat_idx: Vec<usize>,
    /// Scatter plan: for each permuted column `k`, the `A`-value indices
    /// and their permuted destinations (`dst == k` is the diagonal).
    scatter_ptr: Vec<usize>,
    scatter_src: Vec<usize>,
    scatter_dst: Vec<usize>,
}

impl SymbolicCholesky {
    /// Analyzes the pattern of a symmetric matrix, choosing a reverse
    /// Cuthill–McKee ordering.
    ///
    /// Only the symmetric part of the pattern matters; values are
    /// ignored. Both triangles may be stored (they are for the stamped
    /// grid matrices).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square.
    /// * [`LinalgError::Empty`] for a 0×0 matrix.
    pub fn analyze(a: &SparseMatrix) -> Result<SymbolicCholesky, LinalgError> {
        let perm = {
            if !a.is_square() {
                return Err(LinalgError::ShapeMismatch {
                    op: "sparse_cholesky_analyze",
                    lhs: a.shape(),
                    rhs: a.shape(),
                });
            }
            ordering::reverse_cuthill_mckee(a)
        };
        SymbolicCholesky::analyze_with_perm(a, perm)
    }

    /// Analyzes with a caller-supplied ordering (`perm[k]` = original
    /// index at position `k`). The natural order is `(0..n).collect()`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square or `perm`
    ///   has the wrong length / is not a permutation.
    /// * [`LinalgError::Empty`] for a 0×0 matrix.
    pub fn analyze_with_perm(
        a: &SparseMatrix,
        perm: Vec<usize>,
    ) -> Result<SymbolicCholesky, LinalgError> {
        let n = a.nrows();
        if !a.is_square() || perm.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_cholesky_analyze",
                lhs: a.shape(),
                rhs: (perm.len(), perm.len()),
            });
        }
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if !ordering::is_permutation(&perm) {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_cholesky_perm",
                lhs: (n, n),
                rhs: (perm.len(), perm.len()),
            });
        }
        let mut iperm = vec![0usize; n];
        for (k, &p) in perm.iter().enumerate() {
            iperm[p] = k;
        }

        // Scatter plan and permuted upper-triangle pattern. Every stored
        // entry (i, j) of A routes to permuted coordinates
        // (min(pi,pj), max(pi,pj)) — both triangle copies land on the
        // same slot, so symmetric inputs scatter consistently.
        let mut scatter_cols: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (src, dst)
        for j in 0..n {
            let pj = iperm[j];
            for p in a.col_range(j) {
                let pi = iperm[a.row_indices()[p]];
                let (lo, hi) = if pi <= pj { (pi, pj) } else { (pj, pi) };
                scatter_cols[hi].push((p, lo));
            }
        }
        let mut scatter_ptr = Vec::with_capacity(n + 1);
        let mut scatter_src = Vec::with_capacity(a.nnz());
        let mut scatter_dst = Vec::with_capacity(a.nnz());
        scatter_ptr.push(0);
        // Strict upper pattern per permuted column (deduplicated).
        let mut upper: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, col) in scatter_cols.iter().enumerate() {
            for &(src, dst) in col {
                scatter_src.push(src);
                scatter_dst.push(dst);
                if dst < k {
                    upper[k].push(dst);
                }
            }
            scatter_ptr.push(scatter_src.len());
            upper[k].sort_unstable();
            upper[k].dedup();
        }

        // Elimination tree (Liu's algorithm with path compression).
        let mut parent = vec![NONE; n];
        let mut ancestor = vec![NONE; n];
        for (k, up) in upper.iter().enumerate() {
            for &i in up {
                let mut j = i;
                while j != NONE && j < k {
                    let next = ancestor[j];
                    ancestor[j] = k;
                    if next == NONE {
                        parent[j] = k;
                    }
                    j = next;
                }
            }
        }

        // Row patterns of L via the elimination-tree reach of each row:
        // walking from every nonzero A(i, k), i < k, toward the root
        // until a node already reached for this k is met. The order the
        // walk produces (each node before its recorded ancestors) is
        // exactly the order the numeric triangular solve needs.
        let mut rowpat_ptr = Vec::with_capacity(n + 1);
        let mut rowpat_idx = Vec::new();
        rowpat_ptr.push(0);
        let mut stamp = vec![NONE; n];
        let mut stack = vec![0usize; n];
        let mut path = vec![0usize; n];
        let mut colcount = vec![1usize; n]; // diagonal
        for (k, up) in upper.iter().enumerate() {
            stamp[k] = k;
            let mut top = n;
            for &i in up {
                let mut j = i;
                let mut len = 0;
                while stamp[j] != k {
                    path[len] = j;
                    len += 1;
                    stamp[j] = k;
                    j = parent[j];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    stack[top] = path[len];
                }
            }
            for &j in &stack[top..n] {
                rowpat_idx.push(j);
                colcount[j] += 1;
            }
            rowpat_ptr.push(rowpat_idx.len());
        }

        let mut l_colptr = Vec::with_capacity(n + 1);
        l_colptr.push(0);
        for &c in &colcount {
            l_colptr.push(l_colptr.last().unwrap() + c);
        }

        Ok(SymbolicCholesky {
            n,
            perm,
            a_colptr: a.col_ptrs().to_vec(),
            a_rowidx: a.row_indices().to_vec(),
            l_colptr,
            rowpat_ptr,
            rowpat_idx,
            scatter_ptr,
            scatter_src,
            scatter_dst,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nonzero count of the factor `L` (including the diagonal).
    pub fn nnz_l(&self) -> usize {
        *self.l_colptr.last().expect("colptr is non-empty")
    }

    /// The fill-reducing permutation (`perm[k]` = original index).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }
}

/// Numeric sparse Cholesky factor bound to a [`SymbolicCholesky`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use gridmtd_linalg::sparse::{SparseMatrix, SymbolicCholesky, SparseCholesky};
///
/// # fn main() -> Result<(), gridmtd_linalg::LinalgError> {
/// // A small SPD tridiagonal system.
/// let mut a = SparseMatrix::from_triplets(
///     3,
///     3,
///     &[(0, 0, 4.0), (1, 1, 4.0), (2, 2, 4.0), (0, 1, -1.0), (1, 0, -1.0), (1, 2, -1.0), (2, 1, -1.0)],
/// )?;
/// let sym = Arc::new(SymbolicCholesky::analyze(&a)?);
/// let mut chol = SparseCholesky::factor(sym, &a)?;
/// let x = chol.solve(&[1.0, 0.0, 0.0])?;
/// // Change values (same pattern) and refactor: only the numeric phase runs.
/// for v in a.values_mut() {
///     *v *= 2.0;
/// }
/// chol.refactor(&a)?;
/// let x2 = chol.solve(&[1.0, 0.0, 0.0])?;
/// assert!((x[0] - 2.0 * x2[0]).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    sym: Arc<SymbolicCholesky>,
    l_rowidx: Vec<usize>,
    l_vals: Vec<f64>,
    /// Dense workspace for the up-looking solve and the triangular
    /// solves (kept across refactorizations to avoid reallocation).
    work: Vec<f64>,
    /// Next free slot per column of `L` during a numeric pass.
    next: Vec<usize>,
}

impl SparseCholesky {
    /// Runs the numeric factorization of `a` against a symbolic
    /// analysis.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` does not match the
    ///   analyzed pattern.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive relative to the matrix scale.
    pub fn factor(
        sym: Arc<SymbolicCholesky>,
        a: &SparseMatrix,
    ) -> Result<SparseCholesky, LinalgError> {
        let n = sym.n;
        let nnz_l = sym.nnz_l();
        let mut chol = SparseCholesky {
            sym,
            l_rowidx: vec![0; nnz_l],
            l_vals: vec![0.0; nnz_l],
            work: vec![0.0; n],
            next: vec![0; n],
        };
        chol.refactor(a)?;
        Ok(chol)
    }

    /// Re-runs the numeric phase for a matrix with the *same pattern*
    /// as the one analyzed (typically the same [`SparseMatrix`] after a
    /// [`SparseMatrix::values_mut`] update).
    ///
    /// # Errors
    ///
    /// Same contract as [`SparseCholesky::factor`]. On error the factor
    /// is left in an unusable intermediate state; refactor again before
    /// solving.
    pub fn refactor(&mut self, a: &SparseMatrix) -> Result<(), LinalgError> {
        let SparseCholesky {
            sym,
            l_rowidx,
            l_vals,
            work: x,
            next,
        } = self;
        let sym = &**sym;
        let n = sym.n;
        if a.shape() != (n, n) || a.col_ptrs() != sym.a_colptr || a.row_indices() != sym.a_rowidx {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_cholesky_refactor",
                lhs: (n, n),
                rhs: a.shape(),
            });
        }
        let tol = 1e-13 * a.max_abs().max(1.0);
        let a_vals = a.values();
        for k in 0..n {
            // Scatter the permuted upper column k of A.
            let mut d = 0.0;
            for s in sym.scatter_ptr[k]..sym.scatter_ptr[k + 1] {
                let dst = sym.scatter_dst[s];
                let v = a_vals[sym.scatter_src[s]];
                if dst == k {
                    d = v;
                } else {
                    x[dst] = v;
                }
            }
            // Sparse triangular solve along the recorded row pattern.
            for r in sym.rowpat_ptr[k]..sym.rowpat_ptr[k + 1] {
                let j = sym.rowpat_idx[r];
                let diag = l_vals[sym.l_colptr[j]];
                let lkj = x[j] / diag;
                x[j] = 0.0;
                for p in (sym.l_colptr[j] + 1)..next[j] {
                    x[l_rowidx[p]] -= l_vals[p] * lkj;
                }
                let slot = next[j];
                l_rowidx[slot] = k;
                l_vals[slot] = lkj;
                next[j] += 1;
                d -= lkj * lkj;
            }
            // `d <= tol` also rejects NaN-poisoned input (NaN fails the
            // comparison the other way in `d.sqrt()`-land otherwise).
            if d.is_nan() || d <= tol {
                return Err(LinalgError::NotPositiveDefinite);
            }
            if gridmtd_faults::point!("linalg.sparse_cholesky.zero_pivot") {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let diag_slot = sym.l_colptr[k];
            l_rowidx[diag_slot] = k;
            l_vals[diag_slot] = d.sqrt();
            next[k] = diag_slot + 1;
        }
        Ok(())
    }

    /// The symbolic analysis this factor is bound to.
    pub fn symbolic(&self) -> &Arc<SymbolicCholesky> {
        &self.sym
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// Solves `A x = b` via permuted forward/backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.sym.n;
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut w: Vec<f64> = self.sym.perm.iter().map(|&p| b[p]).collect();
        self.solve_permuted_in_place(&mut w);
        let mut out = vec![0.0; n];
        for (k, &p) in self.sym.perm.iter().enumerate() {
            out[p] = w[k];
        }
        Ok(out)
    }

    /// Multi-right-hand-side solve `A X = B`, streaming the factor once
    /// for all columns: the workspace is row-major `n × cols` in the
    /// permuted basis, so each entry of `L` updates one contiguous row.
    /// Each column undergoes exactly the arithmetic of a standalone
    /// [`SparseCholesky::solve`], in the same order, so batched and
    /// per-vector results are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != dim()`.
    pub fn solve_matrix(&self, b: &crate::Matrix) -> Result<crate::Matrix, LinalgError> {
        let sym = &*self.sym;
        let n = sym.n;
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_cholesky_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let cols = b.cols();
        let mut out = crate::Matrix::zeros(n, cols);
        if cols == 0 {
            return Ok(out);
        }
        let mut w = vec![0.0; n * cols];
        for (row, &p) in w.chunks_exact_mut(cols).zip(&sym.perm) {
            row.copy_from_slice(b.row(p));
        }
        // Forward: L Y = W. Row j is final before any row below it reads
        // it, and the entries of column j of L lie below the diagonal.
        for j in 0..n {
            let range = sym.l_colptr[j]..sym.l_colptr[j + 1];
            let (head, tail) = w.split_at_mut((j + 1) * cols);
            let yj = &mut head[j * cols..];
            let diag = self.l_vals[range.start];
            for v in yj.iter_mut() {
                *v /= diag;
            }
            for p in (range.start + 1)..range.end {
                let l = self.l_vals[p];
                let at = (self.l_rowidx[p] - j - 1) * cols;
                for (wi, &y) in tail[at..at + cols].iter_mut().zip(yj.iter()) {
                    *wi -= l * y;
                }
            }
        }
        // Backward: Lᵀ X = Y, each row accumulated in place.
        for j in (0..n).rev() {
            let range = sym.l_colptr[j]..sym.l_colptr[j + 1];
            let (head, tail) = w.split_at_mut((j + 1) * cols);
            let xj = &mut head[j * cols..];
            for p in (range.start + 1)..range.end {
                let l = self.l_vals[p];
                let at = (self.l_rowidx[p] - j - 1) * cols;
                for (acc, &x) in xj.iter_mut().zip(&tail[at..at + cols]) {
                    *acc -= l * x;
                }
            }
            let diag = self.l_vals[range.start];
            for v in xj.iter_mut() {
                *v /= diag;
            }
        }
        for (row, &p) in w.chunks_exact(cols).zip(&sym.perm) {
            out.row_mut(p).copy_from_slice(row);
        }
        Ok(out)
    }

    /// `L (Lᵀ w) = w` in the permuted basis, in place.
    fn solve_permuted_in_place(&self, w: &mut [f64]) {
        let sym = &*self.sym;
        let n = sym.n;
        // Forward: L y = w (diagonal first in each column).
        for j in 0..n {
            let range = sym.l_colptr[j]..sym.l_colptr[j + 1];
            let yj = w[j] / self.l_vals[range.start];
            w[j] = yj;
            for p in (range.start + 1)..range.end {
                w[self.l_rowidx[p]] -= self.l_vals[p] * yj;
            }
        }
        // Backward: Lᵀ x = y.
        for j in (0..n).rev() {
            let range = sym.l_colptr[j]..sym.l_colptr[j + 1];
            let mut acc = w[j];
            for p in (range.start + 1)..range.end {
                acc -= self.l_vals[p] * w[self.l_rowidx[p]];
            }
            w[j] = acc / self.l_vals[range.start];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vector, Cholesky, Matrix};

    /// An SPD "grid-like" test matrix: Laplacian of a meshed graph plus
    /// a diagonal shift.
    fn meshed_spd(n: usize) -> SparseMatrix {
        let mut t = Vec::new();
        let edge = |t: &mut Vec<(usize, usize, f64)>, i: usize, j: usize, w: f64| {
            t.push((i, i, w));
            t.push((j, j, w));
            t.push((i, j, -w));
            t.push((j, i, -w));
        };
        for i in 0..n - 1 {
            edge(&mut t, i, i + 1, 1.0 + i as f64 * 0.1);
        }
        for i in 0..n.saturating_sub(4) {
            if i % 3 == 0 {
                edge(&mut t, i, i + 4, 0.5);
            }
        }
        for i in 0..n {
            t.push((i, i, 0.75));
        }
        SparseMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn solve_matches_dense_cholesky() {
        for n in [1, 2, 5, 12, 40] {
            let a = meshed_spd(n);
            let sym = Arc::new(SymbolicCholesky::analyze(&a).unwrap());
            let chol = SparseCholesky::factor(sym, &a).unwrap();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 1.0).collect();
            let x = chol.solve(&b).unwrap();
            let dense = Cholesky::factor(&a.to_dense()).unwrap();
            let xd = dense.solve(&b).unwrap();
            assert!(vector::approx_eq(&x, &xd, 1e-9), "n = {n}");
        }
    }

    #[test]
    fn refactor_matches_cold_factorization() {
        let mut a = meshed_spd(25);
        let sym = Arc::new(SymbolicCholesky::analyze(&a).unwrap());
        let mut chol = SparseCholesky::factor(sym.clone(), &a).unwrap();
        // Perturb values only (pattern untouched), refactor, compare with
        // a cold factor of the same data.
        for (k, v) in a.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.01 * ((k % 7) as f64);
        }
        chol.refactor(&a).unwrap();
        let cold = SparseCholesky::factor(sym, &a).unwrap();
        let b: Vec<f64> = (0..25).map(|i| i as f64 - 9.0).collect();
        let warm_x = chol.solve(&b).unwrap();
        let cold_x = cold.solve(&b).unwrap();
        // Identical numeric pass → identical bits.
        assert_eq!(warm_x, cold_x);
    }

    #[test]
    fn natural_order_analysis_also_solves() {
        let a = meshed_spd(10);
        let sym = Arc::new(SymbolicCholesky::analyze_with_perm(&a, (0..10).collect()).unwrap());
        let chol = SparseCholesky::factor(sym, &a).unwrap();
        let b = vec![1.0; 10];
        let x = chol.solve(&b).unwrap();
        let xd = Cholesky::factor(&a.to_dense()).unwrap().solve(&b).unwrap();
        assert!(vector::approx_eq(&x, &xd, 1e-9));
    }

    #[test]
    fn rcm_reduces_fill_on_an_arrow_matrix() {
        // Hub-and-spoke graph: eliminating the hub first (natural order)
        // fills the factor completely; RCM pushes the hub to the end,
        // keeping L as sparse as A.
        let n = 30;
        let mut t = vec![(0usize, 0usize, n as f64)];
        for i in 1..n {
            t.push((i, i, 2.0));
            t.push((0, i, -1.0));
            t.push((i, 0, -1.0));
        }
        let a = SparseMatrix::from_triplets(n, n, &t).unwrap();
        let natural = SymbolicCholesky::analyze_with_perm(&a, (0..n).collect()).unwrap();
        let rcm = SymbolicCholesky::analyze(&a).unwrap();
        assert_eq!(natural.nnz_l(), n * (n + 1) / 2, "hub-first fills L");
        assert_eq!(rcm.nnz_l(), 2 * n - 1, "hub-last keeps L as sparse as A");
        // Both still solve correctly.
        let chol = SparseCholesky::factor(Arc::new(rcm), &a).unwrap();
        let b = vec![1.0; n];
        let x = chol.solve(&b).unwrap();
        let xd = Cholesky::factor(&a.to_dense()).unwrap().solve(&b).unwrap();
        assert!(vector::approx_eq(&x, &xd, 1e-9));
    }

    #[test]
    fn solve_matrix_is_bit_identical_to_column_solves() {
        // One column, a few, and more columns than rows; the gain
        // matrices of the grid cases are checked the same way in
        // `gridmtd-estimation` (case300: 299 states, 112 columns).
        for (n, cols) in [(15, 1), (15, 4), (40, 104)] {
            let a = meshed_spd(n);
            let sym = Arc::new(SymbolicCholesky::analyze(&a).unwrap());
            let chol = SparseCholesky::factor(sym, &a).unwrap();
            let b = Matrix::from_fn(n, cols, |i, j| ((i * 3 + j) as f64 * 0.31).cos());
            let batched = chol.solve_matrix(&b).unwrap();
            for j in 0..cols {
                let single = chol.solve(&b.col(j)).unwrap();
                for i in 0..n {
                    assert_eq!(
                        batched[(i, j)].to_bits(),
                        single[i].to_bits(),
                        "n = {n}, entry ({i}, {j})"
                    );
                }
            }
        }
        let a = meshed_spd(6);
        let chol =
            SparseCholesky::factor(Arc::new(SymbolicCholesky::analyze(&a).unwrap()), &a).unwrap();
        assert_eq!(
            chol.solve_matrix(&Matrix::zeros(6, 0)).unwrap().shape(),
            (6, 0)
        );
        assert!(matches!(
            chol.solve_matrix(&Matrix::zeros(5, 2)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let a = SparseMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, 2.0), (1, 0, 2.0)],
        )
        .unwrap();
        let sym = Arc::new(SymbolicCholesky::analyze(&a).unwrap());
        assert_eq!(
            SparseCholesky::factor(sym, &a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn missing_diagonal_is_not_positive_definite() {
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let sym = Arc::new(SymbolicCholesky::analyze(&a).unwrap());
        assert_eq!(
            SparseCholesky::factor(sym, &a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn shape_and_pattern_mismatches_are_rejected() {
        let a = meshed_spd(6);
        let sym = Arc::new(SymbolicCholesky::analyze(&a).unwrap());
        let mut chol = SparseCholesky::factor(sym, &a).unwrap();
        let other = meshed_spd(7);
        assert!(matches!(
            chol.refactor(&other),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        // Same shape and nnz but a different pattern must be rejected
        // too (the scatter plan is positional in the value array).
        let a6 = meshed_spd(6);
        let shifted = {
            let dense = a6.to_dense();
            let mut moved = crate::Matrix::zeros(6, 6);
            // Transpose-and-reflect keeps shape and nnz, moves entries.
            for i in 0..6 {
                for j in 0..6 {
                    moved[(5 - i, 5 - j)] = dense[(i, j)];
                }
            }
            SparseMatrix::from_dense(&moved)
        };
        if shifted.col_ptrs() != a6.col_ptrs() || shifted.row_indices() != a6.row_indices() {
            assert!(matches!(
                chol.refactor(&shifted),
                Err(LinalgError::ShapeMismatch { .. })
            ));
        }
        assert!(chol.solve(&[1.0]).is_err());
        assert!(
            SymbolicCholesky::analyze(&SparseMatrix::from_triplets(2, 3, &[]).unwrap()).is_err()
        );
        assert!(matches!(
            SymbolicCholesky::analyze(&SparseMatrix::from_triplets(0, 0, &[]).unwrap()),
            Err(LinalgError::Empty)
        ));
        assert!(SymbolicCholesky::analyze_with_perm(&a, vec![0, 0, 1, 2, 3, 4]).is_err());
    }
}
