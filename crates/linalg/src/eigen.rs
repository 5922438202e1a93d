//! Dense symmetric eigendecomposition via Householder tridiagonalization
//! and the implicit-shift QL iteration.
//!
//! Every principal-angle query ([`crate::diff`], [`crate::subspace`])
//! solves one dense symmetric positive-semidefinite eigenproblem — the
//! selection loop once per optimizer evaluation. The one-sided Jacobi
//! [`crate::Svd`] could deliver those eigenpairs, but pays for full
//! 1e-14 mutual orthogonality of *every* column — two orders of
//! magnitude more work than the classic tridiagonalize-then-QL route at
//! the `~10²` sizes the pipeline sees. This module implements that
//! route:
//!
//! 1. **Householder reduction** (`tred2`): `A = Q T Qᵀ` with `T`
//!    tridiagonal, accumulating `Q` — `O(n³)` with a small constant.
//! 2. **Implicit-shift QL** (`tqli`): Wilkinson-shifted rotations on the
//!    tridiagonal, applied to the accumulated `Q`; converges in `O(1)`
//!    sweeps per eigenvalue.
//!
//! Everything is serial, branch-deterministic arithmetic: identical
//! inputs give identical bits, which the workspace determinism contract
//! requires of anything on the selection path.

use crate::{LinalgError, Matrix};

/// QL iterations allowed per eigenvalue before reporting failure (the
/// classic bound; 4–5 is typical, anything near the cap indicates a
/// malformed input such as NaN entries).
const MAX_QL_ITERS: usize = 50;

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix, with
/// eigenvalues sorted in non-increasing order.
///
/// # Example
///
/// ```
/// use gridmtd_linalg::{Matrix, SymmetricEigen};
///
/// # fn main() -> Result<(), gridmtd_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = SymmetricEigen::compute(&a)?;
/// assert!((eig.values()[0] - 3.0).abs() < 1e-12);
/// assert!((eig.values()[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    values: Vec<f64>,
    vectors: Matrix,
}

impl SymmetricEigen {
    /// Computes all eigenpairs of a symmetric `n × n` matrix.
    ///
    /// Only the lower triangle is read; the strict upper triangle is
    /// ignored, so callers holding a numerically almost-symmetric matrix
    /// (e.g. the result of a pair of triangular solves) need not
    /// symmetrize first.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] for an empty matrix.
    /// * [`LinalgError::ShapeMismatch`] if the matrix is not square.
    /// * [`LinalgError::NonConvergence`] if the QL iteration exceeds its
    ///   sweep budget (seen only for non-finite inputs).
    pub fn compute(a: &Matrix) -> Result<SymmetricEigen, LinalgError> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        if m != n {
            return Err(LinalgError::ShapeMismatch {
                op: "symmetric_eigen (requires square)",
                lhs: (m, n),
                rhs: (n, n),
            });
        }
        // Work on the symmetrized copy: the lower triangle is
        // authoritative.
        let mut z = Matrix::from_fn(n, n, |i, j| if i >= j { a[(i, j)] } else { a[(j, i)] });
        let mut d = vec![0.0_f64; n];
        let mut e = vec![0.0_f64; n];
        tridiagonalize(&mut z, &mut d, &mut e);
        ql_implicit(&mut z, &mut d, &mut e)?;

        // Sort eigenpairs by non-increasing eigenvalue; ties broken by
        // original index so the order (and the bits downstream) is
        // deterministic.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&p, &q| {
            d[q].partial_cmp(&d[p])
                .expect("NaN eigenvalue survived QL convergence")
                .then(p.cmp(&q))
        });
        let values: Vec<f64> = order.iter().map(|&j| d[j]).collect();
        let vectors = Matrix::from_fn(n, n, |i, j| z[(i, order[j])]);
        Ok(SymmetricEigen { values, vectors })
    }

    /// Eigenvalues in non-increasing order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Orthonormal eigenvectors as columns, ordered like
    /// [`SymmetricEigen::values`]. Signs are deterministic but otherwise
    /// arbitrary.
    pub fn vectors(&self) -> &Matrix {
        &self.vectors
    }

    /// The eigenvector for `values()[j]` as an owned column.
    pub fn vector(&self, j: usize) -> Vec<f64> {
        self.vectors.col(j)
    }
}

/// Householder reduction of the symmetric matrix in `z` to tridiagonal
/// form: on return `d` holds the diagonal, `e[1..]` the subdiagonal
/// (`e[0] = 0`), and `z` the accumulated orthogonal transform `Q` with
/// `A = Q T Qᵀ`.
fn tridiagonalize(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| z[(i, k)].abs()).sum();
            if scale == 0.0 {
                // Row already tridiagonal: skip the reflection.
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    z[(i, k)] /= scale;
                    h += z[(i, k)] * z[(i, k)];
                }
                let f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                let mut f_acc = 0.0;
                for j in 0..=l {
                    // Store u/H in column i for the later accumulation.
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g / h;
                    f_acc += e[j] * z[(i, j)];
                }
                let hh = f_acc / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        z[(j, k)] -= f * e[k] + g * z[(i, k)];
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    // Accumulate the product of the Householder reflections into z.
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    z[(k, j)] -= g * z[(k, i)];
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
}

/// Implicit-shift QL iteration on the tridiagonal `(d, e)` produced by
/// [`tridiagonalize`], rotating the accumulated transform in `z` along;
/// on return `d` holds the (unsorted) eigenvalues and the columns of `z`
/// the matching eigenvectors.
fn ql_implicit(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) -> Result<(), LinalgError> {
    let n = d.len();
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iters = 0;
        loop {
            // Find the first negligible subdiagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iters += 1;
            if iters > MAX_QL_ITERS || gridmtd_faults::point!("linalg.eigen.ql_nonconvergence") {
                return Err(LinalgError::NonConvergence {
                    op: "symmetric_ql",
                    iterations: iters,
                });
            }
            // Wilkinson shift from the trailing 2×2 of the active block.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0_f64, 1.0_f64);
            let mut p = 0.0;
            let mut underflowed = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // A rotation annihilated the subdiagonal early;
                    // restart the sweep on the shrunk block.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflowed = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if underflowed {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Svd;

    fn lcg_symmetric(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let raw = Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / f64::from(1u32 << 31) - 1.0
        });
        // AᵀA: symmetric PSD, generic spectrum.
        raw.gram()
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = Matrix::from_diag(&[3.0, -1.0, 5.0]);
        let eig = SymmetricEigen::compute(&a).unwrap();
        assert_eq!(eig.values().len(), 3);
        assert!((eig.values()[0] - 5.0).abs() < 1e-14);
        assert!((eig.values()[1] - 3.0).abs() < 1e-14);
        assert!((eig.values()[2] + 1.0).abs() < 1e-14);
    }

    #[test]
    fn reconstructs_the_input() {
        for seed in [1u64, 9, 42] {
            let a = lcg_symmetric(8, seed);
            let eig = SymmetricEigen::compute(&a).unwrap();
            let v = eig.vectors();
            let vl = Matrix::from_fn(8, 8, |i, j| v[(i, j)] * eig.values()[j]);
            let back = vl.matmul(&v.transpose()).unwrap();
            assert!(
                back.approx_eq(&a, 1e-10 * a.max_abs().max(1.0)),
                "seed {seed}: V diag(λ) Vᵀ != A"
            );
        }
    }

    #[test]
    fn vectors_are_orthonormal() {
        let a = lcg_symmetric(10, 77);
        let eig = SymmetricEigen::compute(&a).unwrap();
        let vtv = eig.vectors().transpose().matmul(eig.vectors()).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(10), 1e-10));
    }

    #[test]
    fn values_match_jacobi_svd_for_psd_input() {
        // For PSD matrices the eigenvalues equal the singular values, so
        // the independent Jacobi SVD cross-checks the QL route.
        for seed in [5u64, 13, 101] {
            let a = lcg_symmetric(12, seed);
            let eig = SymmetricEigen::compute(&a).unwrap();
            let svd = Svd::compute(&a).unwrap();
            for (l, s) in eig.values().iter().zip(svd.singular_values()) {
                assert!(
                    (l - s).abs() <= 1e-10 * s.max(1.0),
                    "seed {seed}: eigenvalue {l} vs singular value {s}"
                );
            }
        }
    }

    #[test]
    fn values_are_sorted_non_increasing() {
        let a = lcg_symmetric(15, 3);
        let eig = SymmetricEigen::compute(&a).unwrap();
        for w in eig.values().windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn only_lower_triangle_is_read() {
        let mut a = lcg_symmetric(6, 21);
        let reference = SymmetricEigen::compute(&a).unwrap();
        // Vandalize the strict upper triangle: results must not change.
        for i in 0..6 {
            for j in (i + 1)..6 {
                a[(i, j)] = f64::NAN;
            }
        }
        let eig = SymmetricEigen::compute(&a).unwrap();
        for (x, y) in eig.values().iter().zip(reference.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn repeated_eigenvalues_still_give_an_orthonormal_basis() {
        // 2·I ⊕ a rank-one bump: eigenvalue 2 has multiplicity 3.
        let mut a = Matrix::identity(4).scale(2.0);
        a[(0, 0)] = 5.0;
        let eig = SymmetricEigen::compute(&a).unwrap();
        assert!((eig.values()[0] - 5.0).abs() < 1e-12);
        for j in 1..4 {
            assert!((eig.values()[j] - 2.0).abs() < 1e-12);
        }
        let vtv = eig.vectors().transpose().matmul(eig.vectors()).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(4), 1e-10));
    }

    #[test]
    fn one_by_one_matrix() {
        let a = Matrix::from_rows(&[&[-4.5]]).unwrap();
        let eig = SymmetricEigen::compute(&a).unwrap();
        assert_eq!(eig.values(), &[-4.5]);
        assert_eq!(eig.vector(0), vec![1.0]);
    }

    #[test]
    fn deterministic_across_repeats() {
        let a = lcg_symmetric(9, 1234);
        let e1 = SymmetricEigen::compute(&a).unwrap();
        let e2 = SymmetricEigen::compute(&a).unwrap();
        for (x, y) in e1.values().iter().zip(e2.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(
                    e1.vectors()[(i, j)].to_bits(),
                    e2.vectors()[(i, j)].to_bits()
                );
            }
        }
    }

    #[test]
    fn non_square_is_rejected() {
        assert!(SymmetricEigen::compute(&Matrix::zeros(3, 2)).is_err());
        assert!(SymmetricEigen::compute(&Matrix::zeros(0, 0)).is_err());
    }
}
