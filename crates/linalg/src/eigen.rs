//! Dense symmetric eigensolver: Householder tridiagonalization, the
//! values-only implicit-shift QL iteration, and inverse iteration for
//! the eigenvectors a caller actually reads.
//!
//! Every principal-angle query ([`crate::diff`], [`crate::subspace`])
//! solves one dense symmetric positive-semidefinite eigenproblem — the
//! selection loop once per optimizer evaluation. The angle queries read
//! eigenvalues only, and the differentiable `sin²γ` state reads one
//! eigenvector, so the solver never builds the full eigenvector matrix:
//!
//! 1. **Householder reduction** (`tred2` without its accumulation pass):
//!    `A = Q T Qᵀ` with `T` tridiagonal and `Q = P_{n−1}⋯P₁` kept in
//!    factored form as its reflectors `P_i = I − u_i u_iᵀ / h_i`. The
//!    working copy stays fully symmetric, so every inner loop walks
//!    contiguous rows instead of lower-triangle columns; each mirrored
//!    update adds the same two products in swapped order, and IEEE
//!    addition and multiplication commute, so the tridiagonal is
//!    bit-identical to the classic lower-triangle sweep. `O(n³)`.
//! 2. **Implicit-shift QL** (`tqli`): Wilkinson-shifted rotations on the
//!    tridiagonal, eigenvalues only — `O(n²)` in total.
//! 3. **Inverse iteration**, on request ([`SymmetricEigen::vector`]):
//!    one pivoted tridiagonal LU of `T − λ_j I`, three `O(n)` solves,
//!    and one `O(n²)` back-transform through the reflectors.
//!
//! Everything is serial, branch-deterministic arithmetic: identical
//! inputs give identical bits, which the workspace determinism contract
//! requires of anything on the selection path.

use crate::{vector, LinalgError, Matrix};

/// QL iterations allowed per eigenvalue before reporting failure (the
/// classic bound; 4–5 is typical, anything near the cap indicates a
/// malformed input such as NaN entries).
const MAX_QL_ITERS: usize = 50;

/// Inverse-iteration solves per eigenvector. The shift is the computed
/// eigenvalue, accurate to roundoff, so each solve shrinks every other
/// eigencomponent by about `ε·‖A‖ / gap`; three solves settle any
/// spectrum whose gaps are not themselves at roundoff level.
const INVERSE_ITERS: usize = 3;

/// Eigenvalues of a symmetric matrix, sorted in non-increasing order,
/// with the eigenvector of any one of them available on request.
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
/// let v = eig.vector(0);
/// assert!((v[0].abs() - 0.5_f64.sqrt()).abs() < 1e-12);
/// assert!((v[0] - v[1]).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    values: Vec<f64>,
    /// Diagonal of the tridiagonal `T`.
    diag: Vec<f64>,
    /// Subdiagonal of `T`: `sub[i] = T[i + 1][i]`.
    sub: Vec<f64>,
    /// Row `i`, columns `0..i`: the Householder vector `u_i`.
    reflectors: Matrix,
    /// `h_i` of each reflector; `0` where step `i` reflected nothing.
    h: Vec<f64>,
}

impl SymmetricEigen {
    /// Computes all eigenvalues of a symmetric `n × n` matrix and keeps
    /// the tridiagonal form that [`SymmetricEigen::vector`] needs.
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
        let mut diag = vec![0.0_f64; n];
        let mut e = vec![0.0_f64; n];
        let mut h = vec![0.0_f64; n];
        tridiagonalize(&mut z, &mut diag, &mut e, &mut h);
        let sub = e[1..].to_vec();
        let mut d = diag.clone();
        ql_implicit(&mut d, &mut e)?;

        // Sort by non-increasing eigenvalue; ties broken by original
        // index so the order (and the bits downstream) is deterministic.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&p, &q| {
            d[q].partial_cmp(&d[p])
                .expect("NaN eigenvalue survived QL convergence")
                .then(p.cmp(&q))
        });
        let values: Vec<f64> = order.iter().map(|&j| d[j]).collect();
        Ok(SymmetricEigen {
            values,
            diag,
            sub,
            reflectors: z,
            h,
        })
    }

    /// Eigenvalues in non-increasing order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// A unit eigenvector for `values()[j]`, by inverse iteration on the
    /// tridiagonal followed by one back-transform through the
    /// reflectors: `O(n²)` per call. The sign is deterministic but
    /// otherwise arbitrary. Within a repeated (or roundoff-close)
    /// eigenvalue the result is *some* unit vector of that eigenspace;
    /// vectors for distinct `j` of one cluster need not be orthogonal.
    ///
    /// # Panics
    ///
    /// If `j >= values().len()`.
    pub fn vector(&self, j: usize) -> Vec<f64> {
        let n = self.diag.len();
        assert!(j < n, "eigenvector index {j} out of bounds ({n})");
        let mut v = tridiagonal_eigenvector(&self.diag, &self.sub, self.values[j]);
        // v ← Q y with Q = P_{n−1}⋯P₁, so P₁ acts first.
        for i in 1..n {
            let h = self.h[i];
            if h == 0.0 {
                continue;
            }
            let u = &self.reflectors.row(i)[..i];
            let mut g = 0.0;
            for (uk, vk) in u.iter().zip(&v) {
                g += uk * vk;
            }
            let g = g / h;
            for (vk, uk) in v.iter_mut().zip(u) {
                *vk -= g * uk;
            }
        }
        v
    }
}

/// Householder reduction of the symmetric matrix in `z` to tridiagonal
/// form: on return `d` holds the diagonal, `e[1..]` the subdiagonal
/// (`e[i] = T[i][i − 1]`, `e[0] = 0`), and for every `i` with
/// `h[i] ≠ 0` row `i` of `z`, columns `0..i`, holds the Householder
/// vector `u_i` of the reflector `P_i = I − u_i u_iᵀ / h[i]`, with
/// `A = P_{n−1}⋯P₁ T P₁⋯P_{n−1}`.
///
/// `z` must be exactly symmetric on entry and is kept so on its active
/// block, which lets every loop read rows.
fn tridiagonalize(z: &mut Matrix, d: &mut [f64], e: &mut [f64], h_out: &mut [f64]) {
    let n = d.len();
    let mut u = vec![0.0_f64; n];
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let row_i = &mut z.row_mut(i)[..=l];
            let scale: f64 = row_i.iter().map(|v| v.abs()).sum();
            if scale == 0.0 {
                // Row already tridiagonal: skip the reflection.
                e[i] = row_i[l];
            } else {
                for v in row_i.iter_mut() {
                    *v /= scale;
                    h += *v * *v;
                }
                let f = row_i[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                row_i[l] = f - g;
                let u = &mut u[..=l];
                u.copy_from_slice(row_i);
                // p = A u / h into e[0..=l], and K = uᵀp / 2h.
                let mut f_acc = 0.0;
                for j in 0..=l {
                    let mut g = 0.0;
                    for (zjk, uk) in z.row(j)[..=l].iter().zip(u.iter()) {
                        g += zjk * uk;
                    }
                    e[j] = g / h;
                    f_acc += e[j] * u[j];
                }
                let hh = f_acc / (h + h);
                // q = p − K u, then A ← A − u qᵀ − q uᵀ on the whole
                // active block: entry (r, c) subtracts u_r q_c + q_r u_c,
                // the mirror of (c, r)'s q_c u_r + u_c q_r, so the block
                // stays exactly symmetric.
                for j in 0..=l {
                    e[j] -= hh * u[j];
                }
                for r in 0..=l {
                    let (fr, gr) = (u[r], e[r]);
                    for (c, zrc) in z.row_mut(r)[..=l].iter_mut().enumerate() {
                        *zrc -= fr * e[c] + gr * u[c];
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        h_out[i] = h;
    }
    for (i, di) in d.iter_mut().enumerate() {
        *di = z[(i, i)];
    }
    e[0] = 0.0;
}

/// Implicit-shift QL iteration on the tridiagonal `(d, e)` produced by
/// [`tridiagonalize`]; on return `d` holds the (unsorted) eigenvalues.
fn ql_implicit(d: &mut [f64], e: &mut [f64]) -> Result<(), LinalgError> {
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
                let f = s * e[i];
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

/// Unit eigenvector of the symmetric tridiagonal `T` (diagonal `diag`,
/// subdiagonal `sub`) for its eigenvalue `lambda`, by inverse iteration
/// on `T − λI` (EISPACK `tinvit`): the first solve uses Wilkinson's
/// implicit start `U y = (1, …, 1)ᵀ`, the rest the full `LU` solve.
fn tridiagonal_eigenvector(diag: &[f64], sub: &[f64], lambda: f64) -> Vec<f64> {
    let n = diag.len();
    // ‖T‖₁ bounds the spectrum; a pivot of the (numerically singular)
    // T − λI below ε‖T‖ is roundoff and is lifted to that floor.
    let norm = (0..n)
        .map(|i| {
            let above = if i > 0 { sub[i - 1].abs() } else { 0.0 };
            let below = sub.get(i).map_or(0.0, |s| s.abs());
            diag[i].abs() + above + below
        })
        .fold(0.0_f64, f64::max);
    let floor = (f64::EPSILON * norm).max(f64::MIN_POSITIVE);
    let lu = TridiagonalLu::factor(diag, sub, lambda, floor);
    let mut y = vec![1.0_f64; n];
    lu.back_substitute(&mut y);
    normalize(&mut y);
    for _ in 1..INVERSE_ITERS {
        lu.solve(&mut y);
        normalize(&mut y);
    }
    y
}

/// Scales `v` to unit 2-norm, dividing by its largest magnitude first so
/// the squares cannot overflow after a near-singular solve.
fn normalize(v: &mut [f64]) {
    let big = vector::norm_inf(v);
    if big > 0.0 && big.is_finite() {
        v.iter_mut().for_each(|x| *x /= big);
        let len = vector::norm2(v);
        v.iter_mut().for_each(|x| *x /= len);
    }
}

/// Gaussian elimination with partial pivoting of the tridiagonal
/// `T − λI` (LAPACK `dlagtf`): `P(T − λI) = LU` with unit-lower
/// bidiagonal `L` and an upper `U` of bandwidth two.
struct TridiagonalLu {
    /// Diagonal of `U`, every entry at least `floor` in magnitude.
    u0: Vec<f64>,
    /// First superdiagonal of `U`.
    u1: Vec<f64>,
    /// Second superdiagonal of `U` (nonzero only after an interchange).
    u2: Vec<f64>,
    /// Multiplier of elimination step `i`.
    mult: Vec<f64>,
    /// Whether step `i` interchanged rows `i` and `i + 1`.
    swapped: Vec<bool>,
}

impl TridiagonalLu {
    fn factor(diag: &[f64], sub: &[f64], lambda: f64, floor: f64) -> TridiagonalLu {
        let n = diag.len();
        let mut u0: Vec<f64> = diag.iter().map(|&d| d - lambda).collect();
        let mut u1: Vec<f64> = sub.to_vec();
        u1.push(0.0);
        let mut u2 = vec![0.0_f64; n];
        let mut mult = vec![0.0_f64; n];
        let mut swapped = vec![false; n];
        for i in 0..n.saturating_sub(1) {
            // Row i holds (u0[i], u1[i]) in columns i, i + 1; row i + 1
            // is untouched: (sub[i], u0[i + 1], u1[i + 1]).
            let below = sub[i];
            if u0[i].abs() >= below.abs() {
                let m = if u0[i] == 0.0 { 0.0 } else { below / u0[i] };
                mult[i] = m;
                u0[i + 1] -= m * u1[i];
            } else {
                let m = u0[i] / below;
                mult[i] = m;
                swapped[i] = true;
                let (pivot_row_diag, pivot_row_sup) = (u0[i + 1], u1[i + 1]);
                let old_sup = u1[i];
                u0[i] = below;
                u1[i] = pivot_row_diag;
                u2[i] = pivot_row_sup;
                u0[i + 1] = old_sup - m * pivot_row_diag;
                u1[i + 1] = -m * pivot_row_sup;
            }
            if u0[i].abs() < floor {
                u0[i] = floor.copysign(u0[i]);
            }
        }
        if u0[n - 1].abs() < floor {
            u0[n - 1] = floor.copysign(u0[n - 1]);
        }
        TridiagonalLu {
            u0,
            u1,
            u2,
            mult,
            swapped,
        }
    }

    /// Solves `(T − λI) y = x` in place.
    fn solve(&self, x: &mut [f64]) {
        for i in 0..x.len().saturating_sub(1) {
            if self.swapped[i] {
                let top = x[i];
                x[i] = x[i + 1];
                x[i + 1] = top - self.mult[i] * x[i + 1];
            } else {
                x[i + 1] -= self.mult[i] * x[i];
            }
        }
        self.back_substitute(x);
    }

    /// Solves `U y = x` in place.
    fn back_substitute(&self, x: &mut [f64]) {
        let n = x.len();
        for i in (0..n).rev() {
            let mut acc = x[i];
            if i + 1 < n {
                acc -= self.u1[i] * x[i + 1];
            }
            if i + 2 < n {
                acc -= self.u2[i] * x[i + 2];
            }
            x[i] = acc / self.u0[i];
        }
    }
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
        // A split tridiagonal: each eigenvector is a signed unit vector.
        for (j, axis) in [(0usize, 2usize), (1, 0), (2, 1)] {
            let v = eig.vector(j);
            for (i, x) in v.iter().enumerate() {
                let want = if i == axis { 1.0 } else { 0.0 };
                assert!((x.abs() - want).abs() < 1e-14, "vector({j}) = {v:?}");
            }
        }
    }

    /// `‖A v − λ v‖₂`.
    fn residual(a: &Matrix, lambda: f64, v: &[f64]) -> f64 {
        let av = a.matvec(v).unwrap();
        let r: Vec<f64> = av.iter().zip(v).map(|(x, y)| x - lambda * y).collect();
        crate::vector::norm2(&r)
    }

    /// The eigenvectors `vector(0..n)` as the columns of a matrix.
    fn vector_matrix(eig: &SymmetricEigen) -> Matrix {
        let n = eig.values().len();
        let cols: Vec<Vec<f64>> = (0..n).map(|j| eig.vector(j)).collect();
        Matrix::from_fn(n, n, |i, j| cols[j][i])
    }

    #[test]
    fn reconstructs_the_input() {
        // A simple spectrum: the on-demand eigenvectors form an
        // orthonormal basis, so V diag(λ) Vᵀ rebuilds A.
        for seed in [1u64, 9, 42] {
            let a = lcg_symmetric(8, seed);
            let eig = SymmetricEigen::compute(&a).unwrap();
            let v = vector_matrix(&eig);
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
        // Distinct eigenvalues: inverse iteration's vectors are mutually
        // orthogonal to roundoff over the gaps.
        let a = lcg_symmetric(10, 77);
        let eig = SymmetricEigen::compute(&a).unwrap();
        let v = vector_matrix(&eig);
        let vtv = v.transpose().matmul(&v).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(10), 1e-10));
    }

    #[test]
    fn every_vector_is_a_unit_eigenvector() {
        for (n, seed) in [(2usize, 4u64), (8, 1), (12, 5), (30, 8), (60, 31)] {
            let a = lcg_symmetric(n, seed);
            let eig = SymmetricEigen::compute(&a).unwrap();
            let scale = a.max_abs().max(1.0) * n as f64;
            for (j, &lambda) in eig.values().iter().enumerate() {
                let v = eig.vector(j);
                assert!((crate::vector::norm2(&v) - 1.0).abs() < 1e-12);
                let r = residual(&a, lambda, &v);
                assert!(r <= 1e-10 * scale, "n {n} seed {seed} j {j}: residual {r}");
            }
        }
    }

    #[test]
    fn top_vector_matches_the_jacobi_svd_up_to_sign() {
        // For a PSD matrix the leading right singular vector is the top
        // eigenvector; the Jacobi SVD is an independent route to it.
        for seed in [2u64, 19, 64] {
            let a = lcg_symmetric(16, seed);
            let eig = SymmetricEigen::compute(&a).unwrap();
            let svd = Svd::compute(&a).unwrap();
            let oracle = svd.v().col(0);
            let v = eig.vector(0);
            let sign = crate::vector::dot(&v, &oracle).signum();
            for (x, y) in v.iter().zip(&oracle) {
                assert!((x - sign * y).abs() <= 1e-9, "seed {seed}: {x} vs {y}");
            }
        }
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
    fn repeated_eigenvalues_still_give_eigenvectors() {
        // 2·I ⊕ a rank-one bump: eigenvalue 2 has multiplicity 3. Each
        // vector(j) is a unit vector of its eigenspace; vectors of one
        // repeated eigenvalue need not be mutually orthogonal.
        let mut a = Matrix::identity(4).scale(2.0);
        a[(0, 0)] = 5.0;
        let eig = SymmetricEigen::compute(&a).unwrap();
        assert!((eig.values()[0] - 5.0).abs() < 1e-12);
        for j in 1..4 {
            assert!((eig.values()[j] - 2.0).abs() < 1e-12);
        }
        for (j, &lambda) in eig.values().iter().enumerate() {
            let v = eig.vector(j);
            assert!((crate::vector::norm2(&v) - 1.0).abs() < 1e-12);
            assert!(residual(&a, lambda, &v) < 1e-12, "j {j}");
        }
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
        for j in 0..9 {
            let (v1, v2) = (e1.vector(j), e2.vector(j));
            for (x, y) in v1.iter().zip(&v2) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn non_square_is_rejected() {
        assert!(SymmetricEigen::compute(&Matrix::zeros(3, 2)).is_err());
        assert!(SymmetricEigen::compute(&Matrix::zeros(0, 0)).is_err());
    }
}
