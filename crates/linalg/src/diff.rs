//! Differentiable subspace-angle machinery for gradient-based MTD
//! selection.
//!
//! The selection objective constrains the *largest* principal angle γ
//! between the pre-perturbation measurement space `span(Q₁)` and a
//! candidate space `span(H)`. This module works with `s = sin²γ`, which
//! is a generalized Rayleigh quotient and therefore analytically
//! differentiable in the entries of `H`. The same pencil is the crate's
//! only principal-angle engine: [`crate::subspace`] reads every angle
//! off its full spectrum, this module's [`SinSqState`] adds the
//! derivative of the top one.
//!
//! With `T = Q₁ᵀH`, `A = TᵀT` and `B = HᵀH`, the squared cosines of the
//! principal angles are the eigenvalues of the pencil `A c = λ B c`, so
//! `s = sin²γ` is the **largest** eigenvalue of
//!
//! ```text
//! (B − A) c = s B c,      B − A = ((I − P₁)H)ᵀ((I − P₁)H) ⪰ 0
//! ```
//!
//! solved here by a dense symmetric eigensolve: with the Cholesky factor
//! `B = LLᵀ`, the pencil is congruent to the PSD matrix
//! `M = L⁻¹(B − A)L⁻ᵀ` (two row-streamed forward solves), whose
//! eigenvalues come from the tridiagonalize-then-QL solver
//! ([`crate::SymmetricEigen`]). Each query pays only for what it reads:
//! the angle spectrum behind [`crate::subspace`] reads eigenvalues
//! alone, and [`sin_sq_largest_angle`] adds one eigenvector `w` (inverse
//! iteration on the tridiagonal plus one back-transform), mapped back
//! through `c = L⁻ᵀw`. Every eigenvalue, and so every angle, is
//! bit-identical to a solver that accumulates the full eigenvector
//! matrix; the eigenvector agrees with that solver's to roundoff. Fully
//! deterministic — the QL iteration has no start vector, and the
//! inverse iteration is shifted by the converged top eigenvalue, so it
//! cannot settle on another eigenpair — and immune to the failure mode
//! of a power iteration on this pencil: structured start vectors can
//! sit almost entirely inside a small-`s` eigenspace (e.g. the uniform
//! coefficient vector, for which `Hc` has support only on slack-adjacent
//! rows), where a residual test happily accepts a non-dominant
//! eigenpair. Differentiating the Rayleigh quotient at the
//! eigenvector `c` gives, for any direction `∂H` (write `d = ∂H·c`,
//! `v = Hc`, `u = P₁Hc`):
//!
//! ```text
//! ∂s = 2 · ((1 − s)·v − u) · d / (cᵀBc)
//! ```
//!
//! which is O(nnz(∂H)) per direction once the state is assembled — the
//! measurement-matrix stamps of one branch have ≤ 8 nonzeros, so a full
//! γ-gradient over all D-FACTS branches costs a handful of flops per
//! branch on top of one eigensolve.

use crate::eigen::SymmetricEigen;
use crate::subspace::OrthonormalBasis;
use crate::{vector, Cholesky, LinalgError, Matrix};

/// Converged differentiable state of `sin²γ` between a cached basis and
/// the column space of a perturbed matrix `H`.
///
/// Built by [`sin_sq_largest_angle`]; [`SinSqState::gradient_entry`]
/// then maps any sparse direction `∂H` to the directional derivative of
/// `sin²γ`.
#[derive(Debug, Clone)]
pub struct SinSqState {
    /// `sin²γ`, clamped to `[0, 1]`.
    value: f64,
    /// Generalized eigenvector `c` of `(B − A) c = s B c` (unit 2-norm).
    coeffs: Vec<f64>,
    /// Row sensitivities `w = (1 − s)·Hc − P₁Hc`.
    weights: Vec<f64>,
    /// Normalization `cᵀ B c` (guarded away from zero).
    denom: f64,
}

impl SinSqState {
    /// `sin²γ` of the largest principal angle.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The largest principal angle γ itself (radians, `[0, π/2]`).
    pub fn angle(&self) -> f64 {
        angle_of_sin_sq(self.value)
    }

    /// Directional derivative `∂ sin²γ` for a sparse matrix direction
    /// `∂H` given as `(row, col, value)` triplets (rows in measurement
    /// space, cols in the reduced state space of `H`).
    ///
    /// Out-of-range triplets are ignored rather than panicking: callers
    /// assemble stamps against the same `H` they passed to
    /// [`sin_sq_largest_angle`], and a mismatched stamp contributes a
    /// meaningless but finite term either way.
    pub fn gradient_entry(&self, dh_triplets: &[(usize, usize, f64)]) -> f64 {
        let mut acc = 0.0;
        for &(row, col, val) in dh_triplets {
            if row < self.weights.len() && col < self.coeffs.len() {
                acc += val * self.coeffs[col] * self.weights[row];
            }
        }
        2.0 * acc / self.denom
    }
}

/// Solves the lower-triangular system `L X = rhs` (forward substitution;
/// `L` comes from a Cholesky factor, so its diagonal is strictly
/// positive), streaming whole rows: row `i` subtracts `l[i][p]·row p`
/// for `p` ascending, then divides by `l[i][i]`. Each entry sees the
/// same operations in the same order as a column-by-column solve, so
/// the result is bit-identical to it — only the memory walk is
/// contiguous.
fn forward_solve_matrix(l: &Matrix, rhs: &Matrix) -> Matrix {
    let n = l.rows();
    let cols = rhs.cols();
    let mut x = rhs.clone();
    for i in 0..n {
        let (done, rest) = x.as_mut_slice().split_at_mut(i * cols);
        let row_i = &mut rest[..cols];
        for (p, &lip) in l.row(i)[..i].iter().enumerate() {
            for (xi, xp) in row_i.iter_mut().zip(&done[p * cols..(p + 1) * cols]) {
                *xi -= lip * xp;
            }
        }
        let lii = l[(i, i)];
        for xi in row_i.iter_mut() {
            *xi /= lii;
        }
    }
    x
}

/// Solves the upper-triangular system `Lᵀ x = rhs` (back substitution
/// against the transpose of the Cholesky factor).
fn backward_solve_transposed(l: &Matrix, rhs: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let mut x = rhs.to_vec();
    for i in (0..n).rev() {
        let mut acc = x[i];
        for p in (i + 1)..n {
            acc -= l[(p, i)] * x[p];
        }
        x[i] = acc / l[(i, i)];
    }
    x
}

/// The principal-angle pencil `(B − A) c = s B c` between `span(Q₁)`
/// and `Col(H)`, reduced by congruence to the symmetric eigenproblem
/// `M w = s w` and solved.
struct Pencil {
    /// `T = Q₁ᵀH`.
    t: Matrix,
    /// `B = HᵀH`.
    b: Matrix,
    /// Cholesky factor `L` of `B`.
    l: Matrix,
    /// Eigenvalues of `M = L⁻¹(B − A)L⁻ᵀ` (non-increasing), and any
    /// one eigenvector on request.
    eig: SymmetricEigen,
}

/// Assembles and solves the pencil of `q1` against `h`: `T = Q₁ᵀH`,
/// `B`, `B − A`, the Cholesky factor of `B`, `M` and its eigensolve.
/// Shared by [`sin_sq_largest_angle`] and [`sin_sq_spectrum`], so the
/// gradient state and the exact angles read the same eigenvalues.
fn solve_pencil(q1: &OrthonormalBasis, h: &Matrix) -> Result<Pencil, LinalgError> {
    let q = q1.q();
    if q.shape() != h.shape() {
        return Err(LinalgError::ShapeMismatch {
            op: "principal_angle_pencil",
            lhs: q.shape(),
            rhs: h.shape(),
        });
    }
    // T = Q₁ᵀH, computed as (HᵀQ₁)ᵀ so the zero-skipping matmul streams
    // over H's sparse rows (a measurement matrix has a handful of
    // nonzeros per row) instead of Q₁'s dense ones — same products in
    // the same summation order, so the result is unchanged.
    let t = h.transpose().matmul(q)?.transpose(); // k×k
    let b = h.gram(); // HᵀH
    let a = t.gram(); // HᵀP₁H
    let c_mat = b.try_sub(&a)?; // ((I−P₁)H)ᵀ((I−P₁)H)
    let l = Cholesky::factor(&b)?.l();

    // Congruence to an ordinary symmetric PSD eigenproblem: with
    // B = LLᵀ, the pencil (B−A)c = sBc becomes M w = s w for
    // M = L⁻¹(B−A)L⁻ᵀ and w = Lᵀc. The symmetric eigensolver reads only
    // the lower triangle, absorbing the roundoff asymmetry the two
    // triangular solves introduce.
    let w_half = forward_solve_matrix(&l, &c_mat); // L⁻¹(B−A)
    let m = forward_solve_matrix(&l, &w_half.transpose()); // L⁻¹(B−A)ᵀL⁻ᵀ = M
    let eig = SymmetricEigen::compute(&m)?;
    Ok(Pencil { t, b, l, eig })
}

/// Computes the differentiable `sin²γ` state between `q1` (orthonormal
/// basis of the reference space) and the column space of `h`: the
/// leading eigenpair of the pencil, mapped back through `c = L⁻ᵀw`.
///
/// Deterministic: one Cholesky factorization, one symmetric
/// eigensolve and one eigenvector, serial arithmetic — repeated calls
/// on identical inputs are bit-identical.
///
/// # Errors
///
/// [`LinalgError`] if the shapes differ or `HᵀH` is not positive
/// definite (rank-deficient `h`).
pub fn sin_sq_largest_angle(q1: &OrthonormalBasis, h: &Matrix) -> Result<SinSqState, LinalgError> {
    let Pencil { t, b, l, eig } = solve_pencil(q1, h)?;
    let s = eig.values().first().copied().unwrap_or(0.0);
    let s = s.clamp(0.0, 1.0);
    let w = eig.vector(0);
    let mut z = backward_solve_transposed(&l, &w); // c = L⁻ᵀw
    let z_norm = vector::norm2(&z).max(1e-300);
    for v in &mut z {
        *v /= z_norm;
    }

    let v = h.matvec(&z)?; // Hc
    let tc = t.matvec(&z)?;
    let u = q1.q().matvec(&tc)?; // P₁Hc = Q₁(Q₁ᵀH)c
    let bz = b.matvec(&z)?;
    let denom = vector::dot(&z, &bz).max(1e-300);
    let weights: Vec<f64> = v
        .iter()
        .zip(u.iter())
        .map(|(&vi, &ui)| (1.0 - s) * vi - ui)
        .collect();
    Ok(SinSqState {
        value: s,
        coeffs: z,
        weights,
        denom,
    })
}

/// `sin²θ` of every principal angle between `q1` and `Col(h)`, each
/// clamped to `[0, 1]`, in non-increasing order (largest angle first):
/// the full spectrum of the same pencil [`sin_sq_largest_angle`] reads
/// its top eigenpair from. Computes no eigenvector.
///
/// # Errors
///
/// As [`sin_sq_largest_angle`]; a column-count mismatch is a
/// [`LinalgError::ShapeMismatch`].
pub(crate) fn sin_sq_spectrum(q1: &OrthonormalBasis, h: &Matrix) -> Result<Vec<f64>, LinalgError> {
    let pencil = solve_pencil(q1, h)?;
    Ok(pencil
        .eig
        .values()
        .iter()
        .map(|s| s.clamp(0.0, 1.0))
        .collect())
}

/// The angle `θ = asin(√s) ∈ [0, π/2]` of a clamped `s = sin²θ`.
pub(crate) fn angle_of_sin_sq(s: f64) -> f64 {
    s.sqrt().clamp(0.0, 1.0).asin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{qr, Svd};

    /// Deterministic pseudo-random matrix from a linear congruential
    /// stream — test-only, keeps the crate free of RNG dependencies.
    fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / f64::from(1u32 << 31) - 1.0
        })
    }

    #[test]
    fn value_matches_svd_largest_angle() {
        for seed in [3u64, 17, 91] {
            let h1 = lcg_matrix(12, 4, seed);
            let h2 = lcg_matrix(12, 4, seed ^ 0xabcd);
            let q1 = OrthonormalBasis::new(&h1).unwrap();
            let state = sin_sq_largest_angle(&q1, &h2).unwrap();
            // Björck–Golub oracle: the smallest singular value of Q₁ᵀQ₂
            // is the cosine of the largest principal angle.
            let cosines = qr::orthonormal_basis(&h1)
                .unwrap()
                .transpose()
                .matmul(&qr::orthonormal_basis(&h2).unwrap())
                .unwrap();
            let svd = Svd::compute(&cosines).unwrap();
            let gamma = svd.singular_values()[3].clamp(0.0, 1.0).acos();
            assert!(
                (state.angle() - gamma).abs() < 1e-9,
                "seed {seed}: pencil angle {} vs SVD angle {gamma}",
                state.angle()
            );
        }
    }

    #[test]
    fn zero_when_spaces_coincide() {
        let h = lcg_matrix(10, 3, 7);
        let q1 = OrthonormalBasis::new(&h).unwrap();
        let state = sin_sq_largest_angle(&q1, &h).unwrap();
        assert!(state.value() < 1e-12, "sin²γ = {}", state.value());
        assert!(state.gradient_entry(&[(0, 0, 1.0)]).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_central_differences() {
        let h1 = lcg_matrix(14, 5, 11);
        let q1 = OrthonormalBasis::new(&h1).unwrap();
        let h2 = lcg_matrix(14, 5, 23);
        let state = sin_sq_largest_angle(&q1, &h2).unwrap();
        let eps = 1e-6;
        for &(row, col) in &[(0usize, 0usize), (3, 2), (13, 4), (7, 1)] {
            let analytic = state.gradient_entry(&[(row, col, 1.0)]);
            let mut hp = h2.clone();
            hp[(row, col)] += eps;
            let mut hm = h2.clone();
            hm[(row, col)] -= eps;
            let sp = sin_sq_largest_angle(&q1, &hp).unwrap().value();
            let sm = sin_sq_largest_angle(&q1, &hm).unwrap().value();
            let fd = (sp - sm) / (2.0 * eps);
            assert!(
                (analytic - fd).abs() <= 1e-6 * fd.abs().max(1e-3),
                "entry ({row},{col}): analytic {analytic} vs fd {fd}"
            );
        }
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let h1 = lcg_matrix(10, 3, 1);
        let q1 = OrthonormalBasis::new(&h1).unwrap();
        let h2 = lcg_matrix(9, 3, 2);
        assert!(sin_sq_largest_angle(&q1, &h2).is_err());
    }
}
