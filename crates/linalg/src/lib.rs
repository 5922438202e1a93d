//! Linear algebra substrate for the `gridmtd` workspace: dense kernels
//! plus a sparse backend with symbolic-factorization reuse.
//!
//! The moving-target-defense analysis of Lakshminarayana & Yau (DSN 2018)
//! relies on a small but non-trivial set of numerical kernels:
//!
//! * weighted least squares for state estimation (normal equations via
//!   [`Cholesky`], or QR for better conditioning),
//! * residual projectors `I − H(HᵀWH)⁻¹HᵀW`,
//! * column-space geometry: orthonormal bases ([`Qr`]), ranks and
//!   **principal angles between subspaces** ([`subspace::principal_angles`],
//!   [`subspace::largest_principal_angle`] — the MTD metric γ), all read
//!   off one generalized symmetric eigenproblem `(B − A)c = s·Bc` against
//!   a cached orthonormal basis ([`diff`], [`SymmetricEigen`]). Angle
//!   queries take its eigenvalues only (values-only QL); the analytic
//!   γ-gradient adds the top eigenvector, by inverse iteration,
//! * a singular value decomposition ([`Svd`], one-sided Jacobi) for rank
//!   checks.
//!
//! The dense kernels operate on a row-major [`Matrix`] type and remain
//! the right tool below a few dozen states (no index overhead, byte
//! stable against the original implementation). Above that, the grid
//! operators are dominated by zeros — a 118-bus susceptance matrix is
//! ≈ 97 % empty — so the [`sparse`] module provides CSC storage, a
//! fill-reducing ordering, a sparse Cholesky whose **symbolic phase is
//! computed once per topology** and reused across MTD value
//! perturbations ([`sparse::SparseCholesky::refactor`]), and a sparse LU
//! for the simplex basis matrices of the DC-OPF. Consumers pick a
//! backend per problem size and fall back to dense below the crossover.
//!
//! # Example
//!
//! ```
//! use gridmtd_linalg::{Matrix, subspace};
//!
//! # fn main() -> Result<(), gridmtd_linalg::LinalgError> {
//! let h = Matrix::from_rows(&[&[1.0], &[0.0], &[0.0]])?;
//! let h2 = Matrix::from_rows(&[&[1.0], &[1.0], &[0.0]])?;
//! let gamma = subspace::largest_principal_angle(&h, &h2)?;
//! assert!((gamma - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod cholesky;
mod error;
mod matrix;

pub mod diff;
pub mod eigen;
pub mod lu;
pub mod qr;
pub mod sparse;
pub mod subspace;
pub mod svd;
pub mod vector;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::Qr;
pub use svd::Svd;

/// Relative tolerance used for rank decisions throughout the crate.
///
/// A singular value `s` is treated as zero when `s <= RANK_TOL * s_max`.
pub const RANK_TOL: f64 = 1e-10;
