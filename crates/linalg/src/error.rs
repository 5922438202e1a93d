use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable name of the failing operation.
        op: &'static str,
        /// Shape of the left / primary operand.
        lhs: (usize, usize),
        /// Shape of the right / secondary operand.
        rhs: (usize, usize),
    },
    /// The matrix is (numerically) singular and cannot be factorized/solved.
    Singular,
    /// A Cholesky factorization was requested for a matrix that is not
    /// symmetric positive definite.
    NotPositiveDefinite,
    /// An iterative kernel (Jacobi SVD, QL eigensolver) failed to converge.
    NonConvergence {
        /// The kernel that failed.
        op: &'static str,
        /// Number of sweeps/iterations performed before giving up.
        iterations: usize,
    },
    /// The operation requires a non-empty matrix.
    Empty,
    /// A NaN or infinity reached a factorization. Rejecting it here
    /// keeps poisoned factors from laundering NaN into later solves,
    /// where they would surface far from the cause (e.g. as a NaN
    /// detection probability at the end of the MTD pipeline).
    NonFinite {
        /// The kernel that received the non-finite value.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not symmetric positive definite")
            }
            LinalgError::NonConvergence { op, iterations } => {
                write!(f, "{op} failed to converge after {iterations} iterations")
            }
            LinalgError::Empty => write!(f, "operation requires a non-empty matrix"),
            LinalgError::NonFinite { op } => {
                write!(f, "{op} received a non-finite (NaN/inf) value")
            }
        }
    }
}

impl Error for LinalgError {}
