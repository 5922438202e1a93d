//! Sparse linear algebra: CSC storage, fill-reducing ordering, and
//! factorizations with a split symbolic/numeric phase.
//!
//! Real grids produce extremely sparse operators — the reduced
//! susceptance matrix `B̃` and the WLS gain matrix `HᵀWH` have a handful
//! of nonzeros per row — and MTD reactance perturbations change only
//! matrix *values*, never the sparsity *pattern*. This module exploits
//! both facts:
//!
//! * [`SparseMatrix`] — compressed-sparse-column storage with in-place
//!   value rewrites ([`SparseMatrix::values_mut`]) under a fixed pattern;
//! * [`ordering::reverse_cuthill_mckee`] — a fill-reducing ordering for
//!   the network-graph-structured symmetric matrices;
//! * [`SymbolicCholesky`] / [`SparseCholesky`] — sparse Cholesky with
//!   the symbolic phase (elimination tree, pattern of `L`, scatter plan)
//!   computed **once per topology** and the numeric phase re-run per
//!   perturbation ([`SparseCholesky::refactor`]), plus multi-RHS
//!   triangular solves ([`SparseCholesky::solve_matrix`]).
//!
//! `gridmtd_powergrid::dcpf` and `gridmtd_estimation::wls` factor
//! through this module on every grid size.

mod cholesky;
mod csc;
pub mod ordering;

pub use cholesky::{SparseCholesky, SymbolicCholesky};
pub use csc::SparseMatrix;
