//! Optimal power flow substrate for the `gridmtd` workspace.
//!
//! * [`lp`] — a self-contained dense two-phase simplex LP solver.
//! * [`dcopf`] — the DC optimal power flow of problem (1) of
//!   Lakshminarayana & Yau (DSN 2018) in shift-factor form: the LP keeps
//!   only the dispatch, one system balance and the line limits found
//!   violated so far, with piecewise-linear treatment of quadratic
//!   generator costs and an adjoint cost gradient.
//! * [`lbfgs`] — projected L-BFGS with multistart, the
//!   fmincon/MultiStart analogue the `gridmtd-core` crate uses for the
//!   reactance searches of problem (4) and the γ ceiling. Multistart
//!   fans its independent starts across scoped threads with per-start
//!   RNG streams, so parallel results are bit-identical to serial.
//! * [`nlp`] — box-constrained Nelder–Mead, the local search behind the
//!   problem-(1) baseline.
//! * [`parallel`] — the scoped-thread fan-out helper shared by the
//!   optimizer and the evaluation pipelines upstack.
//!
//! Successive solves along one optimizer trajectory share an
//! [`OpfContext`]: it carries the working set of line limits, so a
//! binding line is discovered once per trajectory, and the
//! warm-startable [`lp::LpSolver`], which reuses the previous optimal
//! basis and skips simplex Phase 1 — the hot-path optimizations behind
//! `select_mtd`-style sweeps.
//!
//! # Example
//!
//! ```
//! use gridmtd_opf::dcopf::{solve_opf_nominal, OpfOptions};
//! use gridmtd_powergrid::cases;
//!
//! # fn main() -> Result<(), gridmtd_opf::dcopf::OpfError> {
//! let net = cases::case4();
//! let sol = solve_opf_nominal(&net, &OpfOptions::default())?;
//! assert!((sol.cost - 11_500.0).abs() < 1e-6); // Table II of the paper
//! # Ok(())
//! # }
//! ```

pub mod dcopf;
pub mod lbfgs;
pub mod lp;
pub mod nlp;
pub mod parallel;

pub use dcopf::{
    solve_opf, solve_opf_grad_with, solve_opf_nominal, solve_opf_with, OpfContext, OpfError,
    OpfOptions, OpfSolution,
};
pub use lbfgs::{lbfgs_box, multistart_lbfgs_threads, LbfgsOptions};
pub use lp::LpSolver;
pub use nlp::{nelder_mead, MinimizeResult, NelderMeadOptions};
