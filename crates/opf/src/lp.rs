//! Dense two-phase simplex solver for linear programs, with a
//! warm-startable resolve engine.
//!
//! This is the LP engine under the DC optimal power flow (problem (1) of
//! the paper). It accepts the natural modelling form — bounded or free
//! variables, `≤`/`≥`/`=` constraints — converts internally to standard
//! form and solves with a dense two-phase simplex using Dantzig pricing
//! and a Bland's-rule fallback for anti-cycling.
//!
//! The DC-OPF hands it the shift-factor LP over the dispatch: one balance
//! row, the PWL coupling rows, the few line limits in the working set
//! and one bound row per dispatch column — 17 standard-form rows on
//! case118 and 43 on case300 at the pre-perturbation point. At that size
//! a dense tableau and a dense basis LU are the simplest robust choice.
//!
//! # Warm starts
//!
//! The selection optimizer (problem (4)) solves hundreds of structurally
//! identical LPs whose coefficients drift slowly along one optimizer
//! trajectory. [`LpSolver`] exploits this: it retains the optimal basis
//! of the previous solve and, when the next problem has the same shape,
//! re-factorizes that basis against the new data instead of running
//! Phase 1 from scratch. If the saved basis is still optimal the resolve
//! costs one basis LU factorization and one pricing pass; if it is
//! primal feasible but not optimal, only Phase-2 pivots run; if it is
//! mildly primal infeasible — the usual outcome of coefficient drift
//! along an optimizer trajectory — a warm Phase 1 plants artificial
//! columns only on the violated rows and repairs feasibility in a
//! handful of pivots. Only a stale basis the repair cannot rescue
//! (singular, genuinely infeasible, unbounded, or past the iteration
//! limit) falls back to the cold two-phase path, so warm and cold solves
//! always agree on the optimum and only the cold path certifies
//! infeasibility or unboundedness.

use std::error::Error;
use std::fmt;

use gridmtd_linalg::{LinalgError, Lu, Matrix};

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
}

/// A sparse linear constraint `Σ coeffs · x  (rel)  rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearConstraint {
    /// `(variable index, coefficient)` pairs; indices may repeat (summed).
    pub coeffs: Vec<(usize, f64)>,
    /// Relation between the linear form and `rhs`.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// Errors from LP construction or solving.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// A constraint or objective references a variable index that was
    /// never declared.
    UnknownVariable(usize),
    /// A variable was declared with `lower > upper`.
    EmptyBound {
        /// Variable index.
        var: usize,
    },
    /// The simplex exceeded its iteration budget (indicates degeneracy or
    /// a modelling bug; not observed for the workspace's problems).
    ///
    /// A warm-started [`LpSolver`] resolve never surfaces this directly:
    /// it falls back to a cold Phase-1 solve first.
    IterationLimit,
    /// The dual-multiplier recovery of [`LpSolver::solve_with_duals`]
    /// failed to factorize the optimal basis (not expected: the simplex
    /// just certified that basis).
    DualRecovery,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::UnknownVariable(v) => write!(f, "unknown variable index {v}"),
            LpError::EmptyBound { var } => write!(f, "variable {var} has lower > upper"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::DualRecovery => write!(f, "dual recovery failed on the optimal basis"),
        }
    }
}

impl Error for LpError {}

/// Linear program: minimize `cᵀx` subject to bounds and linear
/// constraints.
///
/// # Example
///
/// ```
/// use gridmtd_opf::lp::{LpProblem, Relation};
///
/// # fn main() -> Result<(), gridmtd_opf::lp::LpError> {
/// // min -x - 2y  s.t.  x + y <= 4, 0 <= x,y <= 3
/// let mut lp = LpProblem::new();
/// let x = lp.add_var(0.0, 3.0, -1.0);
/// let y = lp.add_var(0.0, 3.0, -2.0);
/// lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
/// let sol = lp.solve()?;
/// assert!((sol.objective - (-7.0)).abs() < 1e-9); // x=1, y=3
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    obj: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    constraints: Vec<LinearConstraint>,
}

/// Solution of an LP.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal variable values, in declaration order.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
}

/// Feasibility / pivot tolerance.
const TOL: f64 = 1e-9;

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> LpProblem {
        LpProblem::default()
    }

    /// Adds a variable with bounds `[lower, upper]` (either may be
    /// infinite) and objective coefficient `cost`; returns its index.
    pub fn add_var(&mut self, lower: f64, upper: f64, cost: f64) -> usize {
        self.lower.push(lower);
        self.upper.push(upper);
        self.obj.push(cost);
        self.obj.len() - 1
    }

    /// Number of declared variables.
    pub fn n_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of constraints.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a constraint `Σ coeffs·x (rel) rhs`. Repeated variable
    /// indices in `coeffs` are summed.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, relation: Relation, rhs: f64) {
        self.constraints.push(LinearConstraint {
            coeffs,
            relation,
            rhs,
        });
    }

    /// Replaces variable `var`'s objective coefficient (an
    /// objective-perturbation resolve point for [`LpSolver`]).
    ///
    /// # Panics
    ///
    /// Panics if `var` was never declared.
    pub fn set_cost(&mut self, var: usize, cost: f64) {
        self.obj[var] = cost;
    }

    /// Replaces constraint `idx`'s right-hand side (an RHS-perturbation
    /// resolve point for [`LpSolver`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_rhs(&mut self, idx: usize, rhs: f64) {
        self.constraints[idx].rhs = rhs;
    }

    /// Replaces variable `var`'s bounds.
    ///
    /// Note for warm starts: switching a bound between finite and
    /// infinite changes the standard-form shape and silently degrades the
    /// next [`LpSolver::solve`] to a cold start; perturbing finite bounds
    /// keeps the warm path available.
    ///
    /// # Panics
    ///
    /// Panics if `var` was never declared.
    pub fn set_bounds(&mut self, var: usize, lower: f64, upper: f64) {
        self.lower[var] = lower;
        self.upper[var] = upper;
    }

    /// Solves the program from a cold start.
    ///
    /// For repeated solves of structurally identical problems prefer a
    /// reused [`LpSolver`], which warm-starts from the previous basis.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] / [`LpError::Unbounded`] per the problem.
    /// * [`LpError::UnknownVariable`] / [`LpError::EmptyBound`] for
    ///   modelling mistakes.
    /// * [`LpError::IterationLimit`] if simplex stalls (not expected).
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        let std = standardize(self)?;
        let (y, _basis) = solve_cold(&std)?;
        Ok(extract_solution(self, &std, &y))
    }
}

// ---------------------------------------------------------------------
// Standardization (shared by cold and warm paths)
// ---------------------------------------------------------------------

/// Map from an original variable to its standard-form column(s).
#[derive(Clone, Copy)]
enum VarMap {
    /// `x = lo + y`, `y ≥ 0` (+ an upper-bound row if `hi` finite).
    Shifted { col: usize, lo: f64 },
    /// `x = hi − y`, `y ≥ 0` (only an upper bound is finite).
    Flipped { col: usize, hi: f64 },
    /// `x = y⁺ − y⁻`, `y± ≥ 0` (free variable).
    Split { pos: usize, neg: usize },
}

/// Standard-form image `min cᵀy, Ay = b, y ≥ 0, b ≥ 0` of an
/// [`LpProblem`] (structural + slack/surplus columns; no artificials).
///
/// For a fixed modelling structure (variable count, bound
/// finiteness pattern, constraint count and relations) the shape
/// `(rows, total_cols)` and the column indexing are invariant under any
/// perturbation of the numeric data — which is what makes a basis saved
/// from one solve meaningful for the next.
struct Standardized {
    maps: Vec<VarMap>,
    /// Dense rows over all `total_cols` columns.
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    /// Standard-form cost over all `total_cols` columns.
    cost: Vec<f64>,
    /// Constant displaced from the objective by the variable shifts.
    obj_const: f64,
    /// Structural + slack/surplus columns.
    total_cols: usize,
    /// ±1 per row: −1 where the `b ≥ 0` normalization negated the row
    /// (which also flips the sign of that row's dual multiplier).
    row_signs: Vec<f64>,
}

fn standardize(lp: &LpProblem) -> Result<Standardized, LpError> {
    let n = lp.n_vars();
    for c in &lp.constraints {
        for &(v, _) in &c.coeffs {
            if v >= n {
                return Err(LpError::UnknownVariable(v));
            }
        }
    }
    for v in 0..n {
        if lp.lower[v] > lp.upper[v] {
            return Err(LpError::EmptyBound { var: v });
        }
    }

    // Map each original variable to standard-form columns.
    let mut maps: Vec<VarMap> = Vec::with_capacity(n);
    let mut n_cols = 0usize;
    for v in 0..n {
        let (lo, hi) = (lp.lower[v], lp.upper[v]);
        if lo.is_finite() {
            maps.push(VarMap::Shifted { col: n_cols, lo });
            n_cols += 1;
        } else if hi.is_finite() {
            maps.push(VarMap::Flipped { col: n_cols, hi });
            n_cols += 1;
        } else {
            maps.push(VarMap::Split {
                pos: n_cols,
                neg: n_cols + 1,
            });
            n_cols += 2;
        }
    }

    // Rows: user constraints + upper-bound rows for doubly-bounded vars.
    struct Row {
        coeffs: Vec<(usize, f64)>, // standard-form columns
        rhs: f64,
        relation: Relation,
    }
    let mut rows: Vec<Row> = Vec::new();

    // helper: push (col, coef) for original var v with multiplier a,
    // returning the constant displaced to the RHS.
    let emit = |v: usize, a: f64, out: &mut Vec<(usize, f64)>| -> f64 {
        match maps[v] {
            VarMap::Shifted { col, lo } => {
                out.push((col, a));
                a * lo
            }
            VarMap::Flipped { col, hi } => {
                out.push((col, -a));
                a * hi
            }
            VarMap::Split { pos, neg } => {
                out.push((pos, a));
                out.push((neg, -a));
                0.0
            }
        }
    };

    for c in &lp.constraints {
        let mut coeffs = Vec::with_capacity(c.coeffs.len() + 2);
        let mut shift = 0.0;
        for &(v, a) in &c.coeffs {
            shift += emit(v, a, &mut coeffs);
        }
        rows.push(Row {
            coeffs,
            rhs: c.rhs - shift,
            relation: c.relation,
        });
    }
    for (&map, &upper) in maps.iter().zip(lp.upper.iter()) {
        if let VarMap::Shifted { col, lo } = map {
            if upper.is_finite() {
                rows.push(Row {
                    coeffs: vec![(col, 1.0)],
                    rhs: upper - lo,
                    relation: Relation::Le,
                });
            }
        }
    }

    // Standard-form objective.
    let mut cost = vec![0.0; n_cols];
    let mut obj_const = 0.0;
    for (&map, &cv) in maps.iter().zip(lp.obj.iter()) {
        if cv == 0.0 {
            continue;
        }
        match map {
            VarMap::Shifted { col, lo } => {
                cost[col] += cv;
                obj_const += cv * lo;
            }
            VarMap::Flipped { col, hi } => {
                cost[col] -= cv;
                obj_const += cv * hi;
            }
            VarMap::Split { pos, neg } => {
                cost[pos] += cv;
                cost[neg] -= cv;
            }
        }
    }

    // Slack/surplus columns, then ensure b >= 0 by row negation.
    // Duplicate column indices (e.g. repeated variables in a constraint)
    // accumulate via `+=` below.
    let m = rows.len();
    let mut a = vec![vec![0.0; n_cols]; m]; // grown below
    let mut b = vec![0.0; m];
    let mut extra_cols = 0usize;
    for (i, row) in rows.iter().enumerate() {
        for &(col, coef) in &row.coeffs {
            a[i][col] += coef;
        }
        b[i] = row.rhs;
        if row.relation != Relation::Eq {
            extra_cols += 1;
        }
    }
    let total_cols = n_cols + extra_cols;
    for row in a.iter_mut() {
        row.resize(total_cols, 0.0);
    }
    let mut next = n_cols;
    for (i, row) in rows.iter().enumerate() {
        match row.relation {
            Relation::Le => {
                a[i][next] = 1.0;
                next += 1;
            }
            Relation::Ge => {
                a[i][next] = -1.0;
                next += 1;
            }
            Relation::Eq => {}
        }
    }
    let mut row_signs = vec![1.0; m];
    for i in 0..m {
        if b[i] < 0.0 {
            b[i] = -b[i];
            for x in a[i].iter_mut() {
                *x = -*x;
            }
            row_signs[i] = -1.0;
        }
    }
    cost.resize(total_cols, 0.0);

    Ok(Standardized {
        maps,
        a,
        b,
        cost,
        obj_const,
        total_cols,
        row_signs,
    })
}

/// Maps a standard-form point `y` back to an [`LpSolution`] over the
/// original variables.
fn extract_solution(lp: &LpProblem, std: &Standardized, y: &[f64]) -> LpSolution {
    let n = lp.n_vars();
    let mut x = vec![0.0; n];
    for (xv, &map) in x.iter_mut().zip(std.maps.iter()) {
        *xv = match map {
            VarMap::Shifted { col, lo } => lo + y[col],
            VarMap::Flipped { col, hi } => hi - y[col],
            VarMap::Split { pos, neg } => y[pos] - y[neg],
        };
    }
    let objective = std.obj_const
        + std
            .cost
            .iter()
            .zip(y.iter())
            .map(|(c, yi)| c * yi)
            .sum::<f64>();
    LpSolution { x, objective }
}

// ---------------------------------------------------------------------
// Warm-startable solver
// ---------------------------------------------------------------------

/// A reusable simplex engine that warm-starts successive solves from the
/// previous optimal basis.
///
/// Feed it a sequence of structurally identical [`LpProblem`]s whose
/// objective, right-hand sides, bounds, or even constraint coefficients
/// drift between calls (the DC-OPF inner loop of problem (4) perturbs
/// the constraint matrix through the reactances). Correctness never
/// depends on the warm start: any mismatch — changed shape, singular or
/// primal-infeasible saved basis, or an iteration-limited resolve —
/// silently falls back to the cold two-phase solve.
///
/// # Example
///
/// ```
/// use gridmtd_opf::lp::{LpProblem, LpSolver, Relation};
///
/// # fn main() -> Result<(), gridmtd_opf::lp::LpError> {
/// let mut lp = LpProblem::new();
/// let x = lp.add_var(0.0, 3.0, -1.0);
/// let y = lp.add_var(0.0, 3.0, -2.0);
/// lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
///
/// let mut solver = LpSolver::new();
/// let first = solver.solve(&lp)?; // cold
/// lp.set_rhs(0, 3.5); // perturb and resolve warm
/// let second = solver.solve(&lp)?;
/// assert!(second.objective > first.objective); // tighter ⇒ costlier
/// assert_eq!(solver.warm_solves(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct LpSolver {
    /// Saved optimal basis (standard-form column per row) and the shape
    /// `(rows, total_cols)` it belongs to.
    basis: Option<(Vec<usize>, (usize, usize))>,
    warm_solves: u64,
    cold_solves: u64,
}

impl LpSolver {
    /// Creates a solver with no saved basis (first solve is cold).
    pub fn new() -> LpSolver {
        LpSolver::default()
    }

    /// Drops the saved basis; the next solve runs cold.
    pub fn reset(&mut self) {
        self.basis = None;
    }

    /// Number of solves completed through the warm path.
    pub fn warm_solves(&self) -> u64 {
        self.warm_solves
    }

    /// Number of solves completed through the cold two-phase path.
    pub fn cold_solves(&self) -> u64 {
        self.cold_solves
    }

    /// Solves `lp`, warm-starting from the previous solve's basis when
    /// the standard-form shapes match.
    ///
    /// # Errors
    ///
    /// Same contract as [`LpProblem::solve`]; warm and cold paths agree
    /// on the optimal objective.
    pub fn solve(&mut self, lp: &LpProblem) -> Result<LpSolution, LpError> {
        Ok(self.solve_inner(lp, false)?.0)
    }

    /// Solves `lp` and additionally recovers the dual multipliers
    /// (shadow prices) of the declared constraints, in declaration
    /// order: `duals[i] = ∂objective/∂rhsᵢ` at the optimum.
    ///
    /// For sensitivities through the constraint *coefficients* — the
    /// envelope-theorem use in the DC-OPF cost gradient — the same
    /// multipliers give `∂objective/∂t = Σᵢ duals[i]·(∂rhsᵢ/∂t −
    /// (∂aᵢ/∂t)ᵀx*)` while the optimal basis stays fixed. At a
    /// degenerate optimum the multipliers are one valid subgradient
    /// choice (the one priced by the final simplex basis).
    ///
    /// # Errors
    ///
    /// Same contract as [`LpSolver::solve`], plus
    /// [`LpError::DualRecovery`] if the certified basis cannot be
    /// re-factorized (not expected).
    pub fn solve_with_duals(&mut self, lp: &LpProblem) -> Result<(LpSolution, Vec<f64>), LpError> {
        let (sol, duals) = self.solve_inner(lp, true)?;
        Ok((sol, duals.unwrap_or_default()))
    }

    fn solve_inner(
        &mut self,
        lp: &LpProblem,
        want_duals: bool,
    ) -> Result<(LpSolution, Option<Vec<f64>>), LpError> {
        let std = standardize(lp)?;
        let shape = (std.a.len(), std.total_cols);

        if let Some((saved, saved_shape)) = self.basis.take() {
            if saved_shape == shape {
                match warm_resolve(&std, &saved) {
                    WarmOutcome::Solved { y, basis, factor } => {
                        let duals = if want_duals {
                            Some(recover_duals(
                                &std,
                                &basis,
                                lp.n_constraints(),
                                factor.as_deref(),
                            )?)
                        } else {
                            None
                        };
                        self.basis = Some((basis, shape));
                        self.warm_solves += 1;
                        return Ok((extract_solution(lp, &std, &y), duals));
                    }
                    WarmOutcome::FallBackCold => {}
                }
            }
        }

        let (y, basis) = solve_cold(&std)?;
        let duals = if want_duals {
            Some(recover_duals(&std, &basis, lp.n_constraints(), None)?)
        } else {
            None
        };
        // Redundant rows can leave a zero-valued artificial basic; the
        // warm path knows to treat those slots as costless unit columns
        // (and re-checks that they stay at zero), so the basis is worth
        // saving either way — dropping it would force every later solve
        // of a problem with one redundant row back onto the cold
        // two-phase path.
        self.basis = Some((basis, shape));
        self.cold_solves += 1;
        Ok((extract_solution(lp, &std, &y), duals))
    }
}

/// Recovers the effective dual multipliers of the first `n_user`
/// (original) constraints at an optimal basis: solves `Bᵀλ = c_B` in
/// standard form and maps back through the `b ≥ 0` row negations
/// (`ŷᵢ = σᵢλᵢ`). A redundant row kept basic by a two-phase artificial
/// column contributes a unit column at zero cost, so its multiplier is
/// zero. Upper-bound rows appended after the user constraints are
/// solved for but not returned.
fn recover_duals(
    std: &Standardized,
    basis: &[usize],
    n_user: usize,
    factor: Option<&Lu>,
) -> Result<Vec<f64>, LpError> {
    let m = std.a.len();
    debug_assert!(n_user <= m || m == 0);
    if m == 0 || basis.len() != m {
        // Bound-only problem (no rows), or a shape that cannot happen
        // from our own solve paths: every constraint prices at zero.
        return Ok(vec![0.0; n_user.min(m)]);
    }
    let fresh;
    let lu = match factor {
        Some(lu) => lu,
        None => {
            fresh = factor_basis(std, basis).map_err(|_| LpError::DualRecovery)?;
            &fresh
        }
    };
    let cb: Vec<f64> = basis
        .iter()
        .map(|&j| if j < std.total_cols { std.cost[j] } else { 0.0 })
        .collect();
    let lambda = lu
        .solve_transposed(&cb)
        .map_err(|_| LpError::DualRecovery)?;
    Ok(std
        .row_signs
        .iter()
        .zip(lambda.iter())
        .take(n_user)
        .map(|(&sign, &l)| sign * l)
        .collect())
}

/// Factorizes the basis matrix `B` of `saved` (dense LU: the DC-OPF's
/// shift-factor LP has a few dozen rows). Column indices `≥ total_cols`
/// are the two-phase artificial columns (unit columns `e_{j−n}`), which
/// a cold basis may retain on redundant rows; both the warm path and the
/// dual recovery accept them.
fn factor_basis(std: &Standardized, saved: &[usize]) -> Result<Lu, LinalgError> {
    let m = std.a.len();
    let n = std.total_cols;
    let bmat = Matrix::from_fn(m, m, |i, k| {
        let j = saved[k];
        if j >= n {
            f64::from(u8::from(i == j - n))
        } else {
            std.a[i][j]
        }
    });
    Lu::factor(&bmat)
}

/// Builds the tableau `B⁻¹[A | b]` in the factored basis, with the basic
/// values `xb` copied verbatim into the last column — callers that need
/// a feasible Phase-2 start clamp `xb` at zero first, while the warm
/// Phase-1 repair needs the raw (possibly negative) values to locate
/// the violated rows.
fn basis_tableau(lu: &Lu, std: &Standardized, xb: &[f64]) -> Result<Vec<Vec<f64>>, LinalgError> {
    let m = std.a.len();
    let n = std.total_cols;
    let mut t = vec![vec![0.0; n + 1]; m];
    let binv = lu.inverse()?;
    for i in 0..m {
        for k in 0..m {
            let w = binv[(i, k)];
            if w != 0.0 {
                let (ti, ak) = (&mut t[i], &std.a[k]);
                for (tij, &akj) in ti.iter_mut().zip(ak.iter()) {
                    *tij += w * akj;
                }
            }
        }
    }
    for (ti, &xbi) in t.iter_mut().zip(xb.iter()) {
        ti[n] = xbi;
    }
    Ok(t)
}

/// Result of a warm-start attempt.
enum WarmOutcome {
    /// Optimum reached from the saved basis.
    Solved {
        y: Vec<f64>,
        basis: Vec<usize>,
        /// The factorization of `basis` against the current data, when
        /// the resolve finished without pivoting away from it (the
        /// still-optimal fast path). Dual recovery reuses it instead of
        /// refactoring — at DC-OPF sizes the basis LU is the dominant
        /// cost of a warm solve, and this halves it. Boxed so the
        /// pivoting variants don't carry the factorization's footprint.
        factor: Option<Box<Lu>>,
    },
    /// Saved basis unusable for this data; run the cold path.
    FallBackCold,
}

/// Attempts to resolve the standardized problem from `saved`:
///
/// 1. factorize the basis matrix `B` and check primal feasibility of
///    `x_B = B⁻¹b`; a *mildly infeasible* basis (the usual outcome of a
///    constraint-coefficient drift along an optimizer trajectory) is
///    repaired by a warm Phase 1 that plants artificial columns only on
///    the violated rows — a handful of pivots, against the hundreds the
///    cold all-artificial Phase 1 needs at DC-OPF sizes;
/// 2. price the nonbasic columns with the duals `y = B⁻ᵀc_B`; if no
///    reduced cost is negative the saved basis is still optimal and the
///    solve finishes without a single pivot;
/// 3. otherwise build the Phase-2 tableau `B⁻¹[A | b]` and pivot to
///    optimality (no Phase 1, artificials frozen at zero).
///
/// The warm path never certifies anything: an unbounded ray, an
/// iteration-limited resolve or a Phase-1 residual requests the cold
/// fallback, so only the cold path reports [`LpError::Unbounded`] or
/// [`LpError::Infeasible`]. (A ray found from a drifted basis can be an
/// artifact of roundoff in the re-factored tableau.)
fn warm_resolve(std: &Standardized, saved: &[usize]) -> WarmOutcome {
    let m = std.a.len();
    let n = std.total_cols;
    if m == 0 || saved.len() != m || saved.iter().any(|&j| j >= n + m) {
        return WarmOutcome::FallBackCold;
    }
    // Injection point for the chaos matrix: forcing the fallback here
    // must leave the returned solution bit-identical (the cold path is
    // the certifier the warm path is pinned against).
    if gridmtd_faults::point!("opf.lp.warm_resolve") {
        return WarmOutcome::FallBackCold;
    }

    let Ok(lu) = factor_basis(std, saved) else {
        return WarmOutcome::FallBackCold; // singular basis
    };
    let Ok(xb) = lu.solve(&std.b) else {
        return WarmOutcome::FallBackCold;
    };
    // Primal infeasible for the new data: repair with a warm Phase 1.
    if xb.iter().any(|&v| v < -1e-7) {
        return warm_repair(std, &lu, saved, &xb);
    }
    // A retained artificial column (index ≥ n) marks a row that was
    // redundant when the basis was certified. It may stay basic only at
    // value zero: a nonzero value would mean the row is no longer
    // redundant under the new data and the "solution" would satisfy it
    // with a variable that does not exist in the real problem.
    if saved
        .iter()
        .zip(xb.iter())
        .any(|(&j, &v)| j >= n && v.abs() > 1e-7)
    {
        return WarmOutcome::FallBackCold;
    }

    // Duals and reduced costs: r_j = c_j − yᵀa_j, with the dual solve
    // `Bᵀy = c_B` reusing the factorization of B (artificials are
    // costless placeholders).
    let cb: Vec<f64> = saved
        .iter()
        .map(|&j| if j < n { std.cost[j] } else { 0.0 })
        .collect();
    let Ok(dual) = lu.solve_transposed(&cb) else {
        return WarmOutcome::FallBackCold;
    };
    let mut in_basis = vec![false; n];
    for &j in saved {
        if j < n {
            in_basis[j] = true;
        }
    }
    let mut still_optimal = true;
    for (j, &basic) in in_basis.iter().enumerate() {
        if basic {
            continue;
        }
        let mut r = std.cost[j];
        for (&di, row) in dual.iter().zip(std.a.iter()) {
            if di != 0.0 {
                r -= di * row[j];
            }
        }
        if r < -TOL {
            still_optimal = false;
            break;
        }
    }
    if still_optimal {
        let mut y = vec![0.0; n];
        for (k, &j) in saved.iter().enumerate() {
            if j < n {
                y[j] = xb[k].max(0.0);
            }
        }
        return WarmOutcome::Solved {
            y,
            basis: saved.to_vec(),
            factor: Some(Box::new(lu)),
        };
    }

    // Saved basis is feasible but no longer optimal: express the tableau
    // in that basis (t = B⁻¹[A | b]) and run Phase-2 pivots only. The
    // basic values are clamped at zero (the feasibility check above
    // bounds them at −1e-7).
    let xb_clamped: Vec<f64> = xb.iter().map(|&v| v.max(0.0)).collect();
    let Ok(t) = basis_tableau(&lu, std, &xb_clamped) else {
        return WarmOutcome::FallBackCold;
    };
    let mut t = t;
    let width = n + 1;
    let mut basis = saved.to_vec();
    // Pad the cost vector so retained artificials (basis indices ≥ n)
    // price as the costless placeholders they are.
    let mut cost = vec![0.0; n + m];
    cost[..n].copy_from_slice(&std.cost);
    match run_simplex(&mut t, &mut basis, &cost, n) {
        Ok(_) => {
            let mut y = vec![0.0; n];
            for i in 0..m {
                if basis[i] < n {
                    y[basis[i]] = t[i][width - 1];
                }
            }
            WarmOutcome::Solved {
                y,
                basis,
                factor: None,
            }
        }
        // A stalled or unbounded warm resolve is retried cold.
        Err(_) => WarmOutcome::FallBackCold,
    }
}

/// Warm Phase-1 repair of a primal-infeasible saved basis: negates the
/// violated rows of the tableau `B⁻¹[A | b]`, plants one artificial unit
/// column on each, and drives their sum to zero starting from the saved
/// basis — the infeasibilities of an optimizer-trajectory resolve are
/// few and shallow, so this converges in a handful of pivots where the
/// cold path rebuilds feasibility from `m` artificials. Phase 2 then
/// continues on the repaired basis as usual.
///
/// Falls back cold when the saved basis already carries legacy
/// artificials (their index space would collide with the repair
/// columns), when Phase 1 cannot close the gap (the problem may be
/// genuinely infeasible — the cold path is the certifier), when Phase 2
/// meets an unbounded ray (the cold path certifies that too), or when a
/// repair artificial survives in the basis.
fn warm_repair(std: &Standardized, lu: &Lu, saved: &[usize], xb: &[f64]) -> WarmOutcome {
    let m = std.a.len();
    let n = std.total_cols;
    if saved.iter().any(|&j| j >= n) {
        return WarmOutcome::FallBackCold;
    }
    // Injection point: a repair that gives up must degrade to the cold
    // path with a bit-identical solution, never a wrong answer.
    if gridmtd_faults::point!("opf.lp.warm_repair") {
        return WarmOutcome::FallBackCold;
    }
    let Ok(mut t) = basis_tableau(lu, std, xb) else {
        return WarmOutcome::FallBackCold;
    };
    let neg_rows: Vec<usize> = (0..m).filter(|&i| t[i][n] < 0.0).collect();
    let n_art = neg_rows.len();
    let width = n + n_art + 1;
    let mut basis = saved.to_vec();
    for row in t.iter_mut() {
        let rhs = row[n];
        row.resize(width, 0.0);
        row[n] = 0.0;
        row[width - 1] = rhs;
    }
    for (a, &i) in neg_rows.iter().enumerate() {
        for v in t[i].iter_mut() {
            *v = -*v;
        }
        t[i][n + a] = 1.0;
        basis[i] = n + a;
    }

    // Phase 1 on the repair artificials only.
    let mut p1_cost = vec![0.0; width - 1];
    for slot in p1_cost.iter_mut().skip(n) {
        *slot = 1.0;
    }
    match run_simplex(&mut t, &mut basis, &p1_cost, n + n_art) {
        Ok(p1) if p1 <= 1e-7 => {}
        Ok(_) | Err(_) => return WarmOutcome::FallBackCold,
    }
    // Drive zero-valued artificials out of the basis where possible.
    for i in 0..m {
        if basis[i] >= n {
            if let Some(j) = (0..n).find(|&j| t[i][j].abs() > TOL) {
                pivot(&mut t, &mut basis, i, j);
            }
        }
    }
    // A surviving artificial lives in the repair index space, which the
    // next solve's basis factorization would misread as a unit row column:
    // don't let it escape this function.
    if basis.iter().any(|&j| j >= n) {
        return WarmOutcome::FallBackCold;
    }

    let mut p2_cost = vec![0.0; width - 1];
    p2_cost[..n].copy_from_slice(&std.cost);
    match run_simplex(&mut t, &mut basis, &p2_cost, n) {
        Ok(_) => {
            let mut y = vec![0.0; n];
            for i in 0..m {
                if basis[i] < n {
                    y[basis[i]] = t[i][width - 1];
                }
            }
            WarmOutcome::Solved {
                y,
                basis,
                factor: None,
            }
        }
        Err(_) => WarmOutcome::FallBackCold,
    }
}

/// Cold two-phase solve of a standardized problem; returns the optimal
/// standard-form point and its basis.
fn solve_cold(std: &Standardized) -> Result<(Vec<f64>, Vec<usize>), LpError> {
    simplex_two_phase(&std.a, &std.b, &std.cost)
}

/// Two-phase simplex on standard form `min cᵀy, Ay = b, y ≥ 0, b ≥ 0`.
/// Returns the optimal point and the final basis (which may contain
/// artificial column indices `≥ n` for redundant rows).
fn simplex_two_phase(
    a: &[Vec<f64>],
    b: &[f64],
    cost: &[f64],
) -> Result<(Vec<f64>, Vec<usize>), LpError> {
    let m = a.len();
    let n = if m > 0 { a[0].len() } else { cost.len() };
    if m == 0 {
        // Bound-only problem: all-zero is optimal iff no negative costs
        // with unbounded columns; since every standard var has y ≥ 0 and
        // no constraints, any negative cost is unbounded.
        if cost.iter().any(|&c| c < -TOL) {
            return Err(LpError::Unbounded);
        }
        return Ok((vec![0.0; n], Vec::new()));
    }

    // Tableau: m rows × (n + m artificials + 1 rhs).
    let width = n + m + 1;
    let mut t = vec![vec![0.0; width]; m];
    let mut basis = vec![0usize; m];
    for i in 0..m {
        for j in 0..n {
            t[i][j] = a[i][j];
        }
        t[i][n + i] = 1.0;
        t[i][width - 1] = b[i];
        basis[i] = n + i;
    }

    // Phase 1: minimize sum of artificials.
    let mut phase1_cost = vec![0.0; width - 1];
    phase1_cost[n..n + m].fill(1.0);
    let p1 = run_simplex(&mut t, &mut basis, &phase1_cost, n + m)?;
    if p1 > 1e-7 {
        return Err(LpError::Infeasible);
    }
    // Drive remaining artificials out of the basis if possible.
    for i in 0..m {
        if basis[i] >= n {
            // find a non-artificial column with nonzero entry in row i
            if let Some(j) = (0..n).find(|&j| t[i][j].abs() > TOL) {
                pivot(&mut t, &mut basis, i, j);
            }
            // else: redundant row; harmless to leave the artificial at 0.
        }
    }

    // Phase 2 on original cost, artificials frozen at zero (never priced).
    let mut phase2_cost = vec![0.0; width - 1];
    phase2_cost[..n].copy_from_slice(&cost[..n]);
    run_simplex(&mut t, &mut basis, &phase2_cost, n)?;

    let mut y = vec![0.0; n];
    for i in 0..m {
        if basis[i] < n {
            y[basis[i]] = t[i][width - 1];
        }
    }
    Ok((y, basis))
}

/// Runs simplex iterations on the tableau for the given cost vector,
/// pricing only columns `< n_price`. Returns the optimal objective value.
fn run_simplex(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    n_price: usize,
) -> Result<f64, LpError> {
    let m = t.len();
    let width = t[0].len();
    let max_iters = 50_000;

    // Reduced costs are computed on demand: r_j = c_j - Σ_i c_{B(i)} t[i][j].
    let mut iter = 0;
    loop {
        iter += 1;
        if iter > max_iters {
            return Err(LpError::IterationLimit);
        }
        let bland = iter > 5_000; // anti-cycling fallback

        // Basic cost multipliers.
        let cb: Vec<f64> = basis.iter().map(|&j| cost[j]).collect();

        // Pricing.
        let mut enter: Option<usize> = None;
        let mut best = -TOL;
        for j in 0..n_price {
            if basis.contains(&j) {
                continue;
            }
            let mut r = cost[j];
            for i in 0..m {
                if cb[i] != 0.0 {
                    r -= cb[i] * t[i][j];
                }
            }
            if r < -TOL {
                if bland {
                    enter = Some(j);
                    break;
                }
                if r < best {
                    best = r;
                    enter = Some(j);
                }
            }
        }
        let Some(je) = enter else {
            // Optimal: return objective.
            let mut obj = 0.0;
            for i in 0..m {
                obj += cost[basis[i]] * t[i][width - 1];
            }
            return Ok(obj);
        };

        // Ratio test.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let aij = t[i][je];
            if aij > TOL {
                let ratio = t[i][width - 1] / aij;
                if ratio < best_ratio - TOL
                    || (bland
                        && (ratio - best_ratio).abs() <= TOL
                        && leave.is_some_and(|l| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(ie) = leave else {
            return Err(LpError::Unbounded);
        };
        pivot(t, basis, ie, je);
    }
}

/// Pivot the tableau on `(row, col)`.
fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize) {
    let p = t[row][col];
    for v in t[row].iter_mut() {
        *v /= p;
    }
    // Split-borrow the tableau around the pivot row so the elimination
    // loop can read it while mutating the other rows.
    let (above, rest) = t.split_at_mut(row);
    let (pivot_row, below) = rest.split_first_mut().expect("pivot row in range");
    for ti in above.iter_mut().chain(below.iter_mut()) {
        let f = ti[col];
        if f != 0.0 {
            for (tij, &pj) in ti.iter_mut().zip(pivot_row.iter()) {
                *tij -= f * pj;
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18, x,y>=0 → (2,6), obj 36.
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, f64::INFINITY, -3.0);
        let y = lp.add_var(0.0, f64::INFINITY, -5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, -36.0, 1e-9);
        assert_close(sol.x[0], 2.0, 1e-9);
        assert_close(sol.x[1], 6.0, 1e-9);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min 2x + 3y s.t. x + y = 10, x >= 4, y >= 2 → (8,2), obj 22.
        let mut lp = LpProblem::new();
        let x = lp.add_var(4.0, f64::INFINITY, 2.0);
        let y = lp.add_var(2.0, f64::INFINITY, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 10.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 22.0, 1e-9);
        assert_close(sol.x[0], 8.0, 1e-9);
    }

    #[test]
    fn free_variables_are_handled() {
        // min |style| problem: min x s.t. x >= -5 with free x via constraint.
        let mut lp = LpProblem::new();
        let x = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, -5.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.x[0], -5.0, 1e-9);
    }

    #[test]
    fn flipped_variable_only_upper_bound() {
        // min -x s.t. x <= 7 (no lower bound on declaration, Ge constraint keeps bounded)
        let mut lp = LpProblem::new();
        let _x = lp.add_var(f64::NEG_INFINITY, 7.0, -1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.x[0], 7.0, 1e-9);
    }

    #[test]
    fn infeasible_is_detected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_is_detected() {
        let mut lp = LpProblem::new();
        let _x = lp.add_var(0.0, f64::INFINITY, -1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn unknown_variable_is_detected() {
        let mut lp = LpProblem::new();
        let _x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_constraint(vec![(5, 1.0)], Relation::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::UnknownVariable(5));
    }

    #[test]
    fn empty_bound_is_detected() {
        let mut lp = LpProblem::new();
        let _x = lp.add_var(2.0, 1.0, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::EmptyBound { var: 0 })));
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, -1.0)], Relation::Le, -3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.x[0], 3.0, 1e-9);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-flavoured degenerate LP; checks anti-cycling.
        let mut lp = LpProblem::new();
        let v: Vec<usize> = (0..4)
            .map(|i| lp.add_var(0.0, f64::INFINITY, -(10f64.powi(3 - i))))
            .collect();
        for i in 0..4 {
            let mut coeffs = Vec::new();
            for (k, &vk) in v.iter().enumerate().take(i) {
                coeffs.push((vk, 2.0 * 10f64.powi((i - k) as i32)));
            }
            coeffs.push((v[i], 1.0));
            lp.add_constraint(coeffs, Relation::Le, 100f64.powi(i as i32));
        }
        let sol = lp.solve().unwrap();
        // Known optimum: last var at 100^3, objective -100^3.
        assert_close(sol.objective, -1_000_000.0, 1e-3);
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        // min -x s.t. 0.5x + 0.5x <= 3 → x = 3.
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_constraint(vec![(x, 0.5), (x, 0.5)], Relation::Le, 3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.x[0], 3.0, 1e-9);
    }

    #[test]
    fn duplicate_coefficients_are_summed_for_free_variables() {
        // A free variable standardizes to a split pair (y⁺, y⁻); repeated
        // indices must accumulate on both columns. min x s.t.
        // 0.5x + 0.5x >= -4, x <= 0 (via second constraint) → x = -4.
        let mut lp = LpProblem::new();
        let x = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 0.5), (x, 0.5)], Relation::Ge, -4.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.x[0], -4.0, 1e-9);
        // And the duplicate-summed constraint is honoured warm too.
        let mut solver = LpSolver::new();
        let warm_seed = solver.solve(&lp).unwrap();
        assert_close(warm_seed.objective, -4.0, 1e-9);
        lp.set_rhs(0, -3.0);
        let resolved = solver.solve(&lp).unwrap();
        assert_close(resolved.x[0], -3.0, 1e-9);
    }

    #[test]
    fn transportation_problem() {
        // 2 plants (cap 30, 40) → 2 cities (demand 25, 35), costs
        // [[8,6],[9,4]]; optimum ships 25 from p1 to c1, 5 p1→c2? Let's
        // compute: min 8a+6b+9c+4d, a+b<=30, c+d<=40, a+c=25, b+d=35.
        // Cheapest: d=35 (4), remaining c1 demand 25 via a (8) → obj
        // 25*8+35*4 = 340.
        let mut lp = LpProblem::new();
        let a = lp.add_var(0.0, f64::INFINITY, 8.0);
        let b = lp.add_var(0.0, f64::INFINITY, 6.0);
        let c = lp.add_var(0.0, f64::INFINITY, 9.0);
        let d = lp.add_var(0.0, f64::INFINITY, 4.0);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Le, 30.0);
        lp.add_constraint(vec![(c, 1.0), (d, 1.0)], Relation::Le, 40.0);
        lp.add_constraint(vec![(a, 1.0), (c, 1.0)], Relation::Eq, 25.0);
        lp.add_constraint(vec![(b, 1.0), (d, 1.0)], Relation::Eq, 35.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 340.0, 1e-8);
    }

    #[test]
    fn solution_respects_all_bounds() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0, 2.0, -1.0);
        let y = lp.add_var(-3.0, -1.0, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 0.5);
        let sol = lp.solve().unwrap();
        assert!(sol.x[0] >= 1.0 - 1e-9 && sol.x[0] <= 2.0 + 1e-9);
        assert!(sol.x[1] >= -3.0 - 1e-9 && sol.x[1] <= -1.0 + 1e-9);
        assert!(sol.x[0] + sol.x[1] <= 0.5 + 1e-9);
        // optimum: y=-3 frees x up to 2 → x=2? x+y = -1 <= 0.5 OK → x=2,y=-3.
        assert_close(sol.x[0], 2.0, 1e-9);
        assert_close(sol.x[1], -3.0, 1e-9);
    }

    // ---- LpSolver warm-start behaviour --------------------------------

    /// A small transportation-flavoured LP whose optimum sits strictly
    /// inside the capacity bounds, so modest RHS drift keeps the basis
    /// reusable; used by several warm-start tests.
    fn warmable_lp() -> LpProblem {
        let mut lp = LpProblem::new();
        let a = lp.add_var(0.0, 25.0, 8.0);
        let b = lp.add_var(0.0, 25.0, 6.0);
        let c = lp.add_var(0.0, 30.0, 9.0);
        let d = lp.add_var(0.0, 30.0, 4.0);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Le, 30.0);
        lp.add_constraint(vec![(c, 1.0), (d, 1.0)], Relation::Le, 40.0);
        lp.add_constraint(vec![(a, 1.0), (c, 1.0)], Relation::Eq, 20.0);
        lp.add_constraint(vec![(b, 1.0), (d, 1.0)], Relation::Eq, 25.0);
        lp
    }

    #[test]
    fn warm_resolve_matches_cold_after_rhs_perturbation() {
        let mut lp = warmable_lp();
        let mut solver = LpSolver::new();
        solver.solve(&lp).unwrap();
        assert_eq!(solver.cold_solves(), 1);
        for (demand1, demand2) in [(21.0, 26.0), (22.5, 24.0), (19.0, 27.0), (23.0, 25.5)] {
            lp.set_rhs(2, demand1);
            lp.set_rhs(3, demand2);
            let warm = solver.solve(&lp).unwrap();
            let cold = lp.solve().unwrap();
            assert_close(warm.objective, cold.objective, 1e-9);
        }
        assert!(solver.warm_solves() >= 3, "warm path should engage");
    }

    #[test]
    fn warm_resolve_matches_cold_after_objective_perturbation() {
        let mut lp = warmable_lp();
        let mut solver = LpSolver::new();
        solver.solve(&lp).unwrap();
        // Flip the merit order so the optimal basis genuinely changes.
        lp.set_cost(3, 12.0);
        lp.set_cost(0, 3.0);
        let warm = solver.solve(&lp).unwrap();
        let cold = lp.solve().unwrap();
        assert_close(warm.objective, cold.objective, 1e-9);
        assert_eq!(solver.warm_solves(), 1);
    }

    #[test]
    fn warm_resolve_matches_cold_after_bound_perturbation() {
        let mut lp = warmable_lp();
        let mut solver = LpSolver::new();
        solver.solve(&lp).unwrap();
        lp.set_bounds(3, 0.0, 22.0); // clamp the cheap route
        let warm = solver.solve(&lp).unwrap();
        let cold = lp.solve().unwrap();
        assert_close(warm.objective, cold.objective, 1e-9);
    }

    #[test]
    fn unchanged_problem_resolves_without_pivots() {
        let lp = warmable_lp();
        let mut solver = LpSolver::new();
        let first = solver.solve(&lp).unwrap();
        let second = solver.solve(&lp).unwrap();
        assert_close(first.objective, second.objective, 1e-12);
        assert_eq!(solver.warm_solves(), 1);
        assert_eq!(solver.cold_solves(), 1);
    }

    #[test]
    fn shape_change_degrades_to_cold() {
        let lp = warmable_lp();
        let mut solver = LpSolver::new();
        solver.solve(&lp).unwrap();
        // A structurally different problem must not try the stale basis.
        let mut other = LpProblem::new();
        let x = other.add_var(0.0, 5.0, 1.0);
        other.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        let sol = solver.solve(&other).unwrap();
        assert_close(sol.x[0], 2.0, 1e-9);
        assert_eq!(solver.cold_solves(), 2);
        assert_eq!(solver.warm_solves(), 0);
    }

    #[test]
    fn warm_start_reports_infeasibility_via_cold_path() {
        let mut lp = warmable_lp();
        let mut solver = LpSolver::new();
        solver.solve(&lp).unwrap();
        lp.set_rhs(2, 60.0); // demand beyond both plant capacities
        assert_eq!(solver.solve(&lp).unwrap_err(), LpError::Infeasible);
        // ...and the solver recovers on the next solvable instance.
        lp.set_rhs(2, 20.0);
        let sol = solver.solve(&lp).unwrap();
        assert_close(sol.objective, lp.solve().unwrap().objective, 1e-9);
    }

    #[test]
    fn warm_start_reports_unboundedness_via_cold_path() {
        // Same shape, but a cost flip opens an unbounded ray: the warm
        // Phase 2 finds it and hands the certificate to the cold path.
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 2.0);
        let mut solver = LpSolver::new();
        solver.solve(&lp).unwrap();
        lp.set_cost(y, -1.0);
        assert_eq!(solver.solve(&lp).unwrap_err(), LpError::Unbounded);
        assert_eq!(solver.warm_solves(), 0);
        // ...and the solver recovers on the next bounded instance.
        lp.set_cost(y, 1.0);
        assert_close(solver.solve(&lp).unwrap().objective, 2.0, 1e-9);
    }

    #[test]
    fn primal_infeasible_basis_is_repaired_warm() {
        // Push demand 1 past variable `a`'s upper bound: the saved basis
        // prices a = 32 against the bound row a ≤ 25, so its slack goes
        // negative and the warm Phase-1 repair must re-route the excess
        // through plant 2 instead of falling back to a cold solve.
        let mut lp = warmable_lp();
        let mut solver = LpSolver::new();
        solver.solve(&lp).unwrap();
        assert_eq!(solver.cold_solves(), 1);
        lp.set_rhs(2, 32.0);
        let warm = solver.solve(&lp).unwrap();
        let cold = lp.solve().unwrap();
        assert_close(warm.objective, cold.objective, 1e-9);
        assert_eq!(
            (solver.warm_solves(), solver.cold_solves()),
            (1, 1),
            "the repair must finish on the warm path"
        );
    }

    #[test]
    fn repaired_basis_warm_starts_the_next_resolve() {
        // After a repair the saved basis reflects the repaired optimum;
        // a further small drift should resolve warm again.
        let mut lp = warmable_lp();
        let mut solver = LpSolver::new();
        solver.solve(&lp).unwrap();
        lp.set_rhs(2, 32.0);
        solver.solve(&lp).unwrap();
        lp.set_rhs(2, 31.0);
        let warm = solver.solve(&lp).unwrap();
        assert_close(warm.objective, lp.solve().unwrap().objective, 1e-9);
        assert_eq!(solver.cold_solves(), 1);
        assert_eq!(solver.warm_solves(), 2);
    }

    #[test]
    fn still_optimal_duals_match_a_fresh_solver() {
        // The still-optimal warm path hands its basis factorization to
        // the dual recovery; the duals must be bit-identical to a cold
        // solver's (same basis, same data, same factorization).
        let lp = warmable_lp();
        let mut warm_solver = LpSolver::new();
        warm_solver.solve_with_duals(&lp).unwrap();
        let (_, warm_duals) = warm_solver.solve_with_duals(&lp).unwrap();
        assert_eq!(warm_solver.warm_solves(), 1);
        let (_, cold_duals) = LpSolver::new().solve_with_duals(&lp).unwrap();
        assert_eq!(
            warm_duals.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            cold_duals.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn reset_forces_cold_solve() {
        let lp = warmable_lp();
        let mut solver = LpSolver::new();
        solver.solve(&lp).unwrap();
        solver.reset();
        solver.solve(&lp).unwrap();
        assert_eq!(solver.cold_solves(), 2);
        assert_eq!(solver.warm_solves(), 0);
    }

    #[test]
    fn warm_resolve_handles_constraint_matrix_drift() {
        // The DC-OPF use case: the constraint *coefficients* drift (the
        // reactances move), not just b and c. Model: min x+y subject to
        // a1·x + y >= 4, x,y in [0,10], sweeping a1.
        let mut solver = LpSolver::new();
        for k in 0..12 {
            let a1 = 1.0 + 0.05 * k as f64;
            let mut lp = LpProblem::new();
            let x = lp.add_var(0.0, 10.0, 1.0);
            let y = lp.add_var(0.0, 10.0, 1.0);
            lp.add_constraint(vec![(x, a1), (y, 1.0)], Relation::Ge, 4.0);
            let warm = solver.solve(&lp).unwrap();
            let cold = lp.solve().unwrap();
            assert_close(warm.objective, cold.objective, 1e-9);
        }
        assert!(solver.warm_solves() >= 10);
    }
}
