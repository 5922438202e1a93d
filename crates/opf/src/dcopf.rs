//! DC optimal power flow (problem (1) of the paper) in shift-factor
//! form, with the line limits added lazily.
//!
//! For a fixed reactance vector the DC-OPF is a linear program. With the
//! slack row and column of `B = A D Aᵀ` removed, the angles are
//! `θ̃ = B̃⁻¹ p̃` for the reduced injections `p̃ = (C g − l)̃`, so each
//! branch flow is an affine function of the dispatch alone:
//!
//! ```text
//! min Σ Cᵢ(Gᵢ)                               (generation cost)
//! s.t. Σ g = Σ l                             (system balance)
//!      −f_max,k ≤ b_k w_kᵀ (C g − l)̃ ≤ f_max,k  (flow limits, k ∈ W)
//!      g_min ≤ g ≤ g_max                     (generator limits)
//! where B̃ w_k = e_from(k) − e_to(k)           (shift factors of branch k)
//! ```
//!
//! The angles leave the LP: its columns are the dispatch (and the PWL
//! segments below), its rows the PWL coupling rows, one system balance
//! and one row per limit direction in the **working set** `W`.
//!
//! **Lazy limits.** At the operating points the MTD pipeline visits
//! almost no limit binds, so `W` starts from what the previous solve
//! needed (carried by an [`OpfContext`]) and grows on demand. Each round
//! solves the LP over `W`, recovers θ and the flows with one solve
//! through the factor of `B̃`, and adds every violated direction to `W`.
//! When no limit is violated the relaxation's optimum is feasible for
//! the full LP, hence optimal for it; an infeasible relaxation certifies
//! an infeasible OPF. `W` only grows within a call, so the loop ends
//! after at most `2·n_branches + 1` rounds. One factorization of
//! `B̃(x)` per call serves the flow recovery, the shift-factor rows and
//! the gradient's adjoint solve ([`solve_opf_grad_with`]).
//!
//! Linear generator costs go straight into the LP objective; quadratic
//! costs (MATPOWER `case30`) are linearized into convex piecewise-linear
//! segments — convexity guarantees the segments fill in merit order, so
//! the LP relaxation is exact at the knots.
//!
//! Optimization **over reactances** (the `x` degrees of freedom of
//! problem (1), and the SPA-constrained problem (4)) is nonconvex and is
//! handled by [`crate::nlp`] (problem (1)) and [`crate::lbfgs`]
//! (problem (4)) with this LP as the inner solve.

use std::error::Error;
use std::fmt;

use gridmtd_powergrid::dcpf::{self, PfFactor};
use gridmtd_powergrid::{GenCost, GridError, Network};

use crate::lp::{LpError, LpProblem, LpSolver, Relation};

/// Options for the DC-OPF construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpfOptions {
    /// Number of piecewise-linear segments used for quadratic cost curves.
    pub pwl_segments: usize,
}

impl Default for OpfOptions {
    fn default() -> OpfOptions {
        OpfOptions { pwl_segments: 10 }
    }
}

/// Errors from the DC-OPF.
#[derive(Debug, Clone, PartialEq)]
pub enum OpfError {
    /// The OPF is infeasible (load cannot be served within limits).
    Infeasible,
    /// The LP was unbounded — indicates corrupted cost data.
    Unbounded,
    /// Network/model construction failure.
    Grid(GridError),
    /// Internal LP failure.
    Lp(LpError),
}

impl fmt::Display for OpfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpfError::Infeasible => write!(f, "OPF is infeasible"),
            OpfError::Unbounded => write!(f, "OPF is unbounded"),
            OpfError::Grid(e) => write!(f, "grid error: {e}"),
            OpfError::Lp(e) => write!(f, "LP error: {e}"),
        }
    }
}

impl Error for OpfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OpfError::Grid(e) => Some(e),
            OpfError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GridError> for OpfError {
    fn from(e: GridError) -> OpfError {
        OpfError::Grid(e)
    }
}

impl From<LpError> for OpfError {
    fn from(e: LpError) -> OpfError {
        match e {
            LpError::Infeasible => OpfError::Infeasible,
            LpError::Unbounded => OpfError::Unbounded,
            other => OpfError::Lp(other),
        }
    }
}

/// Solution of a DC-OPF.
#[derive(Debug, Clone, PartialEq)]
pub struct OpfSolution {
    /// Generator dispatch, MW (generator order).
    pub dispatch: Vec<f64>,
    /// Bus voltage angles, radians (slack = 0).
    pub theta: Vec<f64>,
    /// Branch flows, MW.
    pub flows: Vec<f64>,
    /// Total generation cost, $/h, evaluated with the **exact** cost model
    /// (quadratic where applicable), not the PWL surrogate.
    pub cost: f64,
}

/// Reusable per-trajectory OPF state: the warm-startable LP engine, the
/// working set of line limits and a power-flow context.
///
/// The SPA-constrained selection (problem (4)) evaluates hundreds of
/// DC-OPFs whose reactances drift along one optimizer trajectory. A
/// context carries the working set `W` of the last solve into the next
/// one, so a solve whose limits are already in `W` finishes in one
/// round, and while `W` keeps its shape the LP warm-starts from the
/// previous optimal basis. The embedded [`dcpf::PfContext`] caches the
/// sparse symbolic factorization of `B̃` for the one numeric
/// factorization each solve runs. `W` holds only limit rows of the full
/// LP, so feeding a context a different network or option set is always
/// *correct*, just not fast.
#[derive(Debug, Clone, Default)]
pub struct OpfContext {
    lp: LpSolver,
    pf: dcpf::PfContext,
    /// The working set carried from the last solve; `None` before the
    /// first one.
    limits: Option<Vec<Limit>>,
    warm_solves: u64,
    cold_solves: u64,
}

impl OpfContext {
    /// Creates a fresh context (first solve is cold).
    pub fn new() -> OpfContext {
        OpfContext::default()
    }

    /// Creates a context around an existing power-flow context (fresh,
    /// cold LP state and an empty working set).
    ///
    /// Passing a *primed* [`dcpf::PfContext`] (see
    /// [`dcpf::PfContext::prime`]) lets many short-lived OPF contexts —
    /// one per multistart run, say — share a single symbolic
    /// factorization of the topology while keeping their warm state
    /// fully independent, so results stay bit-identical to all-fresh
    /// contexts.
    pub fn with_pf(pf: dcpf::PfContext) -> OpfContext {
        OpfContext {
            pf,
            ..OpfContext::default()
        }
    }

    /// Number of OPF solves that finished in one round on the working
    /// set carried from the previous solve.
    pub fn warm_solves(&self) -> u64 {
        self.warm_solves
    }

    /// Number of OPF solves that started without a carried working set
    /// or had to grow it.
    pub fn cold_solves(&self) -> u64 {
        self.cold_solves
    }
}

/// Solves the DC-OPF for the given reactance vector from a cold start.
///
/// Inside optimization loops prefer [`solve_opf_with`], which carries
/// the working set and the LP basis from one solve to the next.
///
/// # Errors
///
/// * [`OpfError::Infeasible`] when the load cannot be served.
/// * Reactance validation errors via [`OpfError::Grid`].
pub fn solve_opf(net: &Network, x: &[f64], options: &OpfOptions) -> Result<OpfSolution, OpfError> {
    solve_opf_with(net, x, options, &mut OpfContext::new())
}

/// Solves the DC-OPF, starting from the working set and LP basis
/// retained in `ctx` (see [`OpfContext`]).
///
/// # Errors
///
/// Same contract as [`solve_opf`]; warm and cold solves agree on the
/// optimal cost.
pub fn solve_opf_with(
    net: &Network,
    x: &[f64],
    options: &OpfOptions,
    ctx: &mut OpfContext,
) -> Result<OpfSolution, OpfError> {
    Ok(solve_lazy(net, x, options, ctx, false)?.0)
}

/// Solves the DC-OPF and additionally returns `∂cost/∂x_l` for **every**
/// branch, computed from the duals of the binding limit rows via the
/// envelope theorem.
///
/// A reactance enters the LP only through the limit rows in `W`, whose
/// shift factors depend on `B̃(x)`. With `ν_k` the shadow price of
/// branch `k`'s limit (the row dual, its sign folded in so that a
/// binding forward or reverse limit both read as a price on `f_k`),
/// `∂b_l/∂x_l = −base_mva/x_l²` and `Δθ_l = θ_from(l) − θ_to(l)` at the
/// optimum:
///
/// ```text
/// w = B̃⁻¹ Σ_k ν_k b_k (e_from(k) − e_to(k))                (one adjoint solve)
/// ∂cost/∂x_l = ∂b_l/∂x_l · Δθ_l · (ν_l − (w_from(l) − w_to(l)))
/// ```
///
/// With no binding limit every `ν_k` is zero and the gradient is
/// exactly zero (no solve runs): the cost is flat in `x` there.
///
/// This is the derivative of the LP (PWL-surrogate) objective; for
/// linear generator costs it is exactly the derivative of
/// [`OpfSolution::cost`], for quadratic costs it differs by the chord
/// vs. tangent slope within one PWL segment (small, and immaterial to
/// the optimizer that consumes it). Like the optimal value function of
/// any LP, it is piecewise smooth: at a basis change the returned value
/// is the one-sided derivative priced by the final simplex basis.
///
/// # Errors
///
/// Same contract as [`solve_opf_with`].
pub fn solve_opf_grad_with(
    net: &Network,
    x: &[f64],
    options: &OpfOptions,
    ctx: &mut OpfContext,
) -> Result<(OpfSolution, Vec<f64>), OpfError> {
    let (sol, grad) = solve_lazy(net, x, options, ctx, true)?;
    Ok((sol, grad.unwrap_or_default()))
}

/// One direction of a branch flow limit: `sign · f_branch ≤ f_max`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Limit {
    branch: usize,
    /// `+1.0` for the forward limit, `−1.0` for the reverse one.
    sign: f64,
}

/// A branch flow as an affine function of the dispatch:
/// `f = Σ coeffs·g − load_flow` (generator indices; generators at the
/// slack carry no shift factor and are left out).
struct ShiftRow {
    coeffs: Vec<(usize, f64)>,
    load_flow: f64,
}

impl ShiftRow {
    /// The shift-factor row of branch `l`: one solve `B̃ w = e_from − e_to`.
    fn build(net: &Network, factor: &PfFactor<'_>, l: usize) -> Result<ShiftRow, GridError> {
        let br = net.branch(l);
        let mut e = vec![0.0; net.n_states()];
        if let Some(i) = net.reduced_index(br.from) {
            e[i] = 1.0;
        }
        if let Some(j) = net.reduced_index(br.to) {
            e[j] = -1.0;
        }
        let w = factor.solve(&e)?;
        let bl = factor.susceptances()[l];
        let factor_at = |bus: usize| net.reduced_index(bus).map(|i| bl * w[i]);
        let coeffs = net
            .gens()
            .iter()
            .enumerate()
            .filter_map(|(gi, g)| factor_at(g.bus).map(|c| (gi, c)))
            .collect();
        let load_flow = net
            .buses()
            .iter()
            .enumerate()
            .filter_map(|(i, bus)| factor_at(i).map(|c| c * bus.load_mw))
            .sum();
        Ok(ShiftRow { coeffs, load_flow })
    }
}

/// The reactance-independent part of the LP: the dispatch columns (and
/// PWL segments), the PWL coupling rows (one per quadratic-cost
/// generator, generator order) and the system balance row. The limit
/// rows of `W` follow, in working-set order.
struct DispatchLp {
    lp: LpProblem,
    gen_vars: Vec<usize>,
    cost_offset: f64,
}

impl DispatchLp {
    fn build(net: &Network, options: &OpfOptions) -> DispatchLp {
        let mut lp = LpProblem::new();
        let mut gen_vars = Vec::with_capacity(net.n_gens());
        let mut cost_offset = 0.0;
        for g in net.gens() {
            match g.cost {
                GenCost::Linear { c } => {
                    gen_vars.push(lp.add_var(g.pmin_mw, g.pmax_mw, c));
                }
                GenCost::Quadratic { .. } => {
                    let k = options.pwl_segments.max(1);
                    let width = (g.pmax_mw - g.pmin_mw) / k as f64;
                    // g = pmin + Σ s_j, each segment priced at its chord slope.
                    let gv = lp.add_var(g.pmin_mw, g.pmax_mw, 0.0);
                    let mut coeffs = vec![(gv, 1.0)];
                    for j in 0..k {
                        let p_lo = g.pmin_mw + j as f64 * width;
                        let p_hi = p_lo + width;
                        let slope = (g.cost.eval(p_hi) - g.cost.eval(p_lo)) / width;
                        let s = lp.add_var(0.0, width, slope);
                        coeffs.push((s, -1.0));
                    }
                    lp.add_constraint(coeffs, Relation::Eq, g.pmin_mw);
                    cost_offset += g.cost.eval(g.pmin_mw);
                    gen_vars.push(gv);
                }
            }
        }
        lp.add_constraint(
            gen_vars.iter().map(|&v| (v, 1.0)).collect(),
            Relation::Eq,
            net.total_load(),
        );
        DispatchLp {
            lp,
            gen_vars,
            cost_offset,
        }
    }

    /// The LP over the working set: `sign·Σ coeffs·g ≤ f_max +
    /// sign·load_flow` per limit.
    fn with_limits(&self, net: &Network, limits: &[Limit], rows: &[ShiftRow]) -> LpProblem {
        let mut lp = self.lp.clone();
        for (lim, row) in limits.iter().zip(rows) {
            let coeffs = row
                .coeffs
                .iter()
                .map(|&(gi, c)| (self.gen_vars[gi], lim.sign * c))
                .collect();
            let fmax = net.branch(lim.branch).flow_limit_mw;
            lp.add_constraint(coeffs, Relation::Le, fmax + lim.sign * row.load_flow);
        }
        lp
    }
}

/// The lazy-limit loop behind every public solve (see the module docs);
/// with `want_grad` it also returns the cost gradient of
/// [`solve_opf_grad_with`].
fn solve_lazy(
    net: &Network,
    x: &[f64],
    options: &OpfOptions,
    ctx: &mut OpfContext,
    want_grad: bool,
) -> Result<(OpfSolution, Option<Vec<f64>>), OpfError> {
    net.check_reactances(x)?;
    let model = DispatchLp::build(net, options);
    let factor = ctx.pf.factor(net, x)?;
    let carried = ctx.limits.is_some();
    let mut limits = ctx.limits.take().unwrap_or_default();
    limits.retain(|lim| lim.branch < net.n_branches());
    let outcome = lazy_rounds(net, x, &model, &factor, &mut ctx.lp, &mut limits, want_grad);
    // The working set stays valid whatever the outcome: every row in it
    // is a row of the full LP.
    ctx.limits = Some(limits);
    let (sol, grad, rounds) = outcome?;
    if carried && rounds == 1 {
        ctx.warm_solves += 1;
    } else {
        ctx.cold_solves += 1;
    }
    Ok((sol, grad))
}

/// Runs LP rounds over the growing working set until no limit is
/// violated; returns the solution, the optional gradient and the
/// number of rounds.
fn lazy_rounds(
    net: &Network,
    x: &[f64],
    model: &DispatchLp,
    factor: &PfFactor<'_>,
    solver: &mut LpSolver,
    limits: &mut Vec<Limit>,
    want_grad: bool,
) -> Result<(OpfSolution, Option<Vec<f64>>, usize), OpfError> {
    let mut rows = limits
        .iter()
        .map(|lim| ShiftRow::build(net, factor, lim.branch))
        .collect::<Result<Vec<_>, _>>()?;
    let base_rows = model.lp.n_constraints();
    let mut rounds = 0;
    loop {
        rounds += 1;
        let lp = model.with_limits(net, limits, &rows);
        let (sol, duals) = if want_grad {
            solver.solve_with_duals(&lp)?
        } else {
            (solver.solve(&lp)?, Vec::new())
        };
        let dispatch: Vec<f64> = model.gen_vars.iter().map(|&v| sol.x[v]).collect();
        let pf = factor.power_flow(net, &net.injections(&dispatch)?)?;

        let before = limits.len();
        for (l, br) in net.branches().iter().enumerate() {
            let (f, fmax) = (pf.flows[l], br.flow_limit_mw);
            let tol = LIMIT_TOL * fmax.max(1.0);
            let sign = if f > fmax + tol {
                1.0
            } else if f < -fmax - tol {
                -1.0
            } else {
                continue;
            };
            let lim = Limit { branch: l, sign };
            if !limits.contains(&lim) {
                limits.push(lim);
                rows.push(ShiftRow::build(net, factor, l)?);
            }
        }
        if limits.len() > before {
            continue;
        }

        // Exact cost at the LP dispatch.
        let cost: f64 = net
            .gens()
            .iter()
            .zip(dispatch.iter())
            .map(|(g, &d)| g.cost.eval(d))
            .sum();
        // The PWL chords lie above every convex cost curve, so the LP
        // objective can never undercut the exact cost at the same dispatch.
        debug_assert!(
            sol.objective + model.cost_offset >= cost - 1e-6 * (1.0 + cost.abs()),
            "PWL surrogate undercut the exact convex cost"
        );
        let grad = if want_grad {
            Some(cost_gradient(
                net,
                x,
                factor,
                limits,
                &duals[base_rows..],
                &pf.theta,
            )?)
        } else {
            None
        };
        let sol = OpfSolution {
            dispatch,
            theta: pf.theta,
            flows: pf.flows,
            cost,
        };
        return Ok((sol, grad, rounds));
    }
}

/// Relative tolerance past `f_max` before a limit enters the working
/// set: flows within it count as meeting the limit.
const LIMIT_TOL: f64 = 1e-9;

/// The adjoint cost gradient of [`solve_opf_grad_with`] from the duals
/// of the limit rows (`limit_duals[k]` prices `limits[k]`).
fn cost_gradient(
    net: &Network,
    x: &[f64],
    factor: &PfFactor<'_>,
    limits: &[Limit],
    limit_duals: &[f64],
    theta: &[f64],
) -> Result<Vec<f64>, OpfError> {
    let mut grad = vec![0.0; net.n_branches()];
    // ν per branch; a row dual is ∂cost/∂rhs ≤ 0, so −dual·sign is the
    // price on the flow itself.
    let mut nu = vec![0.0; net.n_branches()];
    for (lim, &dual) in limits.iter().zip(limit_duals) {
        nu[lim.branch] -= dual * lim.sign;
    }
    if nu.iter().all(|&v| v == 0.0) {
        return Ok(grad);
    }
    let b = factor.susceptances();
    let mut rhs = vec![0.0; net.n_states()];
    for (l, br) in net.branches().iter().enumerate() {
        if nu[l] != 0.0 {
            if let Some(i) = net.reduced_index(br.from) {
                rhs[i] += nu[l] * b[l];
            }
            if let Some(j) = net.reduced_index(br.to) {
                rhs[j] -= nu[l] * b[l];
            }
        }
    }
    let w_red = factor.solve(&rhs)?;
    let w = |bus: usize| net.reduced_index(bus).map_or(0.0, |i| w_red[i]);
    for (l, br) in net.branches().iter().enumerate() {
        let db = -net.base_mva() / (x[l] * x[l]);
        let dtheta = theta[br.from] - theta[br.to];
        grad[l] = db * dtheta * (nu[l] - (w(br.from) - w(br.to)));
    }
    Ok(grad)
}

/// Solves the DC-OPF at the network's nominal reactances.
///
/// # Errors
///
/// See [`solve_opf`].
pub fn solve_opf_nominal(net: &Network, options: &OpfOptions) -> Result<OpfSolution, OpfError> {
    solve_opf(net, &net.nominal_reactances(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmtd_powergrid::cases;

    #[test]
    fn case4_reproduces_table2() {
        let net = cases::case4();
        let sol = solve_opf_nominal(&net, &OpfOptions::default()).unwrap();
        // Table II: dispatch (350, 150), cost $1.15e4, flows
        // (126.56, 173.44, −43.44, −26.56).
        assert!((sol.dispatch[0] - 350.0).abs() < 1e-6, "{:?}", sol.dispatch);
        assert!((sol.dispatch[1] - 150.0).abs() < 1e-6);
        assert!((sol.cost - 11_500.0).abs() < 1e-6);
        let expected = [126.56, 173.44, -43.44, -26.56];
        for (l, &e) in expected.iter().enumerate() {
            assert!(
                (sol.flows[l] - e).abs() < 0.01,
                "line {l}: {}",
                sol.flows[l]
            );
        }
    }

    #[test]
    fn case14_merit_order_dispatch() {
        // With 160/60 MW limits the 14-bus system is lightly congested;
        // cheapest units (bus 1 @ 20, bus 2 @ 30) should carry most load.
        let net = cases::case14();
        let sol = solve_opf_nominal(&net, &OpfOptions::default()).unwrap();
        let total: f64 = sol.dispatch.iter().sum();
        assert!((total - 259.0).abs() < 1e-6, "generation balances load");
        assert!(
            sol.dispatch[0] > 150.0,
            "cheapest unit leads: {:?}",
            sol.dispatch
        );
        // All flows within limits.
        for (l, br) in net.branches().iter().enumerate() {
            assert!(
                sol.flows[l].abs() <= br.flow_limit_mw + 1e-6,
                "flow {l} violates limit"
            );
        }
    }

    #[test]
    fn case30_quadratic_costs_solve() {
        let net = cases::case30();
        let sol = solve_opf_nominal(&net, &OpfOptions::default()).unwrap();
        let total: f64 = sol.dispatch.iter().sum();
        assert!((total - 189.2).abs() < 1e-5);
        assert!(sol.cost > 0.0);
        for (l, br) in net.branches().iter().enumerate() {
            assert!(sol.flows[l].abs() <= br.flow_limit_mw + 1e-5);
        }
        for (g, d) in net.gens().iter().zip(sol.dispatch.iter()) {
            assert!(*d >= g.pmin_mw - 1e-9 && *d <= g.pmax_mw + 1e-9);
        }
    }

    #[test]
    fn finer_pwl_grid_reduces_cost_error() {
        let net = cases::case30();
        let coarse = solve_opf(
            &net,
            &net.nominal_reactances(),
            &OpfOptions { pwl_segments: 2 },
        )
        .unwrap();
        let fine = solve_opf(
            &net,
            &net.nominal_reactances(),
            &OpfOptions { pwl_segments: 40 },
        )
        .unwrap();
        // The exact cost of the finer solution cannot be worse (it solves a
        // tighter relaxation of the same convex problem).
        assert!(fine.cost <= coarse.cost + 1e-6);
    }

    #[test]
    fn infeasible_when_capacity_insufficient() {
        let net = cases::case14().scale_loads(3.0); // 777 MW > 450 MW cap
        let err = solve_opf_nominal(&net, &OpfOptions::default()).unwrap_err();
        assert_eq!(err, OpfError::Infeasible);
    }

    #[test]
    fn congestion_raises_cost() {
        // Shrinking line limits forces out-of-merit dispatch; cost rises.
        let net = cases::case14();
        let base = solve_opf_nominal(&net, &OpfOptions::default())
            .unwrap()
            .cost;
        // Tighten only line 1 (the 160 MW corridor out of the cheap unit);
        // this forces out-of-merit redispatch while staying feasible.
        let mut tight_branches = net.branches().to_vec();
        tight_branches[0].flow_limit_mw = 90.0;
        let tight = gridmtd_powergrid::Network::new(
            "tight14",
            net.buses().to_vec(),
            tight_branches,
            net.gens().to_vec(),
            net.slack(),
        )
        .unwrap();
        let constrained = solve_opf_nominal(&tight, &OpfOptions::default())
            .unwrap()
            .cost;
        assert!(
            constrained > base + 1.0,
            "congestion should raise cost: {base} -> {constrained}"
        );
    }

    #[test]
    fn warm_context_matches_cold_solves_along_a_trajectory() {
        // The in-loop usage pattern: one context, reactances drifting
        // gradually the way an optimizer trajectory moves them.
        for net in [cases::case14(), cases::case30()] {
            let opts = OpfOptions::default();
            let mut x = net.nominal_reactances();
            let mut ctx = OpfContext::new();
            for k in 0..10 {
                for (j, l) in net.dfacts_branches().into_iter().enumerate() {
                    let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
                    x[l] *= 1.0 + sign * 0.004 * ((k % 3) as f64 + 1.0);
                }
                let warm = solve_opf_with(&net, &x, &opts, &mut ctx).unwrap();
                let cold = solve_opf(&net, &x, &opts).unwrap();
                assert!(
                    (warm.cost - cold.cost).abs() <= 1e-6 * (1.0 + cold.cost.abs()),
                    "{}: warm {} vs cold {}",
                    net.name(),
                    warm.cost,
                    cold.cost
                );
            }
            assert!(
                ctx.warm_solves() >= 7,
                "{}: warm path should carry the trajectory ({} warm / {} cold)",
                net.name(),
                ctx.warm_solves(),
                ctx.cold_solves()
            );
        }
    }

    #[test]
    fn perturbed_reactances_never_cheaper_than_free_optimum() {
        // For the 4-bus system the nominal point is optimal (gen-1 at
        // Pmax); any reactance perturbation can only increase cost.
        let net = cases::case4();
        let x0 = net.nominal_reactances();
        let base = solve_opf(&net, &x0, &OpfOptions::default()).unwrap().cost;
        for l in 0..4 {
            for scale in [0.8, 1.2] {
                let mut x = x0.clone();
                x[l] *= scale;
                let c = solve_opf(&net, &x, &OpfOptions::default()).unwrap().cost;
                assert!(c >= base - 1e-9, "perturbation ({l},{scale}) got cheaper");
            }
        }
    }
}
