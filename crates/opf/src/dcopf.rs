//! DC optimal power flow (problem (1) of the paper) on top of the LP
//! solver.
//!
//! For a fixed reactance vector the DC-OPF is a linear program:
//!
//! ```text
//! min Σ Cᵢ(Gᵢ)                        (generation cost)
//! s.t. g − l = B θ                    (nodal balance, B = A D Aᵀ)
//!      −f_max ≤ D Aᵀ θ ≤ f_max        (flow limits)
//!      g_min ≤ g ≤ g_max              (generator limits)
//! ```
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

use gridmtd_powergrid::{dcpf, GenCost, GridError, Network};

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

/// Reusable per-trajectory OPF state: the warm-startable LP engine plus
/// a power-flow context.
///
/// The SPA-constrained selection (problem (4)) evaluates hundreds of
/// DC-OPFs whose reactances drift along one optimizer trajectory while
/// the LP's *structure* (variables, constraints, bound pattern) stays
/// fixed. Reusing one `OpfContext` across those solves lets each LP
/// warm-start from the previous optimal basis — typically skipping
/// Phase 1 entirely — which is where the `select_mtd` speedup comes
/// from. The embedded [`dcpf::PfContext`] additionally caches the
/// sparse symbolic factorization of `B̃` for the flow-recovery solve at
/// the end of every OPF. A context carries no problem data of its own:
/// feeding it a different network or option set is always *correct*
/// (the solvers fall back to cold starts on any mismatch), just not
/// fast.
#[derive(Debug, Clone, Default)]
pub struct OpfContext {
    lp: LpSolver,
    pf: dcpf::PfContext,
}

impl OpfContext {
    /// Creates a fresh context (first solve is cold).
    pub fn new() -> OpfContext {
        OpfContext::default()
    }

    /// Creates a context around an existing power-flow context (fresh,
    /// cold LP state).
    ///
    /// Passing a *primed* [`dcpf::PfContext`] (see
    /// [`dcpf::PfContext::prime`]) lets many short-lived OPF contexts —
    /// one per multistart run, say — share a single symbolic
    /// factorization of the topology while keeping their simplex warm
    /// chains fully independent, so results stay bit-identical to
    /// all-fresh contexts.
    pub fn with_pf(pf: dcpf::PfContext) -> OpfContext {
        OpfContext {
            pf,
            ..OpfContext::default()
        }
    }

    /// Number of OPF solves that hit the warm-start path.
    pub fn warm_solves(&self) -> u64 {
        self.lp.warm_solves()
    }

    /// Number of OPF solves that ran the cold two-phase path.
    pub fn cold_solves(&self) -> u64 {
        self.lp.cold_solves()
    }
}

/// Solves the DC-OPF for the given reactance vector from a cold start.
///
/// Inside optimization loops prefer [`solve_opf_with`], which reuses the
/// previous solve's simplex basis.
///
/// # Errors
///
/// * [`OpfError::Infeasible`] when the load cannot be served.
/// * Reactance validation errors via [`OpfError::Grid`].
pub fn solve_opf(net: &Network, x: &[f64], options: &OpfOptions) -> Result<OpfSolution, OpfError> {
    solve_opf_with(net, x, options, &mut OpfContext::new())
}

/// Solves the DC-OPF, warm-starting the inner LP from the basis retained
/// in `ctx` (see [`OpfContext`]).
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
    let model = OpfLp::build(net, x, options)?;
    let sol = ctx.lp.solve(&model.lp)?;
    model.finish(net, x, &sol, ctx)
}

/// The assembled DC-OPF linear program plus the variable/row bookkeeping
/// needed to read a solution (and its duals) back in network terms.
///
/// Constraint rows are laid out as: one PWL coupling `Eq` row per
/// quadratic-cost generator (generator order), then `n_buses` nodal
/// balance `Eq` rows (bus order), then two flow rows per branch
/// (`≤ +fmax` followed by `≥ −fmax`, branch order). Only the balance
/// and flow rows depend on the reactances.
struct OpfLp {
    lp: LpProblem,
    gen_vars: Vec<usize>,
    theta_vars: Vec<usize>,
    cost_offset: f64,
    /// Leading PWL coupling rows (= number of quadratic-cost gens).
    n_pwl_rows: usize,
}

impl OpfLp {
    fn build(net: &Network, x: &[f64], options: &OpfOptions) -> Result<OpfLp, OpfError> {
        net.check_reactances(x)?;
        let n = net.n_buses();
        let slack = net.slack();
        let b_full = net.b_matrix(x)?;
        let suscept = net.susceptances(x)?;

        let mut lp = LpProblem::new();

        // Generator variables (and PWL segments for quadratic costs).
        let mut gen_vars = Vec::with_capacity(net.n_gens());
        let mut cost_offset = 0.0;
        let mut n_pwl_rows = 0usize;
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
                    n_pwl_rows += 1;
                    cost_offset += g.cost.eval(g.pmin_mw);
                    gen_vars.push(gv);
                }
            }
        }

        // Angle variables for non-slack buses.
        let mut theta_vars = vec![usize::MAX; n];
        for (i, theta_var) in theta_vars.iter_mut().enumerate() {
            if i != slack {
                *theta_var = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
            }
        }

        // Nodal balance at every bus: Σ g@i − Σ_j B[i,j] θ_j = load_i.
        for i in 0..n {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for (gi, g) in net.gens().iter().enumerate() {
                if g.bus == i {
                    coeffs.push((gen_vars[gi], 1.0));
                }
            }
            for j in 0..n {
                if j != slack && b_full[(i, j)] != 0.0 {
                    coeffs.push((theta_vars[j], -b_full[(i, j)]));
                }
            }
            lp.add_constraint(coeffs, Relation::Eq, net.bus(i).load_mw);
        }

        // Flow limits: −fmax ≤ b_l (θ_from − θ_to) ≤ fmax.
        for (l, br) in net.branches().iter().enumerate() {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            if br.from != slack {
                coeffs.push((theta_vars[br.from], suscept[l]));
            }
            if br.to != slack {
                coeffs.push((theta_vars[br.to], -suscept[l]));
            }
            lp.add_constraint(coeffs.clone(), Relation::Le, br.flow_limit_mw);
            lp.add_constraint(coeffs, Relation::Ge, -br.flow_limit_mw);
        }

        Ok(OpfLp {
            lp,
            gen_vars,
            theta_vars,
            cost_offset,
            n_pwl_rows,
        })
    }

    /// Maps an LP solution back to an [`OpfSolution`] (flow recovery via
    /// a DC power flow at the LP dispatch, exact cost model).
    fn finish(
        &self,
        net: &Network,
        x: &[f64],
        sol: &crate::lp::LpSolution,
        ctx: &mut OpfContext,
    ) -> Result<OpfSolution, OpfError> {
        let dispatch: Vec<f64> = self.gen_vars.iter().map(|&v| sol.x[v]).collect();
        // Recover flows/angles from a DC power flow at the LP dispatch:
        // this also serves as an internal consistency check of the LP
        // model. The context's power-flow state reuses the cached
        // symbolic factorization across the trajectory on the sparse
        // path.
        let pf = dcpf::solve_dispatch_with(net, x, &dispatch, &mut ctx.pf)?;

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
            sol.objective + self.cost_offset >= cost - 1e-6 * (1.0 + cost.abs()),
            "PWL surrogate undercut the exact convex cost"
        );

        Ok(OpfSolution {
            dispatch,
            theta: pf.theta,
            flows: pf.flows,
            cost,
        })
    }
}

/// Solves the DC-OPF and additionally returns `∂cost/∂x_l` for **every**
/// branch (zero for branches whose reactance doesn't move the optimum),
/// computed from the LP dual multipliers via the envelope theorem.
///
/// Only four constraint rows carry a given reactance `x_l` — the two
/// nodal balance rows of its terminal buses and its own two flow-limit
/// rows — through the susceptance `b_l = base_mva/x_l`, so with
/// `∂b_l/∂x_l = −base_mva/x_l²` and `Δθ = θ_from − θ_to` at the LP
/// optimum:
///
/// ```text
/// ∂cost/∂x_l = ∂b_l/∂x_l · Δθ · (ŷ_bal(from) − ŷ_bal(to) − ŷ_fwd(l) − ŷ_rev(l))
/// ```
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
    let model = OpfLp::build(net, x, options)?;
    let (sol, duals) = ctx.lp.solve_with_duals(&model.lp)?;

    let slack = net.slack();
    let theta_of = |bus: usize| -> f64 {
        if bus == slack {
            0.0
        } else {
            sol.x[model.theta_vars[bus]]
        }
    };
    let bal0 = model.n_pwl_rows;
    let flow0 = bal0 + net.n_buses();
    let mut grad = vec![0.0; net.n_branches()];
    for (l, br) in net.branches().iter().enumerate() {
        let db = -net.base_mva() / (x[l] * x[l]);
        let dtheta = theta_of(br.from) - theta_of(br.to);
        let sensitivity = duals[bal0 + br.from]
            - duals[bal0 + br.to]
            - duals[flow0 + 2 * l]
            - duals[flow0 + 2 * l + 1];
        grad[l] = db * dtheta * sensitivity;
    }

    let opf = model.finish(net, x, &sol, ctx)?;
    Ok((opf, grad))
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
