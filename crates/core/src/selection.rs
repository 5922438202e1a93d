//! MTD perturbation selection.
//!
//! Three strategies, in increasing order of sophistication:
//!
//! 1. [`random_perturbation`] — the state-of-the-art baseline of the
//!    papers the authors compare against ([11–13]): pick random reactance
//!    perturbations within a small percentage of the current values. The
//!    paper's Figs. 7–8 show this cannot guarantee effectiveness.
//! 2. [`max_achievable_gamma`] — maximize the subspace angle
//!    `γ(H, H')` irrespective of cost, to find the feasible range of
//!    `γ_th` (used to bound the tradeoff sweep).
//! 3. [`select_mtd`] — the paper's problem (4): minimize OPF cost
//!    subject to `γ(H_t, H'(x')) ≥ γ_th` and the DC-OPF constraints,
//!    with an adaptive exterior penalty on the angle constraint.
//!
//! Both searches over the D-FACTS box run multistart projected L-BFGS
//! on **analytic gradients** (the stand-in for the paper's
//! fmincon/MultiStart): `sin²γ` is differentiated through the
//! measurement-matrix stamps and the differentiable subspace-angle
//! state, and problem (4)'s OPF cost through the LP duals (envelope
//! theorem). Only the problem-(1) baseline, [`baseline_opf`], keeps a
//! derivative-free local search (see its docs for why).

use gridmtd_linalg::diff::SinSqState;
use gridmtd_opf::{
    multistart_lbfgs_threads, solve_opf_grad_with, solve_opf_with, OpfContext, OpfError,
    OpfOptions, OpfSolution,
};
use gridmtd_powergrid::{dcpf::PfContext, GridError, Network};
use rand::Rng;

use crate::{spa, MtdConfig, MtdError};

/// A selected MTD perturbation with its audit trail.
#[derive(Debug, Clone, PartialEq)]
pub struct MtdSelection {
    /// Full post-perturbation reactance vector (all branches).
    pub x_post: Vec<f64>,
    /// Achieved subspace angle `γ(H_pre, H_post)`.
    pub gamma: f64,
    /// Requested threshold `γ_th`.
    pub gamma_threshold: f64,
    /// Post-perturbation OPF at `x_post`.
    pub opf: OpfSolution,
}

/// The random-perturbation baseline of [11–13]: each D-FACTS line's
/// reactance is multiplied by `1 + U(−fraction, +fraction)`.
///
/// The paper's comparison uses `fraction = 0.02` (perturbations within 2%
/// of the optimal settings, to keep their cost negligible).
///
/// # Errors
///
/// * [`MtdError::InvalidConfig`] if `fraction` is not in `(0, 1)` —
///   study drivers feed this straight from user-supplied scenario specs,
///   so it must surface as a typed, recoverable error rather than a
///   panic;
/// * [`MtdError::Grid`] if `x_base` has the wrong length.
pub fn random_perturbation<R: Rng + ?Sized>(
    net: &Network,
    x_base: &[f64],
    fraction: f64,
    rng: &mut R,
) -> Result<Vec<f64>, MtdError> {
    if !(fraction > 0.0 && fraction < 1.0) {
        return Err(MtdError::InvalidConfig {
            field: "fraction",
            value: fraction,
        });
    }
    if x_base.len() != net.n_branches() {
        return Err(MtdError::Grid(GridError::DimensionMismatch {
            what: "reactance vector",
            expected: net.n_branches(),
            actual: x_base.len(),
        }));
    }
    let mut x = x_base.to_vec();
    for l in net.dfacts_branches() {
        x[l] *= 1.0 + rng.gen_range(-fraction..fraction);
    }
    Ok(x)
}

/// Builds the full reactance vector from a candidate D-FACTS sub-vector.
fn assemble(x_nominal: &[f64], dfacts: &[usize], candidate: &[f64]) -> Vec<f64> {
    let mut x = x_nominal.to_vec();
    for (k, &l) in dfacts.iter().enumerate() {
        x[l] = candidate[k];
    }
    x
}

/// The D-FACTS branches and their reactance box `[lo, hi]` at `eta_max`.
fn dfacts_box(net: &Network, eta_max: f64) -> (Vec<usize>, Vec<f64>, Vec<f64>) {
    let dfacts = net.dfacts_branches();
    let (lo_full, hi_full) = net.reactance_bounds(eta_max);
    let lo = dfacts.iter().map(|&l| lo_full[l]).collect();
    let hi = dfacts.iter().map(|&l| hi_full[l]).collect();
    (dfacts, lo, hi)
}

/// Start 0 of both γ searches.
///
/// `x_pre` itself is useless as a start: γ(H, H) = 0 is a global
/// *minimum* of the smooth surface sin²γ, so its gradient vanishes there
/// and neither a penalty nor the ceiling objective exerts any pull. The
/// start instead nudges the D-FACTS reactances with alternating signs
/// (uniform scaling would stay inside Col(H) and keep γ = 0; sign mixing
/// is what rotates the column space). Starts > 0 draw random interior
/// points.
fn nudged_start(x_pre: &[f64], dfacts: &[usize], lo: &[f64], hi: &[f64], eta_max: f64) -> Vec<f64> {
    dfacts
        .iter()
        .enumerate()
        .map(|(k, &l)| {
            let dir = if k % 2 == 0 { 1.0 } else { -1.0 };
            (x_pre[l] * (1.0 + dir * 0.5 * eta_max)).clamp(lo[k], hi[k])
        })
        .collect()
}

/// `∂ sin²γ / ∂x_l` for every D-FACTS branch `l = dfacts[k]` at `x`, read
/// off `state` through the branch's sparse `∂H/∂x_l` stamps.
fn sin_sq_gradient(
    net: &Network,
    x: &[f64],
    dfacts: &[usize],
    state: &SinSqState,
) -> Result<Vec<f64>, GridError> {
    dfacts
        .iter()
        .map(|&l| Ok(state.gradient_entry(&net.measurement_matrix_derivative(x, l)?)))
        .collect()
}

/// Maximizes `γ(H(x_pre), H(x))` over the D-FACTS box, ignoring cost.
///
/// Returns the maximizing reactance vector and the achieved angle — the
/// feasibility ceiling for any `γ_th` passed to [`select_mtd`].
///
/// # Errors
///
/// Propagates model failures.
pub fn max_achievable_gamma(
    net: &Network,
    x_pre: &[f64],
    cfg: &MtdConfig,
) -> Result<(Vec<f64>, f64), MtdError> {
    let h_pre = net.measurement_matrix(x_pre)?;
    let gamma_basis = spa::GammaBasis::new(&h_pre)?;
    max_achievable_gamma_with(net, x_pre, &gamma_basis, cfg)
}

/// [`max_achievable_gamma`] with a precomputed QR basis of `H(x_pre)` —
/// the hoisted path for callers (the session, the tradeoff sweep) that
/// already hold the basis. The basis is a pure function of `H(x_pre)`,
/// so the result is bit-identical to the self-contained variant.
///
/// The search is multistart projected L-BFGS on `−sin²γ` with the same
/// differentiable state, stamps and start-0 nudge as the problem-(4)
/// search, budgeted by `cfg.n_starts` × `cfg.max_evals_per_start`. The
/// reported angle is the exact [`spa::GammaBasis::gamma_to`] at the
/// returned point, never the optimizer's objective value.
///
/// # Errors
///
/// [`MtdError::InvalidConfig`] if `cfg.eta_max` lies outside `(0, 1)`
/// (the reactance box would be inverted or admit non-positive
/// reactances); otherwise propagates model failures — including the
/// eigensolver's, when no evaluation of the search succeeded.
pub fn max_achievable_gamma_with(
    net: &Network,
    x_pre: &[f64],
    gamma_basis: &spa::GammaBasis,
    cfg: &MtdConfig,
) -> Result<(Vec<f64>, f64), MtdError> {
    if !(cfg.eta_max > 0.0 && cfg.eta_max < 1.0) {
        return Err(MtdError::InvalidConfig {
            field: "eta_max",
            value: cfg.eta_max,
        });
    }
    let (dfacts, lo, hi) = dfacts_box(net, cfg.eta_max);
    let x_nominal = net.nominal_reactances();
    let x0 = nudged_start(x_pre, &dfacts, &lo, &hi, cfg.eta_max);

    let (x_nom, dfacts_ref) = (&x_nominal, &dfacts);
    let objective_for = |_start: usize| {
        move |cand: &[f64], grad: Option<&mut [f64]>| -> f64 {
            let x = assemble(x_nom, dfacts_ref, cand);
            let state = match net
                .measurement_matrix(&x)
                .map_err(MtdError::from)
                .and_then(|h| gamma_basis.sin_sq_to(&h))
            {
                Ok(st) => st,
                Err(_) => return f64::INFINITY,
            };
            if let Some(g) = grad {
                match sin_sq_gradient(net, &x, dfacts_ref, &state) {
                    Ok(ds) => {
                        for (gk, d) in g.iter_mut().zip(ds) {
                            *gk = -d;
                        }
                    }
                    Err(_) => return f64::INFINITY,
                }
            }
            -state.value()
        }
    };
    let result = multistart_lbfgs_threads(
        objective_for,
        &x0,
        &lo,
        &hi,
        cfg.n_starts.max(1),
        cfg.seed,
        &cfg.lbfgs_options(),
        gridmtd_opf::parallel::available_threads(),
    );
    // Re-derive the angle exactly at the returned point. When every
    // evaluation of the search failed, this surfaces the persistent
    // failure as its typed error rather than reporting a ceiling.
    let x = assemble(&x_nominal, &dfacts, &result.x);
    let gamma = gamma_basis.gamma_to(&net.measurement_matrix(&x)?)?;
    Ok((x, gamma))
}

/// Solves the SPA-constrained OPF of problem (4):
///
/// ```text
/// min_{g', x'}  Σ Cᵢ(G'ᵢ)
/// s.t.          γ(H_t, H'(x')) ≥ γ_th
///               DC-OPF constraints at x'
///               x' within D-FACTS limits
/// ```
///
/// The inner dispatch problem is an exact LP; the outer nonconvex search
/// over `x'` is multistart projected L-BFGS with an adaptive exterior
/// penalty on the angle constraint.
///
/// # Errors
///
/// * [`MtdError::ThresholdUnreachable`] if the penalty rounds find no
///   perturbation within the D-FACTS limits that attains `γ_th`; its
///   `achieved` field is [`max_achievable_gamma`] on the same inputs.
/// * [`MtdError::Infeasible`] if the OPF is infeasible for every
///   candidate.
pub fn select_mtd(
    net: &Network,
    x_pre: &[f64],
    gamma_th: f64,
    cfg: &MtdConfig,
) -> Result<MtdSelection, MtdError> {
    let gamma_basis = spa::GammaBasis::new(&net.measurement_matrix(x_pre)?)?;
    select_mtd_with(net, x_pre, &gamma_basis, gamma_th, cfg)
}

/// [`select_mtd`] with a precomputed QR basis of the pre-perturbation
/// matrix.
///
/// The timeline tuner evaluates several `γ_th` candidates against the
/// *same* `H(x_pre)` each hour; hoisting the matrix build and the QR
/// factorization out of the candidate loop removes the dominant
/// per-candidate setup cost without changing a single float (the basis
/// is a pure function of `H(x_pre)`).
///
/// # Errors
///
/// See [`select_mtd`].
pub fn select_mtd_with(
    net: &Network,
    x_pre: &[f64],
    gamma_basis: &spa::GammaBasis,
    gamma_th: f64,
    cfg: &MtdConfig,
) -> Result<MtdSelection, MtdError> {
    select_mtd_impl(net, x_pre, gamma_basis, gamma_th, cfg, &PfContext::new())
}

/// [`select_mtd_with`] additionally seeded with a power-flow context
/// prototype: every OPF context created inside (one per multistart
/// start, plus the pricing and audit solves) starts from a *clone* of
/// one internal [`OpfContext`] built around `pf_proto`, so a primed
/// prototype (see [`gridmtd_powergrid::dcpf::PfContext::prime`]) shares
/// one symbolic factorization across the whole search and the baseline
/// solve's simplex basis warm-starts every start's first LP. The
/// prototype is rebuilt from `pf_proto` identically on every call, so
/// repeated selections with the same inputs remain bit-identical
/// regardless of how warm the supplied `pf_proto` is.
pub(crate) fn select_mtd_impl(
    net: &Network,
    x_pre: &[f64],
    gamma_basis: &spa::GammaBasis,
    gamma_th: f64,
    cfg: &MtdConfig,
    pf_proto: &PfContext,
) -> Result<MtdSelection, MtdError> {
    let baseline = prepare_baseline(net, x_pre, cfg, pf_proto)?;
    select_mtd_seeded(net, x_pre, gamma_basis, gamma_th, cfg, &baseline)
}

/// Baseline OPF state at `x_pre`, reusable across selections against the
/// same network, reactances and OPF options.
///
/// Carries the unperturbed cost (the penalty scale of the selection
/// objective) together with the post-solve [`OpfContext`] — the shared
/// power-flow symbolic factorization *plus* the working set of line
/// limits and the simplex basis the baseline solve found.
/// [`prepare_baseline`] performs exactly the arithmetic
/// `select_mtd_impl` would, so a selection seeded with a cached baseline
/// is bit-identical to one that recomputes it — the session can
/// therefore hoist the one cold OPF solve out of every warm `select`
/// call.
#[derive(Debug, Clone)]
pub(crate) struct BaselineState {
    ctx: OpfContext,
    cost: f64,
}

/// Solves the baseline OPF at `x_pre` and captures the warmed context
/// for [`select_mtd_seeded`].
///
/// # Errors
///
/// [`MtdError::Infeasible`] if the unperturbed OPF has no feasible
/// dispatch; otherwise propagates solver failures.
pub(crate) fn prepare_baseline(
    net: &Network,
    x_pre: &[f64],
    cfg: &MtdConfig,
    pf_proto: &PfContext,
) -> Result<BaselineState, MtdError> {
    let mut ctx = OpfContext::with_pf(pf_proto.clone());
    let cost = match solve_opf_with(net, x_pre, &cfg.opf_options(), &mut ctx) {
        Ok(s) => s.cost,
        Err(OpfError::Infeasible) => return Err(MtdError::Infeasible),
        Err(e) => return Err(e.into()),
    };
    Ok(BaselineState { ctx, cost })
}

/// [`select_mtd_impl`] with the baseline solve already done: the search
/// starts from a clone of `baseline`'s warmed context and its cached
/// cost scale.
pub(crate) fn select_mtd_seeded(
    net: &Network,
    x_pre: &[f64],
    gamma_basis: &spa::GammaBasis,
    gamma_th: f64,
    cfg: &MtdConfig,
    baseline: &BaselineState,
) -> Result<MtdSelection, MtdError> {
    if !(cfg.eta_max > 0.0 && cfg.eta_max < 1.0) {
        return Err(MtdError::InvalidConfig {
            field: "eta_max",
            value: cfg.eta_max,
        });
    }
    let search = SearchSetup::build(net, x_pre, cfg, baseline);
    if let Some(sel) = run_gradient(&search, gamma_basis, gamma_th)? {
        return Ok(sel);
    }
    let (_, ceiling) = max_achievable_gamma_with(net, x_pre, gamma_basis, cfg)?;
    Err(MtdError::ThresholdUnreachable {
        requested: gamma_th,
        achieved: ceiling,
    })
}

/// Setup of the problem-(4) search: the D-FACTS box, the nominal
/// assembly template and the unperturbed cost scale.
struct SearchSetup<'a> {
    net: &'a Network,
    x_pre: &'a [f64],
    cfg: &'a MtdConfig,
    /// OPF context prototype: carries the shared symbolic power-flow
    /// factorization, the working set of line limits and the simplex
    /// basis the baseline solve found at `x_pre`. Every optimizer start
    /// and every audit clones it, so even their first OPF starts from
    /// the limits that bind near `x_pre` and a nearby basis instead of
    /// rediscovering them round by round.
    opf_proto: OpfContext,
    dfacts: Vec<usize>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    x_nominal: Vec<f64>,
    opf_opts: OpfOptions,
    /// Cost scale for the penalty weight: the unperturbed OPF cost.
    base_cost: f64,
}

impl<'a> SearchSetup<'a> {
    fn build(
        net: &'a Network,
        x_pre: &'a [f64],
        cfg: &'a MtdConfig,
        baseline: &BaselineState,
    ) -> SearchSetup<'a> {
        let (dfacts, lo, hi) = dfacts_box(net, cfg.eta_max);
        SearchSetup {
            net,
            x_pre,
            cfg,
            opf_proto: baseline.ctx.clone(),
            dfacts,
            lo,
            hi,
            x_nominal: net.nominal_reactances(),
            opf_opts: cfg.opf_options(),
            base_cost: baseline.cost,
        }
    }

    /// Audits a candidate with the exact γ against the cached basis and,
    /// if it meets the threshold, prices it with a penalty-free OPF.
    fn audit(
        &self,
        gamma_basis: &spa::GammaBasis,
        gamma_th: f64,
        cand: &[f64],
    ) -> Result<Option<MtdSelection>, MtdError> {
        const TOL: f64 = 1e-3;
        let x_post = assemble(&self.x_nominal, &self.dfacts, cand);
        let h_post = self.net.measurement_matrix(&x_post)?;
        let gamma = gamma_basis.gamma_to(&h_post)?;
        if gamma + TOL < gamma_th {
            return Ok(None);
        }
        let opf = solve_opf_with(
            self.net,
            &x_post,
            &self.opf_opts,
            &mut self.opf_proto.clone(),
        )?;
        Ok(Some(MtdSelection {
            x_post,
            gamma,
            gamma_threshold: gamma_th,
            opf,
        }))
    }
}

/// The problem-(4) search: multistart projected L-BFGS on the penalized
/// objective, with the penalty expressed in `sin²γ` (the analytically
/// differentiable form of the angle).
///
/// Per evaluation the objective costs one warm DC-OPF plus one
/// generalized eigensolve; the gradient adds one dual recovery on the
/// already-factored LP basis, one adjoint solve against `B̃` when a line
/// limit binds, and O(1) stamp work per D-FACTS branch —
/// line-search trials skip all of these. Returns `Ok(None)` when no penalty
/// round produced a candidate passing the exact-γ audit.
fn run_gradient(
    search: &SearchSetup<'_>,
    gamma_basis: &spa::GammaBasis,
    gamma_th: f64,
) -> Result<Option<MtdSelection>, MtdError> {
    let SearchSetup {
        net,
        x_pre,
        cfg,
        opf_proto,
        dfacts,
        lo,
        hi,
        x_nominal,
        opf_opts,
        base_cost,
    } = search;
    let net = *net;
    let s_th = gamma_th.sin().powi(2);
    let mut penalty_weight = 1_000.0 * base_cost.max(1.0);
    // Tie-breaking regularizer: when the cost surface is flat (no
    // congestion), prefer the *least* perturbation that meets the
    // threshold. This keeps the achieved angle tight against γ_th —
    // matching how the paper reports its sweeps. The reported OPF cost
    // is evaluated at the selected point without any penalty terms, so
    // the economics stay exact.
    let proximity_weight = 0.5 * base_cost.max(1.0);

    let x0 = nudged_start(x_pre, dfacts, lo, hi, cfg.eta_max);

    let threads = gridmtd_opf::parallel::available_threads();
    for round in 0..4 {
        let (x_nominal, dfacts, gamma_basis) = (x_nominal, dfacts, gamma_basis);
        let objective_for = |_start: usize| {
            let mut ctx = opf_proto.clone();
            move |cand: &[f64], grad: Option<&mut [f64]>| -> f64 {
                let x = assemble(x_nominal, dfacts, cand);
                let (cost, cost_grad) = if grad.is_some() {
                    match solve_opf_grad_with(net, &x, opf_opts, &mut ctx) {
                        Ok((sol, g)) => (sol.cost, g),
                        Err(_) => return f64::INFINITY,
                    }
                } else {
                    match solve_opf_with(net, &x, opf_opts, &mut ctx) {
                        Ok(sol) => (sol.cost, Vec::new()),
                        Err(_) => return f64::INFINITY,
                    }
                };
                let state = match net
                    .measurement_matrix(&x)
                    .map_err(MtdError::from)
                    .and_then(|h| gamma_basis.sin_sq_to(&h))
                {
                    Ok(st) => st,
                    Err(_) => return f64::INFINITY,
                };
                let s = state.value();
                let deficit = (s_th - s).max(0.0);
                let overshoot = (s - s_th).max(0.0);
                if let Some(g) = grad {
                    let dpen_ds =
                        -2.0 * penalty_weight * deficit + 2.0 * proximity_weight * overshoot;
                    let Ok(ds) = sin_sq_gradient(net, &x, dfacts, &state) else {
                        return f64::INFINITY;
                    };
                    for (k, &l) in dfacts.iter().enumerate() {
                        g[k] = cost_grad[l] + dpen_ds * ds[k];
                    }
                }
                cost + penalty_weight * deficit * deficit + proximity_weight * overshoot * overshoot
            }
        };
        let result = multistart_lbfgs_threads(
            objective_for,
            &x0,
            lo,
            hi,
            cfg.n_starts.max(1),
            crate::seedstream::domain(cfg.seed, round),
            &cfg.lbfgs_options(),
            threads,
        );
        // A non-finite result means every start's first evaluation
        // failed (an OPF or eigensolve error maps to +∞): there is no
        // candidate to audit, but the next round may still find one.
        if result.f.is_finite() {
            if let Some(sel) = search.audit(gamma_basis, gamma_th, &result.x)? {
                return Ok(Some(sel));
            }
        }
        penalty_weight *= 25.0;
    }
    Ok(None)
}

/// The paper's pre-perturbation baseline: problem (1) optimized over both
/// dispatch *and* D-FACTS reactances (footnote 1 / Section IV). Returns
/// the optimal reactance vector and its OPF solution.
///
/// With linear costs and light congestion the objective is flat in `x`,
/// so the search warm-starts from `x_start` and stays there unless
/// reactance adjustments genuinely reduce cost.
///
/// Unlike problem (4), this search is a single-start derivative-free
/// Nelder–Mead. The LP cost is piecewise linear in `x`, and its kinks
/// stall a gradient method: over the 25 hours of the IEEE 14-bus
/// `nyiso_winter_weekday` day (each hour started from the previous
/// hour's point, 200 evaluations), single-start projected L-BFGS on the
/// LP-dual cost gradient ended above Nelder–Mead on 11 hours, by up to
/// 16.8 $/h. A baseline that is not the optimum can cost more than the
/// MTD selection it is compared with.
///
/// # Errors
///
/// Propagates OPF failures.
pub fn baseline_opf(
    net: &Network,
    x_start: &[f64],
    cfg: &MtdConfig,
) -> Result<(Vec<f64>, OpfSolution), MtdError> {
    baseline_opf_impl(net, x_start, cfg, &PfContext::new())
}

/// [`baseline_opf`] seeded with a power-flow context prototype (see
/// [`select_mtd_impl`] for the cloning/bit-identity contract).
pub(crate) fn baseline_opf_impl(
    net: &Network,
    x_start: &[f64],
    cfg: &MtdConfig,
    pf_proto: &PfContext,
) -> Result<(Vec<f64>, OpfSolution), MtdError> {
    let (dfacts, lo, hi) = dfacts_box(net, cfg.eta_max);
    let x_nominal = net.nominal_reactances();
    let x0: Vec<f64> = dfacts.iter().map(|&l| x_start[l]).collect();
    let opf_opts = cfg.opf_options();

    const INFEASIBLE_COST: f64 = 1e15;
    let mut ctx = OpfContext::with_pf(pf_proto.clone());
    let objective = |cand: &[f64]| {
        let x = assemble(&x_nominal, &dfacts, cand);
        match solve_opf_with(net, &x, &opf_opts, &mut ctx) {
            Ok(s) => s.cost,
            Err(_) => INFEASIBLE_COST,
        }
    };
    // Warm-started local search only: a flat objective should not wander.
    let result = gridmtd_opf::nelder_mead(objective, &x0, &lo, &hi, &cfg.nm_options());
    if result.f >= INFEASIBLE_COST {
        return Err(MtdError::Infeasible);
    }
    let x = assemble(&x_nominal, &dfacts, &result.x);
    // Reprice through the search's own context: its basis chain ends at
    // (or next to) the accepted point, so this is a warm no-pivot solve.
    let opf = solve_opf_with(net, &x, &opf_opts, &mut ctx)?;
    Ok((x, opf))
}

/// A pre-perturbation D-FACTS setting at a corner of the reactance box,
/// chosen so that the *opposite* corner is as far from it (in subspace
/// angle) as possible.
///
/// Rationale: the paper's pre-perturbation reactances come from solving
/// OPF (1) with `fmincon`/MultiStart over the D-FACTS box. When the cost
/// is flat in `x` (linear costs, light congestion) any box point is an
/// optimal solution, and the paper's reported attainable range
/// (`γ` up to ≈ 0.45 rad on IEEE-14) is only reachable when `x_t` itself
/// sits away from the box centre. This helper deterministically picks
/// such a point so experiments can reproduce the full range; from the
/// nominal (centre) point the ceiling is ≈ 0.26 rad.
///
/// For more than 12 D-FACTS lines the corner search is sampled instead
/// of exhaustive.
///
/// # Panics
///
/// Panics if `eta_max` is not in `(0, 1)`.
pub fn spread_pre_perturbation(net: &Network, eta_max: f64) -> Vec<f64> {
    assert!(
        eta_max > 0.0 && eta_max < 1.0,
        "eta_max must be in (0,1), got {eta_max}"
    );
    let dfacts = net.dfacts_branches();
    let x_nominal = net.nominal_reactances();
    let k = dfacts.len();
    if k == 0 {
        return x_nominal;
    }
    let corner = |pattern: u64| -> Vec<f64> {
        let mut x = x_nominal.clone();
        for (bit, &l) in dfacts.iter().enumerate() {
            let up = pattern >> bit & 1 == 1;
            x[l] *= if up { 1.0 + eta_max } else { 1.0 - eta_max };
        }
        x
    };
    let patterns: Vec<u64> = if k <= 12 {
        (0..(1u64 << k)).collect()
    } else {
        // Deterministic low-discrepancy sample of corners.
        (0..4096u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    };
    let mask = if k >= 64 { u64::MAX } else { (1u64 << k) - 1 };
    let mut best_pattern = 0u64;
    let mut best_gamma = -1.0;
    for &p in &patterns {
        let p = p & mask;
        let h_a = match net.measurement_matrix(&corner(p)) {
            Ok(h) => h,
            Err(_) => continue,
        };
        let h_b = match net.measurement_matrix(&corner(!p & mask)) {
            Ok(h) => h,
            Err(_) => continue,
        };
        if let Ok(g) = spa::gamma(&h_a, &h_b) {
            if g > best_gamma {
                best_gamma = g;
                best_pattern = p;
            }
        }
    }
    corner(best_pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmtd_powergrid::cases;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_perturbation_touches_only_dfacts_lines() {
        let net = cases::case14();
        let x0 = net.nominal_reactances();
        let mut rng = StdRng::seed_from_u64(5);
        let x = random_perturbation(&net, &x0, 0.02, &mut rng).unwrap();
        let dfacts = net.dfacts_branches();
        for l in 0..net.n_branches() {
            if dfacts.contains(&l) {
                assert!((x[l] / x0[l] - 1.0).abs() <= 0.02 + 1e-12);
            } else {
                assert_eq!(x[l], x0[l]);
            }
        }
    }

    #[test]
    fn max_gamma_is_substantial_for_case14() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x0 = net.nominal_reactances();
        let (x, g) = max_achievable_gamma(&net, &x0, &cfg).unwrap();
        // From the nominal point the box-corner ceiling is ≈ 0.259 rad;
        // the paper's full [0, 0.45] range arises when the
        // pre-perturbation reactances themselves sit inside the D-FACTS
        // box (see `pair_of_box_points_reaches_the_papers_range`).
        assert!(g > 0.2, "max gamma {g}");
        // Bounds respected.
        let (lo, hi) = net.reactance_bounds(cfg.eta_max);
        for l in 0..net.n_branches() {
            assert!(x[l] >= lo[l] - 1e-12 && x[l] <= hi[l] + 1e-12);
        }
    }

    #[test]
    fn select_mtd_meets_threshold_with_bounded_cost() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x0 = net.nominal_reactances();
        let sel = select_mtd(&net, &x0, 0.15, &cfg).unwrap();
        assert!(sel.gamma >= 0.15 - 1e-3, "gamma {}", sel.gamma);
        assert_eq!(sel.gamma_threshold, 0.15);
        // Cost can only grow relative to the γ_th = 0 relaxation solved
        // by the same optimizer (a fixed-reactance or locally-optimized
        // baseline may converge to a different basin, so those are not
        // valid lower bounds).
        // Both runs are heuristic multistart searches, so allow a small
        // basin-to-basin tolerance.
        let relaxed = select_mtd(&net, &x0, 0.0, &cfg).unwrap();
        assert!(
            sel.opf.cost >= relaxed.opf.cost * 0.99 - 1e-6,
            "{} vs {}",
            sel.opf.cost,
            relaxed.opf.cost
        );
    }

    #[test]
    fn pair_of_box_points_reaches_the_papers_range() {
        // With the pre-perturbation reactances themselves at a D-FACTS
        // box point (a legitimate solution of the cost-flat OPF (1)),
        // the attainable angle matches the paper's ≈ 0.45 rad ceiling.
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x_pre = spread_pre_perturbation(&net, cfg.eta_max);
        let (_, g) = max_achievable_gamma(&net, &x_pre, &cfg).unwrap();
        assert!(g > 0.4, "corner-based ceiling {g}");
    }

    #[test]
    fn zero_threshold_recovers_unconstrained_cost() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x0 = net.nominal_reactances();
        let sel = select_mtd(&net, &x0, 0.0, &cfg).unwrap();
        let base = gridmtd_opf::solve_opf(&net, &x0, &cfg.opf_options())
            .unwrap()
            .cost;
        assert!(
            sel.opf.cost <= base * 1.001 + 1e-6,
            "unconstrained selection should not cost more: {} vs {base}",
            sel.opf.cost
        );
        assert!(sel.gamma >= 0.0);
    }

    #[test]
    fn unreachable_threshold_is_reported() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x0 = net.nominal_reactances();
        let err = select_mtd(&net, &x0, 1.5, &cfg).unwrap_err();
        let (_, ceiling) = max_achievable_gamma(&net, &x0, &cfg).unwrap();
        match err {
            MtdError::ThresholdUnreachable {
                requested,
                achieved,
            } => {
                assert_eq!(requested, 1.5);
                assert!(achieved < 1.5);
                assert_eq!(achieved.to_bits(), ceiling.to_bits());
            }
            other => panic!("expected ThresholdUnreachable, got {other:?}"),
        }
    }

    #[test]
    fn baseline_opf_stays_at_warm_start_when_flat() {
        // Lightly-loaded case14: cost is flat in x → baseline keeps x0.
        let net = cases::case14().scale_loads(0.6);
        let cfg = MtdConfig::fast_test();
        let x0 = net.nominal_reactances();
        let (x, opf) = baseline_opf(&net, &x0, &cfg).unwrap();
        let direct = gridmtd_opf::solve_opf(&net, &x0, &cfg.opf_options()).unwrap();
        assert!((opf.cost - direct.cost).abs() < 1e-6);
        // x stays close to the warm start in flat regions.
        for l in 0..net.n_branches() {
            assert!((x[l] - x0[l]).abs() < 0.35 * x0[l] + 1e-9);
        }
    }

    #[test]
    fn random_perturbation_validates_fraction() {
        let net = cases::case4();
        let x0 = net.nominal_reactances();
        let mut rng = StdRng::seed_from_u64(0);
        for bad in [0.0, 1.0, -0.1, f64::NAN] {
            match random_perturbation(&net, &x0, bad, &mut rng).unwrap_err() {
                MtdError::InvalidConfig { field, .. } => assert_eq!(field, "fraction"),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn random_perturbation_validates_reactance_length() {
        let net = cases::case4();
        let mut rng = StdRng::seed_from_u64(0);
        let short = vec![0.1; net.n_branches() - 1];
        match random_perturbation(&net, &short, 0.02, &mut rng).unwrap_err() {
            MtdError::Grid(gridmtd_powergrid::GridError::DimensionMismatch {
                expected,
                actual,
                ..
            }) => {
                assert_eq!(expected, net.n_branches());
                assert_eq!(actual, net.n_branches() - 1);
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn out_of_range_eta_max_is_a_typed_error() {
        let net = cases::case4();
        let x0 = net.nominal_reactances();
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            let cfg = MtdConfig {
                eta_max: bad,
                ..MtdConfig::fast_test()
            };
            match max_achievable_gamma(&net, &x0, &cfg).unwrap_err() {
                MtdError::InvalidConfig { field, .. } => assert_eq!(field, "eta_max"),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
            match select_mtd(&net, &x0, 0.1, &cfg).unwrap_err() {
                MtdError::InvalidConfig { field, .. } => assert_eq!(field, "eta_max"),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }
}
