//! The shift-factor DC-OPF against independent references.
//!
//! * **θ-form oracle.** The textbook DC-OPF with one angle column per
//!   non-slack bus, one nodal balance row per bus and two limit rows per
//!   branch, built here from the public [`LpProblem`] and solved on one
//!   warm [`LpSolver`] chain per case. The shift-factor solve must reach
//!   the same optimal cost within 1e-9 relative at the nominal
//!   reactances, at a spread corner of the D-FACTS box and at 50 seeded
//!   perturbations.
//! * **Copper-plate bound.** Dropping every line limit leaves the
//!   economic dispatch, whose cost bounds the OPF from below. On case300
//!   no limit binds at the points below, so the OPF must attain it —
//!   optimality without the θ-form's 1200-row LP.
//!
//! Every returned flow must meet its limit, the gradient must vanish
//! exactly where no limit binds, and solves must not depend on how warm
//! the context is beyond roundoff.

use gridmtd_opf::lp::{LpProblem, LpSolver, Relation};
use gridmtd_opf::parallel::par_map_threads;
use gridmtd_opf::{
    solve_opf, solve_opf_grad_with, solve_opf_with, OpfContext, OpfOptions, OpfSolution,
};
use gridmtd_powergrid::{cases, GenCost, Network};

/// D-FACTS range of the default MTD configuration.
const ETA: f64 = 0.5;

/// The 64-bit LCG the perturbations are drawn from: `u ∈ [0, 1)`.
struct Lcg(u64);

impl Lcg {
    fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `x_l = x_nom,l · (1 + ETA·(2u − 1))` on every D-FACTS branch, in
/// `dfacts_branches()` order.
fn perturbed(net: &Network, rng: &mut Lcg) -> Vec<f64> {
    let mut x = net.nominal_reactances();
    for l in net.dfacts_branches() {
        x[l] *= 1.0 + ETA * (2.0 * rng.next_unit() - 1.0);
    }
    x
}

/// A spread corner of the D-FACTS box: alternate D-FACTS branches at
/// `(1 + ETA)` and `(1 − ETA)` times nominal.
fn spread_corner(net: &Network) -> Vec<f64> {
    let mut x = net.nominal_reactances();
    for (k, l) in net.dfacts_branches().into_iter().enumerate() {
        x[l] *= if k % 2 == 0 { 1.0 + ETA } else { 1.0 - ETA };
    }
    x
}

/// Nominal, the spread corner and 50 seeded perturbations.
fn test_points(net: &Network, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Lcg(seed);
    let mut xs = vec![net.nominal_reactances(), spread_corner(net)];
    xs.extend((0..50).map(|_| perturbed(net, &mut rng)));
    xs
}

/// Adds the dispatch columns (PWL segments for quadratic costs, exactly
/// as the production model prices them) and returns the generator
/// columns.
fn add_dispatch(lp: &mut LpProblem, net: &Network, opts: &OpfOptions) -> Vec<usize> {
    let mut gen_vars = Vec::new();
    for g in net.gens() {
        match g.cost {
            GenCost::Linear { c } => gen_vars.push(lp.add_var(g.pmin_mw, g.pmax_mw, c)),
            GenCost::Quadratic { .. } => {
                let k = opts.pwl_segments.max(1);
                let width = (g.pmax_mw - g.pmin_mw) / k as f64;
                let gv = lp.add_var(g.pmin_mw, g.pmax_mw, 0.0);
                let mut coeffs = vec![(gv, 1.0)];
                for j in 0..k {
                    let p_lo = g.pmin_mw + j as f64 * width;
                    let slope = (g.cost.eval(p_lo + width) - g.cost.eval(p_lo)) / width;
                    coeffs.push((lp.add_var(0.0, width, slope), -1.0));
                }
                lp.add_constraint(coeffs, Relation::Eq, g.pmin_mw);
                gen_vars.push(gv);
            }
        }
    }
    gen_vars
}

/// Exact cost and dispatch of a solved dispatch LP.
fn read_dispatch(net: &Network, gen_vars: &[usize], x: &[f64]) -> (f64, Vec<f64>) {
    let dispatch: Vec<f64> = gen_vars.iter().map(|&v| x[v]).collect();
    let cost = net
        .gens()
        .iter()
        .zip(&dispatch)
        .map(|(g, &d)| g.cost.eval(d))
        .sum();
    (cost, dispatch)
}

/// The θ-form DC-OPF: `g − l = Bθ` at every bus, `|b_l Δθ_l| ≤ f_max`.
fn theta_form_oracle(
    solver: &mut LpSolver,
    net: &Network,
    x: &[f64],
    opts: &OpfOptions,
) -> (f64, Vec<f64>) {
    let mut lp = LpProblem::new();
    let gen_vars = add_dispatch(&mut lp, net, opts);
    let slack = net.slack();
    let b_full = net.b_matrix(x).unwrap();
    let suscept = net.susceptances(x).unwrap();
    let theta: Vec<Option<usize>> = (0..net.n_buses())
        .map(|i| (i != slack).then(|| lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0)))
        .collect();
    for i in 0..net.n_buses() {
        let mut coeffs: Vec<(usize, f64)> = net
            .gens()
            .iter()
            .zip(&gen_vars)
            .filter(|(g, _)| g.bus == i)
            .map(|(_, &v)| (v, 1.0))
            .collect();
        for (j, tj) in theta.iter().enumerate() {
            if let Some(v) = *tj {
                if b_full[(i, j)] != 0.0 {
                    coeffs.push((v, -b_full[(i, j)]));
                }
            }
        }
        lp.add_constraint(coeffs, Relation::Eq, net.bus(i).load_mw);
    }
    for (l, br) in net.branches().iter().enumerate() {
        let mut coeffs = Vec::new();
        if let Some(v) = theta[br.from] {
            coeffs.push((v, suscept[l]));
        }
        if let Some(v) = theta[br.to] {
            coeffs.push((v, -suscept[l]));
        }
        lp.add_constraint(coeffs.clone(), Relation::Le, br.flow_limit_mw);
        lp.add_constraint(coeffs, Relation::Ge, -br.flow_limit_mw);
    }
    let sol = solver.solve(&lp).unwrap();
    read_dispatch(net, &gen_vars, &sol.x)
}

/// The copper-plate economic dispatch: the balance row alone.
fn copper_plate_cost(net: &Network, opts: &OpfOptions) -> f64 {
    let mut lp = LpProblem::new();
    let gen_vars = add_dispatch(&mut lp, net, opts);
    lp.add_constraint(
        gen_vars.iter().map(|&v| (v, 1.0)).collect(),
        Relation::Eq,
        net.total_load(),
    );
    read_dispatch(net, &gen_vars, &lp.solve().unwrap().x).0
}

fn rel_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// Contract (c): every flow within its limit up to 1e-9 relative.
fn assert_within_limits(net: &Network, sol: &OpfSolution) {
    for (l, (f, br)) in sol.flows.iter().zip(net.branches()).enumerate() {
        let fmax = br.flow_limit_mw;
        assert!(
            f.abs() <= fmax + 1e-9 * fmax.max(1.0),
            "{} branch {l}: |{f}| > {fmax}",
            net.name()
        );
    }
}

/// Contract (a) on one case; returns the number of points whose dispatch
/// differs from the oracle's by more than 1e-6 MW (degenerate ties).
///
/// The points are checked in two halves on two threads, each half on
/// its own oracle chain and OPF context: a θ-form solve on case118 runs
/// a 500-row dense tableau.
fn check_against_oracle(net: &Network, seed: u64) -> usize {
    let points = test_points(net, seed);
    let halves: Vec<&[Vec<f64>]> = points.chunks(points.len().div_ceil(2)).collect();
    par_map_threads(2, &halves, |_, half| check_chain(net, half))
        .into_iter()
        .sum()
}

fn check_chain(net: &Network, points: &[Vec<f64>]) -> usize {
    let opts = OpfOptions::default();
    let mut oracle = LpSolver::new();
    let mut ctx = OpfContext::new();
    let mut ties = 0;
    for (i, x) in points.iter().enumerate() {
        let (want, want_dispatch) = theta_form_oracle(&mut oracle, net, x, &opts);
        let got = solve_opf_with(net, x, &opts, &mut ctx).unwrap();
        assert!(
            rel_gap(got.cost, want) <= 1e-9,
            "{} point {i}: shift-factor {} vs θ-form {want}",
            net.name(),
            got.cost
        );
        assert_within_limits(net, &got);
        let moved = got
            .dispatch
            .iter()
            .zip(&want_dispatch)
            .any(|(a, b)| (a - b).abs() > 1e-6);
        ties += usize::from(moved);
    }
    ties
}

#[test]
fn small_cases_match_the_theta_form_oracle() {
    for (net, seed) in [
        (cases::case4(), 4),
        (cases::case14(), 14),
        (cases::case30(), 30),
    ] {
        let ties = check_against_oracle(&net, seed);
        eprintln!("{}: {ties} degenerate dispatch ties", net.name());
    }
}

#[test]
fn case57_matches_the_theta_form_oracle() {
    let ties = check_against_oracle(&cases::case57(), 57);
    eprintln!("case57: {ties} degenerate dispatch ties");
}

#[test]
fn case118_matches_the_theta_form_oracle() {
    let ties = check_against_oracle(&cases::case118(), 118);
    eprintln!("case118: {ties} degenerate dispatch ties");
}

#[test]
fn case300_attains_the_copper_plate_bound() {
    let net = cases::case300();
    let opts = OpfOptions::default();
    let bound = copper_plate_cost(&net, &opts);
    let mut ctx = OpfContext::new();
    for (i, x) in test_points(&net, 300).iter().enumerate() {
        let sol = solve_opf_with(&net, x, &opts, &mut ctx).unwrap();
        assert!(
            rel_gap(sol.cost, bound) <= 1e-9,
            "point {i}: {} vs copper plate {bound}",
            sol.cost
        );
        assert_within_limits(&net, &sol);
    }
}

#[test]
fn gradient_is_exactly_zero_where_no_limit_binds() {
    let net = cases::case118();
    let (_, grad) = solve_opf_grad_with(
        &net,
        &net.nominal_reactances(),
        &OpfOptions::default(),
        &mut OpfContext::new(),
    )
    .unwrap();
    assert_eq!(grad.len(), net.n_branches());
    assert!(grad.iter().all(|&g| g == 0.0), "{grad:?}");
}

#[test]
fn fresh_contexts_are_bit_identical_and_warm_ones_agree() {
    let opts = OpfOptions::default();
    for net in [cases::case14(), cases::case57()] {
        let mut warm = OpfContext::new();
        for x in test_points(&net, 7).iter().take(20) {
            let a = solve_opf(&net, x, &opts).unwrap();
            let b = solve_opf(&net, x, &opts).unwrap();
            assert_eq!(a, b, "{}: fresh contexts disagree", net.name());
            let w = solve_opf_with(&net, x, &opts, &mut warm).unwrap();
            assert!(
                rel_gap(w.cost, a.cost) <= 1e-12,
                "{}: warm {} vs fresh {}",
                net.name(),
                w.cost,
                a.cost
            );
        }
        assert!(warm.warm_solves() > 0, "{}: never warm", net.name());
    }
}

/// A warm resolve on case300 after a nominal solve used to report
/// `Unbounded`: the θ-form's split free angle columns form a zero-cost
/// ray that roundoff priced below zero. The point is the first draw of
/// the LCG from seed 12.
#[test]
fn case300_warm_resolve_after_nominal_is_not_unbounded() {
    let net = cases::case300();
    let opts = OpfOptions::default();
    let mut ctx = OpfContext::new();
    solve_opf_with(&net, &net.nominal_reactances(), &opts, &mut ctx).unwrap();
    let x = perturbed(&net, &mut Lcg(12));
    let warm = solve_opf_with(&net, &x, &opts, &mut ctx).unwrap();
    let fresh = solve_opf(&net, &x, &opts).unwrap();
    assert!(
        rel_gap(warm.cost, fresh.cost) <= 1e-9,
        "warm {} vs fresh {}",
        warm.cost,
        fresh.cost
    );
}
