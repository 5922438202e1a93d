//! Reference agreement: the gradient (projected L-BFGS) selection must
//! agree with a derivative-free search on what matters.
//!
//! * Both meet the requested `γ_th` on every case rung they are run on;
//! * the gradient path's OPF cost is never worse than the reference's
//!   by more than 1 % — the selection promises equal-or-better answers,
//!   not merely faster ones;
//! * the gradient path is bit-identical across worker thread counts
//!   (the workspace determinism contract extends to the optimizer).
//!
//! The reference is multistart Nelder–Mead over the public
//! [`gridmtd_opf::nelder_mead`], on the same exterior-penalty objective
//! as the selection (penalty schedule, proximity term, per-round seed
//! streams), with every γ priced by the exact
//! [`spa::GammaBasis::gamma_to`]. The largest rung (case118) runs
//! gradient-only: a Nelder–Mead run of comparable quality needs hundreds
//! of debug-build LP solves.

use gridmtd_core::{seedstream, spa, MtdConfig, MtdError, MtdSelection, MtdSession};
use gridmtd_opf::parallel::with_thread_budget;
use gridmtd_opf::{nelder_mead, solve_opf, solve_opf_with, NelderMeadOptions, OpfContext};
use gridmtd_powergrid::{cases, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Problem (4) through a fresh session at the nominal reactances.
fn select(net: &Network, gamma_th: f64, cfg: &MtdConfig) -> Result<MtdSelection, MtdError> {
    MtdSession::builder(net.clone())
        .config(cfg.clone())
        .build()?
        .select(gamma_th)
}

fn cfg_with(n_starts: usize, max_evals: usize, seed: u64) -> MtdConfig {
    MtdConfig {
        n_attacks: 50,
        n_starts,
        max_evals_per_start: max_evals,
        seed,
        ..MtdConfig::default()
    }
}

/// The reference's answer: the exact γ of its selected reactances and
/// their penalty-free OPF cost.
struct Reference {
    gamma: f64,
    cost: f64,
}

/// Multistart Nelder–Mead on problem (4)'s exterior-penalty form: up to
/// four rounds with the penalty weight escalated ×25 per round, each
/// round's best point audited against `γ_th` with the exact angle.
fn nelder_mead_reference(
    net: &Network,
    x_pre: &[f64],
    gamma_th: f64,
    cfg: &MtdConfig,
) -> Reference {
    const INFEASIBLE_COST: f64 = 1e15;
    let dfacts = net.dfacts_branches();
    let (lo_full, hi_full) = net.reactance_bounds(cfg.eta_max);
    let lo: Vec<f64> = dfacts.iter().map(|&l| lo_full[l]).collect();
    let hi: Vec<f64> = dfacts.iter().map(|&l| hi_full[l]).collect();
    let x0: Vec<f64> = dfacts.iter().map(|&l| x_pre[l]).collect();
    let x_nominal = net.nominal_reactances();
    let assemble = |cand: &[f64]| {
        let mut x = x_nominal.clone();
        for (k, &l) in dfacts.iter().enumerate() {
            x[l] = cand[k];
        }
        x
    };
    let opf_opts = cfg.opf_options();
    let basis = spa::GammaBasis::new(&net.measurement_matrix(x_pre).unwrap()).unwrap();
    let base_cost = solve_opf(net, x_pre, &opf_opts).unwrap().cost.max(1.0);
    let nm = NelderMeadOptions {
        max_evals: cfg.max_evals_per_start,
        initial_step: 0.12,
        ..NelderMeadOptions::default()
    };

    let mut penalty_weight = 1_000.0 * base_cost;
    let proximity_weight = 0.5 * base_cost;
    for round in 0..4 {
        let seed = seedstream::domain(cfg.seed, round);
        let mut best: Option<(Vec<f64>, f64)> = None;
        for s in 0..cfg.n_starts.max(1) {
            let start: Vec<f64> = if s == 0 {
                x0.clone()
            } else {
                let mut rng = StdRng::seed_from_u64(seed ^ s as u64);
                lo.iter()
                    .zip(&hi)
                    .map(|(&a, &b)| rng.gen_range(a..b))
                    .collect()
            };
            let mut ctx = OpfContext::new();
            let objective = |cand: &[f64]| {
                let x = assemble(cand);
                let Ok(sol) = solve_opf_with(net, &x, &opf_opts, &mut ctx) else {
                    return INFEASIBLE_COST;
                };
                let Ok(g) = basis.gamma_to(&net.measurement_matrix(&x).unwrap()) else {
                    return INFEASIBLE_COST;
                };
                let deficit = (gamma_th - g).max(0.0);
                let overshoot = (g - gamma_th).max(0.0);
                sol.cost
                    + penalty_weight * deficit * deficit
                    + proximity_weight * overshoot * overshoot
            };
            let r = nelder_mead(objective, &start, &lo, &hi, &nm);
            if best.as_ref().is_none_or(|(_, f)| r.f < *f) {
                best = Some((r.x, r.f));
            }
        }
        let (cand, f) = best.expect("at least one start");
        assert!(f < INFEASIBLE_COST, "reference found no feasible dispatch");
        let x_post = assemble(&cand);
        let gamma = basis
            .gamma_to(&net.measurement_matrix(&x_post).unwrap())
            .unwrap();
        if gamma + 1e-3 >= gamma_th {
            let cost = solve_opf(net, &x_post, &opf_opts).unwrap().cost;
            return Reference { gamma, cost };
        }
        penalty_weight *= 25.0;
    }
    panic!("reference never reached gamma_th = {gamma_th}");
}

fn agree_on(net: &Network, gamma_th: f64, n_starts: usize, max_evals: usize, seed: u64) {
    let x_pre = net.nominal_reactances();
    let cfg = cfg_with(n_starts, max_evals, seed);

    let grad = select(net, gamma_th, &cfg).unwrap();
    let nm = nelder_mead_reference(net, &x_pre, gamma_th, &cfg);

    assert!(
        grad.gamma >= gamma_th - 1e-3,
        "gradient path missed gamma_th: {} < {gamma_th}",
        grad.gamma
    );
    assert!(
        nm.gamma >= gamma_th - 1e-3,
        "nelder-mead reference missed gamma_th: {} < {gamma_th}",
        nm.gamma
    );
    assert!(
        grad.opf.cost <= nm.cost * 1.01,
        "gradient selection must not cost more than 1% over nelder-mead: {} vs {}",
        grad.opf.cost,
        nm.cost
    );
}

#[test]
fn case4_methods_agree() {
    agree_on(&cases::case4(), 0.2, 2, 120, 1);
}

#[test]
fn case14_methods_agree() {
    agree_on(&cases::case14(), 0.2, 2, 120, 1);
}

#[test]
fn case30_methods_agree() {
    // Quadratic generator costs: the envelope gradient prices the PWL
    // surrogate, which must still steer to an equal-or-better optimum.
    agree_on(&cases::case30(), 0.15, 2, 120, 30);
}

#[test]
fn case57_methods_agree() {
    // 160 evaluations is what Nelder-Mead needs to clear 0.02 on the
    // 25-dimensional case57 D-FACTS box (its initial simplex alone costs
    // 26); the gradient path clears far higher thresholds on the same
    // budget, but agreement needs a bar both can meet.
    agree_on(&cases::case57(), 0.02, 1, 160, 5757);
}

#[test]
fn case118_gradient_meets_threshold() {
    let cfg = cfg_with(1, 12, 118_118);
    let sel = select(&cases::case118(), 0.05, &cfg).unwrap();
    assert!(
        sel.gamma >= 0.05 - 1e-3,
        "case118 gradient selection missed gamma_th: {}",
        sel.gamma
    );
    assert!(sel.opf.cost.is_finite() && sel.opf.cost > 0.0);
}

#[test]
fn gradient_selection_is_bit_identical_across_thread_counts() {
    let net = cases::case14();
    let cfg = cfg_with(4, 60, 7);

    let baseline = with_thread_budget(Some(1), || select(&net, 0.2, &cfg)).unwrap();
    for threads in [2usize, 4, 16] {
        let sel = with_thread_budget(Some(threads), || select(&net, 0.2, &cfg)).unwrap();
        assert_eq!(
            sel.gamma.to_bits(),
            baseline.gamma.to_bits(),
            "gamma differs at {threads} threads"
        );
        assert_eq!(
            sel.opf.cost.to_bits(),
            baseline.opf.cost.to_bits(),
            "cost differs at {threads} threads"
        );
        for (l, (a, b)) in sel.x_post.iter().zip(baseline.x_post.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "x_post[{l}] differs at {threads} threads"
            );
        }
    }
}

#[test]
fn unreachable_threshold_is_still_a_typed_error() {
    // When the penalty rounds never meet γ_th, the error reports the
    // γ ceiling of the same inputs, bit for bit.
    let cfg = cfg_with(1, 40, 1);
    let session = MtdSession::builder(cases::case4())
        .config(cfg)
        .build()
        .unwrap();
    let &(_, ceiling) = session.max_gamma().unwrap();
    match session.select(1.5) {
        Err(MtdError::ThresholdUnreachable {
            requested,
            achieved,
        }) => {
            assert_eq!(requested, 1.5);
            assert!(achieved < 1.5);
            assert_eq!(achieved.to_bits(), ceiling.to_bits());
        }
        other => panic!("expected ThresholdUnreachable, got {other:?}"),
    }
}
