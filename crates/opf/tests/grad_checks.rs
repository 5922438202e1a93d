//! Derivative checks: every analytic gradient that feeds the L-BFGS
//! selection path is pinned against a central finite difference on
//! randomized reactance perturbations of case4/case14/case57.
//!
//! Three layers of the chain rule are fenced independently, so a
//! regression points at the broken link rather than at "selection got
//! worse":
//!
//! 1. **`∂H/∂x_l` stamps** (`Network::measurement_matrix_derivative`) —
//!    every entry of the sparse triplet list against the densified
//!    finite difference of `Network::measurement_matrix`;
//! 2. **`∂ sin²γ / ∂x_l`** (`linalg::diff::SinSqState::gradient_entry`
//!    contracted with the stamps) against the finite difference of the
//!    full `x → H(x) → sin²γ(H_pre, H(x))` chain;
//! 3. **`∂cost/∂x_l`** (`solve_opf_grad_with`, LP duals via the envelope
//!    theorem) against the finite difference of the re-solved OPF value,
//!    and on top of both a replica of the selection objective's
//!    exterior-penalty term, differentiated with the same
//!    `dpen/ds · ds/dx` chain the optimizer uses.
//!
//! The perturbations come from the vendored deterministic `proptest`
//! stand-in, so every run exercises the same pinned sample set: a
//! failure here reproduces everywhere.

use gridmtd_linalg::diff::sin_sq_largest_angle;
use gridmtd_linalg::subspace::OrthonormalBasis;
use gridmtd_opf::{solve_opf_grad_with, solve_opf_with, OpfContext, OpfOptions};
use gridmtd_powergrid::{cases, Network};
use proptest::prelude::*;

/// Applies a signed per-D-FACTS-line relative perturbation to the
/// nominal reactances: `x_l ← x_l · (1 + scale · u_l)`, `u ∈ [−1, 1]`.
fn perturbed(net: &Network, units: &[f64], scale: f64) -> Vec<f64> {
    let mut x = net.nominal_reactances();
    for (k, &l) in net.dfacts_branches().iter().enumerate() {
        x[l] *= 1.0 + scale * units[k % units.len()];
    }
    x
}

/// Central finite difference of `f` along branch `l` with relative step
/// `rel` (the step is `rel · x_l`, so conditioning is scale-free).
///
/// `rel = 1e-4` balances the two error sources: truncation is
/// `O(rel²)` relative, while the cancellation noise of the LP value
/// (exact simplex, ~1e-10 absolute on a ~1e4 cost) and of the
/// `sin²γ` eigensolve (roundoff, ~1e-16 absolute) is divided by
/// `2·rel·x_l`. A smaller step drowns near-zero gradients in noise.
fn central_fd(x: &[f64], l: usize, rel: f64, mut f: impl FnMut(&[f64]) -> f64) -> f64 {
    let h = rel * x[l].abs();
    let mut xp = x.to_vec();
    let mut xm = x.to_vec();
    xp[l] += h;
    xm[l] -= h;
    (f(&xp) - f(&xm)) / (2.0 * h)
}

/// Checks every entry of the `∂H/∂x_l` stamps against the densified
/// finite difference of the measurement matrix.
fn check_stamps(net: &Network, units: &[f64]) {
    let x = perturbed(net, units, 0.25);
    let probe = net.measurement_matrix(&x).unwrap();
    let (rows, cols) = (probe.rows(), probe.cols());
    for &l in net.dfacts_branches().iter() {
        let stamps = net.measurement_matrix_derivative(&x, l).unwrap();
        let mut dense = vec![0.0; rows * cols];
        for &(r, c, v) in &stamps {
            dense[r * cols + c] += v;
        }
        let h = 1e-6 * x[l];
        let mut xp = x.clone();
        let mut xm = x.clone();
        xp[l] += h;
        xm[l] -= h;
        let hp = net.measurement_matrix(&xp).unwrap();
        let hm = net.measurement_matrix(&xm).unwrap();
        // The stamp magnitude sets the natural scale of the row.
        let scale = net.base_mva() / (x[l] * x[l]);
        for r in 0..rows {
            for c in 0..cols {
                let fd = (hp[(r, c)] - hm[(r, c)]) / (2.0 * h);
                let got = dense[r * cols + c];
                assert!(
                    (fd - got).abs() <= 1e-6 * scale.max(1.0),
                    "branch {l} entry ({r},{c}): stamp {got} vs FD {fd}"
                );
            }
        }
    }
}

/// Checks `∂ sin²γ / ∂x_l` — the stamp-contracted eigen-gradient —
/// against the finite difference of the full chain.
fn check_gamma_gradient(net: &Network, units: &[f64], stride: usize) {
    let x_pre = net.nominal_reactances();
    let q1 = OrthonormalBasis::new(&net.measurement_matrix(&x_pre).unwrap()).unwrap();
    // Away from x_pre: at x = x_pre the angle is an exact global minimum
    // with zero gradient, which a finite difference confirms trivially.
    let x = perturbed(net, units, 0.3);
    let state = sin_sq_largest_angle(&q1, &net.measurement_matrix(&x).unwrap()).unwrap();
    let analytic: Vec<(usize, f64)> = net
        .dfacts_branches()
        .iter()
        .map(|&l| {
            let stamps = net.measurement_matrix_derivative(&x, l).unwrap();
            (l, state.gradient_entry(&stamps))
        })
        .collect();
    // Error tolerance relative to the gradient vector's scale: a wrong
    // stamp or eigen-weight shows up as an O(scale) discrepancy.
    let scale = analytic.iter().fold(1.0f64, |m, &(_, g)| m.max(g.abs()));
    for &(l, got) in analytic.iter().step_by(stride) {
        let fd = central_fd(&x, l, 1e-4, |xt| {
            sin_sq_largest_angle(&q1, &net.measurement_matrix(xt).unwrap())
                .unwrap()
                .value()
        });
        assert!(
            (fd - got).abs() <= 1e-6 * scale,
            "branch {l}: analytic {got} vs FD {fd} (scale {scale})"
        );
    }
}

/// Checks the envelope-theorem OPF cost gradient against re-solving the
/// LP at displaced reactances.
///
/// The optimal value of an LP is piecewise smooth in `x`; at a basis
/// change the dual gradient is the one-sided derivative. The random
/// perturbation keeps the checks off such kinks for the pinned sample
/// set, and the tolerance (1e-5 of the gradient scale) covers both the
/// quadratic finite-difference truncation and the cancellation noise of
/// the re-solved LP value.
fn check_cost_gradient(net: &Network, units: &[f64], stride: usize) {
    let opts = OpfOptions::default();
    let x = perturbed(net, units, 0.2);
    let mut ctx = OpfContext::new();
    let (_, grad) = solve_opf_grad_with(net, &x, &opts, &mut ctx).unwrap();
    let scale = grad.iter().fold(1.0f64, |m, g| m.max(g.abs()));
    for &l in net.dfacts_branches().iter().step_by(stride) {
        let fd = central_fd(&x, l, 1e-4, |xt| {
            solve_opf_with(net, xt, &opts, &mut ctx).unwrap().cost
        });
        assert!(
            (fd - grad[l]).abs() <= 1e-5 * scale,
            "branch {l}: dual gradient {} vs FD {fd} (scale {scale})",
            grad[l]
        );
    }
}

/// Replicates the selection objective's exterior-penalty term on top of
/// cost and checks its full gradient — the exact `cost' + dpen/ds · ds/dx`
/// chain `run_gradient` hands to L-BFGS.
fn check_penalty_gradient(net: &Network, units: &[f64], stride: usize) {
    let opts = OpfOptions::default();
    let x_pre = net.nominal_reactances();
    let q1 = OrthonormalBasis::new(&net.measurement_matrix(&x_pre).unwrap()).unwrap();
    let x = perturbed(net, units, 0.2);
    let mut ctx = OpfContext::new();

    let s_now = sin_sq_largest_angle(&q1, &net.measurement_matrix(&x).unwrap())
        .unwrap()
        .value();
    // A threshold above the current angle, so the deficit branch of the
    // penalty is active (the overshoot branch is the same algebra with
    // the opposite sign).
    let s_th = (s_now + 0.05).min(0.95);
    let weight = 5.0e4;

    let objective = |xt: &[f64], ctx: &mut OpfContext| -> f64 {
        let cost = solve_opf_with(net, xt, &opts, ctx).unwrap().cost;
        let s = sin_sq_largest_angle(&q1, &net.measurement_matrix(xt).unwrap())
            .unwrap()
            .value();
        let deficit = (s_th - s).max(0.0);
        cost + weight * deficit * deficit
    };

    let (_, cost_grad) = solve_opf_grad_with(net, &x, &opts, &mut ctx).unwrap();
    let state = sin_sq_largest_angle(&q1, &net.measurement_matrix(&x).unwrap()).unwrap();
    let deficit = (s_th - state.value()).max(0.0);
    let dpen_ds = -2.0 * weight * deficit;
    let analytic: Vec<(usize, f64)> = net
        .dfacts_branches()
        .iter()
        .map(|&l| {
            let stamps = net.measurement_matrix_derivative(&x, l).unwrap();
            (l, cost_grad[l] + dpen_ds * state.gradient_entry(&stamps))
        })
        .collect();
    let scale = analytic.iter().fold(1.0f64, |m, &(_, g)| m.max(g.abs()));
    for &(l, got) in analytic.iter().step_by(stride) {
        let fd = central_fd(&x, l, 1e-4, |xt| objective(xt, &mut ctx));
        assert!(
            (fd - got).abs() <= 1e-5 * scale,
            "branch {l}: penalty-chain gradient {got} vs FD {fd} (scale {scale})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn case4_stamps_match_fd(units in proptest::collection::vec(-1.0..1.0f64, 4)) {
        check_stamps(&cases::case4(), &units);
    }

    #[test]
    fn case14_stamps_match_fd(units in proptest::collection::vec(-1.0..1.0f64, 6)) {
        check_stamps(&cases::case14(), &units);
    }

    #[test]
    fn case57_stamps_match_fd(units in proptest::collection::vec(-1.0..1.0f64, 12)) {
        check_stamps(&cases::case57(), &units);
    }

    #[test]
    fn case4_gamma_gradient_matches_fd(units in proptest::collection::vec(-1.0..1.0f64, 4)) {
        check_gamma_gradient(&cases::case4(), &units, 1);
    }

    #[test]
    fn case14_gamma_gradient_matches_fd(units in proptest::collection::vec(-1.0..1.0f64, 6)) {
        check_gamma_gradient(&cases::case14(), &units, 1);
    }

    #[test]
    fn case57_gamma_gradient_matches_fd(units in proptest::collection::vec(-1.0..1.0f64, 12)) {
        // Every 3rd D-FACTS branch: the eigen-gradient contraction is
        // uniform over branches, and each finite difference re-runs a
        // dense 56x56 eigensolve.
        check_gamma_gradient(&cases::case57(), &units, 3);
    }

    #[test]
    fn case4_cost_gradient_matches_fd(units in proptest::collection::vec(-1.0..1.0f64, 4)) {
        check_cost_gradient(&cases::case4(), &units, 1);
    }

    #[test]
    fn case14_cost_gradient_matches_fd(units in proptest::collection::vec(-1.0..1.0f64, 6)) {
        check_cost_gradient(&cases::case14(), &units, 1);
    }
}

proptest! {
    // The 57-bus OPF re-solves are the expensive part; a smaller pinned
    // sample set still walks several distinct active sets.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn case57_cost_gradient_matches_fd(units in proptest::collection::vec(-1.0..1.0f64, 12)) {
        // Every 4th D-FACTS branch: the dual-pricing formula is uniform
        // over branches, so a pinned subset keeps the check while
        // bounding the 57-bus LP re-solve count.
        check_cost_gradient(&cases::case57(), &units, 4);
    }

    #[test]
    fn case14_penalty_chain_matches_fd(units in proptest::collection::vec(-1.0..1.0f64, 6)) {
        check_penalty_gradient(&cases::case14(), &units, 1);
    }

    #[test]
    fn case57_penalty_chain_matches_fd(units in proptest::collection::vec(-1.0..1.0f64, 12)) {
        check_penalty_gradient(&cases::case57(), &units, 4);
    }
}
