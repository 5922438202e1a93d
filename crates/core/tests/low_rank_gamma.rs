//! The low-rank `sin²γ` kernel against the dense pencil.
//!
//! Every selection-side γ query — the L-BFGS state and gradient, the
//! exact-γ audit, the γ ceiling — runs on [`spa::GammaKernel`], which
//! solves the pencil `(B − A)c = s·Bc` on the `|C|`-dimensional range of
//! the lines `C` a candidate moves instead of on a dense `H(x)`. This file
//! checks it against the dense pencil ([`spa::GammaBasis::sin_sq_to`])
//! that evaluation and arbitrary matrix pairs keep:
//!
//! * on case4 through case118 (case300 at its nominal point), 50 seeded points of the ±50 % D-FACTS box
//!   per pre-perturbation point agree in `sin²γ` to 1e-10 relative and in
//!   the D-FACTS gradient to 1e-9 of its largest entry, and the exact-γ
//!   query agrees with the state's angle;
//! * the gradient matches central differences of the kernel's own value;
//! * `x = x_pre` gives exactly `s = 0` and a zero gradient;
//! * all of the above at the nominal reactances, at a spread box corner,
//!   and at an explicit `x_pre` that moves a line without a D-FACTS
//!   device, so the moved set is not a subset of `L_D`; every second
//!   point also moves a line outside the kernel's cached set;
//! * the Appendix C bound `‖(I − P_{H′})a‖ ≤ sin γ·‖a‖` holds at the
//!   kernel's γ for vectors `a ∈ Col(H_pre)`.

use gridmtd_core::{selection, spa};
use gridmtd_linalg::{vector, Cholesky, Matrix};
use gridmtd_powergrid::{cases, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POINTS: usize = 50;

/// The pre-perturbation points every case is checked at, with the line
/// (if any) each moves outside the D-FACTS set.
fn pre_points(net: &Network) -> Vec<(&'static str, Vec<f64>, Option<usize>)> {
    let nominal = net.nominal_reactances();
    let dfacts = net.dfacts_branches();
    let spread = if dfacts.len() <= 12 {
        selection::spread_pre_perturbation(net, 0.5)
    } else {
        // The corner search samples 4096 corners above 12 lines; one
        // alternating corner of the box stands in for it here.
        let mut x = nominal.clone();
        for (k, &l) in dfacts.iter().enumerate() {
            x[l] *= if k % 2 == 0 { 1.5 } else { 0.5 };
        }
        x
    };
    let mut points = vec![("nominal", nominal.clone(), None), ("spread", spread, None)];
    // case4 carries D-FACTS on every line and has no explicit point.
    if let Some(fixed) = (0..net.n_branches()).find(|l| !dfacts.contains(l)) {
        let mut explicit = nominal;
        explicit[fixed] *= 1.1;
        points.push(("explicit", explicit, Some(fixed)));
    }
    points
}

/// `∂ sin²γ / ∂x_l` over the D-FACTS lines, read off `state`.
fn gradient(net: &Network, x: &[f64], state: &gridmtd_linalg::diff::SinSqState) -> Vec<f64> {
    net.dfacts_branches()
        .iter()
        .map(|&l| state.gradient_entry(&net.measurement_matrix_derivative(x, l).unwrap()))
        .collect()
}

/// `‖(I − P_{H′})a‖` by least squares against `H′ = h_post`, with
/// `chol` the factor of `H′ᵀH′`.
fn residual_norm(h_post: &Matrix, chol: &Cholesky, a: &[f64]) -> f64 {
    let coef = chol.solve(&h_post.matvec_transposed(a).unwrap()).unwrap();
    let fit = h_post.matvec(&coef).unwrap();
    let r: Vec<f64> = a.iter().zip(&fit).map(|(p, q)| p - q).collect();
    vector::norm2(&r)
}

fn check_case(name: &str, net: &Network, points: &[&str]) {
    let dfacts = net.dfacts_branches();
    let nominal = net.nominal_reactances();
    let pre = pre_points(net);
    for (where_, x_pre, fixed) in pre.into_iter().filter(|p| points.contains(&p.0)) {
        // A line outside the kernel's cached set (the D-FACTS lines and
        // the line x_pre moves): every second point also moves it.
        let outside = (0..net.n_branches()).find(|&l| !dfacts.contains(&l) && Some(l) != fixed);
        let h_pre = net.measurement_matrix(&x_pre).unwrap();
        let kernel = spa::GammaKernel::new(net, &x_pre, &h_pre).unwrap();
        let dense = kernel.basis();

        // x = x_pre: exactly zero.
        let at_pre = kernel.sin_sq_at(net, &x_pre).unwrap();
        assert_eq!(at_pre.value(), 0.0, "{name}/{where_}: s at x_pre");
        assert!(gradient(net, &x_pre, &at_pre).iter().all(|&g| g == 0.0));
        assert_eq!(kernel.gamma_at(net, &x_pre).unwrap(), 0.0);

        let mut rng = StdRng::seed_from_u64(0x10_3a4c ^ net.n_buses() as u64);
        let mut worst = (0.0_f64, 0.0_f64);
        for i in 0..POINTS {
            // Candidates are assembled from the nominal reactances, as the
            // selection does.
            let mut x = nominal.clone();
            for &l in &dfacts {
                x[l] *= 1.0 + rng.gen_range(-0.5..0.5);
            }
            if let Some(l) = outside.filter(|_| i % 2 == 1) {
                x[l] *= 0.9;
            }
            let state = kernel.sin_sq_at(net, &x).unwrap();
            let reference = dense
                .sin_sq_to(&net.measurement_matrix(&x).unwrap())
                .unwrap();
            let (s, s_ref) = (state.value(), reference.value());
            let rel = (s - s_ref).abs() / s_ref.abs().max(1e-300);
            assert!(
                rel <= 1e-10,
                "{name}/{where_} point {i}: s = {s:e} vs dense {s_ref:e} (rel {rel:e})"
            );
            let g = gradient(net, &x, &state);
            let g_ref = gradient(net, &x, &reference);
            let scale = g_ref.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            let err = g
                .iter()
                .zip(&g_ref)
                .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()));
            assert!(
                err <= 1e-9 * scale,
                "{name}/{where_} point {i}: gradient off by {err:e} (largest entry {scale:e})"
            );
            worst = (worst.0.max(rel), worst.1.max(err / scale));

            let gamma = kernel.gamma_at(net, &x).unwrap();
            assert!(
                (gamma - state.angle()).abs() <= 1e-12,
                "{name}/{where_} point {i}: γ {gamma} vs state angle {}",
                state.angle()
            );

            if i < 2 {
                // Central differences of the kernel's own value.
                let scale = g.iter().fold(1e-3_f64, |m, v| m.max(v.abs()));
                for (k, &l) in dfacts.iter().enumerate().step_by(dfacts.len().div_ceil(6)) {
                    let h = 1e-5 * x[l];
                    let (mut xp, mut xm) = (x.clone(), x.clone());
                    xp[l] += h;
                    xm[l] -= h;
                    let fd = (kernel.sin_sq_at(net, &xp).unwrap().value()
                        - kernel.sin_sq_at(net, &xm).unwrap().value())
                        / (2.0 * h);
                    assert!(
                        (fd - g[k]).abs() <= 1e-6 * scale,
                        "{name}/{where_} point {i} line {l}: analytic {} vs FD {fd}",
                        g[k]
                    );
                }
                // Appendix C at the kernel's γ: a ∈ Col(H_pre) keeps at
                // most sin γ of its norm outside Col(H′).
                let h_post = net.measurement_matrix(&x).unwrap();
                let chol = Cholesky::factor(&h_post.gram()).unwrap();
                let sin_gamma = gamma.sin();
                for _ in 0..8 {
                    let c: Vec<f64> = (0..net.n_states())
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect();
                    let a = h_pre.matvec(&c).unwrap();
                    let a_norm = vector::norm2(&a);
                    let r = residual_norm(&h_post, &chol, &a);
                    assert!(
                        r <= sin_gamma * a_norm + 1e-9 * a_norm,
                        "{name}/{where_} point {i}: ‖r′‖ = {r} > sin γ·‖a‖ = {}",
                        sin_gamma * a_norm
                    );
                }
            }
        }
        eprintln!(
            "{name}/{where_}: worst s rel {:.1e}, worst gradient {:.1e} of largest",
            worst.0, worst.1
        );
    }
}

const ALL_POINTS: [&str; 3] = ["nominal", "spread", "explicit"];

#[test]
fn low_rank_kernel_matches_the_dense_pencil_case4_to_case30() {
    for (name, net) in [
        ("case4", cases::case4()),
        ("case14", cases::case14()),
        ("case30", cases::case30()),
    ] {
        check_case(name, &net, &ALL_POINTS);
    }
}

#[test]
fn low_rank_kernel_matches_the_dense_pencil_case57() {
    check_case("case57", &cases::case57(), &ALL_POINTS);
}

#[test]
fn low_rank_kernel_matches_the_dense_pencil_case118() {
    check_case("case118", &cases::case118(), &ALL_POINTS);
}

/// case300 at the nominal point only: its dense reference pencil costs
/// tens of milliseconds a point, and the three points take over 15 s in
/// an unoptimized test build.
#[test]
fn low_rank_kernel_matches_the_dense_pencil_case300() {
    check_case("case300", &cases::case300(), &["nominal"]);
}

#[test]
fn kernel_rejects_a_network_of_another_shape() {
    let net = cases::case14();
    let x_pre = net.nominal_reactances();
    let h_pre = net.measurement_matrix(&x_pre).unwrap();
    let kernel = spa::GammaKernel::new(&net, &x_pre, &h_pre).unwrap();
    let other = cases::case30();
    assert!(kernel
        .sin_sq_at(&other, &other.nominal_reactances())
        .is_err());
    assert!(spa::GammaKernel::new(&other, &other.nominal_reactances(), &h_pre).is_err());
    let mut bad = x_pre.clone();
    bad[0] = -1.0;
    assert!(kernel.gamma_at(&net, &bad).is_err());
}
