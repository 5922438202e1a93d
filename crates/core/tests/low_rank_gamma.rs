//! The low-rank `sin²γ` kernel against the dense pencil.
//!
//! Every γ query a session makes between two reactance vectors — the
//! L-BFGS state and gradient, the exact-γ audit, the γ ceiling,
//! evaluation, the keyspace trials and the timeline's angles — runs on
//! [`spa::GammaKernel`], which solves the pencil `(B − A)c = s·Bc` on the
//! `|C|`-dimensional range of the lines `C` a candidate moves instead of
//! on a dense `H(x)`. This file checks it against the dense pencil
//! ([`spa::GammaBasis`]) that arbitrary matrix pairs keep:
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
//!   kernel's γ for vectors `a ∈ Col(H_pre)`;
//! * the session's reported angles — `MtdEvaluation::{gamma,
//!   smallest_angle}` on case14–case118 at the nominal and spread
//!   `x_pre`, six keyspace trials, and all three angles of every hour of
//!   the case14 `nyiso_winter_weekday` day — agree with the dense pencil
//!   within 1e-10 relative, or within its resolution for tiny angles;
//! * the rank rule: the smallest angle is exactly 0 when a step moves
//!   `|C| < n` lines, and when `|C| ≥ n` (case4's D-FACTS steps, steps
//!   that move every branch) both angles are the dense pencil's bits.

use gridmtd_core::{seedstream, selection, spa, MtdConfig, MtdSession, TimelineOptions};
use gridmtd_linalg::{vector, Cholesky, Matrix};
use gridmtd_powergrid::{cases, Branch, Bus, Generator, Network};
use gridmtd_traces::nyiso_winter_weekday;
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

/// A session's γ against the dense pencil's: within 1e-10 relative, or
/// within the dense pencil's own resolution. That pencil forms `B − A`
/// as a difference of `k × k` Gram matrices, so it resolves `sin²γ` only
/// to about 1e-16 absolute: a 7e-6 rad angle of the full case14 day
/// (`sin²γ` 5.4e-11) came out 2e-6 relative off the kernel's, which
/// forms `GᵀG` directly.
fn assert_close(what: &str, session: f64, dense: f64) {
    let rel = (session - dense).abs() / dense.abs().max(1e-300);
    let sin_sq_gap = (session.sin().powi(2) - dense.sin().powi(2)).abs();
    assert!(
        rel <= 1e-10 || sin_sq_gap <= 1e-15,
        "{what}: session γ {session:e} vs dense {dense:e} (rel {rel:e}, sin² gap {sin_sq_gap:e})"
    );
}

/// A small ensemble: the angles do not depend on it.
fn angle_session(net: &Network, x_pre: &[f64]) -> MtdSession {
    MtdSession::builder(net.clone())
        .config(MtdConfig {
            n_attacks: 4,
            ..MtdConfig::default()
        })
        .x_pre(x_pre.to_vec())
        .build()
        .unwrap()
}

#[test]
fn evaluation_angles_match_the_dense_pencil_case14_to_case118() {
    for (name, net) in [
        ("case14", cases::case14()),
        ("case30", cases::case30()),
        ("case57", cases::case57()),
        ("case118", cases::case118()),
    ] {
        let dfacts = net.dfacts_branches();
        assert!(dfacts.len() < net.n_states());
        for (where_, x_pre, _) in pre_points(&net).into_iter().take(2) {
            let session = angle_session(&net, &x_pre);
            let dense = session.gamma_basis().unwrap();
            let mut rng = StdRng::seed_from_u64(0x24 ^ net.n_buses() as u64);
            for i in 0..4 {
                // Assembled from the nominal reactances, as selections are.
                let mut x_post = net.nominal_reactances();
                for &l in &dfacts {
                    x_post[l] *= 1.0 + rng.gen_range(-0.5..0.5);
                }
                let eval = session.evaluate(&x_post).unwrap();
                let (gamma, smallest) = dense
                    .gamma_and_smallest_to(&net.measurement_matrix(&x_post).unwrap())
                    .unwrap();
                let what = format!("{name}/{where_} point {i}");
                assert_close(&what, eval.gamma, gamma);
                // |C| = |L_D| < n: the spaces intersect, so the smallest
                // angle is exactly 0; the pencil resolves it to ~1e-8.
                assert_eq!(eval.smallest_angle, 0.0, "{what}");
                assert!(smallest < 1e-6, "{what}: dense smallest {smallest}");
            }
        }
    }
}

/// The complete graph on four buses, every line with a D-FACTS device:
/// `L = 6 = 2n` lines, so a step that moves `|C| ≥ n` of them can tilt
/// `Col(H)` off itself entirely. Every checked-in grid has `L < 2n`,
/// where `Col(H)` and `Col(H′)` share at least `2n − L` directions for
/// any step and the smallest angle is 0 on both sides of the rank rule.
fn complete4() -> Network {
    let buses = vec![
        Bus::with_load(50.0),
        Bus::with_load(170.0),
        Bus::with_load(200.0),
        Bus::with_load(80.0),
    ];
    let reactances = [0.05, 0.037, 0.06, 0.045, 0.04, 0.064];
    let ends = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    let branches = ends
        .iter()
        .zip(reactances)
        .map(|(&(f, t), x)| Branch::new(f, t, x, 500.0).with_dfacts())
        .collect();
    let gens = vec![
        Generator::linear(0, 350.0, 20.0),
        Generator::linear(3, 300.0, 30.0),
    ];
    Network::new("complete4", buses, branches, gens, 0).unwrap()
}

#[test]
fn steps_of_at_least_n_lines_keep_the_dense_bits() {
    // case4: n = 3 states and all 4 lines carry D-FACTS; moving 3 (= n)
    // or 4 lines takes the dense pencil for both angles. case14 and
    // case30: steps that move every branch. complete4: 3 or 6 of its 6
    // lines, where the smallest angle is not 0.
    let moved = |net: &Network, lines: &[usize]| {
        let mut x = net.nominal_reactances();
        for (k, &l) in lines.iter().enumerate() {
            x[l] *= 1.0 + 0.35 * (1.7 * (k + 1) as f64).sin();
        }
        x
    };
    let case4 = cases::case4();
    let k4 = complete4();
    let mut steps = vec![
        ("case4, 3 lines", case4.clone(), moved(&case4, &[0, 1, 2])),
        (
            "case4, 4 lines",
            case4.clone(),
            moved(&case4, &[0, 1, 2, 3]),
        ),
        ("complete4, 3 lines", k4.clone(), moved(&k4, &[0, 3, 5])),
        (
            "complete4, 6 lines",
            k4.clone(),
            moved(&k4, &[0, 1, 2, 3, 4, 5]),
        ),
    ];
    for (name, net) in [("case14", cases::case14()), ("case30", cases::case30())] {
        let all: Vec<usize> = (0..net.n_branches()).collect();
        steps.push((name, net.clone(), moved(&net, &all)));
    }
    for (what, net, x_post) in steps {
        let session = angle_session(&net, &net.nominal_reactances());
        let h_post = net.measurement_matrix(&x_post).unwrap();
        let eval = session.evaluate(&x_post).unwrap();
        let (gamma, smallest) = session
            .gamma_basis()
            .unwrap()
            .gamma_and_smallest_to(&h_post)
            .unwrap();
        assert_eq!(eval.gamma.to_bits(), gamma.to_bits(), "{what}: γ");
        assert_eq!(
            eval.smallest_angle.to_bits(),
            smallest.to_bits(),
            "{what}: smallest angle"
        );
        if net.n_branches() >= 2 * net.n_states() {
            assert!(smallest > 1e-3, "{what}: smallest angle {smallest}");
        }
    }
    // Fewer lines than states: the smallest angle is exactly 0.
    for (what, net, lines) in [("case4", &case4, [1, 3]), ("complete4", &k4, [2, 4])] {
        let session = angle_session(net, &net.nominal_reactances());
        let x_post = moved(net, &lines);
        let eval = session.evaluate(&x_post).unwrap();
        let (gamma, _) = session
            .gamma_basis()
            .unwrap()
            .gamma_and_smallest_to(&net.measurement_matrix(&x_post).unwrap())
            .unwrap();
        assert_close(&format!("{what}, 2 lines"), eval.gamma, gamma);
        assert_eq!(eval.smallest_angle, 0.0, "{what}, 2 lines");
    }
}

#[test]
fn keyspace_trial_angles_match_the_dense_pencil() {
    // case14 moves its 6 D-FACTS lines of 13 states (the kernel); case4
    // moves all 4 lines of 3 states (the dense pencil's bits).
    for (name, net, fraction) in [
        ("case14", cases::case14(), 0.3),
        ("case4", cases::case4(), 0.2),
    ] {
        let x_pre = net.nominal_reactances();
        let session = angle_session(&net, &x_pre);
        let trials = session.keyspace_study(fraction, 6, &[0.5]).unwrap();
        assert_eq!(trials.len(), 6);
        let dense = session.gamma_basis().unwrap();
        let base = seedstream::domain(session.config().seed, 0xfeed);
        for trial in &trials {
            let mut rng = StdRng::seed_from_u64(seedstream::mix(base, trial.trial as u64));
            let x_post = selection::random_perturbation(&net, &x_pre, fraction, &mut rng).unwrap();
            let gamma = dense
                .gamma_to(&net.measurement_matrix(&x_post).unwrap())
                .unwrap();
            let what = format!("{name} trial {}", trial.trial);
            if net.dfacts_branches().len() < net.n_states() {
                assert_close(&what, trial.gamma, gamma);
            } else {
                assert_eq!(trial.gamma.to_bits(), gamma.to_bits(), "{what}");
            }
        }
    }
}

#[test]
fn timeline_angles_match_the_dense_pencil_every_hour() {
    // The settings of `scenarios/timeline_case14.toml`.
    let net = cases::case14();
    let cfg = MtdConfig {
        n_attacks: 200,
        n_starts: 2,
        max_evals_per_start: 200,
        noise_sigma_mw: 0.1,
        ..MtdConfig::default()
    };
    let trace = nyiso_winter_weekday();
    let nominal = net.total_load();
    let mut day = MtdSession::builder(net.clone())
        .config(cfg.clone())
        .build()
        .unwrap();
    day.begin_day(&trace, &TimelineOptions::default()).unwrap();
    let mut hours = 0;
    while day.hours_remaining() > 0 {
        let x_pre = day.x_pre().to_vec();
        let outcome = day.step_hour().unwrap();
        let x_now = day.x_pre().to_vec();
        // The hour's selection, rebuilt on its grid from its stale
        // knowledge: the same selection to the bit.
        let sel = MtdSession::builder(net.scale_loads(trace.scaling_factor(outcome.hour, nominal)))
            .config(cfg.clone())
            .x_pre(x_pre.clone())
            .build()
            .unwrap()
            .select(outcome.gamma_threshold)
            .unwrap();
        assert_eq!(sel.opf.cost.to_bits(), outcome.cost_with_mtd.to_bits());

        let h = |x: &[f64]| net.measurement_matrix(x).unwrap();
        let stale = spa::GammaBasis::new(&h(&x_pre)).unwrap();
        let what = |angle: &str| format!("hour {}: {angle}", outcome.hour);
        if x_now == x_pre {
            assert_eq!(outcome.gamma_drift, 0.0, "{}", what("drift"));
        } else {
            assert_close(
                &what("drift"),
                outcome.gamma_drift,
                stale.gamma_to(&h(&x_now)).unwrap(),
            );
        }
        assert_close(
            &what("defense"),
            outcome.gamma_defense,
            stale.gamma_to(&h(&sel.x_post)).unwrap(),
        );
        assert_close(
            &what("current"),
            outcome.gamma_current,
            spa::gamma(&h(&x_now), &h(&sel.x_post)).unwrap(),
        );
        hours += 1;
    }
    assert_eq!(hours, 24);
}
