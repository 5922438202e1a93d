//! Sparse-vs-dense agreement contract for the DC power flow.
//!
//! The power flow (CSC `B̃`, RCM ordering, symbolic/numeric split) must
//! reproduce a dense reference — LU on [`Network::b_reduced`], local to
//! this test — on every benchmark case, from the paper's 4-bus example
//! to the beyond-paper 300-bus scaling rung, and a warm context's
//! numeric-only refactorization must match a cold factorization of the
//! same values exactly.

use gridmtd_linalg::Lu;
use gridmtd_powergrid::{cases, dcpf, Network, PfContext, PowerFlow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn all_cases() -> Vec<Network> {
    vec![
        cases::case4(),
        cases::case14(),
        cases::case30(),
        cases::case57(),
        cases::case118(),
        cases::case300(),
    ]
}

fn even_dispatch(net: &Network) -> Vec<f64> {
    let share = net.total_load() / net.n_gens() as f64;
    vec![share; net.n_gens()]
}

/// Deterministic reactance perturbation of the D-FACTS lines.
fn perturbed(net: &Network, step: usize) -> Vec<f64> {
    let mut x = net.nominal_reactances();
    for (k, l) in net.dfacts_branches().into_iter().enumerate() {
        let sign = if (k + step) % 2 == 0 { 1.0 } else { -1.0 };
        x[l] *= 1.0 + sign * 0.05 * ((step % 4) as f64 + 1.0);
    }
    x
}

/// The dense reference: `B̃ θ̃ = p̃` by LU, then the flows
/// `b_l (θ_i − θ_j)` and the realized injections from flow balance.
fn dense_power_flow(net: &Network, x: &[f64], dispatch: &[f64]) -> PowerFlow {
    let p = net.injections(dispatch).unwrap();
    let p_red: Vec<f64> = (0..net.n_buses())
        .filter(|&i| i != net.slack())
        .map(|i| p[i])
        .collect();
    let theta_red = Lu::factor(&net.b_reduced(x).unwrap())
        .unwrap()
        .solve(&p_red)
        .unwrap();
    let theta: Vec<f64> = (0..net.n_buses())
        .map(|i| net.reduced_index(i).map_or(0.0, |r| theta_red[r]))
        .collect();
    let b = net.susceptances(x).unwrap();
    let flows: Vec<f64> = net
        .branches()
        .iter()
        .enumerate()
        .map(|(l, br)| b[l] * (theta[br.from] - theta[br.to]))
        .collect();
    let mut injections = vec![0.0; net.n_buses()];
    for (br, f) in net.branches().iter().zip(&flows) {
        injections[br.from] += f;
        injections[br.to] -= f;
    }
    PowerFlow {
        theta,
        flows,
        injections,
    }
}

#[test]
fn power_flow_sparse_matches_dense_on_every_case() {
    for net in all_cases() {
        let dispatch = even_dispatch(&net);
        let mut sparse_ctx = PfContext::new();
        for step in 0..3 {
            let x = perturbed(&net, step);
            let sp = dcpf::solve_dispatch_with(&net, &x, &dispatch, &mut sparse_ctx).unwrap();
            let de = dense_power_flow(&net, &x, &dispatch);
            let scale = de.theta.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (a, b) in sp.theta.iter().zip(de.theta.iter()) {
                assert!(
                    (a - b).abs() <= 1e-9 * scale,
                    "{}: theta {a} vs {b}",
                    net.name()
                );
            }
            let fscale = de.flows.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (a, b) in sp.flows.iter().zip(de.flows.iter()) {
                assert!(
                    (a - b).abs() <= 1e-9 * fscale,
                    "{}: flow {a} vs {b}",
                    net.name()
                );
            }
            for (a, b) in sp.injections.iter().zip(de.injections.iter()) {
                assert!((a - b).abs() <= 1e-9 * fscale, "{}: injection", net.name());
            }
        }
        // The sparse context reused its symbolic factorization after the
        // first solve.
        assert_eq!(sparse_ctx.symbolic_reuses(), 2, "{}", net.name());
    }
}

#[test]
fn refactorization_after_random_perturbations_matches_cold() {
    // Pattern-reuse contract: a warm context that has only re-run the
    // numeric phase after random reactance perturbations must agree
    // with a cold sparse factorization of the same values to 1e-10
    // (they are in fact the same arithmetic, so this is conservative).
    let mut rng = StdRng::seed_from_u64(0x5_9a7);
    for net in all_cases() {
        let dispatch = even_dispatch(&net);
        let dfacts = net.dfacts_branches();
        let mut warm = PfContext::new();
        // Prime the cache at the nominal point.
        dcpf::solve_dispatch_with(&net, &net.nominal_reactances(), &dispatch, &mut warm).unwrap();
        for _ in 0..5 {
            let mut x = net.nominal_reactances();
            for &l in &dfacts {
                x[l] *= 1.0 + rng.gen_range(-0.2..0.2);
            }
            let refactored = dcpf::solve_dispatch_with(&net, &x, &dispatch, &mut warm).unwrap();
            let cold =
                dcpf::solve_dispatch_with(&net, &x, &dispatch, &mut PfContext::new()).unwrap();
            let scale = cold.theta.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (a, b) in refactored.theta.iter().zip(cold.theta.iter()) {
                assert!(
                    (a - b).abs() <= 1e-10 * scale,
                    "{}: warm {a} vs cold {b}",
                    net.name()
                );
            }
        }
        assert_eq!(warm.symbolic_reuses(), 5, "{}", net.name());
    }
}

#[test]
fn b_reduced_sparse_matches_dense_assembly() {
    for net in all_cases() {
        let x = net.nominal_reactances();
        let sparse = net.b_reduced_sparse(&x).unwrap().to_dense();
        let dense = net.b_reduced(&x).unwrap();
        assert!(
            sparse.approx_eq(&dense, 1e-9),
            "{}: sparse and dense B̃ assembly disagree",
            net.name()
        );
    }
}
