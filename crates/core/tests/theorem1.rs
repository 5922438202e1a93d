//! Theorem 1 as an executable property on the paper's grids.
//!
//! If `Col(H′)` is the orthogonal complement of `Col(H)`, no nonzero
//! attack `a = Hc` is undetectable under `H′`, and every such attack
//! keeps its full magnitude in the noiseless BDD residual
//! (`‖(I − P_{H′})a‖ = ‖a‖`). On case4 through case118, at
//! `H(x_nominal)`, this file builds such an `H′` from a seeded random
//! matrix `R` as `H′ = q_thin(P⊥ R)` (`P⊥` the projector onto
//! `Col(H)⊥`) and checks:
//!
//! * the orthogonality condition holds and `γ(H, H′) = π/2` (to 1e-6:
//!   `asin` is ill-conditioned at 1, so the pencil's `sin²γ ≈ 1 − ε`
//!   costs about `√ε` in the angle);
//! * 50 seeded attacks `Hc` are all detectable under `H′` and keep
//!   their full residual;
//! * a physically realizable ±50 % sign-mixed D-FACTS perturbation does
//!   not meet the condition (Section V-C: the γ heuristic exists because
//!   orthogonality is unreachable).

use std::f64::consts::FRAC_PI_2;

use gridmtd_core::{spa, theory};
use gridmtd_linalg::{subspace, vector, Matrix, Qr};
use gridmtd_powergrid::{cases, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded matrix with entries uniform in `[-1, 1)`.
fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

fn theorem1_holds_on(name: &str, net: &Network, seed: u64) {
    let x = net.nominal_reactances();
    let h = net.measurement_matrix(&x).unwrap();
    let (m, n) = h.shape();
    let ones = vec![1.0; m];
    let mut rng = StdRng::seed_from_u64(seed);

    let p_perp = subspace::complement_projector(&h).unwrap();
    let raw = p_perp.matmul(&random_matrix(m, n, &mut rng)).unwrap();
    let h_orth = Qr::factor(&raw).unwrap().q_thin();

    assert!(
        theory::orthogonality_condition_holds(&h, &h_orth, &ones).unwrap(),
        "{name}: q_thin(P⊥R) must satisfy the orthogonality condition"
    );
    let gamma = spa::gamma(&h, &h_orth).unwrap();
    assert!(
        (gamma - FRAC_PI_2).abs() <= 1e-6,
        "{name}: γ(H, H′) = {gamma}, expected π/2"
    );

    for trial in 0..50 {
        let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a = h.matvec(&c).unwrap();
        assert!(
            !theory::is_undetectable(&h_orth, &a).unwrap(),
            "{name}: attack {trial} is undetectable under an orthogonal MTD"
        );
        let ratio = theory::noiseless_residual(&h_orth, &a).unwrap() / vector::norm2(&a);
        assert!(
            ratio >= 1.0 - 1e-9,
            "{name}: attack {trial} keeps only {ratio} of its magnitude in the residual"
        );
    }

    let mut x_mixed = x.clone();
    for (k, l) in net.dfacts_branches().into_iter().enumerate() {
        x_mixed[l] *= if k % 2 == 0 { 1.5 } else { 0.5 };
    }
    let h_mixed = net.measurement_matrix(&x_mixed).unwrap();
    assert!(
        !theory::orthogonality_condition_holds(&h, &h_mixed, &ones).unwrap(),
        "{name}: a D-FACTS perturbation cannot reach the orthogonal complement"
    );
}

#[test]
fn theorem1_case4() {
    theorem1_holds_on("case4", &cases::case4(), 4);
}

#[test]
fn theorem1_case14() {
    theorem1_holds_on("case14", &cases::case14(), 14);
}

#[test]
fn theorem1_case30() {
    theorem1_holds_on("case30", &cases::case30(), 30);
}

#[test]
fn theorem1_case57() {
    theorem1_holds_on("case57", &cases::case57(), 57);
}

#[test]
fn theorem1_case118() {
    theorem1_holds_on("case118", &cases::case118(), 118);
}
