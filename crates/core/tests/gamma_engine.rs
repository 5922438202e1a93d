//! The one γ engine against an independent oracle.
//!
//! Every principal angle in the pipeline comes from the pencil
//! `(B − A)c = s·Bc` solved against a cached orthonormal basis of
//! `Col(H_pre)`. This file checks that engine against the Björck–Golub
//! route it replaced — orthonormalize both matrices, take the singular
//! values of `Q₁ᵀQ₂` — which survives here only as a test reference:
//!
//! * γ agrees with the oracle to 1e-9 on case4 through case118 under
//!   seeded 5–50 % D-FACTS perturbations;
//! * the literal smallest angle is ≈ 0 whenever fewer than `N − 1` lines
//!   carry D-FACTS devices (the column spaces must intersect, see the
//!   `spa` module note);
//! * an ill-conditioned `x_post` is a typed error, not a panic, through
//!   `MtdSession::evaluate` (the path the `evaluate` wire method takes).

use gridmtd_core::{selection, spa, MtdConfig, MtdError, MtdSession};
use gridmtd_linalg::{qr, LinalgError, Matrix, Svd};
use gridmtd_powergrid::{cases, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The largest principal angle by the SVD route: `cos γ` is the smallest
/// singular value of `Q₁ᵀQ₂`.
fn svd_oracle_gamma(h_pre: &Matrix, h_post: &Matrix) -> f64 {
    let q1 = qr::orthonormal_basis(h_pre).unwrap();
    let q2 = qr::orthonormal_basis(h_post).unwrap();
    let cosines = q1.transpose().matmul(&q2).unwrap();
    let svd = Svd::compute(&cosines).unwrap();
    let sigma_min = svd
        .singular_values()
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    sigma_min.clamp(0.0, 1.0).acos()
}

#[test]
fn pencil_gamma_matches_the_svd_oracle_across_cases() {
    let nets: [(&str, Network, usize); 5] = [
        ("case4", cases::case4(), 4),
        ("case14", cases::case14(), 4),
        ("case30", cases::case30(), 3),
        ("case57", cases::case57(), 2),
        ("case118", cases::case118(), 1),
    ];
    for (name, net, per_fraction) in nets {
        let x_pre = net.nominal_reactances();
        let h_pre = net.measurement_matrix(&x_pre).unwrap();
        let basis = spa::GammaBasis::new(&h_pre).unwrap();
        let intersecting = net.dfacts_branches().len() < net.n_states();
        let mut rng = StdRng::seed_from_u64(0x9a_11a);
        for fraction in [0.05, 0.2, 0.5] {
            for _ in 0..per_fraction {
                let x_post =
                    selection::random_perturbation(&net, &x_pre, fraction, &mut rng).unwrap();
                let h_post = net.measurement_matrix(&x_post).unwrap();
                let (gamma, smallest) = basis.gamma_and_smallest_to(&h_post).unwrap();
                let oracle = svd_oracle_gamma(&h_pre, &h_post);
                assert!(
                    (gamma - oracle).abs() <= 1e-9,
                    "{name} at {fraction}: pencil γ {gamma} vs SVD γ {oracle}"
                );
                assert!(
                    (0.0..=std::f64::consts::FRAC_PI_2).contains(&smallest) && smallest <= gamma,
                    "{name}: smallest angle {smallest} outside [0, γ = {gamma}]"
                );
                if intersecting {
                    assert!(
                        smallest <= 1e-6,
                        "{name} at {fraction}: |L_D| < N − 1 forces a shared direction, \
                         got smallest angle {smallest}"
                    );
                }
            }
        }
    }
}

#[test]
fn ill_conditioned_x_post_is_a_typed_error_through_evaluate() {
    let net = cases::case14();
    let session = MtdSession::builder(net.clone())
        .config(MtdConfig {
            n_attacks: 4,
            ..MtdConfig::default()
        })
        .build()
        .unwrap();
    let mut x_post = net.nominal_reactances();
    x_post[net.dfacts_branches()[0]] = 1e-30;
    let outcome = session.evaluate(&x_post);
    assert!(
        matches!(
            outcome,
            Err(MtdError::Numerical(LinalgError::NotPositiveDefinite))
        ),
        "a 1e-30 reactance must fail the angle Cholesky, got {outcome:?}"
    );
    // The failure poisons nothing: a healthy perturbation still scores.
    let mut healthy = net.nominal_reactances();
    healthy[net.dfacts_branches()[0]] *= 1.2;
    assert!(session.evaluate(&healthy).is_ok());
}
