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
//!   `MtdSession::evaluate` (the path the `evaluate` wire method takes);
//! * the eigensolver's on-demand eigenvectors are eigenvectors of the
//!   case57/case118 pencils, and the γ-gradient built from the top one
//!   matches central differences on case118;
//! * the exact angles are pinned bit for bit on fixed case14/57/118
//!   perturbations, so any change to the eigenvalue arithmetic shows;
//! * the Appendix C bound `‖(I − P_{H′})a‖ ≤ sin γ·‖a‖` holds for every
//!   attack of a case14 and a case118 ensemble.

use gridmtd_core::{selection, spa, MtdConfig, MtdError, MtdSession};
use gridmtd_linalg::{qr, subspace, vector, Cholesky, LinalgError, Matrix, Svd, SymmetricEigen};
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

/// Nominal reactances and a fixed D-FACTS perturbation of them:
/// alternately +20 % and −15 % on the D-FACTS lines.
fn fixed_perturbation(net: &Network) -> (Vec<f64>, Vec<f64>) {
    let x_pre = net.nominal_reactances();
    let mut x_post = x_pre.clone();
    for (k, l) in net.dfacts_branches().into_iter().enumerate() {
        x_post[l] *= if k % 2 == 0 { 1.2 } else { 0.85 };
    }
    (x_pre, x_post)
}

/// `L⁻¹ X` for a lower-triangular `L`, column by column.
fn lower_solve(l: &Matrix, x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for j in 0..x.cols() {
        for i in 0..l.rows() {
            let mut acc = out[(i, j)];
            for p in 0..i {
                acc -= l[(i, p)] * out[(p, j)];
            }
            out[(i, j)] = acc / l[(i, i)];
        }
    }
    out
}

/// The symmetric matrix `M = L⁻¹(B − A)L⁻ᵀ` of the principal-angle
/// pencil `(B − A)c = s·Bc`, with `B = HᵀH = LLᵀ` and `A = HᵀQ₁Q₁ᵀH`.
fn pencil_matrix(h_pre: &Matrix, h_post: &Matrix) -> Matrix {
    let q = qr::orthonormal_basis(h_pre).unwrap();
    let t = q.transpose().matmul(h_post).unwrap();
    let b = h_post.gram();
    let c = b.try_sub(&t.gram()).unwrap();
    let l = Cholesky::factor(&b).unwrap().l();
    let half = lower_solve(&l, &c);
    let m = lower_solve(&l, &half.transpose());
    let n = m.rows();
    Matrix::from_fn(n, n, |i, j| if i >= j { m[(i, j)] } else { m[(j, i)] })
}

#[test]
fn pencil_eigenvectors_have_small_residuals() {
    for (name, net) in [("case57", cases::case57()), ("case118", cases::case118())] {
        let (x_pre, x_post) = fixed_perturbation(&net);
        let m = pencil_matrix(
            &net.measurement_matrix(&x_pre).unwrap(),
            &net.measurement_matrix(&x_post).unwrap(),
        );
        let norm = m.frobenius_norm();
        let eig = SymmetricEigen::compute(&m).unwrap();
        for (j, &lambda) in eig.values().iter().enumerate() {
            let v = eig.vector(j);
            assert!(
                (vector::norm2(&v) - 1.0).abs() <= 1e-12,
                "{name} j {j}: not unit"
            );
            let mv = m.matvec(&v).unwrap();
            let r: Vec<f64> = mv.iter().zip(&v).map(|(a, b)| a - lambda * b).collect();
            let residual = vector::norm2(&r);
            assert!(
                residual <= 1e-10 * norm,
                "{name} j {j} (λ = {lambda}): ‖Mv − λv‖ = {residual}, ‖M‖ = {norm}"
            );
        }
    }
}

#[test]
fn gamma_gradient_matches_central_differences_on_case118() {
    let net = cases::case118();
    let (x_pre, x_post) = fixed_perturbation(&net);
    let basis = spa::GammaBasis::new(&net.measurement_matrix(&x_pre).unwrap()).unwrap();
    let sin_sq = |x: &[f64]| {
        basis
            .sin_sq_to(&net.measurement_matrix(x).unwrap())
            .unwrap()
            .value()
    };
    let state = basis
        .sin_sq_to(&net.measurement_matrix(&x_post).unwrap())
        .unwrap();
    let dfacts = net.dfacts_branches();
    let analytic: Vec<f64> = dfacts
        .iter()
        .map(|&l| state.gradient_entry(&net.measurement_matrix_derivative(&x_post, l).unwrap()))
        .collect();
    let scale = analytic.iter().fold(1e-3_f64, |m, g| m.max(g.abs()));
    for (&l, &got) in dfacts.iter().zip(&analytic).step_by(5) {
        let h = 1e-5 * x_post[l];
        let mut xp = x_post.clone();
        let mut xm = x_post.clone();
        xp[l] += h;
        xm[l] -= h;
        let fd = (sin_sq(&xp) - sin_sq(&xm)) / (2.0 * h);
        assert!(
            (fd - got).abs() <= 1e-6 * scale,
            "branch {l}: analytic {got} vs FD {fd} (scale {scale})"
        );
    }
}

/// Bits of every exact angle on fixed perturbations, as
/// `(case, γ, FNV-1a over all angles)`. Any change to the arithmetic
/// behind the eigenvalues (basis QR, pencil solves, reduction, QL)
/// moves them; a change that only reorders memory traffic must not.
const PINNED_ANGLE_BITS: [(&str, u64, u64); 3] = [
    ("case14", 0x3fb3_83c4_2486_ee6e, 0x34e3_9d65_ca0a_16ae),
    ("case57", 0x3fb4_fbef_f025_f30b, 0xe691_5c27_e5c6_27f6),
    ("case118", 0x3fbc_2f18_88c9_d91a, 0xe793_9776_80fd_d5b6),
];

#[test]
fn exact_angles_are_pinned_bit_for_bit() {
    for (name, gamma_bits, spectrum_hash) in PINNED_ANGLE_BITS {
        let net = match name {
            "case14" => cases::case14(),
            "case57" => cases::case57(),
            _ => cases::case118(),
        };
        let (x_pre, x_post) = fixed_perturbation(&net);
        let h_pre = net.measurement_matrix(&x_pre).unwrap();
        let h_post = net.measurement_matrix(&x_post).unwrap();
        let basis = spa::GammaBasis::new(&h_pre).unwrap();
        let gamma = basis.gamma_to(&h_post).unwrap();
        let (gamma2, smallest) = basis.gamma_and_smallest_to(&h_post).unwrap();
        assert_eq!(gamma.to_bits(), gamma_bits, "{name}: γ = {gamma:e}");
        assert_eq!(
            gamma2.to_bits(),
            gamma_bits,
            "{name}: γ (pair) = {gamma2:e}"
        );
        // Every D-FACTS set here leaves the spaces intersecting, and the
        // pencil's roundoff-negative sin² clamps to an exact zero.
        assert_eq!(smallest.to_bits(), 0.0_f64.to_bits(), "{name}: smallest");
        let hash = spa::angles(&h_pre, &h_post)
            .unwrap()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, a| {
                (h ^ a.to_bits()).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(hash, spectrum_hash, "{name}: angle spectrum moved");
    }
}

#[test]
fn appendix_c_residual_bound_holds_for_every_attack() {
    for (name, net, n_attacks) in [
        ("case14", cases::case14(), 200),
        ("case118", cases::case118(), 100),
    ] {
        let (_, x_post) = fixed_perturbation(&net);
        let session = MtdSession::builder(net.clone())
            .config(MtdConfig {
                n_attacks,
                ..MtdConfig::default()
            })
            .build()
            .unwrap();
        let h_post = net.measurement_matrix(&x_post).unwrap();
        let sin_gamma = session
            .gamma_basis()
            .unwrap()
            .gamma_to(&h_post)
            .unwrap()
            .sin();
        let complement = subspace::complement_projector(&h_post).unwrap();
        let attacks = session.attacks().unwrap();
        assert_eq!(attacks.len(), n_attacks);
        for (i, attack) in attacks.iter().enumerate() {
            let a_norm = vector::norm2(&attack.vector);
            let residual = vector::norm2(&complement.matvec(&attack.vector).unwrap());
            assert!(
                residual <= sin_gamma * a_norm + 1e-9 * a_norm,
                "{name} attack {i}: ‖r′‖ = {residual} > sin γ·‖a‖ = {}",
                sin_gamma * a_norm
            );
        }
    }
}
