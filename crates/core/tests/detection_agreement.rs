//! Pipeline agreement for the closed-form detection probabilities: every
//! probability `MtdSession::detection_probabilities` returns for a
//! selected perturbation must equal the term-by-term noncentral-χ²
//! mixture evaluated at that attack's residual noncentrality under an
//! independently built post-MTD detector.
//!
//! The grids are case14 through case118, the perturbations the
//! selections at γ_th ∈ {0.05, 0.1, 0.2} that lie under each grid's γ
//! ceiling, and the ensemble the paper's 1000 attacks.

#[allow(dead_code)]
#[path = "../../stats/tests/per_term/mod.rs"]
mod per_term;

use gridmtd_attack::FdiAttack;
use gridmtd_core::effectiveness::detection_probabilities_parallel;
use gridmtd_core::{MtdConfig, MtdError, MtdSession};
use gridmtd_estimation::{BadDataDetector, EstimationError, NoiseModel, StateEstimator};
use gridmtd_powergrid::{cases, Network};

const GAMMA_THRESHOLDS: [f64; 3] = [0.05, 0.1, 0.2];
const TOL: f64 = 1e-12;

/// Reduced selection budgets: the test needs a selected perturbation
/// per threshold, not the best one.
fn config() -> MtdConfig {
    MtdConfig {
        n_starts: 1,
        max_evals_per_start: 40,
        seed: 7,
        ..MtdConfig::default()
    }
}

/// The post-MTD detector, built from scratch (no shared symbolic state).
fn fresh_detector(net: &Network, x_post: &[f64], cfg: &MtdConfig) -> BadDataDetector {
    let h = net.measurement_matrix(x_post).unwrap();
    let noise = NoiseModel::uniform(h.rows(), cfg.noise_sigma_mw);
    BadDataDetector::new(StateEstimator::new(h, &noise).unwrap(), cfg.alpha)
}

/// Runs the agreement check on one grid; returns how many thresholds
/// were selected and scored.
fn check_grid(name: &str, net: Network) -> usize {
    let cfg = config();
    let session = MtdSession::builder(net.clone())
        .config(cfg.clone())
        .build()
        .unwrap();
    let attacks = session.attacks().unwrap();
    assert_eq!(attacks.len(), cfg.n_attacks);
    let &(_, ceiling) = session.max_gamma().unwrap();
    let mut scored = 0;
    for gamma_th in GAMMA_THRESHOLDS.into_iter().filter(|&g| g <= ceiling) {
        let sel = match session.select(gamma_th) {
            Ok(sel) => sel,
            Err(MtdError::ThresholdUnreachable { .. }) => continue,
            Err(e) => panic!("{name} γ_th={gamma_th}: {e}"),
        };
        let probs = session.detection_probabilities(&sel.x_post).unwrap();
        assert_eq!(probs.len(), attacks.len());
        let bdd = fresh_detector(&net, &sel.x_post, &cfg);
        let dof = bdd.estimator().degrees_of_freedom() as f64;
        for (i, (attack, &p)) in attacks.iter().zip(&probs).enumerate() {
            let lambda = bdd.attack_noncentrality(&attack.vector).unwrap();
            let want = per_term::sf(dof, lambda, bdd.threshold());
            assert!(
                (p - want).abs() <= TOL,
                "{name} γ_th={gamma_th} attack {i} (λ={lambda}): {p} vs {want}"
            );
        }
        scored += 1;
    }
    scored
}

#[test]
fn case14_probabilities_match_the_per_term_mixture() {
    assert!(check_grid("case14", cases::case14()) > 0);
}

#[test]
fn case30_probabilities_match_the_per_term_mixture() {
    assert!(check_grid("case30", cases::case30()) > 0);
}

#[test]
fn case57_probabilities_match_the_per_term_mixture() {
    assert!(check_grid("case57", cases::case57()) > 0);
}

#[test]
fn case118_probabilities_match_the_per_term_mixture() {
    assert!(check_grid("case118", cases::case118()) > 0);
}

#[test]
fn a_non_finite_attack_is_an_error_through_the_pipeline() {
    let net = cases::case14();
    let cfg = config();
    let x_post = net.nominal_reactances();
    let bdd = fresh_detector(&net, &x_post, &cfg);
    let m = bdd.estimator().n_measurements();
    let finite = FdiAttack {
        vector: vec![0.5; m],
        c: Vec::new(),
    };
    let mut nan = finite.clone();
    nan.vector[m / 2] = f64::NAN;
    assert_eq!(
        detection_probabilities_parallel(&bdd, &[finite.clone(), nan]),
        Err(MtdError::Estimation(
            EstimationError::NonFiniteNoncentrality
        ))
    );
    assert!(detection_probabilities_parallel(&bdd, &[finite]).is_ok());
}
