//! Attack-detection evaluation: analytic and Monte-Carlo.
//!
//! The paper evaluates each attack's detection probability by generating
//! 1000 noise instantiations and counting BDD alarms. Thanks to the
//! noncentral-χ² characterization (Appendix B) the same quantity is
//! available in closed form; this module provides both, and the test
//! suite verifies they agree — the closed form is what the fast
//! effectiveness sweeps in `gridmtd-core` use.

use gridmtd_estimation::{BadDataDetector, EstimationError, NoiseModel};
use rand::Rng;

use crate::FdiAttack;

/// Analytic detection probability of each attack in `attacks` under the
/// given detector (post-MTD `H'`), per Appendix B of the paper.
///
/// The whole ensemble is scored through one multi-RHS triangular-solve
/// pass ([`BadDataDetector::detection_probabilities`]); per-attack
/// results are bit-identical to scoring each attack alone.
///
/// # Errors
///
/// Propagates estimator failures (wrong dimensions).
pub fn detection_probabilities(
    bdd: &BadDataDetector,
    attacks: &[FdiAttack],
) -> Result<Vec<f64>, EstimationError> {
    let vectors: Vec<&[f64]> = attacks.iter().map(|a| a.vector.as_slice()).collect();
    bdd.detection_probabilities(&vectors)
}

/// One Monte-Carlo detection trial: corrupts `z_true` with a noise draw
/// from `rng`, injects the attack and runs the BDD. The single source of
/// the trial kernel — both the serial estimator below and the
/// per-trial-seeded parallel estimator in `gridmtd-core` call this.
///
/// # Errors
///
/// Propagates estimator failures.
pub fn monte_carlo_trial<R: Rng + ?Sized>(
    bdd: &BadDataDetector,
    z_true: &[f64],
    attack: &FdiAttack,
    noise: &NoiseModel,
    rng: &mut R,
) -> Result<bool, EstimationError> {
    let mut z = noise.corrupt(z_true, rng);
    for (zi, ai) in z.iter_mut().zip(attack.vector.iter()) {
        *zi += ai;
    }
    Ok(bdd.test(&z)?.alarm)
}

/// Monte-Carlo estimate of the detection probability of a single attack:
/// draws `trials` noise vectors, applies `z_true + noise + a` and counts
/// alarms.
///
/// # Errors
///
/// Propagates estimator failures.
pub fn monte_carlo_detection_probability<R: Rng + ?Sized>(
    bdd: &BadDataDetector,
    z_true: &[f64],
    attack: &FdiAttack,
    noise: &NoiseModel,
    trials: usize,
    rng: &mut R,
) -> Result<f64, EstimationError> {
    let mut alarms = 0usize;
    for _ in 0..trials {
        if monte_carlo_trial(bdd, z_true, attack, noise, rng)? {
            alarms += 1;
        }
    }
    Ok(alarms as f64 / trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmtd_estimation::StateEstimator;
    use gridmtd_powergrid::{cases, dcpf};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Build pre- and post-perturbation H, post-perturbation BDD and
    /// the post-perturbation operating point's measurements.
    ///
    /// The MTD alternates ±45% across the six D-FACTS lines: sign-mixed
    /// perturbations rotate the column space far more than uniform
    /// scaling, which leaves Col(H) almost unchanged. Noise is σ = 0.1 MW
    /// so this fixed (non-optimized) perturbation detects strongly;
    /// the paper-scale experiments in `gridmtd-core` calibrate σ against
    /// the optimized perturbations of problem (4).
    fn mtd_scenario() -> (
        gridmtd_linalg::Matrix,
        gridmtd_linalg::Matrix,
        BadDataDetector,
        Vec<f64>,
        NoiseModel,
    ) {
        let net = cases::case14();
        let x = net.nominal_reactances();
        let h_pre = net.measurement_matrix(&x).unwrap();
        let mut x_post = x.clone();
        for (k, l) in net.dfacts_branches().into_iter().enumerate() {
            x_post[l] *= if k % 2 == 0 { 1.45 } else { 0.55 };
        }
        let h_post = net.measurement_matrix(&x_post).unwrap();
        let noise = NoiseModel::uniform(h_post.rows(), 0.1);
        let est = StateEstimator::new(h_post.clone(), &noise).unwrap();
        let bdd = BadDataDetector::new(est, 5e-4);
        // The attacker injects into the *perturbed* grid: the true
        // measurements come from the post-MTD power flow.
        let pf = dcpf::solve_dispatch(&net, &x_post, &[150.0, 40.0, 20.0, 30.0, 19.0]).unwrap();
        (h_pre, h_post, bdd, pf.measurement_vector(), noise)
    }

    #[test]
    fn stale_attacks_become_detectable_under_mtd() {
        let (h_pre, _, bdd, z, _) = mtd_scenario();
        let mut rng = StdRng::seed_from_u64(17);
        let attacks = crate::random_attack_set(&h_pre, &z, 0.08, 64, &mut rng).unwrap();
        let pds = detection_probabilities(&bdd, &attacks).unwrap();
        // A +30% perturbation of six lines is a strong MTD; a majority of
        // stale attacks should be detectable with high probability.
        let effective = pds.iter().filter(|&&p| p > 0.5).count();
        assert!(
            effective > attacks.len() / 2,
            "only {effective}/{} attacks detectable",
            attacks.len()
        );
    }

    #[test]
    fn fresh_attacks_stay_stealthy() {
        // Attacks crafted against the detector's own H have PD = alpha.
        let (_, h_post, bdd, z, _) = mtd_scenario();
        let mut rng = StdRng::seed_from_u64(19);
        let attacks = crate::random_attack_set(&h_post, &z, 0.08, 16, &mut rng).unwrap();
        for pd in detection_probabilities(&bdd, &attacks).unwrap() {
            assert!((pd - bdd.alpha()).abs() < 1e-6, "pd = {pd}");
        }
    }

    #[test]
    fn analytic_matches_monte_carlo() {
        let (h_pre, _, bdd, z, noise) = mtd_scenario();
        let mut rng = StdRng::seed_from_u64(23);
        let attack = crate::FdiAttack::random_scaled(&h_pre, &z, 0.08, &mut rng).unwrap();
        let analytic = bdd.detection_probability(&attack.vector).unwrap();
        let mc =
            monte_carlo_detection_probability(&bdd, &z, &attack, &noise, 2000, &mut rng).unwrap();
        assert!(
            (analytic - mc).abs() < 0.04,
            "analytic {analytic} vs MC {mc}"
        );
    }
}
