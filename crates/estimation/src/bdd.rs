//! Bad-data detector (BDD) with χ²-calibrated threshold.
//!
//! The BDD compares the weighted residual statistic
//! `J(z) = ‖z − Hθ̂‖²_W` against a threshold `τ²` chosen so that the
//! false-positive rate under pure Gaussian noise equals a target `α`
//! (the paper uses `α = 5 × 10⁻⁴`). Because `J ~ χ²(M − n)` under H₀,
//! the threshold is the `(1 − α)` χ² quantile — no Monte-Carlo
//! calibration needed.
//!
//! For an FDI attack `a`, `J ~ χ²_nc(M − n, λ)` with noncentrality
//! `λ = J(a)` (Appendix B of the paper), so the detection probability is
//! available in closed form via [`BadDataDetector::detection_probability`].

use gridmtd_stats::chi2::{ChiSquared, NoncentralChiSquared};

use crate::{EstimationError, StateEstimator};

/// Outcome of a single BDD test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BddOutcome {
    /// The residual statistic `J(z)`.
    pub statistic: f64,
    /// The detection threshold `τ²`.
    pub threshold: f64,
    /// Whether the alarm fired (`statistic ≥ threshold`).
    pub alarm: bool,
}

/// χ² bad-data detector bound to a [`StateEstimator`].
///
/// # Example
///
/// ```
/// use gridmtd_estimation::{BadDataDetector, NoiseModel, StateEstimator};
/// use gridmtd_powergrid::cases;
///
/// # fn main() -> Result<(), gridmtd_estimation::EstimationError> {
/// let net = cases::case14();
/// let h = net.measurement_matrix(&net.nominal_reactances()).unwrap();
/// let est = StateEstimator::new(h, &NoiseModel::uniform(54, 1.0))?;
/// let bdd = BadDataDetector::new(est, 5e-4);
/// assert!(bdd.threshold() > bdd.estimator().degrees_of_freedom() as f64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BadDataDetector {
    estimator: StateEstimator,
    alpha: f64,
    threshold: f64,
}

impl BadDataDetector {
    /// Builds the detector with false-positive rate `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1)`.
    pub fn new(estimator: StateEstimator, alpha: f64) -> BadDataDetector {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "alpha must be in (0,1), got {alpha}"
        );
        let dof = estimator.degrees_of_freedom() as f64;
        let threshold = ChiSquared::new(dof).inv_cdf(1.0 - alpha);
        BadDataDetector {
            estimator,
            alpha,
            threshold,
        }
    }

    /// The wrapped estimator.
    pub fn estimator(&self) -> &StateEstimator {
        &self.estimator
    }

    /// Configured false-positive rate `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Detection threshold `τ²` on the weighted residual statistic.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Runs the detector on a measurement vector.
    ///
    /// # Errors
    ///
    /// See [`StateEstimator::residual_statistic`].
    pub fn test(&self, z: &[f64]) -> Result<BddOutcome, EstimationError> {
        let statistic = self.estimator.residual_statistic(z)?;
        Ok(BddOutcome {
            statistic,
            threshold: self.threshold,
            alarm: statistic >= self.threshold,
        })
    }

    /// Residual noncentrality `λ(a) = ‖a − Hθ̂(a)‖²_W` contributed by an
    /// attack vector `a` — the key quantity of Appendix B: `λ = 0` iff the
    /// attack is stealthy against this detector's `H`.
    ///
    /// # Errors
    ///
    /// See [`StateEstimator::residual_statistic`].
    pub fn attack_noncentrality(&self, a: &[f64]) -> Result<f64, EstimationError> {
        self.estimator.residual_statistic(a)
    }

    /// Closed-form detection probability `P(J ≥ τ²)` for additive attack
    /// `a` on top of nominal Gaussian noise.
    ///
    /// # Errors
    ///
    /// * [`EstimationError::NonFiniteNoncentrality`] if `a` yields a NaN
    ///   or infinite `λ`;
    /// * otherwise see [`StateEstimator::residual_statistic`].
    pub fn detection_probability(&self, a: &[f64]) -> Result<f64, EstimationError> {
        self.probability_at(self.attack_noncentrality(a)?)
    }

    /// Closed-form detection probabilities for a batch of attack
    /// vectors, solved through one multi-RHS triangular-solve pass
    /// ([`StateEstimator::residual_statistics`]).
    ///
    /// Per-attack arithmetic is identical to
    /// [`BadDataDetector::detection_probability`], so results are
    /// bit-identical for any batching of the same attacks.
    ///
    /// # Errors
    ///
    /// See [`BadDataDetector::detection_probability`].
    pub fn detection_probabilities(&self, attacks: &[&[f64]]) -> Result<Vec<f64>, EstimationError> {
        self.estimator
            .residual_statistics(attacks)?
            .into_iter()
            .map(|lambda| self.probability_at(lambda))
            .collect()
    }

    /// `P(J ≥ τ²)` for `J ~ χ²_nc(M − n, λ)`: the detection probability
    /// of any attack whose noncentrality under this detector is `lambda`,
    /// however that `λ` was computed.
    ///
    /// # Errors
    ///
    /// * [`EstimationError::NonFiniteNoncentrality`] for a NaN or
    ///   infinite `lambda`;
    /// * [`EstimationError::NegativeNoncentrality`] for `lambda < 0`.
    pub fn probability_at(&self, lambda: f64) -> Result<f64, EstimationError> {
        if !lambda.is_finite() {
            return Err(EstimationError::NonFiniteNoncentrality);
        }
        if lambda < 0.0 {
            return Err(EstimationError::NegativeNoncentrality);
        }
        let dof = self.estimator.degrees_of_freedom() as f64;
        Ok(NoncentralChiSquared::new(dof, lambda).sf(self.threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseModel;
    use gridmtd_powergrid::{cases, dcpf};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn detector(alpha: f64) -> (BadDataDetector, Vec<f64>) {
        let net = cases::case14();
        let x = net.nominal_reactances();
        let h = net.measurement_matrix(&x).unwrap();
        let noise = NoiseModel::uniform(h.rows(), 1.0);
        let est = StateEstimator::new(h, &noise).unwrap();
        let pf = dcpf::solve_dispatch(&net, &x, &[150.0, 40.0, 20.0, 30.0, 19.0]).unwrap();
        (BadDataDetector::new(est, alpha), pf.measurement_vector())
    }

    #[test]
    fn false_positive_rate_is_calibrated() {
        // Use a loose alpha so the MC confidence interval is tight.
        let (bdd, z) = detector(0.05);
        let noise = NoiseModel::uniform(z.len(), 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let trials = 20_000;
        let mut alarms = 0;
        for _ in 0..trials {
            let zn = noise.corrupt(&z, &mut rng);
            if bdd.test(&zn).unwrap().alarm {
                alarms += 1;
            }
        }
        let fp = alarms as f64 / trials as f64;
        assert!((fp - 0.05).abs() < 0.01, "fp = {fp}");
    }

    #[test]
    fn stealthy_attack_has_zero_noncentrality() {
        // a = Hc lies in Col(H): undetectable by construction (paper
        // Section III, "undetectable attacks").
        let (bdd, _) = detector(5e-4);
        let net = cases::case14();
        let h = net.measurement_matrix(&net.nominal_reactances()).unwrap();
        let c: Vec<f64> = (0..h.cols()).map(|i| 0.01 * (i as f64 + 1.0)).collect();
        let a = h.matvec(&c).unwrap();
        let lambda = bdd.attack_noncentrality(&a).unwrap();
        assert!(lambda < 1e-9, "λ = {lambda}");
        // Detection probability equals the FP rate.
        let pd = bdd.detection_probability(&a).unwrap();
        assert!((pd - bdd.alpha()).abs() < 1e-6);
    }

    #[test]
    fn random_attack_is_detected() {
        let (bdd, _) = detector(5e-4);
        let m = bdd.estimator().n_measurements();
        // An arbitrary (non-subspace) attack with decent magnitude.
        let a: Vec<f64> = (0..m).map(|i| if i % 7 == 0 { 8.0 } else { 0.0 }).collect();
        let pd = bdd.detection_probability(&a).unwrap();
        assert!(pd > 0.99, "pd = {pd}");
    }

    #[test]
    fn analytic_pd_matches_monte_carlo() {
        let (bdd, z) = detector(0.01);
        let m = bdd.estimator().n_measurements();
        let a: Vec<f64> = (0..m)
            .map(|i| if i % 5 == 0 { 2.5 } else { -0.5 })
            .collect();
        let analytic = bdd.detection_probability(&a).unwrap();
        let noise = NoiseModel::uniform(m, 1.0);
        let mut rng = StdRng::seed_from_u64(33);
        let trials = 4000;
        let mut alarms = 0;
        for _ in 0..trials {
            let mut zn = noise.corrupt(&z, &mut rng);
            for (zi, ai) in zn.iter_mut().zip(a.iter()) {
                *zi += ai;
            }
            if bdd.test(&zn).unwrap().alarm {
                alarms += 1;
            }
        }
        let mc = alarms as f64 / trials as f64;
        assert!(
            (mc - analytic).abs() < 0.03,
            "MC {mc} vs analytic {analytic}"
        );
    }

    #[test]
    fn non_finite_attack_is_an_error_not_a_panic() {
        let (bdd, _) = detector(5e-4);
        let m = bdd.estimator().n_measurements();
        let good = vec![1.0; m];
        let mut bad = good.clone();
        bad[3] = f64::NAN;
        let mut huge = good.clone();
        huge[0] = f64::INFINITY;
        for a in [&bad, &huge] {
            assert_eq!(
                bdd.detection_probability(a),
                Err(EstimationError::NonFiniteNoncentrality)
            );
        }
        assert_eq!(
            bdd.detection_probabilities(&[&good, &bad]),
            Err(EstimationError::NonFiniteNoncentrality)
        );
        assert!(bdd.detection_probabilities(&[&good]).is_ok());
    }

    #[test]
    fn negative_noncentrality_is_an_error_not_a_panic() {
        // A λ assembled as a difference of quadratic forms can round
        // below zero; `NoncentralChiSquared::new` would panic on it.
        let (bdd, _) = detector(5e-4);
        for lambda in [-2.1e-13, -1.0, f64::NEG_INFINITY] {
            assert!(bdd.probability_at(lambda).is_err(), "λ = {lambda}");
        }
        assert_eq!(
            bdd.probability_at(-2.1e-13),
            Err(EstimationError::NegativeNoncentrality)
        );
        let dof = bdd.estimator().degrees_of_freedom() as f64;
        let central = ChiSquared::new(dof).sf(bdd.threshold());
        assert_eq!(bdd.probability_at(-0.0), Ok(central));
        assert_eq!(bdd.probability_at(0.0), Ok(central));
    }

    #[test]
    fn tighter_alpha_means_higher_threshold() {
        let (loose, _) = detector(0.05);
        let (tight, _) = detector(5e-4);
        assert!(tight.threshold() > loose.threshold());
    }

    #[test]
    fn outcome_reports_statistic_and_threshold() {
        let (bdd, z) = detector(0.05);
        let out = bdd.test(&z).unwrap();
        assert!(out.statistic < 1e-9); // noiseless
        assert!(!out.alarm);
        assert_eq!(out.threshold, bdd.threshold());
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn invalid_alpha_panics() {
        let (bdd, _) = detector(0.05);
        let est = bdd.estimator().clone();
        BadDataDetector::new(est, 1.5);
    }
}
