//! The MTD effectiveness metric `η'(δ)` of Section V-A.
//!
//! `η'(δ)` is the fraction of stealthy attacks crafted against the
//! pre-perturbation matrix `H` whose detection probability under the
//! post-perturbation BDD exceeds `δ`. The paper estimates it by
//! Monte-Carlo over 1000 random attacks `a = Hc` (Gaussian `c`, scaled to
//! `‖a‖₁/‖z‖₁ ≈ 0.08`) × 1000 noise draws; here each attack's detection
//! probability is computed in closed form (noncentral χ², Appendix B),
//! with a Monte-Carlo cross-check ([`monte_carlo_detection`]) that the
//! tests hold it to. Scoring runs through [`crate::MtdSession::evaluate`].
//!
//! # The noncentrality of a session's ensemble
//!
//! An attack's noncentrality is its weighted WLS residual under the
//! post-MTD detector, `λ = ‖W^½ S′a‖²` with `S′ = I − H′G′⁻¹H′ᵀW`.
//! `S′` annihilates `H′ = H(x_post)`, and `H′ − H(x_pre) = M_C·Δ·A_C`
//! moves only on the lines `C` whose susceptance `x_post` changes
//! (`Δ = diag(b′ − b)` on them; branch stamps as in [`crate::spa`]). So
//! every attack `a = H(x_pre)c` of the session's ensemble has
//!
//! ```text
//! λ = ‖W^½ S′ M_C·u‖²,   u = Δ·A_C·c   (u_l = Δ_l (c_from − c_to)),
//! ```
//!
//! which is seen only through the `|C|`-dimensional image of the
//! perturbation (Zhang et al., arXiv 1912.11372). Per `x_post` the
//! scorer (`EnsembleNoncentrality`) applies `W^½S′` to the `|C|`
//! stamp columns with one multi-RHS solve through the detector's gain
//! factor and QR-factors the result to a `|C| × |C|` triangle `T`; per
//! attack, `λ = ‖T·u‖²`: a sum of squares, never a difference of
//! quadratic forms, so it cannot round below zero. With no changed line
//! `λ = 0` exactly, with no factorization. When `|C| ≥ n` the range is
//! no smaller than the state space and has nothing to save: a factor of
//! `W^½S′H(x_pre)` (`n` columns) cost more than scoring every attack by
//! its residual (case300, every branch changed, 1000 attacks: 96 ms
//! against 59 ms), so the scorer reads `λ` off the residual of the
//! attack vector there. The changed lines and this `|C| ≥ n` rule are
//! the γ kernel's (`spa::ChangedLines`), so an evaluation's angles and
//! its noncentralities leave the low-rank range at the same step.
//!
//! That residual path ([`detection_probabilities_parallel`]) is the
//! detector's definition of `λ` for any attack vector, learning probes
//! included, and the oracle the tests hold the scorer to (1e-12 in
//! `crates/core/tests/detection_agreement.rs`).
//!
//! The per-attack scoring and the Monte-Carlo cross-check fan out
//! across scoped worker threads ([`gridmtd_opf::parallel`]); the
//! Monte-Carlo draws each trial's noise from a stream seeded by the
//! trial index, so parallel results are bit-identical to serial.

use gridmtd_attack::{AttackerKnowledge, FdiAttack};
use gridmtd_estimation::{
    BadDataDetector, EstimationError, EstimatorContext, NoiseModel, StateEstimator,
};
use gridmtd_linalg::{Matrix, Qr};
use gridmtd_powergrid::{dcpf, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spa::{ChangedLines, LineStep};
use crate::{MtdConfig, MtdError};

/// Result of evaluating one MTD perturbation against an attack ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct MtdEvaluation {
    /// Operational subspace angle `γ(H, H')` (largest principal angle).
    pub gamma: f64,
    /// Literal smallest principal angle (≈0 for partial-line MTD).
    pub smallest_angle: f64,
    /// Per-attack analytic detection probabilities.
    pub detection_probs: Vec<f64>,
}

impl MtdEvaluation {
    /// The effectiveness `η'(δ)`: fraction of attacks with detection
    /// probability at least `δ`.
    pub fn effectiveness(&self, delta: f64) -> f64 {
        if self.detection_probs.is_empty() {
            return 0.0;
        }
        let hits = self.detection_probs.iter().filter(|&&p| p >= delta).count();
        hits as f64 / self.detection_probs.len() as f64
    }

    /// Mean detection probability over the ensemble.
    pub fn mean_detection(&self) -> f64 {
        gridmtd_stats::empirical::mean(&self.detection_probs)
    }
}

/// Index of the attack whose detection probability is closest to 0.5 —
/// the most informative attack for Monte-Carlo cross-checks (at the
/// midpoint the analytic-vs-sampled comparison has maximal variance to
/// detect).
///
/// Ranking uses [`f64::total_cmp`], and a NaN probability is surfaced as
/// [`MtdError::NanDetectionProbability`] instead of panicking the whole
/// evaluation.
///
/// # Errors
///
/// * [`MtdError::NanDetectionProbability`] if any probability is NaN.
///
/// # Panics
///
/// Panics if `detection_probs` is empty.
pub fn midpoint_attack_index(detection_probs: &[f64]) -> Result<usize, MtdError> {
    assert!(
        !detection_probs.is_empty(),
        "need at least one detection probability"
    );
    if let Some(index) = detection_probs.iter().position(|p| p.is_nan()) {
        return Err(MtdError::NanDetectionProbability { index });
    }
    Ok(detection_probs
        .iter()
        .enumerate()
        .min_by(|a, b| (a.1 - 0.5).abs().total_cmp(&(b.1 - 0.5).abs()))
        .map(|(i, _)| i)
        .expect("non-empty slice"))
}

/// Builds the bad-data detector a grid operator would run on the
/// post-MTD matrix `h_post`, through a reusable [`EstimatorContext`]:
/// on the sparse estimator backend the gain matrix's symbolic
/// factorization is shared across every detector built for the same
/// topology (the pattern of `HᵀWH` never changes under reactance
/// perturbations), so only the numeric phase runs per candidate.
/// Bit-identical to a fresh context.
pub(crate) fn detector_from_h_ctx(
    h_post: Matrix,
    cfg: &MtdConfig,
    est_ctx: &mut EstimatorContext,
) -> Result<BadDataDetector, MtdError> {
    let noise = NoiseModel::uniform(h_post.rows(), cfg.noise_sigma_mw);
    let est = StateEstimator::with_context(h_post, &noise, est_ctx)?;
    Ok(BadDataDetector::new(est, cfg.alpha))
}

/// Builds the paper's attack ensemble: the attacker knows the
/// pre-perturbation `H(x_pre)` (passed in, so a caller holding the
/// matrix never rebuilds it) and scales attacks against the
/// measurements it eavesdropped at the pre-perturbation operating point
/// (dispatch `dispatch_pre`).
///
/// # Errors
///
/// Propagates model-construction failures.
pub fn build_attack_set_with_h(
    net: &Network,
    h_pre: &Matrix,
    x_pre: &[f64],
    dispatch_pre: &[f64],
    cfg: &MtdConfig,
) -> Result<Vec<FdiAttack>, MtdError> {
    build_attack_set_impl(
        net,
        h_pre,
        x_pre,
        dispatch_pre,
        cfg,
        &dcpf::PfContext::new(),
    )
}

/// [`build_attack_set_with_h`] seeded with a power-flow context
/// prototype for the eavesdropped-measurement solve (the session's
/// shared symbolic factorization; a clone of an unprimed prototype is a
/// fresh context, and primed solves are pinned bit-identical to cold).
pub(crate) fn build_attack_set_impl(
    net: &Network,
    h_pre: &Matrix,
    x_pre: &[f64],
    dispatch_pre: &[f64],
    cfg: &MtdConfig,
    pf_proto: &dcpf::PfContext,
) -> Result<Vec<FdiAttack>, MtdError> {
    let pf = dcpf::solve_dispatch_with(net, x_pre, dispatch_pre, &mut pf_proto.clone())?;
    let z_pre = pf.measurement_vector();
    let attacker = AttackerKnowledge::learned(h_pre.clone(), 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    Ok(attacker.craft_random_set(&z_pre, cfg.attack_ratio, cfg.n_attacks, &mut rng)?)
}

/// Attacks per scoring chunk: small enough that every worker gets work
/// on paper-scale ensembles, large enough to amortize a chunk's
/// dispatch (and, on the residual path, its triangular-solve pass).
/// Fixed (not thread-count-derived) so the chunk boundaries never depend
/// on the machine; per-attack arithmetic does not depend on them either.
const DETECTION_BATCH: usize = 32;

/// Scores every attack in the ensemble against the detector by its WLS
/// residual: attacks are chunked into fixed-size batches, each batch
/// fans out across the worker threads and is scored through one
/// multi-RHS triangular-solve pass. Per-attack arithmetic is
/// independent of the batching, so the result is bit-identical to the
/// serial per-attack loop.
///
/// This is the detector's definition of `λ`, for any attack vector. The
/// session scores its own ensembles through `EnsembleNoncentrality`
/// instead, and the tests hold the two together.
///
/// # Errors
///
/// Propagates estimator failures, among them
/// [`gridmtd_estimation::EstimationError::NonFiniteNoncentrality`] for
/// an attack vector with a NaN or infinite entry.
pub fn detection_probabilities_parallel(
    bdd: &BadDataDetector,
    attacks: &[FdiAttack],
) -> Result<Vec<f64>, MtdError> {
    in_chunks(attacks, |batch| {
        gridmtd_attack::detection_probabilities(bdd, batch)
    })
}

/// Runs `score` on fixed-size chunks of `attacks` across the worker
/// threads and concatenates the chunks' results in order.
fn in_chunks(
    attacks: &[FdiAttack],
    score: impl Fn(&[FdiAttack]) -> Result<Vec<f64>, EstimationError> + Sync,
) -> Result<Vec<f64>, MtdError> {
    let batches: Vec<&[FdiAttack]> = attacks.chunks(DETECTION_BATCH).collect();
    let scored = gridmtd_opf::parallel::par_map(&batches, |_, batch| score(batch));
    let mut out = Vec::with_capacity(attacks.len());
    for batch in scored {
        out.extend(batch?);
    }
    Ok(out)
}

/// The noncentralities of attacks `a = H(x_pre)c` under the detector of
/// one `x_post` (see the module docs).
///
/// Exact only for attacks crafted against `H(x_pre)` with the `c` they
/// carry, which is why it is crate-private: the session builds it for
/// the ensembles it crafted itself.
#[derive(Debug, Clone)]
pub(crate) enum EnsembleNoncentrality {
    /// `λ(c) = ‖T·u(c)‖²` on the range of the `|C| < n` changed lines.
    LowRank {
        /// `T`, the `|C| × |C|` QR triangle of `W^½S′M_C`.
        t: Matrix,
        /// One step per changed line, gathering `u` from `c`.
        steps: Vec<LineStep>,
        /// State dimension `n`, the length of every `c`.
        n_states: usize,
    },
    /// `|C| ≥ n`: the range is no smaller than the state space, so `λ`
    /// is the WLS residual of the attack vector itself.
    Residual,
}

impl EnsembleNoncentrality {
    /// Factors the perturbation `x_pre → x_post` against `est`, the
    /// post-MTD estimator of `x_post`. No changed line gives an empty
    /// triangle, and `λ = 0` exactly with no factorization.
    ///
    /// # Errors
    ///
    /// Invalid reactances, and the estimator's and the QR's failures.
    pub(crate) fn new(
        net: &Network,
        x_pre: &[f64],
        x_post: &[f64],
        est: &StateEstimator,
    ) -> Result<EnsembleNoncentrality, MtdError> {
        let changed = ChangedLines::between(net, x_pre, x_post)?;
        if !changed.is_low_rank() {
            return Ok(EnsembleNoncentrality::Residual);
        }
        let steps = changed.into_steps();
        let t = if steps.is_empty() {
            Matrix::zeros(0, 0)
        } else {
            let mut m_c = Matrix::zeros(net.n_measurements(), steps.len());
            for (j, step) in steps.iter().enumerate() {
                for (row, sign) in net.branch_measurement_rows(step.line()) {
                    m_c[(row, j)] += sign;
                }
            }
            Qr::factor(&est.weighted_residual_block(m_c)?)?.r()
        };
        Ok(EnsembleNoncentrality::LowRank {
            t,
            steps,
            n_states: net.n_states(),
        })
    }

    /// Detection probabilities of `attacks` under `bdd` (the detector
    /// the scorer was factored against), serially on the calling thread.
    ///
    /// # Errors
    ///
    /// A `c` of the wrong length, and
    /// [`EstimationError::NonFiniteNoncentrality`] for a non-finite one.
    pub(crate) fn probabilities(
        &self,
        bdd: &BadDataDetector,
        attacks: &[FdiAttack],
    ) -> Result<Vec<f64>, EstimationError> {
        let (t, steps, n_states) = match self {
            EnsembleNoncentrality::LowRank { t, steps, n_states } => (t, steps, *n_states),
            EnsembleNoncentrality::Residual => {
                return gridmtd_attack::detection_probabilities(bdd, attacks)
            }
        };
        let mut u = vec![0.0; steps.len()];
        attacks
            .iter()
            .map(|a| {
                let c = &a.c;
                if c.len() != n_states {
                    return Err(EstimationError::DimensionMismatch {
                        expected: n_states,
                        actual: c.len(),
                    });
                }
                for (ui, s) in u.iter_mut().zip(steps) {
                    *ui = s.apply(c);
                }
                // ‖T·u‖² over the upper triangle's rows.
                let lambda = (0..u.len())
                    .map(|i| {
                        let ti: f64 = t.row(i)[i..].iter().zip(&u[i..]).map(|(a, b)| a * b).sum();
                        ti * ti
                    })
                    .sum();
                bdd.probability_at(lambda)
            })
            .collect()
    }

    /// [`EnsembleNoncentrality::probabilities`] in fixed-size chunks
    /// fanned out across the worker threads; bit-identical to the
    /// serial form.
    ///
    /// # Errors
    ///
    /// As [`EnsembleNoncentrality::probabilities`].
    pub(crate) fn probabilities_parallel(
        &self,
        bdd: &BadDataDetector,
        attacks: &[FdiAttack],
    ) -> Result<Vec<f64>, MtdError> {
        in_chunks(attacks, |batch| self.probabilities(bdd, batch))
    }
}

/// Monte-Carlo cross-check of the analytic detection probability for one
/// attack (the paper's 1000-noise-draw procedure): the test reference
/// that validates the closed form.
///
/// Trials fan out across worker threads; trial `t` draws its noise from
/// a dedicated stream derived by [`crate::seedstream::mix`]`(base, t)`,
/// so the alarm count (and hence the returned probability) is identical
/// for any worker count and independent across nearby seeds and trials.
///
/// # Errors
///
/// Propagates model failures.
pub fn monte_carlo_detection(
    net: &Network,
    x_post: &[f64],
    dispatch_post: &[f64],
    attack: &FdiAttack,
    trials: usize,
    cfg: &MtdConfig,
) -> Result<f64, MtdError> {
    let bdd = detector_from_h_ctx(
        net.measurement_matrix(x_post)?,
        cfg,
        &mut EstimatorContext::new(),
    )?;
    let pf = dcpf::solve_dispatch(net, x_post, dispatch_post)?;
    let z_true = pf.measurement_vector();
    let noise = NoiseModel::uniform(z_true.len(), cfg.noise_sigma_mw);
    let base = crate::seedstream::domain(cfg.seed, 0x5eed);
    let trial_ids: Vec<u64> = (0..trials as u64).collect();
    let alarms = gridmtd_opf::parallel::par_map(&trial_ids, |_, &t| {
        let mut rng = StdRng::seed_from_u64(crate::seedstream::mix(base, t));
        gridmtd_attack::detection::monte_carlo_trial(&bdd, &z_true, attack, &noise, &mut rng)
            .map(usize::from)
    })
    .into_iter()
    .sum::<Result<usize, _>>()?;
    Ok(alarms as f64 / trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MtdSession;
    use gridmtd_powergrid::cases;

    fn session(net: &Network, cfg: &MtdConfig) -> MtdSession {
        MtdSession::builder(net.clone())
            .config(cfg.clone())
            .build()
            .unwrap()
    }

    /// A sign-mixed `±eta` perturbation of the nominal reactances.
    fn mixed_perturbation(net: &Network, eta: f64) -> Vec<f64> {
        let mut x_post = net.nominal_reactances();
        for (k, l) in net.dfacts_branches().into_iter().enumerate() {
            x_post[l] *= if k % 2 == 0 { 1.0 + eta } else { 1.0 - eta };
        }
        x_post
    }

    #[test]
    fn identity_perturbation_has_alpha_level_detection() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x = net.nominal_reactances();
        let eval = session(&net, &cfg).evaluate(&x).unwrap();
        assert!(eval.gamma < 1e-6);
        // Every attack stays stealthy: PD = alpha.
        for &pd in &eval.detection_probs {
            assert!((pd - cfg.alpha).abs() < 1e-6);
        }
        assert_eq!(eval.effectiveness(0.5), 0.0);
    }

    #[test]
    fn effectiveness_increases_with_gamma() {
        let net = cases::case14();
        // σ chosen so the strongest fixed perturbation detects most
        // attacks (the paper-scale calibration lives in the checked-in
        // scenarios).
        let cfg = MtdConfig {
            noise_sigma_mw: 0.15,
            ..MtdConfig::fast_test()
        };
        let s = session(&net, &cfg);
        let mut prev_eta = -1.0;
        let mut prev_gamma = -1.0;
        for eta in [0.15, 0.3, 0.5] {
            let x_post = mixed_perturbation(&net, eta);
            let eval = s.evaluate(&x_post).unwrap();
            assert!(eval.gamma > prev_gamma);
            let e = eval.effectiveness(0.5);
            assert!(
                e >= prev_eta - 0.05,
                "effectiveness should broadly increase: {e} after {prev_eta}"
            );
            prev_eta = e;
            prev_gamma = eval.gamma;
        }
        assert!(
            prev_eta > 0.3,
            "strong MTD should catch attacks: {prev_eta}"
        );
    }

    #[test]
    fn effectiveness_is_monotone_in_delta() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x_post = mixed_perturbation(&net, 0.4);
        let eval = session(&net, &cfg).evaluate(&x_post).unwrap();
        let mut prev = 1.0;
        for delta in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let e = eval.effectiveness(delta);
            assert!(e <= prev + 1e-12, "η must fall as δ rises");
            prev = e;
        }
    }

    #[test]
    fn analytic_matches_monte_carlo_on_one_attack() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x_post = mixed_perturbation(&net, 0.35);
        let s = session(&net, &cfg);
        let attacks = s.attacks().unwrap();
        // pick an attack with mid-range PD so the comparison is informative
        let probs = s.detection_probabilities(&x_post).unwrap();
        let idx = midpoint_attack_index(&probs).unwrap();
        let opf_post = gridmtd_opf::solve_opf(&net, &x_post, &cfg.opf_options()).unwrap();
        let mc =
            monte_carlo_detection(&net, &x_post, &opf_post.dispatch, &attacks[idx], 2500, &cfg)
                .unwrap();
        assert!(
            (mc - probs[idx]).abs() < 0.05,
            "MC {mc} vs analytic {}",
            probs[idx]
        );
    }

    #[test]
    fn attack_set_is_deterministic_per_seed() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let a = session(&net, &cfg).attacks().unwrap().to_vec();
        let b = session(&net, &cfg).attacks().unwrap().to_vec();
        assert_eq!(a, b);
        let cfg2 = MtdConfig {
            seed: 99,
            ..MtdConfig::fast_test()
        };
        let c = session(&net, &cfg2).attacks().unwrap().to_vec();
        assert_ne!(a, c);
    }

    #[test]
    fn midpoint_attack_index_picks_closest_to_half() {
        assert_eq!(midpoint_attack_index(&[0.1, 0.48, 0.9, 0.52]).unwrap(), 1);
        assert_eq!(midpoint_attack_index(&[0.99]).unwrap(), 0);
    }

    #[test]
    fn midpoint_attack_index_surfaces_nan_as_error() {
        // Regression: a NaN probability used to panic the whole
        // evaluation through `partial_cmp(..).unwrap()`.
        let err = midpoint_attack_index(&[0.3, f64::NAN, 0.6]).unwrap_err();
        assert_eq!(err, crate::MtdError::NanDetectionProbability { index: 1 });
        // Infinities are ranked (total_cmp), not fatal.
        assert_eq!(
            midpoint_attack_index(&[f64::INFINITY, 0.4]).unwrap(),
            1,
            "finite value is closer to 0.5 than +inf"
        );
    }

    #[test]
    fn monte_carlo_is_deterministic_across_thread_counts() {
        // The per-trial seed streams make the estimate independent of
        // the fan-out; exercised here via the env-independent public
        // API (thread count is read from the machine, but the alarm
        // count is a pure function of the trial seeds).
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x_post = mixed_perturbation(&net, 0.35);
        let s = session(&net, &cfg);
        let attacks = s.attacks().unwrap();
        let opf_post = gridmtd_opf::solve_opf(&net, &x_post, &cfg.opf_options()).unwrap();
        let a = monte_carlo_detection(&net, &x_post, &opf_post.dispatch, &attacks[0], 400, &cfg)
            .unwrap();
        let b = monte_carlo_detection(&net, &x_post, &opf_post.dispatch, &attacks[0], 400, &cfg)
            .unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn the_scorer_factors_ranges_smaller_than_the_state_space() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x_pre = net.nominal_reactances();
        let scorer = |x_post: &[f64]| {
            let h = net.measurement_matrix(x_post).unwrap();
            let bdd = detector_from_h_ctx(h, &cfg, &mut EstimatorContext::new()).unwrap();
            let s = EnsembleNoncentrality::new(&net, &x_pre, x_post, bdd.estimator()).unwrap();
            (s, bdd)
        };
        let dfacts = mixed_perturbation(&net, 0.3);
        match scorer(&dfacts).0 {
            EnsembleNoncentrality::LowRank { t, steps, .. } => {
                assert_eq!(steps.len(), net.dfacts_branches().len());
                assert_eq!(t.shape(), (steps.len(), steps.len()));
            }
            EnsembleNoncentrality::Residual => panic!("6 changed lines < 13 states"),
        }
        let all: Vec<f64> = x_pre.iter().map(|x| x * 1.1).collect();
        assert!(matches!(scorer(&all).0, EnsembleNoncentrality::Residual));
        // A `c` of the wrong length is a typed error, not a panic.
        let (s, bdd) = scorer(&dfacts);
        let short = FdiAttack {
            vector: vec![0.0; net.n_measurements()],
            c: vec![0.0; 3],
        };
        assert!(matches!(
            s.probabilities(&bdd, &[short]),
            Err(EstimationError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_evaluation_effectiveness_is_zero() {
        let eval = MtdEvaluation {
            gamma: 0.2,
            smallest_angle: 0.0,
            detection_probs: vec![],
        };
        assert_eq!(eval.effectiveness(0.5), 0.0);
        assert_eq!(eval.mean_detection(), 0.0);
    }
}
