//! The MTD effectiveness metric `η'(δ)` of Section V-A.
//!
//! `η'(δ)` is the fraction of stealthy attacks crafted against the
//! pre-perturbation matrix `H` whose detection probability under the
//! post-perturbation BDD exceeds `δ`. The paper estimates it by
//! Monte-Carlo over 1000 random attacks `a = Hc` (Gaussian `c`, scaled to
//! `‖a‖₁/‖z‖₁ ≈ 0.08`) × 1000 noise draws; here each attack's detection
//! probability is computed in closed form (noncentral χ², Appendix B),
//! with an optional Monte-Carlo cross-check used by the ablation
//! experiments.
//!
//! Both the per-attack analytic scoring and the Monte-Carlo cross-check
//! fan out across scoped worker threads
//! ([`gridmtd_opf::parallel`]); the Monte-Carlo draws each trial's noise
//! from a stream seeded by the trial index, so parallel results are
//! bit-identical to serial.

use gridmtd_attack::{AttackerKnowledge, FdiAttack};
use gridmtd_estimation::{BadDataDetector, EstimatorContext, NoiseModel, StateEstimator};
use gridmtd_linalg::subspace::OrthonormalBasis;
use gridmtd_linalg::Matrix;
use gridmtd_powergrid::{dcpf, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// Builds the detector a grid operator would run after switching to the
/// post-MTD reactances `x_post`.
///
/// # Errors
///
/// Propagates model-construction failures.
pub fn post_mtd_detector(
    net: &Network,
    x_post: &[f64],
    cfg: &MtdConfig,
) -> Result<BadDataDetector, MtdError> {
    detector_from_h(net.measurement_matrix(x_post)?, cfg)
}

/// Builds the post-MTD detector from an already-constructed measurement
/// matrix (the hoisted path for loops that hold `H'` anyway).
///
/// # Errors
///
/// Propagates model-construction failures.
pub fn detector_from_h(h_post: Matrix, cfg: &MtdConfig) -> Result<BadDataDetector, MtdError> {
    detector_from_h_ctx(h_post, cfg, &mut EstimatorContext::new())
}

/// [`detector_from_h`] with a reusable [`EstimatorContext`]: on the
/// sparse estimator backend the gain matrix's symbolic factorization is
/// shared across every detector built for the same topology (the
/// pattern of `HᵀWH` never changes under reactance perturbations), so
/// only the numeric phase runs per candidate. Bit-identical to the
/// fresh-context path.
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
/// pre-perturbation `H(x_pre)` and scales attacks against the
/// measurements it eavesdropped at the pre-perturbation operating point
/// (dispatch `dispatch_pre`).
///
/// # Errors
///
/// Propagates model-construction failures.
pub fn build_attack_set(
    net: &Network,
    x_pre: &[f64],
    dispatch_pre: &[f64],
    cfg: &MtdConfig,
) -> Result<Vec<FdiAttack>, MtdError> {
    let h_pre = net.measurement_matrix(x_pre)?;
    build_attack_set_with_h(net, &h_pre, x_pre, dispatch_pre, cfg)
}

/// [`build_attack_set`] with a precomputed `H(x_pre)` — the timeline
/// loop already holds the stale matrix and must not rebuild it each
/// hour.
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

/// Attacks per multi-RHS scoring batch: small enough that every worker
/// gets work on paper-scale ensembles, large enough to amortize the
/// triangular-solve pass. Fixed (not thread-count-derived) so the batch
/// boundaries — and therefore the bits — never depend on the machine.
const DETECTION_BATCH: usize = 32;

/// Scores every attack in the ensemble against the detector: attacks
/// are chunked into fixed-size batches, each batch fans out across the
/// worker threads and is scored through one multi-RHS triangular-solve
/// pass. Per-attack arithmetic is independent of the batching, so the
/// result is bit-identical to the serial per-attack loop.
pub fn detection_probabilities_parallel(
    bdd: &BadDataDetector,
    attacks: &[FdiAttack],
) -> Result<Vec<f64>, MtdError> {
    let batches: Vec<&[FdiAttack]> = attacks.chunks(DETECTION_BATCH).collect();
    let scored = gridmtd_opf::parallel::par_map(&batches, |_, batch| {
        gridmtd_attack::detection_probabilities(bdd, batch)
    });
    let mut out = Vec::with_capacity(attacks.len());
    for batch in scored {
        out.extend(batch?);
    }
    Ok(out)
}

/// Evaluates an MTD perturbation `x_pre → x_post` against a prebuilt
/// attack ensemble (fast path for threshold sweeps that reuse the
/// ensemble).
///
/// # Errors
///
/// Propagates model-construction failures.
pub fn evaluate_with_attacks(
    net: &Network,
    x_pre: &[f64],
    x_post: &[f64],
    attacks: &[FdiAttack],
    cfg: &MtdConfig,
) -> Result<MtdEvaluation, MtdError> {
    let h_pre = net.measurement_matrix(x_pre)?;
    evaluate_with_attacks_h(net, &h_pre, x_post, attacks, cfg)
}

/// [`evaluate_with_attacks`] with a precomputed `H(x_pre)`; builds the
/// post-perturbation matrix exactly once (angle metric and detector
/// share it) and reads both angles off one eigensolve against a one-off
/// basis of `H(x_pre)`, bit-identical to [`crate::MtdSession::evaluate`].
///
/// # Errors
///
/// Propagates model-construction failures.
pub fn evaluate_with_attacks_h(
    net: &Network,
    h_pre: &Matrix,
    x_post: &[f64],
    attacks: &[FdiAttack],
    cfg: &MtdConfig,
) -> Result<MtdEvaluation, MtdError> {
    let h_post = net.measurement_matrix(x_post)?;
    let (smallest_angle, gamma) = OrthonormalBasis::new(h_pre)?.extreme_angles_to(&h_post)?;
    let bdd = detector_from_h(h_post, cfg)?;
    let detection_probs = detection_probabilities_parallel(&bdd, attacks)?;
    Ok(MtdEvaluation {
        gamma,
        smallest_angle,
        detection_probs,
    })
}

/// One-shot evaluation: builds the attack ensemble from the
/// pre-perturbation OPF dispatch, then scores the perturbation.
///
/// # Errors
///
/// Propagates OPF and model failures.
pub fn evaluate_mtd(
    net: &Network,
    x_pre: &[f64],
    x_post: &[f64],
    cfg: &MtdConfig,
) -> Result<MtdEvaluation, MtdError> {
    // Thin compatibility wrapper over the session (which caches the
    // pre-perturbation OPF and the ensemble it scales); bit-identical
    // to the historical solve-build-evaluate sequence.
    crate::MtdSession::builder(net.clone())
        .config(cfg.clone())
        .x_pre(x_pre.to_vec())
        .build()?
        .evaluate(x_post)
}

/// Monte-Carlo cross-check of the analytic detection probability for one
/// attack (the paper's 1000-noise-draw procedure): used by the ablation
/// experiment to validate the closed form.
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
    let bdd = post_mtd_detector(net, x_post, cfg)?;
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
    use gridmtd_powergrid::cases;

    fn mixed_perturbation(net: &Network, eta: f64) -> (Vec<f64>, Vec<f64>) {
        let x_pre = net.nominal_reactances();
        let mut x_post = x_pre.clone();
        for (k, l) in net.dfacts_branches().into_iter().enumerate() {
            x_post[l] *= if k % 2 == 0 { 1.0 + eta } else { 1.0 - eta };
        }
        (x_pre, x_post)
    }

    #[test]
    fn identity_perturbation_has_alpha_level_detection() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let x = net.nominal_reactances();
        let eval = evaluate_mtd(&net, &x, &x, &cfg).unwrap();
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
        // attacks (the paper-scale calibration lives in the bench
        // binaries).
        let cfg = MtdConfig {
            noise_sigma_mw: 0.15,
            ..MtdConfig::fast_test()
        };
        let mut prev_eta = -1.0;
        let mut prev_gamma = -1.0;
        for eta in [0.15, 0.3, 0.5] {
            let (x_pre, x_post) = mixed_perturbation(&net, eta);
            let eval = evaluate_mtd(&net, &x_pre, &x_post, &cfg).unwrap();
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
        let (x_pre, x_post) = mixed_perturbation(&net, 0.4);
        let eval = evaluate_mtd(&net, &x_pre, &x_post, &cfg).unwrap();
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
        let (x_pre, x_post) = mixed_perturbation(&net, 0.35);
        let opf_pre = gridmtd_opf::solve_opf(&net, &x_pre, &cfg.opf_options()).unwrap();
        let attacks = build_attack_set(&net, &x_pre, &opf_pre.dispatch, &cfg).unwrap();
        let bdd = post_mtd_detector(&net, &x_post, &cfg).unwrap();
        // pick an attack with mid-range PD so the comparison is informative
        let probs = gridmtd_attack::detection_probabilities(&bdd, &attacks).unwrap();
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
        let x = net.nominal_reactances();
        let opf = gridmtd_opf::solve_opf(&net, &x, &cfg.opf_options()).unwrap();
        let a = build_attack_set(&net, &x, &opf.dispatch, &cfg).unwrap();
        let b = build_attack_set(&net, &x, &opf.dispatch, &cfg).unwrap();
        assert_eq!(a, b);
        let cfg2 = MtdConfig {
            seed: 99,
            ..MtdConfig::fast_test()
        };
        let c = build_attack_set(&net, &x, &opf.dispatch, &cfg2).unwrap();
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
        let (x_pre, x_post) = mixed_perturbation(&net, 0.35);
        let opf_pre = gridmtd_opf::solve_opf(&net, &x_pre, &cfg.opf_options()).unwrap();
        let attacks = build_attack_set(&net, &x_pre, &opf_pre.dispatch, &cfg).unwrap();
        let opf_post = gridmtd_opf::solve_opf(&net, &x_post, &cfg.opf_options()).unwrap();
        let a = monte_carlo_detection(&net, &x_post, &opf_post.dispatch, &attacks[0], 400, &cfg)
            .unwrap();
        let b = monte_carlo_detection(&net, &x_post, &opf_post.dispatch, &attacks[0], 400, &cfg)
            .unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
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
