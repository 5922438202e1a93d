//! Attacker-relearning timeline — the reconfiguration-period analysis
//! of Section IV-A.
//!
//! After an MTD perturbation the eavesdropper starts over: it must
//! re-identify the measurement subspace from post-perturbation snapshots
//! before its attacks become stealthy again (the paper, via its
//! reference \[17\], puts the requirement at 500–1000 informative
//! snapshots — the argument for hourly reconfiguration). This module
//! quantifies that deadline: a [`gridmtd_attack::SubspaceLearner`]
//! accumulates noisy measurement snapshots under jittered loads and
//! dispatch, and at each requested checkpoint we score a batch of probe
//! attacks crafted from the *estimated* subspace against the operator's
//! post-MTD bad-data detector. Detection starts near 1 (the attacker
//! knows nothing) and decays toward the false-positive rate α as the
//! estimate converges; the checkpoint where it crosses the operator's
//! risk tolerance is the re-perturbation deadline.
//!
//! Checkpoints fan out across worker threads; each draws its probes
//! from a stream seeded by its sample count, so the study is a pure
//! function of its arguments for any worker count.

use std::sync::Mutex;

use gridmtd_attack::{learning, SubspaceLearner};
use gridmtd_estimation::{EstimatorContext, NoiseModel};
use gridmtd_powergrid::{dcpf, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{session, MtdConfig, MtdError};

/// Parameters of the attacker-relearning study.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningOptions {
    /// Snapshot-count checkpoints at which the attacker's progress is
    /// scored, ascending (the paper's range of interest is 500–1000).
    pub sample_counts: Vec<usize>,
    /// Probe attacks crafted per checkpoint.
    pub n_probe_attacks: usize,
    /// Subspace dimension the attacker estimates; defaults to the true
    /// state dimension `n − 1` when `None`.
    pub subspace_dim: Option<usize>,
    /// Per-bus uniform load jitter `±fraction` between snapshots — the
    /// "information diversity" that makes eavesdropped data useful.
    pub load_jitter: f64,
    /// Detection-probability level δ* used for the stealthy fraction.
    pub target_delta: f64,
}

impl Default for LearningOptions {
    fn default() -> LearningOptions {
        LearningOptions {
            sample_counts: vec![16, 64, 256, 1000],
            n_probe_attacks: 50,
            subspace_dim: None,
            load_jitter: 0.4,
            target_delta: 0.9,
        }
    }
}

/// Attacker progress at one snapshot-count checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningPoint {
    /// Snapshots the attacker has accumulated.
    pub n_samples: usize,
    /// Mean detection probability of the probe attacks under the
    /// operator's post-MTD detector.
    pub mean_detection: f64,
    /// Fraction of probes with detection probability below
    /// [`LearningOptions::target_delta`] — the attacker's success rate.
    pub stealthy_fraction: f64,
}

/// Runs the relearning study in the post-perturbation world `x_post`
/// (behind [`crate::MtdSession::learning_study`]).
///
/// Snapshot `k` jitters every bus load by `±load_jitter` and splits the
/// dispatch across generators with random weights (maximum information
/// diversity, the premise of the paper's reference \[17\]), solves the
/// power flow and corrupts the measurements with the configured sensor
/// noise. All randomness derives from `cfg.seed`. The snapshot solves
/// run through a clone of the session's power-flow prototype and the
/// detector build through its shared gain-symbolic cache, both
/// bit-identical to fresh contexts.
///
/// # Errors
///
/// Propagates power-flow and estimation failures, and
/// [`MtdError::Infeasible`] if a checkpoint cannot craft probes (the
/// subspace dimension exceeds the snapshot count).
///
/// # Panics
///
/// Panics if `sample_counts` is empty, `n_probe_attacks` is zero, or
/// `load_jitter` is outside `(0, 1)`.
pub(crate) fn attacker_learning_study_impl(
    net: &Network,
    x_post: &[f64],
    opts: &LearningOptions,
    cfg: &MtdConfig,
    pf_proto: &dcpf::PfContext,
    est_ctx: &Mutex<EstimatorContext>,
) -> Result<Vec<LearningPoint>, MtdError> {
    assert!(
        !opts.sample_counts.is_empty(),
        "sample_counts must be non-empty"
    );
    assert!(opts.n_probe_attacks > 0, "need at least one probe attack");
    assert!(
        opts.load_jitter > 0.0 && opts.load_jitter < 1.0,
        "load_jitter must be in (0,1), got {}",
        opts.load_jitter
    );
    let dim = opts.subspace_dim.unwrap_or(net.n_states());
    let n_max = *opts
        .sample_counts
        .iter()
        .max()
        .expect("non-empty sample_counts");

    // The operator's world: detector and reference measurements at the
    // post-perturbation reactances.
    let bdd = session::detector_via(est_ctx, net.measurement_matrix(x_post)?, cfg)?;
    let noise = NoiseModel::uniform(net.n_measurements(), cfg.noise_sigma_mw);

    // Eavesdropped snapshots, generated once (sequential stream seeded
    // from the config) and shared by every checkpoint as a prefix.
    let mut rng = StdRng::seed_from_u64(crate::seedstream::domain(cfg.seed, 0xa110));
    let nominal_loads = net.loads();
    let mut snapshots: Vec<Vec<f64>> = Vec::with_capacity(n_max);
    let mut z_ref: Vec<f64> = Vec::new();
    // One warm power-flow context serves every snapshot solve (warm
    // refactorizations are pinned bit-identical to cold solves).
    let mut pf_ctx = pf_proto.clone();
    for k in 0..n_max {
        let loads: Vec<f64> = nominal_loads
            .iter()
            .map(|l| l * (1.0 + rng.gen_range(-opts.load_jitter..opts.load_jitter)))
            .collect();
        let net_k = net.with_loads(&loads)?;
        let weights: Vec<f64> = net_k
            .gens()
            .iter()
            .map(|_| rng.gen_range(0.2..1.0))
            .collect();
        let wsum: f64 = weights.iter().sum();
        let dispatch: Vec<f64> = weights
            .iter()
            .map(|w| w / wsum * net_k.total_load())
            .collect();
        let pf = dcpf::solve_dispatch_with(&net_k, x_post, &dispatch, &mut pf_ctx)?;
        let z = noise.corrupt(&pf.measurement_vector(), &mut rng);
        if k == 0 {
            z_ref = z.clone();
        }
        snapshots.push(z);
    }

    // Checkpoints are independent given the snapshot prefix: fan out,
    // each with a probe stream seeded by its own sample count.
    gridmtd_opf::parallel::par_map(&opts.sample_counts, |_, &n| {
        let mut learner = SubspaceLearner::new(net.n_measurements());
        for z in snapshots.iter().take(n) {
            learner.observe(z);
        }
        // Checkpoint streams derive through the collision-resistant
        // mixer: the historical `(seed + 0xbee5) ^ n` xor scheme shared
        // probe streams between adjacent experiment seeds (the exact
        // failure documented in `seedstream`), correlating learning
        // curves that are reported as independent.
        let mut probe_rng = StdRng::seed_from_u64(crate::seedstream::mix(
            crate::seedstream::domain(cfg.seed, 0xbee5),
            n as u64,
        ));
        // One subspace estimate (an SVD of the snapshot matrix) serves
        // every probe of the checkpoint.
        let basis = learner.estimate_basis(dim).ok_or(MtdError::Infeasible)?;
        let mut probs = Vec::with_capacity(opts.n_probe_attacks);
        for _ in 0..opts.n_probe_attacks {
            let attack = learning::craft_attack(&basis, &z_ref, cfg.attack_ratio, &mut probe_rng)
                .ok_or(MtdError::Infeasible)?;
            probs.push(bdd.detection_probability(&attack.vector)?);
        }
        Ok(LearningPoint {
            n_samples: n,
            mean_detection: gridmtd_stats::empirical::mean(&probs),
            stealthy_fraction: gridmtd_stats::empirical::fraction_where(&probs, |p| {
                p < opts.target_delta
            }),
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MtdSession;
    use gridmtd_powergrid::cases;

    fn study(
        net: &Network,
        x_post: &[f64],
        opts: &LearningOptions,
        cfg: &MtdConfig,
    ) -> Result<Vec<LearningPoint>, MtdError> {
        MtdSession::builder(net.clone())
            .config(cfg.clone())
            .build()?
            .learning_study(x_post, opts)
    }

    fn tiny_cfg() -> MtdConfig {
        MtdConfig {
            n_attacks: 50,
            noise_sigma_mw: 0.1,
            ..MtdConfig::fast_test()
        }
    }

    #[test]
    fn detection_decays_as_the_attacker_accumulates_samples() {
        let net = cases::case14();
        let cfg = tiny_cfg();
        let x = net.nominal_reactances();
        let opts = LearningOptions {
            sample_counts: vec![16, 400],
            n_probe_attacks: 30,
            ..LearningOptions::default()
        };
        let points = study(&net, &x, &opts, &cfg).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].n_samples, 16);
        assert_eq!(points[1].n_samples, 400);
        // More snapshots → better subspace estimate → lower detection.
        assert!(
            points[1].mean_detection < points[0].mean_detection,
            "learning should reduce detection: {} -> {}",
            points[0].mean_detection,
            points[1].mean_detection
        );
        for p in &points {
            assert!((0.0..=1.0).contains(&p.mean_detection));
            assert!((0.0..=1.0).contains(&p.stealthy_fraction));
        }
    }

    #[test]
    fn study_is_deterministic() {
        let net = cases::case4();
        let cfg = tiny_cfg();
        let x = net.nominal_reactances();
        let opts = LearningOptions {
            sample_counts: vec![8, 32],
            n_probe_attacks: 10,
            ..LearningOptions::default()
        };
        let a = study(&net, &x, &opts, &cfg).unwrap();
        let b = study(&net, &x, &opts, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn insufficient_samples_surface_as_infeasible() {
        let net = cases::case4();
        let cfg = tiny_cfg();
        let x = net.nominal_reactances();
        let opts = LearningOptions {
            // Fewer snapshots than the subspace dimension: the basis is
            // not estimable, so probes cannot be crafted.
            sample_counts: vec![1],
            n_probe_attacks: 5,
            ..LearningOptions::default()
        };
        let err = study(&net, &x, &opts, &cfg).unwrap_err();
        assert_eq!(err, MtdError::Infeasible);
    }

    #[test]
    #[should_panic(expected = "sample_counts must be non-empty")]
    fn empty_checkpoints_panic() {
        let net = cases::case4();
        let opts = LearningOptions {
            sample_counts: vec![],
            ..LearningOptions::default()
        };
        let _ = study(&net, &net.nominal_reactances(), &opts, &tiny_cfg());
    }
}
