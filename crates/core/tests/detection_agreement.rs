//! Pipeline agreement for the closed-form detection probabilities: every
//! probability the session scores for its own attack ensemble must equal
//! the term-by-term noncentral-χ² mixture evaluated at that attack's WLS
//! residual noncentrality under an independently built post-MTD
//! detector, within 1e-12.
//!
//! The session reads `λ` off the low-rank range of the perturbation
//! (`effectiveness` module docs); the oracle solves the detector's WLS
//! residual of the attack vector. The perturbations cover the
//! selections at γ_th ∈ {0.05, 0.1, 0.2} on case14 through case118 with
//! the paper's 1000 attacks, and every shape of the changed-line set:
//! none, one line, every branch (more lines than states), a spread
//! `x_pre`, the keyspace trials and one timeline hour.

#[allow(dead_code)]
#[path = "../../stats/tests/per_term/mod.rs"]
mod per_term;

use gridmtd_attack::FdiAttack;
use gridmtd_core::effectiveness::{build_attack_set_with_h, detection_probabilities_parallel};
use gridmtd_core::{seedstream, selection, spa, MtdConfig, MtdError, MtdSession, TimelineOptions};
use gridmtd_estimation::{BadDataDetector, EstimationError, NoiseModel, StateEstimator};
use gridmtd_powergrid::{cases, Network};
use gridmtd_traces::LoadTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// The oracle's probabilities of `attacks` under the detector of
/// `x_post`: the per-term mixture at each attack's WLS residual `λ`.
fn oracle(net: &Network, x_post: &[f64], cfg: &MtdConfig, attacks: &[FdiAttack]) -> Vec<f64> {
    let bdd = fresh_detector(net, x_post, cfg);
    let dof = bdd.estimator().degrees_of_freedom() as f64;
    attacks
        .iter()
        .map(|a| {
            let lambda = bdd.attack_noncentrality(&a.vector).unwrap();
            per_term::sf(dof, lambda, bdd.threshold())
        })
        .collect()
}

/// A session on `net` with the test configuration.
fn session(net: &Network, cfg: &MtdConfig) -> MtdSession {
    MtdSession::builder(net.clone())
        .config(cfg.clone())
        .build()
        .unwrap()
}

/// Scores `x_post` through the session and asserts every probability
/// within [`TOL`] of the oracle's.
fn check_point(what: &str, session: &MtdSession, x_post: &[f64]) -> Vec<f64> {
    let probs = session.detection_probabilities(x_post).unwrap();
    let attacks = session.attacks().unwrap();
    assert_eq!(probs.len(), attacks.len(), "{what}");
    let want = oracle(session.network(), x_post, session.config(), attacks);
    for (i, (&p, &w)) in probs.iter().zip(&want).enumerate() {
        assert!((p - w).abs() <= TOL, "{what} attack {i}: {p} vs {w}");
    }
    probs
}

/// `x` with every listed branch scaled by `1 + eta`, alternating sign.
fn sign_mixed(x: &[f64], lines: impl IntoIterator<Item = usize>, eta: f64) -> Vec<f64> {
    let mut out = x.to_vec();
    for (k, l) in lines.into_iter().enumerate() {
        out[l] *= if k % 2 == 0 { 1.0 + eta } else { 1.0 - eta };
    }
    out
}

/// Runs the agreement check on one grid; returns how many thresholds
/// were selected and scored.
fn check_grid(name: &str, net: Network) -> usize {
    let cfg = config();
    let session = session(&net, &cfg);
    assert_eq!(session.attacks().unwrap().len(), cfg.n_attacks);
    let &(_, ceiling) = session.max_gamma().unwrap();
    let mut scored = 0;
    for gamma_th in GAMMA_THRESHOLDS.into_iter().filter(|&g| g <= ceiling) {
        let sel = match session.select(gamma_th) {
            Ok(sel) => sel,
            Err(MtdError::ThresholdUnreachable { .. }) => continue,
            Err(e) => panic!("{name} γ_th={gamma_th}: {e}"),
        };
        check_point(&format!("{name} γ_th={gamma_th}"), &session, &sel.x_post);
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

#[test]
fn an_unperturbed_x_post_has_zero_noncentrality_exactly() {
    let net = cases::case14();
    let cfg = config();
    let session = session(&net, &cfg);
    let x_pre = session.x_pre().to_vec();
    let probs = check_point("case14 x_post = x_pre", &session, &x_pre);
    let at_zero = fresh_detector(&net, &x_pre, &cfg)
        .probability_at(0.0)
        .unwrap();
    for p in probs {
        assert_eq!(
            p.to_bits(),
            at_zero.to_bits(),
            "λ = 0 exactly gives sf at λ = 0"
        );
    }
}

#[test]
fn one_changed_line_agrees() {
    for (name, net) in [("case14", cases::case14()), ("case57", cases::case57())] {
        let session = session(&net, &config());
        let line = net.dfacts_branches()[0];
        let x_post = sign_mixed(session.x_pre(), [line], 0.4);
        check_point(&format!("{name} one line"), &session, &x_post);
    }
}

#[test]
fn every_branch_changed_agrees() {
    // More changed lines than states: the range has nothing to save, and
    // the session scores each attack by its residual.
    for (name, net) in [("case14", cases::case14()), ("case30", cases::case30())] {
        assert!(net.n_branches() > net.n_states());
        let session = session(&net, &config());
        let x_post = sign_mixed(session.x_pre(), 0..net.n_branches(), 0.15);
        check_point(&format!("{name} every branch"), &session, &x_post);
    }
}

#[test]
fn a_spread_x_pre_session_agrees() {
    let net = cases::case14();
    let session = MtdSession::builder(net.clone())
        .config(config())
        .spread_x_pre()
        .build()
        .unwrap();
    assert_ne!(session.x_pre(), net.nominal_reactances().as_slice());
    let stepped = sign_mixed(session.x_pre(), net.dfacts_branches(), 0.1);
    check_point("case14 spread, D-FACTS step", &session, &stepped);
    // Back to nominal moves every line the spread point moved.
    check_point(
        "case14 spread, nominal",
        &session,
        &net.nominal_reactances(),
    );
    let sel = session.select(0.05).unwrap();
    check_point("case14 spread, select(0.05)", &session, &sel.x_post);
}

#[test]
fn keyspace_trials_agree() {
    let net = cases::case30();
    let cfg = config();
    let session = session(&net, &cfg);
    let (fraction, deltas) = (0.3, [0.1, 0.5, 0.9]);
    let trials = session.keyspace_study(fraction, 6, &deltas).unwrap();
    let attacks = session.attacks().unwrap();
    let base = seedstream::domain(cfg.seed, 0xfeed);
    for trial in &trials {
        // The trial's perturbation, drawn from its own stream.
        let mut rng = StdRng::seed_from_u64(seedstream::mix(base, trial.trial as u64));
        let x_post =
            selection::random_perturbation(&net, session.x_pre(), fraction, &mut rng).unwrap();
        check_point(&format!("case30 trial {}", trial.trial), &session, &x_post);
        let want = oracle(&net, &x_post, &cfg, attacks);
        for &(delta, eta) in &trial.effectiveness {
            let hits = want.iter().filter(|&&p| p >= delta).count();
            assert_eq!(
                eta,
                hits as f64 / want.len() as f64,
                "trial {} η({delta})",
                trial.trial
            );
        }
    }
}

#[test]
fn a_timeline_hour_agrees() {
    // Hour 0 of a two-hour day: the attacker knows the previous hour's
    // H(x_pre) and eavesdropped its dispatch.
    let net = cases::case14();
    let cfg = MtdConfig {
        n_attacks: 200,
        noise_sigma_mw: 0.15,
        ..config()
    };
    let opts = TimelineOptions::default();
    let nominal = net.total_load();
    let trace = LoadTrace::new(vec![0.9 * nominal, 1.05 * nominal]);
    let mut day = session(&net, &cfg);
    day.begin_day(&trace, &opts).unwrap();
    let x_pre = day.x_pre().to_vec();
    let outcome = day.step_hour().unwrap();

    // The same hour rebuilt from public pieces: its grid, its selection
    // and its ensemble.
    let net_now = net.scale_loads(trace.scaling_factor(0, nominal));
    let net_prev = net.scale_loads(trace.scaling_factor(1, nominal));
    let hour = MtdSession::builder(net_now.clone())
        .config(cfg.clone())
        .x_pre(x_pre.clone())
        .build()
        .unwrap();
    let sel = hour.select(outcome.gamma_threshold).unwrap();
    // The hour reports γ off the stale γ kernel; a kernel of the same
    // `x_pre` gives the same bits.
    let stale = spa::GammaKernel::new(&net, &x_pre, hour.h_pre().unwrap()).unwrap();
    assert_eq!(
        stale.gamma_at(&net, &sel.x_post).unwrap().to_bits(),
        outcome.gamma_defense.to_bits(),
        "the rebuilt hour selects the hour's x_post"
    );
    let dispatch_prev = gridmtd_opf::solve_opf(&net_prev, &x_pre, &cfg.opf_options())
        .unwrap()
        .dispatch;
    let attacks = build_attack_set_with_h(
        &net_now,
        hour.h_pre().unwrap(),
        &x_pre,
        &dispatch_prev,
        &cfg,
    )
    .unwrap();
    let want = oracle(&net_now, &sel.x_post, &cfg, &attacks);
    let hits = want.iter().filter(|&&p| p >= opts.target_delta).count();
    assert_eq!(
        outcome.effectiveness,
        hits as f64 / want.len() as f64,
        "the hour's η matches the residual oracle's"
    );
    // And the hour's grid and x_post through the session's scorer.
    check_point("case14 hour 0", &hour, &sel.x_post);
}
