//! Regression guards for the session's warm-state ownership.
//!
//! An [`MtdSession`] owns every per-topology cache of the pipeline, so
//! repeated `select()` / `evaluate()` calls on an unchanged topology
//! must never redo the one-time work:
//!
//! * no `GammaBasis` rebuild (the QR of `H(x_pre)`) — pinned with the
//!   `gridmtd_core::spa::gamma_basis_builds` counter;
//! * no sparse power-flow symbolic re-analysis — pinned with
//!   `gridmtd_powergrid::stats::pf_symbolic_analyses`;
//! * no gain-matrix (`HᵀWH`) symbolic re-analysis in detector builds —
//!   pinned with `gridmtd_estimation::gain_symbolic_analyses`.
//!
//! And a warm session's outputs must be **bit-identical** to a fresh
//! session's, on the paper-scale cases and on the scaling cases alike
//! (the scenario goldens pin the same property end to end at the
//! artifact level). Its angles come from the low-rank γ kernel: γ
//! agrees with the public free function `spa::gamma` (the dense pencil)
//! within 1e-10 relative, and for a D-FACTS step (`|C| < n` changed
//! lines) the smallest angle is exactly 0, where `spa::smallest_angle`
//! resolves the same zero only to about 1e-8.
//! Its detection probabilities come from the low-rank ensemble scorer;
//! they agree with the residual path (`build_attack_set_with_h` and
//! `detection_probabilities_parallel` under a hand-built detector)
//! within 1e-12.
//!
//! Everything lives in ONE `#[test]` in its own integration-test
//! binary: the counters are process-global, so concurrently running
//! tests would otherwise inflate the deltas (the pattern of
//! `timeline_rebuilds.rs`).

use gridmtd_core::{effectiveness, spa, MtdConfig, MtdSession};
use gridmtd_estimation::{gain_symbolic_analyses, BadDataDetector, NoiseModel, StateEstimator};
use gridmtd_powergrid::{cases, stats, Network};

/// A session with no warm state yet.
fn fresh(net: &Network, x_pre: &[f64], cfg: &MtdConfig) -> MtdSession {
    MtdSession::builder(net.clone())
        .config(cfg.clone())
        .x_pre(x_pre.to_vec())
        .build()
        .unwrap()
}

/// A session's γ against the dense pencil's: within 1e-10 relative.
fn assert_gamma_matches_dense(name: &str, session: f64, dense: f64) {
    let rel = (session - dense).abs() / dense;
    assert!(
        rel <= 1e-10,
        "{name}: session γ {session} vs dense {dense} (rel {rel:e})"
    );
}

fn tiny_cfg() -> MtdConfig {
    MtdConfig {
        n_attacks: 20,
        n_starts: 1,
        max_evals_per_start: 40,
        ..MtdConfig::default()
    }
}

#[test]
fn session_reuses_warm_state_and_matches_free_functions() {
    // ------------------------------------------------------------------
    // case4 (the paper's example): GammaBasis ownership + bit-identity of
    // selection.
    // ------------------------------------------------------------------
    let net = cases::case4();
    let cfg = tiny_cfg();
    let session = MtdSession::builder(net.clone())
        .config(cfg.clone())
        .build()
        .unwrap();

    let sel_warmup = session.select(0.05).unwrap(); // fills h_pre/basis
    let basis_before = spa::gamma_basis_builds();
    let sel_again = session.select(0.05).unwrap();
    let eval = session.evaluate(&sel_again.x_post).unwrap();
    let eval_again = session.evaluate(&sel_again.x_post).unwrap();
    assert_eq!(
        spa::gamma_basis_builds(),
        basis_before,
        "repeated select()/evaluate() must not rebuild the GammaBasis"
    );
    assert_eq!(sel_warmup, sel_again, "warm select must be deterministic");
    assert_eq!(eval, eval_again, "warm evaluate must be deterministic");

    // Bit-identity against a fresh session (which rebuilds H + basis
    // itself).
    let cold = fresh(&net, session.x_pre(), &cfg).select(0.05).unwrap();
    assert_eq!(
        cold, sel_again,
        "warm select must be bit-identical to a fresh session's"
    );
    assert!(
        spa::gamma_basis_builds() > basis_before,
        "a fresh session pays the basis rebuild the warm session avoids"
    );

    // ------------------------------------------------------------------
    // case14 (dense): one-shot fresh-session evaluation vs a session
    // warmed on another perturbation.
    // ------------------------------------------------------------------
    let net14 = cases::case14();
    let mut x_post14 = net14.nominal_reactances();
    for (k, l) in net14.dfacts_branches().into_iter().enumerate() {
        x_post14[l] *= if k % 2 == 0 { 1.3 } else { 0.7 };
    }
    let free14 = fresh(&net14, &net14.nominal_reactances(), &cfg)
        .evaluate(&x_post14)
        .unwrap();
    let session14 = MtdSession::builder(net14.clone())
        .config(cfg.clone())
        .build()
        .unwrap();
    session14.evaluate(&net14.nominal_reactances()).unwrap();
    assert_eq!(
        session14.evaluate(&x_post14).unwrap(),
        free14,
        "warm evaluate must be bit-identical to a fresh session's"
    );
    // The free angle functions solve the dense pencil against a one-off
    // basis: the session's γ to roundoff, the smallest angle's zero to
    // the pencil's resolution, and no cached-basis build counted.
    let h_pre14 = net14
        .measurement_matrix(&net14.nominal_reactances())
        .unwrap();
    let h_post14 = net14.measurement_matrix(&x_post14).unwrap();
    let builds_before = spa::gamma_basis_builds();
    assert_gamma_matches_dense(
        "case14",
        free14.gamma,
        spa::gamma(&h_pre14, &h_post14).unwrap(),
    );
    assert_eq!(free14.smallest_angle, 0.0, "6 changed lines < 13 states");
    assert!(spa::smallest_angle(&h_pre14, &h_post14).unwrap() < 1e-6);
    assert_eq!(
        spa::gamma_basis_builds(),
        builds_before,
        "a one-off basis inside spa::gamma is not a cached-basis build"
    );

    // ------------------------------------------------------------------
    // case57 (a synthetic scaling case): symbolic
    // factorizations run once per topology and never again.
    // ------------------------------------------------------------------
    let net57 = cases::case57();
    let cfg57 = MtdConfig {
        n_attacks: 10,
        n_starts: 1,
        max_evals_per_start: 20,
        ..MtdConfig::default()
    };
    let session57 = MtdSession::builder(net57.clone())
        .config(cfg57.clone())
        .build()
        .unwrap();

    // Warm up every cache class once: baseline (primes the PF
    // prototype), selection, evaluation (primes the gain symbolic).
    session57.baseline().unwrap();
    let sel57 = session57.select(0.0).unwrap();
    session57.evaluate(&sel57.x_post).unwrap();

    let pf_before = stats::pf_symbolic_analyses();
    let gain_before = gain_symbolic_analyses();
    let basis_before = spa::gamma_basis_builds();
    let sel57_again = session57.select(0.0).unwrap();
    let eval57 = session57.evaluate(&sel57_again.x_post).unwrap();
    session57
        .detection_probabilities(&sel57_again.x_post)
        .unwrap();
    assert_eq!(
        stats::pf_symbolic_analyses(),
        pf_before,
        "repeated select()/evaluate() must not re-run the PF symbolic factorization"
    );
    assert_eq!(
        gain_symbolic_analyses(),
        gain_before,
        "repeated evaluate()/detection must not re-analyze the gain pattern"
    );
    assert_eq!(spa::gamma_basis_builds(), basis_before);
    assert_eq!(sel57, sel57_again);

    // Sparse-path bit-identity: the warm primed-prototype solves must
    // equal a fresh session's to the bit.
    let cold57 = fresh(&net57, session57.x_pre(), &cfg57);
    let free57 = cold57.select(0.0).unwrap();
    assert_eq!(
        free57, sel57_again,
        "sparse-path warm select must be bit-identical to a fresh session's"
    );
    // ...and the fresh session re-analyzed what the warm one kept.
    assert!(
        stats::pf_symbolic_analyses() > pf_before,
        "a fresh session pays the symbolic analyses the warm session avoids"
    );
    let eval57_free = cold57.evaluate(&sel57_again.x_post).unwrap();
    assert_eq!(
        eval57_free, eval57,
        "sparse-path warm evaluation must be bit-identical to a fresh session's"
    );

    // ------------------------------------------------------------------
    // case118: the largest gated case — evaluation and raw detection
    // probabilities, session vs the free functions composed by hand: the
    // ensemble to the bit, γ within 1e-10 relative, the smallest angle
    // exactly 0 and the probabilities within 1e-12.
    // ------------------------------------------------------------------
    let net118 = cases::case118();
    let cfg118 = MtdConfig {
        n_attacks: 10,
        ..MtdConfig::default()
    };
    let x118 = net118.nominal_reactances();
    let mut x_post118 = x118.clone();
    for (k, l) in net118.dfacts_branches().into_iter().enumerate() {
        x_post118[l] *= if k % 2 == 0 { 1.2 } else { 0.8 };
    }
    let session118 = MtdSession::builder(net118.clone())
        .config(cfg118.clone())
        .build()
        .unwrap();
    let sess_eval = session118.evaluate(&x_post118).unwrap();

    let h118 = net118.measurement_matrix(&x118).unwrap();
    let h_post118 = net118.measurement_matrix(&x_post118).unwrap();
    let opf118 = gridmtd_opf::solve_opf(&net118, &x118, &cfg118.opf_options()).unwrap();
    let attacks118 =
        effectiveness::build_attack_set_with_h(&net118, &h118, &x118, &opf118.dispatch, &cfg118)
            .unwrap();
    assert_eq!(
        session118.attacks().unwrap(),
        attacks118.as_slice(),
        "case118 session ensemble must be bit-identical to the free path"
    );
    let free_probs = {
        let noise = NoiseModel::uniform(h_post118.rows(), cfg118.noise_sigma_mw);
        let est = StateEstimator::new(h_post118.clone(), &noise).unwrap();
        let bdd = BadDataDetector::new(est, cfg118.alpha);
        effectiveness::detection_probabilities_parallel(&bdd, &attacks118).unwrap()
    };
    assert_gamma_matches_dense(
        "case118",
        sess_eval.gamma,
        spa::gamma(&h118, &h_post118).unwrap(),
    );
    assert_eq!(
        sess_eval.smallest_angle, 0.0,
        "case118: a D-FACTS step moves fewer lines than there are states"
    );
    let sess_probs = session118.detection_probabilities(&x_post118).unwrap();
    assert_eq!(
        sess_eval.detection_probs, sess_probs,
        "evaluate and detection_probabilities score through one path"
    );
    // The session scores its ensemble through the low-rank range of the
    // perturbation, the free path by WLS residuals: the two agree to
    // the pipeline's 1e-12 (crates/core/tests/detection_agreement.rs),
    // not to the bit.
    assert_eq!(free_probs.len(), sess_probs.len());
    for (i, (free, sess)) in free_probs.iter().zip(&sess_probs).enumerate() {
        assert!(
            (free - sess).abs() <= 1e-12,
            "case118 attack {i}: session {sess} vs residual path {free}"
        );
    }
}
