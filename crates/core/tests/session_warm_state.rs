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
//! And session-routed outputs must be **bit-identical** to the
//! historical free-function pipeline, on dense paper-scale cases and on
//! the sparse scaling cases alike (the scenario goldens pin the same
//! property end to end at the artifact level).
//!
//! Everything lives in ONE `#[test]` in its own integration-test
//! binary: the counters are process-global, so concurrently running
//! tests would otherwise inflate the deltas (the pattern of
//! `timeline_rebuilds.rs`).

use gridmtd_core::{effectiveness, selection, spa, MtdConfig, MtdSession};
use gridmtd_estimation::gain_symbolic_analyses;
use gridmtd_powergrid::{cases, stats};

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
    // case4 (dense backends): GammaBasis ownership + bit-identity of
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

    // Bit-identity against the self-contained free function (which
    // rebuilds H + basis itself).
    let x_pre = session.x_pre().to_vec();
    let free = selection::select_mtd(&net, &x_pre, 0.05, &cfg).unwrap();
    assert_eq!(
        free, sel_again,
        "session select must be bit-identical to the free function"
    );
    assert!(
        spa::gamma_basis_builds() > basis_before,
        "the free function pays the basis rebuild the session avoids"
    );

    // ------------------------------------------------------------------
    // case14 (dense): one-shot evaluation wrapper vs session.
    // ------------------------------------------------------------------
    let net14 = cases::case14();
    let mut x_post14 = net14.nominal_reactances();
    for (k, l) in net14.dfacts_branches().into_iter().enumerate() {
        x_post14[l] *= if k % 2 == 0 { 1.3 } else { 0.7 };
    }
    let free14 =
        effectiveness::evaluate_mtd(&net14, &net14.nominal_reactances(), &x_post14, &cfg).unwrap();
    let session14 = MtdSession::builder(net14.clone())
        .config(cfg.clone())
        .build()
        .unwrap();
    assert_eq!(
        session14.evaluate(&x_post14).unwrap(),
        free14,
        "session evaluate must be bit-identical to evaluate_mtd"
    );
    // The free angle functions solve the same pencil against a one-off
    // basis: the session's bits, and no cached-basis build counted.
    let h_pre14 = net14
        .measurement_matrix(&net14.nominal_reactances())
        .unwrap();
    let h_post14 = net14.measurement_matrix(&x_post14).unwrap();
    let builds_before = spa::gamma_basis_builds();
    assert_eq!(
        spa::gamma(&h_pre14, &h_post14).unwrap().to_bits(),
        free14.gamma.to_bits()
    );
    assert_eq!(
        spa::smallest_angle(&h_pre14, &h_post14).unwrap().to_bits(),
        free14.smallest_angle.to_bits()
    );
    assert_eq!(
        spa::gamma_basis_builds(),
        builds_before,
        "a one-off basis inside spa::gamma is not a cached-basis build"
    );

    // ------------------------------------------------------------------
    // case57 (sparse PF ≥ 48 buses, sparse WLS ≥ 40 states): symbolic
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

    // Sparse-path bit-identity: the primed-prototype solves must equal
    // the free function's all-fresh contexts to the bit.
    let x57 = session57.x_pre().to_vec();
    let free57 = selection::select_mtd(&net57, &x57, 0.0, &cfg57).unwrap();
    assert_eq!(
        free57, sel57_again,
        "sparse-path session select must be bit-identical to the free function"
    );
    // ...and the free path re-analyzed what the session kept warm.
    assert!(
        stats::pf_symbolic_analyses() > pf_before,
        "the free function pays the symbolic analyses the session avoids"
    );
    let eval57_free = effectiveness::evaluate_with_attacks(
        &net57,
        &x57,
        &sel57_again.x_post,
        session57.attacks().unwrap(),
        &cfg57,
    )
    .unwrap();
    assert_eq!(
        eval57_free, eval57,
        "sparse-path evaluation must be bit-identical to the free function"
    );

    // ------------------------------------------------------------------
    // case118: the largest gated case — evaluation and raw detection
    // probabilities, session vs free, to the bit.
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

    let opf118 = gridmtd_opf::solve_opf(&net118, &x118, &cfg118.opf_options()).unwrap();
    let attacks118 =
        effectiveness::build_attack_set(&net118, &x118, &opf118.dispatch, &cfg118).unwrap();
    let free_eval =
        effectiveness::evaluate_with_attacks(&net118, &x118, &x_post118, &attacks118, &cfg118)
            .unwrap();
    assert_eq!(
        free_eval, sess_eval,
        "case118 session evaluation must be bit-identical to the free path"
    );
    let free_probs = {
        let bdd = effectiveness::post_mtd_detector(&net118, &x_post118, &cfg118).unwrap();
        effectiveness::detection_probabilities_parallel(&bdd, &attacks118).unwrap()
    };
    let sess_probs = session118.detection_probabilities(&x_post118).unwrap();
    assert_eq!(
        free_probs.iter().map(|p| p.to_bits()).collect::<Vec<u64>>(),
        sess_probs.iter().map(|p| p.to_bits()).collect::<Vec<u64>>(),
        "case118 detection probabilities must agree to the bit"
    );
}
