//! Regression guard for matrix-rebuild hoisting.
//!
//! The timeline loop (and the helpers under it) must *reuse* the stale
//! measurement matrix, its QR basis and the post-perturbation matrix
//! instead of reconstructing them per call: the matrices depend only on
//! topology and reactances, not on the hour's loads. These tests pin
//! the exact number of `Network::measurement_matrix` constructions the
//! hoisted entry points are allowed, using the process-global build
//! counters of `gridmtd_powergrid::stats`.
//!
//! Everything lives in ONE `#[test]` in its own integration-test binary:
//! the counters are process-global, so concurrently running tests would
//! otherwise inflate the deltas.

use gridmtd_core::{effectiveness, selection, spa, timeline, MtdConfig};
use gridmtd_powergrid::{cases, stats};
use gridmtd_traces::LoadTrace;

/// Runs `f` and returns the number of measurement-matrix builds it
/// performed.
fn builds_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = stats::measurement_matrix_builds();
    let out = f();
    (stats::measurement_matrix_builds() - before, out)
}

#[test]
fn hoisted_paths_do_not_rebuild_fixed_matrices() {
    let net = cases::case4();
    let cfg = MtdConfig {
        n_attacks: 20,
        n_starts: 1,
        max_evals_per_start: 40,
        ..MtdConfig::default()
    };
    let x_pre = net.nominal_reactances();
    let mut x_post = x_pre.clone();
    for l in net.dfacts_branches() {
        x_post[l] *= 1.3;
    }

    let h_pre = net.measurement_matrix(&x_pre).unwrap();
    let basis = spa::GammaBasis::new(&h_pre).unwrap();
    let opf = gridmtd_opf::solve_opf(&net, &x_pre, &cfg.opf_options()).unwrap();

    // Attack-set construction against a precomputed H: zero rebuilds.
    let (n, attacks) = builds_during(|| {
        effectiveness::build_attack_set_with_h(&net, &h_pre, &x_pre, &opf.dispatch, &cfg).unwrap()
    });
    assert_eq!(n, 0, "build_attack_set_with_h must not rebuild H(x_pre)");

    // Evaluation against a precomputed H(x_pre): exactly one build — the
    // post-perturbation matrix, shared by the angle metric and the
    // detector.
    let (n, _) = builds_during(|| {
        effectiveness::evaluate_with_attacks_h(&net, &h_pre, &x_post, &attacks, &cfg).unwrap()
    });
    assert_eq!(n, 1, "evaluate_with_attacks_h must build H(x_post) once");

    // The detector helper itself: one build (H(x_post)).
    let (n, _) = builds_during(|| effectiveness::post_mtd_detector(&net, &x_post, &cfg).unwrap());
    assert_eq!(n, 1);

    // Selection with a hoisted basis does exactly one build fewer than
    // the self-contained variant (the hoisted H(x_pre)); the remaining
    // builds are the per-candidate objective evaluations, identical on
    // both paths.
    let (n_plain, _) = builds_during(|| selection::select_mtd(&net, &x_pre, 0.05, &cfg).unwrap());
    let (n_hoisted, _) =
        builds_during(|| selection::select_mtd_with(&net, &x_pre, &basis, 0.05, &cfg).unwrap());
    assert_eq!(
        n_plain,
        n_hoisted + 1,
        "select_mtd_with must save exactly the hoisted H(x_pre) build"
    );

    // Timeline: the per-hour fixed-reactance builds are bounded. Per
    // hour the loop itself builds h_stale, h_now and the audited
    // H(x_post) of the chosen selection — everything else (the
    // optimizer's objective evaluations, which genuinely vary x) is
    // charged to the candidate runs, measured here as the per-candidate
    // hoisted cost from above.
    let trace = LoadTrace::new(vec![400.0, 450.0]);
    let opts = timeline::TimelineOptions {
        gamma_grid: vec![0.03, 0.05],
        ..timeline::TimelineOptions::default()
    };
    let (n_day, outcomes) =
        builds_during(|| timeline::simulate_day(&net, &trace, &opts, &cfg).unwrap());
    assert_eq!(outcomes.len(), 2);
    let candidate_budget = (n_hoisted + 2) * opts.gamma_grid.len() as u64; // selection + evaluation + audit per candidate
    let per_hour_fixed = 3; // h_stale + h_now + final H(x_post)
                            // The optimizer trajectory length varies with the hour's loads and
                            // start point (each hour starts from the previous hour's reactances,
                            // and a failed audit triggers an extra penalty round), so allow 2×
                            // headroom over the single-candidate measurement; an accidental
                            // rebuild inside the per-evaluation objective — one per D-FACTS line
                            // per gradient call — would still blow far past it.
    let bound = outcomes.len() as u64 * (per_hour_fixed + candidate_budget) * 2;
    assert!(
        n_day <= bound,
        "simulate_day built H {n_day} times, hoisting bound is {bound}"
    );
}
