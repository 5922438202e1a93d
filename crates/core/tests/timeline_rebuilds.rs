//! Regression guard for matrix-rebuild hoisting.
//!
//! The timeline loop (and the helpers under it) must *reuse* the stale
//! measurement matrix, its QR basis and the post-perturbation matrix
//! instead of reconstructing them per call: the matrices depend only on
//! topology and reactances, not on the hour's loads. A selection builds
//! no dense `H` at all, and the hour's reported angles run on γ kernels
//! from reactances: the kernel of the hour's no-MTD reactances, built
//! once, becomes the next hour's stale kernel together with its `H`. These tests pin the exact number of
//! `Network::measurement_matrix` constructions the hoisted entry points
//! are allowed, using the process-global build counters of
//! `gridmtd_powergrid::stats`, and the per-`x_pre` γ factor builds with
//! `gridmtd_core::spa::gamma_basis_builds`.
//!
//! Everything lives in ONE `#[test]` in its own integration-test binary:
//! the counters are process-global, so concurrently running tests would
//! otherwise inflate the deltas.

use gridmtd_core::{effectiveness, spa, timeline, MtdConfig, MtdSession};
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
    let opf = gridmtd_opf::solve_opf(&net, &x_pre, &cfg.opf_options()).unwrap();

    // Attack-set construction against a precomputed H: zero rebuilds.
    let (n, _) = builds_during(|| {
        effectiveness::build_attack_set_with_h(&net, &h_pre, &x_pre, &opf.dispatch, &cfg).unwrap()
    });
    assert_eq!(n, 0, "build_attack_set_with_h must not rebuild H(x_pre)");

    // A session holding H(x_pre), its basis and the ensemble evaluates
    // with exactly one build — the post-perturbation matrix, shared by
    // the angle metric and the detector.
    let session = MtdSession::builder(net.clone())
        .config(cfg.clone())
        .build()
        .unwrap();
    session.attacks().unwrap();
    session.gamma_basis().unwrap();
    let (n, _) = builds_during(|| session.evaluate(&x_post).unwrap());
    assert_eq!(n, 1, "a warm evaluate must build H(x_post) once");

    // The detector path alone: one build (H(x_post)).
    let (n, _) = builds_during(|| session.detection_probabilities(&x_post).unwrap());
    assert_eq!(n, 1);

    // A warm selection builds no dense H at all: every objective
    // evaluation, the exact-γ audit and the ceiling run on the session's
    // low-rank γ kernel, which works from branch stamps. Repeated warm
    // selections do not rebuild that per-x_pre factor either.
    let kernels_before = spa::gamma_basis_builds();
    let (n_select, first) = builds_during(|| session.select(0.05).unwrap());
    assert_eq!(
        n_select, 0,
        "a warm select must build no dense H per evaluation"
    );
    let (n_again, again) = builds_during(|| session.select(0.05).unwrap());
    assert_eq!(n_again, 0);
    assert_eq!(first, again);
    assert_eq!(
        spa::gamma_basis_builds(),
        kernels_before,
        "repeated warm selects must not rebuild the per-x_pre γ factor"
    );

    // Timeline. The day's set-up, before the first hour, searches the
    // spread D-FACTS corners: two H per corner pair, and no cached basis.
    // Per hour the loop builds H(x_now) and its γ kernel, which the next
    // hour inherits as its stale H and kernel; only the first hour builds
    // its stale H and kernel itself. Every evaluated γ-grid candidate
    // builds its H(x_post) for the detector, and its selection none.
    let trace = LoadTrace::new(vec![400.0, 450.0]);
    let opts = timeline::TimelineOptions {
        gamma_grid: vec![0.03, 0.05],
        ..timeline::TimelineOptions::default()
    };
    let mut day = MtdSession::builder(net.clone())
        .config(cfg.clone())
        .build()
        .unwrap();
    let bases_before = spa::gamma_basis_builds();
    let (n_begin, ()) = builds_during(|| day.begin_day(&trace, &opts).unwrap());
    let corners = 1u64 << net.dfacts_branches().len();
    assert_eq!(
        n_begin,
        2 * corners,
        "begin_day builds two H per spread corner"
    );
    assert_eq!(spa::gamma_basis_builds(), bases_before);
    let (n_day, outcomes) = builds_during(|| {
        let mut outcomes = Vec::new();
        while day.hours_remaining() > 0 {
            outcomes.push(day.step_hour().unwrap());
        }
        outcomes
    });
    let hours = outcomes.len() as u64;
    assert_eq!(hours, 2);
    assert_eq!(
        spa::gamma_basis_builds() - bases_before,
        hours + 1,
        "one γ kernel per hour, plus the first hour's stale kernel"
    );
    // The tuner evaluates at least one candidate an hour and at most the
    // whole grid (how many depends on its look-ahead, the worker count).
    let fixed = hours + 1; // H(x_now) per hour + the first hour's stale H
    let grid = opts.gamma_grid.len() as u64;
    assert!(
        (fixed + hours..=fixed + hours * grid).contains(&n_day),
        "the day built H {n_day} times: {fixed} fixed plus one per evaluated candidate \
         ({hours}..={} candidates)",
        hours * grid
    );
}
