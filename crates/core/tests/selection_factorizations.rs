//! Warm-path regression guard: a warm `MtdSession::select` on the
//! gradient path must not trigger a single new power-flow symbolic
//! analysis — every L-BFGS iteration prices its OPF through a clone of
//! the session's primed `PfContext`, and a clone carries the analysis.
//!
//! Lives in its own one-`#[test]` integration binary because the
//! counters are process-global; concurrently running tests would
//! inflate the delta (same pattern as `timeline_rebuilds.rs`).

use gridmtd_core::{MtdConfig, MtdSession};
use gridmtd_powergrid::{cases, stats};

#[test]
fn warm_gradient_select_does_no_new_symbolic_analysis() {
    let cfg = MtdConfig {
        n_attacks: 20,
        n_starts: 2,
        max_evals_per_start: 60,
        ..MtdConfig::default()
    };
    let session = MtdSession::builder(cases::case14())
        .config(cfg)
        .build()
        .unwrap();

    // First call warms every lazy cache (pf prototype, gamma basis,
    // baseline OPF).
    let first = session.select(0.2).unwrap();

    let before = stats::pf_symbolic_analyses();
    let second = session.select(0.25).unwrap();
    let after = stats::pf_symbolic_analyses();
    assert_eq!(
        after - before,
        0,
        "warm gradient select must reuse the primed PfContext's symbolic \
         analysis across every L-BFGS iteration"
    );

    // Both selections are real answers, not cache echoes.
    assert!(first.gamma >= 0.2 - 1e-3);
    assert!(second.gamma >= 0.25 - 1e-3);
}
