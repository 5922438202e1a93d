//! End-to-end determinism contract: the scenario engine's output is
//! bit-identical no matter how many worker threads it fans across.
//!
//! This lives in its own integration-test binary because it flips the
//! `GRIDMTD_THREADS` override; keeping every phase inside one `#[test]`
//! keeps the environment mutation race-free.

use gridmtd_core::{MtdConfig, MtdSession};
use gridmtd_powergrid::cases;

#[test]
fn parallel_engine_output_is_bit_identical_to_serial() {
    let net = cases::case14();
    let cfg = MtdConfig {
        n_attacks: 80,
        n_starts: 3,
        max_evals_per_start: 120,
        ..MtdConfig::default()
    };

    // A fresh session per run, with no per-session budget: every fan-out
    // sizes itself from `GRIDMTD_THREADS`.
    let run_engine = || {
        let session = MtdSession::builder(net.clone())
            .config(cfg.clone())
            .build()
            .unwrap();
        let sel = session.select(0.12).unwrap();
        let eval = session.evaluate(&sel.x_post).unwrap();
        let curve = session.tradeoff_sweep(&[0.05, 0.15], &[0.5, 0.9]).unwrap();
        (sel, eval, curve)
    };

    std::env::set_var("GRIDMTD_THREADS", "1");
    let (sel_serial, eval_serial, curve_serial) = run_engine();
    std::env::set_var("GRIDMTD_THREADS", "4");
    let (sel_par, eval_par, curve_par) = run_engine();
    std::env::remove_var("GRIDMTD_THREADS");

    // MtdSelection: the selected reactances, angle and OPF must agree to
    // the bit (PartialEq on f64 fields is exact equality).
    assert_eq!(
        sel_serial, sel_par,
        "MtdSelection must not depend on fan-out"
    );
    assert_eq!(
        eval_serial, eval_par,
        "attack scoring must not depend on fan-out"
    );
    assert_eq!(
        curve_serial, curve_par,
        "tradeoff sweep must not depend on fan-out"
    );
}
