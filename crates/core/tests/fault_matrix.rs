//! The chaos matrix for the pipeline-side injection points (the serve
//! daemon's four points live in `crates/serve/tests/chaos.rs`).
//!
//! Gated behind the `fault-injection` feature (see this crate's
//! `[[test]]` entry): `cargo test -p gridmtd-core --features
//! fault-injection`. Each test arms one registered point through a
//! seeded [`FaultPlan`] and asserts the documented contract from
//! `docs/ROBUSTNESS.md`: under the fault the pipeline either produces
//! a **bit-identical** result through its fallback chain or a **typed
//! error** — never a panic, hang, or silently wrong answer — and the
//! component recovers once the fault clears.
//!
//! Reference (unfaulted) runs execute under an *empty* activated plan:
//! activation holds the process-wide serialization lock, so a
//! concurrently running chaos test cannot leak its faults into another
//! test's reference.

use gridmtd_core::faults::{registry, FaultPlan, Trigger};
use gridmtd_core::{MtdConfig, MtdError, MtdSession};
use gridmtd_linalg::LinalgError;
use gridmtd_opf::lp::{LpProblem, LpSolution, LpSolver, Relation};
use gridmtd_powergrid::cases;

fn tiny_cfg() -> MtdConfig {
    MtdConfig {
        n_attacks: 8,
        n_starts: 1,
        max_evals_per_start: 40,
        ..MtdConfig::default()
    }
}

/// Runs `f` with every fault dormant, serialized against other chaos
/// tests in this binary.
fn unfaulted<T>(f: impl FnOnce() -> T) -> T {
    let _quiet = FaultPlan::new(0).activate();
    f()
}

/// The doc-example warm-start LP: cold solve, then a rhs perturbation
/// that resolves warm.
fn warm_lp_pair(solver: &mut LpSolver, tighten_to: f64) -> (LpSolution, LpSolution) {
    let mut lp = LpProblem::new();
    let x = lp.add_var(0.0, 3.0, -1.0);
    let y = lp.add_var(0.0, 3.0, -2.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
    let first = solver.solve(&lp).expect("cold solve");
    lp.set_rhs(0, tighten_to);
    let second = solver.solve(&lp).expect("resolve");
    (first, second)
}

#[test]
fn warm_resolve_fault_falls_back_cold_bit_identically() {
    let (ref_pair, ref_select) = unfaulted(|| {
        let mut solver = LpSolver::new();
        let pair = warm_lp_pair(&mut solver, 3.5);
        assert_eq!(solver.warm_solves(), 1, "reference must take the warm path");
        let session = MtdSession::builder(cases::case14())
            .config(tiny_cfg())
            .build()
            .unwrap();
        (pair, session.select(0.1).unwrap())
    });

    let active = FaultPlan::new(11)
        .fail("opf.lp.warm_resolve", Trigger::Always)
        .activate();

    // LP layer: the engine silently falls back to the cold two-phase
    // solve and the answers do not move by a single bit.
    let mut solver = LpSolver::new();
    let pair = warm_lp_pair(&mut solver, 3.5);
    assert_eq!(
        solver.warm_solves(),
        0,
        "fault must divert every warm solve"
    );
    assert_eq!(solver.cold_solves(), 2);
    assert_eq!(pair, ref_pair, "cold fallback must be bit-identical");

    // Pipeline layer: a full SPA-constrained selection rides the same
    // chain. Warm and cold solves land on the same optimal vertex but
    // reach it through different pivot arithmetic, so the all-cold run
    // may differ from the warm reference in the last ulp — the audit
    // here is "same selection, still deterministic", not bit-equality
    // across *different healthy paths* (that identity is pinned per
    // path by the property test in `crates/opf/tests`).
    let session = MtdSession::builder(cases::case14())
        .config(tiny_cfg())
        .build()
        .unwrap();
    let select = session.select(0.1).unwrap();
    assert!(active.fired("opf.lp.warm_resolve") > 0, "fault never fired");
    assert!(select.gamma >= 0.1 - 1e-3);
    assert_eq!(select.x_post.len(), ref_select.x_post.len());
    for (a, b) in select.x_post.iter().zip(&ref_select.x_post) {
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
    }
    let (c, rc) = (select.opf.cost, ref_select.opf.cost);
    assert!((c - rc).abs() <= 1e-9 * rc.abs().max(1.0));
}

#[test]
fn warm_repair_fault_falls_back_cold_bit_identically() {
    // Tightening the constraint below the incumbent activity (1 + 3 =
    // 4 → 2.5) leaves the saved basis primal-infeasible, so the warm
    // path must run its Phase-1 repair before pricing.
    let ref_pair = unfaulted(|| {
        let mut solver = LpSolver::new();
        let pair = warm_lp_pair(&mut solver, 2.5);
        assert_eq!(solver.warm_solves(), 1, "reference must repair warm");
        pair
    });

    let active = FaultPlan::new(12)
        .fail("opf.lp.warm_repair", Trigger::Always)
        .activate();
    let mut solver = LpSolver::new();
    let pair = warm_lp_pair(&mut solver, 2.5);
    assert!(
        active.calls("opf.lp.warm_repair") > 0,
        "workload must consult the repair point"
    );
    assert!(active.fired("opf.lp.warm_repair") > 0);
    assert_eq!(solver.warm_solves(), 0, "failed repair must divert to cold");
    assert_eq!(pair, ref_pair, "cold fallback must be bit-identical");
}

#[test]
fn sparse_cholesky_zero_pivot_recovers_after_firing_once() {
    // case57 crosses both sparse crossovers (57 buses ≥ 48, 56 states
    // ≥ 40), so the estimator gain and the power flow both run their
    // sparse Cholesky refactor paths.
    let cfg = MtdConfig {
        n_attacks: 4,
        ..MtdConfig::default()
    };
    let net = cases::case57();
    let x_pre = net.nominal_reactances();
    let mut x_post = x_pre.clone();
    for l in net.dfacts_branches() {
        x_post[l] *= 1.15;
    }
    let reference = unfaulted(|| {
        let session = MtdSession::builder(cases::case57())
            .config(cfg.clone())
            .build()
            .unwrap();
        session.evaluate(&x_post).unwrap()
    });

    let active = FaultPlan::new(14)
        .fail("linalg.sparse_cholesky.zero_pivot", Trigger::Once)
        .activate();
    let session = MtdSession::builder(cases::case57())
        .config(cfg)
        .build()
        .unwrap();
    let first = session.evaluate(&x_post);
    assert!(
        first.is_err(),
        "injected zero pivot must surface as a typed error, got {first:?}"
    );
    assert_eq!(active.fired("linalg.sparse_cholesky.zero_pivot"), 1);
    // The session is not bricked: the lazy caches held no poisoned
    // state, and the retry reproduces the reference bit for bit.
    let second = session.evaluate(&x_post).expect("session must recover");
    assert_eq!(second.gamma.to_bits(), reference.gamma.to_bits());
    assert_eq!(
        second.smallest_angle.to_bits(),
        reference.smallest_angle.to_bits()
    );
    assert_eq!(second.detection_probs, reference.detection_probs);
}

#[test]
fn eigen_nonconvergence_fault_degrades_to_typed_error_never_panics() {
    let net = cases::case14();
    let reference = unfaulted(|| {
        MtdSession::builder(net.clone())
            .config(tiny_cfg())
            .build()
            .unwrap()
            .select(0.05)
            .unwrap()
    });

    // Always: every principal-angle eigensolve reports
    // NonConvergence. Every objective evaluation of the gradient
    // rounds is infinite, and the γ ceiling behind the unreachable
    // diagnosis fails the same way — so the eigensolver's own typed
    // error is what the select returns.
    {
        let active = FaultPlan::new(15)
            .fail("linalg.eigen.ql_nonconvergence", Trigger::Always)
            .activate();
        let session = MtdSession::builder(net.clone())
            .config(tiny_cfg())
            .build()
            .unwrap();
        let outcome = session.select(0.05);
        assert!(active.fired("linalg.eigen.ql_nonconvergence") > 0);
        assert!(
            matches!(
                outcome,
                Err(MtdError::Numerical(LinalgError::NonConvergence { .. }))
            ),
            "expected the eigensolver's NonConvergence, got {outcome:?}"
        );
    }

    // Once: the first eigensolve of the run fails. With a single start
    // that costs the whole first penalty round, and the next round still
    // produces a real selection. Once the fault is spent a fresh session
    // reproduces the reference bit for bit under the still-active
    // (exhausted) plan.
    {
        let active = FaultPlan::new(16)
            .fail("linalg.eigen.ql_nonconvergence", Trigger::Once)
            .activate();
        let session = MtdSession::builder(net.clone())
            .config(tiny_cfg())
            .build()
            .unwrap();
        let sel = session
            .select(0.05)
            .expect("a lost first round must not end the selection");
        assert!(sel.gamma >= 0.05 - 1e-3);
        assert_eq!(active.fired("linalg.eigen.ql_nonconvergence"), 1);
        let recovered = MtdSession::builder(net.clone())
            .config(tiny_cfg())
            .build()
            .unwrap()
            .select(0.05)
            .expect("spent fault must leave no residue");
        assert_eq!(recovered.gamma.to_bits(), reference.gamma.to_bits());
        assert_eq!(recovered.x_post, reference.x_post);
    }
}

#[test]
fn eigen_nonconvergence_on_evaluate_is_typed_and_recovers() {
    // Every principal angle of an evaluation comes from one pencil
    // eigensolve against the session's cached basis, so a warm case57
    // evaluate reaches the QL eigensolver exactly once per call.
    let net = cases::case57();
    let mut x_post = net.nominal_reactances();
    for l in net.dfacts_branches() {
        x_post[l] *= 1.15;
    }
    let (session, reference) = unfaulted(|| {
        let session = MtdSession::builder(cases::case57())
            .config(tiny_cfg())
            .build()
            .unwrap();
        let reference = session.evaluate(&x_post).unwrap();
        (session, reference)
    });

    let active = FaultPlan::new(19)
        .fail("linalg.eigen.ql_nonconvergence", Trigger::Once)
        .activate();
    let first = session.evaluate(&x_post);
    assert!(
        matches!(
            first,
            Err(MtdError::Numerical(LinalgError::NonConvergence { .. }))
        ),
        "injected QL non-convergence must surface as a typed error, got {first:?}"
    );
    assert_eq!(active.fired("linalg.eigen.ql_nonconvergence"), 1);
    // The warm caches (basis, ensemble, gain symbolic) hold no poisoned
    // state: the retry reproduces the unfaulted evaluation bit for bit.
    let second = session.evaluate(&x_post).expect("session must recover");
    assert_eq!(second.gamma.to_bits(), reference.gamma.to_bits());
    assert_eq!(
        second.smallest_angle.to_bits(),
        reference.smallest_angle.to_bits()
    );
    assert_eq!(second.detection_probs, reference.detection_probs);
}

#[test]
fn eigen_nonconvergence_on_the_ceiling_is_typed_and_never_cached() {
    let net = cases::case14();
    let reference = unfaulted(|| {
        let session = MtdSession::builder(net.clone())
            .config(tiny_cfg())
            .build()
            .unwrap();
        session.max_gamma().unwrap().clone()
    });

    let session = MtdSession::builder(net).config(tiny_cfg()).build().unwrap();
    {
        let active = FaultPlan::new(20)
            .fail("linalg.eigen.ql_nonconvergence", Trigger::Always)
            .activate();
        // Every evaluation of the ceiling search fails: the ceiling is
        // the eigensolver's typed error, not a number.
        let outcome = session.max_gamma();
        assert!(active.fired("linalg.eigen.ql_nonconvergence") > 0);
        assert!(
            matches!(
                outcome,
                Err(MtdError::Numerical(LinalgError::NonConvergence { .. }))
            ),
            "expected the eigensolver's NonConvergence, got {outcome:?}"
        );
    }
    // The failure was not cached: once the fault is dropped, the same
    // session computes the unfaulted ceiling bit for bit.
    let (x, gamma) = unfaulted(|| session.max_gamma().unwrap().clone());
    assert_eq!(gamma.to_bits(), reference.1.to_bits());
    assert_eq!(x, reference.0);
}

#[test]
fn lbfgs_line_search_fault_keeps_iterate_and_still_selects() {
    let net = cases::case14();
    let active = FaultPlan::new(17)
        .fail("opf.lbfgs.line_search", Trigger::Always)
        .activate();
    let session = MtdSession::builder(net).config(tiny_cfg()).build().unwrap();
    // Every Armijo backtrack is cut short: the optimizer keeps its
    // current iterate (start 0's nudge already rotates Col(H) well past
    // γ_th here), and the exact-γ audit accepts it as a real selection.
    let sel = session
        .select(0.05)
        .expect("line-search exhaustion must never abort selection");
    assert!(
        active.fired("opf.lbfgs.line_search") > 0,
        "fault never fired"
    );
    assert!(sel.gamma >= 0.05 - 1e-3);
}

#[test]
fn estimator_poison_fault_recovers_bit_identically() {
    let net = cases::case4();
    let x_pre = net.nominal_reactances();
    let mut x_post = x_pre.clone();
    for l in net.dfacts_branches() {
        x_post[l] *= 1.2;
    }
    let reference = unfaulted(|| {
        let session = MtdSession::builder(cases::case4())
            .config(tiny_cfg())
            .build()
            .unwrap();
        session.evaluate(&x_post).unwrap()
    });

    let active = FaultPlan::new(18)
        .fail("core.session.estimator_poison", Trigger::Once)
        .activate();
    let session = MtdSession::builder(cases::case4())
        .config(tiny_cfg())
        .build()
        .unwrap();
    // The injection poisons the estimator-context mutex for real (a
    // scoped thread panics while holding it — the panic backtrace on
    // stderr is the fault, not a test failure). The session's lock
    // helper must recover the guard instead of cascading the panic.
    let eval = session
        .evaluate(&x_post)
        .expect("poisoned lock must recover");
    assert_eq!(active.fired("core.session.estimator_poison"), 1);
    assert_eq!(eval.gamma.to_bits(), reference.gamma.to_bits());
    assert_eq!(eval.detection_probs, reference.detection_probs);
    // And the session keeps serving after the poison cleared.
    let eval2 = session.evaluate(&x_post).expect("post-poison evaluate");
    assert_eq!(eval2.detection_probs, reference.detection_probs);
}

/// The two chaos suites together must cover every registered point:
/// this file owns the pipeline points, `crates/serve/tests/chaos.rs`
/// owns the `serve.*` points.
#[test]
fn matrix_covers_every_non_serve_registry_point() {
    let covered = [
        "core.session.estimator_poison",
        "linalg.eigen.ql_nonconvergence",
        "linalg.sparse_cholesky.zero_pivot",
        "opf.lbfgs.line_search",
        "opf.lp.warm_repair",
        "opf.lp.warm_resolve",
    ];
    let expected: Vec<&str> = registry::ALL
        .iter()
        .copied()
        .filter(|name| !name.starts_with("serve."))
        .collect();
    assert_eq!(covered.as_slice(), expected.as_slice());
}
