//! Criterion benches for the experiment-level pipelines: DC-OPF solves,
//! full effectiveness evaluations (the inner loop of Figs. 6–9) and one
//! SPA-constrained selection step (problem (4)).
//!
//! `dc_opf/*` measures the **in-loop** workload — a persistent
//! [`OpfContext`] that carries its working set of line limits and LP
//! basis from one solve to the next while the reactances drift, exactly
//! how `select_mtd`'s L-BFGS trajectory consumes the solver. `dc_opf_cold/*` keeps the from-scratch reference
//! visible, and `dc_opf_grad/case118` adds the cost gradient (LP duals
//! plus one adjoint solve) that every L-BFGS evaluation requests.
//!
//! `session_select_warm/case118` vs `select_mtd_with/case118` pins the
//! session-layer contract: routing a selection through a warm
//! [`MtdSession`] must not be slower than hand-threading the hoisted
//! QR basis of `H(x_pre)` into `select_mtd_with` (the CI gate holds the
//! ratio at ≤ 1.05×; on the sparse path the session is strictly faster
//! because its primed power-flow prototype amortizes the symbolic
//! factorization the hand-threaded path re-runs per context).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gridmtd_core::{effectiveness, selection, spa, MtdConfig, MtdSession};
use gridmtd_opf::{solve_opf, solve_opf_grad_with, solve_opf_with, OpfContext, OpfOptions};
use gridmtd_powergrid::{cases, Network};

/// A short cycle of gently drifting reactance vectors, mimicking one
/// optimizer trajectory.
fn drift_cycle(net: &Network) -> Vec<Vec<f64>> {
    let x0 = net.nominal_reactances();
    (0..8)
        .map(|k| {
            let mut x = x0.clone();
            for (j, l) in net.dfacts_branches().into_iter().enumerate() {
                let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
                x[l] *= 1.0 + sign * 0.004 * ((k % 4) as f64 + 1.0);
            }
            x
        })
        .collect()
}

fn bench_opf(c: &mut Criterion) {
    let opts = OpfOptions::default();

    let mut group = c.benchmark_group("dc_opf");
    for (name, net) in [
        ("case4", cases::case4()),
        ("case14", cases::case14()),
        ("case30", cases::case30()),
        ("case57", cases::case57()),
        ("case118", cases::case118()),
    ] {
        let xs = drift_cycle(&net);
        let mut ctx = OpfContext::new();
        let mut i = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let x = &xs[i % xs.len()];
                i += 1;
                solve_opf_with(black_box(&net), x, &opts, &mut ctx).unwrap()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("dc_opf_cold");
    for (name, net) in [
        ("case30", cases::case30()),
        ("case57", cases::case57()),
        ("case118", cases::case118()),
        ("case300", cases::case300()),
    ] {
        let x = net.nominal_reactances();
        group.bench_function(name, |b| {
            b.iter(|| solve_opf(black_box(&net), &x, &opts).unwrap())
        });
    }
    group.finish();

    // The gradient solve of every L-BFGS evaluation in problem (4): LP
    // duals plus the adjoint solve, on a persistent context.
    let net = cases::case118();
    let xs = drift_cycle(&net);
    let mut ctx = OpfContext::new();
    let mut i = 0usize;
    c.bench_function("dc_opf_grad/case118", |b| {
        b.iter(|| {
            let x = &xs[i % xs.len()];
            i += 1;
            solve_opf_grad_with(black_box(&net), x, &opts, &mut ctx).unwrap()
        })
    });
}

fn bench_effectiveness(c: &mut Criterion) {
    // The inner loop of the Fig. 6 sweeps: score one perturbation against
    // a prebuilt ensemble (100 attacks here; 1000 in the paper runs).
    let net = cases::case14();
    let cfg = MtdConfig {
        n_attacks: 100,
        ..MtdConfig::default()
    };
    let x_pre = net.nominal_reactances();
    let opf = solve_opf(&net, &x_pre, &cfg.opf_options()).unwrap();
    let attacks = effectiveness::build_attack_set(&net, &x_pre, &opf.dispatch, &cfg).unwrap();
    let mut x_post = x_pre.clone();
    for (k, l) in net.dfacts_branches().into_iter().enumerate() {
        x_post[l] *= if k % 2 == 0 { 1.3 } else { 0.7 };
    }
    c.bench_function("effectiveness_eval/case14_100attacks", |b| {
        b.iter(|| {
            effectiveness::evaluate_with_attacks(black_box(&net), &x_pre, &x_post, &attacks, &cfg)
                .unwrap()
        })
    });
}

fn bench_selection(c: &mut Criterion) {
    // One reduced-budget multistart round of the SPA-constrained OPF.
    let net = cases::case14();
    let cfg = MtdConfig {
        n_starts: 1,
        max_evals_per_start: 120,
        ..MtdConfig::default()
    };
    let x_pre = net.nominal_reactances();
    c.bench_function("select_mtd/case14_1start_120evals", |b| {
        b.iter(|| selection::select_mtd(black_box(&net), &x_pre, 0.05, &cfg).unwrap())
    });
}

fn bench_session(c: &mut Criterion) {
    // The session-layer gate pair: one reduced-budget case118 selection,
    // once through a warm session and once through the hand-threaded
    // hoisted path (precomputed H + basis, fresh contexts inside).
    // Identical budgets and threshold, so the rows are directly
    // comparable within one run.
    // γ_th = 0 keeps the search in its first penalty round, so every
    // iteration runs the same deterministic amount of work — tight
    // enough for the 1.05× within-run gate to be meaningful.
    //
    // Setup (case118 H build, QR, session warm-up) runs seconds, so it
    // is lazy: a filtered `cargo bench` run that excludes both rows
    // never pays for it (`bench_function` skips the closure entirely).
    let cfg = MtdConfig {
        n_starts: 1,
        max_evals_per_start: 20,
        ..MtdConfig::default()
    };
    let gamma_th = 0.0;
    let warm: std::sync::OnceLock<(Network, Vec<f64>, spa::GammaBasis, MtdSession)> =
        std::sync::OnceLock::new();
    let warm = |cfg: &MtdConfig| {
        warm.get_or_init(|| {
            let net = cases::case118();
            let x_pre = net.nominal_reactances();
            let basis = spa::GammaBasis::new(&net.measurement_matrix(&x_pre).unwrap()).unwrap();
            let session = MtdSession::builder(net.clone())
                .config(cfg.clone())
                .build()
                .unwrap();
            session.select(gamma_th).unwrap(); // warm every cache once
            (net, x_pre, basis, session)
        })
    };

    // The hand-threaded reference runs first: machine warm-up (page
    // cache, frequency ramp) penalizes the first row measured, and the
    // gate must not pass on that accident.
    c.bench_function("select_mtd_with/case118", |b| {
        let (net, x_pre, basis, _) = warm(&cfg);
        b.iter(|| selection::select_mtd_with(black_box(net), x_pre, basis, gamma_th, &cfg).unwrap())
    });

    c.bench_function("session_select_warm/case118", |b| {
        let (_, _, _, session) = warm(&cfg);
        b.iter(|| black_box(session).select(gamma_th).unwrap())
    });
}

fn bench_gradient_selection(c: &mut Criterion) {
    // The gradient-selection contract rows on both sparse-path cases.
    // Each runs through its own warm session — the serving
    // configuration — so the rows measure the steady-state selection
    // cost, not H builds or symbolic factorizations. The CI gate holds
    // both rows at ≤ 2x their committed baseline.
    let gamma_th = 0.0;
    let budgeted = MtdConfig {
        n_starts: 1,
        max_evals_per_start: 20,
        ..MtdConfig::default()
    };
    let warm_session = |net: Network| {
        let session = MtdSession::builder(net)
            .config(budgeted.clone())
            .build()
            .unwrap();
        session.select(gamma_th).unwrap(); // fill every warm cache once
        session
    };

    let grad57: std::sync::OnceLock<MtdSession> = std::sync::OnceLock::new();
    c.bench_function("select_mtd_grad/case57", |b| {
        let s = grad57.get_or_init(|| warm_session(cases::case57()));
        b.iter(|| black_box(s).select(gamma_th).unwrap())
    });

    let grad118: std::sync::OnceLock<MtdSession> = std::sync::OnceLock::new();
    c.bench_function("select_mtd_grad/case118", |b| {
        let s = grad118.get_or_init(|| warm_session(cases::case118()));
        b.iter(|| black_box(s).select(gamma_th).unwrap())
    });
}

criterion_group! {
    name = pipeline;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_opf, bench_effectiveness, bench_selection
}
// The case118 selection pair runs seconds per iteration; a smaller
// sample keeps the CI bench step affordable while the within-run ratio
// gate stays meaningful (both rows share one process and machine
// state).
criterion_group! {
    name = session_pipeline;
    config = Criterion::default().sample_size(3).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_session, bench_gradient_selection
}
criterion_main!(pipeline, session_pipeline);
