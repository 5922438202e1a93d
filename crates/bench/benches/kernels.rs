//! Criterion benches for the numerical kernels underlying every
//! experiment: subspace angles (the principal-angle pencil against an
//! orthonormal basis of `Col(H_pre)`: the basis QR, the values-only
//! angle spectrum, the dense differentiable `sin²γ` state and the
//! selection's low-rank one), DC power flow,
//! WLS + BDD residual evaluation and closed-form attack scoring (one
//! attack on case14; the paper's 1000-attack ensemble on case118, by
//! WLS residuals and through the session's low-rank scorer).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::OnceLock;

use gridmtd_attack::FdiAttack;
use gridmtd_core::effectiveness::detection_probabilities_parallel;
use gridmtd_core::{spa, MtdSession};
use gridmtd_estimation::{BadDataDetector, NoiseModel, StateEstimator};
use gridmtd_powergrid::{cases, dcpf};

fn bench_gamma(c: &mut Criterion) {
    let mut group = c.benchmark_group("gamma");
    for (name, net) in [("case14", cases::case14()), ("case30", cases::case30())] {
        let x0 = net.nominal_reactances();
        let h0 = net.measurement_matrix(&x0).unwrap();
        let mut x1 = x0.clone();
        for (k, l) in net.dfacts_branches().into_iter().enumerate() {
            x1[l] *= if k % 2 == 0 { 1.3 } else { 0.7 };
        }
        let h1 = net.measurement_matrix(&x1).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| spa::gamma(black_box(&h0), black_box(&h1)).unwrap())
        });
    }
    group.finish();
}

/// The γ kernels on case118 (`H` is 488 × 117, 52 D-FACTS lines): the
/// per-`x_pre` basis QR; the dense `sin²γ` state of a given `H` (one
/// `k × k` pencil eigensolve plus one inverse-iteration eigenvector),
/// which evaluation keeps; and the low-rank state plus the full D-FACTS
/// gradient straight from reactances, which every gradient evaluation
/// of the selection pays.
fn bench_gamma_kernel(c: &mut Criterion) {
    let net = cases::case118();
    let x0 = net.nominal_reactances();
    let h0 = net.measurement_matrix(&x0).unwrap();
    let mut x1 = x0.clone();
    for (k, l) in net.dfacts_branches().into_iter().enumerate() {
        x1[l] *= if k % 2 == 0 { 1.2 } else { 0.85 };
    }
    let h1 = net.measurement_matrix(&x1).unwrap();
    let basis = spa::GammaBasis::new(&h0).unwrap();
    c.bench_function("gamma_basis/case118", |b| {
        b.iter(|| spa::GammaBasis::new(black_box(&h0)).unwrap())
    });
    c.bench_function("gamma_state/case118", |b| {
        b.iter(|| basis.sin_sq_to(black_box(&h1)).unwrap())
    });
    let kernel = spa::GammaKernel::new(&net, &x0, &h0).unwrap();
    let dfacts = net.dfacts_branches();
    c.bench_function("gamma_state_at/case118", |b| {
        b.iter(|| {
            let x = black_box(&x1);
            let state = kernel.sin_sq_at(&net, x).unwrap();
            dfacts
                .iter()
                .map(|&l| state.gradient_entry(&net.measurement_matrix_derivative(x, l).unwrap()))
                .sum::<f64>()
        })
    });
}

fn bench_dcpf(c: &mut Criterion) {
    let mut group = c.benchmark_group("dc_power_flow");
    for (name, net, dispatch) in [
        (
            "case14",
            cases::case14(),
            Some(vec![150.0, 40.0, 20.0, 30.0, 19.0]),
        ),
        (
            "case30",
            cases::case30(),
            Some(vec![60.0, 55.0, 25.0, 20.0, 15.0, 14.2]),
        ),
        ("case57", cases::case57(), None),
        ("case118", cases::case118(), None),
        ("case300", cases::case300(), None),
    ] {
        // Synthetic scale cases: split the load evenly across units (the
        // power flow does not need a merit-order dispatch).
        let dispatch = dispatch.unwrap_or_else(|| {
            let share = net.total_load() / net.n_gens() as f64;
            vec![share; net.n_gens()]
        });
        let x = net.nominal_reactances();
        group.bench_function(name, |b| {
            b.iter(|| dcpf::solve_dispatch(black_box(&net), &x, &dispatch).unwrap())
        });
    }
    group.finish();
}

fn bench_sparse_refactor(c: &mut Criterion) {
    // The MTD loop shape: the topology is fixed, only reactance values
    // drift. With a warm `PfContext` each solve is a numeric-only
    // refactorization (the symbolic factorization is cached), which is
    // the amortized per-perturbation cost inside selection objective
    // evaluations, Monte-Carlo trials and timeline hours.
    let net = cases::case118();
    let share = net.total_load() / net.n_gens() as f64;
    let dispatch = vec![share; net.n_gens()];
    let x0 = net.nominal_reactances();
    let dfacts = net.dfacts_branches();
    let xs: Vec<Vec<f64>> = (0..8)
        .map(|k| {
            let mut x = x0.clone();
            for (j, &l) in dfacts.iter().enumerate() {
                let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
                x[l] *= 1.0 + sign * 0.01 * (k as f64 + 1.0);
            }
            x
        })
        .collect();
    let mut ctx = gridmtd_powergrid::PfContext::new();
    // Prime the cache so the measurement is refactor + solve only.
    dcpf::solve_dispatch_with(&net, &x0, &dispatch, &mut ctx).unwrap();
    let mut i = 0usize;
    c.bench_function("sparse_refactor/case118", |b| {
        b.iter(|| {
            let x = &xs[i % xs.len()];
            i += 1;
            dcpf::solve_dispatch_with(black_box(&net), x, &dispatch, &mut ctx).unwrap()
        })
    });
}

fn bench_measurement_matrix(c: &mut Criterion) {
    let net = cases::case30();
    let x = net.nominal_reactances();
    c.bench_function("measurement_matrix/case30", |b| {
        b.iter(|| net.measurement_matrix(black_box(&x)).unwrap())
    });
}

fn bench_bdd(c: &mut Criterion) {
    let net = cases::case14();
    let x = net.nominal_reactances();
    let h = net.measurement_matrix(&x).unwrap();
    let noise = NoiseModel::uniform(h.rows(), 0.1);
    let est = StateEstimator::new(h, &noise).unwrap();
    let bdd = BadDataDetector::new(est, 5e-4);
    let pf = dcpf::solve_dispatch(&net, &x, &[150.0, 40.0, 20.0, 30.0, 19.0]).unwrap();
    let z = pf.measurement_vector();

    c.bench_function("bdd_residual_test/case14", |b| {
        b.iter(|| bdd.test(black_box(&z)).unwrap())
    });

    // Estimator construction (per-MTD cost in sweeps).
    let h2 = net.measurement_matrix(&x).unwrap();
    c.bench_function("estimator_build/case14", |b| {
        b.iter_batched(
            || h2.clone(),
            |h| StateEstimator::new(h, &noise).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_detection_probability(c: &mut Criterion) {
    let net = cases::case14();
    let x = net.nominal_reactances();
    let h = net.measurement_matrix(&x).unwrap();
    let mut x1 = x.clone();
    for (k, l) in net.dfacts_branches().into_iter().enumerate() {
        x1[l] *= if k % 2 == 0 { 1.4 } else { 0.6 };
    }
    let h1 = net.measurement_matrix(&x1).unwrap();
    let noise = NoiseModel::uniform(h1.rows(), 0.1);
    let est = StateEstimator::new(h1, &noise).unwrap();
    let bdd = BadDataDetector::new(est, 5e-4);
    let c_vec: Vec<f64> = (0..h.cols()).map(|i| 0.002 * (i as f64 + 1.0)).collect();
    let a = h.matvec(&c_vec).unwrap();
    c.bench_function("analytic_detection_probability/case14", |b| {
        b.iter(|| bdd.detection_probability(black_box(&a)).unwrap())
    });
}

/// Closed-form scoring of the paper's 1000-attack case118 ensemble
/// against one seeded D-FACTS perturbation, two ways:
///
/// * `detection_scores/case118_1000`: the residual path, the detector's
///   definition of `λ` (batched WLS residuals of every attack vector)
///   and one noncentral-χ² tail per attack, on a prebuilt detector;
/// * `session_detection/case118_1000`: what every session evaluation
///   runs, `MtdSession::detection_probabilities`: the `H(x_post)` build,
///   the detector's numeric gain factorization, the low-rank
///   factorization of the perturbation's range and one `‖T·u‖²` plus
///   one tail per attack.
///
/// And the whole of a warm `MtdSession::evaluate` on the same step,
/// `session_evaluate/case118`: the above plus both principal angles off
/// the session's γ kernel.
///
/// All fan out across the worker threads. Set-up (case118 session,
/// ensemble, post-MTD detector) runs seconds, so it is lazy: a filtered
/// run that excludes every row never pays for it.
fn bench_detection_scores(c: &mut Criterion) {
    let setup = || {
        let session = MtdSession::builder(cases::case118()).build().unwrap();
        let attacks = session.attacks().unwrap().to_vec();
        let net = session.network();
        let mut rng = StdRng::seed_from_u64(22);
        let step = rng.gen_range(0.05..0.08);
        let mut x_post = session.x_pre().to_vec();
        for l in net.dfacts_branches() {
            x_post[l] *= if rng.gen_bool(0.5) {
                1.0 + step
            } else {
                1.0 - step
            };
        }
        let cfg = session.config();
        let h_post = net.measurement_matrix(&x_post).unwrap();
        let noise = NoiseModel::uniform(h_post.rows(), cfg.noise_sigma_mw);
        let bdd = BadDataDetector::new(StateEstimator::new(h_post, &noise).unwrap(), cfg.alpha);
        // Warm the session's gain symbolic and γ kernel, as an
        // evaluating session is.
        session.evaluate(&x_post).unwrap();
        (session, x_post, bdd, attacks)
    };
    type State = (MtdSession, Vec<f64>, BadDataDetector, Vec<FdiAttack>);
    let state: OnceLock<State> = OnceLock::new();
    c.bench_function("detection_scores/case118_1000", |b| {
        let (_, _, bdd, attacks) = state.get_or_init(setup);
        b.iter(|| detection_probabilities_parallel(black_box(bdd), attacks).unwrap())
    });
    c.bench_function("session_detection/case118_1000", |b| {
        let (session, x_post, _, _) = state.get_or_init(setup);
        b.iter(|| session.detection_probabilities(black_box(x_post)).unwrap())
    });
    c.bench_function("session_evaluate/case118", |b| {
        let (session, x_post, _, _) = state.get_or_init(setup);
        b.iter(|| session.evaluate(black_box(x_post)).unwrap())
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_gamma, bench_gamma_kernel, bench_dcpf, bench_sparse_refactor, bench_measurement_matrix, bench_bdd, bench_detection_probability, bench_detection_scores
}
criterion_main!(kernels);
