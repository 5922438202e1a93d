//! `evaluate-case118`: one caller runs `MtdSession::evaluate(x_post)` on
//! a warm case118 session, one seeded D-FACTS perturbation per op.

use std::time::Duration;

use gridmtd_core::effectiveness::build_attack_set_with_h;
use gridmtd_core::{MtdConfig, MtdEvaluation, MtdSession};
use gridmtd_estimation::EstimatorContext;
use gridmtd_opf::{solve_opf_with, OpfContext};
use gridmtd_powergrid::cases;

use super::{
    cold_setups, common_layer_metrics, err, replay_angles, replay_basis, replay_detection,
    replay_h_builds, session, timed, tracing_overhead_ms, Args, Quality, Run, MIN_OPS, SETUPS,
    THREADS,
};
use crate::gen::{config_seed, evaluate_input};
use crate::stats::{median, ms, now};
use crate::trace::Spans;

/// Latency limit of one evaluation.
pub const LIMIT: Duration = Duration::from_millis(800);

/// Inputs the accuracy metrics cover: timed ops 1..=K, whatever the
/// machine's speed, so they stay a function of the seed alone.
const QUALITY_INPUTS: u64 = 48;

/// An evaluation passes when its mean detection probability is
/// strictly inside (0, 1): the perturbation sizes are chosen for
/// partial detection, so 0 or 1 means a broken pipeline.
fn check(e: &MtdEvaluation) -> bool {
    let d = e.mean_detection();
    d > 0.0 && d < 1.0
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Run, String> {
    let config = |k: usize| MtdConfig {
        seed: config_seed(args.seed, k),
        ..MtdConfig::default()
    };
    let net = cases::case118();
    let x_pre = net.nominal_reactances();
    let input = |i: u64| evaluate_input(args.seed, i, &net, &x_pre);

    // The untimed op of every set-up scores input 0.
    let (setup_s, sessions, firsts) = cold_setups(args.setups(SETUPS), |k| {
        let s = session(cases::case118(), &config(k), THREADS)?;
        let e = s.evaluate(&input(0)).map_err(err)?;
        Ok((s, e))
    })?;
    let n = sessions.len() as u64;
    // Timed op i scores input i + 1 on instance i mod n; the results
    // the accuracy metrics need are kept.
    let eval = |i: u64| sessions[(i % n) as usize].evaluate(&input(i + 1));

    let mut kept: Vec<MtdEvaluation> = Vec::new();
    let phase = timed(args, MIN_OPS, |i| match eval(i) {
        Ok(e) => {
            let ok = check(&e);
            if i < QUALITY_INPUTS {
                kept.push(e);
            }
            ok
        }
        Err(_) => false,
    });
    let mut run = Run::new(setup_s, phase, LIMIT);
    if !firsts.iter().all(check) {
        run.check_failures
            .push("a set-up evaluation has detection 0 or 1".into());
    }

    // A slow machine may not reach K timed ops; score the rest untimed.
    while (kept.len() as u64) < QUALITY_INPUTS {
        kept.push(eval(kept.len() as u64).map_err(err)?);
    }
    if eval(0).map_err(err)? != kept[0] {
        run.check_failures
            .push("the same input scored twice gave different results".into());
    }
    let detect: Vec<f64> = kept.iter().map(MtdEvaluation::mean_detection).collect();
    // Operating cost of each perturbation, warm-chained OPF solves.
    let pre_cost = sessions[0].opf_pre().map_err(err)?.cost;
    let opts = config(0).opf_options();
    let mut ctx = OpfContext::new();
    let mut ratios = Vec::with_capacity(kept.len());
    for i in 1..=QUALITY_INPUTS {
        let opf = solve_opf_with(&net, &input(i), &opts, &mut ctx).map_err(err)?;
        ratios.push(opf.cost / pre_cost);
    }
    run.quality = Quality {
        // No selections or targets here: both fractions are vacuous.
        gamma_met: (0, 0),
        cost_ratio: crate::stats::mean(&ratios),
        detect_mean: crate::stats::mean(&detect),
        target_met: (0, 0),
    };

    if args.trace {
        trace(&mut run, &sessions[0], &config(0), &input)?;
    }
    Ok(run)
}

/// Replays the layers under one evaluation on the workload's own
/// perturbations: `H` builds, both SVD angles, the detector's numeric
/// factorization and the 1000-attack scoring; plus the set-up work
/// (QR basis, ensemble, cold OPF).
fn trace(
    run: &mut Run,
    s: &MtdSession,
    cfg: &MtdConfig,
    input: &dyn Fn(u64) -> Vec<f64>,
) -> Result<(), String> {
    let mut tr = Spans::default();
    let net = s.network();
    let h_pre = s.h_pre().map_err(err)?;
    let basis = s.gamma_basis().map_err(err)?;
    let attacks = s.attacks().map_err(err)?;
    let xs: Vec<Vec<f64>> = (1..=4).map(input).collect();
    let hs = replay_h_builds(&mut tr, net, &xs)?;
    let mut est = EstimatorContext::new();
    for h in &hs {
        replay_angles(
            &mut tr,
            h_pre,
            basis,
            h,
            &["spa.gamma_exact", "spa.smallest_angle"],
        )
        .map_err(err)?;
        replay_detection(&mut tr, cfg, &mut est, h, attacks, THREADS)?;
    }
    replay_basis(&mut tr, h_pre, 2)?;
    let dispatch = &s.opf_pre().map_err(err)?.dispatch;
    for _ in 0..2 {
        tr.span("attack.ensemble_build", || {
            build_attack_set_with_h(net, h_pre, s.x_pre(), dispatch, cfg)
        })
        .map_err(err)?;
    }
    tr.span("opf.cold_solve", || {
        solve_opf_with(net, s.x_pre(), &cfg.opf_options(), &mut OpfContext::new())
    })
    .map_err(err)?;
    common_layer_metrics(run, &tr);
    run.layer
        .insert("trace.overhead_ms", tracing_overhead_ms(&run.phase.lat_ms));

    // The same warm evaluations on one thread.
    let one = session(cases::case118(), cfg, 1)?;
    one.evaluate(&input(0)).map_err(err)?;
    let mut lat = Vec::new();
    for i in 1..=3 {
        let t = now();
        one.evaluate(&input(i)).map_err(err)?;
        lat.push(ms(t.elapsed()));
    }
    let p50 = median(&run.phase.lat_ms);
    run.layer.insert("parallel.speedup_2t", median(&lat) / p50);
    Ok(())
}
