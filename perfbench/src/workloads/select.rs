//! `select-case118`: one caller runs `MtdSession::select(0.1)` on a warm
//! case118 session with the default budgets.

use std::time::Duration;

use gridmtd_core::{MtdConfig, MtdSelection, MtdSession};
use gridmtd_powergrid::cases;

use super::{
    cold_setups, common_layer_metrics, err, replay_angles, replay_basis, replay_h_builds,
    replay_opf, session, timed, tracing_overhead_ms, Args, Quality, Run, GAMMA_TH, GAMMA_TOL,
    SETUPS, TARGET_DELTA, TARGET_ETA, THREADS,
};
use crate::gen::select_config_seed;
use crate::stats::{mean, median, ms, now};
use crate::trace::Spans;

/// Latency limit of one selection.
pub const LIMIT: Duration = Duration::from_millis(2500);

/// Runs the workload.
pub fn run(args: &Args) -> Result<Run, String> {
    // A cold selection is the noisiest set-up: seven of them.
    let n = args.setups(SETUPS + 2);
    let config = |k: usize| MtdConfig {
        seed: select_config_seed(args.seed, k, n),
        ..MtdConfig::default()
    };
    let (setup_s, sessions, firsts) = cold_setups(n, |k| {
        let s = session(cases::case118(), &config(k), THREADS)?;
        let sel = s.select(GAMMA_TH).map_err(err)?;
        Ok((s, sel))
    })?;
    // Op i runs on instance i mod n and must repeat that instance's
    // cold selection bit for bit.
    let check =
        |k: usize, sel: &MtdSelection| sel == &firsts[k] && sel.gamma >= GAMMA_TH - GAMMA_TOL;
    // About a dozen selections fit in a run: too few for an upper
    // percentile with 10 samples beyond it, so the tail is the maximum.
    let phase = timed(args, 2, |i| {
        let k = i as usize % n;
        sessions[k].select(GAMMA_TH).is_ok_and(|sel| check(k, &sel))
    });
    let mut run = Run::new(setup_s, phase, LIMIT);
    run.tail_is_max = true;

    // Cost and benefit of each instance's selection (untimed).
    let mut q = Quality::default();
    let (mut ratios, mut detect) = (Vec::new(), Vec::new());
    for (s, sel) in sessions.iter().zip(&firsts) {
        let eval = s.evaluate(&sel.x_post).map_err(err)?;
        q.gamma_met.0 += u64::from(sel.gamma >= GAMMA_TH - GAMMA_TOL);
        q.gamma_met.1 += 1;
        q.target_met.0 += u64::from(eval.effectiveness(TARGET_DELTA) >= TARGET_ETA);
        q.target_met.1 += 1;
        ratios.push(sel.opf.cost / s.opf_pre().map_err(err)?.cost);
        detect.push(eval.mean_detection());
    }
    q.cost_ratio = mean(&ratios);
    q.detect_mean = mean(&detect);
    run.quality = q;

    if args.trace {
        trace(&mut run, &sessions[0], &config(0), &firsts[0])?;
    }
    Ok(run)
}

/// Replays the layers under one selection on its own inputs: `H`
/// builds and angle queries at `x_post`, the QR basis of `H(x_pre)`,
/// and cold, warm and dual-gradient OPF solves along `x_pre → x_post`.
fn trace(run: &mut Run, s: &MtdSession, cfg: &MtdConfig, sel: &MtdSelection) -> Result<(), String> {
    let mut tr = Spans::default();
    let net = s.network();
    let h_pre = s.h_pre().map_err(err)?;
    let basis = s.gamma_basis().map_err(err)?;
    let hs = replay_h_builds(&mut tr, net, &vec![sel.x_post.clone(); 4])?;
    replay_basis(&mut tr, h_pre, 2)?;
    for (i, h) in hs.iter().enumerate() {
        let which: &[&str] = if i < 2 {
            &["spa.sin_sq", "spa.gamma_exact"]
        } else {
            &["spa.sin_sq"]
        };
        replay_angles(&mut tr, h_pre, basis, h, which).map_err(err)?;
    }
    let warm_frac = replay_opf(&mut tr, net, cfg, s.x_pre(), &sel.x_post, 8)?;
    common_layer_metrics(run, &tr);
    run.layer.insert("opf.warm_frac", warm_frac);
    run.layer
        .insert("trace.overhead_ms", tracing_overhead_ms(&run.phase.lat_ms));

    // The same warm selection on one thread.
    let one = session(cases::case118(), cfg, 1)?;
    one.select(GAMMA_TH).map_err(err)?;
    let t = now();
    one.select(GAMMA_TH).map_err(err)?;
    let p50 = median(&run.phase.lat_ms);
    run.layer
        .insert("parallel.speedup_2t", ms(t.elapsed()) / p50);
    Ok(())
}
