//! `timeline-case14`: the paper's Figs. 10–11 day with the settings of
//! `scenarios/timeline_case14.toml`. One op is one simulated day:
//! `begin_day` followed by 24 `step_hour` calls.

use std::time::Duration;

use gridmtd_core::effectiveness::build_attack_set_with_h;
use gridmtd_core::{selection, spa, HourOutcome, MtdConfig, MtdError, MtdSession, TimelineOptions};
use gridmtd_estimation::EstimatorContext;
use gridmtd_opf::solve_opf;
use gridmtd_powergrid::cases;
use gridmtd_traces::{nyiso_winter_weekday, LoadTrace};

use super::{
    cold_setups, common_layer_metrics, err, replay_angles, replay_detection, replay_opf, session,
    timed, tracing_overhead_ms, Args, Quality, Run, GAMMA_TOL, THREADS,
};
use crate::gen::config_seed;
use crate::stats::{mean, ms, now};
use crate::trace::Spans;

/// Latency limit of one simulated day.
pub const LIMIT: Duration = Duration::from_secs(15);

/// Hours per simulated day.
const HOURS: usize = 24;

/// Hours whose layers the traced run replays: off-peak and loaded.
const REPLAY_HOURS: [usize; 6] = [2, 8, 11, 15, 19, 22];

/// The scenario's configuration under the workload seed.
fn config(seed: u64) -> MtdConfig {
    MtdConfig {
        noise_sigma_mw: 0.1,
        n_attacks: 200,
        n_starts: 2,
        max_evals_per_start: 200,
        seed,
        ..MtdConfig::default()
    }
}

fn options() -> TimelineOptions {
    TimelineOptions {
        target_delta: 0.9,
        target_eta: 0.9,
        gamma_grid: vec![0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4],
    }
}

/// One simulated day.
struct Day {
    outcomes: Vec<HourOutcome>,
    hour_ms: Vec<f64>,
    /// The attacker's knowledge (`x_pre`) at the start of each hour,
    /// plus the reactances after the last hour.
    x_pre: Vec<Vec<f64>>,
}

fn run_day(s: &mut MtdSession, trace: &LoadTrace, opts: &TimelineOptions) -> Result<Day, MtdError> {
    s.begin_day(trace, opts)?;
    let mut day = Day {
        outcomes: Vec::with_capacity(HOURS),
        hour_ms: Vec::with_capacity(HOURS),
        x_pre: vec![s.x_pre().to_vec()],
    };
    while s.hours_remaining() > 0 {
        let t = now();
        day.outcomes.push(s.step_hour()?);
        day.hour_ms.push(ms(t.elapsed()));
        day.x_pre.push(s.x_pre().to_vec());
    }
    Ok(day)
}

fn gamma_met(o: &HourOutcome) -> bool {
    o.gamma_defense >= o.gamma_threshold - GAMMA_TOL
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Run, String> {
    let opts = options();
    // The scenario's fixed load trace: the seed picks the instances'
    // `MtdConfig::seed` only. Jittering the loads moved the hours' γ-grid
    // choices, and with them the day's work, by about ±30 %.
    let trace = nyiso_winter_weekday();

    // The untimed op of every set-up is one whole day, so fewer set-ups
    // fit in a run: three.
    let (setup_s, mut sessions, firsts) = cold_setups(args.setups(3), |k| {
        let mut s = session(cases::case14(), &config(config_seed(args.seed, k)), THREADS)?;
        let day = run_day(&mut s, &trace, &opts).map_err(err)?;
        Ok((s, day))
    })?;
    let check = |k: usize, outcomes: &[HourOutcome]| {
        outcomes.len() == HOURS && outcomes == firsts[k].outcomes && outcomes.iter().all(gamma_met)
    };

    // Day d runs on instance d mod n and must repeat its cold day.
    let n = sessions.len();
    let mut hour_ms = Vec::new();
    // Two days fit in a run: the op tail is the maximum.
    let phase = timed(args, 2, |d| {
        let k = d as usize % n;
        match run_day(&mut sessions[k], &trace, &opts) {
            Ok(day) => {
                hour_ms.extend(&day.hour_ms);
                check(k, &day.outcomes)
            }
            Err(_) => false,
        }
    });
    let mut run = Run::new(setup_s, phase, LIMIT);
    run.tail_is_max = true;
    run.decisions_ms = hour_ms;
    if !firsts
        .iter()
        .all(|d| d.outcomes.len() == HOURS && d.outcomes.iter().all(gamma_met))
    {
        run.check_failures
            .push("a set-up day lacks 24 hours or misses gamma_th".into());
    }

    // Accuracy over every instance's cold day.
    let o: Vec<&HourOutcome> = firsts.iter().flat_map(|d| &d.outcomes).collect();
    let count = |f: &dyn Fn(&HourOutcome) -> bool| o.iter().filter(|h| f(h)).count() as u64;
    let ratios: Vec<f64> = o.iter().map(|h| h.cost_with_mtd / h.cost_no_mtd).collect();
    let eta: Vec<f64> = o.iter().map(|h| h.effectiveness).collect();
    run.quality = Quality {
        gamma_met: (count(&gamma_met), o.len() as u64),
        cost_ratio: mean(&ratios),
        // The hour records η'(0.9), the share of the ensemble detected
        // with probability ≥ 0.9; it stands in for the mean probability.
        detect_mean: mean(&eta),
        target_met: (count(&|h| h.target_met), o.len() as u64),
    };

    if args.trace {
        let cfg = config(config_seed(args.seed, 0));
        let nominal_total = sessions[0].network().total_load();
        trace_layers(&mut run, &cfg, &trace, nominal_total, &firsts[0])?;
        speedup(&mut run, &cfg, &trace, &opts)?;
    }
    Ok(run)
}

/// Replays the write path of sampled hours on the day's own inputs:
/// the problem (1) baseline at the hour's load, `H` and QR basis of the
/// stale knowledge, the hour's attack ensemble, angle queries, detector
/// build and scoring, and OPF solves from the stale to the new
/// reactances.
fn trace_layers(
    run: &mut Run,
    cfg: &MtdConfig,
    trace: &LoadTrace,
    nominal_total: f64,
    day: &Day,
) -> Result<(), String> {
    let mut tr = Spans::default();
    let base = cases::case14();
    let mut est = EstimatorContext::new();
    let mut warm = Vec::new();
    for h in REPLAY_HOURS {
        let net = base.scale_loads(trace.scaling_factor(h, nominal_total));
        let prev = (h + HOURS - 1) % HOURS;
        let net_prev = base.scale_loads(trace.scaling_factor(prev, nominal_total));
        let (x_stale, x_now) = (&day.x_pre[h], &day.x_pre[h + 1]);
        tr.span("selection.baseline", || {
            selection::baseline_opf(&net, x_stale, cfg)
        })
        .map_err(err)?;
        let hs = super::replay_h_builds(&mut tr, &net, &[x_stale.clone(), x_now.clone()])?;
        let basis = tr
            .span("spa.basis_build", || spa::GammaBasis::new(&hs[0]))
            .map_err(err)?;
        let dispatch = solve_opf(&net_prev, x_stale, &cfg.opf_options())
            .map_err(err)?
            .dispatch;
        let attacks = tr
            .span("attack.ensemble_build", || {
                build_attack_set_with_h(&net, &hs[0], x_stale, &dispatch, cfg)
            })
            .map_err(err)?;
        replay_angles(
            &mut tr,
            &hs[0],
            &basis,
            &hs[1],
            &["spa.sin_sq", "spa.gamma_exact", "spa.smallest_angle"],
        )
        .map_err(err)?;
        replay_detection(&mut tr, cfg, &mut est, &hs[1], &attacks, THREADS)?;
        warm.push(replay_opf(&mut tr, &net, cfg, x_stale, x_now, 4)?);
    }
    common_layer_metrics(run, &tr);
    run.layer.insert("opf.warm_frac", mean(&warm));
    run.layer
        .insert("trace.overhead_ms", tracing_overhead_ms(&run.phase.lat_ms));

    // Candidates the hour's γ-grid tuner evaluated: whole chunks of
    // `THREADS` speculative candidates, up to the chunk holding the
    // chosen threshold.
    let grid = options().gamma_grid;
    let candidates: Vec<f64> = day
        .outcomes
        .iter()
        .map(|o| {
            let idx = grid
                .iter()
                .position(|&g| g == o.gamma_threshold)
                .unwrap_or(grid.len() - 1);
            ((idx / THREADS + 1) * THREADS).min(grid.len()) as f64
        })
        .collect();
    run.layer
        .insert("timeline.candidates_per_hour", mean(&candidates));
    Ok(())
}

/// Loaded hours 9–12 of the day on one thread against two, from fresh
/// sessions.
fn speedup(
    run: &mut Run,
    cfg: &MtdConfig,
    trace: &LoadTrace,
    opts: &TimelineOptions,
) -> Result<(), String> {
    let loaded = LoadTrace::new(trace.hourly()[9..13].to_vec());
    let time = |threads: usize| -> Result<f64, String> {
        let mut s = session(cases::case14(), cfg, threads)?;
        let t = now();
        s.simulate_day(&loaded, opts).map_err(err)?;
        Ok(t.elapsed().as_secs_f64())
    };
    let one = time(1)?;
    let two = time(THREADS)?;
    run.layer.insert("parallel.speedup_2t", one / two);
    Ok(())
}
