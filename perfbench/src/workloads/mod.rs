//! The four workloads and what they share: the set-up loop, the timed
//! closed loop, and the traced replay of single layer calls.

pub mod evaluate;
pub mod select;
pub mod serve;
pub mod timeline;

use std::collections::BTreeMap;
use std::time::Duration;

use gridmtd_core::effectiveness::detection_probabilities_parallel;
use gridmtd_core::{spa, MtdConfig, MtdError, MtdSession};
use gridmtd_estimation::{BadDataDetector, EstimatorContext, NoiseModel, StateEstimator};
use gridmtd_linalg::Matrix;
use gridmtd_opf::{parallel, solve_opf_grad_with, solve_opf_with, OpfContext};
use gridmtd_powergrid::Network;

use crate::stats::{median, ms, now, Tally};
use crate::trace::{Counters, Spans};

/// γ_th of every selection the benchmark asks for.
pub const GAMMA_TH: f64 = 0.1;
/// Slack of the γ audit check (problem (4) feasibility).
pub const GAMMA_TOL: f64 = 1e-3;
/// δ and η targets of the effectiveness check (the paper's η'(0.9) ≥ 0.9).
pub const TARGET_DELTA: f64 = 0.9;
/// See [`TARGET_DELTA`].
pub const TARGET_ETA: f64 = 0.9;
/// Cold set-ups per run; `setup_s` is their median. A single cold
/// set-up is unsteady (the same case118 set-up took 1.0–2.4 s in
/// back-to-back processes), so each run makes several. The direct
/// workloads give each set-up its own `MtdConfig::seed` and run the
/// timed ops round-robin over the warm instances, so one run's figures
/// cover several configuration seeds rather than one seed's luck.
pub const SETUPS: usize = 5;
/// Busy compute threads of every workload (the VM's core count).
pub const THREADS: usize = 2;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub window: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Cold set-ups to time, `n` in an untraced run: one suffices in a
    /// traced run, which does not report `setup_s`.
    pub fn setups(&self, n: usize) -> usize {
        if self.trace {
            1
        } else {
            n
        }
    }
}

/// Accuracy outcomes of a run; deterministic for a given seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    /// Selections whose audited γ met γ_th, and selections made.
    pub gamma_met: (u64, u64),
    /// Mean MTD cost over the no-MTD cost.
    pub cost_ratio: f64,
    /// Mean post-MTD detection probability.
    pub detect_mean: f64,
    /// Decisions reaching η'(0.9) ≥ 0.9, and decisions made.
    pub target_met: (u64, u64),
}

/// The timed phase of a closed loop.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Latency of every op, in order.
    pub lat_ms: Vec<f64>,
    /// Whether each op succeeded and passed its output checks.
    pub ok: Vec<bool>,
    /// Wall time of the phase.
    pub elapsed_s: f64,
    /// Program counters advanced during the phase.
    pub work: Counters,
}

/// Everything a workload hands to the report.
#[derive(Debug, Default)]
pub struct Run {
    /// Cold set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// The timed phase.
    pub phase: Phase,
    /// Latencies of the single decisions inside the ops, when an op
    /// holds several (the timeline's hours).
    pub decisions_ms: Vec<f64>,
    /// The op tail is the maximum: the workload makes too few ops per
    /// run for a percentile with [`crate::stats::TAIL_BEYOND`] samples
    /// beyond it to be an upper one.
    pub tail_is_max: bool,
    /// Op accounting.
    pub tally: Tally,
    /// Accuracy outcomes.
    pub quality: Quality,
    /// Per-layer values of a traced run.
    pub layer: BTreeMap<&'static str, f64>,
    /// Failed checks that belong to no single timed op.
    pub check_failures: Vec<String>,
}

impl Run {
    /// Assembles a run from its timed phase, counting each op against
    /// `limit`.
    pub fn new(setup_s: Vec<f64>, phase: Phase, limit: Duration) -> Run {
        let mut tally = Tally::default();
        for (&l, &ok) in phase.lat_ms.iter().zip(&phase.ok) {
            tally.record(ok, Duration::from_secs_f64(l / 1e3), limit);
        }
        Run {
            setup_s,
            phase,
            tally,
            ..Run::default()
        }
    }
}

/// Set-up times, warm instances and their first results.
pub type Setups<S, R> = (Vec<f64>, Vec<S>, Vec<R>);

/// Builds `setups` fresh instances, timing each one's construction plus
/// its first (untimed) op; `setup(k)` builds instance `k`. Returns the
/// set-up times, the instances and their first results. The timed phase
/// then runs on the warm instances.
pub fn cold_setups<S, R>(
    setups: usize,
    mut setup: impl FnMut(usize) -> Result<(S, R), String>,
) -> Result<Setups<S, R>, String> {
    let mut times = Vec::with_capacity(setups);
    let mut instances = Vec::with_capacity(setups);
    let mut firsts = Vec::with_capacity(setups);
    for k in 0..setups.max(1) {
        let t = now();
        let (s, r) = setup(k)?;
        times.push(t.elapsed().as_secs_f64());
        instances.push(s);
        firsts.push(r);
    }
    Ok((times, instances, firsts))
}

/// A closed loop with one caller: starts ops until starting another
/// would, at the median op time so far, run past `window`, but always
/// runs at least `min_ops`. `op(i)` returns whether op `i` succeeded
/// and passed its checks.
pub fn closed_loop(window: Duration, min_ops: usize, mut op: impl FnMut(u64) -> bool) -> Phase {
    let before = Counters::now();
    let start = now();
    let mut phase = Phase::default();
    loop {
        let done = phase.lat_ms.len();
        if done >= min_ops.max(1) {
            let typical = Duration::from_secs_f64(median(&phase.lat_ms) / 1e3);
            if start.elapsed() + typical > window {
                break;
            }
        }
        let t = now();
        let ok = op(done as u64);
        phase.lat_ms.push(ms(t.elapsed()));
        phase.ok.push(ok);
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase.work = Counters::now().since(before);
    phase
}

/// The timed phase. In a traced run every odd op runs inside a span,
/// the only tracing work on the op path; the median of the odd ops
/// minus that of the even ones is the tracing overhead. The two
/// interleave, so host drift during the run cancels out.
pub fn timed(args: &Args, min_ops: usize, mut op: impl FnMut(u64) -> bool) -> Phase {
    if !args.trace {
        return closed_loop(args.window, min_ops, op);
    }
    let mut spans = Spans::default();
    closed_loop(args.window, min_ops, |i| {
        if i % 2 == 1 {
            spans.span("op", || op(i))
        } else {
            op(i)
        }
    })
}

/// Median latency of the odd (traced) ops minus that of the even
/// (untraced) ones; see [`timed`].
pub fn tracing_overhead_ms(lat_ms: &[f64]) -> f64 {
    let pick = |parity: usize| -> Vec<f64> {
        lat_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, &l)| l)
            .collect()
    };
    median(&pick(1)) - median(&pick(0))
}

/// Fewest ops of a run whose op is short enough to afford them: enough
/// for the tail rule to find a percentile.
pub const MIN_OPS: usize = crate::stats::TAIL_BEYOND + 1;

/// A session on `net` with `cfg` and an explicit thread budget.
pub fn session(net: Network, cfg: &MtdConfig, threads: usize) -> Result<MtdSession, String> {
    MtdSession::builder(net)
        .config(cfg.clone())
        .threads(threads)
        .build()
        .map_err(err)
}

/// Maps an error of any layer into the run's error text.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Span names behind the per-layer time metrics, with the factor from
/// milliseconds to the metric's unit.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("powergrid.h_build_us", "powergrid.h_build", 1e3),
    ("opf.cold_solve_ms", "opf.cold_solve", 1.0),
    ("opf.warm_solve_ms", "opf.warm_solve", 1.0),
    ("opf.grad_solve_ms", "opf.grad_solve", 1.0),
    ("spa.sin_sq_ms", "spa.sin_sq", 1.0),
    ("spa.gamma_exact_ms", "spa.gamma_exact", 1.0),
    ("spa.smallest_angle_ms", "spa.smallest_angle", 1.0),
    ("spa.basis_build_ms", "spa.basis_build", 1.0),
    (
        "estimation.detector_build_ms",
        "estimation.detector_build",
        1.0,
    ),
    ("attack.score_ms", "attack.score", 1.0),
    ("attack.ensemble_build_ms", "attack.ensemble_build", 1.0),
    ("selection.baseline_ms", "selection.baseline", 1.0),
    ("serve.codec_us", "serve.codec", 1e3),
];

/// Fills the per-layer metrics every traced run derives the same way:
/// span means (absent, and reported as 0, for a layer the workload's
/// replay never called because it is off the workload's path) and
/// per-op counter deltas of the timed phase.
pub fn common_layer_metrics(run: &mut Run, spans: &Spans) {
    for (metric, span, scale) in SPAN_METRICS {
        if let Some(mean) = spans.mean_ms(span) {
            run.layer.insert(metric, mean * scale);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let per_op = |n: u64| n as f64 / run.phase.lat_ms.len().max(1) as f64;
    let w = run.phase.work;
    let counts = [
        ("powergrid.h_builds_per_op", per_op(w.h_builds)),
        ("powergrid.pf_symbolic_per_op", per_op(w.pf_symbolic)),
        ("spa.basis_builds_per_op", per_op(w.basis_builds)),
        ("estimation.gain_symbolic_per_op", per_op(w.gain_symbolic)),
    ];
    run.layer.extend(counts);
    eprintln!("replayed spans (count, mean ms):");
    for (name, n, mean) in spans.summary() {
        eprintln!("  {name:<28} {n:>5} {mean:>11.4}");
    }
}

/// Replays `H` builds of each reactance vector; returns the matrices.
pub fn replay_h_builds(
    tr: &mut Spans,
    net: &Network,
    xs: &[Vec<f64>],
) -> Result<Vec<Matrix>, String> {
    xs.iter()
        .map(|x| {
            tr.span("powergrid.h_build", || net.measurement_matrix(x))
                .map_err(err)
        })
        .collect()
}

/// Replays `reps` QR basis builds of `h_pre`.
pub fn replay_basis(tr: &mut Spans, h_pre: &Matrix, reps: usize) -> Result<(), String> {
    for _ in 0..reps {
        tr.span("spa.basis_build", || spa::GammaBasis::new(h_pre))
            .map_err(err)?;
    }
    Ok(())
}

/// Replays the angle queries of one post-perturbation matrix: the
/// pencil `sin²γ` state (selection's inner loop), the exact-SVD γ
/// (audit and evaluation) and the smallest principal angle
/// (evaluation), each only when `which` names it.
pub fn replay_angles(
    tr: &mut Spans,
    h_pre: &Matrix,
    basis: &spa::GammaBasis,
    h_post: &Matrix,
    which: &[&'static str],
) -> Result<(), MtdError> {
    for &name in which {
        match name {
            "spa.sin_sq" => tr.span(name, || basis.sin_sq_to(h_post)).map(drop)?,
            "spa.gamma_exact" => tr.span(name, || basis.gamma_to(h_post)).map(drop)?,
            "spa.smallest_angle" => tr
                .span(name, || spa::smallest_angle(h_pre, h_post))
                .map(drop)?,
            other => unreachable!("no angle replay named {other}"),
        }
    }
    Ok(())
}

/// Replays one cold OPF at `x_from`, then `steps` warm solves and
/// `steps` dual-gradient solves along the segment to `x_to`, all on one
/// context. Returns the context's share of warm solves.
pub fn replay_opf(
    tr: &mut Spans,
    net: &Network,
    cfg: &MtdConfig,
    x_from: &[f64],
    x_to: &[f64],
    steps: usize,
) -> Result<f64, String> {
    let opts = cfg.opf_options();
    let mut ctx = OpfContext::new();
    tr.span("opf.cold_solve", || {
        solve_opf_with(net, x_from, &opts, &mut ctx)
    })
    .map_err(err)?;
    #[allow(clippy::cast_precision_loss)]
    let point = |k: usize| -> Vec<f64> {
        let t = k as f64 / steps.max(1) as f64;
        x_from
            .iter()
            .zip(x_to)
            .map(|(a, b)| a + t * (b - a))
            .collect()
    };
    for k in 1..=steps {
        let x = point(k);
        tr.span("opf.warm_solve", || {
            solve_opf_with(net, &x, &opts, &mut ctx)
        })
        .map_err(err)?;
    }
    for k in (0..steps).rev() {
        let x = point(k);
        tr.span("opf.grad_solve", || {
            solve_opf_grad_with(net, &x, &opts, &mut ctx)
        })
        .map_err(err)?;
    }
    Ok(crate::stats::ratio(
        ctx.warm_solves(),
        ctx.warm_solves() + ctx.cold_solves(),
    ))
}

/// Replays a post-MTD detector build (numeric phase on a primed gain
/// symbolic, as the session runs it) and the scoring of `attacks`
/// against it on `threads` workers.
pub fn replay_detection(
    tr: &mut Spans,
    cfg: &MtdConfig,
    est: &mut EstimatorContext,
    h_post: &Matrix,
    attacks: &[gridmtd_attack::FdiAttack],
    threads: usize,
) -> Result<(), String> {
    let build = |est: &mut EstimatorContext| {
        let noise = NoiseModel::uniform(h_post.rows(), cfg.noise_sigma_mw);
        StateEstimator::with_context(h_post.clone(), &noise, est)
            .map(|e| BadDataDetector::new(e, cfg.alpha))
    };
    if !est.has_symbolic() {
        build(est).map_err(err)?;
    }
    let bdd = tr
        .span("estimation.detector_build", || build(est))
        .map_err(err)?;
    tr.span("attack.score", || {
        parallel::with_thread_budget(Some(threads), || {
            detection_probabilities_parallel(&bdd, attacks)
        })
    })
    .map_err(err)?;
    Ok(())
}
