//! Compiles a [`ScenarioSpec`] into a session-routed sweep plan and
//! executes it.
//!
//! Every spec builds one [`MtdSession`] (the stateful handle owning the
//! warm caches of the whole pipeline) and expresses its sweep as typed
//! [`Request`]s; [`MtdSession::run_batch`] fans them across the worker
//! threads. Execution is deterministic end to end: every
//! Monte-Carlo stream is seeded from the spec, batch responses land in
//! request order for any worker count, and session-routed results are
//! bit-identical to the historical free-function pipeline — so the JSON
//! and CSV artifacts remain a pure function of the spec, pinned byte
//! for byte by the golden-file tests.

use gridmtd_core::session::batch::{Request, Response};
use gridmtd_core::{
    HourOutcome, LearningOptions, MtdSession, RandomTrial, TimelineOptions, TradeoffCurve,
};
use gridmtd_powergrid::{cases, Network};
use gridmtd_stats::empirical::{summarize, Summary};
use gridmtd_traces::LoadTrace;

use crate::error::ScenarioError;
use crate::json::Json;
use crate::spec::{
    CaseId, GridSpec, KeyspaceSweep, LearningSweep, LoadSpec, ScenarioSpec, SweepSpec,
    TimelineSweep, TradeoffSweep, XPrePolicy,
};

/// Everything a run produces, in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifacts {
    /// Structured results (deterministic; golden-tested).
    pub json: String,
    /// Flat per-point rows for plotting.
    pub csv: String,
    /// Short human-readable lines for the CLI.
    pub summary: Vec<String>,
}

/// Builds the network a spec asks for (at nominal loads).
pub fn build_network(grid: &GridSpec) -> Network {
    match grid.case {
        CaseId::Case4 => cases::case4(),
        CaseId::Case14 => cases::case14(),
        CaseId::Case30 => cases::case30(),
        CaseId::Case57 => cases::case57(),
        CaseId::Case118 => cases::case118(),
        CaseId::Case300 => cases::case300(),
        CaseId::Synthetic { buses, seed } => {
            let config = cases::SyntheticConfig {
                n_buses: buses,
                ..cases::SyntheticConfig::default()
            };
            cases::synthetic(&config, seed)
        }
    }
}

/// Runs a validated spec to completion.
///
/// # Errors
///
/// [`ScenarioError::Model`] when the underlying OPF/selection/estimation
/// pipeline fails; spec-level problems were already caught at parse
/// time.
pub fn run_spec(spec: &ScenarioSpec) -> Result<RunArtifacts, ScenarioError> {
    run_spec_with_threads(spec, None)
}

/// [`run_spec`] with an explicit worker-thread cap, handed to the
/// underlying [`MtdSession`] (`gridmtd run --threads` plumbs through
/// here). Results are bit-identical for any worker count.
///
/// # Errors
///
/// See [`run_spec`].
pub fn run_spec_with_threads(
    spec: &ScenarioSpec,
    threads: Option<usize>,
) -> Result<RunArtifacts, ScenarioError> {
    let base = build_network(&spec.grid);
    match &spec.sweep {
        SweepSpec::Tradeoff(sweep) => run_tradeoff(spec, &base, sweep, threads),
        SweepSpec::Keyspace(sweep) => run_keyspace(spec, &base, sweep, threads),
        SweepSpec::Timeline(sweep) => run_timeline(spec, &base, sweep, threads),
        SweepSpec::Learning(sweep) => run_learning(spec, &base, sweep, threads),
    }
}

/// Builds the spec's session: the network at its in-effect loads and
/// the pre-perturbation reactances (the attacker's knowledge), with the
/// spec configuration validated at the session boundary.
fn build_session(
    spec: &ScenarioSpec,
    base: &Network,
    threads: Option<usize>,
) -> Result<MtdSession, ScenarioError> {
    let with_common = |builder: gridmtd_core::MtdSessionBuilder| match threads {
        Some(n) => builder.threads(n),
        None => builder,
    };
    let policy = |builder: gridmtd_core::MtdSessionBuilder| match spec.grid.x_pre {
        XPrePolicy::Nominal => builder,
        XPrePolicy::Spread => builder.spread_x_pre(),
    };
    let session = |net: Network| {
        with_common(policy(MtdSession::builder(net).config(spec.config.clone()))).build()
    };
    match &spec.grid.load {
        LoadSpec::Nominal => Ok(session(base.clone())?),
        LoadSpec::Scaled(s) => Ok(session(base.scale_loads(*s))?),
        LoadSpec::TraceHour {
            trace,
            hour,
            attacker_hour,
        } => {
            let tr = gridmtd_traces::by_name(trace).expect("trace validated at parse time");
            let total = base.total_load();
            let net_now = base.scale_loads(tr.scaling_factor(*hour, total));
            match attacker_hour {
                // The attacker's knowledge is the baseline-OPF reactance
                // setting of the staler hour (the paper's Fig. 9 setup):
                // a sibling session at that hour's loads computes it.
                Some(ah) => {
                    let net_attacker = base.scale_loads(tr.scaling_factor(*ah, total));
                    let x_pre = session(net_attacker)?.baseline()?.x.clone();
                    Ok(with_common(
                        MtdSession::builder(net_now)
                            .config(spec.config.clone())
                            .x_pre(x_pre),
                    )
                    .build()?)
                }
                None => Ok(session(net_now)?),
            }
        }
    }
}

/// Unwraps one batch response into the expected variant (any other
/// variant is an engine-internal invariant violation — the engine built
/// the request, so it knows the shape of the answer).
macro_rules! expect_response {
    ($variant:ident, $response:expr) => {
        match $response? {
            Response::$variant(inner) => inner,
            other => unreachable!(
                concat!(stringify!($variant), " request produced {:?}"),
                other
            ),
        }
    };
}

fn run_tradeoff(
    spec: &ScenarioSpec,
    base: &Network,
    sweep: &TradeoffSweep,
    threads: Option<usize>,
) -> Result<RunArtifacts, ScenarioError> {
    let session = build_session(spec, base, threads)?;
    let net = session.network().clone();

    // The variant axes (seed × attack magnitude): each variant is a full
    // threshold sweep, expressed as one typed batch request. Variants
    // fan out in axis order; the sweep inside each variant fans out
    // again over thresholds (nested fan-outs are allowed and still
    // deterministic).
    let variants: Vec<(u64, f64)> = sweep
        .seeds
        .iter()
        .flat_map(|&s| sweep.attack_ratios.iter().map(move |&r| (s, r)))
        .collect();
    let requests: Vec<Request> = variants
        .iter()
        .map(|&(seed, ratio)| Request::Tradeoff {
            gamma_thresholds: sweep.gamma_thresholds.clone(),
            deltas: sweep.deltas.clone(),
            seed: Some(seed),
            attack_ratio: Some(ratio),
        })
        .collect();
    let curves: Vec<Result<TradeoffCurve, ScenarioError>> = session
        .run_batch(&requests)
        .into_iter()
        .map(|response| Ok(expect_response!(Tradeoff, response)))
        .collect();

    let mut variant_blocks = Vec::new();
    let mut csv =
        String::from("seed,attack_ratio,gamma_threshold,gamma_achieved,cost_increase_percent");
    for d in &sweep.deltas {
        csv.push_str(&format!(",eta_{d}"));
    }
    csv.push('\n');
    let mut summary = Vec::new();

    for (&(seed, ratio), curve) in variants.iter().zip(curves) {
        let curve = curve?;
        let costs: Vec<f64> = curve
            .points
            .iter()
            .map(|p| p.cost_increase_percent)
            .collect();
        let gammas: Vec<f64> = curve.points.iter().map(|p| p.gamma_achieved).collect();
        let points: Vec<Json> = curve
            .points
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("gamma_threshold", Json::Num(p.gamma_threshold)),
                    ("gamma_achieved", Json::Num(p.gamma_achieved)),
                    ("cost_increase_percent", Json::Num(p.cost_increase_percent)),
                    ("eta", eta_json(&p.effectiveness)),
                ])
            })
            .collect();
        for p in &curve.points {
            csv.push_str(&format!(
                "{seed},{ratio},{},{},{}",
                p.gamma_threshold, p.gamma_achieved, p.cost_increase_percent
            ));
            for &(_, e) in &p.effectiveness {
                csv.push_str(&format!(",{e}"));
            }
            csv.push('\n');
        }
        summary.push(format!(
            "seed {seed}, attack ratio {ratio}: {} points, gamma ceiling {:.3} rad, cost {}%",
            curve.points.len(),
            curve.gamma_ceiling,
            range_str(&costs),
        ));
        variant_blocks.push(Json::obj(vec![
            ("seed", Json::Int(seed as i64)),
            ("attack_ratio", Json::Num(ratio)),
            ("baseline_cost", Json::Num(curve.baseline_cost)),
            ("gamma_ceiling", Json::Num(curve.gamma_ceiling)),
            ("points", Json::Arr(points)),
            ("cost_increase_summary", summary_json(&summarize(&costs))),
            ("gamma_achieved_summary", summary_json(&summarize(&gammas))),
        ]));
    }

    let results = Json::obj(vec![
        ("gamma_thresholds", Json::floats(&sweep.gamma_thresholds)),
        ("deltas", Json::floats(&sweep.deltas)),
        ("variants", Json::Arr(variant_blocks)),
    ]);
    Ok(RunArtifacts {
        json: document(spec, &net, results),
        csv,
        summary,
    })
}

fn run_keyspace(
    spec: &ScenarioSpec,
    base: &Network,
    sweep: &KeyspaceSweep,
    threads: Option<usize>,
) -> Result<RunArtifacts, ScenarioError> {
    let session = build_session(spec, base, threads)?;
    let net = session.network().clone();

    // One study per seed, each a typed batch request on a derived
    // session (own ensemble, shared topology caches).
    let requests: Vec<Request> = sweep
        .seeds
        .iter()
        .map(|&seed| Request::Keyspace {
            fraction: sweep.fraction,
            n_trials: sweep.n_trials,
            deltas: sweep.deltas.clone(),
            seed: Some(seed),
        })
        .collect();
    let studies = session.run_batch(&requests);

    let mut variant_blocks = Vec::new();
    let mut csv = String::from("seed,trial,gamma");
    for d in &sweep.deltas {
        csv.push_str(&format!(",eta_{d}"));
    }
    csv.push('\n');
    let mut summary = Vec::new();

    for (&seed, study) in sweep.seeds.iter().zip(studies) {
        let trials: Vec<RandomTrial> = expect_response!(Keyspace, study);
        let gammas: Vec<f64> = trials.iter().map(|t| t.gamma).collect();
        let trial_blocks: Vec<Json> = trials
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("trial", Json::Int(t.trial as i64)),
                    ("gamma", Json::Num(t.gamma)),
                    ("eta", eta_json(&t.effectiveness)),
                ])
            })
            .collect();
        for t in &trials {
            csv.push_str(&format!("{seed},{},{}", t.trial, t.gamma));
            for &(_, e) in &t.effectiveness {
                csv.push_str(&format!(",{e}"));
            }
            csv.push('\n');
        }
        // Per-δ effectiveness across trials: the spread is the point of
        // the study (Figs. 7–8 show random MTD cannot guarantee it).
        let eta_summaries: Vec<(String, Json)> = sweep
            .deltas
            .iter()
            .map(|&d| {
                let etas: Vec<f64> = trials.iter().filter_map(|t| t.eta(d)).collect();
                (format!("{d}"), summary_json(&summarize(&etas)))
            })
            .collect();
        summary.push(format!(
            "seed {seed}: {} trials, gamma {}",
            trials.len(),
            range_str(&gammas),
        ));
        variant_blocks.push(Json::obj(vec![
            ("seed", Json::Int(seed as i64)),
            ("trials", Json::Arr(trial_blocks)),
            ("gamma_summary", summary_json(&summarize(&gammas))),
            ("eta_summary", Json::Obj(eta_summaries)),
        ]));
    }

    let results = Json::obj(vec![
        ("fraction", Json::Num(sweep.fraction)),
        ("n_trials", Json::Int(sweep.n_trials as i64)),
        ("deltas", Json::floats(&sweep.deltas)),
        ("variants", Json::Arr(variant_blocks)),
    ]);
    Ok(RunArtifacts {
        json: document(spec, &net, results),
        csv,
        summary,
    })
}

fn run_timeline(
    spec: &ScenarioSpec,
    base: &Network,
    sweep: &TimelineSweep,
    threads: Option<usize>,
) -> Result<RunArtifacts, ScenarioError> {
    let full = gridmtd_traces::by_name(&sweep.trace).expect("trace validated at parse time");
    let trace = match sweep.hours {
        Some(h) => LoadTrace::new(full.hourly()[..h].to_vec()),
        None => full,
    };
    let opts = TimelineOptions {
        target_delta: sweep.target_delta,
        target_eta: sweep.target_eta,
        gamma_grid: sweep.gamma_grid.clone(),
    };
    // The timeline runs on the base (unscaled) network — the trace
    // itself rescales the loads hour by hour.
    let session = {
        let builder = MtdSession::builder(base.clone()).config(spec.config.clone());
        match threads {
            Some(n) => builder.threads(n),
            None => builder,
        }
        .build()?
    };
    let response = session.run_request(&Request::Timeline {
        hours: trace.hourly().to_vec(),
        options: opts.clone(),
    });
    let outcomes: Vec<HourOutcome> = expect_response!(Timeline, response);

    let costs: Vec<f64> = outcomes.iter().map(|o| o.cost_increase_percent).collect();
    let met = outcomes.iter().filter(|o| o.target_met).count();
    let hour_blocks: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            Json::obj(vec![
                ("hour", Json::Int(o.hour as i64)),
                ("total_load_mw", Json::Num(o.total_load_mw)),
                ("cost_no_mtd", Json::Num(o.cost_no_mtd)),
                ("cost_with_mtd", Json::Num(o.cost_with_mtd)),
                ("cost_increase_percent", Json::Num(o.cost_increase_percent)),
                ("gamma_drift", Json::Num(o.gamma_drift)),
                ("gamma_defense", Json::Num(o.gamma_defense)),
                ("gamma_current", Json::Num(o.gamma_current)),
                ("gamma_threshold", Json::Num(o.gamma_threshold)),
                ("effectiveness", Json::Num(o.effectiveness)),
                ("target_met", Json::Bool(o.target_met)),
            ])
        })
        .collect();

    let mut csv = String::from(
        "hour,total_load_mw,cost_no_mtd,cost_with_mtd,cost_increase_percent,\
         gamma_drift,gamma_defense,gamma_current,gamma_threshold,effectiveness,target_met\n",
    );
    for o in &outcomes {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            o.hour,
            o.total_load_mw,
            o.cost_no_mtd,
            o.cost_with_mtd,
            o.cost_increase_percent,
            o.gamma_drift,
            o.gamma_defense,
            o.gamma_current,
            o.gamma_threshold,
            o.effectiveness,
            o.target_met
        ));
    }

    let results = Json::obj(vec![
        ("trace", Json::Str(sweep.trace.clone())),
        ("hours", Json::Int(outcomes.len() as i64)),
        ("target_delta", Json::Num(sweep.target_delta)),
        ("target_eta", Json::Num(sweep.target_eta)),
        ("gamma_grid", Json::floats(&sweep.gamma_grid)),
        ("outcomes", Json::Arr(hour_blocks)),
        ("cost_increase_summary", summary_json(&summarize(&costs))),
        ("hours_target_met", Json::Int(met as i64)),
    ]);
    let summary = vec![format!(
        "{} hours simulated, target met {met}/{}; cost increase mean {:.2}%",
        outcomes.len(),
        outcomes.len(),
        summarize(&costs).mean
    )];
    Ok(RunArtifacts {
        json: document(spec, base, results),
        csv,
        summary,
    })
}

fn run_learning(
    spec: &ScenarioSpec,
    base: &Network,
    sweep: &LearningSweep,
    threads: Option<usize>,
) -> Result<RunArtifacts, ScenarioError> {
    let session = build_session(spec, base, threads)?;
    let net = session.network().clone();

    let opts = LearningOptions {
        sample_counts: sweep.sample_counts.clone(),
        n_probe_attacks: sweep.n_probe_attacks,
        subspace_dim: sweep.subspace_dim,
        load_jitter: sweep.load_jitter,
        target_delta: sweep.target_delta,
    };
    let response = session.run_request(&Request::Learning {
        gamma_threshold: sweep.gamma_threshold,
        options: opts,
    });
    let flow: gridmtd_core::LearningOutcome = expect_response!(Learning, response);
    let (gamma_achieved, cost_increase, points) =
        (flow.gamma_achieved, flow.cost_increase_percent, flow.points);

    let detections: Vec<f64> = points.iter().map(|p| p.mean_detection).collect();
    let point_blocks: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("n_samples", Json::Int(p.n_samples as i64)),
                ("mean_detection", Json::Num(p.mean_detection)),
                ("stealthy_fraction", Json::Num(p.stealthy_fraction)),
            ])
        })
        .collect();

    let mut csv = String::from("n_samples,mean_detection,stealthy_fraction\n");
    for p in &points {
        csv.push_str(&format!(
            "{},{},{}\n",
            p.n_samples, p.mean_detection, p.stealthy_fraction
        ));
    }

    let results = Json::obj(vec![
        (
            "gamma_threshold",
            sweep.gamma_threshold.map_or(Json::Null, Json::Num),
        ),
        ("gamma_achieved", Json::Num(gamma_achieved)),
        ("cost_increase_percent", Json::Num(cost_increase)),
        ("n_probe_attacks", Json::Int(sweep.n_probe_attacks as i64)),
        ("load_jitter", Json::Num(sweep.load_jitter)),
        ("target_delta", Json::Num(sweep.target_delta)),
        ("points", Json::Arr(point_blocks)),
        (
            "mean_detection_summary",
            summary_json(&summarize(&detections)),
        ),
    ]);
    let summary = vec![format!(
        "attacker relearning over {} checkpoints: mean detection {:.3} -> {:.3}",
        points.len(),
        points.first().map_or(0.0, |p| p.mean_detection),
        points.last().map_or(0.0, |p| p.mean_detection),
    )];
    Ok(RunArtifacts {
        json: document(spec, &net, results),
        csv,
        summary,
    })
}

/// Assembles the full result document around a kind-specific `results`
/// block.
fn document(spec: &ScenarioSpec, net: &Network, results: Json) -> String {
    let scenario = Json::obj(vec![
        ("name", Json::Str(spec.name.clone())),
        ("kind", Json::Str(spec.sweep.kind().to_string())),
        ("description", Json::Str(spec.description.clone())),
    ]);
    let mut grid_fields = vec![
        ("case", Json::Str(spec.grid.case.name())),
        ("n_buses", Json::Int(net.n_buses() as i64)),
        ("n_branches", Json::Int(net.n_branches() as i64)),
        ("n_dfacts", Json::Int(net.dfacts_branches().len() as i64)),
        ("total_load_mw", Json::Num(net.total_load())),
        (
            "x_pre",
            Json::Str(
                match spec.grid.x_pre {
                    XPrePolicy::Nominal => "nominal",
                    XPrePolicy::Spread => "spread",
                }
                .to_string(),
            ),
        ),
    ];
    match &spec.grid.load {
        LoadSpec::Nominal => {}
        LoadSpec::Scaled(s) => grid_fields.push(("load_scale", Json::Num(*s))),
        LoadSpec::TraceHour {
            trace,
            hour,
            attacker_hour,
        } => {
            grid_fields.push(("trace", Json::Str(trace.clone())));
            grid_fields.push(("hour", Json::Int(*hour as i64)));
            if let Some(ah) = attacker_hour {
                grid_fields.push(("attacker_hour", Json::Int(*ah as i64)));
            }
        }
    }
    let c = &spec.config;
    let config = Json::obj(vec![
        ("alpha", Json::Num(c.alpha)),
        ("noise_sigma_mw", Json::Num(c.noise_sigma_mw)),
        ("attack_ratio", Json::Num(c.attack_ratio)),
        ("n_attacks", Json::Int(c.n_attacks as i64)),
        ("eta_max", Json::Num(c.eta_max)),
        ("seed", Json::Int(c.seed as i64)),
        ("n_starts", Json::Int(c.n_starts as i64)),
        (
            "max_evals_per_start",
            Json::Int(c.max_evals_per_start as i64),
        ),
        ("pwl_segments", Json::Int(c.opf.pwl_segments as i64)),
    ]);
    Json::obj(vec![
        (
            "schema",
            Json::Str("gridmtd.scenario.result/v1".to_string()),
        ),
        ("scenario", scenario),
        ("grid", Json::obj(grid_fields)),
        ("config", config),
        ("results", results),
    ])
    .pretty()
}

fn eta_json(pairs: &[(f64, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|&(d, e)| (format!("{d}"), Json::Num(e)))
            .collect(),
    )
}

/// `min..max` of a sample to 3 decimals, or a note when it is empty
/// (e.g. every swept threshold sat above the achievable γ ceiling).
fn range_str(xs: &[f64]) -> String {
    let s = summarize(xs);
    if s.n == 0 {
        "n/a (no points)".to_string()
    } else {
        format!("{:.3}..{:.3}", s.min, s.max)
    }
}

fn summary_json(s: &Summary) -> Json {
    Json::obj(vec![
        ("n", Json::Int(s.n as i64)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("mean", Json::Num(s.mean)),
        ("std_dev", Json::Num(s.std_dev)),
        ("median", Json::Num(s.median)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    fn tiny_tradeoff_spec() -> ScenarioSpec {
        parse_spec(
            r#"
[scenario]
name = "tiny"
kind = "tradeoff"
description = "engine unit test"

[grid]
case = "case4"

[config]
n_attacks = 40
n_starts = 1
max_evals_per_start = 60

[sweep]
gamma_thresholds = [0.02, 0.05]
deltas = [0.5, 0.9]
"#,
        )
        .unwrap()
    }

    #[test]
    fn tradeoff_run_is_deterministic_and_structured() {
        let spec = tiny_tradeoff_spec();
        let a = run_spec(&spec).unwrap();
        let b = run_spec(&spec).unwrap();
        assert_eq!(a, b, "same spec must produce identical artifacts");
        assert!(a
            .json
            .contains("\"schema\": \"gridmtd.scenario.result/v1\""));
        assert!(a.json.contains("\"kind\": \"tradeoff\""));
        assert!(a.json.contains("\"gamma_ceiling\""));
        let lines: Vec<&str> = a.csv.lines().collect();
        assert_eq!(
            lines[0],
            "seed,attack_ratio,gamma_threshold,gamma_achieved,cost_increase_percent,eta_0.5,eta_0.9"
        );
        assert!(lines.len() >= 2, "csv should carry the sweep points");
    }

    #[test]
    fn learning_run_reports_decay_points() {
        let spec = parse_spec(
            r#"
[scenario]
name = "learn"
kind = "learning"

[grid]
case = "case4"

[config]
n_attacks = 20
n_starts = 1
max_evals_per_start = 40

[sweep]
sample_counts = [8, 64]
n_probe_attacks = 10
"#,
        )
        .unwrap();
        let run = run_spec(&spec).unwrap();
        assert!(run.json.contains("\"gamma_threshold\": null"));
        assert!(run.json.contains("\"n_samples\": 64"));
        assert_eq!(run.csv.lines().count(), 3);
    }

    #[test]
    fn keyspace_run_covers_all_seeds() {
        let spec = parse_spec(
            r#"
[scenario]
name = "keys"
kind = "keyspace"

[grid]
case = "case4"

[config]
n_attacks = 30

[sweep]
fraction = 0.05
n_trials = 4
deltas = [0.9]
seeds = [1, 2]
"#,
        )
        .unwrap();
        let run = run_spec(&spec).unwrap();
        // 2 seeds x 4 trials + header.
        assert_eq!(run.csv.lines().count(), 9);
        assert!(run.json.contains("\"eta_summary\""));
    }
}
