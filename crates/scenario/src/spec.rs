//! The typed scenario specification and its TOML (de)serialization.
//!
//! A spec is four tables:
//!
//! * `[scenario]` — `name`, `kind` (`tradeoff` | `keyspace` |
//!   `timeline` | `learning`), and a free-form `description`;
//! * `[grid]` — the benchmark case (including the synthetic
//!   case57/case118 rungs), the pre-perturbation reactance policy, and
//!   an optional operating point (uniform `load_scale`, or a named
//!   `trace` pinned to an `hour`, optionally with a staler
//!   `attacker_hour` knowledge point);
//! * `[config]` — overrides over [`MtdConfig::default`];
//! * `[sweep]` — the kind-specific axes. Grids (`gamma_thresholds`,
//!   `gamma_grid`) are written either as explicit arrays or as
//!   `{ start, stop, steps }` subtables compiled to a linspace.
//!
//! Unknown keys anywhere are **errors**, so typos fail loudly with the
//! offending line instead of silently running the default.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use gridmtd_core::MtdConfig;

use crate::error::ScenarioError;
use crate::toml::{self, Entry, Table, Value};

/// A fully validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name; also names the run directory (letters, digits,
    /// `_`, `-`).
    pub name: String,
    /// Free-form description (shown by `gridmtd list`).
    pub description: String,
    /// Grid case and operating point.
    pub grid: GridSpec,
    /// Experiment configuration (defaults filled in).
    pub config: MtdConfig,
    /// The sweep to execute.
    pub sweep: SweepSpec,
}

/// Which benchmark network to build.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseId {
    /// The paper's 4-bus example (Fig. 3).
    Case4,
    /// IEEE 14-bus with the paper's overrides.
    Case14,
    /// IEEE 30-bus.
    Case30,
    /// Pinned-seed synthetic network at IEEE-57 scale.
    Case57,
    /// Pinned-seed synthetic network at IEEE-118 scale.
    Case118,
    /// Pinned-seed synthetic network at IEEE-300 scale (sparse-backend
    /// stress rung).
    Case300,
    /// Freely parameterized synthetic network.
    Synthetic {
        /// Number of buses (≥ 2).
        buses: usize,
        /// Generation seed.
        seed: u64,
    },
}

impl CaseId {
    /// Canonical spelling used in specs and results.
    pub fn name(&self) -> String {
        match self {
            CaseId::Case4 => "case4".to_string(),
            CaseId::Case14 => "case14".to_string(),
            CaseId::Case30 => "case30".to_string(),
            CaseId::Case57 => "case57".to_string(),
            CaseId::Case118 => "case118".to_string(),
            CaseId::Case300 => "case300".to_string(),
            CaseId::Synthetic { .. } => "synthetic".to_string(),
        }
    }
}

/// Pre-perturbation reactance policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XPrePolicy {
    /// The case's nominal reactances (box centre).
    Nominal,
    /// The spread box corner of
    /// [`gridmtd_core::selection::spread_pre_perturbation`], which makes
    /// the paper's full γ range reachable.
    Spread,
}

/// Operating point of the static (non-timeline) experiments.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSpec {
    /// The case's nominal loads.
    Nominal,
    /// Nominal loads scaled uniformly.
    Scaled(f64),
    /// A named trace pinned to an hour; with `attacker_hour`, the
    /// attacker's knowledge (the pre-perturbation reactances) comes from
    /// the baseline OPF at that staler hour — the paper's Fig. 9 setup.
    TraceHour {
        /// Built-in trace name (see [`gridmtd_traces::BUILTIN_TRACES`]).
        trace: String,
        /// Hour the experiment runs at.
        hour: usize,
        /// Hour the attacker eavesdropped, if different.
        attacker_hour: Option<usize>,
    },
}

/// The `[grid]` table.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Which network to build.
    pub case: CaseId,
    /// Pre-perturbation reactance policy.
    pub x_pre: XPrePolicy,
    /// Operating point.
    pub load: LoadSpec,
}

/// The `[sweep]` table, by scenario kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepSpec {
    /// Effectiveness-vs-cost sweep over γ thresholds (Figs. 6 and 9).
    Tradeoff(TradeoffSweep),
    /// Random-perturbation keyspace study (Figs. 7–8).
    Keyspace(KeyspaceSweep),
    /// Hourly MTD operation over a load trace (Figs. 10–11).
    Timeline(TimelineSweep),
    /// Attacker-relearning timeline (Section IV-A reconfiguration
    /// deadline).
    Learning(LearningSweep),
}

impl SweepSpec {
    /// The spec-file `kind` string.
    pub fn kind(&self) -> &'static str {
        match self {
            SweepSpec::Tradeoff(_) => "tradeoff",
            SweepSpec::Keyspace(_) => "keyspace",
            SweepSpec::Timeline(_) => "timeline",
            SweepSpec::Learning(_) => "learning",
        }
    }
}

/// Axes of a tradeoff sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffSweep {
    /// γ-threshold grid, ascending.
    pub gamma_thresholds: Vec<f64>,
    /// Detection-probability levels δ to report η'(δ) at.
    pub deltas: Vec<f64>,
    /// Attack-magnitude axis (`‖a‖₁/‖z‖₁`); one full sweep per value.
    pub attack_ratios: Vec<f64>,
    /// Seed axis; one full sweep per value.
    pub seeds: Vec<u64>,
}

/// Axes of a keyspace study.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyspaceSweep {
    /// Random-perturbation fraction (the prior work uses 0.02).
    pub fraction: f64,
    /// Monte-Carlo trial count.
    pub n_trials: usize,
    /// δ levels to report η'(δ) at.
    pub deltas: Vec<f64>,
    /// Seed axis; one full study per value.
    pub seeds: Vec<u64>,
}

/// Axes of a timeline simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSweep {
    /// Built-in trace name.
    pub trace: String,
    /// Number of leading trace hours to simulate (`None` = full trace).
    pub hours: Option<usize>,
    /// Ascending per-hour γ-threshold tuning grid.
    pub gamma_grid: Vec<f64>,
    /// Target detection level δ*.
    pub target_delta: f64,
    /// Target effectiveness η*.
    pub target_eta: f64,
}

/// Axes of an attacker-relearning study.
#[derive(Debug, Clone, PartialEq)]
pub struct LearningSweep {
    /// MTD selection threshold applied before the study (`None` runs the
    /// study in the unperturbed world).
    pub gamma_threshold: Option<f64>,
    /// Snapshot-count checkpoints (the reconfiguration-period axis).
    pub sample_counts: Vec<usize>,
    /// Probe attacks per checkpoint.
    pub n_probe_attacks: usize,
    /// Subspace dimension the attacker estimates (`None` = true state
    /// dimension).
    pub subspace_dim: Option<usize>,
    /// Per-bus load jitter between snapshots.
    pub load_jitter: f64,
    /// δ* for the stealthy fraction.
    pub target_delta: f64,
}

/// Parses and validates a spec document.
///
/// # Errors
///
/// [`ScenarioError::Parse`] for TOML syntax errors,
/// [`ScenarioError::Spec`] for semantic ones (missing/unknown keys, bad
/// values) — both carrying source lines.
pub fn parse_spec(input: &str) -> Result<ScenarioSpec, ScenarioError> {
    let root = toml::parse(input)?;
    let root = Section::new(&root, String::new());

    let scenario = root.req_table("scenario")?;
    let name = scenario.req_str("name")?;
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        || name.is_empty()
    {
        return Err(scenario.err(
            "name",
            "scenario names use letters, digits, `_`, `-` (they name the run directory)",
        ));
    }
    let kind = scenario.req_str("kind")?;
    let description = scenario.opt_str("description")?.unwrap_or_default();
    scenario.deny_unknown()?;

    let grid_section = root.req_table("grid")?;
    let grid = decode_grid(&grid_section)?;
    grid_section.deny_unknown()?;

    let config = match root.opt_table("config")? {
        Some(section) => {
            let cfg = decode_config(&section)?;
            section.deny_unknown()?;
            cfg
        }
        None => MtdConfig::default(),
    };

    let sweep_section = root.req_table("sweep")?;
    let sweep = decode_sweep(&kind, &sweep_section, &config, &scenario)?;
    sweep_section.deny_unknown()?;
    root.deny_unknown()?;

    // Cross-table validation.
    if matches!(sweep, SweepSpec::Timeline(_)) && !matches!(grid.load, LoadSpec::Nominal) {
        return Err(ScenarioError::spec(
            "grid",
            0,
            "timeline scenarios drive loads from `sweep.trace`; \
             remove `grid.load_scale` / `grid.trace`",
        ));
    }

    Ok(ScenarioSpec {
        name,
        description,
        grid,
        config,
        sweep,
    })
}

fn decode_grid(section: &Section<'_>) -> Result<GridSpec, ScenarioError> {
    let case_name = section.req_str("case")?;
    let case = match case_name.as_str() {
        "case4" => CaseId::Case4,
        "case14" => CaseId::Case14,
        "case30" => CaseId::Case30,
        "case57" => CaseId::Case57,
        "case118" => CaseId::Case118,
        "case300" => CaseId::Case300,
        "synthetic" => CaseId::Synthetic {
            buses: section.req_usize("buses")?,
            seed: section.opt_u64("case_seed")?.unwrap_or(1),
        },
        other => {
            return Err(section.err(
                "case",
                format!(
                    "unknown case `{other}`; expected case4, case14, case30, \
                     case57, case118, case300, or synthetic"
                ),
            ))
        }
    };
    if !matches!(case, CaseId::Synthetic { .. }) {
        for key in ["buses", "case_seed"] {
            if section.peek(key) {
                return Err(section.err(key, "only valid with `case = \"synthetic\"`"));
            }
        }
    }

    let x_pre = match section.opt_str("x_pre")?.as_deref() {
        None | Some("nominal") => XPrePolicy::Nominal,
        Some("spread") => XPrePolicy::Spread,
        Some(other) => {
            return Err(section.err(
                "x_pre",
                format!("expected \"nominal\" or \"spread\", got `{other}`"),
            ))
        }
    };

    let load_scale = section.opt_f64("load_scale")?;
    let trace = section.opt_str("trace")?;
    let load = match (load_scale, trace) {
        (Some(_), Some(_)) => {
            return Err(section.err(
                "load_scale",
                "choose either `load_scale` or `trace`, not both",
            ))
        }
        (Some(s), None) => {
            if s <= 0.0 {
                return Err(section.err("load_scale", "must be positive"));
            }
            LoadSpec::Scaled(s)
        }
        (None, Some(name)) => {
            let Some(tr) = gridmtd_traces::by_name(&name) else {
                return Err(section.err(
                    "trace",
                    format!(
                        "unknown trace `{name}`; built-ins: {}",
                        gridmtd_traces::BUILTIN_TRACES.join(", ")
                    ),
                ));
            };
            let hour = section.req_usize("hour")?;
            let attacker_hour = section.opt_usize("attacker_hour")?;
            // LoadTrace indexing wraps modulo its length, so an
            // out-of-range hour would silently run at a different hour
            // — reject it here instead.
            for (key, value) in [("hour", Some(hour)), ("attacker_hour", attacker_hour)] {
                if let Some(h) = value {
                    if h >= tr.len() {
                        return Err(section.err(
                            key,
                            format!("must be in 0..={} for trace `{name}`", tr.len() - 1),
                        ));
                    }
                }
            }
            LoadSpec::TraceHour {
                trace: name,
                hour,
                attacker_hour,
            }
        }
        (None, None) => {
            for key in ["hour", "attacker_hour"] {
                if section.peek(key) {
                    return Err(section.err(key, "only valid together with `trace`"));
                }
            }
            LoadSpec::Nominal
        }
    };

    Ok(GridSpec { case, x_pre, load })
}

fn decode_config(section: &Section<'_>) -> Result<MtdConfig, ScenarioError> {
    let mut cfg = MtdConfig::default();
    if let Some(v) = section.opt_f64("alpha")? {
        if !(v > 0.0 && v < 1.0) {
            return Err(section.err("alpha", "false-positive rate must be in (0, 1)"));
        }
        cfg.alpha = v;
    }
    if let Some(v) = section.opt_f64("noise_sigma_mw")? {
        if v <= 0.0 {
            return Err(section.err("noise_sigma_mw", "must be positive"));
        }
        cfg.noise_sigma_mw = v;
    }
    if let Some(v) = section.opt_f64("attack_ratio")? {
        if v <= 0.0 {
            return Err(section.err("attack_ratio", "must be positive"));
        }
        cfg.attack_ratio = v;
    }
    if let Some(v) = section.opt_usize("n_attacks")? {
        if v == 0 {
            return Err(section.err("n_attacks", "need at least one attack"));
        }
        cfg.n_attacks = v;
    }
    if let Some(v) = section.opt_f64("eta_max")? {
        if !(v > 0.0 && v < 1.0) {
            return Err(section.err("eta_max", "D-FACTS range must be in (0, 1)"));
        }
        cfg.eta_max = v;
    }
    if let Some(v) = section.opt_u64("seed")? {
        cfg.seed = v;
    }
    if let Some(v) = section.opt_usize("n_starts")? {
        if v == 0 {
            return Err(section.err("n_starts", "need at least one start"));
        }
        cfg.n_starts = v;
    }
    if let Some(v) = section.opt_usize("max_evals_per_start")? {
        if v == 0 {
            return Err(section.err("max_evals_per_start", "need a positive budget"));
        }
        cfg.max_evals_per_start = v;
    }
    if let Some(v) = section.opt_usize("pwl_segments")? {
        if v == 0 {
            return Err(section.err("pwl_segments", "need at least one segment"));
        }
        cfg.opf.pwl_segments = v;
    }
    Ok(cfg)
}

fn decode_sweep(
    kind: &str,
    section: &Section<'_>,
    config: &MtdConfig,
    scenario_section: &Section<'_>,
) -> Result<SweepSpec, ScenarioError> {
    match kind {
        "tradeoff" => {
            let gamma_thresholds = section.req_axis("gamma_thresholds")?;
            let deltas = section.req_f64_array("deltas")?;
            validate_deltas(section, "deltas", &deltas)?;
            let attack_ratios = section
                .opt_f64_array("attack_ratios")?
                .unwrap_or_else(|| vec![config.attack_ratio]);
            if attack_ratios.is_empty() || attack_ratios.iter().any(|&r| r <= 0.0) {
                return Err(section.err(
                    "attack_ratios",
                    "must be a non-empty array of positive ratios",
                ));
            }
            let seeds = section
                .opt_u64_array("seeds")?
                .unwrap_or_else(|| vec![config.seed]);
            if seeds.is_empty() {
                return Err(section.err("seeds", "must be a non-empty array"));
            }
            Ok(SweepSpec::Tradeoff(TradeoffSweep {
                gamma_thresholds,
                deltas,
                attack_ratios,
                seeds,
            }))
        }
        "keyspace" => {
            let fraction = section.req_f64("fraction")?;
            if !(fraction > 0.0 && fraction < 1.0) {
                return Err(section.err("fraction", "perturbation fraction must be in (0, 1)"));
            }
            let n_trials = section.req_usize("n_trials")?;
            if n_trials == 0 {
                return Err(section.err("n_trials", "need at least one trial"));
            }
            let deltas = section.req_f64_array("deltas")?;
            validate_deltas(section, "deltas", &deltas)?;
            let seeds = section
                .opt_u64_array("seeds")?
                .unwrap_or_else(|| vec![config.seed]);
            if seeds.is_empty() {
                return Err(section.err("seeds", "must be a non-empty array"));
            }
            Ok(SweepSpec::Keyspace(KeyspaceSweep {
                fraction,
                n_trials,
                deltas,
                seeds,
            }))
        }
        "timeline" => {
            let trace = section.req_str("trace")?;
            let Some(full) = gridmtd_traces::by_name(&trace) else {
                return Err(section.err(
                    "trace",
                    format!(
                        "unknown trace `{trace}`; built-ins: {}",
                        gridmtd_traces::BUILTIN_TRACES.join(", ")
                    ),
                ));
            };
            let hours = section.opt_usize("hours")?;
            if let Some(h) = hours {
                if h == 0 || h > full.len() {
                    return Err(section.err(
                        "hours",
                        format!("must be in 1..={} for trace `{trace}`", full.len()),
                    ));
                }
            }
            let gamma_grid = section.req_axis("gamma_grid")?;
            let target_delta = section.opt_f64("target_delta")?.unwrap_or(0.9);
            let target_eta = section.opt_f64("target_eta")?.unwrap_or(0.9);
            for (key, v) in [("target_delta", target_delta), ("target_eta", target_eta)] {
                if !(0.0..=1.0).contains(&v) {
                    return Err(section.err(key, "must be in [0, 1]"));
                }
            }
            Ok(SweepSpec::Timeline(TimelineSweep {
                trace,
                hours,
                gamma_grid,
                target_delta,
                target_eta,
            }))
        }
        "learning" => {
            let gamma_threshold = section.opt_f64("gamma_threshold")?;
            if let Some(g) = gamma_threshold {
                if g < 0.0 {
                    return Err(section.err("gamma_threshold", "must be non-negative"));
                }
            }
            let sample_counts = section.req_usize_array("sample_counts")?;
            if sample_counts.is_empty()
                || sample_counts.windows(2).any(|w| w[0] >= w[1])
                || sample_counts[0] == 0
            {
                return Err(section.err(
                    "sample_counts",
                    "must be a strictly ascending array of positive snapshot counts",
                ));
            }
            let n_probe_attacks = section.opt_usize("n_probe_attacks")?.unwrap_or(50);
            if n_probe_attacks == 0 {
                return Err(section.err("n_probe_attacks", "need at least one probe"));
            }
            let subspace_dim = section.opt_usize("subspace_dim")?;
            let load_jitter = section.opt_f64("load_jitter")?.unwrap_or(0.4);
            if !(load_jitter > 0.0 && load_jitter < 1.0) {
                return Err(section.err("load_jitter", "must be in (0, 1)"));
            }
            let target_delta = section.opt_f64("target_delta")?.unwrap_or(0.9);
            if !(0.0..=1.0).contains(&target_delta) {
                return Err(section.err("target_delta", "must be in [0, 1]"));
            }
            Ok(SweepSpec::Learning(LearningSweep {
                gamma_threshold,
                sample_counts,
                n_probe_attacks,
                subspace_dim,
                load_jitter,
                target_delta,
            }))
        }
        other => Err(scenario_section.err(
            "kind",
            format!("unknown kind `{other}`; expected tradeoff, keyspace, timeline, or learning"),
        )),
    }
}

fn validate_deltas(section: &Section<'_>, key: &str, deltas: &[f64]) -> Result<(), ScenarioError> {
    if deltas.is_empty() || deltas.iter().any(|d| !(0.0..=1.0).contains(d)) {
        return Err(section.err(key, "must be a non-empty array of levels in [0, 1]"));
    }
    Ok(())
}

impl ScenarioSpec {
    /// Canonical TOML rendering. Re-parsing the output yields a spec
    /// equal to `self` (grids are emitted as resolved arrays), which the
    /// golden round-trip test pins.
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "[scenario]");
        let _ = writeln!(out, "name = {}", toml_str(&self.name));
        let _ = writeln!(out, "kind = {}", toml_str(self.sweep.kind()));
        let _ = writeln!(out, "description = {}", toml_str(&self.description));

        let _ = writeln!(out, "\n[grid]");
        let _ = writeln!(out, "case = {}", toml_str(&self.grid.case.name()));
        if let CaseId::Synthetic { buses, seed } = self.grid.case {
            let _ = writeln!(out, "buses = {buses}");
            let _ = writeln!(out, "case_seed = {seed}");
        }
        let policy = match self.grid.x_pre {
            XPrePolicy::Nominal => "nominal",
            XPrePolicy::Spread => "spread",
        };
        let _ = writeln!(out, "x_pre = {}", toml_str(policy));
        match &self.grid.load {
            LoadSpec::Nominal => {}
            LoadSpec::Scaled(s) => {
                let _ = writeln!(out, "load_scale = {s}");
            }
            LoadSpec::TraceHour {
                trace,
                hour,
                attacker_hour,
            } => {
                let _ = writeln!(out, "trace = {}", toml_str(trace));
                let _ = writeln!(out, "hour = {hour}");
                if let Some(ah) = attacker_hour {
                    let _ = writeln!(out, "attacker_hour = {ah}");
                }
            }
        }

        let c = &self.config;
        let _ = writeln!(out, "\n[config]");
        let _ = writeln!(out, "alpha = {}", c.alpha);
        let _ = writeln!(out, "noise_sigma_mw = {}", c.noise_sigma_mw);
        let _ = writeln!(out, "attack_ratio = {}", c.attack_ratio);
        let _ = writeln!(out, "n_attacks = {}", c.n_attacks);
        let _ = writeln!(out, "eta_max = {}", c.eta_max);
        let _ = writeln!(out, "seed = {}", c.seed);
        let _ = writeln!(out, "n_starts = {}", c.n_starts);
        let _ = writeln!(out, "max_evals_per_start = {}", c.max_evals_per_start);
        let _ = writeln!(out, "pwl_segments = {}", c.opf.pwl_segments);

        let _ = writeln!(out, "\n[sweep]");
        match &self.sweep {
            SweepSpec::Tradeoff(s) => {
                let _ = writeln!(
                    out,
                    "gamma_thresholds = {}",
                    toml_floats(&s.gamma_thresholds)
                );
                let _ = writeln!(out, "deltas = {}", toml_floats(&s.deltas));
                let _ = writeln!(out, "attack_ratios = {}", toml_floats(&s.attack_ratios));
                let _ = writeln!(out, "seeds = {}", toml_u64s(&s.seeds));
            }
            SweepSpec::Keyspace(s) => {
                let _ = writeln!(out, "fraction = {}", s.fraction);
                let _ = writeln!(out, "n_trials = {}", s.n_trials);
                let _ = writeln!(out, "deltas = {}", toml_floats(&s.deltas));
                let _ = writeln!(out, "seeds = {}", toml_u64s(&s.seeds));
            }
            SweepSpec::Timeline(s) => {
                let _ = writeln!(out, "trace = {}", toml_str(&s.trace));
                if let Some(h) = s.hours {
                    let _ = writeln!(out, "hours = {h}");
                }
                let _ = writeln!(out, "gamma_grid = {}", toml_floats(&s.gamma_grid));
                let _ = writeln!(out, "target_delta = {}", s.target_delta);
                let _ = writeln!(out, "target_eta = {}", s.target_eta);
            }
            SweepSpec::Learning(s) => {
                if let Some(g) = s.gamma_threshold {
                    let _ = writeln!(out, "gamma_threshold = {g}");
                }
                let counts: Vec<String> = s.sample_counts.iter().map(|n| n.to_string()).collect();
                let _ = writeln!(out, "sample_counts = [{}]", counts.join(", "));
                let _ = writeln!(out, "n_probe_attacks = {}", s.n_probe_attacks);
                if let Some(d) = s.subspace_dim {
                    let _ = writeln!(out, "subspace_dim = {d}");
                }
                let _ = writeln!(out, "load_jitter = {}", s.load_jitter);
                let _ = writeln!(out, "target_delta = {}", s.target_delta);
            }
        }
        out
    }
}

fn toml_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn toml_floats(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", parts.join(", "))
}

fn toml_u64s(xs: &[u64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

/// A view over one TOML table that tracks key usage so unknown keys can
/// be rejected with their source line.
struct Section<'a> {
    table: &'a Table,
    path: String,
    used: std::cell::RefCell<BTreeSet<String>>,
}

impl<'a> Section<'a> {
    fn new(table: &'a Table, path: String) -> Section<'a> {
        Section {
            table,
            path,
            used: std::cell::RefCell::new(BTreeSet::new()),
        }
    }

    fn key_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{}", self.path, key)
        }
    }

    fn err(&self, key: &str, message: impl Into<String>) -> ScenarioError {
        let line = self
            .table
            .get(key)
            .map(|e| e.line)
            .or_else(|| self.table.subtables.get(key).map(|&(_, line)| line))
            .unwrap_or(0);
        ScenarioError::spec(self.key_path(key), line, message)
    }

    fn peek(&self, key: &str) -> bool {
        self.table.get(key).is_some()
    }

    fn entry(&self, key: &str) -> Option<&'a Entry> {
        let entry = self.table.get(key);
        if entry.is_some() {
            self.used.borrow_mut().insert(key.to_string());
        }
        entry
    }

    fn req_table(&self, key: &str) -> Result<Section<'a>, ScenarioError> {
        self.opt_table(key)?.ok_or_else(|| {
            ScenarioError::spec(
                self.key_path(key),
                0,
                format!("missing required table [{}]", self.key_path(key)),
            )
        })
    }

    fn opt_table(&self, key: &str) -> Result<Option<Section<'a>>, ScenarioError> {
        if self.table.get(key).is_some() {
            return Err(self.err(key, "expected a [table], found a value"));
        }
        match self.table.table(key) {
            Some(t) => {
                self.used.borrow_mut().insert(key.to_string());
                Ok(Some(Section::new(t, self.key_path(key))))
            }
            None => Ok(None),
        }
    }

    fn req_str(&self, key: &str) -> Result<String, ScenarioError> {
        self.opt_str(key)?
            .ok_or_else(|| self.missing(key, "a string"))
    }

    fn opt_str(&self, key: &str) -> Result<Option<String>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Str(s) => Ok(Some(s.clone())),
                other => Err(self.type_err(key, "a string", other)),
            },
        }
    }

    fn req_f64(&self, key: &str) -> Result<f64, ScenarioError> {
        self.opt_f64(key)?
            .ok_or_else(|| self.missing(key, "a number"))
    }

    fn opt_f64(&self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => Ok(Some(self.as_f64(key, &e.value)?)),
        }
    }

    fn as_f64(&self, key: &str, v: &Value) -> Result<f64, ScenarioError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(self.type_err(key, "a number", other)),
        }
    }

    fn req_usize(&self, key: &str) -> Result<usize, ScenarioError> {
        self.opt_usize(key)?
            .ok_or_else(|| self.missing(key, "a non-negative integer"))
    }

    fn opt_usize(&self, key: &str) -> Result<Option<usize>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => Ok(Some(self.as_usize(key, &e.value)?)),
        }
    }

    fn as_usize(&self, key: &str, v: &Value) -> Result<usize, ScenarioError> {
        match v {
            Value::Int(i) if *i >= 0 => Ok(*i as usize),
            other => Err(self.type_err(key, "a non-negative integer", other)),
        }
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Int(i) if *i >= 0 => Ok(Some(*i as u64)),
                other => Err(self.type_err(key, "a non-negative integer", other)),
            },
        }
    }

    fn req_f64_array(&self, key: &str) -> Result<Vec<f64>, ScenarioError> {
        self.opt_f64_array(key)?
            .ok_or_else(|| self.missing(key, "an array of numbers"))
    }

    fn opt_f64_array(&self, key: &str) -> Result<Option<Vec<f64>>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Array(items) => items
                    .iter()
                    .map(|v| self.as_f64(key, v))
                    .collect::<Result<Vec<f64>, _>>()
                    .map(Some),
                other => Err(self.type_err(key, "an array of numbers", other)),
            },
        }
    }

    fn req_usize_array(&self, key: &str) -> Result<Vec<usize>, ScenarioError> {
        match self.entry(key) {
            None => Err(self.missing(key, "an array of non-negative integers")),
            Some(e) => match &e.value {
                Value::Array(items) => items.iter().map(|v| self.as_usize(key, v)).collect(),
                other => Err(self.type_err(key, "an array of non-negative integers", other)),
            },
        }
    }

    fn opt_u64_array(&self, key: &str) -> Result<Option<Vec<u64>>, ScenarioError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Array(items) => items
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) if *i >= 0 => Ok(*i as u64),
                        other => {
                            Err(self.type_err(key, "an array of non-negative integers", other))
                        }
                    })
                    .collect::<Result<Vec<u64>, _>>()
                    .map(Some),
                other => Err(self.type_err(key, "an array of non-negative integers", other)),
            },
        }
    }

    /// A grid axis: an explicit ascending array, or a
    /// `{ start, stop, steps }` subtable compiled to a linspace.
    fn req_axis(&self, key: &str) -> Result<Vec<f64>, ScenarioError> {
        if self.peek(key) {
            let values = self.req_f64_array(key)?;
            if values.is_empty() || values.windows(2).any(|w| w[0] >= w[1]) {
                return Err(self.err(key, "must be a non-empty, strictly ascending array"));
            }
            return Ok(values);
        }
        let Some(sub) = self.opt_table(key)? else {
            return Err(ScenarioError::spec(
                self.key_path(key),
                0,
                format!(
                    "missing axis `{}`: give an array, or a [{}] subtable \
                     with start/stop/steps",
                    self.key_path(key),
                    self.key_path(key)
                ),
            ));
        };
        let start = sub.req_f64("start")?;
        let stop = sub.req_f64("stop")?;
        let steps = sub.req_usize("steps")?;
        sub.deny_unknown()?;
        if steps == 0 {
            return Err(sub.err("steps", "need at least one step"));
        }
        if stop < start {
            return Err(sub.err("stop", "must be >= start"));
        }
        if steps == 1 {
            // A one-step grid would silently discard `stop`; make the
            // intent explicit instead.
            if stop != start {
                return Err(sub.err(
                    "steps",
                    "steps = 1 would discard `stop`; use steps >= 2 or an explicit array",
                ));
            }
            return Ok(vec![start]);
        }
        let h = (stop - start) / (steps - 1) as f64;
        Ok((0..steps).map(|i| start + h * i as f64).collect())
    }

    fn missing(&self, key: &str, expected: &str) -> ScenarioError {
        ScenarioError::spec(
            self.key_path(key),
            0,
            format!("missing required key (expected {expected})"),
        )
    }

    fn type_err(&self, key: &str, expected: &str, got: &Value) -> ScenarioError {
        self.err(
            key,
            format!("expected {expected}, got a {}", got.type_name()),
        )
    }

    /// Fails on the first key in this table that no decoder consumed.
    fn deny_unknown(&self) -> Result<(), ScenarioError> {
        let used = self.used.borrow();
        for (key, entry) in &self.table.entries {
            if !used.contains(key) {
                return Err(ScenarioError::spec(
                    self.key_path(key),
                    entry.line,
                    "unknown key (typo? see docs/REPRODUCING.md for the spec format)",
                ));
            }
        }
        for (key, (_, line)) in &self.table.subtables {
            if !used.contains(key) {
                return Err(ScenarioError::spec(
                    self.key_path(key),
                    *line,
                    "unknown table (typo? see docs/REPRODUCING.md for the spec format)",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[scenario]
name = "demo"
kind = "tradeoff"
description = "a demo"

[grid]
case = "case14"
x_pre = "spread"

[sweep]
gamma_thresholds = [0.05, 0.15]
deltas = [0.5, 0.9]
"#;

    #[test]
    fn minimal_tradeoff_spec_decodes_with_defaults() {
        let spec = parse_spec(MINIMAL).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.grid.case, CaseId::Case14);
        assert_eq!(spec.grid.x_pre, XPrePolicy::Spread);
        assert_eq!(spec.grid.load, LoadSpec::Nominal);
        assert_eq!(spec.config, MtdConfig::default());
        match &spec.sweep {
            SweepSpec::Tradeoff(s) => {
                assert_eq!(s.gamma_thresholds, vec![0.05, 0.15]);
                assert_eq!(s.attack_ratios, vec![MtdConfig::default().attack_ratio]);
                assert_eq!(s.seeds, vec![MtdConfig::default().seed]);
            }
            other => panic!("wrong sweep: {other:?}"),
        }
    }

    #[test]
    fn axis_subtable_compiles_to_linspace() {
        // Replace the explicit array with a start/stop/steps subtable
        // (placed after [sweep]'s scalar keys, as TOML requires).
        let doc = format!(
            "{}\n[sweep.gamma_thresholds]\nstart = 0.1\nstop = 0.3\nsteps = 3\n",
            MINIMAL.replace("gamma_thresholds = [0.05, 0.15]", "")
        );
        let spec = parse_spec(&doc).unwrap();
        match &spec.sweep {
            SweepSpec::Tradeoff(s) => {
                assert_eq!(s.gamma_thresholds.len(), 3);
                assert!((s.gamma_thresholds[1] - 0.2).abs() < 1e-12);
            }
            other => panic!("wrong sweep: {other:?}"),
        }
    }

    #[test]
    fn unknown_keys_are_rejected_with_line() {
        let doc = MINIMAL.replace("x_pre = \"spread\"", "x_per = \"spread\"");
        let err = parse_spec(&doc).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("grid.x_per"), "{msg}");
        assert!(msg.contains("unknown key"), "{msg}");
        assert!(msg.contains("line"), "{msg}");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let doc = MINIMAL.replace("kind = \"tradeoff\"", "kind = \"tradeof\"");
        let err = parse_spec(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown kind"), "{err}");
    }

    #[test]
    fn synthetic_case_requires_buses() {
        let doc = MINIMAL.replace("case = \"case14\"", "case = \"synthetic\"");
        let err = parse_spec(&doc).unwrap_err();
        assert!(err.to_string().contains("grid.buses"), "{err}");
        let doc = MINIMAL.replace("case = \"case14\"", "case = \"synthetic\"\nbuses = 25");
        let spec = parse_spec(&doc).unwrap();
        assert_eq!(spec.grid.case, CaseId::Synthetic { buses: 25, seed: 1 });
    }

    #[test]
    fn out_of_range_trace_hours_are_rejected() {
        // LoadTrace wraps modulo its length, so hour = 181 would
        // silently run at hour 13; the spec layer must reject it.
        let doc = MINIMAL.replace(
            "x_pre = \"spread\"",
            "x_pre = \"spread\"\ntrace = \"nyiso_winter_weekday\"\nhour = 181",
        );
        let err = parse_spec(&doc).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("grid.hour"), "{msg}");
        assert!(msg.contains("0..=23"), "{msg}");
        let doc = MINIMAL.replace(
            "x_pre = \"spread\"",
            "x_pre = \"spread\"\ntrace = \"nyiso_winter_weekday\"\nhour = 18\nattacker_hour = 24",
        );
        let err = parse_spec(&doc).unwrap_err();
        assert!(err.to_string().contains("grid.attacker_hour"), "{err}");
    }

    #[test]
    fn one_step_axis_must_not_discard_stop() {
        let doc = format!(
            "{}\n[sweep.gamma_thresholds]\nstart = 0.05\nstop = 0.4\nsteps = 1\n",
            MINIMAL.replace("gamma_thresholds = [0.05, 0.15]", "")
        );
        let err = parse_spec(&doc).unwrap_err();
        assert!(err.to_string().contains("discard `stop`"), "{err}");
        // steps = 1 with start == stop is the legitimate single point.
        let doc = doc.replace("stop = 0.4", "stop = 0.05");
        let spec = parse_spec(&doc).unwrap();
        match &spec.sweep {
            SweepSpec::Tradeoff(s) => assert_eq!(s.gamma_thresholds, vec![0.05]),
            other => panic!("wrong sweep: {other:?}"),
        }
    }

    #[test]
    fn trace_and_load_scale_are_exclusive() {
        let doc = MINIMAL.replace(
            "x_pre = \"spread\"",
            "x_pre = \"spread\"\nload_scale = 0.9\ntrace = \"nyiso_winter_weekday\"\nhour = 18",
        );
        let err = parse_spec(&doc).unwrap_err();
        assert!(err.to_string().contains("not both"), "{err}");
    }

    #[test]
    fn round_trip_preserves_the_spec() {
        let doc = r#"
[scenario]
name = "round-trip"
kind = "timeline"
description = "multi\nline"

[grid]
case = "case4"

[config]
n_attacks = 60
seed = 7

[sweep]
trace = "nyiso_winter_weekday"
hours = 4
target_eta = 0.85
[sweep.gamma_grid]
start = 0.05
stop = 0.15
steps = 3
"#;
        let spec = parse_spec(doc).unwrap();
        let rendered = spec.to_toml();
        let reparsed = parse_spec(&rendered).unwrap();
        assert_eq!(spec, reparsed);
    }

    #[test]
    fn learning_sweep_validates_ascending_counts() {
        let doc = r#"
[scenario]
name = "learn"
kind = "learning"

[grid]
case = "case4"

[sweep]
gamma_threshold = 0.1
sample_counts = [64, 16]
"#;
        let err = parse_spec(doc).unwrap_err();
        assert!(err.to_string().contains("ascending"), "{err}");
    }

    #[test]
    fn timeline_rejects_grid_trace() {
        let doc = r#"
[scenario]
name = "t"
kind = "timeline"

[grid]
case = "case4"
trace = "nyiso_winter_weekday"
hour = 3

[sweep]
trace = "nyiso_winter_weekday"
gamma_grid = [0.05]
"#;
        let err = parse_spec(doc).unwrap_err();
        assert!(err.to_string().contains("sweep.trace"), "{err}");
    }
}
