//! Hourly MTD operation over a load trace (Figs. 10–11).
//!
//! At each hour `t'` the operator:
//!
//! 1. solves the no-MTD OPF (problem (1)) for the hour's load — warm
//!    started from the previous hour, matching real re-dispatch practice;
//! 2. assumes the attacker knows the measurement matrix from the
//!    **previous** hour (`H_t`, one hour stale, per Section VII-C);
//! 3. auto-tunes the smallest threshold `γ_th` from a grid that achieves
//!    a target effectiveness `η'(δ*) ≥ η*` (the paper uses
//!    `η'(0.9) ≥ 0.9`), solving problem (4) per candidate;
//! 4. records the operational-cost increase and the three subspace
//!    angles plotted in Fig. 11.
//!
//! The hourly loop runs on the session ([`crate::MtdSession::begin_day`]
//! / [`crate::MtdSession::step_hour`], or
//! [`crate::MtdSession::simulate_day`] for a whole day), which owns the
//! per-hour stale-matrix state. This module holds its option and result
//! types.

use serde::{Deserialize, Serialize};

/// Outcome of one simulated hour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HourOutcome {
    /// Hour of day (0–23).
    pub hour: usize,
    /// Total system load, MW.
    pub total_load_mw: f64,
    /// No-MTD OPF cost, $/h.
    pub cost_no_mtd: f64,
    /// OPF cost with the selected MTD, $/h.
    pub cost_with_mtd: f64,
    /// MTD operational cost, percent (Fig. 10 bottom panel).
    pub cost_increase_percent: f64,
    /// `γ(H_t, H_t')`: drift of the no-MTD matrix between hours
    /// (≈ 0; Fig. 11).
    pub gamma_drift: f64,
    /// `γ(H_t, H'_t')`: angle the defense achieved against the attacker's
    /// stale knowledge (Fig. 11).
    pub gamma_defense: f64,
    /// `γ(H_t', H'_t')`: angle between the hour's no-MTD and MTD
    /// matrices (Fig. 11; ≈ `gamma_defense` because drift is small).
    pub gamma_current: f64,
    /// The tuned threshold `γ_th` used at this hour.
    pub gamma_threshold: f64,
    /// Achieved effectiveness `η'(δ*)` at the target δ.
    pub effectiveness: f64,
    /// Whether the target effectiveness was met within the grid.
    pub target_met: bool,
}

/// Parameters of the daily simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineOptions {
    /// Target detection-probability level δ* (paper: 0.9).
    pub target_delta: f64,
    /// Target effectiveness η* (paper: 0.9).
    pub target_eta: f64,
    /// Ascending grid of candidate `γ_th` values to try each hour.
    pub gamma_grid: Vec<f64>,
}

impl Default for TimelineOptions {
    fn default() -> TimelineOptions {
        TimelineOptions {
            target_delta: 0.9,
            target_eta: 0.9,
            gamma_grid: vec![0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MtdConfig, MtdSession};
    use gridmtd_powergrid::{cases, Network};
    use gridmtd_traces::{nyiso_winter_weekday, LoadTrace};

    fn run_day(
        net: &Network,
        trace: &LoadTrace,
        opts: &TimelineOptions,
        cfg: &MtdConfig,
    ) -> Vec<HourOutcome> {
        MtdSession::builder(net.clone())
            .config(cfg.clone())
            .build()
            .unwrap()
            .simulate_day(trace, opts)
            .unwrap()
    }

    /// Trimmed budgets so the debug-mode unit tests stay fast; the
    /// paper-scale 24-hour run is `scenarios/timeline_case14.toml`.
    fn tiny_cfg() -> MtdConfig {
        MtdConfig {
            n_attacks: 60,
            n_starts: 1,
            max_evals_per_start: 120,
            noise_sigma_mw: 0.15,
            ..MtdConfig::default()
        }
    }

    #[test]
    fn short_timeline_has_sane_structure() {
        // 4-bus system, 4-hour trace: fast enough for debug test runs.
        let net = cases::case4();
        let trace = LoadTrace::new(vec![400.0, 450.0, 480.0, 420.0]);
        let opts = TimelineOptions {
            gamma_grid: vec![0.05, 0.1],
            ..TimelineOptions::default()
        };
        let outcomes = run_day(&net, &trace, &opts, &tiny_cfg());
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert!((o.total_load_mw - trace.total_load_mw(o.hour)).abs() < 1e-6);
            assert!(o.cost_no_mtd > 0.0);
            assert!(o.cost_increase_percent >= 0.0);
            assert!(o.gamma_defense >= o.gamma_threshold - 5e-2);
            // Fig. 11 structure: the defence and current angles nearly
            // coincide because hour-to-hour drift is small.
            assert!((o.gamma_defense - o.gamma_current).abs() < 0.12);
        }
    }

    #[test]
    fn effectiveness_recorded_even_when_target_unmet() {
        // With a huge noise floor no grid value can reach the target; the
        // simulation must still report outcomes with target_met = false.
        let net = cases::case4();
        let trace = LoadTrace::new(vec![400.0, 440.0]);
        let opts = TimelineOptions {
            gamma_grid: vec![0.05],
            ..TimelineOptions::default()
        };
        let cfg = MtdConfig {
            noise_sigma_mw: 50.0,
            ..tiny_cfg()
        };
        let outcomes = run_day(&net, &trace, &opts, &cfg);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(!o.target_met);
            assert!(o.effectiveness < 0.9);
        }
    }

    #[test]
    #[ignore = "paper-scale run: use --ignored with --release (also see scenarios/timeline_case14.toml)"]
    fn full_day_ieee14() {
        let net = cases::case14();
        let trace = nyiso_winter_weekday();
        let opts = TimelineOptions::default();
        let cfg = MtdConfig {
            n_attacks: 200,
            n_starts: 2,
            max_evals_per_start: 200,
            noise_sigma_mw: 0.15,
            ..MtdConfig::default()
        };
        let outcomes = run_day(&net, &trace, &opts, &cfg);
        assert_eq!(outcomes.len(), 24);
        for o in &outcomes {
            assert!(o.gamma_drift < 0.05, "drift {}", o.gamma_drift);
            assert!(o.cost_increase_percent >= 0.0);
        }
        // Fig. 10: the evening peak is at least as costly as the trough.
        assert!(outcomes[18].cost_increase_percent >= outcomes[3].cost_increase_percent - 0.05);
    }
}
