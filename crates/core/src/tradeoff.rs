//! The effectiveness-vs-cost tradeoff sweep (Figs. 6 and 9).
//!
//! For each threshold `γ_th` in a grid, solve the SPA-constrained OPF
//! (problem (4)), score the selected perturbation against a fixed attack
//! ensemble, and record the operational-cost increase. Different `γ_th`
//! values trace out the spectrum between "free but ineffective" and
//! "effective but costly" (Section VI).
//!
//! The sweeps run on [`crate::MtdSession`], which owns the warm caches
//! they share: [`crate::MtdSession::tradeoff_sweep`] (Figs. 6, 9) and
//! [`crate::MtdSession::keyspace_study`] (the random keyspace of prior
//! work, Figs. 7–8). This module holds their result types.

use serde::{Deserialize, Serialize};

use crate::MtdEvaluation;

/// Looks up `η'(δ)` in a swept `(δ, η'(δ))` grid — the one shared
/// implementation behind [`TradeoffPoint::eta`] and
/// [`RandomTrial::eta`].
fn eta_lookup(effectiveness: &[(f64, f64)], delta: f64) -> Option<f64> {
    effectiveness
        .iter()
        .find(|(d, _)| (d - delta).abs() < 1e-12)
        .map(|&(_, e)| e)
}

/// Materializes the `(δ, η'(δ))` grid of an evaluation for a δ axis.
pub(crate) fn eta_grid(eval: &MtdEvaluation, deltas: &[f64]) -> Vec<(f64, f64)> {
    deltas.iter().map(|&d| (d, eval.effectiveness(d))).collect()
}

/// One point of the tradeoff curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffPoint {
    /// Requested subspace-angle threshold, radians.
    pub gamma_threshold: f64,
    /// Achieved angle of the selected perturbation.
    pub gamma_achieved: f64,
    /// MTD operational cost, percent over the no-MTD OPF cost.
    pub cost_increase_percent: f64,
    /// `(δ, η'(δ))` pairs for the requested δ grid.
    pub effectiveness: Vec<(f64, f64)>,
}

impl TradeoffPoint {
    /// Looks up `η'(δ)` for one of the swept δ values.
    pub fn eta(&self, delta: f64) -> Option<f64> {
        eta_lookup(&self.effectiveness, delta)
    }
}

/// Result of a full sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffCurve {
    /// Points for every reachable threshold, in sweep order.
    pub points: Vec<TradeoffPoint>,
    /// Ceiling `γ_max` within the D-FACTS limits (thresholds above this
    /// were skipped).
    pub gamma_ceiling: f64,
    /// No-MTD baseline OPF cost, $/h.
    pub baseline_cost: f64,
}

/// One random-keyspace trial (Figs. 7–8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomTrial {
    /// Trial index.
    pub trial: usize,
    /// Subspace angle achieved by the random perturbation.
    pub gamma: f64,
    /// `(δ, η'(δ))` pairs.
    pub effectiveness: Vec<(f64, f64)>,
}

impl RandomTrial {
    /// Looks up `η'(δ)`.
    pub fn eta(&self, delta: f64) -> Option<f64> {
        eta_lookup(&self.effectiveness, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MtdConfig, MtdSession};
    use gridmtd_powergrid::cases;

    fn session(cfg: MtdConfig) -> MtdSession {
        MtdSession::builder(cases::case14())
            .config(cfg)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_produces_increasing_gamma_and_cost_trend() {
        let curve = session(MtdConfig::fast_test())
            .tradeoff_sweep(&[0.05, 0.15, 0.22], &[0.5, 0.9])
            .unwrap();
        assert!(curve.points.len() >= 2, "{:?}", curve.points.len());
        // Ceiling from the nominal point is ≈ 0.259 rad (see selection
        // tests for the paper's larger corner-to-corner range).
        assert!(curve.gamma_ceiling > 0.2);
        assert!(curve.baseline_cost > 0.0);
        for p in &curve.points {
            assert!(p.gamma_achieved + 1e-3 >= p.gamma_threshold);
            assert!(p.cost_increase_percent >= 0.0);
            let e05 = p.eta(0.5).unwrap();
            let e09 = p.eta(0.9).unwrap();
            assert!(e09 <= e05 + 1e-12, "η monotone in δ");
        }
        // Effectiveness at the largest threshold beats the smallest.
        let first = curve.points.first().unwrap().eta(0.5).unwrap();
        let last = curve.points.last().unwrap().eta(0.5).unwrap();
        assert!(
            last >= first,
            "η should rise along the sweep: {first}->{last}"
        );
    }

    #[test]
    fn unreachable_thresholds_are_skipped() {
        let curve = session(MtdConfig::fast_test())
            .tradeoff_sweep(&[0.1, 1.4], &[0.5])
            .unwrap();
        assert_eq!(curve.points.len(), 1);
        assert_eq!(curve.points[0].gamma_threshold, 0.1);
    }

    #[test]
    fn random_keyspace_trials_have_high_variability() {
        let mut cfg = MtdConfig::fast_test();
        cfg.n_attacks = 120;
        let trials = session(cfg).keyspace_study(0.02, 20, &[0.5, 0.9]).unwrap();
        assert_eq!(trials.len(), 20);
        // 2% random perturbations achieve tiny angles...
        for t in &trials {
            assert!(t.gamma < 0.05, "gamma {}", t.gamma);
        }
        // ...and (per the paper's Fig. 8) almost none achieve η'(0.9)≥0.9.
        let good = trials.iter().filter(|t| t.eta(0.9).unwrap() >= 0.9).count();
        assert!(good <= 2, "random keyspace should rarely be effective");
    }

    #[test]
    fn tradeoff_point_eta_lookup() {
        let p = TradeoffPoint {
            gamma_threshold: 0.1,
            gamma_achieved: 0.12,
            cost_increase_percent: 1.0,
            effectiveness: vec![(0.5, 0.8), (0.9, 0.4)],
        };
        assert_eq!(p.eta(0.9), Some(0.4));
        assert_eq!(p.eta(0.7), None);
    }
}
