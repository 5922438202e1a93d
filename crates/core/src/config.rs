//! Experiment configuration shared across MTD evaluation and selection.

use gridmtd_opf::{LbfgsOptions, NelderMeadOptions, OpfOptions};
use serde::{Deserialize, Serialize};

use crate::MtdError;

/// Configuration for MTD evaluation and selection.
///
/// Defaults follow the paper's Section VII-A where the paper specifies a
/// value; where it does not (noise σ), `crates/bench/src/paperconfig.rs`
/// documents the calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MtdConfig {
    /// BDD false-positive rate α (paper: `5 × 10⁻⁴`).
    pub alpha: f64,
    /// Measurement-noise standard deviation, MW. The paper does not
    /// report its value; 0.10 MW (0.001 p.u.) reproduces the operating
    /// point of Fig. 6(a) — η'(0.95) ≈ 0.97 at γ ≈ 0.44 (see
    /// `crates/bench/src/paperconfig.rs`).
    pub noise_sigma_mw: f64,
    /// Attack-magnitude scaling `‖a‖₁/‖z‖₁` (paper: ≈ 0.08).
    pub attack_ratio: f64,
    /// Number of random attack vectors per effectiveness evaluation
    /// (paper: 1000).
    pub n_attacks: usize,
    /// D-FACTS adjustment range `η_max` (paper: 0.5).
    pub eta_max: f64,
    /// RNG seed for attack sampling and multistart.
    pub seed: u64,
    /// Multistart count for the SPA-constrained OPF and the γ-ceiling
    /// search (fmincon/MultiStart analogue).
    pub n_starts: usize,
    /// Budget of one optimizer run inside the selection searches
    /// (objective evaluations, line-search trials included); also the
    /// budget of the problem-(1) baseline search.
    pub max_evals_per_start: usize,
    /// Inner DC-OPF options.
    pub opf: OpfOptionsSerde,
}

/// Serializable mirror of [`OpfOptions`] (the OPF crate keeps its options
/// serde-free).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpfOptionsSerde {
    /// Piecewise-linear segments for quadratic costs.
    pub pwl_segments: usize,
}

impl Default for MtdConfig {
    fn default() -> MtdConfig {
        MtdConfig {
            alpha: 5e-4,
            noise_sigma_mw: 0.1,
            attack_ratio: 0.08,
            n_attacks: 1000,
            eta_max: 0.5,
            seed: 1,
            n_starts: 6,
            max_evals_per_start: 400,
            opf: OpfOptionsSerde { pwl_segments: 10 },
        }
    }
}

impl MtdConfig {
    /// A reduced-budget configuration for unit tests (fewer attacks and
    /// optimizer evaluations; same statistical structure).
    pub fn fast_test() -> MtdConfig {
        MtdConfig {
            n_attacks: 150,
            n_starts: 2,
            max_evals_per_start: 120,
            ..MtdConfig::default()
        }
    }

    /// Inner-OPF options in the form the OPF crate expects.
    pub fn opf_options(&self) -> OpfOptions {
        OpfOptions {
            pwl_segments: self.opf.pwl_segments,
        }
    }

    /// Nelder–Mead options for the problem-(1) baseline search
    /// ([`crate::selection::baseline_opf`]).
    pub fn nm_options(&self) -> NelderMeadOptions {
        NelderMeadOptions {
            max_evals: self.max_evals_per_start,
            ..NelderMeadOptions::default()
        }
    }

    /// Projected L-BFGS options for one start of the problem-(4) search
    /// and of the γ-ceiling search.
    pub fn lbfgs_options(&self) -> LbfgsOptions {
        LbfgsOptions {
            max_evals: self.max_evals_per_start,
            ..LbfgsOptions::default()
        }
    }

    /// Validates the numeric fields, rejecting NaN and out-of-range
    /// thresholds and zero budgets with a typed
    /// [`MtdError::InvalidConfig`].
    ///
    /// [`crate::MtdSession`] construction runs this up front, so a bad
    /// configuration fails at the session boundary with the field name
    /// attached — instead of deep inside selection as a cryptic
    /// optimizer or χ² failure (or, for a NaN α, not at all).
    ///
    /// # Errors
    ///
    /// [`MtdError::InvalidConfig`] naming the first offending field:
    ///
    /// * `alpha` must be a probability strictly inside `(0, 1)`;
    /// * `noise_sigma_mw` and `attack_ratio` must be finite and `> 0`;
    /// * `eta_max` must lie in `(0, 1)` (a D-FACTS range of 100 % or
    ///   more would allow non-positive reactances);
    /// * `n_attacks`, `n_starts`, `max_evals_per_start` and
    ///   `opf.pwl_segments` (reported as `pwl_segments`) must be at
    ///   least 1 — the scenario decoder and the wire apply the same
    ///   rule, so no surface runs an empty attack set or search.
    pub fn validate(&self) -> Result<(), MtdError> {
        let invalid = |field: &'static str, value: f64| MtdError::InvalidConfig { field, value };
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(invalid("alpha", self.alpha));
        }
        if !(self.noise_sigma_mw.is_finite() && self.noise_sigma_mw > 0.0) {
            return Err(invalid("noise_sigma_mw", self.noise_sigma_mw));
        }
        if !(self.attack_ratio.is_finite() && self.attack_ratio > 0.0) {
            return Err(invalid("attack_ratio", self.attack_ratio));
        }
        if !(self.eta_max > 0.0 && self.eta_max < 1.0) {
            return Err(invalid("eta_max", self.eta_max));
        }
        for (field, count) in [
            ("n_attacks", self.n_attacks),
            ("n_starts", self.n_starts),
            ("max_evals_per_start", self.max_evals_per_start),
            ("pwl_segments", self.opf.pwl_segments),
        ] {
            if count == 0 {
                return Err(invalid(field, 0.0));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = MtdConfig::default();
        assert_eq!(c.alpha, 5e-4);
        assert_eq!(c.attack_ratio, 0.08);
        assert_eq!(c.n_attacks, 1000);
        assert_eq!(c.eta_max, 0.5);
    }

    #[test]
    fn fast_test_reduces_budgets() {
        let c = MtdConfig::fast_test();
        assert!(c.n_attacks < MtdConfig::default().n_attacks);
        assert!(c.n_starts < MtdConfig::default().n_starts);
        assert_eq!(c.alpha, MtdConfig::default().alpha);
    }

    #[test]
    fn options_conversions() {
        let c = MtdConfig::default();
        assert_eq!(c.opf_options().pwl_segments, 10);
        assert_eq!(c.nm_options().max_evals, 400);
    }

    #[test]
    fn validate_rejects_nan_and_out_of_range_fields() {
        assert!(MtdConfig::default().validate().is_ok());
        assert!(MtdConfig::fast_test().validate().is_ok());
        let defaults = MtdConfig::default;
        let cases = [
            (
                "alpha",
                MtdConfig {
                    alpha: f64::NAN,
                    ..defaults()
                },
            ),
            (
                "alpha",
                MtdConfig {
                    alpha: 1.0,
                    ..defaults()
                },
            ),
            (
                "noise_sigma_mw",
                MtdConfig {
                    noise_sigma_mw: -0.1,
                    ..defaults()
                },
            ),
            (
                "attack_ratio",
                MtdConfig {
                    attack_ratio: 0.0,
                    ..defaults()
                },
            ),
            (
                "eta_max",
                MtdConfig {
                    eta_max: 1.0,
                    ..defaults()
                },
            ),
            (
                "eta_max",
                MtdConfig {
                    eta_max: -0.5,
                    ..defaults()
                },
            ),
            (
                "n_attacks",
                MtdConfig {
                    n_attacks: 0,
                    ..defaults()
                },
            ),
            (
                "n_starts",
                MtdConfig {
                    n_starts: 0,
                    ..defaults()
                },
            ),
            (
                "max_evals_per_start",
                MtdConfig {
                    max_evals_per_start: 0,
                    ..defaults()
                },
            ),
            (
                "pwl_segments",
                MtdConfig {
                    opf: OpfOptionsSerde { pwl_segments: 0 },
                    ..defaults()
                },
            ),
        ];
        for (field, cfg) in cases {
            match cfg.validate().unwrap_err() {
                MtdError::InvalidConfig { field: f, .. } => assert_eq!(f, field),
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
    }
}
