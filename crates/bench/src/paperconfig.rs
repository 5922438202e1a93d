//! The calibrated experiment configuration shared by the experiment
//! binaries.
//!
//! The paper specifies α = 5 × 10⁻⁴, ‖a‖₁/‖z‖₁ ≈ 0.08, 1000 attacks and
//! η_max = 0.5, but not the measurement-noise σ. The calibration:
//! σ = 0.10 MW (0.001 p.u.) reproduces the operating point of
//! Fig. 6(a) (η'(0.95) ≈ 0.96–0.97 at the top of the attainable γ range,
//! matching the paper's 0.97 at γ = 0.44).

use gridmtd_core::MtdConfig;

/// Calibrated noise standard deviation, MW.
pub const NOISE_SIGMA_MW: f64 = 0.10;

/// Full-budget configuration for the paper-scale experiments.
pub fn paper_config() -> MtdConfig {
    MtdConfig {
        noise_sigma_mw: NOISE_SIGMA_MW,
        n_attacks: 1000,
        n_starts: 6,
        max_evals_per_start: 400,
        ..MtdConfig::default()
    }
}

/// Reads an optional `--sigma <mw>` / `--attacks <n>` / `--starts <n>`
/// override set from the command line (used for calibration sweeps).
pub fn config_from_args() -> MtdConfig {
    let mut cfg = paper_config();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i + 1 < args.len() {
        match args[i].as_str() {
            "--sigma" => {
                cfg.noise_sigma_mw = args[i + 1].parse().expect("--sigma takes a float");
                i += 2;
            }
            "--attacks" => {
                cfg.n_attacks = args[i + 1].parse().expect("--attacks takes an integer");
                i += 2;
            }
            "--starts" => {
                cfg.n_starts = args[i + 1].parse().expect("--starts takes an integer");
                i += 2;
            }
            "--evals" => {
                cfg.max_evals_per_start = args[i + 1].parse().expect("--evals takes an integer");
                i += 2;
            }
            _ => i += 1,
        }
    }
    cfg
}
