//! State estimation and bad-data detection for the `gridmtd` workspace.
//!
//! Implements the SE + BDD pipeline of Section III of Lakshminarayana &
//! Yau (DSN 2018):
//!
//! * [`NoiseModel`] — diagonal Gaussian sensor noise,
//! * [`StateEstimator`] — weighted least squares
//!   `θ̂ = (HᵀWH)⁻¹HᵀWz`,
//! * [`BadDataDetector`] — χ² residual test calibrated to a target
//!   false-positive rate, with **closed-form detection probabilities** for
//!   FDI attacks via the noncentral-χ² characterization of Appendix B.
//!
//! # Example
//!
//! ```
//! use gridmtd_estimation::{BadDataDetector, NoiseModel, StateEstimator};
//! use gridmtd_powergrid::{cases, dcpf};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = cases::case14();
//! let x = net.nominal_reactances();
//! let h = net.measurement_matrix(&x)?;
//! let est = StateEstimator::new(h, &NoiseModel::uniform(54, 1.0))?;
//! let bdd = BadDataDetector::new(est, 5e-4);
//!
//! // Noiseless measurements from a power flow pass the BDD.
//! let pf = dcpf::solve_dispatch(&net, &x, &[150.0, 40.0, 20.0, 30.0, 19.0])?;
//! assert!(!bdd.test(&pf.measurement_vector())?.alarm);
//! # Ok(())
//! # }
//! ```

mod bdd;
mod noise;
mod wls;

pub use bdd::{BadDataDetector, BddOutcome};
pub use noise::NoiseModel;
pub use wls::{gain_symbolic_analyses, EstimationError, EstimatorContext, StateEstimator};
