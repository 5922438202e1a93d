//! Power-network substrate for the `gridmtd` workspace.
//!
//! Implements the DC power-flow model of Section III of Lakshminarayana &
//! Yau (DSN 2018): buses, branches (with optional D-FACTS devices),
//! generators, the branch–bus incidence matrix `A`, nodal susceptance
//! matrix `B = A D Aᵀ`, the measurement matrix
//! `H = [D Aᵀ; −D Aᵀ; A D Aᵀ]` and a DC power-flow solver.
//!
//! The [`cases`] module carries the benchmark systems used in the paper
//! (the 4-bus example of Fig. 3, IEEE 14-bus with the Table IV generator
//! set, IEEE 30-bus) plus a synthetic-grid generator for scaling studies.
//!
//! # Example
//!
//! ```
//! use gridmtd_powergrid::{cases, dcpf};
//!
//! # fn main() -> Result<(), gridmtd_powergrid::GridError> {
//! let net = cases::case4();
//! let x = net.nominal_reactances();
//! // Dispatch of Table II: (350, 150) MW.
//! let pf = dcpf::solve_dispatch(&net, &x, &[350.0, 150.0])?;
//! assert!((pf.flows[0] - 126.56).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

pub mod cases;
pub mod dcpf;
mod error;
pub mod measurement;
mod network;
pub mod stats;
mod types;

pub use dcpf::{PfContext, PfFactor, PowerFlow};
pub use error::GridError;
pub use measurement::MeasurementLayout;
pub use network::Network;
pub use types::{Branch, Bus, GenCost, Generator};
