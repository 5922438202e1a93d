//! # gridmtd-core — moving-target defense for power-grid state estimation
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Cost-Benefit Analysis of Moving-Target Defense in Power Grids*
//! (Lakshminarayana & Yau, DSN 2018): design criteria for D-FACTS
//! reactance perturbations that invalidate an FDI attacker's knowledge,
//! and the framework that trades the defense's effectiveness against its
//! operational (OPF) cost.
//!
//! The pipeline:
//!
//! 1. [`spa`] — the subspace-angle design metric `γ(H, H')`;
//! 2. [`theory`] — executable Proposition 1 / Theorem 1 (undetectability
//!    and the orthogonality condition);
//! 3. [`effectiveness`] — the metric `η'(δ)`: fraction of stale stealthy
//!    attacks whose post-MTD detection probability exceeds δ (closed-form
//!    noncentral-χ², cross-checked by Monte-Carlo);
//! 4. [`selection`] — perturbation selection: the random baseline of
//!    prior work, max-angle search, and the SPA-constrained OPF
//!    (problem (4)) via exterior penalty driven by multistart projected
//!    L-BFGS on analytic gradients;
//! 5. [`cost`] / [`tradeoff`] — the operational-cost metric and the
//!    effectiveness-vs-cost sweep (Figs. 6, 9);
//! 6. [`timeline`] — hourly MTD operation over a daily load trace
//!    (Figs. 10–11);
//! 7. [`learning`] — the attacker-relearning timeline behind the
//!    reconfiguration-period argument (Section IV-A).
//!
//! The stateful [`session`] layer ties the pipeline together:
//! [`MtdSession`] owns every warm cache (measurement matrices, QR
//! bases, symbolic factorizations, attack ensembles, baselines) and
//! exposes the whole pipeline as methods, with a typed batch layer
//! ([`session::batch`]) for sweep drivers. The historical free-function
//! entry points ([`tradeoff_sweep`], [`random_keyspace_study`],
//! [`simulate_day`], [`attacker_learning_study`]) remain as thin,
//! bit-identical wrappers that build a throwaway session; the
//! `gridmtd-scenario` crate drives the session from declarative TOML
//! specs.
//!
//! # Quickstart
//!
//! ```
//! use gridmtd_core::{MtdConfig, MtdSession};
//! use gridmtd_powergrid::cases;
//!
//! # fn main() -> Result<(), gridmtd_core::MtdError> {
//! let net = cases::case14();
//! let cfg = MtdConfig { n_attacks: 100, ..MtdConfig::default() };
//! let session = MtdSession::builder(net).config(cfg).build()?;
//! // A sign-mixed ±40% perturbation of the D-FACTS lines:
//! let mut x_post = session.x_pre().to_vec();
//! for (k, l) in session.network().dfacts_branches().into_iter().enumerate() {
//!     x_post[l] *= if k % 2 == 0 { 1.4 } else { 0.6 };
//! }
//! let eval = session.evaluate(&x_post)?;
//! println!("γ = {:.3} rad, η'(0.9) = {:.2}", eval.gamma, eval.effectiveness(0.9));
//! # Ok(())
//! # }
//! ```

mod config;
pub mod cost;
pub mod effectiveness;
mod error;
/// Deterministic fault injection (re-export of [`gridmtd_faults`]).
///
/// Named injection points sit at every fragile boundary of the
/// pipeline; behind the `fault-injection` cargo feature they can be
/// armed with a seeded [`faults::FaultPlan`], and without it every
/// point compiles to a constant `false`. See `docs/ROBUSTNESS.md` for
/// the catalogue of fallback chains each point exercises.
pub use gridmtd_faults as faults;
pub mod impact;
pub mod learning;
pub mod seedstream;
pub mod selection;
pub mod session;
pub mod spa;
pub mod theory;
pub mod timeline;
pub mod tradeoff;

pub use config::{MtdConfig, OpfOptionsSerde};
pub use effectiveness::MtdEvaluation;
pub use error::MtdError;
pub use learning::{attacker_learning_study, LearningOptions, LearningPoint};
pub use selection::{spread_pre_perturbation, MtdSelection};
pub use session::{BaselineOutcome, LearningOutcome, MtdSession, MtdSessionBuilder};
pub use timeline::{simulate_day, HourOutcome, TimelineOptions};
pub use tradeoff::{
    random_keyspace_study, tradeoff_sweep, RandomTrial, TradeoffCurve, TradeoffPoint,
};
