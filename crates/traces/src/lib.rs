//! Load traces for time-varying simulations.
//!
//! The paper drives its dynamic-load experiments (Figs. 9–11) with the
//! NYISO hourly load trace of 25-Jan-2016. That dataset is not
//! redistributable here, so [`nyiso_winter_weekday`] provides a
//! deterministic synthetic winter-weekday profile with the same
//! qualitative structure the experiments depend on (see the calibration
//! notes of `docs/REPRODUCING.md`):
//! an overnight trough, a morning ramp, a midday plateau and an evening
//! peak at 6–7 PM, with strong hour-to-hour correlation. The trace is
//! expressed as *scaling factors* that multiply a case's nominal loads.
//!
//! Declarative scenario specs reference traces by name; [`by_name`]
//! resolves the [`BUILTIN_TRACES`] registry, and [`flat`] builds the
//! constant-load degenerate trace.

mod trace;

pub use trace::{by_name, flat, nyiso_winter_weekday, LoadTrace, BUILTIN_TRACES};
