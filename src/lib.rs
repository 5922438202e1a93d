//! # gridmtd — moving-target defense for power-grid state estimation
//!
//! A full Rust reproduction of *Cost-Benefit Analysis of Moving-Target
//! Defense in Power Grids* (Lakshminarayana & Yau, DSN 2018), packaged as
//! a facade over the workspace crates:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`linalg`] | `gridmtd-linalg` | dense LA: QR, SVD, principal angles |
//! | [`stats`] | `gridmtd-stats` | χ²/noncentral-χ², Gaussian sampling |
//! | [`powergrid`] | `gridmtd-powergrid` | DC grid model, IEEE cases |
//! | [`opf`] | `gridmtd-opf` | LP simplex, DC-OPF, projected L-BFGS, Nelder–Mead |
//! | [`estimation`] | `gridmtd-estimation` | WLS SE + χ² BDD |
//! | [`attack`] | `gridmtd-attack` | stealthy FDI attacks |
//! | [`mtd`] | `gridmtd-core` | SPA metric, η'(δ), problem (4), tradeoff |
//! | [`traces`] | `gridmtd-traces` | daily load traces |
//! | [`scenario`] | `gridmtd-scenario` | declarative TOML sweep specs + engine |
//! | [`serve`] | `gridmtd-serve` | line-delimited JSON-RPC daemon + warm-session LRU |
//! | [`faults`] | `gridmtd-faults` | deterministic fault injection (named points, seeded triggers) |
//! | [`lint`] | `gridmtd-lint` | workspace static analysis: determinism / panic-safety / seed-hygiene rules |
//!
//! The `gridmtd` **binary** (this package's `src/bin/gridmtd.rs`) runs
//! declarative scenario specs (`gridmtd run scenarios/<name>.toml`),
//! hosts the pipeline as a network daemon (`gridmtd serve`), and replays
//! load against one (`gridmtd loadtest`).
//!
//! # Example: is a random MTD perturbation any good?
//!
//! ```
//! use gridmtd::mtd::{selection, MtdConfig, MtdSession};
//! use gridmtd::powergrid::cases;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), gridmtd::mtd::MtdError> {
//! let cfg = MtdConfig { n_attacks: 100, ..MtdConfig::default() };
//! let session = MtdSession::builder(cases::case14()).config(cfg).build()?;
//!
//! // Prior work's strategy: a random ±2% perturbation...
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let x_rand =
//!     selection::random_perturbation(session.network(), session.x_pre(), 0.02, &mut rng)?;
//! let weak = session.evaluate(&x_rand)?;
//!
//! // ...versus this paper's SPA-targeted selection.
//! let sel = session.select(0.2)?;
//! let strong = session.evaluate(&sel.x_post)?;
//! assert!(strong.effectiveness(0.9) > weak.effectiveness(0.9));
//! # Ok(())
//! # }
//! ```

pub use gridmtd_attack as attack;
pub use gridmtd_core as mtd;
pub use gridmtd_estimation as estimation;
pub use gridmtd_faults as faults;
pub use gridmtd_linalg as linalg;
pub use gridmtd_lint as lint;
pub use gridmtd_opf as opf;
pub use gridmtd_powergrid as powergrid;
pub use gridmtd_scenario as scenario;
pub use gridmtd_serve as serve;
pub use gridmtd_stats as stats;
pub use gridmtd_traces as traces;
