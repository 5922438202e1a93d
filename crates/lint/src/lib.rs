//! # gridmtd-lint — first-party workspace static analysis
//!
//! The paper's figures reproduce because every layer of this workspace
//! is bit-identical: parallel vs. serial fan-out, warm sessions vs.
//! fresh ones, wire responses vs. direct calls. The invariants that
//! guarantee this — no unordered iteration, no ad-hoc seed arithmetic,
//! no wall-clock reads in result paths, poison-safe locking — used to
//! live only in reviewers' heads, and PR 6 shipped three separate
//! regression fixes for silent violations of exactly these rules. This
//! crate makes them
//! machine-checked: a string/char/raw-string/comment-aware tokenizer
//! ([`tokens`]), a rule engine grounded in those real incidents
//! ([`rules`]), and a workspace walker with human and JSON reports
//! ([`runner`]), wired into CI as a hard-failing step and exposed as
//! `gridmtd lint`.
//!
//! | rule | guards against |
//! |------|----------------|
//! | `lock-unwrap` | `.lock().unwrap()` bricking shared state on poison |
//! | `raw-seed-mix` | `^` / `wrapping_*` seed derivations that collide across streams |
//! | `unordered-iter` | `HashMap`/`HashSet` iteration order leaking into results |
//! | `float-eq` | exact `==`/`!=` on floats outside tests |
//! | `wallclock` | `Instant::now` / `SystemTime` in result-producing crates |
//! | `fault-point` | `faults::point!` names drifting from the registry (unregistered, duplicated, or stale — cross-file, not allow-able) |
//! | `bad-allow` | `allow(...)` escapes without a written reason |
//!
//! Known-good violations are silenced in place, reason mandatory:
//!
//! ```text
//! // gridmtd-lint: allow(raw-seed-mix) -- reason why the invariant holds here
//! ```
//!
//! The crate is std-only with zero dependencies — a deliberate leaf, so
//! the pass can never be broken by the code it checks.
//!
//! ```
//! use gridmtd_lint::{lint_source, render_human};
//!
//! let findings = lint_source(
//!     "crates/x/src/worker.rs",
//!     "fn f(m: &std::sync::Mutex<u8>) { m.lock().unwrap(); }",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "lock-unwrap");
//! assert!(render_human(&findings).contains("worker.rs:1"));
//! ```

pub mod rules;
pub mod runner;
pub mod tokens;

pub use rules::{check_fault_points, lint_source, Finding, ALLOWABLE_RULES};
pub use runner::{lint_workspace, render_human, render_json, workspace_files};
