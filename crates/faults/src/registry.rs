//! The registry of every named injection point in the workspace.
//!
//! One name per fragile boundary, `<crate>.<module>.<failure>`. The
//! chaos matrix (`crates/core/tests/fault_matrix.rs`,
//! `crates/serve/tests/chaos.rs`) iterates this list so a point cannot
//! exist without a test, and `gridmtd lint` cross-checks that every
//! `faults::point!(...)` call site uses exactly one of these names and
//! that every name has exactly one call site — the list and the code
//! cannot drift apart silently. Keep the entries sorted.
//!
//! `gridmtd lint` parses this file textually (it collects the string
//! literals below), so the registry must stay a plain literal array.

/// Every registered injection point, sorted by name.
pub const ALL: &[&str] = &[
    "core.session.estimator_poison",
    "linalg.eigen.ql_nonconvergence",
    "linalg.sparse_cholesky.zero_pivot",
    "opf.lbfgs.line_search",
    "opf.lp.warm_repair",
    "opf.lp.warm_resolve",
    "serve.conn.read",
    "serve.conn.write",
    "serve.frame.parse",
    "serve.worker.dispatch",
];

/// Whether `name` is a registered injection point.
pub fn is_registered(name: &str) -> bool {
    ALL.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in ALL.windows(2) {
            assert!(
                pair[0] < pair[1],
                "{} must sort before {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn lookup_matches_membership() {
        assert!(is_registered("opf.lp.warm_resolve"));
        assert!(!is_registered("opf.lp.warm_resolv"));
    }
}
