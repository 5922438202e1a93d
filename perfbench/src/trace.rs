//! The traced run's recorder: spans around the benchmark's own calls
//! into each layer, and deltas of the program's existing public
//! counters. Nothing inside the program is instrumented; spans stay in
//! memory and are summarized when the run ends.

use std::collections::BTreeMap;

use gridmtd_core::spa;
use gridmtd_estimation::gain_symbolic_analyses;
use gridmtd_powergrid::stats;

/// Durations of the recorded spans, in milliseconds, by span name
/// (`layer.call`).
#[derive(Debug, Clone, Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    /// Runs `f` and records its duration under `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = crate::stats::now();
        let out = f();
        self.0
            .entry(name)
            .or_default()
            .push(crate::stats::ms(t.elapsed()));
        out
    }

    /// Mean duration of the spans named `name`, in milliseconds (`None`
    /// when the run made no such call).
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|d| crate::stats::mean(d))
    }

    /// Per-name count and mean duration, in milliseconds.
    pub fn summary(&self) -> impl Iterator<Item = (&'static str, usize, f64)> + '_ {
        self.0
            .iter()
            .map(|(&name, d)| (name, d.len(), crate::stats::mean(d)))
    }
}

/// A snapshot of the program's process-wide work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Dense measurement-matrix (`H`) builds.
    pub h_builds: u64,
    /// Sparse power-flow symbolic factorizations.
    pub pf_symbolic: u64,
    /// `GammaBasis` (QR of `H(x_pre)`) builds.
    pub basis_builds: u64,
    /// Gain-matrix symbolic factorizations.
    pub gain_symbolic: u64,
}

impl Counters {
    /// Reads every counter now.
    pub fn now() -> Counters {
        Counters {
            h_builds: stats::measurement_matrix_builds(),
            pf_symbolic: stats::pf_symbolic_analyses(),
            basis_builds: spa::gamma_basis_builds(),
            gain_symbolic: gain_symbolic_analyses(),
        }
    }

    /// Work done since `before`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            h_builds: self.h_builds - before.h_builds,
            pf_symbolic: self.pf_symbolic - before.pf_symbolic,
            basis_builds: self.basis_builds - before.basis_builds,
            gain_symbolic: self.gain_symbolic - before.gain_symbolic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_each_call_by_name() {
        let mut s = Spans::default();
        let v = s.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(3));
            7
        });
        s.span("a", || ());
        s.span("b", || ());
        assert_eq!(v, 7);
        let summary: Vec<_> = s.summary().collect();
        assert_eq!(summary.len(), 2);
        assert_eq!((summary[0].0, summary[0].1), ("a", 2));
        assert!(s.mean_ms("a").unwrap() >= 1.5);
        assert_eq!(s.mean_ms("absent"), None);
    }
}
