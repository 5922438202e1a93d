use serde::{Deserialize, Serialize};

/// A 24-hour load trace, stored as total-system-load values in MW.
///
/// Traces are applied to a network by uniform scaling of its nominal bus
/// loads — the same methodology as feeding an aggregate NYISO trace into
/// an IEEE test case.
///
/// # Example
///
/// ```
/// use gridmtd_traces::nyiso_winter_weekday;
///
/// let trace = nyiso_winter_weekday();
/// assert_eq!(trace.len(), 24);
/// // Evening peak is the daily maximum.
/// assert_eq!(trace.peak_hour(), 18);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadTrace {
    hourly_mw: Vec<f64>,
}

impl LoadTrace {
    /// Creates a trace from hourly totals.
    ///
    /// # Panics
    ///
    /// Panics if `hourly_mw` is empty or contains non-positive values.
    pub fn new(hourly_mw: Vec<f64>) -> LoadTrace {
        assert!(!hourly_mw.is_empty(), "trace must be non-empty");
        assert!(
            hourly_mw.iter().all(|&v| v > 0.0 && v.is_finite()),
            "loads must be positive and finite"
        );
        LoadTrace { hourly_mw }
    }

    /// Number of hours in the trace.
    pub fn len(&self) -> usize {
        self.hourly_mw.len()
    }

    /// Whether the trace is empty (never true for validated traces).
    pub fn is_empty(&self) -> bool {
        self.hourly_mw.is_empty()
    }

    /// Total system load at `hour` (wrapping beyond the trace length, so
    /// multi-day simulations can reuse a daily profile).
    pub fn total_load_mw(&self, hour: usize) -> f64 {
        self.hourly_mw[hour % self.hourly_mw.len()]
    }

    /// All hourly totals.
    pub fn hourly(&self) -> &[f64] {
        &self.hourly_mw
    }

    /// Scaling factor mapping a case with nominal total load
    /// `nominal_total_mw` to this trace at `hour`.
    ///
    /// # Panics
    ///
    /// Panics if `nominal_total_mw <= 0`.
    pub fn scaling_factor(&self, hour: usize, nominal_total_mw: f64) -> f64 {
        assert!(nominal_total_mw > 0.0, "nominal load must be positive");
        self.total_load_mw(hour) / nominal_total_mw
    }

    /// Hour of the daily peak (first occurrence).
    pub fn peak_hour(&self) -> usize {
        let mut best = 0;
        for (h, &v) in self.hourly_mw.iter().enumerate() {
            if v > self.hourly_mw[best] {
                best = h;
            }
        }
        best
    }

    /// Returns a copy rescaled so the peak equals `peak_mw`.
    ///
    /// # Panics
    ///
    /// Panics if `peak_mw <= 0`.
    pub fn rescaled_to_peak(&self, peak_mw: f64) -> LoadTrace {
        assert!(peak_mw > 0.0, "peak must be positive");
        let current = self.hourly_mw[self.peak_hour()];
        LoadTrace {
            hourly_mw: self
                .hourly_mw
                .iter()
                .map(|v| v * peak_mw / current)
                .collect(),
        }
    }
}

/// Synthetic NYISO-style winter weekday profile (total MW per hour,
/// 0 = midnight–1 AM … 23 = 11 PM–midnight), scaled to the IEEE 14-bus
/// system so that peak hours push past the D-FACTS-compensated
/// congestion onset (~225 MW): trough ≈ 167 MW overnight, evening peak
/// ≈ 253 MW (98% of the case's 259 MW nominal) at 6–7 PM. The paper's
/// Fig. 10 axis shows 140–220 MW, but with the Table IV generators and
/// 160/60 MW line limits those loads never congest once reactances are
/// free within the D-FACTS box, so its nonzero MTD costs are only
/// reachable at a slightly higher operating point, which is why this
/// profile peaks near the nominal load.
///
/// This is a **substitution** for the non-redistributable NYISO trace of
/// 25-Jan-2016 (see the calibration notes of `docs/REPRODUCING.md`): any
/// smooth profile with a realistic trough/peak structure and strong
/// hour-to-hour correlation exercises
/// the same code paths (hourly OPF, measurement-matrix drift
/// `γ(H_t, H_t') ≈ 0`, congestion-driven MTD cost at peak hours).
pub fn nyiso_winter_weekday() -> LoadTrace {
    LoadTrace::new(vec![
        175.0, 170.0, 168.0, 167.0, 168.0, 173.0, // 0-5 AM: overnight trough
        186.0, 205.0, 219.0, 225.0, 228.0, 227.0, // 6-11 AM: morning ramp
        224.0, 221.0, 219.0, 221.0, 230.0, 244.0, // 12-5 PM: afternoon rise
        253.0, 251.0, 239.0, 222.0, 201.0, 184.0, // 6-11 PM: evening peak, decline
    ])
}

/// Flat trace: `hours` identical entries of `total_mw`. Useful for
/// static-load timeline runs and as a degenerate test trace.
///
/// # Panics
///
/// Panics if `hours == 0` or `total_mw <= 0`.
pub fn flat(hours: usize, total_mw: f64) -> LoadTrace {
    assert!(hours > 0, "trace must be non-empty");
    LoadTrace::new(vec![total_mw; hours])
}

/// Names of the built-in traces resolvable by [`by_name`], in
/// registry order.
pub const BUILTIN_TRACES: &[&str] = &["nyiso_winter_weekday"];

/// Looks up a built-in trace by name (the declarative scenario specs
/// reference traces this way). Returns `None` for unknown names; see
/// [`BUILTIN_TRACES`] for the valid set.
pub fn by_name(name: &str) -> Option<LoadTrace> {
    match name {
        "nyiso_winter_weekday" => Some(nyiso_winter_weekday()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winter_weekday_shape() {
        let t = nyiso_winter_weekday();
        assert_eq!(t.len(), 24);
        // trough in the small hours
        let trough =
            (0..24).min_by(|&a, &b| t.total_load_mw(a).partial_cmp(&t.total_load_mw(b)).unwrap());
        assert_eq!(trough, Some(3));
        // peak at 6 PM
        assert_eq!(t.peak_hour(), 18);
        // smooth: adjacent hours change < 12%
        for h in 0..24 {
            let a = t.total_load_mw(h);
            let b = t.total_load_mw(h + 1);
            assert!((a - b).abs() / a < 0.12, "jump at hour {h}");
        }
    }

    #[test]
    fn wrapping_indexing() {
        let t = nyiso_winter_weekday();
        assert_eq!(t.total_load_mw(0), t.total_load_mw(24));
        assert_eq!(t.total_load_mw(5), t.total_load_mw(29));
    }

    #[test]
    fn scaling_factor_maps_nominal_load() {
        let t = nyiso_winter_weekday();
        // IEEE 14-bus nominal total is 259 MW.
        let f = t.scaling_factor(18, 259.0);
        assert!((f - 253.0 / 259.0).abs() < 1e-12);
    }

    #[test]
    fn rescaled_to_peak() {
        let t = nyiso_winter_weekday().rescaled_to_peak(259.0);
        assert!((t.total_load_mw(18) - 259.0).abs() < 1e-9);
        assert_eq!(t.peak_hour(), 18);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_trace_panics() {
        LoadTrace::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_load_panics() {
        LoadTrace::new(vec![100.0, -5.0]);
    }

    #[test]
    fn flat_trace_is_constant() {
        let t = flat(4, 250.0);
        assert_eq!(t.len(), 4);
        for h in 0..4 {
            assert_eq!(t.total_load_mw(h), 250.0);
        }
    }

    #[test]
    fn registry_resolves_every_builtin_name() {
        for &name in BUILTIN_TRACES {
            assert!(by_name(name).is_some(), "unresolvable builtin {name}");
        }
        assert!(by_name("no_such_trace").is_none());
        assert_eq!(
            by_name("nyiso_winter_weekday"),
            Some(nyiso_winter_weekday())
        );
    }
}
