//! The benchmark's definition: workloads, metrics, units and bounds.
//! `BENCHMARK.json` at the repository root is rendered from these
//! tables (`--manifest`), and a test keeps the committed file in step.

use gridmtd_scenario::json::Json;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 15;

/// A workload name and why it is in the benchmark.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what it exercises.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "select-case118",
        why: "problem (4) at gamma_th 0.1 and default budgets on a warm case118 session: warm LP and duals, pencil eigensolves, exact-gamma audit",
    },
    Workload {
        name: "evaluate-case118",
        why: "seeded D-FACTS perturbations scored on warm case118: H build, two dense SVD angles, gain factorization, 1000-attack scoring; no LP",
    },
    Workload {
        name: "timeline-case14",
        why: "the Figs. 10-11 day, one op per day: each hour rebuilds x_pre caches, baseline, ensemble and speculative gamma-grid candidates",
    },
    Workload {
        name: "serve-mixed-case57",
        why: "in-process server, 2 workers, 2 closed-loop clients, 4:1 evaluate:select over two case57 keys: frame codec, queue, coalescing, LRU",
    },
];

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric.
pub struct Metric {
    /// Name, `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run. Timings get the
/// largest bound the contract allows: on the 2-vCPU shared VM the same
/// work measured 10–25 % apart between processes (neighbour load comes
/// in episodes of tens of seconds), so a tighter bound would flag noise.
/// The accuracy metrics are deterministic per seed; their bounds cover
/// the spread across seeds.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_p50_ms", "ms", Lower, 0.25),
    e2e("op_tail_ms", "ms", Lower, 0.25),
    e2e("hour_tail_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("within_limit_frac", "fraction", Higher, 0.1),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("gamma_met_frac", "fraction", Higher, 0.05),
    e2e("mtd_cost_ratio", "ratio", Lower, 0.02),
    e2e("detect_mean", "prob", Higher, 0.1),
    e2e("target_met_frac", "fraction", Higher, 0.15),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("powergrid.h_builds_per_op", "count", Lower),
    layer("powergrid.h_build_us", "us", Lower),
    layer("powergrid.pf_symbolic_per_op", "count", Lower),
    layer("opf.cold_solve_ms", "ms", Lower),
    layer("opf.warm_solve_ms", "ms", Lower),
    layer("opf.grad_solve_ms", "ms", Lower),
    layer("opf.warm_frac", "fraction", Higher),
    layer("parallel.speedup_2t", "ratio", Higher),
    layer("spa.sin_sq_ms", "ms", Lower),
    layer("spa.gamma_exact_ms", "ms", Lower),
    layer("spa.smallest_angle_ms", "ms", Lower),
    layer("spa.basis_build_ms", "ms", Lower),
    layer("spa.basis_builds_per_op", "count", Lower),
    layer("estimation.detector_build_ms", "ms", Lower),
    layer("estimation.gain_symbolic_per_op", "count", Lower),
    layer("attack.score_ms", "ms", Lower),
    layer("attack.ensemble_build_ms", "ms", Lower),
    layer("selection.baseline_ms", "ms", Lower),
    layer("timeline.candidates_per_hour", "count", Lower),
    layer("serve.codec_us", "us", Lower),
    layer("serve.overhead_ms", "ms", Lower),
    layer("serve.lru_hit_frac", "fraction", Higher),
    layer("serve.coalesced_frac", "fraction", Higher),
    layer("serve.shed_expired", "count", Lower),
    layer("trace.overhead_ms", "ms", Lower),
];

fn metric_json(m: &Metric) -> Json {
    let better = match m.better {
        Lower => "lower",
        Higher => "higher",
    };
    let mut fields = vec![
        ("name", Json::Str(m.name.to_string())),
        ("unit", Json::Str(m.unit.to_string())),
        ("better", Json::Str(better.to_string())),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound", Json::Num(b)));
    }
    Json::obj(fields)
}

/// The contents of `BENCHMARK.json`.
pub fn render() -> String {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::Str((*s).to_string())).collect());
    Json::obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["perfbench"])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::Str(w.name.to_string())),
                            ("why", Json::Str(w.why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
    .pretty()
}

/// Looks a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            render(),
            "regenerate with `cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn tables_respect_the_manifest_limits() {
        let valid_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names must be unique");
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = find("setup_s").expect("setup_s is defined");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(render().len() < 64 * 1024);
    }
}
