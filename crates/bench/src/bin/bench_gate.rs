//! Bench regression gate: compares a freshly measured
//! `GRIDMTD_BENCH_JSON` snapshot against a committed baseline and fails
//! (exit code 1) when a gated benchmark regresses beyond the allowed
//! ratio.
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json> <max_ratio> <bench-id>...
//! ```
//!
//! The files hold one `{"bench":…,"mean_ns":…,"iters":…}` object per
//! line (the format the vendored criterion stand-in emits). Every named
//! bench id must be present in both files; `ratio = candidate/baseline`
//! must satisfy `ratio <= max_ratio`. Run machines differ, so this gate
//! is a coarse tripwire (the CI threshold is 2×), not a precision meter.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parses one snapshot line of the form
/// `{"bench":"<id>","mean_ns":<float>,"iters":<int>}`.
fn parse_line(line: &str) -> Option<(String, f64)> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let name = line.split("\"bench\":\"").nth(1)?.split('"').next()?;
    let mean = line
        .split("\"mean_ns\":")
        .nth(1)?
        .split([',', '}'])
        .next()?
        .trim()
        .parse::<f64>()
        .ok()?;
    Some((name.to_string(), mean))
}

/// Loads a snapshot file into `bench id → mean_ns`. Later lines win, so
/// re-running a bench into the same file updates its entry.
fn load_snapshot(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text.lines().filter_map(parse_line).collect())
}

fn run(args: &[String]) -> Result<(), String> {
    let [baseline_path, candidate_path, max_ratio, benches @ ..] = args else {
        return Err(
            "usage: bench_gate <baseline.json> <candidate.json> <max_ratio> <bench-id>...".into(),
        );
    };
    if benches.is_empty() {
        return Err("no gated bench ids given".into());
    }
    let max_ratio: f64 = max_ratio
        .parse()
        .map_err(|e| format!("bad max_ratio {max_ratio:?}: {e}"))?;
    let baseline = load_snapshot(baseline_path)?;
    let candidate = load_snapshot(candidate_path)?;

    let mut failures = Vec::new();
    println!(
        "{:<40} {:>12} {:>12} {:>8}",
        "bench", "base ns", "cand ns", "ratio"
    );
    for id in benches {
        let base = *baseline
            .get(id)
            .ok_or_else(|| format!("bench {id:?} missing from {baseline_path}"))?;
        let cand = *candidate
            .get(id)
            .ok_or_else(|| format!("bench {id:?} missing from {candidate_path}"))?;
        let ratio = cand / base;
        println!("{id:<40} {base:>12.0} {cand:>12.0} {ratio:>8.3}");
        if ratio > max_ratio {
            failures.push(format!("{id}: ratio {ratio:.3} > allowed {max_ratio}"));
        }
    }
    if failures.is_empty() {
        println!("bench gate passed (max allowed ratio {max_ratio})");
        Ok(())
    } else {
        Err(format!(
            "bench regression detected:\n  {}",
            failures.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snapshot_lines() {
        let (name, mean) =
            parse_line("{\"bench\":\"dc_opf/case30\",\"mean_ns\":23551583.5,\"iters\":320}")
                .unwrap();
        assert_eq!(name, "dc_opf/case30");
        assert!((mean - 23_551_583.5).abs() < 1e-6);
        assert!(parse_line("").is_none());
        assert!(parse_line("not json at all").is_none());
    }

    #[test]
    fn gate_passes_and_fails_on_ratio() {
        let dir = std::env::temp_dir().join("gridmtd_bench_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let cand = dir.join("cand.json");
        std::fs::write(&base, "{\"bench\":\"a/b\",\"mean_ns\":100.0,\"iters\":1}\n").unwrap();
        std::fs::write(&cand, "{\"bench\":\"a/b\",\"mean_ns\":150.0,\"iters\":1}\n").unwrap();
        let args = |ratio: &str| {
            vec![
                base.to_str().unwrap().to_string(),
                cand.to_str().unwrap().to_string(),
                ratio.to_string(),
                "a/b".to_string(),
            ]
        };
        assert!(run(&args("2.0")).is_ok());
        assert!(run(&args("1.2")).is_err());
        // Missing bench id is an error, not a silent pass.
        let mut missing = args("2.0");
        missing[3] = "nope".into();
        assert!(run(&missing).is_err());
    }
}
