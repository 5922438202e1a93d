//! The gridmtd benchmark: one command, four workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload select-case118 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Other modes:
//!
//! * `--manifest` prints `BENCHMARK.json`, rendered from the tables in
//!   `manifest.rs`;
//! * `--repeat N` (with the run flags) runs the workload N times, with
//!   seeds `seed … seed+N−1`, each in its own process, and prints every
//!   metric's median and quartiles, flagging a spread beyond its bound.
//!
//! See `perfbench/README.md` for the op definitions and the layer map.

mod gen;
mod manifest;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use gridmtd_scenario::json::Json;

use manifest::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{max_tail, median, ratio, tail};
use workloads::{Args, Run};

/// Parsed command line.
struct Cli {
    workload: String,
    args: Args,
    repeat: Option<u64>,
    manifest: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--repeat <N>]\n       perfbench --manifest",
        names.join("|")
    )
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        args: Args {
            seed: 1,
            window: Duration::from_secs(manifest::RUN_SECONDS),
            trace: false,
        },
        repeat: None,
        manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--manifest" {
            cli.manifest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload.clone_from(value),
            "--seed" => cli.args.seed = num()?,
            "--seconds" => cli.args.window = Duration::from_secs(num()?.max(1)),
            "--trace" => {
                cli.args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--repeat" => cli.repeat = Some(num()?.max(1)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !cli.manifest && !WORKLOADS.iter().any(|w| w.name == cli.workload) {
        return Err(format!("unknown workload '{}'", cli.workload));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        print!("{}", manifest::render());
        return ExitCode::SUCCESS;
    }
    if let Some(n) = cli.repeat {
        return repeat(&argv, &cli, n);
    }
    let run = match cli.workload.as_str() {
        "select-case118" => workloads::select::run(&cli.args),
        "evaluate-case118" => workloads::evaluate::run(&cli.args),
        "timeline-case14" => workloads::timeline::run(&cli.args),
        "serve-mixed-case57" => workloads::serve::run(&cli.args),
        other => unreachable!("workload {other} was validated"),
    };
    match run {
        Ok(run) => {
            report(&cli, &run);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", cli.workload);
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fraction over a count; vacuously 1 when nothing was counted.
fn frac((num, den): (u64, u64)) -> f64 {
    if den == 0 {
        1.0
    } else {
        ratio(num, den)
    }
}

/// The end-to-end metrics of an untraced run, each with a note.
fn end_to_end(workload: &str, run: &Run) -> BTreeMap<&'static str, (f64, String)> {
    let p = &run.phase;
    let op_tail = if run.tail_is_max {
        max_tail(&p.lat_ms)
    } else {
        tail(&p.lat_ms)
    };
    // An op is one decision except where the op holds several.
    let hour_tail = if run.decisions_ms.is_empty() {
        op_tail.clone()
    } else {
        tail(&run.decisions_ms)
    };
    let q = &run.quality;
    let count_note = |(n, d): (u64, u64), what: &str| {
        if d == 0 {
            format!("no {what} in this workload (vacuous)")
        } else {
            format!("{n} of {d} {what}")
        }
    };
    let decision = if workload == "timeline-case14" {
        "step_hour decisions"
    } else {
        "ops (one decision each)"
    };
    BTreeMap::from([
        (
            "setup_s",
            (
                median(&run.setup_s),
                format!(
                    "median of {} cold set-ups: {}",
                    run.setup_s.len(),
                    run.setup_s
                        .iter()
                        .map(|t| format!("{t:.3}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
        ),
        (
            "op_p50_ms",
            (
                median(&p.lat_ms),
                format!("median of {} ops", p.lat_ms.len()),
            ),
        ),
        ("op_tail_ms", (op_tail.value, op_tail.describe())),
        (
            "hour_tail_ms",
            (
                hour_tail.value,
                format!("{}, {decision}", hour_tail.describe()),
            ),
        ),
        (
            "ops_per_s",
            (
                p.lat_ms.len() as f64 / p.elapsed_s.max(1e-9),
                format!("{} ops in {:.3} s", p.lat_ms.len(), p.elapsed_s),
            ),
        ),
        (
            "within_limit_frac",
            (
                run.tally.within_limit_frac(),
                format!("{} of {} ops", run.tally.within_limit, run.tally.attempted),
            ),
        ),
        ("peak_rss_mb", (peak_rss_mb(), "VmHWM".into())),
        (
            "gamma_met_frac",
            (frac(q.gamma_met), count_note(q.gamma_met, "selections")),
        ),
        (
            "mtd_cost_ratio",
            (q.cost_ratio, "MTD OPF cost / no-MTD OPF cost".into()),
        ),
        ("detect_mean", (q.detect_mean, "post-MTD detection".into())),
        (
            "target_met_frac",
            (frac(q.target_met), count_note(q.target_met, "decisions")),
        ),
    ])
}

/// Prints every metric of the run's kind by name with its unit, then
/// the result line.
fn report(cli: &Cli, run: &Run) {
    let (table, values): (&[Metric], BTreeMap<&str, (f64, String)>) = if cli.args.trace {
        let values = run
            .layer
            .iter()
            .map(|(&k, &v)| (k, (v, String::new())))
            .collect();
        (PER_LAYER, values)
    } else {
        (END_TO_END, end_to_end(&cli.workload, run))
    };
    let failed = run.tally.failed + run.check_failures.len() as u64;
    let attempted = run.tally.attempted + run.check_failures.len() as u64;
    for msg in &run.check_failures {
        println!("check failed: {msg}");
    }
    println!(
        "{} seed {}: {attempted} ops, {failed} failed (error_frac {:.4})",
        cli.workload,
        cli.args.seed,
        ratio(failed, attempted)
    );
    let mut metrics = Vec::new();
    for m in table {
        // A layer off this workload's path reports 0.
        let (v, note) = values
            .get(m.name)
            .cloned()
            .unwrap_or((0.0, "not on this workload's path".into()));
        let v = if v.is_finite() { v } else { 0.0 };
        println!("  {:<34} {v:>14.6} {:<8} {note}", m.name, m.unit);
        metrics.push((
            m.name,
            Json::obj(vec![
                ("value", Json::Num(v)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        ));
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.compact());
}

/// `--repeat N`: the steadiness report. Runs the workload N times with
/// consecutive seeds, each in its own process, and prints each metric's
/// quartiles; a spread (Q3 − Q1 over the median) beyond the metric's
/// bound is flagged.
fn repeat(argv: &[String], cli: &Cli, n: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The child runs keep every flag but --repeat and --seed.
    let mut base = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--repeat" || a == "--seed" {
            it.next();
        } else {
            base.push(a.clone());
        }
    }
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..n {
        let seed = cli.args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(&base)
            .args(["--seed", &seed.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match out {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("seed {seed}: exit {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let Some(Json::Obj(metrics)) = doc.as_ref().and_then(|d| d.get("metrics")).cloned() else {
            eprintln!("seed {seed}: no result line");
            return ExitCode::FAILURE;
        };
        all_correct &= doc.as_ref().and_then(|d| d.get("correct")) == Some(&Json::Bool(true));
        let mut line = format!("seed {seed}:");
        for (name, v) in metrics {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            line.push_str(&format!(" {name}={value:.4}"));
            series.entry(name).or_default().push(value);
        }
        println!("{line}");
    }
    println!(
        "{} over {n} seeds from {}: {:<34} {:>12} {:>12} {:>12} {:>8} {:>6}",
        cli.workload, cli.args.seed, "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut flagged = 0;
    for (name, xs) in &series {
        let Some((q1, med, q3)) = stats::quartiles(xs) else {
            continue;
        };
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        let bound = manifest::find(name).and_then(|m| m.bound);
        let flag = match bound {
            Some(b) if spread > b => {
                flagged += 1;
                "  SPREAD > BOUND"
            }
            Some(b) if spread > b / 3.0 => "  above bound/3",
            _ => "",
        };
        let bound = bound.map_or_else(|| "-".to_string(), |b| format!("{b}"));
        println!("  {name:<34} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6}{flag}");
    }
    println!("all runs correct: {all_correct}; metrics over their bound: {flagged}");
    if all_correct && flagged == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
