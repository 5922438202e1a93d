//! Paired measurement behind the session-layer performance contract:
//! `MtdSession::select` (warm session, shared symbolic state) vs the
//! hand-threaded `select_mtd_with` hoisted path, on case118.
//!
//! The two implementations differ by a few percent — well inside the
//! slow machine drift (frequency ramps, cache state) that separates two
//! *sequentially* measured criterion rows. A paired comparison needs
//! interleaved sampling: this binary alternates hand/session selections
//! round by round, so drift hits both sides equally and the ratio is
//! meaningful at the 1.05× gate the CI enforces.
//!
//! Usage: `session_gate [rounds]` (default 4). Appends both rows to
//! `GRIDMTD_BENCH_JSON` in the snapshot format `bench_gate` consumes:
//!
//! ```text
//! GRIDMTD_BENCH_JSON=bench.json session_gate
//! bench_gate --within bench.json 1.05 \
//!     session_select_warm/case118 select_mtd_with/case118
//! ```

use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use gridmtd_core::{selection, spa, MtdConfig, MtdSession};
use gridmtd_powergrid::cases;

const SESSION_ROW: &str = "session_select_warm/case118";
const HAND_ROW: &str = "select_mtd_with/case118";

fn append_row(id: &str, total: Duration, iters: u64) {
    let mean_ns = total.as_nanos() as f64 / iters as f64;
    println!("{id}: {mean_ns:.1} ns/iter ({iters} iters, interleaved)");
    if let Ok(path) = std::env::var("GRIDMTD_BENCH_JSON") {
        let line = format!("{{\"bench\":\"{id}\",\"mean_ns\":{mean_ns:.1},\"iters\":{iters}}}\n");
        let write = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = write {
            eprintln!("warning: could not append to {path}: {e}");
        }
    }
}

fn main() {
    let rounds: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    // Same reduced budget as the criterion rows in
    // `benches/pipeline.rs`: γ_th = 0 keeps every selection in its
    // first penalty round, so the per-call work is deterministic.
    let net = cases::case118();
    let cfg = MtdConfig {
        n_starts: 1,
        max_evals_per_start: 20,
        ..MtdConfig::default()
    };
    let gamma_th = 0.0;

    let x_pre = net.nominal_reactances();
    let basis = spa::GammaBasis::new(&net.measurement_matrix(&x_pre).unwrap()).unwrap();
    let session = MtdSession::builder(net.clone())
        .config(cfg.clone())
        .build()
        .unwrap();

    // One warm-up pair outside the measurement.
    black_box(selection::select_mtd_with(&net, &x_pre, &basis, gamma_th, &cfg).unwrap());
    black_box(session.select(gamma_th).unwrap());

    let mut hand_total = Duration::ZERO;
    let mut session_total = Duration::ZERO;
    for round in 0..rounds {
        let t = Instant::now();
        black_box(selection::select_mtd_with(&net, &x_pre, &basis, gamma_th, &cfg).unwrap());
        let hand = t.elapsed();
        hand_total += hand;

        let t = Instant::now();
        black_box(session.select(gamma_th).unwrap());
        let sess = t.elapsed();
        session_total += sess;

        println!(
            "round {round}: hand {:.3}s  session {:.3}s",
            hand.as_secs_f64(),
            sess.as_secs_f64()
        );
    }

    append_row(HAND_ROW, hand_total, rounds);
    append_row(SESSION_ROW, session_total, rounds);
}
