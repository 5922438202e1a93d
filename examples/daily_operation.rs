//! A day in the life of an MTD-defended grid operator (Figs. 10–11).
//!
//! Drives the hourly loop through the session API: `begin_day` arms the
//! trace and initializes the attacker's (one-hour-stale) knowledge,
//! then each `step_hour` re-dispatches for the hour's load, tunes the
//! smallest subspace-angle threshold achieving `η'(0.9) ≥ 0.9`, logs
//! the operational cost of the defense, and advances the stale-matrix
//! state the session owns. Uses reduced optimizer budgets so it
//! finishes in about a minute; `gridmtd run
//! scenarios/timeline_case14.toml` runs the checked-in Figs. 10–11 day.
//!
//! Run with: `cargo run --release --example daily_operation`

use gridmtd::mtd::{MtdConfig, MtdSession, TimelineOptions};
use gridmtd::powergrid::cases;
use gridmtd::traces::nyiso_winter_weekday;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MtdConfig {
        n_attacks: 300,
        n_starts: 2,
        max_evals_per_start: 150,
        ..MtdConfig::default()
    };
    let mut session = MtdSession::builder(cases::case14()).config(cfg).build()?;

    println!("hour   load(MW)  cost_no_mtd  cost_mtd   +%     gamma  eta(0.9)");
    session.begin_day(&nyiso_winter_weekday(), &TimelineOptions::default())?;
    let mut daily_premium = 0.0;
    while session.hours_remaining() > 0 {
        let o = session.step_hour()?;
        daily_premium += o.cost_with_mtd - o.cost_no_mtd;
        println!(
            "{:02}:00  {:7.0}  {:10.0}  {:9.0}  {:5.2}  {:6.3}  {:7.3}{}",
            o.hour,
            o.total_load_mw,
            o.cost_no_mtd,
            o.cost_with_mtd,
            o.cost_increase_percent,
            o.gamma_defense,
            o.effectiveness,
            if o.target_met {
                ""
            } else {
                "  (target missed)"
            }
        );
    }

    println!();
    println!("daily MTD premium: ${daily_premium:.0} — the 'insurance' cost of keeping");
    println!("stale-knowledge FDI attacks detectable around the clock.");
    Ok(())
}
