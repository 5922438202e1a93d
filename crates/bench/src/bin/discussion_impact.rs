//! **Section VII-D** — the insurance comparison: MTD operational premium
//! versus the damage of an undetected FDI attack.
//!
//! The paper cites prior work showing a BDD-bypassing attack can inflate
//! the OPF cost by up to 28% on the IEEE 14-bus system, against an MTD
//! premium of a few percent. This binary regenerates that comparison with
//! this repository's models: load-redistribution attacks of increasing
//! magnitude versus the calibrated cost of an η'(0.9) ≥ 0.9 MTD.
//!
//! Usage: `discussion_impact [--attacks N] [--starts N] [--evals N]`

use gridmtd_bench::{paperconfig, report};
use gridmtd_core::{impact, MtdError, MtdSession};
use gridmtd_powergrid::cases;

fn main() -> Result<(), MtdError> {
    let cfg = paperconfig::config_from_args();
    report::banner("Section VII-D: MTD premium vs undetected-attack damage, IEEE 14-bus");

    let net = cases::case14();

    // Damage side: load-redistribution attacks moving apparent load from
    // the big bus-3 load pocket to the remote bus 14.
    let mut rows = Vec::new();
    for mag in [10.0, 20.0, 40.0, 60.0, 80.0] {
        let mut bias = vec![0.0; net.n_buses()];
        bias[2] = -mag;
        bias[13] = mag;
        let im = impact::load_redistribution_impact(&net, &bias, &cfg)?;
        rows.push(vec![
            format!("{mag:.0} MW"),
            report::f(im.honest_cost, 0),
            report::f(im.attacked_cost, 0),
            report::f(100.0 * im.relative_damage, 2),
            format!("{}", im.overloads.len()),
        ]);
    }
    report::table(
        &["shifted", "honest $", "attacked $", "damage %", "overloads"],
        &rows,
    );
    println!();

    // Premium side: the SPA-constrained MTD at a strong threshold,
    // priced against the OPF at the nominal reactances.
    let session = MtdSession::builder(net).config(cfg).build()?;
    let sel = session.select(0.2)?;
    let base = session.opf_pre()?;
    let premium = 100.0 * (sel.opf.cost - base.cost).max(0.0) / base.cost;
    println!("MTD premium at gamma >= 0.2 (eta'(0.9) ~ 0.9+ per Fig. 6a): {premium:.2}%");
    println!();
    println!("paper: undetected attacks can cost up to 28% (and trip lines), while");
    println!("the MTD premium stays in the low single digits — the insurance is cheap");
    println!("relative to the hedged risk.");
    Ok(())
}
