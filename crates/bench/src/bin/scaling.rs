//! **Scaling study** — how the MTD pipeline scales with grid size, on
//! synthetic meshed networks (substitute for additional IEEE datasets).
//!
//! For each size: time the DC-OPF, the subspace angle and the γ-ceiling
//! search of a fresh session; report the attainable γ ceiling.
//!
//! Usage: `scaling [--starts N] [--evals N]`

use std::time::Instant;

use gridmtd_bench::{paperconfig, report};
use gridmtd_core::{spa, MtdError, MtdSession};
use gridmtd_powergrid::cases::{synthetic, SyntheticConfig};

fn main() -> Result<(), MtdError> {
    let mut cfg = paperconfig::config_from_args();
    cfg.n_starts = cfg.n_starts.min(2);
    cfg.max_evals_per_start = cfg.max_evals_per_start.min(150);
    report::banner("Scaling: MTD pipeline vs grid size (synthetic meshed networks)");

    let mut rows = Vec::new();
    for &n in &[10usize, 20, 40, 80] {
        let net = synthetic(
            &SyntheticConfig {
                n_buses: n,
                ..SyntheticConfig::default()
            },
            7,
        );
        let x0 = net.nominal_reactances();

        let t0 = Instant::now();
        let opf = gridmtd_opf::solve_opf(&net, &x0, &cfg.opf_options())?;
        let opf_ms = t0.elapsed().as_secs_f64() * 1e3;

        let h = net.measurement_matrix(&x0)?;
        let mut x1 = x0.clone();
        for (k, l) in net.dfacts_branches().into_iter().enumerate() {
            x1[l] *= if k % 2 == 0 { 1.3 } else { 0.7 };
        }
        let h1 = net.measurement_matrix(&x1)?;
        let t0 = Instant::now();
        let g = spa::gamma(&h, &h1)?;
        let gamma_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let session = MtdSession::builder(net.clone())
            .config(cfg.clone())
            .build()?;
        let &(_, ceiling) = session.max_gamma()?;
        let select_ms = t0.elapsed().as_secs_f64() * 1e3;

        rows.push(vec![
            format!("{n}"),
            format!("{}", net.n_branches()),
            format!("{}", net.dfacts_branches().len()),
            report::f(opf.cost, 0),
            report::f(opf_ms, 1),
            report::f(g, 3),
            report::f(gamma_ms, 2),
            report::f(ceiling, 3),
            report::f(select_ms, 0),
        ]);
    }
    report::table(
        &[
            "buses",
            "lines",
            "dfacts",
            "opf $",
            "opf ms",
            "gamma",
            "gamma ms",
            "ceiling",
            "search ms",
        ],
        &rows,
    );
    Ok(())
}
