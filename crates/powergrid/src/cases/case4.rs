//! The 4-bus system of the paper's motivating example (Fig. 3).

use crate::{Branch, Bus, Generator, Network};

/// Builds the 4-bus system of Fig. 3 / Tables I–III of the paper.
///
/// Topology and reactances come from MATPOWER's `case4gs` (Grainger &
/// Stevenson): lines 1–2, 1–3, 2–4, 3–4 with reactances 0.0504, 0.0372,
/// 0.0372, 0.0636 p.u. Loads are 50/170/200/80 MW. Generator 1 (bus 1,
/// 20 $/MWh, 350 MW cap) and generator 2 (bus 4, 30 $/MWh) reproduce the
/// paper's Table II exactly: dispatch (350, 150) MW, flows
/// (126.56, 173.44, −43.44, −26.56) MW, OPF cost $1.15 × 10⁴.
///
/// Line flow limits are calibrated here (`tests/paper_tables.rs` pins
/// the result) so that the
/// post-perturbation redispatch of Table III is reproduced to within
/// ~0.4 MW / 0.05% of cost, under the paper's `η = 0.2` reactance
/// perturbations (`x'_k = 1.2 x_k`): lines 1 and 2 are flow-limited just
/// above their pre-perturbation flows (127.68 and 173.49 MW), lines 3 and
/// 4 are unconstrained. With those limits the post-perturbation OPF costs
/// are $11 630 / $11 599 / $11 510 / $11 537 against the paper's
/// $11 626 / $11 595 / $11 514 / $11 540 — same ordering, ∆x³ cheapest.
///
/// All four lines carry D-FACTS devices so each can be perturbed for MTD.
pub fn case4() -> Network {
    let buses = vec![
        Bus::with_load(50.0),
        Bus::with_load(170.0),
        Bus::with_load(200.0),
        Bus::with_load(80.0),
    ];
    let branches = vec![
        Branch::new(0, 1, 0.0504, 127.68).with_dfacts(),
        Branch::new(0, 2, 0.0372, 173.49).with_dfacts(),
        Branch::new(1, 3, 0.0372, 500.0).with_dfacts(),
        Branch::new(2, 3, 0.0636, 500.0).with_dfacts(),
    ];
    let gens = vec![
        Generator::linear(0, 350.0, 20.0),
        Generator::linear(3, 300.0, 30.0),
    ];
    Network::new("case4", buses, branches, gens, 0).expect("case4 data is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_figure3() {
        let net = case4();
        assert_eq!(net.n_buses(), 4);
        assert_eq!(net.n_branches(), 4);
        assert_eq!(net.n_gens(), 2);
        assert_eq!(net.total_load(), 500.0);
        assert_eq!(net.dfacts_branches(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn generation_capacity_covers_load() {
        let net = case4();
        let cap: f64 = net.gens().iter().map(|g| g.pmax_mw).sum();
        assert!(cap >= net.total_load());
    }
}
