//! Regression tests pinning the 4-bus reproduction of the paper's
//! Tables I–III (the calibration targets documented on
//! `gridmtd_powergrid::cases::case4`).

use gridmtd::mtd::theory;
use gridmtd::opf::{solve_opf, solve_opf_nominal, OpfOptions};
use gridmtd::powergrid::cases;

#[test]
fn table2_pre_perturbation_operating_point() {
    let net = cases::case4();
    let sol = solve_opf_nominal(&net, &OpfOptions::default()).unwrap();
    let expected_flows = [126.56, 173.44, -43.44, -26.56];
    for (l, &e) in expected_flows.iter().enumerate() {
        assert!(
            (sol.flows[l] - e).abs() < 0.01,
            "flow {l}: {} vs {e}",
            sol.flows[l]
        );
    }
    assert!((sol.dispatch[0] - 350.0).abs() < 1e-6);
    assert!((sol.dispatch[1] - 150.0).abs() < 1e-6);
    assert!((sol.cost - 11_500.0).abs() < 1e-6);
}

#[test]
fn table3_post_perturbation_costs() {
    // Paper: costs 11626 / 11595 / 11514 / 11540 $ for dx1..dx4.
    // Calibration tolerance: within $25 and with the same ordering.
    let net = cases::case4();
    let x0 = net.nominal_reactances();
    let opts = OpfOptions::default();
    let paper = [11_626.0, 11_595.0, 11_514.0, 11_540.0];
    let mut costs = Vec::new();
    for l in 0..4 {
        let mut x = x0.clone();
        x[l] *= 1.2;
        let sol = solve_opf(&net, &x, &opts).unwrap();
        assert!(
            (sol.cost - paper[l]).abs() < 25.0,
            "dx{}: {} vs paper {}",
            l + 1,
            sol.cost,
            paper[l]
        );
        costs.push(sol.cost);
    }
    // Ordering: dx1 most expensive, dx3 cheapest.
    assert!(costs[0] > costs[1] && costs[1] > costs[3] && costs[3] > costs[2]);
    // And every perturbation costs more than the $11.5k baseline.
    for c in costs {
        assert!(c > 11_500.0);
    }
}

#[test]
fn table1_residual_pattern_and_magnitude() {
    let net = cases::case4();
    let x0 = net.nominal_reactances();
    let h = net.measurement_matrix(&x0).unwrap();
    // Per-unit attack vectors as in the paper (see the table1 binary).
    let scale = net.base_mva();
    let a1: Vec<f64> = h
        .matvec(&[1.0, 1.0, 1.0])
        .unwrap()
        .into_iter()
        .map(|v| v / scale)
        .collect();
    let a2: Vec<f64> = h
        .matvec(&[0.0, 0.0, 1.0])
        .unwrap()
        .into_iter()
        .map(|v| v / scale)
        .collect();

    let paper_r1 = [2.82, 2.87, 0.0, 0.0];
    let paper_r2 = [0.0, 0.0, 2.87, 2.82];
    for l in 0..4 {
        let mut x = x0.clone();
        x[l] *= 1.2;
        let h_post = net.measurement_matrix(&x).unwrap();
        let r1 = theory::noiseless_residual(&h_post, &a1).unwrap();
        let r2 = theory::noiseless_residual(&h_post, &a2).unwrap();
        if paper_r1[l] == 0.0 {
            assert!(r1 < 1e-8, "A1 vs dx{}: {r1}", l + 1);
        } else {
            assert!((r1 - paper_r1[l]).abs() < 0.1, "A1 vs dx{}: {r1}", l + 1);
        }
        if paper_r2[l] == 0.0 {
            assert!(r2 < 1e-8, "A2 vs dx{}: {r2}", l + 1);
        } else {
            assert!((r2 - paper_r2[l]).abs() < 0.12, "A2 vs dx{}: {r2}", l + 1);
        }
    }
}
