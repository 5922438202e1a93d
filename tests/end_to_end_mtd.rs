//! End-to-end integration: attacker learns the grid, defender perturbs
//! it, detection follows the paper's theory — across every crate of the
//! workspace.

use gridmtd::attack::AttackerKnowledge;
use gridmtd::estimation::{BadDataDetector, NoiseModel, StateEstimator};
use gridmtd::mtd::{selection, spa, theory, MtdConfig, MtdSession};
use gridmtd::powergrid::{cases, dcpf, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn session(net: &Network, x_pre: &[f64], cfg: &MtdConfig) -> MtdSession {
    MtdSession::builder(net.clone())
        .config(cfg.clone())
        .x_pre(x_pre.to_vec())
        .build()
        .unwrap()
}

fn fast_cfg() -> MtdConfig {
    MtdConfig {
        n_attacks: 120,
        n_starts: 2,
        max_evals_per_start: 120,
        ..MtdConfig::default()
    }
}

#[test]
fn stale_attacker_is_defeated_fresh_attacker_is_not() {
    let net = cases::case14();
    let cfg = fast_cfg();
    let x_pre = net.nominal_reactances();
    let h_pre = net.measurement_matrix(&x_pre).unwrap();

    // Defender selects an effective perturbation.
    let sel = session(&net, &x_pre, &cfg).select(0.2).unwrap();
    let h_post = net.measurement_matrix(&sel.x_post).unwrap();
    let noise = NoiseModel::uniform(h_post.rows(), cfg.noise_sigma_mw);
    let bdd = BadDataDetector::new(StateEstimator::new(h_post, &noise).unwrap(), cfg.alpha);

    // Measurements the attacker scaled against.
    let opf = gridmtd::opf::solve_opf(&net, &x_pre, &cfg.opf_options()).unwrap();
    let z = dcpf::solve_dispatch(&net, &x_pre, &opf.dispatch)
        .unwrap()
        .measurement_vector();

    let mut rng = StdRng::seed_from_u64(3);
    let stale = AttackerKnowledge::learned(h_pre, 0);
    let stale_attacks = stale
        .craft_random_set(&z, cfg.attack_ratio, 40, &mut rng)
        .unwrap();
    let stale_detected = stale_attacks
        .iter()
        .filter(|a| bdd.detection_probability(&a.vector).unwrap() > 0.5)
        .count();
    assert!(
        stale_detected > 20,
        "MTD should expose most stale attacks: {stale_detected}/40"
    );

    // An attacker who re-learned the post-MTD matrix stays stealthy —
    // why the perturbation must keep moving.
    let fresh = AttackerKnowledge::learned(net.measurement_matrix(&sel.x_post).unwrap(), 1);
    let fresh_attacks = fresh
        .craft_random_set(&z, cfg.attack_ratio, 10, &mut rng)
        .unwrap();
    for a in &fresh_attacks {
        let pd = bdd.detection_probability(&a.vector).unwrap();
        assert!((pd - cfg.alpha).abs() < 1e-6, "fresh attack PD {pd}");
    }
}

#[test]
fn proposition1_agrees_with_detection_probability() {
    // Rank-test undetectability (Prop. 1) must coincide with PD == alpha.
    let net = cases::case4();
    let cfg = fast_cfg();
    let x0 = net.nominal_reactances();
    let h = net.measurement_matrix(&x0).unwrap();
    let mut x_post = x0.clone();
    x_post[0] *= 1.3;
    let h_post = net.measurement_matrix(&x_post).unwrap();
    let noise = NoiseModel::uniform(h.rows(), cfg.noise_sigma_mw);
    let bdd = BadDataDetector::new(
        StateEstimator::new(h_post.clone(), &noise).unwrap(),
        cfg.alpha,
    );

    for c in [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
    ] {
        let a = h.matvec(&c).unwrap();
        let undetectable = theory::is_undetectable(&h_post, &a).unwrap();
        let pd = bdd.detection_probability(&a).unwrap();
        if undetectable {
            assert!(
                (pd - cfg.alpha).abs() < 1e-6,
                "undetectable attack must have PD = alpha, got {pd}"
            );
        } else {
            assert!(
                pd > cfg.alpha * 2.0,
                "detectable attack must beat alpha: {pd}"
            );
        }
    }
}

#[test]
fn gamma_zero_perturbation_is_useless_regardless_of_size() {
    // Scaling ALL reactances uniformly is a huge physical change but
    // leaves Col(H) intact: gamma = 0 and zero detection (the paper's
    // Case 2 extreme).
    let net = cases::case14();
    let cfg = fast_cfg();
    let x_pre = net.nominal_reactances();
    let x_post: Vec<f64> = x_pre.iter().map(|v| v * 1.45).collect();
    let eval = session(&net, &x_pre, &cfg).evaluate(&x_post).unwrap();
    assert!(eval.gamma < 1e-6);
    assert_eq!(eval.effectiveness(0.5), 0.0);
}

#[test]
fn selected_mtd_beats_every_random_trial_on_guarantee() {
    let net = cases::case14();
    let cfg = fast_cfg();
    let x_pre = net.nominal_reactances();
    // One session scores every perturbation against one ensemble.
    let s = session(&net, &x_pre, &cfg);

    let sel = s.select(0.2).unwrap();
    let targeted = s.evaluate(&sel.x_post).unwrap();

    // Random 2%-style perturbations (prior work's strategy).
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..5 {
        let x_rand = selection::random_perturbation(&net, &x_pre, 0.02, &mut rng).unwrap();
        let rand_eval = s.evaluate(&x_rand).unwrap();
        assert!(
            targeted.effectiveness(0.9) > rand_eval.effectiveness(0.9),
            "targeted {} <= random {}",
            targeted.effectiveness(0.9),
            rand_eval.effectiveness(0.9)
        );
    }
}

#[test]
fn spa_approximation_of_section6_holds_under_load_drift() {
    // gamma(H_t, H'_t') ~ gamma(H_t', H'_t') when loads drift between
    // hours (the matrices differ only through re-optimized reactances).
    let net = cases::case14();
    let cfg = fast_cfg();
    let x_nominal = net.nominal_reactances();
    let net_hour1 = net.scale_loads(0.8);
    let net_hour2 = net.scale_loads(0.83);

    let (x_t, _) = selection::baseline_opf(&net_hour1, &x_nominal, &cfg).unwrap();
    let (x_t1, _) = selection::baseline_opf(&net_hour2, &x_t, &cfg).unwrap();
    let sel = session(&net_hour2, &x_t, &cfg).select(0.2).unwrap();

    let h_t = net.measurement_matrix(&x_t).unwrap();
    let h_t1 = net.measurement_matrix(&x_t1).unwrap();
    let h_post = net.measurement_matrix(&sel.x_post).unwrap();

    let g_defense = spa::gamma(&h_t, &h_post).unwrap();
    let g_current = spa::gamma(&h_t1, &h_post).unwrap();
    let g_drift = spa::gamma(&h_t, &h_t1).unwrap();
    assert!(g_drift < 0.05, "drift should be tiny: {g_drift}");
    assert!(
        (g_defense - g_current).abs() < 0.1,
        "{g_defense} vs {g_current}"
    );
}
