//! Sparse-vs-dense agreement contract for WLS estimation and BDD
//! detection probabilities, across every benchmark case from the
//! paper's 4-bus example to the 300-bus scaling rung.
//!
//! The reference is local to this test: the dense normal equations
//! (a Cholesky of `HᵀWH`) and the closed-form detection probability of
//! Appendix B evaluated on the dense residuals.

use gridmtd_estimation::{BadDataDetector, NoiseModel, StateEstimator};
use gridmtd_linalg::{Cholesky, Matrix};
use gridmtd_powergrid::{cases, dcpf, Network};
use gridmtd_stats::chi2::{ChiSquared, NoncentralChiSquared};

fn all_cases() -> Vec<Network> {
    vec![
        cases::case4(),
        cases::case14(),
        cases::case30(),
        cases::case57(),
        cases::case118(),
        cases::case300(),
    ]
}

fn measurements(net: &Network, x: &[f64]) -> Vec<f64> {
    let share = net.total_load() / net.n_gens() as f64;
    let dispatch = vec![share; net.n_gens()];
    dcpf::solve_dispatch(net, x, &dispatch)
        .unwrap()
        .measurement_vector()
}

/// Dense WLS reference: `θ̂ = (HᵀWH)⁻¹HᵀWz` through a dense Cholesky.
struct DenseWls {
    h: Matrix,
    weights: Vec<f64>,
    /// `diag(w) · H`.
    wh: Matrix,
    gain: Cholesky,
}

impl DenseWls {
    fn new(h: &Matrix, noise: &NoiseModel) -> DenseWls {
        let weights = noise.weights();
        let mut wh = h.clone();
        for (i, &w) in weights.iter().enumerate() {
            for v in wh.row_mut(i) {
                *v *= w;
            }
        }
        let gain = Cholesky::factor(&h.transpose().matmul(&wh).unwrap()).unwrap();
        DenseWls {
            h: h.clone(),
            weights,
            wh,
            gain,
        }
    }

    fn estimate(&self, z: &[f64]) -> Vec<f64> {
        self.gain
            .solve(&self.wh.matvec_transposed(z).unwrap())
            .unwrap()
    }

    fn residual_statistic(&self, z: &[f64]) -> f64 {
        let zh = self.h.matvec(&self.estimate(z)).unwrap();
        z.iter()
            .zip(&zh)
            .zip(&self.weights)
            .map(|((zi, zhi), wi)| wi * (zi - zhi) * (zi - zhi))
            .sum()
    }

    /// `P(J ≥ τ²)` for attack `a` at false-positive rate `alpha`.
    fn detection_probability(&self, a: &[f64], alpha: f64) -> f64 {
        let dof = (self.h.rows() - self.h.cols()) as f64;
        let threshold = ChiSquared::new(dof).inv_cdf(1.0 - alpha);
        NoncentralChiSquared::new(dof, self.residual_statistic(a)).sf(threshold)
    }
}

#[test]
fn wls_and_bdd_sparse_match_dense_on_every_case() {
    for net in all_cases() {
        let x = net.nominal_reactances();
        let h = net.measurement_matrix(&x).unwrap();
        let noise = NoiseModel::uniform(h.rows(), 1.0);
        let dense = DenseWls::new(&h, &noise);
        let sparse = StateEstimator::new(h.clone(), &noise).unwrap();

        // A noisy-ish measurement vector: the exact power flow plus a
        // deterministic perturbation pattern.
        let mut z = measurements(&net, &x);
        for (i, v) in z.iter_mut().enumerate() {
            *v += 0.1 * ((i % 7) as f64 - 3.0);
        }

        // WLS estimates agree.
        let td = dense.estimate(&z);
        let ts = sparse.estimate(&z).unwrap();
        let scale = td.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in td.iter().zip(ts.iter()) {
            assert!(
                (a - b).abs() <= 1e-8 * scale,
                "{}: estimate {a} vs {b}",
                net.name()
            );
        }

        // Residual statistics agree (relative: J grows with M).
        let jd = dense.residual_statistic(&z);
        let js = sparse.residual_statistic(&z).unwrap();
        assert!(
            (jd - js).abs() <= 1e-8 * jd.max(1.0),
            "{}: J {jd} vs {js}",
            net.name()
        );

        // BDD detection probabilities agree: a stealthy attack (image of
        // H) and a non-stealthy one.
        let bdd_sparse = BadDataDetector::new(sparse, 5e-4);
        let c: Vec<f64> = (0..h.cols())
            .map(|i| 1e-3 * ((i % 5) as f64 + 1.0))
            .collect();
        let stealthy = h.matvec(&c).unwrap();
        let visible: Vec<f64> = (0..h.rows())
            .map(|i| if i % 9 == 0 { 2.5 } else { 0.0 })
            .collect();
        for attack in [&stealthy, &visible] {
            let pd = dense.detection_probability(attack, 5e-4);
            let ps = bdd_sparse.detection_probability(attack).unwrap();
            assert!(
                (pd - ps).abs() <= 1e-6,
                "{}: detection probability {pd} vs {ps}",
                net.name()
            );
        }
        // The stealthy attack sits at the false-positive floor on both
        // sides.
        let pd = bdd_sparse.detection_probability(&stealthy).unwrap();
        assert!((pd - 5e-4).abs() < 1e-6, "{}: stealthy pd {pd}", net.name());
    }
}
