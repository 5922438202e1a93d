//! Weighted-least-squares state estimation (Section III of the paper).
//!
//! Given measurements `z = Hθ + n` with diagonal noise covariance
//! `R = diag(σᵢ²)`, the ML estimate is `θ̂ = (HᵀWH)⁻¹HᵀWz` with
//! `W = R⁻¹`. The estimator caches the Cholesky factor of the gain matrix
//! `HᵀWH` so repeated estimates (Monte-Carlo detection studies) cost one
//! matrix–vector product and one triangular solve each.
//!
//! # Factorization
//!
//! `H` has a handful of nonzeros per row on every grid, so the estimator
//! assembles `HᵀWH` directly from those row stamps, factors it with the
//! sparse Cholesky of `gridmtd-linalg`, and runs estimates through
//! sparse matrix–vector products — `O(Σ nnz(row)²)` for the gain instead
//! of the `O(M n²)` dense product. Attack batches should prefer
//! [`StateEstimator::residual_statistics`] /
//! [`crate::BadDataDetector::detection_probabilities`], which solve all
//! right-hand sides through one multi-RHS triangular-solve pass.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridmtd_linalg::sparse::{SparseCholesky, SparseMatrix, SymbolicCholesky};
use gridmtd_linalg::{LinalgError, Matrix};

use crate::NoiseModel;

/// Process-wide count of sparse gain-matrix symbolic analyses, for the
/// same regression-guard purpose as `gridmtd_powergrid::stats`: warm
/// paths that hold an [`EstimatorContext`] must not re-analyze the gain
/// pattern for an unchanged topology.
static GAIN_SYMBOLIC_ANALYSES: AtomicU64 = AtomicU64::new(0);

/// Number of sparse gain-matrix (`HᵀWH`) symbolic factorizations run so
/// far, process-wide and monotone (relaxed atomics; diagnostics only).
pub fn gain_symbolic_analyses() -> u64 {
    GAIN_SYMBOLIC_ANALYSES.load(Ordering::Relaxed)
}

/// Reusable estimator-construction state: the cached symbolic
/// factorization of the sparse gain matrix `HᵀWH`.
///
/// The gain's sparsity *pattern* is fixed by the grid topology — MTD
/// reactance perturbations change `H`'s values, never its structure — so
/// detectors built for many `x_post` candidates on one topology can
/// share a single symbolic analysis and run only the numeric phase each.
/// The cached analysis is validated against each new gain's pattern
/// (shape, column pointers, row indices) and transparently re-analyzed
/// on mismatch, so reuse is always correct and always bit-identical to a
/// cold construction.
#[derive(Debug, Clone, Default)]
pub struct EstimatorContext {
    gain_symbolic: Option<Arc<SymbolicCholesky>>,
    reuses: u64,
}

impl EstimatorContext {
    /// Creates an empty context (the first construction analyzes).
    pub fn new() -> EstimatorContext {
        EstimatorContext::default()
    }

    /// Number of estimator constructions that reused the cached symbolic
    /// analysis.
    pub fn symbolic_reuses(&self) -> u64 {
        self.reuses
    }

    /// Whether a symbolic analysis is cached (used by sharing layers to
    /// publish a freshly analyzed context without clobbering an
    /// established one).
    pub fn has_symbolic(&self) -> bool {
        self.gain_symbolic.is_some()
    }
}

/// Errors from estimator construction or use.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimationError {
    /// `H` does not have full column rank — the state is unobservable.
    Unobservable,
    /// Vector length does not match the measurement count.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Provided length.
        actual: usize,
    },
    /// An attack's residual noncentrality `λ` is NaN or infinite (the
    /// attack vector carries a non-finite entry), so it has no detection
    /// probability.
    NonFiniteNoncentrality,
    /// A noncentrality `λ` below zero was asked for a detection
    /// probability; `λ = ‖r‖²_W` is a sum of squares, so a negative one
    /// comes from a caller's arithmetic, not from an attack.
    NegativeNoncentrality,
    /// Underlying numerical failure.
    Numerical(LinalgError),
}

impl fmt::Display for EstimationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimationError::Unobservable => {
                write!(
                    f,
                    "measurement matrix is column-rank deficient (unobservable)"
                )
            }
            EstimationError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "measurement vector has length {actual}, expected {expected}"
                )
            }
            EstimationError::NonFiniteNoncentrality => {
                write!(f, "attack noncentrality is not finite")
            }
            EstimationError::NegativeNoncentrality => {
                write!(f, "attack noncentrality is negative")
            }
            EstimationError::Numerical(e) => write!(f, "numerical failure: {e}"),
        }
    }
}

impl Error for EstimationError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EstimationError::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for EstimationError {
    fn from(e: LinalgError) -> EstimationError {
        match e {
            LinalgError::NotPositiveDefinite => EstimationError::Unobservable,
            other => EstimationError::Numerical(other),
        }
    }
}

/// WLS state estimator bound to a measurement matrix and noise model.
///
/// # Example
///
/// ```
/// use gridmtd_estimation::{NoiseModel, StateEstimator};
/// use gridmtd_powergrid::cases;
///
/// # fn main() -> Result<(), gridmtd_estimation::EstimationError> {
/// let net = cases::case14();
/// let h = net.measurement_matrix(&net.nominal_reactances()).unwrap();
/// let noise = NoiseModel::uniform(h.rows(), 1.0);
/// let est = StateEstimator::new(h, &noise)?;
/// assert_eq!(est.degrees_of_freedom(), 54 - 13);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StateEstimator {
    weights: Vec<f64>,
    /// `H` in CSC form, for the `Hθ` / `HᵀWz` products.
    h_sparse: SparseMatrix,
    /// Factored gain matrix `HᵀWH`.
    gain: SparseCholesky,
}

impl StateEstimator {
    /// Builds the estimator for measurement matrix `h` and the given noise
    /// model.
    ///
    /// # Errors
    ///
    /// * [`EstimationError::DimensionMismatch`] if `noise.len() != h.rows()`.
    /// * [`EstimationError::Unobservable`] if `h` is column-rank deficient.
    pub fn new(h: Matrix, noise: &NoiseModel) -> Result<StateEstimator, EstimationError> {
        StateEstimator::with_context(h, noise, &mut EstimatorContext::new())
    }

    /// [`StateEstimator::new`] with a reusable [`EstimatorContext`]: the
    /// gain's symbolic factorization is taken from the context when its
    /// pattern matches (and stored there after a fresh analysis), so
    /// repeated detector builds on one topology run the numeric phase
    /// only. Bit-identical to [`StateEstimator::new`] in every case.
    ///
    /// # Errors
    ///
    /// See [`StateEstimator::new`].
    pub fn with_context(
        h: Matrix,
        noise: &NoiseModel,
        ctx: &mut EstimatorContext,
    ) -> Result<StateEstimator, EstimationError> {
        if noise.len() != h.rows() {
            return Err(EstimationError::DimensionMismatch {
                expected: h.rows(),
                actual: noise.len(),
            });
        }
        let weights = noise.weights();
        // Assemble HᵀWH directly from the sparse row stamps of H: each
        // measurement row contributes w·vᵢ·vⱼ over its nonzero column
        // pairs, so the gain never materializes densely.
        let mut row_entries: Vec<(usize, f64)> = Vec::new();
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for (r, &w) in weights.iter().enumerate() {
            row_entries.clear();
            row_entries.extend(
                h.row(r)
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| **v != 0.0)
                    .map(|(c, &v)| (c, v)),
            );
            for &(ci, vi) in &row_entries {
                for &(cj, vj) in &row_entries {
                    triplets.push((ci, cj, w * vi * vj));
                }
            }
        }
        let gain_matrix = SparseMatrix::from_triplets(h.cols(), h.cols(), &triplets)?;
        // The cached symbolic serves any gain with the same pattern;
        // `factor` itself verifies the pattern, so a mismatch (new
        // topology through an old context) falls back to a fresh
        // analysis instead of producing wrong numbers.
        let cached = match ctx.gain_symbolic.as_ref() {
            Some(sym) => match SparseCholesky::factor(Arc::clone(sym), &gain_matrix) {
                Ok(gain) => {
                    ctx.reuses += 1;
                    Some(gain)
                }
                Err(LinalgError::ShapeMismatch { .. }) => None,
                Err(e) => return Err(e.into()),
            },
            None => None,
        };
        let gain = match cached {
            Some(gain) => gain,
            None => {
                GAIN_SYMBOLIC_ANALYSES.fetch_add(1, Ordering::Relaxed);
                let symbolic = Arc::new(SymbolicCholesky::analyze(&gain_matrix)?);
                ctx.gain_symbolic = Some(Arc::clone(&symbolic));
                SparseCholesky::factor(symbolic, &gain_matrix)?
            }
        };
        Ok(StateEstimator {
            weights,
            h_sparse: SparseMatrix::from_dense(&h),
            gain,
        })
    }

    /// WLS weights `1/σᵢ²`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Measurement count `M`.
    pub fn n_measurements(&self) -> usize {
        self.h_sparse.nrows()
    }

    /// State dimension `n`.
    pub fn n_states(&self) -> usize {
        self.h_sparse.ncols()
    }

    /// Residual degrees of freedom `M − n` of the χ² test statistic.
    pub fn degrees_of_freedom(&self) -> usize {
        self.n_measurements() - self.n_states()
    }

    /// ML state estimate `θ̂ = (HᵀWH)⁻¹HᵀWz`.
    ///
    /// # Errors
    ///
    /// Returns [`EstimationError::DimensionMismatch`] on a wrong-length
    /// input.
    pub fn estimate(&self, z: &[f64]) -> Result<Vec<f64>, EstimationError> {
        if z.len() != self.n_measurements() {
            return Err(EstimationError::DimensionMismatch {
                expected: self.n_measurements(),
                actual: z.len(),
            });
        }
        let rhs = self.h_sparse.matvec_transposed(&self.weighted(z))?;
        Ok(self.gain.solve(&rhs)?)
    }

    /// ML estimates for a batch of measurement vectors through a single
    /// multi-RHS triangular-solve pass (the attack-ensemble hot path).
    ///
    /// Each vector undergoes exactly the arithmetic of a standalone
    /// [`StateEstimator::estimate`], so batched and per-vector results
    /// are bit-identical — scoring loops can chunk attacks freely
    /// without perturbing downstream determinism contracts.
    ///
    /// # Errors
    ///
    /// Returns [`EstimationError::DimensionMismatch`] if any vector has
    /// the wrong length.
    pub fn estimate_batch(&self, zs: &[&[f64]]) -> Result<Vec<Vec<f64>>, EstimationError> {
        let n = self.n_states();
        let mut rhs = Matrix::zeros(n, zs.len());
        for (c, z) in zs.iter().enumerate() {
            if z.len() != self.n_measurements() {
                return Err(EstimationError::DimensionMismatch {
                    expected: self.n_measurements(),
                    actual: z.len(),
                });
            }
            let col = self.h_sparse.matvec_transposed(&self.weighted(z))?;
            for (i, v) in col.into_iter().enumerate() {
                rhs[(i, c)] = v;
            }
        }
        let thetas = self.gain.solve_matrix(&rhs)?;
        Ok((0..zs.len()).map(|c| thetas.col(c)).collect())
    }

    /// `W z` (the diagonal weighting applied to a measurement vector).
    fn weighted(&self, z: &[f64]) -> Vec<f64> {
        z.iter()
            .zip(self.weights.iter())
            .map(|(zi, wi)| zi * wi)
            .collect()
    }

    /// Residual vector `r = z − Hθ̂`.
    ///
    /// # Errors
    ///
    /// See [`StateEstimator::estimate`].
    pub fn residual(&self, z: &[f64]) -> Result<Vec<f64>, EstimationError> {
        let theta = self.estimate(z)?;
        let zh = self.h_sparse.matvec(&theta)?;
        Ok(z.iter().zip(zh.iter()).map(|(a, b)| a - b).collect())
    }

    /// Weighted residual statistics `J(z)` for a batch of measurement
    /// vectors (see [`StateEstimator::estimate_batch`] for the batching
    /// and bit-identity contract).
    ///
    /// # Errors
    ///
    /// See [`StateEstimator::estimate_batch`].
    pub fn residual_statistics(&self, zs: &[&[f64]]) -> Result<Vec<f64>, EstimationError> {
        let thetas = self.estimate_batch(zs)?;
        zs.iter()
            .zip(thetas.iter())
            .map(|(z, theta)| {
                let zh = self.h_sparse.matvec(theta)?;
                Ok(z.iter()
                    .zip(zh.iter())
                    .zip(self.weights.iter())
                    .map(|((zi, zhi), wi)| {
                        let r = zi - zhi;
                        wi * r * r
                    })
                    .sum())
            })
            .collect()
    }

    /// Weighted residuals `W^½(Z − Hθ̂(Z))` of every column of the
    /// `M × k` block `z` (overwritten with them), through one multi-RHS
    /// solve of the factored gain. Column `j`'s squared norm is
    /// `J(z_j)`. A block whose columns span a family of measurement
    /// vectors (the `k` branch stamps an MTD perturbation moves, say)
    /// gives every member's `J` from the block's `k × k` QR triangle,
    /// without a solve per member.
    ///
    /// # Errors
    ///
    /// [`EstimationError::DimensionMismatch`] if `z` does not have `M`
    /// rows.
    pub fn weighted_residual_block(&self, mut z: Matrix) -> Result<Matrix, EstimationError> {
        if z.rows() != self.n_measurements() {
            return Err(EstimationError::DimensionMismatch {
                expected: self.n_measurements(),
                actual: z.rows(),
            });
        }
        let h = &self.h_sparse;
        let (rows, vals) = (h.row_indices(), h.values());
        // HᵀWZ: row `j` gathers the measurement rows of column `j` of H.
        let mut rhs = Matrix::zeros(self.n_states(), z.cols());
        for j in 0..self.n_states() {
            let out = rhs.row_mut(j);
            for p in h.col_range(j) {
                let v = vals[p] * self.weights[rows[p]];
                for (o, &zi) in out.iter_mut().zip(z.row(rows[p])) {
                    *o += v * zi;
                }
            }
        }
        let theta = self.gain.solve_matrix(&rhs)?;
        for j in 0..self.n_states() {
            let t = theta.row(j);
            for p in h.col_range(j) {
                for (zi, &tj) in z.row_mut(rows[p]).iter_mut().zip(t) {
                    *zi -= vals[p] * tj;
                }
            }
        }
        for (i, &w) in self.weights.iter().enumerate() {
            let s = w.sqrt();
            for v in z.row_mut(i) {
                *v *= s;
            }
        }
        Ok(z)
    }

    /// Weighted residual statistic `J(z) = Σ wᵢ rᵢ² = ‖z − Hθ̂‖²_W`.
    ///
    /// Under Gaussian noise and no attack, `J ~ χ²(M − n)`; under attack
    /// `a`, `J ~ χ²_nc(M − n, λ)` with `λ = J(a)` (Appendix B).
    ///
    /// # Errors
    ///
    /// See [`StateEstimator::estimate`].
    pub fn residual_statistic(&self, z: &[f64]) -> Result<f64, EstimationError> {
        let r = self.residual(z)?;
        Ok(r.iter()
            .zip(self.weights.iter())
            .map(|(ri, wi)| wi * ri * ri)
            .sum())
    }

    /// Unweighted residual norm `‖z − Hθ̂‖₂` (the form displayed in the
    /// paper's Table I).
    ///
    /// # Errors
    ///
    /// See [`StateEstimator::estimate`].
    pub fn residual_norm(&self, z: &[f64]) -> Result<f64, EstimationError> {
        let r = self.residual(z)?;
        Ok(gridmtd_linalg::vector::norm2(&r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmtd_linalg::vector;
    use gridmtd_powergrid::{cases, dcpf};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn case14_setup() -> (gridmtd_powergrid::Network, StateEstimator, Vec<f64>) {
        let net = cases::case14();
        let x = net.nominal_reactances();
        let h = net.measurement_matrix(&x).unwrap();
        let noise = NoiseModel::uniform(h.rows(), 1.0);
        let est = StateEstimator::new(h, &noise).unwrap();
        let pf = dcpf::solve_dispatch(&net, &x, &[150.0, 40.0, 20.0, 30.0, 19.0]).unwrap();
        (net, est, pf.measurement_vector())
    }

    #[test]
    fn noiseless_measurements_are_fit_exactly() {
        let (net, est, z) = case14_setup();
        let theta = est.estimate(&z).unwrap();
        assert_eq!(theta.len(), net.n_states());
        assert!(est.residual_statistic(&z).unwrap() < 1e-12);
        assert!(est.residual_norm(&z).unwrap() < 1e-6);
    }

    #[test]
    fn estimate_recovers_true_state_noiseless() {
        let (net, est, z) = case14_setup();
        let x = net.nominal_reactances();
        let pf = dcpf::solve_dispatch(&net, &x, &[150.0, 40.0, 20.0, 30.0, 19.0]).unwrap();
        let true_state: Vec<f64> = pf
            .theta
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| (i != net.slack()).then_some(t))
            .collect();
        let theta = est.estimate(&z).unwrap();
        assert!(vector::approx_eq(&theta, &true_state, 1e-9));
    }

    #[test]
    fn residual_statistic_has_chi2_mean() {
        // E[J] = M − n under pure noise.
        let (_, est, z) = case14_setup();
        let noise = NoiseModel::uniform(est.n_measurements(), 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 3000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let zn = noise.corrupt(&z, &mut rng);
            acc += est.residual_statistic(&zn).unwrap();
        }
        let mean = acc / trials as f64;
        let dof = est.degrees_of_freedom() as f64;
        assert!(
            (mean - dof).abs() < 0.1 * dof,
            "mean J = {mean}, dof = {dof}"
        );
    }

    #[test]
    fn weighted_estimator_downweights_noisy_sensors() {
        // Two sensors measure the same scalar state; the low-noise one
        // should dominate.
        let h = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
        let noise = NoiseModel::from_sigmas(vec![0.1, 10.0]);
        let est = StateEstimator::new(h, &noise).unwrap();
        let theta = est.estimate(&[1.0, 100.0]).unwrap();
        // Weighted answer is pulled to sensor 1 (value 1.0).
        assert!((theta[0] - 1.0).abs() < 0.02, "theta = {}", theta[0]);
    }

    #[test]
    fn rank_deficient_h_is_unobservable() {
        let h = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let noise = NoiseModel::uniform(3, 1.0);
        assert_eq!(
            StateEstimator::new(h, &noise).unwrap_err(),
            EstimationError::Unobservable
        );
    }

    #[test]
    fn sparse_backend_agrees_with_dense() {
        // Reference: the dense normal equations, a Cholesky of HᵀH (unit
        // weights).
        let (net, est, z) = case14_setup();
        let h = net.measurement_matrix(&net.nominal_reactances()).unwrap();
        let gain = gridmtd_linalg::Cholesky::factor(&h.transpose().matmul(&h).unwrap()).unwrap();
        let td = gain.solve(&h.matvec_transposed(&z).unwrap()).unwrap();
        let ts = est.estimate(&z).unwrap();
        assert!(vector::approx_eq(&td, &ts, 1e-9));
        let hd = h.matvec(&td).unwrap();
        let jd: f64 = z.iter().zip(&hd).map(|(a, b)| (a - b) * (a - b)).sum();
        let js = est.residual_statistic(&z).unwrap();
        assert!((jd - js).abs() < 1e-8, "{jd} vs {js}");
    }

    #[test]
    fn batch_estimates_are_bit_identical_to_singles() {
        let (_, est, z) = case14_setup();
        // A few shifted copies of z as a batch.
        let zs_owned: Vec<Vec<f64>> = (0..4)
            .map(|k| z.iter().map(|v| v + k as f64 * 0.5).collect())
            .collect();
        let zs: Vec<&[f64]> = zs_owned.iter().map(Vec::as_slice).collect();
        let batch = est.estimate_batch(&zs).unwrap();
        let stats = est.residual_statistics(&zs).unwrap();
        for (k, z) in zs.iter().enumerate() {
            let single = est.estimate(z).unwrap();
            assert_eq!(batch[k], single, "estimate batch vs single");
            let j = est.residual_statistic(z).unwrap();
            assert_eq!(stats[k].to_bits(), j.to_bits(), "J batch vs single");
        }
        // Wrong-length vector in a batch is reported.
        assert!(est.estimate_batch(&[&[1.0]]).is_err());
    }

    #[test]
    fn residual_block_columns_carry_each_residual_statistic() {
        let (_, est, z) = case14_setup();
        let m = est.n_measurements();
        let zs: Vec<Vec<f64>> = (0..3)
            .map(|k| {
                (0..m)
                    .map(|i| z[i] + ((i * (k + 2)) % 7) as f64 - 3.0)
                    .collect()
            })
            .collect();
        let block = Matrix::from_fn(m, zs.len(), |i, j| zs[j][i]);
        let r = est.weighted_residual_block(block).unwrap();
        for (j, zj) in zs.iter().enumerate() {
            let j_block: f64 = r.col(j).iter().map(|v| v * v).sum();
            let j_single = est.residual_statistic(zj).unwrap();
            assert!(
                (j_block - j_single).abs() <= 1e-10 * j_single,
                "column {j}: {j_block} vs {j_single}"
            );
        }
        assert!(matches!(
            est.weighted_residual_block(Matrix::zeros(m - 1, 2)),
            Err(EstimationError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn gain_block_solve_is_bit_identical_to_column_solves_on_case300() {
        // The largest case's gain pattern, with one right-hand side per
        // D-FACTS line: the block a case300 evaluation's
        // `weighted_residual_block` solves.
        let net = cases::case300();
        let h = net.measurement_matrix(&net.nominal_reactances()).unwrap();
        let est = StateEstimator::new(h, &NoiseModel::uniform(net.n_measurements(), 0.5)).unwrap();
        let (n, cols) = (est.n_states(), net.dfacts_branches().len());
        assert!(cols >= 100, "case300 carries {cols} D-FACTS lines");
        let b = Matrix::from_fn(n, cols, |i, j| ((i * 7 + j * 3) as f64 * 0.37).sin());
        let batched = est.gain.solve_matrix(&b).unwrap();
        for j in 0..cols {
            let single = est.gain.solve(&b.col(j)).unwrap();
            for (i, v) in single.iter().enumerate() {
                assert_eq!(batched[(i, j)].to_bits(), v.to_bits(), "entry ({i}, {j})");
            }
        }
    }

    #[test]
    fn sparse_backend_recovers_true_state_noiseless() {
        // The paper's 4-bus example, whose 3 states are the smallest
        // system the sparse gain factors.
        let net = cases::case4();
        let x = net.nominal_reactances();
        let h = net.measurement_matrix(&x).unwrap();
        let est = StateEstimator::new(h, &NoiseModel::uniform(net.n_measurements(), 1.0)).unwrap();
        let z = dcpf::solve_dispatch(&net, &x, &[350.0, 150.0])
            .unwrap()
            .measurement_vector();
        assert!(est.residual_statistic(&z).unwrap() < 1e-12);
    }

    #[test]
    fn dimension_mismatches_are_reported() {
        let h = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let noise = NoiseModel::uniform(3, 1.0);
        assert!(matches!(
            StateEstimator::new(h.clone(), &noise),
            Err(EstimationError::DimensionMismatch { .. })
        ));
        let est = StateEstimator::new(h, &NoiseModel::uniform(2, 1.0)).unwrap();
        assert!(est.estimate(&[1.0, 2.0, 3.0]).is_err());
    }
}
