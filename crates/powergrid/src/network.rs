//! The [`Network`] model: topology, matrices and the DC measurement model.

use gridmtd_linalg::sparse::SparseMatrix;
use gridmtd_linalg::Matrix;
use serde::{Deserialize, Serialize};

use crate::{stats, Branch, Bus, Generator, GridError};

/// A validated power network under the DC power-flow model.
///
/// The network owns its *nominal* branch reactances; all matrix builders
/// take an explicit reactance vector so that MTD perturbations can be
/// evaluated without mutating the network. Flows are expressed in MW and
/// angles in radians; the susceptance of branch `l` is
/// `b_l = base_mva / x_l` (MW per radian).
///
/// # Example
///
/// ```
/// use gridmtd_powergrid::cases;
///
/// let net = cases::case14();
/// assert_eq!(net.n_buses(), 14);
/// assert_eq!(net.n_branches(), 20);
/// let h = net.measurement_matrix(&net.nominal_reactances()).unwrap();
/// // M = 2L + N rows, N − 1 state columns.
/// assert_eq!(h.shape(), (2 * 20 + 14, 13));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    name: String,
    base_mva: f64,
    buses: Vec<Bus>,
    branches: Vec<Branch>,
    gens: Vec<Generator>,
    slack: usize,
}

impl Network {
    /// Validates and constructs a network.
    ///
    /// # Errors
    ///
    /// * [`GridError::InvalidBusIndex`] if a branch, generator or the slack
    ///   references a nonexistent bus.
    /// * [`GridError::InvalidReactance`] for non-positive/non-finite branch
    ///   reactances.
    /// * [`GridError::Disconnected`] if the graph is not connected.
    /// * [`GridError::NoGenerators`] if no generator is present.
    pub fn new(
        name: impl Into<String>,
        buses: Vec<Bus>,
        branches: Vec<Branch>,
        gens: Vec<Generator>,
        slack: usize,
    ) -> Result<Network, GridError> {
        let n = buses.len();
        if slack >= n {
            return Err(GridError::InvalidBusIndex {
                bus: slack,
                n_buses: n,
            });
        }
        for (l, br) in branches.iter().enumerate() {
            if br.from >= n {
                return Err(GridError::InvalidBusIndex {
                    bus: br.from,
                    n_buses: n,
                });
            }
            if br.to >= n {
                return Err(GridError::InvalidBusIndex {
                    bus: br.to,
                    n_buses: n,
                });
            }
            if !(br.reactance_pu.is_finite() && br.reactance_pu > 0.0) {
                return Err(GridError::InvalidReactance {
                    branch: l,
                    value: br.reactance_pu,
                });
            }
        }
        if gens.is_empty() {
            return Err(GridError::NoGenerators);
        }
        for g in &gens {
            if g.bus >= n {
                return Err(GridError::InvalidBusIndex {
                    bus: g.bus,
                    n_buses: n,
                });
            }
        }
        let net = Network {
            name: name.into(),
            base_mva: 100.0,
            buses,
            branches,
            gens,
            slack,
        };
        if !net.is_connected() {
            return Err(GridError::Disconnected);
        }
        Ok(net)
    }

    /// Human-readable case name (e.g. `"ieee14"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// System MVA base (100 MVA, the MATPOWER convention).
    pub fn base_mva(&self) -> f64 {
        self.base_mva
    }

    /// Number of buses `N`.
    pub fn n_buses(&self) -> usize {
        self.buses.len()
    }

    /// Number of branches `L`.
    pub fn n_branches(&self) -> usize {
        self.branches.len()
    }

    /// Number of generators.
    pub fn n_gens(&self) -> usize {
        self.gens.len()
    }

    /// Number of measurements `M = 2L + N` (forward flows, reverse flows,
    /// injections).
    pub fn n_measurements(&self) -> usize {
        2 * self.n_branches() + self.n_buses()
    }

    /// State dimension `N − 1` (voltage phase angles, slack removed).
    pub fn n_states(&self) -> usize {
        self.n_buses() - 1
    }

    /// Index of the slack (reference) bus.
    pub fn slack(&self) -> usize {
        self.slack
    }

    /// Bus accessor.
    pub fn bus(&self, i: usize) -> &Bus {
        &self.buses[i]
    }

    /// Branch accessor.
    pub fn branch(&self, l: usize) -> &Branch {
        &self.branches[l]
    }

    /// Generator accessor.
    pub fn gen(&self, g: usize) -> &Generator {
        &self.gens[g]
    }

    /// All buses.
    pub fn buses(&self) -> &[Bus] {
        &self.buses
    }

    /// All branches.
    pub fn branches(&self) -> &[Branch] {
        &self.branches
    }

    /// All generators.
    pub fn gens(&self) -> &[Generator] {
        &self.gens
    }

    /// Nominal branch reactances (per unit), in branch order.
    pub fn nominal_reactances(&self) -> Vec<f64> {
        self.branches.iter().map(|b| b.reactance_pu).collect()
    }

    /// Indices of D-FACTS-equipped branches.
    pub fn dfacts_branches(&self) -> Vec<usize> {
        self.branches
            .iter()
            .enumerate()
            .filter_map(|(l, b)| b.dfacts.then_some(l))
            .collect()
    }

    /// Reactance bounds `[x_min, x_max]` for a symmetric D-FACTS adjustment
    /// range `η_max` (paper Section VII-A: `x ∈ [(1−η)x₀, (1+η)x₀]` on
    /// D-FACTS lines, fixed elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `eta_max` is not in `[0, 1)`.
    pub fn reactance_bounds(&self, eta_max: f64) -> (Vec<f64>, Vec<f64>) {
        assert!(
            (0.0..1.0).contains(&eta_max),
            "eta_max must be in [0,1), got {eta_max}"
        );
        let mut lo = Vec::with_capacity(self.branches.len());
        let mut hi = Vec::with_capacity(self.branches.len());
        for b in &self.branches {
            if b.dfacts {
                lo.push(b.reactance_pu * (1.0 - eta_max));
                hi.push(b.reactance_pu * (1.0 + eta_max));
            } else {
                lo.push(b.reactance_pu);
                hi.push(b.reactance_pu);
            }
        }
        (lo, hi)
    }

    /// Bus loads in MW, in bus order.
    pub fn loads(&self) -> Vec<f64> {
        self.buses.iter().map(|b| b.load_mw).collect()
    }

    /// Total system load, MW.
    pub fn total_load(&self) -> f64 {
        self.buses.iter().map(|b| b.load_mw).sum()
    }

    /// Branch flow limits in MW, in branch order.
    pub fn flow_limits(&self) -> Vec<f64> {
        self.branches.iter().map(|b| b.flow_limit_mw).collect()
    }

    /// Returns a copy of the network with the given bus loads.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::DimensionMismatch`] if `loads.len()` differs
    /// from the bus count.
    pub fn with_loads(&self, loads: &[f64]) -> Result<Network, GridError> {
        if loads.len() != self.n_buses() {
            return Err(GridError::DimensionMismatch {
                what: "loads",
                expected: self.n_buses(),
                actual: loads.len(),
            });
        }
        let mut net = self.clone();
        for (bus, &l) in net.buses.iter_mut().zip(loads.iter()) {
            bus.load_mw = l;
        }
        Ok(net)
    }

    /// Returns a copy with every load multiplied by `factor` (used to feed
    /// hourly load traces into a case).
    pub fn scale_loads(&self, factor: f64) -> Network {
        let mut net = self.clone();
        for bus in net.buses.iter_mut() {
            bus.load_mw *= factor;
        }
        net
    }

    /// Branch–bus incidence matrix `A ∈ R^{N×L}`: `A[i,l] = +1` if branch
    /// `l` starts at bus `i`, `−1` if it ends there.
    pub fn incidence(&self) -> Matrix {
        let mut a = Matrix::zeros(self.n_buses(), self.n_branches());
        for (l, br) in self.branches.iter().enumerate() {
            a[(br.from, l)] = 1.0;
            a[(br.to, l)] = -1.0;
        }
        a
    }

    /// Validates a reactance vector against this network.
    ///
    /// # Errors
    ///
    /// * [`GridError::DimensionMismatch`] on wrong length.
    /// * [`GridError::InvalidReactance`] for non-positive entries.
    pub fn check_reactances(&self, x: &[f64]) -> Result<(), GridError> {
        if x.len() != self.n_branches() {
            return Err(GridError::DimensionMismatch {
                what: "reactances",
                expected: self.n_branches(),
                actual: x.len(),
            });
        }
        for (l, &xl) in x.iter().enumerate() {
            if !(xl.is_finite() && xl > 0.0) {
                return Err(GridError::InvalidReactance {
                    branch: l,
                    value: xl,
                });
            }
        }
        Ok(())
    }

    /// Branch susceptances `b_l = base_mva / x_l` (MW/rad) for the given
    /// reactances.
    ///
    /// # Errors
    ///
    /// See [`Network::check_reactances`].
    pub fn susceptances(&self, x: &[f64]) -> Result<Vec<f64>, GridError> {
        self.check_reactances(x)?;
        Ok(x.iter().map(|&xl| self.base_mva / xl).collect())
    }

    /// Full nodal susceptance matrix `B = A D Aᵀ ∈ R^{N×N}` (MW/rad).
    ///
    /// # Errors
    ///
    /// See [`Network::check_reactances`].
    pub fn b_matrix(&self, x: &[f64]) -> Result<Matrix, GridError> {
        stats::count_susceptance_build();
        let b = self.susceptances(x)?;
        let n = self.n_buses();
        let mut m = Matrix::zeros(n, n);
        for (l, br) in self.branches.iter().enumerate() {
            let (i, j) = (br.from, br.to);
            m[(i, i)] += b[l];
            m[(j, j)] += b[l];
            m[(i, j)] -= b[l];
            m[(j, i)] -= b[l];
        }
        Ok(m)
    }

    /// Reduced susceptance matrix: `B` with the slack row and column
    /// removed — the invertible operator of the DC power-flow equations.
    ///
    /// # Errors
    ///
    /// See [`Network::check_reactances`].
    pub fn b_reduced(&self, x: &[f64]) -> Result<Matrix, GridError> {
        Ok(self
            .b_matrix(x)?
            .without_row(self.slack)
            .without_col(self.slack))
    }

    /// Maps a bus index to its row/column in the slack-reduced state
    /// space (`None` for the slack bus itself).
    pub fn reduced_index(&self, bus: usize) -> Option<usize> {
        match bus.cmp(&self.slack) {
            std::cmp::Ordering::Less => Some(bus),
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(bus - 1),
        }
    }

    /// Sparse (CSC) reduced susceptance matrix, assembled directly from
    /// the branch stamps without a dense intermediate. The pattern
    /// depends only on the topology; for repeated reactance updates use
    /// [`crate::dcpf::PfContext`], which keeps the pattern (and its
    /// symbolic factorization) cached and rewrites values in place.
    ///
    /// # Errors
    ///
    /// See [`Network::check_reactances`].
    pub fn b_reduced_sparse(&self, x: &[f64]) -> Result<SparseMatrix, GridError> {
        let b = self.susceptances(x)?;
        self.b_reduced_sparse_from(&b)
    }

    /// [`Network::b_reduced_sparse`] from already-validated branch
    /// susceptances — the single source of the CSC stamping pattern,
    /// shared with the power-flow context's slot map.
    pub(crate) fn b_reduced_sparse_from(&self, b: &[f64]) -> Result<SparseMatrix, GridError> {
        let n_red = self.n_states();
        let mut triplets = Vec::with_capacity(4 * self.branches.len());
        for (l, br) in self.branches.iter().enumerate() {
            let (ri, rj) = (self.reduced_index(br.from), self.reduced_index(br.to));
            if let Some(i) = ri {
                triplets.push((i, i, b[l]));
            }
            if let Some(j) = rj {
                triplets.push((j, j, b[l]));
            }
            if let (Some(i), Some(j)) = (ri, rj) {
                triplets.push((i, j, -b[l]));
                triplets.push((j, i, -b[l]));
            }
        }
        SparseMatrix::from_triplets(n_red, n_red, &triplets).map_err(GridError::from)
    }

    /// DC measurement matrix `H ∈ R^{M×(N−1)}` mapping the reduced state
    /// (non-slack phase angles) to measurements
    /// `z = [f; −f; p]` (forward branch flows, reverse branch flows, nodal
    /// injections), i.e. `H = [D Aᵀ; −D Aᵀ; A D Aᵀ]` with the slack column
    /// removed (paper Section III).
    ///
    /// # Errors
    ///
    /// See [`Network::check_reactances`].
    pub fn measurement_matrix(&self, x: &[f64]) -> Result<Matrix, GridError> {
        stats::count_measurement_matrix_build();
        let b = self.susceptances(x)?;
        let n = self.n_buses();
        let nl = self.n_branches();
        let mut h = Matrix::zeros(2 * nl + n, n);
        // forward flows: f_l = b_l (θ_from − θ_to)
        for (l, br) in self.branches.iter().enumerate() {
            h[(l, br.from)] = b[l];
            h[(l, br.to)] = -b[l];
            // reverse flows
            h[(nl + l, br.from)] = -b[l];
            h[(nl + l, br.to)] = b[l];
        }
        // injections: p = A D Aᵀ θ = B θ
        for (l, br) in self.branches.iter().enumerate() {
            let (i, j) = (br.from, br.to);
            h[(2 * nl + i, i)] += b[l];
            h[(2 * nl + i, j)] -= b[l];
            h[(2 * nl + j, j)] += b[l];
            h[(2 * nl + j, i)] -= b[l];
        }
        Ok(h.without_col(self.slack))
    }

    /// The measurement rows that carry branch `l`'s susceptance, with
    /// their signs: forward flow `+b(θf−θt)`, reverse flow `−b(θf−θt)`,
    /// injection at `from` `+b(θf−θt)`, injection at `to` `−b(θf−θt)`.
    ///
    /// This is column `l` of the fixed matrix `M` in the factorization
    /// `H(x) = M·diag(b(x))·A` of [`Network::measurement_matrix`], where
    /// row `l` of `A` is `e_from − e_to` in the slack-reduced state
    /// space: a reactance change on a set of lines moves `H` only by
    /// `M_C·diag(Δb_C)·A_C`, a matrix of rank at most the set's size.
    ///
    /// # Panics
    ///
    /// If `branch` is out of range.
    pub fn branch_measurement_rows(&self, branch: usize) -> [(usize, f64); 4] {
        let nl = self.n_branches();
        let br = &self.branches[branch];
        [
            (branch, 1.0),
            (nl + branch, -1.0),
            (2 * nl + br.from, 1.0),
            (2 * nl + br.to, -1.0),
        ]
    }

    /// The Gram matrix `H(x)ᵀH(x)` (`(N−1) × (N−1)`, both triangles),
    /// assembled straight from the branch stamps without the dense `H`.
    ///
    /// With `H = M·diag(b)·A` ([`Network::branch_measurement_rows`]),
    /// the forward and reverse flow rows contribute
    /// `2·Aᵀdiag(b²)A` and the injection rows `L̃ᵀL̃`, where row `i` of
    /// the slack-column-reduced Laplacian `L̃` is sparse (the bus and its
    /// neighbours). The cost is `O(Σ_i deg(i)²)` plus zeroing the
    /// output; no `H` is built, so [`crate::stats`] counts nothing. Agrees
    /// with `measurement_matrix(x)?.gram()` to roundoff (the sums run in
    /// another order).
    ///
    /// # Errors
    ///
    /// See [`Network::check_reactances`].
    pub fn measurement_gram(&self, x: &[f64]) -> Result<Matrix, GridError> {
        let b = self.susceptances(x)?;
        let k = self.n_states();
        let mut g = Matrix::zeros(k, k);
        // Injection row i of L̃: Σ b_l at the bus's own column, −b_l at
        // each neighbour's (parallel lines repeat a neighbour, which the
        // outer product below sums correctly).
        let mut own = vec![0.0_f64; self.n_buses()];
        let mut neighbours: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.n_buses()];
        for (l, br) in self.branches.iter().enumerate() {
            let (rf, rt) = (self.reduced_index(br.from), self.reduced_index(br.to));
            let alpha = [(rf, 1.0), (rt, -1.0)];
            let two_b2 = 2.0 * b[l] * b[l];
            for &(p, ap) in &alpha {
                for &(q, aq) in &alpha {
                    if let (Some(p), Some(q)) = (p, q) {
                        g[(p, q)] += two_b2 * ap * aq;
                    }
                }
            }
            own[br.from] += b[l];
            own[br.to] += b[l];
            if let Some(t) = rt {
                neighbours[br.from].push((t, -b[l]));
            }
            if let Some(f) = rf {
                neighbours[br.to].push((f, -b[l]));
            }
        }
        let mut row = Vec::new();
        for (bus, nbrs) in neighbours.iter().enumerate() {
            row.clear();
            if let Some(i) = self.reduced_index(bus) {
                row.push((i, own[bus]));
            }
            row.extend_from_slice(nbrs);
            for &(p, vp) in &row {
                for &(q, vq) in &row {
                    g[(p, q)] += vp * vq;
                }
            }
        }
        Ok(g)
    }

    /// The product `H(x)·c` for a reduced-state vector `c`, from the
    /// branch stamps without the dense `H`: the flow rows are
    /// `±b_l(c_from − c_to)` and each injection sums the flows leaving
    /// its bus. Agrees with `measurement_matrix(x)?.matvec(c)` to
    /// roundoff.
    ///
    /// # Errors
    ///
    /// See [`Network::check_reactances`]; additionally
    /// [`GridError::DimensionMismatch`] if `c` is not of length `N − 1`.
    pub fn measurement_apply(&self, x: &[f64], c: &[f64]) -> Result<Vec<f64>, GridError> {
        let b = self.susceptances(x)?;
        if c.len() != self.n_states() {
            return Err(GridError::DimensionMismatch {
                what: "reduced state vector",
                expected: self.n_states(),
                actual: c.len(),
            });
        }
        let nl = self.n_branches();
        let angle = |bus: usize| self.reduced_index(bus).map_or(0.0, |i| c[i]);
        let mut v = vec![0.0_f64; self.n_measurements()];
        for (l, br) in self.branches.iter().enumerate() {
            let f = b[l] * (angle(br.from) - angle(br.to));
            v[l] = f;
            v[nl + l] = -f;
            v[2 * nl + br.from] += f;
            v[2 * nl + br.to] -= f;
        }
        Ok(v)
    }

    /// Sparse derivative stamp `∂H/∂x_l` of the DC measurement matrix
    /// with respect to one branch reactance, as
    /// `(row, reduced column, value)` triplets.
    ///
    /// Every entry of `H` carrying branch `l` is a signed copy of the
    /// susceptance `b_l = base_mva / x_l`, so the derivative is the same
    /// stamp pattern scaled by `∂b_l/∂x_l = −base_mva / x_l²`: the
    /// forward/reverse flow rows `l` and `n_branches + l`, and the two
    /// injection rows of the terminal buses. At most 8 triplets; columns
    /// use the slack-reduced indexing of [`Network::measurement_matrix`]
    /// (slack-bus columns are dropped).
    ///
    /// # Errors
    ///
    /// See [`Network::check_reactances`]; additionally
    /// [`GridError::DimensionMismatch`] if `branch` is out of range.
    pub fn measurement_matrix_derivative(
        &self,
        x: &[f64],
        branch: usize,
    ) -> Result<Vec<(usize, usize, f64)>, GridError> {
        self.check_reactances(x)?;
        if branch >= self.n_branches() {
            return Err(GridError::DimensionMismatch {
                what: "branch index",
                expected: self.n_branches(),
                actual: branch,
            });
        }
        let br = &self.branches[branch];
        let db = -self.base_mva / (x[branch] * x[branch]);
        let rf = self.reduced_index(br.from);
        let rt = self.reduced_index(br.to);
        let mut triplets = Vec::with_capacity(8);
        for (row, sign) in self.branch_measurement_rows(branch) {
            if let Some(col) = rf {
                triplets.push((row, col, sign * db));
            }
            if let Some(col) = rt {
                triplets.push((row, col, -sign * db));
            }
        }
        Ok(triplets)
    }

    /// Nodal net injections `p = Σ(generation at bus) − load` for a given
    /// dispatch vector (one entry per generator, MW).
    ///
    /// # Errors
    ///
    /// Returns [`GridError::DimensionMismatch`] if `dispatch.len()` differs
    /// from the generator count.
    pub fn injections(&self, dispatch: &[f64]) -> Result<Vec<f64>, GridError> {
        if dispatch.len() != self.n_gens() {
            return Err(GridError::DimensionMismatch {
                what: "dispatch",
                expected: self.n_gens(),
                actual: dispatch.len(),
            });
        }
        let mut p: Vec<f64> = self.buses.iter().map(|b| -b.load_mw).collect();
        for (g, &d) in self.gens.iter().zip(dispatch.iter()) {
            p[g.bus] += d;
        }
        Ok(p)
    }

    /// Breadth-first connectivity check over the branch graph.
    pub fn is_connected(&self) -> bool {
        let n = self.n_buses();
        if n == 0 {
            return false;
        }
        let mut adj = vec![Vec::new(); n];
        for br in &self.branches {
            adj[br.from].push(br.to);
            adj[br.to].push(br.from);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenCost;

    fn tiny() -> Network {
        Network::new(
            "tiny3",
            vec![Bus::unloaded(), Bus::with_load(50.0), Bus::with_load(30.0)],
            vec![
                Branch::new(0, 1, 0.1, 100.0).with_dfacts(),
                Branch::new(1, 2, 0.2, 100.0),
                Branch::new(0, 2, 0.25, 100.0),
            ],
            vec![Generator::linear(0, 200.0, 10.0)],
            0,
        )
        .unwrap()
    }

    #[test]
    fn counts_and_accessors() {
        let n = tiny();
        assert_eq!(n.n_buses(), 3);
        assert_eq!(n.n_branches(), 3);
        assert_eq!(n.n_gens(), 1);
        assert_eq!(n.n_measurements(), 9);
        assert_eq!(n.n_states(), 2);
        assert_eq!(n.slack(), 0);
        assert_eq!(n.total_load(), 80.0);
        assert_eq!(n.dfacts_branches(), vec![0]);
        assert!(matches!(n.gen(0).cost, GenCost::Linear { c } if c == 10.0));
    }

    #[test]
    fn incidence_has_unit_entries() {
        let a = tiny().incidence();
        assert_eq!(a[(0, 0)], 1.0);
        assert_eq!(a[(1, 0)], -1.0);
        assert_eq!(a[(2, 0)], 0.0);
        // column sums are zero
        for l in 0..3 {
            let s: f64 = (0..3).map(|i| a[(i, l)]).sum();
            assert_eq!(s, 0.0);
        }
    }

    #[test]
    fn b_matrix_rows_sum_to_zero() {
        let net = tiny();
        let b = net.b_matrix(&net.nominal_reactances()).unwrap();
        for i in 0..3 {
            let s: f64 = (0..3).map(|j| b[(i, j)]).sum();
            assert!(s.abs() < 1e-9);
        }
        assert!(b.is_symmetric(1e-12));
    }

    #[test]
    fn stamp_products_match_the_dense_measurement_matrix() {
        for net in [tiny(), crate::cases::case14(), crate::cases::case57()] {
            let mut x = net.nominal_reactances();
            for (l, xl) in x.iter_mut().enumerate() {
                *xl *= 1.0 + 0.03 * (l % 7) as f64;
            }
            let h = net.measurement_matrix(&x).unwrap();
            let g = net.measurement_gram(&x).unwrap();
            let dense = h.gram();
            let scale = dense.max_abs();
            for (p, q) in g.as_slice().iter().zip(dense.as_slice()) {
                assert!((p - q).abs() <= 1e-12 * scale, "{}: {p} vs {q}", net.name());
            }
            let c: Vec<f64> = (0..net.n_states()).map(|i| (i as f64).sin()).collect();
            let v = net.measurement_apply(&x, &c).unwrap();
            let dense_v = h.matvec(&c).unwrap();
            let vmax = dense_v.iter().fold(0.0_f64, |m, d| m.max(d.abs()));
            for (p, q) in v.iter().zip(&dense_v) {
                assert!((p - q).abs() <= 1e-12 * vmax, "{}: {p} vs {q}", net.name());
            }
            // The flow rows of a branch's stamp column hold ±b_l alone.
            let b = net.susceptances(&x).unwrap();
            for (l, br) in net.branches().iter().enumerate() {
                if let Some(f) = net.reduced_index(br.from) {
                    for (row, sign) in &net.branch_measurement_rows(l)[..2] {
                        assert_eq!(h[(*row, f)], sign * b[l]);
                    }
                }
            }
            assert!(net.measurement_apply(&x, &c[1..]).is_err());
        }
    }

    #[test]
    fn measurement_matrix_structure() {
        let net = tiny();
        let x = net.nominal_reactances();
        let h = net.measurement_matrix(&x).unwrap();
        assert_eq!(h.shape(), (9, 2));
        // reverse-flow block is the negative of the forward block
        for l in 0..3 {
            for c in 0..2 {
                assert_eq!(h[(l, c)], -h[(3 + l, c)]);
            }
        }
        // injection block equals B with slack column removed
        let b = net.b_matrix(&x).unwrap().without_col(0);
        for i in 0..3 {
            for c in 0..2 {
                assert!((h[(6 + i, c)] - b[(i, c)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn measurement_matrix_has_full_column_rank() {
        let net = tiny();
        let h = net.measurement_matrix(&net.nominal_reactances()).unwrap();
        assert_eq!(gridmtd_linalg::Svd::compute(&h).unwrap().rank(), 2);
    }

    #[test]
    fn injections_subtract_loads() {
        let net = tiny();
        let p = net.injections(&[80.0]).unwrap();
        assert_eq!(p, vec![80.0, -50.0, -30.0]);
        assert!(net.injections(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn reactance_bounds_only_relax_dfacts_lines() {
        let net = tiny();
        let (lo, hi) = net.reactance_bounds(0.5);
        assert!((lo[0] - 0.05).abs() < 1e-12 && (hi[0] - 0.15).abs() < 1e-12);
        assert_eq!(lo[1], hi[1]);
        assert_eq!(lo[2], hi[2]);
    }

    #[test]
    fn with_loads_and_scale_loads() {
        let net = tiny();
        let scaled = net.scale_loads(2.0);
        assert_eq!(scaled.total_load(), 160.0);
        let reloaded = net.with_loads(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(reloaded.total_load(), 6.0);
        assert!(net.with_loads(&[1.0]).is_err());
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        // bad branch endpoint
        let err = Network::new(
            "bad",
            vec![Bus::unloaded(), Bus::unloaded()],
            vec![Branch::new(0, 5, 0.1, 10.0)],
            vec![Generator::linear(0, 1.0, 1.0)],
            0,
        )
        .unwrap_err();
        assert!(matches!(err, GridError::InvalidBusIndex { bus: 5, .. }));

        // bad reactance
        let err = Network::new(
            "bad",
            vec![Bus::unloaded(), Bus::unloaded()],
            vec![Branch::new(0, 1, -0.1, 10.0)],
            vec![Generator::linear(0, 1.0, 1.0)],
            0,
        )
        .unwrap_err();
        assert!(matches!(err, GridError::InvalidReactance { .. }));

        // disconnected
        let err = Network::new(
            "bad",
            vec![Bus::unloaded(), Bus::unloaded(), Bus::unloaded()],
            vec![Branch::new(0, 1, 0.1, 10.0)],
            vec![Generator::linear(0, 1.0, 1.0)],
            0,
        )
        .unwrap_err();
        assert_eq!(err, GridError::Disconnected);

        // no generators
        let err = Network::new(
            "bad",
            vec![Bus::unloaded(), Bus::unloaded()],
            vec![Branch::new(0, 1, 0.1, 10.0)],
            vec![],
            0,
        )
        .unwrap_err();
        assert_eq!(err, GridError::NoGenerators);
    }

    #[test]
    fn check_reactances_validates_length_and_sign() {
        let net = tiny();
        assert!(net.check_reactances(&[0.1, 0.2]).is_err());
        assert!(net.check_reactances(&[0.1, 0.2, -0.1]).is_err());
        assert!(net.check_reactances(&[0.1, 0.2, 0.3]).is_ok());
    }
}
