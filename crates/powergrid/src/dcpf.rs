//! DC power-flow solver.
//!
//! Solves `B̃ θ̃ = p̃` (slack row/column removed), then recovers branch
//! flows `f_l = b_l (θ_i − θ_j)` and the slack injection from flow
//! balance. This is the power-flow model of Section III of the paper.
//!
//! # Backends
//!
//! Two interchangeable linear-algebra backends solve `B̃ θ̃ = p̃`:
//!
//! * **dense** — the original LU path, used below
//!   [`SPARSE_MIN_BUSES`] where a dense factor is cheapest (and byte
//!   stable with the historical results);
//! * **sparse** — CSC `B̃` + sparse Cholesky with a split
//!   symbolic/numeric factorization. A reusable [`PfContext`] caches the
//!   symbolic analysis (elimination tree, fill-reducing ordering,
//!   pattern of `L`) *per topology*; each MTD reactance perturbation
//!   only rewrites matrix values in place and re-runs the numeric phase
//!   plus two sparse triangular solves.
//!
//! [`solve_dc`] / [`solve_dispatch`] pick the backend automatically with
//! a fresh context; hot loops (OPF objective evaluations, Monte-Carlo
//! trials, timeline hours) should hold one [`PfContext`] per thread and
//! call [`solve_dc_with`] / [`solve_dispatch_with`] so the symbolic work
//! is amortized across the whole loop. [`PfContext::factor`] hands out
//! the factorization of `B̃(x)` itself ([`PfFactor`]) for callers that
//! solve several right-hand sides at one `x` — the DC-OPF recovers its
//! flows, builds its shift-factor rows and runs its adjoint gradient
//! solve from one factor per call.

use std::sync::Arc;

use gridmtd_linalg::sparse::{SparseCholesky, SparseMatrix, SymbolicCholesky};
use gridmtd_linalg::Lu;

use crate::{stats, GridError, Network};

/// Bus-count crossover between the dense and sparse backends.
///
/// Below this size the dense LU on the (tiny) reduced susceptance
/// matrix wins on constant factors — and keeps the paper-scale cases
/// (4–30 buses) byte-identical with the historical dense results. The
/// synthetic scaling cases (57+ buses) take the sparse path.
pub const SPARSE_MIN_BUSES: usize = 48;

/// Result of a DC power-flow solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerFlow {
    /// Voltage phase angles, radians; `theta[slack] == 0`.
    pub theta: Vec<f64>,
    /// Branch flows in MW, positive in the branch's `from → to` direction.
    pub flows: Vec<f64>,
    /// Realized nodal net injections in MW (the slack entry absorbs the
    /// system imbalance of the requested injections).
    pub injections: Vec<f64>,
}

impl PowerFlow {
    /// Measurement vector `z = [f; −f; p]` corresponding to this solution
    /// (noiseless).
    pub fn measurement_vector(&self) -> Vec<f64> {
        let mut z = Vec::with_capacity(2 * self.flows.len() + self.injections.len());
        z.extend_from_slice(&self.flows);
        z.extend(self.flows.iter().map(|f| -f));
        z.extend_from_slice(&self.injections);
        z
    }
}

/// Solves the DC power flow for the given reactances and requested nodal
/// injections.
///
/// The slack entry of `injections` is ignored: the slack bus balances the
/// system, and its realized injection is returned in
/// [`PowerFlow::injections`].
///
/// # Errors
///
/// * [`GridError::DimensionMismatch`] if `injections.len() != n_buses`.
/// * Reactance validation errors (see [`Network::check_reactances`]).
/// * [`GridError::Numerical`] if the reduced susceptance matrix is
///   singular (cannot happen for validated, connected networks).
pub fn solve_dc(net: &Network, x: &[f64], injections: &[f64]) -> Result<PowerFlow, GridError> {
    solve_dc_with(net, x, injections, &mut PfContext::new())
}

/// Solves the DC power flow for a generator dispatch (MW per generator)
/// against the network's loads.
///
/// # Errors
///
/// See [`solve_dc`] and [`Network::injections`].
pub fn solve_dispatch(net: &Network, x: &[f64], dispatch: &[f64]) -> Result<PowerFlow, GridError> {
    let p = net.injections(dispatch)?;
    solve_dc(net, x, &p)
}

/// [`solve_dispatch`] with a reusable [`PfContext`].
///
/// # Errors
///
/// See [`solve_dc`] and [`Network::injections`].
pub fn solve_dispatch_with(
    net: &Network,
    x: &[f64],
    dispatch: &[f64],
    ctx: &mut PfContext,
) -> Result<PowerFlow, GridError> {
    let p = net.injections(dispatch)?;
    solve_dc_with(net, x, &p, ctx)
}

/// Linear-algebra backend selection for the DC power flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PfBackend {
    /// Dense below [`SPARSE_MIN_BUSES`], sparse at or above it.
    #[default]
    Auto,
    /// Always the dense LU path (the historical implementation).
    Dense,
    /// Always the sparse symbolic/numeric path (used by the agreement
    /// property tests and the refactorization benches on small cases).
    Sparse,
}

/// Reusable DC power-flow state: the cached symbolic factorization and
/// workspaces of the sparse backend.
///
/// The expensive, topology-dependent work — fill-reducing ordering,
/// elimination tree, nonzero pattern of the Cholesky factor, branch →
/// matrix-slot scatter map — is done once on the first sparse solve and
/// reused for every later solve against the *same topology*, which is
/// exactly the MTD loop shape: reactance values drift, the grid graph
/// never changes. Feeding a context a different [`Network`] is always
/// correct (the cache is keyed on the topology and rebuilt on mismatch),
/// just not fast.
///
/// A context carries no results, only scratch state; it is deliberately
/// cheap to construct so per-thread contexts can be created in
/// fan-out loops (mirroring `OpfContext` in `gridmtd-opf`).
#[derive(Debug, Clone, Default)]
pub struct PfContext {
    backend: PfBackend,
    cache: Option<SparseCache>,
    /// Numeric-only refactorizations served by the cached symbolic
    /// analysis (diagnostics; mirrors `OpfContext::warm_solves`).
    refactors: u64,
}

/// Cached sparse state for one topology.
#[derive(Debug, Clone)]
struct SparseCache {
    /// Topology identity: bus count, slack, branch endpoints.
    n_buses: usize,
    slack: usize,
    endpoints: Vec<(usize, usize)>,
    /// CSC `B̃` whose values are rewritten in place per solve.
    b: SparseMatrix,
    /// Per branch: value-array slots `(ii, jj, ij, ji)` (`usize::MAX`
    /// for stamps that fall on the slack row/column).
    slots: Vec<[usize; 4]>,
    numeric: SparseCholesky,
}

/// Absent-slot sentinel in [`SparseCache::slots`].
const NO_SLOT: usize = usize::MAX;

impl PfContext {
    /// Creates a context with automatic backend selection.
    pub fn new() -> PfContext {
        PfContext::default()
    }

    /// Creates a context pinned to a specific backend (property tests
    /// and benches; production code should prefer [`PfContext::new`]).
    pub fn with_backend(backend: PfBackend) -> PfContext {
        PfContext {
            backend,
            ..PfContext::default()
        }
    }

    /// Number of solves that reused the cached symbolic factorization
    /// (numeric refactorization only).
    pub fn symbolic_reuses(&self) -> u64 {
        self.refactors
    }

    /// Whether `net` would take the sparse path under this context's
    /// backend policy.
    pub fn uses_sparse(&self, net: &Network) -> bool {
        match self.backend {
            PfBackend::Auto => net.n_buses() >= SPARSE_MIN_BUSES,
            PfBackend::Dense => false,
            PfBackend::Sparse => true,
        }
    }

    /// Builds the topology-keyed sparse cache up front (symbolic
    /// factorization, slot map, a first numeric factor at `x`) without
    /// running a solve. A primed context — and every *clone* of it — then
    /// serves numeric-only refactorizations for any reactance vector on
    /// the same topology. No-op on the dense path.
    ///
    /// This is the session-warmup hook: prime one context per topology,
    /// clone it into per-thread / per-start contexts, and the symbolic
    /// analysis runs exactly once per topology for the whole fan-out.
    ///
    /// # Errors
    ///
    /// Propagates reactance validation and factorization failures.
    pub fn prime(&mut self, net: &Network, x: &[f64]) -> Result<(), GridError> {
        if self.uses_sparse(net) {
            let b = net.susceptances(x)?;
            self.refactor(net, &b)?;
        }
        Ok(())
    }

    /// Ensures the cache matches `net`'s topology, rebuilding the
    /// symbolic factorization if needed, then rewrites the values for
    /// `suscept` and runs the numeric phase.
    fn refactor(&mut self, net: &Network, suscept: &[f64]) -> Result<&SparseCholesky, GridError> {
        let matches = self.cache.as_ref().is_some_and(|c| {
            c.n_buses == net.n_buses()
                && c.slack == net.slack()
                && c.endpoints.len() == net.n_branches()
                && c.endpoints
                    .iter()
                    .zip(net.branches())
                    .all(|(&(f, t), br)| f == br.from && t == br.to)
        });
        if !matches {
            self.cache = Some(SparseCache::build(net, suscept)?);
        } else {
            let cache = self.cache.as_mut().expect("cache checked above");
            let values = cache.b.values_mut();
            values.fill(0.0);
            for (l, slots) in cache.slots.iter().enumerate() {
                let bl = suscept[l];
                let [ii, jj, ij, ji] = *slots;
                if ii != NO_SLOT {
                    values[ii] += bl;
                }
                if jj != NO_SLOT {
                    values[jj] += bl;
                }
                if ij != NO_SLOT {
                    values[ij] -= bl;
                }
                if ji != NO_SLOT {
                    values[ji] -= bl;
                }
            }
            cache.numeric.refactor(&cache.b)?;
            self.refactors += 1;
        }
        Ok(&self.cache.as_ref().expect("cache populated above").numeric)
    }
}

impl SparseCache {
    fn build(net: &Network, suscept: &[f64]) -> Result<SparseCache, GridError> {
        // One source of truth for the stamping pattern: the slot map
        // below is derived from the very matrix `b_reduced_sparse_from`
        // assembles, so the two can never drift apart.
        let b = net.b_reduced_sparse_from(suscept)?;
        let slot = |i: Option<usize>, j: Option<usize>| match (i, j) {
            (Some(i), Some(j)) => b.position(i, j).expect("stamped entry is in the pattern"),
            _ => NO_SLOT,
        };
        let slots = net
            .branches()
            .iter()
            .map(|br| {
                let (ri, rj) = (net.reduced_index(br.from), net.reduced_index(br.to));
                [slot(ri, ri), slot(rj, rj), slot(ri, rj), slot(rj, ri)]
            })
            .collect();
        stats::count_pf_symbolic_analysis();
        let symbolic = Arc::new(SymbolicCholesky::analyze(&b)?);
        let numeric = SparseCholesky::factor(symbolic, &b)?;
        Ok(SparseCache {
            n_buses: net.n_buses(),
            slack: net.slack(),
            endpoints: net.branches().iter().map(|br| (br.from, br.to)).collect(),
            b,
            slots,
            numeric,
        })
    }
}

/// [`solve_dc`] with a reusable [`PfContext`]: on the sparse path, only
/// the numeric factorization phase and two triangular solves run per
/// call once the context has seen the topology.
///
/// # Errors
///
/// Same contract as [`solve_dc`].
pub fn solve_dc_with(
    net: &Network,
    x: &[f64],
    injections: &[f64],
    ctx: &mut PfContext,
) -> Result<PowerFlow, GridError> {
    let n = net.n_buses();
    if injections.len() != n {
        return Err(GridError::DimensionMismatch {
            what: "injections",
            expected: n,
            actual: injections.len(),
        });
    }
    ctx.factor(net, x)?.power_flow(net, injections)
}

impl PfContext {
    /// Factors `B̃(x)` once for many solves against it: the sparse
    /// Cholesky (numeric phase on the cached symbolic analysis) at or
    /// above [`SPARSE_MIN_BUSES`], the dense LU below.
    ///
    /// One factor serves the flow recovery ([`PfFactor::power_flow`],
    /// the arithmetic of [`solve_dc_with`]) and any number of extra
    /// right-hand sides ([`PfFactor::solve`]), such as shift-factor rows
    /// or an adjoint solve.
    ///
    /// # Errors
    ///
    /// Propagates reactance validation and factorization failures.
    pub fn factor(&mut self, net: &Network, x: &[f64]) -> Result<PfFactor<'_>, GridError> {
        if self.uses_sparse(net) {
            let suscept = net.susceptances(x)?;
            let numeric = self.refactor(net, &suscept)?;
            Ok(PfFactor {
                kind: FactorKind::Sparse(numeric),
                suscept,
            })
        } else {
            // The historical dense path, operation for operation (byte
            // stability for the paper-scale cases).
            let lu = Lu::factor(&net.b_reduced(x)?)?;
            Ok(PfFactor {
                kind: FactorKind::Dense(lu),
                suscept: net.susceptances(x)?,
            })
        }
    }
}

/// A factorization of the reduced susceptance matrix `B̃(x)` at one
/// reactance vector, borrowed from (or built by) a [`PfContext`].
#[derive(Debug)]
pub struct PfFactor<'a> {
    kind: FactorKind<'a>,
    suscept: Vec<f64>,
}

#[derive(Debug)]
enum FactorKind<'a> {
    Dense(Lu),
    Sparse(&'a SparseCholesky),
}

impl PfFactor<'_> {
    /// Branch susceptances `b_l = base_mva / x_l` at the factored `x`.
    pub fn susceptances(&self) -> &[f64] {
        &self.suscept
    }

    /// Solves `B̃ y = rhs` in the slack-reduced index space (see
    /// [`Network::reduced_index`]).
    ///
    /// # Errors
    ///
    /// [`GridError::Numerical`] on a length mismatch.
    pub fn solve(&self, rhs: &[f64]) -> Result<Vec<f64>, GridError> {
        Ok(match &self.kind {
            FactorKind::Dense(lu) => lu.solve(rhs)?,
            FactorKind::Sparse(chol) => chol.solve(rhs)?,
        })
    }

    /// DC power flow for the requested nodal injections (the slack entry
    /// is ignored), with the arithmetic of [`solve_dc_with`].
    ///
    /// # Errors
    ///
    /// Propagates solve failures.
    pub fn power_flow(&self, net: &Network, injections: &[f64]) -> Result<PowerFlow, GridError> {
        let n = net.n_buses();
        let slack = net.slack();
        let p_red: Vec<f64> = injections
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| (i != slack).then_some(p))
            .collect();
        let theta_red = self.solve(&p_red)?;

        let mut theta = Vec::with_capacity(n);
        let mut it = theta_red.iter();
        for i in 0..n {
            if i == slack {
                theta.push(0.0);
            } else {
                theta.push(*it.next().expect("reduced state has n-1 entries"));
            }
        }

        let b = &self.suscept;
        let flows: Vec<f64> = net
            .branches()
            .iter()
            .enumerate()
            .map(|(l, br)| b[l] * (theta[br.from] - theta[br.to]))
            .collect();

        // Realized injections from flow conservation (slack absorbs imbalance).
        let mut realized = vec![0.0; n];
        for (l, br) in net.branches().iter().enumerate() {
            realized[br.from] += flows[l];
            realized[br.to] -= flows[l];
        }

        Ok(PowerFlow {
            theta,
            flows,
            injections: realized,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cases, Branch, Bus, Generator};

    #[test]
    fn two_bus_line_flow() {
        let net = crate::Network::new(
            "two",
            vec![Bus::unloaded(), Bus::with_load(100.0)],
            vec![Branch::new(0, 1, 0.1, 500.0)],
            vec![Generator::linear(0, 200.0, 10.0)],
            0,
        )
        .unwrap();
        let pf = solve_dispatch(&net, &net.nominal_reactances(), &[100.0]).unwrap();
        assert!((pf.flows[0] - 100.0).abs() < 1e-9);
        assert!((pf.injections[0] - 100.0).abs() < 1e-9);
        assert!((pf.injections[1] + 100.0).abs() < 1e-9);
        assert_eq!(pf.theta[0], 0.0);
        // f = b * (θ0 - θ1) with b = 100/0.1 = 1000 MW/rad → θ1 = -0.1 rad
        assert!((pf.theta[1] + 0.1).abs() < 1e-12);
    }

    #[test]
    fn flow_conservation_at_every_bus() {
        let net = cases::case14();
        let x = net.nominal_reactances();
        // arbitrary feasible dispatch: slack picks up the rest
        let dispatch = vec![100.0, 50.0, 30.0, 40.0, 20.0];
        let pf = solve_dispatch(&net, &x, &dispatch).unwrap();
        let loads = net.loads();
        // At non-slack buses the realized injection equals requested.
        let p_req = net.injections(&dispatch).unwrap();
        for (i, (&realized, &requested)) in pf.injections.iter().zip(p_req.iter()).enumerate() {
            if i != net.slack() {
                assert!(
                    (realized - requested).abs() < 1e-6,
                    "bus {i}: {realized} vs {requested}"
                );
            }
        }
        // Slack absorbs total imbalance: Σ injections = 0.
        let total: f64 = pf.injections.iter().sum();
        assert!(total.abs() < 1e-6);
        // Sanity: total realized generation equals total load.
        let gen_total: f64 = pf
            .injections
            .iter()
            .zip(loads.iter())
            .map(|(p, l)| p + l)
            .sum();
        assert!((gen_total - net.total_load()).abs() < 1e-6);
    }

    #[test]
    fn paper_4bus_table2_flows() {
        // Table II of the paper: flows 126.56 / 173.44 / −43.44 / −26.56 MW
        // at dispatch (350, 150).
        let net = cases::case4();
        let pf = solve_dispatch(&net, &net.nominal_reactances(), &[350.0, 150.0]).unwrap();
        let expected = [126.56, 173.44, -43.44, -26.56];
        for (l, &e) in expected.iter().enumerate() {
            assert!(
                (pf.flows[l] - e).abs() < 0.01,
                "line {l}: {} vs {e}",
                pf.flows[l]
            );
        }
    }

    #[test]
    fn measurement_vector_is_consistent_with_h() {
        // z = H θ̃ exactly (noiseless DC model).
        let net = cases::case14();
        let x = net.nominal_reactances();
        let dispatch = vec![120.0, 40.0, 30.0, 45.0, 20.0];
        let pf = solve_dispatch(&net, &x, &dispatch).unwrap();
        let z = pf.measurement_vector();
        let h = net.measurement_matrix(&x).unwrap();
        let theta_red: Vec<f64> = pf
            .theta
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| (i != net.slack()).then_some(t))
            .collect();
        let z_model = h.matvec(&theta_red).unwrap();
        for (a, b) in z.iter().zip(z_model.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn injection_length_is_validated() {
        let net = cases::case4();
        assert!(solve_dc(&net, &net.nominal_reactances(), &[0.0; 3]).is_err());
    }

    #[test]
    fn sparse_backend_agrees_with_dense_on_small_case() {
        let net = cases::case14();
        let x = net.nominal_reactances();
        let dispatch = [150.0, 40.0, 20.0, 30.0, 19.0];
        let dense = solve_dispatch(&net, &x, &dispatch).unwrap();
        let mut ctx = PfContext::with_backend(PfBackend::Sparse);
        let sparse = solve_dispatch_with(&net, &x, &dispatch, &mut ctx).unwrap();
        for (a, b) in dense.theta.iter().zip(sparse.theta.iter()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        for (a, b) in dense.flows.iter().zip(sparse.flows.iter()) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn context_reuses_symbolic_factorization_across_perturbations() {
        let net = cases::case14();
        let mut ctx = PfContext::with_backend(PfBackend::Sparse);
        let dispatch = [150.0, 40.0, 20.0, 30.0, 19.0];
        let mut x = net.nominal_reactances();
        for k in 0..5 {
            for l in net.dfacts_branches() {
                x[l] *= 1.0 + 0.01 * (k as f64 + 1.0);
            }
            let warm = solve_dispatch_with(&net, &x, &dispatch, &mut ctx).unwrap();
            // A cold context (fresh symbolic analysis) must match the
            // refactored path bit for bit: the numeric phase is
            // identical arithmetic either way.
            let cold = solve_dispatch_with(
                &net,
                &x,
                &dispatch,
                &mut PfContext::with_backend(PfBackend::Sparse),
            )
            .unwrap();
            assert_eq!(warm, cold);
        }
        assert_eq!(ctx.symbolic_reuses(), 4, "first solve analyzes, rest reuse");
    }

    #[test]
    fn context_rebuilds_on_topology_change() {
        let mut ctx = PfContext::with_backend(PfBackend::Sparse);
        let a = cases::case14();
        let b = cases::case30();
        solve_dispatch_with(
            &a,
            &a.nominal_reactances(),
            &[150.0, 40.0, 20.0, 30.0, 19.0],
            &mut ctx,
        )
        .unwrap();
        // Different topology: cache must be rebuilt, not reused.
        let pf = solve_dispatch_with(
            &b,
            &b.nominal_reactances(),
            &[60.0, 55.0, 25.0, 20.0, 15.0, 14.2],
            &mut ctx,
        )
        .unwrap();
        assert_eq!(ctx.symbolic_reuses(), 0);
        let direct = solve_dispatch(
            &b,
            &b.nominal_reactances(),
            &[60.0, 55.0, 25.0, 20.0, 15.0, 14.2],
        )
        .unwrap();
        for (x, y) in pf.theta.iter().zip(direct.theta.iter()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn auto_backend_crossover_is_by_bus_count() {
        let ctx = PfContext::new();
        assert!(!ctx.uses_sparse(&cases::case30()));
        assert!(ctx.uses_sparse(&cases::case57()));
        assert!(!PfContext::with_backend(PfBackend::Dense).uses_sparse(&cases::case57()));
    }

    #[test]
    fn perturbing_reactance_changes_flows_not_balance() {
        let net = cases::case4();
        let mut x = net.nominal_reactances();
        x[0] *= 0.8;
        let pf = solve_dispatch(&net, &x, &[350.0, 150.0]).unwrap();
        // Different flows than Table II...
        assert!((pf.flows[0] - 126.56).abs() > 0.5);
        // ...but conservation still holds.
        let total: f64 = pf.injections.iter().sum();
        assert!(total.abs() < 1e-6);
    }
}
