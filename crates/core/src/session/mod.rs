//! The unified MTD service layer: one stateful handle per grid.
//!
//! The MTD operation the paper describes — and the continuous
//! decide–perturb–evaluate loop the MTD survey literature frames it as —
//! runs against a *fixed grid topology*: the operator re-selects
//! perturbations, re-scores attack ensembles and re-dispatches hour
//! after hour while the network graph never changes. Everything
//! expensive in that loop is therefore reusable state:
//!
//! * the pre-perturbation measurement matrix `H(x_pre)` and its γ
//!   kernel ([`spa::GammaKernel`]: the QR basis of `Col(H(x_pre))` and
//!   the low-rank factor of the D-FACTS range) behind every γ query
//!   between two reactance vectors — the selection's, evaluation's, the
//!   keyspace trials' and the timeline's;
//! * the sparse power-flow symbolic factorization
//!   ([`PfContext`], topology-keyed) behind every
//!   DC-OPF and dispatch solve;
//! * the gain-matrix symbolic factorization
//!   ([`gridmtd_estimation::EstimatorContext`]) behind every bad-data
//!   detector build;
//! * the pre-perturbation OPF, the attack ensemble crafted from it, the
//!   no-MTD baseline and the achievable-γ ceiling.
//!
//! [`MtdSession`] owns them all and is the one entry point to the
//! pipeline: build one from a
//! [`Network`] + [`MtdConfig`] (validated up front), then drive the
//! whole pipeline through methods — [`MtdSession::baseline`],
//! [`MtdSession::select`], [`MtdSession::evaluate`],
//! [`MtdSession::detection_probabilities`],
//! [`MtdSession::tradeoff_sweep`], [`MtdSession::keyspace_study`],
//! [`MtdSession::learning_study`] and the hourly
//! [`MtdSession::begin_day`] / [`MtdSession::step_hour`] loop. The
//! [`batch`] module adds a typed request layer on top so sweep drivers
//! (the scenario engine, the `gridmtd` CLI, a future server) fan
//! heterogeneous workloads through one entry point.
//!
//! # Determinism
//!
//! Every cache the session owns is either a pure function of its inputs
//! (matrices, bases, ensembles) or pinned bit-identical to the cold path
//! by the workspace's regression tests (primed power-flow contexts,
//! shared symbolic factorizations). A warm session's results are
//! therefore **byte-identical** to a fresh session's — the scenario
//! goldens and `crates/core/tests/session_warm_state.rs` pin this.
//!
//! # Example
//!
//! ```
//! use gridmtd_core::{MtdConfig, MtdSession};
//! use gridmtd_powergrid::cases;
//!
//! # fn main() -> Result<(), gridmtd_core::MtdError> {
//! let cfg = MtdConfig { n_attacks: 60, ..MtdConfig::fast_test() };
//! let session = MtdSession::builder(cases::case14()).config(cfg).build()?;
//! let sel = session.select(0.05)?;
//! let eval = session.evaluate(&sel.x_post)?;
//! assert!(eval.gamma >= 0.05 - 1e-3);
//! # Ok(())
//! # }
//! ```

pub mod batch;

use std::sync::{Arc, Mutex, OnceLock};

use gridmtd_attack::FdiAttack;
use gridmtd_estimation::{BadDataDetector, EstimatorContext};
use gridmtd_linalg::Matrix;
use gridmtd_opf::{parallel, solve_opf_with, OpfContext, OpfSolution};
use gridmtd_powergrid::{dcpf::PfContext, Network};
use gridmtd_traces::LoadTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::effectiveness::EnsembleNoncentrality;
use crate::timeline::HourOutcome;
use crate::tradeoff::{eta_grid, RandomTrial, TradeoffCurve, TradeoffPoint};
use crate::{
    cost, effectiveness, learning, selection, spa, LearningOptions, LearningPoint, MtdConfig,
    MtdError, MtdEvaluation, MtdSelection, TimelineOptions,
};

/// The no-MTD operating point: problem (1)'s jointly optimized
/// reactances and dispatch (the cost yardstick every MTD premium is
/// measured against).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// Cost-optimal reactance vector within the D-FACTS limits.
    pub x: Vec<f64>,
    /// The OPF at those reactances.
    pub opf: OpfSolution,
}

/// Result of a select-then-study attacker-relearning flow
/// (see [`MtdSession::learning_flow`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LearningOutcome {
    /// The γ threshold the perturbation was selected for (`None` = the
    /// study ran in the unperturbed world).
    pub gamma_threshold: Option<f64>,
    /// Achieved subspace angle of the applied perturbation.
    pub gamma_achieved: f64,
    /// Operational cost of the perturbation, percent over the
    /// pre-perturbation OPF.
    pub cost_increase_percent: f64,
    /// Attacker progress per snapshot-count checkpoint.
    pub points: Vec<LearningPoint>,
}

/// Topology-keyed warm state: survives [`MtdSession::set_x_pre`] because
/// the grid graph — not the reactance values — fixes it.
#[derive(Debug, Clone, Default)]
struct TopoCaches {
    /// Primed power-flow context prototype; clones of it serve
    /// numeric-only refactorizations everywhere a solver loop needs a
    /// private context.
    pf_proto: Arc<OnceLock<PfContext>>,
    /// Shared gain-matrix symbolic factorization for detector builds.
    est_ctx: Arc<Mutex<EstimatorContext>>,
}

/// Per-`x_pre` warm state, rebuilt lazily after every topology-value
/// change. Everything a [`MtdSession::derive`]d sibling's overrides
/// (seed, attack magnitude) cannot influence — `h_pre`, `gamma`, the
/// pre-perturbation OPF and the no-MTD baseline — is shared (`Arc`)
/// with derived batch sessions; the seed-dependent ensemble and γ
/// ceiling stay per-session.
#[derive(Debug, Default)]
struct WarmCaches {
    h_pre: Arc<OnceLock<Matrix>>,
    gamma: Arc<OnceLock<spa::GammaKernel>>,
    /// The OPF at `x_pre` with the context that solved it: read by
    /// [`MtdSession::opf_pre`], and its warmed simplex basis seeds every
    /// [`MtdSession::select`], so repeated selections skip the one cold
    /// LP solve.
    opf_pre: Arc<OnceLock<selection::BaselineState>>,
    baseline: Arc<OnceLock<BaselineOutcome>>,
    attacks: OnceLock<Vec<FdiAttack>>,
    ceiling: OnceLock<(Vec<f64>, f64)>,
}

/// Hourly-operation state between [`MtdSession::begin_day`] and the last
/// [`MtdSession::step_hour`].
#[derive(Debug, Clone)]
struct DayState {
    trace: LoadTrace,
    opts: TimelineOptions,
    nominal_total: f64,
    hour: usize,
}

/// How the builder initializes the pre-perturbation reactances.
#[derive(Debug, Clone)]
enum XPreInit {
    Nominal,
    Spread,
    Explicit(Vec<f64>),
}

/// Builder for [`MtdSession`] (see [`MtdSession::builder`]).
#[derive(Debug, Clone)]
pub struct MtdSessionBuilder {
    net: Network,
    cfg: MtdConfig,
    x_pre: XPreInit,
    threads: Option<usize>,
}

impl MtdSessionBuilder {
    /// Overrides the experiment configuration (default:
    /// [`MtdConfig::default`]).
    #[must_use]
    pub fn config(mut self, cfg: MtdConfig) -> MtdSessionBuilder {
        self.cfg = cfg;
        self
    }

    /// Sets an explicit pre-perturbation reactance vector (the
    /// attacker's knowledge). Default: the network's nominal
    /// reactances.
    #[must_use]
    pub fn x_pre(mut self, x_pre: Vec<f64>) -> MtdSessionBuilder {
        self.x_pre = XPreInit::Explicit(x_pre);
        self
    }

    /// Starts from a spread D-FACTS box corner
    /// ([`selection::spread_pre_perturbation`]) instead of the nominal
    /// reactances, keeping the paper's full γ range reachable.
    #[must_use]
    pub fn spread_x_pre(mut self) -> MtdSessionBuilder {
        self.x_pre = XPreInit::Spread;
        self
    }

    /// Caps the worker threads for every fan-out layer — batch requests,
    /// sweeps, multistarts, attack scoring — **for this session only**.
    ///
    /// The cap is applied as a scoped [`parallel::with_thread_budget`]
    /// around every session entry point, and the budget follows the
    /// call tree into nested fan-outs, so an outer batch and an inner
    /// multistart can never disagree. Per-session budgets do not race:
    /// two sessions built with different `threads(n)` run concurrently
    /// and each observes exactly its own cap. Precedence, highest
    /// first: this per-session budget, the `GRIDMTD_THREADS`
    /// environment variable, the machine's parallelism. Results are
    /// bit-identical for any worker count; this is purely a resource
    /// control.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> MtdSessionBuilder {
        self.threads = Some(threads.max(1));
        self
    }

    /// Validates the configuration and reactances and builds the
    /// session.
    ///
    /// # Errors
    ///
    /// * [`MtdError::InvalidConfig`] for NaN / out-of-range
    ///   configuration fields and zero budgets (see
    ///   [`MtdConfig::validate`]);
    /// * [`MtdError::Grid`] if an explicit `x_pre` has the wrong length
    ///   or non-positive entries.
    pub fn build(self) -> Result<MtdSession, MtdError> {
        self.cfg.validate()?;
        let x_pre = match self.x_pre {
            XPreInit::Nominal => self.net.nominal_reactances(),
            XPreInit::Spread => selection::spread_pre_perturbation(&self.net, self.cfg.eta_max),
            XPreInit::Explicit(x) => {
                self.net.check_reactances(&x)?;
                x
            }
        };
        Ok(MtdSession {
            net: self.net,
            cfg: self.cfg,
            x_pre,
            threads: self.threads,
            topo: TopoCaches::default(),
            warm: WarmCaches::default(),
            day: None,
        })
    }
}

/// A stateful MTD service handle for one grid: owns every warm cache of
/// the paper pipeline and exposes the pipeline as methods (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct MtdSession {
    net: Network,
    cfg: MtdConfig,
    x_pre: Vec<f64>,
    /// Per-session worker budget (see [`MtdSessionBuilder::threads`]);
    /// applied as a scoped [`parallel::with_thread_budget`] around every
    /// entry point by [`MtdSession::scoped`].
    threads: Option<usize>,
    topo: TopoCaches,
    warm: WarmCaches,
    day: Option<DayState>,
}

/// `OnceLock::get_or_try_init` on stable: on a lost race the freshly
/// computed value is dropped and the winner's is returned — harmless
/// here because every cached value is a pure function of the session
/// inputs.
fn get_or_try<T>(
    lock: &OnceLock<T>,
    init: impl FnOnce() -> Result<T, MtdError>,
) -> Result<&T, MtdError> {
    if let Some(v) = lock.get() {
        return Ok(v);
    }
    let v = init()?;
    Ok(lock.get_or_init(|| v))
}

/// Locks the shared estimator context, shrugging off poison: a worker
/// that panicked while holding the lock leaves the context exactly as
/// sound as any other cached symbolic state, because every use
/// pattern-validates it against the matrix at hand and rebuilds on
/// mismatch. Propagating the poison instead would turn one caught panic
/// into a permanent brick — every later request on the session (and, in
/// a server, every later client sharing the warm session) would panic
/// at this lock site.
fn lock_est_ctx(est_ctx: &Mutex<EstimatorContext>) -> std::sync::MutexGuard<'_, EstimatorContext> {
    // Injection point: poison the mutex *for real* (a helper thread
    // panics while holding it) so the recovery below is exercised end
    // to end, not simulated. The chaos matrix pins the recovered
    // result bit-identical to an unfaulted run.
    if gridmtd_faults::point!("core.session.estimator_poison") {
        let _ = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = est_ctx.lock();
                    panic!("fault-injection: core.session.estimator_poison");
                })
                .join()
        });
    }
    est_ctx
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Builds a post-MTD detector through the shared estimator context: the
/// symbolic state is cloned out of the mutex, the (possibly long)
/// numeric factorization runs unlocked, and a freshly analyzed symbolic
/// is published back unless a concurrent build already did.
pub(crate) fn detector_via(
    est_ctx: &Mutex<EstimatorContext>,
    h_post: Matrix,
    cfg: &MtdConfig,
) -> Result<BadDataDetector, MtdError> {
    let mut local = lock_est_ctx(est_ctx).clone();
    let bdd = effectiveness::detector_from_h_ctx(h_post, cfg, &mut local)?;
    let mut shared = lock_est_ctx(est_ctx);
    if !shared.has_symbolic() {
        *shared = local;
    }
    Ok(bdd)
}

impl MtdSession {
    /// Starts building a session for `net` (nominal `x_pre`, default
    /// configuration, machine-default threads).
    pub fn builder(net: Network) -> MtdSessionBuilder {
        MtdSessionBuilder {
            net,
            cfg: MtdConfig::default(),
            x_pre: XPreInit::Nominal,
            threads: None,
        }
    }

    /// The network this session serves (at its in-effect loads).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The validated configuration.
    pub fn config(&self) -> &MtdConfig {
        &self.cfg
    }

    /// The current pre-perturbation reactances (the attacker's
    /// knowledge).
    pub fn x_pre(&self) -> &[f64] {
        &self.x_pre
    }

    /// The per-session worker budget, if one was set at build time
    /// (see [`MtdSessionBuilder::threads`]).
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// Runs `f` under this session's worker budget: every fan-out layer
    /// reached from inside — batch dispatch, sweeps, multistarts,
    /// attack-scoring chunks — sizes itself to the budget, and
    /// concurrent sessions with different budgets never interfere
    /// (the budget is scoped to the call tree, not process-global).
    /// A no-op when the builder set no budget.
    fn scoped<R>(&self, f: impl FnOnce() -> R) -> R {
        parallel::with_thread_budget(self.threads, f)
    }

    /// Replaces the pre-perturbation reactances, invalidating every
    /// `x_pre`-keyed cache (the topology-keyed symbolic factorizations
    /// survive — the grid graph is unchanged). A no-op when `x_pre` is
    /// already current.
    ///
    /// # Panics
    ///
    /// Panics if `x_pre` has the wrong length.
    pub fn set_x_pre(&mut self, x_pre: Vec<f64>) {
        assert_eq!(
            x_pre.len(),
            self.net.n_branches(),
            "x_pre length must match the branch count"
        );
        if x_pre == self.x_pre {
            return;
        }
        self.x_pre = x_pre;
        self.warm = WarmCaches::default();
    }

    /// [`MtdSession::set_x_pre`] to an `x_pre` whose `H` and γ kernel
    /// the caller has built (`h_pre = H(x_pre)`, the kernel from it): the
    /// new warm caches start from them instead of rebuilding both.
    fn advance_x_pre(&mut self, x_pre: Vec<f64>, h_pre: Matrix, kernel: spa::GammaKernel) {
        if x_pre == self.x_pre {
            return;
        }
        self.x_pre = x_pre;
        self.warm = WarmCaches {
            h_pre: Arc::new(OnceLock::from(h_pre)),
            gamma: Arc::new(OnceLock::from(kernel)),
            ..WarmCaches::default()
        };
    }

    // ------------------------------------------------------------------
    // Warm caches
    // ------------------------------------------------------------------

    /// The cached pre-perturbation measurement matrix `H(x_pre)`.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn h_pre(&self) -> Result<&Matrix, MtdError> {
        get_or_try(&self.warm.h_pre, || {
            Ok(self.net.measurement_matrix(&self.x_pre)?)
        })
    }

    /// The cached QR basis of `Col(H(x_pre))`, owned by the session's γ
    /// kernel, for angle queries on arbitrary matrices. Evaluations
    /// solve the dense pencil against it only for steps that move at
    /// least `n` lines ([`spa::GammaKernel::gamma_and_smallest_at`]).
    ///
    /// # Errors
    ///
    /// Propagates numerical failures.
    pub fn gamma_basis(&self) -> Result<&spa::GammaBasis, MtdError> {
        Ok(self.gamma_kernel()?.basis())
    }

    /// The cached γ kernel of `x_pre` behind every γ query between two
    /// reactance vectors. It owns [`MtdSession::gamma_basis`]; its
    /// low-rank factor is built on the first reactance query.
    fn gamma_kernel(&self) -> Result<&spa::GammaKernel, MtdError> {
        get_or_try(&self.warm.gamma, || {
            spa::GammaKernel::new(&self.net, &self.x_pre, self.h_pre()?)
        })
    }

    /// The primed power-flow context prototype; solver loops clone it so
    /// the sparse symbolic factorization runs once per topology.
    fn pf_proto(&self) -> Result<&PfContext, MtdError> {
        get_or_try(&self.topo.pf_proto, || {
            let mut pf = PfContext::new();
            pf.prime(&self.net, &self.x_pre)?;
            Ok(pf)
        })
    }

    /// The cached OPF at `x_pre` together with its warmed context.
    fn opf_pre_state(&self) -> Result<&selection::BaselineState, MtdError> {
        get_or_try(&self.warm.opf_pre, || {
            selection::prepare_baseline(&self.net, &self.x_pre, &self.cfg, self.pf_proto()?)
        })
    }

    /// The cached pre-perturbation OPF at `x_pre` (the operating point
    /// the attacker eavesdropped).
    ///
    /// # Errors
    ///
    /// Propagates OPF failures.
    pub fn opf_pre(&self) -> Result<&OpfSolution, MtdError> {
        self.scoped(|| self.opf_pre_state().map(selection::BaselineState::opf))
    }

    /// The cached attack ensemble: stealthy FDI attacks crafted against
    /// `H(x_pre)`, scaled by the eavesdropped measurements at the
    /// pre-perturbation operating point.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn attacks(&self) -> Result<&[FdiAttack], MtdError> {
        self.scoped(|| {
            get_or_try(&self.warm.attacks, || {
                let dispatch = self.opf_pre()?.dispatch.clone();
                effectiveness::build_attack_set_impl(
                    &self.net,
                    self.h_pre()?,
                    &self.x_pre,
                    &dispatch,
                    &self.cfg,
                    self.pf_proto()?,
                )
            })
            .map(Vec::as_slice)
        })
    }

    /// The cached no-MTD baseline (problem (1): cost-optimal reactances
    /// and dispatch within the D-FACTS limits, warm-started from
    /// `x_pre`).
    ///
    /// # Errors
    ///
    /// Propagates OPF failures.
    pub fn baseline(&self) -> Result<&BaselineOutcome, MtdError> {
        self.scoped(|| {
            get_or_try(&self.warm.baseline, || {
                let (x, opf) = selection::baseline_opf_impl(
                    &self.net,
                    &self.x_pre,
                    &self.cfg,
                    self.pf_proto()?,
                )?;
                Ok(BaselineOutcome { x, opf })
            })
        })
    }

    /// The cached achievable-γ ceiling within the D-FACTS limits:
    /// the maximizing reactance vector and its angle.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn max_gamma(&self) -> Result<&(Vec<f64>, f64), MtdError> {
        self.scoped(|| {
            get_or_try(&self.warm.ceiling, || {
                selection::max_achievable_gamma_with(
                    &self.net,
                    &self.x_pre,
                    self.gamma_kernel()?,
                    &self.cfg,
                )
            })
        })
    }

    /// Builds the post-MTD bad-data detector for `h_post` through the
    /// session's shared gain-symbolic cache.
    fn detector(&self, h_post: Matrix) -> Result<BadDataDetector, MtdError> {
        detector_via(&self.topo.est_ctx, h_post, &self.cfg)
    }

    // ------------------------------------------------------------------
    // The paper pipeline
    // ------------------------------------------------------------------

    /// Solves a DC-OPF at an arbitrary reactance vector through the
    /// session's warm power-flow state (fresh simplex, so the result is
    /// bit-identical to a cold [`gridmtd_opf::solve_opf`]).
    ///
    /// # Errors
    ///
    /// See [`gridmtd_opf::solve_opf`].
    pub fn solve_opf(&self, x: &[f64]) -> Result<OpfSolution, MtdError> {
        Ok(solve_opf_with(
            &self.net,
            x,
            &self.cfg.opf_options(),
            &mut OpfContext::with_pf(self.pf_proto()?.clone()),
        )?)
    }

    /// Solves the SPA-constrained OPF of problem (4) for one threshold,
    /// through the cached low-rank γ kernel of `x_pre`, the shared
    /// power-flow symbolic state and the simplex basis of the cached
    /// OPF at `x_pre` (see [`selection`] for the search).
    ///
    /// # Errors
    ///
    /// * [`MtdError::ThresholdUnreachable`] if no perturbation within
    ///   the D-FACTS limits attains `gamma_threshold`; its `achieved`
    ///   field is the γ ceiling of the same inputs.
    /// * [`MtdError::Infeasible`] if the OPF at `x_pre` has no feasible
    ///   dispatch; otherwise propagates model failures.
    pub fn select(&self, gamma_threshold: f64) -> Result<MtdSelection, MtdError> {
        self.scoped(|| {
            let baseline = self
                .opf_pre_state()
                .map_err(selection::infeasible_baseline)?;
            selection::select_mtd_seeded(
                &self.net,
                &self.x_pre,
                self.gamma_kernel()?,
                gamma_threshold,
                &self.cfg,
                baseline,
            )
        })
    }

    /// Scores a perturbation `x_pre → x_post` against the session's
    /// cached attack ensemble: the largest and smallest principal
    /// angles from the session's γ kernel
    /// ([`spa::GammaKernel::gamma_and_smallest_at`]), and the detection
    /// probabilities of [`MtdSession::detection_probabilities`].
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn evaluate(&self, x_post: &[f64]) -> Result<MtdEvaluation, MtdError> {
        self.scoped(|| {
            let attacks = self.attacks()?;
            self.evaluate_against(&self.net, x_post, attacks)
        })
    }

    /// The noncentrality scorer of `x_pre → x_post` under the post-MTD
    /// detector `bdd`: exact for every ensemble the session crafts
    /// against `H(x_pre)` (see [`effectiveness`]).
    fn ensemble_scorer(
        &self,
        net: &Network,
        x_post: &[f64],
        bdd: &BadDataDetector,
    ) -> Result<EnsembleNoncentrality, MtdError> {
        EnsembleNoncentrality::new(net, &self.x_pre, x_post, bdd.estimator())
    }

    /// [`MtdSession::evaluate`] against an explicit ensemble and network
    /// (the hourly loop passes the hour's rescaled network; `H` depends
    /// only on topology and reactances, so the angles are unaffected).
    fn evaluate_against(
        &self,
        net: &Network,
        x_post: &[f64],
        attacks: &[FdiAttack],
    ) -> Result<MtdEvaluation, MtdError> {
        let h_post = net.measurement_matrix(x_post)?;
        let (gamma, smallest_angle) = self
            .gamma_kernel()?
            .gamma_and_smallest_at(net, x_post, &h_post)?;
        let bdd = self.detector(h_post)?;
        let detection_probs = self
            .ensemble_scorer(net, x_post, &bdd)?
            .probabilities_parallel(&bdd, attacks)?;
        Ok(MtdEvaluation {
            gamma,
            smallest_angle,
            detection_probs,
        })
    }

    /// Per-attack post-MTD detection probabilities of the cached
    /// ensemble under a candidate `x_post` (the raw series behind
    /// `η'(δ)`), each attack's `λ` read off the low-rank range of the
    /// perturbation ([`effectiveness`] module docs). They agree with
    /// the detector's residual of each attack vector within 1e-12;
    /// [`MtdSession::evaluate`] returns the same bits.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn detection_probabilities(&self, x_post: &[f64]) -> Result<Vec<f64>, MtdError> {
        self.scoped(|| {
            let attacks = self.attacks()?;
            let bdd = self.detector(self.net.measurement_matrix(x_post)?)?;
            self.ensemble_scorer(&self.net, x_post, &bdd)?
                .probabilities_parallel(&bdd, attacks)
        })
    }

    /// Sweeps the effectiveness-vs-cost tradeoff curve (Figs. 6 and 9)
    /// over a γ-threshold grid, reusing the cached ensemble so points
    /// are directly comparable. Thresholds above the achievable ceiling
    /// are skipped, not errors.
    ///
    /// # Errors
    ///
    /// Propagates selection/OPF failures.
    pub fn tradeoff_sweep(
        &self,
        gamma_thresholds: &[f64],
        deltas: &[f64],
    ) -> Result<TradeoffCurve, MtdError> {
        self.scoped(|| self.tradeoff_sweep_inner(gamma_thresholds, deltas))
    }

    fn tradeoff_sweep_inner(
        &self,
        gamma_thresholds: &[f64],
        deltas: &[f64],
    ) -> Result<TradeoffCurve, MtdError> {
        let attacks = self.attacks()?;
        let &(_, gamma_ceiling) = self.max_gamma()?;
        let baseline = self.baseline()?;

        // Every threshold's selection + scoring is independent given the
        // shared ensemble, so the sweep fans across worker threads;
        // results come back in grid order, making the curve identical to
        // a serial sweep.
        let in_range: Vec<f64> = gamma_thresholds
            .iter()
            .copied()
            .filter(|&g| g <= gamma_ceiling + 1e-3)
            .collect();
        let swept: Vec<Result<Option<TradeoffPoint>, MtdError>> =
            parallel::par_map(&in_range, |_, &gamma_th| {
                let sel = match self.select(gamma_th) {
                    Ok(s) => s,
                    Err(MtdError::ThresholdUnreachable { .. }) => return Ok(None),
                    Err(e) => return Err(e),
                };
                let eval = self.evaluate_against(&self.net, &sel.x_post, attacks)?;
                Ok(Some(TradeoffPoint {
                    gamma_threshold: gamma_th,
                    gamma_achieved: sel.gamma,
                    cost_increase_percent: cost::cost_increase_percent(
                        baseline.opf.cost,
                        sel.opf.cost,
                    ),
                    effectiveness: eta_grid(&eval, deltas),
                }))
            });
        let mut points = Vec::with_capacity(in_range.len());
        for swept_point in swept {
            if let Some(p) = swept_point? {
                points.push(p);
            }
        }
        Ok(TradeoffCurve {
            points,
            gamma_ceiling,
            baseline_cost: baseline.opf.cost,
        })
    }

    /// Scores `n_trials` random baseline perturbations (the keyspace of
    /// prior work, Figs. 7–8) against the session's cached ensemble.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn keyspace_study(
        &self,
        fraction: f64,
        n_trials: usize,
        deltas: &[f64],
    ) -> Result<Vec<RandomTrial>, MtdError> {
        self.scoped(|| self.keyspace_study_inner(fraction, n_trials, deltas))
    }

    /// Trial `t` draws its perturbation from a stream derived by
    /// [`crate::seedstream::mix`]`(seed + 0xfeed, t)`, so the study is a
    /// pure function of its arguments for any worker count and trial
    /// streams never collide between nearby seeds (the variant axes a
    /// batch sweeps). Each trial scores the ensemble serially: the
    /// trials are the fan-out.
    fn keyspace_study_inner(
        &self,
        fraction: f64,
        n_trials: usize,
        deltas: &[f64],
    ) -> Result<Vec<RandomTrial>, MtdError> {
        let attacks = self.attacks()?;
        let base = crate::seedstream::domain(self.cfg.seed, 0xfeed);
        let kernel = self.gamma_kernel()?;
        let trial_ids: Vec<u64> = (0..n_trials as u64).collect();
        parallel::par_map(&trial_ids, |_, &t| {
            let mut rng = StdRng::seed_from_u64(crate::seedstream::mix(base, t));
            let x_post =
                selection::random_perturbation(&self.net, &self.x_pre, fraction, &mut rng)?;
            let h_post = self.net.measurement_matrix(&x_post)?;
            let (gamma, smallest_angle) =
                kernel.gamma_and_smallest_at(&self.net, &x_post, &h_post)?;
            // Angles first so `h_post` can move into the detector
            // unclone'd.
            let bdd = self.detector(h_post)?;
            let probs = self
                .ensemble_scorer(&self.net, &x_post, &bdd)?
                .probabilities(&bdd, attacks)?;
            let eval = MtdEvaluation {
                gamma,
                smallest_angle,
                detection_probs: probs,
            };
            Ok(RandomTrial {
                trial: t as usize,
                gamma: eval.gamma,
                effectiveness: eta_grid(&eval, deltas),
            })
        })
        .into_iter()
        .collect()
    }

    /// Runs the attacker-relearning study of Section IV-A in the
    /// post-perturbation world `x_post`, through the session's warm
    /// power-flow and detector state.
    ///
    /// Snapshot `k` jitters every bus load by `±load_jitter` and splits
    /// the dispatch across generators with random weights, solves the
    /// power flow and corrupts the measurements with the configured
    /// sensor noise; all randomness derives from the configured seed
    /// (see [`learning`]).
    ///
    /// # Errors
    ///
    /// Propagates power-flow and estimation failures, and
    /// [`MtdError::Infeasible`] if a checkpoint cannot craft probes (the
    /// subspace dimension exceeds the snapshot count).
    ///
    /// # Panics
    ///
    /// Panics if `sample_counts` is empty, `n_probe_attacks` is zero, or
    /// `load_jitter` is outside `(0, 1)`.
    pub fn learning_study(
        &self,
        x_post: &[f64],
        opts: &LearningOptions,
    ) -> Result<Vec<LearningPoint>, MtdError> {
        self.scoped(|| {
            learning::attacker_learning_study_impl(
                &self.net,
                x_post,
                opts,
                &self.cfg,
                self.pf_proto()?,
                &self.topo.est_ctx,
            )
        })
    }

    /// The full relearning flow: optionally select a perturbation for
    /// `gamma_threshold` (pricing it against the pre-perturbation OPF),
    /// then run the study in the resulting world.
    ///
    /// # Errors
    ///
    /// Propagates selection and study failures.
    ///
    /// # Panics
    ///
    /// See [`MtdSession::learning_study`].
    pub fn learning_flow(
        &self,
        gamma_threshold: Option<f64>,
        opts: &LearningOptions,
    ) -> Result<LearningOutcome, MtdError> {
        let (x_post, gamma_achieved, cost_increase_percent) = match gamma_threshold {
            Some(g) => {
                let baseline_cost = self.opf_pre()?.cost;
                let sel = self.select(g)?;
                let increase = cost::cost_increase_percent(baseline_cost, sel.opf.cost);
                (sel.x_post, sel.gamma, increase)
            }
            None => (self.x_pre.clone(), 0.0, 0.0),
        };
        let points = self.learning_study(&x_post, opts)?;
        Ok(LearningOutcome {
            gamma_threshold,
            gamma_achieved,
            cost_increase_percent,
            points,
        })
    }

    // ------------------------------------------------------------------
    // Hourly operation (Figs. 10–11)
    // ------------------------------------------------------------------

    /// Starts a day of hourly MTD operation over `trace`: initializes
    /// the attacker's knowledge from the hour preceding the trace start
    /// (a spread D-FACTS point re-dispatched at the last trace hour) and
    /// arms [`MtdSession::step_hour`].
    ///
    /// # Errors
    ///
    /// Propagates OPF failures.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn begin_day(&mut self, trace: &LoadTrace, opts: &TimelineOptions) -> Result<(), MtdError> {
        assert!(!trace.is_empty(), "timeline trace must be non-empty");
        let budget = self.threads;
        let nominal_total = self.net.total_load();
        let n_hours = trace.len();
        let mut x_prev = selection::spread_pre_perturbation(&self.net, self.cfg.eta_max);
        {
            let net_prev = self
                .net
                .scale_loads(trace.scaling_factor(n_hours - 1, nominal_total));
            let (x, _) = parallel::with_thread_budget(budget, || {
                selection::baseline_opf_impl(&net_prev, &x_prev, &self.cfg, self.pf_proto()?)
            })?;
            x_prev = x;
        }
        self.set_x_pre(x_prev);
        self.day = Some(DayState {
            trace: trace.clone(),
            opts: opts.clone(),
            nominal_total,
            hour: 0,
        });
        Ok(())
    }

    /// Hours of the armed day not yet simulated (0 when no day is in
    /// progress).
    pub fn hours_remaining(&self) -> usize {
        self.day
            .as_ref()
            .map_or(0, |d| d.trace.len().saturating_sub(d.hour))
    }

    /// Simulates the next hour of MTD operation: re-dispatch for the
    /// hour's load, craft the attack ensemble against the one-hour-stale
    /// knowledge, auto-tune the smallest `γ_th` meeting the
    /// effectiveness target, and advance the attacker's knowledge to
    /// this hour's no-MTD reactances.
    ///
    /// # Errors
    ///
    /// [`MtdError::DayNotStarted`] without a day in progress
    /// ([`MtdSession::begin_day`]) — a typed error, not a panic, so a
    /// misrouted service request cannot abort a server worker.
    /// Propagates OPF/selection failures, and [`MtdError::Infeasible`]
    /// if even the smallest grid threshold is unreachable. Hours where
    /// the largest reachable `γ_th` misses the effectiveness target are
    /// reported with `target_met = false` rather than failing.
    pub fn step_hour(&mut self) -> Result<HourOutcome, MtdError> {
        let day = self.day.clone().ok_or(MtdError::DayNotStarted)?;
        let budget = self.threads;
        let hour = day.hour;
        debug_assert!(
            hour < day.trace.len(),
            "an armed day always has hours left (it is disarmed on its last step)"
        );
        let net_now = self
            .net
            .scale_loads(day.trace.scaling_factor(hour, day.nominal_total));

        let (x_now, h_now, kernel_now, outcome) = parallel::with_thread_budget(budget, || {
            // 1. No-MTD OPF for this hour (warm start from previous hour).
            let (x_now, opf_now) =
                selection::baseline_opf_impl(&net_now, &self.x_pre, &self.cfg, self.pf_proto()?)?;

            {
                // 2. Attacker's knowledge: last hour's matrix — exactly the
                // session's cached `H(x_pre)` and γ kernel, built once per
                // hour (or inherited from the previous hour's step) and
                // shared by the ensemble, every γ-grid candidate's
                // selection and evaluation, and the reported angles.
                let h_stale = self.h_pre()?;
                let stale_kernel = self.gamma_kernel()?;

                // Attack ensemble against the stale matrix, scaled by the
                // stale operating point (what the attacker eavesdropped).
                let opf_prev_dispatch = {
                    let prev_hour = if hour == 0 {
                        day.trace.len() - 1
                    } else {
                        hour - 1
                    };
                    let net_prev = self
                        .net
                        .scale_loads(day.trace.scaling_factor(prev_hour, day.nominal_total));
                    solve_opf_with(
                        &net_prev,
                        &self.x_pre,
                        &self.cfg.opf_options(),
                        &mut OpfContext::with_pf(self.pf_proto()?.clone()),
                    )?
                    .dispatch
                };
                let attacks = effectiveness::build_attack_set_impl(
                    &net_now,
                    h_stale,
                    &self.x_pre,
                    &opf_prev_dispatch,
                    &self.cfg,
                    self.pf_proto()?,
                )?;

                // 3. Tune γ_th on the grid. Candidates are evaluated
                // speculatively in worker-sized chunks and the serial
                // early-exit rule is replayed over the ordered results, so
                // the outcome (including which errors can surface) is
                // exactly the serial tuner's.
                let lookahead = parallel::available_threads().max(1);
                let mut chosen: Option<(f64, MtdSelection, f64)> = None;
                // The baseline OPF depends on the hour's loads but not
                // on γ_th: solve it once and seed every candidate, so
                // the grid pays one cold LP instead of one per point.
                let sel_baseline =
                    selection::prepare_baseline(&net_now, &self.x_pre, &self.cfg, self.pf_proto()?)
                        .map_err(selection::infeasible_baseline)?;
                'grid: for candidates in day.opts.gamma_grid.chunks(lookahead) {
                    let evaluations: Vec<Result<(MtdSelection, f64), MtdError>> =
                        parallel::par_map(candidates, |_, &gamma_th| {
                            let sel = selection::select_mtd_seeded(
                                &net_now,
                                &self.x_pre,
                                stale_kernel,
                                gamma_th,
                                &self.cfg,
                                &sel_baseline,
                            )?;
                            let eval = self.evaluate_against(&net_now, &sel.x_post, &attacks)?;
                            let eta = eval.effectiveness(day.opts.target_delta);
                            Ok((sel, eta))
                        });
                    for (&gamma_th, evaluation) in candidates.iter().zip(evaluations) {
                        match evaluation {
                            Ok((sel, eta)) => {
                                let met = eta >= day.opts.target_eta;
                                chosen = Some((gamma_th, sel, eta));
                                if met {
                                    break 'grid;
                                }
                            }
                            Err(MtdError::ThresholdUnreachable { .. }) => break 'grid,
                            Err(e) => return Err(e),
                        }
                    }
                }
                let (gamma_threshold, sel, eta) = chosen.ok_or(MtdError::Infeasible)?;

                // 4. The angles of Fig. 11, all between reactance vectors:
                // two on the stale kernel, one on the kernel of `x_now`,
                // which the next hour inherits with `H(x_now)`.
                let h_now = self.net.measurement_matrix(&x_now)?;
                let kernel_now = spa::GammaKernel::new(&self.net, &x_now, &h_now)?;
                let outcome = HourOutcome {
                    hour,
                    total_load_mw: net_now.total_load(),
                    cost_no_mtd: opf_now.cost,
                    cost_with_mtd: sel.opf.cost,
                    cost_increase_percent: cost::cost_increase_percent(opf_now.cost, sel.opf.cost),
                    gamma_drift: stale_kernel.gamma_at(&self.net, &x_now)?,
                    gamma_defense: stale_kernel.gamma_at(&self.net, &sel.x_post)?,
                    gamma_current: kernel_now.gamma_at(&self.net, &sel.x_post)?,
                    gamma_threshold,
                    effectiveness: eta,
                    target_met: eta >= day.opts.target_eta,
                };
                Ok::<_, MtdError>((x_now, h_now, kernel_now, outcome))
            }
        })?;

        // 5. Advance the attacker's knowledge to this hour's no-MTD
        // reactances: the `x_pre`-keyed caches restart from `H(x_now)`
        // and its kernel; the topology-keyed symbolic state survives.
        self.advance_x_pre(x_now, h_now, kernel_now);
        if let Some(d) = self.day.as_mut() {
            d.hour += 1;
            if d.hour >= d.trace.len() {
                self.day = None;
            }
        }
        Ok(outcome)
    }

    /// Runs a whole armed-and-stepped day in one call: simulates one
    /// hour of MTD operation per trace entry (24 for a daily trace)
    /// against `self.network()`'s nominal loads, which the trace
    /// rescales hour by hour.
    ///
    /// # Errors
    ///
    /// See [`MtdSession::step_hour`].
    pub fn simulate_day(
        &mut self,
        trace: &LoadTrace,
        opts: &TimelineOptions,
    ) -> Result<Vec<HourOutcome>, MtdError> {
        self.begin_day(trace, opts)?;
        let mut outcomes = Vec::with_capacity(trace.len());
        while self.hours_remaining() > 0 {
            outcomes.push(self.step_hour()?);
        }
        Ok(outcomes)
    }

    /// Derives a sibling session for a per-request configuration
    /// override: the topology-keyed warm state and every cache the
    /// overridable knobs (seed, attack magnitude) cannot influence —
    /// `H(x_pre)`, its γ kernel, the pre-perturbation OPF, the no-MTD
    /// baseline — are shared, while the seed-dependent caches
    /// (ensemble, ceiling) start empty — exactly what a batch variant
    /// axis needs.
    pub(crate) fn derive(&self, seed: Option<u64>, attack_ratio: Option<f64>) -> MtdSession {
        let mut cfg = self.cfg.clone();
        if let Some(s) = seed {
            cfg.seed = s;
        }
        if let Some(r) = attack_ratio {
            cfg.attack_ratio = r;
        }
        MtdSession {
            net: self.net.clone(),
            cfg,
            x_pre: self.x_pre.clone(),
            threads: self.threads,
            topo: self.topo.clone(),
            warm: WarmCaches {
                h_pre: Arc::clone(&self.warm.h_pre),
                gamma: Arc::clone(&self.warm.gamma),
                opf_pre: Arc::clone(&self.warm.opf_pre),
                baseline: Arc::clone(&self.warm.baseline),
                ..WarmCaches::default()
            },
            day: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmtd_powergrid::cases;

    #[test]
    fn builder_rejects_invalid_config() {
        let bad = MtdConfig {
            eta_max: f64::NAN,
            ..MtdConfig::fast_test()
        };
        let err = MtdSession::builder(cases::case4())
            .config(bad)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            MtdError::InvalidConfig {
                field: "eta_max",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_wrong_length_x_pre() {
        let err = MtdSession::builder(cases::case4())
            .config(MtdConfig::fast_test())
            .x_pre(vec![0.1; 3])
            .build()
            .unwrap_err();
        assert!(matches!(err, MtdError::Grid(_)));
    }

    #[test]
    fn set_x_pre_invalidates_x_keyed_caches_only() {
        let net = cases::case4();
        let mut s = MtdSession::builder(net.clone())
            .config(MtdConfig::fast_test())
            .build()
            .unwrap();
        let h_a = s.h_pre().unwrap().clone();
        let mut x = net.nominal_reactances();
        for l in net.dfacts_branches() {
            x[l] *= 1.2;
        }
        s.set_x_pre(x);
        let h_b = s.h_pre().unwrap().clone();
        assert_ne!(h_a, h_b, "new x_pre must rebuild H");
        // Setting the same value back-to-back is a cache-preserving
        // no-op: the cached matrix keeps its address.
        let addr_before = s.h_pre().unwrap() as *const Matrix;
        let x_now = s.x_pre().to_vec();
        s.set_x_pre(x_now);
        assert_eq!(s.h_pre().unwrap() as *const Matrix, addr_before);
    }

    #[test]
    fn caught_panic_does_not_brick_the_session() {
        // A worker that panics while holding the estimator-context lock
        // poisons the mutex. A daemon catches such panics and keeps
        // serving; the session must shrug the poison off (the context
        // is pattern-validated per use, so a poisoned clone is safe)
        // instead of turning every later request into a panic cascade.
        let s = MtdSession::builder(cases::case4())
            .config(MtdConfig {
                n_attacks: 20,
                n_starts: 1,
                max_evals_per_start: 30,
                ..MtdConfig::default()
            })
            .build()
            .unwrap();
        let before = s.evaluate(s.x_pre()).unwrap();

        // Simulate the mid-batch panic: grab the shared lock on another
        // thread and unwind while holding it.
        let est_ctx = Arc::clone(&s.topo.est_ctx);
        let caught = std::thread::spawn(move || {
            // Same poison-shrugging acquisition as the production lock
            // sites; this guard is the one that poisons on unwind.
            let _guard = lock_est_ctx(&est_ctx);
            panic!("worker panic while holding the estimator context");
        })
        .join();
        assert!(caught.is_err(), "the helper thread must have panicked");
        assert!(s.topo.est_ctx.is_poisoned(), "the mutex must be poisoned");

        // Every later request still works, through the same lock sites,
        // and produces the same bits as before the poisoning.
        let after = s.evaluate(s.x_pre()).unwrap();
        assert_eq!(before, after);
        let batch = s.run_batch(&[batch::Request::Evaluate {
            x_post: s.x_pre().to_vec(),
        }]);
        assert!(batch[0].is_ok(), "batch path must also survive: {batch:?}");
    }

    #[test]
    fn step_hour_without_begin_day_is_a_typed_error() {
        let mut s = MtdSession::builder(cases::case4())
            .config(MtdConfig::fast_test())
            .build()
            .unwrap();
        assert_eq!(s.step_hour().unwrap_err(), MtdError::DayNotStarted);
        // A finished day disarms the session: stepping past the end is
        // the same typed error, not a panic.
        let trace = gridmtd_traces::LoadTrace::new(vec![100.0]);
        let opts = TimelineOptions {
            gamma_grid: vec![0.01],
            ..TimelineOptions::default()
        };
        s.begin_day(&trace, &opts).unwrap();
        while s.hours_remaining() > 0 {
            s.step_hour().unwrap();
        }
        assert_eq!(s.step_hour().unwrap_err(), MtdError::DayNotStarted);
    }

    #[test]
    fn adjacent_seed_keyspace_studies_share_no_trial_streams() {
        // The historical XOR stream derivation reused trial streams
        // between adjacent seeds: with base = seed + 0xfeed, trial 1 of
        // seed 2 equalled trial 0 of seed 3 ((2+0xfeed)^1 == (3+0xfeed)^0),
        // so the "independent" keyspace variants of a batch sweep drew
        // identical perturbations. Pin that no trial of seed 2 matches
        // any trial of seed 3.
        let study = |seed: u64| {
            let s = MtdSession::builder(cases::case4())
                .config(MtdConfig {
                    n_attacks: 20,
                    seed,
                    ..MtdConfig::default()
                })
                .build()
                .unwrap();
            s.keyspace_study(0.05, 6, &[0.9]).unwrap()
        };
        let a = study(2);
        let b = study(3);
        for ta in &a {
            for tb in &b {
                assert_ne!(
                    ta.gamma.to_bits(),
                    tb.gamma.to_bits(),
                    "seed 2 trial {} and seed 3 trial {} drew the same stream",
                    ta.trial,
                    tb.trial
                );
            }
        }
    }

    #[test]
    fn per_session_thread_budgets_do_not_race() {
        // Two sessions with different `threads(n)` caps, driven
        // concurrently, must produce bit-identical results to their
        // serial selves (each cap is scoped to its own session's call
        // tree, so neither can leak into the other).
        let build = |threads: usize| {
            MtdSession::builder(cases::case14())
                .config(MtdConfig {
                    n_attacks: 30,
                    n_starts: 1,
                    max_evals_per_start: 40,
                    ..MtdConfig::default()
                })
                .threads(threads)
                .build()
                .unwrap()
        };
        let reference = build(1).select(0.01).unwrap();
        let s1 = build(1);
        let s4 = build(4);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| s1.select(0.01).unwrap());
            let b = scope.spawn(|| s4.select(0.01).unwrap());
            assert_eq!(a.join().unwrap(), reference);
            assert_eq!(b.join().unwrap(), reference);
        });
    }

    #[test]
    fn spread_builder_matches_free_function() {
        let net = cases::case14();
        let cfg = MtdConfig::fast_test();
        let s = MtdSession::builder(net.clone())
            .config(cfg.clone())
            .spread_x_pre()
            .build()
            .unwrap();
        assert_eq!(
            s.x_pre(),
            selection::spread_pre_perturbation(&net, cfg.eta_max).as_slice()
        );
    }
}
