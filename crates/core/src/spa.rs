//! The subspace-angle design metric `γ(H, H')` of Section V-C.
//!
//! # A note on "smallest" vs operational angle
//!
//! Definition V.1 of the paper defines the *smallest* principal angle
//! (maximizing `|uᵀv|`). However, when fewer than `N − 1` lines carry
//! D-FACTS devices, **the smallest principal angle between `Col(H)` and
//! `Col(H')` is identically zero**: any state offset `c` whose angle
//! differences vanish across every perturbed line satisfies `Hc = H'c`,
//! so the two column spaces always intersect in a subspace of dimension
//! at least `(N − 1) − |L_D|` (for the paper's IEEE 14-bus setup:
//! 13 − 6 = 7). A constraint `γ_smallest ≥ γ_th > 0` would therefore be
//! infeasible for every perturbation, while the paper reports achievable
//! values up to 0.45 rad.
//!
//! The quantity that actually behaves as the paper describes — zero for
//! scaled matrices, increasing with perturbation aggressiveness, governing
//! the `‖r'_a‖ ≤ sin(γ)‖a‖` bound of Appendix C — is the **largest**
//! principal angle, which is also exactly what MATLAB's `subspace(A, B)`
//! (the natural tool in the authors' toolchain) returns. This crate
//! therefore uses the largest principal angle as the operational design
//! metric [`gamma`], and keeps [`smallest_angle`] / [`angles`] available
//! for analysis. Every evaluation reports both (`MtdEvaluation::gamma`
//! and `MtdEvaluation::smallest_angle`), so the discrepancy stays visible
//! in every result.
//!
//! # Two solvers of one pencil
//!
//! Every angle is read off the pencil `(B − A)c = s·Bc` against an
//! orthonormal basis `Q₁` of `Col(H_pre)` ([`gridmtd_linalg::diff`]).
//! [`GammaBasis`] solves it for any matrix pair on a dense `H'`: a
//! `k × k` eigensolve per query. That is the path of [`gamma`],
//! [`smallest_angle`], [`angles`] and Theorem 1, which compare
//! arbitrary matrices.
//!
//! Every γ a session asks between two reactance vectors — the
//! selection's `sin²γ` state and gradient (about a hundred per call),
//! the exact-γ audit, the γ ceiling, evaluation, the keyspace trials and
//! the timeline's three reported angles — goes through [`GammaKernel`]
//! instead. There `H(x)` differs from `H_pre` only on the lines `C` that
//! `x` moves, so `B − A = ΔHᵀP⊥ΔH` has rank at most `|C|` — the
//! column-space intersection structure of Zhang et al., "Analysis of
//! MTD Against FDI Attacks on Power Grid". [`GammaKernel`] caches `P⊥M_D`
//! and its QR triangle per `x_pre` and solves the pencil on that
//! `|L_D|`-dimensional range, from branch stamps, with no dense `H(x)`.
//!
//! The same rank fixes the smallest angle: when `|C| < n` the pencil has
//! a zero eigenvalue, so the column spaces intersect and the smallest
//! angle is exactly 0, with no eigensolve
//! ([`GammaKernel::gamma_and_smallest_at`]). When `|C| ≥ n` the range is
//! no smaller than the state space; there both angles come from the
//! dense pencil on the `H(x)` the caller holds (an evaluation builds it
//! for the detector anyway). The detection scorer switches at the same
//! point. Both solvers agree to roundoff; nothing tunes the switch.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use gridmtd_linalg::diff::{self, LowRankPencil, SinSqState};
use gridmtd_linalg::{subspace, LinalgError, Matrix, Qr};
use gridmtd_powergrid::Network;

use crate::MtdError;

/// Process-wide count of [`GammaBasis`] constructions (each one is a QR
/// factorization of the full pre-perturbation measurement matrix). The
/// one-off bases of the free functions [`gamma`], [`smallest_angle`] and
/// [`angles`] are not cached, so they are not counted. Warm paths —
/// [`crate::MtdSession`] above all — cache the basis per `x_pre` and
/// must not rebuild it across repeated selections and evaluations; the
/// regression guards pin that with this counter, in the same style as
/// `gridmtd_powergrid::stats`.
static GAMMA_BASIS_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of [`GammaBasis`] constructions so far (monotone, relaxed
/// atomics; diagnostics only).
pub fn gamma_basis_builds() -> u64 {
    GAMMA_BASIS_BUILDS.load(Ordering::Relaxed)
}

/// A precomputed orthonormal basis of `Col(H_pre)` for repeated
/// `γ(H_pre, ·)` queries.
///
/// The selection optimizer compares one fixed pre-perturbation matrix
/// against hundreds of candidates. Every query — the exact angles, the
/// differentiable `sin²γ` state — solves the small pencil
/// `(B − A)c = s·Bc` of the candidate against this basis
/// ([`gridmtd_linalg::diff`]), so the `m × k` QR of `H_pre` is paid once
/// per `x_pre` and the candidate is never orthonormalized. Produces
/// bit-identical values to [`gamma`] and [`smallest_angle`], which
/// solve the same pencil against a one-off basis.
#[derive(Debug, Clone)]
pub struct GammaBasis {
    basis: subspace::OrthonormalBasis,
}

impl GammaBasis {
    /// Orthonormalizes the pre-perturbation matrix once.
    ///
    /// # Errors
    ///
    /// Propagates numerical failures.
    pub fn new(h_pre: &Matrix) -> Result<GammaBasis, MtdError> {
        GAMMA_BASIS_BUILDS.fetch_add(1, Ordering::Relaxed);
        Ok(GammaBasis {
            basis: subspace::OrthonormalBasis::new(h_pre)?,
        })
    }

    /// `γ(H_pre, h_post)` against the cached basis.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches and numerical failures.
    pub fn gamma_to(&self, h_post: &Matrix) -> Result<f64, MtdError> {
        Ok(self.basis.largest_angle_to(h_post)?)
    }

    /// `(γ, smallest angle)` against the cached basis — the largest and
    /// the literal smallest principal angle, both from one eigensolve.
    /// Bit-identical to [`GammaBasis::gamma_to`] and [`smallest_angle`].
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches and numerical failures.
    pub fn gamma_and_smallest_to(&self, h_post: &Matrix) -> Result<(f64, f64), MtdError> {
        let (smallest, largest) = self.basis.extreme_angles_to(h_post)?;
        Ok((largest, smallest))
    }

    /// Differentiable `sin²γ` state against the cached basis: the value
    /// plus everything needed to map sparse `∂H/∂x_l` stamps
    /// ([`gridmtd_powergrid::Network::measurement_matrix_derivative`])
    /// to `∂ sin²γ / ∂x_l` in O(1) per branch. The gradient-based
    /// selection path builds one state per candidate and reads the
    /// whole γ-gradient off it.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches and numerical failures.
    pub fn sin_sq_to(&self, h_post: &Matrix) -> Result<diff::SinSqState, MtdError> {
        Ok(diff::sin_sq_largest_angle(&self.basis, h_post)?)
    }
}

/// The session's γ kernel: `γ(H(x_pre), H(x))` as a function of the
/// reactances `x`, solved on the low-rank range of the perturbation
/// instead of on a dense `H(x)`. The selection reads its `sin²γ` state
/// and gradient off it; evaluation, the keyspace trials and the
/// timeline read their angles ([`GammaKernel::gamma_and_smallest_at`],
/// [`GammaKernel::gamma_at`]).
///
/// `H(x) = M·diag(b(x))·A` ([`Network::branch_measurement_rows`]) moves
/// only on the lines `C` whose susceptance differs from `x_pre`'s:
/// `H(x) = H_pre + M_C·Δ·A_C` with `Δ = diag(b_C(x) − b_C(x_pre))`. The
/// projector `P⊥ = I − Q₁Q₁ᵀ` onto `Col(H_pre)⊥` annihilates `H_pre`, so
/// the left side of the pencil `(B − A)c = s·Bc` is
///
/// ```text
/// B − A = H(x)ᵀP⊥H(x) = A_CᵀΔ·Y_CᵀY_C·ΔA_C = GᵀG,   G = R_C·Δ·A_C,
/// ```
///
/// with `Y_C = P⊥M_C` and `R_C` its QR triangle (`Y_CᵀY_C = R_CᵀR_C`):
/// rank at most `|C|`. Per `x_pre` the kernel caches `Y = P⊥M_S` and
/// `R_Y` for the lines `S` a selection moves — the D-FACTS lines `L_D`,
/// plus any line where `x_pre` is off its nominal value, since
/// candidates are assembled from the nominal reactances. That factor is
/// built on the first reactance query. Per candidate
/// it assembles `B(x) = H(x)ᵀH(x)` from branch stamps
/// ([`Network::measurement_gram`]) and solves the pencil on its
/// `|S|`-dimensional range ([`LowRankPencil`]): one `k × k` Cholesky,
/// one `k × |S|` forward solve and an `|S| × |S|` eigensolve, where the
/// dense path builds `H(x)` and `Q₁ᵀH(x)` and solves a `k × k`
/// eigenproblem. The gradient state needs only `v = H(x)c` (stamps) and
/// `P⊥v = Y_C·Δ·A_C·c`.
///
/// Exact for any `x`: when `C ⊄ S` the columns of `Y_C` are projected
/// and factored for that query alone. The value agrees with
/// [`GammaBasis::sin_sq_to`] on the dense `H(x)` to roundoff (pinned to
/// 1e-10 relative in `crates/core/tests/low_rank_gamma.rs`), and
/// `x = x_pre` gives exactly `s = 0` with a zero gradient.
#[derive(Debug, Clone)]
pub struct GammaKernel {
    basis: GammaBasis,
    /// `b(x_pre)`, the reference the changed lines are read against.
    b_pre: Vec<f64>,
    /// The lines `S` the factor caches, ascending.
    lines: Vec<usize>,
    /// `P⊥M_S` and its QR triangle, built once on first use. A failed
    /// build is kept too: it is a pure function of the basis and `S`.
    factor: OnceLock<Result<RangeFactor, LinalgError>>,
}

/// The per-`x_pre` low-rank factor of a [`GammaKernel`].
#[derive(Debug, Clone)]
struct RangeFactor {
    /// Column of `y`/`r_y` caching each branch (`None`: not in `S`).
    slot: Vec<Option<usize>>,
    /// `Y = P⊥M_S` (`m × |S|`).
    y: Matrix,
    /// `R_Y` of the thin QR of `Y` (`|S| × |S|`, upper triangular).
    r_y: Matrix,
}

/// The range of one query's pencil: the changed lines `C` and the
/// factor columns holding them.
struct PerturbationRange<'a> {
    changed: ChangedLines,
    /// Column of the factor's `y` and `r_y` for each changed line.
    cols: Vec<usize>,
    factor: Cow<'a, RangeFactor>,
}

/// One changed line of a reactance step: its reduced terminal columns
/// (`None`: slack) and its susceptance step `Δ_l`.
#[derive(Debug, Clone)]
pub(crate) struct LineStep {
    line: usize,
    from: Option<usize>,
    to: Option<usize>,
    delta: f64,
}

impl LineStep {
    /// The line's index.
    pub(crate) fn line(&self) -> usize {
        self.line
    }

    /// `Δ_l (c_from − c_to)`: this line's entry of `u = Δ·A_C·c`.
    pub(crate) fn apply(&self, c: &[f64]) -> f64 {
        self.delta * (self.from.map_or(0.0, |i| c[i]) - self.to.map_or(0.0, |i| c[i]))
    }
}

/// The lines `C` whose susceptance a step `x_pre → x` changes, with
/// `Δ = diag(b_C(x) − b_C(x_pre))` and their reduced ends: the range
/// `H(x) − H(x_pre) = M_C·Δ·A_C` that the γ kernel and the detection
/// scorer both work on.
#[derive(Debug, Clone)]
pub(crate) struct ChangedLines {
    /// One step per changed line, by ascending line index.
    steps: Vec<LineStep>,
    n_states: usize,
}

impl ChangedLines {
    /// The changed lines between two susceptance vectors of `net`.
    fn from_susceptances(net: &Network, b_pre: &[f64], b: &[f64]) -> ChangedLines {
        let steps = (0..b.len())
            .filter(|&l| b[l] != b_pre[l])
            .map(|l| {
                let br = net.branch(l);
                LineStep {
                    line: l,
                    from: net.reduced_index(br.from),
                    to: net.reduced_index(br.to),
                    delta: b[l] - b_pre[l],
                }
            })
            .collect();
        ChangedLines {
            steps,
            n_states: net.n_states(),
        }
    }

    /// The changed lines of the step `x_pre → x`.
    ///
    /// # Errors
    ///
    /// Invalid reactances.
    pub(crate) fn between(
        net: &Network,
        x_pre: &[f64],
        x: &[f64],
    ) -> Result<ChangedLines, MtdError> {
        Ok(ChangedLines::from_susceptances(
            net,
            &net.susceptances(x_pre)?,
            &net.susceptances(x)?,
        ))
    }

    /// Whether the range is smaller than the state space, `|C| < n`.
    /// Then `B − A` (rank ≤ `|C|`) has a zero eigenvalue, the smallest
    /// principal angle is exactly 0, and a factor of the range is
    /// cheaper than the dense `n`-dimensional path. When `|C| ≥ n` the
    /// range saves nothing, and the angles and the noncentralities take
    /// the dense path.
    pub(crate) fn is_low_rank(&self) -> bool {
        self.steps.len() < self.n_states
    }

    /// The changed line indices, ascending.
    fn lines(&self) -> impl Iterator<Item = usize> + '_ {
        self.steps.iter().map(|s| s.line)
    }

    /// Consumes `self` into its steps.
    pub(crate) fn into_steps(self) -> Vec<LineStep> {
        self.steps
    }
}

impl GammaKernel {
    /// Builds the basis of `Col(H_pre)` for `x_pre`, counted once by
    /// [`gamma_basis_builds`]; the low-rank factor follows on the first
    /// reactance query. `h_pre` must be `net.measurement_matrix(x_pre)`
    /// (the session passes its cached copy).
    ///
    /// # Errors
    ///
    /// Invalid reactances, an `h_pre` of the wrong shape, and the QR's
    /// numerical failures.
    pub fn new(net: &Network, x_pre: &[f64], h_pre: &Matrix) -> Result<GammaKernel, MtdError> {
        let b_pre = net.susceptances(x_pre)?;
        check_shape(net, h_pre)?;
        let basis = GammaBasis::new(h_pre)?;
        let nominal = net.nominal_reactances();
        let lines = (0..net.n_branches())
            .filter(|&l| net.branch(l).dfacts || x_pre[l] != nominal[l])
            .collect();
        Ok(GammaKernel {
            basis,
            b_pre,
            lines,
            factor: OnceLock::new(),
        })
    }

    /// The dense basis of `Col(H_pre)`, for queries on arbitrary
    /// matrices.
    pub fn basis(&self) -> &GammaBasis {
        &self.basis
    }

    /// `γ(H(x_pre), H(x))`, the largest principal angle, values only.
    ///
    /// # Errors
    ///
    /// Invalid reactances, a network of another shape, and the
    /// Cholesky/eigensolver failures of [`LowRankPencil::solve`].
    pub fn gamma_at(&self, net: &Network, x: &[f64]) -> Result<f64, MtdError> {
        let changed = self.changed(net, x)?;
        self.gamma_of(net, x, changed)
    }

    /// `(γ, smallest angle)` between `Col(H(x_pre))` and `Col(H(x))`,
    /// the largest and the literal smallest principal angle. `h` must be
    /// `net.measurement_matrix(x)`; it is read only when the step moves
    /// `|C| ≥ n` lines.
    ///
    /// When `|C| < n` (every D-FACTS step on case14 and up) γ is
    /// [`GammaKernel::gamma_at`] and the smallest angle is exactly 0 by
    /// rank: `B − A = GᵀG` and `G` has at most `|C|` rows, so the column
    /// spaces share at least `n − |C|` directions. When `|C| ≥ n` the
    /// range is no smaller than the state space, and both angles come
    /// from one dense eigensolve of the pencil against `h`, bit-identical
    /// to [`GammaBasis::gamma_and_smallest_to`].
    ///
    /// # Errors
    ///
    /// As [`GammaKernel::gamma_at`], an `h` of the wrong shape, and the
    /// dense pencil's failures.
    pub fn gamma_and_smallest_at(
        &self,
        net: &Network,
        x: &[f64],
        h: &Matrix,
    ) -> Result<(f64, f64), MtdError> {
        check_shape(net, h)?;
        let changed = self.changed(net, x)?;
        if changed.is_low_rank() {
            Ok((self.gamma_of(net, x, changed)?, 0.0))
        } else {
            self.basis.gamma_and_smallest_to(h)
        }
    }

    /// The largest angle of the step to `x`, whose changed lines are
    /// `changed`.
    fn gamma_of(&self, net: &Network, x: &[f64], changed: ChangedLines) -> Result<f64, MtdError> {
        if changed.steps.is_empty() {
            return Ok(0.0);
        }
        Ok(pencil(net, x, &self.range(net, changed)?)?.angle())
    }

    /// The differentiable `sin²γ` state at `x`, the state
    /// [`GammaBasis::sin_sq_to`] builds from a dense `H(x)` up to
    /// roundoff: its [`SinSqState::gradient_entry`] maps the stamps of
    /// [`Network::measurement_matrix_derivative`] to `∂ sin²γ / ∂x_l`.
    ///
    /// # Errors
    ///
    /// As [`GammaKernel::gamma_at`].
    pub fn sin_sq_at(&self, net: &Network, x: &[f64]) -> Result<SinSqState, MtdError> {
        let changed = self.changed(net, x)?;
        if changed.steps.is_empty() {
            let zeros = vec![0.0; net.n_measurements()];
            let coeffs = vec![0.0; net.n_states()];
            return Ok(SinSqState::from_residual(0.0, coeffs, &zeros, &zeros));
        }
        let range = self.range(net, changed)?;
        let pencil = pencil(net, x, &range)?;
        let c = pencil.top_coeffs();
        let hc = net.measurement_apply(x, &c)?;
        // P⊥Hc = Y_C·(Δ·A_C·c): one `m × |S|` product.
        let y = &range.factor.y;
        let mut t = vec![0.0; y.cols()];
        for (step, &col) in range.changed.steps.iter().zip(&range.cols) {
            t[col] += step.apply(&c);
        }
        let residual = y.matvec(&t)?;
        Ok(SinSqState::from_residual(
            pencil.sin_sq(),
            c,
            &hc,
            &residual,
        ))
    }

    /// The lines `x` changes against `x_pre`.
    fn changed(&self, net: &Network, x: &[f64]) -> Result<ChangedLines, MtdError> {
        // `m = 2L + N` and `k = N − 1` fix the branch count too.
        check_shape(net, self.basis.basis.q())?;
        Ok(ChangedLines::from_susceptances(
            net,
            &self.b_pre,
            &net.susceptances(x)?,
        ))
    }

    /// The cached — or, for lines outside `S`, freshly projected —
    /// columns of `Y` and `R` that carry the changed lines.
    fn range(
        &self,
        net: &Network,
        changed: ChangedLines,
    ) -> Result<PerturbationRange<'_>, MtdError> {
        let q = self.basis.basis.q();
        let factor = self
            .factor
            .get_or_init(|| RangeFactor::build(net, q, &self.lines))
            .as_ref()
            .map_err(|e| MtdError::Numerical(e.clone()))?;
        let cached: Option<Vec<usize>> = changed.lines().map(|l| factor.slot[l]).collect();
        let (cols, factor) = match cached {
            Some(cols) => (cols, Cow::Borrowed(factor)),
            None => {
                let lines: Vec<usize> = changed.lines().collect();
                (
                    (0..lines.len()).collect(),
                    Cow::Owned(RangeFactor::build(net, q, &lines)?),
                )
            }
        };
        Ok(PerturbationRange {
            changed,
            cols,
            factor,
        })
    }
}

/// `GᵀG·c = s·B(x)·c` with `Gᵀ = A_CᵀΔR_Cᵀ`, on a nonempty range.
fn pencil(
    net: &Network,
    x: &[f64],
    range: &PerturbationRange<'_>,
) -> Result<LowRankPencil, MtdError> {
    // R is upper triangular: its rows past the last column of C are zero
    // on C and drop out of G.
    let rows = range.cols.iter().max().map_or(0, |&c| c + 1);
    let mut gt = Matrix::zeros(net.n_states(), rows);
    for (step, &col) in range.changed.steps.iter().zip(&range.cols) {
        for j in 0..=col {
            let coef = step.delta * range.factor.r_y[(j, col)];
            if let Some(f) = step.from {
                gt[(f, j)] += coef;
            }
            if let Some(t) = step.to {
                gt[(t, j)] -= coef;
            }
        }
    }
    Ok(LowRankPencil::solve(&net.measurement_gram(x)?, &gt)?)
}

/// A shape error unless `m` is `n_measurements × n_states` of `net`.
fn check_shape(net: &Network, m: &Matrix) -> Result<(), MtdError> {
    let want = (net.n_measurements(), net.n_states());
    if m.shape() == want {
        Ok(())
    } else {
        Err(LinalgError::ShapeMismatch {
            op: "gamma_kernel",
            lhs: m.shape(),
            rhs: want,
        }
        .into())
    }
}

impl RangeFactor {
    fn build(net: &Network, q: &Matrix, lines: &[usize]) -> Result<RangeFactor, LinalgError> {
        let mut slot = vec![None; net.n_branches()];
        for (j, &l) in lines.iter().enumerate() {
            slot[l] = Some(j);
        }
        let y = perp_columns(net, q, lines)?;
        // `YᵀY = R_YᵀR_Y`; an empty `S` has an empty triangle.
        let r_y = if lines.is_empty() {
            Matrix::zeros(0, 0)
        } else {
            Qr::factor(&y)?.r()
        };
        Ok(RangeFactor { slot, y, r_y })
    }
}

/// `P⊥M_lines = M_lines − Q₁(Q₁ᵀM_lines)` (`m × |lines|`), from the four
/// signed rows of each stamp column.
fn perp_columns(net: &Network, q: &Matrix, lines: &[usize]) -> Result<Matrix, LinalgError> {
    let mut qt_m = Matrix::zeros(q.cols(), lines.len());
    for (j, &l) in lines.iter().enumerate() {
        for (row, sign) in net.branch_measurement_rows(l) {
            for (i, &qi) in q.row(row).iter().enumerate() {
                qt_m[(i, j)] += sign * qi;
            }
        }
    }
    let mut y = q.matmul(&qt_m)?;
    for v in y.as_mut_slice() {
        *v = -*v;
    }
    for (j, &l) in lines.iter().enumerate() {
        for (row, sign) in net.branch_measurement_rows(l) {
            y[(row, j)] += sign;
        }
    }
    Ok(y)
}

/// The operational subspace angle `γ(H, H') ∈ [0, π/2]` — the largest
/// principal angle between the two column spaces (see the module docs for
/// why this, and not the literal "smallest", is the metric that
/// reproduces the paper).
///
/// # Errors
///
/// Propagates shape mismatches and numerical failures.
///
/// # Example
///
/// ```
/// use gridmtd_core::spa;
/// use gridmtd_powergrid::cases;
///
/// # fn main() -> Result<(), gridmtd_core::MtdError> {
/// let net = cases::case14();
/// let x = net.nominal_reactances();
/// let h = net.measurement_matrix(&x).unwrap();
/// // Pure scaling leaves the column space unchanged: γ = 0.
/// let g = spa::gamma(&h, &h.scale(1.2))?;
/// assert!(g < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn gamma(h_pre: &Matrix, h_post: &Matrix) -> Result<f64, MtdError> {
    Ok(subspace::largest_principal_angle(h_pre, h_post)?)
}

/// The literal smallest principal angle of Definition V.1 (zero whenever
/// the column spaces intersect, i.e. for every partial-line perturbation;
/// the pencil resolves such a zero angle to about `1e-8`, the square
/// root of its roundoff in `sin²`).
///
/// # Errors
///
/// Propagates shape mismatches and numerical failures.
pub fn smallest_angle(h_pre: &Matrix, h_post: &Matrix) -> Result<f64, MtdError> {
    Ok(subspace::smallest_principal_angle(h_pre, h_post)?)
}

/// All principal angles (ascending, radians).
///
/// # Errors
///
/// Propagates shape mismatches and numerical failures.
pub fn angles(h_pre: &Matrix, h_post: &Matrix) -> Result<Vec<f64>, MtdError> {
    Ok(subspace::principal_angles(h_pre, h_post)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmtd_powergrid::cases;
    use std::f64::consts::FRAC_PI_2;

    fn h14(xmod: impl Fn(usize, f64) -> f64) -> (Matrix, Matrix) {
        let net = cases::case14();
        let x = net.nominal_reactances();
        let h_pre = net.measurement_matrix(&x).unwrap();
        let x_post: Vec<f64> = x.iter().enumerate().map(|(l, &v)| xmod(l, v)).collect();
        let h_post = net.measurement_matrix(&x_post).unwrap();
        (h_pre, h_post)
    }

    #[test]
    fn scaled_matrix_has_zero_gamma() {
        // H' = (1+η)H (all reactances scaled the same) keeps Col(H).
        let (h_pre, h_post) = h14(|_, v| v / 1.25);
        assert!(gamma(&h_pre, &h_post).unwrap() < 1e-6);
    }

    #[test]
    fn partial_perturbation_keeps_smallest_angle_zero() {
        // The motivating observation: with only 6 perturbed lines the
        // column spaces intersect, so the literal SPA is 0 while the
        // operational gamma is positive.
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let (h_pre, h_post) = h14(|l, v| if dfacts.contains(&l) { v * 1.4 } else { v });
        assert!(smallest_angle(&h_pre, &h_post).unwrap() < 1e-6);
        assert!(gamma(&h_pre, &h_post).unwrap() > 0.01);
    }

    #[test]
    fn gamma_grows_with_perturbation_magnitude() {
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let mut prev = 0.0;
        for eta in [0.1, 0.2, 0.3, 0.4, 0.5] {
            let (h_pre, h_post) = h14(|l, v| {
                if dfacts.contains(&l) {
                    // alternate signs for stronger rotation
                    if l % 2 == 0 {
                        v * (1.0 + eta)
                    } else {
                        v * (1.0 - eta)
                    }
                } else {
                    v
                }
            });
            let g = gamma(&h_pre, &h_post).unwrap();
            assert!(g > prev, "γ should grow: {g} after {prev}");
            prev = g;
        }
    }

    #[test]
    fn angles_are_sorted_and_bounded() {
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let (h_pre, h_post) = h14(|l, v| if dfacts.contains(&l) { v * 0.6 } else { v });
        let a = angles(&h_pre, &h_post).unwrap();
        assert_eq!(a.len(), net.n_states());
        for w in a.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!(a[0] >= -1e-12 && *a.last().unwrap() <= FRAC_PI_2 + 1e-12);
        // At least 7 of 13 angles are ~0 (shared subspace dimension).
        let zeros = a.iter().filter(|&&t| t < 1e-6).count();
        assert!(zeros >= 7, "expected >= 7 zero angles, got {zeros}");
    }

    #[test]
    fn gamma_basis_matches_gamma() {
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let (h_pre, h_post) = h14(|l, v| if dfacts.contains(&l) { v * 1.3 } else { v });
        let basis = GammaBasis::new(&h_pre).unwrap();
        assert_eq!(
            basis.gamma_to(&h_post).unwrap().to_bits(),
            gamma(&h_pre, &h_post).unwrap().to_bits(),
            "cached and direct γ must agree exactly"
        );
    }

    #[test]
    fn gamma_and_smallest_match_the_free_functions() {
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let (h_pre, h_post) = h14(|l, v| if dfacts.contains(&l) { v * 0.7 } else { v });
        let (g, small) = GammaBasis::new(&h_pre)
            .unwrap()
            .gamma_and_smallest_to(&h_post)
            .unwrap();
        assert_eq!(g.to_bits(), gamma(&h_pre, &h_post).unwrap().to_bits());
        assert_eq!(
            small.to_bits(),
            smallest_angle(&h_pre, &h_post).unwrap().to_bits()
        );
        let all = angles(&h_pre, &h_post).unwrap();
        assert_eq!(all.first().map(|a| a.to_bits()), Some(small.to_bits()));
        assert_eq!(all.last().map(|a| a.to_bits()), Some(g.to_bits()));
    }

    #[test]
    fn gamma_is_symmetric() {
        let net = cases::case14();
        let dfacts = net.dfacts_branches();
        let (h_pre, h_post) = h14(|l, v| if dfacts.contains(&l) { v * 1.3 } else { v });
        let g1 = gamma(&h_pre, &h_post).unwrap();
        let g2 = gamma(&h_post, &h_pre).unwrap();
        assert!((g1 - g2).abs() < 1e-9);
    }
}
