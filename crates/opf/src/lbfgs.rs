//! Gradient-based box-constrained minimization: projected L-BFGS with
//! Armijo backtracking and multistart.
//!
//! A derivative-free search such as [`crate::nlp`]'s Nelder–Mead treats
//! the objective as a black box and pays dozens of evaluations per digit
//! of progress. When the caller can supply analytic gradients — as the
//! γ-constrained reactance selection and the γ-ceiling search can, via
//! the measurement-matrix stamps and LP duals — a quasi-Newton method
//! converges in a handful of iterations instead. This module provides
//! the machinery: a two-loop L-BFGS recursion, projection onto box
//! bounds, and a deterministic multistart (per-start RNG streams,
//! bit-identical results for any worker count).
//!
//! The objective callback receives an optional gradient slice: line
//! search trials pass `None` so implementations can skip derivative
//! assembly (dual extraction, stamp accumulation) on points that are
//! about to be discarded.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::nlp::MinimizeResult;

/// Options for a single projected L-BFGS run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LbfgsOptions {
    /// Maximum objective evaluations (line-search trials included).
    pub max_evals: usize,
    /// Number of curvature pairs retained by the two-loop recursion.
    pub memory: usize,
    /// Convergence tolerance on the relative objective decrease.
    pub f_tol: f64,
    /// Convergence tolerance on the projected-gradient ∞-norm.
    pub g_tol: f64,
    /// Armijo sufficient-decrease constant.
    pub c1: f64,
    /// Backtracking step shrink factor in `(0, 1)`.
    pub backtrack: f64,
    /// Maximum backtracking trials per line search.
    pub max_backtracks: usize,
}

impl Default for LbfgsOptions {
    fn default() -> LbfgsOptions {
        LbfgsOptions {
            max_evals: 200,
            memory: 8,
            f_tol: 1e-10,
            g_tol: 1e-8,
            c1: 1e-4,
            backtrack: 0.5,
            max_backtracks: 25,
        }
    }
}

fn project(x: &mut [f64], lower: &[f64], upper: &[f64]) {
    for ((xi, &lo), &hi) in x.iter_mut().zip(lower.iter()).zip(upper.iter()) {
        *xi = xi.clamp(lo, hi);
    }
}

/// Gradient components pointing out of the box at an active bound are
/// dead directions; zeroing them yields the projected gradient whose
/// norm is the first-order stationarity measure for box constraints.
fn projected_gradient(x: &[f64], g: &[f64], lower: &[f64], upper: &[f64]) -> Vec<f64> {
    (0..x.len())
        .map(|i| {
            if (x[i] <= lower[i] && g[i] > 0.0) || (x[i] >= upper[i] && g[i] < 0.0) {
                0.0
            } else {
                g[i]
            }
        })
        .collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// One stored curvature pair `s = xₖ₊₁ − xₖ`, `y = gₖ₊₁ − gₖ`.
struct Pair {
    s: Vec<f64>,
    y: Vec<f64>,
    rho: f64, // 1 / sᵀy
}

/// Two-loop recursion: maps the gradient through the stored curvature
/// pairs to the quasi-Newton direction `Hₖ·g` (the step is `x − α·d`).
fn two_loop(pairs: &[Pair], g: &[f64]) -> Vec<f64> {
    let mut q = g.to_vec();
    let mut alphas = vec![0.0; pairs.len()];
    for (i, p) in pairs.iter().enumerate().rev() {
        let a = p.rho * dot(&p.s, &q);
        alphas[i] = a;
        for (qj, &yj) in q.iter_mut().zip(p.y.iter()) {
            *qj -= a * yj;
        }
    }
    if let Some(last) = pairs.last() {
        let gamma = dot(&last.s, &last.y) / dot(&last.y, &last.y).max(1e-300);
        for qj in q.iter_mut() {
            *qj *= gamma;
        }
    }
    for (i, p) in pairs.iter().enumerate() {
        let beta = p.rho * dot(&p.y, &q);
        for (qj, &sj) in q.iter_mut().zip(p.s.iter()) {
            *qj += (alphas[i] - beta) * sj;
        }
    }
    q
}

/// Minimizes `f` over the box `[lower, upper]` with projected L-BFGS
/// started from `x0` (projected into the box).
///
/// `f(x, grad)` returns the objective at `x`; when `grad` is `Some`, it
/// must also fill the slice with the gradient. Line-search trials pass
/// `None`, so implementations can skip derivative assembly for points
/// that are about to be discarded. Every call counts against
/// `opts.max_evals`, the same unit as
/// [`crate::nlp::NelderMeadOptions::max_evals`].
///
/// Dimensions where `lower == upper` are held fixed (their projected
/// gradient is identically zero, so no step ever moves them).
/// Non-finite trial values are treated as line-search rejections, so
/// objectives may return `f64::INFINITY` (or a large sentinel) for
/// infeasible points.
///
/// # Panics
///
/// Panics if the slice lengths differ or any bound pair is inverted.
pub fn lbfgs_box<F: FnMut(&[f64], Option<&mut [f64]>) -> f64>(
    mut f: F,
    x0: &[f64],
    lower: &[f64],
    upper: &[f64],
    opts: &LbfgsOptions,
) -> MinimizeResult {
    let n = x0.len();
    assert_eq!(lower.len(), n, "bounds length mismatch");
    assert_eq!(upper.len(), n, "bounds length mismatch");
    for i in 0..n {
        assert!(lower[i] <= upper[i], "inverted bounds at {i}");
    }

    let mut x = x0.to_vec();
    project(&mut x, lower, upper);
    let mut g = vec![0.0; n];
    let mut evals = 1usize;
    let mut fx = f(&x, Some(&mut g));
    if !fx.is_finite() {
        // Nothing to follow downhill from a non-finite start; report it.
        return MinimizeResult { x, f: fx, evals };
    }

    let mut pairs: Vec<Pair> = Vec::new();
    'outer: while evals < opts.max_evals {
        let pg = projected_gradient(&x, &g, lower, upper);
        if norm_inf(&pg) <= opts.g_tol {
            break;
        }

        let mut d = two_loop(&pairs, &g);
        // Fall back to normalized steepest descent whenever the memory
        // is empty (fresh start or just reset after a rejected
        // curvature pair) or the recursion fails to produce a descent
        // direction. Normalizing caps the first trial step at unit
        // length so backtracking starts from a sane scale.
        if pairs.is_empty() || dot(&d, &pg) <= 0.0 {
            let scale = 1.0 / norm2(&pg).max(1.0);
            d = pg.iter().map(|&v| v * scale).collect();
        }

        // Armijo backtracking over the projected arc x(α) = P(x − α·d).
        // The sufficient-decrease reference uses the *actual* step
        // x(α) − x so bound clipping is accounted for.
        let mut alpha = 1.0;
        let mut accepted: Option<(Vec<f64>, f64, Option<Vec<f64>>)> = None;
        for trial in 0..opts.max_backtracks {
            if evals >= opts.max_evals {
                break;
            }
            // Injection point: an exhausted line search keeps the
            // current iterate (the `accepted = None` path below); the
            // optimizer must degrade to a valid, audited result.
            if gridmtd_faults::point!("opf.lbfgs.line_search") {
                break;
            }
            let mut xt: Vec<f64> = x
                .iter()
                .zip(d.iter())
                .map(|(&xi, &di)| xi - alpha * di)
                .collect();
            project(&mut xt, lower, upper);
            let step: Vec<f64> = xt.iter().zip(x.iter()).map(|(&a, &b)| a - b).collect();
            if norm_inf(&step) <= 1e-300 {
                break; // projection pinned the whole step
            }
            // The unit step is accepted most of the time once curvature
            // information is in place, so the first trial optimistically
            // asks for the gradient and saves the follow-up call.
            let want_grad = trial == 0;
            let mut gt = if want_grad { vec![0.0; n] } else { Vec::new() };
            evals += 1;
            let ft = f(&xt, if want_grad { Some(&mut gt) } else { None });
            if ft.is_finite() && ft <= fx + opts.c1 * dot(&g, &step) {
                accepted = Some((xt, ft, want_grad.then_some(gt)));
                break;
            }
            alpha *= opts.backtrack;
        }
        let Some((x_new, f_new, grad_new)) = accepted else {
            break; // line search exhausted: keep the current iterate
        };
        let g_new = match grad_new {
            Some(gt) => gt,
            None => {
                if evals >= opts.max_evals {
                    x = x_new;
                    fx = f_new;
                    break 'outer;
                }
                let mut gt = vec![0.0; n];
                evals += 1;
                let _ = f(&x_new, Some(&mut gt));
                gt
            }
        };

        let s: Vec<f64> = x_new.iter().zip(x.iter()).map(|(&a, &b)| a - b).collect();
        let y: Vec<f64> = g_new.iter().zip(g.iter()).map(|(&a, &b)| a - b).collect();
        let sy = dot(&s, &y);
        // Curvature pairs with tiny or negative sᵀy would make the
        // implicit Hessian indefinite. Dropping only the offending pair
        // is not enough: the remaining stale memory can keep producing
        // the same degenerate short step (and hence the same rejected
        // pair) forever. Reset the whole memory instead, restarting from
        // steepest descent.
        if sy > 1e-12 * norm2(&s) * norm2(&y) {
            if pairs.len() == opts.memory {
                pairs.remove(0);
            }
            pairs.push(Pair {
                rho: 1.0 / sy,
                s,
                y,
            });
        } else {
            pairs.clear();
        }

        let f_drop = fx - f_new;
        x = x_new;
        fx = f_new;
        g = g_new;
        if f_drop.abs() <= opts.f_tol * (1.0 + fx.abs()) {
            break;
        }
    }

    MinimizeResult { x, f: fx, evals }
}

/// Multistart projected L-BFGS over *stateful* objectives with an
/// explicit worker count: `build(s)` constructs the objective for start
/// `s`, which may carry mutable state across its own evaluations (e.g.
/// an OPF context whose LP solver warm-starts along the descent
/// trajectory).
///
/// Start 0 is the caller's `x0`; start `s > 0` draws a uniform interior
/// point from its own RNG stream seeded `seed ⊕ s`, so the result is a
/// pure function of the inputs — bit-identical for any worker count
/// including serial, with ties between starts keeping the lowest start
/// index. The returned `evals` accumulates over all starts.
///
/// # Panics
///
/// Panics if `n_starts == 0` or the bound slices mismatch.
#[allow(clippy::too_many_arguments)]
pub fn multistart_lbfgs_threads<O, B>(
    build: B,
    x0: &[f64],
    lower: &[f64],
    upper: &[f64],
    n_starts: usize,
    seed: u64,
    opts: &LbfgsOptions,
    threads: usize,
) -> MinimizeResult
where
    B: Fn(usize) -> O + Sync,
    O: FnMut(&[f64], Option<&mut [f64]>) -> f64,
{
    assert!(n_starts > 0, "need at least one start");
    assert_eq!(lower.len(), x0.len(), "bounds length mismatch");
    assert_eq!(upper.len(), x0.len(), "bounds length mismatch");

    let starts: Vec<Vec<f64>> = (0..n_starts)
        .map(|s| {
            if s == 0 {
                x0.to_vec()
            } else {
                // The per-start streams are golden-pinned (the scenario
                // artifacts are byte-for-byte), and opf sits below core so
                // the seedstream mixer is out of reach. A collision across
                // starts costs only search diversity, never correctness:
                // every start minimizes the same objective.
                // gridmtd-lint: allow(raw-seed-mix) -- golden-pinned per-start streams; collisions cost diversity, not correctness
                let mut rng = StdRng::seed_from_u64(seed ^ s as u64);
                (0..x0.len())
                    .map(|i| {
                        if upper[i] > lower[i] {
                            rng.gen_range(lower[i]..upper[i])
                        } else {
                            lower[i]
                        }
                    })
                    .collect()
            }
        })
        .collect();

    let results = crate::parallel::par_map_threads(threads, &starts, |s, start| {
        let mut objective = build(s);
        lbfgs_box(|x, grad| objective(x, grad), start, lower, upper, opts)
    });

    let total_evals: usize = results.iter().map(|r| r.evals).sum();
    let mut best: Option<MinimizeResult> = None;
    for r in results {
        // Strict improvement keeps the earliest start on ties, exactly
        // like the serial scan.
        if best.as_ref().is_none_or(|b| r.f < b.f) {
            best = Some(r);
        }
    }
    let mut b = best.expect("at least one start ran");
    b.evals = total_evals;
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_with_grad(x: &[f64], grad: Option<&mut [f64]>) -> f64 {
        // f = Σ wᵢ (xᵢ − cᵢ)², c = (1, −2, 0.5), w = (1, 2, 0.5)
        let c = [1.0, -2.0, 0.5];
        let w = [1.0, 2.0, 0.5];
        if let Some(g) = grad {
            for i in 0..3 {
                g[i] = 2.0 * w[i] * (x[i] - c[i]);
            }
        }
        (0..3).map(|i| w[i] * (x[i] - c[i]).powi(2)).sum()
    }

    #[test]
    fn quadratic_bowl_is_minimized() {
        let r = lbfgs_box(
            quad_with_grad,
            &[0.0, 0.0, 0.0],
            &[-5.0; 3],
            &[5.0; 3],
            &LbfgsOptions::default(),
        );
        assert!((r.x[0] - 1.0).abs() < 1e-6, "{:?}", r.x);
        assert!((r.x[1] + 2.0).abs() < 1e-6);
        assert!((r.x[2] - 0.5).abs() < 1e-6);
        assert!(r.f < 1e-10);
        // A quadratic should converge in a handful of iterations.
        assert!(r.evals < 60, "evals = {}", r.evals);
    }

    #[test]
    fn respects_box_bounds_and_finds_active_set() {
        // Unconstrained optimum at (10, 10); box caps at 2 — the
        // constrained optimum pins both coordinates.
        let r = lbfgs_box(
            |x, grad| {
                if let Some(g) = grad {
                    g[0] = 2.0 * (x[0] - 10.0);
                    g[1] = 2.0 * (x[1] - 10.0);
                }
                (x[0] - 10.0).powi(2) + (x[1] - 10.0).powi(2)
            },
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[2.0, 2.0],
            &LbfgsOptions::default(),
        );
        assert!(r.x.iter().all(|&v| v <= 2.0 + 1e-12));
        assert!((r.x[0] - 2.0).abs() < 1e-9 && (r.x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_dimensions_are_pinned() {
        let r = lbfgs_box(
            |x, grad| {
                if let Some(g) = grad {
                    g[0] = 2.0 * x[0];
                    g[1] = 2.0 * (x[1] - 3.0);
                }
                x[0].powi(2) + (x[1] - 3.0).powi(2)
            },
            &[1.0, 0.0],
            &[0.5, -10.0],
            &[0.5, 10.0],
            &LbfgsOptions::default(),
        );
        assert_eq!(r.x[0], 0.5);
        assert!((r.x[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn rosenbrock_2d_converges() {
        let r = lbfgs_box(
            |x, grad| {
                let (a, b) = (1.0 - x[0], x[1] - x[0] * x[0]);
                if let Some(g) = grad {
                    g[0] = -2.0 * a - 400.0 * x[0] * b;
                    g[1] = 200.0 * b;
                }
                a * a + 100.0 * b * b
            },
            &[-1.2, 1.0],
            &[-5.0, -5.0],
            &[5.0, 5.0],
            &LbfgsOptions {
                max_evals: 500,
                ..LbfgsOptions::default()
            },
        );
        assert!(r.f < 1e-8, "f = {}", r.f);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn infeasible_regions_are_backed_away_from() {
        // Objective is infinite left of x = 0.5; the minimizer must
        // shrink its steps rather than crash or accept the sentinel.
        let r = lbfgs_box(
            |x, grad| {
                if x[0] < 0.5 {
                    if let Some(g) = grad {
                        g[0] = 0.0;
                    }
                    return f64::INFINITY;
                }
                if let Some(g) = grad {
                    g[0] = 2.0 * (x[0] - 0.25);
                }
                (x[0] - 0.25).powi(2)
            },
            &[2.0],
            &[-5.0],
            &[5.0],
            &LbfgsOptions::default(),
        );
        assert!(r.f.is_finite());
        assert!((r.x[0] - 0.5).abs() < 1e-4, "{:?}", r.x);
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let mut count = 0usize;
        let r = lbfgs_box(
            |x, grad| {
                count += 1;
                if let Some(g) = grad {
                    for (gi, &xi) in g.iter_mut().zip(x.iter()) {
                        *gi = xi.cos() * 1.0 + 2.0 * xi;
                    }
                }
                x.iter().map(|v| v.sin() + v * v).sum()
            },
            &[1.0, -1.0, 2.0],
            &[-4.0; 3],
            &[4.0; 3],
            &LbfgsOptions {
                max_evals: 10,
                ..LbfgsOptions::default()
            },
        );
        assert!(count <= 10, "count = {count}");
        assert_eq!(r.evals, count);
    }

    #[test]
    fn multistart_escapes_local_minimum() {
        // Double well: local min near x = −1 (f = 0.1), global near
        // x = 2 (f = 0); piecewise-smooth min of two parabolas.
        let f = |x: &[f64], grad: Option<&mut [f64]>| {
            let a = (x[0] + 1.0).powi(2) + 0.1;
            let b = 3.0 * (x[0] - 2.0).powi(2);
            if let Some(g) = grad {
                g[0] = if a < b {
                    2.0 * (x[0] + 1.0)
                } else {
                    6.0 * (x[0] - 2.0)
                };
            }
            a.min(b)
        };
        let local = lbfgs_box(f, &[-1.4], &[-3.0], &[3.0], &LbfgsOptions::default());
        assert!((local.x[0] + 1.0).abs() < 0.05);
        let global = multistart_lbfgs_threads(
            |_s| f,
            &[-1.4],
            &[-3.0],
            &[3.0],
            12,
            7,
            &LbfgsOptions::default(),
            2,
        );
        assert!((global.x[0] - 2.0).abs() < 1e-4, "{:?}", global.x);
        assert!(global.f < 1e-8);
    }

    #[test]
    fn multistart_parallel_is_bit_identical_to_serial() {
        let f = |x: &[f64], grad: Option<&mut [f64]>| {
            let v =
                (x[0] - 0.7).powi(2) * (x[1] + 1.1).cos() + (3.0 * x[0]).sin() + 0.05 * x[1] * x[1];
            if let Some(g) = grad {
                g[0] = 2.0 * (x[0] - 0.7) * (x[1] + 1.1).cos() + 3.0 * (3.0 * x[0]).cos();
                g[1] = -(x[0] - 0.7).powi(2) * (x[1] + 1.1).sin() + 0.1 * x[1];
            }
            v
        };
        let serial = multistart_lbfgs_threads(
            |_s| f,
            &[0.0, 0.0],
            &[-4.0, -4.0],
            &[4.0, 4.0],
            9,
            1234,
            &LbfgsOptions::default(),
            1,
        );
        for threads in [2, 4, 16] {
            let parallel = multistart_lbfgs_threads(
                |_s| f,
                &[0.0, 0.0],
                &[-4.0, -4.0],
                &[4.0, 4.0],
                9,
                1234,
                &LbfgsOptions::default(),
                threads,
            );
            assert!(
                serial
                    .x
                    .iter()
                    .zip(parallel.x.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads}: {:?} vs {:?}",
                serial.x,
                parallel.x
            );
            assert_eq!(serial.f.to_bits(), parallel.f.to_bits());
            assert_eq!(serial.evals, parallel.evals);
        }
    }

    #[test]
    fn gradient_skipped_on_backtracking_trials() {
        // A stiff quadratic whose minimum sits much closer than the
        // unit-length first direction forces backtracking; every
        // None-gradient call must correspond to a line-search trial.
        let mut none_calls = 0usize;
        let mut some_calls = 0usize;
        let _ = lbfgs_box(
            |x, grad| {
                match grad {
                    Some(g) => {
                        some_calls += 1;
                        g[0] = 200.0 * (x[0] - 0.1);
                    }
                    None => none_calls += 1,
                }
                100.0 * (x[0] - 0.1).powi(2)
            },
            &[0.3],
            &[-2.0],
            &[2.0],
            &LbfgsOptions {
                max_evals: 60,
                ..LbfgsOptions::default()
            },
        );
        assert!(some_calls >= 2, "gradient evals: {some_calls}");
        assert!(none_calls >= 1, "expected f-only backtracking trials");
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn zero_starts_panics() {
        multistart_lbfgs_threads(
            |_s| |x: &[f64], _: Option<&mut [f64]>| x[0],
            &[0.0],
            &[0.0],
            &[1.0],
            0,
            0,
            &LbfgsOptions::default(),
            1,
        );
    }
}
