//! Derivative-free nonlinear minimization: box-constrained Nelder–Mead.
//!
//! The problem-(1) baseline of `gridmtd-core::selection` optimizes the
//! OPF cost over the D-FACTS reactances. That cost is piecewise linear
//! in the reactances, so its kinks stall gradient methods; this module
//! provides the local simplex search it uses instead, projected onto box
//! bounds. The gradient-driven searches (problem (4) and the γ ceiling)
//! use [`crate::lbfgs`].

/// Options for a single Nelder–Mead run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Convergence tolerance on the simplex objective spread.
    pub f_tol: f64,
    /// Initial simplex edge length as a fraction of each box width.
    ///
    /// Must be small relative to the basin structure of the objective:
    /// Nelder–Mead's reflection step doubles the simplex diameter, so a
    /// simplex spanning a sizeable fraction of the box can tunnel across
    /// objective barriers into a neighbouring basin. A warm-started
    /// local search relies on staying in the basin it started in.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> NelderMeadOptions {
        NelderMeadOptions {
            max_evals: 2_000,
            f_tol: 1e-9,
            initial_step: 0.05,
        }
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct MinimizeResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective at `x`.
    pub f: f64,
    /// Number of objective evaluations used.
    pub evals: usize,
}

fn clamp_into(x: &mut [f64], lower: &[f64], upper: &[f64]) {
    for ((xi, &lo), &hi) in x.iter_mut().zip(lower.iter()).zip(upper.iter()) {
        *xi = xi.clamp(lo, hi);
    }
}

/// Minimizes `f` over the box `[lower, upper]` with Nelder–Mead started
/// from `x0` (projected into the box).
///
/// Dimensions where `lower == upper` are held fixed.
///
/// # Panics
///
/// Panics if the slice lengths differ or any bound pair is inverted.
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    lower: &[f64],
    upper: &[f64],
    opts: &NelderMeadOptions,
) -> MinimizeResult {
    let n = x0.len();
    assert_eq!(lower.len(), n, "bounds length mismatch");
    assert_eq!(upper.len(), n, "bounds length mismatch");
    for i in 0..n {
        assert!(lower[i] <= upper[i], "inverted bounds at {i}");
    }

    // Free dimensions only; fixed ones are pinned at their bound.
    let free: Vec<usize> = (0..n).filter(|&i| upper[i] > lower[i]).collect();
    let mut base = x0.to_vec();
    clamp_into(&mut base, lower, upper);
    if free.is_empty() {
        let fv = f(&base);
        return MinimizeResult {
            x: base,
            f: fv,
            evals: 1,
        };
    }
    let d = free.len();

    let mut evals = 0usize;
    let eval = |pt_free: &[f64], f: &mut F, evals: &mut usize| -> f64 {
        let mut full = base.clone();
        for (k, &i) in free.iter().enumerate() {
            full[i] = pt_free[k].clamp(lower[i], upper[i]);
        }
        *evals += 1;
        f(&full)
    };

    // Initial simplex.
    let x0_free: Vec<f64> = free.iter().map(|&i| base[i]).collect();
    let mut simplex: Vec<Vec<f64>> = vec![x0_free.clone()];
    for k in 0..d {
        let i = free[k];
        let step = opts.initial_step * (upper[i] - lower[i]);
        let mut p = x0_free.clone();
        // Step toward whichever side has room.
        if p[k] + step <= upper[i] {
            p[k] += step;
        } else {
            p[k] -= step;
        }
        simplex.push(p);
    }
    let mut values: Vec<f64> = simplex
        .iter()
        .map(|p| eval(p, &mut f, &mut evals))
        .collect();

    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    while evals < opts.max_evals {
        // Order simplex.
        let mut idx: Vec<usize> = (0..=d).collect();
        idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaN objective"));
        let ordered: Vec<Vec<f64>> = idx.iter().map(|&i| simplex[i].clone()).collect();
        let ordered_vals: Vec<f64> = idx.iter().map(|&i| values[i]).collect();
        simplex = ordered;
        values = ordered_vals;

        if (values[d] - values[0]).abs() <= opts.f_tol * (1.0 + values[0].abs()) {
            break;
        }

        // Centroid of all but worst.
        let mut centroid = vec![0.0; d];
        for p in simplex.iter().take(d) {
            for k in 0..d {
                centroid[k] += p[k] / d as f64;
            }
        }

        // Reflection.
        let reflected: Vec<f64> = (0..d)
            .map(|k| centroid[k] + alpha * (centroid[k] - simplex[d][k]))
            .collect();
        let fr = eval(&reflected, &mut f, &mut evals);

        if fr < values[0] {
            // Expansion.
            let expanded: Vec<f64> = (0..d)
                .map(|k| centroid[k] + gamma * (reflected[k] - centroid[k]))
                .collect();
            let fe = eval(&expanded, &mut f, &mut evals);
            if fe < fr {
                simplex[d] = expanded;
                values[d] = fe;
            } else {
                simplex[d] = reflected;
                values[d] = fr;
            }
        } else if fr < values[d - 1] {
            simplex[d] = reflected;
            values[d] = fr;
        } else {
            // Contraction.
            let contracted: Vec<f64> = (0..d)
                .map(|k| centroid[k] + rho * (simplex[d][k] - centroid[k]))
                .collect();
            let fc = eval(&contracted, &mut f, &mut evals);
            if fc < values[d] {
                simplex[d] = contracted;
                values[d] = fc;
            } else {
                // Shrink toward the best vertex.
                let (best, rest) = simplex.split_first_mut().expect("non-empty simplex");
                for (v, vertex) in rest.iter_mut().enumerate() {
                    for (s, &b) in vertex.iter_mut().zip(best.iter()) {
                        *s = b + sigma * (*s - b);
                    }
                    values[v + 1] = eval(vertex, &mut f, &mut evals);
                }
            }
        }
    }

    // Return the best vertex as a full-dimension point.
    let best = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN objective"))
        .map(|(i, _)| i)
        .expect("non-empty simplex");
    let mut x = base.clone();
    for (k, &i) in free.iter().enumerate() {
        x[i] = simplex[best][k].clamp(lower[i], upper[i]);
    }
    MinimizeResult {
        f: values[best],
        x,
        evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_bowl_is_minimized() {
        let r = nelder_mead(
            |x| (x[0] - 1.0).powi(2) + (x[1] + 2.0).powi(2),
            &[0.0, 0.0],
            &[-5.0, -5.0],
            &[5.0, 5.0],
            &NelderMeadOptions::default(),
        );
        assert!((r.x[0] - 1.0).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] + 2.0).abs() < 1e-4);
        assert!(r.f < 1e-7);
    }

    #[test]
    fn respects_box_bounds() {
        // Unconstrained optimum at (10, 10), box caps at 2.
        let r = nelder_mead(
            |x| (x[0] - 10.0).powi(2) + (x[1] - 10.0).powi(2),
            &[0.0, 0.0],
            &[0.0, 0.0],
            &[2.0, 2.0],
            &NelderMeadOptions::default(),
        );
        assert!(r.x.iter().all(|&v| v <= 2.0 + 1e-12));
        assert!((r.x[0] - 2.0).abs() < 1e-3 && (r.x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn fixed_dimensions_are_pinned() {
        let r = nelder_mead(
            |x| x[0].powi(2) + (x[1] - 3.0).powi(2),
            &[1.0, 0.0],
            &[0.5, -10.0],
            &[0.5, 10.0],
            &NelderMeadOptions::default(),
        );
        assert_eq!(r.x[0], 0.5);
        assert!((r.x[1] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn rosenbrock_2d_converges() {
        let opts = NelderMeadOptions {
            max_evals: 20_000,
            ..NelderMeadOptions::default()
        };
        let r = nelder_mead(
            |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            &[-1.2, 1.0],
            &[-5.0, -5.0],
            &[5.0, 5.0],
            &opts,
        );
        assert!(r.f < 1e-6, "f = {}", r.f);
    }

    /// Best of independent `nelder_mead` runs, start 0 at `x0` and start
    /// `s > 0` uniform in the box from the stream seeded `seed ⊕ s`, fanned
    /// out over `threads` workers with ties kept by the earliest start.
    /// This is the multistart the derivative-free selection reference in
    /// `gridmtd-core`'s tests builds on `nelder_mead`; the tests below pin
    /// the properties of `nelder_mead` it relies on.
    #[allow(clippy::too_many_arguments)]
    fn best_of_starts<F: Fn(&[f64]) -> f64 + Sync>(
        f: F,
        x0: &[f64],
        lower: &[f64],
        upper: &[f64],
        n_starts: usize,
        seed: u64,
        opts: &NelderMeadOptions,
        threads: usize,
    ) -> MinimizeResult {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let starts: Vec<Vec<f64>> = (0..n_starts)
            .map(|s| {
                if s == 0 {
                    return x0.to_vec();
                }
                let mut rng = StdRng::seed_from_u64(seed ^ s as u64);
                lower
                    .iter()
                    .zip(upper)
                    .map(|(&lo, &hi)| rng.gen_range(lo..hi))
                    .collect()
            })
            .collect();
        let results = crate::parallel::par_map_threads(threads, &starts, |_, start| {
            nelder_mead(&f, start, lower, upper, opts)
        });
        let total_evals: usize = results.iter().map(|r| r.evals).sum();
        let mut best = results
            .into_iter()
            .reduce(|b, r| if r.f < b.f { r } else { b })
            .expect("at least one start");
        best.evals = total_evals;
        best
    }

    #[test]
    fn multistart_escapes_local_minimum() {
        // Double well: local min near x=-1 (f=0.1), global near x=2 (f=0).
        let f = |x: &[f64]| {
            let a = (x[0] + 1.0).powi(2) + 0.1;
            let b = 3.0 * (x[0] - 2.0).powi(2);
            a.min(b)
        };
        // A single run from the basin of the local min stays there.
        let local = nelder_mead(f, &[-1.4], &[-3.0], &[3.0], &NelderMeadOptions::default());
        assert!((local.x[0] + 1.0).abs() < 0.05);
        // The best of several starts finds the global one.
        let global = best_of_starts(
            f,
            &[-1.4],
            &[-3.0],
            &[3.0],
            12,
            7,
            &NelderMeadOptions::default(),
            2,
        );
        assert!((global.x[0] - 2.0).abs() < 0.05, "{:?}", global.x);
        assert!(global.f < 1e-6);
    }

    #[test]
    fn multistart_parallel_is_bit_identical_to_serial() {
        // `nelder_mead` is a pure function of its inputs, so fanning the
        // starts out over workers leaves every bit of the result unchanged.
        let f = |x: &[f64]| {
            (x[0] - 0.7).powi(2) * (x[1] + 1.1).cos() + (3.0 * x[0]).sin() + 0.05 * x[1] * x[1]
        };
        let run = |threads| {
            best_of_starts(
                f,
                &[0.0, 0.0],
                &[-4.0, -4.0],
                &[4.0, 4.0],
                9,
                1234,
                &NelderMeadOptions::default(),
                threads,
            )
        };
        let serial = run(1);
        for threads in [2, 4, 16] {
            let parallel = run(threads);
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
    #[should_panic(expected = "at least one start")]
    fn zero_starts_panics() {
        // The crate's one multistart driver rejects an empty start set
        // up front rather than returning an unset result.
        crate::lbfgs::multistart_lbfgs_threads(
            |_s| |x: &[f64], _: Option<&mut [f64]>| x[0],
            &[0.0],
            &[0.0],
            &[1.0],
            0,
            0,
            &crate::lbfgs::LbfgsOptions::default(),
            1,
        );
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let mut count = 0usize;
        let opts = NelderMeadOptions {
            max_evals: 50,
            ..NelderMeadOptions::default()
        };
        let _ = nelder_mead(
            |x| {
                count += 1;
                x.iter().map(|v| v * v).sum()
            },
            &[1.0, 1.0, 1.0],
            &[-2.0; 3],
            &[2.0; 3],
            &opts,
        );
        // A few extra evals can occur inside the final shrink step.
        assert!(count <= 60, "count = {count}");
    }
}
