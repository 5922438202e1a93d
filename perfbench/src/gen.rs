//! Seeded input generators. Every input a workload sends is a pure
//! function of the `--seed` argument and the input's index, so a run can
//! be replayed exactly and two seeds never share inputs.

use gridmtd_core::seedstream;
use gridmtd_powergrid::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream tags, so the generators of different workloads draw from
/// unrelated streams even under the same seed.
const EVALUATE: u64 = 1;
const CONFIG: u64 = 2;
const SERVE: u64 = 3;

fn rng(seed: u64, tag: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(seedstream::mix(seedstream::domain(seed, tag), index))
}

/// A random D-FACTS perturbation of `x_base`: one magnitude drawn from
/// `[lo, hi)` for the whole perturbation, and an independent random sign
/// per D-FACTS line.
fn perturbation(net: &Network, x_base: &[f64], lo: f64, hi: f64, rng: &mut StdRng) -> Vec<f64> {
    let step = rng.gen_range(lo..hi);
    let mut x = x_base.to_vec();
    for l in net.dfacts_branches() {
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        x[l] *= 1.0 + sign * step;
    }
    x
}

/// `MtdConfig::seed` of a direct workload's instance `k` (kept below
/// 2³¹ so it also travels as a plain JSON integer).
pub fn config_seed(seed: u64, k: usize) -> u64 {
    seedstream::mix(seedstream::domain(seed, CONFIG), k as u64) >> 33
}

/// `MtdConfig::seed` of select-case118's instance `k` of `n`: a fixed
/// pool of `n` configuration seeds, rotated so that the run seed picks
/// which comes first. Fixed, not seeded: the cost of one selection
/// depends on its configuration seed (single seeds ranged 1.02–1.36 s),
/// and with seeded configurations the run seed moved the median op.
pub fn select_config_seed(seed: u64, k: usize, n: usize) -> u64 {
    config_seed(0, (k + (seed % n as u64) as usize) % n)
}

/// Relative D-FACTS step of the evaluate-case118 inputs. It puts γ at
/// about 0.03–0.05 rad, inside the detection transition, so every
/// input's mean detection probability is strictly between 0 and 1.
pub const EVALUATE_STEP: (f64, f64) = (0.05, 0.08);

/// Input `index` of the evaluate workload: a perturbation of `x_pre`.
pub fn evaluate_input(seed: u64, index: u64, net: &Network, x_pre: &[f64]) -> Vec<f64> {
    let (lo, hi) = EVALUATE_STEP;
    perturbation(net, x_pre, lo, hi, &mut rng(seed, EVALUATE, index))
}

/// `MtdConfig::seed` of each serve session key. Fixed, not seeded: the
/// request tail sits among the selections of the slower key, so seeded
/// keys moved the tail with the run seed.
pub const SERVE_KEY_SEEDS: [u64; 2] = [1, 2];

/// Share of serve requests that are selections; the rest are
/// evaluations. At 1 in 5 the median request is an evaluation and the
/// tail (10 samples beyond) lies among the selections.
pub const SERVE_SELECT_SHARE: f64 = 0.2;

/// Relative D-FACTS step of the serve workload's evaluations (case57).
pub const SERVE_STEP: (f64, f64) = (0.2, 0.35);

/// One request of the serve workload.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeInput {
    /// `select` at γ_th = [`crate::workloads::GAMMA_TH`].
    Select {
        /// Session key index.
        key: usize,
    },
    /// `evaluate` of a perturbation of the nominal reactances.
    Evaluate {
        /// Session key index.
        key: usize,
        /// Post-perturbation reactances.
        x_post: Vec<f64>,
    },
}

impl ServeInput {
    /// The session key index the request goes to.
    pub fn key(&self) -> usize {
        match self {
            ServeInput::Select { key } | ServeInput::Evaluate { key, .. } => *key,
        }
    }
}

/// Request `index` of serve client `client`.
pub fn serve_input(seed: u64, client: usize, index: u64, net: &Network) -> ServeInput {
    let mut r = rng(seed, SERVE, ((client as u64) << 32) | index);
    let key = r.gen_range(0..SERVE_KEY_SEEDS.len());
    if r.gen_bool(SERVE_SELECT_SHARE) {
        ServeInput::Select { key }
    } else {
        let (lo, hi) = SERVE_STEP;
        ServeInput::Evaluate {
            key,
            x_post: perturbation(net, &net.nominal_reactances(), lo, hi, &mut r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmtd_powergrid::cases;

    #[test]
    fn evaluate_inputs_repeat_per_seed_and_differ_across_seeds() {
        let net = cases::case14();
        let x = net.nominal_reactances();
        assert_eq!(
            evaluate_input(7, 3, &net, &x),
            evaluate_input(7, 3, &net, &x)
        );
        assert_ne!(
            evaluate_input(7, 3, &net, &x),
            evaluate_input(8, 3, &net, &x)
        );
        assert_ne!(
            evaluate_input(7, 3, &net, &x),
            evaluate_input(7, 4, &net, &x)
        );
        // Only D-FACTS lines move, by a step inside the configured band.
        let p = evaluate_input(7, 3, &net, &x);
        let dfacts = net.dfacts_branches();
        for (l, (&a, &b)) in x.iter().zip(&p).enumerate() {
            if dfacts.contains(&l) {
                let step = (b / a - 1.0).abs();
                assert!(step >= EVALUATE_STEP.0 - 1e-12 && step < EVALUATE_STEP.1);
            } else {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn serve_inputs_and_config_seeds_repeat_per_seed_and_differ_across_seeds() {
        let net = cases::case14();
        let draw = |seed: u64, client: usize| -> Vec<ServeInput> {
            (0..200)
                .map(|i| serve_input(seed, client, i, &net))
                .collect()
        };
        let a = draw(5, 0);
        assert_eq!(a, draw(5, 0));
        assert_ne!(a, draw(6, 0));
        assert_ne!(a, draw(5, 1));
        let selects = a
            .iter()
            .filter(|r| matches!(r, ServeInput::Select { .. }))
            .count();
        assert!((20..=60).contains(&selects), "{selects} selects in 200");
        assert!(a.iter().any(|r| r.key() == 0) && a.iter().any(|r| r.key() == 1));
        assert_ne!(config_seed(5, 0), config_seed(5, 1));
        assert_ne!(config_seed(5, 0), config_seed(6, 0));
        assert!(config_seed(u64::MAX, 1) < 1 << 31);
    }

    #[test]
    fn select_config_seeds_rotate_one_fixed_pool() {
        let pool =
            |seed: u64| -> Vec<u64> { (0..7).map(|k| select_config_seed(seed, k, 7)).collect() };
        let (a, b) = (pool(1), pool(2));
        assert_eq!(a, pool(1));
        assert_eq!(a, pool(8));
        assert_ne!(a, b);
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        sa.dedup();
        assert_eq!(sa.len(), 7);
        assert_eq!(sa, sb);
    }
}
