//! The recurrence walk of `NoncentralChiSquared::{sf, cdf}` against the
//! term-by-term Poisson mixture it replaced, over a grid of degrees of
//! freedom, noncentralities and evaluation points from 3 standard
//! deviations below the mean to 30 above it.

mod per_term;

use gridmtd_stats::chi2::NoncentralChiSquared;

const DOFS: [f64; 9] = [1.0, 2.0, 5.0, 13.0, 41.0, 161.0, 371.0, 1000.0, 2997.0];
const LAMBDAS: [f64; 8] = [1e-3, 0.1, 1.0, 10.0, 50.0, 180.0, 1000.0, 5000.0];

/// Absolute tolerance everywhere.
const ABS_TOL: f64 = 1e-11;
/// Relative tolerance wherever the reference is at least `REL_FLOOR`.
const REL_TOL: f64 = 1e-10;
const REL_FLOOR: f64 = 1e-280;

/// Worst absolute and relative deviations over the grid, with the point
/// each occurred at.
#[derive(Default)]
struct Worst {
    abs: (f64, String),
    rel: (f64, String),
}

impl Worst {
    fn record(&mut self, got: f64, want: f64, at: &str) {
        let abs = (got - want).abs();
        if abs.is_nan() || abs > self.abs.0 {
            self.abs = (abs, at.to_string());
        }
        if want >= REL_FLOOR {
            let rel = abs / want;
            if rel.is_nan() || rel > self.rel.0 {
                self.rel = (rel, at.to_string());
            }
        }
    }

    fn check(&self, what: &str) {
        assert!(
            self.abs.0 <= ABS_TOL,
            "{what}: absolute deviation {:e} at {}",
            self.abs.0,
            self.abs.1
        );
        assert!(
            self.rel.0 <= REL_TOL,
            "{what}: relative deviation {:e} at {}",
            self.rel.0,
            self.rel.1
        );
    }
}

/// Visits every grid point `(k, λ, x)` with `x = mean + s·sd/2`,
/// `s ∈ −6..=60`.
fn for_each_point(mut f: impl FnMut(f64, f64, f64)) {
    for &k in &DOFS {
        for &lambda in &LAMBDAS {
            let d = NoncentralChiSquared::new(k, lambda);
            let sd = d.variance().sqrt();
            for s in -6..=60 {
                f(k, lambda, d.mean() + f64::from(s) * sd / 2.0);
            }
        }
    }
}

#[test]
fn sf_matches_the_per_term_mixture() {
    let mut worst = Worst::default();
    for_each_point(|k, lambda, x| {
        let got = NoncentralChiSquared::new(k, lambda).sf(x);
        worst.record(
            got,
            per_term::sf(k, lambda, x),
            &format!("k={k} λ={lambda} x={x}"),
        );
    });
    worst.check("sf");
}

#[test]
fn cdf_matches_the_per_term_mixture() {
    let mut worst = Worst::default();
    for_each_point(|k, lambda, x| {
        let got = NoncentralChiSquared::new(k, lambda).cdf(x);
        worst.record(
            got,
            per_term::cdf(k, lambda, x),
            &format!("k={k} λ={lambda} x={x}"),
        );
    });
    worst.check("cdf");
}

#[test]
fn sf_and_cdf_are_complementary_on_the_grid() {
    for_each_point(|k, lambda, x| {
        let d = NoncentralChiSquared::new(k, lambda);
        let sum = d.sf(x) + d.cdf(x);
        assert!(
            (sum - 1.0).abs() < 1e-10,
            "k={k} λ={lambda} x={x}: sf + cdf = {sum}"
        );
    });
}

/// Far upper-tail points where a walk that stops on the Poisson weights
/// alone dropped terms that still carry most of a tiny survival
/// probability (up to 5.9e-4 relative).
#[test]
fn far_upper_tail_keeps_relative_precision() {
    for (k, lambda, sds) in [(1.0, 1.0, 30.0), (13.0, 10.0, 30.0), (1.0, 10.0, 15.0)] {
        let d = NoncentralChiSquared::new(k, lambda);
        let x = d.mean() + sds * d.variance().sqrt();
        let (got, want) = (d.sf(x), per_term::sf(k, lambda, x));
        assert!(want > 0.0, "k={k} λ={lambda} x={x}: reference underflowed");
        let rel = (got - want).abs() / want;
        assert!(
            rel <= 1e-10,
            "k={k} λ={lambda} x={x}: sf {got:e} vs {want:e} ({rel:e} relative)"
        );
    }
}

/// Points where the other tail is far below an ulp of one, so the tail
/// asked for is one to the nearest double. The first four are case57
/// attacks against its bad-data detector (161 degrees of freedom,
/// threshold 226.66), which a walk over `Q` itself had put up to 13
/// ulps below one; the last three are far upper-tail points, from the
/// CDF's side.
#[test]
fn a_vanishing_tail_complements_to_exactly_one() {
    const TAU: f64 = 226.664_227_829_290_38;
    for lambda in [400.0, 766.356_175_918_841_4, 1_200.0, 1_600.0] {
        let d = NoncentralChiSquared::new(161.0, lambda);
        let other = per_term::cdf(161.0, lambda, TAU);
        assert!(other < 1e-17, "λ={lambda}: cdf {other:e}");
        assert_eq!(d.sf(TAU), 1.0, "λ={lambda}");
    }
    for (k, lambda, sds) in [
        (13.0, 10.0, 60.0),
        (161.0, 400.0, 20.0),
        (161.0, 1_200.0, 20.0),
    ] {
        let d = NoncentralChiSquared::new(k, lambda);
        let x = d.mean() + sds * d.variance().sqrt();
        let other = per_term::sf(k, lambda, x);
        assert!(other < 1e-17, "k={k} λ={lambda}: sf {other:e}");
        assert_eq!(d.cdf(x), 1.0, "k={k} λ={lambda} x={x}");
    }
}
