//! Regression fence for the sparse factorization NaN/zero-pivot audit:
//! poisoned input must be rejected with a typed error at the
//! factorization boundary, never baked into factors that launder NaN
//! into later solves (where it would surface far from the cause, e.g.
//! as a NaN detection probability at the end of the MTD pipeline).

use std::sync::Arc;

use gridmtd_linalg::sparse::{SparseCholesky, SparseMatrix, SymbolicCholesky};
use gridmtd_linalg::{LinalgError, Lu};

fn spd_triplets(poison: Option<(usize, usize, f64)>) -> SparseMatrix {
    let mut t = vec![
        (0, 0, 4.0),
        (0, 1, 1.0),
        (1, 0, 1.0),
        (1, 1, 3.0),
        (1, 2, 0.5),
        (2, 1, 0.5),
        (2, 2, 5.0),
    ];
    if let Some((i, j, v)) = poison {
        for entry in &mut t {
            if entry.0 == i && entry.1 == j {
                entry.2 = v;
            }
        }
    }
    SparseMatrix::from_triplets(3, 3, &t).unwrap()
}

#[test]
fn sparse_cholesky_rejects_nan_with_a_typed_error() {
    let a = spd_triplets(Some((1, 1, f64::NAN)));
    let sym = Arc::new(SymbolicCholesky::analyze(&a).unwrap());
    match SparseCholesky::factor(sym, &a) {
        Err(LinalgError::NotPositiveDefinite | LinalgError::NonFinite { .. }) => {}
        other => panic!("NaN pivot must be rejected, got {other:?}"),
    }
}

#[test]
fn clean_matrices_still_factor_and_solve_finite() {
    let a = spd_triplets(None);
    let rhs = vec![1.0, -2.0, 0.5];

    let x = Lu::factor(&a.to_dense()).unwrap().solve(&rhs).unwrap();
    assert!(x.iter().all(|v| v.is_finite()));

    let sym = Arc::new(SymbolicCholesky::analyze(&a).unwrap());
    let chol = SparseCholesky::factor(sym, &a).unwrap();
    let y = chol.solve(&rhs).unwrap();
    assert!(y.iter().all(|v| v.is_finite()));
    // The sparse factorization agrees with the dense LU on the same SPD
    // system.
    for (xa, ya) in x.iter().zip(&y) {
        assert!((xa - ya).abs() < 1e-12, "{xa} vs {ya}");
    }
}
