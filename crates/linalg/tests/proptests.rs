//! Property-based tests for the dense linear-algebra kernels.

use gridmtd_linalg::{sparse, subspace, vector, Cholesky, Lu, Matrix, Qr, Svd};
use proptest::prelude::*;
use std::f64::consts::FRAC_PI_2;
use std::sync::Arc;

/// Strategy: a `rows × cols` matrix with ~60 % structural zeros.
fn sparse_pattern_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec((-5.0..5.0f64, 0.0..1.0f64), rows * cols).prop_map(move |cells| {
        let data = cells
            .into_iter()
            .map(|(v, keep)| if keep < 0.4 { v } else { 0.0 })
            .collect();
        Matrix::from_vec(rows, cols, data).expect("sized buffer")
    })
}

/// Strategy: a sparse SPD matrix — sparse AᵀA plus a diagonal shift.
fn sparse_spd_strategy(n: usize) -> impl Strategy<Value = sparse::SparseMatrix> {
    sparse_pattern_strategy(n + 2, n).prop_map(move |a| {
        let g = &a.gram() + &Matrix::identity(n);
        sparse::SparseMatrix::from_dense(&g)
    })
}

/// Strategy: a well-scaled `rows × cols` matrix with entries in [-5, 5].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0..5.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized buffer"))
}

/// Strategy: a diagonally-dominant (hence invertible) n × n matrix.
fn invertible_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n, n).prop_map(move |mut m| {
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| m[(i, j)].abs()).sum();
            m[(i, j_idx(i))] = row_sum + 1.0;
        }
        m
    })
}

fn j_idx(i: usize) -> usize {
    i
}

/// Strategy: an SPD matrix built as AᵀA + I.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(n + 2, n).prop_map(move |a| {
        let g = a.gram();
        &g + &Matrix::identity(n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_then_multiply_roundtrips(a in invertible_strategy(5),
                                         b in proptest::collection::vec(-10.0..10.0f64, 5)) {
        let lu = Lu::factor(&a).expect("diagonally dominant is invertible");
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        prop_assert!(vector::approx_eq(&back, &b, 1e-6));
    }

    #[test]
    fn lu_det_matches_inverse_det_reciprocal(a in invertible_strategy(4)) {
        let lu = Lu::factor(&a).unwrap();
        let inv = lu.inverse().unwrap();
        let lu_inv = Lu::factor(&inv).unwrap();
        prop_assert!((lu.det() * lu_inv.det() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cholesky_solve_agrees_with_lu(a in spd_strategy(4),
                                     b in proptest::collection::vec(-10.0..10.0f64, 4)) {
        let x_c = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let x_l = Lu::factor(&a).unwrap().solve(&b).unwrap();
        prop_assert!(vector::approx_eq(&x_c, &x_l, 1e-6));
    }

    #[test]
    fn cholesky_reconstructs_spd(a in spd_strategy(5)) {
        // Round-trip fencing for the WLS normal equations: L·Lᵀ must
        // reproduce the SPD input to near machine precision.
        let l = Cholesky::factor(&a).unwrap().l();
        let back = l.matmul(&l.transpose()).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-8));
    }

    #[test]
    fn cholesky_inverse_roundtrips(a in spd_strategy(4)) {
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        let eye = a.matmul(&inv).unwrap();
        prop_assert!(eye.approx_eq(&Matrix::identity(4), 1e-8));
    }

    #[test]
    fn qr_reconstructs_and_q_is_orthonormal(a in matrix_strategy(7, 4)) {
        let qr = Qr::factor(&a).unwrap();
        let q = qr.q_thin();
        let r = qr.r();
        prop_assert!(q.matmul(&r).unwrap().approx_eq(&a, 1e-8));
        let qtq = q.transpose().matmul(&q).unwrap();
        prop_assert!(qtq.approx_eq(&Matrix::identity(4), 1e-8));
    }

    #[test]
    fn svd_reconstructs_input(a in matrix_strategy(6, 4)) {
        let svd = Svd::compute(&a).unwrap();
        let us = Matrix::from_fn(6, 4, |i, j| svd.u()[(i, j)] * svd.singular_values()[j]);
        let back = us.matmul(&svd.v().transpose()).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-8));
    }

    #[test]
    fn svd_factors_are_orthonormal(a in matrix_strategy(6, 4)) {
        let svd = Svd::compute(&a).unwrap();
        if svd.rank() == 4 {
            let u = svd.u();
            let utu = u.transpose().matmul(u).unwrap();
            prop_assert!(utu.approx_eq(&Matrix::identity(4), 1e-8));
            let v = svd.v();
            let vtv = v.transpose().matmul(v).unwrap();
            prop_assert!(vtv.approx_eq(&Matrix::identity(4), 1e-8));
        }
    }

    #[test]
    fn svd_reconstructs_spd(a in spd_strategy(5)) {
        // On SPD inputs the SVD coincides with the eigendecomposition;
        // U Σ Vᵀ must round-trip to < 1e-8 like the general case.
        let svd = Svd::compute(&a).unwrap();
        let us = Matrix::from_fn(5, 5, |i, j| svd.u()[(i, j)] * svd.singular_values()[j]);
        let back = us.matmul(&svd.v().transpose()).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-8));
    }

    #[test]
    fn svd_values_nonnegative_sorted(a in matrix_strategy(6, 3)) {
        let svd = Svd::compute(&a).unwrap();
        let s = svd.singular_values();
        prop_assert!(s.iter().all(|&v| v >= 0.0));
        prop_assert!(s.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn svd_frobenius_identity(a in matrix_strategy(5, 3)) {
        // ‖A‖_F² = Σ σᵢ²
        let svd = Svd::compute(&a).unwrap();
        let sum_sq: f64 = svd.singular_values().iter().map(|s| s * s).sum();
        prop_assert!((sum_sq - a.frobenius_norm().powi(2)).abs() < 1e-6 * (1.0 + sum_sq));
    }

    #[test]
    fn principal_angles_in_valid_range(a in matrix_strategy(8, 3), b in matrix_strategy(8, 3)) {
        // Guard against accidental rank deficiency (probability ~0 for
        // continuous entries, but be safe).
        if Svd::compute(&a).unwrap().rank() == 3 && Svd::compute(&b).unwrap().rank() == 3 {
            let angles = subspace::principal_angles(&a, &b).unwrap();
            prop_assert_eq!(angles.len(), 3);
            for &t in &angles {
                prop_assert!((-1e-12..=FRAC_PI_2 + 1e-12).contains(&t));
            }
            // symmetry
            let g1 = subspace::smallest_principal_angle(&a, &b).unwrap();
            let g2 = subspace::smallest_principal_angle(&b, &a).unwrap();
            prop_assert!((g1 - g2).abs() < 1e-8);
        }
    }

    #[test]
    fn angle_invariant_under_column_scaling(a in matrix_strategy(8, 3),
                                            b in matrix_strategy(8, 3),
                                            s in 0.1..10.0f64) {
        if Svd::compute(&a).unwrap().rank() == 3 && Svd::compute(&b).unwrap().rank() == 3 {
            let g1 = subspace::smallest_principal_angle(&a, &b).unwrap();
            let g2 = subspace::smallest_principal_angle(&a.scale(s), &b).unwrap();
            prop_assert!((g1 - g2).abs() < 1e-8);
        }
    }

    #[test]
    fn self_angle_is_zero(a in matrix_strategy(8, 3)) {
        if Svd::compute(&a).unwrap().rank() == 3 {
            let g = subspace::smallest_principal_angle(&a, &a).unwrap();
            prop_assert!(g.abs() < 1e-6);
        }
    }

    #[test]
    fn residual_projector_idempotent_and_annihilating(
        a in matrix_strategy(8, 3),
        w in proptest::collection::vec(0.1..10.0f64, 8),
    ) {
        if Svd::compute(&a).unwrap().rank() == 3 {
            let s = subspace::weighted_residual_projector(&a, &w).unwrap();
            prop_assert!(s.matmul(&s).unwrap().approx_eq(&s, 1e-7));
            for j in 0..3 {
                let r = s.matvec(&a.col(j)).unwrap();
                prop_assert!(vector::norm2(&r) < 1e-7);
            }
        }
    }

    #[test]
    fn matmul_is_associative(a in matrix_strategy(3, 4),
                             b in matrix_strategy(4, 2),
                             c in matrix_strategy(2, 5)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-8));
    }

    #[test]
    fn transpose_of_product_is_reversed_product(a in matrix_strategy(3, 4),
                                                b in matrix_strategy(4, 2)) {
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    // ---- sparse backend ------------------------------------------------

    #[test]
    fn sparse_round_trips_through_dense(a in sparse_pattern_strategy(6, 4)) {
        let sp = sparse::SparseMatrix::from_dense(&a);
        prop_assert!(sp.to_dense().approx_eq(&a, 0.0));
    }

    #[test]
    fn sparse_matvec_matches_dense(a in sparse_pattern_strategy(6, 4),
                                   x in proptest::collection::vec(-3.0..3.0f64, 4),
                                   y in proptest::collection::vec(-3.0..3.0f64, 6)) {
        let sp = sparse::SparseMatrix::from_dense(&a);
        prop_assert!(vector::approx_eq(&sp.matvec(&x).unwrap(),
                                       &a.matvec(&x).unwrap(), 1e-10));
        prop_assert!(vector::approx_eq(&sp.matvec_transposed(&y).unwrap(),
                                       &a.matvec_transposed(&y).unwrap(), 1e-10));
    }

    #[test]
    fn sparse_cholesky_agrees_with_dense(a in sparse_spd_strategy(7),
                                         b in proptest::collection::vec(-10.0..10.0f64, 7)) {
        let sym = Arc::new(sparse::SymbolicCholesky::analyze(&a).unwrap());
        let chol = sparse::SparseCholesky::factor(sym, &a).unwrap();
        let xs = chol.solve(&b).unwrap();
        let xd = Cholesky::factor(&a.to_dense()).unwrap().solve(&b).unwrap();
        prop_assert!(vector::approx_eq(&xs, &xd, 1e-6));
    }

    #[test]
    fn sparse_cholesky_refactor_matches_cold(a in sparse_spd_strategy(7),
                                             scales in proptest::collection::vec(0.5..2.0f64, 7)) {
        // Value-only rescaling (S A S with S diagonal positive keeps SPD
        // and the pattern): a warm refactor must equal a cold factor.
        let sym = Arc::new(sparse::SymbolicCholesky::analyze(&a).unwrap());
        let mut warm = sparse::SparseCholesky::factor(sym.clone(), &a).unwrap();
        let mut scaled = a.clone();
        {
            let (rows, ptrs) = (scaled.row_indices().to_vec(), scaled.col_ptrs().to_vec());
            let vals = scaled.values_mut();
            for j in 0..7 {
                for p in ptrs[j]..ptrs[j + 1] {
                    vals[p] *= scales[j] * scales[rows[p]];
                }
            }
        }
        warm.refactor(&scaled).unwrap();
        let cold = sparse::SparseCholesky::factor(sym, &scaled).unwrap();
        let b = vec![1.0; 7];
        let xw = warm.solve(&b).unwrap();
        let xc = cold.solve(&b).unwrap();
        for (w, c) in xw.iter().zip(xc.iter()) {
            prop_assert!((w - c).abs() <= 1e-10 * c.abs().max(1.0));
        }
    }
}
