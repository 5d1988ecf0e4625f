//! Property-based tests (proptest) on the core invariants of the system:
//! GEMM algebra, checksum identities, packing round-trips, corrector
//! guarantees, and partitioning.

use ftgemm::abft::checksum;
use ftgemm::abft::corrector::{correct_block, find_discrepancies, CorrectionOutcome};
use ftgemm::abft::{ft_gemm_with_ctx, gemm, FtConfig, Workspace};
use ftgemm::core::reference::naive_gemm;
use ftgemm::core::{pack, Matrix};
use ftgemm::pool::partition_aligned;
use proptest::prelude::*;

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..48
}

fn mat(m: usize, n: usize, seed: u64) -> Matrix<f64> {
    Matrix::random(m, n, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// gemm matches the naive oracle on arbitrary small shapes/scalars.
    #[test]
    fn gemm_matches_oracle(
        m in small_dim(), n in small_dim(), k in small_dim(),
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0, seed in 0u64..1000
    ) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed + 1);
        let mut c = mat(m, n, seed + 2);
        let mut c_ref = c.clone();
        let mut ctx = Workspace::<f64>::new();
        gemm(&mut ctx, alpha, &a.as_ref(), &b.as_ref(), beta, &mut c.as_mut()).unwrap();
        naive_gemm(alpha, &a.as_ref(), &b.as_ref(), beta, &mut c_ref.as_mut());
        prop_assert!(c.rel_max_diff(&c_ref) < 1e-10);
    }

    /// GEMM is linear in A: (A1 + A2)B = A1*B + A2*B.
    #[test]
    fn gemm_linearity(
        m in small_dim(), n in small_dim(), k in small_dim(), seed in 0u64..1000
    ) {
        let a1 = mat(m, k, seed);
        let a2 = mat(m, k, seed + 7);
        let b = mat(k, n, seed + 13);
        let a_sum = Matrix::from_fn(m, k, |i, j| a1.get(i, j) + a2.get(i, j));

        let mut ctx = Workspace::<f64>::new();
        let mut c_sum = Matrix::<f64>::zeros(m, n);
        gemm(&mut ctx, 1.0, &a_sum.as_ref(), &b.as_ref(), 0.0, &mut c_sum.as_mut()).unwrap();

        let mut c_parts = Matrix::<f64>::zeros(m, n);
        gemm(&mut ctx, 1.0, &a1.as_ref(), &b.as_ref(), 0.0, &mut c_parts.as_mut()).unwrap();
        gemm(&mut ctx, 1.0, &a2.as_ref(), &b.as_ref(), 1.0, &mut c_parts.as_mut()).unwrap();

        prop_assert!(c_sum.rel_max_diff(&c_parts) < 1e-10);
    }

    /// The checksum identity: col_sums(A*B) == (e^T A) * B applied via the
    /// fused packing encoders.
    #[test]
    fn checksum_identity_holds(
        m in small_dim(), n in small_dim(), k in small_dim(), seed in 0u64..1000
    ) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed + 3);
        let mut c = Matrix::<f64>::zeros(m, n);
        let mut ctx = Workspace::<f64>::new();
        gemm(&mut ctx, 1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut()).unwrap();

        // encoded prediction
        let mut ar = vec![0.0; k];
        pack::col_sums_scaled(&a.as_ref(), 1.0, &mut ar);
        let mut enc_col = vec![0.0; n];
        checksum::accumulate_enc_col(&b.as_ref(), &ar, &mut enc_col);

        // reference read-back
        let mut ref_row = vec![0.0; m];
        let mut ref_col = vec![0.0; n];
        checksum::encode_c(&c.as_ref(), &mut ref_row, &mut ref_col);

        let scale = 1.0 + k as f64 * m as f64;
        for j in 0..n {
            prop_assert!((enc_col[j] - ref_col[j]).abs() < 1e-12 * scale,
                "col {j}: {} vs {}", enc_col[j], ref_col[j]);
        }
    }

    /// Packing A then reading the packed panels back reproduces alpha*A.
    #[test]
    fn pack_a_round_trip(
        m in 1usize..40, k in 1usize..20, alpha in -2.0f64..2.0, seed in 0u64..1000
    ) {
        let mr = 8;
        let a = mat(m, k, seed);
        let mut out = vec![0.0; m.div_ceil(mr) * mr * k];
        pack::pack_a(&a.as_ref(), alpha, mr, &mut out);
        for i in 0..m {
            for q in 0..k {
                let p = i / mr;
                let v = out[p * mr * k + q * mr + (i % mr)];
                prop_assert!((v - alpha * a.get(i, q)).abs() < 1e-15);
            }
        }
    }

    /// Packing B round-trip.
    #[test]
    fn pack_b_round_trip(
        k in 1usize..20, n in 1usize..40, seed in 0u64..1000
    ) {
        let nr = 4;
        let b = mat(k, n, seed);
        let mut out = vec![0.0; n.div_ceil(nr) * nr * k];
        pack::pack_b(&b.as_ref(), nr, &mut out);
        for p in 0..k {
            for j in 0..n {
                let q = j / nr;
                let v = out[q * nr * k + p * nr + (j % nr)];
                prop_assert!((v - b.get(p, j)).abs() < 1e-15);
            }
        }
    }

    /// Any single injected error (any position, wide magnitude range) is
    /// located and corrected exactly by the checksum corrector.
    #[test]
    fn corrector_fixes_any_single_error(
        m in 2usize..32, n in 2usize..32,
        i in 0usize..32, j in 0usize..32,
        mag in prop::sample::select(vec![1e-3, 1.0, 1e3, 1e9]),
        positive in any::<bool>(),
        seed in 0u64..1000
    ) {
        let i = i % m;
        let j = j % n;
        let clean = mat(m, n, seed);
        let sums = |c: &Matrix<f64>| {
            let mut row = vec![0.0; m];
            let mut col = vec![0.0; n];
            for jj in 0..n { for ii in 0..m {
                row[ii] += c.get(ii, jj);
                col[jj] += c.get(ii, jj);
            }}
            (row, col)
        };
        let (enc_row, enc_col) = sums(&clean);
        let mut dirty = clean.clone();
        let delta = if positive { mag } else { -mag };
        dirty.set(i, j, dirty.get(i, j) + delta);
        let (ref_row, ref_col) = sums(&dirty);

        let th = 1e-4 * mag.min(1.0); // below the injected magnitude
        let rd = find_discrepancies(&enc_row, &ref_row, th);
        let cd = find_discrepancies(&enc_col, &ref_col, th);
        let out = correct_block(&mut dirty.as_mut(), &rd, &cd, th);
        prop_assert!(matches!(out, CorrectionOutcome::Corrected { count: 1 }), "{out:?}");
        prop_assert!(clean.max_abs_diff(&dirty) < 1e-9 * mag.max(1.0));
    }

    /// FT-GEMM with a default config never reports false positives and
    /// matches the oracle, for arbitrary shapes.
    #[test]
    fn ft_gemm_no_false_positives(
        m in small_dim(), n in small_dim(), k in small_dim(), seed in 0u64..500
    ) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed + 1);
        let mut c = mat(m, n, seed + 2);
        let mut c_ref = c.clone();
        let rep = ft_gemm_with_ctx(&mut Workspace::new(), &FtConfig::default(), 1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c.as_mut()).unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
        prop_assert_eq!(rep.detected, 0);
        prop_assert!(c.rel_max_diff(&c_ref) < 1e-10);
    }

    /// partition_aligned always tiles [0, len) exactly, in order, aligned.
    #[test]
    fn partition_tiles_exactly(
        len in 0usize..10_000, parts in 1usize..64, align in 1usize..64
    ) {
        let mut cursor = 0;
        for p in 0..parts {
            let r = partition_aligned(len, parts, p, align);
            prop_assert_eq!(r.start, cursor);
            prop_assert!(r.start == len || r.start % align == 0);
            cursor = r.end;
        }
        prop_assert_eq!(cursor, len);
    }

    /// scale_encode_c is exactly equivalent to scale-then-encode.
    #[test]
    fn fused_c_encode_equivalence(
        m in 1usize..40, n in 1usize..40, beta in -2.0f64..2.0, seed in 0u64..1000
    ) {
        let base = mat(m, n, seed);
        let mut c1 = base.clone();
        let mut c2 = base.clone();
        let (mut er1, mut ec1) = (vec![0.0; m], vec![0.0; n]);
        let (mut er2, mut ec2) = (vec![0.0; m], vec![0.0; n]);
        checksum::scale_encode_c(&mut c1.as_mut(), beta, &mut er1, &mut ec1, None);
        checksum::scale_then_encode_c(&mut c2.as_mut(), beta, &mut er2, &mut ec2, None);
        prop_assert_eq!(c1.as_slice(), c2.as_slice());
        for i in 0..m { prop_assert!((er1[i] - er2[i]).abs() < 1e-10); }
        for j in 0..n { prop_assert!((ec1[j] - ec2[j]).abs() < 1e-10); }
    }
}
