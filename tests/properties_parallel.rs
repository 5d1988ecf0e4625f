//! Property-based tests for the parallel drivers and the pool substrate:
//! arbitrary shapes and thread counts must agree with the serial oracle,
//! and fault-injection campaigns must preserve correctness.

use ftgemm::abft::nest::Shared;
use ftgemm::abft::FtConfig;
use ftgemm::core::reference::naive_gemm;
use ftgemm::core::Matrix;
use ftgemm::faults::{ErrorModel, FaultInjector, Rate};
use ftgemm::parallel::{run_parallel, ParFtWorkspace, ParGemmContext};
use ftgemm::pool::ThreadPool;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel GEMM equals the naive oracle for arbitrary shapes and
    /// thread counts (including more threads than rows).
    #[test]
    fn par_gemm_matches_oracle(
        m in 1usize..96, n in 1usize..96, k in 1usize..64,
        threads in 1usize..7, seed in 0u64..500
    ) {
        let ctx = ParGemmContext::<f64>::with_threads(threads);
        let a = Matrix::<f64>::random(m, k, seed);
        let b = Matrix::<f64>::random(k, n, seed + 1);
        let mut c = Matrix::<f64>::random(m, n, seed + 2);
        let mut c_ref = c.clone();
        run_parallel(&ctx, &mut ParFtWorkspace::for_plain(&ctx), None, 1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c.as_mut()).unwrap();
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut c_ref.as_mut());
        prop_assert!(c.rel_max_diff(&c_ref) < 1e-10);
    }

    /// Parallel FT-GEMM under injection still produces the clean result.
    #[test]
    fn par_ft_gemm_corrects_under_injection(
        m in 32usize..128, n in 32usize..128, k in 16usize..96,
        threads in 2usize..6, errors in 1usize..4, seed in 0u64..300
    ) {
        let ctx = ParGemmContext::<f64>::with_threads(threads);
        let a = Matrix::<f64>::random(m, k, seed);
        let b = Matrix::<f64>::random(k, n, seed + 1);
        let mut truth = Matrix::<f64>::zeros(m, n);
        naive_gemm(1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut truth.as_mut());

        let inj = FaultInjector::new(seed, ErrorModel::Additive { magnitude: 1e6 }, Rate::Count(errors));
        let cfg = FtConfig::with_injector(inj);
        let mut c = Matrix::<f64>::zeros(m, n);
        match run_parallel(&ctx, &mut ParFtWorkspace::for_plain(&ctx), Some(&cfg), 1.0, &a.as_ref(), &b.as_ref(), 0.0, &mut c.as_mut()) {
            Ok(rep) => {
                prop_assert!(
                    truth.rel_max_diff(&c) < 1e-9,
                    "diff {} rep {rep:?}", truth.rel_max_diff(&c)
                );
                prop_assert_eq!(rep.corrected, rep.injected);
            }
            // Colliding patterns are flagged, never silent — acceptable.
            Err(_) => {}
        }
    }

    /// Pool partition + barrier: every element of a shared vector is
    /// written exactly once regardless of geometry.
    #[test]
    fn pool_partition_covers_all(
        len in 0usize..2048, threads in 1usize..9, align in 1usize..32
    ) {
        let pool = ThreadPool::new(threads);
        let counter = AtomicUsize::new(0);
        pool.run(|w| {
            let r = w.partition(len, align);
            counter.fetch_add(r.len(), Ordering::Relaxed);
            w.barrier();
        });
        prop_assert_eq!(counter.load(Ordering::Relaxed), len);
    }

    /// The nest's lane reduction (the paper's cross-thread reduction of the
    /// `B_c` checksum) equals a serial sum for arbitrary lane counts.
    #[test]
    fn sharded_reduce_matches_serial(
        lanes in 1usize..9, len in 0usize..256, seed in 0u64..100
    ) {
        let mut data = vec![0.0; lanes * len];
        let buf = Shared::new(&mut data);
        let mut expected = vec![0.0; len];
        for t in 0..lanes {
            // SAFETY: sequential exclusive access in the test.
            let lane = unsafe { buf.lane_mut(t, lanes) };
            for (i, v) in lane.iter_mut().enumerate() {
                *v = ((seed as usize + t * 31 + i * 7) % 23) as f64 - 11.0;
                expected[i] += *v;
            }
        }
        let mut out = vec![0.0; len];
        // SAFETY: no lane borrow is live.
        unsafe { buf.reduce_lanes(lanes, &mut out) };
        for i in 0..len {
            prop_assert!((out[i] - expected[i]).abs() < 1e-12);
        }
    }
}
