//! Plan-once / execute-many: what holding a `GemmPlan` buys over building
//! a fresh `FtGemmContext` (packing scratch, checksum workspaces) for every
//! call in a loop, at a serving-sized problem.
//!
//! ```sh
//! cargo run --release --example plan_reuse
//! ```

use ftgemm::abft::{ft_gemm_with_ctx, FtGemmContext};
use ftgemm::{Exec, FtConfig, FtPolicy, GemmOp, Matrix, ParGemmContext};
use std::time::Instant;

const ROUNDS: usize = 200;

fn main() {
    let n = 256;
    let a = Matrix::<f64>::random(n, n, 1);
    let b = Matrix::<f64>::random(n, n, 2);
    let cfg = FtConfig::default();

    // Baseline: every call builds a fresh FtGemmContext (packing scratch +
    // checksum vectors) and drops it.
    let mut c1 = Matrix::<f64>::zeros(n, n);
    let fresh_call = |c: &mut Matrix<f64>| {
        let mut ctx = FtGemmContext::<f64>::new();
        ft_gemm_with_ctx(
            &mut ctx,
            &cfg,
            1.0,
            &a.as_ref(),
            &b.as_ref(),
            0.0,
            &mut c.as_mut(),
        )
        .unwrap();
    };
    fresh_call(&mut c1); // warm-up
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        fresh_call(&mut c1);
    }
    let fresh = t0.elapsed();

    // Planned: shapes validated and workspaces allocated exactly once;
    // every `run` reuses them (zero heap allocation per call).
    let mut c2 = Matrix::<f64>::zeros(n, n);
    let mut plan = GemmOp::new(&a, &b)
        .ft_config(cfg.clone())
        .plan(Exec::Serial)
        .unwrap();
    plan.run(&mut c2.as_mut()).unwrap(); // warm-up
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        plan.run(&mut c2.as_mut()).unwrap();
    }
    let planned = t0.elapsed();

    assert_eq!(
        c1.as_slice(),
        c2.as_slice(),
        "plan and one-shot must agree bit-for-bit"
    );

    let per_fresh = fresh.as_secs_f64() / ROUNDS as f64 * 1e3;
    let per_planned = planned.as_secs_f64() / ROUNDS as f64 * 1e3;
    println!("serial FT-GEMM {n}x{n}x{n}, {ROUNDS} rounds:");
    println!("  fresh FtGemmContext   : {per_fresh:8.3} ms/call");
    println!("  reused GemmPlan       : {per_planned:8.3} ms/call");
    println!("  speedup               : {:8.2}x", per_fresh / per_planned);

    // The same plan shape works parallel: only the Exec target changes.
    let ctx = ParGemmContext::<f64>::new();
    let mut c3 = Matrix::<f64>::zeros(n, n);
    let mut par_plan = GemmOp::new(&a, &b)
        .ft(FtPolicy::DetectCorrect)
        .plan(Exec::Parallel(&ctx))
        .unwrap();
    par_plan.run(&mut c3.as_mut()).unwrap(); // warm-up
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        par_plan.run(&mut c3.as_mut()).unwrap();
    }
    let par = t0.elapsed().as_secs_f64() / ROUNDS as f64 * 1e3;
    println!(
        "  parallel plan ({} threads): {par:8.3} ms/call (workspace pinned at {:#x})",
        ctx.nthreads(),
        par_plan.workspace_addr().unwrap()
    );
}
