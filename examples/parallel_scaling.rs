//! Thread-scaling study: parallel FT-GEMM throughput and FT overhead as the
//! worker count grows (the paper's cache-friendly parallel design, §2.3).
//!
//! ```sh
//! cargo run --release --example parallel_scaling
//! ```

use ftgemm::abft::FtConfig;
use ftgemm::core::Matrix;
use ftgemm::parallel::{par_ft_gemm_with_ws, par_gemm_with_ws, ParGemmContext};
use ftgemm::Workspace;
use std::time::Instant;

fn time(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let reps = 3;
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let n = 1024;
    let a = Matrix::<f64>::random(n, n, 21);
    let b = Matrix::<f64>::random(n, n, 22);
    let flops = 2.0 * (n as f64).powi(3);
    let max_threads = ftgemm::core::cpu::num_cpus();

    println!("parallel (FT-)DGEMM scaling at {n}^3 (up to {max_threads} threads)\n");
    println!("threads |   Ori GFLOPS |    FT GFLOPS | FT overhead");
    println!("--------+--------------+--------------+------------");

    let mut t = 1;
    let mut base = None;
    while t <= max_threads {
        let ctx = ParGemmContext::<f64>::with_threads(t);
        let cfg = FtConfig::default();
        // Requested once per thread count and reused by every call below.
        let mut ws = Workspace::for_problem(&ctx, n, n, n);

        let mut c = Matrix::<f64>::zeros(n, n);
        let t_ori = time(|| {
            par_gemm_with_ws(
                &ctx,
                &mut ws,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
        });
        let t_ft = time(|| {
            par_ft_gemm_with_ws(
                &ctx,
                &mut ws,
                &cfg,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
        });

        let g_ori = flops / t_ori / 1e9;
        let g_ft = flops / t_ft / 1e9;
        base.get_or_insert(g_ori);
        println!(
            "{t:7} | {g_ori:12.2} | {g_ft:12.2} | {:+10.2}%",
            (t_ft / t_ori - 1.0) * 100.0
        );
        t *= 2;
    }
    println!(
        "\n(speedup of Ori at max threads vs 1 thread is visible in the first column;\n\
         the last column is the paper's parallel FT overhead, ~1.8% at scale)"
    );
}
