//! Experiments T1/T2: fault-tolerance overhead.
//!
//! * T1 (paper §2.2): fused vs unfused ABFT — "the FT overhead becomes
//!   purely computational, decreasing from about 15% to 2.94%".
//! * T2 (paper §3.1): serial FT overhead 1.17%–3.58% (avg); parallel 1.79%.
//!
//! Reports, per size: Ori GFLOPS, fused-FT / unfused-FT overhead % (serial
//! and parallel).
//!
//! Usage: `cargo run -p ftgemm-bench --release --bin overhead_table`

use ftgemm_abft::{ft_gemm_with_ctx, FtConfig, FtGemmContext};
use ftgemm_bench::{measure, Args, Table};
use ftgemm_core::{gemm, GemmContext, Matrix};
use ftgemm_parallel::{par_ft_gemm_with_ws, par_gemm_with_ws, ParFtWorkspace, ParGemmContext};

fn main() {
    let args = Args::parse();
    let sizes = args.serial_sizes();

    let mut table = Table::new(
        "T1/T2 — ABFT overhead vs 'FT-GEMM: Ori' (paper: fused 1.2-3.6% serial / 1.8% parallel; unfused ~15%)",
        &[
            "size",
            "serial Ori GF",
            "serial fused ovh",
            "serial unfused ovh",
            "par Ori GF",
            "par fused ovh",
            "par unfused ovh",
        ],
    );

    let mut ori_ctx = GemmContext::<f64>::new();
    let mut ft_ctx = FtGemmContext::<f64>::new();
    let mut unf_ctx = FtGemmContext::<f64>::new();
    let par_ctx = ParGemmContext::<f64>::with_threads(args.threads);
    let fused = FtConfig::default();
    let unfused = FtConfig::unfused();

    let mut serial_fused_ovh = Vec::new();
    let mut serial_unfused_ovh = Vec::new();
    let mut par_fused_ovh = Vec::new();

    for &s in &sizes {
        let a = Matrix::<f64>::random(s, s, 1);
        let b = Matrix::<f64>::random(s, s, 2);
        let mut c = Matrix::<f64>::zeros(s, s);
        let mut par_ws = ParFtWorkspace::for_problem(&par_ctx, s, s, s);

        let t_ori = measure(args.warmup, args.reps, || {
            gemm(
                &mut ori_ctx,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
        });
        let t_ft = measure(args.warmup, args.reps, || {
            ft_gemm_with_ctx(
                &mut ft_ctx,
                &fused,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
        });
        let t_unf = measure(args.warmup, args.reps, || {
            ft_gemm_with_ctx(
                &mut unf_ctx,
                &unfused,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
        });
        let t_par_ori = measure(args.warmup, args.reps, || {
            par_gemm_with_ws(
                &par_ctx,
                &mut par_ws,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
        });
        let t_par_ft = measure(args.warmup, args.reps, || {
            par_ft_gemm_with_ws(
                &par_ctx,
                &mut par_ws,
                &fused,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
        });
        let t_par_unf = measure(args.warmup, args.reps, || {
            par_ft_gemm_with_ws(
                &par_ctx,
                &mut par_ws,
                &unfused,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut c.as_mut(),
            )
            .unwrap();
        });

        // Min-of-reps: the noise-robust estimator for compute-bound kernels
        // on shared machines (scheduler interference only ever adds time).
        let ovh = |ft: f64, ori: f64| (ft / ori - 1.0) * 100.0;
        let so = ovh(t_ft.min, t_ori.min);
        let su = ovh(t_unf.min, t_ori.min);
        let po = ovh(t_par_ft.min, t_par_ori.min);
        let pu = ovh(t_par_unf.min, t_par_ori.min);
        serial_fused_ovh.push(so);
        serial_unfused_ovh.push(su);
        par_fused_ovh.push(po);

        table.row(vec![
            s.to_string(),
            format!("{:.2}", t_ori.gflops(s, s, s)),
            format!("{so:+.2}%"),
            format!("{su:+.2}%"),
            format!("{:.2}", t_par_ori.gflops(s, s, s)),
            format!("{po:+.2}%"),
            format!("{pu:+.2}%"),
        ]);
        eprintln!("{s} done");
    }

    table.print();
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\naverages: serial fused {:+.2}% (paper 1.17-3.58%), serial unfused {:+.2}% (paper ~15%), parallel fused {:+.2}% (paper 1.79%)",
        avg(&serial_fused_ovh),
        avg(&serial_unfused_ovh),
        avg(&par_fused_ovh)
    );
    match table.write_csv(&args.out_dir, "overhead_table") {
        Ok(p) => println!("CSV written to {}", p.display()),
        Err(e) => eprintln!("CSV write failed: {e}"),
    }
}
