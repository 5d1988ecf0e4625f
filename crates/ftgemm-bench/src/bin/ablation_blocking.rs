//! Ablation A2: blocking-parameter sensitivity (the design choices of paper
//! §2.1 — "the step sizes of these three for loops ... \[are\] determined by
//! the size of each layer of the cache"): GFLOPS over an (MC, KC) grid
//! around the cache-derived defaults, at the best ISA tier. The tiers
//! themselves are the repo benchmark's `core.ukr_f64_{avx2,portable}_eff`,
//! measured with a spread.
//!
//! Prints the grid as a console table and writes every point, one row each,
//! to `bench_results/ablation_blocking.csv`: `mc,kc,gflops,p50_us,p99_us`
//! (the median and p99 of the per-repetition times).
//!
//! Usage: `cargo run -p ftgemm-bench --release --bin ablation_blocking
//!         [--sizes N] [--reps N] [--smoke]`

use ftgemm_abft::gemm_with_params;
use ftgemm_bench::{gflops, Args, CsvWriter, Table};
use ftgemm_core::{BlockingParams, CacheInfo, IsaLevel, Matrix};
use ftgemm_obs::percentile;

fn main() -> std::io::Result<()> {
    let args = Args::parse();
    let s = args
        .sizes
        .as_ref()
        .and_then(|v| v.first().copied())
        .unwrap_or(if args.smoke { 96 } else { 768 });
    let a = Matrix::<f64>::random(s, s, 1);
    let b = Matrix::<f64>::random(s, s, 2);

    let isa = IsaLevel::detect();
    let kernel = ftgemm_core::select_kernel::<f64>(isa);
    let base = BlockingParams::derive::<f64>(&CacheInfo::detect(), kernel.mr, kernel.nr);
    let mc_grid: Vec<usize> = [base.mc / 4, base.mc / 2, base.mc, base.mc * 2]
        .iter()
        .map(|&v| v.max(kernel.mr) / kernel.mr * kernel.mr)
        .collect();
    let kc_grid: Vec<usize> = [base.kc / 4, base.kc / 2, base.kc, base.kc * 2]
        .iter()
        .map(|&v| v.max(1))
        .collect();

    let mut headers: Vec<String> = vec!["MC \\ KC".to_string()];
    headers.extend(kc_grid.iter().map(|k| k.to_string()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut grid_table = Table::new(
        &format!(
            "A2 — GFLOPS over (MC, KC) grid at {s}^3 (cache-derived default: MC={}, KC={})",
            base.mc, base.kc
        ),
        &headers_ref,
    );
    let mut csv = CsvWriter::create(&args.out_dir, "ablation_blocking")?;
    csv.row(&["mc", "kc", "gflops", "p50_us", "p99_us"])?;
    for &mc in &mc_grid {
        let mut row = vec![mc.to_string()];
        for &kc in &kc_grid {
            let params = base.with_blocks(mc, base.nc, kc);
            let mut c = Matrix::<f64>::zeros(s, s);
            let times = ftgemm_bench::measure_times(args.warmup, args.reps, || {
                gemm_with_params(
                    isa,
                    params,
                    1.0,
                    &a.as_ref(),
                    &b.as_ref(),
                    1.0,
                    &mut c.as_mut(),
                )
                .unwrap();
            });
            let avg = times.iter().sum::<f64>() / times.len() as f64;
            let gf = gflops(s, s, s, avg);
            row.push(format!("{gf:.2}"));
            csv.row(&[
                &mc.to_string(),
                &kc.to_string(),
                &format!("{gf:.3}"),
                &format!("{:.1}", percentile(&times, 50.0) * 1e6),
                &format!("{:.1}", percentile(&times, 99.0) * 1e6),
            ])?;
        }
        grid_table.row(row);
        eprintln!("mc {mc} done");
    }
    grid_table.print();
    println!("\nCSV written to {}", csv.path.display());
    Ok(())
}
