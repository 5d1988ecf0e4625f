//! Ablation A2: blocking-parameter sensitivity (the design choices of paper
//! §2.1 — "the step sizes of these three for loops ... \[are\] determined by
//! the size of each layer of the cache"): GFLOPS over an (MC, KC) grid
//! around the cache-derived defaults, at the best ISA tier. The tiers
//! themselves are the repo benchmark's `core.ukr_f64_{avx2,portable}_eff`,
//! measured with a spread.
//!
//! Besides the console tables / CSVs, the full sweep (per-point throughput
//! plus p50/p99 of the per-repetition times) is written as machine-readable
//! `bench_results/BENCH_ablation_blocking.json` for cross-PR tracking.
//!
//! Usage: `cargo run -p ftgemm-bench --release --bin ablation_blocking
//!         [--sizes N] [--reps N] [--smoke]`

use ftgemm_abft::gemm_with_params;
use ftgemm_bench::{gflops, percentile, write_bench_json, Args, JsonValue, Table};
use ftgemm_core::{BlockingParams, CacheInfo, IsaLevel, Matrix};

fn main() {
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
    let kc_grid: Vec<usize> = vec![base.kc / 4, base.kc / 2, base.kc, base.kc * 2];

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
    let mut json_grid = JsonValue::arr();
    for &mc in &mc_grid {
        let mut row = vec![mc.to_string()];
        for &kc in &kc_grid {
            let params = base.with_blocks(mc, base.nc, kc.max(1));
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
            row.push(format!("{:.2}", gflops(s, s, s, avg)));
            json_grid = json_grid.push(
                JsonValue::obj()
                    .field("mc", mc)
                    .field("kc", kc.max(1))
                    .field("gflops", gflops(s, s, s, avg))
                    .field("p50_latency_us", percentile(&times, 50.0) * 1e6)
                    .field("p99_latency_us", percentile(&times, 99.0) * 1e6),
            );
        }
        grid_table.row(row);
        eprintln!("mc {mc} done");
    }
    grid_table.print();

    match grid_table.write_csv(&args.out_dir, "ablation_blocking") {
        Ok(p) => println!("\nCSV written to {}", p.display()),
        Err(e) => eprintln!("CSV write failed: {e}"),
    }

    let json = JsonValue::obj()
        .field("bench", "ablation_blocking")
        .field("size", s)
        .field("reps", args.reps.max(1))
        .field("default_mc", base.mc)
        .field("default_kc", base.kc)
        .field(
            "blocking_grid",
            JsonValue::obj()
                .field("tier", isa.to_string())
                .field("points", json_grid),
        );
    match write_bench_json(&args.out_dir, "ablation_blocking", &json) {
        Ok(p) => println!("JSON written to {}", p.display()),
        Err(e) => eprintln!("JSON write failed: {e}"),
    }
}
