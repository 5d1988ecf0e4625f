//! # ftgemm-bench
//!
//! What the repo benchmark (`benchmark/`, `BENCHMARK.json`) cannot produce:
//! the paper's size sweeps (§3), its sustained-injection campaign and the
//! blocking grid. Serving, wire, observability and per-layer numbers come
//! from `benchmark/` only. The paper mapping is in `docs/ARCHITECTURE.md`.
//!
//! | binary | reproduces |
//! |---|---|
//! | `paper` | one sweep, seven views: Fig. 2(a)–(d) (`fig2a..d.csv`), T1/T2 fused vs unfused ABFT overhead (`overhead_table.csv`), T3 FT-GEMM speed vs the library stand-ins (`speedup_table.csv`), A1 per-fusion-point overhead (`ablation_fusion.csv`) |
//! | `reliability` | T4: sustained errors-per-minute campaign with validation |
//! | `ablation_blocking` | A2: blocking-parameter sensitivity, the (MC, KC) grid (`ablation_blocking.csv`: one row per point) |
//!
//! Every binary prints paper-style tables; `paper` and `ablation_blocking`
//! write CSV under `bench_results/`. Default sweeps are scaled down
//! (CI-sized); pass `--paper-sizes` for the full-size lists from the paper.

#![warn(missing_docs)]

pub mod args;
pub mod report;
pub mod runners;
pub mod timing;

pub use args::Args;
pub use report::{CsvWriter, Table};
pub use runners::{GemmRunner, RunnerKind};
pub use timing::{gflops, measure, measure_times, Measurement};

/// Paper's serial sweep (Fig. 2a/2c): 1024^2 .. 10240^2 step 1024.
pub fn paper_serial_sizes() -> Vec<usize> {
    (1..=10).map(|i| i * 1024).collect()
}

/// Paper's parallel sweep (Fig. 2b/2d): 512 .. 19968.
pub fn paper_parallel_sizes() -> Vec<usize> {
    vec![
        512, 1536, 2560, 3584, 4608, 5632, 6656, 7680, 8704, 9728, 10752, 11776, 12800, 13824,
        14848, 15872, 16896, 17920, 18944, 19968,
    ]
}

/// Scaled-down serial sweep (same shape, laptop/CI budget).
pub fn scaled_serial_sizes() -> Vec<usize> {
    vec![256, 384, 512, 640, 768, 896, 1024, 1280]
}

/// Scaled-down parallel sweep.
pub fn scaled_parallel_sizes() -> Vec<usize> {
    vec![256, 512, 768, 1024, 1536, 2048]
}
