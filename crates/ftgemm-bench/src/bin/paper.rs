//! The paper's evaluation (§3) as one sweep and seven views over it.
//!
//! One pass times each (implementation, size) cell once through
//! [`GemmRunner`], serial and parallel: the five curves of Fig. 2, the
//! unfused and partially fused ABFT configurations, and FT under `--errors`
//! injected errors per run. The library stand-ins and "Ori" run clean only
//! and are reused for the injection figures, as in the paper (it injects
//! into its own kernels). The views, printed and written as CSV:
//!
//! * `fig2a` / `fig2b` — serial / parallel GFLOPS, five curves.
//! * `fig2c` / `fig2d` — the same with the FT curve under injection.
//! * `overhead_table` — T1 (§2.2: fused vs unfused ABFT, "from about 15% to
//!   2.94%") and T2 (§3.1: serial 1.17%–3.58%, parallel 1.79%). A size that
//!   only one of the two sweeps covers shows `-` for the other. Every curve
//!   is the paper's `beta = 1` except the two `beta=0` columns: serial Ori
//!   and fused FT on the path that writes `C` once (store-mode micro-kernel,
//!   no beta pass) — what the repo benchmark and the serving default run.
//! * `speedup_table` — T3: FT-GEMM with FT on against each comparator.
//! * `ablation_fusion` — A1: serial overhead as the fusion points of §2.2
//!   are enabled one at a time.
//!
//! GFLOPS cells use the mean of the repetitions (the paper's protocol);
//! overhead and speed-up percentages use the fastest repetition, the
//! noise-robust estimator for compute-bound kernels on shared machines
//! (scheduler interference only ever adds time).
//!
//! Usage: `cargo run -p ftgemm-bench --release --bin paper [--paper-sizes]
//! [--sizes a,b,c] [--reps N] [--threads N] [--errors N] [--smoke]`

use ftgemm_abft::{FtConfig, FusionConfig};
use ftgemm_bench::runners::{ft_config, parallel_suite, serial_suite, GemmRunner, RunnerKind};
use ftgemm_bench::{measure, Args, Measurement, Table};
use ftgemm_core::{GemmContext, Matrix};
use ftgemm_faults::FaultInjector;
use std::collections::HashMap;

const MKL: &str = RunnerKind::Mkl.name();
const OPENBLAS: &str = RunnerKind::OpenBlas.name();
const BLIS: &str = RunnerKind::Blis.name();
const ORI: &str = RunnerKind::Ori.name();
const FT: &str = RunnerKind::Ft.name();
const ORI_BETA0: &str = "Ori beta=0";
const FT_BETA0: &str = "FT beta=0";
const INJECTED: &str = "FT injected";
const UNFUSED: &str = "unfused";
const FULLY_FUSED: &str = "+kernel-refs (full)";

/// The fusion points of §2.2 enabled one at a time, short of the fully
/// fused configuration, which is the [`FT`] curve itself.
fn partial_fusion_stages() -> Vec<(&'static str, FusionConfig)> {
    let mut fusion = FusionConfig::UNFUSED;
    let mut stages = vec![(UNFUSED, fusion)];
    fusion.fuse_c_scale = true;
    stages.push(("+C-scale", fusion));
    fusion.fuse_b_pack = true;
    stages.push(("+B-pack", fusion));
    fusion.fuse_a_pack = true;
    stages.push(("+A-pack", fusion));
    stages
}

fn pct(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:+.2}%"))
}

/// The timed cells of one mode (serial or parallel), keyed by runner label
/// and size.
struct Sweep {
    sizes: Vec<usize>,
    cells: HashMap<(&'static str, usize), Measurement>,
    /// `corrected/injected` over the [`INJECTED`] cell's runs, per size.
    corrected: HashMap<usize, String>,
}

impl Sweep {
    /// Times every runner at every size, each under its `beta`: the one
    /// place an implementation is measured. `injector` is the one attached to
    /// the [`INJECTED`] runner.
    fn run(
        mode: &str,
        args: &Args,
        sizes: Vec<usize>,
        mut runners: Vec<(&'static str, f64, GemmRunner)>,
        injector: &FaultInjector,
    ) -> Sweep {
        let mut cells = HashMap::new();
        let mut corrected = HashMap::new();
        for &s in &sizes {
            let a = Matrix::<f64>::random(s, s, 0xA);
            let b = Matrix::<f64>::random(s, s, 0xB);
            injector.stats().reset();
            for (label, beta, runner) in &mut runners {
                let mut c = Matrix::<f64>::zeros(s, s);
                let cell = measure(args.warmup, args.reps, || {
                    runner.run(&a.as_ref(), &b.as_ref(), *beta, &mut c.as_mut());
                });
                cells.insert((*label, s), cell);
                eprint!(".");
            }
            let stats = injector.stats();
            corrected.insert(s, format!("{}/{}", stats.corrected(), stats.injected()));
            eprintln!(" {mode} {s} done ({})", stats.summary());
        }
        Sweep {
            sizes,
            cells,
            corrected,
        }
    }

    /// Mean-time GFLOPS of a cell, `-` for a size this sweep did not cover.
    fn gf(&self, label: &'static str, s: usize) -> String {
        self.cells
            .get(&(label, s))
            .map_or_else(|| "-".to_string(), |m| format!("{:.2}", m.gflops(s, s, s)))
    }

    /// Min-time overhead of a cell over "Ori" at the same `beta`, in percent.
    fn ovh(&self, label: &'static str, s: usize) -> Option<f64> {
        let base = if label == FT_BETA0 { ORI_BETA0 } else { ORI };
        let ori = self.cells.get(&(base, s))?;
        Some((self.cells.get(&(label, s))?.min / ori.min - 1.0) * 100.0)
    }

    fn mean_ovh(&self, label: &'static str) -> f64 {
        let sum: f64 = self.sizes.iter().filter_map(|&s| self.ovh(label, s)).sum();
        sum / self.sizes.len().max(1) as f64
    }

    /// Fig. 2: the five curves, with `ft` ([`FT`] or [`INJECTED`]) as the
    /// FT curve.
    fn figure(&self, title: &str, ft: &'static str) -> Table {
        let mut headers = vec!["size", MKL, OPENBLAS, BLIS, ORI, FT];
        if ft == INJECTED {
            headers.push("FT corrected");
        }
        let mut table = Table::new(title, &headers);
        for &s in &self.sizes {
            let mut row = vec![s.to_string()];
            row.extend([MKL, OPENBLAS, BLIS, ORI, ft].map(|label| self.gf(label, s)));
            if ft == INJECTED {
                row.push(self.corrected[&s].clone());
            }
            table.row(row);
        }
        table
    }

    /// T3 row: geomean over the sweep of comparator time / FT time.
    fn speedup_row(&self, mode: &str) -> Vec<String> {
        let mut row = vec![mode.to_string()];
        row.extend([MKL, OPENBLAS, BLIS, ORI].map(|other| {
            let ln_sum: f64 = self
                .sizes
                .iter()
                .map(|&s| (self.cells[&(other, s)].min / self.cells[&(FT, s)].min).ln())
                .sum();
            let geomean = (ln_sum / self.sizes.len().max(1) as f64).exp();
            pct(Some((geomean - 1.0) * 100.0))
        }));
        row
    }
}

fn emit(table: &Table, args: &Args, name: &str) {
    table.print();
    match table.write_csv(&args.out_dir, name) {
        Ok(p) => println!("CSV written to {}", p.display()),
        Err(e) => eprintln!("CSV write failed: {e}"),
    }
}

fn main() {
    let args = Args::parse();
    let threads = args.threads;
    // The paper's op is `C = A*B + C`: every runner is timed at `beta = 1`
    // unless pushed with another.
    let labelled = |suite: Vec<GemmRunner>| -> Vec<_> {
        suite.into_iter().map(|r| (r.name(), 1.0, r)).collect()
    };
    let stages = partial_fusion_stages();

    let injector = FaultInjector::counted(0xEC, args.errors);
    let mut runners = labelled(serial_suite());
    runners.extend(stages.iter().map(|&(label, fusion)| {
        let cfg = FtConfig {
            fusion,
            ..ft_config()
        };
        (label, 1.0, GemmRunner::ft_serial(cfg))
    }));
    runners.push((ORI_BETA0, 0.0, GemmRunner::OriSerial(GemmContext::new())));
    runners.push((FT_BETA0, 0.0, GemmRunner::ft_serial(ft_config())));
    let injected = |injector: &FaultInjector| FtConfig {
        injector: Some(injector.clone()),
        ..ft_config()
    };
    runners.push((INJECTED, 1.0, GemmRunner::ft_serial(injected(&injector))));
    let serial = Sweep::run("serial", &args, args.serial_sizes(), runners, &injector);

    let injector = FaultInjector::counted(0xED, args.errors);
    let mut runners = labelled(parallel_suite(threads));
    let unfused = FtConfig {
        fusion: FusionConfig::UNFUSED,
        ..ft_config()
    };
    runners.push((UNFUSED, 1.0, GemmRunner::par(threads, Some(unfused))));
    runners.push((
        INJECTED,
        1.0,
        GemmRunner::par(threads, Some(injected(&injector))),
    ));
    let parallel = Sweep::run("parallel", &args, args.parallel_sizes(), runners, &injector);

    let errors = args.errors;
    let fig2a = serial.figure("Fig 2(a) — FT-DGEMM, Serial: GFLOPS (higher is better)", FT);
    emit(&fig2a, &args, "fig2a");
    let title = format!("Fig 2(b) — FT-DGEMM, Parallel ({threads} threads): GFLOPS");
    emit(&parallel.figure(&title, FT), &args, "fig2b");
    let title = format!("Fig 2(c) — Error injection, Serial ({errors} errors/run on FT): GFLOPS");
    emit(&serial.figure(&title, INJECTED), &args, "fig2c");
    let title = format!(
        "Fig 2(d) — Error injection, Parallel ({threads} threads, {errors} errors/run/thread on FT): GFLOPS"
    );
    emit(&parallel.figure(&title, INJECTED), &args, "fig2d");

    let mut overhead = Table::new(
        "T1/T2 — ABFT overhead vs 'FT-GEMM: Ori' (paper: fused 1.2-3.6% serial / 1.8% parallel; unfused ~15%)",
        &[
            "size",
            "serial Ori GF",
            "serial fused ovh",
            "serial unfused ovh",
            "serial Ori GF (beta=0)",
            "serial fused ovh (beta=0)",
            "par Ori GF",
            "par fused ovh",
            "par unfused ovh",
        ],
    );
    let mut sizes = [serial.sizes.clone(), parallel.sizes.clone()].concat();
    sizes.sort_unstable();
    sizes.dedup();
    for s in sizes {
        overhead.row(vec![
            s.to_string(),
            serial.gf(ORI, s),
            pct(serial.ovh(FT, s)),
            pct(serial.ovh(UNFUSED, s)),
            serial.gf(ORI_BETA0, s),
            pct(serial.ovh(FT_BETA0, s)),
            parallel.gf(ORI, s),
            pct(parallel.ovh(FT, s)),
            pct(parallel.ovh(UNFUSED, s)),
        ]);
    }
    emit(&overhead, &args, "overhead_table");
    println!(
        "averages: serial fused {:+.2}% (paper 1.17-3.58%), serial unfused {:+.2}% (paper ~15%), parallel fused {:+.2}% (paper 1.79%)",
        serial.mean_ovh(FT),
        serial.mean_ovh(UNFUSED),
        parallel.mean_ovh(FT)
    );

    let mut speedup = Table::new(
        "T3 — FT-GEMM:FT speed relative to each comparator (geomean over sweep; >0% means FT-GEMM faster)",
        &["mode", "vs MKL*", "vs OpenBLAS*", "vs BLIS*", "vs Ori"],
    );
    speedup.row(serial.speedup_row("serial"));
    speedup.row(parallel.speedup_row("parallel"));
    emit(&speedup, &args, "speedup_table");
    println!(
        "paper reference: serial +4.98% vs MKL, +22.89% vs OpenBLAS, +21.56% vs BLIS;\n\
         parallel: slightly below MKL, comparable to OpenBLAS, +16.83% vs BLIS;\n\
         vs Ori = -(FT overhead)."
    );

    let mut headers = vec!["size", "Ori GF"];
    headers.extend(stages.iter().map(|&(label, _)| label));
    headers.push(FULLY_FUSED);
    let mut ablation = Table::new(
        "A1 — serial FT overhead by fusion stage (lower is better; paper: ~15% unfused -> ~3% full)",
        &headers,
    );
    for &s in &serial.sizes {
        let mut row = vec![s.to_string(), serial.gf(ORI, s)];
        row.extend(stages.iter().map(|&(label, _)| pct(serial.ovh(label, s))));
        row.push(pct(serial.ovh(FT, s)));
        ablation.row(row);
    }
    emit(&ablation, &args, "ablation_fusion");
}
