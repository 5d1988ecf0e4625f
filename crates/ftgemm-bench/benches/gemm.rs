//! Criterion GEMM benchmarks: the five comparator implementations plus the
//! fault-tolerance variants, serial and parallel, at fixed representative
//! sizes (Criterion complements the figure binaries, which sweep sizes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftgemm_abft::{ft_gemm_with_ctx, FtConfig, FtGemmContext};
use ftgemm_baselines::{ReferenceGemm, Tier};
use ftgemm_core::{gemm, GemmContext, Matrix};
use ftgemm_faults::FaultInjector;
use ftgemm_parallel::{par_ft_gemm_with_ws, par_gemm_with_ws, ParFtWorkspace, ParGemmContext};
use std::time::Duration;

const N: usize = 512;

fn flops(n: usize) -> u64 {
    (2 * n * n * n) as u64
}

fn bench_serial(c: &mut Criterion) {
    let mut g = c.benchmark_group("serial-dgemm");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g.throughput(Throughput::Elements(flops(N)));

    let a = Matrix::<f64>::random(N, N, 1);
    let b = Matrix::<f64>::random(N, N, 2);
    let mut cm = Matrix::<f64>::zeros(N, N);

    let mut ori = GemmContext::<f64>::new();
    g.bench_function(BenchmarkId::new("ori", N), |bch| {
        bch.iter(|| {
            gemm(
                &mut ori,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut cm.as_mut(),
            )
            .unwrap()
        });
    });

    let mut ft = FtGemmContext::<f64>::new();
    let fused = FtConfig::default();
    g.bench_function(BenchmarkId::new("ft-fused", N), |bch| {
        bch.iter(|| {
            ft_gemm_with_ctx(
                &mut ft,
                &fused,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut cm.as_mut(),
            )
            .unwrap()
        });
    });

    let unfused = FtConfig::unfused();
    g.bench_function(BenchmarkId::new("ft-unfused", N), |bch| {
        bch.iter(|| {
            ft_gemm_with_ctx(
                &mut ft,
                &unfused,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut cm.as_mut(),
            )
            .unwrap()
        });
    });

    let inj = FaultInjector::counted(1, 4);
    let injected = FtConfig::with_injector(inj);
    g.bench_function(BenchmarkId::new("ft-under-injection", N), |bch| {
        bch.iter(|| {
            ft_gemm_with_ctx(
                &mut ft,
                &injected,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut cm.as_mut(),
            )
            .unwrap()
        });
    });

    for tier in [Tier::Mkl, Tier::OpenBlas, Tier::Blis] {
        let mut rg = ReferenceGemm::<f64>::new(tier);
        g.bench_function(BenchmarkId::new(rg.name(), N), |bch| {
            bch.iter(|| {
                rg.run(1.0, &a.as_ref(), &b.as_ref(), 1.0, &mut cm.as_mut())
                    .unwrap()
            });
        });
    }
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel-dgemm");
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    let n = 1024;
    g.throughput(Throughput::Elements(flops(n)));

    let a = Matrix::<f64>::random(n, n, 1);
    let b = Matrix::<f64>::random(n, n, 2);
    let mut cm = Matrix::<f64>::zeros(n, n);
    let threads = ftgemm_core::cpu::num_cpus().min(8);
    let ctx = ParGemmContext::<f64>::with_threads(threads);
    let mut ws = ParFtWorkspace::for_problem(&ctx, n, n, n);
    let fused = FtConfig::default();

    g.bench_function(BenchmarkId::new("ori", format!("{n}x{threads}t")), |bch| {
        bch.iter(|| {
            par_gemm_with_ws(
                &ctx,
                &mut ws,
                1.0,
                &a.as_ref(),
                &b.as_ref(),
                1.0,
                &mut cm.as_mut(),
            )
            .unwrap()
        });
    });
    g.bench_function(
        BenchmarkId::new("ft-fused", format!("{n}x{threads}t")),
        |bch| {
            bch.iter(|| {
                par_ft_gemm_with_ws(
                    &ctx,
                    &mut ws,
                    &fused,
                    1.0,
                    &a.as_ref(),
                    &b.as_ref(),
                    1.0,
                    &mut cm.as_mut(),
                )
                .unwrap()
            });
        },
    );
    g.finish();
}

criterion_group!(benches, bench_serial, bench_parallel);
criterion_main!(benches);
