//! The layer ladder: every per-layer metric, measured from outside by timing
//! calls into the program's public functions (all of them in `sut.rs`).
//!
//! Each probe repeats its measurement a few times with the things it
//! compares interleaved, and reports the median; rates are divided by an
//! FMA-peak reading taken beside them. Spans are `probe > <layer call>`.
//! The ladder is the same whichever workload's traced run it follows; only
//! `trace.overhead_pct` comes from that workload's rounds.

use crate::calib::{self, Width};
use crate::gen::Rng;
use crate::spec::PER_LAYER;
use crate::stats::{median, tail, Arm};
use crate::sut::{self, Elem, Injector, Mat, Protection, Tier};
use crate::watchdog::Watchdog;
use crate::workloads::{
    self, flops, serve_stream, stream_shape, wire_stream, Bursts, Dims, Ledger, Measured, Options,
    RequestPool, Samples, SMALL_WINDOW,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const CAL_TARGET: Duration = Duration::from_millis(3);

/// Problem sizes and repeat counts: the real ladder, or a smoke-sized one.
struct Scale {
    big: usize,
    panel: Dims,
    mid: usize,
    small: usize,
    /// The `serve_large` probe shape (above the service cutoff).
    large_req: usize,
    reps_big: usize,
    reps: usize,
    /// Samples of a window-1 latency probe (1000 supports a p99).
    w1_samples: usize,
    w64_burst: usize,
    wire_burst: usize,
    large_samples: usize,
}

impl Scale {
    fn of(smoke: bool) -> Scale {
        if smoke {
            Scale {
                big: 160,
                panel: (256, 256, 64),
                mid: 96,
                small: 64,
                large_req: 208,
                reps_big: 2,
                reps: 3,
                w1_samples: 30,
                w64_burst: 96,
                wire_burst: 64,
                large_samples: 3,
            }
        } else {
            Scale {
                big: 1280,
                panel: (2048, 2048, 128),
                mid: 256,
                small: 64,
                large_req: 384,
                reps_big: 3,
                reps: 7,
                w1_samples: 1200,
                w64_burst: 2048,
                wire_burst: 1024,
                large_samples: 12,
            }
        }
    }
}

fn random_mat(rows: usize, cols: usize, rng: &mut Rng) -> Mat {
    let mut m = Mat::zeros(rows, cols);
    rng.fill_symmetric(m.data_mut());
    m
}

/// `f` `calls` times, stopping at the first error; the last value.
fn repeat<T>(calls: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
    for _ in 1..calls {
        f()?;
    }
    f()
}

struct Ladder<'a> {
    opts: &'a Options,
    width: Width,
    scale: Scale,
    ledger: &'a mut Ledger,
    watchdog: &'a Watchdog,
    values: BTreeMap<&'static str, f64>,
    /// Which percentile each tail metric really is, and of how many samples.
    notes: Vec<String>,
}

impl Ladder<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.insert(name, value).is_none(),
            "{name} measured twice"
        );
    }

    /// A `_p99` metric: the highest percentile up to p99 that still has ten
    /// samples beyond it, with the sample count on record.
    fn set_tail(&mut self, name: &'static str, samples: &[f64]) {
        let t = tail(samples, 0.99);
        self.notes
            .push(format!("{name}: {} of {} samples", t.used, t.n));
        self.set(name, t.value);
    }

    /// One single-thread FMA-peak reading, GF/s (every rate the ladder
    /// divides is a single-thread rate).
    fn peak(&self) -> f64 {
        calib::peak_gflops(self.width, 1, CAL_TARGET)
    }

    /// Times one call into a layer under a span of its name; returns the
    /// seconds and what the call returned.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
        let span = self.ledger.tracer.open(name, 0);
        let started = Instant::now();
        let out = f();
        let s = started.elapsed().as_secs_f64();
        self.ledger.tracer.close(span);
        (s, out)
    }

    /// Like `call`, with a single-thread FMA-peak reading on each side:
    /// returns seconds, the mean of the two readings in GF/s, and the value.
    fn call_calibrated<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (f64, f64, T) {
        let before = self.peak();
        let (s, out) = self.call(name, f);
        (s, 0.5 * (before + self.peak()), out)
    }

    fn group<T>(
        &mut self,
        phase: &'static str,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.watchdog.phase(phase);
        let span = self.ledger.tracer.open("probe", 0);
        let out = f(self);
        self.ledger.tracer.close(span);
        out
    }

    // ------------------------------------------------------------ core --

    /// Kernel efficiency and its with-sums / without-sums time ratio; `None`
    /// for a tier this CPU does not have. Panels fill half of L1d.
    fn kernel_eff(&mut self, tier: Tier, elem: Elem, l1: usize) -> Option<(f64, f64)> {
        let mut probe = sut::kernel_probe(tier, elem, l1 / 2)?;
        // An f32 lane is half an f64 lane: twice the flops per vector FMA.
        let peak_scale = if elem == Elem::F32 { 2.0 } else { 1.0 };
        // About 2 ms of calls at a nominal 40 GF/s.
        let calls = ((2e-3 * 40e9 / probe.flops_per_call()) as usize).max(16);
        probe.run(calls / 8, true);
        let (mut effs, mut ratios) = (Vec::new(), Vec::new());
        for _ in 0..self.scale.reps {
            let (plain, peak, ()) =
                self.call_calibrated("core.microkernel", || probe.run(calls, false));
            let (with_sums, ()) = self.call("core.microkernel+sums", || probe.run(calls, true));
            effs.push(probe.flops_per_call() * calls as f64 / plain / 1e9 / (peak * peak_scale));
            ratios.push(with_sums / plain);
        }
        Some((median(&effs), median(&ratios)))
    }

    fn kernels(&mut self, l1: usize) -> Result<(), String> {
        let (eff, sums) = self
            .kernel_eff(Tier::Detected, Elem::F64, l1)
            .ok_or("the detected tier has no kernel")?;
        self.set("core.ukr_f64_eff", eff);
        self.set("core.ukr_f64_sums_ratio", sums);
        let f32_eff = self
            .kernel_eff(Tier::Detected, Elem::F32, l1)
            .map_or(0.0, |r| r.0);
        self.set("core.ukr_f32_eff", f32_eff);
        // 0 marks a tier this CPU does not have.
        let avx2 = self
            .kernel_eff(Tier::Avx2, Elem::F64, l1)
            .map_or(0.0, |r| r.0);
        self.set("core.ukr_f64_avx2_eff", avx2);
        let portable = self
            .kernel_eff(Tier::Portable, Elem::F64, l1)
            .map_or(0.0, |r| r.0);
        self.set("core.ukr_f64_portable_eff", portable);
        Ok(())
    }

    fn packing(&mut self, a: &Mat, b: &Mat) {
        let mut p = sut::PackProbe::new(a, b);
        p.pack_a(a, true);
        p.pack_b(b, true);
        let (mut a_rate, mut b_rate, mut a_ratio, mut b_ratio) = (vec![], vec![], vec![], vec![]);
        for _ in 0..self.scale.reps {
            let (plain_a, ()) = self.call("core.pack_a", || p.pack_a(a, false));
            let (fused_a, ()) = self.call("core.pack_a_fused", || p.pack_a(a, true));
            let (plain_b, ()) = self.call("core.pack_b", || p.pack_b(b, false));
            let (fused_b, ()) = self.call("core.pack_b_fused", || p.pack_b(b, true));
            a_rate.push(p.a_bytes() / plain_a / 1e9);
            b_rate.push(p.b_bytes() / plain_b / 1e9);
            a_ratio.push(fused_a / plain_a);
            b_ratio.push(fused_b / plain_b);
        }
        self.set("core.pack_a_gbps", median(&a_rate));
        self.set("core.pack_b_gbps", median(&b_rate));
        self.set("core.pack_a_fused_ratio", median(&a_ratio));
        self.set("core.pack_b_fused_ratio", median(&b_ratio));
    }

    /// `gemm`, `Detect` and `DetectCorrect` interleaved on one problem:
    /// returns (gemm efficiency, detect / gemm, dc / gemm, dc report).
    fn serial_costs(
        &mut self,
        dims: Dims,
        calls: usize,
        reps: usize,
        rng: &mut Rng,
    ) -> Result<(f64, f64, f64, sut::OpReport), String> {
        let (m, n, k) = dims;
        let (a, b) = (random_mat(m, k, rng), random_mat(k, n, rng));
        let mut c = Mat::zeros(m, n);
        let mut plain = sut::SerialGemm::new();
        let mut detect = sut::SerialFt::new(Protection::Detect, None);
        let mut dc = sut::SerialFt::new(Protection::DetectCorrect, None);
        plain.run(&a, &b, &mut c)?;
        detect.run(&a, &b, &mut c)?;
        let mut report = dc.run(&a, &b, &mut c)?;
        let (mut effs, mut det, mut cor) = (vec![], vec![], vec![]);
        for _ in 0..reps {
            let (t_plain, peak, ran) =
                self.call_calibrated("core.gemm", || repeat(calls, || plain.run(&a, &b, &mut c)));
            ran?;
            let (t_detect, ran) = self.call("abft.ft_gemm_with_ctx(detect)", || {
                repeat(calls, || detect.run(&a, &b, &mut c))
            });
            ran?;
            let (t_dc, ran) = self.call("abft.ft_gemm_with_ctx(dc)", || {
                repeat(calls, || dc.run(&a, &b, &mut c))
            });
            report = ran?;
            effs.push(flops(dims) * calls as f64 / t_plain / 1e9 / peak);
            det.push(t_detect / t_plain);
            cor.push(t_dc / t_plain);
        }
        Ok((median(&effs), median(&det), median(&cor), report))
    }

    /// Everything measured at the big square shape in one interleaved loop:
    /// serial gemm / detect / dc / injected dc, parallel plain / ft.
    fn big_square(&mut self, a: &Mat, b: &Mat, threads: usize) -> Result<f64, String> {
        let n = self.scale.big;
        let dims = (n, n, n);
        let mut c = Mat::zeros(n, n);
        let injector = Injector::counted(self.opts.seed ^ 0xBEEF, 20);
        let mut plain = sut::SerialGemm::new();
        let mut detect = sut::SerialFt::new(Protection::Detect, None);
        let mut dc = sut::SerialFt::new(Protection::DetectCorrect, None);
        let mut inj = sut::SerialFt::new(Protection::DetectCorrect, Some(&injector));
        let par_ctx = sut::ParCtx::with_threads(threads);
        let mut par = sut::ParDriver::new(&par_ctx, dims);
        plain.run(a, b, &mut c)?;
        par.run_ft(a, b, &mut c)?;

        let (mut effs, mut det, mut cor) = (vec![], vec![], vec![]);
        let (mut speed_off, mut speed_ft, mut par_cost, mut dc_secs) =
            (vec![], vec![], vec![], vec![]);
        let mut clean = sut::OpReport::default();
        let mut faulty = sut::OpReport::default();
        for _ in 0..self.scale.reps_big {
            let (t_plain, peak, ran) =
                self.call_calibrated("core.gemm", || plain.run(a, b, &mut c));
            ran?;
            let (t_detect, ran) =
                self.call("abft.ft_gemm_with_ctx(detect)", || detect.run(a, b, &mut c));
            ran?;
            let (t_dc, ran) = self.call("abft.ft_gemm_with_ctx(dc)", || dc.run(a, b, &mut c));
            clean = ran?;
            let (_, ran) = self.call("abft.ft_gemm_with_ctx(dc+inject)", || inj.run(a, b, &mut c));
            faulty.absorb(ran?);
            let (t_par, ran) =
                self.call("parallel.par_gemm_with_ws", || par.run_plain(a, b, &mut c));
            ran?;
            let (t_par_ft, ran) =
                self.call("parallel.par_ft_gemm_with_ws", || par.run_ft(a, b, &mut c));
            ran?;
            effs.push(flops(dims) / t_plain / 1e9 / peak);
            det.push(t_detect / t_plain);
            cor.push(t_dc / t_plain);
            speed_off.push(t_plain / t_par);
            speed_ft.push(t_dc / t_par_ft);
            par_cost.push(t_par_ft / t_par);
            dc_secs.push(t_dc);
        }
        let ops = self.scale.reps_big as f64;
        self.set("core.gemm_eff_1280", median(&effs));
        self.set("abft.detect_cost_ratio_1280", median(&det));
        self.set("abft.dc_cost_ratio_1280", median(&cor));
        self.set("abft.verifications_per_op", clean.verifications as f64);
        self.set(
            "abft.retried_panels_per_op",
            faulty.retried_panels as f64 / ops,
        );
        let fired = injector.injected();
        let over = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        self.set("abft.detected_over_injected", over(faulty.detected, fired));
        self.set(
            "abft.corrected_over_detected",
            over(faulty.corrected, faulty.detected),
        );
        self.set("faults.injected_per_op", fired as f64 / ops);
        self.set("parallel.speedup_off", median(&speed_off));
        self.set("parallel.speedup_ft", median(&speed_ft));
        self.set("parallel.ft_cost_ratio_1280", median(&par_cost));
        Ok(median(&dc_secs))
    }

    /// What one detected-and-corrected error adds to a call, at a shape
    /// small enough for it to show: (injected calls - clean calls) over the
    /// errors corrected.
    fn correction_cost(&mut self, dims: Dims, rng: &mut Rng) -> Result<(), String> {
        const CALLS: usize = 64;
        let (m, n, k) = dims;
        let (a, b) = (random_mat(m, k, rng), random_mat(k, n, rng));
        let mut c = Mat::zeros(m, n);
        let injector = Injector::counted(self.opts.seed ^ 0xC0DE, 1);
        let mut clean = sut::SerialFt::new(Protection::DetectCorrect, None);
        let mut faulty = sut::SerialFt::new(Protection::DetectCorrect, Some(&injector));
        clean.run(&a, &b, &mut c)?;
        faulty.run(&a, &b, &mut c)?;
        let mut per_error = vec![];
        for _ in 0..self.scale.reps + 2 {
            let (t_clean, ran) = self.call("abft.ft_gemm_with_ctx(dc)", || {
                repeat(CALLS, || clean.run(&a, &b, &mut c))
            });
            ran?;
            let mut corrected = 0;
            let (t_faulty, ran) = self.call("abft.ft_gemm_with_ctx(dc+inject)", || {
                repeat(CALLS, || {
                    faulty.run(&a, &b, &mut c).map(|r| corrected += r.corrected)
                })
            });
            ran?;
            if corrected > 0 {
                per_error.push((t_faulty - t_clean) * 1e6 / corrected as f64);
            }
        }
        if per_error.is_empty() {
            return Err(format!("no injected error was corrected at {dims:?}"));
        }
        self.set("abft.correct_us_per_error", median(&per_error));
        Ok(())
    }

    fn checksums(&mut self, c: &Mat) {
        let n = c.rows();
        let enc: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let reference: Vec<f64> = enc.iter().map(|v| v + 1e-13).collect();
        let (mut find, mut rate) = (vec![], vec![]);
        let (mut rows, mut cols) = (vec![0.0; c.rows()], vec![0.0; c.cols()]);
        for _ in 0..self.scale.reps {
            const CALLS: usize = 200;
            let (t, ()) = self.call("abft.find_discrepancies", || {
                for _ in 0..CALLS {
                    black_box(sut::find_discrepancies(black_box(&enc), &reference, 1e-6));
                }
            });
            find.push(t * 1e6 / CALLS as f64);
            let (t, ()) = self.call("abft.encode_c", || sut::encode_c(c, &mut rows, &mut cols));
            rate.push((c.data().len() * 8) as f64 / t / 1e9);
        }
        self.set("abft.find_discrepancies_us", median(&find));
        self.set("abft.encode_c_gbps", median(&rate));
    }

    fn fault_polling(&mut self) {
        let sites = if self.opts.smoke { 50_000 } else { 1_000_000 };
        let injector = Injector::counted(self.opts.seed ^ 0xFA17, 20);
        let mut per_site = vec![];
        for rep in 0..self.scale.reps {
            let mut poller = sut::SitePoller::new(&injector, rep as u64, sites);
            let (t, ()) = self.call("faults.poll", || {
                let mut fired = 0u32;
                for _ in 0..sites {
                    fired += u32::from(poller.poll());
                }
                black_box(fired);
            });
            per_site.push(t * 1e9 / sites as f64);
        }
        self.set("faults.poll_ns_per_site", median(&per_site));
    }

    // ------------------------------------------------- pool, parallel --

    fn pool(&mut self, threads: usize) {
        const BARRIERS: usize = 64;
        let regions = if self.opts.smoke { 50 } else { 400 };
        let pool = sut::Pool::new(threads);
        pool.region(1);
        let (mut region_ns, mut barrier_ns) = (vec![], vec![]);
        for _ in 0..self.scale.reps {
            let (empty, ()) = self.call("pool.run(empty)", || {
                for _ in 0..regions {
                    pool.region(0);
                }
            });
            let (crossing, ()) = self.call("pool.run(barriers)", || {
                for _ in 0..regions / 8 {
                    pool.region(BARRIERS);
                }
            });
            let per_region = empty / regions as f64;
            region_ns.push(per_region * 1e9);
            let per_barrier = (crossing / (regions / 8) as f64 - per_region) / BARRIERS as f64;
            barrier_ns.push(per_barrier * 1e9);
        }
        self.set("pool.region_ns", median(&region_ns));
        self.set("pool.barrier_ns", median(&barrier_ns));
    }

    /// Workspace allocation and a reused-workspace call at the
    /// `serve_large` probe shape; returns the call's milliseconds.
    fn par_workspace(&mut self, threads: usize, rng: &mut Rng) -> Result<f64, String> {
        let n = self.scale.large_req;
        let dims = (n, n, n);
        let ctx = sut::ParCtx::with_threads(threads);
        let (a, b) = (random_mat(n, n, rng), random_mat(n, n, rng));
        let mut c = Mat::zeros(n, n);
        let mut driver = sut::ParDriver::new(&ctx, dims);
        driver.run_ft(&a, &b, &mut c)?;
        let (mut alloc_us, mut run_ms) = (vec![], vec![]);
        for _ in 0..self.scale.reps.max(5) {
            let (t, ()) = self.call("parallel.ParFtWorkspace::for_problem", || {
                sut::alloc_par_workspace(&ctx, dims)
            });
            alloc_us.push(t * 1e6);
            let (t, ran) = self.call("parallel.par_ft_gemm_with_ws", || {
                driver.run_ft(&a, &b, &mut c)
            });
            ran?;
            run_ms.push(t * 1e3);
        }
        self.set("parallel.ws_alloc_us_384", median(&alloc_us));
        let ms = median(&run_ms);
        self.set("parallel.par_ft_ms_384", ms);
        Ok(ms)
    }

    fn batch(&mut self) -> Result<(), String> {
        const ITEMS: usize = 32;
        // One thread, as `serve_small`'s service has.
        let ctx = sut::ParCtx::with_threads(1);
        let driver = sut::BatchDriver::new(&ctx);
        let pool = RequestPool::small(self.opts.seed, self.opts.smoke);
        let picks: Vec<usize> = (0..ITEMS).map(|i| i % pool.pairs.len()).collect();
        let mut outs: Vec<Mat> = picks
            .iter()
            .map(|&i| Mat::zeros(pool.dims[i].0, pool.dims[i].1))
            .collect();
        let shared: Vec<_> = pool
            .pairs
            .into_iter()
            .map(|(a, b)| (a.share(), b.share()))
            .collect();
        let pairs: Vec<_> = picks.iter().map(|&i| shared[i].clone()).collect();
        driver.run(&pairs, &mut outs);
        let (mut per_item, mut occupancy) = (vec![], vec![]);
        for _ in 0..self.scale.reps * 3 {
            let (t, run) = self.call("parallel.par_batch_ft_gemm_timed", || {
                driver.run(&pairs, &mut outs)
            });
            if run.failed > 0 {
                return Err(format!("{} of {ITEMS} batch items failed", run.failed));
            }
            per_item.push(t * 1e6 / ITEMS as f64);
            occupancy.push(run.occupancy);
        }
        self.set("parallel.batch_us_per_item", median(&per_item));
        self.set("parallel.batch_occupancy", median(&occupancy));
        Ok(())
    }

    // ------------------------------------------------------ serve, net --

    /// One ft burst on a stream, with per-request samples kept.
    fn sampled_burst(&mut self, stream: &mut dyn SampledStream) -> (workloads::Burst, Samples) {
        stream.keep_samples();
        let burst = stream.burst(Arm::Ft, self.ledger);
        (burst, stream.take_samples())
    }

    /// Returns (window-1 median turnaround in µs, window-64 ft ops/s).
    fn serve(&mut self, par_ft_ms: f64) -> Result<(f64, f64), String> {
        let (seed, smoke) = (self.opts.seed, self.opts.smoke);
        let small = stream_shape("serve_small", smoke).expect("serve_small");
        let pool = || RequestPool::small(seed, smoke);

        // Unloaded latency: one request in flight.
        let mut w1 = serve_stream(
            workloads::StreamShape {
                window: 1,
                requests: self.scale.w1_samples,
                ..small
            },
            pool(),
            seed,
            false,
        );
        w1.burst(Arm::Ft, self.ledger);
        let (_, samples) = self.sampled_burst(&mut w1);
        let us = |v: &[f64]| v.iter().map(|s| s * 1e6).collect::<Vec<f64>>();
        let w1_turnaround = us(&samples.turnaround);
        let w1_p50 = median(&w1_turnaround);
        self.set("serve.turnaround_w1_p50_us", w1_p50);
        self.set_tail("serve.turnaround_w1_p99_us", &w1_turnaround);
        let w1_stats = w1.stats();
        drop(w1);

        // Saturation: the workload's own window.
        let mut w64 = serve_stream(
            workloads::StreamShape {
                window: SMALL_WINDOW,
                requests: self.scale.w64_burst,
                ..small
            },
            pool(),
            seed,
            false,
        );
        w64.burst(Arm::Ft, self.ledger);
        let before = w64.stats();
        let (burst, samples) = self.sampled_burst(&mut w64);
        let after = w64.stats();
        let done = (after.completed - before.completed) as f64;
        let w64_turnaround = us(&samples.turnaround);
        self.set("serve.submit_us", median(&us(&samples.submit)));
        self.set("serve.turnaround_w64_p50_us", median(&w64_turnaround));
        self.set_tail("serve.turnaround_w64_p99_us", &w64_turnaround);
        let busy = after.batch_busy_s - before.batch_busy_s;
        self.set(
            "serve.overhead_us_per_req",
            (burst.seconds - busy) * 1e6 / done,
        );
        let batches = (after.batches - before.batches) as f64;
        self.set(
            "serve.mean_batch_occupancy",
            (after.batched_requests - before.batched_requests) as f64 / batches,
        );
        self.set(
            "serve.batch_thread_occupancy",
            busy / (after.batch_wall_s - before.batch_wall_s),
        );
        self.set(
            "serve.regions_per_req",
            (after.pool_regions - before.pool_regions) as f64 / done,
        );
        let inproc_ops = burst.ops_ok as f64 / burst.seconds;
        drop(w64);

        // The matrix-parallel path, unloaded, at the workspace probe's shape.
        let large = stream_shape("serve_large", self.opts.smoke).expect("serve_large");
        let n = self.scale.large_req;
        let mut big = serve_stream(
            workloads::StreamShape {
                window: 1,
                requests: self.scale.large_samples,
                ..large
            },
            RequestPool::squares(seed, &[n, n]),
            seed,
            false,
        );
        big.burst(Arm::Ft, self.ledger);
        let (_, samples) = self.sampled_burst(&mut big);
        let turnaround_ms = median(&samples.turnaround) * 1e3;
        self.set("serve.large_overhead_ms", turnaround_ms - par_ft_ms);
        let big_stats = big.stats();
        let (failed, submitted) = [w1_stats, after, big_stats]
            .iter()
            .fold((0, 0), |(f, s), st| (f + st.failed, s + st.submitted));
        self.set(
            "serve.failed_over_submitted",
            failed as f64 / submitted as f64,
        );
        Ok((w1_p50, inproc_ops))
    }

    fn net(
        &mut self,
        serve_w1_p50_us: f64,
        inproc_ops: f64,
        big_operand: &Mat,
    ) -> Result<(), String> {
        let seed = self.opts.seed;
        let small = stream_shape("wire_small", self.opts.smoke).expect("wire_small");
        let pool = RequestPool::small(seed, self.opts.smoke);
        let mean_elems = pool
            .dims
            .iter()
            .map(|(m, n, _)| (m * n) as f64)
            .sum::<f64>()
            / pool.dims.len() as f64;

        // Codec alone.
        let submit = sut::WireFrame::submit_by_handle();
        let completion = sut::WireFrame::completion(64, 64).encode();
        let (mut enc_us, mut dec_us) = (vec![], vec![]);
        for _ in 0..self.scale.reps {
            const CALLS: usize = 500;
            let (t, ()) = self.call("net.codec::encode_frame", || {
                for _ in 0..CALLS {
                    black_box(submit.encode());
                }
            });
            enc_us.push(t * 1e6 / CALLS as f64);
            let (t, decoded) = self.call("net.codec::decode_frame", || {
                repeat(CALLS, || sut::WireFrame::decode(black_box(&completion)))
            });
            decoded.map_err(|e| format!("decode of a completion frame: {e}"))?;
            dec_us.push(t * 1e6 / CALLS as f64);
        }
        let (enc, dec) = (median(&enc_us), median(&dec_us));
        self.set("net.encode_submit_us", enc);
        self.set("net.decode_completion_us", dec);
        let side = mean_elems.sqrt().round() as usize;
        let bytes = submit.encode().len()
            + sut::WireFrame::submit_ack().encode().len()
            + sut::WireFrame::completion(side, side).encode().len();
        self.set("net.bytes_per_req", bytes as f64);

        // Round trip, one request in flight.
        let mut w1 = wire_stream(
            workloads::StreamShape {
                window: 1,
                requests: self.scale.w1_samples,
                ..small
            },
            pool,
            seed,
        )?;
        w1.burst(Arm::Ft, self.ledger);
        let (_, samples) = self.sampled_burst(&mut w1);
        let rtt: Vec<f64> = samples.turnaround.iter().map(|s| s * 1e6).collect();
        let rtt_p50 = median(&rtt);
        self.set("net.rtt_w1_p50_us", rtt_p50);
        self.set_tail("net.rtt_w1_p99_us", &rtt);
        self.set(
            "net.residual_share",
            (rtt_p50 - serve_w1_p50_us - enc - dec) / rtt_p50,
        );

        // Upload rate, on the same connection.
        let bytes = (big_operand.data().len() * 8) as f64;
        let mut upload = vec![];
        for _ in 0..3 {
            let (t, uploaded) = self.call("net.NetClient::upload", || w1.upload(big_operand));
            uploaded.map_err(|e| format!("upload: {e}"))?;
            upload.push(bytes / t / 1e9);
        }
        self.set("net.upload_gbps", median(&upload));
        drop(w1);

        // Saturation through the wire against the same stream in process.
        let mut w64 = wire_stream(
            workloads::StreamShape {
                window: SMALL_WINDOW,
                requests: self.scale.wire_burst,
                ..small
            },
            RequestPool::small(seed, self.opts.smoke),
            seed,
        )?;
        w64.burst(Arm::Ft, self.ledger);
        let burst = w64.burst(Arm::Ft, self.ledger);
        self.set(
            "net.wire_over_inproc",
            inproc_ops / (burst.ops_ok as f64 / burst.seconds),
        );
        Ok(())
    }

    fn obs(&mut self) {
        let seed = self.opts.seed;
        let small = stream_shape("serve_small", self.opts.smoke).expect("serve_small");
        let shape = workloads::StreamShape {
            requests: self.scale.wire_burst,
            ..small
        };
        let mut plain = serve_stream(
            shape,
            RequestPool::small(seed, self.opts.smoke),
            seed,
            false,
        );
        let mut watched =
            serve_stream(shape, RequestPool::small(seed, self.opts.smoke), seed, true);
        plain.burst(Arm::Ft, self.ledger);
        watched.burst(Arm::Ft, self.ledger);
        let mut ratios = vec![];
        for _ in 0..self.scale.reps {
            let off = plain.burst(Arm::Ft, self.ledger).seconds;
            let on = watched.burst(Arm::Ft, self.ledger).seconds;
            ratios.push(on / off);
        }
        self.set("obs.on_cost_ratio", median(&ratios));
        let mut render = vec![];
        for _ in 0..self.scale.reps * 2 {
            let (t, text) = self.call("obs.render_metrics", || watched.render_metrics());
            black_box(text);
            render.push(t * 1e6);
        }
        self.set("obs.render_metrics_us", median(&render));
    }

    // ------------------------------------------------- baselines, api --

    fn baselines(&mut self, a: &Mat, b: &Mat, dc_secs: f64) -> Result<(), String> {
        let mut c = Mat::zeros(a.rows(), b.cols());
        let mut best = f64::INFINITY;
        for mut reference in sut::Reference::all() {
            let (t, ran) = self.call("baselines.ReferenceGemm::run", || {
                reference.run(a, b, &mut c)
            });
            ran.map_err(|e| format!("{}: {e}", reference.name()))?;
            best = best.min(t);
        }
        self.set("baselines.ft_speedup_vs_best", best / dc_secs);
        Ok(())
    }

    fn api(&mut self, a: &Mat, b: &Mat, rng: &mut Rng) -> Result<(), String> {
        let mut build_ms = vec![];
        for _ in 0..self.scale.reps.min(5) {
            let (t, plan) = self.call("api.GemmOp::plan", || {
                sut::Plan::build(a, b, Arm::Ft, None, sut::Where::Serial)
            });
            drop(plan.map_err(|e| format!("plan: {e}"))?);
            build_ms.push(t * 1e3);
        }
        self.set("api.plan_build_ms", median(&build_ms));

        let n = self.scale.mid;
        let (a, b) = (random_mat(n, n, rng), random_mat(n, n, rng));
        let mut c = Mat::zeros(n, n);
        let mut plan = sut::Plan::build(&a, &b, Arm::Ft, None, sut::Where::Serial)?;
        let mut direct = sut::SerialFt::new(Protection::DetectCorrect, None);
        plan.run(&mut c)?;
        direct.run(&a, &b, &mut c)?;
        const CALLS: usize = 4;
        let mut ratios = vec![];
        for _ in 0..self.scale.reps + 2 {
            let (planned, ran) =
                self.call("api.GemmPlan::run", || repeat(CALLS, || plan.run(&mut c)));
            ran?;
            let (bare, ran) = self.call("abft.ft_gemm_with_ctx(dc)", || {
                repeat(CALLS, || direct.run(&a, &b, &mut c))
            });
            ran?;
            ratios.push(planned / bare);
        }
        self.set("api.plan_run_overhead_pct", (median(&ratios) - 1.0) * 100.0);
        Ok(())
    }
}

/// A stream whose per-request samples the ladder can switch on and collect.
trait SampledStream: Bursts {
    fn keep_samples(&mut self);
    fn take_samples(&mut self) -> Samples;
}

impl<T: workloads::Transport> SampledStream for workloads::Stream<T> {
    fn keep_samples(&mut self) {
        self.samples = Some(Samples::default());
    }

    fn take_samples(&mut self) -> Samples {
        self.samples.take().unwrap_or_default()
    }
}

/// What the ladder measured.
pub struct Rungs {
    /// Every per-layer metric, in `spec::PER_LAYER` order.
    pub values: Vec<(&'static str, f64)>,
    /// Which percentile each tail metric is, and of how many samples.
    pub notes: Vec<String>,
}

/// Runs the whole ladder.
pub fn ladder(
    opts: &Options,
    width: Width,
    host: &sut::Host,
    measured: &Measured,
    ledger: &mut Ledger,
    watchdog: &Watchdog,
) -> Result<Rungs, String> {
    let threads = workloads::compute_threads();
    let mut l = Ladder {
        opts,
        width,
        scale: Scale::of(opts.smoke),
        ledger,
        watchdog,
        values: BTreeMap::new(),
        notes: Vec::new(),
    };
    let mut rng = Rng::new(opts.seed, 7);
    let n = l.scale.big;
    let (a, b) = (random_mat(n, n, &mut rng), random_mat(n, n, &mut rng));

    l.group("ladder: core", |l| {
        l.kernels(host.l1d)?;
        l.packing(&a, &b);
        l.checksums(&a);
        l.fault_polling();
        Ok(())
    })?;
    let dc_secs = l.group("ladder: drivers", |l| {
        let dc_secs = l.big_square(&a, &b, threads)?;
        let (small, mid, panel, reps) = (l.scale.small, l.scale.mid, l.scale.panel, l.scale.reps);
        let (eff, _, dc, _) = l.serial_costs((small, small, small), 64, reps, &mut rng)?;
        l.set("core.gemm_eff_64", eff);
        l.set("abft.dc_cost_ratio_64", dc);
        l.correction_cost((small, small, small), &mut rng)?;
        let (eff, ..) = l.serial_costs((mid, mid, mid), 2, reps, &mut rng)?;
        l.set("core.gemm_eff_256", eff);
        let (_, detect, dc, _) = l.serial_costs(panel, 1, reps.min(5), &mut rng)?;
        l.set("abft.detect_cost_ratio_panel", detect);
        l.set("abft.dc_cost_ratio_panel", dc);
        Ok(dc_secs)
    })?;
    let over_ukr = l.values["core.gemm_eff_1280"] / l.values["core.ukr_f64_eff"];
    l.set("core.gemm_over_ukr", over_ukr);
    let par_ft_ms = l.group("ladder: pool", |l| {
        l.pool(threads);
        l.batch()?;
        l.par_workspace(threads, &mut rng)
    })?;
    l.group("ladder: serve, net", |l| {
        let (w1_p50, inproc_ops) = l.serve(par_ft_ms)?;
        l.net(w1_p50, inproc_ops, &a)?;
        l.obs();
        Ok(())
    })?;
    l.group("ladder: baselines, api", |l| {
        l.baselines(&a, &b, dc_secs)?;
        l.api(&a, &b, &mut rng)
    })?;
    l.set("trace.overhead_pct", measured.trace_overhead_pct());

    let values = PER_LAYER
        .iter()
        .map(|m| {
            l.values
                .remove(m.name)
                .map(|v| (m.name, v))
                .ok_or_else(|| format!("the ladder did not measure {}", m.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(Rungs {
        values,
        notes: l.notes,
    })
}
