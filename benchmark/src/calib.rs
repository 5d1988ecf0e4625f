//! FMA-peak calibration: the denominator of every efficiency metric.
//!
//! A register-only loop of independent f64 fused multiply-adds at the widest
//! vector width the CPU has, timed on as many threads as the workload
//! computes on. It is the benchmark's own code and uses nothing but `std`:
//! a faster or slower micro-kernel in the repo cannot move the denominator.
//! (`tests::calibration_is_independent_of_the_repo` pins that.)

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Independent accumulator chains. Twelve covers two FMA ports at a
/// four-to-five cycle latency with room to spare.
const CHAINS: usize = 12;
/// Loop trips per timed block (~50 µs at full rate).
const BLOCK_ITERS: u64 = 16_384;

/// Vector width the calibration loop runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    Scalar,
    Avx2,
    Avx512,
}

impl Width {
    /// Widest width this CPU supports (same feature tests the repo's
    /// `IsaLevel::detect` makes, made here so this module stands alone).
    pub fn detect() -> Width {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx512f") {
                return Width::Avx512;
            }
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                return Width::Avx2;
            }
        }
        Width::Scalar
    }

    pub fn f64_lanes(self) -> u64 {
        match self {
            Width::Scalar => 1,
            Width::Avx2 => 4,
            Width::Avx512 => 8,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Width::Scalar => "scalar",
            Width::Avx2 => "avx2-fma",
            Width::Avx512 => "avx512",
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn block_avx512(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let mul = _mm512_set1_pd(black_box(0.999_999_9));
    let add = _mm512_set1_pd(black_box(1.0e-7));
    let mut acc = [_mm512_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm512_fmadd_pd(*a, mul, add);
        }
    }
    let mut sum = acc[0];
    for a in &acc[1..] {
        sum = _mm512_add_pd(sum, *a);
    }
    _mm512_reduce_add_pd(sum)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn block_avx2(iters: u64) -> f64 {
    use std::arch::x86_64::*;
    let mul = _mm256_set1_pd(black_box(0.999_999_9));
    let add = _mm256_set1_pd(black_box(1.0e-7));
    let mut acc = [_mm256_set1_pd(1.0); CHAINS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_pd(*a, mul, add);
        }
    }
    let mut out = [0.0f64; 4];
    let mut sum = acc[0];
    for a in &acc[1..] {
        sum = _mm256_add_pd(sum, *a);
    }
    _mm256_storeu_pd(out.as_mut_ptr(), sum);
    out.iter().sum()
}

fn block_scalar(iters: u64) -> f64 {
    let mul = black_box(0.999_999_9f64);
    let add = black_box(1.0e-7f64);
    let mut acc = [1.0f64; CHAINS];
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(mul, add);
        }
    }
    acc.iter().sum()
}

fn run_block(width: Width, iters: u64) -> f64 {
    match width {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Width::detect` only reports a width whose CPU features
        // were detected at run time; `Width` values come from it or from
        // tests that check the feature first.
        Width::Avx512 => unsafe { block_avx512(iters) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Width::Avx2 => unsafe { block_avx2(iters) },
        _ => block_scalar(iters),
    }
}

/// Flops of one block: every trip issues one FMA (two flops) per lane per
/// chain.
fn block_flops(width: Width, iters: u64) -> f64 {
    (iters * CHAINS as u64 * width.f64_lanes() * 2) as f64
}

/// One thread's FMA rate in flop/s, measured over at least `target`.
fn thread_rate(width: Width, target: Duration) -> f64 {
    let start = Instant::now();
    let mut flops = 0.0;
    loop {
        black_box(run_block(width, black_box(BLOCK_ITERS)));
        flops += block_flops(width, BLOCK_ITERS);
        let elapsed = start.elapsed();
        if elapsed >= target {
            return flops / elapsed.as_secs_f64();
        }
    }
}

/// Calibrated f64 FMA peak in GF/s: the sum of the rates `threads` threads
/// reach when they all run the loop at once for `target`.
pub fn peak_gflops(width: Width, threads: usize, target: Duration) -> f64 {
    let threads = threads.max(1);
    let total: f64 = if threads == 1 {
        thread_rate(width, target)
    } else {
        std::thread::scope(|s| {
            let others: Vec<_> = (1..threads)
                .map(|_| s.spawn(move || thread_rate(width, target)))
                .collect();
            let mine = thread_rate(width, target);
            mine + others
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked"))
                .sum::<f64>()
        })
    };
    total / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_positive_and_scales_with_lanes() {
        let scalar = peak_gflops(Width::Scalar, 1, Duration::from_millis(2));
        assert!(scalar > 0.0);
        let widest = Width::detect();
        let vector = peak_gflops(widest, 1, Duration::from_millis(2));
        if widest != Width::Scalar {
            // A vector loop that kept its chains in registers beats scalar.
            assert!(vector > scalar, "{vector} <= {scalar}");
        }
    }

    #[test]
    fn block_time_grows_with_iterations() {
        // Guards against the compiler folding the loop away.
        let w = Width::detect();
        let time = |iters: u64| {
            let best = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    black_box(run_block(w, black_box(iters)));
                    t.elapsed()
                })
                .min()
                .unwrap();
            best.as_secs_f64()
        };
        let (short, long) = (time(20_000), time(200_000));
        assert!(long > 4.0 * short, "short {short}, long {long}");
    }

    #[test]
    fn block_flops_counts_two_per_lane_per_chain() {
        assert_eq!(block_flops(Width::Avx512, 10), (10 * 12 * 8 * 2) as f64);
        assert_eq!(block_flops(Width::Scalar, 1), 24.0);
    }

    #[test]
    fn calibration_is_independent_of_the_repo() {
        // The denominator must not move when the repo's kernels do: outside
        // this test module the file may name nothing but `std`.
        let code = include_str!("calib.rs");
        let shipped = code.split("#[cfg(test)]").next().expect("non-test part");
        for (i, line) in shipped.lines().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for reach in ["ftgemm", "crate::", "super::"] {
                assert!(
                    !line.contains(reach),
                    "calib.rs line {} reaches outside std: {line}",
                    i + 1
                );
            }
        }
    }
}
