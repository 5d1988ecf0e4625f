//! Minimal CLI argument handling shared by the experiment binaries.

/// Common options for every experiment binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Use the paper's full-size sweeps instead of the scaled defaults.
    pub paper_sizes: bool,
    /// Explicit size list (overrides both defaults).
    pub sizes: Option<Vec<usize>>,
    /// Timed repetitions per point (paper: 20).
    pub reps: usize,
    /// Warm-up runs per point.
    pub warmup: usize,
    /// Thread count for parallel experiments (default: all cores).
    pub threads: usize,
    /// Output directory for CSV files.
    pub out_dir: String,
    /// Injected error count for the error-injection figures (paper: 20).
    pub errors: usize,
    /// Campaign duration in seconds for the reliability experiment.
    pub duration_secs: u64,
    /// CI smoke mode: two tiny sizes, one repetition, no warm-up, a handful
    /// of injected errors — just enough to prove the binary and its CSV
    /// emitters still work.
    pub smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            paper_sizes: false,
            sizes: None,
            reps: 3,
            warmup: 1,
            threads: ftgemm::core::cpu::num_cpus(),
            out_dir: "bench_results".to_string(),
            errors: 20,
            duration_secs: 10,
            smoke: false,
        }
    }
}

impl Args {
    /// Parses `std::env::args`, exiting with usage on error.
    pub fn parse() -> Args {
        let mut args = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--paper-sizes" => args.paper_sizes = true,
                "--sizes" => {
                    let v = it.next().unwrap_or_else(|| usage("--sizes needs a value"));
                    args.sizes = Some(
                        v.split(',')
                            .map(|s| s.trim().parse().unwrap_or_else(|_| usage("bad size")))
                            .collect(),
                    );
                }
                "--smoke" => {
                    args.smoke = true;
                    args.reps = 1;
                    args.warmup = 0;
                    args.errors = 3;
                }
                "--reps" => args.reps = next_num(&mut it, "--reps"),
                "--warmup" => args.warmup = next_num(&mut it, "--warmup"),
                "--threads" => args.threads = next_num(&mut it, "--threads"),
                "--errors" => args.errors = next_num(&mut it, "--errors"),
                "--duration" => args.duration_secs = next_num(&mut it, "--duration") as u64,
                "--out" => {
                    args.out_dir = it.next().unwrap_or_else(|| usage("--out needs a value"));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// Resolves the size list for the serial sweep.
    pub fn serial_sizes(&self) -> Vec<usize> {
        self.sizes_or(crate::paper_serial_sizes, crate::scaled_serial_sizes)
    }

    /// Resolves the size list for the parallel sweep.
    pub fn parallel_sizes(&self) -> Vec<usize> {
        self.sizes_or(crate::paper_parallel_sizes, crate::scaled_parallel_sizes)
    }

    fn sizes_or(&self, paper: fn() -> Vec<usize>, scaled: fn() -> Vec<usize>) -> Vec<usize> {
        match &self.sizes {
            Some(sizes) => sizes.clone(),
            None if self.smoke => vec![48, 64],
            None if self.paper_sizes => paper(),
            None => scaled(),
        }
    }
}

fn next_num(it: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a numeric value")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "FT-GEMM experiment harness\n\
         \n\
         Flags:\n\
           --paper-sizes         full-size sweeps from the paper (hours!)\n\
           --sizes a,b,c         explicit size list\n\
           --reps N              timed repetitions per point (default 3; paper 20)\n\
           --warmup N            warm-up runs per point (default 1)\n\
           --threads N           threads for parallel experiments (default: all)\n\
           --errors N            injected errors per run for the injection figures (default 20)\n\
           --duration SECS       reliability campaign duration (default 10)\n\
           --smoke               CI smoke mode: two tiny sizes, 1 rep, no warm-up, 3 errors\n\
           --out DIR             CSV output directory (default bench_results)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let a = Args::default();
        assert!(!a.paper_sizes);
        assert!(!a.smoke);
        assert!(a.reps >= 1);
        assert!(a.threads >= 1);
    }

    #[test]
    fn size_resolution() {
        let mut a = Args::default();
        assert_eq!(a.serial_sizes(), crate::scaled_serial_sizes());
        a.paper_sizes = true;
        assert_eq!(a.serial_sizes(), crate::paper_serial_sizes());
        a.sizes = Some(vec![64, 128]);
        assert_eq!(a.serial_sizes(), vec![64, 128]);
        assert_eq!(a.parallel_sizes(), vec![64, 128]);
    }
}
