//! Runtime CPU capability detection and the cache-hierarchy model that
//! drives blocking-parameter selection.
//!
//! The paper targets Intel Cascade Lake (AVX-512, 32 KiB L1d, 1 MiB private
//! L2, shared L3). We detect the best available instruction tier at runtime
//! and fall back gracefully: AVX-512F -> AVX2+FMA -> portable.

use std::fmt;

/// Instruction-set tier a micro-kernel is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsaLevel {
    /// Plain Rust, auto-vectorized by LLVM. Always available.
    Portable,
    /// 256-bit AVX2 + FMA3 (`std::arch` intrinsics).
    Avx2Fma,
    /// 512-bit AVX-512F (`std::arch` intrinsics).
    Avx512,
}

impl IsaLevel {
    /// Highest tier supported by the executing CPU.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return IsaLevel::Avx512;
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return IsaLevel::Avx2Fma;
            }
        }
        IsaLevel::Portable
    }

    /// All tiers supported on this CPU, best first.
    pub fn available() -> Vec<IsaLevel> {
        let best = Self::detect();
        let mut v = Vec::new();
        if best >= IsaLevel::Avx512 {
            v.push(IsaLevel::Avx512);
        }
        if best >= IsaLevel::Avx2Fma {
            v.push(IsaLevel::Avx2Fma);
        }
        v.push(IsaLevel::Portable);
        v
    }
}

impl fmt::Display for IsaLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IsaLevel::Portable => "portable",
            IsaLevel::Avx2Fma => "avx2-fma",
            IsaLevel::Avx512 => "avx512",
        };
        f.write_str(s)
    }
}

/// Cache-hierarchy description used to size the GEMM blocking parameters.
///
/// Values are per-core for L1/L2 and shared for L3, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheInfo {
    /// L1 data cache size per core.
    pub l1d: usize,
    /// Private L2 size per core.
    pub l2: usize,
    /// Shared last-level cache size.
    pub l3: usize,
    /// Cache line size.
    pub line: usize,
}

impl CacheInfo {
    /// Cascade Lake-like defaults (the paper's Xeon W-2255): 32 KiB L1d,
    /// 1 MiB L2 per core, ~19 MiB shared L3.
    pub const CASCADE_LAKE: CacheInfo = CacheInfo {
        l1d: 32 * 1024,
        l2: 1024 * 1024,
        l3: 19 * 1024 * 1024,
        line: 64,
    };

    /// Attempts to read the hierarchy from sysfs (Linux); falls back to
    /// [`CacheInfo::CASCADE_LAKE`] on any failure so the library works in
    /// containers that mask `/sys`.
    pub fn detect() -> CacheInfo {
        Self::from_sysfs().unwrap_or(Self::CASCADE_LAKE)
    }

    fn from_sysfs() -> Option<CacheInfo> {
        #[cfg(target_os = "linux")]
        {
            fn read_kb(path: &str) -> Option<usize> {
                let s = std::fs::read_to_string(path).ok()?;
                let s = s.trim();
                let kb = s.strip_suffix('K').or_else(|| s.strip_suffix("K\n"))?;
                kb.parse::<usize>().ok().map(|v| v * 1024)
            }
            let base = "/sys/devices/system/cpu/cpu0/cache";
            let l1d = read_kb(&format!("{base}/index0/size"))?;
            let l2 = read_kb(&format!("{base}/index2/size"))?;
            let l3 = read_kb(&format!("{base}/index3/size")).unwrap_or(CacheInfo::CASCADE_LAKE.l3);
            Some(CacheInfo {
                l1d,
                l2,
                l3,
                line: 64,
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            None
        }
    }
}

/// Number of logical CPUs available to this process.
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_consistent() {
        let a = IsaLevel::detect();
        let b = IsaLevel::detect();
        assert_eq!(a, b);
    }

    #[test]
    fn available_ordered_best_first() {
        let tiers = IsaLevel::available();
        assert!(!tiers.is_empty());
        assert_eq!(*tiers.last().unwrap(), IsaLevel::Portable);
        for w in tiers.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(IsaLevel::Avx512.to_string(), "avx512");
        assert_eq!(IsaLevel::Portable.to_string(), "portable");
    }

    #[test]
    fn cache_defaults_sane() {
        let c = CacheInfo::detect();
        assert!(c.l1d >= 8 * 1024);
        assert!(c.l2 >= c.l1d);
        assert!(c.l3 >= c.l2);
        assert_eq!(c.line, 64);
    }

    #[test]
    fn num_cpus_positive() {
        assert!(num_cpus() >= 1);
    }
}
