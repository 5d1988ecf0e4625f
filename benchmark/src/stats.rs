//! Order statistics over rounds and samples: the one place the benchmark
//! turns raw timings into reported numbers.

/// Median and quartiles of a sample, as the benchmark reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
/// (the "exclusive" method), so a spread computed here matches one computed
/// from the printed values. A single value is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let v = sorted(values);
    let m = v.len();
    if m == 1 {
        return Summary {
            n: 1,
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n: m,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Percentiles the benchmark may report, lowest first.
const PERCENTILES: [(f64, &str); 5] = [
    (0.50, "p50"),
    (0.90, "p90"),
    (0.95, "p95"),
    (0.99, "p99"),
    (0.999, "p99.9"),
];

/// The highest percentile that still has at least ten samples beyond it in
/// a sample of `n`; `None` when even the median does not (n < 20).
pub fn supported_percentile(n: usize) -> Option<(f64, &'static str)> {
    PERCENTILES
        .iter()
        .rev()
        .find(|(p, _)| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
        .copied()
}

/// Nearest-rank percentile `p` in `[0, 1]` of a sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A tail percentile reported under a fixed metric name: the value at the
/// wanted percentile when the sample supports it, else at the highest one
/// it does support (and the record says which).
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub used: &'static str,
    pub n: usize,
}

pub fn tail(values: &[f64], wanted: f64) -> Tail {
    let (p, used) = match supported_percentile(values.len()) {
        Some((p, label)) if p <= wanted => (p, label),
        Some(_) => PERCENTILES
            .iter()
            .rev()
            .find(|(p, _)| *p <= wanted + 1e-12)
            .copied()
            .expect("wanted percentile is at least the median"),
        None => (0.5, "p50"),
    };
    Tail {
        value: percentile(values, p),
        used,
        n: values.len(),
    }
}

/// The three measured configurations of every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// `FtPolicy::Off`.
    Off,
    /// `FtPolicy::DetectCorrect`, no faults.
    Ft,
    /// `DetectCorrect` with errors injected and corrected.
    Inj,
}

impl Arm {
    pub const ALL: [Arm; 3] = [Arm::Off, Arm::Ft, Arm::Inj];

    pub fn name(self) -> &'static str {
        match self {
            Arm::Off => "off",
            Arm::Ft => "ft",
            Arm::Inj => "inj",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Arm order of a round: rotated by one each round, so over any three
/// consecutive rounds every arm runs first, second and third once and a
/// drift inside a round does not favour one arm.
pub fn arm_order(round: usize) -> [Arm; 3] {
    let mut order = Arm::ALL;
    order.rotate_left(round % 3);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn median_over_24_rounds_ignores_outliers() {
        let mut rounds = vec![1.0; 24];
        rounds[3] = 100.0;
        rounds[17] = 0.01;
        assert_eq!(median(&rounds), 1.0);
        let s = summarize(&rounds);
        assert_eq!((s.q1, s.q3), (1.0, 1.0));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20).unwrap().1, "p50");
        assert_eq!(supported_percentile(99).unwrap().1, "p50");
        assert_eq!(supported_percentile(100).unwrap().1, "p90");
        assert_eq!(supported_percentile(200).unwrap().1, "p95");
        assert_eq!(supported_percentile(999).unwrap().1, "p95");
        assert_eq!(supported_percentile(1000).unwrap().1, "p99");
        assert_eq!(supported_percentile(10_000).unwrap().1, "p99.9");
    }

    #[test]
    fn tail_falls_back_when_the_sample_is_small() {
        let v: Vec<f64> = (1..=1200).map(f64::from).collect();
        let t = tail(&v, 0.99);
        assert_eq!((t.used, t.n), ("p99", 1200));
        assert_eq!(t.value, 1188.0);
        let t = tail(&v[..150], 0.99);
        assert_eq!(t.used, "p90");
        assert_eq!(t.value, 135.0);
        // A large sample never reports beyond what was asked for.
        let big: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&big, 0.99).used, "p99");
        assert_eq!(tail(&v[..5], 0.99).used, "p50");
    }

    #[test]
    fn arm_order_rotates_through_every_position() {
        assert_eq!(arm_order(0), [Arm::Off, Arm::Ft, Arm::Inj]);
        assert_eq!(arm_order(1), [Arm::Ft, Arm::Inj, Arm::Off]);
        assert_eq!(arm_order(2), [Arm::Inj, Arm::Off, Arm::Ft]);
        assert_eq!(arm_order(3), arm_order(0));
        for pos in 0..3 {
            let mut seen: Vec<Arm> = (0..3).map(|r| arm_order(r)[pos]).collect();
            seen.sort_by_key(|a| a.index());
            assert_eq!(seen, Arm::ALL);
        }
    }
}
