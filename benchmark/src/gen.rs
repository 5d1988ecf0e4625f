//! The benchmark's own seeded input generator. The program under test only
//! ever receives matrices made here; the same seed gives the same inputs.

/// SplitMix64: small, fast, and good enough for dense random operands.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`stream`) under one benchmark seed, so that
    /// operands, shapes and probe vectors never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[-1, 1)`: the operand distribution of every workload.
    pub fn symmetric(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    pub fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[(self.next_u64() % choices.len() as u64) as usize]
    }

    pub fn fill_symmetric(&mut self, out: &mut [f64]) {
        for v in out {
            *v = self.symmetric();
        }
    }

    /// Probe vector for Freivalds' check: entries in `[0.5, 1.5)`, so no
    /// column of the checked matrix is multiplied by (nearly) zero.
    pub fn probe_vector(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| 0.5 + self.unit()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_values_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }

    #[test]
    fn symmetric_covers_the_interval() {
        let mut r = Rng::new(7, 0);
        let v: Vec<f64> = (0..10_000).map(|_| r.symmetric()).collect();
        assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!(v.iter().any(|x| *x < -0.9) && v.iter().any(|x| *x > 0.9));
    }

    #[test]
    fn probe_vector_has_no_small_entries() {
        let mut r = Rng::new(3, 9);
        assert!(r.probe_vector(1000).iter().all(|x| (0.5..1.5).contains(x)));
    }
}
