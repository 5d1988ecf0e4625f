//! Output checks that share no code with the program under test, and the
//! tally that turns their verdicts into `attempted` / `failed` /
//! `silent_corruptions`.
//!
//! All matrices are column-major slices: element `(i, j)` of an `r x c`
//! matrix is at `i + j * r`.

use crate::stats::Arm;

/// Relative tolerance of Freivalds' check against `|A|·(|B|·x)`'s scale.
pub const FREIVALDS_TOL: f64 = 1e-9;
/// Relative tolerance of the element-wise check. Looser than roundoff on
/// purpose: a corrected 1e6-sized injected error leaves an `eps * 1e6`
/// residual, and anything the checksums missed is orders of magnitude
/// above this.
pub const ELEMENTWISE_TOL: f64 = 1e-8;

/// `y = M·x` for a column-major `rows x cols` matrix.
fn matvec(m: &[f64], rows: usize, cols: usize, x: &[f64]) -> Vec<f64> {
    assert_eq!(m.len(), rows * cols);
    assert_eq!(x.len(), cols);
    let mut y = vec![0.0; rows];
    for (j, xj) in x.iter().enumerate() {
        let col = &m[j * rows..(j + 1) * rows];
        for (yi, mij) in y.iter_mut().zip(col) {
            *yi += mij * xj;
        }
    }
    y
}

/// Freivalds' check of `C = A·B` (`A` is `m x k`, `B` is `k x n`): compares
/// `C·x` with `A·(B·x)` in `O(mn)` per check once `A·(B·x)` is known. A
/// wrong element `(i, j)` shifts entry `i` of `C·x` by `error * x[j]`, and
/// `x` has no small entries, so a single corrupted element cannot hide.
#[derive(Debug, Clone)]
pub struct Freivalds {
    rows: usize,
    x: Vec<f64>,
    want: Vec<f64>,
    scale: f64,
}

impl Freivalds {
    /// Precomputes `A·(B·x)` for operands that stay fixed across checks.
    pub fn new(a: &[f64], b: &[f64], (m, n, k): (usize, usize, usize), x: Vec<f64>) -> Self {
        let want = matvec(a, m, k, &matvec(b, k, n, &x));
        let scale = want.iter().fold(0.0f64, |s, v| s.max(v.abs())).max(1.0);
        Freivalds {
            rows: m,
            x,
            want,
            scale,
        }
    }

    pub fn check(&self, c: &[f64]) -> bool {
        if c.len() != self.rows * self.x.len() {
            return false;
        }
        let got = matvec(c, self.rows, self.x.len(), &self.x);
        self.want
            .iter()
            .zip(&got)
            .all(|(w, g)| (w - g).abs() <= FREIVALDS_TOL * self.scale)
    }
}

/// The benchmark's own triple loop, `C = A·B`.
pub fn naive_gemm(a: &[f64], b: &[f64], (m, n, k): (usize, usize, usize)) -> Vec<f64> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0.0; m * n];
    for j in 0..n {
        for p in 0..k {
            let bpj = b[p + j * k];
            let a_col = &a[p * m..(p + 1) * m];
            let c_col = &mut c[j * m..(j + 1) * m];
            for (cij, aip) in c_col.iter_mut().zip(a_col) {
                *cij += aip * bpj;
            }
        }
    }
    c
}

/// Element-wise comparison against an expected result, relative to the
/// expected matrix's largest magnitude. NaN anywhere fails.
pub fn matches_expected(got: &[f64], want: &[f64]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let scale = want.iter().fold(0.0f64, |s, v| s.max(v.abs())).max(1.0);
    got.iter()
        .zip(want)
        .all(|(g, w)| (g - w).abs() <= ELEMENTWISE_TOL * scale)
}

/// What became of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Returned `Ok` and its result was not selected for checking.
    Unchecked,
    /// Returned `Ok` and passed the check.
    Verified,
    /// Returned `Ok` with a result that fails the check: the one thing a
    /// fault-tolerant GEMM must never do.
    SilentCorruption,
    /// Returned an error (`Unrecoverable`, `Overloaded`, `Closed`, a wire
    /// error frame, ...), or never finished.
    Errored,
}

/// Per-arm operation counts of one workload run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmTally {
    pub attempted: u64,
    pub failed: u64,
    pub verified: u64,
    pub silent_corruptions: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    arms: [ArmTally; 3],
    /// First few failure messages, for the record.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, arm: Arm, outcome: Outcome) {
        let t = &mut self.arms[arm.index()];
        t.attempted += 1;
        match outcome {
            Outcome::Unchecked => {}
            Outcome::Verified => t.verified += 1,
            Outcome::SilentCorruption => {
                t.failed += 1;
                t.silent_corruptions += 1;
            }
            Outcome::Errored => t.failed += 1,
        }
    }

    /// Operations that were due but never ran (a watchdog expiry): they
    /// count as attempted and failed.
    pub fn record_unfinished(&mut self, arm: Arm, ops: u64) {
        let t = &mut self.arms[arm.index()];
        t.attempted += ops;
        t.failed += ops;
    }

    pub fn note(&mut self, msg: impl Into<String>) {
        if self.notes.len() < 8 {
            self.notes.push(msg.into());
        }
    }

    pub fn arm(&self, arm: Arm) -> ArmTally {
        self.arms[arm.index()]
    }

    pub fn attempted(&self) -> u64 {
        self.arms.iter().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.arms.iter().map(|t| t.failed).sum()
    }

    pub fn silent_corruptions(&self) -> u64 {
        self.arms.iter().map(|t| t.silent_corruptions).sum()
    }

    /// The run's verdict: every operation succeeded and every checked
    /// result was right.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.attempted() > 0
    }

    /// Process exit code for a finished run: any silent corruption or
    /// failed operation is a nonzero exit.
    pub fn exit_code(&self) -> i32 {
        if self.silent_corruptions() > 0 {
            2
        } else if !self.correct() {
            1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    fn problem(m: usize, n: usize, k: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = Rng::new(11, 0);
        let mut a = vec![0.0; m * k];
        let mut b = vec![0.0; k * n];
        rng.fill_symmetric(&mut a);
        rng.fill_symmetric(&mut b);
        let c = naive_gemm(&a, &b, (m, n, k));
        let x = rng.probe_vector(n);
        (a, b, c, x)
    }

    #[test]
    fn naive_gemm_is_right_on_a_hand_example() {
        // A = [1 3; 2 4], B = [5 7; 6 8] (column-major below).
        let c = naive_gemm(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], (2, 2, 2));
        assert_eq!(c, vec![23.0, 34.0, 31.0, 46.0]);
    }

    #[test]
    fn both_checks_pass_a_correct_result() {
        let (a, b, c, x) = problem(37, 29, 41);
        let f = Freivalds::new(&a, &b, (37, 29, 41), x);
        assert!(f.check(&c));
        assert!(matches_expected(&c, &c.clone()));
    }

    #[test]
    fn one_planted_wrong_element_fails_both_checks() {
        let (a, b, c, x) = problem(37, 29, 41);
        let f = Freivalds::new(&a, &b, (37, 29, 41), x);
        for (idx, delta) in [(0usize, 1e-3), (500, -2.5), (37 * 29 - 1, 1.0e6)] {
            let mut bad = c.clone();
            bad[idx] += delta;
            assert!(!f.check(&bad), "freivalds missed {delta} at {idx}");
            assert!(
                !matches_expected(&bad, &c),
                "element-wise missed {delta} at {idx}"
            );
        }
        let mut nan = c.clone();
        nan[3] = f64::NAN;
        assert!(!f.check(&nan));
        assert!(!f.check(&c[1..]), "a result of the wrong size must fail");
        assert!(!matches_expected(&nan, &c));
    }

    #[test]
    fn roundoff_sized_differences_pass() {
        let (a, b, c, x) = problem(24, 24, 24);
        let mut near = c.clone();
        for v in near.iter_mut() {
            *v *= 1.0 + 4.0 * f64::EPSILON;
        }
        assert!(Freivalds::new(&a, &b, (24, 24, 24), x).check(&near));
        assert!(matches_expected(&near, &c));
    }

    #[test]
    fn a_planted_err_lands_in_failed() {
        let mut t = Tally::default();
        t.record(Arm::Ft, Outcome::Verified);
        t.record(Arm::Ft, Outcome::Unchecked);
        assert!(t.correct());
        assert_eq!(t.exit_code(), 0);
        t.record(Arm::Inj, Outcome::Errored);
        assert_eq!(t.arm(Arm::Inj).failed, 1);
        assert_eq!(
            (t.attempted(), t.failed(), t.silent_corruptions()),
            (3, 1, 0)
        );
        assert!(!t.correct());
        assert_eq!(t.exit_code(), 1);
    }

    #[test]
    fn a_silent_corruption_forces_a_nonzero_exit() {
        let mut t = Tally::default();
        t.record(Arm::Off, Outcome::Verified);
        t.record(Arm::Inj, Outcome::SilentCorruption);
        assert_eq!(t.silent_corruptions(), 1);
        assert_eq!(t.failed(), 1);
        assert_eq!(t.exit_code(), 2);
    }

    #[test]
    fn unfinished_operations_count_as_failed() {
        let mut t = Tally::default();
        t.record(Arm::Off, Outcome::Verified);
        t.record_unfinished(Arm::Ft, 5);
        assert_eq!((t.attempted(), t.failed()), (6, 5));
        assert_ne!(t.exit_code(), 0);
    }

    #[test]
    fn an_empty_run_is_not_correct() {
        assert!(!Tally::default().correct());
    }
}
