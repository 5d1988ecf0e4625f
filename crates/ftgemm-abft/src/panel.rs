//! The ABFT step: the paper's "red" operations (Fig. 1), written once.
//!
//! Fault-tolerant GEMM is the plain GEMM loop nest with five operations
//! threaded through it, and the nest ([`crate::nest`]) — whichever team runs
//! it — calls these five functions for them, under `if PROTECT`:
//!
//! * [`encode_base`] — `C *= beta` with the initial `enc_*` encode (§2.2);
//! * [`pack_b`] — `B~` with `B_c` and the `enc_col` update;
//! * [`pack_a`] — `A~` with the `enc_row` update;
//! * [`inject`] — source-level fault injection at a macro-kernel site (§3.2);
//! * [`verify`] — "p-loop: verify": threshold, locate, correct.
//!
//! The three encode/pack functions are the only place a [`FusionConfig`]
//! switch is read for its pass, and [`verify`] is the only caller of the
//! corrector, so a verdict is the same arithmetic in the same order on
//! every execution path. What the nest owns is the rest: which slice of the
//! block a team member works on, how partial sums are reduced, and what
//! happens after `verify` returns `Err` (a rollback within the budget, or an
//! abort, decided on thread 0 and published to the team).

use crate::checksum;
use crate::corrector::{correct_block, find_discrepancies, CorrectionOutcome};
use crate::faults::ErrorEvent;
use crate::{FtConfig, FtReport, FusionConfig};
use ftgemm_core::{pack, MatMut, MatRef, Scalar};

/// Base state of a (slice of a) column block: scales `c` by `beta` and
/// overwrites `enc_row` / `enc_col` with the scaled block's checksums. `base`
/// is the rollback snapshot of [`checksum::scale_encode_c`]. At `beta == 0`
/// `c` is neither read nor written — the checksums of an all-zero base are
/// zeros and the caller's first depth panel runs the macro-kernel in store
/// mode — so `fuse_c_scale` has nothing to choose between there.
pub fn encode_base<T: Scalar>(
    fusion: FusionConfig,
    c: &mut MatMut<'_, T>,
    beta: T,
    enc_row: &mut [T],
    enc_col: &mut [T],
    base: Option<&mut [T]>,
) {
    if fusion.fuse_c_scale {
        checksum::scale_encode_c(c, beta, enc_row, enc_col, base);
    } else {
        checksum::scale_then_encode_c(c, beta, enc_row, enc_col, base);
    }
}

/// Packs a `k x n` panel of `B` into `out` and folds it into the checksums:
/// `bc` (`B_c`; zeroed by the caller, accumulated here) and
/// `enc_col += ar * B`, with `ar` the panel's slice of `alpha * e^T A`.
pub fn pack_b<T: Scalar>(
    fusion: FusionConfig,
    b: &MatRef<'_, T>,
    nr: usize,
    out: &mut [T],
    ar: &[T],
    bc: &mut [T],
    enc_col: &mut [T],
) {
    if fusion.fuse_b_pack {
        pack::pack_b_fused(b, nr, out, ar, bc, enc_col);
    } else {
        pack::pack_b(b, nr, out);
        checksum::encode_bc(b, bc);
        checksum::accumulate_enc_col(b, ar, enc_col);
    }
}

/// Packs an `m x k` block of `A` (scaled by `alpha`) into `out` and folds it
/// into the row checksums: `enc_row += alpha * A * bc`, with `bc` the reduced
/// `B_c` of the current panel.
pub fn pack_a<T: Scalar>(
    fusion: FusionConfig,
    a: &MatRef<'_, T>,
    alpha: T,
    mr: usize,
    out: &mut [T],
    bc: &[T],
    enc_row: &mut [T],
) {
    if fusion.fuse_a_pack {
        pack::pack_a_fused(a, alpha, mr, out, bc, enc_row);
    } else {
        pack::pack_a(a, alpha, mr, out);
        checksum::accumulate_enc_row(a, alpha, bc, enc_row);
    }
}

/// Source-level fault injection (paper §3.2): corrupts one element of the
/// tile a macro-kernel call just computed, exactly as a faulty FMA would.
/// The event's lane picks the victim, `(lane % rows, (lane / rows) % cols)`.
///
/// Returns the victim's position within `c_block` and `new - old`. A nest
/// that takes reference checksums at register level adds that delta to its
/// `ref_row` / `ref_col` entries (the kernel would have summed the corrupted
/// value); the encoded checksums never see it.
pub fn inject<T: Scalar>(event: &ErrorEvent, c_block: &mut MatMut<'_, T>) -> (usize, usize, T) {
    let (rows, cols) = (c_block.nrows() as u64, c_block.ncols() as u64);
    let i = (event.lane % rows) as usize;
    let j = ((event.lane / rows) % cols) as usize;
    let old = c_block.get(i, j);
    let new = T::from_f64(event.apply_f64(old.to_f64()));
    c_block.set(i, j, new);
    (i, j, new - old)
}

/// "p-loop: verify" (paper Fig. 1): compares encoded against reference
/// checksums of the whole column block after `k_done` of depth, and locates
/// and repairs what differs in `c_block`. Counts into `report` and into the
/// attached injector's stats.
///
/// `correction_scale` is the nest's per-column-block memory of the largest
/// correction applied so far (zero at the block's base state): correcting an
/// error of magnitude `d` leaves an `O(eps * d)` roundoff residual at the
/// repaired element, which later verifications of the block must treat as
/// noise.
///
/// `Err(detail)` is a pattern the corrector cannot resolve: `c_block` is
/// still wrong and the nest applies the recovery policy.
pub fn verify<T: Scalar>(
    cfg: &FtConfig,
    k_done: usize,
    (enc_row, ref_row): (&[T], &[T]),
    (enc_col, ref_col): (&[T], &[T]),
    c_block: &mut MatMut<'_, T>,
    correction_scale: &mut T,
    report: &mut FtReport,
) -> Result<(), String> {
    report.verifications += 1;
    // Scale from the *encoded* checksums only: they are computed from clean
    // inputs, so a huge corrupted reference value cannot inflate the
    // threshold and mask smaller concurrent errors.
    let max_abs = |s: &[T]| s.iter().fold(T::ZERO, |acc, &x| acc.max(x.abs()));
    let scale = max_abs(enc_row)
        .max(max_abs(enc_col))
        .max(*correction_scale);
    let th_row = cfg.tolerance.threshold(k_done, enc_col.len(), scale);
    let th_col = cfg.tolerance.threshold(k_done, enc_row.len(), scale);
    let row_diffs = find_discrepancies(enc_row, ref_row, th_row);
    let col_diffs = find_discrepancies(enc_col, ref_col, th_col);
    if row_diffs.is_empty() && col_diffs.is_empty() {
        return Ok(());
    }
    *correction_scale = row_diffs
        .iter()
        .chain(col_diffs.iter())
        .fold(*correction_scale, |acc, d| acc.max(d.delta.abs()));
    match correct_block(c_block, &row_diffs, &col_diffs, th_row.max(th_col)) {
        CorrectionOutcome::Clean => Ok(()),
        CorrectionOutcome::Corrected { count } => {
            report.detected += count;
            report.corrected += count;
            if let Some(inj) = cfg.injector.as_ref() {
                for _ in 0..count {
                    inj.stats().record_detected();
                    inj.stats().record_corrected();
                }
            }
            Ok(())
        }
        CorrectionOutcome::Unrecoverable { detail } => {
            if let Some(inj) = cfg.injector.as_ref() {
                inj.stats().record_unrecoverable();
            }
            Err(detail)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ErrorModel, FaultInjector, Rate};
    use ftgemm_core::Matrix;

    /// A clean 16 x 12 block, a copy with `errors` added, and one `verify`
    /// of the copy (encoded sums from the clean block, reference sums from
    /// the corrupted one) starting from `correction_scale`.
    fn verify_corrupted(
        errors: &[(usize, usize, f64)],
        mut correction_scale: f64,
    ) -> (Matrix<f64>, Matrix<f64>, FtReport, f64) {
        let clean = Matrix::<f64>::random(16, 12, 99);
        let mut dirty = clean.clone();
        for &(i, j, d) in errors {
            dirty.set(i, j, dirty.get(i, j) + d);
        }
        let sums = |c: &Matrix<f64>| {
            let (mut row, mut col) = (vec![0.0; 16], vec![0.0; 12]);
            checksum::encode_c(&c.as_ref(), &mut row, &mut col);
            (row, col)
        };
        let ((enc_row, enc_col), (ref_row, ref_col)) = (sums(&clean), sums(&dirty));
        let mut report = FtReport::default();
        verify(
            &FtConfig::default(),
            64,
            (&enc_row, &ref_row),
            (&enc_col, &ref_col),
            &mut dirty.as_mut(),
            &mut correction_scale,
            &mut report,
        )
        .unwrap();
        assert_eq!(report.verifications, 1);
        (clean, dirty, report, correction_scale)
    }

    #[test]
    fn a_huge_error_does_not_mask_a_small_one_in_the_same_verification() {
        // The threshold scale comes from the encoded sums only. Taken from
        // the reference sums too, the 1e300 would lift it to ~1e287 and the
        // 1e-3 error would pass as roundoff.
        let (clean, fixed, report, scale) = verify_corrupted(&[(2, 3, 1e300), (9, 8, 1e-3)], 0.0);
        assert_eq!((report.detected, report.corrected), (2, 2), "{report:?}");
        assert!((fixed.get(9, 8) - clean.get(9, 8)).abs() < 1e-12);
        // The huge one is repaired to within eps * 1e300 of its value (the
        // residual `correction_scale` exists for), not left at 1e300.
        assert!(fixed.get(2, 3).abs() < 1e285);
        assert!(scale > 1e299);
    }

    #[test]
    fn an_earlier_large_correction_turns_a_small_discrepancy_into_noise() {
        let (clean, fixed, report, scale) = verify_corrupted(&[(5, 7, 1e-4)], 0.0);
        assert_eq!((report.detected, report.corrected), (1, 1), "{report:?}");
        assert!(clean.max_abs_diff(&fixed) < 1e-12);
        assert!((scale - 1e-4).abs() < 1e-12);

        // Same discrepancy after a 1e12 correction in this column block:
        // inside the eps * 1e12 residual that repair may have left behind.
        let (clean, left, report, scale) = verify_corrupted(&[(5, 7, 1e-4)], 1e12);
        assert_eq!((report.detected, report.corrected), (0, 0), "{report:?}");
        assert!((left.get(5, 7) - clean.get(5, 7) - 1e-4).abs() < 1e-12);
        assert_eq!(scale, 1e12);
    }

    /// The guarantee the corrector keeps: every pattern
    /// of one or two errors in one verification is repaired or fails stop,
    /// never `Ok` over a wrong block. Exhaustive over every position and
    /// pair of positions of three small blocks, every ordered pair of
    /// deltas, and three clean blocks per shape. Three errors can alias a
    /// two-error syndrome, so no such claim is made for them.
    #[test]
    fn every_one_and_two_error_pattern_is_corrected_or_fails_stop() {
        let deltas = [1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1e3, -1e3];
        let mut checked = 0;
        for (rows, cols) in [(4, 4), (5, 3), (3, 5)] {
            let cells: Vec<(usize, usize)> = (0..cols)
                .flat_map(|j| (0..rows).map(move |i| (i, j)))
                .collect();
            let mut patterns: Vec<Vec<(usize, usize, f64)>> = Vec::new();
            for (x, &(i, j)) in cells.iter().enumerate() {
                patterns.extend(deltas.iter().map(|&d| vec![(i, j, d)]));
                for &(i2, j2) in &cells[x + 1..] {
                    for &d in &deltas {
                        patterns.extend(deltas.iter().map(|&d2| vec![(i, j, d), (i2, j2, d2)]));
                    }
                }
            }
            for seed in 1..=3 {
                let clean = Matrix::<f64>::random(rows, cols, seed);
                let sums = |c: &Matrix<f64>| {
                    let (mut row, mut col) = (vec![0.0; rows], vec![0.0; cols]);
                    checksum::encode_c(&c.as_ref(), &mut row, &mut col);
                    (row, col)
                };
                let (enc_row, enc_col) = sums(&clean);
                for errors in &patterns {
                    let mut dirty = clean.clone();
                    for &(i, j, d) in errors {
                        dirty.set(i, j, dirty.get(i, j) + d);
                    }
                    let (ref_row, ref_col) = sums(&dirty);
                    let verdict = verify(
                        &FtConfig::default(),
                        64,
                        (&enc_row, &ref_row),
                        (&enc_col, &ref_col),
                        &mut dirty.as_mut(),
                        &mut 0.0,
                        &mut FtReport::default(),
                    );
                    let off = clean.max_abs_diff(&dirty);
                    assert!(
                        verdict.is_err() || off <= 1e-9,
                        "silent: {rows}x{cols} seed {seed} {errors:?} left an element {off} off"
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 64_464);
    }

    #[test]
    fn inject_maps_the_lane_onto_a_ragged_block() {
        let inj = FaultInjector::new(1, ErrorModel::Additive { magnitude: 8.0 }, Rate::Count(1));
        let mut event = inj.stream(0, 1).poll().expect("one error over one site");
        // A 5 x 3 tile inside a 9 x 7 matrix (leading dimension 9): lane 38
        // is row 38 % 5 = 3, column (38 / 5) % 3 = 1.
        event.lane = 38;
        let before = Matrix::<f64>::random(9, 7, 4);
        let mut after = before.clone();
        let (i, j, delta) = inject(&event, &mut after.as_mut().submatrix_mut(2, 1, 5, 3));
        assert_eq!((i, j), (3, 1));
        assert!((4.0..12.0).contains(&delta.abs()), "{delta}");
        for col in 0..7 {
            for row in 0..9 {
                let want = if (row, col) == (2 + 3, 1 + 1) {
                    delta
                } else {
                    0.0
                };
                assert_eq!(after.get(row, col) - before.get(row, col), want);
            }
        }
    }
}
