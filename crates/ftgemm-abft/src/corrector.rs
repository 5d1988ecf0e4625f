//! Error location and correction from checksum discrepancies.
//!
//! After a depth panel, the verifier compares encoded vs reference checksums
//! of a column block of `C`. An error of magnitude `d` at element `(i, j)`
//! shifts `ref_row[i]` and `ref_col[j]` by exactly `d` relative to the
//! encoded values, so the discrepancy pattern locates the error and its
//! algebraic magnitude — correction is exact, not approximate.
//!
//! Supported patterns (per verification interval):
//! * any number of errors in **distinct rows and distinct columns** —
//!   greedy delta-matching pairs them;
//! * several errors sharing **one column** (or one row) — the shared-axis
//!   delta equals the sum of the per-error deltas, and the other axis
//!   resolves each error individually.
//!
//! Colliding patterns beyond that (errors forming a cycle across shared
//! rows *and* columns), and **ambiguous** patterns — several errors of
//! numerically equal magnitude in distinct rows and columns, where every
//! pairing balances the checksums but only one restores the matrix — are
//! reported as unrecoverable rather than guessed at; the caller's recovery
//! policy (e.g. column-block rollback under
//! [`Recovery::RetryPanel`](crate::Recovery::RetryPanel)) takes over. This
//! fail-stop-on-ambiguity contract is pinned by the
//! `tests::equal_delta_errors_distinct_positions` test below and written up
//! in the crate-level docs ("The ambiguity fail-stop contract") and
//! `docs/ARCHITECTURE.md`. It is the same limitation classic row+column
//! ABFT has. The paper verifies every `KC` panel, so the exposure window
//! for such collisions is one panel update.

use ftgemm_core::{MatMut, Scalar};

/// One significant checksum discrepancy: `ref - enc` at `idx`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discrepancy<T: Scalar> {
    /// Row or column index within the verified block.
    pub idx: usize,
    /// `ref − enc`: the net error mass on this line.
    pub delta: T,
}

/// Result of one verify-and-correct pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorrectionOutcome {
    /// No significant discrepancy: the panel is clean.
    Clean,
    /// Errors were located and corrected in place.
    Corrected {
        /// Number of elements repaired.
        count: usize,
    },
    /// The discrepancy pattern cannot be resolved.
    Unrecoverable {
        /// Flagged rows / columns for diagnostics.
        detail: String,
    },
}

/// Scans `enc` vs `reference` and returns significant discrepancies. A
/// non-finite difference is one whatever the threshold: a NaN compares
/// greater than nothing, and a reference sum over `+inf` and `-inf` is NaN.
pub fn find_discrepancies<T: Scalar>(
    enc: &[T],
    reference: &[T],
    threshold: T,
) -> Vec<Discrepancy<T>> {
    debug_assert_eq!(enc.len(), reference.len());
    let mut out = Vec::new();
    for (idx, (&e, &r)) in enc.iter().zip(reference.iter()).enumerate() {
        let delta = r - e;
        if delta.abs() > threshold || !delta.is_finite() {
            out.push(Discrepancy { idx, delta });
        }
    }
    out
}

/// Attempts to locate and repair errors in `c_block` given row/column
/// discrepancies. `threshold` is the same scale used for detection; delta
/// matching uses a multiple of it.
pub fn correct_block<T: Scalar>(
    c_block: &mut MatMut<'_, T>,
    row_diffs: &[Discrepancy<T>],
    col_diffs: &[Discrepancy<T>],
    threshold: T,
) -> CorrectionOutcome {
    if row_diffs.is_empty() && col_diffs.is_empty() {
        return CorrectionOutcome::Clean;
    }
    // An overflowed element cannot be repaired by subtraction (`inf - inf`),
    // and to the delta matching below infinities of opposite sign are within
    // any relative tolerance of each other: pairing them would "correct" two
    // clean elements and report success.
    if row_diffs
        .iter()
        .chain(col_diffs)
        .any(|d| !d.delta.is_finite())
    {
        return CorrectionOutcome::Unrecoverable {
            detail: "non-finite discrepancy: an element overflowed".into(),
        };
    }
    // Matching tolerance: each measured delta is a difference of large
    // sums and carries roundoff proportional to the *error magnitude*
    // itself (an error of 1e7 is located with ~1e7*eps*len slack), so the
    // comparison needs a relative term on top of the detection threshold.
    let match_tol = threshold * T::from_f64(4.0);
    let rel = T::EPSILON * T::from_f64(512.0);
    let close = |a: T, b: T, slack: T| (a - b).abs() <= slack + rel * (a.abs() + b.abs());

    // One axis silent: the error mass on the other axis must itself be
    // explained. A lone-axis discrepancy can only be roundoff straddling the
    // threshold — treat as unrecoverable only if clearly significant.
    if row_diffs.is_empty() || col_diffs.is_empty() {
        let worst = row_diffs
            .iter()
            .chain(col_diffs.iter())
            .map(|d| d.delta.abs())
            .fold(T::ZERO, T::max);
        if worst <= match_tol * T::from_f64(4.0) {
            // Marginal: below a loose bound, classify as roundoff noise.
            return CorrectionOutcome::Clean;
        }
        return CorrectionOutcome::Unrecoverable {
            detail: format!(
                "one-sided discrepancy: {} rows, {} cols",
                row_diffs.len(),
                col_diffs.len()
            ),
        };
    }

    // Iterative peeling over the bipartite discrepancy pattern:
    //
    // 1. While possible, peel a (row, col) pair whose deltas agree —
    //    preferring rows with a *unique* matching column (unambiguous) —
    //    and correct that single element.
    // 2. When only one column (or one row) remains, all residual error mass
    //    lives on that line: if the per-row deltas sum to the column delta,
    //    correct each (row, col) element individually.
    //
    // This resolves any pattern where errors share at most one line per
    // group (the paper-relevant cases: independent errors, plus bursts in
    // one row or one column). Patterns forming cycles across shared rows
    // AND columns remain unrecoverable — the information-theoretic limit of
    // row+column checksums.
    let mut rows: Vec<Discrepancy<T>> = row_diffs.to_vec();
    let mut cols: Vec<Discrepancy<T>> = col_diffs.to_vec();
    let mut corrected = 0usize;

    loop {
        if rows.is_empty() && cols.is_empty() {
            return CorrectionOutcome::Corrected { count: corrected };
        }

        // Single remaining column: rows must explain it exactly.
        if cols.len() == 1 && !rows.is_empty() {
            let col = cols[0];
            let sum_rows = rows.iter().fold(T::ZERO, |acc, d| acc + d.delta);
            if close(sum_rows, col.delta, match_tol * T::from_usize(rows.len())) {
                for r in &rows {
                    let v = c_block.get(r.idx, col.idx);
                    c_block.set(r.idx, col.idx, v - r.delta);
                }
                return CorrectionOutcome::Corrected {
                    count: corrected + rows.len(),
                };
            }
        }
        // Single remaining row: symmetric.
        if rows.len() == 1 && !cols.is_empty() {
            let row = rows[0];
            let sum_cols = cols.iter().fold(T::ZERO, |acc, d| acc + d.delta);
            if close(sum_cols, row.delta, match_tol * T::from_usize(cols.len())) {
                for c in &cols {
                    let v = c_block.get(row.idx, c.idx);
                    c_block.set(row.idx, c.idx, v - c.delta);
                }
                return CorrectionOutcome::Corrected {
                    count: corrected + cols.len(),
                };
            }
        }

        // Peel one matched pair. Only rows with a *unique* matching column
        // are safe to peel: when several remaining rows and columns carry
        // (numerically) equal deltas, every assignment zeroes the checksums
        // but only one restores the matrix — guessing would be silent
        // corruption, so ambiguity is reported as unrecoverable and the
        // caller's recovery policy (column-block rollback under
        // `Recovery::RetryPanel`) takes over.
        let mut pick: Option<(usize, usize)> = None;
        let mut saw_ambiguous = false;
        for (ri, r) in rows.iter().enumerate() {
            let candidates: Vec<usize> = cols
                .iter()
                .enumerate()
                .filter(|(_, c)| close(r.delta, c.delta, match_tol))
                .map(|(ci, _)| ci)
                .collect();
            match candidates.len() {
                1 => {
                    pick = Some((ri, candidates[0]));
                    break;
                }
                n if n > 1 => saw_ambiguous = true,
                _ => {}
            }
        }
        let Some((ri, ci)) = pick else {
            let kind = if saw_ambiguous {
                "ambiguous pairing (equal-magnitude deltas)"
            } else {
                "unmatched pattern"
            };
            return CorrectionOutcome::Unrecoverable {
                detail: format!(
                    "{kind}: {} row / {} col discrepancies remain (of {}/{})",
                    rows.len(),
                    cols.len(),
                    row_diffs.len(),
                    col_diffs.len()
                ),
            };
        };
        let r = rows.swap_remove(ri);
        let c = cols.swap_remove(ci);
        let v = c_block.get(r.idx, c.idx);
        c_block.set(r.idx, c.idx, v - r.delta);
        corrected += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftgemm_core::Matrix;

    fn sums(c: &Matrix<f64>) -> (Vec<f64>, Vec<f64>) {
        let (m, n) = (c.nrows(), c.ncols());
        let mut row = vec![0.0; m];
        let mut col = vec![0.0; n];
        for j in 0..n {
            for i in 0..m {
                row[i] += c.get(i, j);
                col[j] += c.get(i, j);
            }
        }
        (row, col)
    }

    /// Builds enc from the clean matrix, corrupts `errors`, derives ref from
    /// the corrupted matrix, runs the corrector, and checks restoration.
    fn corrupt_and_correct(errors: &[(usize, usize, f64)]) -> CorrectionOutcome {
        let clean = Matrix::<f64>::random(16, 12, 99);
        let (enc_row, enc_col) = sums(&clean);
        let mut dirty = clean.clone();
        for &(i, j, d) in errors {
            dirty.set(i, j, dirty.get(i, j) + d);
        }
        let (ref_row, ref_col) = sums(&dirty);
        let th = 1e-9;
        let rd = find_discrepancies(&enc_row, &ref_row, th);
        let cd = find_discrepancies(&enc_col, &ref_col, th);
        let out = correct_block(&mut dirty.as_mut(), &rd, &cd, th);
        if matches!(
            out,
            CorrectionOutcome::Corrected { .. } | CorrectionOutcome::Clean
        ) {
            assert!(
                clean.max_abs_diff(&dirty) < 1e-9,
                "matrix not restored for {errors:?}"
            );
        }
        out
    }

    #[test]
    fn no_errors_clean() {
        assert_eq!(corrupt_and_correct(&[]), CorrectionOutcome::Clean);
    }

    #[test]
    fn single_error_corrected_exactly() {
        assert_eq!(
            corrupt_and_correct(&[(3, 7, 1e6)]),
            CorrectionOutcome::Corrected { count: 1 }
        );
    }

    #[test]
    fn single_negative_error() {
        assert_eq!(
            corrupt_and_correct(&[(0, 0, -42.5)]),
            CorrectionOutcome::Corrected { count: 1 }
        );
    }

    #[test]
    fn multiple_distinct_errors() {
        assert_eq!(
            corrupt_and_correct(&[(1, 2, 100.0), (5, 9, -300.0), (14, 0, 777.0)]),
            CorrectionOutcome::Corrected { count: 3 }
        );
    }

    #[test]
    fn two_errors_same_column() {
        assert_eq!(
            corrupt_and_correct(&[(2, 4, 50.0), (9, 4, -20.0)]),
            CorrectionOutcome::Corrected { count: 2 }
        );
    }

    #[test]
    fn two_errors_same_row() {
        assert_eq!(
            corrupt_and_correct(&[(6, 1, 10.0), (6, 10, 25.0)]),
            CorrectionOutcome::Corrected { count: 2 }
        );
    }

    #[test]
    fn colliding_cycle_is_unrecoverable() {
        // Errors at (1,2), (1,5), (8,2): rows {1,8}, cols {2,5} with deltas
        // that match neither the single-row nor single-column cases nor a
        // 1-1 pairing.
        let out = corrupt_and_correct(&[(1, 2, 10.0), (1, 5, 20.0), (8, 2, 40.0)]);
        assert!(
            matches!(out, CorrectionOutcome::Unrecoverable { .. }),
            "got {out:?}"
        );
    }

    #[test]
    fn overflowed_elements_are_unrecoverable_whatever_their_signs() {
        // `+inf` and `-inf` in distinct rows and columns: each row delta is
        // "close" to the *other* element's column delta under a relative
        // tolerance, and pairing them once passed for two corrections.
        for errors in [
            &[(2, 3, f64::INFINITY)][..],
            &[(2, 3, f64::INFINITY), (9, 8, f64::NEG_INFINITY)],
            &[(2, 3, f64::INFINITY), (9, 8, f64::INFINITY)],
            // Sums to NaN in column 3, which no threshold calls large.
            &[(2, 3, f64::INFINITY), (9, 3, f64::NEG_INFINITY)],
        ] {
            let out = corrupt_and_correct(errors);
            assert!(
                matches!(&out, CorrectionOutcome::Unrecoverable { detail } if detail.contains("non-finite")),
                "{errors:?}: {out:?}"
            );
        }
        // All four sums NaN: still a discrepancy, on both axes.
        let nan = [f64::NAN];
        assert_eq!(find_discrepancies(&[1.0], &nan, 1e-9).len(), 1);
    }

    #[test]
    fn find_discrepancies_threshold() {
        let enc = [1.0, 2.0, 3.0];
        let r = [1.0 + 1e-12, 2.5, 3.0];
        let d = find_discrepancies(&enc, &r, 1e-6);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].idx, 1);
        assert!((d[0].delta - 0.5).abs() < 1e-12);
    }

    #[test]
    fn near_threshold_noise_classified_clean() {
        // One-sided marginal discrepancy (just above detect threshold on one
        // axis only) must be treated as roundoff, not unrecoverable.
        let clean = Matrix::<f64>::random(8, 8, 5);
        let (_enc_row, _enc_col) = sums(&clean);
        let mut dirty = clean.clone();
        let th: f64 = 1.0; // huge threshold; make a tiny one-sided blip
        let rd = vec![Discrepancy { idx: 2, delta: 1.5 }];
        let cd: Vec<Discrepancy<f64>> = vec![];
        let out = correct_block(&mut dirty.as_mut(), &rd, &cd, th);
        assert_eq!(out, CorrectionOutcome::Clean);
    }

    #[test]
    fn one_sided_large_is_unrecoverable() {
        let clean = Matrix::<f64>::random(8, 8, 5);
        let mut dirty = clean.clone();
        let th: f64 = 1e-9;
        let rd = vec![Discrepancy { idx: 2, delta: 1e6 }];
        let cd: Vec<Discrepancy<f64>> = vec![];
        let out = correct_block(&mut dirty.as_mut(), &rd, &cd, th);
        assert!(matches!(out, CorrectionOutcome::Unrecoverable { .. }));
    }

    #[test]
    fn equal_delta_errors_distinct_positions() {
        // Two identical deltas in distinct rows/cols: both pairings balance
        // the checksums but only one restores the matrix, so any guess is a
        // coin flip on silent corruption. The corrector must refuse
        // (fail-stop) and let the caller's recovery policy recompute.
        let clean = Matrix::<f64>::random(16, 12, 7);
        let (enc_row, enc_col) = sums(&clean);
        let mut dirty = clean.clone();
        // Same delta at (2,3) and (9,8).
        dirty.set(2, 3, dirty.get(2, 3) + 500.0);
        dirty.set(9, 8, dirty.get(9, 8) + 500.0);
        let (ref_row, ref_col) = sums(&dirty);
        let th = 1e-9;
        let rd = find_discrepancies(&enc_row, &ref_row, th);
        let cd = find_discrepancies(&enc_col, &ref_col, th);
        let out = correct_block(&mut dirty.as_mut(), &rd, &cd, th);
        match out {
            CorrectionOutcome::Unrecoverable { detail } => {
                assert!(detail.contains("ambiguous"), "detail: {detail}");
            }
            other => panic!("ambiguous pattern must fail-stop, got {other:?}"),
        }
    }

    #[test]
    fn equal_deltas_sharing_one_line_still_resolved() {
        // Equal magnitudes are only ambiguous across distinct rows AND
        // columns; two equal errors in the same column resolve through the
        // single-column sum rule and must still be corrected.
        assert_eq!(
            corrupt_and_correct(&[(2, 4, 50.0), (9, 4, 50.0)]),
            CorrectionOutcome::Corrected { count: 2 }
        );
    }

    #[test]
    fn distinct_deltas_still_corrected_with_equal_pair_present() {
        // A mixed pattern: one ambiguous-free error plus a unique-magnitude
        // pair must peel fine (unique matches are found first).
        assert_eq!(
            corrupt_and_correct(&[(1, 2, 100.0), (5, 9, -300.0)]),
            CorrectionOutcome::Corrected { count: 2 }
        );
    }
}
