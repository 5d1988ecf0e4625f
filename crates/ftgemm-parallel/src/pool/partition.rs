//! Static loop partitioning helpers.
//!
//! The paper partitions the `C`/`A` work along the M dimension and the `B`
//! packing along the N dimension with static chunks ("partition M, compute
//! offset m_s and length m_len"). Chunks must respect the micro-tile
//! granularity so no micro-panel straddles two threads.

use std::ops::Range;

/// Splits `0..len` into `nparts` contiguous chunks whose boundaries are
/// multiples of `align` (except the final end), returning chunk `part`.
///
/// The `align`-unit blocks are distributed as evenly as possible; threads
/// beyond the number of blocks receive empty ranges.
pub fn partition_aligned(len: usize, nparts: usize, part: usize, align: usize) -> Range<usize> {
    assert!(nparts > 0, "nparts must be positive");
    assert!(part < nparts, "part out of range");
    assert!(align > 0, "align must be positive");

    let blocks = len.div_ceil(align);
    let base = blocks / nparts;
    let extra = blocks % nparts;
    // First `extra` parts get (base+1) blocks.
    let my_blocks = base + usize::from(part < extra);
    let start_block = part * base + part.min(extra);
    let start = (start_block * align).min(len);
    let end = ((start_block + my_blocks) * align).min(len);
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(len: usize, nparts: usize, align: usize) {
        let mut covered = 0;
        let mut prev_end = 0;
        for p in 0..nparts {
            let r = partition_aligned(len, nparts, p, align);
            assert_eq!(r.start, prev_end, "chunks must be contiguous");
            assert!(r.start % align == 0 || r.start == len);
            covered += r.len();
            prev_end = r.end;
        }
        assert_eq!(prev_end, len);
        assert_eq!(covered, len);
    }

    #[test]
    fn covers_exactly() {
        for &(len, np, al) in &[
            (100usize, 4usize, 8usize),
            (100, 3, 16),
            (7, 4, 8),
            (0, 4, 8),
            (1024, 16, 16),
            (1000, 7, 1),
            (5, 10, 2),
        ] {
            check_cover(len, np, al);
        }
    }

    #[test]
    fn balanced_within_one_block() {
        let lens: Vec<usize> = (0..8)
            .map(|p| partition_aligned(1024, 8, p, 16).len())
            .collect();
        let min = lens.iter().min().unwrap();
        let max = lens.iter().max().unwrap();
        assert!(max - min <= 16, "imbalance {lens:?}");
    }

    #[test]
    fn small_len_gives_empty_tails() {
        // 2 blocks of 8 across 4 parts: parts 2,3 empty.
        let r0 = partition_aligned(16, 4, 0, 8);
        let r3 = partition_aligned(16, 4, 3, 8);
        assert_eq!(r0, 0..8);
        assert!(r3.is_empty());
    }

    #[test]
    fn even_partition() {
        assert_eq!(partition_aligned(10, 3, 0, 1), 0..4);
        assert_eq!(partition_aligned(10, 3, 1, 1), 4..7);
        assert_eq!(partition_aligned(10, 3, 2, 1), 7..10);
    }

    #[test]
    #[should_panic(expected = "part out of range")]
    fn part_bounds_checked() {
        let _ = partition_aligned(10, 2, 2, 1);
    }
}
