//! Pins the spare list of `ftgemm::core::aligned`: a dropped mapping of at
//! most 8 MiB is kept, as many as fit in 8 MiB together, and the next buffer
//! of exactly its page-rounded length (and placement) takes it back instead
//! of mapping and faulting in fresh pages — zeroed for `AlignedVec::zeroed`,
//! as it was for `AlignedVec::for_overwrite`. Its own binary, with one test:
//! the counts and the list are process-wide, and a sibling test's buffers
//! would move them.
#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use ftgemm::core::aligned::{mapped_buffers, recycled_buffers, spare_bytes, AlignedVec};

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

/// A buffer of `bytes` with every element written.
fn dirty(bytes: usize) -> AlignedVec<f64> {
    let mut v = AlignedVec::zeroed(bytes / 8).unwrap();
    v.fill(7.0);
    v
}

/// A buffer of `bytes`, checked zeroed and checked to be a spare taken back
/// (`recycled`) or a fresh mapping (not).
fn take(bytes: usize, recycled: bool) -> AlignedVec<f64> {
    let (mapped, reused) = (mapped_buffers(), recycled_buffers());
    let v = AlignedVec::<f64>::zeroed(bytes / 8).unwrap();
    let made = (mapped_buffers() - mapped, recycled_buffers() - reused);
    let want = if recycled { (0, 1) } else { (1, 0) };
    assert_eq!(made, want, "{bytes} B: (mapped, recycled)");
    let last = v.len() - 1;
    for i in [0, last / 2, last] {
        assert_eq!(v[i], 0.0, "{bytes} B: element {i} of {}", v.len());
    }
    v
}

#[test]
fn dropped_mappings_come_back_zeroed_for_the_same_length() {
    // The same length takes the spare back: the same pages, zeroed.
    let a = dirty(MIB);
    let at = a.as_ptr();
    drop(a);
    assert_eq!(spare_bytes(), MIB);
    let a = take(MIB, true);
    assert_eq!((a.as_ptr(), spare_bytes()), (at, 0));

    // Another length maps fresh and leaves the spare where it is; one that
    // rounds to the same pages takes it, and each owner sees only zeros —
    // the last 8 bytes, which the shorter owner could not reach, included.
    drop(a);
    let other = take(MIB + 4 * KIB, false);
    assert_eq!(spare_bytes(), MIB);
    let mut short = take(MIB - 8, true);
    short.fill(3.0);
    drop(short);
    let a = take(MIB, true);
    assert!(a.iter().all(|&x| x == 0.0));
    drop((a, other));

    // From 2 MiB on a spare comes back on its 2 MiB boundary; a buffer just
    // short of 2 MiB has the same pages but not the placement, so it does
    // not take one.
    let huge = cfg!(target_arch = "x86_64");
    drop(dirty(2 * MIB + 24));
    let h = take(2 * MIB + 24, true);
    if huge {
        assert_eq!(h.as_ptr() as usize % (2 * MIB), 0, "off its 2 MiB boundary");
    }
    drop(dirty(2 * MIB));
    let short = take(2 * MIB - 8, !huge);
    drop((h, short));

    // 8 MiB is kept, alone: it evicts every older spare. A longer buffer is
    // never a spare.
    drop(dirty(8 * MIB));
    assert_eq!(spare_bytes(), 8 * MIB);
    drop(dirty(8 * MIB + 4 * KIB));
    assert_eq!(spare_bytes(), 8 * MIB);
    drop(take(8 * MIB + 4 * KIB, false));
    drop(take(8 * MIB, true));

    // Bytes are the only bound: any number of spares is kept while they hold
    // at most 8 MiB together — here six, as many as a window-4 burst of
    // results leaves (the first evicts the 8 MiB one) — and one past it
    // evicts the oldest, only as many as it takes.
    let lens = [256 * KIB, 512 * KIB, 768 * KIB, MIB, 1280 * KIB, 1536 * KIB];
    for bytes in lens {
        drop(dirty(bytes));
    }
    assert_eq!(spare_bytes(), lens.iter().sum::<usize>());
    drop(dirty(3 * MIB));
    assert_eq!(spare_bytes(), 8 * MIB);
    let oldest = take(lens[0], false);
    let next = take(lens[1], true);
    drop((oldest, next));

    // `for_overwrite` hands a spare back as it was dropped; a fresh mapping
    // reads zeros all the same.
    let v = dirty(MIB);
    let at = v.as_ptr();
    drop(v);
    let (mapped, reused) = (mapped_buffers(), recycled_buffers());
    let v = AlignedVec::<f64>::for_overwrite(MIB / 8).unwrap();
    assert_eq!((mapped_buffers(), recycled_buffers()), (mapped, reused + 1));
    assert_eq!(v.as_ptr(), at);
    assert!(v.iter().all(|&x| x == 7.0), "the spare came back changed");
    let fresh = AlignedVec::<f64>::for_overwrite((MIB + 8 * KIB) / 8).unwrap();
    assert_eq!(
        (mapped_buffers(), recycled_buffers()),
        (mapped + 1, reused + 1)
    );
    assert!(
        fresh.iter().all(|&x| x == 0.0),
        "a fresh mapping is zero pages"
    );
    drop((v, fresh));
    // A heap spare comes back the same ways: as it was dropped through
    // `for_overwrite`, zeroed through `zeroed`.
    let v = dirty(128 * KIB);
    let at = v.as_ptr();
    drop(v);
    let small = AlignedVec::<f64>::for_overwrite(128 * KIB / 8).unwrap();
    assert_eq!(small.as_ptr(), at);
    assert!(
        small.iter().all(|&x| x == 7.0),
        "the heap spare came back changed"
    );
    drop(small);
    let small = AlignedVec::<f64>::zeroed(128 * KIB / 8).unwrap();
    assert_eq!(small.as_ptr(), at);
    assert!(small.iter().all(|&x| x == 0.0), "a zeroed heap spare");
    drop(small);
    assert_eq!(mapped_buffers(), mapped + 1, "128 KiB stays with malloc");

    // A buffer dropped on one thread is taken on another.
    let v = dirty(640 * KIB);
    let at = v.as_ptr() as usize;
    std::thread::spawn(move || drop(v)).join().unwrap();
    let w = take(640 * KIB, true);
    assert_eq!(w.as_ptr() as usize, at);
    drop(w);
    let w = std::thread::spawn(|| take(640 * KIB, true).as_ptr() as usize);
    assert_eq!(w.join().unwrap(), at);
}
