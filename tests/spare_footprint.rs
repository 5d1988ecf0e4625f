//! Pins the bound of the spare list in `ftgemm::core::aligned` on buffers
//! under 256 KiB, which are heap blocks: a dropped buffer of one page to
//! 8 MiB is kept while the list holds at most `max(8 MiB, high-water -
//! live)` bytes, where live is what listed buffers hold and high-water the
//! most they held at once. So a kept burst of any size comes back whole,
//! the most recently dropped spare of a length is the one taken back, and a
//! burst of other lengths evicts the oldest spares first. A model of the
//! list runs beside it, and after every step the list holds exactly the
//! model's bytes, within the bound. Its own binary, with one test: the list
//! is process-wide, and a sibling test's buffers would move it.

use ftgemm::core::aligned::{mapped_buffers, recycled_buffers, spare_bytes, AlignedVec};
use std::collections::VecDeque;

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

/// Lengths under 256 KiB, on and off a page boundary; a burst cycles them.
const LENS: [usize; 6] = [
    4 * KIB,
    12 * KIB - 8,
    40 * KIB,
    100 * KIB + 8,
    160 * KIB,
    252 * KIB,
];
/// Other lengths: none rounds to a page count of [`LENS`].
const OTHER: [usize; 3] = [20 * KIB, 60 * KIB, 200 * KIB];

/// What the list should do: live and high-water bytes of listed buffers, and
/// the spares' page-rounded lengths and addresses, oldest first.
#[derive(Default)]
struct Model {
    live: usize,
    high: usize,
    spares: VecDeque<(usize, usize)>,
}

impl Model {
    fn bound(&self) -> usize {
        (8 * MIB).max(self.high - self.live)
    }

    fn held(&self) -> usize {
        self.spares.iter().map(|&(len, _)| len).sum()
    }

    fn evict(&mut self) {
        while self.held() > self.bound() {
            self.spares.pop_front();
        }
    }

    /// The spare a buffer of `bytes` takes back, if any: the most recently
    /// dropped of its length.
    fn take(&mut self, bytes: usize) -> Option<usize> {
        let len = bytes.next_multiple_of(4096);
        self.live += len;
        self.high = self.high.max(self.live);
        let newest = self.spares.iter().rposition(|&(l, _)| l == len);
        match newest {
            Some(i) => self.spares.remove(i).map(|(_, at)| at),
            None => {
                self.evict();
                None
            }
        }
    }

    fn put(&mut self, bytes: usize, at: usize) {
        let len = bytes.next_multiple_of(4096);
        self.live -= len;
        self.spares.push_back((len, at));
        self.evict();
    }

    /// The list holds what the model does, within the bound.
    fn check(&self, step: &str) {
        assert_eq!(spare_bytes(), self.held(), "{step}: spare bytes");
        assert!(spare_bytes() <= self.bound(), "{step}: over the bound");
    }
}

/// A buffer of `bytes`: the spare the model takes back, or fresh memory,
/// and zeroed either way.
fn take(model: &mut Model, bytes: usize, step: &str) -> AlignedVec<f64> {
    let recycled = recycled_buffers();
    let mut v = AlignedVec::<f64>::zeroed(bytes / 8).unwrap();
    let want = model.take(bytes);
    let got = recycled_buffers() - recycled;
    assert_eq!(got, u64::from(want.is_some()), "{step}: {bytes} B recycled");
    if let Some(at) = want {
        assert_eq!(
            v.as_ptr() as usize,
            at,
            "{step}: {bytes} B took another spare"
        );
    }
    model.check(step);
    assert!(v.iter().all(|&x| x == 0.0), "{step}: {bytes} B not zeroed");
    v.fill(7.0);
    v
}

fn put(model: &mut Model, v: AlignedVec<f64>, step: &str) {
    let (bytes, at) = (v.len() * 8, v.as_ptr() as usize);
    drop(v);
    model.put(bytes, at);
    model.check(step);
}

#[test]
fn a_kept_burst_comes_back_whole_and_the_oldest_spares_go_first() {
    let mut model = Model::default();
    let mapped = mapped_buffers();
    let burst = |lens: &[usize], n: usize| (0..n).map(|i| lens[i % lens.len()]).collect::<Vec<_>>();

    // 144 buffers, 12.7 MiB: more than a fixed 8 MiB cap would keep.
    let first = burst(&LENS, 144);
    let total: usize = first.iter().map(|b| b.next_multiple_of(4096)).sum();
    assert!(total > 8 * MIB, "{total}");
    let kept: Vec<_> = first
        .iter()
        .map(|&b| take(&mut model, b, "first burst"))
        .collect();
    for v in kept {
        put(&mut model, v, "first burst dropped");
    }
    assert_eq!(spare_bytes(), total, "the burst is kept whole");

    // The same burst again: every buffer is a spare taken back.
    let recycled = recycled_buffers();
    let kept: Vec<_> = first
        .iter()
        .map(|&b| take(&mut model, b, "second burst"))
        .collect();
    assert_eq!(recycled_buffers() - recycled, first.len() as u64);
    assert_eq!(spare_bytes(), 0);

    // The most recently dropped spare of a length is the one taken back.
    let mut kept = VecDeque::from(kept);
    let (older, newer) = (kept.pop_front().unwrap(), kept.pop_front().unwrap());
    assert_eq!((older.len(), newer.len()), (LENS[0] / 8, LENS[1] / 8));
    let twin = take(&mut model, LENS[0], "a second buffer of one length");
    let newest = twin.as_ptr();
    put(&mut model, older, "older dropped");
    put(&mut model, twin, "newer dropped");
    let again = take(&mut model, LENS[0], "newest first");
    assert_eq!(
        again.as_ptr(),
        newest,
        "not the most recently dropped spare"
    );
    kept.push_front(again);
    kept.push_front(newer);

    // Dropped again, then a burst of other lengths: each fresh buffer lowers
    // the bound, and the spares dropped first are the ones freed. Taking the
    // first lengths back finds exactly the newest of them.
    let order: Vec<usize> = kept.iter().map(|v| v.as_ptr() as usize).collect();
    for v in kept {
        put(&mut model, v, "second burst dropped");
    }
    let others = burst(&OTHER, 72);
    let held: Vec<_> = others
        .iter()
        .map(|&b| take(&mut model, b, "other lengths"))
        .collect();
    let survivors: Vec<usize> = model.spares.iter().map(|&(_, at)| at).collect();
    assert!(spare_bytes() < total, "nothing was evicted");
    assert!(
        order.ends_with(&survivors),
        "the model kept other than the newest"
    );
    let recycled = recycled_buffers();
    let back: Vec<_> = first
        .iter()
        .map(|&b| take(&mut model, b, "first lengths"))
        .collect();
    let reused = recycled_buffers() - recycled;
    assert!(reused > 0 && reused < first.len() as u64, "{reused} reused");
    for v in held.into_iter().chain(back) {
        put(&mut model, v, "all dropped");
    }
    assert_eq!(mapped_buffers(), mapped, "a heap-sized buffer was mapped");
}
