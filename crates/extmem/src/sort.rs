//! External merge sort, and the in-memory k-selection of ranked answers.
//!
//! Standard two-phase sort: read runs of `mem_records` items, sort them in
//! internal memory, write sorted runs; then merge all runs with a binary
//! heap, reading each run page by page. With `R` runs and memory for
//! `R + 1` page buffers this is the textbook O(n log_{M/B} n) IO sort — the
//! construction algorithms of the paper assume its existence.
//!
//! [`smallest_k`] is the host-side half of every ranked query (k-NN,
//! top-k, the k lowest planes): the candidates are already in memory, so
//! only the `k` smallest need ordering.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::device::DeviceHandle;
use crate::file::{Record, VecFile};

/// Sort `input` by the key extracted with `key`, returning a new sorted file.
///
/// `mem_records` bounds the number of records held in internal memory during
/// run formation (must be at least twice the page capacity).
pub fn external_sort_by_key<T, K, F>(
    dev: &DeviceHandle,
    input: &VecFile<T>,
    mem_records: usize,
    key: F,
) -> VecFile<T>
where
    T: Record,
    K: Ord + Copy,
    F: Fn(&T) -> K,
{
    let per = dev.records_per_page(T::SIZE);
    assert!(mem_records >= 2 * per, "need memory for at least two pages of records");
    if input.len() <= 1 {
        return VecFile::from_slice(dev, &input.read_all());
    }

    // Phase 1: sorted runs.
    let mut runs: Vec<VecFile<T>> = Vec::new();
    let mut pos = 0;
    while pos < input.len() {
        let end = (pos + mem_records).min(input.len());
        let mut buf = Vec::with_capacity(end - pos);
        input.read_range(pos..end, &mut buf);
        buf.sort_by_key(|t| key(t));
        runs.push(VecFile::from_slice(dev, &buf));
        pos = end;
    }

    // Phase 2: k-way merge (single pass; the experiments never create more
    // runs than fit one page buffer each within any reasonable M).
    struct Cursor<T> {
        buf: Vec<T>,
        buf_pos: usize,
        file_pos: usize,
    }
    let mut cursors: Vec<Cursor<T>> =
        runs.iter().map(|_| Cursor { buf: Vec::new(), buf_pos: 0, file_pos: 0 }).collect();
    let refill = |c: &mut Cursor<T>, run: &VecFile<T>| {
        c.buf.clear();
        c.buf_pos = 0;
        let end = (c.file_pos + per).min(run.len());
        if c.file_pos < end {
            run.read_range(c.file_pos..end, &mut c.buf);
            c.file_pos = end;
        }
    };
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::new();
    for (i, c) in cursors.iter_mut().enumerate() {
        refill(c, &runs[i]);
        if !c.buf.is_empty() {
            heap.push(Reverse((key(&c.buf[0]), i)));
        }
    }
    let mut out = crate::file::FileBuilder::new(dev);
    while let Some(Reverse((_, i))) = heap.pop() {
        let item;
        {
            let c = &mut cursors[i];
            item = c.buf[c.buf_pos];
            c.buf_pos += 1;
            if c.buf_pos == c.buf.len() {
                refill(c, &runs[i]);
            }
            if c.buf_pos < c.buf.len() {
                heap.push(Reverse((key(&c.buf[c.buf_pos]), i)));
            }
        }
        out.push(item);
    }
    out.finish()
}

/// Keep the `k` smallest items of `v`, in ascending order: O(n + k log k)
/// — a linear-time selection, then a sort of the `k`-prefix only.
///
/// The result equals `v.sort_unstable(); v.truncate(k)` item for item:
/// the k smallest form the same multiset either way, and items that
/// compare equal under a derived (structural) `Ord` are identical. Every
/// ranked key in the workspace ends in a unique id, so its order is
/// total and answers are bit-identical to a full sort.
pub fn smallest_k<T: Ord>(v: &mut Vec<T>, k: usize) {
    if k < v.len() {
        v.select_nth_unstable(k);
        v.truncate(k);
    }
    v.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};

    #[test]
    fn sorts_reverse_input() {
        let dev = Device::new(DeviceConfig::new(64, 0)); // 8 i64/page
        let data: Vec<i64> = (0..500).rev().collect();
        let f = VecFile::from_slice(&dev, &data);
        let sorted = external_sort_by_key(&dev, &f, 32, |x| *x);
        assert_eq!(sorted.read_all(), (0..500).collect::<Vec<i64>>());
    }

    #[test]
    fn stable_on_already_sorted() {
        let dev = Device::new(DeviceConfig::new(64, 0));
        let data: Vec<i64> = (0..100).collect();
        let f = VecFile::from_slice(&dev, &data);
        let sorted = external_sort_by_key(&dev, &f, 16, |x| *x);
        assert_eq!(sorted.read_all(), data);
    }

    #[test]
    fn sorts_by_extracted_key() {
        let dev = Device::new(DeviceConfig::new(128, 0));
        let data: Vec<(i64, i64)> = (0..200).map(|i| (i, 199 - i)).collect();
        let f = VecFile::from_slice(&dev, &data);
        let sorted = external_sort_by_key(&dev, &f, 32, |p| p.1);
        let got = sorted.read_all();
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(got.len(), 200);
    }

    #[test]
    fn handles_tiny_inputs() {
        let dev = Device::new(DeviceConfig::new(64, 0));
        let f = VecFile::from_slice(&dev, &[42i64]);
        let sorted = external_sort_by_key(&dev, &f, 16, |x| *x);
        assert_eq!(sorted.read_all(), vec![42]);
        let e: VecFile<i64> = VecFile::from_slice(&dev, &[]);
        let sorted = external_sort_by_key(&dev, &e, 16, |x| *x);
        assert!(sorted.is_empty());
    }

    #[test]
    fn pseudo_random_large() {
        let dev = Device::new(DeviceConfig::new(64, 0));
        let mut x = 7u64;
        let data: Vec<i64> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                (x >> 16) as i64 % 1000
            })
            .collect();
        let f = VecFile::from_slice(&dev, &data);
        let sorted = external_sort_by_key(&dev, &f, 64, |x| *x);
        let mut expect = data.clone();
        expect.sort();
        assert_eq!(sorted.read_all(), expect);
    }

    /// Sort-then-truncate, the reference [`smallest_k`] must reproduce.
    fn sort_truncate<T: Ord + Clone>(v: &[T], k: usize) -> Vec<T> {
        let mut w = v.to_vec();
        w.sort_unstable();
        w.truncate(k);
        w
    }

    #[test]
    fn smallest_k_matches_sort_then_truncate_at_every_boundary() {
        let mut x = 11u64;
        let data: Vec<(i128, u32)> = (0..97u32)
            .map(|id| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                (((x >> 20) % 40) as i128 - 20, id)
            })
            .collect();
        // All-equal keys: the unique id alone decides the order.
        let flat: Vec<(i128, u32)> = (0..64u32).rev().map(|id| (7, id)).collect();
        for v in [data, flat, Vec::new()] {
            let n = v.len();
            for k in [0, 1, n.saturating_sub(1), n, n + 5] {
                let mut got = v.clone();
                smallest_k(&mut got, k);
                assert_eq!(got, sort_truncate(&v, k), "n={n} k={k}");
            }
        }
    }
}
