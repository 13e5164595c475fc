//! Generic k-way merge over sorted streams.
//!
//! The key-path external merge sort (the paper's baseline, also used by
//! NEXSORT for subtrees too large to sort in memory, and by the graceful-
//! degeneration optimization to combine incomplete runs) merges up to
//! `m - 1` sorted runs per pass. This module provides the merging engine: a
//! tournament tree of stream heads driven by a caller-supplied comparator.
//!
//! The merger is device-agnostic; when its streams read runs through a
//! [`Disk`](crate::Disk) with a buffer pool enabled, fan-in block fetches
//! that hit resident frames cost no physical I/O and the merged output is
//! identical (the pool changes *where* bytes come from, never *what* they
//! are).

use std::cmp::Ordering;

use crate::error::Result;

/// A stream of items in nondecreasing order (by the merge's comparator).
pub trait MergeStream {
    /// The item type produced by the stream.
    type Item;
    /// Produce the next item, or `None` at end of stream.
    fn next_item(&mut self) -> Result<Option<Self::Item>>;
}

/// A [`MergeStream`] over an in-memory vector (used in tests and for the
/// sorted in-memory buffer that joins a merge of on-disk runs).
pub struct VecStream<T> {
    items: std::vec::IntoIter<T>,
}

impl<T> VecStream<T> {
    /// Stream the items of `v` in order.
    pub fn new(v: Vec<T>) -> Self {
        Self { items: v.into_iter() }
    }
}

impl<T> MergeStream for VecStream<T> {
    type Item = T;

    fn next_item(&mut self) -> Result<Option<T>> {
        Ok(self.items.next())
    }
}

/// Merges `k` sorted streams into one sorted sequence.
///
/// A tournament (loser) tree over the stream heads: each output costs one
/// comparison per tree level, `ceil(log2 k)`, where a binary heap's sift
/// needs two. Ties are broken by stream index (earlier streams win), which
/// makes the merge *stable* with respect to stream order -- important when
/// incomplete runs must preserve document order among equal keys.
pub struct KWayMerger<S: MergeStream, F> {
    streams: Vec<S>,
    /// Each stream's buffered head; `None` once the stream is exhausted.
    heads: Vec<Option<S::Item>>,
    /// `tree[0]` is the current winner's stream; `tree[n]` for `n` in
    /// `1..k` is the loser of the match at internal node `n`, whose
    /// children are nodes `2n` and `2n + 1` (leaf `i` is node `k + i`).
    tree: Vec<usize>,
    cmp: F,
}

impl<S, F> KWayMerger<S, F>
where
    S: MergeStream,
    F: Fn(&S::Item, &S::Item) -> Ordering,
{
    /// Build a merger over `streams` with comparator `cmp`. Pulls the first
    /// item of every stream (one buffered item per stream -- the caller is
    /// responsible for reserving the per-stream block frames).
    pub fn new(mut streams: Vec<S>, cmp: F) -> Result<Self> {
        let mut heads = Vec::with_capacity(streams.len());
        for s in &mut streams {
            heads.push(s.next_item()?);
        }
        let k = streams.len();
        let mut m = Self { streams, heads, tree: vec![0; k], cmp };
        // Play every match bottom-up; `winners[n]` is node n's winner.
        let mut winners = vec![0; k];
        winners.extend(0..k);
        for n in (1..k).rev() {
            let (a, b) = (winners[2 * n], winners[2 * n + 1]);
            let (win, lose) = if m.less(a, b) { (a, b) } else { (b, a) };
            winners[n] = win;
            m.tree[n] = lose;
        }
        if k > 0 {
            m.tree[0] = winners[1];
        }
        Ok(m)
    }

    /// Whether stream `a`'s head goes out before stream `b`'s: exhausted
    /// streams lose to live ones, ties go to the lower stream index.
    fn less(&self, a: usize, b: usize) -> bool {
        match (&self.heads[a], &self.heads[b]) {
            (Some(x), Some(y)) => match (self.cmp)(x, y) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Produce the next smallest item across all streams, with the index of
    /// the stream it came from.
    pub fn next_merged(&mut self) -> Result<Option<(S::Item, usize)>> {
        let Some(&w) = self.tree.first() else { return Ok(None) };
        if self.heads[w].is_none() {
            // The winner is exhausted, so every stream is.
            return Ok(None);
        }
        // Pull the replacement first: if the stream fails, the winner stays
        // buffered and the next call retries it.
        let replacement = self.streams[w].next_item()?;
        let out = std::mem::replace(&mut self.heads[w], replacement);
        // Replay the winner's path from its leaf to the root.
        let mut cur = w;
        let mut n = (w + self.heads.len()) / 2;
        while n > 0 {
            if self.less(self.tree[n], cur) {
                std::mem::swap(&mut self.tree[n], &mut cur);
            }
            n /= 2;
        }
        self.tree[0] = cur;
        Ok(out.map(|item| (item, w)))
    }

    /// Drain the merge into a vector (convenience for tests and small merges).
    pub fn collect_all(mut self) -> Result<Vec<S::Item>> {
        let mut out = Vec::new();
        while let Some((item, _)) = self.next_merged()? {
            out.push(item);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge_vecs(vs: Vec<Vec<i64>>) -> Vec<i64> {
        let streams: Vec<_> = vs.into_iter().map(VecStream::new).collect();
        KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).unwrap().collect_all().unwrap()
    }

    #[test]
    fn merges_three_streams() {
        let out = merge_vecs(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        assert_eq!(out, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_streams_and_no_streams() {
        assert_eq!(merge_vecs(vec![]), Vec::<i64>::new());
        assert_eq!(merge_vecs(vec![vec![], vec![1, 2], vec![]]), vec![1, 2]);
    }

    #[test]
    fn single_stream_passthrough() {
        assert_eq!(merge_vecs(vec![vec![5, 6, 7]]), vec![5, 6, 7]);
    }

    #[test]
    fn ties_favor_earlier_streams_making_the_merge_stable() {
        let streams = vec![
            VecStream::new(vec![(1, 'a'), (2, 'a')]),
            VecStream::new(vec![(1, 'b'), (2, 'b')]),
        ];
        let mut m =
            KWayMerger::new(streams, |x: &(i32, char), y: &(i32, char)| x.0.cmp(&y.0)).unwrap();
        let mut out = Vec::new();
        while let Some((item, src)) = m.next_merged().unwrap() {
            out.push((item, src));
        }
        assert_eq!(out, vec![((1, 'a'), 0), ((1, 'b'), 1), ((2, 'a'), 0), ((2, 'b'), 1)]);
    }

    #[test]
    fn randomized_merge_agrees_with_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let k = rng.gen_range(1..8);
            let mut all = Vec::new();
            let mut streams = Vec::new();
            for _ in 0..k {
                let n = rng.gen_range(0..40);
                let mut v: Vec<i64> = (0..n).map(|_| rng.gen_range(-100..100)).collect();
                v.sort_unstable();
                all.extend_from_slice(&v);
                streams.push(v);
            }
            all.sort_unstable();
            assert_eq!(merge_vecs(streams), all);
        }
    }

    #[test]
    fn wide_merges_order_by_key_then_stream_index() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for k in 1..40usize {
            let mut expect = Vec::new();
            let mut streams = Vec::new();
            for s in 0..k {
                let n = rng.gen_range(0..12);
                let mut v: Vec<(i64, usize)> = (0..n).map(|_| (rng.gen_range(0..6), s)).collect();
                v.sort_unstable();
                expect.extend(v.iter().map(|&(key, _)| (key, s)));
                streams.push(VecStream::new(v));
            }
            expect.sort_unstable();
            let m = KWayMerger::new(streams, |a: &(i64, usize), b: &(i64, usize)| a.0.cmp(&b.0));
            let got: Vec<(i64, usize)> = m.unwrap().collect_all().unwrap();
            assert_eq!(got, expect, "k={k}");
        }
    }

    #[test]
    fn reports_source_stream_indices() {
        let streams = vec![VecStream::new(vec![10]), VecStream::new(vec![5, 20])];
        let mut m = KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).unwrap();
        assert_eq!(m.next_merged().unwrap(), Some((5, 1)));
        assert_eq!(m.next_merged().unwrap(), Some((10, 0)));
        assert_eq!(m.next_merged().unwrap(), Some((20, 1)));
        assert_eq!(m.next_merged().unwrap(), None);
        assert_eq!(m.next_merged().unwrap(), None, "exhausted merger stays exhausted");
    }
}

#[cfg(test)]
mod pooled_tests {
    use super::*;
    use crate::budget::MemoryBudget;
    use crate::device::Disk;
    use crate::error::ExtError;
    use crate::extent::{ByteReader, ByteSink, ExtentReader, ExtentWriter};
    use crate::pool::{CachePolicy, WriteMode};
    use crate::stats::IoCat;
    use std::rc::Rc;

    /// A sorted run of little-endian u32s streamed from an extent.
    struct U32RunStream {
        r: ExtentReader,
    }

    impl MergeStream for U32RunStream {
        type Item = u32;

        fn next_item(&mut self) -> Result<Option<u32>> {
            let mut b = [0u8; 4];
            match self.r.read_exact(&mut b) {
                Ok(()) => Ok(Some(u32::from_le_bytes(b))),
                Err(ExtError::UnexpectedEof { .. }) => Ok(None),
                Err(e) => Err(e),
            }
        }
    }

    fn merge_on(disk: &Rc<Disk>) -> Vec<u32> {
        let budget = MemoryBudget::new(8);
        let runs: [Vec<u32>; 2] =
            [(0..64).map(|i| 2 * i).collect(), (0..64).map(|i| 2 * i + 1).collect()];
        let mut streams = Vec::new();
        for run in &runs {
            let mut w = ExtentWriter::new(disk.clone(), &budget, IoCat::RunWrite).unwrap();
            for v in run {
                w.write_all(&v.to_le_bytes()).unwrap();
            }
            let ext = w.finish().unwrap();
            let r = ExtentReader::new(disk.clone(), &budget, &ext, IoCat::RunRead).unwrap();
            streams.push(U32RunStream { r });
        }
        KWayMerger::new(streams, |a: &u32, b: &u32| a.cmp(b)).unwrap().collect_all().unwrap()
    }

    #[test]
    fn pooled_merge_is_bitwise_identical_and_cheaper_physically() {
        let plain = Disk::new_mem(32);
        let expect = merge_on(&plain);
        assert_eq!(expect, (0..128).collect::<Vec<u32>>());
        for policy in [CachePolicy::Lru, CachePolicy::Clock] {
            let cached = Disk::new_mem(32);
            cached.enable_cache(16, policy, WriteMode::Back);
            let got = merge_on(&cached);
            assert_eq!(got, expect, "{policy}: the pool must not change merge output");
            let p = plain.stats().snapshot();
            let c = cached.stats().snapshot();
            assert_eq!(p.reads(IoCat::RunRead), c.reads(IoCat::RunRead), "{policy}");
            assert_eq!(p.writes(IoCat::RunWrite), c.writes(IoCat::RunWrite), "{policy}");
            assert!(
                c.phys_reads(IoCat::RunRead) < c.reads(IoCat::RunRead),
                "{policy}: fan-in reads must hit frames still warm from the run build"
            );
        }
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use crate::error::ExtError;

    struct FailingStream {
        yields: u32,
    }

    impl MergeStream for FailingStream {
        type Item = i64;

        fn next_item(&mut self) -> Result<Option<i64>> {
            if self.yields == 0 {
                Err(ExtError::Corrupt("stream broke".into()))
            } else {
                self.yields -= 1;
                Ok(Some(i64::from(self.yields)))
            }
        }
    }

    #[test]
    fn stream_errors_propagate_from_construction() {
        let streams = vec![FailingStream { yields: 0 }];
        assert!(KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).is_err());
    }

    /// Errors exactly once, at the `fail_at`-th pull, then keeps yielding --
    /// models a transient device fault healing under retry at a higher layer.
    struct RecoveringStream {
        items: Vec<i64>,
        next: usize,
        fail_at: usize,
        pulls: usize,
    }

    impl MergeStream for RecoveringStream {
        type Item = i64;

        fn next_item(&mut self) -> Result<Option<i64>> {
            let pull = self.pulls;
            self.pulls += 1;
            if pull == self.fail_at {
                return Err(ExtError::Corrupt("transient".into()));
            }
            let item = self.items.get(self.next).copied();
            self.next += item.is_some() as usize;
            Ok(item)
        }
    }

    #[test]
    fn error_mid_merge_preserves_buffered_items() {
        // Stream 0's third pull (the replacement for its buffered 20) fails.
        // The merge must surface the error WITHOUT losing 20 -- the heads
        // already buffered stay in place and the merge resumes cleanly.
        let streams = vec![
            RecoveringStream { items: vec![10, 20, 30], next: 0, fail_at: 2, pulls: 0 },
            RecoveringStream { items: vec![15, 25], next: 0, fail_at: usize::MAX, pulls: 0 },
        ];
        let mut m = KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).unwrap();
        assert_eq!(m.next_merged().unwrap(), Some((10, 0)));
        assert_eq!(m.next_merged().unwrap(), Some((15, 1)));
        // Yielding 20 requires pulling stream 0's replacement: that errors.
        assert!(m.next_merged().is_err(), "the transient fault must surface");
        // Nothing was dropped: 20 is still buffered, and the merge continues
        // in full sorted order once the stream recovers.
        let mut rest = Vec::new();
        while let Some((item, _)) = m.next_merged().unwrap() {
            rest.push(item);
        }
        assert_eq!(rest, vec![20, 25, 30], "buffered heads survive a mid-merge error");
    }

    #[test]
    fn equal_keys_stay_stable_across_wide_fan_in() {
        // Five streams, every key equal on the comparator: output must cycle
        // the streams in index order, key after key -- document order among
        // equal keys, exactly what graceful degeneration relies on.
        let streams: Vec<VecStream<(u8, usize)>> =
            (0..5).map(|s| VecStream::new((0..4u8).map(|k| (k, s)).collect())).collect();
        let mut m =
            KWayMerger::new(streams, |a: &(u8, usize), b: &(u8, usize)| a.0.cmp(&b.0)).unwrap();
        let mut out = Vec::new();
        while let Some(((key, origin), src)) = m.next_merged().unwrap() {
            assert_eq!(origin, src, "payload tags its source stream");
            out.push((key, src));
        }
        let expected: Vec<(u8, usize)> =
            (0..4u8).flat_map(|k| (0..5).map(move |s| (k, s))).collect();
        assert_eq!(out, expected, "ties resolve by stream index at every fan-in width");
    }

    #[test]
    fn stream_errors_propagate_mid_merge() {
        let streams = vec![FailingStream { yields: 2 }];
        let mut m = KWayMerger::new(streams, |a: &i64, b: &i64| a.cmp(b)).unwrap();
        assert!(m.next_merged().unwrap().is_some());
        // The replacement pull for the second item hits the failure.
        let mut saw_err = false;
        for _ in 0..3 {
            match m.next_merged() {
                Err(_) => {
                    saw_err = true;
                    break;
                }
                Ok(Some(_)) => continue,
                Ok(None) => break,
            }
        }
        assert!(saw_err, "the broken stream must surface its error");
    }
}
