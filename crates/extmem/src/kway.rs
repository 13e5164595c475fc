//! Generic k-way merge over sorted streams, and the multi-pass merge plan.
//!
//! The key-path external merge sort (the paper's baseline, also used by
//! NEXSORT for subtrees too large to sort in memory, and by the graceful-
//! degeneration optimization to combine incomplete runs) merges up to
//! `m - 1` sorted runs per pass. This module provides the merging engine: a
//! tournament tree of stream heads driven by a caller-supplied comparator,
//! and [`MergePlan`], which decides which runs each merge takes.
//!
//! The merger is device-agnostic; when its streams read runs through a
//! [`Disk`](crate::Disk) with a buffer pool enabled, fan-in block fetches
//! that hit resident frames cost no physical I/O and the merged output is
//! identical (the pool changes *where* bytes come from, never *what* they
//! are).

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::convert::Infallible;

use crate::error::Result;

/// A stream of items in nondecreasing order (by the merge's comparator).
pub trait MergeStream {
    /// The item type produced by the stream.
    type Item;
    /// Produce the next item, or `None` at end of stream. `spare` is the
    /// item the merge emitted last, handed back so that a stream whose
    /// items own buffers can refill one in place instead of allocating.
    fn next_item(&mut self, spare: Option<Self::Item>) -> Result<Option<Self::Item>>;
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

    fn next_item(&mut self, _spare: Option<T>) -> Result<Option<T>> {
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
    /// The item [`Self::next_merged`] lent out last.
    last: Option<S::Item>,
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
            heads.push(s.next_item(None)?);
        }
        let k = streams.len();
        let mut m = Self { streams, heads, last: None, tree: vec![0; k], cmp };
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
    /// the stream it came from. The item is lent until the next call, which
    /// hands it to a stream as the spare to refill: a merge of items that
    /// own buffers allocates per stream, not per item.
    pub fn next_merged(&mut self) -> Result<Option<(&S::Item, usize)>> {
        let Some(&w) = self.tree.first() else { return Ok(None) };
        if self.heads[w].is_none() {
            // The winner is exhausted, so every stream is.
            return Ok(None);
        }
        // Pull the replacement first, into the item lent out last: if the
        // stream fails, the winner stays buffered and the next call retries.
        let replacement = self.streams[w].next_item(self.last.take())?;
        self.last = std::mem::replace(&mut self.heads[w], replacement);
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
        Ok(self.last.as_ref().map(|item| (item, w)))
    }
}

#[cfg(test)]
impl<S, F> KWayMerger<S, F>
where
    S: MergeStream,
    S::Item: Clone,
    F: Fn(&S::Item, &S::Item) -> Ordering,
{
    /// Drain the merge into a vector of copies.
    fn collect_all(mut self) -> Result<Vec<S::Item>> {
        let mut out = Vec::new();
        while let Some((item, _)) = self.next_merged()? {
            out.push(item.clone());
        }
        Ok(out)
    }
}

/// Which runs each merge of a multi-pass merge takes, until at most
/// `fan_in` are left for the final merge: Huffman's optimal pattern for
/// `fan_in`-ary merges (Knuth, TAOCP Vol. 3, 5.4.9). The first intermediate
/// merge takes only the excess, `(runs - fan_in - 1) mod (fan_in - 1) + 2`
/// runs, every later one `fan_in`, each the shortest pending runs, ties
/// going to the earlier run in the list. That is as many merges as draining
/// `fan_in` runs off the list's front, without re-reading merged runs.
///
/// Groups come in list order and outputs join the back of the list, as the
/// journal's replay of a committed merge rebuilds it. The choice depends
/// only on the list (runs, order, lengths), so a resume makes the merges
/// the uninterrupted sort would have.
#[derive(Debug)]
pub struct MergePlan<R> {
    fan_in: usize,
    /// Every run the plan has held, in list order, with its merge level
    /// (0 for an initial run); `None` once merged.
    list: Vec<Option<(R, u32)>>,
    /// The pending runs as `(length, list position)`, shortest first.
    pending: BTreeSet<(u64, usize)>,
    merges: u32,
}

impl<R: Copy> MergePlan<R> {
    /// Plan the merge of `runs`, given as `(run, length)` in list order, at
    /// the given fan-in (at least 2).
    pub fn new(fan_in: usize, runs: impl IntoIterator<Item = (R, u64)>) -> Self {
        let (list, pending) = runs
            .into_iter()
            .enumerate()
            .map(|(at, (run, len))| (Some((run, 0)), (len, at)))
            .unzip();
        Self { fan_in: fan_in.max(2), list, pending, merges: 0 }
    }

    /// Run every intermediate merge: `merge(n, group)` merges the `n`-th
    /// group (counting from 1) into one new run and returns it with its
    /// length. An error stops the loop and leaves the list as it was.
    pub fn merge_down<E>(
        &mut self,
        mut merge: impl FnMut(u32, &[R]) -> std::result::Result<(R, u64), E>,
    ) -> std::result::Result<(), E> {
        while self.pending.len() > self.fan_in {
            let take = (self.pending.len() - self.fan_in - 1) % (self.fan_in - 1) + 2;
            let mut picked: Vec<(u64, usize)> = self.pending.iter().take(take).copied().collect();
            picked.sort_unstable_by_key(|&(_, at)| at);
            let group: Vec<(R, u32)> = picked.iter().filter_map(|&(_, at)| self.list[at]).collect();
            let runs: Vec<R> = group.iter().map(|&(run, _)| run).collect();
            let (out, len) = merge(self.merges + 1, &runs)?;
            for (len, at) in picked {
                self.pending.remove(&(len, at));
                self.list[at] = None;
            }
            let level = group.iter().map(|&(_, level)| level).max().unwrap_or(0) + 1;
            self.pending.insert((len, self.list.len()));
            self.list.push(Some((out, level)));
            self.merges += 1;
        }
        Ok(())
    }

    /// Intermediate merges run so far.
    pub fn merges(&self) -> u32 {
        self.merges
    }

    /// The runs pending, in list order: after [`Self::merge_down`], the
    /// final merge's inputs.
    pub fn runs(&self) -> Vec<R> {
        self.list.iter().flatten().map(|&(run, _)| run).collect()
    }

    /// Merge levels from the initial runs to the output, the final merge
    /// included: the passes over the data after run formation.
    pub fn depth(&self) -> u32 {
        self.list.iter().flatten().map(|&(_, level)| level).max().unwrap_or(0) + 1
    }
}

impl MergePlan<u64> {
    /// The plan for runs of lengths `lens`, carried out on paper: each
    /// merge's output is as long as its inputs together.
    pub fn simulate(fan_in: usize, lens: &[u64]) -> Self {
        let mut plan = Self::new(fan_in, lens.iter().map(|&len| (len, len)));
        let Ok(()) = plan.merge_down(|_, g| Ok::<_, Infallible>((g.iter().sum(), g.iter().sum())));
        plan
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
        while let Some((&item, src)) = m.next_merged().unwrap() {
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
        assert_eq!(m.next_merged().unwrap(), Some((&5, 1)));
        assert_eq!(m.next_merged().unwrap(), Some((&10, 0)));
        assert_eq!(m.next_merged().unwrap(), Some((&20, 1)));
        assert_eq!(m.next_merged().unwrap(), None);
        assert_eq!(m.next_merged().unwrap(), None, "exhausted merger stays exhausted");
    }

    /// Yields its values as one-element vectors, refilling the spare when
    /// it gets one and counting the buffers it had to allocate.
    struct BufStream {
        items: std::vec::IntoIter<u32>,
        allocs: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl MergeStream for BufStream {
        type Item = Vec<u32>;

        fn next_item(&mut self, spare: Option<Vec<u32>>) -> Result<Option<Vec<u32>>> {
            let Some(v) = self.items.next() else { return Ok(None) };
            let mut buf = spare.unwrap_or_else(|| {
                self.allocs.set(self.allocs.get() + 1);
                Vec::new()
            });
            buf.clear();
            buf.push(v);
            Ok(Some(buf))
        }
    }

    #[test]
    fn the_lent_item_is_refilled_as_the_next_pulls_spare() {
        let allocs = std::rc::Rc::new(std::cell::Cell::new(0));
        let streams: Vec<BufStream> = (0..3u32)
            .map(|s| BufStream {
                items: (0..100u32).map(|i| 3 * i + s).collect::<Vec<_>>().into_iter(),
                allocs: allocs.clone(),
            })
            .collect();
        let mut m = KWayMerger::new(streams, |a: &Vec<u32>, b: &Vec<u32>| a.cmp(b)).unwrap();
        let mut out = Vec::new();
        while let Some((item, src)) = m.next_merged().unwrap() {
            assert_eq!(item[0] % 3, src as u32);
            out.push(item[0]);
        }
        assert_eq!(out, (0..300).collect::<Vec<u32>>());
        // One buffer per stream head plus the one lent out: every later
        // pull refills the item the merge emitted before it.
        assert_eq!(allocs.get(), 4, "300 items merged through 4 buffers");
    }
}

#[cfg(test)]
mod plan_tests {
    use super::*;
    use std::collections::VecDeque;

    /// What a schedule did: intermediate merges, bytes they read, and the
    /// merge depth (final merge included).
    #[derive(Debug, PartialEq)]
    struct Shape {
        merges: u32,
        volume: u64,
        depth: u32,
    }

    /// The schedule the plan replaced: drain `fan_in` runs off the front of
    /// the list and append the output at the back.
    fn fifo(fan_in: usize, lens: &[u64]) -> Shape {
        let mut runs: VecDeque<(u64, u32)> = lens.iter().map(|&len| (len, 0)).collect();
        let (mut merges, mut volume) = (0, 0);
        while runs.len() > fan_in {
            let group: Vec<(u64, u32)> = runs.drain(..fan_in).collect();
            let len: u64 = group.iter().map(|g| g.0).sum();
            volume += len;
            runs.push_back((len, group.iter().map(|g| g.1).max().unwrap_or(0) + 1));
            merges += 1;
        }
        let depth = runs.iter().map(|r| r.1).max().unwrap_or(0) + 1;
        Shape { merges, volume, depth }
    }

    fn planned(fan_in: usize, lens: &[u64]) -> (Shape, MergePlan<u64>) {
        let mut plan = MergePlan::new(fan_in, lens.iter().map(|&len| (len, len)));
        let mut volume = 0;
        plan.merge_down(|_, group| {
            let len: u64 = group.iter().sum();
            volume += len;
            Ok::<_, ()>((len, len))
        })
        .unwrap();
        (Shape { merges: plan.merges(), volume, depth: plan.depth() }, plan)
    }

    /// `ceil(log_fan_in(runs))`, at least 1: the textbook pass count.
    fn log_depth(fan_in: usize, runs: usize) -> u32 {
        let (mut r, mut levels) = (runs, 0);
        while r > 1 {
            r = r.div_ceil(fan_in);
            levels += 1;
        }
        levels.max(1)
    }

    /// Run counts in `1..600` for `fan_in`: every count where the textbook
    /// depth steps (a power of `fan_in`, one either side) plus a seeded
    /// sample of the rest -- the whole grid takes a minute unoptimized.
    fn run_counts(fan_in: usize, rng: &mut impl rand::Rng) -> Vec<usize> {
        let mut counts: Vec<usize> = (1..24).map(|_| rng.gen_range(1..600)).collect();
        let mut power = 1;
        while power < 600 {
            counts.extend(
                [power - 1, power, power + 1].into_iter().filter(|&r| (1..600).contains(&r)),
            );
            power *= fan_in;
        }
        counts
    }

    #[test]
    fn plan_matches_fifo_merge_count_and_never_reads_more() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for fan_in in 2..40usize {
            for runs in run_counts(fan_in, &mut rng) {
                let equal = vec![4096u64; runs];
                let random: Vec<u64> = (0..runs).map(|_| rng.gen_range(1..10_000)).collect();
                for lens in [&equal, &random] {
                    let (got, plan) = planned(fan_in, lens);
                    let old = fifo(fan_in, lens);
                    let case = format!("runs={runs} fan_in={fan_in}");
                    assert_eq!(got.merges, old.merges, "{case}");
                    assert!(plan.runs().len() <= fan_in, "{case}");
                    assert!(got.volume <= old.volume, "{case}: {got:?} vs {old:?}");
                    assert_eq!(plan.runs().iter().sum::<u64>(), lens.iter().sum(), "{case}");
                }
                let simulated = MergePlan::simulate(fan_in, &equal);
                assert_eq!(
                    simulated.depth(),
                    log_depth(fan_in, runs),
                    "runs={runs} fan_in={fan_in}"
                );
            }
        }
    }

    #[test]
    fn the_excess_goes_first_and_the_shortest_runs_are_taken() {
        // 128 runs at fan-in 22: FIFO's sixth merge re-reads four merged
        // runs to go from 23 runs to 2; the plan merges 2 runs first, then
        // only initial runs, and ends on a full final merge.
        let (got, plan) = planned(22, &[1; 128]);
        let old = fifo(22, &[1; 128]);
        assert_eq!((got.merges, old.merges), (6, 6));
        assert_eq!((got.volume, old.volume), (2 + 5 * 22, 5 * 22 + 18 + 88));
        assert_eq!(plan.runs().len(), 22);
        assert_eq!((got.depth, old.depth), (2, 3));
    }

    #[test]
    fn groups_come_in_list_order_and_ties_go_to_the_earlier_run() {
        let mut plan = MergePlan::new(3, [('a', 5), ('b', 1), ('c', 9), ('d', 1), ('e', 1)]);
        let mut groups = Vec::new();
        plan.merge_down(|n, group| {
            groups.push((n, group.to_vec()));
            Ok::<_, ()>((char::from(b'0' + n as u8), 3))
        })
        .unwrap();
        // 5 runs at fan-in 3: one merge of the three shortest, in list order.
        assert_eq!(groups, vec![(1, vec!['b', 'd', 'e'])]);
        assert_eq!(plan.runs(), vec!['a', 'c', '1']);
        let mut plan = MergePlan::new(2, [('a', 2), ('b', 1), ('c', 1), ('d', 1)]);
        let mut groups = Vec::new();
        plan.merge_down(|n, group| {
            groups.push(group.to_vec());
            Ok::<_, ()>((char::from(b'0' + n as u8), 2))
        })
        .unwrap();
        // Ties: b and c before d; then the new run 1 (length 2) loses its
        // tie with the earlier a.
        assert_eq!(groups, vec![vec!['b', 'c'], vec!['a', 'd']]);
        assert_eq!(plan.runs(), vec!['1', '2']);
    }

    #[test]
    fn a_failed_merge_leaves_the_list_as_it_was() {
        let mut plan = MergePlan::new(2, [(0u32, 1), (1, 1), (2, 1)]);
        assert_eq!(plan.merge_down(|_, _| Err("device gone")), Err("device gone"));
        assert_eq!((plan.runs(), plan.merges()), (vec![0, 1, 2], 0));
        plan.merge_down(|_, group| Ok::<_, ()>((group[0] + 10, 2))).unwrap();
        assert_eq!((plan.runs(), plan.merges(), plan.depth()), (vec![2, 10], 1, 2));
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

        fn next_item(&mut self, _spare: Option<u32>) -> Result<Option<u32>> {
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

        fn next_item(&mut self, _spare: Option<i64>) -> Result<Option<i64>> {
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

        fn next_item(&mut self, _spare: Option<i64>) -> Result<Option<i64>> {
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
        assert_eq!(m.next_merged().unwrap(), Some((&10, 0)));
        assert_eq!(m.next_merged().unwrap(), Some((&15, 1)));
        // Yielding 20 requires pulling stream 0's replacement: that errors.
        assert!(m.next_merged().is_err(), "the transient fault must surface");
        // Nothing was dropped: 20 is still buffered, and the merge continues
        // in full sorted order once the stream recovers.
        let mut rest = Vec::new();
        while let Some((&item, _)) = m.next_merged().unwrap() {
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
        while let Some((&(key, origin), src)) = m.next_merged().unwrap() {
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
