//! The in-process parallel shard orchestrator — the one way a sweep
//! runs: one frontier build, work-stolen parent ranges, one streaming
//! merge.
//!
//! [`bnf_stream::ParentFrontier`] is built **once**, cut into many more
//! ranges than worker threads (default [`DEFAULT_OVERSPLIT`]× — e.g.
//! 256 ranges on 16 threads at `n = 10`), and workers steal ranges off
//! an atomic counter, so a heavy sparse-parent range simply occupies
//! one worker while the rest drain the tail — no skew cliff, no
//! operator-tuned split. A [`RangePlan`] names the partition and which
//! of its ranges this run executes: all of them for a normal sweep,
//! the missing ones on resume, and one host's `K` consecutive ranges
//! of a `K·m` partition for `--shard i/m` (every host computes the same
//! cut, so their segments merge like any other ranges).
//!
//! Each worker fuses producer and classifier: it streams its stolen
//! range serially ([`bnf_stream::ParentFrontier::stream_range`]),
//! classifies inline with its own [`WorkerScratch`], tag-sorts the
//! segment, and hands it to a single writer — the calling thread —
//! through a [`BoundedQueue`]. The writer surfaces every completed
//! segment to the caller's `on_segment` callback (where `bnf-empirics`
//! appends records and per-range shard provenance into one
//! `ClassificationAtlas`), then merges all segments and re-sorts by the
//! engine's `(edge count, leading canonical word)` tag, so the final
//! output order — and therefore every downstream float summation — is
//! the `(edge count, canonical key)` order of the materialized
//! catalogue.
//!
//! Failure: a panic in any range (or in the writer callback) closes the
//! queue, which unblocks every other participant, and propagates to
//! the caller once the scope joins (a one-thread sweep runs its ranges
//! on the calling thread, where the panic simply unwinds) — segments already written stay (the
//! atlas is append-only and resumable), but control never reaches
//! coverage declaration, so a poisoned run is visibly incomplete rather
//! than silently short.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bnf_graph::{CanonKey, Graph};
use bnf_stream::{BoundedQueue, ParentFrontier, PruneCounters, ShardSpec, StreamStats};

use crate::pipeline::Analysis;
use crate::scratch::WorkerScratch;

/// Ranges cut per worker thread when the caller asks for the automatic
/// split (`--shards auto`): enough oversplit that one emission-heavy
/// range costs at most ≈ 1/16 of a thread's share of the sweep, while
/// keeping per-range overhead (segment hand-off, shard provenance)
/// negligible.
pub const DEFAULT_OVERSPLIT: usize = 16;

/// The automatic range count for a worker-thread budget:
/// `threads × `[`DEFAULT_OVERSPLIT`] (at least 1).
pub fn auto_range_count(threads: usize) -> usize {
    threads.max(1).saturating_mul(DEFAULT_OVERSPLIT)
}

/// Asserts the sort tag is *exact* at order `n`: records are ordered by
/// `(edge count, CanonKey::prefix_word)`, which reproduces the full
/// `(edge count, canonical key)` lexicographic order only while the
/// packed upper triangle — `n(n−1)/2` bits — fits the key's single
/// leading 64-bit word. Every enumerable order (`n ≤ 10`, enforced by
/// the producer) passes with room to spare; this assertion exists so a
/// future raise of the enumeration bound or the `BNF_MAX_N` clamp cannot
/// silently mis-order merged output — it must fail loudly at the sort
/// site instead.
pub(crate) fn assert_sort_tag_exact(n: usize) {
    assert!(
        n * n.saturating_sub(1) / 2 <= 64,
        "(edges, leading-word) sort tag is exact only while n(n-1)/2 <= 64 bits; n={n} needs \
         {} bits — switch the merge sort to full CanonKey comparison before raising the \
         enumeration bound",
        n * n.saturating_sub(1) / 2,
    );
}

/// Which ranges of a parent-frontier partition one sweep executes.
///
/// Range `i` of `ranges` owns parents `ShardSpec::new(i, ranges).range(L)`
/// of the `L`-parent frontier, so the plan alone fixes every boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePlan {
    /// Total ranges the frontier is cut into.
    pub ranges: usize,
    /// Sorted, deduplicated indices (`< ranges`) this run executes.
    pub run: Vec<usize>,
    /// The frontier length a prior run cut this partition from, when
    /// one did (resume): asserted against the rebuilt frontier before
    /// any range runs, so metadata from an incompatible build can never
    /// silently skip the wrong parents. `None` accepts any frontier.
    pub frontier_len: Option<u64>,
}

impl RangePlan {
    /// Every range of a `ranges`-way partition (at least one range).
    pub fn all(ranges: usize) -> RangePlan {
        let ranges = ranges.max(1);
        RangePlan {
            ranges,
            run: (0..ranges).collect(),
            frontier_len: None,
        }
    }

    /// Shard `i/m` of a multi-host sweep: ranges `i·K .. (i+1)·K` of a
    /// `K·m` partition, `K = `[`DEFAULT_OVERSPLIT`]. Since
    /// `⌊L·iK/(mK)⌋ = ⌊L·i/m⌋`, the shard owns exactly the parents
    /// `shard.range(L)`, while its `K` ranges still spread across the
    /// process's worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `K·m` overflows `usize`.
    pub fn shard(shard: ShardSpec) -> RangePlan {
        let k = DEFAULT_OVERSPLIT;
        RangePlan {
            ranges: shard
                .count
                .checked_mul(k)
                .expect("shard count overflows the range partition"),
            run: (shard.index * k..(shard.index + 1) * k).collect(),
            frontier_len: None,
        }
    }

    /// This plan minus the ranges a prior run durably `completed`, with
    /// the partition pinned to the prior run's `frontier_len`.
    pub fn without_completed(mut self, completed: &[usize], frontier_len: u64) -> RangePlan {
        self.run.retain(|i| !completed.contains(i));
        self.frontier_len = Some(frontier_len);
        self
    }
}

/// One completed parent range, surfaced to the orchestrator's writer
/// callback in completion order (not index order — ranges finish when
/// they finish).
///
/// `records` is already tag-sorted into the engine's deterministic
/// `(edge count, canonical key)` order *within the range*, so appending
/// segments as they arrive — into one store, or into one host's
/// segment file for `shard_merge` — needs no further ordering.
#[derive(Debug)]
pub struct RangeSegment<'a, T> {
    /// Which range of the partition this is (`0..ranges`).
    pub index: usize,
    /// Total ranges in the partition.
    pub ranges: usize,
    /// Parents in the shared frontier (identical for every segment).
    pub frontier_len: u64,
    /// Pruning counters of the single frontier build — identical for
    /// every segment of the run; provenance writers stamp it per range
    /// so `ShardMeta::merged_counters` can count it exactly once.
    pub frontier_prune: PruneCounters,
    /// First parent index owned by this range.
    pub parent_lo: u64,
    /// One past the last parent index owned by this range.
    pub parent_hi: u64,
    /// Final-level graphs emitted (= `records.len()`).
    pub emitted: u64,
    /// Wall-clock the worker spent producing + classifying this range.
    pub elapsed_ms: u64,
    /// Final-level pruning counters restricted to this range.
    pub final_prune: PruneCounters,
    /// The range's classified records, tag-sorted.
    pub records: &'a [T],
}

/// What an orchestrated run did: the unsharded-equivalent
/// [`StreamStats`] totals plus the orchestration shape.
///
/// `stats` is constructed to equal the [`StreamStats`] of an unsharded
/// `stream_connected` run *exactly* — frontier level sizes from the
/// single build, final level summed over ranges, and pruning counters
/// as the one frontier share plus the summed per-range final shares —
/// which is what makes `candidates_per_survivor` and the counter
/// diagnostics comparable whatever the partition (for a plan that runs
/// only some ranges, the final level covers those ranges only).
#[derive(Debug, Clone)]
pub struct OrchestratorStats {
    /// Unsharded-equivalent per-level sizes and pruning counters.
    pub stats: StreamStats,
    /// Parents in the shared level-`n − 1` frontier.
    pub frontier_len: u64,
    /// Pruning counters of the frontier build (counted once).
    pub frontier_prune: PruneCounters,
    /// Summed final-level pruning counters across all ranges.
    pub final_prune: PruneCounters,
    /// How many ranges the frontier was split into.
    pub ranges: usize,
    /// Worker threads that stole those ranges.
    pub threads: usize,
}

impl OrchestratorStats {
    /// Final-level graphs emitted across the whole partition.
    pub fn emitted(&self) -> u64 {
        self.stats.emitted()
    }
}

/// One completed range in flight from a worker to the writer. Tags
/// (`(edge count, leading canonical word)`) travel alongside the
/// records so the writer can fold every segment into the global
/// tag-sorted output without re-deriving keys.
struct Segment<T> {
    index: usize,
    lo: usize,
    hi: usize,
    emitted: u64,
    elapsed_ms: u64,
    final_prune: PruneCounters,
    /// Sort tags aligned index-for-index with `records`.
    tags: Vec<(usize, u64)>,
    records: Vec<T>,
}

/// Emitted graphs a worker buffers before classifying them. Alternating
/// the augmentation and the classifier graph by graph makes each evict
/// the other's working set (about 7% of a single-thread n = 7 sweep); a
/// few hundred buffered graphs per worker cost nothing in memory.
const CLASSIFY_BATCH: usize = 256;

/// Classifies and drains `batch` into `tagged`, each output tagged with
/// its `(edge count, leading canonical word)` sort key.
fn classify_batch<A: Analysis>(
    job: &A,
    batch: &mut Vec<(Graph, CanonKey)>,
    scratch: &mut WorkerScratch,
    tagged: &mut Vec<((usize, u64), A::Output)>,
) {
    for (graph, key) in batch.drain(..) {
        let out = job.classify_keyed(&graph.to_graph6(), &graph, scratch);
        tagged.push(((graph.edge_count(), key.prefix_word()), out));
    }
}

/// Closes the segment queue when a worker leaves: immediately if the
/// worker is unwinding (cancelling the run so neither the writer nor a
/// sibling blocked on a full queue can deadlock), otherwise only when
/// this was the last live worker (a per-worker unconditional close
/// would starve the siblings still producing).
struct WorkerExit<'q, T> {
    queue: &'q BoundedQueue<Segment<T>>,
    live: &'q AtomicUsize,
    clean: bool,
}

impl<T> Drop for WorkerExit<'_, T> {
    fn drop(&mut self) {
        if !self.clean || self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.queue.close();
        }
    }
}

/// The sweep body behind [`crate::AnalysisEngine::sweep`]: builds the
/// frontier once, runs the ranges `plan` lists on `threads` workers,
/// and returns the executed ranges' outputs in engine order.
pub(crate) fn run<A, W>(
    threads: usize,
    n: usize,
    plan: &RangePlan,
    job: &A,
    mut on_segment: W,
) -> (Vec<A::Output>, OrchestratorStats)
where
    A: Analysis,
    W: FnMut(RangeSegment<'_, A::Output>),
{
    assert_sort_tag_exact(n);
    let threads = threads.max(1);
    let ranges = plan.ranges.max(1);
    let run = &plan.run;
    assert!(
        run.windows(2).all(|w| w[0] < w[1]) && run.last().is_none_or(|&i| i < ranges),
        "range plan must list sorted, distinct ranges of its {ranges}-way partition"
    );
    // The one frontier build of the whole run.
    let frontier = ParentFrontier::build(n, threads);
    let frontier_len = frontier.len() as u64;
    if let Some(stored) = plan.frontier_len {
        // Refuse before any work runs: a stored partition cut from a
        // different frontier would skip the wrong parent ranges.
        assert_eq!(
            stored, frontier_len,
            "range plan was cut from a different n={n} frontier \
             (stored {stored}, rebuilt {frontier_len}) — incompatible build?",
        );
    }
    let frontier_prune = frontier.frontier_prune();

    // One range: stream its parents, classify the children in batches,
    // tag-sort the segment.
    let produce = |index: usize, scratch: &mut WorkerScratch| {
        let (lo, hi) = ShardSpec::new(index, ranges).range(frontier.len());
        let started = Instant::now();
        let mut tagged: Vec<((usize, u64), A::Output)> = Vec::new();
        let mut batch = Vec::with_capacity(CLASSIFY_BATCH);
        let range = frontier.stream_range(lo, hi, |graph, key| {
            batch.push((graph, key));
            if batch.len() == CLASSIFY_BATCH {
                classify_batch(job, &mut batch, scratch, &mut tagged);
            }
        });
        classify_batch(job, &mut batch, scratch, &mut tagged);
        tagged.sort_by_key(|t| t.0);
        let (tags, records): (Vec<_>, Vec<_>) = tagged.into_iter().unzip();
        Segment {
            index,
            lo,
            hi,
            emitted: range.emitted,
            elapsed_ms: started.elapsed().as_millis() as u64,
            final_prune: range.prune,
            tags,
            records,
        }
    };

    let mut merged: Vec<((usize, u64), A::Output)> = Vec::new();
    let mut emitted_total = 0u64;
    let mut final_prune = PruneCounters::default();
    let mut segments = 0usize;
    // The single writer: surfaces a completed segment and folds it into
    // the merge.
    let mut write = |segment: Segment<A::Output>| {
        on_segment(RangeSegment {
            index: segment.index,
            ranges,
            frontier_len,
            frontier_prune,
            parent_lo: segment.lo as u64,
            parent_hi: segment.hi as u64,
            emitted: segment.emitted,
            elapsed_ms: segment.elapsed_ms,
            final_prune: segment.final_prune,
            records: &segment.records,
        });
        let recorder = bnf_obs::Recorder::global();
        recorder.record_hist("range_wall_ms", segment.elapsed_ms);
        recorder.record_hist("range_emitted", segment.emitted);
        emitted_total += segment.emitted;
        final_prune.merge(&segment.final_prune);
        segments += 1;
        merged.extend(segment.tags.into_iter().zip(segment.records));
    };

    if threads == 1 {
        // One worker: the calling thread runs every range and writes it
        // itself — a freshly spawned worker's cold start costs about 10%
        // of a small sweep.
        let mut scratch = WorkerScratch::new();
        for &index in run {
            write(produce(index, &mut scratch));
        }
        bnf_obs::Recorder::global().record_hist("ranges_per_worker", run.len() as u64);
    } else {
        let queue: BoundedQueue<Segment<A::Output>> = BoundedQueue::new(threads * 2);
        let next = AtomicUsize::new(0);
        let live = AtomicUsize::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut exit = WorkerExit {
                        queue: &queue,
                        live: &live,
                        clean: false,
                    };
                    let mut scratch = WorkerScratch::new();
                    let mut stolen = 0u64;
                    while let Some(&index) = run.get(next.fetch_add(1, Ordering::Relaxed)) {
                        stolen += 1;
                        // A failed push means some participant panicked
                        // and closed the queue — stop stealing instead of
                        // enumerating for nobody.
                        if !queue.push(produce(index, &mut scratch)) {
                            break;
                        }
                    }
                    // The steal-balance histogram: a lopsided
                    // distribution means the oversplit is too coarse for
                    // this frontier.
                    bnf_obs::Recorder::global().record_hist("ranges_per_worker", stolen);
                    exit.clean = true;
                });
            }
            // The calling thread is the single writer. Its guard closes
            // the queue if `on_segment` panics, so no worker can stay
            // blocked on a full queue while the scope waits to join it.
            let _guard = queue.close_guard();
            while let Some(segment) = queue.pop() {
                write(segment);
            }
        });
        bnf_obs::Recorder::global()
            .record_max("writer_backlog_high_water", queue.high_water() as u64);
    }

    debug_assert_eq!(segments, run.len(), "plan did not close");
    bnf_obs::Recorder::global().time("sort", || merged.sort_by_key(|t| t.0));
    let mut stats = StreamStats {
        level_sizes: frontier.level_sizes().to_vec(),
        prune: frontier_prune,
    };
    stats.level_sizes.push(emitted_total);
    stats.prune.merge(&final_prune);
    (
        merged.into_iter().map(|(_, out)| out).collect(),
        OrchestratorStats {
            stats,
            frontier_len,
            frontier_prune,
            final_prune,
            ranges,
            threads,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AnalysisEngine;
    use bnf_enumerate::connected_graphs_unpruned;
    use bnf_graph::Graph;

    struct Tagged;
    impl Analysis for Tagged {
        type Output = (usize, String);
        fn classify(&self, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
            (g.edge_count(), "unkeyed".into())
        }
        fn classify_keyed(&self, key: &str, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
            (g.edge_count(), key.to_string())
        }
    }

    /// The independent oracle: the dedup-based materialized catalogue,
    /// classified keyed in its own (edge count, canonical key) order.
    fn oracle(n: usize) -> Vec<(usize, String)> {
        AnalysisEngine::new(2).map(&connected_graphs_unpruned(n), |g, s| {
            Tagged.classify_keyed(&g.to_graph6(), g, s)
        })
    }

    #[test]
    fn orchestrated_output_is_byte_identical_to_streaming_keyed() {
        // Any thread budget, any oversplit — including one range total
        // and far more ranges than parents — must reproduce the keyed
        // oracle exactly, order included.
        let whole = oracle(7);
        for (threads, ranges) in [
            (1usize, None),
            (3, None),
            (2, Some(1)),
            (3, Some(7)),
            (2, Some(1000)),
        ] {
            let engine = AnalysisEngine::new(threads);
            let ranges = ranges.unwrap_or_else(|| auto_range_count(threads));
            let (out, stats) = engine.sweep(7, &RangePlan::all(ranges), &Tagged, |_| {});
            assert_eq!(out, whole, "threads={threads} ranges={ranges}");
            assert_eq!(stats.emitted(), 853, "threads={threads} ranges={ranges}");
            assert_eq!(stats.ranges, ranges);
        }
    }

    #[test]
    fn orchestrated_counters_equal_unsharded_exactly() {
        // Frontier share counted once plus summed range shares == the
        // unsharded StreamStats, exactly.
        let engine = AnalysisEngine::new(3);
        let unsharded = bnf_stream::stream_connected(7, 3, &|_, _| true);
        let (_, orch) = engine.sweep(7, &RangePlan::all(11), &Tagged, |_| {});
        assert_eq!(orch.stats.level_sizes, unsharded.level_sizes);
        assert_eq!(orch.stats.prune, unsharded.prune);
        assert_eq!(
            orch.frontier_len,
            *unsharded.level_sizes.iter().rev().nth(1).unwrap()
        );
        let mut recombined = orch.frontier_prune;
        recombined.merge(&orch.final_prune);
        assert_eq!(recombined, unsharded.prune);
    }

    #[test]
    fn segments_partition_the_frontier_and_carry_sorted_records() {
        let engine = AnalysisEngine::new(2);
        let mut segs: Vec<(usize, u64, u64, u64)> = Vec::new();
        let mut shares: Vec<PruneCounters> = Vec::new();
        let mut frontier_len = 0u64;
        let (out, stats) = engine.sweep(6, &RangePlan::all(5), &Tagged, |seg| {
            assert_eq!(seg.ranges, 5);
            assert_eq!(seg.emitted as usize, seg.records.len());
            assert!(
                seg.records.windows(2).all(|w| w[0].0 <= w[1].0),
                "segment {} not tag-sorted",
                seg.index
            );
            frontier_len = seg.frontier_len;
            shares.push(seg.frontier_prune);
            segs.push((seg.index, seg.parent_lo, seg.parent_hi, seg.emitted));
        });
        assert_eq!(out.len(), 112); // A001349(6)
        assert_eq!(segs.len(), 5);
        // One frontier build: every segment carries the identical share.
        assert!(shares.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(shares[0], stats.frontier_prune);
        // The ranges tile [0, frontier_len) exactly.
        segs.sort_unstable();
        assert_eq!(segs[0].1, 0);
        assert!(segs.windows(2).all(|w| w[0].2 == w[1].1));
        assert_eq!(segs.last().unwrap().2, frontier_len);
        assert_eq!(segs.iter().map(|s| s.3).sum::<u64>(), stats.emitted());
    }

    #[test]
    fn panic_in_one_range_propagates_without_deadlock() {
        struct Boom;
        impl Analysis for Boom {
            type Output = ();
            fn classify(&self, g: &Graph, _s: &mut WorkerScratch) {
                assert!(g.edge_count() < 9, "boom"); // K5 trips this
            }
        }
        let caught = std::panic::catch_unwind(|| {
            AnalysisEngine::new(2).sweep(5, &RangePlan::all(8), &Boom, |_| {});
        });
        assert!(caught.is_err(), "range panic must reach the caller");
    }

    #[test]
    fn panic_in_writer_callback_propagates_without_deadlock() {
        let caught = std::panic::catch_unwind(|| {
            AnalysisEngine::new(2).sweep(6, &RangePlan::all(4), &Tagged, |seg| {
                assert_ne!(seg.index, 0, "writer boom")
            });
        });
        assert!(caught.is_err(), "writer panic must reach the caller");
    }

    #[test]
    fn resumed_run_skips_completed_ranges_and_covers_the_rest() {
        let engine = AnalysisEngine::new(2);
        // A cold partition to learn the ground truth from.
        let mut cold: Vec<(usize, u64, u64, u64)> = Vec::new();
        let mut frontier_len = 0u64;
        engine.sweep(6, &RangePlan::all(6), &Tagged, |seg| {
            frontier_len = seg.frontier_len;
            cold.push((seg.index, seg.parent_lo, seg.parent_hi, seg.emitted));
        });
        cold.sort_unstable();

        // Resume with ranges {0, 2, 5} already done: only {1, 3, 4} may
        // execute, with byte-identical per-range boundaries.
        let completed = [0usize, 2, 5];
        let plan = RangePlan::all(6).without_completed(&completed, frontier_len);
        assert_eq!(plan.run, vec![1, 3, 4]);
        let mut warm: Vec<(usize, u64, u64, u64)> = Vec::new();
        let (out, stats) = engine.sweep(6, &plan, &Tagged, |seg| {
            assert_eq!(seg.ranges, 6);
            warm.push((seg.index, seg.parent_lo, seg.parent_hi, seg.emitted));
        });
        warm.sort_unstable();
        let expected: Vec<_> = cold
            .iter()
            .filter(|s| !completed.contains(&s.0))
            .copied()
            .collect();
        assert_eq!(warm, expected, "resumed ranges must tile identically");
        assert_eq!(stats.ranges, 6);
        assert_eq!(
            stats.emitted(),
            expected.iter().map(|s| s.3).sum::<u64>(),
            "resumed stats cover executed ranges only"
        );
        assert_eq!(out.len() as u64, stats.emitted());

        // An all-complete plan executes nothing at all.
        let all: Vec<usize> = (0..6).collect();
        let full = RangePlan::all(6).without_completed(&all, frontier_len);
        let (out, stats) = engine.sweep(6, &full, &Tagged, |seg| {
            panic!("range {} re-executed despite full coverage", seg.index)
        });
        assert!(out.is_empty());
        assert_eq!(stats.emitted(), 0);
    }

    #[test]
    fn resume_plan_from_wrong_frontier_is_refused() {
        // The level-5 frontier has 21 parents, not 999.
        let plan = RangePlan::all(4).without_completed(&[1], 999);
        let caught =
            std::panic::catch_unwind(|| AnalysisEngine::new(1).sweep(6, &plan, &Tagged, |_| {}));
        assert!(caught.is_err(), "mismatched frontier_len must refuse");
    }

    #[test]
    fn trivial_orders_run_on_the_one_path() {
        // Orders 0 and 1 need no fallback: their one graph lives in the
        // last range of any partition (the frontier has one entry).
        for n in [0usize, 1] {
            for ranges in [1usize, 32] {
                let mut segments = 0;
                let (out, stats) =
                    AnalysisEngine::new(2)
                        .sweep(n, &RangePlan::all(ranges), &Tagged, |_| segments += 1);
                assert_eq!(out, oracle(n), "n={n} ranges={ranges}");
                assert_eq!(segments, ranges, "n={n}");
                assert_eq!(stats.stats.level_sizes, vec![1], "n={n}");
                assert_eq!(stats.frontier_len, 1, "n={n}");
            }
        }
    }

    #[test]
    fn shard_plan_owns_exactly_the_shard_spec_range() {
        // Shard i/m as K sub-ranges of a K·m partition owns exactly the
        // parents ShardSpec(i, m).range(L) — for every frontier length,
        // not just the ones a real order produces.
        for m in [1usize, 2, 3, 4, 7, 16] {
            for len in [0usize, 1, 5, 21, 112, 853, 11117] {
                for i in 0..m {
                    let shard = ShardSpec::new(i, m);
                    let plan = RangePlan::shard(shard);
                    assert_eq!(plan.ranges, m * DEFAULT_OVERSPLIT);
                    assert_eq!(plan.run.len(), DEFAULT_OVERSPLIT);
                    let lo = ShardSpec::new(plan.run[0], plan.ranges).range(len).0;
                    let hi = ShardSpec::new(*plan.run.last().unwrap(), plan.ranges)
                        .range(len)
                        .1;
                    assert_eq!((lo, hi), shard.range(len), "len={len} shard {i}/{m}");
                }
            }
        }
        // And through the engine: the shard's segments cover its range.
        let engine = AnalysisEngine::new(2);
        for i in 0..3 {
            let shard = ShardSpec::new(i, 3);
            let (mut lo, mut hi, mut len) = (u64::MAX, 0u64, 0u64);
            engine.sweep(7, &RangePlan::shard(shard), &Tagged, |seg| {
                lo = lo.min(seg.parent_lo);
                hi = hi.max(seg.parent_hi);
                len = seg.frontier_len;
            });
            let (want_lo, want_hi) = shard.range(len as usize);
            assert_eq!((lo, hi), (want_lo as u64, want_hi as u64), "shard {i}/3");
        }
    }
}
