//! The [`Analysis`] job trait and the [`AnalysisEngine`] runner.

use bnf_graph::Graph;

use crate::executor::{default_threads, parallel_map_with};
use crate::orchestrator::{OrchestratorStats, RangePlan, RangeSegment};
use crate::scratch::WorkerScratch;

/// One independent per-graph classification — the unit of work every
/// empirical module defines.
///
/// Implementations must be pure per item (no cross-item state): the
/// engine classifies items in an unspecified interleaving across
/// workers, only the *output* order is guaranteed to match the input.
pub trait Analysis: Sync {
    /// The per-graph classification record.
    type Output: Send;

    /// Classifies one graph, using `scratch` for all reusable buffers.
    fn classify(&self, graph: &Graph, scratch: &mut WorkerScratch) -> Self::Output;

    /// The record-emitting path: classifies one graph given its
    /// canonical graph6 key. [`AnalysisEngine::sweep`] calls this with
    /// `graph.to_graph6()` of the enumerated graph (enumeration emits
    /// canonical forms, so that string *is* the canonical key).
    ///
    /// The default ignores the key and delegates to
    /// [`Analysis::classify`]; jobs backed by a persistent store (the
    /// classification atlas) override it to consult the store before
    /// computing, and to stamp the key into the emitted record.
    fn classify_keyed(
        &self,
        key: &str,
        graph: &Graph,
        scratch: &mut WorkerScratch,
    ) -> Self::Output {
        let _ = key;
        self.classify(graph, scratch)
    }
}

/// Executes [`Analysis`] jobs over graph families with work-stealing
/// workers and per-worker scratch.
///
/// This is the architecture seam for scaling work: sharding an
/// enumeration across processes, batching α grids, or caching canonical
/// classifications all belong here, behind the same job interface.
#[derive(Debug, Clone)]
pub struct AnalysisEngine {
    threads: usize,
}

impl Default for AnalysisEngine {
    fn default() -> Self {
        Self::with_default_threads()
    }
}

impl AnalysisEngine {
    /// An engine with an explicit worker count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        AnalysisEngine {
            threads: threads.max(1),
        }
    }

    /// An engine sized to this machine's available parallelism.
    pub fn with_default_threads() -> Self {
        Self::new(default_threads())
    }

    /// The worker count this engine schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The one sweep entry point: classifies the connected topologies
    /// on `n` vertices owned by the ranges `plan` lists, through
    /// [`Analysis::classify_keyed`] with each graph's canonical graph6.
    ///
    /// Builds the level-`n − 1` parent frontier once, cuts it into
    /// `plan.ranges` contiguous ranges, and has this engine's workers
    /// steal the listed ranges — each fusing the pruned range producer
    /// with the classifier on its own [`WorkerScratch`] — while the
    /// calling thread hands every completed [`RangeSegment`] to
    /// `on_segment` in completion order. A normal sweep lists every
    /// range ([`RangePlan::all`]), a resumed one the missing ranges
    /// ([`RangePlan::without_completed`]), and shard `i/m` of a
    /// multi-host run its own ranges ([`RangePlan::shard`]).
    ///
    /// Returns the executed ranges' outputs re-sorted into the
    /// deterministic `(edge count, canonical key)` order — for a full
    /// plan, exactly the order of the materialized catalogue — plus
    /// [`OrchestratorStats`], whose totals equal the unsharded
    /// `bnf_stream::StreamStats` exactly when every range runs.
    ///
    /// # Panics
    ///
    /// Panics if `n > 10` (enumeration bound) or `plan` does not fit the
    /// rebuilt frontier (unsorted or out-of-partition ranges, a pinned
    /// `frontier_len` that differs); propagates panics from the job and
    /// from `on_segment`.
    pub fn sweep<A, W>(
        &self,
        n: usize,
        plan: &RangePlan,
        job: &A,
        on_segment: W,
    ) -> (Vec<A::Output>, OrchestratorStats)
    where
        A: Analysis,
        W: FnMut(RangeSegment<'_, A::Output>),
    {
        crate::orchestrator::run(self.threads, n, plan, job, on_segment)
    }

    /// Classifies an explicit graph list (gallery exhibits, counter-
    /// example families, …), preserving its order.
    pub fn run_on<A: Analysis>(&self, graphs: &[Graph], job: &A) -> Vec<A::Output> {
        parallel_map_with(graphs, self.threads, WorkerScratch::new, |g, s| {
            job.classify(g, s)
        })
    }

    /// Runs an arbitrary per-item function with per-worker scratch —
    /// for jobs whose items are not graphs (cycle lengths, α grids).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &mut WorkerScratch) -> R + Sync,
    {
        parallel_map_with(items, self.threads, WorkerScratch::new, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auto_range_count;
    use crate::orchestrator::assert_sort_tag_exact;
    use bnf_enumerate::connected_graphs_unpruned;

    struct EdgeCount;
    impl Analysis for EdgeCount {
        type Output = usize;
        fn classify(&self, g: &Graph, _scratch: &mut WorkerScratch) -> usize {
            g.edge_count()
        }
    }

    /// A full sweep of order `n` on `engine`, outputs only.
    fn sweep<A: Analysis>(engine: &AnalysisEngine, n: usize, job: &A) -> Vec<A::Output> {
        let plan = RangePlan::all(auto_range_count(engine.threads()));
        engine.sweep(n, &plan, job, |_| {}).0
    }

    #[test]
    fn run_connected_matches_enumeration() {
        let engine = AnalysisEngine::new(4);
        let counts = sweep(&engine, 6, &EdgeCount);
        assert_eq!(counts.len(), 112); // A001349(6)
                                       // Deterministic enumeration order: sorted by edge count first.
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.first().unwrap(), 5); // a tree
        assert_eq!(*counts.last().unwrap(), 15); // K6
    }

    #[test]
    fn streaming_matches_materializing_exactly() {
        // The oracle test of the one path: the streamed sweep returns
        // the same outputs in the same order as the independent
        // dedup-based materialized catalogue — the property the
        // empirics byte-match guarantee rests on — and the catalogue
        // sizes are OEIS A001349.
        const A001349: [usize; 9] = [1, 1, 1, 2, 6, 21, 112, 853, 11117];
        struct Census;
        impl Analysis for Census {
            type Output = (usize, Option<u64>);
            fn classify(&self, g: &Graph, s: &mut WorkerScratch) -> Self::Output {
                (g.edge_count(), g.total_distance_with(&mut s.bfs))
            }
        }
        let engine = AnalysisEngine::new(3);
        for (n, &count) in A001349.iter().enumerate() {
            let oracle = engine.run_on(&connected_graphs_unpruned(n), &Census);
            assert_eq!(oracle.len(), count, "n={n}");
            assert_eq!(sweep(&engine, n, &Census), oracle, "n={n}");
        }
    }

    #[test]
    fn keyed_paths_pass_canonical_graph6_keys() {
        // The sweep must (a) default to `classify` output and (b) hand
        // every job the graph's own graph6 — which for enumeration
        // output is the canonical key.
        struct KeyCheck;
        impl Analysis for KeyCheck {
            type Output = (String, usize);
            fn classify(&self, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
                ("unkeyed".into(), g.edge_count())
            }
            fn classify_keyed(&self, key: &str, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
                let decoded = Graph::from_graph6(key).expect("key must be valid graph6");
                assert_eq!(&decoded, g, "the sweep passes the graph's own encoding");
                assert_eq!(
                    decoded.canonical_key(),
                    g.canonical_key(),
                    "enumerated graphs are canonical, so the key is canonical"
                );
                (key.to_string(), g.edge_count())
            }
        }
        let engine = AnalysisEngine::new(3);
        let keyed = sweep(&engine, 6, &KeyCheck);
        assert_eq!(keyed.len(), 112);
        assert!(keyed.iter().all(|(k, _)| k != "unkeyed"));
        // The oracle's canonical forms carry the same keys, in order.
        let oracle: Vec<String> = connected_graphs_unpruned(6)
            .iter()
            .map(Graph::to_graph6)
            .collect();
        let keys: Vec<String> = keyed.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, oracle);
        // Keys are unique — one per isomorphism class.
        let mut sorted = keys;
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 112);
    }

    #[test]
    fn keyed_default_falls_back_to_classify() {
        // A job that does not override classify_keyed behaves exactly
        // like the unkeyed oracle run.
        let engine = AnalysisEngine::new(2);
        assert_eq!(
            sweep(&engine, 5, &EdgeCount),
            engine.run_on(&connected_graphs_unpruned(5), &EdgeCount)
        );
    }

    #[test]
    fn streaming_stats_surface_pruning_counters() {
        let engine = AnalysisEngine::new(2);
        let (counts, orch) = engine.sweep(6, &RangePlan::all(8), &EdgeCount, |_| {});
        let stats = orch.stats;
        assert_eq!(counts.len(), 112);
        assert_eq!(stats.emitted(), 112);
        assert_eq!(stats.prune.duplicates, 0);
        assert!(stats.prune.accepted() >= 112);
        assert!(stats.prune.candidates > 0);
    }

    #[test]
    fn sharded_outputs_merge_into_unsharded_keyed_run() {
        // A full partition of shard plans, concatenated and re-sorted,
        // must equal the unsharded sweep exactly — and each shard must
        // already be tag-sorted internally.
        struct Tagged;
        impl Analysis for Tagged {
            type Output = (usize, String);
            fn classify_keyed(&self, key: &str, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
                (g.edge_count(), key.to_string())
            }
            fn classify(&self, g: &Graph, _s: &mut WorkerScratch) -> Self::Output {
                (g.edge_count(), "unkeyed".into())
            }
        }
        let engine = AnalysisEngine::new(3);
        let whole = sweep(&engine, 7, &Tagged);
        for count in [1usize, 4] {
            let mut merged = Vec::new();
            let mut emitted = 0u64;
            for index in 0..count {
                let plan = RangePlan::shard(bnf_stream::ShardSpec::new(index, count));
                let (out, run) = engine.sweep(7, &plan, &Tagged, |_| {});
                // Engine tag order within the shard: edge counts are
                // non-decreasing (the word tiebreak is not the graph6
                // string's lexicographic order, so only the leading
                // component is checkable here).
                assert!(out.windows(2).all(|w| w[0].0 <= w[1].0), "shard not sorted");
                emitted += run.emitted();
                merged.extend(out);
            }
            merged.sort();
            let mut expect = whole.clone();
            expect.sort();
            assert_eq!(merged, expect, "count={count}");
            assert_eq!(emitted, 853, "count={count}");
        }
    }

    #[test]
    fn sort_tag_exactness_is_asserted_not_assumed() {
        // Every enumerable order passes (45 bits at n = 10), n = 11
        // still fits the word (55 bits), and the first order whose
        // packed triangle overflows the leading word must panic at the
        // sort site — before any mis-ordered merge can happen.
        for n in 0..=11 {
            assert_sort_tag_exact(n);
        }
        let caught = std::panic::catch_unwind(|| assert_sort_tag_exact(12));
        assert!(caught.is_err(), "n=12 (66 bits) must trip the sort bound");
    }

    #[test]
    fn streaming_single_thread() {
        let engine = AnalysisEngine::new(1);
        let counts = sweep(&engine, 6, &EdgeCount);
        assert_eq!(counts.len(), 112);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn streaming_job_panic_propagates_without_deadlock() {
        struct Boom;
        impl Analysis for Boom {
            type Output = ();
            fn classify(&self, g: &Graph, _s: &mut WorkerScratch) {
                assert!(g.edge_count() < 9, "boom"); // K5 trips this
            }
        }
        let caught = std::panic::catch_unwind(|| {
            sweep(&AnalysisEngine::new(1), 5, &Boom);
        });
        assert!(caught.is_err(), "classifier panic must reach the caller");
    }

    #[test]
    fn run_on_preserves_order_and_uses_scratch() {
        struct TotalDistance;
        impl Analysis for TotalDistance {
            type Output = Option<u64>;
            fn classify(&self, g: &Graph, scratch: &mut WorkerScratch) -> Option<u64> {
                g.total_distance_with(&mut scratch.bfs)
            }
        }
        let graphs = vec![
            Graph::complete(4),
            Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap(),
            Graph::empty(3),
        ];
        let engine = AnalysisEngine::new(2);
        let totals = engine.run_on(&graphs, &TotalDistance);
        assert_eq!(totals, vec![Some(12), Some(20), None]);
    }

    #[test]
    fn map_over_non_graph_items() {
        let engine = AnalysisEngine::new(3);
        let items: Vec<usize> = (3..10).collect();
        let orders = engine.map(&items, |&n, s| {
            let g = Graph::complete(n);
            g.total_distance_with(&mut s.bfs).unwrap()
        });
        let expected: Vec<u64> = (3..10).map(|n| (n * (n - 1)) as u64).collect();
        assert_eq!(orders, expected);
    }

    #[test]
    fn engine_thread_floor() {
        assert_eq!(AnalysisEngine::new(0).threads(), 1);
        assert!(AnalysisEngine::with_default_threads().threads() >= 1);
    }
}
