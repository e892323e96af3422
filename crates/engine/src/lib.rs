//! The shared classify-every-graph analysis pipeline.
//!
//! Every empirical product of the paper — the Figure 2/3 sweeps, the
//! Proposition 4 bound scan, the Lemma 6 cycle table, the Figure 1
//! gallery — is an instance of the same loop: *enumerate a family of
//! inputs, classify each one independently with exact equilibrium
//! machinery, aggregate*. Before this crate each `bnf-empirics` module
//! re-implemented that loop with its own threading and allocation
//! pattern; now they are thin [`Analysis`] job definitions executed by
//! one [`AnalysisEngine`].
//!
//! The engine fuses three concerns the jobs would otherwise duplicate:
//!
//! * **Enumeration** — [`AnalysisEngine::sweep`], the one sweep entry
//!   point, classifies every connected topology on `n` vertices as it
//!   is generated: `bnf-stream` builds the level-`n − 1` parent
//!   frontier once and runs the canonical-construction pruned
//!   augmentation per parent range (each isomorphism class emitted
//!   exactly once, no dedup set at all) — this is what unlocks
//!   `n = 9/10` sweeps in CI-class memory and CPU. Explicit graph
//!   lists go through [`AnalysisEngine::run_on`], non-graph items
//!   through [`AnalysisEngine::map`].
//! * **Work-stealing execution** — a chunked atomic-counter scheduler
//!   over [`std::thread::scope`] workers (no external thread-pool
//!   dependency) for lists, and at sweep scale the in-process
//!   **orchestrator**: the frontier is cut into a [`RangePlan`]
//!   (≈ [`DEFAULT_OVERSPLIT`]× more ranges than threads), workers steal
//!   whole ranges, and a single writer streams completed
//!   [`RangeSegment`]s to the caller. The same plan type covers a
//!   normal sweep, a resumed one, and one host's `--shard i/m` share
//!   of a multi-host partition.
//! * **Per-worker scratch reuse** — each worker owns one
//!   [`WorkerScratch`] for its whole lifetime, so the BFS/distance hot
//!   path runs allocation-free instead of re-allocating frontier
//!   buffers per graph (see `bnf_graph::BfsScratch`).
//!
//! # Examples
//!
//! ```
//! use bnf_engine::{Analysis, AnalysisEngine, RangePlan, WorkerScratch};
//! use bnf_graph::Graph;
//!
//! /// Classify each connected topology by (edges, total distance).
//! struct Census;
//! impl Analysis for Census {
//!     type Output = (usize, u64);
//!     fn classify(&self, g: &Graph, scratch: &mut WorkerScratch) -> Self::Output {
//!         let d = g
//!             .total_distance_with(&mut scratch.bfs)
//!             .expect("connected enumeration");
//!         (g.edge_count(), d)
//!     }
//! }
//!
//! let engine = AnalysisEngine::new(2);
//! let (records, stats) = engine.sweep(5, &RangePlan::all(8), &Census, |_segment| {});
//! assert_eq!(records.len(), 21); // connected graphs on 5 vertices
//! assert_eq!(stats.emitted(), 21);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod executor;
mod orchestrator;
mod pipeline;
mod scratch;

pub use executor::{default_threads, parallel_map, parallel_map_with};
pub use orchestrator::{
    auto_range_count, OrchestratorStats, RangePlan, RangeSegment, DEFAULT_OVERSPLIT,
};
pub use pipeline::{Analysis, AnalysisEngine};
pub use scratch::WorkerScratch;
