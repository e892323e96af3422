//! Empirical harness reproducing the evaluation of Corbo & Parkes
//! (PODC 2005).
//!
//! Each figure of the paper has a module and a binary:
//!
//! | Paper item | Module | Binary |
//! |---|---|---|
//! | Figure 1 (stable-graph gallery) | [`gallery`] | `fig1_gallery` |
//! | Figure 2 (average PoA vs link cost) | [`sweep`] | `fig2_avg_poa` |
//! | Figure 3 (average #links vs link cost) | [`sweep`] | `fig3_avg_links` |
//! | Propositions 3–4 (PoA bounds) | [`bounds`] | `poa_bounds` |
//! | Lemma 6 (cycle windows) | [`cycles`] | `lemma6_cycles` |
//! | Lemmas 4–5 (efficiency) | [`efficiency`] | `efficiency_scan` |
//!
//! Run any of them with `cargo run --release -p bnf-empirics --bin <name>`.
//!
//! Every module is a thin job definition over `bnf-engine`'s
//! [`AnalysisEngine`](bnf_engine::AnalysisEngine): the engine owns
//! enumeration, work-stealing execution and per-worker scratch reuse;
//! the modules own only what to compute per item and how to aggregate.
//!
//! Every sweep — the figure binaries, `poa_bounds`, `efficiency_scan`
//! and the library entry points alike — runs one path, the
//! **in-process orchestrator** ([`sweep::WindowSweep::run_plan`]): the
//! parent frontier is built once, split into ≈ 16× threads
//! work-stolen ranges (`--shards auto|R`), and completed ranges stream
//! straight into the `--atlas` store with coverage declared when the
//! partition closes — one command, one process, one VmHWM. A store that
//! already covers the order is replayed instead. All exhaustive scans
//! honour the `BNF_MAX_N` environment variable ([`max_sweep_n`]) so
//! `n = 9/10` opt-ins need no recompile.
//!
//! Classification is **windows-first** ([`sweep::WindowSweep`]): each
//! topology yields one α-independent window record, any α grid is a
//! post-pass ([`grid`], `--grid paper|linear:..|log2:..`), and
//! `--atlas <path>` persists the records in an append-only store
//! ([`bnf_atlas::ClassificationAtlas`]) so re-runs — finer grids,
//! follow-up workloads — skip classification for keys already seen.
//!
//! Multi-host sweeps run `--shard i/m` (with `--atlas` naming the
//! per-host segment file) on each host: the same orchestrator over that
//! host's ranges of a fixed partition. The `shard_merge` binary in
//! `bnf-atlas` folds segments into one coverage-complete store that
//! every binary replays warm. See `crates/atlas/README.md`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod cycles;
pub mod efficiency;
pub mod gallery;
pub mod grid;
pub mod sweep;
pub mod tables;

use bnf_engine::{RangePlan, DEFAULT_OVERSPLIT};
use bnf_games::Ratio;
use bnf_stream::ShardSpec;

pub use bounds::{prop3_series, prop4_rows, window_top_poa, LowerBoundRow, UpperBoundRow};
// Re-exported so the executor keeps its pre-engine `empirics` path; the
// implementation lives in `bnf-engine` now.
pub use bnf_engine::{default_threads, parallel_map};
pub use cycles::{lemma6_rows, CycleRow};
pub use efficiency::{
    efficiency_rows, efficiency_scan_windows, EfficiencyRow, EfficiencyScan, MinimizerShape,
};
pub use gallery::{extended_gallery, figure1_gallery, GalleryEntry};
pub use grid::GridSpec;
pub use sweep::{
    stable_catalog, EquilibriumStats, GraphRecord, SweepConfig, SweepJob, SweepResult, WindowJob,
    WindowSweep,
};
pub use tables::{fmt_stat, render_csv, render_table};

/// Default ceiling on exhaustive sweep orders without an explicit
/// opt-in: the UCG orientation solve over all 261 080 9-vertex graphs
/// needs a deliberate decision (minutes of CPU), not a typo.
pub const DEFAULT_MAX_SWEEP_N: usize = 8;

/// The sweep-order ceiling, overridable at *runtime* via the
/// `BNF_MAX_N` environment variable (clamped to the enumeration bound
/// of 10) so CI smoke steps and `n = 9/10` runs need no recompile.
///
/// Unset or unparsable values fall back to [`DEFAULT_MAX_SWEEP_N`].
pub fn max_sweep_n() -> usize {
    max_sweep_n_from(std::env::var("BNF_MAX_N").ok())
}

/// Pure core of [`max_sweep_n`], split out for testing.
fn max_sweep_n_from(raw: Option<String>) -> usize {
    raw.and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_MAX_SWEEP_N)
        .min(10)
}

// Re-exported from bnf-core (where the shard-segment writers can reach
// it too): each process of a multi-process sweep stamps its own VmHWM.
pub use bnf_core::peak_rss_kb;

/// Shared front-end of the sweep-driven binaries: validates the sweep
/// flags up front ([`SweepArgs::parse_or_exit`]), runs the
/// windows-first classification ([`SweepArgs::run`]), evaluates the α
/// grid (`--grid <spec>`) as a post-pass ([`grid::evaluate`]), and
/// prints the shared diagnostics (path, topology count, classification
/// wall time, atlas hit counts, peak RSS) to stderr — so each binary
/// carries one call instead of a drifting copy of this block.
pub fn run_sweep_cli(config: &SweepConfig, args: &[String]) -> SweepResult {
    let sweep = SweepArgs::parse_or_exit(config.n, args);
    // Parse the grid *before* the sweep: a typo in --grid must fail in
    // milliseconds, not after minutes of classification.
    let alphas = grid_from_args(args, || config.alphas.clone()).unwrap_or_else(|e| e.exit());
    let windows = sweep.run(config.threads);
    grid::evaluate(&windows, &alphas)
}

/// The α grid selected by `--grid <spec>`, or `default()` when the flag
/// is absent — the one shared grid-flag front-end of every sweep
/// binary.
///
/// # Errors
///
/// A [`UsageError`] carrying the parse diagnostic on a malformed spec.
pub fn grid_from_args(
    args: &[String],
    default: impl FnOnce() -> Vec<Ratio>,
) -> Result<Vec<Ratio>, UsageError> {
    match arg_value(args, "--grid") {
        Some(spec) => GridSpec::parse(&spec)
            .map(|g| g.alphas())
            .map_err(|e| UsageError(format!("bad --grid: {e}"))),
        None => Ok(default()),
    }
}

/// The order a sweep binary runs (`--n`, default 7) and its `--threads`
/// override, if any.
///
/// # Errors
///
/// A [`UsageError`] when either value is not a non-negative integer.
pub fn order_and_threads(args: &[String]) -> Result<(usize, Option<usize>), UsageError> {
    let number = |name: &str| match arg_value(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| UsageError(format!("{name} wants a number, got {v:?}"))),
    };
    Ok((number("--n")?.unwrap_or(7), number("--threads")?))
}

/// The windows-first half of [`run_sweep_cli`], also used directly by
/// `efficiency_scan`: validates the sweep flags, then classifies all
/// connected topologies on `n` vertices into a [`WindowSweep`]
/// ([`SweepArgs::run`]).
pub fn run_window_sweep_cli(n: usize, threads: usize, args: &[String]) -> WindowSweep {
    SweepArgs::parse_or_exit(n, args).run(threads)
}

/// The most ranges a sweep may cut its frontier into (`--shards R`, or
/// `16·m` for `--shard i/m`). No order has more than 261 080 parents,
/// so a larger partition only adds empty ranges — each still committing
/// a provenance frame.
pub const MAX_RANGES: usize = 1 << 20;

/// The flag synopsis the sweep binaries share, quoted by every
/// [`UsageError`].
const SWEEP_USAGE: &str = "[--n N] [--threads T] [--shards auto|R | --shard i/m] \
                           [--atlas PATH [--resume]] [--grid SPEC] [--report-json PATH]";

/// A sweep command line that cannot run: reported as one usage line
/// with exit status 2 ([`UsageError::exit`]), never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

impl UsageError {
    /// Prints `<tool>: <error>; usage: <tool> <flags>` as one stderr
    /// line and exits with status 2.
    pub fn exit(&self) -> ! {
        let tool = tool_name();
        eprintln!("{tool}: {self}; usage: {tool} {SWEEP_USAGE}");
        std::process::exit(2)
    }
}

/// The sweep flags every sweep binary shares, validated before any work
/// runs (fields private: [`SweepArgs::parse`] is the only way to build
/// one, so every instance passed its checks).
///
/// Every sweep runs on the in-process orchestrator
/// ([`WindowSweep::run_plan`]): the parent frontier is built once and
/// cut into `--shards R` ranges (default `auto`, ≈ 16 × `--threads`),
/// which the worker threads steal. With `--atlas <path>` each completed
/// range is appended to the store with its [`bnf_atlas::ShardMeta`] as
/// it finishes, and coverage is declared when the partition closes; a
/// store that already declares coverage for `n` is replayed instead of
/// swept.
///
/// With `--resume` an interrupted run picks up where it was killed: the
/// store is opened through torn-tail recovery
/// ([`bnf_atlas::ClassificationAtlas::open_recovering`] — a frame cut
/// mid-write by the crash is truncated and reported, not refused as
/// corruption), the completed ranges are reconstructed from its
/// [`bnf_atlas::ShardMeta`] frames, and only the missing ranges
/// execute; the figure output then replays from the completed store —
/// byte-identical to an uninterrupted run. Resume provenance (ranges
/// recovered/redone, prior run count, dropped tail bytes) lands in the
/// stderr report and the `--report-json` manifest, whose only
/// gate-facing metric becomes `manifest/ranges_redone_on_resume/{n}`.
///
/// With `--shard i/m` (`--atlas` names this host's **segment** file)
/// the run executes ranges `i·K .. (i+1)·K` of a `K·m` partition
/// (`K = `[`bnf_engine::DEFAULT_OVERSPLIT`]) — exactly the parents
/// `ShardSpec(i, m)` owns — commits them like any other ranges, and
/// **exits the process**: a partial sweep has no meaningful figure
/// output. Fold the segments with `shard_merge` (bnf-atlas) and re-run
/// with `--atlas merged` to replay the complete catalogue.
///
/// Every stderr diagnostic line is rendered from a
/// [`bnf_obs::RunManifest`] ([`build_sweep_manifest`]); with
/// `--report-json <path>` the same manifest — plus the spans, counters
/// and histograms drained from [`bnf_obs::Recorder::global`] — is
/// written as a versioned JSON document. A rate-limited heartbeat
/// (`BNF_PROGRESS`, default every 10 s) reports emitted/expected with
/// an ETA while the enumeration runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepArgs {
    /// The order to sweep, checked against [`max_sweep_n`].
    n: usize,
    /// `--shards R`: ranges the frontier is cut into (`None`: auto).
    ranges: Option<usize>,
    /// `--shard i/m`: this host's share of an `m`-host partition.
    shard: Option<ShardSpec>,
    /// `--atlas <path>`: the persistent store (a segment with `--shard`).
    atlas: Option<String>,
    /// `--resume`: redo only the ranges the store lacks.
    resume: bool,
    /// `--report-json <path>`: where to write the run manifest.
    report_json: Option<String>,
}

impl SweepArgs {
    /// Parses and validates the sweep flags of an order-`n` sweep.
    ///
    /// # Errors
    ///
    /// A [`UsageError`] when `n` exceeds [`max_sweep_n`] (the
    /// `BNF_MAX_N` opt-in), when `--shard` is combined with `--shards`,
    /// when `--resume` or `--shard` lacks `--atlas`, or when a
    /// `--shards` / `--shard` value is malformed or would cut the
    /// frontier into more than [`MAX_RANGES`] ranges.
    pub fn parse(n: usize, args: &[String]) -> Result<SweepArgs, UsageError> {
        let usage = |msg: String| Err(UsageError(msg));
        let cap = max_sweep_n();
        if n > cap {
            return usage(format!(
                "--n {n}: sweeps beyond n={cap} need a deliberate opt-in (set BNF_MAX_N)"
            ));
        }
        let shards = arg_value(args, "--shards");
        let ranges = match shards.as_deref() {
            None | Some("auto") => None,
            Some(v) => match v.parse() {
                Ok(r) => Some(r),
                Err(_) => {
                    return usage(format!("--shards wants `auto` or a range count, got {v:?}"))
                }
            },
        };
        let shard = match arg_value(args, "--shard").map(|s| ShardSpec::parse(&s)) {
            None => None,
            Some(Ok(spec)) => Some(spec),
            Some(Err(e)) => return usage(format!("bad --shard: {e}")),
        };
        let partition = match shard {
            Some(s) => s.count.checked_mul(DEFAULT_OVERSPLIT),
            None => Some(ranges.unwrap_or(0)),
        };
        if partition.is_none_or(|r| r > MAX_RANGES) {
            return usage(format!(
                "a sweep cuts its frontier into at most {MAX_RANGES} ranges (--shards R, or \
                 {DEFAULT_OVERSPLIT} per --shard host)"
            ));
        }
        let atlas = arg_value(args, "--atlas");
        let resume = arg_flag(args, "--resume");
        if shard.is_some() && shards.is_some() {
            return usage(
                "--shard (one host's share of a multi-host partition) and --shards (the range \
                 count of a whole sweep) are mutually exclusive"
                    .into(),
            );
        }
        if resume && atlas.is_none() {
            return usage(
                "--resume reconstructs completed ranges from the interrupted run's store: pass \
                 --atlas <path>"
                    .into(),
            );
        }
        if shard.is_some() && atlas.is_none() {
            return usage("--shard writes a segment store: pass --atlas <segment path>".into());
        }
        Ok(SweepArgs {
            n,
            ranges,
            shard,
            atlas,
            resume,
            report_json: arg_value(args, "--report-json"),
        })
    }

    /// [`SweepArgs::parse`], exiting with status 2 and a one-line usage
    /// message on error.
    pub fn parse_or_exit(n: usize, args: &[String]) -> SweepArgs {
        Self::parse(n, args).unwrap_or_else(|e| e.exit())
    }

    /// Runs the sweep these flags describe on `threads` workers — a warm
    /// replay when the store already covers the order, the orchestrator
    /// otherwise — and reports it to stderr (and the `--report-json`
    /// manifest). A `--shard` run exits the process once its segment is
    /// written.
    ///
    /// When the atlas cannot be opened, recovered or appended to —
    /// including a read-only v3 store that does not already cover the
    /// order — the process exits with status 1 and one
    /// `<tool>: cannot <open|append to> atlas <path>: <reason>` line.
    pub fn run(self, threads: usize) -> WindowSweep {
        let n = self.n;
        let threads = threads.max(1);
        let mut dropped_tail = 0u64;
        let atlas = self.atlas.as_deref().map(|p| {
            if self.resume {
                // A store left behind by a killed run may end mid-frame:
                // recovery truncates the torn tail (reporting what it
                // dropped) instead of refusing the whole store as Corrupt.
                let recovered = bnf_atlas::ClassificationAtlas::open_recovering(p)
                    .unwrap_or_else(|e| atlas_failure("open", p.as_ref(), &e));
                if recovered.report.was_torn() {
                    eprintln!("atlas {p}: {}", recovered.report);
                }
                dropped_tail = recovered.report.dropped_bytes;
                recovered.atlas
            } else {
                bnf_atlas::ClassificationAtlas::open(p)
                    .unwrap_or_else(|e| atlas_failure("open", p.as_ref(), &e))
            }
        });
        // Scope the process-wide recorder to this run, then let the
        // enumeration layers heartbeat progress against the known
        // connected count for this order.
        bnf_obs::Recorder::global().take();
        bnf_obs::heartbeat::install(
            &format!("n={n} sweep"),
            bnf_obs::heartbeat::expected_connected(n),
        );
        if let Some(atlas) = &atlas {
            // A store that already covers the order replays it warm —
            // also on `--resume`, where nothing is left to redo. A shard
            // always runs: its segment is one host's share.
            let started = std::time::Instant::now();
            let replayed = (self.shard.is_none() && atlas.coverage(n).is_some())
                .then(|| atlas.complete_sweep(n))
                .flatten();
            let elapsed_ms = started.elapsed().as_millis() as u64;
            // Anything else appends: a read-only (v3) store refuses
            // before any work runs.
            if replayed.is_none() {
                if let Err(e) = atlas.check_writable() {
                    atlas_failure("append to", atlas.path(), &e);
                }
            }
            // Merged-store provenance: a store assembled by shard_merge
            // or the orchestrator carries per-range metadata; the RSS
            // summary counts each *process* once (in-process ranges share
            // one), so multi-process truth is neither understated nor
            // double-counted.
            if let Some((max, sum)) = bnf_atlas::ShardMeta::rss_summary(atlas.shard_metas()) {
                eprintln!(
                    "atlas provenance: {} shard segments merged across {} process(es); \
                     peak RSS: max {:.1} MiB, sum {:.1} MiB",
                    atlas.shard_metas().len(),
                    bnf_atlas::ShardMeta::process_count(atlas.shard_metas()),
                    max as f64 / 1024.0,
                    sum as f64 / 1024.0,
                );
            }
            if let Some(records) = replayed {
                let windows = WindowSweep { n, records };
                return report_replay(windows, elapsed_ms, atlas, self.report_json);
            }
        }
        run_orchestrated_cli(threads, self, atlas, dropped_tail)
    }
}

/// The warm-replay report: the catalogue came from a coverage-complete
/// store, so nothing was enumerated or appended.
fn report_replay(
    windows: WindowSweep,
    elapsed_ms: u64,
    atlas: &bnf_atlas::ClassificationAtlas,
    report_json: Option<String>,
) -> WindowSweep {
    let n = windows.n;
    bnf_obs::heartbeat::finish();
    let mut manifest = build_sweep_manifest(n, "replay", elapsed_ms, &windows, None);
    eprintln!("{}", bnf_obs::render_classified_line(&manifest));
    manifest.set_counter("atlas_hits", windows.records.len() as u64);
    manifest.set_counter("atlas_appended", 0);
    push_atlas_density_metric(&mut manifest, atlas, n);
    eprintln!(
        "atlas {}: {} hits, 0 new records appended ({} stored)",
        atlas.path().display(),
        windows.records.len(),
        atlas.len()
    );
    eprintln!(
        "{}",
        bnf_obs::format_peak_rss(manifest.peak_rss_kb, "replay")
    );
    finish_manifest(manifest, report_json);
    windows
}

/// Reports an atlas that cannot be opened or written as one
/// `<tool>: cannot <action> atlas <path>: <reason>` line and exits with
/// status 1 — a problem with the store, not with the command line, and
/// never a panic. A torn tail (seen only without `--resume`) names the
/// remedy.
fn atlas_failure(action: &str, path: &std::path::Path, error: &bnf_atlas::AtlasError) -> ! {
    let hint = match error {
        bnf_atlas::AtlasError::Torn { .. } => "; re-run with --resume",
        _ => "",
    };
    eprintln!(
        "{}: cannot {action} atlas {}: {error}{hint}",
        tool_name(),
        path.display()
    );
    std::process::exit(1)
}

/// The invoking binary's name (`fig2_avg_poa`, …), for manifests and
/// usage lines.
fn tool_name() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(|arg0| {
            std::path::Path::new(arg0)
                .file_stem()
                .map_or_else(|| arg0.to_owned(), |s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "sweep".to_owned())
}

/// The run-manifest skeleton every sweep CLI path shares: identity
/// (tool, order, path, exact argv), outcome (emitted, wall-clock) and —
/// when the run enumerated — the exact [`bnf_stream::StreamStats`]
/// level sizes and pruning counters, plus the gated
/// `manifest/candidates_per_survivor/{n}` metric.
///
/// Counters are seeded from `stats` (deterministic, exactly what the
/// run computed), never from the global recorder — recorder values are
/// [`bnf_obs::RunManifest::absorb`]ed separately at write time so
/// auxiliary telemetry cannot perturb the gated numbers.
pub fn build_sweep_manifest(
    n: usize,
    path: &str,
    elapsed_ms: u64,
    windows: &WindowSweep,
    stats: Option<&bnf_stream::StreamStats>,
) -> bnf_obs::RunManifest {
    let mut manifest = bnf_obs::RunManifest::new(&tool_name(), n as u32, path);
    manifest.emitted = windows.records.len() as u64;
    manifest.elapsed_ms = elapsed_ms;
    manifest.peak_rss_kb = peak_rss_kb();
    if let Some(stats) = stats {
        manifest.level_sizes = stats.level_sizes.clone();
        for (name, value) in stats.prune.named() {
            manifest.set_counter(name, value);
        }
        manifest.push_metric(
            &format!("manifest/candidates_per_survivor/{n}"),
            stats.prune.candidates_per_survivor(),
        );
    }
    manifest
}

/// Pushes `manifest/atlas_bytes_per_record/{n}` — the gated on-disk
/// density of the store the sweep wrote — skipped for an empty atlas
/// (no records to divide by). The v4 columnar format exists to push
/// this number down; the gate keeps it from regressing.
fn push_atlas_density_metric(
    manifest: &mut bnf_obs::RunManifest,
    atlas: &bnf_atlas::ClassificationAtlas,
    n: usize,
) {
    let Ok(meta) = std::fs::metadata(atlas.path()) else {
        return;
    };
    if atlas.is_empty() {
        return;
    }
    manifest.push_metric(
        &format!("manifest/atlas_bytes_per_record/{n}"),
        meta.len() as f64 / atlas.len() as f64,
    );
}

/// Folds the global recorder's spans / counters / histograms into the
/// manifest and writes it to `report_json` when given. Draining the
/// recorder even when no report was requested keeps consecutive runs in
/// one process (tests, warm replays after a cold run) from leaking
/// telemetry into each other.
fn finish_manifest(mut manifest: bnf_obs::RunManifest, report_json: Option<String>) {
    manifest.absorb(bnf_obs::Recorder::global().take());
    if let Some(path) = report_json {
        std::fs::write(&path, manifest.to_json())
            .unwrap_or_else(|e| panic!("cannot write run manifest to {path}: {e}"));
        eprintln!("run manifest written to {path}");
    }
}

/// The orchestrated body of [`SweepArgs::run`]: picks the
/// [`RangePlan`] (every range, the shard's own ranges, minus whatever a
/// resumed store already completed), runs it with each completed range
/// streamed into the `--atlas` store together with its
/// [`bnf_atlas::ShardMeta`] provenance, and declares coverage when the
/// partition closes. A resumed run replays its figure output from the
/// completed store, never from the partial merge; a `--shard` run exits
/// once its segment is written.
fn run_orchestrated_cli(
    threads: usize,
    args: SweepArgs,
    mut atlas: Option<bnf_atlas::ClassificationAtlas>,
    dropped_tail: u64,
) -> WindowSweep {
    let n = args.n;
    // Two handles on the same store: the orchestrator's workers read
    // classifications through a second read-only handle while the
    // writer callback appends through the original — `open` reads the
    // file fully up front, so the snapshot is stable.
    let lookup = match &atlas {
        Some(a) if !a.is_empty() => Some(
            bnf_atlas::ClassificationAtlas::open(a.path())
                .unwrap_or_else(|e| atlas_failure("open", a.path(), &e)),
        ),
        _ => None,
    };
    let shard_plan = args.shard.map(RangePlan::shard);
    let prior = match (args.resume, &atlas) {
        (true, Some(a)) => prior_run(n, a.shard_metas(), shard_plan.as_ref().map(|p| p.ranges)),
        _ => None,
    };
    let base = match (shard_plan, &prior) {
        (Some(plan), _) => plan,
        (None, Some(prior)) => RangePlan::all(prior.ranges),
        (None, None) => RangePlan::all(
            args.ranges
                .unwrap_or_else(|| bnf_engine::auto_range_count(threads)),
        ),
    };
    let plan = match &prior {
        Some(prior) => base
            .clone()
            .without_completed(&prior.completed, prior.frontier_len),
        None => base.clone(),
    };
    let recovered = base.run.len() - plan.run.len();
    match (&args.shard, &prior) {
        (Some(shard), _) => eprintln!(
            "classifying shard {}/{} of the n={n} sweep (ranges {}..{} of {}) into segment {} \
             on {threads} worker thread(s)...",
            shard.index,
            shard.count,
            base.run[0],
            base.run[base.run.len() - 1] + 1,
            base.ranges,
            args.atlas.as_deref().unwrap_or_default(),
        ),
        (None, Some(prior)) => eprintln!(
            "resuming the n={n} sweep: {recovered}/{} range(s) durably complete from {} \
             prior run(s); {threads} worker thread(s) redoing the remaining {}...",
            base.ranges,
            prior.runs,
            plan.run.len(),
        ),
        (None, None) => eprintln!(
            "orchestrating the n={n} sweep in-process: {threads} worker thread(s) stealing \
             {} frontier ranges{}...",
            plan.ranges,
            match &lookup {
                Some(a) => format!(", atlas-backed: {} stored records", a.len()),
                None => String::new(),
            }
        ),
    }
    let run_id = orchestrator_run_id();
    let started = std::time::Instant::now();
    let mut appended_total = 0usize;
    let mut hits_total = 0usize;
    let mut provenance: Vec<bnf_obs::ShardProvenance> = Vec::new();
    let on_segment = |seg: bnf_engine::RangeSegment<'_, bnf_core::WindowRecord>| {
        provenance.push(bnf_obs::ShardProvenance {
            order: n as u32,
            index: seg.index as u32,
            count: seg.ranges as u32,
            parent_lo: seg.parent_lo,
            parent_hi: seg.parent_hi,
            emitted: seg.emitted,
            elapsed_ms: seg.elapsed_ms,
            peak_rss_kb: peak_rss_kb(),
            orchestrator_run: Some(run_id),
        });
        if let Some(atlas) = atlas.as_mut() {
            let appended = atlas
                .append_records(seg.records)
                .unwrap_or_else(|e| atlas_failure("append to", atlas.path(), &e));
            appended_total += appended;
            hits_total += seg.records.len() - appended;
            let meta = bnf_atlas::ShardMeta {
                order: n as u16,
                shard_index: seg.index as u32,
                shard_count: seg.ranges as u32,
                frontier_len: seg.frontier_len,
                parent_lo: seg.parent_lo,
                parent_hi: seg.parent_hi,
                emitted: seg.emitted,
                elapsed_ms: seg.elapsed_ms,
                peak_rss_kb: peak_rss_kb(),
                orchestrator_run: Some(run_id),
                frontier_prune: seg.frontier_prune,
                final_prune: seg.final_prune,
            };
            atlas
                .append_shard_meta(&meta)
                .unwrap_or_else(|e| atlas_failure("append to", atlas.path(), &e));
            // The crash-safety kill point of the whole sweep stack:
            // this range is now durably committed (records + meta
            // fsynced), so a fault armed here (BNF_FAULT, see
            // bnf-faults) crashes with exactly N ranges recoverable.
            bnf_faults::trip_with_file("range_commit", atlas.path());
        }
    };
    let (mut windows, stats) =
        WindowSweep::run_plan(n, threads, &plan, lookup.as_ref(), on_segment);
    let elapsed_ms = started.elapsed().as_millis() as u64;
    bnf_obs::heartbeat::finish();
    let mut manifest =
        build_sweep_manifest(n, "orchestrated", elapsed_ms, &windows, Some(&stats.stats));
    manifest.set_counter("ranges", stats.ranges as u64);
    manifest.set_counter("threads", stats.threads as u64);
    manifest.set_counter("frontier_len", stats.frontier_len);
    // Steal-balance quality: the heaviest range's share of the emitted
    // total. 1/ranges is perfect balance; near 1.0 means one range
    // dominated the run and the oversplit is too coarse.
    if manifest.emitted > 0 {
        let heaviest = provenance.iter().map(|s| s.emitted).max().unwrap_or(0);
        manifest.push_metric(
            &format!("manifest/heaviest_range_share/{n}"),
            heaviest as f64 / manifest.emitted as f64,
        );
    }
    if args.resume {
        let prior_runs = prior.as_ref().map_or(0, |p| p.runs);
        let redone = plan.run.len() as u64;
        manifest.set_counter("resume_recovered_ranges", recovered as u64);
        manifest.set_counter("resume_redone_ranges", redone);
        manifest.set_counter("resume_prior_runs", prior_runs);
        manifest.set_counter("resume_dropped_tail_bytes", dropped_tail);
        // A resumed manifest carries exactly one gate-facing metric:
        // the standard ones are computed from executed-ranges-only
        // stats (not comparable to a cold run), and bench_gate refuses
        // duplicate metric ids across the estimate files of one gate
        // invocation.
        manifest.metrics.clear();
        manifest.push_metric(
            &format!("manifest/ranges_redone_on_resume/{n}"),
            redone as f64,
        );
        eprintln!(
            "resumed sweep: recovered {recovered}/{} completed range(s) from {prior_runs} \
             prior run(s), redoing {redone}; torn tail: {dropped_tail} byte(s) dropped",
            base.run.len(),
        );
    }
    manifest.shards = provenance;
    eprintln!("{}", bnf_obs::render_classified_line(&manifest));
    if let Some(line) = bnf_obs::render_enumeration_line(&manifest) {
        eprintln!("{line}");
    }
    if let Some(atlas) = atlas.as_mut() {
        if args.shard.is_none() {
            let coverage = atlas
                .declare_sharded_coverage()
                .unwrap_or_else(|e| atlas_failure("append to", atlas.path(), &e));
            for (order, outcome) in coverage {
                if order != n {
                    continue;
                }
                match outcome {
                    bnf_atlas::ShardCoverage::Declared(count)
                    | bnf_atlas::ShardCoverage::AlreadyDeclared(count) => eprintln!(
                        "orchestrated sweep: coverage complete for order {order} \
                         ({count} topologies)"
                    ),
                    other => eprintln!(
                        "orchestrated sweep: coverage NOT declared for order {order} — {other:?}"
                    ),
                }
            }
        }
        if prior.is_some() && args.shard.is_none() {
            // The resumed run's merge holds only the redone ranges —
            // figure output always replays from the now-complete store,
            // byte-identical to what an uninterrupted run returns.
            windows.records = atlas.complete_sweep(n).unwrap_or_else(|| {
                panic!("resumed n={n} sweep did not close coverage — store still partial")
            });
        }
        manifest.set_counter("atlas_hits", hits_total as u64);
        manifest.set_counter("atlas_appended", appended_total as u64);
        if !args.resume {
            // A resumed manifest keeps exactly one gate-facing metric
            // (see above), so the density metric is cold-run only.
            push_atlas_density_metric(&mut manifest, atlas, n);
        }
        eprintln!(
            "atlas {}: {hits_total} hits, {appended_total} new records appended ({} stored)",
            atlas.path().display(),
            atlas.len()
        );
    }
    // One process, one VmHWM: the honest memory number, versus the
    // max + sum ambiguity of a multi-process shard fleet.
    manifest.peak_rss_kb = peak_rss_kb();
    eprintln!(
        "{}",
        bnf_obs::format_peak_rss(manifest.peak_rss_kb, "orchestrated")
    );
    finish_manifest(manifest, args.report_json);
    if args.shard.is_some() {
        // A shard is one host's share of the partition: it has no
        // figure output of its own.
        eprintln!(
            "segment written; fold segments with `shard_merge --out merged.bnfatlas <segments>` \
             and re-run with --atlas merged.bnfatlas"
        );
        std::process::exit(0);
    }
    windows
}

/// A per-invocation tag linking the `ShardMeta` frames of one
/// orchestrated run, so provenance readers can tell in-process ranges
/// (one process, one RSS peak) from a fleet of shard processes. Unique
/// per run on one machine; collisions across machines merge two runs'
/// RSS groups, which only ever *under*-reports the process count.
fn orchestrator_run_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()) ^ d.as_secs())
        .unwrap_or(0);
    (u64::from(std::process::id()) << 32) ^ nanos
}

/// The partition an interrupted run left in its store.
struct PriorRun {
    /// Ranges in the stored partition (the metas' `shard_count`).
    ranges: usize,
    /// Indices of the ranges the store holds committed.
    completed: Vec<usize>,
    /// Parent-frontier length the stored partition was cut from.
    frontier_len: u64,
    /// Distinct prior runs that committed those ranges.
    runs: u64,
}

/// Reconstructs an interrupted run's partition from the
/// [`bnf_atlas::ShardMeta`] frames its store already holds: metadata for
/// order `n` is grouped by `(shard_count, frontier_len)` — the pair that
/// fully determines the range boundaries — and the group with the most
/// completed ranges wins (a store holds one live partition per order in
/// practice; a stray experiment's stale metas must not hijack the
/// resume). `ranges` restricts the choice to one partition size (a
/// resumed `--shard` resumes its own `K·m` partition). `None` when the
/// store has no usable metadata (cold start: resume degenerates to a
/// full run).
///
/// The `frontier_len` is re-asserted against the rebuilt frontier inside
/// the engine before any range executes, so metadata from an
/// incompatible build fails loudly rather than skipping the wrong
/// parents.
fn prior_run(n: usize, metas: &[bnf_atlas::ShardMeta], ranges: Option<usize>) -> Option<PriorRun> {
    use std::collections::{BTreeMap, BTreeSet};
    type Group = (BTreeSet<usize>, BTreeSet<Option<u64>>);
    let mut groups: BTreeMap<(u32, u64), Group> = BTreeMap::new();
    for meta in metas {
        if usize::from(meta.order) != n
            || meta.shard_index >= meta.shard_count
            || ranges.is_some_and(|r| r != meta.shard_count as usize)
        {
            continue;
        }
        let (completed, runs) = groups
            .entry((meta.shard_count, meta.frontier_len))
            .or_default();
        completed.insert(meta.shard_index as usize);
        runs.insert(meta.orchestrator_run);
    }
    let ((shard_count, frontier_len), (completed, runs)) = groups
        .into_iter()
        .max_by_key(|(key, (completed, _))| (completed.len(), key.0))?;
    Some(PriorRun {
        ranges: shard_count as usize,
        completed: completed.into_iter().collect(),
        frontier_len,
        runs: runs.len() as u64,
    })
}

/// Parses `--name value` from a raw argument list (first occurrence).
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare `--flag` is present.
pub fn arg_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_sweep_n_parsing() {
        assert_eq!(max_sweep_n_from(None), DEFAULT_MAX_SWEEP_N);
        assert_eq!(max_sweep_n_from(Some("9".into())), 9);
        assert_eq!(max_sweep_n_from(Some(" 10 ".into())), 10);
        // Clamped to the enumeration bound.
        assert_eq!(max_sweep_n_from(Some("12".into())), 10);
        // Garbage falls back to the default.
        assert_eq!(max_sweep_n_from(Some("many".into())), DEFAULT_MAX_SWEEP_N);
        assert_eq!(max_sweep_n_from(Some(String::new())), DEFAULT_MAX_SWEEP_N);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--n", "7", "--csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--n"), Some("7".into()));
        assert_eq!(arg_value(&args, "--threads"), None);
        assert!(arg_flag(&args, "--csv"));
        assert!(!arg_flag(&args, "--json"));
    }
}
