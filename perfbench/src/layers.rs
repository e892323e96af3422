//! The traced run: repeats the benchmark's work by calling each crate's
//! public functions directly, with a span around every layer call, and
//! turns the spans into the per-layer metrics named in
//! `BENCHMARK.json`.
//!
//! Sections, in order: enumeration (`bnf-stream`), the orchestrated
//! n = 9 sweep with its store appends (`bnf-engine`, `bnf-atlas` write
//! path), the block codec, the bulk read of that store (in a child
//! process, so its resident-memory cost is measured alone), the grid
//! fold (`bnf-empirics`), the classifier stages on a seeded sample
//! (`bnf-core`, `bnf-graph`), point and scan reads on the n = 8 store in
//! both layouts, and the serve routes (`bnf-serve`).

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bnf_atlas::codec::{decode_block, encode_block};
use bnf_atlas::{
    build_index, compact_store, ClassificationAtlas, MappedAtlas, ShardMeta, ATLAS_VERSION,
    BLOCK_RECORDS,
};
use bnf_core::{
    stability_window_with, transfer_stability_window_with, ucg_necessary_window_with, UcgAnalyzer,
    WindowRecord,
};
use bnf_empirics::grid::{self, GridSpec};
use bnf_empirics::sweep::WindowSweep;
use bnf_games::GameKind;
use bnf_graph::{BfsScratch, Graph};
use bnf_serve::{AppState, MiniClient, Server, DEFAULT_LIVE_ORDER_CAP};
use bnf_stream::ParentFrontier;

use crate::check::fig2_csv;
use crate::loadgen::{self, Mix, Planned, Route};
use crate::trace::{SpanId, Tracer};
use crate::util::{
    connected_count, ms, proc_status_kb, quantile, records_digest, reference_digest, JsonObj, Rng,
};

/// Worker threads of every parallel section, as in every workload.
const THREADS: usize = 2;
/// One in this many n = 9 topologies goes through the staged
/// classifier (about 13 000 graphs).
const CORE_SAMPLE_STRIDE: u64 = 20;
/// Offered rate of the in-process open loop that measures generator lag.
const LAG_PROBE_RATE: f64 = 200.0;

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// Counts kept by the staged classifier.
#[derive(Debug, Default)]
struct UcgCounts {
    build_calls: u64,
    supported: u64,
}

/// `WindowRecord::classify_with_key`, one span per stage.
fn classify_staged(
    t: &mut Tracer,
    parent: SpanId,
    g: &Graph,
    scratch: &mut BfsScratch,
    counts: &mut UcgCounts,
) -> WindowRecord {
    let c = t.begin("core.classify", parent);
    let (key, _) = t.time("graph.to_graph6", c, || g.to_graph6());
    let (total_distance, _) = t.time("core.total_distance", c, || {
        g.total_distance_with(scratch)
            .expect("catalogue graphs are connected")
    });
    let (stability, _) = t.time("core.bcg_window", c, || stability_window_with(g, scratch));
    let (transfer, _) = t.time("core.transfer_window", c, || {
        transfer_stability_window_with(g, scratch)
    });
    let (necessary, _) = t.time("core.ucg_necessary", c, || {
        ucg_necessary_window_with(g, scratch)
    });
    let ucg_support = match necessary {
        None => Vec::new(),
        Some(nec) => {
            counts.build_calls += 1;
            let (analyzer, _) = t.time("core.ucg_build", c, || {
                UcgAnalyzer::new(g).expect("catalogue graphs are within the UCG order bound")
            });
            let (support, _) = t.time("core.ucg_solve", c, || {
                analyzer.support_intervals_within(nec)
            });
            if !support.is_empty() {
                counts.supported += 1;
            }
            support
        }
    };
    t.end(c);
    WindowRecord {
        key,
        order: g.order() as u32,
        edges: g.edge_count() as u64,
        total_distance,
        stability,
        transfer,
        ucg_support,
    }
}

/// The traced run's state: spans, metrics and correctness tallies.
struct Layers {
    t: Tracer,
    root: SpanId,
    metrics: Vec<(String, f64)>,
    attempted: u64,
    failures: Vec<String>,
    seed: u64,
    work: PathBuf,
}

impl Layers {
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn stream(&mut self, n: usize) {
        let (frontier, ns) = self.t.time("stream.frontier_build", self.root, || {
            ParentFrontier::build(n, THREADS)
        });
        self.metric("stream.frontier_build_ms", ns as f64 / 1e6);
        let (stats, ns) = self.t.time("stream.enumerate", self.root, || {
            frontier.stream_range(0, frontier.len(), |g, key| {
                black_box((g, key));
            })
        });
        let expected = connected_count(n).unwrap_or(0) as u64;
        self.check(stats.emitted == expected, || {
            format!(
                "stream_range emitted {} graphs at n={n}, want {expected}",
                stats.emitted
            )
        });
        self.metric(
            "stream.enumerate_ns_per_graph",
            ns as f64 / stats.emitted.max(1) as f64,
        );
        let mut prune = frontier.frontier_prune();
        prune.merge(&stats.prune);
        self.metric(
            "stream.candidates_per_survivor",
            prune.candidates_per_survivor(),
        );
    }

    /// The orchestrated sweep the `--shards auto --atlas` CLI runs,
    /// appending each range and its provenance frame as it completes.
    fn sweep_into_store(
        &mut self,
        n: usize,
        store: &Path,
        span: &'static str,
        record_engine: bool,
    ) -> Result<Vec<WindowRecord>, String> {
        let mut atlas = ClassificationAtlas::open(store)
            .map_err(|e| format!("open {}: {e}", store.display()))?;
        let t = &mut self.t;
        let sweep_span = t.begin(span, self.root);
        let started = Instant::now();
        let mut range_ms = 0u64;
        let mut emitted = Vec::new();
        let mut append_ns = 0u64;
        let mut callback_ns = 0u64;
        let mut error = None;
        let (sweep, stats) = WindowSweep::run_orchestrated(n, THREADS, None, None, |seg| {
            let cb = t.begin("engine.on_segment", sweep_span);
            range_ms += seg.elapsed_ms;
            emitted.push(seg.emitted);
            let append = t.begin("atlas.append_records", cb);
            let appended = atlas.append_records(seg.records);
            append_ns += t.end(append);
            let meta = ShardMeta {
                order: n as u16,
                shard_index: seg.index as u32,
                shard_count: seg.ranges as u32,
                frontier_len: seg.frontier_len,
                parent_lo: seg.parent_lo,
                parent_hi: seg.parent_hi,
                emitted: seg.emitted,
                elapsed_ms: seg.elapsed_ms,
                peak_rss_kb: bnf_obs::peak_rss_kb(),
                orchestrator_run: Some(1),
                frontier_prune: seg.frontier_prune,
                final_prune: seg.final_prune,
            };
            let result = appended.and_then(|_| atlas.append_shard_meta(&meta));
            if let Err(e) = result {
                error.get_or_insert(e.to_string());
            }
            callback_ns += t.end(cb);
        });
        let wall = started.elapsed();
        t.end(sweep_span);
        if let Some(e) = error {
            return Err(format!("append during the n={n} sweep: {e}"));
        }
        atlas
            .mark_complete(n, sweep.records.len())
            .map_err(|e| format!("mark_complete: {e}"))?;
        let records = sweep.records;
        let digest = records_digest(&records);
        self.check(
            Some(records.len()) == connected_count(n)
                && Some(digest.as_str()) == reference_digest(n),
            || format!("n={n} sweep: {} records, digest {digest}", records.len()),
        );
        if record_engine {
            let total: u64 = emitted.iter().sum();
            let heaviest = emitted.iter().copied().max().unwrap_or(0);
            self.metric("engine.range_count", stats.ranges as f64);
            self.metric(
                "engine.heaviest_range_share",
                heaviest as f64 / total.max(1) as f64,
            );
            let thread_ms = ms(wall) * stats.threads as f64;
            self.metric(
                "engine.worker_idle_ms",
                (thread_ms - range_ms as f64).max(0.0),
            );
            self.metric("engine.segment_callback_ms", callback_ns as f64 / 1e6);
            self.metric(
                "atlas.append_ns_per_record",
                append_ns as f64 / records.len() as f64,
            );
            let bytes = std::fs::metadata(store).map_err(|e| e.to_string())?.len();
            self.metric(
                "atlas.bytes_per_record",
                bytes as f64 / records.len() as f64,
            );
        }
        Ok(records)
    }

    fn encode(&mut self, records: &[WindowRecord]) {
        let refs: Vec<&WindowRecord> = records.iter().collect();
        let mut buf = Vec::new();
        let (_, ns) = self.t.time("atlas.encode_block", self.root, || {
            for chunk in refs.chunks(BLOCK_RECORDS) {
                buf.clear();
                encode_block(chunk, &mut buf);
                black_box(&buf);
            }
        });
        self.metric(
            "atlas.encode_ns_per_record",
            ns as f64 / records.len() as f64,
        );
    }

    /// Opens the n = 9 store in a child process: the buffered reader's
    /// resident cost is only measurable in a process that has not
    /// already allocated the catalogue.
    fn bulk_read(&mut self, store: &Path, n: usize) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let span = self.t.begin("atlas.bulk_read_child", self.root);
        let out = std::process::Command::new(exe)
            .args(["atlas-open", "--store"])
            .arg(store)
            .args(["--order", &n.to_string()])
            .output()
            .map_err(|e| format!("spawn atlas-open: {e}"))?;
        self.t.end(span);
        if !out.status.success() {
            return Err(format!(
                "atlas-open failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let field = |name: &str| -> Option<String> {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ').map(str::to_owned))
        };
        for (key, metric) in [
            ("open_ms", "atlas.open_ms"),
            ("open_rss_mib", "atlas.open_rss_mib"),
            ("complete_sweep_ms", "atlas.complete_sweep_ms"),
        ] {
            let v: f64 = field(key)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("atlas-open printed no {key}"))?;
            self.metric(metric, v);
        }
        let digest = field("digest").unwrap_or_default();
        self.check(Some(digest.as_str()) == reference_digest(n), || {
            format!("bulk replay of the n={n} store has digest {digest}")
        });
        Ok(())
    }

    fn empirics(&mut self, sweep: &WindowSweep, spec: &str) -> Result<(), String> {
        let alphas = GridSpec::parse(spec)
            .map_err(|e| format!("bad grid {spec:?}: {e}"))?
            .alphas();
        let (result, ns) = self.t.time("empirics.grid_evaluate", self.root, || {
            grid::evaluate(sweep, &alphas)
        });
        self.metric(
            "empirics.grid_eval_ns_per_record_alpha",
            ns as f64 / (sweep.records.len() * alphas.len()) as f64,
        );
        let ((bcg, ucg), ns) = self.t.time("empirics.stats", self.root, || {
            (
                result.stats(GameKind::Bilateral),
                result.stats(GameKind::Unilateral),
            )
        });
        self.metric("empirics.stats_ms", ns as f64 / 1e6);
        let (csv, ns) = self
            .t
            .time("empirics.render_csv", self.root, || fig2_csv(&bcg, &ucg));
        black_box(csv);
        self.metric("empirics.render_csv_ms", ns as f64 / 1e6);
        Ok(())
    }

    /// The classifier stages on a seeded sample, once untraced and once
    /// traced, which also gives the tracing overhead.
    fn core(&mut self, records: &[WindowRecord]) {
        let mut rng = Rng::new(self.seed, 0x636f_7265);
        let sample: Vec<(Graph, &WindowRecord)> = records
            .iter()
            .filter(|_| rng.below(CORE_SAMPLE_STRIDE) == 0)
            .map(|r| {
                (
                    Graph::from_graph6(&r.key).expect("stored keys are graph6"),
                    r,
                )
            })
            .collect();
        let mut scratch = BfsScratch::new();
        let mut pass = |t: &mut Tracer, parent: SpanId| {
            let mut counts = UcgCounts::default();
            let mut wrong = 0usize;
            let started = Instant::now();
            for (g, stored) in &sample {
                let rec = classify_staged(t, parent, g, &mut scratch, &mut counts);
                wrong += usize::from(rec != **stored);
            }
            (started.elapsed(), counts, wrong)
        };
        // Untraced passes on both sides of the traced one, so cache and
        // frequency warm-up do not land on either side of the ratio.
        self.t.set_enabled(false);
        let (before, _, wrong_before) = pass(&mut self.t, 0);
        self.t.set_enabled(true);
        let span = self.t.begin("core.sample_pass", self.root);
        let (traced, counts, wrong) = pass(&mut self.t, span);
        self.t.end(span);
        self.t.set_enabled(false);
        let (after, _, wrong_after) = pass(&mut self.t, 0);
        self.t.set_enabled(true);
        let untraced = (before + after) / 2;
        let wrong = wrong + wrong_before + wrong_after;
        let n = sample.len();
        self.check(wrong == 0, || {
            format!("staged classifier disagrees with the store on {wrong} of {n} sampled graphs")
        });
        self.metric(
            "trace.overhead_ratio",
            traced.as_secs_f64() / untraced.as_secs_f64(),
        );
        let per_graph = |t: &Tracer, name: &str| t.total_ns(name) as f64 / n as f64;
        for (span, metric) in [
            ("graph.to_graph6", "graph.to_graph6_ns_per_graph"),
            ("core.total_distance", "core.total_distance_ns_per_graph"),
            ("core.bcg_window", "core.bcg_window_ns_per_graph"),
            ("core.transfer_window", "core.transfer_window_ns_per_graph"),
            ("core.ucg_necessary", "core.ucg_necessary_ns_per_graph"),
        ] {
            let v = per_graph(&self.t, span);
            self.metric(metric, v);
        }
        let calls = counts.build_calls.max(1) as f64;
        let build = self.t.total_ns("core.ucg_build") as f64;
        let solve = self.t.total_ns("core.ucg_solve") as f64;
        self.metric("core.ucg_build_ns_per_call", build / calls);
        self.metric("core.ucg_solve_ns_per_call", solve / calls);
        let classify = self.t.durations("core.classify");
        self.metric("core.classify_ns_p50", quantile(&classify, 0.50) as f64);
        self.metric("core.classify_ns_p99", quantile(&classify, 0.99) as f64);
        self.metric("core.ucg_build_calls", counts.build_calls as f64);
        self.metric("core.ucg_supported_ratio", counts.supported as f64 / calls);
        self.metric("core.sample_graphs", n as f64);
    }

    /// Canonicalization of the inputs the serve live path receives:
    /// stored graphs under random labellings and order-7 graphs.
    fn canonical_form(&mut self, records8: &[WindowRecord]) {
        let mut rng = Rng::new(self.seed, 0x6361_6e6f);
        let mut inputs = Vec::new();
        for _ in 0..1000 {
            let r = &records8[rng.below(records8.len() as u64) as usize];
            let g = Graph::from_graph6(&r.key).expect("stored keys are graph6");
            inputs.push((g.relabel(&rng.permutation(g.order())), r.key.clone()));
        }
        let mut small = Vec::new();
        bnf_stream::for_each_connected(7, |g, _| small.push(g));
        for _ in 0..500 {
            let g = &small[rng.below(small.len() as u64) as usize];
            inputs.push((g.relabel(&rng.permutation(g.order())), g.to_graph6()));
        }
        let mut wrong = 0;
        for (g, want) in &inputs {
            let (canon, _) = self
                .t
                .time("graph.canonical_form", self.root, || g.canonical_form());
            wrong += usize::from(canon.to_graph6() != *want);
        }
        self.check(wrong == 0, || {
            format!("{wrong} relabelled graphs did not canonicalize to their stored key")
        });
        let d = self.t.durations("graph.canonical_form");
        self.metric("graph.canonical_form_ns", quantile(&d, 0.50) as f64);
    }

    /// Decodes every block frame of a store, timing `decode_block`.
    /// `bnf-atlas` has no public frame iterator, so this walks the frame
    /// grammar of `docs/ATLAS_FORMAT.md` (12-byte header, u32 length prefix,
    /// tag 4 for a record block); the record count check catches a
    /// format change that would leave nothing decoded.
    fn decode_frames(&mut self, store: &Path, layout: &str, records: usize) -> Result<(), String> {
        let bytes = std::fs::read(store).map_err(|e| format!("read {}: {e}", store.display()))?;
        let name = leak(format!("atlas.decode_block.{layout}"));
        let mut pos = 12usize;
        let mut decoded = 0usize;
        while pos + 4 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let payload = bytes
                .get(pos + 4..pos + 4 + len)
                .ok_or_else(|| format!("frame at {pos} runs past the end"))?;
            if payload.first() == Some(&4) {
                let (block, _) = self.t.time(name, self.root, || decode_block(&payload[1..]));
                decoded += block.map_err(|e| format!("block at {pos}: {e}"))?.len();
            }
            pos += 4 + len;
        }
        self.check(decoded == records, || {
            format!("{layout} store: decoded {decoded} records from its blocks, want {records}")
        });
        self.metric(
            &format!("atlas.decode_ns_per_record.{layout}"),
            self.t.total_ns(name) as f64 / decoded.max(1) as f64,
        );
        Ok(())
    }

    /// Lookups, `record_at` and a full `stream_sweep` on one layout.
    fn point_reads(
        &mut self,
        store: &Path,
        layout: &str,
        records: &[WindowRecord],
    ) -> Result<(), String> {
        let atlas = MappedAtlas::open(store).map_err(|e| format!("open indexed {layout}: {e}"))?;
        let mut rng = Rng::new(self.seed, 0x6c6f_6f6b);
        let lookup = leak(format!("atlas.lookup.{layout}"));
        let mut wrong = 0;
        for _ in 0..1000 {
            let want = &records[rng.below(records.len() as u64) as usize];
            let (got, _) = self.t.time(lookup, self.root, || atlas.lookup(&want.key));
            wrong += usize::from(got.ok().flatten().as_ref() != Some(want));
        }
        let record_at = leak(format!("atlas.record_at.{layout}"));
        for _ in 0..300 {
            let idx = rng.below(records.len() as u64);
            let (got, _) = self
                .t
                .time(record_at, self.root, || atlas.record_at(8, idx));
            wrong += usize::from(got.ok().flatten().as_ref() != Some(&records[idx as usize]));
        }
        let mut streamed = 0usize;
        let (result, ns) = self.t.time(
            leak(format!("atlas.stream_sweep.{layout}")),
            self.root,
            || {
                atlas.stream_sweep(8, |rec| {
                    wrong += usize::from(records.get(streamed) != Some(&rec));
                    streamed += 1;
                })
            },
        );
        let complete = matches!(result, Ok(Some(c)) if c as usize == records.len());
        self.check(wrong == 0 && complete, || {
            format!("{layout} store: {wrong} wrong reads, stream_sweep {result:?}")
        });
        let d = self.t.durations(lookup);
        self.metric(
            &format!("atlas.lookup_ns_p50.{layout}"),
            quantile(&d, 0.50) as f64,
        );
        self.metric(
            &format!("atlas.lookup_ns_p99.{layout}"),
            quantile(&d, 0.99) as f64,
        );
        let d = self.t.durations(record_at);
        self.metric(
            &format!("atlas.record_at_ns_p50.{layout}"),
            quantile(&d, 0.50) as f64,
        );
        self.metric(
            &format!("atlas.stream_sweep_ns_per_record.{layout}"),
            ns as f64 / records.len() as f64,
        );
        Ok(())
    }

    /// The n = 8 store in append order and compacted, read both ways.
    fn store_layouts(
        &mut self,
        records8: &[WindowRecord],
        append: &Path,
    ) -> Result<PathBuf, String> {
        let compacted = self.work.join("n8-compacted.bnfatlas");
        let (summary, ns) = self.t.time("atlas.compact", self.root, || {
            compact_store(append, &compacted, ATLAS_VERSION)
        });
        summary.map_err(|e| format!("compact: {e}"))?;
        self.metric(
            "atlas.compact_ns_per_record",
            ns as f64 / records8.len() as f64,
        );
        let (index, ns) = self
            .t
            .time("atlas.index_build", self.root, || build_index(&compacted));
        index.map_err(|e| format!("index compacted: {e}"))?;
        self.metric(
            "atlas.index_build_ns_per_record",
            ns as f64 / records8.len() as f64,
        );
        build_index(append).map_err(|e| format!("index append-order: {e}"))?;
        for (layout, path) in [
            ("compacted", &compacted),
            ("append_order", &append.to_path_buf()),
        ] {
            self.decode_frames(path, layout, records8.len())?;
            self.point_reads(path, layout, records8)?;
        }
        Ok(compacted)
    }

    /// Times `AppState::handle` per route, the socket round trip on top
    /// of it, and the load generator's own lateness.
    fn serve(&mut self, compacted: &Path, records8: Vec<WindowRecord>) -> Result<(), String> {
        let atlas = MappedAtlas::open(compacted).map_err(|e| format!("open served store: {e}"))?;
        let state = Arc::new(AppState::new(atlas, DEFAULT_LIVE_ORDER_CAP));
        state.warm_paper_grid()?;
        let mut mix = Mix::new(8, records8);
        let mut rng = Rng::new(self.seed, 0x7365_7276);
        let mut scratch = BfsScratch::new();
        let mut request = 0u32;
        let mut wrong = 0usize;
        let mut planned: Vec<(&'static str, Planned)> = Vec::new();
        for (name, route, count) in [
            ("classify_hit", Route::ClassifyHit, 400),
            ("classify_live", Route::ClassifyLive, 150),
            ("record", Route::Record, 400),
            ("grid_cached", Route::GridPaper, 200),
        ] {
            for _ in 0..count {
                planned.push((name, mix.plan(route, &mut rng)));
            }
        }
        // Specs never seen before, so every one misses the cache.
        for k in 0..60u64 {
            let spec = format!("linear:1/{}:{}:32", 3 + k % 5, 70 + k);
            let body = loadgen::grid_body(mix.catalogue(), &spec);
            planned.push((
                "grid_uncached",
                Planned {
                    route: Route::GridUncached,
                    wire: format!("/grid?spec={}", bnf_serve::percent_encode(&spec)),
                    segments: vec!["grid".into()],
                    query: vec![("spec".into(), spec)],
                    expect: loadgen::Expect::Body(body.into()),
                },
            ));
        }
        for (name, plan) in &planned {
            request += 1;
            let req = plan.request();
            let outer = self.t.begin_request("serve.request", self.root, request);
            let span = self
                .t
                .begin_request(leak(format!("serve.handle.{name}")), outer, request);
            let (status, body) = state.handle(&req, &mut scratch);
            self.t.end(span);
            self.t.end(outer);
            wrong += usize::from(!plan.expect.matches(status, &body));
        }
        for name in [
            "classify_hit",
            "classify_live",
            "record",
            "grid_cached",
            "grid_uncached",
        ] {
            let d = self.t.durations(&format!("serve.handle.{name}"));
            self.metric(
                &format!("serve.handle_ns_p50.{name}"),
                quantile(&d, 0.50) as f64,
            );
            self.metric(
                &format!("serve.handle_ns_p99.{name}"),
                quantile(&d, 0.99) as f64,
            );
        }
        let mut out = String::with_capacity(512);
        for rec in mix.catalogue().records.iter().take(2000) {
            out.clear();
            self.t.time("serve.render_record", self.root, || {
                bnf_serve::render::push_record(&mut out, rec)
            });
        }
        let d = self.t.durations("serve.render_record");
        self.metric("serve.render_record_ns", quantile(&d, 0.50) as f64);

        let server = Server::start(Arc::clone(&state), "127.0.0.1:0", THREADS)
            .map_err(|e| format!("start in-process server: {e}"))?;
        let mut overheads = Vec::new();
        {
            let mut client =
                MiniClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
            for _ in 0..300 {
                let plan = mix.plan(Route::ClassifyHit, &mut rng);
                request += 1;
                let outer = self
                    .t
                    .begin_request("serve.socket_request", self.root, request);
                let span = self.t.begin_request("serve.client_get", outer, request);
                let got = client.get(&plan.wire);
                let client_ns = self.t.end(span);
                let span = self.t.begin_request("serve.handle.inproc", outer, request);
                black_box(state.handle(&plan.request(), &mut scratch));
                let handle_ns = self.t.end(span);
                self.t.end(outer);
                match got {
                    Ok((status, body)) => wrong += usize::from(!plan.expect.matches(status, &body)),
                    Err(_) => wrong += 1,
                }
                overheads.push(client_ns.saturating_sub(handle_ns));
            }
        }
        overheads.sort_unstable();
        self.metric(
            "serve.socket_overhead_us",
            quantile(&overheads, 0.50) as f64 / 1e3,
        );
        let plan = mix.plan_mix(LAG_PROBE_RATE as usize, &mut rng);
        let span = self.t.begin("loadgen.lag_probe", self.root);
        let (samples, errors) = loadgen::run_open_loop(server.addr(), &plan, LAG_PROBE_RATE);
        self.t.end(span);
        server.shutdown();
        wrong += samples.iter().filter(|s| !s.ok).count();
        let mut lag: Vec<u64> = samples.iter().map(|s| s.lag_ns).collect();
        lag.sort_unstable();
        self.metric("loadgen.lag_p99_us", quantile(&lag, 0.99) as f64 / 1e3);
        self.check(wrong == 0, || {
            format!("{wrong} serve responses differ from the expected bodies: {errors:?}")
        });
        Ok(())
    }

    /// Shares the acceptance criteria read off the trace: how much of
    /// the classify span the core stages cover, and the UCG build's part.
    fn trace_shares(&mut self) {
        let times = self.t.layer_times();
        let classify = times.get("core.classify").map_or(0, |t| t.total_ns) as f64;
        let stage = |name: &str| times.get(name).map_or(0, |t| t.self_ns) as f64;
        let core: f64 = [
            "core.total_distance",
            "core.bcg_window",
            "core.transfer_window",
            "core.ucg_necessary",
            "core.ucg_build",
            "core.ucg_solve",
        ]
        .iter()
        .map(|s| stage(s))
        .sum();
        self.metric("trace.core_self_share", core / classify.max(1.0));
        self.metric(
            "trace.ucg_build_self_share",
            stage("core.ucg_build") / classify.max(1.0),
        );
    }
}

/// Runs every section; prints the metrics as one JSON line and writes
/// the spans and the self-time table under `out`.
pub fn run(workload: &str, seed: u64, spec: &str, out: &Path) -> Result<bool, String> {
    let work = out.join(format!("layers-{workload}-{seed}"));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let mut t = Tracer::new(true);
    let root = t.begin("bench.layers", 0);
    let mut l = Layers {
        t,
        root,
        metrics: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        seed,
        work: work.clone(),
    };
    let result = (|| -> Result<(), String> {
        l.stream(9);
        let store9 = work.join("n9.bnfatlas");
        let records9 = l.sweep_into_store(9, &store9, "engine.orchestrated_sweep", true)?;
        l.encode(&records9);
        l.bulk_read(&store9, 9)?;
        let sweep9 = WindowSweep {
            n: 9,
            records: records9,
        };
        l.empirics(&sweep9, spec)?;
        l.core(&sweep9.records);
        drop(sweep9);
        let store8 = work.join("n8.bnfatlas");
        let records8 = l.sweep_into_store(8, &store8, "setup.n8_sweep", false)?;
        l.canonical_form(&records8);
        let compacted = l.store_layouts(&records8, &store8)?;
        l.serve(&compacted, records8)?;
        Ok(())
    })();
    if let Err(e) = result {
        l.failures.push(e);
        l.attempted += 1;
    }
    l.t.end(root);
    l.trace_shares();

    // One file per workload, overwritten by the next traced run: a span
    // file is about 10 MB.
    let spans_path = out.join(format!("spans-{workload}.jsonl"));
    l.t.write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let mut table: Vec<_> = l.t.layer_times().into_iter().collect();
    table.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    let mut self_times = JsonObj::new();
    eprintln!("per-layer self time ({}):", spans_path.display());
    for (name, lt) in &table {
        eprintln!(
            "  {name:<40} {:>8} calls {:>12.3} ms total {:>12.3} ms self",
            lt.calls,
            lt.total_ns as f64 / 1e6,
            lt.self_ns as f64 / 1e6
        );
        self_times.num(name, lt.self_ns as f64 / 1e6);
    }
    let _ = std::fs::remove_dir_all(&work);

    let mut metrics = JsonObj::new();
    for (name, v) in &l.metrics {
        metrics.num(name, *v);
    }
    let mut failures = String::from("[");
    for (i, f) in l.failures.iter().enumerate() {
        if i > 0 {
            failures.push(',');
        }
        bnf_obs::json::push_json_string(&mut failures, f);
    }
    failures.push(']');
    println!(
        "{}",
        JsonObj::new()
            .int("attempted", l.attempted)
            .int("failed", l.failures.len() as u64)
            .raw("failures", &failures)
            .raw("metrics", &metrics.finish())
            .raw("self_ms", &self_times.finish())
            .finish()
    );
    Ok(l.failures.is_empty())
}

/// Child-process half of the bulk-read section.
pub fn atlas_open(store: &str, order: usize) -> Result<(), String> {
    let before = proc_status_kb("VmRSS:").unwrap_or(0);
    let started = Instant::now();
    let atlas = ClassificationAtlas::open(store).map_err(|e| format!("open {store}: {e}"))?;
    let open = started.elapsed();
    let after = proc_status_kb("VmRSS:").unwrap_or(0);
    let started = Instant::now();
    let records = atlas
        .complete_sweep(order)
        .ok_or_else(|| format!("{store} has no complete order-{order} catalogue"))?;
    let replay = started.elapsed();
    println!("open_ms {}", ms(open));
    println!(
        "open_rss_mib {}",
        after.saturating_sub(before) as f64 / 1024.0
    );
    println!("complete_sweep_ms {}", ms(replay));
    println!("records {}", records.len());
    println!("digest {}", records_digest(&records));
    Ok(())
}
