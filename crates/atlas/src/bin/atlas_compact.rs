//! Rewrites an atlas store as a packed v4 store in global engine order
//! — the v3 → v4 migration tool (v3 stores are read-only in this
//! build; v4 is 3–5× smaller) and the compactor for v4 stores written
//! in append order.
//!
//! Usage: `atlas_compact --atlas store.bnfatlas [--out compacted.bnfatlas]
//! [--report-json report.json]`
//!
//! Without `--out` the store is compacted in place; either way the
//! rewrite lands in a temporary file renamed over the destination, so
//! an interrupted run never leaves a half-written store. Records come
//! out in global engine order `(order, edges, canonical key)`
//! regardless of the source's append order, and coverage +
//! shard-provenance frames are carried through unchanged, so warm
//! replays and `--resume` gates are unaffected. A `<store>.idx` sidecar
//! over the source is invalidated by the rewrite — rerun `atlas_index`
//! afterwards.
//!
//! The run manifest (`--report-json`) carries the gated size metric
//! `manifest/atlas_bytes_per_record/{max_order}`.

use std::process::ExitCode;

use bnf_atlas::{compact_store, ATLAS_VERSION};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // Every flag takes a value; an unknown one (an old `--format 3`) is
    // refused, never silently ignored into a v4 store.
    let known = ["--atlas", "--out", "--report-json"];
    let unknown = args
        .iter()
        .step_by(2)
        .find(|a| !known.contains(&a.as_str()));
    let (Some(store), None) = (flag("--atlas"), unknown) else {
        eprintln!(
            "usage: atlas_compact --atlas store.bnfatlas [--out compacted.bnfatlas] \
             [--report-json report.json] (writes format v{ATLAS_VERSION})"
        );
        return ExitCode::FAILURE;
    };
    let out = flag("--out").unwrap_or_else(|| store.clone());
    let report_json = flag("--report-json");

    bnf_obs::Recorder::global().take();
    let started = std::time::Instant::now();
    let summary = match compact_store(&store, &out, ATLAS_VERSION) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compaction failed for {store}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "compacted {store} -> {} (v{}): {} records in {} frames, {} -> {} bytes{}",
        summary.path.display(),
        summary.version,
        summary.records,
        summary.frames,
        summary.input_bytes,
        summary.output_bytes,
        summary
            .shrink_ratio()
            .map(|r| format!(" ({r:.2}x)"))
            .unwrap_or_default(),
    );
    println!(
        "rebuild the index sidecar: atlas_index --atlas {}",
        summary.path.display()
    );

    if let Some(path) = report_json {
        let mut manifest =
            bnf_obs::RunManifest::new("atlas_compact", u32::from(summary.max_order), "compact");
        manifest.emitted = summary.records;
        manifest.elapsed_ms = started.elapsed().as_millis() as u64;
        manifest.peak_rss_kb = bnf_obs::peak_rss_kb();
        manifest.set_counter("compact_input_bytes", summary.input_bytes);
        manifest.set_counter("compact_target_version", u64::from(summary.version));
        if let Some(bpr) = summary.bytes_per_record() {
            manifest.push_metric(
                &format!("manifest/atlas_bytes_per_record/{}", summary.max_order),
                bpr,
            );
        }
        manifest.absorb(bnf_obs::Recorder::global().take());
        if let Err(e) = std::fs::write(&path, manifest.to_json()) {
            eprintln!("cannot write run manifest to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("run manifest written to {path}");
    }
    ExitCode::SUCCESS
}
