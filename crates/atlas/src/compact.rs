//! Streaming store compaction: rewrite any readable atlas — a v3 row
//! store or a v4 store in append order — into a fresh v4 store with its
//! records in global engine order. This is the v3 → v4 migration path
//! (the `atlas_compact` binary): v3 stores are read-only in this build,
//! so compaction is how an old store becomes appendable again.
//!
//! [`compact_store`] makes two passes through the one frame reader
//! (the private `frame` module), neither of which materializes the
//! record map (the whole point at n ≥ 10, where
//! [`crate::ClassificationAtlas::open`] costs ~6.5 GB resident):
//!
//! 1. **Scan**: walk the source frames once, keeping only a light
//!    entry per record — `(order, edges, engine sort word, frame
//!    offset, intra-frame ordinal)`, ~32 bytes — plus the coverage and
//!    shard-metadata frames.
//! 2. **Gather + write**: sort the entries into global engine order
//!    `(order, edges, sort word)`, then re-read each record by
//!    positioned read (with a last-block cache, so a sequentially
//!    written source decodes each block once) and emit it into packed
//!    [`crate::codec`] blocks. Provenance (shard metadata) and coverage
//!    frames are re-encoded unchanged, in file order, so `--resume`
//!    bookkeeping and warm replay gates survive the rewrite.
//!
//! The output is written to `<dst>.tmp` and atomically renamed over
//! `dst`, so a crashed compaction never leaves a half-written store —
//! and in-place compaction (`dst == src`) is safe. A `<store>.idx`
//! sidecar built over the source self-invalidates (the store length
//! changes); rebuild it with [`crate::build_index`] afterwards.
//!
//! Identical duplicate records (legal in the source: idempotent
//! re-appends are deduplicated on *read*, not on disk) collapse to the
//! last occurrence, matching `open()`'s map-insert semantics. Equality
//! of the engine sort triple identifies the canonical graph exactly
//! for every enumerable order (n ≤ 11 — the packed triangle fits the
//! sort word), the same assumption every engine-order replay rests on.

use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use bnf_core::WindowRecord;

use crate::codec::BLOCK_RECORDS;
use crate::frame::{self, BlockCache, Frame, FrameWalker, RecordReader, ATLAS_VERSION};
use crate::index::engine_sort_key;
use crate::store::AtlasError;

/// What [`compact_store`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactSummary {
    /// Output store path.
    pub path: PathBuf,
    /// Output format version (always [`ATLAS_VERSION`]).
    pub version: u32,
    /// Records written (after identical-duplicate collapse).
    pub records: u64,
    /// Columnar block frames written.
    pub frames: u64,
    /// Source store size in bytes.
    pub input_bytes: u64,
    /// Output store size in bytes.
    pub output_bytes: u64,
    /// Highest order with at least one record (0 when empty).
    pub max_order: u16,
}

impl CompactSummary {
    /// Output bytes per record, the gated size metric — `None` for an
    /// empty store.
    pub fn bytes_per_record(&self) -> Option<f64> {
        (self.records > 0).then(|| self.output_bytes as f64 / self.records as f64)
    }

    /// Input/output size ratio (> 1 means the store shrank) — `None`
    /// for an empty output.
    pub fn shrink_ratio(&self) -> Option<f64> {
        (self.output_bytes > 0).then(|| self.input_bytes as f64 / self.output_bytes as f64)
    }
}

/// One record location in the source, with its engine sort key.
struct CompactEntry {
    order: u16,
    edges: u64,
    sort_word: u64,
    offset: u64,
    ordinal: u16,
}

/// Rewrites the store at `src` into a v[`ATLAS_VERSION`] store at `dst`
/// (`dst == src` compacts in place), returning what was written. See
/// the module docs for the two-pass shape and the guarantees.
/// `target_version` must be [`ATLAS_VERSION`], the only format this
/// build writes.
///
/// # Errors
///
/// [`AtlasError::VersionMismatch`] for an unsupported source header or
/// `target_version`; [`AtlasError::Torn`] for a source ending mid-frame
/// (recover it first with
/// [`crate::ClassificationAtlas::open_recovering`]);
/// [`AtlasError::Corrupt`] for malformed source bytes;
/// [`AtlasError::Io`] on filesystem failure.
pub fn compact_store(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    target_version: u32,
) -> Result<CompactSummary, AtlasError> {
    let src = src.as_ref();
    let dst = dst.as_ref();
    bnf_obs::Recorder::global().time("atlas_compact", || {
        compact_store_inner(src, dst, target_version)
    })
}

fn compact_store_inner(
    src: &Path,
    dst: &Path,
    target_version: u32,
) -> Result<CompactSummary, AtlasError> {
    if target_version != ATLAS_VERSION {
        return Err(AtlasError::VersionMismatch {
            found: target_version,
        });
    }

    // Pass 1: walk the source once into light entries + carried
    // frames.
    let mut walker = FrameWalker::open_existing(src)?;
    let input_bytes = walker.file_len();
    let mut entries: Vec<CompactEntry> = Vec::new();
    let mut carried: Vec<Vec<u8>> = Vec::new(); // coverage + shard payloads, file order
    while let Some((offset, frame)) = walker.next_frame()? {
        match frame {
            Frame::Records(records) => {
                for (ordinal, rec) in records.iter().enumerate() {
                    let (order, edges, sort_word) = engine_sort_key(rec)
                        .map_err(|reason| AtlasError::Corrupt { offset, reason })?;
                    entries.push(CompactEntry {
                        order,
                        edges,
                        sort_word,
                        offset,
                        ordinal: ordinal as u16,
                    });
                }
            }
            Frame::Coverage { order, count } => carried.push(frame::coverage_payload(order, count)),
            Frame::ShardMeta(meta) => carried.push(frame::shard_meta_payload(&meta)),
        }
    }

    // Global engine order; identical duplicates (same canonical graph,
    // see module docs) collapse to the last occurrence.
    entries.sort_unstable_by_key(|e| (e.order, e.edges, e.sort_word, e.offset, e.ordinal));
    entries.dedup_by(|next, prev| {
        if (prev.order, prev.edges, prev.sort_word) == (next.order, next.edges, next.sort_word) {
            prev.offset = next.offset;
            prev.ordinal = next.ordinal;
            true
        } else {
            false
        }
    });
    let records = entries.len() as u64;
    let max_order = entries.iter().map(|e| e.order).max().unwrap_or(0);

    // Pass 2: gather each record by positioned read and write the
    // target store to a temporary, renamed into place on success.
    let tmp_path = {
        let mut name = dst.as_os_str().to_owned();
        name.push(".tmp");
        PathBuf::from(name)
    };
    let source = RecordReader::open(src)?;
    let frames = match write_target(&tmp_path, &entries, &source, &carried) {
        Ok(frames) => frames,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e);
        }
    };
    std::fs::rename(&tmp_path, dst)?;
    let output_bytes = std::fs::metadata(dst)?.len();

    let recorder = bnf_obs::Recorder::global();
    recorder.add("compact_records", records);
    recorder.add("compact_frames", frames);
    recorder.add("compact_output_bytes", output_bytes);
    Ok(CompactSummary {
        path: dst.to_path_buf(),
        version: ATLAS_VERSION,
        records,
        frames,
        input_bytes,
        output_bytes,
        max_order,
    })
}

/// Writes the full target store (header, block frames, carried frames)
/// to `path`, durably; returns the block-frame count.
fn write_target(
    path: &Path,
    entries: &[CompactEntry],
    source: &RecordReader,
    carried: &[Vec<u8>],
) -> Result<u64, AtlasError> {
    let f = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)?;
    let mut w = BufWriter::new(f);
    w.write_all(&frame::header())?;

    let mut frames = 0u64;
    let mut cache = BlockCache::default();
    let mut payload = Vec::new();
    let mut block: Vec<WindowRecord> = Vec::new();
    for chunk in entries.chunks(BLOCK_RECORDS) {
        block.clear();
        for e in chunk {
            block.push(source.record(e.offset, e.ordinal, &mut cache)?.clone());
        }
        let refs: Vec<&WindowRecord> = block.iter().collect();
        frame::block_payload(&refs, &mut payload);
        frame::write_frame(&mut w, &payload)?;
        frames += 1;
    }
    for payload in carried {
        frame::write_frame(&mut w, payload)?;
    }
    w.flush()?;
    w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ClassificationAtlas;
    use bnf_graph::Graph;

    fn scratch_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bnf-compact-{tag}-{}-{n}.bnfatlas",
            std::process::id()
        ))
    }

    /// A scratch copy of the v3 fixture store.
    fn v3_copy(tag: &str) -> PathBuf {
        let path = scratch_path(tag);
        std::fs::copy(crate::V3_FIXTURE, &path).unwrap();
        path
    }

    /// All 6 connected topologies on 4 vertices, classified.
    fn n4_records() -> Vec<WindowRecord> {
        let mut scratch = bnf_graph::BfsScratch::new();
        [
            &[(0, 1), (1, 2), (2, 3)][..],
            &[(0, 1), (0, 2), (0, 3)][..],
            &[(0, 1), (1, 2), (2, 3), (3, 0)][..],
            &[(0, 1), (1, 2), (2, 0), (0, 3)][..],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)][..],
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)][..],
        ]
        .iter()
        .map(|edges| {
            let g = Graph::from_edges(4, edges.iter().copied()).unwrap();
            WindowRecord::classify(&g, &mut scratch)
        })
        .collect()
    }

    #[test]
    fn v3_to_v4_preserves_catalogue_coverage_and_replay() {
        let src = v3_copy("v3src");
        let dst = scratch_path("v4dst");
        let reference = ClassificationAtlas::open(&src).unwrap();
        let ref_sweep = reference.complete_sweep(6).unwrap();

        let summary = compact_store(&src, &dst, 4).unwrap();
        assert_eq!(summary.version, 4);
        assert_eq!(summary.records, 112);
        assert_eq!(summary.frames, 1, "112 records fit one block");
        assert_eq!(summary.max_order, 6);

        let compacted = ClassificationAtlas::open(&dst).unwrap();
        assert_eq!(compacted.version(), 4);
        assert_eq!(compacted.len(), 112);
        assert_eq!(compacted.coverage(6), reference.coverage(6));
        assert_eq!(compacted.complete_sweep(6).unwrap(), ref_sweep);
        assert_eq!(compacted.shard_metas(), reference.shard_metas());
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
    }

    #[test]
    fn v4_append_order_store_compacts_into_engine_order() {
        let src = scratch_path("v4src");
        let dst = scratch_path("v4dst");
        let records = n4_records();
        {
            let mut atlas = ClassificationAtlas::open(&src).unwrap();
            // Two batches, the first reversed, so the source is in
            // neither engine nor key order.
            atlas.append_records(records.iter().rev().take(3)).unwrap();
            atlas.append_records(records.iter()).unwrap();
            atlas.mark_complete(4, records.len()).unwrap();
        }
        let reference = ClassificationAtlas::open(&src).unwrap().complete_sweep(4);

        let summary = compact_store(&src, &dst, ATLAS_VERSION).unwrap();
        assert_eq!(summary.records, records.len() as u64);
        assert_eq!(summary.frames, 1);
        let compacted = ClassificationAtlas::open(&dst).unwrap();
        assert_eq!(compacted.complete_sweep(4), reference);
        // Compacting a compacted store is the identity.
        let again = scratch_path("v4again");
        compact_store(&dst, &again, ATLAS_VERSION).unwrap();
        assert_eq!(std::fs::read(&again).unwrap(), std::fs::read(&dst).unwrap());
        for p in [&src, &dst, &again] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn in_place_compaction_is_atomic_and_lossless() {
        let path = v3_copy("inplace");
        let reference = ClassificationAtlas::open(&path).unwrap().complete_sweep(6);
        let before = std::fs::metadata(&path).unwrap().len();

        let summary = compact_store(&path, &path, 4).unwrap();
        assert_eq!(summary.input_bytes, before);
        assert_eq!(
            summary.output_bytes,
            std::fs::metadata(&path).unwrap().len()
        );
        assert!(summary.bytes_per_record().unwrap() > 0.0);

        let compacted = ClassificationAtlas::open(&path).unwrap();
        assert_eq!(compacted.version(), 4);
        assert_eq!(compacted.complete_sweep(6), reference);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacted_store_serves_through_the_mapped_seam() {
        let src = v3_copy("mapsrc");
        let dst = scratch_path("mapdst");
        let reference = ClassificationAtlas::open(&src).unwrap();
        let expected = reference.complete_sweep(6).unwrap();
        compact_store(&src, &dst, 4).unwrap();
        crate::build_index(&dst).unwrap();
        let mapped = crate::MappedAtlas::open(&dst).unwrap();
        assert_eq!(mapped.version(), 4);
        for rec in reference.iter() {
            assert_eq!(mapped.lookup(&rec.key).unwrap().as_ref(), Some(rec));
        }
        let mut streamed = Vec::new();
        assert_eq!(
            mapped.stream_sweep(6, |r| streamed.push(r)).unwrap(),
            Some(expected.len() as u64)
        );
        assert_eq!(streamed, expected);
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
        std::fs::remove_file(crate::index_path(&dst)).ok();
    }

    #[test]
    fn empty_store_compacts_to_an_empty_store() {
        // The v3 fixture's header alone is an empty v3 store.
        let src = scratch_path("emptysrc");
        let dst = scratch_path("emptydst");
        let header = std::fs::read(crate::V3_FIXTURE).unwrap();
        std::fs::write(&src, &header[..12]).unwrap();
        let summary = compact_store(&src, &dst, 4).unwrap();
        assert_eq!(summary.records, 0);
        assert_eq!(summary.bytes_per_record(), None);
        assert!(ClassificationAtlas::open(&dst).unwrap().is_empty());
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
    }

    #[test]
    fn unsupported_target_version_is_rejected() {
        let src = scratch_path("badver");
        let _ = ClassificationAtlas::open(&src).unwrap();
        // v4 is the only format written: v3 and anything else refuse.
        for target in [2, 3, 5] {
            assert!(matches!(
                compact_store(&src, &src, target),
                Err(AtlasError::VersionMismatch { found }) if found == target
            ));
        }
        std::fs::remove_file(&src).ok();
    }
}
