//! The torn-write matrix: a real store truncated at **every** byte
//! offset must either recover to a clean prefix replay or fail with a
//! typed error — never panic, never silently lose data that recovery
//! did not report dropping.
//!
//! It is also the one-verdict check: every truncation point and every
//! mid-store corruption case runs through all four store readers —
//! `open`, `open_recovering`, `compact_store` and `build_index` — and
//! each must give the verdict a byte-level oracle predicts: clean,
//! torn at the end of the clean prefix (recoverable), or corrupt at
//! the offending frame.

use bnf_atlas::{
    build_index, compact_store, index_path, max_frame_len, AtlasError, ClassificationAtlas,
    IndexError, ShardMeta, ATLAS_VERSION,
};
use bnf_core::WindowRecord;
use bnf_stream::PruneCounters;
use std::path::{Path, PathBuf};

/// A v3 row store from the last v3-writing build: the n = 6 catalogue
/// (112 row frames) plus shard-metadata and coverage frames.
const V3_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v3-n6.bnfatlas");

fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bnf-torn-matrix-{}-{k}-{tag}.bnfatlas",
        std::process::id()
    ))
}

fn record(key: &str, edges: u64) -> WindowRecord {
    WindowRecord {
        key: key.into(),
        order: 5,
        edges,
        total_distance: 40 - edges,
        stability: None,
        transfer: None,
        ucg_support: Vec::new(),
    }
}

fn meta(index: u32, count: u32, emitted: u64) -> ShardMeta {
    ShardMeta {
        order: 5,
        shard_index: index,
        shard_count: count,
        frontier_len: 6,
        parent_lo: 6 * u64::from(index) / u64::from(count),
        parent_hi: 6 * u64::from(index + 1) / u64::from(count),
        emitted,
        elapsed_ms: 3,
        peak_rss_kb: Some(1024),
        orchestrator_run: Some(7),
        frontier_prune: PruneCounters {
            candidates: 10,
            ..PruneCounters::default()
        },
        final_prune: PruneCounters {
            candidates: 4,
            ..PruneCounters::default()
        },
    }
}

/// The reference store the matrix truncates, holding every frame kind
/// its `version` has on disk (v3 rows or a v4 columnar block, plus
/// tags 2 and 3), and its records. v3 is the checked-in fixture, since
/// this build writes only v4.
fn build_reference(path: &Path, version: u32) -> Vec<WindowRecord> {
    if version == 3 {
        std::fs::copy(V3_FIXTURE, path).unwrap();
        return ClassificationAtlas::open(path)
            .unwrap()
            .iter()
            .cloned()
            .collect();
    }
    let records: Vec<WindowRecord> = ["D?{", "DQw", "Dhc", "D]w"]
        .iter()
        .enumerate()
        .map(|(i, k)| record(k, 4 + i as u64))
        .collect();
    let mut atlas = ClassificationAtlas::open(path).unwrap();
    assert_eq!(atlas.version(), version);
    atlas.append_records(&records).unwrap();
    atlas.append_shard_meta(&meta(0, 2, 2)).unwrap();
    atlas.append_shard_meta(&meta(1, 2, 2)).unwrap();
    atlas.mark_complete(5, records.len()).unwrap();
    records
}

/// The frame offsets of a well-formed store, read straight off the
/// length prefixes — the oracle the readers' verdicts are held to.
fn frame_offsets(bytes: &[u8]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut at = 12usize;
    while at < bytes.len() {
        out.push(at as u64);
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 4 + len;
    }
    assert_eq!(at, bytes.len(), "reference store does not end on a frame");
    out
}

/// One reader's verdict on a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Every frame decodes and the file ends on a frame boundary.
    Clean,
    /// The file ends inside the frame at this offset: recoverable.
    Torn(u64),
    /// Mid-store corruption in the frame at this offset.
    Corrupt(u64),
    /// No complete header: not a store.
    NoHeader,
}

fn atlas_verdict(result: Result<(), AtlasError>) -> Verdict {
    match result {
        Ok(()) => Verdict::Clean,
        Err(AtlasError::Torn { offset, .. }) => Verdict::Torn(offset),
        Err(AtlasError::Corrupt { offset, .. }) => Verdict::Corrupt(offset),
        Err(AtlasError::BadMagic) => Verdict::NoHeader,
        Err(other) => panic!("unexpected store error {other:?}"),
    }
}

/// The verdicts of `open`, `compact_store`, `build_index` and
/// `open_recovering`, in that order, on `bytes` written to `work`.
/// Returns the recovered atlas too (the recovering reader runs last and
/// leaves the recovered file behind).
fn verdicts(bytes: &[u8], work: &Path) -> ([Verdict; 4], Option<bnf_atlas::RecoveredAtlas>) {
    std::fs::write(work, bytes).unwrap();
    // compact_store and build_index leave the source untouched.
    let out = work.with_extension("compacted");
    let compact = atlas_verdict(compact_store(work, &out, ATLAS_VERSION).map(|_| ()));
    std::fs::remove_file(&out).ok();
    let index = match build_index(work) {
        Ok(_) => Verdict::Clean,
        Err(IndexError::Torn { offset, .. }) => Verdict::Torn(offset),
        Err(IndexError::Corrupt { offset, .. }) => Verdict::Corrupt(offset),
        Err(IndexError::Store { .. }) => Verdict::NoHeader,
        Err(other) => panic!("unexpected index error {other:?}"),
    };
    std::fs::remove_file(index_path(work)).ok();
    // `open` stamps a header into an empty file, so recovery gets a
    // fresh copy.
    let open = atlas_verdict(ClassificationAtlas::open(work).map(|_| ()));
    std::fs::write(work, bytes).unwrap();
    let (recovering, recovered) = match ClassificationAtlas::open_recovering(work) {
        Ok(r) if !r.report.was_torn() => (Verdict::Clean, Some(r)),
        Ok(r) if bytes.len() < 12 => (Verdict::NoHeader, Some(r)),
        Ok(r) => (Verdict::Torn(r.report.recovered_len), Some(r)),
        Err(e) => (atlas_verdict(Err(e)), None),
    };
    ([open, compact, index, recovering], recovered)
}

#[test]
fn truncation_at_every_offset_recovers_or_fails_typed() {
    for version in [3u32, 4] {
        truncation_matrix(version);
    }
}

fn truncation_matrix(version: u32) {
    let reference = scratch_path(&format!("reference-v{version}"));
    let records = build_reference(&reference, version);
    let bytes = std::fs::read(&reference).unwrap();
    let offsets = frame_offsets(&bytes);
    // Every cut is independent: two workers halve the wall time of the
    // 11 684 cuts of the v3 fixture.
    let cuts: Vec<usize> = (0..=bytes.len()).collect();
    std::thread::scope(|scope| {
        for (i, share) in cuts.chunks(cuts.len().div_ceil(2)).enumerate() {
            let work = scratch_path(&format!("work-v{version}-{i}"));
            let (bytes, offsets, records) = (&bytes, &offsets, &records);
            scope.spawn(move || {
                for &cut in share {
                    check_cut(version, bytes, offsets, records, cut, &work);
                }
                std::fs::remove_file(&work).ok();
            });
        }
    });
    std::fs::remove_file(&reference).ok();
}

/// Runs every reader over the first `cut` bytes of the reference store
/// (`bytes`, frames at `offsets`, holding `records`) at `work`.
fn check_cut(
    version: u32,
    bytes: &[u8],
    offsets: &[u64],
    records: &[WindowRecord],
    cut: usize,
    work: &Path,
) {
    let (verdicts, recovered) = verdicts(&bytes[..cut], work);
    // The oracle: a cut on a frame boundary is clean, a cut inside
    // the header leaves no store, any other cut is torn at the
    // last frame boundary before it.
    let expected = if cut < 12 {
        Verdict::NoHeader
    } else if cut == 12 || cut == bytes.len() || offsets.contains(&(cut as u64)) {
        Verdict::Clean
    } else {
        Verdict::Torn(*offsets.iter().rev().find(|&&o| o < cut as u64).unwrap())
    };
    if cut == 0 {
        // An empty file is no store at all: `open` and recovery
        // create a fresh one there; the other readers refuse it.
        assert_eq!(
            verdicts,
            [
                Verdict::Clean,
                Verdict::NoHeader,
                Verdict::NoHeader,
                Verdict::Clean
            ],
            "cut=0"
        );
    } else {
        assert_eq!(
            verdicts, [expected; 4],
            "v{version} cut={cut}: [open, compact, index, recover]"
        );
    }

    // Recovery must succeed at every truncation offset: the file is
    // a clean prefix plus (possibly) a torn tail, never mid-store
    // corruption.
    let recovered = recovered.unwrap_or_else(|| panic!("cut={cut}: recovery failed: {verdicts:?}"));
    let report = &recovered.report;
    if cut < 12 {
        // Tear inside the header: everything dropped, fresh stamp.
        assert_eq!(report.dropped_bytes, cut as u64, "cut={cut}");
        assert_eq!(report.recovered_len, 12, "cut={cut}");
        assert!(recovered.atlas.is_empty(), "cut={cut}");
    } else {
        // Accounting closes exactly: kept + dropped == cut, and the
        // file on disk now ends at the clean boundary.
        assert_eq!(
            report.recovered_len + report.dropped_bytes,
            cut as u64,
            "cut={cut}"
        );
    }
    assert_eq!(
        std::fs::metadata(work).unwrap().len(),
        report.recovered_len,
        "cut={cut}"
    );
    // No invented data: every recovered record is byte-identical to
    // the reference store's record for that key.
    for rec in recovered.atlas.iter() {
        let original = records.iter().find(|r| r.key == rec.key);
        assert_eq!(original, Some(rec), "cut={cut}: recovered alien record");
    }
    // The truncated file reopens strictly after recovery.
    let reopened = ClassificationAtlas::open(work)
        .unwrap_or_else(|e| panic!("cut={cut}: post-recovery open failed: {e}"));
    assert_eq!(reopened.len(), recovered.atlas.len(), "cut={cut}");
}

#[test]
fn mid_store_corruption_stays_typed_for_both_opens() {
    for version in [3u32, 4] {
        mid_store_corruption(version);
    }
}

fn mid_store_corruption(version: u32) {
    let reference = scratch_path(&format!("corrupt-ref-v{version}"));
    build_reference(&reference, version);
    let bytes = std::fs::read(&reference).unwrap();
    let offsets = frame_offsets(&bytes);
    let last = *offsets.last().unwrap();
    let work = scratch_path(&format!("corrupt-work-v{version}"));
    let all_corrupt_at = |bytes: &[u8], offset: u64, case: &str| {
        let (verdicts, _) = verdicts(bytes, &work);
        assert_eq!(
            verdicts,
            [Verdict::Corrupt(offset); 4],
            "v{version} {case}: [open, compact, index, recover]"
        );
    };

    // A length field over the *version's* frame cap in the first frame:
    // every reader must call it corruption at that offset, not a tear
    // to "recover" from — and name the offending length.
    let huge_len = max_frame_len(version) + 7;
    let mut huge = bytes.clone();
    huge[12..16].copy_from_slice(&huge_len.to_le_bytes());
    all_corrupt_at(&huge, 12, "oversized length");
    std::fs::write(&work, &huge).unwrap();
    for result in [
        ClassificationAtlas::open(&work).map(|_| ()),
        ClassificationAtlas::open_recovering(&work).map(|_| ()),
    ] {
        match result {
            Err(AtlasError::Corrupt { offset: 12, reason }) => {
                assert!(
                    reason.contains(&huge_len.to_string()),
                    "v{version}: diagnosis must name the length: {reason}"
                );
                assert!(
                    reason.contains(&format!("v{version}")),
                    "v{version}: diagnosis must name the cap's version: {reason}"
                );
            }
            other => panic!("v{version}: expected Corrupt at 12, got {other:?}"),
        }
    }

    // An unknown frame tag mid-store (first byte of the first frame's
    // payload): fully present frame, fails decode — typed Corrupt.
    let mut badtag = bytes.clone();
    badtag[16] = 99;
    all_corrupt_at(&badtag, 12, "unknown tag in the first frame");
    // The same in the last frame: the verdict names that frame.
    let mut badtag_last = bytes.clone();
    badtag_last[last as usize + 4] = 99;
    all_corrupt_at(&badtag_last, last, "unknown tag in the last frame");

    // A coverage frame contradicting the stored declaration: each frame
    // decodes, but the store is inconsistent at the appended frame.
    let mut conflicting = bytes.clone();
    let (order, count) = if version == 3 { (6u16, 113u64) } else { (5, 5) };
    conflicting.extend_from_slice(&11u32.to_le_bytes());
    conflicting.push(2);
    conflicting.extend_from_slice(&order.to_le_bytes());
    conflicting.extend_from_slice(&count.to_le_bytes());
    all_corrupt_at(&conflicting, bytes.len() as u64, "conflicting coverage");

    // A v4 block frame smuggled into a v3 store is corruption, not a
    // decodable frame (the length may even be legal under both caps).
    if version == 4 {
        let mut downgraded = bytes.clone();
        downgraded[8..12].copy_from_slice(&3u32.to_le_bytes());
        all_corrupt_at(&downgraded, 12, "block frame in a v3 header");
        std::fs::write(&work, &downgraded).unwrap();
        match ClassificationAtlas::open(&work) {
            Err(AtlasError::Corrupt { offset: 12, reason }) => {
                assert!(reason.contains("tag 4"), "{reason}");
            }
            other => panic!("expected Corrupt at 12 for a downgraded header, got {other:?}"),
        }
        // A flipped byte inside the block body fails its CRC.
        let mut flipped = bytes.clone();
        flipped[30] ^= 0x40;
        all_corrupt_at(&flipped, 12, "block CRC mismatch");
    }

    std::fs::remove_file(&reference).ok();
    std::fs::remove_file(&work).ok();
}
