//! Mixed-version segment merges: `merge_segments` must fold v3 row
//! segments and v4 columnar segments — in the same call — with exactly
//! the semantics of an all-v3 fold: identical duplicates dedup,
//! divergence stays a typed [`AtlasError::KeyConflict`], coverage
//! promotes the same way. The fleet this matters for is mid-migration:
//! old builds left v3 segments behind while new shards are v4. The v3
//! side is a checked-in fixture, since this build writes only v4.

use bnf_atlas::{merge_segments, AtlasError, ClassificationAtlas};
use bnf_core::WindowRecord;
use std::path::PathBuf;

fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bnf-mixed-merge-{}-{k}-{tag}.bnfatlas",
        std::process::id()
    ))
}

/// A v3 row store from the last v3-writing build: the n = 6 catalogue
/// with its shard-metadata and coverage frames.
const V3_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v3-n6.bnfatlas");

/// A scratch copy of the v3 fixture.
fn v3_segment(tag: &str) -> PathBuf {
    let path = scratch_path(tag);
    std::fs::copy(V3_FIXTURE, &path).unwrap();
    path
}

/// Writes `records` to a fresh (v4) segment store.
fn v4_segment(tag: &str, records: &[WindowRecord]) -> PathBuf {
    let path = scratch_path(tag);
    let mut seg = ClassificationAtlas::open(&path).unwrap();
    seg.append_records(records).unwrap();
    path
}

/// The fixture's records, sorted by key.
fn fixture_records() -> Vec<WindowRecord> {
    let path = v3_segment("records");
    let mut records: Vec<WindowRecord> = ClassificationAtlas::open(&path)
        .unwrap()
        .iter()
        .cloned()
        .collect();
    std::fs::remove_file(path).ok();
    records.sort_by(|a, b| a.key.cmp(&b.key));
    records
}

#[test]
fn mixed_version_segments_fold_like_an_all_v3_merge() {
    let all = fixture_records();
    assert_eq!(all.len(), 112);
    // The v4 segment holds half the catalogue, so half of it crosses
    // the version boundary as identical duplicates.
    let half = &all[..56];

    let mut folds = Vec::new();
    for (tag, v4_first, expect_dups) in [
        ("ref", None, 112),
        ("mix", Some(false), 56),
        ("xim", Some(true), 56),
    ] {
        let seg_a = v3_segment(&format!("{tag}-a"));
        let seg_b = match v4_first {
            None => v3_segment(&format!("{tag}-b")),
            Some(_) => v4_segment(&format!("{tag}-b"), half),
        };
        let segs = if v4_first == Some(true) {
            [&seg_b, &seg_a]
        } else {
            [&seg_a, &seg_b]
        };
        let out_path = scratch_path(&format!("{tag}-out"));
        let mut out = ClassificationAtlas::open(&out_path).unwrap();
        let report = merge_segments(&mut out, &segs).unwrap();
        assert_eq!(report.segments, 2, "{tag}");
        assert_eq!(report.appended, all.len(), "{tag}");
        assert_eq!(report.duplicates, expect_dups, "{tag}");
        assert_eq!(out.coverage(6), Some(112), "{tag}");
        let mut records: Vec<WindowRecord> = out.iter().cloned().collect();
        records.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(records, all, "{tag}");
        folds.push((records, out.shard_metas().to_vec()));
        for p in [seg_a, seg_b, out_path] {
            std::fs::remove_file(p).ok();
        }
    }
    assert_eq!(folds[0], folds[1], "v3+v4 fold diverged from all-v3");
    assert_eq!(folds[0], folds[2], "v4+v3 fold diverged from all-v3");
}

#[test]
fn divergence_across_the_version_boundary_stays_a_typed_conflict() {
    let all = fixture_records();
    let seg_v3 = v3_segment("conflict-v3");
    // Same key, different classification — a real conflict, not a dup.
    let mut divergent = all[7].clone();
    divergent.total_distance += 1;
    let seg_v4 = v4_segment("conflict-v4", std::slice::from_ref(&divergent));
    let out_path = scratch_path("conflict-out");
    let mut out = ClassificationAtlas::open(&out_path).unwrap();

    let err = merge_segments(&mut out, &[&seg_v3, &seg_v4]).unwrap_err();
    assert_eq!(err.path, seg_v4, "conflict must name the offending segment");
    match err.error {
        AtlasError::KeyConflict { ref key } => assert_eq!(key, &all[7].key),
        ref other => panic!("expected KeyConflict, got {other:?}"),
    }
    // Frames appended before the conflict survive in the output store.
    assert_eq!(out.get(&all[0].key), Some(&all[0]));

    // A v3 store is read-only, so it cannot be a merge output.
    let fresh = WindowRecord {
        key: "D?{".into(),
        order: 5,
        edges: 4,
        total_distance: 36,
        stability: None,
        transfer: None,
        ucg_support: Vec::new(),
    };
    let seg_fresh = v4_segment("conflict-fresh", &[fresh]);
    let mut v3_out = ClassificationAtlas::open(&seg_v3).unwrap();
    let err = merge_segments(&mut v3_out, &[&seg_fresh]).unwrap_err();
    assert!(
        matches!(err.error, AtlasError::ReadOnly { found: 3 }),
        "{err}"
    );

    for p in [seg_v3, seg_v4, seg_fresh, out_path] {
        std::fs::remove_file(p).ok();
    }
}
