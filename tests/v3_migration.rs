//! The v3 → v4 migration, against a store the last v3-writing build
//! produced (`crates/atlas/tests/fixtures/v3-n6.bnfatlas`: the n = 6
//! catalogue as 112 row frames, plus shard-metadata and coverage
//! frames). This build only reads v3; these checks keep old stores
//! migrating, serving and refusing appends.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use bilateral_formation::atlas::{
    build_index, compact_store, index_path, AtlasError, ClassificationAtlas, MappedAtlas,
    ATLAS_VERSION,
};
use bilateral_formation::core::WindowRecord;
use bilateral_formation::empirics::WindowSweep;

const V3_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/atlas/tests/fixtures/v3-n6.bnfatlas"
);

fn scratch_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bnf-v3-migration-{tag}-{}-{id}.bnfatlas",
        std::process::id()
    ))
}

fn fixture_copy(tag: &str) -> PathBuf {
    let path = scratch_path(tag);
    std::fs::copy(V3_FIXTURE, &path).unwrap();
    path
}

fn remove(store: &Path) {
    let _ = std::fs::remove_file(store);
    let _ = std::fs::remove_file(index_path(store));
}

#[test]
fn compacted_fixture_replays_like_a_fresh_v4_sweep() {
    let src = fixture_copy("src");
    let dst = scratch_path("dst");
    let summary = compact_store(&src, &dst, ATLAS_VERSION).unwrap();
    assert_eq!(summary.records, 112);
    let shrink = summary.shrink_ratio().unwrap();
    assert!(
        shrink >= 2.5,
        "compaction shrank the store only {shrink:.2}x"
    );

    let fresh_path = scratch_path("fresh");
    let sweep = WindowSweep::run(6, 2, None);
    let mut fresh = ClassificationAtlas::open(&fresh_path).unwrap();
    fresh.append_records(&sweep.records).unwrap();
    fresh.mark_complete(6, sweep.records.len()).unwrap();

    let compacted = ClassificationAtlas::open(&dst).unwrap();
    assert_eq!(compacted.version(), ATLAS_VERSION);
    assert_eq!(compacted.complete_sweep(6), fresh.complete_sweep(6));
    assert_eq!(compacted.complete_sweep(6).unwrap(), sweep.records);
    for p in [&src, &dst, &fresh_path] {
        remove(p);
    }
}

#[test]
fn indexed_fixture_serves_the_replayed_records() {
    let store = fixture_copy("mapped");
    let replay = ClassificationAtlas::open(&store).unwrap();
    build_index(&store).unwrap();
    let mapped = MappedAtlas::open(&store).unwrap();
    assert_eq!(mapped.version(), 3);
    assert_eq!(mapped.len(), replay.len() as u64);
    for rec in replay.iter() {
        assert_eq!(mapped.lookup(&rec.key).unwrap().as_ref(), Some(rec));
    }
    let expected = replay.complete_sweep(6).unwrap();
    let mut streamed: Vec<WindowRecord> = Vec::new();
    mapped.stream_sweep(6, |r| streamed.push(r)).unwrap();
    assert_eq!(streamed, expected);
    for (i, want) in expected.iter().enumerate() {
        assert_eq!(mapped.record_at(6, i as u64).unwrap().as_ref(), Some(want));
    }
    remove(&store);
}

#[test]
fn appending_to_the_fixture_is_a_typed_read_only_error() {
    let store = fixture_copy("append");
    let before = std::fs::read(&store).unwrap();
    let mut atlas = ClassificationAtlas::open(&store).unwrap();
    let n5 = WindowSweep::run(5, 1, None);
    match atlas.append_records(&n5.records) {
        Err(AtlasError::ReadOnly { found: 3 }) => {}
        other => panic!("expected ReadOnly for v3, got {other:?}"),
    }
    assert_eq!(std::fs::read(&store).unwrap(), before);
    remove(&store);
}
