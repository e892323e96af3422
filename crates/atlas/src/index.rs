//! The index sidecar: a sorted key table (and per-order engine-order
//! tables) over an atlas store, built once after coverage is declared.
//!
//! The store itself is append-only frames with no random-access
//! structure — [`crate::ClassificationAtlas::open`] replays it front to
//! back into a `HashMap`, which costs ~6.5 GB resident at n = 10.
//! [`build_index`] walks the store *once* through the one frame reader
//! (the private `frame` module, so it gives the same clean / torn /
//! corrupt verdict as every other reader), with at most one decoded
//! frame resident, and writes a `<store>.idx` sidecar holding
//!
//! * a **sorted key table** mapping canonical graph6 key → record
//!   location, so [`crate::MappedAtlas::lookup`] is a binary search of
//!   O(log N) `pread`s instead of a full replay, and
//! * one **engine-order table** per coverage-declared order — record
//!   locations sorted by `(edge count, canonical key)`, the engine's
//!   enumeration order — so warm sweeps stream the catalogue in the
//!   exact order [`crate::ClassificationAtlas::complete_sweep`]
//!   produces, one frame resident at a time.
//!
//! A record **location** is a `(frame offset, intra-frame ordinal)`
//! pair: in a v3 store every record owns its frame and the ordinal is
//! always 0; in a v4 store the offset names a columnar block frame
//! (see [`crate::codec`]) and the ordinal selects the record within
//! the decoded block.
//!
//! The sidecar is a pure cache: it never changes the store, and it
//! self-invalidates (header records the store length it indexed; see
//! [`IndexError::Stale`]) when the store grows after indexing. See
//! `docs/ATLAS_FORMAT.md` for the byte-level layout and the full
//! invalidation rules.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use bnf_core::WindowRecord;
use bnf_graph::Graph;

use crate::frame::{Frame, FrameWalker, ATLAS_VERSION, MIN_ATLAS_VERSION};
use crate::store::AtlasError;

/// Leading magic bytes of an index sidecar file.
pub const INDEX_MAGIC: [u8; 8] = *b"BNFATIDX";

/// Sidecar layout version. Bumped whenever the sidecar byte layout
/// changes; version-mismatched sidecars are rejected (rebuild with
/// [`build_index`]), never reinterpreted.
///
/// Version 2 widens every record reference from a bare frame offset to
/// a `(frame offset, intra-frame ordinal)` pair so one sidecar layout
/// addresses both v3 row stores (ordinal always 0) and v4 columnar
/// block stores.
pub const INDEX_VERSION: u32 = 2;

/// Byte length of the fixed sidecar header (see `docs/ATLAS_FORMAT.md`).
pub const INDEX_HEADER_LEN: u64 = 36;

/// Why an index sidecar could not be built, opened or read.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The sidecar does not start with [`INDEX_MAGIC`] — not an index.
    BadMagic,
    /// The sidecar's layout version differs from [`INDEX_VERSION`];
    /// rebuild it with [`build_index`].
    VersionMismatch {
        /// Version found in the sidecar header.
        found: u32,
    },
    /// The sidecar was built over a store version this build does not
    /// support, or over a different version than the store beside it.
    AtlasVersionMismatch {
        /// Store version recorded in the sidecar header.
        found: u32,
    },
    /// The store grew (or shrank) since the sidecar was built — the
    /// offsets can no longer be trusted; rebuild with [`build_index`].
    Stale {
        /// Store length recorded at index time.
        indexed: u64,
        /// Store length found now.
        actual: u64,
    },
    /// Structurally invalid sidecar or store bytes at `offset`
    /// (truncation counts — a half-written sidecar means the indexing
    /// run died before its atomic rename, which [`build_index`]
    /// prevents, so this indicates external tampering).
    Corrupt {
        /// Byte offset of the offending data, in the file named by
        /// `reason`.
        offset: u64,
        /// Human-readable diagnosis.
        reason: String,
    },
    /// The store ends inside the frame at `offset` — the same verdict
    /// as [`crate::AtlasError::Torn`]: recover the store first
    /// ([`crate::ClassificationAtlas::open_recovering`]), then index.
    Torn {
        /// Byte offset of the torn frame: the clean prefix length.
        offset: u64,
        /// Human-readable diagnosis.
        reason: String,
    },
    /// The underlying store is not an atlas, or failed in a way that
    /// has no variant of its own here ([`crate::AtlasError`] rendered
    /// to text to keep this enum flat).
    Store {
        /// Human-readable store-level diagnosis.
        reason: String,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "index I/O error: {e}"),
            IndexError::BadMagic => write!(f, "not an atlas index file (bad magic)"),
            IndexError::VersionMismatch { found } => write!(
                f,
                "index version {found} != supported {INDEX_VERSION}; rebuild the sidecar"
            ),
            IndexError::AtlasVersionMismatch { found } => write!(
                f,
                "index built over atlas version {found}, outside supported \
                 {MIN_ATLAS_VERSION}..={ATLAS_VERSION} or unlike the store; rebuild the sidecar"
            ),
            IndexError::Stale { indexed, actual } => write!(
                f,
                "index is stale: store was {indexed} bytes at index time, {actual} now; rebuild the sidecar"
            ),
            IndexError::Corrupt { offset, reason } => {
                write!(f, "corrupt index data at byte {offset}: {reason}")
            }
            IndexError::Torn { offset, reason } => {
                write!(f, "torn atlas tail at byte {offset}: {reason}")
            }
            IndexError::Store { reason } => write!(f, "index build failed on store: {reason}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IndexError {
    fn from(e: std::io::Error) -> Self {
        IndexError::Io(e)
    }
}

/// A store-side failure seen through the index: the frame reader's
/// verdicts keep their offsets and their torn/corrupt distinction.
impl From<AtlasError> for IndexError {
    fn from(e: AtlasError) -> Self {
        match e {
            AtlasError::Io(e) => IndexError::Io(e),
            AtlasError::VersionMismatch { found } => IndexError::AtlasVersionMismatch { found },
            AtlasError::Corrupt { offset, reason } => IndexError::Corrupt { offset, reason },
            AtlasError::Torn { offset, reason } => IndexError::Torn { offset, reason },
            other => IndexError::Store {
                reason: other.to_string(),
            },
        }
    }
}

/// The sidecar path for a store path: `<store>.idx` appended to the
/// full file name (`n9.bnfatlas` → `n9.bnfatlas.idx`).
pub fn index_path(store: &Path) -> PathBuf {
    let mut name = store.as_os_str().to_owned();
    name.push(".idx");
    PathBuf::from(name)
}

/// What [`build_index`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSummary {
    /// Sidecar path written.
    pub path: PathBuf,
    /// Record keys indexed.
    pub records: u64,
    /// Engine-order tables written: `(order, record count)` per
    /// coverage-declared order whose stored population matches the
    /// declared count.
    pub sweeps: Vec<(u16, u64)>,
    /// Total sidecar size in bytes.
    pub index_bytes: u64,
    /// Fixed key-column width (longest key, bytes).
    pub key_width: u16,
}

/// One record seen by the store scan: where its frame starts, its
/// ordinal within the frame (0 for v3 row frames), and the engine sort
/// ingredients, with the key held in a shared arena so the n = 10
/// build stays hundreds of MB, not records × `String` overhead.
struct ScanEntry {
    key_pos: u32,
    key_len: u8,
    order: u16,
    offset: u64,
    ordinal: u16,
    edges: u64,
    sort_word: u64,
}

/// Builds (or rebuilds) the `<store>.idx` sidecar for the atlas at
/// `store`, scanning the store once without materializing records, and
/// returns what was written. The sidecar is written to a temporary
/// file and atomically renamed into place, so a crashed build never
/// leaves a half-written index behind.
///
/// Engine-order tables are emitted only for orders whose declared
/// coverage count matches the stored record population (the same
/// defensive rule [`crate::ClassificationAtlas::complete_sweep`]
/// applies before replaying).
///
/// # Errors
///
/// [`IndexError::Corrupt`] / [`IndexError::Store`] for malformed
/// stores, [`IndexError::Io`] on filesystem failure.
pub fn build_index(store: impl AsRef<Path>) -> Result<IndexSummary, IndexError> {
    let store = store.as_ref();
    bnf_obs::Recorder::global().time("index_build", || build_index_inner(store))
}

/// One engine-order table under construction: order, declared coverage
/// count, and the `(frame offset, intra-frame ordinal)` locations in
/// replay order.
type SweepAccum = (u16, u64, Vec<(u64, u16)>);

fn build_index_inner(store: &Path) -> Result<IndexSummary, IndexError> {
    let mut walker = FrameWalker::open_existing(store)?;
    let found = walker.version();
    let store_len = walker.file_len();
    let mut arena: Vec<u8> = Vec::new();
    let mut entries: Vec<ScanEntry> = Vec::new();
    while let Some((offset, frame)) = walker.next_frame()? {
        // One frame's records are resident transiently; only the scan
        // ingredients survive.
        let Frame::Records(records) = frame else {
            continue; // coverage is read off the walker; provenance is not indexed
        };
        for (ordinal, rec) in records.iter().enumerate() {
            let entry = scan_entry(rec, offset, ordinal as u16, &mut arena)
                .map_err(|reason| IndexError::Corrupt { offset, reason })?;
            entries.push(entry);
        }
    }

    // The store enforces key uniqueness on append, so duplicates can
    // only come from identical-record dedup races; keep the last
    // occurrence, matching the HashMap-insert semantics of open().
    entries.sort_by(|a, b| {
        key_of(&arena, a)
            .cmp(key_of(&arena, b))
            .then((a.offset, a.ordinal).cmp(&(b.offset, b.ordinal)))
    });
    entries.dedup_by(|next, prev| {
        // dedup_by sees (next, prev) and drops `next` on true; the pair
        // is ordered by location, so copy the later location into the
        // surviving slot before dropping it.
        if key_of(&arena, next) == key_of(&arena, prev) {
            prev.offset = next.offset;
            prev.ordinal = next.ordinal;
            true
        } else {
            false
        }
    });

    let mut coverage = walker.coverage().to_vec();
    coverage.sort_unstable();
    let mut sweeps: Vec<SweepAccum> = Vec::new();
    for &(order, declared) in &coverage {
        let mut tagged: Vec<(u64, u64, u64, u16)> = entries
            .iter()
            .filter(|e| e.order == order)
            .map(|e| (e.edges, e.sort_word, e.offset, e.ordinal))
            .collect();
        if tagged.len() as u64 != declared {
            continue; // population mismatch: same defensive skip as complete_sweep
        }
        tagged.sort_unstable();
        sweeps.push((
            order,
            declared,
            tagged.into_iter().map(|t| (t.2, t.3)).collect(),
        ));
    }

    let key_width = entries
        .iter()
        .map(|e| u16::from(e.key_len))
        .max()
        .unwrap_or(0);
    let entry_size = 11 + key_width as usize;

    let out_path = index_path(store);
    let tmp_path = {
        let mut name = out_path.as_os_str().to_owned();
        name.push(".tmp");
        PathBuf::from(name)
    };
    let mut w = BufWriter::new(File::create(&tmp_path)?);
    w.write_all(&INDEX_MAGIC)?;
    w.write_all(&INDEX_VERSION.to_le_bytes())?;
    w.write_all(&found.to_le_bytes())?;
    w.write_all(&store_len.to_le_bytes())?;
    w.write_all(&(entries.len() as u64).to_le_bytes())?;
    w.write_all(&key_width.to_le_bytes())?;
    w.write_all(&(sweeps.len() as u16).to_le_bytes())?;
    let mut padded = vec![0u8; key_width as usize];
    for e in &entries {
        w.write_all(&[e.key_len])?;
        let key = key_of(&arena, e);
        padded[..key.len()].copy_from_slice(key);
        padded[key.len()..].fill(0);
        w.write_all(&padded)?;
        w.write_all(&e.offset.to_le_bytes())?;
        w.write_all(&e.ordinal.to_le_bytes())?;
    }
    for (order, count, locations) in &sweeps {
        w.write_all(&order.to_le_bytes())?;
        w.write_all(&count.to_le_bytes())?;
        for (off, ordinal) in locations {
            w.write_all(&off.to_le_bytes())?;
            w.write_all(&ordinal.to_le_bytes())?;
        }
    }
    w.flush()?;
    drop(w);
    std::fs::rename(&tmp_path, &out_path)?;

    let index_bytes = INDEX_HEADER_LEN
        + entries.len() as u64 * entry_size as u64
        + sweeps
            .iter()
            .map(|(_, count, _)| 10 + count * 10)
            .sum::<u64>();
    let recorder = bnf_obs::Recorder::global();
    recorder.add("index_entries", entries.len() as u64);
    recorder.add("index_bytes", index_bytes);
    Ok(IndexSummary {
        path: out_path,
        records: entries.len() as u64,
        sweeps: sweeps.into_iter().map(|(o, c, _)| (o, c)).collect(),
        index_bytes,
        key_width,
    })
}

fn key_of<'a>(arena: &'a [u8], e: &ScanEntry) -> &'a [u8] {
    &arena[e.key_pos as usize..e.key_pos as usize + e.key_len as usize]
}

/// The engine replay sort key of a record: `(order, edges, sort
/// word)`, the word recovered from the canonical key via
/// [`Graph::packed_self_key`] — the order [`build_index`]'s sweep
/// tables and `compact_store` put records in.
pub(crate) fn engine_sort_key(rec: &WindowRecord) -> Result<(u16, u64, u64), String> {
    let order = u16::try_from(rec.order).map_err(|_| format!("order {} exceeds u16", rec.order))?;
    let g = Graph::from_graph6(&rec.key)
        .map_err(|e| format!("undecodable key {:?}: {e:?}", rec.key))?;
    Ok((order, rec.edges, g.packed_self_key().prefix_word()))
}

/// The index ingredients of one record at `(offset, ordinal)`, its key
/// copied into the shared arena.
fn scan_entry(
    rec: &WindowRecord,
    offset: u64,
    ordinal: u16,
    arena: &mut Vec<u8>,
) -> Result<ScanEntry, String> {
    let key = rec.key.as_bytes();
    let key_len = u8::try_from(key.len())
        .map_err(|_| format!("key of {} bytes exceeds the index limit", key.len()))?;
    let (order, edges, sort_word) = engine_sort_key(rec)?;
    let key_pos = arena.len() as u32;
    arena.extend_from_slice(key);
    Ok(ScanEntry {
        key_pos,
        key_len,
        order,
        offset,
        ordinal,
        edges,
        sort_word,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ClassificationAtlas;
    use bnf_core::WindowRecord;
    use bnf_graph::Graph;

    fn scratch_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bnf-index-{tag}-{}-{n}.bnfatlas",
            std::process::id()
        ))
    }

    fn classified(g6: &str) -> WindowRecord {
        let g = Graph::from_graph6(g6).unwrap();
        let mut scratch = bnf_graph::BfsScratch::new();
        WindowRecord::classify(&g, &mut scratch)
    }

    #[test]
    fn builds_over_an_empty_store() {
        let path = scratch_path("empty");
        let _ = ClassificationAtlas::open(&path).unwrap();
        let summary = build_index(&path).unwrap();
        assert_eq!(summary.records, 0);
        assert_eq!(summary.key_width, 0);
        assert!(summary.sweeps.is_empty());
        assert!(summary.path.exists());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&summary.path).unwrap();
    }

    #[test]
    fn skips_sweep_table_on_population_mismatch() {
        let path = scratch_path("mismatch");
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records([&classified("D?{")]).unwrap();
            // Declare 2 records for order 5 while storing only 1.
            atlas.mark_complete(5, 2).unwrap();
        }
        let summary = build_index(&path).unwrap();
        assert_eq!(summary.records, 1);
        assert!(summary.sweeps.is_empty());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&summary.path).unwrap();
    }

    #[test]
    fn torn_tail_is_refused_at_the_clean_prefix() {
        let path = scratch_path("torn");
        {
            let mut atlas = ClassificationAtlas::open(&path).unwrap();
            atlas.append_records([&classified("D?{")]).unwrap();
        }
        let clean = std::fs::metadata(&path).unwrap().len();
        // Two bytes of a next frame's length field: a torn tail, not a
        // clean end (the store must not be indexed as complete).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[1, 2]);
        std::fs::write(&path, &bytes).unwrap();
        match build_index(&path) {
            Err(IndexError::Torn { offset, .. }) => assert_eq!(offset, clean),
            other => panic!("expected Torn at {clean}, got {other:?}"),
        }
        assert!(!index_path(&path).exists(), "no sidecar over a torn store");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_length_over_the_cap_is_corrupt() {
        let path = scratch_path("hugelen");
        let _ = ClassificationAtlas::open(&path).unwrap();
        let cap = crate::MAX_BLOCK_FRAME_LEN;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&(cap + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        match build_index(&path) {
            Err(IndexError::Corrupt { offset: 12, reason }) => {
                assert!(reason.contains(&cap.to_string()), "cap not named: {reason}");
                assert!(reason.contains(&(cap + 1).to_string()), "{reason}");
            }
            other => panic!("expected Corrupt at 12, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_non_atlas_files() {
        let path = scratch_path("garbage");
        std::fs::write(&path, b"not an atlas at all").unwrap();
        match build_index(&path) {
            Err(IndexError::Store { .. }) => {}
            other => panic!("expected Store error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
