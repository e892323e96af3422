//! The atlas frame format, read in exactly one place.
//!
//! A store is a 12-byte header (magic + `u32` version) followed by
//! length-prefixed frames, each a tag byte plus a tag-specific body
//! (see `docs/ATLAS_FORMAT.md`). This module is the only reader of that
//! layout. It checks the header, applies the per-version frame-length
//! cap, gives the torn-tail vs mid-store-corruption verdict, dispatches
//! on the frame tag and decodes v3 row and v4 block records. It has two
//! entry points:
//!
//! * [`FrameWalker`] walks every frame in file order. It backs
//!   `ClassificationAtlas::open`/`open_recovering`, the scan pass of
//!   `compact_store` and `build_index`, so all four give one verdict on
//!   the same bytes: clean, torn at the end of the clean prefix
//!   ([`AtlasError::Torn`], recoverable), or corrupt at a frame offset
//!   ([`AtlasError::Corrupt`]).
//! * [`RecordReader`] reads one record by `(frame offset, ordinal)`
//!   with positioned reads. The decoded block lives in a caller-owned
//!   [`BlockCache`], one per call, so a reader is shareable through
//!   `&self`. It backs `MappedAtlas` and the gather pass of
//!   `compact_store`.
//!
//! The writer's frame encoding sits here too, so the byte layout has
//! one home. Only v4 is written; v3 row frames are decoded, never
//! encoded.

use std::fs::File;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

use bnf_core::{ClosedInterval, LowerBound, StabilityWindow, Threshold, WindowRecord};
use bnf_games::Ratio;
use bnf_stream::PruneCounters;

use crate::codec::{decode_block, encode_block};
use crate::store::{AtlasError, ShardMeta};

/// Leading magic bytes of an atlas file.
pub const ATLAS_MAGIC: [u8; 8] = *b"BNFATLAS";

/// Current format *and semantics* version, the only one this build
/// writes. Bump whenever the byte layout **or the meaning of a stored
/// record** changes (e.g. a classifier fix that alters windows) —
/// version-mismatched files are rejected, never silently reinterpreted.
///
/// Version 2 added the shard-segment metadata frame (tag 3) for
/// multi-process sweeps; record and coverage frames are unchanged.
///
/// Version 3 extends the shard-metadata frame with the orchestrator-run
/// tag ([`ShardMeta::orchestrator_run`]), distinguishing in-process
/// work-stolen ranges (which share one process, hence one peak-RSS
/// value) from standalone `--shard` processes; record and coverage
/// frames are unchanged.
///
/// Version 4 packs records into **columnar block frames** (tag 4, see
/// [`crate::codec`]): prefix-delta keys, zigzag-varint delta columns,
/// presence-bitmap windows, one CRC + record count per block. Coverage
/// and shard-metadata frames are unchanged, and so are the recovery
/// and `--resume` commit semantics — they now apply at block
/// granularity. Every new store is v4. v3 stores are **read-only**:
/// they open, replay, serve and migrate (`atlas_compact`), but an
/// append is refused with [`AtlasError::ReadOnly`].
pub const ATLAS_VERSION: u32 = 4;

/// Oldest format version this build still reads (read-only). Anything
/// older (or newer than [`ATLAS_VERSION`]) is rejected as
/// [`AtlasError::VersionMismatch`] — delete the file to rebuild, or
/// keep it for an old build.
pub const MIN_ATLAS_VERSION: u32 = 3;

/// Hard ceiling on one frame's encoded length in a **v3** store. Real
/// v3 frames are tiny — a record is ~100 bytes, a shard-metadata frame
/// ~170 — so a length field beyond this is mid-store corruption.
/// Without the cap a corrupted length field could swallow the rest of
/// the file and masquerade as a torn tail, silently "recovering" away
/// good frames.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Hard ceiling on one frame's encoded length in a **v4** store. A
/// full 4096-record columnar block tops out well under 1 MiB today,
/// but the cap leaves headroom for the window-heavy record shapes the
/// follow-up models add without another version bump; a length field
/// beyond it is still mid-store corruption, never a tear.
pub const MAX_BLOCK_FRAME_LEN: u32 = 1 << 26;

/// The frame-length corruption bound for a store of `version` —
/// [`MAX_FRAME_LEN`] for v3 row frames, [`MAX_BLOCK_FRAME_LEN`] for v4
/// block frames. Version-aware so a legitimate multi-megabyte block is
/// never misdiagnosed as mid-store corruption.
pub fn max_frame_len(version: u32) -> u32 {
    if version >= 4 {
        MAX_BLOCK_FRAME_LEN
    } else {
        MAX_FRAME_LEN
    }
}

/// Frame tag: the payload is one v3 row-encoded [`WindowRecord`].
const FRAME_RECORD: u8 = 1;
/// Frame tag: the payload declares complete sweep coverage for one
/// order (`u16` order + `u64` topology count).
const FRAME_COVERAGE: u8 = 2;
/// Frame tag: the payload is one encoded [`ShardMeta`].
const FRAME_SHARD_META: u8 = 3;
/// Frame tag (v4 stores only): the payload is one columnar block of up
/// to [`crate::codec::BLOCK_RECORDS`] records (see [`crate::codec`]).
const FRAME_RECORD_BLOCK: u8 = 4;

/// Byte length of the store header.
pub(crate) const HEADER_LEN: u64 = 12;

/// One decoded frame.
#[derive(Debug)]
pub(crate) enum Frame {
    /// The records of a v3 row frame (exactly one) or of a v4 block, in
    /// frame order — a record's index here is its ordinal.
    Records(Vec<WindowRecord>),
    /// Complete coverage of `order` with `count` topologies.
    Coverage {
        /// The covered order.
        order: u16,
        /// Its topology count.
        count: u64,
    },
    /// One committed range's provenance.
    ShardMeta(ShardMeta),
}

/// What the start of a store file holds.
#[derive(Debug)]
pub(crate) enum Opened {
    /// The file is missing or empty: no store yet.
    Absent,
    /// The file ends inside a header that could still have become a
    /// valid one — torn at creation. Carries the diagnosis.
    TornHeader(String),
    /// A valid header; the walker stands at the first frame.
    Store(FrameWalker),
}

/// A sequential walk over a store's frames (see the module docs).
#[derive(Debug)]
pub(crate) struct FrameWalker {
    reader: BufReader<File>,
    version: u32,
    file_len: u64,
    /// One past the last frame returned: the clean prefix so far.
    offset: u64,
    payload: Vec<u8>,
    /// Coverage declarations seen so far, one per order.
    coverage: Vec<(u16, u64)>,
    /// Shard metadata seen so far, one per slot.
    shards: Vec<ShardMeta>,
}

impl FrameWalker {
    /// Opens the store at `path` and checks its header.
    ///
    /// # Errors
    ///
    /// [`AtlasError::BadMagic`] / [`AtlasError::VersionMismatch`] for
    /// foreign or stale files, [`AtlasError::Io`] on filesystem failure.
    pub(crate) fn open(path: &Path) -> Result<Opened, AtlasError> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Opened::Absent),
            Err(e) => return Err(e.into()),
        };
        let file_len = file.metadata()?.len();
        if file_len == 0 {
            return Ok(Opened::Absent);
        }
        let mut reader = BufReader::new(file);
        let mut header = [0u8; HEADER_LEN as usize];
        let got = file_len.min(HEADER_LEN) as usize;
        reader.read_exact(&mut header[..got])?;
        if got < header.len() {
            // A truncated header prefix that could still become a valid
            // one (magic prefix, then a supported little-endian version
            // byte and zero padding): torn at creation.
            let magic_ok = header[..got.min(8)] == ATLAS_MAGIC[..got.min(8)];
            let version_ok = got <= 8
                || ((MIN_ATLAS_VERSION..=ATLAS_VERSION).contains(&u32::from(header[8]))
                    && header[9..got].iter().all(|&b| b == 0));
            if magic_ok && version_ok {
                return Ok(Opened::TornHeader(format!(
                    "file ends {got} bytes into the 12-byte header"
                )));
            }
            return Err(AtlasError::BadMagic);
        }
        let version = parse_header(&header)?;
        Ok(Opened::Store(FrameWalker {
            reader,
            version,
            file_len,
            offset: HEADER_LEN,
            payload: Vec::new(),
            coverage: Vec::new(),
            shards: Vec::new(),
        }))
    }

    /// [`FrameWalker::open`] for readers that need an existing store: a
    /// missing file is an I/O error, an empty file or a torn header is
    /// [`AtlasError::BadMagic`].
    pub(crate) fn open_existing(path: &Path) -> Result<FrameWalker, AtlasError> {
        std::fs::metadata(path)?;
        match Self::open(path)? {
            Opened::Store(walker) => Ok(walker),
            Opened::Absent | Opened::TornHeader(_) => Err(AtlasError::BadMagic),
        }
    }

    /// The store's format version, from its header.
    pub(crate) fn version(&self) -> u32 {
        self.version
    }

    /// The store's length when it was opened; the walk stops there.
    pub(crate) fn file_len(&self) -> u64 {
        self.file_len
    }

    /// One past the last frame returned — after a
    /// [`AtlasError::Torn`], the length to truncate the store to.
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }

    /// Coverage declarations walked so far, one per order.
    pub(crate) fn coverage(&self) -> &[(u16, u64)] {
        &self.coverage
    }

    /// Shard metadata walked so far, one per slot, in file order.
    pub(crate) fn into_shard_metas(self) -> Vec<ShardMeta> {
        self.shards
    }

    /// The next frame with its offset, or `None` at a clean end.
    ///
    /// # Errors
    ///
    /// [`AtlasError::Torn`] when the file ends inside a frame (the
    /// clean prefix ends at [`FrameWalker::offset`]);
    /// [`AtlasError::Corrupt`] for a length field outside the
    /// version's cap or a fully present frame that does not decode or
    /// contradicts an earlier coverage or shard frame;
    /// [`AtlasError::Io`] on read failure.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(u64, Frame)>, AtlasError> {
        let at = self.offset;
        let present = self.file_len - at;
        if present == 0 {
            return Ok(None);
        }
        let torn = |reason: String| AtlasError::Torn { offset: at, reason };
        if present < 4 {
            return Err(torn(format!(
                "file ends {present} bytes into a frame length field"
            )));
        }
        let mut len_buf = [0u8; 4];
        self.reader.read_exact(&mut len_buf)?;
        let len = check_len(u32::from_le_bytes(len_buf), self.version, at)?;
        if u64::from(len) > present - 4 {
            return Err(torn(format!(
                "frame of {len} bytes truncated ({} present)",
                present - 4
            )));
        }
        self.payload.resize(len as usize, 0);
        self.reader.read_exact(&mut self.payload)?;
        let frame = decode(&self.payload, self.version)
            .and_then(|frame| self.check_consistent(&frame).map(|()| frame))
            .map_err(|reason| AtlasError::Corrupt { offset: at, reason })?;
        self.offset += 4 + u64::from(len);
        Ok(Some((at, frame)))
    }

    /// Refuses a coverage or shard frame that contradicts an earlier
    /// one; remembers the first of each.
    fn check_consistent(&mut self, frame: &Frame) -> Result<(), String> {
        match frame {
            Frame::Records(_) => Ok(()),
            &Frame::Coverage { order, count } => {
                match self.coverage.iter().find(|c| c.0 == order) {
                    Some(&(_, stored)) if stored != count => Err(format!(
                        "conflicting coverage counts for order {order}: {stored} vs {count}"
                    )),
                    Some(_) => Ok(()),
                    None => {
                        self.coverage.push((order, count));
                        Ok(())
                    }
                }
            }
            Frame::ShardMeta(meta) => {
                match self.shards.iter().find(|m| m.identity() == meta.identity()) {
                    Some(stored) if !stored.compatible(meta) => Err(format!(
                        "conflicting metadata for shard {}/{} of order {}",
                        meta.shard_index, meta.shard_count, meta.order
                    )),
                    Some(_) => Ok(()),
                    None => {
                        self.shards.push(meta.clone());
                        Ok(())
                    }
                }
            }
        }
    }
}

/// Positioned record reads over one store (see the module docs).
#[derive(Debug)]
pub(crate) struct RecordReader {
    file: File,
    version: u32,
}

/// The last frame a [`RecordReader`] decoded. Owned by the caller, one
/// per call, so consecutive locations in one block decode it once.
#[derive(Debug, Default)]
pub(crate) struct BlockCache {
    offset: Option<u64>,
    records: Vec<WindowRecord>,
    payload: Vec<u8>,
}

impl RecordReader {
    /// Opens the store at `path` and checks its header.
    ///
    /// # Errors
    ///
    /// [`AtlasError::BadMagic`] for a file too short for a header or
    /// without the magic, [`AtlasError::VersionMismatch`] for a stale
    /// version, [`AtlasError::Io`] on filesystem failure.
    pub(crate) fn open(path: &Path) -> Result<RecordReader, AtlasError> {
        let file = File::open(path)?;
        let mut header = [0u8; HEADER_LEN as usize];
        file.read_exact_at(&mut header, 0)
            .map_err(|_| AtlasError::BadMagic)?;
        let version = parse_header(&header)?;
        Ok(RecordReader { file, version })
    }

    /// The store's format version, from its header.
    pub(crate) fn version(&self) -> u32 {
        self.version
    }

    /// The store's current length.
    pub(crate) fn len(&self) -> std::io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// The record at `(offset, ordinal)`: ordinal 0 of a v3 row frame,
    /// or record `ordinal` of a v4 block. The frame is decoded into
    /// `cache` unless it already holds the frame at `offset`.
    ///
    /// # Errors
    ///
    /// [`AtlasError::Corrupt`] at `offset` when the location does not
    /// name a record of a well-formed record frame.
    pub(crate) fn record<'c>(
        &self,
        offset: u64,
        ordinal: u16,
        cache: &'c mut BlockCache,
    ) -> Result<&'c WindowRecord, AtlasError> {
        let corrupt = |reason: String| AtlasError::Corrupt { offset, reason };
        if cache.offset != Some(offset) {
            cache.offset = None;
            let mut len_buf = [0u8; 4];
            self.file
                .read_exact_at(&mut len_buf, offset)
                .map_err(|_| corrupt("store truncated at a record location".into()))?;
            let len = check_len(u32::from_le_bytes(len_buf), self.version, offset)?;
            cache.payload.resize(len as usize, 0);
            self.file
                .read_exact_at(&mut cache.payload, offset + 4)
                .map_err(|_| corrupt(format!("frame of {len} bytes truncated")))?;
            cache.records = match decode(&cache.payload, self.version).map_err(corrupt)? {
                Frame::Records(records) => records,
                _ => {
                    return Err(corrupt(format!(
                        "location points at frame tag {}, not a record",
                        cache.payload[0]
                    )))
                }
            };
            cache.offset = Some(offset);
        }
        let frame_records = cache.records.len();
        cache.records.get(usize::from(ordinal)).ok_or_else(|| {
            corrupt(format!(
                "ordinal {ordinal} past a {frame_records}-record frame"
            ))
        })
    }
}

/// Checks the magic and version of a complete 12-byte header.
fn parse_header(header: &[u8; HEADER_LEN as usize]) -> Result<u32, AtlasError> {
    if header[..8] != ATLAS_MAGIC {
        return Err(AtlasError::BadMagic);
    }
    let found = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if !(MIN_ATLAS_VERSION..=ATLAS_VERSION).contains(&found) {
        return Err(AtlasError::VersionMismatch { found });
    }
    Ok(found)
}

/// A frame-length field outside `1..=max_frame_len(version)` is
/// mid-store corruption at `offset`, never a tear.
fn check_len(len: u32, version: u32, offset: u64) -> Result<u32, AtlasError> {
    let cap = max_frame_len(version);
    if len == 0 || len > cap {
        return Err(AtlasError::Corrupt {
            offset,
            reason: format!("frame length {len} outside 1..={cap} (the v{version} cap)"),
        });
    }
    Ok(len)
}

/// Decodes one frame payload (tag byte + body) of a store of `version`.
/// Block frames (tag 4) are only legal in v4 stores — in a v3 file the
/// tag is corruption, never decoded by a reader the v3 writer predates.
fn decode(payload: &[u8], version: u32) -> Result<Frame, String> {
    let (&tag, body) = payload
        .split_first()
        .ok_or_else(|| "empty frame".to_string())?;
    match tag {
        FRAME_RECORD => Ok(Frame::Records(vec![decode_row(body)?])),
        FRAME_RECORD_BLOCK if version >= 4 => Ok(Frame::Records(decode_block(body)?)),
        FRAME_RECORD_BLOCK => Err("columnar block frame (tag 4) in a v3 store".into()),
        FRAME_COVERAGE => {
            let mut c = Cursor { buf: body, pos: 0 };
            let order = c.u16()?;
            let count = c.u64()?;
            c.finish("coverage frame")?;
            Ok(Frame::Coverage { order, count })
        }
        FRAME_SHARD_META => Ok(Frame::ShardMeta(decode_shard_meta(body)?)),
        t => Err(format!("unknown frame tag {t}")),
    }
}

/// The 12-byte header of a new store: magic + [`ATLAS_VERSION`].
pub(crate) fn header() -> [u8; HEADER_LEN as usize] {
    let mut out = [0u8; HEADER_LEN as usize];
    out[..8].copy_from_slice(&ATLAS_MAGIC);
    out[8..].copy_from_slice(&ATLAS_VERSION.to_le_bytes());
    out
}

/// Writes one frame: the payload's `u32` length, then the payload.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Replaces `payload` with one v4 block frame payload holding
/// `records` (1..=[`crate::codec::BLOCK_RECORDS`] of them).
pub(crate) fn block_payload(records: &[&WindowRecord], payload: &mut Vec<u8>) {
    payload.clear();
    payload.push(FRAME_RECORD_BLOCK);
    encode_block(records, payload);
}

/// The payload of a coverage frame.
pub(crate) fn coverage_payload(order: u16, count: u64) -> Vec<u8> {
    let mut out = vec![FRAME_COVERAGE];
    out.extend_from_slice(&order.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out
}

/// The payload of a shard-metadata frame.
pub(crate) fn shard_meta_payload(meta: &ShardMeta) -> Vec<u8> {
    let mut out = vec![FRAME_SHARD_META];
    out.extend_from_slice(&meta.order.to_le_bytes());
    out.extend_from_slice(&meta.shard_index.to_le_bytes());
    out.extend_from_slice(&meta.shard_count.to_le_bytes());
    for v in [
        meta.frontier_len,
        meta.parent_lo,
        meta.parent_hi,
        meta.emitted,
        meta.elapsed_ms,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for opt in [meta.peak_rss_kb, meta.orchestrator_run] {
        match opt {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    for c in [&meta.frontier_prune, &meta.final_prune] {
        for v in [
            c.candidates,
            c.orbit_skipped,
            c.cheap_rejected,
            c.search_rejected,
            c.duplicates,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// A cursor over one frame body; every getter errors (with a string
/// diagnosis) instead of panicking so corrupt files surface as
/// [`AtlasError::Corrupt`].
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("payload ends {n} bytes short"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn ratio(&mut self) -> Result<Ratio, String> {
        let num = i64::from_le_bytes(self.take(8)?.try_into().expect("8"));
        let den = i64::from_le_bytes(self.take(8)?.try_into().expect("8"));
        if den == 0 {
            return Err("ratio with zero denominator".into());
        }
        Ok(Ratio::new(num, den))
    }

    fn threshold(&mut self) -> Result<Threshold, String> {
        match self.u8()? {
            0 => Ok(Threshold::Finite(self.ratio()?)),
            1 => Ok(Threshold::Infinite),
            t => Err(format!("unknown threshold tag {t}")),
        }
    }

    fn interval(&mut self) -> Result<ClosedInterval, String> {
        Ok(ClosedInterval {
            lo: self.ratio()?,
            hi: self.threshold()?,
        })
    }

    /// An optional `u64`: tag 0 (absent) or tag 1 + value.
    fn opt_u64(&mut self, what: &str) -> Result<Option<u64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(format!("unknown {what} tag {t}")),
        }
    }

    fn counters(&mut self) -> Result<PruneCounters, String> {
        Ok(PruneCounters {
            candidates: self.u64()?,
            orbit_skipped: self.u64()?,
            cheap_rejected: self.u64()?,
            search_rejected: self.u64()?,
            duplicates: self.u64()?,
        })
    }

    /// Errors unless the body was consumed exactly.
    fn finish(&self, what: &str) -> Result<(), String> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            extra => Err(format!("{extra} trailing bytes after {what}")),
        }
    }
}

/// Decodes one v3 row record body (after the tag byte).
fn decode_row(body: &[u8]) -> Result<WindowRecord, String> {
    let mut c = Cursor { buf: body, pos: 0 };
    let key_len = c.u16()? as usize;
    let key = std::str::from_utf8(c.take(key_len)?)
        .map_err(|_| "key is not UTF-8".to_string())?
        .to_string();
    let order = u32::from(c.u16()?);
    let edges = u64::from(c.u32()?);
    let total_distance = c.u64()?;
    let stability = match c.u8()? {
        0 => None,
        1 => {
            let value = c.ratio()?;
            let inclusive = match c.u8()? {
                0 => false,
                1 => true,
                t => return Err(format!("unknown inclusivity tag {t}")),
            };
            let upper = c.threshold()?;
            Some(StabilityWindow {
                lower: LowerBound { value, inclusive },
                upper,
            })
        }
        t => return Err(format!("unknown stability tag {t}")),
    };
    let transfer = match c.u8()? {
        0 => None,
        1 => Some(c.interval()?),
        t => return Err(format!("unknown transfer tag {t}")),
    };
    let n_support = c.u16()? as usize;
    let mut ucg_support = Vec::with_capacity(n_support);
    for _ in 0..n_support {
        ucg_support.push(c.interval()?);
    }
    c.finish("record")?;
    Ok(WindowRecord {
        key,
        order,
        edges,
        total_distance,
        stability,
        transfer,
        ucg_support,
    })
}

/// Decodes one shard-metadata body (after the tag byte).
fn decode_shard_meta(body: &[u8]) -> Result<ShardMeta, String> {
    let mut c = Cursor { buf: body, pos: 0 };
    let order = c.u16()?;
    let shard_index = c.u32()?;
    let shard_count = c.u32()?;
    if shard_count == 0 || shard_index >= shard_count {
        return Err(format!(
            "shard index {shard_index} out of range 0..{shard_count}"
        ));
    }
    let meta = ShardMeta {
        order,
        shard_index,
        shard_count,
        frontier_len: c.u64()?,
        parent_lo: c.u64()?,
        parent_hi: c.u64()?,
        emitted: c.u64()?,
        elapsed_ms: c.u64()?,
        peak_rss_kb: c.opt_u64("peak-RSS")?,
        orchestrator_run: c.opt_u64("orchestrator-run")?,
        frontier_prune: c.counters()?,
        final_prune: c.counters()?,
    };
    c.finish("shard metadata")?;
    Ok(meta)
}
