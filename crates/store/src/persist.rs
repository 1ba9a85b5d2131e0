//! Binary persistence of frozen CSR covers and durable checkpoints.
//!
//! Every file starts with the same 12-byte prefix (little-endian):
//!
//! ```text
//! magic   4 bytes  "HOPI"
//! version u32      3 (2 and 1 accepted on load)
//! flags   u32      bit 0: DIST column present; bit 1: frozen CSR layout;
//!                  bit 2: checkpoint (see [`save_checkpoint`])
//! ```
//!
//! Index files (written by [`save_frozen`], flags bit 1 set) continue
//! with one length-prefixed CSR blob of a frozen cover:
//!
//! ```text
//! n        u64     node slots
//! data_len u64     label entries (|Lin| + |Lout|)
//! lin_off  u32 × (n + 1)   absolute offsets into data (lin_off[0] = 0)
//! lout_off u32 × (n + 1)   absolute offsets (lout_off[n] = data_len)
//! data     u32 × data_len  label centers, rows sorted
//! dist     u32 × data_len  only when flags bit 0 (DIST) is set
//! ```
//!
//! Row files (flags bit 1 clear) are read only: earlier releases wrote
//! the paper's LIN/LOUT tables (§3.4) from `Hopi::save`, and
//! [`load_index`] still decodes them, straight into a [`FrozenCover`]:
//!
//! ```text
//! lin_len  u64     row count of LIN
//! lout_len u64     row count of LOUT
//! rows             (id: u32, center: u32 [, dist: u32]) × (lin_len + lout_len),
//!                  each table sorted by (id, center)
//! ```
//!
//! The inverted holder rows — the paper's backward indexes — are derived
//! data and are rebuilt on load by counting, which keeps the file at half
//! the in-memory footprint (mirroring the paper's observation that the
//! backward index doubles the stored size). Loading a frozen blob never
//! sorts: rows are stored sorted, so [`load_frozen`] is ready to serve
//! straight away.

use crate::vfs::{StdVfs, Vfs};
use hopi_core::FrozenCover;
use std::path::Path;

/// Little-endian read cursor over a byte buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn copy_to_slice(&mut self, out: &mut [u8]) {
        out.copy_from_slice(&self.buf[self.pos..self.pos + out.len()]);
        self.pos += out.len();
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

const MAGIC: &[u8; 4] = b"HOPI";
const VERSION: u32 = 3;
/// The on-disk format version currently written (`hopi_build_info`'s
/// `store_format` label at `/metrics` reports this).
pub const STORE_FORMAT_VERSION: u32 = VERSION;
/// The last version whose checkpoint collection blobs carry no element
/// text section (still loadable; text decodes as empty).
const VERSION_NO_TEXT: u32 = 2;
/// The last version writing the row layout only (still loadable).
const VERSION_ROWS_ONLY: u32 = 1;
/// Flags bit 0: DIST column present.
const FLAG_DIST: u32 = 1;
/// Flags bit 1: the payload is a frozen CSR blob, not rows.
const FLAG_FROZEN: u32 = 2;
/// Flags bit 2: the file is a checkpoint (collection + frozen cover +
/// WAL sequence number; see [`save_checkpoint`]).
const FLAG_CHECKPOINT: u32 = 4;

/// Writes `bytes` to `path` crash-atomically: the bytes go to a temporary
/// file in the same directory, are fsynced, renamed over the target, and
/// the directory is fsynced — at every instant `path` holds either the
/// old complete file or the new complete file, never a torn mix.
pub fn atomic_write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write_file_in(&StdVfs, path, bytes)
}

/// [`atomic_write_file`] through an explicit VFS backend — the variant
/// the durable layer uses so fault injection covers every step (temp
/// write, fsync, rename, directory fsync).
pub fn atomic_write_file_in(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    // Unique per call, not just per process: two threads writing the same
    // target concurrently must not truncate each other's temp file.
    static WRITE_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("hopi-file");
    let tmp_name = format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        WRITE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let install = || -> std::io::Result<()> {
        let mut file = vfs.create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        vfs.rename(&tmp, path)
    };
    if let Err(e) = install() {
        // Leave nothing behind on failure (e.g. ENOSPC mid-write).
        vfs.remove_file(&tmp).ok();
        return Err(e);
    }
    sync_parent_dir_in(vfs, path)
}

/// Fsyncs the directory containing `path`, making a just-completed rename
/// or create durable. A no-op error-swallow is deliberate on platforms
/// where directories cannot be opened for sync.
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    sync_parent_dir_in(&StdVfs, path)
}

/// [`sync_parent_dir`] through an explicit VFS backend.
pub fn sync_parent_dir_in(vfs: &dyn Vfs, path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    vfs.sync_dir(dir)
}

/// Errors raised by save/load.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a HOPI store file, or truncated.
    Format(String),
    /// Unsupported version.
    Version(u32),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Format(m) => write!(f, "format error: {m}"),
            PersistError::Version(v) => write!(f, "unsupported version {v}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Parses the 12-byte prefix shared by every file: magic, a version this
/// build reads, and the flags. 28 bytes is the shortest header of any
/// layout.
fn read_header(raw: &[u8]) -> Result<(Cursor<'_>, u32, u32), PersistError> {
    let mut buf = Cursor::new(raw);
    if buf.remaining() < 28 {
        return Err(PersistError::Format("truncated header".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::Format("bad magic".into()));
    }
    let version = buf.get_u32_le();
    if !(VERSION_ROWS_ONLY..=VERSION).contains(&version) {
        return Err(PersistError::Version(version));
    }
    let flags = buf.get_u32_le();
    Ok((buf, version, flags))
}

/// Serializes a frozen cover to `path` as a single length-prefixed CSR
/// blob (header flags bit 1 set; bit 0 when distance annotations are
/// stored), crash-atomically. Loading it back involves no sorting.
pub fn save_frozen(frozen: &FrozenCover, path: &Path) -> Result<(), PersistError> {
    let dists = frozen.label_dists();
    let flags = FLAG_FROZEN | if dists.is_some() { FLAG_DIST } else { 0 };
    let mut buf: Vec<u8> = Vec::with_capacity(28);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&flags.to_le_bytes());
    encode_frozen_payload(frozen, &mut buf);
    atomic_write_file(path, &buf)?;
    Ok(())
}

/// Appends the frozen cover's CSR payload (`n`, `data_len`, offset tables,
/// data, optional dist column) to `buf` — the section shared by frozen
/// index files and checkpoints.
fn encode_frozen_payload(frozen: &FrozenCover, buf: &mut Vec<u8>) {
    let n = frozen.num_nodes();
    let data = frozen.label_data();
    let dists = frozen.label_dists();
    let words = 2 * (n + 1) + data.len() * if dists.is_some() { 2 } else { 1 };
    buf.reserve(16 + 4 * words);
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for section in [frozen.lin_offsets(), frozen.lout_offsets()] {
        for &off in section {
            buf.extend_from_slice(&off.to_le_bytes());
        }
    }
    for &c in data {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    for &d in dists.unwrap_or(&[]) {
        buf.extend_from_slice(&d.to_le_bytes());
    }
}

/// Loads an index file of either layout: a frozen CSR blob, or a row
/// file written by an earlier release. Row files carry no node count, so
/// every id and center in them must lie below `id_bound` — the element-id
/// bound of the collection the index belongs to — and is checked before
/// anything is sized by it. Frozen blobs are bounded by their own length.
pub fn load_index(path: &Path, id_bound: usize) -> Result<FrozenCover, PersistError> {
    decode_index(&StdVfs.read(path)?, Some(id_bound))
}

/// Loads a frozen cover persisted with [`save_frozen`], rebuilding the
/// inverted sections by counting (no sorting anywhere on the load path).
/// Row files are refused: they need the id bound [`load_index`] takes.
pub fn load_frozen(path: &Path) -> Result<FrozenCover, PersistError> {
    decode_index(&StdVfs.read(path)?, None)
}

fn decode_index(raw: &[u8], id_bound: Option<usize>) -> Result<FrozenCover, PersistError> {
    let (mut buf, version, flags) = read_header(raw)?;
    if flags & FLAG_CHECKPOINT != 0 {
        return Err(PersistError::Format(
            "file is a durable checkpoint; load it with load_checkpoint".into(),
        ));
    }
    let with_dist = flags & FLAG_DIST != 0;
    match (flags & FLAG_FROZEN != 0, id_bound) {
        (true, _) if version == VERSION_ROWS_ONLY => Err(PersistError::Version(version)),
        (true, _) => decode_frozen_payload(&mut buf, with_dist),
        (false, Some(bound)) => decode_rows(&mut buf, with_dist, bound),
        (false, None) => Err(PersistError::Format(
            "file holds LIN/LOUT rows; load it with load_index".into(),
        )),
    }
}

/// Decodes the row-layout body into a [`FrozenCover`], which validates
/// the rows as it does any CSR blob. Ids and centers at or beyond
/// `id_bound` are refused before the offset tables are sized.
fn decode_rows(
    buf: &mut Cursor<'_>,
    with_dist: bool,
    id_bound: usize,
) -> Result<FrozenCover, PersistError> {
    let lin_len = buf.get_u64_le() as usize;
    let lout_len = buf.get_u64_le() as usize;
    let per_row = if with_dist { 12 } else { 8 };
    // Capping the count keeps every offset below `u32::MAX`.
    let count = lin_len
        .checked_add(lout_len)
        .filter(|&rows| rows <= FrozenCover::MAX_LABEL_ENTRIES)
        .ok_or_else(|| PersistError::Format("row count overflows".into()))?;
    let expected = count
        .checked_mul(per_row)
        .ok_or_else(|| PersistError::Format("row count overflows".into()))?;
    if buf.remaining() != expected {
        return Err(PersistError::Format(format!(
            "expected {expected} row bytes, found {}",
            buf.remaining()
        )));
    }
    // `(id, center, dist)`; the count is bounded by the file length.
    let mut rows: Vec<(u32, u32, u32)> = Vec::with_capacity(count);
    let mut n = 0;
    for _ in 0..count {
        let (id, center) = (buf.get_u32_le(), buf.get_u32_le());
        let dist = if with_dist { buf.get_u32_le() } else { 0 };
        let top = id.max(center) as usize;
        if top >= id_bound {
            return Err(PersistError::Format(format!(
                "row ({id}, {center}) is outside the collection's {id_bound} element ids"
            )));
        }
        n = n.max(top + 1);
        rows.push((id, center, dist));
    }
    let (lin, lout) = rows.split_at(lin_len);
    for table in [lin, lout] {
        if table
            .iter()
            .zip(table.iter().skip(1))
            .any(|(a, b)| (a.0, a.1) >= (b.0, b.1))
        {
            return Err(PersistError::Format(
                "rows must be strictly sorted by (id, center)".into(),
            ));
        }
    }
    let offsets = |table: &[(u32, u32, u32)], base: usize| -> Vec<u32> {
        (0..=n)
            .map(|v| (base + table.partition_point(|r| (r.0 as usize) < v)) as u32)
            .collect()
    };
    let (lin_off, lout_off) = (offsets(lin, 0), offsets(lout, lin_len));
    let labels = rows.iter().map(|r| r.1).collect();
    let dist = with_dist.then(|| rows.iter().map(|r| r.2).collect());
    FrozenCover::from_label_csr(lin_off, lout_off, labels, dist)
        .map_err(|e| PersistError::Format(format!("invalid rows: {e}")))
}

/// Reads the frozen CSR payload section, which must consume the rest of
/// the buffer exactly.
fn decode_frozen_payload(
    buf: &mut Cursor<'_>,
    with_dist: bool,
) -> Result<FrozenCover, PersistError> {
    if buf.remaining() < 16 {
        return Err(PersistError::Format("truncated CSR section".into()));
    }
    let n = buf.get_u64_le() as usize;
    let data_len = buf.get_u64_le() as usize;
    let dist_words = if with_dist { data_len } else { 0 };
    let expected = n
        .checked_add(1)
        .and_then(|o| o.checked_mul(2))
        .and_then(|o| o.checked_add(data_len))
        .and_then(|w| w.checked_add(dist_words))
        .and_then(|w| w.checked_mul(4))
        .ok_or_else(|| PersistError::Format("section sizes overflow".into()))?;
    if buf.remaining() != expected {
        return Err(PersistError::Format(format!(
            "expected {expected} payload bytes, found {}",
            buf.remaining()
        )));
    }
    let read_words =
        |k: usize, buf: &mut Cursor<'_>| -> Vec<u32> { (0..k).map(|_| buf.get_u32_le()).collect() };
    let lin_off = read_words(n + 1, buf);
    let lout_off = read_words(n + 1, buf);
    let data = read_words(data_len, buf);
    let dist = with_dist.then(|| read_words(data_len, buf));
    FrozenCover::from_label_csr(lin_off, lout_off, data, dist)
        .map_err(|e| PersistError::Format(format!("invalid CSR blob: {e}")))
}

/// A loaded durable checkpoint: the collection and frozen cover as of WAL
/// sequence number [`Checkpoint::seq`]. Recovery replays the WAL records
/// with sequence numbers greater than `seq` on top of this state.
pub struct Checkpoint {
    /// The collection at checkpoint time (ids reconstructed exactly,
    /// tombstones included).
    pub collection: hopi_xml::Collection,
    /// The cover at checkpoint time, in the frozen serving layout
    /// (distance-annotated when the engine was distance-aware).
    pub frozen: FrozenCover,
    /// WAL sequence number covered by this checkpoint.
    pub seq: u64,
}

/// Persists a checkpoint crash-atomically (temp file + fsync + rename +
/// directory fsync): collection, frozen cover, and the WAL sequence
/// number the pair is consistent with, in one file — a crash can never
/// leave a collection from one checkpoint next to an index from another.
///
/// ```text
/// magic    4 bytes  "HOPI"
/// version  u32      3 (2 accepted on load: collection blob has no text)
/// flags    u32      bit 2 (CHECKPOINT) | bit 1 (FROZEN) [| bit 0 DIST]
/// seq      u64      WAL sequence number covered
/// coll_len u64      collection blob length
/// coll     bytes    hopi_xml::codec::encode_collection
/// csr      …        frozen CSR payload (same section as an index file)
/// ```
pub fn save_checkpoint(
    path: &Path,
    collection: &hopi_xml::Collection,
    frozen: &FrozenCover,
    seq: u64,
) -> Result<(), PersistError> {
    save_checkpoint_in(&StdVfs, path, collection, frozen, seq)
}

/// [`save_checkpoint`] through an explicit VFS backend.
pub fn save_checkpoint_in(
    vfs: &dyn Vfs,
    path: &Path,
    collection: &hopi_xml::Collection,
    frozen: &FrozenCover,
    seq: u64,
) -> Result<(), PersistError> {
    let coll = hopi_xml::codec::encode_collection(collection);
    let flags = FLAG_CHECKPOINT
        | FLAG_FROZEN
        | if frozen.label_dists().is_some() {
            FLAG_DIST
        } else {
            0
        };
    let mut buf: Vec<u8> = Vec::with_capacity(28 + coll.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&flags.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(coll.len() as u64).to_le_bytes());
    buf.extend_from_slice(&coll);
    encode_frozen_payload(frozen, &mut buf);
    atomic_write_file_in(vfs, path, &buf)?;
    Ok(())
}

/// Loads a checkpoint written by [`save_checkpoint`].
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, PersistError> {
    load_checkpoint_in(&StdVfs, path)
}

/// [`load_checkpoint`] through an explicit VFS backend.
pub fn load_checkpoint_in(vfs: &dyn Vfs, path: &Path) -> Result<Checkpoint, PersistError> {
    let raw = vfs.read(path)?;
    let (mut buf, version, flags) = read_header(&raw)?;
    if version == VERSION_ROWS_ONLY {
        return Err(PersistError::Version(version));
    }
    if flags & FLAG_CHECKPOINT == 0 {
        return Err(PersistError::Format(
            "file is not a checkpoint; load it with load_index".into(),
        ));
    }
    let seq = buf.get_u64_le();
    let coll_len = buf.get_u64_le() as usize;
    if buf.remaining() < coll_len {
        return Err(PersistError::Format(format!(
            "collection blob of {coll_len} bytes exceeds file"
        )));
    }
    let mut coll_bytes = vec![0u8; coll_len];
    buf.copy_to_slice(&mut coll_bytes);
    // Pre-text checkpoints (version 2) carry collection blobs without the
    // element-text section; text decodes as empty there.
    let collection =
        hopi_xml::codec::decode_collection_versioned(&coll_bytes, version > VERSION_NO_TEXT)
            .map_err(|e| PersistError::Format(e.to_string()))?;
    let frozen = decode_frozen_payload(&mut buf, flags & FLAG_DIST != 0)?;
    Ok(Checkpoint {
        collection,
        frozen,
        seq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_core::{CoverBuilder, DistanceCoverBuilder, TwoHopCover};
    use hopi_graph::{DiGraph, DistanceClosure, TransitiveClosure};

    fn sample_graph() -> DiGraph {
        let mut g = DiGraph::new();
        for (u, v) in [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)] {
            g.add_edge(u, v);
        }
        g
    }

    fn sample_cover() -> TwoHopCover {
        CoverBuilder::new(&TransitiveClosure::from_graph(&sample_graph())).build()
    }

    /// A row file as earlier releases wrote it: header, then the LIN and
    /// LOUT rows of `cover` in `(id, center)` order.
    fn row_file(version: u32, cover: &TwoHopCover) -> Vec<u8> {
        let frozen = FrozenCover::from_cover(cover);
        let table = |row: fn(&FrozenCover, u32) -> &[u32]| -> Vec<(u32, u32)> {
            (0..frozen.num_nodes() as u32)
                .flat_map(|v| row(&frozen, v).iter().map(move |&c| (v, c)))
                .collect()
        };
        let (lin, lout) = (table(FrozenCover::lin), table(FrozenCover::lout));
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(lin.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(lout.len() as u64).to_le_bytes());
        for (id, c) in lin.into_iter().chain(lout) {
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&c.to_le_bytes());
        }
        buf
    }

    #[test]
    fn roundtrip_frozen() {
        let cover = sample_cover();
        let frozen = FrozenCover::from_cover(&cover);
        let dir = std::env::temp_dir().join("hopi_persist_frozen.idx");
        save_frozen(&frozen, &dir).unwrap();
        let loaded = load_frozen(&dir).unwrap();
        assert_eq!(loaded.size(), frozen.size());
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(loaded.connected(u, v), cover.connected(u, v), "({u},{v})");
            }
            assert_eq!(loaded.descendants(u), cover.descendants(u));
        }
        // The bounded loader reads the same file.
        assert_eq!(load_index(&dir, 5).unwrap().size(), frozen.size());
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn roundtrip_frozen_distance() {
        let g = sample_graph();
        let dc = DistanceClosure::from_graph(&g);
        let cover = DistanceCoverBuilder::new(&dc).build();
        let frozen = FrozenCover::from_distance_cover(&cover);
        let dir = std::env::temp_dir().join("hopi_persist_frozen_dist.idx");
        save_frozen(&frozen, &dir).unwrap();
        let loaded = load_frozen(&dir).unwrap();
        assert!(loaded.with_dist());
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(loaded.distance(u, v), cover.distance(u, v), "({u},{v})");
            }
        }
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn row_files_load_through_the_bounded_loader_only() {
        let cover = sample_cover();
        let dir = std::env::temp_dir().join("hopi_persist_rows.idx");
        for version in [1, 2, 3] {
            std::fs::write(&dir, row_file(version, &cover)).unwrap();
            let loaded = load_index(&dir, 5).unwrap();
            assert_eq!(loaded.size(), cover.size(), "v{version}");
            for u in 0..5 {
                for v in 0..5 {
                    assert_eq!(loaded.connected(u, v), cover.connected(u, v), "({u},{v})");
                }
            }
            // The unbounded loader refuses rows with a pointer to the
            // right entry.
            assert!(matches!(load_frozen(&dir), Err(PersistError::Format(_))));
        }
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn rejects_rows_beyond_the_id_bound_before_allocating() {
        // One LOUT row naming node 0xFFFF_FFF0: sizing the offset tables
        // by it would ask for tens of gigabytes.
        let dir = std::env::temp_dir().join("hopi_persist_rows_bound.idx");
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(buf.len(), 36);
        std::fs::write(&dir, &buf).unwrap();
        assert!(matches!(load_index(&dir, 5), Err(PersistError::Format(_))));
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn rejects_unsorted_and_self_rows() {
        let dir = std::env::temp_dir().join("hopi_persist_rows_bad.idx");
        let file = |rows: &[(u32, u32)]| {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&VERSION.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&(rows.len() as u64).to_le_bytes());
            buf.extend_from_slice(&0u64.to_le_bytes());
            for &(id, c) in rows {
                buf.extend_from_slice(&id.to_le_bytes());
                buf.extend_from_slice(&c.to_le_bytes());
            }
            buf
        };
        for rows in [&[(2, 0), (1, 0)][..], &[(1, 0), (1, 0)], &[(1, 1)]] {
            std::fs::write(&dir, file(rows)).unwrap();
            assert!(
                matches!(load_index(&dir, 5), Err(PersistError::Format(_))),
                "{rows:?}"
            );
        }
        std::fs::write(&dir, file(&[(1, 0), (2, 0)])).unwrap();
        assert_eq!(load_index(&dir, 5).unwrap().lin(2), &[0]);
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_and_type_confusion() {
        use hopi_xml::{Collection, XmlDocument};
        let mut c = Collection::new();
        let mut d = XmlDocument::new("a", "r");
        d.add_element(0, "s");
        c.add_document(d);
        c.add_document(XmlDocument::new("b", "r"));
        c.add_link(1, 2);
        let ghost = c.add_document(XmlDocument::new("ghost", "r"));
        c.remove_document(ghost);
        let tc = TransitiveClosure::from_graph(&c.element_graph());
        let cover = CoverBuilder::new(&tc).build();
        let frozen = FrozenCover::from_cover(&cover);
        let path = std::env::temp_dir().join("hopi_persist_ckpt.idx");
        save_checkpoint(&path, &c, &frozen, 42).unwrap();
        let ckpt = load_checkpoint(&path).unwrap();
        assert_eq!(ckpt.seq, 42);
        assert_eq!(ckpt.collection.doc_id_bound(), c.doc_id_bound());
        assert_eq!(ckpt.collection.elem_id_bound(), c.elem_id_bound());
        assert_eq!(ckpt.collection.links(), c.links());
        assert_eq!(ckpt.frozen.size(), frozen.size());
        assert!(ckpt.frozen.connected(0, 2));
        // Every other loader refuses a checkpoint with a pointer to the
        // right entry, and vice versa.
        let bound = c.elem_id_bound();
        assert!(matches!(
            load_index(&path, bound),
            Err(PersistError::Format(_))
        ));
        assert!(matches!(load_frozen(&path), Err(PersistError::Format(_))));
        save_frozen(&frozen, &path).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(PersistError::Format(_))
        ));
        std::fs::write(&path, row_file(VERSION, &cover)).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(PersistError::Format(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("hopi_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("file.bin");
        atomic_write_file(&target, b"first").unwrap();
        atomic_write_file(&target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        let stray = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(stray, 1, "temp files must not survive a write");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join("hopi_persist_garbage.idx");
        std::fs::write(&dir, b"not a hopi file at all........").unwrap();
        assert!(matches!(load_index(&dir, 5), Err(PersistError::Format(_))));
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn rejects_truncation() {
        let cover = sample_cover();
        let dir = std::env::temp_dir().join("hopi_persist_trunc.idx");
        let rows = row_file(VERSION, &cover);
        std::fs::write(&dir, &rows[..rows.len() - 3]).unwrap();
        assert!(load_index(&dir, 5).is_err());
        save_frozen(&FrozenCover::from_cover(&cover), &dir).unwrap();
        let bytes = std::fs::read(&dir).unwrap();
        std::fs::write(&dir, &bytes[..bytes.len() - 5]).unwrap();
        assert!(load_frozen(&dir).is_err());
        std::fs::write(&dir, &bytes[..10]).unwrap();
        assert!(matches!(load_index(&dir, 5), Err(PersistError::Format(_))));
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn rejects_overflowing_row_counts() {
        // Row counts whose byte size wraps usize must fail cleanly, not
        // panic on an out-of-bounds read.
        let dir = std::env::temp_dir().join("hopi_persist_overflow.idx");
        let mut buf = Vec::new();
        buf.extend_from_slice(b"HOPI");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // no DIST
        buf.extend_from_slice(&(1u64 << 61).to_le_bytes()); // lin_len
        buf.extend_from_slice(&(1u64 << 61).to_le_bytes()); // lout_len
        std::fs::write(&dir, &buf).unwrap();
        assert!(matches!(load_index(&dir, 5), Err(PersistError::Format(_))));
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn rejects_future_version() {
        let dir = std::env::temp_dir().join("hopi_persist_ver.idx");
        let mut buf = Vec::new();
        buf.extend_from_slice(b"HOPI");
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 20]);
        std::fs::write(&dir, &buf).unwrap();
        assert!(matches!(
            load_index(&dir, 5),
            Err(PersistError::Version(99))
        ));
        std::fs::remove_file(dir).ok();
    }
}
