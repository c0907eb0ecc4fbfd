//! [`FilePageStore`]: the file-backed [`PageStore`].
//!
//! A database is a directory:
//!
//! ```text
//! db/
//!   rdb.meta        header: magic, format version, page_bytes, base LSN
//!                   (atomically replaced via tmp+rename at every checkpoint)
//!   catalog.rdb     last checkpointed catalog blob (tmp+rename)
//!   wal-<seq>.rdb   append-only WAL segments (see crate::wal for record
//!                   framing); appends rotate into a fresh segment when the
//!                   current one exceeds the segment cap
//!   f<N>.rdb        page frames for FileId(N), 4096 bytes per frame
//! ```
//!
//! # WAL segments
//!
//! The log is a chain of capped segment files, each starting with a
//! 24-byte header (`magic "RDBW" | version | u64 seq | crc over the first
//! 16 bytes`) followed by the usual record stream. Sequence numbers are
//! assigned once and never reused; the logical log is the concatenation of
//! the record streams in sequence order. [`FilePageStore::open`] walks the
//! segments and applies crash semantics at the first damage it meets — a
//! torn record tail truncates that segment, and a bad header, a
//! filename/header sequence mismatch, or a gap in the chain ends the log
//! there; later segments were never durably reachable and are deleted.
//! A checkpoint recycles the chain: after the header advance (the commit
//! point) it starts a fresh segment and deletes every released one, so
//! steady-state disk usage is bounded by the checkpoint cadence rather
//! than database lifetime.
//!
//! Each data frame is:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "RDBP" (all-zero frame = hole, reads as None)
//!      4     4  file id
//!      8     4  page number
//!     12     8  page LSN (last record applied when the frame was written)
//!     20     4  payload length
//!     24     8  checksum64_seeded(checksum64(bytes [4, 24)), payload)
//!     32  4064  payload: the page image (Page::encode_image)
//! ```
//!
//! The checksum is [`crate::wal::checksum64`]'s family (construction and
//! detection argument there), summed in place: the header fields seed the
//! payload's sum, so nothing is copied together to be checked. Bytes past
//! the payload are padding and are not covered. A frame whose checksum
//! does not verify is reported as [`StorageError::TornPage`]; recovery
//! repairs it from a full-page image in the WAL or surfaces the error.
//! The WAL's own torn tail is truncated silently at open (crash
//! semantics: the tail never happened).
//!
//! # Format versions
//!
//! `rdb.meta` carries the directory's format version (3: the word-wise
//! checksum; 2 was segmented WAL under FNV-1a), WAL segment headers their
//! own (2). [`FilePageStore::open`] reads `rdb.meta` and tests its version
//! *before* its checksum and before it looks at any other file, so a
//! directory written by an older build is refused with a typed error and
//! left byte-for-byte as it was — its segments would otherwise look like
//! damage and be deleted.
//!
//! # Reading a frame
//!
//! `check_frame` is the one frame check (short / hole / magic / file id /
//! page number / length / checksum) and `Page`'s image walk the one
//! structure check; [`PageStore::read_page`] / `read_run` run them and
//! build the [`Page`], [`PageStore::verify_page`] / `verify_run` — the
//! buffer-pool miss path, whose caller already holds the page — run the
//! same two with nothing materialised, from a stack frame buffer or the
//! caller's window buffer. Both count `page_reads` / `batch_reads` alike,
//! in atomics: a reader never queues behind a WAL append for a statistic.
//!
//! # Data-file handles
//!
//! Each `f<N>.rdb` is opened once, on first use, and the handle lives as
//! long as the store (data files are never deleted or renamed under an
//! open store; WAL segments are not in this table). Readers and the
//! checkpoint writer share a handle, so every access through it is
//! **positioned** (`pread` / `pwrite`): nothing may depend on or move a
//! file cursor. Where the platform has no positioned I/O the seek + read
//! pair is serialised per file. `sync` fsyncs through the same handles.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::buffer::{FileId, PageId};
use crate::error::StorageError;
use crate::lsn::WalTail;
use crate::page::Page;
use crate::store::{lock, PageStore, StoreStats};
use crate::wal::{
    checksum64, checksum64_seeded, decode_stream, encode_entry, Lsn, WalRecord, WalView,
};

/// Size of one on-disk data frame, header included.
pub const FRAME_BYTES: usize = 4096;
/// Bytes of frame header before the page-image payload.
pub const FRAME_HEADER: usize = 32;
/// Largest page image a frame can hold.
pub const FRAME_PAYLOAD_MAX: usize = FRAME_BYTES - FRAME_HEADER;
/// Recommended page payload capacity for durable databases: leaves
/// image-encoding slack (a length word per slot, tombstones) inside the
/// 4064-byte frame payload for pages that have seen delete churn.
pub const DURABLE_PAGE_BYTES: usize = 4000;

/// Default cap on one WAL segment's size. Appends rotate into a fresh
/// segment once the current one would exceed it.
pub const DEFAULT_WAL_SEGMENT_BYTES: u64 = 1 << 20;

/// Bytes of header at the front of every WAL segment file.
pub const WAL_SEGMENT_HEADER: usize = 24;

const FRAME_MAGIC: u32 = 0x5042_4452; // "RDBP" little-endian
const META_MAGIC: u32 = 0x4D42_4452; // "RDBM"
const WAL_MAGIC: u32 = 0x5742_4452; // "RDBW"
const WAL_VERSION: u32 = 2; // v2: word-wise checksum64
const META_VERSION: u32 = 3; // v2: segmented WAL; v3: word-wise checksum64

#[derive(Debug)]
struct Inner {
    /// The current (highest-sequence) WAL segment, append-positioned.
    wal: File,
    /// Sequence number of the current segment.
    wal_seq: u64,
    /// Bytes in the current segment, header included (the rotation gauge).
    wal_len: u64,
    base_lsn: Lsn,
    /// Write-side counters; the read counters are the store's atomics.
    stats: StoreStats,
    /// Data files written since their last successful fsync: `sync`'s
    /// worklist. A file leaves it only once its `sync_data` returned `Ok`.
    touched: Vec<(FileId, Arc<DataFile>)>,
    /// The append path's encode buffer, reused record after record.
    entry: Vec<u8>,
}

/// One open data file, shared by every reader and the checkpoint writer
/// (see the module docs: positioned I/O only).
#[derive(Debug)]
struct DataFile {
    file: File,
    /// Without positioned I/O a read is seek-then-read on the one shared
    /// cursor; this serialises the pair.
    #[cfg(not(unix))]
    cursor: Mutex<()>,
}

impl DataFile {
    fn new(file: File) -> DataFile {
        DataFile {
            file,
            #[cfg(not(unix))]
            cursor: Mutex::new(()),
        }
    }

    /// Reads into `buf` from `offset` until it is full or the file ends,
    /// returning the bytes read (a short read near EOF is not an error
    /// here; callers decide what a partial frame means).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
        #[cfg(not(unix))]
        let _cursor = lock(&self.cursor);
        let mut done = 0usize;
        while let Some(rest) = buf.get_mut(done..).filter(|r| !r.is_empty()) {
            #[cfg(unix)]
            let n = {
                use std::os::unix::fs::FileExt;
                self.file.read_at(rest, offset + done as u64)?
            };
            #[cfg(not(unix))]
            let n = {
                use std::io::{Read, Seek, SeekFrom};
                (&self.file).seek(SeekFrom::Start(offset + done as u64))?;
                (&self.file).read(rest)?
            };
            if n == 0 {
                break;
            }
            done += n;
        }
        Ok(done)
    }

    /// Writes all of `buf` at `offset`.
    fn write_all_at(&self, offset: u64, buf: &[u8]) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom};
            let _cursor = lock(&self.cursor);
            (&self.file).seek(SeekFrom::Start(offset))?;
            (&self.file).write_all(buf)
        }
    }
}

/// The file-backed page store. See the module docs for the layout.
#[derive(Debug)]
pub struct FilePageStore {
    dir: PathBuf,
    page_bytes: usize,
    /// Segment-size cap appends rotate at (an open-time knob, not part of
    /// the persistent format — reopening with a different cap is fine).
    segment_bytes: u64,
    /// LSN allocation and framed-high-water publication. Appends allocate
    /// and publish through it while holding `inner`; `published` may be
    /// read without the mutex (see [`crate::lsn::WalTail`]).
    tail: WalTail,
    inner: Mutex<Inner>,
    /// The data-file handle table, keyed by `FileId.0`.
    files: Mutex<BTreeMap<u32, Arc<DataFile>>>,
    /// Frames read and verified (`StoreStats::page_reads`).
    page_reads: AtomicU64,
    /// Batched run reads issued (`StoreStats::batch_reads`).
    batch_reads: AtomicU64,
}

fn io_err<'a>(
    op: &'static str,
    path: &'a Path,
) -> impl FnOnce(std::io::Error) -> StorageError + 'a {
    move |e| StorageError::io(op, path, &e)
}

/// Atomically replaces `path` with `bytes` via a tmp file and rename.
fn replace_file(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp).map_err(io_err("create", &tmp))?;
    f.write_all(bytes).map_err(io_err("write", &tmp))?;
    f.sync_data().map_err(io_err("sync", &tmp))?;
    fs::rename(&tmp, path).map_err(io_err("rename", path))
}

fn le32(buf: &[u8], at: usize) -> Option<u32> {
    buf.get(at..at + 4)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
}

fn le64(buf: &[u8], at: usize) -> Option<u64> {
    buf.get(at..at + 8)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
}

/// Parses a WAL segment header, returning its sequence number when the
/// magic, version, and checksum all verify.
fn parse_segment_header(bytes: &[u8]) -> Option<u64> {
    let magic = le32(bytes, 0)?;
    let version = le32(bytes, 4)?;
    let seq = le64(bytes, 8)?;
    let crc = le64(bytes, 16)?;
    if magic != WAL_MAGIC || version != WAL_VERSION {
        return None;
    }
    if checksum64(bytes.get(0..16)?) != crc {
        return None;
    }
    Some(seq)
}

impl FilePageStore {
    /// Opens (or initializes) the database directory at `dir`.
    ///
    /// A fresh or empty directory is initialized with `page_bytes` page
    /// capacity; an existing database keeps the capacity recorded in its
    /// header (callers read it back via [`PageStore::page_bytes`]). The
    /// WAL's torn tail, if any, is truncated here.
    pub fn open(dir: impl Into<PathBuf>, page_bytes: usize) -> Result<FilePageStore, StorageError> {
        Self::open_with(dir, page_bytes, DEFAULT_WAL_SEGMENT_BYTES)
    }

    /// [`FilePageStore::open`] with an explicit WAL segment-size cap
    /// (floored at twice the segment header; tiny caps are useful to
    /// exercise rotation in tests and crash campaigns).
    pub fn open_with(
        dir: impl Into<PathBuf>,
        page_bytes: usize,
        segment_bytes: u64,
    ) -> Result<FilePageStore, StorageError> {
        let dir = dir.into();
        let segment_bytes = segment_bytes.max(2 * WAL_SEGMENT_HEADER as u64);
        fs::create_dir_all(&dir).map_err(io_err("create_dir", &dir))?;
        let meta_path = dir.join("rdb.meta");
        let (page_bytes, base_lsn) = if meta_path.exists() {
            Self::read_meta(&meta_path)?
        } else {
            if !(64..=FRAME_PAYLOAD_MAX - 16).contains(&page_bytes) {
                return Err(StorageError::RecordTooLarge {
                    size: page_bytes,
                    max: FRAME_PAYLOAD_MAX - 16,
                });
            }
            write_meta(&meta_path, page_bytes, 0)?;
            (page_bytes, 0)
        };

        // Walk the segment chain in sequence order, applying crash
        // semantics at the first damage: a torn record tail truncates that
        // segment; a bad or mismatched header, or a sequence gap, ends the
        // log there. Everything past the end was never durably reachable
        // and is deleted.
        let mut entries_max_lsn = 0;
        let mut last_good: Option<(u64, PathBuf)> = None;
        let mut ended = false;
        for (seq, path) in Self::wal_segments(&dir)? {
            if ended {
                fs::remove_file(&path).map_err(io_err("remove", &path))?;
                continue;
            }
            if let Some((prev, _)) = &last_good {
                if seq != prev + 1 {
                    ended = true;
                    fs::remove_file(&path).map_err(io_err("remove", &path))?;
                    continue;
                }
            }
            let bytes = fs::read(&path).map_err(io_err("read", &path))?;
            if parse_segment_header(&bytes) != Some(seq) {
                ended = true;
                fs::remove_file(&path).map_err(io_err("remove", &path))?;
                continue;
            }
            let body = bytes.get(WAL_SEGMENT_HEADER..).unwrap_or(&[]);
            let view = decode_stream(body);
            if let Some((lsn, _)) = view.entries.last() {
                entries_max_lsn = entries_max_lsn.max(*lsn);
            }
            if view.truncated {
                // Crash mid-append: discard the torn tail so new appends
                // start at a clean record boundary.
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(io_err("open", &path))?;
                f.set_len((WAL_SEGMENT_HEADER + view.clean_bytes) as u64)
                    .map_err(io_err("truncate", &path))?;
                ended = true;
            }
            last_good = Some((seq, path));
        }

        let (wal, wal_seq, wal_len) = match last_good {
            Some((seq, path)) => {
                let wal = OpenOptions::new()
                    .read(true)
                    .append(true)
                    .open(&path)
                    .map_err(io_err("open", &path))?;
                let len = wal.metadata().map_err(io_err("stat", &path))?.len();
                (wal, seq, len)
            }
            None => {
                let (wal, len) = Self::create_segment(&dir, 1)?;
                (wal, 1, len)
            }
        };
        let next_lsn = base_lsn.max(entries_max_lsn) + 1;

        Ok(FilePageStore {
            dir,
            page_bytes,
            segment_bytes,
            tail: WalTail::new(next_lsn),
            inner: Mutex::new(Inner {
                wal,
                wal_seq,
                wal_len,
                base_lsn,
                stats: StoreStats::default(),
                touched: Vec::new(),
                entry: Vec::new(),
            }),
            files: Mutex::new(BTreeMap::new()),
            page_reads: AtomicU64::new(0),
            batch_reads: AtomicU64::new(0),
        })
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the data-frame file backing `file` under `dir` (exposed so
    /// crash harnesses can tear specific frames).
    pub fn data_path(dir: &Path, file: FileId) -> PathBuf {
        dir.join(format!("f{}.rdb", file.0))
    }

    /// Path of WAL segment `seq` under `dir` (exposed so crash harnesses
    /// can cut specific segments).
    pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("wal-{seq:08}.rdb"))
    }

    /// The WAL segments present under `dir`, sorted by sequence number
    /// (exposed for crash harnesses; no validation beyond the filename).
    pub fn wal_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
        let mut out = Vec::new();
        let entries = fs::read_dir(dir).map_err(io_err("read_dir", dir))?;
        for entry in entries {
            let entry = entry.map_err(io_err("read_dir", dir))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".rdb"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                out.push((seq, entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }

    /// The 24-byte header opening WAL segment `seq` (exposed so crash
    /// harnesses can fabricate segments byte-for-byte).
    pub fn encode_segment_header(seq: u64) -> [u8; WAL_SEGMENT_HEADER] {
        let mut out = [0u8; WAL_SEGMENT_HEADER];
        out[0..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        out[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
        out[8..16].copy_from_slice(&seq.to_le_bytes());
        let crc = checksum64(&out[0..16]);
        out[16..24].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Creates WAL segment `seq` holding just its header, synced, and
    /// returns the write handle positioned for appends plus the current
    /// length. An existing file of the same name is truncated: segments
    /// are created only at rotation points, where any leftover content was
    /// never acknowledged.
    fn create_segment(dir: &Path, seq: u64) -> Result<(File, u64), StorageError> {
        let path = Self::segment_path(dir, seq);
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(io_err("open", &path))?;
        f.write_all(&Self::encode_segment_header(seq))
            .map_err(io_err("write", &path))?;
        f.sync_data().map_err(io_err("sync", &path))?;
        Ok((f, WAL_SEGMENT_HEADER as u64))
    }

    /// Reads `rdb.meta`. The version test precedes the checksum test: an
    /// older format sums with another function, and must be named as what
    /// it is — an unsupported version — before anything else is read.
    fn read_meta(path: &Path) -> Result<(usize, Lsn), StorageError> {
        let bytes = fs::read(path).map_err(io_err("read", path))?;
        let corrupt = StorageError::Corrupt("database header (rdb.meta)");
        let (Some(magic), Some(version)) = (le32(&bytes, 0), le32(&bytes, 4)) else {
            return Err(corrupt);
        };
        if magic != META_MAGIC {
            return Err(corrupt);
        }
        if version != META_VERSION {
            return Err(StorageError::Corrupt(
                "database header (rdb.meta): unsupported format version \
                 (written by another build; nothing in the directory was touched)",
            ));
        }
        let parsed = (|| {
            let page_bytes = le32(&bytes, 8)? as usize;
            let base_lsn = le64(&bytes, 12)?;
            let crc = le64(&bytes, 20)?;
            (checksum64(bytes.get(0..20)?) == crc).then_some((page_bytes, base_lsn))
        })();
        parsed.ok_or(corrupt)
    }

    /// The shared handle of `file`'s data file, opened on first use (and
    /// created, with `create`) and kept for the life of the store. `None`
    /// when the file does not exist and was not to be created.
    fn data_file(&self, file: FileId, create: bool) -> Result<Option<Arc<DataFile>>, StorageError> {
        let mut files = lock(&self.files);
        if let Some(handle) = files.get(&file.0) {
            return Ok(Some(handle.clone()));
        }
        let path = Self::data_path(&self.dir, file);
        let open = OpenOptions::new()
            .read(true)
            .write(true)
            .create(create)
            .open(&path);
        match open {
            Ok(f) => {
                let handle = Arc::new(DataFile::new(f));
                files.insert(file.0, handle.clone());
                Ok(Some(handle))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && !create => Ok(None),
            Err(e) => Err(StorageError::io("open", &path, &e)),
        }
    }

    /// What [`PageStore::read_page`] returns for `page` given its on-disk
    /// `frame`: [`check_frame`], then the image decoded into a [`Page`].
    fn decode_frame(&self, page: PageId, frame: &[u8]) -> Result<Option<(Page, Lsn)>, StorageError> {
        let Some((payload, lsn)) = check_frame(page, frame)? else {
            return Ok(None);
        };
        match Page::decode_image(self.page_bytes, payload) {
            Ok(image) => Ok(Some((image, lsn))),
            Err(_) => Err(torn(page)),
        }
    }

    /// The single-frame read under [`PageStore::read_page`] and
    /// [`PageStore::verify_page`]: one positioned read into a stack
    /// buffer, `outcome` applied to what arrived, `page_reads` counted for
    /// an intact frame.
    fn read_one<T>(
        &self,
        page: PageId,
        outcome: impl FnOnce(PageId, &[u8]) -> Result<Option<T>, StorageError>,
    ) -> Result<Option<T>, StorageError> {
        let Some(file) = self.data_file(page.file, false)? else {
            return Ok(None);
        };
        let mut frame = [0u8; FRAME_BYTES];
        let offset = u64::from(page.page) * FRAME_BYTES as u64;
        let got = file
            .read_at(offset, &mut frame)
            .map_err(|e| StorageError::io("read", &Self::data_path(&self.dir, page.file), &e))?;
        let out = outcome(page, frame.get(..got).unwrap_or(&[]));
        if matches!(out, Ok(Some(_))) {
            // Relaxed: a statistic; it publishes no other data.
            self.page_reads.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// The batched read under [`PageStore::read_run`] and
    /// [`PageStore::verify_run`]: one positioned read of `n` frames into
    /// `scratch` — the syscall batching read-ahead exists for — then
    /// `outcome` per frame, handed to `each` in page order. Frames still
    /// check individually, so a torn frame poisons only its own slot.
    fn read_many<T>(
        &self,
        file: FileId,
        first: u32,
        n: u32,
        scratch: &mut Vec<u8>,
        outcome: impl Fn(PageId, &[u8]) -> Result<Option<T>, StorageError>,
        mut each: impl FnMut(Result<Option<T>, StorageError>),
    ) {
        if n == 0 {
            return;
        }
        let handle = match self.data_file(file, false) {
            Ok(Some(handle)) => handle,
            Ok(None) => return (0..n).for_each(|_| each(Ok(None))),
            Err(e) => return (0..n).for_each(|_| each(Err(e.clone()))),
        };
        // Growing zero-fills only the new part; a window buffer that has
        // reached its depth is reused as it is. Stale bytes past a short
        // read are cut off below, never checked.
        scratch.resize(n as usize * FRAME_BYTES, 0);
        let offset = u64::from(first) * FRAME_BYTES as u64;
        let got = match handle.read_at(offset, scratch) {
            Ok(got) => got,
            Err(e) => {
                let e = StorageError::io("read", &Self::data_path(&self.dir, file), &e);
                return (0..n).for_each(|_| each(Err(e.clone())));
            }
        };
        let mut frames = scratch.get(..got).unwrap_or(&[]).chunks(FRAME_BYTES);
        let mut read = 0u64;
        for i in 0..n {
            let page = PageId::new(file, first.saturating_add(i));
            let out = outcome(page, frames.next().unwrap_or(&[]));
            read += u64::from(matches!(out, Ok(Some(_))));
            each(out);
        }
        // Relaxed: statistics; they publish no other data.
        self.page_reads.fetch_add(read, Ordering::Relaxed);
        self.batch_reads.fetch_add(1, Ordering::Relaxed);
    }
}

fn torn(page: PageId) -> StorageError {
    StorageError::TornPage {
        file: page.file,
        page: page.page,
    }
}

/// **The** frame check, under every read and every verify: what `frame`,
/// as read from `page`'s offset, holds. `Ok(None)` for no frame (`frame`
/// shorter than a header — a read past EOF — or all-zero — a hole);
/// [`StorageError::TornPage`] for a wrong magic, another page's identity,
/// an impossible or cut-off payload length, or a checksum mismatch;
/// otherwise the payload (the page image, still to be walked) and the
/// frame's LSN. Pure — counters are the caller's job.
fn check_frame(page: PageId, frame: &[u8]) -> Result<Option<(&[u8], Lsn)>, StorageError> {
    let Some((header, body)) = frame.split_first_chunk::<FRAME_HEADER>() else {
        return Ok(None); // past EOF: no frame for this page
    };
    let field32 = |at| le32(header, at).ok_or_else(|| torn(page));
    let field64 = |at| le64(header, at).ok_or_else(|| torn(page));
    let magic = field32(0)?;
    if magic == 0 && frame.iter().all(|&b| b == 0) {
        return Ok(None); // hole: frame never written
    }
    let len = field32(20)? as usize;
    if magic != FRAME_MAGIC
        || field32(4)? != page.file.0
        || field32(8)? != page.page
        || len > FRAME_PAYLOAD_MAX
    {
        return Err(torn(page));
    }
    let summed = header.get(4..24).ok_or_else(|| torn(page))?;
    let payload = body.get(..len).ok_or_else(|| torn(page))?;
    if checksum64_seeded(checksum64(summed), payload) != field64(24)? {
        return Err(torn(page));
    }
    Ok(Some((payload, field64(12)?)))
}

/// What [`PageStore::verify_page`] makes of `frame`: [`check_frame`], then
/// the image walked with nothing built. `Some(())` for an intact frame.
fn verify_frame(page: PageId, frame: &[u8]) -> Result<Option<()>, StorageError> {
    let Some((payload, _)) = check_frame(page, frame)? else {
        return Ok(None);
    };
    match Page::check_image(payload) {
        Ok(()) => Ok(Some(())),
        Err(_) => Err(torn(page)),
    }
}

/// Fsyncs the files of `pending` front to back, dropping each from the
/// worklist only once its `sync` returned `Ok`. The first failure stops
/// the pass and is returned; that file and every one behind it stay
/// pending, so a retry syncs them and a later success means every file
/// written really reached the disk.
fn sync_pending<T>(
    pending: &mut Vec<T>,
    mut sync: impl FnMut(&T) -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    let mut done = 0usize;
    let result = pending.iter().try_for_each(|file| {
        sync(file)?;
        done += 1;
        Ok(())
    });
    pending.drain(..done);
    result
}

fn write_meta(path: &Path, page_bytes: usize, base_lsn: Lsn) -> Result<(), StorageError> {
    let mut bytes = Vec::with_capacity(28);
    bytes.extend_from_slice(&META_MAGIC.to_le_bytes());
    bytes.extend_from_slice(&META_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(page_bytes as u32).to_le_bytes());
    bytes.extend_from_slice(&base_lsn.to_le_bytes());
    let crc = checksum64(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    replace_file(path, &bytes)
}

impl PageStore for FilePageStore {
    fn is_durable(&self) -> bool {
        true
    }

    fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    fn max_image_len(&self) -> usize {
        FRAME_PAYLOAD_MAX
    }

    fn read_page(&self, page: PageId) -> Result<Option<(Page, Lsn)>, StorageError> {
        self.read_one(page, |page, frame| self.decode_frame(page, frame))
    }

    fn verify_page(&self, page: PageId) -> Result<(), StorageError> {
        self.read_one(page, verify_frame).map(|_| ())
    }

    fn read_run(
        &self,
        file: FileId,
        first: u32,
        n: u32,
    ) -> Vec<Result<Option<(Page, Lsn)>, StorageError>> {
        let mut out = Vec::with_capacity(n as usize);
        self.read_many(
            file,
            first,
            n,
            &mut Vec::new(),
            |page, frame| self.decode_frame(page, frame),
            |outcome| out.push(outcome),
        );
        out
    }

    fn verify_run(
        &self,
        file: FileId,
        first: u32,
        n: u32,
        scratch: &mut Vec<u8>,
        each: &mut dyn FnMut(Result<(), StorageError>),
    ) {
        self.read_many(file, first, n, scratch, verify_frame, |outcome| {
            each(outcome.map(|_| ()))
        });
    }

    fn write_page(&self, page: PageId, image: &Page, lsn: Lsn) -> Result<(), StorageError> {
        // Header, then the image encoded straight behind it; the length
        // and checksum words are patched once the payload is in place.
        let mut frame = Vec::with_capacity(FRAME_BYTES);
        frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        frame.extend_from_slice(&page.file.0.to_le_bytes());
        frame.extend_from_slice(&page.page.to_le_bytes());
        frame.extend_from_slice(&lsn.to_le_bytes());
        frame.extend_from_slice(&[0u8; FRAME_HEADER - 20]);
        image.encode_image(&mut frame)?;
        let Some((header, payload)) = frame.split_first_chunk_mut::<FRAME_HEADER>() else {
            return Err(StorageError::Corrupt("page frame header"));
        };
        if payload.len() > FRAME_PAYLOAD_MAX {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: FRAME_PAYLOAD_MAX,
            });
        }
        let (fields, crc) = header.split_at_mut(24);
        if let Some(len) = fields.get_mut(20..) {
            len.copy_from_slice(&(payload.len() as u32).to_le_bytes());
        }
        let sum = checksum64_seeded(checksum64(fields.get(4..).unwrap_or(&[])), payload);
        crc.copy_from_slice(&sum.to_le_bytes());
        frame.resize(FRAME_BYTES, 0);

        let path = Self::data_path(&self.dir, page.file);
        let Some(file) = self.data_file(page.file, true)? else {
            return Err(StorageError::Io {
                op: "open",
                path: path.display().to_string(),
                detail: "data file vanished".into(),
            });
        };
        let offset = u64::from(page.page) * FRAME_BYTES as u64;
        file.write_all_at(offset, &frame)
            .map_err(io_err("write", &path))?;
        let mut inner = lock(&self.inner);
        inner.stats.page_writes += 1;
        if !inner.touched.iter().any(|(id, _)| *id == page.file) {
            inner.touched.push((page.file, file));
        }
        Ok(())
    }

    fn file_pages(&self, file: FileId) -> Result<u32, StorageError> {
        let path = Self::data_path(&self.dir, file);
        match fs::metadata(&path) {
            Ok(m) => Ok((m.len() / FRAME_BYTES as u64) as u32),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(StorageError::io("stat", &path, &e)),
        }
    }

    fn files(&self) -> Result<Vec<FileId>, StorageError> {
        let mut out = Vec::new();
        let entries = fs::read_dir(&self.dir).map_err(io_err("read_dir", &self.dir))?;
        for entry in entries {
            let entry = entry.map_err(io_err("read_dir", &self.dir))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix('f')
                .and_then(|rest| rest.strip_suffix(".rdb"))
                .and_then(|n| n.parse::<u32>().ok())
            {
                out.push(FileId(id));
            }
        }
        out.sort();
        Ok(out)
    }

    fn append(&self, record: &WalRecord) -> Result<Lsn, StorageError> {
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;
        // The mutex serializes appends, so allocation order is log order;
        // publication below is the lock-free handoff a checkpoint trusts.
        let lsn = self.tail.allocate();
        inner.entry.clear();
        encode_entry(lsn, record, &mut inner.entry);
        let len = inner.entry.len() as u64;
        // Rotate when this record would push the segment past its cap —
        // unless the segment is still empty (a record larger than the cap
        // gets an oversize segment to itself rather than rotating forever).
        if inner.wal_len > WAL_SEGMENT_HEADER as u64 && inner.wal_len + len > self.segment_bytes {
            let old_path = Self::segment_path(&self.dir, inner.wal_seq);
            inner
                .wal
                .sync_data()
                .map_err(io_err("sync", &old_path))?;
            let (wal, len) = Self::create_segment(&self.dir, inner.wal_seq + 1)?;
            inner.wal = wal;
            inner.wal_seq += 1;
            inner.wal_len = len;
        }
        inner.wal.write_all(&inner.entry).map_err(|e| {
            StorageError::io("append", &Self::segment_path(&self.dir, inner.wal_seq), &e)
        })?;
        inner.wal_len += len;
        inner.stats.wal_appends += 1;
        // Only now — the frame is on the segment — may the LSN be
        // published as framed (the harness (d) invariant).
        self.tail.publish(lsn);
        Ok(lsn)
    }

    fn wal(&self) -> Result<WalView, StorageError> {
        let base = lock(&self.inner).base_lsn;
        let mut out = WalView::default();
        let mut prev_seq: Option<u64> = None;
        for (seq, path) in Self::wal_segments(&self.dir)? {
            if prev_seq.is_some_and(|p| seq != p + 1) {
                out.truncated = true;
                break;
            }
            let bytes = fs::read(&path).map_err(io_err("read", &path))?;
            if parse_segment_header(&bytes) != Some(seq) {
                out.truncated = true;
                break;
            }
            let body = bytes.get(WAL_SEGMENT_HEADER..).unwrap_or(&[]);
            let view = decode_stream(body);
            out.clean_bytes += view.clean_bytes;
            out.entries.extend(view.entries);
            if view.truncated {
                out.truncated = true;
                break;
            }
            prev_seq = Some(seq);
        }
        out.entries.retain(|(lsn, _)| *lsn > base);
        Ok(out)
    }

    fn base_lsn(&self) -> Lsn {
        lock(&self.inner).base_lsn
    }

    fn read_catalog(&self) -> Result<Option<Vec<u8>>, StorageError> {
        let path = self.dir.join("catalog.rdb");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StorageError::io("read", &path, &e)),
        };
        let parsed = (|| {
            let len = le32(&bytes, 0)? as usize;
            let crc = le64(&bytes, 4)?;
            let blob = bytes.get(12..12 + len)?;
            if bytes.len() != 12 + len || checksum64(blob) != crc {
                return None;
            }
            Some(blob.to_vec())
        })();
        parsed
            .map(Some)
            .ok_or(StorageError::Corrupt("catalog blob (catalog.rdb)"))
    }

    fn checkpoint_done(&self, catalog: &[u8], end_lsn: Lsn) -> Result<(), StorageError> {
        // A checkpoint declares everything up to `end_lsn` durable in the
        // data files; an `end_lsn` beyond the framed high-water mark would
        // discard WAL coverage for records that were never logged.
        if end_lsn > self.tail.published() {
            return Err(StorageError::Corrupt(
                "checkpoint end_lsn beyond the framed WAL tail",
            ));
        }
        let mut framed = Vec::with_capacity(12 + catalog.len());
        framed.extend_from_slice(&(catalog.len() as u32).to_le_bytes());
        framed.extend_from_slice(&checksum64(catalog).to_le_bytes());
        framed.extend_from_slice(catalog);
        replace_file(&self.dir.join("catalog.rdb"), &framed)?;
        // Header advance is the commit point of the checkpoint: a crash
        // before it replays from the old base (data frames may be newer —
        // the per-page LSN guard skips those records); a crash after it
        // replays nothing older than `end_lsn`.
        write_meta(&self.dir.join("rdb.meta"), self.page_bytes, end_lsn)?;
        let mut inner = lock(&self.inner);
        inner.base_lsn = end_lsn;
        // Recycle the chain: start a fresh segment, then delete every
        // released one. A crash anywhere in here is harmless — the header
        // already advanced, so surviving old segments replay to nothing.
        let released = inner.wal_seq;
        let (wal, len) = Self::create_segment(&self.dir, released + 1)?;
        inner.wal = wal;
        inner.wal_seq = released + 1;
        inner.wal_len = len;
        drop(inner);
        for (seq, path) in Self::wal_segments(&self.dir)? {
            if seq <= released {
                match fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(StorageError::io("remove", &path, &e)),
                }
            }
        }
        Ok(())
    }

    fn sync(&self) -> Result<(), StorageError> {
        let mut inner = lock(&self.inner);
        let path = Self::segment_path(&self.dir, inner.wal_seq);
        inner.wal.sync_data().map_err(io_err("sync", &path))?;
        sync_pending(&mut inner.touched, |(id, handle)| {
            handle
                .file
                .sync_data()
                .map_err(|e| StorageError::io("sync", &Self::data_path(&self.dir, *id), &e))
        })?;
        inner.stats.syncs += 1;
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            // Relaxed: statistics; they publish no other data.
            page_reads: self.page_reads.load(Ordering::Relaxed),
            batch_reads: self.batch_reads.load(Ordering::Relaxed),
            ..lock(&self.inner).stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rdb-filestore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn page_with(bytes: &[u8]) -> Page {
        let mut p = Page::new(DURABLE_PAGE_BYTES);
        p.insert(bytes.to_vec()).unwrap();
        p
    }

    #[test]
    fn frames_roundtrip_across_reopen() {
        let dir = temp_dir("roundtrip");
        let pid = PageId::new(FileId(3), 2);
        {
            let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
            store.write_page(pid, &page_with(b"hello"), 17).unwrap();
            store.sync().unwrap();
            assert_eq!(store.file_pages(FileId(3)).unwrap(), 3);
        }
        let store = FilePageStore::open(&dir, 123).unwrap();
        assert_eq!(store.page_bytes(), DURABLE_PAGE_BYTES, "header wins over arg");
        let (page, lsn) = store.read_page(pid).unwrap().unwrap();
        assert_eq!(lsn, 17);
        assert_eq!(page.slot_bytes(0), Some(&b"hello"[..]));
        // Holes before the written frame read as None.
        assert_eq!(store.read_page(PageId::new(FileId(3), 0)).unwrap(), None);
        assert_eq!(store.read_page(PageId::new(FileId(3), 9)).unwrap(), None);
        assert_eq!(store.stats().page_reads, 1, "holes are not real reads");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_frame_is_a_typed_error() {
        let dir = temp_dir("torn");
        let pid = PageId::new(FileId(0), 0);
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        store.write_page(pid, &page_with(b"data"), 5).unwrap();
        drop(store);
        // Flip a payload byte.
        let path = FilePageStore::data_path(&dir, FileId(0));
        let mut bytes = fs::read(&path).unwrap();
        bytes[FRAME_HEADER + 2] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        assert_eq!(
            store.read_page(pid),
            Err(StorageError::TornPage {
                file: FileId(0),
                page: 0
            })
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file under `dir`, by name, with its bytes.
    fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| (e.file_name().into_string().unwrap(), fs::read(e.path()).unwrap()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn older_format_directory_is_refused_and_left_as_it_was() {
        let dir = temp_dir("oldformat");
        fs::create_dir_all(&dir).unwrap();
        // A version-2 directory: its header, one WAL segment with a record
        // stream and one data file. Every checksum in it came from the old
        // function, so to this build the segment and the frame look like
        // damage — which is why the version test has to come first.
        let mut meta = Vec::new();
        meta.extend_from_slice(&META_MAGIC.to_le_bytes());
        meta.extend_from_slice(&2u32.to_le_bytes());
        meta.extend_from_slice(&(DURABLE_PAGE_BYTES as u32).to_le_bytes());
        meta.extend_from_slice(&7u64.to_le_bytes());
        meta.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        fs::write(dir.join("rdb.meta"), &meta).unwrap();
        let mut segment = Vec::new();
        segment.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        segment.extend_from_slice(&1u32.to_le_bytes());
        segment.extend_from_slice(&1u64.to_le_bytes());
        segment.extend_from_slice(&[0x5A; 8 + 57]); // header sum + a record stream
        fs::write(FilePageStore::segment_path(&dir, 1), &segment).unwrap();
        fs::write(FilePageStore::segment_path(&dir, 2), &segment).unwrap();
        let mut frame = vec![0xC3u8; FRAME_BYTES + 100]; // one frame and a torn tail
        frame[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
        fs::write(FilePageStore::data_path(&dir, FileId(0)), &frame).unwrap();
        fs::write(dir.join("catalog.rdb"), b"old catalog").unwrap();

        let before = snapshot(&dir);
        for _ in 0..2 {
            match FilePageStore::open(&dir, DURABLE_PAGE_BYTES) {
                Err(StorageError::Corrupt(what)) => assert!(
                    what.contains("unsupported format version"),
                    "the error must name the cause: {what}"
                ),
                other => panic!("a version-2 directory must be refused, got {other:?}"),
            }
            assert_eq!(
                snapshot(&dir),
                before,
                "no segment deleted, no tail truncated, no meta rewritten, nothing added"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fsync_keeps_its_file_and_the_rest_on_the_worklist() {
        let disk_full = || StorageError::Io {
            op: "sync",
            path: "f2.rdb".into(),
            detail: "disk full".into(),
        };
        let mut pending = vec![1u32, 2, 3];
        let mut attempted = Vec::new();
        let result = sync_pending(&mut pending, |file| {
            attempted.push(*file);
            if *file == 2 {
                Err(disk_full())
            } else {
                Ok(())
            }
        });
        assert_eq!(result, Err(disk_full()), "the failure is the caller's");
        assert_eq!(attempted, vec![1, 2], "the pass stops at the failure");
        assert_eq!(pending, vec![2, 3], "only the file that synced left the list");
        // The retry syncs exactly what is still owed, then the list is dry.
        let mut retried = Vec::new();
        let result = sync_pending(&mut pending, |file| {
            retried.push(*file);
            Ok(())
        });
        assert_eq!(result, Ok(()));
        assert_eq!(retried, vec![2, 3]);
        assert!(pending.is_empty());
    }

    #[test]
    fn sync_drains_the_worklist_through_the_cached_handles() {
        let dir = temp_dir("syncdrain");
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        for f in [0u32, 1, 0, 2] {
            store
                .write_page(PageId::new(FileId(f), 0), &page_with(b"x"), 1)
                .unwrap();
        }
        assert_eq!(lock(&store.inner).touched.len(), 3, "one entry per file");
        assert_eq!(lock(&store.files).len(), 3, "one handle per file, opened once");
        store.sync().unwrap();
        assert!(lock(&store.inner).touched.is_empty());
        assert_eq!(store.stats().syncs, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_appends_survive_reopen_and_tail_tear() {
        let dir = temp_dir("wal");
        {
            let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
            store.append(&WalRecord::CheckpointBegin).unwrap();
            store
                .append(&WalRecord::Catalog { blob: vec![1, 2] })
                .unwrap();
        }
        // Tear the tail mid-record.
        let wal_path = FilePageStore::segment_path(&dir, 1);
        let len = fs::metadata(&wal_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        let view = store.wal().unwrap();
        assert_eq!(view.entries.len(), 1, "torn record discarded");
        // New appends continue past the surviving log: the torn record was
        // never durable, so its LSN is legitimately reusable.
        let lsn = store.append(&WalRecord::CheckpointBegin).unwrap();
        assert!(lsn > 1, "LSNs stay monotonic after a tear (got {lsn})");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_run_matches_read_page_and_isolates_torn_frames() {
        let dir = temp_dir("readrun");
        let fid = FileId(1);
        {
            let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
            for p in [0u32, 1, 3, 4] {
                // Page 2 stays a hole.
                let image = page_with(format!("p{p}").as_bytes());
                store
                    .write_page(PageId::new(fid, p), &image, p as Lsn + 1)
                    .unwrap();
            }
        }
        // Tear frame 3's payload.
        let path = FilePageStore::data_path(&dir, fid);
        let mut bytes = fs::read(&path).unwrap();
        bytes[3 * FRAME_BYTES + FRAME_HEADER] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        // The run spans a hole, a torn frame, and EOF (pages 5..7).
        let run = store.read_run(fid, 0, 7);
        assert_eq!(run.len(), 7);
        let stats = store.stats();
        assert_eq!(stats.batch_reads, 1, "one positioned read for the run");
        assert_eq!(stats.page_reads, 3, "only intact frames count as reads");
        for (i, got) in run.into_iter().enumerate() {
            let single = store.read_page(PageId::new(fid, i as u32));
            assert_eq!(got, single, "page {i} must match the per-page path");
        }
        assert_eq!(
            store.read_run(FileId(42), 0, 3),
            vec![Ok(None), Ok(None), Ok(None)],
            "missing data file reads as holes"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_rotates_into_capped_segments_and_replays_across_them() {
        let dir = temp_dir("segrotate");
        let n = 40u64;
        {
            // A tiny cap forces rotation every couple of records.
            let store = FilePageStore::open_with(&dir, DURABLE_PAGE_BYTES, 96).unwrap();
            for i in 0..n {
                store
                    .append(&WalRecord::Catalog { blob: vec![i as u8; 16] })
                    .unwrap();
            }
            let segments = FilePageStore::wal_segments(&dir).unwrap();
            assert!(
                segments.len() > 3,
                "the cap must force rotation ({} segments)",
                segments.len()
            );
            for (seq, path) in &segments {
                let bytes = fs::read(path).unwrap();
                assert_eq!(parse_segment_header(&bytes), Some(*seq));
            }
            let view = store.wal().unwrap();
            assert_eq!(view.entries.len() as u64, n);
        }
        // Reopen: recovery walks the whole chain in order.
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        let view = store.wal().unwrap();
        assert_eq!(view.entries.len() as u64, n);
        let lsns: Vec<Lsn> = view.entries.iter().map(|(l, _)| *l).collect();
        assert!(lsns.windows(2).all(|w| w[0] < w[1]), "LSNs stay ordered");
        // New appends continue the chain past everything recovered.
        let lsn = store.append(&WalRecord::CheckpointBegin).unwrap();
        assert_eq!(lsn, n + 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cut_inside_a_segment_drops_everything_after_it() {
        let dir = temp_dir("segcut");
        {
            let store = FilePageStore::open_with(&dir, DURABLE_PAGE_BYTES, 96).unwrap();
            for i in 0..20u64 {
                store
                    .append(&WalRecord::Catalog { blob: vec![i as u8; 16] })
                    .unwrap();
            }
        }
        let segments = FilePageStore::wal_segments(&dir).unwrap();
        assert!(segments.len() >= 4, "need a chain to cut into");
        // Cut a few bytes into the *second* segment's record stream.
        let (victim_seq, victim_path) = segments[1].clone();
        let len = fs::metadata(&victim_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&victim_path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        let view = store.wal().unwrap();
        assert!(!view.entries.is_empty(), "records before the cut survive");
        // Every surviving record predates the victim's torn tail, and the
        // segments after the victim are gone.
        let survivors = FilePageStore::wal_segments(&dir).unwrap();
        assert!(
            survivors.iter().all(|(seq, _)| *seq <= victim_seq),
            "segments after the cut must be deleted: {survivors:?}"
        );
        // Appends resume on the truncated segment and stay readable.
        store.append(&WalRecord::CheckpointBegin).unwrap();
        let after = store.wal().unwrap();
        assert_eq!(after.entries.len(), view.entries.len() + 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_segment_header_ends_the_log_there() {
        let dir = temp_dir("seghdr");
        {
            let store = FilePageStore::open_with(&dir, DURABLE_PAGE_BYTES, 96).unwrap();
            for i in 0..20u64 {
                store
                    .append(&WalRecord::Catalog { blob: vec![i as u8; 16] })
                    .unwrap();
            }
        }
        let segments = FilePageStore::wal_segments(&dir).unwrap();
        assert!(segments.len() >= 3);
        // Corrupt the third segment's header checksum.
        let (_, path) = segments[2].clone();
        let mut bytes = fs::read(&path).unwrap();
        bytes[17] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let before_cut: usize = segments[..2]
            .iter()
            .map(|(_, p)| {
                let b = fs::read(p).unwrap();
                decode_stream(&b[WAL_SEGMENT_HEADER..]).entries.len()
            })
            .sum();
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        assert_eq!(store.wal().unwrap().entries.len(), before_cut);
        let survivors = FilePageStore::wal_segments(&dir).unwrap();
        assert_eq!(survivors.len(), 2, "bad segment and later ones deleted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_recycles_the_segment_chain() {
        let dir = temp_dir("segrecycle");
        let store = FilePageStore::open_with(&dir, DURABLE_PAGE_BYTES, 96).unwrap();
        for i in 0..20u64 {
            store
                .append(&WalRecord::Catalog { blob: vec![i as u8; 16] })
                .unwrap();
        }
        let before = FilePageStore::wal_segments(&dir).unwrap();
        assert!(before.len() > 2);
        let high = before.last().unwrap().0;
        let end = store.append(&WalRecord::CheckpointEnd { begin: 1 }).unwrap();
        store.checkpoint_done(b"CAT", end).unwrap();
        let after = FilePageStore::wal_segments(&dir).unwrap();
        assert_eq!(after.len(), 1, "one fresh segment after recycle");
        assert_eq!(after[0].0, high + 1, "sequence numbers never reused");
        assert!(store.wal().unwrap().entries.is_empty());
        // The recycled chain keeps working across reopen.
        drop(store);
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        assert_eq!(store.base_lsn(), end);
        store.append(&WalRecord::CheckpointBegin).unwrap();
        assert_eq!(store.wal().unwrap().entries.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_persists_catalog_and_releases_wal() {
        let dir = temp_dir("ckpt");
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        store.append(&WalRecord::CheckpointBegin).unwrap();
        let end = store
            .append(&WalRecord::CheckpointEnd { begin: 1 })
            .unwrap();
        store.checkpoint_done(b"CATALOG", end).unwrap();
        assert!(store.wal().unwrap().entries.is_empty());
        drop(store);
        let store = FilePageStore::open(&dir, DURABLE_PAGE_BYTES).unwrap();
        assert_eq!(store.base_lsn(), end);
        assert_eq!(store.read_catalog().unwrap(), Some(b"CATALOG".to_vec()));
        assert!(store.wal().unwrap().entries.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
