//! Write-ahead-log records and their on-disk framing.
//!
//! Every durable mutation appends one [`WalRecord`] stamped with a
//! monotonically increasing [`Lsn`]. The log is redo-only (ARIES-lite):
//! recovery replays the tail of the log after the last checkpoint, guarded
//! by per-page LSNs, and the first modification of a page after a
//! checkpoint logs a **full page image** so a torn data-page write can be
//! repaired from the log alone (the same reasoning as Postgres's
//! `full_page_writes`).
//!
//! On disk, each record is framed as:
//!
//! ```text
//! u32 body_len | u64 checksum(body) | body
//! body := u64 lsn | u8 kind | kind-specific payload
//! ```
//!
//! A crash mid-append leaves a short or corrupt final frame; the decoder
//! treats the first frame that fails its length or checksum as the end of
//! the log, which is exactly crash semantics: everything before the tear
//! is recovered, the torn tail never happened.
//!
//! # The checksum
//!
//! [`checksum64`] / [`checksum64_seeded`] are the one checksum family of
//! the durable format: WAL records, segment headers, data frames,
//! `rdb.meta` and `catalog.rdb` all use it. The input is cut into 32-byte
//! blocks of four little-endian `u64` words (a short tail is zero-padded
//! to one more block); word `i` of every block is absorbed into lane `i`
//! as `lane = rotl((lane ^ word) * ODD, 29)`. The four lanes carry no
//! dependency on each other, so the multiplies pipeline and the loop runs
//! at about a word per cycle instead of a byte per multiply latency. The
//! lanes are then folded into `seed ^ len * ODD` by the same kind of step
//! and the result is avalanched.
//!
//! Detection argument: for a fixed lane state the step is a bijection of
//! the word, and for a fixed word a bijection of the lane state; the fold
//! is a bijection of each lane with the others held, and of the seed; the
//! avalanche is a bijection. So two inputs of equal length that differ in
//! exactly one word — every single-bit flip, every byte error — always
//! get different sums, as with FNV-1a, and so do equal inputs under
//! different seeds. Wider damage (a torn sector, a misdirected write) is
//! left to the 64 bits of mixing, as with any checksum; the length fold
//! separates a zero-padded tail from real trailing zeros. Not
//! cryptographic.
//!
//! The seeded form chains: a data frame is summed in place as
//! `checksum64_seeded(checksum64(header fields), payload)` with no
//! concatenating copy.

use crate::buffer::{FileId, PageId};
use crate::error::StorageError;

/// Log sequence number: a monotonically increasing stamp over every WAL
/// record and every flushed page frame. `0` means "never stamped".
pub type Lsn = u64;

/// One redo record. `PageImage` carries a full [`crate::page::Page`] image
/// (encoded by [`crate::page::Page::encode_image`]); `Insert`/`Delete` are
/// logical deltas against a known slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Full image of `page` — logged on the first modification of a page
    /// after a checkpoint, and the repair source for torn frames.
    PageImage {
        /// The page the image belongs to.
        page: PageId,
        /// The encoded page image.
        image: Vec<u8>,
    },
    /// A record insert: `bytes` landed on exactly (`page`, `slot`).
    Insert {
        /// The page written.
        page: PageId,
        /// The slot the record landed on.
        slot: u16,
        /// The encoded record payload.
        bytes: Vec<u8>,
    },
    /// A record delete at (`page`, `slot`).
    Delete {
        /// The page written.
        page: PageId,
        /// The slot tombstoned.
        slot: u16,
    },
    /// A full catalog snapshot (schemas, files, index definitions),
    /// logged on every DDL statement. Recovery honours the last one seen.
    Catalog {
        /// The serialized catalog blob (opaque to the storage layer).
        blob: Vec<u8>,
    },
    /// A fuzzy checkpoint started: dirty pages are about to be written
    /// back concurrently with (logically) ongoing appends.
    CheckpointBegin,
    /// The checkpoint that began at `begin` finished writing every dirty
    /// page; the log before `begin` is no longer needed.
    CheckpointEnd {
        /// LSN of the matching [`WalRecord::CheckpointBegin`].
        begin: Lsn,
    },
}

/// Bytes per checksum block: four little-endian `u64` lanes.
const SUM_BLOCK: usize = 32;
/// Lane start values (arbitrary, distinct).
const SUM_LANES: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
];
/// Odd multiplier of the lane step (odd ⇒ the step is a bijection).
const SUM_LANE_MUL: u64 = 0x9E37_79B1_85EB_CA87;
/// Odd multiplier of the fold step.
const SUM_FOLD_MUL: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Absorbs one block: word `i` into lane `i`.
#[inline]
fn absorb(lanes: &mut [u64; 4], block: &[u8; SUM_BLOCK]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        // `chunks_exact(8)` only yields 8-byte slices; the fallback is dead.
        let word = u64::from_le_bytes(word.try_into().unwrap_or([0; 8]));
        *lane = (*lane ^ word).wrapping_mul(SUM_LANE_MUL).rotate_left(29);
    }
}

/// The durable format's 64-bit checksum of `bytes`, continuing from
/// `seed` (see the module docs for the construction and what it detects).
/// `seed` is typically the sum of a header, so header and payload are
/// covered by one stored word without being copied together.
pub fn checksum64_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut lanes = SUM_LANES;
    let mut blocks = bytes.chunks_exact(SUM_BLOCK);
    for block in &mut blocks {
        if let Some(block) = block.first_chunk::<SUM_BLOCK>() {
            absorb(&mut lanes, block);
        }
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; SUM_BLOCK];
        if let Some(head) = padded.get_mut(..tail.len()) {
            head.copy_from_slice(tail);
        }
        absorb(&mut lanes, &padded);
    }
    let mut sum = seed ^ (bytes.len() as u64).wrapping_mul(SUM_LANE_MUL);
    for lane in lanes {
        sum = (sum ^ lane).wrapping_mul(SUM_FOLD_MUL).rotate_left(27);
    }
    // Avalanche (the splitmix64 finalizer; every step is a bijection).
    sum ^= sum >> 30;
    sum = sum.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    sum ^= sum >> 27;
    sum = sum.wrapping_mul(0x94D0_49BB_1331_11EB);
    sum ^ (sum >> 31)
}

/// [`checksum64_seeded`] from seed 0: the checksum of WAL records,
/// segment headers, `rdb.meta`, the catalog blob and frame headers. Not
/// cryptographic — it detects torn writes and bit rot, which is all a
/// single-node log needs.
pub fn checksum64(bytes: &[u8]) -> u64 {
    checksum64_seeded(0, bytes)
}

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_INSERT: u8 = 2;
const KIND_DELETE: u8 = 3;
const KIND_CATALOG: u8 = 4;
const KIND_CKPT_BEGIN: u8 = 5;
const KIND_CKPT_END: u8 = 6;

fn put_page(out: &mut Vec<u8>, page: PageId) {
    out.extend_from_slice(&page.file.0.to_le_bytes());
    out.extend_from_slice(&page.page.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Bytes of framing before a record body: `u32 body_len | u64 checksum`.
const ENTRY_HEADER: usize = 12;

/// Appends the body of (`lsn`, `record`) to `out`.
fn encode_body(lsn: Lsn, record: &WalRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&lsn.to_le_bytes());
    match record {
        WalRecord::PageImage { page, image } => {
            out.push(KIND_PAGE_IMAGE);
            put_page(out, *page);
            put_bytes(out, image);
        }
        WalRecord::Insert { page, slot, bytes } => {
            out.push(KIND_INSERT);
            put_page(out, *page);
            out.extend_from_slice(&slot.to_le_bytes());
            put_bytes(out, bytes);
        }
        WalRecord::Delete { page, slot } => {
            out.push(KIND_DELETE);
            put_page(out, *page);
            out.extend_from_slice(&slot.to_le_bytes());
        }
        WalRecord::Catalog { blob } => {
            out.push(KIND_CATALOG);
            put_bytes(out, blob);
        }
        WalRecord::CheckpointBegin => out.push(KIND_CKPT_BEGIN),
        WalRecord::CheckpointEnd { begin } => {
            out.push(KIND_CKPT_END);
            out.extend_from_slice(&begin.to_le_bytes());
        }
    }
}

/// Appends the framed form of (`lsn`, `record`) to `out`. The body is
/// written in place behind a placeholder header that is patched once the
/// body's length and checksum are known — one buffer, no staging copy.
pub fn encode_entry(lsn: Lsn, record: &WalRecord, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0u8; ENTRY_HEADER]);
    encode_body(lsn, record, out);
    if let Some((header, body)) = out
        .get_mut(start..)
        .and_then(|entry| entry.split_first_chunk_mut::<ENTRY_HEADER>())
    {
        let (len, sum) = header.split_at_mut(4);
        len.copy_from_slice(&(body.len() as u32).to_le_bytes());
        sum.copy_from_slice(&checksum64(body).to_le_bytes());
    }
}

/// A byte-slice cursor for the little-endian WAL/frame codecs.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.buf.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|b| b.first().copied())
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .and_then(|b| b.try_into().ok())
            .map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }

    fn page(&mut self) -> Option<PageId> {
        let file = self.u32()?;
        let page = self.u32()?;
        Some(PageId::new(FileId(file), page))
    }

    fn bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.u32()? as usize;
        self.take(len).map(<[u8]>::to_vec)
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

fn decode_body(body: &[u8]) -> Option<(Lsn, WalRecord)> {
    let mut cur = Cursor::new(body);
    let lsn = cur.u64()?;
    let record = match cur.u8()? {
        KIND_PAGE_IMAGE => WalRecord::PageImage {
            page: cur.page()?,
            image: cur.bytes()?,
        },
        KIND_INSERT => WalRecord::Insert {
            page: cur.page()?,
            slot: cur.u16()?,
            bytes: cur.bytes()?,
        },
        KIND_DELETE => WalRecord::Delete {
            page: cur.page()?,
            slot: cur.u16()?,
        },
        KIND_CATALOG => WalRecord::Catalog { blob: cur.bytes()? },
        KIND_CKPT_BEGIN => WalRecord::CheckpointBegin,
        KIND_CKPT_END => WalRecord::CheckpointEnd { begin: cur.u64()? },
        _ => return None,
    };
    if !cur.done() {
        return None;
    }
    Some((lsn, record))
}

/// The decoded view of a WAL byte stream.
#[derive(Debug, Clone, Default)]
pub struct WalView {
    /// Every complete, checksum-clean entry, in append order.
    pub entries: Vec<(Lsn, WalRecord)>,
    /// Byte offset of the first frame that failed to decode — the torn
    /// tail boundary. Equals the stream length on a clean log.
    pub clean_bytes: usize,
    /// True when trailing bytes were discarded as a torn tail.
    pub truncated: bool,
}

/// Decodes a WAL byte stream, stopping (without error) at the first torn
/// or incomplete frame: a crash mid-append is expected, not corruption.
pub fn decode_stream(buf: &[u8]) -> WalView {
    let mut view = WalView::default();
    let mut at = 0usize;
    loop {
        let Some(header) = buf.get(at..at + ENTRY_HEADER) else {
            view.truncated = at < buf.len();
            break;
        };
        let mut cur = Cursor::new(header);
        let (Some(len), Some(crc)) = (cur.u32(), cur.u64()) else {
            view.truncated = true;
            break;
        };
        let Some(body) = buf.get(at + ENTRY_HEADER..at + ENTRY_HEADER + len as usize) else {
            view.truncated = true;
            break;
        };
        if checksum64(body) != crc {
            view.truncated = true;
            break;
        }
        let Some(entry) = decode_body(body) else {
            view.truncated = true;
            break;
        };
        view.entries.push(entry);
        at += ENTRY_HEADER + len as usize;
        view.clean_bytes = at;
        if at == buf.len() {
            break;
        }
    }
    view
}

/// Decodes one WAL record body (without framing). Used by the in-memory
/// store, whose log never tears.
pub fn decode_one(lsn_and_body: &[u8]) -> Result<(Lsn, WalRecord), StorageError> {
    decode_body(lsn_and_body).ok_or(StorageError::Corrupt("WAL record body"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Catalog { blob: vec![1, 2, 3] },
            WalRecord::PageImage {
                page: PageId::new(FileId(7), 3),
                image: vec![9; 40],
            },
            WalRecord::Insert {
                page: PageId::new(FileId(7), 3),
                slot: 11,
                bytes: vec![4, 5],
            },
            WalRecord::Delete {
                page: PageId::new(FileId(7), 3),
                slot: 11,
            },
            WalRecord::CheckpointBegin,
            WalRecord::CheckpointEnd { begin: 41 },
        ]
    }

    #[test]
    fn stream_roundtrip() {
        let records = sample_records();
        let mut buf = Vec::new();
        for (i, r) in records.iter().enumerate() {
            encode_entry(100 + i as u64, r, &mut buf);
        }
        let view = decode_stream(&buf);
        assert!(!view.truncated);
        assert_eq!(view.clean_bytes, buf.len());
        assert_eq!(view.entries.len(), records.len());
        for (i, (lsn, r)) in view.entries.iter().enumerate() {
            assert_eq!(*lsn, 100 + i as u64);
            assert_eq!(r, &records[i]);
        }
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let mut buf = Vec::new();
        encode_entry(1, &WalRecord::CheckpointBegin, &mut buf);
        let clean = buf.len();
        encode_entry(
            2,
            &WalRecord::Insert {
                page: PageId::new(FileId(0), 0),
                slot: 0,
                bytes: vec![1, 2, 3, 4],
            },
            &mut buf,
        );
        // Cut mid-record: everything after the first entry is a torn tail.
        for cut in clean + 1..buf.len() {
            let view = decode_stream(&buf[..cut]);
            assert_eq!(view.entries.len(), 1, "cut at {cut}");
            assert!(view.truncated);
            assert_eq!(view.clean_bytes, clean);
        }
    }

    #[test]
    fn corrupt_body_is_discarded() {
        let mut buf = Vec::new();
        encode_entry(1, &WalRecord::CheckpointBegin, &mut buf);
        encode_entry(2, &WalRecord::Catalog { blob: vec![5; 10] }, &mut buf);
        let n = buf.len();
        buf[n - 3] ^= 0xFF;
        let view = decode_stream(&buf);
        assert_eq!(view.entries.len(), 1);
        assert!(view.truncated);
    }

    /// The pinned vectors live in `tests/proptests.rs`; this is the shape
    /// of the family: seed 0 is the plain sum, the seed and the length
    /// both reach the result, a zero-padded tail is not trailing zeros.
    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum64(b"abc"), checksum64_seeded(0, b"abc"));
        assert_ne!(checksum64(b"abc"), checksum64(b"abd"));
        assert_ne!(checksum64(b"abc"), checksum64_seeded(1, b"abc"));
        assert_ne!(checksum64(b""), checksum64_seeded(1, b""));
        assert_ne!(checksum64(b"abc"), checksum64(b"abc\0"));
        assert_ne!(checksum64(&[0u8; 32]), checksum64(&[0u8; 64]));
    }

    /// `encode_entry` frames in place; the bytes must be exactly the staged
    /// layout it replaced: body built apart, then `len | sum | body`.
    #[test]
    fn in_place_framing_matches_the_staged_layout() {
        for (i, record) in sample_records().iter().enumerate() {
            let lsn = 100 + i as u64;
            let mut framed = vec![0xAA; 3]; // appends behind existing bytes
            encode_entry(lsn, record, &mut framed);

            let mut body = Vec::new();
            encode_body(lsn, record, &mut body);
            let mut staged = vec![0xAA; 3];
            staged.extend_from_slice(&(body.len() as u32).to_le_bytes());
            staged.extend_from_slice(&checksum64(&body).to_le_bytes());
            staged.extend_from_slice(&body);
            assert_eq!(framed, staged, "record {i}");
            assert_eq!(decode_one(&body).unwrap(), (lsn, record.clone()));
        }
        // ... and a body is `lsn | kind | payload`, byte for byte.
        let delete = WalRecord::Delete {
            page: PageId::new(FileId(7), 3),
            slot: 11,
        };
        let mut body = Vec::new();
        encode_body(0x0102, &delete, &mut body);
        assert_eq!(body, [2, 1, 0, 0, 0, 0, 0, 0, KIND_DELETE, 7, 0, 0, 0, 3, 0, 0, 0, 11, 0]);
    }
}
