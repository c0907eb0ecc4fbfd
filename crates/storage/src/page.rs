//! Slotted data pages.
//!
//! Records live in fixed-capacity slotted pages. The slot array gives each
//! record a stable [`crate::Rid`] `(page, slot)` even as other records on
//! the page are deleted; byte accounting enforces the page capacity so page
//! counts — and therefore simulated I/O costs — track record sizes the way
//! they would on disk.

use crate::error::StorageError;
use crate::record::Record;

/// Default page capacity in bytes (payload area).
pub const DEFAULT_PAGE_BYTES: usize = 8192;

/// Per-slot bookkeeping overhead, in bytes, counted against the capacity.
const SLOT_OVERHEAD: usize = 4;

/// One slotted page of serialized records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    capacity: usize,
    used: usize,
    slots: Vec<Option<Vec<u8>>>,
    live: u16,
}

impl Page {
    /// Creates an empty page with `capacity` payload bytes.
    pub fn new(capacity: usize) -> Self {
        Page {
            capacity,
            used: 0,
            slots: Vec::new(),
            live: 0,
        }
    }

    /// Payload capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes used (record payloads + slot overhead).
    pub fn used(&self) -> usize {
        self.used
    }

    /// Number of live (non-deleted) records.
    pub fn live_records(&self) -> u16 {
        self.live
    }

    /// Number of slots ever allocated (live + deleted).
    pub fn slot_count(&self) -> u16 {
        self.slots.len() as u16
    }

    /// True if a record of `record_bytes` payload bytes fits.
    pub fn fits(&self, record_bytes: usize) -> bool {
        self.used + record_bytes + SLOT_OVERHEAD <= self.capacity
            && self.slots.len() < u16::MAX as usize
    }

    /// Inserts an encoded record, returning its slot.
    ///
    /// Callers must check [`Page::fits`] first; inserting into a full page
    /// returns `RecordTooLarge`.
    pub fn insert(&mut self, bytes: Vec<u8>) -> Result<u16, StorageError> {
        if !self.fits(bytes.len()) {
            return Err(StorageError::RecordTooLarge {
                size: bytes.len(),
                max: self.capacity.saturating_sub(self.used + SLOT_OVERHEAD),
            });
        }
        self.used += bytes.len() + SLOT_OVERHEAD;
        self.slots.push(Some(bytes));
        self.live += 1;
        Ok((self.slots.len() - 1) as u16)
    }

    /// Raw bytes of the record in `slot`, if live.
    pub fn slot_bytes(&self, slot: u16) -> Option<&[u8]> {
        self.slots.get(slot as usize)?.as_deref()
    }

    /// Decodes the record in `slot`.
    pub fn record(&self, slot: u16) -> Result<Record, StorageError> {
        let bytes = self.slot_bytes(slot).ok_or(StorageError::InvalidSlot {
            page: 0,
            slot,
        })?;
        Record::decode(bytes)
    }

    /// Deletes the record in `slot`; the slot number is never reused.
    pub fn delete(&mut self, slot: u16) -> Result<(), StorageError> {
        let entry = self
            .slots
            .get_mut(slot as usize)
            .ok_or(StorageError::InvalidSlot { page: 0, slot })?;
        match entry.take() {
            Some(bytes) => {
                self.used -= bytes.len() + SLOT_OVERHEAD;
                self.live -= 1;
                Ok(())
            }
            None => Err(StorageError::InvalidSlot { page: 0, slot }),
        }
    }

    /// Iterates `(slot, bytes)` over live records.
    pub fn iter_live(&self) -> impl Iterator<Item = (u16, &[u8])> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_deref().map(|b| (i as u16, b)))
    }

    /// Size in bytes of this page's serialized image (see
    /// [`Page::encode_image`]): the slot-count word plus a length word per
    /// slot (tombstones included) plus the live payload bytes. O(1): the
    /// live payload bytes are `used` less the live slots' overhead.
    pub fn image_len(&self) -> usize {
        2 + 2 * self.slots.len() + self.used - SLOT_OVERHEAD * usize::from(self.live)
    }

    /// Serializes the page into `out` as a self-describing image:
    ///
    /// ```text
    /// u16 slot_count | per slot: u16 len + bytes, or 0xFFFF (tombstone)
    /// ```
    ///
    /// Slot numbers — and therefore RIDs — survive the round trip exactly,
    /// tombstones included. Errors only if a record is too long for the
    /// `u16` length word (impossible for disk-sized pages).
    pub fn encode_image(&self, out: &mut Vec<u8>) -> Result<(), StorageError> {
        const TOMBSTONE: u16 = u16::MAX;
        out.extend_from_slice(&(self.slots.len() as u16).to_le_bytes());
        for slot in &self.slots {
            match slot {
                Some(bytes) => {
                    if bytes.len() >= TOMBSTONE as usize {
                        return Err(StorageError::Corrupt("record too long for page image"));
                    }
                    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                    out.extend_from_slice(bytes);
                }
                None => out.extend_from_slice(&TOMBSTONE.to_le_bytes()),
            }
        }
        Ok(())
    }

    /// **The** walk over an encoded image (see [`Page::encode_image`]):
    /// calls `visit` once per slot in slot order — `Some(bytes)` for a live
    /// record, `None` for a tombstone — and checks the image's structure
    /// on the way (every length word and payload inside `buf`, nothing
    /// left over). [`Page::decode_image`] builds a page with it; a frame
    /// verify runs it with [`Page::check_image`]'s no-op visitor, so both
    /// accept exactly the same images.
    fn walk_image(
        buf: &[u8],
        mut visit: impl FnMut(Option<&[u8]>),
    ) -> Result<(), StorageError> {
        const TOMBSTONE: u16 = u16::MAX;
        fn word(rest: &[u8]) -> Result<(u16, &[u8]), StorageError> {
            let (word, rest) = rest
                .split_first_chunk::<2>()
                .ok_or(StorageError::Corrupt("truncated page image"))?;
            Ok((u16::from_le_bytes(*word), rest))
        }
        let (slot_count, mut rest) = word(buf)?;
        for _ in 0..slot_count {
            let (len, after) = word(rest)?;
            rest = after;
            if len == TOMBSTONE {
                visit(None);
                continue;
            }
            let (bytes, after) = rest
                .split_at_checked(len as usize)
                .ok_or(StorageError::Corrupt("truncated page image payload"))?;
            rest = after;
            visit(Some(bytes));
        }
        if !rest.is_empty() {
            return Err(StorageError::Corrupt("trailing bytes after page image"));
        }
        Ok(())
    }

    /// Checks that `buf` is a well-formed page image without building the
    /// page: `Ok` exactly when [`Page::decode_image`] would succeed.
    pub fn check_image(buf: &[u8]) -> Result<(), StorageError> {
        Self::walk_image(buf, |_| {})
    }

    /// Reconstructs a page of `capacity` payload bytes from an image
    /// produced by [`Page::encode_image`]. Byte accounting (`used`, live
    /// count) is recomputed from the decoded slots.
    pub fn decode_image(capacity: usize, buf: &[u8]) -> Result<Page, StorageError> {
        let mut page = Page::new(capacity);
        Self::walk_image(buf, |slot| {
            if let Some(bytes) = slot {
                page.used += bytes.len() + SLOT_OVERHEAD;
                page.live += 1;
            }
            page.slots.push(slot.map(<[u8]>::to_vec));
        })?;
        Ok(page)
    }

    /// Redo-applies an insert of `bytes` at exactly `slot`, growing the
    /// slot array with tombstones if needed. Used only by WAL replay, which
    /// knows the slot a logged insert landed on; an already-occupied slot
    /// is overwritten (replay is idempotent under the caller's LSN guard).
    pub fn apply_insert_at(&mut self, slot: u16, bytes: Vec<u8>) {
        let at = slot as usize;
        while self.slots.len() <= at {
            self.slots.push(None);
        }
        if let Some(entry) = self.slots.get_mut(at) {
            if let Some(old) = entry.take() {
                self.used -= old.len() + SLOT_OVERHEAD;
                self.live -= 1;
            }
            self.used += bytes.len() + SLOT_OVERHEAD;
            self.live += 1;
            *entry = Some(bytes);
        }
    }

    /// Redo-applies a delete of `slot`. Deleting an absent or already-dead
    /// slot is a no-op (replay is idempotent under the caller's LSN guard).
    pub fn apply_delete_at(&mut self, slot: u16) {
        if let Some(entry) = self.slots.get_mut(slot as usize) {
            if let Some(old) = entry.take() {
                self.used -= old.len() + SLOT_OVERHEAD;
                self.live -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn encoded(rec: &Record) -> Vec<u8> {
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        buf
    }

    #[test]
    fn insert_and_read_back() {
        let mut page = Page::new(DEFAULT_PAGE_BYTES);
        let rec = Record::new(vec![Value::Int(7), Value::Str("x".into())]);
        let slot = page.insert(encoded(&rec)).unwrap();
        assert_eq!(page.record(slot).unwrap(), rec);
        assert_eq!(page.live_records(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut page = Page::new(64);
        let rec = Record::new(vec![Value::Str("0123456789012345678901234".into())]);
        let bytes = encoded(&rec);
        assert!(page.insert(bytes.clone()).is_ok());
        assert!(!page.fits(bytes.len()));
        assert!(page.insert(bytes).is_err());
    }

    #[test]
    fn delete_frees_space_but_not_slot_numbers() {
        let mut page = Page::new(DEFAULT_PAGE_BYTES);
        let rec = Record::new(vec![Value::Int(1)]);
        let s0 = page.insert(encoded(&rec)).unwrap();
        let s1 = page.insert(encoded(&rec)).unwrap();
        page.delete(s0).unwrap();
        assert!(page.slot_bytes(s0).is_none());
        assert!(page.slot_bytes(s1).is_some());
        let s2 = page.insert(encoded(&rec)).unwrap();
        assert_ne!(s2, s0, "slots are never reused");
        assert_eq!(page.live_records(), 2);
    }

    #[test]
    fn double_delete_is_an_error() {
        let mut page = Page::new(DEFAULT_PAGE_BYTES);
        let slot = page
            .insert(encoded(&Record::new(vec![Value::Int(1)])))
            .unwrap();
        page.delete(slot).unwrap();
        assert!(page.delete(slot).is_err());
    }

    #[test]
    fn image_roundtrip_preserves_slots_and_tombstones() {
        let mut page = Page::new(DEFAULT_PAGE_BYTES);
        for i in 0..6 {
            page.insert(encoded(&Record::new(vec![Value::Int(i)]))).unwrap();
        }
        page.delete(1).unwrap();
        page.delete(4).unwrap();
        let mut buf = Vec::new();
        page.encode_image(&mut buf).unwrap();
        assert_eq!(buf.len(), page.image_len());
        let back = Page::decode_image(DEFAULT_PAGE_BYTES, &buf).unwrap();
        assert_eq!(back.used(), page.used());
        assert_eq!(back.live_records(), page.live_records());
        assert_eq!(back.slot_count(), page.slot_count());
        for slot in 0..page.slot_count() {
            assert_eq!(back.slot_bytes(slot), page.slot_bytes(slot));
        }
    }

    #[test]
    fn image_decode_rejects_truncation_and_trailing_garbage() {
        let mut page = Page::new(DEFAULT_PAGE_BYTES);
        page.insert(encoded(&Record::new(vec![Value::Int(9)]))).unwrap();
        let mut buf = Vec::new();
        page.encode_image(&mut buf).unwrap();
        assert!(Page::decode_image(DEFAULT_PAGE_BYTES, &buf[..buf.len() - 1]).is_err());
        let mut long = buf.clone();
        long.push(0);
        assert!(Page::decode_image(DEFAULT_PAGE_BYTES, &long).is_err());
        // The no-op walk accepts and rejects exactly the same images.
        assert!(Page::check_image(&buf).is_ok());
        assert!(Page::check_image(&buf[..buf.len() - 1]).is_err());
        assert!(Page::check_image(&long).is_err());
        assert!(Page::check_image(&[]).is_err());
    }

    #[test]
    fn apply_insert_and_delete_replay_exact_slots() {
        let mut page = Page::new(DEFAULT_PAGE_BYTES);
        let bytes = encoded(&Record::new(vec![Value::Int(3)]));
        page.apply_insert_at(2, bytes.clone());
        assert_eq!(page.slot_count(), 3);
        assert_eq!(page.slot_bytes(2), Some(bytes.as_slice()));
        assert!(page.slot_bytes(0).is_none());
        assert_eq!(page.live_records(), 1);
        page.apply_delete_at(2);
        assert_eq!(page.live_records(), 0);
        assert_eq!(page.used(), 0);
        // Idempotent on dead/absent slots.
        page.apply_delete_at(2);
        page.apply_delete_at(40);
        assert_eq!(page.live_records(), 0);
    }

    #[test]
    fn iter_live_skips_deleted() {
        let mut page = Page::new(DEFAULT_PAGE_BYTES);
        for i in 0..5 {
            page.insert(encoded(&Record::new(vec![Value::Int(i)])))
                .unwrap();
        }
        page.delete(2).unwrap();
        let slots: Vec<u16> = page.iter_live().map(|(s, _)| s).collect();
        assert_eq!(slots, vec![0, 1, 3, 4]);
    }
}
