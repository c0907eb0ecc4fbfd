//! Records (tuples) and their binary codec.

use crate::error::StorageError;
use crate::value::Value;

/// A row: an ordered list of [`Value`]s matching some [`crate::Schema`].
/// The default is the empty record — what a scan's scratch record starts
/// as and what `std::mem::take` leaves behind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record(Vec<Value>);

impl Record {
    /// Creates a record from values.
    pub fn new(values: Vec<Value>) -> Self {
        Record(values)
    }

    /// The values in column order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the record has no columns.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Value of column `idx`.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// Consumes the record, yielding its values.
    pub fn into_values(self) -> Vec<Value> {
        self.0
    }

    /// Serialized size under [`Record::encode`].
    pub fn encoded_len(&self) -> usize {
        2 + self.0.iter().map(Value::encoded_len).sum::<usize>()
    }

    /// Appends the binary encoding (u16 arity + values) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        debug_assert!(self.0.len() <= u16::MAX as usize);
        out.extend_from_slice(&(self.0.len() as u16).to_le_bytes());
        for v in &self.0 {
            v.encode(out);
        }
    }

    /// Decodes a record from the exact byte slice produced by `encode`.
    pub fn decode(buf: &[u8]) -> Result<Record, StorageError> {
        let mut record = Record::default();
        record.decode_into(buf)?;
        Ok(record)
    }

    /// [`Record::decode`] into `self`, reusing its allocation — the
    /// scratch-record path of scans that look at many rows and keep few.
    /// Nothing of the previous contents survives, on success or on error
    /// (an `Err` leaves the record empty).
    pub fn decode_into(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        self.0.clear();
        let out = self.fill_from(buf);
        if out.is_err() {
            self.0.clear();
        }
        out
    }

    /// The one value-decoding path under `decode` and `decode_into`;
    /// `self` is empty on entry.
    fn fill_from(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        let mut pos = 0;
        if buf.len() < 2 {
            return Err(StorageError::Corrupt("record arity"));
        }
        let arity = u16::from_le_bytes([buf[0], buf[1]]) as usize;
        pos += 2;
        // Exact: a record that survives is kept at its own size.
        self.0.reserve_exact(arity);
        for _ in 0..arity {
            self.0.push(Value::decode(buf, &mut pos)?);
        }
        if pos != buf.len() {
            return Err(StorageError::Corrupt("record trailing bytes"));
        }
        Ok(())
    }
}

impl From<Vec<Value>> for Record {
    fn from(values: Vec<Value>) -> Self {
        Record::new(values)
    }
}

impl std::ops::Index<usize> for Record {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let rec = Record::new(vec![
            Value::Int(5),
            Value::Null,
            Value::Str("abc".into()),
            Value::Float(-0.5),
        ]);
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(buf.len(), rec.encoded_len());
        assert_eq!(Record::decode(&buf).unwrap(), rec);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let rec = Record::new(vec![Value::Int(1)]);
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        buf.push(0);
        assert!(Record::decode(&buf).is_err());
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(Record::decode(&[1]).is_err());
    }

    #[test]
    fn decode_into_reuses_the_record_and_reports_decodes_errors() {
        let wide = Record::new(vec![Value::Str("previous row".into()), Value::Int(1), Value::Null]);
        let narrow = Record::new(vec![Value::Str("ab".into())]);
        let mut buf = Vec::new();
        narrow.encode(&mut buf);

        let mut scratch = wide.clone();
        scratch.decode_into(&buf).unwrap();
        assert_eq!(scratch, narrow, "nothing of the wider previous row survives");

        let short = &buf[..buf.len() - 1];
        let mut trailing = buf.clone();
        trailing.push(0);
        let mut bad_tag = buf.clone();
        bad_tag[2] = 9;
        let mut bad_utf8 = buf.clone();
        *bad_utf8.last_mut().unwrap() = 0xFF;
        for (damaged, what) in [
            (short, "string length"),
            (&trailing[..], "record trailing bytes"),
            (&bad_tag[..], "value tag"),
            (&bad_utf8[..], "string utf8"),
        ] {
            let mut scratch = wide.clone();
            let err = scratch.decode_into(damaged).unwrap_err();
            assert_eq!(err, StorageError::Corrupt(what));
            assert_eq!(Record::decode(damaged).unwrap_err(), err);
            assert!(scratch.is_empty(), "{what}: a failed decode leaves no stale values");
        }
    }

    #[test]
    fn empty_record_roundtrips() {
        let rec = Record::new(vec![]);
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(Record::decode(&buf).unwrap(), rec);
    }
}
