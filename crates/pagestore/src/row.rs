//! Typed rows and their binary encoding.

use crate::table::StoreError;

/// One field value of a row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// 32-bit unsigned integer (ids, counts).
    U32(u32),
    /// 64-bit unsigned integer (keys, amounts in cents).
    U64(u64),
    /// 64-bit signed integer.
    I64(i64),
    /// Double-precision float (prices, balances).
    F64(f64),
    /// UTF-8 string (names, addresses, comment fields).
    Str(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    fn tag(&self) -> u8 {
        match self {
            Value::U32(_) => 0,
            Value::U64(_) => 1,
            Value::I64(_) => 2,
            Value::F64(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
        }
    }

    /// The key interpretation used by indexes: integer values cast to
    /// `u64`.
    ///
    /// # Panics
    ///
    /// Panics for non-integer values; schemas index integer columns
    /// only.
    pub fn as_key(&self) -> u64 {
        match self {
            Value::U32(v) => *v as u64,
            Value::U64(v) => *v,
            Value::I64(v) => *v as u64,
            other => panic!("value {other:?} cannot be an index key"),
        }
    }
}

/// A row: an ordered list of [`Value`]s plus a row header.
///
/// The header carries a transaction counter that the table bumps on
/// every update — emulating the MVCC/transaction metadata (`xmin`, SCN,
/// trx_id) real engines store per tuple, which contributes to the
/// changed bytes a block write exhibits.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    header_txn: u64,
    values: Vec<Value>,
}

impl Row {
    /// Creates a row with a zeroed header.
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            header_txn: 0,
            values,
        }
    }

    /// The field values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access to the field values.
    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    /// Sets the row-header transaction counter (done by the table on
    /// update).
    pub(crate) fn set_txn(&mut self, txn: u64) {
        self.header_txn = txn;
    }

    /// Encodes to the on-page tuple format, prefixed by `header_pad`
    /// additional header bytes (per-DBMS profile; filled with a rolling
    /// pattern derived from the txn counter, like real tuple headers).
    pub(crate) fn encode(&self, header_pad: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + header_pad);
        out.extend_from_slice(&self.header_txn.to_le_bytes());
        for i in 0..header_pad {
            out.push((self.header_txn as u8).wrapping_add(i as u8));
        }
        out.push(self.values.len() as u8);
        for v in &self.values {
            out.push(v.tag());
            match v {
                Value::U32(x) => out.extend_from_slice(&x.to_le_bytes()),
                Value::U64(x) => out.extend_from_slice(&x.to_le_bytes()),
                Value::I64(x) => out.extend_from_slice(&x.to_le_bytes()),
                Value::F64(x) => out.extend_from_slice(&x.to_le_bytes()),
                Value::Str(s) => {
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                Value::Bytes(b) => {
                    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                    out.extend_from_slice(b);
                }
            }
        }
        out
    }

    /// Decodes a tuple produced by [`encode`](Self::encode) with the
    /// same `header_pad`.
    ///
    /// # Errors
    ///
    /// [`StoreError::CorruptTuple`] on truncation or invalid tags.
    pub(crate) fn decode(bytes: &[u8], header_pad: usize) -> Result<Self, StoreError> {
        let corrupt = || StoreError::CorruptTuple {
            detail: "truncated tuple".into(),
        };
        if bytes.len() < 8 + header_pad + 1 {
            return Err(corrupt());
        }
        let header_txn = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let mut pos = 8 + header_pad;
        let count = bytes[pos] as usize;
        pos += 1;
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = *bytes.get(pos).ok_or_else(corrupt)?;
            pos += 1;
            let value = match tag {
                0 => {
                    let v = u32::from_le_bytes(
                        bytes
                            .get(pos..pos + 4)
                            .ok_or_else(corrupt)?
                            .try_into()
                            .unwrap(),
                    );
                    pos += 4;
                    Value::U32(v)
                }
                1 => {
                    let v = u64::from_le_bytes(
                        bytes
                            .get(pos..pos + 8)
                            .ok_or_else(corrupt)?
                            .try_into()
                            .unwrap(),
                    );
                    pos += 8;
                    Value::U64(v)
                }
                2 => {
                    let v = i64::from_le_bytes(
                        bytes
                            .get(pos..pos + 8)
                            .ok_or_else(corrupt)?
                            .try_into()
                            .unwrap(),
                    );
                    pos += 8;
                    Value::I64(v)
                }
                3 => {
                    let v = f64::from_le_bytes(
                        bytes
                            .get(pos..pos + 8)
                            .ok_or_else(corrupt)?
                            .try_into()
                            .unwrap(),
                    );
                    pos += 8;
                    Value::F64(v)
                }
                4 => {
                    let len = u32::from_le_bytes(
                        bytes
                            .get(pos..pos + 4)
                            .ok_or_else(corrupt)?
                            .try_into()
                            .unwrap(),
                    ) as usize;
                    pos += 4;
                    let s = bytes.get(pos..pos + len).ok_or_else(corrupt)?;
                    pos += len;
                    Value::Str(String::from_utf8(s.to_vec()).map_err(|_| {
                        StoreError::CorruptTuple {
                            detail: "invalid utf-8 in string field".into(),
                        }
                    })?)
                }
                5 => {
                    let len = u32::from_le_bytes(
                        bytes
                            .get(pos..pos + 4)
                            .ok_or_else(corrupt)?
                            .try_into()
                            .unwrap(),
                    ) as usize;
                    pos += 4;
                    let b = bytes.get(pos..pos + len).ok_or_else(corrupt)?;
                    pos += len;
                    Value::Bytes(b.to_vec())
                }
                other => {
                    return Err(StoreError::CorruptTuple {
                        detail: format!("invalid value tag {other}"),
                    })
                }
            };
            values.push(value);
        }
        Ok(Self { header_txn, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Row {
        Row::new(vec![
            Value::U32(7),
            Value::U64(u64::MAX),
            Value::I64(-5),
            Value::F64(2.75),
            Value::Str("W_NAME_3".into()),
            Value::Bytes(vec![1, 2, 3]),
        ])
    }

    #[test]
    fn roundtrip_all_value_kinds() {
        for pad in [0usize, 4, 16] {
            let row = sample();
            let bytes = row.encode(pad);
            assert_eq!(Row::decode(&bytes, pad).unwrap(), row, "pad={pad}");
        }
    }

    #[test]
    fn txn_counter_is_preserved_and_affects_encoding() {
        let mut row = sample();
        let a = row.encode(8);
        row.set_txn(42);
        let b = row.encode(8);
        assert_ne!(a, b);
        assert_eq!(Row::decode(&b, 8).unwrap().header_txn, 42);
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let bytes = sample().encode(4);
        for cut in 0..bytes.len() {
            assert!(Row::decode(&bytes[..cut], 4).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn key_casting() {
        assert_eq!(Value::U32(5).as_key(), 5);
        assert_eq!(Value::U64(9).as_key(), 9);
        assert_eq!(Value::I64(3).as_key(), 3);
    }

    #[test]
    #[should_panic(expected = "index key")]
    fn string_as_key_panics() {
        let _ = Value::Str("x".into()).as_key();
    }

    proptest! {
        #[test]
        fn prop_roundtrip(ints in proptest::collection::vec(any::<u64>(), 0..8),
                          strs in proptest::collection::vec("[a-zA-Z0-9 ]{0,40}", 0..4),
                          pad in 0usize..32) {
            let mut values: Vec<Value> = ints.into_iter().map(Value::U64).collect();
            values.extend(strs.into_iter().map(Value::Str));
            let row = Row::new(values);
            let bytes = row.encode(pad);
            prop_assert_eq!(Row::decode(&bytes, pad).unwrap(), row);
        }
    }
}
