//! LEB128-style variable-length integer encoding used by the sparse
//! parity codec and the LZSS token stream.

/// Appends `value` to `out` as an LEB128 varint (7 bits per byte, MSB set
/// on continuation bytes).
///
/// # Example
///
/// ```
/// use prins_parity::{encode_varint, decode_varint};
///
/// let mut buf = Vec::new();
/// encode_varint(&mut buf, 300);
/// assert_eq!(buf.len(), 2);
/// assert_eq!(decode_varint(&buf), Some((300, 2)));
/// ```
pub fn encode_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a varint from the front of `buf`, returning `(value,
/// bytes_consumed)`, or `None` when the buffer is truncated or the value
/// would overflow `u64`.
pub fn decode_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    for (i, &byte) in buf.iter().enumerate().take(10) {
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only contribute the single remaining bit.
        if i == 9 && byte > 0x01 {
            return None;
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
    }
    None
}

/// Bytes [`encode_varint`] writes for `value` — header-size
/// arithmetic without encoding.
pub fn varint_len(value: u64) -> usize {
    ((64 - value.leading_zeros()).max(1) as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values_take_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            encode_varint(&mut buf, v);
            assert_eq!(buf.len(), 1);
            assert_eq!(decode_varint(&buf), Some((v, 1)));
        }
    }

    #[test]
    fn boundary_values_round_trip() {
        for v in [127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            encode_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "v={v}");
            assert_eq!(decode_varint(&buf), Some((v, buf.len())), "v={v}");
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        encode_varint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert_eq!(decode_varint(&buf[..cut]), None, "cut={cut}");
        }
    }

    #[test]
    fn overlong_encoding_is_rejected() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0xffu8; 11];
        assert_eq!(decode_varint(&buf), None);
        // A 10th byte with more than one bit set would overflow u64.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert_eq!(decode_varint(&buf), None);
    }

    #[test]
    fn decode_ignores_trailing_bytes() {
        let mut buf = Vec::new();
        encode_varint(&mut buf, 5);
        buf.extend_from_slice(&[0xde, 0xad]);
        assert_eq!(decode_varint(&buf), Some((5, 1)));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            encode_varint(&mut buf, v);
            prop_assert!(buf.len() <= 10);
            prop_assert_eq!(varint_len(v), buf.len());
            prop_assert_eq!(decode_varint(&buf), Some((v, buf.len())));
        }
    }
}
