//! LEB128 varints, the variable-length integers of the VJ and Peuhkuri
//! wire formats: seven bits per byte, least significant group first,
//! high bit set on every byte but the last.

/// Appends `v` as an unsigned varint.
pub(crate) fn write_uvarint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Appends `v` zigzag-mapped (0, −1, 1, −2, … → 0, 1, 2, 3, …), so small
/// deltas of either sign take one byte.
pub(crate) fn write_zigzag(v: i64, out: &mut Vec<u8>) {
    write_uvarint(((v << 1) ^ (v >> 63)) as u64, out);
}

/// Reads the unsigned varint at `*pos` and advances past it. `None` if
/// `data` ends inside it or it runs past 64 bits.
pub(crate) fn read_uvarint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Reads a [`write_zigzag`] value at `*pos` and advances past it.
pub(crate) fn read_zigzag(data: &[u8], pos: &mut usize) -> Option<i64> {
    let v = read_uvarint(data, pos)?;
    Some(((v >> 1) as i64) ^ -((v & 1) as i64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }
}
