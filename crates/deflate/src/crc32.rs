//! CRC-32 (IEEE 802.3 polynomial, reflected) as required by gzip trailers.

/// The reflected CRC-32 polynomial used by gzip, zip and Ethernet.
pub(crate) const POLYNOMIAL: u32 = 0xEDB8_8320;

/// Streaming CRC-32 computation.
///
/// # Example
///
/// ```
/// let mut c = flowzip_deflate::crc32::Crc32::new();
/// c.update(b"123456789");
/// assert_eq!(c.finish(), 0xCBF43926); // the classic check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a new computation.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        let table = table();
        let mut s = self.state;
        for &b in data {
            s = (s >> 8) ^ table[((s ^ b as u32) & 0xff) as usize];
        }
        self.state = s;
    }

    /// Returns the final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    (c >> 1) ^ POLYNOMIAL
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        t
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"hello, incremental crc world";
        let mut c = Crc32::new();
        c.update(&data[..5]);
        c.update(&data[5..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn finish_is_idempotent() {
        let mut c = Crc32::new();
        c.update(b"abc");
        let a = c.finish();
        let b = c.finish();
        assert_eq!(a, b);
    }
}
