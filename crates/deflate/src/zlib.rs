//! zlib container (RFC 1950) — the third member of the paper's "GZIP and
//! also ZIP and ZLIB use the deflation algorithm" family: a 2-byte header
//! and an Adler-32 trailer around a raw DEFLATE stream.

use crate::deflate::{deflate_compress, Level};
use crate::inflate::{inflate, InflateError};
use std::fmt;

/// Compression method + 32 KiB window (CMF byte).
pub(crate) const CMF: u8 = 0x78;
/// Largest Adler-32 modulus prime.
const ADLER_MOD: u32 = 65_521;

/// Errors from parsing a zlib stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ZlibError {
    /// Too short for header + trailer.
    Truncated,
    /// CMF/FLG check failed or a preset dictionary was demanded.
    BadHeader,
    /// Body failed to inflate.
    Inflate(InflateError),
    /// Adler-32 of the output did not match the trailer.
    ChecksumMismatch {
        /// Expected (from trailer).
        expected: u32,
        /// Computed over the output.
        actual: u32,
    },
}

impl fmt::Display for ZlibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZlibError::Truncated => write!(f, "zlib stream truncated"),
            ZlibError::BadHeader => write!(f, "bad zlib header"),
            ZlibError::Inflate(e) => write!(f, "zlib body: {e}"),
            ZlibError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "adler32 mismatch: expected {expected:#10x}, got {actual:#10x}"
                )
            }
        }
    }
}

impl std::error::Error for ZlibError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ZlibError::Inflate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InflateError> for ZlibError {
    fn from(e: InflateError) -> Self {
        ZlibError::Inflate(e)
    }
}

/// Adler-32 checksum (RFC 1950 §9).
pub fn adler32(data: &[u8]) -> u32 {
    let mut a = 1u32;
    let mut b = 0u32;
    // Process in chunks small enough that the u32 sums cannot overflow
    // before a modulo (5552 is the classic bound).
    for chunk in data.chunks(5_552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= ADLER_MOD;
        b %= ADLER_MOD;
    }
    (b << 16) | a
}

/// Compresses into a zlib stream.
pub fn zlib_compress(data: &[u8], level: Level) -> Vec<u8> {
    let body = deflate_compress(data, level);
    let mut out = Vec::with_capacity(body.len() + 6);
    out.push(CMF);
    // FLG: no dictionary, level bits, and the check requirement
    // (CMF·256 + FLG) % 31 == 0.
    let flevel: u8 = match level {
        Level::Fast => 1,
        Level::Default => 2,
        Level::Best => 3,
    };
    let mut flg = flevel << 6;
    let rem = ((CMF as u16) << 8 | flg as u16) % 31;
    if rem != 0 {
        flg += (31 - rem) as u8;
    }
    out.push(flg);
    out.extend_from_slice(&body);
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Decompresses a zlib stream, verifying the Adler-32 trailer.
///
/// # Errors
///
/// Returns [`ZlibError`] for malformed containers, inflate failures or
/// checksum mismatches. Preset dictionaries (FDICT) are not supported.
pub fn zlib_decompress(data: &[u8]) -> Result<Vec<u8>, ZlibError> {
    if data.len() < 6 {
        return Err(ZlibError::Truncated);
    }
    let cmf = data[0];
    let flg = data[1];
    if cmf & 0x0f != 8 || !((cmf as u16) << 8 | flg as u16).is_multiple_of(31) {
        return Err(ZlibError::BadHeader);
    }
    if flg & 0x20 != 0 {
        return Err(ZlibError::BadHeader); // FDICT unsupported
    }
    let body = &data[2..data.len() - 4];
    let out = inflate(body)?;
    let trailer = &data[data.len() - 4..];
    let expected = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let actual = adler32(&out);
    if expected != actual {
        return Err(ZlibError::ChecksumMismatch { expected, actual });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        // Long input exercises the chunked modulo path.
        let long = vec![0xffu8; 100_000];
        let v = adler32(&long);
        assert!(v > 0);
        assert_eq!(v, adler32(&long));
    }

    #[test]
    fn roundtrip_all_levels() {
        let data = b"zlib container roundtrip: zlib zlib zlib zlib!";
        for level in [Level::Fast, Level::Default, Level::Best] {
            let z = zlib_compress(data, level);
            assert_eq!(zlib_decompress(&z).unwrap(), data);
        }
    }

    #[test]
    fn header_check_bits_valid() {
        for level in [Level::Fast, Level::Default, Level::Best] {
            let z = zlib_compress(b"x", level);
            assert_eq!(((z[0] as u16) << 8 | z[1] as u16) % 31, 0);
            assert_eq!(z[0] & 0x0f, 8);
        }
    }

    #[test]
    fn corruption_detected() {
        let mut z = zlib_compress(b"protect me from flips", Level::Default);
        let n = z.len();
        z[n - 1] ^= 0xff; // trailer
        assert!(matches!(
            zlib_decompress(&z),
            Err(ZlibError::ChecksumMismatch { .. })
        ));
        let mut z2 = zlib_compress(b"data", Level::Default);
        z2[0] = 0x00;
        assert_eq!(zlib_decompress(&z2), Err(ZlibError::BadHeader));
        assert_eq!(zlib_decompress(&[0x78]), Err(ZlibError::Truncated));
    }

    #[test]
    fn fdict_rejected() {
        let mut z = zlib_compress(b"data", Level::Default);
        z[1] |= 0x20;
        // Re-fix the check bits so only FDICT differs.
        let rem = ((z[0] as u16) << 8 | (z[1] & !0x1f) as u16) % 31;
        z[1] = (z[1] & !0x1f) | ((31 - rem) % 31) as u8;
        assert_eq!(zlib_decompress(&z), Err(ZlibError::BadHeader));
    }

    #[test]
    fn empty_input_roundtrip() {
        let z = zlib_compress(b"", Level::Default);
        assert_eq!(zlib_decompress(&z).unwrap(), b"");
        assert_eq!(&z[z.len() - 4..], &1u32.to_be_bytes()); // adler of ""
    }
}
