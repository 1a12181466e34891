//! gzip container (RFC 1952): 10-byte header, DEFLATE body, CRC-32 +
//! length trailer — what the paper's "GZIP method" curve in Figure 1
//! measures.

use crate::crc32::crc32;
use crate::deflate::{deflate_compress, Level};
use crate::inflate::{inflate, InflateError};
use std::fmt;

/// gzip magic bytes.
pub const MAGIC: [u8; 2] = [0x1f, 0x8b];
/// Compression method 8 = deflate (the only defined one).
pub(crate) const METHOD_DEFLATE: u8 = 8;
/// Fixed container overhead: 10-byte header + 8-byte trailer.
pub(crate) const OVERHEAD: usize = 18;

/// Errors from parsing a gzip file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GzipError {
    /// Too short to hold header + trailer.
    Truncated,
    /// Wrong magic bytes or compression method.
    BadHeader,
    /// Flags demand header extensions this minimal reader rejects.
    UnsupportedFlags(u8),
    /// Body failed to inflate.
    Inflate(InflateError),
    /// CRC-32 of the output did not match the trailer.
    CrcMismatch {
        /// CRC from the trailer.
        expected: u32,
        /// CRC of the decompressed data.
        actual: u32,
    },
    /// ISIZE trailer did not match the output length (mod 2^32).
    LengthMismatch {
        /// ISIZE from the trailer.
        expected: u32,
        /// Actual output length (mod 2^32).
        actual: u32,
    },
}

impl fmt::Display for GzipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GzipError::Truncated => write!(f, "gzip stream truncated"),
            GzipError::BadHeader => write!(f, "bad gzip header"),
            GzipError::UnsupportedFlags(fl) => write!(f, "unsupported gzip flags {fl:#x}"),
            GzipError::Inflate(e) => write!(f, "gzip body: {e}"),
            GzipError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "gzip crc mismatch: expected {expected:#10x}, got {actual:#10x}"
                )
            }
            GzipError::LengthMismatch { expected, actual } => {
                write!(f, "gzip length mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for GzipError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GzipError::Inflate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InflateError> for GzipError {
    fn from(e: InflateError) -> Self {
        GzipError::Inflate(e)
    }
}

/// Compresses `data` into a complete gzip file image.
pub fn gzip_compress(data: &[u8], level: Level) -> Vec<u8> {
    let body = deflate_compress(data, level);
    let mut out = Vec::with_capacity(body.len() + OVERHEAD);
    out.extend_from_slice(&MAGIC);
    out.push(METHOD_DEFLATE);
    out.push(0); // FLG: no name/comment/extra/crc16
    out.extend_from_slice(&[0, 0, 0, 0]); // MTIME unknown
    out.push(match level {
        Level::Best => 2,
        Level::Fast => 4,
        Level::Default => 0,
    }); // XFL
    out.push(255); // OS unknown
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

/// Decompresses a gzip file image, verifying CRC-32 and length trailers.
///
/// # Errors
///
/// Returns [`GzipError`] for malformed containers, inflate failures or
/// trailer mismatches.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>, GzipError> {
    if data.len() < OVERHEAD {
        return Err(GzipError::Truncated);
    }
    if data[0..2] != MAGIC || data[2] != METHOD_DEFLATE {
        return Err(GzipError::BadHeader);
    }
    let flags = data[3];
    if flags != 0 {
        // FTEXT (bit 0) is advisory; any other flag adds header fields.
        if flags & !0x01 != 0 {
            return Err(GzipError::UnsupportedFlags(flags));
        }
    }
    let body = &data[10..data.len() - 8];
    let out = inflate(body)?;
    let trailer = &data[data.len() - 8..];
    let expected_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let expected_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    let actual_crc = crc32(&out);
    if actual_crc != expected_crc {
        return Err(GzipError::CrcMismatch {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    let actual_len = out.len() as u32;
    if actual_len != expected_len {
        return Err(GzipError::LengthMismatch {
            expected: expected_len,
            actual: actual_len,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_levels() {
        let data = b"gzip container roundtrip test data, repeated: gzip container!";
        for level in [Level::Fast, Level::Default, Level::Best] {
            let z = gzip_compress(data, level);
            assert_eq!(gzip_decompress(&z).unwrap(), data);
        }
    }

    #[test]
    fn empty_input_roundtrip() {
        let z = gzip_compress(b"", Level::Default);
        assert_eq!(gzip_decompress(&z).unwrap(), b"");
        assert_eq!(&z[0..2], &MAGIC);
    }

    #[test]
    fn header_fields() {
        let z = gzip_compress(b"x", Level::Default);
        assert_eq!(z[2], METHOD_DEFLATE);
        assert_eq!(z[3], 0); // no flags
        assert_eq!(z[9], 255); // OS unknown
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut z = gzip_compress(b"data", Level::Default);
        z[0] = 0;
        assert_eq!(gzip_decompress(&z), Err(GzipError::BadHeader));
    }

    #[test]
    fn corrupt_crc_rejected() {
        let mut z = gzip_compress(b"data to protect", Level::Default);
        let n = z.len();
        z[n - 8] ^= 0xff;
        assert!(matches!(
            gzip_decompress(&z),
            Err(GzipError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_length_rejected() {
        let mut z = gzip_compress(b"data to protect", Level::Default);
        let n = z.len();
        z[n - 1] ^= 0xff;
        assert!(matches!(
            gzip_decompress(&z),
            Err(GzipError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(gzip_decompress(&[0x1f, 0x8b]), Err(GzipError::Truncated));
    }

    #[test]
    fn unsupported_flags_rejected() {
        let mut z = gzip_compress(b"data", Level::Default);
        z[3] = 0x08; // FNAME
        assert_eq!(gzip_decompress(&z), Err(GzipError::UnsupportedFlags(0x08)));
    }

    #[test]
    fn overhead_is_constant() {
        let z = gzip_compress(b"", Level::Default);
        // empty deflate stream: one empty final block (couple of bytes)
        assert!(z.len() <= OVERHEAD + 8);
    }
}
