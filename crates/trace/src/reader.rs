//! Capture-format detection and the format-agnostic packet reader.
//!
//! [`TshReader`] and [`PcapReader`]
//! both present a capture file as an iterator of
//! `Result<PacketRecord, TraceError>`; this module extracts the piece
//! every consumer (the CLI, the `flowzip-io` input subsystem, the
//! streaming engine) was re-implementing on top of them: sniffing which
//! format a byte stream holds and wrapping the right reader behind one
//! type.
//!
//! * [`CaptureFormat`] — TSH vs. pcap, detected from the leading magic.
//! * [`CaptureReader`] — either concrete reader behind one enum.
//!
//! Both readers parse in place: a record the [`BufRead`] buffer holds
//! whole is decoded straight out of [`BufRead::fill_buf`]'s slice and
//! consumed. Only a record that straddles the buffer's end takes the
//! slow path, `fill` and `skip` below, which copies a bounded record
//! head to the stack and discards the rest.

use crate::error::TraceError;
use crate::packet::PacketRecord;
use crate::pcap::{self, PcapReader};
use crate::tsh::TshReader;
use std::io::{self, BufRead};

/// On-disk capture format, detected from the file's first bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureFormat {
    /// NLANR TSH: headerless 44-byte records (no magic of its own).
    Tsh,
    /// Classic pcap, any byte order (`0xA1B2C3D4` family magics).
    Pcap,
}

impl std::fmt::Display for CaptureFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureFormat::Tsh => write!(f, "tsh"),
            CaptureFormat::Pcap => write!(f, "pcap"),
        }
    }
}

impl CaptureFormat {
    /// Classifies a stream from its leading bytes. TSH records carry no
    /// magic, so anything that does not open with a pcap magic is TSH —
    /// including ns-timestamp pcap variants' close cousins; those *are*
    /// routed to [`CaptureFormat::Pcap`] so the pcap reader can reject
    /// them with a clear "bad pcap magic" error instead of a baffling
    /// TSH record-parse failure.
    pub fn sniff(head: &[u8]) -> CaptureFormat {
        if head.len() >= 4
            && matches!(
                u32::from_le_bytes([head[0], head[1], head[2], head[3]]),
                pcap::MAGIC_LE | pcap::MAGIC_BE | pcap::MAGIC_NS_LE | pcap::MAGIC_NS_BE
            )
        {
            CaptureFormat::Pcap
        } else {
            CaptureFormat::Tsh
        }
    }
}

/// An incremental packet reader over either capture format. Construct
/// with [`CaptureReader::open`] to sniff the format from the stream, or
/// [`CaptureReader::with_format`] when the caller already classified it
/// (a multi-file set is sniffed once up front, for example).
#[derive(Debug)]
pub enum CaptureReader<R> {
    /// A TSH record stream.
    Tsh(TshReader<R>),
    /// A pcap capture.
    Pcap(PcapReader<R>),
}

impl<R: BufRead> CaptureReader<R> {
    /// Sniffs the stream's format from its buffered head and wraps the
    /// matching reader. The sniff consumes nothing: it peeks through
    /// [`BufRead::fill_buf`].
    ///
    /// # Errors
    ///
    /// I/O failures from the peek, and [`PcapReader::new`]'s header
    /// validation errors for pcap-magic streams.
    pub fn open(mut inner: R) -> Result<CaptureReader<R>, TraceError> {
        let format = CaptureFormat::sniff(inner.fill_buf()?);
        CaptureReader::with_format(inner, format)
    }

    /// Wraps the reader for an already-known format.
    ///
    /// # Errors
    ///
    /// [`PcapReader::new`]'s header validation errors for pcap input.
    pub fn with_format(inner: R, format: CaptureFormat) -> Result<CaptureReader<R>, TraceError> {
        Ok(match format {
            CaptureFormat::Tsh => CaptureReader::Tsh(TshReader::new(inner)),
            CaptureFormat::Pcap => CaptureReader::Pcap(PcapReader::new(inner)?),
        })
    }

    /// Which format this reader is parsing.
    pub fn format(&self) -> CaptureFormat {
        match self {
            CaptureReader::Tsh(_) => CaptureFormat::Tsh,
            CaptureReader::Pcap(_) => CaptureFormat::Pcap,
        }
    }
}

impl<R: BufRead> Iterator for CaptureReader<R> {
    type Item = Result<PacketRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            CaptureReader::Tsh(r) => r.next(),
            CaptureReader::Pcap(r) => r.next(),
        }
    }
}

/// Copies stream bytes into `buf` until it is full or the stream ends;
/// returns how many were copied, short only at EOF.
pub(crate) fn fill<R: BufRead>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        let avail = r.fill_buf()?;
        if avail.is_empty() {
            break;
        }
        let n = avail.len().min(buf.len() - filled);
        buf[filled..filled + n].copy_from_slice(&avail[..n]);
        r.consume(n);
        filled += n;
    }
    Ok(filled)
}

/// Discards up to `n` stream bytes without copying them; returns how
/// many were discarded, short only at EOF.
pub(crate) fn skip<R: BufRead>(r: &mut R, n: usize) -> io::Result<usize> {
    let mut skipped = 0;
    while skipped < n {
        let avail = r.fill_buf()?.len();
        if avail == 0 {
            break;
        }
        let k = avail.min(n - skipped);
        r.consume(k);
        skipped += k;
    }
    Ok(skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::TcpFlags;
    use crate::time::Timestamp;
    use crate::trace::Trace;
    use crate::tsh;
    use std::net::Ipv4Addr;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..20u64 {
            t.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 100))
                    .src(Ipv4Addr::new(10, 0, 0, 1), 4000 + i as u16)
                    .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                    .flags(TcpFlags::SYN)
                    .build(),
            );
        }
        t
    }

    #[test]
    fn sniff_classifies_both_formats() {
        let t = sample_trace();
        assert_eq!(CaptureFormat::sniff(&tsh::to_bytes(&t)), CaptureFormat::Tsh);
        assert_eq!(
            CaptureFormat::sniff(&pcap::to_bytes(&t)),
            CaptureFormat::Pcap
        );
        // Short/empty heads default to TSH (no magic to find).
        assert_eq!(CaptureFormat::sniff(&[]), CaptureFormat::Tsh);
        assert_eq!(CaptureFormat::sniff(&[0xA1, 0xB2]), CaptureFormat::Tsh);
        // ns-pcap magics classify as pcap so the reader rejects clearly.
        assert_eq!(
            CaptureFormat::sniff(&pcap::MAGIC_NS_LE.to_le_bytes()),
            CaptureFormat::Pcap
        );
    }

    #[test]
    fn open_reads_either_format_identically() {
        let t = sample_trace();
        for bytes in [tsh::to_bytes(&t), pcap::to_bytes(&t)] {
            let reader = CaptureReader::open(&bytes[..]).unwrap();
            let packets: Vec<PacketRecord> = reader.map(|p| p.unwrap()).collect();
            assert_eq!(packets.len(), t.len());
            for (a, b) in packets.iter().zip(t.iter()) {
                assert_eq!(a.timestamp(), b.timestamp());
                assert_eq!(a.tuple(), b.tuple());
            }
        }
    }

    #[test]
    fn format_accessor_matches_input() {
        let t = sample_trace();
        let tsh_bytes = tsh::to_bytes(&t);
        let pcap_bytes = pcap::to_bytes(&t);
        assert_eq!(
            CaptureReader::open(&tsh_bytes[..]).unwrap().format(),
            CaptureFormat::Tsh
        );
        assert_eq!(
            CaptureReader::open(&pcap_bytes[..]).unwrap().format(),
            CaptureFormat::Pcap
        );
    }

    #[test]
    fn ns_pcap_is_rejected_with_a_clear_error() {
        let mut bytes = pcap::MAGIC_NS_LE.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 20]);
        let err = CaptureReader::open(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("bad pcap magic"), "{err}");
    }

    #[test]
    fn empty_stream_is_an_empty_tsh_reader() {
        let mut reader = CaptureReader::open(&[][..]).unwrap();
        assert_eq!(reader.format(), CaptureFormat::Tsh);
        assert!(reader.next().is_none());
    }
}
