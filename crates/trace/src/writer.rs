//! The format-agnostic packet writer — [`CaptureReader`]'s mirror image.
//!
//! `TshWriter` and `PcapWriter` each stream records into a byte
//! sink; [`CaptureWriter`] puts either behind one type so a producer
//! picks the format at run time and then just writes packets.
//!
//! [`CaptureReader`]: crate::reader::CaptureReader

use crate::error::TraceError;
use crate::packet::PacketRecord;
use crate::pcap::PcapWriter;
use crate::reader::CaptureFormat;
use crate::tsh::TshWriter;
use std::io::Write;

/// An incremental packet writer for either capture format.
#[derive(Debug)]
pub struct CaptureWriter<W>(Format<W>);

#[derive(Debug)]
enum Format<W> {
    Tsh(TshWriter<W>),
    Pcap(PcapWriter<W>),
}

impl<W: Write> CaptureWriter<W> {
    /// Starts a capture in `format` on `inner`, writing the file header
    /// when the format has one.
    ///
    /// # Errors
    ///
    /// I/O failures writing the pcap global header.
    pub fn new(inner: W, format: CaptureFormat) -> Result<CaptureWriter<W>, TraceError> {
        Ok(CaptureWriter(match format {
            CaptureFormat::Tsh => Format::Tsh(TshWriter::new(inner)),
            CaptureFormat::Pcap => Format::Pcap(PcapWriter::new(inner)?),
        }))
    }

    /// Appends one packet.
    ///
    /// # Errors
    ///
    /// I/O failures, and [`TraceError::FieldOutOfRange`] for a packet the
    /// format cannot represent.
    #[inline]
    pub fn write_packet(&mut self, p: &PacketRecord) -> Result<(), TraceError> {
        match &mut self.0 {
            Format::Tsh(w) => w.write_packet(p),
            Format::Pcap(w) => w.write_packet(p),
        }
    }

    /// Bytes written so far, file header included.
    pub fn bytes_written(&self) -> u64 {
        match &self.0 {
            Format::Tsh(w) => w.bytes_written(),
            Format::Pcap(w) => w.bytes_written(),
        }
    }

    /// Unwraps the writer, returning the underlying sink (unflushed).
    pub fn into_inner(self) -> W {
        match self.0 {
            Format::Tsh(w) => w.into_inner(),
            Format::Pcap(w) => w.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use crate::trace::Trace;
    use crate::{pcap, tsh};

    #[test]
    fn streams_the_bytes_to_bytes_builds() {
        let trace: Trace = (0..30u64)
            .map(|i| {
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 250))
                    .payload_len(i as u16 * 40)
                    .seq(i as u32)
                    .build()
            })
            .collect();
        for (format, whole) in [
            (CaptureFormat::Tsh, tsh::to_bytes(&trace)),
            (CaptureFormat::Pcap, pcap::to_bytes(&trace)),
        ] {
            let mut w = CaptureWriter::new(Vec::new(), format).unwrap();
            for p in &trace {
                w.write_packet(p).unwrap();
            }
            assert_eq!(w.bytes_written(), whole.len() as u64);
            assert_eq!(w.into_inner(), whole, "{format}");
        }
    }

    #[test]
    fn unrepresentable_timestamp_is_an_error_in_both_formats() {
        let late = PacketRecord::builder()
            .timestamp(Timestamp::from_secs(u32::MAX as u64 + 10))
            .build();
        for format in [CaptureFormat::Tsh, CaptureFormat::Pcap] {
            let mut w = CaptureWriter::new(Vec::new(), format).unwrap();
            let err = w.write_packet(&late).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::FieldOutOfRange {
                        field: "timestamp_secs",
                        value
                    } if value == u32::MAX as u64 + 10
                ),
                "{format}: {err}"
            );
        }
    }
}
