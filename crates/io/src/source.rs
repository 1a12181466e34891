//! The [`InputSource`] abstraction — "something that yields a packet
//! stream and can say how long the pipeline waited on it" — plus
//! [`FileSource`], the one capture-file reader (an ordered set of files
//! read one after another on the consuming thread; a single file is a
//! set of one), and [`ReaderSource`], the same contract over any
//! [`Read`]er (a stdin pipe, an accepted socket).

use crate::prefetch::{PrefetchConfig, PrefetchReader};
use crate::stats::{IoStats, TimedRead};
use flowzip_trace::reader::{CaptureFormat, CaptureReader};
use flowzip_trace::{PacketRecord, TraceError};
use std::fs::File;
use std::io::{BufReader, Cursor, Read};
use std::path::{Path, PathBuf};

/// Buffered-reader capacity for capture files. TSH records are 44 bytes;
/// a generous buffer keeps the per-record `read` calls off the syscall
/// path entirely.
pub(crate) const FILE_BUF_BYTES: usize = 256 << 10;

/// A pluggable packet input: the engine consumes
/// [`InputSource::into_packets`] and, once the run finishes, reads the
/// [`IoStats`] handle to split wall-clock into read-wait vs. compute.
///
/// Implementations in this crate: [`FileSource`] (capture files on the
/// consuming thread) and [`ReaderSource`] (any byte stream).
pub trait InputSource {
    /// The packet iterator this source turns into.
    type Packets: Iterator<Item = Result<PacketRecord, TraceError>>;

    /// A handle onto the source's wait/byte counters. Clone it before
    /// [`InputSource::into_packets`] consumes the source; totals keep
    /// updating while the stream drains.
    fn stats(&self) -> IoStats;

    /// Consumes the source into its packet stream.
    fn into_packets(self) -> Self::Packets;
}

/// One file of a sniffed set. A regular file is closed after its sniff
/// and reopened when its turn comes, so a waiting set holds no
/// descriptors. Anything else (a pipe such as `/dev/stdin`, a FIFO, a
/// character device) cannot be reopened at the same position, so it
/// keeps its handle and the head bytes the sniff consumed.
#[derive(Debug)]
pub(crate) struct SetFile {
    path: PathBuf,
    kept: Option<(Vec<u8>, File)>,
}

/// The byte stream of one [`SetFile`]: the sniffed head (empty for a
/// reopened regular file), then the rest of the handle.
pub(crate) type SetFileRead = std::io::Chain<Cursor<Vec<u8>>, File>;

impl SetFile {
    /// The file's whole byte stream from its first byte.
    pub(crate) fn into_read(self) -> std::io::Result<SetFileRead> {
        let (head, file) = match self.kept {
            Some(kept) => kept,
            None => (Vec::new(), File::open(&self.path)?),
        };
        Ok(Cursor::new(head).chain(file))
    }
}

/// Sniffs each file's magic in order and rejects a mixed pcap/TSH set
/// before anything is read. Returns the files that hold bytes, in
/// order — a zero-byte file contributes no packets whatever the set's
/// format — and the one capture format they share.
///
/// # Errors
///
/// [`TraceError::Io`] when a file cannot be opened or sniffed;
/// [`TraceError::InvalidTrace`] for an empty or mixed set.
pub(crate) fn sniff_set<P: AsRef<Path>>(
    paths: impl IntoIterator<Item = P>,
) -> Result<(Vec<SetFile>, CaptureFormat), TraceError> {
    let mut files = Vec::new();
    let mut format: Option<(CaptureFormat, PathBuf)> = None;
    let mut seen = 0usize;
    for path in paths {
        seen += 1;
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let mut head = Vec::with_capacity(4);
        (&mut file).take(4).read_to_end(&mut head)?;
        if head.is_empty() {
            continue;
        }
        let f = CaptureFormat::sniff(&head);
        match &format {
            None => format = Some((f, path.clone())),
            Some((first, first_path)) if *first != f => {
                return Err(TraceError::InvalidTrace(format!(
                    "mixed capture formats in one input set: {} is {first}, {} is {f}",
                    first_path.display(),
                    path.display()
                )));
            }
            Some(_) => {}
        }
        let kept = (!file.metadata()?.is_file()).then_some((head, file));
        files.push(SetFile { path, kept });
    }
    if seen == 0 {
        return Err(TraceError::InvalidTrace(
            "capture input set is empty".to_string(),
        ));
    }
    // An all-empty set has no capture to name; TSH (the magic-less
    // default) is what a single empty file sniffs as.
    Ok((files, format.map_or(CaptureFormat::Tsh, |(f, _)| f)))
}

/// The byte stream of one file in a [`FileSource`]: a plain timed read,
/// or a prefetch thread.
#[derive(Debug)]
enum FileStream {
    Direct(TimedRead<SetFileRead>),
    Prefetched(PrefetchReader),
}

impl Read for FileStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            FileStream::Direct(r) => r.read(buf),
            FileStream::Prefetched(r) => r.read(buf),
        }
    }
}

/// Capture files (TSH or pcap, sniffed from the magic) as one
/// [`InputSource`]: an ordered set read sequentially on the consuming
/// thread, one buffered [`CaptureReader`] per file, chained. A single
/// file is a set of one.
///
/// The packet stream is exactly what chaining a reader over the files in
/// order produces — same packets, same order, same first error, after
/// which the stream ends. Zero-byte files contribute no packets; a set
/// that mixes pcap and TSH is rejected at open, before any packet is
/// read. Time inside `read()` is charged to the stats handle as
/// read-wait. The source is its own packet stream: file 0's packets,
/// then file 1's, … — fused after the first error.
#[derive(Debug)]
pub struct FileSource {
    files: std::vec::IntoIter<SetFile>,
    format: CaptureFormat,
    prefetch: Option<PrefetchConfig>,
    stats: IoStats,
    current: Option<CaptureReader<BufReader<FileStream>>>,
}

impl FileSource {
    /// Opens one capture file: a set of one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FileSource::open_set`].
    pub fn open(path: impl AsRef<Path>) -> Result<FileSource, TraceError> {
        FileSource::open_set([path])
    }

    /// Opens an ordered file set, sniffing every file's magic up front.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when a file cannot be opened or sniffed;
    /// [`TraceError::InvalidTrace`] for an empty set or one that mixes
    /// pcap and TSH. Malformed content (a bad pcap header, a truncated
    /// record) surfaces from the packet stream at its position.
    pub fn open_set<P: AsRef<Path>>(
        paths: impl IntoIterator<Item = P>,
    ) -> Result<FileSource, TraceError> {
        let (files, format) = sniff_set(paths)?;
        Ok(FileSource {
            files: files.into_iter(),
            format,
            prefetch: None,
            stats: IoStats::new(),
            current: None,
        })
    }

    /// Opens one file with a [`PrefetchReader`] thread reading ahead.
    /// Kept only for the performance ledger's `io.prefetch_read` probe
    /// (`benchmark/src/layers.rs`); no product path prefetches.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FileSource::open`].
    pub fn open_prefetched(
        path: impl AsRef<Path>,
        config: PrefetchConfig,
    ) -> Result<FileSource, TraceError> {
        let mut source = FileSource::open(path)?;
        source.prefetch = Some(config);
        Ok(source)
    }

    /// The capture format the magic sniff detected (every non-empty
    /// file agrees).
    pub fn format(&self) -> CaptureFormat {
        self.format
    }

    fn open_file(&self, file: SetFile) -> Result<CaptureReader<BufReader<FileStream>>, TraceError> {
        let file = file.into_read()?;
        let stream = match self.prefetch {
            None => FileStream::Direct(TimedRead::new(file, self.stats.clone())),
            Some(config) => FileStream::Prefetched(PrefetchReader::with_config(
                file,
                config,
                self.stats.clone(),
            )),
        };
        CaptureReader::with_format(
            BufReader::with_capacity(FILE_BUF_BYTES, stream),
            self.format,
        )
    }

    /// Ends the stream after its first error.
    fn fail(&mut self, e: TraceError) -> Option<Result<PacketRecord, TraceError>> {
        self.current = None;
        self.files = Vec::new().into_iter();
        Some(Err(e))
    }

    /// The per-file slow path, kept out of [`Iterator::next`] so the
    /// per-packet path stays one reader call: opens the next file that
    /// has packets and yields its first.
    #[cold]
    fn next_file(&mut self) -> Option<Result<PacketRecord, TraceError>> {
        self.current = None;
        loop {
            let file = self.files.next()?;
            let mut reader = match self.open_file(file) {
                Ok(reader) => reader,
                Err(e) => return self.fail(e),
            };
            // A pcap file can hold a header and no records.
            match reader.next() {
                None => continue,
                Some(Err(e)) => return self.fail(e),
                first => {
                    self.current = Some(reader);
                    return first;
                }
            }
        }
    }
}

impl InputSource for FileSource {
    type Packets = FileSource;

    fn stats(&self) -> IoStats {
        self.stats.clone()
    }

    fn into_packets(self) -> FileSource {
        self
    }
}

impl Iterator for FileSource {
    type Item = Result<PacketRecord, TraceError>;

    // Inlined across crates like the generic reader it wraps: the
    // engine's router loop calls this once per packet.
    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if let Some(reader) = &mut self.current {
            match reader.next() {
                Some(Err(e)) => return self.fail(e),
                None => {}
                packet => return packet,
            }
        }
        self.next_file()
    }
}

/// Any byte stream (a stdin pipe, an accepted TCP or Unix socket, a
/// test buffer) as an [`InputSource`]: the capture format is sniffed
/// from the first bytes exactly like [`FileSource`], and time blocked
/// inside the underlying `read()` is charged to the stats handle as
/// read-wait — on a live pipe that is the time spent waiting for the
/// producer, the figure a `flowzip serve` session reports.
#[derive(Debug)]
pub struct ReaderSource<R: std::io::Read> {
    reader: CaptureReader<BufReader<TimedRead<R>>>,
    stats: IoStats,
}

impl<R: std::io::Read> ReaderSource<R> {
    /// Wraps `inner`, sniffing TSH vs. pcap from its first bytes.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the first read fails;
    /// [`PcapReader::new`](flowzip_trace::PcapReader::new) errors for a
    /// bad pcap header.
    pub fn open(inner: R) -> Result<ReaderSource<R>, TraceError> {
        let stats = IoStats::new();
        let reader = CaptureReader::open(BufReader::with_capacity(
            FILE_BUF_BYTES,
            TimedRead::new(inner, stats.clone()),
        ))?;
        Ok(ReaderSource { reader, stats })
    }

    /// The capture format the magic sniff detected.
    pub fn format(&self) -> CaptureFormat {
        self.reader.format()
    }
}

impl<R: std::io::Read> InputSource for ReaderSource<R> {
    type Packets = CaptureReader<BufReader<TimedRead<R>>>;

    fn stats(&self) -> IoStats {
        self.stats.clone()
    }

    fn into_packets(self) -> Self::Packets {
        self.reader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_trace::prelude::*;
    use flowzip_trace::{pcap, tsh};

    fn sample_trace(n: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            t.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 50))
                    .src(Ipv4Addr::new(10, 1, 0, 1), 5000 + (i % 64) as u16)
                    .dst(Ipv4Addr::new(192, 0, 2, 7), 80)
                    .flags(TcpFlags::ACK)
                    .build(),
            );
        }
        t
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flowzip-src-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn reads_both_formats_and_counts_bytes() {
        let dir = tmp("formats");
        let t = sample_trace(200);
        for (name, bytes, format) in [
            ("a.tsh", tsh::to_bytes(&t), CaptureFormat::Tsh),
            ("a.pcap", pcap::to_bytes(&t), CaptureFormat::Pcap),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, &bytes).unwrap();
            let src = FileSource::open(&path).unwrap();
            assert_eq!(src.format(), format);
            let stats = src.stats();
            let packets: Vec<_> = src.into_packets().map(|p| p.unwrap()).collect();
            assert_eq!(packets.len(), t.len());
            assert_eq!(stats.bytes_read(), bytes.len() as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetched_stream_is_packet_identical() {
        let dir = tmp("prefetch");
        let t = sample_trace(3_000);
        let path = dir.join("big.tsh");
        std::fs::write(&path, tsh::to_bytes(&t)).unwrap();

        let direct: Vec<_> = FileSource::open(&path)
            .unwrap()
            .into_packets()
            .map(|p| p.unwrap())
            .collect();
        let prefetched: Vec<_> = FileSource::open_prefetched(
            &path,
            PrefetchConfig {
                chunk_bytes: 4096,
                chunks: 3,
            },
        )
        .unwrap()
        .into_packets()
        .map(|p| p.unwrap())
        .collect();
        assert_eq!(direct, prefetched);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = FileSource::open("/nonexistent/missing.tsh").unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }

    #[test]
    fn reader_source_sniffs_and_streams_like_a_file() {
        let t = sample_trace(150);
        for (bytes, format) in [
            (tsh::to_bytes(&t), CaptureFormat::Tsh),
            (pcap::to_bytes(&t), CaptureFormat::Pcap),
        ] {
            let src = ReaderSource::open(std::io::Cursor::new(bytes.clone())).unwrap();
            assert_eq!(src.format(), format);
            let stats = src.stats();
            let packets: Vec<_> = src.into_packets().map(|p| p.unwrap()).collect();
            assert_eq!(packets.len(), t.len());
            assert_eq!(packets[0], t.iter().next().cloned().unwrap());
            assert_eq!(stats.bytes_read(), bytes.len() as u64);
        }
    }

    #[test]
    fn reader_source_on_garbage_treats_bytes_as_tsh() {
        // No pcap magic → the sniff falls back to TSH; a short tail is a
        // truncated-record error from the iterator, not a panic.
        let src = ReaderSource::open(std::io::Cursor::new(vec![0u8; 10])).unwrap();
        assert_eq!(src.format(), CaptureFormat::Tsh);
        let items: Vec<_> = src.into_packets().collect();
        assert_eq!(items.len(), 1);
        assert!(items[0].is_err());
    }
}
