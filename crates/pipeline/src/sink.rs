//! [`Sink`] — where a session's serialized output goes.
//!
//! Every sink is written as a **stream**: a session opens it once,
//! pushes bytes through a fixed 64 KiB buffer, and commits at the end.
//! A compress session opens it only after its input was read, then
//! streams the archive in: the head, each section payload as its shard
//! encoded it, the trailing blocks — the archive is never held whole.
//! Decompress and query sessions push one capture record per
//! synthesized packet. Either way memory does not grow with a second
//! copy of the output.

use crate::error::PipelineError;
use flowzip_trace::reader::CaptureFormat;
use flowzip_trace::{CaptureWriter, PacketRecord, TraceError};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Bytes buffered between a session and a file or caller-supplied
/// writer — the largest single `write` a packet-streaming session
/// issues.
pub(crate) const SINK_BUFFER_BYTES: usize = 64 * 1024;

/// One session output: a file, an in-memory byte buffer returned from
/// [`run()`](crate::CompressBuilder::run), or any [`Write`]r you own.
pub struct Sink<'a> {
    pub(crate) kind: SinkKind<'a>,
}

pub(crate) enum SinkKind<'a> {
    File(PathBuf),
    Bytes,
    Writer(Box<dyn Write + 'a>),
}

impl<'a> Sink<'a> {
    /// Write the output to `path` (created or truncated).
    pub fn file(path: impl AsRef<Path>) -> Sink<'static> {
        Sink {
            kind: SinkKind::File(path.as_ref().to_path_buf()),
        }
    }

    /// Keep the output in memory;
    /// [`RunResult::into_bytes`](crate::RunResult::into_bytes) hands it
    /// back.
    pub fn bytes() -> Sink<'static> {
        Sink {
            kind: SinkKind::Bytes,
        }
    }

    /// Stream the output into any writer (a socket, a compressor, a
    /// test buffer), in writes of at most 64 KiB when the
    /// session produces it packet by packet.
    pub fn writer(writer: impl Write + 'a) -> Sink<'a> {
        Sink {
            kind: SinkKind::Writer(Box::new(writer)),
        }
    }

    /// The sink's path, when it has one (for the report).
    pub(crate) fn path(&self) -> Option<String> {
        match &self.kind {
            SinkKind::File(p) => Some(p.display().to_string()),
            _ => None,
        }
    }

    /// The scratch path a file sink writes before the atomic rename —
    /// `<path>.part` in the same directory. Signal handlers register
    /// this path so an interrupted run unlinks its half-written scratch
    /// file instead of leaving a truncated archive behind; readers
    /// watching `path` never observe a partial write at all.
    pub fn partial_path(path: &Path) -> PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".part");
        path.with_file_name(name)
    }

    /// Opens the sink for streaming. File output is atomic: bytes land
    /// in [`Sink::partial_path`] and are renamed into place by
    /// [`SinkWriter::finish`], so `path` either holds the old content or
    /// the complete new output — never a truncation — and a stream that
    /// is dropped unfinished removes its scratch file.
    pub(crate) fn open(self) -> Result<SinkWriter<'a>, PipelineError> {
        Ok(match self.kind {
            SinkKind::File(path) => {
                let part = PartFile::create(&path)
                    .map_err(|e| PipelineError::write(format!("create {}", path.display()), e))?;
                SinkWriter::File(BufWriter::with_capacity(SINK_BUFFER_BYTES, part))
            }
            SinkKind::Bytes => SinkWriter::Bytes(Vec::new()),
            SinkKind::Writer(w) => {
                SinkWriter::Writer(BufWriter::with_capacity(SINK_BUFFER_BYTES, w))
            }
        })
    }

    /// Drains `packets` into the sink as a `format` capture, one record
    /// at a time — nothing is held but the write buffer. A record the
    /// format cannot represent fails the delivery like any other write
    /// error: it is the output, not the archive, that cannot hold it.
    pub(crate) fn deliver_packets(
        self,
        format: CaptureFormat,
        packets: impl Iterator<Item = PacketRecord>,
    ) -> Result<Delivered, PipelineError> {
        let w = self.open()?;
        let context = w.context();
        let fail = |e: TraceError| {
            let source = match e {
                TraceError::Io(e) => e,
                other => io::Error::new(io::ErrorKind::InvalidData, other),
            };
            PipelineError::write(context.as_str(), source)
        };
        let mut capture = CaptureWriter::new(w, format).map_err(&fail)?;
        let mut count = 0u64;
        for p in packets {
            capture.write_packet(&p).map_err(&fail)?;
            count += 1;
        }
        Ok(Delivered {
            packets: count,
            bytes_written: capture.bytes_written(),
            buffer: capture.into_inner().finish()?,
        })
    }
}

/// What [`Sink::deliver_packets`] did.
#[derive(Debug)]
pub(crate) struct Delivered {
    /// Packets written.
    pub(crate) packets: u64,
    /// Capture bytes written (file header included).
    pub(crate) bytes_written: u64,
    /// The capture itself, for [`Sink::bytes`].
    pub(crate) buffer: Option<Vec<u8>>,
}

impl fmt::Debug for Sink<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SinkKind::File(p) => f.debug_tuple("Sink::file").field(p).finish(),
            SinkKind::Bytes => write!(f, "Sink::bytes"),
            SinkKind::Writer(_) => write!(f, "Sink::writer(..)"),
        }
    }
}

/// An opened [`Sink`].
pub(crate) enum SinkWriter<'a> {
    File(BufWriter<PartFile>),
    Bytes(Vec<u8>),
    Writer(BufWriter<Box<dyn Write + 'a>>),
}

impl SinkWriter<'_> {
    /// Where the bytes are going, for error messages.
    pub(crate) fn context(&self) -> String {
        match self {
            SinkWriter::File(w) => format!("write {}", w.get_ref().written_path().display()),
            SinkWriter::Bytes(_) | SinkWriter::Writer(_) => "write sink".to_string(),
        }
    }

    /// Flushes and commits: a file is renamed into place, an in-memory
    /// buffer handed back. The rename runs only after every buffered
    /// byte reached the file.
    pub(crate) fn finish(mut self) -> Result<Option<Vec<u8>>, PipelineError> {
        if let Err(e) = self.flush() {
            return Err(PipelineError::write(self.context(), e));
        }
        match self {
            SinkWriter::File(w) => {
                let (part, _) = w.into_parts();
                let path = part.path.clone();
                part.commit().map_err(|e| {
                    PipelineError::write(format!("rename into {}", path.display()), e)
                })?;
                Ok(None)
            }
            SinkWriter::Bytes(buf) => Ok(Some(buf)),
            SinkWriter::Writer(_) => Ok(None),
        }
    }
}

impl Write for SinkWriter<'_> {
    #[inline]
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SinkWriter::File(w) => w.write(buf),
            SinkWriter::Bytes(w) => w.write(buf),
            SinkWriter::Writer(w) => w.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            SinkWriter::File(w) => w.flush(),
            SinkWriter::Bytes(_) => Ok(()),
            SinkWriter::Writer(w) => w.flush(),
        }
    }
}

/// A file being written under its [`Sink::partial_path`] name:
/// [`PartFile::commit`] renames it into place, and dropping it
/// uncommitted — an error return, a panic unwinding — unlinks the
/// scratch file. This is the one implementation of the workspace's
/// write-`.part`-then-rename discipline; [`Sink::file`] and serve's
/// rotated archives are built on it, and callers that stream several
/// sessions into one output (`flowzip query <dir> -o`) hand each
/// session `Sink::writer(&mut part_file)`.
///
/// An existing `path` that is not a regular file (a FIFO, a device, or
/// a symlink to one such as `/dev/stdout`), and any path that reaches an
/// open descriptor (`/dev/stdout` when a shell redirected it to a file),
/// is written straight through and never unlinked: a rename would
/// replace the node, or the link, itself.
#[derive(Debug)]
pub struct PartFile {
    file: File,
    /// The uncommitted scratch file; `None` when writing straight
    /// through or once committed.
    part: Option<PathBuf>,
    path: PathBuf,
}

impl PartFile {
    /// Creates (or truncates) `<path>.part`; `path` itself is untouched
    /// until [`PartFile::commit`]. A non-regular `path` is opened
    /// instead.
    ///
    /// # Errors
    ///
    /// The file to write could not be opened.
    pub fn create(path: impl AsRef<Path>) -> io::Result<PartFile> {
        let path = path.as_ref().to_path_buf();
        let (file, part) = if PartFile::writes_through(&path) {
            // Appending: a file a shell opened with `>` is empty, and
            // one opened with `>>` keeps what it held.
            (File::options().append(true).open(&path)?, None)
        } else {
            let part = Sink::partial_path(&path);
            (File::create(&part)?, Some(part))
        };
        Ok(PartFile { file, part, path })
    }

    /// Whether [`PartFile::create`] writes `path` straight through
    /// rather than staging `.part`: `path` exists and is not a regular
    /// file, or its chain of symlinks passes through an open descriptor
    /// (`/dev/stdout` → `/proc/self/fd/1`, `/dev/fd/N`) — whatever that
    /// descriptor names, even a regular file a shell redirected it to.
    /// Such a target is never renamed over or unlinked.
    pub fn writes_through(path: impl AsRef<Path>) -> bool {
        // `metadata` follows symlinks: `/dev/stdout` is the node it
        // names, not the link.
        std::fs::metadata(&path).is_ok_and(|m| !m.is_file())
            || PartFile::names_a_descriptor(path.as_ref())
    }

    /// Whether `path`, or a link its symlink chain passes through, is a
    /// per-process descriptor link (`/proc/self/fd/N`, `/dev/fd/N`).
    pub fn names_a_descriptor(path: impl AsRef<Path>) -> bool {
        let mut hop = path.as_ref().to_path_buf();
        // Past the kernel's own limit of 40 links a chain cannot open.
        for _ in 0..=40 {
            if hop.starts_with("/proc/self/fd") || hop.starts_with("/dev/fd") {
                return true;
            }
            match std::fs::read_link(&hop) {
                Ok(target) => {
                    hop = match hop.parent() {
                        Some(dir) => dir.join(target),
                        None => target,
                    }
                }
                Err(_) => return false,
            }
        }
        false
    }

    /// The file the bytes land in: the scratch file, or `path` itself
    /// when writing straight through.
    pub fn written_path(&self) -> &Path {
        self.part.as_deref().unwrap_or(&self.path)
    }

    /// Renames the scratch file over `path` (a no-op when writing
    /// straight through). Unbuffered, so everything written is already
    /// in the file.
    ///
    /// # Errors
    ///
    /// The rename failed; the scratch file is removed.
    pub fn commit(mut self) -> io::Result<()> {
        if let Some(part) = &self.part {
            std::fs::rename(part, &self.path)?;
        }
        self.part = None;
        Ok(())
    }
}

impl Write for PartFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Drop for PartFile {
    fn drop(&mut self) {
        if let Some(part) = &self.part {
            std::fs::remove_file(part).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    fn packets(n: u64) -> impl Iterator<Item = PacketRecord> {
        (0..n).map(|i| {
            PacketRecord::builder()
                .timestamp(flowzip_trace::Timestamp::from_micros(i))
                .build()
        })
    }

    /// Records the size of every `write` it receives.
    struct Recording<'a> {
        writes: &'a RefCell<Vec<usize>>,
        on_write: &'a dyn Fn(),
    }

    impl Write for Recording<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            (self.on_write)();
            self.writes.borrow_mut().push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_merge_reaches_a_writer_in_bounded_writes_while_still_opening_flows() {
        use flowzip_core::{ArchiveReader, Compressor, Decompressor, Params};
        use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
        let trace = WebTrafficGenerator::new(
            WebTrafficConfig {
                flows: 600,
                ..WebTrafficConfig::default()
            },
            5,
        )
        .generate();
        let bytes = Compressor::new(Params::paper())
            .compress(&trace)
            .0
            .to_bytes_v2();
        let archive = ArchiveReader::open(&bytes).unwrap();
        let flows = archive.records(|_| true).unwrap().flows();
        let total = trace.len() as u64;
        let decompressor = Decompressor::default();

        let writes = RefCell::new(Vec::new());
        let pulled = Cell::new(0usize);
        let pulled_at_first_write = Cell::new(None);
        let on_write = || {
            if pulled_at_first_write.get().is_none() {
                pulled_at_first_write.set(Some(pulled.get()));
            }
        };
        let delivered = Sink::writer(Recording {
            writes: &writes,
            on_write: &on_write,
        })
        .deliver_packets(
            CaptureFormat::Tsh,
            decompressor
                .packets(archive.records(|_| true).unwrap())
                .inspect(|_| pulled.set(pulled.get() + 1)),
        )
        .unwrap();
        assert_eq!(delivered.packets, total);
        assert_eq!(delivered.bytes_written, total * 44);
        assert!(delivered.buffer.is_none());

        let writes = writes.into_inner();
        assert!(writes.len() > 1, "{} writes", writes.len());
        assert!(writes.iter().all(|&n| n <= SINK_BUFFER_BYTES), "{writes:?}");
        assert_eq!(writes.iter().sum::<usize>() as u64, total * 44);

        // The first write left as soon as the buffer filled — when the
        // merge had not yet opened most of the archive's records.
        let first = pulled_at_first_write.get().unwrap();
        assert!(first <= SINK_BUFFER_BYTES / 44 + 1, "{first}");
        let mut replay = decompressor.packets(archive.records(|_| true).unwrap());
        assert_eq!(replay.by_ref().take(first).count(), first);
        assert!(
            (replay.records_opened() as u64) < flows / 2,
            "{} of {flows} records open at the first write",
            replay.records_opened(),
        );
    }

    #[test]
    fn file_sink_commits_on_success_and_leaves_nothing_on_failure() {
        let dir = std::env::temp_dir().join(format!("flowzip-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("out.tsh");
        let part = Sink::partial_path(&out);

        let delivered = Sink::file(&out)
            .deliver_packets(CaptureFormat::Tsh, packets(3))
            .unwrap();
        assert_eq!(delivered.bytes_written, 3 * 44);
        assert_eq!(std::fs::read(&out).unwrap().len(), 3 * 44);
        assert!(!part.exists());

        // A packet TSH cannot represent, after some it can: the error
        // names the field, and neither the scratch file nor a new
        // output survives — the old output is untouched.
        let late = PacketRecord::builder()
            .timestamp(flowzip_trace::Timestamp::from_secs(u32::MAX as u64 + 10))
            .build();
        let err = Sink::file(&out)
            .deliver_packets(CaptureFormat::Tsh, packets(5).chain([late]))
            .unwrap_err();
        assert!(matches!(err, PipelineError::Write { .. }), "{err}");
        assert!(err.to_string().contains("timestamp_secs"), "{err}");
        assert!(!part.exists());
        assert_eq!(std::fs::read(&out).unwrap().len(), 3 * 44);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_writer_mid_stream_surfaces_the_io_error() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = Sink::writer(FailAfter(2))
            .deliver_packets(CaptureFormat::Pcap, packets(10_000))
            .unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");

        // A compress session streams its archive the same way: past the
        // buffered head, the first section payload (the archive is
        // ≈ 130 KB) fails.
        let trace = flowzip_traffic::P2pTrafficGenerator::new(Default::default(), 3).generate();
        let err = crate::Pipeline::compress()
            .input(crate::Input::trace(&trace))
            .sink(Sink::writer(FailAfter(1)))
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Write { .. }), "{err}");
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    #[test]
    fn part_file_unlinks_unless_committed() {
        let dir = std::env::temp_dir().join(format!("flowzip-part-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("merged.tsh");
        let part = Sink::partial_path(&out);

        let mut f = PartFile::create(&out).unwrap();
        f.write_all(b"half").unwrap();
        assert!(part.exists());
        drop(f);
        assert!(!part.exists() && !out.exists());

        let mut f = PartFile::create(&out).unwrap();
        f.write_all(b"whole").unwrap();
        f.commit().unwrap();
        assert!(!part.exists());
        assert_eq!(std::fs::read(&out).unwrap(), b"whole");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `-o /dev/stdout` with stdout redirected to a regular file: the
    /// link chain ends at the file, but it passes through a descriptor.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_link_to_an_open_descriptor_is_written_through_not_renamed_over() {
        use std::os::fd::AsRawFd;
        let dir = std::env::temp_dir().join(format!("flowzip-fd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let redirected = dir.join("redirected.tsh");
        let file = File::create(&redirected).unwrap();
        let out = dir.join("out");
        let fd = format!("/proc/self/fd/{}", file.as_raw_fd());
        std::os::unix::fs::symlink(&fd, &out).unwrap();

        let mut f = PartFile::create(&out).unwrap();
        f.write_all(b"capture").unwrap();
        f.commit().unwrap();
        assert_eq!(std::fs::read(&redirected).unwrap(), b"capture");
        assert_eq!(std::fs::read_link(&out).unwrap(), PathBuf::from(fd));
        assert!(!Sink::partial_path(&out).exists());
        drop(file);
        std::fs::remove_dir_all(&dir).ok();
    }
}
