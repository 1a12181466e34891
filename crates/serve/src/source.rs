//! [`ServeSource`] — where a serve session's unbounded packet stream
//! comes from: a byte pipe (stdin, any reader), an accepted TCP or Unix
//! socket, a watched capture directory, or a plain packet iterator for
//! tests and examples.
//!
//! Every variant funnels into one shape — an iterator of
//! `Result<PacketRecord, TraceError>` drained by the ingest thread —
//! with byte streams going through
//! [`ReaderSource`](flowzip_io::ReaderSource), so the TSH/pcap magic
//! sniff and the read-wait accounting behave exactly like file input.

use flowzip_io::{InputSource, ReaderSource};
use flowzip_trace::{PacketRecord, TraceError};
use std::io::Read;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often the listening and watching variants poll for new
/// connections/files while also checking the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// A serve session's input. Construct with one of the factory methods
/// and hand it to [`ServeBuilder::source`](crate::ServeBuilder::source).
pub struct ServeSource {
    pub(crate) kind: SourceKind,
}

pub(crate) enum SourceKind {
    /// A single byte stream, sniffed TSH/pcap like a file.
    Reader(Box<dyn Read + Send>),
    /// Pre-decoded packets (tests, examples, embedders with their own
    /// capture front-end).
    Packets(Box<dyn Iterator<Item = Result<PacketRecord, TraceError>> + Send>),
    /// Accept TCP connections sequentially; each connection is one
    /// complete capture stream.
    Listen(std::net::TcpListener),
    /// Accept Unix-socket connections sequentially.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener),
    /// Poll a directory for new capture files (rename-into-place
    /// delivery), reading each exactly once in name order.
    Watch(PathBuf),
}

impl ServeSource {
    /// Reads the capture stream from standard input.
    pub fn stdin() -> ServeSource {
        ServeSource::reader(std::io::stdin())
    }

    /// Reads the capture stream from any byte reader (a pipe, an
    /// already-accepted socket, a test buffer). TSH vs. pcap is sniffed
    /// from the first bytes.
    pub fn reader(r: impl Read + Send + 'static) -> ServeSource {
        ServeSource {
            kind: SourceKind::Reader(Box::new(r)),
        }
    }

    /// Consumes pre-decoded packets — the test and example front door.
    pub fn packets(
        iter: impl Iterator<Item = Result<PacketRecord, TraceError>> + Send + 'static,
    ) -> ServeSource {
        ServeSource {
            kind: SourceKind::Packets(Box::new(iter)),
        }
    }

    /// Binds `addr` (e.g. `127.0.0.1:4711`) and accepts capture
    /// connections sequentially: each accepted connection is decoded as
    /// one complete TSH/pcap stream and its packets join the session's
    /// stream in arrival order.
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn listen(addr: &str) -> std::io::Result<ServeSource> {
        Ok(ServeSource::listener(std::net::TcpListener::bind(addr)?))
    }

    /// Like [`ServeSource::listen`] over a pre-bound listener — lets
    /// tests bind port 0 and learn the real address first.
    pub(crate) fn listener(listener: std::net::TcpListener) -> ServeSource {
        ServeSource {
            kind: SourceKind::Listen(listener),
        }
    }

    /// Binds a Unix socket at `path` and accepts capture connections
    /// sequentially, like [`ServeSource::listen`].
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    #[cfg(unix)]
    pub fn unix(path: impl AsRef<std::path::Path>) -> std::io::Result<ServeSource> {
        Ok(ServeSource {
            kind: SourceKind::Unix(std::os::unix::net::UnixListener::bind(path)?),
        })
    }

    /// Tails a capture directory: every `.tsh`/`.pcap` file that appears
    /// is read exactly once, in file-name order. Files must be delivered
    /// complete — write elsewhere and `rename(2)` into the directory,
    /// the standard log-shipping handoff.
    pub fn watch_dir(dir: impl Into<PathBuf>) -> ServeSource {
        ServeSource {
            kind: SourceKind::Watch(dir.into()),
        }
    }

    /// Human-readable description for reports.
    pub fn describe(&self) -> String {
        match &self.kind {
            SourceKind::Reader(_) => "<byte stream>".to_string(),
            SourceKind::Packets(_) => "<packet stream>".to_string(),
            SourceKind::Listen(l) => match l.local_addr() {
                Ok(a) => format!("tcp://{a}"),
                Err(_) => "tcp://?".to_string(),
            },
            #[cfg(unix)]
            SourceKind::Unix(_) => "<unix socket>".to_string(),
            SourceKind::Watch(p) => format!("watch:{}", p.display()),
        }
    }
}

impl std::fmt::Debug for ServeSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServeSource({})", self.describe())
    }
}

/// Drains `source` into `sink` packet-by-packet until the stream ends,
/// the stop flag flips, or `sink` reports it can take no more. Decode
/// errors stop the drain with the error (terminal, like every capture
/// iterator in the workspace).
///
/// The `sink` callback returns `false` to stop (downstream has shut
/// down); errors are returned to the caller to surface in the session
/// report.
pub(crate) fn drain(
    source: ServeSource,
    stop: &Arc<AtomicBool>,
    sink: &mut dyn FnMut(PacketRecord) -> bool,
) -> Result<(), TraceError> {
    match source.kind {
        SourceKind::Packets(iter) => drain_iter(iter, stop, sink),
        SourceKind::Reader(r) => {
            let src = ReaderSource::open(r)?;
            drain_iter(src.into_packets(), stop, sink)
        }
        SourceKind::Listen(listener) => {
            listener.set_nonblocking(true).map_err(TraceError::Io)?;
            accept_loop(stop, sink, || match listener.accept() {
                Ok((conn, _)) => {
                    conn.set_nonblocking(false).map_err(TraceError::Io)?;
                    Ok(Some(Box::new(conn) as Box<dyn Read + Send>))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(TraceError::Io(e)),
            })
        }
        #[cfg(unix)]
        SourceKind::Unix(listener) => {
            listener.set_nonblocking(true).map_err(TraceError::Io)?;
            accept_loop(stop, sink, || match listener.accept() {
                Ok((conn, _)) => {
                    conn.set_nonblocking(false).map_err(TraceError::Io)?;
                    Ok(Some(Box::new(conn) as Box<dyn Read + Send>))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(TraceError::Io(e)),
            })
        }
        SourceKind::Watch(dir) => watch_loop(&dir, stop, sink),
    }
}

fn drain_iter(
    iter: impl Iterator<Item = Result<PacketRecord, TraceError>>,
    stop: &Arc<AtomicBool>,
    sink: &mut dyn FnMut(PacketRecord) -> bool,
) -> Result<(), TraceError> {
    for item in iter {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        if !sink(item?) {
            return Ok(());
        }
    }
    Ok(())
}

/// Sequential accept loop shared by the TCP and Unix listeners: poll
/// `accept` (non-blocking), decode each connection as one capture
/// stream, sleep between polls so the stop flag stays responsive.
fn accept_loop(
    stop: &Arc<AtomicBool>,
    sink: &mut dyn FnMut(PacketRecord) -> bool,
    mut accept: impl FnMut() -> Result<Option<Box<dyn Read + Send>>, TraceError>,
) -> Result<(), TraceError> {
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match accept()? {
            Some(conn) => {
                let src = ReaderSource::open(conn)?;
                drain_iter(src.into_packets(), stop, sink)?;
            }
            None => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Directory-tail loop: each poll picks up unseen `.tsh`/`.pcap` files
/// in name order and streams them through the sink.
fn watch_loop(
    dir: &std::path::Path,
    stop: &Arc<AtomicBool>,
    sink: &mut dyn FnMut(PacketRecord) -> bool,
) -> Result<(), TraceError> {
    let mut seen = std::collections::BTreeSet::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut fresh: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(TraceError::Io)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                matches!(
                    p.extension().and_then(|e| e.to_str()),
                    Some("tsh") | Some("pcap")
                ) && !seen.contains(p)
            })
            .collect();
        fresh.sort();
        if fresh.is_empty() {
            std::thread::sleep(POLL_INTERVAL);
            continue;
        }
        for path in fresh {
            let file = std::fs::File::open(&path).map_err(TraceError::Io)?;
            seen.insert(path);
            let src = ReaderSource::open(file)?;
            drain_iter(src.into_packets(), stop, sink)?;
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
        }
    }
}
