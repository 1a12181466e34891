//! [`Input`] — the one place every packet (or archive) source a session
//! can consume is named.

use crate::error::PipelineError;
use flowzip_io::{InputSource, IoStats};
use flowzip_trace::{PacketRecord, Trace, TraceError};
use std::fmt;
use std::path::{Path, PathBuf};

/// One session input. Compression accepts every variant; decompression
/// accepts the archive-shaped ones ([`Input::file`], [`Input::bytes`]).
///
/// Construct with the associated functions — the variants themselves are
/// an implementation detail:
///
/// | constructor | feeds compress with | feeds decompress with |
/// |---|---|---|
/// | [`Input::file`] | one capture file (TSH/pcap, sniffed) | one `.fzc` archive |
/// | [`Input::files`] | an ordered pre-split capture set | — |
/// | [`Input::glob`] / [`Input::globs`] | `*`/`?` filename patterns | — |
/// | [`Input::trace`] | an in-memory [`Trace`] | — |
/// | [`Input::packets`] | any packet iterator | — |
/// | [`Input::source`] | any [`InputSource`] impl | — |
/// | [`Input::bytes`] | — | archive bytes in memory |
pub struct Input<'a> {
    pub(crate) kind: InputKind<'a>,
}

pub(crate) enum InputKind<'a> {
    /// Literal paths, in delivery order.
    Files(Vec<PathBuf>),
    /// `*`/`?` filename patterns and/or literal paths, expanded at run
    /// time (a pattern matching nothing is a configuration error, not an
    /// empty run).
    Patterns(Vec<String>),
    /// A borrowed in-memory trace.
    Trace(&'a Trace),
    /// An infallible packet iterator, pulled on the calling thread.
    Packets(Box<dyn Iterator<Item = PacketRecord> + 'a>),
    /// An already-opened [`InputSource`], type-erased: its stats handle
    /// plus its packet stream.
    Stream {
        stats: IoStats,
        packets: Box<dyn Iterator<Item = Result<PacketRecord, TraceError>> + 'a>,
        description: String,
    },
    /// In-memory archive bytes (decompression only).
    Bytes(Vec<u8>),
}

impl<'a> Input<'a> {
    /// One file: a capture (TSH or pcap, sniffed from the magic) for
    /// compression, or a `.fzc` archive for decompression.
    pub fn file(path: impl AsRef<Path>) -> Input<'static> {
        Input {
            kind: InputKind::Files(vec![path.as_ref().to_path_buf()]),
        }
    }

    /// An ordered set of pre-split capture files, streamed as **one**
    /// logical trace in the given order, each file read in turn on the
    /// calling thread.
    pub fn files<P: AsRef<Path>>(paths: impl IntoIterator<Item = P>) -> Input<'static> {
        Input {
            kind: InputKind::Files(
                paths
                    .into_iter()
                    .map(|p| p.as_ref().to_path_buf())
                    .collect(),
            ),
        }
    }

    /// A `*`/`?` filename pattern (see [`flowzip_io::glob`]); matches are
    /// sorted so numbered chunks keep capture order. A pattern matching
    /// zero files is a configuration error, never a silent empty run.
    pub fn glob(pattern: impl Into<String>) -> Input<'static> {
        Input {
            kind: InputKind::Patterns(vec![pattern.into()]),
        }
    }

    /// A mixed list of literal paths and patterns, expanded in argument
    /// order — exactly what a CLI's positional arguments are.
    pub fn globs<S: AsRef<str>>(patterns: impl IntoIterator<Item = S>) -> Input<'static> {
        Input {
            kind: InputKind::Patterns(
                patterns
                    .into_iter()
                    .map(|s| s.as_ref().to_string())
                    .collect(),
            ),
        }
    }

    /// A borrowed in-memory trace (the batch compressor's native input).
    pub fn trace(trace: &'a Trace) -> Input<'a> {
        Input {
            kind: InputKind::Trace(trace),
        }
    }

    /// Any infallible packet sequence.
    pub fn packets<I>(packets: I) -> Input<'a>
    where
        I: IntoIterator<Item = PacketRecord>,
        I::IntoIter: 'a,
    {
        Input {
            kind: InputKind::Packets(Box::new(packets.into_iter())),
        }
    }

    /// An already-opened [`InputSource`] — a
    /// [`FileSource`](flowzip_io::FileSource), a
    /// [`ReaderSource`](flowzip_io::ReaderSource) over a pipe or socket,
    /// or your own implementation. The source's [`IoStats`] feed the report's
    /// read-wait/compute split.
    pub fn source<S>(source: S) -> Input<'a>
    where
        S: InputSource,
        S::Packets: 'a,
    {
        let stats = source.stats();
        // Name the source by its type (e.g. `FileSource`) so
        // reports and error contexts say *what* was being read, not just
        // "input source".
        let description = std::any::type_name::<S>()
            .rsplit("::")
            .next()
            .unwrap_or("InputSource")
            .to_string();
        Input {
            kind: InputKind::Stream {
                stats,
                packets: Box::new(source.into_packets()),
                description,
            },
        }
    }

    /// In-memory archive bytes (decompression only).
    pub fn bytes(bytes: Vec<u8>) -> Input<'static> {
        Input {
            kind: InputKind::Bytes(bytes),
        }
    }

    /// Human-readable names for the report's `inputs` list.
    pub(crate) fn describe(&self) -> Vec<String> {
        match &self.kind {
            InputKind::Files(paths) => paths.iter().map(|p| p.display().to_string()).collect(),
            InputKind::Patterns(pats) => pats.clone(),
            InputKind::Trace(_) => vec!["<in-memory trace>".to_string()],
            InputKind::Packets(_) => vec!["<packet stream>".to_string()],
            InputKind::Stream { description, .. } => vec![format!("<{description}>")],
            InputKind::Bytes(_) => vec!["<in-memory archive>".to_string()],
        }
    }
}

impl InputKind<'_> {
    /// The one archive a decompress or query `session` reads: a single
    /// file, or bytes already in memory. `context` prefixes read errors.
    pub(crate) fn into_archive(
        self,
        session: &str,
        context: &str,
    ) -> Result<Vec<u8>, PipelineError> {
        match self {
            InputKind::Bytes(bytes) => Ok(bytes),
            InputKind::Files(paths) if paths.len() == 1 => {
                std::fs::read(&paths[0]).map_err(|e| PipelineError::read(context, e.into()))
            }
            InputKind::Files(_) | InputKind::Patterns(_) => Err(PipelineError::config(format!(
                "{session} reads exactly one archive — pass Input::file(path) \
                 or Input::bytes(vec)"
            ))),
            InputKind::Trace(_) | InputKind::Packets(_) | InputKind::Stream { .. } => {
                Err(PipelineError::config(format!(
                    "{session} wants a serialized archive (Input::file or Input::bytes), \
                     not a packet stream"
                )))
            }
        }
    }
}

impl fmt::Debug for Input<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            InputKind::Files(paths) => f.debug_tuple("Input::files").field(paths).finish(),
            InputKind::Patterns(pats) => f.debug_tuple("Input::globs").field(pats).finish(),
            InputKind::Trace(t) => write!(f, "Input::trace({} packets)", t.len()),
            InputKind::Packets(_) => write!(f, "Input::packets(..)"),
            InputKind::Stream { description, .. } => write!(f, "Input::source({description})"),
            InputKind::Bytes(b) => write!(f, "Input::bytes({} B)", b.len()),
        }
    }
}
