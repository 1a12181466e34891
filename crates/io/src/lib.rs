//! Overlapped-I/O input subsystem for the flowzip pipeline.
//!
//! The streaming engine's scaling ceiling was its single reader+router
//! thread: every byte was read, decoded *and* routed on one core. This
//! crate decouples disk from parse from compute:
//!
//! * [`PrefetchReader`] — a dedicated I/O thread double-buffers
//!   fixed-size file chunks (bounded channel, configurable count/size)
//!   behind the existing `TshReader`/`PcapReader` iterators.
//! * [`MultiFileSource`] — an ordered set of pre-split capture files
//!   (explicit list or `*`/`?` glob) as one logical packet stream, with
//!   parallel reader threads each decoding a file while the consumer
//!   drains them strictly in set order. Delivery is *exactly* what a
//!   single chained reader would produce — same packets, same order,
//!   same first error — so archives stay byte-identical.
//! * [`WorkerPool`] — the small bounded-thread task runner behind the
//!   multi-file readers.
//! * [`InputSource`] + [`IoStats`] — the pluggable input interface the
//!   engine consumes, with read-wait/byte counters that let a run report
//!   how much wall-clock it lost waiting on input vs. computing.
//!
//! ```
//! use flowzip_io::{InputSource, MultiFileConfig, MultiFileSource};
//! use flowzip_trace::prelude::*;
//! use flowzip_trace::tsh;
//!
//! // Two pre-split TSH chunks…
//! let dir = std::env::temp_dir().join(format!("fzio-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let mut t = Trace::new();
//! t.push(PacketRecord::builder().timestamp(Timestamp::from_micros(5)).build());
//! std::fs::write(dir.join("a.tsh"), tsh::to_bytes(&t)).unwrap();
//! std::fs::write(dir.join("b.tsh"), tsh::to_bytes(&t)).unwrap();
//!
//! // …presented as one logical stream, drained by 2 reader threads.
//! let source = MultiFileSource::open(
//!     [dir.join("a.tsh"), dir.join("b.tsh")],
//!     MultiFileConfig::with_readers(2),
//! ).unwrap();
//! let packets: Vec<_> = source.into_packets().collect::<Result<_, _>>().unwrap();
//! assert_eq!(packets.len(), 2);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod glob;
pub mod multifile;
pub mod pool;
pub mod prefetch;
pub mod source;
pub mod stats;

pub use multifile::{MultiFileConfig, MultiFileIter, MultiFileSource};
pub use pool::{DetachedTasks, WorkerPool};
pub use prefetch::{PrefetchConfig, PrefetchReader};
pub use source::{FileSource, InputSource, ReaderSource};
pub use stats::{CountingRead, IoStats, TimedRead};
