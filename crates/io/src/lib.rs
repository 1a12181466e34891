//! Capture input for the flowzip pipeline.
//!
//! * [`FileSource`] — the one capture-file reader: an ordered set of
//!   TSH or pcap files (a single file is a set of one), each file's
//!   magic sniffed up front, a mixed pcap/TSH set rejected before
//!   anything is read, then one buffered reader per file chained on the
//!   consuming thread. Zero-byte files contribute no packets.
//! * [`ReaderSource`] — the same contract over any byte stream (a stdin
//!   pipe, an accepted socket).
//! * [`glob`] — `*`/`?` filename patterns, sorted so numbered chunks
//!   keep capture order.
//! * [`InputSource`] + [`IoStats`] — the pluggable input interface the
//!   engine consumes, with read-wait/byte counters that let a run report
//!   how much wall-clock it lost waiting on input vs. computing.
//!
//! Reading is sequential by design. On the 8-file `p2p_pcap_split`
//! ledger workload (1.04 M packets, `--threads 2`, 2-vCPU host) the
//! sequential reader compresses in 189 ms wall against 219 ms through
//! two reader threads, for the same archive bytes. [`MultiFileSource`],
//! [`PrefetchReader`] and [`WorkerPool`] — the reader threads that
//! measurement retired — stay only because the performance ledger's
//! `io.multifile_read` and `io.prefetch_read` probes
//! (`benchmark/src/layers.rs`) import them.
//!
//! ```
//! use flowzip_io::{FileSource, InputSource};
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
//! // …read as one logical stream, in order, on this thread.
//! let source = FileSource::open_set([dir.join("a.tsh"), dir.join("b.tsh")]).unwrap();
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
