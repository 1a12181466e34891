//! `flowzip-engine` — a sharded, bounded-memory **streaming** compression
//! pipeline over the §3 algorithm.
//!
//! The core [`Compressor`](flowzip_core::Compressor) is the paper's
//! reference implementation: it wants the whole
//! [`Trace`](flowzip_trace::Trace) in memory. This crate turns the same
//! algorithm into the online pipeline every production session runs,
//! one that handles traces far larger than RAM:
//!
//! * **Incremental input** — packets arrive from any fallible
//!   `Iterator<Item = Result<PacketRecord, TraceError>>`, e.g. the
//!   streaming [`TshReader`](flowzip_trace::TshReader) /
//!   [`PcapReader`](flowzip_trace::PcapReader). The engine knows
//!   nothing about files: `flowzip-pipeline` opens the input and hands
//!   the engine its packet stream.
//! * **Flow sharding** — one router on the calling thread hashes each
//!   packet's canonical flow key and hands it to one of N worker
//!   threads, so every packet of a flow lands on the same shard, in
//!   stream order, and per-flow state never needs locks. Packets travel
//!   in batches over bounded channels to amortize send overhead and to
//!   apply back-pressure to the reader.
//! * **Bounded memory** — each shard runs its own
//!   [`FlowAccumulator`](flowzip_core::FlowAccumulator) with idle-flow
//!   timeout eviction and drains finished flows into a shard-local
//!   [`TemplateStore`](flowzip_core::TemplateStore) as they close, so
//!   resident state is proportional to flow *concurrency*, not trace
//!   length.
//! * **Per-shard sections** — at end of input every shard encodes its own
//!   container-v2 section on its own thread; the serial tail only folds
//!   the per-shard stores via
//!   [`TemplateStore::merge`](flowzip_core::TemplateStore::merge), which
//!   re-clusters foreign centers under the same Eq. 4 `d_sim` rule, and
//!   writes the section index. The archive decodes to a valid
//!   `CompressedTrace` indistinguishable in structure from batch output.
//!
//! With one shard and no idle timeout the engine runs inline on the
//! calling thread — no channel, no worker — and is *byte-identical* to
//! the batch compressor; with many shards the per-flow datasets stay
//! exactly equal and only the greedy clustering may differ slightly (the
//! equivalence property tests pin both).
//!
//! # Example
//!
//! A run is two steps: [`StreamingEngine::drain`] reads any fallible
//! packet iterator to its end, and [`StreamingEngine::write`] streams
//! the container-v2 archive into any writer and returns the report.
//! [`StreamingEngine::compress_stream_to_bytes`] does both into one
//! buffer. Applications normally sit one level up, on
//! `flowzip-pipeline`'s `Pipeline::compress()` session API, which opens
//! the input, runs this engine into its sink and charges the source's
//! read-wait to the report.
//!
//! ```
//! use flowzip_core::CompressedTrace;
//! use flowzip_engine::StreamingEngine;
//! use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
//!
//! let trace = WebTrafficGenerator::new(
//!     WebTrafficConfig { flows: 200, ..Default::default() }, 42).generate();
//!
//! let engine = StreamingEngine::builder().shards(2).build();
//! let (bytes, report) = engine
//!     .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
//!     .unwrap();
//! assert_eq!(report.report.packets, trace.len() as u64);
//! assert_eq!(report.sections, 2);
//! let archive = CompressedTrace::from_bytes(&bytes).unwrap();
//! assert_eq!(archive.packet_count(), trace.len() as u64);
//! ```

pub mod builder;
pub mod engine;
mod obs;
pub mod report;

pub use builder::{CancelFlag, ConfigError, EngineBuilder, EngineConfig};
pub use engine::{Drained, StreamingEngine};
pub use report::EngineReport;

// Re-exported so engine embedders can enable observability without a
// direct `flowzip-obs` dependency.
pub use flowzip_obs::{Metrics, Profiler};
