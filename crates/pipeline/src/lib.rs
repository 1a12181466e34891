//! **One `Pipeline` session API**: Source → Engine → Sink, for compress
//! *and* decompress.
//!
//! The workspace grew its capability crates bottom-up — the paper's
//! batch [`Compressor`](flowzip_core::Compressor), the sharded
//! [`StreamingEngine`](flowzip_engine::StreamingEngine), the capture
//! reader in [`flowzip_io`]. This crate is the one front door: a
//! builder-style *session* that names the input once, the output once,
//! the tuning once, and runs the engine over it. There is one compress
//! route; `Compressor` stays in `flowzip-core` as the reference oracle
//! the equivalence property tests in `tests/equivalence.rs` pin the
//! session's output **byte-identical** to.
//!
//! ```text
//! Input ── file / files / glob / trace / packets / source ─┐
//!                                                          ▼
//!                                    Pipeline::compress()  ─ StreamingEngine
//!                                          tuning
//!                                                          ▼
//! Sink ─── file / bytes / writer ◀─────────────────────────┘   + unified Report
//! ```
//!
//! # Compress
//!
//! ```
//! use flowzip_pipeline::{Input, Pipeline, Sink};
//! use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
//!
//! let trace = WebTrafficGenerator::new(
//!     WebTrafficConfig { flows: 100, ..Default::default() }, 7).generate();
//!
//! let result = Pipeline::compress()
//!     .input(Input::trace(&trace))
//!     .sink(Sink::bytes())
//!     .run()
//!     .unwrap();
//! let report = &result.report;
//! assert!(report.compression.as_ref().unwrap().ratio_vs_tsh < 0.10);
//! let archive_bytes = result.into_bytes().unwrap();
//!
//! // Decompress is the symmetric session: archive in, trace out.
//! let restored = Pipeline::decompress()
//!     .input(Input::bytes(archive_bytes))
//!     .sink(Sink::bytes())
//!     .run()
//!     .unwrap();
//! assert_eq!(restored.report.packets as usize, trace.len());
//! ```
//!
//! # Shards
//!
//! [`CompressBuilder::threads`] is the one knob that sets parallelism.
//! Unset, a single file or an in-memory trace runs on **one shard** —
//! inline on the calling thread, byte-identical to `Compressor`, the same
//! bytes on every host — while multi-file, [`Input::packets`] and
//! [`Input::source`] inputs get the engine's default of one shard per
//! core (at most 8). No other knob changes the shard count. Nonsense
//! configurations (any zero-valued knob, an empty file list, a glob
//! matching nothing) are rejected up front with a descriptive
//! [`PipelineError::Config`] instead of panicking, hanging, or silently
//! compressing nothing.
//!
//! # The unified report
//!
//! Every session returns one [`Report`] merging the §3/§5
//! [`CompressionReport`](flowzip_core::CompressionReport), the
//! [`EngineReport`](flowzip_engine::EngineReport) figures and the
//! [`IoStats`](flowzip_io::IoStats) read-wait/compute split behind one
//! stable [`Report::to_json`] schema — the same schema `flowzip compress
//! --json`, `flowzip decompress --json` and `flowzip info --json` print.

pub mod compress;
pub mod decompress;
pub mod error;
pub mod input;
pub mod query;
pub mod report;
pub mod sink;

pub use compress::{CompressBuilder, RunResult};
pub use decompress::DecompressBuilder;
pub use error::PipelineError;
pub use flowzip_engine::CancelFlag;
pub use query::{parse_flow_spec, QueryBuilder};
// Observability knobs a session takes (`.metrics()`, `.profiler()`,
// `.stats_interval()`, …), re-exported so embedders need no direct
// `flowzip-obs` dependency.
pub use flowzip_obs::{Metrics, Profiler, Sampler, SnapshotFormat, StatsSink, StatsSnapshot};
pub use input::Input;
pub use report::{ArchiveSummary, EngineSummary, Mode, Report, TelemetrySummary, Timing};
pub use sink::{PartFile, Sink, SINK_BUFFER_BYTES};

/// The session entry point: [`Pipeline::compress`] and
/// [`Pipeline::decompress`] start a builder each.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline;
