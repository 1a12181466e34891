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
//! # Shards and engine tuning
//!
//! A compress session holds the engine's own
//! [`EngineBuilder`](flowzip_engine::EngineBuilder): `params`,
//! `idle_timeout`, `telemetry`, `metrics`, `profiler` and `cancel`
//! forward to it, so the engine's defaults and its one validator
//! ([`EngineBuilder::try_build`](flowzip_engine::EngineBuilder::try_build))
//! are the session's. [`CompressBuilder::threads`] sets the shard count
//! and defaults to **one shard** for every input: inline on the calling
//! thread, byte-identical to `Compressor`, the same bytes on every host.
//! Batching and channel depth keep the engine's defaults; they never
//! change the bytes, so a session does not expose them. The live
//! stats knobs go through [`LiveStats::start`], which `flowzip serve`'s
//! session builder calls too. Nonsense configurations (any zero-valued
//! knob, an empty file list, a glob matching nothing) are rejected up
//! front with a descriptive [`PipelineError::Config`] instead of
//! panicking, hanging, or silently compressing nothing.
//!
//! # The unified report
//!
//! Every session returns one [`Report`] behind one stable
//! [`Report::to_json`] schema — the same schema `flowzip compress
//! --json`, `flowzip decompress --json` and `flowzip info --json` print.
//! A compress session fills it once, in [`Report::from_engine`], from
//! the engine's [`EngineReport`](flowzip_engine::EngineReport) (which
//! carries the §3/§5
//! [`CompressionReport`](flowzip_core::CompressionReport) and the
//! summary of the `FZT1` block it wrote) and the input's
//! [`IoStats`](flowzip_io::IoStats) read-wait/compute split; `flowzip
//! serve` builds each window's report the same way.

pub mod compress;
pub mod decompress;
pub mod error;
pub mod input;
pub mod query;
pub mod report;
pub mod sink;
pub mod stats;

pub use compress::{CompressBuilder, RunResult};
pub use decompress::DecompressBuilder;
pub use error::PipelineError;
pub use flowzip_engine::CancelFlag;
pub use query::QueryBuilder;
// Observability knobs a session takes (`.metrics()`, `.profiler()`,
// `.stats_interval()`, …), re-exported so embedders need no direct
// `flowzip-obs` dependency.
pub use flowzip_obs::{Metrics, Profiler, Sampler, SnapshotFormat, StatsSink, StatsSnapshot};
pub use input::Input;
pub use report::{ArchiveSummary, EngineSummary, Report, TelemetrySummary, Timing};
pub use sink::{PartFile, Sink};
pub use stats::LiveStats;

/// The session entry point: [`Pipeline::compress`] and
/// [`Pipeline::decompress`] start a builder each.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline;
