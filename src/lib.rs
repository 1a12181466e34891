//! # flowzip
//!
//! A production-grade reproduction of *"Performance Analysis of a New
//! Packet Trace Compressor based on TCP Flow Clustering"* (Holanda,
//! Verdú, García, Valero — ISPASS 2005): a lossy packet-trace compressor
//! that clusters similar TCP flows into shared templates, reaching ≈3% of
//! the original trace size while preserving the statistical properties
//! that drive memory-system behaviour of trace-driven benchmarks.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`pipeline`] | `flowzip-pipeline` | ★ the one-stop `Pipeline` session API (Source → Engine → Sink) |
//! | [`trace`] | `flowzip-trace` | packet/flow model, TSH trace format |
//! | [`traffic`] | `flowzip-traffic` | synthetic Web/random/fractal traces |
//! | [`core`] | `flowzip-core` | the flow-clustering compressor (§2–§4) |
//! | [`engine`] | `flowzip-engine` | sharded, bounded-memory streaming engine |
//! | [`serve`] | `flowzip-serve` | continuous-ingest daemon: rotated archives + manifest |
//! | [`io`] | `flowzip-io` | overlapped-I/O input: prefetch, multi-file readers, worker pool |
//! | [`obs`] | `flowzip-obs` | metrics, live stats snapshots, span profiling, leveled logging |
//! | [`deflate`] | `flowzip-deflate` | from-scratch DEFLATE/gzip baseline |
//! | [`vj`] | `flowzip-vj` | Van Jacobson header compression baseline |
//! | [`peuhkuri`] | `flowzip-peuhkuri` | Peuhkuri flow-based baseline |
//! | [`radix`] | `flowzip-radix` | PATRICIA routing table + tracing |
//! | [`cachesim`] | `flowzip-cachesim` | cache simulator + packet meter |
//! | [`netbench`] | `flowzip-netbench` | Route/NAT/RTR kernels (§6) |
//! | [`analysis`] | `flowzip-analysis` | CDFs, histograms, KS, tables |
//!
//! # Quickstart
//!
//! One [`Pipeline`](flowzip_pipeline::Pipeline) session covers every
//! compression input — one file or a pre-split set, in-memory or on
//! disk, all through the one streaming engine — and its symmetric
//! decompress twin:
//!
//! ```
//! use flowzip::prelude::*;
//!
//! // 1. A synthetic Web trace (the RedIRIS substitute).
//! let trace = WebTrafficGenerator::new(
//!     WebTrafficConfig { flows: 200, ..Default::default() }, 42).generate();
//!
//! // 2. Compress by flow clustering: one input, one sink, run.
//! let result = Pipeline::compress()
//!     .input(Input::trace(&trace))
//!     .sink(Sink::bytes())
//!     .run()
//!     .unwrap();
//! assert!(result.report.compression.as_ref().unwrap().ratio_vs_tsh < 0.10);
//! let archive = result.into_bytes().unwrap();
//!
//! // 3. Decompress into a statistically equivalent trace.
//! let restored = Pipeline::decompress()
//!     .input(Input::bytes(archive))
//!     .sink(Sink::bytes())
//!     .run()
//!     .unwrap();
//! assert_eq!(restored.report.packets as usize, trace.len());
//! ```
//!
//! # Low-level API
//!
//! The capability crates underneath remain public for callers that need
//! direct control — the pipeline runs the engine; `Compressor` is the
//! paper-reference oracle a one-shard engine run is byte-identical to:
//!
//! ```
//! use flowzip::prelude::*;
//!
//! let trace = WebTrafficGenerator::new(
//!     WebTrafficConfig { flows: 200, ..Default::default() }, 42).generate();
//!
//! // The reference compressor wants the whole trace in memory…
//! let (archive, report) = Compressor::new(Params::paper()).compress(&trace);
//! assert!(report.ratio_vs_tsh < 0.10);
//!
//! // …the streaming engine consumes any fallible packet iterator and
//! // writes a container-v2 archive, one section per shard.
//! let engine = StreamingEngine::builder().shards(2).build();
//! let (bytes, _) = engine
//!     .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
//!     .unwrap();
//! let streamed = CompressedTrace::from_bytes(&bytes).unwrap();
//! assert_eq!(streamed.packet_count(), archive.packet_count());
//!
//! let restored = Decompressor::default().decompress(&archive);
//! assert_eq!(restored.len(), trace.len());
//! ```

pub use flowzip_analysis as analysis;
pub use flowzip_cachesim as cachesim;
pub use flowzip_core as core;
pub use flowzip_deflate as deflate;
pub use flowzip_engine as engine;
pub use flowzip_io as io;
pub use flowzip_netbench as netbench;
pub use flowzip_obs as obs;
pub use flowzip_peuhkuri as peuhkuri;
pub use flowzip_pipeline as pipeline;
pub use flowzip_radix as radix;
pub use flowzip_serve as serve;
pub use flowzip_trace as trace;
pub use flowzip_traffic as traffic;
pub use flowzip_vj as vj;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use flowzip_analysis::{ks_distance, BucketedHistogram, Cdf, TextTable};
    pub use flowzip_cachesim::{Cache, CacheConfig, PacketCost, PacketCostMeter};
    pub use flowzip_core::{
        synthesize, ArchiveFormat, CompressedTrace, CompressionReport, Compressor,
        DecompressParams, Decompressor, Params, SynthConfig, SynthGenerator,
    };
    pub use flowzip_engine::{EngineBuilder, EngineReport, StreamingEngine};
    pub use flowzip_io::{
        FileSource, InputSource, MultiFileConfig, MultiFileSource, PrefetchConfig, PrefetchReader,
        WorkerPool,
    };
    pub use flowzip_netbench::{BenchConfig, BenchKind, BenchReport, PacketProcessor};
    pub use flowzip_obs::{Metrics, Profiler, SnapshotFormat, StatsSink, StatsSnapshot};
    pub use flowzip_pipeline::{Input, Pipeline, PipelineError, Report, RunResult, Sink};
    pub use flowzip_radix::{RadixTable, TableGen};
    pub use flowzip_serve::{
        OverloadPolicy, PipelineServe, ServeHandle, ServeReport, ServeSource, WindowSummary,
    };
    pub use flowzip_trace::prelude::*;
    pub use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
    pub use flowzip_traffic::{fractal_trace, randomize_destinations, FractalTraceConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_all_crates() {
        // Compile-time check that every re-export resolves.
        let _ = crate::core::Params::paper;
        let _ = crate::engine::StreamingEngine::builder;
        let _ = crate::io::WorkerPool::new(2);
        let _ = crate::pipeline::Pipeline::compress;
        let _ = crate::obs::Metrics::enabled();
        let _ = crate::cachesim::CacheConfig::netbench_l1();
        let _ = crate::trace::TcpFlags::SYN;
        let _ = crate::netbench::BenchKind::Route;
        let _ = crate::deflate::Level::Default;
        let _ = crate::serve::ServeSource::stdin;
    }
}
