//! [`Pipeline::compress`]: one session from any [`Input`] through the
//! streaming engine into any [`Sink`].

use crate::error::PipelineError;
use crate::input::{Input, InputKind};
use crate::report::{Report, TelemetrySummary};
use crate::sink::Sink;
use crate::Pipeline;
use flowzip_core::Params;
use flowzip_engine::StreamingEngine;
use flowzip_io::{glob, FileSource, InputSource};
use flowzip_obs::{Metrics, Profiler, Sampler, SnapshotFormat, StatsSink};
use flowzip_trace::Duration;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// What a finished session hands back: the unified [`Report`], plus the
/// serialized output when the sink was [`Sink::bytes`].
#[derive(Debug)]
pub struct RunResult {
    /// The unified run report.
    pub report: Report,
    pub(crate) bytes: Option<Vec<u8>>,
}

impl RunResult {
    /// The serialized output, when the sink was [`Sink::bytes`].
    pub fn bytes(&self) -> Option<&[u8]> {
        self.bytes.as_deref()
    }

    /// Consumes the result into the serialized output, when the sink was
    /// [`Sink::bytes`].
    pub fn into_bytes(self) -> Option<Vec<u8>> {
        self.bytes
    }
}

/// Builder for one compression session. Construct with
/// [`Pipeline::compress`]; see the [crate docs](crate) for the shard
/// default.
#[derive(Debug)]
pub struct CompressBuilder<'a> {
    input: Option<Input<'a>>,
    sink: Option<Sink<'a>>,
    params: Params,
    threads: Option<usize>,
    batch_size: Option<usize>,
    channel_capacity: Option<usize>,
    idle_timeout: Option<Duration>,
    telemetry: bool,
    metrics: Option<Metrics>,
    profiler: Option<Profiler>,
    stats_interval: Option<std::time::Duration>,
    stats_format: Option<SnapshotFormat>,
    stats_writer: Option<StatsSink>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Pipeline {
    /// Starts a compression session: one [`Input`], one [`Sink`], tuning
    /// in between, then [`run()`](CompressBuilder::run).
    pub fn compress<'a>() -> CompressBuilder<'a> {
        CompressBuilder {
            input: None,
            sink: None,
            params: Params::paper(),
            threads: None,
            batch_size: None,
            channel_capacity: None,
            idle_timeout: None,
            telemetry: false,
            metrics: None,
            profiler: None,
            stats_interval: None,
            stats_format: None,
            stats_writer: None,
            cancel: None,
        }
    }
}

impl<'a> CompressBuilder<'a> {
    /// The packet input (required).
    pub fn input(mut self, input: Input<'a>) -> Self {
        self.input = Some(input);
        self
    }

    /// The archive output (required).
    pub fn sink(mut self, sink: Sink<'a>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Compression parameters (default: [`Params::paper`]).
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Worker shards — the one knob that sets parallelism (`0` is a
    /// configuration error). Unset, a single file or an in-memory trace
    /// runs on one shard, inline on the calling thread and byte-identical
    /// to [`Compressor`](flowzip_core::Compressor); multi-file,
    /// packet-iterator and [`Input::source`] inputs get one shard per
    /// core (at most 8).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Packets per cross-thread batch (`0` is a configuration error).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size);
        self
    }

    /// Bounded in-flight batches per shard channel (`0` is a
    /// configuration error).
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = Some(capacity);
        self
    }

    /// Evict flows idle longer than this much *trace* time.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Derives per-flow TCP telemetry (RTT, retransmissions, idle and
    /// active time) inline during accumulation and appends the rev 2.2
    /// `FZT1` side-section to the archive. The non-telemetry bytes are
    /// unchanged: a pre-2.2 reader decodes the same archive
    /// byte-identically.
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Records per-stage metrics into this registry: engine counters and
    /// queue gauges, reader byte/wait counters, container timings. Pass
    /// [`Metrics::enabled`] and snapshot it after the run — or read the
    /// final dump straight off [`Report::metrics`]
    /// (`report.to_json()` embeds it under `"metrics"`). Defaults to
    /// disabled, which costs the hot loops one predictable branch.
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Records per-stage span timings into this profiler — dump it with
    /// [`Profiler::to_trace_json`] after the run and open the result in
    /// `chrome://tracing` or Perfetto. Defaults to disabled.
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Emits a live stats snapshot every `interval` while the run is in
    /// flight, plus one final snapshot at completion — so even a run
    /// shorter than the interval produces at least one line. Implies
    /// metrics: when no [`CompressBuilder::metrics`] registry is given,
    /// an enabled one is created for the session. A zero interval is a
    /// configuration error.
    pub fn stats_interval(mut self, interval: std::time::Duration) -> Self {
        self.stats_interval = Some(interval);
        self
    }

    /// How live snapshots are formatted (default
    /// [`SnapshotFormat::JsonLines`]; requires
    /// [`CompressBuilder::stats_interval`]).
    pub fn stats_format(mut self, format: SnapshotFormat) -> Self {
        self.stats_format = Some(format);
        self
    }

    /// Where live snapshots go (default standard error; requires
    /// [`CompressBuilder::stats_interval`]).
    pub fn stats_writer(mut self, writer: StatsSink) -> Self {
        self.stats_writer = Some(writer);
        self
    }

    /// Cooperative cancellation: when `flag` flips to `true` mid-run,
    /// the session stops pulling input at the next pull point and
    /// finalizes everything read so far into a **valid partial archive**
    /// (the engine drains its shards). This is what graceful SIGINT
    /// rides on — the delivered file is complete and decodable, just cut
    /// at the interruption point.
    pub fn cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Runs the session: resolve the input, stream it through the
    /// engine into a container-v2 archive, deliver it to the sink, and
    /// report.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] for invalid configuration (zero knobs,
    /// empty input set, glob matching nothing);
    /// [`PipelineError::Read`] for input failures;
    /// [`PipelineError::Write`] for sink failures.
    pub fn run(self) -> Result<RunResult, PipelineError> {
        let CompressBuilder {
            input,
            sink,
            params,
            threads,
            batch_size,
            channel_capacity,
            idle_timeout,
            telemetry,
            metrics,
            profiler,
            stats_interval,
            stats_format,
            stats_writer,
            cancel,
        } = self;
        let input = input.ok_or_else(|| {
            PipelineError::config("compress session has no input — call .input(Input::…)")
        })?;
        let sink = sink.ok_or_else(|| {
            PipelineError::config("compress session has no sink — call .sink(Sink::…)")
        })?;
        if threads == Some(0) {
            return Err(PipelineError::config(
                "threads must be ≥ 1 (got 0; zero worker shards would hang the router)",
            ));
        }
        if batch_size == Some(0) {
            return Err(PipelineError::config(
                "batch_size must be ≥ 1 (got 0; empty batches would never hand packets over)",
            ));
        }
        if channel_capacity == Some(0) {
            return Err(PipelineError::config(
                "channel_capacity must be ≥ 1 (got 0; a zero-slot channel would deadlock)",
            ));
        }
        if stats_interval == Some(std::time::Duration::ZERO) {
            return Err(PipelineError::config(
                "stats_interval must be non-zero (a zero interval would spin emitting snapshots)",
            ));
        }
        if stats_interval.is_none() && (stats_format.is_some() || stats_writer.is_some()) {
            return Err(PipelineError::config(
                "stats_format/stats_writer shape live snapshot output and need \
                 .stats_interval(…) to produce any",
            ));
        }

        let inputs_desc = input.describe();
        // Expand patterns now so "matched no files" surfaces as a clear
        // configuration error before any thread or file is touched.
        let kind = match input.kind {
            InputKind::Patterns(pats) => {
                let paths = glob::expand_all(&pats).map_err(PipelineError::config)?;
                InputKind::Files(paths)
            }
            other => other,
        };
        if matches!(&kind, InputKind::Files(paths) if paths.is_empty()) {
            return Err(PipelineError::config(
                "compress input set is empty — give at least one file or pattern",
            ));
        }
        if matches!(kind, InputKind::Bytes(_)) {
            return Err(PipelineError::config(
                "Input::bytes feeds decompression; compress wants packets \
                 (Input::file/files/glob/trace/packets/source)",
            ));
        }

        // A stats interval implies metrics: sampling a disabled registry
        // would emit nothing.
        let metrics = metrics.unwrap_or_else(|| {
            if stats_interval.is_some() {
                Metrics::enabled()
            } else {
                Metrics::disabled()
            }
        });
        let profiler = profiler.unwrap_or_else(Profiler::disabled);
        // The sampler thread lives exactly as long as the run: dropping
        // it (on success *and* on error) emits the final snapshot and
        // joins.
        let sampler = stats_interval.map(|interval| {
            Sampler::start(
                &metrics,
                interval,
                stats_format.unwrap_or_default(),
                stats_writer.unwrap_or_else(StatsSink::stderr),
            )
        });

        let context = format!("compress {}", inputs_desc.join(" "));
        let (bytes, mut report) = run_engine(
            kind,
            &context,
            params,
            threads,
            batch_size,
            channel_capacity,
            idle_timeout,
            telemetry,
            &metrics,
            &profiler,
            cancel,
        )?;
        drop(sampler);
        if metrics.is_enabled() {
            report.metrics = Some(metrics.snapshot());
        }
        report.inputs = inputs_desc;
        report.output = sink.path();
        report.output_bytes = bytes.len() as u64;
        let bytes = sink.deliver(bytes)?;
        Ok(RunResult { report, bytes })
    }
}

/// Builds the engine, wires the input as a packet stream (with its
/// [`IoStats`](flowzip_io::IoStats) handle when it has one), and
/// compresses to archive bytes.
#[allow(clippy::too_many_arguments)]
fn run_engine(
    kind: InputKind<'_>,
    context: &str,
    params: Params,
    threads: Option<usize>,
    batch_size: Option<usize>,
    channel_capacity: Option<usize>,
    idle_timeout: Option<Duration>,
    telemetry: bool,
    metrics: &Metrics,
    profiler: &Profiler,
    cancel: Option<Arc<AtomicBool>>,
) -> Result<(Vec<u8>, Report), PipelineError> {
    let mut builder = StreamingEngine::builder()
        .params(params)
        .idle_timeout(idle_timeout)
        .telemetry(telemetry)
        .metrics(metrics.clone())
        .profiler(profiler.clone());
    if let Some(flag) = cancel {
        builder = builder.cancel_flag(flag);
    }
    // `threads` alone sets the shard count. Unset, a single file or an
    // in-memory trace runs on one shard — the engine's inline path, no
    // router or shard thread, bytes ≡ `Compressor` — so default archive
    // bytes never depend on the host's core count; the other inputs
    // keep the engine's per-core default.
    let single = match &kind {
        InputKind::Files(paths) => paths.len() == 1,
        InputKind::Trace(_) => true,
        _ => false,
    };
    if let Some(t) = threads.or(single.then_some(1)) {
        builder = builder.shards(t);
    }
    builder = builder.batch_size(batch_size.unwrap_or(1024));
    if let Some(c) = channel_capacity {
        builder = builder.channel_capacity(c);
    }
    let engine = builder
        .try_build()
        .map_err(|e| PipelineError::config(e.to_string()))?;

    let read_err = |e| PipelineError::read(context.to_string(), e);
    let (bytes, engine_report, stats) = match kind {
        InputKind::Files(paths) => {
            let source = FileSource::open_set(&paths).map_err(read_err)?;
            let stats = source.stats();
            // Teed before the read starts, so live snapshots see reader
            // bytes/wait while the run is in flight.
            stats.attach_metrics(metrics);
            let (b, er) = engine
                .compress_stream_to_bytes(source.into_packets())
                .map_err(read_err)?;
            (b, er, Some(stats))
        }
        InputKind::Trace(trace) => {
            let (b, er) = engine
                .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
                .map_err(read_err)?;
            (b, er, None)
        }
        InputKind::Packets(packets) => {
            let (b, er) = engine
                .compress_stream_to_bytes(packets.map(Ok))
                .map_err(read_err)?;
            (b, er, None)
        }
        InputKind::Stream { stats, packets, .. } => {
            stats.attach_metrics(metrics);
            let (b, er) = engine.compress_stream_to_bytes(packets).map_err(read_err)?;
            (b, er, Some(stats))
        }
        InputKind::Patterns(_) | InputKind::Bytes(_) => {
            unreachable!("patterns expanded and bytes rejected in run()")
        }
    };

    let mut report = Report::from_engine(engine_report, stats.as_ref());
    if telemetry {
        // Summarize the FZT1 rows straight off the archive just written
        // — the same decode path `info` uses, so the two cannot drift.
        let summary = flowzip_core::ArchiveReader::open(&bytes)
            .map_err(|e| PipelineError::decode(context.to_string(), e))?
            .telemetry()
            .map(TelemetrySummary::from_telemetry);
        if let Some(a) = report.archive.as_mut() {
            a.telemetry = summary;
        }
    }
    Ok((bytes, report))
}
