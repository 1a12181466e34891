//! [`Pipeline::compress`]: one session from any [`Input`] through the
//! streaming engine into any [`Sink`].

use crate::error::PipelineError;
use crate::input::{Input, InputKind};
use crate::report::Report;
use crate::sink::Sink;
use crate::stats::LiveStats;
use crate::Pipeline;
use flowzip_core::Params;
use flowzip_engine::{Drained, EngineBuilder, StreamingEngine};
use flowzip_io::{glob, FileSource, InputSource, IoStats};
use flowzip_obs::{Metrics, Profiler, SnapshotFormat, StatsSink};
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
/// [`Pipeline::compress`].
#[derive(Debug)]
pub struct CompressBuilder<'a> {
    input: Option<Input<'a>>,
    sink: Option<Sink<'a>>,
    engine: EngineBuilder,
    stats: LiveStats,
}

impl Pipeline {
    /// Starts a compression session: one [`Input`], one [`Sink`], tuning
    /// in between, then [`run()`](CompressBuilder::run).
    pub fn compress<'a>() -> CompressBuilder<'a> {
        CompressBuilder {
            input: None,
            sink: None,
            engine: StreamingEngine::builder(),
            stats: LiveStats::default(),
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
        self.engine = self.engine.params(params);
        self
    }

    /// Worker shards — the one knob that sets parallelism (default 1:
    /// inline on the calling thread, byte-identical to
    /// [`Compressor`](flowzip_core::Compressor) on every host; `0` is a
    /// configuration error).
    pub fn threads(mut self, threads: usize) -> Self {
        self.engine = self.engine.shards(threads);
        self
    }

    /// Evict flows idle longer than this much *trace* time.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.engine = self.engine.idle_timeout(Some(timeout));
        self
    }

    /// Derives per-flow TCP telemetry (RTT, retransmissions, idle and
    /// active time) inline during accumulation and appends the rev 2.2
    /// `FZT1` side-section to the archive. The non-telemetry bytes are
    /// unchanged: a pre-2.2 reader decodes the same archive
    /// byte-identically.
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.engine = self.engine.telemetry(telemetry);
        self
    }

    /// Records per-stage metrics into this registry: engine counters and
    /// queue gauges, reader byte/wait counters, container timings. Pass
    /// [`Metrics::enabled`] and snapshot it after the run — or read the
    /// final dump straight off [`Report::metrics`]
    /// (`report.to_json()` embeds it under `"metrics"`). Defaults to
    /// disabled, which costs the hot loops one predictable branch.
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.engine = self.engine.metrics(metrics);
        self
    }

    /// Records per-stage span timings into this profiler — dump it with
    /// [`Profiler::to_trace_json`] after the run and open the result in
    /// `chrome://tracing` or Perfetto. Defaults to disabled.
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.engine = self.engine.profiler(profiler);
        self
    }

    /// Emits a live stats snapshot every `interval` while the run is in
    /// flight, plus one final snapshot at completion — so even a run
    /// shorter than the interval produces at least one line. Implies
    /// metrics: unless an enabled [`CompressBuilder::metrics`] registry
    /// is given, an enabled one is created for the session. A zero
    /// interval is a configuration error.
    pub fn stats_interval(mut self, interval: std::time::Duration) -> Self {
        self.stats.interval = Some(interval);
        self
    }

    /// How live snapshots are formatted (default
    /// [`SnapshotFormat::JsonLines`]; requires
    /// [`CompressBuilder::stats_interval`]).
    pub fn stats_format(mut self, format: SnapshotFormat) -> Self {
        self.stats.format = Some(format);
        self
    }

    /// Where live snapshots go (default standard error; requires
    /// [`CompressBuilder::stats_interval`]).
    pub fn stats_writer(mut self, writer: StatsSink) -> Self {
        self.stats.writer = Some(writer);
        self
    }

    /// Cooperative cancellation: when `flag` flips to `true` mid-run,
    /// the session stops pulling input at the next pull point and
    /// finalizes everything read so far into a **valid partial archive**
    /// (the engine drains its shards). This is what graceful SIGINT
    /// rides on — the delivered file is complete and decodable, just cut
    /// at the interruption point.
    pub fn cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.engine = self.engine.cancel_flag(flag);
        self
    }

    /// Runs the session: resolve the input and drain it through the
    /// engine, then open the sink, stream the container-v2 archive into
    /// it section by section, commit it, and report. An input error
    /// leaves the sink unopened: a file sink creates nothing.
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
            engine,
            stats,
        } = self;
        let input = input.ok_or_else(|| {
            PipelineError::config("compress session has no input — call .input(Input::…)")
        })?;
        let sink = sink.ok_or_else(|| {
            PipelineError::config("compress session has no sink — call .sink(Sink::…)")
        })?;
        if engine.config().shards == 0 {
            return Err(PipelineError::config(
                "threads must be ≥ 1 (got 0; zero worker shards would hang the router)",
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

        let (engine, sampler) = stats.start(engine)?;
        let output = sink.path();

        let context = format!("compress {}", inputs_desc.join(" "));
        let (drained, stats) = drain(&engine, kind, &context)?;
        // The input was read without error: only now is the sink opened,
        // and the archive streams into it section by section.
        let mut w = sink.open()?;
        let engine_report = engine
            .write(drained, &mut w)
            .map_err(|e| PipelineError::write(w.context(), e))?;
        let output_bytes = engine_report.archive_bytes;
        let mut report = Report::from_engine(engine_report, stats.as_ref());
        let bytes = w.finish()?;
        // The sampler lives exactly as long as the run: dropping it (here,
        // or on an error return above) emits the final snapshot and joins.
        drop(sampler);
        let metrics = &engine.config().metrics;
        if metrics.is_enabled() {
            report.metrics = Some(metrics.snapshot());
        }
        report.inputs = inputs_desc;
        report.output = output;
        report.output_bytes = output_bytes;
        Ok(RunResult { report, bytes })
    }
}

/// Wires the input into `engine` as a packet stream (with its
/// [`IoStats`] handle when it has one) and reads it to its end.
fn drain(
    engine: &StreamingEngine,
    kind: InputKind<'_>,
    context: &str,
) -> Result<(Drained, Option<IoStats>), PipelineError> {
    let metrics = &engine.config().metrics;
    let read_err = |e| PipelineError::read(context.to_string(), e);
    Ok(match kind {
        InputKind::Files(paths) => {
            let source = FileSource::open_set(&paths).map_err(read_err)?;
            let stats = source.stats();
            // Teed before the read starts, so live snapshots see reader
            // bytes/wait while the run is in flight.
            stats.attach_metrics(metrics);
            let drained = engine.drain(source.into_packets()).map_err(read_err)?;
            (drained, Some(stats))
        }
        InputKind::Trace(trace) => {
            let drained = engine
                .drain(trace.iter().cloned().map(Ok))
                .map_err(read_err)?;
            (drained, None)
        }
        InputKind::Packets(packets) => (engine.drain(packets.map(Ok)).map_err(read_err)?, None),
        InputKind::Stream { stats, packets, .. } => {
            stats.attach_metrics(metrics);
            (engine.drain(packets).map_err(read_err)?, Some(stats))
        }
        InputKind::Patterns(_) | InputKind::Bytes(_) => {
            unreachable!("patterns expanded and bytes rejected in run()")
        }
    })
}
