//! The streaming engine: route → accumulate per shard → merge.
//!
//! Two routing topologies feed the shards (the
//! [`Routing`] knob; output is byte-identical
//! either way):
//!
//! ```text
//! routing=parallel (default) — hashing runs on R workers at once:
//!             ┌─ router 0 ─ partition ─┐          ┌─▶ shard 0 ─┐
//! BatchRead ──┼─ router 1 ─ partition ─┼─ ticket ─┼─▶ shard 1 ─┼─▶ merge
//!  (shared)   └─ router R ─ partition ─┘  order   └─▶ shard N ─┘
//!
//! routing=serial — the original dedicated router thread:
//!                    ┌── batch channel ──▶ shard 0: FlowAccumulator + TemplateStore ─┐
//! reader ──▶ router ─┼── batch channel ──▶ shard 1: FlowAccumulator + TemplateStore ─┼─▶ merge
//!  (any Iterator)    └── batch channel ──▶ shard N: FlowAccumulator + TemplateStore ─┘
//! ```
//!
//! Routing hashes each packet's canonical flow key so both directions
//! of a conversation land on the same shard; channels are bounded, so a
//! fast reader is back-pressured instead of buffering the trace. Workers
//! finalize flows online (FIN/RST, idle eviction, end of input) and
//! cluster them immediately; the merge step folds the per-shard stores
//! with [`TemplateStore::merge`](flowzip_core::TemplateStore::merge) and
//! re-sorts the flow records into one valid time-seq dataset.

use crate::builder::{CancelFlag, EngineBuilder, EngineConfig};
use crate::obs::{EngineObs, ShardObs};
use crate::report::EngineReport;
use crate::route::{shard_of, BatchPackets, IterBatches, Rechunker, RouteFabric, Routing};
use flowzip_core::datasets::CompressedTrace;
use flowzip_core::{
    assemble_sections, assemble_shards, ArchiveFormat, CompressionReport, FlowAccumulator,
    FlowAssembler, FlowTelemetry, Params, ShardSection,
};
use flowzip_io::{BatchRead, WorkerPool};
use flowzip_trace::prelude::*;
use flowzip_trace::TraceError;
use std::sync::mpsc;
use std::time::Instant;

/// What a shard's assembler became when its channel closed: the raw
/// state (in-memory merge path) or an already-encoded container-v2
/// section (the shard did its own O(trace) serialization in parallel).
enum ShardResult {
    State(FlowAssembler),
    Section(ShardSection),
}

impl ShardResult {
    fn packets(&self) -> u64 {
        match self {
            ShardResult::State(asm) => asm.packets(),
            ShardResult::Section(s) => s.packets,
        }
    }
}

/// Everything a shard hands back when its channel closes.
struct ShardOutput {
    result: ShardResult,
    peak_active: u64,
    evicted: u64,
    /// Nanoseconds this shard's thread actually spent accumulating and
    /// encoding — measured only when metrics are enabled (0 otherwise),
    /// and the basis of the report's `stage_busy_secs`.
    busy_ns: u64,
}

/// Input adapter for cooperative cancellation: once the run's
/// [`CancelFlag`] flips, the wrapped input reports clean end-of-stream
/// at the next pull point, so the normal drain finalizes everything
/// routed so far into a valid partial archive. Packets already pulled
/// are never lost; packets never pulled are simply not in the archive —
/// exactly the cut semantics `flowzip serve`'s rotation relies on.
struct Cancellable<T> {
    inner: T,
    cancel: CancelFlag,
}

impl<I> Iterator for Cancellable<I>
where
    I: Iterator<Item = Result<PacketRecord, TraceError>>,
{
    type Item = Result<PacketRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cancel.is_cancelled() {
            return None;
        }
        self.inner.next()
    }
}

impl<B: BatchRead> BatchRead for Cancellable<B> {
    fn next_batch(&mut self) -> Option<Result<Vec<PacketRecord>, TraceError>> {
        if self.cancel.is_cancelled() {
            return None;
        }
        self.inner.next_batch()
    }
}

/// One shard's state machine: accumulate → finalize online → cluster,
/// with idle eviction keeping the accumulator bounded. Used both by the
/// worker threads and by the inline single-shard fast path.
struct ShardWorker {
    acc: FlowAccumulator,
    asm: FlowAssembler,
    idle_timeout: Option<Duration>,
    /// Scan for idle flows at a quarter of the timeout horizon: often
    /// enough that stale state dies promptly, rare enough to stay off
    /// the per-packet fast path.
    scan_interval: Option<Duration>,
    next_scan: Option<Timestamp>,
    obs: ShardObs,
    /// Thread-busy nanoseconds (accumulate + encode), counted only when
    /// metrics are on.
    busy_ns: u64,
    /// Evictions already mirrored into the counter, so each scan only
    /// adds its delta.
    evicted_seen: u64,
}

impl ShardWorker {
    fn new(
        params: Params,
        idle_timeout: Option<Duration>,
        telemetry: bool,
        obs: ShardObs,
    ) -> ShardWorker {
        ShardWorker {
            acc: FlowAccumulator::with_telemetry(params.clone(), telemetry),
            asm: FlowAssembler::with_telemetry(params, telemetry),
            idle_timeout,
            scan_interval: idle_timeout.map(|t| Duration::from_micros((t.as_micros() / 4).max(1))),
            next_scan: None,
            obs,
            busy_ns: 0,
            evicted_seen: 0,
        }
    }

    fn process_batch(&mut self, batch: &[PacketRecord]) {
        let _span = self.obs.track.span("accumulate");
        let t0 = self.obs.accumulate_ns.start();
        for p in batch {
            self.acc.push(p);
        }
        if let (Some(timeout), Some(interval), Some(newest)) = (
            self.idle_timeout,
            self.scan_interval,
            batch.last().map(|p| p.timestamp()),
        ) {
            if self.next_scan.is_none_or(|at| newest >= at) {
                self.acc.evict_idle(Timestamp::from_micros(
                    newest.as_micros().saturating_sub(timeout.as_micros()),
                ));
                self.next_scan = Some(newest.saturating_add(interval));
            }
        }
        for flow in self.acc.drain_completed() {
            self.asm.consume(&flow);
        }
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.busy_ns += ns;
            self.obs.accumulate_ns.record(ns);
            self.obs.packets.add(batch.len() as u64);
            self.obs.batches.inc();
            self.obs.active_flows.set(self.acc.active_flows() as i64);
            let evicted = self.acc.evicted_flows();
            self.obs.evicted.add(evicted - self.evicted_seen);
            self.evicted_seen = evicted;
        }
    }

    /// Finalizes the shard. With `encode` set the assembler serializes
    /// itself into a container-v2 section *here, on the shard's thread*
    /// — the work that used to be the writer's serial tail.
    fn finish(mut self, encode: bool) -> ShardOutput {
        let span = self.obs.track.span("encode");
        let t0 = self.obs.encode_ns.is_enabled().then(Instant::now);
        let peak_active = self.acc.peak_active_flows() as u64;
        let evicted = self.acc.evicted_flows();
        for flow in self.acc.finish() {
            self.asm.consume(&flow);
        }
        let result = if encode {
            let section = self.asm.into_section();
            if let Some(rows) = section.telemetry.as_deref() {
                self.obs.telemetry_flows.add(rows.len() as u64);
                self.obs
                    .telemetry_retrans
                    .add(rows.iter().map(FlowTelemetry::retransmissions).sum());
                self.obs
                    .telemetry_rtt_samples
                    .add(rows.iter().map(|t| t.rtt_samples).sum());
                for t in rows.iter().filter(|t| t.rtt_samples > 0) {
                    self.obs.telemetry_rtt_us.record(t.rtt_us);
                }
            }
            ShardResult::Section(section)
        } else {
            ShardResult::State(self.asm)
        };
        drop(span);
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.busy_ns += ns;
            self.obs.encode_ns.add(ns);
            self.obs.evicted.add(evicted - self.evicted_seen);
            self.obs.active_flows.set(0);
        }
        ShardOutput {
            result,
            peak_active,
            evicted,
            busy_ns: self.busy_ns,
        }
    }
}

/// One shard's worker loop under **serial** routing: every received
/// batch is already an exact router-built block, so it processes as-is
/// until the channel closes.
fn run_shard(
    rx: mpsc::Receiver<Vec<PacketRecord>>,
    params: Params,
    idle_timeout: Option<Duration>,
    telemetry: bool,
    encode: bool,
    obs: ShardObs,
) -> ShardOutput {
    let mut worker = ShardWorker::new(params, idle_timeout, telemetry, obs);
    while let Ok(batch) = rx.recv() {
        worker.obs.queue_depth.dec();
        worker.process_batch(&batch);
    }
    worker.finish(encode)
}

/// One shard's worker loop under **parallel** routing: arrivals are
/// variable-size sub-batches (whatever each pulled batch happened to
/// hash here), so a [`Rechunker`] re-blocks them into exact `batch_size`
/// chunks first — eviction-scan timing keys off batch boundaries, and
/// boundaries must match the serial router's for byte-identical output.
fn run_shard_rechunked(
    rx: mpsc::Receiver<Vec<PacketRecord>>,
    params: Params,
    idle_timeout: Option<Duration>,
    telemetry: bool,
    encode: bool,
    batch_size: usize,
    obs: ShardObs,
) -> ShardOutput {
    let mut worker = ShardWorker::new(params, idle_timeout, telemetry, obs);
    let mut rechunk = Rechunker::new(batch_size);
    while let Ok(arrival) = rx.recv() {
        worker.obs.queue_depth.dec();
        rechunk.push(arrival, |chunk| worker.process_batch(chunk));
    }
    rechunk.finish(|chunk| worker.process_batch(chunk));
    worker.finish(encode)
}

/// The sharded streaming compressor. Construct via
/// [`StreamingEngine::builder`]; see the [crate docs](crate) for the
/// architecture.
#[derive(Debug, Clone)]
pub struct StreamingEngine {
    config: EngineConfig,
}

impl StreamingEngine {
    /// Creates an engine from a resolved configuration.
    pub fn new(config: EngineConfig) -> StreamingEngine {
        StreamingEngine { config }
    }

    /// Starts a configuration builder with library defaults.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Compresses a fallible packet stream — the general entry point that
    /// [`TshReader`](flowzip_trace::TshReader) and
    /// [`PcapReader`](flowzip_trace::PcapReader) plug into directly.
    ///
    /// # Errors
    ///
    /// The first reader error aborts the run and is returned; packets
    /// already routed are discarded with the worker state.
    ///
    /// # Panics
    ///
    /// Re-raises panics from worker threads (a bug in the pipeline, never
    /// an input condition).
    pub fn compress_stream<I>(
        &self,
        input: I,
    ) -> Result<(CompressedTrace, EngineReport), TraceError>
    where
        I: IntoIterator<Item = Result<PacketRecord, TraceError>>,
        I::IntoIter: Send,
    {
        let started = Instant::now();
        let outputs = self.run_routed_iter(input.into_iter(), false)?;
        let (compressed, _, report) = self.merge(outputs, started.elapsed().as_secs_f64());
        Ok((compressed, report))
    }

    /// Compresses a batch-granular source ([`BatchRead`]) — the native
    /// entry point for multi-file input, where reader threads already
    /// build whole decoded batches and routing workers can take them
    /// one channel-receive at a time. Batch *boundaries* carry no
    /// meaning (the [`BatchRead`] contract), so output is identical to
    /// compressing the concatenated packet stream.
    ///
    /// # Errors
    ///
    /// The first reader error aborts the run and is returned.
    ///
    /// # Panics
    ///
    /// Re-raises panics from worker threads.
    pub fn compress_batches<B>(
        &self,
        source: B,
    ) -> Result<(CompressedTrace, EngineReport), TraceError>
    where
        B: BatchRead + Send,
    {
        let started = Instant::now();
        let outputs = self.run_routed_batches(source, false)?;
        let (compressed, _, report) = self.merge(outputs, started.elapsed().as_secs_f64());
        Ok((compressed, report))
    }

    /// [`StreamingEngine::compress_batches`] straight to serialized
    /// archive bytes in the configured [`ArchiveFormat`].
    ///
    /// # Errors
    ///
    /// The first reader error aborts the run and is returned.
    ///
    /// # Panics
    ///
    /// Re-raises panics from worker threads.
    pub fn compress_batches_to_bytes<B>(
        &self,
        source: B,
    ) -> Result<(Vec<u8>, EngineReport), TraceError>
    where
        B: BatchRead + Send,
    {
        let started = Instant::now();
        let encode = self.config.format == ArchiveFormat::V2;
        let outputs = self.run_routed_batches(source, encode)?;
        Ok(self.outputs_to_bytes(outputs, started))
    }

    /// Compresses a fallible packet stream straight to serialized archive
    /// bytes in the configured [`ArchiveFormat`]. With v2 (the default)
    /// every shard encodes its own archive section on its own thread and
    /// the serial tail collapses to index assembly — O(shards), not
    /// O(trace); with v1 this is the legacy single-threaded
    /// serialization, kept for byte-compatible output.
    ///
    /// # Errors
    ///
    /// The first reader error aborts the run and is returned.
    ///
    /// # Panics
    ///
    /// Re-raises panics from worker threads.
    pub fn compress_stream_to_bytes<I>(
        &self,
        input: I,
    ) -> Result<(Vec<u8>, EngineReport), TraceError>
    where
        I: IntoIterator<Item = Result<PacketRecord, TraceError>>,
        I::IntoIter: Send,
    {
        let started = Instant::now();
        let encode = self.config.format == ArchiveFormat::V2;
        let outputs = self.run_routed_iter(input.into_iter(), encode)?;
        Ok(self.outputs_to_bytes(outputs, started))
    }

    /// Serializes finished shard outputs in the configured format. With
    /// v2 the shards already encoded their own sections (`encode` was
    /// set), so the serial tail collapses to index assembly; with v1
    /// this is the legacy single-threaded serialization.
    fn outputs_to_bytes(
        &self,
        outputs: Vec<ShardOutput>,
        started: Instant,
    ) -> (Vec<u8>, EngineReport) {
        let elapsed = started.elapsed().as_secs_f64();
        let track = self.config.profiler.track("container");
        match self.config.format {
            ArchiveFormat::V1 => {
                // merge() already encodes the archive (the report's
                // dataset sizes need it), so the serial tail — shard
                // merge, time-seq sort, encode — runs exactly once.
                let span = track.span("serialize");
                let ser = Instant::now();
                let (_, bytes, mut report) = self.merge(outputs, elapsed);
                drop(span);
                report.serialize_secs = ser.elapsed().as_secs_f64();
                report.sections = 1;
                report.archive_bytes = bytes.len() as u64;
                self.record_serialize(report.serialize_secs, 1);
                (bytes, report)
            }
            ArchiveFormat::V2 => {
                let agg = ShardAggregates::fold(&outputs);
                let sections: Vec<ShardSection> = outputs
                    .into_iter()
                    .map(|o| match o.result {
                        ShardResult::Section(s) => s,
                        ShardResult::State(_) => unreachable!("v2 pipeline encodes in-worker"),
                    })
                    .collect();
                let n_sections = sections.len();

                // The entire serial serialization tail: template-store
                // merge + address dedupe + index + payload concat.
                let span = track.span("serialize");
                let ser = Instant::now();
                let (bytes, mut report) = assemble_sections(
                    &self.config.params,
                    sections,
                    agg.tsh_bytes,
                    agg.header_bytes,
                );
                drop(span);
                let serialize_secs = ser.elapsed().as_secs_f64();
                report.peak_active_flows = agg.peak_active;

                let mut engine_report = self.engine_report(&agg, elapsed, report);
                engine_report.serialize_secs = serialize_secs;
                engine_report.sections = n_sections;
                engine_report.archive_bytes = bytes.len() as u64;
                self.record_serialize(serialize_secs, n_sections as u64);
                (bytes, engine_report)
            }
        }
    }

    /// Mirrors the serial-tail figures into the metrics registry.
    fn record_serialize(&self, secs: f64, sections: u64) {
        let metrics = &self.config.metrics;
        if metrics.is_enabled() {
            metrics
                .counter(flowzip_obs::names::CONTAINER_SERIALIZE_NS)
                .add((secs * 1e9) as u64);
            metrics
                .counter(flowzip_obs::names::CONTAINER_SECTIONS)
                .add(sections);
        }
    }

    /// Dispatches an iterator input on the [`Routing`] knob: the serial
    /// router consumes it per-packet; parallel routing chunks it into
    /// `batch_size` batches ([`IterBatches`]) so routing workers can
    /// share it at O(1) lock-held work per batch.
    fn run_routed_iter<I>(&self, input: I, encode: bool) -> Result<Vec<ShardOutput>, TraceError>
    where
        I: Iterator<Item = Result<PacketRecord, TraceError>> + Send,
    {
        let input = Cancellable {
            inner: input,
            cancel: self.config.cancel.clone(),
        };
        match self.config.routing {
            Routing::Serial => self.run_pipeline(input, encode),
            Routing::Parallel => {
                self.run_pipeline_parallel(IterBatches::new(input, self.config.batch_size), encode)
            }
        }
    }

    /// Dispatches a batch-granular source on the [`Routing`] knob: the
    /// serial router flattens it back to packets ([`BatchPackets`]);
    /// parallel routing consumes it natively.
    fn run_routed_batches<B>(&self, source: B, encode: bool) -> Result<Vec<ShardOutput>, TraceError>
    where
        B: BatchRead + Send,
    {
        let source = Cancellable {
            inner: source,
            cancel: self.config.cancel.clone(),
        };
        match self.config.routing {
            Routing::Serial => self.run_pipeline(BatchPackets::new(source), encode),
            Routing::Parallel => self.run_pipeline_parallel(source, encode),
        }
    }

    /// The parallel-routing pipeline: `routers` routing workers share
    /// the [`BatchRead`] source behind the [`RouteFabric`], hash their
    /// own pulled batches concurrently, and deliver shard-sticky
    /// sub-batches in sequence-ticket order; each shard re-chunks its
    /// arrivals to exact `batch_size` blocks. Per-shard packet order
    /// and batch boundaries both equal the serial router's, so output
    /// is byte-identical (see [`crate::route`]).
    fn run_pipeline_parallel<B>(
        &self,
        source: B,
        encode: bool,
    ) -> Result<Vec<ShardOutput>, TraceError>
    where
        B: BatchRead + Send,
    {
        let config = &self.config;
        if config.shards == 1 {
            // Routing cannot be the bottleneck of one shard: take the
            // serial path's inline fast path (no channels, no threads),
            // which rebuilds the same batch_size blocks from the
            // flattened stream.
            return self.run_pipeline(BatchPackets::new(source), encode);
        }
        let routers = config.routers.max(1);
        let obs = EngineObs::new(&config.metrics, &config.profiler, config.shards);
        let fabric = RouteFabric::new(source, config.shards, obs.route.clone());

        // Boxed because the task list mixes shard loops (return
        // Some(output)) with extra routing workers (return None, borrow
        // the fabric); the scoped pool lets both borrow this frame.
        let mut senders = Vec::with_capacity(config.shards);
        let mut tasks: Vec<Box<dyn FnOnce() -> Option<ShardOutput> + Send + '_>> =
            Vec::with_capacity(config.shards + routers - 1);
        for shard_obs in obs.shards.iter().cloned() {
            let (tx, rx) = mpsc::sync_channel::<Vec<PacketRecord>>(config.channel_capacity);
            let params = config.params.clone();
            let idle_timeout = config.idle_timeout;
            let telemetry = config.telemetry;
            let batch_size = config.batch_size;
            senders.push(tx);
            tasks.push(Box::new(move || {
                Some(run_shard_rechunked(
                    rx,
                    params,
                    idle_timeout,
                    telemetry,
                    encode,
                    batch_size,
                    shard_obs,
                ))
            }));
        }
        for _ in 1..routers {
            let fabric = &fabric;
            let senders = senders.clone();
            tasks.push(Box::new(move || {
                fabric.run_router(senders);
                None
            }));
        }

        // Every task must run concurrently (shards block on recv, extra
        // routers block on the sequencer), so the pool is sized to the
        // task count; router 0 runs in the foreground on this thread and
        // owns the original senders — the shard channels close when the
        // last router drops its clones.
        let pool = WorkerPool::new(config.shards + routers - 1);
        let (outputs, ()) = pool.run_with(tasks, {
            let fabric = &fabric;
            move || fabric.run_router(senders)
        });
        let outputs: Vec<ShardOutput> = outputs.into_iter().flatten().collect();
        fabric.into_result()?;
        Ok(outputs)
    }

    /// Runs the read → route → shard pipeline, returning per-shard
    /// outputs in shard order. `encode` makes each worker serialize its
    /// assembler into a v2 section before handing it back.
    fn run_pipeline<I>(&self, input: I, encode: bool) -> Result<Vec<ShardOutput>, TraceError>
    where
        I: IntoIterator<Item = Result<PacketRecord, TraceError>>,
    {
        let config = &self.config;
        let obs = EngineObs::new(&config.metrics, &config.profiler, config.shards);
        if config.shards == 1 {
            // Single shard: run everything inline. No channel, no second
            // thread — this is the honest sequential baseline the
            // `engine_throughput` bench scales against, and it makes the
            // one-shard engine byte-identical to the batch compressor by
            // construction.
            let mut worker = ShardWorker::new(
                config.params.clone(),
                config.idle_timeout,
                config.telemetry,
                obs.shards[0].clone(),
            );
            let mut buf: Vec<PacketRecord> = Vec::with_capacity(config.batch_size);
            for item in input {
                buf.push(item?);
                if buf.len() >= config.batch_size {
                    worker.process_batch(&buf);
                    buf.clear();
                }
            }
            if !buf.is_empty() {
                worker.process_batch(&buf);
            }
            return Ok(vec![worker.finish(encode)]);
        }
        // One pool worker per shard: every shard loop must run
        // concurrently with the router (bounded channels would deadlock
        // a queued shard), so the pool is sized to the task count —
        // shards use the same shared `WorkerPool` abstraction as the
        // multi-file readers and the v2 section decoder, not a bespoke
        // spawn loop.
        let mut senders = Vec::with_capacity(config.shards);
        let mut tasks = Vec::with_capacity(config.shards);
        for shard_obs in obs.shards.iter().cloned() {
            let (tx, rx) = mpsc::sync_channel::<Vec<PacketRecord>>(config.channel_capacity);
            let params = config.params.clone();
            let idle_timeout = config.idle_timeout;
            let telemetry = config.telemetry;
            senders.push(tx);
            tasks.push(move || run_shard(rx, params, idle_timeout, telemetry, encode, shard_obs));
        }

        let queue_depth = obs.route.queue_depth.clone();
        let pool = WorkerPool::new(config.shards);
        let (outputs, input_err) = pool.run_with(tasks, move || {
            let mut buffers: Vec<Vec<PacketRecord>> = (0..config.shards)
                .map(|_| Vec::with_capacity(config.batch_size))
                .collect();
            let mut input_err = None;
            'route: for item in input {
                match item {
                    Ok(p) => {
                        let s = shard_of(&p, config.shards);
                        buffers[s].push(p);
                        if buffers[s].len() >= config.batch_size {
                            let batch = std::mem::replace(
                                &mut buffers[s],
                                Vec::with_capacity(config.batch_size),
                            );
                            if senders[s].send(batch).is_err() {
                                // Worker gone: stop routing and surface
                                // its panic from the pool's join.
                                break 'route;
                            }
                            queue_depth[s].inc();
                        }
                    }
                    Err(e) => {
                        input_err = Some(e);
                        break 'route;
                    }
                }
            }
            if input_err.is_none() {
                for (s, buf) in buffers.into_iter().enumerate() {
                    if !buf.is_empty() {
                        // A send can only fail if the worker died; the
                        // pool's join re-raises its panic.
                        if senders[s].send(buf).is_ok() {
                            queue_depth[s].inc();
                        }
                    }
                }
            }
            // Senders drop here, closing every shard channel.
            input_err
        });
        match input_err {
            Some(e) => Err(e),
            None => Ok(outputs),
        }
    }

    /// Folds per-shard outputs into one archive plus the aggregate
    /// report. The dataset assembly itself is `flowzip-core`'s
    /// [`assemble_shards`] — the same code the batch compressor runs —
    /// so only the throughput/memory bookkeeping lives here.
    fn merge(
        &self,
        outputs: Vec<ShardOutput>,
        elapsed_secs: f64,
    ) -> (CompressedTrace, Vec<u8>, EngineReport) {
        let agg = ShardAggregates::fold(&outputs);
        let (compressed, mut report, encoded) = assemble_shards(
            &self.config.params,
            outputs
                .into_iter()
                .map(|o| match o.result {
                    ShardResult::State(asm) => asm,
                    ShardResult::Section(_) => {
                        unreachable!("in-memory merge never requests encoded sections")
                    }
                })
                .collect(),
            agg.tsh_bytes,
            agg.header_bytes,
        );
        report.peak_active_flows = agg.peak_active;
        let engine_report = self.engine_report(&agg, elapsed_secs, report);
        (compressed, encoded, engine_report)
    }

    /// Builds the aggregate [`EngineReport`] from folded shard counters.
    /// Serialization fields (`serialize_secs`, `sections`,
    /// `archive_bytes`) start zeroed; the to-bytes paths fill them in.
    fn engine_report(
        &self,
        agg: &ShardAggregates,
        elapsed_secs: f64,
        report: CompressionReport,
    ) -> EngineReport {
        let elapsed = elapsed_secs.max(f64::EPSILON);
        // Routers the run *actually* used: serial routing and the
        // single-shard inline fast path both route on one thread.
        let routers = match self.config.routing {
            Routing::Serial => 1,
            Routing::Parallel if self.config.shards == 1 => 1,
            Routing::Parallel => self.config.routers.max(1),
        };
        let stage_busy_secs = agg.max_busy_ns as f64 / 1e9;
        // One thread cannot be busy longer than the run took.
        debug_assert!(
            stage_busy_secs <= elapsed_secs * 1.05,
            "stage timings disagree with wall-clock: busiest shard {stage_busy_secs:.6}s > elapsed {elapsed_secs:.6}s × 1.05"
        );
        EngineReport {
            shards: self.config.shards,
            routing: self.config.routing,
            routers,
            elapsed_secs,
            packets_per_sec: agg.packets as f64 / elapsed,
            mb_per_sec: agg.tsh_bytes as f64 / elapsed / 1e6,
            evicted_flows: agg.evicted,
            serialize_secs: 0.0,
            stage_busy_secs,
            unattributed_secs: if stage_busy_secs > 0.0 {
                (elapsed_secs - stage_busy_secs).max(0.0)
            } else {
                0.0
            },
            sections: 0,
            archive_bytes: 0,
            report,
        }
    }
}

/// Throughput/memory counters folded over per-shard outputs — computed
/// once and shared by the v1 merge and v2 section-assembly paths so the
/// two report pipelines cannot drift.
struct ShardAggregates {
    packets: u64,
    peak_active: u64,
    evicted: u64,
    /// Every packet costs 44 B as a TSH record and 40 B of bare
    /// headers — the §5 baselines, computable without the trace.
    tsh_bytes: u64,
    header_bytes: u64,
    /// The busiest single shard thread's accumulate+encode nanoseconds
    /// (0 when metrics are off — busy time is only measured then).
    /// Shards run concurrently, so the *max*, not the sum, is the
    /// stage's wall-clock footprint.
    max_busy_ns: u64,
}

impl ShardAggregates {
    fn fold(outputs: &[ShardOutput]) -> ShardAggregates {
        let packets: u64 = outputs.iter().map(|o| o.result.packets()).sum();
        ShardAggregates {
            packets,
            peak_active: outputs.iter().map(|o| o.peak_active).sum(),
            evicted: outputs.iter().map(|o| o.evicted).sum(),
            tsh_bytes: packets * flowzip_trace::tsh::RECORD_BYTES as u64,
            header_bytes: packets * flowzip_trace::packet::HEADER_BYTES as u64,
            max_busy_ns: outputs.iter().map(|o| o.busy_ns).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_core::Compressor;

    fn stream(trace: &Trace) -> impl Iterator<Item = Result<PacketRecord, TraceError>> + Send + '_ {
        trace.iter().cloned().map(Ok)
    }

    fn pkt(port: u16, us: u64, flags: TcpFlags) -> PacketRecord {
        PacketRecord::builder()
            .src(Ipv4Addr::new(10, 0, 0, 1), port)
            .dst(Ipv4Addr::new(192, 0, 2, 9), 80)
            .timestamp(Timestamp::from_micros(us))
            .flags(flags)
            .build()
    }

    #[test]
    fn empty_input_produces_empty_archive() {
        let engine = StreamingEngine::builder().shards(2).build();
        let (ct, report) = engine.compress_stream(Vec::new()).unwrap();
        assert_eq!(ct.flow_count(), 0);
        assert_eq!(report.report.packets, 0);
        assert_eq!(report.report.ratio_vs_tsh, 0.0);
    }

    #[test]
    fn reader_error_aborts_the_run() {
        let engine = StreamingEngine::builder().shards(2).batch_size(1).build();
        let input = vec![
            Ok(pkt(4000, 0, TcpFlags::SYN)),
            Err(TraceError::TruncatedRecord { got: 3, need: 44 }),
            Ok(pkt(4001, 10, TcpFlags::SYN)),
        ];
        let err = engine.compress_stream(input).unwrap_err();
        assert!(matches!(
            err,
            TraceError::TruncatedRecord { got: 3, need: 44 }
        ));
    }

    #[test]
    fn cancel_flag_drains_to_a_valid_partial_archive() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // 200 single-packet flows; the flag flips after packet 50, so the
        // run must end early yet still produce a decodable archive whose
        // packet count covers at least everything pulled before the flip.
        for routing in [Routing::Serial, Routing::Parallel] {
            let flag = Arc::new(AtomicBool::new(false));
            let engine = StreamingEngine::builder()
                .shards(2)
                .batch_size(8)
                .routing(routing)
                .cancel_flag(flag.clone())
                .build();
            let tripwire = flag.clone();
            let mut yielded = 0u64;
            let input = (0..200u64).map(move |i| {
                yielded += 1;
                if yielded == 50 {
                    tripwire.store(true, Ordering::SeqCst);
                }
                Ok(pkt(4000 + (i % 500) as u16, i * 1_000, TcpFlags::SYN))
            });
            let (bytes, report) = engine.compress_stream_to_bytes(input).unwrap();
            assert!(
                report.report.packets >= 50 && report.report.packets < 200,
                "routing={routing:?}: expected a partial run, got {} packets",
                report.report.packets
            );
            let decoded = CompressedTrace::from_bytes(&bytes).unwrap();
            assert!(decoded.validate().is_ok());
        }
    }

    #[test]
    fn both_directions_of_a_flow_share_a_shard() {
        for port in [1000u16, 2000, 3000, 4000, 50000] {
            let fwd = pkt(port, 0, TcpFlags::SYN);
            let rev = PacketRecord::builder()
                .src(Ipv4Addr::new(192, 0, 2, 9), 80)
                .dst(Ipv4Addr::new(10, 0, 0, 1), port)
                .timestamp(Timestamp::from_micros(1))
                .flags(TcpFlags::SYN | TcpFlags::ACK)
                .build();
            for shards in [2usize, 3, 7] {
                assert_eq!(shard_of(&fwd, shards), shard_of(&rev, shards));
            }
        }
    }

    #[test]
    fn tiny_trace_matches_batch_counts_across_shard_counts() {
        let mut trace = Trace::new();
        for (i, port) in (4000u16..4024).enumerate() {
            let base = i as u64 * 1_000;
            trace.push(pkt(port, base, TcpFlags::SYN));
            trace.push(pkt(port, base + 10, TcpFlags::ACK));
            trace.push(pkt(port, base + 20, TcpFlags::RST));
        }
        let (_, batch) = Compressor::new(Params::paper()).compress(&trace);
        for shards in [1usize, 2, 5] {
            let engine = StreamingEngine::builder()
                .shards(shards)
                .batch_size(4)
                .build();
            let (ct, streamed) = engine.compress_stream(stream(&trace)).unwrap();
            assert_eq!(streamed.report.packets, batch.packets);
            assert_eq!(streamed.report.flows, batch.flows);
            assert_eq!(streamed.report.short_flows, batch.short_flows);
            assert_eq!(streamed.report.long_flows, batch.long_flows);
            assert_eq!(streamed.report.addresses, batch.addresses);
            assert_eq!(streamed.report.tsh_bytes, batch.tsh_bytes);
            ct.validate().unwrap();
        }
    }

    #[test]
    fn v2_bytes_decode_to_the_same_archive_as_v1() {
        let mut trace = Trace::new();
        for (i, port) in (4000u16..4040).enumerate() {
            let base = i as u64 * 1_000;
            trace.push(pkt(port, base, TcpFlags::SYN));
            trace.push(pkt(port, base + 10, TcpFlags::ACK));
            trace.push(pkt(port, base + 20, TcpFlags::FIN));
        }
        for shards in [1usize, 2, 5] {
            let v1_engine = StreamingEngine::builder()
                .shards(shards)
                .batch_size(8)
                .format(ArchiveFormat::V1)
                .build();
            let v2_engine = StreamingEngine::builder()
                .shards(shards)
                .batch_size(8)
                .format(ArchiveFormat::V2)
                .build();
            let (v1_bytes, v1_report) = v1_engine.compress_stream_to_bytes(stream(&trace)).unwrap();
            let (v2_bytes, v2_report) = v2_engine.compress_stream_to_bytes(stream(&trace)).unwrap();

            assert_eq!(ArchiveFormat::detect(&v1_bytes).unwrap(), ArchiveFormat::V1);
            assert_eq!(ArchiveFormat::detect(&v2_bytes).unwrap(), ArchiveFormat::V2);
            // Same shard states → the decoded global archives are equal,
            // whichever container carried them.
            let from_v1 = CompressedTrace::from_bytes(&v1_bytes).unwrap();
            let from_v2 = CompressedTrace::from_bytes(&v2_bytes).unwrap();
            assert_eq!(from_v1, from_v2, "{shards} shards");

            assert_eq!(v1_report.sections, 1);
            assert_eq!(v2_report.sections, shards);
            assert_eq!(v1_report.archive_bytes, v1_bytes.len() as u64);
            assert_eq!(v2_report.archive_bytes, v2_bytes.len() as u64);
            assert_eq!(v2_report.report.packets, v1_report.report.packets);
            assert_eq!(v2_report.report.clusters, v1_report.report.clusters);
            // v2 report sizes describe the actual v2 file.
            assert_eq!(v2_report.report.sizes.total(), v2_bytes.len() as u64);
        }
    }

    #[test]
    fn single_shard_v2_bytes_match_batch_to_bytes_v2() {
        let mut trace = Trace::new();
        for (i, port) in (5000u16..5016).enumerate() {
            let base = i as u64 * 2_000;
            trace.push(pkt(port, base, TcpFlags::SYN));
            trace.push(pkt(port, base + 15, TcpFlags::RST));
        }
        let (batch_archive, _) = Compressor::new(Params::paper()).compress(&trace);
        let engine = StreamingEngine::builder().shards(1).build();
        let (bytes, _) = engine.compress_stream_to_bytes(stream(&trace)).unwrap();
        assert_eq!(bytes, batch_archive.to_bytes_v2());
    }

    #[test]
    fn telemetry_is_a_pure_suffix_and_counts_into_metrics() {
        // Flows with a full handshake and one data exchange, so the
        // derivation has RTT samples to harvest.
        let mut trace = Trace::new();
        for (i, port) in (6000u16..6024).enumerate() {
            let base = i as u64 * 5_000;
            let dir = |c2s: bool, us: u64, flags: TcpFlags, len: u16, seq: u32, ack: u32| {
                let b = PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(base + us))
                    .flags(flags)
                    .payload_len(len)
                    .seq(seq)
                    .ack(ack);
                if c2s {
                    b.src(Ipv4Addr::new(10, 0, 0, 1), port)
                        .dst(Ipv4Addr::new(192, 0, 2, 9), 80)
                        .build()
                } else {
                    b.src(Ipv4Addr::new(192, 0, 2, 9), 80)
                        .dst(Ipv4Addr::new(10, 0, 0, 1), port)
                        .build()
                }
            };
            trace.push(dir(true, 0, TcpFlags::SYN, 0, 100, 0));
            trace.push(dir(false, 200, TcpFlags::SYN | TcpFlags::ACK, 0, 900, 101));
            trace.push(dir(true, 300, TcpFlags::ACK, 0, 101, 901));
            trace.push(dir(true, 320, TcpFlags::ACK, 50, 101, 901));
            trace.push(dir(false, 350, TcpFlags::ACK, 0, 901, 151));
            trace.push(dir(true, 400, TcpFlags::RST, 0, 151, 901));
        }
        for shards in [1usize, 3] {
            let off = StreamingEngine::builder()
                .shards(shards)
                .batch_size(8)
                .format(ArchiveFormat::V2)
                .build();
            let metrics = flowzip_obs::Metrics::enabled();
            let on = StreamingEngine::builder()
                .shards(shards)
                .batch_size(8)
                .format(ArchiveFormat::V2)
                .telemetry(true)
                .metrics(metrics.clone())
                .build();
            let (off_bytes, _) = off.compress_stream_to_bytes(stream(&trace)).unwrap();
            let (on_bytes, _) = on.compress_stream_to_bytes(stream(&trace)).unwrap();

            // The FZT1 block is a pure suffix: stripping it reproduces
            // the telemetry-off archive byte for byte.
            assert!(on_bytes.len() > off_bytes.len(), "{shards} shards");
            assert_eq!(&on_bytes[..off_bytes.len()], &off_bytes[..]);
            let telem = flowzip_core::v2_telemetry(&on_bytes).unwrap().unwrap();
            assert_eq!(telem.flow_count(), 24);
            assert!(flowzip_core::v2_telemetry(&off_bytes).unwrap().is_none());
            assert!(telem
                .sections
                .iter()
                .flat_map(|s| &s.flows)
                .all(|t| t.rtt_samples >= 2 && t.bytes == 50));

            use flowzip_obs::names;
            assert_eq!(metrics.counter(names::TELEMETRY_FLOWS).value(), 24);
            assert!(metrics.counter(names::TELEMETRY_RTT_SAMPLES).value() >= 48);
            assert_eq!(metrics.counter(names::TELEMETRY_RETRANSMISSIONS).value(), 0);
            // Every flow had a measurable RTT, so each contributed one
            // observation to the RTT histogram.
            let rtt_hist = metrics
                .snapshot()
                .histogram(names::TELEMETRY_RTT_US)
                .cloned()
                .expect("telemetry runs register the RTT histogram");
            assert_eq!(rtt_hist.count, 24);
            assert!(rtt_hist.quantile(0.95).is_some());
        }
    }

    #[test]
    fn idle_eviction_bounds_active_flows_and_loses_none() {
        // 2_000 flows that never terminate, spread 10 ms apart: without
        // eviction every one stays open; with a 1 s idle timeout the
        // engine retires them as the trace clock advances.
        let mut packets = Vec::new();
        for i in 0..2_000u64 {
            packets.push(
                PacketRecord::builder()
                    .src(
                        Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
                        1024 + (i % 30_000) as u16,
                    )
                    .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                    .timestamp(Timestamp::from_micros(i * 10_000))
                    .flags(TcpFlags::SYN)
                    .build(),
            );
        }
        let bounded = StreamingEngine::builder()
            .shards(2)
            .batch_size(64)
            .idle_timeout(Some(Duration::from_secs(1)))
            .build();
        let (_, with_eviction) = bounded
            .compress_stream(packets.iter().cloned().map(Ok))
            .unwrap();
        assert_eq!(
            with_eviction.report.flows, 2_000,
            "every flow still reported"
        );
        assert_eq!(with_eviction.report.packets, 2_000);
        assert!(
            with_eviction.peak_active_flows() < 500,
            "peak {} should be bounded by the idle horizon",
            with_eviction.peak_active_flows()
        );
        assert!(with_eviction.evicted_flows > 1_000);

        let unbounded = StreamingEngine::builder().shards(2).batch_size(64).build();
        let (_, without) = unbounded
            .compress_stream(packets.into_iter().map(Ok))
            .unwrap();
        assert_eq!(
            without.peak_active_flows(),
            2_000,
            "no eviction → all open at once"
        );
        assert_eq!(without.evicted_flows, 0);
    }
}
