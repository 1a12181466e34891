//! `flowzip-serve` — the continuous-ingest daemon: an unbounded packet
//! stream in, a directory of **time/count-rotated, independently
//! queryable archives** out.
//!
//! The one-shot pipeline compresses a trace and exits. This crate runs
//! the same streaming engine *forever*: packets arrive from a
//! [`ServeSource`] (a stdin pipe, an accepted TCP/Unix socket, a tailed
//! capture directory, or any packet iterator), an ingest thread batches
//! them into a **bounded** queue, and a driver loop runs one engine
//! drain per rotation window:
//!
//! ```text
//! ServeSource ─▶ ingest ─▶ bounded queue ─▶ window loop ─▶ flowzip-…Z-000000.fzc
//!  stdin/socket/  (batch,    (overload:       (engine          flowzip-…Z-000001.fzc
//!  watch/packets   count)    drop|block)       drain cut)      …  + manifest.jsonl
//! ```
//!
//! **Rotation is the engine's end-of-input drain.** When a window's
//! packet budget ([`ServeBuilder::rotate_packets`]) or wall-clock
//! deadline ([`ServeBuilder::rotate_every`]) arrives, the window's
//! packet iterator simply reports end-of-stream; the engine finalizes
//! every open flow exactly as at end of file, and the archive comes out
//! complete — v2.2 container, per-section metadata, telemetry
//! side-section when enabled — and independently decodable. A flow
//! straddling the cut is finalized into the closing window; its later
//! packets open a fresh flow in the next. An append-only
//! `manifest.jsonl` records every window (see [`manifest`]), so
//! `flowzip query` can be pointed at the directory.
//!
//! **Overload drops, never grows.** The queue between ingest and engine
//! is bounded; under sustained overload the default
//! [`OverloadPolicy::Drop`] discards whole batches at the queue mouth
//! and counts them (`serve.dropped_packets`), keeping memory flat.
//! [`OverloadPolicy::Block`] back-pressures the source instead —
//! lossless, for sources that tolerate it and for deterministic tests.
//!
//! **Shutdown always flushes.** Flipping the stop flag (a signal
//! handler's, or [`ServeHandle::shutdown`]) closes the current window
//! through the same drain path — the final archive is valid, the
//! manifest line is written, and [`ServeHandle::wait`] hands back the
//! per-window summaries.
//!
//! ```no_run
//! use flowzip_serve::{PipelineServe, ServeSource};
//! use flowzip_pipeline::Pipeline;
//!
//! let handle = Pipeline::serve()
//!     .source(ServeSource::stdin())
//!     .out_dir("/var/spool/flowzip")
//!     .rotate_every(std::time::Duration::from_secs(300))
//!     .start()
//!     .unwrap();
//! let report = handle.wait().unwrap();
//! println!("{} windows", report.windows.len());
//! ```

pub mod manifest;
mod session;
pub mod signal;
mod source;

pub use manifest::{read_manifest, ManifestEntry, MANIFEST_NAME};
pub use source::ServeSource;

/// The per-window observer callback stored by the builder and invoked
/// by the driver each time a window closes.
pub(crate) type WindowCallback = Box<dyn FnMut(&WindowSummary) + Send>;

use flowzip_core::Params;
use flowzip_engine::StreamingEngine;
use flowzip_obs::{names, Metrics, Sampler, SnapshotFormat, StatsSink};
use flowzip_pipeline::{Pipeline, Report};
use flowzip_trace::Duration as TraceDuration;
use session::{Driver, Shared};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// What to do when the bounded ingest queue is full — the memory-safety
/// valve of a serve session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Discard the overflowing batch and count its packets into
    /// `serve.dropped_packets` (and the per-window manifest figure).
    /// Memory stays flat no matter how fast the source produces — the
    /// right default for a daemon.
    #[default]
    Drop,
    /// Block the ingest thread until the engine catches up — lossless,
    /// for sources that tolerate back-pressure (a pipe, a file tail)
    /// and for tests that need every packet accounted deterministically.
    Block,
}

impl OverloadPolicy {
    /// Parses a CLI spelling (`drop` | `block`).
    ///
    /// # Errors
    ///
    /// A description of the accepted values.
    pub fn parse(s: &str) -> Result<OverloadPolicy, String> {
        match s {
            "drop" => Ok(OverloadPolicy::Drop),
            "block" => Ok(OverloadPolicy::Block),
            other => Err(format!("unknown overload policy `{other}` (drop|block)")),
        }
    }
}

/// Why a rotation window closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The packet budget ([`ServeBuilder::rotate_packets`]) was reached.
    Packets,
    /// The wall-clock deadline ([`ServeBuilder::rotate_every`]) passed.
    Time,
    /// The source ended cleanly.
    Eof,
    /// The stop flag flipped (signal or [`ServeHandle::shutdown`]).
    Signal,
    /// The source failed; the error text is in
    /// [`ServeReport::source_error`].
    SourceError,
}

impl CloseReason {
    /// The manifest `"reason"` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CloseReason::Packets => "packets",
            CloseReason::Time => "time",
            CloseReason::Eof => "eof",
            CloseReason::Signal => "signal",
            CloseReason::SourceError => "source-error",
        }
    }

    /// Inverse of [`CloseReason::as_str`].
    pub fn parse(s: &str) -> Option<CloseReason> {
        Some(match s {
            "packets" => CloseReason::Packets,
            "time" => CloseReason::Time,
            "eof" => CloseReason::Eof,
            "signal" => CloseReason::Signal,
            "source-error" => CloseReason::SourceError,
            _ => return None,
        })
    }
}

/// One closed rotation window: what was archived, why the window ended,
/// and the full per-window [`Report`] for stored windows.
#[derive(Debug)]
pub struct WindowSummary {
    /// Zero-based window sequence number (matches the manifest line and
    /// the archive file-name suffix).
    pub index: u64,
    /// The archive written, when the window stored packets.
    pub archive: Option<PathBuf>,
    /// Why the window closed.
    pub reason: CloseReason,
    /// Packets stored in this window's archive.
    pub packets: u64,
    /// Flows stored in this window's archive.
    pub flows: u64,
    /// Serialized archive size in bytes.
    pub bytes: u64,
    /// Packets dropped by overload while this window was open.
    pub dropped_packets: u64,
    /// Wall-clock when the window opened, Unix milliseconds.
    pub opened_unix_ms: u64,
    /// Wall-clock when the window closed, Unix milliseconds.
    pub closed_unix_ms: u64,
    /// Earliest packet capture timestamp in the window, microseconds.
    pub first_ts_us: Option<u64>,
    /// Latest packet capture timestamp in the window, microseconds.
    pub last_ts_us: Option<u64>,
    /// The unified per-window report (same schema as a one-shot
    /// compress run), for stored windows.
    pub report: Option<Report>,
}

/// What a finished serve session hands back.
#[derive(Debug)]
pub struct ServeReport {
    /// Every recorded window, in order.
    pub windows: Vec<WindowSummary>,
    /// Packets the source produced (decoded), dropped or not.
    pub produced_packets: u64,
    /// Packets stored across all windows.
    pub compressed_packets: u64,
    /// Packets discarded by the overload policy. For a non-blocking
    /// source that ends cleanly, `produced == compressed + dropped`.
    pub dropped_packets: u64,
    /// The rotation directory.
    pub out_dir: PathBuf,
    /// The manifest path (`<out_dir>/manifest.jsonl`).
    pub manifest: PathBuf,
    /// Terminal source error, when the session ended on one.
    pub source_error: Option<String>,
    /// Session wall-clock, seconds.
    pub elapsed_secs: f64,
}

impl ServeReport {
    /// One JSON object summarizing the session (window details live in
    /// the manifest; this is the headline accounting).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"type\":\"flowzip.serve\",\"windows\":{},\"produced_packets\":{},",
                "\"compressed_packets\":{},\"dropped_packets\":{},\"out_dir\":\"{}\",",
                "\"manifest\":\"{}\",\"source_error\":{},\"elapsed_secs\":{:.6}}}"
            ),
            self.windows.len(),
            self.produced_packets,
            self.compressed_packets,
            self.dropped_packets,
            flowzip_pipeline::report::json_escape(&self.out_dir.display().to_string()),
            flowzip_pipeline::report::json_escape(&self.manifest.display().to_string()),
            match &self.source_error {
                Some(e) => format!("\"{}\"", flowzip_pipeline::report::json_escape(e)),
                None => "null".to_string(),
            },
            self.elapsed_secs,
        )
    }
}

/// A serve-session failure.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid configuration, rejected before anything started.
    Config(String),
    /// Filesystem trouble in the rotation directory (context, cause).
    Io(String, std::io::Error),
    /// The driver thread panicked (a bug, not an input condition).
    Panicked,
}

impl ServeError {
    fn io(context: String, e: std::io::Error) -> ServeError {
        ServeError::Io(context, e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serve config: {msg}"),
            ServeError::Io(context, e) => write!(f, "serve io: {context}: {e}"),
            ServeError::Panicked => write!(f, "serve driver thread panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A running serve session: hold it to keep serving, flip
/// [`ServeHandle::stop_flag`] (or call [`ServeHandle::shutdown`]) to
/// finish. The final window is always flushed through the normal drain,
/// so the last archive is as valid as every other.
#[derive(Debug)]
pub struct ServeHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<Result<ServeReport, ServeError>>>,
    metrics: Metrics,
    out_dir: PathBuf,
}

impl ServeHandle {
    /// The shared stop flag — give it to a signal handler, or store it
    /// anywhere that needs to end the session.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.stop.clone()
    }

    /// The session's metrics registry — peek or snapshot it live
    /// (`serve.windows`, `serve.dropped_packets`, `serve.queue_depth`,
    /// `serve.window_age_secs`, plus every engine and io counter).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The rotation directory the session writes into.
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// Requests a graceful stop and waits: the current window drains to
    /// a final valid archive, the manifest closes, the report returns.
    ///
    /// # Errors
    ///
    /// [`ServeError`] from the session (archive/manifest write
    /// failures, driver panic).
    pub fn shutdown(mut self) -> Result<ServeReport, ServeError> {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.take_report()
    }

    /// Waits for the session to end on its own (source EOF, source
    /// error, or someone else flipping the stop flag).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServeHandle::shutdown`].
    pub fn wait(mut self) -> Result<ServeReport, ServeError> {
        self.take_report()
    }

    fn take_report(&mut self) -> Result<ServeReport, ServeError> {
        match self.join.take() {
            Some(h) => h.join().map_err(|_| ServeError::Panicked)?,
            None => Err(ServeError::Config("serve session already reaped".into())),
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        // An abandoned handle must not leave the driver running forever.
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(h) = self.join.take() {
            h.join().ok();
        }
    }
}

/// Builder for a serve session. Construct with [`Pipeline::serve`]
/// (via the [`PipelineServe`] extension trait) or
/// [`ServeBuilder::new`].
pub struct ServeBuilder {
    source: Option<ServeSource>,
    out_dir: Option<PathBuf>,
    rotate_every: Option<Duration>,
    rotate_packets: Option<u64>,
    params: Params,
    threads: Option<usize>,
    batch_size: Option<usize>,
    channel_capacity: Option<usize>,
    idle_timeout: Option<TraceDuration>,
    telemetry: bool,
    queue_batches: usize,
    overload: OverloadPolicy,
    metrics: Option<Metrics>,
    stats_interval: Option<Duration>,
    stats_format: Option<SnapshotFormat>,
    stats_writer: Option<StatsSink>,
    on_window: Option<WindowCallback>,
    stop: Option<Arc<AtomicBool>>,
}

/// Extension hanging [`ServeBuilder`] off the [`Pipeline`] front door:
/// `Pipeline::serve()` reads like `Pipeline::compress()`.
pub trait PipelineServe {
    /// Starts building a serve session.
    fn serve() -> ServeBuilder;
}

impl PipelineServe for Pipeline {
    fn serve() -> ServeBuilder {
        ServeBuilder::new()
    }
}

impl Default for ServeBuilder {
    fn default() -> ServeBuilder {
        ServeBuilder::new()
    }
}

impl std::fmt::Debug for ServeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeBuilder")
            .field("source", &self.source)
            .field("out_dir", &self.out_dir)
            .field("rotate_every", &self.rotate_every)
            .field("rotate_packets", &self.rotate_packets)
            .finish_non_exhaustive()
    }
}

impl ServeBuilder {
    /// Starts from the defaults: v2.2 archives, engine defaults, a
    /// 64-batch ingest queue, [`OverloadPolicy::Drop`].
    pub fn new() -> ServeBuilder {
        ServeBuilder {
            source: None,
            out_dir: None,
            rotate_every: None,
            rotate_packets: None,
            params: Params::paper(),
            threads: None,
            batch_size: None,
            channel_capacity: None,
            idle_timeout: None,
            telemetry: false,
            queue_batches: 64,
            overload: OverloadPolicy::default(),
            metrics: None,
            stats_interval: None,
            stats_format: None,
            stats_writer: None,
            on_window: None,
            stop: None,
        }
    }

    /// The packet source (required).
    pub fn source(mut self, source: ServeSource) -> Self {
        self.source = Some(source);
        self
    }

    /// The rotation directory (required; created if missing). Archives
    /// and `manifest.jsonl` land here.
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = Some(dir.into());
        self
    }

    /// Rotate on wall-clock: close the window after this long, archive
    /// or (explicitly-manifested) empty. Combines with
    /// [`ServeBuilder::rotate_packets`]; whichever trips first wins.
    pub fn rotate_every(mut self, every: Duration) -> Self {
        self.rotate_every = Some(every);
        self
    }

    /// Rotate on volume: close the window after this many packets,
    /// splitting batches exactly at the boundary.
    pub fn rotate_packets(mut self, packets: u64) -> Self {
        self.rotate_packets = Some(packets);
        self
    }

    /// Compression parameters (default: [`Params::paper`]).
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Worker shards per window run (engine default otherwise).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Packets per cross-thread batch — also the ingest batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size);
        self
    }

    /// Bounded in-flight batches per engine shard channel.
    pub fn channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = Some(capacity);
        self
    }

    /// Evict flows idle longer than this much *trace* time — the knob
    /// that keeps per-window memory flat when flows never close.
    pub fn idle_timeout(mut self, timeout: TraceDuration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Derive per-flow TCP telemetry and append the rev 2.2 `FZT1`
    /// side-section to **every** rotated archive.
    pub fn telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Bound of the ingest queue in batches (default 64; `0` is a
    /// configuration error). Peak queued packets ≈ `queue_batches ×
    /// batch_size`.
    pub fn queue_batches(mut self, batches: usize) -> Self {
        self.queue_batches = batches;
        self
    }

    /// What to do when the ingest queue is full (default
    /// [`OverloadPolicy::Drop`]).
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Metrics registry the session reports into (default: enabled —
    /// a daemon without observability is a black box; pass
    /// [`Metrics::disabled`] to opt out).
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Emit a live stats snapshot every `interval` for the whole
    /// session (packets/s, active flows, queue depth, window age —
    /// every registered counter).
    pub fn stats_interval(mut self, interval: Duration) -> Self {
        self.stats_interval = Some(interval);
        self
    }

    /// Live snapshot format (default [`SnapshotFormat::JsonLines`]).
    pub fn stats_format(mut self, format: SnapshotFormat) -> Self {
        self.stats_format = Some(format);
        self
    }

    /// Where live snapshots go (default standard error).
    pub fn stats_writer(mut self, writer: StatsSink) -> Self {
        self.stats_writer = Some(writer);
        self
    }

    /// Callback invoked on the driver thread after each recorded
    /// window — rotation hooks, uploads, tests.
    pub fn on_window(mut self, cb: impl FnMut(&WindowSummary) + Send + 'static) -> Self {
        self.on_window = Some(Box::new(cb));
        self
    }

    /// Use this shared stop flag instead of a fresh one — wire in the
    /// flag a signal handler flips ([`signal::install_graceful`]).
    pub fn stop_flag(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Validates the configuration, spawns the ingest and driver
    /// threads, and returns the running session's handle.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for missing/invalid knobs;
    /// [`ServeError::Io`] when the rotation directory cannot be
    /// created.
    pub fn start(self) -> Result<ServeHandle, ServeError> {
        let source = self
            .source
            .ok_or_else(|| ServeError::Config("serve session has no source".into()))?;
        let out_dir = self
            .out_dir
            .ok_or_else(|| ServeError::Config("serve session has no out_dir".into()))?;
        if self.rotate_packets == Some(0) {
            return Err(ServeError::Config(
                "rotate_packets must be ≥ 1 (got 0; every window would be empty)".into(),
            ));
        }
        if self.rotate_every == Some(Duration::ZERO) {
            return Err(ServeError::Config(
                "rotate_every must be non-zero (a zero window would rotate forever)".into(),
            ));
        }
        if self.queue_batches == 0 {
            return Err(ServeError::Config(
                "queue_batches must be ≥ 1 (got 0; a zero-slot queue delivers nothing)".into(),
            ));
        }
        if self.stats_interval == Some(Duration::ZERO) {
            return Err(ServeError::Config(
                "stats_interval must be non-zero (a zero interval would spin)".into(),
            ));
        }
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| ServeError::io(format!("create {}", out_dir.display()), e))?;

        // A daemon defaults to observable; `Metrics::disabled()` is the
        // explicit opt-out.
        let metrics = self.metrics.unwrap_or_else(Metrics::enabled);
        let batch_size = self.batch_size.unwrap_or(1024);
        let mut builder = StreamingEngine::builder()
            .params(self.params)
            .batch_size(batch_size)
            .telemetry(self.telemetry)
            .idle_timeout(self.idle_timeout)
            .metrics(metrics.clone());
        if let Some(t) = self.threads {
            builder = builder.shards(t);
        }
        if let Some(c) = self.channel_capacity {
            builder = builder.channel_capacity(c);
        }
        let engine = builder
            .try_build()
            .map_err(|e| ServeError::Config(e.to_string()))?;

        let stop = self.stop.unwrap_or_default();
        let shared = Shared::new(stop.clone());
        let (tx, rx) = mpsc::sync_channel::<Vec<flowzip_trace::PacketRecord>>(self.queue_batches);

        let sampler = self.stats_interval.map(|interval| {
            Sampler::start(
                &metrics,
                interval,
                self.stats_format.unwrap_or_default(),
                self.stats_writer.unwrap_or_else(StatsSink::stderr),
            )
        });

        let ingest = {
            let ingest_shared = Shared {
                stop: shared.stop.clone(),
                produced: shared.produced.clone(),
                dropped: shared.dropped.clone(),
                queued: shared.queued.clone(),
                source_error: shared.source_error.clone(),
            };
            let dropped_counter = metrics.counter(names::SERVE_DROPPED_PACKETS);
            let queue_gauge = metrics.gauge(names::SERVE_QUEUE_DEPTH);
            let overload = self.overload;
            std::thread::Builder::new()
                .name("flowzip-serve-ingest".into())
                .spawn(move || {
                    session::run_ingest(
                        source,
                        tx,
                        batch_size,
                        overload,
                        &ingest_shared,
                        dropped_counter,
                        queue_gauge,
                    )
                })
                .map_err(|e| ServeError::io("spawn ingest thread".into(), e))?
        };

        let driver = Driver {
            engine,
            rx,
            shared,
            out_dir: out_dir.clone(),
            rotate_every: self.rotate_every,
            rotate_packets: self.rotate_packets,
            telemetry: self.telemetry,
            metrics: metrics.clone(),
            sampler,
            on_window: self.on_window,
            ingest: Some(ingest),
        };
        let join = std::thread::Builder::new()
            .name("flowzip-serve-driver".into())
            .spawn(move || driver.run())
            .map_err(|e| ServeError::io("spawn driver thread".into(), e))?;

        Ok(ServeHandle {
            stop,
            join: Some(join),
            metrics,
            out_dir,
        })
    }
}
