//! Engine configuration: shard count, batching, back-pressure and the
//! idle-flow eviction policy.

use crate::engine::StreamingEngine;
use flowzip_core::{ArchiveFormat, Params};
use flowzip_obs::{Metrics, Profiler};
use flowzip_trace::Duration;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Cooperative cancellation for an in-flight run: when the shared flag
/// flips, the engine stops pulling input at the next pull point and runs
/// its normal end-of-input drain — every flow routed so far is finalized
/// and the run returns a **valid partial archive**, exactly as if the
/// stream had ended there. This is the mechanism behind graceful SIGINT
/// (one-shot CLI runs finalize instead of truncating) and `flowzip
/// serve`'s clean-shutdown final flush.
///
/// The default ([`CancelFlag::none`]) never cancels and costs the pull
/// path one predictable branch. Two flags compare equal when both are
/// empty or both share the same underlying atomic.
#[derive(Clone, Default)]
pub struct CancelFlag(Option<Arc<AtomicBool>>);

impl CancelFlag {
    /// The inert flag: the run only ends when its input does.
    pub fn none() -> CancelFlag {
        CancelFlag(None)
    }

    /// Wraps a shared stop flag (e.g. one a signal handler sets).
    pub fn new(flag: Arc<AtomicBool>) -> CancelFlag {
        CancelFlag(Some(flag))
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

impl PartialEq for CancelFlag {
    fn eq(&self, other: &CancelFlag) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl std::fmt::Debug for CancelFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("CancelFlag::none"),
            Some(flag) => write!(f, "CancelFlag({})", flag.load(Ordering::Relaxed)),
        }
    }
}

/// Resolved engine configuration (what [`EngineBuilder::build`] produces).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Compression parameters shared by every shard.
    pub params: Params,
    /// Container format [`StreamingEngine::compress_stream_to_bytes`]
    /// writes. v2 (the default) lets every shard serialize its own
    /// archive section in parallel; v1 keeps the original single-blob
    /// layout with its serial O(trace) serialization tail.
    pub format: ArchiveFormat,
    /// Worker threads; flows are partitioned across them by flow-key
    /// hash. One shard reproduces batch output byte-for-byte.
    pub shards: usize,
    /// Packets per cross-thread batch. Larger batches amortize channel
    /// overhead; smaller ones reduce latency and peak buffering.
    pub batch_size: usize,
    /// Bounded in-flight batches per shard channel — the back-pressure
    /// knob that caps reader run-ahead (peak buffered packets is
    /// `shards · channel_capacity · batch_size` plus one partial batch).
    pub channel_capacity: usize,
    /// Evict flows idle longer than this (in *trace* time). `None`
    /// disables eviction: memory then grows with the number of flows left
    /// open by the trace, exactly like the batch compressor.
    pub idle_timeout: Option<Duration>,
    /// Derive per-flow TCP telemetry (RTT, retransmissions, idle/active
    /// time) inline during accumulation and, with the v2 container,
    /// append the rev 2.2 `FZT1` side-section. Off by default; turning
    /// it on never changes the archive's non-telemetry bytes (the block
    /// is a pure suffix).
    pub telemetry: bool,
    /// Metrics registry every run reports into
    /// ([`Metrics::disabled`] by default — instrument handles are then
    /// enum-dispatch no-ops and the hot paths never read a clock).
    pub metrics: Metrics,
    /// Span-timing recorder for chrome://tracing dumps
    /// ([`Profiler::disabled`] by default).
    pub profiler: Profiler,
    /// Cooperative cancellation: when the flag flips, the run stops
    /// pulling input and drains what it has into a valid partial archive
    /// ([`CancelFlag::none`] by default — runs end with their input).
    pub cancel: CancelFlag,
}

impl EngineConfig {
    fn validated(mut self) -> EngineConfig {
        self.shards = self.shards.max(1);
        self.batch_size = self.batch_size.max(1);
        self.channel_capacity = self.channel_capacity.max(1);
        self
    }

    /// Checks every knob, returning a descriptive error for values that
    /// would hang or starve the pipeline instead of clamping them.
    fn checked(self) -> Result<EngineConfig, ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError(
                "shards must be ≥ 1 (got 0; zero workers would hang the router)".to_string(),
            ));
        }
        if self.batch_size == 0 {
            return Err(ConfigError(
                "batch_size must be ≥ 1 (got 0; empty batches would never hand packets over)"
                    .to_string(),
            ));
        }
        if self.channel_capacity == 0 {
            return Err(ConfigError(
                "channel_capacity must be ≥ 1 (got 0; a zero-slot channel would deadlock)"
                    .to_string(),
            ));
        }
        Ok(self)
    }
}

/// A rejected engine configuration, with a human-readable description of
/// the offending knob (what [`EngineBuilder::try_build`] returns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineBuilder::new().config
    }
}

/// Fluent builder for a [`StreamingEngine`].
///
/// ```
/// use flowzip_engine::StreamingEngine;
/// use flowzip_trace::Duration;
///
/// let engine = StreamingEngine::builder()
///     .shards(4)
///     .batch_size(1024)
///     .channel_capacity(8)
///     .idle_timeout(Some(Duration::from_secs(60)))
///     .build();
/// assert_eq!(engine.config().shards, 4);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: EngineConfig,
}

impl EngineBuilder {
    /// Starts from the defaults: paper parameters, one shard per
    /// available CPU (capped at 8), 1024-packet batches, 4 in-flight
    /// batches per shard, no idle eviction.
    pub fn new() -> EngineBuilder {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        EngineBuilder {
            config: EngineConfig {
                params: Params::paper(),
                format: ArchiveFormat::V2,
                shards: cpus.min(8),
                batch_size: 1024,
                channel_capacity: 4,
                idle_timeout: None,
                telemetry: false,
                metrics: Metrics::disabled(),
                profiler: Profiler::disabled(),
                cancel: CancelFlag::none(),
            },
        }
    }

    /// Container format for serialized output (default: v2).
    pub fn format(mut self, format: ArchiveFormat) -> EngineBuilder {
        self.config.format = format;
        self
    }

    /// Compression parameters (default: [`Params::paper`]).
    pub fn params(mut self, params: Params) -> EngineBuilder {
        self.config.params = params;
        self
    }

    /// Number of worker shards (clamped to ≥ 1).
    pub fn shards(mut self, shards: usize) -> EngineBuilder {
        self.config.shards = shards;
        self
    }

    /// Packets per cross-thread batch (clamped to ≥ 1).
    pub fn batch_size(mut self, batch_size: usize) -> EngineBuilder {
        self.config.batch_size = batch_size;
        self
    }

    /// Bounded in-flight batches per shard channel (clamped to ≥ 1).
    pub fn channel_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.config.channel_capacity = capacity;
        self
    }

    /// Idle-flow eviction horizon in trace time; `None` disables.
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> EngineBuilder {
        self.config.idle_timeout = timeout;
        self
    }

    /// Per-flow TCP telemetry derivation (default: off). With the v2
    /// container the per-section rows persist as the rev 2.2 `FZT1`
    /// side-section (and feed the `telemetry.*` counters); the v1
    /// single-blob format has nowhere to carry the rows, so the knob is
    /// only meaningful together with [`ArchiveFormat::V2`].
    pub fn telemetry(mut self, telemetry: bool) -> EngineBuilder {
        self.config.telemetry = telemetry;
        self
    }

    /// Metrics registry runs report into (default:
    /// [`Metrics::disabled`], which makes every instrument a no-op).
    /// Pass [`Metrics::enabled`] and snapshot it after (or during — it
    /// is lock-free to read) a run.
    pub fn metrics(mut self, metrics: Metrics) -> EngineBuilder {
        self.config.metrics = metrics;
        self
    }

    /// Span-timing recorder for chrome://tracing dumps (default:
    /// [`Profiler::disabled`]). Each shard gets its own timeline track.
    pub fn profiler(mut self, profiler: Profiler) -> EngineBuilder {
        self.config.profiler = profiler;
        self
    }

    /// Cooperative cancellation flag (default: none). When `flag` flips
    /// to `true` mid-run, the engine stops pulling input at the next
    /// pull point and drains everything routed so far through the normal
    /// end-of-stream path — the run returns a **valid partial archive**
    /// rather than erroring out. Signal handlers and `flowzip serve`'s
    /// shutdown path share one flag across ingest and engine.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> EngineBuilder {
        self.config.cancel = CancelFlag::new(flag);
        self
    }

    /// Finalizes the configuration, silently clamping zero-valued knobs
    /// up to 1. Prefer [`EngineBuilder::try_build`] where a zero is more
    /// likely a caller bug than a request for the minimum.
    pub fn build(self) -> StreamingEngine {
        StreamingEngine::new(self.config.validated())
    }

    /// Finalizes the configuration, rejecting nonsense (`shards == 0`,
    /// `batch_size == 0`, `channel_capacity == 0`) with a descriptive
    /// [`ConfigError`] instead of clamping — the validating entry point
    /// `flowzip-pipeline` builds engines through.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending knob and why it is invalid.
    pub fn try_build(self) -> Result<StreamingEngine, ConfigError> {
        Ok(StreamingEngine::new(self.config.checked()?))
    }
}

impl Default for EngineBuilder {
    fn default() -> EngineBuilder {
        EngineBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.shards >= 1);
        assert!(c.batch_size >= 1);
        assert!(c.channel_capacity >= 1);
        assert_eq!(c.idle_timeout, None);
        assert_eq!(c.params, Params::paper());
        assert_eq!(c.format, ArchiveFormat::V2);
        assert!(!c.telemetry);
    }

    #[test]
    fn zero_knobs_clamp_to_one() {
        let e = StreamingEngine::builder()
            .shards(0)
            .batch_size(0)
            .channel_capacity(0)
            .build();
        assert_eq!(e.config().shards, 1);
        assert_eq!(e.config().batch_size, 1);
        assert_eq!(e.config().channel_capacity, 1);
    }

    #[test]
    fn try_build_rejects_each_zero_knob_descriptively() {
        let err = StreamingEngine::builder()
            .shards(0)
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("shards must be ≥ 1"), "{err}");

        let err = StreamingEngine::builder()
            .batch_size(0)
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("batch_size must be ≥ 1"), "{err}");

        let err = StreamingEngine::builder()
            .channel_capacity(0)
            .try_build()
            .unwrap_err();
        assert!(
            err.to_string().contains("channel_capacity must be ≥ 1"),
            "{err}"
        );

        // Sane configurations pass through unchanged.
        let engine = StreamingEngine::builder()
            .shards(3)
            .batch_size(64)
            .channel_capacity(2)
            .try_build()
            .unwrap();
        assert_eq!(engine.config().shards, 3);
    }

    #[test]
    fn builder_sets_every_knob() {
        let e = StreamingEngine::builder()
            .params(Params {
                similarity: 0.05,
                ..Params::paper()
            })
            .shards(3)
            .batch_size(77)
            .channel_capacity(2)
            .idle_timeout(Some(Duration::from_secs(30)))
            .format(ArchiveFormat::V1)
            .telemetry(true)
            .build();
        assert_eq!(e.config().format, ArchiveFormat::V1);
        assert!(e.config().telemetry);
        assert_eq!(e.config().shards, 3);
        assert_eq!(e.config().batch_size, 77);
        assert_eq!(e.config().channel_capacity, 2);
        assert_eq!(e.config().idle_timeout, Some(Duration::from_secs(30)));
        assert!((e.config().params.similarity - 0.05).abs() < 1e-12);
    }
}
