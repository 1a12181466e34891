//! [`LiveStats`]: the live-snapshot knobs of a packet-in session, and the
//! one place such a session builds its engine and starts its
//! [`Sampler`] — `Pipeline::compress()` and `Pipeline::serve()` both
//! call [`LiveStats::start`], so each rule below is checked once.

use crate::error::PipelineError;
use flowzip_engine::{EngineBuilder, StreamingEngine};
use flowzip_obs::{Metrics, Sampler, SnapshotFormat, StatsSink};
use std::time::Duration;

/// When, how and where a session emits live stats snapshots. A session
/// builder holds one beside its [`EngineBuilder`] and fills it from its
/// `stats_interval`/`stats_format`/`stats_writer` setters.
#[derive(Debug, Default)]
pub struct LiveStats {
    /// Snapshot period; `None` emits no live snapshots.
    pub interval: Option<Duration>,
    /// Snapshot format (default [`SnapshotFormat::JsonLines`]).
    pub format: Option<SnapshotFormat>,
    /// Snapshot destination (default standard error).
    pub writer: Option<StatsSink>,
}

impl LiveStats {
    /// Checks the stats knobs, builds the engine through
    /// [`EngineBuilder::try_build`] (which checks every engine knob), and
    /// starts the sampler over the engine's metrics registry. An interval
    /// implies metrics: a disabled registry is swapped for an enabled
    /// one, because sampling it would emit nothing. The sampler lives as
    /// long as the returned handle — dropping it emits the final snapshot
    /// and joins.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] naming the first rejected knob, before
    /// any thread starts.
    pub fn start(
        self,
        mut engine: EngineBuilder,
    ) -> Result<(StreamingEngine, Option<Sampler>), PipelineError> {
        if self.interval == Some(Duration::ZERO) {
            return Err(PipelineError::config(
                "stats_interval must be non-zero (a zero interval would spin emitting snapshots)",
            ));
        }
        if self.interval.is_none() && (self.format.is_some() || self.writer.is_some()) {
            return Err(PipelineError::config(
                "stats_format/stats_writer shape live snapshot output and need \
                 .stats_interval(…) to produce any",
            ));
        }
        if self.interval.is_some() && !engine.config().metrics.is_enabled() {
            engine = engine.metrics(Metrics::enabled());
        }
        let engine = engine
            .try_build()
            .map_err(|e| PipelineError::config(e.to_string()))?;
        let sampler = self.interval.map(|interval| {
            Sampler::start(
                &engine.config().metrics,
                interval,
                self.format.unwrap_or_default(),
                self.writer.unwrap_or_else(StatsSink::stderr),
            )
        });
        Ok((engine, sampler))
    }
}
