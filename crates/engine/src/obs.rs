//! The engine's instrument handles: one [`ShardObs`] bundle per shard
//! and run, built from the configured [`Metrics`] registry and
//! [`Profiler`] so the hot loops never look instruments up by name.
//!
//! Everything here is enum-dispatch cheap when observability is off:
//! handles are no-ops, [`Track::span`] records nothing, and the one
//! `Instant::now()` pair per batch is gated on
//! [`Counter::is_enabled`] — a disabled run pays a branch, not a
//! syscall.

use flowzip_obs::{names, Counter, Gauge, Histogram, Metrics, Profiler, Track};

/// Per-shard instrument handles, moved into the shard's worker loop.
/// The queue-depth gauge is cloned onto the sending side too (the router
/// increments before each send, the shard decrements on receive), so a
/// live reading never goes negative and a clean run drains every
/// channel back to zero.
#[derive(Debug, Clone)]
pub(crate) struct ShardObs {
    /// `engine.shard.{i}.queue_depth` — batches in flight on this
    /// shard's bounded channel.
    pub(crate) queue_depth: Gauge,
    /// `engine.shard.{i}.active_flows` — open flows in the accumulator.
    pub(crate) active_flows: Gauge,
    /// `engine.shard.{i}.accumulate_ns` — per-batch accumulate time.
    pub(crate) accumulate_ns: Histogram,
    /// `engine.shard.{i}.encode_ns` — finalize/encode time.
    pub(crate) encode_ns: Counter,
    /// Global `engine.packets` (shared handle, all shards add).
    pub(crate) packets: Counter,
    /// Global `engine.batches`.
    pub(crate) batches: Counter,
    /// Global `engine.evicted_flows`.
    pub(crate) evicted: Counter,
    /// Global `telemetry.flows` (recorded at shard finish).
    pub(crate) telemetry_flows: Counter,
    /// Global `telemetry.retransmissions`.
    pub(crate) telemetry_retrans: Counter,
    /// Global `telemetry.rtt_samples`.
    pub(crate) telemetry_rtt_samples: Counter,
    /// Global `telemetry.rtt_us` histogram — one record per finished
    /// flow with a measured RTT, feeding the p95 in the stats one-liner.
    pub(crate) telemetry_rtt_us: Histogram,
    /// This shard's profiler timeline row.
    pub(crate) track: Track,
}

/// Registers (or re-resolves — registration is idempotent) every
/// engine instrument for a `shards`-wide run, one handle bundle per
/// shard. (The container-tail instruments are resolved separately in
/// `outputs_to_bytes` — serialization happens after the shards joined.)
pub(crate) fn shard_obs(metrics: &Metrics, profiler: &Profiler, shards: usize) -> Vec<ShardObs> {
    let packets = metrics.counter(names::ENGINE_PACKETS);
    let batches = metrics.counter(names::ENGINE_BATCHES);
    let evicted = metrics.counter(names::ENGINE_EVICTED_FLOWS);
    let telemetry_flows = metrics.counter(names::TELEMETRY_FLOWS);
    let telemetry_retrans = metrics.counter(names::TELEMETRY_RETRANSMISSIONS);
    let telemetry_rtt_samples = metrics.counter(names::TELEMETRY_RTT_SAMPLES);
    let telemetry_rtt_us = metrics.histogram(names::TELEMETRY_RTT_US, flowzip_obs::RTT_US_BOUNDS);
    (0..shards)
        .map(|i| ShardObs {
            queue_depth: metrics.gauge(&names::shard_queue_depth(i)),
            active_flows: metrics.gauge(&names::shard_active_flows(i)),
            accumulate_ns: metrics.histogram(
                &names::shard_accumulate_ns(i),
                flowzip_obs::DURATION_NS_BOUNDS,
            ),
            encode_ns: metrics.counter(&names::shard_encode_ns(i)),
            packets: packets.clone(),
            batches: batches.clone(),
            evicted: evicted.clone(),
            telemetry_flows: telemetry_flows.clone(),
            telemetry_retrans: telemetry_retrans.clone(),
            telemetry_rtt_samples: telemetry_rtt_samples.clone(),
            telemetry_rtt_us: telemetry_rtt_us.clone(),
            track: profiler.track(&format!("shard-{i}")),
        })
        .collect()
}
