//! Integration tests for engine observability: instrumented runs must
//! report honest numbers, leave no queue depth behind, and — above all
//! — never change the bytes the engine produces.

use flowzip_engine::{Metrics, Profiler, StreamingEngine};
use flowzip_obs::names;
use flowzip_trace::prelude::*;

fn packets(n: u64) -> Vec<PacketRecord> {
    (0..n)
        .map(|i| {
            PacketRecord::builder()
                .src(
                    Ipv4Addr::new(10, (i >> 6) as u8, i as u8, 1),
                    2000 + (i % 500) as u16,
                )
                .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                .timestamp(Timestamp::from_micros(i * 50))
                .flags(if i % 3 == 2 {
                    TcpFlags::FIN
                } else {
                    TcpFlags::ACK
                })
                .build()
        })
        .collect()
}

fn engine(shards: usize, metrics: &Metrics) -> StreamingEngine {
    StreamingEngine::builder()
        .shards(shards)
        .batch_size(64)
        .metrics(metrics.clone())
        .build()
}

#[test]
fn instrumented_run_is_byte_identical_to_uninstrumented() {
    let input = packets(3_000);
    let plain = engine(3, &Metrics::disabled());
    let (baseline, _) = plain
        .compress_stream_to_bytes(input.iter().cloned().map(Ok))
        .unwrap();
    let metrics = Metrics::enabled();
    let profiler = Profiler::enabled();
    let observed = StreamingEngine::builder()
        .shards(3)
        .batch_size(64)
        .metrics(metrics.clone())
        .profiler(profiler.clone())
        .build();
    let (bytes, _) = observed
        .compress_stream_to_bytes(input.iter().cloned().map(Ok))
        .unwrap();
    assert_eq!(bytes, baseline);
    assert!(profiler.to_trace_json().contains("\"ph\":\"X\""));
}

#[test]
fn queue_depth_gauges_return_to_zero_after_a_clean_run() {
    let input = packets(5_000);
    let metrics = Metrics::enabled();
    let e = engine(4, &metrics);
    let (_, report) = e
        .compress_stream_to_bytes(input.iter().cloned().map(Ok))
        .unwrap();
    assert_eq!(report.report.packets, 5_000);
    let snap = metrics.snapshot();
    let depths = snap.queue_depths();
    assert_eq!(depths.len(), 4, "one gauge per shard");
    for (shard, depth) in depths.iter().enumerate() {
        assert_eq!(*depth, 0, "shard {shard} leaked queue depth");
    }
    // Active-flow gauges are reset to zero at shard finalization.
    assert_eq!(snap.active_flows(), 0, "active flows after finish");
}

/// A live reading of the queue-depth gauges never goes negative: the
/// router counts a batch in before handing it over, so the shard's
/// decrement on receive can never run ahead of the increment. One-slot
/// channels and one-packet batches maximize hand-offs while a poller
/// thread reads every gauge as fast as it can.
#[test]
fn live_queue_depth_never_reads_negative() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let input = packets(20_000);
    let metrics = Metrics::enabled();
    let e = StreamingEngine::builder()
        .shards(3)
        .batch_size(1)
        .channel_capacity(1)
        .metrics(metrics.clone())
        .build();
    let done = AtomicBool::new(false);
    let (reads, negative) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let (mut reads, mut negative) = (0u64, Vec::new());
            while !done.load(Ordering::Relaxed) {
                for d in metrics.snapshot().queue_depths() {
                    reads += 1;
                    if d < 0 {
                        negative.push(d);
                    }
                }
            }
            (reads, negative)
        });
        let (_, report) = e
            .compress_stream_to_bytes(input.iter().cloned().map(Ok))
            .unwrap();
        done.store(true, Ordering::Relaxed);
        assert_eq!(report.report.packets, 20_000);
        poller.join().unwrap()
    });
    assert!(reads > 0, "the poller never sampled a gauge");
    assert!(
        negative.is_empty(),
        "{} of {reads} live reads were negative: {:?}",
        negative.len(),
        &negative[..negative.len().min(8)]
    );
}

#[test]
fn counters_match_the_engine_report() {
    let input = packets(4_096);
    let metrics = Metrics::enabled();
    let e = StreamingEngine::builder()
        .shards(2)
        .batch_size(128)
        .idle_timeout(Some(Duration::from_millis(10)))
        .metrics(metrics.clone())
        .build();
    let (bytes, report) = e
        .compress_stream_to_bytes(input.iter().cloned().map(Ok))
        .unwrap();
    assert!(!bytes.is_empty());
    let snap = metrics.snapshot();
    assert_eq!(snap.counter(names::ENGINE_PACKETS), Some(4_096));
    assert_eq!(
        snap.counter(names::ENGINE_EVICTED_FLOWS),
        Some(report.evicted_flows)
    );
    assert!(snap.counter(names::ENGINE_BATCHES).unwrap() > 0);
    assert_eq!(
        snap.counter(names::CONTAINER_SECTIONS),
        Some(report.sections as u64)
    );
    assert!(snap.counter(names::CONTAINER_SERIALIZE_NS).is_some());
    // Measured stage time exists, fits wall-clock, and the residual
    // accounts for the rest.
    assert!(report.stage_busy_secs > 0.0);
    assert!(report.stage_busy_secs <= report.elapsed_secs * 1.05);
    assert!(report.unattributed_secs >= 0.0);
    assert!(report.unattributed_secs <= report.elapsed_secs);
}

#[test]
fn disabled_metrics_register_nothing_and_report_no_stage_time() {
    let input = packets(512);
    let metrics = Metrics::disabled();
    let e = engine(2, &metrics);
    let (_, report) = e
        .compress_stream_to_bytes(input.iter().cloned().map(Ok))
        .unwrap();
    assert!(metrics.snapshot().is_empty());
    assert_eq!(report.stage_busy_secs, 0.0);
    assert_eq!(report.unattributed_secs, 0.0);
}
