//! Backpressure and starvation stress for the router: extreme shard ×
//! batch × capacity corners must neither deadlock nor change output.
//!
//! The liveness argument: a shard worker's only blocking operation is
//! `recv`, so it always drains its channel, and the router blocked on a
//! full channel is back-pressure, never deadlock. These tests drive the
//! corners where that argument has to carry the load — one-slot
//! channels, one-packet batches, one router fanning out to many shards
//! or funneling into few — and enforce a wall-clock bound so a deadlock
//! fails the test instead of hanging CI. Every corner must reproduce the
//! bytes of a run at the default batching (1024-packet batches, 4-slot
//! channels) with the same shard count.

use flowzip_engine::StreamingEngine;
use flowzip_trace::Trace;
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use std::sync::mpsc;
use std::time::Duration;

fn web_trace(flows: usize, seed: u64) -> Trace {
    WebTrafficGenerator::new(
        WebTrafficConfig {
            flows,
            duration_secs: 20.0,
            ..WebTrafficConfig::default()
        },
        seed,
    )
    .generate()
}

/// Runs one engine compression on a watchdog thread: panics if it does
/// not complete within 60 s (a liveness failure), otherwise returns the
/// archive bytes.
fn compress_bounded(
    trace: &Trace,
    shards: usize,
    batch_size: usize,
    channel_capacity: usize,
) -> Vec<u8> {
    let limit = Duration::from_secs(60);
    let packets: Vec<_> = trace.iter().cloned().collect();
    let (tx, rx) = mpsc::channel();
    let label = format!("{shards} shards, batch {batch_size}, capacity {channel_capacity}");
    std::thread::spawn(move || {
        let engine = StreamingEngine::builder()
            .shards(shards)
            .batch_size(batch_size)
            .channel_capacity(channel_capacity)
            .build();
        let result = engine.compress_stream_to_bytes(packets.into_iter().map(Ok));
        // The receiver may have already timed out and gone — ignore.
        let _ = tx.send(result);
    });
    match rx.recv_timeout(limit) {
        Ok(result) => result.expect("compression failed").0,
        Err(_) => panic!("{label}: no completion within {limit:?} — pipeline stalled"),
    }
}

/// The default-batching reference for `shards`.
fn reference(trace: &Trace, shards: usize) -> Vec<u8> {
    compress_bounded(trace, shards, 1024, 4)
}

/// The router funneling into few shards through one-slot channels: it
/// spends most of its life blocked on a full channel, and the run must
/// still finish with the reference bytes.
#[test]
fn few_shards_one_slot_channels() {
    let trace = web_trace(150, 11);
    let bytes = compress_bounded(&trace, 2, 16, 1);
    assert_eq!(bytes, reference(&trace, 2));
}

/// The one router fanning out to many shards, again with one-slot
/// channels, so a single slow shard stalls the router and every other
/// shard behind it.
#[test]
fn few_routers_many_shards_one_slot_channels() {
    let trace = web_trace(150, 23);
    for shards in [8usize, 16] {
        let bytes = compress_bounded(&trace, shards, 16, 1);
        assert_eq!(bytes, reference(&trace, shards), "{shards} shards");
    }
}

/// Tiny batches maximize hand-off count (one packet per batch at
/// batch_size 1): every packet takes a channel slot of its own.
#[test]
fn single_packet_batches_with_two_slot_channels() {
    let trace = web_trace(40, 31);
    let bytes = compress_bounded(&trace, 3, 1, 2);
    assert_eq!(bytes, reference(&trace, 3));
}

/// More shards than the input has batches: most shards never receive a
/// packet and must still close and hand back an empty section.
#[test]
fn more_shards_than_batches_terminates() {
    let trace = web_trace(5, 47); // a handful of packets, one batch
    let bytes = compress_bounded(&trace, 8, 4096, 4);
    assert_eq!(bytes, reference(&trace, 8));
}

/// Empty input across the stress topologies: channels open and close
/// with no traffic.
#[test]
fn empty_input_terminates_under_every_topology() {
    let trace = Trace::new();
    for shards in [1usize, 2, 8] {
        // v2 writes one section per shard, so the reference must share
        // the shard count.
        let bytes = compress_bounded(&trace, shards, 8, 1);
        assert_eq!(bytes, reference(&trace, shards), "{shards} shards");
    }
}
