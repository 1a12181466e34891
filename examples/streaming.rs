//! Low-level tour of the sharded streaming engine.
//!
//! Most applications should sit one level up, on the `Pipeline` session
//! API (`cargo run --example pipeline`); this example deliberately uses
//! the engine's primitive entry point — `compress_stream_to_bytes`, any
//! fallible packet iterator in, container-v2 archive bytes out — to show
//! what every pipeline session runs.
//!
//! Generates a seeded Web trace, then compresses it three ways — batch,
//! single-shard streaming (byte-identical to batch), and sharded
//! streaming with idle-flow eviction — and prints what each run saw.
//!
//! ```text
//! cargo run --release --example streaming
//! ```

use flowzip::core::{CompressedTrace, Compressor, Params};
use flowzip::engine::StreamingEngine;
use flowzip::prelude::*;
use flowzip::trace::tsh::TshReader;

fn main() {
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 5_000,
            duration_secs: 120.0,
            ..WebTrafficConfig::default()
        },
        0xF10,
    )
    .generate();
    println!("trace: {} packets, 5000 flows\n", trace.len());

    // Reference point: the batch compressor (whole trace in memory).
    let (batch_archive, batch) = Compressor::new(Params::paper()).compress(&trace);
    println!("batch     : {batch}");

    // One shard, no eviction: same algorithm run streaming. The archive
    // is byte-for-byte the batch archive's v2 serialization.
    let sequential = StreamingEngine::builder().shards(1).build();
    let (seq_bytes, seq) = sequential
        .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
        .unwrap();
    assert_eq!(seq_bytes, batch_archive.to_bytes_v2());
    println!("1 shard   : {seq}");

    // The full builder surface: four shards, bounded channels, 60 s
    // idle-flow eviction. Per-flow numbers stay exact; only the greedy
    // clustering may drift within the Eq. 4 tolerance.
    let engine = StreamingEngine::builder()
        .shards(4)
        .batch_size(1024)
        .channel_capacity(8)
        .idle_timeout(Some(Duration::from_secs(60)))
        .build();
    let (bytes, sharded) = engine
        .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
        .unwrap();
    let archive = CompressedTrace::from_bytes(&bytes).unwrap();
    println!("4 shards  : {sharded}");
    assert_eq!(sharded.report.flows, batch.flows);
    assert_eq!(sharded.report.packets, batch.packets);

    // The engine consumes any fallible packet iterator — here, a TSH
    // image re-read incrementally through the streaming reader, exactly
    // how a file larger than RAM would flow in.
    let tsh_image = flowzip::trace::tsh::to_bytes(&trace);
    let (_, from_reader) = engine
        .compress_stream_to_bytes(TshReader::new(&tsh_image[..]))
        .unwrap();
    println!("from TSH  : {from_reader}");

    println!(
        "\narchive: {} flows / {} packets -> {} B ({:.2}% of TSH)",
        archive.flow_count(),
        archive.packet_count(),
        bytes.len(),
        100.0 * sharded.report.ratio_vs_tsh
    );
}
