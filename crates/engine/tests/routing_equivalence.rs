//! Property tests: the router's batching is **invisible** in the
//! archive bytes.
//!
//! One router hands each shard its packets in stream order, in
//! `batch_size` blocks over `channel_capacity`-slot channels. Those two
//! knobs trade latency against hand-off overhead and must never show up
//! in the output. With idle eviction off nothing keys off batch
//! boundaries (eviction scans run at batch ends), so every
//! `batch_size` × `channel_capacity` cell must produce the same bytes.
//!
//! Guarantees pinned here:
//!
//! * At shards {2, 3, 8} over the web and p2p generators, archive bytes do not depend on `batch_size` ×
//!   `channel_capacity` — whatever the OS schedule of the shard threads,
//!   which every proptest case re-rolls with a fresh pool.
//! * The multi-file readers (the sequential [`FileSource`] set and a
//!   [`MultiFileSource`], drained as packet iterators) compress
//!   byte-for-byte like the flat stream of the same capture — file and
//!   reader-batch boundaries carry no meaning.
//! * With one shard and no eviction the engine is byte-identical to the
//!   batch `Compressor`.

use flowzip_core::{Compressor, Params};
use flowzip_engine::StreamingEngine;
use flowzip_io::{FileSource, InputSource, MultiFileConfig, MultiFileSource};
use flowzip_trace::{tsh, Trace};
use flowzip_traffic::p2p::{P2pTrafficConfig, P2pTrafficGenerator};
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use proptest::prelude::*;

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

fn p2p_trace(flows: usize, seed: u64) -> Trace {
    P2pTrafficGenerator::new(
        P2pTrafficConfig {
            flows,
            duration_secs: 20.0,
            ..P2pTrafficConfig::default()
        },
        seed,
    )
    .generate()
}

/// One engine run to archive bytes with every batching knob explicit
/// and idle eviction off.
fn compress_with(
    trace: &Trace,
    shards: usize,
    batch_size: usize,
    channel_capacity: usize,
) -> Vec<u8> {
    let engine = StreamingEngine::builder()
        .shards(shards)
        .batch_size(batch_size)
        .channel_capacity(channel_capacity)
        .build();
    let (bytes, report) = engine
        .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
        .unwrap();
    assert_eq!(report.report.packets, trace.len() as u64);
    assert_eq!(report.shards, shards);
    bytes
}

/// The core assertion: a batching cell's bytes equal the reference
/// cell's (1024-packet batches, 4-slot channels — the defaults).
fn assert_batching_invisible(
    trace: &Trace,
    shards: usize,
    batch_size: usize,
    channel_capacity: usize,
) -> Result<(), TestCaseError> {
    let reference = compress_with(trace, shards, 1024, 4);
    let cell = compress_with(trace, shards, batch_size, channel_capacity);
    prop_assert_eq!(
        &reference,
        &cell,
        "shards {} batch {} cap {}: {} vs {} bytes differ",
        shards,
        batch_size,
        channel_capacity,
        reference.len(),
        cell.len()
    );
    Ok(())
}

/// The pinned matrix: shards {2, 3, 8} × batch {1, 7, 128} × capacity
/// {1, 4}, on a fixed trace.
#[test]
fn batching_is_invisible_for_pinned_matrix() {
    let trace = web_trace(300, 2005);
    for shards in [2usize, 3, 8] {
        for batch_size in [1usize, 7, 128] {
            for channel_capacity in [1usize, 4] {
                assert_batching_invisible(&trace, shards, batch_size, channel_capacity)
                    .unwrap_or_else(|e| {
                        panic!("shards {shards}, batch {batch_size}, cap {channel_capacity}: {e}")
                    });
            }
        }
    }
}

/// With one shard and no eviction the engine keeps its oldest anchor:
/// byte-identical to the batch compressor, at any batch size.
#[test]
fn single_shard_is_byte_identical_to_batch() {
    let trace = web_trace(200, 77);
    let (batch_archive, _) = Compressor::new(Params::paper()).compress(&trace);
    for batch_size in [1usize, 64, 4096] {
        let bytes = compress_with(&trace, 1, batch_size, 4);
        assert_eq!(bytes, batch_archive.to_bytes_v2(), "batch {batch_size}");
    }
}

/// The multi-file readers: a capture pre-split into ragged chunks,
/// drained through the sequential set reader (reader count 0) or the
/// multi-file source, agrees byte-for-byte with the flat stream of the
/// same packets — across routings (2, 3 and 8 shards) and reader
/// counts, with reader batches that never line up with engine batches.
#[test]
fn multifile_batches_match_single_stream_across_routings() {
    let trace = web_trace(250, 4242);
    let dir = std::env::temp_dir().join(format!("fz-routeq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Deliberately ragged splits so file boundaries never line up with
    // engine batch boundaries.
    let packets: Vec<_> = trace.iter().cloned().collect();
    let cuts = [0, packets.len() / 5, packets.len() / 2, packets.len()];
    let mut paths = Vec::new();
    for (i, w) in cuts.windows(2).enumerate() {
        let path = dir.join(format!("chunk-{i:02}.tsh"));
        std::fs::write(
            &path,
            tsh::to_bytes(&Trace::from_packets(packets[w[0]..w[1]].to_vec())),
        )
        .unwrap();
        paths.push(path);
    }

    for shards in [2usize, 3, 8] {
        let reference = compress_with(&trace, shards, 96, 4);
        for readers in [0usize, 1, 2, 3] {
            let engine = StreamingEngine::builder()
                .shards(shards)
                .batch_size(96)
                .channel_capacity(4)
                .build();
            let (bytes, _) = if readers == 0 {
                let source = FileSource::open_set(&paths).unwrap();
                engine.compress_stream_to_bytes(source.into_packets())
            } else {
                let source = MultiFileSource::open(
                    &paths,
                    MultiFileConfig {
                        readers,
                        batch_packets: 37,
                        queue_batches: 2,
                    },
                )
                .unwrap();
                engine.compress_stream_to_bytes(source.into_packets())
            }
            .unwrap();
            assert_eq!(
                bytes, reference,
                "{shards} shards, {readers} readers diverged from the flat stream"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Random web traffic × random batching: the bytes equal the
    /// default-batching reference. Every case spawns a fresh shard pool,
    /// so hand-off order is exercised under genuinely different
    /// interleavings.
    #[test]
    fn batching_is_invisible_on_web_traffic(
        flows in 20usize..100,
        seed in 0u64..1_000,
        shards in prop::sample::select(vec![2usize, 3, 8]),
        batch_size in 1usize..200,
        channel_capacity in 1usize..5,
    ) {
        assert_batching_invisible(&web_trace(flows, seed), shards, batch_size, channel_capacity)?;
    }

    /// P2P traffic skews the flow-key distribution (many peers, few
    /// ports) — shard load is unbalanced, which stresses back-pressure
    /// on the hot shard channel.
    #[test]
    fn batching_is_invisible_on_p2p_traffic(
        flows in 10usize..40,
        seed in 0u64..1_000,
        shards in prop::sample::select(vec![2usize, 3, 8]),
        batch_size in 1usize..200,
        channel_capacity in 1usize..5,
    ) {
        assert_batching_invisible(&p2p_trace(flows, seed), shards, batch_size, channel_capacity)?;
    }

    /// The report describes the topology the run used: its shard count,
    /// in the field and in the human line.
    #[test]
    fn report_records_the_routing_topology(shards in 1usize..9) {
        let engine = StreamingEngine::builder()
            .shards(shards)
            .batch_size(64)
            .build();
        let trace = web_trace(30, 7);
        let (_, report) = engine
            .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
            .unwrap();
        prop_assert_eq!(report.shards, shards);
        prop_assert_eq!(report.sections, shards);
        let text = report.to_string();
        let needle = format!("; {shards} shards, ");
        prop_assert!(text.contains(&needle), "missing {} in {}", needle, text);
    }
}
