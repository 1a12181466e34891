//! Property tests: parallel reader-side routing is **byte-identical** to
//! the serial router — the contract that let the single-router ceiling
//! be removed without a compatibility knob.
//!
//! Guarantees pinned here:
//!
//! * `routing=parallel` produces the same archive bytes as
//!   `routing=serial` for every combination of routing workers, shard
//!   count, batch size, channel capacity, idle eviction and container
//!   format — determinism is structural (sequence-ticket delivery +
//!   shard-side re-chunking), so this holds for *any* OS schedule, and
//!   the proptest battery hammers the schedule space.
//! * A batch-granular source ([`BatchRead`]) compresses identically to
//!   the equivalent flat packet stream, whatever its batch boundaries —
//!   boundaries carry no meaning.
//! * The multi-file reader path (`compress_batches_to_bytes` over a
//!   [`MultiFileSource`]) agrees byte-for-byte across routing modes.
//! * With one shard and no eviction, parallel routing remains
//!   byte-identical to the batch `Compressor` — the anchor the serial
//!   router always had.

use flowzip_core::{ArchiveFormat, Compressor, Params};
use flowzip_engine::{Routing, StreamingEngine};
use flowzip_io::{InputSource, MultiFileConfig, MultiFileSource};
use flowzip_trace::{tsh, Duration, Trace};
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

/// One engine run to archive bytes with every knob explicit.
#[allow(clippy::too_many_arguments)]
fn compress_with(
    trace: &Trace,
    routing: Routing,
    routers: usize,
    shards: usize,
    batch_size: usize,
    channel_capacity: usize,
    idle_secs: Option<u64>,
    format: ArchiveFormat,
) -> Vec<u8> {
    let engine = StreamingEngine::builder()
        .routing(routing)
        .routers(routers)
        .shards(shards)
        .batch_size(batch_size)
        .channel_capacity(channel_capacity)
        .idle_timeout(idle_secs.map(Duration::from_secs))
        .format(format)
        .build();
    let (bytes, report) = engine
        .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
        .unwrap();
    assert_eq!(report.report.packets, trace.len() as u64);
    assert_eq!(report.routing, routing);
    bytes
}

/// The core assertion: parallel ≡ serial, byte for byte.
#[allow(clippy::too_many_arguments)]
fn assert_routing_equivalent(
    trace: &Trace,
    routers: usize,
    shards: usize,
    batch_size: usize,
    channel_capacity: usize,
    idle_secs: Option<u64>,
    format: ArchiveFormat,
) -> Result<(), TestCaseError> {
    let serial = compress_with(
        trace,
        Routing::Serial,
        1,
        shards,
        batch_size,
        channel_capacity,
        idle_secs,
        format,
    );
    let parallel = compress_with(
        trace,
        Routing::Parallel,
        routers,
        shards,
        batch_size,
        channel_capacity,
        idle_secs,
        format,
    );
    prop_assert_eq!(
        &serial,
        &parallel,
        "routers {} shards {} batch {} cap {} idle {:?} {:?}: {} vs {} bytes differ",
        routers,
        shards,
        batch_size,
        channel_capacity,
        idle_secs,
        format,
        serial.len(),
        parallel.len()
    );
    Ok(())
}

/// The acceptance pin from the issue: routing workers {1, 2, 4} ×
/// shards {1, 2, 8} × eviction on/off × container v1/v2, on a fixed
/// trace — every cell byte-identical to the serial router.
#[test]
fn parallel_matches_serial_for_pinned_matrix() {
    let trace = web_trace(300, 2005);
    for routers in [1usize, 2, 4] {
        for shards in [1usize, 2, 8] {
            for idle_secs in [None, Some(1u64)] {
                for format in [ArchiveFormat::V1, ArchiveFormat::V2] {
                    assert_routing_equivalent(&trace, routers, shards, 128, 4, idle_secs, format)
                        .unwrap_or_else(|e| {
                            panic!("routers {routers}, shards {shards}, idle {idle_secs:?}, {format:?}: {e}")
                        });
                }
            }
        }
    }
}

/// With one shard and no eviction the parallel default keeps the
/// engine's oldest anchor: byte-identical to the batch compressor.
#[test]
fn parallel_single_shard_is_byte_identical_to_batch() {
    let trace = web_trace(200, 77);
    let (batch_archive, _) = Compressor::new(Params::paper()).compress(&trace);
    for routers in [1usize, 4] {
        let v1 = compress_with(
            &trace,
            Routing::Parallel,
            routers,
            1,
            64,
            4,
            None,
            ArchiveFormat::V1,
        );
        assert_eq!(v1, batch_archive.to_bytes(), "{routers} routers, v1");
        let v2 = compress_with(
            &trace,
            Routing::Parallel,
            routers,
            1,
            64,
            4,
            None,
            ArchiveFormat::V2,
        );
        assert_eq!(v2, batch_archive.to_bytes_v2(), "{routers} routers, v2");
    }
}

/// The multi-file reader path: a capture pre-split into ragged chunks,
/// drained through `compress_batches_to_bytes`, agrees byte-for-byte
/// across routing modes *and* with the single-stream serial run — the
/// batch hand-off introduces no boundary effects.
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

    let reference = compress_with(
        &trace,
        Routing::Serial,
        1,
        4,
        96,
        4,
        Some(2),
        ArchiveFormat::V2,
    );
    for routing in [Routing::Serial, Routing::Parallel] {
        for readers in [1usize, 2, 3] {
            let engine = StreamingEngine::builder()
                .routing(routing)
                .routers(readers)
                .shards(4)
                .batch_size(96)
                .channel_capacity(4)
                .idle_timeout(Some(Duration::from_secs(2)))
                .build();
            let source = MultiFileSource::open(
                &paths,
                MultiFileConfig {
                    readers,
                    // Reader batches ≠ engine batch_size on purpose: the
                    // BatchRead contract says boundaries carry no meaning.
                    batch_packets: 37,
                    queue_batches: 2,
                    prefetch: None,
                },
            )
            .unwrap();
            let (bytes, _) = engine
                .compress_batches_to_bytes(source.into_packets())
                .unwrap();
            assert_eq!(
                bytes, reference,
                "{routing} routing, {readers} readers diverged from the single-stream run"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Random traffic × random topology: parallel ≡ serial bytes. The
    /// proptest battery is the schedule-space hammer — every case spawns
    /// a fresh thread pool, so ticket ordering is exercised under
    /// genuinely different interleavings.
    #[test]
    fn parallel_matches_serial_on_web_traffic(
        flows in 20usize..100,
        seed in 0u64..1_000,
        routers in 1usize..5,
        shards in 1usize..9,
        batch_size in 1usize..200,
        channel_capacity in 1usize..5,
        idle_secs in 0u64..30,
        v2 in any::<bool>(),
    ) {
        assert_routing_equivalent(
            &web_trace(flows, seed),
            routers,
            shards,
            batch_size,
            channel_capacity,
            (idle_secs > 0).then_some(idle_secs),
            if v2 { ArchiveFormat::V2 } else { ArchiveFormat::V1 },
        )?;
    }

    /// P2P traffic skews the flow-key distribution (many peers, few
    /// ports) — shard load is unbalanced, which stresses back-pressure
    /// on the hot shard channel.
    #[test]
    fn parallel_matches_serial_on_p2p_traffic(
        flows in 10usize..40,
        seed in 0u64..1_000,
        routers in 1usize..5,
        shards in 2usize..9,
    ) {
        assert_routing_equivalent(
            &p2p_trace(flows, seed),
            routers,
            shards,
            64,
            2,
            None,
            ArchiveFormat::V2,
        )?;
    }

    /// The report's routing fields describe the run faithfully.
    #[test]
    fn report_records_the_routing_topology(
        routers in 1usize..5,
        shards in 2usize..5,
        serial in any::<bool>(),
    ) {
        let routing = if serial { Routing::Serial } else { Routing::Parallel };
        let engine = StreamingEngine::builder()
            .routing(routing)
            .routers(routers)
            .shards(shards)
            .batch_size(64)
            .build();
        let trace = web_trace(30, 7);
        let (_, report) = engine
            .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
            .unwrap();
        prop_assert_eq!(report.routing, routing);
        prop_assert_eq!(
            report.routers,
            if serial { 1 } else { routers },
            "serial routing always reports one router"
        );
        let text = report.to_string();
        let needle = format!("({routing} routing × {})", report.routers);
        prop_assert!(text.contains(&needle), "missing {} in {}", needle, text);
    }
}
