//! Property tests: the sharded streaming engine agrees with the batch
//! `Compressor`.
//!
//! Guarantees pinned here, per the engine's design contract:
//!
//! * **Exact** on everything per-flow: packets, flows, short/long split,
//!   unique addresses, TSH size baseline — sharding only re-partitions
//!   flows, it never changes what a flow is.
//! * **Byte-identical** with one shard and no eviction: the single worker
//!   sees the identical flow-completion order the batch pass does.
//! * **Tolerance-bounded** on clustering with many shards: greedy cluster
//!   centers depend on offer order, so shard-local clustering plus an
//!   Eq. 4 re-clustering merge may split what one global greedy pass
//!   joined. Empirically the drift is small; we bound clusters to
//!   ±max(4, 25%) of batch and total size to ±25%, and keep the
//!   `matched = short − clusters` accounting identity exact.

use flowzip_core::{ArchiveFormat, CompressedTrace, Compressor, Decompressor, Params};
use flowzip_engine::StreamingEngine;
use flowzip_trace::{Duration, PacketRecord, Trace, TraceError};
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

/// An in-memory trace as the fallible packet stream the engine consumes.
fn stream(trace: &Trace) -> impl Iterator<Item = Result<PacketRecord, TraceError>> + Send + '_ {
    trace.iter().cloned().map(Ok)
}

/// Exact-equality and tolerance checks between one engine run and batch.
fn assert_equivalent(trace: &Trace, shards: usize) -> Result<(), TestCaseError> {
    let (_, batch) = Compressor::new(Params::paper()).compress(trace);
    let engine = StreamingEngine::builder()
        .shards(shards)
        .batch_size(128)
        .build();
    let (archive, streamed) = engine.compress_stream(stream(trace)).unwrap();
    let r = &streamed.report;

    prop_assert_eq!(r.packets, batch.packets);
    prop_assert_eq!(r.flows, batch.flows);
    prop_assert_eq!(r.short_flows, batch.short_flows);
    prop_assert_eq!(r.long_flows, batch.long_flows);
    prop_assert_eq!(r.addresses, batch.addresses);
    prop_assert_eq!(r.tsh_bytes, batch.tsh_bytes);

    // Accounting identity survives the merge.
    prop_assert_eq!(r.matched_flows + r.clusters, r.short_flows);

    // Clustering drift stays within the documented tolerance.
    let cluster_tol = (batch.clusters / 4).max(4);
    prop_assert!(
        r.clusters.abs_diff(batch.clusters) <= cluster_tol,
        "clusters {} vs batch {} (tolerance {})",
        r.clusters,
        batch.clusters,
        cluster_tol
    );
    let size_tol = (batch.sizes.total() / 4).max(64);
    prop_assert!(
        r.sizes.total().abs_diff(batch.sizes.total()) <= size_tol,
        "size {} vs batch {} (tolerance {})",
        r.sizes.total(),
        batch.sizes.total(),
        size_tol
    );

    // The merged archive is structurally valid and decodes.
    archive.validate().unwrap();
    let decoded = flowzip_core::CompressedTrace::from_bytes(&archive.to_bytes()).unwrap();
    prop_assert_eq!(decoded.packet_count(), batch.packets);
    Ok(())
}

/// Container-v2 output must be *packet-identical* to v1 after
/// decompression: same shard states serialized through either container
/// reconstruct the same global archive, so the §4 synthesis (one RNG
/// walked in time-seq order) produces the same trace byte for byte.
fn assert_v2_packet_identical(
    trace: &Trace,
    shards: usize,
    idle_secs: Option<u64>,
) -> Result<(), TestCaseError> {
    let build = |format: ArchiveFormat| {
        StreamingEngine::builder()
            .shards(shards)
            .batch_size(128)
            .idle_timeout(idle_secs.map(Duration::from_secs))
            .format(format)
            .build()
    };
    let (v1_bytes, _) = build(ArchiveFormat::V1)
        .compress_stream_to_bytes(stream(trace))
        .unwrap();
    let (v2_bytes, v2_report) = build(ArchiveFormat::V2)
        .compress_stream_to_bytes(stream(trace))
        .unwrap();
    prop_assert_eq!(ArchiveFormat::detect(&v2_bytes).unwrap(), ArchiveFormat::V2);
    prop_assert_eq!(v2_report.sections, shards);

    // The reconstructed archives agree exactly...
    let from_v1 = CompressedTrace::from_bytes(&v1_bytes).unwrap();
    let from_v2 = CompressedTrace::from_bytes(&v2_bytes).unwrap();
    prop_assert_eq!(&from_v1, &from_v2);

    // ...and so do the synthesized traces.
    let dec = Decompressor::default();
    let restored_v1 = dec.decompress(&from_v1);
    let restored_v2 = dec.decompress(&from_v2);
    prop_assert_eq!(&restored_v1, &restored_v2);

    // The streaming merge — what sessions actually write — is the
    // expand-then-sort oracle packet for packet on engine archives too.
    let merged: Vec<PacketRecord> = dec.packets(&from_v2).collect();
    prop_assert_eq!(&merged[..], restored_v2.packets());
    Ok(())
}

/// The acceptance pin: shard counts 1, 2 and 8, with and without idle
/// eviction, on a fixed trace.
#[test]
fn v2_is_packet_identical_to_v1_for_pinned_shard_counts() {
    let trace = web_trace(300, 2005);
    for shards in [1usize, 2, 8] {
        for idle_secs in [None, Some(1u64)] {
            assert_v2_packet_identical(&trace, shards, idle_secs)
                .unwrap_or_else(|e| panic!("shards {shards}, idle {idle_secs:?}: {e}"));
        }
    }
}

proptest! {
    #[test]
    fn v2_matches_v1_across_shards_and_eviction(
        flows in 20usize..100,
        seed in 0u64..1_000,
        shards in 1usize..9,
        idle_secs in 0u64..30,
    ) {
        // idle_secs == 0 → eviction disabled, like the CLI flag.
        assert_v2_packet_identical(
            &web_trace(flows, seed),
            shards,
            (idle_secs > 0).then_some(idle_secs),
        )?;
    }

    #[test]
    fn web_traffic_matches_batch(
        flows in 30usize..120,
        seed in 0u64..1_000,
        shards in 1usize..5,
    ) {
        assert_equivalent(&web_trace(flows, seed), shards)?;
    }

    #[test]
    fn p2p_traffic_matches_batch(
        flows in 10usize..40,
        seed in 0u64..1_000,
        shards in 1usize..5,
    ) {
        assert_equivalent(&p2p_trace(flows, seed), shards)?;
    }

    #[test]
    fn single_shard_is_byte_identical_to_batch(
        flows in 20usize..80,
        seed in 0u64..1_000,
    ) {
        let trace = web_trace(flows, seed);
        let (batch_archive, batch) = Compressor::new(Params::paper()).compress(&trace);
        let engine = StreamingEngine::builder().shards(1).batch_size(64).build();
        let (archive, streamed) = engine.compress_stream(stream(&trace)).unwrap();
        prop_assert_eq!(archive.to_bytes(), batch_archive.to_bytes());
        prop_assert_eq!(streamed.report.clusters, batch.clusters);
        prop_assert_eq!(streamed.report.matched_flows, batch.matched_flows);
        prop_assert_eq!(streamed.report.sizes, batch.sizes);
        // A single shard sees the same concurrency the batch pass did.
        prop_assert_eq!(streamed.peak_active_flows(), batch.peak_active_flows);
    }
}
