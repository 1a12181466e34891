//! Property tests: the sharded streaming engine agrees with the batch
//! `Compressor` oracle.
//!
//! The engine writes one thing, a container-v2 archive; every check
//! here decodes those bytes with `CompressedTrace::from_bytes` and holds
//! the result against the oracle. Guarantees pinned here, per the
//! engine's design contract:
//!
//! * **Exact** on everything per-flow: packets, flows, short/long split,
//!   unique addresses, TSH size baseline — sharding only re-partitions
//!   flows, it never changes what a flow is.
//! * **Byte-identical** with one shard and no eviction: the single worker
//!   sees the identical flow-completion order the batch pass does, so the
//!   engine's bytes are the oracle's v2 serialization and decode to the
//!   oracle's archive.
//! * **Tolerance-bounded** on clustering with many shards: greedy cluster
//!   centers depend on offer order, so shard-local clustering plus an
//!   Eq. 4 re-clustering merge may split what one global greedy pass
//!   joined. Empirically the drift is small; we bound clusters to
//!   ±max(4, 25%) of batch and total size to ±25%, and keep the
//!   `matched = short − clusters` accounting identity exact.
//! * **Container-independent** at every shard × eviction cell: the
//!   decoded archive survives the oracle's v1 writer unchanged, and the
//!   streaming §4 merge expands it exactly like the expand-then-sort
//!   oracle.

use flowzip_core::{
    ArchiveFormat, ArchiveReader, CompressedTrace, Compressor, Decompressor, Params,
};
use flowzip_engine::{EngineReport, StreamingEngine};
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
fn stream(trace: &Trace) -> impl Iterator<Item = Result<PacketRecord, TraceError>> + '_ {
    trace.iter().cloned().map(Ok)
}

/// One engine run: the archive bytes, their decode, and the report.
fn compress(
    trace: &Trace,
    shards: usize,
    batch_size: usize,
    idle_secs: Option<u64>,
) -> (Vec<u8>, CompressedTrace, EngineReport) {
    let engine = StreamingEngine::builder()
        .shards(shards)
        .batch_size(batch_size)
        .idle_timeout(idle_secs.map(Duration::from_secs))
        .build();
    let (bytes, report) = engine.compress_stream_to_bytes(stream(trace)).unwrap();
    let archive = CompressedTrace::from_bytes(&bytes).unwrap();
    (bytes, archive, report)
}

/// Exact-equality and tolerance checks between one engine run and batch.
fn assert_equivalent(trace: &Trace, shards: usize) -> Result<(), TestCaseError> {
    let (_, batch) = Compressor::new(Params::paper()).compress(trace);
    let (_, archive, streamed) = compress(trace, shards, 128, None);
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
    // Sizes compare in the oracle's container: the decoded archive
    // re-encoded as v1 against the batch archive's v1 size.
    let size = archive.to_bytes().len() as u64;
    let size_tol = (batch.sizes.total() / 4).max(64);
    prop_assert!(
        size.abs_diff(batch.sizes.total()) <= size_tol,
        "size {} vs batch {} (tolerance {})",
        size,
        batch.sizes.total(),
        size_tol
    );

    // The decoded archive holds what the report says it does.
    prop_assert_eq!(archive.packet_count(), batch.packets);
    prop_assert_eq!(archive.flow_count() as u64, batch.flows);
    prop_assert_eq!(archive.short_templates.len() as u64, r.clusters);
    prop_assert_eq!(archive.addresses.len() as u64, batch.addresses);
    Ok(())
}

/// Decompression of an engine archive is *packet-identical* through
/// either container: the decoded v2 archive re-written by the oracle's
/// v1 writer reconstructs the same global archive, so the §4 synthesis
/// (one RNG walked in time-seq order) produces the same trace byte for
/// byte. With one shard and no eviction the archive *is* the oracle's.
fn assert_v2_packet_identical(
    trace: &Trace,
    shards: usize,
    idle_secs: Option<u64>,
) -> Result<(), TestCaseError> {
    let (v2_bytes, from_v2, v2_report) = compress(trace, shards, 128, idle_secs);
    prop_assert_eq!(ArchiveFormat::detect(&v2_bytes).unwrap(), ArchiveFormat::V2);
    prop_assert_eq!(v2_report.sections, shards);
    prop_assert_eq!(v2_report.archive_bytes, v2_bytes.len() as u64);
    prop_assert_eq!(from_v2.packet_count(), trace.len() as u64);

    // The reconstructed archives agree exactly...
    let from_v1 = CompressedTrace::from_bytes(&from_v2.to_bytes()).unwrap();
    prop_assert_eq!(&from_v1, &from_v2);

    let (oracle, batch) = Compressor::new(Params::paper()).compress(trace);
    if idle_secs.is_none() {
        prop_assert_eq!(from_v2.flow_count() as u64, batch.flows);
        if shards == 1 {
            prop_assert_eq!(
                &from_v2,
                &CompressedTrace::from_bytes(&oracle.to_bytes()).unwrap()
            );
        }
    }

    // ...and so do the synthesized traces.
    let dec = Decompressor::default();
    let restored = dec.decompress(&from_v1);
    prop_assert_eq!(&restored, &dec.decompress(&from_v2));

    // The streaming merge — what sessions actually write — is the
    // expand-then-sort oracle packet for packet on engine archives too.
    let reader = ArchiveReader::open(&v2_bytes).unwrap();
    let merged: Vec<PacketRecord> = dec.packets(reader.records(|_| true).unwrap()).collect();
    prop_assert_eq!(&merged[..], restored.packets());
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
        let (bytes, archive, streamed) = compress(&trace, 1, 64, None);
        let (batch_bytes, batch_sizes) = batch_archive.encode_v2();
        prop_assert_eq!(&bytes, &batch_bytes);
        prop_assert_eq!(
            &archive,
            &CompressedTrace::from_bytes(&batch_archive.to_bytes()).unwrap()
        );
        prop_assert_eq!(streamed.report.clusters, batch.clusters);
        prop_assert_eq!(streamed.report.matched_flows, batch.matched_flows);
        prop_assert_eq!(streamed.report.sizes, batch_sizes);
        // A single shard sees the same concurrency the batch pass did.
        prop_assert_eq!(streamed.peak_active_flows(), batch.peak_active_flows);
    }
}
