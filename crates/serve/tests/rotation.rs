//! Rotation-boundary pins: the guarantees a rotation directory makes.
//!
//! * Every rotated archive is a complete, independently decodable v2.2
//!   container — telemetry side-section included when enabled.
//! * A flow straddling a rotation boundary is drained into the closing
//!   window and reopened in the next; both windows carry it honestly.
//! * With eviction-neutral settings (one shard, no idle timeout,
//!   lossless overload) and windows aligned on whole flows,
//!   concatenating the per-window decodes reproduces a one-shot run
//!   exactly.
//! * A wall-clock window that saw no packets is explicitly manifested
//!   (`archive: null`), not silently skipped.

use flowzip_core::{ArchiveReader, CompressedTrace, DecompressParams, Decompressor, Params};
use flowzip_engine::StreamingEngine;
use flowzip_pipeline::Pipeline;
use flowzip_serve::{read_manifest, CloseReason, OverloadPolicy, PipelineServe, ServeSource};
use flowzip_trace::prelude::*;
use std::time::Duration;

/// `flows` sequential whole flows of exactly `per_flow` packets each:
/// flow `i` owns timestamps `[i*10ms, i*10ms + per_flow*100us)` and ends
/// in FIN, so flows never interleave and any multiple of `per_flow` is a
/// whole-flow-aligned rotation boundary.
fn whole_flows(flows: u64, per_flow: u64) -> Vec<PacketRecord> {
    let mut out = Vec::with_capacity((flows * per_flow) as usize);
    for f in 0..flows {
        for k in 0..per_flow {
            out.push(
                PacketRecord::builder()
                    .src(
                        Ipv4Addr::new(10, 0, (f >> 8) as u8, f as u8),
                        2000 + f as u16,
                    )
                    .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                    .timestamp(Timestamp::from_micros(f * 10_000 + k * 100))
                    .payload_len(512)
                    .flags(if k + 1 == per_flow {
                        TcpFlags::FIN
                    } else {
                        TcpFlags::ACK
                    })
                    .build(),
            );
        }
    }
    out
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flowzip-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concatenated_window_decodes_equal_a_one_shot_run() {
    // 4000 packets, 4 windows of 1000: the 1024-packet ingest batches
    // straddle every window boundary.
    let input = whole_flows(400, 10);
    let dir = temp_dir("concat");

    let handle = Pipeline::serve()
        .source(ServeSource::packets(input.clone().into_iter().map(Ok)))
        .out_dir(&dir)
        .rotate_packets(1000)
        .threads(1)
        .overload(OverloadPolicy::Block)
        .start()
        .unwrap();
    let report = handle.wait().unwrap();

    assert_eq!(report.produced_packets, 4000);
    assert_eq!(report.compressed_packets, 4000);
    assert_eq!(report.dropped_packets, 0);
    let stored: Vec<_> = report.windows.iter().filter(|w| w.packets > 0).collect();
    assert_eq!(
        stored.len(),
        4,
        "four aligned windows: {:?}",
        report.windows
    );

    // Decode every window independently and concatenate in order.
    let decomp = Decompressor::new(DecompressParams::default());
    let mut concat = Vec::new();
    for w in &stored {
        let bytes = std::fs::read(w.archive.as_ref().unwrap()).unwrap();
        let ct = CompressedTrace::from_bytes(&bytes).unwrap();
        ct.validate().unwrap();
        assert_eq!(ct.packet_count(), w.packets, "window {} honest", w.index);
        concat.extend(decomp.decompress(&ct).into_packets());
    }

    // One-shot run at the identical eviction-neutral settings.
    let engine = StreamingEngine::builder()
        .params(Params::paper())
        .shards(1)
        .batch_size(64)
        .build();
    let (bytes, _) = engine
        .compress_stream_to_bytes(input.iter().cloned().map(Ok))
        .unwrap();
    let one_shot = decomp.decompress_bytes(&bytes).unwrap().into_packets();

    assert_eq!(concat, one_shot, "window concatenation == one-shot decode");

    // The manifest agrees with the in-memory report.
    let entries = read_manifest(&dir).unwrap();
    assert_eq!(entries.len(), report.windows.len());
    for (e, w) in entries.iter().zip(&report.windows) {
        assert_eq!(e.window, w.index);
        assert_eq!(e.packets, w.packets);
        assert_eq!(e.close_reason(), Some(w.reason));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session with no thread setting runs one shard per window: its
/// archives are byte-identical to `.threads(1)`'s, whatever the host's
/// core count.
#[test]
fn untuned_session_matches_threads_one() {
    let input = whole_flows(300, 10);
    let windows = |tag: &str, threads: Option<usize>| {
        let dir = temp_dir(tag);
        let mut session = Pipeline::serve()
            .source(ServeSource::packets(input.clone().into_iter().map(Ok)))
            .out_dir(&dir)
            .rotate_packets(1000)
            .overload(OverloadPolicy::Block);
        if let Some(t) = threads {
            session = session.threads(t);
        }
        let report = session.start().unwrap().wait().unwrap();
        assert_eq!(report.compressed_packets, 3000);
        let bytes: Vec<Vec<u8>> = report
            .windows
            .iter()
            .filter_map(|w| w.archive.as_ref())
            .map(|path| std::fs::read(path).unwrap())
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    let untuned = windows("untuned", None);
    assert_eq!(untuned.len(), 3);
    assert_eq!(untuned, windows("threads1", Some(1)));
}

#[test]
fn straddling_flow_appears_in_both_windows_with_telemetry() {
    // Flow A spans the whole run; flow B completes inside window 0.
    // rotate_packets = 30 cuts flow A mid-life.
    let mut input = Vec::new();
    for k in 0..50u64 {
        input.push(
            PacketRecord::builder()
                .src(Ipv4Addr::new(10, 0, 0, 1), 2000)
                .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                .timestamp(Timestamp::from_micros(k * 1_000))
                .payload_len(512)
                .seq(k as u32 * 512)
                .flags(TcpFlags::ACK)
                .build(),
        );
    }
    for k in 0..10u64 {
        input.push(
            PacketRecord::builder()
                .src(Ipv4Addr::new(10, 0, 0, 2), 3000)
                .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                .timestamp(Timestamp::from_micros(2_000 + k * 100))
                .payload_len(256)
                .flags(if k == 9 { TcpFlags::FIN } else { TcpFlags::ACK })
                .build(),
        );
    }
    input.sort_by_key(|p| p.timestamp());

    let dir = temp_dir("straddle");
    let handle = Pipeline::serve()
        .source(ServeSource::packets(input.into_iter().map(Ok)))
        .out_dir(&dir)
        .rotate_packets(30)
        .threads(1)
        .telemetry(true)
        .overload(OverloadPolicy::Block)
        .start()
        .unwrap();
    let report = handle.wait().unwrap();

    let stored: Vec<_> = report.windows.iter().filter(|w| w.packets > 0).collect();
    assert_eq!(stored.len(), 2, "30-packet cut yields two windows");
    assert_eq!(stored[0].packets, 30);
    assert_eq!(stored[1].packets, 30);
    // Window 0 holds the straddler's first half plus all of flow B;
    // window 1 reopens the straddler as a fresh flow.
    assert_eq!(stored[0].flows, 2, "straddler (cut) + complete flow B");
    assert_eq!(stored[1].flows, 1, "straddler reopened");

    for w in &stored {
        let bytes = std::fs::read(w.archive.as_ref().unwrap()).unwrap();
        let ct = CompressedTrace::from_bytes(&bytes).unwrap();
        ct.validate().unwrap();
        let reader = ArchiveReader::open(&bytes).unwrap();
        let telem = reader
            .telemetry()
            .unwrap_or_else(|| panic!("window {} missing FZT1 telemetry side-section", w.index));
        assert_eq!(
            telem.flow_count(),
            w.flows,
            "per-flow telemetry covers every flow in window {}",
            w.index
        );
        // And the unified per-window report says the same thing.
        let r = w.report.as_ref().unwrap();
        assert_eq!(r.packets, w.packets);
        let archive = r.archive.as_ref().unwrap();
        assert!(
            archive.telemetry.is_some(),
            "report carries telemetry summary"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_time_window_is_manifested_not_skipped() {
    // The source sleeps past several wall-clock windows before producing
    // anything: the elapsed empty windows must be explicit manifest
    // lines with `archive: null`, never silent gaps.
    let late = whole_flows(2, 5);
    let mut sent = false;
    let source = ServeSource::packets(
        std::iter::from_fn(move || {
            if !sent {
                std::thread::sleep(Duration::from_millis(700));
                sent = true;
            }
            None
        })
        .chain(late.into_iter().map(Ok)),
    );

    let dir = temp_dir("empty");
    let handle = Pipeline::serve()
        .source(source)
        .out_dir(&dir)
        .rotate_every(Duration::from_millis(150))
        .threads(1)
        .overload(OverloadPolicy::Block)
        .start()
        .unwrap();
    let report = handle.wait().unwrap();

    let empty: Vec<_> = report
        .windows
        .iter()
        .filter(|w| w.packets == 0 && w.reason == CloseReason::Time)
        .collect();
    assert!(
        !empty.is_empty(),
        "700ms of silence across 150ms windows must record empty windows: {:?}",
        report.windows
    );
    for w in &empty {
        assert!(w.archive.is_none(), "no archive for an empty window");
    }
    assert_eq!(report.compressed_packets, 10, "late packets still stored");

    let entries = read_manifest(&dir).unwrap();
    let null_lines: Vec<_> = entries.iter().filter(|e| e.archive.is_none()).collect();
    assert_eq!(null_lines.len(), empty.len(), "manifest mirrors the report");
    for e in null_lines {
        assert_eq!(e.close_reason(), Some(CloseReason::Time));
        assert_eq!(e.packets, 0);
    }
    // Window indices stay gapless even across empty windows.
    for (i, e) in entries.iter().enumerate() {
        assert_eq!(e.window, i as u64, "gapless manifest sequence");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_flushes_a_final_valid_archive() {
    // An endless source, paced so that several 1024-packet ingest batches
    // arrive before the stop; stopping the session must still deliver a
    // complete final archive through the drain path.
    let endless = std::iter::successors(Some(0u64), |k| Some(k + 1)).map(|k| {
        if k % 8 == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(PacketRecord::builder()
            .src(Ipv4Addr::new(10, 0, (k >> 8) as u8, k as u8), 2000)
            .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
            .timestamp(Timestamp::from_micros(k * 100))
            .payload_len(512)
            .flags(TcpFlags::ACK)
            .build())
    });

    let dir = temp_dir("shutdown");
    let handle = Pipeline::serve()
        .source(ServeSource::packets(endless))
        .out_dir(&dir)
        .rotate_packets(1_000_000) // far away: the stop is the only cut
        .threads(1)
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let report = handle.shutdown().unwrap();

    assert!(
        report.produced_packets > 0,
        "source was live before the stop"
    );
    let last = report.windows.last().expect("final window recorded");
    assert_eq!(last.reason, CloseReason::Signal);
    assert!(last.packets > 0);
    let bytes = std::fs::read(last.archive.as_ref().unwrap()).unwrap();
    let ct = CompressedTrace::from_bytes(&bytes).unwrap();
    ct.validate().unwrap();
    assert_eq!(ct.packet_count(), last.packets);
    // No `.part` scraps: delivery is write-then-rename.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(
            !name.to_string_lossy().ends_with(".part"),
            "no partial files survive shutdown: {name:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
