//! Bounded-memory liveness under sustained overload: a source that
//! produces far faster than the engine can compress must finish the
//! session with flat memory — the bounded queue refuses what it cannot
//! hold, the drop counter owns the difference, and the accounting
//! identity `produced == compressed + dropped` closes exactly.

use flowzip_pipeline::Pipeline;
use flowzip_serve::{OverloadPolicy, PipelineServe, ServeSource};
use flowzip_trace::prelude::*;
use flowzip_trace::TraceError;
use std::time::Duration;

fn firehose(n: u64) -> impl Iterator<Item = Result<PacketRecord, TraceError>> + Send {
    (0..n).map(|k| {
        Ok(PacketRecord::builder()
            .src(
                Ipv4Addr::new(10, (k >> 14) as u8, (k >> 6) as u8, k as u8),
                2000,
            )
            .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
            .timestamp(Timestamp::from_micros(k * 10))
            .payload_len(512)
            .flags(TcpFlags::ACK)
            .build())
    })
}

#[test]
fn sustained_overload_drops_and_counts_instead_of_buffering() {
    let dir = std::env::temp_dir().join(format!("flowzip-serve-ovl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const PRODUCED: u64 = 60_000;
    // A one-batch queue (of the fixed 1024-packet ingest batch) and a
    // driver that naps after every rotation, two per batch: the in-memory
    // firehose outruns the consumer by construction, so drops are
    // guaranteed, and peak buffering is one queue batch + one carry.
    let handle = Pipeline::serve()
        .source(ServeSource::packets(firehose(PRODUCED)))
        .out_dir(&dir)
        .rotate_packets(512)
        .threads(1)
        .queue_batches(1)
        .overload(OverloadPolicy::Drop)
        .on_window(|_| std::thread::sleep(Duration::from_millis(20)))
        .start()
        .unwrap();
    let report = handle.wait().unwrap();

    assert_eq!(report.produced_packets, PRODUCED, "source fully drained");
    assert!(
        report.dropped_packets > 0,
        "a 1-batch queue against an in-memory firehose must shed load"
    );
    assert_eq!(
        report.produced_packets,
        report.compressed_packets + report.dropped_packets,
        "every produced packet is either archived or counted as dropped"
    );
    // What was stored is really stored: manifest totals match the report.
    let entries = flowzip_serve::read_manifest(&dir).unwrap();
    let stored: u64 = entries.iter().map(|e| e.packets).sum();
    let dropped: u64 = entries.iter().map(|e| e.dropped_packets).sum();
    assert_eq!(stored, report.compressed_packets);
    assert_eq!(dropped, report.dropped_packets);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_session_survives_and_stays_queryable() {
    // Same shape, but end-to-end: the rotated archives a shedding
    // session leaves behind are still independently decodable.
    let dir = std::env::temp_dir().join(format!("flowzip-serve-ovq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let handle = Pipeline::serve()
        .source(ServeSource::packets(firehose(20_000)))
        .out_dir(&dir)
        .rotate_packets(1_000)
        .threads(1)
        .queue_batches(1)
        .overload(OverloadPolicy::Drop)
        .on_window(|_| std::thread::sleep(Duration::from_millis(10)))
        .start()
        .unwrap();
    let report = handle.wait().unwrap();

    assert!(!report.windows.is_empty());
    for w in &report.windows {
        let Some(path) = w.archive.as_ref() else {
            continue;
        };
        let bytes = std::fs::read(path).unwrap();
        let ct = flowzip_core::CompressedTrace::from_bytes(&bytes).unwrap();
        ct.validate().unwrap();
        assert_eq!(ct.packet_count(), w.packets);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_drop_queue_absorbs_a_stalled_driver() {
    // A 100-batch burst while the driver stalls 100 ms after its first
    // window: the default `Drop` queue holds the whole burst, so a
    // driver that falls behind for a moment loses nothing.
    let dir = std::env::temp_dir().join(format!("flowzip-serve-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const PRODUCED: u64 = 100 * 1024;
    let mut stalled = false;
    let handle = Pipeline::serve()
        .source(ServeSource::packets(firehose(PRODUCED)))
        .out_dir(&dir)
        .rotate_packets(1024)
        .overload(OverloadPolicy::Drop)
        .on_window(move |_| {
            if !stalled {
                stalled = true;
                std::thread::sleep(Duration::from_millis(100));
            }
        })
        .start()
        .unwrap();
    let report = handle.wait().unwrap();

    assert_eq!(report.produced_packets, PRODUCED, "source fully drained");
    assert_eq!(
        report.dropped_packets, 0,
        "the default queue absorbs the stall"
    );
    assert_eq!(report.compressed_packets, PRODUCED, "every packet archived");
    let _ = std::fs::remove_dir_all(&dir);
}
