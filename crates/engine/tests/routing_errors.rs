//! Error-path equivalence for the router: a truncated or corrupt capture
//! must abort the run with the *same first error* at every shard count.
//! The router pulls the input on one thread and stops at the first
//! error, so the error a multi-shard run reports is the one the inline
//! single-shard (fully serial) run reports.

use flowzip_engine::StreamingEngine;
use flowzip_io::{InputSource, MultiFileConfig, MultiFileSource};
use flowzip_trace::prelude::*;
use flowzip_trace::{tsh, TraceError, TshReader};

fn sample_trace(packets: u64) -> Trace {
    let mut t = Trace::new();
    for i in 0..packets {
        t.push(
            PacketRecord::builder()
                .timestamp(Timestamp::from_micros(i * 100))
                .src(
                    Ipv4Addr::new(10, 0, 0, (i % 200 + 1) as u8),
                    2000 + i as u16,
                )
                .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                .flags(if i % 5 == 0 {
                    TcpFlags::SYN
                } else {
                    TcpFlags::ACK
                })
                .build(),
        );
    }
    t
}

fn engine(shards: usize, batch_size: usize) -> StreamingEngine {
    StreamingEngine::builder()
        .shards(shards)
        .batch_size(batch_size)
        .channel_capacity(2)
        .build()
}

/// A TSH stream cut inside the 8th record: every shard count surfaces
/// the identical `TruncatedRecord` — the packets decoded before the cut
/// are absorbed and discarded, the error aborts the run.
#[test]
fn truncated_tsh_mid_batch_propagates_the_same_error() {
    let bytes = tsh::to_bytes(&sample_trace(64));
    let cut = 7 * tsh::RECORD_BYTES + 13;
    // batch_size 4: the cut lands mid-way through the second batch, so
    // a full batch is already downstream when the error is pulled.
    for shards in [1usize, 2, 3] {
        let err = engine(shards, 4)
            .compress_stream_to_bytes(TshReader::new(&bytes[..cut]))
            .unwrap_err();
        assert!(
            matches!(err, TraceError::TruncatedRecord { got: 13, need: 44 }),
            "{shards} shards: got {err:?}"
        );
    }
}

/// An error injected at every position of a small stream: every shard
/// count reports the error the single-shard serial run reports, whatever
/// batch boundary it lands on (first item of a batch, mid-batch, final
/// partial batch).
#[test]
fn injected_error_at_every_position_matches_serial() {
    let trace = sample_trace(13);
    let packets: Vec<_> = trace.iter().cloned().collect();
    for position in 0..=packets.len() {
        let make_input = || {
            let mut items: Vec<Result<PacketRecord, TraceError>> =
                packets.iter().cloned().map(Ok).collect();
            items.insert(
                position,
                Err(TraceError::TruncatedRecord {
                    got: position,
                    need: 44,
                }),
            );
            items
        };
        let serial_err = engine(1, 4)
            .compress_stream_to_bytes(make_input())
            .unwrap_err();
        for shards in [1usize, 2, 3] {
            let err = engine(shards, 4)
                .compress_stream_to_bytes(make_input())
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                serial_err.to_string(),
                "position {position}, {shards} shards"
            );
            assert!(
                matches!(
                    err,
                    TraceError::TruncatedRecord { got, need: 44 } if got == position
                ),
                "position {position}: got {err:?}"
            );
        }
    }
}

/// The multi-file path: the second of three chunk files is truncated.
/// Every shard and reader count surfaces the same first error.
#[test]
fn truncated_multifile_chunk_propagates_the_same_error() {
    let trace = sample_trace(60);
    let packets: Vec<_> = trace.iter().cloned().collect();
    let dir = std::env::temp_dir().join(format!("fz-routeerr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<_> = (0..3)
        .map(|i| {
            let path = dir.join(format!("chunk-{i}.tsh"));
            let chunk = Trace::from_packets(packets[i * 20..(i + 1) * 20].to_vec());
            let mut bytes = tsh::to_bytes(&chunk);
            if i == 1 {
                // Cut inside chunk 1's 6th record.
                bytes.truncate(5 * tsh::RECORD_BYTES + 7);
            }
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect();

    let mut seen = Vec::new();
    for shards in [1usize, 2, 3] {
        for readers in [1usize, 2, 4] {
            let source = MultiFileSource::open(
                &paths,
                MultiFileConfig {
                    readers,
                    batch_packets: 8,
                    queue_batches: 2,
                    prefetch: None,
                },
            )
            .unwrap();
            let err = engine(shards, 8)
                .compress_stream_to_bytes(source.into_packets())
                .unwrap_err();
            assert!(
                matches!(err, TraceError::TruncatedRecord { got: 7, need: 44 }),
                "{shards} shards × {readers} readers: got {err:?}"
            );
            seen.push(err.to_string());
        }
    }
    assert!(
        seen.windows(2).all(|w| w[0] == w[1]),
        "error text diverged across shard/reader counts: {seen:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A leading error (very first pull fails) must not wedge the shards:
/// their channels open and close without a single delivery.
#[test]
fn leading_error_aborts_cleanly() {
    for shards in [1usize, 4] {
        let input = vec![Err::<PacketRecord, _>(TraceError::InvalidTrace(
            "bad magic".into(),
        ))];
        let err = engine(shards, 8)
            .compress_stream_to_bytes(input)
            .unwrap_err();
        assert!(
            matches!(&err, TraceError::InvalidTrace(m) if m == "bad magic"),
            "{shards} shards: got {err:?}"
        );
    }
}
