//! The overlapped-I/O acceptance pins: feeding the engine through the
//! `flowzip-io` input subsystem must produce archives **byte-identical**
//! to the classic single-threaded reader path.
//!
//! * The sequential set reader ([`FileSource::open_set`]) and
//!   [`MultiFileSource`] at every reader count, over a pre-split trace,
//!   == one `TshReader` over the unsplit trace. Delivery order is the
//!   file order, which for a split trace *is* the single-stream order.
//! * [`PrefetchReader`] beneath the reader == reading the file directly.
//!   Prefetching moves bytes between threads, never changes them.
//!
//! Both hold for v1 and v2 containers and for multi-shard engines — the
//! input subsystem sits entirely upstream of the routing determinism the
//! engine equivalence suite already pins.

use flowzip_engine::StreamingEngine;
use flowzip_io::{FileSource, InputSource, MultiFileConfig, MultiFileSource, PrefetchConfig};
use flowzip_trace::tsh;
use flowzip_trace::{PacketRecord, TraceError};
use flowzip_trace::{Trace, TshReader};
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use proptest::prelude::*;
use std::path::PathBuf;

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

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flowzip-engine-io-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Splits a TSH image into `n_files` chunk files on record boundaries.
fn split_tsh(dir: &std::path::Path, bytes: &[u8], n_files: usize) -> Vec<PathBuf> {
    tsh::split_record_chunks(bytes, n_files)
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| {
            let path = dir.join(format!("chunk-{i:02}.tsh"));
            std::fs::write(&path, chunk).unwrap();
            path
        })
        .collect()
}

/// The reference archive: the engine fed by the classic single-threaded
/// reader over the unsplit image.
fn reference_bytes(engine: &StreamingEngine, tsh_image: &[u8]) -> Vec<u8> {
    engine
        .compress_stream_to_bytes(TshReader::new(tsh_image))
        .unwrap()
        .0
}

/// Reader count 0 is the sequential set reader; `n ≥ 1` is
/// [`MultiFileSource`] with `n` reader threads.
fn check_multifile(
    trace: &Trace,
    shards: usize,
    n_files: usize,
    readers: usize,
) -> Result<(), TestCaseError> {
    let dir = tmpdir(&format!("mf-{shards}-{n_files}-{readers}"));
    let image = tsh::to_bytes(trace);
    let paths = split_tsh(&dir, &image, n_files);
    let engine = StreamingEngine::builder()
        .shards(shards)
        .batch_size(128)
        .build();
    let want = reference_bytes(&engine, &image);

    type Packets = Box<dyn Iterator<Item = Result<PacketRecord, TraceError>>>;
    let (stats, packets): (_, Packets) = if readers == 0 {
        let source = FileSource::open_set(&paths).unwrap();
        (source.stats(), Box::new(source.into_packets()))
    } else {
        let source = MultiFileSource::open(
            &paths,
            MultiFileConfig {
                readers,
                batch_packets: 64,
                queue_batches: 2,
            },
        )
        .unwrap();
        (source.stats(), Box::new(source.into_packets()))
    };
    let (got, report) = engine.compress_stream_to_bytes(packets).unwrap();
    prop_assert_eq!(
        &got,
        &want,
        "multi-file archive differs: shards {}, files {}, readers {}",
        shards,
        n_files,
        readers
    );
    prop_assert_eq!(report.report.packets, trace.len() as u64);
    // The source's stats handle outlives the drain: every byte counted.
    prop_assert_eq!(stats.bytes_read(), image.len() as u64);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn check_prefetch(trace: &Trace, shards: usize) -> Result<(), TestCaseError> {
    let dir = tmpdir(&format!("pf-{shards}"));
    let image = tsh::to_bytes(trace);
    let path = dir.join("whole.tsh");
    std::fs::write(&path, &image).unwrap();
    let engine = StreamingEngine::builder()
        .shards(shards)
        .batch_size(128)
        .build();
    let want = reference_bytes(&engine, &image);

    let source = FileSource::open_prefetched(
        &path,
        PrefetchConfig {
            chunk_bytes: 8 << 10,
            chunks: 2,
        },
    )
    .unwrap();
    let (got, _) = engine
        .compress_stream_to_bytes(source.into_packets())
        .unwrap();
    prop_assert_eq!(&got, &want, "prefetched archive differs: shards {}", shards);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// The fixed acceptance pin: a split trace through the set reader and
/// through parallel readers, and the unsplit trace through the
/// prefetcher, across shard counts, all byte-identical to the classic
/// path.
#[test]
fn pinned_multifile_and_prefetch_archives_are_byte_identical() {
    let trace = web_trace(250, 0x10);
    for shards in [1usize, 2, 8] {
        for readers in [0usize, 2] {
            check_multifile(&trace, shards, 4, readers).unwrap_or_else(|e| panic!("{e}"));
        }
        check_prefetch(&trace, shards).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn plain_file_source_is_the_classic_path_with_wait_accounting() {
    let trace = web_trace(150, 0x11);
    let dir = tmpdir("plain");
    let image = tsh::to_bytes(&trace);
    let path = dir.join("whole.tsh");
    std::fs::write(&path, &image).unwrap();
    let engine = StreamingEngine::builder().shards(2).batch_size(64).build();
    let want = reference_bytes(&engine, &image);
    let source = FileSource::open(&path).unwrap();
    let stats = source.stats();
    let (got, _) = engine
        .compress_stream_to_bytes(source.into_packets())
        .unwrap();
    assert_eq!(got, want);
    // Plain reads charge their syscall time as read-wait.
    assert_eq!(stats.bytes_read(), image.len() as u64);
    assert!(stats.read_wait_secs() >= 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Acceptance criterion, property form: the set reader and
    /// `MultiFileSource` (reader count 0 is the set reader) over a split
    /// trace produce the byte-identical archive for any split shape,
    /// reader count and shard count.
    #[test]
    fn multifile_source_matches_single_reader_archive(
        flows in 20usize..100,
        seed in 0u64..500,
        shards in 1usize..5,
        n_files in 1usize..6,
        readers in 0usize..5,
    ) {
        check_multifile(&web_trace(flows, seed), shards, n_files, readers)?;
    }

    /// Acceptance criterion, property form: `PrefetchReader` over the
    /// unsplit trace produces the byte-identical archive.
    #[test]
    fn prefetch_reader_matches_direct_read_archive(
        flows in 20usize..100,
        seed in 0u64..500,
        shards in 1usize..5,
    ) {
        check_prefetch(&web_trace(flows, seed), shards)?;
    }
}
