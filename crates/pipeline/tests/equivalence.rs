//! The tentpole acceptance pins: for every input/sink combination the
//! `Pipeline` session API produces archive bytes **identical** to the
//! lower-level code it drives —
//!
//! | session | pinned against |
//! |---|---|
//! | `Input::trace` / `Input::file`, no tuning | `Compressor::compress` (the paper-reference oracle) and `.threads(1)` |
//! | `Input::files` / `Input::packets`, no tuning | `.threads(1)` |
//! | `Input::trace` + `threads` | `StreamingEngine::compress_stream_to_bytes` over the trace |
//! | `Input::packets` | … over the packet iterator |
//! | `Input::file` | … over `FileSource::into_packets`, and with `FileSource::open_prefetched` |
//! | `Input::files`/`Input::glob` | … with `FileSource::open_set` and with `MultiFileSource` |
//! | `Pipeline::decompress` | `Decompressor::decompress` + `tsh/pcap::to_bytes` |
//!
//! The sink never changes the bytes:
//! `Sink::file`, `Sink::bytes` and `Sink::writer` deliver one identical
//! serialization.

use flowzip_core::{CompressedTrace, Compressor, DecompressParams, Decompressor, Params};
use flowzip_engine::StreamingEngine;
use flowzip_io::{FileSource, InputSource, MultiFileConfig, MultiFileSource, PrefetchConfig};
use flowzip_pipeline::{Input, Pipeline, Sink};
use flowzip_trace::reader::CaptureFormat;
use flowzip_trace::{pcap, tsh, PacketRecord, Trace, TraceError};
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

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
    let dir = std::env::temp_dir().join(format!("flowzip-pl-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Splits a TSH image into `n` chunk files on record boundaries.
fn write_chunks(dir: &Path, image: &[u8], n: usize) -> Vec<PathBuf> {
    tsh::split_record_chunks(image, n)
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| {
            let path = dir.join(format!("chunk-{i:02}.tsh"));
            std::fs::write(&path, chunk).unwrap();
            path
        })
        .collect()
}

/// An in-memory trace as the fallible packet stream the engine consumes.
fn stream(trace: &Trace) -> impl Iterator<Item = Result<PacketRecord, TraceError>> + '_ {
    trace.iter().cloned().map(Ok)
}

/// The oracle pin for the default session: an untuned in-memory trace or
/// single file runs one engine shard, byte-identical to the paper's
/// `Compressor` (its v2 serialization; the decode equals its v1 one) and
/// to an explicit `.threads(1)`.
#[test]
fn batch_session_matches_compressor() {
    let dir = tmpdir("oracle");
    let trace = web_trace(120, 41);
    let path = dir.join("whole.tsh");
    std::fs::write(&path, tsh::to_bytes(&trace)).unwrap();
    let (archive, _) = Compressor::new(Params::paper()).compress(&trace);
    let want = archive.to_bytes_v2();
    let via_v1 = CompressedTrace::from_bytes(&archive.to_bytes()).unwrap();
    for (what, input) in [
        ("trace", Input::trace(&trace)),
        ("file", Input::file(&path)),
    ] {
        let result = Pipeline::compress()
            .input(input)
            .sink(Sink::bytes())
            .run()
            .unwrap();
        assert_eq!(result.report.engine.unwrap().shards, 1, "{what}");
        assert!(result.report.peak_active_flows() > 0, "{what}");
        let bytes = result.into_bytes().unwrap();
        assert_eq!(
            CompressedTrace::from_bytes(&bytes).unwrap(),
            via_v1,
            "{what}"
        );
        assert_eq!(bytes, want, "{what}");
    }
    let one_shard = Pipeline::compress()
        .input(Input::file(&path))
        .sink(Sink::bytes())
        .threads(1)
        .run()
        .unwrap();
    assert_eq!(one_shard.into_bytes().unwrap(), want, "threads(1)");
    std::fs::remove_dir_all(&dir).ok();
}

/// A default (no engine knob) file session whose cancel flag flips
/// mid-read still returns `Ok` and delivers a decodable prefix of the
/// capture. The inline one-shard run has no thread to hook, so a watcher
/// trips the flag as soon as the live `engine.packets` counter shows the
/// first batch went through — at least one batch is always in, and on
/// any ordinary schedule the other ~50 never are.
#[test]
fn cancelled_default_session_delivers_a_valid_partial_archive() {
    use flowzip_obs::names;
    use flowzip_pipeline::Metrics;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = tmpdir("cancel");
    let trace = web_trace(3_000, 50);
    let path = dir.join("whole.tsh");
    std::fs::write(&path, tsh::to_bytes(&trace)).unwrap();

    let cancel = Arc::new(AtomicBool::new(false));
    let done = AtomicBool::new(false);
    let metrics = Metrics::enabled();
    let seen = metrics.counter(names::ENGINE_PACKETS);
    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if seen.value() > 0 {
                    cancel.store(true, Ordering::SeqCst);
                    break;
                }
                std::thread::yield_now();
            }
        });
        let result = Pipeline::compress()
            .input(Input::file(&path))
            .sink(Sink::bytes())
            .metrics(metrics.clone())
            .cancel(cancel.clone())
            .run();
        done.store(true, Ordering::SeqCst);
        result
    })
    .expect("a cancelled session still finishes Ok");

    assert_eq!(result.report.engine.unwrap().shards, 1);
    let packets = result.report.packets;
    assert!(
        0 < packets && packets <= trace.len() as u64,
        "{packets} of {}",
        trace.len()
    );
    let archive = CompressedTrace::from_bytes(result.bytes().unwrap()).unwrap();
    archive.validate().unwrap();
    assert_eq!(archive.packet_count(), packets);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_session_matches_engine_trace_entry_point() {
    let trace = web_trace(150, 42);
    for shards in [1usize, 2, 5] {
        let engine = StreamingEngine::builder()
            .shards(shards)
            .batch_size(128)
            .build();
        let (want, _) = engine.compress_stream_to_bytes(stream(&trace)).unwrap();
        let result = Pipeline::compress()
            .input(Input::trace(&trace))
            .sink(Sink::bytes())
            .threads(shards)
            .run()
            .unwrap();
        assert_eq!(result.report.engine.unwrap().shards, shards);
        assert_eq!(result.into_bytes().unwrap(), want, "{shards} shards");
    }
}

#[test]
fn packets_session_matches_engine_packets_entry_point() {
    let trace = web_trace(90, 43);
    let packets: Vec<_> = trace.iter().cloned().collect();
    let engine = StreamingEngine::builder().shards(2).batch_size(64).build();
    let (want, report) = engine
        .compress_stream_to_bytes(packets.iter().cloned().map(Ok))
        .unwrap();
    let result = Pipeline::compress()
        .input(Input::packets(packets.iter().cloned()))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    assert_eq!(
        result.report.compression.as_ref().unwrap().flows,
        report.report.flows
    );
    assert_eq!(result.into_bytes().unwrap(), want);
}

/// The router runs on the calling thread, so a multi-shard run never
/// moves its input across threads: an iterator that is not `Send` (it
/// holds an `Rc`) compresses through the engine and through a session
/// at two shards, to the same bytes as a `Send` stream.
#[test]
fn non_send_input_compresses_on_two_shards() {
    use std::rc::Rc;

    let trace = web_trace(60, 45);
    let packets: Rc<Vec<PacketRecord>> = Rc::new(trace.iter().cloned().collect());
    let engine = StreamingEngine::builder().shards(2).batch_size(64).build();
    let (want, _) = engine
        .compress_stream_to_bytes(trace.iter().cloned().map(Ok))
        .unwrap();

    let shared = Rc::clone(&packets);
    let (bytes, _) = engine
        .compress_stream_to_bytes((0..shared.len()).map(move |i| Ok(shared[i])))
        .unwrap();
    assert_eq!(bytes, want, "StreamingEngine");

    let shared = Rc::clone(&packets);
    let result = Pipeline::compress()
        .input(Input::packets((0..shared.len()).map(move |i| shared[i])))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    assert_eq!(result.into_bytes().unwrap(), want, "Pipeline::compress");
}

#[test]
fn file_session_matches_engine_file_source_entry_point() {
    let dir = tmpdir("file");
    let trace = web_trace(140, 44);
    let path = dir.join("whole.tsh");
    std::fs::write(&path, tsh::to_bytes(&trace)).unwrap();
    let engine = StreamingEngine::builder()
        .shards(2)
        .batch_size(1024)
        .build();
    let (want, _) = engine
        .compress_stream_to_bytes(FileSource::open(&path).unwrap().into_packets())
        .unwrap();
    let result = Pipeline::compress()
        .input(Input::file(&path))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    assert_eq!(result.into_bytes().unwrap(), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// A session reads its file directly; the prefetch reader beneath the
/// engine moves the same bytes through a thread and changes nothing.
#[test]
fn prefetched_session_matches_engine_prefetch_entry_point() {
    let dir = tmpdir("prefetch");
    let trace = web_trace(160, 45);
    let path = dir.join("whole.tsh");
    std::fs::write(&path, tsh::to_bytes(&trace)).unwrap();
    let engine = StreamingEngine::builder()
        .shards(2)
        .batch_size(1024)
        .build();
    let (want, _) = engine
        .compress_stream_to_bytes(
            FileSource::open_prefetched(&path, PrefetchConfig::default())
                .unwrap()
                .into_packets(),
        )
        .unwrap();
    let result = Pipeline::compress()
        .input(Input::file(&path))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    assert_eq!(result.into_bytes().unwrap(), want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_file_session_matches_engine_multi_file_entry_point() {
    let dir = tmpdir("multi");
    let trace = web_trace(180, 46);
    let chunks = write_chunks(&dir, &tsh::to_bytes(&trace), 3);
    let engine = StreamingEngine::builder()
        .shards(2)
        .batch_size(1024)
        .build();
    let result = Pipeline::compress()
        .input(Input::files(&chunks))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    let got = result.into_bytes().unwrap();
    let (want, _) = engine
        .compress_stream_to_bytes(FileSource::open_set(&chunks).unwrap().into_packets())
        .unwrap();
    assert_eq!(got, want, "set reader");
    // The retired reader threads deliver the same stream.
    for readers in [1usize, 3] {
        let source = MultiFileSource::open(
            &chunks,
            MultiFileConfig {
                readers,
                batch_packets: 1024,
                queue_batches: 4,
            },
        )
        .unwrap();
        let (want, _) = engine
            .compress_stream_to_bytes(source.into_packets())
            .unwrap();
        assert_eq!(got, want, "{readers} readers");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn glob_and_source_inputs_match_the_explicit_list() {
    let dir = tmpdir("glob");
    let trace = web_trace(130, 47);
    let chunks = write_chunks(&dir, &tsh::to_bytes(&trace), 3);
    let run = |input: Input<'_>| {
        Pipeline::compress()
            .input(input)
            .sink(Sink::bytes())
            .threads(2)
            .run()
            .unwrap()
            .into_bytes()
            .unwrap()
    };
    let want = run(Input::files(&chunks));
    let pattern = dir.join("chunk-*.tsh");
    assert_eq!(run(Input::glob(pattern.to_str().unwrap())), want, "glob");
    let source = FileSource::open_set(&chunks).unwrap();
    assert_eq!(run(Input::source(source)), want, "source");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every input runs on one shard unless `threads` asks: a 2-file set
/// and a packet iterator compress with no thread setting to the bytes of
/// `.threads(1)`, whatever the host's core count.
#[test]
fn untuned_sessions_run_one_shard_on_every_input() {
    let dir = tmpdir("untuned");
    let trace = web_trace(120, 51);
    let chunks = write_chunks(&dir, &tsh::to_bytes(&trace), 2);
    let run = |input: Input<'_>, threads: Option<usize>| {
        let mut session = Pipeline::compress().input(input).sink(Sink::bytes());
        if let Some(t) = threads {
            session = session.threads(t);
        }
        let result = session.run().unwrap();
        assert_eq!(result.report.engine.as_ref().unwrap().shards, 1);
        result.into_bytes().unwrap()
    };
    assert_eq!(
        run(Input::files(&chunks), None),
        run(Input::files(&chunks), Some(1)),
        "2-file input"
    );
    assert_eq!(
        run(Input::packets(trace.iter().cloned()), None),
        run(Input::packets(trace.iter().cloned()), Some(1)),
        "packet iterator"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_sink_delivers_the_identical_bytes() {
    let dir = tmpdir("sinks");
    let trace = web_trace(80, 48);
    let want = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .run()
        .unwrap()
        .into_bytes()
        .unwrap();

    let path = dir.join("out.fzc");
    let file_result = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::file(&path))
        .run()
        .unwrap();
    assert!(file_result.bytes().is_none(), "file sink keeps no buffer");
    assert_eq!(std::fs::read(&path).unwrap(), want);
    assert_eq!(file_result.report.output, Some(path.display().to_string()));

    let mut buf = Vec::new();
    Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::writer(&mut buf))
        .run()
        .unwrap();
    assert_eq!(buf, want);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn decompress_session_matches_decompressor() {
    let trace = web_trace(100, 49);
    let (archive, _) = Compressor::new(Params::paper()).compress(&trace);
    let archive_bytes = archive.to_bytes_v2();
    // The legacy CLI decompressed what it read from disk, so the pin is
    // against the round-tripped archive (serialization quantizes RTTs).
    let archive = CompressedTrace::from_bytes(&archive_bytes).unwrap();
    for seed in [1u64, 0x5EED] {
        let legacy = Decompressor::new(DecompressParams {
            seed,
            ..DecompressParams::default()
        })
        .decompress(&archive);

        let result = Pipeline::decompress()
            .input(Input::bytes(archive_bytes.clone()))
            .sink(Sink::bytes())
            .seed(seed)
            .run()
            .unwrap();
        assert_eq!(result.report.packets as usize, legacy.len());
        assert_eq!(result.report.flows as usize, archive.flow_count());
        assert_eq!(result.into_bytes().unwrap(), tsh::to_bytes(&legacy), "tsh");

        let as_pcap = Pipeline::decompress()
            .input(Input::bytes(archive_bytes.clone()))
            .sink(Sink::bytes())
            .seed(seed)
            .output_format(CaptureFormat::Pcap)
            .run()
            .unwrap();
        assert_eq!(
            as_pcap.into_bytes().unwrap(),
            pcap::to_bytes(&legacy),
            "pcap"
        );
    }
}

proptest! {
    /// Random traces and shard counts: the default session serializes
    /// byte-identically to the `Compressor` oracle (and decodes to its
    /// v1 archive), and a sharded one to the engine primitive.
    #[test]
    fn session_matches_legacy_for_random_configs(
        flows in 10usize..60,
        seed in 0u64..500,
        shards in 1usize..5,
    ) {
        let trace = web_trace(flows, seed);

        let (archive, _) = Compressor::new(Params::paper()).compress(&trace);
        let got_batch = Pipeline::compress()
            .input(Input::trace(&trace))
            .sink(Sink::bytes())
            .run()
            .unwrap()
            .into_bytes()
            .unwrap();
        prop_assert_eq!(
            CompressedTrace::from_bytes(&got_batch).unwrap(),
            CompressedTrace::from_bytes(&archive.to_bytes()).unwrap()
        );
        prop_assert_eq!(got_batch, archive.to_bytes_v2());

        let engine = StreamingEngine::builder()
            .shards(shards)
            .batch_size(128)
            .build();
        let (want_stream, _) = engine.compress_stream_to_bytes(stream(&trace)).unwrap();
        let got_stream = Pipeline::compress()
            .input(Input::trace(&trace))
            .sink(Sink::bytes())
            .threads(shards)
            .run()
            .unwrap()
            .into_bytes()
            .unwrap();
        prop_assert_eq!(got_stream, want_stream);
    }
}
