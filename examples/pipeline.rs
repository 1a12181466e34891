//! Tour of the `Pipeline` session API: one builder covers every
//! compression path — and the symmetric decompress — through every
//! `Input` variant.
//!
//! ```text
//! cargo run --release --example pipeline
//! ```

use flowzip::prelude::*;
use flowzip::trace::tsh;

fn main() {
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 3_000,
            duration_secs: 90.0,
            ..WebTrafficConfig::default()
        },
        0x1915,
    )
    .generate();
    let image = tsh::to_bytes(&trace);
    println!(
        "trace: {} packets, {:.1} MB as TSH\n",
        trace.len(),
        image.len() as f64 / 1e6
    );

    // Lay the trace out on disk like an NLANR capture: whole + chunks.
    let dir = std::env::temp_dir().join(format!("flowzip-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let whole = dir.join("whole.tsh");
    std::fs::write(&whole, &image).unwrap();
    let chunks: Vec<_> = tsh::split_record_chunks(&image, 3)
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| {
            let path = dir.join(format!("chunk-{i:02}.tsh"));
            std::fs::write(&path, chunk).unwrap();
            path
        })
        .collect();

    // 1. Input::trace — in-memory, no tuning → one engine shard, run
    //    inline: the same bytes as the paper's `Compressor`, on any host.
    let one_shard = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .run()
        .unwrap();
    println!("trace (1 shard) : {}", one_shard.report);

    // 2. Input::trace + threads → the same engine, sharded.
    let streamed = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .threads(2)
        .idle_timeout(Duration::from_secs(60))
        .run()
        .unwrap();
    println!("trace (2 shards): {}", streamed.report);

    // 3. Input::packets — any packet iterator streams.
    let from_packets = Pipeline::compress()
        .input(Input::packets(trace.iter().cloned()))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    println!("packets         : {}", from_packets.report);

    // 4. Input::file — single capture file, written straight to a
    //    Sink::file.
    let archive_path = dir.join("whole.fzc");
    let from_file = Pipeline::compress()
        .input(Input::file(&whole))
        .sink(Sink::file(&archive_path))
        .threads(2)
        .run()
        .unwrap();
    println!("file            : {}", from_file.report);

    // 5. Input::files — a pre-split set streams as ONE ordered trace,
    //    each chunk read in turn on this thread; 6. Input::glob does the
    //    same from a pattern; 7. Input::source accepts any InputSource
    //    you opened yourself. All three are byte-identical to the single
    //    file.
    let from_files = Pipeline::compress()
        .input(Input::files(&chunks))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    let pattern = dir.join("chunk-*.tsh");
    let from_glob = Pipeline::compress()
        .input(Input::glob(pattern.to_str().unwrap()))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    let source = FileSource::open_set(&chunks).unwrap();
    let from_source = Pipeline::compress()
        .input(Input::source(source))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    println!("3-chunk set     : {}", from_files.report);

    let on_disk = std::fs::read(&archive_path).unwrap();
    assert_eq!(from_files.bytes().unwrap(), &on_disk[..]);
    assert_eq!(from_glob.bytes().unwrap(), &on_disk[..]);
    assert_eq!(from_source.bytes().unwrap(), &on_disk[..]);
    println!(
        "\nfiles / glob / source ingest all produced the identical {}-byte archive",
        on_disk.len()
    );

    // The unified report serializes to one stable JSON schema — the same
    // one `flowzip compress|decompress|info --json` print.
    println!("\nreport as JSON:\n{}\n", from_files.report.to_json());

    // Decompress is the symmetric session: archive in (file or bytes),
    // trace out (TSH or pcap).
    let restored_tsh = dir.join("restored.tsh");
    let decompressed = Pipeline::decompress()
        .input(Input::file(&archive_path))
        .sink(Sink::file(&restored_tsh))
        .seed(7)
        .run()
        .unwrap();
    println!("decompress      : {}", decompressed.report);
    assert_eq!(decompressed.report.packets as usize, trace.len());

    let as_pcap = Pipeline::decompress()
        .input(Input::bytes(on_disk))
        .sink(Sink::bytes())
        .seed(7)
        .output_format(flowzip::trace::reader::CaptureFormat::Pcap)
        .run()
        .unwrap();
    println!(
        "as pcap         : {} B ({} packets)",
        as_pcap.report.output_bytes, as_pcap.report.packets
    );

    std::fs::remove_dir_all(&dir).ok();
}
