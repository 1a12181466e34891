//! Tour of file input through the `Pipeline` session API.
//!
//! Generates a Web trace, lays it out on disk two ways — one TSH file
//! and a pre-split four-chunk set, the way NLANR ships its captures —
//! and compresses each through one pipeline session. Every file input
//! goes through the one capture reader, `FileSource`: the chunks are
//! read in order, one after another, on the thread that routes packets
//! to the shards. Both archives are byte-identical; the unified report's
//! read-wait/compute split shows how little of the run the reads cost.
//!
//! ```text
//! cargo run --release --example multifile
//! ```

use flowzip::prelude::*;
use flowzip::trace::tsh;

fn main() {
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 5_000,
            duration_secs: 120.0,
            ..WebTrafficConfig::default()
        },
        0x10F,
    )
    .generate();
    let image = tsh::to_bytes(&trace);
    println!(
        "trace: {} packets, {:.1} MB as TSH\n",
        trace.len(),
        image.len() as f64 / 1e6
    );

    // Lay the workload out like an NLANR capture: whole + 4 chunks.
    let dir = std::env::temp_dir().join(format!("flowzip-multifile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let whole = dir.join("whole.tsh");
    std::fs::write(&whole, &image).unwrap();
    let chunks: Vec<_> = tsh::split_record_chunks(&image, 4)
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| {
            let path = dir.join(format!("chunk-{i:02}.tsh"));
            std::fs::write(&path, chunk).unwrap();
            path
        })
        .collect();

    // 1. One file, read on the consuming thread. The report charges
    //    blocking read() time as read-wait.
    let whole_run = Pipeline::compress()
        .input(Input::file(&whole))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    println!("one file      : {}", whole_run.report);

    // 2. The chunk set as one logical stream, in the given order. An
    //    already-opened InputSource plugs in via Input::source just the
    //    same as Input::files.
    let source = FileSource::open_set(&chunks).unwrap();
    println!(
        "chunk set     : {} chunks, {} format",
        chunks.len(),
        source.format()
    );
    let chunked = Pipeline::compress()
        .input(Input::source(source))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    println!("              : {}", chunked.report);

    // How the capture is laid out never changes the archive.
    assert_eq!(whole_run.bytes(), chunked.bytes());
    println!(
        "\nboth layouts produced the identical {}-byte archive",
        chunked.bytes().unwrap().len()
    );

    std::fs::remove_dir_all(&dir).ok();
}
