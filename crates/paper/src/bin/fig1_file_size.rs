//! **Figure 1** — "File size comparison": compressed file size (MB)
//! against elapsed trace time (seconds) for the original TSH file, GZIP,
//! Van Jacobson, Peuhkuri and the proposed flow-clustering method.
//!
//! ```text
//! cargo run --release -p flowzip-paper --bin fig1_file_size \
//!     [--flows 20000] [--secs 100] [--steps 10] [--seed N]
//! ```
//!
//! Prints the series as a table and writes `target/figures/fig1.dat`.

use flowzip_analysis::{write_dat, TextTable};
use flowzip_core::{Compressor, Params};
use flowzip_deflate::{gzip_compress, Level};
use flowzip_paper::comp::VjCompressor;
use flowzip_paper::peuhkuri::PeuhkuriCompressor;
use flowzip_paper::{figures_dir, mb, original_trace, Args, DEFAULT_SEED};
use flowzip_trace::{tsh, Timestamp};

fn main() {
    let args = Args::parse();
    let flows = args.get_u64("flows", 20_000) as usize;
    let secs = args.get_u64("secs", 100) as f64;
    let steps = args.get_u64("steps", 10) as usize;
    let seed = args.get_u64("seed", DEFAULT_SEED);

    eprintln!("generating {flows} web flows over {secs} s (seed {seed})...");
    let trace = original_trace(flows, secs, seed);
    eprintln!(
        "trace: {} packets, {} MB as TSH",
        trace.len(),
        mb(tsh::file_size(&trace))
    );

    let mut xs = Vec::new();
    let mut s_orig = Vec::new();
    let mut s_gzip = Vec::new();
    let mut s_vj = Vec::new();
    let mut s_pk = Vec::new();
    let mut s_fc = Vec::new();

    let mut table = TextTable::new(&[
        "elapsed (s)",
        "original (MB)",
        "gzip (MB)",
        "vj (MB)",
        "peuhkuri (MB)",
        "proposed (MB)",
    ]);

    for step in 1..=steps {
        let t = secs * step as f64 / steps as f64;
        let prefix = trace.prefix_until(Timestamp::from_secs_f64(t));
        let image = tsh::to_bytes(&prefix);

        let original = image.len() as u64;
        let gzip = gzip_compress(&image, Level::Default).len() as u64;
        let vj = VjCompressor::new().compress_trace(&prefix).len() as u64;
        let pk = PeuhkuriCompressor::new().compress_trace(&prefix).len() as u64;
        let (_, report) = Compressor::new(Params::paper()).compress(&prefix);
        let fc = report.sizes.total();

        xs.push(t);
        s_orig.push(original as f64 / 1e6);
        s_gzip.push(gzip as f64 / 1e6);
        s_vj.push(vj as f64 / 1e6);
        s_pk.push(pk as f64 / 1e6);
        s_fc.push(fc as f64 / 1e6);

        table.row_owned(vec![
            format!("{t:.0}"),
            mb(original),
            mb(gzip),
            mb(vj),
            mb(pk),
            mb(fc),
        ]);
        eprintln!("  t={t:>5.0}s done ({} packets)", prefix.len());
    }

    println!("\nFigure 1: file size vs elapsed time\n");
    println!("{table}");

    let last = steps - 1;
    println!("final ratios vs original TSH:");
    println!(
        "  gzip     {:>6.1}%   (paper: ~50%)",
        100.0 * s_gzip[last] / s_orig[last]
    );
    println!(
        "  vj       {:>6.1}%   (paper: ~30%)",
        100.0 * s_vj[last] / s_orig[last]
    );
    println!(
        "  peuhkuri {:>6.1}%   (paper: ~16%)",
        100.0 * s_pk[last] / s_orig[last]
    );
    println!(
        "  proposed {:>6.1}%   (paper:  ~3%)",
        100.0 * s_fc[last] / s_orig[last]
    );

    let path = figures_dir().join("fig1.dat");
    write_dat(
        &path,
        &[
            "elapsed_s",
            "original_mb",
            "gzip_mb",
            "vj_mb",
            "peuhkuri_mb",
            "proposed_mb",
        ],
        &[&xs, &s_orig, &s_gzip, &s_vj, &s_pk, &s_fc],
    )
    .expect("write fig1.dat");
    println!("\nseries written to {}", path.display());
}
