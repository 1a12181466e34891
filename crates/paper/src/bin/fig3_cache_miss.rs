//! **Figure 3** — "Cache miss rate for the traces": traffic (%) per
//! cache-miss-rate bucket {0–5%, 5–10%, 10–20%, >20%} for the four §6.1
//! traces under the radix-tree routing kernel.
//!
//! ```text
//! cargo run --release -p flowzip-paper --bin fig3_cache_miss \
//!     [--flows 2000] [--bench route|nat|rtr] [--seed N]
//! ```

use flowzip_analysis::{write_dat, BucketedHistogram, TextTable};
use flowzip_core::{Compressor, Params};
use flowzip_paper::runner::{BenchConfig, BenchKind};
use flowzip_paper::{decompressed, figures_dir, make_kernel, original_trace, Args, DEFAULT_SEED};
use flowzip_traffic::{fractal_trace, randomize_destinations, FractalTraceConfig};

fn main() {
    let args = Args::parse();
    let flows = args.get_u64("flows", 2_000) as usize;
    let seed = args.get_u64("seed", DEFAULT_SEED);
    let kind = BenchKind::parse(&args.get_str("bench", "route"))
        .expect("--bench must be route, nat or rtr");

    eprintln!("building the four traces of §6.1 ({flows} flows, seed {seed})...");
    let original = original_trace(flows, 60.0, seed);
    let (archive, _) = Compressor::new(Params::paper()).compress(&original);
    let decompressed = decompressed(&archive);
    let random = randomize_destinations(&original, seed ^ 0xABCD);
    let fractal = fractal_trace(
        &FractalTraceConfig {
            packets: original.len(),
            ..FractalTraceConfig::default()
        },
        seed ^ 0x5A5A,
    );

    let cfg = BenchConfig::default();
    let buckets = |trace: &flowzip_trace::Trace, name: &str| {
        let mut kernel = make_kernel(kind, &cfg, &original);
        let report = kernel.run(trace);
        eprintln!("  {name:>12}: {report}");
        let mut h = BucketedHistogram::figure3();
        h.extend(report.costs.iter().map(|c| c.miss_rate()));
        h.percentages()
    };

    eprintln!("replaying through the {kind} kernel (L1: 16 KiB, 2-way, 32 B)...");
    let p_orig = buckets(&original, "original");
    let p_dec = buckets(&decompressed, "decompressed");
    let p_rand = buckets(&random, "random");
    let p_frac = buckets(&fractal, "fractal");

    println!("\nFigure 3 ({kind} kernel): traffic (%) per cache-miss-rate bucket\n");
    let labels = BucketedHistogram::figure3().labels();
    let mut table = TextTable::new(&["trace", &labels[0], &labels[1], &labels[2], &labels[3]]);
    for (name, p) in [
        ("original", &p_orig),
        ("decompressed", &p_dec),
        ("random", &p_rand),
        ("fractal", &p_frac),
    ] {
        table.row_owned(
            std::iter::once(name.to_string())
                .chain(p.iter().map(|v| format!("{v:.1}")))
                .collect(),
        );
    }
    println!("{table}");
    println!(
        "(paper: Original ≈ Decompressed ≈ fractal in the low buckets; \
         Random shifts its mass into the 5–10%+ buckets)"
    );

    let xs: Vec<f64> = (0..labels.len()).map(|i| i as f64).collect();
    let path = figures_dir().join(format!("fig3_{kind}.dat"));
    write_dat(
        &path,
        &[
            "bucket",
            "original_pct",
            "decompressed_pct",
            "random_pct",
            "fractal_pct",
        ],
        &[&xs, &p_orig, &p_dec, &p_rand, &p_frac],
    )
    .expect("write fig3 series");
    println!(
        "\nseries written to {} (buckets: {})",
        path.display(),
        labels.join(", ")
    );
}
