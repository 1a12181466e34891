//! **§6 cross-benchmark validation matrix** — runs all three kernels
//! (Route, NAT, RTR) over all four traces (original, decompressed,
//! random, fractal) and prints, per kernel, the KS distance of the
//! per-packet access distribution vs. the original and the mean cache
//! miss rates — the compact form of the paper's "the outcomes for memory
//! access and cache miss ratio measurements demonstrated ... huge
//! efficiency" conclusion.
//!
//! ```text
//! cargo run --release -p flowzip-paper --bin table_validation \
//!     [--flows 1200] [--seed N]
//! ```

use flowzip_analysis::{ks_distance, TextTable};
use flowzip_core::{Compressor, Params};
use flowzip_paper::runner::{BenchConfig, BenchKind, BenchReport};
use flowzip_paper::{decompressed, make_kernel, original_trace, Args, DEFAULT_SEED};
use flowzip_traffic::{fractal_trace, randomize_destinations, FractalTraceConfig};

fn main() {
    let args = Args::parse();
    let flows = args.get_u64("flows", 1_200) as usize;
    let seed = args.get_u64("seed", DEFAULT_SEED);

    eprintln!("building the four traces ({flows} flows, seed {seed})...");
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
    let accesses = |r: &BenchReport| {
        r.costs
            .iter()
            .map(|c| c.accesses as f64)
            .collect::<Vec<f64>>()
    };

    println!("\n§6 validation matrix — KS(accesses) vs original | mean miss rate\n");
    let mut table = TextTable::new(&["kernel", "original", "decompressed", "random", "fractal"]);
    for kind in [BenchKind::Route, BenchKind::Nat, BenchKind::Rtr] {
        eprintln!("running the {kind} kernel over four traces...");
        let reports: Vec<BenchReport> = [&original, &decompressed, &random, &fractal]
            .iter()
            .map(|t| make_kernel(kind, &cfg, &original).run(t))
            .collect();
        let base = accesses(&reports[0]);
        let cell = |r: &BenchReport| {
            format!(
                "{:.3} | {:.1}%",
                ks_distance(&base, &accesses(r)),
                100.0 * r.mean_miss_rate()
            )
        };
        table.row_owned(vec![
            kind.to_string(),
            cell(&reports[0]),
            cell(&reports[1]),
            cell(&reports[2]),
            cell(&reports[3]),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape, per the paper: the decompressed column stays near \
         0.0x KS and matches the original's miss rate on every kernel, while \
         random (always) and fractal (in accesses) diverge."
    );
}
