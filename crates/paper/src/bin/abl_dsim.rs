//! **Ablation: the similarity threshold of Eq. (4)** — sweep `d_sim`
//! (0%, 1%, 2%, 5%, 10%, 20%) and measure compression ratio, cluster
//! count, and fidelity of the decompressed trace (KS distance of
//! per-packet radix accesses against the original).
//!
//! The paper fixes 2%; this shows the trade-off curve around that choice.
//!
//! ```text
//! cargo run --release -p flowzip-paper --bin abl_dsim \
//!     [--flows 2000] [--seed N]
//! ```

use flowzip_analysis::{ks_distance, TextTable};
use flowzip_core::{Compressor, Params};
use flowzip_paper::route::RouteBench;
use flowzip_paper::runner::{BenchConfig, PacketProcessor};
use flowzip_paper::{decompressed, original_trace, Args, DEFAULT_SEED};

fn main() {
    let args = Args::parse();
    let flows = args.get_u64("flows", 2_000) as usize;
    let seed = args.get_u64("seed", DEFAULT_SEED);

    eprintln!("generating {flows} web flows (seed {seed})...");
    let original = original_trace(flows, 60.0, seed);
    let cfg = BenchConfig::default();
    let accesses = |trace: &flowzip_trace::Trace| {
        RouteBench::covering_servers(&cfg, &original)
            .run(trace)
            .costs
            .iter()
            .map(|c| c.accesses as f64)
            .collect::<Vec<f64>>()
    };
    let a_orig = accesses(&original);

    println!("\nAblation: similarity threshold (paper value: 2%)\n");
    let mut table = TextTable::new(&[
        "similarity",
        "clusters",
        "match rate",
        "ratio vs TSH",
        "fidelity (KS)",
    ]);
    for sim in [0.0, 0.01, 0.02, 0.05, 0.10, 0.20] {
        let params = Params {
            similarity: sim,
            ..Params::paper()
        };
        let (archive, report) = Compressor::new(params).compress(&original);
        let decompressed = decompressed(&archive);
        let ks = ks_distance(&a_orig, &accesses(&decompressed));
        table.row_owned(vec![
            format!("{:.0}%", sim * 100.0),
            report.clusters.to_string(),
            format!(
                "{:.1}%",
                100.0 * report.matched_flows as f64 / report.short_flows.max(1) as f64
            ),
            format!("{:.2}%", 100.0 * report.ratio_vs_tsh),
            format!("{ks:.3}"),
        ]);
        eprintln!("  sim {:>4.0}% done", sim * 100.0);
    }
    println!("{table}");
    println!(
        "reading: looser thresholds merge more flows (fewer clusters, smaller archive) \
         at the cost of fidelity; 2% sits on the flat part of the fidelity curve"
    );
}
