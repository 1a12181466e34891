//! **Ablation: the weight vector of §2** — the paper uses
//! `w = (16, 4, 1)` so flag class dominates dependence dominates size.
//! This sweep compares alternative weightings by cluster count and by
//! whether `M` values remain uniquely decodable (the decompressor's
//! requirement).
//!
//! ```text
//! cargo run --release -p flowzip-paper --bin abl_weights \
//!     [--flows 2000] [--seed N]
//! ```

use flowzip_analysis::TextTable;
use flowzip_core::{Compressor, Params, Weights};
use flowzip_paper::{original_trace, Args, DEFAULT_SEED};

fn main() {
    let args = Args::parse();
    let flows = args.get_u64("flows", 2_000) as usize;
    let seed = args.get_u64("seed", DEFAULT_SEED);

    eprintln!("generating {flows} web flows (seed {seed})...");
    let original = original_trace(flows, 60.0, seed);

    let candidates: [(&str, Weights); 5] = [
        (
            "paper 16/4/1",
            Weights {
                flags: 16,
                dependence: 4,
                size: 1,
            },
        ),
        (
            "flat 1/1/1",
            Weights {
                flags: 1,
                dependence: 1,
                size: 1,
            },
        ),
        (
            "flags-only 16/0/0",
            Weights {
                flags: 16,
                dependence: 0,
                size: 0,
            },
        ),
        (
            "size-heavy 4/2/8",
            Weights {
                flags: 4,
                dependence: 2,
                size: 8,
            },
        ),
        (
            "wide 64/8/1",
            Weights {
                flags: 64,
                dependence: 8,
                size: 1,
            },
        ),
    ];

    println!("\nAblation: characterization weights (paper: 16/4/1)\n");
    let mut table = TextTable::new(&["weights", "clusters", "ratio vs TSH", "decodable", "max M"]);
    for (name, weights) in candidates {
        let params = Params {
            weights,
            ..Params::paper()
        };
        let (_, report) = Compressor::new(params.clone()).compress(&original);
        // Unique decodability: every (f1, f2, f3) triple must map to a
        // distinct M — the property the paper's 16/4/1 guarantees.
        let mut seen = std::collections::HashSet::new();
        let mut decodable = true;
        for f1v in 0..=params.classifier.max_value() {
            for f2v in 0..2u32 {
                for f3v in 0..3u32 {
                    let m = weights.flags * f1v + weights.dependence * f2v + weights.size * f3v;
                    if !seen.insert(m) {
                        decodable = false;
                    }
                }
            }
        }
        table.row_owned(vec![
            name.to_string(),
            report.clusters.to_string(),
            format!("{:.2}%", 100.0 * report.ratio_vs_tsh),
            if decodable { "yes" } else { "NO (collisions)" }.to_string(),
            weights.max_m(params.classifier).to_string(),
        ]);
        eprintln!("  {name} done");
    }
    println!("{table}");
    println!(
        "reading: collapsing weights (flags-only, flat) merges semantically different \
         packets into one M — smaller archives, but the decompressor can no longer \
         reconstruct flags/dependence/size, which is what Figures 2-3 rely on"
    );
}
