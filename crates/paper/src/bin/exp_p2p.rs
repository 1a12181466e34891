//! **Future-work experiment (§7)** — "verifying also the applicability of
//! the method to other types of applications like P2P."
//!
//! Compresses a Web trace, a P2P trace, and a 50/50 mix, and compares how
//! the flow-clustering method degrades as its Web assumptions (short,
//! template-similar, client/server flows) are violated.
//!
//! ```text
//! cargo run --release -p flowzip-paper --bin exp_p2p \
//!     [--flows 1000] [--seed N]
//! ```

use flowzip_analysis::TextTable;
use flowzip_core::{Compressor, Params};
use flowzip_paper::{original_trace, Args, DEFAULT_SEED};
use flowzip_trace::FlowTable;
use flowzip_traffic::p2p::{P2pTrafficConfig, P2pTrafficGenerator};

fn main() {
    let args = Args::parse();
    let flows = args.get_u64("flows", 1_000) as usize;
    let seed = args.get_u64("seed", DEFAULT_SEED);

    eprintln!("generating web / p2p / mixed traces ({flows} flows each, seed {seed})...");
    let web = original_trace(flows, 60.0, seed);
    let p2p = P2pTrafficGenerator::new(
        P2pTrafficConfig {
            flows,
            duration_secs: 60.0,
            ..P2pTrafficConfig::default()
        },
        seed ^ 0x9999,
    )
    .generate();
    let mut mixed = web.clone();
    mixed.merge(
        P2pTrafficGenerator::new(
            P2pTrafficConfig {
                flows: flows / 2,
                duration_secs: 60.0,
                ..P2pTrafficConfig::default()
            },
            seed ^ 0x7777,
        )
        .generate(),
    );

    println!("\n§7 future work: does flow clustering survive P2P traffic?\n");
    let mut table = TextTable::new(&[
        "trace",
        "packets",
        "short flows",
        "mean len",
        "clusters",
        "long-tmpl share",
        "ratio vs TSH",
    ]);
    for (name, trace) in [("web", &web), ("p2p", &p2p), ("mixed", &mixed)] {
        let stats = FlowTable::from_trace(trace).stats(50);
        let (_, report) = Compressor::new(Params::paper()).compress(trace);
        let long_share = report.sizes.long_templates as f64 / report.sizes.total() as f64;
        table.row_owned(vec![
            name.to_string(),
            trace.len().to_string(),
            format!("{:.1}%", 100.0 * stats.short_flow_fraction()),
            format!("{:.1}", stats.mean_flow_len()),
            report.clusters.to_string(),
            format!("{:.0}%", 100.0 * long_share),
            format!("{:.2}%", 100.0 * report.ratio_vs_tsh),
        ]);
        eprintln!("  {name} done ({} packets)", trace.len());
    }
    println!("{table}");
    println!(
        "reading: P2P flows are long and diverse, so they bypass clustering and are\n\
         stored verbatim in long-flows-template — the ratio degrades toward the\n\
         Peuhkuri/VJ regime. The method's 3% headline is a *Web-traffic* property,\n\
         which is exactly why the paper scoped itself to Web flows (§1)."
    );
}
