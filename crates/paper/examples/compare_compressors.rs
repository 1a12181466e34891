//! Compare all four compression methods of §5 on one trace — the
//! at-a-glance version of Figure 1.
//!
//! Run with: `cargo run --release -p flowzip-paper --example compare_compressors`

use flowzip_analysis::TextTable;
use flowzip_core::{Compressor, Params};
use flowzip_deflate::{gzip_compress, Level};
use flowzip_paper::comp::VjCompressor;
use flowzip_paper::peuhkuri::PeuhkuriCompressor;
use flowzip_trace::{tsh, FlowTable};
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

fn main() {
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 3_000,
            duration_secs: 60.0,
            ..WebTrafficConfig::default()
        },
        7,
    )
    .generate();

    let tsh_image = tsh::to_bytes(&trace);
    let original = tsh_image.len() as f64;
    println!(
        "trace: {} packets / {} flows / {:.2} MB as TSH\n",
        trace.len(),
        FlowTable::from_trace(&trace).len(),
        original / 1e6
    );

    // GZIP over the TSH image (lossless).
    let gz = gzip_compress(&tsh_image, Level::Default);

    // Van Jacobson header compression (lossless).
    let vj = VjCompressor::new().compress_trace(&trace);

    // Peuhkuri flow-based reduction (lossy).
    let pk = PeuhkuriCompressor::new().compress_trace(&trace);

    // The proposed flow-clustering method (lossy).
    let (_, report) = Compressor::new(Params::paper()).compress(&trace);

    let mut table = TextTable::new(&["method", "bytes", "ratio", "paper says", "lossless"]);
    let mut row = |name: &str, bytes: f64, paper: &str, lossless: &str| {
        table.row_owned(vec![
            name.into(),
            format!("{:.0}", bytes),
            format!("{:.1}%", 100.0 * bytes / original),
            paper.into(),
            lossless.into(),
        ]);
    };
    row("original TSH", original, "100%", "-");
    row("gzip (deflate)", gz.len() as f64, "~50%", "yes");
    row("van jacobson", vj.len() as f64, "~30%", "yes");
    row("peuhkuri", pk.len() as f64, "~16%", "partly");
    row(
        "flow clustering",
        report.sizes.total() as f64,
        "~3%",
        "no (statistical)",
    );
    println!("{table}");

    println!(
        "flow clustering detail: {} clusters for {} short flows, {} long flows stored verbatim",
        report.clusters, report.short_flows, report.long_flows
    );
}
