//! **§5 in-text ratios** — measured and analytic compression ratios of
//! the four methods: gzip ≈ 50%, Van Jacobson ≈ 30%, Peuhkuri ≈ 16%,
//! proposed ≈ 3%.
//!
//! ```text
//! cargo run --release -p flowzip-paper --bin table_ratios \
//!     [--flows 5000] [--seed N]
//! ```

use flowzip_analysis::TextTable;
use flowzip_core::{Compressor, Params};
use flowzip_deflate::{gzip_compress, Level};
use flowzip_paper::comp::VjCompressor;
use flowzip_paper::model::Method;
use flowzip_paper::peuhkuri::PeuhkuriCompressor;
use flowzip_paper::{original_trace, Args, DEFAULT_SEED};
use flowzip_trace::{tsh, FlowTable};

fn main() {
    let args = Args::parse();
    let flows = args.get_u64("flows", 5_000) as usize;
    let seed = args.get_u64("seed", DEFAULT_SEED);

    eprintln!("generating {flows} web flows (seed {seed})...");
    let trace = original_trace(flows, 60.0, seed);
    let image = tsh::to_bytes(&trace);
    let original = image.len() as f64;
    let stats = FlowTable::from_trace(&trace).stats(50);
    let pmf = stats.length_pmf();

    eprintln!("compressing with all four methods...");
    let gzip = gzip_compress(&image, Level::Default).len() as f64 / original;
    let vj_measured = VjCompressor::new().compress_trace(&trace).len() as f64 / original;
    let vj_model = Method::VanJacobson.expected_ratio(&pmf);
    let pk_measured = PeuhkuriCompressor::new().compress_trace(&trace).len() as f64 / original;
    let pk_model = Method::Peuhkuri.expected_ratio(&pmf);
    let (_, report) = Compressor::new(Params::paper()).compress(&trace);
    let fc_measured = report.ratio_vs_tsh;
    let fc_model = Method::FlowClustering.expected_ratio(&pmf);

    println!(
        "\n§5 compression ratios — {} packets / {} flows / {:.1} MB TSH / mean flow {:.1} pkts\n",
        trace.len(),
        stats.flows,
        original / 1e6,
        stats.mean_flow_len()
    );
    let mut table = TextTable::new(&["method", "measured", "model (Eq. 5-8)", "paper"]);
    let pct = |x: f64| format!("{:.1}%", 100.0 * x);
    table.row_owned(vec![
        "gzip (deflate)".into(),
        pct(gzip),
        "-".into(),
        "~50%".into(),
    ]);
    table.row_owned(vec![
        "van jacobson".into(),
        pct(vj_measured),
        pct(vj_model),
        "~30%".into(),
    ]);
    table.row_owned(vec![
        "peuhkuri".into(),
        pct(pk_measured),
        pct(pk_model),
        "~16%".into(),
    ]);
    table.row_owned(vec![
        "flow clustering".into(),
        pct(fc_measured),
        pct(fc_model),
        "~3%".into(),
    ]);
    println!("{table}");

    println!("flow clustering internals: {report}");
    println!("dataset breakdown: {}", report.sizes);
}
