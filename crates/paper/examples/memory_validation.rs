//! The §6 validation in miniature: replay four traces (original,
//! decompressed, random-address, fractal) through the radix-tree Route
//! kernel and compare per-packet memory accesses and cache miss rates.
//!
//! Run with: `cargo run --release -p flowzip-paper --example memory_validation`

use flowzip_analysis::{ks_distance, BucketedHistogram, TextTable};
use flowzip_core::{Compressor, Params};
use flowzip_paper::decompressed;
use flowzip_paper::route::RouteBench;
use flowzip_paper::runner::{BenchConfig, BenchReport, PacketProcessor};
use flowzip_trace::Trace;
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use flowzip_traffic::{fractal_trace, randomize_destinations, FractalTraceConfig};

fn main() {
    // The four traces of §6.1.
    let original = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 1_000,
            duration_secs: 30.0,
            ..WebTrafficConfig::default()
        },
        21,
    )
    .generate();

    let (archive, _) = Compressor::new(Params::paper()).compress(&original);
    let decompressed = decompressed(&archive);
    let random = randomize_destinations(&original, 99);
    let fractal = fractal_trace(
        &FractalTraceConfig {
            packets: original.len(),
            ..FractalTraceConfig::default()
        },
        5,
    );

    // One fixed routing table, built from the original trace's *server*
    // destinations plus background prefixes — the same table serves all
    // four replays, exactly as the paper runs one benchmark binary over
    // four input traces.
    let cfg = BenchConfig::default();
    let mut bench = RouteBench::covering_servers(&cfg, &original);
    let mut run = |name: &str, t: &Trace| {
        let report = bench.run(t);
        println!("{name:>13}: {report}");
        report
    };

    println!("radix-tree Route kernel, L1 = 16 KiB 2-way 32 B lines\n");
    let ro = run("original", &original);
    let rd = run("decompressed", &decompressed);
    let rr = run("random", &random);
    let rf = run("fractal", &fractal);

    // Figure-2 style comparison: KS distance between access distributions.
    let accesses = |r: &BenchReport| {
        r.costs
            .iter()
            .map(|c| c.accesses as f64)
            .collect::<Vec<_>>()
    };
    let a0 = accesses(&ro);
    println!("\nKS distance of per-packet access distributions vs original:");
    for (name, r) in [("decompressed", &rd), ("random", &rr), ("fractal", &rf)] {
        println!("  {name:>13}: {:.3}", ks_distance(&a0, &accesses(r)));
    }

    // Figure-3 style comparison: miss-rate buckets.
    println!("\ncache miss-rate buckets (percent of packets):");
    let mut table = TextTable::new(&["trace", "0%-5%", "5%-10%", "10%-20%", ">20%"]);
    for (name, r) in [
        ("original", &ro),
        ("decompressed", &rd),
        ("random", &rr),
        ("fractal", &rf),
    ] {
        let mut h = BucketedHistogram::figure3();
        h.extend(r.costs.iter().map(|c| c.miss_rate()));
        let p = h.percentages();
        table.row_owned(vec![
            name.into(),
            format!("{:.1}", p[0]),
            format!("{:.1}", p[1]),
            format!("{:.1}", p[2]),
            format!("{:.1}", p[3]),
        ]);
    }
    println!("{table}");
    println!("expected shape: original ≈ decompressed; random/fractal diverge (§6)");
}
