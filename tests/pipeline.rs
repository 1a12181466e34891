//! End-to-end integration tests spanning the whole workspace: generate →
//! compress → serialize → decompress → replay, checking the properties
//! the paper claims at each boundary.

use flowzip::prelude::*;
use flowzip::trace::tsh;

fn web_trace(flows: usize, seed: u64) -> Trace {
    WebTrafficGenerator::new(
        WebTrafficConfig {
            flows,
            duration_secs: 30.0,
            ..WebTrafficConfig::default()
        },
        seed,
    )
    .generate()
}

#[test]
fn full_pipeline_preserves_flow_statistics() {
    let original = web_trace(500, 1);
    let (archive, report) = Compressor::new(Params::paper()).compress(&original);

    // Serialize through bytes (what would live on disk).
    let bytes = archive.to_bytes();
    let reloaded = CompressedTrace::from_bytes(&bytes).unwrap();
    let restored = Decompressor::default().decompress(&reloaded);

    assert_eq!(restored.len(), original.len(), "packet count preserved");
    let so = FlowTable::from_trace(&original).stats(50);
    let sd = FlowTable::from_trace(&restored).stats(50);
    assert_eq!(so.flows, sd.flows, "flow count preserved");
    assert!((so.short_flow_fraction() - sd.short_flow_fraction()).abs() < 0.02);
    assert!((so.mean_flow_len() - sd.mean_flow_len()).abs() < 0.5);

    // Flow-length distribution: KS over per-flow packet counts.
    let lens = |s: &FlowStats| {
        s.length_histogram
            .iter()
            .enumerate()
            .flat_map(|(n, &c)| std::iter::repeat_n(n as f64, c as usize))
            .collect::<Vec<f64>>()
    };
    let d = ks_distance(&lens(&so), &lens(&sd));
    assert!(d < 0.05, "flow-length distributions diverge: ks = {d}");

    // And it actually compressed: bytes on disk vs the TSH image.
    let ratio = bytes.len() as f64 / tsh::file_size(&original) as f64;
    assert!(ratio < 0.08, "on-disk ratio {ratio}");
    assert_eq!(report.packets, original.len() as u64);
}

#[test]
fn tsh_round_trip_through_disk_format() {
    let trace = web_trace(100, 4);
    let bytes = tsh::to_bytes(&trace);
    assert_eq!(bytes.len() as u64, trace.len() as u64 * 44);
    let back = tsh::read_trace(&bytes[..]).unwrap();
    assert_eq!(back, trace);
}

#[test]
fn gzip_on_tsh_image_round_trips() {
    use flowzip::deflate::{gzip_compress, gzip_decompress, Level};
    let trace = web_trace(80, 7);
    let image = tsh::to_bytes(&trace);
    for level in [Level::Fast, Level::Default, Level::Best] {
        let z = gzip_compress(&image, level);
        assert_eq!(gzip_decompress(&z).unwrap(), image);
        assert!(z.len() < image.len(), "TSH images are compressible");
    }
}

#[test]
fn clustering_is_the_mechanism_not_an_accident() {
    // With clustering disabled (similarity 0 and unique-template flows),
    // the archive must grow; with the paper's threshold it shrinks.
    let trace = web_trace(600, 9);
    let strict = Compressor::new(Params {
        similarity: 0.0,
        ..Params::paper()
    });
    let paper = Compressor::new(Params::paper());
    let (_, rs) = strict.compress(&trace);
    let (_, rp) = paper.compress(&trace);
    assert!(rs.clusters >= rp.clusters);
    assert!(rs.sizes.total() >= rp.sizes.total());
    // Even exact-match-only clustering crushes Web traffic, because many
    // flows are *identical* (§2.1's observation).
    assert!(rs.clusters < rs.short_flows / 2);
}
