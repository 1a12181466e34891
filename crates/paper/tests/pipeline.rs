//! End-to-end tests of the lab: the §5 ratio ordering and models, the
//! baselines' round trips on generated traffic, and the §6 kernels on
//! the decompressed trace.

use flowzip_analysis::ks_distance;
use flowzip_core::{Compressor, Params};
use flowzip_deflate::{gzip_compress, Level};
use flowzip_paper::comp::{VjCompressor, VjDecompressor};
use flowzip_paper::decompressed;
use flowzip_paper::model::Method;
use flowzip_paper::peuhkuri::{self, PeuhkuriCompressor};
use flowzip_paper::route::RouteBench;
use flowzip_paper::runner::{BenchConfig, BenchReport, PacketProcessor};
use flowzip_trace::{tsh, FlowTable, Trace};
use flowzip_traffic::randomize_destinations;
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

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
fn every_lab_module_is_reachable() {
    // One cheap, observable touch per module group the crate docs list.
    assert!(Method::VanJacobson.ratio_for_flow_len(1) > 0.0);
    assert_eq!(&peuhkuri::MAGIC, b"PKT1");
    assert!(flowzip_paper::trie::RadixTable::<u32>::new().is_empty());
    assert!(flowzip_paper::cache::CacheConfig::netbench_l1()
        .validate()
        .is_ok());
    assert_eq!(
        flowzip_paper::runner::BenchKind::parse("route"),
        Some(flowzip_paper::runner::BenchKind::Route)
    );
}

#[test]
fn compression_ratio_ordering_matches_figure_1() {
    let trace = web_trace(800, 2);
    let image = tsh::to_bytes(&trace);
    let original = image.len() as f64;

    let gzip = gzip_compress(&image, Level::Default).len() as f64 / original;
    let vj = VjCompressor::new().compress_trace(&trace).len() as f64 / original;
    let pk = PeuhkuriCompressor::new().compress_trace(&trace).len() as f64 / original;
    let (_, report) = Compressor::new(Params::paper()).compress(&trace);
    let fc = report.ratio_vs_tsh;

    // Figure 1's ordering: original > gzip > vj > peuhkuri > proposed.
    assert!(gzip < 1.0, "gzip {gzip}");
    assert!(vj < gzip, "vj {vj} vs gzip {gzip}");
    assert!(pk < vj, "peuhkuri {pk} vs vj {vj}");
    assert!(fc < pk, "proposed {fc} vs peuhkuri {pk}");
    // And the proposed method is in the paper's ballpark.
    assert!(fc < 0.06, "proposed ratio {fc} should be a few percent");
}

#[test]
fn decompressed_trace_drives_benchmarks_like_the_original() {
    let original = web_trace(400, 3);
    let (archive, _) = Compressor::new(Params::paper()).compress(&original);
    let decompressed = decompressed(&archive);
    let random = randomize_destinations(&original, 44);

    let cfg = BenchConfig::default();
    let mut bench = RouteBench::covering_servers(&cfg, &original);
    let ro = bench.run(&original);
    let rd = bench.run(&decompressed);
    let rr = bench.run(&random);

    let acc = |r: &BenchReport| {
        r.costs
            .iter()
            .map(|c| c.accesses as f64)
            .collect::<Vec<_>>()
    };
    let ks_dec = ks_distance(&acc(&ro), &acc(&rd));
    let ks_rand = ks_distance(&acc(&ro), &acc(&rr));
    assert!(
        ks_dec < ks_rand,
        "decompressed (ks {ks_dec}) must track the original better than random (ks {ks_rand})"
    );

    // Figure 3's headline: the random trace shifts miss-rate mass upward.
    assert!(
        rr.mean_miss_rate() > rd.mean_miss_rate() * 1.5,
        "random {:.4} vs decompressed {:.4}",
        rr.mean_miss_rate(),
        rd.mean_miss_rate()
    );
    assert!(
        (ro.mean_miss_rate() - rd.mean_miss_rate()).abs() < 0.02,
        "original {:.4} vs decompressed {:.4}",
        ro.mean_miss_rate(),
        rd.mean_miss_rate()
    );
}

#[test]
fn vj_round_trip_is_exact_on_generated_traffic() {
    let trace = web_trace(150, 5);
    let bytes = VjCompressor::new().compress_trace(&trace);
    let back = VjDecompressor::new().decompress_trace(&bytes).unwrap();
    assert_eq!(back, trace, "VJ is lossless down to every header field");
}

#[test]
fn peuhkuri_round_trip_preserves_its_contract() {
    let trace = web_trace(150, 6);
    let back = peuhkuri::decompress(&PeuhkuriCompressor::new().compress_trace(&trace)).unwrap();
    assert_eq!(back.len(), trace.len());
    for (a, b) in trace.iter().zip(back.iter()) {
        assert_eq!(a.tuple(), b.tuple());
        assert_eq!(a.timestamp(), b.timestamp());
        assert_eq!(a.flags(), b.flags());
        assert_eq!(a.payload_len(), b.payload_len());
    }
}

#[test]
fn analytic_models_track_measured_ratios() {
    let trace = web_trace(1_000, 8);
    let stats = FlowTable::from_trace(&trace).stats(50);
    let pmf = stats.length_pmf();

    // VJ: model vs measured within a factor of 1.6 (the model is the
    // paper's lower bound; the implementation pays varint overhead).
    let vj_model = Method::VanJacobson.expected_ratio(&pmf);
    let vj_measured =
        VjCompressor::new().compress_trace(&trace).len() as f64 / tsh::file_size(&trace) as f64;
    assert!(
        vj_measured < vj_model * 1.8 && vj_measured > vj_model * 0.5,
        "vj model {vj_model:.3} vs measured {vj_measured:.3}"
    );

    // Proposed: Eq. (8) vs measured.
    let fc_model = Method::FlowClustering.expected_ratio(&pmf);
    let (_, report) = Compressor::new(Params::paper()).compress(&trace);
    assert!(
        report.ratio_vs_tsh < fc_model * 3.0,
        "proposed model {fc_model:.4} vs measured {:.4}",
        report.ratio_vs_tsh
    );
}
