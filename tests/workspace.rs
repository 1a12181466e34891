//! Workspace wiring smoke test: every facade re-export module must be
//! reachable under its documented name, and the paper's constants must
//! survive refactors.

use flowzip::prelude::*;

#[test]
fn every_facade_module_is_reachable() {
    // One cheap, observable touch per re-exported crate, through the
    // `flowzip::<module>` path the docs advertise.
    assert!(flowzip::trace::TcpFlags::SYN.contains(flowzip::trace::TcpFlags::SYN));
    assert!(flowzip::traffic::WebTrafficConfig::default().flows > 0);
    assert_eq!(flowzip::core::Params::paper().short_max, 50);
    assert!(
        flowzip::engine::StreamingEngine::builder()
            .build()
            .config()
            .shards
            == 1
    );
    assert_eq!(flowzip::io::IoStats::new().bytes_read(), 0);
    assert!(flowzip::obs::Metrics::enabled().is_enabled());
    let _ = flowzip::pipeline::Pipeline::compress;
    let _ = flowzip::serve::ServeSource::stdin;
    assert_eq!(flowzip::deflate::ratio(50, 100), 0.5);
    assert_eq!(flowzip::analysis::ks_distance(&[1.0], &[1.0]), 0.0);
}

#[test]
fn prelude_pulls_in_the_whole_pipeline_vocabulary() {
    // Names, not values: this fails to compile if the prelude loses a
    // re-export the examples and tests rely on.
    let _generate: fn(WebTrafficConfig, u64) -> WebTrafficGenerator = WebTrafficGenerator::new;
    let _compress: fn(Params) -> Compressor = Compressor::new;
    let _decompress: fn() -> Decompressor = Decompressor::default;
    let _engine: fn() -> EngineBuilder = StreamingEngine::builder;
    let _table: fn(&Trace) -> FlowTable = FlowTable::from_trace;
    let _ks: fn(&[f64], &[f64]) -> f64 = ks_distance;
    let _ = TcpFlags::SYN | TcpFlags::ACK;
}

#[test]
fn params_paper_matches_the_papers_constants() {
    use flowzip::core::{l1_distance, Params, Weights};

    let p = Params::paper();
    // §2: M(p) = 16·f1 + 4·f2 + 1·f3.
    assert_eq!(
        p.weights,
        Weights {
            flags: 16,
            dependence: 4,
            size: 1
        }
    );
    // §2: payload classes split at 500 bytes.
    assert_eq!(p.size_edge, 500);
    // §3: short flows are 2–50 packets.
    assert_eq!(p.short_max, 50);
    // Eq. (4): d_sim = 2% · (n · 50) — exactly n with paper constants.
    assert_eq!(p.per_packet_bound, 50);
    assert!((p.similarity - 0.02).abs() < 1e-12);
    assert!((p.d_sim(37) - 37.0).abs() < 1e-9);
    // Eq. (4)'s distance is L1: |0−2| + |16−16| + |32−30|.
    assert_eq!(l1_distance(&[0, 16, 32], &[2, 16, 30]), 4.0);
    // And `Default` must stay in sync with `paper()`.
    assert_eq!(Params::default(), p);
}

#[test]
fn compressed_trace_serialization_api_is_stable() {
    use flowzip::core::CompressedTrace;

    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 40,
            ..WebTrafficConfig::default()
        },
        11,
    )
    .generate();
    let (archive, _) = Compressor::new(Params::paper()).compress(&trace);
    let bytes = archive.to_bytes();
    let reloaded = CompressedTrace::from_bytes(&bytes).unwrap();
    assert_eq!(reloaded.packet_count(), archive.packet_count());
    assert_eq!(
        reloaded.to_bytes(),
        bytes,
        "serialization must be canonical"
    );
}
