//! End-to-end tests for queryable archives: the v2.1 metadata block must
//! make `flowzip query` decode *strictly fewer* sections than a full
//! decompression while returning byte-identical packets — and a Bloom
//! false positive must never change a result, only cost an extra
//! section decode.

use flowzip::core::{query_bytes, CompressedTrace, DecompressParams, Decompressor, FlowQuery};
use flowzip::pipeline::{Input, Pipeline, Sink};
use flowzip::trace::{tsh, FiveTuple, Trace};
use flowzip::traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use proptest::prelude::*;

/// A multi-section v2.1 archive built through the public pipeline, the
/// same way `flowzip compress --threads N` builds one.
fn sectioned_archive(flows: usize, seed: u64, shards: usize) -> Vec<u8> {
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows,
            ..WebTrafficConfig::default()
        },
        seed,
    )
    .generate();
    Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .threads(shards)
        .run()
        .unwrap()
        .into_bytes()
        .unwrap()
}

fn full_decode(bytes: &[u8]) -> Trace {
    Decompressor::new(DecompressParams::default())
        .decompress(&CompressedTrace::from_bytes(bytes).unwrap())
}

fn filtered(full: &Trace, target: &FiveTuple) -> Trace {
    Trace::from_packets(
        full.packets()
            .iter()
            .filter(|p| p.tuple().same_conversation(target))
            .cloned()
            .collect(),
    )
}

/// The ISSUE's acceptance criterion, verbatim: on a multi-section
/// archive a flow query decodes strictly fewer sections than full
/// decompression AND returns byte-identical packets to filtering a full
/// decode.
#[test]
fn query_decodes_strictly_fewer_sections_and_identical_packets() {
    let bytes = sectioned_archive(500, 42, 6);
    let full = full_decode(&bytes);

    // Every flow lives in exactly one section, so across a handful of
    // distinct conversations pruning must kick in every time metadata
    // rules the other sections out — require it for the majority, and
    // require byte-identity for all.
    let mut keys: Vec<FiveTuple> = Vec::new();
    for p in full.packets() {
        if keys.len() == 12 {
            break;
        }
        if !keys.iter().any(|k| k.same_conversation(&p.tuple())) {
            keys.push(p.tuple());
        }
    }
    assert_eq!(keys.len(), 12);

    let mut pruned = 0;
    for target in &keys {
        let query = FlowQuery {
            flow: Some(*target),
            ..FlowQuery::default()
        };
        let out = query_bytes(&bytes, &query, &DecompressParams::default()).unwrap();
        assert!(out.stats.has_metadata);
        assert_eq!(out.stats.sections_total, 6);
        if out.stats.sections_scanned < out.stats.sections_total {
            pruned += 1;
        }
        assert_eq!(
            tsh::to_bytes(&out.trace),
            tsh::to_bytes(&filtered(&full, target)),
            "query for {target:?} must be byte-identical to filter-after-full-decode"
        );
    }
    assert!(pruned >= 6, "only {pruned}/12 queries pruned any section");
}

/// The pipeline session reports the same pruning the core planner did,
/// and its sink output is the same bytes.
#[test]
fn pipeline_query_session_matches_core_planner() {
    let bytes = sectioned_archive(300, 7, 4);
    let full = full_decode(&bytes);
    let target = full.packets()[0].tuple();

    let result = Pipeline::query()
        .input(Input::bytes(bytes.clone()))
        .sink(Sink::bytes())
        .flow(target)
        .run()
        .unwrap();
    let stats = result.report.query.unwrap();

    let query = FlowQuery {
        flow: Some(target),
        ..FlowQuery::default()
    };
    let core = query_bytes(&bytes, &query, &DecompressParams::default()).unwrap();
    assert_eq!(stats, core.stats);
    assert_eq!(result.into_bytes().unwrap(), tsh::to_bytes(&core.trace));
}

proptest! {
    // `PROPTEST_CASES` (64 in CI) overrides this baseline.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bloom-filter false positives must be invisible in results:
    /// querying arbitrary tuples (present in the archive or not) always
    /// equals filtering a full decode. A false positive only means a
    /// section is scanned and contributes zero matches.
    #[test]
    fn bloom_false_positives_never_change_results(
        a in 1u8..=223, b in any::<u8>(), c in any::<u8>(), d in 1u8..=254,
        sport in 1024u16..=65000, dport in prop_oneof![Just(80u16), 1u16..=65000],
        seed in 0u64..=3,
    ) {
        let bytes = sectioned_archive(120, seed, 4);
        let full = full_decode(&bytes);
        let target = FiveTuple::tcp(
            std::net::Ipv4Addr::new(a, b, c, d), sport,
            std::net::Ipv4Addr::new(d, c, b, a), dport,
        );
        let query = FlowQuery { flow: Some(target), ..FlowQuery::default() };
        let out = query_bytes(&bytes, &query, &DecompressParams::default()).unwrap();
        prop_assert_eq!(
            tsh::to_bytes(&out.trace),
            tsh::to_bytes(&filtered(&full, &target))
        );
        // Stats stay consistent whether or not the Bloom probe lied.
        prop_assert_eq!(
            out.stats.sections_total,
            out.stats.sections_scanned + out.stats.sections_skipped()
        );
    }
}

/// A v1 archive has no section index, but its header still counts the
/// datasets: `query` reports the same template and address counts the
/// reader reads off the header (what `info` prints).
#[test]
fn query_on_a_v1_archive_reports_its_header_counts() {
    use flowzip::core::{ArchiveFormat, ArchiveReader};

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/web120_seed20050320.fzc");
    let bytes = std::fs::read(&path).unwrap();
    let (short, long, addresses, sections) = ArchiveReader::open(&bytes).unwrap().counts();
    let query = Pipeline::query().input(Input::file(&path)).run().unwrap();
    let summary = query.report.archive.unwrap();
    assert_eq!(summary.format, ArchiveFormat::V1);
    assert_eq!(summary.sections, 1);
    assert_eq!(
        (
            summary.short_templates,
            summary.long_templates,
            summary.addresses
        ),
        (31, 2, 51)
    );
    assert_eq!(
        (
            summary.short_templates,
            summary.long_templates,
            summary.addresses,
            summary.sections
        ),
        (short, long, addresses, sections)
    );
}
