//! The **query planner**: answer "which packets belong to this flow /
//! this time window" by decoding *only the sections that can contain
//! them*, using the v2.1 metadata block ([`crate::meta`]) as the index.
//!
//! # How pruning stays exact
//!
//! Every pruning decision is conservative:
//!
//! - **Time.** A section's metadata records the `[first_ts, last_ts]`
//!   range of its flows' start timestamps; a section is skipped only
//!   when that range misses the query window entirely
//!   ([`SectionMeta::intersects`](crate::meta::SectionMeta::intersects)).
//! - **Flow.** The Bloom filter stores exactly the synthesized
//!   client→server tuples decompression will emit for the section's
//!   records (see [`crate::meta`]); membership is probed in both
//!   orientations, and a Bloom filter has no false negatives. A false
//!   positive merely decodes a section the record-level filter then
//!   empties. When the archive's metadata was built under a *different*
//!   synthesis seed than the query runs with, the filters describe
//!   tuples that will never exist — they are ignored (time pruning
//!   stays valid).
//!
//! Surviving sections decode on the reader's one record path
//! (`ArchiveReader::records_matching`): one validating walk, which runs
//! a record-level filter — the ground truth the Bloom only
//! approximates — and counts the matching flows and their packets, then
//! the same stable `(first_ts, section)` merge a full decompression
//! reads, keeping exactly the flows the walk matched. Because endpoint
//! synthesis is position-independent (`synth_tuple`), decompressing the
//! filtered merge yields **byte-identical packets** to filtering a full
//! decompression after the fact; the query tests pin this.
//!
//! Planning and synthesis are separate steps: [`select_reader`] stops at
//! the filtered merge (a caller that only counts reads
//! [`QueryStats::packets`], which the walk summed from template lengths;
//! one that writes a capture drains [`Decompressor::packets`] over the
//! merge into its output), and [`query_bytes`] is [`select_reader`] plus
//! collecting that stream into a [`Trace`]. Neither holds more of the
//! archive than its bytes, the reader's resident datasets and one
//! record per surviving section.

use crate::container::{ArchiveReader, Records};
use crate::datasets::{CodecError, FlowRecord};
use crate::decompress::{synth_tuple, DecompressParams, Decompressor};
use crate::meta::ArchiveMeta;
use flowzip_trace::{FiveTuple, Timestamp, Trace};
use std::net::Ipv4Addr;

/// What to look for: a conversation, a time window, or both. An empty
/// query matches everything (a full decompression with statistics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowQuery {
    /// Match flows whose synthesized five-tuple is the same
    /// conversation (either direction) as this one.
    pub flow: Option<FiveTuple>,
    /// Keep only flows whose *first packet* is at or after this time.
    pub from: Option<Timestamp>,
    /// Keep only flows whose first packet is at or before this time.
    pub to: Option<Timestamp>,
}

impl FlowQuery {
    /// `true` when `record` (resolving addresses through `addresses`)
    /// satisfies this query under synthesis seed `seed` — the exact
    /// record-level filter that pruning approximates.
    pub fn matches(&self, seed: u64, addresses: &[Ipv4Addr], record: &FlowRecord) -> bool {
        if self.from.is_some_and(|t| record.first_ts < t) {
            return false;
        }
        if self.to.is_some_and(|t| record.first_ts > t) {
            return false;
        }
        match &self.flow {
            None => true,
            Some(q) => synth_tuple(
                seed,
                record.first_ts,
                addresses[record.addr_idx as usize],
                record.rtt,
                record.is_long,
            )
            .same_conversation(q),
        }
    }
}

/// Planner effectiveness counters — what `flowzip query` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Sections in the archive.
    pub sections_total: u64,
    /// Sections actually decoded.
    pub sections_scanned: u64,
    /// Sections skipped because their time range misses the window.
    pub sections_skipped_time: u64,
    /// Sections skipped because the Bloom filter rejects the flow.
    pub sections_skipped_bloom: u64,
    /// Whether the archive carried a v2.1 metadata block (without one,
    /// every section is scanned).
    pub has_metadata: bool,
    /// Flow records in the whole archive.
    pub flows_total: u64,
    /// Flow records that matched the query.
    pub flows_matched: u64,
    /// Packets in the query result.
    pub packets: u64,
}

impl QueryStats {
    /// Sections pruned without decoding (time + Bloom).
    pub fn sections_skipped(&self) -> u64 {
        self.sections_skipped_time + self.sections_skipped_bloom
    }
}

/// A query's result: the decompressed matching packets and the planner
/// counters.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Matching packets, time-sorted — byte-identical to filtering a
    /// full decompression of the same archive.
    pub trace: Trace,
    /// What the planner did to produce it.
    pub stats: QueryStats,
}

/// A query's answer before synthesis: the matching flows, merged, and
/// the planner counters. Draining [`Decompressor::packets`] over
/// [`QuerySelection::records`] yields the matching packets in capture
/// order; a caller that only wants the counts reads
/// [`QueryStats::packets`] and synthesizes nothing.
#[derive(Debug)]
pub struct QuerySelection<'r> {
    /// The surviving sections' flows that match, in capture order.
    pub records: Records<'r>,
    /// What the planner did; `packets` is the matching flows' template
    /// lengths summed.
    pub stats: QueryStats,
}

/// Plans `query` against serialized archive bytes (v1 or v2; pruning
/// needs v2 with the rev 2.1 metadata block — anything else degrades to
/// scanning every section, never to a wrong answer), then synthesizes
/// the matching packets and collects them into a [`Trace`].
///
/// # Errors
///
/// [`CodecError`] for malformed input.
pub fn query_bytes(
    data: &[u8],
    query: &FlowQuery,
    dp: &DecompressParams,
) -> Result<QueryOutcome, CodecError> {
    let reader = ArchiveReader::open(data)?;
    let QuerySelection { records, stats } = select_reader(&reader, query, dp)?;
    let trace = Decompressor::new(dp.clone()).packets(records).collect();
    Ok(QueryOutcome { trace, stats })
}

/// Should the planner decode section `i`? Updates the skip counters.
fn survives(
    meta: &ArchiveMeta,
    i: usize,
    query: &FlowQuery,
    seed: u64,
    stats: &mut QueryStats,
) -> bool {
    let m = &meta.sections[i];
    if !m.intersects(query.from, query.to) {
        stats.sections_skipped_time += 1;
        return false;
    }
    if let Some(flow) = &query.flow {
        // The filters index tuples synthesized under the *archive's*
        // seed; under any other decompression seed they are inapplicable.
        if meta.seed == seed && !m.bloom.contains_conversation(flow) {
            stats.sections_skipped_bloom += 1;
            return false;
        }
    }
    true
}

/// Plans `query` over an opened archive: the sections whose metadata
/// cannot rule the query out are walked and merged on the reader's one
/// record path, and the record-level filter keeps the flows that match.
/// A caller that also wants header facts (counts, telemetry) reads them
/// off the same reader instead of parsing the file twice.
///
/// # Errors
///
/// [`CodecError`] for a malformed surviving section.
pub fn select_reader<'r>(
    reader: &'r ArchiveReader<'_>,
    query: &FlowQuery,
    dp: &DecompressParams,
) -> Result<QuerySelection<'r>, CodecError> {
    let mut stats = QueryStats {
        sections_total: reader.counts().3,
        has_metadata: reader.metadata().is_some(),
        flows_total: reader.flows(),
        ..QueryStats::default()
    };
    let keep: Vec<bool> = (0..stats.sections_total as usize)
        .map(|i| {
            reader
                .metadata()
                .is_none_or(|meta| survives(meta, i, query, dp.seed, &mut stats))
        })
        .collect();
    stats.sections_scanned = keep.iter().filter(|&&k| k).count() as u64;
    // Survivors keep their relative order, so the stable merge of the
    // subset is a subsequence of the full merge — order preserved.
    let records = reader.records_matching(
        |i| keep[i],
        |r| query.matches(dp.seed, reader.addresses(), r),
    )?;
    stats.flows_matched = records.flows();
    stats.packets = records.packets();
    Ok(QuerySelection { records, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulate::FlowAccumulator;
    use crate::compress::{assemble_sections, Compressor, FlowAssembler};
    use crate::datasets::CompressedTrace;
    use crate::Params;
    use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

    fn web_trace(flows: usize, seed: u64) -> Trace {
        WebTrafficGenerator::new(
            WebTrafficConfig {
                flows,
                ..WebTrafficConfig::default()
            },
            seed,
        )
        .generate()
    }

    /// A multi-section v2.1 archive: shard flows round-robin across
    /// `shards` assemblers, exactly like the streaming engine.
    fn sectioned_archive(flows: usize, seed: u64, shards: usize) -> Vec<u8> {
        let trace = web_trace(flows, seed);
        let params = Params::paper();
        let mut acc = FlowAccumulator::new(params.clone());
        for p in &trace {
            acc.push(p);
        }
        let finished: Vec<_> = acc.flush().collect();
        let mut asms: Vec<FlowAssembler> = (0..shards)
            .map(|_| FlowAssembler::new(params.clone()))
            .collect();
        for (i, flow) in finished.iter().enumerate() {
            asms[i % shards].consume(flow);
        }
        let sections = asms.into_iter().map(FlowAssembler::into_section).collect();
        let tsh = flowzip_trace::tsh::file_size(&trace);
        let hdr = trace.header_bytes();
        assemble_sections(&params, sections, tsh, hdr).0
    }

    /// The reference a query must equal: decompress *everything*, then
    /// filter packets to the conversation.
    fn filter_after_full_decode(bytes: &[u8], dp: &DecompressParams, q: &FiveTuple) -> Trace {
        let full =
            Decompressor::new(dp.clone()).decompress(&CompressedTrace::from_bytes(bytes).unwrap());
        Trace::from_packets(
            full.packets()
                .iter()
                .filter(|p| p.tuple().same_conversation(q))
                .cloned()
                .collect(),
        )
    }

    #[test]
    fn flow_query_prunes_and_matches_reference() {
        let bytes = sectioned_archive(400, 21, 6);
        let dp = DecompressParams::default();
        let full =
            Decompressor::new(dp.clone()).decompress(&CompressedTrace::from_bytes(&bytes).unwrap());
        // Query every distinct conversation in the archive: each must
        // come back byte-identical to filter-after-full-decode, and at
        // least one must actually prune (shards split the key space).
        let mut keys: Vec<FiveTuple> = Vec::new();
        for p in full.packets() {
            if !keys.iter().any(|k| k.same_conversation(&p.tuple())) {
                keys.push(p.tuple());
            }
        }
        assert!(keys.len() > 10);
        let mut pruned_any = false;
        for q in keys.iter().take(24) {
            let out = query_bytes(
                &bytes,
                &FlowQuery {
                    flow: Some(*q),
                    ..FlowQuery::default()
                },
                &dp,
            )
            .unwrap();
            assert!(out.stats.has_metadata);
            assert_eq!(out.stats.sections_total, 6);
            assert!(out.stats.flows_matched >= 1);
            assert_eq!(out.stats.packets, out.trace.len() as u64);
            pruned_any |= out.stats.sections_skipped_bloom > 0;
            let reference = filter_after_full_decode(&bytes, &dp, q);
            assert_eq!(out.trace.packets(), reference.packets());
        }
        assert!(pruned_any, "no query skipped any section via the Bloom");
    }

    #[test]
    fn time_window_query_prunes_and_matches_reference() {
        let bytes = sectioned_archive(300, 22, 5);
        let dp = DecompressParams::default();
        let full_ct = CompressedTrace::from_bytes(&bytes).unwrap();
        let span_start = full_ct.time_seq.first().unwrap().first_ts;
        let span_end = full_ct.time_seq.last().unwrap().first_ts;
        let mid = Timestamp::from_micros((span_start.as_micros() + span_end.as_micros()) / 2);
        let query = FlowQuery {
            from: Some(span_start),
            to: Some(mid),
            ..FlowQuery::default()
        };
        let out = query_bytes(&bytes, &query, &dp).unwrap();
        // Reference: record-filter the fully-decoded archive, decompress.
        let mut ref_ct = full_ct.clone();
        ref_ct
            .time_seq
            .retain(|r| query.matches(dp.seed, &ref_ct.addresses.clone(), r));
        let reference = Decompressor::new(dp.clone()).decompress(&ref_ct);
        assert_eq!(out.trace.packets(), reference.packets());
        assert_eq!(out.stats.flows_matched, ref_ct.time_seq.len() as u64);
    }

    #[test]
    fn empty_query_is_full_decompression() {
        let bytes = sectioned_archive(200, 23, 4);
        let dp = DecompressParams::default();
        let out = query_bytes(&bytes, &FlowQuery::default(), &dp).unwrap();
        let full =
            Decompressor::new(dp.clone()).decompress(&CompressedTrace::from_bytes(&bytes).unwrap());
        assert_eq!(out.trace.packets(), full.packets());
        assert_eq!(out.stats.sections_scanned, out.stats.sections_total);
        assert_eq!(out.stats.flows_matched, out.stats.flows_total);
    }

    #[test]
    fn plain_v2_without_metadata_scans_everything_correctly() {
        let trace = web_trace(150, 24);
        let ct = Compressor::new(Params::paper()).compress(&trace).0;
        let bytes = ct.encode_v2_opts(false, None).0;
        let dp = DecompressParams::default();
        let full = Decompressor::new(dp.clone()).decompress(&ct);
        let q = full.packets()[0].tuple();
        let out = query_bytes(
            &bytes,
            &FlowQuery {
                flow: Some(q),
                ..FlowQuery::default()
            },
            &dp,
        )
        .unwrap();
        assert!(!out.stats.has_metadata);
        assert_eq!(out.stats.sections_scanned, out.stats.sections_total);
        assert_eq!(out.stats.sections_skipped(), 0);
        let reference = filter_after_full_decode(&bytes, &dp, &q);
        assert_eq!(out.trace.packets(), reference.packets());
    }

    #[test]
    fn foreign_seed_ignores_bloom_but_stays_correct() {
        let bytes = sectioned_archive(200, 25, 4);
        let dp = DecompressParams {
            seed: 0xD1FF,
            ..DecompressParams::default()
        };
        let full =
            Decompressor::new(dp.clone()).decompress(&CompressedTrace::from_bytes(&bytes).unwrap());
        let q = full.packets()[0].tuple();
        let out = query_bytes(
            &bytes,
            &FlowQuery {
                flow: Some(q),
                ..FlowQuery::default()
            },
            &dp,
        )
        .unwrap();
        // The archive's Bloom keys assume DEFAULT_SEED; under 0xD1FF
        // they are inapplicable and must not prune.
        assert_eq!(out.stats.sections_skipped_bloom, 0);
        assert!(out.stats.flows_matched >= 1);
        let reference = filter_after_full_decode(&bytes, &dp, &q);
        assert_eq!(out.trace.packets(), reference.packets());
    }

    #[test]
    fn v1_archive_queries_as_one_section() {
        let trace = web_trace(120, 26);
        let ct = Compressor::new(Params::paper()).compress(&trace).0;
        let bytes = ct.to_bytes();
        let dp = DecompressParams::default();
        let full = Decompressor::new(dp.clone()).decompress(&ct);
        let q = full.packets()[0].tuple();
        let out = query_bytes(
            &bytes,
            &FlowQuery {
                flow: Some(q),
                ..FlowQuery::default()
            },
            &dp,
        )
        .unwrap();
        assert_eq!(out.stats.sections_total, 1);
        assert_eq!(out.stats.sections_scanned, 1);
        let reference = filter_after_full_decode(&bytes, &dp, &q);
        assert_eq!(out.trace.packets(), reference.packets());
    }

    #[test]
    fn reader_sections_visit_every_record_once() {
        let bytes = sectioned_archive(250, 27, 5);
        let full = CompressedTrace::from_bytes(&bytes).unwrap();
        let reader = ArchiveReader::open(&bytes).unwrap();
        assert_eq!(reader.counts().3, 5);
        assert_eq!(reader.short_templates(), &full.short_templates[..]);
        assert_eq!(reader.addresses(), &full.addresses[..]);
        let meta = reader.metadata().unwrap();
        // Each section alone yields its own records, in order, each once.
        let mut records = 0;
        for (i, meta) in meta.sections.iter().enumerate() {
            let flows: Vec<_> = reader.records(|k| k == i).unwrap().collect();
            assert_eq!(meta.flows, flows.len() as u64);
            for (index, flow) in flows.iter().enumerate() {
                assert_eq!((flow.section, flow.index), (i, index));
                assert_eq!(flow.server, full.addresses[flow.record.addr_idx as usize]);
                assert_eq!(flow.packets, full.flow_len(&flow.record));
            }
            records += flows.len();
        }
        assert_eq!(records, full.time_seq.len());
        // All sections at once: the merge is the full time-seq dataset.
        let merged = reader.records(|_| true).unwrap();
        assert_eq!(merged.flows(), full.time_seq.len() as u64);
        assert_eq!(merged.packets(), full.packet_count());
        let merged: Vec<FlowRecord> = merged.map(|f| f.record).collect();
        assert_eq!(merged, full.time_seq);
    }
}
