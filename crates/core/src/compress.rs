//! The compressor pipeline: accumulate → cluster → assemble datasets.

use crate::accumulate::{FinishedFlow, FlowAccumulator};
use crate::cluster::TemplateStore;
use crate::container::{put_encoded_long_template, ArchiveLayout, ShardSection};
use crate::datasets::{CompressedTrace, DatasetSizes, FlowRecord, LongTemplate};
use crate::decode::{copy_long_template, ByteCursor};
use crate::telemetry::FlowTelemetry;
use crate::Params;
use flowzip_trace::Trace;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// What the compressor did, in the terms §3 and §5 report.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionReport {
    /// Packets consumed.
    pub packets: u64,
    /// Flows found (short + long).
    pub flows: u64,
    /// Flows with at most `short_max` packets.
    pub short_flows: u64,
    /// Flows stored verbatim in `long-flows-template`.
    pub long_flows: u64,
    /// Short flows that joined an existing cluster.
    pub matched_flows: u64,
    /// Cluster centers created (size of `short-flows-template`).
    pub clusters: u64,
    /// Unique destination addresses.
    pub addresses: u64,
    /// Open-flow high-water mark, the memory-relevant figure. For a
    /// single accumulator this is the true count of simultaneously open
    /// flows; for sharded streaming runs it is the *sum of per-shard
    /// peaks* — an upper bound on true concurrency, since shards may
    /// peak at different moments. Zero when the producer did not track
    /// it (e.g. [`Compressor::assemble`] on pre-cooked flows).
    pub peak_active_flows: u64,
    /// Serialized size per dataset.
    pub sizes: DatasetSizes,
    /// Original size as a 44-byte-record TSH file.
    pub tsh_bytes: u64,
    /// `sizes.total() / tsh_bytes` — the §5 compression ratio.
    pub ratio_vs_tsh: f64,
    /// `sizes.total() / (packets · 40)` — ratio against bare headers.
    pub ratio_vs_headers: f64,
}

impl fmt::Display for CompressionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} packets in {} flows ({} short / {} long); {} clusters hold {} matched flows; \
             {} B compressed = {:.2}% of TSH",
            self.packets,
            self.flows,
            self.short_flows,
            self.long_flows,
            self.clusters,
            self.matched_flows,
            self.sizes.total(),
            100.0 * self.ratio_vs_tsh
        )
    }
}

/// The TCP-flow-clustering trace compressor (§3).
#[derive(Debug, Clone)]
pub struct Compressor {
    params: Params,
}

impl Compressor {
    /// Creates a compressor with the given parameters
    /// ([`Params::paper`] for the paper's configuration).
    pub fn new(params: Params) -> Compressor {
        Compressor { params }
    }

    /// The active parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Compresses a trace into the four datasets plus a report.
    pub fn compress(&self, trace: &Trace) -> (CompressedTrace, CompressionReport) {
        // Phase 1: flow accumulation (§3's linked-list pass).
        let mut acc = FlowAccumulator::new(self.params.clone());
        for p in trace {
            acc.push(p);
        }
        let peak = acc.peak_active_flows() as u64;
        let flows: Vec<_> = acc.flush().collect();
        let (compressed, mut report) = self.assemble(trace, flows);
        report.peak_active_flows = peak;
        (compressed, report)
    }

    /// Builds the datasets from finished flows (exposed for tests and
    /// ablations that pre-cook flows).
    pub fn assemble(
        &self,
        trace: &Trace,
        flows: Vec<FinishedFlow>,
    ) -> (CompressedTrace, CompressionReport) {
        let mut asm = FlowAssembler::new(self.params.clone());
        for flow in &flows {
            asm.consume(flow);
        }
        let (compressed, report) = assemble_shards(
            &self.params,
            vec![asm],
            flowzip_trace::tsh::file_size(trace),
            trace.header_bytes(),
        );
        (compressed, report)
    }
}

/// One flow, characterized and clustered shard-locally, awaiting final
/// index assignment: its time-seq record before the indices are known.
#[derive(Debug, Clone, Copy)]
struct PendingFlow {
    first_ts: flowzip_trace::Timestamp,
    /// Zero for long flows, which carry their timing in the template.
    rtt: flowzip_trace::Duration,
    /// The destination address as `u32::from(Ipv4Addr)`, until
    /// [`FlowAssembler::into_section`] overwrites it with the address's
    /// local index.
    addr: u32,
    /// Index into the owning assembler's template list (short) or its
    /// long-template slice (long), shifted left once; the low bit is the
    /// long flag, as the wire record packs it. A section holds fewer
    /// than 2^31 of each.
    template: u32,
}

// One record per finished flow is the compress path's O(flows) term.
const _: () = assert!(std::mem::size_of::<PendingFlow>() <= 24);

impl PendingFlow {
    fn is_long(&self) -> bool {
        self.template & 1 == 1
    }

    /// The index into the owning assembler's short or long templates.
    fn local_template(&self) -> u32 {
        self.template >> 1
    }

    /// The time-seq record under the given indices.
    fn record(&self, template_idx: u32, addr_idx: u32) -> FlowRecord {
        FlowRecord {
            first_ts: self.first_ts,
            is_long: self.is_long(),
            template_idx,
            addr_idx,
            rtt: self.rtt,
        }
    }
}

/// The per-flow half of dataset assembly: finished flows go in, a local
/// `short-flows-template` store, the encoded `long-flows-template` slice
/// and pending flow records come out.
///
/// This is the single implementation of §3's short/long branch, shared
/// by the batch [`Compressor`] (one assembler, folded by
/// [`assemble_shards`]) and the sharded streaming engine (one assembler
/// per shard, each encoded by [`FlowAssembler::into_section`] and folded
/// by [`assemble_sections`]) — so the two pipelines cannot drift apart.
///
/// Until the section is written it keeps 24 B per finished flow (its
/// [`FlowRecord`] with the address still unindexed), plus one telemetry
/// row when built with telemetry on, plus each long flow's encoded
/// template.
#[derive(Debug)]
pub struct FlowAssembler {
    short_max: usize,
    store: TemplateStore,
    /// The section's long-flows-template slice in wire form: per long
    /// flow, its packet count then its log, appended as it arrives —
    /// long flows are never decoded on the compress path.
    long_payload: Vec<u8>,
    /// The short flow's `M` vector, decoded for clustering (reused).
    vector: Vec<u16>,
    /// One record per consumed flow, in consume order.
    pending: Vec<PendingFlow>,
    /// `pending`'s telemetry rows, index for index; `None` unless built
    /// with telemetry on.
    telemetry: Option<Vec<FlowTelemetry>>,
    packets: u64,
    short_flows: u64,
    long_flows: u64,
}

impl FlowAssembler {
    /// Creates an empty assembler clustering under `params`.
    pub fn new(params: Params) -> FlowAssembler {
        FlowAssembler::with_telemetry(params, false)
    }

    /// [`FlowAssembler::new`] with the telemetry column made explicit:
    /// when on, [`FlowAssembler::into_section`] emits one telemetry row
    /// per flow record (every consumed flow must then carry one — feed
    /// it from a [`FlowAccumulator`] running with the same knob).
    pub fn with_telemetry(params: Params, telemetry: bool) -> FlowAssembler {
        FlowAssembler {
            short_max: params.short_max,
            store: TemplateStore::new(params),
            long_payload: Vec::new(),
            vector: Vec::new(),
            pending: Vec::new(),
            telemetry: telemetry.then(Vec::new),
            packets: 0,
            short_flows: 0,
            long_flows: 0,
        }
    }

    /// Consumes one finished flow: short flows are offered to the local
    /// template store, long flows stored verbatim.
    ///
    /// # Panics
    ///
    /// When the assembler was built with telemetry on and `flow` carries
    /// no telemetry row.
    pub fn consume(&mut self, flow: &FinishedFlow) {
        self.packets += flow.len() as u64;
        let (template, rtt) = if flow.is_short(self.short_max) {
            self.short_flows += 1;
            flow.decode_vector(&mut self.vector);
            let outcome = self.store.offer(&self.vector);
            (outcome.index() << 1, flow.rtt)
        } else {
            // "For long flows, we do not perform any search."
            let idx = self.long_flows as u32;
            self.long_flows += 1;
            put_encoded_long_template(flow.len() as u64, &flow.log, &mut self.long_payload);
            (idx << 1 | 1, flowzip_trace::Duration::ZERO)
        };
        self.pending.push(PendingFlow {
            first_ts: flow.first_ts,
            rtt,
            addr: u32::from(flow.dst_ip),
            template,
        });
        if let Some(rows) = &mut self.telemetry {
            rows.push(
                flow.telemetry
                    .expect("telemetry on: every consumed flow carries a row"),
            );
        }
    }

    /// Encodes this assembler's state into a self-contained container-v2
    /// section: local addresses dedupe in consume order (matching
    /// [`assemble_shards`]' global first-appearance order shard by
    /// shard), flow records stably sort by first timestamp, and the
    /// payload serializes with shard-local indices. Designed to run on
    /// the shard's own thread — the O(trace) serialization work leaves
    /// the writer's serial tail entirely.
    ///
    /// The sort moves 4 B indices, not records: ordering them by
    /// `(first_ts, consume index)` in place is the stable time order
    /// without the full-width scratch a stable sort allocates.
    pub fn into_section(self) -> ShardSection {
        let mut pending = self.pending;
        let mut addresses: Vec<Ipv4Addr> = Vec::new();
        {
            let mut addr_index: HashMap<u32, u32> = HashMap::new();
            for rec in &mut pending {
                let ip = rec.addr;
                rec.addr = *addr_index.entry(ip).or_insert_with(|| {
                    addresses.push(Ipv4Addr::from(ip));
                    (addresses.len() - 1) as u32
                });
            }
        }
        let flows = u32::try_from(pending.len()).expect("a section holds fewer than 2^32 flows");
        let mut order: Vec<u32> = (0..flows).collect();
        order.sort_unstable_by_key(|&i| (pending[i as usize].first_ts, i));
        let records = || {
            order.iter().map(|&i| {
                let rec = &pending[i as usize];
                rec.record(rec.local_template(), rec.addr)
            })
        };

        let mut payload = self.long_payload;
        let long_template_bytes = payload.len() as u64;
        let mut last_ts = 0u64;
        for r in records() {
            crate::container::put_time_seq_record(&r, &mut last_ts, &mut payload);
        }
        let time_seq_bytes = payload.len() as u64 - long_template_bytes;

        // The v2.1 metadata record, including the Bloom filter over the
        // flow keys decompression will synthesize for these records —
        // O(flows) hashing that belongs here, on the shard's thread, not
        // in the writer's serial tail.
        let meta = crate::meta::SectionMeta::from_records(
            crate::decompress::DEFAULT_SEED,
            self.packets,
            long_template_bytes,
            time_seq_bytes,
            records(),
            |r| addresses[r.addr_idx as usize],
        );

        // Row *i* of the section's FZT1 block describes record *i*.
        let telemetry = self
            .telemetry
            .map(|rows| order.iter().map(|&i| rows[i as usize]).collect());

        ShardSection {
            store: self.store,
            addresses,
            flow_count: u64::from(flows),
            long_count: self.long_flows,
            packets: self.packets,
            short_flows: self.short_flows,
            long_flows: self.long_flows,
            payload,
            long_template_bytes,
            meta,
            telemetry,
        }
    }
}

/// Folds encoded per-shard sections into the final v2 archive bytes and
/// report — the container-v2 counterpart of [`assemble_shards`]:
/// [`assemble_layout`], written into one buffer allocated at the
/// archive's length.
pub fn assemble_sections(
    params: &Params,
    sections: Vec<ShardSection>,
    tsh_bytes: u64,
    header_bytes: u64,
) -> (Vec<u8>, CompressionReport) {
    let (layout, report) = assemble_layout(params, sections, tsh_bytes, header_bytes);
    (layout.into_bytes(), report)
}

/// Lays encoded per-shard sections out as a v2 archive, ready for
/// [`ArchiveLayout::write_to`], beside the run's report. The O(trace)
/// payloads were already encoded shard-side
/// ([`FlowAssembler::into_section`]) and are moved, not copied; what
/// remains serial here is the template-store merge, the global address
/// dedupe, the section index and the trailing blocks — O(shards +
/// clusters + addresses + flows' metadata).
pub fn assemble_layout(
    params: &Params,
    sections: Vec<ShardSection>,
    tsh_bytes: u64,
    header_bytes: u64,
) -> (ArchiveLayout, CompressionReport) {
    let mut packets = 0u64;
    let mut short_flows = 0u64;
    let mut long_flows = 0u64;
    for s in &sections {
        packets += s.packets;
        short_flows += s.short_flows;
        long_flows += s.long_flows;
    }
    let (layout, stats) = crate::container::layout_sections(params, sections);
    let sizes = layout.sizes();
    let report = CompressionReport {
        packets,
        flows: short_flows + long_flows,
        short_flows,
        long_flows,
        matched_flows: stats.matched_flows,
        clusters: stats.clusters,
        addresses: stats.addresses,
        peak_active_flows: 0,
        sizes,
        tsh_bytes,
        ratio_vs_tsh: if tsh_bytes == 0 {
            0.0
        } else {
            sizes.total() as f64 / tsh_bytes as f64
        },
        ratio_vs_headers: if header_bytes == 0 {
            0.0
        } else {
            sizes.total() as f64 / header_bytes as f64
        },
    };
    (layout, report)
}

/// Folds one or more [`FlowAssembler`]s into the final archive and
/// report. Shard stores merge via [`TemplateStore::merge`] (re-clustering
/// under the same Eq. 4 rule), addresses dedupe globally, and the
/// time-seq dataset is re-sorted. `tsh_bytes` / `header_bytes` are the
/// original-size baselines the ratios divide by; the report's dataset
/// sizes are those of the v1 encoding.
///
/// With a single assembler this reproduces [`Compressor::compress`]
/// byte-for-byte (re-offering cluster centers in insertion order is a
/// fixed point of the greedy search).
pub fn assemble_shards(
    params: &Params,
    shards: Vec<FlowAssembler>,
    tsh_bytes: u64,
    header_bytes: u64,
) -> (CompressedTrace, CompressionReport) {
    let mut store = TemplateStore::new(params.clone());
    let mut long_templates: Vec<LongTemplate> = Vec::new();
    let mut addresses: Vec<Ipv4Addr> = Vec::new();
    let mut addr_index: HashMap<Ipv4Addr, u32> = HashMap::new();
    let mut time_seq: Vec<FlowRecord> = Vec::new();

    let mut packets = 0u64;
    let mut short_flows = 0u64;
    let mut long_flows = 0u64;

    for shard in shards {
        packets += shard.packets;
        short_flows += shard.short_flows;
        long_flows += shard.long_flows;

        let remap = store.merge(shard.store);
        let long_base = long_templates.len() as u32;
        let mut cur = ByteCursor::new(&shard.long_payload);
        for _ in 0..shard.long_flows {
            long_templates.push(
                copy_long_template(&mut cur)
                    .expect("the assembler encodes well-formed long templates"),
            );
        }
        for rec in &shard.pending {
            let ip = Ipv4Addr::from(rec.addr);
            let addr_idx = *addr_index.entry(ip).or_insert_with(|| {
                addresses.push(ip);
                (addresses.len() - 1) as u32
            });
            let template_idx = if rec.is_long() {
                long_base + rec.local_template()
            } else {
                remap[rec.local_template() as usize]
            };
            time_seq.push(rec.record(template_idx, addr_idx));
        }
    }

    // The time-seq dataset "is sorted by the time-stamp data field".
    time_seq.sort_by_key(|r| r.first_ts);

    let matched_flows = store.matched_count();
    let clusters = store.len() as u64;
    let compressed = CompressedTrace {
        short_templates: store
            .into_templates()
            .into_iter()
            .map(|t| t.vector)
            .collect(),
        long_templates,
        addresses,
        time_seq,
    };
    debug_assert!(compressed.validate().is_ok());

    let sizes = compressed.encode().1;
    let report = CompressionReport {
        packets,
        flows: short_flows + long_flows,
        short_flows,
        long_flows,
        matched_flows,
        clusters,
        addresses: compressed.addresses.len() as u64,
        peak_active_flows: 0,
        sizes,
        tsh_bytes,
        ratio_vs_tsh: if tsh_bytes == 0 {
            0.0
        } else {
            sizes.total() as f64 / tsh_bytes as f64
        },
        ratio_vs_headers: if header_bytes == 0 {
            0.0
        } else {
            sizes.total() as f64 / header_bytes as f64
        },
    };
    (compressed, report)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn empty_trace_compresses_to_empty_archive() {
        let (ct, report) = Compressor::new(Params::paper()).compress(&Trace::new());
        assert_eq!(ct.flow_count(), 0);
        assert_eq!(report.packets, 0);
        assert_eq!(report.ratio_vs_tsh, 0.0);
    }

    #[test]
    fn packet_conservation() {
        let trace = web_trace(150, 1);
        let (ct, report) = Compressor::new(Params::paper()).compress(&trace);
        assert_eq!(report.packets, trace.len() as u64);
        assert_eq!(ct.packet_count(), trace.len() as u64);
        assert_eq!(report.flows, 150);
        assert_eq!(report.short_flows + report.long_flows, report.flows);
    }

    #[test]
    fn clustering_compresses_web_traffic_hard() {
        let trace = web_trace(800, 2);
        let (_, report) = Compressor::new(Params::paper()).compress(&trace);
        // The whole point: far fewer clusters than flows.
        assert!(
            report.clusters < report.short_flows / 3,
            "clusters {} vs short flows {}",
            report.clusters,
            report.short_flows
        );
        assert!(
            report.ratio_vs_tsh < 0.10,
            "ratio {:.3} should be well under 10%",
            report.ratio_vs_tsh
        );
    }

    #[test]
    fn ratio_approaches_three_percent_at_scale() {
        let trace = web_trace(4_000, 3);
        let (_, report) = Compressor::new(Params::paper()).compress(&trace);
        assert!(
            (0.01..=0.06).contains(&report.ratio_vs_tsh),
            "paper reports ≈3%, got {:.4}",
            report.ratio_vs_tsh
        );
    }

    #[test]
    fn time_seq_is_sorted() {
        let trace = web_trace(200, 4);
        let (ct, _) = Compressor::new(Params::paper()).compress(&trace);
        assert!(ct
            .time_seq
            .windows(2)
            .all(|w| w[0].first_ts <= w[1].first_ts));
        ct.validate().unwrap();
    }

    #[test]
    fn serialized_archive_roundtrips() {
        let trace = web_trace(100, 5);
        let (ct, _) = Compressor::new(Params::paper()).compress(&trace);
        let back = CompressedTrace::from_bytes(&ct.to_bytes()).unwrap();
        assert_eq!(back.short_templates, ct.short_templates);
        assert_eq!(back.flow_count(), ct.flow_count());
        assert_eq!(back.packet_count(), ct.packet_count());
    }

    #[test]
    fn long_flows_store_verbatim() {
        let trace = web_trace(600, 6);
        let (ct, report) = Compressor::new(Params::paper()).compress(&trace);
        assert_eq!(report.long_flows as usize, ct.long_templates.len());
        for t in &ct.long_templates {
            assert!(t.len() > Params::paper().short_max);
        }
    }

    /// The entries' archive encoding, spelled out varint by varint.
    fn long_template_bytes(flows: &[&FinishedFlow]) -> Vec<u8> {
        use crate::datasets::put_varint;
        let mut out = Vec::new();
        for f in flows {
            put_varint(f.len() as u64, &mut out);
            for (m, gap) in f.entries() {
                put_varint(u64::from(m), &mut out);
                put_varint(gap.as_micros(), &mut out);
            }
        }
        out
    }

    #[test]
    fn short_max_packets_is_short_and_one_more_is_long() {
        use flowzip_trace::prelude::*;
        let params = Params::paper();
        let mut acc = FlowAccumulator::new(params.clone());
        for (port, n) in [(4000u16, params.short_max), (4001, params.short_max + 1)] {
            let t = FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                port,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            );
            let mut us = 0;
            for i in 0..n as u64 {
                us += i * i * 37; // gaps of one to three varint bytes
                let dir = if i % 3 == 1 { t.reversed() } else { t };
                acc.push(
                    &PacketRecord::builder()
                        .tuple(dir)
                        .timestamp(Timestamp::from_micros(us))
                        .flags(TcpFlags::ACK)
                        .payload_len((i * 97 % 1500) as u16)
                        .build(),
                );
            }
        }
        let flows: Vec<_> = acc.flush().collect();
        assert_eq!(flows.len(), 2);
        assert!(flows[0].is_short(params.short_max));
        assert!(!flows[1].is_short(params.short_max));

        let mut asm = FlowAssembler::new(params);
        for f in &flows {
            asm.consume(f);
        }
        assert_eq!((asm.short_flows, asm.long_flows), (1, 1));
        let section = asm.into_section();
        assert_eq!(section.long_count, 1);
        let long = &section.payload[..section.long_template_bytes as usize];
        assert_eq!(long, long_template_bytes(&[&flows[1]]));
    }

    #[test]
    fn long_payload_is_the_encoding_of_the_decoded_entries() {
        let trace = web_trace(600, 6);
        let params = Params::paper();
        let mut acc = FlowAccumulator::new(params.clone());
        for p in &trace {
            acc.push(p);
        }
        let flows: Vec<_> = acc.flush().collect();
        let long: Vec<&FinishedFlow> = flows
            .iter()
            .filter(|f| !f.is_short(params.short_max))
            .collect();
        assert!(!long.is_empty());

        let mut asm = FlowAssembler::new(params.clone());
        for f in &flows {
            asm.consume(f);
        }
        let section = asm.into_section();
        let want = long_template_bytes(&long);
        assert_eq!(
            &section.payload[..section.long_template_bytes as usize],
            &want
        );

        // The oracle copies the same bytes, which read back as the same
        // entries.
        let (ct, _) = Compressor::new(params).assemble(&trace, flows.clone());
        let copied: Vec<Vec<_>> = ct
            .long_templates
            .iter()
            .map(|t| t.entries().collect())
            .collect();
        let entries: Vec<Vec<_>> = long.iter().map(|f| f.entries().collect()).collect();
        assert_eq!(copied, entries);
    }

    #[test]
    fn addresses_are_unique() {
        let trace = web_trace(300, 7);
        let (ct, _) = Compressor::new(Params::paper()).compress(&trace);
        let set: std::collections::HashSet<_> = ct.addresses.iter().collect();
        assert_eq!(set.len(), ct.addresses.len());
    }

    #[test]
    fn report_display_mentions_ratio() {
        let trace = web_trace(50, 8);
        let (_, report) = Compressor::new(Params::paper()).compress(&trace);
        let s = report.to_string();
        assert!(s.contains("% of TSH"));
        assert!(s.contains("clusters"));
    }

    #[test]
    fn sectioned_v2_decodes_identically_to_v1_assembly() {
        // Shard finished flows round-robin across three assemblers, then
        // run the v1 merge path and the v2 section path over identical
        // shard states: the decoded archives must be *equal*, which is
        // what makes v2 decompression packet-identical to v1.
        let trace = web_trace(400, 11);
        let params = Params::paper();
        let mut acc = FlowAccumulator::new(params.clone());
        for p in &trace {
            acc.push(p);
        }
        let flows: Vec<_> = acc.flush().collect();
        let build = || {
            let mut asms: Vec<FlowAssembler> =
                (0..3).map(|_| FlowAssembler::new(params.clone())).collect();
            for (i, flow) in flows.iter().enumerate() {
                asms[i % 3].consume(flow);
            }
            asms
        };
        let tsh = flowzip_trace::tsh::file_size(&trace);
        let hdr = trace.header_bytes();

        let (ct_v1, report_v1) = assemble_shards(&params, build(), tsh, hdr);
        let sections = build()
            .into_iter()
            .map(FlowAssembler::into_section)
            .collect();
        let (bytes_v2, report_v2) = assemble_sections(&params, sections, tsh, hdr);

        let decoded_v1 = CompressedTrace::from_bytes(&ct_v1.to_bytes()).unwrap();
        let decoded_v2 = CompressedTrace::from_bytes(&bytes_v2).unwrap();
        assert_eq!(decoded_v1, decoded_v2);

        assert_eq!(report_v2.packets, report_v1.packets);
        assert_eq!(report_v2.flows, report_v1.flows);
        assert_eq!(report_v2.short_flows, report_v1.short_flows);
        assert_eq!(report_v2.long_flows, report_v1.long_flows);
        assert_eq!(report_v2.clusters, report_v1.clusters);
        assert_eq!(report_v2.matched_flows, report_v1.matched_flows);
        assert_eq!(report_v2.addresses, report_v1.addresses);
        // v2 sizes reflect the v2 file exactly (index overhead included).
        assert_eq!(report_v2.sizes.total(), bytes_v2.len() as u64);
    }

    #[test]
    fn single_assembler_section_matches_batch_v2_bytes() {
        // One shard's v2 archive must be byte-identical to the batch
        // archive's single-section serialization.
        let trace = web_trace(120, 12);
        let params = Params::paper();
        let (ct, _) = Compressor::new(params.clone()).compress(&trace);

        let mut acc = FlowAccumulator::new(params.clone());
        for p in &trace {
            acc.push(p);
        }
        let mut asm = FlowAssembler::new(params.clone());
        for flow in acc.flush() {
            asm.consume(&flow);
        }
        let (bytes, _) = assemble_sections(
            &params,
            vec![asm.into_section()],
            flowzip_trace::tsh::file_size(&trace),
            trace.header_bytes(),
        );
        assert_eq!(bytes, ct.to_bytes_v2());
    }

    /// 200 flows whose first packets share one of five timestamps, all
    /// opened before any closes, then reset in reverse opening order:
    /// consume order runs against opening order inside every tie group.
    /// Every seventh flow is long.
    fn tied_start_trace() -> Trace {
        use flowzip_trace::prelude::*;
        const FLOWS: u16 = 200;
        let tuple = |k: u16| {
            FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                4_000 + k,
                Ipv4Addr::new(192, 0, (k / 100) as u8, (k % 100) as u8),
                80,
            )
        };
        let packet = |t: FiveTuple, us: u64, flags: TcpFlags| {
            PacketRecord::builder()
                .tuple(t)
                .timestamp(Timestamp::from_micros(us))
                .flags(flags)
                .build()
        };
        let mut packets = Vec::new();
        for k in 0..FLOWS {
            let t = tuple(k);
            let start = 1_000 * u64::from(k % 5);
            packets.push(packet(t, start, TcpFlags::SYN));
            packets.push(packet(
                t.reversed(),
                start + 100 + u64::from(k) * 13,
                TcpFlags::SYN | TcpFlags::ACK,
            ));
            let data = if k % 7 == 0 {
                Params::paper().short_max
            } else {
                2
            };
            for i in 0..data as u64 {
                packets.push(packet(t, 10_000 + i, TcpFlags::ACK));
            }
        }
        for k in (0..FLOWS).rev() {
            packets.push(packet(
                tuple(k),
                100_000 + u64::from(FLOWS - k),
                TcpFlags::RST,
            ));
        }
        Trace::from_packets(packets)
    }

    #[test]
    fn tied_first_timestamps_keep_consume_order() {
        let trace = tied_start_trace();
        let params = Params::paper();
        let flows = |telemetry: bool| {
            let mut acc = FlowAccumulator::with_telemetry(params.clone(), telemetry);
            for p in &trace {
                acc.push(p);
            }
            acc.flush().collect::<Vec<_>>()
        };
        let flows_plain = flows(false);
        assert!(flows_plain
            .windows(2)
            .any(|w| w[0].first_ts > w[1].first_ts));
        let tsh = flowzip_trace::tsh::file_size(&trace);
        let hdr = trace.header_bytes();
        let (ct, _) = Compressor::new(params.clone()).compress(&trace);

        // One assembler: the batch oracle's v2 bytes.
        let mut asm = FlowAssembler::new(params.clone());
        for f in &flows_plain {
            asm.consume(f);
        }
        let (bytes, _) = assemble_sections(&params, vec![asm.into_section()], tsh, hdr);
        assert_eq!(bytes, ct.to_bytes_v2());

        // With telemetry, row i still describes record i: the oracle's
        // rows are the flows' own, stably sorted by first timestamp.
        let flows_telem = flows(true);
        let mut sorted: Vec<&FinishedFlow> = flows_telem.iter().collect();
        sorted.sort_by_key(|f| f.first_ts);
        let rows: Vec<FlowTelemetry> = sorted.iter().map(|f| f.telemetry.unwrap()).collect();
        let mut asm = FlowAssembler::with_telemetry(params.clone(), true);
        for f in &flows_telem {
            asm.consume(f);
        }
        let (bytes, _) = assemble_sections(&params, vec![asm.into_section()], tsh, hdr);
        assert_eq!(bytes, ct.encode_v2_opts(true, Some(&rows)).0);

        // Three assemblers: the sections merge back to the v1 oracle.
        let build = || {
            let mut asms: Vec<FlowAssembler> =
                (0..3).map(|_| FlowAssembler::new(params.clone())).collect();
            for (i, flow) in flows_plain.iter().enumerate() {
                asms[i % 3].consume(flow);
            }
            asms
        };
        let (ct_v1, _) = assemble_shards(&params, build(), tsh, hdr);
        let sections = build()
            .into_iter()
            .map(FlowAssembler::into_section)
            .collect();
        let (bytes_v2, _) = assemble_sections(&params, sections, tsh, hdr);
        assert_eq!(
            CompressedTrace::from_bytes(&bytes_v2).unwrap(),
            CompressedTrace::from_bytes(&ct_v1.to_bytes()).unwrap()
        );
    }

    #[test]
    fn tighter_similarity_makes_more_clusters() {
        let trace = web_trace(400, 9);
        let strict = Compressor::new(Params {
            similarity: 0.0,
            ..Params::paper()
        });
        let loose = Compressor::new(Params {
            similarity: 0.10,
            ..Params::paper()
        });
        let (_, rs) = strict.compress(&trace);
        let (_, rl) = loose.compress(&trace);
        assert!(
            rs.clusters >= rl.clusters,
            "strict {} vs loose {}",
            rs.clusters,
            rl.clusters
        );
    }
}
