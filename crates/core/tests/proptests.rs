//! Property tests for the flow-clustering compressor: structural
//! invariants that must hold for *any* well-formed input trace.

use flowzip_core::{CompressedTrace, Compressor, Decompressor, Params, TemplateStore};
use flowzip_trace::prelude::*;
use proptest::prelude::*;

/// Arbitrary short TCP conversations rendered into a trace: a list of
/// (port, packets-per-flow, payload seeds) tuples.
fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        (1024u16..65000, 2usize..20, any::<u16>(), any::<bool>()),
        1..40,
    )
    .prop_map(|flows| {
        let mut packets = Vec::new();
        let mut base_us = 0u64;
        for (port, n, seed, rst) in flows {
            let t = FiveTuple::tcp(
                Ipv4Addr::new(10, (port >> 8) as u8, port as u8, 1),
                port,
                Ipv4Addr::new(192, 168, (seed >> 8) as u8, (seed & 0xff).max(1) as u8),
                80,
            );
            base_us += 10_000;
            let mut now = base_us;
            for i in 0..n {
                let (tuple, flags, len) = if i == 0 {
                    (t, TcpFlags::SYN, 0u16)
                } else if i == 1 {
                    (t.reversed(), TcpFlags::SYN | TcpFlags::ACK, 0)
                } else if i + 1 == n && rst {
                    (t, TcpFlags::RST, 0)
                } else if i + 1 == n {
                    (t, TcpFlags::FIN | TcpFlags::ACK, 0)
                } else if i % 2 == 0 {
                    (t, TcpFlags::ACK, (seed % 700))
                } else {
                    (t.reversed(), TcpFlags::PSH | TcpFlags::ACK, 1460)
                };
                now += 100 + (i as u64 * 37) % 900;
                packets.push(
                    PacketRecord::builder()
                        .timestamp(Timestamp::from_micros(now))
                        .tuple(tuple)
                        .flags(flags)
                        .payload_len(len)
                        .build(),
                );
            }
        }
        Trace::from_packets(packets)
    })
}

/// An `M` of any varint width, `u16::MAX` included.
fn arb_m() -> impl Strategy<Value = u16> {
    prop_oneof![
        0u16..128,
        Just(u16::MAX),
        (0u32..16, any::<u16>()).prop_map(|(shift, m)| m >> shift),
    ]
}

/// A gap of any varint width, one to ten bytes, `u64::MAX` included.
fn arb_gap() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        (0u32..64, any::<u64>()).prop_map(|(shift, gap)| gap >> shift),
    ]
}

/// The entry-by-entry decode a long template had before it stayed
/// packed: its length, then per entry `varint M` and `varint gap_µs`,
/// each read into a `(u16, Duration)`.
fn decode_long_template(bytes: &[u8]) -> Vec<(u16, Duration)> {
    let mut pos = 0;
    let mut varint = || {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = bytes[pos];
            pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
        }
        v
    };
    let n = varint();
    (0..n)
        .map(|_| {
            let m = u16::try_from(varint()).unwrap();
            (m, Duration::from_micros(varint()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_long_templates_read_back_as_their_entries(
        entries in prop::collection::vec((arb_m(), arb_gap()), 0..40),
    ) {
        use flowzip_core::datasets::LongTemplate;
        use flowzip_core::FlowRecord;
        let want: Vec<(u16, Duration)> = entries
            .iter()
            .map(|&(m, gap)| (m, Duration::from_micros(gap)))
            .collect();
        let t = LongTemplate::from_entries(want.iter().copied());
        prop_assert_eq!(t.len(), want.len());
        prop_assert_eq!(t.entries().collect::<Vec<_>>(), want.clone());

        let ct = CompressedTrace {
            short_templates: vec![],
            long_templates: vec![t.clone()],
            addresses: vec![Ipv4Addr::new(193, 5, 9, 1)],
            time_seq: vec![FlowRecord {
                first_ts: Timestamp::from_secs(1),
                is_long: true,
                template_idx: 0,
                addr_idx: 0,
                rtt: Duration::ZERO,
            }],
        };
        // The v1 long-template dataset, decoded the old way.
        let (v1, sizes) = ct.encode();
        let at = (sizes.header + sizes.short_templates) as usize;
        let dataset = &v1[at..at + sizes.long_templates as usize];
        prop_assert_eq!(decode_long_template(dataset), want.clone());
        // Parsed through either revision, the packed template is the
        // same one, and reads back as the same entries.
        for bytes in [v1.clone(), ct.to_bytes_v2()] {
            let back = CompressedTrace::from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back.long_templates[0], &t);
            prop_assert_eq!(back.long_templates[0].entries().collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(back.packet_count(), want.len() as u64);
        }
    }

    #[test]
    fn compression_conserves_packets_and_flows(trace in arb_trace()) {
        let (ct, report) = Compressor::new(Params::paper()).compress(&trace);
        prop_assert_eq!(report.packets, trace.len() as u64);
        prop_assert_eq!(ct.packet_count(), trace.len() as u64);
        prop_assert_eq!(report.short_flows + report.long_flows, report.flows);
        prop_assert!(report.clusters <= report.short_flows);
        ct.validate().unwrap();
    }

    #[test]
    fn archive_bytes_roundtrip(trace in arb_trace()) {
        let (ct, _) = Compressor::new(Params::paper()).compress(&trace);
        let bytes = ct.to_bytes();
        let back = CompressedTrace::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.flow_count(), ct.flow_count());
        prop_assert_eq!(back.short_templates, ct.short_templates);
        prop_assert_eq!(back.long_templates, ct.long_templates);
        prop_assert_eq!(back.addresses, ct.addresses);
    }

    #[test]
    fn v2_container_roundtrip_agrees_with_v1(trace in arb_trace()) {
        // Whatever trace we compress, serializing the archive through
        // the v1 blob and through v2 sections must decode to the same
        // `CompressedTrace` (the lossy RTT quantization is identical in
        // both containers).
        let (ct, _) = Compressor::new(Params::paper()).compress(&trace);
        let from_v1 = CompressedTrace::from_bytes(&ct.to_bytes()).unwrap();
        let from_v2 = CompressedTrace::from_bytes(&ct.to_bytes_v2()).unwrap();
        prop_assert_eq!(from_v1, from_v2);
    }

    #[test]
    fn v2_multi_section_roundtrip(trace in arb_trace(), shards in 1usize..7) {
        // Hand-shard the finished flows across assemblers, write a
        // multi-section v2 archive, and require the decoded archive to
        // match the v1 merge path exactly — the container is equivalent
        // for *every* section count, not just one per CPU.
        use flowzip_core::{assemble_sections, assemble_shards, FlowAccumulator, FlowAssembler};
        let params = Params::paper();
        let mut acc = FlowAccumulator::new(params.clone());
        for p in &trace {
            acc.push(p);
        }
        let flows: Vec<_> = acc.flush().collect();
        let build = || {
            let mut asms: Vec<FlowAssembler> =
                (0..shards).map(|_| FlowAssembler::new(params.clone())).collect();
            for (i, flow) in flows.iter().enumerate() {
                asms[i % shards].consume(flow);
            }
            asms
        };
        let tsh = flowzip_trace::tsh::file_size(&trace);
        let hdr = trace.header_bytes();
        let (ct_v1, _) = assemble_shards(&params, build(), tsh, hdr);
        let sections = build().into_iter().map(FlowAssembler::into_section).collect();
        let (bytes_v2, _) = assemble_sections(&params, sections, tsh, hdr);
        let from_v1 = CompressedTrace::from_bytes(&ct_v1.to_bytes()).unwrap();
        let from_v2 = CompressedTrace::from_bytes(&bytes_v2).unwrap();
        prop_assert_eq!(from_v1, from_v2);
        // Measuring the real multi-section file tiles it exactly.
        let reader = flowzip_core::ArchiveReader::open(&bytes_v2).unwrap();
        let sizes = reader.records(|_| true).unwrap().sizes();
        prop_assert_eq!(sizes.total(), bytes_v2.len() as u64);
    }

    #[test]
    fn decompression_expands_every_flow(trace in arb_trace()) {
        let (ct, report) = Compressor::new(Params::paper()).compress(&trace);
        let dec = Decompressor::default().decompress(&ct);
        prop_assert_eq!(dec.len() as u64, report.packets);
        prop_assert!(dec.is_time_ordered());
        // Every destination of a client->server packet is in the archive.
        let addrs: std::collections::HashSet<_> = ct.addresses.iter().copied().collect();
        for p in &dec {
            if p.tuple().dst_port == 80 {
                prop_assert!(addrs.contains(&p.dst_ip()));
            }
        }
    }

    #[test]
    fn template_store_never_loses_flows(
        vectors in prop::collection::vec(prop::collection::vec(0u16..55, 1..12), 1..60))
    {
        let mut store = TemplateStore::new(Params::paper());
        for v in &vectors {
            store.offer(v);
        }
        prop_assert_eq!(
            store.matched_count() + store.inserted_count(),
            vectors.len() as u64
        );
        let total_members: u64 = store.templates().iter().map(|t| t.members).sum();
        prop_assert_eq!(total_members, vectors.len() as u64);
    }

    #[test]
    fn template_matches_stay_within_d_sim(
        vectors in prop::collection::vec(prop::collection::vec(0u16..55, 4..10), 1..40))
    {
        let params = Params::paper();
        let mut store = TemplateStore::new(params.clone());
        for v in &vectors {
            let outcome = store.offer(v);
            let center = &store.templates()[outcome.index() as usize].vector;
            if center.len() == v.len() {
                let d = flowzip_core::l1_distance(center, v);
                if outcome.is_match() {
                    prop_assert!(d <= params.d_sim(v.len()) + 1e-9);
                } else {
                    prop_assert_eq!(d, 0.0, "new center must be the vector itself");
                }
            }
        }
    }

    #[test]
    fn m_values_always_decompose(flags in any::<u8>(), len in any::<u16>(), prev_dir in any::<Option<bool>>(), dir in any::<bool>()) {
        use flowzip_core::{Dependence, FlagClassifier, Weights};
        use flowzip_trace::FlowDirection;
        let to_dir = |b: bool| if b { FlowDirection::FromInitiator } else { FlowDirection::FromResponder };
        let dep = Dependence::infer(prev_dir.map(to_dir), to_dir(dir));
        let f1 = FlagClassifier::paper().classify(TcpFlags::from_bits(flags));
        let f3 = flowzip_core::characterize::size_class(len, 500);
        let m = Weights::paper().m_value(f1, dep, f3);
        let (g1, g2, g3) = Weights::paper().decompose(m).expect("valid M decomposes");
        prop_assert_eq!(g1, f1);
        prop_assert_eq!(g2, dep);
        prop_assert_eq!(g3, f3);
        prop_assert!(m <= 54);
    }
}
