//! The streaming merge ([`Decompressor::packets`] over an archive's
//! [`ArchiveReader::records`]) against its oracle
//! ([`Decompressor::decompress`] of the parsed archive: expand every
//! flow, then stable-sort): the same packets in the same order — ties
//! included, across sections too — from a working set no larger than the
//! flows that are open at once.

use flowzip_core::datasets::LongTemplate;
use flowzip_core::{ArchiveReader, CompressedTrace, Compressor, Decompressor, FlowRecord, Params};
use flowzip_trace::prelude::*;
use flowzip_trace::{tsh, CaptureFormat, CaptureWriter, TraceError};
use flowzip_traffic::p2p::{P2pTrafficConfig, P2pTrafficGenerator};
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use proptest::prelude::*;

/// The reader over `bytes`, which must be a valid archive.
fn open(bytes: &[u8]) -> ArchiveReader<'_> {
    ArchiveReader::open(bytes).expect("a valid archive")
}

/// The merge's packets as TSH bytes, written record by record.
fn streamed_tsh(bytes: &[u8]) -> Vec<u8> {
    let mut w = CaptureWriter::new(Vec::new(), CaptureFormat::Tsh).unwrap();
    let d = Decompressor::default();
    for p in d.packets(open(bytes).records().unwrap()) {
        w.write_packet(&p).unwrap();
    }
    w.into_inner()
}

/// Most flows simultaneously active, counted the slow way from the
/// oracle's expansion of each flow on its own: a flow is active from its
/// first packet to its last, both included.
fn brute_force_peak_active(ct: &CompressedTrace) -> usize {
    let d = Decompressor::default();
    let mut one = ct.clone();
    let spans: Vec<(Timestamp, Timestamp)> = ct
        .time_seq
        .iter()
        .filter_map(|r| {
            one.time_seq = vec![*r];
            let flow = d.decompress(&one);
            Some((flow.start_time()?, flow.end_time()?))
        })
        .collect();
    spans
        .iter()
        .map(|&(start, _)| {
            spans
                .iter()
                .filter(|&&(s, e)| s <= start && start <= e)
                .count()
        })
        .max()
        .unwrap_or(0)
}

/// The identity every archive must satisfy, plus the working-set bound:
/// the merge over `bytes` is the oracle's expansion of the archive the
/// bytes parse to.
fn assert_merge_is_oracle(bytes: &[u8]) -> Result<(), TestCaseError> {
    let ct = CompressedTrace::from_bytes(bytes).unwrap();
    let d = Decompressor::default();
    let oracle = d.decompress(&ct);
    let reader = open(bytes);
    let mut stream = d.packets(reader.records().unwrap());
    prop_assert_eq!(stream.size_hint(), (oracle.len(), Some(oracle.len())));
    let merged: Vec<PacketRecord> = stream.by_ref().collect();
    prop_assert_eq!(&merged[..], oracle.packets());
    prop_assert_eq!(streamed_tsh(bytes), tsh::to_bytes(&oracle));
    prop_assert_eq!(stream.records_opened(), ct.time_seq.len());
    let bound = brute_force_peak_active(&ct) + 1;
    prop_assert!(
        stream.peak_open() <= bound,
        "peak_open {} > brute force + 1 = {}",
        stream.peak_open(),
        bound
    );
    Ok(())
}

/// LEB128, as the container writes it.
fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `ct` laid out as a plain v2 archive of `k` sections, written from the
/// format description alone: record `i` goes to section `i % k`, and
/// each section carries the long templates its records name, in record
/// order, and identity remaps onto `ct`'s short templates and addresses.
/// Returns the bytes and the archive a reader must parse them to: the
/// long templates in section order, each long record's index moved to
/// its template's place there, RTTs quantized, and the records
/// stable-sorted by `first_ts` over the sections' concatenation — v1's
/// order for the same shards. `ct` names each long template once.
fn sectioned_v2(ct: &CompressedTrace, k: usize) -> (Vec<u8>, CompressedTrace) {
    let mut index = Vec::new();
    let mut payloads = Vec::new();
    let mut concat = Vec::new();
    let mut long_templates = Vec::new();
    for s in 0..k {
        let records: Vec<&FlowRecord> = ct.time_seq.iter().skip(s).step_by(k).collect();
        let longs: Vec<&LongTemplate> = records
            .iter()
            .filter(|r| r.is_long)
            .map(|r| &ct.long_templates[r.template_idx as usize])
            .collect();
        let mut payload = Vec::new();
        for t in &longs {
            put_varint(t.len() as u64, &mut payload);
            for (m, gap) in t.entries() {
                put_varint(u64::from(m), &mut payload);
                put_varint(gap.as_micros(), &mut payload);
            }
        }
        let mut last_ts = 0;
        let mut local_long = 0;
        for r in &records {
            let local = if r.is_long {
                local_long += 1;
                local_long - 1
            } else {
                r.template_idx
            };
            put_varint(u64::from(local) << 1 | u64::from(r.is_long), &mut payload);
            put_varint(u64::from(r.addr_idx), &mut payload);
            put_varint(r.first_ts.as_micros() - last_ts, &mut payload);
            last_ts = r.first_ts.as_micros();
            let rtt = r.rtt.as_micros() >> 7;
            if !r.is_long {
                put_varint(rtt, &mut payload);
            }
            concat.push(FlowRecord {
                template_idx: if r.is_long {
                    (long_templates.len() as u32) + local
                } else {
                    local
                },
                rtt: Duration::from_micros(rtt << 7),
                ..**r
            });
        }
        for v in [payload.len(), records.len(), longs.len()] {
            put_varint(v as u64, &mut index);
        }
        for n in [ct.short_templates.len(), ct.addresses.len()] {
            put_varint(n as u64, &mut index);
            for g in 0..n {
                put_varint(g as u64, &mut index);
            }
        }
        payloads.extend(payload);
        long_templates.extend(longs.into_iter().cloned());
    }
    let mut bytes = b"FZC2\x02".to_vec();
    for n in [
        ct.short_templates.len(),
        long_templates.len(),
        ct.addresses.len(),
        k,
    ] {
        put_varint(n as u64, &mut bytes);
    }
    for t in &ct.short_templates {
        put_varint(t.len() as u64, &mut bytes);
        for &m in t {
            put_varint(u64::from(m), &mut bytes);
        }
    }
    bytes.extend(ct.addresses.iter().flat_map(Ipv4Addr::octets));
    bytes.extend(index);
    bytes.extend(payloads);

    concat.sort_by_key(|r| r.first_ts);
    let parsed = CompressedTrace {
        short_templates: ct.short_templates.clone(),
        long_templates,
        addresses: ct.addresses.clone(),
        time_seq: concat,
    };
    (bytes, parsed)
}

/// The merge equals the oracle over `ct` written as one section, and
/// over each layout of 2, 3 and 5 sections — and each layout parses to
/// the archive its sections describe.
fn assert_merge_is_oracle_sectioned(ct: &CompressedTrace) -> Result<(), TestCaseError> {
    assert_merge_is_oracle(&ct.to_bytes_v2())?;
    for k in [1, 2, 3, 5] {
        let (bytes, parsed) = sectioned_v2(ct, k);
        prop_assert_eq!(&CompressedTrace::from_bytes(&bytes).unwrap(), &parsed);
        assert_merge_is_oracle(&bytes)?;
    }
    Ok(())
}

fn web_archive(flows: usize, seed: u64) -> CompressedTrace {
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows,
            duration_secs: 5.0,
            ..WebTrafficConfig::default()
        },
        seed,
    )
    .generate();
    Compressor::new(Params::paper()).compress(&trace).0
}

/// Long flows stored verbatim, with their recorded gaps.
fn p2p_archive(flows: usize, seed: u64) -> CompressedTrace {
    let trace = P2pTrafficGenerator::new(
        P2pTrafficConfig {
            flows,
            duration_secs: 5.0,
            ..P2pTrafficConfig::default()
        },
        seed,
    )
    .generate();
    Compressor::new(Params::paper()).compress(&trace).0
}

/// Hand-built archives that force every kind of tie: few distinct start
/// times (flows sharing a `first_ts`), zero gaps inside long flows, zero
/// RTT (→ `default_rtt`), empty templates, and `M` values no weight
/// vector produces. Each long record names its own template, as the
/// wire format requires.
fn arb_tied_archive() -> impl Strategy<Value = CompressedTrace> {
    let m = prop_oneof![0u16..87, Just(999u16), Just(u16::MAX)];
    let short = prop::collection::vec(m.clone(), 0..9);
    let long = prop::collection::vec((m, prop_oneof![Just(0u64), 0u64..400]), 0..70);
    let record = (
        0u64..4,
        any::<bool>(),
        any::<u32>(),
        prop_oneof![Just(0u64), 128u64..2_000],
        long,
    );
    (
        prop::collection::vec(short, 1..5),
        prop::collection::vec(record, 1..25),
    )
        .prop_map(|(short_templates, mut records)| {
            records.sort_by_key(|r| r.0);
            let mut long_templates = Vec::new();
            let time_seq: Vec<FlowRecord> = records
                .into_iter()
                .map(|(start, is_long, pick, rtt, entries)| {
                    let template_idx = if is_long {
                        long_templates.push(LongTemplate::from_entries(
                            entries
                                .into_iter()
                                .map(|(m, gap)| (m, Duration::from_micros(gap))),
                        ));
                        long_templates.len() as u32 - 1
                    } else {
                        pick % short_templates.len() as u32
                    };
                    FlowRecord {
                        first_ts: Timestamp::from_micros(start * 300),
                        is_long,
                        template_idx,
                        addr_idx: pick % 2,
                        rtt: Duration::from_micros(if is_long { 0 } else { rtt }),
                    }
                })
                .collect();
            let ct = CompressedTrace {
                short_templates,
                long_templates,
                addresses: vec![Ipv4Addr::new(193, 5, 9, 1), Ipv4Addr::new(193, 5, 9, 2)],
                time_seq,
            };
            ct.validate().unwrap();
            ct
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn merge_equals_oracle_on_compressor_archives_through_v1_and_v2(
        flows in 1usize..120,
        seed in any::<u64>(),
        p2p in any::<bool>(),
    ) {
        let ct = if p2p { p2p_archive(flows.min(30), seed) } else { web_archive(flows, seed) };
        let v1 = ct.to_bytes();
        assert_merge_is_oracle(&v1)?;
        prop_assert_eq!(streamed_tsh(&v1), streamed_tsh(&ct.to_bytes_v2()));
    }

    #[test]
    fn merge_equals_oracle_when_everything_ties(ct in arb_tied_archive()) {
        assert_merge_is_oracle_sectioned(&ct)?;
    }
}

/// `n` long flows that all start together and run for `packets` packets
/// at a steady `gap` — TCP trunking's carrier connections.
fn carriers(n: usize, packets: usize, gap: u64) -> CompressedTrace {
    CompressedTrace {
        short_templates: vec![],
        long_templates: (0..n)
            .map(|i| {
                LongTemplate::from_entries((0..packets).map(|k| {
                    (
                        34,
                        Duration::from_micros(if k == 0 { 0 } else { gap + i as u64 }),
                    )
                }))
            })
            .collect(),
        addresses: vec![Ipv4Addr::new(193, 5, 9, 1)],
        time_seq: (0..n)
            .map(|i| FlowRecord {
                first_ts: Timestamp::from_micros(i as u64),
                is_long: true,
                template_idx: i as u32,
                addr_idx: 0,
                rtt: Duration::ZERO,
            })
            .collect(),
    }
}

#[test]
fn four_carriers_keep_four_cursors_open() {
    let ct = carriers(4, 500, 10);
    let d = Decompressor::default();
    let bytes = ct.to_bytes_v2();
    let reader = open(&bytes);
    let mut stream = d.packets(reader.records().unwrap());
    assert_eq!(stream.by_ref().count(), 2_000);
    assert_eq!(stream.peak_open(), 4);
    // All carriers in one section, two per section, or one per section.
    for k in [1, 2, 4] {
        let (bytes, _) = sectioned_v2(&ct, k);
        let reader = open(&bytes);
        let mut stream = d.packets(reader.records().unwrap());
        assert_eq!(stream.by_ref().count(), 2_000);
        assert_eq!(stream.peak_open(), 4);
    }
    assert_merge_is_oracle_sectioned(&ct).unwrap();
}

#[test]
fn sequential_flows_never_share_the_heap() {
    // Each flow ends before the next begins: one cursor at a time, and
    // the last record is still unopened while the first is draining.
    // Fifty carriers of at most 19 × 59 µs each, 2 ms apart.
    let mut ct = carriers(50, 20, 10);
    for (i, r) in ct.time_seq.iter_mut().enumerate() {
        r.first_ts = Timestamp::from_micros(i as u64 * 2_000);
    }
    let d = Decompressor::default();
    let bytes = ct.to_bytes_v2();
    let reader = open(&bytes);
    let mut stream = d.packets(reader.records().unwrap());
    stream.next().unwrap();
    assert_eq!(stream.records_opened(), 1);
    assert_eq!(stream.by_ref().count(), 50 * 20 - 1);
    assert_eq!(stream.peak_open(), 1);
}

#[test]
fn a_crafted_gap_saturates_the_clock_instead_of_wrapping() {
    // `10 s + u64::MAX µs` overflows: a bare `+=` panics in test builds
    // and, in release, wraps the flow's clock to *before* its first
    // packet.
    let mut ct = carriers(1, 3, 10);
    ct.time_seq[0].first_ts = Timestamp::from_secs(10);
    ct.long_templates[0] = LongTemplate::from_entries([
        (34, Duration::ZERO),
        (34, Duration::from_micros(u64::MAX)),
        (34, Duration::from_micros(10)),
    ]);
    let bytes = ct.to_bytes_v2();
    let d = Decompressor::default();
    let times: Vec<u64> = d
        .packets(open(&bytes).records().unwrap())
        .map(|p| p.timestamp().as_micros())
        .collect();
    assert_eq!(times, [10_000_000, u64::MAX, u64::MAX]);
    let ct = CompressedTrace::from_bytes(&bytes).unwrap();
    assert_eq!(
        d.decompress(&ct).packets(),
        &d.packets(open(&bytes).records().unwrap())
            .collect::<Vec<_>>()[..]
    );
}

#[test]
fn a_timestamp_past_the_capture_format_is_an_error_not_a_panic() {
    // A valid archive whose one flow starts past what 32-bit capture
    // seconds can say. Synthesis is fine; it is the *output format* that
    // cannot hold the packet, and the record writer says so.
    let ct = CompressedTrace {
        short_templates: vec![vec![0, 16, 32]],
        long_templates: vec![],
        addresses: vec![Ipv4Addr::new(193, 5, 9, 1)],
        time_seq: vec![FlowRecord {
            first_ts: Timestamp::from_secs(u32::MAX as u64 + 10),
            is_long: false,
            template_idx: 0,
            addr_idx: 0,
            rtt: Duration::from_millis(40),
        }],
    };
    let bytes = ct.to_bytes_v2();
    let first = Decompressor::default()
        .packets(open(&bytes).records().unwrap())
        .next()
        .unwrap();
    for format in [CaptureFormat::Tsh, CaptureFormat::Pcap] {
        let mut w = CaptureWriter::new(Vec::new(), format).unwrap();
        let err = w.write_packet(&first).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::FieldOutOfRange {
                    field: "timestamp_secs",
                    ..
                }
            ),
            "{format}: {err}"
        );
    }
}

#[test]
fn degenerate_weights_decode_every_m_as_unknown_instead_of_dividing_by_zero() {
    let mut params = flowzip_core::DecompressParams::default();
    params.params.weights.dependence = 0;
    let ct = web_archive(10, 1);
    let bytes = ct.to_bytes_v2();
    let d = Decompressor::new(params);
    let reader = open(&bytes);
    let records = reader.records().unwrap();
    assert_eq!(d.packets(records).count() as u64, ct.packet_count());
}
