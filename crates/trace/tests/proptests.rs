//! Property-based tests for the trace model: codecs must round-trip and
//! structural helpers must agree with naive re-computations.

use flowzip_trace::prelude::*;
use flowzip_trace::{tsh, FlowHash};
use proptest::prelude::*;
use std::hash::BuildHasher;

fn arb_packet() -> impl Strategy<Value = PacketRecord> {
    (
        0u64..=(u32::MAX as u64) * 1_000_000 + 999_999, // ts micros within TSH range
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),  // flags byte
        0u16..=1460,  // payload
        any::<u32>(), // seq
        any::<u32>(), // ack
        any::<u16>(), // window
        any::<u16>(), // ip id
        any::<u8>(),  // ttl
    )
        .prop_map(
            |(ts, sip, dip, sp, dp, flags, len, seq, ack, win, id, ttl)| {
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(ts))
                    .src(Ipv4Addr::from(sip), sp)
                    .dst(Ipv4Addr::from(dip), dp)
                    .flags(TcpFlags::from_bits(flags))
                    .payload_len(len)
                    .seq(seq)
                    .ack(ack)
                    .window(win)
                    .ip_id(id)
                    .ttl(ttl)
                    .build()
            },
        )
}

/// An address that is usually one of three, so that endpoints tie often,
/// plus the extremes of the packed layout.
fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    prop_oneof![
        3 => (0u32..3).prop_map(|i| Ipv4Addr::from(0x0a00_0001 + i)),
        2 => any::<u32>().prop_map(Ipv4Addr::from),
        1 => prop::sample::select(vec![0u32, u32::MAX]).prop_map(Ipv4Addr::from),
    ]
}

fn arb_port() -> impl Strategy<Value = u16> {
    prop_oneof![3 => 79u16..82, 2 => any::<u16>()]
}

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        prop::sample::select(vec![Protocol::TCP, Protocol::UDP]),
        any::<u8>().prop_map(Protocol::new),
    ]
}

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (arb_ip(), arb_port(), arb_ip(), arb_port(), arb_protocol())
        .prop_map(|(sip, sp, dip, dp, proto)| FiveTuple::new(sip, sp, dip, dp, proto))
}

/// The canonical tuple by definition: the smaller `(ip, port)` endpoint
/// is the source.
fn reference_canonical(t: FiveTuple) -> FiveTuple {
    if (t.src_ip, t.src_port) <= (t.dst_ip, t.dst_port) {
        t
    } else {
        t.reversed()
    }
}

proptest! {
    #[test]
    fn tsh_record_roundtrip(p in arb_packet(), ifc in any::<u8>()) {
        let rec = tsh::encode_record(&p, ifc).unwrap();
        let (q, got_ifc) = tsh::decode_record(&rec).unwrap();
        prop_assert_eq!(p, q);
        prop_assert_eq!(ifc, got_ifc);
    }

    #[test]
    fn tsh_trace_roundtrip(pkts in prop::collection::vec(arb_packet(), 0..200)) {
        let trace = Trace::from_packets(pkts);
        let bytes = tsh::to_bytes(&trace);
        prop_assert_eq!(bytes.len() as u64, tsh::file_size(&trace));
        let back = tsh::read_trace(&bytes[..]).unwrap();
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn five_tuple_hash_direction_sensitivity(
        sip in any::<[u8;4]>(), dip in any::<[u8;4]>(),
        sp in any::<u16>(), dp in any::<u16>())
    {
        let t = FiveTuple::tcp(Ipv4Addr::from(sip), sp, Ipv4Addr::from(dip), dp);
        prop_assert_eq!(t.stable_hash(), t.stable_hash());
        if t != t.reversed() {
            // canonical keys still collapse the two directions
            prop_assert_eq!(FlowKey::canonical(t), FlowKey::canonical(t.reversed()));
        }
    }

    #[test]
    fn trace_sort_then_validate(pkts in prop::collection::vec(arb_packet(), 0..100)) {
        let mut t: Trace = pkts.into_iter().collect();
        t.sort_by_time();
        prop_assert!(t.validate().is_ok());
        prop_assert!(t.is_time_ordered());
    }

    #[test]
    fn prefix_until_never_loses_order(
        pkts in prop::collection::vec(arb_packet(), 0..100),
        cutoff in 0u64..u32::MAX as u64)
    {
        let t = Trace::from_packets(pkts);
        let p = t.prefix_until(Timestamp::from_micros(cutoff));
        prop_assert!(p.is_time_ordered());
        prop_assert!(p.len() <= t.len());
        for pkt in &p {
            prop_assert!(pkt.timestamp().as_micros() < cutoff);
        }
    }

    #[test]
    fn flow_table_conserves_packets(pkts in prop::collection::vec(arb_packet(), 0..150)) {
        let trace = Trace::from_packets(pkts);
        let table = FlowTable::from_trace(&trace);
        let grouped: usize = table.flows().map(|f| f.len()).sum();
        prop_assert_eq!(grouped, trace.len());
        // Stats over the same flows agree on totals.
        let stats = table.stats(50);
        prop_assert_eq!(stats.packets as usize, trace.len());
        prop_assert_eq!(stats.flows, table.len());
    }

    #[test]
    fn timestamp_split_roundtrip(us in 0u64..=(u32::MAX as u64) * 1_000_000 + 999_999) {
        let t = Timestamp::from_micros(us);
        let (s, m) = t.to_secs_micros();
        prop_assert_eq!(Timestamp::from_secs_micros(s, m).unwrap(), t);
    }
    #[test]
    fn flow_key_agrees_with_the_reference_canonical_tuple(
        t in arb_tuple(), u in arb_tuple(), other_protocol in arb_protocol())
    {
        let key = FlowKey::canonical(t);
        prop_assert_eq!(key, FlowKey::canonical(t.reversed()));
        prop_assert_eq!(key.tuple(), reference_canonical(t));
        prop_assert_eq!(FlowKey::from(t), key);
        prop_assert_eq!(key.to_string(), reference_canonical(t).to_string());

        // The direction bit: true for exactly one of the two directions,
        // and for both when the two endpoints are equal.
        let (of_key, up) = FlowKey::of(t);
        let (_, down) = FlowKey::of(t.reversed());
        prop_assert_eq!(of_key, key);
        prop_assert_eq!(up, t == reference_canonical(t));
        if t == t.reversed() {
            prop_assert!(up && down);
        } else {
            prop_assert!(up != down);
        }

        // Equality and order follow the reference tuples, for unrelated
        // pairs, pairs that differ only in protocol, and tuples whose two
        // endpoints are equal.
        let mut same_ends = t;
        same_ends.protocol = other_protocol;
        let looped = FiveTuple::new(t.src_ip, t.src_port, t.src_ip, t.src_port, t.protocol);
        let hasher = FlowHash::new();
        for v in [u, same_ends, same_ends.reversed(), looped, t.reversed()] {
            let other = FlowKey::canonical(v);
            let (a, b) = (reference_canonical(t), reference_canonical(v));
            prop_assert_eq!(key == other, a == b);
            prop_assert_eq!(key.cmp(&other), a.cmp(&b));
            if key == other {
                prop_assert_eq!(hasher.hash_one(key), hasher.hash_one(other));
            }
        }
        let (looped_key, looped_up) = FlowKey::of(looped);
        prop_assert_eq!(looped_key.tuple(), looped);
        prop_assert!(looped_up);
    }
}
