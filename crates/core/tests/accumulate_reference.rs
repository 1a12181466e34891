//! Differential test of the flow table: `FlowAccumulator` against a naive
//! reference keyed by `BTreeMap<FiveTuple, _>`, over random interleavings
//! of short conversations that reuse keys, reset, half-close, share
//! endpoints, loop back to their own endpoint and mix in UDP.

use flowzip_core::characterize::{size_class, Dependence};
use flowzip_core::{FinishedFlow, FlowAccumulator, FlowTelemetry, Params};
use flowzip_trace::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The conversations packets are drawn from. Keys repeat across
/// conversations on purpose: 0 and 3 share both endpoints and differ only
/// in protocol, 2 is listed from its upper endpoint, and 4 talks to
/// itself.
fn conversations() -> [FiveTuple; 7] {
    let a = Ipv4Addr::new(10, 0, 0, 1);
    let b = Ipv4Addr::new(10, 0, 0, 2);
    let c = Ipv4Addr::new(192, 168, 1, 1);
    [
        FiveTuple::tcp(a, 40_000, c, 80),
        FiveTuple::tcp(b, 40_000, c, 80),
        FiveTuple::tcp(c, 80, a, 40_001),
        FiveTuple::new(a, 40_000, c, 80, Protocol::UDP),
        FiveTuple::tcp(a, 5_000, a, 5_000),
        FiveTuple::tcp(a, 5_000, a, 5_001),
        FiveTuple::new(b, 53, c, 53, Protocol::UDP),
    ]
}

const FLAGS: [TcpFlags; 8] = [
    TcpFlags::SYN,
    TcpFlags::from_bits(0x12), // SYN | ACK
    TcpFlags::ACK,
    TcpFlags::ACK,
    TcpFlags::from_bits(0x18), // PSH | ACK
    TcpFlags::from_bits(0x11), // FIN | ACK
    TcpFlags::RST,
    TcpFlags::EMPTY,
];

#[derive(Debug, Clone)]
enum Op {
    Packet {
        conversation: usize,
        reversed: bool,
        flags: usize,
        payload: u16,
        gap_us: u64,
        seq: u32,
        ack: u32,
    },
    /// `evict_idle` at `now − horizon`, then `drain_completed`.
    Evict { horizon_us: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let packet = (
        0..conversations().len(),
        any::<bool>(),
        0..FLAGS.len(),
        prop_oneof![Just(0u16), 1u16..1461],
        prop_oneof![0u64..500, 0u64..3_000_000],
        0u32..4_000,
        0u32..4_000,
    )
        .prop_map(
            |(conversation, reversed, flags, payload, gap_us, seq, ack)| Op::Packet {
                conversation,
                reversed,
                flags,
                payload,
                gap_us,
                seq,
                ack,
            },
        );
    let evict = (0u64..2_000_000).prop_map(|horizon_us| Op::Evict { horizon_us });
    prop_oneof![30 => packet, 1 => evict]
}

/// Turns the ops into timestamped packets and eviction cutoffs.
fn render(ops: &[Op]) -> Vec<Result<PacketRecord, Timestamp>> {
    let convs = conversations();
    let mut now = 0u64;
    ops.iter()
        .map(|op| match *op {
            Op::Packet {
                conversation,
                reversed,
                flags,
                payload,
                gap_us,
                seq,
                ack,
            } => {
                now += gap_us;
                let t = convs[conversation];
                Ok(PacketRecord::builder()
                    .tuple(if reversed { t.reversed() } else { t })
                    .timestamp(Timestamp::from_micros(now))
                    .flags(FLAGS[flags])
                    .payload_len(payload)
                    .seq(seq)
                    .ack(ack)
                    .build())
            }
            Op::Evict { horizon_us } => Err(Timestamp::from_micros(now.saturating_sub(horizon_us))),
        })
        .collect()
}

/// The canonical tuple by definition: the smaller `(ip, port)` endpoint
/// is the source.
fn canonical(t: FiveTuple) -> FiveTuple {
    if (t.src_ip, t.src_port) <= (t.dst_ip, t.dst_port) {
        t
    } else {
        t.reversed()
    }
}

/// What the reference expects of one finished flow: `FinishedFlow`'s
/// fields, with its packets as plain `(M, gap)` entries.
#[derive(Debug)]
struct RefFinished {
    first_ts: Timestamp,
    dst_ip: Ipv4Addr,
    rtt: Duration,
    entries: Vec<(u16, Duration)>,
    telemetry: Option<FlowTelemetry>,
}

struct RefFlow {
    seq: u64,
    initiator: FiveTuple,
    packets: Vec<PacketRecord>,
    fin_from_initiator: bool,
    fin_from_responder: bool,
}

/// The §3 accumulation written the obvious way: one ordered map from the
/// canonical tuple to the open flow's packets.
struct Reference {
    params: Params,
    telemetry: bool,
    open: BTreeMap<FiveTuple, RefFlow>,
    /// Most flows ever in `open` at once.
    peak: usize,
    next_seq: u64,
    finished: Vec<RefFinished>,
    evicted: u64,
}

impl Reference {
    fn new(telemetry: bool) -> Reference {
        Reference {
            params: Params::paper(),
            telemetry,
            open: BTreeMap::new(),
            peak: 0,
            next_seq: 0,
            finished: Vec::new(),
            evicted: 0,
        }
    }

    fn push(&mut self, p: &PacketRecord) {
        let key = canonical(p.tuple());
        if !self.open.contains_key(&key) {
            self.peak = self.peak.max(self.open.len() + 1);
        }
        let next_seq = &mut self.next_seq;
        let flow = self.open.entry(key).or_insert_with(|| {
            *next_seq += 1;
            RefFlow {
                seq: *next_seq,
                initiator: p.tuple(),
                packets: Vec::new(),
                fin_from_initiator: false,
                fin_from_responder: false,
            }
        });
        flow.packets.push(*p);
        if p.flags().is_fin() {
            if p.tuple() == flow.initiator {
                flow.fin_from_initiator = true;
            } else {
                flow.fin_from_responder = true;
            }
        }
        let both_fins = flow.fin_from_initiator && flow.fin_from_responder;
        if p.flags().is_rst() || (both_fins && !p.flags().is_fin()) {
            let flow = self.open.remove(&key).expect("flow just updated");
            self.close(flow);
        }
    }

    /// Closes the open flows `idle` selects, in first-seen order.
    fn close_where(&mut self, idle: impl Fn(&RefFlow) -> bool) -> u64 {
        let mut closing: Vec<(u64, FiveTuple)> = self
            .open
            .iter()
            .filter(|(_, f)| idle(f))
            .map(|(k, f)| (f.seq, *k))
            .collect();
        closing.sort();
        for (_, key) in &closing {
            let flow = self.open.remove(key).expect("listed flow is open");
            self.close(flow);
        }
        closing.len() as u64
    }

    fn evict_idle(&mut self, cutoff: Timestamp) {
        self.evicted +=
            self.close_where(|f| f.packets.last().expect("non-empty").timestamp() < cutoff);
    }

    fn finish(mut self) -> Vec<RefFinished> {
        self.close_where(|_| true);
        self.finished
    }

    fn close(&mut self, flow: RefFlow) {
        let first_ts = flow.packets[0].timestamp();
        let mut last: Option<(FlowDirection, Timestamp)> = None;
        let mut rtt = None;
        let mut entries = Vec::new();
        for p in &flow.packets {
            let dir = if p.tuple() == flow.initiator {
                FlowDirection::FromInitiator
            } else {
                FlowDirection::FromResponder
            };
            if dir == FlowDirection::FromResponder && rtt.is_none() {
                rtt = Some(p.timestamp().saturating_since(first_ts));
            }
            let dep = Dependence::infer(last.map(|(d, _)| d), dir);
            let f1 = self.params.classifier.classify(p.flags());
            let f3 = size_class(p.payload_len(), self.params.size_edge);
            let m = self.params.weights.m_value(f1, dep, f3);
            let gap = match last {
                Some((_, ts)) => p.timestamp().saturating_since(ts),
                None => Duration::ZERO,
            };
            entries.push((m.min(u32::from(u16::MAX)) as u16, gap));
            last = Some((dir, p.timestamp()));
        }
        // Telemetry is per-flow arithmetic with its own unit tests; what
        // this test pins is that the shared table hands every flow exactly
        // its own packets, so a table holding only this flow is the
        // reference for it.
        let telemetry = self.telemetry.then(|| {
            let mut solo = FlowAccumulator::with_telemetry(self.params.clone(), true);
            for p in &flow.packets {
                solo.push(p);
            }
            let mut out = solo.flush();
            assert_eq!(out.len(), 1, "one flow's packets form one flow");
            out.next()
                .expect("one flow")
                .telemetry
                .expect("telemetry on")
        });
        self.finished.push(RefFinished {
            first_ts,
            dst_ip: flow.initiator.dst_ip,
            rtt: rtt.unwrap_or(Duration::ZERO),
            entries,
            telemetry,
        });
    }
}

/// What the accumulator's output holds: the finished flows, the
/// evictions, and `(active_flows, peak_active_flows)` after every op.
type Accumulated = (Vec<FinishedFlow>, u64, Vec<(usize, usize)>);

/// Runs the accumulator over the rendered ops, draining at every
/// eviction so `drain_completed` and `flush` both feed the output.
fn accumulate(events: &[Result<PacketRecord, Timestamp>], telemetry: bool) -> Accumulated {
    let mut acc = FlowAccumulator::with_telemetry(Params::paper(), telemetry);
    let mut out = Vec::new();
    let mut counts = Vec::with_capacity(events.len());
    for event in events {
        match event {
            Ok(p) => acc.push(p),
            Err(cutoff) => {
                acc.evict_idle(*cutoff);
                out.extend(acc.drain_completed());
            }
        }
        counts.push((acc.active_flows(), acc.peak_active_flows()));
    }
    let evicted = acc.evicted_flows();
    out.extend(acc.flush());
    (out, evicted, counts)
}

proptest! {
    #[test]
    fn accumulator_matches_the_btreemap_reference(
        ops in prop::collection::vec(arb_op(), 1..300),
        telemetry in any::<bool>())
    {
        let events = render(&ops);
        let mut reference = Reference::new(telemetry);
        let mut want_counts = Vec::with_capacity(events.len());
        for event in &events {
            match event {
                Ok(p) => reference.push(p),
                Err(cutoff) => reference.evict_idle(*cutoff),
            }
            want_counts.push((reference.open.len(), reference.peak));
        }
        let evicted = reference.evicted;
        let want = reference.finish();
        let (got, got_evicted, got_counts) = accumulate(&events, telemetry);

        // `compress --json` reports the peak, and the engine's gauge the
        // open count: both must match the reference after every op.
        for (i, (g, w)) in got_counts.iter().zip(&want_counts).enumerate() {
            prop_assert_eq!(g, w, "(active, peak) flows after op {}", i);
        }
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(got_evicted, evicted);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.first_ts, w.first_ts, "flow {} first_ts", i);
            prop_assert_eq!(g.dst_ip, w.dst_ip, "flow {} dst_ip", i);
            prop_assert_eq!(g.rtt, w.rtt, "flow {} rtt", i);
            // Every packet's `M` and gap, in order, and the count: the
            // old separate `vector` and `ipts` checks in one.
            prop_assert_eq!(g.len(), w.entries.len(), "flow {} packets", i);
            let entries: Vec<(u16, Duration)> = g.entries().collect();
            prop_assert_eq!(&entries, &w.entries, "flow {} entries", i);
            let mut vector = Vec::new();
            g.decode_vector(&mut vector);
            let want: Vec<u16> = w.entries.iter().map(|&(m, _)| m).collect();
            prop_assert_eq!(vector, want, "flow {} M vector", i);
            prop_assert_eq!(g.telemetry, w.telemetry, "flow {} telemetry", i);
        }

        // A second accumulator draws different table seeds; the output
        // must not notice.
        let (again, _, _) = accumulate(&events, telemetry);
        prop_assert_eq!(again, got);
    }
}
