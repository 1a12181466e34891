//! Grouping packets into bidirectional TCP flows.
//!
//! The paper defines a packet flow by its 5-tuple, but the flow
//! *characterization* (§2) spans both directions of a conversation — the
//! SYN comes from the client and the SYN+ACK from the server, and a
//! "dependent" packet is one that waits for the *opposite node*. So the
//! grouping key here is the canonical, direction-free form of the 5-tuple,
//! and each packet remembers which direction it travelled.

use crate::packet::PacketRecord;
use crate::time::{Duration, Timestamp};
use crate::trace::Trace;
use crate::tuple::{FiveTuple, Protocol};
use std::cmp::Ordering;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::net::Ipv4Addr;

/// Direction of a packet within its bidirectional flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FlowDirection {
    /// Sent by the endpoint that sent the first packet we saw (the client
    /// for complete flows, since the SYN comes first).
    FromInitiator,
    /// Sent by the other endpoint.
    FromResponder,
}

impl FlowDirection {
    /// The opposite direction.
    #[inline]
    pub fn flipped(self) -> FlowDirection {
        match self {
            FlowDirection::FromInitiator => FlowDirection::FromResponder,
            FlowDirection::FromResponder => FlowDirection::FromInitiator,
        }
    }
}

impl fmt::Display for FlowDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowDirection::FromInitiator => write!(f, ">"),
            FlowDirection::FromResponder => write!(f, "<"),
        }
    }
}

/// Canonical, direction-free identity of a conversation: both directional
/// five-tuples of a TCP connection map to the same `FlowKey`.
///
/// # Layout
///
/// Two `u64` words. Each endpoint packs as `ip << 16 | port` (48 bits,
/// so comparing packed endpoints compares `(ip, port)` pairs). The first
/// word is the lower endpoint; the second is the upper endpoint shifted
/// left by 8 with the protocol number in its low byte. Equality is two
/// word compares, and [`FlowHash`] hashes the pair with one multiply.
///
/// `Ord` is not the word order: it compares [`FlowKey::tuple`]s, so keys
/// sort exactly as their canonical five-tuples do.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    lo: u64,
    hi: u64,
}

/// `ip << 16 | port`: `(ip, port)` pairs order as their packed values.
#[inline]
fn endpoint(ip: Ipv4Addr, port: u16) -> u64 {
    u64::from(u32::from(ip)) << 16 | u64::from(port)
}

impl FlowKey {
    /// Canonicalizes a directional tuple and reports its direction: the
    /// `bool` is `true` when the packet runs from the lower `(ip, port)`
    /// endpoint to the upper one. A tuple whose two endpoints are equal
    /// reads `true` both ways round.
    #[inline]
    pub fn of(t: FiveTuple) -> (FlowKey, bool) {
        let src = endpoint(t.src_ip, t.src_port);
        let dst = endpoint(t.dst_ip, t.dst_port);
        let up = src <= dst;
        let (lo, hi) = if up { (src, dst) } else { (dst, src) };
        let key = FlowKey {
            lo,
            hi: hi << 8 | u64::from(t.protocol.number()),
        };
        (key, up)
    }

    /// Canonicalizes a directional tuple: the lexicographically smaller
    /// `(ip, port)` endpoint becomes the "source" slot.
    #[inline]
    pub fn canonical(t: FiveTuple) -> FlowKey {
        FlowKey::of(t).0
    }

    /// The canonical five-tuple (an arbitrary but fixed direction): the
    /// lower endpoint is the source.
    #[inline]
    pub fn tuple(&self) -> FiveTuple {
        FiveTuple {
            src_ip: Ipv4Addr::from((self.lo >> 16) as u32),
            src_port: self.lo as u16,
            dst_ip: Ipv4Addr::from((self.hi >> 24) as u32),
            dst_port: (self.hi >> 8) as u16,
            protocol: Protocol::new(self.hi as u8),
        }
    }
}

impl Hash for FlowKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(u128::from(self.hi) << 64 | u128::from(self.lo));
    }
}

impl Ord for FlowKey {
    fn cmp(&self, other: &FlowKey) -> Ordering {
        self.tuple().cmp(&other.tuple())
    }
}

impl PartialOrd for FlowKey {
    fn partial_cmp(&self, other: &FlowKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<FiveTuple> for FlowKey {
    fn from(t: FiveTuple) -> FlowKey {
        FlowKey::canonical(t)
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.tuple())
    }
}

impl fmt::Debug for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("FlowKey").field(&self.tuple()).finish()
    }
}

/// The hasher every [`FlowKey`]-keyed table uses.
///
/// A key hashes as `fold((lo ^ s0) × (hi ^ s1))`: its two words XORed
/// with two seeds, one 64×64→128-bit multiply, and the product's halves
/// XORed together. Each `FlowHash` draws its seeds once from std's
/// [`RandomState`], so a crafted capture or serve peer cannot precompute
/// keys that collide in a table it does not know the seeds of.
///
/// The seed changes between tables and between runs, so a table's
/// iteration order must never reach output: a flow table keeps its
/// flows on a first-seen list and walks that instead.
#[derive(Clone)]
pub struct FlowHash {
    seeds: [u64; 2],
}

impl FlowHash {
    /// A hasher with fresh seeds.
    pub fn new() -> FlowHash {
        let random = RandomState::new();
        FlowHash {
            seeds: [random.hash_one(0u8), random.hash_one(1u8)],
        }
    }
}

impl Default for FlowHash {
    fn default() -> FlowHash {
        FlowHash::new()
    }
}

impl fmt::Debug for FlowHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowHash").finish_non_exhaustive()
    }
}

impl BuildHasher for FlowHash {
    type Hasher = FlowHasher;

    #[inline]
    fn build_hasher(&self) -> FlowHasher {
        FlowHasher {
            seeds: self.seeds,
            hash: 0,
        }
    }
}

/// The [`Hasher`] a [`FlowHash`] builds. A [`FlowKey`] is one 128-bit
/// write; any other input goes through the byte-wise fallback, which
/// chains the same folded multiply over 16-byte blocks.
#[derive(Clone)]
pub struct FlowHasher {
    seeds: [u64; 2],
    hash: u64,
}

impl FlowHasher {
    #[inline]
    fn mix(&mut self, a: u64, b: u64) {
        let product = u128::from(a ^ self.seeds[0]) * u128::from(b ^ self.seeds[1] ^ self.hash);
        self.hash = product as u64 ^ (product >> 64) as u64;
    }
}

impl Hasher for FlowHasher {
    #[inline]
    fn write_u128(&mut self, x: u128) {
        self.mix(x as u64, (x >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for block in bytes.chunks(16) {
            let mut buf = [0u8; 16];
            buf[..block.len()].copy_from_slice(block);
            self.write_u128(u128::from_le_bytes(buf));
        }
        // Zero padding alone would hash `[1]` and `[1, 0]` alike.
        self.mix(bytes.len() as u64, 0);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// One bidirectional flow: the initiator's tuple plus every packet (in
/// arrival order) with its direction.
#[derive(Clone, Debug, PartialEq)]
pub struct Flow {
    initiator: FiveTuple,
    packets: Vec<(PacketRecord, FlowDirection)>,
}

impl Flow {
    /// Creates a flow from its first packet; the packet's tuple becomes the
    /// initiator direction.
    pub(crate) fn starting_with(first: PacketRecord) -> Flow {
        Flow {
            initiator: first.tuple(),
            packets: vec![(first, FlowDirection::FromInitiator)],
        }
    }

    /// Appends a packet, deriving its direction from the tuple.
    pub fn push(&mut self, p: PacketRecord) {
        let dir = if p.tuple() == self.initiator {
            FlowDirection::FromInitiator
        } else {
            FlowDirection::FromResponder
        };
        self.packets.push((p, dir));
    }

    /// The five-tuple of the endpoint that opened the flow.
    #[inline]
    pub fn initiator(&self) -> FiveTuple {
        self.initiator
    }

    /// Packet count (both directions).
    #[inline]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` when the flow holds no packets (cannot happen for flows built
    /// through `Flow::starting_with`, but kept for container symmetry).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Packets with directions, in arrival order.
    #[inline]
    pub fn packets(&self) -> &[(PacketRecord, FlowDirection)] {
        &self.packets
    }

    /// Timestamp of the first packet.
    ///
    /// # Panics
    ///
    /// Panics on an empty flow.
    pub fn first_timestamp(&self) -> Timestamp {
        self.packets[0].0.timestamp()
    }

    /// Timestamp of the last packet.
    ///
    /// # Panics
    ///
    /// Panics on an empty flow.
    pub fn last_timestamp(&self) -> Timestamp {
        self.packets[self.packets.len() - 1].0.timestamp()
    }

    /// Total bytes on the wire (headers + payload) both ways.
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.packets
            .iter()
            .map(|(p, _)| p.ip_total_len() as u64)
            .sum()
    }

    /// Sum of payload bytes both ways.
    pub fn payload_bytes(&self) -> u64 {
        self.packets
            .iter()
            .map(|(p, _)| p.payload_len() as u64)
            .sum()
    }

    /// `true` when any packet carries FIN or RST (the compressor's
    /// finalization signal).
    pub fn saw_termination(&self) -> bool {
        self.packets
            .iter()
            .any(|(p, _)| p.flags().terminates_flow())
    }

    /// Estimates the flow's round-trip time as the gap between the first
    /// packet (SYN) and the first packet from the responder (SYN+ACK) —
    /// exactly the "waiting time corresponds to the RTT" notion of §2.
    ///
    /// Returns `None` for flows that never heard from the responder.
    pub fn estimate_rtt(&self) -> Option<Duration> {
        let t0 = self.packets.first()?.0.timestamp();
        self.packets
            .iter()
            .find(|(_, d)| *d == FlowDirection::FromResponder)
            .map(|(p, _)| p.timestamp().saturating_since(t0))
    }
}

/// Groups a trace's packets into bidirectional flows, preserving first-seen
/// flow order.
///
/// # Example
///
/// ```
/// use flowzip_trace::prelude::*;
///
/// let mut trace = Trace::new();
/// let client = FiveTuple::tcp(Ipv4Addr::new(10,0,0,1), 4000, Ipv4Addr::new(10,0,0,2), 80);
/// trace.push(PacketRecord::builder().tuple(client).flags(TcpFlags::SYN).build());
/// trace.push(PacketRecord::builder().tuple(client.reversed())
///     .flags(TcpFlags::SYN | TcpFlags::ACK).build());
///
/// let table = FlowTable::from_trace(&trace);
/// assert_eq!(table.len(), 1);
/// assert_eq!(table.flows().next().unwrap().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    order: Vec<FlowKey>,
    flows: HashMap<FlowKey, Flow, FlowHash>,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Builds the table from a trace in one pass.
    pub fn from_trace(trace: &Trace) -> FlowTable {
        let mut table = FlowTable::new();
        for p in trace {
            table.insert(*p);
        }
        table
    }

    /// Routes one packet to its flow, creating the flow on first sight.
    pub fn insert(&mut self, p: PacketRecord) {
        let key = FlowKey::canonical(p.tuple());
        match self.flows.entry(key) {
            Entry::Occupied(flow) => flow.into_mut().push(p),
            Entry::Vacant(slot) => {
                self.order.push(key);
                slot.insert(Flow::starting_with(p));
            }
        }
    }

    /// Number of distinct flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` when no flows have been seen.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Flows in first-seen order.
    pub fn flows(&self) -> impl Iterator<Item = &Flow> {
        self.order.iter().map(|k| &self.flows[k])
    }

    /// Looks up one flow by any directional tuple of the conversation.
    pub fn get(&self, tuple: FiveTuple) -> Option<&Flow> {
        self.flows.get(&FlowKey::canonical(tuple))
    }

    /// Computes the summary statistics the paper reports in §3.
    pub fn stats(&self, short_flow_max: usize) -> FlowStats {
        FlowStats::from_flows(self.flows(), short_flow_max)
    }
}

/// Aggregate flow statistics: the "98% of flows are short, carrying 75% of
/// packets and 80% of bytes" numbers from §3 of the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowStats {
    /// Threshold used: flows with `len <= short_flow_max` count as short.
    pub short_flow_max: usize,
    /// Total number of flows.
    pub flows: usize,
    /// Number of short flows.
    pub short_flows: usize,
    /// Total packets across all flows.
    pub packets: u64,
    /// Packets inside short flows.
    pub short_packets: u64,
    /// Total wire bytes across all flows.
    pub bytes: u64,
    /// Wire bytes inside short flows.
    pub short_bytes: u64,
    /// Histogram: `pmf[n]` = number of flows with exactly `n` packets
    /// (index 0 unused).
    pub length_histogram: Vec<u64>,
}

impl FlowStats {
    /// Builds statistics from an iterator of flows.
    pub fn from_flows<'a, I: IntoIterator<Item = &'a Flow>>(
        flows: I,
        short_flow_max: usize,
    ) -> FlowStats {
        let mut s = FlowStats {
            short_flow_max,
            flows: 0,
            short_flows: 0,
            packets: 0,
            short_packets: 0,
            bytes: 0,
            short_bytes: 0,
            length_histogram: Vec::new(),
        };
        for f in flows {
            let n = f.len();
            let b = f.wire_bytes();
            s.flows += 1;
            s.packets += n as u64;
            s.bytes += b;
            if n >= s.length_histogram.len() {
                s.length_histogram.resize(n + 1, 0);
            }
            s.length_histogram[n] += 1;
            if n <= short_flow_max {
                s.short_flows += 1;
                s.short_packets += n as u64;
                s.short_bytes += b;
            }
        }
        s
    }

    /// Fraction of flows that are short.
    pub fn short_flow_fraction(&self) -> f64 {
        fraction(self.short_flows as u64, self.flows as u64)
    }

    /// Fraction of packets carried by short flows.
    pub fn short_packet_fraction(&self) -> f64 {
        fraction(self.short_packets, self.packets)
    }

    /// Fraction of bytes carried by short flows.
    pub fn short_byte_fraction(&self) -> f64 {
        fraction(self.short_bytes, self.bytes)
    }

    /// Normalized flow-length probability mass function `P[n packets]`,
    /// the `P_n` of the Van Jacobson model in §5.
    pub fn length_pmf(&self) -> Vec<f64> {
        if self.flows == 0 {
            return Vec::new();
        }
        self.length_histogram
            .iter()
            .map(|&c| c as f64 / self.flows as f64)
            .collect()
    }

    /// Mean packets per flow.
    pub fn mean_flow_len(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.packets as f64 / self.flows as f64
        }
    }
}

impl fmt::Display for FlowStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} flows ({:.1}% short<= {} pkts, carrying {:.1}% of packets / {:.1}% of bytes)",
            self.flows,
            100.0 * self.short_flow_fraction(),
            self.short_flow_max,
            100.0 * self.short_packet_fraction(),
            100.0 * self.short_byte_fraction(),
        )
    }
}

fn fraction(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::TcpFlags;

    fn client_tuple(port: u16) -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            port,
            Ipv4Addr::new(192, 168, 0, 2),
            80,
        )
    }

    fn pkt(t: FiveTuple, us: u64, flags: TcpFlags, len: u16) -> PacketRecord {
        PacketRecord::builder()
            .tuple(t)
            .timestamp(Timestamp::from_micros(us))
            .flags(flags)
            .payload_len(len)
            .build()
    }

    #[test]
    fn flow_key_is_direction_free() {
        let t = client_tuple(1000);
        assert_eq!(FlowKey::canonical(t), FlowKey::canonical(t.reversed()));
        assert_ne!(
            FlowKey::canonical(client_tuple(1000)),
            FlowKey::canonical(client_tuple(1001))
        );
    }

    #[test]
    fn flow_hash_is_seeded_per_table() {
        let key = FlowKey::canonical(client_tuple(1000));
        let (a, b) = (FlowHash::new(), FlowHash::new());
        assert_eq!(
            a.hash_one(key),
            a.hash_one(FlowKey::canonical(key.tuple().reversed()))
        );
        assert_ne!(a.hash_one(key), b.hash_one(key));
    }

    #[test]
    fn flow_hash_byte_fallback_is_a_hash() {
        let builder = FlowHash::new();
        let hash = |bytes: &[u8]| {
            let mut h = builder.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"flowzip"), hash(b"flowzip"));
        assert_ne!(hash(&[1]), hash(&[1, 0]));
        assert_ne!(hash(&[0; 16]), hash(&[0; 32]));

        let mut map: HashMap<String, usize, FlowHash> = HashMap::default();
        for i in 0..2_000 {
            map.insert(format!("flow-{i}"), i);
        }
        assert_eq!(map.len(), 2_000);
        assert!((0..2_000).all(|i| map[&format!("flow-{i}")] == i));
    }

    #[test]
    fn directions_follow_initiator() {
        let t = client_tuple(2000);
        let mut flow = Flow::starting_with(pkt(t, 0, TcpFlags::SYN, 0));
        flow.push(pkt(t.reversed(), 100, TcpFlags::SYN | TcpFlags::ACK, 0));
        flow.push(pkt(t, 200, TcpFlags::ACK, 0));
        let dirs: Vec<FlowDirection> = flow.packets().iter().map(|(_, d)| *d).collect();
        assert_eq!(
            dirs,
            vec![
                FlowDirection::FromInitiator,
                FlowDirection::FromResponder,
                FlowDirection::FromInitiator
            ]
        );
    }

    #[test]
    fn rtt_estimate_is_syn_to_synack_gap() {
        let t = client_tuple(2100);
        let mut flow = Flow::starting_with(pkt(t, 1_000, TcpFlags::SYN, 0));
        flow.push(pkt(t.reversed(), 41_000, TcpFlags::SYN | TcpFlags::ACK, 0));
        assert_eq!(flow.estimate_rtt(), Some(Duration::from_micros(40_000)));

        let lonely = Flow::starting_with(pkt(client_tuple(2200), 0, TcpFlags::SYN, 0));
        assert_eq!(lonely.estimate_rtt(), None);
    }

    #[test]
    fn table_groups_both_directions() {
        let t = client_tuple(3000);
        let mut trace = Trace::new();
        trace.push(pkt(t, 0, TcpFlags::SYN, 0));
        trace.push(pkt(t.reversed(), 10, TcpFlags::SYN | TcpFlags::ACK, 0));
        trace.push(pkt(t, 20, TcpFlags::ACK, 0));
        trace.push(pkt(client_tuple(3001), 30, TcpFlags::SYN, 0));

        let table = FlowTable::from_trace(&trace);
        assert_eq!(table.len(), 2);
        let flow = table.get(t.reversed()).unwrap();
        assert_eq!(flow.len(), 3);
        assert_eq!(flow.initiator(), t);
    }

    #[test]
    fn flows_iterate_in_first_seen_order() {
        let mut trace = Trace::new();
        for port in [5000u16, 4000, 4500] {
            trace.push(pkt(client_tuple(port), port as u64, TcpFlags::SYN, 0));
        }
        let table = FlowTable::from_trace(&trace);
        let ports: Vec<u16> = table.flows().map(|f| f.initiator().src_port).collect();
        assert_eq!(ports, vec![5000, 4000, 4500]);
    }

    #[test]
    fn stats_shares() {
        let mut trace = Trace::new();
        // one 2-packet (short) flow with 100B payloads
        let a = client_tuple(6000);
        trace.push(pkt(a, 0, TcpFlags::SYN, 100));
        trace.push(pkt(a.reversed(), 1, TcpFlags::ACK, 100));
        // one 3-packet (long, with threshold 2) flow
        let b = client_tuple(6001);
        trace.push(pkt(b, 2, TcpFlags::SYN, 0));
        trace.push(pkt(b.reversed(), 3, TcpFlags::ACK, 0));
        trace.push(pkt(b, 4, TcpFlags::FIN, 0));

        let stats = FlowTable::from_trace(&trace).stats(2);
        assert_eq!(stats.flows, 2);
        assert_eq!(stats.short_flows, 1);
        assert_eq!(stats.packets, 5);
        assert_eq!(stats.short_packets, 2);
        assert!((stats.short_flow_fraction() - 0.5).abs() < 1e-12);
        assert!((stats.short_packet_fraction() - 0.4).abs() < 1e-12);
        // byte share: short flow has 2*140=280, long 3*40=120
        assert!((stats.short_byte_fraction() - 280.0 / 400.0).abs() < 1e-12);
        assert_eq!(stats.length_histogram[2], 1);
        assert_eq!(stats.length_histogram[3], 1);
        let pmf = stats.length_pmf();
        assert!((pmf[2] - 0.5).abs() < 1e-12);
        assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((stats.mean_flow_len() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn stats_on_empty_table() {
        let stats = FlowTable::new().stats(50);
        assert_eq!(stats.flows, 0);
        assert_eq!(stats.short_flow_fraction(), 0.0);
        assert!(stats.length_pmf().is_empty());
        assert_eq!(stats.mean_flow_len(), 0.0);
    }

    #[test]
    fn termination_detection() {
        let t = client_tuple(7000);
        let mut flow = Flow::starting_with(pkt(t, 0, TcpFlags::SYN, 0));
        assert!(!flow.saw_termination());
        flow.push(pkt(t, 1, TcpFlags::FIN | TcpFlags::ACK, 0));
        assert!(flow.saw_termination());
    }

    #[test]
    fn flow_byte_accounting() {
        let t = client_tuple(8000);
        let mut flow = Flow::starting_with(pkt(t, 0, TcpFlags::SYN, 10));
        flow.push(pkt(t, 1, TcpFlags::ACK, 20));
        assert_eq!(flow.payload_bytes(), 30);
        assert_eq!(flow.wire_bytes(), 40 + 10 + 40 + 20);
        assert_eq!(flow.first_timestamp().as_micros(), 0);
        assert_eq!(flow.last_timestamp().as_micros(), 1);
    }
}
