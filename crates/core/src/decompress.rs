//! The decompression algorithm of §4.
//!
//! "The algorithm starts reading the time-seq dataset ... goes reading the
//! sequences of M values and decoding the TCP flag, the payload size, and
//! the inter-packet time. ... For source address, we assign randomly an IP
//! class B or C address ... a random value between 1024 and 65000 to
//! client port number, and to the server side the value 80."
//!
//! Timing synthesis: the first packet lands at the record's timestamp;
//! each *dependent* packet (decoded from `f₂`) waits the flow's stored
//! RTT, each non-dependent packet follows after a small back-to-back gap.
//! Packet direction is itself reconstructed from the dependence bits: the
//! first packet travels client→server and every dependent packet flips
//! the direction (it answered the opposite node).
//!
//! # The merge
//!
//! §4 "merges flows by timestamp while writing the output file", and so
//! does [`Decompressor::packets`]. It reads the archive's flows from the
//! reader's record merge ([`ArchiveReader::records`]), which decodes
//! each time-seq record out of the archive bytes only when it is next,
//! and it holds only the flows that are open *right now*. Each flow
//! becomes a small per-flow **cursor** (the rest of its template — a
//! long flow's still in its ≈ 3 B/packet wire encoding in the archive
//! bytes, each entry decoded once, as it is reached — its next packet's
//! decoded `M`, the flow's clock, direction and sequence counters); open
//! cursors sit in a min-heap keyed `(timestamp of the cursor's next
//! packet, record index)`. Every step first opens each unopened flow
//! whose `first_ts` is not later than the heap's top — the record merge
//! yields flows sorted by `first_ts`, so nothing still unopened can
//! precede the top — then emits the top cursor's packet and re-keys it
//! in place.
//!
//! That order is exactly the order [`Decompressor::decompress`] — the
//! test oracle, which expands flow by flow and then stable-sorts by
//! timestamp — produces from the same records. A stable sort of the
//! flow-by-flow expansion orders packets by `(timestamp, time-seq index,
//! packet index)`. A flow's clock never runs backwards (it advances by
//! saturating adds), so within one flow packet order *is* timestamp
//! order and a cursor's next packet is always its earliest; across flows
//! the heap key compares `(timestamp, time-seq index)`. The two orders
//! coincide, packet for packet, ties included.
//!
//! Memory is the archive bytes, the reader's resident datasets (short
//! templates, addresses, the section index), one decoded record and one
//! offset per long template for each section the merge reads, and one
//! cursor per open flow — independent of the packet count, and of the
//! flow count beyond the ≈ 8 B each long template's offset costs.
//! [`PacketStream::peak_open`] reports the heap's high-water mark.
//!
//! [`ArchiveReader::records`]: crate::ArchiveReader::records
//!
//! # Position-independent endpoint synthesis
//!
//! The synthesized client address and port are a **pure function of the
//! record's stored content** — `(seed, first-packet timestamp,
//! destination address, quantized RTT, S/L bit)` via `synth_client` —
//! not of the record's position in the time-seq stream. That invariance
//! is what makes archives *queryable*: decoding any subset of a v2
//! archive's sections reproduces, flow for flow, the exact endpoints a
//! full decompression synthesizes, so section pruning can never change a
//! query's answer. It is also what the v2.1 metadata block's Bloom
//! filters index ([`meta`](crate::meta)): the same function runs at
//! encode time to compute the flow keys a future query will look for.

use crate::characterize::{size_class_representative, Dependence, FlagClass};
use crate::datasets::{CompressedTrace, FlowRecord, RTT_SHIFT};
use crate::decode::{LongEntries, Records};
use crate::Params;
use flowzip_trace::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Default RNG seed for synthesized client endpoints (`0x5EED`), shared
/// by [`DecompressParams::default`], the CLI flags and the metadata
/// writer — Bloom keys in freshly written archives assume it.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Decompression knobs.
#[derive(Debug, Clone)]
pub struct DecompressParams {
    /// Characterization parameters (must match the compressor's weights
    /// for `M` decoding; [`Params::paper`] by default).
    pub params: Params,
    /// Gap inserted after non-dependent packets (back-to-back spacing).
    pub backtoback_gap: Duration,
    /// RTT substitute when a flow recorded none (responder never spoke).
    pub default_rtt: Duration,
    /// RNG seed for synthesized addresses and ports.
    pub seed: u64,
}

impl Default for DecompressParams {
    fn default() -> Self {
        DecompressParams {
            params: Params::paper(),
            backtoback_gap: Duration::from_micros(300),
            default_rtt: Duration::from_millis(80),
            seed: DEFAULT_SEED,
        }
    }
}

/// What one `M` value decodes to: the packet's flag byte and payload
/// size, and whether it waited for the opposite node.
#[derive(Debug, Clone, Copy)]
struct DecodedM {
    flags: TcpFlags,
    payload_len: u16,
    dependent: bool,
}

/// The §4 decompressor.
#[derive(Debug)]
pub struct Decompressor {
    config: DecompressParams,
    /// `M` → [`DecodedM`] for every value the weights can decompose;
    /// built once per session so the per-packet step is a table load
    /// instead of [`Weights::decompose`](crate::Weights::decompose)'s
    /// three runtime divisions.
    decoded: Vec<DecodedM>,
    /// What an `M` outside the table (or one the weights cannot
    /// decompose) decodes to: a bare, non-dependent ACK.
    unknown: DecodedM,
}

impl Decompressor {
    /// Creates a decompressor.
    pub fn new(config: DecompressParams) -> Decompressor {
        let weights = config.params.weights;
        let edge = config.params.size_edge;
        let decode = |class: FlagClass, dep, f3| DecodedM {
            flags: class.to_flags(),
            payload_len: size_class_representative(f3, edge),
            dependent: dep == Dependence::Dependent,
        };
        let unknown = decode(FlagClass::Ack, Dependence::NotDependent, 0);
        // `f₁ ≤ 5`, so no `M` at or past `6·w₁` decomposes; templates
        // store `M` as `u16`, which bounds the table whatever the weights.
        let len = (weights.flags as u64 * 6).min(1 << 16) as u32;
        let decoded = (0..len)
            .map(|m| {
                weights
                    .decompose(m)
                    .map_or(unknown, |(class, dep, f3)| decode(class, dep, f3))
            })
            .collect();
        Decompressor {
            config,
            decoded,
            unknown,
        }
    }

    /// Expands an archive into a synthetic trace, time-sorted, the
    /// direct way: every flow in turn into one vector, then a stable
    /// sort. O(packets) memory — this is the **oracle** the streaming
    /// merge ([`Decompressor::packets`]) is tested against; sessions
    /// that write a capture drain the merge instead.
    pub fn decompress(&self, ct: &CompressedTrace) -> Trace {
        let mut packets = Vec::with_capacity(ct.packet_count() as usize);
        for record in &ct.time_seq {
            let template = if record.is_long {
                Template::Long(ct.long_templates[record.template_idx as usize].cursor())
            } else {
                Template::Short(ct.short_templates[record.template_idx as usize].iter())
            };
            let server = ct.addresses[record.addr_idx as usize];
            let mut cursor = self.open(record, server, template);
            while let Some(packet) = cursor.next_packet(self) {
                packets.push(packet);
            }
        }
        Trace::from_packets(packets)
    }

    /// The packets of `flows` in capture order, synthesized on demand:
    /// the §4 merge (see the [module docs](self)). Packet for packet the
    /// sequence [`Decompressor::decompress`] returns for the same
    /// records, in memory proportional to the flows open at once rather
    /// than to the trace.
    pub fn packets<'a>(&'a self, flows: Records<'a>) -> PacketStream<'a> {
        PacketStream {
            decompressor: self,
            remaining: flows.packets(),
            flows,
            next_record: 0,
            cursors: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            peak_open: 0,
        }
    }

    /// Parses serialized archive bytes — either container format, v1 or
    /// v2, through the one reader — and expands them. The format never
    /// changes the output: a v2 file reconstructs the identical
    /// [`CompressedTrace`] its v1 twin does, so the synthesized trace
    /// is packet-identical too.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`](crate::datasets::CodecError) for malformed
    /// input.
    pub fn decompress_bytes(&self, data: &[u8]) -> Result<Trace, crate::datasets::CodecError> {
        Ok(self.decompress(&CompressedTrace::from_bytes(data)?))
    }

    fn decode(&self, m: u16) -> DecodedM {
        self.decoded
            .get(m as usize)
            .copied()
            .unwrap_or(self.unknown)
    }

    /// Positions a cursor on the first packet of `record`, a flow to
    /// `server` whose `M` sequence is `template`.
    fn open<'a>(
        &self,
        record: &FlowRecord,
        server: Ipv4Addr,
        mut template: Template<'a>,
    ) -> Cursor<'a> {
        // The first packet lands at the record's timestamp: its stored
        // gap is not read.
        let next = template.next().map(|(m, _)| self.decode(m));
        Cursor {
            template,
            next,
            now: record.first_ts,
            rtt: if record.rtt.is_zero() {
                self.config.default_rtt
            } else {
                record.rtt
            },
            c2s: synth_tuple(
                self.config.seed,
                record.first_ts,
                server,
                record.rtt,
                record.is_long,
            ),
            client_to_server: true,
            client_seq: 1_000,
            server_seq: 5_000,
        }
    }
}

impl Default for Decompressor {
    fn default() -> Self {
        Decompressor::new(DecompressParams::default())
    }
}

/// The rest of a flow's `M` sequence: a shared cluster center, or a
/// long flow's verbatim `(M, gap)` pairs, still encoded.
#[derive(Debug, Clone)]
pub(crate) enum Template<'a> {
    Short(std::slice::Iter<'a, u16>),
    Long(LongEntries<'a>),
}

impl Template<'_> {
    /// The next packet's `M` value and, for long flows, the stored gap
    /// before it.
    #[inline]
    fn next(&mut self) -> Option<(u16, Option<Duration>)> {
        match self {
            Template::Short(t) => t.next().map(|&m| (m, None)),
            Template::Long(t) => t.next().map(|(m, ipt)| (m, Some(ipt))),
        }
    }
}

/// One flow mid-expansion: everything the §4 per-packet step carries
/// from a packet to the next.
#[derive(Debug)]
struct Cursor<'a> {
    /// The packets after the next one.
    template: Template<'a>,
    /// The next packet's decoded `M`; `None` once the template is spent.
    next: Option<DecodedM>,
    /// Timestamp of the next packet to emit.
    now: Timestamp,
    rtt: Duration,
    c2s: FiveTuple,
    /// Direction of the next packet to emit.
    client_to_server: bool,
    client_seq: u32,
    server_seq: u32,
}

impl Cursor<'_> {
    fn is_done(&self) -> bool {
        self.next.is_none()
    }

    /// The §4 per-packet step: emits the next packet (flags, size,
    /// sequence numbers), then reads the entry after it — once: its `M`
    /// sets the flow's clock and direction now and is the packet the
    /// following step emits. `None` once the template is spent.
    fn next_packet(&mut self, d: &Decompressor) -> Option<PacketRecord> {
        let decoded = self.next?;
        let len = decoded.payload_len;
        let (tuple, seq, ack) = if self.client_to_server {
            let seq = self.client_seq;
            self.client_seq = seq.wrapping_add(len as u32);
            (self.c2s, seq, self.server_seq)
        } else {
            let seq = self.server_seq;
            self.server_seq = seq.wrapping_add(len as u32);
            (self.c2s.reversed(), seq, self.client_seq)
        };
        let packet = PacketRecord::builder()
            .timestamp(self.now)
            .tuple(tuple)
            .flags(decoded.flags)
            .payload_len(len)
            .seq(seq)
            .ack(ack)
            .build();

        self.next = None;
        if let Some((next_m, stored_ipt)) = self.template.next() {
            let next = d.decode(next_m);
            let dependent = next.dependent;
            // Timing: stored gap for long flows; synthesized for short.
            // Saturating — a crafted gap must not wrap the clock
            // backwards (the merge relies on it never doing so).
            self.now = self.now.saturating_add(stored_ipt.unwrap_or(if dependent {
                self.rtt
            } else {
                d.config.backtoback_gap
            }));
            // Direction: dependent packets answer the opposite node.
            if dependent {
                self.client_to_server = !self.client_to_server;
            }
            self.next = Some(next);
        }
        Some(packet)
    }
}

/// Heap key of an open cursor. Field order is comparison order:
/// `(ts, record)` is the stable sort's `(timestamp, flow index)`;
/// `slot` only locates the cursor (`record` is already unique).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct NextPacket {
    ts: Timestamp,
    record: usize,
    slot: usize,
}

/// The archive's packets in capture order — the iterator
/// [`Decompressor::packets`] returns. See the [module docs](self) for
/// the merge and why its order equals the oracle's stable sort.
#[derive(Debug)]
pub struct PacketStream<'a> {
    decompressor: &'a Decompressor,
    flows: Records<'a>,
    /// Flows opened so far: the next one's record index.
    next_record: usize,
    /// Slab of cursors; `free` lists the vacant slots.
    cursors: Vec<Cursor<'a>>,
    free: Vec<usize>,
    heap: BinaryHeap<Reverse<NextPacket>>,
    peak_open: usize,
    remaining: u64,
}

impl PacketStream<'_> {
    /// Most flows open at once so far — the merge's working set, and
    /// the decompress twin of the compressor's `peak_active_flows`.
    pub fn peak_open(&self) -> usize {
        self.peak_open
    }

    /// Flows opened so far.
    pub fn records_opened(&self) -> usize {
        self.next_record
    }

    /// Opens the next flow; a flow with an empty template has no packet
    /// to wait for and never enters the heap.
    fn open_next(&mut self) {
        let Some(flow) = self.flows.next() else {
            return;
        };
        let cursor = self
            .decompressor
            .open(&flow.record, flow.server, flow.template);
        let index = self.next_record;
        self.next_record += 1;
        if cursor.is_done() {
            return;
        }
        let ts = cursor.now;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.cursors[slot] = cursor;
                slot
            }
            None => {
                self.cursors.push(cursor);
                self.cursors.len() - 1
            }
        };
        self.heap.push(Reverse(NextPacket {
            ts,
            record: index,
            slot,
        }));
        self.peak_open = self.peak_open.max(self.heap.len());
    }
}

impl Iterator for PacketStream<'_> {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        while let Some(flow) = self.flows.peek() {
            if self
                .heap
                .peek()
                .is_some_and(|Reverse(top)| flow.record.first_ts > top.ts)
            {
                break;
            }
            self.open_next();
        }
        let mut top = self.heap.peek_mut()?;
        let cursor = &mut self.cursors[top.0.slot];
        let packet = cursor
            .next_packet(self.decompressor)
            .expect("a cursor in the heap has a packet left");
        if cursor.is_done() {
            self.free.push(PeekMut::pop(top).0.slot);
        } else {
            // Re-keyed in place; dropping the guard sifts it down.
            top.0.ts = cursor.now;
        }
        self.remaining -= 1;
        Some(packet)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

/// Synthesizes a flow's client endpoint — address in random class B/C
/// space, port in 1024–65000 — as a **pure function of the record's
/// stored content**: the decompression seed, the flow's first-packet
/// timestamp, its server address, its RTT (quantized exactly as the
/// container quantizes it, so in-memory and decoded archives agree) and
/// its short/long bit. Every consumer of a record — full decompression,
/// a pruned query decode, the encode-time Bloom-key writer — derives the
/// identical endpoint, regardless of which sections around it were
/// decoded.
pub(crate) fn synth_client(
    seed: u64,
    first_ts: Timestamp,
    server: Ipv4Addr,
    rtt: Duration,
    is_long: bool,
) -> (Ipv4Addr, u16) {
    // FNV-1a over the record's canonical content, then used to seed the
    // same RNG draw sequence §4 prescribes.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    };
    for b in seed.to_le_bytes() {
        eat(b);
    }
    for b in first_ts.as_micros().to_le_bytes() {
        eat(b);
    }
    for b in server.octets() {
        eat(b);
    }
    // Long flows store no RTT (it is Duration::ZERO by construction);
    // short-flow RTTs reach a decoder only at 128 µs granularity.
    let rtt_q = if is_long {
        0
    } else {
        rtt.as_micros() >> RTT_SHIFT
    };
    for b in rtt_q.to_le_bytes() {
        eat(b);
    }
    eat(is_long as u8);

    let mut rng = StdRng::seed_from_u64(h);
    let client = random_class_b_or_c(&mut rng);
    let port = rng.gen_range(1024..=65000u16);
    (client, port)
}

/// [`synth_client`] packaged as the flow's client→server five-tuple
/// (server side on port 80, per §4) — the flow key the v2.1 metadata
/// Bloom filters store and `flowzip query` matches against.
pub(crate) fn synth_tuple(
    seed: u64,
    first_ts: Timestamp,
    server: Ipv4Addr,
    rtt: Duration,
    is_long: bool,
) -> FiveTuple {
    let (client, port) = synth_client(seed, first_ts, server, rtt, is_long);
    FiveTuple::tcp(client, port, server, 80)
}

/// "For source address, we assign randomly an IP class B or C address."
fn random_class_b_or_c<R: Rng>(rng: &mut R) -> Ipv4Addr {
    if rng.gen_bool(0.5) {
        // Class B: 128.0.0.0 – 191.255.255.255
        Ipv4Addr::new(
            rng.gen_range(128u8..=191),
            rng.gen(),
            rng.gen(),
            rng.gen_range(1..=254),
        )
    } else {
        // Class C: 192.0.0.0 – 223.255.255.255
        Ipv4Addr::new(
            rng.gen_range(192u8..=223),
            rng.gen(),
            rng.gen(),
            rng.gen_range(1..=254),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compressor;
    use flowzip_trace::flow::FlowTable;
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

    fn roundtrip(trace: &Trace) -> Trace {
        let (ct, _) = Compressor::new(Params::paper()).compress(trace);
        Decompressor::default().decompress(&ct)
    }

    #[test]
    fn packet_and_flow_counts_preserved() {
        let orig = web_trace(120, 1);
        let dec = roundtrip(&orig);
        assert_eq!(dec.len(), orig.len());
        let orig_flows = FlowTable::from_trace(&orig).len();
        let dec_flows = FlowTable::from_trace(&dec).len();
        assert_eq!(dec_flows, orig_flows);
    }

    #[test]
    fn output_is_time_sorted() {
        let dec = roundtrip(&web_trace(100, 2));
        assert!(dec.is_time_ordered());
        dec.validate().unwrap();
    }

    #[test]
    fn ports_follow_section_four() {
        let dec = roundtrip(&web_trace(60, 3));
        for p in &dec {
            let t = p.tuple();
            let (client_port, server_port) = if t.dst_port == 80 {
                (t.src_port, t.dst_port)
            } else {
                (t.dst_port, t.src_port)
            };
            assert_eq!(server_port, 80, "server side is port 80");
            assert!((1024..=65000).contains(&client_port));
        }
    }

    #[test]
    fn sources_are_class_b_or_c() {
        let dec = roundtrip(&web_trace(60, 4));
        for p in &dec {
            // The client endpoint (port != 80) must be class B or C.
            let client_ip = if p.tuple().dst_port == 80 {
                p.src_ip()
            } else {
                p.dst_ip()
            };
            let first = client_ip.octets()[0];
            assert!(
                (128..=223).contains(&first),
                "client {client_ip} outside class B/C"
            );
        }
    }

    #[test]
    fn flag_sequence_structure_survives() {
        let orig = web_trace(150, 5);
        let dec = roundtrip(&orig);
        let count =
            |t: &Trace, pred: fn(TcpFlags) -> bool| t.iter().filter(|p| pred(p.flags())).count();
        // SYN and SYN+ACK counts survive exactly (every flow keeps its
        // handshake classes through template clustering within d_sim).
        let syn_orig = count(&orig, |f| f.is_syn_only());
        let syn_dec = count(&dec, |f| f.is_syn_only());
        let diff = (syn_orig as f64 - syn_dec as f64).abs() / syn_orig as f64;
        assert!(diff < 0.05, "syn counts {syn_orig} vs {syn_dec}");
    }

    #[test]
    fn payload_class_histogram_survives() {
        use crate::characterize::size_class;
        let orig = web_trace(200, 6);
        let dec = roundtrip(&orig);
        let hist = |t: &Trace| {
            let mut h = [0u64; 3];
            for p in t {
                h[size_class(p.payload_len(), 500) as usize] += 1;
            }
            h
        };
        let ho = hist(&orig);
        let hd = hist(&dec);
        for k in 0..3 {
            let rel = (ho[k] as f64 - hd[k] as f64).abs() / ho[k].max(1) as f64;
            assert!(rel < 0.10, "class {k}: {} vs {}", ho[k], hd[k]);
        }
    }

    #[test]
    fn destination_addresses_come_from_the_address_dataset() {
        let orig = web_trace(80, 7);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let dec = Decompressor::default().decompress(&ct);
        let servers: std::collections::HashSet<Ipv4Addr> = ct.addresses.iter().copied().collect();
        // Every c2s packet's destination is a stored address.
        for p in &dec {
            if p.tuple().dst_port == 80 {
                assert!(servers.contains(&p.dst_ip()));
            }
        }
    }

    #[test]
    fn flow_durations_are_rtt_scaled() {
        // A flow's span must be on the order of (dependent packets × RTT).
        let orig = web_trace(40, 8);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let dec = Decompressor::default().decompress(&ct);
        let table = FlowTable::from_trace(&dec);
        for flow in table.flows() {
            let span = flow
                .last_timestamp()
                .saturating_since(flow.first_timestamp());
            // 4+ dependent packets per scripted flow, RTT >= 1ms each.
            assert!(span.as_micros() >= 3_000, "span {span} too small");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let orig = web_trace(50, 9);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let a = Decompressor::default().decompress(&ct);
        let b = Decompressor::default().decompress(&ct);
        assert_eq!(a, b);
        let c = Decompressor::new(DecompressParams {
            seed: 999,
            ..Default::default()
        })
        .decompress(&ct);
        assert_ne!(a, c, "different seed, different synthesized addresses");
    }

    #[test]
    fn empty_archive_decompresses_to_empty_trace() {
        let dec = Decompressor::default().decompress(&CompressedTrace::default());
        assert!(dec.is_empty());
    }

    #[test]
    fn endpoint_synthesis_is_position_independent() {
        // Dropping records from the stream must not change the endpoints
        // synthesized for the remaining ones — the invariant that makes
        // pruned (per-section) query decodes byte-identical to filtering
        // a full decompression.
        let orig = web_trace(80, 10);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let full = Decompressor::default().decompress(&ct);
        let mut sub = ct.clone();
        sub.time_seq = ct.time_seq.iter().step_by(2).copied().collect();
        let dec_sub = Decompressor::default().decompress(&sub);
        let full_set: std::collections::HashSet<_> = full
            .iter()
            .map(|p| (p.timestamp(), p.tuple(), p.payload_len(), p.flags().bits()))
            .collect();
        assert!(!dec_sub.is_empty());
        for p in &dec_sub {
            assert!(
                full_set.contains(&(p.timestamp(), p.tuple(), p.payload_len(), p.flags().bits())),
                "subset decode synthesized a packet the full decode never produced"
            );
        }
    }

    #[test]
    fn in_memory_and_serialized_archives_synthesize_identically() {
        // synth_client quantizes the RTT exactly as the container does,
        // so an in-memory archive (raw RTTs) and its decoded serialized
        // form (quantized RTTs) synthesize the same endpoints — only the
        // packet *timing* reflects the RTT precision loss. And the two
        // serialized forms quantize identically, so their expansions are
        // equal outright.
        let orig = web_trace(70, 11);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let direct = Decompressor::default().decompress(&ct);
        let via_v1 = Decompressor::default()
            .decompress_bytes(&ct.to_bytes())
            .unwrap();
        let via_v2 = Decompressor::default()
            .decompress_bytes(&ct.to_bytes_v2())
            .unwrap();
        assert_eq!(via_v1, via_v2);
        assert_eq!(direct.len(), via_v1.len());
        // RTT precision loss can nudge timestamps (and thus packet
        // order), but the synthesized endpoint multiset is invariant.
        let tuples = |t: &Trace| {
            let mut v: Vec<FiveTuple> = t.packets().iter().map(|p| p.tuple()).collect();
            v.sort();
            v
        };
        assert_eq!(
            tuples(&direct),
            tuples(&via_v1),
            "endpoints must survive quantization"
        );
    }

    #[test]
    fn synth_tuple_matches_decompressed_flows() {
        // The tuple the metadata writer computes per record is exactly
        // the tuple the decompressor gives that record's packets.
        let orig = web_trace(50, 12);
        let (ct, _) = Compressor::new(Params::paper()).compress(&orig);
        let params = DecompressParams::default();
        let dec = Decompressor::new(params.clone()).decompress(&ct);
        let expected: std::collections::HashSet<FiveTuple> = ct
            .time_seq
            .iter()
            .map(|r| {
                synth_tuple(
                    params.seed,
                    r.first_ts,
                    ct.addresses[r.addr_idx as usize],
                    r.rtt,
                    r.is_long,
                )
            })
            .collect();
        for p in &dec {
            let t = p.tuple();
            let c2s = if t.dst_port == 80 { t } else { t.reversed() };
            assert!(expected.contains(&c2s), "packet tuple {t} not predicted");
        }
    }
}
