//! Online flow accumulation — the linked-list structure of §3.
//!
//! "When a packet carrying a new flow is found, a new node is inserted at
//! the end of a linked list ... Each node has associated another linked
//! list, where are inserted the packets from the same flow. When a Fin or
//! Rst TCP flag is found, the algorithm ... looks for the number of
//! inserted nodes associated to this flow."
//!
//! Here the per-flow packet list is one byte log in the
//! `long-flows-template` wire encoding: per packet, `varint M` then
//! `varint gap_µs` — ≈ 3 B per packet, one growing buffer per open
//! flow. A long flow's archive entry is that log behind a length
//! prefix, so it is stored verbatim without ever being decoded; a short
//! flow decodes only its `M` column ([`FinishedFlow::decode_vector`])
//! for clustering.
//!
//! The list of nodes is a slab of slots, reused through a free list and
//! threaded on `prev`/`next` links in first-seen order; an open flow
//! costs one slot. A map from the packed canonical 5-tuple ([`FlowKey`],
//! hashed once per packet under a seeded [`FlowHash`]) to the slot finds
//! a packet's flow, and nothing walks it: eviction and the end-of-trace
//! flush walk the list, so no output depends on the map's seeds. A flow
//! is finalized when:
//!
//! * an RST is seen (abortive close — immediate), or
//! * both directions have sent FIN and the closing ACK arrives, or
//! * the flow sits idle past a caller-chosen cutoff
//!   ([`FlowAccumulator::evict_idle`] — what keeps streaming memory
//!   bounded on arbitrarily long traces), or
//! * the trace ends ([`FlowAccumulator::flush`]).
//!
//! Streaming consumers interleave [`FlowAccumulator::push`] with
//! [`FlowAccumulator::drain_completed`] so finished flows leave the
//! accumulator as soon as they close instead of piling up.

use crate::characterize::{size_class, Dependence};
use crate::container::{long_entry_ms, put_long_entry};
use crate::decode::LongEntries;
use crate::telemetry::FlowTelemetry;
use crate::Params;
use flowzip_trace::prelude::*;
use flowzip_trace::{FlowHash, FlowKey};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Inter-packet gaps at or above this many microseconds count as *idle*
/// time in a flow's telemetry; shorter gaps count as *active* transfer
/// time (1 s — safely past any plausible in-transfer ack gap, well
/// under typical keep-alive intervals).
pub(crate) const IDLE_THRESHOLD_US: u64 = 1_000_000;

/// A fully characterized, completed flow ready for clustering.
///
/// Its packets stay in the accumulator's encoded log: [`Self::entries`]
/// decodes the `(M, gap)` pairs, [`Self::decode_vector`] the `M` vector
/// alone, and a long flow's log goes into the archive as it is.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedFlow {
    /// Timestamp of the first packet (the `time-seq` field).
    pub first_ts: Timestamp,
    /// Destination the initiator talked to (the `address` dataset entry).
    pub dst_ip: Ipv4Addr,
    /// Estimated round-trip time: gap from the first packet to the first
    /// responder packet; zero when the responder never spoke.
    pub rtt: Duration,
    /// Per packet, `varint M` then `varint gap_µs` (the first gap zero):
    /// exactly the bytes a `LongTemplate` holds and the container writes
    /// after its length prefix. The flow's `M` vector (`KM_f` in §2) and
    /// its timing are this one buffer, ≈ 3 B per packet.
    pub(crate) log: Vec<u8>,
    /// Packets in `log`.
    packets: u64,
    /// TCP-dynamics telemetry, when the accumulator ran with
    /// [`FlowAccumulator::with_telemetry`]; `None` otherwise.
    pub telemetry: Option<FlowTelemetry>,
}

impl FinishedFlow {
    /// Packet count.
    pub fn len(&self) -> usize {
        self.packets as usize
    }

    /// `true` for flows without packets (never produced by the
    /// accumulator; kept for container symmetry).
    pub fn is_empty(&self) -> bool {
        self.packets == 0
    }

    /// Whether the flow is short under the given threshold.
    pub fn is_short(&self, short_max: usize) -> bool {
        self.len() <= short_max
    }

    /// The flow's packets as `(M, gap before this packet)` pairs, the
    /// first gap zero — the entries of its long template.
    pub fn entries(&self) -> impl Iterator<Item = (u16, Duration)> + '_ {
        LongEntries::new(&self.log)
    }

    /// Decodes the flow's `M` vector into `out` (cleared first), skipping
    /// the gaps — what clustering reads, into a buffer the caller reuses.
    pub fn decode_vector(&self, out: &mut Vec<u16>) {
        out.clear();
        out.reserve(self.len());
        long_entry_ms(&self.log, out);
    }
}

/// One direction's TCP bookkeeping for telemetry derivation.
#[derive(Debug, Default)]
struct DirState {
    /// Highest end-of-data sequence number sent by this direction
    /// (`seq + payload_len`, wrapping); data below it is a retransmit.
    next_seq: Option<u32>,
    /// Last acknowledgement number this direction sent.
    last_ack: Option<u32>,
    /// Consecutive *duplicate* pure ACKs this direction has sent — the
    /// triple-dup-ACK evidence that classifies the peer's next
    /// retransmission as a fast retransmit.
    dup_acks: u32,
    /// `(end_seq, send time)` of this direction's newest in-order data,
    /// awaiting the peer's covering ACK for an ack-clock RTT sample.
    /// Cleared on retransmission (Karn's rule: an ambiguous sample is
    /// worse than none).
    pending: Option<(u32, Timestamp)>,
}

/// Per-flow TCP-dynamics derivation, updated inline during
/// [`FlowAccumulator::push`] — the "zero extra passes" half of the
/// telemetry contract. Boxed inside [`ActiveFlow`] so disabled runs pay
/// one null pointer per flow, nothing more.
#[derive(Debug, Default)]
struct TelemetryState {
    /// Initiator SYN timestamp (handshake RTT leg 1).
    syn_ts: Option<Timestamp>,
    /// Responder SYN-ACK timestamp (handshake RTT leg 2).
    synack_ts: Option<Timestamp>,
    /// Whether the post-SYN-ACK sample was already taken.
    handshake_done: bool,
    rtt_sum_us: u64,
    rtt_samples: u64,
    retrans_fast: u64,
    retrans_timeout: u64,
    active_us: u64,
    idle_us: u64,
    bytes: u64,
    /// `[FromInitiator, FromResponder]` bookkeeping.
    dirs: [DirState; 2],
}

impl TelemetryState {
    fn sample_rtt(&mut self, d: Duration) {
        self.rtt_sum_us += d.as_micros();
        self.rtt_samples += 1;
    }

    /// Folds one packet in. `gap` is the time since the flow's previous
    /// packet (zero for the first). Sequence/ACK inspection only makes
    /// sense for TCP; other protocols contribute time and byte totals.
    fn observe(&mut self, p: &PacketRecord, dir: FlowDirection, gap: Duration) {
        if gap.as_micros() >= IDLE_THRESHOLD_US {
            self.idle_us += gap.as_micros();
        } else {
            self.active_us += gap.as_micros();
        }
        self.bytes += p.payload_len() as u64;
        if !p.tuple().protocol.is_tcp() {
            return;
        }

        let flags = p.flags();
        let ts = p.timestamp();
        // Handshake RTT: SYN → SYN-ACK times the server leg, SYN-ACK →
        // first initiator ACK times the client leg. Each fires once.
        match dir {
            FlowDirection::FromInitiator => {
                if flags.is_syn_only() && self.syn_ts.is_none() {
                    self.syn_ts = Some(ts);
                } else if flags.contains(TcpFlags::ACK) && !self.handshake_done {
                    if let Some(t0) = self.synack_ts {
                        self.sample_rtt(ts.saturating_since(t0));
                        self.handshake_done = true;
                    }
                }
            }
            FlowDirection::FromResponder => {
                if flags.is_syn_ack() && self.synack_ts.is_none() {
                    if let Some(t0) = self.syn_ts {
                        self.sample_rtt(ts.saturating_since(t0));
                    }
                    self.synack_ts = Some(ts);
                }
            }
        }

        let (me, peer) = match dir {
            FlowDirection::FromInitiator => (0, 1),
            FlowDirection::FromResponder => (1, 0),
        };

        // Retransmission detection: data whose sequence number sits
        // below this direction's highest end-of-data is a resend. With
        // ≥3 duplicate ACKs outstanding from the peer it is a fast
        // retransmit; otherwise the sender's timer fired.
        if p.has_payload() {
            let end = p.seq().wrapping_add(p.payload_len() as u32);
            match self.dirs[me].next_seq {
                Some(next) if (p.seq().wrapping_sub(next) as i32) < 0 => {
                    if self.dirs[peer].dup_acks >= 3 {
                        self.retrans_fast += 1;
                    } else {
                        self.retrans_timeout += 1;
                    }
                    self.dirs[peer].dup_acks = 0;
                    // Karn: the covering ACK can no longer be attributed
                    // to one transmission.
                    self.dirs[me].pending = None;
                    if (end.wrapping_sub(next) as i32) > 0 {
                        self.dirs[me].next_seq = Some(end);
                    }
                }
                _ => {
                    self.dirs[me].next_seq = Some(end);
                    self.dirs[me].pending = Some((end, ts));
                }
            }
        }

        if flags.contains(TcpFlags::ACK) {
            // Duplicate-ACK counting: a pure ACK repeating the previous
            // ACK number is loss evidence; any advance resets the run.
            let pure_ack = !p.has_payload()
                && !flags.intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST);
            match self.dirs[me].last_ack {
                Some(prev) if prev == p.ack() && pure_ack => self.dirs[me].dup_acks += 1,
                Some(prev) if prev == p.ack() => {}
                _ => self.dirs[me].dup_acks = 0,
            }
            self.dirs[me].last_ack = Some(p.ack());

            // Ack-clock RTT: this ACK may cover the peer's pending data.
            if let Some((end, t0)) = self.dirs[peer].pending {
                if (p.ack().wrapping_sub(end) as i32) >= 0 {
                    self.sample_rtt(ts.saturating_since(t0));
                    self.dirs[peer].pending = None;
                }
            }
        }
    }

    fn finish(&self) -> FlowTelemetry {
        FlowTelemetry {
            rtt_us: self.rtt_sum_us.checked_div(self.rtt_samples).unwrap_or(0),
            rtt_samples: self.rtt_samples,
            retrans_fast: self.retrans_fast,
            retrans_timeout: self.retrans_timeout,
            active_us: self.active_us,
            idle_us: self.idle_us,
            bytes: self.bytes,
        }
    }
}

/// One open flow: the §3 node. Its packet list is `log`, one growing
/// byte buffer the packets are appended to in the [`FinishedFlow`]
/// encoding as they arrive, and that [`FinishedFlow`] takes over as is.
#[derive(Debug)]
struct ActiveFlow {
    /// The first packet's direction bit from [`FlowKey::of`]; a packet
    /// comes from the initiator when its bit equals this one.
    initiator_up: bool,
    first_ts: Timestamp,
    last_ts: Timestamp,
    last_dir: Option<FlowDirection>,
    rtt: Option<Duration>,
    fin_from_initiator: bool,
    fin_from_responder: bool,
    /// `varint M`, `varint gap_µs` per packet.
    log: Vec<u8>,
    packets: u64,
    telem: Option<Box<TelemetryState>>,
}

impl ActiveFlow {
    fn finish(self, key: FlowKey) -> FinishedFlow {
        let t = key.tuple();
        FinishedFlow {
            first_ts: self.first_ts,
            dst_ip: if self.initiator_up {
                t.dst_ip
            } else {
                t.src_ip
            },
            rtt: self.rtt.unwrap_or(Duration::ZERO),
            log: self.log,
            packets: self.packets,
            telemetry: self.telem.map(|t| t.finish()),
        }
    }
}

/// The end of the first-seen list or of the free list.
const NIL: u32 = u32::MAX;

/// One slab slot. An occupied slot holds an open flow and its links in
/// the §3 first-seen list; a free one (`flow` is `None`) links the free
/// list through `next`.
#[derive(Debug)]
struct Slot {
    key: FlowKey,
    prev: u32,
    next: u32,
    flow: Option<ActiveFlow>,
}

// One open flow, one slot: no larger than a map bucket holding the key
// and the flow side by side (16 + 88 B).
const _: () = assert!(std::mem::size_of::<Slot>() <= 104);

/// The open flows: a slab of [`Slot`]s, reused through a free list,
/// threaded on the first-seen list from `head` to `tail`.
#[derive(Debug)]
struct FlowList {
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    free: u32,
}

impl FlowList {
    fn new() -> FlowList {
        FlowList {
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Links a new open flow at the tail, in a freed slot when there is
    /// one, and returns its slot.
    fn push_back(&mut self, key: FlowKey, flow: ActiveFlow) -> u32 {
        let slot = Slot {
            key,
            prev: self.tail,
            next: NIL,
            flow: Some(flow),
        };
        let at = if self.free == NIL {
            let at = u32::try_from(self.slots.len())
                .ok()
                .filter(|&at| at != NIL)
                .expect("fewer than 2^32 - 1 open flows");
            self.slots.push(slot);
            at
        } else {
            let at = self.free;
            self.free = self.slots[at as usize].next;
            self.slots[at as usize] = slot;
            at
        };
        match self.tail {
            NIL => self.head = at,
            tail => self.slots[tail as usize].next = at,
        }
        self.tail = at;
        at
    }

    /// Unlinks the flow in slot `at` and frees the slot.
    fn remove(&mut self, at: u32) -> (FlowKey, ActiveFlow) {
        let slot = &mut self.slots[at as usize];
        let flow = slot.flow.take().expect("a linked slot holds a flow");
        let (key, prev, next) = (slot.key, slot.prev, slot.next);
        slot.next = self.free;
        self.free = at;
        match prev {
            NIL => self.head = next,
            prev => self.slots[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.slots[next as usize].prev = prev,
        }
        (key, flow)
    }
}

/// Streaming flow assembler: push packets in trace order, collect
/// finished flows as they complete, then [`FlowAccumulator::flush`] the
/// still-open ones.
#[derive(Debug)]
pub struct FlowAccumulator {
    params: Params,
    /// Derive per-flow TCP telemetry inline during [`Self::push`].
    telemetry: bool,
    /// Each open flow's slot in `open`. Iteration order depends on the
    /// per-table seed, so nothing walks this map; `open`'s first-seen
    /// list decides every output order.
    index: HashMap<FlowKey, u32, FlowHash>,
    /// The open flows, in first-seen order.
    open: FlowList,
    finished: Vec<FinishedFlow>,
    /// High-water mark of simultaneously open flows.
    peak_active: usize,
    /// Flows closed by [`FlowAccumulator::evict_idle`] rather than FIN/RST.
    evicted: u64,
}

impl FlowAccumulator {
    /// Creates an accumulator with the given parameters.
    pub fn new(params: Params) -> FlowAccumulator {
        FlowAccumulator::with_telemetry(params, false)
    }

    /// Creates an accumulator that additionally derives per-flow TCP
    /// telemetry ([`FlowTelemetry`]) inline during the accumulate pass
    /// when `telemetry` is `true` — every [`FinishedFlow`] then carries
    /// `Some` telemetry. The derivation never changes which flows form,
    /// their vectors, timing, or completion order.
    pub fn with_telemetry(params: Params, telemetry: bool) -> FlowAccumulator {
        FlowAccumulator {
            params,
            telemetry,
            index: HashMap::default(),
            open: FlowList::new(),
            finished: Vec::new(),
            peak_active: 0,
            evicted: 0,
        }
    }

    /// Number of flows currently open.
    pub fn active_flows(&self) -> usize {
        self.index.len()
    }

    /// Most flows ever open at once — the memory high-water mark a
    /// streaming pipeline reports and bounds via [`Self::evict_idle`].
    pub fn peak_active_flows(&self) -> usize {
        self.peak_active
    }

    /// Flows force-closed by idle-timeout eviction so far.
    pub fn evicted_flows(&self) -> u64 {
        self.evicted
    }

    /// Routes one packet into its flow, finalizing the flow when the
    /// packet completes it.
    pub fn push(&mut self, p: &PacketRecord) {
        let (key, up) = FlowKey::of(p.tuple());
        let open_before = self.index.len();
        // One hash per packet: the entry found here also removes the flow
        // if this packet completes it.
        let entry = match self.index.entry(key) {
            Entry::Occupied(entry) => entry,
            Entry::Vacant(vacant) => {
                self.peak_active = self.peak_active.max(open_before + 1);
                let at = self.open.push_back(
                    key,
                    ActiveFlow {
                        initiator_up: up,
                        first_ts: p.timestamp(),
                        last_ts: p.timestamp(),
                        last_dir: None,
                        rtt: None,
                        fin_from_initiator: false,
                        fin_from_responder: false,
                        log: Vec::new(),
                        packets: 0,
                        telem: self.telemetry.then(Box::default),
                    },
                );
                vacant.insert_entry(at)
            }
        };
        let at = *entry.get();
        let flow = self.open.slots[at as usize]
            .flow
            .as_mut()
            .expect("an indexed slot holds a flow");

        let dir = if up == flow.initiator_up {
            FlowDirection::FromInitiator
        } else {
            FlowDirection::FromResponder
        };
        if flow.rtt.is_none() && dir == FlowDirection::FromResponder {
            flow.rtt = Some(p.timestamp().saturating_since(flow.first_ts));
        }
        // The first packet's gap is zero: `last_ts` starts at its time.
        let gap = p.timestamp().saturating_since(flow.last_ts);
        if let Some(telem) = flow.telem.as_mut() {
            telem.observe(p, dir, gap);
        }
        let dep = Dependence::infer(flow.last_dir, dir);
        let f1 = self.params.classifier.classify(p.flags());
        let f3 = size_class(p.payload_len(), self.params.size_edge);
        let m = self
            .params
            .weights
            .m_value(f1, dep, f3)
            .min(u16::MAX as u32) as u16;
        put_long_entry(m, gap.as_micros(), &mut flow.log);
        flow.packets += 1;
        flow.last_ts = p.timestamp();
        flow.last_dir = Some(dir);

        if p.flags().is_fin() {
            match dir {
                FlowDirection::FromInitiator => flow.fin_from_initiator = true,
                FlowDirection::FromResponder => flow.fin_from_responder = true,
            }
        }

        let complete = p.flags().is_rst()
            || (flow.fin_from_initiator && flow.fin_from_responder && !p.flags().is_fin()); // the closing ACK after both FINs
        if complete {
            entry.remove();
            let (key, flow) = self.open.remove(at);
            self.finished.push(flow.finish(key));
        }
    }

    /// Flows completed so far (FIN/RST-terminated), in completion order.
    pub fn completed(&self) -> &[FinishedFlow] {
        &self.finished
    }

    /// Takes the flows completed so far, leaving the accumulator running.
    ///
    /// Streaming pipelines call this between batches so completed flows
    /// move downstream (clustering, serialization) instead of accumulating
    /// here — together with [`Self::evict_idle`] this is what keeps the
    /// accumulator's footprint proportional to *concurrency*, not trace
    /// length.
    pub fn drain_completed(&mut self) -> Vec<FinishedFlow> {
        std::mem::take(&mut self.finished)
    }

    /// Force-closes every flow whose last packet predates `cutoff`,
    /// finalizing each exactly as [`Self::flush`] would (first-seen
    /// order). Returns how many flows were evicted.
    ///
    /// A flow whose key reappears later starts over as a *new* flow, so
    /// callers trading exactness for bounded memory pick a cutoff safely
    /// past any plausible TCP idle period.
    pub fn evict_idle(&mut self, cutoff: Timestamp) -> usize {
        let before = self.finished.len();
        let mut at = self.open.head;
        while at != NIL {
            let slot = &self.open.slots[at as usize];
            let next = slot.next;
            if slot.flow.as_ref().is_some_and(|f| f.last_ts < cutoff) {
                let (key, flow) = self.open.remove(at);
                self.index.remove(&key);
                self.finished.push(flow.finish(key));
            }
            at = next;
        }
        let evicted = self.finished.len() - before;
        self.evicted += evicted as u64;
        evicted
    }

    /// Ends the trace: yields every finished flow, the FIN/RST-completed
    /// ones first in completion order, then the still-open ones in
    /// first-seen order, each finalized as it is taken. Nothing is
    /// collected, so a consumer that takes each flow as it comes never
    /// holds the flows and the table at once.
    pub fn flush(self) -> impl ExactSizeIterator<Item = FinishedFlow> {
        let FlowAccumulator {
            index,
            open,
            finished,
            ..
        } = self;
        Flush {
            completed: finished.into_iter(),
            at: open.head,
            open_left: index.len(),
            open,
        }
    }

    /// [`Self::flush`] collected into a `Vec`. The project's benchmark
    /// harness calls it; everything else takes flows from `flush`.
    pub fn finish(self) -> Vec<FinishedFlow> {
        self.flush().collect()
    }
}

/// [`FlowAccumulator::flush`]'s iterator: it walks the first-seen list
/// once, taking each open flow out of its slot.
struct Flush {
    completed: std::vec::IntoIter<FinishedFlow>,
    open: FlowList,
    /// The next open flow's slot.
    at: u32,
    open_left: usize,
}

impl Iterator for Flush {
    type Item = FinishedFlow;

    fn next(&mut self) -> Option<FinishedFlow> {
        if let Some(flow) = self.completed.next() {
            return Some(flow);
        }
        if self.at == NIL {
            return None;
        }
        let slot = &mut self.open.slots[self.at as usize];
        self.at = slot.next;
        self.open_left -= 1;
        let flow = slot.flow.take().expect("a linked slot holds a flow");
        Some(flow.finish(slot.key))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.completed.len() + self.open_left;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Flush {}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_trace::TcpFlags;

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            port,
            Ipv4Addr::new(192, 168, 1, 2),
            80,
        )
    }

    fn vector(f: &FinishedFlow) -> Vec<u16> {
        let mut v = vec![u16::MAX; 3]; // stale contents must not survive
        f.decode_vector(&mut v);
        assert_eq!(v, f.entries().map(|(m, _)| m).collect::<Vec<_>>());
        v
    }

    fn ipts(f: &FinishedFlow) -> Vec<Duration> {
        f.entries().map(|(_, gap)| gap).collect()
    }

    fn pkt(t: FiveTuple, us: u64, flags: TcpFlags, len: u16) -> PacketRecord {
        PacketRecord::builder()
            .tuple(t)
            .timestamp(Timestamp::from_micros(us))
            .flags(flags)
            .payload_len(len)
            .build()
    }

    /// A complete 8-packet conversation on `t`.
    fn push_conversation(acc: &mut FlowAccumulator, t: FiveTuple, base_us: u64) {
        let s = t.reversed();
        acc.push(&pkt(t, base_us, TcpFlags::SYN, 0));
        acc.push(&pkt(s, base_us + 100, TcpFlags::SYN | TcpFlags::ACK, 0));
        acc.push(&pkt(t, base_us + 200, TcpFlags::ACK, 0));
        acc.push(&pkt(t, base_us + 210, TcpFlags::PSH | TcpFlags::ACK, 300));
        acc.push(&pkt(s, base_us + 310, TcpFlags::ACK, 1460));
        acc.push(&pkt(s, base_us + 320, TcpFlags::FIN | TcpFlags::ACK, 0));
        acc.push(&pkt(t, base_us + 420, TcpFlags::FIN | TcpFlags::ACK, 0));
        acc.push(&pkt(s, base_us + 520, TcpFlags::ACK, 0));
    }

    #[test]
    fn fin_teardown_completes_flow() {
        let mut acc = FlowAccumulator::new(Params::paper());
        push_conversation(&mut acc, tuple(4000), 1_000);
        assert_eq!(acc.completed().len(), 1);
        assert_eq!(acc.active_flows(), 0);
        let f = &acc.completed()[0];
        assert_eq!(f.len(), 8);
        assert_eq!(f.first_ts.as_micros(), 1_000);
        assert_eq!(f.dst_ip, Ipv4Addr::new(192, 168, 1, 2));
        assert_eq!(f.rtt, Duration::from_micros(100));
    }

    #[test]
    fn m_vector_matches_hand_computation() {
        let mut acc = FlowAccumulator::new(Params::paper());
        push_conversation(&mut acc, tuple(4001), 0);
        let f = &acc.completed()[0];
        // SYN first packet: f1=0 dep=0(first) size=0      -> 0
        // SYN+ACK: flip -> dep, f1=1, size 0              -> 16
        // ACK: flip -> dep, f1=2                           -> 32
        // PSH+ACK 300B: same dir -> not dep, size 1        -> 32+4+1 = 37
        // server 1460B ACK: flip -> dep, size 2            -> 32+2 = 34
        // server FIN+ACK: same dir -> not dep              -> 48+4 = 52
        // client FIN+ACK: flip -> dep                      -> 48
        // server ACK: flip -> dep                          -> 32
        assert_eq!(vector(f), vec![0, 16, 32, 37, 34, 52, 48, 32]);
    }

    #[test]
    fn rst_completes_immediately() {
        let mut acc = FlowAccumulator::new(Params::paper());
        let t = tuple(4002);
        acc.push(&pkt(t, 0, TcpFlags::SYN, 0));
        acc.push(&pkt(t, 10, TcpFlags::RST, 0));
        assert_eq!(acc.completed().len(), 1);
        assert_eq!(acc.completed()[0].len(), 2);
    }

    #[test]
    fn unterminated_flows_flush_at_finish() {
        let mut acc = FlowAccumulator::new(Params::paper());
        let t = tuple(4003);
        acc.push(&pkt(t, 0, TcpFlags::SYN, 0));
        acc.push(&pkt(t.reversed(), 50, TcpFlags::SYN | TcpFlags::ACK, 0));
        assert_eq!(acc.completed().len(), 0);
        assert_eq!(acc.active_flows(), 1);
        let flows: Vec<_> = acc.flush().collect();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].len(), 2);
    }

    #[test]
    fn interleaved_flows_stay_separate() {
        let mut acc = FlowAccumulator::new(Params::paper());
        let a = tuple(5000);
        let b = tuple(5001);
        acc.push(&pkt(a, 0, TcpFlags::SYN, 0));
        acc.push(&pkt(b, 5, TcpFlags::SYN, 0));
        acc.push(&pkt(a.reversed(), 10, TcpFlags::SYN | TcpFlags::ACK, 0));
        acc.push(&pkt(b.reversed(), 15, TcpFlags::SYN | TcpFlags::ACK, 0));
        acc.push(&pkt(a, 20, TcpFlags::RST, 0));
        acc.push(&pkt(b, 25, TcpFlags::RST, 0));
        let flows: Vec<_> = acc.flush().collect();
        assert_eq!(flows.len(), 2);
        assert!(flows.iter().all(|f| f.len() == 3));
    }

    #[test]
    fn identical_conversations_produce_identical_vectors() {
        let mut acc = FlowAccumulator::new(Params::paper());
        push_conversation(&mut acc, tuple(6000), 0);
        push_conversation(&mut acc, tuple(6001), 1_000_000);
        let flows = acc.completed();
        assert!(flows[0].entries().eq(flows[1].entries()));
    }

    #[test]
    fn ipts_record_gaps() {
        let mut acc = FlowAccumulator::new(Params::paper());
        let t = tuple(7000);
        acc.push(&pkt(t, 100, TcpFlags::SYN, 0));
        acc.push(&pkt(t.reversed(), 350, TcpFlags::SYN | TcpFlags::ACK, 0));
        acc.push(&pkt(t, 360, TcpFlags::RST, 0));
        let flows: Vec<_> = acc.flush().collect();
        assert_eq!(
            ipts(&flows[0]),
            vec![
                Duration::ZERO,
                Duration::from_micros(250),
                Duration::from_micros(10)
            ]
        );
    }

    #[test]
    fn gaps_past_32_bits_and_near_u64_max_round_trip() {
        let mut acc = FlowAccumulator::new(Params::paper());
        let t = tuple(7100);
        let wide = (1u64 << 32) + 7;
        let huge = u64::MAX - 3 - wide;
        acc.push(&pkt(t, 3, TcpFlags::SYN, 0));
        acc.push(&pkt(t, 3 + wide, TcpFlags::ACK, 0));
        acc.push(&pkt(t, 3 + wide + huge, TcpFlags::RST, 0));
        let f = acc.flush().next().unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(
            ipts(&f),
            vec![
                Duration::ZERO,
                Duration::from_micros(wide),
                Duration::from_micros(huge)
            ]
        );
        // Three one-byte `M`s; gaps of 1, 5 and 10 varint bytes.
        assert_eq!(f.log.len(), 3 + 1 + 5 + 10);
        assert_eq!(vector(&f).len(), 3);
    }

    #[test]
    fn m_clamps_at_u16_max() {
        let params = Params {
            weights: crate::Weights {
                flags: 40_000,
                dependence: 4,
                size: 1,
            },
            ..Params::paper()
        };
        let mut acc = FlowAccumulator::new(params);
        let t = tuple(7200);
        acc.push(&pkt(t, 0, TcpFlags::SYN, 0));
        acc.push(&pkt(t.reversed(), 10, TcpFlags::SYN | TcpFlags::ACK, 0));
        acc.push(&pkt(t, 20, TcpFlags::FIN | TcpFlags::ACK, 0));
        let f = acc.flush().next().unwrap();
        let v = vector(&f);
        assert_eq!(v.len(), 3);
        // Every packet flips direction (dependent, +0). SYN: class 0.
        // SYN-ACK: 40 000, a three-byte varint. FIN-ACK: 3 · 40 000,
        // clamped.
        assert_eq!(v, vec![0, 40_000, u16::MAX]);
        assert_eq!(ipts(&f)[2], Duration::from_micros(10));
    }

    #[test]
    fn evict_idle_closes_only_stale_flows() {
        let mut acc = FlowAccumulator::new(Params::paper());
        let old = tuple(9000);
        let fresh = tuple(9001);
        acc.push(&pkt(old, 0, TcpFlags::SYN, 0));
        acc.push(&pkt(fresh, 5_000_000, TcpFlags::SYN, 0));
        let n = acc.evict_idle(Timestamp::from_micros(1_000_000));
        assert_eq!(n, 1);
        assert_eq!(acc.evicted_flows(), 1);
        assert_eq!(acc.active_flows(), 1);
        assert_eq!(acc.completed().len(), 1);
        assert_eq!(acc.completed()[0].len(), 1);
        // The fresh flow survives and still finishes normally.
        let flows: Vec<_> = acc.flush().collect();
        assert_eq!(flows.len(), 2);
    }

    #[test]
    fn evicted_key_reappears_as_new_flow() {
        let mut acc = FlowAccumulator::new(Params::paper());
        let t = tuple(9100);
        acc.push(&pkt(t, 0, TcpFlags::SYN, 0));
        acc.evict_idle(Timestamp::from_micros(10));
        acc.push(&pkt(t, 20, TcpFlags::ACK, 0));
        let flows: Vec<_> = acc.flush().collect();
        assert_eq!(flows.len(), 2);
        assert!(flows.iter().all(|f| f.len() == 1));
    }

    #[test]
    fn drain_completed_empties_and_preserves_order() {
        let mut acc = FlowAccumulator::new(Params::paper());
        push_conversation(&mut acc, tuple(9200), 0);
        push_conversation(&mut acc, tuple(9201), 1_000);
        let first = acc.drain_completed();
        assert_eq!(first.len(), 2);
        assert!(first[0].first_ts < first[1].first_ts);
        assert!(acc.completed().is_empty());
        push_conversation(&mut acc, tuple(9202), 2_000);
        assert_eq!(acc.drain_completed().len(), 1);
    }

    #[test]
    fn completions_reuse_slots_against_a_long_lived_flow() {
        // Thousands of completions against one long-lived flow: each
        // completed flow's slot is freed and taken by the next new flow,
        // so the slab never outgrows the open flows.
        let mut acc = FlowAccumulator::new(Params::paper());
        let keep = tuple(1); // stays open throughout
        acc.push(&pkt(keep, 0, TcpFlags::SYN, 0));
        for round in 0..2_000u64 {
            let t = tuple(2 + (round % 7) as u16); // 7 keys reopened ~286x each
            let base = 10 + round * 3;
            acc.push(&pkt(t, base, TcpFlags::SYN, 0));
            acc.push(&pkt(t, base + 1, TcpFlags::RST, 0));
        }
        assert_eq!(acc.completed().len(), 2_000);
        assert!(acc.open.slots.len() <= 3, "{} slots", acc.open.slots.len());
        assert_eq!(acc.peak_active_flows(), 2);
        assert_eq!(acc.active_flows(), 1);
        let flows: Vec<_> = acc.flush().collect();
        assert_eq!(flows.len(), 2_001);
        // The long-lived flow flushes last, with only its own packet.
        assert_eq!(flows[2_000].first_ts, Timestamp::from_micros(0));
        assert_eq!(flows[2_000].len(), 1);
    }

    #[test]
    fn evicted_key_reopens_in_a_freed_slot() {
        let mut acc = FlowAccumulator::new(Params::paper());
        let (a, b) = (tuple(9400), tuple(9401));
        acc.push(&pkt(a, 0, TcpFlags::SYN, 0));
        acc.push(&pkt(b, 100, TcpFlags::SYN, 0));
        assert_eq!(acc.evict_idle(Timestamp::from_micros(50)), 1);
        acc.push(&pkt(a, 200, TcpFlags::ACK, 0));
        assert_eq!(acc.open.slots.len(), 2, "the reopened key took a's slot");
        assert_eq!(acc.active_flows(), 2);
        let flows: Vec<_> = acc.flush().collect();
        let firsts: Vec<u64> = flows.iter().map(|f| f.first_ts.as_micros()).collect();
        // The evicted flow, then b and the reopened a in first-seen order.
        assert_eq!(firsts, vec![0, 100, 200]);
    }

    #[test]
    fn flush_keeps_first_seen_order_across_completion_eviction_and_reuse() {
        let mut acc = FlowAccumulator::new(Params::paper());
        let port = |i: u64| tuple(9500 + i as u16);
        // Open ten flows, one every 10 µs.
        for i in 0..10 {
            acc.push(&pkt(port(i), i * 10, TcpFlags::SYN, 0));
        }
        // Complete 3 and 7, and keep 5 and 9 busy past the cutoff, so
        // the eviction closes 0, 1, 2, 4, 6, 8 and frees their slots.
        acc.push(&pkt(port(3), 100, TcpFlags::RST, 0));
        acc.push(&pkt(port(7), 110, TcpFlags::RST, 0));
        acc.push(&pkt(port(5), 120, TcpFlags::ACK, 0));
        acc.push(&pkt(port(9), 130, TcpFlags::ACK, 0));
        assert_eq!(acc.evict_idle(Timestamp::from_micros(115)), 6);
        let evicted: Vec<u64> = acc
            .drain_completed()
            .iter()
            .map(|f| f.first_ts.as_micros())
            .collect();
        assert_eq!(evicted, vec![30, 70, 0, 10, 20, 40, 60, 80]);
        // Reopen 1 and 0 (in that order) and open a new key: all three
        // take freed slots and go to the tail of the list.
        acc.push(&pkt(port(1), 140, TcpFlags::SYN, 0));
        acc.push(&pkt(port(0), 150, TcpFlags::SYN, 0));
        acc.push(&pkt(port(20), 160, TcpFlags::SYN, 0));
        assert_eq!(acc.open.slots.len(), 10);
        // Complete 9 mid-list, then flush.
        acc.push(&pkt(port(9), 170, TcpFlags::RST, 0));
        let flows = acc.flush();
        assert_eq!(flows.len(), 5);
        let firsts: Vec<u64> = flows.map(|f| f.first_ts.as_micros()).collect();
        assert_eq!(firsts, vec![90, 50, 140, 150, 160]);
    }

    #[test]
    fn peak_active_tracks_high_water_mark() {
        let mut acc = FlowAccumulator::new(Params::paper());
        acc.push(&pkt(tuple(9300), 0, TcpFlags::SYN, 0));
        acc.push(&pkt(tuple(9301), 1, TcpFlags::SYN, 0));
        acc.push(&pkt(tuple(9301), 2, TcpFlags::RST, 0));
        acc.push(&pkt(tuple(9302), 3, TcpFlags::SYN, 0));
        assert_eq!(acc.peak_active_flows(), 2);
        assert_eq!(acc.active_flows(), 2);
    }

    #[test]
    fn rtt_zero_when_responder_silent() {
        let mut acc = FlowAccumulator::new(Params::paper());
        let t = tuple(8000);
        acc.push(&pkt(t, 0, TcpFlags::SYN, 0));
        let flows: Vec<_> = acc.flush().collect();
        assert_eq!(flows[0].rtt, Duration::ZERO);
    }

    fn seq_pkt(
        t: FiveTuple,
        us: u64,
        flags: TcpFlags,
        len: u16,
        seq: u32,
        ack: u32,
    ) -> PacketRecord {
        PacketRecord::builder()
            .tuple(t)
            .timestamp(Timestamp::from_micros(us))
            .flags(flags)
            .payload_len(len)
            .seq(seq)
            .ack(ack)
            .build()
    }

    #[test]
    fn telemetry_none_unless_enabled_and_output_identical() {
        let run = |telemetry: bool| {
            let mut acc = FlowAccumulator::with_telemetry(Params::paper(), telemetry);
            push_conversation(&mut acc, tuple(8100), 0);
            push_conversation(&mut acc, tuple(8101), 500);
            acc.flush().collect::<Vec<_>>()
        };
        let off = run(false);
        let on = run(true);
        assert!(off.iter().all(|f| f.telemetry.is_none()));
        assert!(on.iter().all(|f| f.telemetry.is_some()));
        // The derivation never perturbs the compression-relevant fields.
        for (a, b) in off.iter().zip(&on) {
            assert_eq!(a.first_ts, b.first_ts);
            assert_eq!(a.dst_ip, b.dst_ip);
            assert_eq!(a.rtt, b.rtt);
            assert!(a.entries().eq(b.entries()));
        }
    }

    #[test]
    fn telemetry_handshake_and_ack_clock_rtt() {
        let mut acc = FlowAccumulator::with_telemetry(Params::paper(), true);
        let t = tuple(8200);
        let s = t.reversed();
        // SYN at 0, SYN-ACK at 300 (server-leg sample: 300), client ACK
        // at 400 (client-leg sample: 100).
        acc.push(&seq_pkt(t, 0, TcpFlags::SYN, 0, 100, 0));
        acc.push(&seq_pkt(s, 300, TcpFlags::SYN | TcpFlags::ACK, 0, 900, 101));
        acc.push(&seq_pkt(t, 400, TcpFlags::ACK, 0, 101, 901));
        // Client data [101, 401) at 500, covered by the server's ACK at
        // 750 (ack-clock sample: 250).
        acc.push(&seq_pkt(
            t,
            500,
            TcpFlags::PSH | TcpFlags::ACK,
            300,
            101,
            901,
        ));
        acc.push(&seq_pkt(s, 750, TcpFlags::ACK, 0, 901, 401));
        let f = acc.flush().next().unwrap().telemetry.unwrap();
        assert_eq!(f.rtt_samples, 3);
        assert_eq!(f.rtt_us, (300 + 100 + 250) / 3);
        assert_eq!(f.retransmissions(), 0);
        assert_eq!(f.bytes, 300);
    }

    #[test]
    fn telemetry_classifies_fast_vs_timeout_retransmit() {
        let params = Params::paper();
        // Timeout-shaped: data resent with no duplicate ACKs in between.
        let mut acc = FlowAccumulator::with_telemetry(params.clone(), true);
        let t = tuple(8300);
        acc.push(&seq_pkt(t, 0, TcpFlags::ACK, 500, 1000, 1));
        acc.push(&seq_pkt(t, 900_000, TcpFlags::ACK, 500, 1000, 1));
        let f = acc.flush().next().unwrap().telemetry.unwrap();
        assert_eq!((f.retrans_fast, f.retrans_timeout), (0, 1));

        // Fast: three duplicate ACKs from the receiver, then the resend.
        let mut acc = FlowAccumulator::with_telemetry(params, true);
        let t = tuple(8301);
        let s = t.reversed();
        acc.push(&seq_pkt(t, 0, TcpFlags::ACK, 500, 1000, 1));
        acc.push(&seq_pkt(s, 100, TcpFlags::ACK, 0, 1, 1000));
        acc.push(&seq_pkt(s, 200, TcpFlags::ACK, 0, 1, 1000));
        acc.push(&seq_pkt(s, 300, TcpFlags::ACK, 0, 1, 1000));
        acc.push(&seq_pkt(s, 400, TcpFlags::ACK, 0, 1, 1000));
        acc.push(&seq_pkt(t, 500, TcpFlags::ACK, 500, 1000, 1));
        let f = acc.flush().next().unwrap().telemetry.unwrap();
        assert_eq!((f.retrans_fast, f.retrans_timeout), (1, 0));
    }

    #[test]
    fn telemetry_udp_flow_gets_time_and_bytes_only() {
        let mut acc = FlowAccumulator::with_telemetry(Params::paper(), true);
        let u = FiveTuple::new(
            Ipv4Addr::new(10, 0, 0, 9),
            5353,
            Ipv4Addr::new(192, 168, 1, 9),
            53,
            flowzip_trace::Protocol::UDP,
        );
        acc.push(&pkt(u, 0, TcpFlags::EMPTY, 80));
        acc.push(&pkt(u, 400, TcpFlags::EMPTY, 120));
        acc.push(&pkt(u, 2_000_400, TcpFlags::EMPTY, 60));
        let f = acc.flush().next().unwrap().telemetry.unwrap();
        assert_eq!(f.rtt_samples, 0);
        assert_eq!(f.rtt_us, 0);
        assert_eq!(f.retransmissions(), 0);
        assert_eq!(f.bytes, 260);
        assert_eq!(f.active_us, 400);
        assert_eq!(f.idle_us, 2_000_000);
    }

    #[test]
    fn telemetry_survives_mid_stream_flow_without_handshake() {
        // A flow whose SYN was evicted (or predates the capture): no
        // handshake samples, but the ack clock still works and nothing
        // panics.
        let mut acc = FlowAccumulator::with_telemetry(Params::paper(), true);
        let t = tuple(8400);
        let s = t.reversed();
        acc.push(&seq_pkt(t, 0, TcpFlags::ACK, 1000, 7_000, 3_000));
        acc.push(&seq_pkt(s, 600, TcpFlags::ACK, 0, 3_000, 8_000));
        acc.push(&seq_pkt(
            t,
            700,
            TcpFlags::FIN | TcpFlags::ACK,
            0,
            8_000,
            3_000,
        ));
        let f = acc.flush().next().unwrap().telemetry.unwrap();
        assert_eq!(f.rtt_samples, 1);
        assert_eq!(f.rtt_us, 600);
        assert_eq!(f.bytes, 1000);
    }

    #[test]
    fn telemetry_sequence_wraparound_not_misread_as_retransmit() {
        let mut acc = FlowAccumulator::with_telemetry(Params::paper(), true);
        let t = tuple(8500);
        // Data straddling the 2^32 wrap: the second segment continues
        // in order and must not count as a resend.
        acc.push(&seq_pkt(t, 0, TcpFlags::ACK, 500, u32::MAX - 100, 1));
        acc.push(&seq_pkt(
            t,
            100,
            TcpFlags::ACK,
            500,
            (u32::MAX - 100).wrapping_add(500),
            1,
        ));
        let f = acc.flush().next().unwrap().telemetry.unwrap();
        assert_eq!(f.retransmissions(), 0);
    }
}
