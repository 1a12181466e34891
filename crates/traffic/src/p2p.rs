//! P2P-style traffic generator — the paper's future work (§7: "verifying
//! also the applicability of the method to other types of applications
//! like P2P").
//!
//! P2P transfers violate the Web assumptions the compressor leans on:
//! flows are *long* (chunk transfers of hundreds of segments), traffic is
//! *bidirectional* (both peers upload), ports are arbitrary high ports on
//! both ends, and sessions interleave data with keep-alives. The
//! [`exp_p2p`](../flowzip_paper) experiment quantifies what that does to
//! the compression ratio.

use crate::dist::{bounded_pareto, exponential, lognormal};
use flowzip_trace::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for the P2P generator.
#[derive(Debug, Clone)]
pub struct P2pTrafficConfig {
    /// Number of peer-to-peer sessions.
    pub flows: usize,
    /// Session start times spread over this window (Poisson).
    pub duration_secs: f64,
    /// Size of the peer population.
    pub peers: usize,
    /// Median RTT between peers, milliseconds.
    pub rtt_median_ms: f64,
    /// Pareto shape of chunk-transfer lengths (segments).
    pub transfer_alpha: f64,
    /// Maximum segments per transfer.
    pub transfer_max: u32,
    /// Probability a given data burst flows from the session responder
    /// (uploads both ways).
    pub reverse_burst_prob: f64,
    /// Probability a data burst loses its final segment and recovers by
    /// timeout: the sender goes silent for an RTO, then resends the same
    /// sequence number (no duplicate ACKs — P2P segments all carry
    /// payload, so there is no pure-ACK stream to count). `0.0` (the
    /// default) draws nothing from the RNG, keeping loss-free traces
    /// byte-identical under the same seed.
    pub loss_prob: f64,
}

impl Default for P2pTrafficConfig {
    fn default() -> Self {
        P2pTrafficConfig {
            flows: 500,
            duration_secs: 60.0,
            peers: 100,
            rtt_median_ms: 120.0,
            transfer_alpha: 0.9,
            transfer_max: 900,
            reverse_burst_prob: 0.4,
            loss_prob: 0.0,
        }
    }
}

/// Deterministic P2P trace generator.
#[derive(Debug)]
pub struct P2pTrafficGenerator {
    config: P2pTrafficConfig,
    rng: StdRng,
}

impl P2pTrafficGenerator {
    /// Creates a generator with a fixed seed.
    pub fn new(config: P2pTrafficConfig, seed: u64) -> P2pTrafficGenerator {
        P2pTrafficGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates the trace.
    pub fn generate(mut self) -> Trace {
        let peers: Vec<Ipv4Addr> = (0..self.config.peers)
            .map(|_| {
                Ipv4Addr::new(
                    self.rng.gen_range(11u8..=223),
                    self.rng.gen(),
                    self.rng.gen(),
                    self.rng.gen_range(1..=254),
                )
            })
            .collect();
        let mean_gap = self.config.duration_secs / self.config.flows.max(1) as f64;
        let mut packets = Vec::new();
        let mut start = 0.0f64;
        for _ in 0..self.config.flows {
            start += exponential(&mut self.rng, mean_gap);
            let a = peers[self.rng.gen_range(0..peers.len())];
            let mut b = peers[self.rng.gen_range(0..peers.len())];
            if b == a {
                b = Ipv4Addr::from(u32::from(a) ^ 0x0101);
            }
            self.script_session(Timestamp::from_secs_f64(start), a, b, &mut packets);
        }
        Trace::from_packets(packets)
    }

    fn script_session(
        &mut self,
        start: Timestamp,
        a: Ipv4Addr,
        b: Ipv4Addr,
        out: &mut Vec<PacketRecord>,
    ) {
        // Both endpoints use arbitrary high ports — no server role.
        let fwd = FiveTuple::tcp(
            a,
            self.rng.gen_range(6881..=65000),
            b,
            self.rng.gen_range(6881..=65000),
        );
        let rev = fwd.reversed();
        let rtt = Duration::from_secs_f64(
            lognormal(&mut self.rng, self.config.rtt_median_ms, 0.5) / 1_000.0,
        )
        .max(Duration::from_micros(2_000));
        let jitter = Duration::from_micros(self.rng.gen_range(50..400));
        let segments = bounded_pareto(
            &mut self.rng,
            self.config.transfer_alpha,
            20.0,
            self.config.transfer_max as f64,
        ) as u32;

        let mut now = start;
        let mut seq_a: u32 = self.rng.gen();
        let mut seq_b: u32 = self.rng.gen();
        let mut push = |ts: Timestamp, t: FiveTuple, flags: TcpFlags, len: u16, seq: &mut u32| {
            out.push(
                PacketRecord::builder()
                    .timestamp(ts)
                    .tuple(t)
                    .flags(flags)
                    .payload_len(len)
                    .seq(*seq)
                    .build(),
            );
            *seq = seq.wrapping_add(len as u32 + 1);
        };

        // Handshake + protocol handshake message exchange.
        push(now, fwd, TcpFlags::SYN, 0, &mut seq_a);
        now += rtt;
        push(now, rev, TcpFlags::SYN | TcpFlags::ACK, 0, &mut seq_b);
        now += rtt;
        push(now, fwd, TcpFlags::ACK, 0, &mut seq_a);
        now += jitter;
        push(now, fwd, TcpFlags::PSH | TcpFlags::ACK, 68, &mut seq_a); // handshake msg
        now += rtt;
        push(now, rev, TcpFlags::PSH | TcpFlags::ACK, 68, &mut seq_b);

        // Data bursts alternating direction, with keep-alives between.
        let mut burst_from_rev = false;
        let mut sent = 0u32;
        while sent < segments {
            let burst = self.rng.gen_range(4..=32).min(segments - sent);
            let dir_rev = burst_from_rev;
            now += rtt; // request/unchoke round trip before a burst
            let mut last_seq = 0u32;
            for _ in 0..burst {
                now += jitter;
                let (t, seq) = if dir_rev {
                    (rev, &mut seq_b)
                } else {
                    (fwd, &mut seq_a)
                };
                last_seq = *seq;
                push(
                    now,
                    t,
                    TcpFlags::ACK,
                    1_380, // typical P2P payload under MTU
                    seq,
                );
            }
            // Loss episode: the burst's final segment dies in flight and
            // its retransmission timer fires — an RTO of silence, then
            // the same sequence number again (`loss_prob == 0.0` never
            // touches the RNG).
            if self.config.loss_prob > 0.0 && self.rng.gen_bool(self.config.loss_prob) {
                now += Duration::from_micros(rtt.as_micros().saturating_mul(4));
                let t = if dir_rev { rev } else { fwd };
                let mut retrans_seq = last_seq;
                push(now, t, TcpFlags::ACK, 1_380, &mut retrans_seq);
            }
            sent += burst;
            burst_from_rev = self.rng.gen_bool(self.config.reverse_burst_prob);
            // Occasional keep-alive ping from the idle side.
            if self.rng.gen_bool(0.3) {
                now += rtt;
                let (t, seq) = if dir_rev {
                    (fwd, &mut seq_a)
                } else {
                    (rev, &mut seq_b)
                };
                push(now, t, TcpFlags::PSH | TcpFlags::ACK, 4, seq);
            }
        }

        // Teardown.
        now += jitter;
        push(now, fwd, TcpFlags::FIN | TcpFlags::ACK, 0, &mut seq_a);
        now += rtt;
        push(now, rev, TcpFlags::FIN | TcpFlags::ACK, 0, &mut seq_b);
        now += rtt;
        push(now, fwd, TcpFlags::ACK, 0, &mut seq_a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_trace::flow::FlowTable;

    fn generate(flows: usize, seed: u64) -> Trace {
        P2pTrafficGenerator::new(
            P2pTrafficConfig {
                flows,
                ..P2pTrafficConfig::default()
            },
            seed,
        )
        .generate()
    }

    #[test]
    fn deterministic_and_ordered() {
        let t = generate(30, 1);
        assert_eq!(t, generate(30, 1));
        assert!(t.is_time_ordered());
        assert!(!t.is_empty());
    }

    #[test]
    fn flows_are_much_longer_than_web() {
        let t = generate(100, 2);
        let stats = FlowTable::from_trace(&t).stats(50);
        // The defining property: most P2P flows are long.
        assert!(
            stats.short_flow_fraction() < 0.6,
            "P2P should break the 98%-short assumption, got {:.2}",
            stats.short_flow_fraction()
        );
        assert!(stats.mean_flow_len() > 50.0);
    }

    #[test]
    fn traffic_is_bidirectional() {
        let t = generate(50, 3);
        let table = FlowTable::from_trace(&t);
        let mut both_ways_data = 0;
        for flow in table.flows() {
            let fwd_data: u64 = flow
                .packets()
                .iter()
                .filter(|(p, d)| {
                    *d == flowzip_trace::FlowDirection::FromInitiator && p.has_payload()
                })
                .map(|(p, _)| p.payload_len() as u64)
                .sum();
            let rev_data: u64 = flow
                .packets()
                .iter()
                .filter(|(p, d)| {
                    *d == flowzip_trace::FlowDirection::FromResponder && p.has_payload()
                })
                .map(|(p, _)| p.payload_len() as u64)
                .sum();
            if fwd_data > 10_000 && rev_data > 10_000 {
                both_ways_data += 1;
            }
        }
        assert!(
            both_ways_data > 10,
            "many sessions should carry data both ways, got {both_ways_data}"
        );
    }

    #[test]
    fn no_well_known_ports() {
        let t = generate(40, 4);
        for p in &t {
            assert!(p.tuple().src_port >= 6881);
            assert!(p.tuple().dst_port >= 6881);
        }
    }

    #[test]
    fn loss_episodes_inject_timeout_retransmits() {
        let t = P2pTrafficGenerator::new(
            P2pTrafficConfig {
                flows: 60,
                loss_prob: 0.3,
                ..P2pTrafficConfig::default()
            },
            6,
        )
        .generate();
        assert!(t.is_time_ordered());
        t.validate().unwrap();
        let table = FlowTable::from_trace(&t);
        let mut retrans = 0;
        for flow in table.flows() {
            let mut seen = std::collections::HashSet::new();
            for (p, d) in flow.packets() {
                let fwd = *d == flowzip_trace::FlowDirection::FromInitiator;
                if p.has_payload() && !seen.insert((fwd, p.seq())) {
                    retrans += 1;
                }
            }
        }
        // Long sessions run many bursts, so ~30% per burst lands well
        // above one episode per session on average.
        assert!(
            retrans > 60,
            "expected plenty of timeout resends, got {retrans}"
        );
        // Determinism under the knob.
        let again = P2pTrafficGenerator::new(
            P2pTrafficConfig {
                flows: 60,
                loss_prob: 0.3,
                ..P2pTrafficConfig::default()
            },
            6,
        )
        .generate();
        assert_eq!(t, again);
    }

    #[test]
    fn sessions_terminate() {
        let t = generate(40, 5);
        let table = FlowTable::from_trace(&t);
        for flow in table.flows() {
            assert!(flow.saw_termination());
        }
    }
}
