//! The four seeded traffic shapes and how each is staged on disk.
//!
//! Sizes are the issue's full-size figures divided by [`Scale::div`]:
//! rates (flows per second, packets per second) stay the same, only the
//! trace gets shorter, so a run fits the driver's time budget.

use crate::stats::SplitMix64;
use flowzip_trace::{pcap, tsh, FiveTuple, PacketRecord, TcpFlags, Timestamp, Trace};
use flowzip_traffic::p2p::{P2pTrafficConfig, P2pTrafficGenerator};
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use std::io;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

pub const DEFAULT_SEED: u64 = 20_050_320;

/// Files the split workload is written as.
pub const SPLIT_FILES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// Written as eight pcap files behind one glob instead of one TSH.
    pub pcap_split: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "web_short",
        pcap_split: false,
    },
    Workload {
        name: "web_dense",
        pcap_split: false,
    },
    Workload {
        name: "p2p_pcap_split",
        pcap_split: true,
    },
    Workload {
        name: "trunk_skew",
        pcap_split: false,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Input size as a divisor of the full-size workloads (≈3 M packets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub div: u32,
}

impl Scale {
    /// What the driver's per-run time budget allows: ≈1 M packets.
    pub const STANDARD: Scale = Scale { div: 3 };
    /// Smoke mode, never a baseline.
    pub const QUICK: Scale = Scale { div: 30 };

    fn count(self, full: usize) -> usize {
        full / self.div as usize
    }

    fn secs(self, full: f64) -> f64 {
        full / f64::from(self.div)
    }

    /// `serve` rotation boundary: ≈12 windows per trace at any scale.
    pub fn rotate_packets(self) -> u64 {
        250_000 / u64::from(self.div)
    }
}

/// Carrier shares of the trunked workload.
pub const TRUNK_SHARES: [f64; 4] = [0.6, 0.2, 0.1, 0.1];

pub fn generate(w: Workload, seed: u64, scale: Scale) -> Trace {
    match w.name {
        "web_short" => web(scale.count(170_000), scale.secs(600.0), seed),
        "web_dense" => strip_half_the_teardowns(web(scale.count(170_000), 6.0, seed)),
        "p2p_pcap_split" => P2pTrafficGenerator::new(
            P2pTrafficConfig {
                flows: scale.count(32_000),
                duration_secs: scale.secs(600.0),
                peers: 5_000,
                ..P2pTrafficConfig::default()
            },
            seed,
        )
        .generate(),
        "trunk_skew" => trunk(scale.count(3_000_000), scale.secs(600.0), seed),
        other => panic!("unknown workload `{other}`"),
    }
}

fn web(flows: usize, duration_secs: f64, seed: u64) -> Trace {
    WebTrafficGenerator::new(
        WebTrafficConfig {
            flows,
            duration_secs,
            ..WebTrafficConfig::default()
        },
        seed,
    )
    .generate()
}

/// The conversation's tuple in a direction-independent form.
pub fn canonical(t: FiveTuple) -> FiveTuple {
    if (t.src_ip, t.src_port) <= (t.dst_ip, t.dst_port) {
        t
    } else {
        t.reversed()
    }
}

/// Drops FIN/RST packets from the flows whose canonical-tuple hash is
/// even, so half the flows never close and stay in the flow table.
fn strip_half_the_teardowns(trace: Trace) -> Trace {
    Trace::from_packets(
        trace
            .into_packets()
            .into_iter()
            .filter(|p| {
                !(p.flags().terminates_flow()
                    && canonical(p.tuple()).stable_hash().is_multiple_of(2))
            })
            .collect(),
    )
}

/// Four long-lived carrier connections sharing `packets` packets by
/// [`TRUNK_SHARES`]: one SYN/SYN-ACK each, then full-size PSH-ACK data
/// answered by a pure ACK every second segment, one FIN each at the end.
fn trunk(packets: usize, duration_secs: f64, seed: u64) -> Trace {
    struct Carrier {
        c2s: FiveTuple,
        seq: u32,
        ack: u32,
        unacked: u32,
    }
    const MSS: u16 = 1460;
    let mut rng = SplitMix64::new(seed);
    let mut carriers: Vec<Carrier> = (0..TRUNK_SHARES.len())
        .map(|i| Carrier {
            c2s: FiveTuple::tcp(
                Ipv4Addr::new(10, 1, (rng.below(250) + 1) as u8, i as u8 + 1),
                (20_000 + rng.below(40_000)) as u16,
                Ipv4Addr::new(172, 16, (rng.below(250) + 1) as u8, i as u8 + 1),
                443,
            ),
            seq: rng.next_u64() as u32,
            ack: rng.next_u64() as u32,
            unacked: 0,
        })
        .collect();

    let gap_us = duration_secs * 1e6 / packets as f64;
    let mut out = Vec::with_capacity(packets);
    let push =
        |out: &mut Vec<PacketRecord>, t: FiveTuple, f: TcpFlags, len: u16, s: u32, a: u32| {
            let ts = Timestamp::from_micros((out.len() as f64 * gap_us) as u64);
            out.push(
                PacketRecord::builder()
                    .timestamp(ts)
                    .tuple(t)
                    .flags(f)
                    .payload_len(len)
                    .seq(s)
                    .ack(a)
                    .build(),
            );
        };

    for c in &mut carriers {
        push(&mut out, c.c2s, TcpFlags::SYN, 0, c.seq, 0);
        c.seq = c.seq.wrapping_add(1);
        push(
            &mut out,
            c.c2s.reversed(),
            TcpFlags::SYN | TcpFlags::ACK,
            0,
            c.ack,
            c.seq,
        );
        c.ack = c.ack.wrapping_add(1);
    }
    let teardown = carriers.len();
    while out.len() + teardown < packets {
        let draw = rng.next_f64();
        let mut edge = 0.0;
        let i = TRUNK_SHARES
            .iter()
            .position(|s| {
                edge += s;
                draw < edge
            })
            .unwrap_or(TRUNK_SHARES.len() - 1);
        let c = &mut carriers[i];
        if c.unacked == 2 {
            push(&mut out, c.c2s.reversed(), TcpFlags::ACK, 0, c.ack, c.seq);
            c.unacked = 0;
        } else {
            push(
                &mut out,
                c.c2s,
                TcpFlags::PSH | TcpFlags::ACK,
                MSS,
                c.seq,
                c.ack,
            );
            c.seq = c.seq.wrapping_add(u32::from(MSS));
            c.unacked += 1;
        }
    }
    for c in &carriers {
        push(
            &mut out,
            c.c2s,
            TcpFlags::FIN | TcpFlags::ACK,
            0,
            c.seq,
            c.ack,
        );
    }
    Trace::from_packets(out)
}

/// A workload's capture files on disk.
#[derive(Debug, Clone)]
pub struct Staged {
    /// What `flowzip compress` is given: the file, or the glob.
    pub input_arg: String,
    /// The same capture as one byte stream, for `serve`'s stdin.
    pub stream: Vec<u8>,
}

/// Writes `trace` under `dir` the way workload `w` is read: one TSH
/// file, or [`SPLIT_FILES`] time-ordered pcap files behind one glob.
pub fn stage(w: Workload, trace: &Trace, dir: &Path) -> io::Result<Staged> {
    if w.pcap_split {
        stage_split(trace, dir)?;
        Ok(Staged {
            input_arg: dir.join("part-*.pcap").to_string_lossy().into_owned(),
            stream: pcap::to_bytes(trace),
        })
    } else {
        let stream = tsh::to_bytes(trace);
        let path = dir.join("input.tsh");
        std::fs::write(&path, &stream)?;
        Ok(Staged {
            input_arg: path.to_string_lossy().into_owned(),
            stream,
        })
    }
}

/// Writes `trace` as [`SPLIT_FILES`] contiguous pcap chunks, named so
/// that glob order is time order.
pub fn stage_split(trace: &Trace, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let per_file = trace.len().div_ceil(SPLIT_FILES).max(1);
    trace
        .packets()
        .chunks(per_file)
        .enumerate()
        .map(|(i, chunk)| {
            let path = dir.join(format!("part-{i}.pcap"));
            std::fs::write(&path, pcap::to_bytes(&Trace::from_packets(chunk.to_vec())))?;
            Ok(path)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_core::{FlowAccumulator, Params};
    use std::collections::HashMap;

    const TEST: Scale = Scale { div: 60 };

    #[test]
    fn generators_are_seed_stable() {
        for w in WORKLOADS {
            let a = tsh::to_bytes(&generate(w, 11, TEST));
            let b = tsh::to_bytes(&generate(w, 11, TEST));
            let c = tsh::to_bytes(&generate(w, 12, TEST));
            assert!(a == b, "{}: same seed, different bytes", w.name);
            assert!(a != c, "{}: seed ignored", w.name);
            assert!(a.len() > 44 * 10_000, "{}: too small", w.name);
        }
    }

    #[test]
    fn trunk_shares_match_and_trace_validates() {
        let trace = generate(find("trunk_skew").unwrap(), DEFAULT_SEED, TEST);
        trace.validate().unwrap();
        assert_eq!(trace.len(), 3_000_000 / 60);
        let mut per_flow: HashMap<FiveTuple, usize> = HashMap::new();
        for p in trace.packets() {
            *per_flow.entry(canonical(p.tuple())).or_default() += 1;
        }
        assert_eq!(per_flow.len(), 4);
        let mut shares: Vec<f64> = per_flow
            .values()
            .map(|&n| n as f64 / trace.len() as f64)
            .collect();
        shares.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (got, want) in shares.iter().zip(TRUNK_SHARES) {
            assert!((got - want).abs() < 0.01, "share {got} vs {want}");
        }
    }

    #[test]
    fn web_dense_keeps_half_its_flows_open() {
        // The full-size claim (≥ 80 000 of 170 000 flows open at once)
        // scaled by the test divisor.
        let trace = generate(find("web_dense").unwrap(), DEFAULT_SEED, TEST);
        let mut acc = FlowAccumulator::new(Params::paper());
        for p in trace.packets() {
            acc.push(p);
        }
        assert!(
            acc.peak_active_flows() >= 80_000 / 60,
            "peak {} open flows",
            acc.peak_active_flows()
        );
    }

    #[test]
    fn split_staging_preserves_packets_in_order() {
        let trace = generate(find("p2p_pcap_split").unwrap(), 5, TEST);
        let dir = crate::test_dir("stage");
        let files = stage_split(&trace, &dir).unwrap();
        assert_eq!(files.len(), SPLIT_FILES);
        let mut back = Vec::new();
        for f in &files {
            back.extend(
                pcap::read_trace(std::fs::File::open(f).unwrap())
                    .unwrap()
                    .into_packets(),
            );
        }
        assert_eq!(back, trace.packets());
        std::fs::remove_dir_all(&dir).ok();
    }
}
