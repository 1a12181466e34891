//! The seeded query battery: one third flow hits drawn from the
//! decompressed trace's tuples, one third flow misses, one third
//! one-percent time windows.

use crate::stats::SplitMix64;
use crate::workloads::canonical;
use flowzip_core::FlowQuery;
use flowzip_trace::{FiveTuple, Timestamp, Trace};
use std::collections::HashMap;
use std::net::Ipv4Addr;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hit,
    Miss,
    Window,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub class: Class,
    pub flow: Option<FiveTuple>,
    /// Window bounds in microseconds of trace time.
    pub window_us: Option<(u64, u64)>,
}

impl Query {
    /// The `flowzip query` arguments that express this query.
    pub fn cli_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        if let Some(t) = self.flow {
            args.push("--flow".to_string());
            args.push(format!(
                "{}:{}->{}:{}",
                t.src_ip, t.src_port, t.dst_ip, t.dst_port
            ));
        }
        if let Some((from, to)) = self.window_us {
            args.push("--from".to_string());
            args.push(format!("{:.6}", from as f64 / 1e6));
            args.push("--to".to_string());
            args.push(format!("{:.6}", to as f64 / 1e6));
        }
        args
    }

    /// The same query for `flowzip_core::query_bytes`.
    pub fn core(&self) -> FlowQuery {
        FlowQuery {
            flow: self.flow,
            from: self.window_us.map(|(a, _)| Timestamp::from_micros(a)),
            to: self.window_us.map(|(_, b)| Timestamp::from_micros(b)),
        }
    }
}

/// `per_class` queries of each class, interleaved hit, miss, window.
///
/// Hits and windows are spread evenly so that two seeds give batteries
/// of about the same cost: the i-th window starts in the i-th of
/// `per_class` equal slices of the trace's time span, and the hits are
/// the flows owning `per_class` equally spaced packets (one seeded
/// offset) of the packets *laid out flow by flow* — every flow is hit in
/// proportion to its size, to within one query. A query's cost grows with
/// the flow it returns; four trunk carriers drawn at random would make the
/// battery's cost a coin toss. `decompressed` must be non-empty.
pub fn battery(decompressed: &Trace, seed: u64, per_class: usize) -> Vec<Query> {
    let packets = decompressed.packets();
    let mut rng = SplitMix64::new(seed ^ 0xBA77_E121);
    let mut sizes: HashMap<FiveTuple, u64> = HashMap::new();
    for p in packets {
        *sizes.entry(canonical(p.tuple())).or_default() += 1;
    }
    // Sorted, because HashMap order changes from run to run.
    let mut flows: Vec<(FiveTuple, u64)> = sizes.into_iter().collect();
    flows.sort_unstable();
    let flow_at = |point: f64| {
        let mut left = (point * packets.len() as f64) as u64;
        for &(tuple, size) in &flows {
            if left < size {
                return tuple;
            }
            left -= size;
        }
        flows[flows.len() - 1].0
    };
    let start = decompressed
        .start_time()
        .expect("non-empty trace")
        .as_micros();
    let span = decompressed.duration().as_micros().max(100);
    let width = span / 100;
    let hit_offset = rng.next_f64();
    let mut out = Vec::with_capacity(per_class * 3);
    for i in 0..per_class {
        let hit = flow_at((i as f64 + hit_offset) / per_class as f64);
        let in_slice = (i as f64 + rng.next_f64()) / per_class as f64;
        let from = start + (in_slice * (span - width) as f64) as u64;
        out.push(Query {
            class: Class::Hit,
            flow: Some(hit),
            window_us: None,
        });
        // A real server address behind a client in 10/8, where neither
        // the generators nor the synthesizer place a client: the flow
        // cannot exist, so pruning has to prove it.
        let server = packets[rng.below(packets.len() as u64) as usize].tuple();
        out.push(Query {
            class: Class::Miss,
            flow: Some(FiveTuple::tcp(
                Ipv4Addr::new(10, rng.below(256) as u8, rng.below(256) as u8, 9),
                (1024 + rng.below(60_000)) as u16,
                server.dst_ip,
                server.dst_port,
            )),
            window_us: None,
        });
        out.push(Query {
            class: Class::Window,
            flow: None,
            window_us: Some((from, from + width)),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Scale};

    #[test]
    fn battery_is_deterministic_and_balanced() {
        let trace = workloads::generate(workloads::WORKLOADS[0], 3, Scale { div: 300 });
        let a = battery(&trace, 42, 8);
        assert_eq!(a, battery(&trace, 42, 8));
        assert_ne!(a, battery(&trace, 43, 8));
        for class in [Class::Hit, Class::Miss, Class::Window] {
            assert_eq!(a.iter().filter(|q| q.class == class).count(), 8);
        }
        let end = trace.end_time().unwrap().as_micros();
        for q in &a {
            match q.class {
                Class::Hit => assert!(trace.packets().iter().any(|p| p.tuple() == q.flow.unwrap())),
                Class::Miss => assert!(!trace
                    .packets()
                    .iter()
                    .any(|p| p.tuple().same_conversation(&q.flow.unwrap()))),
                Class::Window => {
                    let (from, to) = q.window_us.unwrap();
                    assert!(from < to && to <= end);
                }
            }
        }
    }

    #[test]
    fn hits_follow_flow_sizes_on_the_trunk() {
        let trunk = workloads::find("trunk_skew").unwrap();
        for seed in 0..20 {
            let trace = workloads::generate(trunk, seed, Scale { div: 300 });
            let hits: Vec<FiveTuple> = battery(&trace, seed, 10)
                .into_iter()
                .filter(|q| q.class == Class::Hit)
                .map(|q| q.flow.unwrap())
                .collect();
            let most_hit = hits
                .iter()
                .map(|t| hits.iter().filter(|u| *u == t).count())
                .max()
                .unwrap();
            // The 0.6 carrier: 6 of 10 (its share is 0.6 to within 1 %).
            assert!((5..=7).contains(&most_hit), "seed {seed}: {most_hit}");
        }
    }

    #[test]
    fn cli_args_spell_the_flow_and_the_window() {
        let q = Query {
            class: Class::Hit,
            flow: Some(FiveTuple::tcp(
                Ipv4Addr::new(1, 2, 3, 4),
                5,
                Ipv4Addr::new(6, 7, 8, 9),
                80,
            )),
            window_us: Some((1_500_000, 2_000_000)),
        };
        assert_eq!(
            q.cli_args(),
            [
                "--flow",
                "1.2.3.4:5->6.7.8.9:80",
                "--from",
                "1.500000",
                "--to",
                "2.000000"
            ]
        );
    }
}
