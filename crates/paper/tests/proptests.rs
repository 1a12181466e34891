//! Property tests of the lab's substrate against simple references:
//!
//! * the PATRICIA trie agrees with a brute-force longest-prefix-match
//!   oracle through arbitrary insert/remove/lookup interleavings;
//! * the set-associative cache agrees with a naive LRU model, and its
//!   counters stay internally consistent;
//! * VJ compression is bit-exact over arbitrary header walks, including
//!   pathological deltas and interleavings.

use flowzip_paper::cache::{Cache, CacheConfig, Replacement};
use flowzip_paper::comp::{VjCompressor, VjDecompressor};
use flowzip_paper::trie::RadixTable;
use flowzip_trace::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

// ---- radix trie -------------------------------------------------------

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

/// Brute-force oracle: a map from (prefix, len) to value.
#[derive(Default)]
struct Oracle {
    routes: HashMap<(u32, u8), u32>,
}

impl Oracle {
    fn insert(&mut self, prefix: u32, len: u8, value: u32) -> Option<u32> {
        self.routes.insert((prefix & mask(len), len), value)
    }

    fn remove(&mut self, prefix: u32, len: u8) -> Option<u32> {
        self.routes.remove(&(prefix & mask(len), len))
    }

    fn lookup(&self, addr: u32) -> Option<u32> {
        self.routes
            .iter()
            .filter(|(&(p, l), _)| addr & mask(l) == p)
            .max_by_key(|(&(_, l), _)| l)
            .map(|(_, &v)| v)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u8, u32),
    Remove(u32, u8),
    Lookup(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u32>(), 0u8..=32, any::<u32>()).prop_map(|(p, l, v)| Op::Insert(p, l, v)),
        (any::<u32>(), 0u8..=32).prop_map(|(p, l)| Op::Remove(p, l)),
        any::<u32>().prop_map(Op::Lookup),
    ]
}

/// Ops biased toward a small prefix universe so removes/lookups actually
/// hit inserted routes.
fn arb_clustered_op() -> impl Strategy<Value = Op> {
    let prefix = prop::sample::select(vec![
        0x0A00_0000u32,
        0x0A01_0000,
        0x0A01_0100,
        0xC0A8_0000,
        0xC0A8_0100,
        0x8000_0000,
        0xFFFF_FF00,
    ]);
    let len = prop::sample::select(vec![0u8, 8, 16, 24, 32]);
    prop_oneof![
        (prefix.clone(), len.clone(), any::<u32>()).prop_map(|(p, l, v)| Op::Insert(p, l, v)),
        (prefix.clone(), len).prop_map(|(p, l)| Op::Remove(p, l)),
        (prefix, any::<u8>()).prop_map(|(p, low)| Op::Lookup(p | low as u32)),
    ]
}

fn run_ops(ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut trie: RadixTable<u32> = RadixTable::new();
    let mut oracle = Oracle::default();
    for op in ops {
        match op {
            Op::Insert(p, l, v) => {
                let a = trie.insert(Ipv4Addr::from(p), l, v);
                let b = oracle.insert(p, l, v);
                prop_assert_eq!(a, b, "insert {:#x}/{}", p, l);
            }
            Op::Remove(p, l) => {
                let a = trie.remove(Ipv4Addr::from(p), l);
                let b = oracle.remove(p, l);
                prop_assert_eq!(a, b, "remove {:#x}/{}", p, l);
            }
            Op::Lookup(a) => {
                let got = trie.lookup(Ipv4Addr::from(a)).copied();
                let want = oracle.lookup(a);
                prop_assert_eq!(got, want, "lookup {:#x}", a);
            }
        }
        prop_assert_eq!(trie.len(), oracle.routes.len());
    }
    Ok(())
}

proptest! {
    #[test]
    fn random_ops_match_oracle(ops in prop::collection::vec(arb_op(), 1..200)) {
        run_ops(ops)?;
    }

    #[test]
    fn clustered_ops_match_oracle(ops in prop::collection::vec(arb_clustered_op(), 1..300)) {
        run_ops(ops)?;
    }

    #[test]
    fn traced_lookup_agrees_with_plain(
        routes in prop::collection::vec((any::<u32>(), 8u8..=28, any::<u32>()), 1..100),
        probes in prop::collection::vec(any::<u32>(), 1..100))
    {
        let mut trie: RadixTable<u32> = RadixTable::new();
        for &(p, l, v) in &routes {
            trie.insert(Ipv4Addr::from(p), l, v);
        }
        for &a in &probes {
            let plain = trie.lookup(Ipv4Addr::from(a)).copied();
            let mut sink = flowzip_paper::trace::CountingSink::new();
            let (traced, visited) = trie.traced_lookup(Ipv4Addr::from(a), &mut sink);
            prop_assert_eq!(plain, traced.copied());
            prop_assert!(visited >= 1);
            prop_assert!(sink.total() >= visited as u64, ">= one access per visit");
        }
    }
}

// ---- cache ------------------------------------------------------------

/// A deliberately simple reference: per set, a Vec of tags in LRU order.
struct NaiveLru {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
}

impl NaiveLru {
    fn new(config: CacheConfig) -> NaiveLru {
        let sets = config.num_sets() as usize;
        NaiveLru {
            sets: vec![Vec::new(); sets],
            ways: config.associativity as usize,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let set = ((addr >> self.line_shift) & self.set_mask) as usize;
        let tag = addr >> self.line_shift >> self.set_mask.count_ones();
        let lines = &mut self.sets[set];
        if let Some(pos) = lines.iter().position(|&t| t == tag) {
            let t = lines.remove(pos);
            lines.insert(0, t); // most recent in front
            true
        } else {
            lines.insert(0, tag);
            lines.truncate(self.ways);
            false
        }
    }
}

fn small_configs() -> impl Strategy<Value = CacheConfig> {
    (
        prop::sample::select(vec![64u32, 128, 256, 1024]),
        prop::sample::select(vec![16u32, 32]),
        prop::sample::select(vec![1u32, 2, 4]),
    )
        .prop_filter_map("valid geometry", |(size, line, assoc)| {
            let c = CacheConfig {
                size_bytes: size,
                line_bytes: line,
                associativity: assoc,
                replacement: Replacement::Lru,
            };
            c.validate().ok().map(|_| c)
        })
}

proptest! {
    #[test]
    fn lru_matches_naive_reference(
        config in small_configs(),
        // Addresses confined to a few KiB so sets actually conflict.
        addrs in prop::collection::vec(0u64..8192, 1..600))
    {
        let mut cache = Cache::new(config);
        let mut naive = NaiveLru::new(config);
        for &a in &addrs {
            let got = cache.access(a).hit;
            let want = naive.access(a);
            prop_assert_eq!(got, want, "addr {:#x}", a);
        }
    }

    #[test]
    fn counters_are_consistent(
        config in small_configs(),
        addrs in prop::collection::vec(any::<u16>(), 1..500))
    {
        let mut cache = Cache::new(config);
        let mut misses = 0u64;
        for &a in &addrs {
            if !cache.access(a as u64).hit {
                misses += 1;
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert_eq!(s.misses, misses);
        prop_assert!(s.evictions <= s.misses);
        prop_assert!((0.0..=1.0).contains(&s.miss_rate()));
    }

    #[test]
    fn repeat_pass_within_capacity_always_hits(
        config in small_configs(),
        seed in any::<u64>())
    {
        // A working set exactly one cache's worth of distinct lines,
        // touched twice in the same order: second pass must be all hits
        // under LRU.
        let lines = (config.size_bytes / config.line_bytes) as u64;
        let mut cache = Cache::new(config);
        let base = (seed % 1024) * config.line_bytes as u64;
        let addrs: Vec<u64> = (0..lines).map(|i| base + i * config.line_bytes as u64).collect();
        for &a in &addrs {
            cache.access(a);
        }
        for &a in &addrs {
            prop_assert!(cache.access(a).hit, "addr {:#x} should be resident", a);
        }
    }
}

// ---- Van Jacobson -----------------------------------------------------

fn arb_trace() -> impl Strategy<Value = Trace> {
    // (flow-select, ts-gap, seq/ack/win/ipid/len/flags deltas)
    prop::collection::vec(
        (
            0u8..6,        // which of up to 6 connections
            0u64..200_000, // gap to previous packet (µs)
            any::<u32>(),  // seq
            any::<u32>(),  // ack
            any::<u16>(),  // window
            any::<u16>(),  // ip id
            0u16..1461,    // payload
            any::<u8>(),   // flags byte
        ),
        1..200,
    )
    .prop_map(|steps| {
        let mut now = 0u64;
        let mut trace = Trace::new();
        for (conn, gap, seq, ack, win, id, len, flags) in steps {
            now += gap;
            let tuple = FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, conn + 1),
                5_000 + conn as u16,
                Ipv4Addr::new(192, 168, 1, 1),
                80,
            );
            trace.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(now))
                    .tuple(tuple)
                    .seq(seq)
                    .ack(ack)
                    .window(win)
                    .ip_id(id)
                    .payload_len(len)
                    .flags(TcpFlags::from_bits(flags))
                    .build(),
            );
        }
        trace
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_is_exact(trace in arb_trace()) {
        let bytes = VjCompressor::new().compress_trace(&trace);
        let back = VjDecompressor::new().decompress_trace(&bytes).unwrap();
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn truncation_never_panics_or_lies(trace in arb_trace(), cut_frac in 0.0f64..1.0) {
        let bytes = VjCompressor::new().compress_trace(&trace);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        // A mid-record cut is correctly rejected with an error; a cut on a
        // clean record boundary yields a prefix of the original trace.
        if let Ok(partial) = VjDecompressor::new().decompress_trace(&bytes[..cut]) {
            prop_assert!(partial.len() <= trace.len());
            for (a, b) in partial.iter().zip(trace.iter()) {
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn compressed_never_larger_than_full_headers_plus_overhead(trace in arb_trace()) {
        let bytes = VjCompressor::new().compress_trace(&trace);
        // Worst case per packet: full record (41 bytes).
        prop_assert!(bytes.len() <= trace.len() * 41 + 16);
    }
}
