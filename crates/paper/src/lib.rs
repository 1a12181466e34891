//! The paper's reproduction lab: everything §5 and §6 compare the
//! flow-clustering compressor against, and the binaries that regenerate
//! the paper's figures and tables. The product (`flowzip` and its
//! capability crates) does not depend on this crate.
//!
//! | paper | modules |
//! |---|---|
//! | §5 Van Jacobson baseline | [`comp`] — RFC 1144 adapted for trace storage |
//! | §5 Peuhkuri baseline | [`peuhkuri`] — lossy flow-table reduction |
//! | §5 Eq. (5)–(8) | [`model`] — analytic ratio of every method |
//! | §6 radix substrate | [`trie`], [`tablegen`], [`trace`] — PATRICIA table, seeded FIBs, access tracing |
//! | §6 cache model | [`cache`], [`meter`] — set-associative cache, per-packet cost meter |
//! | §6 kernels | [`route`], [`nat`], [`rtr`], [`runner`] — Route / NAT / RTR replay |
//!
//! The gzip row of §5 comes from `flowzip-deflate`.
//!
//! Every binary in `src/bin/` reproduces one artifact of the paper's
//! evaluation at the fixed [`DEFAULT_SEED`] (the README's "Reproducing
//! the paper's evaluation" shows how to run them):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1_file_size` | Figure 1 — file size vs elapsed time, 5 methods |
//! | `fig2_mem_access` | Figure 2 — cumulative traffic vs memory accesses |
//! | `fig3_cache_miss` | Figure 3 — traffic per cache-miss-rate bucket |
//! | `table_ratios` | §5 in-text ratios (gzip/VJ/Peuhkuri/proposed) |
//! | `table_flow_stats` | §3 in-text flow statistics (98% / 75% / 80%) |
//! | `table_clusters` | §2.1 cluster-size distribution |
//! | `table_validation` | §6 kernel × trace validation matrix |
//! | `exp_anon` | §1 motivation — anonymization vs address structure |
//! | `exp_p2p` | §7 future work — P2P traffic |
//! | `abl_dsim` | ablation — similarity threshold sweep |
//! | `abl_weights` | ablation — weight vector sweep |
//! | `abl_cache` | ablation — cache geometry sweep |
//!
//! Binaries print paper-style tables to stdout and drop gnuplot `.dat`
//! series under `target/figures/`.

pub mod cache;
pub mod comp;
mod leb128;
pub mod meter;
pub mod model;
pub mod nat;
pub mod peuhkuri;
pub mod route;
pub mod rtr;
pub mod runner;
pub mod tablegen;
pub mod trace;
pub mod trie;

use crate::runner::{BenchConfig, BenchKind, PacketProcessor};
use flowzip_core::{CompressedTrace, Decompressor};
use flowzip_trace::Trace;
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use std::path::PathBuf;

/// Seed used by every regenerator unless overridden, so published numbers
/// are reproducible.
pub const DEFAULT_SEED: u64 = 20050320; // ISPASS 2005 kickoff date

/// Where the `.dat` series land.
pub fn figures_dir() -> PathBuf {
    PathBuf::from("target/figures")
}

/// Parses `--key value` style arguments (all optional, all u64), plus
/// `--bench name` strings. Unknown keys are rejected with a helpful
/// message.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Raw `--key value` pairs.
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics (with usage help) on malformed argument lists.
    pub fn parse() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --key, got `{}`", argv[i]));
            let value = argv
                .get(i + 1)
                .unwrap_or_else(|| panic!("missing value for --{key}"));
            pairs.push((key.to_string(), value.clone()));
            i += 2;
        }
        Args { pairs }
    }

    /// Integer option with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} wants a number"))
            })
            .unwrap_or(default)
    }

    /// String option with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| default.to_string())
    }
}

/// The standard "Original trace" every experiment starts from: `flows`
/// Web conversations over `secs` seconds.
pub fn original_trace(flows: usize, secs: f64, seed: u64) -> Trace {
    WebTrafficGenerator::new(
        WebTrafficConfig {
            flows,
            duration_secs: secs,
            ..WebTrafficConfig::default()
        },
        seed,
    )
    .generate()
}

/// Pretty-prints a byte count as MB with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// The decompressed trace of §6: `archive` expanded flow by flow and
/// time-sorted ([`Decompressor::decompress`]) — packet for packet what
/// `flowzip decompress`'s §4 merge writes.
pub fn decompressed(archive: &CompressedTrace) -> Trace {
    Decompressor::default().decompress(archive)
}

/// Builds a fresh benchmark kernel for one trace replay, with routing
/// tables derived from the *reference* trace's server destinations —
/// the §6 design: one FIB, four input traces.
pub fn make_kernel(
    kind: BenchKind,
    config: &BenchConfig,
    reference: &Trace,
) -> Box<dyn PacketProcessor> {
    match kind {
        BenchKind::Route => Box::new(route::RouteBench::covering_servers(config, reference)),
        BenchKind::Nat => Box::new(nat::NatBench::new(config)),
        BenchKind::Rtr => Box::new(rtr::RtrBench::covering_servers(config, reference)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_defaults_and_overrides() {
        let args = Args {
            pairs: vec![
                ("flows".into(), "500".into()),
                ("bench".into(), "nat".into()),
            ],
        };
        assert_eq!(args.get_u64("flows", 100), 500);
        assert_eq!(args.get_u64("missing", 7), 7);
        assert_eq!(args.get_str("bench", "route"), "nat");
        assert_eq!(args.get_str("other", "x"), "x");
    }

    #[test]
    fn original_trace_is_seed_stable() {
        let a = original_trace(50, 10.0, 1);
        let b = original_trace(50, 10.0, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn mb_format() {
        assert_eq!(mb(2_500_000), "2.50");
        assert_eq!(mb(0), "0.00");
    }
}
