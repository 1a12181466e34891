//! The paper's primary contribution: a **lossy packet-trace compressor
//! based on TCP flow clustering** (Holanda, Verdú, García, Valero —
//! ISPASS 2005).
//!
//! # How it works
//!
//! 1. [`characterize`] maps each packet to a small integer
//!    `M(p) = w₁·f₁ + w₂·f₂ + w₃·f₃` from its TCP-flag arrangement,
//!    acknowledgement dependence and payload-size class (§2); a flow
//!    becomes the vector of its packets' `M` values.
//! 2. [`accumulate`] reassembles flows online from the packet stream —
//!    the hash-keyed linked-list structure of §3 — finalizing each flow
//!    when FIN/RST completes it (or at end of trace).
//! 3. [`cluster`] groups *short* flows (2–50 packets) whose vectors are
//!    within `d_sim = 2% · (n · 50)` of an existing template (Eq. 4);
//!    each cluster is stored once. Long flows are stored verbatim.
//! 4. [`datasets`] defines the four output datasets of §3 —
//!    `short-flows-template`, `long-flows-template`, `address`,
//!    `time-seq` — and their compact binary encoding (≈8 bytes per short
//!    flow).
//! 5. [`decompress`] regenerates a trace per §4: templates are expanded,
//!    timestamps re-synthesized from the stored RTT (dependent packets
//!    wait one RTT, others follow back-to-back), sources drawn from
//!    random class-B/C space, client ports random in 1024–65000, server
//!    port 80.
//!
//! The result is *lossy* — exact headers are gone — but preserves the
//! statistical properties (flag sequences, size classes, timing, address
//! locality) that §6 shows drive memory-system behaviour of trace
//! consumers, at ≈3% of the original size (Eq. 7–8; the analytic model
//! lives in the `flowzip-paper` lab crate).
//!
//! # Example
//!
//! ```
//! use flowzip_core::{Compressor, Decompressor, Params};
//! use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
//!
//! let trace = WebTrafficGenerator::new(
//!     WebTrafficConfig { flows: 100, ..Default::default() }, 7).generate();
//!
//! let (compressed, report) = Compressor::new(Params::paper()).compress(&trace);
//! assert!(report.ratio_vs_tsh < 0.10, "well under 10% of the TSH size");
//!
//! let restored = Decompressor::new(Default::default()).decompress(&compressed);
//! assert_eq!(restored.len() > 0, true);
//! ```

#![warn(missing_docs)]

pub mod accumulate;
pub mod characterize;
pub mod cluster;
pub mod compress;
pub mod container;
pub mod datasets;
pub mod decompress;
pub mod meta;
pub mod query;
pub mod synth;
pub mod telemetry;

pub use accumulate::{FinishedFlow, FlowAccumulator};
pub use characterize::{Dependence, DistanceMetric, FlagClass, FlagClassifier, Weights};
pub use cluster::{SearchIndex, TemplateStore};
pub use compress::{
    assemble_sections, assemble_shards, CompressionReport, Compressor, FlowAssembler,
};
pub use container::{
    read_v2, v2_metadata, ArchiveFormat, ArchiveReader, DecodedSection, SectionMergeStats,
    ShardSection,
};
pub use datasets::{CompressedTrace, DatasetSizes, FlowRecord};
pub use decompress::{
    synth_client, synth_tuple, DecompressParams, Decompressor, PacketStream, DEFAULT_SEED,
};
pub use meta::{ArchiveMeta, FlowKeyBloom, SectionMeta};
pub use query::{
    query_bytes, select_bytes, select_reader, FlowQuery, QueryOutcome, QuerySelection, QueryStats,
};
pub use synth::{synthesize, ArchiveModel, SynthConfig, SynthGenerator};
pub use telemetry::{ArchiveTelemetry, FlowTelemetry, SectionTelemetry};

/// All knobs of the compression pipeline, with the paper's values as
/// [`Params::paper`] (also the `Default`).
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// The `w` weight vector of §2 (defaults 16 / 4 / 1).
    pub weights: Weights,
    /// Flag-arrangement classifier (paper: the four most common).
    pub classifier: FlagClassifier,
    /// Payload-size class edges: `len == 0`, `1..=edge`, `> edge`.
    pub size_edge: u16,
    /// Largest packet count still considered a *short* flow (paper: 50).
    pub short_max: usize,
    /// The per-packet maximum distance constant of Eq. (4) (paper: 50).
    pub per_packet_bound: u32,
    /// Similarity threshold as a fraction of the maximum inter-flow
    /// distance (paper: 2%).
    pub similarity: f64,
    /// Distance metric between template vectors (paper reading: L1).
    pub metric: DistanceMetric,
    /// Template search strategy (sum-pruned index by default; linear
    /// scan available for ablation).
    pub index: SearchIndex,
}

impl Params {
    /// The constants of the paper: weights 16/4/1, size edge 500 B,
    /// short ≤ 50 packets, per-packet bound 50, similarity 2%, L1.
    pub fn paper() -> Params {
        Params {
            weights: Weights::paper(),
            classifier: FlagClassifier::paper(),
            size_edge: 500,
            short_max: 50,
            per_packet_bound: 50,
            similarity: 0.02,
            metric: DistanceMetric::L1,
            index: SearchIndex::SumPruned,
        }
    }

    /// The similarity threshold `d_sim` of Eq. (4) for an `n`-packet
    /// flow: `similarity · per_packet_bound · n` (with the paper's
    /// constants, exactly `n`).
    pub fn d_sim(&self, n: usize) -> f64 {
        self.similarity * self.per_packet_bound as f64 * n as f64
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_d_sim_is_n() {
        let p = Params::paper();
        assert!((p.d_sim(10) - 10.0).abs() < 1e-12);
        assert!((p.d_sim(50) - 50.0).abs() < 1e-12);
        assert_eq!(p.short_max, 50);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(Params::default(), Params::paper());
    }
}
