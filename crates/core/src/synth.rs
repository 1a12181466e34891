//! Synthetic trace generation from a compressed archive — the paper's
//! stated future work (§7: "implement a synthetic packet trace generator
//! based on the described methodology").
//!
//! A [`CompressedTrace`] is, in effect, a *fitted traffic model*: cluster
//! templates with popularity counts, an empirical RTT distribution, an
//! address population with per-flow usage frequencies, and a flow arrival
//! process. [`SynthGenerator`] resamples that model to produce traces of
//! any size — scale a 1-minute capture into an hour of statistically
//! similar traffic, without ever storing the hour.

use crate::datasets::CompressedTrace;
use crate::decompress::{DecompressParams, Decompressor};
use flowzip_trace::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for archive-driven synthesis.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// How many flows to synthesize.
    pub flows: usize,
    /// Stretch/compress factor applied to the fitted inter-arrival mean
    /// (1.0 = the archive's own arrival rate).
    pub arrival_scale: f64,
    /// Decompression parameters used when expanding sampled templates.
    pub expand: DecompressParams,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            flows: 1_000,
            arrival_scale: 1.0,
            expand: DecompressParams::default(),
            seed: 0x517E,
        }
    }
}

/// The fitted model extracted from an archive.
#[derive(Debug, Clone)]
pub(crate) struct ArchiveModel {
    /// `(is_long, template_idx, weight)` — how often each template was
    /// referenced by `time-seq`.
    template_weights: Vec<(bool, u32, u64)>,
    /// Per-address reference counts (indices into the address dataset).
    address_weights: Vec<u64>,
    /// Observed RTTs of short flows (µs), the empirical distribution.
    rtts_us: Vec<u64>,
    /// Mean flow inter-arrival gap (µs) fitted from `time-seq`.
    mean_arrival_us: f64,
}

impl ArchiveModel {
    /// Fits the model from an archive's datasets.
    ///
    /// Returns `None` for an empty archive (nothing to fit).
    pub(crate) fn fit(archive: &CompressedTrace) -> Option<ArchiveModel> {
        if archive.time_seq.is_empty() {
            return None;
        }
        let mut counts: std::collections::HashMap<(bool, u32), u64> = Default::default();
        let mut address_weights = vec![0u64; archive.addresses.len()];
        let mut rtts_us = Vec::new();
        for r in &archive.time_seq {
            *counts.entry((r.is_long, r.template_idx)).or_insert(0) += 1;
            address_weights[r.addr_idx as usize] += 1;
            if !r.is_long && !r.rtt.is_zero() {
                rtts_us.push(r.rtt.as_micros());
            }
        }
        let mut template_weights: Vec<(bool, u32, u64)> =
            counts.into_iter().map(|((l, i), c)| (l, i, c)).collect();
        template_weights.sort(); // deterministic order
        let span = archive
            .time_seq
            .last()
            .expect("non-empty time-seq")
            .first_ts
            .saturating_since(archive.time_seq[0].first_ts)
            .as_micros() as f64;
        let mean_arrival_us = (span / archive.time_seq.len().max(1) as f64).max(1.0);
        Some(ArchiveModel {
            template_weights,
            address_weights,
            rtts_us,
            mean_arrival_us,
        })
    }

    fn sample_weighted<R: Rng>(weights: impl Iterator<Item = u64> + Clone, rng: &mut R) -> usize {
        let total: u64 = weights.clone().sum();
        let mut pick = rng.gen_range(0..total.max(1));
        for (i, w) in weights.enumerate() {
            if pick < w {
                return i;
            }
            pick -= w;
        }
        0
    }
}

/// Archive-driven synthetic trace generator.
#[derive(Debug)]
pub struct SynthGenerator {
    config: SynthConfig,
}

impl SynthGenerator {
    /// Creates a generator.
    pub fn new(config: SynthConfig) -> SynthGenerator {
        SynthGenerator { config }
    }

    /// Synthesizes a new trace from the archive's fitted model.
    ///
    /// Returns an empty trace for an empty archive.
    pub fn generate(&self, archive: &CompressedTrace) -> Trace {
        let Some(model) = ArchiveModel::fit(archive) else {
            return Trace::new();
        };
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        // Build a synthetic time-seq by resampling the model, then reuse
        // the §4 decompressor to expand it — the "described methodology".
        let mut time_seq = Vec::with_capacity(self.config.flows);
        let mut now = 0u64;
        for _ in 0..self.config.flows {
            let gap = crate::synth::exponential_us(
                &mut rng,
                model.mean_arrival_us * self.config.arrival_scale,
            );
            now += gap.max(1);
            let t = ArchiveModel::sample_weighted(
                model.template_weights.iter().map(|&(_, _, w)| w),
                &mut rng,
            );
            let (is_long, template_idx, _) = model.template_weights[t];
            let addr_idx =
                ArchiveModel::sample_weighted(model.address_weights.iter().copied(), &mut rng)
                    as u32;
            let rtt = if model.rtts_us.is_empty() {
                Duration::ZERO
            } else {
                Duration::from_micros(model.rtts_us[rng.gen_range(0..model.rtts_us.len())])
            };
            time_seq.push(crate::datasets::FlowRecord {
                first_ts: Timestamp::from_micros(now),
                is_long,
                template_idx,
                addr_idx,
                rtt,
            });
        }

        // Long templates are sampled with replacement. The wire rule that
        // names each long template once (`docs/FORMAT.md`) bounds what an
        // archive expands to; this model is never written, and its flow
        // count is `config.flows`, so `validate` does not ask it.
        let synthetic_archive = CompressedTrace {
            short_templates: archive.short_templates.clone(),
            long_templates: archive.long_templates.clone(),
            addresses: archive.addresses.clone(),
            time_seq,
        };
        debug_assert!(synthetic_archive.validate().is_ok());
        Decompressor::new(self.config.expand.clone()).decompress(&synthetic_archive)
    }
}

/// Exponential sample in µs (inverse transform; plain `rand` only).
fn exponential_us<R: Rng>(rng: &mut R, mean_us: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-mean_us * u.ln()) as u64
}

/// Convenience: fit + generate in one call with paper parameters.
pub fn synthesize(archive: &CompressedTrace, flows: usize, seed: u64) -> Trace {
    SynthGenerator::new(SynthConfig {
        flows,
        seed,
        ..SynthConfig::default()
    })
    .generate(archive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compressor;
    use crate::Params;
    use flowzip_trace::flow::FlowTable;
    use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

    fn archive(flows: usize, seed: u64) -> CompressedTrace {
        let trace = WebTrafficGenerator::new(
            WebTrafficConfig {
                flows,
                ..WebTrafficConfig::default()
            },
            seed,
        )
        .generate();
        Compressor::new(Params::paper()).compress(&trace).0
    }

    #[test]
    fn empty_archive_yields_empty_trace() {
        let t = synthesize(&CompressedTrace::default(), 100, 1);
        assert!(t.is_empty());
        assert!(ArchiveModel::fit(&CompressedTrace::default()).is_none());
    }

    #[test]
    fn generates_requested_flow_count() {
        let a = archive(300, 1);
        let t = synthesize(&a, 150, 2);
        let flows = FlowTable::from_trace(&t).len();
        // Distinct synthesized client addresses keep flows separate; a
        // tiny number may collide on the random 5-tuples.
        assert!(
            (145..=150).contains(&flows),
            "expected ≈150 flows, got {flows}"
        );
        assert!(t.is_time_ordered());
    }

    #[test]
    fn scaling_up_preserves_flow_length_distribution() {
        let a = archive(400, 3);
        let small = Decompressor::default().decompress(&a);
        let big = synthesize(&a, 1_600, 4);
        let lens = |t: &Trace| {
            let stats = FlowTable::from_trace(t).stats(50);
            stats
                .length_histogram
                .iter()
                .enumerate()
                .flat_map(|(n, &c)| std::iter::repeat_n(n as f64, c as usize))
                .collect::<Vec<f64>>()
        };
        // 4x more flows, same shape.
        let d = flowzip_analysis::ks_distance(&lens(&small), &lens(&big));
        assert!(
            d < 0.12,
            "flow-length shape should survive scaling, ks = {d}"
        );
    }

    #[test]
    fn arrival_scale_stretches_the_trace() {
        let a = archive(300, 5);
        let fast = SynthGenerator::new(SynthConfig {
            flows: 200,
            arrival_scale: 0.5,
            seed: 6,
            ..SynthConfig::default()
        })
        .generate(&a);
        let slow = SynthGenerator::new(SynthConfig {
            flows: 200,
            arrival_scale: 4.0,
            seed: 6,
            ..SynthConfig::default()
        })
        .generate(&a);
        assert!(slow.duration() > fast.duration());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = archive(200, 7);
        assert_eq!(synthesize(&a, 100, 9), synthesize(&a, 100, 9));
        assert_ne!(synthesize(&a, 100, 9), synthesize(&a, 100, 10));
    }

    #[test]
    fn addresses_come_from_the_archive() {
        let a = archive(200, 11);
        let t = synthesize(&a, 300, 12);
        let pool: std::collections::HashSet<_> = a.addresses.iter().copied().collect();
        for p in &t {
            if p.tuple().dst_port == 80 {
                assert!(pool.contains(&p.dst_ip()));
            }
        }
    }

    #[test]
    fn model_fit_summaries() {
        let a = archive(250, 13);
        let m = ArchiveModel::fit(&a).unwrap();
        let templates = m.template_weights.len();
        assert!(templates > 0);
        assert!(templates <= a.short_templates.len() + a.long_templates.len());
        assert!(m.mean_arrival_us > 0.0);
    }
}
