//! Trace-complexity scoring: one number summarizing how hard a trace
//! is for the flow-clustering compressor. Two effects dilute template
//! reuse — a broad flow-size mix (more distinct template lengths to
//! cover) and bursty arrivals (more flows simultaneously open, fewer
//! chances for the accumulator to retire state) — so the score blends
//! a normalized flow-size entropy with an arrival-burstiness measure.

use flowzip_core::ArchiveFlow;
use std::collections::BTreeMap;

/// The complexity decomposition: both components normalized to `[0, 1]`
/// plus their blended headline score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceComplexity {
    /// Shannon entropy of the flow-size (packets per flow) distribution,
    /// normalized by the maximum for the observed number of distinct
    /// sizes — 0 when every flow is the same length, 1 when all distinct
    /// lengths are equally common.
    pub flow_size_entropy: f64,
    /// Coefficient of variation of flow-start inter-arrival times,
    /// squashed to `[0, 1)` as `cv / (1 + cv)` — 0 for a perfectly
    /// regular arrival clock, 0.5 for Poisson arrivals, approaching 1
    /// for heavy-tailed bursts.
    pub arrival_burstiness: f64,
    /// Headline score on `[0, 100]`: the equal-weight blend
    /// `100 · (entropy + burstiness) / 2`.
    pub score: f64,
}

impl TraceComplexity {
    /// Scores a trace from its per-flow packet counts and flow-start
    /// timestamps (microseconds, any order). Degenerate inputs are
    /// defined, not errors: fewer than two flows score 0.
    pub fn from_flows(sizes: &[u64], starts_us: &[u64]) -> TraceComplexity {
        let mut sorted = starts_us.to_vec();
        sorted.sort_unstable();
        TraceComplexity::from_parts(&size_counts(sizes.iter().copied()), &sorted)
    }

    /// Scores an archive's flows as its record merge
    /// ([`ArchiveReader::records`](flowzip_core::ArchiveReader::records))
    /// yields them: one flow per `time-seq` record, sized by its
    /// template, in start order. Equal to [`TraceComplexity::from_flows`]
    /// over the same flows, keeping one start time per flow and a count
    /// per distinct size.
    pub fn from_records<'r>(flows: impl IntoIterator<Item = ArchiveFlow<'r>>) -> TraceComplexity {
        let flows = flows.into_iter();
        let mut counts = BTreeMap::new();
        let mut starts_us = Vec::with_capacity(flows.size_hint().0);
        for flow in flows {
            *counts.entry(flow.packets).or_insert(0u64) += 1;
            starts_us.push(flow.record.first_ts.as_micros());
        }
        // Merge order is start order, so this sort finds one sorted run;
        // it keeps the score right for flows in any other order.
        starts_us.sort_unstable();
        TraceComplexity::from_parts(&counts, &starts_us)
    }

    /// The score of a size histogram and the sorted start times.
    fn from_parts(size_counts: &BTreeMap<u64, u64>, sorted_starts_us: &[u64]) -> TraceComplexity {
        let flow_size_entropy = normalized_entropy(size_counts);
        let arrival_burstiness = burstiness(sorted_starts_us);
        TraceComplexity {
            flow_size_entropy,
            arrival_burstiness,
            score: 100.0 * (flow_size_entropy + arrival_burstiness) / 2.0,
        }
    }
}

/// How many times each value occurs.
fn size_counts(values: impl Iterator<Item = u64>) -> BTreeMap<u64, u64> {
    let mut counts = BTreeMap::new();
    for v in values {
        *counts.entry(v).or_insert(0u64) += 1;
    }
    counts
}

/// Shannon entropy of the value distribution given as per-value counts,
/// normalized by `log2(distinct values)`; 0 when there are fewer than
/// two distinct values (a single-valued distribution has nothing to be
/// uncertain about).
fn normalized_entropy(counts: &BTreeMap<u64, u64>) -> f64 {
    if counts.len() < 2 {
        return 0.0;
    }
    let n = counts.values().sum::<u64>() as f64;
    let h: f64 = counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum();
    (h / (counts.len() as f64).log2()).clamp(0.0, 1.0)
}

/// `cv / (1 + cv)` over the inter-arrival gaps of the sorted start
/// times; 0 with fewer than two gaps or an all-simultaneous trace.
fn burstiness(sorted: &[u64]) -> f64 {
    if sorted.len() < 3 {
        return 0.0;
    }
    let gaps = || sorted.windows(2).map(|w| (w[1] - w[0]) as f64);
    let len = (sorted.len() - 1) as f64;
    let mean = gaps().sum::<f64>() / len;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = gaps().map(|g| (g - mean) * (g - mean)).sum::<f64>() / len;
    let cv = var.sqrt() / mean;
    cv / (1.0 + cv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sizes_and_regular_clock_score_zero() {
        let sizes = vec![5u64; 100];
        let starts: Vec<u64> = (0u64..100).map(|i| i * 1_000).collect();
        let c = TraceComplexity::from_flows(&sizes, &starts);
        assert_eq!(c.flow_size_entropy, 0.0);
        assert_eq!(c.arrival_burstiness, 0.0);
        assert_eq!(c.score, 0.0);
    }

    #[test]
    fn equally_common_distinct_sizes_have_entropy_one() {
        let sizes: Vec<u64> = (0u64..400).map(|i| 1 + i % 8).collect();
        let starts: Vec<u64> = (0u64..400).map(|i| i * 500).collect();
        let c = TraceComplexity::from_flows(&sizes, &starts);
        assert!((c.flow_size_entropy - 1.0).abs() < 1e-12, "{c:?}");
        assert_eq!(c.arrival_burstiness, 0.0);
        assert!((c.score - 50.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_arrivals_score_higher_than_regular_ones() {
        let sizes = vec![3u64; 200];
        let regular: Vec<u64> = (0u64..200).map(|i| i * 1_000).collect();
        // All-at-once bursts separated by long silences.
        let bursty: Vec<u64> = (0u64..200)
            .map(|i| (i / 50) * 10_000_000 + i % 50)
            .collect();
        let r = TraceComplexity::from_flows(&sizes, &regular);
        let b = TraceComplexity::from_flows(&sizes, &bursty);
        assert!(
            b.arrival_burstiness > r.arrival_burstiness + 0.3,
            "{b:?} vs {r:?}"
        );
        assert!(b.score > r.score);
    }

    #[test]
    fn degenerate_inputs_are_zero_not_nan() {
        for (sizes, starts) in [
            (vec![], vec![]),
            (vec![7], vec![0]),
            (vec![7, 7], vec![5, 5]),
        ] {
            let c = TraceComplexity::from_flows(&sizes, &starts);
            assert_eq!(c.score, 0.0, "{sizes:?} {starts:?}");
            assert!(c.score.is_finite());
        }
    }

    #[test]
    fn components_stay_in_unit_range() {
        let sizes: Vec<u64> = (0u64..500).map(|i| (i * i * 31) % 97 + 1).collect();
        let starts: Vec<u64> = (0u64..500).map(|i| (i * i * 17) % 1_000_000).collect();
        let c = TraceComplexity::from_flows(&sizes, &starts);
        assert!((0.0..=1.0).contains(&c.flow_size_entropy));
        assert!((0.0..=1.0).contains(&c.arrival_burstiness));
        assert!((0.0..=100.0).contains(&c.score));
    }
}
