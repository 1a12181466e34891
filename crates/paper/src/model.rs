//! The analytic compression-ratio models of §5, Eq. (5)–(8).
//!
//! Each method spends some bytes on a flow of `n` packets; the original
//! trace spends one 40-byte header per packet. Eq. (5) and (7) are that
//! ratio for one flow, Eq. (6) and (8) its byte-weighted mean under a
//! flow-length pmf:
//!
//! ```text
//! r(n) = bytes(n) / (40·n)
//! C    = Σₙ Pₙ·bytes(n) / Σₙ Pₙ·40·n
//! ```
//!
//! | method | `bytes(n)` | paper |
//! |---|---|---|
//! | Van Jacobson | `40 + 6·(n − 1)`: one full header, then 6-byte deltas | Eq. (5)–(6), ≈ 30% |
//! | Peuhkuri | `13 + 6.4·n`: a flow-table entry, then 16% of each header | "bounded by 16%" |
//! | flow clustering | `8`: one `time-seq` record; templates amortize away | Eq. (7)–(8), ≈ 3% |

/// Bytes of an uncompressed TCP/IP header.
pub const FULL_HEADER_BYTES: f64 = 40.0;
/// Bytes of the minimal VJ-adapted compressed header: change mask (1) +
/// 3-byte connection id + 2-byte timestamp.
pub const VJ_MIN_COMPRESSED_BYTES: f64 = 6.0;
/// Peuhkuri's per-flow table entry: the 5-tuple stored once
/// (4+4+2+2+1 bytes).
pub const PEUHKURI_FLOW_BYTES: f64 = 13.0;
/// Peuhkuri's per-packet record at the paper's bound: 16% of 40 bytes.
pub const PEUHKURI_PACKET_BYTES: f64 = 6.4;
/// The ratio bound the paper quotes for the Peuhkuri method.
pub const PEUHKURI_BOUND: f64 = 0.16;
/// Bytes per flow in the flow-clustering `time-seq` dataset.
pub const TIME_SEQ_FLOW_BYTES: f64 = 8.0;

/// A §5 compression method with an analytic model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Van Jacobson header compression adapted for traces ([`crate::comp`]).
    VanJacobson,
    /// Peuhkuri's flow-based reduction ([`crate::peuhkuri`]).
    Peuhkuri,
    /// The paper's flow clustering (`flowzip-core`).
    FlowClustering,
}

impl Method {
    /// Compressed bytes the method spends on a flow of `n` packets.
    pub fn flow_bytes(self, n: f64) -> f64 {
        match self {
            Method::VanJacobson => FULL_HEADER_BYTES + VJ_MIN_COMPRESSED_BYTES * (n - 1.0),
            Method::Peuhkuri => PEUHKURI_FLOW_BYTES + PEUHKURI_PACKET_BYTES * n,
            Method::FlowClustering => TIME_SEQ_FLOW_BYTES,
        }
    }

    /// Eq. (5)/(7): the ratio for a single flow of `n` packets.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; zero-packet flows do not exist.
    pub fn ratio_for_flow_len(self, n: u64) -> f64 {
        assert!(n > 0, "flows have at least one packet");
        self.flow_bytes(n as f64) / (FULL_HEADER_BYTES * n as f64)
    }

    /// Eq. (6)/(8): the overall ratio under a flow-length pmf (`pmf[n]` is
    /// the probability of an n-packet flow; index 0 ignored).
    /// Byte-weighted: expected compressed bytes per flow over expected
    /// original bytes per flow.
    pub fn expected_ratio(self, pmf: &[f64]) -> f64 {
        let mut compressed = 0.0;
        let mut original = 0.0;
        for (n, &p) in pmf.iter().enumerate().skip(1) {
            if p > 0.0 {
                let n = n as f64;
                compressed += p * self.flow_bytes(n);
                original += p * FULL_HEADER_BYTES * n;
            }
        }
        if original == 0.0 {
            0.0
        } else {
            compressed / original
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Method::{FlowClustering, Peuhkuri, VanJacobson};

    #[test]
    fn single_packet_flow_has_ratio_one() {
        assert!((VanJacobson.ratio_for_flow_len(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_decreases_with_flow_length() {
        let mut last = f64::INFINITY;
        for n in 1..200 {
            let r = VanJacobson.ratio_for_flow_len(n);
            assert!(r < last);
            last = r;
        }
    }

    #[test]
    fn asymptote_is_six_fortieths() {
        let r = VanJacobson.ratio_for_flow_len(1_000_000);
        assert!((r - 0.15).abs() < 1e-3);
    }

    #[test]
    fn expected_ratio_degenerate_pmf() {
        // All flows exactly 10 packets.
        let mut pmf = vec![0.0; 11];
        pmf[10] = 1.0;
        let expect = (40.0 + 6.0 * 9.0) / 400.0;
        assert!((VanJacobson.expected_ratio(&pmf) - expect).abs() < 1e-12);
    }

    #[test]
    fn expected_ratio_empty_pmf_is_zero() {
        for m in [VanJacobson, Peuhkuri, FlowClustering] {
            assert_eq!(m.expected_ratio(&[1.0]), 0.0); // only index 0
        }
    }

    #[test]
    fn empty_pmf_is_zero() {
        for m in [VanJacobson, Peuhkuri, FlowClustering] {
            assert_eq!(m.expected_ratio(&[]), 0.0);
        }
    }

    #[test]
    fn web_like_mix_lands_near_thirty_percent() {
        // A mice-dominated mixture: mostly short flows (3–12 packets)
        // with a thin elephant tail — the regime the paper measures.
        let mut pmf = vec![0.0; 301];
        pmf[3] = 0.25;
        pmf[5] = 0.25;
        pmf[8] = 0.20;
        pmf[12] = 0.15;
        pmf[30] = 0.10;
        pmf[300] = 0.05;
        let r = VanJacobson.expected_ratio(&pmf);
        assert!(
            (0.18..=0.38).contains(&r),
            "web-like mixture should land near the paper's 30%, got {r}"
        );
    }

    #[test]
    fn long_flows_approach_the_bound() {
        let r = Peuhkuri.ratio_for_flow_len(10_000);
        assert!((r - PEUHKURI_BOUND).abs() < 0.001);
    }

    #[test]
    fn short_flows_pay_table_overhead() {
        assert!(Peuhkuri.ratio_for_flow_len(1) > PEUHKURI_BOUND);
        assert!(Peuhkuri.ratio_for_flow_len(2) > Peuhkuri.ratio_for_flow_len(10));
    }

    #[test]
    fn expected_ratio_matches_hand_computation() {
        let mut pmf = vec![0.0; 6];
        pmf[5] = 1.0;
        let expect = (13.0 + 6.4 * 5.0) / 200.0;
        assert!((Peuhkuri.expected_ratio(&pmf) - expect).abs() < 1e-12);
    }

    #[test]
    fn web_mix_is_near_bound() {
        let mut pmf = vec![0.0; 101];
        pmf[4] = 0.4;
        pmf[8] = 0.3;
        pmf[20] = 0.2;
        pmf[100] = 0.1;
        let r = Peuhkuri.expected_ratio(&pmf);
        assert!((0.14..=0.22).contains(&r), "got {r}");
    }

    #[test]
    fn single_flow_ratios() {
        assert!((FlowClustering.ratio_for_flow_len(1) - 0.2).abs() < 1e-12);
        assert!((FlowClustering.ratio_for_flow_len(10) - 0.02).abs() < 1e-12);
        assert!((FlowClustering.ratio_for_flow_len(100) - 0.002).abs() < 1e-12);
    }

    #[test]
    fn expected_ratio_is_eight_over_forty_mean() {
        // C = 8 / (40 · E[n]).
        let mut pmf = vec![0.0; 21];
        pmf[5] = 0.5;
        pmf[15] = 0.5; // E[n] = 10
        assert!((FlowClustering.expected_ratio(&pmf) - 8.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn web_mix_lands_near_three_percent() {
        // Web-like mean flow length ≈ 7 packets → 8/280 ≈ 2.9%.
        let mut pmf = vec![0.0; 301];
        pmf[4] = 0.35;
        pmf[6] = 0.30;
        pmf[9] = 0.20;
        pmf[15] = 0.10;
        pmf[40] = 0.03;
        pmf[300] = 0.02;
        let r = FlowClustering.expected_ratio(&pmf);
        assert!((0.01..=0.05).contains(&r), "≈3% expected, got {r}");
    }
}
