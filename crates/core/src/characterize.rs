//! The flow characterization of §2: per-packet `M` values.
//!
//! `M(pᵢ) = w₁·f₁(pᵢ) + w₂·f₂(pᵢ) + w₃·f₃(pᵢ)` where
//!
//! * `f₁` — TCP flag arrangement class,
//! * `f₂` — acknowledgement dependence (0 = the packet waited one RTT for
//!   the opposite node, 1 = sent back-to-back),
//! * `f₃` — payload-size class (0 empty, 1 small, 2 large),
//!
//! and the paper's weights are `w = (16, 4, 1)`, so the flag arrangement
//! dominates, then dependence, then size — a lexicographic-ish ordering
//! packed into one small integer.

use flowzip_trace::{FlowDirection, TcpFlags};
use std::fmt;

/// `f₁`: the TCP flag arrangement classes the paper keys on ("we have
/// restricted our studies for the most common").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlagClass {
    /// Pure SYN — handshake open.
    Syn,
    /// SYN+ACK — handshake reply.
    SynAck,
    /// ACK (with or without data, PSH allowed) — established traffic.
    Ack,
    /// FIN in any arrangement — teardown.
    Fin,
    /// RST — abort (extended classifier only).
    Rst,
    /// Anything else (extended classifier only).
    Other,
}

impl FlagClass {
    /// The class's `f₁` integer value.
    pub fn value(self) -> u32 {
        match self {
            FlagClass::Syn => 0,
            FlagClass::SynAck => 1,
            FlagClass::Ack => 2,
            FlagClass::Fin => 3,
            FlagClass::Rst => 4,
            FlagClass::Other => 5,
        }
    }

    /// The canonical flag byte this class decodes to (used by the
    /// decompressor).
    pub(crate) fn to_flags(self) -> TcpFlags {
        match self {
            FlagClass::Syn => TcpFlags::SYN,
            FlagClass::SynAck => TcpFlags::SYN | TcpFlags::ACK,
            FlagClass::Ack => TcpFlags::ACK,
            FlagClass::Fin => TcpFlags::FIN | TcpFlags::ACK,
            FlagClass::Rst => TcpFlags::RST,
            FlagClass::Other => TcpFlags::ACK,
        }
    }

    /// Inverse of [`FlagClass::value`].
    pub(crate) fn from_value(v: u32) -> Option<FlagClass> {
        Some(match v {
            0 => FlagClass::Syn,
            1 => FlagClass::SynAck,
            2 => FlagClass::Ack,
            3 => FlagClass::Fin,
            4 => FlagClass::Rst,
            5 => FlagClass::Other,
            _ => return None,
        })
    }
}

impl fmt::Display for FlagClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagClass::Syn => write!(f, "syn"),
            FlagClass::SynAck => write!(f, "syn+ack"),
            FlagClass::Ack => write!(f, "ack"),
            FlagClass::Fin => write!(f, "fin"),
            FlagClass::Rst => write!(f, "rst"),
            FlagClass::Other => write!(f, "other"),
        }
    }
}

/// Maps raw flag bytes to [`FlagClass`]es.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagClassifier {
    /// The paper's 4-class mapping: SYN, SYN+ACK, ACK, FIN — RST and
    /// exotic arrangements fold into FIN (both terminate) / ACK.
    Paper,
    /// 6-class mapping distinguishing RST and other arrangements
    /// (ablation).
    Extended,
}

impl FlagClassifier {
    /// The paper's classifier.
    pub fn paper() -> FlagClassifier {
        FlagClassifier::Paper
    }

    /// Classifies a flag byte.
    pub fn classify(self, flags: TcpFlags) -> FlagClass {
        if flags.is_syn_only() {
            return FlagClass::Syn;
        }
        if flags.is_syn_ack() {
            return FlagClass::SynAck;
        }
        match self {
            FlagClassifier::Paper => {
                if flags.is_fin() || flags.is_rst() {
                    FlagClass::Fin
                } else {
                    FlagClass::Ack
                }
            }
            FlagClassifier::Extended => {
                if flags.is_rst() {
                    FlagClass::Rst
                } else if flags.is_fin() {
                    FlagClass::Fin
                } else if flags.contains(TcpFlags::ACK) || flags.is_empty() {
                    FlagClass::Ack
                } else {
                    FlagClass::Other
                }
            }
        }
    }

    /// Largest `f₁` value this classifier can produce.
    pub fn max_value(self) -> u32 {
        match self {
            FlagClassifier::Paper => 3,
            FlagClassifier::Extended => 5,
        }
    }
}

/// `f₂`: acknowledgement dependence.
///
/// "If a packet to be transmitted waits for a packet sent by the opposite
/// node, it is called a dependent packet; otherwise, if a packet is sent
/// immediately after the last one, we classify it as not dependent."
///
/// From a trace, dependence is inferred structurally: a packet whose
/// direction differs from its predecessor's was *responding* (waited one
/// RTT); a packet continuing in the same direction was sent back-to-back.
/// The flow's first packet is defined dependent (it opens an exchange).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dependence {
    /// Waited for the opposite node (`f₂ = 0`).
    Dependent,
    /// Sent back-to-back (`f₂ = 1`).
    NotDependent,
}

impl Dependence {
    /// The `f₂` integer value.
    pub fn value(self) -> u32 {
        match self {
            Dependence::Dependent => 0,
            Dependence::NotDependent => 1,
        }
    }

    /// Infers dependence from the previous and current packet directions.
    pub fn infer(prev: Option<FlowDirection>, current: FlowDirection) -> Dependence {
        match prev {
            None => Dependence::Dependent,
            Some(p) if p != current => Dependence::Dependent,
            Some(_) => Dependence::NotDependent,
        }
    }
}

/// `f₃`: payload-size class with the paper's edges (0 bytes; 1–500;
/// >500).
pub fn size_class(payload_len: u16, edge: u16) -> u32 {
    if payload_len == 0 {
        0
    } else if payload_len <= edge {
        1
    } else {
        2
    }
}

/// Representative payload lengths per size class, used when expanding
/// templates back into packets.
pub(crate) fn size_class_representative(class: u32, edge: u16) -> u16 {
    match class {
        0 => 0,
        1 => edge / 2 + 1,
        _ => 1460,
    }
}

/// The weight vector `w` of §2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Weights {
    /// Weight of the flag-arrangement parameter (paper: 16).
    pub flags: u32,
    /// Weight of the dependence parameter (paper: 4).
    pub dependence: u32,
    /// Weight of the size parameter (paper: 1).
    pub size: u32,
}

impl Weights {
    /// The paper's weights: 16, 4, 1.
    pub fn paper() -> Weights {
        Weights {
            flags: 16,
            dependence: 4,
            size: 1,
        }
    }

    /// Computes `M = w₁·f₁ + w₂·f₂ + w₃·f₃`.
    pub fn m_value(&self, f1: FlagClass, f2: Dependence, f3: u32) -> u32 {
        self.flags * f1.value() + self.dependence * f2.value() + self.size * f3
    }

    /// The exact maximum `M` under a classifier (the paper rounds this
    /// to its per-packet bound of 50).
    pub fn max_m(&self, classifier: FlagClassifier) -> u32 {
        self.flags * classifier.max_value() + self.dependence + self.size * 2
    }

    /// Decomposes an `M` value back into `(f₁, f₂, f₃)`. Exact only when
    /// the weights are non-degenerate (each weight exceeds the maximum
    /// contribution of lower-order terms), which holds for the paper's
    /// 16/4/1; `None` for an `M` no parameter triple produces, and for
    /// every `M` when a weight is zero.
    pub fn decompose(&self, m: u32) -> Option<(FlagClass, Dependence, u32)> {
        let f1 = m.checked_div(self.flags)?;
        let rem = m % self.flags;
        let f2 = rem.checked_div(self.dependence)?;
        let f3 = (rem % self.dependence).checked_div(self.size)?;
        let class = FlagClass::from_value(f1)?;
        let dep = match f2 {
            0 => Dependence::Dependent,
            1 => Dependence::NotDependent,
            _ => return None,
        };
        if f3 > 2 {
            return None;
        }
        Some((class, dep, f3))
    }
}

/// Eq. (4)'s distance between two equal-length `M` vectors: the L1
/// (Manhattan) norm of their difference.
///
/// # Panics
///
/// Panics if the vectors differ in length — templates are only ever
/// compared within the same `n` bucket.
pub fn l1_distance(a: &[u16], b: &[u16]) -> f64 {
    assert_eq!(a.len(), b.len(), "templates compared within one n bucket");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as i64 - y as i64).abs() as f64)
        .sum()
}

/// Whether [`l1_distance`] is at most `limit`, exiting as soon as the
/// running sum passes it (the hot path of template search).
pub(crate) fn l1_within(a: &[u16], b: &[u16], limit: f64) -> bool {
    let mut acc = 0i64;
    let lim = limit as i64;
    for (&x, &y) in a.iter().zip(b) {
        acc += (x as i64 - y as i64).abs();
        if acc > lim {
            return false;
        }
    }
    acc as f64 <= limit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_classifier_four_classes() {
        let c = FlagClassifier::paper();
        assert_eq!(c.classify(TcpFlags::SYN), FlagClass::Syn);
        assert_eq!(c.classify(TcpFlags::SYN | TcpFlags::ACK), FlagClass::SynAck);
        assert_eq!(c.classify(TcpFlags::ACK), FlagClass::Ack);
        assert_eq!(c.classify(TcpFlags::PSH | TcpFlags::ACK), FlagClass::Ack);
        assert_eq!(c.classify(TcpFlags::FIN | TcpFlags::ACK), FlagClass::Fin);
        assert_eq!(c.classify(TcpFlags::RST), FlagClass::Fin); // folded
        assert_eq!(c.max_value(), 3);
    }

    #[test]
    fn extended_classifier_distinguishes_rst() {
        let c = FlagClassifier::Extended;
        assert_eq!(c.classify(TcpFlags::RST), FlagClass::Rst);
        assert_eq!(c.classify(TcpFlags::URG), FlagClass::Other);
        assert_eq!(c.classify(TcpFlags::EMPTY), FlagClass::Ack);
        assert_eq!(c.max_value(), 5);
    }

    #[test]
    fn dependence_inference() {
        use FlowDirection::*;
        assert_eq!(
            Dependence::infer(None, FromInitiator),
            Dependence::Dependent
        );
        assert_eq!(
            Dependence::infer(Some(FromInitiator), FromResponder),
            Dependence::Dependent
        );
        assert_eq!(
            Dependence::infer(Some(FromResponder), FromResponder),
            Dependence::NotDependent
        );
    }

    #[test]
    fn size_classes_match_paper_edges() {
        assert_eq!(size_class(0, 500), 0);
        assert_eq!(size_class(1, 500), 1);
        assert_eq!(size_class(500, 500), 1);
        assert_eq!(size_class(501, 500), 2);
        assert_eq!(size_class(1460, 500), 2);
    }

    #[test]
    fn size_representatives_are_in_class() {
        for class in 0..3 {
            let rep = size_class_representative(class, 500);
            assert_eq!(size_class(rep, 500), class);
        }
    }

    #[test]
    fn m_value_examples() {
        let w = Weights::paper();
        // A SYN (dependent, empty): M = 0.
        assert_eq!(w.m_value(FlagClass::Syn, Dependence::Dependent, 0), 0);
        // SYN+ACK dependent empty: 16.
        assert_eq!(w.m_value(FlagClass::SynAck, Dependence::Dependent, 0), 16);
        // Data ACK, back-to-back, large: 32 + 4 + 2 = 38.
        assert_eq!(w.m_value(FlagClass::Ack, Dependence::NotDependent, 2), 38);
        // FIN dependent empty: 48.
        assert_eq!(w.m_value(FlagClass::Fin, Dependence::Dependent, 0), 48);
    }

    #[test]
    fn max_m_close_to_papers_fifty() {
        let w = Weights::paper();
        assert_eq!(w.max_m(FlagClassifier::Paper), 54);
    }

    #[test]
    fn decompose_inverts_m_value() {
        let w = Weights::paper();
        for f1 in [
            FlagClass::Syn,
            FlagClass::SynAck,
            FlagClass::Ack,
            FlagClass::Fin,
        ] {
            for f2 in [Dependence::Dependent, Dependence::NotDependent] {
                for f3 in 0..3u32 {
                    let m = w.m_value(f1, f2, f3);
                    assert_eq!(w.decompose(m), Some((f1, f2, f3)));
                }
            }
        }
        assert_eq!(w.decompose(99), None); // f1 = 6 invalid
    }

    #[test]
    fn distances() {
        let a = [0u16, 16, 32];
        let b = [2u16, 16, 30];
        assert_eq!(l1_distance(&a, &b), 4.0);
        assert!(l1_within(&a, &b, 4.0));
        assert!(!l1_within(&a, &b, 3.0));
    }

    #[test]
    fn flag_class_roundtrip_and_decoding() {
        for v in 0..6 {
            let c = FlagClass::from_value(v).unwrap();
            assert_eq!(c.value(), v);
            // Decoded flags must classify back to the same class under
            // the extended classifier.
            assert_eq!(
                FlagClassifier::Extended.classify(c.to_flags()),
                if c == FlagClass::Other {
                    FlagClass::Ack
                } else {
                    c
                }
            );
        }
        assert!(FlagClass::from_value(6).is_none());
    }
}
