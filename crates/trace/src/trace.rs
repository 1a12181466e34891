//! An in-memory packet trace: an ordered vector of records plus helpers.

use crate::error::TraceError;
use crate::packet::PacketRecord;
use crate::time::{Duration, Timestamp};
use std::fmt;

/// A packet trace: records in non-decreasing timestamp order.
///
/// `Trace` is the interchange type of the workspace — traffic generators
/// produce it, compressors consume it, benchmarks replay it.
///
/// # Example
///
/// ```
/// use flowzip_trace::prelude::*;
///
/// let mut trace = Trace::new();
/// trace.push(PacketRecord::builder().timestamp(Timestamp::from_micros(1)).build());
/// trace.push(PacketRecord::builder().timestamp(Timestamp::from_micros(2)).build());
/// assert_eq!(trace.len(), 2);
/// assert!(trace.is_time_ordered());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    packets: Vec<PacketRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace {
            packets: Vec::new(),
        }
    }

    /// Creates an empty trace with capacity for `n` records.
    pub fn with_capacity(n: usize) -> Trace {
        Trace {
            packets: Vec::with_capacity(n),
        }
    }

    /// Builds a trace from records, sorting them into timestamp order.
    pub fn from_packets(mut packets: Vec<PacketRecord>) -> Trace {
        packets.sort_by_key(|p| p.timestamp());
        Trace { packets }
    }

    /// Appends a record. Records may be pushed out of order and sorted once
    /// at the end with [`Trace::sort_by_time`]; most producers push in order.
    pub fn push(&mut self, p: PacketRecord) {
        self.packets.push(p);
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Returns `true` when the trace holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Borrowed view of the records.
    pub fn packets(&self) -> &[PacketRecord] {
        &self.packets
    }

    /// Iterator over records.
    pub fn iter(&self) -> std::slice::Iter<'_, PacketRecord> {
        self.packets.iter()
    }

    /// Consumes the trace, yielding its records.
    pub fn into_packets(self) -> Vec<PacketRecord> {
        self.packets
    }

    /// Re-sorts records by timestamp (stable, preserves arrival order of
    /// equal timestamps).
    pub fn sort_by_time(&mut self) {
        self.packets.sort_by_key(|p| p.timestamp());
    }

    /// Returns `true` when records are in non-decreasing timestamp order.
    pub fn is_time_ordered(&self) -> bool {
        self.packets
            .windows(2)
            .all(|w| w[0].timestamp() <= w[1].timestamp())
    }

    /// Validates structural invariants, returning a descriptive error for
    /// the first violation: time ordering is the only hard invariant.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidTrace`] when out-of-order records exist.
    pub fn validate(&self) -> Result<(), TraceError> {
        for (i, w) in self.packets.windows(2).enumerate() {
            if w[0].timestamp() > w[1].timestamp() {
                return Err(TraceError::InvalidTrace(format!(
                    "packet {} at {} precedes packet {} at {}",
                    i + 1,
                    w[1].timestamp(),
                    i,
                    w[0].timestamp()
                )));
            }
        }
        Ok(())
    }

    /// Timestamp of the first packet, if any.
    pub fn start_time(&self) -> Option<Timestamp> {
        self.packets.first().map(|p| p.timestamp())
    }

    /// Timestamp of the last packet, if any.
    pub fn end_time(&self) -> Option<Timestamp> {
        self.packets.last().map(|p| p.timestamp())
    }

    /// Capture duration (last minus first timestamp), zero for short traces.
    pub fn duration(&self) -> Duration {
        match (self.start_time(), self.end_time()) {
            (Some(a), Some(b)) => b.saturating_since(a),
            _ => Duration::ZERO,
        }
    }

    /// Total header bytes this trace stands for (40 bytes per packet) —
    /// the "original size" baseline of §5.
    pub fn header_bytes(&self) -> u64 {
        self.packets.len() as u64 * crate::packet::HEADER_BYTES as u64
    }

    /// Sub-trace with all packets whose timestamp is `< cutoff`, preserving
    /// order — used by the Figure-1 "elapsed time" sweep.
    pub fn prefix_until(&self, cutoff: Timestamp) -> Trace {
        let idx = self.packets.partition_point(|p| p.timestamp() < cutoff);
        Trace {
            packets: self.packets[..idx].to_vec(),
        }
    }

    /// Merges another trace into this one, keeping global time order.
    pub fn merge(&mut self, other: Trace) {
        self.packets.extend(other.packets);
        self.sort_by_time();
    }
}

impl Extend<PacketRecord> for Trace {
    fn extend<I: IntoIterator<Item = PacketRecord>>(&mut self, iter: I) {
        self.packets.extend(iter);
    }
}

impl FromIterator<PacketRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = PacketRecord>>(iter: I) -> Self {
        Trace {
            packets: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Trace {
    type Item = PacketRecord;
    type IntoIter = std::vec::IntoIter<PacketRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.packets.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a PacketRecord;
    type IntoIter = std::slice::Iter<'a, PacketRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.packets.iter()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace: {} packets, {} header bytes, {} span",
            self.len(),
            self.header_bytes(),
            self.duration()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketRecord;

    fn pkt(us: u64) -> PacketRecord {
        PacketRecord::builder()
            .timestamp(Timestamp::from_micros(us))
            .build()
    }

    #[test]
    fn from_packets_sorts() {
        let t = Trace::from_packets(vec![pkt(5), pkt(1), pkt(3)]);
        assert!(t.is_time_ordered());
        assert_eq!(t.start_time().unwrap().as_micros(), 1);
        assert_eq!(t.end_time().unwrap().as_micros(), 5);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_catches_disorder() {
        let mut t = Trace::new();
        t.push(pkt(10));
        t.push(pkt(5));
        assert!(!t.is_time_ordered());
        let err = t.validate().unwrap_err();
        assert!(err.to_string().contains("precedes"));
        t.sort_by_time();
        assert!(t.validate().is_ok());
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.duration(), Duration::ZERO);
        assert_eq!(t.start_time(), None);
        assert_eq!(t.header_bytes(), 0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn byte_accounting() {
        let mut t = Trace::new();
        t.push(PacketRecord::builder().payload_len(100).build());
        t.push(PacketRecord::builder().payload_len(0).build());
        assert_eq!(t.header_bytes(), 80);
    }

    #[test]
    fn prefix_until_is_strict() {
        let t = Trace::from_packets(vec![pkt(1), pkt(2), pkt(3), pkt(3), pkt(9)]);
        let p = t.prefix_until(Timestamp::from_micros(3));
        assert_eq!(p.len(), 2);
        let all = t.prefix_until(Timestamp::from_micros(100));
        assert_eq!(all.len(), 5);
        let none = t.prefix_until(Timestamp::ZERO);
        assert!(none.is_empty());
    }

    #[test]
    fn merge_preserves_order() {
        let mut a = Trace::from_packets(vec![pkt(1), pkt(5)]);
        let b = Trace::from_packets(vec![pkt(2), pkt(4)]);
        a.merge(b);
        assert_eq!(a.len(), 4);
        assert!(a.is_time_ordered());
    }

    #[test]
    fn iterator_impls() {
        let t = Trace::from_packets(vec![pkt(1), pkt(2)]);
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
        let collected: Trace = t.clone().into_iter().collect();
        assert_eq!(collected, t);
        let mut ext = Trace::new();
        ext.extend(t.clone());
        assert_eq!(ext.len(), 2);
    }

    #[test]
    fn duration_and_display() {
        let t = Trace::from_packets(vec![pkt(0), pkt(2_000_000)]);
        assert_eq!(t.duration(), Duration::from_secs(2));
        assert!(t.to_string().contains("2 packets"));
    }
}
