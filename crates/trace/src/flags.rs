//! TCP control-bit set.
//!
//! The compressor's flow characterization (`f1` in the paper) is driven by
//! *flag arrangements* — combinations such as `SYN`, `SYN|ACK`, `FIN|ACK` —
//! so flags are modelled as a transparent bitset rather than an enum.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Not};

/// The six classic TCP control bits, stored in wire order
/// (`FIN` = bit 0 … `URG` = bit 5), as they appear in byte 13 of the TCP
/// header.
///
/// # Example
///
/// ```
/// use flowzip_trace::TcpFlags;
///
/// let synack = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(synack.contains(TcpFlags::SYN));
/// assert!(synack.contains(TcpFlags::ACK));
/// assert!(!synack.contains(TcpFlags::FIN));
/// assert_eq!(synack.to_string(), "SYN|ACK");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No control bits set (a pure data segment on an established flow).
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// Connection teardown (sender is finished).
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// Connection open / sequence-number synchronize.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// Abortive reset.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// Push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// Acknowledgement number is valid.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// Urgent pointer is valid.
    pub const URG: TcpFlags = TcpFlags(0x20);
    /// Mask of all six defined bits.
    pub(crate) const ALL: TcpFlags = TcpFlags(0x3f);

    /// Creates a flag set from the raw TCP header flag byte.
    ///
    /// Bits above `URG` (ECE/CWR in modern TCP) are preserved so that a
    /// TSH round-trip is exact, but they are ignored by all classifiers.
    #[inline]
    pub const fn from_bits(bits: u8) -> TcpFlags {
        TcpFlags(bits)
    }

    /// Returns the raw flag byte.
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Returns `true` when every bit in `other` is also set in `self`.
    #[inline]
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `true` when at least one bit of `other` is set in `self`.
    #[inline]
    pub const fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns `true` when no control bits are set.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` for the exact `SYN` arrangement (no `ACK`):
    /// the first packet of the three-way handshake.
    #[inline]
    pub const fn is_syn_only(self) -> bool {
        self.0 & Self::ALL.0 == Self::SYN.0
    }

    /// Returns `true` for the exact `SYN|ACK` arrangement.
    #[inline]
    pub const fn is_syn_ack(self) -> bool {
        self.0 & Self::ALL.0 == Self::SYN.0 | Self::ACK.0
    }

    /// Returns `true` when the `FIN` bit is set (with or without `ACK`).
    #[inline]
    pub const fn is_fin(self) -> bool {
        self.0 & Self::FIN.0 != 0
    }

    /// Returns `true` when the `RST` bit is set.
    #[inline]
    pub const fn is_rst(self) -> bool {
        self.0 & Self::RST.0 != 0
    }

    /// Returns `true` when this packet terminates its flow (FIN or RST) —
    /// the finalization trigger used by the compressor's accumulator.
    #[inline]
    pub const fn terminates_flow(self) -> bool {
        self.is_fin() || self.is_rst()
    }

    /// Iterator over the individual set bits, in wire order.
    pub fn iter(self) -> impl Iterator<Item = TcpFlags> {
        [
            Self::FIN,
            Self::SYN,
            Self::RST,
            Self::PSH,
            Self::ACK,
            Self::URG,
        ]
        .into_iter()
        .filter(move |f| self.contains(*f))
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    #[inline]
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    #[inline]
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for TcpFlags {
    type Output = TcpFlags;
    #[inline]
    fn bitand(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 & rhs.0)
    }
}

impl BitAndAssign for TcpFlags {
    #[inline]
    fn bitand_assign(&mut self, rhs: TcpFlags) {
        self.0 &= rhs.0;
    }
}

impl Not for TcpFlags {
    type Output = TcpFlags;
    #[inline]
    fn not(self) -> TcpFlags {
        TcpFlags(!self.0 & Self::ALL.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "-");
        }
        const NAMES: [(TcpFlags, &str); 6] = [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::URG, "URG"),
        ];
        let mut first = true;
        for (bit, name) in NAMES {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TcpFlags({self})")
    }
}

impl fmt::Binary for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u8> for TcpFlags {
    fn from(bits: u8) -> Self {
        TcpFlags::from_bits(bits)
    }
}

impl From<TcpFlags> for u8 {
    fn from(f: TcpFlags) -> u8 {
        f.bits()
    }
}

impl FromIterator<TcpFlags> for TcpFlags {
    fn from_iter<I: IntoIterator<Item = TcpFlags>>(iter: I) -> Self {
        iter.into_iter().fold(TcpFlags::EMPTY, |acc, f| acc | f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_order_matches_tcp_header() {
        assert_eq!(TcpFlags::FIN.bits(), 0x01);
        assert_eq!(TcpFlags::SYN.bits(), 0x02);
        assert_eq!(TcpFlags::RST.bits(), 0x04);
        assert_eq!(TcpFlags::PSH.bits(), 0x08);
        assert_eq!(TcpFlags::ACK.bits(), 0x10);
        assert_eq!(TcpFlags::URG.bits(), 0x20);
    }

    #[test]
    fn contains_and_intersects() {
        let sa = TcpFlags::SYN | TcpFlags::ACK;
        assert!(sa.contains(TcpFlags::SYN));
        assert!(sa.contains(sa));
        assert!(!sa.contains(TcpFlags::SYN | TcpFlags::FIN));
        assert!(sa.intersects(TcpFlags::SYN | TcpFlags::FIN));
        assert!(!sa.intersects(TcpFlags::FIN));
        assert!(TcpFlags::EMPTY.contains(TcpFlags::EMPTY));
    }

    #[test]
    fn arrangement_predicates() {
        assert!(TcpFlags::SYN.is_syn_only());
        assert!(!(TcpFlags::SYN | TcpFlags::ACK).is_syn_only());
        assert!((TcpFlags::SYN | TcpFlags::ACK).is_syn_ack());
        assert!((TcpFlags::FIN | TcpFlags::ACK).is_fin());
        assert!(TcpFlags::RST.is_rst());
        assert!(TcpFlags::RST.terminates_flow());
        assert!((TcpFlags::FIN | TcpFlags::ACK).terminates_flow());
        assert!(!(TcpFlags::PSH | TcpFlags::ACK).terminates_flow());
    }

    #[test]
    fn display_formats() {
        assert_eq!(TcpFlags::EMPTY.to_string(), "-");
        assert_eq!(TcpFlags::SYN.to_string(), "SYN");
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(
            (TcpFlags::FIN | TcpFlags::PSH | TcpFlags::ACK).to_string(),
            "FIN|PSH|ACK"
        );
        assert_eq!(format!("{:?}", TcpFlags::SYN), "TcpFlags(SYN)");
    }

    #[test]
    fn not_is_masked_to_defined_bits() {
        let inv = !TcpFlags::SYN;
        assert!(!inv.contains(TcpFlags::SYN));
        assert!(inv.contains(TcpFlags::FIN | TcpFlags::RST));
        assert_eq!(inv.bits() & !TcpFlags::ALL.bits(), 0);
    }

    #[test]
    fn high_bits_preserved_but_ignored() {
        let raw = TcpFlags::from_bits(0xC0 | 0x02); // ECE/CWR + SYN
        assert!(raw.is_syn_only());
        assert_eq!(raw.bits(), 0xC2);
    }

    #[test]
    fn from_iterator_unions() {
        let f: TcpFlags = [TcpFlags::SYN, TcpFlags::ACK].into_iter().collect();
        assert!(f.is_syn_ack());
    }

    #[test]
    fn iter_roundtrip() {
        let f = TcpFlags::FIN | TcpFlags::ACK | TcpFlags::URG;
        let back: TcpFlags = f.iter().collect();
        assert_eq!(f.bits() & TcpFlags::ALL.bits(), back.bits());
        assert_eq!(f.iter().count(), 3);
    }
}
