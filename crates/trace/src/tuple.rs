//! Five-tuple flow identity.

use std::fmt;
use std::net::Ipv4Addr;

/// IP protocol number, as carried in the IPv4 header `protocol` field.
///
/// Only TCP matters to the compressor, but traces may carry anything, so
/// the full byte is preserved.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Protocol(u8);

impl Protocol {
    /// Transmission Control Protocol (6).
    pub const TCP: Protocol = Protocol(6);
    /// User Datagram Protocol (17).
    pub const UDP: Protocol = Protocol(17);

    /// Wraps a raw protocol number.
    #[inline]
    pub const fn new(n: u8) -> Protocol {
        Protocol(n)
    }

    /// The raw protocol number.
    #[inline]
    pub const fn number(self) -> u8 {
        self.0
    }

    /// Returns `true` for TCP.
    #[inline]
    pub const fn is_tcp(self) -> bool {
        self.0 == 6
    }
}

impl Default for Protocol {
    /// Defaults to TCP: the only protocol the paper's compressor handles.
    fn default() -> Self {
        Protocol::TCP
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            6 => write!(f, "tcp"),
            17 => write!(f, "udp"),
            1 => write!(f, "icmp"),
            n => write!(f, "proto({n})"),
        }
    }
}

impl fmt::Debug for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Protocol({self})")
    }
}

impl From<u8> for Protocol {
    fn from(n: u8) -> Self {
        Protocol(n)
    }
}

impl From<Protocol> for u8 {
    fn from(p: Protocol) -> u8 {
        p.0
    }
}

/// The classic 5-tuple that identifies a unidirectional packet stream:
/// source/destination address, source/destination port, protocol.
///
/// Directionality matters: `a -> b` and `b -> a` are *different* five-tuples
/// but belong to the same bidirectional [`FlowKey`](crate::flow::FlowKey).
///
/// # Example
///
/// ```
/// use flowzip_trace::{FiveTuple, Protocol};
/// use std::net::Ipv4Addr;
///
/// let t = FiveTuple::tcp(
///     Ipv4Addr::new(10, 0, 0, 1), 43210,
///     Ipv4Addr::new(192, 168, 0, 80), 80,
/// );
/// assert_eq!(t.reversed().src_port, 80);
/// assert!(t.protocol.is_tcp());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FiveTuple {
    /// Sender address.
    pub src_ip: Ipv4Addr,
    /// Receiver address.
    pub dst_ip: Ipv4Addr,
    /// Sender TCP/UDP port.
    pub src_port: u16,
    /// Receiver TCP/UDP port.
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: Protocol,
}

impl FiveTuple {
    /// Creates a TCP five-tuple.
    pub const fn tcp(
        src_ip: Ipv4Addr,
        src_port: u16,
        dst_ip: Ipv4Addr,
        dst_port: u16,
    ) -> FiveTuple {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: Protocol::TCP,
        }
    }

    /// Creates a five-tuple with an explicit protocol.
    pub const fn new(
        src_ip: Ipv4Addr,
        src_port: u16,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        protocol: Protocol,
    ) -> FiveTuple {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol,
        }
    }

    /// The same conversation seen from the opposite direction.
    #[inline]
    pub const fn reversed(self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// Returns `true` when `self` and `other` are the two directions of one
    /// conversation (or the very same direction).
    #[inline]
    pub fn same_conversation(&self, other: &FiveTuple) -> bool {
        *self == *other || *self == other.reversed()
    }

    /// A stable 64-bit hash of the tuple — the "key" field stored in the
    /// compressor's linked-list nodes (§3 of the paper).
    ///
    /// Uses an FNV-1a over the canonical byte encoding so the value is
    /// reproducible across runs and platforms (unlike `DefaultHasher`).
    pub fn stable_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        };
        for b in self.src_ip.octets() {
            eat(b);
        }
        for b in self.dst_ip.octets() {
            eat(b);
        }
        for b in self.src_port.to_be_bytes() {
            eat(b);
        }
        for b in self.dst_port.to_be_bytes() {
            eat(b);
        }
        eat(self.protocol.number());
        h
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({})",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 1, 2, 3),
            40000,
            Ipv4Addr::new(172, 16, 0, 1),
            80,
        )
    }

    #[test]
    fn reversal_is_involutive() {
        let t = sample();
        assert_eq!(t.reversed().reversed(), t);
        assert_ne!(t.reversed(), t);
    }

    #[test]
    fn same_conversation_both_directions() {
        let t = sample();
        assert!(t.same_conversation(&t));
        assert!(t.same_conversation(&t.reversed()));
        let mut other = t;
        other.src_port = 40001;
        assert!(!t.same_conversation(&other));
    }

    #[test]
    fn stable_hash_is_deterministic_and_direction_sensitive() {
        let t = sample();
        assert_eq!(t.stable_hash(), sample().stable_hash());
        assert_ne!(t.stable_hash(), t.reversed().stable_hash());
    }

    #[test]
    fn protocol_constants() {
        assert!(Protocol::TCP.is_tcp());
        assert!(!Protocol::UDP.is_tcp());
        assert_eq!(Protocol::TCP.to_string(), "tcp");
        assert_eq!(Protocol::new(89).to_string(), "proto(89)");
        assert_eq!(Protocol::default(), Protocol::TCP);
    }

    #[test]
    fn display_mentions_endpoints() {
        let s = sample().to_string();
        assert!(s.contains("10.1.2.3:40000"));
        assert!(s.contains("172.16.0.1:80"));
        assert!(s.contains("tcp"));
    }
}
