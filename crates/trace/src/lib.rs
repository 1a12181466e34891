//! Packet, flow and trace-format model shared by every flowzip crate.
//!
//! This crate is the vocabulary of the workspace: it defines what a packet
//! *is* for the purposes of the ISPASS 2005 flow-clustering compressor
//! reproduction, how packets group into TCP flows, and how traces are stored
//! on disk in the NLANR **TSH** (Time Sequence Header) format that the
//! paper's Figure 1 measures file sizes against.
//!
//! # Layering
//!
//! * [`flags::TcpFlags`] — the 6 classic TCP control bits.
//! * [`tuple::FiveTuple`] — `(src ip, dst ip, src port, dst port, protocol)`.
//! * [`time::Timestamp`] / [`time::Duration`] — microsecond integer time.
//! * [`packet::PacketRecord`] — one captured TCP/IP header + timestamp.
//! * [`trace::Trace`] — an ordered sequence of packet records.
//! * [`tsh`] — 44-byte TSH record codec: incremental [`tsh::TshReader`]
//!   for streaming, plus whole-trace read/write.
//! * [`reader`] — capture-format sniffing ([`reader::CaptureFormat`]) and
//!   the format-agnostic [`reader::CaptureReader`], a fallible packet
//!   iterator.
//! * [`writer`] — the mirror image: [`writer::CaptureWriter`] streams
//!   packets into either format, one record at a time.
//! * [`flow`] — grouping packets into bidirectional flows under the packed
//!   [`flow::FlowKey`] and its seeded [`flow::FlowHash`], flow statistics.
//!
//! # Example
//!
//! ```
//! use flowzip_trace::prelude::*;
//!
//! let pkt = PacketRecord::builder()
//!     .timestamp(Timestamp::from_micros(1_000_000))
//!     .src(Ipv4Addr::new(10, 0, 0, 1), 40321)
//!     .dst(Ipv4Addr::new(192, 168, 1, 9), 80)
//!     .flags(TcpFlags::SYN)
//!     .build();
//! assert!(pkt.flags().contains(TcpFlags::SYN));
//! assert_eq!(pkt.payload_len(), 0);
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod flags;
pub mod flow;
pub mod packet;
pub mod pcap;
pub mod reader;
pub mod time;
pub mod trace;
pub mod tsh;
pub mod tuple;
pub mod writer;

pub use error::TraceError;
pub use flags::TcpFlags;
pub use flow::{Flow, FlowDirection, FlowHash, FlowKey, FlowStats, FlowTable};
pub use packet::{PacketBuilder, PacketRecord};
pub use pcap::PcapReader;
pub use reader::{CaptureFormat, CaptureReader};
pub use time::{Duration, Timestamp};
pub use trace::Trace;
pub use tsh::TshReader;
pub use tuple::{FiveTuple, Protocol};
pub use writer::CaptureWriter;

/// Convenient glob-import surface for examples and downstream crates.
pub mod prelude {
    pub use crate::flags::TcpFlags;
    pub use crate::flow::{Flow, FlowDirection, FlowKey, FlowStats, FlowTable};
    pub use crate::packet::{PacketBuilder, PacketRecord};
    pub use crate::time::{Duration, Timestamp};
    pub use crate::trace::Trace;
    pub use crate::tuple::{FiveTuple, Protocol};
    pub use std::net::Ipv4Addr;
}
