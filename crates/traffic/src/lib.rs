//! Synthetic packet-trace generators.
//!
//! The paper evaluates on RedIRIS/NLANR captures that are not
//! redistributable, so this crate generates the four trace families §6
//! compares, with the same marginal statistics the paper reports:
//!
//! * [`web::WebTrafficGenerator`] — the "Original trace" substitute:
//!   scripted HTTP/TCP conversations (three-way handshake, request,
//!   response segments, teardown) with a heavy-tailed flow-size mixture
//!   calibrated to §3's "98% of flows shorter than 51 packets, carrying
//!   75% of packets and 80% of bytes", lognormal RTTs and a Zipf server
//!   pool;
//! * [`variants::randomize_destinations`] — the "random" trace: same
//!   packets and timing, destinations replaced uniformly at random;
//! * [`variants::fractal_trace`] — the "fracexp" trace: destinations from
//!   a multiplicative (fractal) process replayed through an LRU stack
//!   model with exponential inter-packet times;
//! * [`dist`] — the shared samplers (Pareto-tail mixture, lognormal,
//!   exponential, Zipf).
//!
//! Everything is seeded and deterministic.
//!
//! # Example
//!
//! ```
//! use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
//!
//! let trace = WebTrafficGenerator::new(WebTrafficConfig {
//!     flows: 100,
//!     ..WebTrafficConfig::default()
//! }, 42).generate();
//! assert!(trace.len() > 500);
//! assert!(trace.is_time_ordered());
//! ```

pub mod address;
pub mod anon;
pub mod dist;
pub mod p2p;
pub mod variants;
pub mod web;

pub use anon::Anonymizer;
pub use p2p::{P2pTrafficConfig, P2pTrafficGenerator};
pub use variants::{
    fractal_trace, randomize_destinations, randomize_destinations_consistent, FractalTraceConfig,
};
pub use web::{WebTrafficConfig, WebTrafficGenerator};
