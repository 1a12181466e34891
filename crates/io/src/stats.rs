//! Shared I/O counters: how long the pipeline *waited* on input, and how
//! many raw bytes it pulled off disk.
//!
//! Every [`InputSource`](crate::InputSource) hands out one [`IoStats`]
//! handle. The convention that makes read-wait vs. compute honest:
//!
//! * **No overlap** (plain file reads on the consuming thread): the
//!   blocking `read()` calls themselves are the wait —
//!   [`TimedRead`] times them.
//! * **Overlapped** (prefetch thread, multi-file reader threads): disk
//!   time runs concurrently with compute and must *not* count; only the
//!   moments the consumer actually blocks on the hand-off channel do.
//!
//! Either way, `read_wait` answers the ROADMAP question directly: how
//! much wall-clock the compute pipeline lost to input.

use flowzip_obs::{names, Counter, Gauge, Histogram, Metrics, DURATION_NS_BOUNDS};
use flowzip_trace::Duration;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Named-instrument mirror for a [`Metrics`] registry: once attached,
/// every increment tees into the registry alongside the local totals.
#[derive(Debug)]
struct Mirror {
    bytes: Counter,
    wait_ns: Counter,
    /// Per-stall distribution behind the counter total; only stalls
    /// after attachment land here (the pre-attach total cannot be
    /// redistributed into events).
    wait_hist: Histogram,
    batches: Counter,
    prefetch_occupancy: Gauge,
}

#[derive(Debug, Default)]
struct Counters {
    read_wait_nanos: AtomicU64,
    bytes_read: AtomicU64,
    batches: AtomicU64,
    mirror: OnceLock<Mirror>,
}

/// A cheap, cloneable handle onto one input pipeline's counters. Clones
/// share the same totals (reader threads add, the consumer reads).
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> IoStats {
        IoStats::default()
    }

    /// Mirrors these counters into a [`Metrics`] registry under the
    /// conventional `io.*` instrument names ([`names`]), folding in
    /// whatever was already recorded. A no-op for a disabled registry;
    /// at most one registry can be attached per stats handle (later
    /// calls are ignored) — the handle is shared across reader threads,
    /// and one input pipeline reports to one registry.
    pub fn attach_metrics(&self, metrics: &Metrics) {
        if !metrics.is_enabled() {
            return;
        }
        let mirror = Mirror {
            bytes: metrics.counter(names::IO_READER_BYTES),
            wait_ns: metrics.counter(names::IO_READ_WAIT_NS),
            wait_hist: metrics.histogram(names::IO_READ_WAIT_HIST_NS, DURATION_NS_BOUNDS),
            batches: metrics.counter(names::IO_READER_BATCHES),
            prefetch_occupancy: metrics.gauge(names::IO_PREFETCH_OCCUPANCY),
        };
        mirror.bytes.add(self.bytes_read());
        mirror
            .wait_ns
            .add(self.inner.read_wait_nanos.load(Ordering::Relaxed));
        mirror
            .batches
            .add(self.inner.batches.load(Ordering::Relaxed));
        let _ = self.inner.mirror.set(mirror);
    }

    /// Records time the consuming pipeline spent blocked on input.
    pub(crate) fn add_wait(&self, wait: std::time::Duration) {
        let ns = wait.as_nanos() as u64;
        self.inner.read_wait_nanos.fetch_add(ns, Ordering::Relaxed);
        if let Some(m) = self.inner.mirror.get() {
            m.wait_ns.add(ns);
            m.wait_hist.record(ns);
        }
    }

    /// Records raw bytes pulled from the underlying files.
    pub(crate) fn add_bytes(&self, n: u64) {
        self.inner.bytes_read.fetch_add(n, Ordering::Relaxed);
        if let Some(m) = self.inner.mirror.get() {
            m.bytes.add(n);
        }
    }

    /// Records one decoded batch handed over by a reader thread.
    pub(crate) fn add_batch(&self) {
        self.inner.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = self.inner.mirror.get() {
            m.batches.inc();
        }
    }

    /// Adjusts the prefetch-buffer occupancy gauge (`+1` when the I/O
    /// thread parks a chunk, `-1` when the consumer takes one). Only
    /// visible through an attached registry — there is no local total.
    pub(crate) fn prefetch_add(&self, delta: i64) {
        if let Some(m) = self.inner.mirror.get() {
            m.prefetch_occupancy.add(delta);
        }
    }

    /// Decoded batches reader threads handed over so far.
    pub fn batches(&self) -> u64 {
        self.inner.batches.load(Ordering::Relaxed)
    }

    /// Total time the pipeline spent waiting for input (microsecond
    /// granularity, the workspace time unit).
    pub fn read_wait(&self) -> Duration {
        Duration::from_micros(self.inner.read_wait_nanos.load(Ordering::Relaxed) / 1_000)
    }

    /// Total time waited, in seconds — what
    /// [`EngineReport`](../flowzip_engine/struct.EngineReport.html)-style
    /// consumers want.
    pub fn read_wait_secs(&self) -> f64 {
        self.inner.read_wait_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Raw bytes read from disk so far.
    pub fn bytes_read(&self) -> u64 {
        self.inner.bytes_read.load(Ordering::Relaxed)
    }
}

/// A [`Read`] adaptor that charges every underlying `read()` call to an
/// [`IoStats`] handle — both its duration (as read-wait) and its bytes.
/// Wrap the *innermost* reader (the `File`), beneath any `BufReader`, so
/// the timing cost lands once per buffer refill rather than once per
/// 44-byte record.
#[derive(Debug)]
pub struct TimedRead<R> {
    inner: R,
    stats: IoStats,
}

impl<R: Read> TimedRead<R> {
    /// Wraps `inner`, charging reads to `stats`.
    pub fn new(inner: R, stats: IoStats) -> TimedRead<R> {
        TimedRead { inner, stats }
    }
}

impl<R: Read> Read for TimedRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let t0 = Instant::now();
        let n = self.inner.read(buf)?;
        self.stats.add_wait(t0.elapsed());
        self.stats.add_bytes(n as u64);
        Ok(n)
    }
}

/// A [`Read`] adaptor that only counts bytes — for reader threads whose
/// disk time is overlapped with compute and must not show up as wait.
#[derive(Debug)]
pub(crate) struct CountingRead<R> {
    inner: R,
    stats: IoStats,
}

impl<R: Read> CountingRead<R> {
    /// Wraps `inner`, counting bytes into `stats`.
    pub(crate) fn new(inner: R, stats: IoStats) -> CountingRead<R> {
        CountingRead { inner, stats }
    }
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.stats.add_bytes(n as u64);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_read_counts_bytes_and_wait() {
        let stats = IoStats::new();
        let data = vec![7u8; 10_000];
        let mut r = TimedRead::new(&data[..], stats.clone());
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 10_000);
        assert_eq!(stats.bytes_read(), 10_000);
        // Wait is real but tiny for an in-memory source.
        assert!(stats.read_wait_secs() < 1.0);
    }

    #[test]
    fn counting_read_counts_bytes_only() {
        let stats = IoStats::new();
        let data = vec![1u8; 512];
        let mut r = CountingRead::new(&data[..], stats.clone());
        std::io::copy(&mut r, &mut std::io::sink()).unwrap();
        assert_eq!(stats.bytes_read(), 512);
        assert_eq!(stats.read_wait_secs(), 0.0);
    }

    #[test]
    fn clones_share_totals() {
        let a = IoStats::new();
        let b = a.clone();
        b.add_bytes(44);
        b.add_wait(std::time::Duration::from_millis(2));
        assert_eq!(a.bytes_read(), 44);
        assert!(a.read_wait() >= Duration::from_micros(2_000));
    }

    #[test]
    fn attach_metrics_folds_in_prior_totals_and_tees_new_ones() {
        let stats = IoStats::new();
        stats.add_bytes(100);
        stats.add_batch();
        let metrics = Metrics::enabled();
        stats.attach_metrics(&metrics);
        stats.add_bytes(25);
        stats.add_batch();
        stats.add_wait(std::time::Duration::from_micros(3));
        stats.prefetch_add(2);
        stats.prefetch_add(-1);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(names::IO_READER_BYTES), Some(125));
        assert_eq!(snap.counter(names::IO_READER_BATCHES), Some(2));
        assert!(snap.counter(names::IO_READ_WAIT_NS).unwrap() >= 3_000);
        // The per-stall histogram saw exactly the one post-attach wait.
        let hist = snap.histogram(names::IO_READ_WAIT_HIST_NS).unwrap();
        assert_eq!(hist.count, 1);
        assert!(hist.quantile(0.95).unwrap() >= 3_000);
        assert_eq!(snap.gauge(names::IO_PREFETCH_OCCUPANCY), Some(1));
        assert_eq!(stats.bytes_read(), 125);
        assert_eq!(stats.batches(), 2);
    }

    #[test]
    fn attach_metrics_is_a_noop_for_disabled_registry_and_first_wins() {
        let stats = IoStats::new();
        stats.attach_metrics(&Metrics::disabled());
        stats.prefetch_add(5); // no mirror: silently dropped
        let first = Metrics::enabled();
        let second = Metrics::enabled();
        stats.attach_metrics(&first);
        stats.attach_metrics(&second); // ignored: one registry per handle
        stats.add_bytes(10);
        assert_eq!(first.snapshot().counter(names::IO_READER_BYTES), Some(10));
        assert_eq!(second.snapshot().counter(names::IO_READER_BYTES), Some(0));
    }
}
