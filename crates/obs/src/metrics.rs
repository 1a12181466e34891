//! The lock-free metrics registry: named atomic counters, gauges and
//! fixed-bucket histograms behind cheap-clone handles.
//!
//! Registration takes a mutex once per instrument *name*; every
//! recording after that is a relaxed atomic on a shared cell. A
//! disabled [`Metrics`] handle hands out instruments whose inner `Arc`
//! is `None`, so the instrumented hot path pays one branch and no
//! allocation — the enum-dispatch no-op recorder the whole layer's
//! "near-zero cost when off" promise rests on.

use crate::snapshot::{HistogramSnapshot, MetricValue, StatsSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bucket upper bounds (inclusive, in nanoseconds) for duration
/// histograms: 1 µs, 10 µs, 100 µs, 1 ms, 10 ms, 100 ms, 1 s. Values
/// above the last bound land in the overflow bucket.
pub const DURATION_NS_BOUNDS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Bucket upper bounds (inclusive, in microseconds) for RTT histograms:
/// a 1–3–10 ladder from 1 ms to 3 s. Values above the last bound land
/// in the overflow bucket.
pub const RTT_US_BOUNDS: &[u64] = &[
    1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000,
];

#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

impl CounterCell {
    /// Saturating add: a counter that hits `u64::MAX` pins there instead
    /// of wrapping back to a small number mid-run.
    fn add(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicI64,
}

impl GaugeCell {
    fn add(&self, n: i64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// One count per bound plus a trailing overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: &[u64]) -> HistogramCell {
        HistogramCell {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(value))
            });
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// What one registered name resolves to.
#[derive(Debug, Clone)]
enum Cell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Registry {
    started: Instant,
    instruments: Mutex<BTreeMap<String, Cell>>,
    snapshot_seq: AtomicU64,
}

/// A monotonically increasing event count. Cheap to clone; clones share
/// the cell. All arithmetic saturates.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// A no-op counter (what a disabled [`Metrics`] hands out).
    pub fn disabled() -> Counter {
        Counter::default()
    }

    /// Whether recording actually lands anywhere.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating at `u64::MAX`).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.add(n);
        }
    }

    /// Current total (0 for a disabled handle).
    pub fn value(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// A signed level that goes up and down — queue depths, buffer
/// occupancy, open-flow counts. All arithmetic saturates.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// A no-op gauge (what a disabled [`Metrics`] hands out).
    pub fn disabled() -> Gauge {
        Gauge::default()
    }

    /// Whether recording actually lands anywhere.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Adds `n` (may be negative; saturating).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(cell) = &self.cell {
            cell.add(n);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.cell {
            cell.value.store(value, Ordering::Relaxed);
        }
    }

    /// Current level (0 for a disabled handle).
    pub fn value(&self) -> i64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: values land in the first bucket whose
/// inclusive upper bound holds them, or the trailing overflow bucket.
/// Bounds are fixed at registration, so recording is lock-free.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// A no-op histogram (what a disabled [`Metrics`] hands out).
    pub fn disabled() -> Histogram {
        Histogram::default()
    }

    /// Whether recording actually lands anywhere.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.record(value);
        }
    }

    /// Starts timing an interval: `None` when disabled, so the no-op
    /// path never calls `Instant::now()`.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.cell.as_ref().map(|_| Instant::now())
    }

    /// Total of all recorded values (0 for a disabled handle).
    pub fn sum(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }

    /// Number of recorded values (0 for a disabled handle).
    pub fn count(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// The `q`-quantile estimate from the fixed buckets (`0.5` = p50,
    /// `0.95` = p95): the inclusive upper bound of the bucket holding
    /// the target rank. `None` when disabled or empty; ranks in the
    /// overflow bucket report the largest bound — a lower bound on the
    /// true quantile, since values past it are unbounded.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let cell = self.cell.as_ref()?;
        let buckets: Vec<u64> = cell
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        crate::snapshot::quantile_from_buckets(&cell.bounds, &buckets, q)
    }
}

/// The registry handle instrumented code carries: cheap to clone,
/// either *enabled* (clones share one registry) or *disabled* (hands
/// out no-op instruments). Two handles compare equal when both are
/// disabled or both point at the same registry.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    registry: Option<Arc<Registry>>,
}

impl Metrics {
    /// A fresh, enabled registry.
    pub fn enabled() -> Metrics {
        Metrics {
            registry: Some(Arc::new(Registry {
                started: Instant::now(),
                instruments: Mutex::new(BTreeMap::new()),
                snapshot_seq: AtomicU64::new(0),
            })),
        }
    }

    /// The no-op handle: every instrument it hands out records nowhere.
    pub fn disabled() -> Metrics {
        Metrics::default()
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The counter registered under `name`, registering it on first
    /// use. Idempotent: every call with the same name returns a handle
    /// onto the same cell.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different instrument kind
    /// — a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(reg) = &self.registry else {
            return Counter::disabled();
        };
        let mut map = reg.instruments.lock().unwrap_or_else(|e| e.into_inner());
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Cell::Counter(Arc::new(CounterCell::default())));
        match cell {
            Cell::Counter(c) => Counter {
                cell: Some(Arc::clone(c)),
            },
            other => panic!(
                "metric `{name}` already registered as a {}, not a counter",
                other.kind()
            ),
        }
    }

    /// The gauge registered under `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(reg) = &self.registry else {
            return Gauge::disabled();
        };
        let mut map = reg.instruments.lock().unwrap_or_else(|e| e.into_inner());
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Cell::Gauge(Arc::new(GaugeCell::default())));
        match cell {
            Cell::Gauge(g) => Gauge {
                cell: Some(Arc::clone(g)),
            },
            other => panic!(
                "metric `{name}` already registered as a {}, not a gauge",
                other.kind()
            ),
        }
    }

    /// The histogram registered under `name`, registering it with
    /// `bounds` (inclusive upper bucket bounds, strictly increasing) on
    /// first use. Later calls keep the first registration's bounds.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let Some(reg) = &self.registry else {
            return Histogram::disabled();
        };
        let mut map = reg.instruments.lock().unwrap_or_else(|e| e.into_inner());
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Cell::Histogram(Arc::new(HistogramCell::new(bounds))));
        match cell {
            Cell::Histogram(h) => Histogram {
                cell: Some(Arc::clone(h)),
            },
            other => panic!(
                "metric `{name}` already registered as a {}, not a histogram",
                other.kind()
            ),
        }
    }

    /// A point-in-time dump of every registered instrument, sorted by
    /// name. Empty (seq 0, elapsed 0) for a disabled handle.
    pub fn snapshot(&self) -> StatsSnapshot {
        let Some(reg) = &self.registry else {
            return StatsSnapshot::empty();
        };
        let seq = reg.snapshot_seq.fetch_add(1, Ordering::Relaxed) + 1;
        Metrics::dump(reg, seq)
    }

    /// [`Metrics::snapshot`] without advancing the snapshot sequence —
    /// for internal baselines (the [`Sampler`](crate::Sampler) takes one
    /// at start so its first emitted rate is window-relative) that must
    /// not perturb the `seq` numbering consumers see.
    pub fn peek(&self) -> StatsSnapshot {
        let Some(reg) = &self.registry else {
            return StatsSnapshot::empty();
        };
        let seq = reg.snapshot_seq.load(Ordering::Relaxed);
        Metrics::dump(reg, seq)
    }

    fn dump(reg: &Registry, seq: u64) -> StatsSnapshot {
        let elapsed_secs = reg.started.elapsed().as_secs_f64();
        let map = reg.instruments.lock().unwrap_or_else(|e| e.into_inner());
        let entries = map
            .iter()
            .map(|(name, cell)| {
                let value = match cell {
                    Cell::Counter(c) => MetricValue::Counter(c.value.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => MetricValue::Gauge(g.value.load(Ordering::Relaxed)),
                    Cell::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                        bounds: h.bounds.clone(),
                        buckets: h
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        sum: h.sum.load(Ordering::Relaxed),
                        count: h.count.load(Ordering::Relaxed),
                    }),
                };
                (name.clone(), value)
            })
            .collect();
        StatsSnapshot {
            seq,
            elapsed_secs,
            entries,
        }
    }
}

impl PartialEq for Metrics {
    fn eq(&self, other: &Metrics) -> bool {
        match (&self.registry, &other.registry) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn disabled_handles_are_inert_and_free_of_state() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        let c = m.counter("x");
        let g = m.gauge("y");
        let h = m.histogram("z", DURATION_NS_BOUNDS);
        assert!(!c.is_enabled() && !g.is_enabled() && !h.is_enabled());
        c.add(5);
        g.set(9);
        h.record(100);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!((h.sum(), h.count()), (0, 0));
        assert!(h.start().is_none(), "no Instant::now() when disabled");
        let snap = m.snapshot();
        assert_eq!(snap.seq, 0);
        assert!(snap.entries.is_empty());
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let m = Metrics::enabled();
        let c = m.counter("sat");
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.value(), u64::MAX);
        c.inc();
        assert_eq!(c.value(), u64::MAX);
    }

    #[test]
    fn gauge_saturates_at_both_ends() {
        let m = Metrics::enabled();
        let g = m.gauge("sat");
        g.set(i64::MAX - 1);
        g.add(10);
        assert_eq!(g.value(), i64::MAX);
        g.set(i64::MIN + 1);
        g.add(-10);
        assert_eq!(g.value(), i64::MIN);
    }

    #[test]
    fn clones_share_cells_and_names_are_idempotent() {
        let m = Metrics::enabled();
        let a = m.counter("shared");
        let b = m.counter("shared");
        let c = a.clone();
        a.inc();
        b.inc();
        c.add(3);
        assert_eq!(m.counter("shared").value(), 5);

        let g1 = m.gauge("depth");
        let g2 = m.gauge("depth");
        g1.inc();
        g1.inc();
        g2.dec();
        assert_eq!(g1.value(), 1);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let m = Metrics::enabled();
        let c = m.counter("hot");
        let g = m.gauge("warm");
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let g = g.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                        g.inc();
                        g.dec();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
        assert_eq!(g.value(), 0, "balanced inc/dec cancels exactly");
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let m = Metrics::enabled();
        let h = m.histogram("lat", &[10, 100]);
        for v in [0, 10, 11, 100, 101, 5_000] {
            h.record(v);
        }
        let snap = m.snapshot();
        let MetricValue::Histogram(hs) = &snap.entries[0].1 else {
            panic!("expected histogram");
        };
        // ≤10 → bucket 0; 11..=100 → bucket 1; >100 → overflow.
        assert_eq!(hs.buckets, vec![2, 2, 2]);
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 5_222);
        assert_eq!(hs.bounds, vec![10, 100]);
    }

    #[test]
    fn histogram_sum_saturates() {
        let m = Metrics::enabled();
        let h = m.histogram("big", &[1]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics_with_the_name() {
        let m = Metrics::enabled();
        let _ = m.counter("dual");
        let _ = m.gauge("dual");
    }

    #[test]
    fn snapshot_sequence_and_elapsed_advance() {
        let m = Metrics::enabled();
        m.counter("a").inc();
        let s1 = m.snapshot();
        let s2 = m.snapshot();
        assert_eq!(s1.seq, 1);
        assert_eq!(s2.seq, 2);
        assert!(s2.elapsed_secs >= s1.elapsed_secs);
    }

    #[test]
    fn equality_is_registry_identity() {
        let a = Metrics::enabled();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, Metrics::enabled());
        assert_eq!(Metrics::disabled(), Metrics::disabled());
        assert_ne!(a, Metrics::disabled());
    }
}
