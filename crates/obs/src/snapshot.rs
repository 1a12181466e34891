//! Point-in-time metric dumps and the background sampler that emits
//! them live — the plumbing a `flowzip serve` daemon's stats endpoint
//! sits on, and what `flowzip compress --stats-interval SECS` prints.
//!
//! The JSON-lines schema (one object per line, pinned by tests):
//!
//! ```json
//! {"type":"flowzip.stats","seq":1,"elapsed_secs":1.002,
//!  "packets":123456,"packets_per_sec":123210,
//!  "active_flows":42,"evicted_flows":7,"queue_depth":[0,1,0,2],
//!  "counters":{"engine.packets":123456,…},
//!  "gauges":{"engine.shard.0.queue_depth":0,…},
//!  "histograms":{"engine.shard.0.accumulate_ns":{"count":120,"sum":8100200},…}}
//! ```
//!
//! The derived top-level fields (`packets`, `packets_per_sec`,
//! `active_flows`, `evicted_flows`, `queue_depth`) are convenience
//! views over the full dumps that follow them; `packets_per_sec` is the
//! rate since the previous snapshot. The [`Sampler`] baselines its first
//! interval at the moment it starts, so every emitted rate is strictly
//! window-relative — a registry that sat idle for an hour before
//! sampling began does not smear that hour into the first line.

use crate::json::JsonObject;
use crate::names;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bucket bounds (as registered).
    pub bounds: Vec<u64>,
    /// Counts per bound, plus the trailing overflow bucket.
    pub buckets: Vec<u64>,
    /// Total of recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Mean recorded value, or 0 with no observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile estimate from the fixed buckets (`0.5` = p50,
    /// `0.95` = p95): the inclusive upper bound of the bucket holding
    /// the target rank. `None` with no observations; ranks landing in
    /// the overflow bucket report the largest bound — a lower bound on
    /// the true quantile.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_from_buckets(&self.bounds, &self.buckets, q)
    }
}

/// Nearest-rank bucket quantile shared by the live
/// [`Histogram`](crate::Histogram) handle and [`HistogramSnapshot`]:
/// walk the cumulative counts to the bucket holding rank
/// `ceil(q · count)` and report its upper bound (overflow ranks report
/// the last bound).
pub(crate) fn quantile_from_buckets(bounds: &[u64], buckets: &[u64], q: f64) -> Option<u64> {
    let count: u64 = buckets.iter().sum();
    if count == 0 || bounds.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(bounds[i.min(bounds.len() - 1)]);
        }
    }
    Some(bounds[bounds.len() - 1])
}

/// One instrument's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge level.
    Gauge(i64),
    /// A histogram state.
    Histogram(HistogramSnapshot),
}

/// A point-in-time dump of every registered instrument (what
/// [`Metrics::snapshot`](crate::Metrics::snapshot) returns), sorted by
/// name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// 1-based snapshot number within the registry (0 = disabled).
    pub seq: u64,
    /// Seconds since the registry was created.
    pub elapsed_secs: f64,
    /// `(name, value)` pairs, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl StatsSnapshot {
    /// The empty snapshot a disabled registry returns.
    pub fn empty() -> StatsSnapshot {
        StatsSnapshot::default()
    }

    /// Whether the snapshot carries any instruments.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counter registered under `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// The gauge registered under `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    /// The histogram registered under `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram(h) if n == name => Some(h),
            _ => None,
        })
    }

    /// Per-shard queue depths in shard order (index parsed from the
    /// gauge name; missing shards read 0).
    pub fn queue_depths(&self) -> Vec<i64> {
        self.per_shard_gauges(names::QUEUE_DEPTH_SUFFIX)
    }

    /// Open flows summed across the per-shard active-flow gauges.
    pub fn active_flows(&self) -> i64 {
        self.per_shard_gauges(names::ACTIVE_FLOWS_SUFFIX)
            .iter()
            .sum()
    }

    fn per_shard_gauges(&self, suffix: &str) -> Vec<i64> {
        let mut out: Vec<i64> = Vec::new();
        for (name, value) in &self.entries {
            let (Some(idx), MetricValue::Gauge(g)) = (names::shard_index(name, suffix), value)
            else {
                continue;
            };
            if out.len() <= idx {
                out.resize(idx + 1, 0);
            }
            out[idx] = *g;
        }
        out
    }

    /// The packets-per-second rate between `prev` and this snapshot
    /// (from registry creation when `prev` is `None`).
    pub fn packets_per_sec(&self, prev: Option<&StatsSnapshot>) -> f64 {
        let packets = self.counter(names::ENGINE_PACKETS).unwrap_or(0);
        let (base_packets, base_secs) = prev.map_or((0, 0.0), |p| {
            (
                p.counter(names::ENGINE_PACKETS).unwrap_or(0),
                p.elapsed_secs,
            )
        });
        let dt = (self.elapsed_secs - base_secs).max(f64::EPSILON);
        packets.saturating_sub(base_packets) as f64 / dt
    }

    /// One JSON-lines record (no trailing newline): derived headline
    /// fields first, then the full counter/gauge/histogram dumps. The
    /// schema is pinned by tests — see the [module docs](self).
    pub(crate) fn to_json_line(&self, prev: Option<&StatsSnapshot>) -> String {
        let mut j = JsonObject::compact();
        j.str("type", "flowzip.stats");
        j.num("seq", self.seq);
        j.f6("elapsed_secs", self.elapsed_secs);
        j.num("packets", self.counter(names::ENGINE_PACKETS).unwrap_or(0));
        j.f0("packets_per_sec", self.packets_per_sec(prev));
        j.int("active_flows", self.active_flows());
        j.num(
            "evicted_flows",
            self.counter(names::ENGINE_EVICTED_FLOWS).unwrap_or(0),
        );
        let depths: Vec<String> = self.queue_depths().iter().map(i64::to_string).collect();
        j.raw("queue_depth", &format!("[{}]", depths.join(",")));
        j.raw(
            "counters",
            &self.dump(|v| match v {
                MetricValue::Counter(c) => Some(c.to_string()),
                _ => None,
            }),
        );
        j.raw(
            "gauges",
            &self.dump(|v| match v {
                MetricValue::Gauge(g) => Some(g.to_string()),
                _ => None,
            }),
        );
        j.raw(
            "histograms",
            &self.dump(|v| match v {
                MetricValue::Histogram(h) => {
                    Some(format!("{{\"count\":{},\"sum\":{}}}", h.count, h.sum))
                }
                _ => None,
            }),
        );
        j.finish()
    }

    /// The human one-liner variant of [`StatsSnapshot::to_json_line`].
    /// Ends with the p95 read-wait stall and p95 measured RTT (`-` until
    /// the respective histogram has observations).
    pub(crate) fn to_human_line(&self, prev: Option<&StatsSnapshot>) -> String {
        let depths: Vec<String> = self.queue_depths().iter().map(i64::to_string).collect();
        // Both histograms may be absent (no reader stalls yet, telemetry
        // off) — the field still prints so columns line up across lines.
        let p95_ms = |name: &str, per_ms: f64| {
            self.histogram(name)
                .and_then(|h| h.quantile(0.95))
                .map_or_else(
                    || "-".to_string(),
                    |v| format!("{:.1}ms", v as f64 / per_ms),
                )
        };
        format!(
            "[stats {:6.1}s] {:>10.0} pkt/s | packets {} | active {} | evicted {} | queues [{}] | p95 read-wait {} rtt {}",
            self.elapsed_secs,
            self.packets_per_sec(prev),
            self.counter(names::ENGINE_PACKETS).unwrap_or(0),
            self.active_flows(),
            self.counter(names::ENGINE_EVICTED_FLOWS).unwrap_or(0),
            depths.join(","),
            p95_ms(names::IO_READ_WAIT_HIST_NS, 1e6),
            p95_ms(names::TELEMETRY_RTT_US, 1e3),
        )
    }

    /// The full registry dump as one compact JSON object —
    /// `{"counters":{…},"gauges":{…},"histograms":{…}}` — what the
    /// unified pipeline report embeds under its `"metrics"` key.
    /// Histograms keep their full bucket layout here.
    pub fn to_json(&self) -> String {
        let mut j = JsonObject::compact();
        j.raw(
            "counters",
            &self.dump(|v| match v {
                MetricValue::Counter(c) => Some(c.to_string()),
                _ => None,
            }),
        );
        j.raw(
            "gauges",
            &self.dump(|v| match v {
                MetricValue::Gauge(g) => Some(g.to_string()),
                _ => None,
            }),
        );
        j.raw(
            "histograms",
            &self.dump(|v| match v {
                MetricValue::Histogram(h) => {
                    let bounds: Vec<String> = h.bounds.iter().map(u64::to_string).collect();
                    let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
                    Some(format!(
                        "{{\"count\":{},\"sum\":{},\"bounds\":[{}],\"buckets\":[{}]}}",
                        h.count,
                        h.sum,
                        bounds.join(","),
                        buckets.join(",")
                    ))
                }
                _ => None,
            }),
        );
        j.finish()
    }

    /// A compact `{"name":value,…}` object over the entries `select`
    /// maps to a raw JSON value.
    fn dump(&self, select: impl Fn(&MetricValue) -> Option<String>) -> String {
        let mut j = JsonObject::compact();
        for (name, value) in &self.entries {
            if let Some(v) = select(value) {
                j.raw(name, &v);
            }
        }
        j.finish()
    }
}

/// How the sampler formats each snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotFormat {
    /// One JSON object per line (the machine default).
    #[default]
    JsonLines,
    /// A fixed-width human one-liner.
    Human,
}

impl SnapshotFormat {
    /// Parses the CLI spelling (`json` | `human`).
    ///
    /// # Errors
    ///
    /// A descriptive message naming the accepted spellings.
    pub fn parse(name: &str) -> Result<SnapshotFormat, String> {
        match name {
            "json" | "jsonl" => Ok(SnapshotFormat::JsonLines),
            "human" => Ok(SnapshotFormat::Human),
            other => Err(format!(
                "unknown stats format `{other}` (want json or human)"
            )),
        }
    }
}

/// Where sampler output goes — a boxed writer with a `Debug` impl so
/// builders holding one can keep deriving `Debug`.
pub struct StatsSink(Box<dyn Write + Send>);

impl StatsSink {
    /// Wraps any writer.
    pub fn new(w: Box<dyn Write + Send>) -> StatsSink {
        StatsSink(w)
    }

    /// The default sink: standard error.
    pub fn stderr() -> StatsSink {
        StatsSink(Box::new(std::io::stderr()))
    }
}

impl std::fmt::Debug for StatsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StatsSink(..)")
    }
}

impl Write for StatsSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// Signals the sampler thread to stop without waiting out the interval.
#[derive(Default)]
struct StopFlag {
    stopped: Mutex<bool>,
    wake: Condvar,
}

/// A background thread emitting one snapshot per interval, plus a final
/// one at stop — so even a run shorter than the interval produces at
/// least one line. Stops (and joins) on [`Sampler::stop`] or drop.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<StopFlag>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for StopFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StopFlag")
    }
}

impl Sampler {
    /// Starts sampling `metrics` every `interval` into `out`. A
    /// disabled `metrics` handle starts nothing (there would be nothing
    /// to report).
    pub fn start(
        metrics: &crate::Metrics,
        interval: Duration,
        format: SnapshotFormat,
        mut out: StatsSink,
    ) -> Sampler {
        let stop = Arc::new(StopFlag::default());
        if !metrics.is_enabled() {
            return Sampler { stop, handle: None };
        }
        let metrics = metrics.clone();
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            // Baseline the first interval at sampler start (seq-neutral
            // via `peek`), so the first emitted `packets_per_sec` covers
            // exactly the first sampling window — not everything since
            // the registry was created. A long-lived daemon registry can
            // be hours old before sampling starts.
            let mut prev: Option<StatsSnapshot> = Some(metrics.peek());
            let emit = |out: &mut StatsSink, snap: &StatsSnapshot, prev: Option<&StatsSnapshot>| {
                let line = match format {
                    SnapshotFormat::JsonLines => snap.to_json_line(prev),
                    SnapshotFormat::Human => snap.to_human_line(prev),
                };
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
            };
            loop {
                let stopped = {
                    let guard = flag.stopped.lock().unwrap_or_else(|e| e.into_inner());
                    let (guard, _) = flag
                        .wake
                        .wait_timeout_while(guard, interval, |stopped| !*stopped)
                        .unwrap_or_else(|e| e.into_inner());
                    *guard
                };
                let snap = metrics.snapshot();
                emit(&mut out, &snap, prev.as_ref());
                if stopped {
                    return;
                }
                prev = Some(snap);
            }
        });
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the sampler, emitting one final snapshot, and joins the
    /// thread. Dropping does the same.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        {
            let mut stopped = self.stop.stopped.lock().unwrap_or_else(|e| e.into_inner());
            *stopped = true;
        }
        self.stop.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_valid_json;
    use crate::Metrics;

    /// A clonable in-memory sink tests can read back.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        pub(crate) fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn populated_metrics() -> Metrics {
        let m = Metrics::enabled();
        m.counter(names::ENGINE_PACKETS).add(5_000);
        m.counter(names::ENGINE_EVICTED_FLOWS).add(7);
        m.gauge(&names::shard_queue_depth(0)).set(2);
        m.gauge(&names::shard_queue_depth(1)).set(0);
        m.gauge(&names::shard_active_flows(0)).set(11);
        m.gauge(&names::shard_active_flows(1)).set(31);
        m.histogram(&names::shard_accumulate_ns(0), &[1_000, 1_000_000])
            .record(500);
        m
    }

    #[test]
    fn snapshot_lookups_and_derived_views() {
        let snap = populated_metrics().snapshot();
        assert_eq!(snap.counter(names::ENGINE_PACKETS), Some(5_000));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge(&names::shard_queue_depth(0)), Some(2));
        assert_eq!(snap.queue_depths(), vec![2, 0]);
        assert_eq!(snap.active_flows(), 42);
        let h = snap.histogram(&names::shard_accumulate_ns(0)).unwrap();
        assert_eq!((h.count, h.sum), (1, 500));
        assert!((h.mean() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn json_line_schema_is_pinned() {
        let snap = populated_metrics().snapshot();
        let line = snap.to_json_line(None);
        assert!(is_valid_json(&line), "{line}");
        assert!(!line.contains('\n'));
        // The headline fields the live-stats contract promises.
        assert!(line.starts_with(r#"{"type":"flowzip.stats","seq":1,"elapsed_secs":"#));
        for needle in [
            r#""packets":5000"#,
            r#""packets_per_sec":"#,
            r#""active_flows":42"#,
            r#""evicted_flows":7"#,
            r#""queue_depth":[2,0]"#,
            r#""counters":{"#,
            r#""gauges":{"#,
            r#""histograms":{"engine.shard.0.accumulate_ns":{"count":1,"sum":500}}"#,
            r#""engine.packets":5000"#,
            r#""engine.shard.0.queue_depth":2"#,
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }

    #[test]
    fn rate_is_computed_against_the_previous_snapshot() {
        let m = Metrics::enabled();
        let c = m.counter(names::ENGINE_PACKETS);
        c.add(100);
        let mut first = m.snapshot();
        c.add(400);
        let mut second = m.snapshot();
        // Pin elapsed times so the rate is deterministic.
        first.elapsed_secs = 1.0;
        second.elapsed_secs = 3.0;
        assert!((second.packets_per_sec(Some(&first)) - 200.0).abs() < 1e-9);
        assert!((first.packets_per_sec(None) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn human_line_mentions_the_headlines() {
        let line = populated_metrics().snapshot().to_human_line(None);
        assert!(line.contains("pkt/s"));
        assert!(line.contains("active 42"));
        assert!(line.contains("evicted 7"));
        assert!(line.contains("queues [2,0]"));
        // Neither p95 histogram is populated here, so both show the
        // placeholder.
        assert!(line.contains("p95 read-wait - rtt -"), "{line}");
    }

    #[test]
    fn human_line_reports_p95_read_wait_and_rtt() {
        let m = populated_metrics();
        let wait = m.histogram(names::IO_READ_WAIT_HIST_NS, crate::DURATION_NS_BOUNDS);
        for _ in 0..99 {
            wait.record(500_000); // ≤ 1 ms
        }
        wait.record(80_000_000); // one 80 ms stall: the p99, not the p95
        let rtt = m.histogram(names::TELEMETRY_RTT_US, crate::metrics::RTT_US_BOUNDS);
        for _ in 0..20 {
            rtt.record(70_000); // ≤ 100 ms bucket
        }
        let line = m.snapshot().to_human_line(None);
        assert!(line.contains("p95 read-wait 1.0ms rtt 100.0ms"), "{line}");
    }

    #[test]
    fn bucket_quantiles_walk_the_cumulative_counts() {
        let h = HistogramSnapshot {
            bounds: vec![10, 100, 1_000],
            buckets: vec![50, 40, 9, 1], // 100 observations + 1 overflow slot
            sum: 0,
            count: 100,
        };
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(0.5), Some(10));
        assert_eq!(h.quantile(0.9), Some(100));
        assert_eq!(h.quantile(0.95), Some(1_000));
        // Overflow ranks clamp to the last bound.
        assert_eq!(h.quantile(1.0), Some(1_000));
        let empty = HistogramSnapshot {
            bounds: vec![10],
            buckets: vec![0, 0],
            sum: 0,
            count: 0,
        };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn live_handle_quantile_matches_snapshot() {
        let m = Metrics::enabled();
        let h = m.histogram("q", &[100, 1_000]);
        for v in [50, 60, 70, 500, 2_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(100));
        assert_eq!(h.quantile(0.95), Some(1_000));
        assert_eq!(
            m.snapshot().histogram("q").unwrap().quantile(0.5),
            Some(100)
        );
        assert_eq!(crate::Histogram::disabled().quantile(0.5), None);
    }

    #[test]
    fn full_dump_keeps_histogram_buckets() {
        let dump = populated_metrics().snapshot().to_json();
        assert!(is_valid_json(&dump), "{dump}");
        assert!(dump.contains(r#""bounds":[1000,1000000]"#), "{dump}");
        assert!(dump.contains(r#""buckets":[1,0,0]"#), "{dump}");
    }

    #[test]
    fn empty_snapshot_serializes_cleanly() {
        let snap = StatsSnapshot::empty();
        assert!(snap.is_empty());
        let line = snap.to_json_line(None);
        assert!(is_valid_json(&line), "{line}");
        assert!(line.contains(r#""queue_depth":[]"#));
    }

    #[test]
    fn sampler_emits_a_final_snapshot_even_on_short_runs() {
        let m = populated_metrics();
        let buf = SharedBuf::default();
        let sampler = Sampler::start(
            &m,
            Duration::from_secs(3600),
            SnapshotFormat::JsonLines,
            StatsSink::new(Box::new(buf.clone())),
        );
        sampler.stop();
        let out = buf.contents();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "exactly the final snapshot: {out}");
        assert!(is_valid_json(lines[0]), "{out}");
    }

    #[test]
    fn first_sampler_line_rates_against_sampler_start_not_registry_creation() {
        // A registry that did heavy work *before* sampling started: the
        // first emitted line must not smear those packets over the
        // pre-sampler elapsed time.
        let m = Metrics::enabled();
        m.counter(names::ENGINE_PACKETS).add(1_000_000);
        std::thread::sleep(Duration::from_millis(20));
        let buf = SharedBuf::default();
        let sampler = Sampler::start(
            &m,
            Duration::from_secs(3600),
            SnapshotFormat::JsonLines,
            StatsSink::new(Box::new(buf.clone())),
        );
        sampler.stop();
        let out = buf.contents();
        let line = out.lines().next().unwrap();
        // No packets arrived inside the sampling window, so the
        // window-relative rate is exactly 0 (the old since-creation rate
        // would have been tens of millions per second).
        assert!(line.contains(r#""packets_per_sec":0,"#), "{line}");
        // The baseline peek is sequence-neutral: the first *emitted*
        // snapshot still carries seq 1, pinning the JSON-lines schema.
        assert!(line.contains(r#""seq":1,"#), "{line}");
    }

    #[test]
    fn peek_reads_without_advancing_the_snapshot_sequence() {
        let m = populated_metrics();
        let peeked = m.peek();
        assert_eq!(peeked.seq, 0, "no snapshot taken yet");
        assert_eq!(peeked.counter(names::ENGINE_PACKETS), Some(5_000));
        assert_eq!(m.snapshot().seq, 1, "peek did not consume seq 1");
        assert_eq!(m.peek().seq, 1, "peek reports the latest seq");
        assert_eq!(m.snapshot().seq, 2);
        assert!(Metrics::disabled().peek().is_empty());
    }

    #[test]
    fn sampler_emits_periodically() {
        let m = populated_metrics();
        let buf = SharedBuf::default();
        let sampler = Sampler::start(
            &m,
            Duration::from_millis(20),
            SnapshotFormat::JsonLines,
            StatsSink::new(Box::new(buf.clone())),
        );
        std::thread::sleep(Duration::from_millis(120));
        sampler.stop();
        let out = buf.contents();
        assert!(out.lines().count() >= 2, "{out}");
        for line in out.lines() {
            assert!(is_valid_json(line), "{line}");
        }
    }

    #[test]
    fn sampler_on_disabled_metrics_is_inert() {
        let buf = SharedBuf::default();
        let sampler = Sampler::start(
            &Metrics::disabled(),
            Duration::from_millis(1),
            SnapshotFormat::JsonLines,
            StatsSink::new(Box::new(buf.clone())),
        );
        std::thread::sleep(Duration::from_millis(10));
        sampler.stop();
        assert!(buf.contents().is_empty());
    }
}
