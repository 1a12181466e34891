//! Session internals: the ingest thread feeding a bounded batch queue,
//! the [`WindowSource`] that presents exactly one rotation window of
//! that queue to the engine as a packet iterator, and the driver loop
//! that runs one engine drain per window and appends to the manifest.
//!
//! ```text
//!            ingest thread                 driver thread (one engine run per window)
//! ServeSource ──▶ batches ──▶ bounded ──▶ WindowSource ──▶ StreamingEngine ──▶ archive N
//!   (stdin, socket,            queue       (budget /          (drain cut)       + manifest line
//!    watch dir, iter)       (drop|block)    deadline /
//!                                           stop flag)
//! ```
//!
//! The rotation **cut is the engine's end-of-input drain**: when a
//! window's packet budget or wall-clock deadline is reached, the
//! `WindowSource` simply reports end-of-stream, the engine finalizes
//! every open flow exactly as it would at the end of a file, and the
//! window's archive comes out complete and independently decodable —
//! metadata, telemetry and all. A flow straddling the boundary is
//! finalized into the closing window; its later packets open a fresh
//! flow in the next. Undelivered remainder of a split batch carries over
//! to the next window, so no packet is lost or duplicated by rotation.

use crate::manifest::{archive_name, ManifestWriter};
use crate::source::{drain, ServeSource};
use crate::{CloseReason, OverloadPolicy, ServeError, ServeReport, WindowSummary};
use flowzip_engine::StreamingEngine;
use flowzip_obs::{names, Counter, Gauge, Sampler};
use flowzip_pipeline::{PartFile, Report};
use flowzip_trace::{PacketRecord, TraceError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// How often a blocked window pull wakes to refresh gauges and check
/// the deadline/stop flag.
const TICK: Duration = Duration::from_millis(200);

/// After the stop flag flips, how long the window keeps polling an
/// already-quiet queue before closing — long enough for a live ingest
/// thread to flush what it holds, short enough that an ingest blocked
/// forever in `read(2)` cannot stall shutdown.
const STOP_GRACE: Duration = Duration::from_millis(150);

/// Shared counters the ingest thread and the driver both touch.
pub(crate) struct Shared {
    pub(crate) stop: Arc<AtomicBool>,
    /// Packets the source produced (decoded), dropped or not.
    pub(crate) produced: Arc<AtomicU64>,
    /// Packets dropped by overload policy, total.
    pub(crate) dropped: Arc<AtomicU64>,
    /// Batches currently queued (approximate; feeds the gauge).
    pub(crate) queued: Arc<AtomicU64>,
    /// Terminal source error, recorded before the ingest thread exits.
    pub(crate) source_error: Arc<Mutex<Option<String>>>,
}

impl Shared {
    pub(crate) fn new(stop: Arc<AtomicBool>) -> Shared {
        Shared {
            stop,
            produced: Arc::new(AtomicU64::new(0)),
            dropped: Arc::new(AtomicU64::new(0)),
            queued: Arc::new(AtomicU64::new(0)),
            source_error: Arc::new(Mutex::new(None)),
        }
    }
}

/// The ingest half: drains the [`ServeSource`] into `batch_size`-packet
/// batches and delivers them to the bounded queue under the configured
/// [`OverloadPolicy`]. Runs on its own thread; exiting drops the sender,
/// which the window loop observes as end of stream.
pub(crate) fn run_ingest(
    source: ServeSource,
    tx: SyncSender<Vec<PacketRecord>>,
    batch_size: usize,
    overload: OverloadPolicy,
    shared: &Shared,
    dropped_counter: Counter,
    queue_gauge: Gauge,
) {
    let mut batch: Vec<PacketRecord> = Vec::with_capacity(batch_size);
    let deliver = |batch: Vec<PacketRecord>| -> bool {
        let n = batch.len() as u64;
        // Gauge up before the hand-off so the consumer's decrement can
        // never observe a depth of zero while an item is in flight.
        shared.queued.fetch_add(1, Ordering::Relaxed);
        queue_gauge.inc();
        let undeliverable = match overload {
            OverloadPolicy::Block => tx.send(batch).is_err(),
            OverloadPolicy::Drop => match tx.try_send(batch) {
                Ok(()) => false,
                Err(TrySendError::Full(_)) => {
                    shared.dropped.fetch_add(n, Ordering::Relaxed);
                    dropped_counter.add(n);
                    shared.queued.fetch_sub(1, Ordering::Relaxed);
                    queue_gauge.dec();
                    return true; // dropped, but keep ingesting
                }
                Err(TrySendError::Disconnected(_)) => true,
            },
        };
        if undeliverable {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            queue_gauge.dec();
        }
        !undeliverable
    };

    let mut alive = true;
    let result = {
        let produced = &shared.produced;
        let batch_ref = &mut batch;
        drain(source, &shared.stop, &mut |p| {
            produced.fetch_add(1, Ordering::Relaxed);
            batch_ref.push(p);
            if batch_ref.len() >= batch_size {
                let full = std::mem::replace(batch_ref, Vec::with_capacity(batch_size));
                alive = deliver(full);
            }
            alive
        })
    };
    if alive && !batch.is_empty() {
        deliver(batch);
    }
    if let Err(e) = result {
        *shared.source_error.lock().unwrap() = Some(e.to_string());
    }
    // Dropping `tx` here is the end-of-stream signal.
}

/// One rotation window of the shared batch queue, presented to the
/// engine as a finite packet iterator: end-of-stream is whichever comes
/// first of the packet budget, the wall-clock deadline, the stop flag,
/// or the real end of input. The window takes packets a batch at a time
/// (split exactly at the budget) and yields them one by one; split-batch
/// remainders persist in `carry` across windows.
pub(crate) struct WindowSource<'a> {
    rx: &'a mut Receiver<Vec<PacketRecord>>,
    carry: &'a mut Vec<PacketRecord>,
    shared: &'a Shared,
    budget: Option<u64>,
    deadline: Option<Instant>,
    opened: Instant,
    age_gauge: &'a Gauge,
    queue_gauge: &'a Gauge,
    pub(crate) taken: u64,
    pub(crate) first_ts_us: Option<u64>,
    pub(crate) last_ts_us: Option<u64>,
    pub(crate) reason: CloseReason,
    closed: bool,
    /// The batch being yielded — already charged to the window.
    batch: std::vec::IntoIter<PacketRecord>,
}

impl<'a> WindowSource<'a> {
    pub(crate) fn new(
        rx: &'a mut Receiver<Vec<PacketRecord>>,
        carry: &'a mut Vec<PacketRecord>,
        shared: &'a Shared,
        rotate_packets: Option<u64>,
        rotate_every: Option<Duration>,
        age_gauge: &'a Gauge,
        queue_gauge: &'a Gauge,
    ) -> WindowSource<'a> {
        let opened = Instant::now();
        WindowSource {
            rx,
            carry,
            shared,
            budget: rotate_packets,
            deadline: rotate_every.map(|d| opened + d),
            opened,
            age_gauge,
            queue_gauge,
            taken: 0,
            first_ts_us: None,
            last_ts_us: None,
            reason: CloseReason::Eof,
            closed: false,
            batch: Vec::new().into_iter(),
        }
    }

    fn close(&mut self, reason: CloseReason) {
        self.reason = reason;
        self.closed = true;
    }

    /// Yields from `carry`, splitting it exactly at the packet budget.
    fn take_carry(&mut self) -> Vec<PacketRecord> {
        let out = match self.budget {
            Some(b) if (b as usize) < self.carry.len() => {
                let rest = self.carry.split_off(b as usize);
                std::mem::replace(self.carry, rest)
            }
            _ => std::mem::take(self.carry),
        };
        if let Some(b) = &mut self.budget {
            *b -= out.len() as u64;
        }
        self.taken += out.len() as u64;
        if let Some(first) = out.first() {
            let us = first.timestamp().as_micros();
            self.first_ts_us = Some(self.first_ts_us.map_or(us, |f| f.min(us)));
        }
        if let Some(last) = out.last() {
            let us = last.timestamp().as_micros();
            self.last_ts_us = Some(self.last_ts_us.map_or(us, |l| l.max(us)));
        }
        out
    }

    /// The window's next batch, `None` once the window closed.
    fn next_batch(&mut self) -> Option<Vec<PacketRecord>> {
        if self.closed {
            return None;
        }
        let mut quiet_since: Option<Instant> = None;
        loop {
            if self.budget == Some(0) {
                self.close(CloseReason::Packets);
                return None;
            }
            if !self.carry.is_empty() {
                return Some(self.take_carry());
            }
            let now = Instant::now();
            self.age_gauge
                .set((now - self.opened).as_secs().min(i64::MAX as u64) as i64);
            let stopping = self.shared.stop.load(Ordering::Relaxed);
            if !stopping {
                if let Some(dl) = self.deadline {
                    if now >= dl {
                        self.close(CloseReason::Time);
                        return None;
                    }
                }
            }
            // While stopping, drain whatever the ingest thread already
            // queued (the accounting identity needs those packets in an
            // archive), closing after a short quiet period in case the
            // ingest thread is wedged in a blocking read.
            let timeout = if stopping {
                STOP_GRACE
            } else {
                match self.deadline {
                    Some(dl) => TICK.min(dl - now),
                    None => TICK,
                }
            };
            match self.rx.recv_timeout(timeout) {
                Ok(batch) => {
                    self.shared.queued.fetch_sub(1, Ordering::Relaxed);
                    self.queue_gauge.dec();
                    *self.carry = batch;
                    quiet_since = None;
                }
                Err(RecvTimeoutError::Timeout) => {
                    if stopping {
                        match quiet_since {
                            Some(t) if t.elapsed() >= STOP_GRACE => {
                                self.close(CloseReason::Signal);
                                return None;
                            }
                            Some(_) => {}
                            None => quiet_since = Some(Instant::now()),
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // Re-read the flag: a stop raised after this
                    // iteration sampled `stopping` still makes the
                    // ingest thread hang up, and that hangup must read
                    // as a shutdown, not as the source ending.
                    let reason = if self.shared.source_error.lock().unwrap().is_some() {
                        CloseReason::SourceError
                    } else if stopping || self.shared.stop.load(Ordering::Relaxed) {
                        CloseReason::Signal
                    } else {
                        CloseReason::Eof
                    };
                    self.close(reason);
                    return None;
                }
            }
        }
    }
}

impl Iterator for WindowSource<'_> {
    type Item = Result<PacketRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(p) = self.batch.next() {
                return Some(Ok(p));
            }
            self.batch = self.next_batch()?.into_iter();
        }
    }
}

/// Everything the driver loop needs, resolved by
/// [`ServeBuilder::start`](crate::ServeBuilder::start).
pub(crate) struct Driver {
    pub(crate) engine: StreamingEngine,
    pub(crate) rx: Receiver<Vec<PacketRecord>>,
    pub(crate) shared: Shared,
    pub(crate) out_dir: PathBuf,
    pub(crate) rotate_every: Option<Duration>,
    pub(crate) rotate_packets: Option<u64>,
    pub(crate) sampler: Option<Sampler>,
    pub(crate) on_window: Option<crate::WindowCallback>,
    pub(crate) ingest: Option<std::thread::JoinHandle<()>>,
}

impl Driver {
    /// The window loop: one engine drain per rotation window until the
    /// stream ends, the stop flag flips, or the source errors — then a
    /// final flush, manifest close, and the session report.
    pub(crate) fn run(mut self) -> Result<ServeReport, ServeError> {
        let started = Instant::now();
        let mut manifest = ManifestWriter::open(&self.out_dir)?;
        let metrics = &self.engine.config().metrics;
        let age_gauge = metrics.gauge(names::SERVE_WINDOW_AGE_SECS);
        let queue_gauge = metrics.gauge(names::SERVE_QUEUE_DEPTH);
        let windows_counter = metrics.counter(names::SERVE_WINDOWS);

        let mut rx = self.rx;
        let mut carry: Vec<PacketRecord> = Vec::new();
        let mut windows: Vec<WindowSummary> = Vec::new();
        let mut compressed = 0u64;
        // Per-window drop attribution: each recorded window owns every
        // drop since the previous record (the first window reaches back
        // to session start, so the manifest's per-window figures total
        // the session figure).
        let mut dropped_before = 0u64;
        loop {
            let opened_unix_ms = unix_ms();
            let mut wsrc = WindowSource::new(
                &mut rx,
                &mut carry,
                &self.shared,
                self.rotate_packets,
                self.rotate_every,
                &age_gauge,
                &queue_gauge,
            );
            let run = self.engine.drain(&mut wsrc);
            let (reason, first_ts_us, last_ts_us) =
                (wsrc.reason, wsrc.first_ts_us, wsrc.last_ts_us);
            // The WindowSource never yields Err, so the engine cannot
            // fail on input; treat any failure as fatal to the session.
            let drained =
                run.map_err(|e| ServeError::Config(format!("engine failed mid-window: {e}")))?;
            let done = matches!(
                reason,
                CloseReason::Eof | CloseReason::Signal | CloseReason::SourceError
            );

            let packets = drained.packets();
            compressed += packets;
            let index = windows.len() as u64;
            let (archive, er) = if packets > 0 {
                // Streamed into `.part` scratch, then renamed, so a reader
                // (or `flowzip query`) pointed at the rotation directory
                // never observes a truncated archive.
                let path = self.out_dir.join(archive_name(opened_unix_ms, index));
                let mut part = PartFile::create(&path)
                    .map_err(|e| ServeError::io(format!("create {}", path.display()), e))?;
                let er = self.engine.write(drained, &mut part).map_err(|e| {
                    ServeError::io(format!("write {}", part.written_path().display()), e)
                })?;
                part.commit()
                    .map_err(|e| ServeError::io(format!("rename into {}", path.display()), e))?;
                (Some(path), er)
            } else {
                // Nothing to store; the summary still counts the bytes
                // the empty archive would take.
                let er = self
                    .engine
                    .write(drained, &mut std::io::sink())
                    .expect("io::sink takes every write");
                (None, er)
            };
            let bytes = er.archive_bytes;
            let report = archive.is_some().then(|| Report::from_engine(er, None));

            // Record every stored window, and every *elapsed* empty one
            // (a time rotation that saw nothing) — but not the empty
            // final pseudo-window a shutdown or EOF closes.
            if packets > 0 || reason == CloseReason::Time {
                let dropped_now = self.shared.dropped.load(Ordering::Relaxed);
                let summary = WindowSummary {
                    index,
                    archive,
                    reason,
                    packets,
                    flows: report.as_ref().map_or(0, |r| r.flows),
                    bytes,
                    dropped_packets: dropped_now - dropped_before,
                    opened_unix_ms,
                    closed_unix_ms: unix_ms(),
                    first_ts_us,
                    last_ts_us,
                    report,
                };
                manifest.append(&summary)?;
                windows_counter.inc();
                if let Some(cb) = self.on_window.as_mut() {
                    cb(&summary);
                }
                windows.push(summary);
                dropped_before = dropped_now;
            }
            if done {
                break;
            }
        }

        // Closing the queue unblocks an ingest thread stuck in send();
        // then reap it (unless it is wedged in a blocking source read —
        // a detached join would hang shutdown, so only join when the
        // thread already finished).
        drop(rx);
        if let Some(h) = self.ingest.take() {
            if h.is_finished() {
                h.join().ok();
            }
        }
        drop(self.sampler);
        age_gauge.set(0);

        let source_error = self.shared.source_error.lock().unwrap().clone();
        Ok(ServeReport {
            windows,
            produced_packets: self.shared.produced.load(Ordering::Relaxed),
            compressed_packets: compressed,
            dropped_packets: self.shared.dropped.load(Ordering::Relaxed),
            out_dir: self.out_dir,
            manifest: manifest.path().to_path_buf(),
            source_error,
            elapsed_secs: started.elapsed().as_secs_f64(),
        })
    }
}

pub(crate) fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_obs::Metrics;
    use std::sync::mpsc::sync_channel;

    fn packets(n: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                PacketRecord::builder()
                    .src(std::net::Ipv4Addr::new(10, 0, 0, 1), 2000)
                    .dst(std::net::Ipv4Addr::new(192, 0, 2, 1), 80)
                    .timestamp(flowzip_trace::Timestamp::from_micros(i * 100))
                    .build()
            })
            .collect()
    }

    /// The drop policy is exact and deterministic: with nobody consuming
    /// a 2-slot queue, the first two batches land and every later one is
    /// dropped whole — counted, never buffered.
    #[test]
    fn drop_policy_counts_exactly_what_the_full_queue_refuses() {
        let metrics = Metrics::enabled();
        let shared = Shared::new(Arc::new(AtomicBool::new(false)));
        let (tx, rx) = sync_channel::<Vec<PacketRecord>>(2);
        run_ingest(
            ServeSource::packets(packets(100).into_iter().map(Ok)),
            tx,
            10,
            OverloadPolicy::Drop,
            &shared,
            metrics.counter(names::SERVE_DROPPED_PACKETS),
            metrics.gauge(names::SERVE_QUEUE_DEPTH),
        );
        assert_eq!(shared.produced.load(Ordering::Relaxed), 100);
        assert_eq!(shared.dropped.load(Ordering::Relaxed), 80);
        let queued: u64 = rx.iter().map(|b| b.len() as u64).sum();
        assert_eq!(queued, 20, "exactly the two accepted batches remain");
        assert_eq!(shared.queued.load(Ordering::Relaxed), 2);
        let peek = metrics.peek();
        assert_eq!(peek.counter(names::SERVE_DROPPED_PACKETS), Some(80));
    }

    /// Block policy never drops: the ingest thread stalls until the
    /// consumer makes room, and every packet is delivered in order.
    #[test]
    fn block_policy_delivers_everything_in_order() {
        let metrics = Metrics::enabled();
        let shared = Shared::new(Arc::new(AtomicBool::new(false)));
        let (tx, rx) = sync_channel::<Vec<PacketRecord>>(1);
        let ingest = {
            let shared = Shared {
                stop: shared.stop.clone(),
                produced: shared.produced.clone(),
                dropped: shared.dropped.clone(),
                queued: shared.queued.clone(),
                source_error: shared.source_error.clone(),
            };
            let counter = metrics.counter(names::SERVE_DROPPED_PACKETS);
            let gauge = metrics.gauge(names::SERVE_QUEUE_DEPTH);
            std::thread::spawn(move || {
                run_ingest(
                    ServeSource::packets(packets(64).into_iter().map(Ok)),
                    tx,
                    7,
                    OverloadPolicy::Block,
                    &shared,
                    counter,
                    gauge,
                )
            })
        };
        let mut got = Vec::new();
        for batch in rx.iter() {
            got.extend(batch);
        }
        ingest.join().unwrap();
        assert_eq!(got, packets(64), "lossless and in order");
        assert_eq!(shared.dropped.load(Ordering::Relaxed), 0);
    }
}
