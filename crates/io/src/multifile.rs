//! [`MultiFileSource`]: an ordered set of pre-split capture files as one
//! logical packet stream, drained by parallel reader threads.
//!
//! **No product path uses this module**: compression reads every file
//! input through [`FileSource`](crate::FileSource) on the caller's
//! thread, which is faster for `cmp`-identical archives. It stays only
//! because the performance ledger's `io.multifile_read` probe
//! (`benchmark/src/layers.rs`) imports it.
//!
//! Delivery is exactly what [`FileSource`](crate::FileSource) yields —
//! same packets, same order, same first error — whatever the reader
//! count: [`WorkerPool`]-capped reader threads claim files in set order
//! and decode each into its own bounded batch queue, and the consumer
//! drains queue 0 to its end-marker, then queue 1, and so on.

use crate::pool::{DetachedTasks, WorkerPool};
use crate::source::{sniff_set, InputSource, SetFile, FILE_BUF_BYTES};
use crate::stats::{CountingRead, IoStats};
use flowzip_trace::reader::{CaptureFormat, CaptureReader};
use flowzip_trace::{PacketRecord, TraceError};
use std::io::BufReader;
use std::path::Path;
use std::sync::mpsc::{Receiver, SyncSender};
use std::time::Instant;

/// Multi-file ingest tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiFileConfig {
    /// Parallel reader threads (clamped ≥ 1; more readers than files is
    /// harmless — the pool only starts as many as there are files).
    pub readers: usize,
    /// Packets per queued batch (clamped ≥ 1).
    pub batch_packets: usize,
    /// Bounded in-flight batches per file queue (clamped ≥ 1) — the
    /// back-pressure knob.
    pub queue_batches: usize,
}

impl MultiFileConfig {
    fn validated(self) -> MultiFileConfig {
        MultiFileConfig {
            readers: self.readers.max(1),
            batch_packets: self.batch_packets.max(1),
            queue_batches: self.queue_batches.max(1),
        }
    }

    /// `readers` set, everything else default.
    pub fn with_readers(readers: usize) -> MultiFileConfig {
        MultiFileConfig {
            readers,
            ..MultiFileConfig::default()
        }
    }
}

impl Default for MultiFileConfig {
    fn default() -> MultiFileConfig {
        MultiFileConfig {
            readers: 2,
            batch_packets: 1024,
            queue_batches: 4,
        }
    }
}

/// What a reader thread sends its file's queue.
enum Msg {
    Batch(Vec<PacketRecord>),
    Err(TraceError),
    /// Clean end of this file. A queue that disconnects *without* an
    /// `Eof` means the reader thread died — surfaced as an error rather
    /// than a silent truncation.
    Eof,
}

/// An ordered pre-split capture set as one [`InputSource`]. See the
/// [module docs](self) for the ordering contract.
#[derive(Debug)]
pub struct MultiFileSource {
    files: Vec<SetFile>,
    format: CaptureFormat,
    config: MultiFileConfig,
    stats: IoStats,
}

impl MultiFileSource {
    /// Opens an ordered file set. Each file's format is sniffed from its
    /// magic up front; mixing pcap and TSH in one set is rejected here,
    /// before any thread spawns. Empty (zero-byte) files are accepted
    /// and contribute no packets.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when a file cannot be opened or sniffed;
    /// [`TraceError::InvalidTrace`] for an empty set or a mixed set.
    pub fn open<P: AsRef<Path>>(
        paths: impl IntoIterator<Item = P>,
        config: MultiFileConfig,
    ) -> Result<MultiFileSource, TraceError> {
        let (files, format) = sniff_set(paths)?;
        Ok(MultiFileSource {
            files,
            format,
            config: config.validated(),
            stats: IoStats::new(),
        })
    }

    /// The set's capture format (every non-empty file agrees).
    pub fn format(&self) -> CaptureFormat {
        self.format
    }
}

/// One reader thread's whole job: decode `file` into `tx` in batches.
fn read_file(
    file: SetFile,
    format: CaptureFormat,
    config: &MultiFileConfig,
    stats: &IoStats,
    tx: &SyncSender<Msg>,
) {
    let send_err = |e: TraceError| {
        let _ = tx.send(Msg::Err(e));
    };
    let file = match file.into_read() {
        Ok(f) => f,
        Err(e) => return send_err(e.into()),
    };
    // Disk time on this thread is already overlapped with compute, so
    // bytes are counted but not timed; `Msg` channel sends back-pressure
    // against the bounded queue instead.
    let counted = CountingRead::new(file, stats.clone());
    let reader =
        match CaptureReader::with_format(BufReader::with_capacity(FILE_BUF_BYTES, counted), format)
        {
            Ok(r) => r,
            Err(e) => return send_err(e),
        };
    let mut batch = Vec::with_capacity(config.batch_packets);
    for item in reader {
        match item {
            Ok(p) => {
                batch.push(p);
                if batch.len() >= config.batch_packets {
                    let full =
                        std::mem::replace(&mut batch, Vec::with_capacity(config.batch_packets));
                    if tx.send(Msg::Batch(full)).is_err() {
                        return; // consumer gone
                    }
                    stats.add_batch();
                }
            }
            Err(e) => {
                // Deliver the packets decoded before the error — a
                // chained single reader would have yielded them too.
                if !batch.is_empty() {
                    if tx.send(Msg::Batch(batch)).is_err() {
                        return;
                    }
                    stats.add_batch();
                }
                let _ = tx.send(Msg::Err(e));
                return;
            }
        }
    }
    if !batch.is_empty() {
        if tx.send(Msg::Batch(batch)).is_err() {
            return;
        }
        stats.add_batch();
    }
    let _ = tx.send(Msg::Eof);
}

impl InputSource for MultiFileSource {
    type Packets = MultiFileIter;

    fn stats(&self) -> IoStats {
        self.stats.clone()
    }

    fn into_packets(self) -> MultiFileIter {
        let MultiFileSource {
            files,
            format,
            config,
            stats,
        } = self;
        let mut receivers = Vec::with_capacity(files.len());
        let mut tasks: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(files.len());
        for file in files {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Msg>(config.queue_batches);
            receivers.push(rx);
            let stats = stats.clone();
            tasks.push(Box::new(move || {
                read_file(file, format, &config, &stats, &tx);
            }));
        }
        // Workers claim files in set order, so the file the consumer
        // needs first is always among the ones being read.
        let tasks_handle = WorkerPool::new(config.readers).run_detached(tasks);
        let mut receivers = receivers.into_iter();
        let current = receivers.next();
        MultiFileIter {
            receivers,
            current,
            batch: Vec::new().into_iter(),
            stats,
            tasks: Some(tasks_handle),
            done: false,
        }
    }
}

/// The consuming end of [`MultiFileSource`]: yields file 0's packets,
/// then file 1's, … — fused after the first error.
pub struct MultiFileIter {
    receivers: std::vec::IntoIter<Receiver<Msg>>,
    current: Option<Receiver<Msg>>,
    batch: std::vec::IntoIter<PacketRecord>,
    stats: IoStats,
    tasks: Option<DetachedTasks>,
    done: bool,
}

impl MultiFileIter {
    /// The next decoded batch, in delivery order — the zero-copy way to
    /// drain the source when the consumer works in batches anyway: one
    /// channel receive hands over a whole `Vec` the reader thread built, with no
    /// per-packet iterator protocol in between. Interleaves correctly
    /// with per-packet iteration: any partially-consumed batch is
    /// returned (its unread remainder) first.
    ///
    /// `None` means the whole set drained cleanly; an `Err` is terminal,
    /// like the iterator's.
    pub fn next_batch(&mut self) -> Option<Result<Vec<PacketRecord>, TraceError>> {
        if self.batch.len() > 0 {
            return Some(Ok(self.batch.by_ref().collect()));
        }
        loop {
            if self.done {
                return None;
            }
            let Some(rx) = self.current.as_ref() else {
                self.done = true;
                // Clean end of the whole set: join the readers so a
                // panicked thread surfaces instead of vanishing.
                if let Some(tasks) = self.tasks.take() {
                    tasks.join();
                }
                return None;
            };
            let t0 = Instant::now();
            let msg = rx.recv();
            self.stats.add_wait(t0.elapsed());
            match msg {
                Ok(Msg::Batch(batch)) => return Some(Ok(batch)),
                Ok(Msg::Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
                Ok(Msg::Eof) => self.current = self.receivers.next(),
                Err(_) => {
                    // Disconnected without Eof: the reader thread died.
                    self.done = true;
                    return Some(Err(TraceError::InvalidTrace(
                        "multi-file reader thread terminated unexpectedly".to_string(),
                    )));
                }
            }
        }
    }
}

impl Iterator for MultiFileIter {
    type Item = Result<PacketRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(p) = self.batch.next() {
                return Some(Ok(p));
            }
            match self.next_batch()? {
                Ok(batch) => self.batch = batch.into_iter(),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_trace::prelude::*;
    use flowzip_trace::tsh;
    use std::path::PathBuf;

    pub(crate) fn pkt(i: u64, us: u64) -> PacketRecord {
        PacketRecord::builder()
            .timestamp(Timestamp::from_micros(us))
            .src(Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8), 4000)
            .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
            .flags(TcpFlags::ACK)
            .build()
    }

    fn write_split(dir: &Path, chunks: &[&[PacketRecord]]) -> Vec<PathBuf> {
        chunks
            .iter()
            .enumerate()
            .map(|(i, packets)| {
                let path = dir.join(format!("chunk-{i:02}.tsh"));
                let trace = Trace::from_packets(packets.to_vec());
                std::fs::write(&path, tsh::to_bytes(&trace)).unwrap();
                path
            })
            .collect()
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flowzip-mf-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn delivery_matches_file_order_for_any_reader_count() {
        let dir = tmp("order");
        let packets: Vec<PacketRecord> = (0..500).map(|i| pkt(i, i * 10)).collect();
        let paths = write_split(
            &dir,
            &[&packets[0..90], &packets[90..91], &packets[91..500]],
        );
        for readers in [1usize, 2, 3, 8] {
            let src = MultiFileSource::open(
                &paths,
                MultiFileConfig {
                    readers,
                    batch_packets: 32,
                    queue_batches: 2,
                },
            )
            .unwrap();
            assert_eq!(src.format(), CaptureFormat::Tsh);
            let got: Vec<_> = src.into_packets().map(|p| p.unwrap()).collect();
            assert_eq!(got, packets, "{readers} readers");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_set_is_rejected() {
        let err =
            MultiFileSource::open(Vec::<PathBuf>::new(), MultiFileConfig::default()).unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn batch_drain_interleaves_with_packet_iteration() {
        let dir = tmp("batchdrain");
        let packets: Vec<PacketRecord> = (0..100).map(|i| pkt(i, i * 5)).collect();
        let paths = write_split(&dir, &[&packets[0..60], &packets[60..100]]);
        let src = MultiFileSource::open(
            &paths,
            MultiFileConfig {
                readers: 2,
                batch_packets: 16,
                queue_batches: 2,
            },
        )
        .unwrap();
        let mut iter = src.into_packets();
        let mut got = Vec::new();
        // Take 5 packets one at a time, then switch to batch drain: the
        // partially-consumed batch's remainder must come first.
        for _ in 0..5 {
            got.push(iter.next().unwrap().unwrap());
        }
        while let Some(batch) = iter.next_batch() {
            got.extend(batch.unwrap());
        }
        assert_eq!(got, packets);
        assert!(iter.next().is_none(), "fused after clean end");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_empty_files_yield_no_packets() {
        let dir = tmp("allempty");
        let a = dir.join("a.tsh");
        let b = dir.join("b.tsh");
        std::fs::write(&a, b"").unwrap();
        std::fs::write(&b, b"").unwrap();
        let src = MultiFileSource::open([&a, &b], MultiFileConfig::default()).unwrap();
        assert_eq!(src.into_packets().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
