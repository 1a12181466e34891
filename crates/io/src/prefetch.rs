//! Double-buffered read-ahead: a dedicated I/O thread pulls fixed-size
//! chunks off the underlying reader while the consumer parses the
//! previous ones.
//!
//! [`PrefetchReader`] implements [`Read`], so it slots *beneath* the
//! existing [`TshReader`](flowzip_trace::TshReader) /
//! [`PcapReader`](flowzip_trace::PcapReader) iterators without touching
//! them — the parsed packet stream is byte-identical to reading the file
//! directly, which the equivalence tests pin.
//!
//! The hand-off channel is bounded at [`PrefetchConfig::chunks`]
//! in-flight buffers, so memory is capped at `chunks × chunk_bytes` and
//! a slow consumer back-pressures the disk instead of buffering the
//! file. The default (2 × 1 MiB) is classic double buffering.
//!
//! **No product path uses this module.** It stays only for the
//! performance ledger's `io.prefetch_read` probe
//! (`benchmark/src/layers.rs`, via
//! [`FileSource::open_prefetched`](crate::FileSource::open_prefetched)).

use crate::stats::IoStats;
use std::io::Read;
use std::sync::mpsc::{Receiver, SyncSender};
use std::time::Instant;

/// Prefetch tuning: how big each read-ahead chunk is and how many may be
/// in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Bytes per chunk the I/O thread reads ahead (clamped ≥ 4 KiB).
    pub chunk_bytes: usize,
    /// Chunks the bounded hand-off channel may hold (clamped ≥ 1; the
    /// I/O thread fills one more while the channel is full, so peak
    /// buffering is `chunks + 1` chunks).
    pub chunks: usize,
}

impl PrefetchConfig {
    /// Minimum accepted chunk size.
    pub(crate) const MIN_CHUNK_BYTES: usize = 4 << 10;

    fn validated(self) -> PrefetchConfig {
        PrefetchConfig {
            chunk_bytes: self.chunk_bytes.max(Self::MIN_CHUNK_BYTES),
            chunks: self.chunks.max(1),
        }
    }
}

impl Default for PrefetchConfig {
    fn default() -> PrefetchConfig {
        PrefetchConfig {
            chunk_bytes: 1 << 20,
            chunks: 2,
        }
    }
}

/// What the I/O thread hands over: a filled chunk, or the first error.
enum Chunk {
    Data(Vec<u8>),
    Err(std::io::Error),
}

/// A [`Read`] wrapper whose underlying reads happen on a dedicated I/O
/// thread, ahead of the consumer. See the [module docs](self).
#[derive(Debug)]
pub struct PrefetchReader {
    rx: Option<Receiver<Chunk>>,
    current: Vec<u8>,
    pos: usize,
    /// Set once the channel yielded an error or disconnected; further
    /// reads return EOF (errors are not retryable — the I/O thread has
    /// already exited).
    done: bool,
    stats: IoStats,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PrefetchReader {
    /// Starts the I/O thread with default (double-buffered, 1 MiB)
    /// chunking. Byte counts land on a private [`IoStats`].
    pub fn new<R: Read + Send + 'static>(inner: R) -> PrefetchReader {
        PrefetchReader::with_config(inner, PrefetchConfig::default(), IoStats::new())
    }

    /// Starts the I/O thread with explicit chunking; consumer block time
    /// (waiting on the hand-off channel) and raw bytes are charged to
    /// `stats`. Disk time on the I/O thread is deliberately *not*
    /// charged — it overlaps compute, which is the whole point.
    pub(crate) fn with_config<R: Read + Send + 'static>(
        mut inner: R,
        config: PrefetchConfig,
        stats: IoStats,
    ) -> PrefetchReader {
        let config = config.validated();
        let (tx, rx) = std::sync::mpsc::sync_channel::<Chunk>(config.chunks);
        let thread_stats = stats.clone();
        let handle = std::thread::spawn(move || {
            io_loop(&mut inner, &tx, config.chunk_bytes, &thread_stats);
        });
        PrefetchReader {
            rx: Some(rx),
            current: Vec::new(),
            pos: 0,
            done: false,
            stats,
            handle: Some(handle),
        }
    }

    /// The stats handle this reader charges.
    pub fn stats(&self) -> IoStats {
        self.stats.clone()
    }
}

/// The I/O thread: read full chunks until EOF or error, pushing each into
/// the bounded channel. A send failure means the consumer is gone — stop
/// reading.
fn io_loop<R: Read>(inner: &mut R, tx: &SyncSender<Chunk>, chunk_bytes: usize, stats: &IoStats) {
    loop {
        let mut buf = vec![0u8; chunk_bytes];
        let mut filled = 0;
        // Fill the chunk completely (short reads are normal for files
        // crossing cache boundaries) so downstream sees steady blocks.
        while filled < chunk_bytes {
            match inner.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let _ = tx.send(Chunk::Err(e));
                    return;
                }
            }
        }
        if filled == 0 {
            return; // clean EOF; dropping tx signals end-of-stream
        }
        buf.truncate(filled);
        stats.add_bytes(filled as u64);
        let at_eof = filled < chunk_bytes;
        if tx.send(Chunk::Data(buf)).is_err() {
            return;
        }
        stats.prefetch_add(1);
        if at_eof {
            return;
        }
    }
}

impl Read for PrefetchReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.pos < self.current.len() {
                let n = (self.current.len() - self.pos).min(buf.len());
                buf[..n].copy_from_slice(&self.current[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            if self.done {
                return Ok(0);
            }
            let rx = self.rx.as_ref().expect("receiver lives until drop");
            let t0 = Instant::now();
            let msg = rx.recv();
            self.stats.add_wait(t0.elapsed());
            match msg {
                Ok(Chunk::Data(chunk)) => {
                    self.stats.prefetch_add(-1);
                    self.current = chunk;
                    self.pos = 0;
                }
                Ok(Chunk::Err(e)) => {
                    self.done = true;
                    return Err(e);
                }
                Err(_) => {
                    self.done = true; // I/O thread finished: EOF
                }
            }
        }
    }
}

impl Drop for PrefetchReader {
    fn drop(&mut self) {
        // Disconnect first so a sender blocked on the full channel wakes
        // up and exits; then the join cannot deadlock.
        drop(self.rx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that yields `len` deterministic bytes in ragged
    /// (unaligned) segments, to exercise chunk-refill boundaries.
    struct Ragged {
        len: usize,
        pos: usize,
    }

    impl Read for Ragged {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.len {
                return Ok(0);
            }
            let step = (self.pos % 617 + 1).min(buf.len()).min(self.len - self.pos);
            for (i, b) in buf[..step].iter_mut().enumerate() {
                *b = ((self.pos + i) % 251) as u8;
            }
            self.pos += step;
            Ok(step)
        }
    }

    fn expected(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn stream_is_byte_identical_across_chunk_sizes() {
        for len in [0usize, 1, 4095, 4096, 4097, 100_000] {
            let mut r = PrefetchReader::with_config(
                Ragged { len, pos: 0 },
                PrefetchConfig {
                    chunk_bytes: 4096,
                    chunks: 2,
                },
                IoStats::new(),
            );
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out, expected(len), "len {len}");
        }
    }

    #[test]
    fn bytes_are_counted_once() {
        let stats = IoStats::new();
        let mut r = PrefetchReader::with_config(
            Ragged {
                len: 50_000,
                pos: 0,
            },
            PrefetchConfig::default(),
            stats.clone(),
        );
        std::io::copy(&mut r, &mut std::io::sink()).unwrap();
        assert_eq!(stats.bytes_read(), 50_000);
    }

    #[test]
    fn io_errors_surface_to_the_consumer() {
        struct Failing(usize);
        impl Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk on fire"));
                }
                let n = self.0.min(buf.len());
                buf[..n].fill(9);
                self.0 -= n;
                Ok(n)
            }
        }
        let mut r = PrefetchReader::with_config(
            Failing(10_000),
            PrefetchConfig {
                chunk_bytes: 4096,
                chunks: 1,
            },
            IoStats::new(),
        );
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        assert!(err.to_string().contains("disk on fire"));
    }

    #[test]
    fn early_drop_does_not_hang() {
        // Bigger source than the channel holds: the I/O thread will be
        // blocked mid-send when we drop. Drop must disconnect + join.
        let r = PrefetchReader::with_config(
            Ragged {
                len: 10 << 20,
                pos: 0,
            },
            PrefetchConfig {
                chunk_bytes: 4096,
                chunks: 1,
            },
            IoStats::new(),
        );
        drop(r);
    }

    #[test]
    fn config_clamps() {
        let c = PrefetchConfig {
            chunk_bytes: 1,
            chunks: 0,
        }
        .validated();
        assert_eq!(c.chunk_bytes, PrefetchConfig::MIN_CHUNK_BYTES);
        assert_eq!(c.chunks, 1);
    }

    #[test]
    fn tsh_reader_over_prefetch_parses_identically() {
        use flowzip_trace::prelude::*;
        use flowzip_trace::tsh::{self, TshReader};

        let mut t = Trace::new();
        for i in 0..500u64 {
            t.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 7))
                    .src(Ipv4Addr::new(10, 0, 0, 1), 4000 + (i % 100) as u16)
                    .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                    .build(),
            );
        }
        let bytes = tsh::to_bytes(&t);
        let direct: Vec<_> = TshReader::new(&bytes[..]).map(|p| p.unwrap()).collect();
        let prefetched: Vec<_> =
            TshReader::new(std::io::BufReader::new(PrefetchReader::with_config(
                std::io::Cursor::new(bytes),
                PrefetchConfig {
                    chunk_bytes: 4096,
                    chunks: 2,
                },
                IoStats::new(),
            )))
            .map(|p| p.unwrap())
            .collect();
        assert_eq!(direct, prefetched);
    }
}
