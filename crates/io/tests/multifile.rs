//! Multi-file ingest edge cases, pinned at the packet level: the
//! sequential set reader ([`FileSource::open_set`]) and, whatever its
//! reader count, [`MultiFileSource`] must both behave *exactly* like one
//! reader chained over the files in order — same packets, same order,
//! same first error.

use flowzip_io::{glob, FileSource, InputSource, MultiFileConfig, MultiFileSource};
use flowzip_trace::prelude::*;
use flowzip_trace::reader::CaptureReader;
use flowzip_trace::{pcap, tsh, TraceError};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flowzip-io-mf-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pkt(i: u64, us: u64) -> PacketRecord {
    PacketRecord::builder()
        .timestamp(Timestamp::from_micros(us))
        .src(
            Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
            2000 + (i % 500) as u16,
        )
        .dst(Ipv4Addr::new(192, 0, 2, 9), 80)
        .flags(TcpFlags::ACK)
        .payload_len((i % 1400) as u16)
        .build()
}

/// The reference semantics: one reader per file, chained in order,
/// stopping at the first error.
fn chained_single_reader(paths: &[PathBuf]) -> (Vec<PacketRecord>, Option<String>) {
    let mut packets = Vec::new();
    for path in paths {
        let bytes = std::fs::read(path).unwrap();
        if bytes.is_empty() {
            continue;
        }
        let reader = match CaptureReader::open(&bytes[..]) {
            Ok(r) => r,
            Err(e) => return (packets, Some(e.to_string())),
        };
        for item in reader {
            match item {
                Ok(p) => packets.push(p),
                Err(e) => return (packets, Some(e.to_string())),
            }
        }
    }
    (packets, None)
}

/// Drains a source the same way, capturing the first error.
fn drain(src: impl InputSource) -> (Vec<PacketRecord>, Option<String>) {
    let mut packets = Vec::new();
    for item in src.into_packets() {
        match item {
            Ok(p) => packets.push(p),
            Err(e) => return (packets, Some(e.to_string())),
        }
    }
    (packets, None)
}

/// Writes records in the *given* order (`Trace::from_packets` would
/// time-sort them, defeating the out-of-order fixtures).
fn write_tsh(path: &Path, packets: &[PacketRecord]) {
    let mut bytes = Vec::with_capacity(packets.len() * 44);
    for p in packets {
        bytes.extend_from_slice(&tsh::encode_record(p, 0).unwrap());
    }
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn empty_file_in_the_set_contributes_no_packets() {
    let dir = tmpdir("empty");
    let a: Vec<_> = (0..50).map(|i| pkt(i, i * 100)).collect();
    let c: Vec<_> = (50..90).map(|i| pkt(i, i * 100)).collect();
    write_tsh(&dir.join("a.tsh"), &a);
    std::fs::write(dir.join("b.tsh"), b"").unwrap();
    write_tsh(&dir.join("c.tsh"), &c);
    let paths = vec![dir.join("a.tsh"), dir.join("b.tsh"), dir.join("c.tsh")];

    let want: Vec<_> = a.iter().chain(&c).cloned().collect();
    let (got, err) = drain(FileSource::open_set(&paths).unwrap());
    assert!(err.is_none());
    assert_eq!(got, want, "set reader");
    for readers in [1usize, 3] {
        let src = MultiFileSource::open(&paths, MultiFileConfig::with_readers(readers)).unwrap();
        let (got, err) = drain(src);
        assert!(err.is_none());
        assert_eq!(got, want, "{readers} readers");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixed_pcap_and_tsh_sets_are_rejected_up_front() {
    let dir = tmpdir("mixed");
    let packets: Vec<_> = (0..20).map(|i| pkt(i, i * 10)).collect();
    let trace = Trace::from_packets(packets);
    std::fs::write(dir.join("a.tsh"), tsh::to_bytes(&trace)).unwrap();
    std::fs::write(dir.join("b.pcap"), pcap::to_bytes(&trace)).unwrap();

    let mixed = [dir.join("a.tsh"), dir.join("b.pcap")];
    for err in [
        FileSource::open_set(&mixed).unwrap_err(),
        MultiFileSource::open(&mixed, MultiFileConfig::default()).unwrap_err(),
    ] {
        let msg = err.to_string();
        assert!(msg.contains("mixed capture formats"), "{msg}");
        assert!(msg.contains("a.tsh") && msg.contains("b.pcap"), "{msg}");
    }

    // An empty file is compatible with either format.
    std::fs::write(dir.join("zero.tsh"), b"").unwrap();
    let zero_first = [dir.join("zero.tsh"), dir.join("b.pcap")];
    let set = FileSource::open_set(&zero_first).unwrap();
    assert_eq!(set.format(), flowzip_trace::CaptureFormat::Pcap);
    assert_eq!(drain(set).0.len(), 20);
    MultiFileSource::open(&zero_first, MultiFileConfig::default()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_chunk_truncation_surfaces_at_the_right_point() {
    let dir = tmpdir("trunc");
    let a: Vec<_> = (0..30).map(|i| pkt(i, i * 10)).collect();
    let b: Vec<_> = (30..60).map(|i| pkt(i, i * 10)).collect();
    write_tsh(&dir.join("a.tsh"), &a);
    // Truncate file b inside its 3rd record.
    let full = tsh::to_bytes(&Trace::from_packets(b.clone()));
    std::fs::write(dir.join("b.tsh"), &full[..2 * 44 + 17]).unwrap();
    let paths = vec![dir.join("a.tsh"), dir.join("b.tsh")];

    let reference = chained_single_reader(&paths);
    for readers in [0usize, 1, 2, 4] {
        // Reader count 0 stands for the sequential set reader.
        let (got, err) = if readers == 0 {
            drain(FileSource::open_set(&paths).unwrap())
        } else {
            drain(MultiFileSource::open(&paths, MultiFileConfig::with_readers(readers)).unwrap())
        };
        // All of file a and the two whole records of file b arrive, then
        // the truncation error — exactly like the chained single reader.
        assert_eq!(got.len(), 32, "{readers} readers");
        assert_eq!(got, reference.0);
        let msg = err.expect("truncation must surface");
        assert!(msg.contains("truncated record"), "{msg}");
        assert_eq!(Some(msg), reference.1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_order_file_timestamps_keep_single_stream_order() {
    let dir = tmpdir("ooo");
    // File 0 holds *later* timestamps than file 1, and file 2 interleaves
    // both: the set order, not time order, must dictate delivery — the
    // same stable order a single chained reader produces.
    let late: Vec<_> = (0..40).map(|i| pkt(i, 1_000_000 + i * 10)).collect();
    let early: Vec<_> = (40..80).map(|i| pkt(i, i * 10)).collect();
    let mixed: Vec<_> = (80..120)
        .map(|i| pkt(i, if i % 2 == 0 { i * 10 } else { 2_000_000 + i }))
        .collect();
    write_tsh(&dir.join("f0.tsh"), &late);
    write_tsh(&dir.join("f1.tsh"), &early);
    write_tsh(&dir.join("f2.tsh"), &mixed);
    let paths = vec![dir.join("f0.tsh"), dir.join("f1.tsh"), dir.join("f2.tsh")];

    let want: Vec<_> = late.iter().chain(&early).chain(&mixed).cloned().collect();
    let (got, err) = drain(FileSource::open_set(&paths).unwrap());
    assert!(err.is_none());
    assert_eq!(got, want, "set reader");
    for readers in [1usize, 2, 3, 6] {
        let src = MultiFileSource::open(
            &paths,
            MultiFileConfig {
                readers,
                batch_packets: 7, // ragged batches stress queue boundaries
                queue_batches: 2,
            },
        )
        .unwrap();
        let (got, err) = drain(src);
        assert!(err.is_none());
        assert_eq!(got, want, "{readers} readers");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pcap_sets_stream_like_chained_readers() {
    let dir = tmpdir("pcapset");
    let a: Vec<_> = (0..25).map(|i| pkt(i, i * 100)).collect();
    let b: Vec<_> = (25..75).map(|i| pkt(i, i * 100)).collect();
    std::fs::write(
        dir.join("a.pcap"),
        pcap::to_bytes(&Trace::from_packets(a.clone())),
    )
    .unwrap();
    std::fs::write(
        dir.join("b.pcap"),
        pcap::to_bytes(&Trace::from_packets(b.clone())),
    )
    .unwrap();
    let paths = vec![dir.join("a.pcap"), dir.join("b.pcap")];

    let total: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    let set = FileSource::open_set(&paths).unwrap();
    assert_eq!(set.format(), flowzip_trace::CaptureFormat::Pcap);
    let multi = MultiFileSource::open(&paths, MultiFileConfig::with_readers(2)).unwrap();
    assert_eq!(multi.format(), flowzip_trace::CaptureFormat::Pcap);
    for (stats, (got, err)) in [(set.stats(), drain(set)), (multi.stats(), drain(multi))] {
        assert!(err.is_none());
        assert_eq!(got, chained_single_reader(&paths).0);
        // Every raw byte of both files was pulled and counted.
        assert_eq!(stats.bytes_read(), total);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_errors_at_open() {
    let missing = [PathBuf::from("/nonexistent/nope-00.tsh")];
    let err = MultiFileSource::open(&missing, MultiFileConfig::default()).unwrap_err();
    assert!(matches!(err, TraceError::Io(_)));
    let err = FileSource::open_set(&missing).unwrap_err();
    assert!(matches!(err, TraceError::Io(_)));
}

#[test]
fn glob_open_orders_chunks_lexicographically() {
    let dir = tmpdir("glob");
    let a: Vec<_> = (0..10).map(|i| pkt(i, i)).collect();
    let b: Vec<_> = (10..20).map(|i| pkt(i, i)).collect();
    let c: Vec<_> = (20..30).map(|i| pkt(i, i)).collect();
    // Written out of order; the glob sorts them back.
    write_tsh(&dir.join("t-02.tsh"), &c);
    write_tsh(&dir.join("t-00.tsh"), &a);
    write_tsh(&dir.join("t-01.tsh"), &b);
    let pattern = dir.join("t-*.tsh");
    let paths = glob::expand_all(&[pattern.to_str().unwrap()]).unwrap();
    let src = MultiFileSource::open(&paths, MultiFileConfig::with_readers(2)).unwrap();
    let want: Vec<_> = a.iter().chain(&b).chain(&c).cloned().collect();
    let (got, err) = drain(src);
    assert!(err.is_none());
    assert_eq!(got, want);
    let (got, err) = drain(FileSource::open_set(&paths).unwrap());
    assert!(err.is_none());
    assert_eq!(got, want, "set reader");
    std::fs::remove_dir_all(&dir).ok();
}

/// Literal paths are `OsStr`-safe end to end: a capture file whose name
/// is not valid UTF-8 opens and streams fine when passed explicitly
/// (only *patterns* are `&str`-typed; see the glob unit tests for how
/// non-UTF-8 directory entries behave under matching).
#[cfg(unix)]
#[test]
fn non_utf8_literal_paths_stream_fine() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;

    let dir = tmpdir("nonutf8");
    let a: Vec<_> = (0..25).map(|i| pkt(i, i * 3)).collect();
    let b: Vec<_> = (25..50).map(|i| pkt(i, i * 3)).collect();
    let weird = dir.join(OsStr::from_bytes(b"chunk-\xff\xfe-00.tsh"));
    write_tsh(&weird, &a);
    let plain = dir.join("chunk-01.tsh");
    write_tsh(&plain, &b);

    let src = MultiFileSource::open(
        [weird.clone(), plain.clone()],
        MultiFileConfig::with_readers(2),
    )
    .unwrap();
    let want: Vec<_> = a.iter().chain(&b).cloned().collect();
    let (got, err) = drain(src);
    assert!(err.is_none(), "{err:?}");
    assert_eq!(got, want);
    let (got, err) = drain(FileSource::open_set([weird, plain]).unwrap());
    assert!(err.is_none(), "{err:?}");
    assert_eq!(got, want, "set reader");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    /// Any trace, any split, any reader count: the sequential set
    /// reader and the parallel multi-file stream both equal the chained
    /// single-reader stream exactly. (This is the packet-level half of
    /// the archive-equivalence guarantee; the engine test pins the
    /// archive bytes.)
    #[test]
    fn multifile_equals_chained_reader(
        n_packets in 0usize..400,
        n_files in 1usize..6,
        readers in 1usize..5,
        batch in 1usize..64,
        seed in 0u64..1_000,
    ) {
        let dir = tmpdir(&format!("prop-{seed}-{n_packets}-{n_files}"));
        let packets: Vec<_> = (0..n_packets as u64)
            .map(|i| pkt(i.wrapping_mul(seed + 1), (i * 37 + seed) % 500_000))
            .collect();
        // Split at seed-derived cut points (possibly producing empty files).
        let mut paths = Vec::new();
        let mut start = 0usize;
        for f in 0..n_files {
            let remaining = packets.len() - start;
            let take = if f + 1 == n_files {
                remaining
            } else {
                (seed as usize * (f + 3) * 7919) % (remaining + 1)
            };
            let path = dir.join(format!("part-{f:02}.tsh"));
            write_tsh(&path, &packets[start..start + take]);
            start += take;
            paths.push(path);
        }
        let (got, err) = drain(FileSource::open_set(&paths).unwrap());
        prop_assert!(err.is_none());
        prop_assert_eq!(&got, &packets);
        let src = MultiFileSource::open(&paths, MultiFileConfig {
            readers,
            batch_packets: batch,
            queue_batches: 2,
        }).unwrap();
        let (got, err) = drain(src);
        prop_assert!(err.is_none());
        prop_assert_eq!(got, packets);
        std::fs::remove_dir_all(&dir).ok();
    }
}
