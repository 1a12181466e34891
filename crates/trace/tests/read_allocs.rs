//! Allocation budget of the capture read path: draining a TSH or pcap
//! stream allocates nothing per packet. Both readers parse each record
//! in place from the `BufRead` buffer, or copy a straddling record's
//! head to the stack, so a reintroduced per-record `Vec` fails here.
//!
//! The `#[global_allocator]` below counts allocator calls per thread,
//! like `crates/core/tests/budgets.rs`. It is this test binary's own: the
//! product crates keep the system allocator.

use flowzip_trace::prelude::*;
use flowzip_trace::{pcap, tsh, PcapReader, TraceError, TshReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, BufReader};

struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// Const-initialized and drop-free, so reading them never allocates.
thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note() {
    if ENABLED.get() {
        CALLS.set(CALLS.get() + 1);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

const RECORDS: u64 = 20_000;

fn trace() -> Trace {
    let mut t = Trace::new();
    for i in 0..RECORDS {
        t.push(
            PacketRecord::builder()
                .timestamp(Timestamp::from_micros(i * 50))
                .src(Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8), 1024)
                .dst(Ipv4Addr::new(192, 0, 2, 1), 80)
                .flags(TcpFlags::ACK)
                .payload_len((i % 1400) as u16)
                .seq(i as u32)
                .build(),
        );
    }
    t
}

/// Drains `packets` with counting on; returns (packets, allocator calls).
fn drain_counted(packets: impl Iterator<Item = Result<PacketRecord, TraceError>>) -> (u64, u64) {
    CALLS.set(0);
    ENABLED.set(true);
    let mut n = 0u64;
    let mut payload = 0u64;
    for p in packets {
        let p = p.expect("a well-formed capture");
        n += 1;
        payload += u64::from(p.payload_len());
    }
    ENABLED.set(false);
    std::hint::black_box(payload);
    (n, CALLS.get())
}

/// The inputs each reader is drained from: the whole image as one
/// slice (every record parsed in place) and a 4 KiB `BufReader`, built
/// before counting starts, where a record straddles the buffer end
/// every few dozen records.
fn streams(bytes: &[u8]) -> [Box<dyn BufRead + '_>; 2] {
    [
        Box::new(bytes),
        Box::new(BufReader::with_capacity(4096, bytes)),
    ]
}

#[test]
fn tsh_reader_allocates_nothing_per_packet() {
    let bytes = tsh::to_bytes(&trace());
    for stream in streams(&bytes) {
        let reader = TshReader::new(stream);
        let (n, calls) = drain_counted(reader);
        assert_eq!(n, RECORDS);
        assert_eq!(calls, 0, "allocator calls draining {RECORDS} TSH records");
    }
}

#[test]
fn pcap_reader_allocates_nothing_per_packet() {
    let bytes = pcap::to_bytes(&trace());
    for stream in streams(&bytes) {
        let reader = PcapReader::new(stream).unwrap();
        let (n, calls) = drain_counted(reader);
        assert_eq!(n, RECORDS);
        assert_eq!(calls, 0, "allocator calls draining {RECORDS} pcap records");
    }
}
