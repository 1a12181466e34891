//! Heap and allocation budgets of the compress path's per-flow state
//! and of the decode path's reader, merge and `info` fold.
//!
//! The `#[global_allocator]` below is the benchmark harness's counting
//! allocator extended with live bytes and their high-water mark. It is
//! this test binary's own: the product crates keep the system allocator.
//!
//! Counting is per thread — the harness runs tests on parallel threads,
//! and each measurement only sees the allocations of the thread that
//! asked for it. Live bytes start at zero when a measurement starts, so a
//! block freed during it that predates it can push them below zero; the
//! high-water mark is the most the heap grew above where it stood.
//!
//! Each ceiling is the value measured when it was set plus 25 %. A change
//! that lowers a value ratchets its ceiling down; one that raises it past
//! the ceiling fails here, before any benchmark run.

use flowzip_analysis::TraceComplexity;
use flowzip_core::{
    assemble_layout, ArchiveLayout, ArchiveReader, Compressor, Decompressor, FlowAccumulator,
    FlowAssembler, Params,
};
use flowzip_trace::prelude::*;
use flowzip_trace::FlowKey;
use flowzip_traffic::{
    P2pTrafficConfig, P2pTrafficGenerator, WebTrafficConfig, WebTrafficGenerator,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// Const-initialized and drop-free, so reading them never allocates.
thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Notes an allocator call that changes the live bytes by `delta`.
#[inline]
fn note(call: bool, delta: i64) {
    if ENABLED.get() {
        CALLS.set(CALLS.get() + u64::from(call));
        let live = LIVE.get() + delta;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as i64);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, -(layout.size() as i64));
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What one measured closure cost on its thread's heap.
struct HeapUse {
    /// Allocator calls: alloc + alloc_zeroed + realloc.
    calls: u64,
    /// Most bytes live above the starting point at any moment.
    peak_bytes: u64,
}

/// Runs `f` with counting on and returns its result and heap use.
fn measure<T>(f: impl FnOnce() -> T) -> (T, HeapUse) {
    CALLS.set(0);
    LIVE.set(0);
    PEAK.set(0);
    ENABLED.set(true);
    let out = f();
    ENABLED.set(false);
    let used = HeapUse {
        calls: CALLS.get(),
        peak_bytes: PEAK.get() as u64,
    };
    (out, used)
}

fn web_trace() -> Trace {
    WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 4_000,
            ..WebTrafficConfig::default()
        },
        20_050_320,
    )
    .generate()
}

/// The seeded web trace made dense the way the ledger's `web_dense` is:
/// 20 000 flows started within 2 s, with the FIN and RST packets dropped
/// from every flow whose canonical tuple hashes even, so about half the
/// flows never close.
fn dense_web_trace() -> Trace {
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows: 20_000,
            duration_secs: 2.0,
            ..WebTrafficConfig::default()
        },
        20_050_320,
    )
    .generate();
    Trace::from_packets(
        trace
            .into_packets()
            .into_iter()
            .filter(|p| {
                let tuple = FlowKey::canonical(p.tuple()).tuple();
                !(p.flags().terminates_flow() && tuple.stable_hash().is_multiple_of(2))
            })
            .collect(),
    )
}

/// Four long-lived carriers sharing `packets` by 0.6 / 0.2 / 0.1 / 0.1,
/// as TCP trunking does: a handshake each, then full-size data answered
/// by an ACK every second segment, a FIN each at the end, a packet every
/// 200 µs.
fn trunk_trace(packets: usize) -> Trace {
    const SHARES: [usize; 4] = [6, 2, 1, 1];
    let carriers: Vec<FiveTuple> = (0..SHARES.len() as u8)
        .map(|i| {
            FiveTuple::tcp(
                Ipv4Addr::new(10, 1, 0, i + 1),
                20_000 + u16::from(i),
                Ipv4Addr::new(172, 16, 0, i + 1),
                443,
            )
        })
        .collect();
    // Each carrier's turns, spread over a cycle of ten packets.
    let cycle: Vec<usize> = (0..10)
        .map(|slot| {
            let mut edge = 0;
            SHARES
                .iter()
                .position(|&s| {
                    edge += s;
                    (slot * 7 + 3) % 10 < edge
                })
                .expect("shares sum to ten")
        })
        .collect();

    let mut out = Vec::with_capacity(packets);
    let mut push = |t: FiveTuple, flags: TcpFlags, len: u16| {
        out.push(
            PacketRecord::builder()
                .timestamp(Timestamp::from_micros(out.len() as u64 * 200))
                .tuple(t)
                .flags(flags)
                .payload_len(len)
                .build(),
        );
    };
    for &c in &carriers {
        push(c, TcpFlags::SYN, 0);
        push(c.reversed(), TcpFlags::SYN | TcpFlags::ACK, 0);
    }
    let mut unacked = [0u8; 4];
    for i in 0..packets - 4 * carriers.len() {
        let c = cycle[i % cycle.len()];
        if unacked[c] == 2 {
            push(carriers[c].reversed(), TcpFlags::ACK, 0);
            unacked[c] = 0;
        } else {
            push(carriers[c], TcpFlags::PSH | TcpFlags::ACK, 1460);
            unacked[c] += 1;
        }
    }
    for &c in &carriers {
        push(c, TcpFlags::FIN | TcpFlags::ACK, 0);
        push(c.reversed(), TcpFlags::FIN | TcpFlags::ACK, 0);
    }
    Trace::from_packets(out)
}

#[test]
fn accumulate_allocations_per_packet() {
    let trace = web_trace();
    let packets = trace.packets();
    let (flows, used) = measure(|| {
        let mut acc = FlowAccumulator::new(Params::paper());
        for p in packets {
            acc.push(p);
        }
        acc.flush().count()
    });
    assert!(flows > 3_000, "{flows} flows");
    let per_packet = used.calls as f64 / packets.len() as f64;
    // Measured 0.211 with one byte log per flow; two `Vec`s per flow (an
    // `M` vector and a gap vector) measured 0.332. ROADMAP item 14's
    // target is < 0.02: a short flow that never allocates.
    assert!(
        per_packet <= 0.26,
        "accumulate made {per_packet:.4} allocations per packet (ceiling 0.26)"
    );
}

#[test]
fn dense_accumulate_heap_high_water_per_open_flow() {
    let trace = dense_web_trace();
    let packets = trace.packets();
    let ((flows, peak), used) = measure(|| {
        let params = Params::paper();
        let mut acc = FlowAccumulator::new(params.clone());
        let mut asm = FlowAssembler::new(params);
        // The engine's cadence: finished flows leave after every batch,
        // and the open ones go straight from the table into the assembler.
        for batch in packets.chunks(1024) {
            for p in batch {
                acc.push(p);
            }
            for f in acc.drain_completed() {
                asm.consume(&f);
            }
        }
        let peak = acc.peak_active_flows();
        for f in acc.flush() {
            asm.consume(&f);
        }
        (asm.into_section().flow_count, peak)
    });
    assert!(flows > 19_000, "{flows} flows");
    assert!(peak > 10_000, "peak {peak} open flows");
    let per_open_flow = used.peak_bytes as f64 / peak as f64;
    // Measured 272.7 B per open flow: a ≤ 104 B slab slot and a 24 B
    // index bucket per open flow, each flow's byte log, and the
    // assembler's state. A map of 104 B buckets beside a first-seen order
    // log, with the open flows collected into a `Vec` at the end while
    // the map was still allocated, measured 397.9.
    assert!(
        per_open_flow <= 340.9,
        "accumulate + assemble peaked at {per_open_flow:.1} heap bytes per open flow \
         (ceiling 340.9)"
    );
}

/// Heap high-water per flow of consuming every flow of the seeded web
/// trace into one assembler and writing its section, with the flows
/// finished beforehand (their own heap is not counted).
fn assemble_heap_per_flow(telemetry: bool) -> f64 {
    let trace = web_trace();
    let params = Params::paper();
    let mut acc = FlowAccumulator::with_telemetry(params.clone(), telemetry);
    for p in trace.packets() {
        acc.push(p);
    }
    let flows: Vec<_> = acc.flush().collect();
    let (section, used) = measure(|| {
        let mut asm = FlowAssembler::with_telemetry(params, telemetry);
        for f in &flows {
            asm.consume(f);
        }
        asm.into_section()
    });
    assert_eq!(section.flow_count, flows.len() as u64);
    assert_eq!(section.telemetry.is_some(), telemetry);
    used.peak_bytes as f64 / flows.len() as f64
}

#[test]
fn assemble_heap_high_water_per_flow() {
    let per_flow = assemble_heap_per_flow(false);
    // Measured 54.1 B/flow: one 24 B record per flow in consume order
    // (its `Vec` grown by doubling), then a 4 B index per flow sorted in
    // place, beside the section payload, the Bloom filter and the
    // address table. A 96 B pending record carrying an inline
    // `Option<FlowTelemetry>`, copied into a second 96 B row array and
    // through the stable sort's full-width scratch, measured 219.2.
    assert!(
        per_flow <= 67.6,
        "consume + into_section peaked at {per_flow:.1} heap bytes per flow (ceiling 67.6)"
    );
}

#[test]
fn assemble_heap_high_water_per_flow_with_telemetry() {
    let per_flow = assemble_heap_per_flow(true);
    // Measured 167.5 B/flow: the default path's state plus one 56 B
    // telemetry row per flow in consume order and its copy in the
    // section's record order. Riding inline in every pending record,
    // through the row copy and the sort scratch, it measured 219.2, the
    // same as with telemetry off.
    assert!(
        per_flow <= 209.4,
        "consume + into_section with telemetry peaked at {per_flow:.1} heap bytes per flow \
         (ceiling 209.4)"
    );
}

#[test]
fn trunk_heap_high_water_per_packet() {
    let trace = trunk_trace(200_000);
    let packets = trace.packets();
    let (long_flows, used) = measure(|| {
        let params = Params::paper();
        let mut acc = FlowAccumulator::new(params.clone());
        let mut asm = FlowAssembler::new(params);
        // The engine's cadence: finished flows leave after every batch.
        for batch in packets.chunks(1024) {
            for p in batch {
                acc.push(p);
            }
            for f in acc.drain_completed() {
                asm.consume(&f);
            }
        }
        for f in acc.flush() {
            asm.consume(&f);
        }
        asm.into_section().long_count
    });
    assert_eq!(long_flows, 4);
    let per_packet = used.peak_bytes as f64 / packets.len() as f64;
    // Measured 5.74 B/packet: the carriers' byte logs at ≈ 3 B per
    // packet while they are open, then the section's long-template slice
    // they are appended to. Keeping a 2 B `M` and an 8 B gap per open
    // packet, then a 16 B decoded entry per long-flow packet until the
    // section was written, measured 22.7.
    assert!(
        per_packet <= 7.2,
        "accumulate + assemble peaked at {per_packet:.2} heap bytes per packet (ceiling 7.2)"
    );
}

/// The compress path's heap high-water per archive byte on a seeded p2p
/// trace, where half the flows are long and stored verbatim: accumulate
/// with the engine's drain cadence, flush, write the section, then lay
/// the archive out and stream it into `out`. `write` stands for the
/// sink, given the layout and `out`.
fn p2p_compress_heap_per_archive_byte(
    write: impl FnOnce(ArchiveLayout, &mut std::io::Sink) -> std::io::Result<()>,
) -> f64 {
    let trace = P2pTrafficGenerator::new(
        P2pTrafficConfig {
            flows: 2_000,
            duration_secs: 120.0,
            peers: 1_000,
            ..P2pTrafficConfig::default()
        },
        20_050_320,
    )
    .generate();
    let packets = trace.packets();
    let tsh = flowzip_trace::tsh::file_size(&trace);
    let (archive_bytes, used) = measure(|| {
        let params = Params::paper();
        let mut acc = FlowAccumulator::new(params.clone());
        let mut asm = FlowAssembler::new(params.clone());
        for batch in packets.chunks(1024) {
            for p in batch {
                acc.push(p);
            }
            for f in acc.drain_completed() {
                asm.consume(&f);
            }
        }
        for f in acc.flush() {
            asm.consume(&f);
        }
        let sections = vec![asm.into_section()];
        let (layout, report) = assemble_layout(&params, sections, tsh, trace.header_bytes());
        write(layout, &mut std::io::sink()).expect("a sink takes every write");
        report.sizes.total()
    });
    assert!(archive_bytes > 100_000, "{archive_bytes} archive bytes");
    used.peak_bytes as f64 / archive_bytes as f64
}

#[test]
fn p2p_compress_heap_high_water_per_archive_byte() {
    let per_byte = p2p_compress_heap_per_archive_byte(|layout, out| layout.write_to(out).map(drop));
    // Measured 1.459 heap bytes per archive byte: the section payload,
    // with the long flows' logs appended to it while the last carriers
    // were still open, and the layout's head and trailing blocks beside
    // it; nothing the size of the archive is built. The whole archive
    // copied into one buffer before it was written, beside the section
    // payloads, measured 2.34.
    assert!(
        per_byte <= 1.82,
        "compress peaked at {per_byte:.3} heap bytes per archive byte (ceiling 1.82)"
    );
}

/// Heap high-water of opening `bytes` and draining the §4 merge over
/// every record into a count, with the packet count and peak open flows.
fn decode_heap(bytes: &[u8]) -> (usize, usize, HeapUse) {
    let ((packets, peak_open), used) = measure(|| {
        let reader = ArchiveReader::open(bytes).expect("a valid archive");
        let d = Decompressor::default();
        let mut stream = d.packets(reader.records().expect("valid records"));
        let packets = stream.by_ref().count();
        (packets, stream.peak_open())
    });
    (packets, peak_open, used)
}

#[test]
fn trunk_decode_heap_high_water_per_packet() {
    let trace = trunk_trace(200_000);
    let bytes = Compressor::new(Params::paper())
        .compress(&trace)
        .0
        .to_bytes_v2();
    let (packets, peak_open, used) = decode_heap(&bytes);
    assert_eq!(packets, trace.len());
    assert_eq!(peak_open, 4);
    let per_packet = used.peak_bytes as f64 / packets as f64;
    // Measured 0.0086 B/packet (1.7 KB): the reader's datasets, four
    // long-template offsets and four open cursors, whatever the packet
    // count. Parsing the archive first, with each long template's wire
    // bytes copied (≈ 3 B per packet), measured 3.005; decoding each into
    // a 16 B `(u16, Duration)` per packet measured 16.005.
    assert!(
        per_packet <= 0.0107,
        "open + merge peaked at {per_packet:.4} heap bytes per packet (ceiling 0.0107)"
    );
}

/// The seeded web trace's archive on `shards` sections, and its flow
/// count.
fn web_archive(shards: usize) -> (Vec<u8>, usize) {
    let trace = web_trace();
    let params = Params::paper();
    let mut acc = FlowAccumulator::new(params.clone());
    for p in trace.packets() {
        acc.push(p);
    }
    let flows: Vec<_> = acc.flush().collect();
    let mut asms: Vec<FlowAssembler> = (0..shards)
        .map(|_| FlowAssembler::new(params.clone()))
        .collect();
    for (i, f) in flows.iter().enumerate() {
        asms[i % shards].consume(f);
    }
    let sections = asms.into_iter().map(FlowAssembler::into_section).collect();
    let tsh = flowzip_trace::tsh::file_size(&trace);
    let bytes = flowzip_core::assemble_sections(&params, sections, tsh, trace.header_bytes()).0;
    (bytes, flows.len())
}

#[test]
fn web_decode_heap_high_water_per_flow() {
    let (bytes, flows) = web_archive(2);
    let (packets, _, used) = decode_heap(&bytes);
    assert!(packets > 10 * flows, "{packets} packets");
    let per_flow = used.peak_bytes as f64 / flows as f64;
    // Measured 5.30 B/flow on two sections: the short templates,
    // addresses and section remaps the reader keeps, an offset per long
    // template, the open flows' cursors. Parsing the archive first — 32 B
    // records per section, merged into a second array, and copied long
    // templates — measured 77.4.
    assert!(
        per_flow <= 6.62,
        "open + merge peaked at {per_flow:.2} heap bytes per flow (ceiling 6.62)"
    );
}

#[test]
fn info_fold_heap_high_water_per_flow() {
    let (bytes, flows) = web_archive(2);
    let ((counted, score), used) = measure(|| {
        let reader = ArchiveReader::open(&bytes).expect("a valid archive");
        let records = reader.records().expect("valid records");
        let counted = records.flows();
        (counted, TraceComplexity::from_records(records).score)
    });
    assert_eq!(counted, flows as u64);
    assert!(score > 0.0);
    let per_flow = used.peak_bytes as f64 / flows as f64;
    // Measured 12.19 B/flow: the reader's datasets and one 8 B start time
    // per flow for the burstiness term. Parsing the archive whole, then
    // copying each flow's size and start, measured 77.4.
    assert!(
        per_flow <= 15.2,
        "open + complexity fold peaked at {per_flow:.2} heap bytes per flow (ceiling 15.2)"
    );
}

#[test]
fn into_section_allocations_do_not_grow_with_flows() {
    let trace = web_trace();
    let params = Params::paper();
    let mut acc = FlowAccumulator::new(params.clone());
    for p in trace.packets() {
        acc.push(p);
    }
    let mut asm = FlowAssembler::new(params);
    let flows: Vec<_> = acc.flush().collect();
    for f in &flows {
        asm.consume(f);
    }
    let (section, used) = measure(|| asm.into_section());
    assert_eq!(section.flow_count, flows.len() as u64);
    // Measured 16 at 4 000 flows: the section's vectors and address
    // table, grown by doubling. Collecting each flow's seven Bloom probe
    // positions into a `Vec` before setting them cost one more per flow.
    assert!(
        used.calls <= 20,
        "into_section made {} allocations for {} flows (ceiling 20)",
        used.calls,
        flows.len()
    );
}
