//! End-to-end flow-telemetry pins over the session API:
//!
//! * Loss episodes the traffic generators inject come back out of the
//!   archive as the retransmission classes the accumulator is supposed
//!   to detect — fast (triple dup-ACK) for the Web model, timeout for
//!   the P2P model.
//! * `--telemetry` is byte-identity-neutral: the rev 2.2 archive is the
//!   rev 2.1 archive plus a pure `FZT1` suffix, and a pre-2.2 reader
//!   decodes both to the same `CompressedTrace` (proptest over random
//!   traces, shard counts and loss rates).

use flowzip_core::{ArchiveReader, CompressedTrace};
use flowzip_pipeline::{Input, Pipeline, Sink};
use flowzip_trace::Trace;
use flowzip_traffic::p2p::{P2pTrafficConfig, P2pTrafficGenerator};
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use proptest::prelude::*;

fn web_trace(flows: usize, loss_prob: f64, seed: u64) -> Trace {
    WebTrafficGenerator::new(
        WebTrafficConfig {
            flows,
            duration_secs: 20.0,
            loss_prob,
            ..WebTrafficConfig::default()
        },
        seed,
    )
    .generate()
}

fn compress(trace: &Trace, telemetry: bool, threads: usize) -> (Vec<u8>, flowzip_pipeline::Report) {
    let result = Pipeline::compress()
        .input(Input::trace(trace))
        .sink(Sink::bytes())
        .threads(threads)
        .telemetry(telemetry)
        .run()
        .unwrap();
    let report = result.report.clone();
    (result.into_bytes().unwrap(), report)
}

#[test]
fn web_losses_surface_as_fast_retransmissions() {
    let trace = web_trace(200, 0.4, 91);
    let (_, report) = compress(&trace, true, 2);
    let t = report.archive.unwrap().telemetry.expect("telemetry on");
    assert_eq!(t.flows, 200);
    assert!(
        t.retrans_fast >= 40,
        "≈40% of 200 flows lost a segment, got {} fast retransmits",
        t.retrans_fast
    );
    // The dup-ACK train precedes every injected resend, so none of them
    // may fall back to the timeout class.
    assert_eq!(t.retrans_timeout, 0, "web loss model recovers via dup-ACKs");
    // Handshake RTTs were scripted lognormal around 80 ms.
    assert!(t.rtt_flows == 200, "every web flow handshakes");
    assert!(
        (20_000..=400_000).contains(&t.mean_rtt_us),
        "mean rtt {} µs",
        t.mean_rtt_us
    );
    assert!(t.p95_rtt_us >= t.mean_rtt_us);
}

#[test]
fn p2p_losses_surface_as_timeout_retransmissions() {
    let trace = P2pTrafficGenerator::new(
        P2pTrafficConfig {
            flows: 40,
            duration_secs: 20.0,
            loss_prob: 0.3,
            ..P2pTrafficConfig::default()
        },
        92,
    )
    .generate();
    let (_, report) = compress(&trace, true, 2);
    let t = report.archive.unwrap().telemetry.expect("telemetry on");
    assert_eq!(t.flows, 40);
    assert!(
        t.retrans_timeout >= 20,
        "~30% of every burst times out, got {}",
        t.retrans_timeout
    );
    // P2P has no pure-ACK stream, so nothing can look like a triple
    // dup-ACK recovery.
    assert_eq!(t.retrans_fast, 0);
}

#[test]
fn loss_free_traces_report_zero_retransmissions() {
    let trace = web_trace(80, 0.0, 93);
    let (_, report) = compress(&trace, true, 1);
    let t = report.archive.unwrap().telemetry.expect("telemetry on");
    assert_eq!((t.retrans_fast, t.retrans_timeout), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole neutrality pin: for random traces (with and without
    /// loss episodes) and shard counts, the telemetry archive is the
    /// plain archive plus a pure suffix — stripping `FZT1` restores the
    /// rev 2.1 bytes exactly, and both decode identically.
    #[test]
    fn telemetry_is_a_pure_archive_suffix(
        flows in 10usize..50,
        seed in 0u64..300,
        shards in 1usize..4,
        lossy in any::<bool>(),
    ) {
        let trace = web_trace(flows, if lossy { 0.3 } else { 0.0 }, seed);
        let (off, _) = compress(&trace, false, shards);
        let (on, _) = compress(&trace, true, shards);
        prop_assert!(on.len() > off.len());
        prop_assert_eq!(&on[..off.len()], &off[..], "FZT1 must be a pure suffix");
        // A pre-2.2 reader sees one and the same archive.
        let decoded_on = CompressedTrace::from_bytes(&on).unwrap();
        let decoded_off = CompressedTrace::from_bytes(&off).unwrap();
        prop_assert_eq!(decoded_on, decoded_off);
        // The suffix itself is well-formed and row-complete.
        let on = ArchiveReader::open(&on).unwrap();
        prop_assert_eq!(on.telemetry().expect("FZT1 present").flow_count(), flows as u64);
        prop_assert!(ArchiveReader::open(&off).unwrap().telemetry().is_none());
    }
}
