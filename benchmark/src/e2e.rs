//! The untraced run: the paths a user runs, driven through the real
//! CLI one child at a time, timed from outside.
//!
//! Phases go round-robin (compress, compress_mt, decompress,
//! serve_closed, the query battery on the archive, the battery on the
//! rotation directory) until the time budget is spent, so slow drift of
//! the host lands on every phase alike and each metric is summarised
//! over as many rounds as fitted.

use crate::battery::{self, Class, Query};
use crate::child::ChildRun;
use crate::cli::{self, Ctx, Ops};
use crate::fidelity;
use crate::report::Run;
use crate::stats::Summary;
use crate::workloads::{self, Staged};
use flowzip_trace::{pcap, tsh, Trace};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds every run makes, however short its budget.
const MIN_ROUNDS: usize = 3;
/// Queries of each class in the battery.
pub const QUERIES_PER_CLASS: usize = 10;

/// Everything the timed phases need, as set-up leaves it.
pub struct Stage {
    pub trace: Trace,
    pub staged: Staged,
    pub archive: PathBuf,
    pub archive_mt: PathBuf,
    pub restored: PathBuf,
    pub rotation: PathBuf,
}

/// Generates the workload, writes its capture files and runs every
/// timed command once, which both warms the page cache and leaves the
/// archives, the restored capture and the rotation directory in place.
pub fn setup(ctx: &Ctx, ops: &mut Ops) -> io::Result<Stage> {
    let trace = workloads::generate(ctx.workload, ctx.seed, ctx.scale);
    let staged = workloads::stage(ctx.workload, &trace, &ctx.work)?;
    let stage = Stage {
        trace,
        staged,
        archive: ctx.path("A.fzc"),
        archive_mt: ctx.path("A_mt.fzc"),
        restored: ctx.path(if ctx.workload.pcap_split {
            "restored.pcap"
        } else {
            "restored.tsh"
        }),
        rotation: ctx.path("rotation"),
    };
    ctx.compress(&stage.staged, &stage.archive, false, ops)?;
    ctx.compress(&stage.staged, &stage.archive_mt, true, ops)?;
    ctx.decompress(&stage.archive_mt, &stage.restored, ops)?;
    ctx.serve_closed(&stage.staged, &stage.rotation, ops)?;
    Ok(stage)
}

fn read_capture(path: &Path, is_pcap: bool) -> io::Result<Trace> {
    let file = io::BufReader::new(std::fs::File::open(path)?);
    let read = if is_pcap {
        pcap::read_trace(file)
    } else {
        tsh::read_trace(file)
    };
    read.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[derive(Default)]
struct Samples {
    compress: Vec<ChildRun>,
    compress_mt: Vec<ChildRun>,
    decompress: Vec<ChildRun>,
    serve: Vec<ChildRun>,
    query_cpu_ms: Vec<f64>,
    query_dir_cpu_ms: Vec<f64>,
}

fn summary(runs: &[ChildRun], f: impl Fn(&ChildRun) -> f64) -> Summary {
    Summary::of(&runs.iter().map(f).collect::<Vec<_>>())
}

pub fn run(ctx: &Ctx, seconds: f64) -> io::Result<Run> {
    let mut ops = Ops::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut stage = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        stage = Some(setup(ctx, &mut ops)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let stage = stage.expect("SETUPS > 0");
    let packets = stage.trace.len();
    let restored = read_capture(&stage.restored, ctx.workload.pcap_split)?;
    let queries = battery::battery(&restored, ctx.seed, QUERIES_PER_CLASS);

    let mut s = Samples::default();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        s.compress
            .push(ctx.compress(&stage.staged, &stage.archive, false, &mut ops)?);
        s.compress_mt
            .push(ctx.compress(&stage.staged, &stage.archive_mt, true, &mut ops)?);
        s.decompress
            .push(ctx.decompress(&stage.archive_mt, &stage.restored, &mut ops)?);
        s.serve
            .push(ctx.serve_closed(&stage.staged, &stage.rotation, &mut ops)?);
        for (target, sink) in [
            (&stage.archive_mt, &mut s.query_cpu_ms),
            (&stage.rotation, &mut s.query_dir_cpu_ms),
        ] {
            let runs = ctx.battery(target, &queries, &mut ops)?;
            sink.push(runs.iter().map(|r| r.cpu_s).sum::<f64>() / runs.len() as f64 * 1e3);
        }
        rounds += 1;
    }

    let n = packets as f64;
    let pps = |runs: &[ChildRun]| summary(runs, |r| n / r.wall_s);
    let cpu_ns = |runs: &[ChildRun]| summary(runs, |r| r.cpu_s * 1e9 / n);
    let rss = |runs: &[ChildRun]| summary(runs, |r| r.peak_rss_mb);
    let archive_bytes = std::fs::metadata(&stage.archive)?.len();
    let metrics = BTreeMap::from([
        ("setup_s", Summary::of(&setup_s)),
        ("compress_pps", pps(&s.compress)),
        ("compress_cpu_ns_per_pkt", cpu_ns(&s.compress_mt)),
        ("compress_peak_rss_mb", rss(&s.compress)),
        ("compress_mt_peak_rss_mb", rss(&s.compress_mt)),
        (
            "ratio_pct",
            Summary::exact(archive_bytes as f64 / (tsh::RECORD_BYTES as f64 * n) * 100.0),
        ),
        ("decompress_pps", pps(&s.decompress)),
        ("decompress_cpu_ns_per_pkt", cpu_ns(&s.decompress)),
        ("decompress_peak_rss_mb", rss(&s.decompress)),
        ("serve_cpu_ns_per_pkt", cpu_ns(&s.serve)),
        ("serve_peak_rss_mb", rss(&s.serve)),
        ("query_cpu_ms", Summary::of(&s.query_cpu_ms)),
        ("query_dir_cpu_ms", Summary::of(&s.query_dir_cpu_ms)),
    ]);

    let failures = verify(ctx, &stage, &restored, &queries, &mut ops)?;
    Ok(Run {
        workload: ctx.workload.name,
        traced: false,
        metrics,
        ops,
        failures,
        repetitions: rounds,
        packets,
    })
}

/// The correctness checks; each is one operation. Returns the failed
/// ones, worded for a human.
fn verify(
    ctx: &Ctx,
    stage: &Stage,
    restored: &Trace,
    queries: &[Query],
    ops: &mut Ops,
) -> io::Result<Vec<String>> {
    let packets = stage.trace.len() as u64;
    let mut failures = Vec::new();
    let mut check = |ops: &mut Ops, name: &str, result: Result<(), String>| {
        ops.record(result.is_ok());
        if let Err(why) = result {
            failures.push(format!("{name}: {why}"));
        }
    };

    for archive in [&stage.archive, &stage.archive_mt] {
        let info = ctx.info(archive, ops)?;
        let counted = info.and_then(|v| v.num_at("packets"));
        check(
            ops,
            "info --json",
            match counted {
                Ok(n) if n as u64 == packets => Ok(()),
                Ok(n) => Err(format!(
                    "{} holds {n} packets, input has {packets}",
                    archive.display()
                )),
                Err(e) => Err(format!("{}: {e}", archive.display())),
            },
        );
    }

    check(
        ops,
        "decompressed packet count",
        if restored.len() as u64 == packets {
            Ok(())
        } else {
            Err(format!("{} packets out, {packets} in", restored.len()))
        },
    );

    check(
        ops,
        "serve_closed manifest",
        cli::read_manifest(&stage.rotation).and_then(|windows| {
            let stored: u64 = windows.iter().map(|w| w.packets).sum();
            let dropped: u64 = windows.iter().map(|w| w.dropped_packets).sum();
            if dropped == 0 && stored == packets {
                Ok(())
            } else {
                Err(format!(
                    "{stored} stored + {dropped} dropped, {packets} sent"
                ))
            }
        }),
    );

    // Query ≡ filter-after-full-decompress, on two hits and two misses.
    let picked = queries
        .iter()
        .filter(|q| q.class == Class::Hit)
        .take(2)
        .chain(queries.iter().filter(|q| q.class == Class::Miss).take(2));
    for (i, q) in picked.enumerate() {
        let out = ctx.path(&format!("query-{i}.tsh"));
        ctx.query_to_file(&stage.archive_mt, q, &out, ops)?;
        let flow = q.flow.expect("hit and miss queries name a flow");
        let want = tsh::to_bytes(&Trace::from_packets(
            restored
                .packets()
                .iter()
                .filter(|p| p.tuple().same_conversation(&flow))
                .copied()
                .collect(),
        ));
        let got = std::fs::read(&out).unwrap_or_default();
        check(
            ops,
            "query = filter after decompress",
            if got == want && (q.class == Class::Hit) != want.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{:?} {flow}: query wrote {} bytes, filter gives {}",
                    q.class,
                    got.len(),
                    want.len()
                ))
            },
        );
    }

    let measured = fidelity::measure(&stage.trace, restored);
    let recorded = fidelity::expected(ctx.workload.name);
    check(
        ops,
        "statistical fidelity",
        recorded.clone().and_then(|e| e.check(&measured)),
    );
    // The generators are the harness's own: at the recorded seed and
    // scale they must reproduce the recorded input exactly.
    if let Ok(e) = recorded {
        if (e.seed, e.scale_div) == (ctx.seed, ctx.scale.div) {
            let got = (packets, measured.input_flows as u64);
            check(
                ops,
                "generated input",
                if got == (e.packets, e.flows) {
                    Ok(())
                } else {
                    Err(format!(
                        "(packets, flows) = {got:?}, recorded {:?}",
                        (e.packets, e.flows)
                    ))
                },
            );
        }
    }
    Ok(failures)
}
