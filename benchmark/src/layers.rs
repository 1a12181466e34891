//! The traced run: the harness calls each layer's public functions
//! itself, in-process, every call inside a span, and reports what one
//! layer costs per packet. End-to-end phases never run here; the only
//! children are the `serve` and `cli` probes, which have no in-process
//! equivalent.
//!
//! One pass runs every probe once; passes repeat until the time budget
//! is spent and each timing is the median over passes. Counts
//! (allocations, flows, bytes) come from the first pass: they repeat
//! exactly.

use crate::battery::{self, Class, Query};
use crate::cli::{self, Ctx, Ops};
use crate::e2e::QUERIES_PER_CLASS;
use crate::fidelity;
use crate::report::Run;
use crate::span::{Timed, Tracer};
use crate::stats::{percentile, Summary};
use crate::workloads;
use flowzip_analysis::analyze_archive;
use flowzip_core::{
    assemble_sections, query_bytes, read_v2, v2_metadata, Decompressor, FinishedFlow,
    FlowAccumulator, FlowAssembler, Params,
};
use flowzip_engine::StreamingEngine;
use flowzip_io::{FileSource, InputSource, MultiFileConfig, MultiFileSource};
use flowzip_obs::Metrics;
use flowzip_pipeline::{Input, Pipeline, PipelineError, Sink};
use flowzip_serve::{OverloadPolicy, PipelineServe, ServeSource};
use flowzip_trace::{
    pcap, tsh, CaptureFormat, Duration, PacketRecord, PcapReader, Timestamp, Trace, TraceError,
    TshReader,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Every pass at least this often, however short the budget.
const MIN_PASSES: usize = 2;
/// Engine batch size, in packets.
const BATCH: usize = 4096;
/// Idle-flow horizon of the `compress_mt` phase, in trace seconds.
const IDLE_SECS: u64 = 5;
/// Offered load of the open-loop `serve` probe.
const OPEN_LOOP_PPS: f64 = 1_000_000.0;
/// `flowzip info` invocations per pass behind `cli.startup_ms`.
const STARTUPS: usize = 10;

/// Per-metric samples, one per pass.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// A count: identical in every pass, so only the first is kept.
    fn exact(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_insert_with(|| vec![value]);
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole * 100.0
    }
}

fn drain(
    packets: impl Iterator<Item = Result<PacketRecord, TraceError>>,
) -> Result<usize, TraceError> {
    let mut n = 0;
    for p in packets {
        black_box(p?);
        n += 1;
    }
    Ok(n)
}

/// The inputs every pass reads, staged once.
struct Inputs {
    trace: Trace,
    tsh_bytes: Vec<u8>,
    pcap_bytes: Vec<u8>,
    tsh_file: PathBuf,
    split_files: Vec<PathBuf>,
    staged: workloads::Staged,
    tiny_archive: PathBuf,
}

fn stage(ctx: &Ctx) -> io::Result<Inputs> {
    let trace = workloads::generate(ctx.workload, ctx.seed, ctx.scale);
    // Both on-disk shapes for every workload, so every probe runs on
    // every workload: the single TSH file and the eight-way pcap split.
    let tsh_bytes = tsh::to_bytes(&trace);
    let tsh_file = ctx.path("input.tsh");
    std::fs::write(&tsh_file, &tsh_bytes)?;
    let split_files = workloads::stage_split(&trace, &ctx.work)?;
    let pcap_bytes = pcap::to_bytes(&trace);
    let staged = workloads::Staged {
        input_arg: if ctx.workload.pcap_split {
            ctx.path("part-*.pcap").to_string_lossy().into_owned()
        } else {
            tsh_file.to_string_lossy().into_owned()
        },
        stream: if ctx.workload.pcap_split {
            pcap_bytes.clone()
        } else {
            tsh_bytes.clone()
        },
    };
    // A one-flow archive: `flowzip info` on it is process start-up.
    let one_flow: Vec<PacketRecord> = trace.packets().iter().take(1).copied().collect();
    let (tiny, _) = engine(1, false, Metrics::disabled())
        .compress_stream_to_bytes(one_flow.into_iter().map(Ok))
        .map_err(invalid)?;
    let tiny_archive = ctx.path("tiny.fzc");
    std::fs::write(&tiny_archive, tiny)?;
    Ok(Inputs {
        trace,
        tsh_bytes,
        pcap_bytes,
        tsh_file,
        split_files,
        staged,
        tiny_archive,
    })
}

fn engine(shards: usize, telemetry: bool, metrics: Metrics) -> StreamingEngine {
    StreamingEngine::builder()
        .shards(shards)
        .batch_size(BATCH)
        .idle_timeout(Some(Duration::from_secs(IDLE_SECS)))
        .telemetry(telemetry)
        .metrics(metrics)
        .build()
}

/// What the core chain of one pass leaves for the later phases.
struct Chain {
    restored: Trace,
    /// CPU seconds of the layer calls that make up a compress session
    /// (read excluded) and a decompress session (capture encode excluded).
    compress_cpu: f64,
    decompress_cpu: f64,
    /// accumulate_evict + cluster + encode wall, per packet.
    stages_ns_per_pkt: f64,
}

/// Returns the run and its spans as chrome trace-event JSON.
pub fn run(ctx: &Ctx, seconds: f64) -> io::Result<(Run, String)> {
    let mut t = Tracer::new(ctx.workload.name);
    let mut ops = Ops::default();
    let mut failures = Vec::new();
    let mut s = Samples::default();
    let root = t.enter("workload");

    let phase = t.enter("setup");
    let inputs = stage(ctx)?;
    let n = inputs.trace.len() as f64;
    t.count(phase, "packets", n);
    t.exit(phase);

    let mut queries: Option<Vec<Query>> = None;
    let mut query_walls_ms = Vec::new();
    let started = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let capture_cpu =
            trace_and_io(&mut t, &mut s, &inputs, ctx.workload.pcap_split).map_err(invalid)?;
        let chain = core_chain(&mut t, &mut s, &inputs).map_err(invalid)?;
        if passes == 0 {
            let f = fidelity::measure(&inputs.trace, &chain.restored);
            s.exact("core.fidelity_ks_len", f.ks_len);
            s.exact("core.fidelity_ks_dur", f.ks_dur);
            s.exact("core.fidelity_ks_gap", f.ks_gap);
            let check = fidelity::expected(ctx.workload.name).and_then(|e| e.check(&f));
            ops.record(check.is_ok());
            failures.extend(
                check
                    .err()
                    .map(|why| format!("statistical fidelity: {why}")),
            );
        }
        let queries = queries
            .get_or_insert_with(|| battery::battery(&chain.restored, ctx.seed, QUERIES_PER_CLASS));
        let archive2 =
            engine_phase(&mut t, &mut s, &inputs, chain.stages_ns_per_pkt).map_err(invalid)?;
        query_phase(&mut t, &mut s, &archive2, queries).map_err(invalid)?;
        let mt_wall = pipeline_phase(
            &mut t,
            &mut s,
            ctx,
            &inputs,
            &chain,
            &capture_cpu,
            passes % 2 == 1,
        )
        .map_err(invalid)?;
        serve_phase(&mut t, &mut s, ctx, &inputs, &mut ops).map_err(invalid)?;
        query_walls_ms.extend(cli_phase(
            &mut t, &mut s, ctx, &inputs, queries, mt_wall, &mut ops,
        )?);
        passes += 1;
    }
    t.count(root, "packets", n);
    t.count(root, "passes", passes as f64);
    t.exit(root);

    let mut metrics: BTreeMap<&'static str, Summary> =
        s.0.into_iter()
            .map(|(name, v)| (name, Summary::of(&v)))
            .collect();
    metrics.insert(
        "cli.query_p90_ms",
        Summary::exact(percentile(&query_walls_ms, 90.0)),
    );
    let run = Run {
        workload: ctx.workload.name,
        traced: true,
        metrics,
        ops,
        failures,
        repetitions: passes,
        packets: inputs.trace.len(),
    };
    Ok((run, t.chrome_json()))
}

/// CPU seconds of the capture-side layer calls a session of this
/// workload makes: its read path and its capture encoder.
struct CaptureCpu {
    read: f64,
    encode: f64,
}

/// `trace` and `io`: capture codecs on memory, readers on files.
fn trace_and_io(
    t: &mut Tracer,
    s: &mut Samples,
    inp: &Inputs,
    split_input: bool,
) -> Result<CaptureCpu, TraceError> {
    let n = inp.trace.len() as f64;

    let phase = t.enter("trace");
    let r = t
        .timed("trace.tsh_decode", || {
            drain(TshReader::new(&inp.tsh_bytes[..]))
        })
        .transpose()?;
    s.push("trace.tsh_decode_ns_per_pkt", r.secs * 1e9 / n);
    s.exact("trace.tsh_decode_allocs_per_pkt", r.allocs as f64 / n);
    let mut buf = Vec::with_capacity(inp.pcap_bytes.len());
    let r = t
        .timed("trace.tsh_encode", || {
            tsh::write_trace(&mut buf, &inp.trace)
        })
        .transpose()?;
    s.push("trace.tsh_encode_ns_per_pkt", r.secs * 1e9 / n);
    let tsh_encode_cpu = r.cpu_secs;
    let r = t
        .timed("trace.pcap_decode", || {
            PcapReader::new(&inp.pcap_bytes[..]).and_then(drain)
        })
        .transpose()?;
    s.push("trace.pcap_decode_ns_per_pkt", r.secs * 1e9 / n);
    buf.clear();
    let r = t
        .timed("trace.pcap_encode", || {
            pcap::write_trace(&mut buf, &inp.trace)
        })
        .transpose()?;
    s.push("trace.pcap_encode_ns_per_pkt", r.secs * 1e9 / n);
    let pcap_encode_cpu = r.cpu_secs;
    black_box(&buf);
    t.exit(phase);

    let phase = t.enter("io");
    let file = FileSource::open(&inp.tsh_file)?;
    let single = t
        .timed("io.file_read", || drain(file.into_packets()))
        .transpose()?;
    s.push("io.file_read_ns_per_pkt", single.secs * 1e9 / n);
    let file = FileSource::open_prefetched(&inp.tsh_file, Default::default())?;
    let r = t
        .timed("io.prefetch_read", || drain(file.into_packets()))
        .transpose()?;
    s.push("io.prefetch_read_ns_per_pkt", r.secs * 1e9 / n);
    let multi = MultiFileSource::open(&inp.split_files, MultiFileConfig::with_readers(2))?;
    let stats = multi.stats();
    let split = t
        .timed("io.multifile_read", || drain(multi.into_packets()))
        .transpose()?;
    s.push("io.multifile_read_ns_per_pkt", split.secs * 1e9 / n);
    s.push(
        "io.read_wait_share",
        pct(stats.read_wait_secs(), split.secs),
    );
    t.exit(phase);

    // The split workload is read through the multi-file path and written
    // back as pcap; the others through the single-file path, as TSH.
    Ok(if split_input {
        CaptureCpu {
            read: split.cpu_secs,
            encode: pcap_encode_cpu,
        }
    } else {
        CaptureCpu {
            read: single.cpu_secs,
            encode: tsh_encode_cpu,
        }
    })
}

/// `core`: accumulate → cluster → encode → parse → synthesize, each
/// stage fed by the one before, as one shard of the engine chains them.
fn core_chain(t: &mut Tracer, s: &mut Samples, inp: &Inputs) -> Result<Chain, String> {
    let n = inp.trace.len() as f64;
    let packets = inp.trace.packets();
    let phase = t.enter("core");

    let r = t.timed("core.accumulate", || {
        let mut acc = FlowAccumulator::new(Params::paper());
        for p in packets {
            acc.push(p);
        }
        let peak = acc.peak_active_flows();
        (acc.finish().len(), peak)
    });
    s.push("core.accumulate_ns_per_pkt", r.secs * 1e9 / n);
    s.exact("core.accumulate_allocs_per_pkt", r.allocs as f64 / n);
    s.exact("core.peak_active_flows", r.out.1 as f64);

    // The engine's cadence: finished flows leave after every batch, idle
    // ones are looked for once per quarter of the horizon of trace time.
    let evict = t.timed("core.accumulate_evict", || {
        let horizon_us = IDLE_SECS * 1_000_000;
        let mut acc = FlowAccumulator::new(Params::paper());
        let mut flows: Vec<FinishedFlow> = Vec::new();
        let mut next_scan_us = 0;
        for batch in packets.chunks(BATCH) {
            for p in batch {
                acc.push(p);
            }
            let newest_us = batch[batch.len() - 1].timestamp().as_micros();
            if newest_us >= next_scan_us {
                acc.evict_idle(Timestamp::from_micros(newest_us.saturating_sub(horizon_us)));
                next_scan_us = newest_us + horizon_us / 4;
            }
            flows.append(&mut acc.drain_completed());
        }
        let evicted = acc.evicted_flows();
        flows.append(&mut acc.finish());
        (flows, evicted)
    });
    s.push("core.accumulate_evict_ns_per_pkt", evict.secs * 1e9 / n);
    s.exact("core.evicted_flows", evict.out.1 as f64);
    let flows = evict.out.0;
    let f = flows.len() as f64;

    let cluster = t.timed("core.cluster", || {
        let mut asm = FlowAssembler::new(Params::paper());
        for flow in &flows {
            asm.consume(flow);
        }
        asm
    });
    s.push("core.cluster_ns_per_flow", cluster.secs * 1e9 / f);
    s.exact("core.cluster_allocs_per_flow", cluster.allocs as f64 / f);

    let asm = cluster.out;
    let tsh_len = inp.tsh_bytes.len() as u64;
    let encode = t.timed("core.encode", || {
        assemble_sections(&Params::paper(), vec![asm.into_section()], tsh_len, tsh_len).0
    });
    s.push("core.encode_ns_per_pkt", encode.secs * 1e9 / n);
    s.exact("core.encode_bytes_per_pkt", encode.out.len() as f64 / n);

    let parse = t.timed("core.parse", || read_v2(&encode.out));
    s.push("core.parse_ns_per_pkt", parse.secs * 1e9 / n);
    let ct = parse.out.map_err(|e| e.to_string())?;

    let short = ct.time_seq.iter().filter(|r| !r.is_long).count() as f64;
    let templates = ct.short_templates.len() as f64;
    s.exact("core.templates", templates);
    s.exact("core.template_hit_rate", pct(short - templates, short));
    s.exact(
        "core.short_flow_share",
        pct(short, ct.time_seq.len() as f64),
    );
    s.exact(
        "core.complexity_score",
        analyze_archive(&encode.out)
            .map_err(|e| e.to_string())?
            .complexity
            .score,
    );

    let synth = t.timed("core.synth", || {
        Decompressor::new(Default::default()).decompress(&ct)
    });
    s.push("core.synth_ns_per_pkt", synth.secs * 1e9 / n);
    s.exact("core.synth_allocs_per_pkt", synth.allocs as f64 / n);
    t.count(phase, "flows", f);
    t.exit(phase);

    Ok(Chain {
        restored: synth.out,
        compress_cpu: evict.cpu_secs + cluster.cpu_secs + encode.cpu_secs,
        decompress_cpu: parse.cpu_secs + synth.cpu_secs,
        stages_ns_per_pkt: (evict.secs + cluster.secs + encode.secs) * 1e9 / n,
    })
}

/// `engine`: the sharded streaming engine, default routing. Returns the
/// two-shard archive for the query probes.
fn engine_phase(
    t: &mut Tracer,
    s: &mut Samples,
    inp: &Inputs,
    stages_ns_per_pkt: f64,
) -> Result<Vec<u8>, String> {
    let n = inp.trace.len() as f64;
    let packets = inp.trace.packets();
    let compress = |t: &mut Tracer, name: &str, e: StreamingEngine| {
        let r = t.timed(name, || {
            e.compress_stream_to_bytes(packets.iter().map(|p| Ok(*p)))
                .map(|(bytes, _report)| bytes)
        });
        r.out
            .map(|bytes| (bytes, r.secs, r.allocs))
            .map_err(|e| e.to_string())
    };
    let phase = t.enter("engine");

    let (_, one, allocs) = compress(t, "engine.shards1", engine(1, false, Metrics::disabled()))?;
    s.push("engine.shards1_ns_per_pkt", one * 1e9 / n);
    s.exact("engine.allocs_per_pkt", allocs as f64 / n);
    s.push(
        "engine.fabric_ns_per_pkt",
        one * 1e9 / n - stages_ns_per_pkt,
    );

    let (archive2, two, _) = compress(t, "engine.shards2", engine(2, false, Metrics::disabled()))?;
    s.push("engine.shards2_ns_per_pkt", two * 1e9 / n);
    let meta = v2_metadata(&archive2)
        .map_err(|e| e.to_string())?
        .ok_or("two-shard archive carries no section metadata")?;
    let per_section: Vec<f64> = meta.sections.iter().map(|m| m.packets as f64).collect();
    let mean = per_section.iter().sum::<f64>() / per_section.len() as f64;
    s.exact(
        "engine.shard_skew",
        per_section.iter().copied().fold(0.0, f64::max) / mean,
    );

    let (_, telemetry, _) = compress(
        t,
        "engine.shards2_telemetry",
        engine(2, true, Metrics::disabled()),
    )?;
    s.push("engine.telemetry_overhead_pct", pct(telemetry - two, two));
    let (_, metered, _) = compress(
        t,
        "engine.shards1_metrics",
        engine(1, false, Metrics::enabled()),
    )?;
    s.push("obs.metrics_overhead_pct", pct(metered - one, one));
    t.exit(phase);
    Ok(archive2)
}

/// `core.query_*`: the planner on the two-section archive, per class.
fn query_phase(
    t: &mut Tracer,
    s: &mut Samples,
    archive: &[u8],
    queries: &[Query],
) -> Result<(), String> {
    let phase = t.enter("query");
    let (mut scanned, mut total) = (0u64, 0u64);
    for (class, name, metric) in [
        (Class::Hit, "core.query_hit", "core.query_hit_us"),
        (Class::Miss, "core.query_miss", "core.query_miss_us"),
        (Class::Window, "core.query_window", "core.query_window_us"),
    ] {
        let of_class: Vec<&Query> = queries.iter().filter(|q| q.class == class).collect();
        let r = t.timed(name, || {
            of_class
                .iter()
                .map(|q| query_bytes(archive, &q.core(), &Default::default()).map(|o| o.stats))
                .collect::<Result<Vec<_>, _>>()
        });
        s.push(metric, r.secs * 1e6 / of_class.len() as f64);
        for stats in r.out.map_err(|e| e.to_string())? {
            scanned += stats.sections_scanned;
            total += stats.sections_total;
        }
    }
    s.exact(
        "core.query_sections_scanned_share",
        pct(scanned as f64, total as f64),
    );
    t.exit(phase);
    Ok(())
}

/// `pipeline`: whole sessions file → file with the CLI phases' settings,
/// once traced and once not. Returns the traced `compress_mt` wall.
fn pipeline_phase(
    t: &mut Tracer,
    s: &mut Samples,
    ctx: &Ctx,
    inp: &Inputs,
    chain: &Chain,
    capture_cpu: &CaptureCpu,
    untraced_first: bool,
) -> Result<f64, String> {
    let n = inp.trace.len() as f64;
    let archive = ctx.path("pipeline.fzc");
    let archive_mt = ctx.path("pipeline_mt.fzc");
    let restored = ctx.path("pipeline.restored");
    let input = || {
        if ctx.workload.pcap_split {
            Input::glob(inp.staged.input_arg.clone())
        } else {
            Input::file(&inp.tsh_file)
        }
    };
    let sessions = |t: &mut Tracer| -> Result<[Timed<()>; 3], String> {
        let c = t.timed("pipeline.compress", || {
            Pipeline::compress()
                .input(input())
                .sink(Sink::file(&archive))
                .run()
                .map(drop)
        });
        let mt = t.timed("pipeline.compress_mt", || {
            Pipeline::compress()
                .input(input())
                .sink(Sink::file(&archive_mt))
                .threads(2)
                .idle_timeout(Duration::from_secs(IDLE_SECS))
                .run()
                .map(drop)
        });
        let d = t.timed("pipeline.decompress", || {
            Pipeline::decompress()
                .input(Input::file(&archive_mt))
                .sink(Sink::file(&restored))
                .output_format(if ctx.workload.pcap_split {
                    CaptureFormat::Pcap
                } else {
                    CaptureFormat::Tsh
                })
                .run()
                .map(drop)
        });
        let ok = |r: Timed<Result<(), PipelineError>>| r.transpose().map_err(|e| e.to_string());
        Ok([ok(c)?, ok(mt)?, ok(d)?])
    };

    let phase = t.enter("pipeline");
    // Alternate which side goes first so neither always runs warm.
    let run_side = |t: &mut Tracer, traced: bool| {
        t.enabled = traced;
        let r = sessions(t);
        t.enabled = true;
        r
    };
    let (on, off) = if untraced_first {
        let off = run_side(t, false)?;
        (run_side(t, true)?, off)
    } else {
        let on = run_side(t, true)?;
        (on, run_side(t, false)?)
    };
    t.exit(phase);

    let [c, mt, d] = &on;
    s.push("pipeline.compress_ns_per_pkt", c.secs * 1e9 / n);
    s.push("pipeline.compress_mt_ns_per_pkt", mt.secs * 1e9 / n);
    s.push("pipeline.decompress_ns_per_pkt", d.secs * 1e9 / n);
    s.push(
        "pipeline.compress_cpu_unattributed_pct",
        pct(
            mt.cpu_secs - capture_cpu.read - chain.compress_cpu,
            mt.cpu_secs,
        ),
    );
    s.push(
        "pipeline.decompress_cpu_unattributed_pct",
        pct(
            d.cpu_secs - chain.decompress_cpu - capture_cpu.encode,
            d.cpu_secs,
        ),
    );
    let total = |side: &[Timed<()>; 3]| side.iter().map(|r| r.secs).sum::<f64>();
    s.push(
        "bench.trace_overhead_pct",
        pct(total(&on) - total(&off), total(&off)),
    );
    Ok(mt.secs)
}

/// `serve`: the daemon in-process, then as a child closed-loop (what
/// rotation costs, and the wall-clock rate the untraced run does not
/// gate) and open-loop at a fixed offered rate (whether it keeps up, and
/// how soon a window is published).
fn serve_phase(
    t: &mut Tracer,
    s: &mut Samples,
    ctx: &Ctx,
    inp: &Inputs,
    ops: &mut Ops,
) -> Result<(), String> {
    let n = inp.trace.len() as f64;
    let phase = t.enter("serve");

    let dir = ctx.path("serve-inproc");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let packets = inp.trace.packets().to_vec();
    let r = t.timed("serve.inproc", || {
        Pipeline::serve()
            .source(ServeSource::packets(packets.into_iter().map(Ok)))
            .out_dir(&dir)
            .rotate_packets(ctx.scale.rotate_packets())
            .threads(2)
            .overload(OverloadPolicy::Block)
            .start()
            .and_then(|session| session.wait())
            .map(drop)
    });
    r.out.map_err(|e| e.to_string())?;
    s.push("serve.inproc_ns_per_pkt", r.secs * 1e9 / n);

    // One-shot reference for the rotation overheads: the same engine
    // settings without boundaries, i.e. this pass's pipeline_mt archive.
    let oneshot = std::fs::read(ctx.path("pipeline_mt.fzc")).map_err(|e| e.to_string())?;
    let oneshot_flows = read_v2(&oneshot).map_err(|e| e.to_string())?.time_seq.len() as f64;
    let rotation = ctx.path("rotation");
    let span = t.enter("serve.closed_loop");
    let closed = ctx
        .serve_closed(&inp.staged, &rotation, ops)
        .map_err(|e| e.to_string())?;
    t.exit(span);
    let windows = cli::read_manifest(&rotation)?;
    let bytes: u64 = windows.iter().map(|w| w.bytes).sum();
    let flows: u64 = windows.iter().map(|w| w.flows).sum();
    s.exact(
        "serve.rotation_bytes_overhead_pct",
        pct(bytes as f64 - oneshot.len() as f64, oneshot.len() as f64),
    );
    s.exact(
        "serve.rotation_flow_inflation_pct",
        pct(flows as f64 - oneshot_flows, oneshot_flows),
    );
    s.push("cli.serve_pps", n / closed.wall_s);

    // Open loop: BATCH-packet chunks on a fixed schedule; the capture
    // header, if the format has one, rides with the first chunk.
    let stream = &inp.staged.stream;
    let record = if ctx.workload.pcap_split {
        (stream.len() - 24) / inp.trace.len()
    } else {
        tsh::RECORD_BYTES
    };
    let header = stream.len() - record * inp.trace.len();
    let mut chunks: Vec<&[u8]> = Vec::new();
    let mut at = 0;
    while at < stream.len() {
        let end = (at + record * BATCH + if at == 0 { header } else { 0 }).min(stream.len());
        chunks.push(&stream[at..end]);
        at = end;
    }
    let open_dir = ctx.path("serve-open");
    let span = t.enter("serve.open_loop");
    let open = ctx
        .serve_open(&chunks, BATCH, OPEN_LOOP_PPS, &open_dir, ops)
        .map_err(|e| e.to_string())?;
    t.exit(span);
    let windows = cli::read_manifest(&open_dir)?;
    let mut sent = 0u64;
    let mut publish_ms = Vec::with_capacity(windows.len());
    for w in &windows {
        // A window with refused packets is a failed operation.
        ops.record(w.dropped_packets == 0);
        sent += w.packets + w.dropped_packets;
        // Due time of the chunk that carried the window's last packet.
        let due_ms = open.start_unix_ms
            + ((sent - 1) / BATCH as u64 * BATCH as u64) as f64 / OPEN_LOOP_PPS * 1e3;
        publish_ms.push((w.closed_unix_ms as f64 - due_ms).max(0.0));
    }
    let dropped: u64 = windows.iter().map(|w| w.dropped_packets).sum();
    t.count(span, "windows", windows.len() as f64);
    t.count(span, "dropped_packets", dropped as f64);
    s.push("serve.window_publish_ms_p50", percentile(&publish_ms, 50.0));
    s.push(
        "serve.window_publish_ms_max",
        publish_ms.iter().copied().fold(0.0, f64::max),
    );
    s.push("serve.generator_late_ms_max", open.late_ms_max);
    s.push("serve.windows", windows.len() as f64);
    s.push("serve.dropped_packets", dropped as f64);
    t.exit(phase);
    Ok(())
}

/// `cli`: what the binary adds around the library. Returns the
/// per-query walls of this pass in milliseconds.
fn cli_phase(
    t: &mut Tracer,
    s: &mut Samples,
    ctx: &Ctx,
    inp: &Inputs,
    queries: &[Query],
    pipeline_mt_wall: f64,
    ops: &mut Ops,
) -> io::Result<Vec<f64>> {
    let n = inp.trace.len() as f64;
    let phase = t.enter("cli");

    let span = t.enter("cli.startup");
    let mut startups = Vec::with_capacity(STARTUPS);
    for _ in 0..STARTUPS {
        startups.push(ctx.info_timed(&inp.tiny_archive, ops)?.wall_s * 1e3);
    }
    t.exit(span);
    s.push("cli.startup_ms", percentile(&startups, 50.0));

    let archive_mt = ctx.path("A_mt.fzc");
    let span = t.enter("cli.compress_mt");
    let mt = ctx.compress(&inp.staged, &archive_mt, true, ops)?;
    t.exit(span);
    s.push(
        "cli.compress_overhead_ns_per_pkt",
        (mt.wall_s - pipeline_mt_wall) * 1e9 / n,
    );
    s.push("cli.compress_mt_pps", n / mt.wall_s);

    let span = t.enter("cli.query_battery");
    let mut walls_ms = Vec::with_capacity(queries.len() * 2);
    for (target, metric) in [
        (archive_mt, "cli.query_ms"),
        (ctx.path("rotation"), "cli.query_dir_ms"),
    ] {
        let runs = ctx.battery(&target, queries, ops)?;
        s.push(
            metric,
            runs.iter().map(|r| r.wall_s).sum::<f64>() / runs.len() as f64 * 1e3,
        );
        walls_ms.extend(runs.iter().map(|r| r.wall_s * 1e3));
    }
    t.count(span, "queries", walls_ms.len() as f64);
    t.exit(span);
    t.exit(phase);
    Ok(walls_ms)
}
