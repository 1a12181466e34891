//! `flowzip` — command-line front end for the trace compressor.
//!
//! ```text
//! flowzip generate   --flows 2000 --secs 60 --seed 42 -o web.tsh
//! flowzip stats      web.tsh
//! flowzip compress   web.tsh -o web.fzc
//! flowzip compress   web.pcap -o web.fzc --idle-timeout 60
//! flowzip compress   chunk-00.tsh chunk-01.tsh chunk-02.tsh -o web.fzc
//! flowzip compress   'trace-*.tsh' -o web.fzc
//! flowzip compress   web.tsh -o web.fzc --stats-interval 1 --metrics --json
//! flowzip compress   web.tsh -o web.fzc --profile trace.json
//! flowzip info       web.fzc [--json]
//! flowzip decompress web.fzc -o web-restored.tsh [--json] [--out-format tsh|pcap]
//! flowzip query      web.fzc --flow 172.20.1.9:4242->193.5.9.1:80 [--from 0 --to 30] [--json]
//! flowzip synth      web.fzc --flows 10000 -o scaled.tsh
//! ```
//!
//! Every subcommand that compresses, decompresses or inspects is a thin
//! shell over `flowzip::pipeline` — the CLI just maps flags onto one
//! [`Pipeline`] session and prints the unified [`Report`] (human text or,
//! with `--json`, the one stable `Report::to_json()` schema shared by
//! `compress`, `decompress` and `info`).
//!
//! Compression input is TSH (the NLANR 44-byte-record format) or pcap,
//! auto-detected from the file magic; pcap streams through `PcapReader`
//! without loading the capture whole. `.fzc` archives are always written
//! in container v2 (magic `FZC2`, per-shard sections); reading (`info` /
//! `decompress` / `query` / `synth`) transparently accepts the original
//! single-blob v1 layout too.
//!
//! There is one compress route — the sharded streaming engine — and
//! `--threads N` is the one flag that sets its shard count. Left unset,
//! every input runs on one shard, inline and byte-identical on every
//! host: one file, or several (an explicit list or a quoted `*`/`?` glob,
//! streamed as *one* logical trace in argument order, each file read in
//! turn on the main thread). `--idle-timeout 0` means "off".
//!
//! Flags are checked against the command's own section of [`USAGE`]: an
//! unknown or misplaced `--flag` is an error, never silently ignored.

use flowzip::analysis::TraceComplexity;
use flowzip::core::{synthesize, ArchiveReader};
use flowzip::obs::json::JsonObject;
use flowzip::obs::log::{self, Level};
use flowzip::obs::{Metrics, Profiler, SnapshotFormat};
use flowzip::pipeline::{
    ArchiveSummary, Input, PartFile, Pipeline, PipelineError, QueryBuilder, Report, Sink,
};
use flowzip::prelude::*;
use flowzip::serve::{signal, OverloadPolicy, PipelineServe, ServeError, ServeSource};
use flowzip::trace::reader::CaptureFormat;
use flowzip::trace::tsh;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// `println!` that never panics: see [`print_line`].
macro_rules! out {
    ($($arg:tt)*) => {
        print_line(format_args!($($arg)*))
    };
}

/// Writes one line to stdout. A closed pipe (`flowzip info x.fzc | head
/// -1`) is a quiet exit with status 141, what a shell reports for a
/// SIGPIPE death: whatever the command wrote to disk is complete, and
/// nobody is left to read the rest. Any other failure exits 1.
fn print_line(line: std::fmt::Arguments<'_>) {
    write_line(&mut std::io::stdout().lock(), "stdout", line);
}

/// [`print_line`] on any stream; `name` is the stream's, for the error.
fn write_line(w: &mut dyn std::io::Write, name: &str, line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(128 + 13);
        }
        // Not `eprintln!`: it panics when stderr is the stream that failed.
        let _ = writeln!(std::io::stderr(), "error: write {name}: {e}");
        std::process::exit(1);
    }
}

/// Whether `out` is this process's own standard output reached through
/// a descriptor link (`-o /dev/stdout`, `-o /dev/fd/1`), be stdout a
/// pipe, a terminal or a redirected file: the command's report then goes
/// to stderr, so that stdout carries its output and nothing else. A path
/// that merely names the same file (`-o /dev/null > /dev/null`) keeps
/// the report on stdout.
#[cfg_attr(not(unix), allow(unused_variables))]
fn is_own_stdout(out: &Path) -> bool {
    #[cfg(unix)]
    if PartFile::names_a_descriptor(out) {
        use std::os::unix::fs::MetadataExt;
        if let (Ok(a), Ok(b)) = (std::fs::metadata(out), std::fs::metadata("/dev/stdout")) {
            return (a.dev(), a.ino()) == (b.dev(), b.ino());
        }
    }
    false
}

/// [`print_line`], or the same on stderr when stdout carries the
/// command's output.
fn report_line(to_stderr: bool, line: std::fmt::Arguments<'_>) {
    if to_stderr {
        write_line(&mut std::io::stderr().lock(), "stderr", line);
    } else {
        print_line(line);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            // The command's own section, or the whole text when there is
            // no (known) command to narrow it to.
            match args.first().and_then(|cmd| Some((cmd, usage_of(cmd)?))) {
                Some((cmd, section)) => {
                    eprintln!("usage:\n  flowzip {cmd} {section}\n\n{}", global_usage());
                }
                None => eprintln!("{USAGE}"),
            }
            ExitCode::FAILURE
        }
        Err(Failure::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed. Only a mistake on the command line earns the
/// usage text; a bad input file or a failed write is reported alone.
enum Failure {
    /// Unknown command or flag, missing or contradictory arguments, a
    /// bad flag value.
    Usage(String),
    /// A data or I/O error.
    Run(String),
}

/// A [`Failure::Usage`].
fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Run(msg)
    }
}

impl From<PipelineError> for Failure {
    /// A session's configuration error is a flag value the session
    /// refused (`--threads 0`, `--stats-format` without an interval).
    fn from(e: PipelineError) -> Failure {
        match e {
            PipelineError::Config(msg) => Failure::Usage(msg),
            other => Failure::Run(other.to_string()),
        }
    }
}

impl From<ServeError> for Failure {
    fn from(e: ServeError) -> Failure {
        match e {
            ServeError::Config(_) => Failure::Usage(e.to_string()),
            other => Failure::Run(other.to_string()),
        }
    }
}

const USAGE: &str = "usage:
  flowzip generate   [--flows N] [--secs S] [--seed K] -o OUT.tsh
  flowzip stats      IN   (TSH or pcap, auto-detected)
  flowzip compress   IN...  -o OUT.fzc   (TSH or pcap, auto-detected; several
                     files or a quoted glob stream as one trace in order;
                      written as container v2, one section per shard)
                     [--threads N] (shards; default 1)
                     [--idle-timeout SECS] [--json]
                     [--telemetry] (derive per-flow TCP dynamics — RTT, retransmissions,
                      idle/active time — into a rev 2.2 FZT1 side-section;
                      older readers ignore it byte-identically)
                     [--metrics] (embed the per-stage metrics dump in the report)
                     [--stats-interval SECS] [--stats-format json|human]
                     (live stats snapshots to stderr while compressing)
                     [--profile TRACE.json] (chrome://tracing span timeline)
  flowzip serve      -o OUT_DIR  (continuous ingest: read an unbounded capture
                      stream and rotate complete .fzc archives into OUT_DIR,
                      indexed by an append-only manifest.jsonl)
                     [--listen ADDR | --unix PATH | --watch DIR] (default: stdin)
                     [--rotate-secs S] [--rotate-packets N] (rotation boundaries;
                      whichever trips first; neither = one archive at EOF/signal)
                     [--queue-batches N] [--overload drop|block] (bounded ingest
                      queue, default 128 batches under drop, 32 under block;
                      drop sheds load and counts serve.dropped_packets)
                     [--threads N] (shards; default 1) [--idle-timeout SECS]
                     [--telemetry] [--json]
                     [--stats-interval SECS] [--stats-format json|human]
                     (SIGINT/SIGTERM: finish the window, flush a final valid
                      archive, exit 128+signo; a second signal exits at once)
  flowzip info       IN.fzc [--json]
  flowzip decompress IN.fzc  -o OUT.tsh [--seed K] [--json] [--out-format tsh|pcap]
  flowzip query      IN.fzc  [--flow SRC_IP:PORT->DST_IP:PORT] [--from SECS] [--to SECS]
                     [-o OUT.tsh [--out-format tsh|pcap]] [--seed K] [--json] [--metrics]
                     (decodes only archive sections the v2.1 per-section
                      metadata cannot rule out; without -o, reports only)
                     (IN may be a serve rotation directory: every archive in
                      its manifest.jsonl is queried and the results merged;
                      -o concatenation is TSH-only)
  flowzip synth      IN.fzc  [--flows N] [--seed K] -o OUT.tsh

global: [-q|--quiet] [-v|--verbose] and the FLOWZIP_LOG env var
        (quiet|normal|verbose) set how much lands on stderr";

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["json", "metrics", "telemetry", "quiet", "verbose"];

/// The section of [`USAGE`] that documents `cmd` — also its flag
/// allow-list: a command accepts exactly the `--flag`s (and `-o`) its
/// own usage text names, plus the global ones.
fn usage_of(cmd: &str) -> Option<&'static str> {
    let head = format!("\n  flowzip {cmd} ");
    let section = &USAGE[USAGE.find(&head)? + head.len()..];
    let end = section
        .find("\n  flowzip ")
        .or_else(|| section.find("\n\n"));
    Some(&section[..end.unwrap_or(section.len())])
}

/// The flags every command takes: the last paragraph of [`USAGE`].
fn global_usage() -> &'static str {
    &USAGE[USAGE.rfind("\nglobal:").map_or(USAGE.len(), |i| i + 1)..]
}

/// Whether `usage` names `--key` as a whole word.
fn names_flag(usage: &str, key: &str) -> bool {
    usage
        .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .any(|word| word.strip_prefix("--") == Some(key))
}

struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Opts {
    /// Parses `cmd`'s arguments, rejecting any flag `section` (the
    /// command's [`usage_of`] section) does not name.
    fn parse(cmd: &str, section: &str, args: &[String]) -> Result<Opts, Failure> {
        let global = global_usage();
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                if !names_flag(section, key) && !names_flag(global, key) {
                    return Err(usage(format!("unknown flag --{key} for {cmd}")));
                }
                if BOOL_FLAGS.contains(&key) {
                    flags.push((key.to_string(), "true".to_string()));
                    i += 1;
                    continue;
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| usage(format!("missing value for --{key}")))?;
                flags.push((key.to_string(), value.clone()));
                i += 2;
            } else if args[i] == "-o" {
                if !section.contains(" -o ") {
                    return Err(usage(format!("unknown flag -o for {cmd}")));
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| usage("missing value for -o"))?;
                flags.push(("out".to_string(), value.clone()));
                i += 2;
            } else if args[i] == "-q" || args[i] == "-v" {
                let key = if args[i] == "-q" { "quiet" } else { "verbose" };
                flags.push((key.to_string(), "true".to_string()));
                i += 1;
            } else {
                positional.push(args[i].clone());
                i += 1;
            }
        }
        Ok(Opts { positional, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, Failure> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("--{key} wants a number"))),
        }
    }

    fn get_bool(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn get_f64(&self, key: &str) -> Result<Option<f64>, Failure> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| usage(format!("--{key} wants a number of seconds"))),
        }
    }

    fn out(&self) -> Result<PathBuf, Failure> {
        self.get("out")
            .map(PathBuf::from)
            .ok_or_else(|| usage("missing -o OUT"))
    }

    fn input(&self) -> Result<&str, Failure> {
        self.positional
            .first()
            .map(|s| s.as_str())
            .ok_or_else(|| usage("missing input file"))
    }
}

fn run(args: &[String]) -> Result<(), Failure> {
    let Some(cmd) = args.first() else {
        return Err(usage("no command given"));
    };
    let handler: fn(&Opts) -> Result<(), Failure> = match cmd.as_str() {
        "generate" => generate,
        "stats" => stats,
        "compress" => compress,
        "serve" => serve,
        "info" => info,
        "decompress" => decompress,
        "query" => query,
        "synth" => synth,
        other => return Err(usage(format!("unknown command `{other}`"))),
    };
    let section = usage_of(cmd).expect("every command has a USAGE section");
    let opts = Opts::parse(cmd, section, &args[1..])?;
    // FLOWZIP_LOG sets the base level; an explicit flag overrides it.
    log::init_from_env();
    if opts.get_bool("quiet") && opts.get_bool("verbose") {
        return Err(usage("--quiet and --verbose contradict each other"));
    }
    if opts.get_bool("quiet") {
        log::set_level(Level::Quiet);
    } else if opts.get_bool("verbose") {
        log::set_level(Level::Verbose);
    }
    handler(&opts)
}

/// After a graceful signal-driven finish, exit with the conventional
/// `128 + signo` so callers can tell an interrupt from a clean EOF.
fn exit_if_signalled() {
    if let Some(sig) = signal::received() {
        use std::io::Write;
        std::io::stdout().flush().ok();
        std::io::stderr().flush().ok();
        std::process::exit(128 + sig);
    }
}

fn write_tsh(path: &PathBuf, trace: &Trace) -> Result<u64, String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    tsh::write_trace(std::io::BufWriter::new(file), trace)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn generate(opts: &Opts) -> Result<(), Failure> {
    let flows = opts.get_u64("flows", 2_000)? as usize;
    let secs = opts.get_u64("secs", 60)? as f64;
    let seed = opts.get_u64("seed", 42)?;
    let out = opts.out()?;
    // The trace is written in place; an interrupt removes the stub.
    signal::install_oneshot();
    let _guard = signal::guard_partial(&out);
    let trace = WebTrafficGenerator::new(
        WebTrafficConfig {
            flows,
            duration_secs: secs,
            ..WebTrafficConfig::default()
        },
        seed,
    )
    .generate();
    let bytes = write_tsh(&out, &trace)?;
    out!(
        "wrote {}: {} packets, {} flows, {} bytes",
        out.display(),
        trace.len(),
        FlowTable::from_trace(&trace).len(),
        bytes
    );
    Ok(())
}

fn stats(opts: &Opts) -> Result<(), Failure> {
    let path = opts.input()?;
    let trace = FileSource::open(path)
        .map_err(|e| format!("open {path}: {e}"))?
        .collect::<Result<Trace, _>>()
        .map_err(|e| format!("parse {path}: {e}"))?;
    let s = FlowTable::from_trace(&trace).stats(50);
    out!("{s}");
    out!(
        "packets {}  duration {}  tsh bytes {}",
        trace.len(),
        trace.duration(),
        tsh::file_size(&trace)
    );
    Ok(())
}

/// `--stats-interval SECS` and `--stats-format json|human`, as `compress`
/// and `serve` take them. The session rejects a zero interval and a
/// format without an interval.
fn stats_flags(
    opts: &Opts,
) -> Result<(Option<std::time::Duration>, Option<SnapshotFormat>), Failure> {
    let interval = match opts.get("stats-interval") {
        None => None,
        Some(_) => Some(std::time::Duration::from_secs(
            opts.get_u64("stats-interval", 0)?,
        )),
    };
    let format = opts
        .get("stats-format")
        .map(SnapshotFormat::parse)
        .transpose()
        .map_err(usage)?;
    Ok((interval, format))
}

fn compress(opts: &Opts) -> Result<(), Failure> {
    if opts.positional.is_empty() {
        return Err(usage("missing input file"));
    }
    let out = opts.out()?;
    let json = opts.get_bool("json");

    // The whole flag surface maps 1:1 onto pipeline knobs; input
    // wiring and the shard default live in the pipeline, not here.
    let mut session = Pipeline::compress()
        .input(Input::globs(&opts.positional))
        .sink(Sink::file(&out));
    if opts.get("threads").is_some() {
        session = session.threads(opts.get_u64("threads", 0)? as usize);
    }
    if opts.get_bool("telemetry") {
        session = session.telemetry(true);
    }
    // 0 means "off".
    let idle_secs = opts.get_u64("idle-timeout", 0)?;
    if idle_secs > 0 {
        session = session.idle_timeout(Duration::from_secs(idle_secs));
    }

    // Observability: --metrics embeds the final registry dump in the
    // report, --stats-interval streams live snapshots to stderr (and
    // implies metrics), --profile dumps a chrome://tracing timeline.
    if opts.get_bool("metrics") {
        session = session.metrics(Metrics::enabled());
    }
    let (interval, format) = stats_flags(opts)?;
    if let Some(interval) = interval {
        session = session.stats_interval(interval);
    }
    if let Some(format) = format {
        session = session.stats_format(format);
    }
    let profile_path = opts.get("profile").map(PathBuf::from);
    let profiler = profile_path.is_some().then(Profiler::enabled);
    if let Some(p) = &profiler {
        session = session.profiler(p.clone());
    }

    // Graceful interrupt: the first SIGINT/SIGTERM flips the engine's
    // cancel flag, which drains open flows into a *valid* partial
    // archive; a second signal unlinks the `.part` scratch and exits.
    session = session.cancel(signal::install_graceful());
    let _guard = signal::guard_partial(&Sink::partial_path(&out));

    let result = session.run()?;
    if let (Some(path), Some(p)) = (&profile_path, &profiler) {
        p.write_to(path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        log::info(&format!(
            "wrote {} (trace-event JSON; open in chrome://tracing or Perfetto)",
            path.display()
        ));
    }
    let report = &result.report;
    if json {
        out!("{}", report.to_json());
    } else {
        out!("{report}");
    }
    // With --json, stdout carries exactly one JSON object; the human
    // notice moves to stderr so `flowzip ... --json | jq` works.
    let format = report
        .archive
        .as_ref()
        .map(|a| a.format.to_string())
        .unwrap_or_default();
    let notice = format!(
        "wrote {} ({format} container, {} bytes)",
        out.display(),
        report.output_bytes
    );
    if json {
        log::info(&notice);
    } else {
        out!("{notice}");
    }
    if signal::received().is_some() {
        log::info("interrupted: open flows were drained into a valid partial archive");
    }
    exit_if_signalled();
    Ok(())
}

fn serve(opts: &Opts) -> Result<(), Failure> {
    let out_dir = opts.out().map_err(|_| usage("missing -o OUT_DIR"))?;
    let json = opts.get_bool("json");

    let picked = ["listen", "unix", "watch"]
        .iter()
        .filter(|k| opts.get(k).is_some())
        .count();
    if picked > 1 {
        return Err(usage(
            "pick at most one of --listen / --unix / --watch (default: stdin)",
        ));
    }
    let source = if let Some(addr) = opts.get("listen") {
        ServeSource::listen(addr).map_err(|e| format!("bind {addr}: {e}"))?
    } else if let Some(path) = opts.get("unix") {
        #[cfg(unix)]
        {
            ServeSource::unix(path).map_err(|e| format!("bind {path}: {e}"))?
        }
        #[cfg(not(unix))]
        {
            return Err(usage(format!("--unix {path} needs a Unix platform")));
        }
    } else if let Some(dir) = opts.get("watch") {
        ServeSource::watch_dir(dir)
    } else {
        ServeSource::stdin()
    };
    let described = source.describe();

    let mut session = Pipeline::serve().source(source).out_dir(&out_dir);
    let rotate_secs = opts.get_u64("rotate-secs", 0)?;
    if opts.get("rotate-secs").is_some() && rotate_secs == 0 {
        return Err(usage("--rotate-secs wants a positive number of seconds"));
    }
    if rotate_secs > 0 {
        session = session.rotate_every(std::time::Duration::from_secs(rotate_secs));
    }
    let rotate_packets = opts.get_u64("rotate-packets", 0)?;
    if opts.get("rotate-packets").is_some() && rotate_packets == 0 {
        return Err(usage("--rotate-packets wants a positive packet count"));
    }
    if rotate_packets > 0 {
        session = session.rotate_packets(rotate_packets);
    }
    if opts.get("threads").is_some() {
        session = session.threads(opts.get_u64("threads", 0)? as usize);
    }
    if opts.get("queue-batches").is_some() {
        session = session.queue_batches(opts.get_u64("queue-batches", 0)? as usize);
    }
    if let Some(name) = opts.get("overload") {
        session = session.overload(OverloadPolicy::parse(name).map_err(usage)?);
    }
    if opts.get_bool("telemetry") {
        session = session.telemetry(true);
    }
    let idle_secs = opts.get_u64("idle-timeout", 0)?;
    if idle_secs > 0 {
        session = session.idle_timeout(Duration::from_secs(idle_secs));
    }
    let (interval, format) = stats_flags(opts)?;
    if let Some(interval) = interval {
        session = session.stats_interval(interval);
    }
    if let Some(format) = format {
        session = session.stats_format(format);
    }

    // First signal: finish the window and flush a final valid archive.
    // Second signal: unlink the in-flight `.part` and die immediately.
    session = session.stop_flag(signal::install_graceful());
    session = session.on_window(|w| {
        let dropped = if w.dropped_packets > 0 {
            format!(", {} dropped", w.dropped_packets)
        } else {
            String::new()
        };
        log::info(&match &w.archive {
            Some(path) => format!(
                "window {}: {} packets, {} flows → {} ({} bytes, {}{dropped})",
                w.index,
                w.packets,
                w.flows,
                path.file_name().unwrap_or_default().to_string_lossy(),
                w.bytes,
                w.reason.as_str()
            ),
            None => format!("window {}: empty ({}{dropped})", w.index, w.reason.as_str()),
        });
    });

    log::info(&format!(
        "serving {described} into {} (rotate: {})",
        out_dir.display(),
        match (rotate_secs, rotate_packets) {
            (0, 0) => "at end of stream".to_string(),
            (s, 0) => format!("every {s}s"),
            (0, p) => format!("every {p} packets"),
            (s, p) => format!("every {s}s or {p} packets"),
        }
    ));
    let handle = session.start()?;
    let report = handle.wait()?;

    if json {
        out!("{}", report.to_json());
    } else {
        let stored = report.windows.iter().filter(|w| w.packets > 0).count();
        out!(
            "served {} windows ({} stored), {} packets in, {} archived, {} dropped ({:.1}s)",
            report.windows.len(),
            stored,
            report.produced_packets,
            report.compressed_packets,
            report.dropped_packets,
            report.elapsed_secs
        );
        out!("manifest: {}", report.manifest.display());
    }
    if let Some(e) = &report.source_error {
        return Err(format!("source failed: {e}").into());
    }
    exit_if_signalled();
    Ok(())
}

fn info(opts: &Opts) -> Result<(), Failure> {
    let input = opts.input()?;
    let bytes = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
    // The reader's validating walk counts the flows and packets; the
    // complexity line folds the record merge, one record at a time.
    let parse_err = |e: flowzip::core::datasets::CodecError| format!("parse {input}: {e}");
    let reader = ArchiveReader::open(&bytes).map_err(parse_err)?;
    let records = reader.records().map_err(parse_err)?;
    let summary = ArchiveSummary::inspect(&reader, &records, bytes.len());
    let mut report = Report::from_archive(&records, summary);
    report.inputs = vec![input.to_string()];
    if opts.get_bool("json") {
        out!("{}", report.to_json());
        return Ok(());
    }
    let archive = report.archive.as_ref().expect("info always summarizes");
    out!("archive: {input}");
    match (archive.format, archive.has_metadata) {
        (ArchiveFormat::V1, _) => out!("  format           : v1"),
        (ArchiveFormat::V2, false) => {
            out!("  format           : v2 ({} sections)", archive.sections);
        }
        (ArchiveFormat::V2, true) if archive.telemetry.is_some() => out!(
            "  format           : v2.2 ({} sections, per-section metadata + telemetry)",
            archive.sections
        ),
        (ArchiveFormat::V2, true) => out!(
            "  format           : v2.1 ({} sections, per-section metadata)",
            archive.sections
        ),
    }
    out!("  flows            : {}", report.flows);
    out!("  packets          : {}", report.packets);
    out!("  short templates  : {}", archive.short_templates);
    out!("  long templates   : {}", archive.long_templates);
    out!("  unique addresses : {}", archive.addresses);
    out!("  file bytes       : {}", archive.file_bytes);
    out!("  bytes            : {}", archive.sizes.unwrap_or_default());
    if let Some(t) = &archive.telemetry {
        out!(
            "  telemetry        : {} flows, {} with RTT ({} samples)",
            t.flows,
            t.rtt_flows,
            t.rtt_samples
        );
        if t.rtt_flows > 0 {
            out!(
                "  rtt              : mean {:.1} ms, p95 {:.1} ms",
                t.mean_rtt_us as f64 / 1_000.0,
                t.p95_rtt_us as f64 / 1_000.0
            );
        }
        out!(
            "  retransmissions  : {} ({} fast, {} timeout)",
            t.retransmissions(),
            t.retrans_fast,
            t.retrans_timeout
        );
    }
    // The trace-complexity score folds straight off the flow records, so
    // any v2 archive (telemetry or not) gets one.
    if archive.format == ArchiveFormat::V2 {
        let c = TraceComplexity::from_records(records);
        out!(
            "  complexity       : {:.1}/100 (size entropy {:.2}, burstiness {:.2})",
            c.score,
            c.flow_size_entropy,
            c.arrival_burstiness
        );
    }
    Ok(())
}

fn decompress(opts: &Opts) -> Result<(), Failure> {
    let input = opts.input()?;
    let out = opts.out()?;
    let _guard = guard_output(Some(&out));
    let session = read_session(Pipeline::decompress(), opts, Path::new(input))?;
    let to_stderr = is_own_stdout(&out);
    let result = session.sink(Sink::file(&out)).run()?;
    let report = &result.report;
    let notice = format!(
        "wrote {}: {} packets ({} bytes), peak {} open flows",
        out.display(),
        report.packets,
        report.output_bytes,
        report.peak_open_flows
    );
    if opts.get_bool("json") {
        report_line(to_stderr, format_args!("{}", report.to_json()));
        log::info(&notice);
    } else {
        report_line(to_stderr, format_args!("{notice}"));
    }
    Ok(())
}

fn query(opts: &Opts) -> Result<(), Failure> {
    let input = opts.input()?;
    let json = opts.get_bool("json");
    let out = opts.get("out").map(PathBuf::from);
    let _guard = guard_output(out.as_deref());
    if Path::new(input).is_dir() {
        return query_rotation_dir(opts, input, json, out.as_deref());
    }
    let mut session = read_session(Pipeline::query(), opts, Path::new(input))?;
    if let Some(path) = &out {
        session = session.sink(Sink::file(path));
    }
    let to_stderr = out.as_deref().is_some_and(is_own_stdout);
    if opts.get_bool("metrics") {
        session = session.metrics(Metrics::enabled());
    }
    let result = session.run()?;
    let report = &result.report;
    if json {
        report_line(to_stderr, format_args!("{}", report.to_json()));
    } else {
        report_line(to_stderr, format_args!("{report}"));
    }
    if let Some(path) = &out {
        let notice = format!(
            "wrote {}: {} packets ({} bytes)",
            path.display(),
            report.packets,
            report.output_bytes
        );
        if json {
            log::info(&notice);
        } else {
            report_line(to_stderr, format_args!("{notice}"));
        }
    }
    Ok(())
}

/// `--out-format`: the capture format `decompress` and `query -o` write.
fn out_format(opts: &Opts) -> Result<CaptureFormat, Failure> {
    match opts.get("out-format") {
        None | Some("tsh") => Ok(CaptureFormat::Tsh),
        Some("pcap") => Ok(CaptureFormat::Pcap),
        Some(other) => Err(usage(format!(
            "unknown --out-format `{other}` (want tsh or pcap)"
        ))),
    }
}

/// Nothing to finalize mid-read: an interrupt removes `out`'s
/// half-written `.part` scratch and exits.
fn guard_output(out: Option<&Path>) -> Option<signal::PartialGuard> {
    signal::install_oneshot();
    out.and_then(|o| signal::guard_partial(&Sink::partial_path(o)))
}

/// `session` — [`Pipeline::decompress`] or [`Pipeline::query`] — over the
/// archive at `path`, with `--seed`, `--out-format` and any `--flow`,
/// `--from` and `--to` applied: one archive's share of `decompress` or
/// `query`, whether `query` names a file or a rotation directory.
/// `decompress` takes none of the three filters, so it matches every
/// flow.
fn read_session<'a>(
    session: QueryBuilder<'a>,
    opts: &Opts,
    path: &Path,
) -> Result<QueryBuilder<'a>, Failure> {
    let mut session = session
        .input(Input::file(path))
        .seed(opts.get_u64("seed", 0x5EED)?)
        .output_format(out_format(opts)?);
    if let Some(spec) = opts.get("flow") {
        session = session.flow_spec(spec)?;
    }
    if let Some(secs) = opts.get_f64("from")? {
        session = session.from_secs(secs);
    }
    if let Some(secs) = opts.get_f64("to")? {
        session = session.to_secs(secs);
    }
    Ok(session)
}

/// `flowzip query <rotation-dir>`: run the identical query over every
/// archive the directory's `manifest.jsonl` lists and merge the counts.
/// With `-o`, the decoded windows are concatenated into one capture —
/// TSH only, because TSH records are headerless and concatenation of
/// time-ordered windows is itself a valid trace.
fn query_rotation_dir(
    opts: &Opts,
    dir: &str,
    json: bool,
    out: Option<&Path>,
) -> Result<(), Failure> {
    if out.is_some() && out_format(opts)? == CaptureFormat::Pcap {
        return Err(usage(
            "rotation-directory -o concatenation is TSH-only (pcap puts a header per file)",
        ));
    }
    let entries = flowzip::serve::read_manifest(Path::new(dir)).map_err(|e| e.to_string())?;
    // One registry across every window's session: its counters sum them.
    let metrics = opts.get_bool("metrics").then(Metrics::enabled);
    let mut windows = 0u64;
    let mut packets = 0u64;
    let mut written = 0u64;
    // One scratch file for the whole run, renamed into place at the end
    // (and unlinked if any window fails): each window's session streams
    // its records straight into it.
    let to_stderr = out.is_some_and(is_own_stdout);
    let mut part = out
        .map(|path| PartFile::create(path).map_err(|e| format!("create {}: {e}", path.display())))
        .transpose()?;
    for e in &entries {
        let Some(name) = &e.archive else { continue };
        let path = Path::new(dir).join(name);
        let mut session = read_session(Pipeline::query(), opts, &path)?;
        if let Some(part) = &mut part {
            session = session.sink(Sink::writer(part));
        }
        if let Some(m) = &metrics {
            session = session.metrics(m.clone());
        }
        let result = session
            .run()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        windows += 1;
        packets += result.report.packets;
        written += result.report.output_bytes;
    }
    if let (Some(part), Some(path)) = (part, out) {
        part.commit()
            .map_err(|e| format!("rename into {}: {e}", path.display()))?;
    }
    if json {
        let mut j = JsonObject::compact();
        j.str("type", "flowzip.query_dir");
        j.num("windows", windows);
        j.num("packets", packets);
        j.num("output_bytes", written);
        if let Some(m) = &metrics {
            j.raw("metrics", &m.snapshot().to_json());
        }
        report_line(to_stderr, format_args!("{}", j.finish()));
    } else {
        report_line(
            to_stderr,
            format_args!("queried {windows} rotated archives: {packets} packets matched"),
        );
        if let Some(path) = out {
            report_line(
                to_stderr,
                format_args!("wrote {}: {} bytes", path.display(), written),
            );
        }
    }
    Ok(())
}

fn synth(opts: &Opts) -> Result<(), Failure> {
    let input = opts.input()?;
    let out = opts.out()?;
    signal::install_oneshot();
    let _guard = signal::guard_partial(&out);
    let flows = opts.get_u64("flows", 10_000)? as usize;
    let seed = opts.get_u64("seed", 0x517E)?;
    let bytes = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
    let archive = flowzip::core::CompressedTrace::from_bytes(&bytes)
        .map_err(|e| format!("parse {input}: {e}"))?;
    let trace = synthesize(&archive, flows, seed);
    let written = write_tsh(&out, &trace)?;
    out!(
        "synthesized {}: {} flows, {} packets ({} bytes)",
        out.display(),
        flows,
        trace.len(),
        written
    );
    Ok(())
}
