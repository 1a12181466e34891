//! The `flowzip` CLI invocations the benchmark spawns — exactly the
//! phases' command lines, nothing else — and what it reads back from
//! the files they leave behind.

use crate::battery::Query;
use crate::child::{self, ChildRun};
use crate::json::Json;
use crate::workloads::{Scale, Staged, Workload};
use std::ffi::{OsStr, OsString};
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Operations attempted and failed: one per CLI invocation, per verify
/// check and per `serve_open` window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Where one run keeps its files, and which binaries it drives.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `flowzip` CLI under test.
    pub flowzip: PathBuf,
    /// The harness binary itself, as [`child::run`]'s launcher.
    pub launcher: PathBuf,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
}

fn args<const N: usize>(items: [&OsStr; N]) -> Vec<OsString> {
    items.iter().map(|s| s.to_os_string()).collect()
}

impl Ctx {
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Children's stderr lands here, so a failure can be read afterwards.
    pub fn log(&self) -> PathBuf {
        self.path("stderr.log")
    }

    fn spawn(
        &self,
        args: &[OsString],
        ops: &mut Ops,
        feed: impl FnOnce(&mut dyn io::Write) -> io::Result<()>,
    ) -> io::Result<ChildRun> {
        let run = child::run(&self.launcher, &self.flowzip, args, &self.log(), feed)?;
        ops.record(run.ok);
        Ok(run)
    }

    /// `flowzip compress IN -o OUT`, or with `--threads 2 --idle-timeout 5`.
    pub fn compress(
        &self,
        staged: &Staged,
        out: &Path,
        mt: bool,
        ops: &mut Ops,
    ) -> io::Result<ChildRun> {
        let mut a = args([
            "compress".as_ref(),
            staged.input_arg.as_ref(),
            "-o".as_ref(),
            out.as_ref(),
        ]);
        if mt {
            a.extend(args([
                "--threads".as_ref(),
                "2".as_ref(),
                "--idle-timeout".as_ref(),
                "5".as_ref(),
            ]));
        }
        self.spawn(&a, ops, |_| Ok(()))
    }

    /// `flowzip decompress ARCHIVE -o OUT`, as pcap for the split workload.
    pub fn decompress(&self, archive: &Path, out: &Path, ops: &mut Ops) -> io::Result<ChildRun> {
        let mut a = args([
            "decompress".as_ref(),
            archive.as_ref(),
            "-o".as_ref(),
            out.as_ref(),
        ]);
        if self.workload.pcap_split {
            a.extend(args(["--out-format".as_ref(), "pcap".as_ref()]));
        }
        self.spawn(&a, ops, |_| Ok(()))
    }

    fn serve_args(&self, dir: &Path, overload: &str) -> io::Result<Vec<OsString>> {
        // The manifest is append-only: a fresh directory per session.
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        let rotate = self.scale.rotate_packets().to_string();
        Ok(args([
            "serve".as_ref(),
            "-o".as_ref(),
            dir.as_ref(),
            "--rotate-packets".as_ref(),
            rotate.as_ref(),
            "--overload".as_ref(),
            overload.as_ref(),
            "--threads".as_ref(),
            "2".as_ref(),
        ]))
    }

    /// Closed loop, one writer: the capture goes down the pipe as fast
    /// as `flowzip serve --overload block` accepts it.
    pub fn serve_closed(&self, staged: &Staged, dir: &Path, ops: &mut Ops) -> io::Result<ChildRun> {
        let a = self.serve_args(dir, "block")?;
        self.spawn(&a, ops, |w| w.write_all(&staged.stream))
    }

    /// Open loop: `chunk_packets`-packet chunks go down the pipe on a
    /// fixed schedule of `rate_pps`, whether or not
    /// `flowzip serve --overload drop` keeps up.
    pub fn serve_open(
        &self,
        chunks: &[&[u8]],
        chunk_packets: usize,
        rate_pps: f64,
        dir: &Path,
        ops: &mut Ops,
    ) -> io::Result<OpenLoop> {
        let a = self.serve_args(dir, "drop")?;
        let mut start_unix_ms = 0.0;
        let mut late_ms_max = 0.0f64;
        let run = self.spawn(&a, ops, |w| {
            let start = Instant::now();
            start_unix_ms = unix_ms_now();
            for (i, chunk) in chunks.iter().enumerate() {
                let due = Duration::from_secs_f64((i * chunk_packets) as f64 / rate_pps);
                let now = start.elapsed();
                if now < due {
                    std::thread::sleep(due - now);
                }
                late_ms_max = late_ms_max
                    .max((start.elapsed() - due.min(start.elapsed())).as_secs_f64() * 1e3);
                w.write_all(chunk)?;
            }
            Ok(())
        })?;
        Ok(OpenLoop {
            run,
            start_unix_ms,
            late_ms_max,
        })
    }

    fn query_args(target: &Path, q: &Query) -> Vec<OsString> {
        let mut a = args(["query".as_ref(), target.as_ref()]);
        a.extend(q.cli_args().into_iter().map(OsString::from));
        a
    }

    /// The battery against `target`, one `flowzip query TARGET … --json`
    /// invocation per query, in battery order.
    pub fn battery(
        &self,
        target: &Path,
        battery: &[Query],
        ops: &mut Ops,
    ) -> io::Result<Vec<ChildRun>> {
        battery
            .iter()
            .map(|q| {
                let mut a = Ctx::query_args(target, q);
                a.push("--json".into());
                self.spawn(&a, ops, |_| Ok(()))
            })
            .collect()
    }

    /// `flowzip query ARCHIVE … -o OUT`: the matching packets as TSH.
    pub fn query_to_file(
        &self,
        archive: &Path,
        q: &Query,
        out: &Path,
        ops: &mut Ops,
    ) -> io::Result<ChildRun> {
        let mut a = Ctx::query_args(archive, q);
        a.extend(args(["-o".as_ref(), out.as_ref()]));
        self.spawn(&a, ops, |_| Ok(()))
    }

    /// `flowzip info ARCHIVE --json`, parsed.
    pub fn info(&self, archive: &Path, ops: &mut Ops) -> io::Result<Result<Json, String>> {
        let out = Command::new(&self.flowzip)
            .arg("info")
            .arg(archive)
            .arg("--json")
            .output()?;
        ops.record(out.status.success());
        Ok(Json::parse(&String::from_utf8_lossy(&out.stdout)))
    }

    /// `flowzip info ARCHIVE`, timed: process start-up plus a header read.
    pub fn info_timed(&self, archive: &Path, ops: &mut Ops) -> io::Result<ChildRun> {
        self.spawn(&args(["info".as_ref(), archive.as_ref()]), ops, |_| Ok(()))
    }
}

fn unix_ms_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs_f64()
        * 1e3
}

/// What the open-loop writer observed.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub run: ChildRun,
    /// Wall-clock time the schedule started at.
    pub start_unix_ms: f64,
    /// How far behind its schedule the writer ever ran.
    pub late_ms_max: f64,
}

/// One line of a rotation directory's `manifest.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub archive: Option<String>,
    pub packets: u64,
    pub flows: u64,
    pub bytes: u64,
    pub dropped_packets: u64,
    pub closed_unix_ms: u64,
}

impl Window {
    pub fn parse(line: &str) -> Result<Window, String> {
        let v = Json::parse(line)?;
        if v.get("type").and_then(Json::str) != Some("flowzip.window") {
            return Err("not a flowzip.window line".into());
        }
        let int = |key: &str| v.num_at(key).map(|n| n as u64);
        Ok(Window {
            archive: v.get("archive").and_then(Json::str).map(str::to_string),
            packets: int("packets")?,
            flows: int("flows")?,
            bytes: int("bytes")?,
            dropped_packets: int("dropped_packets")?,
            closed_unix_ms: int("closed_unix_ms")?,
        })
    }
}

pub fn read_manifest(dir: &Path) -> Result<Vec<Window>, String> {
    let path = dir.join("manifest.jsonl");
    std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .lines()
        .map(Window::parse)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_manifest_line() {
        let line = concat!(
            r#"{"type":"flowzip.window","window":1,"archive":"flowzip-20260928T145422Z-000001.fzc","#,
            r#""reason":"packets","cut":"drain","packets":10000,"flows":585,"bytes":12615,"#,
            r#""dropped_packets":3,"opened_unix_ms":1790607262288,"closed_unix_ms":1790607262290,"#,
            r#""first_ts_us":12730481,"last_ts_us":23482620}"#
        );
        let w = Window::parse(line).unwrap();
        assert_eq!(
            w.archive.as_deref(),
            Some("flowzip-20260928T145422Z-000001.fzc")
        );
        assert_eq!((w.packets, w.flows, w.bytes), (10_000, 585, 12_615));
        assert_eq!(w.dropped_packets, 3);
        assert_eq!(w.closed_unix_ms, 1_790_607_262_290);
    }

    #[test]
    fn an_empty_window_has_no_archive_and_junk_is_rejected() {
        let line = r#"{"type":"flowzip.window","window":0,"archive":null,"reason":"time","cut":"drain","packets":0,"flows":0,"bytes":0,"dropped_packets":0,"opened_unix_ms":1,"closed_unix_ms":2,"first_ts_us":null,"last_ts_us":null}"#;
        assert_eq!(Window::parse(line).unwrap().archive, None);
        assert!(Window::parse(r#"{"type":"other"}"#).is_err());
        assert!(Window::parse(r#"{"type":"flowzip.window","packets":1}"#).is_err());
        assert!(Window::parse("torn li").is_err());
    }

    #[test]
    fn ops_count_failures() {
        let mut ops = Ops::default();
        ops.record(true);
        ops.record(false);
        assert_eq!(
            ops,
            Ops {
                attempted: 2,
                failed: 1
            }
        );
    }
}
