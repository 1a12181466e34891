//! Runs one `flowzip` CLI child and reports what the operating system
//! measured for it alone: wall time, user+system CPU, peak RSS.

use std::ffi::{c_int, c_long, OsStr, OsString};
use std::io::{self, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads per-child rusage through Linux wait4(2)");

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out on LP64 targets: two timevals
/// followed by fourteen longs, of which only `ru_maxrss` is read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn getrusage(who: c_int, rusage: *mut Rusage) -> c_int;
}

fn cpu_secs(ru: &Rusage) -> f64 {
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// User + system CPU this process (all its threads) has used so far.
pub fn self_cpu_secs() -> f64 {
    const RUSAGE_SELF: c_int = 0;
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `ru` is valid for a write of `Rusage`, which matches the
    // kernel's layout on Linux LP64; RUSAGE_SELF is always accepted.
    let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // SAFETY: zero-initialised, then filled in by the successful call;
    // every field is a plain integer.
    cpu_secs(&unsafe { ru.assume_init() })
}

/// One finished child.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildRun {
    /// Spawn → exit.
    pub wall_s: f64,
    /// User + system CPU of this child (and threads), from its rusage.
    pub cpu_s: f64,
    /// `ru_maxrss` of this child in MB.
    pub peak_rss_mb: f64,
    /// Exited with status 0.
    pub ok: bool,
}

impl ChildRun {
    fn to_line(self) -> String {
        format!(
            "{} {} {} {}",
            self.wall_s, self.cpu_s, self.peak_rss_mb, self.ok
        )
    }

    fn from_line(line: &str) -> Option<ChildRun> {
        let mut f = line.split_whitespace();
        Some(ChildRun {
            wall_s: f.next()?.parse().ok()?,
            cpu_s: f.next()?.parse().ok()?,
            peak_rss_mb: f.next()?.parse().ok()?,
            ok: f.next()?.parse().ok()?,
        })
    }
}

/// The argument that makes the harness binary act as [`launch`].
pub const LAUNCH: &str = "launch";

/// Runs `program args…` through a fresh copy of the harness binary
/// (`launcher`), which spawns it, reaps it with `wait4` and reports
/// what the kernel measured. `feed` writes the program's stdin, which
/// is then closed; its stdout is discarded and its stderr appended to
/// `stderr_log`.
///
/// Why the detour: a child's `ru_maxrss` starts from the resident set
/// of the process that spawned it, and the harness holds whole traces
/// in memory. The launcher holds a megabyte or two, so the peak RSS it
/// reports is the program's own.
pub fn run(
    launcher: &Path,
    program: &Path,
    args: &[OsString],
    stderr_log: &Path,
    feed: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<ChildRun> {
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(stderr_log)?;
    let mut child = Command::new(launcher)
        .arg(LAUNCH)
        .arg(program)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(log))
        .spawn()?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    // A program that exits early closes the pipe; its exit status tells
    // the story, so a broken pipe here is not the error to report.
    let fed = feed(&mut stdin);
    drop(stdin);
    let out = child.wait_with_output()?;
    if let Err(e) = fed {
        if e.kind() != io::ErrorKind::BrokenPipe {
            return Err(e);
        }
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(ChildRun::from_line)
        .ok_or_else(|| io::Error::other(format!("launcher could not run {}", program.display())))
}

/// The launcher side of [`run`]: spawns `program args…` with this
/// process's stdin and stderr, waits for it and prints its
/// [`ChildRun`] as one line on stdout.
pub fn launch(program: &OsStr, args: &[OsString]) -> io::Result<()> {
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdout(Stdio::null())
        .spawn()?;
    let run = reap(child, started)?;
    println!("{}", run.to_line());
    Ok(())
}

fn reap(child: Child, started: Instant) -> io::Result<ChildRun> {
    let pid = c_int::try_from(child.id()).expect("pid fits c_int");
    let mut status: c_int = 0;
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    loop {
        // SAFETY: `status` and `ru` are valid for writes of their types
        // for the duration of the call, `pid` is this process's own
        // unreaped child (`Child` is never waited on elsewhere), and
        // `Rusage` matches the kernel's layout on Linux LP64.
        let rc = unsafe { wait4(pid, &mut status, 0, ru.as_mut_ptr()) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    // SAFETY: zero-initialised above and filled in by a successful wait4;
    // every field is a plain integer, valid for any bit pattern.
    let ru = unsafe { ru.assume_init() };
    Ok(ChildRun {
        wall_s,
        cpu_s: cpu_secs(&ru),
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
        // WIFEXITED && WEXITSTATUS == 0
        ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_report_line_round_trips() {
        let run = ChildRun {
            wall_s: 0.123456789,
            cpu_s: 0.25,
            peak_rss_mb: 17.5,
            ok: true,
        };
        assert_eq!(ChildRun::from_line(&run.to_line()), Some(run));
        assert_eq!(ChildRun::from_line("1 2 3"), None);
        assert_eq!(ChildRun::from_line("error: nope"), None);
    }

    #[test]
    fn self_cpu_advances_with_work() {
        let before = self_cpu_secs();
        let mut x = 0u64;
        while self_cpu_secs() - before < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(self_cpu_secs() > before);
    }
}
