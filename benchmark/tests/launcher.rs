//! `child::run` through the real harness binary acting as launcher.

use flowzip_benchmark::child;
use std::ffi::OsString;
use std::path::{Path, PathBuf};

fn launcher() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_flowzip-benchmark"))
}

fn log(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("test-{name}-{}.log", std::process::id()))
}

fn sh(script: &str) -> [OsString; 2] {
    ["-c".into(), script.into()]
}

#[test]
fn reports_exit_status_and_the_childs_own_rusage() {
    let log = log("status");
    // Hold a large resident set in this process: the child's peak RSS
    // must not inherit it.
    let ballast = vec![1u8; 256 << 20];
    let ok = child::run(launcher(), Path::new("sh"), &sh("exit 0"), &log, |_| Ok(())).unwrap();
    assert!(ok.ok && ok.wall_s > 0.0);
    assert!(
        ok.peak_rss_mb > 0.0 && ok.peak_rss_mb < 64.0,
        "sh peaked at {} MB",
        ok.peak_rss_mb
    );
    assert_eq!(ballast[ballast.len() / 2], 1);
    let bad = child::run(launcher(), Path::new("sh"), &sh("exit 3"), &log, |_| Ok(())).unwrap();
    assert!(!bad.ok);
    assert!(child::run(
        launcher(),
        Path::new("/no/such/program"),
        &[],
        &log,
        |_| Ok(())
    )
    .is_err());
    std::fs::remove_file(log).ok();
}

#[test]
fn feeds_stdin_and_survives_an_early_exit() {
    let log = log("stdin");
    let fed = child::run(
        launcher(),
        Path::new("sh"),
        &sh("test $(wc -c) = 65536"),
        &log,
        |w| w.write_all(&[7u8; 1 << 16]),
    )
    .unwrap();
    assert!(fed.ok);
    let early = child::run(launcher(), Path::new("sh"), &sh("exit 0"), &log, |w| {
        w.write_all(&vec![0u8; 4 << 20])
    })
    .unwrap();
    assert!(early.ok);
    std::fs::remove_file(log).ok();
}
