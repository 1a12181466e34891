//! Configuration validation: every nonsense serve session is refused by
//! `start()` with a descriptive `ServeError::Config` — before the
//! rotation directory is created or any thread starts.

use flowzip_obs::{SnapshotFormat, StatsSink};
use flowzip_pipeline::Pipeline;
use flowzip_serve::{PipelineServe, ServeBuilder, ServeError, ServeSource};
use std::path::PathBuf;
use std::time::Duration;

fn out_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowzip-serve-val-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts `configure(session)` over an empty source and expects a
/// `Config` error containing `needle`, with no rotation directory left
/// behind.
fn expect_config_err(
    case: &str,
    configure: impl FnOnce(ServeBuilder) -> ServeBuilder,
    needle: &str,
) {
    let dir = out_dir(case);
    let session = Pipeline::serve()
        .source(ServeSource::packets(std::iter::empty()))
        .out_dir(&dir);
    match configure(session).start() {
        Err(ServeError::Config(msg)) => {
            assert!(
                msg.contains(needle),
                "{case}: message `{msg}` misses `{needle}`"
            );
        }
        Err(other) => panic!("{case}: expected Config error containing `{needle}`, got {other}"),
        Ok(handle) => {
            let _ = handle.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            panic!("{case}: expected Config error containing `{needle}`, got a running session");
        }
    }
    assert!(
        !dir.exists(),
        "{case}: rejected session created {}",
        dir.display()
    );
}

#[test]
fn zero_rotate_packets_is_rejected() {
    expect_config_err(
        "rotate-packets",
        |s| s.rotate_packets(0),
        "rotate_packets must be ≥ 1",
    );
}

#[test]
fn zero_rotate_every_is_rejected() {
    expect_config_err(
        "rotate-every",
        |s| s.rotate_every(Duration::ZERO),
        "rotate_every must be non-zero",
    );
}

#[test]
fn zero_queue_batches_is_rejected() {
    expect_config_err(
        "queue-batches",
        |s| s.queue_batches(0),
        "queue_batches must be ≥ 1",
    );
}

#[test]
fn zero_stats_interval_is_rejected() {
    expect_config_err(
        "stats-interval",
        |s| s.stats_interval(Duration::ZERO),
        "stats_interval must be non-zero",
    );
}

#[test]
fn stats_shape_without_an_interval_is_rejected() {
    expect_config_err(
        "stats-format",
        |s| s.stats_format(SnapshotFormat::Human),
        "need .stats_interval",
    );
    expect_config_err(
        "stats-writer",
        |s| s.stats_writer(StatsSink::new(Box::new(std::io::sink()))),
        "need .stats_interval",
    );
}
