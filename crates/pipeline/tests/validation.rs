//! Configuration validation: every nonsense session errors **up front**
//! with a descriptive message — never a panic, a hang, or a silent empty
//! run.

use flowzip_pipeline::{Input, Pipeline, PipelineError, Sink};
use flowzip_trace::prelude::*;
use std::path::PathBuf;

fn tiny_trace() -> Trace {
    let mut t = Trace::new();
    t.push(
        PacketRecord::builder()
            .src(Ipv4Addr::new(10, 0, 0, 1), 4000)
            .dst(Ipv4Addr::new(192, 0, 2, 9), 80)
            .timestamp(Timestamp::from_micros(5))
            .flags(TcpFlags::SYN)
            .build(),
    );
    t
}

/// Runs a compress session and expects a `Config` error containing
/// `needle`.
fn expect_config_err(builder: flowzip_pipeline::CompressBuilder<'_>, needle: &str) {
    match builder.run() {
        Err(PipelineError::Config(msg)) => {
            assert!(msg.contains(needle), "message `{msg}` misses `{needle}`");
        }
        Err(other) => panic!("expected Config error containing `{needle}`, got {other}"),
        Ok(_) => panic!("expected Config error containing `{needle}`, got success"),
    }
}

#[test]
fn zero_threads_is_rejected() {
    let t = tiny_trace();
    expect_config_err(
        Pipeline::compress()
            .input(Input::trace(&t))
            .sink(Sink::bytes())
            .threads(0),
        "threads must be ≥ 1",
    );
}

#[test]
fn empty_file_list_is_rejected() {
    expect_config_err(
        Pipeline::compress()
            .input(Input::files(Vec::<PathBuf>::new()))
            .sink(Sink::bytes()),
        "input set is empty",
    );
}

#[test]
fn missing_input_and_sink_are_rejected() {
    expect_config_err(Pipeline::compress().sink(Sink::bytes()), "no input");
    let t = tiny_trace();
    expect_config_err(Pipeline::compress().input(Input::trace(&t)), "no sink");
}

#[test]
fn glob_matching_nothing_is_an_error_not_an_empty_run() {
    let dir = std::env::temp_dir().join(format!("flowzip-val-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pattern = dir.join("nope-*.tsh");
    expect_config_err(
        Pipeline::compress()
            .input(Input::glob(pattern.to_str().unwrap()))
            .sink(Sink::bytes()),
        "matched no files",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn archive_bytes_into_compress_is_rejected() {
    expect_config_err(
        Pipeline::compress()
            .input(Input::bytes(vec![1, 2, 3]))
            .sink(Sink::bytes()),
        "compress wants packets",
    );
}

#[test]
fn decompress_rejects_packet_shaped_inputs() {
    let t = tiny_trace();
    let err = Pipeline::decompress()
        .input(Input::trace(&t))
        .sink(Sink::bytes())
        .run()
        .unwrap_err();
    assert!(
        matches!(&err, PipelineError::Config(m) if m.contains("serialized archive")),
        "{err}"
    );

    let err = Pipeline::decompress()
        .input(Input::files(["a.fzc", "b.fzc"]))
        .sink(Sink::bytes())
        .run()
        .unwrap_err();
    assert!(
        matches!(&err, PipelineError::Config(m) if m.contains("exactly one archive")),
        "{err}"
    );
}

#[test]
fn decompress_surfaces_decode_errors_with_context() {
    let err = Pipeline::decompress()
        .input(Input::bytes(b"not an archive".to_vec()))
        .sink(Sink::bytes())
        .run()
        .unwrap_err();
    assert!(matches!(err, PipelineError::Decode { .. }), "{err}");
    assert!(err.to_string().contains("decompress"), "{err}");
}

#[test]
fn missing_input_file_surfaces_read_error_with_context() {
    let err = Pipeline::compress()
        .input(Input::file("/nonexistent/missing.tsh"))
        .sink(Sink::bytes())
        .run()
        .unwrap_err();
    assert!(matches!(err, PipelineError::Read { .. }), "{err}");
    assert!(err.to_string().contains("missing.tsh"), "{err}");
}
