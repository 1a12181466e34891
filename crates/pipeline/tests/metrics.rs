//! Pipeline-level observability pins: live JSON-lines snapshots obey
//! the stats schema, the final report embeds the registry dump, the
//! stats knobs validate, and an untuned file session still feeds
//! reader metrics.

use flowzip_obs::json::is_valid_json;
use flowzip_obs::names;
use flowzip_pipeline::{Input, Metrics, Pipeline, Sink, SnapshotFormat, StatsSink};
use flowzip_trace::tsh;
use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn web_trace(flows: usize, seed: u64) -> flowzip_trace::Trace {
    WebTrafficGenerator::new(
        WebTrafficConfig {
            flows,
            duration_secs: 20.0,
            ..WebTrafficConfig::default()
        },
        seed,
    )
    .generate()
}

/// A clonable in-memory sink the test reads back after the run.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn live_stats_emit_at_least_one_pinned_json_line() {
    let trace = web_trace(150, 11);
    let buf = SharedBuf::default();
    let result = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .threads(2)
        .stats_interval(Duration::from_millis(5))
        .stats_writer(StatsSink::new(Box::new(buf.clone())))
        .run()
        .unwrap();
    let out = buf.contents();
    let lines: Vec<&str> = out.lines().collect();
    assert!(!lines.is_empty(), "no snapshot lines: {out:?}");
    for line in &lines {
        assert!(is_valid_json(line), "{line}");
        assert!(
            line.starts_with(r#"{"type":"flowzip.stats","seq":"#),
            "{line}"
        );
        for key in [
            r#""packets":"#,
            r#""packets_per_sec":"#,
            r#""active_flows":"#,
            r#""evicted_flows":"#,
            r#""queue_depth":["#,
            r#""counters":{"#,
            r#""gauges":{"#,
            r#""histograms":{"#,
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
    // The final (stop-time) snapshot saw the whole run.
    let last = lines.last().unwrap();
    assert!(
        last.contains(&format!(r#""packets":{}"#, trace.len())),
        "{last}"
    );
    // A stats interval implies metrics, and the report carries the dump.
    assert!(result.report.metrics.is_some());
}

#[test]
fn human_stats_format_emits_the_one_liner() {
    let trace = web_trace(60, 12);
    let buf = SharedBuf::default();
    Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .threads(2)
        .stats_interval(Duration::from_millis(5))
        .stats_format(SnapshotFormat::Human)
        .stats_writer(StatsSink::new(Box::new(buf.clone())))
        .run()
        .unwrap();
    let out = buf.contents();
    assert!(out.contains("pkt/s"), "{out}");
    assert!(out.contains("queues ["), "{out}");
}

#[test]
fn report_embeds_the_final_metrics_dump_and_stage_split() {
    let trace = web_trace(150, 13);
    let metrics = Metrics::enabled();
    let result = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .threads(2)
        .metrics(metrics.clone())
        .run()
        .unwrap();
    let report = &result.report;
    let snap = report.metrics.as_ref().expect("metrics dump in report");
    assert_eq!(
        snap.counter(names::ENGINE_PACKETS),
        Some(trace.len() as u64)
    );
    assert_eq!(snap.queue_depths(), vec![0, 0], "drained queues");
    // The timing block carries the measured stage split.
    let timing = report.timing.unwrap();
    assert!(timing.stage_busy_secs > 0.0);
    assert!(timing.unattributed_secs >= 0.0);
    assert!(timing.unattributed_secs <= timing.elapsed_secs);
    // …and the JSON schema embeds both.
    let json = report.to_json();
    assert!(is_valid_json(&json), "{json}");
    assert!(json.contains("\"metrics\": {\"counters\":{"), "{json}");
    assert!(json.contains("\"stage_busy_secs\": "), "{json}");
    assert!(json.contains("\"unattributed_secs\": "), "{json}");
    assert!(
        json.contains(&format!("\"engine.packets\":{}", trace.len())),
        "{json}"
    );
}

#[test]
fn uninstrumented_runs_embed_no_metrics_and_no_stage_split() {
    let trace = web_trace(60, 14);
    let result = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .threads(2)
        .run()
        .unwrap();
    assert!(result.report.metrics.is_none());
    let json = result.report.to_json();
    assert!(!json.contains("\"metrics\""), "{json}");
    assert!(!json.contains("\"stage_busy_secs\""), "{json}");
}

#[test]
fn batch_route_feeds_reader_metrics_too() {
    let trace = web_trace(80, 15);
    let dir = std::env::temp_dir().join(format!("flowzip-met-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join("whole.tsh");
    std::fs::write(&path, tsh::to_bytes(&trace)).unwrap();
    let metrics = Metrics::enabled();
    let result = Pipeline::compress()
        .input(Input::file(&path))
        .sink(Sink::bytes())
        .metrics(metrics.clone())
        .run()
        .unwrap();
    let snap = result.report.metrics.as_ref().unwrap();
    assert_eq!(
        snap.counter(names::IO_READER_BYTES),
        Some(std::fs::metadata(&path).unwrap().len()),
        "reader byte counter covers the whole file"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_knobs_validate_up_front() {
    let trace = web_trace(10, 16);
    let err = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .stats_interval(Duration::ZERO)
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("stats_interval"), "{err}");
    let trace = web_trace(10, 16);
    let err = Pipeline::compress()
        .input(Input::trace(&trace))
        .sink(Sink::bytes())
        .stats_format(SnapshotFormat::Human)
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("stats_interval"), "{err}");
}
