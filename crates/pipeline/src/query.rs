//! [`Pipeline::query`]: archive in, *matching* packets out — the
//! session wrapper around the core query planner
//! ([`flowzip_core::query_bytes`]), with flow-spec parsing, optional
//! trace output, planner metrics and the unified [`Report`].

use crate::compress::RunResult;
use crate::error::PipelineError;
use crate::input::Input;
use crate::report::{ArchiveSummary, Mode, Report, Timing};
use crate::sink::Sink;
use crate::Pipeline;
use flowzip_core::{select_reader, ArchiveReader, DecompressParams, Decompressor, FlowQuery};
use flowzip_obs::{names, Metrics};
use flowzip_trace::reader::CaptureFormat;
use flowzip_trace::{tsh, FiveTuple, Timestamp};
use std::time::Instant;

/// Parses a CLI flow spec `SRC_IP:PORT->DST_IP:PORT` (e.g.
/// `172.20.1.9:4242->193.5.9.1:80`) into a TCP five-tuple. Matching is
/// conversation-level, so either direction of the flow works.
///
/// # Errors
///
/// A description of what failed to parse.
pub(crate) fn parse_flow_spec(spec: &str) -> Result<FiveTuple, String> {
    let (src, dst) = spec
        .split_once("->")
        .ok_or_else(|| format!("flow spec `{spec}` wants SRC_IP:PORT->DST_IP:PORT"))?;
    let endpoint = |s: &str| -> Result<(std::net::Ipv4Addr, u16), String> {
        let (ip, port) = s
            .rsplit_once(':')
            .ok_or_else(|| format!("endpoint `{s}` wants IP:PORT"))?;
        Ok((
            ip.parse().map_err(|_| format!("bad IPv4 address `{ip}`"))?,
            port.parse().map_err(|_| format!("bad port `{port}`"))?,
        ))
    };
    let (src_ip, src_port) = endpoint(src.trim())?;
    let (dst_ip, dst_port) = endpoint(dst.trim())?;
    Ok(FiveTuple::tcp(src_ip, src_port, dst_ip, dst_port))
}

/// Builder for one query session. Construct with [`Pipeline::query`].
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    input: Option<Input<'a>>,
    sink: Option<Sink<'a>>,
    query: FlowQuery,
    params: DecompressParams,
    output_format: CaptureFormat,
    metrics: Option<Metrics>,
}

impl Pipeline {
    /// Starts a query session: one archive [`Input`], a predicate
    /// ([`flow`](QueryBuilder::flow) and/or a time window), an optional
    /// trace [`Sink`] for the matching packets, then
    /// [`run()`](QueryBuilder::run).
    pub fn query<'a>() -> QueryBuilder<'a> {
        QueryBuilder {
            input: None,
            sink: None,
            query: FlowQuery::default(),
            params: DecompressParams::default(),
            output_format: CaptureFormat::Tsh,
            metrics: None,
        }
    }
}

impl<'a> QueryBuilder<'a> {
    /// The archive input (required): a `.fzc` file or in-memory bytes.
    pub fn input(mut self, input: Input<'a>) -> Self {
        self.input = Some(input);
        self
    }

    /// Where to write the matching packets (optional — without a sink
    /// the session only reports).
    pub fn sink(mut self, sink: Sink<'a>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Match this conversation (either direction).
    pub fn flow(mut self, tuple: FiveTuple) -> Self {
        self.query.flow = Some(tuple);
        self
    }

    /// Match this conversation, given as `SRC_IP:PORT->DST_IP:PORT`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] when the spec does not parse.
    pub fn flow_spec(self, spec: &str) -> Result<Self, PipelineError> {
        let tuple = parse_flow_spec(spec).map_err(PipelineError::config)?;
        Ok(self.flow(tuple))
    }

    /// Keep only flows starting at or after this time (seconds).
    pub fn from_secs(mut self, secs: f64) -> Self {
        self.query.from = Some(Timestamp::from_micros((secs * 1e6) as u64));
        self
    }

    /// Keep only flows starting at or before this time (seconds).
    pub fn to_secs(mut self, secs: f64) -> Self {
        self.query.to = Some(Timestamp::from_micros((secs * 1e6) as u64));
        self
    }

    /// The full [`FlowQuery`], overriding any flow/window set so far.
    pub fn query(mut self, query: FlowQuery) -> Self {
        self.query = query;
        self
    }

    /// RNG seed for synthesized addresses and ports (must match the
    /// decompression seed the flow tuples came from).
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Full decompression knobs (timing gaps, default RTT, seed).
    pub fn params(mut self, params: DecompressParams) -> Self {
        self.params = params;
        self
    }

    /// Capture format for the sink (default TSH; pcap also supported).
    pub fn output_format(mut self, format: CaptureFormat) -> Self {
        self.output_format = format;
        self
    }

    /// Records planner counters (`query.sections_scanned`, …) into this
    /// registry; the final dump lands on [`Report::metrics`].
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Runs the session: read the archive, prune sections against the
    /// v2.1 metadata, decode + filter the survivors, and report pruning
    /// effectiveness. With a sink the matching flows are synthesized and
    /// merged straight into it, record by record; without one the packet
    /// count comes from the template lengths and nothing is synthesized.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] for inputs that are not archive-shaped;
    /// [`PipelineError::Read`] / [`PipelineError::Decode`] for unreadable
    /// or invalid archives; [`PipelineError::Write`] for sink failures.
    pub fn run(self) -> Result<RunResult, PipelineError> {
        let QueryBuilder {
            input,
            sink,
            query,
            params,
            output_format,
            metrics,
        } = self;
        let input = input.ok_or_else(|| {
            PipelineError::config("query session has no input — call .input(Input::…)")
        })?;
        let started = Instant::now();
        let inputs_desc = input.describe();
        let context = format!("query {}", inputs_desc.join(" "));

        let bytes = input.kind.into_archive("query", &context)?;
        let read_wait = started.elapsed().as_secs_f64();

        // One parse serves the archive facts and the selection: the
        // summary reads the header alone, so a full decode would throw
        // away exactly the work pruning saved.
        let decode_err = |e| PipelineError::decode(context.clone(), e);
        let reader = ArchiveReader::open(&bytes).map_err(decode_err)?;
        let summary = ArchiveSummary::from_reader(&reader, bytes.len());
        let selection = select_reader(&reader, &query, &params).map_err(decode_err)?;
        let stats = selection.stats;

        if let Some(m) = &metrics {
            m.counter(names::QUERY_SECTIONS_TOTAL)
                .add(stats.sections_total);
            m.counter(names::QUERY_SECTIONS_SCANNED)
                .add(stats.sections_scanned);
            m.counter(names::QUERY_SECTIONS_SKIPPED_TIME)
                .add(stats.sections_skipped_time);
            m.counter(names::QUERY_SECTIONS_SKIPPED_BLOOM)
                .add(stats.sections_skipped_bloom);
            m.counter(names::QUERY_FLOWS_MATCHED)
                .add(stats.flows_matched);
            m.counter(names::QUERY_PACKETS).add(stats.packets);
        }

        let mut report = Report::new(Mode::Query);
        report.inputs = inputs_desc;
        report.output = sink.as_ref().and_then(Sink::path);
        report.packets = stats.packets;
        report.flows = stats.flows_matched;
        report.archive = Some(summary);
        report.query = Some(stats);

        // With a sink, the matching flows merge straight into it; without
        // one the template lengths already gave the packet count and
        // nothing is synthesized.
        let mut buffer = None;
        if let Some(sink) = sink {
            let decompressor = Decompressor::new(params);
            let mut packets = decompressor.packets(selection.records);
            let delivered = sink.deliver_packets(output_format, &mut packets)?;
            report.peak_open_flows = packets.peak_open() as u64;
            report.output_bytes = delivered.bytes_written;
            buffer = delivered.buffer;
        }
        report.timing = Some(Timing::new(
            started.elapsed().as_secs_f64(),
            read_wait,
            stats.packets,
            stats.packets * tsh::RECORD_BYTES as u64,
        ));
        if let Some(m) = metrics {
            if m.is_enabled() {
                report.metrics = Some(m.snapshot());
            }
        }
        Ok(RunResult {
            report,
            bytes: buffer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use flowzip_core::{read_v2, Decompressor};
    use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

    /// A multi-section v2.1 archive, built through the front door: a
    /// compress session with four shards.
    fn sectioned_archive(flows: usize, seed: u64) -> Vec<u8> {
        let trace = WebTrafficGenerator::new(
            WebTrafficConfig {
                flows,
                ..WebTrafficConfig::default()
            },
            seed,
        )
        .generate();
        Pipeline::compress()
            .input(Input::trace(&trace))
            .sink(Sink::bytes())
            .threads(4)
            .run()
            .unwrap()
            .into_bytes()
            .unwrap()
    }

    #[test]
    fn query_session_prunes_and_reports() {
        let bytes = sectioned_archive(300, 9);
        let full =
            Decompressor::new(DecompressParams::default()).decompress(&read_v2(&bytes).unwrap());
        let target = full.packets()[0].tuple();
        let expected: Vec<_> = full
            .packets()
            .iter()
            .filter(|p| p.tuple().same_conversation(&target))
            .cloned()
            .collect();

        let metrics = Metrics::enabled();
        let result = Pipeline::query()
            .input(Input::bytes(bytes))
            .sink(Sink::bytes())
            .flow(target)
            .metrics(metrics)
            .run()
            .unwrap();

        let report = result.report.clone();
        let q = report.query.expect("query stats present");
        assert!(q.has_metadata);
        assert_eq!(q.sections_total, 4);
        assert!(q.sections_scanned < q.sections_total, "{q:?}");
        assert_eq!(report.packets, expected.len() as u64);

        // The sink got exactly the matching packets, TSH-serialized.
        let expected_tsh = tsh::to_bytes(&flowzip_trace::Trace::from_packets(expected));
        assert_eq!(result.into_bytes().unwrap(), expected_tsh);

        // Planner counters landed in the metrics dump.
        let snap = report.metrics.clone().expect("metrics snapshot");
        assert_eq!(
            snap.counter(names::QUERY_SECTIONS_SCANNED),
            Some(q.sections_scanned)
        );
        assert_eq!(snap.counter(names::QUERY_PACKETS), Some(q.packets));

        // The JSON report carries the query group and archive facts.
        let json = report.to_json();
        assert!(json.contains("\"mode\": \"query\""), "{json}");
        assert!(json.contains("\"sections_scanned\""), "{json}");
        assert!(json.contains("\"has_metadata\": true"), "{json}");
        assert!(flowzip_obs::json::is_valid_json(&json));
    }

    #[test]
    fn sinkless_query_only_reports() {
        let bytes = sectioned_archive(60, 3);
        let result = Pipeline::query()
            .input(Input::bytes(bytes))
            .flow_spec("10.0.0.1:9999->10.0.0.2:80")
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result.report.output_bytes, 0);
        assert!(result.bytes.is_none());
        let q = result.report.query.unwrap();
        assert_eq!(q.flows_matched, 0);
    }

    #[test]
    fn sinkless_query_counts_what_a_sink_would_receive() {
        let bytes = sectioned_archive(200, 4);
        let run = |sink: Option<Sink<'static>>| {
            let mut session = Pipeline::query()
                .input(Input::bytes(bytes.clone()))
                .from_secs(0.0)
                .to_secs(30.0);
            if let Some(sink) = sink {
                session = session.sink(sink);
            }
            session.run().unwrap()
        };
        let counted = run(None);
        let written = run(Some(Sink::bytes()));
        assert!(counted.report.packets > 0);
        assert_eq!(counted.report.packets, written.report.packets);
        assert_eq!(counted.report.query, written.report.query);
        // Only the session with a sink ran the merge.
        assert_eq!(counted.report.peak_open_flows, 0);
        assert!(written.report.peak_open_flows > 0);
        assert_eq!(
            written.into_bytes().unwrap().len() as u64,
            counted.report.packets * tsh::RECORD_BYTES as u64
        );
    }

    #[test]
    fn time_window_session_prunes_by_metadata() {
        let bytes = sectioned_archive(200, 5);
        let result = Pipeline::query()
            .input(Input::bytes(bytes))
            .from_secs(0.0)
            .to_secs(0.0)
            .run()
            .unwrap();
        let q = result.report.query.unwrap();
        assert!(q.sections_scanned <= q.sections_total);
        assert_eq!(q.sections_total, q.sections_scanned + q.sections_skipped());
    }

    #[test]
    fn flow_specs_parse_or_explain() {
        let t = parse_flow_spec("172.20.1.9:4242->193.5.9.1:80").unwrap();
        assert_eq!(
            t,
            FiveTuple::tcp(
                "172.20.1.9".parse().unwrap(),
                4242,
                "193.5.9.1".parse().unwrap(),
                80
            )
        );
        // Whitespace around the arrow is tolerated.
        assert_eq!(
            parse_flow_spec("172.20.1.9:4242 -> 193.5.9.1:80").unwrap(),
            t
        );
        for bad in [
            "172.20.1.9:4242",
            "a:1->b:2",
            "1.2.3.4->5.6.7.8:80",
            "1.2.3.4:99999->5.6.7.8:80",
        ] {
            assert!(parse_flow_spec(bad).is_err(), "{bad}");
        }
        // And the builder surfaces the parse error as a config error.
        let err = Pipeline::query().flow_spec("nonsense").unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)));
    }

    #[test]
    fn query_rejects_non_archive_inputs() {
        let trace = WebTrafficGenerator::new(
            WebTrafficConfig {
                flows: 5,
                ..WebTrafficConfig::default()
            },
            1,
        )
        .generate();
        let err = Pipeline::query()
            .input(Input::trace(&trace))
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
        let err = Pipeline::query().run().unwrap_err();
        assert!(err.to_string().contains("no input"), "{err}");
    }
}
