//! [`Pipeline::decompress`]: the symmetric session — archive in,
//! synthesized trace out, serialized as TSH or pcap.

use crate::compress::RunResult;
use crate::error::PipelineError;
use crate::input::Input;
use crate::report::{ArchiveSummary, Mode, Report, Timing};
use crate::sink::Sink;
use crate::Pipeline;
use flowzip_core::{ArchiveReader, DecompressParams, Decompressor};
use flowzip_trace::reader::CaptureFormat;
use flowzip_trace::tsh;
use std::time::Instant;

/// Builder for one decompression session. Construct with
/// [`Pipeline::decompress`].
#[derive(Debug)]
pub struct DecompressBuilder<'a> {
    input: Option<Input<'a>>,
    sink: Option<Sink<'a>>,
    params: DecompressParams,
    output_format: CaptureFormat,
}

impl Pipeline {
    /// Starts a decompression session: one archive [`Input`]
    /// ([`Input::file`] or [`Input::bytes`]), one trace [`Sink`], then
    /// [`run()`](DecompressBuilder::run).
    pub fn decompress<'a>() -> DecompressBuilder<'a> {
        DecompressBuilder {
            input: None,
            sink: None,
            params: DecompressParams::default(),
            output_format: CaptureFormat::Tsh,
        }
    }
}

impl<'a> DecompressBuilder<'a> {
    /// The archive input (required): a `.fzc` file or in-memory bytes.
    pub fn input(mut self, input: Input<'a>) -> Self {
        self.input = Some(input);
        self
    }

    /// The trace output (required).
    pub fn sink(mut self, sink: Sink<'a>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// RNG seed for synthesized addresses and ports.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Full decompression knobs (timing gaps, default RTT, seed).
    pub fn params(mut self, params: DecompressParams) -> Self {
        self.params = params;
        self
    }

    /// Capture format to serialize the synthesized trace in (default:
    /// TSH; pcap also supported).
    pub fn output_format(mut self, format: CaptureFormat) -> Self {
        self.output_format = format;
        self
    }

    /// Runs the session: read the archive, open it and validate every
    /// section ([`ArchiveReader::records`]), and drain the §4 merge
    /// ([`Decompressor::packets`]) into the sink record by record in the
    /// chosen capture format. Every decode error surfaces before the
    /// first packet. Memory is the archive bytes, the reader's resident
    /// datasets, ≈ 8 B per long template, the flows open at once and the
    /// sink's buffer — whatever the packet count, and with no per-flow
    /// record array; the report's `peak_open_flows` is the open flows'
    /// high-water mark.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] for inputs that are not archive-shaped;
    /// [`PipelineError::Read`] / [`PipelineError::Decode`] for unreadable
    /// or invalid archives; [`PipelineError::Write`] for sink failures.
    pub fn run(self) -> Result<RunResult, PipelineError> {
        let DecompressBuilder {
            input,
            sink,
            params,
            output_format,
        } = self;
        let input = input.ok_or_else(|| {
            PipelineError::config("decompress session has no input — call .input(Input::…)")
        })?;
        let sink = sink.ok_or_else(|| {
            PipelineError::config("decompress session has no sink — call .sink(Sink::…)")
        })?;
        let started = Instant::now();
        let inputs_desc = input.describe();
        let context = format!("decompress {}", inputs_desc.join(" "));

        let bytes = input.kind.into_archive("decompress", &context)?;
        let read_wait = started.elapsed().as_secs_f64();

        // The reader's walk checks every record before the first packet.
        let decode_err = |e| PipelineError::decode(context.clone(), e);
        let reader = ArchiveReader::open(&bytes).map_err(decode_err)?;
        let flows = reader.records(|_| true).map_err(decode_err)?;
        let summary = ArchiveSummary::inspect(&reader, &flows, bytes.len());

        let mut report = Report::new(Mode::Decompress);
        report.inputs = inputs_desc;
        report.output = sink.path();
        report.flows = flows.flows();
        report.archive = Some(summary);

        // §4: merge the flows by timestamp *while writing the output* —
        // each synthesized packet goes straight into the sink's buffer.
        let decompressor = Decompressor::new(params);
        let mut packets = decompressor.packets(flows);
        let delivered = sink.deliver_packets(output_format, &mut packets)?;
        report.packets = delivered.packets;
        report.peak_open_flows = packets.peak_open() as u64;
        report.output_bytes = delivered.bytes_written;
        report.timing = Some(Timing::new(
            started.elapsed().as_secs_f64(),
            read_wait,
            delivered.packets,
            delivered.packets * tsh::RECORD_BYTES as u64,
        ));
        Ok(RunResult {
            report,
            bytes: delivered.buffer,
        })
    }
}
