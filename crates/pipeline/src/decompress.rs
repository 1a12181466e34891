//! [`Pipeline::decompress`]: the symmetric session — archive in,
//! synthesized trace out, serialized as TSH or pcap.

use crate::compress::RunResult;
use crate::error::PipelineError;
use crate::input::Input;
use crate::report::{ArchiveSummary, Mode, Report, Timing};
use crate::sink::Sink;
use crate::Pipeline;
use flowzip_core::{DecompressParams, Decompressor};
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

    /// Runs the session: read the archive, decode it, and drain the §4
    /// merge ([`Decompressor::packets`]) into the sink record by record
    /// in the chosen capture format. Memory is O(archive + flows open at
    /// once), whatever the packet count; the report's `peak_open_flows`
    /// is that working set's high-water mark.
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

        let (archive, summary) = ArchiveSummary::inspect(&bytes)
            .map_err(|e| PipelineError::decode(context.clone(), e))?;
        // The parsed archive is all the merge reads from here on.
        drop(bytes);

        let mut report = Report::new(Mode::Decompress);
        report.inputs = inputs_desc;
        report.output = sink.path();
        report.flows = archive.flow_count() as u64;
        report.archive = Some(summary);

        // §4: merge the flows by timestamp *while writing the output* —
        // each synthesized packet goes straight into the sink's buffer.
        let decompressor = Decompressor::new(params);
        let mut packets = decompressor.packets(&archive);
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
