//! The unified run [`Report`]: one structure — and one stable JSON
//! schema — for compress, decompress and archive-inspection runs.
//!
//! Before the pipeline existed the CLI stitched three report shapes
//! together by hand: `CompressionReport` for the §3/§5 figures,
//! `EngineReport` for throughput and shards, and an ad-hoc JSON literal
//! for `info`. This type merges them: every mode fills the subset of
//! fields it knows
//! ([`Report::compression`], [`Report::engine`], [`Report::archive`],
//! [`Report::timing`]), and [`Report::to_json`] emits the present fields
//! in one fixed order, so `flowzip compress --json`,
//! `flowzip decompress --json` and `flowzip info --json` all speak the
//! same schema.

pub use flowzip_core::TelemetrySummary;
use flowzip_core::{
    ArchiveFormat, ArchiveReader, ArchiveTelemetry, CompressionReport, DatasetSizes, Records,
};
use flowzip_engine::EngineReport;
use flowzip_io::IoStats;
use flowzip_obs::json::JsonObject;
use flowzip_obs::StatsSnapshot;
use std::fmt;

// The shared escaping helper (kept at this path — it predates
// `flowzip-obs` and callers import it from here).
pub use flowzip_obs::json::json_escape;

/// What kind of run the report describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Packets in, archive out.
    Compress,
    /// Archive in, synthesized trace out: the query that matches every
    /// flow, with a sink.
    Decompress,
    /// Archive metadata only (`flowzip info`).
    Info,
    /// Archive in, *matching* packets out (`flowzip query`): the
    /// planner decodes only sections the v2.1 metadata cannot rule out.
    Query,
}

impl Mode {
    /// The JSON `"mode"` value.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Mode::Compress => "compress",
            Mode::Decompress => "decompress",
            Mode::Info => "info",
            Mode::Query => "query",
        }
    }
}

/// Archive-shaped facts: container layout plus dataset footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveSummary {
    /// Container layout written or read.
    pub format: ArchiveFormat,
    /// Archive sections (v2: per shard; v1: always 1).
    pub sections: u64,
    /// Whole-file size in bytes.
    pub file_bytes: u64,
    /// `short-flows-template` entries (cluster centers).
    pub short_templates: u64,
    /// `long-flows-template` entries (verbatim long flows).
    pub long_templates: u64,
    /// Unique destination addresses.
    pub addresses: u64,
    /// Byte footprint per §3 dataset, when the run measured it:
    /// inspection and compress runs do, and so does a decompress or
    /// query run whose walk covered every section.
    pub sizes: Option<DatasetSizes>,
    /// Whether the archive carries the rev 2.1 per-section metadata
    /// block (always `false` for v1).
    pub has_metadata: bool,
    /// Aggregated rev 2.2 per-flow telemetry, when the archive carries
    /// an `FZT1` side-section (always `None` for v1 and plain v2).
    pub telemetry: Option<TelemetrySummary>,
}

impl ArchiveSummary {
    /// Summarizes an opened archive of `file_bytes` bytes (v1 or v2)
    /// whose every section `records` walked: the header facts, and the
    /// real file layout (a multi-section v2 index would not survive a
    /// re-encode).
    pub fn inspect(
        reader: &ArchiveReader<'_>,
        records: &Records<'_>,
        file_bytes: usize,
    ) -> ArchiveSummary {
        ArchiveSummary {
            sizes: Some(records.sizes()),
            ..ArchiveSummary::from_reader(reader, file_bytes)
        }
    }

    /// The facts a parsed header gives — no payload decoded, so a
    /// query's pruning savings survive the summary; `sizes` left
    /// unmeasured.
    pub(crate) fn from_reader(reader: &ArchiveReader<'_>, file_bytes: usize) -> ArchiveSummary {
        let (short_templates, long_templates, addresses, sections) = reader.counts();
        ArchiveSummary {
            format: reader.format(),
            sections,
            file_bytes: file_bytes as u64,
            short_templates,
            long_templates,
            addresses,
            sizes: None,
            has_metadata: reader.metadata().is_some(),
            telemetry: reader.telemetry().map(ArchiveTelemetry::summary),
        }
    }
}

/// Engine facts every compress run carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSummary {
    /// Worker shards the run used.
    pub shards: usize,
    /// Flows force-closed by idle-timeout eviction.
    pub evicted_flows: u64,
}

/// Wall-clock accounting for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Seconds spent blocked waiting on input.
    pub read_wait_secs: f64,
    /// `elapsed − read_wait`, clamped at zero.
    pub compute_secs: f64,
    /// Seconds of serial serialization tail. Always 0 for decompress and
    /// query runs: they encode each packet as the merge produces it, so
    /// there is no tail to time apart from the run itself.
    pub serialize_secs: f64,
    /// Busiest-shard measured stage time (instrumented compress runs
    /// only; 0 otherwise).
    pub stage_busy_secs: f64,
    /// `elapsed − read_wait − stage_busy`, clamped at zero — wall-clock
    /// the stage instruments did not see (instrumented runs only).
    pub unattributed_secs: f64,
    /// Packets consumed per wall-clock second.
    pub packets_per_sec: f64,
    /// Input throughput in TSH megabytes per second.
    pub mb_per_sec: f64,
}

impl Timing {
    /// Builds the throughput figures from totals, guarding `elapsed = 0`.
    pub(crate) fn new(
        elapsed_secs: f64,
        read_wait_secs: f64,
        packets: u64,
        tsh_bytes: u64,
    ) -> Timing {
        let read_wait_secs = read_wait_secs.min(elapsed_secs);
        let div = elapsed_secs.max(f64::EPSILON);
        Timing {
            elapsed_secs,
            read_wait_secs,
            compute_secs: (elapsed_secs - read_wait_secs).max(0.0),
            serialize_secs: 0.0,
            stage_busy_secs: 0.0,
            unattributed_secs: 0.0,
            packets_per_sec: packets as f64 / div,
            mb_per_sec: tsh_bytes as f64 / div / 1e6,
        }
    }
}

/// The unified run report every pipeline session returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// What kind of run this was.
    pub(crate) mode: Mode,
    /// Input names (paths, patterns, or `<in-memory …>` placeholders).
    pub inputs: Vec<String>,
    /// Output path, when the sink had one.
    pub output: Option<String>,
    /// Packets processed (consumed for compress, produced for
    /// decompress, stored for info).
    pub packets: u64,
    /// Flows processed.
    pub flows: u64,
    /// The §3/§5 compression report (compress runs).
    pub compression: Option<CompressionReport>,
    /// Engine figures (compress runs).
    pub engine: Option<EngineSummary>,
    /// Archive container facts (every mode that touched an archive).
    pub archive: Option<ArchiveSummary>,
    /// Query-planner effectiveness counters (query and decompress runs).
    pub query: Option<flowzip_core::QueryStats>,
    /// Most flows the §4 merge held open at once (decompress runs, and
    /// query runs with a sink) — the decompress twin of
    /// [`Report::peak_active_flows`], and what the run's memory scales
    /// with instead of the packet count.
    pub peak_open_flows: u64,
    /// Wall-clock accounting (compress and decompress runs).
    pub timing: Option<Timing>,
    /// Bytes delivered to the sink.
    pub output_bytes: u64,
    /// Final metrics-registry dump, when the session ran with
    /// observability enabled ([`CompressBuilder::metrics`] or a stats
    /// interval).
    ///
    /// [`CompressBuilder::metrics`]: crate::CompressBuilder::metrics
    pub metrics: Option<StatsSnapshot>,
}

impl Report {
    /// An empty report in `mode`; the session fills what it knows.
    pub(crate) fn new(mode: Mode) -> Report {
        Report {
            mode,
            inputs: Vec::new(),
            output: None,
            packets: 0,
            flows: 0,
            compression: None,
            engine: None,
            archive: None,
            query: None,
            peak_open_flows: 0,
            timing: None,
            output_bytes: 0,
            metrics: None,
        }
    }

    /// An `info`-mode report for an archive whose records `records`
    /// walked — for callers that go on to read its flows too.
    pub fn from_archive(records: &Records<'_>, summary: ArchiveSummary) -> Report {
        let mut report = Report::new(Mode::Info);
        report.packets = records.packets();
        report.flows = records.flows();
        report.archive = Some(summary);
        report
    }

    /// Folds an [`EngineReport`] into the unified [`Report`], charging
    /// the drained source's [`IoStats`] (when the input had one) to the
    /// read-wait/compute split — the same [`Timing`] clamp decompress
    /// sessions use, so the report pipelines cannot drift. When the run
    /// wrote an `FZT1` block, the engine report carries its rows'
    /// summary, folded as the block was encoded. This is how compress
    /// sessions summarize their run, and how embedders that drive the
    /// engine directly (e.g. `flowzip serve`'s per-window reports)
    /// produce the same stable schema.
    pub fn from_engine(er: EngineReport, stats: Option<&IoStats>) -> Report {
        let mut report = Report::new(Mode::Compress);
        report.packets = er.report.packets;
        report.flows = er.report.flows;
        report.engine = Some(EngineSummary {
            shards: er.shards,
            evicted_flows: er.evicted_flows,
        });
        report.archive = Some(ArchiveSummary {
            format: ArchiveFormat::V2,
            sections: er.sections as u64,
            file_bytes: er.archive_bytes,
            short_templates: er.report.clusters,
            long_templates: er.report.long_flows,
            addresses: er.report.addresses,
            sizes: Some(er.report.sizes),
            has_metadata: true,
            telemetry: er.telemetry,
        });
        // Raw-iterator runs carry no stats handle: nothing was read.
        let read_wait = stats.map_or(0.0, IoStats::read_wait_secs);
        let mut timing = Timing::new(
            er.elapsed_secs,
            read_wait,
            er.report.packets,
            er.report.tsh_bytes,
        );
        timing.serialize_secs = er.serialize_secs;
        timing.stage_busy_secs = er.stage_busy_secs;
        if er.stage_busy_secs > 0.0 {
            // The engine's own residual knows nothing of the source's
            // read-wait; charge it here.
            timing.unattributed_secs =
                (timing.elapsed_secs - timing.read_wait_secs - er.stage_busy_secs).max(0.0);
        }
        report.timing = Some(timing);
        report.compression = Some(er.report);
        report
    }

    /// Open-flow high-water mark, when the run tracked one.
    pub fn peak_active_flows(&self) -> u64 {
        self.compression.as_ref().map_or(0, |c| c.peak_active_flows)
    }

    /// Serializes the report as one JSON object in the **stable unified
    /// schema**: fields appear in a fixed order and absent groups are
    /// omitted (never emitted as `null`), so `compress --json`,
    /// `decompress --json` and `info --json` are the same shape with
    /// different subsets present.
    pub fn to_json(&self) -> String {
        let mut j = JsonObject::pretty();
        j.str("mode", self.mode.as_str());
        if !self.inputs.is_empty() {
            j.str_array("inputs", &self.inputs);
        }
        if let Some(out) = &self.output {
            j.str("output", out);
        }
        j.num("packets", self.packets);
        j.num("flows", self.flows);
        if let Some(c) = &self.compression {
            j.num("short_flows", c.short_flows);
            j.num("long_flows", c.long_flows);
            j.num("clusters", c.clusters);
            j.num("matched_flows", c.matched_flows);
            j.num("addresses", c.addresses);
            j.num("peak_active_flows", c.peak_active_flows);
            j.num("tsh_bytes", c.tsh_bytes);
            j.f6("ratio_vs_tsh", c.ratio_vs_tsh);
            j.f6("ratio_vs_headers", c.ratio_vs_headers);
        }
        if let Some(e) = &self.engine {
            j.num("shards", e.shards as u64);
            j.num("evicted_flows", e.evicted_flows);
        }
        if let Some(a) = &self.archive {
            j.str("format", &a.format.to_string());
            j.num("sections", a.sections);
            j.bool("has_metadata", a.has_metadata);
            j.num("file_bytes", a.file_bytes);
            j.num("archive_bytes", a.file_bytes);
            j.num("short_templates", a.short_templates);
            j.num("long_templates", a.long_templates);
            if self.compression.is_none() {
                j.num("addresses", a.addresses);
            }
            if let Some(t) = &a.telemetry {
                j.raw(
                    "telemetry",
                    &format!(
                        concat!(
                            "{{\n",
                            "    \"flows\": {},\n",
                            "    \"rtt_flows\": {},\n",
                            "    \"rtt_samples\": {},\n",
                            "    \"mean_rtt_us\": {},\n",
                            "    \"p95_rtt_us\": {},\n",
                            "    \"retrans_fast\": {},\n",
                            "    \"retrans_timeout\": {}\n",
                            "  }}"
                        ),
                        t.flows,
                        t.rtt_flows,
                        t.rtt_samples,
                        t.mean_rtt_us,
                        t.p95_rtt_us,
                        t.retrans_fast,
                        t.retrans_timeout,
                    ),
                );
            }
        }
        if let Some(q) = &self.query {
            j.num("sections_total", q.sections_total);
            j.num("sections_scanned", q.sections_scanned);
            j.num("sections_skipped", q.sections_skipped());
            j.num("sections_skipped_time", q.sections_skipped_time);
            j.num("sections_skipped_bloom", q.sections_skipped_bloom);
            j.num("flows_total", q.flows_total);
            j.num("flows_matched", q.flows_matched);
        }
        if matches!(self.mode, Mode::Decompress | Mode::Query) {
            j.num("peak_open_flows", self.peak_open_flows);
        }
        if let Some(t) = &self.timing {
            j.f6("elapsed_secs", t.elapsed_secs);
            j.f6("read_wait_secs", t.read_wait_secs);
            j.f6("compute_secs", t.compute_secs);
            j.f6("serialize_secs", t.serialize_secs);
            if t.stage_busy_secs > 0.0 {
                j.f6("stage_busy_secs", t.stage_busy_secs);
                j.f6("unattributed_secs", t.unattributed_secs);
            }
            j.f0("packets_per_sec", t.packets_per_sec);
            j.f2("mb_per_sec", t.mb_per_sec);
        }
        j.num("output_bytes", self.output_bytes);
        if let Some(sizes) = self.archive.as_ref().and_then(|a| a.sizes) {
            j.raw(
                "dataset_bytes",
                &format!(
                    concat!(
                        "{{\n",
                        "    \"header\": {},\n",
                        "    \"short_templates\": {},\n",
                        "    \"long_templates\": {},\n",
                        "    \"addresses\": {},\n",
                        "    \"time_seq\": {},\n",
                        "    \"metadata\": {},\n",
                        "    \"telemetry\": {}\n",
                        "  }}"
                    ),
                    sizes.header,
                    sizes.short_templates,
                    sizes.long_templates,
                    sizes.addresses,
                    sizes.time_seq,
                    sizes.metadata,
                    sizes.telemetry,
                ),
            );
        }
        if let Some(snap) = &self.metrics {
            if !snap.is_empty() {
                j.raw("metrics", &snap.to_json());
            }
        }
        j.finish()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mode {
            Mode::Compress => {
                if let Some(c) = &self.compression {
                    write!(f, "{c}")?;
                }
                if let (Some(e), Some(t)) = (&self.engine, &self.timing) {
                    write!(
                        f,
                        "; {} shards, {:.2}s, {:.0} packets/s ({:.2} MB/s), \
                         peak {} active flows, {} evicted",
                        e.shards,
                        t.elapsed_secs,
                        t.packets_per_sec,
                        t.mb_per_sec,
                        self.peak_active_flows(),
                        e.evicted_flows
                    )?;
                    if t.read_wait_secs > 0.0 {
                        write!(
                            f,
                            "; read-wait {:.3}s / compute {:.3}s",
                            t.read_wait_secs, t.compute_secs
                        )?;
                    }
                    if let Some(a) = &self.archive {
                        write!(
                            f,
                            "; {} section archive, {} B, serial tail {:.4}s",
                            a.sections, a.file_bytes, t.serialize_secs
                        )?;
                    }
                }
                Ok(())
            }
            Mode::Decompress => {
                write!(
                    f,
                    "decompressed {} packets from {} flows ({} B written)",
                    self.packets, self.flows, self.output_bytes
                )?;
                if self.peak_open_flows > 0 {
                    write!(f, "; peak {} open flows", self.peak_open_flows)?;
                }
                Ok(())
            }
            Mode::Info => {
                let (format, bytes) = self
                    .archive
                    .as_ref()
                    .map(|a| (a.format.to_string(), a.file_bytes))
                    .unwrap_or_default();
                write!(
                    f,
                    "{format} archive: {} flows, {} packets, {bytes} B",
                    self.flows, self.packets
                )
            }
            Mode::Query => {
                write!(
                    f,
                    "query matched {} of {} flows ({} packets)",
                    self.query.as_ref().map_or(self.flows, |q| q.flows_matched),
                    self.query.as_ref().map_or(0, |q| q.flows_total),
                    self.packets,
                )?;
                if let Some(q) = &self.query {
                    write!(
                        f,
                        "; scanned {}/{} sections ({} skipped: {} by time, {} by bloom)",
                        q.sections_scanned,
                        q.sections_total,
                        q.sections_skipped(),
                        q.sections_skipped_time,
                        q.sections_skipped_bloom,
                    )?;
                    if !q.has_metadata {
                        write!(f, "; no v2.1 metadata — full scan")?;
                    }
                }
                if self.peak_open_flows > 0 {
                    write!(f, "; peak {} open flows", self.peak_open_flows)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb"), "a\\u000ab");
    }

    #[test]
    fn empty_compress_report_is_well_formed() {
        let mut r = Report::new(Mode::Compress);
        r.inputs = vec!["a.tsh".to_string()];
        r.packets = 7;
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"mode\": \"compress\""), "{json}");
        assert!(json.contains("\"inputs\": [\"a.tsh\"]"), "{json}");
        assert!(json.contains("\"packets\": 7"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n}"), "no trailing comma: {json}");
    }

    #[test]
    fn display_modes_have_distinct_shapes() {
        let mut d = Report::new(Mode::Decompress);
        d.packets = 10;
        d.flows = 2;
        d.output_bytes = 440;
        assert_eq!(
            d.to_string(),
            "decompressed 10 packets from 2 flows (440 B written)"
        );
    }
}
