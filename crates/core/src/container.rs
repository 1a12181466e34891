//! Archive container **v2**: a versioned header, small global datasets,
//! and *shared-nothing per-shard sections*.
//!
//! The v1 container ([`datasets`](crate::datasets)) serializes the whole
//! archive in one pass — fine for the batch compressor, but for the
//! sharded streaming engine it turns the merge step into a serial tail
//! that is O(trace). v2 moves every O(trace) dataset into per-shard
//! *sections* that each shard encodes on its own thread; the writer only
//! merges the near-constant-size state (template stores, address lists)
//! and concatenates section payloads behind an index.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ "FZC2" magic + version byte                                      │
//! │ preamble: #short-templates, #long-templates, #addresses, #sections│
//! │ short-flows-template dataset   (global, merged — near-constant)  │
//! │ address dataset                (global, deduped — near-constant) │
//! │ section index: per section                                       │
//! │   payload length, flow count, long-template count,               │
//! │   short-template remap (local→global), address remap             │
//! │ section payloads, concatenated; each self-contained:             │
//! │   long-flows-template slice + time-seq slice (local indices,     │
//! │   locally time-sorted, delta timestamps restart per section)     │
//! │ v2.1: optional trailing metadata block ("FZM1"): per section the │
//! │   time range, packet/flow counts, byte split and a flow-key      │
//! │   Bloom filter — what `flowzip query` prunes sections with       │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! **Format rev 2.1.** The magic and version byte stay `FZC2`/2; the
//! only change is the optional [`meta`](crate::meta) block after the
//! last payload. Compat rules: the block never participates in
//! [`CompressedTrace`] reconstruction (decoding a v2.1 file and its
//! metadata-stripped v2 twin yields equal archives), a reader accepts
//! files with or without it, and writers that must interoperate with
//! strict pre-2.1 readers emit plain v2 via
//! `CompressedTrace::encode_v2_opts`. When present the block is
//! validated, not blindly skipped — a corrupt or truncated block is a
//! [`CodecError`], never a panic or a silently wrong query index.
//!
//! **One reader, both revisions.** [`ArchiveReader`] parses the header,
//! index and trailing blocks once; every consumer — decompression, the
//! query planner, `flowzip info`'s summary, the analysis passes, and
//! [`read_v2`] / [`CompressedTrace::from_bytes`] — reads through it, and
//! payloads decode serially on the caller's thread, record by record
//! through one merge ([`ArchiveReader::records`]). A v1 archive opens as
//! one section with identity remaps and no `FZM1`/`FZT1` block: its
//! payload spans the long-template dataset, the address dataset and the
//! time-seq dataset, and decoding skips the address bytes between the
//! two record slices (a v2 payload skips none). Both revisions share the
//! record encoding, so one decoder reads both. The parse lives in the
//! crate's `decode` module, behind one checked byte cursor, and so does
//! [`ArchiveFormat::detect`], the only place the magic is looked at;
//! this module keeps the writers, of which `write_v2` is the only one
//! that lays out a v2 archive.
//!
//! **Equivalence guarantee.** Reading a v2 archive reconstructs the
//! *identical* [`CompressedTrace`] the v1 path would have produced from
//! the same shards: template stores merge in shard order under the same
//! Eq. 4 rule, addresses dedupe in the same first-appearance order, and
//! the per-section time-sorted records are k-way merged with ties broken
//! by section index — exactly the stable sort v1 applies to the
//! concatenated records. Decompression output is therefore
//! packet-identical across formats, which the engine equivalence suite
//! pins for shard counts 1, 2 and 8.

use crate::cluster::TemplateStore;
use crate::datasets::{
    put_varint, CodecError, CompressedTrace, DatasetSizes, FlowRecord, RTT_SHIFT,
};
pub use crate::decode::{ArchiveFlow, Records};
use crate::decode::{ByteCursor, SectionEntry};
use crate::decompress::DEFAULT_SEED;
use crate::meta::{ArchiveMeta, SectionMeta};
use crate::telemetry::{ArchiveTelemetry, FlowTelemetry, SectionTelemetry, TelemetrySummary};
use crate::Params;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::Ipv4Addr;

/// Container v2 magic: "FZC2".
pub(crate) const MAGIC_V2: [u8; 4] = *b"FZC2";
/// Container v2 version byte.
pub(crate) const VERSION_V2: u8 = 2;

/// Which container layout an archive uses. [`ArchiveReader`] opens both;
/// the only writer of v1 is [`CompressedTrace::to_bytes`], the reference
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArchiveFormat {
    /// The original single-blob layout (magic `FZC1`).
    V1,
    /// Sectioned layout with a section index (magic `FZC2`), the default.
    #[default]
    V2,
}

impl std::fmt::Display for ArchiveFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveFormat::V1 => write!(f, "v1"),
            ArchiveFormat::V2 => write!(f, "v2"),
        }
    }
}

/// One shard's finished, self-contained archive section: the encoded
/// O(trace) payload plus the small shard-local state the writer's index
/// assembly still needs (template store to merge, address list to
/// dedupe, counters for the report).
///
/// Produced by [`FlowAssembler::into_section`](crate::FlowAssembler::into_section)
/// — on the shard's own thread, which is the point.
#[derive(Debug)]
pub struct ShardSection {
    /// The shard-local template store, awaiting the Eq. 4 merge.
    pub store: TemplateStore,
    /// Shard-local destination addresses in first-appearance order.
    pub addresses: Vec<Ipv4Addr>,
    /// Encoded long-template + time-seq slice (local indices).
    pub payload: Vec<u8>,
    /// Flow records in the payload.
    pub flow_count: u64,
    /// Long templates in the payload.
    pub long_count: u64,
    /// Packets this shard consumed.
    pub packets: u64,
    /// Short flows this shard consumed.
    pub short_flows: u64,
    /// Long flows this shard consumed.
    pub long_flows: u64,
    /// Bytes of the payload's long-template slice; the rest of it is the
    /// time-seq slice.
    pub long_template_bytes: u64,
    /// The section's v2.1 metadata record (time range, counts, flow-key
    /// Bloom filter), computed on the shard's thread alongside the
    /// payload encode.
    pub meta: SectionMeta,
    /// Per-flow telemetry rows in the payload's record order, when the
    /// engine ran with telemetry on. The writer emits the rev 2.2
    /// `FZT1` block only when *every* section carries rows.
    pub telemetry: Option<Vec<FlowTelemetry>>,
}

/// Appends one long template whose `len` entries [`put_long_entry`]
/// already encoded — a flow's packet log or a [`LongTemplate`], stored
/// as it is. v1 and v2 share this record encoding, so the formats cannot
/// drift (the cross-version tests compare decoded archives for
/// equality).
pub(crate) fn put_encoded_long_template(len: u64, entries: &[u8], out: &mut Vec<u8>) {
    put_varint(len, out);
    out.extend_from_slice(entries);
}

/// Appends one long-template entry: `varint M`, then `varint gap_µs`.
/// The accumulator logs every packet of a flow this way as it arrives.
#[inline]
pub(crate) fn put_long_entry(m: u16, gap_us: u64, out: &mut Vec<u8>) {
    let at = out.len();
    // A one-byte `M` (always, under the paper's weights) and a gap of at
    // most seven bytes (under 18 years) go out as one eight-byte store
    // cut back to their length. Only spare capacity takes that store, so
    // the log grows exactly as byte-wise pushes would grow it.
    if m < 0x80 && gap_us < 1 << 49 && out.capacity() - at >= 8 {
        let gap_len = varint_len(gap_us);
        // The gap's 7-bit groups, one per byte, low group first...
        let groups = (gap_us & 0x7f)
            | (gap_us << 1) & 0x7f00
            | (gap_us << 2) & 0x7f_0000
            | (gap_us << 3) & 0x7f00_0000
            | (gap_us << 4) & 0x7f_0000_0000
            | (gap_us << 5) & 0x7f00_0000_0000
            | (gap_us << 6) & 0x7f_0000_0000_0000;
        // ...with the continuation bit on every byte but its last.
        let more = 0x0080_8080_8080_8080 & ((1 << (8 * (gap_len - 1))) - 1);
        let word = u64::from(m) | (groups | more) << 8;
        out.extend_from_slice(&word.to_le_bytes());
        out.truncate(at + 1 + gap_len);
    } else {
        put_varint(m as u64, out);
        put_varint(gap_us, out);
    }
}

/// Bytes [`put_varint`] writes for `v`.
pub(crate) fn varint_len(v: u64) -> usize {
    1 + (63 - (v | 1).leading_zeros() as usize) / 7
}

/// Appends the `M` of every entry in `entries` to `out`, skipping the
/// gaps: clustering's view of a short flow's log. `entries` holds whole
/// entries from [`put_long_entry`] and nothing else.
pub(crate) fn long_entry_ms(entries: &[u8], out: &mut Vec<u16>) {
    let mut pos = 0;
    while pos < entries.len() {
        // Bit 8k + 7 of `ends` is set when byte k ends a varint. An
        // entry's first end closes its `M`, its second its gap.
        let (word, ends) = varint_ends_at(entries, pos);
        let gap1 = ends & ends.wrapping_sub(1);
        let g1 = gap1.trailing_zeros();
        let m2 = gap1 & gap1.wrapping_sub(1);
        let gap2 = m2 & m2.wrapping_sub(1);
        // One-byte `M`s (always, under the paper's weights): two entries
        // per word when both fit, else one; parsing byte by byte only
        // for a wider `M` or a gap of eight bytes or more.
        if ends & 0x80 != 0 && m2.trailing_zeros() == g1 + 8 && gap2 != 0 {
            out.push((word & 0x7f) as u16);
            out.push((word >> (g1 + 1) & 0x7f) as u16);
            pos += gap2.trailing_zeros() as usize / 8 + 1;
        } else if ends & 0x80 != 0 && gap1 != 0 {
            out.push((word & 0x7f) as u16);
            pos += g1 as usize / 8 + 1;
        } else {
            let mut cur = ByteCursor::new(&entries[pos..]);
            let (m, _) = cur.long_entry().expect("whole long-template entries");
            out.push(m);
            pos = entries.len() - cur.remaining();
        }
    }
}

/// Up to eight bytes of `bytes` from `pos` (`pos` in bounds) as a
/// little-endian word, and the mask of its bytes' high bits that are
/// clear — the bytes that end a varint — over the bytes present.
#[inline]
fn varint_ends_at(bytes: &[u8], pos: usize) -> (u64, u64) {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    match bytes.get(pos..pos + 8) {
        Some(eight) => {
            let word = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
            (word, !word & HIGH)
        }
        None => {
            let tail = &bytes[pos..];
            let word = tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            (word, !word & HIGH & (u64::MAX >> (64 - 8 * tail.len())))
        }
    }
}

/// Appends the short-flows-template dataset: per template its length,
/// then its `M` values (shared with v1's encoding).
pub(crate) fn put_short_templates<'t>(
    templates: impl IntoIterator<Item = &'t [u16]>,
    out: &mut Vec<u8>,
) {
    for t in templates {
        put_varint(t.len() as u64, out);
        for &m in t {
            put_varint(m as u64, out);
        }
    }
}

/// Appends one time-seq record (shared with v1's encoding; `last_ts`
/// carries the delta-coding state).
pub(crate) fn put_time_seq_record(r: &FlowRecord, last_ts: &mut u64, out: &mut Vec<u8>) {
    // Dataset id packed into the template index's low bit.
    put_varint((r.template_idx as u64) << 1 | r.is_long as u64, out);
    put_varint(r.addr_idx as u64, out);
    let ts = r.first_ts.as_micros();
    put_varint(ts.saturating_sub(*last_ts), out);
    *last_ts = ts;
    if !r.is_long {
        put_varint(r.rtt.as_micros() >> RTT_SHIFT, out);
    }
}

/// What the index-assembly merge learned — the clustering figures that
/// only exist after shard stores fold together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SectionMergeStats {
    /// Cluster centers in the merged `short-flows-template` dataset.
    pub clusters: u64,
    /// Flows that joined an existing cluster, post-merge.
    pub matched_flows: u64,
    /// Unique destination addresses, globally deduped.
    pub addresses: u64,
}

/// Lays per-shard sections out as a v2 archive, returning the layout
/// (its [`ArchiveLayout::sizes`] count index bytes as `header`) and the
/// post-merge clustering stats. This is the engine's entire serial
/// serialization tail: merge the near-constant template stores and
/// address lists, then hand the small global datasets, the index and the
/// payloads the shards already encoded to [`write_v2`] — O(shards +
/// clusters + addresses), not O(trace). The payloads are moved, never
/// copied, until [`ArchiveLayout::write_to`] writes them out.
///
/// # Panics
///
/// Panics if shard stores were built with different parameters (the same
/// contract as [`TemplateStore::merge`]).
pub(crate) fn layout_sections(
    params: &Params,
    sections: Vec<ShardSection>,
) -> (ArchiveLayout, SectionMergeStats) {
    let mut merged = TemplateStore::new(params.clone());
    let mut addresses: Vec<Ipv4Addr> = Vec::new();
    let mut addr_index: HashMap<Ipv4Addr, u32> = HashMap::new();
    let mut layouts = Vec::with_capacity(sections.len());
    let mut metas = Vec::with_capacity(sections.len());
    let mut telems = Vec::with_capacity(sections.len());
    for section in sections {
        let short_remap = merged.merge(section.store);
        let addr_remap = section
            .addresses
            .iter()
            .map(|&a| {
                *addr_index.entry(a).or_insert_with(|| {
                    addresses.push(a);
                    (addresses.len() - 1) as u32
                })
            })
            .collect();
        layouts.push(SectionLayout {
            payload: section.payload,
            flow_count: section.flow_count,
            long_count: section.long_count,
            long_template_bytes: section.long_template_bytes,
            short_remap,
            addr_remap,
        });
        metas.push(section.meta);
        telems.push(section.telemetry);
    }

    // Rev 2.1: the Bloom keys inside were computed shard-side against
    // real addresses and timestamps, so the global merge above cannot
    // invalidate them.
    let meta = ArchiveMeta {
        seed: DEFAULT_SEED,
        sections: metas,
    };
    // Rev 2.2: only when every shard ran with telemetry on — a partial
    // block would misdescribe the archive.
    let telemetry = telems
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .filter(|rows| !rows.is_empty())
        .map(|rows| ArchiveTelemetry {
            sections: rows
                .into_iter()
                .map(|flows| SectionTelemetry { flows })
                .collect(),
        });
    let mut layout = write_v2(
        merged.templates().iter().map(|t| t.vector.as_slice()),
        &addresses,
        layouts,
        Some(&meta),
        telemetry.as_ref(),
    );
    // Summarized here, so the rows are gone before the payloads stream.
    layout.telemetry = telemetry.as_ref().map(ArchiveTelemetry::summary);
    let stats = SectionMergeStats {
        clusters: merged.len() as u64,
        matched_flows: merged.matched_count(),
        addresses: addresses.len() as u64,
    };
    (layout, stats)
}

/// [`layout_sections`] written into one buffer, with its sizes.
#[cfg(test)]
pub(crate) fn write_sections(
    params: &Params,
    sections: Vec<ShardSection>,
) -> (Vec<u8>, DatasetSizes, SectionMergeStats) {
    let (layout, stats) = layout_sections(params, sections);
    let sizes = layout.sizes();
    (layout.into_bytes(), sizes, stats)
}

/// One section as [`write_v2`] lays it out: its encoded payload and
/// what its index entry says about it.
struct SectionLayout {
    /// Encoded long-template + time-seq slice (local indices).
    payload: Vec<u8>,
    flow_count: u64,
    long_count: u64,
    /// Bytes of the payload's long-template slice.
    long_template_bytes: u64,
    /// Local short-template index → global index.
    short_remap: Vec<u32>,
    /// Local address index → global index.
    addr_remap: Vec<u32>,
}

/// A v2 archive laid out but not yet written: the encoded head
/// (preamble, global datasets, section index), the section payloads as
/// the shards encoded them, the encoded `FZM1` and `FZT1` blocks, and
/// their footprint, which sums to the archive's exact length.
/// [`ArchiveLayout::write_to`] streams the parts into any writer, so no
/// buffer the size of the archive is ever built beside the payloads;
/// [`ArchiveLayout::into_bytes`] writes one for callers that want the
/// archive in memory.
#[derive(Debug)]
pub struct ArchiveLayout {
    head: Vec<u8>,
    payloads: Vec<Vec<u8>>,
    meta_block: Vec<u8>,
    telemetry_block: Vec<u8>,
    /// The `FZT1` rows summarized, when the archive carries the block
    /// and its writer kept the summary.
    telemetry: Option<TelemetrySummary>,
    sizes: DatasetSizes,
}

impl ArchiveLayout {
    /// The per-dataset footprint (index bytes count as `header`); its
    /// total is the archive's length.
    pub fn sizes(&self) -> DatasetSizes {
        self.sizes
    }

    /// The `FZT1` block's rows summarized, when the archive carries one
    /// (a layout of engine sections; `None` from
    /// [`CompressedTrace`]'s writers).
    pub fn telemetry(&self) -> Option<TelemetrySummary> {
        self.telemetry
    }

    /// Writes the archive into `out`: the head, each section payload
    /// (freed once it is written), then the trailing blocks. Returns the
    /// per-dataset footprint, which sums to the bytes written.
    ///
    /// # Errors
    ///
    /// The first error `out` returns; what was written before it is a
    /// truncated archive, which the caller must not publish.
    pub fn write_to(self, out: &mut impl Write) -> io::Result<DatasetSizes> {
        let ArchiveLayout {
            head,
            payloads,
            meta_block,
            telemetry_block,
            sizes,
            ..
        } = self;
        out.write_all(&head)?;
        for payload in payloads {
            out.write_all(&payload)?;
        }
        out.write_all(&meta_block)?;
        out.write_all(&telemetry_block)?;
        Ok(sizes)
    }

    /// The archive in one buffer, allocated once at its final length.
    pub fn into_bytes(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.sizes.total() as usize);
        self.write_to(&mut out).expect("a Vec takes every write");
        debug_assert_eq!(out.capacity(), out.len());
        out
    }
}

/// Lays out the v2 format — preamble, global short-template and address
/// datasets, section index, the payloads concatenated, then the optional
/// `FZM1` and `FZT1` blocks — with its per-dataset footprint (index
/// bytes count as `header`). The one writer of `FZC2`:
/// [`layout_sections`] and [`CompressedTrace::encode_v2`] both lay
/// archives out through it.
///
/// Every part but the payloads is encoded here; the payloads are moved
/// in as they are, so the layout's exact length is known before its
/// first byte is written.
fn write_v2<'t>(
    short_templates: impl ExactSizeIterator<Item = &'t [u16]>,
    addresses: &[Ipv4Addr],
    sections: Vec<SectionLayout>,
    meta: Option<&ArchiveMeta>,
    telemetry: Option<&ArchiveTelemetry>,
) -> ArchiveLayout {
    let mut head = Vec::new();
    head.extend_from_slice(&MAGIC_V2);
    head.push(VERSION_V2);
    put_varint(short_templates.len() as u64, &mut head);
    put_varint(sections.iter().map(|s| s.long_count).sum(), &mut head);
    put_varint(addresses.len() as u64, &mut head);
    put_varint(sections.len() as u64, &mut head);
    let preamble = head.len() as u64;

    let mark = head.len();
    put_short_templates(short_templates, &mut head);
    let short_bytes = (head.len() - mark) as u64;

    let mark = head.len();
    head.extend(addresses.iter().flat_map(Ipv4Addr::octets));
    let addr_bytes = (head.len() - mark) as u64;

    let mark = head.len();
    for section in &sections {
        put_varint(section.payload.len() as u64, &mut head);
        put_varint(section.flow_count, &mut head);
        put_varint(section.long_count, &mut head);
        for remap in [&section.short_remap, &section.addr_remap] {
            put_varint(remap.len() as u64, &mut head);
            for &g in remap {
                put_varint(g as u64, &mut head);
            }
        }
    }
    let index_bytes = (head.len() - mark) as u64;

    let mut meta_block = Vec::new();
    if let Some(meta) = meta {
        meta.encode(&mut meta_block);
    }
    let mut telemetry_block = Vec::new();
    if let Some(telemetry) = telemetry {
        telemetry.encode(&mut telemetry_block);
    }

    let payload_bytes: u64 = sections.iter().map(|s| s.payload.len() as u64).sum();
    let long_template_bytes: u64 = sections.iter().map(|s| s.long_template_bytes).sum();
    let sizes = DatasetSizes {
        header: preamble + index_bytes,
        short_templates: short_bytes,
        long_templates: long_template_bytes,
        addresses: addr_bytes,
        time_seq: payload_bytes - long_template_bytes,
        metadata: meta_block.len() as u64,
        telemetry: telemetry_block.len() as u64,
    };
    debug_assert_eq!(
        sizes.header + sizes.short_templates + sizes.addresses,
        head.len() as u64
    );
    ArchiveLayout {
        head,
        payloads: sections.into_iter().map(|s| s.payload).collect(),
        meta_block,
        telemetry_block,
        telemetry: None,
        sizes,
    }
}

/// An archive (v1 or v2) parsed once, with its payloads still encoded.
///
/// [`ArchiveReader::open`] walks the preamble, the global datasets, the
/// section index, the payload extents and the optional `FZM1`/`FZT1`
/// blocks in one pass, recording each dataset's byte footprint as it
/// goes; a v1 archive is one section without an index or trailing
/// blocks (see the [module docs](self)). Everything a header-only
/// consumer wants — [`counts`], [`metadata`], [`telemetry`] — is then a
/// method. Payloads decode only through [`records`]: one validating
/// walk over the sections the caller keeps, then a stable
/// `(first_ts, section)` merge of one record cursor per kept section,
/// decoding each record as the merge reaches it. Decompression, `query`,
/// `info` and the analysis passes all read that merge; [`read_v2`]
/// collects it.
///
/// Memory: the archive bytes the reader borrows, the short templates
/// and addresses it parsed (≈ 3 KB in the reference archive), the
/// section index, and per kept section one record and one offset per
/// long template (≈ 8 B each). Long templates stay in the archive
/// bytes; no record array is built.
///
/// [`counts`]: ArchiveReader::counts
/// [`metadata`]: ArchiveReader::metadata
/// [`telemetry`]: ArchiveReader::telemetry
/// [`records`]: ArchiveReader::records
#[derive(Debug)]
pub struct ArchiveReader<'a> {
    pub(crate) format: ArchiveFormat,
    pub(crate) n_long: usize,
    pub(crate) short_templates: Vec<Vec<u16>>,
    pub(crate) addresses: Vec<Ipv4Addr>,
    pub(crate) entries: Vec<SectionEntry<'a>>,
    pub(crate) meta: Option<ArchiveMeta>,
    pub(crate) telemetry: Option<ArchiveTelemetry>,
    /// Byte footprint with every payload byte counted as `time_seq`;
    /// [`Records::sizes`] moves the long-template slices across.
    pub(crate) footprint: DatasetSizes,
}

impl ArchiveReader<'_> {
    /// The container revision the bytes carry.
    pub fn format(&self) -> ArchiveFormat {
        self.format
    }

    /// `(short templates, long templates, addresses, sections)` as the
    /// preamble declares them — and as the index and datasets agree
    /// (always one section for v1).
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (
            self.short_templates.len() as u64,
            self.n_long as u64,
            self.addresses.len() as u64,
            self.entries.len() as u64,
        )
    }

    /// Flow records across all sections, as the index declares them.
    pub(crate) fn flows(&self) -> u64 {
        self.entries.iter().map(|e| e.flow_count as u64).sum()
    }

    /// The global short-flows-template dataset (cluster centers).
    pub fn short_templates(&self) -> &[Vec<u16>] {
        &self.short_templates
    }

    /// The global address dataset.
    pub fn addresses(&self) -> &[Ipv4Addr] {
        &self.addresses
    }

    /// The validated v2.1 metadata block, `None` for v1 and plain v2
    /// files.
    pub fn metadata(&self) -> Option<&ArchiveMeta> {
        self.meta.as_ref()
    }

    /// The validated v2.2 telemetry block, `None` below rev 2.2 (and
    /// for v1).
    pub fn telemetry(&self) -> Option<&ArchiveTelemetry> {
        self.telemetry.as_ref()
    }
}

/// Parses an archive (v2, or v1 as its one section) into one global
/// [`CompressedTrace`]: the [`ArchiveReader::records`] merge of every
/// section, collected, beside copies of every long template — exactly
/// [`CompressedTrace::from_bytes`]. A v2.1 trailing metadata block, when
/// present, is validated and then ignored — it never influences the
/// reconstructed archive.
///
/// # Errors
///
/// [`CodecError`] for malformed input; the result additionally passes
/// [`CompressedTrace::validate`].
pub fn read_v2(data: &[u8]) -> Result<CompressedTrace, CodecError> {
    let reader = ArchiveReader::open(data)?;
    let records = reader.records(|_| true)?;
    let long_templates = records.long_templates();
    let time_seq = records.map(|f| f.record).collect();
    let ct = CompressedTrace {
        short_templates: reader.short_templates,
        long_templates,
        addresses: reader.addresses,
        time_seq,
    };
    debug_assert_eq!(ct.validate(), Ok(()));
    Ok(ct)
}

/// The v2.1 trailing metadata block of an archive, if present (never
/// for v1): [`ArchiveReader::metadata`], owned. Payloads are never
/// decoded.
///
/// # Errors
///
/// [`CodecError`] when `data` is not a well-formed archive or the block
/// is corrupt.
pub fn v2_metadata(data: &[u8]) -> Result<Option<ArchiveMeta>, CodecError> {
    Ok(ArchiveReader::open(data)?.meta)
}

impl CompressedTrace {
    /// Serializes this archive as a single-section v2 container with
    /// the rev 2.1 metadata block. The batch compressor's v2 path — and
    /// byte-identical to what the streaming engine writes with one
    /// shard, since a lone shard's store merges into an empty global
    /// store as the identity (and both sides compute the metadata from
    /// the same time-sorted records under [`DEFAULT_SEED`]).
    pub fn to_bytes_v2(&self) -> Vec<u8> {
        self.encode_v2().0
    }

    /// [`CompressedTrace::to_bytes_v2`] plus the per-dataset footprint.
    pub fn encode_v2(&self) -> (Vec<u8>, DatasetSizes) {
        self.encode_v2_opts(true, None)
    }

    /// Serializes a single-section rev 2.2 container: metadata block
    /// plus an `FZT1` telemetry block whose rows must be in `time_seq`
    /// record order (one per [`FlowRecord`], index-joined).
    ///
    /// # Panics
    ///
    /// Panics when `telemetry.len() != self.time_seq.len()` — a
    /// mismatched block would misdescribe every flow after the gap.
    pub fn encode_v2_with_telemetry(&self, telemetry: &[FlowTelemetry]) -> (Vec<u8>, DatasetSizes) {
        assert_eq!(
            telemetry.len(),
            self.time_seq.len(),
            "one telemetry row per flow record"
        );
        self.encode_v2_opts(true, Some(telemetry))
    }

    /// [`CompressedTrace::encode_v2`] with both trailing blocks made
    /// explicit: `with_metadata = false` writes a plain v2 file (exact
    /// payload tiling, no trailing block) for interoperability with
    /// strict pre-2.1 readers — and for the compat tests that pin the
    /// two layouts decoding identically.
    pub(crate) fn encode_v2_opts(
        &self,
        with_metadata: bool,
        telemetry: Option<&[FlowTelemetry]>,
    ) -> (Vec<u8>, DatasetSizes) {
        let mut payload = Vec::new();
        for t in &self.long_templates {
            put_encoded_long_template(t.len() as u64, t.encoded(), &mut payload);
        }
        let long_template_bytes = payload.len() as u64;
        let mut last_ts = 0u64;
        for r in &self.time_seq {
            put_time_seq_record(r, &mut last_ts, &mut payload);
        }
        let time_seq_bytes = payload.len() as u64 - long_template_bytes;

        let meta = with_metadata.then(|| ArchiveMeta {
            seed: DEFAULT_SEED,
            sections: vec![SectionMeta::from_records(
                DEFAULT_SEED,
                self.packet_count(),
                long_template_bytes,
                time_seq_bytes,
                self.time_seq.iter().copied(),
                |r| self.addresses[r.addr_idx as usize],
            )],
        });
        let telemetry = telemetry.map(|rows| ArchiveTelemetry {
            sections: vec![SectionTelemetry {
                flows: rows.to_vec(),
            }],
        });
        // Identity remaps: the single section's locals are the globals.
        let identity = |n: usize| (0..n as u32).collect();
        let section = SectionLayout {
            payload,
            flow_count: self.time_seq.len() as u64,
            long_count: self.long_templates.len() as u64,
            long_template_bytes,
            short_remap: identity(self.short_templates.len()),
            addr_remap: identity(self.addresses.len()),
        };
        let layout = write_v2(
            self.short_templates.iter().map(Vec::as_slice),
            &self.addresses,
            vec![section],
            meta.as_ref(),
            telemetry.as_ref(),
        );
        let sizes = layout.sizes();
        (layout.into_bytes(), sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compressor;
    use crate::datasets::LongTemplate;
    use flowzip_trace::{Duration, Timestamp};
    use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};

    fn web_archive(flows: usize, seed: u64) -> CompressedTrace {
        let trace = WebTrafficGenerator::new(
            WebTrafficConfig {
                flows,
                ..WebTrafficConfig::default()
            },
            seed,
        )
        .generate();
        Compressor::new(Params::paper()).compress(&trace).0
    }

    /// `M` and gap values at and around every varint width boundary the
    /// entry codec branches on.
    fn boundary_entries() -> Vec<(u16, u64)> {
        let ms = [0u16, 1, 50, 127, 128, 16_383, 16_384, u16::MAX];
        let mut gaps = vec![0u64, u64::MAX];
        for bits in [7, 14, 21, 28, 35, 42, 49, 56, 63] {
            gaps.extend([(1 << bits) - 1, 1 << bits]);
        }
        ms.iter()
            .flat_map(|&m| gaps.iter().map(move |&g| (m, g)))
            .collect()
    }

    #[test]
    fn long_entries_encode_as_two_varints() {
        for (m, gap) in boundary_entries() {
            let mut want = Vec::new();
            put_varint(u64::from(m), &mut want);
            put_varint(gap, &mut want);
            // From an empty buffer (no spare capacity), with plenty, and
            // from an odd length with fewer than eight bytes spare.
            for (prefix, spare) in [(0, 0), (0, 64), (5, 2)] {
                let mut out = Vec::with_capacity(prefix + spare);
                out.resize(prefix, 0xAA);
                put_long_entry(m, gap, &mut out);
                assert_eq!(out[..prefix], vec![0xAA; prefix][..]);
                assert_eq!(out[prefix..], want[..], "M {m}, gap {gap}");
                let mut cur = ByteCursor::new(&out[prefix..]);
                let entry = cur.long_entry().unwrap();
                assert_eq!(entry, (m, Duration::from_micros(gap)));
                assert_eq!(cur.remaining(), 0);
            }
        }
    }

    #[test]
    fn long_entry_ms_matches_entry_by_entry_decoding() {
        let boundary = boundary_entries();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..2_000 {
            // Mostly the paper's one-byte `M`s and short gaps, with every
            // boundary value mixed in, over logs of every tail length.
            let n = case % 40;
            let mut log = Vec::new();
            let mut want = Vec::new();
            for _ in 0..n {
                let (m, gap) = match next() % 8 {
                    0 => boundary[next() as usize % boundary.len()],
                    _ => ((next() % 64) as u16, next() % (1 << (7 * (1 + next() % 3)))),
                };
                put_long_entry(m, gap, &mut log);
                want.push(m);
            }
            let mut got = vec![7u16];
            long_entry_ms(&log, &mut got);
            assert_eq!(got[0], 7, "appends");
            assert_eq!(got[1..], want[..], "case {case}");
        }
    }

    #[test]
    fn non_minimal_long_entries_parse_to_their_minimal_form() {
        // A v1 archive with one long flow, then the same archive with the
        // second entry's `M` (40) and gap (300) padded by zero groups:
        // valid LEB128 that no writer emits.
        let entries = [(3, 0), (40, 300), (7, 9)].map(|(m, g)| (m, Duration::from_micros(g)));
        let ct = CompressedTrace {
            short_templates: vec![],
            long_templates: vec![LongTemplate::from_entries(entries)],
            addresses: vec![Ipv4Addr::new(193, 5, 9, 1)],
            time_seq: vec![FlowRecord {
                first_ts: Timestamp::from_secs(1),
                is_long: true,
                template_idx: 0,
                addr_idx: 0,
                rtt: Duration::ZERO,
            }],
        };
        let (minimal, sizes) = ct.encode();
        let at = (sizes.header + sizes.short_templates) as usize;
        let mut padded = minimal[..at].to_vec();
        padded.extend([3, 3, 0, 40 | 0x80, 0, 0xAC, 0x82, 0x80, 0, 7, 9]);
        padded.extend_from_slice(&minimal[at + sizes.long_templates as usize..]);

        // The parse re-encodes the padded template: it equals the minimal
        // one, re-encodes to the minimal bytes, and expands to the same
        // packets.
        let parsed = CompressedTrace::from_bytes(&padded).unwrap();
        assert_eq!(parsed, CompressedTrace::from_bytes(&minimal).unwrap());
        assert_eq!(
            parsed.long_templates[0].encoded(),
            ct.long_templates[0].encoded()
        );
        assert_eq!(parsed.to_bytes(), minimal);
        let d = crate::Decompressor::default();
        assert_eq!(
            d.decompress_bytes(&padded).unwrap(),
            d.decompress_bytes(&minimal).unwrap()
        );
    }

    #[test]
    fn format_detection() {
        // `ArchiveFormat::detect` is tested beside it, in `decode`.
        assert_eq!(ArchiveFormat::V2.to_string(), "v2");
        assert_eq!(ArchiveFormat::default(), ArchiveFormat::V2);
    }

    #[test]
    fn v2_roundtrip_equals_v1_decode() {
        let ct = web_archive(200, 2);
        let via_v1 = CompressedTrace::from_bytes(&ct.to_bytes()).unwrap();
        let via_v2 = CompressedTrace::from_bytes(&ct.to_bytes_v2()).unwrap();
        assert_eq!(via_v1, via_v2);
    }

    #[test]
    fn v2_counts_match_preamble() {
        let ct = web_archive(120, 3);
        let bytes = ct.to_bytes_v2();
        let reader = ArchiveReader::open(&bytes).unwrap();
        let (s, l, a, sections) = reader.counts();
        assert_eq!(s, ct.short_templates.len() as u64);
        assert_eq!(l, ct.long_templates.len() as u64);
        assert_eq!(a, ct.addresses.len() as u64);
        assert_eq!(sections, 1);
        assert_eq!(reader.flows(), ct.time_seq.len() as u64);
    }

    #[test]
    fn v1_opens_as_one_section_agreeing_with_its_v2_twin() {
        let ct = web_archive(120, 3);
        let (v1, v1_sizes) = ct.encode();
        let (v2, v2_sizes) = ct.encode_v2();
        let r1 = ArchiveReader::open(&v1).unwrap();
        let r2 = ArchiveReader::open(&v2).unwrap();
        assert_eq!(r1.format(), ArchiveFormat::V1);
        assert_eq!(r2.format(), ArchiveFormat::V2);
        let counts = (
            ct.short_templates.len() as u64,
            ct.long_templates.len() as u64,
            ct.addresses.len() as u64,
            1,
        );
        assert_eq!(r1.counts(), counts);
        assert_eq!(r2.counts(), counts);
        assert_eq!(r1.flows(), ct.time_seq.len() as u64);
        // Each revision's layout walk recovers its own writer's breakdown.
        assert_eq!(r1.records(|_| true).unwrap().sizes(), v1_sizes);
        assert_eq!(r2.records(|_| true).unwrap().sizes(), v2_sizes);
        // v1 carries neither trailing block.
        assert!(r1.metadata().is_none() && r1.telemetry().is_none());
        let records = |r: &ArchiveReader<'_>| -> Vec<(FlowRecord, u64, usize)> {
            r.records(|_| true)
                .unwrap()
                .map(|f| (f.record, f.packets, f.section))
                .collect()
        };
        let (f1, f2) = (records(&r1), records(&r2));
        assert_eq!(f1, f2);
        assert!(f1.iter().all(|&(_, _, section)| section == 0));
        let (a1, a2) = (read_v2(&v1).unwrap(), read_v2(&v2).unwrap());
        assert_eq!(a1, a2);
        assert_eq!(
            a1.time_seq,
            f1.iter().map(|&(r, _, _)| r).collect::<Vec<_>>()
        );
        assert_eq!(v2_metadata(&v1), Ok(None));
    }

    #[test]
    fn v1_trailing_garbage_rejected() {
        let ct = web_archive(60, 6);
        let mut bytes = ct.to_bytes();
        assert!(CompressedTrace::from_bytes(&bytes).is_ok());
        bytes.push(0);
        assert_eq!(
            CompressedTrace::from_bytes(&bytes),
            Err(CodecError::Truncated)
        );
    }

    /// Every truncation and every single-byte `^ 0xFF` of `bytes`,
    /// through the whole reader: each mutant is an error or a valid
    /// archive, never a panic. Returns how many truncations and how
    /// many flips were accepted.
    fn sweep_mutants(bytes: &[u8]) -> (usize, usize) {
        let accepts = |m: &[u8]| -> usize {
            let Ok(reader) = ArchiveReader::open(m) else {
                return 0;
            };
            let records = reader.records(|_| true);
            match records {
                Ok(records) => {
                    assert_eq!(records.sizes().total(), m.len() as u64);
                    let (flows, packets) = (records.flows(), records.packets());
                    let merged: Vec<u64> = records.map(|f| f.packets).collect();
                    assert_eq!(merged.len() as u64, flows);
                    assert_eq!(merged.iter().sum::<u64>(), packets);
                    let ct = read_v2(m).expect("the merge accepted it");
                    assert_eq!(ct.validate(), Ok(()));
                    assert_eq!(ct.packet_count(), packets);
                    1
                }
                Err(_) => {
                    assert!(read_v2(m).is_err());
                    0
                }
            }
        };
        let cuts = (0..bytes.len()).map(|cut| accepts(&bytes[..cut])).sum();
        let mut m = bytes.to_vec();
        let mut flips = 0;
        for i in 0..m.len() {
            m[i] ^= 0xFF;
            flips += accepts(&m);
            m[i] ^= 0xFF;
        }
        (cuts, flips)
    }

    #[test]
    fn fixture_mutants_are_errors_or_valid_archives() {
        let v1 = include_bytes!("../../../tests/fixtures/web120_seed20050320.fzc");
        let v2 = include_bytes!("../../../tests/fixtures/web120_seed20050320.fzc2");
        // Both golden fixtures hold the same archive, through the same
        // reader.
        assert_eq!(
            CompressedTrace::from_bytes(v1).unwrap(),
            CompressedTrace::from_bytes(v2).unwrap()
        );
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
        let mut swept = 0;
        for file in std::fs::read_dir(dir).unwrap() {
            let path = file.unwrap().path();
            if !path.to_string_lossy().contains(".fzc") {
                continue;
            }
            let bytes = std::fs::read(&path).unwrap();
            let (cuts, flips) = sweep_mutants(&bytes);
            swept += 1;
            // No proper prefix of the golden v1 is an archive; of v2
            // exactly one is, the plain file ahead of the FZM1 block. A
            // flip inside a timestamp, RTT or Bloom byte can still leave
            // a valid archive.
            if bytes == v1 || bytes == v2 {
                assert_eq!(cuts, usize::from(bytes == v2), "{}", path.display());
                assert!(flips < bytes.len(), "{flips}");
            }
        }
        assert!(swept >= 7, "{swept} fixtures");
        // And a rev 2.2 archive, whose FZT1 block no fixture carries: its
        // legal prefixes are the plain v2 and rev 2.1 files.
        let ct = web_archive(20, 14);
        let telem: Vec<FlowTelemetry> = (0..ct.time_seq.len() as u64)
            .map(|i| FlowTelemetry {
                rtt_us: 900 + i,
                rtt_samples: 1 + i % 2,
                bytes: 100 * i,
                ..FlowTelemetry::default()
            })
            .collect();
        let (cuts, _) = sweep_mutants(&ct.encode_v2_with_telemetry(&telem).0);
        assert_eq!(cuts, 2);
    }

    /// `bytes` with the one-byte varint at `at` rewritten as the 10-byte
    /// encoding of 2⁶⁴ plus its value — a varint a reader that drops the
    /// 10th byte's high bits aliases back onto the original.
    fn overflowing_at(bytes: &[u8], at: usize) -> Vec<u8> {
        assert!(bytes[at] < 0x80, "a one-byte varint at {at}");
        let mut out = bytes[..at].to_vec();
        out.extend(crate::decode::tests::overflowing(u64::from(bytes[at])));
        out.extend_from_slice(&bytes[at + 1..]);
        out
    }

    #[test]
    fn overflowing_varints_rejected_not_aliased() {
        let v2 = crafted_v2(1, 0, 0, None);
        let v1 = CompressedTrace {
            short_templates: vec![vec![1]],
            long_templates: vec![],
            addresses: vec![Ipv4Addr::new(10, 0, 0, 1)],
            time_seq: vec![FlowRecord {
                first_ts: Timestamp::from_micros(1),
                is_long: false,
                template_idx: 0,
                addr_idx: 0,
                rtt: Duration::ZERO,
            }],
        }
        .to_bytes();
        let ct = web_archive(30, 15);
        let plain_len = ct.encode_v2_opts(false, None).0.len();
        let v21 = ct.to_bytes_v2();
        let v22 = ct
            .encode_v2_with_telemetry(&vec![FlowTelemetry::default(); ct.time_seq.len()])
            .0;
        for (surface, bytes, at) in [
            ("preamble count", &v2, 5),
            // Past the version, the preamble and template (6 B), the
            // address (4 B) and the index entry's four leading varints.
            ("index remap", &v2, 5 + 6 + 4 + 4),
            // A v1 payload runs to the end of the file: Δts, then RTT.
            ("time-seq Δstart", &v1, v1.len() - 2),
            ("FZM1 version", &v21, plain_len + 4),
            ("FZT1 version", &v22, v21.len() + 4),
        ] {
            assert!(CompressedTrace::from_bytes(bytes).is_ok(), "{surface}");
            assert_eq!(
                CompressedTrace::from_bytes(&overflowing_at(bytes, at)),
                Err(CodecError::Truncated),
                "{surface}"
            );
        }
    }

    #[test]
    fn v2_sizes_tile_the_file() {
        let ct = web_archive(150, 4);
        let (bytes, sizes) = ct.encode_v2();
        assert_eq!(sizes.total(), bytes.len() as u64);
        assert!(sizes.header > 0 && sizes.time_seq > 0);
        // Measuring the written file recovers the writer's breakdown.
        let reader = ArchiveReader::open(&bytes).unwrap();
        assert_eq!(reader.records(|_| true).unwrap().sizes(), sizes);
    }

    #[test]
    fn empty_archive_v2_roundtrips() {
        let ct = CompressedTrace::default();
        let back = CompressedTrace::from_bytes(&ct.to_bytes_v2()).unwrap();
        assert_eq!(back, ct);
    }

    #[test]
    fn v2_truncation_rejected() {
        // Plain v2 (no metadata block): every proper prefix is malformed.
        let bytes = web_archive(60, 5).encode_v2_opts(false, None).0;
        for cut in 5..bytes.len() {
            assert!(
                CompressedTrace::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn v21_truncation_rejected_except_at_metadata_boundary() {
        // With the trailing metadata block, exactly one prefix is legal:
        // the cut at the block's start, which *is* the plain v2 file.
        let ct = web_archive(60, 5);
        let full = ct.to_bytes_v2();
        let plain_len = ct.encode_v2_opts(false, None).0.len();
        assert!(plain_len < full.len());
        let decoded_full = CompressedTrace::from_bytes(&full).unwrap();
        for cut in 5..full.len() {
            let r = CompressedTrace::from_bytes(&full[..cut]);
            if cut == plain_len {
                assert_eq!(r.unwrap(), decoded_full, "metadata boundary is plain v2");
            } else {
                assert!(r.is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn v21_and_plain_v2_decode_identically() {
        let ct = web_archive(120, 8);
        let with = ct.encode_v2_opts(true, None).0;
        let without = ct.encode_v2_opts(false, None).0;
        assert!(with.len() > without.len());
        assert_eq!(with[..without.len()], without[..], "block is a pure suffix");
        assert_eq!(
            CompressedTrace::from_bytes(&with).unwrap(),
            CompressedTrace::from_bytes(&without).unwrap(),
        );
        assert!(v2_metadata(&with).unwrap().is_some());
        assert!(v2_metadata(&without).unwrap().is_none());
    }

    #[test]
    fn v2_metadata_summarizes_the_archive() {
        let ct = web_archive(120, 9);
        let meta = v2_metadata(&ct.to_bytes_v2()).unwrap().unwrap();
        assert_eq!(meta.seed, DEFAULT_SEED);
        assert_eq!(meta.sections.len(), 1);
        let m = &meta.sections[0];
        assert_eq!(m.flows, ct.time_seq.len() as u64);
        assert_eq!(m.packets, ct.packet_count());
        assert_eq!(m.first_ts, ct.time_seq.first().unwrap().first_ts);
        assert_eq!(m.last_ts, ct.time_seq.last().unwrap().first_ts);
        for r in &ct.time_seq {
            let t = crate::decompress::synth_tuple(
                DEFAULT_SEED,
                r.first_ts,
                ct.addresses[r.addr_idx as usize],
                r.rtt,
                r.is_long,
            );
            assert!(
                m.bloom.contains(&t),
                "no false negatives in the file's bloom"
            );
        }
    }

    #[test]
    fn v2_corrupt_metadata_rejected_not_ignored() {
        let ct = web_archive(60, 10);
        let plain_len = ct.encode_v2_opts(false, None).0.len();
        let full = ct.to_bytes_v2();
        // Stomp the block magic: neither a valid block nor a clean end.
        let mut bad = full.clone();
        bad[plain_len] ^= 0xFF;
        assert!(CompressedTrace::from_bytes(&bad).is_err());
        // Flow-count disagreement between block and index is caught.
        let meta = v2_metadata(&full).unwrap().unwrap();
        let mut forged = ct.encode_v2_opts(false, None).0;
        let mut tampered = meta.clone();
        tampered.sections[0].flows += 1;
        tampered.encode(&mut forged);
        assert!(matches!(
            CompressedTrace::from_bytes(&forged),
            Err(CodecError::Metadata(_))
        ));
    }

    #[test]
    fn v2_trailing_garbage_rejected() {
        // After the metadata block, trailing bytes must parse as a valid
        // FZT1 telemetry block — one garbage byte is a truncated magic.
        let mut bytes = web_archive(60, 6).to_bytes_v2();
        bytes.push(0);
        assert!(CompressedTrace::from_bytes(&bytes).is_err());
        // And garbage after a *valid* telemetry block is still rejected.
        let ct = web_archive(60, 6);
        let telem = vec![FlowTelemetry::default(); ct.time_seq.len()];
        let mut full = ct.encode_v2_with_telemetry(&telem).0;
        full.push(0);
        assert!(matches!(
            CompressedTrace::from_bytes(&full),
            Err(CodecError::SectionLength(_))
        ));
    }

    #[test]
    fn v22_telemetry_roundtrips_and_strips_cleanly() {
        let ct = web_archive(80, 11);
        let telem: Vec<FlowTelemetry> = (0..ct.time_seq.len() as u64)
            .map(|i| FlowTelemetry {
                rtt_us: 10_000 + i,
                rtt_samples: 2,
                retrans_fast: i % 2,
                retrans_timeout: i % 3,
                active_us: 1_000 * i,
                idle_us: 0,
                bytes: 512 * i,
            })
            .collect();
        let (full, sizes) = ct.encode_v2_with_telemetry(&telem);
        assert_eq!(sizes.total(), full.len() as u64);
        assert!(sizes.telemetry > 0);
        let reader = ArchiveReader::open(&full).unwrap();
        assert_eq!(reader.records(|_| true).unwrap().sizes(), sizes);

        // The block is a pure suffix of the v2.1 file: stripping it
        // yields the byte-identical rev-2.1 archive a pre-2.2 reader
        // would have written, and both decode to the same trace.
        let v21 = ct.to_bytes_v2();
        assert_eq!(full[..v21.len()], v21[..], "FZT1 is a pure suffix");
        assert_eq!(
            CompressedTrace::from_bytes(&full).unwrap(),
            CompressedTrace::from_bytes(&v21).unwrap(),
        );

        // The block reads back exactly, without decoding payloads.
        let reader = ArchiveReader::open(&full).unwrap();
        let block = reader.telemetry().unwrap();
        assert_eq!(block.sections.len(), 1);
        assert_eq!(block.sections[0].flows, telem);
        assert!(ArchiveReader::open(&v21).unwrap().telemetry().is_none());
    }

    #[test]
    fn v22_telemetry_flow_count_must_match_index() {
        let ct = web_archive(40, 12);
        let telem = vec![FlowTelemetry::default(); ct.time_seq.len()];
        let mut forged = ct.to_bytes_v2();
        ArchiveTelemetry {
            sections: vec![SectionTelemetry {
                flows: telem[..telem.len() - 1].to_vec(),
            }],
        }
        .encode(&mut forged);
        assert_eq!(
            CompressedTrace::from_bytes(&forged),
            Err(CodecError::Telemetry("flow count disagrees with index"))
        );
    }

    #[test]
    fn v22_truncation_rejected_except_at_block_boundaries() {
        // A rev-2.2 file has exactly two legal proper prefixes: the cut
        // at the metadata block (plain v2) and the cut at the telemetry
        // block (rev 2.1).
        let ct = web_archive(30, 13);
        let telem = vec![FlowTelemetry::default(); ct.time_seq.len()];
        let full = ct.encode_v2_with_telemetry(&telem).0;
        let plain_len = ct.encode_v2_opts(false, None).0.len();
        let v21_len = ct.to_bytes_v2().len();
        let want = CompressedTrace::from_bytes(&full).unwrap();
        for cut in 5..full.len() {
            let r = CompressedTrace::from_bytes(&full[..cut]);
            if cut == plain_len || cut == v21_len {
                assert_eq!(r.unwrap(), want, "block boundary cut {cut}");
            } else {
                assert!(r.is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn v2_huge_declared_counts_rejected_not_crashed() {
        // A tiny crafted file declaring absurd element counts must come
        // back as CodecError — never a capacity-overflow abort. Each
        // preamble slot in turn gets a near-u64::MAX varint.
        for slot in 0..4 {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC_V2);
            bytes.push(VERSION_V2);
            for i in 0..4 {
                if i == slot {
                    put_varint(u64::MAX >> 2, &mut bytes);
                } else {
                    put_varint(1, &mut bytes);
                }
            }
            assert!(
                CompressedTrace::from_bytes(&bytes).is_err(),
                "slot {slot} should error"
            );
        }
        // Huge per-section counts inside an otherwise plausible index.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_V2);
        bytes.push(VERSION_V2);
        for v in [0u64, 0, 0, 1] {
            put_varint(v, &mut bytes); // no templates/addresses, 1 section
        }
        put_varint(0, &mut bytes); // payload_len
        put_varint(u64::MAX >> 2, &mut bytes); // flow_count
        put_varint(u64::MAX >> 2, &mut bytes); // long_count
        assert!(CompressedTrace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn v2_many_empty_sections_decode_to_an_empty_archive() {
        // 10k zero-payload sections: the section count is untrusted, so
        // it must cost one index walk and nothing per section beyond it.
        let n = 10_000u64;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_V2);
        bytes.push(VERSION_V2);
        for v in [0, 0, 0, n] {
            put_varint(v, &mut bytes);
        }
        for _ in 0..n {
            for v in [0u64, 0, 0, 0, 0] {
                put_varint(v, &mut bytes); // empty index entry
            }
        }
        let ct = CompressedTrace::from_bytes(&bytes).unwrap();
        assert_eq!(ct, CompressedTrace::default());
    }

    /// A one-section plain-v2 archive: one short template `[short_m]`,
    /// one address and one flow — short, through the remaps, or with
    /// `long_m` a one-entry long template.
    fn crafted_v2(short_m: u64, short_remap: u64, addr_remap: u64, long_m: Option<u64>) -> Vec<u8> {
        let n_long = long_m.is_some() as u64;
        let mut payload = Vec::new();
        if let Some(m) = long_m {
            for v in [1, m, 0] {
                put_varint(v, &mut payload); // one (M, gap) entry
            }
        }
        for v in [n_long, 0, 1] {
            put_varint(v, &mut payload); // local index 0 + S/L bit, address, Δts
        }
        if long_m.is_none() {
            put_varint(0, &mut payload); // rtt
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_V2);
        bytes.push(VERSION_V2);
        for v in [1, n_long, 1, 1, 1, short_m] {
            put_varint(v, &mut bytes); // preamble, then the short template
        }
        bytes.extend_from_slice(&[10, 0, 0, 1]);
        for v in [
            payload.len() as u64,
            1,
            n_long,
            1,
            short_remap,
            1,
            addr_remap,
        ] {
            put_varint(v, &mut bytes);
        }
        bytes.extend_from_slice(&payload);
        bytes
    }

    const WIDE_U16: u64 = u16::MAX as u64 + 2; // `as u16` aliases it to 1
    const WIDE_U32: u64 = u32::MAX as u64 + 1; // `as u32` aliases it to 0

    #[test]
    fn v2_wide_template_entries_rejected_not_aliased() {
        assert!(CompressedTrace::from_bytes(&crafted_v2(1, 0, 0, None)).is_ok());
        assert!(CompressedTrace::from_bytes(&crafted_v2(1, 0, 0, Some(1))).is_ok());
        let want = CodecError::IndexOutOfRange("template entry", WIDE_U16);
        // A short-template entry fails the header parse…
        let short = crafted_v2(WIDE_U16, 0, 0, None);
        assert_eq!(ArchiveReader::open(&short).err(), Some(want.clone()));
        // …a long-template `M` the payload decode.
        let long = crafted_v2(1, 0, 0, Some(WIDE_U16));
        let reader = ArchiveReader::open(&long).unwrap();
        assert_eq!(reader.records(|_| true).err(), Some(want.clone()));
        assert_eq!(CompressedTrace::from_bytes(&long), Err(want));
    }

    #[test]
    fn v2_wide_remaps_rejected_not_aliased() {
        assert_eq!(
            CompressedTrace::from_bytes(&crafted_v2(1, WIDE_U32, 0, None)),
            Err(CodecError::IndexOutOfRange("short template", WIDE_U32))
        );
        assert_eq!(
            CompressedTrace::from_bytes(&crafted_v2(1, 0, WIDE_U32, None)),
            Err(CodecError::IndexOutOfRange("address", WIDE_U32))
        );
    }

    #[test]
    fn v2_timestamp_overflow_is_an_error_not_a_panic() {
        // Two flows whose Δts are 1 and u64::MAX: the running clock
        // would wrap past zero.
        let bytes = include_bytes!("../../../tests/fixtures/ts_overflow_v2.fzc");
        let reader = ArchiveReader::open(bytes).unwrap();
        assert_eq!(reader.counts().3, 1);
        assert_eq!(
            reader.records(|_| true).err(),
            Some(CodecError::UnsortedTimeSeq)
        );
        assert_eq!(
            CompressedTrace::from_bytes(bytes),
            Err(CodecError::UnsortedTimeSeq)
        );
    }

    #[test]
    fn v2_bad_version_rejected() {
        let mut bytes = web_archive(30, 7).to_bytes_v2();
        bytes[4] = 9;
        assert_eq!(
            CompressedTrace::from_bytes(&bytes),
            Err(CodecError::BadHeader)
        );
    }

    /// A plain v2 archive of `sections`, each a time-sorted run of
    /// short-flow records over one shared address and identity remaps.
    fn sectioned(n_short: usize, sections: &[Vec<FlowRecord>]) -> Vec<u8> {
        let templates = vec![vec![1u16]; n_short];
        let identity = |n: usize| (0..n as u32).collect();
        let layouts = sections
            .iter()
            .map(|records| {
                let mut payload = Vec::new();
                let mut last_ts = 0;
                for r in records {
                    put_time_seq_record(r, &mut last_ts, &mut payload);
                }
                SectionLayout {
                    payload,
                    flow_count: records.len() as u64,
                    long_count: 0,
                    long_template_bytes: 0,
                    short_remap: identity(n_short),
                    addr_remap: identity(1),
                }
            })
            .collect();
        let addresses = [Ipv4Addr::new(10, 0, 0, 1)];
        let templates = templates.iter().map(Vec::as_slice);
        write_v2(templates, &addresses, layouts, None, None).into_bytes()
    }

    #[test]
    fn record_merge_is_stable_across_sections() {
        let rec = |us: u64, idx: u32| FlowRecord {
            first_ts: Timestamp::from_micros(us),
            is_long: false,
            template_idx: idx,
            addr_idx: 0,
            rtt: Duration::ZERO,
        };
        // Two sections with interleaved and *equal* timestamps: ties must
        // resolve to the earlier section, like v1's stable sort.
        let sections = [
            vec![rec(10, 0), rec(20, 1), rec(20, 2)],
            vec![rec(5, 3), rec(20, 4), rec(30, 5)],
        ];
        let bytes = sectioned(6, &sections);
        let reader = ArchiveReader::open(&bytes).unwrap();
        let merged: Vec<FlowRecord> = reader
            .records(|_| true)
            .unwrap()
            .map(|f| f.record)
            .collect();
        let order: Vec<u32> = merged.iter().map(|r| r.template_idx).collect();
        assert_eq!(order, vec![3, 0, 1, 2, 4, 5]);

        let mut concat = sections.concat();
        concat.sort_by_key(|r| r.first_ts);
        assert_eq!(merged, concat, "k-way merge == stable sort of concat");
        assert_eq!(read_v2(&bytes).unwrap().time_seq, concat);

        // A kept subset merges to a subsequence of the full merge.
        let second: Vec<FlowRecord> = reader
            .records(|i| i == 1)
            .unwrap()
            .map(|f| f.record)
            .collect();
        assert_eq!(second, sections[1]);
    }

    #[test]
    fn v2_writer_allocates_the_archive_once() {
        let trace = WebTrafficGenerator::new(
            WebTrafficConfig {
                flows: 200,
                ..WebTrafficConfig::default()
            },
            16,
        )
        .generate();
        let params = Params::paper();
        let mut acc = crate::FlowAccumulator::with_telemetry(params.clone(), true);
        for p in &trace {
            acc.push(p);
        }
        let mut shards: Vec<_> = (0..3)
            .map(|_| crate::FlowAssembler::with_telemetry(params.clone(), true))
            .collect();
        for (i, flow) in acc.flush().enumerate() {
            shards[i % 3].consume(&flow);
        }
        let sections = shards.into_iter().map(|a| a.into_section()).collect();
        let (bytes, sizes, _) = write_sections(&params, sections);
        assert!(sizes.metadata > 0 && sizes.telemetry > 0, "{sizes:?}");
        assert_eq!(ArchiveReader::open(&bytes).unwrap().counts().3, 3);
        assert_eq!(bytes.capacity(), bytes.len());
        // The oracle's one-section writer too.
        let ct = read_v2(&bytes).unwrap();
        let telemetry = vec![FlowTelemetry::default(); ct.time_seq.len()];
        let (bytes, sizes) = ct.encode_v2_with_telemetry(&telemetry);
        assert!(sizes.metadata > 0 && sizes.telemetry > 0, "{sizes:?}");
        assert_eq!(bytes.capacity(), bytes.len());
    }
}
