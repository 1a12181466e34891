//! The archive parser: every byte of a v1 or v2 container, its `FZM1`
//! metadata block and its `FZT1` telemetry block is read here, through
//! one checked [`ByteCursor`].
//!
//! The module denies indexing, unchecked arithmetic, truncating casts
//! and `unwrap`/`expect`. A read past the end, a count the bytes cannot
//! hold or a value wider than its field is therefore a [`CodecError`]
//! by construction, not by the care of each call site. Each `#[allow]`
//! below carries the proof that makes it safe. The writers stay in
//! `container`, `datasets`, `meta` and `telemetry`.

#![deny(
    clippy::indexing_slicing,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::unwrap_used,
    clippy::expect_used
)]

use crate::container::{varint_len, ArchiveFormat, ArchiveReader, MAGIC_V2, VERSION_V2};
use crate::datasets::{
    CodecError, DatasetSizes, FlowRecord, LongTemplate, MAGIC, RTT_SHIFT, VERSION,
};
use crate::decompress::Template;
use crate::meta::{ArchiveMeta, FlowKeyBloom, SectionMeta, META_MAGIC, META_VERSION};
use crate::telemetry::{
    ArchiveTelemetry, FlowTelemetry, SectionTelemetry, TELEMETRY_MAGIC, TELEMETRY_VERSION,
};
use flowzip_trace::{Duration, Timestamp};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// A checked reader over archive bytes: each read consumes what it
/// returns, or fails with [`CodecError`].
#[derive(Debug, Clone)]
pub(crate) struct ByteCursor<'a> {
    /// The bytes not read yet.
    rest: &'a [u8],
}

impl<'a> ByteCursor<'a> {
    /// A cursor at the start of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> ByteCursor<'a> {
        ByteCursor { rest: bytes }
    }

    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Bytes read since [`ByteCursor::remaining`] was `mark`.
    pub(crate) fn read_since(&self, mark: usize) -> usize {
        // Reads only shrink `rest`, so this never saturates.
        mark.saturating_sub(self.rest.len())
    }

    /// One byte.
    #[inline]
    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        let (&b, rest) = self.rest.split_first().ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(b)
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, as an array.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// One LEB128 varint. Non-minimal encodings are accepted; a value of
    /// 2⁶⁴ or more — a 10th byte above `0x01`, or an 11th byte — is
    /// [`CodecError::Truncated`], never a value with its high bits
    /// dropped.
    #[inline]
    pub(crate) fn varint(&mut self) -> Result<u64, CodecError> {
        match self.rest.split_first() {
            Some((&b, rest)) if b < 0x80 => {
                self.rest = rest;
                Ok(u64::from(b))
            }
            _ => self.varint_bytes(),
        }
    }

    /// [`ByteCursor::varint`] past its one-byte case.
    fn varint_bytes(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in [0, 7, 14, 21, 28, 35, 42, 49, 56, 63] {
            let b = self.u8()?;
            if shift == 63 && b > 0x01 {
                return Err(CodecError::Truncated);
            }
            // `shift` is below 64, so nothing wraps.
            v |= u64::from(b & 0x7f).wrapping_shl(shift);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        // The 10th byte is at most 0x01, so it ended the varint above.
        Err(CodecError::Truncated)
    }

    /// A varint narrowed to a `u16` field: wider is out of range for
    /// `what`, never aliased onto a valid value.
    #[inline]
    pub(crate) fn varint_u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        let v = self.varint()?;
        u16::try_from(v).map_err(|_| CodecError::IndexOutOfRange(what, v))
    }

    /// A varint narrowed to a `u32` field, as [`ByteCursor::varint_u16`].
    pub(crate) fn varint_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| CodecError::IndexOutOfRange(what, v))
    }

    /// A declared byte length or element count. One that does not fit a
    /// `usize` cannot be in memory: [`CodecError::Truncated`].
    pub(crate) fn varint_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.varint()?).map_err(|_| CodecError::Truncated)
    }

    /// A declared element count, and the capacity to reserve for it: no
    /// more elements than the unread bytes hold at `min_bytes_each`
    /// apiece. A forged count then fails at the element where the bytes
    /// run out, not in `Vec::with_capacity`.
    pub(crate) fn count(&mut self, min_bytes_each: usize) -> Result<(usize, usize), CodecError> {
        let n = self.varint_usize()?;
        Ok((n, self.capacity(n, min_bytes_each)))
    }

    /// The capacity [`ByteCursor::count`] reserves for `n` elements.
    pub(crate) fn capacity(&self, n: usize, min_bytes_each: usize) -> usize {
        n.min(self.remaining().checked_div(min_bytes_each).unwrap_or(0))
    }

    /// One long-template entry: `varint M`, then `varint gap_µs`. The
    /// inverse of [`put_long_entry`](crate::container::put_long_entry).
    #[inline]
    pub(crate) fn long_entry(&mut self) -> Result<(u16, Duration), CodecError> {
        let m = self.varint_u16("template entry")?;
        Ok((m, Duration::from_micros(self.varint()?)))
    }
}

impl ArchiveFormat {
    /// Detects the container format from the leading magic bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadHeader`] when the bytes start with neither magic.
    pub fn detect(data: &[u8]) -> Result<ArchiveFormat, CodecError> {
        match data.first_chunk::<4>() {
            Some(magic) if *magic == MAGIC_V2 => Ok(ArchiveFormat::V2),
            Some(magic) if *magic == MAGIC => Ok(ArchiveFormat::V1),
            _ => Err(CodecError::BadHeader),
        }
    }
}

/// One parsed section-index entry and its (still encoded) payload.
#[derive(Debug)]
pub(crate) struct SectionEntry<'a> {
    pub(crate) payload: &'a [u8],
    /// Bytes between the payload's long-template and time-seq slices
    /// that decoding skips: v1's address dataset, zero for v2.
    gap: usize,
    pub(crate) flow_count: usize,
    pub(crate) long_count: usize,
    /// Local short-template index → global index.
    short_remap: Vec<u32>,
    /// Local address index → global index.
    addr_remap: Vec<u32>,
    /// Global index of this section's first long template.
    pub(crate) long_base: u32,
}

impl<'a> ArchiveReader<'a> {
    /// Parses an archive's header, index and trailing blocks, without
    /// decoding any payload.
    ///
    /// # Errors
    ///
    /// [`CodecError`] when `data` is not a well-formed v1 or v2 archive.
    pub fn open(data: &'a [u8]) -> Result<ArchiveReader<'a>, CodecError> {
        let format = ArchiveFormat::detect(data)?;
        let version = match format {
            ArchiveFormat::V1 => VERSION,
            ArchiveFormat::V2 => VERSION_V2,
        };
        let mut cur = ByteCursor::new(data);
        let [.., v] = cur.array::<5>().map_err(|_| CodecError::BadHeader)?;
        if v != version {
            return Err(CodecError::BadHeader);
        }
        let (n_short, short_capacity) = cur.count(1)?;
        let n_long = cur.varint_usize()?;
        let n_addr = cur.varint_usize()?;
        // v1 declares its flow count here, v2 its section count (a v2
        // index entry is at least five bytes).
        let (n_records, index_capacity) = cur.count(5)?;
        let preamble = cur.read_since(data.len());

        let mark = cur.remaining();
        let mut short_templates = Vec::with_capacity(short_capacity);
        for _ in 0..n_short {
            let (n, capacity) = cur.count(1)?;
            let mut v = Vec::with_capacity(capacity);
            for _ in 0..n {
                v.push(cur.varint_u16("template entry")?);
            }
            short_templates.push(v);
        }
        let short_bytes = cur.read_since(mark);

        // v1 stores the long-template dataset ahead of the addresses;
        // walk it to find them (decoding waits for the payload pass).
        let v1_payload = cur.rest;
        if format == ArchiveFormat::V1 {
            skip_long_templates(&mut cur, n_long)?;
        }

        let mark = cur.remaining();
        let mut addresses = Vec::with_capacity(cur.capacity(n_addr, 4));
        for _ in 0..n_addr {
            addresses.push(Ipv4Addr::from(cur.array::<4>()?));
        }
        let addr_bytes = cur.read_since(mark);

        let (entries, index_bytes) = if format == ArchiveFormat::V1 {
            // One section whose payload runs from the long templates to
            // the end of the file, address block included (and skipped):
            // no index and no trailing blocks.
            let identity = |n: usize| u32::try_from(n).map(|n| (0..n).collect());
            let entry = SectionEntry {
                payload: v1_payload,
                gap: addr_bytes,
                flow_count: n_records,
                long_count: n_long,
                short_remap: identity(n_short).map_err(|_| CodecError::Truncated)?,
                addr_remap: identity(n_addr).map_err(|_| CodecError::Truncated)?,
                long_base: 0,
            };
            cur = ByteCursor::new(&[]);
            (vec![entry], 0)
        } else {
            let mark = cur.remaining();
            let mut index = Vec::with_capacity(index_capacity);
            let mut long_base = 0u64;
            for _ in 0..n_records {
                let payload_len = cur.varint_usize()?;
                let flow_count = cur.varint_usize()?;
                let long_count = cur.varint_usize()?;
                let entry = SectionEntry {
                    payload: &[],
                    gap: 0,
                    flow_count,
                    long_count,
                    short_remap: remap(&mut cur, "short template")?,
                    addr_remap: remap(&mut cur, "address")?,
                    long_base: u32::try_from(long_base).map_err(|_| CodecError::Truncated)?,
                };
                index.push((payload_len, entry));
                long_base = long_base
                    .checked_add(long_count as u64)
                    .ok_or(CodecError::SectionLength(n_records))?;
            }
            if long_base != n_long as u64 {
                return Err(CodecError::SectionLength(n_records));
            }
            let index_bytes = cur.read_since(mark);
            // Slice out each payload; the index byte-lengths must tile
            // the rest of the file exactly, up to the trailing blocks.
            let mut entries = Vec::with_capacity(index.len());
            for (payload_len, mut entry) in index {
                entry.payload = cur.take(payload_len)?;
                entries.push(entry);
            }
            (entries, index_bytes)
        };
        let n_sections = entries.len();
        // Every payload byte but v1's skipped address block.
        let payload_bytes: u64 = entries
            .iter()
            .map(|e| e.payload.len().saturating_sub(e.gap) as u64)
            .sum();

        let mark = cur.remaining();
        let meta = if cur.remaining() == 0 {
            None // v1, or plain v2: no metadata block
        } else {
            let block = meta_block(&mut cur, n_sections)?;
            // The block must agree with the index it summarizes.
            for (m, entry) in block.sections.iter().zip(&entries) {
                if m.flows != entry.flow_count as u64 {
                    return Err(CodecError::Metadata("flow count disagrees with index"));
                }
                if m.long_template_bytes.checked_add(m.time_seq_bytes)
                    != Some(entry.payload.len() as u64)
                {
                    return Err(CodecError::Metadata("byte split disagrees with index"));
                }
            }
            Some(block)
        };
        let meta_bytes = cur.read_since(mark);
        // Rev 2.2: where a v2.1 reader would report trailing garbage, this
        // one parses the optional telemetry block — which, like FZM1, must
        // then end the file exactly and agree with the section index.
        let mark = cur.remaining();
        let telemetry = if cur.remaining() == 0 {
            None
        } else {
            let block = telemetry_block(&mut cur, n_sections)?;
            if cur.remaining() != 0 {
                return Err(CodecError::SectionLength(n_sections));
            }
            for (t, entry) in block.sections.iter().zip(&entries) {
                if t.flows.len() != entry.flow_count {
                    return Err(CodecError::Telemetry("flow count disagrees with index"));
                }
            }
            Some(block)
        };

        // The preamble and the index are disjoint parts of `data`, so
        // their sum is at most `data.len()`.
        #[allow(clippy::arithmetic_side_effects)]
        let header = (preamble + index_bytes) as u64;
        Ok(ArchiveReader {
            format,
            n_long,
            short_templates,
            addresses,
            entries,
            meta,
            telemetry,
            footprint: DatasetSizes {
                header,
                short_templates: short_bytes as u64,
                long_templates: 0,
                addresses: addr_bytes as u64,
                time_seq: payload_bytes,
                metadata: meta_bytes as u64,
                telemetry: cur.read_since(mark) as u64,
            },
        })
    }
}

impl ArchiveReader<'_> {
    /// The flows of the sections `keep` accepts (by index), in capture
    /// order: one cursor per kept section, merged stably by
    /// `(first_ts, section index)`.
    ///
    /// One validating walk over the kept sections' long templates and
    /// time-seq runs first. It checks every entry, index, timestamp
    /// delta and the bytes after the last record, so every
    /// [`CodecError`] surfaces here, before the first flow, with the
    /// variant and message a full decode reports. The walk also counts
    /// the flows and their packets ([`Records::flows`],
    /// [`Records::packets`]). Records are then decoded again, one at a
    /// time, as the merge reaches them.
    ///
    /// # Errors
    ///
    /// [`CodecError`] for a malformed kept section.
    pub fn records(&self, keep: impl FnMut(usize) -> bool) -> Result<Records<'_>, CodecError> {
        self.walk(keep, None)
    }

    /// [`ArchiveReader::records`], keeping only the flows `filter`
    /// accepts: the walk counts those alone and notes each record's
    /// verdict in a bit, which the merge reads instead of running
    /// `filter` again, and the merge decodes each section only from its
    /// first match to its last. The query planner's path.
    ///
    /// # Errors
    ///
    /// [`CodecError`] for a malformed kept section.
    pub(crate) fn records_matching(
        &self,
        keep: impl FnMut(usize) -> bool,
        mut filter: impl FnMut(&FlowRecord) -> bool,
    ) -> Result<Records<'_>, CodecError> {
        self.walk(keep, Some(&mut filter))
    }

    /// [`ArchiveReader::records_matching`], or every record without a
    /// filter.
    fn walk<'r>(
        &'r self,
        mut keep: impl FnMut(usize) -> bool,
        mut filter: Option<&mut dyn FnMut(&FlowRecord) -> bool>,
    ) -> Result<Records<'r>, CodecError> {
        let reader: &'r ArchiveReader<'r> = self;
        let mut sections = Vec::new();
        let (mut flows, mut packets) = (0u64, 0u64);
        // Whether a kept section expands to other than the packets its
        // `FZM1` row declares; reported once every other check passed.
        let mut miscounted = false;
        for (i, entry) in reader.entries.iter().enumerate() {
            if !keep(i) {
                continue;
            }
            let mut section = KeptSection::open(i, entry)?;
            // The first matching record: where the merge starts, with the
            // delta-coding state it is read in.
            let mut start = None;
            let mut matched = filter.is_some().then(Vec::new);
            // Every record's packets, matched or not.
            let mut section_packets = 0u64;
            for n in 0..entry.flow_count {
                let before = (section.cur.clone(), section.last_ts, n);
                let flow = section.decode(reader)?;
                section_packets = section_packets.saturating_add(flow.packets);
                let hit = filter.as_mut().is_none_or(|f| f(&flow.record));
                if let Some(bits) = &mut matched {
                    if n % 64 == 0 {
                        bits.push(0u64);
                    }
                    if let Some(word) = bits.last_mut().filter(|_| hit) {
                        *word |= record_bit(n);
                    }
                }
                if hit {
                    flows = flows.saturating_add(1);
                    packets = packets.saturating_add(flow.packets);
                    start.get_or_insert(before);
                    section.end = n.saturating_add(1);
                }
            }
            if section.cur.remaining() != 0 {
                return Err(CodecError::Truncated);
            }
            let declared = reader.meta.as_ref().and_then(|m| m.sections.get(i));
            miscounted |= declared.is_some_and(|m| m.packets != section_packets);
            // The merge decodes from the first match to the last.
            if let Some(start) = start {
                (section.cur, section.last_ts, section.decoded) = start;
            }
            section.matched = matched;
            sections.push(section);
        }
        if miscounted {
            return Err(CodecError::Metadata("packet count mismatch"));
        }
        let mut heads = BinaryHeap::with_capacity(sections.len());
        for (k, section) in sections.iter_mut().enumerate() {
            section.advance(reader);
            if let Some(head) = &section.head {
                heads.push(Reverse((head.record.first_ts, k)));
            }
        }
        Ok(Records {
            reader,
            sections,
            heads,
            peeked: None,
            flows,
            packets,
            yielded: 0,
        })
    }
}

/// One flow as the record merge reaches it: its time-seq record, where
/// the record is stored, and its template, still in the archive bytes.
#[derive(Debug, Clone)]
pub struct ArchiveFlow<'r> {
    /// The record, indexed into the global datasets as
    /// [`read_v2`](crate::read_v2) numbers them.
    pub record: FlowRecord,
    /// The record's destination address.
    pub server: Ipv4Addr,
    /// Packets the flow expands to: its template's length.
    pub packets: u64,
    /// The archive section that stores the record.
    pub section: usize,
    /// The record's position in its section: the row of that section's
    /// `FZT1` telemetry it index-joins.
    pub index: usize,
    /// The flow's `M` sequence.
    pub(crate) template: Template<'r>,
}

/// The merged flows of an archive's kept sections, in capture order —
/// what [`ArchiveReader::records`] returns. It holds one cursor and one
/// decoded record per kept section, each long template's offset in its
/// section (≈ 8 B per long template) and, when a filter chose the flows,
/// one bit per record; never a record array.
#[derive(Debug)]
pub struct Records<'r> {
    reader: &'r ArchiveReader<'r>,
    sections: Vec<KeptSection<'r>>,
    /// `(first_ts, position in sections)` of every section's head record.
    heads: BinaryHeap<Reverse<(Timestamp, usize)>>,
    /// The next matching flow, once [`Records::peek`] has looked.
    peeked: Option<Option<ArchiveFlow<'r>>>,
    flows: u64,
    packets: u64,
    yielded: u64,
}

impl<'r> Records<'r> {
    /// Matching flows in the kept sections.
    pub fn flows(&self) -> u64 {
        self.flows
    }

    /// Packets the matching flows expand to.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// The per-dataset byte footprint of the file as laid out: the
    /// preamble and index count as `header`, and each payload splits at
    /// the long-template/time-seq boundary the walk found (for v1 this
    /// equals what [`CompressedTrace::encode`](crate::CompressedTrace::encode)
    /// reports). This is what `flowzip info` reports — unlike a
    /// re-encode, it agrees with the file on disk even for multi-section
    /// archives, whose index and per-section delta restarts a
    /// single-section re-encode can't see. Only the kept sections'
    /// boundaries are known, so ask a merge that keeps every section.
    pub fn sizes(&self) -> DatasetSizes {
        debug_assert_eq!(self.sections.len(), self.reader.entries.len());
        let footprint = self.reader.footprint;
        let long = self
            .sections
            .iter()
            .filter_map(|s| s.long.last())
            .fold(0u64, |sum, &end| sum.saturating_add(end as u64));
        DatasetSizes {
            long_templates: long,
            time_seq: footprint.time_seq.saturating_sub(long),
            ..footprint
        }
    }

    /// The kept sections' long templates, copied, in section order — with
    /// every section kept, the global long-template dataset
    /// [`read_v2`](crate::read_v2) collects beside the records. A
    /// section holding a template with a non-minimal varint has its
    /// templates re-encoded, so a parsed template's bytes are always what
    /// [`put_long_entry`](crate::container::put_long_entry) writes.
    pub(crate) fn long_templates(&self) -> Vec<LongTemplate> {
        let mut long_templates = Vec::new();
        for section in &self.sections {
            let templates =
                (0..section.entry.long_count as u64).map_while(|i| section.long_template(i));
            long_templates.extend(templates.map(|(n, entries)| {
                if section.minimal {
                    LongTemplate::from_encoded(n, entries.into())
                } else {
                    LongTemplate::from_entries(LongEntries::new(entries))
                }
            }));
        }
        long_templates
    }

    /// The flow [`Iterator::next`] returns next.
    pub(crate) fn peek(&mut self) -> Option<&ArchiveFlow<'r>> {
        if self.peeked.is_none() {
            self.peeked = Some(self.advance());
        }
        self.peeked.as_ref().and_then(Option::as_ref)
    }

    /// The next matching flow of the merge.
    fn advance(&mut self) -> Option<ArchiveFlow<'r>> {
        loop {
            let mut top = self.heads.peek_mut()?;
            let Reverse((_, k)) = *top;
            let section = self.sections.get_mut(k)?;
            let flow = section.head.take()?;
            let hit = section.matches(flow.index);
            section.advance(self.reader);
            match &section.head {
                // Re-keyed in place; dropping the guard sifts it down.
                Some(head) => *top = Reverse((head.record.first_ts, k)),
                None => {
                    PeekMut::pop(top);
                }
            }
            if hit {
                return Some(flow);
            }
        }
    }
}

impl<'r> Iterator for Records<'r> {
    type Item = ArchiveFlow<'r>;

    fn next(&mut self) -> Option<ArchiveFlow<'r>> {
        let flow = match self.peeked.take() {
            Some(peeked) => peeked,
            None => self.advance(),
        }?;
        self.yielded = self.yielded.saturating_add(1);
        Some(flow)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.flows.saturating_sub(self.yielded)).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

/// One kept section mid-merge: where its long templates start, a cursor
/// on its next time-seq record and that record, decoded.
#[derive(Debug)]
struct KeptSection<'r> {
    section: usize,
    entry: &'r SectionEntry<'r>,
    /// The payload offset of each long template, then the end of the
    /// long-template slice.
    long: Vec<usize>,
    /// Whether every varint in the long templates is minimal.
    minimal: bool,
    /// At the next record.
    cur: ByteCursor<'r>,
    /// The delta-coding state: the last record's `first_ts`, in µs.
    last_ts: u64,
    /// Records decoded so far: the index of the next.
    decoded: usize,
    /// One past the last record the walk matched.
    end: usize,
    /// The next record, once the walk has checked them all.
    head: Option<ArchiveFlow<'r>>,
    /// The filter's verdict on each record, one bit per record, when the
    /// walk ran one.
    matched: Option<Vec<u64>>,
}

impl<'r> KeptSection<'r> {
    /// Checks section `section`'s long templates, notes where each
    /// starts, and positions the cursor on its first record.
    fn open(section: usize, entry: &'r SectionEntry<'r>) -> Result<KeptSection<'r>, CodecError> {
        let mut cur = ByteCursor::new(entry.payload);
        let mut long = Vec::with_capacity(cur.capacity(entry.long_count, 1).saturating_add(1));
        let mut minimal = true;
        for _ in 0..entry.long_count {
            long.push(cur.read_since(entry.payload.len()));
            minimal &= walk_long_template(&mut cur)?.2;
        }
        long.push(cur.read_since(entry.payload.len()));
        cur.take(entry.gap)?;
        Ok(KeptSection {
            section,
            entry,
            long,
            minimal,
            cur,
            last_ts: 0,
            decoded: 0,
            end: 0,
            head: None,
            matched: None,
        })
    }

    /// Whether record `index` passed the walk's filter.
    fn matches(&self, index: usize) -> bool {
        self.matched.as_ref().is_none_or(|bits| {
            bits.get(index / 64)
                .is_some_and(|word| word & record_bit(index) != 0)
        })
    }

    /// Decodes the next record into `head`. The walk checked every
    /// record, so this comes up empty only past the last it matched.
    fn advance(&mut self, reader: &'r ArchiveReader<'r>) {
        self.head = if self.decoded < self.end {
            self.decode(reader).ok()
        } else {
            None
        };
    }

    /// Long template `local`'s entry count and entries.
    fn long_template(&self, local: u64) -> Option<(usize, &'r [u8])> {
        let i = usize::try_from(local).ok()?;
        let start = *self.long.get(i)?;
        let end = *self.long.get(i.checked_add(1)?)?;
        let mut cur = ByteCursor::new(self.entry.payload.get(start..end)?);
        let n = cur.varint_usize().ok()?;
        Some((n, cur.rest))
    }

    /// Decodes and checks the record at the cursor: its template and
    /// address indices in range, its timestamp on the clock.
    fn decode(&mut self, reader: &'r ArchiveReader<'r>) -> Result<ArchiveFlow<'r>, CodecError> {
        let key = self.cur.varint()?;
        let is_long = key & 1 == 1;
        let local = key >> 1;
        let (template_idx, packets, template) =
            if is_long {
                let out_of_range = || CodecError::IndexOutOfRange("long template", local);
                let (n, entries) = self.long_template(local).ok_or_else(out_of_range)?;
                let global = u32::try_from(local)
                    .ok()
                    .and_then(|i| self.entry.long_base.checked_add(i))
                    .ok_or_else(out_of_range)?;
                (global, n, Template::Long(LongEntries::new(entries)))
            } else {
                let global = remapped(&self.entry.short_remap, local)
                    .ok_or(CodecError::IndexOutOfRange("short template", local))?;
                let t = reader.short_templates.get(global as usize).ok_or(
                    CodecError::IndexOutOfRange("short template", u64::from(global)),
                )?;
                (global, t.len(), Template::Short(t.iter()))
            };
        let local_addr = self.cur.varint()?;
        let addr_idx = remapped(&self.entry.addr_remap, local_addr)
            .ok_or(CodecError::IndexOutOfRange("address", local_addr))?;
        let server = *reader
            .addresses
            .get(addr_idx as usize)
            .ok_or(CodecError::IndexOutOfRange("address", u64::from(addr_idx)))?;
        self.last_ts = self
            .last_ts
            .checked_add(self.cur.varint()?)
            .ok_or(CodecError::UnsortedTimeSeq)?;
        let rtt = if is_long {
            Duration::ZERO
        } else {
            // Bits shifted past 2⁶⁴ are dropped, as the writer's
            // `>> RTT_SHIFT` never set them.
            Duration::from_micros(self.cur.varint()?.wrapping_shl(RTT_SHIFT))
        };
        let index = self.decoded;
        self.decoded = self.decoded.saturating_add(1);
        Ok(ArchiveFlow {
            record: FlowRecord {
                first_ts: Timestamp::from_micros(self.last_ts),
                is_long,
                template_idx,
                addr_idx,
                rtt,
            },
            server,
            packets: packets as u64,
            section: self.section,
            index,
            template,
        })
    }
}

/// Record `n`'s bit in its word of a section's filter verdicts.
// `n % 64` is below 64, so the cast keeps every bit.
#[allow(clippy::cast_possible_truncation)]
fn record_bit(n: usize) -> u64 {
    1u64.wrapping_shl((n % 64) as u32)
}

/// A section-index remap: a count, then that many global indices.
fn remap(cur: &mut ByteCursor<'_>, what: &'static str) -> Result<Vec<u32>, CodecError> {
    let (n, capacity) = cur.count(1)?;
    let mut remap = Vec::with_capacity(capacity);
    for _ in 0..n {
        remap.push(cur.varint_u32(what)?);
    }
    Ok(remap)
}

/// The global index `remap` maps the local index `local` to, if any.
fn remapped(remap: &[u32], local: u64) -> Option<u32> {
    usize::try_from(local)
        .ok()
        .and_then(|i| remap.get(i))
        .copied()
}

/// Reads one long template: the inverse of
/// [`put_encoded_long_template`](crate::container::put_encoded_long_template),
/// and what archive payloads and the [`Compressor`](crate::Compressor)
/// oracle's assembled long slices both parse through. The entries are
/// not decoded into a vector: [`walk_long_template`] checks each, then
/// the walked bytes are copied as they are. A template with a
/// non-minimal varint is re-encoded instead, so a parsed template's
/// bytes are always what [`put_long_entry`](crate::container::put_long_entry)
/// writes.
pub(crate) fn copy_long_template(cur: &mut ByteCursor<'_>) -> Result<LongTemplate, CodecError> {
    let (n, bytes, minimal) = walk_long_template(cur)?;
    Ok(if minimal {
        LongTemplate::from_encoded(n, bytes.into())
    } else {
        LongTemplate::from_entries(LongEntries::new(bytes))
    })
}

/// Walks one long template, checking each entry as
/// [`ByteCursor::long_entry`] reads it (same errors, in the same order):
/// its entry count, its entries' bytes, and whether every varint in them
/// is minimal.
fn walk_long_template<'a>(cur: &mut ByteCursor<'a>) -> Result<(usize, &'a [u8], bool), CodecError> {
    let n = cur.varint_usize()?;
    let mut start = cur.clone();
    let mut minimal = true;
    for _ in 0..n {
        let mark = cur.remaining();
        let m = cur.varint_u16("template entry")?;
        minimal &= cur.read_since(mark) == varint_len(u64::from(m));
        let mark = cur.remaining();
        let gap = cur.varint()?;
        minimal &= cur.read_since(mark) == varint_len(gap);
    }
    let bytes = start.take(cur.read_since(start.remaining()))?;
    Ok((n, bytes, minimal))
}

/// Steps over `count` encoded long templates without decoding them —
/// how the opener finds v1's address dataset.
fn skip_long_templates(cur: &mut ByteCursor<'_>, count: usize) -> Result<(), CodecError> {
    for _ in 0..count {
        let n = cur.varint()?;
        for _ in 0..n {
            cur.varint()?;
            cur.varint()?;
        }
    }
    Ok(())
}

/// A long template's `(M, gap)` entries, decoded one at a time from
/// their [`put_long_entry`](crate::container::put_long_entry) bytes —
/// [`LongTemplate::entries`], the decompressor's per-flow cursor and a
/// finished flow's log all read through it.
#[derive(Debug, Clone)]
pub(crate) struct LongEntries<'a>(ByteCursor<'a>);

impl<'a> LongEntries<'a> {
    /// Reads `bytes`, whole entries from
    /// [`put_long_entry`](crate::container::put_long_entry).
    pub(crate) fn new(bytes: &'a [u8]) -> LongEntries<'a> {
        LongEntries(ByteCursor::new(bytes))
    }
}

impl Iterator for LongEntries<'_> {
    type Item = (u16, Duration);

    #[inline]
    fn next(&mut self) -> Option<(u16, Duration)> {
        // The bytes are whole entries, so this fails only once they
        // are spent.
        let entry = self.0.long_entry().ok();
        if entry.is_none() {
            self.0 = ByteCursor::new(&[]);
        }
        entry
    }
}

// The reader parses the block from its own cursor; this entry point
// serves the block's unit tests.
#[cfg(test)]
impl ArchiveMeta {
    /// Parses and validates a block at `*pos`, which must describe
    /// exactly `expect_sections` sections (the preamble's count —
    /// disagreement means the file is corrupt, not merely old or new).
    ///
    /// # Errors
    ///
    /// [`CodecError::Metadata`] on structural violations,
    /// [`CodecError::Truncated`] when the block ends early.
    pub(crate) fn decode(
        data: &[u8],
        pos: &mut usize,
        expect_sections: usize,
    ) -> Result<ArchiveMeta, CodecError> {
        let mut cur = ByteCursor::new(data.get(*pos..).ok_or(CodecError::Truncated)?);
        let block = meta_block(&mut cur, expect_sections)?;
        // The cursor read a suffix of `data`.
        *pos = data.len().saturating_sub(cur.remaining());
        Ok(block)
    }
}

/// [`ArchiveMeta::decode`] at the cursor.
fn meta_block(cur: &mut ByteCursor<'_>, expect_sections: usize) -> Result<ArchiveMeta, CodecError> {
    if cur.array::<4>()? != META_MAGIC {
        return Err(CodecError::Metadata("bad metadata magic"));
    }
    if cur.varint()? != META_VERSION {
        return Err(CodecError::Metadata("unsupported metadata version"));
    }
    let seed = cur.varint()?;
    // A section record is at least eight varint bytes.
    let (n, capacity) = cur.count(8)?;
    if n != expect_sections {
        return Err(CodecError::Metadata("section count mismatch"));
    }
    let mut sections = Vec::with_capacity(capacity);
    for _ in 0..n {
        let first_ts = Timestamp::from_micros(cur.varint()?);
        let last_ts = Timestamp::from_micros(cur.varint()?);
        if last_ts < first_ts {
            return Err(CodecError::Metadata("section time range inverted"));
        }
        let packets = cur.varint()?;
        let flows = cur.varint()?;
        let long_template_bytes = cur.varint()?;
        let time_seq_bytes = cur.varint()?;
        let m = cur.varint()?;
        let k = u32::try_from(cur.varint()?)
            .ok()
            .filter(|&k| k <= 64)
            .ok_or(CodecError::Metadata("implausible Bloom hash count"))?;
        let bloom_bytes = usize::try_from(m.div_ceil(8)).map_err(|_| CodecError::Truncated)?;
        let bits = cur.take(bloom_bytes)?.to_vec();
        sections.push(SectionMeta {
            first_ts,
            last_ts,
            packets,
            flows,
            long_template_bytes,
            time_seq_bytes,
            bloom: FlowKeyBloom::from_parts(bits, m, k),
        });
    }
    Ok(ArchiveMeta { seed, sections })
}

// The reader parses the block from its own cursor; this entry point
// serves the block's unit tests.
#[cfg(test)]
impl ArchiveTelemetry {
    /// Parses and validates a block at `*pos`, which must describe
    /// exactly `expect_sections` sections (the preamble's count —
    /// disagreement means the file is corrupt, not merely old or new).
    ///
    /// # Errors
    ///
    /// [`CodecError::Telemetry`] on structural violations,
    /// [`CodecError::Truncated`] when the block ends early.
    pub(crate) fn decode(
        data: &[u8],
        pos: &mut usize,
        expect_sections: usize,
    ) -> Result<ArchiveTelemetry, CodecError> {
        let mut cur = ByteCursor::new(data.get(*pos..).ok_or(CodecError::Truncated)?);
        let block = telemetry_block(&mut cur, expect_sections)?;
        // The cursor read a suffix of `data`.
        *pos = data.len().saturating_sub(cur.remaining());
        Ok(block)
    }
}

/// [`ArchiveTelemetry::decode`] at the cursor.
fn telemetry_block(
    cur: &mut ByteCursor<'_>,
    expect_sections: usize,
) -> Result<ArchiveTelemetry, CodecError> {
    if cur.array::<4>()? != TELEMETRY_MAGIC {
        return Err(CodecError::Telemetry("bad telemetry magic"));
    }
    if cur.varint()? != TELEMETRY_VERSION {
        return Err(CodecError::Telemetry("unsupported telemetry version"));
    }
    let (n, capacity) = cur.count(1)?;
    if n != expect_sections {
        return Err(CodecError::Telemetry("section count mismatch"));
    }
    let mut sections = Vec::with_capacity(capacity);
    for _ in 0..n {
        // Each row is at least 7 varint bytes; a count more than one row
        // past what the bytes hold is implausible, not a reason to fail
        // later or to reserve more.
        let (flows_n, capacity) = cur.count(7)?;
        if flows_n.saturating_sub(capacity) > 1 {
            return Err(CodecError::Telemetry("implausible flow count"));
        }
        let mut flows = Vec::with_capacity(capacity);
        for _ in 0..flows_n {
            let f = FlowTelemetry {
                rtt_us: cur.varint()?,
                rtt_samples: cur.varint()?,
                retrans_fast: cur.varint()?,
                retrans_timeout: cur.varint()?,
                active_us: cur.varint()?,
                idle_us: cur.varint()?,
                bytes: cur.varint()?,
            };
            if f.rtt_samples == 0 && f.rtt_us != 0 {
                return Err(CodecError::Telemetry("rtt estimate without samples"));
            }
            flows.push(f);
        }
        sections.push(SectionTelemetry { flows });
    }
    Ok(ArchiveTelemetry { sections })
}

// A panic here is a failing test, not a crash on input.
#[cfg(test)]
#[allow(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]
pub(crate) mod tests {
    use super::*;
    use crate::datasets::put_varint;

    /// The 10-byte encoding of `2⁶⁴ + v`, which a reader that drops the
    /// 10th byte's high bits reads as `v`.
    pub(crate) fn overflowing(v: u64) -> Vec<u8> {
        let mut bytes: Vec<u8> = (0..9).map(|i| (v >> (7 * i)) as u8 | 0x80).collect();
        bytes.push((v >> 63) as u8 | 0x02);
        bytes
    }

    #[test]
    fn varint_reads_every_width_and_stops_at_64_bits() {
        let mut values = vec![0, 1, u64::MAX];
        for bits in [7, 14, 21, 28, 35, 42, 49, 56, 63] {
            values.extend([(1 << bits) - 1, 1 << bits]);
        }
        for v in values {
            let mut bytes = Vec::new();
            put_varint(v, &mut bytes);
            bytes.push(0xAA);
            let mut cur = ByteCursor::new(&bytes);
            assert_eq!(cur.varint(), Ok(v));
            assert_eq!(cur.remaining(), 1, "{v}");
        }
        // u64::MAX is nine 0xFF then 0x01; anything past bit 63 is not
        // a u64.
        for bad in [
            overflowing(5),
            overflowing(0),
            vec![0xFF; 10],
            vec![0x80; 11],
        ] {
            assert_eq!(ByteCursor::new(&bad).varint(), Err(CodecError::Truncated));
        }
        assert_eq!(
            ByteCursor::new(&[0x80]).varint(),
            Err(CodecError::Truncated)
        );
        // Non-minimal encodings stay accepted.
        assert_eq!(ByteCursor::new(&[0x85, 0x80, 0x00]).varint(), Ok(5));
    }

    #[test]
    fn detect_reads_the_magic() {
        let trace = flowzip_traffic::web::WebTrafficGenerator::new(
            flowzip_traffic::web::WebTrafficConfig {
                flows: 40,
                ..Default::default()
            },
            1,
        )
        .generate();
        let ct = crate::Compressor::new(crate::Params::paper())
            .compress(&trace)
            .0;
        assert_eq!(ArchiveFormat::detect(&ct.to_bytes()), Ok(ArchiveFormat::V1));
        assert_eq!(
            ArchiveFormat::detect(&ct.to_bytes_v2()),
            Ok(ArchiveFormat::V2)
        );
        assert_eq!(ArchiveFormat::detect(b"junk"), Err(CodecError::BadHeader));
        assert_eq!(ArchiveFormat::detect(b"FZ"), Err(CodecError::BadHeader));
    }

    #[test]
    fn counts_reserve_no_more_than_the_bytes_hold() {
        let mut bytes = Vec::new();
        put_varint(1_000_000, &mut bytes);
        bytes.extend([0; 20]);
        assert_eq!(ByteCursor::new(&bytes).count(1), Ok((1_000_000, 20)));
        assert_eq!(ByteCursor::new(&bytes).count(7), Ok((1_000_000, 2)));
        assert_eq!(ByteCursor::new(&[3, 0, 0, 0, 0]).count(1), Ok((3, 3)));
        assert_eq!(ByteCursor::new(&[3]).count(0), Ok((3, 0)));
    }
}
