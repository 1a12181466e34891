//! The **v2.1 per-section metadata block**: time ranges, packet/flow
//! counts, byte totals and a flow-key Bloom filter per archive section,
//! appended after the last section payload of a v2 container.
//!
//! The block is *optional and additive*: a v2 reader that does not know
//! about it sees the payloads tile the file exactly as before (readers
//! that do know skip or use it), and a v2.1 reader accepts plain v2
//! files with no block at all. The wire layout (byte-level spec in
//! `docs/FORMAT.md`):
//!
//! ```text
//! "FZM1" magic
//! varint meta-version (1)
//! varint synthesis seed the Bloom keys were built with
//! varint section count (must equal the preamble's)
//! per section:
//!   varint first-flow timestamp (µs)   varint last-flow timestamp (µs)
//!   varint packets                     varint flows
//!   varint long-template bytes        varint time-seq bytes
//!   varint Bloom size m (bits)        varint Bloom hash count k
//!   ⌈m/8⌉ raw filter bytes
//! ```
//!
//! # What the Bloom filter stores
//!
//! The archive is lossy: client endpoints are *synthesized* at
//! decompression time (`synth_tuple`
//! derives them purely from the record's content and the seed). The
//! filter therefore stores the **synthesized client→server five-tuples**
//! — the only flow keys a query over the decompressed trace can ever
//! observe — inserted at encode time from the same pure function the
//! decompressor applies. A query planner probes both tuple orientations
//! and skips any section whose filter rejects both: no false negatives,
//! so pruning never drops a matching flow; false positives only cost a
//! decoded-then-filtered-out section.

use crate::datasets::{put_varint, FlowRecord};
use flowzip_trace::{FiveTuple, Timestamp};
use std::net::Ipv4Addr;

/// Metadata-block magic: "FZM1".
pub(crate) const META_MAGIC: [u8; 4] = *b"FZM1";
/// Metadata-block version this reader writes and accepts.
pub(crate) const META_VERSION: u64 = 1;

/// Filter bits budgeted per stored flow key (≈1% false positives with
/// [`FlowKeyBloom::HASHES`] probes).
const BITS_PER_KEY: u64 = 10;

/// A Bloom filter over flow five-tuples, sized from the section's flow
/// count at construction. Membership is direction-sensitive — callers
/// matching conversations probe both orientations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlowKeyBloom {
    bits: Vec<u8>,
    m: u64,
    k: u32,
}

/// `splitmix64` finalizer: decorrelates the FNV tuple hash into the two
/// independent streams double hashing needs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FlowKeyBloom {
    /// Hash probes per key (paired with 10 bits per key for the
    /// classic ≈1% false-positive point).
    pub(crate) const HASHES: u32 = 7;

    /// An empty filter sized for `keys` insertions (zero keys → zero
    /// bits; [`FlowKeyBloom::contains`] is then always `false`).
    pub(crate) fn sized_for(keys: u64) -> FlowKeyBloom {
        let m = keys.saturating_mul(BITS_PER_KEY).div_ceil(8) * 8;
        FlowKeyBloom {
            bits: vec![0u8; (m / 8) as usize],
            m,
            k: FlowKeyBloom::HASHES,
        }
    }

    /// Reassembles a filter from its serialized parameters.
    pub(crate) fn from_parts(bits: Vec<u8>, m: u64, k: u32) -> FlowKeyBloom {
        FlowKeyBloom { bits, m, k }
    }

    /// Double-hashing probe positions for one tuple in a filter of `m`
    /// bits probed `k` times. Taking the two by value leaves the filter
    /// free to borrow mutably while the positions are walked.
    fn positions(m: u64, k: u32, tuple: &FiveTuple) -> impl Iterator<Item = u64> {
        let h = tuple.stable_hash();
        let h1 = splitmix64(h);
        let h2 = splitmix64(h ^ 0xA076_1D64_78BD_642F) | 1;
        (0..k as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % m)
    }

    /// Inserts one flow key.
    pub(crate) fn insert(&mut self, tuple: &FiveTuple) {
        if self.m == 0 {
            return;
        }
        for bit in FlowKeyBloom::positions(self.m, self.k, tuple) {
            self.bits[(bit / 8) as usize] |= 1 << (bit % 8);
        }
    }

    /// `true` when the key *may* have been inserted (never a false
    /// negative; false positives at the design rate).
    pub(crate) fn contains(&self, tuple: &FiveTuple) -> bool {
        if self.m == 0 {
            return false;
        }
        FlowKeyBloom::positions(self.m, self.k, tuple)
            .all(|bit| self.bits[(bit / 8) as usize] & (1 << (bit % 8)) != 0)
    }

    /// Probes both directions of a conversation — the query planner's
    /// membership test, matching [`FiveTuple::same_conversation`].
    pub(crate) fn contains_conversation(&self, tuple: &FiveTuple) -> bool {
        self.contains(tuple) || self.contains(&tuple.reversed())
    }
}

/// One section's metadata record: what the query planner reads instead
/// of the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionMeta {
    /// Earliest flow first-packet timestamp in the section (`ZERO` when
    /// the section holds no flows).
    pub first_ts: Timestamp,
    /// Latest flow first-packet timestamp in the section.
    pub last_ts: Timestamp,
    /// Packets the section's flows expand to.
    pub packets: u64,
    /// Flow records in the section.
    pub flows: u64,
    /// Bytes of the section payload's long-template slice.
    pub long_template_bytes: u64,
    /// Bytes of the section payload's time-seq slice.
    pub time_seq_bytes: u64,
    /// Synthesized-flow-key membership filter.
    pub(crate) bloom: FlowKeyBloom,
}

impl SectionMeta {
    /// Builds a section's metadata from its flow records, visited once
    /// in time order. `server_of` resolves each record's address index
    /// to the stored destination IP; the Bloom keys are the
    /// client→server tuples
    /// [`synth_tuple`](crate::decompress::synth_tuple) will synthesize
    /// for the same records at decompression time under `seed`.
    pub(crate) fn from_records(
        seed: u64,
        packets: u64,
        long_template_bytes: u64,
        time_seq_bytes: u64,
        records: impl ExactSizeIterator<Item = FlowRecord>,
        server_of: impl Fn(&FlowRecord) -> Ipv4Addr,
    ) -> SectionMeta {
        let flows = records.len() as u64;
        let mut bloom = FlowKeyBloom::sized_for(flows);
        let mut bounds: Option<(Timestamp, Timestamp)> = None;
        for r in records {
            let server = server_of(&r);
            bloom.insert(&crate::decompress::synth_tuple(
                seed, r.first_ts, server, r.rtt, r.is_long,
            ));
            let first = bounds.map_or(r.first_ts, |(first, _)| first);
            bounds = Some((first, r.first_ts));
        }
        let (first_ts, last_ts) = bounds.unwrap_or((Timestamp::ZERO, Timestamp::ZERO));
        SectionMeta {
            first_ts,
            last_ts,
            packets,
            flows,
            long_template_bytes,
            time_seq_bytes,
            bloom,
        }
    }

    /// `true` when `[from, to]` (either end optional) intersects this
    /// section's flow-start range — the planner's time-pruning test. A
    /// flowless section intersects nothing.
    pub fn intersects(&self, from: Option<Timestamp>, to: Option<Timestamp>) -> bool {
        if self.flows == 0 {
            return from.is_none() && to.is_none();
        }
        from.is_none_or(|t| self.last_ts >= t) && to.is_none_or(|t| self.first_ts <= t)
    }
}

/// The whole trailing metadata block: the synthesis seed the Bloom keys
/// assume, plus one [`SectionMeta`] per archive section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveMeta {
    /// Seed `SectionMeta::from_records` synthesized the Bloom keys
    /// with; a query running under a different decompression seed must
    /// ignore the filters (time pruning stays valid).
    pub seed: u64,
    /// Per-section metadata, in section order.
    pub sections: Vec<SectionMeta>,
}

impl ArchiveMeta {
    /// Serializes the block (appended after the last section payload).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&META_MAGIC);
        put_varint(META_VERSION, out);
        put_varint(self.seed, out);
        put_varint(self.sections.len() as u64, out);
        for s in &self.sections {
            put_varint(s.first_ts.as_micros(), out);
            put_varint(s.last_ts.as_micros(), out);
            put_varint(s.packets, out);
            put_varint(s.flows, out);
            put_varint(s.long_template_bytes, out);
            put_varint(s.time_seq_bytes, out);
            put_varint(s.bloom.m, out);
            put_varint(s.bloom.k as u64, out);
            out.extend_from_slice(&s.bloom.bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::CodecError;
    use flowzip_trace::Duration;

    fn tuple(a: u8, port: u16) -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(172, 20, 0, a),
            port,
            Ipv4Addr::new(193, 5, 9, 1),
            80,
        )
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut b = FlowKeyBloom::sized_for(300);
        let keys: Vec<FiveTuple> = (0..300).map(|i| tuple((i % 250) as u8, 1024 + i)).collect();
        for k in &keys {
            b.insert(k);
        }
        for k in &keys {
            assert!(b.contains(k));
            assert!(b.contains_conversation(&k.reversed()));
        }
    }

    #[test]
    fn bloom_false_positive_rate_is_low() {
        let mut b = FlowKeyBloom::sized_for(1000);
        for i in 0..1000u16 {
            b.insert(&tuple((i % 200) as u8, 1024 + i));
        }
        let fp = (0..10_000u16)
            .filter(|&i| b.contains(&tuple((i % 200) as u8, 40_000 + (i % 20_000))))
            .count();
        assert!(fp < 500, "false positives {fp}/10000 way above design rate");
    }

    #[test]
    fn empty_bloom_rejects_everything() {
        let b = FlowKeyBloom::sized_for(0);
        assert_eq!(b.m, 0);
        assert!(!b.contains(&tuple(1, 5000)));
        assert!(!b.contains_conversation(&tuple(1, 5000)));
    }

    fn sample_meta() -> ArchiveMeta {
        let records: Vec<FlowRecord> = (0..40)
            .map(|i| FlowRecord {
                first_ts: Timestamp::from_micros(1_000 + i * 500),
                is_long: i % 7 == 0,
                template_idx: 0,
                addr_idx: (i % 3) as u32,
                rtt: Duration::from_micros((i % 5) * 12_800),
            })
            .collect();
        let addrs = [
            Ipv4Addr::new(193, 0, 0, 1),
            Ipv4Addr::new(193, 0, 0, 2),
            Ipv4Addr::new(193, 0, 0, 3),
        ];
        let section = SectionMeta::from_records(0x5EED, 240, 17, 320, records.into_iter(), |r| {
            addrs[r.addr_idx as usize]
        });
        ArchiveMeta {
            seed: 0x5EED,
            sections: vec![section],
        }
    }

    #[test]
    fn metadata_block_roundtrips() {
        let meta = sample_meta();
        let mut bytes = Vec::new();
        meta.encode(&mut bytes);
        let mut pos = 0;
        let back = ArchiveMeta::decode(&bytes, &mut pos, 1).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(back, meta);
        assert_eq!(back.sections[0].flows, 40);
        assert_eq!(back.sections[0].packets, 240);
        assert_eq!(back.sections[0].first_ts, Timestamp::from_micros(1_000));
        assert_eq!(
            back.sections[0].last_ts,
            Timestamp::from_micros(1_000 + 39 * 500)
        );
    }

    #[test]
    fn metadata_truncation_rejected_at_every_cut() {
        let mut bytes = Vec::new();
        sample_meta().encode(&mut bytes);
        for cut in 0..bytes.len() {
            let mut pos = 0;
            assert!(
                ArchiveMeta::decode(&bytes[..cut], &mut pos, 1).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn metadata_corruption_rejected() {
        let mut bytes = Vec::new();
        sample_meta().encode(&mut bytes);
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let mut pos = 0;
        assert_eq!(
            ArchiveMeta::decode(&bad, &mut pos, 1),
            Err(CodecError::Metadata("bad metadata magic"))
        );
        // Wrong section count.
        let mut pos = 0;
        assert_eq!(
            ArchiveMeta::decode(&bytes, &mut pos, 2),
            Err(CodecError::Metadata("section count mismatch"))
        );
        // Future version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        let mut pos = 0;
        assert_eq!(
            ArchiveMeta::decode(&bad, &mut pos, 1),
            Err(CodecError::Metadata("unsupported metadata version"))
        );
    }

    #[test]
    fn time_intersection_rules() {
        let s = SectionMeta {
            first_ts: Timestamp::from_micros(100),
            last_ts: Timestamp::from_micros(200),
            packets: 1,
            flows: 1,
            long_template_bytes: 0,
            time_seq_bytes: 4,
            bloom: FlowKeyBloom::sized_for(1),
        };
        let us = |v| Some(Timestamp::from_micros(v));
        assert!(s.intersects(None, None));
        assert!(s.intersects(us(50), us(150)));
        assert!(s.intersects(us(200), None));
        assert!(s.intersects(None, us(100)));
        assert!(!s.intersects(us(201), None));
        assert!(!s.intersects(None, us(99)));
        let empty = SectionMeta {
            flows: 0,
            ..s.clone()
        };
        assert!(!empty.intersects(us(0), None), "no flows, nothing to find");
        assert!(empty.intersects(None, None));
    }
}
