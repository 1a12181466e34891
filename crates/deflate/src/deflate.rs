//! DEFLATE block encoder (RFC 1951).
//!
//! Each block is emitted in whichever representation is smallest:
//! **stored** (raw bytes), **fixed** Huffman, or **dynamic** Huffman with
//! transmitted code lengths. Input is split into ≤ 64 KiB blocks so the
//! stored fallback is always available.

use crate::bitio::{reverse_bits, BitWriter};
use crate::huffman;
use crate::lz77::{self, Token};

/// Number of literal/length symbols (0–285, with 286/287 reserved).
pub(crate) const NUM_LITLEN: usize = 286;
/// Number of distance symbols.
pub(crate) const NUM_DIST: usize = 30;
/// Number of code-length-alphabet symbols.
pub(crate) const NUM_CL: usize = 19;
/// End-of-block marker symbol.
pub(crate) const END_OF_BLOCK: usize = 256;

/// Base match length for each length symbol (257 + index).
pub(crate) const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits for each length symbol.
pub(crate) const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Base distance for each distance symbol.
pub(crate) const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits for each distance symbol.
pub(crate) const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// Transmission order of code-length-code lengths (RFC 1951 §3.2.7).
pub(crate) const CL_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Maps a match length (3–258) to `(symbol, extra_bits, extra_value)`.
///
/// # Panics
///
/// Panics if `len` is outside the DEFLATE range.
pub(crate) fn length_symbol(len: u16) -> (u16, u8, u16) {
    assert!((3..=258).contains(&len), "match length {len} out of range");
    // Find the last base <= len.
    let idx = match LENGTH_BASE.binary_search(&len) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    (257 + idx as u16, LENGTH_EXTRA[idx], len - LENGTH_BASE[idx])
}

/// Maps a distance (1–32768) to `(symbol, extra_bits, extra_value)`.
///
/// # Panics
///
/// Panics if `dist` is outside the DEFLATE range.
pub(crate) fn distance_symbol(dist: u16) -> (u16, u8, u16) {
    assert!(dist >= 1, "distance must be positive");
    let idx = match DIST_BASE.binary_search(&dist) {
        Ok(i) => i,
        Err(i) => i - 1,
    };
    (idx as u16, DIST_EXTRA[idx], dist - DIST_BASE[idx])
}

/// Fixed literal/length code lengths (RFC 1951 §3.2.6).
pub(crate) fn fixed_litlen_lengths() -> Vec<u8> {
    let mut l = vec![0u8; 288];
    l[0..144].fill(8);
    l[144..256].fill(9);
    l[256..280].fill(7);
    l[280..288].fill(8);
    l
}

/// Fixed distance code lengths: thirty 5-bit codes.
pub(crate) fn fixed_dist_lengths() -> Vec<u8> {
    vec![5u8; 30]
}

/// Compression effort selector, mirroring gzip's familiar levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    /// Minimal effort, fastest.
    Fast,
    /// Balanced (gzip -6 equivalent); the default.
    #[default]
    Default,
    /// Maximum effort (gzip -9 equivalent).
    Best,
}

impl Level {
    fn effort(self) -> lz77::Effort {
        match self {
            Level::Fast => lz77::Effort::FAST,
            Level::Default => lz77::Effort::DEFAULT,
            Level::Best => lz77::Effort::BEST,
        }
    }
}

/// Maximum input bytes per emitted block (stored blocks cap at 65535; a
/// round 64 KiB − 1 keeps the fallback legal).
const BLOCK_INPUT_LIMIT: usize = 65_535;

/// Compresses `data` into a raw DEFLATE stream.
pub fn deflate_compress(data: &[u8], level: Level) -> Vec<u8> {
    let tokens = lz77::tokenize(data, level.effort());
    let mut w = BitWriter::new();

    // Partition the token stream into blocks covering <= BLOCK_INPUT_LIMIT
    // input bytes each, so any block may fall back to stored form.
    let mut blocks: Vec<(usize, usize, usize, usize)> = Vec::new(); // (tok_start, tok_end, byte_start, byte_end)
    {
        let mut tok_start = 0usize;
        let mut byte_start = 0usize;
        let mut byte_pos = 0usize;
        for (i, t) in tokens.iter().enumerate() {
            let tlen = match t {
                Token::Literal(_) => 1,
                Token::Match { length, .. } => *length as usize,
            };
            byte_pos += tlen;
            if byte_pos - byte_start >= BLOCK_INPUT_LIMIT {
                blocks.push((tok_start, i + 1, byte_start, byte_pos));
                tok_start = i + 1;
                byte_start = byte_pos;
            }
        }
        if tok_start < tokens.len() || blocks.is_empty() {
            blocks.push((tok_start, tokens.len(), byte_start, byte_pos));
        }
    }

    let nblocks = blocks.len();
    for (bi, (ts, te, bs, be)) in blocks.into_iter().enumerate() {
        let is_final = bi + 1 == nblocks;
        emit_block(&mut w, &tokens[ts..te], &data[bs..be], is_final);
    }
    w.finish()
}

fn emit_block(w: &mut BitWriter, tokens: &[Token], raw: &[u8], is_final: bool) {
    // Gather frequencies.
    let mut lit_freq = vec![0u64; NUM_LITLEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for t in tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { length, distance } => {
                let (ls, _, _) = length_symbol(length);
                let (ds, _, _) = distance_symbol(distance);
                lit_freq[ls as usize] += 1;
                dist_freq[ds as usize] += 1;
            }
        }
    }
    lit_freq[END_OF_BLOCK] += 1;

    // Dynamic code construction.
    let lit_lengths = huffman::code_lengths(&lit_freq, huffman::MAX_BITS);
    let mut dist_lengths = huffman::code_lengths(&dist_freq, huffman::MAX_BITS);
    if dist_lengths.iter().all(|&l| l == 0) {
        // No distances used: RFC permits a single incomplete 1-bit code.
        dist_lengths[0] = 1;
    }

    let dynamic_cost =
        dynamic_block_cost(tokens, &lit_lengths, &dist_lengths, &lit_freq, &dist_freq);
    let fixed_cost = fixed_block_cost(&lit_freq, &dist_freq);
    let stored_cost = 8 * (5 + raw.len() as u64) + 2; // header-ish estimate in bits

    if stored_cost < dynamic_cost && stored_cost < fixed_cost {
        emit_stored(w, raw, is_final);
    } else if fixed_cost <= dynamic_cost {
        emit_coded(
            w,
            tokens,
            &fixed_litlen_lengths(),
            &fixed_dist_lengths(),
            BlockKind::Fixed,
            is_final,
        );
    } else {
        emit_coded(
            w,
            tokens,
            &lit_lengths,
            &dist_lengths,
            BlockKind::Dynamic,
            is_final,
        );
    }
}

enum BlockKind {
    Fixed,
    Dynamic,
}

fn emit_stored(w: &mut BitWriter, raw: &[u8], is_final: bool) {
    // Stored blocks are limited to 65535 bytes; the block splitter
    // guarantees `raw` fits.
    debug_assert!(raw.len() <= 65_535);
    w.write_bits(is_final as u32, 1);
    w.write_bits(0b00, 2); // BTYPE=00 stored
    w.align_to_byte();
    let len = raw.len() as u16;
    w.write_bytes(&len.to_le_bytes());
    w.write_bytes(&(!len).to_le_bytes());
    w.write_bytes(raw);
}

fn emit_coded(
    w: &mut BitWriter,
    tokens: &[Token],
    lit_lengths: &[u8],
    dist_lengths: &[u8],
    kind: BlockKind,
    is_final: bool,
) {
    w.write_bits(is_final as u32, 1);
    match kind {
        BlockKind::Fixed => w.write_bits(0b01, 2),
        BlockKind::Dynamic => {
            w.write_bits(0b10, 2);
            emit_code_length_tables(w, lit_lengths, dist_lengths);
        }
    }
    let lit_codes = huffman::canonical_codes(lit_lengths);
    let dist_codes = huffman::canonical_codes(dist_lengths);
    let put = |w: &mut BitWriter, code: u32, len: u8| {
        debug_assert!(len > 0, "writing absent symbol");
        w.write_bits(reverse_bits(code, len as u32), len as u32);
    };
    for t in tokens {
        match *t {
            Token::Literal(b) => put(w, lit_codes[b as usize], lit_lengths[b as usize]),
            Token::Match { length, distance } => {
                let (ls, lext, lval) = length_symbol(length);
                put(w, lit_codes[ls as usize], lit_lengths[ls as usize]);
                if lext > 0 {
                    w.write_bits(lval as u32, lext as u32);
                }
                let (ds, dext, dval) = distance_symbol(distance);
                put(w, dist_codes[ds as usize], dist_lengths[ds as usize]);
                if dext > 0 {
                    w.write_bits(dval as u32, dext as u32);
                }
            }
        }
    }
    put(w, lit_codes[END_OF_BLOCK], lit_lengths[END_OF_BLOCK]);
}

/// Run-length encodes `lengths` into the code-length alphabet
/// (symbols 0–15 literal, 16 repeat-prev, 17/18 repeat-zero).
fn rle_code_lengths(lengths: &[u8]) -> Vec<(u8, u8, u8)> {
    // (symbol, extra_bits, extra_value)
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < lengths.len() {
        let v = lengths[i];
        let mut run = 1usize;
        while i + run < lengths.len() && lengths[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut rem = run;
            while rem >= 11 {
                let take = rem.min(138);
                out.push((18, 7, (take - 11) as u8));
                rem -= take;
            }
            if rem >= 3 {
                out.push((17, 3, (rem - 3) as u8));
                rem = 0;
            }
            for _ in 0..rem {
                out.push((0, 0, 0));
            }
        } else {
            out.push((v, 0, 0));
            let mut rem = run - 1;
            while rem >= 3 {
                let take = rem.min(6);
                out.push((16, 2, (take - 3) as u8));
                rem -= take;
            }
            for _ in 0..rem {
                out.push((v, 0, 0));
            }
        }
        i += run;
    }
    out
}

fn emit_code_length_tables(w: &mut BitWriter, lit_lengths: &[u8], dist_lengths: &[u8]) {
    // Trim trailing zeros but respect minimums (257 lit, 1 dist).
    let hlit = lit_lengths
        .iter()
        .rposition(|&l| l > 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(257);
    let hdist = dist_lengths
        .iter()
        .rposition(|&l| l > 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(1);

    let mut combined = Vec::with_capacity(hlit + hdist);
    combined.extend_from_slice(&lit_lengths[..hlit]);
    combined.extend_from_slice(&dist_lengths[..hdist]);
    let rle = rle_code_lengths(&combined);

    let mut cl_freq = vec![0u64; NUM_CL];
    for &(sym, _, _) in &rle {
        cl_freq[sym as usize] += 1;
    }
    let cl_lengths = huffman::code_lengths(&cl_freq, 7);
    let cl_codes = huffman::canonical_codes(&cl_lengths);

    let hclen = CL_ORDER
        .iter()
        .rposition(|&s| cl_lengths[s] > 0)
        .map(|p| p + 1)
        .unwrap_or(4)
        .max(4);

    w.write_bits((hlit - 257) as u32, 5);
    w.write_bits((hdist - 1) as u32, 5);
    w.write_bits((hclen - 4) as u32, 4);
    for &s in CL_ORDER.iter().take(hclen) {
        w.write_bits(cl_lengths[s] as u32, 3);
    }
    for &(sym, ext_bits, ext_val) in &rle {
        let s = sym as usize;
        w.write_bits(
            reverse_bits(cl_codes[s], cl_lengths[s] as u32),
            cl_lengths[s] as u32,
        );
        if ext_bits > 0 {
            w.write_bits(ext_val as u32, ext_bits as u32);
        }
    }
}

fn coded_payload_cost(
    lit_freq: &[u64],
    dist_freq: &[u64],
    lit_lengths: &[u8],
    dist_lengths: &[u8],
) -> u64 {
    let mut bits = 0u64;
    for (sym, &f) in lit_freq.iter().enumerate() {
        if f > 0 {
            bits += f * lit_lengths[sym] as u64;
            if sym > 256 {
                bits += f * LENGTH_EXTRA[sym - 257] as u64;
            }
        }
    }
    for (sym, &f) in dist_freq.iter().enumerate() {
        if f > 0 {
            bits += f * (dist_lengths[sym] as u64 + DIST_EXTRA[sym] as u64);
        }
    }
    bits
}

fn fixed_block_cost(lit_freq: &[u64], dist_freq: &[u64]) -> u64 {
    3 + coded_payload_cost(
        lit_freq,
        dist_freq,
        &fixed_litlen_lengths(),
        &fixed_dist_lengths(),
    )
}

fn dynamic_block_cost(
    _tokens: &[Token],
    lit_lengths: &[u8],
    dist_lengths: &[u8],
    lit_freq: &[u64],
    dist_freq: &[u64],
) -> u64 {
    // Header cost: approximate by re-running the RLE (cheap relative to
    // the payload) and pricing with the real code-length code.
    let hlit = lit_lengths
        .iter()
        .rposition(|&l| l > 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(257);
    let hdist = dist_lengths
        .iter()
        .rposition(|&l| l > 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(1);
    let mut combined = Vec::with_capacity(hlit + hdist);
    combined.extend_from_slice(&lit_lengths[..hlit]);
    combined.extend_from_slice(&dist_lengths[..hdist]);
    let rle = rle_code_lengths(&combined);
    let mut cl_freq = vec![0u64; NUM_CL];
    let mut extra_bits = 0u64;
    for &(sym, ext, _) in &rle {
        cl_freq[sym as usize] += 1;
        extra_bits += ext as u64;
    }
    let cl_lengths = huffman::code_lengths(&cl_freq, 7);
    let header = 3
        + 5
        + 5
        + 4
        + 19 * 3 // upper bound on HCLEN section
        + rle
            .iter()
            .map(|&(s, _, _)| cl_lengths[s as usize] as u64)
            .sum::<u64>()
        + extra_bits;
    header + coded_payload_cost(lit_freq, dist_freq, lit_lengths, dist_lengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;

    #[test]
    fn length_symbol_boundaries() {
        assert_eq!(length_symbol(3), (257, 0, 0));
        assert_eq!(length_symbol(10), (264, 0, 0));
        assert_eq!(length_symbol(11), (265, 1, 0));
        assert_eq!(length_symbol(12), (265, 1, 1));
        assert_eq!(length_symbol(257), (284, 5, 30));
        assert_eq!(length_symbol(258), (285, 0, 0));
    }

    #[test]
    fn distance_symbol_boundaries() {
        assert_eq!(distance_symbol(1), (0, 0, 0));
        assert_eq!(distance_symbol(4), (3, 0, 0));
        assert_eq!(distance_symbol(5), (4, 1, 0));
        assert_eq!(distance_symbol(6), (4, 1, 1));
        assert_eq!(distance_symbol(24577), (29, 13, 0));
        assert_eq!(distance_symbol(32768), (29, 13, 8191));
    }

    #[test]
    fn fixed_table_shape() {
        let l = fixed_litlen_lengths();
        assert_eq!(l[0], 8);
        assert_eq!(l[143], 8);
        assert_eq!(l[144], 9);
        assert_eq!(l[255], 9);
        assert_eq!(l[256], 7);
        assert_eq!(l[279], 7);
        assert_eq!(l[280], 8);
        assert_eq!(l[287], 8);
        crate::huffman::validate_lengths(&l, 15).unwrap();
    }

    #[test]
    fn rle_encodes_runs() {
        let lengths = [0u8; 20];
        let rle = rle_code_lengths(&lengths);
        assert_eq!(rle, vec![(18, 7, 9)]); // 20 zeros = sym18 with 20-11=9
        let lengths = [5u8; 8];
        let rle = rle_code_lengths(&lengths);
        assert_eq!(rle, vec![(5, 0, 0), (16, 2, 3), (5, 0, 0)]); // 5, rep6, 5
    }

    #[test]
    fn roundtrip_simple() {
        for data in [
            &b""[..],
            &b"a"[..],
            &b"hello hello hello hello"[..],
            &[0u8; 100_000][..],
        ] {
            for level in [Level::Fast, Level::Default, Level::Best] {
                let z = deflate_compress(data, level);
                let back = inflate(&z).unwrap();
                assert_eq!(back, data, "level {level:?} len {}", data.len());
            }
        }
    }

    #[test]
    fn roundtrip_multi_block() {
        // > 64 KiB forces multiple blocks.
        let data: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let z = deflate_compress(&data, Level::Default);
        assert_eq!(inflate(&z).unwrap(), data);
    }

    #[test]
    fn compressible_data_shrinks() {
        let data = b"abcdefgh".repeat(5_000);
        let z = deflate_compress(&data, Level::Default);
        assert!(z.len() < data.len() / 10, "{} vs {}", z.len(), data.len());
    }

    #[test]
    fn incompressible_data_stays_near_original() {
        // Pseudo-random bytes: stored blocks keep the blow-up tiny.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        let z = deflate_compress(&data, Level::Default);
        assert!(z.len() <= data.len() + data.len() / 100 + 64);
        assert_eq!(inflate(&z).unwrap(), data);
    }
}
