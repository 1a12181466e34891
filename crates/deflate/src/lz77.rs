//! LZ77 sliding-window match finder (the \[2\] of the paper's related work).
//!
//! Produces the literal/match token stream DEFLATE entropy-codes. Matching
//! uses the zlib approach: a 3-byte rolling hash indexes chain heads, and
//! `prev[]` links earlier occurrences; *lazy matching* defers emitting a
//! match by one position when the next position matches longer.

/// DEFLATE window size: matches may reach back at most this far.
pub(crate) const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum match length DEFLATE can encode.
pub(crate) const MIN_MATCH: usize = 3;
/// Maximum match length DEFLATE can encode.
pub(crate) const MAX_MATCH: usize = 258;

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// One LZ77 token: a literal byte or a back-reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A `(length, distance)` back-reference: copy `length` bytes from
    /// `distance` bytes back.
    Match {
        /// Match length in `MIN_MATCH..=MAX_MATCH`.
        length: u16,
        /// Distance in `1..=WINDOW_SIZE`.
        distance: u16,
    },
}

/// Match-effort knob: how many chain links to inspect per position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effort {
    /// Maximum hash-chain links followed per position.
    pub max_chain: usize,
    /// Stop early when a match at least this long is found.
    pub good_enough: usize,
    /// Whether to lazy-evaluate (peek one position ahead).
    pub lazy: bool,
}

impl Effort {
    /// Fast, short chains (zlib level ~1-3).
    pub const FAST: Effort = Effort {
        max_chain: 8,
        good_enough: 16,
        lazy: false,
    };
    /// Balanced default (zlib level ~6).
    pub const DEFAULT: Effort = Effort {
        max_chain: 128,
        good_enough: 64,
        lazy: true,
    };
    /// Thorough search (zlib level ~9).
    pub const BEST: Effort = Effort {
        max_chain: 1024,
        good_enough: 258,
        lazy: true,
    };
}

#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    let v = (data[pos] as u32) | ((data[pos + 1] as u32) << 8) | ((data[pos + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Tokenizes `data` into literals and matches.
///
/// The output, replayed by [`expand`], reproduces `data` exactly.
pub fn tokenize(data: &[u8], effort: Effort) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 3 + 16);
    if n < MIN_MATCH + 1 {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }

    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; n];

    let insert = |head: &mut Vec<usize>, prev: &mut Vec<usize>, pos: usize| {
        if pos + MIN_MATCH <= n {
            let h = hash3(data, pos);
            prev[pos] = head[h];
            head[h] = pos;
        }
    };

    let find_match = |head: &Vec<usize>, prev: &Vec<usize>, pos: usize| -> Option<(usize, usize)> {
        if pos + MIN_MATCH > n {
            return None;
        }
        let h = hash3(data, pos);
        let mut cand = head[h];
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let max_len = MAX_MATCH.min(n - pos);
        let mut chains = effort.max_chain;
        while cand != usize::MAX && chains > 0 {
            let dist = pos - cand;
            if dist > WINDOW_SIZE {
                break;
            }
            // Quick reject on the byte after the current best.
            if best_dist == 0 || data[cand + best_len] == data[pos + best_len] {
                let mut len = 0usize;
                while len < max_len && data[cand + len] == data[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                    if len >= effort.good_enough || len == max_len {
                        break;
                    }
                }
            }
            cand = prev[cand];
            chains -= 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    };

    let mut pos = 0usize;
    let mut pending: Option<(usize, usize)> = None; // deferred match at pos-1
    while pos < n {
        let here = find_match(&head, &prev, pos);
        if let Some((plen, pdist)) = pending.take() {
            // A match was deferred at pos-1; emit whichever is longer.
            match here {
                Some((hlen, _)) if effort.lazy && hlen > plen => {
                    // The new position wins: previous byte becomes a literal,
                    // current match stays pending.
                    tokens.push(Token::Literal(data[pos - 1]));
                    insert(&mut head, &mut prev, pos);
                    pending = here;
                    pos += 1;
                    continue;
                }
                _ => {
                    // Previous match wins.
                    tokens.push(Token::Match {
                        length: plen as u16,
                        distance: pdist as u16,
                    });
                    // Insert hash entries for the matched region (pos-1+1 .. pos-1+plen)
                    let end = pos - 1 + plen;
                    let mut p = pos;
                    while p < end && p < n {
                        insert(&mut head, &mut prev, p);
                        p += 1;
                    }
                    pos = end;
                    continue;
                }
            }
        }
        match here {
            Some((len, dist)) => {
                insert(&mut head, &mut prev, pos);
                if effort.lazy && len < effort.good_enough && pos + 1 < n {
                    pending = Some((len, dist));
                    pos += 1;
                } else {
                    tokens.push(Token::Match {
                        length: len as u16,
                        distance: dist as u16,
                    });
                    let end = pos + len;
                    let mut p = pos + 1;
                    while p < end && p < n {
                        insert(&mut head, &mut prev, p);
                        p += 1;
                    }
                    pos = end;
                }
            }
            None => {
                insert(&mut head, &mut prev, pos);
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
            }
        }
    }
    if let Some((plen, pdist)) = pending {
        tokens.push(Token::Match {
            length: plen as u16,
            distance: pdist as u16,
        });
    }
    tokens
}

/// Replays a token stream back into bytes (the LZ77 inverse, also used by
/// the inflate back-end).
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { length, distance } => {
                let dist = distance as usize;
                let len = length as usize;
                assert!(dist >= 1 && dist <= out.len(), "invalid distance");
                let start = out.len() - dist;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], effort: Effort) {
        let tokens = tokenize(data, effort);
        assert_eq!(expand(&tokens), data, "effort {effort:?}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"", Effort::DEFAULT);
        roundtrip(b"a", Effort::DEFAULT);
        roundtrip(b"ab", Effort::DEFAULT);
        roundtrip(b"abc", Effort::DEFAULT);
    }

    #[test]
    fn repetitive_input_produces_matches() {
        let data = b"abcabcabcabcabcabcabcabc";
        let tokens = tokenize(data, Effort::DEFAULT);
        assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        assert_eq!(expand(&tokens), data);
        // Should be far fewer tokens than bytes.
        assert!(tokens.len() < data.len() / 2);
    }

    #[test]
    fn incompressible_input_is_all_literals() {
        let data: Vec<u8> = (0..=255u8).collect();
        let tokens = tokenize(&data, Effort::DEFAULT);
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn overlapping_match_run() {
        // "aaaa..." exercises distance-1 overlapping copies.
        let data = vec![b'a'; 1000];
        let tokens = tokenize(&data, Effort::DEFAULT);
        assert_eq!(expand(&tokens), data);
        assert!(tokens.len() <= 1 + (1000 / MAX_MATCH + 1));
    }

    #[test]
    fn all_efforts_roundtrip() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.push((i % 251) as u8);
            if i % 7 == 0 {
                data.extend_from_slice(b"common substring here");
            }
        }
        for effort in [Effort::FAST, Effort::DEFAULT, Effort::BEST] {
            roundtrip(&data, effort);
        }
    }

    #[test]
    fn match_length_bounds_respected() {
        let data = vec![b'x'; 10_000];
        for t in tokenize(&data, Effort::BEST) {
            if let Token::Match { length, distance } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(length as usize)));
                assert!(distance as usize >= 1);
                assert!(distance as usize <= WINDOW_SIZE);
            }
        }
    }

    #[test]
    fn long_range_matches_within_window() {
        // Repeat a block separated by filler larger than window: must still
        // roundtrip even though the match is out of reach.
        let mut data = b"unique-prefix-block".to_vec();
        data.extend(std::iter::repeat_n(0u8, WINDOW_SIZE + 100));
        data.extend_from_slice(b"unique-prefix-block");
        roundtrip(&data, Effort::DEFAULT);
    }

    #[test]
    fn expand_panics_on_bad_distance() {
        let result = std::panic::catch_unwind(|| {
            expand(&[Token::Match {
                length: 3,
                distance: 1,
            }])
        });
        assert!(result.is_err());
    }

    #[test]
    fn binary_header_like_data() {
        // 44-byte records with small variations — the TSH shape gzip sees.
        let mut data = Vec::new();
        for i in 0..500u32 {
            let mut rec = [0u8; 44];
            rec[0..4].copy_from_slice(&i.to_be_bytes());
            rec[8] = 0x45;
            rec[16] = 6;
            rec[20..24].copy_from_slice(&(0x0A00_0001u32 + i % 13).to_be_bytes());
            data.extend_from_slice(&rec);
        }
        let tokens = tokenize(&data, Effort::DEFAULT);
        assert_eq!(expand(&tokens), data);
        let matches = tokens
            .iter()
            .filter(|t| matches!(t, Token::Match { .. }))
            .count();
        assert!(matches > 100, "structured records should match heavily");
    }
}
