//! Reading `--joins-out` files, hashing them, and the brute-force oracle.
//!
//! `ssj run --joins-out` writes one line per window (pane, for sliding
//! windows): `w: a-b a-b …` with every pair flipped to `(min, max)`, sorted
//! and deduplicated. A window's *digest* is its pair count plus an
//! order-sensitive hash of that canonical list, so a digest computed here
//! from any other source of pairs (the oracle, an in-process run) is
//! comparable with a line of the file.

use ssj_json::Document;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over bytes: the pin for whole input and output files. Kept
/// here rather than borrowed from `ssj_runtime::wire`, so a change to the
/// repository's own hash cannot silently move the pins.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

pub fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Pair count and hash of one window's canonical pair list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowDigest {
    pub pairs: u64,
    pub hash: u64,
}

/// Digest of pairs that are already `(min, max)`, sorted and unique.
fn digest_canonical(pairs: impl IntoIterator<Item = (u64, u64)>) -> WindowDigest {
    let mut d = WindowDigest {
        pairs: 0,
        hash: FNV_OFFSET,
    };
    for (a, b) in pairs {
        d.hash = (d.hash ^ a).wrapping_mul(FNV_PRIME);
        d.hash = (d.hash ^ b).wrapping_mul(FNV_PRIME);
        d.pairs += 1;
    }
    d
}

/// Digest of an arbitrary pair collection: canonicalised exactly as
/// `write_joins` in the CLI does before writing a line.
pub fn digest_pairs(pairs: impl IntoIterator<Item = (u64, u64)>) -> WindowDigest {
    let mut v: Vec<(u64, u64)> = pairs
        .into_iter()
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    v.sort_unstable();
    v.dedup();
    digest_canonical(v)
}

/// Parse a whole `--joins-out` file into one digest per line. Line `i` must
/// carry window id `i`; anything else is a format error.
pub fn parse_joins(text: &[u8]) -> Result<Vec<WindowDigest>, String> {
    let mut out = Vec::new();
    for (i, line) in text.split(|&b| b == b'\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        let bad = |what: &str| format!("joins-out line {}: {what}", i + 1);
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or_else(|| bad("missing ':'"))?;
        let id = parse_u64(&line[..colon]).ok_or_else(|| bad("bad window id"))?;
        if id != out.len() as u64 {
            return Err(bad(&format!("window id {id}, expected {}", out.len())));
        }
        let mut pairs = Vec::new();
        for token in line[colon + 1..]
            .split(|&b| b == b' ')
            .filter(|t| !t.is_empty())
        {
            let dash = token
                .iter()
                .position(|&b| b == b'-')
                .ok_or_else(|| bad("pair without '-'"))?;
            let a = parse_u64(&token[..dash]).ok_or_else(|| bad("bad pair id"))?;
            let b = parse_u64(&token[dash + 1..]).ok_or_else(|| bad("bad pair id"))?;
            pairs.push((a, b));
        }
        // Hash the list as written: a file that is not canonical (unsorted,
        // duplicated) then differs from every digest computed here.
        out.push(digest_canonical(pairs));
    }
    Ok(out)
}

fn parse_u64(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit()
            .then(|| acc.checked_mul(10)?.checked_add(u64::from(b - b'0')))
            .flatten()
    })
}

/// Exact pairs of one pane by brute force, from outside the system: every
/// document of `docs[pane_start..pane_end]` against every earlier document
/// back to `extent_start` (the start of the pane itself for a tumbling
/// window, seven panes earlier for the 8-pane sliding extent), using only
/// `Document::joins_with`.
pub fn oracle_pane(
    docs: &[Document],
    extent_start: usize,
    pane_start: usize,
    pane_end: usize,
) -> WindowDigest {
    let mut pairs = Vec::new();
    for j in pane_start..pane_end {
        for i in extent_start..j {
            if docs[i].joins_with(&docs[j]) {
                pairs.push((docs[i].id().0, docs[j].id().0));
            }
        }
    }
    digest_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::{Dictionary, DocId};

    #[test]
    fn parser_and_digest_agree_on_the_canonical_form() {
        let text = b"0: 1-2 1-3 2-3\n1:\n2: 10-11\n";
        let parsed = parse_joins(text).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].pairs, 3);
        assert_eq!(parsed[1].pairs, 0);
        // Same pairs, flipped / shuffled / duplicated, canonicalise equal.
        assert_eq!(parsed[0], digest_pairs([(3, 2), (1, 2), (3, 1), (2, 1)]));
        assert_eq!(parsed[1], digest_pairs([]));
        assert_eq!(parsed[2], digest_pairs([(11, 10)]));
        // A different pair set has a different hash at equal count.
        assert_ne!(parsed[0], digest_pairs([(1, 2), (1, 3), (2, 4)]));
    }

    #[test]
    fn parser_rejects_malformed_files() {
        assert!(parse_joins(b"0: 1-2\n2: 3-4\n").is_err(), "skipped id");
        assert!(parse_joins(b"0 1-2\n").is_err(), "no colon");
        assert!(parse_joins(b"0: 12\n").is_err(), "no dash");
        assert!(parse_joins(b"0: 1-x\n").is_err(), "not a number");
        assert_eq!(parse_joins(b"").unwrap(), vec![]);
    }

    #[test]
    fn file_hash_is_fnv1a() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hex(fnv64(b"a")), "af63dc4c8601ec8c");
    }

    #[test]
    fn oracle_respects_the_extent() {
        let dict = Dictionary::new();
        let docs: Vec<Document> = (0..6u64)
            .map(|i| {
                Document::from_json(DocId(i), &format!(r#"{{"k":{}}}"#, i % 2), &dict).unwrap()
            })
            .collect();
        // Tumbling pane [2,4): only 2-? pairs inside the pane; 2 and 3 differ.
        assert_eq!(oracle_pane(&docs, 2, 2, 4).pairs, 0);
        // Same pane against an extent reaching back to 0: 0-2 and 1-3.
        assert_eq!(oracle_pane(&docs, 0, 2, 4), digest_pairs([(0, 2), (1, 3)]));
        // Whole stream as one window: the three even and three odd docs.
        assert_eq!(oracle_pane(&docs, 0, 0, 6).pairs, 6);
    }
}
