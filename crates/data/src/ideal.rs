//! The "ideal execution" dataset of §VII-E-4.
//!
//! The paper derives it from the real-world data by taking one time-window
//! and repeating it, injecting only "a predefined, small number of
//! previously unseen documents" into every repetition. With stable
//! co-occurrence characteristics, the measured replication and load are a
//! direct product of the partitioning algorithm rather than of novel pairs
//! routed to their hash homes.

use ssj_json::{Dictionary, DocId, Document, Scalar};

/// Configuration for the repeated-window stream.
#[derive(Debug, Clone, Copy)]
pub struct IdealConfig {
    /// How many windows to produce.
    pub windows: usize,
    /// Previously unseen documents injected per repeated window.
    pub novel_per_window: usize,
}

impl Default for IdealConfig {
    fn default() -> Self {
        IdealConfig {
            windows: 8,
            novel_per_window: 10,
        }
    }
}

/// Build the ideal-execution stream: `cfg.windows` copies of `base`, each
/// copy re-identified and carrying `novel_per_window` brand-new documents.
/// Returns the documents window by window.
pub fn ideal_stream(base: &[Document], cfg: IdealConfig, dict: &Dictionary) -> Vec<Vec<Document>> {
    let mut next_id: u64 = base.iter().map(|d| d.id().0).max().map_or(0, |m| m + 1);
    let mut novel_counter: u64 = 0;
    let mut out = Vec::with_capacity(cfg.windows);
    for w in 0..cfg.windows {
        let mut window: Vec<Document> = Vec::with_capacity(base.len() + cfg.novel_per_window);
        for d in base {
            // Same pairs, fresh identity: the repeated window.
            window.push(Document::from_pairs(DocId(next_id), d.pairs().to_vec()));
            next_id += 1;
        }
        for _ in 0..cfg.novel_per_window {
            novel_counter += 1;
            // Entirely new attribute-value pairs: a unique attribute with a
            // unique value plus a unique tag, never joinable with the base.
            let pairs = vec![
                dict.intern(
                    &format!("novel_attr_{}", novel_counter % 17),
                    Scalar::Str(format!("nv{novel_counter}")),
                ),
                dict.intern("novel_tag", Scalar::Int(novel_counter as i64)),
            ];
            window.push(Document::from_pairs(DocId(next_id), pairs));
            next_id += 1;
        }
        let _ = w;
        out.push(window);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serverlog::{ServerLogConfig, ServerLogGen};
    use ssj_json::FxHashSet;

    fn base(dict: &Dictionary, n: usize) -> Vec<Document> {
        ServerLogGen::new(ServerLogConfig::default(), dict.clone()).take_docs(n)
    }

    #[test]
    fn window_sizes_and_count() {
        let dict = Dictionary::new();
        let b = base(&dict, 100);
        let cfg = IdealConfig {
            windows: 5,
            novel_per_window: 7,
        };
        let ws = ideal_stream(&b, cfg, &dict);
        assert_eq!(ws.len(), 5);
        for w in &ws {
            assert_eq!(w.len(), 107);
        }
    }

    #[test]
    fn repeated_documents_have_same_pairs_fresh_ids() {
        let dict = Dictionary::new();
        let b = base(&dict, 20);
        let ws = ideal_stream(&b, IdealConfig::default(), &dict);
        let mut ids: FxHashSet<u64> = b.iter().map(|d| d.id().0).collect();
        for w in &ws {
            for d in w {
                assert!(ids.insert(d.id().0), "duplicate document id {}", d.id());
            }
        }
        // First copy of the first window has the base's pair sets.
        for (orig, copy) in b.iter().zip(&ws[0]) {
            assert_eq!(orig.pairs(), copy.pairs());
        }
    }

    #[test]
    fn novel_documents_use_unseen_pairs() {
        let dict = Dictionary::new();
        let b = base(&dict, 50);
        let base_avps: FxHashSet<u32> = b.iter().flat_map(|d| d.avps()).map(|a| a.0).collect();
        let ws = ideal_stream(
            &b,
            IdealConfig {
                windows: 2,
                novel_per_window: 5,
            },
            &dict,
        );
        let novel = &ws[0][50..];
        for d in novel {
            assert!(
                d.avps().all(|a| !base_avps.contains(&a.0)),
                "novel doc shares pairs with the base window"
            );
        }
    }

    #[test]
    fn zero_novelty_repeats_exactly() {
        let dict = Dictionary::new();
        let b = base(&dict, 30);
        let ws = ideal_stream(
            &b,
            IdealConfig {
                windows: 3,
                novel_per_window: 0,
            },
            &dict,
        );
        for w in &ws {
            assert_eq!(w.len(), 30);
            for (orig, copy) in b.iter().zip(w) {
                assert_eq!(orig.pairs(), copy.pairs());
            }
        }
    }
}
