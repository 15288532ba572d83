//! Attribute-value expansion for low value variety (§VI-B).
//!
//! An attribute present in *all* documents with fewer distinct values than
//! the required number of partitions `m` (the **disabling attribute** — think
//! a Boolean flag) caps how many partitions any scheme can create. The fix:
//! concatenate its values with those of a **combining attribute** (the next
//! attribute appearing in most documents with the fewest distinct values),
//! repeating until the synthetic attribute has at least `m` distinct values.
//!
//! Correctness: two documents that share the disabling pair and both carry
//! the combining attribute either agree on it (same synthetic value → same
//! partition) or conflict on it (not joinable anyway). A document *missing*
//! a chained attribute cannot form the synthetic value and must be broadcast
//! to all machines — it can join an expanded document through any synthetic
//! pair that carries its value, so no single home covers it; the expected
//! extra replication is `pna · m` where `pna` is the fraction of such
//! documents.

use crate::groups::View;
use crate::partitions::RouteScratch;
use ssj_json::{AttrId, AvpId, Dictionary, Document, FxHashMap, FxHashSet};
use std::borrow::Borrow;

/// A detected expansion: the chain of combined attributes and the synthetic
/// attribute their concatenated values intern under.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// Combined attributes: `[disabling, combining₁, combining₂, …]`.
    pub chain: Vec<AttrId>,
    /// The synthetic attribute (e.g. `"bool+str1"`).
    pub synth_attr: AttrId,
    /// Fraction of detection-batch documents lacking a chained attribute
    /// (the `pna` of the paper's replication estimate).
    pub pna: f64,
}

impl Expansion {
    /// Detect whether expansion is needed for `docs` given `m` partitions;
    /// `None` when no disabling attribute exists. Takes owned documents or
    /// shared handles ([`ssj_json::DocRef`]) alike.
    ///
    /// ```
    /// use ssj_partition::Expansion;
    /// use ssj_json::{Dictionary, DocId, Document};
    ///
    /// let dict = Dictionary::new();
    /// // A ubiquitous Boolean plus a 4-valued group attribute.
    /// let docs: Vec<Document> = (0..16u64)
    ///     .map(|i| Document::from_json(
    ///         DocId(i),
    ///         &format!(r#"{{"flag":{},"grp":"g{}"}}"#, i % 2 == 0, (i / 2) % 4),
    ///         &dict,
    ///     ).unwrap())
    ///     .collect();
    /// let exp = Expansion::detect(&docs, &dict, 8).expect("flag limits m");
    /// assert_eq!(dict.attr_name(exp.synth_attr), "flag+grp");
    /// ```
    pub fn detect<D: Borrow<Document>>(
        docs: &[D],
        dict: &Dictionary,
        m: usize,
    ) -> Option<Expansion> {
        if docs.is_empty() || m <= 1 {
            return None;
        }
        // Per-attribute document frequency and batch-local distinct values.
        let mut freq: FxHashMap<AttrId, usize> = FxHashMap::default();
        let mut distinct: FxHashMap<AttrId, FxHashSet<u32>> = FxHashMap::default();
        for d in docs {
            for p in d.borrow().pairs() {
                *freq.entry(p.attr).or_insert(0) += 1;
                distinct.entry(p.attr).or_default().insert(p.avp.0);
            }
        }
        let n = docs.len();
        // Disabling attribute: in all documents, fewer distinct values than
        // m; pick the one with the fewest values (most limiting). Ties go by
        // name, never by id: the processes of a group intern in different
        // orders.
        let disabling = freq
            .iter()
            .filter(|&(a, &f)| f == n && distinct[a].len() < m)
            .min_by_key(|&(&a, _)| (distinct[&a].len(), dict.attr_name(a)))
            .map(|(&a, _)| a)?;

        let mut chain = vec![disabling];
        let mut combined = combined_distinct(docs, &chain);
        while combined < m {
            // Combining attribute: most frequent, then fewest distinct, then
            // by name.
            let next = freq
                .iter()
                .filter(|&(a, _)| !chain.contains(a))
                .max_by_key(|&(&a, &f)| {
                    (
                        f,
                        std::cmp::Reverse(distinct[&a].len()),
                        std::cmp::Reverse(dict.attr_name(a)),
                    )
                })
                .map(|(&a, _)| a);
            match next {
                Some(a) => {
                    chain.push(a);
                    let now = combined_distinct(docs, &chain);
                    if now == combined {
                        // No progress possible (e.g. constant attribute);
                        // keep it anyway and stop: variety is exhausted.
                        break;
                    }
                    combined = now;
                }
                None => break,
            }
        }

        let missing = docs
            .iter()
            .filter(|d| chain.iter().any(|&a| !(*d).borrow().has_attr(a)))
            .count();
        let name = chain
            .iter()
            .map(|&a| dict.attr_name(a))
            .collect::<Vec<_>>()
            .join("+");
        Some(Expansion {
            synth_attr: dict.intern_attr(&name),
            pna: missing as f64 / n as f64,
            chain,
        })
    }

    /// The synthetic pair for `doc`, or `None` when a chained attribute is
    /// missing (the document must then be broadcast).
    pub fn synthetic_pair(&self, doc: &Document, dict: &Dictionary) -> Option<ssj_json::Pair> {
        let mut parts = Vec::with_capacity(self.chain.len());
        for &attr in &self.chain {
            let pair = doc.pair_for_attr(attr)?;
            parts.push(dict.avp_scalar(pair.avp).render());
        }
        Some(dict.intern_avp(self.synth_attr, ssj_json::Scalar::Str(parts.join("+"))))
    }

    /// The partitioning view of `doc`: its pairs with the chained attributes
    /// replaced by the synthetic pair. `None` = broadcast.
    pub fn view(&self, doc: &Document, dict: &Dictionary) -> Option<View> {
        let synth = self.synthetic_pair(doc, dict)?;
        let mut view: View = doc
            .pairs()
            .iter()
            .filter(|p| !self.chain.contains(&p.attr))
            .map(|p| p.avp)
            .collect();
        view.push(synth.avp);
        Some(view)
    }

    /// [`view`](Self::view) into a reused buffer: writes the partitioning
    /// view into `buf` (cleared first) and returns whether the synthetic
    /// pair could be formed. `false` = a chained attribute is missing, the
    /// document must be broadcast (`buf` is left empty). It renders and
    /// interns the synthetic value every call; the routing path uses
    /// [`view_cached`](Self::view_cached).
    pub fn view_into(&self, doc: &Document, dict: &Dictionary, buf: &mut Vec<AvpId>) -> bool {
        buf.clear();
        let Some(synth) = self.synthetic_pair(doc, dict) else {
            return false;
        };
        self.push_view(doc, synth.avp, buf);
        true
    }

    /// [`view_into`](Self::view_into) with the synthetic pair memoised in
    /// `scratch`, keyed by the document's chained pairs: once those pairs
    /// were seen since the scratch's last
    /// [`invalidate_cache`](RouteScratch::invalidate_cache), no value is
    /// rendered, no dictionary lock taken and nothing allocated.
    pub fn view_cached(
        &self,
        doc: &Document,
        dict: &Dictionary,
        buf: &mut Vec<AvpId>,
        scratch: &mut RouteScratch,
    ) -> bool {
        buf.clear();
        let key = &mut scratch.chain_buf;
        key.clear();
        for &attr in &self.chain {
            let Some(pair) = doc.pair_for_attr(attr) else {
                return false;
            };
            key.push(pair.avp);
        }
        let synth = match scratch.synth.get(key.as_slice()) {
            Some(&avp) => avp,
            None => {
                let Some(synth) = self.synthetic_pair(doc, dict) else {
                    return false;
                };
                scratch.synth.insert(key.clone(), synth.avp);
                synth.avp
            }
        };
        self.push_view(doc, synth, buf);
        true
    }

    /// Append `doc`'s pairs outside the chain, then `synth`.
    fn push_view(&self, doc: &Document, synth: AvpId, buf: &mut Vec<AvpId>) {
        buf.extend(
            doc.pairs()
                .iter()
                .filter(|p| !self.chain.contains(&p.attr))
                .map(|p| p.avp),
        );
        buf.push(synth);
    }
}

/// Build partitioning views for a batch: expanded when possible, `None`
/// (broadcast) when a chained attribute is missing. Without an expansion the
/// view is simply the document's own pairs.
pub fn batch_views<D: Borrow<Document>>(
    docs: &[D],
    expansion: Option<&Expansion>,
    dict: &Dictionary,
) -> Vec<Option<View>> {
    docs.iter()
        .map(|d| match expansion {
            Some(e) => e.view(d.borrow(), dict),
            None => Some(d.borrow().avps().collect()),
        })
        .collect()
}

fn combined_distinct<D: Borrow<Document>>(docs: &[D], chain: &[AttrId]) -> usize {
    let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
    'outer: for d in docs {
        let mut key = Vec::with_capacity(chain.len());
        for &a in chain {
            match d.borrow().pair_for_attr(a) {
                Some(p) => key.push(p.avp.0),
                None => continue 'outer,
            }
        }
        seen.insert(key);
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::{DocId, Document};

    fn doc(dict: &Dictionary, id: u64, json: &str) -> Document {
        Document::from_json(DocId(id), json, dict).unwrap()
    }

    fn bool_dataset(dict: &Dictionary) -> Vec<Document> {
        // `flag` appears everywhere with 2 values; `grp` appears everywhere
        // with 4 values; `x` is noise.
        (0..16u64)
            .map(|i| {
                doc(
                    dict,
                    i + 1,
                    &format!(
                        r#"{{"flag":{},"grp":"g{}","x":{}}}"#,
                        i % 2 == 0,
                        (i / 2) % 4,
                        i
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn detects_boolean_disabling_attribute() {
        let dict = Dictionary::new();
        let docs = bool_dataset(&dict);
        let exp = Expansion::detect(&docs, &dict, 8).expect("expansion needed");
        let flag = dict.intern_attr("flag");
        assert_eq!(exp.chain[0], flag, "flag is the most limiting attribute");
        assert!(exp.chain.len() >= 2, "must chain a combining attribute");
        assert_eq!(exp.pna, 0.0);
        // flag(2) × grp(4) = 8 distinct synthetic values ≥ m.
        assert_eq!(dict.attr_name(exp.synth_attr), "flag+grp");
    }

    #[test]
    fn no_expansion_when_variety_sufficient() {
        let dict = Dictionary::new();
        let docs: Vec<Document> = (0..10u64)
            .map(|i| doc(&dict, i + 1, &format!(r#"{{"id":"u{i}"}}"#)))
            .collect();
        assert!(Expansion::detect(&docs, &dict, 5).is_none());
    }

    #[test]
    fn no_expansion_for_single_partition() {
        let dict = Dictionary::new();
        let docs = bool_dataset(&dict);
        assert!(Expansion::detect(&docs, &dict, 1).is_none());
    }

    #[test]
    fn synthetic_values_distinguish_partitions() {
        let dict = Dictionary::new();
        let docs = bool_dataset(&dict);
        let exp = Expansion::detect(&docs, &dict, 8).unwrap();
        let mut synth: FxHashSet<u32> = FxHashSet::default();
        for d in &docs {
            let p = exp.synthetic_pair(d, &dict).unwrap();
            synth.insert(p.avp.0);
        }
        assert_eq!(synth.len(), 8);
    }

    #[test]
    fn missing_combining_attribute_forces_broadcast() {
        let dict = Dictionary::new();
        let mut docs = bool_dataset(&dict);
        let exp = Expansion::detect(&docs, &dict, 8).unwrap();
        // A late document without `grp` cannot form the synthetic value.
        let orphan = doc(&dict, 99, r#"{"flag":true,"x":5}"#);
        assert!(exp.view(&orphan, &dict).is_none());
        docs.push(orphan);
        let views = batch_views(&docs, Some(&exp), &dict);
        assert_eq!(views.iter().filter(|v| v.is_none()).count(), 1);
    }

    #[test]
    fn view_replaces_chained_attributes() {
        let dict = Dictionary::new();
        let docs = bool_dataset(&dict);
        let exp = Expansion::detect(&docs, &dict, 8).unwrap();
        let v = exp.view(&docs[0], &dict).unwrap();
        let flag_pair = docs[0].pair_for_attr(dict.intern_attr("flag")).unwrap();
        assert!(!v.contains(&flag_pair.avp), "original flag pair removed");
        let synth = exp.synthetic_pair(&docs[0], &dict).unwrap();
        assert!(v.contains(&synth.avp));
        // The noise attribute x is untouched.
        let x_pair = docs[0].pair_for_attr(dict.intern_attr("x")).unwrap();
        assert!(v.contains(&x_pair.avp));
    }

    #[test]
    fn view_into_matches_view() {
        let dict = Dictionary::new();
        let docs = bool_dataset(&dict);
        let exp = Expansion::detect(&docs, &dict, 8).unwrap();
        let mut buf = Vec::new();
        for d in &docs {
            assert!(exp.view_into(d, &dict, &mut buf));
            assert_eq!(buf, exp.view(d, &dict).unwrap());
        }
        let orphan = doc(&dict, 99, r#"{"flag":true,"x":5}"#);
        assert!(!exp.view_into(&orphan, &dict, &mut buf));
        assert!(buf.is_empty());
    }

    /// The memoised view is the rendered one: cold, warm (16 documents,
    /// 8 chain combinations), after an invalidation, and for a document
    /// missing a chained attribute.
    #[test]
    fn view_cached_matches_view() {
        let dict = Dictionary::new();
        let docs = bool_dataset(&dict);
        let exp = Expansion::detect(&docs, &dict, 8).unwrap();
        let mut scratch = RouteScratch::new();
        let mut buf = Vec::new();
        for round in 0..3 {
            for d in &docs {
                assert!(exp.view_cached(d, &dict, &mut buf, &mut scratch));
                assert_eq!(buf, exp.view(d, &dict).unwrap(), "round {round}");
            }
            assert_eq!(scratch.synth.len(), 8);
            if round == 1 {
                scratch.invalidate_cache();
                assert!(scratch.synth.is_empty());
            }
        }
        let orphan = doc(&dict, 99, r#"{"flag":true,"x":5}"#);
        assert!(!exp.view_cached(&orphan, &dict, &mut buf, &mut scratch));
        assert!(buf.is_empty());
    }

    #[test]
    fn pna_estimate() {
        let dict = Dictionary::new();
        let mut docs = bool_dataset(&dict);
        // 4 of 20 docs carry only the disabling attribute → pna = 0.2.
        for i in 0..4u64 {
            docs.push(doc(&dict, 100 + i, r#"{"flag":true}"#));
        }
        let exp = Expansion::detect(&docs, &dict, 8).unwrap();
        assert!((exp.pna - 0.2).abs() < 1e-9, "pna = {}", exp.pna);
    }

    #[test]
    fn chains_multiple_attributes_when_needed() {
        let dict = Dictionary::new();
        // Two ubiquitous Booleans and one 3-valued attr: need m=10 →
        // 2×2×3 = 12 ≥ 10 requires a chain of 3.
        let docs: Vec<Document> = (0..24u64)
            .map(|i| {
                doc(
                    &dict,
                    i + 1,
                    &format!(
                        r#"{{"b1":{},"b2":{},"t":"v{}"}}"#,
                        i % 2 == 0,
                        (i / 2) % 2 == 0,
                        i % 3
                    ),
                )
            })
            .collect();
        let exp = Expansion::detect(&docs, &dict, 10).unwrap();
        assert_eq!(exp.chain.len(), 3);
        let mut synth: FxHashSet<u32> = FxHashSet::default();
        for d in &docs {
            synth.insert(exp.synthetic_pair(d, &dict).unwrap().avp.0);
        }
        assert!(synth.len() >= 10, "got {} synthetic values", synth.len());
    }
}
