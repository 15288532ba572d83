//! The schema-free document: an interned, sorted set of attribute-value pairs.
//!
//! [`Document`] is the unit the whole system operates on. Pairs are sorted by
//! [`AttrId`], attributes are unique within a document (JSON object keys are
//! unique per level, and flattened paths are unique), so the natural-join
//! compatibility test of the paper — *share at least one attribute-value pair
//! and have no conflicting values for shared attributes* — is a single merge
//! scan over two sorted slices, `O(|d1| + |d2|)`.

use crate::flatten::{unflatten, Flattener};
use crate::intern::{AttrId, AvpId, Dictionary, Pair};
use crate::parser::ParseError;
use crate::{Scalar, Value};
use std::fmt;
use std::sync::Arc;

/// Stream-wide unique document id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Errors when building a [`Document`] from JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// The text was not valid JSON.
    Parse(ParseError),
    /// The JSON root was not an object, or flattened to zero pairs.
    NotADocument,
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::Parse(e) => write!(f, "{e}"),
            DocError::NotADocument => {
                f.write_str("JSON root is not an object with at least one attribute-value pair")
            }
        }
    }
}

impl std::error::Error for DocError {}

/// Outcome of the pairwise natural-join compatibility test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinCheck {
    /// Number of identical attribute-value pairs the documents share.
    pub shared: u32,
    /// Whether any shared attribute carries different values.
    pub conflict: bool,
}

impl JoinCheck {
    /// True when the two documents belong to the natural join result.
    #[inline]
    pub fn joinable(self) -> bool {
        self.shared > 0 && !self.conflict
    }
}

/// An immutable schema-free document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    id: DocId,
    /// Sorted by `attr`; attributes unique.
    pairs: Box<[Pair]>,
}

/// Documents flow through channels constantly; share them, never deep-copy.
pub type DocRef = Arc<Document>;

impl Document {
    /// Build from raw pairs; sorts by attribute and drops duplicate
    /// attributes (first value wins).
    pub fn from_pairs(id: DocId, mut pairs: Vec<Pair>) -> Self {
        pairs.sort_by_key(|p| (p.attr, p.avp));
        pairs.dedup_by_key(|p| p.attr);
        Document {
            id,
            pairs: pairs.into_boxed_slice(),
        }
    }

    /// Flatten a parsed [`Value`] and intern its pairs.
    ///
    /// Returns `None` when the root is not an object or flattens to zero
    /// pairs — the paper excludes attribute-less documents from the join.
    pub fn from_value(id: DocId, value: &Value, dict: &Dictionary) -> Option<Self> {
        let mut flat = Flattener::default();
        flat.value(value)
            .then(|| Self::from_flattened(id, &flat, "", dict))
    }

    /// Parse JSON text and intern it in one step: the tokenizer feeds the
    /// flattener directly, no [`Value`] is built.
    pub fn from_json(id: DocId, text: &str, dict: &Dictionary) -> Result<Self, DocError> {
        let mut flat = Flattener::default();
        if !flat.text(text).map_err(DocError::Parse)? {
            return Err(DocError::NotADocument);
        }
        Ok(Self::from_flattened(id, &flat, text, dict))
    }

    /// Intern the leaves `flat` holds for `text` (see [`Flattener::leaves`]).
    fn from_flattened(id: DocId, flat: &Flattener, text: &str, dict: &Dictionary) -> Self {
        let mut pairs = Vec::new();
        dict.intern_leaves(flat.leaves(text), &mut pairs);
        Self::from_pairs(id, pairs)
    }

    /// The document's id.
    #[inline]
    pub fn id(&self) -> DocId {
        self.id
    }

    /// The sorted attribute-value pairs.
    #[inline]
    pub fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// Number of attribute-value pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the document has no pairs (not constructible via the public
    /// parsers, but possible via `from_pairs`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterate the pair ids.
    pub fn avps(&self) -> impl Iterator<Item = AvpId> + '_ {
        self.pairs.iter().map(|p| p.avp)
    }

    /// Approximate heap + inline footprint in bytes: the struct itself plus
    /// the boxed pair slice. Used by the out-of-core tiering layer
    /// (DESIGN.md §4i) for budget accounting — an estimate, not an exact
    /// allocator measurement.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Document>() + std::mem::size_of_val::<[Pair]>(&self.pairs)
    }

    /// Binary-search for the pair carried for `attr`.
    pub fn pair_for_attr(&self, attr: AttrId) -> Option<Pair> {
        self.pairs
            .binary_search_by_key(&attr, |p| p.attr)
            .ok()
            .map(|i| self.pairs[i])
    }

    /// Whether the document contains `attr` at all.
    #[inline]
    pub fn has_attr(&self, attr: AttrId) -> bool {
        self.pair_for_attr(attr).is_some()
    }

    /// Whether the document contains this exact attribute-value pair.
    pub fn has_avp(&self, pair: Pair) -> bool {
        self.pair_for_attr(pair.attr).map(|p| p.avp) == Some(pair.avp)
    }

    /// The paper's join test (§I-A): shared pairs and conflicts in one merge
    /// scan over the two sorted pair slices.
    pub fn check_join(&self, other: &Document) -> JoinCheck {
        let (a, b) = (&self.pairs, &other.pairs);
        let (mut i, mut j) = (0, 0);
        let mut shared = 0u32;
        while i < a.len() && j < b.len() {
            match a[i].attr.cmp(&b[j].attr) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if a[i].avp == b[j].avp {
                        shared += 1;
                    } else {
                        return JoinCheck {
                            shared,
                            conflict: true,
                        };
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        JoinCheck {
            shared,
            conflict: false,
        }
    }

    /// True when `self ⋈ other` is part of the natural join result.
    #[inline]
    pub fn joins_with(&self, other: &Document) -> bool {
        self.check_join(other).joinable()
    }

    /// Merge two joinable documents into the natural-join output pairs
    /// (the union of both pair sets). `new_id` names the result.
    pub fn merge(&self, other: &Document, new_id: DocId) -> Document {
        let mut out = Vec::with_capacity(self.pairs.len() + other.pairs.len());
        let (a, b) = (&self.pairs, &other.pairs);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].attr.cmp(&b[j].attr) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Document {
            id: new_id,
            pairs: out.into_boxed_slice(),
        }
    }

    /// Reconstruct a nested [`Value`] through the dictionary.
    pub fn to_value(&self, dict: &Dictionary) -> Value {
        let rendered: Vec<(String, Scalar)> = self
            .pairs
            .iter()
            .map(|p| (dict.attr_name(p.attr), dict.avp_scalar(p.avp)))
            .collect();
        unflatten(rendered.iter().map(|(p, s)| (p.as_str(), s)))
    }

    /// Render as compact JSON text.
    pub fn to_json(&self, dict: &Dictionary) -> String {
        self.to_value(dict).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u64, json: &str, dict: &Dictionary) -> Document {
        Document::from_json(DocId(id), json, dict).unwrap()
    }

    /// The seven documents of the paper's Fig. 1.
    pub(crate) fn fig1_docs(dict: &Dictionary) -> Vec<Document> {
        vec![
            doc(1, r#"{"User":"A","Severity":"Warning"}"#, dict),
            doc(2, r#"{"User":"A","Severity":"Warning","MsgId":2}"#, dict),
            doc(3, r#"{"User":"A","Severity":"Error"}"#, dict),
            doc(4, r#"{"IP":"10.2.145.212","Severity":"Warning"}"#, dict),
            doc(5, r#"{"User":"B","Severity":"Critical","MsgId":1}"#, dict),
            doc(6, r#"{"User":"B","Severity":"Critical"}"#, dict),
            doc(7, r#"{"User":"B","Severity":"Warning"}"#, dict),
        ]
    }

    #[test]
    fn pairs_sorted_and_unique() {
        let dict = Dictionary::new();
        let d = doc(1, r#"{"z":1,"a":2,"m":3}"#, &dict);
        let attrs: Vec<AttrId> = d.pairs().iter().map(|p| p.attr).collect();
        let mut sorted = attrs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(attrs, sorted);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn join_requires_shared_pair() {
        let dict = Dictionary::new();
        // Disjoint attributes: excluded from the join result per §I-A.
        let d1 = doc(1, r#"{"a":1}"#, &dict);
        let d2 = doc(2, r#"{"b":1}"#, &dict);
        assert!(!d1.joins_with(&d2));
        let chk = d1.check_join(&d2);
        assert_eq!(chk.shared, 0);
        assert!(!chk.conflict);
    }

    #[test]
    fn join_rejects_conflicts() {
        let dict = Dictionary::new();
        let d1 = doc(1, r#"{"a":1,"b":2}"#, &dict);
        let d2 = doc(2, r#"{"a":1,"b":3}"#, &dict);
        assert!(!d1.joins_with(&d2));
        assert!(d1.check_join(&d2).conflict);
    }

    #[test]
    fn join_accepts_superset() {
        let dict = Dictionary::new();
        let d1 = doc(1, r#"{"a":1,"b":2}"#, &dict);
        let d2 = doc(2, r#"{"a":1,"b":2,"c":3}"#, &dict);
        let chk = d1.check_join(&d2);
        assert!(chk.joinable());
        assert_eq!(chk.shared, 2);
    }

    #[test]
    fn paper_fig1_join_pairs() {
        // Fig. 1 narrative: d1 is joinable with d2 (shares User:A and
        // Severity:Warning), d7 joins documents of both partitions.
        let dict = Dictionary::new();
        let docs = fig1_docs(&dict);
        let (d1, d2, d3, d4, d5, d6, d7) = (
            &docs[0], &docs[1], &docs[2], &docs[3], &docs[4], &docs[5], &docs[6],
        );
        assert!(d1.joins_with(d2));
        assert!(!d1.joins_with(d3)); // Severity conflicts: Warning vs Error
        assert!(d1.joins_with(d4)); // share Severity:Warning, no conflicts
        assert!(!d1.joins_with(d5)); // User and Severity both conflict
        assert!(d5.joins_with(d6)); // share User:B, Severity:Critical
        assert!(d7.joins_with(d4)); // Severity:Warning
        assert!(!d7.joins_with(d6)); // Severity conflicts
                                     // d7's pr1 partner is d4 (Severity:Warning); User:B conflicts with d1/d2.
        assert!(!d7.joins_with(d1));
        assert!(!d7.joins_with(d5)); // shares User:B but Severity conflicts
    }

    #[test]
    fn merge_produces_union() {
        let dict = Dictionary::new();
        let d1 = doc(1, r#"{"a":1,"b":2}"#, &dict);
        let d2 = doc(2, r#"{"b":2,"c":3}"#, &dict);
        let m = d1.merge(&d2, DocId(100));
        assert_eq!(m.len(), 3);
        assert_eq!(m.id(), DocId(100));
        let v = m.to_value(&dict);
        assert_eq!(v.get("a").and_then(Value::as_int), Some(1));
        assert_eq!(v.get("b").and_then(Value::as_int), Some(2));
        assert_eq!(v.get("c").and_then(Value::as_int), Some(3));
    }

    #[test]
    fn attr_lookup() {
        let dict = Dictionary::new();
        let d = doc(1, r#"{"x":1,"y":"s"}"#, &dict);
        let x = dict.intern_attr("x");
        let z = dict.intern_attr("z");
        assert!(d.has_attr(x));
        assert!(!d.has_attr(z));
        let px = dict.intern("x", Scalar::Int(1));
        let px2 = dict.intern("x", Scalar::Int(2));
        assert!(d.has_avp(px));
        assert!(!d.has_avp(px2));
    }

    #[test]
    fn to_json_roundtrip() {
        let dict = Dictionary::new();
        let src = r#"{"User":"A","nested":{"k":[1,2]},"ok":true}"#;
        let d = doc(9, src, &dict);
        let back = crate::parser::parse(&d.to_json(&dict)).unwrap();
        let orig = crate::parser::parse(src).unwrap();
        assert_eq!(back, orig);
    }

    #[test]
    fn rejects_non_documents() {
        let dict = Dictionary::new();
        assert!(matches!(
            Document::from_json(DocId(1), "[1,2]", &dict),
            Err(DocError::NotADocument)
        ));
        assert!(matches!(
            Document::from_json(DocId(1), "{}", &dict),
            Err(DocError::NotADocument)
        ));
        assert!(matches!(
            Document::from_json(DocId(1), "{oops", &dict),
            Err(DocError::Parse(_))
        ));
    }

    #[test]
    fn check_join_is_symmetric() {
        let dict = Dictionary::new();
        let docs = fig1_docs(&dict);
        for a in &docs {
            for b in &docs {
                assert_eq!(a.check_join(b).joinable(), b.check_join(a).joinable());
            }
        }
    }
}
