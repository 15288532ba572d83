//! Key routing: §VI-B's correctness argument carried one step further.
//!
//! Take a set K of attributes. Two documents that both carry every
//! attribute of K join only if they agree on all of K, so a document that
//! carries K needs to reach one joiner only: the home of its K-tuple. A
//! document that lacks an attribute of K can join a K-carrying one whatever
//! that one's K-tuple is, so it goes to every joiner. This is exact for any
//! K; only the cost depends on K. It is hash partitioning on a common join
//! key (PanJoin, Chakraborty's shared-nothing windowed join), with the key
//! found in the data: [`RouteKey::detect`] takes the attributes every
//! document of a build pane carries, and keeps them only if their tuples
//! spread the pane over the `m` joiners.

use crate::home_bit;
use ssj_json::{AttrId, AvpId, Dictionary, Document, FxHashSet};
use std::borrow::Borrow;

/// A routing key: attributes every document of a build pane carried,
/// ordered by name, so every process of a group mixes a document's pairs
/// in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteKey {
    /// The key's attributes, ordered by name. Never empty.
    pub attrs: Vec<AttrId>,
}

impl RouteKey {
    /// The attributes every one of `docs` carries, if their tuples spread
    /// the documents over `m` joiners: at least `m` distinct tuples, and no
    /// home holding more than `2/m` of the documents. Otherwise `None`, and
    /// the table routes by its partitions: a ubiquitous constant or Boolean
    /// attribute must not put a whole pane on one joiner (§VI-B exists for
    /// exactly that case). Interns nothing.
    ///
    /// ```
    /// use ssj_partition::RouteKey;
    /// use ssj_json::{Dictionary, DocId, Document};
    ///
    /// let dict = Dictionary::new();
    /// let docs: Vec<Document> = (0..64u64)
    ///     .map(|i| Document::from_json(
    ///         DocId(i),
    ///         &format!(r#"{{"host":"h{}","user":"u{i}"}}"#, i % 16),
    ///         &dict,
    ///     ).unwrap())
    ///     .collect();
    /// let key = RouteKey::detect(&docs, &dict, 4).expect("host spreads the pane");
    /// assert_eq!(key.attrs, [dict.intern_attr("host"), dict.intern_attr("user")]);
    /// ```
    pub fn detect<D: Borrow<Document>>(
        docs: &[D],
        dict: &Dictionary,
        m: usize,
    ) -> Option<RouteKey> {
        let (first, rest) = docs.split_first()?;
        if m <= 1 {
            return None;
        }
        let mut attrs: Vec<AttrId> = first.borrow().pairs().iter().map(|p| p.attr).collect();
        for d in rest {
            attrs.retain(|&a| d.borrow().has_attr(a));
        }
        if attrs.is_empty() {
            return None;
        }
        // By name, never by id: the processes of a group intern in
        // different orders.
        attrs.sort_by_cached_key(|&a| dict.attr_name(a));
        let key = RouteKey { attrs };
        let width = key.attrs.len();
        let mut tuples: Vec<AvpId> = Vec::with_capacity(docs.len() * width);
        let mut per_home = vec![0usize; m];
        {
            let hashes = dict.content_hashes();
            for d in docs {
                let hash = key.hash(d.borrow(), |avp| {
                    tuples.push(avp);
                    hashes.of(avp)
                });
                let home = home_bit(hash.expect("every document carries K"), m);
                per_home[home.trailing_zeros() as usize] += 1;
            }
        }
        let distinct: FxHashSet<&[AvpId]> = tuples.chunks(width).collect();
        let busiest = per_home.into_iter().max().unwrap_or(0);
        (distinct.len() >= m && busiest * m <= 2 * docs.len()).then_some(key)
    }

    /// The mix of `doc`'s K pairs' content hashes (`hash` gives a pair's,
    /// [`ssj_json::ContentHashes::of`]), in key order: its home is
    /// [`crate::home_bit`] of it. `None` when `doc` lacks an attribute of
    /// K: it must then go to every joiner.
    #[inline]
    pub fn hash(&self, doc: &Document, mut hash: impl FnMut(AvpId) -> u32) -> Option<u32> {
        let mut h = 0u64;
        for &attr in &self.attrs {
            let pair = doc.pair_for_attr(attr)?;
            h = (h.rotate_left(5) ^ hash(pair.avp) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        Some((h ^ h >> 32) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::DocId;

    fn docs(dict: &Dictionary, n: u64, json: impl Fn(u64) -> String) -> Vec<Document> {
        (0..n)
            .map(|i| Document::from_json(DocId(i), &json(i), dict).unwrap())
            .collect()
    }

    #[test]
    fn takes_the_ubiquitous_attributes_by_name() {
        let dict = Dictionary::new();
        // `x` is interned first, so ids and names disagree on the order.
        let pane = docs(&dict, 32, |i| {
            let extra = if i % 3 == 0 { r#","rare":1"# } else { "" };
            format!(r#"{{"x":{},"b":"v{}"{extra}}}"#, i % 8, i % 5)
        });
        let key = RouteKey::detect(&pane, &dict, 4).expect("x and b spread");
        assert_eq!(key.attrs, [dict.intern_attr("b"), dict.intern_attr("x")]);
        let lone = Document::from_json(DocId(99), r#"{"b":"v1","rare":1}"#, &dict).unwrap();
        assert_eq!(key.hash(&lone, |_| 0), None, "x is missing");
    }

    /// A build pane whose only ubiquitous attribute is a constant or a
    /// Boolean adopts no key: it has fewer than `m` tuples.
    #[test]
    fn a_constant_or_boolean_key_is_not_adopted() {
        let dict = Dictionary::new();
        let constant = docs(&dict, 40, |i| {
            format!(r#"{{"c":"same","u{}":{i}}}"#, i % 10)
        });
        assert_eq!(RouteKey::detect(&constant, &dict, 2), None);
        let boolean = docs(&dict, 40, |i| {
            format!(r#"{{"b":{},"u{}":{i}}}"#, i % 2 == 0, i % 10)
        });
        assert_eq!(RouteKey::detect(&boolean, &dict, 4), None);
        // At m = 2 the Boolean has m tuples, and no home can hold more
        // than 2/m = all of the pane.
        let key = RouteKey::detect(&boolean, &dict, 2).expect("two tuples at m 2");
        assert_eq!(key.attrs, [dict.intern_attr("b")]);
        // Nothing is ubiquitous, or one joiner: no key.
        let sparse = docs(&dict, 8, |i| format!(r#"{{"a{i}":1}}"#));
        assert_eq!(RouteKey::detect(&sparse, &dict, 4), None);
        let spread = docs(&dict, 64, |i| format!(r#"{{"k":{i}}}"#));
        assert_eq!(RouteKey::detect(&spread, &dict, 1), None);
        assert!(RouteKey::detect(&spread, &dict, 4).is_some());
    }

    /// Enough tuples, but one of them holds most of the pane: its home
    /// would take more than `2/m` of the documents.
    #[test]
    fn a_key_whose_busiest_home_is_too_busy_is_not_adopted() {
        let dict = Dictionary::new();
        let skewed = docs(&dict, 100, |i| {
            let v = if i < 70 { 0 } else { i };
            format!(r#"{{"k":{v}}}"#)
        });
        assert_eq!(RouteKey::detect(&skewed, &dict, 4), None);
        let even = docs(&dict, 100, |i| format!(r#"{{"k":{}}}"#, i % 20));
        assert!(RouteKey::detect(&even, &dict, 4).is_some());
    }

    /// A document's home depends on its content only: two dictionaries
    /// that interned the stream in opposite orders, attributes included,
    /// home it alike.
    #[test]
    fn homes_are_content_stable() {
        let json = |i: u64| format!(r#"{{"host":"h{}","sev":{},"n":{i}}}"#, i % 24, i % 7);
        let (one, two) = (Dictionary::new(), Dictionary::new());
        for name in ["n", "sev", "host"] {
            two.intern_attr(name);
        }
        let a = docs(&one, 200, json);
        let mut b: Vec<Document> = (0..200u64)
            .rev()
            .map(|i| Document::from_json(DocId(i), &json(i), &two).unwrap())
            .collect();
        b.reverse();
        let ka = RouteKey::detect(&a, &one, 8).unwrap();
        let kb = RouteKey::detect(&b, &two, 8).unwrap();
        let (ha, hb) = (one.content_hashes(), two.content_hashes());
        let mut used = 0u64;
        for (x, y) in a.iter().zip(&b) {
            let home = home_bit(ka.hash(x, |p| ha.of(p)).unwrap(), 8);
            assert_eq!(home, home_bit(kb.hash(y, |p| hb.of(p)).unwrap(), 8));
            used |= home;
        }
        assert_eq!(used, 0xff);
    }
}
