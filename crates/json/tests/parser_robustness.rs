//! Robustness properties of the JSON layer: the parser must never panic on
//! arbitrary input, and valid values must round-trip through text and
//! through flattening.

mod common;

use common::{has_empty_container, value_strategy};
use proptest::prelude::*;
use ssj_json::{flatten_value, parse, unflatten, Dictionary, DocId, Document};

proptest! {
    /// Arbitrary UTF-8 never panics the parser (it may of course error).
    #[test]
    fn parser_never_panics_on_arbitrary_text(input in any::<String>()) {
        let _ = parse(&input);
    }

    /// Arbitrary ASCII soup with JSON-ish characters never panics either.
    #[test]
    fn parser_never_panics_on_jsonish_soup(
        input in "[\\[\\]{}\",:0-9a-z\\\\ \n.\\-+eE]{0,200}"
    ) {
        let _ = parse(&input);
    }

    /// Every value the serializer emits is accepted back and equal.
    #[test]
    fn serializer_output_reparses(v in value_strategy()) {
        let text = v.to_json();
        let back = parse(&text).expect("must reparse");
        prop_assert_eq!(back, v);
    }

    /// Flatten → unflatten reconstructs any object whose field names avoid
    /// the path metacharacters ('.', '[') and that contains no empty
    /// containers (those carry no pairs and cannot survive the round trip —
    /// see the `flatten` module docs).
    #[test]
    fn flatten_unflatten_roundtrip(v in value_strategy()) {
        if !v.is_object() || has_empty_container(&v) {
            return Ok(());
        }
        let Some(pairs) = flatten_value(&v) else {
            return Ok(());
        };
        // Documents with no leaves flatten to nothing: nothing to check.
        if pairs.is_empty() {
            return Ok(());
        }
        let rebuilt = unflatten(pairs.iter().map(|(p, s)| (p.as_str(), s)));
        // Empty containers are dropped by flattening, so compare the
        // flattened forms rather than the trees.
        let pairs2 = flatten_value(&rebuilt).expect("rebuilt is an object");
        let mut a = pairs.clone();
        let mut b = pairs2;
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        prop_assert_eq!(a, b);
    }

    /// Documents built from arbitrary objects always keep sorted, unique
    /// attributes, and `to_json` output reparses to an equivalent document.
    /// (Empty containers are excluded: they cannot survive flattening.)
    #[test]
    fn document_roundtrip(v in value_strategy()) {
        if has_empty_container(&v) {
            return Ok(());
        }
        let dict = Dictionary::new();
        let Some(doc) = Document::from_value(DocId(1), &v, &dict) else {
            return Ok(());
        };
        let attrs: Vec<_> = doc.pairs().iter().map(|p| p.attr).collect();
        let mut sorted = attrs.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(&attrs, &sorted);

        let text = doc.to_json(&dict);
        let reparsed = Document::from_json(DocId(2), &text, &dict).expect("reparse");
        prop_assert_eq!(doc.pairs(), reparsed.pairs());
    }
}
