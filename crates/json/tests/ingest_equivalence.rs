//! Fused, chunk-parallel ingest against the line-at-a-time reader it
//! replaced (`common::reference_load`): the same documents, the same
//! dictionary, the same error, for every way of cutting the input into
//! blocks and for any number of worker threads; and bytes from outside
//! never panic or hang it.

mod common;

use common::{load, reference_document, reference_load, value_strategy, Failure, JsonText, Loaded};
use proptest::collection::vec;
use proptest::prelude::*;
use ssj_json::{parse, Dictionary, DocError, DocId, Document};

/// Every way the tests run the loader: `(workers, block_bytes)`, `0`
/// workers meaning the plain iterator. Block sizes from one byte (every
/// line its own block) up to the whole input and beyond.
fn configurations(input_len: usize) -> Vec<(usize, usize)> {
    let mut all = vec![(0, 0)];
    for workers in 1..=4 {
        for block_bytes in [
            1,
            2,
            3,
            7,
            16,
            61,
            input_len / 2,
            input_len,
            input_len + 1,
            1 << 20,
        ] {
            all.push((workers, block_bytes));
        }
    }
    all
}

/// The loader equals the reference on `input`, however it is run.
fn assert_loads_like_reference(input: &[u8]) {
    for lenient in [false, true] {
        let expected = reference_load(input, 5, lenient);
        for (workers, block_bytes) in configurations(input.len()) {
            let actual = load(input, 5, lenient, workers, block_bytes);
            assert_eq!(
                actual,
                expected,
                "lenient {lenient}, {workers} workers, {block_bytes}-byte blocks, input {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }
}

/// One text through `Document::from_json` (the fused kernel on its own) and
/// through `parse` + the reference flatten-and-intern: same outcome, same
/// dictionary.
fn assert_kernel_like_reference(text: &str) {
    let (fused_dict, reference_dict) = (Dictionary::new(), Dictionary::new());
    let fused = Document::from_json(DocId(3), text, &fused_dict);
    let reference = match parse(text) {
        Err(e) => Err(DocError::Parse(e)),
        Ok(value) => {
            // The walker behind `from_value` is held to the reference too.
            let walked_dict = Dictionary::new();
            let walked = Document::from_value(DocId(3), &value, &walked_dict);
            let reference = reference_document(DocId(3), &value, &reference_dict);
            assert_eq!(walked, reference, "from_value of {text:?}");
            assert_eq!(
                walked_dict.export(),
                reference_dict.export(),
                "from_value of {text:?}"
            );
            reference.ok_or(DocError::NotADocument)
        }
    };
    assert_eq!(fused, reference, "from_json of {text:?}");
    assert_eq!(
        fused_dict.export(),
        reference_dict.export(),
        "from_json of {text:?}"
    );
}

proptest! {
    /// (a) Arbitrary JSON texts, valid and not, one at a time.
    #[test]
    fn kernel_equals_parse_then_from_value(seed in any::<u64>()) {
        let mut texts = JsonText::new(seed);
        for _ in 0..8 {
            assert_kernel_like_reference(&texts.text());
            assert_kernel_like_reference(&texts.broken());
        }
    }

    /// (a) What the serializer writes for arbitrary trees (arbitrary string
    /// contents, deep nesting), one after the other into one dictionary.
    #[test]
    fn kernel_equals_from_value_on_serialized_trees(values in vec(value_strategy(), 1..6)) {
        let (fused_dict, reference_dict) = (Dictionary::new(), Dictionary::new());
        for (i, value) in values.iter().enumerate() {
            let id = DocId(i as u64);
            let fused = Document::from_json(id, &value.to_json(), &fused_dict).ok();
            prop_assert_eq!(fused, reference_document(id, value, &reference_dict));
        }
        prop_assert_eq!(fused_dict.export(), reference_dict.export());
    }

    /// (a) + (b) Whole inputs of valid lines: every block size, 1-4 workers.
    #[test]
    fn loader_equals_reference_on_valid_lines(seed in any::<u64>()) {
        assert_loads_like_reference(JsonText::new(seed).lines(false).as_bytes());
    }

    /// (c) The same with invalid lines among them: the lowest one's error.
    #[test]
    fn loader_reports_the_lowest_bad_line(seed in any::<u64>()) {
        assert_loads_like_reference(JsonText::new(seed).lines(true).as_bytes());
    }

    /// Fail safe: arbitrary bytes.
    #[test]
    fn arbitrary_bytes_never_panic_or_hang(input in vec(any::<u8>(), 0..120)) {
        assert_loads_like_reference(&input);
    }

    /// Fail safe: valid inputs with a few bytes overwritten (NULs, bytes
    /// that break UTF-8, stray quotes and newlines) or cut short.
    #[test]
    fn damaged_inputs_fail_like_the_reference(
        seed in any::<u64>(),
        damage in vec((any::<u16>(), any::<u8>()), 1..4),
        cut in any::<u16>(),
    ) {
        let mut input = JsonText::new(seed).lines(false).into_bytes();
        if input.is_empty() {
            return Ok(());
        }
        for (at, byte) in damage {
            let at = at as usize % input.len();
            input[at] = [0x00, 0xff, 0xc3, b'"', b'\n', byte][byte as usize % 6];
        }
        if cut.is_multiple_of(3) {
            input.truncate(cut as usize % input.len());
        }
        assert_loads_like_reference(&input);
    }
}

#[test]
fn nesting_is_accepted_up_to_the_parsers_limit_and_refused_beyond() {
    // The root object and 126 arrays put the leaf at depth 127, the deepest
    // the parser reads; one more array and every reader must refuse alike.
    for arrays in [125, 126, 127, 128] {
        let text = format!("{{\"a\":{}1{}}}", "[".repeat(arrays), "]".repeat(arrays));
        assert_kernel_like_reference(&text);
        let fused = Document::from_json(DocId(0), &text, &Dictionary::new());
        assert_eq!(
            fused.is_ok(),
            arrays <= 126,
            "{arrays} arrays inside the root"
        );
        assert_loads_like_reference(format!("{{\"x\":1}}\n{text}\n").as_bytes());
    }
}

#[test]
fn a_repeated_key_takes_the_last_value_at_the_first_position() {
    // `a:1` is overwritten and must not take an id; `a:3` comes before `b:2`.
    let dict = Dictionary::new();
    let doc = Document::from_json(DocId(0), r#"{"a":1,"b":2,"\u0061":3}"#, &dict).unwrap();
    assert_eq!(
        dict.export().to_json(),
        r#"{"attrs":["a","b"],"avps":[[0,3],[1,2]]}"#
    );
    assert_eq!(doc.len(), 2);
    for text in [
        r#"{"a":{"x":1},"a":{"y":2}}"#,
        r#"{"a":[1,2],"a":[]}"#,
        r#"{"o":{"k":1,"k":2},"o2":{"k":1}}"#,
        r#"{"a":1,"a":1}"#,
        r#"{"a.b":1,"a":{"b":2}}"#,
        r#"{"":{"x":1},"x":2}"#,
    ] {
        assert_kernel_like_reference(text);
    }
}

#[test]
fn with_several_bad_lines_the_lowest_is_reported() {
    let input = b"{\"a\":1}\n\n{\"b\":2}\r\n[1]\n{\"c\":3}\n{oops\n{\"d\":}\n";
    for (workers, block_bytes) in configurations(input.len()) {
        let strict = load(input, 0, false, workers, block_bytes);
        assert_eq!(strict.docs, Err(Failure::NotADocument { line: 4 }));
        match load(input, 0, true, workers, block_bytes).docs {
            Err(Failure::Parse { line: 6, error }) => assert_eq!(error.offset, 1),
            other => panic!("expected the parse error of line 6, got {other:?}"),
        }
    }
}

#[test]
fn inputs_from_outside_map_to_named_errors() {
    let load_all = |input: &[u8]| -> Vec<Loaded> {
        assert_loads_like_reference(input);
        configurations(input.len())
            .into_iter()
            .map(|(workers, block_bytes)| load(input, 0, false, workers, block_bytes))
            .collect()
    };
    // Nothing to read is not an error.
    for empty in [&b""[..], b"\n", b"\n\n  \r\n\t\n"] {
        for loaded in load_all(empty) {
            assert_eq!(loaded.docs, Ok(Vec::new()));
        }
    }
    // A truncated last line is that line's parse error.
    for loaded in load_all(b"{\"a\":1}\n{\"b\":") {
        assert!(matches!(loaded.docs, Err(Failure::Parse { line: 2, .. })));
    }
    // A NUL is an unexpected character (or a control character in a string).
    for loaded in load_all(b"{\"a\":1}\n\0{\"b\":2}\n") {
        assert!(matches!(loaded.docs, Err(Failure::Parse { line: 2, .. })));
    }
    // Invalid UTF-8 is the I/O error `read_line` raises, whichever block
    // the byte lands in; a bad line before it still comes first.
    for loaded in load_all(b"{\"a\":1}\n{\"b\":\"\xff\"}\n{\"c\":3}\n") {
        assert_eq!(
            loaded.docs,
            Err(Failure::Io(std::io::ErrorKind::InvalidData))
        );
    }
    for loaded in load_all(b"[]\n{\"b\":\"\xc3\"}\n") {
        assert_eq!(loaded.docs, Err(Failure::NotADocument { line: 1 }));
    }
}
