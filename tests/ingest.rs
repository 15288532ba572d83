//! A fast, fixed-seed slice of `crates/json/tests/ingest_equivalence.rs`, so
//! that the root package's tests (all that tier-1 runs) exercise the
//! document loader at all: the fused kernel against `parse` + the old
//! flatten-and-intern, and the chunk-parallel loader against the
//! line-at-a-time reader, on handwritten edge cases, on generated
//! odd-but-valid JSON, and on the generators' rwData / nbData streams.

#[path = "../crates/json/tests/common/mod.rs"]
mod common;

use common::{load, reference_load, JsonText};
use schema_free_stream_joins::ssj_data::{
    NoBenchConfig, NoBenchGen, ServerLogConfig, ServerLogGen,
};
use schema_free_stream_joins::ssj_json::{write_documents_jsonl, Dictionary};

/// The loader, run a few different ways, equals the reference on `input`.
fn assert_loads_like_reference(input: &[u8], lenient: bool) {
    let expected = reference_load(input, 0, lenient);
    for (workers, block_bytes) in [(0, 0), (1, 1), (1, 4096), (2, 7), (3, 1000), (4, 1 << 16)] {
        let actual = load(input, 0, lenient, workers, block_bytes);
        assert!(
            actual == expected,
            "{workers} workers over {block_bytes}-byte blocks differ from the line-at-a-time reader"
        );
    }
}

#[test]
fn handwritten_edge_cases_load_like_the_reference() {
    let lines = [
        r#"{"User":"A","Severity":"Warning","MsgId":2}"#,
        r#"{"a":1,"b":2,"a":3}"#,
        r#"{"a":{"x":1},"a":{"y":2}}"#,
        r#"{"a.b":1,"a":{"b":2},"a[0]":3,"a":[4]}"#,
        r#"{"":{"":1},"x":{"":[2]}}"#,
        r#"{"s":"tab\there \"q\" \\ \/ é 😀 é"}"#,
        r#"{"n":[0,-0,-0.0,9223372036854775807,9223372036854775808,1e400,1.5e-3]}"#,
        r#"  {"empty":{},"none":[],"deep":{"a":[{"b":[null,true]}]}}  "#,
        "",
        "\t",
        r#"[1,2]"#,
        r#"{}"#,
        r#"7"#,
    ];
    let crlf = lines.join("\r\n");
    assert_loads_like_reference(crlf.as_bytes(), true);
    assert_loads_like_reference(crlf.as_bytes(), false);
    let unterminated = format!("{}\n{{\"cut\":", lines[..8].join("\n"));
    assert_loads_like_reference(unterminated.as_bytes(), false);
    assert_loads_like_reference(b"{\"a\":1}\n{\"b\":\"\xff\"}\n", false);
    assert_loads_like_reference(b"", false);
}

#[test]
fn generated_odd_json_loads_like_the_reference() {
    for seed in 0..40 {
        let mut texts = JsonText::new(seed);
        assert_loads_like_reference(texts.lines(false).as_bytes(), true);
        assert_loads_like_reference(texts.lines(true).as_bytes(), false);
    }
}

/// The benchmark's two streams, seeds 1 and 7: loading the file in
/// parallel leaves the dictionary (and so `dict_epoch`, partition tables
/// and join output) exactly as loading it line by line does.
#[test]
fn generated_streams_load_identically_in_parallel() {
    for seed in [1, 7] {
        let dict = Dictionary::new();
        let rw = ServerLogGen::new(
            ServerLogConfig {
                seed,
                ..Default::default()
            },
            dict.clone(),
        )
        .take_docs(3000);
        let nb = NoBenchGen::new(
            NoBenchConfig {
                seed,
                ..Default::default()
            },
            dict.clone(),
        )
        .take_docs(1500);
        for docs in [rw, nb] {
            let mut file = Vec::new();
            write_documents_jsonl(&mut file, &docs, &dict).unwrap();
            let expected = reference_load(&file, 0, false);
            assert_eq!(expected.docs.as_ref().map(Vec::len), Ok(docs.len()));
            for (workers, block_bytes) in [(1, 1 << 18), (2, 1 << 14), (4, 50_000), (3, 1 << 18)] {
                assert!(load(&file, 0, false, workers, block_bytes) == expected);
            }
        }
    }
}
