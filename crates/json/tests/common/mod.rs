//! Generators shared by the JSON layer's property tests.

// Each test crate uses its own subset.
#![allow(dead_code)]

use proptest::collection::vec;
use proptest::prelude::*;
use ssj_json::Value;

/// True when the tree contains an empty object/array anywhere below an
/// object or array (those cannot survive flatten → unflatten).
pub fn has_empty_container(v: &Value) -> bool {
    match v {
        Value::Array(items) => items.is_empty() || items.iter().any(has_empty_container),
        Value::Object(fields) => {
            fields.is_empty() || fields.iter().any(|(_, v)| has_empty_container(v))
        }
        _ => false,
    }
}

pub fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12f64).prop_map(Value::Float),
        any::<String>().prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 32, 5, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..5).prop_map(Value::Array),
            vec(("[a-zA-Z_][a-zA-Z0-9_]{0,8}", inner), 0..5).prop_map(|fields| {
                let mut obj = Value::object();
                for (k, v) in fields {
                    obj.insert(k, v);
                }
                obj
            }),
        ]
    })
}

// ---------------------------------------------------------------------
// The reference: the line-at-a-time reader as it was before fused ingest
// (`read_line`, trim, `parse`, flatten the tree with one `String` per path,
// intern pair by pair). Everything the loader does is held against it.
// ---------------------------------------------------------------------

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssj_json::{
    Dictionary, DocId, Document, DocumentReader, JsonLinesError, JsonLinesReader, ParseError,
    Scalar,
};
use std::io::Cursor;

fn reference_flatten(value: &Value, prefix: String, out: &mut Vec<(String, Scalar)>) {
    match value {
        Value::Object(fields) => {
            for (k, v) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                reference_flatten(v, path, out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                reference_flatten(v, format!("{prefix}[{i}]"), out);
            }
        }
        leaf => out.push((prefix, Scalar::from_value(leaf).expect("a leaf"))),
    }
}

/// `Document::from_value` as it was: `None` for a non-object root or no pairs.
pub fn reference_document(id: DocId, value: &Value, dict: &Dictionary) -> Option<Document> {
    let mut flat = Vec::new();
    if value.is_object() {
        reference_flatten(value, String::new(), &mut flat);
    }
    if flat.is_empty() {
        return None;
    }
    let pairs = flat
        .into_iter()
        .map(|(path, scalar)| dict.intern(&path, scalar))
        .collect();
    Some(Document::from_pairs(id, pairs))
}

/// A [`JsonLinesError`] in comparable form.
#[derive(Debug, PartialEq)]
pub enum Failure {
    Io(std::io::ErrorKind),
    Parse { line: u64, error: ParseError },
    NotADocument { line: u64 },
}

impl From<JsonLinesError> for Failure {
    fn from(e: JsonLinesError) -> Self {
        match e {
            JsonLinesError::Io(e) => Failure::Io(e.kind()),
            JsonLinesError::Parse { line, error } => Failure::Parse { line, error },
            JsonLinesError::NotADocument { line } => Failure::NotADocument { line },
        }
    }
}

/// What loading an input came to: the documents or the failure, and the
/// dictionary it left behind (as its exported JSON).
#[derive(Debug, PartialEq)]
pub struct Loaded {
    pub docs: Result<Vec<Document>, Failure>,
    pub dict: String,
}

pub fn reference_load(input: &[u8], first_id: u64, lenient: bool) -> Loaded {
    let dict = Dictionary::new();
    let mut docs = Vec::new();
    let mut lines = JsonLinesReader::new(Cursor::new(input));
    let failure = loop {
        let value = match lines.next() {
            None => break None,
            Some(Err(e)) => break Some(e.into()),
            Some(Ok(value)) => value,
        };
        let id = DocId(first_id + docs.len() as u64);
        match reference_document(id, &value, &dict) {
            Some(doc) => docs.push(doc),
            None if lenient => {}
            None => break Some(Failure::NotADocument { line: lines.line() }),
        }
    };
    Loaded {
        docs: failure.map_or(Ok(docs), Err),
        dict: dict.export().to_json(),
    }
}

/// The loader under test, with `workers` threads over `block_bytes` blocks
/// (`workers == 0`: as a plain iterator, default block size).
pub fn load(
    input: &[u8],
    first_id: u64,
    lenient: bool,
    workers: usize,
    block_bytes: usize,
) -> Loaded {
    let dict = Dictionary::new();
    let mut reader = DocumentReader::new(Cursor::new(input), dict.clone(), first_id);
    reader.lenient = lenient;
    let docs = if workers == 0 {
        reader.collect()
    } else {
        reader.read_all_with(workers, block_bytes)
    };
    Loaded {
        docs: docs.map_err(Failure::from),
        dict: dict.export().to_json(),
    }
}

// ---------------------------------------------------------------------
// JSON text the serializer would never write: repeated keys, keys that
// collide once flattened, escapes and surrogate pairs, integers that do not
// fit i64, -0.0, empty containers, stray whitespace, non-object roots.
// ---------------------------------------------------------------------

pub struct JsonText(pub StdRng);

impl JsonText {
    pub fn new(seed: u64) -> Self {
        JsonText(StdRng::seed_from_u64(seed))
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.0.gen_range(0..options.len())]
    }

    fn space(&mut self, out: &mut String) {
        if self.0.gen_bool(0.15) {
            out.push_str(self.pick(&[" ", "\t", "  ", "\r"]));
        }
    }

    fn string(&mut self, out: &mut String) {
        out.push('"');
        for _ in 0..self.0.gen_range(0..4) {
            out.push_str(self.pick(&[
                "a",
                "b",
                "xyz",
                "é",
                "😀",
                "\\n",
                "\\\"",
                "\\\\",
                "\\/",
                "\\t",
                "\\u00e9",
                "\\u0041",
                "\\ud83d\\ude00",
                " ",
                ".",
                "[0]",
            ]));
        }
        out.push('"');
    }

    fn key(&mut self, out: &mut String) {
        // A small pool, so that repeats (`a` twice, `a` and `\u0061`) and
        // flattened-path collisions (`a.b` next to `a:{b}`) actually occur.
        out.push_str(self.pick(&[
            "\"a\"",
            "\"b\"",
            "\"c\"",
            "\"a.b\"",
            "\"a[0]\"",
            "\"\"",
            "\"\\u0061\"",
            "\"k\"",
            "\"é\"",
        ]));
    }

    fn number(&mut self, out: &mut String) {
        out.push_str(self.pick(&[
            "0",
            "-0",
            "-0.0",
            "0.0",
            "17",
            "-5",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "123456789012345678901234567890",
            "1.5",
            "1e3",
            "2E-2",
            "1e400",
            "-1.25e+2",
        ]));
    }

    fn value(&mut self, out: &mut String, depth: usize) {
        match self.0.gen_range(0..if depth < 4 { 10 } else { 6 }) {
            0 => out.push_str("null"),
            1 => out.push_str(self.pick(&["true", "false"])),
            2 | 3 => self.number(out),
            4 | 5 => self.string(out),
            6 | 7 => self.object(out, depth + 1),
            _ => {
                out.push('[');
                for i in 0..self.0.gen_range(0..4) {
                    if i > 0 {
                        out.push(',');
                    }
                    self.space(out);
                    self.value(out, depth + 1);
                }
                out.push(']');
            }
        }
    }

    fn object(&mut self, out: &mut String, depth: usize) {
        out.push('{');
        for i in 0..self.0.gen_range(0..5) {
            if i > 0 {
                out.push(',');
            }
            self.space(out);
            self.key(out);
            self.space(out);
            out.push(':');
            self.space(out);
            self.value(out, depth);
            self.space(out);
        }
        out.push('}');
    }

    /// One JSON text: usually an object, sometimes another root.
    pub fn text(&mut self) -> String {
        let mut out = String::new();
        if self.0.gen_bool(0.85) {
            self.object(&mut out, 0);
        } else {
            self.value(&mut out, 3);
        }
        out
    }

    /// A text cut short or with a stray character: usually invalid.
    pub fn broken(&mut self) -> String {
        let mut text = self.text();
        let mut at = self.0.gen_range(0..text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        if self.0.gen_bool(0.5) {
            text.truncate(at);
        } else {
            text.insert_str(at, self.pick(&["}", "\"", ",", "x", "\u{0}", "\\", "]"]));
        }
        text
    }

    /// A JSON Lines input: documents mixed with blank lines, a few
    /// non-documents and (with `broken`) invalid lines; `\n` and `\r\n`
    /// endings, padding around lines, now and then one very long line, and
    /// a last line with or without its newline.
    pub fn lines(&mut self, broken: bool) -> String {
        let mut out = String::new();
        let count = self.0.gen_range(0..10);
        for i in 0..count {
            if self.0.gen_bool(0.1) {
                out.push_str(self.pick(&[" ", "\t "]));
            }
            match self.0.gen_range(0..20) {
                0 | 1 => out.push_str(self.pick(&["", " ", "\t", "\r"])),
                2 if broken => out.push_str(&self.broken()),
                3 => {
                    let filler = "long ".repeat(self.0.gen_range(20..80));
                    out.push_str(&format!("{{\"a\":\"{filler}\",\"n\":{i}}}"));
                }
                _ => out.push_str(&self.text()),
            }
            if i + 1 < count || self.0.gen_bool(0.7) {
                out.push_str(self.pick(&["\n", "\n", "\r\n"]));
            }
        }
        out
    }
}
