//! A from-scratch recursive-descent JSON parser.
//!
//! Accepts standard RFC 8259 JSON. Duplicate object keys follow the common
//! last-wins rule. Numbers parse to [`Value::Int`] when they are plain
//! integers that fit `i64`, otherwise to [`Value::Float`]. Errors carry the
//! byte offset plus line/column for diagnostics.
//!
//! There is one tokenizer and it builds nothing itself: it reports what it
//! reads to a `Sink`, in document order. [`parse`] plugs in a sink that
//! builds a [`Value`] tree; document ingest plugs in the flattening sink of
//! [`mod@crate::flatten`], which goes from text to attribute-value pairs without
//! a tree in between. Both therefore accept and reject exactly the same
//! texts, with the same error positions.

use crate::scalar::ScalarRef;
use crate::value::insert_field;
use crate::Value;
use std::fmt;

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// 1-based line of the error.
    pub line: usize,
    /// 1-based column (in bytes) of the error.
    pub column: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse one complete JSON value from `input`; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut tree = TreeSink::default();
    Parser::new(input, &mut tree).document()?;
    Ok(tree.take())
}

/// Parse a stream of whitespace/newline-separated JSON values (e.g. JSON Lines).
pub fn parse_stream(input: &str) -> Result<Vec<Value>, ParseError> {
    let mut tree = TreeSink::default();
    let mut p = Parser::new(input, &mut tree);
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.pos >= p.bytes.len() {
            break;
        }
        p.value()?;
        out.push(p.sink.take());
    }
    Ok(out)
}

/// Maximum nesting depth accepted by the parser. Recursive descent uses the
/// call stack; unbounded depth would let `[[[[...` overflow it.
const MAX_DEPTH: usize = 128;

/// What the tokenizer reports, in document order. Calls nest properly:
/// every `begin_*` is closed by its `end_*` unless the parse fails, in which
/// case the sink is left mid-document and must be discarded or reset.
pub(crate) trait Sink {
    /// A `{` was read.
    fn begin_object(&mut self);
    /// The unescaped key of the member whose value follows.
    fn key(&mut self, key: &str);
    /// The `}` matching the innermost open object.
    fn end_object(&mut self);
    /// A `[` was read.
    fn begin_array(&mut self);
    /// The next element of the innermost open array follows.
    fn element(&mut self);
    /// The `]` matching the innermost open array.
    fn end_array(&mut self);
    /// A leaf value. For a string without escapes, `at` is the offset at
    /// which the string's contents sit verbatim in the input, so a sink
    /// that holds the input can keep an offset instead of a copy.
    fn scalar(&mut self, value: ScalarRef<'_>, at: Option<usize>);
}

/// The sink behind [`parse`]: builds the [`Value`] tree.
#[derive(Default)]
struct TreeSink {
    /// The containers still open, outermost first.
    open: Vec<Open>,
    root: Option<Value>,
}

enum Open {
    Object {
        fields: Vec<(String, Value)>,
        /// Set by `key`, consumed by the member's value.
        key: Option<String>,
    },
    Array(Vec<Value>),
}

impl TreeSink {
    /// A value is complete: hand it to the container it belongs to.
    fn attach(&mut self, value: Value) {
        match self.open.last_mut() {
            None => self.root = Some(value),
            Some(Open::Array(items)) => items.push(value),
            Some(Open::Object { fields, key }) => {
                let key = key.take().expect("the parser names every member");
                insert_field(fields, key, value); // last-wins on duplicate keys
            }
        }
    }

    /// The finished root value.
    fn take(&mut self) -> Value {
        self.root.take().expect("a value was parsed")
    }
}

impl Sink for TreeSink {
    fn begin_object(&mut self) {
        self.open.push(Open::Object {
            fields: Vec::new(),
            key: None,
        });
    }

    fn key(&mut self, name: &str) {
        if let Some(Open::Object { key, .. }) = self.open.last_mut() {
            *key = Some(name.to_owned());
        }
    }

    fn end_object(&mut self) {
        if let Some(Open::Object { fields, .. }) = self.open.pop() {
            self.attach(Value::Object(fields));
        }
    }

    fn begin_array(&mut self) {
        self.open.push(Open::Array(Vec::new()));
    }

    fn element(&mut self) {}

    fn end_array(&mut self) {
        if let Some(Open::Array(items)) = self.open.pop() {
            self.attach(Value::Array(items));
        }
    }

    fn scalar(&mut self, value: ScalarRef<'_>, _at: Option<usize>) {
        self.attach(match value {
            ScalarRef::Null => Value::Null,
            ScalarRef::Bool(b) => Value::Bool(b),
            ScalarRef::Int(i) => Value::Int(i),
            ScalarRef::Float(f) => Value::Float(f),
            ScalarRef::Str(s) => Value::Str(s.to_owned()),
        });
    }
}

/// The contents of the string literal `Parser::string` just read, given its
/// result `at` and the position `end` just past the closing quote. (A free
/// function over the parser's fields, so the sink stays borrowable.)
fn string_contents<'x>(
    text: &'x str,
    unescaped: &'x str,
    at: Option<usize>,
    end: usize,
) -> &'x str {
    match at {
        Some(start) => &text[start..end - 1],
        None => unescaped,
    }
}

/// The tokenizer. Drives `sink` with what it reads from `text`.
pub(crate) struct Parser<'a, 's, S> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Contents of the last string literal that had escapes.
    unescaped: String,
    sink: &'s mut S,
}

impl<'a, 's, S: Sink> Parser<'a, 's, S> {
    pub(crate) fn new(input: &'a str, sink: &'s mut S) -> Self {
        Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            unescaped: String::new(),
            sink,
        }
    }

    /// One complete value with optional whitespace around it and nothing else.
    pub(crate) fn document(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        self.value()?;
        self.skip_ws();
        if self.pos < self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            message: message.into(),
            offset: self.pos,
            line,
            column: col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => {
                let at = self.string()?;
                let s = string_contents(self.text, &self.unescaped, at, self.pos);
                self.sink.scalar(ScalarRef::Str(s), at);
                Ok(())
            }
            Some(b't') => self.literal("true", ScalarRef::Bool(true)),
            Some(b'f') => self.literal("false", ScalarRef::Bool(false)),
            Some(b'n') => self.literal("null", ScalarRef::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn literal(&mut self, word: &str, value: ScalarRef<'_>) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            self.sink.scalar(value, None);
            Ok(())
        } else {
            Err(self.err(format!("invalid literal, expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        let result = self.object_inner();
        self.depth -= 1;
        result
    }

    fn object_inner(&mut self) -> Result<(), ParseError> {
        self.expect(b'{')?;
        self.sink.begin_object();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.sink.end_object();
            return Ok(());
        }
        loop {
            self.skip_ws();
            let at = self.string()?;
            self.sink
                .key(string_contents(self.text, &self.unescaped, at, self.pos));
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    self.sink.end_object();
                    return Ok(());
                }
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn array(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        let result = self.array_inner();
        self.depth -= 1;
        result
    }

    fn array_inner(&mut self) -> Result<(), ParseError> {
        self.expect(b'[')?;
        self.sink.begin_array();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.sink.end_array();
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.sink.element();
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => {
                    self.sink.end_array();
                    return Ok(());
                }
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    /// Advance over bytes that stand for themselves inside a string literal.
    fn skip_plain(&mut self) {
        while let Some(b) = self.peek() {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
    }

    /// Read a string literal. Without escapes its contents are a slice of
    /// the input and `Some(start offset)` is returned; with escapes they are
    /// decoded into `self.unescaped` and `None` is returned. Either way
    /// [`string_contents`] yields them.
    fn string(&mut self) -> Result<Option<usize>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Some(start));
        }
        // `skip_plain` stops at ASCII bytes only, so every slice of `text`
        // taken below starts and ends on a character boundary.
        self.unescaped.clear();
        self.unescaped.push_str(&self.text[start..self.pos]);
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(None),
                Some(b'\\') => {
                    let ch = self.escape()?;
                    self.unescaped.push(ch);
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => unreachable!("skip_plain consumed plain bytes"),
            }
            let run = self.pos;
            self.skip_plain();
            self.unescaped.push_str(&self.text[run..self.pos]);
        }
    }

    /// Decode the escape sequence after a backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let cp = self.hex4()?;
                if (0xD800..0xDC00).contains(&cp) {
                    // High surrogate: require a following \uXXXX low surrogate.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate in \\u escape"));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate in \\u escape"));
                    }
                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&cp) {
                    return Err(self.err("unpaired low surrogate in \\u escape"));
                } else {
                    char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            _ => return Err(self.err("invalid escape sequence")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        let int = if is_float {
            None
        } else {
            text.parse::<i64>().ok() // too large for i64: degrade to a float
        };
        let value = match int {
            Some(i) => ScalarRef::Int(i),
            None => ScalarRef::Float(
                text.parse::<f64>()
                    .map_err(|_| self.err("number out of range"))?,
            ),
        };
        self.sink.scalar(value, None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-17").unwrap(), Value::Int(-17));
        assert_eq!(parse("3.5").unwrap(), Value::Float(3.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_paper_fig1_document() {
        let v = parse(r#"{"User": "A", "Severity": "Warning", "MsgId": 2}"#).unwrap();
        assert_eq!(v.get("User").and_then(Value::as_str), Some("A"));
        assert_eq!(v.get("MsgId").and_then(Value::as_int), Some(2));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a":{"b":[1,2,{"c":null}]},"d":[]}"#).unwrap();
        let a = v.get("a").unwrap();
        let b = a.get("b").unwrap();
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn whitespace_tolerant() {
        let v = parse(" {\n\t\"a\" :\r 1 , \"b\": [ 1 ,2 ] } ").unwrap();
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.get("a").and_then(Value::as_int), Some(2));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = parse(r#""a\n\t\"\\Aé""#).unwrap();
        assert_eq!(v, Value::Str("a\n\t\"\\Aé".into()));
    }

    #[test]
    fn surrogate_pairs() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v, Value::Str("😀".into()));
    }

    #[test]
    fn unpaired_surrogate_rejected() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn big_integer_degrades_to_float() {
        let v = parse("123456789012345678901234567890").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("01").is_err());
        assert!(parse("1.").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn error_positions() {
        let err = parse("{\n  \"a\": tru\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
    }

    #[test]
    fn parse_stream_multiple_values() {
        let vs = parse_stream("{\"a\":1}\n{\"b\":2}\n  {\"c\":3}").unwrap();
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[2].get("c").and_then(Value::as_int), Some(3));
    }

    #[test]
    fn roundtrip_serialize_parse() {
        let src = r#"{"a":1,"b":[true,null,1.25],"c":{"d":"x\ny"}}"#;
        let v = parse(src).unwrap();
        let v2 = parse(&v.to_json()).unwrap();
        assert_eq!(v, v2);
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;

    #[test]
    fn deep_but_legal_nesting_parses() {
        let depth = 100;
        let src = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn pathological_nesting_rejected_not_crashed() {
        let depth = 100_000;
        let src = "[".repeat(depth);
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn deep_objects_also_bounded() {
        let depth = 100_000;
        let src = "{\"k\":".repeat(depth);
        assert!(parse(&src).is_err());
    }
}
