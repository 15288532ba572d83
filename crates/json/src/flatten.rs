//! Flattening nested JSON values into flat attribute-value pairs.
//!
//! The paper treats a document as an unordered set of attribute-value pairs
//! `d = {a1:v1, a2:v2, ...}`. Real JSON (e.g. NoBench's `nested_obj` /
//! `nested_arr`) nests, so we map nested structure to path-style attributes:
//!
//! * object fields join with `.` — `{"a":{"b":1}}` → `a.b : 1`
//! * array elements get an index — `{"t":[5,7]}` → `t[0] : 5`, `t[1] : 7`
//! * empty objects/arrays contribute no pairs (they carry no joinable value)
//!
//! The inverse, [`unflatten`], rebuilds a nested [`Value`] from flat pairs and
//! is used to render join results back as JSON.
//!
//! There is one implementation of these rules, `Flattener`. It is the
//! tokenizer's second sink (`crate::parser`): document ingest goes from a line
//! of text to leaves without building a [`Value`], and the same type walks a
//! [`Value`] for [`Document::from_value`](crate::Document::from_value) and for
//! [`flatten`] below.
//!
//! Caveat: empty containers carry no pairs, so they do not survive a
//! flatten → unflatten round trip; an array position whose element was an
//! empty container rebuilds as `null` (array gaps need placeholders). Leaf
//! values themselves always round-trip.

use crate::hash::hash_str;
use crate::parser::{parse, ParseError, Parser, Sink};
use crate::scalar::ScalarRef;
use crate::{Scalar, Value};

/// Flatten `value` into `(path, scalar)` pairs, appended to `out`.
///
/// The root must be an object (a JSON *document*); scalars or arrays at the
/// root are rejected by returning `false` without touching `out`.
pub fn flatten(value: &Value, out: &mut Vec<(String, Scalar)>) -> bool {
    if !value.is_object() {
        return false;
    }
    let mut flat = Flattener::default();
    flat.value(value);
    out.extend(
        flat.leaves("")
            .map(|(path, scalar)| (path.to_owned(), scalar.to_owned())),
    );
    true
}

/// Flatten into a fresh vector; `None` when the root is not an object.
pub fn flatten_value(value: &Value) -> Option<Vec<(String, Scalar)>> {
    let mut out = Vec::new();
    if flatten(value, &mut out) {
        Some(out)
    } else {
        None
    }
}

/// The one flattening implementation: turns a line of JSON text (as the
/// tokenizer's [`Sink`]) or a [`Value`] tree into the document's leaves, each
/// a path and a scalar, in document order, without allocating per leaf.
///
/// The current path lives in one buffer that grows on the way into a
/// container and is cut back on the way out. Leaves are buffered for the
/// whole document and only then handed on ([`leaves`](Self::leaves)), so
/// that a text which fails to parse halfway, or has to be redone because of
/// a repeated key, has not reached the dictionary. A `Flattener` is meant to
/// be reused: every buffer keeps its capacity from one document to the next.
pub(crate) struct Flattener {
    /// Path of the member or element being read.
    path: String,
    /// The containers still open, outermost first.
    open: Vec<Container>,
    /// Hashes of the keys seen so far in each open object, innermost last.
    keys: Vec<u64>,
    /// Backing store of leaf paths and of strings that had escapes.
    arena: String,
    leaves: Vec<Leaf>,
    /// The root turned out not to be an object; the rest is only validated.
    root_not_object: bool,
    /// Some object repeated a key; the rest is only validated.
    repeated_key: bool,
}

struct Container {
    /// Length of `path` when the container was opened.
    base: usize,
    /// Where this object's keys start in `keys`.
    keys_from: usize,
    /// Index of the next element, if this is an array.
    next_index: usize,
}

struct Leaf {
    /// Where the path sits in the arena: start and length.
    path: (usize, usize),
    value: LeafValue,
}

enum LeafValue {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// A string sitting verbatim in the flattened text: start and length.
    InText(usize, usize),
    /// A string copied into the arena: start and length.
    InArena(usize, usize),
}

impl Default for Flattener {
    /// Buffers sized up front for a typical document: a flattener made for
    /// one document should not pay for growing them step by step.
    fn default() -> Self {
        Flattener {
            path: String::with_capacity(64),
            open: Vec::with_capacity(8),
            keys: Vec::with_capacity(32),
            arena: String::with_capacity(1024),
            leaves: Vec::with_capacity(32),
            root_not_object: false,
            repeated_key: false,
        }
    }
}

impl Flattener {
    /// Flatten one JSON text. `Ok(true)`: it is a document and
    /// [`leaves`](Self::leaves) holds its pairs. `Ok(false)`: valid JSON that
    /// is not a document (root not an object, or no leaves).
    ///
    /// A key repeated inside one object is last-wins *at the first
    /// occurrence's position*, and the value it overwrites must never be
    /// seen by the dictionary (it would take an id). Streaming cannot know
    /// that a later member will overwrite an earlier one, so such a text is
    /// parsed to a [`Value`] (where the rule is applied) and that is
    /// flattened instead. Repeats are detected by key hash: a collision
    /// only costs the detour.
    pub(crate) fn text(&mut self, text: &str) -> Result<bool, ParseError> {
        self.reset();
        Parser::new(text, self).document()?;
        if self.repeated_key {
            return Ok(self.value(&parse(text)?));
        }
        Ok(!self.leaves.is_empty())
    }

    /// Flatten a parsed value; `true` when it is a document (see
    /// [`text`](Self::text)).
    pub(crate) fn value(&mut self, value: &Value) -> bool {
        self.reset();
        if value.is_object() {
            self.walk(value);
        }
        !self.leaves.is_empty()
    }

    /// The leaves of the last flattened document, in document order. `text`
    /// must be the text given to [`text`](Self::text) (anything after
    /// [`value`](Self::value)): strings without escapes are read out of it.
    pub(crate) fn leaves<'s>(
        &'s self,
        text: &'s str,
    ) -> impl Iterator<Item = (&'s str, ScalarRef<'s>)> + Clone + 's {
        self.leaves.iter().map(move |leaf| {
            let (start, len) = leaf.path;
            let value = match leaf.value {
                LeafValue::Null => ScalarRef::Null,
                LeafValue::Bool(b) => ScalarRef::Bool(b),
                LeafValue::Int(i) => ScalarRef::Int(i),
                LeafValue::Float(f) => ScalarRef::Float(f),
                LeafValue::InText(start, len) => ScalarRef::Str(&text[start..start + len]),
                LeafValue::InArena(start, len) => ScalarRef::Str(&self.arena[start..start + len]),
            };
            (&self.arena[start..start + len], value)
        })
    }

    fn reset(&mut self) {
        self.path.clear();
        self.open.clear();
        self.keys.clear();
        self.arena.clear();
        self.leaves.clear();
        self.root_not_object = false;
        self.repeated_key = false;
    }

    /// Nothing more is recorded once the text is known not to flatten here.
    fn validating_only(&self) -> bool {
        self.root_not_object || self.repeated_key
    }

    fn walk(&mut self, value: &Value) {
        let base = self.path.len();
        match value {
            Value::Object(fields) => {
                for (key, member) in fields {
                    self.enter_member(base, key);
                    self.walk(member);
                }
                self.path.truncate(base);
            }
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    self.enter_element(base, i);
                    self.walk(item);
                }
                self.path.truncate(base);
            }
            Value::Null => self.leaf(ScalarRef::Null, None),
            Value::Bool(b) => self.leaf(ScalarRef::Bool(*b), None),
            Value::Int(i) => self.leaf(ScalarRef::Int(*i), None),
            Value::Float(f) => self.leaf(ScalarRef::Float(*f), None),
            Value::Str(s) => self.leaf(ScalarRef::Str(s), None),
        }
    }

    /// Point `path` at member `key` of the object whose own path ends at `base`.
    fn enter_member(&mut self, base: usize, key: &str) {
        self.path.truncate(base);
        if base > 0 {
            self.path.push('.');
        }
        self.path.push_str(key);
    }

    /// Point `path` at element `index` of the array whose own path ends at `base`.
    fn enter_element(&mut self, base: usize, index: usize) {
        use std::fmt::Write;
        self.path.truncate(base);
        write!(self.path, "[{index}]").expect("writing to a String cannot fail");
    }

    /// Record a leaf at the current path.
    fn leaf(&mut self, value: ScalarRef<'_>, at: Option<usize>) {
        let path = (self.arena.len(), self.path.len());
        self.arena.push_str(&self.path);
        let value = match (value, at) {
            (ScalarRef::Null, _) => LeafValue::Null,
            (ScalarRef::Bool(b), _) => LeafValue::Bool(b),
            (ScalarRef::Int(i), _) => LeafValue::Int(i),
            (ScalarRef::Float(f), _) => LeafValue::Float(f),
            (ScalarRef::Str(s), Some(start)) => LeafValue::InText(start, s.len()),
            (ScalarRef::Str(s), None) => {
                let start = self.arena.len();
                self.arena.push_str(s);
                LeafValue::InArena(start, s.len())
            }
        };
        self.leaves.push(Leaf { path, value });
    }

    fn open_container(&mut self) {
        self.open.push(Container {
            base: self.path.len(),
            keys_from: self.keys.len(),
            next_index: 0,
        });
    }

    fn close_container(&mut self) {
        if let Some(closed) = self.open.pop() {
            self.keys.truncate(closed.keys_from);
            self.path.truncate(closed.base);
        }
    }
}

impl Sink for Flattener {
    fn begin_object(&mut self) {
        if !self.validating_only() {
            self.open_container();
        }
    }

    fn key(&mut self, key: &str) {
        if self.validating_only() {
            return;
        }
        let object = self.open.last().expect("a key comes inside an object");
        let (base, keys_from) = (object.base, object.keys_from);
        let hash = hash_str(key);
        if self.keys[keys_from..].contains(&hash) {
            self.repeated_key = true;
            return;
        }
        self.keys.push(hash);
        self.enter_member(base, key);
    }

    fn end_object(&mut self) {
        if !self.validating_only() {
            self.close_container();
        }
    }

    fn begin_array(&mut self) {
        if self.validating_only() {
            return;
        }
        self.root_not_object = self.open.is_empty();
        if !self.root_not_object {
            self.open_container();
        }
    }

    fn element(&mut self) {
        if self.validating_only() {
            return;
        }
        let array = self
            .open
            .last_mut()
            .expect("an element comes inside an array");
        let (base, index) = (array.base, array.next_index);
        array.next_index += 1;
        self.enter_element(base, index);
    }

    fn end_array(&mut self) {
        if !self.validating_only() {
            self.close_container();
        }
    }

    fn scalar(&mut self, value: ScalarRef<'_>, at: Option<usize>) {
        if self.validating_only() {
            return;
        }
        self.root_not_object = self.open.is_empty();
        if !self.root_not_object {
            self.leaf(value, at);
        }
    }
}

/// Rebuild a nested [`Value`] from flat `(path, scalar)` pairs.
///
/// Paths follow the grammar produced by [`flatten`]. Array indices are placed
/// at their numeric position; gaps become `null`.
pub fn unflatten<'a, I>(pairs: I) -> Value
where
    I: IntoIterator<Item = (&'a str, &'a Scalar)>,
{
    let mut root = Value::object();
    for (path, scalar) in pairs {
        insert_path(&mut root, path, scalar.to_value());
    }
    root
}

fn insert_path(node: &mut Value, path: &str, leaf: Value) {
    // Split off the first segment: `name`, `name[3]`, or `name[3][0]`...
    let (head, rest) = match path.find('.') {
        // A '.' inside brackets cannot occur (indices are numeric).
        Some(dot) => (&path[..dot], Some(&path[dot + 1..])),
        None => (path, None),
    };
    // Peel array indices off the head.
    if let Some(bracket) = head.find('[') {
        let name = &head[..bracket];
        let mut indices = Vec::new();
        let mut rest_idx = &head[bracket..];
        while let Some(open) = rest_idx.find('[') {
            let close = rest_idx.find(']').unwrap_or(rest_idx.len());
            if let Ok(i) = rest_idx[open + 1..close].parse::<usize>() {
                indices.push(i);
            }
            rest_idx = &rest_idx[(close + 1).min(rest_idx.len())..];
        }
        let obj = ensure_object(node);
        let slot = obj_slot(obj, name, Value::Array(Vec::new()));
        let mut cur = slot;
        for (depth, &i) in indices.iter().enumerate() {
            let arr = ensure_array(cur);
            while arr.len() <= i {
                arr.push(Value::Null);
            }
            let last = depth + 1 == indices.len();
            if last && rest.is_none() {
                arr[i] = leaf;
                return;
            }
            if last {
                if !arr[i].is_object() {
                    arr[i] = Value::object();
                }
            } else if !matches!(arr[i], Value::Array(_)) {
                arr[i] = Value::Array(Vec::new());
            }
            cur = &mut arr[i];
        }
        if let Some(rest) = rest {
            insert_path(cur, rest, leaf);
        }
        return;
    }
    match rest {
        None => {
            let obj = ensure_object(node);
            *obj_slot(obj, head, Value::Null) = leaf;
        }
        Some(rest) => {
            let obj = ensure_object(node);
            let slot = obj_slot(obj, head, Value::object());
            if !slot.is_object() && !matches!(slot, Value::Array(_)) {
                *slot = Value::object();
            }
            insert_path(slot, rest, leaf);
        }
    }
}

fn ensure_object(v: &mut Value) -> &mut Vec<(String, Value)> {
    if !v.is_object() {
        *v = Value::object();
    }
    match v {
        Value::Object(fields) => fields,
        _ => unreachable!(),
    }
}

fn ensure_array(v: &mut Value) -> &mut Vec<Value> {
    if !matches!(v, Value::Array(_)) {
        *v = Value::Array(Vec::new());
    }
    match v {
        Value::Array(items) => items,
        _ => unreachable!(),
    }
}

fn obj_slot<'a>(fields: &'a mut Vec<(String, Value)>, key: &str, default: Value) -> &'a mut Value {
    if let Some(pos) = fields.iter().position(|(k, _)| k == key) {
        &mut fields[pos].1
    } else {
        fields.push((key.to_owned(), default));
        &mut fields.last_mut().unwrap().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn flat(src: &str) -> Vec<(String, String)> {
        let v = parse(src).unwrap();
        let mut pairs = flatten_value(&v).unwrap();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.into_iter().map(|(p, s)| (p, s.render())).collect()
    }

    #[test]
    fn flat_document_unchanged() {
        let pairs = flat(r#"{"User":"A","MsgId":2}"#);
        assert_eq!(
            pairs,
            vec![
                ("MsgId".to_owned(), "2".to_owned()),
                ("User".to_owned(), "A".to_owned())
            ]
        );
    }

    #[test]
    fn nested_object_uses_dots() {
        let pairs = flat(r#"{"nested_obj":{"str":"x","num":4}}"#);
        assert_eq!(
            pairs,
            vec![
                ("nested_obj.num".to_owned(), "4".to_owned()),
                ("nested_obj.str".to_owned(), "x".to_owned())
            ]
        );
    }

    #[test]
    fn arrays_use_indices() {
        let pairs = flat(r#"{"nested_arr":["a","b"]}"#);
        assert_eq!(
            pairs,
            vec![
                ("nested_arr[0]".to_owned(), "a".to_owned()),
                ("nested_arr[1]".to_owned(), "b".to_owned())
            ]
        );
    }

    #[test]
    fn deep_mixture() {
        let pairs = flat(r#"{"a":[{"b":[1]},2]}"#);
        assert_eq!(
            pairs,
            vec![
                ("a[0].b[0]".to_owned(), "1".to_owned()),
                ("a[1]".to_owned(), "2".to_owned())
            ]
        );
    }

    #[test]
    fn empty_containers_yield_nothing() {
        assert!(flat(r#"{"a":{},"b":[]}"#).is_empty());
    }

    #[test]
    fn non_object_root_rejected() {
        assert!(flatten_value(&Value::Int(3)).is_none());
        assert!(flatten_value(&Value::Array(vec![])).is_none());
    }

    #[test]
    fn null_is_a_value() {
        let pairs = flat(r#"{"a":null}"#);
        assert_eq!(pairs, vec![("a".to_owned(), "null".to_owned())]);
    }

    #[test]
    fn unflatten_roundtrip_simple() {
        let v = parse(r#"{"x":1,"y":{"z":"s"},"w":[true,null,2.5]}"#).unwrap();
        let pairs = flatten_value(&v).unwrap();
        let rebuilt = unflatten(pairs.iter().map(|(p, s)| (p.as_str(), s)));
        assert_eq!(rebuilt, v);
    }

    #[test]
    fn unflatten_roundtrip_deep() {
        let v = parse(r#"{"a":[{"b":[1,{"c":2}]},3],"d":{"e":{"f":[null]}}}"#).unwrap();
        let pairs = flatten_value(&v).unwrap();
        let rebuilt = unflatten(pairs.iter().map(|(p, s)| (p.as_str(), s)));
        assert_eq!(rebuilt, v);
    }
}
