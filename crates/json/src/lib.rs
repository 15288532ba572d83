//! # ssj-json — schema-free JSON document model
//!
//! The foundation of the schema-free stream-join system: a from-scratch JSON
//! parser and serializer, nested-value flattening to attribute-value pairs,
//! global interning of attributes and pairs to dense ids, the immutable
//! [`Document`] type with the paper's O(n+m) natural-join compatibility test,
//! and [`DocumentReader`], which takes JSON Lines bytes to documents in one
//! pass on every core.
//!
//! ```
//! use ssj_json::{Dictionary, DocId, Document};
//!
//! let dict = Dictionary::new();
//! let d1 = Document::from_json(DocId(1), r#"{"User":"A","Severity":"Warning"}"#, &dict).unwrap();
//! let d2 = Document::from_json(DocId(2), r#"{"User":"A","MsgId":2}"#, &dict).unwrap();
//! assert!(d1.joins_with(&d2)); // share User:A, no conflicting attribute
//! let joined = d1.merge(&d2, DocId(3));
//! assert_eq!(joined.len(), 3);
//! ```

#![warn(missing_docs)]

pub mod document;
pub mod flatten;
pub mod hash;
pub mod intern;
pub mod io;
pub mod parser;
pub mod scalar;
mod value;

pub use document::{DocError, DocId, DocRef, Document, JoinCheck};
pub use flatten::{flatten, flatten_value, unflatten};
pub use hash::{FxHashMap, FxHashSet};
pub use intern::{AttrId, AvpId, ContentHashes, Dictionary, Pair};
pub use io::{
    documents_from_jsonl, write_documents_jsonl, write_jsonl, DocumentReader, JsonLinesError,
    JsonLinesReader,
};
pub use parser::{parse, parse_stream, ParseError};
pub use scalar::{Scalar, ScalarRef};
pub use value::Value;
