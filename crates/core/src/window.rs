//! Window segmentation of a document stream for the batch harness.
//!
//! The paper uses time-based tumbling windows ("the daily produced amount as
//! the number of documents produced every 3 minutes", §VII-B); the harness
//! maps those to document counts. [`SegmentSpec`] picks the policy:
//! [`SegmentSpec::Count`] closes after `n` documents,
//! [`SegmentSpec::ByAttribute`] closes when the integer value of a
//! designated attribute crosses a multiple of `width` (e.g. an epoch-seconds
//! field with `width = 180` gives the paper's 3-minute windows). Documents
//! lacking the attribute stay in the current window.

use ssj_json::{AttrId, Dictionary, Document, Scalar};

/// Stream segmentation policy for the batch harness (CLI `--window-by`).
#[derive(Debug, Clone)]
pub enum SegmentSpec {
    /// Close after this many documents.
    Count(usize),
    /// Close when `attr`'s integer value enters the next `width`-sized
    /// bucket.
    ByAttribute {
        /// Attribute holding the event time (or any monotone integer).
        attr: String,
        /// Bucket width in the attribute's unit.
        width: i64,
    },
}

/// Iterator adapter producing whole windows from a document stream.
pub struct Windower<I> {
    stream: std::iter::Fuse<I>,
    spec: Spec,
    dict: Dictionary,
    buf: Vec<Document>,
}

enum Spec {
    Count(usize),
    ByAttribute {
        attr: AttrId,
        width: i64,
        current: Option<i64>,
    },
}

impl<I: Iterator<Item = Document>> Windower<I> {
    /// Segment `stream` per `spec`, interning the attribute through `dict`.
    ///
    /// # Panics
    /// When the count or width is zero.
    pub fn segmented(stream: I, spec: SegmentSpec, dict: &Dictionary) -> Self {
        let spec = match spec {
            SegmentSpec::Count(n) => {
                assert!(n > 0, "window size must be positive");
                Spec::Count(n)
            }
            SegmentSpec::ByAttribute { attr, width } => {
                assert!(width > 0, "window width must be positive");
                Spec::ByAttribute {
                    attr: dict.intern_attr(&attr),
                    width,
                    current: None,
                }
            }
        };
        Windower {
            stream: stream.fuse(),
            spec,
            dict: dict.clone(),
            buf: Vec::new(),
        }
    }
}

impl<I: Iterator<Item = Document>> Iterator for Windower<I> {
    type Item = Vec<Document>;

    fn next(&mut self) -> Option<Vec<Document>> {
        for doc in self.stream.by_ref() {
            match &mut self.spec {
                Spec::Count(n) => {
                    self.buf.push(doc);
                    if self.buf.len() == *n {
                        return Some(std::mem::take(&mut self.buf));
                    }
                }
                Spec::ByAttribute {
                    attr,
                    width,
                    current,
                } => {
                    let bucket = doc.pair_for_attr(*attr).and_then(|pair| {
                        match self.dict.avp_scalar(pair.avp) {
                            Scalar::Int(v) => Some(v.div_euclid(*width)),
                            _ => None,
                        }
                    });
                    match (bucket, *current) {
                        (Some(b), Some(c)) if b != c => {
                            // Boundary crossed: close the window, start the
                            // next with this document.
                            *current = Some(b);
                            let closed = std::mem::replace(&mut self.buf, vec![doc]);
                            if !closed.is_empty() {
                                return Some(closed);
                            }
                        }
                        (Some(b), _) => {
                            *current = Some(b);
                            self.buf.push(doc);
                        }
                        // No usable event time: current window.
                        (None, _) => self.buf.push(doc),
                    }
                }
            }
        }
        // End of stream: a partial window still closes, once.
        (!self.buf.is_empty()).then(|| std::mem::take(&mut self.buf))
    }
}

/// Segment an entire stream eagerly (convenience for tests/harness).
pub fn windows(
    stream: impl IntoIterator<Item = Document>,
    spec: SegmentSpec,
    dict: &Dictionary,
) -> Vec<Vec<Document>> {
    Windower::segmented(stream.into_iter(), spec, dict).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_json::DocId;

    fn doc(dict: &Dictionary, id: u64, ts: Option<i64>) -> Document {
        let json = match ts {
            Some(t) => format!(r#"{{"ts":{t},"v":{id}}}"#),
            None => format!(r#"{{"v":{id}}}"#),
        };
        Document::from_json(DocId(id), &json, dict).unwrap()
    }

    #[test]
    fn count_windows_chunk_evenly() {
        let dict = Dictionary::new();
        let docs: Vec<Document> = (0..25).map(|i| doc(&dict, i, None)).collect();
        let ws = windows(docs, SegmentSpec::Count(10), &dict);
        let sizes: Vec<usize> = ws.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![10, 10, 5]);
    }

    #[test]
    fn attribute_windows_split_on_bucket_boundaries() {
        let dict = Dictionary::new();
        // ts 0,50,170 | 185,200 | 400 with width 180.
        let ts = [0i64, 50, 170, 185, 200, 400];
        let docs: Vec<Document> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| doc(&dict, i as u64, Some(t)))
            .collect();
        let ws = windows(
            docs,
            SegmentSpec::ByAttribute {
                attr: "ts".into(),
                width: 180,
            },
            &dict,
        );
        let sizes: Vec<usize> = ws.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 2, 1]);
    }

    #[test]
    fn documents_without_event_time_stay_in_current_window() {
        let dict = Dictionary::new();
        let docs = vec![
            doc(&dict, 0, Some(0)),
            doc(&dict, 1, None),
            doc(&dict, 2, Some(10)),
            doc(&dict, 3, Some(200)),
        ];
        let ws = windows(
            docs,
            SegmentSpec::ByAttribute {
                attr: "ts".into(),
                width: 100,
            },
            &dict,
        );
        let sizes: Vec<usize> = ws.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 1]);
    }

    #[test]
    fn negative_event_times_bucket_correctly() {
        let dict = Dictionary::new();
        // div_euclid: -50 → bucket -1, 50 → bucket 0.
        let docs = vec![doc(&dict, 0, Some(-50)), doc(&dict, 1, Some(50))];
        let ws = windows(
            docs,
            SegmentSpec::ByAttribute {
                attr: "ts".into(),
                width: 100,
            },
            &dict,
        );
        assert_eq!(ws.len(), 2);
    }

    #[test]
    fn empty_stream_yields_no_windows() {
        let dict = Dictionary::new();
        let ws = windows(Vec::new(), SegmentSpec::Count(5), &dict);
        assert!(ws.is_empty());
    }
}
