//! Window segmentation of a document stream for `ssj pipeline`.
//!
//! The paper uses time-based tumbling windows ("the daily produced amount as
//! the number of documents produced every 3 minutes", §VII-B); the
//! reproduction maps those to document counts. [`SegmentSpec`] picks the
//! policy: [`SegmentSpec::Count`] closes after `n` documents,
//! [`SegmentSpec::ByAttribute`] closes when the integer value of a
//! designated attribute crosses a multiple of `width` (e.g. an epoch-seconds
//! field with `width = 180` gives the paper's 3-minute windows). Documents
//! lacking the attribute stay in the current window.

use ssj_json::{Dictionary, Document, Scalar};

/// Stream segmentation policy (CLI `--window-by`).
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

/// Segment a stream into whole windows per `spec`, interning the event-time
/// attribute through `dict`. A partial last window still closes, once.
///
/// # Panics
/// When the count or width is zero.
pub fn windows(
    stream: impl IntoIterator<Item = Document>,
    spec: SegmentSpec,
    dict: &Dictionary,
) -> Vec<Vec<Document>> {
    let (mut out, mut buf) = (Vec::new(), Vec::new());
    match spec {
        SegmentSpec::Count(n) => {
            assert!(n > 0, "window size must be positive");
            for doc in stream {
                buf.push(doc);
                if buf.len() == n {
                    out.push(std::mem::take(&mut buf));
                }
            }
        }
        SegmentSpec::ByAttribute { attr, width } => {
            assert!(width > 0, "window width must be positive");
            let attr = dict.intern_attr(&attr);
            let mut current = None;
            for doc in stream {
                let bucket =
                    doc.pair_for_attr(attr)
                        .and_then(|pair| match dict.avp_scalar(pair.avp) {
                            Scalar::Int(v) => Some(v.div_euclid(width)),
                            _ => None,
                        });
                // A boundary crossed closes the window; a document without
                // a usable event time stays in the current one.
                if bucket.is_some() && current.is_some() && bucket != current && !buf.is_empty() {
                    out.push(std::mem::take(&mut buf));
                }
                current = bucket.or(current);
                buf.push(doc);
            }
        }
    }
    if !buf.is_empty() {
        out.push(buf);
    }
    out
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
