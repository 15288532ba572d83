//! Round-trip property tests for the §4f binary wire codec: random
//! documents and frames of every payload kind survive encode → decode
//! bit-exactly, a symbol's text crosses a link once, a link id the link
//! never defined is rejected, and truncated, byte-flipped or arbitrary
//! frames are errors, never panics.

use proptest::prelude::*;
use ssj_core::{Msg, MsgCodec, PaneRouting, TableMsg};
use ssj_json::{Dictionary, DocId, Document, Scalar};
use ssj_partition::{AssociationGroup, Expansion, PartitionTable};
use ssj_runtime::wire::{decode_frame, encode_frame, Cursor, Frame, Payload, WireError};
use ssj_runtime::WireCodec;
use std::sync::Arc;

/// Deterministically seed a dictionary: two calls with the same `n` yield
/// identical content, hence identical ids.
fn seeded_dict(n: usize) -> Dictionary {
    let dict = Dictionary::new();
    for i in 0..n as i64 {
        dict.intern(&format!("attr{}", i % 7), Scalar::Int(i % 11));
        dict.intern(
            &format!("attr{}", i % 7),
            Scalar::Str(format!("v{}", i % 5)),
        );
    }
    dict.intern("f", Scalar::Float(1.5));
    dict.intern("b", Scalar::Bool(true));
    dict.intern("z", Scalar::Null);
    dict
}

/// A random document over the seeded universe, with `fresh` controlling how
/// many pairs are interned after the codec was made.
fn doc_from(dict: &Dictionary, id: u64, picks: &[(u8, i64)], fresh: &[(u8, i64)]) -> Document {
    let mut pairs = Vec::new();
    for &(a, v) in picks {
        pairs.push(dict.intern(&format!("attr{}", a % 7), Scalar::Int(v % 11)));
    }
    for &(a, v) in fresh {
        pairs.push(dict.intern(&format!("late{a}"), Scalar::Int(v)));
    }
    Document::from_pairs(DocId(id), pairs)
}

fn assert_same_doc(a: &Document, b: &Document, dict: &Dictionary) {
    assert_eq!(a.id(), b.id());
    assert_eq!(a.len(), b.len());
    for (pa, pb) in a.pairs().iter().zip(b.pairs()) {
        assert_eq!(dict.render_avp(pa.avp), dict.render_avp(pb.avp));
    }
}

/// Encode `frame` and decode it through the same codec, whose writer and
/// reader tables stand for the two ends of one link.
fn roundtrip(codec: &MsgCodec, frame: &Frame<Msg>) -> Frame<Msg> {
    // Strip the u32 length prefix: decode_frame takes the frame body.
    decode_frame(&encode(codec, frame)[4..], codec).expect("roundtrip decode")
}

fn encode(codec: &MsgCodec, frame: &Frame<Msg>) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(frame, codec, &mut buf);
    buf
}

fn data(msg: Msg) -> Frame<Msg> {
    Frame {
        target: 5,
        from: 2,
        feedback: false,
        payload: Payload::Data(msg),
    }
}

/// Joiners of the run the fuzzed codec belongs to.
const M: usize = 4;

/// Routing counts with every field set.
const ROUTING: PaneRouting = PaneRouting {
    docs: 300,
    copies: 700,
    homed: 100,
    rebuilt: true,
};

/// One Data frame body (length prefix stripped) per `Msg` tag — Doc,
/// LocalGroups, Table, Repartition with and without a chain,
/// JoinStats, Routing, Copy — each the first frame of a fresh link of `M`
/// joiners, so every symbol in it is a definition or refers to one made
/// earlier in the same body.
fn every_tag_body(dict: &Dictionary) -> Vec<Vec<u8>> {
    let known = dict.intern("attr0", Scalar::Int(0));
    let late = dict.intern("late", Scalar::Str("x".into()));
    let float = dict.intern("late_f", Scalar::Float(-2.5));
    let mut table = PartitionTable::empty(M);
    table.add_avp(0, known.avp);
    table.add_avp(3, late.avp);
    table.bump_load(3, 9);
    let msgs = [
        Msg::Doc(Arc::new(Document::from_pairs(
            DocId(7),
            vec![known, late, float],
        ))),
        Msg::LocalGroups {
            window: 3,
            creator: 1,
            groups: vec![AssociationGroup {
                avps: vec![known.avp, late.avp],
                load: 5,
            }],
        },
        Msg::Table(Arc::new(TableMsg {
            window: 2,
            table,
            expansion: None,
        })),
        Msg::Repartition(None),
        Msg::Repartition(Some(Arc::new(Expansion {
            chain: vec![known.attr, late.attr],
            synth_attr: float.attr,
            pna: 0.25,
        }))),
        Msg::JoinStats {
            window: 4,
            joiner: M - 1,
            docs: 2,
            pairs: vec![(DocId(1), DocId(2))],
        },
        Msg::Routing {
            window: 4,
            routing: ROUTING,
        },
        Msg::Copy {
            doc: Arc::new(Document::from_pairs(DocId(8), vec![late, known])),
            targets: 0b1010,
        },
    ];
    msgs.into_iter()
        .map(|msg| encode(&MsgCodec::new(dict).with_m(M), &data(msg)).split_off(4))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Data frames with random documents — the first use of each pair on
    /// the link defines it, the copy's repeat refers to it bare — round-trip
    /// to semantically identical documents, bare and as a routed copy with
    /// its target mask.
    #[test]
    fn document_data_frames_roundtrip(
        id in 0u64..1 << 40,
        picks in proptest::collection::vec((0u8..7, 0i64..11), 1..6),
        fresh in proptest::collection::vec((0u8..20, -50i64..50), 0..4),
        targets in 1u64..=u64::MAX,
    ) {
        let dict = seeded_dict(40);
        let codec = MsgCodec::new(&dict);
        let doc = doc_from(&dict, id, &picks, &fresh);
        let frame = Frame {
            target: 3,
            from: 1,
            feedback: false,
            payload: Payload::Data(Msg::Doc(Arc::new(doc.clone()))),
        };
        let back = roundtrip(&codec, &frame);
        prop_assert_eq!(back.target, 3);
        prop_assert_eq!(back.from, 1);
        let Payload::Data(Msg::Doc(d)) = back.payload else {
            panic!("wrong payload kind");
        };
        assert_same_doc(&doc, &d, &dict);

        let copy = Frame {
            payload: Payload::Data(Msg::Copy { doc: Arc::new(doc.clone()), targets }),
            ..frame
        };
        let Payload::Data(Msg::Copy { doc: d, targets: back }) = roundtrip(&codec, &copy).payload
        else {
            panic!("wrong payload kind");
        };
        prop_assert_eq!(back, targets);
        assert_same_doc(&doc, &d, &dict);
    }

    /// Batch frames of mixed messages round-trip with order and count
    /// preserved (PR 2 batch boundaries survive the wire).
    #[test]
    fn batch_frames_roundtrip(
        ids in proptest::collection::vec(0u64..1000, 1..8),
        window in 0u64..100,
    ) {
        let dict = seeded_dict(30);
        let codec = MsgCodec::new(&dict);
        let msgs: Vec<Msg> = ids
            .iter()
            .map(|&i| Msg::Doc(Arc::new(doc_from(&dict, i, &[(i as u8 % 7, i as i64)], &[]))))
            .chain([Msg::JoinStats {
                window,
                joiner: 2,
                docs: ids.len(),
                pairs: ids.iter().map(|&i| (DocId(i), DocId(i + 1))).collect(),
            }])
            .collect();
        let frame = Frame {
            target: 9,
            from: 4,
            feedback: true,
            payload: Payload::Batch(msgs.clone()),
        };
        let back = roundtrip(&codec, &frame);
        prop_assert!(back.feedback);
        let Payload::Batch(out) = back.payload else {
            panic!("wrong payload kind");
        };
        prop_assert_eq!(out.len(), msgs.len());
        let Msg::JoinStats { window: w, joiner, docs, pairs } = &out[out.len() - 1] else {
            panic!("tail message kind changed");
        };
        prop_assert_eq!(*w, window);
        prop_assert_eq!(*joiner, 2);
        prop_assert_eq!(*docs, ids.len());
        prop_assert_eq!(pairs.len(), ids.len());
    }

    /// Punctuation and EOS frames (no codec payload) round-trip exactly.
    #[test]
    fn control_frames_roundtrip(p in 0u64..1 << 50, target in 0usize..64, from in 0usize..64) {
        let dict = seeded_dict(5);
        let codec = MsgCodec::new(&dict);
        for payload in [Payload::<Msg>::Punct(p), Payload::Eos] {
            let frame = Frame { target, from, feedback: false, payload };
            let back = roundtrip(&codec, &frame);
            prop_assert_eq!(back.target, target);
            prop_assert_eq!(back.from, from);
            match (&frame.payload, &back.payload) {
                (Payload::Punct(a), Payload::Punct(b)) => prop_assert_eq!(a, b),
                (Payload::Eos, Payload::Eos) => {}
                other => panic!("payload kind changed: {other:?}"),
            }
        }
    }

    /// Every proper prefix of an encoded frame body fails to decode with an
    /// error — never a panic, never a silent partial message.
    #[test]
    fn truncated_frames_are_rejected(
        id in 0u64..1000,
        picks in proptest::collection::vec((0u8..7, 0i64..11), 1..5),
    ) {
        let dict = seeded_dict(30);
        let codec = MsgCodec::new(&dict);
        let doc = doc_from(&dict, id, &picks, &[]);
        let frame = Frame {
            target: 0,
            from: 0,
            feedback: false,
            payload: Payload::Data(Msg::Doc(Arc::new(doc))),
        };
        let buf = encode(&codec, &frame);
        let body = &buf[4..];
        for cut in 0..body.len() {
            prop_assert!(
                decode_frame(&body[..cut], &MsgCodec::new(&dict)).is_err(),
                "prefix of {cut}/{} bytes decoded successfully",
                body.len()
            );
        }
    }
}

/// Any byte, with the ones that make long varints (huge counts and ids) and
/// zero lengths as likely as the rest together.
fn wire_byte() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), Just(0xff), Just(0x80), Just(0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever a peer sends, `decode_frame` returns a frame or a
    /// `WireError`, never a panic. Inputs: arbitrary bodies, bare and behind
    /// a valid Data header (so they reach the message codec) or behind a
    /// Doc whose one pair is a definition (so they reach its text),
    /// truncated, byte-flipped or junk-tailed encodings of every `Msg` tag
    /// (`Repartition` with and without a chain), and a `Table` 65 partitions
    /// wide. Each decode is the first
    /// frame of a fresh link.
    #[test]
    fn decode_never_panics(
        junk in proptest::collection::vec(wire_byte(), 0..96),
        tag in 0usize..8,
        cut in 0usize..1 << 16,
        flips in proptest::collection::vec((0usize..1 << 16, 1u8..=255), 1..4),
    ) {
        let dict = seeded_dict(30);
        let decode = |body: &[u8]| decode_frame::<Msg>(body, &MsgCodec::new(&dict).with_m(M));
        let _ = decode(&junk);
        let header = [1, 5, 2, 0]; // Data, target, from, flags
        let _ = decode(&[&header[..], &junk].concat());
        // Doc tag, id 1, one pair, the definition marker.
        let _ = decode(&[&header[..], &[0, 1, 1, 1], &junk].concat());

        let body = every_tag_body(&dict).swap_remove(tag);
        prop_assert!(decode(&body).is_ok(), "tag {tag} must decode intact");
        let prefix = &body[..cut % body.len()];
        let _ = decode(prefix);
        let _ = decode(&[prefix, &junk[..]].concat());
        let mut flipped = body.clone();
        for &(at, mask) in &flips {
            let i = at % flipped.len();
            flipped[i] ^= mask;
        }
        let _ = decode(&flipped);

        // A Table one wider than any run allows (Table tag, window 2, 65
        // partitions): a named error even for the default codec, and any
        // cut of it never panics.
        let default = MsgCodec::new(&dict);
        let wide = [&header[..], &[2, 2, 65], &junk].concat();
        let rejected = matches!(
            decode_frame::<Msg>(&wide, &default),
            Err(WireError::OutOfRange { value: 65, max: 64, .. })
        );
        prop_assert!(rejected, "a 65-partition table must be out of range");
        let _ = decode_frame::<Msg>(&wide[..cut % wide.len()], &default);

        // A LocalGroups whose count promises more groups than the frame
        // holds (up to 2^63): Truncated, without sizing anything by it.
        let mut lying = [&header[..], &[1, 3, 0]].concat(); // tag, window, creator
        ssj_runtime::wire::put_varint(&mut lying, (cut as u64 + 1) << 47);
        lying.extend_from_slice(&junk);
        prop_assert!(decode(&lying).is_err(), "a lying count must fail");
    }
}

/// The run's codec rejects the peer-supplied values its tasks index by: a
/// `JoinStats` from a joiner `>= m` (the Reporter's per-joiner slot), a
/// `Table` wider than `m` (the Assigner's per-machine counts) and a `Copy`
/// whose target mask is empty or names a joiner `>= m` (the owner rule reads
/// it). The default codec of `MsgCodec::new`, bounded only by the
/// 64-partition cap, accepts the first two and any non-empty mask. A
/// `Routing` names no task, so the run's codec takes any window's.
#[test]
fn run_codec_rejects_out_of_range_indices() {
    let dict = seeded_dict(10);
    let bounded = MsgCodec::new(&dict).with_m(M);
    let default = MsgCodec::new(&dict);
    let stats = |joiner| Msg::JoinStats {
        window: 0,
        joiner,
        docs: 1,
        pairs: Vec::new(),
    };
    let wide = Msg::Table(Arc::new(TableMsg {
        window: 0,
        table: PartitionTable::empty(M + 1),
        expansion: None,
    }));
    let decode = |codec: &MsgCodec, msg: &Msg| {
        let mut buf = Vec::new();
        codec.encode(msg, &mut buf);
        codec.decode(&mut Cursor::new(&buf))
    };
    assert!(decode(&bounded, &stats(M - 1)).is_ok());
    assert_eq!(
        decode(&bounded, &stats(M)).unwrap_err(),
        WireError::OutOfRange {
            field: "joiner",
            value: M as u64,
            max: M as u64 - 1,
        }
    );
    assert_eq!(
        decode(&bounded, &wide).unwrap_err(),
        WireError::OutOfRange {
            field: "table partitions",
            value: M as u64 + 1,
            max: M as u64,
        }
    );
    let counts = Msg::Routing {
        window: u64::MAX,
        routing: ROUTING,
    };
    assert!(decode(&bounded, &counts).is_ok());
    assert!(decode(&default, &stats(M)).is_ok());
    assert!(decode(&default, &wide).is_ok());

    let copy = |targets| Msg::Copy {
        doc: Arc::new(Document::from_pairs(DocId(1), Vec::new())),
        targets,
    };
    let all = (1u64 << M) - 1;
    assert!(decode(&bounded, &copy(all)).is_ok());
    for targets in [0, 1 << M, u64::MAX] {
        assert_eq!(
            decode(&bounded, &copy(targets)).unwrap_err(),
            WireError::OutOfRange {
                field: "copy targets",
                value: targets,
                max: all,
            }
        );
    }
    assert!(decode(&default, &copy(u64::MAX)).is_ok());
    assert!(decode(&default, &copy(0)).is_err());
}

/// A bare link id the link never defined — for a pair or for an attribute
/// — is `BadSymbol`, not a panic and not some other symbol; one it defined
/// resolves.
#[test]
fn an_undefined_link_id_is_a_bad_symbol() {
    let dict = seeded_dict(10);
    let doc = |pair: &[u64]| {
        let mut body = vec![0, 1, pair.len() as u8]; // Doc tag, id 1, pairs
        for &v in pair {
            ssj_runtime::wire::put_varint(&mut body, v);
        }
        body
    };
    let codec = MsgCodec::new(&dict);
    let decode = |body: &[u8]| codec.decode(&mut Cursor::new(body));
    assert_eq!(decode(&doc(&[0])).unwrap_err(), WireError::BadSymbol(0));
    // Define pair 0 (attribute 0 "attr0", Int 7), then refer to it bare.
    let mut defined = vec![0, 1, 1, 1, 1, 5];
    defined.extend_from_slice(b"attr0");
    defined.extend_from_slice(&[2, 14]); // SCALAR_INT, zigzag(7)
    let Msg::Doc(d) = decode(&defined).unwrap() else {
        panic!("kind changed");
    };
    assert_eq!(dict.render_avp(d.pairs()[0].avp), "attr0:7");
    let Msg::Doc(again) = decode(&doc(&[0 << 1])).unwrap() else {
        panic!("kind changed");
    };
    assert_eq!(again.pairs(), d.pairs());
    assert_eq!(
        decode(&doc(&[1 << 1])).unwrap_err(),
        WireError::BadSymbol(1)
    );
    // A pair definition naming attribute link id 1, which is undefined.
    assert_eq!(
        decode(&[0, 1, 1, 1, 1 << 1, 2, 0]).unwrap_err(),
        WireError::BadSymbol(1)
    );
}

/// The control-plane messages (LocalGroups, Table, Repartition, Routing)
/// round-trip with loads, members, and chains intact.
#[test]
fn control_plane_messages_roundtrip() {
    let dict = seeded_dict(40);
    let codec = MsgCodec::new(&dict);
    let p0 = dict.intern("attr0", Scalar::Int(0));
    let p1 = dict.intern("attr1", Scalar::Int(1));
    let p2 = dict.intern("attr2", Scalar::Int(2));

    let groups = vec![
        AssociationGroup {
            avps: vec![p0.avp, p1.avp],
            load: 17,
        },
        AssociationGroup {
            avps: vec![p2.avp],
            load: 3,
        },
    ];
    let msg = Msg::LocalGroups {
        window: 7,
        creator: 1,
        groups: groups.clone(),
    };
    let mut buf = Vec::new();
    codec.encode(&msg, &mut buf);
    let mut c = Cursor::new(&buf);
    let Msg::LocalGroups {
        window,
        creator,
        groups: g2,
    } = codec.decode(&mut c).unwrap()
    else {
        panic!("kind changed");
    };
    c.finish().unwrap();
    assert_eq!((window, creator), (7, 1));
    assert_eq!(g2.len(), 2);
    assert_eq!(g2[0].avps, groups[0].avps);
    assert_eq!(g2[0].load, 17);
    assert_eq!(g2[1].avps, groups[1].avps);

    let mut table = PartitionTable::empty(3);
    table.add_avp(0, p0.avp);
    table.add_avp(0, p1.avp);
    table.add_avp(2, p2.avp);
    table.bump_load(0, 12);
    table.bump_load(2, 4);
    let msg = Msg::Table(Arc::new(TableMsg {
        window: 9,
        table: table.clone(),
        expansion: None,
    }));
    let mut buf = Vec::new();
    codec.encode(&msg, &mut buf);
    let mut c = Cursor::new(&buf);
    let Msg::Table(t2) = codec.decode(&mut c).unwrap() else {
        panic!("kind changed");
    };
    c.finish().unwrap();
    assert_eq!(t2.window, 9);
    assert_eq!(t2.table, table);

    // A build's chain, or none; a chained attribute the link has not
    // defined yet travels as its name.
    let synth = dict.intern_attr("attr0+attr9");
    let chain = Expansion {
        chain: vec![p0.attr, dict.intern_attr("attr9")],
        synth_attr: synth,
        pna: 0.125,
    };
    for expansion in [None, Some(Arc::new(chain))] {
        let mut buf = Vec::new();
        codec.encode(&Msg::Repartition(expansion.clone()), &mut buf);
        let mut c = Cursor::new(&buf);
        let Msg::Repartition(back) = codec.decode(&mut c).unwrap() else {
            panic!("kind changed");
        };
        c.finish().unwrap();
        let fields = |e: &Expansion| (e.chain.clone(), e.synth_attr, e.pna);
        assert_eq!(
            back.as_deref().map(fields),
            expansion.as_deref().map(fields)
        );
    }

    // A pane close carries its counts and, from the Merger, its build in
    // a flag byte. No θ signal crosses a link: the Reporter judges θ.
    for rebuilt in [false, true] {
        let mut buf = Vec::new();
        let routing = PaneRouting { rebuilt, ..ROUTING };
        codec.encode(
            &Msg::Routing {
                window: 11,
                routing,
            },
            &mut buf,
        );
        let mut c = Cursor::new(&buf);
        let back = codec.decode(&mut c).unwrap();
        let Msg::Routing {
            window: 11,
            routing: back,
        } = back
        else {
            panic!("kind changed");
        };
        assert_eq!(back, routing);
        c.finish().unwrap();
        // The flag byte is last; the bit that once carried a signal is not
        // a flag.
        *buf.last_mut().unwrap() = 2;
        assert!(codec.decode(&mut Cursor::new(&buf)).is_err());
    }
}

/// A symbol's text crosses a link once: the second frame carrying the
/// same document is shorter by exactly the text its first use defined —
/// per pair the marker, the attribute's marker, length and name, and the
/// scalar's tag, length and bytes, less the one-byte bare id — and carries
/// none of the names. Its pairs resolve to the same local pairs.
#[test]
fn a_symbols_text_crosses_a_link_once() {
    let dict = Dictionary::new();
    let names = [("user", "u17"), ("severity", "warning"), ("host", "db-3")];
    let pairs: Vec<_> = names
        .iter()
        .map(|&(a, v)| dict.intern(a, Scalar::Str(v.into())))
        .collect();
    let doc = Msg::Doc(Arc::new(Document::from_pairs(DocId(42), pairs)));
    let codec = MsgCodec::new(&dict);
    let first = encode(&codec, &data(doc.clone()));
    let second = encode(&codec, &data(doc));
    let text: usize = names
        .iter()
        .map(|(a, v)| 1 + 2 + a.len() + 2 + v.len() - 1)
        .sum();
    assert_eq!(first.len() - second.len(), text);
    for (name, value) in names {
        let has = |buf: &[u8], s: &str| buf.windows(s.len()).any(|w| w == s.as_bytes());
        assert!(
            has(&first, name) && has(&first, value),
            "{name} not defined"
        );
        assert!(
            !has(&second, name) && !has(&second, value),
            "{name} sent twice"
        );
    }
    let decoded: Vec<_> = [first, second]
        .iter()
        .map(
            |buf| match decode_frame(&buf[4..], &codec).unwrap().payload {
                Payload::Data(Msg::Doc(d)) => d.pairs().to_vec(),
                other => panic!("kind changed: {other:?}"),
            },
        )
        .collect();
    assert_eq!(decoded[0], decoded[1]);
}

/// A 30 000-symbol stream from one process's dictionary reaches an empty
/// one through a fresh pair of tables: every pair resolves to the same
/// attribute and value, ids run past the varint's one- and two-byte
/// ranges, and the stream sent again decodes to the same local pairs.
#[test]
fn a_30k_symbol_stream_round_trips_into_an_empty_dictionary() {
    let (leader, member) = (Dictionary::new(), Dictionary::new());
    let docs: Vec<Document> = (0..10_000u64)
        .map(|i| {
            let pairs = [
                leader.intern(&format!("a{}", i % 97), Scalar::Int(i as i64)),
                leader.intern(&format!("b{}", i % 89), Scalar::Str(format!("v{i}"))),
                leader.intern("f", Scalar::Float(i as f64 / 4.0)),
            ];
            Document::from_pairs(DocId(i), pairs.to_vec())
        })
        .collect();
    assert!(leader.avp_count() >= 30_000);
    let (writer, reader) = (MsgCodec::new(&leader), MsgCodec::new(&member));
    let mut first = Vec::new();
    for round in 0..2 {
        for batch in docs.chunks(64) {
            let msgs = batch
                .iter()
                .map(|d| Msg::Doc(Arc::new(d.clone())))
                .collect();
            let frame = Frame {
                target: 1,
                from: 0,
                feedback: false,
                payload: Payload::Batch(msgs),
            };
            let Payload::Batch(got) = decode_frame(&encode(&writer, &frame)[4..], &reader)
                .unwrap()
                .payload
            else {
                panic!("kind changed");
            };
            for (sent, got) in batch.iter().zip(got) {
                let Msg::Doc(got) = got else {
                    panic!("kind changed");
                };
                let render = |dict: &Dictionary, d: &Document| -> Vec<String> {
                    let mut r: Vec<_> = d.avps().map(|a| dict.render_avp(a)).collect();
                    r.sort();
                    r
                };
                assert_eq!(render(&leader, sent), render(&member, &got));
                if round == 0 {
                    first.push(got);
                } else {
                    assert_eq!(got.pairs(), first[sent.id().0 as usize].pairs());
                }
            }
        }
    }
    assert_eq!(member.avp_count(), leader.avp_count());
    assert_eq!(member.attr_count(), leader.attr_count());
}
