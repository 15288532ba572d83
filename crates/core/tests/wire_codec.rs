//! Round-trip property tests for the §4f binary wire codec: random
//! documents and frames of every payload kind survive encode → decode
//! bit-exactly, dictionary-epoch mismatches are rejected, and truncated,
//! byte-flipped or arbitrary frames are errors, never panics.

use proptest::prelude::*;
use ssj_core::{Control, Msg, MsgCodec, PaneRouting, TableMsg};
use ssj_json::{Dictionary, DocId, Document, Scalar};
use ssj_partition::{AssociationGroup, Expansion, PartitionTable};
use ssj_runtime::wire::{decode_frame, encode_frame, Cursor, Frame, Payload, WireError};
use ssj_runtime::WireCodec;
use std::sync::Arc;

/// Deterministically seed a dictionary: two calls with the same `n` yield
/// identical content, hence identical ids and epochs — the deploy-time
/// contract between group members.
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
/// many pairs are interned *after* the codec snapshot (inline symbols).
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

fn roundtrip(codec: &MsgCodec, frame: &Frame<Msg>) -> Frame<Msg> {
    let mut buf = Vec::new();
    encode_frame(frame, codec, &mut buf);
    // Strip the u32 length prefix: decode_frame takes the frame body.
    decode_frame(&buf[4..], codec).expect("roundtrip decode")
}

/// Joiners of the run the fuzzed codec belongs to.
const M: usize = 4;

/// Routing counts with every field set.
const ROUTING: PaneRouting = PaneRouting {
    docs: 300,
    copies: 700,
    broadcasts: 100,
    rebuilt: true,
    updates: 2,
};

/// One Data frame body (length prefix stripped) per `Msg` tag — Doc,
/// LocalGroups, Table, UpdateRequest, Repartition, JoinStats, Routing, Copy —
/// with snapshot symbols and post-snapshot (inline) ones mixed in.
fn every_tag_body(dict: &Dictionary, codec: &MsgCodec) -> Vec<Vec<u8>> {
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
            expansion: Some(Expansion {
                chain: vec![known.attr, late.attr],
                synth_attr: float.attr,
                pna: 0.25,
            }),
        },
        Msg::Table(Arc::new(TableMsg {
            window: 2,
            table,
            expansion: None,
        })),
        Msg::UpdateRequest(vec![late.avp, known.avp, float.avp]),
        Msg::Repartition,
        Msg::JoinStats {
            window: 4,
            joiner: M - 1,
            docs: 2,
            pairs: vec![(DocId(1), DocId(2))],
        },
        Msg::Routing {
            window: 4,
            routing: ROUTING,
            control: Some(Box::new((
                1,
                Control {
                    requests: vec![late.avp, known.avp],
                    repartition: true,
                },
            ))),
        },
        Msg::Copy {
            doc: Arc::new(Document::from_pairs(DocId(8), vec![late, known])),
            targets: 0b1010,
        },
    ];
    msgs.into_iter()
        .map(|msg| {
            let frame = Frame {
                target: 5,
                from: 2,
                feedback: false,
                payload: Payload::Data(msg),
            };
            let mut buf = Vec::new();
            encode_frame(&frame, codec, &mut buf);
            buf.split_off(4)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Data frames with random documents — including pairs interned after
    /// the snapshot, which travel inline and are re-interned — round-trip
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
        let mut buf = Vec::new();
        encode_frame(&frame, &codec, &mut buf);
        let body = &buf[4..];
        for cut in 0..body.len() {
            prop_assert!(
                decode_frame(&body[..cut], &codec).is_err(),
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
    /// a valid Data header (so they reach the message codec), truncated,
    /// byte-flipped or junk-tailed encodings of all eight `Msg` tags, and a
    /// `Table` 65 partitions wide.
    #[test]
    fn decode_never_panics(
        junk in proptest::collection::vec(wire_byte(), 0..96),
        tag in 0usize..8,
        cut in 0usize..1 << 16,
        flips in proptest::collection::vec((0usize..1 << 16, 1u8..=255), 1..4),
    ) {
        let dict = seeded_dict(30);
        let codec = MsgCodec::new(&dict).with_m(M);
        let _ = decode_frame::<Msg>(&junk, &codec);
        let mut behind_header = vec![1, 5, 2, 0]; // Data, target, from, flags
        behind_header.extend_from_slice(&codec.epoch().to_le_bytes());
        behind_header.extend_from_slice(&junk);
        let _ = decode_frame::<Msg>(&behind_header, &codec);

        let body = every_tag_body(&dict, &codec).swap_remove(tag);
        prop_assert!(decode_frame::<Msg>(&body, &codec).is_ok(), "tag {tag} must decode intact");
        let prefix = &body[..cut % body.len()];
        let _ = decode_frame::<Msg>(prefix, &codec);
        let _ = decode_frame::<Msg>(&[prefix, &junk[..]].concat(), &codec);
        let mut flipped = body.clone();
        for &(at, mask) in &flips {
            let i = at % flipped.len();
            flipped[i] ^= mask;
        }
        let _ = decode_frame::<Msg>(&flipped, &codec);

        // A Table one wider than any run allows (Table tag, window 2, 65
        // partitions): a named error even for the default codec, and any
        // cut of it never panics.
        let default = MsgCodec::new(&dict);
        let epoch = default.epoch().to_le_bytes();
        let wide = [&[1, 5, 2, 0][..], &epoch, &[2, 2, 65], &junk].concat();
        let rejected = matches!(
            decode_frame::<Msg>(&wide, &default),
            Err(WireError::OutOfRange { value: 65, max: 64, .. })
        );
        prop_assert!(rejected, "a 65-partition table must be out of range");
        let _ = decode_frame::<Msg>(&wide[..cut % wide.len()], &default);

        // An UpdateRequest whose count promises more pairs than the frame
        // holds (up to 2^63): Truncated, without sizing anything by it.
        let mut lying = vec![1, 5, 2, 0];
        lying.extend_from_slice(&codec.epoch().to_le_bytes());
        lying.push(3); // UpdateRequest tag
        ssj_runtime::wire::put_varint(&mut lying, (cut as u64 + 1) << 47);
        lying.extend_from_slice(&junk);
        prop_assert!(decode_frame::<Msg>(&lying, &codec).is_err(), "a lying count must fail");
    }
}

/// The run's codec rejects the peer-supplied values its tasks index by: a
/// `JoinStats` from a joiner `>= m` (the Reporter's per-joiner slot), a
/// `Table` wider than `m` (the Assigner's per-machine counts) and a `Copy`
/// whose target mask is empty or names a joiner `>= m` (the owner rule reads
/// it). The default codec of `MsgCodec::new`, bounded only by the
/// 64-partition cap, accepts the first two and any non-empty mask. A `Routing`'s Assigner index only orders the Assigners' requests
/// (the Reporter sorts by it), so the run's codec takes any.
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
        control: Some(Box::new((usize::MAX, Control::default()))),
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

/// Two dictionaries seeded identically produce codecs with equal epochs;
/// different content produces different epochs, and a Data frame encoded
/// under one epoch is rejected by the other codec as an epoch mismatch.
#[test]
fn epoch_mismatch_is_rejected() {
    let a = seeded_dict(40);
    let b = seeded_dict(40);
    assert_eq!(MsgCodec::new(&a).epoch(), MsgCodec::new(&b).epoch());

    let c = seeded_dict(41); // one extra interning: different universe
    let codec_a = MsgCodec::new(&a);
    let codec_c = MsgCodec::new(&c);
    assert_ne!(codec_a.epoch(), codec_c.epoch());

    let frame = Frame {
        target: 0,
        from: 0,
        feedback: false,
        payload: Payload::Data(Msg::Doc(Arc::new(doc_from(&a, 1, &[(0, 1)], &[])))),
    };
    let mut buf = Vec::new();
    encode_frame(&frame, &codec_a, &mut buf);
    match decode_frame::<Msg>(&buf[4..], &codec_c) {
        Err(WireError::EpochMismatch { expected, got }) => {
            assert_eq!(expected, codec_c.epoch());
            assert_eq!(got, codec_a.epoch());
        }
        other => panic!("expected EpochMismatch, got {other:?}"),
    }
}

/// A bare symbol id at or above the receiver's watermark is data from a
/// different (larger) snapshot — rejected as BadSymbol, not resolved to
/// garbage.
#[test]
fn out_of_watermark_symbols_are_rejected() {
    let dict = seeded_dict(10);
    let codec = MsgCodec::new(&dict);
    let mut body = Vec::new();
    body.push(0); // TAG_DOC
    ssj_runtime::wire::put_varint(&mut body, 1); // doc id
    ssj_runtime::wire::put_varint(&mut body, 1); // one pair
    let bogus = (dict.avp_count() as u64 + 5) << 1; // even: bare symbol
    ssj_runtime::wire::put_varint(&mut body, bogus);
    let mut c = Cursor::new(&body);
    match codec.decode(&mut c) {
        Err(WireError::BadSymbol(id)) => assert_eq!(id, dict.avp_count() as u64 + 5),
        other => panic!("expected BadSymbol, got {other:?}"),
    }
}

/// The control-plane messages (LocalGroups, Table, UpdateRequest,
/// Repartition, Routing) round-trip with loads, members, and expansions intact.
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
        expansion: None,
    };
    let mut buf = Vec::new();
    codec.encode(&msg, &mut buf);
    let mut c = Cursor::new(&buf);
    let Msg::LocalGroups {
        window,
        creator,
        groups: g2,
        expansion,
    } = codec.decode(&mut c).unwrap()
    else {
        panic!("kind changed");
    };
    c.finish().unwrap();
    assert_eq!((window, creator), (7, 1));
    assert!(expansion.is_none());
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

    // A pane's δ-requests travel as one list, in sighting order, with
    // snapshot and post-snapshot pairs mixed.
    let late = dict.intern("late", Scalar::Str("y".into()));
    let requests = vec![p1.avp, late.avp, p0.avp];
    let msg = Msg::UpdateRequest(requests.clone());
    let mut buf = Vec::new();
    codec.encode(&msg, &mut buf);
    let mut c = Cursor::new(&buf);
    let Msg::UpdateRequest(avps) = codec.decode(&mut c).unwrap() else {
        panic!("kind changed");
    };
    c.finish().unwrap();
    assert_eq!(avps, requests);

    let mut buf = Vec::new();
    codec.encode(&Msg::Repartition, &mut buf);
    let mut c = Cursor::new(&buf);
    assert!(matches!(codec.decode(&mut c).unwrap(), Msg::Repartition));
    c.finish().unwrap();

    // An Assigner's pane close carries its task, its requests and its
    // signal; the Merger's carries none.
    let control = Control {
        requests: requests.clone(),
        repartition: true,
    };
    for control in [
        None,
        Some(Box::new((3, control.clone()))),
        Some(Box::new((0, Control::default()))),
    ] {
        let mut buf = Vec::new();
        let msg = Msg::Routing {
            window: 11,
            routing: ROUTING,
            control: control.clone(),
        };
        codec.encode(&msg, &mut buf);
        let mut c = Cursor::new(&buf);
        let back = codec.decode(&mut c).unwrap();
        let Msg::Routing {
            window: 11,
            routing,
            control: back,
        } = back
        else {
            panic!("kind changed");
        };
        assert_eq!((routing, back), (ROUTING, control));
        c.finish().unwrap();
    }
}

/// Steady-state frames carry no strings: a document made entirely of
/// snapshot-covered pairs encodes to bare varints (strictly smaller than
/// its JSON rendering, containing none of the attribute names).
#[test]
fn steady_state_frames_carry_no_strings() {
    let dict = seeded_dict(40);
    let codec = MsgCodec::new(&dict);
    let doc = doc_from(&dict, 42, &[(0, 1), (1, 2), (2, 3)], &[]);
    let mut buf = Vec::new();
    codec.encode(&Msg::Doc(Arc::new(doc.clone())), &mut buf);
    let json = doc.to_json(&dict);
    assert!(
        buf.len() < json.len(),
        "wire {} bytes >= json {} bytes",
        buf.len(),
        json.len()
    );
    for name in ["attr0", "attr1", "attr2"] {
        assert!(
            !buf.windows(name.len()).any(|w| w == name.as_bytes()),
            "attribute name {name:?} leaked into a steady-state frame"
        );
    }
}
