//! Binary wire codec for [`Msg`] — symbol-interned serialization with a
//! symbol table per link direction (DESIGN.md §4f).
//!
//! Each process interns into a dictionary of its own, in whatever order
//! symbols reach it, so a local id means nothing to a peer. Each link
//! direction therefore keeps a table of its own, the per-link form of
//! tuple compaction: the first use of an attribute or pair on the link
//! carries its text (odd marker, then the attribute name, or the attribute
//! and the scalar) and defines the next link id; every later use is a bare
//! varint (`id << 1`, even). The writer maps local id → link id, the reader
//! link id → local id, interning each symbol into its own dictionary the
//! first time it arrives. A bare id the link never defined is
//! [`WireError::BadSymbol`]. Both tables are dense `Vec`s, and each belongs
//! to one thread: the transport gives each link's writer and reader a codec
//! of its own ([`WireCodec::link`]), and a relaunched attempt starts both
//! with empty tables at the handshake.
//!
//! A run's codec also knows the run's `m` ([`MsgCodec::with_m`]): the
//! peer-supplied values its tasks index by — a `JoinStats` joiner id, a
//! `Table`'s partition count and a `Copy`'s target mask — are rejected as
//! [`WireError::OutOfRange`] when they exceed it (or, for a mask, are
//! empty), so a corrupt frame ends the run in a transport error instead of a
//! panic. Without a run, [`MsgCodec::new`] bounds them by
//! [`MAX_PARTITIONS`], so no decoded table is ever wider than that.

use crate::msg::{Msg, PaneRouting, TableMsg};
use ssj_json::{AttrId, AvpId, Dictionary, DocId, DocRef, Document, Pair, Scalar};
use ssj_partition::{AssociationGroup, Expansion, PartitionTable, MAX_PARTITIONS};
use ssj_runtime::wire::{fnv1a, put_str, put_varint, put_zigzag, Cursor, WireError};
use ssj_runtime::WireCodec;
use std::cell::RefCell;
use std::sync::Arc;

/// Message-kind tags (first byte of every encoded [`Msg`]).
const TAG_DOC: u8 = 0;
const TAG_LOCAL_GROUPS: u8 = 1;
const TAG_TABLE: u8 = 2;
const TAG_REPARTITION: u8 = 4;
const TAG_JOIN_STATS: u8 = 5;
const TAG_ROUTING: u8 = 6;
const TAG_COPY: u8 = 7;

/// Scalar tags (match [`Scalar`]'s hashing discriminants).
const SCALAR_NULL: u8 = 0;
const SCALAR_BOOL: u8 = 1;
const SCALAR_INT: u8 = 2;
const SCALAR_FLOAT: u8 = 3;
const SCALAR_STR: u8 = 4;

/// The [`Msg`] wire codec of one link direction: the process's dictionary,
/// the run's `m`, and the link's symbol tables — the writer's and the
/// reader's side in one value, so frames encoded through a codec decode
/// through the same codec, in order.
pub struct MsgCodec {
    dict: Dictionary,
    /// Joiners (= partitions) of the run; [`MAX_PARTITIONS`] until
    /// [`with_m`](Self::with_m) narrows it.
    m: usize,
    sent: RefCell<Sent>,
    received: RefCell<Received>,
}

/// The writer's table: local id → link id + 1 (0: not yet on the link),
/// and how many link ids are defined, for attributes and for pairs.
#[derive(Default)]
struct Sent {
    attrs: (Vec<u32>, u32),
    avps: (Vec<u32>, u32),
}

/// `local`'s link id in `table`, or `None` on its first use on the link,
/// which defines it as the next link id.
fn link_id((ids, defined): &mut (Vec<u32>, u32), local: u32) -> Option<u32> {
    let i = local as usize;
    if i >= ids.len() {
        ids.resize(i + 1, 0);
    }
    if ids[i] > 0 {
        return Some(ids[i] - 1);
    }
    *defined += 1;
    ids[i] = *defined;
    None
}

/// The reader's table: link id → local symbol, in definition order.
#[derive(Default)]
struct Received {
    attrs: Vec<AttrId>,
    avps: Vec<Pair>,
}

impl MsgCodec {
    /// A codec over `dict` with empty link tables.
    pub fn new(dict: &Dictionary) -> MsgCodec {
        MsgCodec {
            dict: dict.clone(),
            m: MAX_PARTITIONS,
            sent: RefCell::default(),
            received: RefCell::default(),
        }
    }

    /// The run's codec: accept only joiner ids below `m` and tables of at
    /// most `m` partitions, since the Reporter and the Assigners index by
    /// them.
    pub fn with_m(mut self, m: usize) -> MsgCodec {
        self.m = m;
        self
    }

    fn put_attr(&self, out: &mut Vec<u8>, attr: AttrId) {
        let known = link_id(&mut self.sent.borrow_mut().attrs, attr.0);
        match known {
            Some(id) => put_varint(out, (id as u64) << 1),
            // First use on this link: ship the name, the peer interns it.
            None => {
                put_varint(out, 1);
                put_str(out, &self.dict.attr_name(attr));
            }
        }
    }

    fn get_attr(&self, c: &mut Cursor) -> Result<AttrId, WireError> {
        let v = c.varint()?;
        if v & 1 == 0 {
            let id = v >> 1;
            let attrs = &self.received.borrow().attrs;
            return attrs
                .get(id as usize)
                .copied()
                .ok_or(WireError::BadSymbol(id));
        }
        let attr = self.dict.intern_attr(c.str()?);
        self.received.borrow_mut().attrs.push(attr);
        Ok(attr)
    }

    fn put_scalar(&self, out: &mut Vec<u8>, s: &Scalar) {
        match s {
            Scalar::Null => out.push(SCALAR_NULL),
            Scalar::Bool(b) => {
                out.push(SCALAR_BOOL);
                out.push(*b as u8);
            }
            Scalar::Int(i) => {
                out.push(SCALAR_INT);
                put_zigzag(out, *i);
            }
            Scalar::Float(f) => {
                out.push(SCALAR_FLOAT);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Scalar::Str(s) => {
                out.push(SCALAR_STR);
                put_str(out, s);
            }
        }
    }

    fn get_scalar(&self, c: &mut Cursor) -> Result<Scalar, WireError> {
        Ok(match c.u8()? {
            SCALAR_NULL => Scalar::Null,
            SCALAR_BOOL => Scalar::Bool(c.u8()? != 0),
            SCALAR_INT => Scalar::Int(c.zigzag()?),
            SCALAR_FLOAT => Scalar::Float(f64::from_bits(c.u64_le()?)),
            SCALAR_STR => Scalar::Str(c.str()?.to_owned()),
            t => return Err(WireError::BadTag(t)),
        })
    }

    fn put_avp(&self, out: &mut Vec<u8>, avp: AvpId) {
        let known = link_id(&mut self.sent.borrow_mut().avps, avp.0);
        match known {
            Some(id) => put_varint(out, (id as u64) << 1),
            // First use on this link: self-describing (attribute + value).
            None => {
                put_varint(out, 1);
                self.put_attr(out, self.dict.avp_attr(avp));
                self.put_scalar(out, &self.dict.avp_scalar(avp));
            }
        }
    }

    /// Decode a pair symbol into a full [`Pair`] (attr resolved locally).
    fn get_pair(&self, c: &mut Cursor) -> Result<Pair, WireError> {
        let v = c.varint()?;
        if v & 1 == 0 {
            let id = v >> 1;
            let avps = &self.received.borrow().avps;
            return avps
                .get(id as usize)
                .copied()
                .ok_or(WireError::BadSymbol(id));
        }
        let attr = self.get_attr(c)?;
        let pair = self.dict.intern_avp(attr, self.get_scalar(c)?);
        self.received.borrow_mut().avps.push(pair);
        Ok(pair)
    }

    fn put_avps(&self, out: &mut Vec<u8>, avps: &[AvpId]) {
        put_varint(out, avps.len() as u64);
        for &avp in avps {
            self.put_avp(out, avp);
        }
    }

    /// A pair list, grown as the pairs decode: never sized by the peer's
    /// count.
    fn get_avps(&self, c: &mut Cursor) -> Result<Vec<AvpId>, WireError> {
        let mut avps = Vec::new();
        for _ in 0..count(c)? {
            avps.push(self.get_pair(c)?.avp);
        }
        Ok(avps)
    }

    fn put_doc(&self, out: &mut Vec<u8>, d: &Document) {
        put_varint(out, d.id().0);
        put_varint(out, d.len() as u64);
        for p in d.pairs() {
            self.put_avp(out, p.avp);
        }
    }

    fn get_doc(&self, c: &mut Cursor) -> Result<DocRef, WireError> {
        let id = DocId(c.varint()?);
        let n = count(c)?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            pairs.push(self.get_pair(c)?);
        }
        Ok(Arc::new(Document::from_pairs(id, pairs)))
    }

    fn put_expansion(&self, out: &mut Vec<u8>, e: Option<&Expansion>) {
        match e {
            None => out.push(0),
            Some(e) => {
                out.push(1);
                put_varint(out, e.chain.len() as u64);
                for &a in &e.chain {
                    self.put_attr(out, a);
                }
                self.put_attr(out, e.synth_attr);
                out.extend_from_slice(&e.pna.to_bits().to_le_bytes());
            }
        }
    }

    fn get_expansion(&self, c: &mut Cursor) -> Result<Option<Expansion>, WireError> {
        match c.u8()? {
            0 => Ok(None),
            1 => {
                let n = count(c)?;
                let mut chain = Vec::with_capacity(n);
                for _ in 0..n {
                    chain.push(self.get_attr(c)?);
                }
                let synth_attr = self.get_attr(c)?;
                let pna = f64::from_bits(c.u64_le()?);
                Ok(Some(Expansion {
                    chain,
                    synth_attr,
                    pna,
                }))
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl WireCodec<Msg> for MsgCodec {
    fn link(&self) -> Box<dyn WireCodec<Msg>> {
        Box::new(MsgCodec::new(&self.dict).with_m(self.m))
    }

    fn encode(&self, msg: &Msg, out: &mut Vec<u8>) {
        match msg {
            Msg::Doc(d) => {
                out.push(TAG_DOC);
                self.put_doc(out, d);
            }
            Msg::Copy { doc, targets } => {
                out.push(TAG_COPY);
                put_varint(out, *targets);
                self.put_doc(out, doc);
            }
            Msg::LocalGroups {
                window,
                creator,
                groups,
            } => {
                out.push(TAG_LOCAL_GROUPS);
                put_varint(out, *window);
                put_varint(out, *creator as u64);
                put_varint(out, groups.len() as u64);
                for g in groups {
                    put_varint(out, g.load as u64);
                    self.put_avps(out, &g.avps);
                }
            }
            Msg::Table(t) => {
                out.push(TAG_TABLE);
                put_varint(out, t.window);
                let m = t.table.m();
                put_varint(out, m as u64);
                for p in 0..m as u32 {
                    put_varint(out, t.table.declared_load(p) as u64);
                    self.put_avps(out, t.table.members(p));
                }
                self.put_expansion(out, t.expansion.as_ref());
            }
            Msg::Repartition(expansion) => {
                out.push(TAG_REPARTITION);
                self.put_expansion(out, expansion.as_deref());
            }
            Msg::Routing { window, routing } => {
                out.push(TAG_ROUTING);
                put_varint(out, *window);
                put_varint(out, routing.docs as u64);
                put_varint(out, routing.copies as u64);
                put_varint(out, routing.homed as u64);
                out.push(routing.rebuilt as u8);
            }
            Msg::JoinStats {
                window,
                joiner,
                docs,
                pairs,
            } => {
                out.push(TAG_JOIN_STATS);
                put_varint(out, *window);
                put_varint(out, *joiner as u64);
                put_varint(out, *docs as u64);
                put_varint(out, pairs.len() as u64);
                for (a, b) in pairs {
                    put_varint(out, a.0);
                    put_varint(out, b.0);
                }
            }
        }
    }

    fn decode(&self, c: &mut Cursor) -> Result<Msg, WireError> {
        match c.u8()? {
            TAG_DOC => Ok(Msg::Doc(self.get_doc(c)?)),
            TAG_COPY => {
                let targets = c.varint()?;
                // A non-empty set of the run's joiners: 1 ..= 2^m - 1.
                let all = u64::MAX >> (64 - self.m.clamp(1, MAX_PARTITIONS));
                if targets == 0 || targets > all {
                    return Err(WireError::OutOfRange {
                        field: "copy targets",
                        value: targets,
                        max: all,
                    });
                }
                Ok(Msg::Copy {
                    doc: self.get_doc(c)?,
                    targets,
                })
            }
            TAG_LOCAL_GROUPS => {
                let window = c.varint()?;
                let creator = c.varint()? as usize;
                let n = count(c)?;
                let mut groups = Vec::with_capacity(n);
                for _ in 0..n {
                    let load = c.varint()? as usize;
                    let avps = self.get_avps(c)?;
                    groups.push(AssociationGroup { avps, load });
                }
                Ok(Msg::LocalGroups {
                    window,
                    creator,
                    groups,
                })
            }
            TAG_TABLE => {
                let window = c.varint()?;
                let m = c.varint()? as usize;
                at_most("table partitions", m, self.m)?;
                if m > c.remaining() {
                    return Err(WireError::Truncated);
                }
                let mut table = PartitionTable::empty(m);
                for p in 0..m as u32 {
                    let load = c.varint()? as usize;
                    let k = count(c)?;
                    for _ in 0..k {
                        table.add_avp(p, self.get_pair(c)?.avp);
                    }
                    table.bump_load(p, load);
                }
                Ok(Msg::Table(Arc::new(TableMsg {
                    window,
                    table,
                    expansion: self.get_expansion(c)?,
                })))
            }
            TAG_REPARTITION => Ok(Msg::Repartition(self.get_expansion(c)?.map(Arc::new))),
            TAG_JOIN_STATS => {
                let window = c.varint()?;
                let joiner = c.varint()? as usize;
                at_most("joiner", joiner, self.m.saturating_sub(1))?;
                let docs = c.varint()? as usize;
                let n = count(c)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((DocId(c.varint()?), DocId(c.varint()?)));
                }
                Ok(Msg::JoinStats {
                    window,
                    joiner,
                    docs,
                    pairs,
                })
            }
            TAG_ROUTING => {
                let window = c.varint()?;
                let (docs, copies, homed) = (c.varint()?, c.varint()?, c.varint()?);
                // A flag byte: bit 0 the Merger's build.
                let flags = c.u8()?;
                if flags > 1 {
                    return Err(WireError::BadTag(flags));
                }
                Ok(Msg::Routing {
                    window,
                    routing: PaneRouting {
                        docs: docs as usize,
                        copies: copies as usize,
                        homed: homed as usize,
                        rebuilt: flags != 0,
                    },
                })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// A peer-supplied element count. Every element takes at least one byte, so
/// a count the rest of the frame cannot hold is [`WireError::Truncated`]:
/// nothing is ever sized beyond the frame by it.
fn count(c: &mut Cursor) -> Result<usize, WireError> {
    let n = c.varint()? as usize;
    if n > c.remaining() {
        return Err(WireError::Truncated);
    }
    Ok(n)
}

/// Reject a peer-supplied `value` above `max` as [`WireError::OutOfRange`].
fn at_most(field: &'static str, value: usize, max: usize) -> Result<(), WireError> {
    if value > max {
        return Err(WireError::OutOfRange {
            field,
            value: value as u64,
            max: max as u64,
        });
    }
    Ok(())
}

/// Fingerprint the full content of `dict` — attribute names in id order,
/// then every pair's `(attribute, value)` — so two dictionaries agree on
/// the epoch iff their ids resolve identically. Segment files
/// ([`crate::spill`]) carry it.
pub fn dict_epoch(dict: &Dictionary) -> u64 {
    let mut h = fnv1a(b"ssj-dict-epoch", 0xcbf2_9ce4_8422_2325);
    let attrs = dict.attr_count();
    h = fnv1a(&(attrs as u64).to_le_bytes(), h);
    for a in 0..attrs as u32 {
        h = fnv1a(dict.attr_name(AttrId(a)).as_bytes(), h);
        h = fnv1a(&[0xff], h);
    }
    let avps = dict.avp_count();
    h = fnv1a(&(avps as u64).to_le_bytes(), h);
    let mut buf = Vec::new();
    for p in 0..avps as u32 {
        buf.clear();
        let avp = AvpId(p);
        buf.extend_from_slice(&dict.avp_attr(avp).0.to_le_bytes());
        match dict.avp_scalar(avp) {
            Scalar::Null => buf.push(SCALAR_NULL),
            Scalar::Bool(b) => {
                buf.push(SCALAR_BOOL);
                buf.push(b as u8);
            }
            Scalar::Int(i) => {
                buf.push(SCALAR_INT);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Scalar::Float(f) => {
                buf.push(SCALAR_FLOAT);
                buf.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Scalar::Str(s) => {
                buf.push(SCALAR_STR);
                buf.extend_from_slice(s.as_bytes());
            }
        }
        h = fnv1a(&buf, h);
    }
    h
}
