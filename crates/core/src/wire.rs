//! Binary wire codec for [`Msg`] — symbol-interned serialization against
//! epoch-versioned dictionary snapshots (DESIGN.md §4f).
//!
//! Every worker process of a group builds the same [`Dictionary`] at deploy
//! time (the dataset and interning order are deterministic), so steady-state
//! frames carry dense symbol ids instead of strings. The codec snapshots the
//! dictionary's extent — the *watermarks* — at construction:
//!
//! * ids below the watermark travel as a bare varint (`id << 1`, even),
//!   trusting the peer's identical snapshot to resolve them;
//! * ids interned *after* the snapshot (the stream grows the dictionary as
//!   it runs) travel **inline** and self-describing (odd marker followed by
//!   the attribute name / scalar value), and the decoder re-interns them —
//!   both sides converge on "equal id ⇔ equal (attribute, value)" without
//!   any cross-process dictionary synchronization.
//!
//! The epoch is a fingerprint of the full snapshot content. It rides in the
//! handshake and in every Data/Batch frame; a disagreement (different
//! dataset, different interning order) is rejected at decode time as
//! [`WireError::EpochMismatch`] instead of silently joining on wrong pairs.
//!
//! A run's codec also knows the run's `m` ([`MsgCodec::with_m`]): the
//! peer-supplied values its tasks index by — a `JoinStats` joiner id, a
//! `Table`'s partition count and a `Copy`'s target mask — are rejected as
//! [`WireError::OutOfRange`] when they exceed it (or, for a mask, are
//! empty), so a corrupt frame ends the run in a transport error instead of a
//! panic. Without a run, [`MsgCodec::new`] bounds them by
//! [`MAX_PARTITIONS`], so no decoded table is ever wider than that.

use crate::msg::{Control, Msg, PaneRouting, TableMsg};
use ssj_json::{AttrId, AvpId, Dictionary, DocId, DocRef, Document, Pair, Scalar};
use ssj_partition::{AssociationGroup, Expansion, PartitionTable, MAX_PARTITIONS};
use ssj_runtime::wire::{fnv1a, put_str, put_varint, put_zigzag, Cursor, WireError};
use ssj_runtime::WireCodec;
use std::sync::Arc;

/// Message-kind tags (first byte of every encoded [`Msg`]).
const TAG_DOC: u8 = 0;
const TAG_LOCAL_GROUPS: u8 = 1;
const TAG_TABLE: u8 = 2;
const TAG_UPDATE_REQUEST: u8 = 3;
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

/// The [`Msg`] wire codec: one per process, shared by every socket link.
///
/// Holds the process's dictionary plus the watermarks and epoch of the
/// deploy-time snapshot. Construct it *after* the dictionary is fully
/// seeded and before the topology starts; all group members must construct
/// it over identical dictionary content (the handshake enforces this by
/// comparing epochs).
pub struct MsgCodec {
    dict: Dictionary,
    /// Attribute ids below this travel as bare symbols.
    attr_watermark: u32,
    /// Pair ids below this travel as bare symbols.
    avp_watermark: u32,
    epoch: u64,
    /// Joiners (= partitions) of the run; [`MAX_PARTITIONS`] until
    /// [`with_m`](Self::with_m) narrows it.
    m: usize,
}

impl MsgCodec {
    /// Snapshot `dict` and fingerprint its content into the codec's epoch.
    pub fn new(dict: &Dictionary) -> MsgCodec {
        let attr_watermark = dict.attr_count() as u32;
        let avp_watermark = dict.avp_count() as u32;
        MsgCodec {
            epoch: dict_epoch(dict),
            dict: dict.clone(),
            attr_watermark,
            avp_watermark,
            m: MAX_PARTITIONS,
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
        if attr.0 < self.attr_watermark {
            put_varint(out, (attr.0 as u64) << 1);
        } else {
            // Interned after the snapshot: ship the name, peer re-interns.
            put_varint(out, 1);
            put_str(out, &self.dict.attr_name(attr));
        }
    }

    fn get_attr(&self, c: &mut Cursor) -> Result<AttrId, WireError> {
        let v = c.varint()?;
        if v & 1 == 0 {
            let id = v >> 1;
            if id >= self.attr_watermark as u64 {
                return Err(WireError::BadSymbol(id));
            }
            Ok(AttrId(id as u32))
        } else {
            Ok(self.dict.intern_attr(c.str()?))
        }
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
        if avp.0 < self.avp_watermark {
            put_varint(out, (avp.0 as u64) << 1);
        } else {
            // Post-snapshot pair: self-describing (attribute + value).
            put_varint(out, 1);
            self.put_attr(out, self.dict.avp_attr(avp));
            self.put_scalar(out, &self.dict.avp_scalar(avp));
        }
    }

    /// Decode a pair symbol into a full [`Pair`] (attr resolved locally).
    fn get_pair(&self, c: &mut Cursor) -> Result<Pair, WireError> {
        let v = c.varint()?;
        if v & 1 == 0 {
            let id = v >> 1;
            if id >= self.avp_watermark as u64 {
                return Err(WireError::BadSymbol(id));
            }
            let avp = AvpId(id as u32);
            Ok(Pair {
                attr: self.dict.avp_attr(avp),
                avp,
            })
        } else {
            let attr = self.get_attr(c)?;
            let scalar = self.get_scalar(c)?;
            Ok(self.dict.intern_avp(attr, scalar))
        }
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

    fn put_expansion(&self, out: &mut Vec<u8>, e: &Option<Expansion>) {
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
    fn epoch(&self) -> u64 {
        self.epoch
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
                expansion,
            } => {
                out.push(TAG_LOCAL_GROUPS);
                put_varint(out, *window);
                put_varint(out, *creator as u64);
                put_varint(out, groups.len() as u64);
                for g in groups {
                    put_varint(out, g.load as u64);
                    self.put_avps(out, &g.avps);
                }
                self.put_expansion(out, expansion);
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
                self.put_expansion(out, &t.expansion);
            }
            Msg::UpdateRequest(avps) => {
                out.push(TAG_UPDATE_REQUEST);
                self.put_avps(out, avps);
            }
            Msg::Repartition => out.push(TAG_REPARTITION),
            Msg::Routing {
                window,
                routing,
                control,
            } => {
                out.push(TAG_ROUTING);
                put_varint(out, *window);
                put_varint(out, routing.docs as u64);
                put_varint(out, routing.copies as u64);
                put_varint(out, routing.broadcasts as u64);
                out.push(routing.rebuilt as u8);
                put_varint(out, routing.updates as u64);
                match control {
                    None => out.push(0),
                    Some(control) => {
                        let (task, control) = &**control;
                        out.push(1 | (control.repartition as u8) << 1);
                        put_varint(out, *task as u64);
                        self.put_avps(out, &control.requests);
                    }
                }
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
                    expansion: self.get_expansion(c)?,
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
            TAG_UPDATE_REQUEST => Ok(Msg::UpdateRequest(self.get_avps(c)?)),
            TAG_REPARTITION => Ok(Msg::Repartition),
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
            TAG_ROUTING => Ok(Msg::Routing {
                window: c.varint()?,
                routing: PaneRouting {
                    docs: c.varint()? as usize,
                    copies: c.varint()? as usize,
                    broadcasts: c.varint()? as usize,
                    rebuilt: c.u8()? != 0,
                    updates: c.varint()? as usize,
                },
                // A flag byte — bit 0 an Assigner's, bit 1 its θ signal —
                // then the Assigner's task and its requests.
                control: match c.u8()? {
                    0 => None,
                    flags @ (1 | 3) => Some(Box::new((
                        c.varint()? as usize,
                        Control {
                            requests: self.get_avps(c)?,
                            repartition: flags == 3,
                        },
                    ))),
                    t => return Err(WireError::BadTag(t)),
                },
            }),
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
/// then every pair's `(attribute, value)` — so two processes agree on the
/// epoch iff bare symbol ids resolve identically on both sides.
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
