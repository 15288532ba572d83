//! Binary wire format for envelopes crossing process boundaries
//! (DESIGN.md §4f).
//!
//! A frame is one length-prefixed unit on a transport link:
//!
//! ```text
//! [u32 LE body length][u8 kind][varint target][varint from][u8 flags] …
//! ```
//!
//! * `kind` selects the payload: `Data`, `Batch`, `Punct`, `Eos`, the
//!   handshake `Hello`, or the edge-close token `Close` (the wire analogue
//!   of a producer dropping its channel senders).
//! * `target` / `from` are *global task ids* — the same numbering every
//!   process derives from the shared topology, so no per-link id mapping is
//!   needed.
//! * `flags` bit 0 once marked a feedback-edge frame. There are no
//!   feedback edges any more: a sender leaves the bit clear and a receiving
//!   link rejects a frame that sets it (`crate::transport`).
//! * `Data`/`Batch` payloads are message bytes, delegated to a
//!   [`WireCodec`]. Each link direction has a codec of its own
//!   ([`WireCodec::link`]), so a codec may keep per-link state: the
//!   symbols it has defined on the link so far.
//!
//! One [`Envelope::Batch`](crate) micro-batch becomes exactly one `Batch`
//! frame, so the PR 2 batch boundaries — and therefore window contents —
//! are preserved bit-for-bit across the wire.
//!
//! Integers use LEB128 varints (signed values zigzag-encoded); all decoding
//! goes through a bounds-checked [`Cursor`] that borrows the frame buffer,
//! so payload bytes (inline strings) are sliced, not copied, until the
//! message type itself needs ownership.

use std::fmt;
use std::io::Read;

/// Wire protocol version; bumped on any incompatible layout change.
pub const WIRE_VERSION: u16 = 11;

/// Handshake magic: `"SSJW"`.
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"SSJW");

/// Upper bound on one frame body; a length prefix beyond it is treated as
/// stream corruption rather than an allocation request.
pub const MAX_FRAME_LEN: usize = 256 << 20;

const KIND_DATA: u8 = 1;
const KIND_BATCH: u8 = 2;
const KIND_PUNCT: u8 = 3;
const KIND_EOS: u8 = 4;
const KIND_HELLO: u8 = 5;
const KIND_CLOSE: u8 = 6;

const FLAG_FEEDBACK: u8 = 1;

/// Decode-side failures. Encoding is infallible (it appends to a `Vec`).
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The buffer ended before the value being read.
    Truncated,
    /// Bytes remained after a complete payload; carries the residue length.
    Trailing(usize),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// A symbol id the link never defined; carries the raw id.
    BadSymbol(u64),
    /// An inline string was not valid UTF-8.
    BadUtf8,
    /// A message-level tag byte the codec does not know.
    BadTag(u8),
    /// Handshake frame without the `SSJW` magic.
    BadMagic,
    /// Wire protocol version mismatch.
    Version {
        /// Our [`WIRE_VERSION`].
        expected: u16,
        /// The peer's version.
        got: u16,
    },
    /// A frame length prefix beyond [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// A peer-supplied index or count the receiving run cannot hold (a
    /// joiner id or a partition count beyond the run's `m`).
    OutOfRange {
        /// Which value.
        field: &'static str,
        /// The decoded value.
        value: u64,
        /// The largest value the run accepts.
        max: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("truncated frame"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadSymbol(id) => write!(f, "unresolvable symbol id {id}"),
            WireError::BadUtf8 => f.write_str("inline string is not valid UTF-8"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadMagic => f.write_str("bad handshake magic"),
            WireError::Version { expected, got } => {
                write!(f, "wire version mismatch: local {expected}, peer {got}")
            }
            WireError::FrameTooLarge(n) => write!(f, "frame length {n} exceeds cap"),
            WireError::OutOfRange { field, value, max } => {
                write!(f, "{field} {value} out of range (at most {max})")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

/// Append a LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-encoded signed varint.
#[inline]
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over one frame body. All reads advance the
/// position; byte-slice reads borrow from the underlying buffer (zero-copy
/// until the caller needs ownership).
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a little-endian `u16`.
    pub fn u16_le(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("length checked"),
        ))
    }

    /// Read a little-endian `u32`.
    pub fn u32_le(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("length checked"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("length checked"),
        ))
    }

    /// Read a LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return Err(WireError::BadSymbol(v));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a zigzag-encoded signed varint.
    #[inline]
    pub fn zigzag(&mut self) -> Result<i64, WireError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Borrow the next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Read a length-prefixed UTF-8 string as a borrowed slice.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.varint()? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        std::str::from_utf8(self.bytes(n)?).map_err(|_| WireError::BadUtf8)
    }

    /// Error unless the cursor consumed the whole buffer.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(self.remaining()))
        }
    }
}

// ---------------------------------------------------------------------------
// Message codec
// ---------------------------------------------------------------------------

/// Serializes one topology message type. A codec may keep state across
/// the messages of one link direction — what it has told the peer so far —
/// so the frames of a link decode in the order they were encoded, each
/// link direction through a codec of its own.
pub trait WireCodec<M>: Send + 'static {
    /// Append `msg`'s payload bytes to `out`.
    fn encode(&self, msg: &M, out: &mut Vec<u8>);

    /// Decode one message payload.
    fn decode(&self, cur: &mut Cursor) -> Result<M, WireError>;

    /// A codec for one more link direction, sharing this one's
    /// configuration but none of its per-link state.
    fn link(&self) -> Box<dyn WireCodec<M>>;
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// The payload of one transport frame — the public mirror of the executor's
/// internal envelope, plus the transport-level `Close` token.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload<M> {
    /// One data message.
    Data(M),
    /// One micro-batch (one in-process `Envelope::Batch` = one frame).
    Batch(Vec<M>),
    /// Punctuation (window boundary) id.
    Punct(u64),
    /// End of stream from the sending task.
    Eos,
    /// The sending task dropped its senders for this edge: the wire
    /// analogue of an in-process channel disconnect. Once every producer
    /// behind a link has closed an edge, the receiver drops its local
    /// sender clone for it.
    Close,
}

/// One decoded transport frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<M> {
    /// Receiving global task id.
    pub target: usize,
    /// Sending global task id.
    pub from: usize,
    /// The retired feedback-edge flag: always `false` on the way out, and a
    /// receiving link rejects a frame that has it set.
    pub feedback: bool,
    /// The payload.
    pub payload: Payload<M>,
}

/// Append `frame` to `out` as one length-prefixed wire frame.
pub fn encode_frame<M: 'static>(frame: &Frame<M>, codec: &dyn WireCodec<M>, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]); // length back-patched below
    let kind = match &frame.payload {
        Payload::Data(_) => KIND_DATA,
        Payload::Batch(_) => KIND_BATCH,
        Payload::Punct(_) => KIND_PUNCT,
        Payload::Eos => KIND_EOS,
        Payload::Close => KIND_CLOSE,
    };
    out.push(kind);
    put_varint(out, frame.target as u64);
    put_varint(out, frame.from as u64);
    out.push(if frame.feedback { FLAG_FEEDBACK } else { 0 });
    match &frame.payload {
        Payload::Data(m) => codec.encode(m, out),
        Payload::Batch(ms) => {
            put_varint(out, ms.len() as u64);
            for m in ms {
                codec.encode(m, out);
            }
        }
        Payload::Punct(p) => put_varint(out, *p),
        Payload::Eos | Payload::Close => {}
    }
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decode one frame body (the bytes *after* the length prefix). Rejects
/// bodies with trailing bytes.
pub fn decode_frame<M: 'static>(
    body: &[u8],
    codec: &dyn WireCodec<M>,
) -> Result<Frame<M>, WireError> {
    let mut cur = Cursor::new(body);
    let kind = cur.u8()?;
    let target = cur.varint()? as usize;
    let from = cur.varint()? as usize;
    let feedback = cur.u8()? & FLAG_FEEDBACK != 0;
    let payload = match kind {
        KIND_DATA => Payload::Data(codec.decode(&mut cur)?),
        KIND_BATCH => {
            let n = cur.varint()? as usize;
            if n > cur.remaining() {
                // Every message costs at least one byte; reject early so a
                // corrupt count cannot trigger a huge reservation.
                return Err(WireError::Truncated);
            }
            let mut ms = Vec::with_capacity(n);
            for _ in 0..n {
                ms.push(codec.decode(&mut cur)?);
            }
            Payload::Batch(ms)
        }
        KIND_PUNCT => Payload::Punct(cur.varint()?),
        KIND_EOS => Payload::Eos,
        KIND_CLOSE => Payload::Close,
        other => return Err(WireError::BadKind(other)),
    };
    cur.finish()?;
    Ok(Frame {
        target,
        from,
        feedback,
        payload,
    })
}

/// Read one length-prefixed frame body into `scratch` (replacing its
/// contents). Returns `Ok(false)` on a clean EOF at a frame boundary;
/// mid-frame EOF and oversized length prefixes are `Err`.
pub fn read_frame<R: Read>(r: &mut R, scratch: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..])? {
            0 if got == 0 => return Ok(false),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::FrameTooLarge(len).to_string(),
        ));
    }
    scratch.clear();
    scratch.resize(len, 0);
    r.read_exact(scratch)?;
    Ok(true)
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// The control-plane handshake exchanged once per link at group join:
/// identifies the peer and pins the wire version and the topology
/// fingerprint. Both ends of the link start from here with nothing defined.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// The sending process's worker id.
    pub worker: usize,
    /// Total workers in the process group.
    pub workers: usize,
    /// Fingerprint of the deployed topology + placement.
    pub topo_fingerprint: u64,
}

/// Append `hello` as one length-prefixed handshake frame.
pub fn encode_hello(hello: &Hello, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(KIND_HELLO);
    out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    put_varint(out, hello.worker as u64);
    put_varint(out, hello.workers as u64);
    out.extend_from_slice(&hello.topo_fingerprint.to_le_bytes());
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decode one handshake frame body, validating magic and version.
pub fn decode_hello(body: &[u8]) -> Result<Hello, WireError> {
    let mut cur = Cursor::new(body);
    let kind = cur.u8()?;
    if kind != KIND_HELLO {
        return Err(WireError::BadKind(kind));
    }
    if cur.u32_le()? != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = cur.u16_le()?;
    if version != WIRE_VERSION {
        return Err(WireError::Version {
            expected: WIRE_VERSION,
            got: version,
        });
    }
    let worker = cur.varint()? as usize;
    let workers = cur.varint()? as usize;
    let topo_fingerprint = cur.u64_le()?;
    cur.finish()?;
    Ok(Hello {
        worker,
        workers,
        topo_fingerprint,
    })
}

/// FNV-1a, the workspace's convention for deterministic fingerprints
/// (dictionary epochs, topology fingerprints).
pub fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    struct U64Codec;
    impl WireCodec<u64> for U64Codec {
        fn encode(&self, msg: &u64, out: &mut Vec<u8>) {
            put_varint(out, *msg);
        }
        fn decode(&self, cur: &mut Cursor) -> Result<u64, WireError> {
            cur.varint()
        }
        fn link(&self) -> Box<dyn WireCodec<u64>> {
            Box::new(U64Codec)
        }
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            assert_eq!(Cursor::new(&buf).varint().unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300] {
            buf.clear();
            put_zigzag(&mut buf, v);
            assert_eq!(Cursor::new(&buf).zigzag().unwrap(), v);
        }
    }

    #[test]
    fn frame_roundtrip_all_kinds() {
        let frames = vec![
            Frame {
                target: 3,
                from: 9,
                feedback: false,
                payload: Payload::Data(42u64),
            },
            Frame {
                target: 200,
                from: 0,
                feedback: true,
                payload: Payload::Batch(vec![1, 2, 3]),
            },
            Frame {
                target: 1,
                from: 2,
                feedback: false,
                payload: Payload::Punct(17),
            },
            Frame {
                target: 1,
                from: 2,
                feedback: false,
                payload: Payload::Eos,
            },
            Frame {
                target: 5,
                from: 6,
                feedback: true,
                payload: Payload::Close,
            },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            buf.clear();
            encode_frame(f, &U64Codec, &mut buf);
            let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
            assert_eq!(len, buf.len() - 4);
            let got = decode_frame(&buf[4..], &U64Codec).unwrap();
            assert_eq!(&got, f);
        }
    }

    #[test]
    fn truncation_and_trailing_are_errors_not_panics() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame {
                target: 1,
                from: 2,
                feedback: false,
                payload: Payload::Batch(vec![10u64, 20, 30]),
            },
            &U64Codec,
            &mut buf,
        );
        let body = &buf[4..];
        for cut in 0..body.len() {
            assert!(
                decode_frame(&body[..cut], &U64Codec).is_err(),
                "truncation at {cut} must error"
            );
        }
        let mut padded = body.to_vec();
        padded.push(0);
        assert_eq!(
            decode_frame(&padded, &U64Codec),
            Err(WireError::Trailing(1))
        );
        assert!(matches!(
            decode_frame(&[99, 0, 0, 0], &U64Codec),
            Err(WireError::BadKind(99))
        ));
    }

    #[test]
    fn hello_roundtrip_and_validation() {
        let h = Hello {
            worker: 1,
            workers: 4,
            topo_fingerprint: 0xdead_beef,
        };
        let mut buf = Vec::new();
        encode_hello(&h, &mut buf);
        assert_eq!(decode_hello(&buf[4..]).unwrap(), h);
        // Corrupt the magic.
        let mut bad = buf[4..].to_vec();
        bad[1] ^= 0xff;
        assert_eq!(decode_hello(&bad), Err(WireError::BadMagic));
        // Corrupt the version.
        let mut bad = buf[4..].to_vec();
        bad[5] = 0x7f;
        assert!(matches!(decode_hello(&bad), Err(WireError::Version { .. })));
    }

    #[test]
    fn read_frame_handles_eof() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame {
                target: 0,
                from: 0,
                feedback: false,
                payload: Payload::Punct::<u64>(1),
            },
            &U64Codec,
            &mut buf,
        );
        let mut scratch = Vec::new();
        let mut r = std::io::Cursor::new(buf.clone());
        assert!(read_frame(&mut r, &mut scratch).unwrap());
        assert!(decode_frame(&scratch, &U64Codec).is_ok());
        assert!(!read_frame(&mut r, &mut scratch).unwrap(), "clean EOF");
        // Mid-frame EOF is an error.
        let mut r = std::io::Cursor::new(buf[..buf.len() - 1].to_vec());
        assert!(read_frame(&mut r, &mut scratch).is_err());
        // Oversized length prefix is corruption, not an allocation.
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        let mut r = std::io::Cursor::new(huge);
        assert!(read_frame(&mut r, &mut scratch).is_err());
    }
}
