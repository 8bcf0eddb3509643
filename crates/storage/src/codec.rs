//! Hand-rolled binary codec for durable snapshots and journals.
//!
//! The build environment has no registry access, so durability cannot
//! lean on `serde`/`bincode`; this module provides the minimal
//! little-endian primitive layer the snapshot and journal formats are
//! built from, plus the sealed-frame envelope that makes a persisted
//! blob self-validating:
//!
//! ```text
//! frame := magic:u32 | version:u32 | kind:u16 | len:u64 | payload | check64:u64
//! ```
//!
//! The trailing checksum ([`frame_checksum64`]) covers everything
//! before it (header included), so a torn write, a truncation, or a bit
//! flip anywhere in the frame is detected before a single payload byte
//! is interpreted.
//! Decoding never panics on malformed input: every read is
//! bounds-checked and returns a [`CodecError`], which the restore layer
//! maps to a clean cold-start fallback.
//!
//! Versioning policy: `version` is bumped whenever the payload layout
//! changes incompatibly. Readers accept frames whose version is at most
//! their own and reject newer ones ([`CodecError::UnsupportedVersion`]) —
//! an old binary never misinterprets a new snapshot, and a new binary
//! may add explicit migration arms for old versions when needed.

use std::fmt;

/// Magic number opening every sealed frame (`"ACSN"` little-endian).
pub const FRAME_MAGIC: u32 = 0x4e53_4341;

/// Fixed bytes of a sealed frame surrounding the payload:
/// magic + version + kind + length header, plus the trailing checksum.
pub const FRAME_OVERHEAD: usize = 4 + 4 + 2 + 8 + 8;

/// Decode-side failure. Carries enough context to explain a rejected
/// restore without interpreting any unverified payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the expected value.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// Frame does not begin with [`FRAME_MAGIC`].
    BadMagic,
    /// Frame kind differs from what the reader expected.
    WrongKind {
        /// Kind found in the frame header.
        found: u16,
        /// Kind the reader expected.
        expected: u16,
    },
    /// Frame version is newer than this reader understands.
    UnsupportedVersion {
        /// Version found in the frame header.
        found: u32,
        /// Newest version the reader accepts.
        supported: u32,
    },
    /// Checksum over the frame bytes does not match the trailer.
    ChecksumMismatch,
    /// Structurally invalid payload (bad tag, impossible length, …).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { what } => write!(f, "unexpected end of input at {what}"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::WrongKind { found, expected } => {
                write!(f, "frame kind {found} where {expected} was expected")
            }
            CodecError::UnsupportedVersion { found, supported } => {
                write!(f, "frame version {found} newer than supported {supported}")
            }
            CodecError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            CodecError::Invalid(what) => write!(f, "invalid payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash over `bytes`. Byte-serial, so it is kept for
/// short keys (configuration fingerprints); frames use the word-wise
/// [`frame_checksum64`], which runs ~20x faster on multi-megabyte
/// snapshots.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The frame/slot checksum: four independent multiply-xor lanes over
/// little-endian 64-bit words (zero-padded tail), folded through
/// distinct odd multipliers with the input length. Each lane step is an
/// invertible map, so any single-word change — a bit flip, a torn tail,
/// a truncation — changes the digest. Word-parallel lanes break the
/// byte-at-a-time multiply dependency chain that made FNV the dominant
/// cost of opening a fleet-scale snapshot; like FNV this is a
/// corruption detector, not a cryptographic seal.
pub fn frame_checksum64(bytes: &[u8]) -> u64 {
    const M0: u64 = 0x9e37_79b9_7f4a_7c15;
    const M1: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const M2: u64 = 0x1656_67b1_9e37_79f9;
    const M3: u64 = 0x27d4_eb2f_1656_67c5;
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x8422_2325_cbf2_9ce4,
        0x9ce4_8422_2325_cbf2,
        0x2325_cbf2_9ce4_8422,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let v = u64::from_le_bytes(word.try_into().unwrap());
            *lane = (*lane ^ v).wrapping_mul(M0);
        }
    }
    let rem = blocks.remainder();
    let mut words = rem.chunks_exact(8);
    let mut next = 0usize;
    for word in &mut words {
        let v = u64::from_le_bytes(word.try_into().unwrap());
        lanes[next] = (lanes[next] ^ v).wrapping_mul(M0);
        next += 1;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut pad = [0u8; 8];
        pad[..tail.len()].copy_from_slice(tail);
        lanes[next] = (lanes[next] ^ u64::from_le_bytes(pad)).wrapping_mul(M0);
    }
    // The length is folded in so zero padding cannot alias a shorter
    // input, then the lanes avalanche together.
    let mut hash = (bytes.len() as u64).wrapping_mul(M1)
        ^ lanes[0].wrapping_mul(M0)
        ^ lanes[1].wrapping_mul(M1)
        ^ lanes[2].wrapping_mul(M2)
        ^ lanes[3].wrapping_mul(M3);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(M0);
    hash ^ (hash >> 32)
}

/// Little-endian append-only byte encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An encoder that appends to `buf`, keeping its contents and its
    /// allocation; [`into_bytes`](Self::into_bytes) hands it back. This is
    /// how a caller that encodes the same large state repeatedly reuses
    /// one buffer instead of growing a new one each time.
    pub fn over(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u16` little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` little-endian (two's complement).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern, so values
    /// (NaN payloads included) round-trip bit-identically.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an optional `u64` (presence byte + value).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_bool(true);
                self.put_u64(v);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends `v` as is, with no length prefix — the mirror of
    /// [`Decoder::take_raw`] for fixed-layout blocks.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends whatever `body` encodes as one length-prefixed byte slice
    /// — the bytes [`put_bytes`](Self::put_bytes) would produce for
    /// `body`'s output, without building that output separately first.
    /// The prefix is written as a placeholder and patched once `body`
    /// returns.
    pub fn put_bytes_with<R>(&mut self, body: impl FnOnce(&mut Encoder) -> R) -> R {
        let at = self.buf.len();
        self.put_u64(0);
        let out = body(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Appends whatever `body` encodes as one sealed frame (see the
    /// module docs for the layout), in place: the header goes in with a
    /// length placeholder, `body` appends the payload, the length is
    /// patched, and the checksum over the frame's own bytes — not over
    /// anything encoded before it — is appended. Frames nest.
    pub fn put_frame<R>(
        &mut self,
        kind: u16,
        version: u32,
        body: impl FnOnce(&mut Encoder) -> R,
    ) -> R {
        let start = self.buf.len();
        self.put_u32(FRAME_MAGIC);
        self.put_u32(version);
        self.put_u16(kind);
        let out = self.put_bytes_with(body);
        let checksum = frame_checksum64(&self.buf[start..]);
        self.put_u64(checksum);
        out
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked little-endian decoder over a byte slice. Every read
/// fails softly with a [`CodecError`] instead of panicking — the
/// property the snapshot corruption tests pin.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { what });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a bool byte; any value other than 0/1 is invalid.
    pub fn take_bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.take_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid(what)),
        }
    }

    /// Reads a `u16` little-endian.
    pub fn take_u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    /// Reads a `u32` little-endian.
    pub fn take_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a `u64` little-endian.
    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `i64` little-endian.
    pub fn take_i64(&mut self, what: &'static str) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn take_f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// Reads an optional `u64` (presence byte + value).
    pub fn take_opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, CodecError> {
        if self.take_bool(what)? {
            Ok(Some(self.take_u64(what)?))
        } else {
            Ok(None)
        }
    }

    /// Reads `n` raw bytes with a single bounds check — the fast path
    /// for fixed-layout blocks whose fields the caller slices out
    /// itself (e.g. the packed per-table stats records, where a
    /// field-by-field decode would pay one check per value across
    /// hundreds of thousands of entries).
    pub fn take_raw(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        self.take(n, what)
    }

    /// Reads a length-prefixed byte slice. The length is validated
    /// against the remaining input before any allocation, so a corrupt
    /// length cannot trigger an out-of-memory allocation attempt.
    pub fn take_bytes(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.take_u64(what)?;
        if len > self.remaining() as u64 {
            return Err(CodecError::UnexpectedEof { what });
        }
        self.take(len as usize, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self, what: &'static str) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.take_bytes(what)?).map_err(|_| CodecError::Invalid(what))
    }

    /// Reads a length prefix for a sequence whose elements occupy at
    /// least `min_element_bytes` each, rejecting lengths the remaining
    /// input cannot possibly hold (corruption guard for `Vec` reads).
    pub fn take_len(
        &mut self,
        min_element_bytes: usize,
        what: &'static str,
    ) -> Result<usize, CodecError> {
        let len = self.take_u64(what)?;
        let cap = self.remaining() / min_element_bytes.max(1);
        if len > cap as u64 {
            return Err(CodecError::UnexpectedEof { what });
        }
        Ok(len as usize)
    }

    /// Fails unless every byte has been consumed — trailing garbage in a
    /// checksum-valid frame still indicates a layout mismatch.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes after payload"))
        }
    }
}

/// Seals `payload` into a self-validating frame (see module docs for the
/// layout).
pub fn seal_frame(kind: u16, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::over(Vec::with_capacity(FRAME_OVERHEAD + payload.len()));
    enc.put_frame(kind, version, |enc| enc.put_raw(payload));
    enc.into_bytes()
}

/// A validated frame: header fields plus a borrowed payload whose
/// checksum has already been verified.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// Format version the payload was written under.
    pub version: u32,
    /// Frame kind tag.
    pub kind: u16,
    /// Checksum-verified payload bytes.
    pub payload: &'a [u8],
}

/// Opens and validates a sealed frame: magic, kind, version ceiling,
/// declared length and checksum are all checked before the payload is
/// exposed. Any violation — including a frame truncated mid-header —
/// returns an error rather than panicking.
pub fn open_frame(
    bytes: &[u8],
    expected_kind: u16,
    max_version: u32,
) -> Result<Frame<'_>, CodecError> {
    let frame = open_covered_frame(bytes, expected_kind, max_version)?;
    let body_end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    if frame_checksum64(&bytes[..body_end]) != stored {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(frame)
}

/// [`open_frame`] for a frame whose bytes a checksum of an enclosing
/// frame already covered, such as a snapshot a store slot sealed: every
/// check but the frame's own checksum.
pub fn open_covered_frame(
    bytes: &[u8],
    expected_kind: u16,
    max_version: u32,
) -> Result<Frame<'_>, CodecError> {
    if bytes.len() < FRAME_OVERHEAD {
        return Err(CodecError::UnexpectedEof {
            what: "frame header",
        });
    }
    let mut dec = Decoder::new(bytes);
    let magic = dec.take_u32("frame magic")?;
    if magic != FRAME_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = dec.take_u32("frame version")?;
    let kind = dec.take_u16("frame kind")?;
    let len = dec.take_u64("frame length")?;
    if kind != expected_kind {
        return Err(CodecError::WrongKind {
            found: kind,
            expected: expected_kind,
        });
    }
    if version > max_version {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            supported: max_version,
        });
    }
    let header = 4 + 4 + 2 + 8;
    if len != (bytes.len() - FRAME_OVERHEAD) as u64 {
        return Err(CodecError::UnexpectedEof {
            what: "frame payload",
        });
    }
    Ok(Frame {
        version,
        kind,
        payload: &bytes[header..bytes.len() - 8],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_bool(true);
        enc.put_u16(513);
        enc.put_u32(70_000);
        enc.put_u64(1 << 40);
        enc.put_i64(-42);
        enc.put_f64(f64::from_bits(0x7ff8_0000_0000_0001)); // NaN payload
        enc.put_opt_u64(Some(9));
        enc.put_opt_u64(None);
        enc.put_str("héllo");
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_u8("a").unwrap(), 7);
        assert!(dec.take_bool("b").unwrap());
        assert_eq!(dec.take_u16("c").unwrap(), 513);
        assert_eq!(dec.take_u32("d").unwrap(), 70_000);
        assert_eq!(dec.take_u64("e").unwrap(), 1 << 40);
        assert_eq!(dec.take_i64("f").unwrap(), -42);
        assert_eq!(dec.take_f64("g").unwrap().to_bits(), 0x7ff8_0000_0000_0001);
        assert_eq!(dec.take_opt_u64("h").unwrap(), Some(9));
        assert_eq!(dec.take_opt_u64("i").unwrap(), None);
        assert_eq!(dec.take_str("j").unwrap(), "héllo");
        dec.finish().unwrap();
    }

    #[test]
    fn decoder_fails_softly_on_truncation() {
        let mut enc = Encoder::new();
        enc.put_u64(1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..5]);
        assert!(matches!(
            dec.take_u64("v"),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn corrupt_length_prefix_cannot_over_allocate() {
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX); // absurd length prefix
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.take_bytes("blob").is_err());
        let mut dec = Decoder::new(&bytes);
        assert!(dec.take_len(8, "vec").is_err());
    }

    #[test]
    fn frames_validate_and_round_trip() {
        let sealed = seal_frame(3, 1, b"payload");
        let frame = open_frame(&sealed, 3, 1).unwrap();
        assert_eq!(frame.version, 1);
        assert_eq!(frame.kind, 3);
        assert_eq!(frame.payload, b"payload");

        assert!(matches!(
            open_frame(&sealed, 4, 1),
            Err(CodecError::WrongKind { .. })
        ));
        assert!(matches!(
            open_frame(&sealed, 3, 0),
            Err(CodecError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            open_frame(&sealed[..sealed.len() - 1], 3, 1),
            Err(CodecError::UnexpectedEof { .. })
        ));
        let mut flipped = sealed.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(open_frame(&flipped, 3, 1).is_err());
    }

    #[test]
    fn in_place_frames_match_the_layout_built_by_hand() {
        fn by_hand(kind: u16, version: u32, payload: &[u8]) -> Vec<u8> {
            let mut out = FRAME_MAGIC.to_le_bytes().to_vec();
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&kind.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            let checksum = frame_checksum64(&out);
            out.extend_from_slice(&checksum.to_le_bytes());
            out
        }
        assert_eq!(seal_frame(3, 2, b"payload"), by_hand(3, 2, b"payload"));
        assert_eq!(seal_frame(3, 2, b""), by_hand(3, 2, b""));

        // A frame inside a length-prefixed field inside a frame, after
        // bytes that belong to neither: each checksum covers its own
        // frame only.
        let mut enc = Encoder::over(b"before".to_vec());
        let answer = enc.put_frame(1, 1, |enc| {
            enc.put_u64(9);
            enc.put_bytes_with(|enc| enc.put_frame(7, 2, |enc| enc.put_raw(b"inner")));
            42
        });
        assert_eq!(answer, 42);
        let mut outer = 9u64.to_le_bytes().to_vec();
        let inner = by_hand(7, 2, b"inner");
        outer.extend_from_slice(&(inner.len() as u64).to_le_bytes());
        outer.extend_from_slice(&inner);
        assert_eq!(
            enc.into_bytes(),
            [b"before", &by_hand(1, 1, &outer)[..]].concat()
        );
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let sealed = seal_frame(1, 1, b"abcdefgh");
        for i in 0..sealed.len() {
            for bit in [1u8, 0x80] {
                let mut bytes = sealed.clone();
                bytes[i] ^= bit;
                assert!(open_frame(&bytes, 1, 1).is_err(), "byte {i} bit {bit}");
            }
        }
    }
}
