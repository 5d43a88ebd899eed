//! Compact binary codec for the serde [`Content`] model.
//!
//! The journal and snapshot fast paths (see [`crate::persist`]) need a
//! serialisation format that is cheap to *write* per slot: JSON spends
//! most of its time formatting integers into decimal text and escaping
//! strings. This codec writes the same self-describing value tree as a
//! tagged byte stream — LEB128 varints for integers, raw LE bytes for
//! floats, length-prefixed UTF-8 for strings — so encoding is a handful
//! of byte pushes per field and decoding is a single forward scan.
//!
//! The format is self-describing (every value carries its tag), so the
//! normal serde `Serialize`/`Deserialize` impls work unchanged on top:
//! `encode_value(v)` is `encode(&v.serialize_content())` and decoding
//! reverses it. Decoding is hardened against corrupt or hostile bytes:
//! every length is validated against the remaining input, nesting depth
//! is capped, and malformed input returns `None` — never a panic, never
//! an attempt to allocate a length the input cannot back.
//!
//! Every byte stream the sniffer writes for a machine — a journal batch, a
//! snapshot, a supervise-pipe message — is one [`seal`]ed frame around
//! such a payload, and is read back through [`open`]: this is the only
//! place a magic number or a header offset appears.

use serde::{Content, Deserialize, Serialize};

/// Value-tree nesting bound: deeper input is rejected as corrupt (the
/// deepest real artefact — a `SessionState` — nests about six levels).
const MAX_DEPTH: u32 = 64;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Append `v` as an LEB128 varint (7 bits per byte, high bit = more).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Read an LEB128 varint at `*pos`, advancing it. `None` on truncation
/// or a varint longer than 10 bytes (which cannot encode a `u64`).
pub fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in 0..10u32 {
        let b = *data.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7F) << (7 * shift).min(63);
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append one [`Content`] tree to `buf`.
pub fn put_content(buf: &mut Vec<u8>, c: &Content) {
    match c {
        Content::Null => buf.push(TAG_NULL),
        Content::Bool(false) => buf.push(TAG_FALSE),
        Content::Bool(true) => buf.push(TAG_TRUE),
        Content::U64(v) => {
            buf.push(TAG_U64);
            put_varint(buf, *v);
        }
        Content::I64(v) => {
            buf.push(TAG_I64);
            put_varint(buf, zigzag(*v));
        }
        Content::F64(v) => {
            buf.push(TAG_F64);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Content::Str(s) => {
            buf.push(TAG_STR);
            put_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Content::Seq(items) => {
            buf.push(TAG_SEQ);
            put_varint(buf, items.len() as u64);
            for item in items {
                put_content(buf, item);
            }
        }
        Content::Map(entries) => {
            buf.push(TAG_MAP);
            put_varint(buf, entries.len() as u64);
            for (k, v) in entries {
                put_varint(buf, k.len() as u64);
                buf.extend_from_slice(k.as_bytes());
                put_content(buf, v);
            }
        }
    }
}

/// Read one [`Content`] tree at `*pos`, advancing it. `None` on any
/// truncation, bad tag, bad UTF-8, over-long length, or excessive depth.
pub fn get_content(data: &[u8], pos: &mut usize) -> Option<Content> {
    get_content_depth(data, pos, 0)
}

fn get_str(data: &[u8], pos: &mut usize) -> Option<String> {
    let len = get_varint(data, pos)? as usize;
    let end = pos.checked_add(len)?;
    if end > data.len() {
        return None;
    }
    let s = std::str::from_utf8(&data[*pos..end]).ok()?.to_string();
    *pos = end;
    Some(s)
}

fn get_content_depth(data: &[u8], pos: &mut usize, depth: u32) -> Option<Content> {
    if depth > MAX_DEPTH {
        return None;
    }
    let tag = *data.get(*pos)?;
    *pos += 1;
    Some(match tag {
        TAG_NULL => Content::Null,
        TAG_FALSE => Content::Bool(false),
        TAG_TRUE => Content::Bool(true),
        TAG_U64 => Content::U64(get_varint(data, pos)?),
        TAG_I64 => Content::I64(unzigzag(get_varint(data, pos)?)),
        TAG_F64 => {
            let end = pos.checked_add(8)?;
            let bytes: [u8; 8] = data.get(*pos..end)?.try_into().ok()?;
            *pos = end;
            Content::F64(f64::from_le_bytes(bytes))
        }
        TAG_STR => Content::Str(get_str(data, pos)?.into()),
        TAG_SEQ => {
            let n = get_varint(data, pos)? as usize;
            // Every element costs at least one tag byte, so a count the
            // remaining input cannot back is corrupt — reject before
            // allocating.
            if n > data.len() - (*pos).min(data.len()) {
                return None;
            }
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(get_content_depth(data, pos, depth + 1)?);
            }
            Content::Seq(items)
        }
        TAG_MAP => {
            let n = get_varint(data, pos)? as usize;
            if n > data.len() - (*pos).min(data.len()) {
                return None;
            }
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let k = get_str(data, pos)?;
                let v = get_content_depth(data, pos, depth + 1)?;
                entries.push((k.into(), v));
            }
            Content::Map(entries)
        }
        _ => return None,
    })
}

// Wire-format building blocks for hand-rolled encoders. A caller that
// writes a value with these MUST emit exactly what `put_value` would for
// the same data (pin it with an equality test) — decoding is always the
// generic tree walk and has no idea who produced the bytes.

/// Append a map header; must be followed by exactly `n` key/value pairs
/// ([`put_key`] then one value each).
pub fn put_map_header(buf: &mut Vec<u8>, n: usize) {
    buf.push(TAG_MAP);
    put_varint(buf, n as u64);
}

/// Append a map key (length-prefixed, no tag — map keys are always
/// strings and carry none).
pub fn put_key(buf: &mut Vec<u8>, k: &str) {
    put_varint(buf, k.len() as u64);
    buf.extend_from_slice(k.as_bytes());
}

/// Append a string value.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.push(TAG_STR);
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Append an unsigned integer value.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.push(TAG_U64);
    put_varint(buf, v);
}

/// Append a boolean value.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(if v { TAG_TRUE } else { TAG_FALSE });
}

/// Encode any serialisable value to bytes.
pub fn encode_value<T: Serialize>(v: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    put_content(&mut buf, &v.serialize_content());
    buf
}

/// Append any serialisable value to an existing buffer.
pub fn put_value<T: Serialize>(buf: &mut Vec<u8>, v: &T) {
    put_content(buf, &v.serialize_content());
}

/// Decode a value at `*pos`, advancing it. `None` on malformed bytes or
/// a tree the type cannot be built from.
pub fn get_value<T: Deserialize>(data: &[u8], pos: &mut usize) -> Option<T> {
    let c = get_content(data, pos)?;
    T::deserialize_content(&c).ok()
}

/// Decode a value from exactly `data` (trailing bytes are an error:
/// a fixed-size artefact with slack is a framing bug, not a value).
pub fn decode_value<T: Deserialize>(data: &[u8]) -> Option<T> {
    let mut pos = 0;
    let v = get_value(data, &mut pos)?;
    (pos == data.len()).then_some(v)
}

/// CRC-32 slice-by-8 lookup tables, built at compile time from the
/// reflected IEEE polynomial. `CRC32_TABLES[0]` is the classic one-byte
/// table; table `k` advances a byte `k` positions through the register,
/// so eight bytes fold in with eight independent loads per iteration.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the guard on
/// every frame. Slice-by-8: the group commit checksums a multi-KiB batch,
/// so a bitwise loop (~30x slower per byte) would hand a measurable slice
/// of each slot budget back to the checksum.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

// ---------------------------------------------------------------------------
// The frame.
//
//   offset  size  field
//   0       4     magic: 0xFE 'N' 'R' <kind> ('J' batch, 'S' snapshot, 'P' pipe)
//   4       1     format version (2)
//   5       4     payload length, u32 LE
//   9       4     CRC-32 over bytes [4..9) ‖ payload, u32 LE
//   13      ...   payload
//
// 0xFE never occurs in UTF-8, so no text (a log line, the libtest banner
// around a test child) can begin a frame. The CRC covers the version and
// the length too, so a flip anywhere past the magic is caught. Version 1
// was the journal's and the snapshot's own headers; a file written under
// them is foreign bytes.
// ---------------------------------------------------------------------------

/// What a frame carries. Each kind has its own magic, so a frame of one
/// kind is foreign bytes to a reader of another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A journal group-commit batch.
    Batch,
    /// A checkpoint image.
    Snapshot,
    /// One supervise-pipe message.
    Pipe,
}

const FRAME_LEAD: u8 = 0xFE;
const FRAME_VERSION: u8 = 2;
const FRAME_HEADER_LEN: usize = 13;

impl FrameKind {
    fn magic(self) -> [u8; 4] {
        let tag = match self {
            FrameKind::Batch => b'J',
            FrameKind::Snapshot => b'S',
            FrameKind::Pipe => b'P',
        };
        [FRAME_LEAD, b'N', b'R', tag]
    }
}

/// Write one frame of `kind` into `buf` (cleared first): `payload` appends
/// the payload, and the header is filled in around it. Returns the payload
/// length, the figure [`open`]'s bound is checked against.
pub fn seal(kind: FrameKind, buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> usize {
    buf.clear();
    buf.extend_from_slice(&kind.magic());
    buf.push(FRAME_VERSION);
    buf.resize(FRAME_HEADER_LEN, 0);
    payload(buf);
    let len = u32::try_from(buf.len() - FRAME_HEADER_LEN).expect("frame payload over 4 GiB");
    buf[5..9].copy_from_slice(&len.to_le_bytes());
    let crc = !crc32_update(crc32_update(!0, &buf[4..9]), &buf[FRAME_HEADER_LEN..]);
    buf[9..13].copy_from_slice(&crc.to_le_bytes());
    len as usize
}

/// What [`open`] found at the start of some bytes.
#[derive(Debug, PartialEq, Eq)]
pub enum Opened<'a> {
    /// A whole, CRC-valid frame: its payload, and the bytes it spans.
    Frame(&'a [u8], usize),
    /// Every byte present fits a frame that runs past the input.
    Short,
    /// Not a frame of this kind: wrong magic or version, a length over
    /// the bound, or a CRC mismatch.
    Bad,
}

/// Open the frame of `kind` at the start of `data`, whose payload may be
/// at most `max_payload` bytes. Never panics on any input.
pub fn open(kind: FrameKind, data: &[u8], max_payload: usize) -> Opened<'_> {
    let seen = data.len().min(4);
    if data[..seen] != kind.magic()[..seen] || data.get(4).is_some_and(|&v| v != FRAME_VERSION) {
        return Opened::Bad;
    }
    let Some(header) = data.first_chunk::<FRAME_HEADER_LEN>() else {
        return Opened::Short;
    };
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    let crc = u32::from_le_bytes([header[9], header[10], header[11], header[12]]);
    if len > max_payload {
        return Opened::Bad;
    }
    let Some(payload) = data.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + len) else {
        return Opened::Short;
    };
    if !crc32_update(crc32_update(!0, &header[4..9]), payload) != crc {
        return Opened::Bad;
    }
    Opened::Frame(payload, FRAME_HEADER_LEN + len)
}

/// Offset of the first byte in `data` that can begin a frame.
pub fn frame_start(data: &[u8]) -> Option<usize> {
    data.iter().position(|&b| b == FRAME_LEAD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn a_sealed_frame_opens_to_its_payload_and_nothing_else_does() {
        let mut frame = Vec::new();
        seal(FrameKind::Pipe, &mut frame, |b| {
            b.extend_from_slice(b"payload")
        });
        let n = frame.len();
        assert_eq!(
            open(FrameKind::Pipe, &frame, 7),
            Opened::Frame(&b"payload"[..], n)
        );
        assert_eq!(
            open(FrameKind::Pipe, &frame, 6),
            Opened::Bad,
            "over the bound"
        );
        assert_eq!(
            open(FrameKind::Batch, &frame, 7),
            Opened::Bad,
            "another kind"
        );
        for cut in 0..n {
            assert_eq!(
                open(FrameKind::Pipe, &frame[..cut], 7),
                Opened::Short,
                "{cut}"
            );
        }
        for i in 0..n {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert_eq!(open(FrameKind::Pipe, &bad, 7), Opened::Bad, "flip at {i}");
        }
        assert_eq!(frame_start(b"text\xFE"), Some(4));
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn content_round_trips() {
        let c = Content::Map(vec![
            ("a".into(), Content::U64(42)),
            ("b".into(), Content::I64(-7)),
            ("c".into(), Content::F64(1.5)),
            (
                "d".into(),
                Content::Seq(vec![
                    Content::Null,
                    Content::Bool(true),
                    Content::Str("hello".into()),
                ]),
            ),
        ]);
        let mut buf = Vec::new();
        put_content(&mut buf, &c);
        let mut pos = 0;
        assert_eq!(get_content(&buf, &mut pos), Some(c));
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncation_and_corruption_never_panic() {
        let c = Content::Seq(vec![
            Content::Str("abc".into()),
            Content::U64(1 << 40),
            Content::Map(vec![("k".into(), Content::F64(2.5))]),
        ]);
        let mut buf = Vec::new();
        put_content(&mut buf, &c);
        // Every truncation point decodes to None or a valid prefix value.
        for cut in 0..buf.len() {
            let mut pos = 0;
            let _ = get_content(&buf[..cut], &mut pos);
        }
        // Every single-byte corruption either still parses or returns None.
        for i in 0..buf.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = buf.clone();
                bad[i] ^= mask;
                let mut pos = 0;
                let _ = get_content(&bad, &mut pos);
            }
        }
    }

    #[test]
    fn oversized_collection_count_is_rejected() {
        // Seq claiming 2^40 elements with 2 bytes of input.
        let mut buf = vec![TAG_SEQ];
        put_varint(&mut buf, 1 << 40);
        let mut pos = 0;
        assert_eq!(get_content(&buf, &mut pos), None);
    }

    #[test]
    fn depth_bomb_is_rejected() {
        // 200 nested single-element sequences.
        let mut buf = Vec::new();
        for _ in 0..200 {
            buf.push(TAG_SEQ);
            buf.push(1);
        }
        buf.push(TAG_NULL);
        let mut pos = 0;
        assert_eq!(get_content(&buf, &mut pos), None);
    }

    #[test]
    fn typed_values_round_trip() {
        let v: Vec<(u64, String)> = vec![(1, "x".into()), (2, "y".into())];
        let bytes = encode_value(&v);
        assert_eq!(decode_value::<Vec<(u64, String)>>(&bytes), Some(v));
        assert_eq!(decode_value::<Vec<(u64, String)>>(&bytes[..3]), None);
    }
}
