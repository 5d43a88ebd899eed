//! Every on-disk format of the persistence layer, and nothing else.
//!
//! This is the only module that knows a magic number or a header offset:
//! the CRC-32 guard, the wire structs, the `NRSB` journal batch and the
//! `NRCK` snapshot. Each artefact has exactly one encoder and one decoder;
//! bytes that match neither magic are foreign and rejected like any other
//! corruption.

use crate::binfmt;
use crate::clock::ClockRecoveryState;
use crate::governor::OverloadGovernor;
use crate::metrics::MetricsSnapshot;
use crate::scope::{CellKnowledge, ScopeStats, SyncState};
use crate::telemetry::TelemetryRecord;
use crate::throughput::ThroughputState;
use crate::tracker::{TrackedUe, TrackerAux};
use nr_phy::types::{Pci, Rnti};
use nr_rrc::RrcSetup;
use serde::{Deserialize, Serialize};

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
/// every snapshot payload and journal batch. Slice-by-8: the group
/// commit checksums a multi-KiB payload per batch, so a bitwise loop
/// (~30x slower per byte) would hand a measurable slice of each slot
/// budget back to the checksum.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// CRC-32 over the concatenation of two slices (header fields + payload)
/// without materialising the concatenation.
fn crc32_pair(a: &[u8], b: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, a), b)
}

/// One state-mutating operation of a processed slot, in occurrence order.
/// Replaying a slot's ops (then overwriting with its [`MicroState`])
/// reconstructs the scope exactly as the live run left it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SlotOp {
    /// A UE entered the tracked set (MSG 4 promotion or hypothesis-retry
    /// restore — the distinction washes out because the entry's aux image
    /// carries the bookkeeping verbatim).
    Track {
        /// The C-RNTI tracked.
        rnti: Rnti,
        /// The RRC Setup its state was built from.
        rrc: RrcSetup,
    },
    /// A telemetry record was produced (activity, HARQ memory, and
    /// throughput-window side effects are re-derived from the record).
    Record(TelemetryRecord),
    /// Housekeeping expired an idle UE.
    Expire {
        /// The expired C-RNTI.
        rnti: Rnti,
    },
}

/// End-of-slot continuous state, carried in every [`SessionState`] and in
/// the *final* record of every group-commit batch so replay never
/// re-derives sync/governor/stats decisions (and so cannot drift from
/// what the live run concluded). Torn batches are discarded whole, so
/// replay always lands on a record that carries one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicroState {
    /// Cell knowledge (PCI, MIB, SIB1, frame anchor).
    pub cell: CellKnowledge,
    /// Sync-health machine state.
    pub sync: SyncState,
    /// Consecutive unhealthy slots feeding that machine.
    pub unhealthy_streak: u64,
    /// PCI believed before a sync loss (reacquisition hint).
    pub last_pci: Option<Pci>,
    /// Session counters.
    pub stats: ScopeStats,
    /// Overload-governor ladder state.
    pub governor: OverloadGovernor,
    /// Tracker bookkeeping (pending TC-RNTIs, expiry shadow, RRC cache).
    pub tracker_aux: TrackerAux,
    /// Timing-recovery loop state (`None` when no clock observables ever
    /// arrived).
    pub clock: Option<ClockRecoveryState>,
}

/// One journal record: everything slot `seq` did to the session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEntry {
    /// The slot this entry describes.
    pub seq: u64,
    /// Whether the front end dropped this slot (diagnostics only; replay
    /// treats both kinds identically).
    pub dropped: bool,
    /// Ordered state mutations.
    pub ops: Vec<SlotOp>,
    /// End-of-slot continuous state. Present on the final record of each
    /// batch; `None` on interior batch records (ops replay alone carries
    /// them, and the batch's closing record re-anchors the continuous
    /// state exactly).
    pub micro: Option<MicroState>,
}

/// The full recoverable image of a session — what a snapshot holds: the
/// continuous state a journal batch also carries, plus what replay
/// rebuilds from ops (UE table, throughput windows) and what only a
/// snapshot keeps (the metrics registry's counters, the out-of-band PCI).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionState {
    /// Serialisation schema version ([`crate::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Next slot to process; doubles as the replay watermark.
    pub slot: u64,
    /// Out-of-band PCI the session was started with.
    pub assumed_pci: Option<Pci>,
    /// End-of-slot continuous state at `slot`.
    pub micro: MicroState,
    /// Tracked UEs sorted by RNTI.
    pub ues: Vec<TrackedUe>,
    /// Throughput estimator (windows + history).
    pub throughput: ThroughputState,
    /// The metrics registry's counters at snapshot time; the scope's own
    /// are `micro.stats`, which journal replay restores exactly.
    pub metrics: MetricsSnapshot,
}

// ---------------------------------------------------------------------------
// Journal: the `NRSB` group-commit batch.
//
//   offset  size  field
//   0       4     magic "NRSB"
//   4       1     format version (1)
//   5       4     payload length, u32 LE
//   9       4     CRC-32 of payload, u32 LE
//   13      4     record count, u32 LE
//   17      ...   payload: `record count` records back to back
//
// Each record:
//   varint  seq
//   u8      flags (bit 0 = slot dropped, bit 1 = MicroState follows ops)
//   varint  op count
//   ...     ops, binfmt-encoded SlotOp values
//   [...]   binfmt-encoded MicroState, iff flag bit 1
//
// The batch is the durability unit: a torn or bit-flipped batch fails its
// length or CRC check and is discarded whole, so replay always stops at a
// batch boundary — whose final record carries the MicroState re-anchor.
// ---------------------------------------------------------------------------

const BATCH_MAGIC: &[u8; 4] = b"NRSB";
const BATCH_VERSION: u8 = 1;
const BATCH_HEADER_LEN: usize = 17;
const FLAG_DROPPED: u8 = 0b01;
const FLAG_MICRO: u8 = 0b10;

/// Checked little-endian u32 read: `None` instead of a panic when the
/// slice is short. Header-length checks at the call sites should make a
/// short read impossible, but decode paths handle untrusted bytes — a
/// framing bug must degrade to "corrupt record", never a panic.
fn read_u32_le(data: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(
        data.get(at..at.checked_add(4)?)?.try_into().ok()?,
    ))
}

/// Checked little-endian u64 read (see [`read_u32_le`]).
fn read_u64_le(data: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        data.get(at..at.checked_add(8)?)?.try_into().ok()?,
    ))
}

/// Hand-rolled encoding of the journal's hottest value, byte-for-byte
/// identical to `binfmt::put_value(buf, op)` (pinned by the
/// `direct_slot_op_encoding_matches_derived` test). The derived path
/// builds a `Content` tree per value — fine for checkpoints, but the
/// dominant CPU cost at slot rate — so the per-slot `Record` variant is
/// written straight to bytes and the rare variants keep the derived path.
fn put_slot_op(buf: &mut Vec<u8>, op: &SlotOp) {
    use nr_phy::dci::DciFormat;
    use nr_phy::pdcch::AggregationLevel;
    use nr_phy::types::RntiType;

    let SlotOp::Record(r) = op else {
        binfmt::put_value(buf, op);
        return;
    };
    binfmt::put_map_header(buf, 1);
    binfmt::put_key(buf, "Record");
    binfmt::put_map_header(buf, 19);
    binfmt::put_key(buf, "schema_version");
    binfmt::put_u64(buf, u64::from(r.schema_version));
    binfmt::put_key(buf, "slot");
    binfmt::put_u64(buf, r.slot);
    binfmt::put_key(buf, "sfn");
    binfmt::put_u64(buf, u64::from(r.sfn));
    binfmt::put_key(buf, "rnti");
    binfmt::put_u64(buf, u64::from(r.rnti.0));
    binfmt::put_key(buf, "rnti_type");
    binfmt::put_str(
        buf,
        match r.rnti_type {
            RntiType::C => "C",
            RntiType::Tc => "Tc",
            RntiType::Ra => "Ra",
            RntiType::Si => "Si",
            RntiType::P => "P",
        },
    );
    binfmt::put_key(buf, "format");
    binfmt::put_str(
        buf,
        match r.format {
            DciFormat::Ul0_1 => "Ul0_1",
            DciFormat::Dl1_1 => "Dl1_1",
        },
    );
    binfmt::put_key(buf, "level");
    binfmt::put_str(
        buf,
        match r.level {
            AggregationLevel::L1 => "L1",
            AggregationLevel::L2 => "L2",
            AggregationLevel::L4 => "L4",
            AggregationLevel::L8 => "L8",
            AggregationLevel::L16 => "L16",
        },
    );
    binfmt::put_key(buf, "cce_start");
    binfmt::put_u64(buf, r.cce_start as u64);
    binfmt::put_key(buf, "prb_start");
    binfmt::put_u64(buf, r.prb_start as u64);
    binfmt::put_key(buf, "prb_len");
    binfmt::put_u64(buf, r.prb_len as u64);
    binfmt::put_key(buf, "symbol_start");
    binfmt::put_u64(buf, r.symbol_start as u64);
    binfmt::put_key(buf, "symbol_len");
    binfmt::put_u64(buf, r.symbol_len as u64);
    binfmt::put_key(buf, "mcs");
    binfmt::put_u64(buf, u64::from(r.mcs));
    binfmt::put_key(buf, "ndi");
    binfmt::put_u64(buf, u64::from(r.ndi));
    binfmt::put_key(buf, "rv");
    binfmt::put_u64(buf, u64::from(r.rv));
    binfmt::put_key(buf, "harq_id");
    binfmt::put_u64(buf, u64::from(r.harq_id));
    binfmt::put_key(buf, "layers");
    binfmt::put_u64(buf, r.layers as u64);
    binfmt::put_key(buf, "tbs");
    binfmt::put_u64(buf, u64::from(r.tbs));
    binfmt::put_key(buf, "is_retx");
    binfmt::put_bool(buf, r.is_retx);
}

fn finish_batch(buf: &mut [u8], n_records: u32) {
    let payload_len = (buf.len() - BATCH_HEADER_LEN) as u32;
    let crc = crc32(&buf[BATCH_HEADER_LEN..]);
    buf[..4].copy_from_slice(BATCH_MAGIC);
    buf[4] = BATCH_VERSION;
    buf[5..9].copy_from_slice(&payload_len.to_le_bytes());
    buf[9..13].copy_from_slice(&crc.to_le_bytes());
    buf[13..17].copy_from_slice(&n_records.to_le_bytes());
}

/// Encode a slice of entries as one sealed binary batch (each entry's
/// `micro` presence is honoured verbatim).
pub fn encode_batch(entries: &[JournalEntry]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_batch_into(&mut buf, entries);
    buf
}

/// [`encode_batch`] into a reused scratch buffer (cleared first). Encoding
/// runs on the writer thread, off the capture hot path — the hot path
/// only moves already-owned [`JournalEntry`] values into the batch.
pub(super) fn encode_batch_into(buf: &mut Vec<u8>, entries: &[JournalEntry]) {
    buf.clear();
    buf.resize(BATCH_HEADER_LEN, 0);
    for e in entries {
        binfmt::put_varint(buf, e.seq);
        let dropped = if e.dropped { FLAG_DROPPED } else { 0 };
        let micro = if e.micro.is_some() { FLAG_MICRO } else { 0 };
        buf.push(dropped | micro);
        binfmt::put_varint(buf, e.ops.len() as u64);
        for op in &e.ops {
            put_slot_op(buf, op);
        }
        if let Some(m) = &e.micro {
            binfmt::put_value(buf, m);
        }
    }
    finish_batch(buf, entries.len() as u32);
}

/// Parse one batch at the start of `data`. Returns the decoded entries and
/// the byte length consumed, or `None` for anything torn, corrupt,
/// non-monotonic, or from a future format version.
fn parse_batch(data: &[u8], prev_seq: Option<u64>) -> Option<(Vec<JournalEntry>, usize)> {
    if data.len() < BATCH_HEADER_LEN || &data[..4] != BATCH_MAGIC || data[4] != BATCH_VERSION {
        return None;
    }
    let payload_len = read_u32_le(data, 5)? as usize;
    let crc = read_u32_le(data, 9)?;
    let n_records = read_u32_le(data, 13)?;
    let end = BATCH_HEADER_LEN.checked_add(payload_len)?;
    if end > data.len() {
        return None; // torn tail
    }
    let payload = &data[BATCH_HEADER_LEN..end];
    if crc32(payload) != crc {
        return None;
    }
    // The writer never seals an empty batch, and each record costs at
    // least 3 bytes: a count of zero, or one the payload cannot back, is
    // corrupt (and the CRC matching it would be miraculous).
    if n_records == 0 || n_records as usize > payload_len {
        return None;
    }
    let mut entries = Vec::with_capacity(n_records as usize);
    let mut pos = 0usize;
    let mut prev = prev_seq;
    for _ in 0..n_records {
        let seq = binfmt::get_varint(payload, &mut pos)?;
        // Sequences must strictly advance within a file; a repeat or a
        // jump backwards means the file was stitched or corrupted.
        if prev.is_some_and(|p| seq <= p) {
            return None;
        }
        prev = Some(seq);
        let flags = *payload.get(pos)?;
        pos += 1;
        if flags & !(FLAG_DROPPED | FLAG_MICRO) != 0 {
            return None;
        }
        let n_ops = binfmt::get_varint(payload, &mut pos)? as usize;
        if n_ops > payload.len().saturating_sub(pos) {
            return None;
        }
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            ops.push(binfmt::get_value::<SlotOp>(payload, &mut pos)?);
        }
        let micro = if flags & FLAG_MICRO != 0 {
            Some(binfmt::get_value::<MicroState>(payload, &mut pos)?)
        } else {
            None
        };
        entries.push(JournalEntry {
            seq,
            dropped: flags & FLAG_DROPPED != 0,
            ops,
            micro,
        });
    }
    if pos != payload.len() {
        return None; // slack bytes inside a CRC-valid payload: framing bug
    }
    Some((entries, end))
}

/// Parse one journal file's bytes, stopping at the first invalid batch
/// (truncated tail, bad CRC, empty or malformed payload, non-monotonic
/// sequence, unknown magic or version). Returns the valid prefix and how
/// many rejected tails were discarded: everything from the first bad byte
/// on is one untrusted tail, so `1` if any suffix was rejected, else `0`.
pub fn read_journal_bytes(data: &[u8]) -> (Vec<JournalEntry>, u64) {
    let mut out: Vec<JournalEntry> = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        let prev = out.last().map(|e| e.seq);
        match parse_batch(&data[pos..], prev) {
            Some((mut entries, used)) => {
                out.append(&mut entries);
                pos += used;
            }
            None => break,
        }
    }
    (out, u64::from(pos < data.len()))
}

// ---------------------------------------------------------------------------
// Checkpoints: the `NRCK` snapshot.
//
//   offset  size  field
//   0       4     magic "NRCK"
//   4       1     schema version
//   5       8     snapshot slot, u64 LE
//   13      4     payload length, u32 LE
//   17      4     CRC-32 over bytes [4..17) + payload, u32 LE
//   21      ...   payload: the binfmt encoding of one `SessionState`
//
// Every snapshot is the whole image, so a kept file never depends on
// another. The CRC covers the header metadata too, so a bit flip anywhere
// in the file is caught.
// ---------------------------------------------------------------------------

const SNAP_MAGIC: &[u8; 4] = b"NRCK";
const SNAP_HEADER_LEN: usize = 21;
/// Header bytes under the CRC: version, slot, payload length.
const SNAP_META: std::ops::Range<usize> = 4..17;

/// Assemble the snapshot file image of `state`.
pub(super) fn encode_snapshot(state: &SessionState) -> Vec<u8> {
    let mut image = vec![0u8; SNAP_HEADER_LEN];
    binfmt::put_value(&mut image, state);
    let payload_len = (image.len() - SNAP_HEADER_LEN) as u32;
    image[..4].copy_from_slice(SNAP_MAGIC);
    image[4] = state.schema_version.min(u8::MAX as u32) as u8;
    image[5..13].copy_from_slice(&state.slot.to_le_bytes());
    image[13..17].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32_pair(&image[SNAP_META], &image[SNAP_HEADER_LEN..]);
    image[17..21].copy_from_slice(&crc.to_le_bytes());
    image
}

/// Decode the snapshot file `data`, expected to describe `slot`. `None`
/// for anything torn, corrupt, foreign or future-schema: magic, schema
/// version, slot, exact payload length and the CRC are checked before the
/// payload is decoded, and a CRC-valid payload that is not a
/// [`SessionState`] of that slot is rejected like any other corruption.
pub(super) fn decode_snapshot(data: &[u8], slot: u64) -> Option<SessionState> {
    if data.len() < SNAP_HEADER_LEN || &data[..4] != SNAP_MAGIC {
        return None;
    }
    if u32::from(data[4]) > crate::SCHEMA_VERSION || read_u64_le(data, 5)? != slot {
        return None;
    }
    let payload = &data[SNAP_HEADER_LEN..];
    if payload.len() != read_u32_le(data, 13)? as usize
        || crc32_pair(&data[SNAP_META], payload) != read_u32_le(data, 17)?
    {
        return None;
    }
    let state: SessionState = binfmt::decode_value(payload)?;
    (state.schema_version <= crate::SCHEMA_VERSION && state.slot == slot).then_some(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScopeConfig;
    use crate::scope::NrScope;

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_pair(b"12345", b"6789"), 0xCBF4_3926);
    }

    /// The hand-rolled hot-path encoder must stay byte-for-byte identical
    /// to the derived serialization it shortcuts — journals decode
    /// through the generic path, so any divergence is silent corruption.
    #[test]
    fn direct_slot_op_encoding_matches_derived() {
        use nr_phy::dci::DciFormat;
        use nr_phy::pdcch::AggregationLevel;
        use nr_phy::types::RntiType;

        let mut ops = Vec::new();
        for (i, (rt, fmt, lvl)) in [
            (RntiType::C, DciFormat::Dl1_1, AggregationLevel::L1),
            (RntiType::Tc, DciFormat::Ul0_1, AggregationLevel::L2),
            (RntiType::Ra, DciFormat::Dl1_1, AggregationLevel::L4),
            (RntiType::Si, DciFormat::Ul0_1, AggregationLevel::L8),
            (RntiType::P, DciFormat::Dl1_1, AggregationLevel::L16),
        ]
        .into_iter()
        .enumerate()
        {
            ops.push(SlotOp::Record(TelemetryRecord {
                schema_version: crate::SCHEMA_VERSION,
                slot: 1_000_000 + i as u64,
                sfn: 512 + i as u32,
                rnti: Rnti(0x4601 + i as u16),
                rnti_type: rt,
                format: fmt,
                level: lvl,
                cce_start: 3 * i,
                prb_start: 7 * i,
                prb_len: 24,
                symbol_start: 1,
                symbol_len: 13,
                mcs: 17,
                ndi: (i % 2) as u8,
                rv: 2,
                harq_id: i as u8,
                layers: 2,
                tbs: 48_384 + i as u32,
                is_retx: i % 2 == 1,
            }));
        }
        ops.push(SlotOp::Expire { rnti: Rnti(0x4601) });
        for op in &ops {
            let mut direct = Vec::new();
            put_slot_op(&mut direct, op);
            let derived = binfmt::encode_value(op);
            assert_eq!(direct, derived, "encoding diverged for {op:?}");
        }
    }

    fn dummy_micro() -> MicroState {
        MicroState {
            cell: CellKnowledge::default(),
            sync: SyncState::Synced,
            unhealthy_streak: 0,
            last_pci: None,
            stats: ScopeStats::default(),
            governor: OverloadGovernor::new(crate::governor::GovernorConfig::default()),
            tracker_aux: TrackerAux::default(),
            clock: None,
        }
    }

    fn dummy_entry(seq: u64) -> JournalEntry {
        JournalEntry {
            seq,
            dropped: false,
            ops: Vec::new(),
            micro: Some(dummy_micro()),
        }
    }

    #[test]
    fn binary_batch_round_trip() {
        let entries: Vec<JournalEntry> = (0..5)
            .map(|seq| JournalEntry {
                micro: (seq == 4).then(dummy_micro),
                ..dummy_entry(seq)
            })
            .collect();
        let batch = encode_batch(&entries);
        let (out, discarded) = read_journal_bytes(&batch);
        assert_eq!(out.len(), 5);
        assert_eq!(discarded, 0);
        assert!(out[..4].iter().all(|e| e.micro.is_none()));
        assert!(out[4].micro.is_some(), "trailer micro survives");
    }

    #[test]
    fn torn_binary_batch_is_discarded_whole() {
        let mut buf = encode_batch(&[dummy_entry(0), dummy_entry(1)]);
        let good_len = buf.len();
        buf.extend_from_slice(&encode_batch(&[dummy_entry(2), dummy_entry(3)]));
        for cut in [
            good_len + 3,                    // torn batch header
            good_len + BATCH_HEADER_LEN + 4, // torn record mid-batch
            buf.len() - 10,                  // torn inside the final record
            buf.len() - 1,                   // one byte short of complete
        ] {
            let (entries, discarded) = read_journal_bytes(&buf[..cut]);
            assert_eq!(entries.len(), 2, "cut at {cut}: whole torn batch dropped");
            assert_eq!(discarded, 1);
        }
        // A rejected tail counts once, however many newline bytes it holds.
        buf.extend_from_slice(b"x\ny\nz\n");
        let (entries, discarded) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 4);
        assert_eq!(discarded, 1);
    }

    #[test]
    fn flipped_batch_byte_stops_replay_at_the_bad_batch() {
        let mut good = encode_batch(&[dummy_entry(0), dummy_entry(1)]);
        let first_len = good.len();
        good.extend_from_slice(&encode_batch(&[dummy_entry(2)]));
        good.extend_from_slice(&encode_batch(&[dummy_entry(3)]));
        for flip_at in [
            first_len + BATCH_HEADER_LEN + 2, // payload byte of batch 2
            first_len + 9,                    // CRC field of batch 2
        ] {
            let mut bad = good.clone();
            bad[flip_at] ^= 0x40;
            let (entries, discarded) = read_journal_bytes(&bad);
            assert_eq!(
                entries.len(),
                2,
                "flip at {flip_at}: replay stops before the corrupt batch, \
                 though a valid one follows it"
            );
            assert_eq!(discarded, 1);
        }
    }

    #[test]
    fn future_batch_version_stops_replay() {
        let mut buf = encode_batch(&[dummy_entry(0)]);
        let good_len = buf.len();
        buf.extend_from_slice(&encode_batch(&[dummy_entry(1)]));
        buf[good_len + 4] = BATCH_VERSION + 1;
        let (entries, discarded) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 1);
        assert_eq!(discarded, 1);
    }

    #[test]
    fn zero_length_record_is_rejected() {
        let mut buf = encode_batch(&[dummy_entry(0)]);
        // A sealed batch of no records: valid magic, length and CRC.
        buf.extend_from_slice(&encode_batch(&[]));
        buf.extend_from_slice(&encode_batch(&[dummy_entry(1)]));
        let (entries, discarded) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 1);
        assert_eq!(discarded, 1, "everything after the bad batch distrusted");
    }

    #[test]
    fn non_monotonic_sequence_is_rejected() {
        // Across batches: the repeat is rejected, the first batch stands.
        let mut buf = encode_batch(&[dummy_entry(3)]);
        buf.extend_from_slice(&encode_batch(&[dummy_entry(3)]));
        let (entries, discarded) = read_journal_bytes(&buf);
        assert_eq!(entries.len(), 1);
        assert_eq!(discarded, 1);
        // Within one batch: the batch is the unit, so it is rejected whole.
        let (entries, discarded) =
            read_journal_bytes(&encode_batch(&[dummy_entry(3), dummy_entry(3)]));
        assert!(entries.is_empty());
        assert_eq!(discarded, 1);
    }

    /// Untrusted-input regression: every truncated prefix of a valid
    /// batch and snapshot must parse (to rejection) without panicking —
    /// the raw `try_into().unwrap()` reads these decoders used to do
    /// would abort on exactly these inputs.
    #[test]
    fn truncated_batch_and_snapshot_prefixes_never_panic() {
        let entries: Vec<JournalEntry> = (0..3).map(dummy_entry).collect();
        let batch = encode_batch(&entries);
        for cut in 0..batch.len() {
            let prefix = &batch[..cut];
            let _ = parse_batch(prefix, None);
            let (parsed, _) = read_journal_bytes(prefix);
            assert!(parsed.is_empty(), "prefix of len {cut} yielded entries");
        }

        let scope = NrScope::new(ScopeConfig::default(), Some(Pci(3)));
        let mut state = scope.session_state();
        state.slot = 42;
        let image = encode_snapshot(&state);
        assert!(decode_snapshot(&image, 42).is_some(), "image is valid");
        assert!(decode_snapshot(&image, 43).is_none(), "wrong slot");
        for cut in 0..image.len() {
            assert!(
                decode_snapshot(&image[..cut], 42).is_none(),
                "truncated snapshot (len {cut}) accepted"
            );
        }
    }
}
