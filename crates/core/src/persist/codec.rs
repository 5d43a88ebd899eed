//! Every on-disk payload of the persistence layer, and nothing else: the
//! wire structs, the journal batch and the snapshot. Each is the payload
//! of one [`binfmt::seal`]ed frame of its own kind, with exactly one
//! encoder and one decoder; bytes that [`binfmt::open`] does not accept as
//! that kind are foreign and rejected like any other corruption.

use crate::binfmt::{self, FrameKind};
use crate::clock::ClockRecoveryState;
use crate::metrics::MetricsSnapshot;
use crate::scope::{CellKnowledge, ScopeStats, SyncState};
use crate::telemetry::TelemetryRecord;
use crate::throughput::ThroughputState;
use crate::tracker::{TrackedUe, TrackerAux};
use nr_mac::NUM_HARQ_PROCESSES;
use nr_phy::types::{Pci, Rnti};
use nr_rrc::RrcSetup;
use serde::{Deserialize, Serialize};

/// One state-mutating operation of a processed slot, in occurrence order:
/// what the live slot handed `NrScope::apply`. Replay hands each to the
/// same function (then overwrites with the batch's [`MicroState`]), so it
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
    /// A telemetry record was produced: it stamps its UE's activity and
    /// HARQ memory, and a new downlink block enters its throughput window.
    Record(TelemetryRecord),
    /// Housekeeping expired an idle UE.
    Expire {
        /// The expired C-RNTI.
        rnti: Rnti,
    },
}

/// End-of-slot continuous state, carried in every [`SessionState`] and in
/// the *final* record of every group-commit batch so replay never
/// re-derives sync/stats decisions (and so cannot drift from
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
// Journal: the group-commit batch, the payload of a `FrameKind::Batch`
// frame.
//
//   varint  record count
//   then each record:
//   varint  seq
//   u8      flags (bit 0 = slot dropped, bit 1 = MicroState follows ops)
//   varint  op count
//   ...     ops, binfmt-encoded SlotOp values
//   [...]   binfmt-encoded MicroState, iff flag bit 1
//
// The batch is the durability unit: a torn or bit-flipped batch fails its
// frame's length or CRC check and is discarded whole, so replay always
// stops at a batch boundary — whose final record carries the MicroState
// re-anchor.
// ---------------------------------------------------------------------------

const FLAG_DROPPED: u8 = 0b01;
const FLAG_MICRO: u8 = 0b10;

/// Hand-rolled encoding of the journal's hottest value, byte-for-byte
/// identical to `binfmt::put_value(buf, op)` (pinned by the
/// `direct_slot_op_encoding_matches_derived` test). The derived path
/// builds a `Content` tree per value — fine for checkpoints, but the
/// dominant CPU cost at slot rate — so the per-slot `Record` variant is
/// written straight to bytes and the rare variants keep the derived path.
/// Kept because it was measured: encoding every op through the derived
/// path read `persist.encode_batch_ns_per_entry` 2,362 ns against this
/// encoder's 958 on `msg-durable`, and made that workload slower in 5 of 6
/// seed pairs (median ≈ 190k → 178k slots/s).
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
    binfmt::seal(FrameKind::Batch, buf, |buf| {
        binfmt::put_varint(buf, entries.len() as u64);
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
    });
}

/// Parse one batch at the start of `data`. Returns the decoded entries and
/// the byte length consumed, or `None` for anything torn, corrupt,
/// non-monotonic, naming a HARQ process no UE has, or from another format
/// version.
fn parse_batch(data: &[u8], prev_seq: Option<u64>) -> Option<(Vec<JournalEntry>, usize)> {
    let (payload, end) = binfmt::open(FrameKind::Batch, data)?;
    let mut pos = 0usize;
    let n_records = binfmt::get_varint(payload, &mut pos)?;
    // The writer never seals an empty batch, and each record costs at
    // least 3 bytes: a count of zero, or one the payload cannot back, is
    // corrupt (and the CRC matching it would be miraculous).
    if n_records == 0 || n_records > payload.len() as u64 {
        return None;
    }
    let mut entries = Vec::with_capacity(n_records as usize);
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
            let op = binfmt::get_value::<SlotOp>(payload, &mut pos)?;
            // A record names one of its UE's HARQ processes, or is corrupt.
            if matches!(&op, SlotOp::Record(r) if usize::from(r.harq_id) >= NUM_HARQ_PROCESSES) {
                return None;
            }
            ops.push(op);
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
// Checkpoints: the snapshot, one `FrameKind::Snapshot` frame filling its
// file, whose payload is the binfmt encoding of one `SessionState`. Every
// snapshot is the whole image, so a kept file never depends on another.
// ---------------------------------------------------------------------------

/// Assemble the snapshot file image of `state`.
pub(super) fn encode_snapshot(state: &SessionState) -> Vec<u8> {
    let mut image = Vec::new();
    binfmt::seal(FrameKind::Snapshot, &mut image, |b| {
        binfmt::put_value(b, state)
    });
    image
}

/// Decode the snapshot file `data`, expected to describe `slot`. `None`
/// for anything torn, corrupt, foreign or future-schema: the frame must
/// open and fill the file, and a CRC-valid payload that is not a
/// [`SessionState`] of that slot is rejected like any other corruption.
pub(super) fn decode_snapshot(data: &[u8], slot: u64) -> Option<SessionState> {
    let (payload, len) = binfmt::open(FrameKind::Snapshot, data)?;
    let state: SessionState = binfmt::decode_value(payload)?;
    (len == data.len() && state.schema_version <= crate::SCHEMA_VERSION && state.slot == slot)
        .then_some(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScopeConfig;
    use crate::scope::NrScope;

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

    /// A snapshot whose throughput history shares its chunks with a live
    /// estimator — pruned inside a chunk, recorded past after the freeze —
    /// encodes to the bytes of the same samples held as flat `Vec`s, the
    /// type the history had before it was chunked, and decodes back to
    /// them.
    #[test]
    fn shared_history_snapshot_encodes_as_flat_samples() {
        use crate::metrics::MetricsSnapshot;
        use crate::throughput::ThroughputEstimator;
        use crate::tracker::TrackedUe;

        #[derive(Serialize)]
        struct FlatThroughput {
            windows: Vec<(Rnti, Vec<(u64, u64)>)>,
            history: Vec<(Rnti, Vec<(u64, u64)>)>,
            retention_slots: u64,
            newest_slot: u64,
        }
        #[derive(Serialize)]
        struct FlatSessionState {
            schema_version: u32,
            slot: u64,
            assumed_pci: Option<Pci>,
            micro: MicroState,
            ues: Vec<TrackedUe>,
            throughput: FlatThroughput,
            metrics: MetricsSnapshot,
        }

        let mut live = ThroughputEstimator::with_retention(1000);
        for slot in 0..1200u64 {
            for rnti in (1..=3).filter(|r| slot % r == 0) {
                live.record(Rnti(rnti as u16), slot, 1000 + slot as u32, 50);
            }
        }
        let mut state = NrScope::new(ScopeConfig::default(), Some(Pci(1))).session_state();
        state.throughput = live.state();
        for slot in 1200..1300u64 {
            live.record(Rnti(1), slot, 7, 50);
        }
        let flat = |h: &crate::throughput::History| h.iter().copied().collect::<Vec<_>>();
        let t = &state.throughput;
        let expected = FlatSessionState {
            schema_version: state.schema_version,
            slot: state.slot,
            assumed_pci: state.assumed_pci,
            micro: state.micro.clone(),
            ues: state.ues.clone(),
            throughput: FlatThroughput {
                windows: t.windows.clone(),
                history: t.history.iter().map(|(r, h)| (*r, flat(h))).collect(),
                retention_slots: t.retention_slots,
                newest_slot: t.newest_slot,
            },
            metrics: state.metrics.clone(),
        };
        let history = &expected.throughput.history;
        assert_eq!(history.len(), 3);
        assert!(history.iter().all(|(_, h)| h.len() > 300));
        let mut image = Vec::new();
        binfmt::seal(FrameKind::Snapshot, &mut image, |b| {
            binfmt::put_value(b, &expected)
        });
        assert!(encode_snapshot(&state) == image, "snapshot bytes moved");
        let back = decode_snapshot(&image, state.slot).expect("decodes");
        let back: Vec<_> = (back.throughput.history.iter())
            .map(|(r, h)| (*r, flat(h)))
            .collect();
        assert_eq!(&back, history);
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

    /// Bytes of the frame header every batch starts with.
    const HEADER_LEN: usize = 13;

    #[test]
    fn torn_binary_batch_is_discarded_whole() {
        let mut buf = encode_batch(&[dummy_entry(0), dummy_entry(1)]);
        let good_len = buf.len();
        buf.extend_from_slice(&encode_batch(&[dummy_entry(2), dummy_entry(3)]));
        for cut in [
            good_len + 3,              // torn batch header
            good_len + HEADER_LEN + 4, // torn record mid-batch
            buf.len() - 10,            // torn inside the final record
            buf.len() - 1,             // one byte short of complete
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
            first_len + HEADER_LEN + 2, // payload byte of batch 2
            first_len + 9,              // CRC field of batch 2
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
        buf[good_len + 4] += 1; // the version byte, after the magic
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
    /// batch and snapshot must parse (to rejection) without panicking.
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
