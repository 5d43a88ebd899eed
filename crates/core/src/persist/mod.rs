//! Crash-safe session persistence: checkpoint + journal + warm restart.
//!
//! NR-Scope runs unattended for days against live cells; a process crash
//! must not cost the tracked C-RNTI population, throughput windows, or
//! sync-health state (re-discovering UEs passively takes until each next
//! RACHes). This module makes scope state durable with two artefacts:
//!
//! * **Snapshots** (`ckpt-<slot>.snap`): a versioned binary image of all
//!   recoverable state ([`SessionState`]), written atomically
//!   (tmp + fsync + rename + directory fsync) on a slot-count cadence
//!   from a background writer thread. Every snapshot is the whole
//!   image — none depends on another file — and the newest two are kept.
//! * **Journal** (`journal-<start>.jnl`): an append-only record of every
//!   slot since the journal file's start, written as CRC-guarded binary
//!   **group-commit batches**: the hot path appends records to an
//!   in-memory buffer and a dedicated writer thread pushes sealed
//!   batches to the OS, amortising the write syscall across
//!   [`PersistConfig::flush_max_slots`] slots (or
//!   [`PersistConfig::flush_max_latency_us`], whichever trips first).
//!   `kill -9` loses at most the bounded tail that was not yet handed
//!   to the OS — a configurable loss window instead of the old
//!   flush-per-slot lose-at-most-one guarantee, at ~25× less hot-path
//!   cost. Checkpoint, rotation, and shutdown act as barriers that seal
//!   and drain the in-flight batch first.
//!
//! Recovery loads the newest *valid* snapshot (torn or corrupt ones are
//! detected by CRC + length prefix and skipped — never panic, never load
//! garbage) and replays the journal tail on top. Replay is idempotent via
//! the slot-sequence watermark: entries below the snapshot's slot are
//! already folded in and skip, so bytes are never double-counted no
//! matter how snapshot and journal overlap. Each artefact is one kind of
//! [`binfmt`](crate::binfmt) frame with one payload format; bytes that do
//! not open as the expected kind are foreign and count as corruption.
//!
//! | Module | Holds |
//! |---|---|
//! | `storage` | [`StorageBackend`] / [`StorageFile`] / [`RealBackend`] and their seeded [`FaultyBackend`] test double |
//! | `codec` | every on-disk payload: the journal batch, the snapshot, the wire structs |
//! | `writer` | a session's group-commit journal-writer thread, its checkpoint thread and the [`DurabilityRung`] ladder |
//! | `session` | [`SessionStore`], [`PersistConfig`], [`PersistentSession`] |

mod codec;
mod session;
mod storage;
mod writer;

pub use crate::binfmt::crc32;
pub use codec::{encode_batch, read_journal_bytes, JournalEntry, MicroState, SessionState, SlotOp};
pub use session::{PersistConfig, PersistentSession, RecoveryReport, SessionStore};
pub use storage::{
    FaultKind, FaultyBackend, RealBackend, StorageBackend, StorageFaultSchedule, StorageFile,
};
pub use writer::DurabilityRung;
