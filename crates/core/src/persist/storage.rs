//! Storage backend abstraction + deterministic fault injection.
//!
//! Every *mutating* file operation the persistence layer performs — open
//! for append, truncating create, write, fsync, rename, dir-fsync,
//! remove — goes through a [`StorageBackend`], so a test or bench can swap
//! the real filesystem for a [`FaultyBackend`] that injects scheduled
//! faults at chosen operation counts, the way `ImpairmentSchedule`
//! injects radio faults. Read paths stay direct `std::fs`: a read failure
//! is already handled by recovery's corruption tolerance and cannot lose
//! data that was durably written.

use crate::worker::lock_clean;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A writable file handle issued by a [`StorageBackend`].
pub trait StorageFile: Send {
    /// Write all of `buf` (the durability unit — a whole journal batch or
    /// snapshot image per call).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush file contents and metadata to the device.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncate (or extend) to exactly `len` bytes — the retry path cuts
    /// a short write back to the last committed batch boundary with this.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Current file length in bytes.
    fn file_len(&self) -> io::Result<u64>;
}

/// The set of mutating filesystem operations the persistence layer needs.
pub trait StorageBackend: std::fmt::Debug + Send + Sync {
    /// `fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Open (creating if needed) for append — the journal path.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Create truncating — tmp snapshots and the re-probe file.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Atomic rename (snapshot tmp → final name).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete a file (pruning).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsync a directory so a rename within it is itself durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealBackend;

impl StorageFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }

    fn file_len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

impl StorageBackend for RealBackend {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(
            OpenOptions::new().create(true).append(true).open(path)?,
        ))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(File::create(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

fn err_eio() -> io::Error {
    io::Error::from_raw_os_error(5) // EIO
}

fn err_enospc() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC
}

pub(super) fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(28)
}

/// One kind of injectable storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `write` fails with `EIO` (transient within its window, persistent
    /// when the window is unbounded).
    WriteEio,
    /// `write` lands only the first half of the buffer, then fails with
    /// `EIO` — the classic torn append.
    WriteShort,
    /// `write` fails with `ENOSPC` (disk full).
    WriteEnospc,
    /// `write` reports success but the bytes are silently dropped — the
    /// fsync-gate lie (data lost despite every syscall reporting ok).
    WriteFsyncGate,
    /// `fsync` fails with `EIO` (also fails the re-probe).
    FsyncEio,
    /// `rename` fails with `EIO` (breaks atomic snapshot installs).
    RenameFail,
    /// `open`/`create` fails with `EIO` (dead disk on reopen).
    OpenFail,
}

impl FaultKind {
    fn is_write(self) -> bool {
        matches!(
            self,
            FaultKind::WriteEio
                | FaultKind::WriteShort
                | FaultKind::WriteEnospc
                | FaultKind::WriteFsyncGate
        )
    }
}

/// Deterministic fault schedule, mirroring `ImpairmentSchedule`: each
/// fault kind fires inside half-open windows of *operation indices*,
/// counted per operation class (writes, fsyncs, renames, opens — each
/// class has its own counter, shared across every file the backend ever
/// issues). Every fault is scripted; nothing is drawn at random.
#[derive(Debug, Clone, Default)]
pub struct StorageFaultSchedule {
    faults: Vec<(FaultKind, Range<u64>)>,
}

impl StorageFaultSchedule {
    /// An empty schedule, as [`StorageFaultSchedule::default`]. The seed
    /// is ignored (every fault is scripted); the signature stays because
    /// `benchmark/tests/durable_demotion.rs` calls it.
    pub fn new(_seed: u64) -> StorageFaultSchedule {
        StorageFaultSchedule::default()
    }

    /// Rename ops in `window` fail with `EIO`. Every other fault kind is
    /// armed at runtime through [`FaultyBackend::arm`].
    pub fn with_rename_failures(mut self, window: Range<u64>) -> StorageFaultSchedule {
        self.faults.push((FaultKind::RenameFail, window));
        self
    }
}

#[derive(Debug)]
struct FaultState {
    schedule: StorageFaultSchedule,
    writes: u64,
    fsyncs: u64,
    renames: u64,
    opens: u64,
    /// Writes attempted before this instant block until it.
    stall_until: Option<Instant>,
}

impl FaultState {
    fn fault_at(&self, class: impl Fn(FaultKind) -> bool, i: u64) -> Option<FaultKind> {
        self.schedule
            .faults
            .iter()
            .find(|(k, w)| class(*k) && w.contains(&i))
            .map(|(k, _)| *k)
    }
}

/// A [`StorageBackend`] wrapping the real filesystem that injects the
/// faults its [`StorageFaultSchedule`] dictates. Clones share one fault
/// state, so operation counts are global across every file and clone —
/// deterministic given a deterministic operation sequence.
#[derive(Debug, Clone)]
pub struct FaultyBackend {
    state: Arc<Mutex<FaultState>>,
}

impl FaultyBackend {
    /// Wrap the real filesystem with `schedule`.
    pub fn new(schedule: StorageFaultSchedule) -> FaultyBackend {
        FaultyBackend {
            state: Arc::new(Mutex::new(FaultState {
                schedule,
                writes: 0,
                fsyncs: 0,
                renames: 0,
                opens: 0,
                stall_until: None,
            })),
        }
    }

    /// Arm another fault window at runtime (op indices stay absolute, so
    /// `backend.writes()..` makes a fault persistent "from now on").
    pub fn arm(&self, kind: FaultKind, window: Range<u64>) {
        lock_clean(&self.state).schedule.faults.push((kind, window));
    }

    /// Stall the disk for `dur` from now, as a blocked disk would: every
    /// write attempted before the deadline sleeps until it, then proceeds
    /// (or meets whatever fault is armed). Nothing fails; whoever writes
    /// just stops making progress.
    pub fn stall_writes(&self, dur: Duration) {
        lock_clean(&self.state).stall_until = Some(Instant::now() + dur);
    }

    /// Disarm every scheduled fault (the "disk recovered" transition).
    pub fn clear_faults(&self) {
        lock_clean(&self.state).schedule.faults.clear();
    }

    /// Write operations attempted so far (faulted or not).
    pub fn writes(&self) -> u64 {
        lock_clean(&self.state).writes
    }

    /// Rename operations attempted so far.
    pub fn renames(&self) -> u64 {
        lock_clean(&self.state).renames
    }

    /// Open/create operations attempted so far.
    pub fn opens(&self) -> u64 {
        lock_clean(&self.state).opens
    }

    fn next_write_fault(&self) -> Option<FaultKind> {
        let stall_until = lock_clean(&self.state).stall_until;
        if let Some(until) = stall_until {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
        }
        let mut s = lock_clean(&self.state);
        let i = s.writes;
        s.writes += 1;
        s.fault_at(FaultKind::is_write, i)
    }

    fn next_fsync_fault(&self) -> Option<FaultKind> {
        let mut s = lock_clean(&self.state);
        let i = s.fsyncs;
        s.fsyncs += 1;
        s.fault_at(|k| k == FaultKind::FsyncEio, i)
    }

    fn next_rename_fault(&self) -> Option<FaultKind> {
        let mut s = lock_clean(&self.state);
        let i = s.renames;
        s.renames += 1;
        s.fault_at(|k| k == FaultKind::RenameFail, i)
    }

    fn next_open_fault(&self) -> Option<FaultKind> {
        let mut s = lock_clean(&self.state);
        let i = s.opens;
        s.opens += 1;
        s.fault_at(|k| k == FaultKind::OpenFail, i)
    }
}

struct FaultyFile {
    real: File,
    faults: FaultyBackend,
}

impl StorageFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.faults.next_write_fault() {
            None => io::Write::write_all(&mut self.real, buf),
            Some(FaultKind::WriteEio) => Err(err_eio()),
            Some(FaultKind::WriteEnospc) => Err(err_enospc()),
            Some(FaultKind::WriteShort) => {
                let _ = io::Write::write_all(&mut self.real, &buf[..buf.len() / 2]);
                Err(err_eio())
            }
            // The lie: every syscall reports success, the bytes are gone.
            Some(FaultKind::WriteFsyncGate) => Ok(()),
            Some(_) => Err(err_eio()),
        }
    }

    fn sync_all(&mut self) -> io::Result<()> {
        match self.faults.next_fsync_fault() {
            None => self.real.sync_all(),
            Some(_) => Err(err_eio()),
        }
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        // Not faulted: truncate is the *recovery* half of the retry path.
        self.real.set_len(len)
    }

    fn file_len(&self) -> io::Result<u64> {
        Ok(self.real.metadata()?.len())
    }
}

impl StorageBackend for FaultyBackend {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        if self.next_open_fault().is_some() {
            return Err(err_eio());
        }
        Ok(Box::new(FaultyFile {
            real: OpenOptions::new().create(true).append(true).open(path)?,
            faults: self.clone(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        if self.next_open_fault().is_some() {
            return Err(err_eio());
        }
        Ok(Box::new(FaultyFile {
            real: File::create(path)?,
            faults: self.clone(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.next_rename_fault().is_some() {
            return Err(err_eio());
        }
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.next_fsync_fault() {
            None => File::open(dir)?.sync_all(),
            Some(_) => Err(err_eio()),
        }
    }
}

/// A fresh per-process scratch directory for this crate's persist tests.
#[cfg(test)]
pub(super) fn test_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("nrscope-persist-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fault layer itself: per-op-class counting, absolute-index
    /// windows, recovery via `clear_faults`, and the fsync-gate lie
    /// (write reports success but the bytes never reach the file).
    #[test]
    fn faulty_backend_windows_count_and_lie_as_specified() {
        let dir = test_dir("faulty-unit");
        let backend = FaultyBackend::new(StorageFaultSchedule::default());
        backend.create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");

        // Window [1, 2): op 0 passes, op 1 fails, op 2 passes again.
        backend.arm(FaultKind::WriteEio, 1..2);
        let mut f = backend.create(&path).unwrap();
        f.write_all(b"aaaa").unwrap();
        let err = f.write_all(b"bbbb").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(5), "EIO");
        f.write_all(b"cccc").unwrap();
        assert_eq!(backend.writes(), 3, "failed writes still count as ops");
        assert_eq!(f.file_len().unwrap(), 8, "only the EIO write was lost");

        // ENOSPC surfaces as the errno the prune path keys on.
        backend.arm(
            FaultKind::WriteEnospc,
            backend.writes()..backend.writes() + 1,
        );
        let err = f.write_all(b"dddd").unwrap_err();
        assert!(is_enospc(&err));

        // Fsync gate: the write *reports* success but drops the bytes —
        // the lie that makes fsync-hole testing possible.
        backend.arm(FaultKind::WriteFsyncGate, backend.writes()..u64::MAX);
        f.write_all(b"eeee").unwrap();
        assert_eq!(f.file_len().unwrap(), 8, "gated write never landed");

        // clear_faults models the disk coming back: everything works.
        backend.clear_faults();
        f.write_all(b"ffff").unwrap();
        f.sync_all().unwrap();
        assert_eq!(f.file_len().unwrap(), 12);
        assert!(lock_clean(&backend.state).fsyncs >= 1);

        // Open-window faults hit create/open_append alike.
        backend.arm(FaultKind::OpenFail, backend.opens()..u64::MAX);
        assert!(backend.create(&dir.join("no.bin")).is_err());
        assert!(backend.open_append(&path).is_err());
        backend.clear_faults();
        assert!(backend.open_append(&path).is_ok());

        // Clones share one fault state: arming through one arm is seen by
        // the other (the session and the test harness hold clones).
        let twin = backend.clone();
        backend.arm(FaultKind::RenameFail, twin.renames()..u64::MAX);
        let to = dir.join("renamed.bin");
        assert!(twin.rename(&path, &to).is_err());

        // A stall blocks a write until its deadline, then lets it land.
        let stall = Duration::from_millis(50);
        backend.stall_writes(stall);
        let t0 = Instant::now();
        f.write_all(b"gggg").unwrap();
        assert!(t0.elapsed() >= stall, "the write waited out the stall");
        assert_eq!(f.file_len().unwrap(), 16);
        let _ = fs::remove_dir_all(&dir);
    }
}
