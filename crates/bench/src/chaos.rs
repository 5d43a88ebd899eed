//! Composed-chaos engine: one seeded schedule arms any subset of the
//! repo's fault classes — impairments × overload × storage faults ×
//! clock drift × hostile air × kill-9 × hangs — over a single timeline,
//! while [`Monitor`]s evaluate the system's promises continuously and
//! record the first slot at which one breaks.
//!
//! The harness of the `chaos` gate bin, kept out of `nrscope`: the
//! sniffer only offers the seams it drives — a [`SlotHook`] on every
//! slot path and the [`FaultyBackend`] storage double. The pieces are
//! split by trust domain:
//!
//! - [`ChaosSchedule`] is the seeded timeline. [`ChaosSchedule::compose`]
//!   derives deterministic fault placements from (seed, horizon, armed
//!   classes), so a failing soak reproduces bit-for-bit from its seed —
//!   and the child process, given the same three on its command line,
//!   recomputes the same timeline.
//! - [`Air`] is the leg's radio side — gNB, observer, impairments,
//!   oscillator model, timing-recovery loop and hostile windows — built
//!   from the schedule alone. The parent and every child it spawns each
//!   step their own copy; a child fast-forwards its copy to the slot it
//!   was spawned at.
//! - [`ChaosSchedule::child_hook`] is the slice the *child process*
//!   executes against itself (scripted hangs, journal-writer stalls,
//!   overload dwell, storage fault windows). Parent-side faults (kill-9)
//!   are not in it — the child must not know when it is about to be shot.
//! - [`Monitor`]s are named predicates over the child's acks
//!   ([`ChaosObs`]) or fleet rollups behind one shared latch, flagging the
//!   first violation with slot + context instead of a bare boolean.
//! - [`drive_supervised`] is the parent-side soak loop: it clocks a
//!   [`Harness`] slot by slot, fires scripted kills, times hang detection,
//!   and keeps the honest per-slot book of which slots remain claimable
//!   for byte parity.

use crate::child::{Harness, SlotOutcome};
use gnb_sim::{CellConfig, Gnb, HostileConfig};
use nr_mac::RoundRobin;
use nr_phy::channel::ChannelProfile;
use nr_phy::types::Rnti;
use nr_radio::impairment::ImpairmentSchedule;
use nrscope::observe::{Capture, Observer};
use nrscope::restart::RestartCause;
use nrscope::{
    ClockRecovery, ClockRecoveryConfig, DurabilityRung, FaultKind, FaultyBackend, FleetSnapshot,
    SlotHook, SyncState,
};
use serde::Serialize;
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Fault placements
// ---------------------------------------------------------------------------

/// Where a scripted hang wedges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangTarget {
    /// The child's slot loop stops dead — no acks. The harness must
    /// classify it as a hang within its hang deadline and SIGKILL it.
    SlotLoop,
    /// The child's disk stalls under its journal writer while the slot
    /// loop stays live: the durability ladder must demote honestly while
    /// batches back up, and re-promote after the stall.
    JournalWriter,
    /// A fleet shard's engine wedges mid-slot; the watchdog must fence it
    /// and siblings must not stall (bulkhead isolation).
    FleetShard(usize),
}

/// One scripted hang: wedge `target` for `duration_ms` when the slot
/// clock reaches `slot`. Keyed on the *fed* slot sequence, so a hang that
/// got its process killed never re-fires after the warm restart — the
/// parent has already moved past the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HangPoint {
    /// Fed slot at which the wedge starts.
    pub slot: u64,
    /// What wedges.
    pub target: HangTarget,
    /// How long it stays wedged.
    pub duration_ms: u64,
}

/// A storage fault armed while the child's fed slot is inside
/// `[from_slot, until_slot)` (every matching backend operation faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageWindow {
    /// Fault class to arm.
    pub kind: FaultKind,
    /// First fed slot of the window.
    pub from_slot: u64,
    /// First fed slot past the window.
    pub until_slot: u64,
}

/// Scripted decode overload: every slot in `[from_slot, until_slot)`
/// dwells an extra `dwell_us` — busy, not wedged: a dwell is far inside
/// the hang deadline, so the harness must *not* read it as a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadWindow {
    /// First fed slot of the window.
    pub from_slot: u64,
    /// First fed slot past the window.
    pub until_slot: u64,
    /// Extra per-slot dwell in microseconds.
    pub dwell_us: u64,
}

// ---------------------------------------------------------------------------
// Composed schedule
// ---------------------------------------------------------------------------

/// Which fault classes a composed schedule arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosArms {
    /// Front-end impairments (drop probability + a scripted outage).
    pub impairments: bool,
    /// Scripted decode overload (busy-not-hung dwell windows).
    pub overload: bool,
    /// Storage fault windows against the child's journal.
    pub storage: bool,
    /// Oscillator error on the sniffer front end (drift + a timing step).
    pub clock: bool,
    /// Hostile-air windows (ghost DCIs, malformed fields, SIB spoof).
    pub hostile: bool,
    /// Scripted SIGKILLs of the child process.
    pub kill9: bool,
    /// Scripted hangs (slot loop, journal writer, fleet shard).
    pub hangs: bool,
}

impl ChaosArms {
    /// Everything armed — the full-composition soak.
    pub fn all() -> ChaosArms {
        ChaosArms {
            impairments: true,
            overload: true,
            storage: true,
            clock: true,
            hostile: true,
            kill9: true,
            hangs: true,
        }
    }

    /// Nothing armed — the clean baseline the soak is compared against.
    pub fn none() -> ChaosArms {
        ChaosArms::default()
    }
}

/// A fully composed, seeded chaos timeline over `horizon_slots` of feed.
/// Every placement is a deterministic function of (seed, horizon, arms):
/// re-running a failing soak with its reported seed reproduces the exact
/// fault sequence.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// The seed everything derives from.
    pub seed: u64,
    /// Timeline length in fed slots.
    pub horizon_slots: u64,
    /// Parent slots at which the harness SIGKILLs the child.
    pub kill_slots: Vec<u64>,
    /// Hostile-air windows `[from, until)` on the gNB.
    pub hostile_windows: Vec<(u64, u64)>,
    /// Every scripted hang (child- and fleet-targeted), in no particular
    /// order.
    pub hangs: Vec<HangPoint>,
    /// Child-side storage fault windows.
    pub storage_windows: Vec<StorageWindow>,
    /// Child-side overload dwell windows.
    pub overload_windows: Vec<OverloadWindow>,
    /// Random per-slot front-end drop probability.
    pub impair_drop_prob: f64,
    /// Scripted front-end outages `[from, until)`.
    pub impair_outages: Vec<(u64, u64)>,
    /// Static oscillator offset (ppm); 0 disables the clock model.
    pub clock_static_ppm: f64,
    /// Ageing drift (ppm per second).
    pub clock_drift_ppm_per_s: f64,
    /// One scripted timing step `(slot, µs)`.
    pub clock_step: Option<(u64, f64)>,
}

/// One step of the schedule's seeded PRNG (placement jitter).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosSchedule {
    /// Compose a timeline: deterministic placements (with small seeded
    /// jitter so distinct seeds produce distinct alignments) for every
    /// armed class, spread so the composition windows overlap — storage
    /// faults land near the journal wedge, hostility spans a kill, the
    /// clock step lands inside the hostile window.
    pub fn compose(seed: u64, horizon_slots: u64, arms: ChaosArms) -> ChaosSchedule {
        let h = horizon_slots.max(1_000);
        let mut rng = seed ^ 0x43_48_41_4F_53_21; // "CHAOS!"
        let mut jitter = |span: u64| splitmix64(&mut rng) % span.max(1);
        let at = |frac_milli: u64| h * frac_milli / 1000;

        let mut s = ChaosSchedule {
            seed,
            horizon_slots: h,
            kill_slots: Vec::new(),
            hostile_windows: Vec::new(),
            hangs: Vec::new(),
            storage_windows: Vec::new(),
            overload_windows: Vec::new(),
            impair_drop_prob: 0.0,
            impair_outages: Vec::new(),
            clock_static_ppm: 0.0,
            clock_drift_ppm_per_s: 0.0,
            clock_step: None,
        };
        if arms.impairments {
            s.impair_drop_prob = 0.02;
            let start = at(320) + jitter(40);
            s.impair_outages.push((start, start + 120));
        }
        if arms.overload {
            let start = at(400) + jitter(40);
            s.overload_windows.push(OverloadWindow {
                from_slot: start,
                until_slot: start + h / 25,
                dwell_us: 1_200,
            });
        }
        if arms.storage {
            let w1 = at(150) + jitter(30);
            s.storage_windows.push(StorageWindow {
                kind: FaultKind::WriteEio,
                from_slot: w1,
                until_slot: w1 + h / 33,
            });
            let w2 = at(550) + jitter(30);
            s.storage_windows.push(StorageWindow {
                kind: FaultKind::FsyncEio,
                from_slot: w2,
                until_slot: w2 + h / 50,
            });
        }
        if arms.clock {
            s.clock_static_ppm = 5.0;
            s.clock_drift_ppm_per_s = 0.02;
            s.clock_step = Some((at(620) + jitter(40), 1.5));
        }
        if arms.hostile {
            s.hostile_windows.push((at(480) + jitter(30), at(680)));
        }
        if arms.kill9 {
            // ≥ 2 kills: one inside the hostile window, one late.
            s.kill_slots.push(at(500) + jitter(30));
            s.kill_slots.push(at(800) + jitter(40));
        }
        if arms.hangs {
            // Slot-loop hang long enough that any sane hang deadline
            // expires well before the wedge releases; late
            // enough that the first storage window's re-probe has landed
            // and the restart meets a re-promoted child.
            let hang = |slot, target, duration_ms| HangPoint {
                slot,
                target,
                duration_ms,
            };
            s.hangs = vec![
                hang(at(380) + jitter(30), HangTarget::SlotLoop, 8_000),
                hang(at(560) + jitter(30), HangTarget::JournalWriter, 300),
                hang(at(450) + jitter(30), HangTarget::FleetShard(1), 2_500),
            ];
        }
        s
    }

    /// The observer's impairment schedule, if impairments are armed.
    pub fn impairment_schedule(&self) -> Option<ImpairmentSchedule> {
        if self.impair_drop_prob == 0.0 && self.impair_outages.is_empty() {
            return None;
        }
        let mut sched =
            ImpairmentSchedule::new(self.seed ^ 0x1337).with_drop_prob(self.impair_drop_prob);
        for &(a, b) in &self.impair_outages {
            sched = sched.with_outage(a..b);
        }
        Some(sched)
    }

    /// The scripted slot-loop hang at `slot`, if any.
    pub fn slot_loop_hang_at(&self, slot: u64) -> Option<HangPoint> {
        (self.hangs.iter())
            .find(|p| p.slot == slot && p.target == HangTarget::SlotLoop)
            .copied()
    }

    /// The faults the child process runs against itself, as the
    /// [`SlotHook`] its slot loop calls with each fed slot: a slot-loop
    /// hang sleeps through its duration (no acks), a
    /// journal-writer hang stalls `backend`'s writes, an overload window
    /// dwells, and `backend` has armed exactly the storage windows live
    /// at the slot. Keyed on the fed slot, so a restarted child — which
    /// recomputes this schedule from the same seed — never re-fires a
    /// point the run already passed, and re-arms a window it restarted
    /// inside.
    pub fn child_hook(&self, backend: FaultyBackend) -> SlotHook {
        let hangs = self.hangs.clone();
        let storage = self.storage_windows.clone();
        let overload = self.overload_windows.clone();
        let armed = Mutex::new(Vec::new());
        SlotHook::new(move |seq| {
            let live: Vec<FaultKind> = (storage.iter())
                .filter(|w| (w.from_slot..w.until_slot).contains(&seq))
                .map(|w| w.kind)
                .collect();
            let mut armed = armed.lock().expect("child hook state");
            if *armed != live {
                backend.clear_faults();
                for &kind in &live {
                    backend.arm(kind, 0..u64::MAX);
                }
                *armed = live;
            }
            for p in hangs.iter().filter(|p| p.slot == seq) {
                let dur = Duration::from_millis(p.duration_ms);
                match p.target {
                    HangTarget::SlotLoop => std::thread::sleep(dur),
                    HangTarget::JournalWriter => backend.stall_writes(dur),
                    // Shard wedges are a fleet-side fault; not ours.
                    HangTarget::FleetShard(_) => {}
                }
            }
            for w in &overload {
                if (w.from_slot..w.until_slot).contains(&seq) {
                    std::thread::sleep(Duration::from_micros(w.dwell_us));
                }
            }
        })
    }
}

// ---------------------------------------------------------------------------
// The air
// ---------------------------------------------------------------------------

/// A round-robin cell with `n_ues` AWGN UEs (ids from 1), each with a
/// permanent backlog, so every slot carries data and parity between the
/// scope's estimate and the gNB's truth is tight.
pub fn backlogged_gnb(cell: &CellConfig, n_ues: u64, seed: u64) -> Gnb {
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), seed);
    for i in 1..=n_ues {
        gnb.ue_arrives(ue_sim::SimUe::new(
            i,
            ChannelProfile::Awgn,
            ue_sim::MobilityScenario::Static,
            ue_sim::traffic::TrafficSource::new(
                ue_sim::traffic::TrafficKind::FileDownload {
                    total_bytes: 1 << 30,
                },
                seed + i,
            ),
            0.05 * i as f64,
            600.0,
            seed * 31 + i,
        ));
    }
    gnb
}

/// A supervised leg's air on `srsran_n41`: three backlogged UEs, the
/// observer with the schedule's impairments and oscillator model, the
/// timing-recovery loop the front end closes (a real SDR host closes it
/// before the decoder sees a capture), and the hostile windows. Every
/// piece is seeded from the schedule, so the air is a function of
/// (schedule, slot): a copy stepped from slot 0 yields the same captures
/// as any other.
pub struct Air {
    gnb: Gnb,
    obs: Observer,
    recovery: ClockRecovery,
    hostile: HostileConfig,
    hostile_windows: Vec<(u64, u64)>,
    slot_s: f64,
    sample_rate_hz: f64,
}

impl Air {
    /// The air at slot 0.
    pub fn new(schedule: &ChaosSchedule) -> Air {
        let seed = schedule.seed;
        let cell = CellConfig::srsran_n41();
        let mut obs = Observer::new(&cell, 35.0, false, seed ^ 0xD15C);
        if let Some(sched) = schedule.impairment_schedule() {
            obs.set_impairments(sched);
        }
        if schedule.clock_static_ppm != 0.0 {
            let mut model = cell
                .clock_model(seed ^ 0xC10C)
                .with_static_ppm(schedule.clock_static_ppm)
                .with_drift_ppm_per_s(schedule.clock_drift_ppm_per_s);
            if let Some((slot, us)) = schedule.clock_step {
                model = model.with_step(slot, us);
            }
            obs.set_clock(model);
        }
        Air {
            gnb: backlogged_gnb(&cell, 3, seed),
            obs,
            recovery: ClockRecovery::new(ClockRecoveryConfig::default()),
            hostile: HostileConfig::seeded(seed),
            hostile_windows: schedule.hostile_windows.clone(),
            slot_s: cell.slot_s(),
            sample_rate_hz: cell.sample_rate_hz(),
        }
    }

    /// The cell's gNB: its UEs' delivered bytes are the parity truth.
    pub fn gnb(&self) -> &Gnb {
        &self.gnb
    }

    /// The capture of slot `seq`, the next slot of this air.
    pub fn step(&mut self, seq: u64) -> Capture {
        for &(a, b) in &self.hostile_windows {
            if seq == a {
                self.gnb.arm_hostile(self.hostile);
            }
            if seq == b {
                self.gnb.disarm_hostile();
            }
        }
        let out = self.gnb.step();
        let cap = self.obs.capture(&out, seq as f64 * self.slot_s);
        if let Some(cobs) = self.obs.take_clock_observable() {
            self.recovery.on_slot(&cobs, self.sample_rate_hz);
            let (us, cfo_hz) = (
                self.recovery.correction_us(),
                self.recovery.correction_cfo_hz(),
            );
            self.obs.apply_clock_correction(us, cfo_hz);
        }
        cap
    }
}

// ---------------------------------------------------------------------------
// Invariant monitors
// ---------------------------------------------------------------------------

/// A recorded invariant breach: first slot it was seen at, plus context.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Slot of first violation.
    pub slot: u64,
    /// What was observed vs what was promised.
    pub context: String,
}

/// What a monitor sees each fed slot of a supervised chaos run.
pub struct ChaosObs<'a> {
    /// Fed slot sequence.
    pub slot: u64,
    /// The slot's capture was a front-end drop (outage, stall,
    /// impairment) — the *parent's* air says so; the monitors use it to
    /// check the child never masks drops.
    pub fed_drop: bool,
    /// [`air_digest`](crate::child::air_digest) of the parent's capture of
    /// the slot.
    pub air: u32,
    /// Hostile ghost C-RNTIs on the air this run (empty when hostility is
    /// disarmed).
    pub ghosts: &'a [Rnti],
    /// What happened to the slot.
    pub outcome: &'a SlotOutcome,
    /// Children spawned so far, this slot's respawn included: a rise is
    /// the restart edge, whatever brought the last child down.
    pub spawns: usize,
}

/// The condition a [`Monitor`] evaluates: a function of the event (and
/// whatever the closure remembers of earlier ones) returning the context
/// of a breach, `None` while the invariant holds.
enum Predicate {
    /// Shown every fed slot.
    Slot(Box<SlotPredicate>),
    /// Shown every fleet rollup (the slot it was taken at, the rollup).
    Fleet(Box<RollupPredicate>),
}
type SlotPredicate = dyn FnMut(&ChaosObs) -> Option<String>;
type RollupPredicate = dyn FnMut(u64, &FleetSnapshot) -> Option<String>;

/// Final per-monitor status for reports, and the one latch while the
/// monitor runs.
#[derive(Debug, Clone, Serialize)]
pub struct MonitorStatus {
    /// Monitor name.
    pub name: String,
    /// Green?
    pub ok: bool,
    /// The first violation when not green.
    pub violation: Option<Violation>,
}

/// A continuously evaluated invariant: its report row and a predicate.
/// The row is the latch — the *first* violation is kept and the predicate
/// is not consulted again, because the first broken slot is the
/// debuggable one.
pub struct Monitor {
    status: MonitorStatus,
    predicate: Predicate,
}

impl Monitor {
    /// A monitor over fed slots ([`Monitor::on_slot`]).
    pub fn over_slots(
        name: &str,
        predicate: impl FnMut(&ChaosObs) -> Option<String> + 'static,
    ) -> Monitor {
        Monitor::new(name, Predicate::Slot(Box::new(predicate)))
    }

    /// A monitor over fleet rollups ([`Monitor::on_fleet`]).
    pub fn over_rollups(
        name: &str,
        predicate: impl FnMut(u64, &FleetSnapshot) -> Option<String> + 'static,
    ) -> Monitor {
        Monitor::new(name, Predicate::Fleet(Box::new(predicate)))
    }

    fn new(name: &str, predicate: Predicate) -> Monitor {
        let status = MonitorStatus {
            name: name.to_string(),
            ok: true,
            violation: None,
        };
        Monitor { status, predicate }
    }

    /// Observe one fed slot (a rollup monitor is not interested).
    pub fn on_slot(&mut self, obs: &ChaosObs) {
        if let (true, Predicate::Slot(p)) = (self.status.ok, &mut self.predicate) {
            let breach = p(obs);
            self.latch(obs.slot, breach);
        }
    }

    /// Observe one fleet rollup (a slot monitor is not interested).
    pub fn on_fleet(&mut self, slot: u64, snap: &FleetSnapshot) {
        if let (true, Predicate::Fleet(p)) = (self.status.ok, &mut self.predicate) {
            let breach = p(slot, snap);
            self.latch(slot, breach);
        }
    }

    fn latch(&mut self, slot: u64, breach: Option<String>) {
        self.status.ok = breach.is_none();
        self.status.violation = breach.map(|context| Violation { slot, context });
    }

    /// The latched first violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.status.violation.as_ref()
    }
}

/// Collapse a monitor set into report rows.
pub fn monitor_statuses(monitors: &[Monitor]) -> Vec<MonitorStatus> {
    monitors.iter().map(|m| m.status.clone()).collect()
}

/// Never-go-dark: while the child is alive and acking decodable slots,
/// its cumulative SI-DCI count must keep advancing — broadcast traffic is
/// always on the air, so a scope that stops seeing SI has gone dark
/// regardless of what else it claims. Violation after `window`
/// consecutive acked, non-dropped slots with no SI progress; `window`
/// must comfortably exceed the re-sync bound (~800 slots) so post-restart
/// reacquisition is not read as darkness.
///
/// Progress is measured per incarnation: a child warm-restarted while
/// `NonDurable` resumes from an older checkpoint, so its count can fall
/// below what the previous child reached. The first ack after a respawn
/// is the new baseline, not a stall until the old maximum is passed.
pub fn never_go_dark(window: u64) -> Monitor {
    let window = window.max(1);
    let (mut spawns, mut last_si, mut stagnant) = (0usize, 0u64, 0u64);
    Monitor::over_slots("never_go_dark", move |obs| {
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return None;
        };
        if obs.spawns != spawns {
            (spawns, last_si, stagnant) = (obs.spawns, ack.si_dcis, 0);
            return None;
        }
        if obs.fed_drop {
            return None; // nothing decodable was offered
        }
        if ack.si_dcis > last_si {
            last_si = ack.si_dcis;
            stagnant = 0;
            return None;
        }
        stagnant += 1;
        (stagnant > window).then(|| {
            format!("no SI-DCI progress over {stagnant} decodable acked slots (stuck at {last_si})")
        })
    })
}

/// Bounded loss window: whenever the child *claims* a bounded loss window
/// it must honour it (durable watermark within the bound of the
/// processing watermark), and the claim itself must be honest — a
/// `NonDurable` child promising a bound, or a healthy one promising
/// unbounded loss, is lying to its operator.
pub fn bounded_loss_window() -> Monitor {
    Monitor::over_slots("bounded_loss_window", |obs| {
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return None;
        };
        let non_durable = ack.durability_rung == 2;
        let lag = ack.watermark.saturating_sub(ack.durable);
        match ack.loss_window {
            Some(w) if non_durable => Some(format!(
                "NonDurable child still promising a bounded loss window ({w})"
            )),
            Some(w) if lag > w => Some(format!(
                "durable watermark lags {lag} slots behind, promised bound {w}"
            )),
            None if !non_durable => Some(format!(
                "child on durability rung {} reported an unbounded loss window",
                ack.durability_rung
            )),
            _ => None,
        }
    })
}

/// Watermark monotonicity: processing and durable watermarks never move
/// backwards — not per incarnation, across the whole run, warm restarts
/// included — and the durable watermark never overtakes processing.
pub fn watermark_monotonicity() -> Monitor {
    let (mut last_watermark, mut last_durable) = (0u64, 0u64);
    Monitor::over_slots("watermark_monotonicity", move |obs| {
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return None;
        };
        let (w, d) = (ack.watermark, ack.durable);
        if w < last_watermark {
            return Some(format!(
                "processing watermark regressed {last_watermark} -> {w}"
            ));
        }
        if d < last_durable {
            return Some(format!("durable watermark regressed {last_durable} -> {d}"));
        }
        if d > w {
            return Some(format!(
                "durable watermark {d} ahead of processing watermark {w}"
            ));
        }
        (last_watermark, last_durable) = (w, d);
        None
    })
}

/// No ghost admissions: the hostile `ghosts` must never show up in the
/// child's tracked set, no matter what else is failing around it.
pub fn no_ghost_admissions(ghosts: Vec<Rnti>) -> Monitor {
    Monitor::over_slots("no_ghost_admissions", move |obs| {
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return None;
        };
        let g = ghosts.iter().find(|g| ack.tracked.contains(g))?;
        Some(format!(
            "hostile ghost RNTI {g} admitted to the tracked set"
        ))
    })
}

/// Clock-mask asymmetry: the timing-recovery lock ladder may mask
/// *decode silence*, never front-end *drops* (DESIGN.md §clock). If the
/// parent feeds a long unbroken run of dropped captures and the child
/// still reports `Synced` at the end of it, drops are being masked —
/// real outages would be undetectable exactly when the clock loop is most
/// confused. Violation when `run_len` consecutive dropped slots leave
/// sync untouched; `run_len` must exceed the sync-health demotion
/// threshold (default 120 slots) with margin.
pub fn clock_mask_asymmetry(run_len: u64) -> Monitor {
    let run_len = run_len.max(1);
    let mut consecutive_drops = 0u64;
    Monitor::over_slots("clock_mask_asymmetry", move |obs| {
        let SlotOutcome::Acked(ack) = obs.outcome else {
            // A down child resets the streak: nothing was acked.
            consecutive_drops = 0;
            return None;
        };
        if !obs.fed_drop {
            consecutive_drops = 0;
            return None;
        }
        consecutive_drops += 1;
        (consecutive_drops >= run_len && ack.sync == SyncState::Synced).then(|| {
            format!(
                "sync still Synced after {consecutive_drops} consecutive front-end drops — \
                 drops masked by the clock ladder"
            )
        })
    })
}

/// Bulkhead isolation: while any shard is unhealthy (faulted/wedged or
/// breaker-parked), every *other* cell's slot count must keep advancing
/// between consecutive rollups. One wedged shard starving its siblings is
/// exactly the failure bulkheads exist to prevent. Compares rollups at
/// least `min_gap_slots` of feed apart (closer samples legitimately show
/// no progress on an idle queue).
pub fn bulkhead_isolation(min_gap_slots: u64) -> Monitor {
    let min_gap_slots = min_gap_slots.max(1);
    // One shard's rollup sample: (cell name, slots advanced, health label).
    type ShardSample = (String, u64, String);
    let mut prev: Option<(u64, Vec<ShardSample>)> = None;
    Monitor::over_rollups("bulkhead_isolation", move |slot, snap| {
        let now: Vec<ShardSample> = snap
            .cells
            .iter()
            .map(|c| (c.name.clone(), c.slots, c.health.clone()))
            .collect();
        let Some((prev_slot, prev_cells)) = &prev else {
            prev = Some((slot, now));
            return None;
        };
        if slot.saturating_sub(*prev_slot) < min_gap_slots {
            return None;
        }
        let any_unhealthy = prev_cells.iter().any(|(_, _, h)| h != "healthy")
            || now.iter().any(|(_, _, h)| h != "healthy");
        if any_unhealthy {
            for ((name, slots_now, health_now), (_, slots_prev, health_prev)) in
                now.iter().zip(prev_cells.iter())
            {
                // Only healthy siblings are held to the progress bar —
                // the wedged shard itself is *supposed* to be fenced and
                // still.
                if health_now == "healthy" && health_prev == "healthy" && slots_now <= slots_prev {
                    return Some(format!(
                        "healthy sibling {name} made no progress \
                         ({slots_prev} slots) across a wedge window"
                    ));
                }
            }
        }
        prev = Some((slot, now));
        None
    })
}

/// One air: every capture a child decodes is the capture the parent's own
/// air has for that slot. A child re-executed mid-run rebuilds and
/// fast-forwards its air, so a divergence would make every later verdict
/// a verdict on other input.
pub fn air_matches() -> Monitor {
    Monitor::over_slots("air_matches", |obs| {
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return None;
        };
        (ack.air != obs.air).then(|| {
            format!(
                "child decoded capture {:08x}, the parent's air has {:08x}",
                ack.air, obs.air
            )
        })
    })
}

/// The standard supervised-leg monitor set (everything except the
/// fleet-leg bulkhead monitor, which the caller adds when it drives a
/// fleet).
pub fn standard_monitors(ghosts: Vec<Rnti>) -> Vec<Monitor> {
    vec![
        never_go_dark(2_000),
        bounded_loss_window(),
        watermark_monotonicity(),
        no_ghost_admissions(ghosts),
        clock_mask_asymmetry(400),
        air_matches(),
    ]
}

// ---------------------------------------------------------------------------
// Supervised-leg driver
// ---------------------------------------------------------------------------

/// One detected hang, with how it was handled.
#[derive(Debug, Clone)]
pub struct HangObservation {
    /// Fed slot the hang was scripted at.
    pub slot: u64,
    /// Wall-clock ms from feeding the hung slot to the harness giving up
    /// on it (the hang-detection latency).
    pub detect_ms: u64,
}

/// What [`drive_supervised`] measured.
#[derive(Debug, Clone)]
pub struct DriveStats {
    /// Slots fed.
    pub slots: u64,
    /// Slots acked by a live child.
    pub acked: u64,
    /// Slots lost while the child was down.
    pub lost_child_down: u64,
    /// Slots lost while parked lame-duck behind an open breaker.
    pub lost_lame_duck: u64,
    /// Scripted slot-loop hangs and their detection latencies.
    pub hang_observations: Vec<HangObservation>,
    /// Whether the final acked slot reported `Synced`.
    pub final_sync_synced: bool,
    /// Per-slot parity claimability: acked, synced, not front-end
    /// dropped, and not in a later-lost (never-durable) tail.
    pub observed: Vec<bool>,
    /// Acked slots whose durability rung crossed the `NonDurable` line:
    /// `(slot, true)` a demotion, `(slot, false)` a re-promotion (or a
    /// respawn that came back durable).
    pub non_durable_edges: Vec<(u64, bool)>,
}

/// Drive one supervised chaos leg: clock `harness` through
/// `schedule.horizon_slots` slots, firing scripted kills between slots,
/// timing scripted slot-loop hang detection, and evaluating `monitors`
/// continuously. `air(seq)` is the parent's own copy of the leg's air:
/// its capture says whether the slot was a front-end drop, and its digest
/// is what the child must have decoded.
///
/// The returned `observed` book already excludes every warm restart's
/// lost tail (acked-but-not-durable slots the restarted child has no
/// memory of), so byte parity over its ranges never claims a byte the
/// system does not hold.
pub fn drive_supervised(
    harness: &mut Harness,
    schedule: &ChaosSchedule,
    ghosts: &[Rnti],
    monitors: &mut [Monitor],
    mut air: impl FnMut(u64) -> Capture,
) -> DriveStats {
    let slots = schedule.horizon_slots;
    let mut stats = DriveStats {
        slots,
        acked: 0,
        lost_child_down: 0,
        lost_lame_duck: 0,
        hang_observations: Vec::new(),
        final_sync_synced: false,
        observed: vec![false; slots as usize],
        non_durable_edges: Vec::new(),
    };
    let mut restarts_seen = harness.restart_log().len();
    for seq in 0..slots {
        if schedule.kill_slots.contains(&seq) {
            harness.kill_now();
        }
        let cap = air(seq);
        let fed_drop = matches!(cap, Capture::Dropped(_));
        let hang_here = schedule.slot_loop_hang_at(seq);
        let hangs_before = harness.breaker().hangs();
        let fed_at = Instant::now();
        let outcome = harness.feed(seq);
        // Only a *classified* hang counts: a scripted hang slot landing
        // while no child is up is Lost without any detection having
        // happened.
        if hang_here.is_some() && harness.breaker().hangs() > hangs_before {
            stats.hang_observations.push(HangObservation {
                slot: seq,
                detect_ms: fed_at.elapsed().as_millis() as u64,
            });
        }
        match &outcome {
            SlotOutcome::Acked(ack) => {
                stats.acked += 1;
                stats.final_sync_synced = ack.sync == SyncState::Synced;
                stats.observed[seq as usize] = ack.sync == SyncState::Synced && !fed_drop;
                let non_durable = ack.durability_rung == DurabilityRung::NonDurable as u8;
                if non_durable != stats.non_durable_edges.last().is_some_and(|e| e.1) {
                    stats.non_durable_edges.push((seq, non_durable));
                }
            }
            SlotOutcome::ChildDown => {
                stats.lost_child_down += 1;
            }
            SlotOutcome::LameDuck => {
                stats.lost_lame_duck += 1;
            }
        }
        // A warm restart happened somewhere behind this slot: un-claim the
        // lost tail — slots the dead child acked but never made durable.
        let log = harness.restart_log();
        for ev in &log[restarts_seen..] {
            if ev.cause != RestartCause::Initial {
                let from = ev.hello.report.resumed_slot.min(slots);
                let until = ev.at_seq.min(slots);
                for s in from..until {
                    stats.observed[s as usize] = false;
                }
            }
        }
        restarts_seen = log.len();
        let obs = ChaosObs {
            slot: seq,
            fed_drop,
            air: crate::child::air_digest(&cap),
            ghosts,
            outcome: &outcome,
            spawns: restarts_seen,
        };
        for m in monitors.iter_mut() {
            m.on_slot(&obs);
        }
    }
    stats
}

/// Compress a per-slot flag vector into maximal half-open ranges.
pub fn ranges_of(flags: &[bool]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut start: Option<u64> = None;
    for (i, &on) in flags.iter().enumerate() {
        match (on, start) {
            (true, None) => start = Some(i as u64),
            (false, Some(s)) => {
                out.push((s, i as u64));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, flags.len() as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::Ack;

    #[test]
    fn compose_is_deterministic_per_seed() {
        let a = ChaosSchedule::compose(7, 10_000, ChaosArms::all());
        let b = ChaosSchedule::compose(7, 10_000, ChaosArms::all());
        assert_eq!(a.kill_slots, b.kill_slots);
        assert_eq!(a.hangs, b.hangs);
        assert_eq!(a.storage_windows, b.storage_windows);
        let c = ChaosSchedule::compose(8, 10_000, ChaosArms::all());
        assert_ne!(
            (a.kill_slots, a.hangs),
            (c.kill_slots, c.hangs),
            "different seeds shift the timeline"
        );
    }

    #[test]
    fn compose_all_arms_every_class() {
        let s = ChaosSchedule::compose(1, 8_000, ChaosArms::all());
        assert!(s.kill_slots.len() >= 2, "acceptance: ≥ 2 kill-9s");
        assert!(!s.hostile_windows.is_empty());
        let targets: Vec<_> = s.hangs.iter().map(|p| p.target).collect();
        assert!(
            targets.contains(&HangTarget::SlotLoop),
            "acceptance: ≥ 1 scripted hang"
        );
        assert!(targets.contains(&HangTarget::JournalWriter));
        assert!(s.storage_windows.len() >= 2);
        assert!(!s.overload_windows.is_empty());
        assert!(s.impair_drop_prob > 0.0);
        assert!(s.clock_static_ppm != 0.0 && s.clock_step.is_some());
        // Everything scripted lands inside the horizon.
        let h = s.horizon_slots;
        assert!(s.kill_slots.iter().all(|&k| k < h));
        assert!(s.hangs.iter().all(|p| p.slot < h));
        assert!(s.storage_windows.iter().all(|w| w.until_slot <= h));
    }

    #[test]
    fn compose_none_arms_nothing() {
        let s = ChaosSchedule::compose(1, 8_000, ChaosArms::none());
        assert!(s.kill_slots.is_empty());
        assert!(s.hostile_windows.is_empty());
        assert!(s.hangs.is_empty());
        assert!(s.storage_windows.is_empty());
        assert!(s.overload_windows.is_empty());
        assert_eq!(s.impair_drop_prob, 0.0);
    }

    /// The child hook arms a storage window while the fed slot is inside
    /// it, also in a child restarted mid-window, and stalls the disk at
    /// the journal-writer hang.
    #[test]
    fn child_hook_arms_live_windows_and_stalls_the_writer() {
        let s = ChaosSchedule::compose(3, 8_000, ChaosArms::all());
        let dir = std::env::temp_dir().join(format!("nrscope-chaos-hook-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        let w = s.storage_windows[0];
        assert_eq!(w.kind, FaultKind::WriteEio);
        let writes = |backend: &FaultyBackend| {
            use nrscope::StorageBackend;
            backend.create(&path).unwrap().write_all(b"x").is_ok()
        };
        let backend = FaultyBackend::new(Default::default());
        let hook = s.child_hook(backend.clone());
        hook.call(w.from_slot - 1);
        assert!(writes(&backend), "before the window");
        hook.call(w.from_slot);
        assert!(!writes(&backend), "inside it");
        hook.call(w.until_slot);
        assert!(writes(&backend), "past it");
        // A child restarted inside the window arms it on its first slot.
        let fresh = FaultyBackend::new(Default::default());
        s.child_hook(fresh.clone()).call(w.until_slot - 1);
        assert!(!writes(&fresh));

        let stall = s
            .hangs
            .iter()
            .find(|p| p.target == HangTarget::JournalWriter);
        hook.call(stall.expect("scripted").slot);
        let t0 = Instant::now();
        assert!(writes(&backend));
        assert!(t0.elapsed() >= Duration::from_millis(200), "write stalled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ranges_of_compresses_flags() {
        assert_eq!(ranges_of(&[true, true, false, true]), vec![(0, 2), (3, 4)]);
        assert!(ranges_of(&[false, false]).is_empty());
    }

    /// A respawned child rebuilds its air and fast-forwards it to the slot
    /// it was spawned at: from there to the horizon its captures are bit
    /// for bit those of an air stepped from slot 0, with every arm on,
    /// whether it was spawned at slot 0, at a kill or at the hang.
    #[test]
    fn a_respawned_childs_air_is_the_uninterrupted_air() {
        let s = ChaosSchedule::compose(0xC0_FFEE, 2_000, ChaosArms::all());
        let bytes = |cap: Capture| nrscope::binfmt::encode_value(&cap);
        let mut air = Air::new(&s);
        let whole: Vec<Capture> = (0..s.horizon_slots).map(|seq| air.step(seq)).collect();
        let drops = whole.iter().filter(|c| matches!(c, Capture::Dropped(_)));
        assert!(drops.count() > 0, "the impairments are on the air");
        let hang = s
            .slot_loop_hang_at(s.hangs[0].slot)
            .expect("slot-loop hang first");
        let spawns = [0].into_iter().chain(s.kill_slots.iter().copied());
        for k in spawns.chain([hang.slot]) {
            let mut respawned = Air::new(&s);
            (0..k).for_each(|seq| drop(respawned.step(seq)));
            for seq in k..s.horizon_slots {
                let (got, want) = (
                    bytes(respawned.step(seq)),
                    bytes(whole[seq as usize].clone()),
                );
                assert!(got == want, "spawned at {k}: slot {seq} differs");
            }
        }
    }

    fn ack() -> Ack {
        Ack {
            seq: 0,
            watermark: 100,
            sync: SyncState::Synced,
            produced: 0,
            tracked: vec![],
            durable: 50,
            durability_rung: 0,
            loss_window: Some(80),
            si_dcis: 0,
            air: 0,
        }
    }

    fn show(m: &mut Monitor, slot: u64, spawns: usize, ack: Ack) {
        m.on_slot(&ChaosObs {
            slot,
            fed_drop: false,
            air: 0,
            ghosts: &[],
            outcome: &SlotOutcome::Acked(ack),
            spawns,
        });
    }

    fn si(si_dcis: u64) -> Ack {
        Ack { si_dcis, ..ack() }
    }

    /// A child warm-restarted while `NonDurable` resumes below the run's
    /// SI maximum: steady SI decodes after the restart are progress, not
    /// darkness (the old maximum is never passed here).
    #[test]
    fn never_go_dark_rebaselines_on_a_restart_whose_count_falls_back() {
        let mut m = never_go_dark(10);
        for slot in 0..50 {
            show(&mut m, slot, 1, si(2 * slot));
        }
        for slot in 50..100 {
            show(&mut m, slot, 2, si(40 + (slot - 50) / 2));
        }
        assert!(m.violation().is_none(), "{:?}", m.violation());
    }

    /// An incarnation that decodes no SI for longer than the window is
    /// dark, restart or not.
    #[test]
    fn never_go_dark_latches_an_incarnation_without_si() {
        let mut m = never_go_dark(10);
        for slot in 0..20 {
            show(&mut m, slot, 1, si(slot));
        }
        for slot in 20..40 {
            show(&mut m, slot, 2, si(5));
        }
        let v = m.violation().expect("latched");
        assert_eq!(v.slot, 31, "the baseline at 20, then 11 slots without SI");
    }

    #[test]
    fn air_matches_latches_the_first_foreign_capture() {
        let mut m = air_matches();
        show(&mut m, 0, 1, ack());
        assert!(m.violation().is_none());
        show(&mut m, 1, 1, Ack { air: 7, ..ack() });
        assert_eq!(m.violation().map(|v| v.slot), Some(1));
    }

    #[test]
    fn watermark_monitor_catches_regression() {
        let mut m = watermark_monotonicity();
        let mut ack = ack();
        show(&mut m, 0, 1, ack.clone());
        assert!(m.violation().is_none());
        ack.watermark = 90; // regression
        show(&mut m, 1, 1, ack);
        assert!(m.violation().is_some());
        assert_eq!(m.violation().unwrap().slot, 1);
    }

    #[test]
    fn loss_window_monitor_catches_dishonest_bound() {
        let mut m = bounded_loss_window();
        let mut ack = ack();
        ack.durable = 0;
        ack.durability_rung = 2; // NonDurable, yet promising a bound
        show(&mut m, 5, 1, ack);
        assert!(m.violation().is_some());
    }

    /// The one latch: the first violation is kept, and once it is the
    /// predicate is not consulted again.
    #[test]
    fn latch_keeps_the_first_violation_and_stops_asking() {
        let asked = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let count = asked.clone();
        let mut m = Monitor::over_slots("odd_slots", move |obs| {
            count.set(count.get() + 1);
            (obs.slot % 2 == 1).then(|| format!("slot {} is odd", obs.slot))
        });
        for slot in 0..6 {
            show(&mut m, slot, 1, ack());
        }
        let v = m.violation().expect("latched");
        assert_eq!((v.slot, v.context.as_str()), (1, "slot 1 is odd"));
        assert_eq!(asked.get(), 2, "slots 0 and 1, then never again");

        let mut all = standard_monitors(vec![]);
        all.push(bulkhead_isolation(512));
        let names: Vec<_> = monitor_statuses(&all).into_iter().map(|s| s.name).collect();
        assert_eq!(
            names.join(" "),
            "never_go_dark bounded_loss_window watermark_monotonicity \
             no_ghost_admissions clock_mask_asymmetry air_matches bulkhead_isolation"
        );
        // And a rollup monitor ignores slots.
        show(&mut all[6], 0, 1, ack());
        assert!(all[6].violation().is_none());
    }
}
