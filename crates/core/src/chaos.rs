//! Composed-chaos engine: one seeded schedule arms any subset of the
//! repo's fault classes — impairments × overload × storage faults ×
//! clock drift × hostile air × kill-9 × hangs — over a single timeline,
//! while [`Monitor`]s evaluate the system's promises continuously and
//! record the first slot at which one breaks.
//!
//! PRs 1–9 injected and gated each fault class in isolation; production
//! failures compose. The pieces here are deliberately split by trust
//! domain:
//!
//! - [`ChaosSchedule`] is the seeded timeline. [`ChaosSchedule::compose`]
//!   derives deterministic fault placements from (seed, horizon, armed
//!   classes), so a failing soak reproduces bit-for-bit from its seed.
//! - [`ChaosChildPlan`] is the slice of the schedule the *supervised
//!   child process* executes against itself (scripted hangs, journal
//!   wedges, overload dwell, storage fault windows), written to
//!   [`CHAOS_PLAN_FILE`] in the session directory and loaded by
//!   [`run_child`](crate::supervise::run_child). Parent-side faults
//!   (kill-9, hostile air, impairments, clock) never go in the plan —
//!   the child must not know when it is about to be shot.
//! - [`Monitor`]s are named predicates over the supervised pipe traffic
//!   ([`ChaosObs`]) or fleet rollups behind one shared latch, flagging the
//!   first violation with slot + context instead of a bare boolean.
//! - [`drive_supervised`] is the parent-side soak loop: it feeds a
//!   capture source through a [`Supervisor`], fires scripted kills,
//!   times hang detection, and keeps the honest per-slot book of which
//!   slots remain claimable for byte parity.

use crate::fleet::FleetSnapshot;
use crate::observe::Capture;
use crate::persist::FaultKind;
use crate::scope::SyncState;
use crate::supervise::{RestartCause, SlotOutcome, Supervisor};
use nr_phy::types::Rnti;
use nr_radio::impairment::ImpairmentSchedule;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Name of the child-side chaos plan file in the session directory.
/// Absent in normal runs; when present,
/// [`run_child`](crate::supervise::run_child) arms the scripted faults it
/// describes.
pub const CHAOS_PLAN_FILE: &str = "chaos_plan.json";

// ---------------------------------------------------------------------------
// Hang injection
// ---------------------------------------------------------------------------

/// Where a scripted hang wedges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HangTarget {
    /// The supervised child's slot loop stops dead — no acks, no
    /// heartbeats. The supervisor must classify it as a hang within
    /// `hang_deadline` and force-kill.
    SlotLoop,
    /// The child's journal-writer thread wedges while the slot loop stays
    /// live: the durability ladder must demote honestly while batches
    /// back up, and re-promote after the wedge.
    JournalWriter,
    /// A fleet shard's engine wedges mid-slot; the watchdog must fence it
    /// and siblings must not stall (bulkhead isolation).
    FleetShard(usize),
}

impl HangTarget {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            HangTarget::SlotLoop => "slot_loop",
            HangTarget::JournalWriter => "journal_writer",
            HangTarget::FleetShard(_) => "fleet_shard",
        }
    }
}

/// One scripted hang: wedge `target` for `duration_ms` when the slot
/// clock reaches `slot`. Keyed on the *fed* slot sequence, so a hang that
/// got its process killed never re-fires after the warm restart — the
/// parent has already moved past the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HangPoint {
    /// Fed slot at which the wedge starts.
    pub slot: u64,
    /// What wedges.
    pub target: HangTarget,
    /// How long it stays wedged.
    pub duration_ms: u64,
}

/// A scripted set of [`HangPoint`]s — the seeded hang injector, shaped
/// like the other fault schedules ([`StorageFaultSchedule`],
/// `ImpairmentSchedule`): build once, hand to the engine.
///
/// [`StorageFaultSchedule`]: crate::persist::StorageFaultSchedule
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HangSchedule {
    /// The scripted hangs, in no particular order.
    pub hangs: Vec<HangPoint>,
}

impl HangSchedule {
    /// An empty schedule.
    pub fn new() -> HangSchedule {
        HangSchedule::default()
    }

    /// Wedge `target` at `slot` for `ms`.
    pub fn wedge(mut self, target: HangTarget, slot: u64, ms: u64) -> Self {
        self.hangs.push(HangPoint {
            slot,
            target,
            duration_ms: ms,
        });
        self
    }
}

// ---------------------------------------------------------------------------
// Child-side plan
// ---------------------------------------------------------------------------

/// A storage fault armed while the child's fed slot is inside
/// `[from_slot, until_slot)` (every matching backend operation faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageWindow {
    /// Fault class to arm.
    pub kind: FaultKind,
    /// First fed slot of the window.
    pub from_slot: u64,
    /// First fed slot past the window.
    pub until_slot: u64,
}

/// Scripted decode overload: every slot in `[from_slot, until_slot)`
/// dwells an extra `dwell_us` — busy, not wedged, so heartbeats keep
/// flowing and the supervisor must *not* read it as a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverloadWindow {
    /// First fed slot of the window.
    pub from_slot: u64,
    /// First fed slot past the window.
    pub until_slot: u64,
    /// Extra per-slot dwell in microseconds.
    pub dwell_us: u64,
}

/// The child-side slice of a chaos run: scripted hangs, storage windows,
/// and overload dwell, written to [`CHAOS_PLAN_FILE`] by the parent and
/// loaded by [`run_child`](crate::supervise::run_child) on every
/// (re)start. Slot keys are *fed* slot sequence numbers, so points the
/// run already passed never re-fire after a warm restart.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosChildPlan {
    /// Scripted hangs (only [`HangTarget::SlotLoop`] and
    /// [`HangTarget::JournalWriter`] are meaningful child-side).
    pub hangs: Vec<HangPoint>,
    /// Slot-windowed storage faults.
    pub storage_windows: Vec<StorageWindow>,
    /// Scripted overload dwell.
    pub overload_windows: Vec<OverloadWindow>,
}

impl ChaosChildPlan {
    /// Serialize for [`CHAOS_PLAN_FILE`].
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("chaos plan serializes")
    }

    /// Parse a plan written by [`ChaosChildPlan::to_json`].
    pub fn from_json(s: &str) -> Result<ChaosChildPlan, serde_json::Error> {
        serde_json::from_str(s)
    }
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
    /// Scripted SIGKILLs of the supervised child.
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
    /// Parent slots at which the supervisor SIGKILLs the child.
    pub kill_slots: Vec<u64>,
    /// Hostile-air windows `[from, until)` on the parent's gNB.
    pub hostile_windows: Vec<(u64, u64)>,
    /// Every scripted hang (child- and fleet-targeted).
    pub hangs: HangSchedule,
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
            hangs: HangSchedule::new(),
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
            // Slot-loop hang long enough that any sane hang_deadline
            // (default 2 s) expires well before the wedge releases; late
            // enough that the first storage window's re-probe has landed
            // and the restart meets a re-promoted child.
            s.hangs = HangSchedule::new()
                .wedge(HangTarget::SlotLoop, at(380) + jitter(30), 8_000)
                .wedge(HangTarget::JournalWriter, at(560) + jitter(30), 300)
                .wedge(HangTarget::FleetShard(1), at(450) + jitter(30), 2_500);
        }
        s
    }

    /// The slice of this schedule the supervised child executes against
    /// itself (everything except fleet-shard hangs and parent-side
    /// faults).
    pub fn child_plan(&self) -> ChaosChildPlan {
        ChaosChildPlan {
            hangs: self
                .hangs
                .hangs
                .iter()
                .filter(|p| !matches!(p.target, HangTarget::FleetShard(_)))
                .copied()
                .collect(),
            storage_windows: self.storage_windows.clone(),
            overload_windows: self.overload_windows.clone(),
        }
    }

    /// True when the child-side plan has anything to do (worth writing
    /// [`CHAOS_PLAN_FILE`] at all).
    pub fn has_child_faults(&self) -> bool {
        let p = self.child_plan();
        !(p.hangs.is_empty() && p.storage_windows.is_empty() && p.overload_windows.is_empty())
    }

    /// The parent-observer impairment schedule, if impairments are armed.
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
        self.hangs
            .hangs
            .iter()
            .find(|p| p.slot == slot && p.target == HangTarget::SlotLoop)
            .copied()
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
    /// The capture fed this slot was a front-end drop (outage, stall,
    /// impairment) — the *parent* knows this; the monitors use it to
    /// check the child never masks drops.
    pub fed_drop: bool,
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
    /// Shown every supervised slot.
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
    /// A monitor over supervised slots ([`Monitor::on_slot`]).
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

    /// Observe one supervised slot (a rollup monitor is not interested).
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
pub fn never_go_dark(window: u64) -> Monitor {
    let window = window.max(1);
    let (mut last_si, mut stagnant) = (0u64, 0u64);
    Monitor::over_slots("never_go_dark", move |obs| {
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return None;
        };
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
    ]
}

// ---------------------------------------------------------------------------
// Supervised-leg driver
// ---------------------------------------------------------------------------

/// One detected hang, with how it was handled.
#[derive(Debug, Clone, Serialize)]
pub struct HangObservation {
    /// Fed slot the hang was scripted at.
    pub slot: u64,
    /// Wall-clock ms from feeding the hung slot to the supervisor giving
    /// up on it (the hang-detection latency).
    pub detect_ms: u64,
}

/// What [`drive_supervised`] measured.
#[derive(Debug, Clone, Serialize)]
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
}

/// Drive one supervised chaos leg: feed `schedule.horizon_slots` captures
/// from `source` through `sup`, firing scripted kills, timing scripted
/// slot-loop hang detection, and evaluating `monitors` continuously.
///
/// `source(seq)` produces the capture for slot `seq` — the caller owns
/// the gNB/observer wiring (and arms hostile windows itself, since the
/// air interface lives on its side).
///
/// The returned `observed` book already excludes every warm restart's
/// lost tail (acked-but-not-durable slots the restarted child has no
/// memory of), so byte parity over its ranges never claims a byte the
/// system does not hold.
pub fn drive_supervised(
    sup: &mut Supervisor,
    schedule: &ChaosSchedule,
    ghosts: &[Rnti],
    monitors: &mut [Monitor],
    mut source: impl FnMut(u64) -> Capture,
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
    };
    let mut restarts_seen = sup.restart_log().len();
    for seq in 0..slots {
        if schedule.kill_slots.contains(&seq) {
            sup.kill_now(seq);
        }
        let cap = source(seq);
        let fed_drop = matches!(cap, Capture::Dropped(_));
        let hang_here = schedule.slot_loop_hang_at(seq);
        let hangs_before = sup.stats().hangs_detected;
        let fed_at = Instant::now();
        let outcome = sup.feed_slot(seq, &cap);
        // Only a *classified* hang counts: a scripted hang slot landing
        // while no child is up is Lost without any detection having
        // happened.
        if hang_here.is_some() && sup.stats().hangs_detected > hangs_before {
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
            }
            SlotOutcome::Lost(crate::supervise::LostCause::ChildDown) => {
                stats.lost_child_down += 1;
            }
            SlotOutcome::Lost(crate::supervise::LostCause::LameDuck) => {
                stats.lost_lame_duck += 1;
            }
        }
        // A warm restart happened somewhere behind this slot: un-claim the
        // lost tail — slots the dead child acked but never made durable.
        let log = sup.restart_log();
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

/// Compress a per-slot flag vector into maximal half-open ranges (the
/// shape [`WireMsg::Report`](crate::supervise::WireMsg) wants).
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
        assert!(
            s.hangs
                .hangs
                .iter()
                .any(|p| p.target == HangTarget::SlotLoop),
            "acceptance: ≥ 1 scripted hang"
        );
        assert!(s
            .hangs
            .hangs
            .iter()
            .any(|p| p.target == HangTarget::JournalWriter));
        assert!(s.storage_windows.len() >= 2);
        assert!(!s.overload_windows.is_empty());
        assert!(s.impair_drop_prob > 0.0);
        assert!(s.clock_static_ppm != 0.0 && s.clock_step.is_some());
        // Everything scripted lands inside the horizon.
        let h = s.horizon_slots;
        assert!(s.kill_slots.iter().all(|&k| k < h));
        assert!(s.hangs.hangs.iter().all(|p| p.slot < h));
        assert!(s.storage_windows.iter().all(|w| w.until_slot <= h));
    }

    #[test]
    fn compose_none_arms_nothing() {
        let s = ChaosSchedule::compose(1, 8_000, ChaosArms::none());
        assert!(s.kill_slots.is_empty());
        assert!(s.hostile_windows.is_empty());
        assert!(s.hangs.hangs.is_empty());
        assert!(s.storage_windows.is_empty());
        assert!(s.overload_windows.is_empty());
        assert_eq!(s.impair_drop_prob, 0.0);
        assert!(!s.has_child_faults());
    }

    #[test]
    fn child_plan_excludes_fleet_hangs() {
        let s = ChaosSchedule::compose(3, 8_000, ChaosArms::all());
        let plan = s.child_plan();
        assert!(plan
            .hangs
            .iter()
            .all(|p| !matches!(p.target, HangTarget::FleetShard(_))));
        assert!(plan.hangs.len() < s.hangs.hangs.len());
        // Round-trips through the plan file format.
        let back = ChaosChildPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn ranges_of_compresses_flags() {
        assert_eq!(ranges_of(&[true, true, false, true]), vec![(0, 2), (3, 4)]);
        assert!(ranges_of(&[false, false]).is_empty());
    }

    fn ack() -> crate::supervise::Ack {
        crate::supervise::Ack {
            seq: 0,
            watermark: 100,
            sync: SyncState::Synced,
            produced: 0,
            tracked: vec![],
            durable: 50,
            durability_rung: 0,
            loss_window: Some(80),
            si_dcis: 0,
        }
    }

    fn show(m: &mut Monitor, slot: u64, ack: crate::supervise::Ack) {
        m.on_slot(&ChaosObs {
            slot,
            fed_drop: false,
            ghosts: &[],
            outcome: &SlotOutcome::Acked(ack),
            spawns: 1,
        });
    }

    #[test]
    fn watermark_monitor_catches_regression() {
        let mut m = watermark_monotonicity();
        let mut ack = ack();
        show(&mut m, 0, ack.clone());
        assert!(m.violation().is_none());
        ack.watermark = 90; // regression
        show(&mut m, 1, ack);
        assert!(m.violation().is_some());
        assert_eq!(m.violation().unwrap().slot, 1);
    }

    #[test]
    fn loss_window_monitor_catches_dishonest_bound() {
        let mut m = bounded_loss_window();
        let mut ack = ack();
        ack.durable = 0;
        ack.durability_rung = 2; // NonDurable, yet promising a bound
        show(&mut m, 5, ack);
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
            show(&mut m, slot, ack());
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
             no_ghost_admissions clock_mask_asymmetry bulkhead_isolation"
        );
        // And a rollup monitor ignores slots.
        show(&mut all[5], 0, ack());
        assert!(all[5].violation().is_none());
    }
}
