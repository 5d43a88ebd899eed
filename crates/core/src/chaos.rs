//! Composed-chaos engine: one seeded schedule arms any subset of the
//! repo's fault classes — impairments × overload × storage faults ×
//! clock drift × hostile air × kill-9 × hangs — over a single timeline,
//! while [`InvariantMonitor`]s evaluate the system's promises
//! continuously and record the first slot at which one breaks.
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
//! - [`InvariantMonitor`]s watch the supervised pipe traffic
//!   ([`ChaosObs`]) and fleet rollups, flagging the first violation with
//!   slot + context instead of a bare boolean.
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

    /// Wedge the supervised child's slot loop at `slot` for `ms`.
    pub fn wedge_slot_loop(mut self, slot: u64, ms: u64) -> Self {
        self.hangs.push(HangPoint {
            slot,
            target: HangTarget::SlotLoop,
            duration_ms: ms,
        });
        self
    }

    /// Wedge the child's journal-writer thread at `slot` for `ms`.
    pub fn wedge_journal_writer(mut self, slot: u64, ms: u64) -> Self {
        self.hangs.push(HangPoint {
            slot,
            target: HangTarget::JournalWriter,
            duration_ms: ms,
        });
        self
    }

    /// Wedge fleet shard `shard` at `slot` for `ms`.
    pub fn wedge_fleet_shard(mut self, shard: usize, slot: u64, ms: u64) -> Self {
        self.hangs.push(HangPoint {
            slot,
            target: HangTarget::FleetShard(shard),
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
    /// Seed for the child's [`FaultyBackend`](crate::persist::FaultyBackend).
    pub seed: u64,
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
                .wedge_slot_loop(at(380) + jitter(30), 8_000)
                .wedge_journal_writer(at(560) + jitter(30), 300)
                .wedge_fleet_shard(1, at(450) + jitter(30), 2_500);
        }
        s
    }

    /// The slice of this schedule the supervised child executes against
    /// itself (everything except fleet-shard hangs and parent-side
    /// faults).
    pub fn child_plan(&self) -> ChaosChildPlan {
        ChaosChildPlan {
            seed: self.seed,
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
}

/// A continuously evaluated invariant. Implementations latch the *first*
/// violation ([`Violation`]) and ignore everything after — the first
/// broken slot is the debuggable one.
pub trait InvariantMonitor {
    /// Stable snake_case monitor name for reports.
    fn name(&self) -> &'static str;
    /// Observe one supervised slot. Default: not interested.
    fn on_slot(&mut self, _obs: &ChaosObs) {}
    /// Observe one fleet rollup (fleet-leg monitors). Default: not
    /// interested.
    fn on_fleet(&mut self, _slot: u64, _snap: &FleetSnapshot) {}
    /// The latched first violation, if any.
    fn violation(&self) -> Option<&Violation>;
}

/// Final per-monitor status for reports.
#[derive(Debug, Clone, Serialize)]
pub struct MonitorStatus {
    /// Monitor name.
    pub name: String,
    /// Green?
    pub ok: bool,
    /// The first violation when not green.
    pub violation: Option<Violation>,
}

/// Collapse a monitor set into report rows.
pub fn monitor_statuses(monitors: &[Box<dyn InvariantMonitor>]) -> Vec<MonitorStatus> {
    monitors
        .iter()
        .map(|m| MonitorStatus {
            name: m.name().to_string(),
            ok: m.violation().is_none(),
            violation: m.violation().cloned(),
        })
        .collect()
}

/// Never-go-dark: while the child is alive and acking decodable slots,
/// its cumulative SI-DCI count must keep advancing — broadcast traffic is
/// always on the air, so a scope that stops seeing SI has gone dark
/// regardless of what else it claims.
pub struct NeverGoDarkMonitor {
    window: u64,
    last_si: u64,
    stagnant: u64,
    violation: Option<Violation>,
}

impl NeverGoDarkMonitor {
    /// Violation after `window` consecutive acked, non-dropped slots with
    /// no SI progress. Must comfortably exceed the re-sync bound (~800
    /// slots) so post-restart reacquisition is not read as darkness.
    pub fn new(window: u64) -> Self {
        NeverGoDarkMonitor {
            window: window.max(1),
            last_si: 0,
            stagnant: 0,
            violation: None,
        }
    }
}

impl InvariantMonitor for NeverGoDarkMonitor {
    fn name(&self) -> &'static str {
        "never_go_dark"
    }

    fn on_slot(&mut self, obs: &ChaosObs) {
        if self.violation.is_some() {
            return;
        }
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return;
        };
        if obs.fed_drop {
            return; // nothing decodable was offered
        }
        if ack.si_dcis > self.last_si {
            self.last_si = ack.si_dcis;
            self.stagnant = 0;
        } else {
            self.stagnant += 1;
            if self.stagnant > self.window {
                self.violation = Some(Violation {
                    slot: obs.slot,
                    context: format!(
                        "no SI-DCI progress over {} decodable acked slots (stuck at {})",
                        self.stagnant, self.last_si
                    ),
                });
            }
        }
    }

    fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }
}

/// Bounded loss window: whenever the child *claims* a bounded loss window
/// it must honour it (durable watermark within the bound of the
/// processing watermark), and the claim itself must be honest — a
/// `NonDurable` child promising a bound, or a healthy one promising
/// unbounded loss, is lying to its operator.
pub struct BoundedLossWindowMonitor {
    violation: Option<Violation>,
}

impl Default for BoundedLossWindowMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl BoundedLossWindowMonitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        BoundedLossWindowMonitor { violation: None }
    }
}

impl InvariantMonitor for BoundedLossWindowMonitor {
    fn name(&self) -> &'static str {
        "bounded_loss_window"
    }

    fn on_slot(&mut self, obs: &ChaosObs) {
        if self.violation.is_some() {
            return;
        }
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return;
        };
        let non_durable = ack.durability_rung == 2;
        match ack.loss_window {
            Some(w) => {
                if non_durable {
                    self.violation = Some(Violation {
                        slot: obs.slot,
                        context: format!(
                            "NonDurable child still promising a bounded loss window ({w})"
                        ),
                    });
                } else {
                    let lag = ack.watermark.saturating_sub(ack.durable);
                    if lag > w {
                        self.violation = Some(Violation {
                            slot: obs.slot,
                            context: format!(
                                "durable watermark lags {} slots behind, promised bound {w}",
                                lag
                            ),
                        });
                    }
                }
            }
            None => {
                if !non_durable {
                    self.violation = Some(Violation {
                        slot: obs.slot,
                        context: format!(
                            "child on durability rung {} reported an unbounded loss window",
                            ack.durability_rung
                        ),
                    });
                }
            }
        }
    }

    fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }
}

/// Watermark monotonicity: processing and durable watermarks never move
/// backwards — not per incarnation, across the whole run, warm restarts
/// included — and the durable watermark never overtakes processing.
pub struct WatermarkMonotonicityMonitor {
    last_watermark: u64,
    last_durable: u64,
    violation: Option<Violation>,
}

impl Default for WatermarkMonotonicityMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl WatermarkMonotonicityMonitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        WatermarkMonotonicityMonitor {
            last_watermark: 0,
            last_durable: 0,
            violation: None,
        }
    }
}

impl InvariantMonitor for WatermarkMonotonicityMonitor {
    fn name(&self) -> &'static str {
        "watermark_monotonicity"
    }

    fn on_slot(&mut self, obs: &ChaosObs) {
        if self.violation.is_some() {
            return;
        }
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return;
        };
        let fail = if ack.watermark < self.last_watermark {
            Some(format!(
                "processing watermark regressed {} -> {}",
                self.last_watermark, ack.watermark
            ))
        } else if ack.durable < self.last_durable {
            Some(format!(
                "durable watermark regressed {} -> {}",
                self.last_durable, ack.durable
            ))
        } else if ack.durable > ack.watermark {
            Some(format!(
                "durable watermark {} ahead of processing watermark {}",
                ack.durable, ack.watermark
            ))
        } else {
            None
        };
        if let Some(context) = fail {
            self.violation = Some(Violation {
                slot: obs.slot,
                context,
            });
            return;
        }
        self.last_watermark = ack.watermark;
        self.last_durable = ack.durable;
    }

    fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }
}

/// No ghost admissions: hostile ghost C-RNTIs must never show up in the
/// child's tracked set, no matter what else is failing around it.
pub struct NoGhostAdmissionsMonitor {
    ghosts: Vec<Rnti>,
    violation: Option<Violation>,
}

impl NoGhostAdmissionsMonitor {
    /// Watch for these ghosts.
    pub fn new(ghosts: Vec<Rnti>) -> Self {
        NoGhostAdmissionsMonitor {
            ghosts,
            violation: None,
        }
    }
}

impl InvariantMonitor for NoGhostAdmissionsMonitor {
    fn name(&self) -> &'static str {
        "no_ghost_admissions"
    }

    fn on_slot(&mut self, obs: &ChaosObs) {
        if self.violation.is_some() {
            return;
        }
        let SlotOutcome::Acked(ack) = obs.outcome else {
            return;
        };
        if let Some(g) = self.ghosts.iter().find(|g| ack.tracked.contains(g)) {
            self.violation = Some(Violation {
                slot: obs.slot,
                context: format!("hostile ghost RNTI {g} admitted to the tracked set"),
            });
        }
    }

    fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }
}

/// Clock-mask asymmetry: the timing-recovery lock ladder may mask
/// *decode silence*, never front-end *drops* (DESIGN.md §clock). If the
/// parent feeds a long unbroken run of dropped captures and the child
/// still reports `Synced` at the end of it, drops are being masked —
/// real outages would be undetectable exactly when the clock loop is most
/// confused.
pub struct ClockMaskAsymmetryMonitor {
    run_len: u64,
    consecutive_drops: u64,
    violation: Option<Violation>,
}

impl ClockMaskAsymmetryMonitor {
    /// Violation when `run_len` consecutive dropped slots leave sync
    /// untouched. Must exceed the sync-health demotion threshold
    /// (default 120 slots) with margin.
    pub fn new(run_len: u64) -> Self {
        ClockMaskAsymmetryMonitor {
            run_len: run_len.max(1),
            consecutive_drops: 0,
            violation: None,
        }
    }
}

impl InvariantMonitor for ClockMaskAsymmetryMonitor {
    fn name(&self) -> &'static str {
        "clock_mask_asymmetry"
    }

    fn on_slot(&mut self, obs: &ChaosObs) {
        if self.violation.is_some() {
            return;
        }
        let SlotOutcome::Acked(ack) = obs.outcome else {
            // A down child resets the streak: nothing was acked.
            self.consecutive_drops = 0;
            return;
        };
        if obs.fed_drop {
            self.consecutive_drops += 1;
            if self.consecutive_drops >= self.run_len && ack.sync == SyncState::Synced {
                self.violation = Some(Violation {
                    slot: obs.slot,
                    context: format!(
                        "sync still Synced after {} consecutive front-end drops — \
                         drops masked by the clock ladder",
                        self.consecutive_drops
                    ),
                });
            }
        } else {
            self.consecutive_drops = 0;
        }
    }

    fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }
}

/// Bulkhead isolation: while any shard is unhealthy (faulted/wedged or
/// breaker-parked), every *other* cell's slot count must keep advancing
/// between consecutive rollups. One wedged shard starving its siblings is
/// exactly the failure bulkheads exist to prevent.
/// One shard's rollup sample: (cell name, slots advanced, health label).
type ShardSample = (String, u64, String);

pub struct BulkheadIsolationMonitor {
    min_gap_slots: u64,
    prev: Option<(u64, Vec<ShardSample>)>,
    violation: Option<Violation>,
}

impl BulkheadIsolationMonitor {
    /// Compare rollups at least `min_gap_slots` of feed apart (closer
    /// samples legitimately show no progress on an idle queue).
    pub fn new(min_gap_slots: u64) -> Self {
        BulkheadIsolationMonitor {
            min_gap_slots: min_gap_slots.max(1),
            prev: None,
            violation: None,
        }
    }
}

impl InvariantMonitor for BulkheadIsolationMonitor {
    fn name(&self) -> &'static str {
        "bulkhead_isolation"
    }

    fn on_fleet(&mut self, slot: u64, snap: &FleetSnapshot) {
        if self.violation.is_some() {
            return;
        }
        let now: Vec<(String, u64, String)> = snap
            .cells
            .iter()
            .map(|c| (c.name.clone(), c.slots, c.health.clone()))
            .collect();
        if let Some((prev_slot, prev_cells)) = &self.prev {
            if slot.saturating_sub(*prev_slot) >= self.min_gap_slots {
                let any_unhealthy = prev_cells.iter().any(|(_, _, h)| h != "healthy")
                    || now.iter().any(|(_, _, h)| h != "healthy");
                if any_unhealthy {
                    for ((name, slots_now, health_now), (_, slots_prev, health_prev)) in
                        now.iter().zip(prev_cells.iter())
                    {
                        // Only healthy siblings are held to the progress
                        // bar — the wedged shard itself is *supposed* to
                        // be fenced and still.
                        if health_now == "healthy"
                            && health_prev == "healthy"
                            && slots_now <= slots_prev
                        {
                            self.violation = Some(Violation {
                                slot,
                                context: format!(
                                    "healthy sibling {name} made no progress \
                                     ({slots_prev} slots) across a wedge window"
                                ),
                            });
                            return;
                        }
                    }
                }
                self.prev = Some((slot, now));
            }
        } else {
            self.prev = Some((slot, now));
        }
    }

    fn violation(&self) -> Option<&Violation> {
        self.violation.as_ref()
    }
}

/// The standard supervised-leg monitor set (everything except the
/// fleet-leg bulkhead monitor, which the caller adds when it drives a
/// fleet).
pub fn standard_monitors(ghosts: Vec<Rnti>) -> Vec<Box<dyn InvariantMonitor>> {
    vec![
        Box::new(NeverGoDarkMonitor::new(2_000)),
        Box::new(BoundedLossWindowMonitor::new()),
        Box::new(WatermarkMonotonicityMonitor::new()),
        Box::new(NoGhostAdmissionsMonitor::new(ghosts)),
        Box::new(ClockMaskAsymmetryMonitor::new(400)),
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
    /// Slots lost while the child was down or backing off.
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
    monitors: &mut [Box<dyn InvariantMonitor>],
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
        // inside a kill's backoff window is Lost(ChildDown) without any
        // detection having happened.
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

    #[test]
    fn watermark_monitor_catches_regression() {
        use crate::supervise::Ack;
        let mut m = WatermarkMonotonicityMonitor::new();
        let mut ack = Ack {
            seq: 0,
            watermark: 100,
            sync: SyncState::Synced,
            produced: 0,
            tracked: vec![],
            durable: 50,
            durability_rung: 0,
            loss_window: Some(80),
            si_dcis: 0,
        };
        let outcome = SlotOutcome::Acked(ack.clone());
        m.on_slot(&ChaosObs {
            slot: 0,
            fed_drop: false,
            ghosts: &[],
            outcome: &outcome,
        });
        assert!(m.violation().is_none());
        ack.watermark = 90; // regression
        let outcome = SlotOutcome::Acked(ack);
        m.on_slot(&ChaosObs {
            slot: 1,
            fed_drop: false,
            ghosts: &[],
            outcome: &outcome,
        });
        assert!(m.violation().is_some());
        assert_eq!(m.violation().unwrap().slot, 1);
    }

    #[test]
    fn loss_window_monitor_catches_dishonest_bound() {
        use crate::supervise::Ack;
        let mut m = BoundedLossWindowMonitor::new();
        let ack = Ack {
            seq: 0,
            watermark: 100,
            sync: SyncState::Synced,
            produced: 0,
            tracked: vec![],
            durable: 0,
            durability_rung: 2,    // NonDurable…
            loss_window: Some(80), // …yet promising a bound
            si_dcis: 0,
        };
        let outcome = SlotOutcome::Acked(ack);
        m.on_slot(&ChaosObs {
            slot: 5,
            fed_drop: false,
            ghosts: &[],
            outcome: &outcome,
        });
        assert!(m.violation().is_some());
    }
}
