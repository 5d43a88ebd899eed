//! Overload: a fleet shard whose queue backs up decodes its backlog
//! broadcast-only, and sheds a slot only when its ring is full even so.
//! The shard's one worker is held inside a `SlotHook` — the hook signals
//! that it has been entered, then blocks until released — while the
//! feeder queues a window behind it. The backlog, the one overload
//! signal, is then exact, and so is every rung the drain decodes at.
//!
//! The invariant under test: MSG 4 C-RNTI discovery and SIB1 tracking
//! never go dark. Two UEs RACH inside the broadcast-only drain and must
//! still be discovered through MSG 4, and are tracked like everyone else
//! once it is over.

use nr_scope::gnb::{CellConfig, Gnb};
use nr_scope::mac::RoundRobin;
use nr_scope::phy::channel::ChannelProfile;
use nr_scope::phy::types::{Rnti, RntiType};
use nr_scope::scope::observe::Observer;
use nr_scope::scope::{
    Fidelity, Fleet, FleetConfig, ImpairmentSchedule, LoadRung, NrScope, PersistConfig,
    ScopeConfig, ScopeStats, ShardSpec, SlotHook, SyncState,
};
use nr_scope::ue::traffic::{TrafficKind, TrafficSource};
use nr_scope::ue::{MobilityScenario, SimUe};
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn backlogged_ue(id: u64) -> SimUe {
    SimUe::new(
        id,
        ChannelProfile::Awgn,
        MobilityScenario::Static,
        TrafficSource::new(
            TrafficKind::FileDownload {
                total_bytes: usize::MAX / 2,
            },
            id,
        ),
        0.0,
        600.0,
        id,
    )
}

/// A one-shard fleet at message fidelity: one worker, a ring of `depth`,
/// no watchdog (a held worker is not a wedged one); durable if `persist`.
fn one_shard_fleet(
    cell: &CellConfig,
    depth: usize,
    ue_expiry_slots: u64,
    persist: Option<PersistConfig>,
) -> Fleet {
    let scope = ScopeConfig {
        fidelity: Fidelity::Message,
        ue_expiry_slots,
        ..ScopeConfig::default()
    };
    let cfg = FleetConfig {
        workers: 1,
        shard_queue_depth: depth,
        watchdog_ms: 0,
        ..FleetConfig::default()
    };
    let spec = ShardSpec::volatile("cell", Some(cell.pci), scope);
    Fleet::new(cfg, vec![ShardSpec { persist, ..spec }]).expect("fleet")
}

/// The shard's scope, read between drains.
fn scope<R>(fleet: &Fleet, f: impl FnOnce(&NrScope) -> R) -> R {
    fleet.with_scope(0, f).expect("the shard has an engine")
}

/// Slots the shard decoded broadcast-only.
fn blind_slots(st: &ScopeStats) -> u64 {
    st.slots_at_rung[LoadRung::BroadcastOnly as usize]
}

/// The cell on the air and the sniffer's front end, fed slot by slot.
struct Feed {
    gnb: Gnb,
    obs: Observer,
    slot_s: f64,
    next: u64,
}

impl Feed {
    fn new(cell: &CellConfig, ues: u64) -> Feed {
        let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), 11);
        for id in 1..=ues {
            gnb.ue_arrives(backlogged_ue(id));
        }
        Feed {
            gnb,
            obs: Observer::new(cell, 35.0, false, 5),
            slot_s: cell.slot_s(),
            next: 0,
        }
    }

    fn push(&mut self, fleet: &Fleet) {
        let out = self.gnb.step();
        let cap = self.obs.capture(&out, self.next as f64 * self.slot_s);
        fleet.feed(0, self.next, cap);
        self.next += 1;
    }

    /// `n` slots paced so the backlog stays a few slots deep, then drained.
    fn paced(&mut self, fleet: &Fleet, n: u64) {
        for _ in 0..n {
            self.push(fleet);
            while fleet.shard_status(0).queue_len > 8 {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        assert!(fleet.quiesce(Duration::from_secs(60)), "paced feed drained");
    }

    /// Hold the shard's worker inside its hook on the next slot, queue
    /// `window` slots behind it (`arrive` runs before each of their gNB
    /// steps), release, and drain. The hook panics on slot `kill`, if
    /// given. Returns the held slot.
    fn held(
        &mut self,
        fleet: &Fleet,
        window: u64,
        kill: Option<u64>,
        mut arrive: impl FnMut(u64, &mut Gnb),
    ) -> u64 {
        let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let (e, r, at) = (Arc::clone(&entered), Arc::clone(&release), self.next);
        let hold = move |slot| {
            if slot == at {
                e.wait();
                r.wait();
            }
            if Some(slot) == kill {
                panic!("injected shard fault");
            }
        };
        fleet.set_slot_hook(0, Some(SlotHook::new(hold)));
        self.push(fleet);
        entered.wait();
        for _ in 0..window {
            arrive(self.next, &mut self.gnb);
            self.push(fleet);
        }
        release.wait();
        assert!(fleet.quiesce(Duration::from_secs(60)), "backlog drained");
        fleet.set_slot_hook(0, None);
        at
    }

    /// Distinct RNTIs the gNB addressed as `kind` within `slots`.
    fn truth(&self, kind: RntiType, slots: Range<u64>) -> BTreeSet<Rnti> {
        let records = self.gnb.truth().records().iter();
        let hits = records.filter(|r| r.rnti_type == kind && slots.contains(&r.slot));
        hits.map(|r| r.rnti).collect()
    }

    /// SI DCIs the gNB sent within `slots`.
    fn si_sent(&self, slots: Range<u64>) -> u64 {
        let records = self.gnb.truth().records().iter();
        records
            .filter(|r| r.rnti_type == RntiType::Si && slots.contains(&r.slot))
            .count() as u64
    }
}

/// Ring depth of the main scenario: the drain enters `BroadcastOnly` over
/// 7/8 of it (a backlog of 225) and leaves under 7/16 (a backlog of 111).
const DEPTH: usize = 256;

/// Slots queued behind the held one: more than 7/8 of the depth, and no
/// more than it, so nothing sheds.
const WINDOW: u64 = 240;

#[test]
fn oversubscribed_population_degrades_recovers_and_never_loses_rach() {
    let cell = CellConfig::srsran_n41();
    let fleet = one_shard_fleet(&cell, DEPTH, 20_000, None);
    let mut feed = Feed::new(&cell, 16);

    // Sixteen UEs attach on a paced feed: no backlog, no blind slot.
    feed.paced(&fleet, 1200);
    let (discovered, blind, si_before) = scope(&fleet, |s| {
        (s.total_discovered(), blind_slots(&s.stats), s.stats.si_dcis)
    });
    assert_eq!((discovered, blind), (16, 0), "paced: all 16 found at Full");

    // UEs 17 and 18 arrive as the window opens: their RACH, RAR and MSG 4
    // are all queued behind the held slot.
    let at = feed.held(&fleet, WINDOW, None, |slot, gnb| {
        if slot == 1201 {
            gnb.ue_arrives(backlogged_ue(17));
            gnb.ue_arrives(backlogged_ue(18));
        }
    });
    assert_eq!(at, 1200);
    // The held slot popped with nothing behind it (Full). The window's
    // first pop leaves 239 queued: over 224 = 7/8 of 256, so the drain
    // decodes broadcast-only until a pop leaves 111 < 112 = 7/16 of 256,
    // which is back at Full: 239 − 111 = 128 slots, seq 1201..=1328.
    let blind_window = at + 1..at + 1 + 128;
    let st = scope(&fleet, |s| s.stats);
    assert_eq!(blind_slots(&st), 128);
    assert_eq!(
        fleet.shard_status(0).sheds,
        0,
        "a ring that is not full sheds nothing"
    );
    assert_eq!((st.rung_demotions, st.rung_promotions), (1, 1));
    assert_eq!(scope(&fleet, |s| s.load_rung()), LoadRung::Full);
    // Every SI DCI of the window was decoded, the broadcast-only slots'
    // included: SIB1 tracking continued while blind.
    let window = at..at + 1 + WINDOW;
    assert!(feed.si_sent(blind_window.clone()) > 0);
    assert_eq!(st.si_dcis - si_before, feed.si_sent(window));
    assert_eq!(
        scope(&fleet, |s| s.sync_state()),
        SyncState::Synced,
        "rung-induced silence does not degrade sync"
    );
    // The two new UEs' MSG 4s fell in broadcast-only slots, and were
    // discovered there.
    let late_msg4 = feed.truth(RntiType::Tc, at + 1..feed.next);
    assert_eq!(late_msg4.len(), 2, "UEs 17 and 18 RACHed in the window");
    assert_eq!(feed.truth(RntiType::Tc, blind_window), late_msg4);
    let all_msg4 = feed.truth(RntiType::Tc, 0..feed.next);
    assert_eq!(
        scope(&fleet, |s| s.total_discovered()),
        all_msg4.len() as u64,
        "MSG 4 C-RNTI discovery succeeded for every RACH in the truth log"
    );
    let connected = feed.gnb.connected_rntis();
    assert_eq!(connected.len(), 18);
    let tracked = scope(&fleet, |s| s.tracked_rntis());
    for r in &connected {
        assert!(tracked.contains(r), "UE {r:?} tracked after the drain");
    }

    // Overfill: 40 slots more than the ring holds queue behind the held
    // one. Only then does the ring shed — its own oldest, 40 of them —
    // and the drain still ends at Full.
    feed.paced(&fleet, 200);
    let before = scope(&fleet, |s| s.stats);
    feed.held(&fleet, DEPTH as u64 + 40, None, |_, _| {});
    assert_eq!(fleet.shard_status(0).sheds, 40, "a full ring sheds");
    let st = scope(&fleet, |s| s.stats);
    let dropped = st.dropped_slots - before.dropped_slots;
    assert_eq!(dropped, 40, "shed slots are gap-filled drops");
    // The first pop after the gap leaves 255 queued: 255 − 111 = 144
    // broadcast-only slots.
    assert_eq!(blind_slots(&st) - blind_slots(&before), 144);
    assert_eq!(scope(&fleet, |s| s.load_rung()), LoadRung::Full);
    assert_eq!(scope(&fleet, |s| s.sync_state()), SyncState::Synced);
    fleet.finish();
}

/// The sync-health machine and the backlog rung compose. An outage
/// (dropped slots) inside the broadcast-only drain must still degrade
/// sync — drops are front-end reality, not rung-induced silence — and
/// both must recover without double-counting UEs or losing SIB1.
#[test]
fn outage_while_blind_degrades_sync_but_recovery_composes() {
    let cell = CellConfig::srsran_n41();
    // A ring of 512 and a window of 500: the drain is broadcast-only from
    // a backlog of 499 down to 224 (7/16 of 512), 276 slots — room for a
    // 160-slot outage inside it.
    let fleet = one_shard_fleet(&cell, 512, 1200, None);
    let mut feed = Feed::new(&cell, 4);
    feed.obs
        .set_impairments(ImpairmentSchedule::new(42).with_outage(1440..1600));
    feed.paced(&fleet, 1400);
    assert_eq!(scope(&fleet, |s| s.total_discovered()), 4);
    let at = feed.held(&fleet, 500, None, |_, _| {});
    let st = scope(&fleet, |s| s.stats);
    assert_eq!(blind_slots(&st), 276 - 160, "the outage's slots are drops");
    assert_eq!(st.dropped_slots, 160);
    let blind_drain = at + 1..at + 1 + 276;
    assert!(
        blind_drain.contains(&1440) && blind_drain.contains(&1599),
        "the outage lies inside the blind drain"
    );
    assert_eq!(
        st.resyncs, 1,
        "drops degraded sync at a blind rung; one resync"
    );
    assert_eq!(scope(&fleet, |s| s.sync_state()), SyncState::Synced);
    assert!(scope(&fleet, |s| s.cell.sib1.is_some()), "SIB1 state kept");

    // Two UEs leave; the rest is paced at Full.
    feed.gnb.ue_departs(1);
    feed.gnb.ue_departs(2);
    feed.paced(&fleet, 600);
    assert_eq!(scope(&fleet, |s| s.load_rung()), LoadRung::Full);
    assert_eq!(scope(&fleet, |s| s.sync_state()), SyncState::Synced);
    assert_eq!(
        scope(&fleet, |s| s.total_discovered()),
        4,
        "no UE double-counted across the sync and rung transitions"
    );
    let tracked = scope(&fleet, |s| s.tracked_rntis());
    for r in &feed.gnb.connected_rntis() {
        assert!(tracked.contains(r), "live UE {r:?} tracked");
    }
    fleet.finish();
}

/// The rung survives a warm restart. A durable shard killed inside its
/// broadcast-only drain resumes at the rung it left — the rung is read off
/// the checkpointed demotion and promotion counters — so it neither
/// counts a second demotion nor decodes the rest of its backlog at `Full`.
#[test]
fn durable_shard_killed_mid_drain_resumes_blind_with_paired_counters() {
    let cell = CellConfig::srsran_n41();
    let dir = std::env::temp_dir().join(format!("nrscope-overload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = one_shard_fleet(&cell, DEPTH, 20_000, Some(PersistConfig::new(&dir)));
    let mut feed = Feed::new(&cell, 8);
    feed.paced(&fleet, 1200);
    // As in the first test, the window's first pop (seq 1201) leaves 239
    // queued and enters `BroadcastOnly`. The hook kills the shard on seq
    // 1264, after 63 blind slots, with 176 queued behind it: inside the
    // hysteresis band, where the rung depends on the rung it was at.
    let kill = 1264;
    let at = feed.held(&fleet, WINDOW, Some(kill), |_, _| {});
    assert_eq!(at, 1200);
    let status = fleet.shard_status(0);
    assert_eq!((status.panics, status.restarts), (1, 1));
    let report = status.last_recovery.expect("a durable recovery");
    assert!(report.resumed, "warm restart");
    assert_eq!(report.resumed_slot, kill, "nothing processed was lost");
    // The restarted engine resumes blind: the pop of seq 1265 leaves 175,
    // and the drain stays broadcast-only until a pop leaves 111 (seq
    // 1329). 63 + 64 blind slots; the killed slot is a gap-filled drop.
    let st = scope(&fleet, |s| s.stats);
    assert_eq!(blind_slots(&st), 63 + 64);
    assert_eq!(st.dropped_slots, 1);
    assert_eq!(
        (st.rung_demotions, st.rung_promotions),
        (1, 1),
        "one demotion, one promotion, across the restart"
    );
    assert_eq!(scope(&fleet, |s| s.load_rung()), LoadRung::Full);
    assert_eq!(scope(&fleet, |s| s.sync_state()), SyncState::Synced);
    fleet.finish();
    let _ = std::fs::remove_dir_all(&dir);
}
