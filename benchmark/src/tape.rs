//! Workload definitions and tape generation.
//!
//! A *tape* is the full input of one workload: every `Capture` the
//! observer hands the sniffer, generated from `--seed` before any timing
//! starts, together with the gNB that produced it (its truth log is what
//! outputs are checked against).
//!
//! Tapes are *curated*: NR-Scope learns a UE only from its random access
//! (RAR, then the Msg4 DCI), and on about one seed in eight the sniffer's
//! noise takes one of those few DCIs, so that UE stays invisible for the
//! whole tape and the run would track 63 of 64 UEs. A benchmark input on
//! which an operation fails is no input (and the load would differ from
//! seed to seed), so the build replays the attach window into a fresh scope
//! and, if a UE was missed, draws the sniffer's noise again
//! ([`Tape::rerolls`]). The gNB side never changes with the draw.

use crate::replay::Session;
use gnb_sim::{CellConfig, Gnb};
use nr_mac::RoundRobin;
use nr_phy::channel::ChannelProfile;
use nrscope::observe::{ObservedDci, PdschPayload};
use nrscope::{Capture, ObservedSlot, Observer};
use std::path::Path;
use std::time::Instant;
use ue_sim::traffic::{TrafficKind, TrafficSource};
use ue_sim::{MobilityScenario, SimUe};

/// Sniffer receive SNR for every workload (dB).
pub const SNR_DB: f64 = 30.0;

/// Noise draws tried for one tape. The miss is rare per draw, so this is
/// never reached unless discovery itself is broken; the last draw is then
/// kept and the run's "every attached UE tracked" check reports it.
pub const MAX_REROLLS: u64 = 16;

/// Slots replayed past the last UE's Msg4 before the attach window is
/// judged, on top of one per UE: the scope tracks a UE from its first
/// C-RNTI DCI, which the round-robin scheduler hands out within about one
/// slot per UE (43 slots for 64 UEs).
const ATTACH_MARGIN_SLOTS: u64 = 16;

/// One benchmark workload: which tape, replayed into which session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// IQ fidelity (waveform + full receive chain) or message fidelity.
    pub iq: bool,
    /// CBR 3 Mb/s UEs attached at slot 0.
    pub n_ues: usize,
    pub slots: u64,
    /// Replay through `PersistentSession` instead of the plain scope.
    pub durable: bool,
    /// Slots summed before the throughput estimate takes its minimum
    /// across reps (`ledger::estimate`): 1 where all work is tied to its
    /// slot, 256 (≈5 ms of message-fidelity slots, about one IQ slot)
    /// where journal rotations, which follow the checkpoint thread's
    /// progress, move between slots.
    pub chunk_slots: usize,
}

/// Tape lengths are sized so three whole-tape reps fit the run's
/// `--seconds` on a 2-core host (see README "Sizing"): the IQ path runs at
/// ≈400 slots/s with one UE and ≈50 slots/s with twelve.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "iq-sparse",
        iq: true,
        n_ues: 1,
        slots: 1000,
        durable: false,
        chunk_slots: 1,
    },
    Workload {
        name: "iq-dense",
        iq: true,
        n_ues: 12,
        slots: 200,
        durable: false,
        chunk_slots: 1,
    },
    Workload {
        name: "msg-dense",
        iq: false,
        n_ues: 64,
        slots: 40_000,
        durable: false,
        chunk_slots: 256,
    },
    Workload {
        name: "msg-durable",
        iq: false,
        n_ues: 64,
        slots: 40_000,
        durable: true,
        chunk_slots: 256,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload over only the first `slots` slots of its tape
    /// (the gNB is stepped from slot 0 with the same seed, so this is a
    /// true prefix, provided it is long enough to hold the attach window
    /// the noise draw is judged on).
    pub fn prefix(self, slots: u64) -> Workload {
        Workload {
            slots: slots.min(self.slots),
            ..self
        }
    }
}

/// A generated input tape plus the simulator state that produced it.
pub struct Tape {
    pub workload: Workload,
    pub seed: u64,
    pub cell: CellConfig,
    pub captures: Vec<Capture>,
    /// The gNB after the last slot; `gnb.truth()` is the ground truth.
    pub gnb: Gnb,
    /// Per-slot generator-side timings (ns): `Gnb::step`, `Observer::capture`.
    pub step_ns: Vec<u64>,
    pub capture_ns: Vec<u64>,
    /// Noise draws rejected before this one because the scope missed a
    /// UE's random access (module docs).
    pub rerolls: u64,
}

/// The gNB at slot 0 with the workload's UE population attached: CBR
/// 3 Mb/s, static AWGN channel, every seed derived from `seed`.
pub fn populated_gnb(cell: &CellConfig, workload: Workload, seed: u64) -> Gnb {
    let horizon_s = workload.slots as f64 * cell.slot_s() + 10.0;
    let mut gnb = Gnb::new(cell.clone(), Box::new(RoundRobin::new()), seed);
    for i in 0..workload.n_ues as u64 {
        gnb.ue_arrives(SimUe::new(
            i + 1,
            ChannelProfile::Awgn,
            MobilityScenario::Static,
            TrafficSource::new(
                TrafficKind::Cbr {
                    rate_bps: 3e6,
                    packet_bytes: 1200,
                },
                seed.wrapping_mul(1000).wrapping_add(i),
            ),
            0.0,
            horizon_s,
            seed.wrapping_mul(7777).wrapping_add(i),
        ));
    }
    gnb
}

/// Replay `captures` into a fresh in-memory scope: does it track every UE
/// the gNB has connected?
fn tracks_all(workload: Workload, cell: &CellConfig, captures: &[Capture], gnb: &Gnb) -> bool {
    let plain = Workload {
        durable: false,
        ..workload
    };
    let mut session =
        Session::open(plain, cell, false, Path::new("")).expect("a plain session opens no file");
    for cap in captures {
        session.process(cap);
    }
    let tracked = session.scope().tracked_rntis();
    gnb.connected_rntis().iter().all(|r| tracked.contains(r))
}

impl Tape {
    /// Generate the tape for `(workload, seed)`. Deterministic: the seed
    /// derivations below do not involve the workload name, so `msg-dense`
    /// and `msg-durable` get the same tape.
    pub fn build(workload: Workload, seed: u64) -> Tape {
        (0..MAX_REROLLS)
            .find_map(|reroll| Tape::generate(workload, seed, reroll, true))
            .unwrap_or_else(|| {
                Tape::generate(workload, seed, MAX_REROLLS, false).expect("not judged")
            })
    }

    /// One noise draw. With `judge`, the attach window (up to the slot the
    /// gNB has every UE connected, plus a margin for their first grants) is
    /// replayed into a fresh scope as soon as it is generated, and `None`
    /// is returned if the scope does not track every UE by then. A tape too
    /// short to hold the attach window is not judged.
    fn generate(workload: Workload, seed: u64, reroll: u64, judge: bool) -> Option<Tape> {
        let cell = CellConfig::srsran_n41();
        let slot_s = cell.slot_s();
        let mut gnb = populated_gnb(&cell, workload, seed);
        let noise_seed = (seed ^ 0xC0FFEE).wrapping_add(reroll.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut observer = Observer::new(&cell, SNR_DB, workload.iq, noise_seed);
        let n = workload.slots as usize;
        let mut captures = Vec::with_capacity(n);
        let mut step_ns = Vec::with_capacity(n);
        let mut capture_ns = Vec::with_capacity(n);
        let mut judge_at = None;
        for s in 0..workload.slots {
            let a = Instant::now();
            let out = gnb.step();
            let b = Instant::now();
            captures.push(observer.capture(&out, s as f64 * slot_s));
            let c = Instant::now();
            step_ns.push((b - a).as_nanos() as u64);
            capture_ns.push((c - b).as_nanos() as u64);
            if judge && judge_at.is_none() && gnb.connected_rntis().len() == workload.n_ues {
                judge_at = Some(s + workload.n_ues as u64 + ATTACH_MARGIN_SLOTS);
            }
            if judge_at == Some(s) && !tracks_all(workload, &cell, &captures, &gnb) {
                return None;
            }
        }
        Some(Tape {
            workload,
            seed,
            cell,
            captures,
            gnb,
            step_ns,
            capture_ns,
            rerolls: reroll,
        })
    }

    /// FNV-1a-style digest of every capture (IQ samples bit-exact, message
    /// bits, broadcast payloads), so two hosts can tell they ran the same
    /// input and a rebuilt tape can be checked against the first.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        for cap in &self.captures {
            match cap {
                Capture::Dropped(reason) => h.word(0xD0 + *reason as u64),
                Capture::Slot(ObservedSlot::Iq { samples, pdsch }) => {
                    h.word(1);
                    h.word(samples.len() as u64);
                    for s in samples {
                        h.word((u64::from(s.re.to_bits()) << 32) | u64::from(s.im.to_bits()));
                    }
                    hash_pdsch(&mut h, pdsch);
                }
                Capture::Slot(ObservedSlot::Message {
                    mib_bits,
                    dcis,
                    pdsch,
                }) => {
                    h.word(2);
                    match mib_bits {
                        Some(bits) => h.bits(bits),
                        None => h.word(u64::MAX),
                    }
                    h.word(dcis.len() as u64);
                    for ObservedDci {
                        scrambled_bits,
                        cce_start,
                        level,
                    } in dcis
                    {
                        h.word(((*cce_start as u64) << 8) | level.cces() as u64);
                        h.bits(scrambled_bits);
                    }
                    hash_pdsch(&mut h, pdsch);
                }
            }
        }
        h.0
    }
}

fn hash_pdsch(h: &mut Fnv, pdsch: &[(nr_phy::types::Rnti, PdschPayload)]) {
    h.word(pdsch.len() as u64);
    for (rnti, payload) in pdsch {
        h.word(u64::from(rnti.0));
        match payload {
            PdschPayload::Sib1(bits) => {
                h.word(1);
                h.bits(bits);
            }
            PdschPayload::Rar(tc) => {
                h.word(2);
                h.word(u64::from(tc.0));
            }
            PdschPayload::RrcSetup(bits) => {
                h.word(3);
                h.bits(bits);
            }
        }
    }
}

/// 64-bit FNV-1a, folded a word at a time (the tapes are hundreds of MB of
/// samples; byte-at-a-time would cost a noticeable share of set-up).
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// A length-prefixed run of 0/1 bits (or small bytes).
    pub fn bits(&mut self, bits: &[u8]) {
        self.word(bits.len() as u64);
        for chunk in bits.chunks(8) {
            let mut w = 0u64;
            for b in chunk {
                w = (w << 8) | u64::from(*b);
            }
            self.word(w);
        }
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_and_dense_share_one_tape() {
        let dense = Workload::by_name("msg-dense").unwrap().prefix(200);
        let durable = Workload::by_name("msg-durable").unwrap().prefix(200);
        assert_eq!(
            Tape::build(dense, 5).hash(),
            Tape::build(durable, 5).hash(),
            "msg-durable must replay msg-dense's tape"
        );
    }

    #[test]
    fn tape_depends_on_seed_and_repeats_for_one_seed() {
        let w = Workload::by_name("iq-sparse").unwrap().prefix(30);
        let a = Tape::build(w, 1).hash();
        assert_eq!(a, Tape::build(w, 1).hash());
        assert_ne!(a, Tape::build(w, 2).hash());
    }

    #[test]
    fn prefix_is_a_true_prefix() {
        let w = Workload::by_name("msg-dense").unwrap();
        let long = Tape::build(w.prefix(120), 3);
        let mut short = Tape::build(w.prefix(60), 3);
        let mut cut = Tape::build(w.prefix(120), 3);
        cut.captures.truncate(60);
        assert_eq!(short.hash(), cut.hash());
        short.captures.clear();
        assert_ne!(short.hash(), long.hash());
    }

    #[test]
    fn a_noise_draw_that_hides_a_ue_is_drawn_again() {
        // Seed 4's first draw corrupts one UE's random access: 63 of 64.
        let w = Workload::by_name("msg-dense").unwrap().prefix(600);
        let first_draw = Tape::generate(w, 4, 0, false).expect("not judged");
        assert!(!tracks_all(
            w,
            &first_draw.cell,
            &first_draw.captures,
            &first_draw.gnb
        ));
        assert!(Tape::generate(w, 4, 0, true).is_none());
        let tape = Tape::build(w, 4);
        assert_eq!(tape.rerolls, 1);
        assert!(tracks_all(w, &tape.cell, &tape.captures, &tape.gnb));
        // A first draw that passes is kept.
        assert_eq!(Tape::build(w, 1).rerolls, 0);
        // Too short to hold the attach window: not judged.
        assert_eq!(Tape::build(w.prefix(100), 4).rerolls, 0);
    }

    #[test]
    fn fnv_bits_are_length_prefixed() {
        let mut a = Fnv::new();
        a.bits(&[1, 0]);
        let mut b = Fnv::new();
        b.bits(&[1, 0, 0]);
        assert_ne!(a.0, b.0);
    }
}
