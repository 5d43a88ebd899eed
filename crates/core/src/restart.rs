//! The one restart machine: what to do when a supervised unit — a fleet
//! shard's engine — has gone down.
//!
//! A [`RestartBreaker`] holds the pending death cause, the crash, hang and
//! restart counts, and a token-bucket circuit breaker. Its driver reports
//! a death through [`RestartBreaker::went_down`], asks what to do through
//! [`RestartBreaker::next`] — [`Action::Rebuild`], [`Action::Park`] or
//! [`Action::Nothing`] — and reports the outcome of a rebuild through
//! [`RestartBreaker::rebuilt`]. Its `publish` is the one writer of the
//! breaker gauge and its operator notes. Time is whatever monotonic slot
//! count the driver feeds in.
//!
//! Its one driver in the sniffer, [`Fleet::supervise`], only detects and
//! carries out: it finds a hang by a worker's busy stamp, fences it,
//! rebuilds an engine and parks on a volatile fallback. A deployed sniffer
//! process is restarted by an external supervisor and warm-starts from its
//! session directory ([`PersistentSession::open`]).
//!
//! [`Fleet::supervise`]: crate::fleet::Fleet::supervise
//! [`PersistentSession::open`]: crate::persist::PersistentSession::open

use crate::config::SuperviseConfig;
use crate::metrics::{Gauge, Metrics};
use serde::{Deserialize, Serialize};

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Restarts flow, metered by the token bucket.
    Closed,
    /// Budget exhausted: restarts parked (lame-duck) until the half-open
    /// backoff elapses.
    Open,
    /// One probe restart granted; its outcome decides Closed vs Open.
    HalfOpen,
}

impl BreakerState {
    /// Stable snake_case name for notes and reports.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Why the unit last went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RestartCause {
    /// Not started yet: the first build is not a restart.
    Initial,
    /// No progress past the hang deadline; the driver fenced or killed it.
    Hang,
    /// It died on its own (a panic, a process exit).
    Crash,
    /// The driver killed it deliberately (chaos kill-9 injection).
    Killed,
}

/// What [`RestartBreaker::next`] asks the driver to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Nothing is owed, or a granted rebuild has not reported back.
    Nothing,
    /// Rebuild the unit now, then report through
    /// [`RestartBreaker::rebuilt`]. Granted while the breaker reads
    /// [`BreakerState::HalfOpen`], it is the probe.
    Rebuild,
    /// The breaker is open: park lame-duck until the half-open probe.
    Park,
}

/// The restart machine of each fleet shard: `capacity` restarts refill per `window_slots` of
/// feed. Exhaustion opens the breaker — the unit is parked lame-duck
/// instead of hot-looping through rebuilds — and after `halfopen_after`
/// slots a single probe rebuild decides whether to close it again.
#[derive(Debug, Clone)]
pub struct RestartBreaker {
    capacity: u32,
    window_slots: u64,
    halfopen_after: u64,
    tokens: f64,
    last_refill: u64,
    state: BreakerState,
    opened_at: u64,
    openings: u64,
    /// Why the unit is down; `None` while it is up.
    down: Option<RestartCause>,
    /// A [`Action::Rebuild`] was handed out and has not reported back.
    outstanding: bool,
    /// The state the breaker last moved from, until [`Self::publish`]
    /// says so.
    moved: Option<BreakerState>,
    crashes: u64,
    hangs: u64,
    restarts: u64,
}

impl RestartBreaker {
    /// A closed breaker with a full bucket, over a unit that is up.
    pub fn new(capacity: u32, window_slots: u64, halfopen_after: u64) -> RestartBreaker {
        RestartBreaker {
            capacity,
            window_slots: window_slots.max(1),
            halfopen_after: halfopen_after.max(1),
            tokens: capacity as f64,
            last_refill: 0,
            state: BreakerState::Closed,
            opened_at: 0,
            openings: 0,
            down: None,
            outstanding: false,
            moved: None,
            crashes: 0,
            hangs: 0,
            restarts: 0,
        }
    }

    /// Sized by the three breaker knobs of a `supervise` config block.
    pub fn for_config(c: &SuperviseConfig) -> RestartBreaker {
        let (cap, window) = (c.restart_budget, c.restart_budget_window_slots);
        RestartBreaker::new(cap, window, c.breaker_halfopen_after_slots)
    }

    /// The unit went down for `cause`: counted, and a rebuild is owed.
    pub fn went_down(&mut self, cause: RestartCause) {
        match cause {
            RestartCause::Hang => self.hangs += 1,
            RestartCause::Crash | RestartCause::Killed => self.crashes += 1,
            RestartCause::Initial => {}
        }
        self.down = Some(cause);
    }

    /// What to do at slot `now`: while a rebuild is owed and none is
    /// outstanding, [`Action::Rebuild`] if the breaker grants a token (or
    /// the half-open probe), else [`Action::Park`].
    pub fn next(&mut self, now: u64) -> Action {
        if self.outstanding || !self.pending() {
            Action::Nothing
        } else if self.try_acquire(now) {
            self.outstanding = true;
            Action::Rebuild
        } else {
            Action::Park
        }
    }

    /// The driver brought the unit up (`ok`) or failed to, at slot `now`.
    /// Up clears the death and counts a restart (a first start is not
    /// one); a probe's outcome closes or re-opens the breaker. A stand-in
    /// brought up while parked (a fleet shard's volatile fallback) leaves
    /// the breaker open: the real rebuild is still owed to the probe. A
    /// report with nothing down and no rebuild outstanding is ignored.
    pub fn rebuilt(&mut self, ok: bool, now: u64) {
        if !std::mem::take(&mut self.outstanding) && self.down.is_none() {
            return;
        }
        if ok && self.down.take() != Some(RestartCause::Initial) {
            self.restarts += 1;
        }
        self.probe_result(ok, now);
    }

    /// Set the `restart_breaker_open` gauge on `m` and, if the breaker
    /// moved since the last call, say how in a `restart_breaker` note:
    /// opened, or a probe that succeeded or failed (`why`: its error).
    pub(crate) fn publish(&mut self, m: &Metrics, now: u64, why: &str) {
        m.gauge_set(Gauge::RestartBreakerOpen, self.is_open() as u64);
        let note = match (self.moved.take(), self.state) {
            (None, _) => return,
            (Some(BreakerState::Closed), _) => format!(
                "open at slot {now}: budget {} per {} slots exhausted; parked \
                 lame-duck until the half-open probe",
                self.capacity, self.window_slots
            ),
            (Some(_), BreakerState::Closed) => format!("closed at slot {now}: probe succeeded"),
            (Some(_), _) => format!("half-open probe failed at slot {now}: {why}"),
        };
        m.note("restart_breaker", note);
    }

    fn refill(&mut self, now: u64) {
        if now > self.last_refill {
            let dt = (now - self.last_refill) as f64;
            self.tokens = (self.tokens + dt * self.capacity as f64 / self.window_slots as f64)
                .min(self.capacity as f64);
            self.last_refill = now;
        }
    }

    fn open(&mut self, now: u64) {
        self.moved = Some(self.state);
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.openings += 1;
    }

    /// The bucket alone: ask permission to restart at slot `now`. A grant
    /// while the state reads [`BreakerState::HalfOpen`] is the probe —
    /// report its outcome through [`RestartBreaker::probe_result`].
    pub fn try_acquire(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.refill(now);
                let granted = self.tokens >= 1.0;
                if granted {
                    self.tokens -= 1.0;
                } else {
                    self.open(now);
                }
                granted
            }
            BreakerState::Open if now.saturating_sub(self.opened_at) >= self.halfopen_after => {
                self.state = BreakerState::HalfOpen;
                true
            }
            // Not yet time, or a probe is outstanding.
            BreakerState::Open | BreakerState::HalfOpen => false,
        }
    }

    /// Outcome of the half-open probe restart: success closes the breaker
    /// (with one fresh token — the bucket refills from here), failure
    /// re-opens it for another full backoff.
    pub fn probe_result(&mut self, ok: bool, now: u64) {
        if self.state != BreakerState::HalfOpen {
            return;
        }
        if ok {
            self.moved = Some(self.state);
            self.state = BreakerState::Closed;
            self.tokens = 1.0;
            self.last_refill = now;
        } else {
            self.open(now);
        }
    }

    /// Why the unit is down (`None` while it is up).
    pub fn cause(&self) -> Option<RestartCause> {
        self.down
    }

    /// Whether a rebuild is owed: the unit is down, or parked behind an
    /// open breaker.
    pub fn pending(&self) -> bool {
        self.down.is_some() || self.is_open()
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// True while restarts are parked (Open, or probing Half-Open).
    pub fn is_open(&self) -> bool {
        self.state != BreakerState::Closed
    }

    /// Times the breaker has transitioned to Open.
    pub fn openings(&self) -> u64 {
        self.openings
    }

    /// Crashes seen ([`RestartCause::Crash`] and [`RestartCause::Killed`]).
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Hangs seen.
    pub fn hangs(&self) -> u64 {
        self.hangs
    }

    /// Rebuilds (and stand-ins) that brought the unit back up.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_refills_with_slots() {
        let mut b = RestartBreaker::new(2, 100, 50);
        assert!(b.try_acquire(0));
        assert!(b.try_acquire(0));
        // 100 slots later the full budget is back.
        assert!(b.try_acquire(100));
        assert!(b.try_acquire(100));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    /// A driver's whole round: a death, a failed rebuild, the budget run
    /// dry, a failed probe, a stand-in, a probe that closes.
    #[test]
    fn one_round_through_the_machine() {
        let mut m = RestartBreaker::new(2, 1_000_000, 10);
        let metrics = Metrics::new(true);
        assert_eq!(m.next(0), Action::Nothing, "up: nothing owed");
        m.went_down(RestartCause::Crash);
        assert_eq!(m.next(1), Action::Rebuild);
        assert_eq!(m.next(1), Action::Nothing, "one rebuild at a time");
        m.rebuilt(false, 1);
        assert_eq!(m.next(2), Action::Rebuild);
        m.rebuilt(false, 2);
        assert_eq!(m.next(3), Action::Park);
        m.publish(&metrics, 3, "");
        let note = |m: &Metrics| m.note_detail("restart_breaker").unwrap_or_default();
        assert!(note(&metrics).starts_with("open at slot 3"));
        assert_eq!(metrics.gauge(Gauge::RestartBreakerOpen), 1);
        // A stand-in serves while parked: up, counted, breaker still open.
        m.rebuilt(true, 4);
        assert_eq!(
            (m.cause(), m.restarts(), m.state()),
            (None, 1, BreakerState::Open)
        );
        assert_eq!(m.next(5), Action::Park);
        assert_eq!(m.next(13), Action::Rebuild, "the probe");
        m.rebuilt(false, 13);
        m.publish(&metrics, 13, "disk gone");
        assert_eq!(
            note(&metrics),
            "half-open probe failed at slot 13: disk gone"
        );
        assert_eq!(m.next(23), Action::Rebuild);
        m.rebuilt(true, 23);
        m.publish(&metrics, 23, "");
        assert!(note(&metrics).starts_with("closed at slot 23"));
        assert_eq!(metrics.gauge(Gauge::RestartBreakerOpen), 0);
        assert_eq!(
            (m.crashes(), m.hangs(), m.restarts(), m.openings()),
            (1, 0, 2, 2)
        );
    }
}
