//! Perf ledger for the NR-Scope reproduction: a tape-replay benchmark that
//! times the repo's crates from outside, through their public functions.
//!
//! * [`tape`] — workloads and deterministic input generation;
//! * [`replay`] — the closed-loop replay of a tape into a fresh session;
//! * [`check`] — output checks against gNB ground truth;
//! * [`ledger`] — the end-to-end run (`bench` bin);
//! * [`layers`] — the traced run and kernel timings (`trace` bin);
//! * [`span`], [`alloc`], [`stats`] — spans, allocation counts, order
//!   statistics;
//! * [`report`], [`compare`], [`cli`] — records, `bench compare`, arguments.

pub mod alloc;
pub mod check;
pub mod cli;
pub mod compare;
pub mod layers;
pub mod ledger;
pub mod replay;
pub mod report;
pub mod span;
pub mod stats;
pub mod tape;
