//! The traced run: per-layer metrics of one workload.
//!
//! Part 1 replays the workload's own tape once more with spans around
//! the calls into each layer; its numbers differ per workload. Part 2
//! times single layers on two fixed auxiliary tapes (prefixes of the
//! `iq-sparse` and `msg-dense` tapes for the same seed); its numbers are
//! properties of the commit, the same whichever workload was asked for,
//! so every listed metric is a real measurement on every traced run.

use crate::alloc;
use crate::check::{check_durable, Class, Failure};
use crate::ledger::estimate;
use crate::replay::{
    run_rep, scope_config, Rep, ScratchDir, Session, FLUSH_MAX_SLOTS, JOURNAL_WAIT_CAP,
};
use crate::report::{HostFacts, Metric, RunRecord};
use crate::span::{decomposition_holds, self_time_ns, SpanLog};
use crate::stats::summarize;
use crate::tape::{populated_gnb, Tape, Workload};
use gnb_sim::iq::IqRenderer;
use nr_phy::complex::Cf32;
use nr_phy::crc::{dci_attach_crc, dci_check_crc};
use nr_phy::dci::{Dci, DciFormat};
use nr_phy::fft::Fft;
use nr_phy::mcs::McsTable;
use nr_phy::modulation::{demodulate_llr, Modulation};
use nr_phy::ofdm::Ofdm;
use nr_phy::pdcch::{extract_candidate, search_space_cinit, AggregationLevel};
use nr_phy::polar::PolarCode;
use nr_phy::sequence::gold_bits;
use nr_phy::tbs::{transport_block_size, TbsParams};
use nr_phy::types::Rnti;
use nr_radio::{Agc, Resampler};
use nrscope::decoder::{
    decode_candidates_budgeted, decode_message_slot_budgeted, extract_all_candidates, DecodeWork,
};
use nrscope::persist::{encode_batch, JournalEntry};
use nrscope::worker::{process_slot, PoolConfig, SlotJob, WorkerPool};
use nrscope::{
    Capture, Counter, Fleet, FleetConfig, GovernorConfig, Metrics, ObservedSlot, OverloadGovernor,
    ShardSpec, Stage,
};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-layer metric names and units, as `BENCHMARK.json` lists them, with
/// the end-to-end metric and workload each is expected to move.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str); 52] = [
    // Part 1: the workload's own tape.
    ("scope.slot_us", "us", "the parent span; slot_p50_us on this workload"),
    ("scope.self_us", "us", "slots_per_s, slot_p50_us @ msg-dense"),
    ("scope.self_share_pct", "%", "share of slot time outside the child spans"),
    ("scope.empty_slot_ns", "ns", "per-slot fixed cost; slots_per_s @ msg-dense"),
    ("scope.records_per_slot", "count", "work done; must not move"),
    ("scope.allocs_per_slot", "count", "slots_per_s @ msg-dense, iq-dense"),
    ("scope.alloc_bytes_per_slot", "B", "slots_per_s @ msg-dense, iq-dense"),
    ("scope.rss_growth_mb", "MB", "records are never trimmed; memory, not speed"),
    ("scope.decomp_ok_pct", "%", "slots with sum(children) <= 1.1 x parent; trust in the split"),
    ("decoder.front_end_share_pct", "%", ">= 40 @ iq-sparse, <= 10 @ iq-dense, 0 @ msg-*"),
    ("decoder.decode_share_pct", "%", ">= 80 @ iq-dense"),
    ("decoder.decode_us", "us", "slots_per_s, slot_p99_us @ iq-dense; msg-dense"),
    ("decoder.candidates_per_slot", "count", "work offered; must not move"),
    ("decoder.ue_hypotheses_per_slot", "count", "the O(m) term's m; must not move"),
    ("decoder.us_per_hypothesis", "us", "slots_per_s @ iq-dense"),
    ("decoder.dcis_per_candidate", "count", "useful / attempted decodes"),
    ("gen.step_us", "us", "setup_s only"),
    ("gen.observe_us", "us", "setup_s only"),
    // Part 2, nr-phy kernels on the auxiliary IQ tape.
    ("phy.fft1024_us", "us", "slots_per_s, slot_p50_us @ iq-sparse; none @ iq-dense, msg-*"),
    ("phy.ofdm_demod_us", "us", "slots_per_s, slot_p50_us @ iq-sparse"),
    ("phy.extract_candidate_us", "us", "slots_per_s, slot_p50_us @ iq-sparse"),
    ("phy.demod_llr_ns_per_sym", "ns/sym", "slots_per_s @ iq-sparse"),
    ("phy.polar_new_us", "us", "slots_per_s, slot_p99_us @ iq-dense"),
    ("phy.polar_sc_us.al1", "us", "slots_per_s @ iq-dense"),
    ("phy.polar_sc_us.al2", "us", "slots_per_s, slot_p99_us @ iq-dense (the cell's level)"),
    ("phy.polar_sc_us.al4", "us", "slots_per_s @ iq-dense"),
    ("phy.polar_sc_us.al8", "us", "slots_per_s @ iq-dense"),
    ("phy.polar_sc_us.al16", "us", "slots_per_s @ iq-dense"),
    ("phy.gold_ns_per_bit", "ns/bit", "iq-dense and msg-dense"),
    ("phy.crc_check_ns", "ns", "iq-dense and msg-dense"),
    ("phy.dci_unpack_ns", "ns", "msg-dense"),
    ("phy.tbs_ns", "ns", "msg-dense"),
    ("decoder.extract_us", "us", "slots_per_s, slot_p50_us @ iq-sparse"),
    ("decoder.msg_slot_us", "us", "slots_per_s @ msg-dense, msg-durable"),
    // Part 2, core layers on the auxiliary message tape.
    ("governor.on_slot_ns", "ns", "scope.empty_slot_ns; msg-dense"),
    ("metrics.observe_ns", "ns", "all workloads when metrics are on"),
    ("metrics.overhead_pct", "%", "cost of Metrics::shared(true); largest @ msg-dense"),
    ("persist.us_per_slot", "us", "slots_per_s @ msg-durable only"),
    ("persist.encode_batch_ns_per_entry", "ns", "writer thread; slots_per_s @ msg-durable"),
    ("persist.journal_bytes_per_slot", "B", "slots_per_s @ msg-durable"),
    ("persist.batches", "count", "group-commit batches sealed"),
    ("persist.write_failures", "count", "must be 0"),
    ("persist.checkpoint_ms", "ms", "slot_p99_us @ msg-durable"),
    ("persist.recover_ms", "ms", "restart time; no end-to-end metric"),
    ("worker.process_slot_us", "us", "layer only (second thread)"),
    ("worker.dispatch_us_per_job", "us", "layer only (second thread)"),
    ("worker.queue_wait_p50_us", "us", "layer only (second thread)"),
    ("worker.shed_jobs", "count", "must be 0"),
    ("fleet.overhead_pct", "%", "layer only (second thread)"),
    // Part 2, generator side.
    ("radio.agc_ns_per_sample", "ns", "setup_s only"),
    ("radio.resample_ns_per_sample", "ns", "setup_s only"),
    ("gen.render_iq_us", "us", "setup_s only"),
];

/// Replays of each variant (plain, metrics on, durable, fleet) in Part 2;
/// their comparison uses the end-to-end run's noise-floor estimate.
const LAYER_REPS: usize = 5;

/// Slots of the auxiliary tapes Part 2 runs on.
pub const AUX_IQ_SLOTS: u64 = 300;
pub const AUX_MSG_SLOTS: u64 = 10_000;

const PARENT: &str = "scope.slot";

fn layer_failure(what: impl Into<String>) -> Failure {
    Failure::new(Class::Layer, what)
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("{name} is not listed in PER_LAYER"))
}

/// Median, quartiles and count of per-call nanosecond readings, scaled.
fn timing(name: &'static str, ns: &[f64], scale: f64) -> Metric {
    let v: Vec<f64> = ns.iter().map(|n| n * scale).collect();
    Metric::new(name, unit_of(name), summarize(&v))
}

fn as_f64(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64).collect()
}

fn once(name: &'static str, value: f64) -> Metric {
    Metric::once(name, unit_of(name), value)
}

/// Time `calls` calls of `f` after `calls / 10` warm-up calls; returns the
/// per-call readings in ns.
fn time_calls(calls: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    for i in 0..calls / 10 {
        f(i);
    }
    (0..calls)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as f64
        })
        .collect()
}

/// Like [`time_calls`] for calls too short for one clock read each: times
/// batches of `batch` calls and returns per-call ns of each batch.
fn time_batched(batches: usize, batch: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    time_calls(batches, |b| {
        for i in 0..batch {
            f(b * batch + i);
        }
    })
    .into_iter()
    .map(|ns| ns / batch as f64)
    .collect()
}

fn vm_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------- part 1

/// What one traced slot measured.
#[derive(Debug, Clone, Copy, Default)]
struct SlotTrace {
    parent_ns: u64,
    demod_ns: u64,
    extract_ns: u64,
    decode_ns: u64,
    candidates: usize,
    work: DecodeWork,
    decoded: usize,
    records: usize,
    allocs: u64,
    alloc_bytes: u64,
}

impl SlotTrace {
    fn children(&self) -> [u64; 3] {
        [self.demod_ns, self.extract_ns, self.decode_ns]
    }
}

/// Replay `tape` once with child spans (the scope's own job snapshot run
/// through the layer functions) immediately before each parent span (the
/// public call that advances state).
fn traced_replay(tape: &Tape, dir: &Path, log: &mut SpanLog) -> io::Result<(Vec<SlotTrace>, f64)> {
    let mut session = Session::open(tape.workload, &tape.cell, false, dir)?;
    let ofdm = Ofdm::new(tape.cell.numerology, tape.cell.carrier_prbs);
    let mut slots = Vec::with_capacity(tape.captures.len());
    let rss_before = vm_rss_kb();
    let mut patience = JOURNAL_WAIT_CAP;
    for (i, cap) in tape.captures.iter().enumerate() {
        let slot = i as u64;
        let mut t = SlotTrace::default();
        if let Capture::Slot(observed) = cap {
            // The clone (up to 120 KB of samples) is outside every span.
            let job = session.scope().slot_job(observed.clone());
            match observed {
                ObservedSlot::Iq { samples, .. } => {
                    let sif = job.as_ref().map_or(0, |j| j.slot_in_frame);
                    if samples.len() == ofdm.samples_per_slot(sif) {
                        let (grid, ns) = log.time("phy.ofdm_demod", Some(PARENT), slot, || {
                            ofdm.demodulate(samples, sif)
                        });
                        t.demod_ns = ns;
                        if let Some(job) = &job {
                            let (cands, ns) =
                                log.time("decoder.extract", Some(PARENT), slot, || {
                                    extract_all_candidates(&job.ctx, &grid, sif)
                                });
                            t.extract_ns = ns;
                            t.candidates = cands.len();
                            let ((decoded, work), ns) =
                                log.time("decoder.decode", Some(PARENT), slot, || {
                                    decode_candidates_budgeted(
                                        &job.ctx, &cands, &job.hyp, job.budget, None,
                                    )
                                });
                            t.decode_ns = ns;
                            t.work = work;
                            t.decoded = decoded.len();
                        }
                    }
                }
                ObservedSlot::Message { dcis, .. } => {
                    t.candidates = dcis.len();
                    if let Some(job) = &job {
                        let ((decoded, work), ns) =
                            log.time("decoder.decode", Some(PARENT), slot, || {
                                decode_message_slot_budgeted(
                                    &job.ctx, dcis, &job.hyp, job.budget, None,
                                )
                            });
                        t.decode_ns = ns;
                        t.work = work;
                        t.decoded = decoded.len();
                    }
                }
            }
        }
        let before = alloc::snapshot();
        let (records, ns) = log.time(PARENT, None, slot, || session.process(cap));
        let allocated = alloc::snapshot().since(before);
        // Outside every span: the traced loop is slower than the plain
        // replay, so this waits only when the host stalls the writer.
        let waited = session.await_journal(patience);
        patience = patience.saturating_sub(Duration::from_nanos(waited));
        t.parent_ns = ns;
        t.records = records.len();
        t.allocs = allocated.allocs;
        t.alloc_bytes = allocated.bytes;
        slots.push(t);
    }
    let rss_growth_mb = (vm_rss_kb() - rss_before) / 1024.0;
    if let Session::Durable(durable) = session {
        // Shut the writers down cleanly. The output and storage checks
        // belong to the end-to-end run: the spans are already taken.
        if let Err(e) = durable.finalize() {
            eprintln!("trace: traced durable session did not finalize: {e}");
        }
    }
    Ok((slots, rss_growth_mb))
}

fn part1(tape: &Tape, out: &Path, failures: &mut Vec<Failure>) -> io::Result<Vec<Metric>> {
    let mut log = SpanLog::with_capacity(tape.captures.len() * 4);
    let scratch = ScratchDir::new(out, "trace");
    let (slots, rss_growth_mb) = traced_replay(tape, &scratch.0, &mut log)?;
    log.write_jsonl(&out.join(format!("trace-{}.jsonl", tape.workload.name)))?;

    let n = slots.len() as f64;
    let sum = |f: &dyn Fn(&SlotTrace) -> u64| slots.iter().map(f).sum::<u64>() as f64;
    let parent_total = sum(&|t| t.parent_ns);
    let self_ns: Vec<u64> = slots
        .iter()
        .map(|t| self_time_ns(t.parent_ns, &t.children()))
        .collect();
    let holds = slots
        .iter()
        .filter(|t| decomposition_holds(t.parent_ns, &t.children()))
        .count() as f64;
    let empty: Vec<u64> = slots
        .iter()
        .filter(|t| t.candidates == 0)
        .map(|t| t.parent_ns)
        .collect();
    if empty.is_empty() {
        failures.push(layer_failure(
            "no slot without candidates: scope.empty_slot_ns has no sample",
        ));
    }
    if tape.workload.iq == slots.iter().all(|t| t.demod_ns == 0) {
        failures.push(layer_failure(
            "FFT spans must exist on IQ tapes and only there",
        ));
    }
    let parents: Vec<u64> = slots.iter().map(|t| t.parent_ns).collect();
    let decodes: Vec<u64> = slots
        .iter()
        .filter(|t| t.decode_ns > 0)
        .map(|t| t.decode_ns)
        .collect();
    let hyps = sum(&|t| t.work.ue_hypotheses as u64);
    Ok(vec![
        timing("scope.slot_us", &as_f64(&parents), 1e-3),
        timing("scope.self_us", &as_f64(&self_ns), 1e-3),
        once(
            "scope.self_share_pct",
            100.0 * self_ns.iter().sum::<u64>() as f64 / parent_total,
        ),
        timing(
            "scope.empty_slot_ns",
            &as_f64(if empty.is_empty() { &[0] } else { &empty }),
            1.0,
        ),
        once("scope.records_per_slot", sum(&|t| t.records as u64) / n),
        once("scope.allocs_per_slot", sum(&|t| t.allocs) / n),
        once("scope.alloc_bytes_per_slot", sum(&|t| t.alloc_bytes) / n),
        once("scope.rss_growth_mb", rss_growth_mb),
        once("scope.decomp_ok_pct", 100.0 * holds / n),
        once(
            "decoder.front_end_share_pct",
            100.0 * sum(&|t| t.demod_ns + t.extract_ns) / parent_total,
        ),
        once(
            "decoder.decode_share_pct",
            100.0 * sum(&|t| t.decode_ns) / parent_total,
        ),
        timing("decoder.decode_us", &as_f64(&decodes), 1e-3),
        once(
            "decoder.candidates_per_slot",
            sum(&|t| t.candidates as u64) / n,
        ),
        once("decoder.ue_hypotheses_per_slot", hyps / n),
        once(
            "decoder.us_per_hypothesis",
            sum(&|t| t.decode_ns) / 1e3 / hyps.max(1.0),
        ),
        once(
            "decoder.dcis_per_candidate",
            sum(&|t| t.decoded as u64) / sum(&|t| t.work.candidates as u64).max(1.0),
        ),
        timing("gen.step_us", &as_f64(&tape.step_ns), 1e-3),
        timing("gen.observe_us", &as_f64(&tape.capture_ns), 1e-3),
    ])
}

// ---------------------------------------------------------------- part 2

/// Deterministic ±1 noise for synthetic LLRs.
fn lcg(state: &mut u64) -> f32 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    ((*state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
}

/// Walk the auxiliary IQ tape with a scope, keeping each slot's job
/// snapshot (single DCI thread) and the scope's final records.
fn iq_jobs(aux: &Tape) -> io::Result<(Vec<SlotJob>, Session)> {
    let mut session = Session::open(aux.workload, &aux.cell, false, Path::new(""))?;
    let mut jobs = Vec::new();
    for cap in &aux.captures {
        if let Capture::Slot(observed) = cap {
            if let Some(mut job) = session.scope().slot_job(observed.clone()) {
                job.dci_threads = 1;
                jobs.push(job);
            }
        }
        session.process(cap);
    }
    Ok((jobs, session))
}

fn samples_of(job: &SlotJob) -> &[Cf32] {
    match &job.observed {
        ObservedSlot::Iq { samples, .. } => samples,
        ObservedSlot::Message { .. } => unreachable!("the auxiliary IQ tape holds IQ slots"),
    }
}

fn phy_kernels(aux: &Tape, jobs: &[SlotJob], session: &Session, seed: u64) -> Vec<Metric> {
    let cell = &aux.cell;
    let ofdm = Ofdm::new(cell.numerology, cell.carrier_prbs);
    let mut out = Vec::new();

    // FFT: a real capture's first symbol's worth of samples, restored
    // before every call so values never run away.
    let fft = Fft::new(ofdm.fft_size());
    let src: Vec<Cf32> = samples_of(&jobs[0])[..fft.size()].to_vec();
    let mut buf = src.clone();
    out.push(timing(
        "phy.fft1024_us",
        &time_calls(2000, |_| {
            buf.copy_from_slice(&src);
            fft.forward(black_box(&mut buf));
        }),
        1e-3,
    ));

    // OFDM demodulation and candidate extraction, once per auxiliary slot.
    out.push(timing(
        "phy.ofdm_demod_us",
        &time_calls(jobs.len() * 4, |i| {
            let job = &jobs[i % jobs.len()];
            black_box(ofdm.demodulate(samples_of(job), job.slot_in_frame));
        }),
        1e-3,
    ));
    let grids: Vec<_> = jobs
        .iter()
        .map(|j| ofdm.demodulate(samples_of(j), j.slot_in_frame))
        .collect();
    out.push(timing(
        "decoder.extract_us",
        &time_calls(jobs.len(), |i| {
            let job = &jobs[i % jobs.len()];
            black_box(extract_all_candidates(
                &job.ctx,
                &grids[i % jobs.len()],
                job.slot_in_frame,
            ));
        }),
        1e-3,
    ));

    // One candidate of a slot that carries a DCI, at the cell's level.
    let busy = jobs
        .iter()
        .zip(&grids)
        .map(|(j, g)| (j, g, extract_all_candidates(&j.ctx, g, j.slot_in_frame)))
        .find(|(_, _, c)| !c.is_empty())
        .expect("the auxiliary IQ tape carries DCIs");
    let (job, grid, cands) = (busy.0, busy.1, &busy.2);
    let cinit = search_space_cinit(Rnti(0), false, job.ctx.pci);
    let cand = &cands[0];
    out.push(timing(
        "phy.extract_candidate_us",
        &time_calls(2000, |_| {
            black_box(extract_candidate(
                grid,
                &job.ctx.coreset,
                cand.cce_start,
                cand.level,
                job.ctx.pci,
                cinit,
                job.slot_in_frame,
            ));
        }),
        1e-3,
    ));

    // Soft demapping of the CORESET symbol's occupied subcarriers.
    let symbols: Vec<Cf32> = (0..grid.n_subcarriers())
        .map(|k| grid.get(job.ctx.coreset.symbol_start, k))
        .collect();
    out.push(timing(
        "phy.demod_llr_ns_per_sym",
        &time_calls(2000, |_| {
            black_box(demodulate_llr(black_box(&symbols), Modulation::Qpsk, 0.05));
        }),
        1.0 / symbols.len() as f64,
    ));

    // Polar: the cell's real DCI size K at every aggregation level's E,
    // LLRs synthesised from an encoded payload plus seeded noise (the
    // cell transmits at one level only, so real LLRs exist only there).
    let sizing = aux.gnb.sizing();
    let k = sizing.payload_bits(DciFormat::Dl1_1) + 24;
    let payload: Vec<u8> = (0..k)
        .map(|i| u8::from((i * 7 + seed as usize).is_multiple_of(3)))
        .collect();
    let e_cell = cell.aggregation_level.bits();
    out.push(timing(
        "phy.polar_new_us",
        &time_calls(1000, |_| {
            black_box(PolarCode::new(black_box(k), e_cell));
        }),
        1e-3,
    ));
    let names = [
        "phy.polar_sc_us.al1",
        "phy.polar_sc_us.al2",
        "phy.polar_sc_us.al4",
        "phy.polar_sc_us.al8",
        "phy.polar_sc_us.al16",
    ];
    let mut noise = seed ^ 0x9E37_79B9;
    for (name, level) in names.into_iter().zip(AggregationLevel::all()) {
        let code = PolarCode::new(k, level.bits());
        let llrs: Vec<f32> = code
            .encode(&payload)
            .iter()
            .map(|&b| (if b == 0 { 4.0 } else { -4.0 }) + 1.5 * lcg(&mut noise))
            .collect();
        assert_eq!(code.decode_sc(&llrs), payload, "synthetic LLRs decode");
        out.push(timing(
            name,
            &time_calls(1000, |_| {
                black_box(code.decode_sc(black_box(&llrs)));
            }),
            1e-3,
        ));
    }

    out.push(timing(
        "phy.gold_ns_per_bit",
        &time_calls(2000, |i| {
            black_box(gold_bits(black_box(0x1234 + i as u32), e_cell));
        }),
        1.0 / e_cell as f64,
    ));

    let rnti = aux.gnb.connected_rntis()[0];
    let codeword = dci_attach_crc(&payload[..k - 24], rnti.0);
    assert!(dci_check_crc(&codeword, rnti.0).is_some());
    out.push(timing(
        "phy.crc_check_ns",
        &time_batched(1000, 16, |_| {
            black_box(dci_check_crc(black_box(&codeword), rnti.0));
        }),
        1.0,
    ));

    // A real decoded grant: its packed bits and its TBS inputs.
    let rec = session
        .scope()
        .records()
        .iter()
        .find(|r| r.format == DciFormat::Dl1_1 && r.rnti == rnti)
        .expect("the auxiliary IQ tape decodes a DL grant");
    let dci_bits = jobs
        .iter()
        .find_map(|j| {
            process_slot(j)
                .decoded
                .into_iter()
                .find(|d| d.rnti == rnti && d.dci.format == DciFormat::Dl1_1)
        })
        .expect("a job decodes the UE's DL grant")
        .dci
        .pack(&sizing);
    assert!(Dci::unpack_validated(&dci_bits, &sizing).is_ok());
    out.push(timing(
        "phy.dci_unpack_ns",
        &time_batched(1000, 16, |_| {
            let _ = black_box(Dci::unpack_validated(black_box(&dci_bits), &sizing));
        }),
        1.0,
    ));
    let tbs = TbsParams {
        n_prb: rec.prb_len,
        n_symbols: rec.symbol_len,
        dmrs_per_prb: cell.dmrs_per_prb,
        overhead_per_prb: cell.x_overhead,
        mcs: McsTable::Qam256
            .entry(rec.mcs)
            .expect("decoded MCS is in the table"),
        layers: rec.layers,
    };
    out.push(timing(
        "phy.tbs_ns",
        &time_batched(1000, 16, |_| {
            black_box(transport_block_size(black_box(&tbs)));
        }),
        1.0,
    ));
    out
}

fn generator_kernels(aux: &Tape, jobs: &[SlotJob]) -> Vec<Metric> {
    let samples = samples_of(&jobs[0]);
    let n = samples.len() as f64;
    let mut agc = Agc::new(1.0);
    let mut buf = samples.to_vec();
    let agc_ns = time_calls(1000, |_| {
        buf.copy_from_slice(samples);
        agc.process(black_box(&mut buf));
    });
    let mut resampler = Resampler::new(1, 1);
    let resample_ns = time_calls(300, |_| {
        black_box(resampler.process(black_box(samples)));
    });
    // Re-step the auxiliary tape's gNB from slot 0 for slot outputs.
    let mut gnb = populated_gnb(&aux.cell, aux.workload, aux.seed);
    let outs: Vec<_> = (0..100).map(|_| gnb.step()).collect();
    let renderer = IqRenderer::new(&aux.cell);
    let render_ns = time_calls(300, |i| {
        black_box(renderer.render_iq(&outs[i % outs.len()]));
    });
    vec![
        timing("radio.agc_ns_per_sample", &agc_ns, 1.0 / n),
        timing("radio.resample_ns_per_sample", &resample_ns, 1.0 / n),
        timing("gen.render_iq_us", &render_ns, 1e-3),
    ]
}

fn worker_layer(jobs: &[SlotJob], failures: &mut Vec<Failure>) -> Vec<Metric> {
    let direct: Vec<f64> = jobs
        .iter()
        .map(|j| process_slot(j).processing.as_nanos() as f64)
        .collect();
    // Closed loop through a one-worker pool: submit, wait for the result,
    // submit the next — so queue wait is hand-off latency, not backlog.
    let metrics = Metrics::shared(true);
    let mut pool = WorkerPool::with_metrics(PoolConfig::new(1), metrics.clone());
    let mut processing = Duration::ZERO;
    let mut done = 0usize;
    let t0 = Instant::now();
    for job in jobs {
        if pool.submit(job.clone()).is_err() {
            failures.push(layer_failure("worker pool refused a job"));
            break;
        }
        loop {
            let results = pool.poll();
            if let Some(r) = results.first() {
                processing += r.processing;
                done += results.len();
                break;
            }
            std::hint::spin_loop();
        }
    }
    let wall = t0.elapsed();
    let (_, stats, _) = pool.finish_with_stats();
    if stats.shed_jobs != 0 || done != jobs.len() {
        failures.push(layer_failure(format!(
            "worker pool shed {} jobs, finished {done} of {}",
            stats.shed_jobs,
            jobs.len()
        )));
    }
    let queue_wait = metrics
        .snapshot()
        .stage(Stage::WorkerQueue.name())
        .map_or(0.0, |s| s.p50_us);
    vec![
        timing("worker.process_slot_us", &direct, 1e-3),
        once(
            "worker.dispatch_us_per_job",
            wall.saturating_sub(processing).as_secs_f64() * 1e6 / done.max(1) as f64,
        ),
        once("worker.queue_wait_p50_us", queue_wait),
        once("worker.shed_jobs", stats.shed_jobs as f64),
    ]
}

/// Times a durable replay of the auxiliary tape is tried again when its
/// storage side was not clean (`check::DurableOutcome::storage`: the host
/// demoted it, or a file call failed): such a replay journalled only part
/// of the tape. The tape is short, so the retries cost a few seconds at
/// most.
const STORAGE_RETRIES: usize = 8;

/// One whole-tape replay into a fresh session, shut down cleanly.
fn timed_rep(
    tape: &Tape,
    workload: Workload,
    metrics_on: bool,
    out: &Path,
    tag: &str,
) -> io::Result<Rep> {
    let mut attempt = 0;
    loop {
        attempt += 1;
        let scratch = ScratchDir::new(out, tag);
        let run = run_rep(tape, workload, metrics_on, &scratch.0).and_then(|(session, rep)| {
            let mut demoted = None;
            if let Session::Durable(d) = session {
                demoted = d.scope().metrics().note_detail("storage_demotion");
                d.finalize()?;
            }
            Ok((rep, demoted))
        });
        match run {
            Ok((rep, None)) => return Ok(rep),
            // Out of retries: the timing is what this host gives.
            Ok((rep, Some(_))) if attempt > STORAGE_RETRIES => return Ok(rep),
            Err(e) if attempt > STORAGE_RETRIES => return Err(e),
            Ok((_, Some(why))) => eprintln!("trace: durable replay {tag} demoted, again: {why}"),
            Err(e) => eprintln!("trace: durable replay {tag} failed, again: {e}"),
        }
    }
}

/// Noise-floor slot time (µs) over `reps`, as the end-to-end run takes it.
fn floor_slot_us(reps: &[Rep], workload: Workload) -> f64 {
    1e6 / estimate(reps, workload.chunk_slots).slots_per_s
}

/// Fastest whole-replay wall time per slot (µs).
fn best_wall_us(reps: &[Rep]) -> f64 {
    let best = reps.iter().map(|r| r.wall_s).fold(f64::INFINITY, f64::min);
    best * 1e6 / reps[0].slot_ns.len() as f64
}

/// Feed `aux` through a one-shard volatile fleet, paced so nothing sheds;
/// returns wall µs per slot from first feed to drained.
fn fleet_wall_us(
    aux: &Tape,
    expected_records: usize,
    failures: &mut Vec<Failure>,
) -> io::Result<f64> {
    let fleet = Fleet::new(
        FleetConfig {
            workers: 1,
            shard_queue_depth: 256,
            // No watchdog: a worker the host leaves unscheduled for a
            // second is not a wedged shard.
            watchdog_ms: 0,
            ..FleetConfig::default()
        },
        vec![ShardSpec::volatile(
            "aux",
            Some(aux.cell.pci),
            scope_config(aux.workload, false),
        )],
    )?;
    let t0 = Instant::now();
    for (s, cap) in aux.captures.iter().enumerate() {
        fleet.feed(0, s as u64, cap.clone());
        if s % 64 == 0 {
            fleet.supervise();
            while fleet.shard_status(0).queue_len > 128 {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
    let drained = fleet.quiesce(Duration::from_secs(60));
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / aux.captures.len() as f64;
    let sheds = fleet.shard_status(0).sheds;
    let records = fleet.with_scope(0, |s| s.records().len());
    fleet.finish();
    if !drained || sheds != 0 || records != Some(expected_records) {
        failures.push(layer_failure(format!(
            "fleet shard drained={drained} sheds={sheds} records={records:?} (expected {expected_records})"
        )));
    }
    Ok(wall_us)
}

fn core_layers(aux: &Tape, out: &Path, failures: &mut Vec<Failure>) -> io::Result<Vec<Metric>> {
    let mut m = Vec::new();
    let slots = aux.captures.len();

    // Message decode per slot and the journal-entry stream, from one walk.
    let mut session = Session::open(aux.workload, &aux.cell, false, out)?;
    let Session::Plain(scope) = &mut session else {
        unreachable!("the auxiliary message workload is not durable");
    };
    scope.start_journaling();
    let mut decode_ns = Vec::with_capacity(slots);
    let mut entries: Vec<JournalEntry> = Vec::with_capacity(slots);
    for cap in &aux.captures {
        if let Capture::Slot(observed @ ObservedSlot::Message { dcis, .. }) = cap {
            if let Some(job) = scope.slot_job(observed.clone()) {
                let t = Instant::now();
                black_box(decode_message_slot_budgeted(
                    &job.ctx, dcis, &job.hyp, job.budget, None,
                ));
                decode_ns.push(t.elapsed().as_nanos() as f64);
            }
        }
        scope.process_capture(cap);
        entries.extend(scope.take_journal_entry());
    }
    let reference = scope.records().to_vec();
    m.push(timing("decoder.msg_slot_us", &decode_ns, 1e-3));

    // Batches as the writer seals them: only the last record of a batch
    // carries the micro-state re-anchor.
    let batch_len = FLUSH_MAX_SLOTS as usize;
    let batches: Vec<Vec<JournalEntry>> = entries
        .chunks(batch_len)
        .map(|chunk| {
            let mut b = chunk.to_vec();
            let last = b.len() - 1;
            b[..last].iter_mut().for_each(|e| e.micro = None);
            b
        })
        .collect();
    let journal_bytes: usize = batches.iter().map(|b| encode_batch(b).len()).sum();
    let per_entry: Vec<f64> = batches
        .iter()
        .map(|b| {
            let t = Instant::now();
            black_box(encode_batch(black_box(b)));
            t.elapsed().as_nanos() as f64 / b.len() as f64
        })
        .collect();
    m.push(timing("persist.encode_batch_ns_per_entry", &per_entry, 1.0));
    m.push(once(
        "persist.journal_bytes_per_slot",
        journal_bytes as f64 / slots as f64,
    ));
    drop((batches, entries));

    let mut governor = OverloadGovernor::new(GovernorConfig::default());
    let budget = governor.budget(None);
    m.push(timing(
        "governor.on_slot_ns",
        &time_batched(1000, 16, |i| {
            black_box(governor.on_slot(
                i as u64,
                Duration::from_micros(20 + (i % 7) as u64),
                budget,
            ));
        }),
        1.0,
    ));
    let registry = Metrics::shared(true);
    m.push(timing(
        "metrics.observe_ns",
        &time_batched(1000, 16, |i| {
            registry.observe(Stage::SlotTotal, Duration::from_nanos(15_000 + i as u64));
        }),
        1.0,
    ));

    // Plain / metrics-on / durable replays of the same tape, interleaved
    // so drift lands on all three alike.
    let plain = aux.workload;
    let durable = Workload {
        durable: true,
        ..plain
    };
    let (mut plain_reps, mut metered_reps, mut durable_reps) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..LAYER_REPS {
        plain_reps.push(timed_rep(aux, plain, false, out, "plain")?);
        metered_reps.push(timed_rep(aux, plain, true, out, "metered")?);
        durable_reps.push(timed_rep(aux, durable, false, out, &format!("layer{i}"))?);
    }
    let plain_us = floor_slot_us(&plain_reps, plain);
    m.push(once(
        "metrics.overhead_pct",
        100.0 * (floor_slot_us(&metered_reps, plain) / plain_us - 1.0),
    ));
    m.push(once(
        "persist.us_per_slot",
        floor_slot_us(&durable_reps, durable) - plain_us,
    ));

    // One more durable replay with the registry on, for the counters, then
    // the read side: synchronous checkpoint and recovery. A replay whose
    // storage side was not clean (write failures by design once the host
    // demotes it) is repeated.
    let mut attempt = 0;
    let (counters, outcome, write_failures) = loop {
        attempt += 1;
        let scratch = ScratchDir::new(out, "counters");
        let session = match run_rep(aux, durable, true, &scratch.0) {
            Ok((Session::Durable(session), _)) => session,
            Ok(_) => unreachable!("durable workload opens a durable session"),
            Err(e) if attempt > STORAGE_RETRIES => return Err(e),
            Err(e) => {
                eprintln!("trace: counters replay failed, again: {e}");
                continue;
            }
        };
        let counters = session.scope().metrics().clone();
        let outcome = check_durable(aux, session, &reference);
        let write_failures = counters.counter(Counter::JournalWriteFailures);
        if (write_failures == 0 && outcome.clean()) || attempt > STORAGE_RETRIES {
            break (counters, outcome, write_failures);
        }
        eprintln!(
            "trace: counters replay not clean, again: {write_failures} write failures; {}",
            outcome.storage.join("; ")
        );
    };
    failures.extend(outcome.output);
    if !outcome.storage.is_empty() || write_failures != 0 {
        failures.push(Failure::new(
            Class::Storage,
            format!(
                "no clean durable replay in {attempt} tries; the last: {write_failures} journal \
                 write failures; {}",
                outcome.storage.join("; ")
            ),
        ));
    }
    m.push(once(
        "persist.batches",
        counters.counter(Counter::JournalBatches) as f64,
    ));
    m.push(once("persist.write_failures", write_failures as f64));
    m.push(once("persist.checkpoint_ms", outcome.checkpoint_ms));
    m.push(once("persist.recover_ms", outcome.recover_ms));

    // One volatile fleet shard fed the same tape: whole-run wall against
    // the standalone scope's whole-replay wall, fastest of each.
    let mut fleet_us = f64::INFINITY;
    for _ in 0..LAYER_REPS {
        fleet_us = fleet_us.min(fleet_wall_us(aux, reference.len(), failures)?);
    }
    m.push(once(
        "fleet.overhead_pct",
        100.0 * (fleet_us / best_wall_us(&plain_reps) - 1.0),
    ));
    Ok(m)
}

// ------------------------------------------------------------------ run

/// Run the traced pass for one workload.
pub fn run_trace(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: &Path,
    host: &HostFacts,
) -> Result<RunRecord, Failure> {
    let mut failures = Vec::new();

    let tape = Tape::build(workload, seed);
    let tape_hash = tape.hash();
    let mut metrics = part1(&tape, out, &mut failures)?;
    let slots = tape.captures.len();
    drop(tape);

    let aux_iq = Tape::build(
        Workload::by_name("iq-sparse")
            .expect("iq-sparse is a workload")
            .prefix(AUX_IQ_SLOTS),
        seed,
    );
    let (jobs, session) = iq_jobs(&aux_iq)?;
    if jobs.is_empty() {
        return Err(layer_failure("auxiliary IQ tape never synchronised"));
    }
    metrics.extend(phy_kernels(&aux_iq, &jobs, &session, seed));
    metrics.extend(generator_kernels(&aux_iq, &jobs));
    metrics.extend(worker_layer(&jobs, &mut failures));
    drop((jobs, session, aux_iq));

    let aux_msg = Tape::build(
        Workload::by_name("msg-dense")
            .expect("msg-dense is a workload")
            .prefix(AUX_MSG_SLOTS),
        seed,
    );
    metrics.extend(core_layers(&aux_msg, out, &mut failures)?);

    // Report in the listed order, and insist the two lists agree.
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for (name, _, _) in PER_LAYER {
        match metrics.iter().position(|m| m.name == name) {
            Some(i) => ordered.push(metrics.swap_remove(i)),
            None => failures.push(layer_failure(format!(
                "per-layer metric {name} was not measured"
            ))),
        }
    }
    Ok(RunRecord {
        kind: "trace",
        workload: workload.name,
        seed,
        seconds,
        tape_hash,
        tape_slots: slots as u64,
        reps: 1,
        attempted: slots as u64,
        failed: if failures.is_empty() { 0 } else { slots as u64 },
        failures,
        metrics: ordered,
        info: Vec::new(),
        host: host.clone(),
    })
}
