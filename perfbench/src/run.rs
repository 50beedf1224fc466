//! Per-workload run orders: set-up, warm-up, correctness gates, then the
//! timed phases (untraced), or the traced phases and the layer replay.

use std::time::{Duration, Instant};

use microrec_core::MicroRec;
use microrec_json::Json;
use microrec_workload::QueryGenerator;

use crate::gates::{
    dense_replay, gate_sample, identity_gate, resident_reference, sequential_reference, Gate,
};
use crate::layers::{dnn_ceiling_gmacs, embedding_ceiling_gbs, replay, FC_SPANS};
use crate::report::{num, Report};
use crate::serve::{run_phase, warm, Pace, Phase};
use crate::stats::{median, quantile, second_best, us, Tracer};
use crate::workload::{mix, set_up, Purpose, Setup, Workload, CACHE_ROWS};

/// Rounds the serve workload's saturate and fixed-rate phases are split
/// into, so that each metric samples the whole run rather than one stretch
/// of it: `sat_qps`, `p50_ms` and `p99_ms` are each the second-best
/// round's own figure (see [`second_best`]).
const ROUNDS: usize = 6;
/// Per round, as shares of `--seconds`: saturation, then the fixed rate.
const SAT_SHARE: f64 = 0.07;
const FIXED_SHARE: f64 = 0.09;
/// The serve workload's fixed offered load, never derived from capacity.
const FIXED_QPS: f64 = 500.0;
/// The latency limit on p99 ("tens of milliseconds", per the paper).
const SLO_MS: f64 = 50.0;
/// The rate ladder: `LADDER_BASE · LADDER_STEP^i`, i in `0..LADDER_RUNGS`,
/// from 10 qps to about 1.2 M qps in steps 5% apart.
const LADDER_BASE: f64 = 10.0;
const LADDER_STEP: f64 = 1.05;
const LADDER_RUNGS: i32 = 240;
/// Requests per ladder probe (on average), so its p99 has ten samples
/// beyond it.
const PROBE_REQUESTS: f64 = 1000.0;
const PROBE_LIMIT: usize = 10;
/// Rungs per factor of two in rate (ln 2 / ln 1.05).
const RUNGS_PER_HALVING: i32 = 14;
/// Collector poll period. Scheduling delay on a loaded host, not this
/// period, dominates the measured observation error.
const POLL: Duration = Duration::from_millis(1);
const WARM_LIMIT: Duration = Duration::from_secs(40);
/// Items in the traced layer replay.
const REPLAY_ITEMS_SERVE: usize = 256;
const REPLAY_ITEMS_RANK: usize = 64 * 100;
const REPLAY_ITEMS_PREDICT: usize = 1000;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn phase_json(name: &str, p: &Phase) -> Json {
    Json::Obj(vec![
        ("phase".into(), Json::Str(name.into())),
        ("attempted".into(), Json::UInt(p.attempted)),
        ("completed".into(), Json::UInt(p.completed)),
        ("failed".into(), Json::UInt(p.failed)),
        ("rejected".into(), Json::UInt(p.rejected)),
        ("unresolved".into(), Json::UInt(p.unresolved)),
        ("exactly_once".into(), Json::Bool(p.exactly_once())),
    ])
}

/// Folds a phase's counts into the report and the exactly-once gate list.
fn account(report: &mut Report, phases: &mut Vec<Json>, once: &mut bool, name: &str, p: &Phase) {
    report.attempted += p.attempted;
    report.failed += p.failed + p.rejected + p.unresolved;
    *once &= p.exactly_once();
    phases.push(phase_json(name, p));
}

/// The serve workload.
pub fn serve(args: &RunArgs, mut tracer: Option<&mut Tracer>) -> Result<Report, String> {
    let w = Workload::Serve;
    let mut report = Report::default();
    let mut setup = set_up(w, tracer.as_deref_mut())?;
    let mut rt = setup.runtime.take().ok_or("serve set-up started no runtime")?;
    let mut phases = Vec::new();
    let mut once = true;

    let mut warm_gen = w.queries(args.seed, Purpose::Warm);
    let warmed = warm(&rt, &mut warm_gen, CACHE_ROWS, WARM_LIMIT)?;
    account(&mut report, &mut phases, &mut once, "warm", &warmed);
    let warm_misses = rt.lookup_stats().map_or(0, |s| s.misses);
    report.note("warm_queries", Json::UInt(warmed.attempted));
    report.note("warm_cache_misses", Json::UInt(warm_misses));

    // Gates: the sample through the runtime against sequential predict.
    let sample = gate_sample(w, args.seed);
    let before = rt.snapshot();
    let pending: Vec<_> = sample.iter().map(|q| rt.submit(q.clone())).collect();
    let served: Vec<f32> = pending
        .into_iter()
        .map(|p| p.and_then(microrec_core::PendingPrediction::wait))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("gate request failed: {e}"))?;
    let after = rt.snapshot();
    report.attempted += sample.len() as u64;
    once &= after.completed - before.completed == sample.len() as u64
        && after.admitted - before.admitted == sample.len() as u64;
    let reference = sequential_reference(&setup.shared, &sample)?;
    report.gates.push(identity_gate("runtime_vs_sequential_predict", &served, &reference));
    let dense = dense_replay(w, &setup.shared, &sample)?;
    report.gates.push(identity_gate("dense_replay_vs_served", &dense, &served));

    let s = args.seconds;
    let mut gen = w.queries(args.seed, Purpose::Measure);
    let arrivals = mix(args.seed, Purpose::Arrivals as u64);
    let (mut sats, mut fixeds, mut sats_t, mut fixeds_t) = (vec![], vec![], vec![], vec![]);
    for round in 0..ROUNDS {
        let fixed = Pace::Poisson { rate: FIXED_QPS, seed: mix(arrivals, round as u64) };
        let sat = run_phase(&rt, &mut gen, Pace::Saturate, secs(SAT_SHARE * s), POLL, None)?;
        account(&mut report, &mut phases, &mut once, &format!("saturate_{round}"), &sat);
        sats.push(sat);
        let steady = run_phase(&rt, &mut gen, fixed, secs(FIXED_SHARE * s), POLL, None)?;
        account(&mut report, &mut phases, &mut once, &format!("fixed_500qps_{round}"), &steady);
        fixeds.push(steady);
        if let Some(tr) = tracer.as_deref_mut() {
            let sat = run_phase(
                &rt,
                &mut gen,
                Pace::Saturate,
                secs(SAT_SHARE * s),
                POLL,
                Some(&mut *tr),
            )?;
            account(&mut report, &mut phases, &mut once, &format!("saturate_traced_{round}"), &sat);
            sats_t.push(sat);
            let steady =
                run_phase(&rt, &mut gen, fixed, secs(FIXED_SHARE * s), POLL, Some(&mut *tr))?;
            account(
                &mut report,
                &mut phases,
                &mut once,
                &format!("fixed_500qps_traced_{round}"),
                &steady,
            );
            fixeds_t.push(steady);
        }
    }
    let sat_qps = best_round(&sats, |p| p.saturated_qps, false);
    let (p50, p99) = (round_latency_ms(&fixeds, 0.5), round_latency_ms(&fixeds, 0.99));
    report.set("setup_s", setup.setup_s);
    report.set("sat_qps", sat_qps);
    report.set("p50_ms", p50);
    report.set("p99_ms", p99);
    report.note("sat_round_qps", Json::Arr(sats.iter().map(|p| num(p.saturated_qps)).collect()));
    report.note("fixed_qps", num(FIXED_QPS));
    report.note(
        "fixed_samples_per_round",
        Json::Arr(fixeds.iter().map(|p| Json::UInt(p.latency_ms.len() as u64)).collect()),
    );
    report.note(
        "p50_ms_per_round",
        Json::Arr(fixeds.iter().map(|p| num(p.latency_quantile_ms(0.5))).collect()),
    );
    report.note(
        "p99_ms_per_round",
        Json::Arr(fixeds.iter().map(|p| num(p.latency_quantile_ms(0.99))).collect()),
    );
    report.note("runtime_p50_ms", num(over_rounds(&fixeds, |p| p.runtime_quantile_ms(0.5))));
    report.note("runtime_p99_ms", num(over_rounds(&fixeds, |p| p.runtime_quantile_ms(0.99))));
    let late = pooled(&fixeds, |p| &p.late_ms);
    let gaps = pooled(&fixeds, |p| &p.scan_gap_us);
    report.note("gen_late_ms_p99", num(quantile(&late, 0.99)));
    report.note("gen_late_share_over_1ms", num(late_share(&late)));
    report.note("observation_error_ms_p50", num(quantile(&gaps, 0.5) / 1e3));
    report.note("observation_error_ms_p99", num(quantile(&gaps, 0.99) / 1e3));

    match tracer {
        None => {
            let slo = ladder(&rt, &mut gen, args.seed, sat_qps)?;
            for (i, p) in slo.probes.iter().enumerate() {
                account(&mut report, &mut phases, &mut once, &format!("ladder_{i}"), p);
            }
            report.set("slo_qps", slo.qps);
            report.note("slo_ms", num(SLO_MS));
            report.note("ladder", Json::Arr(slo.trail));
        }
        Some(tr) => {
            report
                .set("overhead.sat_qps", best_round(&sats_t, |p| p.saturated_qps, false) - sat_qps);
            report.set("overhead.p50_ms", round_latency_ms(&fixeds_t, 0.5) - p50);
            report.set("overhead.p99_ms", round_latency_ms(&fixeds_t, 0.99) - p99);
            let submit = pooled(&fixeds_t, |p| &p.submit_us);
            report.set("runtime.submit_us_p50", quantile(&submit, 0.5));
            report.set("runtime.submit_us_p99", quantile(&submit, 0.99));
            report
                .set("runtime.queue_len_p99", quantile(&pooled(&fixeds_t, |p| &p.queue_len), 0.99));
            let mean_batch = over_rounds(&fixeds_t, Phase::mean_batch);
            report.set("runtime.mean_batch", mean_batch);
            report.set(
                "runtime.deadline_close_share",
                over_rounds(&fixeds_t, Phase::deadline_close_share),
            );
            report.set(
                "runtime.service_p50_ms",
                over_rounds(&fixeds_t, |p| p.runtime_quantile_ms(0.5)),
            );
            report.set(
                "runtime.service_p99_ms",
                over_rounds(&fixeds_t, |p| p.runtime_quantile_ms(0.99)),
            );
            let late = pooled(&fixeds_t, |p| &p.late_ms);
            report.set("runtime.gen_late_ms_p99", quantile(&late, 0.99));
            report.set("runtime.gen_late_share_1ms", late_share(&late));
            let gaps = pooled(&fixeds_t, |p| &p.scan_gap_us);
            report.set("runtime.obs_error_ms_p99", quantile(&gaps, 0.99) / 1e3);
            rt.shutdown();
            // The standalone engine replays the observed mean batch size.
            let batch = mean_batch.round().max(1.0) as usize;
            warm_engine_cache(&mut setup.engine, &mut warm_gen)?;
            let queries = w.queries(args.seed, Purpose::Replay).next_batch(REPLAY_ITEMS_SERVE);
            layer_metrics(&mut report, w, &mut setup, &queries, batch, args.seed, tr)?;
        }
    }
    rt.shutdown();
    report.gates.push(Gate::new(
        "exactly_once",
        once,
        "attempted = completed + failed + rejected per phase, runtime counters agree",
    ));
    report.note("phases", Json::Arr(phases));
    Ok(report)
}

/// Share of requests the generator sent more than 1 ms late.
fn late_share(late_ms: &[f64]) -> f64 {
    if late_ms.is_empty() {
        return 0.0;
    }
    late_ms.iter().filter(|&&l| l > 1.0).count() as f64 / late_ms.len() as f64
}

/// Median over rounds of one figure per phase.
fn over_rounds(phases: &[Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    median(&phases.iter().map(f).collect::<Vec<_>>())
}

/// The second-best round's figure (see [`second_best`]).
fn best_round(phases: &[Phase], f: impl Fn(&Phase) -> f64, lower_is_better: bool) -> f64 {
    second_best(&phases.iter().map(f).collect::<Vec<_>>(), lower_is_better)
}

/// The second-best round's latency quantile (ms), where failed or refused
/// requests count as missing every limit.
fn round_latency_ms(phases: &[Phase], q: f64) -> f64 {
    best_round(phases, |p| p.latency_quantile_ms(q), true)
}

/// One sample list pooled over phases.
fn pooled(phases: &[Phase], f: impl Fn(&Phase) -> &Vec<f64>) -> Vec<f64> {
    phases.iter().flat_map(|p| f(p).iter().copied()).collect()
}

struct Ladder {
    qps: f64,
    probes: Vec<Phase>,
    trail: Vec<Json>,
}

fn rung(i: i32) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(i)
}

/// Bisects the ladder for the highest rung whose probe meets the limit,
/// starting at 0.7 × the measured saturation throughput. Rungs above 1.05 ×
/// that throughput are taken to fail without a probe: they cannot be
/// carried without a growing backlog.
fn ladder(
    rt: &microrec_core::ServingRuntime,
    gen: &mut QueryGenerator,
    seed: u64,
    sat_qps: f64,
) -> Result<Ladder, String> {
    let mut out = Ladder { qps: 0.0, probes: Vec::new(), trail: Vec::new() };
    let mut hi = (0..LADDER_RUNGS).find(|&i| rung(i) > sat_qps * 1.05).unwrap_or(LADDER_RUNGS);
    let mut lo: Option<(i32, f64)> = None;
    let mut guess = (0..hi).rev().find(|&i| rung(i) <= sat_qps * 0.7).unwrap_or(0);
    let mut retried = false;
    while out.probes.len() < PROBE_LIMIT {
        let rate = rung(guess);
        let attempt = out.probes.len() as u64;
        let pace = Pace::Poisson { rate, seed: mix(seed, 0x1ADD_0000 + attempt) };
        let p = run_phase(rt, gen, pace, secs(PROBE_REQUESTS / rate), POLL, None)?;
        let p99 = p.latency_quantile_ms(0.99);
        // A backlog longer than the limit's worth of arrivals means later
        // requests would wait past the limit.
        let backlog_ok = (p.backlog_at_end as f64) <= rate * SLO_MS / 1e3;
        let pass = p.failed + p.rejected + p.unresolved == 0 && p99 <= SLO_MS && backlog_ok;
        let achieved = if p.span_s > 0.0 { p.completed as f64 / p.span_s } else { 0.0 };
        out.trail.push(Json::Obj(vec![
            ("offered_qps".into(), num(rate)),
            ("achieved_qps".into(), num(achieved)),
            ("p99_ms".into(), num(p99)),
            ("backlog".into(), Json::UInt(p.backlog_at_end as u64)),
            ("pass".into(), Json::Bool(pass)),
        ]));
        out.probes.push(p);
        if pass {
            lo = Some((guess, achieved));
        } else if !retried {
            // A rung fails on its second failing probe in a row, so that
            // one stall of the shared host does not cap the search.
            retried = true;
            continue;
        } else {
            hi = guess;
        }
        retried = false;
        guess = match lo {
            Some((l, _)) if hi - l <= 1 => break,
            Some((l, _)) => (l + hi) / 2,
            None if guess == 0 => break,
            // No passing rung yet: halve the rate.
            None => (guess - RUNGS_PER_HALVING).max(0),
        };
    }
    out.qps = lo.map_or(0.0, |(_, achieved)| achieved);
    Ok(out)
}

/// Warms an engine's hot-row cache with gathers from `gen` until it has
/// taken as many misses as it has rows.
fn warm_engine_cache(engine: &mut MicroRec, gen: &mut QueryGenerator) -> Result<u64, String> {
    let mut features = Vec::new();
    let mut sent = 0;
    let start = Instant::now();
    while engine.hot_row_cache().map_or(u64::MAX, |c| c.misses()) < CACHE_ROWS as u64
        && start.elapsed() < WARM_LIMIT
    {
        engine.gather_features_into(&gen.next_query(), &mut features).map_err(|e| e.to_string())?;
        sent += 1;
    }
    Ok(sent)
}

/// Closed-loop calls on one thread, split into windows of equal duration.
struct Loop {
    calls: u64,
    failed: u64,
    windows: Vec<Window>,
}

#[derive(Default)]
struct Window {
    items: u64,
    busy_s: f64,
    /// Per-call latency (ms); a failed call counts as missing every limit.
    latency_ms: Vec<f64>,
}

/// Windows a closed loop is split into.
const LOOP_WINDOWS: u32 = 10;

fn closed_loop(
    w: Workload,
    engine: &mut MicroRec,
    gen: &mut QueryGenerator,
    duration: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Loop {
    let mut out = Loop { calls: 0, failed: 0, windows: Vec::new() };
    let window = duration / LOOP_WINDOWS;
    let start = Instant::now();
    let mut window_end = start + window;
    let mut current = Window::default();
    // At least one call, so a zero duration makes one warm-up step.
    loop {
        let queries = gen.next_batch(w.batch());
        let t0 = Instant::now();
        let ok = if w.batch() == 1 {
            engine.predict(&queries[0]).map(std::hint::black_box).is_ok()
        } else {
            engine.predict_batch(&queries).map(std::hint::black_box).is_ok()
        };
        let t1 = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("loop.call", out.calls, None, t0, t1);
        }
        out.calls += 1;
        if ok {
            current.items += queries.len() as u64;
            current.busy_s += (t1 - t0).as_secs_f64();
            current.latency_ms.push(us(t1 - t0) / 1e3);
        } else {
            out.failed += 1;
            current.latency_ms.push(f64::INFINITY);
        }
        if t1 >= window_end {
            out.windows.push(std::mem::take(&mut current));
            window_end += window;
        }
        if start.elapsed() >= duration {
            break;
        }
    }
    // Calls past the last window boundary join the last window rather than
    // form a short one of their own.
    match out.windows.last_mut() {
        Some(last) => {
            last.items += current.items;
            last.busy_s += current.busy_s;
            last.latency_ms.append(&mut current.latency_ms);
        }
        None => out.windows.push(current),
    }
    out
}

impl Loop {
    fn items(&self) -> u64 {
        self.windows.iter().map(|w| w.items).sum()
    }

    /// Throughput (items per busy second), p50 and p99 (ms), each the
    /// second-best window's own figure (see [`second_best`]).
    fn metrics(&self) -> (f64, f64, f64) {
        let best = |f: &dyn Fn(&Window) -> f64, lower_is_better: bool| -> f64 {
            second_best(&self.windows.iter().map(f).collect::<Vec<_>>(), lower_is_better)
        };
        (
            best(&|w| if w.busy_s > 0.0 { w.items as f64 / w.busy_s } else { 0.0 }, false),
            best(&|w| quantile(&w.latency_ms, 0.5), true),
            best(&|w| quantile(&w.latency_ms, 0.99), true),
        )
    }
}

/// The rank and predict workloads: one closed-loop client on one engine.
pub fn closed(args: &RunArgs, mut tracer: Option<&mut Tracer>) -> Result<Report, String> {
    let w = args.workload;
    let mut report = Report::default();
    let sample = gate_sample(w, args.seed);
    // The all-resident reference runs first, in its own process, so that
    // neither its memory nor its CPU touches the measured run.
    let resident = if w == Workload::Rank { Some(resident_reference(args.seed)?) } else { None };
    let mut setup = set_up(w, tracer.as_deref_mut())?;
    report.set("setup_s", setup.setup_s);

    let mut warm_gen = w.queries(args.seed, Purpose::Warm);
    let start = Instant::now();
    let mut warm_items = 0u64;
    while setup.engine.hot_row_cache().map_or(u64::MAX, |c| c.misses()) < CACHE_ROWS as u64
        && start.elapsed() < WARM_LIMIT
    {
        let l = closed_loop(w, &mut setup.engine, &mut warm_gen, Duration::ZERO, None);
        if l.failed > 0 {
            return Err("warm-up call failed".into());
        }
        warm_items += l.items();
        report.attempted += l.calls;
    }
    report.note("warm_items", Json::UInt(warm_items));

    let served: Vec<f32> = if w.batch() == 1 {
        sample.iter().map(|q| setup.engine.predict(q)).collect::<Result<_, _>>()
    } else {
        setup.engine.predict_batch(&sample)
    }
    .map_err(|e| format!("gate call failed: {e}"))?;
    report.attempted += sample.len() as u64;
    let reference = sequential_reference(&setup.shared, &sample)?;
    report.gates.push(identity_gate("served_vs_sequential_predict", &served, &reference));
    if let Some(resident) = resident {
        report.gates.push(identity_gate("tiered_vs_all_resident", &served, &resident));
    }
    let dense = dense_replay(w, &setup.shared, &sample)?;
    report.gates.push(identity_gate("dense_replay_vs_served", &dense, &served));

    let mut gen = w.queries(args.seed, Purpose::Measure);
    let s = args.seconds;
    let untraced_s = if tracer.is_some() { s / 2.0 } else { s };
    let l = closed_loop(w, &mut setup.engine, &mut gen, secs(untraced_s), None);
    let (qps, p50, p99) = l.metrics();
    report.attempted += l.calls;
    report.failed += l.failed;
    report.set("sat_qps", qps);
    report.set("p50_ms", p50);
    report.set("p99_ms", p99);
    // One closed-loop client has a single operating point: it meets the
    // limit at its saturation throughput or nowhere.
    report.set("slo_qps", if p99 <= SLO_MS && l.failed == 0 { qps } else { 0.0 });
    report.note("calls", Json::UInt(l.calls));
    report.note(
        "window_p50_ms",
        Json::Arr(l.windows.iter().map(|w| num(quantile(&w.latency_ms, 0.5))).collect()),
    );
    report.note(
        "window_p99_ms",
        Json::Arr(l.windows.iter().map(|w| num(quantile(&w.latency_ms, 0.99))).collect()),
    );
    report.note(
        "window_qps",
        Json::Arr(
            l.windows
                .iter()
                .map(|w| num(if w.busy_s > 0.0 { w.items as f64 / w.busy_s } else { 0.0 }))
                .collect(),
        ),
    );
    report.note("items_per_call", Json::UInt(w.batch() as u64));

    if let Some(tr) = tracer {
        let mut trace_gen = w.queries(args.seed, Purpose::Trace);
        let lt = closed_loop(w, &mut setup.engine, &mut trace_gen, secs(s / 2.0), Some(&mut *tr));
        report.attempted += lt.calls;
        report.failed += lt.failed;
        let (qps_t, p50_t, p99_t) = lt.metrics();
        report.set("overhead.sat_qps", qps_t - qps);
        report.set("overhead.p50_ms", p50_t - p50);
        report.set("overhead.p99_ms", p99_t - p99);
        let (items, batch) = match w {
            Workload::Rank => (REPLAY_ITEMS_RANK, w.batch()),
            _ => (REPLAY_ITEMS_PREDICT, 1),
        };
        let queries = w.queries(args.seed, Purpose::Replay).next_batch(items);
        layer_metrics(&mut report, w, &mut setup, &queries, batch, args.seed, tr)?;
    }
    if w == Workload::Rank {
        report.note(
            "cold_tier_caveat",
            Json::Str(
                "the cold tier's file was just written, so its preads are served from the OS \
                 page cache, not from a storage device"
                    .into(),
            ),
        );
    }
    Ok(report)
}

/// Runs the traced replay and the host ceilings, and fills every
/// `engine.*`, `embedding.*`, `memsim.*`, `dnn.*` and `setup.*` metric.
fn layer_metrics(
    report: &mut Report,
    w: Workload,
    setup: &mut Setup,
    queries: &[Vec<u64>],
    batch: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(), String> {
    let first_span = tr.spans().len();
    let stats = replay(w, &mut setup.engine, queries, batch, tr)?;
    // Aggregate only this replay's spans.
    let total = |name: &str| -> f64 {
        tr.spans()[first_span..].iter().filter(|s| s.name == name).map(|s| s.us()).sum()
    };
    let nb = stats.batches.max(1) as f64;
    let items = stats.items.max(1) as f64;
    let engine_us = total("engine.batch") / nb;
    let gather_us = total("embedding.gather") / nb;
    let memsim_us = total("memsim.lookup") / nb;
    let quantize_us = total("dnn.quantize") / nb;
    let fc_us: Vec<f64> = FC_SPANS.iter().map(|n| total(n) / nb).collect();
    let dnn_us = quantize_us + fc_us.iter().sum::<f64>();
    let unattributed = engine_us - gather_us - dnn_us;
    report.set("engine.batch_us", engine_us);
    report.set("engine.unattributed_us", unattributed);
    report.note("replay_batch_items", Json::UInt(stats.batch_size as u64));
    report.note("dnn_share_of_engine", num(dnn_us / engine_us));
    report.note("gather_share_of_engine", num(gather_us / engine_us));
    report.set("embedding.gather_us", gather_us);
    let self_us = (gather_us - memsim_us) * nb / items;
    report.set("embedding.self_us_per_item", self_us);
    let lookups = (stats.cache_hits + stats.cache_misses).max(1) as f64;
    report.set("embedding.cache_hit_rate", stats.cache_hits as f64 / lookups);
    report.set("embedding.bytes_from_memory_per_item", stats.bytes_from_memory as f64 / items);
    report.set("embedding.cold_reads_per_item", stats.cold_reads as f64 / items);
    report.set(
        "embedding.prefetch_hit_share",
        if stats.cold_reads == 0 {
            0.0
        } else {
            stats.prefetch_hits as f64 / stats.cold_reads as f64
        },
    );
    let gathered_bytes = (stats.bytes_from_cache + stats.bytes_from_memory) as f64;
    report.set("embedding.gather_gbs", gathered_bytes / (self_us * items) / 1e3);
    report.set("memsim.lookup_us_per_item", memsim_us * nb / items);
    // Simulated time: never mixed into a host-time metric.
    report.note("memsim.lookup_sim_us", num(stats.lookup_sim_us / items));
    report.set("dnn.quantize_us", quantize_us);
    const FC_US: [&str; 4] = ["dnn.fc0_us", "dnn.fc1_us", "dnn.fc2_us", "dnn.fc3_us"];
    const FC_GMACS: [&str; 4] =
        ["dnn.fc0_gmacs", "dnn.fc1_gmacs", "dnn.fc2_gmacs", "dnn.fc3_gmacs"];
    for (i, &macs) in stats.fc_macs_per_item.iter().enumerate() {
        report.set(FC_US[i], fc_us[i]);
        report.set(FC_GMACS[i], macs as f64 * items / (fc_us[i] * nb) / 1e3);
    }
    // Consistency of the decomposition as written to the span file: the
    // children of the decomposed batches plus the unattributed remainder
    // must reproduce the engine call's total.
    let children: f64 =
        ["embedding.gather", "dnn.quantize"].iter().chain(FC_SPANS.iter()).map(|n| total(n)).sum();
    let check = (children + unattributed * nb - total("engine.batch")).abs() / nb;
    report.gates.push(Gate::new(
        "span_sum",
        check <= 1e-6 * engine_us.max(1.0),
        format!("per-layer spans + unattributed vs engine.batch_us: {check:.3e} us off"),
    ));
    report.set("trace.replay_mismatches", stats.mismatches as f64);
    report.gates.push(Gate::new(
        "dense_replay_vs_engine_call",
        stats.mismatches == 0,
        format!("{} of {} replayed outputs differ", stats.mismatches, stats.items),
    ));
    report.note("replay_items", Json::UInt(stats.items));
    report.note("replay_batches", Json::UInt(stats.batches));

    report.set("setup.placement_s", setup.placement_s);
    report.set("setup.build_s", setup.build_s);
    report.set("setup.start_s", setup.start_s);
    report.set("dnn.ceiling_gmacs", dnn_ceiling_gmacs(w, 64)?);
    let store_bytes = match setup.engine.tiered_store() {
        Some(t) => t.backing().resident_arena_bytes(),
        None => setup.engine.arena().map_or(0, |a| a.total_bytes()),
    };
    report.set("embedding.ceiling_gbs", embedding_ceiling_gbs(store_bytes, seed));
    report.note("ceiling_store_bytes", Json::UInt(store_bytes));
    report.note("spans", Json::UInt(tr.spans().len() as u64));
    Ok(())
}
