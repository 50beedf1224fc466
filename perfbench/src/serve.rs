//! Open-loop traffic through `ServingRuntime`: one submitting thread, one
//! completion-collecting thread.
//!
//! Latency runs from each request's *due* time (its Poisson arrival) to the
//! moment the collector observes its result, so a stalled generator is
//! charged to the requests it delayed. The collector polls the oldest
//! outstanding results with `try_take` and sleeps `poll` between scans;
//! the gap between scans bounds how late a completion can be observed and
//! is reported as the observation error.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use microrec_core::{
    LatencyHistogram, PendingPrediction, RuntimeError, RuntimeSnapshot, ServingRuntime,
};
use microrec_workload::{PoissonArrivals, QueryGenerator};

use crate::stats::{quantile, us, Tracer};

/// Outstanding requests scanned per poll. Workers pop the queue in FIFO
/// order, so results complete among the oldest outstanding requests; 256
/// covers four full batches per worker.
const SCAN_WINDOW: usize = 256;
/// How long the collector waits for outstanding results after the last
/// submission before declaring them unresolved.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// How requests are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Poisson arrivals at `rate` per second from `seed`.
    Poisson { rate: f64, seed: u64 },
    /// Back-to-back submits, blocking while the admission queue is full.
    Saturate,
    /// Back-to-back submits until the runtime's hot-row caches have taken
    /// `misses` misses in total.
    Fill { misses: u64 },
}

/// Everything one phase observed.
#[derive(Debug)]
pub struct Phase {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub unresolved: u64,
    /// Due→observed latency of each completed request (ms).
    pub latency_ms: Vec<f64>,
    /// How late the generator submitted each request (ms).
    pub late_ms: Vec<f64>,
    /// Time inside `submit` (µs), traced phases only.
    pub submit_us: Vec<f64>,
    /// `queue_len()` at each submit, traced phases only.
    pub queue_len: Vec<f64>,
    /// Gaps between consecutive collector scans (µs).
    pub scan_gap_us: Vec<f64>,
    /// Requests still queued when submission stopped.
    pub backlog_at_end: usize,
    /// First due time to last observed completion (s).
    pub span_s: f64,
    /// Completions per second while the queue stayed full (saturation only).
    pub saturated_qps: f64,
    pub before: RuntimeSnapshot,
    pub after: RuntimeSnapshot,
    pub hist_before: LatencyHistogram,
    pub hist_after: LatencyHistogram,
}

impl Phase {
    /// Latency quantile (ms) where failed or refused requests count as
    /// missing every limit.
    pub fn latency_quantile_ms(&self, q: f64) -> f64 {
        let mut samples = self.latency_ms.clone();
        let missing = self.failed + self.rejected + self.unresolved;
        samples.extend((0..missing).map(|_| f64::INFINITY));
        quantile(&samples, q)
    }

    /// Every attempt resolved exactly once, and the runtime's own counters
    /// agree with what the collector saw.
    pub fn exactly_once(&self) -> bool {
        let (b, a) = (&self.before, &self.after);
        self.unresolved == 0
            && self.attempted == self.completed + self.failed + self.rejected
            && a.admitted - b.admitted == self.attempted - self.rejected
            && a.completed - b.completed == self.completed
            && a.failed - b.failed == self.failed
            && a.rejected - b.rejected == self.rejected
    }

    pub fn mean_batch(&self) -> f64 {
        let batches = self.after.batches - self.before.batches;
        let items = (self.after.completed + self.after.failed)
            - (self.before.completed + self.before.failed);
        if batches == 0 {
            0.0
        } else {
            items as f64 / batches as f64
        }
    }

    pub fn deadline_close_share(&self) -> f64 {
        let batches = self.after.batches - self.before.batches;
        let deadline = self.after.deadline_closes - self.before.deadline_closes;
        if batches == 0 {
            0.0
        } else {
            deadline as f64 / batches as f64
        }
    }

    /// The runtime's own enqueue→completion quantile (ms) over this phase.
    pub fn runtime_quantile_ms(&self, q: f64) -> f64 {
        phase_quantile_us(&self.hist_before, &self.hist_after, q) / 1e3
    }
}

/// Samples in `h` whose reported bucket value is at most `x` µs, recovered
/// from the public quantile function by bisection over ranks.
fn count_at_most(h: &LatencyHistogram, x: f64) -> u64 {
    let n = h.count();
    let value = |k: u64| h.quantile_us((k as f64 - 0.5) / n as f64);
    let (mut lo, mut hi) = (0u64, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if value(mid) <= x {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// The `q`-quantile (µs) of the samples recorded between two copies of a
/// cumulative histogram, at the histogram's bucket resolution.
fn phase_quantile_us(before: &LatencyHistogram, after: &LatencyHistogram, q: f64) -> f64 {
    let n = after.count().saturating_sub(before.count());
    if n == 0 {
        return 0.0;
    }
    let target = ((q * n as f64).ceil() as u64).max(1);
    let total = after.count();
    let value = |k: u64| after.quantile_us((k as f64 - 0.5) / total as f64);
    let in_phase = |x: f64| count_at_most(after, x).saturating_sub(count_at_most(before, x));
    let (mut lo, mut hi) = (1u64, total);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if in_phase(value(mid)) >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    value(lo)
}

struct Collected {
    completed: u64,
    failed: u64,
    unresolved: u64,
    latency_ms: Vec<f64>,
    scan_gap_us: Vec<f64>,
    last_observed: Option<Instant>,
}

/// Collector thread body: resolves each pending result exactly once.
fn collect(rx: mpsc::Receiver<(Instant, PendingPrediction)>, poll: Duration) -> Collected {
    let mut out = Collected {
        completed: 0,
        failed: 0,
        unresolved: 0,
        latency_ms: Vec::new(),
        scan_gap_us: Vec::new(),
        last_observed: None,
    };
    let mut outstanding: VecDeque<(Instant, PendingPrediction)> = VecDeque::new();
    let mut closed_at: Option<Instant> = None;
    let mut last_scan: Option<Instant> = None;
    loop {
        if outstanding.is_empty() {
            if closed_at.is_some() {
                break;
            }
            // Nothing to watch: block instead of polling.
            last_scan = None;
            match rx.recv() {
                Ok(item) => outstanding.push_back(item),
                Err(_) => break,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(item) => outstanding.push_back(item),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    closed_at.get_or_insert_with(Instant::now);
                    break;
                }
            }
        }
        let scan_start = Instant::now();
        if let Some(prev) = last_scan {
            out.scan_gap_us.push(us(scan_start - prev));
        }
        last_scan = Some(scan_start);
        let (mut i, mut scanned) = (0, 0);
        while i < outstanding.len() && scanned < SCAN_WINDOW {
            scanned += 1;
            if let Some(result) = outstanding[i].1.try_take() {
                let observed = Instant::now();
                match result {
                    Ok(_) => {
                        out.completed += 1;
                        out.latency_ms.push(us(observed - outstanding[i].0) / 1e3);
                    }
                    Err(_) => out.failed += 1,
                }
                out.last_observed = Some(observed);
                outstanding.remove(i);
            } else {
                i += 1;
            }
        }
        if closed_at.is_some_and(|t| t.elapsed() > DRAIN_TIMEOUT) {
            out.unresolved = outstanding.len() as u64;
            break;
        }
        if !outstanding.is_empty() {
            thread::sleep(poll);
        }
    }
    out
}

/// Runs one phase of `duration` against `rt`.
pub fn run_phase(
    rt: &ServingRuntime,
    gen: &mut QueryGenerator,
    pace: Pace,
    duration: Duration,
    poll: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Phase, String> {
    let before = rt.snapshot();
    let hist_before = rt.histogram();
    let depth = rt.config().queue_depth;
    let (tx, rx) = mpsc::channel::<(Instant, PendingPrediction)>();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut rejected = 0u64;
    let mut late_ms = Vec::new();
    let mut submit_us = Vec::new();
    let mut queue_len = Vec::new();
    let mut saturated_qps = 0.0;
    let mut backlog_at_end = 0;
    let start = Instant::now() + Duration::from_millis(2);
    let collected = thread::scope(|scope| -> Result<Collected, String> {
        let collector = scope.spawn(move || collect(rx, poll));
        let mut arrivals = match pace {
            Pace::Poisson { rate, seed } => {
                Some(PoissonArrivals::new(rate, seed).map_err(|e| e.to_string())?)
            }
            Pace::Saturate | Pace::Fill { .. } => None,
        };
        let fill_target = match pace {
            Pace::Fill { misses } => Some(misses),
            _ => None,
        };
        // Saturation: `(time, completed)` once the queue has filled.
        let mut filled: Option<(Instant, u64)> = None;
        loop {
            let query = gen.next_query();
            let due = match arrivals.as_mut() {
                Some(a) => {
                    let offset = Duration::from_nanos(a.next_arrival().as_ns() as u64);
                    if offset > duration {
                        break;
                    }
                    let due = start + offset;
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    due
                }
                None => Instant::now(),
            };
            let s0 = Instant::now();
            if let Some(tr) = tracer.as_deref_mut() {
                queue_len.push(rt.queue_len() as f64);
                let result = rt.submit(query);
                let s1 = Instant::now();
                tr.record("runtime.submit", attempted, None, s0, s1);
                submit_us.push(us(s1 - s0));
                route(result, due, &tx, &mut failed, &mut rejected);
            } else {
                route(rt.submit(query), due, &tx, &mut failed, &mut rejected);
            }
            attempted += 1;
            if arrivals.is_some() {
                late_ms.push(us(s0.saturating_duration_since(due)) / 1e3);
            } else if let Some(target) = fill_target {
                let filled = attempted.is_multiple_of(64)
                    && rt.lookup_stats().map_or(0, |s| s.misses) >= target;
                if filled || s0 - start > duration {
                    break;
                }
            } else {
                match filled {
                    None if rt.queue_len() >= depth * 3 / 4 => {
                        filled = Some((Instant::now(), rt.snapshot().completed));
                    }
                    None if s0 - start > duration * 4 => {
                        return Err("admission queue never filled under saturation".into());
                    }
                    Some((t0, c0)) if t0.elapsed() >= duration => {
                        let c1 = rt.snapshot().completed;
                        saturated_qps = (c1 - c0) as f64 / t0.elapsed().as_secs_f64();
                        break;
                    }
                    _ => {}
                }
            }
        }
        backlog_at_end = rt.queue_len();
        drop(tx);
        collector.join().map_err(|_| "collector thread panicked".to_string())
    })?;
    let after = rt.snapshot();
    let span_s =
        collected.last_observed.map_or(0.0, |t| t.saturating_duration_since(start).as_secs_f64());
    Ok(Phase {
        attempted,
        completed: collected.completed,
        failed: failed + collected.failed,
        rejected,
        unresolved: collected.unresolved,
        latency_ms: collected.latency_ms,
        late_ms,
        submit_us,
        queue_len,
        scan_gap_us: collected.scan_gap_us,
        backlog_at_end,
        span_s,
        saturated_qps,
        before,
        after,
        hist_before,
        hist_after: rt.histogram(),
    })
}

fn route(
    result: Result<PendingPrediction, RuntimeError>,
    due: Instant,
    tx: &mpsc::Sender<(Instant, PendingPrediction)>,
    failed: &mut u64,
    rejected: &mut u64,
) {
    match result {
        Ok(pending) => {
            // The collector outlives every send: it exits only once the
            // channel closes, after the submitter drops `tx`.
            let _ = tx.send((due, pending));
        }
        Err(RuntimeError::Rejected) => *rejected += 1,
        Err(_) => *failed += 1,
    }
}

/// Submits traffic until every worker's hot-row cache has taken as many
/// misses as it has rows, so caches are full before timing starts (or
/// until `limit`).
pub fn warm(
    rt: &ServingRuntime,
    gen: &mut QueryGenerator,
    cache_rows: usize,
    limit: Duration,
) -> Result<Phase, String> {
    let misses = (rt.config().workers * cache_rows) as u64;
    run_phase(rt, gen, Pace::Fill { misses }, limit, Duration::from_millis(1), None)
}
