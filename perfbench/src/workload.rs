//! The three workloads: every engine setting spelled out, the seeded query
//! streams, and the timed set-up.

use std::sync::Arc;
use std::time::Instant;

use microrec_core::{
    AdmissionPolicy, ExecutionMode, MicroRec, MicroRecBuilder, RuntimeConfig, ServingRuntime,
};
use microrec_embedding::{ModelSpec, Precision, RowFormat};
use microrec_memsim::MemoryConfig;
use microrec_placement::{heuristic_search, AllocStrategy, HeuristicOptions};
use microrec_workload::{QueryGenConfig, QueryGenerator};

use crate::stats::{median, Tracer};

/// Table contents and MLP weights are part of the model, not of the
/// traffic: this seed is fixed, and only the queries follow `--seed`.
pub const ENGINE_SEED: u64 = 0x00AC_CE55;
/// Hot-row-cache capacity per engine replica, in rows.
pub const CACHE_ROWS: usize = 65_536;
const CACHE_WAYS: usize = 8;
/// Cold-tier prefetch threads. None: cold reads are synchronous preads on
/// the calling thread. On a 2-vCPU host one prefetch thread made the rank
/// workload slower (about 21k against 38k items/s) and its per-batch p99
/// swing by a factor of three between runs, because every handoff is a
/// cross-CPU wake-up.
const PREFETCH_WORKERS: usize = 0;
const ZIPF_EXPONENT: f64 = 1.05;
/// The rank workload's resident budget, as a share of the F16 footprint.
const RESIDENT_SHARE: u64 = 4;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Serve,
    Rank,
    Predict,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-small-q16-zipf" => Some(Workload::Serve),
            "rank-narrow-f32-uniform-tiered" => Some(Workload::Rank),
            "predict-small-f32-b1" => Some(Workload::Predict),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve-small-q16-zipf",
            Workload::Rank => "rank-narrow-f32-uniform-tiered",
            Workload::Predict => "predict-small-f32-b1",
        }
    }

    /// Why the workload is in the benchmark: the layer it loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Serve => {
                "the paper's model at its 16-bit datapath served open-loop through the runtime: \
                 dnn dominates service time and runtime queueing sets the tail"
            }
            Workload::Rank => {
                "narrow MLP over uniform indices from a tiered store: embedding gather and the \
                 memory simulator dominate, the runtime is bypassed"
            }
            Workload::Predict => {
                "single-inference latency at batch 1 on the unpacked single path: dnn dominates, \
                 the runtime is bypassed"
            }
        }
    }

    pub fn model(self) -> ModelSpec {
        let mut model = ModelSpec::small_production();
        if self == Workload::Rank {
            model.hidden = vec![64];
        }
        model
    }

    pub fn precision(self) -> Precision {
        match self {
            Workload::Serve => Precision::Fixed16,
            Workload::Rank | Workload::Predict => Precision::F32,
        }
    }

    fn zipf(self) -> f64 {
        match self {
            Workload::Serve | Workload::Predict => ZIPF_EXPONENT,
            Workload::Rank => 0.0,
        }
    }

    /// Items per engine call in the closed-loop workloads.
    pub fn batch(self) -> usize {
        match self {
            Workload::Rank => 64,
            Workload::Serve | Workload::Predict => 1,
        }
    }

    /// The workload's engine configuration, with the hot-row cache.
    pub fn builder(self) -> MicroRecBuilder {
        let base = self.base_builder();
        match self {
            Workload::Serve | Workload::Predict => base.embedding_arena(RowFormat::F16),
            Workload::Rank => {
                let f16_bytes: u64 =
                    self.model().tables.iter().map(|t| t.rows * u64::from(t.dim) * 2).sum();
                base.tiered_storage(f16_bytes / RESIDENT_SHARE, RowFormat::F16)
            }
        }
    }

    /// Every setting but the embedding store.
    pub fn base_builder(self) -> MicroRecBuilder {
        MicroRec::builder(self.model())
            .memory(MemoryConfig::u280())
            .precision(self.precision())
            .storage_precision(Precision::F32)
            .seed(ENGINE_SEED)
            .search_options(search_options())
            .arena_limit_bytes(u64::MAX)
            .hot_row_cache(CACHE_ROWS)
            .cache_ways(CACHE_WAYS)
            .prefetch_workers(PREFETCH_WORKERS)
    }

    /// A seeded query stream for one purpose (warm-up, gate, measurement,
    /// trace, replay): the same `seed` gives the same queries.
    pub fn queries(self, seed: u64, purpose: Purpose) -> QueryGenerator {
        let config = QueryGenConfig { zipf_exponent: self.zipf(), seed: mix(seed, purpose as u64) };
        QueryGenerator::new(&self.model(), config).expect("workload Zipf exponents are valid")
    }
}

/// Independent query streams derived from one `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Purpose {
    Warm = 1,
    Gate = 2,
    Measure = 3,
    Trace = 4,
    Replay = 5,
    Arrivals = 6,
}

/// SplitMix64 of `seed` and a stream tag.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn search_options() -> HeuristicOptions {
    HeuristicOptions {
        max_candidates: None,
        allow_merge: true,
        strategy: AllocStrategy::RoundRobin,
        group_size: 2,
    }
}

/// The serve workload's runtime.
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 2,
        max_batch: 32,
        max_wait_us: 2_000,
        queue_depth: 1024,
        admission: AdmissionPolicy::Block,
        execution: ExecutionMode::Monolithic,
        slo_us: 0,
        adaptive: false,
    }
}

/// What set-up leaves running, plus its timings.
pub struct Setup {
    /// The engine the closed loops drive (and the serve workload's
    /// standalone engine for the layer replay).
    pub engine: MicroRec,
    /// The workload builder pointed at the already-built shared store, so
    /// further engines cost no second materialization.
    pub shared: MicroRecBuilder,
    pub runtime: Option<ServingRuntime>,
    /// Median over [`SETUP_REPS`] of build plus runtime start.
    pub setup_s: f64,
    pub placement_s: f64,
    pub build_s: f64,
    pub start_s: f64,
}

/// Sets the workload up [`SETUP_REPS`] times and keeps the last.
pub fn set_up(workload: Workload, mut tracer: Option<&mut Tracer>) -> Result<Setup, String> {
    let builder = workload.builder();
    let model = workload.model();
    let (mut placement, mut build, mut start, mut total) = (vec![], vec![], vec![], vec![]);
    let mut last: Option<Setup> = None;
    for rep in 0..SETUP_REPS {
        // Free the previous set-up first so reps do not stack memory.
        if let Some(mut previous) = last.take() {
            if let Some(rt) = previous.runtime.as_mut() {
                rt.shutdown();
            }
        }
        let t0 = Instant::now();
        heuristic_search(&model, &MemoryConfig::u280(), Precision::F32, &search_options())
            .map_err(|e| format!("placement search: {e}"))?;
        let t1 = Instant::now();
        let engine = builder.clone().build().map_err(|e| format!("build: {e}"))?;
        let t2 = Instant::now();
        let shared = share_store(&builder, &engine)?;
        let runtime = match workload {
            Workload::Serve => Some(
                ServingRuntime::start(shared.clone(), runtime_config())
                    .map_err(|e| format!("runtime start: {e}"))?,
            ),
            Workload::Rank | Workload::Predict => None,
        };
        let t3 = Instant::now();
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("setup.placement", rep as u64, None, t0, t1);
            tr.record("setup.build", rep as u64, None, t1, t2);
            tr.record("setup.start", rep as u64, None, t2, t3);
        }
        placement.push((t1 - t0).as_secs_f64());
        build.push((t2 - t1).as_secs_f64());
        start.push((t3 - t2).as_secs_f64());
        total.push((t3 - t1).as_secs_f64());
        last = Some(Setup {
            engine,
            shared,
            runtime,
            setup_s: 0.0,
            placement_s: 0.0,
            build_s: 0.0,
            start_s: 0.0,
        });
    }
    let mut setup = last.ok_or("no set-up ran")?;
    setup.setup_s = median(&total);
    setup.placement_s = median(&placement);
    setup.build_s = median(&build);
    setup.start_s = median(&start);
    Ok(setup)
}

/// `builder` re-pointed at `engine`'s embedding store (arena or tiered
/// backing), so engines built from it share that one allocation.
fn share_store(builder: &MicroRecBuilder, engine: &MicroRec) -> Result<MicroRecBuilder, String> {
    if let Some(tiered) = engine.tiered_store() {
        return Ok(builder.clone().shared_tiered_backing(Arc::clone(tiered.backing())));
    }
    let arena = engine.arena().ok_or("workload engine has no embedding arena")?;
    Ok(builder.clone().shared_arena(Arc::clone(arena)))
}
