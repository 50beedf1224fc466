//! The traced layer replay and the host ceilings the layer rates are
//! judged against.
//!
//! The replay feeds the same batches to three engines cloned from one warm
//! state, so every clone sees the same reads in the same order:
//! - A runs the public `predict_batch` (or `predict`) call: `engine.batch`;
//! - B gathers each query with `gather_features_into` (cache probe, store
//!   read, simulator, quantize-to-datapath): `embedding.gather`, then its
//!   features go through a `PackedMlp` built like the engine's, one
//!   `forward_layer` per span: `dnn.quantize`, `dnn.fc{i}`;
//! - C runs `measure_lookup` on the same queries, the catalog resolve plus
//!   DRAM-timing simulation alone: `memsim.lookup`, a child of the gather.
//!
//! B's outputs must equal A's bit for bit on every batch.

use std::time::Instant;

use microrec_core::MicroRec;
use microrec_dnn::{gemm_blocked, FixedNum, Matrix, PackedMlp, Q16, Q32};
use microrec_embedding::Precision;
use microrec_rng::Rng;

use crate::gates::{bit_mismatches, top_mlp};
use crate::stats::Tracer;
use crate::workload::Workload;

/// Span names of the dense layers, input-first.
pub const FC_SPANS: [&str; 4] = ["dnn.fc0", "dnn.fc1", "dnn.fc2", "dnn.fc3"];

/// Counters and non-span results of one replay.
#[derive(Debug, Default)]
pub struct ReplayStats {
    pub items: u64,
    pub batches: u64,
    pub batch_size: usize,
    /// Simulated lookup time summed over items (µs, simulator clock).
    pub lookup_sim_us: f64,
    /// Multiply-accumulates per item of each dense layer.
    pub fc_macs_per_item: Vec<u64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub bytes_from_cache: u64,
    pub bytes_from_memory: u64,
    pub cold_reads: u64,
    pub prefetch_hits: u64,
    /// Outputs where the dense replay differed from the engine call.
    pub mismatches: usize,
}

/// Replays `queries` in batches of `batch` through the three engines.
pub fn replay(
    workload: Workload,
    engine: &mut MicroRec,
    queries: &[Vec<u64>],
    batch: usize,
    tracer: &mut Tracer,
) -> Result<ReplayStats, String> {
    match workload.precision() {
        Precision::F32 => replay_at::<f32>(workload, engine, queries, batch, tracer),
        Precision::Fixed16 => replay_at::<Q16>(workload, engine, queries, batch, tracer),
        Precision::Fixed32 => replay_at::<Q32>(workload, engine, queries, batch, tracer),
    }
}

fn replay_at<T: FixedNum>(
    workload: Workload,
    engine: &mut MicroRec,
    queries: &[Vec<u64>],
    batch: usize,
    tracer: &mut Tracer,
) -> Result<ReplayStats, String> {
    let packed = PackedMlp::<T>::pack(&top_mlp(workload));
    if packed.num_layers() > FC_SPANS.len() {
        return Err(format!(
            "{} dense layers; the replay names {}",
            packed.num_layers(),
            FC_SPANS.len()
        ));
    }
    let mut gatherer = engine.clone();
    let mut simulator = engine.clone();
    let cache_before = cache_counters(&gatherer);
    let tier_before = gatherer.tier_counters();
    let single = workload == Workload::Predict;
    let mut stats = ReplayStats {
        batch_size: batch,
        fc_macs_per_item: packed
            .layers()
            .iter()
            .map(|l| (l.input_dim() * l.output_dim()) as u64)
            .collect(),
        ..ReplayStats::default()
    };
    let mut features: Vec<Vec<f32>> = vec![Vec::new(); batch];
    let (mut cur, mut next): (Vec<T>, Vec<T>) = (Vec::new(), Vec::new());
    for (id, chunk) in queries.chunks(batch).enumerate() {
        let id = id as u64;
        let n = chunk.len();
        let t0 = Instant::now();
        let served = if single {
            vec![engine.predict(&chunk[0]).map_err(|e| format!("predict: {e}"))?]
        } else {
            engine.predict_batch(chunk).map_err(|e| format!("predict_batch: {e}"))?
        };
        let t1 = Instant::now();
        tracer.record("engine.batch", id, None, t0, t1);

        let root_start = Instant::now();
        let t0 = Instant::now();
        for query in chunk {
            let sim =
                simulator.measure_lookup(query).map_err(|e| format!("measure_lookup: {e}"))?;
            stats.lookup_sim_us += sim.as_us();
        }
        let t1 = Instant::now();
        for (query, slot) in chunk.iter().zip(&mut features) {
            gatherer.gather_features_into(query, slot).map_err(|e| format!("gather: {e}"))?;
        }
        let t2 = Instant::now();
        cur.clear();
        for item in &features[..n] {
            cur.extend(item.iter().map(|&v| T::from_f32(v)));
        }
        let t3 = Instant::now();
        let mut layer_spans = Vec::with_capacity(packed.num_layers());
        for layer in 0..packed.num_layers() {
            let s = Instant::now();
            packed.forward_layer(layer, &cur, n, &mut next).map_err(|e| e.to_string())?;
            layer_spans.push((s, Instant::now()));
            std::mem::swap(&mut cur, &mut next);
        }
        let root_end = Instant::now();
        let root = tracer.record("replay.decomposed", id, None, root_start, root_end);
        let gather = tracer.record("embedding.gather", id, Some(root), t1, t2);
        tracer.record("memsim.lookup", id, Some(gather), t0, t1);
        tracer.record("dnn.quantize", id, Some(root), t2, t3);
        for (layer, (s, e)) in layer_spans.into_iter().enumerate() {
            tracer.record(FC_SPANS[layer], id, Some(root), s, e);
        }

        let stride = packed.output_dim().max(1);
        let replayed: Vec<f32> = cur.chunks_exact(stride).map(|c| c[0].to_f32()).collect();
        stats.mismatches += bit_mismatches(&served, &replayed);
        stats.items += n as u64;
        stats.batches += 1;
    }
    let cache_after = cache_counters(&gatherer);
    let tier = gatherer.tier_counters().delta_since(&tier_before);
    stats.cache_hits = cache_after[0] - cache_before[0];
    stats.cache_misses = cache_after[1] - cache_before[1];
    stats.bytes_from_cache = cache_after[2] - cache_before[2];
    stats.bytes_from_memory = cache_after[3] - cache_before[3];
    stats.cold_reads = tier.cold_reads;
    stats.prefetch_hits = tier.prefetch_hits;
    Ok(stats)
}

/// `[hits, misses, bytes_from_cache, bytes_from_memory]` of the engine's
/// hot-row cache (zeros without one).
fn cache_counters(engine: &MicroRec) -> [u64; 4] {
    engine
        .hot_row_cache()
        .map_or([0; 4], |c| [c.hits(), c.misses(), c.bytes_from_cache(), c.bytes_from_memory()])
}

/// The fastest GEMM in the repository (`gemm_blocked`, f32) on `rows` ×
/// the largest dense layer of the workload: a host ceiling for the dense
/// layers' GMAC/s. Not bit-exact with the engine's kernels.
pub fn dnn_ceiling_gmacs(workload: Workload, rows: usize) -> Result<f64, String> {
    let mlp = top_mlp(workload);
    let layer = mlp
        .layers()
        .iter()
        .max_by_key(|l| l.input_dim() * l.output_dim())
        .ok_or("MLP has no layers")?;
    let (k, n) = (layer.input_dim(), layer.output_dim());
    let mut rng = Rng::seed_from_u64(0xCE11);
    let a = Matrix::from_vec(rows, k, (0..rows * k).map(|_| rng.gen_f32()).collect())
        .map_err(|e| e.to_string())?;
    let b = Matrix::from_vec(k, n, (0..k * n).map(|_| rng.gen_f32()).collect())
        .map_err(|e| e.to_string())?;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        let c = gemm_blocked(&a, &b).map_err(|e| e.to_string())?;
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(c);
    }
    Ok((rows * k * n) as f64 / best / 1e9)
}

/// Bytes per random read of the row-bandwidth ceiling: one cache line,
/// the widest row the workloads store (32 × F16).
const CEILING_ROW_BYTES: usize = 64;
const CEILING_READS: usize = 1 << 21;

/// Random 64-byte row reads over a buffer the size of the workload's
/// embedding store (resident part only when tiered), in GB/s.
pub fn embedding_ceiling_gbs(store_bytes: u64, seed: u64) -> f64 {
    let words_per_row = CEILING_ROW_BYTES / 8;
    let rows = (store_bytes as usize / CEILING_ROW_BYTES).max(1);
    let buffer: Vec<u64> = (0..rows * words_per_row).map(|i| i as u64).collect();
    let mut rng = Rng::seed_from_u64(seed);
    let picks: Vec<usize> = (0..CEILING_READS).map(|_| rng.gen_range_usize(0, rows)).collect();
    let t = Instant::now();
    let mut sum = 0u64;
    for &row in &picks {
        let base = row * words_per_row;
        for &w in &buffer[base..base + words_per_row] {
            sum = sum.wrapping_add(w);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(sum);
    (CEILING_READS * CEILING_ROW_BYTES) as f64 / secs / 1e9
}
