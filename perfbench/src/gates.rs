//! Correctness gates, run before any timing: bit-identity to a sequential
//! `MicroRec::predict` reference, tiered-vs-resident identity, and the
//! dense replay through `PackedMlp`.

use std::process::Command;

use microrec_core::MicroRecBuilder;
use microrec_dnn::{FixedNum, Mlp, PackedMlp, Q16, Q32};
use microrec_embedding::Precision;

use crate::workload::{Purpose, Workload, ENGINE_SEED};

/// Queries in each gate's seeded sample.
pub const GATE_SAMPLE: usize = 64;

/// One named pass/fail check, reported in the output.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl Gate {
    pub fn new(name: &'static str, passed: bool, detail: impl Into<String>) -> Self {
        Gate { name, passed, detail: detail.into() }
    }
}

pub fn gate_sample(workload: Workload, seed: u64) -> Vec<Vec<u64>> {
    workload.queries(seed, Purpose::Gate).next_batch(GATE_SAMPLE)
}

/// Sequential `predict` on a fresh engine without the hot-row cache that
/// shares the workload's embedding store.
pub fn sequential_reference(
    shared: &MicroRecBuilder,
    sample: &[Vec<u64>],
) -> Result<Vec<f32>, String> {
    let mut reference =
        shared.clone().hot_row_cache(0).build().map_err(|e| format!("reference build: {e}"))?;
    sample
        .iter()
        .map(|q| reference.predict(q).map_err(|e| format!("reference predict: {e}")))
        .collect()
}

/// Number of positions where `a` and `b` differ bit for bit (a length
/// mismatch counts every missing position).
pub fn bit_mismatches(a: &[f32], b: &[f32]) -> usize {
    let differing = a.iter().zip(b).filter(|(x, y)| x.to_bits() != y.to_bits()).count();
    differing + a.len().abs_diff(b.len())
}

pub fn identity_gate(name: &'static str, served: &[f32], reference: &[f32]) -> Gate {
    let bad = bit_mismatches(served, reference);
    Gate::new(name, bad == 0, format!("{bad} of {} outputs differ", reference.len()))
}

/// The top MLP exactly as the engine builds it.
pub fn top_mlp(workload: Workload) -> Mlp {
    let model = workload.model();
    Mlp::top_mlp(model.feature_len(), &model.hidden, ENGINE_SEED ^ 0x5EED)
        .expect("the workload's MLP shape is valid")
}

/// Quantizes gathered features to `T` and runs them through `packed`
/// layer by layer; returns the de-quantized CTR per item.
pub fn packed_forward<T: FixedNum>(
    packed: &PackedMlp<T>,
    features: &[Vec<f32>],
) -> Result<Vec<f32>, String> {
    let batch = features.len();
    let mut cur: Vec<T> = features.iter().flatten().map(|&v| T::from_f32(v)).collect();
    let mut next = Vec::new();
    for layer in 0..packed.num_layers() {
        packed.forward_layer(layer, &cur, batch, &mut next).map_err(|e| e.to_string())?;
        std::mem::swap(&mut cur, &mut next);
    }
    let stride = packed.output_dim().max(1);
    Ok(cur.chunks_exact(stride).map(|c| c[0].to_f32()).collect())
}

/// Dense replay of the sample: features gathered by a cache-less engine
/// sharing the store, forwarded through a `PackedMlp` built from
/// `Mlp::top_mlp`. Matching the served outputs shows the replay computes
/// what the engine computes, so the traced `dnn.*` spans time real work.
pub fn dense_replay(
    workload: Workload,
    shared: &MicroRecBuilder,
    sample: &[Vec<u64>],
) -> Result<Vec<f32>, String> {
    let mut engine =
        shared.clone().hot_row_cache(0).build().map_err(|e| format!("replay build: {e}"))?;
    let features = sample
        .iter()
        .map(|q| engine.gather_features(q).map_err(|e| format!("gather: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mlp = top_mlp(workload);
    match workload.precision() {
        Precision::F32 => packed_forward(&PackedMlp::<f32>::pack(&mlp), &features),
        Precision::Fixed16 => packed_forward(&PackedMlp::<Q16>::pack(&mlp), &features),
        Precision::Fixed32 => packed_forward(&PackedMlp::<Q32>::pack(&mlp), &features),
    }
}

/// Flag that makes the binary act as the all-resident reference.
pub const RESIDENT_CHILD_FLAG: &str = "--resident-reference";

/// Child-process body: the rank workload's model over an all-resident F16
/// arena, sequential `predict` on the gate sample, CTR bits printed as hex.
/// It runs in its own process so that this arena's memory never counts
/// toward the tiered run's peak RSS.
pub fn resident_reference_main(seed: u64) -> Result<(), String> {
    let workload = Workload::Rank;
    let mut engine = workload
        .base_builder()
        .hot_row_cache(0)
        .embedding_arena(microrec_embedding::RowFormat::F16)
        .build()
        .map_err(|e| format!("resident build: {e}"))?;
    if engine.is_tiered() {
        return Err("resident reference unexpectedly tiered".into());
    }
    let words: Vec<String> = gate_sample(workload, seed)
        .iter()
        .map(|q| engine.predict(q).map(|v| format!("{:08x}", v.to_bits())))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("resident predict: {e}"))?;
    println!("{}", words.join(" "));
    Ok(())
}

/// Runs [`resident_reference_main`] in a child process and parses its CTRs.
pub fn resident_reference(seed: u64) -> Result<Vec<f32>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([RESIDENT_CHILD_FLAG, &seed.to_string()])
        .output()
        .map_err(|e| format!("resident reference child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "resident reference child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .map(|w| u32::from_str_radix(w, 16).map(f32::from_bits).map_err(|e| e.to_string()))
        .collect()
}
