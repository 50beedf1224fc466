//! The `host` block every output carries, and the process's peak RSS.

use std::fs;

use microrec_json::Json;

/// Cores, ISA flags, CPU model, git revision and build profile.
pub fn host_block() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("nproc".into(), Json::UInt(nproc as u64)),
        ("avx2".into(), Json::Bool(isa("avx2"))),
        ("avx512f".into(), Json::Bool(isa("avx512f"))),
        ("f16c".into(), Json::Bool(isa("f16c"))),
        ("cpu_model".into(), Json::Str(cpu_model)),
        ("git_rev".into(), Json::Str(git_rev())),
        (
            "build_profile".into(),
            Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
    ])
}

#[cfg(target_arch = "x86_64")]
fn isa(flag: &str) -> bool {
    match flag {
        "avx2" => std::arch::is_x86_feature_detected!("avx2"),
        "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
        "f16c" => std::arch::is_x86_feature_detected!("f16c"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn isa(_flag: &str) -> bool {
    false
}

/// The checked-out commit, read from `.git` in the working directory;
/// `"unknown"` when the checkout is not a git repository.
fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
