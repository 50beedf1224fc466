//! MicroRec benchmark: one command per workload that sets the engine up,
//! checks its outputs, and times it from outside through the public API of
//! `microrec-core`, `microrec-embedding`, `microrec-dnn` and
//! `microrec-placement`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object; the line before
//! it holds the host block, the gates, per-phase counts and extra figures.
//! With `--trace 1`, spans go to `.perfbench/spans-<workload>-seed<n>.jsonl`.
//! See `README.md` next to this crate for the workloads and metrics.

mod gates;
mod host;
mod layers;
mod report;
mod run;
mod serve;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use microrec_json::Json;

use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::run::RunArgs;
use crate::stats::Tracer;
use crate::workload::Workload;

/// Scratch space inside the working directory (the checkout root): the
/// tiered store's cold file and the span files live here.
const SCRATCH_DIR: &str = ".perfbench";

const USAGE: &str = "usage: microrec-perfbench --workload <serve-small-q16-zipf|\
rank-narrow-f32-uniform-tiered|predict-small-f32-b1> --seed <n> --seconds <1-600> --trace <0|1>";

struct Args {
    run: RunArgs,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        run: RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The tiered store writes its cold file under the temp directory: keep
    // it inside the working directory. Set before any thread starts.
    let scratch = match std::fs::create_dir_all(SCRATCH_DIR)
        .and_then(|()| std::fs::canonicalize(SCRATCH_DIR))
    {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: cannot create {SCRATCH_DIR}: {e}");
            return ExitCode::FAILURE;
        }
    };
    std::env::set_var("TMPDIR", &scratch);

    if argv.first().map(String::as_str) == Some(gates::RESIDENT_CHILD_FLAG) {
        let seed = argv.get(1).and_then(|s| s.parse().ok());
        return match seed.map(gates::resident_reference_main) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
            None => ExitCode::from(2),
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = args.trace.then(|| Tracer::new(Instant::now()));
    let result = match args.run.workload {
        Workload::Serve => run::serve(&args.run, tracer.as_mut()),
        Workload::Rank | Workload::Predict => run::closed(&args.run, tracer.as_mut()),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.set("rss_mb", host::peak_rss_mb());
    if let Some(tr) = &tracer {
        let path =
            format!("{SCRATCH_DIR}/spans-{}-seed{}.jsonl", args.run.workload.name(), args.run.seed);
        if let Err(e) = std::fs::write(&path, tr.to_jsonl()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        report.note("spans_file", Json::Str(path));
    }
    println!("{}", detail_line(&args, &report));
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.result_line(table));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a correctness gate failed");
        ExitCode::FAILURE
    }
}

fn detail_line(args: &Args, report: &Report) -> String {
    let w = args.run.workload;
    let mut fields = vec![
        ("workload".to_string(), Json::Str(w.name().into())),
        ("why".to_string(), Json::Str(w.why().into())),
        ("seed".to_string(), Json::UInt(args.run.seed)),
        ("seconds".to_string(), report::num(args.run.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("host".to_string(), host::host_block()),
        ("gates".to_string(), report.gates_json()),
    ];
    fields.extend(report.detail.iter().cloned());
    Json::Obj(fields).to_compact()
}
