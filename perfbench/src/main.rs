//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload fit-paper|fit-lowminsup|serve-ingest --seed N
//!           --seconds S --trace 0|1 [--scale full|tiny]
//! ```
//!
//! Prints one JSON object as the last line of standard output:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of the traced replay (`--trace 1`). A failed correctness check or
//! operation error exits non-zero. The full result — provenance, every
//! metric, each ladder step, the checks and the spans — goes to
//! `$CARGO_TARGET_DIR/perfbench-results/` (`.bench_build/` by default).
//! See `perfbench/README.md` for the workloads and metrics.

mod fit;
mod load;
mod outcome;
mod replay;
mod serve;
mod stats;
mod trace;
mod workload;

use outcome::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Kind, Scale, Workload};

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "fit_s",
    "holdout_gain",
    "peak_rss_mb",
    "max_rps_at_slo",
];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: [&str; 36] = [
    "rules.extend_ms",
    "rules.tidsets_ms",
    "rules.mine_ms",
    "rules.mined_rules",
    "rules.candidates_pruned",
    "rules.ub_evaluated",
    "rules.ub_pruned_ratio",
    "rules.update_ms",
    "core.tree_ms",
    "core.build_ms",
    "core.cut_ms",
    "core.after_dominance",
    "core.after_cut",
    "core.save_ms",
    "core.model_bytes",
    "core.load_ms",
    "core.index_ms",
    "core.recommend_p50_us",
    "core.recommend_p99_us",
    "core.postings_per_request",
    "core.default_hit_ratio",
    "core.checkpoint_encode_ms",
    "core.checkpoint_resume_ms",
    "store.seal_ms",
    "store.log_append_ms",
    "store.checkpoint_save_ms",
    "store.checkpoint_load_ms",
    "serve.parse_us",
    "serve.degraded",
    "serve.shed",
    "serve.worker_panics",
    "bench.gen_lag_ms",
    "bench.recommend_p50_ms",
    "bench.recommend_p99_ms",
    "bench.recover_s",
    "bench.tracing_overhead_pct",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--scale" => scale = Scale::parse(value()?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// The checkout's commit, read from `.git` without running git
/// (`unknown` outside a repository).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| {
                read(".git/packed-refs")
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
                    })
                    .unwrap_or_else(|| "unknown".into())
            }),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn json_num(v: f64) -> String {
    // JSON has no infinity; a failed latency reads as 1e9 ms.
    let v = if v.is_finite() { v } else { 1e9 };
    format!("{v}")
}

fn metrics_json(out: &Outcome, names: &[&str]) -> Result<String, String> {
    let mut items = Vec::new();
    for name in names {
        let (_, value, unit) = out
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or(format!("metric {name} was not measured"))?;
        items.push(format!(
            r#""{name}":{{"value":{},"unit":"{unit}"}}"#,
            json_num(*value)
        ));
    }
    Ok(format!("{{{}}}", items.join(",")))
}

fn write_result(args: &Args, w: &Workload, out: &Outcome) -> Option<PathBuf> {
    let all: Vec<&str> = out.metrics.iter().map(|(n, _, _)| *n).collect();
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(name, ok)| format!(r#"{{"check":{:?},"passed":{ok}}}"#, name))
        .collect();
    let details: Vec<String> = out
        .details
        .iter()
        .map(|(k, v)| format!(r#","{k}":{v}"#))
        .collect();
    let doc = format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"nproc":{},"commit":"{}","params":{},"slo_p99_ms":{},"rates":{:?},"reference_rate":{},"correct":{},"attempted":{},"failed":{},"metrics":{},"checks":[{}]{}}}"#,
        w.name,
        args.seed,
        args.seconds,
        args.trace,
        workload::nproc(),
        commit(),
        w.describe(),
        load::SLO_P99_MS,
        serve::RATES,
        serve::REFERENCE_RATE,
        out.correct(),
        out.attempted,
        out.failed,
        metrics_json(out, &all).ok()?,
        checks.join(","),
        details.concat()
    );
    let dir = load::build_dir().join("perfbench-results");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name, args.seed, args.trace as u8
    ));
    std::fs::write(&path, doc + "\n").ok()?;
    Some(path)
}

fn run(args: &Args) -> Result<(Outcome, Workload), String> {
    let w = Workload::new(&args.workload, args.scale)?;
    let mut out = Outcome::default();
    match w.kind {
        Kind::FitPaper | Kind::FitLowMinsup => {
            fit::run(&w, args.seed, args.seconds, args.trace, &mut out)?
        }
        Kind::ServeIngest => serve::run(&w, args.seed, args.seconds, args.trace, &mut out)?,
    }
    Ok((out, w))
}

/// The hidden `__daemon` entry: host the daemon under test until a
/// client sends `shutdown`. Its arguments end with the file to publish
/// the bound address in.
fn daemon_main(args: &[String]) -> Result<(), String> {
    let parse = |s: &String| s.parse::<usize>().map_err(|e| format!("{s:?}: {e}"));
    let config = |threads: usize| pm_serve::ServeConfig {
        workers: threads,
        io_threads: threads,
        // The control connection idles while the ladder runs.
        read_timeout: std::time::Duration::from_secs(300),
        ..pm_serve::ServeConfig::default()
    };
    let (server, addr_file) = match args {
        [mode, model, threads, addr_file] if mode == "model" => (
            pm_serve::Server::start("127.0.0.1:0", Path::new(model), config(parse(threads)?))
                .map_err(|e| e.to_string())?,
            addr_file,
        ),
        [mode, name, scale, data, log, checkpoint, threads, addr_file] if mode == "stream" => {
            let w = Workload::new(name, Scale::parse(scale)?)?;
            let text = std::fs::read_to_string(data).map_err(|e| format!("{data}: {e}"))?;
            let data = pm_txn::TransactionSet::from_json(&text)?;
            let cfg = pm_serve::ServeConfig {
                checkpoint: Some(PathBuf::from(checkpoint)),
                ..config(parse(threads)?)
            };
            (
                pm_serve::Server::start_streaming("127.0.0.1:0", data, log, w.pipeline(), cfg)
                    .map_err(|e| e.to_string())?,
                addr_file,
            )
        }
        _ => return Err(format!("bad daemon arguments {args:?}")),
    };
    pm_store::write_atomic_str(addr_file, &format!("{}\n", server.addr()))
        .map_err(|e| e.to_string())?;
    server.join();
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("__daemon") {
        return match daemon_main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("[perfbench daemon] {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (out, w) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = write_result(&args, &w, &out) {
        eprintln!("[perfbench] result: {}", path.display());
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match metrics_json(&out, names) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{metrics}}}"#,
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
