//! Every workload end to end at tiny scale, through the real binary:
//! the result line has the contract's shape, names every metric of the
//! run's kind, and the run's correctness checks pass.

use std::process::Command;

const END_TO_END: [&str; 5] = [
    "setup_s",
    "fit_s",
    "holdout_gain",
    "peak_rss_mb",
    "max_rps_at_slo",
];

const SOME_PER_LAYER: [&str; 8] = [
    "rules.mine_ms",
    "rules.update_ms",
    "core.tree_ms",
    "core.cut_ms",
    "core.checkpoint_resume_ms",
    "store.log_append_ms",
    "serve.parse_us",
    "bench.tracing_overhead_pct",
];

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check_line(line: &str, metrics: &[&str]) {
    assert!(
        line.starts_with(r#"{"correct":true,"attempted":"#),
        "{line}"
    );
    assert!(line.contains(r#","failed":0,"metrics":{"#), "{line}");
    for m in metrics {
        assert!(
            line.contains(&format!(r#""{m}":{{"value":"#)),
            "{m} missing: {line}"
        );
    }
}

#[test]
fn fit_paper_runs_end_to_end_and_traced() {
    check_line(&run("fit-paper", 0), &END_TO_END);
    check_line(&run("fit-paper", 1), &SOME_PER_LAYER);
}

#[test]
fn fit_lowminsup_runs_end_to_end_and_traced() {
    check_line(&run("fit-lowminsup", 0), &END_TO_END);
    check_line(&run("fit-lowminsup", 1), &SOME_PER_LAYER);
}

#[test]
fn serve_ingest_runs_end_to_end_and_traced() {
    check_line(&run("serve-ingest", 0), &END_TO_END);
    check_line(&run("serve-ingest", 1), &SOME_PER_LAYER);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
