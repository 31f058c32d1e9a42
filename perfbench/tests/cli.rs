//! Command-level checks of the benchmark binary: exit codes and the result
//! line, on the few-millisecond `tiny` workload.

use std::process::Command;

use ncp2_obs::json::{parse, JVal};

fn perfbench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
    )
}

fn result_line(stdout: &str) -> JVal {
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("the result line is JSON")
}

#[test]
fn passing_run_exits_zero_with_the_end_to_end_metrics() {
    let (code, stdout) = perfbench(&["--workload", "tiny", "--seed", "3", "--seconds", "1"]);
    assert_eq!(code, Some(0));
    let r = result_line(&stdout);
    assert_eq!(r.get("correct").and_then(JVal::as_bool), Some(true));
    assert_eq!(r.get("failed").and_then(JVal::as_u64), Some(0));
    let metrics = r.get("metrics").and_then(JVal::as_obj).expect("metrics");
    let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    assert_eq!(
        names,
        ["cpu_s", "peak_rss_mb", "setup_s", "sim_cycles", "wall_s"]
    );
    for (name, m) in metrics {
        let v = m
            .get("value")
            .and_then(JVal::as_f64)
            .expect("numeric value");
        assert!(v > 0.0, "{name} must never read 0, got {v}");
    }
}

#[test]
fn planted_wrong_checksum_fails_every_run_and_exits_nonzero() {
    let (code, stdout) = perfbench(&[
        "--workload",
        "tiny",
        "--seconds",
        "1",
        "--plant-wrong-reference",
    ]);
    assert_eq!(code, Some(1));
    let r = result_line(&stdout);
    assert_eq!(r.get("correct").and_then(JVal::as_bool), Some(false));
    let attempted = r.get("attempted").and_then(JVal::as_u64).expect("count");
    assert!(attempted >= 1);
    assert_eq!(r.get("failed").and_then(JVal::as_u64), Some(attempted));
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "tiny", "--trace", "2"],
        &[],
    ] {
        let (code, stdout) = perfbench(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_of_benchmark_json() {
    let (code, stdout) = perfbench(&["--workload", "tiny", "--seconds", "1", "--trace", "1"]);
    assert_eq!(code, Some(0));
    let r = result_line(&stdout);
    let metrics = r.get("metrics").and_then(JVal::as_obj).expect("metrics");
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = parse(&text).expect("BENCHMARK.json parses");
    let mut declared: Vec<&str> = bench
        .get("per_layer")
        .and_then(JVal::as_arr)
        .expect("per_layer")
        .iter()
        .map(|m| m.get("name").and_then(JVal::as_str).expect("name"))
        .collect();
    declared.sort_unstable();
    let printed: Vec<&str> = metrics.keys().map(String::as_str).collect();
    assert_eq!(printed, declared);
    let threads = metrics["proc.threads"].get("value").and_then(JVal::as_f64);
    assert_eq!(threads, Some(4.0), "tiny runs on 4 processors");
}
