//! Benchmark self-test at reduced size: every metric `BENCHMARK.json`
//! declares is printed exactly once with its unit, and a run forced to
//! fail is counted instead of crashing the benchmark.

use gpgpu_bench::json::Json;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Declared `(name, unit)` pairs of one metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    manifest()
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark; returns its stdout lines and the parsed result.
fn run(args: &[&str]) -> (Vec<String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--reduced", "--seconds", "1"])
        .args(args)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(String::from).collect();
    let result = Json::parse(lines.last().expect("a result line")).expect("last line is JSON");
    (lines, result)
}

fn check_metrics(workload: &str, trace: &str, list: &str) {
    let (lines, result) = run(&["--workload", workload, "--trace", trace]);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object missing");
    };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(printed, declared(list), "{workload} --trace {trace}");
    for (name, unit) in &printed {
        let prefix = format!("{name} = ");
        let shown: Vec<&String> = lines.iter().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(shown.len(), 1, "{name} printed once");
        assert!(
            shown[0].ends_with(&format!(" {unit}")),
            "{name} printed with its unit"
        );
    }
    assert!(lines.iter().any(|l| l.starts_with("sim_digest ")));
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    for w in ["batch-tiny", "mem-small", "compute-small"] {
        check_metrics(w, "0", "end_to_end");
    }
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    for w in ["batch-tiny", "mem-small", "compute-small"] {
        check_metrics(w, "1", "per_layer");
    }
}

#[test]
fn failed_runs_are_counted_not_fatal() {
    for w in ["batch-tiny", "mem-small"] {
        let (_, result) = run(&["--workload", w, "--trace", "0", "--max-cycles", "500"]);
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{w}"
        );
        let attempted = result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        assert!(
            attempted >= 1 && failed == attempted,
            "{w}: {failed}/{attempted}"
        );
        let ok_frac = result
            .get("metrics")
            .and_then(|m| m.get("ok_frac"))
            .and_then(|m| m.get("value"));
        assert_eq!(ok_frac.and_then(Json::as_f64), Some(0.0), "{w}");
    }
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed"][..],
        &["--trace", "2", "--workload", "mem-small"][..],
        &[][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
