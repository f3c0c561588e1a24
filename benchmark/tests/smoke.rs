//! Smoke test: every workload runs (a tenth of the operations), answers
//! correctly, and prints every metric `BENCHMARK.json` lists exactly once
//! — the end-to-end ones untraced, the per-layer ones traced.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

fn names(spec: &Json, kind: &str) -> Vec<String> {
    spec.get(kind)
        .expect("metric list")
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

#[test]
fn every_listed_metric_is_printed_once_per_workload() {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
            // From the repository root, as the driver runs it.
            let out = Command::new(env!("CARGO_BIN_EXE_xkw-benchmark"))
                .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--quick",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}"
            );
            let last = stdout.trim_end().lines().last().expect("a result line");
            let result = Json::parse(last).expect("result line is JSON");
            let keys: Vec<&str> = result.entries().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let listed = names(&spec, kind);
            let printed: Vec<&str> = result
                .get("metrics")
                .expect("metrics")
                .entries()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(printed, listed, "{workload} --trace {trace}: metric keys");
            for name in &listed {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name} has a character outside [A-Za-z0-9_.-]"
                );
                let lines = stdout
                    .lines()
                    .filter(|l| {
                        l.split_whitespace()
                            .take(2)
                            .eq([workload.as_str(), name.as_str()])
                    })
                    .count();
                assert_eq!(
                    lines, 1,
                    "{workload} --trace {trace}: {name} printed {lines} times"
                );
            }
        }
    }
}
