//! The benchmark's smoke-scale self-test: every workload runs in
//! seconds and prints every metric `BENCHMARK.json` declares, with its
//! unit, and a deliberately wrong expected counter shows up as failed
//! units.

use dvm_bench::{parse, Json};
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// Run the benchmark at smoke scale and parse its last output line.
fn run(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace, "--scale", "smoke"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let doc = benchmark_json();
    let workloads = doc.expect_arr("workloads").expect("workloads listed");
    for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = doc.expect_arr(kind).expect("metrics listed");
        for workload in workloads {
            let name = workload.expect_str("name").expect("workload name");
            let result = run(name, "1", trace, &[]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert_eq!(result.expect_u64("failed"), Ok(0), "{name}");
            assert!(result.expect_u64("attempted").expect("attempted") >= 1);
            let metrics = result.get("metrics").expect("metrics object");
            let Json::Obj(pairs) = metrics else {
                panic!("metrics is not an object")
            };
            assert_eq!(pairs.len(), declared.len(), "{name} trace {trace}");
            for metric in declared {
                let metric_name = metric.expect_str("name").expect("metric name");
                let printed = metrics
                    .get(metric_name)
                    .unwrap_or_else(|| panic!("{name} trace {trace} lacks {metric_name}"));
                assert_eq!(printed.expect_str("unit"), metric.expect_str("unit"));
                let value = printed.expect_f64("value").expect("numeric value");
                assert!(value.is_finite(), "{name}: {metric_name} = {value}");
            }
        }
    }
}

#[test]
fn a_wrong_expected_counter_fails_every_graph_unit() {
    let result = run("xlate-graph", "0", "0", &["--wrong-expectation"]);
    let attempted = result.expect_u64("attempted").expect("attempted");
    assert!(attempted >= 1);
    assert_eq!(result.expect_u64("failed"), Ok(attempted));
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
}
