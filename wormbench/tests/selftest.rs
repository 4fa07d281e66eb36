//! Fast self-test of the driver: tiny windows of every workload it runs,
//! in both modes, including the two that `BENCHMARK.json` does not
//! declare. Every metric `BENCHMARK.json` names must be emitted with its
//! unit and a finite value, every check must pass, and the fingerprint
//! must be present.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark directory sits in the repository")
        .to_path_buf()
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("expected string {key}, got {other:?}"),
    }
}

fn array_of<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(a)) => a,
        other => panic!("expected array {key}, got {other:?}"),
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wormbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the driver starts")
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit_and_a_finite_value() {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = serde_json::parse_value(&spec).expect("BENCHMARK.json is JSON");
    let declared: Vec<&str> = array_of(&spec, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let all = [
        "fig10_span",
        "fig10_perbyte",
        "fig11_shufflenet",
        "fig10_traced",
    ];
    assert!(declared.iter().all(|w| all.contains(w)), "{declared:?}");
    for name in all {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(&[
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "0.01",
                "--trace",
                trace,
                "--tiny",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let lines: Vec<&str> = stdout.lines().collect();
            let [.., detail, result] = lines[..] else {
                panic!("{name}: expected a detail line and a result line, got {stdout}");
            };
            let detail = serde_json::parse_value(detail).expect("detail line is JSON");
            let fp = detail.get("fingerprint").expect("fingerprint");
            for key in ["cpus", "kernel", "rustc", "git_commit", "source_digest"] {
                assert!(fp.get(key).is_some(), "{name}: fingerprint lacks {key}");
            }
            let result = serde_json::parse_value(result).expect("result line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{name}: {stdout}"
            );
            assert_eq!(number(result.get("failed")), Some(0.0));
            assert!(number(result.get("attempted")).is_some_and(|a| a >= 1.0));
            let metrics = result.get("metrics").expect("metrics");
            let Value::Object(emitted) = metrics else {
                panic!("metrics is not an object");
            };
            let declared = array_of(&spec, section);
            assert_eq!(
                emitted.len(),
                declared.len(),
                "{name} --trace {trace}: {stdout}"
            );
            for m in declared {
                let metric = str_of(m, "name");
                let got = metrics
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name} --trace {trace}: {metric} missing"));
                assert_eq!(
                    str_of(got, "unit"),
                    str_of(m, "unit"),
                    "{name}: unit of {metric}"
                );
                let value = number(got.get("value"));
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name}: {metric} = {:?} is not a finite number",
                    got.get("value")
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"],
        &["--workload", "fig10_span", "--trace", "2"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
