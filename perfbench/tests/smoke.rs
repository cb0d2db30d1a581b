//! Smoke and negative tests of the benchmark binary: every workload path
//! in both modes on the smallest core and program, and the checks that
//! must fail a run.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(map) => map
            .get(key)
            .unwrap_or_else(|| panic!("no `{key}` in {v:?}")),
        other => panic!("not an object: {other:?}"),
    }
}

/// The benchmark's own declaration.
fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<String> {
    let Value::Array(items) = field(doc, key) else {
        panic!("BENCHMARK.json `{key}` is not a list");
    };
    let mut names: Vec<String> = items
        .iter()
        .map(|m| match field(m, "name") {
            Value::String(name) => name.clone(),
            other => panic!("bad name {other:?}"),
        })
        .collect();
    names.sort();
    names
}

/// Runs the binary on the smoke stand-in of `workload` in a scratch
/// directory of its own; returns the exit status and the result line.
fn smoke(tag: &str, workload: &str, trace: u8, path: Option<&str>) -> (bool, Value) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(&dir).args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        &trace.to_string(),
        "--smoke",
    ]);
    if let Some(path) = path {
        cmd.env("PATH", path);
    }
    let out = cmd.output().expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    (out.status.success(), result)
}

fn metric_names(result: &Value) -> Vec<String> {
    let Value::Object(metrics) = field(result, "metrics") else {
        panic!("no metrics in {result:?}");
    };
    metrics.keys().cloned().collect()
}

#[test]
fn every_workload_runs_clean_in_both_modes() {
    let doc = declared();
    for workload in names(&doc, "workloads") {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let tag = format!("{workload}-{trace}");
            let (ok, result) = smoke(&tag, &workload, trace, None);
            assert!(ok, "{tag}: {result:?}");
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{tag}");
            assert_eq!(field(&result, "failed").as_u64(), Some(0), "{tag}");
            assert!(field(&result, "attempted").as_u64() >= Some(1), "{tag}");
            assert_eq!(metric_names(&result), names(&doc, key), "{tag}");
            if trace == 1 {
                let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                    .join(&tag)
                    .join(format!(".bench_out/trace-{workload}.jsonl"));
                assert!(spans.exists(), "{tag}: no span file");
            }
        }
    }
}

#[test]
fn a_missing_rustc_fails_every_op() {
    // With no compiler on PATH the flow silently falls back to the
    // interpreted hub; the benchmark must refuse to count that as a JIT
    // run.
    let empty = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("empty-path");
    std::fs::create_dir_all(&empty).expect("empty dir");
    for trace in [0, 1] {
        let (ok, result) = smoke(
            &format!("no-rustc-{trace}"),
            "dhrystone-rok",
            trace,
            Some(empty.to_str().expect("utf-8 path")),
        );
        assert!(!ok, "a fallback run must not succeed: {result:?}");
        assert_eq!(field(&result, "correct"), &Value::Bool(false));
        let attempted = field(&result, "attempted").as_u64().expect("attempted");
        assert!(attempted >= 1);
        assert_eq!(field(&result, "failed").as_u64(), Some(attempted));
    }
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload dhrystone-rok --seed 1 --seconds 1 --trace 2",
        "--workload dhrystone-rok --seconds 1 --trace 0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .args(args.split(' '))
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args}");
        assert!(out.stdout.is_empty(), "{args}");
    }
}
