//! Results: the counts and metrics of one run, the host record that goes
//! with them, and the JSON lines they are printed as.

use crate::estimate::LANES;
use crate::scenario::Scenario;
use serde_json::{json, Map, Value};
use std::process::Command;

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that failed a check.
    pub failed: u64,
    /// Failed set-up checks; any of them fails every op of the run.
    pub setup_errors: Vec<String>,
    /// The first few op failures, for the error report.
    pub op_errors: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ops behind each median.
    pub samples: usize,
    /// The hub engine the ops ran under.
    pub engine: &'static str,
    /// Traced-run extras that are not gated metrics (accuracy).
    pub extra: Map,
}

impl Outcome {
    /// Counts one op as failed if it has any errors.
    pub fn fail_op(&mut self, errors: Vec<String>) {
        if errors.is_empty() {
            return;
        }
        self.failed += 1;
        if self.op_errors.len() < 8 {
            self.op_errors.extend(errors);
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.setup_errors.is_empty()
    }

    /// The final result line: `correct`, `attempted`, `failed` and
    /// `metrics`. A failed set-up fails every op.
    pub fn result_json(&self) -> Value {
        let attempted = self.attempted.max(1);
        let failed = if self.setup_errors.is_empty() && self.attempted > 0 {
            self.failed
        } else {
            attempted
        };
        let mut metrics = Map::new();
        for &(name, value, unit) in &self.metrics {
            metrics.insert(name.to_owned(), json!({"value": value, "unit": unit}));
        }
        json!({
            "correct": self.correct(),
            "attempted": attempted,
            "failed": failed,
            "metrics": Value::Object(metrics),
        })
    }
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First line of a command's standard output, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_owned())
}

/// The host and run settings printed with every result, so numbers from
/// different hosts or settings are never mixed.
pub fn host_record(sc: &Scenario, seconds: f64, trace: bool, smoke: bool, engine: &str) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let w = &sc.workload;
    json!({
        "host": json!({
            "nproc": sc.threads,
            "cpu_model": cpu,
            "rustc": command_line("rustc", &["--version"]).unwrap_or_else(|| "unavailable".to_owned()),
            "git_commit": command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned()),
        }),
        "settings": json!({
            "workload": w.name,
            "core": w.core,
            "program": w.program,
            "samples": w.samples,
            "replay_length": w.replay_length,
            "seed": sc.config.seed,
            "seconds": seconds,
            "trace": trace,
            "smoke": smoke,
            "replay_threads": sc.threads,
            "replay_lanes": LANES,
            "hub_engine": engine,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(map) => &map[key],
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn a_failed_check_fails_the_op_and_the_run() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.fail_op(Vec::new());
        out.fail_op(vec!["records moved".to_owned()]);
        assert_eq!(out.failed, 1);
        assert!(!out.correct());
        assert_eq!(field(&out.result_json(), "failed").as_u64(), Some(1));
    }

    #[test]
    fn a_failed_set_up_fails_every_op() {
        let mut out = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        out.setup_errors.push("jit provenance".to_owned());
        let r = out.result_json();
        assert_eq!(field(&r, "attempted").as_u64(), Some(4));
        assert_eq!(field(&r, "failed").as_u64(), Some(4));
        assert_eq!(field(&r, "correct"), &Value::Bool(false));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
