//! `perfbench` — the Strober estimate benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of back-to-back
//! estimates through the public `StroberFlow` API; with `--trace 1` it
//! drives the same estimate layer by layer and reports per-layer metrics.
//! `--smoke` swaps in the smallest core and program, for tests. The last
//! line of standard output is the JSON result; the line before it records
//! the host and run settings. Run it from the repository root: scratch
//! stores live under `.bench_out/work-<pid>` and are removed on exit, and
//! traced runs leave their spans in `.bench_out/trace-<workload>.jsonl`.

mod e2e;
mod estimate;
mod layers;
mod report;
mod scenario;
mod trace;

use scenario::{Scenario, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]";

/// Where scratch stores and span files go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}` (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: if smoke { workload.smoke() } else { workload },
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// A per-process scratch directory, removed on drop. `TMPDIR` points into
/// it, so the JIT's compiler runs keep their temporaries there too.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
        let tmp = dir.join("tmp");
        std::fs::create_dir_all(&tmp)
            .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("cannot resolve {}: {e}", dir.display()))?;
        // Set before any thread or child process starts.
        std::env::set_var("TMPDIR", dir.join("tmp"));
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sc = match Scenario::new(args.workload, args.seed) {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        let spans = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", sc.workload.name));
        layers::run(&sc, args.seconds, &work.0, &spans)
    } else {
        e2e::run(&sc, args.seconds, &work.0)
    };
    drop(work);

    for e in outcome.setup_errors.iter().chain(&outcome.op_errors) {
        eprintln!("perfbench: check failed: {e}");
    }
    let mut record = report::host_record(&sc, args.seconds, args.trace, args.smoke, outcome.engine);
    if let serde_json::Value::Object(map) = &mut record {
        map.insert("samples".to_owned(), serde_json::json!(outcome.samples));
        map.extend(outcome.extra.clone());
    }
    println!("{}", serde_json::to_string(&record).expect("JSON renders"));
    println!(
        "{}",
        serde_json::to_string(&outcome.result_json()).expect("JSON renders")
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
