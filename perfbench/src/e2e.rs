//! The untraced run: the end-to-end metrics a user of `strober estimate`
//! sees, measured as a closed loop of back-to-back estimates.

use crate::estimate::{check_op, check_setup, estimate_op, setup, SimStats};
use crate::report::{median, peak_rss_mb, Outcome};
use crate::scenario::Scenario;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// Cold set-ups per run, each from an empty store; `setup_s` is their
/// median.
const COLD_SETUPS: usize = 5;

/// The fewest timed rounds a run makes, however short `--seconds`.
const MIN_OPS: usize = 3;

/// Runs the cold set-ups, one warm set-up that yields the session, one
/// untimed warm-up estimate, then rounds of one timed warm set-up and one
/// timed estimate until `seconds` have passed.
///
/// `estimate_s` and `warm_setup_s` are means over the rounds (total wall
/// time over count) and `target_cycles_per_s` the matching throughput.
/// The host's speed drifts between regimes that last seconds to minutes;
/// a per-run median snaps to whichever regime held most rounds, and a
/// burst of set-ups sees only the regime of its moment, while means over
/// rounds spread across the run weigh the regimes by the time they
/// lasted, which is steadier from run to run.
pub fn run(sc: &Scenario, seconds: f64, work: &Path) -> Outcome {
    let mut out = Outcome::default();

    let mut cold_s = Vec::new();
    let mut store_dir = None;
    for i in 0..COLD_SETUPS {
        let dir = work.join(format!("store-{i}"));
        match setup(sc, &dir) {
            Ok(s) => {
                let secs = s.prepare_s + s.jit_s;
                eprintln!("perfbench: cold set-up {i}: {secs:.6} s");
                cold_s.push(secs);
                out.setup_errors.extend(check_setup(&s, true));
                store_dir = Some(dir);
            }
            Err(e) => out.setup_errors.push(e),
        }
    }
    let Some(store_dir) = store_dir else {
        return out;
    };

    let flow = match setup(sc, &store_dir) {
        Ok(s) => {
            out.setup_errors.extend(check_setup(&s, false));
            s.flow
        }
        Err(e) => {
            out.setup_errors.push(e);
            return out;
        }
    };
    out.engine = flow.hub_engine_name();

    // The untimed warm-up op fixes the seed's expected statistics.
    let expected = match estimate_op(&flow, sc) {
        Ok(o) => {
            out.setup_errors
                .extend(check_op(&sc.golden, flow.hub_engine_name(), &o, None));
            SimStats::of(&o)
        }
        Err(e) => {
            out.setup_errors.push(format!("warm-up op: {e}"));
            return out;
        }
    };

    let (mut ops, mut wall_s, mut cycles) = (0u32, 0.0, 0u64);
    let (mut warm_n, mut warm_s) = (0u32, 0.0);
    // Timed warm set-ups run on a helper thread, which also drops each
    // session it builds: their allocations stay in that thread's heap
    // arena instead of fragmenting the estimate loop's, so `peak_rss_mb`
    // does not depend on how set-ups and estimates interleave.
    std::thread::scope(|scope| {
        let (go, requests) = mpsc::channel::<()>();
        let (replies, timings) = mpsc::channel();
        let store_dir = &store_dir;
        scope.spawn(move || {
            for () in requests {
                let timed =
                    setup(sc, store_dir).map(|s| (s.prepare_s + s.jit_s, check_setup(&s, false)));
                if replies.send(timed).is_err() {
                    break;
                }
            }
        });
        let t0 = Instant::now();
        while (ops as usize) < MIN_OPS || t0.elapsed().as_secs_f64() < seconds {
            go.send(()).expect("set-up thread is running");
            match timings.recv().expect("set-up thread replies") {
                Ok((secs, errors)) => {
                    warm_n += 1;
                    warm_s += secs;
                    out.setup_errors.extend(errors);
                }
                Err(e) => out.setup_errors.push(e),
            }
            out.attempted += 1;
            let errors = match estimate_op(&flow, sc) {
                Ok(o) => {
                    eprintln!("perfbench: op {}: {:.6} s", out.attempted, o.wall_s);
                    ops += 1;
                    wall_s += o.wall_s;
                    cycles += o.run.target_cycles;
                    check_op(&sc.golden, flow.hub_engine_name(), &o, Some(&expected))
                }
                Err(e) => vec![e],
            };
            out.fail_op(errors);
            if ops == 0 && out.attempted >= MIN_OPS as u64 {
                break;
            }
        }
    });

    out.samples = ops as usize;
    out.metric("estimate_s", wall_s / f64::from(ops), "s");
    out.metric("target_cycles_per_s", cycles as f64 / wall_s, "1/s");
    out.metric("setup_s", median(&cold_s), "s");
    out.metric("warm_setup_s", warm_s / f64::from(warm_n), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out
}
