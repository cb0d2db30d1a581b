//! One estimate the way `strober estimate` runs it, and the checks every
//! op must pass.

use crate::scenario::{Golden, Scenario, MAX_CYCLES};
use std::path::Path;
use std::time::Instant;
use strober::{EnergyEstimate, ReplayResult, SampledRun, StroberFlow};
use strober_dram::{DramConfig, DramModel};
use strober_gatesim::MAX_LANES;
use strober_isa::programs;
use strober_store::Store;

/// Bit-lanes per replay batch.
pub const LANES: usize = MAX_LANES;

/// The hub engine every op must run under.
pub const HUB_ENGINE: &str = "tape-jit";

/// A prepared session and how its two set-up calls were served.
#[derive(Debug)]
pub struct Setup {
    /// The session.
    pub flow: StroberFlow,
    /// Whether `prepare_cached` hit the store.
    pub cache_hit: bool,
    /// The JIT provenance `prepare_jit` reported, if an engine is ready.
    pub jit: Option<&'static str>,
    /// Seconds in `Store::open` + `prepare_cached`.
    pub prepare_s: f64,
    /// Seconds in `prepare_jit`.
    pub jit_s: f64,
}

/// Opens the store at `dir` and runs `prepare_cached` then `prepare_jit`.
///
/// # Errors
///
/// Returns a message if the store cannot be opened or preparation fails.
pub fn setup(sc: &Scenario, dir: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut store = Store::open(dir).map_err(|e| format!("cannot open store: {e}"))?;
    let (flow, cache_hit) = StroberFlow::prepare_cached(&sc.design, sc.config.clone(), &mut store)
        .map_err(|e| format!("prepare failed: {e}"))?;
    let t1 = Instant::now();
    let jit = flow.prepare_jit(Some(&mut store)).map(|(p, _)| p);
    let prepare_s = (t1 - t0).as_secs_f64();
    let jit_s = t1.elapsed().as_secs_f64();
    Ok(Setup {
        flow,
        cache_hit,
        jit,
        prepare_s,
        jit_s,
    })
}

/// Checks how a set-up was served: `cold` expects a store miss and a
/// fresh JIT compile, otherwise a store hit for both.
pub fn check_setup(s: &Setup, cold: bool) -> Vec<String> {
    let mut errors = Vec::new();
    let want = if cold { "cold" } else { "store" };
    if s.cache_hit == cold {
        errors.push(format!(
            "{want} set-up: prepare cache_hit = {}",
            s.cache_hit
        ));
    }
    if s.jit != Some(want) {
        errors.push(format!("{want} set-up: jit provenance {:?}", s.jit));
    }
    if s.flow.hub_engine_name() != HUB_ENGINE {
        errors.push(format!(
            "hub engine is `{}`, not `{HUB_ENGINE}`",
            s.flow.hub_engine_name()
        ));
    }
    errors
}

/// A fresh DRAM model holding the workload image.
pub fn load_dram(sc: &Scenario) -> DramModel {
    let mut dram = DramModel::new(DramConfig::default(), programs::MEM_BYTES);
    dram.load(&sc.image, 0);
    dram
}

/// What one estimate produced.
#[derive(Debug)]
pub struct OpOutput {
    /// Host wall seconds from the DRAM load to the estimate.
    pub wall_s: f64,
    /// The sampled run.
    pub run: SampledRun,
    /// Per-snapshot replay results.
    pub results: Vec<ReplayResult>,
    /// The energy estimate.
    pub estimate: EnergyEstimate,
    /// The exit code the target wrote, if it halted.
    pub exit_code: Option<u32>,
    /// Instructions the target retired.
    pub instret: u64,
}

/// One timed estimate: fresh DRAM model, `run_sampled`,
/// `replay_all_batched` over `nproc` threads × 64 lanes, `estimate`.
///
/// # Errors
///
/// Returns a message for any flow error, replay self-check failures
/// included.
pub fn estimate_op(flow: &StroberFlow, sc: &Scenario) -> Result<OpOutput, String> {
    let t0 = Instant::now();
    let mut dram = load_dram(sc);
    let run = flow
        .run_sampled(&mut dram, MAX_CYCLES)
        .map_err(|e| format!("run_sampled: {e}"))?;
    let results = flow
        .replay_all_batched(&run.snapshots, sc.threads, LANES)
        .map_err(|e| format!("replay: {e}"))?;
    let estimate = flow
        .estimate(&run, &results)
        .map_err(|e| format!("estimate: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(OpOutput {
        wall_s,
        run,
        results,
        estimate,
        exit_code: dram.exit_code(),
        instret: dram.instret(),
    })
}

/// The simulated statistics that must repeat exactly on every op of a
/// seed: a simulator-only change may not move any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Target cycles run.
    pub target_cycles: u64,
    /// Sample windows (population size N).
    pub windows: u64,
    /// Snapshots captured.
    pub records: u64,
    /// Hub cycles spent in scan readout.
    pub scan_cycles: u64,
    /// Bits of the estimated core power.
    pub power_bits: u64,
    /// Bits of the confidence interval's half-width.
    pub half_width_bits: u64,
}

impl SimStats {
    /// The statistics of one op.
    pub fn of(out: &OpOutput) -> SimStats {
        SimStats {
            target_cycles: out.run.target_cycles,
            windows: out.run.windows,
            records: out.run.records,
            scan_cycles: out.run.stats.scan_overhead_cycles,
            power_bits: out.estimate.mean_power_mw().to_bits(),
            half_width_bits: out.estimate.interval().half_width().to_bits(),
        }
    }
}

/// Every check one op must pass; an empty list means the op is correct.
/// `expected` is the seed's statistics from an earlier op, if any.
pub fn check_op(
    golden: &Golden,
    hub_engine: &str,
    out: &OpOutput,
    expected: Option<&SimStats>,
) -> Vec<String> {
    let mut errors = Vec::new();
    if out.exit_code != Some(golden.exit_code) {
        errors.push(format!(
            "exit code {:?}, ISS says {}",
            out.exit_code, golden.exit_code
        ));
    }
    if out.instret != golden.instret {
        errors.push(format!(
            "instret {}, ISS says {}",
            out.instret, golden.instret
        ));
    }
    if hub_engine != HUB_ENGINE {
        errors.push(format!("hub engine is `{hub_engine}`, not `{HUB_ENGINE}`"));
    }
    let n = out.run.snapshots.len();
    if n == 0 || out.results.len() != n {
        errors.push(format!(
            "{} replay results for {n} snapshots",
            out.results.len()
        ));
    }
    if out.results.iter().any(|r| r.outputs_checked == 0) {
        errors.push("a replay checked no outputs".to_owned());
    }
    if let Some(expected) = expected {
        let got = SimStats::of(out);
        if got != *expected {
            errors.push(format!(
                "simulated statistics moved within one seed: {got:?} != {expected:?}"
            ));
        }
    }
    errors
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scenario::{Workload, WORKLOADS};

    /// A prepared smoke scenario in a scratch store, and one op on it.
    pub(crate) fn smoke_op(tag: &str) -> (Scenario, Setup, OpOutput) {
        let sc = Scenario::new(WORKLOADS[0].smoke(), 11).expect("smoke scenario");
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        let s = setup(&sc, &dir).expect("set-up");
        let _ = std::fs::remove_dir_all(&dir);
        let out = estimate_op(&s.flow, &sc).expect("estimate");
        (sc, s, out)
    }

    #[test]
    fn a_clean_op_passes_and_every_perturbation_fails_it() {
        let (sc, s, out) = smoke_op("checks");
        assert!(
            check_setup(&s, true).is_empty(),
            "{:?}",
            check_setup(&s, true)
        );
        let engine = s.flow.hub_engine_name();
        let stats = SimStats::of(&out);
        assert_eq!(
            check_op(&sc.golden, engine, &out, Some(&stats)),
            Vec::<String>::new()
        );

        let perturbed = [
            SimStats {
                target_cycles: stats.target_cycles + 1,
                ..stats
            },
            SimStats {
                windows: stats.windows - 1,
                ..stats
            },
            SimStats {
                records: stats.records + 1,
                ..stats
            },
            SimStats {
                scan_cycles: stats.scan_cycles + 1,
                ..stats
            },
            SimStats {
                power_bits: stats.power_bits ^ 1,
                ..stats
            },
            SimStats {
                half_width_bits: stats.half_width_bits ^ 1,
                ..stats
            },
        ];
        for expected in &perturbed {
            assert_eq!(check_op(&sc.golden, engine, &out, Some(expected)).len(), 1);
        }
        let golden = Golden {
            instret: sc.golden.instret + 1,
            ..sc.golden
        };
        assert_eq!(check_op(&golden, engine, &out, None).len(), 1);
        let golden = Golden {
            exit_code: sc.golden.exit_code ^ 1,
            ..sc.golden
        };
        assert_eq!(check_op(&golden, engine, &out, None).len(), 1);
        assert_eq!(check_op(&sc.golden, "tape", &out, None).len(), 1);
        // A store-served set-up is not a cold one.
        assert_eq!(check_setup(&s, false).len(), 2);
    }

    #[test]
    fn smoke_stand_ins_keep_the_workload_path() {
        for w in WORKLOADS {
            let s = w.smoke();
            assert_eq!(
                (s.name, s.replay_length, s.census),
                (w.name, w.replay_length, w.census)
            );
            assert_eq!(Workload::by_name(w.name).map(|x| x.core), Some(w.core));
        }
    }
}
