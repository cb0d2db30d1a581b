//! The traced run: the estimate driven layer by layer through each
//! module's public API, with a span around every call, plus set-up and
//! micro-measurements of the layers the estimate does not time alone.
//!
//! The layered run repeats `StroberFlow::run_sampled` (hub build,
//! reservoir decide/place, `ZynqHost::run`, `ZynqHost::capture_snapshot`)
//! and `replay_all_batched` (per-batch `replay_batch` over `nproc`
//! threads); every traced op must equal the flow's own op bit for bit.

use crate::estimate::{
    check_op, check_setup, estimate_op, load_dram, setup, OpOutput, SimStats, LANES,
};
use crate::report::{median, Outcome};
use crate::scenario::{Scenario, MAX_CYCLES};
use crate::trace::{Span, Tracer, NO_PARENT};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use strober::{
    PreparedArtifact, ReplayResult, SampledRun, StopReason, StroberConfig, StroberError,
    StroberFlow,
};
use strober_dram::DramModel;
use strober_fame::{transform, FameConfig, FameResult, FameSnapshot, SnapshotController};
use strober_formal::{match_designs, MatchOptions};
use strober_gatesim::{BatchSim, Tape};
use strober_jit::{DylibEngine, JitCompiler, JitProvenance};
use strober_platform::{HostModel, OutputView, ZynqHost};
use strober_power::PowerAnalyzer;
use strober_sampling::Reservoir;
use strober_sim::{Simulator, TapeOptions};
use strober_store::Store;
use strober_synth::{synthesize, SynthResult};

/// Warm set-ups timed per traced run.
const WARM_SETUPS: usize = 5;

/// How long each micro-measurement runs.
const MICRO_TIME: Duration = Duration::from_millis(250);

/// One DRAM tick in this many is timed (each timing costs two clock
/// reads, so timing every tick would inflate the hub layers).
const TICK_STRIDE: u64 = 16;

/// The fewest traced ops a run makes.
const MIN_TRACED_OPS: usize = 2;

/// Runs `f` and returns its result and its wall time in milliseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// A `HostModel` that times a fixed stride of the DRAM model's ticks.
#[derive(Debug)]
struct TimedDram {
    inner: DramModel,
    ticks: u64,
    timed: u64,
    timed_ns: u64,
}

impl HostModel for TimedDram {
    fn tick(&mut self, cycle: u64, io: &mut OutputView<'_>) {
        if self.ticks.is_multiple_of(TICK_STRIDE) {
            let t0 = Instant::now();
            self.inner.tick(cycle, io);
            self.timed_ns += t0.elapsed().as_nanos() as u64;
            self.timed += 1;
        } else {
            self.inner.tick(cycle, io);
        }
        self.ticks += 1;
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// Set-up products the layered run and micro-measurements reuse.
struct Layers {
    fame: FameResult,
    synth: SynthResult,
    hub: Simulator,
    tape: Arc<Tape>,
    engine: Arc<DylibEngine>,
}

/// Times each cold set-up layer once, from an empty JIT cache directory.
fn setup_layers(sc: &Scenario, work: &Path, out: &mut Outcome) -> Result<Layers, String> {
    let fame_config = FameConfig {
        replay_length: sc.config.replay_length,
        warmup: sc.config.warmup,
    };
    let (fame, fame_ms) = timed(|| transform(&sc.design, &fame_config));
    let fame = fame.map_err(|e| format!("fame: {e}"))?;
    let (synth, synth_ms) = timed(|| synthesize(&sc.design, &sc.config.synth));
    let synth = synth.map_err(|e| format!("synth: {e}"))?;
    let (report, formal_ms) = timed(|| match_designs(&sc.design, &synth, &MatchOptions::default()));
    report.map_err(|e| format!("formal: {e}"))?;
    let options = if sc.config.platform.tape_opt {
        TapeOptions::all()
    } else {
        TapeOptions::none()
    };
    let (hub, lower_ms) = timed(|| Simulator::with_options(&fame.hub, &options));
    let hub = hub.map_err(|e| format!("sim lower: {e}"))?;
    let (tape, tape_ms) = timed(|| Tape::compile(&synth.netlist));
    let tape = Arc::new(tape.map_err(|e| format!("gate tape: {e}"))?);
    let source = hub.jit_source();
    let (jit, jit_ms) = timed(|| JitCompiler::new(work.join("jit-cold")).prepare(&source));
    let (engine, outcome) = jit.map_err(|e| format!("jit: {e}"))?;
    if outcome.provenance != JitProvenance::Cold {
        out.setup_errors.push(format!(
            "cold jit compile reported provenance `{}`",
            outcome.provenance.as_str()
        ));
    }
    out.metric("fame.transform_ms", fame_ms, "ms");
    out.metric("synth.synthesize_ms", synth_ms, "ms");
    out.metric("formal.match_ms", formal_ms, "ms");
    out.metric("sim.lower_ms", lower_ms, "ms");
    out.metric("gatesim.tape_compile_ms", tape_ms, "ms");
    out.metric("jit.compile_ms", jit_ms, "ms");
    Ok(Layers {
        fame,
        synth,
        hub,
        tape,
        engine: Arc::new(engine),
    })
}

impl Layers {
    /// A pristine hub simulator with the native engine attached.
    fn jit_hub(&self) -> Result<Simulator, String> {
        let mut sim = self.hub.clone();
        sim.attach_jit(self.engine.clone())
            .map_err(|e| format!("attach jit: {e}"))?;
        Ok(sim)
    }

    /// `Simulator::settle` and `Simulator::clock_edge` in ns per cycle on
    /// a free-running hub (fire = 1, no host model).
    fn hub_split(&self) -> Result<(f64, f64), String> {
        let mut sim = self.jit_hub()?;
        SnapshotController::new(&self.fame.meta)
            .set_fire(&mut sim, true)
            .map_err(|e| format!("fire: {e}"))?;
        let (mut settle_ns, mut edge_ns, mut cycles) = (0u128, 0u128, 0u32);
        let t0 = Instant::now();
        while t0.elapsed() < MICRO_TIME {
            let a = Instant::now();
            sim.settle();
            let b = Instant::now();
            sim.clock_edge();
            let c = Instant::now();
            settle_ns += (b - a).as_nanos();
            edge_ns += (c - b).as_nanos();
            cycles += 1;
        }
        let n = f64::from(cycles);
        Ok((settle_ns as f64 / n, edge_ns as f64 / n))
    }

    /// A 64-lane `BatchSim::step_n` in ns per cycle, then the median of
    /// five `PowerAnalyzer::analyze_all` calls on its 64 activities.
    fn gate_split(&self, flow: &StroberFlow) -> Result<(f64, f64), String> {
        let netlist = &self.synth.netlist;
        let mut sim = BatchSim::with_tape_lanes(self.tape.clone(), netlist, LANES)
            .map_err(|e| format!("batch sim: {e}"))?;
        let mut cycles = 0u32;
        let t0 = Instant::now();
        while cycles < 16 || t0.elapsed() < MICRO_TIME {
            sim.step_n(4);
            cycles += 4;
        }
        let step_ns = t0.elapsed().as_nanos() as f64 / f64::from(cycles);
        let analyzer = PowerAnalyzer::new(netlist, flow.library(), flow.config().freq_hz);
        let activities = sim.activities();
        let analyze: Vec<f64> = (0..5)
            .map(|_| timed(|| std::hint::black_box(analyzer.analyze_all(&activities))).1)
            .collect();
        Ok((step_ns, median(&analyze)))
    }
}

/// Per-op layer totals of one traced op.
#[derive(Debug)]
struct OpLayers {
    wall_ms: f64,
    attributed_ms: f64,
    run_ms: f64,
    run_cycles: u64,
    capture_ms: f64,
    replay_ms: f64,
    batches: usize,
    batch_busy_ms: f64,
    dram_tick_ns: f64,
}

/// A traced op's output, the engine it ran on and its layer totals.
struct TracedOp {
    out: OpOutput,
    engine: &'static str,
    layers: OpLayers,
}

/// One estimate through the layered run, with spans around every call.
fn traced_op(
    t: &mut Tracer,
    layers: &Layers,
    flow: &StroberFlow,
    sc: &Scenario,
) -> Result<TracedOp, String> {
    t.begin_op();
    let first_span = t.spans().len();
    let root = t.open("core.estimate_op", NO_PARENT);
    let r = root.id();

    let mut dram = t.span("dram.load", r, || TimedDram {
        inner: load_dram(sc),
        ticks: 0,
        timed: 0,
        timed_ns: 0,
    });
    let mut host = t.span("platform.with_sim", r, || {
        ZynqHost::with_sim(
            &layers.fame,
            flow.config().platform.clone(),
            layers.jit_hub()?,
        )
        .map_err(|e| format!("hub: {e}"))
    })?;
    let window = host.trace_window();
    let mut rng = StdRng::seed_from_u64(flow.config().seed);
    let mut reservoir: Reservoir<FameSnapshot> = Reservoir::new(flow.config().sample_size);
    let (mut windows, mut run_cycles) = (0u64, 0u64);
    while host.target_cycles() < MAX_CYCLES && !dram.is_done() {
        match t.span("sampling.decide", r, || reservoir.decide(&mut rng)) {
            Some(slot) => {
                let snap = t
                    .span("platform.capture", r, || host.capture_snapshot(&mut dram))
                    .map_err(|e| format!("capture: {e}"))?;
                t.span("sampling.place", r, || reservoir.place(slot, snap))
                    .map_err(|e| format!("reservoir: {e}"))?;
            }
            None => {
                run_cycles += t
                    .span("platform.run", r, || host.run(&mut dram, window))
                    .map_err(|e| format!("run: {e}"))?;
            }
        }
        windows += 1;
    }
    let records = reservoir.records();
    let run = SampledRun {
        snapshots: reservoir.into_sample(),
        target_cycles: host.target_cycles(),
        windows,
        records,
        stats: host.stats(),
        stop: if dram.is_done() {
            StopReason::WorkloadDone
        } else {
            StopReason::MaxCycles
        },
    };
    let (results, batches) = replay(t, r, flow, &run.snapshots, sc.threads)?;
    let estimate = t
        .span("core.estimate", r, || flow.estimate(&run, &results))
        .map_err(|e| format!("estimate: {e}"))?;
    t.close(root);

    let spans = &t.spans()[first_span..];
    let sum_ms = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    };
    let wall_ms = spans.last().expect("root span closed").ns() as f64 / 1e6;
    let attributed_ms = spans
        .iter()
        .filter(|s| s.parent == r)
        .map(|s| s.ns() as f64 / 1e6)
        .sum();
    let layers = OpLayers {
        wall_ms,
        attributed_ms,
        run_ms: sum_ms("platform.run"),
        run_cycles,
        capture_ms: sum_ms("platform.capture"),
        replay_ms: sum_ms("core.replay"),
        batches,
        batch_busy_ms: sum_ms("core.replay_batch"),
        dram_tick_ns: dram.timed_ns as f64 / dram.timed.max(1) as f64,
    };
    Ok(TracedOp {
        out: OpOutput {
            wall_s: wall_ms / 1e3,
            run,
            results,
            estimate,
            exit_code: dram.inner.exit_code(),
            instret: dram.inner.instret(),
        },
        engine: host.engine_name(),
        layers,
    })
}

/// Per-batch `replay_batch` calls over `threads` workers, batched the way
/// `replay_all_batched` batches: grouped by trace length, then cut into
/// 64-lane runs, with contiguous blocks of batches per thread. Returns
/// the results in snapshot order and the batch count.
fn replay(
    t: &mut Tracer,
    parent: u32,
    flow: &StroberFlow,
    snapshots: &[FameSnapshot],
    threads: usize,
) -> Result<(Vec<ReplayResult>, usize), String> {
    let phase = t.open("core.replay", parent);
    let mut by_len: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, s) in snapshots.iter().enumerate() {
        let len = s.trace_len();
        match by_len.iter_mut().find(|(l, _)| *l == len) {
            Some((_, v)) => v.push(i),
            None => by_len.push((len, vec![i])),
        }
    }
    let batches: Vec<Vec<usize>> = by_len
        .into_iter()
        .flat_map(|(_, idxs)| {
            idxs.chunks(LANES)
                .map(<[usize]>::to_vec)
                .collect::<Vec<_>>()
        })
        .collect();
    let first_id = t.reserve_ids(batches.len());
    let (epoch, op, phase_id) = (t.epoch(), t.op(), phase.id());
    let run_batch = |bi: usize| -> (Result<Vec<ReplayResult>, StroberError>, Span) {
        let refs: Vec<&FameSnapshot> = batches[bi].iter().map(|&i| &snapshots[i]).collect();
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let r = flow.replay_batch(&refs);
        let span = Span {
            op,
            id: first_id + bi as u32,
            parent: phase_id,
            name: "core.replay_batch",
            start_ns,
            end_ns: epoch.elapsed().as_nanos() as u64,
        };
        (r, span)
    };
    let done: Vec<(Result<Vec<ReplayResult>, StroberError>, Span)> =
        if threads <= 1 || batches.len() <= 1 {
            (0..batches.len()).map(run_batch).collect()
        } else {
            let chunk = batches.len().div_ceil(threads);
            let run_batch = &run_batch;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..batches.len())
                    .step_by(chunk)
                    .map(|lo| {
                        let hi = (lo + chunk).min(batches.len());
                        scope.spawn(move || (lo..hi).map(run_batch).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("replay worker panicked"))
                    .collect()
            })
        };
    let mut slots: Vec<Option<ReplayResult>> = vec![None; snapshots.len()];
    let mut first_error = None;
    for (b, (r, span)) in batches.iter().zip(done) {
        t.extend([span]);
        match r {
            Ok(results) => {
                for (&i, res) in b.iter().zip(results) {
                    slots[i] = Some(res);
                }
            }
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
    }
    t.close(phase);
    if let Some(e) = first_error {
        return Err(format!("replay: {e}"));
    }
    let results = slots
        .into_iter()
        .map(|r| r.ok_or_else(|| "a snapshot was not replayed".to_owned()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((results, batches.len()))
}

/// Differences between a traced op and the flow's op of the same seed;
/// empty when they agree bit for bit.
fn compare(traced: &OpOutput, flow: &OpOutput) -> Vec<String> {
    let (a, b) = (&traced.run, &flow.run);
    let mut diffs = Vec::new();
    if a.snapshots != b.snapshots {
        diffs.push("snapshots".to_owned());
    }
    if (a.target_cycles, a.windows, a.records, a.stop)
        != (b.target_cycles, b.windows, b.records, b.stop)
    {
        diffs.push("run counts".to_owned());
    }
    if a.stats != b.stats {
        diffs.push("platform stats".to_owned());
    }
    if traced.results != flow.results {
        diffs.push("replay results".to_owned());
    }
    let (x, y) = (&traced.estimate, &flow.estimate);
    let regions = |e: &strober::EnergyEstimate| -> Vec<(String, u64)> {
        e.per_region_mw()
            .iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect()
    };
    if x.mean_power_mw().to_bits() != y.mean_power_mw().to_bits()
        || x.interval().half_width().to_bits() != y.interval().half_width().to_bits()
        || (x.sample_size(), x.population()) != (y.sample_size(), y.population())
        || regions(x) != regions(y)
    {
        diffs.push("estimate".to_owned());
    }
    diffs
        .into_iter()
        .map(|d| format!("layered run differs from the flow: {d}"))
        .collect()
}

/// Census ground truth: every window replayed at gate level (n = N),
/// compared with the sampled estimate of the same seed.
fn census(
    sc: &Scenario,
    flow: &StroberFlow,
    store_dir: &Path,
    sampled: &OpOutput,
    out: &mut Outcome,
) -> Result<(), String> {
    let windows = sampled.run.windows;
    let config = StroberConfig {
        sample_size: usize::try_from(windows).map_err(|e| e.to_string())?,
        ..flow.config().clone()
    };
    let census = StroberFlow::from_parts(
        config,
        PreparedArtifact {
            fame: flow.fame().clone(),
            synth: flow.synth().clone(),
            name_map: flow.name_map().clone(),
        },
    );
    let mut store = Store::open(store_dir).map_err(|e| format!("store: {e}"))?;
    census.prepare_jit(Some(&mut store));
    let truth = estimate_op(&census, sc)?;
    out.setup_errors
        .extend(check_op(&sc.golden, census.hub_engine_name(), &truth, None));
    if truth.results.len() as u64 != windows {
        out.setup_errors.push(format!(
            "census replayed {} of {windows} windows",
            truth.results.len()
        ));
    }
    let truth_mw = truth.estimate.mean_power_mw();
    let estimate_mw = sampled.estimate.mean_power_mw();
    let half_width_mw = sampled.estimate.interval().half_width();
    out.extra.insert(
        "accuracy".to_owned(),
        json!({
            "census_windows": windows,
            "truth_mw": truth_mw,
            "estimate_mw": estimate_mw,
            "half_width_mw": half_width_mw,
            "confidence": sampled.estimate.interval().confidence(),
            "sampling.census_error_pct": (estimate_mw - truth_mw).abs() / truth_mw * 100.0,
            "sampling.census_covered": (estimate_mw - truth_mw).abs() <= half_width_mw,
        }),
    );
    Ok(())
}

/// Runs the traced measurement and writes its spans to `trace_path`.
pub fn run(sc: &Scenario, seconds: f64, work: &Path, trace_path: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_into(sc, seconds, work, trace_path, &mut out) {
        out.setup_errors.push(e);
    }
    out
}

fn run_into(
    sc: &Scenario,
    seconds: f64,
    work: &Path,
    trace_path: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let layers = setup_layers(sc, work, out)?;

    // Populate a store cold, then time the warm path's two calls.
    let store_dir = work.join("store");
    let cold = setup(sc, &store_dir)?;
    out.setup_errors.extend(check_setup(&cold, true));
    drop(cold);
    let (mut prepare_ms, mut attach_ms, mut flow) = (Vec::new(), Vec::new(), None);
    for _ in 0..WARM_SETUPS {
        let s = setup(sc, &store_dir)?;
        out.setup_errors.extend(check_setup(&s, false));
        prepare_ms.push(s.prepare_s * 1e3);
        attach_ms.push(s.jit_s * 1e3);
        flow = Some(s.flow);
    }
    let flow = flow.expect("at least one warm set-up");
    out.engine = flow.hub_engine_name();
    out.metric("store.prepare_hit_ms", median(&prepare_ms), "ms");
    out.metric("jit.store_attach_ms", median(&attach_ms), "ms");

    let (settle_ns, edge_ns) = layers.hub_split()?;
    let (step_ns, analyze_ms) = layers.gate_split(&flow)?;

    // The flow's own op is the reference every traced op must equal.
    let reference = estimate_op(&flow, sc)?;
    out.setup_errors.extend(check_op(
        &sc.golden,
        flow.hub_engine_name(),
        &reference,
        None,
    ));
    let expected = SimStats::of(&reference);
    if sc.workload.census {
        census(sc, &flow, &store_dir, &reference, out)?;
    }

    let mut tracer = Tracer::default();
    let (mut untraced_s, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while traced.len() < MIN_TRACED_OPS || t0.elapsed().as_secs_f64() < seconds {
        out.attempted += 2;
        let errors = match estimate_op(&flow, sc) {
            Ok(o) => {
                untraced_s.push(o.wall_s);
                check_op(&sc.golden, flow.hub_engine_name(), &o, Some(&expected))
            }
            Err(e) => vec![e],
        };
        out.fail_op(errors);
        let errors = match traced_op(&mut tracer, &layers, &flow, sc) {
            Ok(op) => {
                let mut errors = check_op(&sc.golden, op.engine, &op.out, Some(&expected));
                errors.extend(compare(&op.out, &reference));
                traced.push(op.layers);
                errors
            }
            Err(e) => vec![e],
        };
        out.fail_op(errors);
        if traced.is_empty() && out.attempted >= 2 * MIN_TRACED_OPS as u64 {
            break;
        }
    }
    out.samples = traced.len();

    let med = |f: &dyn Fn(&OpLayers) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let stats = reference.run.stats;
    let samples = reference.results.len() as f64;
    out.metric("sim.settle_ns_per_cycle", settle_ns, "ns");
    out.metric("sim.clock_edge_ns_per_cycle", edge_ns, "ns");
    out.metric("dram.tick_ns_per_cycle", med(&|l| l.dram_tick_ns), "ns");
    out.metric("platform.run_ms", med(&|l| l.run_ms), "ms");
    out.metric(
        "platform.run_cycles",
        med(&|l| l.run_cycles as f64),
        "count",
    );
    out.metric("platform.capture_ms", med(&|l| l.capture_ms), "ms");
    out.metric(
        "platform.capture_ms_per_record",
        med(&|l| l.capture_ms / stats.records.max(1) as f64),
        "ms",
    );
    out.metric("platform.records", stats.records as f64, "count");
    out.metric(
        "platform.scan_cycles",
        stats.scan_overhead_cycles as f64,
        "count",
    );
    out.metric("sampling.windows", reference.run.windows as f64, "count");
    out.metric(
        "sampling.useful_capture_ratio",
        samples / stats.records.max(1) as f64,
        "ratio",
    );
    out.metric("core.replay_ms", med(&|l| l.replay_ms), "ms");
    out.metric("core.replay_batches", med(&|l| l.batches as f64), "count");
    out.metric(
        "gatesim.lane_fill",
        med(&|l| samples / (l.batches.max(1) * LANES) as f64),
        "ratio",
    );
    out.metric(
        "core.replay_thread_busy_ratio",
        med(&|l| l.batch_busy_ms / (l.replay_ms * sc.threads as f64)),
        "ratio",
    );
    out.metric("gatesim.step_ns_per_cycle", step_ns, "ns");
    out.metric("power.analyze_ms", analyze_ms, "ms");
    let traced_ms = med(&|l| l.wall_ms);
    let untraced_ms = median(&untraced_s) * 1e3;
    out.metric("core.estimate_ms", traced_ms, "ms");
    out.metric("platform.modeled_s", stats.modeled_seconds, "s");
    out.metric(
        "trace.unattributed_pct",
        med(&|l| (l.wall_ms - l.attributed_ms) / l.wall_ms * 100.0),
        "%",
    );
    out.metric(
        "trace.overhead_pct",
        (traced_ms - untraced_ms) / untraced_ms * 100.0,
        "%",
    );

    let header = json!({
        "workload": sc.workload.name,
        "seed": sc.config.seed,
        "format": "[op, id, parent, name, start_ns, end_ns]",
    });
    if let Err(e) = tracer.write(trace_path, &header) {
        eprintln!(
            "perfbench: cannot write spans to {}: {e}",
            trace_path.display()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::tests::smoke_op;

    #[test]
    fn the_comparison_catches_any_difference_from_the_flow() {
        let (sc, s, reference) = smoke_op("compare");
        let again = estimate_op(&s.flow, &sc).expect("estimate");
        assert!(compare(&again, &reference).is_empty());

        let mut snap = estimate_op(&s.flow, &sc).expect("estimate");
        snap.run.snapshots[0].regs[0].1 ^= 1;
        assert_eq!(compare(&snap, &reference).len(), 1);
        let mut results = estimate_op(&s.flow, &sc).expect("estimate");
        results.results[0].outputs_checked += 1;
        assert_eq!(compare(&results, &reference).len(), 1);
        let mut records = estimate_op(&s.flow, &sc).expect("estimate");
        records.run.records += 1;
        assert_eq!(compare(&records, &reference).len(), 1);
    }
}
