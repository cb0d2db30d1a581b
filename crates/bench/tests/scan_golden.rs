//! Golden equivalence of the direct snapshot read on production hubs.
//!
//! `ZynqHost::capture_snapshot` reads register, memory and trace-ring
//! state straight from the hub simulator and charges the modelled scan
//! readout; the cycle-accurate scan protocol
//! (`ZynqHost::capture_snapshot_by_scan`) is its checked reference. On the
//! bundled cores, under both the interpreted and the JIT hub engine, a
//! sampled run must come out bit-identical either way — snapshots, window
//! and record counts, platform statistics — and every direct capture must
//! advance the hub simulator by exactly the `warmup + L` target cycles it
//! fires, with no stalled hub steps left.
//!
//! The JIT arm skips (with a printed reason) when no `rustc` is on `PATH`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use strober::{HubEngine, SampledRun, StopReason, StroberConfig, StroberFlow};
use strober_bench::{Workload, MEM_BYTES};
use strober_cores::{build_core, CoreConfig};
use strober_dram::{DramConfig, DramModel};
use strober_fame::FameSnapshot;
use strober_jit::rustc_version;
use strober_platform::{HostModel, PlatformConfig, ZynqHost};
use strober_sampling::Reservoir;

/// Target-cycle budget of each sampled run.
const MAX_CYCLES: u64 = 6_000;

fn config(hub_engine: HubEngine) -> StroberConfig {
    StroberConfig {
        sample_size: 4,
        replay_length: 32,
        warmup: 3,
        seed: 7,
        platform: PlatformConfig {
            hub_engine,
            ..PlatformConfig::default()
        },
        ..StroberConfig::default()
    }
}

fn dram() -> DramModel {
    let mut dram = DramModel::new(DramConfig::default(), MEM_BYTES);
    dram.load(&Workload::Vvadd.image(), 0);
    dram
}

/// `StroberFlow::run_sampled`'s reservoir loop on a fresh host, capturing
/// through the scan-protocol reference or the direct read.
fn sampled_run(flow: &StroberFlow, by_scan: bool) -> SampledRun {
    let mut dram = dram();
    let mut host = ZynqHost::new(flow.fame(), flow.config().platform.clone()).expect("host");
    let window = host.trace_window();
    let mut rng = StdRng::seed_from_u64(flow.config().seed);
    let mut reservoir: Reservoir<FameSnapshot> = Reservoir::new(flow.config().sample_size);
    let mut windows = 0;
    while host.target_cycles() < MAX_CYCLES && !dram.is_done() {
        match reservoir.decide(&mut rng) {
            Some(slot) => {
                let before = host.sim().cycle();
                let snap = if by_scan {
                    host.capture_snapshot_by_scan(&mut dram)
                } else {
                    host.capture_snapshot(&mut dram)
                }
                .expect("capture");
                if !by_scan {
                    assert_eq!(
                        host.sim().cycle() - before,
                        window,
                        "a direct capture must step the hub only for warmup + L"
                    );
                }
                reservoir.place(slot, snap).expect("place");
            }
            None => {
                host.run(&mut dram, window).expect("run");
            }
        }
        windows += 1;
    }
    let records = reservoir.records();
    SampledRun {
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
    }
}

fn assert_same_run(label: &str, got: &SampledRun, reference: &SampledRun) {
    assert_eq!(
        got.snapshots, reference.snapshots,
        "{label}: snapshots differ"
    );
    assert_eq!(got.target_cycles, reference.target_cycles, "{label}");
    assert_eq!(got.windows, reference.windows, "{label}");
    assert_eq!(got.records, reference.records, "{label}");
    assert_eq!(got.stats, reference.stats, "{label}: platform stats differ");
    assert_eq!(got.stop, reference.stop, "{label}");
}

fn assert_direct_read_is_golden(core: &CoreConfig, name: &str) {
    let design = build_core(core);
    for engine in [HubEngine::Interp, HubEngine::Jit] {
        if engine == HubEngine::Jit && rustc_version().is_none() {
            println!("{name}: skipping the jit arm: no rustc on PATH");
            continue;
        }
        let label = format!("{name} on {engine}");
        let flow = StroberFlow::new(&design, config(engine)).expect("prepare");
        let reference = sampled_run(&flow, true);
        assert!(
            reference.records > reference.snapshots.len() as u64,
            "{label}: the run must evict from the reservoir to be a real check"
        );
        // Every record charges the same modelled readout cost.
        let meta = &flow.fame().meta;
        let per_record =
            meta.snapshot_capture_cycles() + u64::from(meta.warmup + meta.replay_length);
        assert_eq!(
            reference.stats.scan_overhead_cycles,
            reference.records * per_record,
            "{label}: the scan protocol took a different number of cycles than modelled"
        );
        assert_same_run(
            &format!("{label}, direct read"),
            &sampled_run(&flow, false),
            &reference,
        );
        assert_same_run(
            &format!("{label}, run_sampled"),
            &flow.run_sampled(&mut dram(), MAX_CYCLES).expect("run"),
            &reference,
        );
        println!(
            "{label}: {} records, {} scan cycles charged, bit-identical",
            reference.records, reference.stats.scan_overhead_cycles
        );
    }
}

#[test]
fn direct_read_is_golden_on_rok_tiny() {
    assert_direct_read_is_golden(&CoreConfig::rok_tiny(), "rok-tiny");
}

#[test]
fn direct_read_is_golden_on_rok() {
    assert_direct_read_is_golden(&CoreConfig::rok(), "rok");
}

#[test]
fn direct_read_is_golden_on_boum_2w() {
    assert_direct_read_is_golden(&CoreConfig::boum_2w(), "boum-2w");
}
