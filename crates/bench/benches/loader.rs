//! The §IV-C2 snapshot-loading contrast: the script-driven console loader
//! vs the VPI-style bulk loader. Both load identical state; this bench
//! measures the real in-process apply cost, and the binary output of the
//! run also reports the *modelled* 400 vs 20 000 commands/second gap.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use strober_cores::{build_core, CoreConfig};
use strober_gatesim::{GateSim, ScriptLoader, VpiLoader};
use strober_synth::{synthesize, SynthOptions};

fn bench_loaders(c: &mut Criterion) {
    let design = build_core(&CoreConfig::rok_tiny());
    let synth = synthesize(&design, &SynthOptions::default()).expect("synth");

    // A full register-state load: every DFF of the core, by index.
    let dff_values: Vec<(usize, bool)> = (0..synth.netlist.dffs().count())
        .map(|i| (i, i % 3 == 0))
        .collect();

    let mut group = c.benchmark_group("state_loading");
    group.throughput(Throughput::Elements(dff_values.len() as u64));

    group.bench_function("vpi_bulk_loader", |b| {
        let mut sim = GateSim::new(&synth.netlist).expect("netlist");
        b.iter(|| {
            let stats = VpiLoader::load(&mut sim, &dff_values, &[]).expect("load");
            black_box(stats.commands);
        });
    });

    group.bench_function("script_loader", |b| {
        let mut sim = GateSim::new(&synth.netlist).expect("netlist");
        b.iter(|| {
            let stats = ScriptLoader::load(&mut sim, &dff_values, &[]).expect("load");
            black_box(stats.commands);
        });
    });

    group.finish();

    // Report the modelled wall-clock contrast once (the paper's numbers).
    let mut sim = GateSim::new(&synth.netlist).expect("netlist");
    let script = ScriptLoader::load(&mut sim, &dff_values, &[]).expect("load");
    let vpi = VpiLoader::load(&mut sim, &dff_values, &[]).expect("load");
    eprintln!(
        "modelled load time for {} commands: script {:.1} s vs VPI {:.3} s ({}x)",
        script.commands,
        script.modeled_seconds,
        vpi.modeled_seconds,
        (script.modeled_seconds / vpi.modeled_seconds) as u64
    );
}

criterion_group!(benches, bench_loaders);
criterion_main!(benches);
