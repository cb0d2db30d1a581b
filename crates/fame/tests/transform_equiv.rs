//! Transform-correctness tests on random designs: the FAME1 hub with
//! `fire` held high must match the bare target cycle-for-cycle, and a
//! captured snapshot must reconstruct the exact architectural state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use strober_fame::{transform, FameConfig, SnapshotController};
use strober_sim::rand_design::{rand_design, RandDesignConfig};
use strober_sim::Simulator;

fn ports_and_outputs(design: &strober_rtl::Design) -> (Vec<(String, u64)>, Vec<String>) {
    let ports = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let outputs = design.outputs().iter().map(|(n, _)| n.clone()).collect();
    (ports, outputs)
}

#[test]
fn hub_matches_target_on_random_designs() {
    let cfg = RandDesignConfig::default();
    for seed in 0..15 {
        let design = rand_design(seed, &cfg);
        let fame = transform(&design, &FameConfig::default()).expect("transform");
        let mut target = Simulator::new(&design).expect("target");
        let mut hub = Simulator::new(&fame.hub).expect("hub");
        hub.poke_by_name("fame/fire", 1).unwrap();

        let (ports, outputs) = ports_and_outputs(&design);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA3E);
        for cycle in 0..60 {
            for (name, mask) in &ports {
                let v = rng.gen::<u64>() & mask;
                target.poke_by_name(name, v).unwrap();
                hub.poke_by_name(name, v).unwrap();
            }
            for out in &outputs {
                assert_eq!(
                    target.peek_output(out).unwrap(),
                    hub.peek_output(out).unwrap(),
                    "seed {seed}: `{out}` diverged at cycle {cycle}"
                );
            }
            target.step();
            hub.step();
        }
    }
}

#[test]
fn stalls_anywhere_never_perturb_the_target() {
    // Randomly interleave fire/stall cycles; the target-visible trajectory
    // must equal an uninterrupted run.
    let cfg = RandDesignConfig::default();
    for seed in 20..28 {
        let design = rand_design(seed, &cfg);
        let fame = transform(&design, &FameConfig::default()).expect("transform");
        let (ports, outputs) = ports_and_outputs(&design);

        let run = |stall_pattern: bool| -> Vec<u64> {
            let mut hub = Simulator::new(&fame.hub).expect("hub");
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stall_rng = StdRng::seed_from_u64(seed ^ 0x57A11);
            let mut trace = Vec::new();
            let mut fired = 0;
            while fired < 40 {
                let fire = !stall_pattern || stall_rng.gen_bool(0.6);
                hub.poke_by_name("fame/fire", u64::from(fire)).unwrap();
                if fire {
                    for (name, mask) in &ports {
                        let v = rng.gen::<u64>() & mask;
                        hub.poke_by_name(name, v).unwrap();
                    }
                    for out in &outputs {
                        trace.push(hub.peek_output(out).unwrap());
                    }
                    fired += 1;
                }
                hub.step();
            }
            trace
        };

        assert_eq!(
            run(false),
            run(true),
            "seed {seed}: stalling changed the target trajectory"
        );
    }
}

#[test]
fn snapshot_state_restores_exactly_into_a_fresh_target() {
    // Capture a snapshot mid-run, pour its registers and memories into a
    // bare target simulator, and require identical behaviour thereafter.
    let cfg = RandDesignConfig::default();
    for seed in 40..48 {
        let design = rand_design(seed, &cfg);
        let fame = transform(
            &design,
            &FameConfig {
                replay_length: 8,
                warmup: 0,
            },
        )
        .expect("transform");
        let mut hub = Simulator::new(&fame.hub).expect("hub");
        let mut ctl = SnapshotController::new(&fame.meta);
        let (ports, outputs) = ports_and_outputs(&design);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        ctl.set_fire(&mut hub, true).unwrap();
        let mut input_log: Vec<Vec<u64>> = Vec::new();
        for _ in 0..37 {
            let vals: Vec<u64> = ports.iter().map(|(_, m)| rng.gen::<u64>() & m).collect();
            for ((name, _), v) in ports.iter().zip(&vals) {
                hub.poke_by_name(name, *v).unwrap();
            }
            input_log.push(vals);
            hub.step();
        }
        ctl.set_fire(&mut hub, false).unwrap();
        let pending = ctl.read_state(&mut hub).unwrap();

        // Rebuild a bare target at the snapshot point.
        let mut target = Simulator::new(&design).expect("target");
        let reg_ids: std::collections::HashMap<String, strober_rtl::RegId> = design
            .registers()
            .map(|(id, r)| (r.name().to_owned(), id))
            .collect();
        for (name, value) in &pending.regs {
            target.set_reg_value(reg_ids[name], *value);
        }
        let mem_ids: std::collections::HashMap<String, strober_rtl::MemId> = design
            .memories()
            .map(|(id, m)| (m.name().to_owned(), id))
            .collect();
        for (name, contents) in &pending.mems {
            for (addr, word) in contents.iter().enumerate() {
                target.set_mem_value(mem_ids[name], addr, *word);
            }
        }

        // Continue both with the same fresh inputs; they must agree.
        ctl.set_fire(&mut hub, true).unwrap();
        for cycle in 0..30 {
            let vals: Vec<u64> = ports.iter().map(|(_, m)| rng.gen::<u64>() & m).collect();
            for ((name, _), v) in ports.iter().zip(&vals) {
                hub.poke_by_name(name, *v).unwrap();
                target.poke_by_name(name, *v).unwrap();
            }
            for out in &outputs {
                assert_eq!(
                    hub.peek_output(out).unwrap(),
                    target.peek_output(out).unwrap(),
                    "seed {seed}: `{out}` diverged {cycle} cycles after restore"
                );
            }
            hub.step();
            target.step();
        }
        let _ = input_log;
    }
}
