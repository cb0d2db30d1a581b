//! Golden equivalence tests for the JIT-compiled native cycle engine.
//!
//! The compiled dylib must be invisible: a simulator dispatching its
//! combinational settle and its clock edge to native code must be
//! cycle-for-cycle, bit-for-bit identical to the naive tree-walking
//! reference — per-cycle outputs and final architectural state. The
//! sweep covers random designs on both the optimized and the
//! identity-lowered tape (the two sources the codegen can be asked to
//! lower), plus the degenerate shapes: an empty tape, a detach mid-run,
//! and a clone mid-run sharing the loaded engine.
//!
//! The random designs carry at most one single-port memory, so the
//! native clock edge gets hand-built cases of its own: two write ports
//! clashing on one address, addresses at and beyond a non-power-of-two
//! depth, registers with and without an enable, more than sixteen
//! memories in the flat slab, and state surgery (`set_mem_value`,
//! `restore`, `reset_state`, `clone`, `detach_jit`) after native edges
//! have run.
//!
//! Every case skips (with a printed reason) when no `rustc` is on
//! `PATH` — the same condition under which the production fallback
//! ladder reverts to the interpreter.

use strober_dsl::Ctx;
use strober_jit::{rustc_version, JitCompiler};
use strober_rtl::{BinOp, Design, MemId, Width};
use strober_sim::rand_design::{rand_design, RandDesignConfig};
use strober_sim::{NaiveInterpreter, Simulator, TapeOptions};

const SEEDS: u64 = 10;
const CYCLES: u64 = 32;

/// Deterministic per-(port, cycle) stimulus (splitmix64 finalizer).
fn stim(seed: u64, port: usize, cycle: u64) -> u64 {
    let mut z = seed
        .wrapping_add((port as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(cycle.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One shared content-addressed cache for the whole test binary, so the
/// per-design compile happens once even when several cases reuse a seed.
fn compiler() -> JitCompiler {
    JitCompiler::new(
        std::env::temp_dir()
            .join("strober-jit-equivalence")
            .join(std::process::id().to_string()),
    )
}

/// Runs `design` for [`CYCLES`] with the native engine attached (on both
/// the optimized and the identity-lowered tape) and asserts every output
/// every cycle, and the final state, matches the naive reference.
fn assert_equivalent(design: &Design, seed: u64) {
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let outputs: Vec<String> = design.outputs().iter().map(|(n, _)| n.clone()).collect();

    let mut naive = NaiveInterpreter::new(design).expect("valid design");
    let mut trace: Vec<Vec<u64>> = Vec::new();
    for cycle in 0..CYCLES {
        for (i, (name, mask)) in ports.iter().enumerate() {
            naive
                .poke_by_name(name, stim(seed, i, cycle) & mask)
                .expect("port");
        }
        trace.push(
            outputs
                .iter()
                .map(|o| naive.peek_output(o).expect("output"))
                .collect(),
        );
        naive.step();
    }
    let golden_state = naive.state();

    let compiler = compiler();
    for (label, options) in [
        ("opt", TapeOptions::all()),
        ("identity", TapeOptions::none()),
    ] {
        let mut sim = Simulator::with_options(design, &options).expect("valid design");
        compiler.attach(&mut sim).expect("jit attach");
        assert_eq!(sim.active_engine_name(), "tape-jit");
        for cycle in 0..CYCLES {
            for (i, (name, mask)) in ports.iter().enumerate() {
                sim.poke_by_name(name, stim(seed, i, cycle) & mask)
                    .expect("port");
            }
            for (oi, o) in outputs.iter().enumerate() {
                let got = sim.peek_output(o).expect("output");
                let expected = trace[cycle as usize][oi];
                assert_eq!(
                    got, expected,
                    "seed {seed}, tape `{label}`, jit engine: \
                     output `{o}` diverged at cycle {cycle}"
                );
            }
            sim.step();
        }
        assert_eq!(
            sim.state(),
            golden_state,
            "seed {seed}, tape `{label}`, jit engine: \
             final architectural state diverged"
        );
    }
}

/// True (with a printed reason) when the JIT cases cannot run here.
fn skip() -> bool {
    if rustc_version().is_none() {
        println!("skipping: no rustc on PATH (the production fallback case)");
        return true;
    }
    false
}

#[test]
fn jit_engine_is_transparent_on_random_designs() {
    if skip() {
        return;
    }
    let cfg = RandDesignConfig::default();
    for seed in 0..SEEDS {
        assert_equivalent(&rand_design(seed, &cfg), seed);
    }
}

#[test]
fn jit_engine_is_transparent_without_memories() {
    if skip() {
        return;
    }
    let cfg = RandDesignConfig {
        with_memory: false,
        regs: 3,
        ops: 40,
        ..RandDesignConfig::default()
    };
    for seed in 0..SEEDS {
        assert_equivalent(&rand_design(2000 + seed, &cfg), 2000 + seed);
    }
}

fn w(bits: u32) -> Width {
    Width::new(bits).expect("static width")
}

#[test]
fn empty_tape_compiles_and_runs() {
    if skip() {
        return;
    }
    // A fully constant design folds to zero tape ops; the generated
    // settle function is an empty body, which must still compile, attach
    // and leave the folded peeks intact.
    let mut d = Design::new("const");
    let a = d.constant(5, w(8));
    let b = d.constant(3, w(8));
    let sum = d.binary(BinOp::Add, a, b).expect("widths");
    d.output("out", sum).expect("fresh");
    let mut sim = Simulator::new(&d).expect("valid");
    compiler().attach(&mut sim).expect("jit attach");
    assert_eq!(sim.pass_stats().ops_final, 0);
    sim.step_n(3);
    assert_eq!(sim.peek_output("out").expect("out"), 8);
}

#[test]
fn jit_simulators_clone_mid_run() {
    if skip() {
        return;
    }
    // Snapshot replay clones simulators mid-flight; the clone must share
    // the loaded engine (no recompile) and stay bit-identical.
    let design = rand_design(11, &RandDesignConfig::default());
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let mut sim = Simulator::new(&design).expect("valid");
    compiler().attach(&mut sim).expect("jit attach");
    for cycle in 0..10 {
        for (i, (name, mask)) in ports.iter().enumerate() {
            sim.poke_by_name(name, stim(3, i, cycle) & mask)
                .expect("port");
        }
        sim.step();
    }
    let mut fork = sim.clone();
    assert_eq!(fork.active_engine_name(), "tape-jit");
    for cycle in 10..20 {
        for (i, (name, mask)) in ports.iter().enumerate() {
            sim.poke_by_name(name, stim(3, i, cycle) & mask)
                .expect("port");
            fork.poke_by_name(name, stim(3, i, cycle) & mask)
                .expect("port");
        }
        sim.step();
        fork.step();
    }
    assert_eq!(sim.state(), fork.state());
}

#[test]
fn detach_returns_to_the_interpreter_bit_identically() {
    if skip() {
        return;
    }
    // Attach for the first half of a run, detach for the second; the
    // trajectory must match a simulator that interpreted throughout.
    let design = rand_design(7, &RandDesignConfig::default());
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let mut interp = Simulator::new(&design).expect("valid");
    let mut mixed = Simulator::new(&design).expect("valid");
    compiler().attach(&mut mixed).expect("jit attach");
    for cycle in 0..CYCLES {
        if cycle == CYCLES / 2 {
            mixed.detach_jit();
            assert_eq!(mixed.active_engine_name(), "tape");
        }
        for (i, (name, mask)) in ports.iter().enumerate() {
            interp
                .poke_by_name(name, stim(5, i, cycle) & mask)
                .expect("port");
            mixed
                .poke_by_name(name, stim(5, i, cycle) & mask)
                .expect("port");
        }
        interp.step();
        mixed.step();
    }
    assert_eq!(interp.state(), mixed.state());
}

/// Two write ports on one memory share an address signal, so whenever
/// both fire they clash: the port declared later must win, on the
/// native edge exactly as in the interpreted epilogue.
fn clashing_ports() -> Design {
    let ctx = Ctx::new("clash");
    let m = ctx.mem("m", w(16), 8);
    let addr = ctx.input("addr", w(3));
    let raddr = ctx.input("raddr", w(3));
    let e0 = ctx.input("e0", Width::BIT);
    let e1 = ctx.input("e1", Width::BIT);
    m.write(&addr, &ctx.input("d0", w(16)), &e0);
    m.write(&addr, &ctx.input("d1", w(16)), &e1);
    ctx.output("q", &m.read(&raddr));
    ctx.output("q_addr", &m.read(&addr));
    ctx.finish().expect("valid design")
}

#[test]
fn later_write_port_wins_an_address_clash() {
    if skip() {
        return;
    }
    let design = clashing_ports();
    assert_equivalent(&design, 41);
    let mut sim = Simulator::new(&design).expect("valid");
    compiler().attach(&mut sim).expect("jit attach");
    for (port, value) in [
        ("addr", 3),
        ("e0", 1),
        ("e1", 1),
        ("d0", 0x1111),
        ("d1", 0x2222),
    ] {
        sim.poke_by_name(port, value).expect("port");
    }
    sim.step();
    assert_eq!(sim.mem_value(MemId::from_index(0), 3), 0x2222);
    assert_eq!(sim.peek_output("q_addr").expect("output"), 0x2222);
}

/// Memories whose depth is not a power of two: the address ports reach
/// past the last word, where writes must drop and reads return zero.
fn ragged_depths() -> Design {
    let ctx = Ctx::new("ragged");
    let small = ctx.mem_init("small", w(8), 5, vec![1, 2, 3, 4, 5]);
    let large = ctx.mem("large", w(32), 12);
    let a3 = ctx.input("a3", w(3));
    let a4 = ctx.input("a4", w(4));
    let we = ctx.input("we", Width::BIT);
    small.write(&a3, &ctx.input("d8", w(8)), &we);
    large.write(&a4, &ctx.input("d32", w(32)), &we);
    ctx.output("q_small", &small.read(&ctx.input("r3", w(3))));
    ctx.output("q_large", &large.read(&ctx.input("r4", w(4))));
    ctx.finish().expect("valid design")
}

#[test]
fn out_of_range_writes_drop_and_reads_are_zero() {
    if skip() {
        return;
    }
    let design = ragged_depths();
    assert_equivalent(&design, 43);
    let mut sim = Simulator::new(&design).expect("valid");
    compiler().attach(&mut sim).expect("jit attach");
    let before = sim.state();
    for (port, value) in [("a3", 5), ("a4", 12), ("we", 1), ("d8", 0xff), ("d32", 7)] {
        sim.poke_by_name(port, value).expect("port");
    }
    sim.step();
    let after = sim.state();
    assert_eq!(after.mems, before.mems, "writes at the depth must drop");
    sim.poke_by_name("r3", 7).expect("port");
    sim.poke_by_name("r4", 15).expect("port");
    assert_eq!(sim.peek_output("q_small").expect("output"), 0);
    assert_eq!(sim.peek_output("q_large").expect("output"), 0);
}

/// Registers with and without an enable at 1, 4, 12 and 64 bits. A
/// validated design always hands a register a next-value of its own
/// width, so the widest the latch can see is a wider computation
/// truncated to the register: the product, the shifted concatenation.
fn latch_mix() -> Design {
    let ctx = Ctx::new("latches");
    let a = ctx.input("a", w(16));
    let b = ctx.input("b", w(16));
    let en = ctx.input("en", Width::BIT);
    let r4 = ctx.reg("r4", w(4), 9);
    r4.set_en(&a.mul(&b).trunc(w(4)), &en);
    let r1 = ctx.reg("r1", Width::BIT, 1);
    r1.set(&(&a ^ &b).red_xor());
    let r12 = ctx.reg("r12", w(12), 0xabc);
    r12.set(&a.cat(&b).shr_lit(7).trunc(w(12)));
    let r64 = ctx.reg("r64", w(64), u64::MAX);
    r64.set_en(&(&r64.out() + &a.cat(&b).zext(w(64)).shl_lit(31)), &!&en);
    for (name, reg) in [("o4", &r4), ("o1", &r1), ("o12", &r12), ("o64", &r64)] {
        ctx.output(name, &reg.out());
    }
    ctx.finish().expect("valid design")
}

#[test]
fn registers_latch_with_and_without_enables() {
    if skip() {
        return;
    }
    let design = latch_mix();
    for seed in 0..4 {
        assert_equivalent(&design, 50 + seed);
    }
}

/// More memories than the old sixteen-entry span table held, at mixed
/// depths, each with its own write enable bit, plus a counter register.
fn many_memories(n: usize) -> Design {
    let ctx = Ctx::new("many");
    let addr = ctx.input("addr", w(4));
    let raddr = ctx.input("raddr", w(4));
    let data = ctx.input("data", w(8));
    let sel = ctx.input("sel", w(8));
    let count = ctx.reg("count", w(8), 0);
    count.set(&count.out().add_lit(1));
    ctx.output("cycles", &count.out());
    for i in 0..n {
        let m = ctx.mem(&format!("m{i}"), w(8), 3 + i % 6);
        let aw = m.addr_width();
        m.write(
            &addr.trunc(aw),
            &(&data ^ &count.out()),
            &sel.bit((i % 8) as u32),
        );
        ctx.output(&format!("q{i}"), &m.read(&raddr.trunc(aw)));
    }
    ctx.finish().expect("valid design")
}

#[test]
fn more_than_sixteen_memories_share_one_slab() {
    if skip() {
        return;
    }
    let design = many_memories(20);
    assert_eq!(design.memories().count(), 20);
    for seed in 0..3 {
        assert_equivalent(&design, 60 + seed);
    }
}

/// Steps `sims` through one cycle of the same stimulus and asserts every
/// output agrees with the first simulator.
fn step_together(sims: &mut [&mut Simulator], ports: &[(String, u64)], seed: u64, cycle: u64) {
    let outputs: Vec<String> = sims[0]
        .design()
        .outputs()
        .iter()
        .map(|(n, _)| n.clone())
        .collect();
    for sim in sims.iter_mut() {
        for (i, (name, mask)) in ports.iter().enumerate() {
            sim.poke_by_name(name, stim(seed, i, cycle) & mask)
                .expect("port");
        }
    }
    for o in &outputs {
        let expected = sims[0].peek_output(o).expect("output");
        for (k, sim) in sims.iter_mut().enumerate().skip(1) {
            assert_eq!(
                sim.peek_output(o).expect("output"),
                expected,
                "simulator {k}: output `{o}` diverged at cycle {cycle}"
            );
        }
    }
    for sim in sims.iter_mut() {
        sim.step();
    }
}

#[test]
fn state_surgery_after_native_edges() {
    if skip() {
        return;
    }
    // The reference interprets throughout; the JIT simulator runs native
    // edges between every piece of surgery, so each one must read and
    // write the same flat memory slab the generated code commits to.
    let design = many_memories(18);
    let ports: Vec<(String, u64)> = design
        .ports()
        .iter()
        .map(|p| (p.name().to_owned(), p.width().mask()))
        .collect();
    let mut reference = Simulator::new(&design).expect("valid");
    let mut jit = Simulator::new(&design).expect("valid");
    compiler().attach(&mut jit).expect("jit attach");
    let mut cycle = 0;
    let mut run = |a: &mut Simulator, b: &mut Simulator, n: u64| {
        for _ in 0..n {
            step_together(&mut [a, b], &ports, 9, cycle);
            cycle += 1;
        }
    };
    run(&mut reference, &mut jit, 8);

    // Word writes land in the memory they name, not a neighbour.
    let last = MemId::from_index(17);
    for sim in [&mut reference, &mut jit] {
        sim.set_mem_value(MemId::from_index(3), 1, 0xab);
        sim.set_mem_value(last, 7, 0x5a);
    }
    assert_eq!(jit.mem_value(last, 7), 0x5a);
    assert_eq!(jit.state(), reference.state());
    run(&mut reference, &mut jit, 6);

    // A clone shares the engine and keeps its own slabs.
    let mut fork = jit.clone();
    let mut fork_ref = reference.clone();
    let snap = reference.state();
    run(&mut reference, &mut jit, 6);
    run(&mut fork_ref, &mut fork, 3);
    assert_eq!(fork.active_engine_name(), "tape-jit");
    assert_eq!(fork.state(), fork_ref.state());

    // Restore rewinds both into the slab the native edge writes.
    jit.restore(&snap).expect("shape");
    reference.restore(&snap).expect("shape");
    assert_eq!(jit.state(), snap);
    run(&mut reference, &mut jit, 5);

    // Reset reloads the declared initial contents.
    jit.reset_state();
    reference.reset_state();
    assert_eq!(jit.state(), reference.state());
    run(&mut reference, &mut jit, 5);

    // Detach hands the slab back to the interpreted epilogue.
    jit.detach_jit();
    assert_eq!(jit.active_engine_name(), "tape");
    run(&mut reference, &mut jit, 5);
    assert_eq!(jit.state(), reference.state());
}
