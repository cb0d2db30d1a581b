//! State snapshot loaders with modelled wall-clock cost.
//!
//! §IV-C2 of the paper: loading RTL state through the simulator's command
//! console ran at ~400 commands/second (40 minutes for 30 snapshots of a
//! 35k-flop design), while a custom loader using the Verilog Programming
//! Language Interface reached ~20 000 commands/second (54 seconds). Both
//! loaders here perform identical loads; they differ in the *modelled*
//! seconds they report, which feed the replay-time term `T_load` of the
//! §IV-E performance model — and they make the 50× contrast measurable in
//! the benchmark suite.

use crate::batch::BatchSim;
use crate::sim::{GateSim, GateSimError};
#[cfg(doc)]
use crate::Tape;

/// Statistics from one state load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Number of loader commands issued (one per flip-flop bit plus one per
    /// memory word).
    pub commands: u64,
    /// Modelled wall-clock seconds for the load at this loader's command
    /// rate.
    pub modeled_seconds: f64,
}

impl LoadStats {
    fn at(commands: u64, commands_per_second: f64) -> Self {
        LoadStats {
            commands,
            modeled_seconds: commands as f64 / commands_per_second,
        }
    }
}

/// A loader that drives the simulator's interactive console: one command
/// per bit, at the paper's measured ~400 commands/second.
#[derive(Debug)]
pub struct ScriptLoader;

/// A loader compiled into the simulator through the VPI: bulk transfers at
/// the paper's measured ~20 000 commands/second.
#[derive(Debug)]
pub struct VpiLoader;

/// The per-command rates reported in §IV-C2.
impl ScriptLoader {
    /// Commands per second through the interactive console.
    pub const COMMANDS_PER_SECOND: f64 = 400.0;

    /// Loads flip-flop and SRAM state, returning the modelled cost; see
    /// [`VpiLoader::load`] for the data layout.
    ///
    /// # Errors
    ///
    /// Propagates [`GateSimError`] for bad indices or oversized images.
    pub fn load(
        sim: &mut GateSim,
        dffs: &[(usize, bool)],
        srams: &[(usize, &[u64])],
    ) -> Result<LoadStats, GateSimError> {
        Ok(LoadStats::at(
            apply(sim, dffs, srams)?,
            Self::COMMANDS_PER_SECOND,
        ))
    }

    /// Loads per-lane flip-flop and SRAM state into a batched simulator;
    /// see [`VpiLoader::load_batch`] for the data layout and cost model.
    ///
    /// # Errors
    ///
    /// Propagates [`GateSimError`] for bad indices, oversized images or
    /// wrong-length lane slices.
    pub fn load_batch(
        sim: &mut BatchSim,
        dffs: &[(usize, u64)],
        srams: &[(usize, Vec<&[u64]>)],
    ) -> Result<LoadStats, GateSimError> {
        Ok(LoadStats::at(
            apply_batch(sim, dffs, srams)?,
            Self::COMMANDS_PER_SECOND,
        ))
    }
}

impl VpiLoader {
    /// Commands per second through the VPI bulk interface.
    pub const COMMANDS_PER_SECOND: f64 = 20_000.0;

    /// Loads flip-flop and SRAM state, returning the modelled cost.
    ///
    /// State arrives resolved to simulator indices ([`Tape::dff_index`],
    /// [`Tape::sram_index`]) so a load does no name lookups: one value
    /// per flip-flop, and one memory image per SRAM macro, written from
    /// address 0. Each flop and each image word is one command.
    ///
    /// # Errors
    ///
    /// Propagates [`GateSimError`] for bad indices or an image longer
    /// than its macro.
    pub fn load(
        sim: &mut GateSim,
        dffs: &[(usize, bool)],
        srams: &[(usize, &[u64])],
    ) -> Result<LoadStats, GateSimError> {
        Ok(LoadStats::at(
            apply(sim, dffs, srams)?,
            Self::COMMANDS_PER_SECOND,
        ))
    }

    /// Loads per-lane flip-flop and SRAM state into a batched simulator.
    ///
    /// `dffs` carries one packed word per flop (bit `l` = lane `l`'s
    /// value); each `srams` entry carries one memory image per lane. The
    /// modelled cost is the sum of the lanes' per-snapshot command counts:
    /// batching saves *evaluation* time, not the per-snapshot VPI
    /// transfer the §IV-E model charges for.
    ///
    /// # Errors
    ///
    /// Propagates [`GateSimError`] for bad indices, oversized images or
    /// wrong-length lane slices.
    pub fn load_batch(
        sim: &mut BatchSim,
        dffs: &[(usize, u64)],
        srams: &[(usize, Vec<&[u64]>)],
    ) -> Result<LoadStats, GateSimError> {
        Ok(LoadStats::at(
            apply_batch(sim, dffs, srams)?,
            Self::COMMANDS_PER_SECOND,
        ))
    }
}

fn apply(
    sim: &mut GateSim,
    dffs: &[(usize, bool)],
    srams: &[(usize, &[u64])],
) -> Result<u64, GateSimError> {
    let _span = strober_probe::span("strober.gatesim.load");
    let words: usize = srams.iter().map(|(_, image)| image.len()).sum();
    let commands = (dffs.len() + words) as u64;
    strober_probe::counter_add("strober.gatesim.load_commands", commands);
    for &(dff, v) in dffs {
        sim.load_dff(dff, v)?;
    }
    for &(sram, image) in srams {
        sim.load_sram(sram, image)?;
    }
    Ok(commands)
}

fn apply_batch(
    sim: &mut BatchSim,
    dffs: &[(usize, u64)],
    srams: &[(usize, Vec<&[u64]>)],
) -> Result<u64, GateSimError> {
    let _span = strober_probe::span("strober.gatesim.load_batch");
    let lanes = sim.lanes();
    if let Some((_, images)) = srams.iter().find(|(_, images)| images.len() != lanes) {
        return Err(GateSimError::BadLaneCount {
            lanes: images.len(),
        });
    }
    let words: usize = srams
        .iter()
        .flat_map(|(_, images)| images.iter().map(|image| image.len()))
        .sum();
    let commands = (dffs.len() * lanes + words) as u64;
    strober_probe::counter_add("strober.gatesim.load_commands", commands);
    for &(dff, packed) in dffs {
        sim.load_dff_lanes(dff, packed)?;
    }
    for (sram, images) in srams {
        for (lane, image) in images.iter().enumerate() {
            sim.load_sram_lane(*sram, lane, image)?;
        }
    }
    Ok(commands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;
    use strober_dsl::Ctx;
    use strober_rtl::Width;
    use strober_synth::{synthesize, SynthOptions};

    fn sim() -> GateSim {
        let ctx = Ctx::new("t");
        let r = ctx.reg("state", Width::new(4).unwrap(), 0);
        r.set(&r.out());
        ctx.output("o", &r.out());
        let design = ctx.finish().unwrap();
        let nl = synthesize(
            &design,
            &SynthOptions {
                optimize: false,
                mangle: false,
                retime_prefixes: Vec::new(),
            },
        )
        .unwrap()
        .netlist;
        GateSim::new(&nl).unwrap()
    }

    /// `state_reg_<i>_` resolved to its flip-flop index, with `value(i)`.
    fn state_values(sim: &GateSim, value: impl Fn(usize) -> bool) -> Vec<(usize, bool)> {
        let tape = Tape::compile(sim.netlist()).unwrap();
        (0..4)
            .map(|i| {
                (
                    tape.dff_index(&format!("state_reg_{i}_")).unwrap(),
                    value(i),
                )
            })
            .collect()
    }

    #[test]
    fn both_loaders_load_the_same_state() {
        let mut s1 = sim();
        let mut s2 = sim();
        let values = state_values(&s1, |i| i % 2 == 0);
        let a = ScriptLoader::load(&mut s1, &values, &[]).unwrap();
        let b = VpiLoader::load(&mut s2, &values, &[]).unwrap();
        assert_eq!(s1.peek_port("o").unwrap(), s2.peek_port("o").unwrap());
        assert_eq!(s1.peek_port("o").unwrap(), 0b0101);
        assert_eq!(a.commands, 4);
        assert_eq!(b.commands, 4);
    }

    #[test]
    fn vpi_is_fifty_times_faster() {
        let mut s1 = sim();
        let mut s2 = sim();
        let values = state_values(&s1, |_| true);
        let script = ScriptLoader::load(&mut s1, &values, &[]).unwrap();
        let vpi = VpiLoader::load(&mut s2, &values, &[]).unwrap();
        let ratio = script.modeled_seconds / vpi.modeled_seconds;
        assert!((ratio - 50.0).abs() < 1e-9);
    }

    #[test]
    fn batch_load_matches_sequential_loads() {
        let mut scalar = sim();
        let values = state_values(&scalar, |i| i % 2 == 0);
        let seq = VpiLoader::load(&mut scalar, &values, &[]).unwrap();

        // Two lanes, both loaded with the same snapshot.
        let words: Vec<(usize, u64)> = values
            .iter()
            .map(|&(dff, v)| (dff, if v { 0b11 } else { 0 }))
            .collect();
        let mut batch = BatchSim::with_lanes(scalar.netlist(), 2).unwrap();
        let stats = VpiLoader::load_batch(&mut batch, &words, &[]).unwrap();
        for lane in 0..2 {
            assert_eq!(
                batch.peek_port_lane("o", lane).unwrap(),
                scalar.peek_port("o").unwrap()
            );
        }
        // Batching does not discount the modelled per-snapshot VPI cost.
        assert_eq!(stats.commands, 2 * seq.commands);
    }

    #[test]
    fn memory_images_load_and_count_one_command_per_word() {
        let ctx = Ctx::new("m");
        let m = ctx.mem("buf", Width::new(8).unwrap(), 4);
        let addr = ctx.input("addr", Width::new(2).unwrap());
        ctx.output("q", &m.read(&addr));
        let plain = SynthOptions {
            optimize: false,
            mangle: false,
            retime_prefixes: Vec::new(),
        };
        let nl = synthesize(&ctx.finish().unwrap(), &plain).unwrap().netlist;
        let ram = Tape::compile(&nl).unwrap().sram_index("buf_macro").unwrap();
        let mut scalar = GateSim::new(&nl).unwrap();
        let stats = VpiLoader::load(&mut scalar, &[], &[(ram, &[1, 2, 3])]).unwrap();
        assert_eq!(stats.commands, 3);
        assert_eq!(scalar.sram_word("buf_macro", 2).unwrap(), 3);
        assert!(VpiLoader::load(&mut scalar, &[], &[(ram, &[0; 5])]).is_err());

        let mut batch = BatchSim::with_lanes(&nl, 2).unwrap();
        let images: Vec<&[u64]> = vec![&[7, 8], &[9]];
        let stats = VpiLoader::load_batch(&mut batch, &[], &[(ram, images)]).unwrap();
        assert_eq!(stats.commands, 3);
        assert_eq!(batch.sram_word_lane("buf_macro", 0, 1).unwrap(), 8);
        assert_eq!(batch.sram_word_lane("buf_macro", 1, 0).unwrap(), 9);
        let one_lane: Vec<&[u64]> = vec![&[7]];
        assert!(matches!(
            VpiLoader::load_batch(&mut batch, &[], &[(ram, one_lane)]),
            Err(GateSimError::BadLaneCount { lanes: 1 })
        ));
    }

    #[test]
    fn paper_example_magnitudes() {
        // 35k flops × 30 snapshots: 40 minutes by script, under a minute
        // per the paper's VPI fix (54 s for 30 loads of the in-order core).
        let commands = 35_000.0 * 30.0;
        let script_minutes = commands / ScriptLoader::COMMANDS_PER_SECOND / 60.0;
        let vpi_seconds = commands / VpiLoader::COMMANDS_PER_SECOND;
        assert!((script_minutes - 43.75).abs() < 0.1); // "takes 40 minutes"
        assert!(vpi_seconds < 60.0); // "reducing runtime to only 54 seconds"
    }
}
