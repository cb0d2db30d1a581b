//! The host-side snapshot capture protocol.

use crate::meta::{FameMeta, TraceMeta};
use crate::transform::trace_mem_name;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use strober_rtl::{MemId, NodeId, RegId, Width};
use strober_sim::{SimError, Simulator};

/// A fully assembled replayable RTL snapshot (§III-B of the paper): all
/// register and memory state at cycle `cycle`, plus the I/O traces of its
/// `warmup + replay_length` window. Serialisable, so snapshots can be
/// stored and replayed later or on another machine — snapshots are the
/// artifact the paper ships from the FPGA host to the gate-level replay
/// farm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FameSnapshot {
    /// The target cycle at which the state was captured.
    pub cycle: u64,
    /// `(rtl register name, value)` in scan-chain order.
    pub regs: Vec<(String, u64)>,
    /// `(rtl memory name, full contents)` per memory.
    pub mems: Vec<(String, Vec<u64>)>,
    /// Per target input port: `(port name, one value per traced cycle)`,
    /// index 0 = cycle `cycle`.
    pub inputs: Vec<(String, Vec<u64>)>,
    /// Per target output port: expected values, same indexing.
    pub outputs: Vec<(String, Vec<u64>)>,
}

impl FameSnapshot {
    /// The number of traced cycles (`replay_length + warmup`).
    pub fn trace_len(&self) -> usize {
        self.inputs
            .first()
            .map(|(_, v)| v.len())
            .or_else(|| self.outputs.first().map(|(_, v)| v.len()))
            .unwrap_or(0)
    }
}

/// A snapshot whose state has been captured but whose I/O trace window has
/// not yet elapsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingSnapshot {
    /// The target cycle at which the state was captured.
    pub cycle: u64,
    /// `(rtl register name, value)` in scan-chain order.
    pub regs: Vec<(String, u64)>,
    /// `(rtl memory name, full contents)` per memory.
    pub mems: Vec<(String, Vec<u64>)>,
}

/// Reads snapshots out of a hub simulator and accounts the host cycles the
/// modelled scan readout costs (the sampling overhead `T_rec` of §IV-E).
///
/// The production path — [`read_state`](Self::read_state) then
/// [`read_traces`](Self::read_traces) — reads registers, memories and
/// trace rings straight from simulator state, as the paper's VPI-style
/// loader does (§IV-C2), while charging exactly the cycles the on-fabric
/// scan chains would take. [`scan_state`](Self::scan_state) and
/// [`scan_traces`](Self::scan_traces) drive that scan protocol cycle by
/// cycle; they are kept as the checked reference the direct read must
/// match bit for bit.
#[derive(Debug, Clone)]
pub struct SnapshotController {
    meta: FameMeta,
    overhead_cycles: u64,
    handles: Option<HubHandles>,
}

/// The hub's state elements behind one [`FameMeta`], resolved by name.
#[derive(Debug, Clone)]
struct HubHandles {
    /// Address of the hub design the handles index into (clones of a
    /// simulator share it), so a controller moved to another hub
    /// re-resolves instead of reading foreign state.
    design: usize,
    cycle: NodeId,
    /// Scan-chain registers with their readout masks, in chain order.
    regs: Vec<(RegId, u64)>,
    mems: Vec<MemId>,
    traces_in: Vec<MemId>,
    traces_out: Vec<MemId>,
}

impl HubHandles {
    fn resolve(meta: &FameMeta, sim: &Simulator) -> Result<Self, SimError> {
        let design = sim.design();
        let unknown = |kind, name: &str| SimError::UnknownName {
            kind,
            name: name.to_owned(),
        };
        let regs_by_name: HashMap<&str, RegId> =
            design.registers().map(|(id, r)| (r.name(), id)).collect();
        let mems_by_name: HashMap<&str, (MemId, usize)> = design
            .memories()
            .map(|(id, m)| (m.name(), (id, m.depth())))
            .collect();
        let mem = |name: &str, depth: usize| match mems_by_name.get(name) {
            None => Err(unknown("memory", name)),
            Some(&(_, d)) if d != depth || d == 0 => Err(SimError::StateShapeMismatch {
                what: "memory depth",
            }),
            Some(&(id, _)) => Ok(id),
        };
        let traces = |side: &str, metas: &[TraceMeta]| {
            (0..metas.len())
                .map(|i| mem(&trace_mem_name(side, i), meta.trace_depth))
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(HubHandles {
            design: std::ptr::from_ref(design) as usize,
            cycle: sim.resolve_output(&meta.control.cycle)?,
            regs: meta
                .scan_chain
                .iter()
                .map(|e| {
                    let id = *regs_by_name
                        .get(e.rtl_name.as_str())
                        .ok_or_else(|| unknown("register", &e.rtl_name))?;
                    let width = Width::new(e.width).map_err(|_| SimError::StateShapeMismatch {
                        what: "scan-chain element width",
                    })?;
                    Ok((id, width.mask()))
                })
                .collect::<Result<_, SimError>>()?,
            mems: meta
                .mem_scans
                .iter()
                .map(|m| mem(&m.rtl_name, m.depth))
                .collect::<Result<_, _>>()?,
            traces_in: traces("in", &meta.traces_in)?,
            traces_out: traces("out", &meta.traces_out)?,
        })
    }
}

impl SnapshotController {
    /// Creates a controller for a hub described by `meta`.
    pub fn new(meta: &FameMeta) -> Self {
        SnapshotController {
            meta: meta.clone(),
            overhead_cycles: 0,
            handles: None,
        }
    }

    /// The metadata this controller drives.
    pub fn meta(&self) -> &FameMeta {
        &self.meta
    }

    /// Total hub cycles charged for snapshot capture so far (scan shifts,
    /// memory streaming, trace readout).
    pub fn overhead_cycles(&self) -> u64 {
        self.overhead_cycles
    }

    /// Drives the global fire signal.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the hub does not expose the control port
    /// (wrong simulator for this metadata).
    pub fn set_fire(&self, sim: &mut Simulator, fire: bool) -> Result<(), SimError> {
        sim.poke_by_name(&self.meta.control.fire, u64::from(fire))
    }

    /// The target's current cycle count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for a mismatched simulator.
    pub fn target_cycle(&self, sim: &mut Simulator) -> Result<u64, SimError> {
        sim.peek_output(&self.meta.control.cycle)
    }

    /// The metadata with its hub handles for `sim`, resolved on first use
    /// and again only when the controller meets a different hub design.
    fn resolved(&mut self, sim: &Simulator) -> Result<(&FameMeta, &HubHandles), SimError> {
        let design = std::ptr::from_ref(sim.design()) as usize;
        if self.handles.as_ref().is_none_or(|h| h.design != design) {
            self.handles = Some(HubHandles::resolve(&self.meta, sim)?);
        }
        Ok((&self.meta, self.handles.as_ref().expect("just resolved")))
    }

    /// Reads register and memory state straight from the hub simulator,
    /// without stepping it: the values the scan chains would shift out,
    /// since a stalled target (and a target between two steps) holds its
    /// state. Call it at the capture point, before the measurement
    /// window; the cycles the scan readout costs are charged by
    /// [`read_traces`](Self::read_traces).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownName`] when the hub lacks a register,
    /// memory or control port the metadata names, and
    /// [`SimError::StateShapeMismatch`] when a memory's depth or a chain
    /// element's width disagrees with it.
    pub fn read_state(&mut self, sim: &mut Simulator) -> Result<PendingSnapshot, SimError> {
        let (meta, h) = self.resolved(sim)?;
        let cycle = sim.peek(h.cycle);
        let regs = meta
            .scan_chain
            .iter()
            .zip(&h.regs)
            .map(|(e, &(id, mask))| (e.rtl_name.clone(), sim.reg_value(id) & mask))
            .collect();
        let mems = meta
            .mem_scans
            .iter()
            .zip(&h.mems)
            .map(|(m, &id)| {
                let words = (0..m.depth).map(|a| sim.mem_value(id, a)).collect();
                (m.rtl_name.clone(), words)
            })
            .collect();
        Ok(PendingSnapshot { cycle, regs, mems })
    }

    /// Reads the I/O trace rings straight from the hub's trace memories
    /// and assembles the snapshot, charging the whole capture's modelled
    /// cost: [`FameMeta::snapshot_capture_cycles`] for the state readout
    /// plus one host cycle per traced word.
    ///
    /// The traced window is the same as
    /// [`scan_traces`](Self::scan_traces)'s: `[cycle − warmup, cycle +
    /// replay_length)`, so exactly `replay_length` target cycles must have
    /// fired since [`read_state`](Self::read_state).
    ///
    /// # Errors
    ///
    /// The same as [`read_state`](Self::read_state), plus a trace ring
    /// missing or sized differently from `trace_depth`.
    pub fn read_traces(
        &mut self,
        sim: &mut Simulator,
        pending: PendingSnapshot,
    ) -> Result<FameSnapshot, SimError> {
        let (meta, h) = self.resolved(sim)?;
        let window = u64::from(meta.replay_length + meta.warmup);
        let charge = meta.snapshot_capture_cycles() + window;
        let depth = meta.trace_depth as u64;
        // Trace entry for target cycle t lives at index t mod depth.
        let trace_start = pending.cycle.saturating_sub(u64::from(meta.warmup));
        let read = |metas: &[TraceMeta], mems: &[MemId]| -> Vec<(String, Vec<u64>)> {
            metas
                .iter()
                .zip(mems)
                .map(|(t, &id)| {
                    let words = (0..window)
                        .map(|k| sim.mem_value(id, ((trace_start + k) % depth) as usize))
                        .collect();
                    (t.port.clone(), words)
                })
                .collect()
        };
        let inputs = read(&meta.traces_in, &h.traces_in);
        let outputs = read(&meta.traces_out, &h.traces_out);
        self.overhead_cycles += charge;
        Ok(FameSnapshot {
            cycle: pending.cycle,
            regs: pending.regs,
            mems: pending.mems,
            inputs,
            outputs,
        })
    }

    /// Reference protocol: captures register and memory state through the
    /// scan chains, stepping the hub once per shifted element and streamed
    /// word. The target must already be stalled (`fire = 0`); it is left
    /// stalled. [`read_state`](Self::read_state) must return the same
    /// values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for a mismatched simulator.
    pub fn scan_state(&mut self, sim: &mut Simulator) -> Result<PendingSnapshot, SimError> {
        // Resolve every control name once — the shift and stream loops
        // below run once per register and per memory word, so per-cycle
        // string hashing would dominate the scan cost on large targets.
        let ctl = &self.meta.control;
        let cycle = sim.peek_output(&ctl.cycle)?;
        let scan_capture = sim.resolve_port(&ctl.scan_capture)?;
        let scan_shift = sim.resolve_port(&ctl.scan_shift)?;
        let scan_out = sim.resolve_output(&ctl.scan_out)?;

        // Capture strobe: shadow chain loads every register in one cycle.
        sim.poke(scan_capture, 1);
        sim.step();
        sim.poke(scan_capture, 0);
        self.overhead_cycles += 1;

        // Shift the chain out one element per cycle.
        sim.poke(scan_shift, 1);
        let mut regs = Vec::with_capacity(self.meta.scan_chain.len());
        for elem in &self.meta.scan_chain {
            let raw = sim.peek(scan_out);
            let mask = Width::new(elem.width)
                .expect("meta widths are valid")
                .mask();
            regs.push((elem.rtl_name.clone(), raw & mask));
            sim.step();
            self.overhead_cycles += 1;
        }
        sim.poke(scan_shift, 0);

        // Stream each memory through its borrowed read port.
        let mut mems = Vec::with_capacity(self.meta.mem_scans.len());
        if !self.meta.mem_scans.is_empty() {
            let mem_scan_rst = sim.resolve_port(&ctl.mem_scan_rst)?;
            let mem_scan_en = sim.resolve_port(&ctl.mem_scan_en)?;
            let out_ports = self
                .meta
                .mem_scans
                .iter()
                .map(|m| sim.resolve_output(&m.out_port))
                .collect::<Result<Vec<_>, _>>()?;

            sim.poke(mem_scan_rst, 1);
            sim.step();
            sim.poke(mem_scan_rst, 0);
            self.overhead_cycles += 1;

            sim.poke(mem_scan_en, 1);
            let max_depth = self
                .meta
                .mem_scans
                .iter()
                .map(|m| m.depth)
                .max()
                .unwrap_or(0);
            let mut contents: Vec<Vec<u64>> = self
                .meta
                .mem_scans
                .iter()
                .map(|m| Vec::with_capacity(m.depth))
                .collect();
            for addr in 0..max_depth {
                for (mi, m) in self.meta.mem_scans.iter().enumerate() {
                    if addr < m.depth {
                        contents[mi].push(sim.peek(out_ports[mi]));
                    }
                }
                sim.step();
                self.overhead_cycles += 1;
            }
            sim.poke(mem_scan_en, 0);
            for (m, c) in self.meta.mem_scans.iter().zip(contents) {
                mems.push((m.rtl_name.clone(), c));
            }
        }

        Ok(PendingSnapshot { cycle, regs, mems })
    }

    /// Reference protocol: reads the I/O trace buffers through the hub's
    /// trace read port, one address poke per traced cycle, and assembles
    /// the snapshot. [`read_traces`](Self::read_traces) must return the
    /// same snapshot and charge the same cycles.
    ///
    /// The traced window is `[cycle − warmup, cycle + replay_length)`: the
    /// `warmup` prefix was recorded *before* the state scan (§IV-C3 — the
    /// prefix lets replay warm retimed datapaths by forcing recorded I/O
    /// before the architectural state is loaded), and exactly
    /// `replay_length` further target cycles must have fired since
    /// [`SnapshotController::scan_state`]. The target must be stalled
    /// again when this is called.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for a mismatched simulator.
    pub fn scan_traces(
        &mut self,
        sim: &mut Simulator,
        pending: PendingSnapshot,
    ) -> Result<FameSnapshot, SimError> {
        let window = (self.meta.replay_length + self.meta.warmup) as usize;
        let depth = self.meta.trace_depth;
        let trace_start = pending.cycle.saturating_sub(u64::from(self.meta.warmup));

        // One name resolution per port, not one per traced cycle.
        let trace_raddr = sim.resolve_port(&self.meta.control.trace_raddr)?;
        let in_nodes = self
            .meta
            .traces_in
            .iter()
            .map(|t| sim.resolve_output(&t.out_port))
            .collect::<Result<Vec<_>, _>>()?;
        let out_nodes = self
            .meta
            .traces_out
            .iter()
            .map(|t| sim.resolve_output(&t.out_port))
            .collect::<Result<Vec<_>, _>>()?;

        // Trace entry for target cycle t lives at index t mod depth.
        let mut inputs: Vec<(String, Vec<u64>)> = self
            .meta
            .traces_in
            .iter()
            .map(|t| (t.port.clone(), Vec::with_capacity(window)))
            .collect();
        let mut outputs: Vec<(String, Vec<u64>)> = self
            .meta
            .traces_out
            .iter()
            .map(|t| (t.port.clone(), Vec::with_capacity(window)))
            .collect();
        for k in 0..window as u64 {
            let idx = (trace_start + k) % depth as u64;
            sim.poke(trace_raddr, idx);
            for (ti, &node) in in_nodes.iter().enumerate() {
                inputs[ti].1.push(sim.peek(node));
            }
            for (ti, &node) in out_nodes.iter().enumerate() {
                outputs[ti].1.push(sim.peek(node));
            }
        }
        // Trace readout happens over the host interface; account one host
        // cycle per word read, as with the scan chains.
        self.overhead_cycles += window as u64;

        Ok(FameSnapshot {
            cycle: pending.cycle,
            regs: pending.regs,
            mems: pending.mems,
            inputs,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{transform, FameConfig};
    use strober_dsl::Ctx;
    use strober_rtl::Width;

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    /// A small accumulator with a memory, for end-to-end snapshot tests.
    fn build() -> strober_rtl::Design {
        let ctx = Ctx::new("acc");
        let x = ctx.input("x", w(8));
        let acc = ctx.reg("acc", w(16), 0);
        let hist = ctx.mem("hist", w(16), 16);
        let wa = ctx.reg("wa", w(4), 0);
        acc.set(&(&acc.out() + &x.zext(w(16))));
        hist.write(&wa.out(), &acc.out(), &ctx.lit1(true));
        wa.set(&wa.out().add_lit(1));
        ctx.output("sum", &acc.out());
        ctx.finish().unwrap()
    }

    /// Runs [`build`] for 20 cycles with `x = t`, captures a snapshot with
    /// an 8-cycle window and returns it with the cycles charged and the
    /// hub simulator's own cycle count — through the direct read, or
    /// through the scan-protocol reference.
    fn capture_at_20(direct: bool) -> (FameSnapshot, u64, u64) {
        let fame = transform(
            &build(),
            &FameConfig {
                replay_length: 8,
                warmup: 0,
            },
        )
        .unwrap();
        let mut sim = Simulator::new(&fame.hub).unwrap();
        let mut ctl = SnapshotController::new(&fame.meta);
        ctl.set_fire(&mut sim, true).unwrap();
        for t in 0..20u64 {
            sim.poke_by_name("x", t % 256).unwrap();
            sim.step();
        }
        assert_eq!(ctl.target_cycle(&mut sim).unwrap(), 20);
        let pending = if direct {
            ctl.read_state(&mut sim).unwrap()
        } else {
            ctl.set_fire(&mut sim, false).unwrap();
            let pending = ctl.scan_state(&mut sim).unwrap();
            ctl.set_fire(&mut sim, true).unwrap();
            pending
        };
        for t in 20..28u64 {
            sim.poke_by_name("x", t % 256).unwrap();
            sim.step();
        }
        let snap = if direct {
            ctl.read_traces(&mut sim, pending).unwrap()
        } else {
            ctl.set_fire(&mut sim, false).unwrap();
            ctl.scan_traces(&mut sim, pending).unwrap()
        };
        (snap, ctl.overhead_cycles(), sim.cycle())
    }

    #[test]
    fn full_snapshot_protocol() {
        let (snap, charged, hub_cycles) = capture_at_20(true);
        assert_eq!(snap.cycle, 20);
        // acc = sum of 0..19 = 190; wa = 20 mod 16 = 4.
        let regs: std::collections::HashMap<_, _> = snap.regs.iter().cloned().collect();
        assert_eq!(regs["acc"], 190);
        assert_eq!(regs["wa"], 4);
        assert_eq!(snap.mems[0].1.len(), 16);
        // hist[3] was written at cycles 3 and 19 (wa wraps mod 16); the
        // last write is acc before cycle 19 = Σ 0..18 = 171. hist[4] was
        // written only at cycle 4: Σ 0..3 = 6.
        assert_eq!(snap.mems[0].1[3], 171);
        assert_eq!(snap.mems[0].1[4], 6);

        assert_eq!(snap.trace_len(), 8);
        // Input trace must be exactly x = 20..28.
        assert_eq!(snap.inputs[0].1, (20..28).collect::<Vec<u64>>());
        // Output trace: sum at cycle t = 190 + sum(20..t).
        let mut expect = Vec::new();
        let mut acc = 190u64;
        for t in 20..28u64 {
            expect.push(acc);
            acc += t;
        }
        assert_eq!(snap.outputs[0].1, expect);

        // Charged: 1 capture + 2 shifts + 1 counter reset + 16 words, plus
        // the 8 traced words. The direct read never steps a stalled hub.
        assert_eq!(charged, 1 + 2 + 1 + 16 + 8);
        assert_eq!(hub_cycles, 28);
    }

    #[test]
    fn direct_read_matches_the_scan_reference() {
        let (snap, charged, hub_cycles) = capture_at_20(true);
        let (reference, ref_charged, ref_hub_cycles) = capture_at_20(false);
        assert_eq!(snap, reference);
        assert_eq!(charged, ref_charged);
        // The reference really steps the hub for every state cycle it
        // charges (trace readout only pokes the read address).
        assert_eq!(ref_hub_cycles - hub_cycles, charged - 8);
    }

    #[test]
    fn snapshot_does_not_perturb_execution() {
        // Running with a snapshot in the middle must give the same target
        // trajectory as running straight through, on either read path.
        let target = build();
        let fame = transform(
            &target,
            &FameConfig {
                replay_length: 4,
                warmup: 0,
            },
        )
        .unwrap();

        let run = |capture: Option<bool>| -> u64 {
            let mut sim = Simulator::new(&fame.hub).unwrap();
            let mut ctl = SnapshotController::new(&fame.meta);
            ctl.set_fire(&mut sim, true).unwrap();
            for t in 0..10u64 {
                sim.poke_by_name("x", t).unwrap();
                sim.step();
            }
            match capture {
                Some(true) => {
                    ctl.read_state(&mut sim).unwrap();
                }
                Some(false) => {
                    ctl.set_fire(&mut sim, false).unwrap();
                    ctl.scan_state(&mut sim).unwrap();
                    ctl.set_fire(&mut sim, true).unwrap();
                }
                None => {}
            }
            for t in 10..30u64 {
                sim.poke_by_name("x", t).unwrap();
                sim.step();
            }
            sim.peek_output("sum").unwrap()
        };

        assert_eq!(run(None), run(Some(true)));
        assert_eq!(run(None), run(Some(false)));
    }

    #[test]
    fn wrapping_trace_window_is_reassembled_correctly() {
        // Capture at a cycle that makes the ring buffer wrap, with a
        // warmup prefix recorded before the capture point.
        let target = build();
        let fame = transform(
            &target,
            &FameConfig {
                replay_length: 6,
                warmup: 2,
            },
        )
        .unwrap();
        let mut sim = Simulator::new(&fame.hub).unwrap();
        let mut ctl = SnapshotController::new(&fame.meta);
        ctl.set_fire(&mut sim, true).unwrap();
        for t in 0..13u64 {
            sim.poke_by_name("x", t).unwrap();
            sim.step();
        }
        let pending = ctl.read_state(&mut sim).unwrap();
        for t in 13..19u64 {
            sim.poke_by_name("x", t).unwrap();
            sim.step();
        }
        let snap = ctl.read_traces(&mut sim, pending).unwrap();
        assert_eq!(snap.inputs[0].1, (11..19).collect::<Vec<u64>>());
    }

    #[test]
    fn mismatched_metadata_is_an_error_not_a_panic() {
        let cfg = FameConfig {
            replay_length: 8,
            warmup: 0,
        };
        let fame = transform(&build(), &cfg).unwrap();
        let mut sim = Simulator::new(&fame.hub).unwrap();
        let pending = SnapshotController::new(&fame.meta)
            .read_state(&mut sim)
            .unwrap();

        // Another design's metadata names registers this hub lacks.
        let ctx = Ctx::new("other");
        let count = ctx.reg("count", w(8), 0);
        count.set(&count.out().add_lit(1));
        ctx.output("value", &count.out());
        let other = transform(&ctx.finish().unwrap(), &cfg).unwrap();
        let mut ctl = SnapshotController::new(&other.meta);
        assert!(matches!(
            ctl.read_state(&mut sim),
            Err(SimError::UnknownName {
                kind: "register",
                ..
            })
        ));

        let mismatch = |edit: fn(&mut FameMeta)| {
            let mut meta = fame.meta.clone();
            edit(&mut meta);
            SnapshotController::new(&meta).read_traces(&mut sim.clone(), pending.clone())
        };
        assert!(matches!(
            mismatch(|m| m.mem_scans[0].depth = 17),
            Err(SimError::StateShapeMismatch { .. })
        ));
        assert!(matches!(
            mismatch(|m| m.trace_depth = 16),
            Err(SimError::StateShapeMismatch { .. })
        ));
        assert!(matches!(
            mismatch(|m| m.traces_in.push(m.traces_out[0].clone())),
            Err(SimError::UnknownName { kind: "memory", .. })
        ));
        assert!(matches!(
            mismatch(|m| m.scan_chain[0].width = 0),
            Err(SimError::StateShapeMismatch { .. })
        ));
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn snapshots_serialize_round_trip() {
        let snap = FameSnapshot {
            cycle: 42,
            regs: vec![("pc".to_owned(), 0x80), ("acc".to_owned(), 7)],
            mems: vec![("ram".to_owned(), vec![1, 2, 3])],
            inputs: vec![("x".to_owned(), vec![9, 8, 7])],
            outputs: vec![("y".to_owned(), vec![1, 1, 2])],
        };
        let json = serde_json::to_string(&snap).expect("serialisable");
        let back: FameSnapshot = serde_json::from_str(&json).expect("parseable");
        assert_eq!(back, snap);
        assert_eq!(back.trace_len(), 3);
    }
}
