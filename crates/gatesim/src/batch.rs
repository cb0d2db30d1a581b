//! Bit-parallel batched gate-level simulation: 64 replays per pass.
//!
//! [`BatchSim`] evaluates the same compiled op tape as [`crate::GateSim`],
//! but over one `u64` *word* per net instead of one `bool`: bit-lane `l`
//! of every word holds the value of that net in replay `l`. A single
//! AND/OR/XOR/NOT pass over the tape therefore advances up to 64
//! independent sample replays at once — the classic bit-parallel
//! ("PLP") gate simulation restructuring, applied to Strober's replay
//! stage where every snapshot runs the *same* netlist for the *same*
//! number of cycles and only the data differs.
//!
//! The per-cycle work around the tape is word-parallel too:
//!
//! * Activity counting — per-net toggle counters are *bit-sliced*: bit
//!   `l` of counter word ("plane") `p` is bit `p` of lane `l`'s toggle
//!   count, so one word operation counts all lanes. A cycle adds the
//!   net's toggle word (`new ^ old`, one bit per toggling lane) into 4
//!   per-cycle planes with a fixed-depth ripple; every 15 cycles those
//!   fold into 16 wide planes, which flush into per-lane `u64` counters
//!   before any count could overflow them. The amortised cost is a few
//!   word operations per net and cycle whatever the lane count, and the
//!   planes are transposed back into per-lane counts when a report is
//!   read.
//! * SRAM ports — each lane addresses its own copy of the macro
//!   contents. A port gathers its address bit-words once and turns them
//!   into per-lane addresses with one 64×64 bit-matrix transpose; a read
//!   port loads each lane's word once and transposes the data back into
//!   bit-words. The read addresses are cached for access counting.
//!
//! The result is bit-identical to running 64 separate [`crate::GateSim`]
//! replays (a property enforced by the `batch_equiv` differential test),
//! at a fraction of the cost.
//!
//! # Examples
//!
//! ```
//! use strober_dsl::Ctx;
//! use strober_rtl::Width;
//! use strober_synth::{synthesize, SynthOptions};
//! use strober_gatesim::BatchSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = Ctx::new("counter");
//! let en = ctx.input("en", Width::BIT);
//! let count = ctx.reg("count", Width::new(8)?, 0);
//! count.set_en(&count.out().add_lit(1), &en);
//! ctx.output("value", &count.out());
//! let synth = synthesize(&ctx.finish()?, &SynthOptions::default())?;
//!
//! // Four lanes: lanes 0 and 2 enabled, lanes 1 and 3 idle.
//! let mut sim = BatchSim::with_lanes(&synth.netlist, 4)?;
//! sim.poke_port_lanes("en", &[1, 0, 1, 0])?;
//! sim.step_n(10);
//! assert_eq!(sim.peek_port_lane("value", 0)?, 10);
//! assert_eq!(sim.peek_port_lane("value", 1)?, 0);
//! assert_eq!(sim.peek_port_lane("value", 2)?, 10);
//! # Ok(())
//! # }
//! ```

use crate::activity::ActivityReport;
use crate::compile::{Step, Tape};
use crate::sim::GateSimError;
use std::collections::HashMap;
use strober_gates::{CellKind, Netlist};

/// The maximum number of bit-lanes a [`BatchSim`] can carry: one sample
/// per bit of a `u64`.
pub const MAX_LANES: usize = 64;

/// Bit-planes per net in the per-cycle toggle counters: each lane counts
/// into a `LOW_PLANES`-bit number spread over this many words.
const LOW_PLANES: usize = 4;

/// Counted cycles the per-cycle planes absorb before they are folded
/// into the wide planes: a lane toggles at most once per cycle, so its
/// count stays below `2^LOW_PLANES` and the fixed-depth add never
/// carries out of the top plane.
const LOW_CAPACITY: u32 = (1 << LOW_PLANES) - 1;

/// Bit-planes per net in the wide toggle counters the per-cycle planes
/// fold into.
const PLANES: usize = 16;

/// Counted cycles the wide planes can absorb before they are flushed
/// into per-lane `u64` counters.
const PLANE_CAPACITY: u32 = (1 << PLANES) - 1;

#[derive(Debug, Clone)]
struct BatchSramState {
    /// Per-lane macro contents, laid out `[lane * depth + addr]`.
    contents: Vec<u64>,
    /// Per-lane address each read port presented at the last settle,
    /// laid out `[port * lanes + lane]`.
    read_addr: Vec<usize>,
    /// Previous charged read address per `(port, lane)`, same layout.
    prev_read_addr: Vec<Option<usize>>,
    /// Read accesses charged, per lane.
    reads: Vec<u64>,
    /// Write accesses committed, per lane.
    writes: Vec<u64>,
}

/// The bit-parallel batched gate-level simulator.
///
/// Carries `lanes` (1..=[`MAX_LANES`]) independent replays of one netlist;
/// every lane sees identical zero-delay levelized semantics to a
/// standalone [`crate::GateSim`]. All lanes share the clock: one
/// [`BatchSim::step`] advances every lane by one cycle.
#[derive(Debug, Clone)]
pub struct BatchSim {
    netlist: Netlist,
    tape: std::sync::Arc<Tape>,
    lanes: usize,
    /// Bits `0..lanes` set; everything lane-visible is masked with this.
    lane_mask: u64,
    /// One word per net; bit `l` = the net's value in lane `l`.
    values: Vec<u64>,
    prev_values: Vec<u64>,
    /// Per-cycle bit-sliced toggle counters, laid out
    /// `[net * LOW_PLANES + p]`: bit `l` of plane `p` is bit `p` of lane
    /// `l`'s count since the last fold.
    low: Vec<u64>,
    /// Cycles counted into `low` since the last fold.
    low_cycles: u32,
    /// Wide bit-sliced toggle counters, laid out `[net * PLANES + p]`,
    /// holding the folds since the last flush.
    planes: Vec<u64>,
    /// Cycles folded into `planes` since they were last flushed.
    plane_cycles: u32,
    /// Per-lane toggle counts flushed out of the planes, laid out
    /// `[net * lanes + lane]`; empty until the first flush.
    spill: Vec<u64>,
    /// Clock-edge scratch for DFF next-state words; reused every cycle.
    dff_scratch: Vec<u64>,
    srams: Vec<BatchSramState>,
    inputs: Vec<(u32, u64)>,
    input_index: HashMap<u32, usize>,
    cycle: u64,
    dirty: bool,
    settled_once: bool,
}

impl BatchSim {
    /// Compiles a netlist for batched simulation with the full 64 lanes.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadNetlist`] if the netlist fails
    /// validation.
    pub fn new(netlist: &Netlist) -> Result<Self, GateSimError> {
        Self::with_lanes(netlist, MAX_LANES)
    }

    /// Compiles a netlist for batched simulation with `lanes` active
    /// bit-lanes.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadLaneCount`] unless `1 <= lanes <= 64`,
    /// or [`GateSimError::BadNetlist`] for an invalid netlist.
    pub fn with_lanes(netlist: &Netlist, lanes: usize) -> Result<Self, GateSimError> {
        let _span = strober_probe::span("strober.gatesim.batch_compile");
        let tape = std::sync::Arc::new(Tape::compile(netlist)?);
        Self::with_tape_lanes(tape, netlist, lanes)
    }

    /// Builds a batched simulator from a tape compiled earlier with
    /// [`Tape::compile`], skipping compilation entirely. The tape **must**
    /// have been compiled from this exact `netlist` (see
    /// [`GateSim::with_tape`](crate::GateSim::with_tape)).
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::BadLaneCount`] unless `1 <= lanes <= 64`.
    pub fn with_tape_lanes(
        tape: std::sync::Arc<Tape>,
        netlist: &Netlist,
        lanes: usize,
    ) -> Result<Self, GateSimError> {
        if lanes == 0 || lanes > MAX_LANES {
            return Err(GateSimError::BadLaneCount { lanes });
        }
        let lane_mask = mask_for(lanes);

        let mut srams = Vec::new();
        for s in netlist.srams() {
            let mut one = s.init.clone();
            one.resize(s.depth, 0);
            let mut contents = Vec::with_capacity(s.depth * lanes);
            for _ in 0..lanes {
                contents.extend_from_slice(&one);
            }
            srams.push(BatchSramState {
                contents,
                read_addr: vec![0; s.read_ports.len() * lanes],
                prev_read_addr: vec![None; s.read_ports.len() * lanes],
                reads: vec![0; lanes],
                writes: vec![0; lanes],
            });
        }

        let mut values = vec![0u64; tape.net_count];
        // Reset values broadcast to every lane.
        for (&(_, q), &init) in tape.dffs.iter().zip(&tape.dff_inits) {
            values[q as usize] = if init { !0 } else { 0 };
        }

        Ok(BatchSim {
            prev_values: values.clone(),
            low: vec![0; tape.net_count * LOW_PLANES],
            low_cycles: 0,
            planes: vec![0; tape.net_count * PLANES],
            plane_cycles: 0,
            spill: Vec::new(),
            dff_scratch: vec![0; tape.dffs.len()],
            values,
            tape,
            lanes,
            lane_mask,
            srams,
            inputs: Vec::new(),
            input_index: HashMap::new(),
            cycle: 0,
            dirty: true,
            settled_once: false,
            netlist: netlist.clone(),
        })
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The number of active bit-lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The current cycle count (shared by every lane).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    fn check_lane(&self, lane: usize) -> Result<(), GateSimError> {
        if lane >= self.lanes {
            return Err(GateSimError::LaneOutOfRange {
                lane,
                lanes: self.lanes,
            });
        }
        Ok(())
    }

    /// Drives a word-level input port with one value per lane
    /// (`values[l]` goes to lane `l`; `values.len()` must equal
    /// [`BatchSim::lanes`]).
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`], [`GateSimError::BadLaneCount`]
    /// for a wrong-length slice, or [`GateSimError::ValueTooWide`] if any
    /// lane's value exceeds the port width.
    pub fn poke_port_lanes(&mut self, name: &str, values: &[u64]) -> Result<(), GateSimError> {
        if values.len() != self.lanes {
            return Err(GateSimError::BadLaneCount {
                lanes: values.len(),
            });
        }
        let bits = self
            .tape
            .port_bits
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "input port",
                name: name.to_owned(),
            })?;
        let width = bits.len() as u32;
        if let Some(&v) = values.iter().find(|&&v| width < 64 && v >> width != 0) {
            return Err(GateSimError::ValueTooWide {
                port: name.to_owned(),
                value: v,
                width,
            });
        }
        // Transpose lane values into one word per port bit.
        let mut m = [0u64; 64];
        m[..values.len()].copy_from_slice(values);
        transpose64(&mut m);
        for (&net, &word) in bits.iter().zip(&m) {
            match self.input_index.get(&net) {
                Some(&slot) => self.inputs[slot].1 = word,
                None => {
                    self.input_index.insert(net, self.inputs.len());
                    self.inputs.push((net, word));
                }
            }
        }
        self.dirty = true;
        Ok(())
    }

    /// Drives a word-level input port with the same value on every lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::ValueTooWide`].
    pub fn poke_port_broadcast(&mut self, name: &str, value: u64) -> Result<(), GateSimError> {
        let bits = self
            .tape
            .port_bits
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "input port",
                name: name.to_owned(),
            })?;
        let width = bits.len() as u32;
        if width < 64 && value >> width != 0 {
            return Err(GateSimError::ValueTooWide {
                port: name.to_owned(),
                value,
                width,
            });
        }
        for (i, &net) in bits.iter().enumerate() {
            let word = if (value >> i) & 1 == 1 { !0u64 } else { 0 };
            match self.input_index.get(&net) {
                Some(&slot) => self.inputs[slot].1 = word,
                None => {
                    self.input_index.insert(net, self.inputs.len());
                    self.inputs.push((net, word));
                }
            }
        }
        self.dirty = true;
        Ok(())
    }

    /// Reads a word-level output port on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::LaneOutOfRange`].
    pub fn peek_port_lane(&mut self, name: &str, lane: usize) -> Result<u64, GateSimError> {
        self.check_lane(lane)?;
        self.settle();
        let bits = self
            .tape
            .output_bits
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "output port",
                name: name.to_owned(),
            })?;
        let mut v = 0u64;
        for (i, &net) in bits.iter().enumerate() {
            v |= ((self.values[net as usize] >> lane) & 1) << i;
        }
        Ok(v)
    }

    /// Reads a word-level output port on every lane into `out`
    /// (`out.len()` must equal [`BatchSim::lanes`]). One name lookup,
    /// one settle and one transpose serve all lanes — this is the
    /// hot-path form the replay loop uses for output-trace checking.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::BadLaneCount`] for a wrong-length slice.
    pub fn peek_port_lanes_into(
        &mut self,
        name: &str,
        out: &mut [u64],
    ) -> Result<(), GateSimError> {
        if out.len() != self.lanes {
            return Err(GateSimError::BadLaneCount { lanes: out.len() });
        }
        self.settle();
        let bits = self
            .tape
            .output_bits
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "output port",
                name: name.to_owned(),
            })?;
        let words = lane_words(&self.values, bits.iter().map(|&n| n as usize));
        out.copy_from_slice(&words[..self.lanes]);
        Ok(())
    }

    /// Reads a word-level output port on every lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`].
    pub fn peek_port_lanes(&mut self, name: &str) -> Result<Vec<u64>, GateSimError> {
        let mut out = vec![0u64; self.lanes];
        self.peek_port_lanes_into(name, &mut out)?;
        Ok(out)
    }

    fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        for &(net, word) in &self.inputs {
            self.values[net as usize] = word;
        }
        let lanes = self.lanes;
        for step in &self.tape.steps {
            match *step {
                Step::Gate(op) => {
                    let a = self.values[op.in0 as usize];
                    let b = self.values[op.in1 as usize];
                    let v = match op.kind {
                        CellKind::Inv => !a,
                        CellKind::Buf => a,
                        CellKind::Nand2 => !(a & b),
                        CellKind::Nor2 => !(a | b),
                        CellKind::And2 => a & b,
                        CellKind::Or2 => a | b,
                        CellKind::Xor2 => a ^ b,
                        CellKind::Xnor2 => !(a ^ b),
                        CellKind::Mux2 => {
                            let s = self.values[op.in2 as usize];
                            (b & s) | (a & !s)
                        }
                        CellKind::Tie0 => 0,
                        CellKind::Tie1 => !0,
                        CellKind::Dff => unreachable!("DFFs are not tape steps"),
                    };
                    self.values[op.out as usize] = v;
                }
                Step::SramRead { sram, port } => {
                    let s = &self.netlist.srams()[sram as usize];
                    let rp = &s.read_ports[port as usize];
                    let depth = s.depth;
                    let st = &mut self.srams[sram as usize];
                    let addrs = lane_words(&self.values, rp.addr.iter().map(|a| a.index()));
                    let cached = &mut st.read_addr[port as usize * lanes..][..lanes];
                    // One load per lane; lanes past `lanes` read zero.
                    let mut words = [0u64; 64];
                    for (lane, (slot, &addr)) in cached.iter_mut().zip(&addrs).enumerate() {
                        let addr = addr as usize;
                        *slot = addr;
                        if addr < depth {
                            words[lane] = st.contents[lane * depth + addr];
                        }
                    }
                    transpose64(&mut words);
                    for (d, &w) in rp.data.iter().zip(&words) {
                        self.values[d.index()] = w;
                    }
                }
            }
        }
        self.dirty = false;
    }

    /// Advances one clock cycle on every lane: settle, count per-lane
    /// toggles, commit lane-wise SRAM accesses, latch flip-flops.
    pub fn step(&mut self) {
        self.settle();

        if self.settled_once {
            self.count_toggles();
        } else {
            self.prev_values.copy_from_slice(&self.values);
        }
        self.settled_once = true;

        // SRAM access counting against the addresses the settle cached,
        // then writes, one pair of transposes per enabled write port.
        let lanes = self.lanes;
        for (s, st) in self.netlist.srams().iter().zip(&mut self.srams) {
            for (slot, (&addr, prev)) in st.read_addr.iter().zip(&mut st.prev_read_addr).enumerate()
            {
                if *prev != Some(addr) {
                    st.reads[slot % lanes] += 1;
                    *prev = Some(addr);
                }
            }
            let depth = s.depth;
            for wp in &s.write_ports {
                let mut enabled = self.values[wp.enable.index()] & self.lane_mask;
                if enabled == 0 {
                    continue;
                }
                let addrs = lane_words(&self.values, wp.addr.iter().map(|a| a.index()));
                let data = lane_words(&self.values, wp.data.iter().map(|d| d.index()));
                while enabled != 0 {
                    let lane = enabled.trailing_zeros() as usize;
                    enabled &= enabled - 1;
                    let addr = addrs[lane] as usize;
                    if addr < depth {
                        st.contents[lane * depth + addr] = data[lane];
                        st.writes[lane] += 1;
                    }
                }
            }
        }

        // Latch flip-flops, capture-then-commit, one word per flop.
        for (slot, &(d, _)) in self.dff_scratch.iter_mut().zip(&self.tape.dffs) {
            *slot = self.values[d as usize];
        }
        for (&v, &(_, q)) in self.dff_scratch.iter().zip(&self.tape.dffs) {
            self.values[q as usize] = v;
        }

        self.cycle += 1;
        self.dirty = true;
    }

    /// Adds every net's toggle word (one bit per toggling lane) into its
    /// per-cycle planes and moves the settled values into `prev_values`.
    /// The add has a fixed depth, so its loop has no data-dependent
    /// exit to mispredict; every `LOW_CAPACITY` cycles the planes fold
    /// into the wide ones.
    fn count_toggles(&mut self) {
        if self.low_cycles == LOW_CAPACITY {
            self.fold_low();
        }
        let mask = self.lane_mask;
        for ((&new, old), low) in self
            .values
            .iter()
            .zip(&mut self.prev_values)
            .zip(self.low.chunks_exact_mut(LOW_PLANES))
        {
            let mut carry = (new ^ *old) & mask;
            *old = new;
            if carry == 0 {
                continue;
            }
            for plane in low {
                let x = *plane;
                *plane = x ^ carry;
                carry &= x;
            }
        }
        self.low_cycles += 1;
    }

    /// Adds every net's per-cycle planes into its wide planes and clears
    /// them: a bit-sliced full add over the low planes, then a carry that
    /// ripples on only while some lane still carries. Flushes the wide
    /// planes first if the fold could overflow them.
    fn fold_low(&mut self) {
        if self.plane_cycles + self.low_cycles > PLANE_CAPACITY {
            self.flush_planes();
        }
        for (low, planes) in self
            .low
            .chunks_exact_mut(LOW_PLANES)
            .zip(self.planes.chunks_exact_mut(PLANES))
        {
            let (sum, rest) = planes.split_at_mut(LOW_PLANES);
            let mut carry = 0u64;
            for (lo, hi) in low.iter_mut().zip(sum) {
                let (a, b) = (*hi, *lo);
                *hi = a ^ b ^ carry;
                carry = (a & b) | (carry & (a ^ b));
                *lo = 0;
            }
            for hi in rest {
                if carry == 0 {
                    break;
                }
                let a = *hi;
                *hi = a ^ carry;
                carry &= a;
            }
        }
        self.plane_cycles += self.low_cycles;
        self.low_cycles = 0;
    }

    /// Adds the wide planes' counts into the per-lane spill (allocated on
    /// the first flush) and clears them.
    fn flush_planes(&mut self) {
        let lanes = self.lanes;
        if self.spill.is_empty() {
            self.spill.resize(self.tape.net_count * lanes, 0);
        }
        for (planes, spill) in self
            .planes
            .chunks_exact_mut(PLANES)
            .zip(self.spill.chunks_exact_mut(lanes))
        {
            if let Some(counts) = lane_counts(planes, &[]) {
                for (s, c) in spill.iter_mut().zip(counts) {
                    *s += c;
                }
                planes.fill(0);
            }
        }
        self.plane_cycles = 0;
    }

    /// Advances `n` cycles on every lane.
    pub fn step_n(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Sets flip-flop `dff` (its index in [`Tape::dff_index`] order) on
    /// every lane at once: bit `l` of `packed` becomes the flop's value
    /// in lane `l`. The bulk snapshot-load primitive.
    pub(crate) fn load_dff_lanes(&mut self, dff: usize, packed: u64) -> Result<(), GateSimError> {
        let &(_, q) = self
            .tape
            .dffs
            .get(dff)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "flip-flop",
                name: format!("#{dff}"),
            })?;
        let keep = !self.lane_mask;
        let set = packed & self.lane_mask;
        self.values[q as usize] = (self.values[q as usize] & keep) | set;
        self.prev_values[q as usize] = (self.prev_values[q as usize] & keep) | set;
        self.dirty = true;
        Ok(())
    }

    /// Copies a memory image into SRAM macro `sram` (its index in
    /// [`Tape::sram_index`] order) on one lane, from address 0.
    pub(crate) fn load_sram_lane(
        &mut self,
        sram: usize,
        lane: usize,
        words: &[u64],
    ) -> Result<(), GateSimError> {
        self.check_lane(lane)?;
        let s = self
            .netlist
            .srams()
            .get(sram)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "SRAM macro",
                name: format!("#{sram}"),
            })?;
        if words.len() > s.depth {
            return Err(GateSimError::AddressOutOfRange {
                sram: s.name.clone(),
                addr: s.depth,
            });
        }
        let start = lane * s.depth;
        self.srams[sram].contents[start..start + words.len()].copy_from_slice(words);
        self.dirty = true;
        Ok(())
    }

    /// Sets a flip-flop's current value on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::LaneOutOfRange`].
    pub fn set_dff_lane(
        &mut self,
        name: &str,
        lane: usize,
        value: bool,
    ) -> Result<(), GateSimError> {
        self.check_lane(lane)?;
        let &idx = self
            .tape
            .dff_by_name
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "flip-flop",
                name: name.to_owned(),
            })?;
        let (_, q) = self.tape.dffs[idx];
        let bit = 1u64 << lane;
        if value {
            self.values[q as usize] |= bit;
            self.prev_values[q as usize] |= bit;
        } else {
            self.values[q as usize] &= !bit;
            self.prev_values[q as usize] &= !bit;
        }
        self.dirty = true;
        Ok(())
    }

    /// Reads a flip-flop's current value on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`] or
    /// [`GateSimError::LaneOutOfRange`].
    pub fn dff_value_lane(&self, name: &str, lane: usize) -> Result<bool, GateSimError> {
        self.check_lane(lane)?;
        let &idx = self
            .tape
            .dff_by_name
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "flip-flop",
                name: name.to_owned(),
            })?;
        let (_, q) = self.tape.dffs[idx];
        Ok((self.values[q as usize] >> lane) & 1 == 1)
    }

    /// Writes one word of an SRAM macro on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`],
    /// [`GateSimError::LaneOutOfRange`] or
    /// [`GateSimError::AddressOutOfRange`].
    pub fn set_sram_word_lane(
        &mut self,
        name: &str,
        lane: usize,
        addr: usize,
        value: u64,
    ) -> Result<(), GateSimError> {
        self.check_lane(lane)?;
        let &idx = self
            .tape
            .sram_by_name
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "SRAM macro",
                name: name.to_owned(),
            })?;
        let depth = self.netlist.srams()[idx].depth;
        if addr >= depth {
            return Err(GateSimError::AddressOutOfRange {
                sram: name.to_owned(),
                addr,
            });
        }
        self.srams[idx].contents[lane * depth + addr] = value;
        self.dirty = true;
        Ok(())
    }

    /// Reads one word of an SRAM macro on one lane.
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::UnknownName`],
    /// [`GateSimError::LaneOutOfRange`] or
    /// [`GateSimError::AddressOutOfRange`].
    pub fn sram_word_lane(
        &self,
        name: &str,
        lane: usize,
        addr: usize,
    ) -> Result<u64, GateSimError> {
        self.check_lane(lane)?;
        let &idx = self
            .tape
            .sram_by_name
            .get(name)
            .ok_or_else(|| GateSimError::UnknownName {
                kind: "SRAM macro",
                name: name.to_owned(),
            })?;
        let depth = self.netlist.srams()[idx].depth;
        if addr >= depth {
            return Err(GateSimError::AddressOutOfRange {
                sram: name.to_owned(),
                addr,
            });
        }
        Ok(self.srams[idx].contents[lane * depth + addr])
    }

    /// Clears every lane's activity counters and starts a fresh
    /// measurement window, with the same window-boundary semantics as
    /// [`crate::GateSim::reset_activity`]: each lane's current read
    /// address becomes that port's baseline.
    pub fn reset_activity(&mut self) {
        self.settle();
        self.low.fill(0);
        self.low_cycles = 0;
        self.planes.fill(0);
        self.plane_cycles = 0;
        self.spill.clear();
        for st in &mut self.srams {
            st.reads.fill(0);
            st.writes.fill(0);
            for (prev, &addr) in st.prev_read_addr.iter_mut().zip(&st.read_addr) {
                *prev = Some(addr);
            }
        }
        self.settled_once = false;
        self.cycle = 0;
    }

    fn report(&self, lane: usize, toggles: Vec<u64>) -> ActivityReport {
        ActivityReport::new(
            self.cycle,
            toggles,
            self.srams
                .iter()
                .map(|s| (s.reads[lane], s.writes[lane]))
                .collect(),
        )
    }

    /// Produces one lane's activity report, shaped exactly like a
    /// standalone [`crate::GateSim::activity`] report for the same
    /// netlist (so [`strober_power`-style](ActivityReport) analyzers
    /// consume it unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`GateSimError::LaneOutOfRange`].
    pub fn activity_lane(&self, lane: usize) -> Result<ActivityReport, GateSimError> {
        self.check_lane(lane)?;
        let toggles = self
            .planes
            .chunks_exact(PLANES)
            .zip(self.low.chunks_exact(LOW_PLANES))
            .enumerate()
            .map(|(net, (planes, low))| {
                let counted = lane_counts(planes, low).map_or(0, |c| c[lane]);
                counted + self.spill.get(net * self.lanes + lane).unwrap_or(&0)
            })
            .collect();
        Ok(self.report(lane, toggles))
    }

    /// Produces every lane's activity report, in lane order, transposing
    /// each net's planes once for all lanes.
    pub fn activities(&self) -> Vec<ActivityReport> {
        let lanes = self.lanes;
        let mut toggles = vec![vec![0u64; self.tape.net_count]; lanes];
        let nets = self
            .planes
            .chunks_exact(PLANES)
            .zip(self.low.chunks_exact(LOW_PLANES));
        for (net, (planes, low)) in nets.enumerate() {
            if let Some(counts) = lane_counts(planes, low) {
                for (t, c) in toggles.iter_mut().zip(counts) {
                    t[net] = c;
                }
            }
            if let Some(spill) = self.spill.get(net * lanes..(net + 1) * lanes) {
                for (t, s) in toggles.iter_mut().zip(spill) {
                    t[net] += s;
                }
            }
        }
        toggles
            .into_iter()
            .enumerate()
            .map(|(lane, t)| self.report(lane, t))
            .collect()
    }
}

/// The word mask with bits `0..lanes` set.
fn mask_for(lanes: usize) -> u64 {
    if lanes >= 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// Gathers up to 64 nets' lane words and transposes them: element `l` of
/// the result is lane `l`'s value of the word whose bit `i` is `nets[i]`.
fn lane_words(values: &[u64], nets: impl Iterator<Item = usize>) -> [u64; 64] {
    let mut m = [0u64; 64];
    for (row, net) in m.iter_mut().zip(nets) {
        *row = values[net];
    }
    transpose64(&mut m);
    m
}

/// One net's wide and per-cycle planes transposed into per-lane counts
/// (element `l` is lane `l`'s count), or `None` when no lane has counted
/// a toggle. One transpose serves both: lane `l`'s row holds the wide
/// count in its low `PLANES` bits and the per-cycle count above them.
fn lane_counts(planes: &[u64], low: &[u64]) -> Option<[u64; 64]> {
    if planes.iter().chain(low).all(|&p| p == 0) {
        return None;
    }
    let mut m = [0u64; 64];
    m[..PLANES].copy_from_slice(planes);
    m[PLANES..PLANES + low.len()].copy_from_slice(low);
    transpose64(&mut m);
    for row in &mut m {
        *row = (*row & u64::from(PLANE_CAPACITY)) + (*row >> PLANES);
    }
    Some(m)
}

/// Transposes a 64×64 bit matrix in place: bit `j` of row `i` swaps with
/// bit `i` of row `j`. Six rounds of block swaps (32×32 blocks down to
/// 1×1), each one masked shift-xor per row pair.
pub(crate) fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k + j] ^= t;
            m[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_dsl::Ctx;
    use strober_rtl::Width;
    use strober_synth::{synthesize, SynthOptions};

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    fn plain() -> SynthOptions {
        SynthOptions {
            optimize: false,
            mangle: false,
            retime_prefixes: Vec::new(),
        }
    }

    fn counter_netlist() -> strober_gates::Netlist {
        let ctx = Ctx::new("counter");
        let en = ctx.input("en", Width::BIT);
        let count = ctx.reg("count", w(8), 0);
        count.set_en(&count.out().add_lit(1), &en);
        ctx.output("value", &count.out());
        synthesize(&ctx.finish().unwrap(), &plain())
            .unwrap()
            .netlist
    }

    #[test]
    fn lanes_advance_independently() {
        let mut sim = BatchSim::with_lanes(&counter_netlist(), 3).unwrap();
        sim.poke_port_lanes("en", &[1, 0, 1]).unwrap();
        sim.step_n(7);
        assert_eq!(sim.peek_port_lanes("value").unwrap(), vec![7, 0, 7]);
        sim.poke_port_lanes("en", &[0, 1, 1]).unwrap();
        sim.step_n(3);
        assert_eq!(sim.peek_port_lanes("value").unwrap(), vec![7, 3, 10]);
    }

    #[test]
    fn per_lane_activity_is_isolated() {
        let mut sim = BatchSim::with_lanes(&counter_netlist(), 2).unwrap();
        sim.poke_port_lanes("en", &[1, 0]).unwrap();
        sim.step_n(16);
        let busy = sim.activity_lane(0).unwrap();
        let idle = sim.activity_lane(1).unwrap();
        assert_eq!(busy.cycles(), 16);
        assert!(busy.total_toggles() > 16);
        assert_eq!(idle.total_toggles(), 0);
    }

    #[test]
    fn dff_load_per_lane() {
        let nl = counter_netlist();
        let tape = Tape::compile(&nl).unwrap();
        let mut sim = BatchSim::with_lanes(&nl, 2).unwrap();
        for i in 0..8 {
            // Lane 0 gets 0x2A, lane 1 gets 0x15.
            let packed = u64::from((0x2Au32 >> i) & 1) | (u64::from((0x15u32 >> i) & 1) << 1);
            let dff = tape.dff_index(&format!("count_reg_{i}_")).unwrap();
            sim.load_dff_lanes(dff, packed).unwrap();
        }
        assert_eq!(sim.peek_port_lane("value", 0).unwrap(), 0x2A);
        assert_eq!(sim.peek_port_lane("value", 1).unwrap(), 0x15);
        assert!(sim.dff_value_lane("count_reg_1_", 0).unwrap());
        assert!(!sim.dff_value_lane("count_reg_1_", 1).unwrap());
        assert!(tape.dff_index("nope").is_none());
        assert!(sim.load_dff_lanes(tape.dffs.len(), 0).is_err());
    }

    #[test]
    fn sram_contents_are_per_lane() {
        let ctx = Ctx::new("ram");
        let m = ctx.mem("buf", w(16), 32);
        let addr = ctx.input("addr", w(5));
        let data = ctx.input("data", w(16));
        let we = ctx.input("we", Width::BIT);
        ctx.output("q", &m.read(&addr));
        m.write(&addr, &data, &we);
        let nl = synthesize(&ctx.finish().unwrap(), &plain())
            .unwrap()
            .netlist;
        let mut sim = BatchSim::with_lanes(&nl, 2).unwrap();
        let ram = Tape::compile(&nl).unwrap().sram_index("buf_macro").unwrap();
        let mut image = [0u64; 8];
        image[7] = 0xBEEF;
        sim.load_sram_lane(ram, 0, &image).unwrap();
        sim.set_sram_word_lane("buf_macro", 1, 7, 0xCAFE).unwrap();
        assert!(matches!(
            sim.load_sram_lane(ram, 1, &[0; 33]),
            Err(GateSimError::AddressOutOfRange { addr: 32, .. })
        ));
        assert_eq!(sim.sram_word_lane("buf_macro", 0, 7).unwrap(), 0xBEEF);
        assert_eq!(sim.sram_word_lane("buf_macro", 1, 7).unwrap(), 0xCAFE);
        sim.poke_port_broadcast("addr", 7).unwrap();
        sim.poke_port_broadcast("we", 0).unwrap();
        sim.poke_port_broadcast("data", 0).unwrap();
        assert_eq!(sim.peek_port_lanes("q").unwrap(), vec![0xBEEF, 0xCAFE]);
        // Lane 1 writes a new value at address 3; lane 0 does not.
        sim.poke_port_lanes("addr", &[7, 3]).unwrap();
        sim.poke_port_lanes("we", &[0, 1]).unwrap();
        sim.poke_port_lanes("data", &[0, 0x1234]).unwrap();
        sim.step();
        assert_eq!(sim.sram_word_lane("buf_macro", 0, 3).unwrap(), 0);
        assert_eq!(sim.sram_word_lane("buf_macro", 1, 3).unwrap(), 0x1234);
        let (r0, w0) = sim.activity_lane(0).unwrap().sram_accesses()[0];
        let (r1, w1) = sim.activity_lane(1).unwrap().sram_accesses()[0];
        assert_eq!(w0, 0);
        assert_eq!(w1, 1);
        assert!(r0 >= 1 && r1 >= 1);
    }

    #[test]
    fn lane_bounds_are_checked() {
        let nl = counter_netlist();
        assert!(matches!(
            BatchSim::with_lanes(&nl, 0),
            Err(GateSimError::BadLaneCount { lanes: 0 })
        ));
        assert!(matches!(
            BatchSim::with_lanes(&nl, 65),
            Err(GateSimError::BadLaneCount { lanes: 65 })
        ));
        let mut sim = BatchSim::with_lanes(&nl, 4).unwrap();
        assert!(matches!(
            sim.peek_port_lane("value", 4),
            Err(GateSimError::LaneOutOfRange { lane: 4, lanes: 4 })
        ));
        assert!(sim.poke_port_lanes("en", &[0, 1]).is_err());
        assert!(matches!(
            sim.poke_port_lanes("en", &[2, 0, 0, 0]),
            Err(GateSimError::ValueTooWide { .. })
        ));
    }

    #[test]
    fn full_64_lane_masking_is_sound() {
        let mut sim = BatchSim::new(&counter_netlist()).unwrap();
        assert_eq!(sim.lanes(), 64);
        let mut enables = [0u64; 64];
        enables[63] = 1;
        sim.poke_port_lanes("en", &enables).unwrap();
        sim.step_n(5);
        assert_eq!(sim.peek_port_lane("value", 63).unwrap(), 5);
        assert_eq!(sim.peek_port_lane("value", 0).unwrap(), 0);
        assert!(sim.activity_lane(63).unwrap().total_toggles() > 0);
        assert_eq!(sim.activity_lane(0).unwrap().total_toggles(), 0);
    }

    #[test]
    fn transpose64_matches_a_naive_transpose() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        for _ in 0..100 {
            let mut m = [0u64; 64];
            for row in &mut m {
                *row = rng.gen();
            }
            let mut naive = [0u64; 64];
            for (i, row) in m.iter().enumerate() {
                for (j, out) in naive.iter_mut().enumerate() {
                    *out |= ((row >> j) & 1) << i;
                }
            }
            let mut fast = m;
            transpose64(&mut fast);
            assert_eq!(fast, naive);
            transpose64(&mut fast);
            assert_eq!(fast, m, "a transpose is its own inverse");
        }
    }

    #[test]
    fn toggle_counts_survive_a_plane_flush() {
        // A free-running counter's bit 0 toggles every cycle: enough
        // cycles to overflow the planes force one flush into the spill.
        let mut sim = BatchSim::with_lanes(&counter_netlist(), 3).unwrap();
        sim.poke_port_lanes("en", &[1, 0, 1]).unwrap();
        let cycles = u64::from(PLANE_CAPACITY + 2 * LOW_CAPACITY);
        sim.step_n(cycles);
        assert!(!sim.spill.is_empty(), "the planes were flushed");
        let all = sim.activities();
        for (lane, report) in all.iter().enumerate() {
            assert_eq!(*report, sim.activity_lane(lane).unwrap());
        }
        assert_eq!(all[1].total_toggles(), 0);
        let bit0 = sim.tape.output_bits["value"][0] as usize;
        assert_eq!(all[0].toggles()[bit0], cycles - 1);
        sim.reset_activity();
        assert!(sim.spill.is_empty());
        assert_eq!(sim.activity_lane(0).unwrap().total_toggles(), 0);
    }
}
