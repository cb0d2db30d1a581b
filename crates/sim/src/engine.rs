//! The engine interface shared by every simulator variant.
//!
//! All engines in this crate — the tree-walking [`NaiveInterpreter`],
//! the sequential compiled tape, the partitioned multi-threaded settle
//! and the JIT-compiled native cycle — implement identical semantics:
//! combinational *settle*, then *clock edge* (registers capture, memory
//! writes commit). The [`Engine`] trait makes that implicit contract
//! explicit so callers can select an engine dynamically and benchmark
//! rows can be labeled by variant, and [`NativeEngine`] is the narrow
//! plug-in point through which `strober-jit` swaps the interpreted
//! settle loop and clock-edge epilogue for `dlopen`ed native functions
//! without the `Simulator` facade changing shape.
//!
//! [`NaiveInterpreter`]: crate::NaiveInterpreter

use crate::state::SimState;
use strober_rtl::{NodeId, PortId};

/// The cycle-accurate simulation contract every engine implements.
///
/// The split into [`settle`](Engine::settle) and
/// [`clock_edge`](Engine::clock_edge) mirrors the two phases of a
/// synchronous design's cycle: combinational evaluation with the current
/// inputs and state, then the synchronous state update. `settle` must be
/// idempotent between state changes; `clock_edge` must settle first if
/// needed, so calling it alone is equivalent to a full
/// [`step`](Engine::step).
pub trait Engine {
    /// Sets a top-level input by pre-resolved port id, masking the value
    /// to the port's width.
    fn poke(&mut self, port: PortId, value: u64);

    /// Reads any node's settled value.
    fn peek(&mut self, node: NodeId) -> u64;

    /// Evaluates combinational logic with the current inputs and state.
    /// Idempotent until the next poke or clock edge.
    fn settle(&mut self);

    /// Advances one clock cycle: registers capture their next values,
    /// memory writes commit, the cycle counter increments. Settles first
    /// when needed.
    fn clock_edge(&mut self);

    /// Captures the complete architectural state.
    fn state(&self) -> SimState;

    /// Advances one full cycle (settle + clock edge).
    fn step(&mut self) {
        self.settle();
        self.clock_edge();
    }

    /// A short static label for this engine variant, as used by
    /// `strober bench report` rows (e.g. `"naive"`, `"tape"`,
    /// `"tape-partitioned"`, `"tape-jit"`).
    fn engine_name(&self) -> &'static str;
}

/// A native (JIT-compiled) replacement for the tape's whole cycle:
/// combinational settle and clock edge.
///
/// Implementations evaluate exactly the same op tape the sequential
/// interpreter would walk and latch exactly the same register and
/// write-port plans. `values` is the dense slot slab, `inputs` the
/// per-port input latches, `regs` the register file and `mem` the flat
/// memory slab (every memory back to back, at the base offsets baked
/// into the generated code). The callee must not retain pointers past
/// the call.
///
/// Bit-identity with the interpreted tape is non-negotiable and is
/// enforced at attach time by [`NativeEngine::signature`]: the simulator
/// refuses an engine whose signature does not match the FNV-1a hash of
/// the source it would generate for its own tape (see
/// `Simulator::attach_jit`), which rejects stale dylibs compiled for a
/// different design or optimizer configuration.
pub trait NativeEngine: Send + Sync + std::fmt::Debug {
    /// Evaluates the combinational tape into `values`, storing every slot
    /// read outside settle.
    fn settle(&self, values: &mut [u64], inputs: &[u64], regs: &[u64], mem: &[u64]);

    /// The synchronous half of a cycle over a settled `values` slab:
    /// enabled registers latch their masked next-values in place, then
    /// enabled in-range write ports commit in plan order (a later port
    /// wins on an address clash).
    fn clock_edge(&self, values: &[u64], regs: &mut [u64], mem: &mut [u64]);

    /// The FNV-1a hash of the generated source this engine was compiled
    /// from, used to verify design/tape identity at attach time.
    fn signature(&self) -> u64;
}
