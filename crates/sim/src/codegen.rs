//! Tape-to-Rust lowering for the JIT engine.
//!
//! Emits the whole hub cycle as native code: the optimized op tape as
//! one straight-line settle function of word ops, and the register latch
//! and memory commit as one straight-line clock-edge function. Every
//! constant, shift, mask, slot index and memory offset is baked into the
//! instruction stream and nothing dispatches per op.
//!
//! Dataflow between settle ops runs through SSA locals (so the compiled
//! code keeps it in registers); only the slots read outside `settle` —
//! outputs, register next/enable slots, memory write ports — are stored
//! back to the flat value slab the sequential settle loop in
//! [`crate::tape`] maintains in full. Peeks of any other slot reroute to
//! the tree-walking recompute, exactly like slots the optimizer removed.
//! The edge function then reads those stored slots: for each register
//! plan `if v[en] != 0 { regs[i] = v[next] & mask }` in place, and for
//! each write port in plan order `if v[en] != 0 && addr < DEPTH {
//! mem[BASE + addr] = data }`, so a later port still wins an address
//! clash. All memories live in one flat slab, so both entry points take
//! a single memory pointer with each memory's base and depth baked in.
//!
//! `strober-jit` compiles the emitted source with `rustc --crate-type
//! cdylib` and `dlopen`s the result; the exported `strober_jit_settle`
//! and `strober_jit_edge` symbols have the exact signatures of
//! [`crate::NativeEngine::settle`] and [`crate::NativeEngine::clock_edge`]
//! flattened to C ABI. The crate is `#![no_std]` with a panic handler
//! that aborts: the generated code cannot panic by construction, and
//! without std the artifact is tens of kilobytes instead of megabytes.
//!
//! Bit-identity with the interpreted tape is achieved by construction:
//! every emitted expression is a literal transcription of the matching
//! arm in the settle loop, of the clock-edge epilogue and of
//! `UnOp::eval`/`BinOp::eval` in `strober-rtl`, division-by-zero and
//! out-of-range shift/address semantics included. The golden suites and
//! the fuzz oracle's `tape-jit` lane hold this invariant under test.
//!
//! The emitted source also exports `strober_jit_sig() -> u64`, an FNV-1a
//! hash of the settle and edge bodies. The simulator checks that hash
//! against the source it would generate for its own tape before
//! attaching a native engine, so a stale dylib (different design,
//! different optimizer options, different codegen revision) is rejected
//! instead of silently producing wrong bits.

use crate::tape::{RegPlan, TapeOp, WritePlan};
use std::fmt::Write;
use strober_rtl::{BinOp, UnOp, Width};

/// Generated cycle source plus its identity hash.
#[derive(Debug, Clone)]
pub struct JitSource {
    /// Complete Rust source for a `#![no_std]` `cdylib` crate exporting
    /// `strober_jit_settle`, `strober_jit_edge` and `strober_jit_sig`.
    pub source: String,
    /// FNV-1a hash of the settle and edge bodies, also returned by the
    /// compiled dylib's `strober_jit_sig`.
    pub sig: u64,
}

/// Everything one hub cycle is lowered from.
pub(crate) struct Cycle<'a> {
    /// The optimized op tape.
    pub(crate) tape: &'a [TapeOp],
    /// The value slab length.
    pub(crate) n_values: usize,
    /// Per-slot "read outside settle" flags (outputs, register
    /// next/enable, memory ports): only those are stored to the slab.
    pub(crate) stored: &'a [bool],
    /// One latch plan per register, in register order.
    pub(crate) reg_plans: &'a [RegPlan],
    /// Memory write ports, in commit order.
    pub(crate) write_plans: &'a [WritePlan],
    /// Per memory `(base, depth)` in the flat memory slab.
    pub(crate) mem_layout: &'a [(usize, usize)],
}

/// FNV-1a over the generated body; must match the dylib-side constant.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A slot read from the value slab.
fn v(slot: u32) -> String {
    format!("*v.add({slot})")
}

/// An operand read: the SSA local when a prior op in this settle already
/// defined the slot, the slab otherwise (constants and other values
/// initialized outside the tape). Keeping consumers on locals instead of
/// slab re-loads is what lets LLVM hold the dataflow in registers — with
/// thousands of stores in one straight-line block its store-to-load
/// forwarding gives up long before the end of the function.
fn r(slot: u32, defined: &[bool]) -> String {
    if defined[slot as usize] {
        format!("t{slot}")
    } else {
        v(slot)
    }
}

/// Transcribes `UnOp::eval` with width constants baked in.
fn un_expr(op: UnOp, a: &str, w: Width) -> String {
    let m = w.mask();
    match op {
        UnOp::Not => format!("!({a}) & {m:#x}"),
        UnOp::Neg => format!("({a}).wrapping_neg() & {m:#x}"),
        UnOp::RedAnd => format!("(({a}) == {m:#x}) as u64"),
        UnOp::RedOr => format!("(({a}) != 0) as u64"),
        UnOp::RedXor => format!("(({a}).count_ones() & 1) as u64"),
    }
}

/// Transcribes `BinOp::eval` with width constants baked in. `a` and `b`
/// are expression strings; block-bodied ops bind them once to keep
/// side-effect-free double evaluation out of the emitted code.
fn bin_expr(op: BinOp, a: &str, b: &str, w: Width) -> String {
    let m = w.mask();
    let bits = w.bits();
    // `sign_extend(x, w)`: shift to the top, arithmetic shift back.
    let s64 = 64 - bits;
    let sext = |x: &str| format!("(((({x}) << {s64}) as i64) >> {s64})");
    match op {
        BinOp::Add => format!("({a}).wrapping_add({b}) & {m:#x}"),
        BinOp::Sub => format!("({a}).wrapping_sub({b}) & {m:#x}"),
        BinOp::Mul => format!("({a}).wrapping_mul({b}) & {m:#x}"),
        BinOp::DivU => {
            format!("{{ let d = {b}; if d == 0 {{ {m:#x} }} else {{ (({a}) / d) & {m:#x} }} }}")
        }
        BinOp::RemU => {
            format!("{{ let d = {b}; if d == 0 {{ {a} }} else {{ (({a}) % d) & {m:#x} }} }}")
        }
        BinOp::And => format!("({a}) & ({b})"),
        BinOp::Or => format!("({a}) | ({b})"),
        BinOp::Xor => format!("({a}) ^ ({b})"),
        BinOp::Shl => {
            format!("{{ let s = {b}; if s >= {bits} {{ 0 }} else {{ (({a}) << s) & {m:#x} }} }}")
        }
        BinOp::Shr => {
            format!("{{ let s = {b}; if s >= {bits} {{ 0 }} else {{ ({a}) >> s }} }}")
        }
        BinOp::Sra => format!(
            "{{ let s = ({b}).min({}); (({} >> s) as u64) & {m:#x} }}",
            bits - 1,
            sext(a)
        ),
        BinOp::Eq => format!("(({a}) == ({b})) as u64"),
        BinOp::Neq => format!("(({a}) != ({b})) as u64"),
        BinOp::Ltu => format!("(({a}) < ({b})) as u64"),
        BinOp::Leu => format!("(({a}) <= ({b})) as u64"),
        BinOp::Lts => format!("({} < {}) as u64", sext(a), sext(b)),
        BinOp::Les => format!("({} <= {}) as u64", sext(a), sext(b)),
    }
}

/// A bounds-checked memory read from the flat slab: addresses beyond
/// the depth read as zero, exactly like the interpreted `MemRead` arm.
fn mem_read((base, depth): (usize, usize), addr_expr: &str) -> String {
    format!(
        "{{ let a = ({addr_expr}) as usize; \
         if a < {depth} {{ *mem.add({base} + a) }} else {{ 0 }} }}"
    )
}

/// The crate prelude: no std (the code needs nothing from it, and
/// linking it costs megabytes per artifact), and a panic handler that
/// aborts instead of unwinding or spinning. No emitted path can panic;
/// the handler only exists because `core` requires one.
const PRELUDE: &str = "\
// Generated by strober-sim codegen; do not edit.
#![no_std]
#![allow(unused_variables, unused_parens, unused_comparisons, clippy::all)]

extern \"C\" {
    fn abort() -> !;
}

#[panic_handler]
fn panic(_: &core::panic::PanicInfo) -> ! {
    unsafe { abort() }
}

";

/// Lowers one hub cycle to the source of a `#![no_std]` `cdylib` crate
/// exporting the native settle and clock-edge entry points.
///
/// Every slot index the tape and the latch plans reference is asserted
/// to lie below the slab length, and every memory span to lie inside
/// the memory slab, which is what makes the raw-pointer accesses in the
/// emitted code sound. Only `stored` slots are written back to the
/// value slab; everything else lives in SSA locals the whole settle.
pub(crate) fn emit(cycle: &Cycle<'_>) -> JitSource {
    let Cycle {
        tape,
        n_values,
        stored,
        reg_plans,
        write_plans,
        mem_layout,
    } = *cycle;
    assert_eq!(stored.len(), n_values, "stored mask must cover the slab");
    let in_slab = |slot: u32| {
        assert!(
            (slot as usize) < n_values,
            "slot {slot} out of range for slab of {n_values}"
        );
    };
    let mut reads = Vec::new();
    for op in tape {
        reads.clear();
        crate::partition::operands(op, &mut reads);
        reads.push(crate::partition::dst(op));
        reads.iter().copied().for_each(in_slab);
    }
    for plan in reg_plans {
        in_slab(plan.next);
        plan.enable.into_iter().for_each(in_slab);
    }
    for plan in write_plans {
        [plan.addr, plan.data, plan.enable]
            .into_iter()
            .for_each(in_slab);
    }
    let mut mem_words = 0;
    for &(base, depth) in mem_layout {
        assert_eq!(base, mem_words, "memories must be packed back to back");
        mem_words += depth;
    }
    // Every op binds an SSA local (`t<slot>`, shadowed on slot reuse);
    // only externally observed slots are also stored to the slab. The
    // local keeps consumers in registers, the store keeps the slab
    // correct where the clock edge and peeks read it. `defined` tracks
    // which slots already have a local this settle.
    let mut defined = vec![false; n_values];
    let mut body = String::new();
    for op in tape {
        let d = &defined;
        let (dst, expr) = match *op {
            TapeOp::Input { dst, port } => (dst, format!("*inp.add({port})")),
            TapeOp::Unary { dst, op, a, w } => (dst, un_expr(op, &r(a, d), w)),
            TapeOp::Binary { dst, op, a, b, w } => {
                (dst, bin_expr(op, &r(a, d), &r(b, d), w))
            }
            TapeOp::Mux { dst, sel, t, f } => (
                dst,
                format!(
                    "if {} != 0 {{ {} }} else {{ {} }}",
                    r(sel, d),
                    r(t, d),
                    r(f, d)
                ),
            ),
            TapeOp::Slice {
                dst,
                a,
                shift,
                mask,
            } => (dst, format!("({} >> {shift}) & {mask:#x}", r(a, d))),
            TapeOp::Cat { dst, hi, lo, shift } => (
                dst,
                format!("({} << {shift}) | {}", r(hi, d), r(lo, d)),
            ),
            TapeOp::RegOut { dst, reg } => (dst, format!("*regs.add({reg})")),
            TapeOp::MemRead { dst, mem, addr } => {
                (dst, mem_read(mem_layout[mem as usize], &r(addr, d)))
            }
            TapeOp::Wire { dst, src } => (dst, r(src, d)),
            TapeOp::SliceBin {
                dst,
                op,
                src,
                shift,
                mask,
                other,
                w,
                slice_lhs,
            } => {
                let sv = format!("({} >> {shift}) & {mask:#x}", r(src, d));
                let ov = r(other, d);
                let (a, b) = if slice_lhs { (sv, ov) } else { (ov, sv) };
                (dst, bin_expr(op, &a, &b, w))
            }
            TapeOp::BinMux {
                dst,
                op,
                a,
                b,
                w,
                t,
                f,
            } => (
                dst,
                format!(
                    "if {} != 0 {{ {} }} else {{ {} }}",
                    bin_expr(op, &r(a, d), &r(b, d), w),
                    r(t, d),
                    r(f, d)
                ),
            ),
            TapeOp::MuxMux {
                dst,
                sel,
                other,
                inner_sel,
                inner_t,
                inner_f,
                inner_in_true,
            } => (
                dst,
                format!(
                    "if ({} != 0) == {inner_in_true} {{ if {} != 0 {{ {} }} else {{ {} }} }} else {{ {} }}",
                    r(sel, d),
                    r(inner_sel, d),
                    r(inner_t, d),
                    r(inner_f, d),
                    r(other, d)
                ),
            ),
            TapeOp::BitAnd { dst, a, b } => (dst, format!("{} & {}", r(a, d), r(b, d))),
            TapeOp::BitOr { dst, a, b } => (dst, format!("{} | {}", r(a, d), r(b, d))),
            TapeOp::BitXor { dst, a, b } => (dst, format!("{} ^ {}", r(a, d), r(b, d))),
            TapeOp::CmpEq { dst, a, b } => {
                (dst, format!("({} == {}) as u64", r(a, d), r(b, d)))
            }
            TapeOp::NotMask { dst, a, mask } => {
                (dst, format!("!{} & {mask:#x}", r(a, d)))
            }
        };
        if stored[dst as usize] {
            let _ = writeln!(body, "    let t{dst} = {expr}; {} = t{dst};", v(dst));
        } else {
            let _ = writeln!(body, "    let t{dst} = {expr};");
        }
        defined[dst as usize] = true;
    }

    let edge = emit_edge(reg_plans, write_plans, mem_layout);

    // The hash covers both bodies plus the slab shapes, so two cycles
    // that happen to emit the same code over differently sized slabs
    // (never expected, but cheap to defend against) still get distinct
    // ids.
    let mut hashed = body.clone();
    hashed.push_str(&edge);
    let _ = write!(
        hashed,
        "n_values={n_values};n_regs={};mem_words={mem_words}",
        reg_plans.len()
    );
    let sig = fnv1a(hashed.as_bytes());

    let mut source = String::with_capacity(body.len() + edge.len() + 2048);
    source.push_str(PRELUDE);
    source.push_str(
        "/// # Safety\n\
         /// `v` must point at the value slab this tape was compiled for\n\
         /// (length checked via `strober_jit_sig` at attach time); `inp`,\n\
         /// `regs` and `mem` must match the design's port count, register\n\
         /// count and memory slab.\n\
         #[no_mangle]\n\
         pub unsafe extern \"C\" fn strober_jit_settle(\n\
         \x20   v: *mut u64,\n\
         \x20   inp: *const u64,\n\
         \x20   regs: *const u64,\n\
         \x20   mem: *const u64,\n\
         ) {\n",
    );
    source.push_str(&body);
    source.push_str(
        "}\n\n\
         /// # Safety\n\
         /// As for `strober_jit_settle`, with `v` settled.\n\
         #[no_mangle]\n\
         pub unsafe extern \"C\" fn strober_jit_edge(v: *const u64, regs: *mut u64, mem: *mut u64) {\n",
    );
    source.push_str(&edge);
    source.push_str("}\n\n#[no_mangle]\npub extern \"C\" fn strober_jit_sig() -> u64 {\n");
    let _ = writeln!(source, "    {sig:#x}");
    source.push_str("}\n");

    JitSource { source, sig }
}

/// The clock-edge body, unrolled in plan order: enabled registers latch
/// their masked next-value in place (a plan without an enable always
/// latches), then enabled in-range write ports commit, later ports
/// overwriting earlier ones.
fn emit_edge(
    reg_plans: &[RegPlan],
    write_plans: &[WritePlan],
    mem_layout: &[(usize, usize)],
) -> String {
    let mut edge = String::new();
    for (i, plan) in reg_plans.iter().enumerate() {
        let latch = format!("*regs.add({i}) = {} & {:#x};", v(plan.next), plan.mask);
        match plan.enable {
            Some(en) => {
                let _ = writeln!(edge, "    if {} != 0 {{ {latch} }}", v(en));
            }
            None => {
                let _ = writeln!(edge, "    {latch}");
            }
        }
    }
    for plan in write_plans {
        let (base, depth) = mem_layout[plan.mem as usize];
        let _ = writeln!(
            edge,
            "    if {} != 0 {{ let a = {} as usize; if a < {depth} {{ *mem.add({base} + a) = {}; }} }}",
            v(plan.enable),
            v(plan.addr),
            v(plan.data)
        );
    }
    edge
}

#[cfg(test)]
mod tests {
    use super::*;
    use strober_rtl::Width;

    fn w(bits: u32) -> Width {
        Width::new(bits).unwrap()
    }

    #[test]
    fn bin_expr_matches_eval_on_edge_cases() {
        // Evaluate the emitted expression semantics by hand for the arms
        // with data-dependent control flow.
        let w8 = w(8);
        // DivU by zero yields the all-ones mask.
        assert_eq!(BinOp::DivU.eval(7, 0, w8), 0xff);
        // Shl past the width yields zero.
        assert_eq!(BinOp::Shl.eval(1, 8, w8), 0);
        // Sra clamps the shift and sign-extends.
        assert_eq!(BinOp::Sra.eval(0x80, 63, w8), 0xff);
        // The emitted strings bake those constants in.
        assert!(bin_expr(BinOp::DivU, "x", "y", w8).contains("0xff"));
        assert!(bin_expr(BinOp::Shl, "x", "y", w8).contains("s >= 8"));
        assert!(bin_expr(BinOp::Sra, "x", "y", w8).contains(".min(7)"));
    }

    /// A settle-only cycle: no registers, no memories.
    fn settle_only(tape: &[TapeOp], n_values: usize, stored: &[bool]) -> JitSource {
        emit(&Cycle {
            tape,
            n_values,
            stored,
            reg_plans: &[],
            write_plans: &[],
            mem_layout: &[],
        })
    }

    #[test]
    fn emitted_source_exports_entry_points_and_stable_sig() {
        let tape = vec![
            TapeOp::Input { dst: 1, port: 0 },
            TapeOp::Binary {
                op: BinOp::Add,
                dst: 2,
                a: 1,
                b: 0,
                w: w(8),
            },
        ];
        let all = [true; 3];
        let one = settle_only(&tape, 3, &all);
        let two = settle_only(&tape, 3, &all);
        assert_eq!(one.sig, two.sig, "emission must be deterministic");
        assert!(one.source.contains("strober_jit_settle"));
        assert!(one.source.contains("strober_jit_edge"));
        assert!(one.source.contains("strober_jit_sig"));
        assert!(one.source.contains(&format!("{:#x}", one.sig)));
        // Different slab length => different identity.
        assert_ne!(settle_only(&tape, 4, &[true; 4]).sig, one.sig);
        // A different stored-slot set changes the emitted body, hence
        // the identity: consumers must never attach across the two.
        assert_ne!(settle_only(&tape, 3, &[true, true, false]).sig, one.sig);
    }

    #[test]
    fn edge_latches_in_place_and_commits_in_plan_order() {
        let regs = [
            RegPlan {
                next: 1,
                enable: Some(2),
                mask: 0xf,
            },
            RegPlan {
                next: 3,
                enable: None,
                mask: 0xff,
            },
        ];
        let ports = [
            WritePlan {
                mem: 1,
                addr: 1,
                data: 3,
                enable: 2,
            },
            WritePlan {
                mem: 1,
                addr: 1,
                data: 0,
                enable: 2,
            },
        ];
        let layout = [(0, 4), (4, 5)];
        let cycle = Cycle {
            tape: &[],
            n_values: 4,
            stored: &[true; 4],
            reg_plans: &regs,
            write_plans: &ports,
            mem_layout: &layout,
        };
        let src = emit(&cycle).source;
        assert!(src.contains("if *v.add(2) != 0 { *regs.add(0) = *v.add(1) & 0xf; }"));
        assert!(src.contains("    *regs.add(1) = *v.add(3) & 0xff;"));
        // Memory 1's base and (non-power-of-two) depth are baked in.
        let first = src
            .find("if a < 5 { *mem.add(4 + a) = *v.add(3); }")
            .expect("first port");
        let second = src
            .find("if a < 5 { *mem.add(4 + a) = *v.add(0); }")
            .expect("second port");
        assert!(first < second, "ports must commit in plan order");
        // The edge body is part of the identity.
        let narrower = [
            regs[0],
            RegPlan {
                mask: 0x7f,
                ..regs[1]
            },
        ];
        let other = emit(&Cycle {
            reg_plans: &narrower,
            ..cycle
        });
        assert_ne!(other.sig, emit(&cycle).sig);
    }
    #[test]
    fn unstored_slots_keep_locals_only() {
        let tape = vec![
            TapeOp::Input { dst: 1, port: 0 },
            TapeOp::Binary {
                op: BinOp::Add,
                dst: 2,
                a: 1,
                b: 1,
                w: w(8),
            },
        ];
        let src = settle_only(&tape, 3, &[false, false, true]).source;
        // Slot 1 is internal: a local binding but no slab store.
        assert!(src.contains("let t1 ="));
        assert!(!src.contains("*v.add(1) = t1"));
        // Slot 2 is observed: local plus store.
        assert!(src.contains("*v.add(2) = t2"));
        // The consumer of slot 1 reads the local, not the slab.
        assert!(src.contains("(t1).wrapping_add(t1)"));
    }
}
