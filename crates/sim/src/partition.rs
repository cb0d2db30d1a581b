//! The partitioned parallel tape engine.
//!
//! The optimized op tape ([`crate::Simulator`]'s evaluation format, built
//! by [`crate::opt`]) is a flat, topologically ordered array of ops with
//! dense value slots — exactly the representation that makes a parallel
//! cut cheap to compute and cheap to execute. This module cuts that tape
//! into `N` balanced partitions and evaluates them on a persistent worker
//! pool, synchronizing with barriers only where a value crosses a
//! partition boundary, so a settle produces values **bit-identical** to
//! the sequential interpretation loop. DESIGN.md §14 documents the
//! algorithm and its invariants; the CLI knob is `--hub-threads N` and
//! the platform knob is `PlatformConfig::hub_threads`.
//!
//! # Planning
//!
//! [`plan`] runs once per engine, in three steps:
//!
//! 1. **Dependency graph.** Every op names its operand *slots*; mapping
//!    each slot back to the op that writes it (constant slots have no
//!    producer) yields the slot-dependency DAG, plus ASAP levels for the
//!    stats.
//! 2. **Balanced partitioning with min-cut refinement.** A greedy
//!    tape-order sweep assigns each op to the partition owning most of
//!    its producers (capped for balance), then a few
//!    Kernighan–Lin-style refinement sweeps move ops to the neighbouring
//!    partition with the highest edge gain, shrinking the cross-partition
//!    cut.
//! 3. **Phase schedule.** Ops in one partition execute sequentially in
//!    tape order, so intra-partition edges cost nothing; only
//!    cross-partition edges force a barrier. An op's *phase* is the
//!    longest chain of cross-partition edges below it, and the number of
//!    barriers per settle equals the number of phases — which the min-cut
//!    refinement directly reduces.
//!
//! # Execution
//!
//! [`Engine`] pins `N - 1` persistent worker threads (the caller's thread
//! is worker 0). Each settle publishes raw pointers to the simulator's
//! `values`/`inputs`/`regs`/`mem` arrays under a mutex, bumps an epoch,
//! and all workers sweep their per-phase chunks with a spin-then-yield
//! barrier between phases. Register capture and memory-write commit stay
//! on the caller's thread after the final barrier — state only changes at
//! the synchronization point, exactly as in the sequential engine.
//!
//! Safety rests on three invariants, each enforced by construction:
//! every tape op writes a distinct `values` slot (disjoint writes); an
//! op's operand slots are written in an earlier phase or earlier in the
//! same worker's chunk (ordered reads); and `inputs`/`regs`/`mem` are
//! frozen for the duration of a settle (shared reads).

use crate::tape::TapeOp;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Slot-producer sentinel: the slot is a constant (or otherwise
/// pre-filled) and no tape op writes it.
const NO_PRODUCER: u32 = u32::MAX;

/// How often (in settles) accumulated worker telemetry is flushed into
/// the probe registry.
const FLUSH_EVERY: u64 = 1024;

/// What the partitioner did to one tape, exposed via
/// [`crate::Simulator::partition_stats`] and mirrored into
/// `strober.sim.partition.*` probe counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Worker count the tape was cut for (including the caller's thread).
    pub workers: usize,
    /// Tape ops scheduled.
    pub ops: usize,
    /// ASAP levels of the slot-dependency graph (longest op chain).
    pub levels: usize,
    /// Barriers per settle after scheduling (longest chain of
    /// cross-partition edges, plus one).
    pub phases: usize,
    /// Cross-partition edges after the greedy initial assignment.
    pub cut_edges_initial: usize,
    /// Cross-partition edges after min-cut refinement.
    pub cut_edges: usize,
    /// Ops in the heaviest partition.
    pub max_partition_ops: usize,
    /// Ops in the lightest partition.
    pub min_partition_ops: usize,
}

/// The compiled schedule: per worker, per phase, the ops to evaluate (in
/// tape order).
pub(crate) struct PartitionPlan {
    /// `chunks[worker][phase]` — owned copies of the tape ops.
    pub(crate) chunks: Vec<Vec<Vec<TapeOp>>>,
    pub(crate) stats: PartitionStats,
}

/// The `values` slots an op reads, appended to `out`.
pub(crate) fn operands(op: &TapeOp, out: &mut Vec<u32>) {
    match *op {
        TapeOp::Input { .. } | TapeOp::RegOut { .. } => {}
        TapeOp::Unary { a, .. }
        | TapeOp::Slice { a, .. }
        | TapeOp::NotMask { a, .. }
        | TapeOp::MemRead { addr: a, .. }
        | TapeOp::Wire { src: a, .. } => out.push(a),
        TapeOp::Binary { a, b, .. }
        | TapeOp::BitAnd { a, b, .. }
        | TapeOp::BitOr { a, b, .. }
        | TapeOp::BitXor { a, b, .. }
        | TapeOp::CmpEq { a, b, .. } => {
            out.push(a);
            out.push(b);
        }
        TapeOp::Mux { sel, t, f, .. } => {
            out.push(sel);
            out.push(t);
            out.push(f);
        }
        TapeOp::Cat { hi, lo, .. } => {
            out.push(hi);
            out.push(lo);
        }
        TapeOp::SliceBin { src, other, .. } => {
            out.push(src);
            out.push(other);
        }
        TapeOp::BinMux { a, b, t, f, .. } => {
            out.push(a);
            out.push(b);
            out.push(t);
            out.push(f);
        }
        TapeOp::MuxMux {
            sel,
            other,
            inner_sel,
            inner_t,
            inner_f,
            ..
        } => {
            out.push(sel);
            out.push(other);
            out.push(inner_sel);
            out.push(inner_t);
            out.push(inner_f);
        }
    }
}

/// The `values` slot an op writes.
pub(crate) fn dst(op: &TapeOp) -> u32 {
    match *op {
        TapeOp::Input { dst, .. }
        | TapeOp::Unary { dst, .. }
        | TapeOp::Binary { dst, .. }
        | TapeOp::Mux { dst, .. }
        | TapeOp::Slice { dst, .. }
        | TapeOp::Cat { dst, .. }
        | TapeOp::RegOut { dst, .. }
        | TapeOp::MemRead { dst, .. }
        | TapeOp::Wire { dst, .. }
        | TapeOp::SliceBin { dst, .. }
        | TapeOp::BinMux { dst, .. }
        | TapeOp::MuxMux { dst, .. }
        | TapeOp::BitAnd { dst, .. }
        | TapeOp::BitOr { dst, .. }
        | TapeOp::BitXor { dst, .. }
        | TapeOp::CmpEq { dst, .. }
        | TapeOp::NotMask { dst, .. } => dst,
    }
}

/// Cuts a tape into a per-worker, per-phase schedule. `n_values` is the
/// size of the simulator's `values` array (slot namespace).
pub(crate) fn plan(tape: &[TapeOp], n_values: usize, workers: usize) -> PartitionPlan {
    let workers = workers.max(1);
    let n = tape.len();

    // -- 1. slot-dependency graph --------------------------------------
    let mut producer = vec![NO_PRODUCER; n_values];
    for (i, op) in tape.iter().enumerate() {
        producer[dst(op) as usize] = i as u32;
    }
    let mut deps: Vec<Vec<u32>> = Vec::with_capacity(n);
    let mut buf = Vec::new();
    for op in tape {
        buf.clear();
        operands(op, &mut buf);
        let mut d: Vec<u32> = buf
            .iter()
            .filter_map(|&s| {
                let p = producer[s as usize];
                (p != NO_PRODUCER).then_some(p)
            })
            .collect();
        d.sort_unstable();
        d.dedup();
        deps.push(d);
    }
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, d) in deps.iter().enumerate() {
        for &p in d {
            consumers[p as usize].push(i as u32);
        }
    }
    let mut level = vec![0u32; n];
    for i in 0..n {
        level[i] = deps[i]
            .iter()
            .map(|&p| level[p as usize] + 1)
            .max()
            .unwrap_or(0);
    }
    let levels = level.iter().max().map_or(0, |&m| m as usize + 1);

    // -- 2. balanced partitioning --------------------------------------
    // Weight cap: perfect balance plus ~12.5% slack, so affinity moves
    // have room without letting one partition swallow the tape.
    let cap = n.div_ceil(workers) + n / (8 * workers) + 1;
    let mut part = vec![0u32; n];
    let mut weight = vec![0usize; workers];
    let mut votes = vec![0usize; workers];
    for i in 0..n {
        votes.iter_mut().for_each(|v| *v = 0);
        for &p in &deps[i] {
            votes[part[p as usize] as usize] += 1;
        }
        let mut best = usize::MAX;
        for w in 0..workers {
            if weight[w] >= cap {
                continue;
            }
            if best == usize::MAX
                || votes[w] > votes[best]
                || (votes[w] == votes[best] && weight[w] < weight[best])
            {
                best = w;
            }
        }
        if best == usize::MAX {
            // cap * workers >= n keeps this unreachable, but stay total.
            best = (0..workers).min_by_key(|&w| weight[w]).unwrap_or(0);
        }
        part[i] = best as u32;
        weight[best] += 1;
    }

    let cut = |part: &[u32]| -> usize {
        deps.iter()
            .enumerate()
            .map(|(i, d)| d.iter().filter(|&&p| part[p as usize] != part[i]).count())
            .sum()
    };
    let cut_edges_initial = cut(&part);

    // Min-cut refinement: move an op to the partition holding most of
    // its neighbours (producers + consumers) when that strictly reduces
    // the cut and keeps the balance cap. Alternating-direction sweeps to
    // a fixpoint (bounded).
    for sweep in 0..4 {
        let mut moved = false;
        let order: Vec<usize> = if sweep % 2 == 0 {
            (0..n).collect()
        } else {
            (0..n).rev().collect()
        };
        for i in order {
            let cur = part[i] as usize;
            votes.iter_mut().for_each(|v| *v = 0);
            for &p in &deps[i] {
                votes[part[p as usize] as usize] += 1;
            }
            for &c in &consumers[i] {
                votes[part[c as usize] as usize] += 1;
            }
            let mut best = cur;
            for w in 0..workers {
                if w == cur || weight[w] >= cap {
                    continue;
                }
                if votes[w] > votes[best] {
                    best = w;
                }
            }
            if best != cur && votes[best] > votes[cur] {
                weight[cur] -= 1;
                weight[best] += 1;
                part[i] = best as u32;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    let cut_edges = cut(&part);

    // -- 3. phase schedule ---------------------------------------------
    // Intra-partition edges are free (sequential tape order inside a
    // chunk); each cross-partition edge adds one barrier of separation.
    let mut phase = vec![0u32; n];
    for i in 0..n {
        phase[i] = deps[i]
            .iter()
            .map(|&p| {
                let p = p as usize;
                phase[p] + u32::from(part[p] != part[i])
            })
            .max()
            .unwrap_or(0);
    }
    let phases = phase.iter().max().map_or(0, |&m| m as usize + 1);

    let mut chunks = vec![vec![Vec::new(); phases]; workers];
    for i in 0..n {
        chunks[part[i] as usize][phase[i] as usize].push(tape[i]);
    }

    let stats = PartitionStats {
        workers,
        ops: n,
        levels,
        phases,
        cut_edges_initial,
        cut_edges,
        max_partition_ops: weight.iter().copied().max().unwrap_or(0),
        min_partition_ops: weight.iter().copied().min().unwrap_or(0),
    };
    PartitionPlan { chunks, stats }
}

/// Raw pointers into the simulator's arrays, valid for exactly one
/// settle. Published under the epoch mutex; copied by each worker while
/// holding that mutex.
#[derive(Clone, Copy)]
struct Ctx {
    values: *mut u64,
    inputs: *const u64,
    regs: *const u64,
    /// The flat memory slab and its per-memory `(base, depth)` layout.
    mem: *const u64,
    mem_layout: *const (usize, usize),
    /// Whether workers should time busy/wait intervals this settle.
    timed: bool,
}

impl Ctx {
    const fn null() -> Ctx {
        Ctx {
            values: std::ptr::null_mut(),
            inputs: std::ptr::null(),
            regs: std::ptr::null(),
            mem: std::ptr::null(),
            mem_layout: std::ptr::null(),
            timed: false,
        }
    }
}

/// Evaluates one tape op against the shared arrays.
///
/// # Safety
///
/// `ctx`'s pointers must be valid for the whole settle; `op` must write a
/// slot no other concurrently-running op writes, and read only slots
/// settled in an earlier phase or earlier in this worker's chunk.
unsafe fn exec(op: &TapeOp, ctx: &Ctx) {
    let v = ctx.values;
    macro_rules! val {
        ($i:expr) => {
            *v.add($i as usize)
        };
    }
    match *op {
        TapeOp::Input { dst, port } => val!(dst) = *ctx.inputs.add(port as usize),
        TapeOp::Unary { dst, op, a, w } => val!(dst) = op.eval(val!(a), w),
        TapeOp::Binary { dst, op, a, b, w } => val!(dst) = op.eval(val!(a), val!(b), w),
        TapeOp::Mux { dst, sel, t, f } => {
            val!(dst) = if val!(sel) != 0 { val!(t) } else { val!(f) }
        }
        TapeOp::Slice {
            dst,
            a,
            shift,
            mask,
        } => val!(dst) = (val!(a) >> shift) & mask,
        TapeOp::Cat { dst, hi, lo, shift } => val!(dst) = (val!(hi) << shift) | val!(lo),
        TapeOp::RegOut { dst, reg } => val!(dst) = *ctx.regs.add(reg as usize),
        TapeOp::MemRead { dst, mem, addr } => {
            let (base, depth) = *ctx.mem_layout.add(mem as usize);
            let a = val!(addr) as usize;
            val!(dst) = if a < depth { *ctx.mem.add(base + a) } else { 0 };
        }
        TapeOp::Wire { dst, src } => val!(dst) = val!(src),
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
            let sv = (val!(src) >> shift) & mask;
            let ov = val!(other);
            let (a, b) = if slice_lhs { (sv, ov) } else { (ov, sv) };
            val!(dst) = op.eval(a, b, w);
        }
        TapeOp::BinMux {
            dst,
            op,
            a,
            b,
            w,
            t,
            f,
        } => {
            val!(dst) = if op.eval(val!(a), val!(b), w) != 0 {
                val!(t)
            } else {
                val!(f)
            }
        }
        TapeOp::MuxMux {
            dst,
            sel,
            other,
            inner_sel,
            inner_t,
            inner_f,
            inner_in_true,
        } => {
            let take_inner = (val!(sel) != 0) == inner_in_true;
            val!(dst) = if take_inner {
                if val!(inner_sel) != 0 {
                    val!(inner_t)
                } else {
                    val!(inner_f)
                }
            } else {
                val!(other)
            };
        }
        TapeOp::BitAnd { dst, a, b } => val!(dst) = val!(a) & val!(b),
        TapeOp::BitOr { dst, a, b } => val!(dst) = val!(a) | val!(b),
        TapeOp::BitXor { dst, a, b } => val!(dst) = val!(a) ^ val!(b),
        TapeOp::CmpEq { dst, a, b } => val!(dst) = u64::from(val!(a) == val!(b)),
        TapeOp::NotMask { dst, a, mask } => val!(dst) = !val!(a) & mask,
    }
}

/// A sense-reversing barrier that spins briefly and then yields, so it
/// stays cheap when workers arrive together and fair when the machine
/// has fewer cores than workers.
struct PhaseBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl PhaseBarrier {
    fn new(total: usize) -> PhaseBarrier {
        PhaseBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins = spins.saturating_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// State shared between the caller's thread and the persistent workers.
struct Shared {
    /// `chunks[worker][phase]` — the schedule.
    chunks: Vec<Vec<Vec<TapeOp>>>,
    phases: usize,
    /// Settles started so far; workers sleep on the condvar until it
    /// moves. `u64::MAX` sentinel is never reached in practice.
    epoch: Mutex<u64>,
    start: Condvar,
    shutdown: AtomicBool,
    barrier: PhaseBarrier,
    /// The per-settle pointer bundle. Written by the caller under the
    /// `epoch` mutex, copied by workers under the same mutex.
    ctx: UnsafeCell<Ctx>,
    /// Per-worker accumulated op-evaluation time, flushed to the probe
    /// registry every [`FLUSH_EVERY`] settles.
    busy_ns: Vec<AtomicU64>,
    /// Per-worker accumulated barrier-wait time.
    wait_ns: Vec<AtomicU64>,
    /// Barrier waits sampled into `wait_ns` (for the histogram mean).
    wait_samples: AtomicU64,
}

// SAFETY: `ctx` is only written by the (single) caller of
// `Engine::settle` while holding the `epoch` mutex, and only read by
// workers holding the same mutex; the raw pointers inside it are used
// under the disjoint-writes/ordered-reads discipline documented on
// `exec`. Everything else is `Sync` by construction.
unsafe impl Sync for Shared {}
unsafe impl Send for Shared {}

impl Shared {
    /// Runs one worker's chunks for every phase of one settle.
    fn run_phases(&self, me: usize, ctx: &Ctx) {
        let chunks = &self.chunks[me];
        for chunk in chunks.iter().take(self.phases) {
            if ctx.timed {
                let t0 = Instant::now();
                for op in chunk {
                    // SAFETY: see `exec` — the plan guarantees disjoint
                    // writes and phase-ordered reads; the caller keeps
                    // the arrays alive and unmoved for the whole settle.
                    unsafe { exec(op, ctx) };
                }
                let busy = t0.elapsed().as_nanos() as u64;
                let t1 = Instant::now();
                self.barrier.wait();
                let wait = t1.elapsed().as_nanos() as u64;
                self.busy_ns[me].fetch_add(busy, Ordering::Relaxed);
                self.wait_ns[me].fetch_add(wait, Ordering::Relaxed);
                self.wait_samples.fetch_add(1, Ordering::Relaxed);
            } else {
                for op in chunk {
                    // SAFETY: as above.
                    unsafe { exec(op, ctx) };
                }
                self.barrier.wait();
            }
        }
    }
}

fn worker_main(shared: Arc<Shared>, me: usize) {
    let mut seen = 0u64;
    loop {
        let ctx = {
            let mut epoch = shared.epoch.lock().expect("engine epoch mutex");
            while *epoch == seen && !shared.shutdown.load(Ordering::Relaxed) {
                epoch = shared.start.wait(epoch).expect("engine epoch mutex");
            }
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            seen = *epoch;
            // SAFETY: read under the epoch mutex, synchronized with the
            // caller's write (see `Shared`).
            unsafe { *shared.ctx.get() }
        };
        shared.run_phases(me, &ctx);
    }
}

/// A persistent worker pool executing one tape's partition schedule.
///
/// Owned by a [`crate::Simulator`] with `threads > 1`; dropped (and the
/// pool joined) when the simulator is dropped, re-cloned, or re-threaded.
pub(crate) struct Engine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    stats: PartitionStats,
    settles: AtomicU64,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("stats", &self.stats)
            .field("settles", &self.settles.load(Ordering::Relaxed))
            .finish()
    }
}

impl Engine {
    /// Plans the tape and spawns the worker pool (`workers - 1` threads;
    /// the caller is worker 0).
    pub(crate) fn new(tape: &[TapeOp], n_values: usize, workers: usize) -> Engine {
        let plan = plan(tape, n_values, workers);
        let stats = plan.stats;
        record_partition_stats(&stats);
        let shared = Arc::new(Shared {
            chunks: plan.chunks,
            phases: stats.phases,
            epoch: Mutex::new(0),
            start: Condvar::new(),
            shutdown: AtomicBool::new(false),
            barrier: PhaseBarrier::new(stats.workers),
            ctx: UnsafeCell::new(Ctx::null()),
            busy_ns: (0..stats.workers).map(|_| AtomicU64::new(0)).collect(),
            wait_ns: (0..stats.workers).map(|_| AtomicU64::new(0)).collect(),
            wait_samples: AtomicU64::new(0),
        });
        let handles = if stats.phases == 0 {
            Vec::new()
        } else {
            (1..stats.workers)
                .map(|w| {
                    let shared = shared.clone();
                    std::thread::Builder::new()
                        .name(format!("strober-sim-{w}"))
                        .spawn(move || worker_main(shared, w))
                        .expect("spawn partition worker")
                })
                .collect()
        };
        Engine {
            shared,
            handles,
            stats,
            settles: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> PartitionStats {
        self.stats
    }

    /// Evaluates the whole tape in parallel. Returns with every `values`
    /// slot settled, exactly as the sequential loop would leave them.
    pub(crate) fn settle(
        &self,
        values: &mut [u64],
        inputs: &[u64],
        regs: &[u64],
        mem: &[u64],
        mem_layout: &[(usize, usize)],
    ) {
        if self.shared.phases == 0 {
            return;
        }
        let timed = strober_probe::enabled();
        let ctx = Ctx {
            values: values.as_mut_ptr(),
            inputs: inputs.as_ptr(),
            regs: regs.as_ptr(),
            mem: mem.as_ptr(),
            mem_layout: mem_layout.as_ptr(),
            timed,
        };
        {
            let mut epoch = self.shared.epoch.lock().expect("engine epoch mutex");
            // SAFETY: written under the epoch mutex before the epoch
            // moves; workers copy it under the same mutex.
            unsafe { *self.shared.ctx.get() = ctx };
            *epoch += 1;
            self.shared.start.notify_all();
        }
        self.shared.run_phases(0, &ctx);
        // The final phase barrier is the synchronization point: every
        // worker has finished every chunk once it is crossed, so all
        // `values` writes are visible here.
        let settles = self.settles.fetch_add(1, Ordering::Relaxed) + 1;
        if timed && settles.is_multiple_of(FLUSH_EVERY) {
            self.flush_telemetry();
        }
    }

    /// Drains the per-worker busy/wait accumulators into the probe
    /// registry (labeled per worker) and records the mean barrier wait.
    fn flush_telemetry(&self) {
        if !strober_probe::enabled() {
            return;
        }
        let mut total_wait = 0u64;
        for w in 0..self.stats.workers {
            let busy = self.shared.busy_ns[w].swap(0, Ordering::Relaxed);
            let wait = self.shared.wait_ns[w].swap(0, Ordering::Relaxed);
            total_wait += wait;
            let labels = strober_probe::Labels::new().worker(&w.to_string());
            if busy > 0 {
                strober_probe::counter_add_labeled(
                    "strober.sim.partition.worker_busy_ns",
                    &labels,
                    busy,
                );
            }
            if wait > 0 {
                strober_probe::counter_add_labeled(
                    "strober.sim.partition.barrier_wait_ns",
                    &labels,
                    wait,
                );
            }
        }
        let samples = self.shared.wait_samples.swap(0, Ordering::Relaxed);
        if samples > 0 {
            strober_probe::histogram_record(
                "strober.sim.partition.barrier_wait_ns",
                total_wait as f64 / samples as f64,
            );
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        {
            let _epoch = self.shared.epoch.lock().expect("engine epoch mutex");
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        self.flush_telemetry();
    }
}

/// Mirrors one engine's [`PartitionStats`] into the probe registry, the
/// same way tape pass stats land in `strober.sim.tape.*`.
fn record_partition_stats(stats: &PartitionStats) {
    if !strober_probe::enabled() {
        return;
    }
    strober_probe::histogram_with_bounds(
        "strober.sim.partition.barrier_wait_ns",
        &[100.0, 500.0, 1_000.0, 5_000.0, 25_000.0, 100_000.0],
    );
    strober_probe::counter_add("strober.sim.partition.engines", 1);
    strober_probe::counter_add("strober.sim.partition.workers", stats.workers as u64);
    strober_probe::counter_add("strober.sim.partition.ops", stats.ops as u64);
    strober_probe::counter_add("strober.sim.partition.levels", stats.levels as u64);
    strober_probe::counter_add("strober.sim.partition.phases", stats.phases as u64);
    strober_probe::counter_add("strober.sim.partition.cut_edges", stats.cut_edges as u64);
    strober_probe::counter_add(
        "strober.sim.partition.cut_edges_initial",
        stats.cut_edges_initial as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain `s0 -> s1 -> ... -> s(n-1)` of unary-free ops expressed as
    /// `Wire`s: maximally serial, so phases collapse to intra-partition
    /// sequencing when the partitioner keeps the chain together.
    fn chain(n: u32) -> Vec<TapeOp> {
        (1..=n)
            .map(|i| TapeOp::Wire { dst: i, src: i - 1 })
            .collect()
    }

    /// `n` independent ops reading slot 0: a single level.
    fn flat(n: u32) -> Vec<TapeOp> {
        (1..=n)
            .map(|i| TapeOp::NotMask {
                dst: i,
                a: 0,
                mask: u64::MAX,
            })
            .collect()
    }

    fn chunk_ops(plan: &PartitionPlan) -> usize {
        plan.chunks
            .iter()
            .flat_map(|w| w.iter())
            .map(|c| c.len())
            .sum()
    }

    #[test]
    fn empty_tape_plans_to_zero_phases() {
        let p = plan(&[], 4, 4);
        assert_eq!(p.stats.ops, 0);
        assert_eq!(p.stats.phases, 0);
        assert_eq!(p.stats.levels, 0);
        assert_eq!(p.stats.cut_edges, 0);
        assert_eq!(chunk_ops(&p), 0);
    }

    #[test]
    fn every_op_is_scheduled_exactly_once() {
        for workers in [1, 2, 3, 7] {
            let tape = chain(40);
            let p = plan(&tape, 41, workers);
            assert_eq!(chunk_ops(&p), 40, "workers={workers}");
            assert_eq!(p.stats.workers, workers);
        }
    }

    #[test]
    fn serial_chain_splits_into_contiguous_blocks() {
        // A pure dependency chain has no parallelism; the balance cap
        // splits it into contiguous blocks, and every block boundary is
        // exactly one cut edge and one extra phase.
        let tape = chain(32);
        let p = plan(&tape, 33, 4);
        assert_eq!(p.stats.levels, 32);
        assert_eq!(p.stats.phases, p.stats.cut_edges + 1);
        assert!(p.stats.cut_edges < 4, "stats: {:?}", p.stats);
    }

    #[test]
    fn short_chain_is_a_single_partition() {
        // Below the balance cap, affinity keeps the whole chain in one
        // partition: no cut edges, one phase.
        let tape = chain(2);
        let p = plan(&tape, 3, 4);
        assert_eq!(p.stats.cut_edges, 0);
        assert_eq!(p.stats.phases, 1);
        assert_eq!(p.stats.max_partition_ops, 2);
    }

    #[test]
    fn more_workers_than_ops_leaves_partitions_empty() {
        let tape = flat(3);
        let p = plan(&tape, 4, 7);
        assert_eq!(chunk_ops(&p), 3);
        assert_eq!(p.stats.min_partition_ops, 0);
        assert_eq!(p.stats.phases, 1);
    }

    #[test]
    fn single_level_tape_has_one_phase_and_balances() {
        let tape = flat(64);
        let p = plan(&tape, 65, 4);
        assert_eq!(p.stats.levels, 1);
        assert_eq!(p.stats.phases, 1);
        assert_eq!(p.stats.cut_edges, 0);
        assert!(p.stats.max_partition_ops <= 64 / 4 + 64 / 32 + 1);
        assert!(p.stats.min_partition_ops >= 1);
    }

    #[test]
    fn single_worker_is_one_partition_with_no_cuts() {
        let tape = flat(10);
        let p = plan(&tape, 11, 1);
        assert_eq!(p.stats.workers, 1);
        assert_eq!(p.stats.cut_edges, 0);
        assert_eq!(p.stats.phases, 1);
        assert_eq!(p.stats.max_partition_ops, 10);
    }

    #[test]
    fn phases_respect_cross_partition_dependencies() {
        // Two wide layers joined by a reduction: whatever the cut, every
        // dependency must resolve to an earlier phase or an earlier slot
        // in the same worker's same-phase chunk (tape order).
        let mut tape: Vec<TapeOp> = (1..=16u32)
            .map(|i| TapeOp::NotMask {
                dst: i,
                a: 0,
                mask: u64::MAX,
            })
            .collect();
        for i in 0..8u32 {
            tape.push(TapeOp::BitXor {
                dst: 17 + i,
                a: 1 + 2 * i,
                b: 2 + 2 * i,
            });
        }
        let p = plan(&tape, 25, 3);
        assert_eq!(chunk_ops(&p), 24);
        // Reconstruct (phase, worker, index-in-chunk) per dst slot and
        // check the scheduling invariant directly.
        let mut where_of = std::collections::HashMap::new();
        for (w, phases) in p.chunks.iter().enumerate() {
            for (ph, chunk) in phases.iter().enumerate() {
                for (k, op) in chunk.iter().enumerate() {
                    where_of.insert(dst(op), (ph, w, k));
                }
            }
        }
        let mut buf = Vec::new();
        for phases in &p.chunks {
            for chunk in phases {
                for op in chunk {
                    let &(ph, w, k) = &where_of[&dst(op)];
                    buf.clear();
                    operands(op, &mut buf);
                    for &s in &buf {
                        if let Some(&(dph, dw, dk)) = where_of.get(&s) {
                            assert!(
                                dph < ph || (dph == ph && dw == w && dk < k),
                                "op at phase {ph} worker {w} reads slot {s} \
                                 produced at phase {dph} worker {dw}"
                            );
                        }
                    }
                }
            }
        }
    }
}
