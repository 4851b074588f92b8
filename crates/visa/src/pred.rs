//! The predecoded basic-block interpreter — the fast engine behind
//! [`Cpu::run`](crate::cpu::Cpu::run).
//!
//! The reference interpreter fetches, decodes and dispatches every
//! instruction every time it runs. This engine splits decode from execute
//! the way lightweight-VM interpreters do, dispatches on a dense lowered
//! opcode, and charges virtual time from a per-class cost table instead of
//! re-deriving it per step:
//!
//! * **Predecode.** Straight-line runs of guest code are lazily decoded once
//!   into a cached [`Vec<PredInst>`] (a *block*), keyed by `(mode, start
//!   pc)`. Relative branch targets are resolved to absolute addresses at
//!   build time, immediates are unpacked, and each instruction records the
//!   block's static cycles (from [`vclock::costs::GUEST_CLASS_BASE`]) and
//!   retired count up to and including itself — execution never touches
//!   [`Inst::decode`](crate::inst::Inst::decode) again.
//! * **Superinstructions.** Six 2-instruction patterns are fused at build
//!   time — the ones that measured a win in `interp_speed`
//!   (`docs/interpreter.md#superinstructions`): `cmp r,imm`+`jcc` (every
//!   compiled `if`/`while`), `mov r,r`+`pop` and `push`+`load` (`vcc`'s
//!   operand shuffles), `pop`+`push`, `pop`+`alu r,r` and `alu r,imm`+`call`.
//!   A fused pair dispatches once but retires two instructions.
//! * **Host-side shape.** One dispatch site (`run_fast`'s block loop, with
//!   `exec` inlined into it); guest loads and stores whose hit path is one
//!   compare against the CPU's identity window, a bounds check and one
//!   unaligned access, inlined into the `exec` arm from the definitions in
//!   `cpu.rs`/`mem.rs` that the reference engine shares; the clock and the
//!   retired count charged once per block, not per instruction; blocks
//!   owned by an arena and lent to the loop as `&Block`. A step budget that
//!   ends inside a block finishes on the reference path.
//! * **Counted loops.** A block of `add`/`sub r, imm` and stores closed by
//!   the fused `cmp`+`jcc` back to its own start is recognised when it is
//!   built; it never enters the front cache, and each entry to it runs as
//!   many iterations as fit in one out-of-line `fast_forward` — within
//!   the step budget, with every store below the identity window, inside
//!   memory and off the block's own bytes — and the block itself only when
//!   not one does. The iterations run in bulk: a closed-form trip count,
//!   one progression write per moving store, and a store whose address
//!   does not move written once (`docs/interpreter.md#counted-loops`).
//! * **Invalidation.** [`Memory`] keeps a code-dirty
//!   page bitmap (set on every write, never cleared by the data-dirty
//!   tracking). Before a cached block runs, any dirty page it overlaps is
//!   swept: every cached block on that page is revalidated by comparing its
//!   captured source bytes against memory, stale blocks are dropped, and the
//!   bit is cleared. Blocks are indexed by 4 KiB page, so a sweep visits one
//!   page's blocks however large the cache. A store *from inside* a running
//!   block into its own range is detected precisely by address range and
//!   aborts the block after the store completes. Mode transitions need no
//!   flush — blocks are keyed by mode, and all mode-changing instructions
//!   execute on the reference path.
//! * **Lifetime.** The cache belongs to the *shell*, not to the guest
//!   context running on it. Nothing in the shell lifecycle flushes it:
//!   [`Cpu::restore_state`](crate::cpu::Cpu::restore_state) leaves it alone,
//!   a hypervisor's vCPU reset carries it into the fresh CPU
//!   ([`Cpu::adopt_predecode`](crate::cpu::Cpu::adopt_predecode)), a
//!   destroyed VM retires it with its wiped memory onto the spare list and
//!   the next VM created on that memory adopts it
//!   ([`Memory::retire`] / [`Memory::revive`]), and the
//!   memory paths underneath mark exactly the pages they rewrite — `clear`
//!   the pages it zeroes, the sparse restore and the delta re-arm the pages
//!   they copy back (a page that was zero and stays zero has not changed
//!   under any block). A warm re-arm that rewrites stack and data pages
//!   therefore rebuilds and revalidates nothing; a full restore costs one
//!   byte comparison per retained block on the pages it rewrote; a shell
//!   handed to a different image drops the previous
//!   occupant's blocks page by page as the new code reaches them. The only
//!   wholesale flush is the capacity bound, `MAX_CACHED_BLOCKS`.
//!
//! **The retention invariant.** *A cached block executes only after its
//! captured source bytes have been compared equal to the current guest
//! memory over its whole range since the last write to any page it overlaps;
//! the cache is host-side derived state, never readable by a guest and never
//! visible to the virtual clock.* That is the §5.2 argument for why keeping
//! it across tenants is not a leak: what a block does is a function of the
//! bytes the *current* guest has in memory, whoever's run first decoded
//! them, and whether it was cached changes host time only. The code-dirty
//! bitmap that carries the "since the last write" half is per-[`Memory`],
//! so a cache must stay with the memory it was built against, and a cloned
//! `Memory` starts all-dirty.
//!
//! **Cycle-identity contract.** The fast engine must be indistinguishable
//! from the reference `step()` loop at every observation point: registers,
//! memory, flags, `insts_retired`, exits, faults (kind *and* payload), and
//! the virtual clock. Blocks therefore only contain instruction classes
//! whose timing is position-independent, and most of that timing is
//! *static* — a class base, one `GUEST_MEM` per access — so `exec` ticks
//! none of it and retires nothing: a block that runs to its end charges its
//! total static cycles and retired count once, and one that stops early
//! charges its prefix through the instruction it stopped in (through the
//! first half of a fused pair whose first half faulted). A `mark` records
//! the clock plus its own prefix. Only the dynamic ticks — a taken `jcc`, a
//! TLB walk — land where they happen; ticks only add, and nothing but
//! `mark` reads the clock inside a block, so every exit, fault and `mark`
//! sees the reference's value. Anything mode-dependent (`hlt`,
//! port I/O, `lgdt`/`mov cr`/`wrmsr`/`ljmp`) terminates the block and runs
//! through [`Cpu::step`](crate::cpu::Cpu::step) itself. Long mode caches
//! blocks only on code pages that are TLB-resident *and* identity-mapped —
//! there, instruction fetches are walk-free (tick-free) and code addresses
//! are physical, so both the timing and the byte-revalidation sweep stay
//! exact; any other page single-steps on the reference path, which pays the
//! TLB-walk tick faithfully. Self-modification checks in long mode compare
//! *physical* store addresses, so aliased mappings cannot dodge
//! invalidation. The differential harness in `visa/tests/` and the
//! `diff_fuzz` binary enforce the contract over seeded random streams and
//! every `vcc`-compiled program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use vclock::{costs, Cycles};

use crate::cpu::{Cpu, CpuExit, Engine, Fault, Mode};
use crate::inst::{Alu, Cond, CrReg, Inst, OpClass, Reg, Width};
use crate::mem::{Memory, PAGE_SIZE};

/// Longest straight-line run predecoded into one block.
const MAX_BLOCK_INSTS: usize = 64;

/// Cache capacity in blocks, and the only bound on it: the whole cache is
/// flushed when a build would exceed it. One image is a few hundred blocks,
/// but the cache now outlives its guest — a pooled shell that has hosted
/// enough different images (stale blocks leave only when a sweep visits
/// their page) does reach the bound, and then starts over cold.
const MAX_CACHED_BLOCKS: usize = 4096;

// ---------------------------------------------------------------------------
// Global counters (exported at /metrics by vhttp).

static RETIRED_FAST: AtomicU64 = AtomicU64::new(0);
static RETIRED_REF: AtomicU64 = AtomicU64::new(0);
static BLOCKS_BUILT: AtomicU64 = AtomicU64::new(0);
static BLOCKS_INVALIDATED: AtomicU64 = AtomicU64::new(0);
static SUPERINSTS_FUSED: AtomicU64 = AtomicU64::new(0);
static DISPATCH_FRONT: AtomicU64 = AtomicU64::new(0);
static DISPATCH_MAP: AtomicU64 = AtomicU64::new(0);
static DISPATCH_BUILT: AtomicU64 = AtomicU64::new(0);
static DISPATCH_REFERENCE: AtomicU64 = AtomicU64::new(0);
static DISPATCH_LOOP: AtomicU64 = AtomicU64::new(0);
static LOOP_ITERATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide guest-execution counters (monotonic, all engines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Instructions retired by the fast (predecoded) engine.
    pub retired_fast: u64,
    /// Instructions retired by the reference engine.
    pub retired_ref: u64,
    /// Predecoded blocks built.
    pub blocks_built: u64,
    /// Predecoded blocks invalidated: stale bytes found by a revalidation
    /// sweep, a self-modifying store, or the capacity bound.
    pub blocks_invalidated: u64,
    /// Superinstructions fused at block-build time.
    pub superinsts_fused: u64,
    /// Block entries of the fast engine served by the front cache.
    pub dispatch_front: u64,
    /// Block entries served by the block map (a front miss, or a front hit
    /// on a written page that then revalidated).
    pub dispatch_map: u64,
    /// Block entries that built the block first.
    pub dispatch_built: u64,
    /// Instructions the fast engine single-stepped on the reference path
    /// instead: uncacheable code and the tail of a step budget.
    pub dispatch_reference: u64,
    /// The `dispatch_map` and `dispatch_built` entries that fast-forwarded
    /// a counted loop instead of running it.
    pub dispatch_loop: u64,
    /// Iterations those fast-forwards performed.
    pub loop_iterations: u64,
}

/// Snapshot of the process-wide guest-execution counters.
pub fn counters() -> Counters {
    Counters {
        retired_fast: RETIRED_FAST.load(Ordering::Relaxed),
        retired_ref: RETIRED_REF.load(Ordering::Relaxed),
        blocks_built: BLOCKS_BUILT.load(Ordering::Relaxed),
        blocks_invalidated: BLOCKS_INVALIDATED.load(Ordering::Relaxed),
        superinsts_fused: SUPERINSTS_FUSED.load(Ordering::Relaxed),
        dispatch_front: DISPATCH_FRONT.load(Ordering::Relaxed),
        dispatch_map: DISPATCH_MAP.load(Ordering::Relaxed),
        dispatch_built: DISPATCH_BUILT.load(Ordering::Relaxed),
        dispatch_reference: DISPATCH_REFERENCE.load(Ordering::Relaxed),
        dispatch_loop: DISPATCH_LOOP.load(Ordering::Relaxed),
        loop_iterations: LOOP_ITERATIONS.load(Ordering::Relaxed),
    }
}

/// Credits `delta` retired instructions to `engine`'s process-wide counter.
/// Called once per [`Cpu::run`], not per instruction.
pub(crate) fn note_retired(engine: Engine, delta: u64) {
    let counter = match engine {
        Engine::Fast => &RETIRED_FAST,
        Engine::Reference => &RETIRED_REF,
    };
    counter.fetch_add(delta, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Predecoded representation.

/// A predecoded operation: operands unpacked, branch targets absolute.
#[derive(Debug, Clone, Copy)]
enum PredOp {
    Nop,
    MovRR(Reg, Reg),
    MovRI(Reg, u64),
    AluRR(Alu, Reg, Reg),
    AluRI(Alu, Reg, u64),
    Neg(Reg),
    Not(Reg),
    CmpRR(Reg, Reg),
    CmpRI(Reg, u64),
    MovRCr(Reg, CrReg),
    /// Unconditional jump to an absolute target.
    Jmp(u64),
    /// Conditional jump to an absolute target.
    Jcc(Cond, u64),
    JmpR(Reg),
    /// Call with an absolute target.
    Call(u64),
    CallR(Reg),
    Ret,
    Push(Reg),
    Pop(Reg),
    Load(Width, Reg, Reg, i32),
    Store(Width, Reg, i32, Reg),
    Mark(u8),
    /// Fused `cmp a, imm` + `jcc cond, target`.
    CmpRIJcc(Reg, u64, Cond, u64),
    /// Fused `pop d` + `push s` (restore one value, save another). `mid` is
    /// the second instruction's address.
    PopPush {
        d: Reg,
        s: Reg,
        mid: u64,
    },
    /// Fused `pop d` + `d2 op= s2` (restore then accumulate, op always
    /// plain-ALU class). `mid` is the second instruction's address.
    PopAluRR {
        d: Reg,
        op: Alu,
        d2: Reg,
        s2: Reg,
        mid: u64,
    },
    /// Fused `d op= imm` + `call target` (adjust an argument, then call;
    /// op never div/mod — those fault).
    AluRICall(Alu, Reg, u64, u64),
    /// Fused `mov d, s` + `pop pd` (`vcc`'s binary-operator operand
    /// shuffle: `mov r10, r0` + `pop r0`).
    MovRRPop(Reg, Reg, Reg),
    /// Fused `push a` + `load` (save one operand, fetch the next). `mid` is
    /// the load's address.
    PushLoad {
        a: Reg,
        w: Width,
        d: Reg,
        base: Reg,
        off: i32,
        mid: u64,
    },
}

/// One predecoded instruction (or fused pair) ready to dispatch.
#[derive(Debug, Clone, Copy)]
struct PredInst {
    op: PredOp,
    /// Address of the instruction (fault payloads for div/mod).
    pc: u64,
    /// Address of the next sequential instruction (past the whole fused
    /// pair for superinstructions).
    next_pc: u64,
    /// The block's *prefix* through this instruction: the static cycles
    /// ([`static_cost`]) and the instructions retired from the block's first
    /// instruction up to and including this one (both halves of a pair).
    cycles: u32,
    retired: u32,
}

// Pinned: the dispatch loop streams a block's `PredInst`s, so their size is
// cache footprint on every block entry.
const _: () = assert!(std::mem::size_of::<PredInst>() == 48);

impl PredInst {
    fn prefix(&self) -> (u64, u64) {
        (self.cycles.into(), self.retired.into())
    }

    /// The prefix an instruction that stopped its block — a fault, or a
    /// store into the block's own bytes — charges: through the whole
    /// instruction, or only through the first half of a fused pair that
    /// stopped there, which left `pc` on the second half, as the reference
    /// does.
    fn stopped_prefix(&self, pc: u64) -> (u64, u64) {
        let second = match self.op {
            PredOp::PopPush { s, mid, .. } if pc == mid => Inst::Push(s),
            PredOp::PopAluRR {
                op, d2, s2, mid, ..
            } if pc == mid => Inst::AluRR(op, d2, s2),
            PredOp::PushLoad {
                w,
                d,
                base,
                off,
                mid,
                ..
            } if pc == mid => Inst::Load(w, d, base, off),
            _ => return self.prefix(),
        };
        let (cycles, retired) = self.prefix();
        (cycles - static_cost(&second), retired - 1)
    }
}

/// A predecoded straight-line run of guest code.
#[derive(Debug)]
struct Block {
    mode: Mode,
    /// First byte covered (virtual == physical in the cacheable modes).
    start: u64,
    /// One past the last byte covered.
    end: u64,
    /// The exact source bytes decoded, for revalidation after writes land
    /// on the block's pages.
    src: Box<[u8]>,
    /// Never empty.
    insts: Box<[PredInst]>,
    /// Set when the block is a counted loop.
    counted: Option<Box<CountedLoop>>,
}

// Pinned: every block entry reads its arena slot. With boxed slices rather
// than `Vec`s a slot is 64 bytes; at 80 the fib kernel read ≈ 2 % slower.
const _: () = assert!(std::mem::size_of::<Block>() == 64);

/// A block whose body is only `add`/`sub r, imm` and `store`s, ending in
/// the fused `cmp r, imm` + `jcc` back to its own first instruction: what
/// an iteration does is known before it runs, so [`fast_forward`] can run
/// many at once.
#[derive(Debug)]
struct CountedLoop {
    /// Each register's net change over one iteration (wrapping).
    step: [u64; Reg::COUNT],
    /// The body's stores, in program order.
    stores: Vec<LoopStore>,
    /// The back edge: `cmp reg, imm`, then `jcc cond` to the block start.
    cmp: (Reg, u64, Cond),
}

/// One `store.w [base + off], src` of a counted loop.
#[derive(Debug)]
struct LoopStore {
    w: Width,
    off: i32,
    /// `base` and `src`, each with what the body's `add`/`sub`s ahead of
    /// the store add to it in an iteration.
    regs: [(Reg, u64); 2],
}

impl CountedLoop {
    /// Recognises a counted loop in a block starting at `start`.
    fn recognise(start: u64, insts: &[PredInst]) -> Option<Box<CountedLoop>> {
        let (last, body) = insts.split_last()?;
        let PredOp::CmpRIJcc(reg, imm, cond, target) = last.op else {
            return None;
        };
        let mut step = [0u64; Reg::COUNT];
        let mut stores = Vec::new();
        for pi in body {
            match pi.op {
                PredOp::AluRI(op @ (Alu::Add | Alu::Sub), r, imm) => {
                    step[r.index()] = alu_value(op, step[r.index()], imm);
                }
                PredOp::Store(w, base, off, src) => {
                    let regs = [base, src].map(|r| (r, step[r.index()]));
                    stores.push(LoopStore { w, off, regs });
                }
                _ => return None,
            }
        }
        let cmp = (reg, imm, cond);
        (target == start).then(|| Box::new(CountedLoop { step, stores, cmp }))
    }

    /// The address and the value of `st` in iteration `i`, from `regs` at
    /// the top of the first.
    #[inline(always)]
    fn store_at(&self, regs: &[u64; Reg::COUNT], st: &LoopStore, i: u64) -> (u64, u64) {
        let [base, src] = st.regs.map(|(r, pre)| {
            let stride = self.step[r.index()].wrapping_mul(i);
            regs[r.index()].wrapping_add(pre).wrapping_add(stride)
        });
        (base.wrapping_add(st.off as i64 as u64), src)
    }

    /// How far `st`'s address moves per iteration.
    fn stride(&self, st: &LoopStore) -> u64 {
        self.step[st.regs[0].0.index()]
    }

    /// The trip count from `x0` in the compared register at the top of the
    /// first iteration: the first back edge not taken, or `cap` (≥ 1). In
    /// closed form ([`closed_trips`]) when the counter cannot wrap, checked
    /// at both ends; otherwise the compare is iterated. Compares on `cpu`,
    /// whose flags are left to the caller to set.
    fn trips(&self, cpu: &mut Cpu, x0: u64, cap: u64) -> u64 {
        let (reg, imm, cond) = self.cmp;
        let step = self.step[reg.index()];
        let mut holds = |i: u64| {
            cpu.set_cmp_flags(x0.wrapping_add(step.wrapping_mul(i)), imm);
            cpu.cond_holds(cond)
        };
        // Where the orderings hold is a prefix or a suffix of the turns, so
        // holding at 1 and at `k - 1` is holding throughout; `eq` and `ne`
        // change at most twice. The check catches an answer off at either
        // end.
        let checked = |&k: &u64| (k == 1 || holds(1) && holds(k - 1)) && (k == cap || !holds(k));
        let closed = closed_trips(x0, step, imm, cond, cap).filter(checked);
        closed.unwrap_or_else(|| (1..cap).find(|&i| !holds(i)).unwrap_or(cap))
    }

    /// Leaves in `mem` what the stores of iterations `0..k` leave, from
    /// `regs` at the top of the first, without running them one by one:
    ///
    /// * a store whose address does not move is written in the last
    ///   iteration only: each earlier write of it is overwritten by that
    ///   one, and the ledger it leaves — a set of pages and the extents'
    ///   bounds — is the same after one write as after `k`;
    /// * the moving stores write iterations `0..k - 1` first, each as one
    ///   [`Memory::write_progression`] when their `k`-iteration byte ranges
    ///   are pairwise disjoint (so the order between them cannot matter),
    ///   otherwise interleaved in program order;
    /// * the last iteration runs whole, in program order, so what it
    ///   overwrites is the reference's.
    ///
    /// `fast_forward` has bounds-checked every write, so none fails.
    fn store(&self, regs: &[u64; Reg::COUNT], mem: &mut Memory, k: u64) {
        let write = |mem: &mut Memory, st: &LoopStore, i: u64| {
            let (at, v) = self.store_at(regs, st, i);
            let written = mem.write(at, st.w, v);
            debug_assert!(written.is_ok(), "bounds-checked above");
        };
        let moving = || self.stores.iter().filter(|st| self.stride(st) != 0);
        let span = |st: &LoopStore| {
            let [(a, _), (b, _)] = [0, k - 1].map(|i| self.store_at(regs, st, i));
            (a.min(b), a.max(b) + st.w.bytes())
        };
        let disjoint = moving().enumerate().all(|(i, a)| {
            let (lo, hi) = span(a);
            moving()
                .skip(i + 1)
                .all(|b| span(b).1 <= lo || hi <= span(b).0)
        });
        if disjoint {
            for st in moving() {
                let (at, v) = self.store_at(regs, st, 0);
                let step = self.step[st.regs[1].0.index()];
                let written =
                    mem.write_progression(at, self.stride(st) as i64, k - 1, st.w, (v, step));
                debug_assert!(written.is_ok(), "bounds-checked above");
            }
        } else {
            for i in 0..k - 1 {
                moving().for_each(|st| write(mem, st, i));
            }
        }
        self.stores.iter().for_each(|st| write(mem, st, k - 1));
    }
}

/// The first `i` in `1..=cap` at which `cmp x0 + i·step, imm` fails `cond`,
/// or `cap`, in closed form; `None` when the counter can wrap over
/// `[x0, x0 + step·cap]` in the condition's signedness (`step` is signed:
/// a `sub` steps down), where the compare is no longer monotone in `i`.
fn closed_trips(x0: u64, step: u64, imm: u64, cond: Cond, cap: u64) -> Option<u64> {
    let signed = matches!(cond, Cond::Lt | Cond::Le | Cond::Gt | Cond::Ge);
    let (x0, imm, range) = if signed {
        let range = i128::from(i64::MIN)..=i128::from(i64::MAX);
        (i128::from(x0 as i64), i128::from(imm as i64), range)
    } else {
        (i128::from(x0), i128::from(imm), 0..=i128::from(u64::MAX))
    };
    let (s, cap) = (i128::from(step as i64), i128::from(cap));
    if !range.contains(&(x0 + s * cap)) {
        return None;
    }
    // While `x0 + s·i <= t`: one past the last `i` that holds, or every `i`
    // or none when the counter does not rise.
    let below = |x0: i128, s: i128, t: i128| match (t - x0).checked_div_euclid(s) {
        Some(last) if s > 0 => last + 1,
        _ if x0 + s <= t => cap,
        _ => 1,
    };
    let k = match cond {
        Cond::Lt | Cond::B => below(x0, s, imm - 1),
        Cond::Le | Cond::Be => below(x0, s, imm),
        Cond::Gt | Cond::A => below(-x0, -s, -imm - 1),
        Cond::Ge | Cond::Ae => below(-x0, -s, -imm),
        Cond::Eq if x0 + s != imm => 1,
        Cond::Eq if s == 0 => cap,
        Cond::Eq => 2,
        // The one turn that hits the bound, if one does.
        Cond::Ne if s == 0 => [1, cap][usize::from(x0 != imm)],
        Cond::Ne => match ((imm - x0).checked_rem(s), (imm - x0).checked_div(s)) {
            (Some(0), Some(hit)) if hit >= 1 => hit,
            _ => cap,
        },
    };
    u64::try_from(k.max(1).min(cap)).ok()
}

impl Block {
    /// The static cycles and instructions retired of the whole block: its
    /// last instruction's prefix.
    fn total(&self) -> (u64, u64) {
        self.insts[self.insts.len() - 1].prefix()
    }

    fn page_lo(&self) -> u64 {
        self.start / PAGE_SIZE
    }

    fn page_hi(&self) -> u64 {
        (self.end - 1) / PAGE_SIZE
    }

    /// Has no write landed on any page this block overlaps since the cache
    /// last swept it?
    #[inline]
    fn pages_clean(&self, mem: &Memory) -> bool {
        !(self.page_lo()..=self.page_hi()).any(|page| mem.code_page_dirty(page))
    }

    /// Do the bytes this block was decoded from still sit in memory?
    fn matches(&self, mem: &Memory) -> bool {
        mem.slice(self.start, self.end - self.start)
            .is_ok_and(|bytes| bytes == &self.src[..])
    }

    /// Does a write of `len` bytes at `addr` land inside this block?
    fn hits(&self, addr: u64, len: u64) -> bool {
        addr < self.end && addr.saturating_add(len) > self.start
    }

    /// For how many iterations a store of `len` bytes at `at`, moving by
    /// `stride` per iteration, stays wholly below `bound` and clear of this
    /// block's bytes. Closed-form over the arithmetic progression; a stride
    /// that would hop over the block counts as entering it.
    fn safe_stores(&self, at: u64, stride: u64, len: u64, bound: u64) -> u64 {
        let [at, len, bound] = [at, len, bound].map(i128::from);
        let (start, end) = (i128::from(self.start), i128::from(self.end));
        let below = at + len <= start;
        if at + len > bound || !(below || at >= end) {
            return 0;
        }
        let (room, stride) = match i128::from(stride as i64) {
            0 => return u64::MAX,
            // Up to the last address below the block, or below the bound.
            d if d > 0 && below => (start.min(bound) - len - at, d),
            d if d > 0 => (bound - len - at, d),
            // Down to the block's end, or to zero.
            d if at >= end => (at - end, -d),
            d => (at, -d),
        };
        u64::try_from(room / stride + 1).unwrap_or(u64::MAX)
    }
}

/// A multiply-rotate hasher (fxhash-style) for the block map, whose keys
/// are a mode discriminant and a `u64`. One lookup happens per front-cache
/// miss, where SipHash's keyed mixing costs more than the dispatch itself;
/// the keys are trusted guest pcs, so a non-DoS-resistant hash is fine.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    /// The derived `Hash` of [`Mode`] writes its discriminant through here.
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Entries in the direct-mapped front cache over the block map.
const FRONT_ENTRIES: usize = 256;

/// An empty front entry. A guest *can* put its pc at `u64::MAX`, so the slot
/// is what makes it match nothing: the arena never grows that far.
const NO_FRONT: (u64, u32) = (u64::MAX, u32::MAX);

/// Front-cache index for a block starting at `pc`.
#[inline]
fn front_idx(pc: u64) -> usize {
    (((pc >> 1) ^ (pc >> 7)) as usize) & (FRONT_ENTRIES - 1)
}

/// Key of a cached block: the mode it was decoded in and its first byte.
/// Exact over all 64 bits of pc — `jmp r` and `ret` can load any value.
type BlockKey = (Mode, u64);

/// The block cache. It belongs to the *shell* — the CPU/memory pair a
/// hypervisor pools and re-arms — not to one guest context: it survives
/// [`Cpu::restore_state`], is carried across a vCPU reset by
/// [`Cpu::adopt_predecode`], and across a VM's teardown and re-creation by
/// [`Memory::retire`] and [`Memory::revive`]. See the invariant in the
/// module docs for why that is safe.
///
/// Blocks live in an arena and are named by slot index; the run loop
/// borrows `&Block` from the arena while the cache is detached from its
/// [`Cpu`] (see [`run_fast`]), so dispatching a block touches no reference
/// count. An empty cache owns no heap memory: a hypervisor builds a fresh
/// `Cpu` on every vCPU reset just to swap the old cache into it.
#[derive(Debug, Default)]
pub(crate) struct PredCache {
    map: HashMap<BlockKey, u32, BuildHasherDefault<FxHasher>>,
    /// The arena. A `None` slot is on `free`.
    slots: Vec<Option<Block>>,
    free: Vec<u32>,
    /// Every cached block's slot, listed under each 4 KiB page it overlaps
    /// (a block that straddles a boundary appears under both); indexed by
    /// page number and grown on demand, so never longer than guest memory
    /// has pages. A sweep revalidates one page's list: its cost follows the
    /// page, not the cache.
    by_page: Vec<Vec<u32>>,
    /// Direct-mapped `(start pc, slot)` pairs over `map`: most dispatches
    /// re-enter one of a handful of hot blocks, and a hit skips the map
    /// probe entirely. Allocated by the first block cached, and reset
    /// wholesale whenever any block leaves the cache — that is what keeps a
    /// recycled slot from being reached through a stale pair.
    front: Vec<(u64, u32)>,
}

impl PredCache {
    fn block(&self, slot: u32) -> &Block {
        self.slots[slot as usize]
            .as_ref()
            .expect("a mapped, indexed or front slot holds a block")
    }

    /// Empties the front cache — required whenever a block leaves `slots`.
    fn clear_front(&mut self) {
        self.front.fill(NO_FRONT);
    }

    /// Drops every cached block (the capacity bound).
    fn flush(&mut self) {
        BLOCKS_INVALIDATED.fetch_add(self.map.len() as u64, Ordering::Relaxed);
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.by_page.clear();
        self.clear_front();
    }

    /// Caches a freshly built block, evicting everything first when the
    /// cache is full, and returns its slot.
    fn insert(&mut self, blk: Block) -> u32 {
        if self.map.len() >= MAX_CACHED_BLOCKS {
            self.flush();
        }
        if self.front.is_empty() {
            self.front = vec![NO_FRONT; FRONT_ENTRIES];
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() as u32 - 1
        });
        for page in blk.page_lo() as usize..=blk.page_hi() as usize {
            if page >= self.by_page.len() {
                self.by_page.resize_with(page + 1, Vec::new);
            }
            self.by_page[page].push(slot);
        }
        self.map.insert((blk.mode, blk.start), slot);
        self.slots[slot as usize] = Some(blk);
        slot
    }

    /// Takes the block in `slot` out of the arena, the map and every page
    /// list, and frees the slot. The caller clears the front.
    fn evict(&mut self, slot: u32) {
        let blk = self.slots[slot as usize]
            .take()
            .expect("an evicted slot holds a block");
        self.free.push(slot);
        self.map.remove(&(blk.mode, blk.start));
        for page in blk.page_lo()..=blk.page_hi() {
            self.by_page[page as usize].retain(|s| *s != slot);
        }
    }

    /// Drops one block (self-modifying store into its own range).
    fn remove(&mut self, slot: u32) {
        self.evict(slot);
        BLOCKS_INVALIDATED.fetch_add(1, Ordering::Relaxed);
        self.clear_front();
    }

    /// Revalidates the cached blocks on each dirty page in `lo..=hi`: a
    /// block whose captured source bytes no longer match memory over its
    /// whole range is dropped, then the page's code-dirty bit is cleared.
    /// Only that page's blocks are visited.
    fn sweep(&mut self, mem: &mut Memory, lo: u64, hi: u64) {
        for page in lo..=hi {
            if !mem.code_page_dirty(page) {
                continue;
            }
            if (page as usize) < self.by_page.len() {
                // Taken out while it is rewritten, so that evicting a stale
                // straddler can edit its *other* page's list.
                let mut on_page = std::mem::take(&mut self.by_page[page as usize]);
                let before = on_page.len();
                on_page.retain(|&slot| {
                    let fresh = self.block(slot).matches(mem);
                    if !fresh {
                        self.evict(slot);
                    }
                    fresh
                });
                let dropped = before - on_page.len();
                self.by_page[page as usize] = on_page;
                if dropped > 0 {
                    BLOCKS_INVALIDATED.fetch_add(dropped as u64, Ordering::Relaxed);
                    // The dirty bit that kept the front from reaching the
                    // dropped blocks is about to clear.
                    self.clear_front();
                }
            }
            mem.clear_code_dirty_page(page);
        }
    }

    /// Finds the block to execute at `cpu.pc`, building and caching it if
    /// needed — or, for a counted loop, fast-forwards it instead — within a
    /// step budget that ends at `limit` retired instructions.
    #[inline]
    fn acquire(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        n: &mut Dispatches,
        limit: u64,
    ) -> Acquired {
        // Long-mode blocks are only valid on TLB-resident identity-mapped
        // code pages (see `build`). Checking the *live* TLB here — not just
        // at build time — also covers CR3 switches: a CR3 write clears the
        // TLB, so stale blocks from a previous address space can never run.
        // The reference step this falls back to pays the walk tick
        // faithfully and refills the TLB.
        if cpu.mode == Mode::Long64 && cpu.long_identity_page_end(cpu.pc).is_none() {
            return Acquired::Reference;
        }
        // Hottest path: the front pair names this exact block and no write
        // has landed on its pages since the last sweep — known-fresh with no
        // map probe and no revalidation.
        let pc = cpu.pc;
        let at = front_idx(pc);
        if let Some(&(start, slot)) = self.front.get(at) {
            if start == pc {
                if let Some(Some(blk)) = self.slots.get(slot as usize) {
                    if blk.start == pc && blk.mode == cpu.mode && blk.pages_clean(mem) {
                        n.front += 1;
                        return Acquired::Block(slot);
                    }
                }
            }
        }
        self.acquire_miss(cpu, mem, n, limit)
    }

    /// [`PredCache::acquire`] past the front cache: the map probe, the
    /// revalidation sweep, the block build and the counted-loop
    /// fast-forward, kept out of the run loop's body. A counted loop never
    /// enters the front cache, so that every entry to it comes here.
    #[inline(never)]
    fn acquire_miss(
        &mut self,
        cpu: &mut Cpu,
        mem: &mut Memory,
        n: &mut Dispatches,
        limit: u64,
    ) -> Acquired {
        let Some(slot) = self.block_at(cpu, mem, n) else {
            return Acquired::Reference;
        };
        let blk = self.block(slot);
        if blk.counted.is_none() {
            self.front[front_idx(cpu.pc)] = (cpu.pc, slot);
            return Acquired::Block(slot);
        }
        match fast_forward(cpu, mem, blk, limit - cpu.insts_retired) {
            Some(k) => {
                n.loops += 1;
                n.loop_iterations += k;
                Acquired::FastForwarded
            }
            None => Acquired::Block(slot),
        }
    }

    /// The slot of the cached block at `cpu.pc`, revalidated, or of one
    /// built there now; `None` when the instruction there must run on the
    /// reference path.
    fn block_at(&mut self, cpu: &mut Cpu, mem: &mut Memory, n: &mut Dispatches) -> Option<u32> {
        let key = (cpu.mode, cpu.pc);
        if let Some(&slot) = self.map.get(&key) {
            let blk = self.block(slot);
            if !blk.pages_clean(mem) {
                let (lo, hi) = (blk.page_lo(), blk.page_hi());
                self.sweep(mem, lo, hi);
            }
            if let Some(&slot) = self.map.get(&key) {
                n.map += 1;
                return Some(slot);
            }
        }
        let blk = build(cpu, mem)?;
        self.sweep(mem, blk.page_lo(), blk.page_hi());
        BLOCKS_BUILT.fetch_add(1, Ordering::Relaxed);
        n.built += 1;
        Some(self.insert(blk))
    }
}

// ---------------------------------------------------------------------------
// Block construction.

/// Decodes the straight-line run starting at `cpu.pc` and lowers it,
/// fusing superinstruction patterns. Returns `None` when not even the first
/// instruction is predecodable (decode fault, a class that must run on the
/// reference path, or a long-mode page the cache cannot cover) — the caller
/// falls back to a single reference step.
fn build(cpu: &mut Cpu, mem: &Memory) -> Option<Block> {
    let start = cpu.pc;
    let mode = cpu.mode;
    // Long mode caches blocks only within a single 2 MiB page that is both
    // already in the TLB (instruction fetches from it are walk-free, so the
    // probe below is tick-free exactly like the reference's fetches) and
    // identity-mapped (virtual code addresses are physical, which the
    // byte-revalidation sweep requires). Anything else single-steps.
    let page_end = if mode == Mode::Long64 {
        cpu.long_identity_page_end(start)?
    } else {
        u64::MAX
    };
    let mut raw: Vec<(Inst, u64, u64)> = Vec::new();
    let mut pc = start;
    while raw.len() < MAX_BLOCK_INSTS {
        if page_end - pc < Inst::MAX_LEN as u64 {
            // Within one encoding of the long-mode page boundary: a probe
            // here could straddle into the next page and charge its TLB walk
            // early.
            break;
        }
        // fetch_decode never ticks the clock in real/protected mode (and is
        // walk-free on a TLB-hit long-mode page), so probing ahead here is
        // invisible to the virtual timeline.
        let Ok((inst, len)) = cpu.fetch_decode(mem, pc) else {
            break;
        };
        let class = inst.class();
        if matches!(class, OpClass::Pio | OpClass::Halt | OpClass::System) {
            // Mode-dependent timing or an exit: ends the run *before* the
            // instruction; it executes via the reference step.
            break;
        }
        raw.push((inst, pc, len));
        pc = pc.wrapping_add(len);
        if matches!(class, OpClass::Branch | OpClass::CallRet) {
            break;
        }
    }
    if raw.is_empty() {
        return None;
    }
    let end = pc;
    let src = mem.slice(start, end - start).ok()?.into();
    let insts = lower(&raw);
    Some(Block {
        mode,
        start,
        end,
        src,
        counted: CountedLoop::recognise(start, &insts),
        insts: insts.into_boxed_slice(),
    })
}

/// ALU ops in the plain `GUEST_ALU` cost class — not mul/div/mod, which
/// carry their own class costs (and div/mod can fault).
fn plain_alu(op: Alu) -> bool {
    !matches!(op, Alu::Mul | Alu::Div | Alu::Mod)
}

/// Absolute target of a relative branch whose *next* instruction is at
/// `next_pc`.
fn abs_target(next_pc: u64, rel: i32) -> u64 {
    next_pc.wrapping_add(rel as i64 as u64)
}

/// The cycles an instruction costs wherever it runs: its class base, one
/// `GUEST_MEM` per memory access, and the taken charge of an unconditional
/// jump. The rest of what the reference ticks — a taken `jcc`, a TLB walk —
/// depends on the run, and the fast engine ticks it where it happens.
fn static_cost(inst: &Inst) -> u64 {
    let base = costs::GUEST_CLASS_BASE[inst.class() as usize];
    match inst {
        Inst::Load(..)
        | Inst::Store(..)
        | Inst::Push(_)
        | Inst::Pop(_)
        | Inst::Call(_)
        | Inst::CallR(_)
        | Inst::Ret => base + costs::GUEST_MEM,
        Inst::Jmp(_) | Inst::JmpR(_) => base + costs::GUEST_BRANCH_TAKEN,
        _ => base,
    }
}

/// Lowers a decoded run into predecoded form, fusing adjacent pairs, and
/// records each instruction's prefix.
fn lower(raw: &[(Inst, u64, u64)]) -> Vec<PredInst> {
    let mut out = Vec::with_capacity(raw.len());
    let (mut cycles, mut retired) = (0, 0);
    let mut i = 0;
    while i < raw.len() {
        let (inst, pc, len) = raw[i];
        let pair = raw.get(i + 1).and_then(|&(next, mid, next_len)| {
            let end = mid.wrapping_add(next_len);
            Some((fuse(inst, next, mid, end)?, next, end))
        });
        let (op, next_pc) = match pair {
            Some((op, next, end)) => {
                SUPERINSTS_FUSED.fetch_add(1, Ordering::Relaxed);
                cycles += static_cost(&next);
                retired += 1;
                i += 1;
                (op, end)
            }
            None => {
                let next_pc = pc.wrapping_add(len);
                (lower_one(inst, next_pc), next_pc)
            }
        };
        cycles += static_cost(&inst);
        retired += 1;
        i += 1;
        out.push(PredInst {
            op,
            pc,
            next_pc,
            cycles: u32::try_from(cycles).expect("64 instructions' cycles fit in u32"),
            retired,
        });
    }
    out
}

/// The superinstruction for `first` followed by `second`, which starts at
/// `mid` and ends at `end`; `None` unless the pair is one of the six fused
/// patterns.
fn fuse(first: Inst, second: Inst, mid: u64, end: u64) -> Option<PredOp> {
    Some(match (first, second) {
        (Inst::CmpRI(a, imm), Inst::Jcc(c, rel)) => {
            PredOp::CmpRIJcc(a, imm, c, abs_target(end, rel))
        }
        (Inst::Pop(d), Inst::Push(s)) => PredOp::PopPush { d, s, mid },
        (Inst::Pop(d), Inst::AluRR(op, d2, s2)) if plain_alu(op) => {
            PredOp::PopAluRR { d, op, d2, s2, mid }
        }
        (Inst::AluRI(op, d, imm), Inst::Call(rel)) if !matches!(op, Alu::Div | Alu::Mod) => {
            PredOp::AluRICall(op, d, imm, abs_target(end, rel))
        }
        (Inst::MovRR(d, s), Inst::Pop(pd)) => PredOp::MovRRPop(d, s, pd),
        (Inst::Push(a), Inst::Load(w, d, base, off)) => PredOp::PushLoad {
            a,
            w,
            d,
            base,
            off,
            mid,
        },
        _ => return None,
    })
}

/// Lowers a single (unfused) instruction.
fn lower_one(inst: Inst, next_pc: u64) -> PredOp {
    match inst {
        Inst::Nop => PredOp::Nop,
        Inst::MovRR(d, s) => PredOp::MovRR(d, s),
        Inst::MovRI(d, imm) => PredOp::MovRI(d, imm),
        Inst::AluRR(op, d, s) => PredOp::AluRR(op, d, s),
        Inst::AluRI(op, d, imm) => PredOp::AluRI(op, d, imm),
        Inst::Neg(r) => PredOp::Neg(r),
        Inst::Not(r) => PredOp::Not(r),
        Inst::CmpRR(a, b) => PredOp::CmpRR(a, b),
        Inst::CmpRI(a, imm) => PredOp::CmpRI(a, imm),
        Inst::MovRCr(d, cr) => PredOp::MovRCr(d, cr),
        Inst::Jmp(rel) => PredOp::Jmp(abs_target(next_pc, rel)),
        Inst::Jcc(c, rel) => PredOp::Jcc(c, abs_target(next_pc, rel)),
        Inst::JmpR(r) => PredOp::JmpR(r),
        Inst::Call(rel) => PredOp::Call(abs_target(next_pc, rel)),
        Inst::CallR(r) => PredOp::CallR(r),
        Inst::Ret => PredOp::Ret,
        Inst::Push(r) => PredOp::Push(r),
        Inst::Pop(r) => PredOp::Pop(r),
        Inst::Load(w, d, b, off) => PredOp::Load(w, d, b, off),
        Inst::Store(w, b, off, s) => PredOp::Store(w, b, off, s),
        Inst::Mark(id) => PredOp::Mark(id),
        Inst::Hlt
        | Inst::In(..)
        | Inst::Out(..)
        | Inst::Lgdt(_)
        | Inst::MovCr(..)
        | Inst::Wrmsr(..)
        | Inst::Ljmp(..) => unreachable!("class excluded by the block builder"),
    }
}

// ---------------------------------------------------------------------------
// Execution.

/// What [`PredCache::acquire`] found at `cpu.pc`.
enum Acquired {
    /// A cached block, to run.
    Block(u32),
    /// Nothing the engine can cache: one reference step.
    Reference,
    /// A counted loop, already fast-forwarded.
    FastForwarded,
}

/// What a dispatched [`PredInst`] asks the block loop to do next.
enum Flow {
    /// Keep executing the block.
    Next,
    /// The instruction stored into its own block: drop the block and
    /// re-enter the outer loop.
    SelfModified,
}

/// ALU operations that cannot fault.
fn alu_value(op: Alu, a: u64, b: u64) -> u64 {
    match op {
        Alu::Add => a.wrapping_add(b),
        Alu::Sub => a.wrapping_sub(b),
        Alu::Mul => a.wrapping_mul(b),
        Alu::And => a & b,
        Alu::Or => a | b,
        Alu::Xor => a ^ b,
        Alu::Shl => a.wrapping_shl(b as u32 & 63),
        Alu::Shr => a.wrapping_shr(b as u32 & 63),
        Alu::Sar => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        Alu::Div | Alu::Mod => unreachable!("div/mod take the faulting path"),
    }
}

/// Signed divide/remainder with the divide-by-zero fault.
fn div_mod(op: Alu, a: u64, b: u64, pc: u64) -> Result<u64, Fault> {
    if b == 0 {
        return Err(Fault::DivideByZero { pc });
    }
    let (a, b) = (a as i64, b as i64);
    let v = if op == Alu::Div {
        a.wrapping_div(b)
    } else {
        a.wrapping_rem(b)
    };
    Ok(v as u64)
}

/// Dispatches one predecoded instruction.
///
/// Mirrors the reference `step()`'s semantics and its `pc`, which advances
/// *before* the body, so a fault leaves it where the reference does. The
/// static cycles and the retired count are the run loop's to charge (see
/// [`PredInst::cycles`]): this ticks only what depends on the run — a taken
/// `jcc` here, a TLB walk inside [`Cpu::translate`] — and retires nothing.
/// It has one caller and must be part of it: out of line, every guest
/// instruction pays a call, a stack frame and a `Result` through memory.
#[inline(always)]
fn exec(cpu: &mut Cpu, mem: &mut Memory, pi: &PredInst, blk: &Block) -> Result<Flow, Fault> {
    cpu.pc = pi.next_pc;
    match pi.op {
        PredOp::Nop => {}
        PredOp::MovRR(d, s) => cpu.set_reg(d, cpu.reg(s)),
        PredOp::MovRI(d, imm) => cpu.set_reg(d, imm),
        PredOp::AluRR(op, d, s) => {
            let (a, b) = (cpu.reg(d), cpu.reg(s));
            let v = match op {
                Alu::Div | Alu::Mod => div_mod(op, a, b, pi.pc)?,
                _ => alu_value(op, a, b),
            };
            cpu.set_reg(d, v);
        }
        PredOp::AluRI(op, d, imm) => {
            let a = cpu.reg(d);
            let v = match op {
                Alu::Div | Alu::Mod => div_mod(op, a, imm, pi.pc)?,
                _ => alu_value(op, a, imm),
            };
            cpu.set_reg(d, v);
        }
        PredOp::Neg(r) => cpu.set_reg(r, (cpu.reg(r) as i64).wrapping_neg() as u64),
        PredOp::Not(r) => cpu.set_reg(r, !cpu.reg(r)),
        PredOp::CmpRR(a, b) => cpu.set_cmp_flags(cpu.reg(a), cpu.reg(b)),
        PredOp::CmpRI(a, imm) => cpu.set_cmp_flags(cpu.reg(a), imm),
        PredOp::MovRCr(d, cr) => cpu.set_reg(d, cpu.read_cr(cr)),
        PredOp::Jmp(target) => cpu.pc = target,
        PredOp::Jcc(c, target) => {
            if cpu.cond_holds(c) {
                cpu.clock.tick(costs::GUEST_BRANCH_TAKEN);
                cpu.pc = target;
            }
        }
        PredOp::JmpR(r) => cpu.pc = cpu.reg(r),
        PredOp::Call(target) => {
            let written = cpu.push_untimed(mem, pi.next_pc)?;
            cpu.pc = target;
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::CallR(r) => {
            let target = cpu.reg(r);
            let written = cpu.push_untimed(mem, pi.next_pc)?;
            cpu.pc = target;
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::Ret => cpu.pc = cpu.pop_untimed(mem)?,
        PredOp::Push(r) => {
            let written = cpu.push_untimed(mem, cpu.reg(r))?;
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::Pop(r) => {
            let v = cpu.pop_untimed(mem)?;
            cpu.set_reg(r, v);
        }
        PredOp::Load(w, d, base, off) => {
            let addr = cpu.reg(base).wrapping_add(off as i64 as u64);
            let v = cpu.load_untimed(mem, addr, w)?;
            cpu.set_reg(d, v);
        }
        PredOp::Store(w, base, off, s) => {
            let addr = cpu.reg(base).wrapping_add(off as i64 as u64);
            let written = cpu.store_untimed(mem, addr, w, cpu.reg(s))?;
            if blk.hits(written, w.bytes()) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::Mark(id) => {
            // What the clock will read once the block's prefix up to here
            // is charged: nothing else in a block reads it.
            let now = cpu.clock.now() + Cycles(pi.cycles.into());
            cpu.marks.push((id, now));
        }
        PredOp::CmpRIJcc(a, imm, c, target) => {
            cpu.set_cmp_flags(cpu.reg(a), imm);
            if cpu.cond_holds(c) {
                cpu.clock.tick(costs::GUEST_BRANCH_TAKEN);
                cpu.pc = target;
            }
        }
        // The pairs whose first half can fault hold `pc` on their second
        // half while the first runs, as the reference does.
        PredOp::PopPush { d, s, mid } => {
            cpu.pc = mid;
            let v = cpu.pop_untimed(mem)?;
            cpu.set_reg(d, v);
            cpu.pc = pi.next_pc;
            let written = cpu.push_untimed(mem, cpu.reg(s))?;
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::PopAluRR { d, op, d2, s2, mid } => {
            cpu.pc = mid;
            let v = cpu.pop_untimed(mem)?;
            cpu.set_reg(d, v);
            cpu.pc = pi.next_pc;
            cpu.set_reg(d2, alu_value(op, cpu.reg(d2), cpu.reg(s2)));
        }
        PredOp::AluRICall(op, d, imm, target) => {
            cpu.set_reg(d, alu_value(op, cpu.reg(d), imm));
            let written = cpu.push_untimed(mem, pi.next_pc)?;
            cpu.pc = target;
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::MovRRPop(d, s, pd) => {
            cpu.set_reg(d, cpu.reg(s));
            let v = cpu.pop_untimed(mem)?;
            cpu.set_reg(pd, v);
        }
        PredOp::PushLoad {
            a,
            w,
            d,
            base,
            off,
            mid,
        } => {
            cpu.pc = mid;
            let written = cpu.push_untimed(mem, cpu.reg(a))?;
            if blk.hits(written, 8) {
                // The push may have rewritten the load: it runs from the
                // new bytes, as the reference fetches them.
                return Ok(Flow::SelfModified);
            }
            cpu.pc = pi.next_pc;
            let addr = cpu.reg(base).wrapping_add(off as i64 as u64);
            let v = cpu.load_untimed(mem, addr, w)?;
            cpu.set_reg(d, v);
        }
    }
    Ok(Flow::Next)
}

/// Block entries of one [`run_fast`] call by how each was served, summed in
/// locals and credited to the process-wide counters once per run.
#[derive(Default)]
struct Dispatches {
    front: u64,
    map: u64,
    built: u64,
    reference: u64,
    loops: u64,
    loop_iterations: u64,
}

/// The fast engine's run loop. Semantically identical to
/// [`Cpu::run_ref`](crate::cpu::Cpu::run_ref) — the differential harness
/// holds it to that, bit for bit and cycle for cycle.
///
/// The block cache is detached from the CPU for the duration of the run, so
/// the loop can hold `&Block` out of the arena next to `&mut Cpu`, and
/// re-attached on every way out — exit, step limit or fault.
pub(crate) fn run_fast(cpu: &mut Cpu, mem: &mut Memory, max_steps: u64) -> Result<CpuExit, Fault> {
    let mut cache = std::mem::take(&mut cpu.pred);
    let mut n = Dispatches::default();
    let result = run_blocks(cpu, mem, &mut cache, &mut n, max_steps);
    cpu.pred = cache;
    for (counter, by) in [
        (&DISPATCH_FRONT, n.front),
        (&DISPATCH_MAP, n.map),
        (&DISPATCH_BUILT, n.built),
        (&DISPATCH_REFERENCE, n.reference),
        (&DISPATCH_LOOP, n.loops),
        (&LOOP_ITERATIONS, n.loop_iterations),
    ] {
        if by != 0 {
            counter.fetch_add(by, Ordering::Relaxed);
        }
    }
    result
}

/// Runs as many iterations of the counted loop `blk` as its back edge
/// takes, the `budget` holds and every store of them stays below the
/// identity window's end and inside guest memory (so it is tick-free and
/// cannot fault) and clear of the block's own bytes; returns how many, or
/// `None` when not even the first qualifies and the block must run as
/// usual.
///
/// The effect is the reference's: the trip count `k` is the first back
/// edge not taken ([`CountedLoop::trips`]), the bytes and the memory
/// ledger are those of the `k` iterations' stores
/// ([`CountedLoop::store`]); each register advances by its step per
/// iteration; the flags are the last `cmp`'s; `pc` is the block start or
/// its fall-through; and the clock and the retired count are the block's
/// total per iteration plus a taken branch per back edge taken. Nothing in
/// the body reads the clock, and the block's bytes never change under it.
#[inline(never)]
fn fast_forward(cpu: &mut Cpu, mem: &mut Memory, blk: &Block, budget: u64) -> Option<u64> {
    let lp = blk.counted.as_deref()?;
    let (cycles, retired) = blk.total();
    let bound = cpu.identity_end().min(mem.size() as u64);
    let regs = cpu.regs;
    // No more iterations than the budget holds, nor than the clock can
    // count: the charge below cannot overflow, however many the guest asks.
    let headroom = u64::MAX - cpu.clock.now().get();
    let mut cap = (budget / retired).min(headroom / (cycles + costs::GUEST_BRANCH_TAKEN));
    for st in &lp.stores {
        let (at, _) = lp.store_at(&regs, st, 0);
        cap = cap.min(blk.safe_stores(at, lp.stride(st), st.w.bytes(), bound));
    }
    if cap == 0 {
        return None;
    }
    let (reg, imm, cond) = lp.cmp;
    let k = lp.trips(cpu, regs[reg.index()], cap);
    lp.store(&regs, mem, k);
    for (r, step) in cpu.regs.iter_mut().zip(lp.step) {
        *r = r.wrapping_add(step.wrapping_mul(k));
    }
    // The last compare's flags stay set.
    cpu.set_cmp_flags(cpu.regs[reg.index()], imm);
    let taken = cpu.cond_holds(cond);
    let last = &blk.insts[blk.insts.len() - 1];
    cpu.pc = if taken { blk.start } else { last.next_pc };
    let back_edges = k - 1 + u64::from(taken);
    let cycles = k * cycles + back_edges * costs::GUEST_BRANCH_TAKEN;
    charge(cpu, (cycles, k * retired));
    Some(k)
}

/// Ticks a block's static `cycles` and credits its `retired` instructions.
#[inline(always)]
fn charge(cpu: &mut Cpu, (cycles, retired): (u64, u64)) {
    cpu.clock.tick(cycles);
    cpu.insts_retired += retired;
}

#[inline(never)]
fn run_blocks(
    cpu: &mut Cpu,
    mem: &mut Memory,
    cache: &mut PredCache,
    n: &mut Dispatches,
    max_steps: u64,
) -> Result<CpuExit, Fault> {
    // Every path below retires through `cpu.insts_retired`, so the budget is
    // a bound on that counter.
    let limit = cpu.insts_retired.saturating_add(max_steps);
    while cpu.insts_retired < limit {
        if cpu.first_inst_pending {
            cpu.first_inst_pending = false;
            cpu.clock.tick(costs::GUEST_FIRST_INSTRUCTION);
        }
        // Anything `acquire`/`build` refuses (decode faults, reference-only
        // classes, long-mode pages outside the cacheable set) single-steps
        // on the reference path.
        let slot = match cache.acquire(cpu, mem, n, limit) {
            Acquired::Block(slot) => slot,
            Acquired::Reference => {
                n.reference += 1;
                if let Some(exit) = cpu.step(mem)? {
                    return Ok(exit);
                }
                continue;
            }
            Acquired::FastForwarded => continue,
        };
        let blk = cache.block(slot);
        let budget = limit - cpu.insts_retired;
        if blk.total().1 > budget {
            // Less than one block of budget left: the reference path lands
            // the step limit on the exact instruction boundary, fused pairs
            // included. At most `MAX_BLOCK_INSTS - 1` steps per run, and only
            // when the caller's watchdog is about to fire.
            let before = cpu.insts_retired;
            let tail = cpu.run_ref(mem, budget);
            n.reference += cpu.insts_retired - before;
            return tail;
        }
        // The whole block fits in the remaining budget: the one dispatch
        // site, with no per-instruction budget checks.
        let mut stop = None;
        for pi in blk.insts.iter() {
            match exec(cpu, mem, pi, blk) {
                Ok(Flow::Next) => {}
                flow => {
                    stop = Some((pi, flow));
                    break;
                }
            }
        }
        // The block's static cycles and retired count, charged once: in
        // full, or through the instruction it stopped in. Ticks only add
        // and nothing but `mark` reads the clock inside a block, so every
        // exit, fault and `mark` sees the reference's value.
        let Some((pi, flow)) = stop else {
            charge(cpu, blk.total());
            continue;
        };
        if let Err(fault) = flow {
            charge(cpu, pi.stopped_prefix(cpu.pc));
            return Err(fault);
        }
        // Stopped without a fault: a store into the block's own bytes.
        charge(cpu, pi.stopped_prefix(cpu.pc));
        cache.remove(slot);
    }
    Ok(CpuExit::StepLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cpu::{CpuConfig, Machine};
    use vclock::Clock;

    fn fast_machine(src: &str) -> Machine {
        let img = assemble(src).expect("assemble");
        let mut m = Machine::new(Clock::new(), CpuConfig::default(), 1 << 20, img.entry);
        m.load_image(&img);
        m.cpu.set_engine(Engine::Fast);
        m
    }

    #[test]
    fn only_adds_subs_and_stores_closed_by_a_branch_to_the_block_start_are_counted_loops() {
        let is_counted = |body: &str, back: &str| {
            let src = format!(
                ".org 0x1000\n mov sp, 0xF000\n mov r5, 0x3000\n jmp lp\n\
                 lp:\n{body}\nmid:\n add r3, 1\n cmp r3, 9\n {back}\n hlt\n"
            );
            let mut m = fast_machine(&src);
            assert_eq!(m.run(10_000), Ok(CpuExit::Hlt));
            let lp = assemble(&src).unwrap().label("lp").unwrap();
            let at_lp = m.cpu.pred.slots.iter().flatten().find(|b| b.start == lp);
            at_lp.expect("the loop's block is cached").counted.is_some()
        };
        assert!(is_counted(" store.q [r5 + 0], r3\n sub r5, 8", "jl lp"));
        assert!(is_counted(" add r1, 2\n store.b [r5 - 3], r1", "jne lp"));
        assert!(!is_counted(" store.q [r5 + 0], r3\n mark 1", "jl lp"));
        assert!(!is_counted(" load.q r1, [r5 + 0]", "jl lp"));
        assert!(!is_counted(" xor r1, 2", "jl lp"));
        assert!(!is_counted(" store.q [r5 + 0], r3", "jl mid"));
    }

    #[test]
    fn closed_form_trip_counts_are_the_first_compare_that_fails() {
        use vclock::rng::Rng;
        const CONDS: [Cond; 10] = [
            Cond::Eq,
            Cond::Ne,
            Cond::Lt,
            Cond::Le,
            Cond::Gt,
            Cond::Ge,
            Cond::B,
            Cond::Be,
            Cond::A,
            Cond::Ae,
        ];
        let mut cpu = fast_machine(".org 0x1000\n hlt\n").cpu;
        let mut rng = Rng::seeded(0x7219);
        let edges = [0, 1, 1 << 63, (1 << 63) - 1, u64::MAX - 16, u64::MAX];
        let mut closed = 0;
        for _ in 0..20_000 {
            let near = |rng: &mut Rng| {
                edges[rng.below(edges.len())]
                    .wrapping_add(rng.below(41) as u64)
                    .wrapping_sub(20)
            };
            let x0 = near(&mut rng);
            let step = [0, 1, 3, 4096, rng.next_u64() >> rng.below(64)][rng.below(5)];
            let step = [step, step.wrapping_neg()][rng.below(2)];
            let imm = [
                near(&mut rng),
                x0.wrapping_add(step.wrapping_mul(rng.range_u64(0, 300))),
            ][rng.below(2)];
            let (cond, cap) = (CONDS[rng.below(10)], rng.range_u64(1, 300));
            let mut holds = |i: u64| {
                cpu.set_cmp_flags(x0.wrapping_add(step.wrapping_mul(i)), imm);
                cpu.cond_holds(cond)
            };
            let iterated = (1..cap).find(|&i| !holds(i)).unwrap_or(cap);
            if let Some(k) = closed_trips(x0, step, imm, cond, cap) {
                assert_eq!(
                    k, iterated,
                    "{x0:#x} + {step:#x}·i, {cond:?} {imm:#x}, cap {cap}"
                );
                closed += 1;
            }
        }
        assert!(closed > 15_000, "only {closed} in closed form");
    }

    #[test]
    fn a_fresh_cache_owns_no_heap_memory() {
        let cache = PredCache::default();
        assert_eq!(cache.map.capacity(), 0);
        assert_eq!(cache.slots.capacity(), 0);
        assert_eq!(cache.free.capacity(), 0);
        assert_eq!(cache.by_page.capacity(), 0);
        assert_eq!(cache.front.capacity(), 0);
    }

    #[test]
    fn the_cache_is_back_on_the_cpu_after_every_kind_of_exit() {
        // Five turns of a loop, an `out`, then a divide by zero.
        let src = ".org 0x1000\n mov sp, 0xF000\n mov r0, 0\n\
                   loop:\n add r0, 1\n cmp r0, 5\n jl loop\n\
                   \x20 out 2, r0\n mov r1, 0\n div r0, r1\n hlt\n";
        let mut m = fast_machine(src);
        let entry = m.cpu.save_state();
        let three_exits = |m: &mut Machine| {
            assert_eq!(m.run(3), Ok(CpuExit::StepLimit));
            let after_limit = m.cpu.pred.map.len();
            assert!(matches!(m.run(1_000), Ok(CpuExit::IoOut { .. })));
            let after_out = m.cpu.pred.map.len();
            assert!(matches!(m.run(1_000), Err(Fault::DivideByZero { .. })));
            [after_limit, after_out, m.cpu.pred.map.len()]
        };
        let first = three_exits(&mut m);
        assert!(first[0] > 0, "lost on the way out of a step limit");
        assert!(first[1] > first[0], "lost on the way out of an `out`");
        assert!(first[2] > first[1], "lost on the way out of a fault");
        // Same code again: every block is already there, in the same slots.
        let slots = m.cpu.pred.slots.len();
        m.cpu.restore_state(&entry);
        assert_eq!(three_exits(&mut m), [first[2]; 3]);
        assert_eq!(m.cpu.pred.slots.len(), slots);
        assert!(m.cpu.pred.free.is_empty());
    }

    #[test]
    fn a_capacity_flush_mid_run_leaves_the_refilled_cache_on_the_cpu() {
        // More one-instruction blocks than the cache holds, chained by
        // jumps: the bound trips while the cache is detached from the CPU.
        use std::fmt::Write as _;
        let hops = MAX_CACHED_BLOCKS + 400;
        let mut src = String::from(".org 0x1000\n mov sp, 0xF000\n");
        for i in 0..hops {
            let _ = writeln!(src, "  jmp H{i}\n  hlt\nH{i}:");
        }
        src.push_str("  hlt\n");
        let mut m = fast_machine(&src);
        assert_eq!(m.run(1_000_000), Ok(CpuExit::Hlt));
        let cache = &m.cpu.pred;
        // The prologue's block and one per hop but the last, which is only
        // the `hlt`; the flush emptied the cache once, on the way.
        assert_eq!(cache.map.len(), hops - MAX_CACHED_BLOCKS);
        assert_eq!(cache.slots.iter().flatten().count(), cache.map.len());
    }
}
