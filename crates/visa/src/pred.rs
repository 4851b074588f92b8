//! The predecoded basic-block interpreter — the fast engine behind
//! [`Cpu::run`](crate::cpu::Cpu::run).
//!
//! ROADMAP item 3 asks for the guest interpreter to be restructured the way
//! lightweight-VM interpreters are: split decode from execute, dispatch on a
//! dense opcode class, and charge virtual time from a per-class cost table
//! instead of re-deriving it per step. This module does exactly that:
//!
//! * **Predecode.** Straight-line runs of guest code are lazily decoded once
//!   into a cached [`Vec<PredInst>`] (a *block*), keyed by `(mode, start
//!   pc)`. Relative branch targets are resolved to absolute addresses at
//!   build time, immediates are unpacked, and the per-instruction base cycle
//!   cost is pre-summed from [`vclock::costs::GUEST_CLASS_BASE`] — execution
//!   never touches [`Inst::decode`](crate::inst::Inst::decode) again.
//! * **Superinstructions.** The 2-instruction patterns `vcc::codegen`
//!   actually emits are fused at build time: `cmp`+`jcc` (every compiled
//!   `if`/`while`), `mov ri`+`alu rr` (constant operands), and the
//!   `push`/`push` · `push`/`mov` prologue pairs. A fused pair dispatches
//!   once but retires two instructions.
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
//!   ([`Cpu::adopt_predecode`](crate::cpu::Cpu::adopt_predecode)), and the
//!   memory paths underneath mark what they rewrite — `clear` and the sparse
//!   restore every page, the delta re-arm exactly the pages it copies back.
//!   A warm re-arm that rewrites stack and data pages therefore rebuilds and
//!   revalidates nothing; a full restore costs one byte comparison per
//!   retained block; a shell handed to a different image drops the previous
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
//! whose timing is position-independent; anything mode-dependent (`hlt`,
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
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use vclock::costs;

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
}

/// Snapshot of the process-wide guest-execution counters.
pub fn counters() -> Counters {
    Counters {
        retired_fast: RETIRED_FAST.load(Ordering::Relaxed),
        retired_ref: RETIRED_REF.load(Ordering::Relaxed),
        blocks_built: BLOCKS_BUILT.load(Ordering::Relaxed),
        blocks_invalidated: BLOCKS_INVALIDATED.load(Ordering::Relaxed),
        superinsts_fused: SUPERINSTS_FUSED.load(Ordering::Relaxed),
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
    /// Fused `cmp a, b` + `jcc cond, target`.
    CmpRRJcc(Reg, Reg, Cond, u64),
    /// Fused `cmp a, imm` + `jcc cond, target`.
    CmpRIJcc(Reg, u64, Cond, u64),
    /// Fused `mov d1, imm` + `d2 op= s2` (op never div/mod — those fault).
    MovRIAluRR(Reg, u64, Alu, Reg, Reg),
    /// Fused `push a` + `push b` (argument set-up).
    PushPush(Reg, Reg),
    /// Fused `push a` + `mov d, s` (the `push fp; mov fp, sp` prologue).
    PushMovRR(Reg, Reg, Reg),
    /// Fused `push a` + `d op= imm` (caller-save then adjust, op always
    /// plain-ALU class). `mid` is the second instruction's address.
    PushAluRI {
        a: Reg,
        op: Alu,
        d: Reg,
        imm: u64,
        mid: u64,
    },
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
    /// Fused `mov d, s` + `ret` (move a result into place and return).
    MovRRRet(Reg, Reg),
    /// Fused `mov d, s` + `pop pd` (`vcc`'s binary-operator operand
    /// shuffle: `mov r10, r0` + `pop r0`).
    MovRRPop(Reg, Reg, Reg),
    /// Fused `pop r` + `ret` (function epilogue). `mid` is the `ret`'s
    /// address.
    PopRet {
        r: Reg,
        mid: u64,
    },
    /// Fused `cmp a, b` + `mov d, imm` (comparison materialisation).
    CmpRRMovRI(Reg, Reg, Reg, u64),
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
    /// Base cycles ticked up-front — chosen so the virtual clock matches the
    /// reference interpreter at every point a fault or `mark` can observe it.
    cost: u64,
    /// Address of the instruction (fault payloads for div/mod).
    pc: u64,
    /// Address of the next sequential instruction (past the whole fused
    /// pair for superinstructions).
    next_pc: u64,
}

impl PredInst {
    /// Instructions this dispatch retires (2 for superinstructions).
    fn retires(&self) -> u64 {
        match self.op {
            PredOp::CmpRRJcc(..)
            | PredOp::CmpRIJcc(..)
            | PredOp::MovRIAluRR(..)
            | PredOp::PushPush(..)
            | PredOp::PushMovRR(..)
            | PredOp::PushAluRI { .. }
            | PredOp::PopPush { .. }
            | PredOp::PopAluRR { .. }
            | PredOp::AluRICall(..)
            | PredOp::MovRRRet(..)
            | PredOp::MovRRPop(..)
            | PredOp::PopRet { .. }
            | PredOp::CmpRRMovRI(..)
            | PredOp::PushLoad { .. } => 2,
            _ => 1,
        }
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
    src: Vec<u8>,
    insts: Vec<PredInst>,
    /// Instructions the whole block retires (fused pairs count 2) — lets
    /// the run loop hoist the step-budget check out of the dispatch loop.
    retire_total: u64,
}

impl Block {
    fn page_lo(&self) -> u64 {
        self.start / PAGE_SIZE
    }

    fn page_hi(&self) -> u64 {
        (self.end - 1) / PAGE_SIZE
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
}

/// A multiply-rotate hasher (fxhash-style) for the block map. One lookup
/// happens per *block dispatch*, where SipHash's keyed mixing costs more
/// than the dispatch itself; the keys are trusted guest pcs, so a
/// non-DoS-resistant hash is fine.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// [`BuildHasher`](std::hash::BuildHasher) for [`FxHasher`].
#[derive(Debug, Default, Clone)]
pub(crate) struct FxBuild;

impl std::hash::BuildHasher for FxBuild {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// Slots in the direct-mapped front cache over the block map.
const FRONT_SLOTS: usize = 64;

/// Front-cache slot for a block starting at `pc`.
#[inline]
fn front_idx(pc: u64) -> usize {
    (((pc >> 1) ^ (pc >> 7)) as usize) & (FRONT_SLOTS - 1)
}

/// Key of a cached block: the mode it was decoded in and its first byte.
type BlockKey = (Mode, u64);

/// The block cache. It belongs to the *shell* — the CPU/memory pair a
/// hypervisor pools and re-arms — not to one guest context: it survives
/// [`Cpu::restore_state`] and is carried across a vCPU reset by
/// [`Cpu::adopt_predecode`]. See the invariant in the module docs for why
/// that is safe.
#[derive(Debug)]
pub(crate) struct PredCache {
    blocks: HashMap<BlockKey, Rc<Block>, FxBuild>,
    /// Every cached block, listed under each 4 KiB page it overlaps (a block
    /// that straddles a boundary appears under both); indexed by page
    /// number and grown on demand, so never longer than guest memory has
    /// pages. A sweep revalidates one page's list: its cost follows the
    /// page, not the cache.
    by_page: Vec<Vec<BlockKey>>,
    /// Direct-mapped front cache over `blocks`: most dispatches re-enter one
    /// of a handful of hot blocks, and a slot hit skips the map probe
    /// entirely. Cleared wholesale whenever any block is dropped, so a slot
    /// can never outlive the map entry it mirrors.
    front: [Option<Rc<Block>>; FRONT_SLOTS],
}

impl Default for PredCache {
    fn default() -> PredCache {
        PredCache {
            blocks: HashMap::default(),
            by_page: Vec::new(),
            front: std::array::from_fn(|_| None),
        }
    }
}

impl PredCache {
    /// An empty cache.
    pub(crate) fn new() -> PredCache {
        PredCache::default()
    }

    /// Empties the front cache — required before any block leaves `blocks`.
    fn clear_front(&mut self) {
        self.front = std::array::from_fn(|_| None);
    }

    /// Drops every cached block (the capacity bound).
    fn flush(&mut self) {
        BLOCKS_INVALIDATED.fetch_add(self.blocks.len() as u64, Ordering::Relaxed);
        self.blocks.clear();
        self.by_page.clear();
        self.clear_front();
    }

    /// Caches a freshly built block, evicting everything first when the
    /// cache is full.
    fn insert(&mut self, blk: Rc<Block>) {
        if self.blocks.len() >= MAX_CACHED_BLOCKS {
            self.flush();
        }
        let key = (blk.mode, blk.start);
        for page in blk.page_lo() as usize..=blk.page_hi() as usize {
            if page >= self.by_page.len() {
                self.by_page.resize_with(page + 1, Vec::new);
            }
            self.by_page[page].push(key);
        }
        self.blocks.insert(key, blk);
    }

    /// Removes `blk` from the list of every page it overlaps.
    fn unlink(by_page: &mut [Vec<BlockKey>], blk: &Block) {
        let key = (blk.mode, blk.start);
        for page in blk.page_lo()..=blk.page_hi() {
            by_page[page as usize].retain(|k| *k != key);
        }
    }

    /// Drops one block (self-modifying store into its own range).
    fn remove(&mut self, mode: Mode, start: u64) {
        if let Some(blk) = self.blocks.remove(&(mode, start)) {
            PredCache::unlink(&mut self.by_page, &blk);
            BLOCKS_INVALIDATED.fetch_add(1, Ordering::Relaxed);
            self.clear_front();
        }
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
                // Taken out while it is rewritten, so that unlinking a stale
                // straddler from its *other* page can borrow the index.
                let mut keys = std::mem::take(&mut self.by_page[page as usize]);
                let before = keys.len();
                keys.retain(|key| {
                    if self.blocks[key].matches(mem) {
                        return true;
                    }
                    let stale = self.blocks.remove(key).expect("indexed block is cached");
                    PredCache::unlink(&mut self.by_page, &stale);
                    false
                });
                let dropped = before - keys.len();
                self.by_page[page as usize] = keys;
                if dropped > 0 {
                    BLOCKS_INVALIDATED.fetch_add(dropped as u64, Ordering::Relaxed);
                    // Mirrored front slots must go with the dropped blocks:
                    // the dirty bit that guarded them is about to clear.
                    self.clear_front();
                }
            }
            mem.clear_code_dirty_page(page);
        }
    }
}

// ---------------------------------------------------------------------------
// Block construction.

/// Longest single instruction encoding — the long-mode block builder stops
/// this far short of a 2 MiB page boundary so its probe never crosses one.
const MAX_INST_LEN: u64 = 10;

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
        if page_end - pc < MAX_INST_LEN {
            // Too close to the long-mode page boundary: a probe here could
            // straddle into the next page and charge its TLB walk early.
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
    let src = mem.slice(start, end - start).ok()?.to_vec();
    let insts = lower(&raw);
    let retire_total = insts.iter().map(PredInst::retires).sum();
    Some(Block {
        mode,
        start,
        end,
        src,
        insts,
        retire_total,
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

/// Base cycle cost of one instruction, from the per-class table.
fn class_cost(inst: &Inst) -> u64 {
    costs::GUEST_CLASS_BASE[inst.class() as usize]
}

/// Lowers a decoded run into predecoded form, fusing adjacent pairs.
fn lower(raw: &[(Inst, u64, u64)]) -> Vec<PredInst> {
    let mut out = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        let (inst, pc, len) = raw[i];
        let next_pc = pc.wrapping_add(len);
        if let Some(&(next, npc, nlen)) = raw.get(i + 1) {
            let n_next = npc.wrapping_add(nlen);
            let fused = match (inst, next) {
                (Inst::CmpRR(a, b), Inst::Jcc(c, rel)) => Some(PredInst {
                    op: PredOp::CmpRRJcc(a, b, c, abs_target(n_next, rel)),
                    // cmp's ALU tick + jcc's BRANCH tick; nothing can
                    // observe the clock between them.
                    cost: costs::GUEST_ALU + costs::GUEST_BRANCH,
                    pc,
                    next_pc: n_next,
                }),
                (Inst::CmpRI(a, imm), Inst::Jcc(c, rel)) => Some(PredInst {
                    op: PredOp::CmpRIJcc(a, imm, c, abs_target(n_next, rel)),
                    cost: costs::GUEST_ALU + costs::GUEST_BRANCH,
                    pc,
                    next_pc: n_next,
                }),
                (Inst::MovRI(d, imm), Inst::AluRR(op, d2, s2))
                    if !matches!(op, Alu::Div | Alu::Mod) =>
                {
                    Some(PredInst {
                        op: PredOp::MovRIAluRR(d, imm, op, d2, s2),
                        cost: costs::GUEST_ALU + class_cost(&next),
                        pc,
                        next_pc: n_next,
                    })
                }
                (Inst::Push(a), Inst::Push(b)) => Some(PredInst {
                    op: PredOp::PushPush(a, b),
                    // Only the first push's STACK tick: its store can fault,
                    // so the second push's ticks stay behind it.
                    cost: costs::GUEST_STACK,
                    pc,
                    next_pc: n_next,
                }),
                (Inst::Push(a), Inst::MovRR(d, s)) => Some(PredInst {
                    op: PredOp::PushMovRR(a, d, s),
                    cost: costs::GUEST_STACK,
                    pc,
                    next_pc: n_next,
                }),
                // The Push/Pop-first pairs below carry only the first half's
                // STACK tick in `cost`: the stack op can fault, so the second
                // half's tick stays behind it (dispatched in the exec arm).
                // The second halves are restricted to plain-ALU-class ops so
                // that deferred tick is the constant `GUEST_ALU`.
                (Inst::Push(a), Inst::AluRI(op, d, imm)) if plain_alu(op) => Some(PredInst {
                    op: PredOp::PushAluRI {
                        a,
                        op,
                        d,
                        imm,
                        mid: npc,
                    },
                    cost: costs::GUEST_STACK,
                    pc,
                    next_pc: n_next,
                }),
                (Inst::Pop(d), Inst::Push(s)) => Some(PredInst {
                    op: PredOp::PopPush { d, s, mid: npc },
                    cost: costs::GUEST_STACK,
                    pc,
                    next_pc: n_next,
                }),
                (Inst::Pop(d), Inst::AluRR(op, d2, s2)) if plain_alu(op) => Some(PredInst {
                    op: PredOp::PopAluRR {
                        d,
                        op,
                        d2,
                        s2,
                        mid: npc,
                    },
                    cost: costs::GUEST_STACK,
                    pc,
                    next_pc: n_next,
                }),
                (Inst::AluRI(op, d, imm), Inst::Call(rel))
                    if !matches!(op, Alu::Div | Alu::Mod) =>
                {
                    Some(PredInst {
                        op: PredOp::AluRICall(op, d, imm, abs_target(n_next, rel)),
                        // The ALU half cannot fault, so the call's base tick
                        // merges up front; its push faults *after* both.
                        cost: class_cost(&inst) + costs::GUEST_CALLRET,
                        pc,
                        next_pc: n_next,
                    })
                }
                (Inst::MovRR(d, s), Inst::Ret) => Some(PredInst {
                    op: PredOp::MovRRRet(d, s),
                    cost: costs::GUEST_ALU + costs::GUEST_CALLRET,
                    pc,
                    next_pc: n_next,
                }),
                (Inst::MovRR(d, s), Inst::Pop(pd)) => Some(PredInst {
                    op: PredOp::MovRRPop(d, s, pd),
                    // The mov cannot fault: both base ticks merge up front,
                    // ahead of the pop's (faultable, internally ticked) load.
                    cost: costs::GUEST_ALU + costs::GUEST_STACK,
                    pc,
                    next_pc: n_next,
                }),
                (Inst::Pop(r), Inst::Ret) => Some(PredInst {
                    op: PredOp::PopRet { r, mid: npc },
                    cost: costs::GUEST_STACK,
                    pc,
                    next_pc: n_next,
                }),
                (Inst::CmpRR(a, b), Inst::MovRI(d, imm)) => Some(PredInst {
                    op: PredOp::CmpRRMovRI(a, b, d, imm),
                    cost: costs::GUEST_ALU + costs::GUEST_ALU,
                    pc,
                    next_pc: n_next,
                }),
                (Inst::Push(a), Inst::Load(w, d, base, off)) => Some(PredInst {
                    op: PredOp::PushLoad {
                        a,
                        w,
                        d,
                        base,
                        off,
                        mid: npc,
                    },
                    // The load's class base is zero (`cpu.load` ticks MEM
                    // itself), so only the push's STACK tick rides up front.
                    cost: costs::GUEST_STACK,
                    pc,
                    next_pc: n_next,
                }),
                _ => None,
            };
            if let Some(p) = fused {
                out.push(p);
                SUPERINSTS_FUSED.fetch_add(1, Ordering::Relaxed);
                i += 2;
                continue;
            }
        }
        out.push(lower_one(inst, pc, next_pc));
        i += 1;
    }
    out
}

/// Lowers a single (unfused) instruction.
fn lower_one(inst: Inst, pc: u64, next_pc: u64) -> PredInst {
    let base = class_cost(&inst);
    let (op, cost) = match inst {
        Inst::Nop => (PredOp::Nop, base),
        Inst::MovRR(d, s) => (PredOp::MovRR(d, s), base),
        Inst::MovRI(d, imm) => (PredOp::MovRI(d, imm), base),
        Inst::AluRR(op, d, s) => (PredOp::AluRR(op, d, s), base),
        Inst::AluRI(op, d, imm) => (PredOp::AluRI(op, d, imm), base),
        Inst::Neg(r) => (PredOp::Neg(r), base),
        Inst::Not(r) => (PredOp::Not(r), base),
        Inst::CmpRR(a, b) => (PredOp::CmpRR(a, b), base),
        Inst::CmpRI(a, imm) => (PredOp::CmpRI(a, imm), base),
        Inst::MovRCr(d, cr) => (PredOp::MovRCr(d, cr), base),
        Inst::Jmp(rel) => (
            PredOp::Jmp(abs_target(next_pc, rel)),
            base + costs::GUEST_BRANCH_TAKEN,
        ),
        Inst::Jcc(c, rel) => (PredOp::Jcc(c, abs_target(next_pc, rel)), base),
        Inst::JmpR(r) => (PredOp::JmpR(r), base + costs::GUEST_BRANCH_TAKEN),
        Inst::Call(rel) => (PredOp::Call(abs_target(next_pc, rel)), base),
        Inst::CallR(r) => (PredOp::CallR(r), base),
        Inst::Ret => (PredOp::Ret, base),
        Inst::Push(r) => (PredOp::Push(r), base),
        Inst::Pop(r) => (PredOp::Pop(r), base),
        Inst::Load(w, d, b, off) => (PredOp::Load(w, d, b, off), base),
        Inst::Store(w, b, off, s) => (PredOp::Store(w, b, off, s), base),
        Inst::Mark(id) => (PredOp::Mark(id), base),
        Inst::Hlt
        | Inst::In(..)
        | Inst::Out(..)
        | Inst::Lgdt(_)
        | Inst::MovCr(..)
        | Inst::Wrmsr(..)
        | Inst::Ljmp(..) => unreachable!("class excluded by the block builder"),
    };
    PredInst {
        op,
        cost,
        pc,
        next_pc,
    }
}

// ---------------------------------------------------------------------------
// Execution.

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
/// Mirrors the reference `step()` exactly: `insts_retired` and `pc` advance
/// *before* the body (so fault states match), and the clock is ticked such
/// that every fault- or `mark`-observable point sees the reference value.
#[inline]
fn exec(cpu: &mut Cpu, mem: &mut Memory, pi: &PredInst, blk: &Block) -> Result<Flow, Fault> {
    if pi.cost != 0 {
        cpu.clock.tick(pi.cost);
    }
    // One dispatch: each arm advances `insts_retired` and `pc` *before* its
    // body (so fault states match the reference), via these macros.
    // Superinstructions with a faultable first half manage both per
    // sub-instruction inside their arms instead.
    macro_rules! retire1 {
        () => {
            cpu.insts_retired += 1;
            cpu.pc = pi.next_pc;
        };
    }
    macro_rules! retire2 {
        () => {
            cpu.insts_retired += 2;
            cpu.pc = pi.next_pc;
        };
    }
    match pi.op {
        PredOp::Nop => {
            retire1!();
        }
        PredOp::MovRR(d, s) => {
            retire1!();
            cpu.set_reg(d, cpu.reg(s));
        }
        PredOp::MovRI(d, imm) => {
            retire1!();
            cpu.set_reg(d, imm);
        }
        PredOp::AluRR(op, d, s) => {
            retire1!();
            let (a, b) = (cpu.reg(d), cpu.reg(s));
            let v = match op {
                Alu::Div | Alu::Mod => div_mod(op, a, b, pi.pc)?,
                _ => alu_value(op, a, b),
            };
            cpu.set_reg(d, v);
        }
        PredOp::AluRI(op, d, imm) => {
            retire1!();
            let a = cpu.reg(d);
            let v = match op {
                Alu::Div | Alu::Mod => div_mod(op, a, imm, pi.pc)?,
                _ => alu_value(op, a, imm),
            };
            cpu.set_reg(d, v);
        }
        PredOp::Neg(r) => {
            retire1!();
            cpu.set_reg(r, (cpu.reg(r) as i64).wrapping_neg() as u64);
        }
        PredOp::Not(r) => {
            retire1!();
            cpu.set_reg(r, !cpu.reg(r));
        }
        PredOp::CmpRR(a, b) => {
            retire1!();
            cpu.set_cmp_flags(cpu.reg(a), cpu.reg(b));
        }
        PredOp::CmpRI(a, imm) => {
            retire1!();
            cpu.set_cmp_flags(cpu.reg(a), imm);
        }
        PredOp::MovRCr(d, cr) => {
            retire1!();
            cpu.set_reg(d, cpu.read_cr(cr));
        }
        PredOp::Jmp(target) => {
            cpu.insts_retired += 1;
            cpu.pc = target;
        }
        PredOp::Jcc(c, target) => {
            retire1!();
            if cpu.cond_holds(c) {
                cpu.clock.tick(costs::GUEST_BRANCH_TAKEN);
                cpu.pc = target;
            }
        }
        PredOp::JmpR(r) => {
            cpu.insts_retired += 1;
            cpu.pc = cpu.reg(r);
        }
        PredOp::Call(target) => {
            retire1!();
            let written = cpu.push(mem, pi.next_pc)?;
            cpu.pc = target;
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::CallR(r) => {
            retire1!();
            let target = cpu.reg(r);
            let written = cpu.push(mem, pi.next_pc)?;
            cpu.pc = target;
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::Ret => {
            retire1!();
            cpu.pc = cpu.pop(mem)?;
        }
        PredOp::Push(r) => {
            retire1!();
            let written = cpu.push(mem, cpu.reg(r))?;
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::Pop(r) => {
            retire1!();
            let v = cpu.pop(mem)?;
            cpu.set_reg(r, v);
        }
        PredOp::Load(w, d, base, off) => {
            retire1!();
            let addr = cpu.reg(base).wrapping_add(off as i64 as u64);
            let v = cpu.load(mem, addr, w)?;
            cpu.set_reg(d, v);
        }
        PredOp::Store(w, base, off, s) => {
            retire1!();
            let addr = cpu.reg(base).wrapping_add(off as i64 as u64);
            let written = cpu.store(mem, addr, w, cpu.reg(s))?;
            if blk.hits(written, w.bytes()) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::Mark(id) => {
            retire1!();
            let now = cpu.clock.now();
            cpu.marks.push((id, now));
        }
        PredOp::CmpRRJcc(a, b, c, target) => {
            retire2!();
            cpu.set_cmp_flags(cpu.reg(a), cpu.reg(b));
            if cpu.cond_holds(c) {
                cpu.clock.tick(costs::GUEST_BRANCH_TAKEN);
                cpu.pc = target;
            }
        }
        PredOp::CmpRIJcc(a, imm, c, target) => {
            retire2!();
            cpu.set_cmp_flags(cpu.reg(a), imm);
            if cpu.cond_holds(c) {
                cpu.clock.tick(costs::GUEST_BRANCH_TAKEN);
                cpu.pc = target;
            }
        }
        PredOp::MovRIAluRR(d1, imm, op, d2, s2) => {
            retire2!();
            cpu.set_reg(d1, imm);
            let v = alu_value(op, cpu.reg(d2), cpu.reg(s2));
            cpu.set_reg(d2, v);
        }
        PredOp::PushPush(a, b) => {
            // First push: retire and advance pc past it (the second push is
            // a 2-byte encoding) so a stack fault leaves reference state.
            cpu.insts_retired += 1;
            cpu.pc = pi.next_pc.wrapping_sub(2);
            let w1 = cpu.push(mem, cpu.reg(a))?;
            cpu.insts_retired += 1;
            cpu.pc = pi.next_pc;
            cpu.clock.tick(costs::GUEST_STACK);
            let w2 = cpu.push(mem, cpu.reg(b))?;
            if blk.hits(w1, 8) || blk.hits(w2, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::PushMovRR(a, d, s) => {
            cpu.insts_retired += 1;
            cpu.pc = pi.next_pc.wrapping_sub(3); // mov r,r encodes in 3 bytes
            let written = cpu.push(mem, cpu.reg(a))?;
            cpu.insts_retired += 1;
            cpu.pc = pi.next_pc;
            cpu.clock.tick(costs::GUEST_ALU);
            cpu.set_reg(d, cpu.reg(s));
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::PushAluRI { a, op, d, imm, mid } => {
            cpu.insts_retired += 1;
            cpu.pc = mid;
            let written = cpu.push(mem, cpu.reg(a))?;
            cpu.insts_retired += 1;
            cpu.pc = pi.next_pc;
            cpu.clock.tick(costs::GUEST_ALU);
            cpu.set_reg(d, alu_value(op, cpu.reg(d), imm));
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::PopPush { d, s, mid } => {
            cpu.insts_retired += 1;
            cpu.pc = mid;
            let v = cpu.pop(mem)?;
            cpu.set_reg(d, v);
            cpu.insts_retired += 1;
            cpu.pc = pi.next_pc;
            cpu.clock.tick(costs::GUEST_STACK);
            let written = cpu.push(mem, cpu.reg(s))?;
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::PopAluRR { d, op, d2, s2, mid } => {
            cpu.insts_retired += 1;
            cpu.pc = mid;
            let v = cpu.pop(mem)?;
            cpu.set_reg(d, v);
            cpu.insts_retired += 1;
            cpu.pc = pi.next_pc;
            cpu.clock.tick(costs::GUEST_ALU);
            let v2 = alu_value(op, cpu.reg(d2), cpu.reg(s2));
            cpu.set_reg(d2, v2);
        }
        PredOp::AluRICall(op, d, imm, target) => {
            retire2!();
            cpu.set_reg(d, alu_value(op, cpu.reg(d), imm));
            let written = cpu.push(mem, pi.next_pc)?;
            cpu.pc = target;
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
        PredOp::MovRRRet(d, s) => {
            retire2!();
            cpu.set_reg(d, cpu.reg(s));
            cpu.pc = cpu.pop(mem)?;
        }
        PredOp::MovRRPop(d, s, pd) => {
            retire2!();
            cpu.set_reg(d, cpu.reg(s));
            let v = cpu.pop(mem)?;
            cpu.set_reg(pd, v);
        }
        PredOp::PopRet { r, mid } => {
            cpu.insts_retired += 1;
            cpu.pc = mid;
            let v = cpu.pop(mem)?;
            cpu.set_reg(r, v);
            cpu.insts_retired += 1;
            cpu.pc = pi.next_pc;
            cpu.clock.tick(costs::GUEST_CALLRET);
            cpu.pc = cpu.pop(mem)?;
        }
        PredOp::CmpRRMovRI(a, b, d, imm) => {
            retire2!();
            cpu.set_cmp_flags(cpu.reg(a), cpu.reg(b));
            cpu.set_reg(d, imm);
        }
        PredOp::PushLoad {
            a,
            w,
            d,
            base,
            off,
            mid,
        } => {
            cpu.insts_retired += 1;
            cpu.pc = mid;
            let written = cpu.push(mem, cpu.reg(a))?;
            cpu.insts_retired += 1;
            cpu.pc = pi.next_pc;
            let addr = cpu.reg(base).wrapping_add(off as i64 as u64);
            let v = cpu.load(mem, addr, w)?;
            cpu.set_reg(d, v);
            if blk.hits(written, 8) {
                return Ok(Flow::SelfModified);
            }
        }
    }
    Ok(Flow::Next)
}

/// Returns the block to execute at `cpu.pc`, building and caching it if
/// needed; `None` when the instruction there must run on the reference path.
fn acquire(cpu: &mut Cpu, mem: &mut Memory) -> Option<Rc<Block>> {
    // Long-mode blocks are only valid on TLB-resident identity-mapped code
    // pages (see `build`). Checking the *live* TLB here — not just at build
    // time — also covers CR3 switches: a CR3 write clears the TLB, so stale
    // blocks from a previous address space can never run. The reference step
    // this falls back to pays the walk tick faithfully and refills the TLB.
    if cpu.mode == Mode::Long64 && cpu.long_identity_page_end(cpu.pc).is_none() {
        return None;
    }
    // Hottest path: the direct-mapped front slot holds this exact block and
    // no write has landed on its pages since the last sweep — known-fresh
    // with no map probe and no revalidation.
    let slot = front_idx(cpu.pc);
    if let Some(blk) = &cpu.pred.front[slot] {
        if blk.start == cpu.pc
            && blk.mode == cpu.mode
            && !(blk.page_lo()..=blk.page_hi()).any(|page| mem.code_page_dirty(page))
        {
            return Some(blk.clone());
        }
    }
    let key = (cpu.mode, cpu.pc);
    if let Some(blk) = cpu.pred.blocks.get(&key) {
        let (lo, hi) = (blk.page_lo(), blk.page_hi());
        if !(lo..=hi).any(|page| mem.code_page_dirty(page)) {
            let blk = blk.clone();
            cpu.pred.front[slot] = Some(blk.clone());
            return Some(blk);
        }
        cpu.pred.sweep(mem, lo, hi);
        if let Some(blk) = cpu.pred.blocks.get(&key).cloned() {
            cpu.pred.front[slot] = Some(blk.clone());
            return Some(blk);
        }
    }
    let blk = build(cpu, mem)?;
    cpu.pred.sweep(mem, blk.page_lo(), blk.page_hi());
    let rc = Rc::new(blk);
    cpu.pred.insert(rc.clone());
    cpu.pred.front[slot] = Some(rc.clone());
    BLOCKS_BUILT.fetch_add(1, Ordering::Relaxed);
    Some(rc)
}

/// The fast engine's run loop. Semantically identical to
/// [`Cpu::run_ref`](crate::cpu::Cpu::run_ref) — the differential harness
/// holds it to that, bit for bit and cycle for cycle.
pub(crate) fn run_fast(cpu: &mut Cpu, mem: &mut Memory, max_steps: u64) -> Result<CpuExit, Fault> {
    let mut steps: u64 = 0;
    'outer: while steps < max_steps {
        if cpu.first_inst_pending {
            cpu.first_inst_pending = false;
            cpu.clock.tick(costs::GUEST_FIRST_INSTRUCTION);
        }
        // Anything `acquire`/`build` refuses (decode faults, reference-only
        // classes, long-mode pages outside the cacheable set) single-steps
        // on the reference path.
        let Some(blk) = acquire(cpu, mem) else {
            match cpu.step(mem)? {
                Some(exit) => return Ok(exit),
                None => {
                    steps += 1;
                    continue;
                }
            }
        };
        if steps + blk.retire_total <= max_steps {
            // The whole block fits in the remaining budget: dispatch with no
            // per-instruction budget checks (the overwhelmingly common case).
            for (i, pi) in blk.insts.iter().enumerate() {
                match exec(cpu, mem, pi, &blk)? {
                    Flow::Next => {}
                    Flow::SelfModified => {
                        steps += blk.insts[..=i].iter().map(PredInst::retires).sum::<u64>();
                        cpu.pred.remove(blk.mode, blk.start);
                        continue 'outer;
                    }
                }
            }
            steps += blk.retire_total;
            continue;
        }
        for pi in blk.insts.iter() {
            let retires = pi.retires();
            if steps + retires > max_steps {
                if steps >= max_steps {
                    continue 'outer;
                }
                // One instruction of budget left but the next dispatch is a
                // fused pair: finish on the reference path so the step limit
                // lands on the same instruction boundary.
                match cpu.step(mem)? {
                    Some(exit) => return Ok(exit),
                    None => {
                        steps += 1;
                        continue 'outer;
                    }
                }
            }
            match exec(cpu, mem, pi, &blk)? {
                Flow::Next => steps += retires,
                Flow::SelfModified => {
                    steps += retires;
                    cpu.pred.remove(blk.mode, blk.start);
                    continue 'outer;
                }
            }
        }
    }
    Ok(CpuExit::StepLimit)
}
