//! The VISA CPU interpreter with x86-style processor modes.
//!
//! The CPU models the parts of the x86 bring-up that dominate virtine
//! start-up cost (§4.2, Table 1): it resets into 16-bit real mode, and guest
//! code must perform the classic dance — `lgdt`, set CR0.PE, far-jump to
//! 32-bit code, build page tables, load CR3, enable CR4.PAE and EFER.LME,
//! set CR0.PG, far-jump to 64-bit code — before 64-bit execution is legal.
//! Each transition charges its calibrated cost from [`vclock::costs`], and
//! enabling paging charges the hypervisor-side EPT-construction cost the
//! backend configured.
//!
//! Execution is synchronous: [`Cpu::run`] interprets instructions until the
//! guest performs externally visible I/O (`in`/`out`/`hlt`), faults, or
//! exhausts the caller's step budget.

use vclock::{costs, Clock, Cycles};

use crate::inst::{
    Alu, Cond, CrReg, DecodeError, Inst, JmpMode, Reg, Width, CR0_PE, CR0_PG, CR4_PAE, EFER_LME,
    MSR_EFER,
};
use crate::mem::{Memory, PhysAccessError};
use crate::pred;

/// Which interpreter executes guest code in [`Cpu::run`].
///
/// The predecoded engine is the default; the reference engine is the
/// original fetch→decode→execute loop kept as the differential oracle,
/// selected per CPU with [`Cpu::set_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Predecoded basic-block interpreter ([`crate::pred`]).
    Fast,
    /// The original single-step loop (the differential oracle).
    Reference,
}

/// Processor execution mode (§4.2 "the three classic operating modes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// 16-bit real mode: 1 MiB address space, no translation.
    Real16,
    /// 32-bit protected mode: 4 GiB address space, no translation
    /// (the Figure 4 echo server runs here, "no paging").
    Prot32,
    /// 64-bit long mode: paged, 48-bit canonical addresses, 2 MiB pages.
    Long64,
}

/// Flags produced by `cmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Operands compared equal.
    pub eq: bool,
    /// Left operand was less than right, signed.
    pub lt_signed: bool,
    /// Left operand was less than right, unsigned.
    pub lt_unsigned: bool,
}

/// Reasons control returns from [`Cpu::run`] without a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuExit {
    /// The guest executed `hlt`.
    Hlt,
    /// The guest wrote `value` to `port` (a hypercall in Wasp's ABI).
    IoOut {
        /// Port number.
        port: u16,
        /// Register value written.
        value: u64,
    },
    /// The guest read from `port`; resume with [`Cpu::provide_in`].
    IoIn {
        /// Port number.
        port: u16,
    },
    /// The step budget given to [`Cpu::run`] was exhausted (watchdog).
    StepLimit,
}

/// Guest faults. A fault tears down the virtual context; Wasp reports it to
/// the virtine client. Faults never affect the host (§3.1 "host execution
/// and data integrity").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Instruction bytes failed to decode.
    Decode {
        /// Faulting instruction address.
        pc: u64,
        /// Underlying decode problem.
        cause: crate::inst::DecodeError,
    },
    /// A data or fetch access fell outside guest-physical memory
    /// (the EPT-violation analogue).
    PhysOutOfBounds {
        /// Offending guest-physical address.
        paddr: u64,
    },
    /// Address beyond the current mode's reach (e.g. >1 MiB in real mode).
    AddressBeyondMode {
        /// Offending virtual address.
        vaddr: u64,
        /// Mode at the time of the access.
        mode: Mode,
    },
    /// A long-mode translation found no valid mapping.
    PageFault {
        /// Faulting virtual address.
        vaddr: u64,
    },
    /// Divide (or remainder) by zero.
    DivideByZero {
        /// Faulting instruction address.
        pc: u64,
    },
    /// An illegal mode transition (missing GDT, PE, PAE, LME, or PG).
    ModeViolation {
        /// Human-readable description of the violated prerequisite.
        reason: &'static str,
    },
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Decode { pc, cause } => write!(f, "decode fault at {pc:#x}: {cause}"),
            Fault::PhysOutOfBounds { paddr } => {
                write!(f, "physical access out of bounds at {paddr:#x}")
            }
            Fault::AddressBeyondMode { vaddr, mode } => {
                write!(f, "address {vaddr:#x} unreachable in {mode:?}")
            }
            Fault::PageFault { vaddr } => write!(f, "page fault at {vaddr:#x}"),
            Fault::DivideByZero { pc } => write!(f, "divide by zero at {pc:#x}"),
            Fault::ModeViolation { reason } => write!(f, "mode violation: {reason}"),
        }
    }
}

impl std::error::Error for Fault {}

/// Per-context configuration a hypervisor backend applies to the CPU.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Cycles charged when the guest first enables CR0.PG, modelling
    /// nested-page-table construction inside the hypervisor (Table 1 bundles
    /// "construction of an EPT inside KVM" into the identity-map row).
    pub ept_build_cycles: u64,
    /// Charge [`costs::GUEST_FIRST_INSTRUCTION`] for the first instruction
    /// after each VM entry (Table 1's "First Instruction" row).
    pub charge_first_instruction: bool,
}

impl Default for CpuConfig {
    fn default() -> CpuConfig {
        CpuConfig {
            ept_build_cycles: costs::KVM_EPT_BUILD,
            charge_first_instruction: true,
        }
    }
}

impl CpuConfig {
    /// Configuration for native (non-virtualized) execution: no EPT charge,
    /// no VM-entry pipeline penalty.
    pub fn native() -> CpuConfig {
        CpuConfig {
            ept_build_cycles: 0,
            charge_first_instruction: false,
        }
    }
}

/// Architected CPU state captured by snapshots (§5.2 snapshotting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuState {
    /// General-purpose registers.
    pub regs: [u64; Reg::COUNT],
    /// Program counter.
    pub pc: u64,
    /// Processor mode.
    pub mode: Mode,
    /// CR0 (PE, PG).
    pub cr0: u64,
    /// CR3 (page-table base).
    pub cr3: u64,
    /// CR4 (PAE).
    pub cr4: u64,
    /// EFER (LME).
    pub efer: u64,
    /// GDT base, if loaded.
    pub gdt_base: Option<u64>,
    /// Comparison flags.
    pub flags: Flags,
}

/// The interpreter core.
#[derive(Debug)]
pub struct Cpu {
    /// General-purpose registers; `r15` is the stack pointer by convention.
    pub regs: [u64; Reg::COUNT],
    /// Program counter (virtual address).
    pub pc: u64,
    pub(crate) mode: Mode,
    cr0: u64,
    cr3: u64,
    cr4: u64,
    efer: u64,
    gdt_base: Option<u64>,
    pub(crate) flags: Flags,
    pub(crate) clock: Clock,
    config: CpuConfig,
    /// Milestones recorded by `mark` (id, timestamp).
    pub marks: Vec<(u8, Cycles)>,
    /// 2 MiB-page TLB, probed on every long-mode access by both engines.
    tlb: Tlb,
    /// An access wholly below this address is its own physical address, with
    /// no walk, tick or fault: the mode limit in real and protected mode; in
    /// long mode 2 MiB while the TLB holds the identity entry for virtual
    /// page 0, else 0. Derived from `mode` and `tlb` by
    /// [`Cpu::refresh_identity_end`] wherever either is written.
    identity_end: u64,
    /// Destination register of an in-flight `in` instruction.
    pub(crate) pending_in: Option<Reg>,
    pub(crate) first_inst_pending: bool,
    ept_built: bool,
    pub(crate) insts_retired: u64,
    engine: Engine,
    pub(crate) pred: pred::PredCache,
}

/// Entries in the [`Tlb`]; a power of two.
const TLB_ENTRIES: usize = 64;

/// A direct-mapped, tag-checked TLB over 2 MiB pages: entry `vpn % 64` holds
/// `(vpn, physical frame base)`. Its size is fixed, so a guest that maps
/// itself through a self-referential PML4 and strides across its whole
/// address space costs the host 1 KiB, not a map that grows with every page
/// it touches.
///
/// Replacement is the one policy both engines share (the TLB is architected
/// state: a miss is a walk tick). A refill displaces whatever entry its slot
/// held, *except* the entry translating the page the CPU is executing from:
/// a data access that collides with it is translated but not cached, the way
/// split instruction/data TLBs keep a data stream from evicting the running
/// code's translation. That rule is what lets a predecoded block rely on its
/// code page staying resident from its first instruction to its last.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tlb([(u64, u64); TLB_ENTRIES]);

impl Tlb {
    /// No 48-bit canonical address has this page number.
    const INVALID: u64 = u64::MAX;

    fn new() -> Tlb {
        Tlb([(Tlb::INVALID, 0); TLB_ENTRIES])
    }

    fn clear(&mut self) {
        *self = Tlb::new();
    }

    /// The physical frame base cached for `vpn`.
    #[inline]
    fn get(&self, vpn: u64) -> Option<u64> {
        let (tag, frame) = self.0[vpn as usize % TLB_ENTRIES];
        (tag == vpn).then_some(frame)
    }

    /// Caches `vpn → frame` unless that would displace `pinned_vpn`.
    fn fill(&mut self, vpn: u64, frame: u64, pinned_vpn: u64) {
        let slot = &mut self.0[vpn as usize % TLB_ENTRIES];
        if slot.0 != pinned_vpn {
            *slot = (vpn, frame);
        }
    }
}

const PAGE_2M_SHIFT: u64 = 21;
const PAGE_2M_MASK: u64 = (1 << PAGE_2M_SHIFT) - 1;
const PTE_PRESENT: u64 = 1 << 0;
const PTE_PS: u64 = 1 << 7;
const PTE_ADDR_MASK: u64 = 0x000F_FFFF_FFFF_F000;
const PDE_2M_ADDR_MASK: u64 = 0x000F_FFFF_FFE0_0000;
const REAL_MODE_LIMIT: u64 = 1 << 20;
const PROT_MODE_LIMIT: u64 = 1 << 32;
const CANONICAL_LIMIT: u64 = 1 << 48;

/// The guest fault for an access beyond guest-physical memory.
fn phys_fault(e: PhysAccessError) -> Fault {
    Fault::PhysOutOfBounds { paddr: e.paddr }
}

impl Cpu {
    /// Creates a CPU in the reset state: real mode, zeroed registers,
    /// `pc = entry`.
    pub fn new(clock: Clock, config: CpuConfig, entry: u64) -> Cpu {
        let mut cpu = Cpu {
            regs: [0; Reg::COUNT],
            pc: entry,
            mode: Mode::Real16,
            cr0: 0,
            cr3: 0,
            cr4: 0,
            efer: 0,
            gdt_base: None,
            flags: Flags::default(),
            clock,
            config,
            marks: Vec::new(),
            tlb: Tlb::new(),
            identity_end: 0,
            pending_in: None,
            first_inst_pending: false,
            ept_built: false,
            insts_retired: 0,
            engine: Engine::Fast,
            pred: pred::PredCache::default(),
        };
        cpu.refresh_identity_end();
        cpu
    }

    /// Current processor mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Which interpreter engine [`Cpu::run`] uses.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Overrides the interpreter engine (benchmarks and the differential
    /// harness; every CPU starts on [`Engine::Fast`]).
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// Total instructions retired by this CPU.
    pub fn insts_retired(&self) -> u64 {
        self.insts_retired
    }

    /// The shared clock this CPU charges.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Called by the hypervisor backend on each VM entry; arms the
    /// first-instruction pipeline-fill charge.
    pub fn note_vmentry(&mut self) {
        if self.config.charge_first_instruction {
            self.first_inst_pending = true;
        }
    }

    /// Supplies the value for an `in` instruction that caused an
    /// [`CpuExit::IoIn`] exit.
    ///
    /// # Panics
    ///
    /// Panics if no `in` is pending.
    pub fn provide_in(&mut self, value: u64) {
        let dst = self.pending_in.take().expect("no `in` pending");
        self.set_reg(dst, value);
    }

    /// Captures the architected state (for snapshotting).
    pub fn save_state(&self) -> CpuState {
        CpuState {
            regs: self.regs,
            pc: self.pc,
            mode: self.mode,
            cr0: self.cr0,
            cr3: self.cr3,
            cr4: self.cr4,
            efer: self.efer,
            gdt_base: self.gdt_base,
            flags: self.flags,
        }
    }

    /// Restores architected state captured by [`Cpu::save_state`].
    /// The TLB is flushed, mirroring a context reload.
    pub fn restore_state(&mut self, s: &CpuState) {
        self.regs = s.regs;
        self.pc = s.pc;
        self.mode = s.mode;
        self.cr0 = s.cr0;
        self.cr3 = s.cr3;
        self.cr4 = s.cr4;
        self.efer = s.efer;
        self.gdt_base = s.gdt_base;
        self.flags = s.flags;
        self.flush_tlb();
        self.pending_in = None;
        // A restored context was already warmed past its first instruction.
        self.first_inst_pending = false;
        self.ept_built = true;
        // The predecode cache is deliberately left alone: whatever rewrote
        // memory marked those pages code-dirty, so every retained block is
        // compared byte for byte with the restored memory before it runs
        // (the invariant at the top of `pred.rs`), and in long mode the
        // cleared TLB sends the first fetch through the reference step.
    }

    /// Takes over `donor`'s predecoded blocks, leaving it this CPU's own.
    /// For a hypervisor resetting a vCPU by building a fresh [`Cpu`]: the
    /// cache is host-side derived state of the *shell*, not architected
    /// state, and survives the reset like the shell's memory allocation
    /// does. `donor` must have run against the same [`Memory`] this CPU
    /// will — the cache's freshness protocol is that memory's code-dirty
    /// bitmap. (Across a VM's teardown, [`Memory::retire`] and
    /// [`Memory::revive`] carry the cache with its memory instead.)
    pub fn adopt_predecode(&mut self, donor: &mut Cpu) {
        std::mem::swap(&mut self.pred, &mut donor.pred);
    }

    /// Translates a virtual address for an access of `len` (at least one)
    /// bytes.
    ///
    /// An access wholly below `identity_end` — every access of a flat mode
    /// that stays inside its limit, and every long-mode access inside an
    /// identity-mapped, TLB-resident first 2 MiB page — is its own physical
    /// address: one compare, inlined into the caller. Anything else takes
    /// [`Cpu::translate_full`], which returns the same for those.
    #[inline(always)]
    pub(crate) fn translate(&mut self, mem: &Memory, vaddr: u64, len: u64) -> Result<u64, Fault> {
        debug_assert!(len > 0, "a zero-length access has no last byte");
        if vaddr.saturating_add(len) <= self.identity_end {
            return Ok(vaddr);
        }
        self.translate_full(mem, vaddr, len)
    }

    /// The identity window's end: an access wholly below it is its own
    /// physical address, with no walk, tick or fault ([`Cpu::translate`]).
    pub(crate) fn identity_end(&self) -> u64 {
        self.identity_end
    }

    /// [`Cpu::translate`] without the identity window: the mode limit, or
    /// the long-mode TLB and page walk.
    #[cold]
    #[inline(never)]
    fn translate_full(&mut self, mem: &Memory, vaddr: u64, len: u64) -> Result<u64, Fault> {
        let limit = match self.mode {
            Mode::Real16 => REAL_MODE_LIMIT,
            Mode::Prot32 => PROT_MODE_LIMIT,
            Mode::Long64 => {
                let last_byte = vaddr.wrapping_add(len.saturating_sub(1));
                if vaddr < CANONICAL_LIMIT && last_byte >> PAGE_2M_SHIFT == vaddr >> PAGE_2M_SHIFT {
                    if let Some(frame) = self.tlb.get(vaddr >> PAGE_2M_SHIFT) {
                        return Ok(frame | (vaddr & PAGE_2M_MASK));
                    }
                }
                return self.translate_long(mem, vaddr, len);
            }
        };
        if vaddr.saturating_add(len) > limit {
            return Err(self.beyond_mode(vaddr));
        }
        Ok(vaddr)
    }

    /// Re-derives `identity_end` from the mode and the TLB. Called wherever
    /// either is written: a stale bound would translate without the walk,
    /// tick or fault the full path takes.
    fn refresh_identity_end(&mut self) {
        self.identity_end = match self.mode {
            Mode::Real16 => REAL_MODE_LIMIT,
            Mode::Prot32 => PROT_MODE_LIMIT,
            Mode::Long64 => self.long_identity_page_end(0).unwrap_or(0),
        };
    }

    fn flush_tlb(&mut self) {
        self.tlb.clear();
        self.refresh_identity_end();
    }

    #[cold]
    #[inline(never)]
    fn beyond_mode(&self, vaddr: u64) -> Fault {
        Fault::AddressBeyondMode {
            vaddr,
            mode: self.mode,
        }
    }

    /// Long-mode translation off the hit path: a non-canonical address, a
    /// TLB miss, or an access that crosses into a second 2 MiB page.
    #[cold]
    #[inline(never)]
    fn translate_long(&mut self, mem: &Memory, vaddr: u64, len: u64) -> Result<u64, Fault> {
        if vaddr >= CANONICAL_LIMIT {
            return Err(self.beyond_mode(vaddr));
        }
        let first = self.translate_page(mem, vaddr)?;
        let last_byte = vaddr + len.saturating_sub(1);
        if last_byte >> PAGE_2M_SHIFT != vaddr >> PAGE_2M_SHIFT {
            // Ensure the second page is mapped too; identity mapping makes
            // the result contiguous.
            self.translate_page(mem, last_byte)?;
        }
        Ok(first)
    }

    /// In long mode: whether `vaddr`'s 2 MiB page is both already in the
    /// TLB (so instruction fetches from it are walk-free and tick-free) and
    /// identity-mapped (so virtual code addresses are physical addresses,
    /// which the predecoder's byte-revalidation machinery requires).
    /// Returns the page's end (exclusive) virtual address when cacheable.
    pub(crate) fn long_identity_page_end(&self, vaddr: u64) -> Option<u64> {
        let vpn = vaddr >> PAGE_2M_SHIFT;
        let frame = self.tlb.get(vpn)?;
        (frame == vpn << PAGE_2M_SHIFT).then_some((vpn + 1) << PAGE_2M_SHIFT)
    }

    /// Walks the guest page tables for one address (long mode only).
    fn translate_page(&mut self, mem: &Memory, vaddr: u64) -> Result<u64, Fault> {
        let vpn = vaddr >> PAGE_2M_SHIFT;
        if let Some(frame) = self.tlb.get(vpn) {
            return Ok(frame | (vaddr & PAGE_2M_MASK));
        }
        // TLB miss: hardware walk reads three levels from guest memory.
        self.clock
            .tick(costs::GUEST_TLB_MISS_WALK + 3 * costs::GUEST_MEM);
        let pml4_idx = (vaddr >> 39) & 0x1FF;
        let pdpt_idx = (vaddr >> 30) & 0x1FF;
        let pd_idx = (vaddr >> 21) & 0x1FF;

        let read_entry =
            |addr: u64| -> Result<u64, Fault> { mem.read_u64(addr).map_err(phys_fault) };

        let pml4e = read_entry((self.cr3 & PTE_ADDR_MASK) + pml4_idx * 8)?;
        if pml4e & PTE_PRESENT == 0 {
            return Err(Fault::PageFault { vaddr });
        }
        let pdpte = read_entry((pml4e & PTE_ADDR_MASK) + pdpt_idx * 8)?;
        if pdpte & PTE_PRESENT == 0 {
            return Err(Fault::PageFault { vaddr });
        }
        let pde = read_entry((pdpte & PTE_ADDR_MASK) + pd_idx * 8)?;
        if pde & PTE_PRESENT == 0 || pde & PTE_PS == 0 {
            // Only 2 MiB leaf pages are modelled (the identity map of §4.2
            // uses "2MB large pages").
            return Err(Fault::PageFault { vaddr });
        }
        let frame = pde & PDE_2M_ADDR_MASK;
        self.tlb.fill(vpn, frame, self.pc >> PAGE_2M_SHIFT);
        self.refresh_identity_end();
        Ok(frame | (vaddr & PAGE_2M_MASK))
    }

    // Guest memory accesses. Each ticks `GUEST_MEM`, then runs its untimed
    // core: the reference engine calls the former, and the fast engine —
    // which charges a block's static cycles in one sum — the latter.

    #[inline(always)]
    pub(crate) fn load(&mut self, mem: &Memory, vaddr: u64, w: Width) -> Result<u64, Fault> {
        self.clock.tick(costs::GUEST_MEM);
        self.load_untimed(mem, vaddr, w)
    }

    #[inline(always)]
    pub(crate) fn load_untimed(
        &mut self,
        mem: &Memory,
        vaddr: u64,
        w: Width,
    ) -> Result<u64, Fault> {
        let paddr = self.translate(mem, vaddr, w.bytes())?;
        mem.read(paddr, w).map_err(phys_fault)
    }

    /// Stores `v`; returns the physical address written (the predecoder's
    /// self-modification check compares it with the running block's range).
    #[inline(always)]
    pub(crate) fn store(
        &mut self,
        mem: &mut Memory,
        vaddr: u64,
        w: Width,
        v: u64,
    ) -> Result<u64, Fault> {
        self.clock.tick(costs::GUEST_MEM);
        self.store_untimed(mem, vaddr, w, v)
    }

    #[inline(always)]
    pub(crate) fn store_untimed(
        &mut self,
        mem: &mut Memory,
        vaddr: u64,
        w: Width,
        v: u64,
    ) -> Result<u64, Fault> {
        let paddr = self.translate(mem, vaddr, w.bytes())?;
        mem.write(paddr, w, v).map_err(phys_fault)?;
        Ok(paddr)
    }

    /// Pushes `v`; returns the physical address written, like [`Cpu::store`].
    #[inline(always)]
    pub(crate) fn push(&mut self, mem: &mut Memory, v: u64) -> Result<u64, Fault> {
        self.clock.tick(costs::GUEST_MEM);
        self.push_untimed(mem, v)
    }

    #[inline(always)]
    pub(crate) fn push_untimed(&mut self, mem: &mut Memory, v: u64) -> Result<u64, Fault> {
        let sp = self.reg(Reg::SP).wrapping_sub(8);
        self.set_reg(Reg::SP, sp);
        self.store_untimed(mem, sp, Width::Q, v)
    }

    #[inline(always)]
    pub(crate) fn pop(&mut self, mem: &Memory) -> Result<u64, Fault> {
        self.clock.tick(costs::GUEST_MEM);
        self.pop_untimed(mem)
    }

    #[inline(always)]
    pub(crate) fn pop_untimed(&mut self, mem: &Memory) -> Result<u64, Fault> {
        let sp = self.reg(Reg::SP);
        let v = self.load_untimed(mem, sp, Width::Q)?;
        self.set_reg(Reg::SP, sp.wrapping_add(8));
        Ok(v)
    }

    pub(crate) fn cond_holds(&self, c: Cond) -> bool {
        let f = self.flags;
        match c {
            Cond::Eq => f.eq,
            Cond::Ne => !f.eq,
            Cond::Lt => f.lt_signed,
            Cond::Le => f.lt_signed || f.eq,
            Cond::Gt => !(f.lt_signed || f.eq),
            Cond::Ge => !f.lt_signed,
            Cond::B => f.lt_unsigned,
            Cond::Be => f.lt_unsigned || f.eq,
            Cond::A => !(f.lt_unsigned || f.eq),
            Cond::Ae => !f.lt_unsigned,
        }
    }

    pub(crate) fn set_cmp_flags(&mut self, a: u64, b: u64) {
        self.flags = Flags {
            eq: a == b,
            lt_signed: (a as i64) < (b as i64),
            lt_unsigned: a < b,
        };
    }

    pub(crate) fn alu(&mut self, op: Alu, a: u64, b: u64, pc: u64) -> Result<u64, Fault> {
        let v = match op {
            Alu::Add => a.wrapping_add(b),
            Alu::Sub => a.wrapping_sub(b),
            Alu::Mul => {
                self.clock.tick(costs::GUEST_MUL - costs::GUEST_ALU);
                a.wrapping_mul(b)
            }
            Alu::Div | Alu::Mod => {
                self.clock.tick(costs::GUEST_DIV - costs::GUEST_ALU);
                if b == 0 {
                    return Err(Fault::DivideByZero { pc });
                }
                let (a, b) = (a as i64, b as i64);
                let v = if op == Alu::Div {
                    a.wrapping_div(b)
                } else {
                    a.wrapping_rem(b)
                };
                v as u64
            }
            Alu::And => a & b,
            Alu::Or => a | b,
            Alu::Xor => a ^ b,
            Alu::Shl => a.wrapping_shl(b as u32 & 63),
            Alu::Shr => a.wrapping_shr(b as u32 & 63),
            Alu::Sar => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        };
        Ok(v)
    }

    /// Writes CR0/CR3/CR4, charging transition costs and enforcing
    /// prerequisites for the bits that matter.
    pub(crate) fn write_cr(&mut self, cr: CrReg, value: u64) -> Result<(), Fault> {
        match cr {
            CrReg::Cr0 => {
                let was_pe = self.cr0 & CR0_PE != 0;
                let was_pg = self.cr0 & CR0_PG != 0;
                let now_pe = value & CR0_PE != 0;
                let now_pg = value & CR0_PG != 0;
                if now_pg && !now_pe {
                    return Err(Fault::ModeViolation {
                        reason: "CR0.PG requires CR0.PE",
                    });
                }
                if now_pg && (self.cr4 & CR4_PAE == 0 || self.efer & EFER_LME == 0) {
                    return Err(Fault::ModeViolation {
                        reason: "CR0.PG requires CR4.PAE and EFER.LME",
                    });
                }
                if !was_pe && now_pe {
                    // The surprisingly expensive single-bit flip of Table 1.
                    self.clock.tick(costs::MODE_CR0_PE);
                }
                if !was_pg && now_pg {
                    self.clock.tick(costs::MODE_CR0_PG);
                    self.flush_tlb();
                    if !self.ept_built {
                        // Hypervisor builds the nested page table lazily the
                        // first time the guest turns on translation.
                        self.clock.tick(self.config.ept_build_cycles);
                        self.ept_built = true;
                    }
                }
                self.cr0 = value;
            }
            CrReg::Cr3 => {
                self.clock.tick(costs::MODE_CR3_WRITE);
                self.cr3 = value;
                self.flush_tlb();
            }
            CrReg::Cr4 => {
                self.clock.tick(costs::MODE_CR4_WRITE);
                self.cr4 = value;
            }
        }
        Ok(())
    }

    pub(crate) fn read_cr(&self, cr: CrReg) -> u64 {
        match cr {
            CrReg::Cr0 => self.cr0,
            CrReg::Cr3 => self.cr3,
            CrReg::Cr4 => self.cr4,
        }
    }

    /// Performs a far jump, enforcing the x86 mode-transition prerequisites.
    pub(crate) fn far_jump(&mut self, mode: JmpMode, target: u64) -> Result<(), Fault> {
        match mode {
            JmpMode::Real16 => {
                return Err(Fault::ModeViolation {
                    reason: "returning to real mode is not supported",
                });
            }
            JmpMode::Prot32 => {
                if self.gdt_base.is_none() {
                    return Err(Fault::ModeViolation {
                        reason: "ljmp32 requires a loaded GDT",
                    });
                }
                if self.cr0 & CR0_PE == 0 {
                    return Err(Fault::ModeViolation {
                        reason: "ljmp32 requires CR0.PE",
                    });
                }
                self.clock.tick(costs::MODE_LJMP32);
                self.mode = Mode::Prot32;
            }
            JmpMode::Long64 => {
                if self.gdt_base.is_none() {
                    return Err(Fault::ModeViolation {
                        reason: "ljmp64 requires a loaded GDT",
                    });
                }
                if self.cr0 & CR0_PE == 0
                    || self.cr0 & CR0_PG == 0
                    || self.cr4 & CR4_PAE == 0
                    || self.efer & EFER_LME == 0
                {
                    return Err(Fault::ModeViolation {
                        reason: "ljmp64 requires PE, PG, PAE and LME",
                    });
                }
                self.clock.tick(costs::MODE_LJMP64);
                self.mode = Mode::Long64;
            }
        }
        self.refresh_identity_end();
        self.pc = target;
        Ok(())
    }

    /// Fetches and decodes the instruction at `pc` without reading bytes
    /// the guest cannot legally see.
    ///
    /// The fetch window is clipped to the current mode's reach — the
    /// address-space limit in real/protected mode, the current 2 MiB page
    /// in long mode. An instruction that would run past a long-mode page
    /// boundary is only decoded after the *next* page translates (charging
    /// the TLB walk the reference hardware would pay), by reassembling the
    /// straddling bytes from both physical pages; the pages need not be
    /// physically contiguous.
    pub(crate) fn fetch_decode(&mut self, mem: &Memory, pc: u64) -> Result<(Inst, u64), Fault> {
        let fetch_paddr = self.translate(mem, pc, 1)?;
        let window = mem.tail(fetch_paddr).map_err(phys_fault)?;
        // Bytes the guest may fetch from `pc` before hitting a virtual
        // boundary (mode limit or long-mode page end).
        let visible = match self.mode {
            Mode::Real16 => REAL_MODE_LIMIT - pc,
            Mode::Prot32 => PROT_MODE_LIMIT - pc,
            Mode::Long64 => (PAGE_2M_MASK + 1) - (pc & PAGE_2M_MASK),
        };
        let win = &window[..window.len().min(visible as usize)];
        match Inst::decode(win) {
            Ok(ok) => Ok(ok),
            Err(DecodeError::Truncated) if win.len() as u64 == visible => {
                // Clipped by a *virtual* boundary, not by physical memory.
                match self.mode {
                    Mode::Real16 | Mode::Prot32 => Err(Fault::AddressBeyondMode {
                        vaddr: pc,
                        mode: self.mode,
                    }),
                    Mode::Long64 => {
                        // The instruction straddles a 2 MiB page. Translate
                        // the next page before touching its bytes, then
                        // reassemble the split encoding.
                        let next_vpage = (pc | PAGE_2M_MASK) + 1;
                        let next_paddr = self.translate_page(mem, next_vpage)?;
                        let rest = mem.tail(next_paddr).map_err(phys_fault)?;
                        let mut buf = [0u8; Inst::MAX_LEN];
                        let head = win.len().min(Inst::MAX_LEN);
                        buf[..head].copy_from_slice(&win[..head]);
                        let tail_len = rest.len().min(Inst::MAX_LEN - head);
                        buf[head..head + tail_len].copy_from_slice(&rest[..tail_len]);
                        Inst::decode(&buf[..head + tail_len])
                            .map_err(|cause| Fault::Decode { pc, cause })
                    }
                }
            }
            Err(cause) => Err(Fault::Decode { pc, cause }),
        }
    }

    /// Executes a single instruction.
    ///
    /// Returns `Ok(None)` to continue, `Ok(Some(exit))` when the guest
    /// performed externally visible I/O, or a [`Fault`].
    pub fn step(&mut self, mem: &mut Memory) -> Result<Option<CpuExit>, Fault> {
        if self.first_inst_pending {
            self.first_inst_pending = false;
            self.clock.tick(costs::GUEST_FIRST_INSTRUCTION);
        }
        let pc = self.pc;
        let (inst, len) = self.fetch_decode(mem, pc)?;
        self.pc = pc.wrapping_add(len);
        self.insts_retired += 1;

        match inst {
            Inst::Nop => self.clock.tick(costs::GUEST_ALU),
            Inst::Hlt => {
                self.clock.tick(costs::GUEST_HLT);
                return Ok(Some(CpuExit::Hlt));
            }
            Inst::MovRR(d, s) => {
                self.clock.tick(costs::GUEST_ALU);
                self.set_reg(d, self.reg(s));
            }
            Inst::MovRI(d, imm) => {
                self.clock.tick(costs::GUEST_ALU);
                self.set_reg(d, imm);
            }
            Inst::AluRR(op, d, s) => {
                self.clock.tick(costs::GUEST_ALU);
                let v = self.alu(op, self.reg(d), self.reg(s), pc)?;
                self.set_reg(d, v);
            }
            Inst::AluRI(op, d, imm) => {
                self.clock.tick(costs::GUEST_ALU);
                let v = self.alu(op, self.reg(d), imm, pc)?;
                self.set_reg(d, v);
            }
            Inst::Neg(r) => {
                self.clock.tick(costs::GUEST_ALU);
                self.set_reg(r, (self.reg(r) as i64).wrapping_neg() as u64);
            }
            Inst::Not(r) => {
                self.clock.tick(costs::GUEST_ALU);
                self.set_reg(r, !self.reg(r));
            }
            Inst::CmpRR(a, b) => {
                self.clock.tick(costs::GUEST_ALU);
                self.set_cmp_flags(self.reg(a), self.reg(b));
            }
            Inst::CmpRI(a, imm) => {
                self.clock.tick(costs::GUEST_ALU);
                self.set_cmp_flags(self.reg(a), imm);
            }
            Inst::Jmp(rel) => {
                self.clock
                    .tick(costs::GUEST_BRANCH + costs::GUEST_BRANCH_TAKEN);
                self.pc = self.pc.wrapping_add(rel as i64 as u64);
            }
            Inst::Jcc(c, rel) => {
                self.clock.tick(costs::GUEST_BRANCH);
                if self.cond_holds(c) {
                    self.clock.tick(costs::GUEST_BRANCH_TAKEN);
                    self.pc = self.pc.wrapping_add(rel as i64 as u64);
                }
            }
            Inst::Call(rel) => {
                self.clock.tick(costs::GUEST_CALLRET);
                let ret = self.pc;
                self.push(mem, ret)?;
                self.pc = self.pc.wrapping_add(rel as i64 as u64);
            }
            Inst::CallR(r) => {
                self.clock.tick(costs::GUEST_CALLRET);
                let target = self.reg(r);
                let ret = self.pc;
                self.push(mem, ret)?;
                self.pc = target;
            }
            Inst::JmpR(r) => {
                self.clock
                    .tick(costs::GUEST_BRANCH + costs::GUEST_BRANCH_TAKEN);
                self.pc = self.reg(r);
            }
            Inst::Ret => {
                self.clock.tick(costs::GUEST_CALLRET);
                self.pc = self.pop(mem)?;
            }
            Inst::Push(r) => {
                self.clock.tick(costs::GUEST_STACK);
                self.push(mem, self.reg(r))?;
            }
            Inst::Pop(r) => {
                self.clock.tick(costs::GUEST_STACK);
                let v = self.pop(mem)?;
                self.set_reg(r, v);
            }
            Inst::Load(w, d, base, off) => {
                let addr = self.reg(base).wrapping_add(off as i64 as u64);
                let v = self.load(mem, addr, w)?;
                self.set_reg(d, v);
            }
            Inst::Store(w, base, off, s) => {
                let addr = self.reg(base).wrapping_add(off as i64 as u64);
                self.store(mem, addr, w, self.reg(s))?;
            }
            Inst::In(d, port) => {
                self.clock.tick(costs::GUEST_PIO);
                self.pending_in = Some(d);
                return Ok(Some(CpuExit::IoIn { port }));
            }
            Inst::Out(port, s) => {
                self.clock.tick(costs::GUEST_PIO);
                return Ok(Some(CpuExit::IoOut {
                    port,
                    value: self.reg(s),
                }));
            }
            Inst::Lgdt(addr) => {
                let cost = match self.mode {
                    Mode::Real16 => costs::MODE_LGDT_REAL,
                    _ => costs::MODE_LGDT_PROT,
                };
                self.clock.tick(cost);
                self.gdt_base = Some(addr);
            }
            Inst::MovCr(cr, s) => {
                self.write_cr(cr, self.reg(s))?;
            }
            Inst::MovRCr(d, cr) => {
                self.clock.tick(costs::GUEST_ALU);
                self.set_reg(d, self.read_cr(cr));
            }
            Inst::Wrmsr(msr, s) => {
                if msr == MSR_EFER {
                    self.clock.tick(costs::MODE_WRMSR_EFER);
                    self.efer = self.reg(s);
                } else {
                    return Err(Fault::ModeViolation {
                        reason: "only the EFER MSR is modelled",
                    });
                }
            }
            Inst::Ljmp(mode, target) => {
                self.far_jump(mode, target)?;
            }
            Inst::Mark(id) => {
                // Free: stands in for an in-guest rdtsc read.
                self.marks.push((id, self.clock.now()));
            }
        }
        Ok(None)
    }

    /// Runs until an exit, a fault, or `max_steps` instructions, using the
    /// configured [`Engine`].
    pub fn run(&mut self, mem: &mut Memory, max_steps: u64) -> Result<CpuExit, Fault> {
        let before = self.insts_retired;
        let result = match self.engine {
            Engine::Fast => pred::run_fast(self, mem, max_steps),
            Engine::Reference => self.run_ref(mem, max_steps),
        };
        pred::note_retired(self.engine, self.insts_retired - before);
        result
    }

    /// The reference interpreter loop: one full fetch→decode→execute per
    /// instruction. Kept verbatim as the differential oracle for the
    /// predecoded engine.
    pub fn run_ref(&mut self, mem: &mut Memory, max_steps: u64) -> Result<CpuExit, Fault> {
        for _ in 0..max_steps {
            if let Some(exit) = self.step(mem)? {
                return Ok(exit);
            }
        }
        Ok(CpuExit::StepLimit)
    }
}

/// A CPU paired with its private memory: one virtual context.
#[derive(Debug)]
pub struct Machine {
    /// The interpreter core.
    pub cpu: Cpu,
    /// Guest-physical memory.
    pub mem: Memory,
}

impl Machine {
    /// Builds a machine with `mem_size` bytes of memory and the reset vector
    /// at `entry`.
    pub fn new(clock: Clock, config: CpuConfig, mem_size: usize, entry: u64) -> Machine {
        Machine {
            cpu: Cpu::new(clock, config, entry),
            mem: Memory::new(mem_size),
        }
    }

    /// Loads an assembled image at its linked base address.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in guest memory.
    pub fn load_image(&mut self, image: &crate::asm::Image) {
        self.mem
            .write_bytes(image.base, &image.bytes)
            .expect("image must fit in guest memory");
        self.cpu.pc = image.entry;
    }

    /// Runs until exit or fault with a step budget.
    pub fn run(&mut self, max_steps: u64) -> Result<CpuExit, Fault> {
        self.cpu.run(&mut self.mem, max_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn machine_for(src: &str, mem_size: usize) -> Machine {
        let img = assemble(src).expect("assemble");
        let mut m = Machine::new(Clock::new(), CpuConfig::default(), mem_size, img.entry);
        m.load_image(&img);
        m
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut m = machine_for(".org 0x100\n mov r0, 40\n add r0, 2\n hlt\n", 4096);
        assert_eq!(m.run(100).unwrap(), CpuExit::Hlt);
        assert_eq!(m.cpu.reg(Reg(0)), 42);
    }

    #[test]
    fn signed_arithmetic_wraps_and_divides() {
        let mut m = machine_for(
            ".org 0\n mov r0, 7\n mov r1, 0\n sub r1, 2\n mov r2, r0\n div r2, 2\n mov r3, r0\n mod r3, 2\n hlt\n",
            4096,
        );
        m.run(100).unwrap();
        assert_eq!(m.cpu.reg(Reg(1)) as i64, -2);
        assert_eq!(m.cpu.reg(Reg(2)), 3);
        assert_eq!(m.cpu.reg(Reg(3)), 1);
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut m = machine_for(".org 0\n mov r0, 1\n mov r1, 0\n div r0, r1\n hlt\n", 4096);
        let f = m.run(100).unwrap_err();
        assert!(matches!(f, Fault::DivideByZero { .. }));
    }

    #[test]
    fn branches_follow_flags() {
        let src = "
.org 0
  mov r0, 5
  cmp r0, 10
  jl less
  mov r1, 111
  hlt
less:
  mov r1, 222
  hlt
";
        let mut m = machine_for(src, 4096);
        m.run(100).unwrap();
        assert_eq!(m.cpu.reg(Reg(1)), 222);
    }

    #[test]
    fn unsigned_conditions_differ_from_signed() {
        // -1 (as u64::MAX) is above 1 unsigned, below signed.
        let src = "
.org 0
  mov r0, 0
  sub r0, 1
  cmp r0, 1
  ja above
  hlt
above:
  cmp r0, 1
  jl signed_less
  hlt
signed_less:
  mov r2, 1
  hlt
";
        let mut m = machine_for(src, 4096);
        m.run(100).unwrap();
        assert_eq!(m.cpu.reg(Reg(2)), 1);
    }

    #[test]
    fn call_ret_and_stack() {
        let src = "
.org 0
  mov sp, 4096
  mov r1, 20
  call double
  hlt
double:
  push r1
  add r1, r1
  mov r0, r1
  pop r1
  ret
";
        let mut m = machine_for(src, 8192);
        m.run(100).unwrap();
        assert_eq!(m.cpu.reg(Reg(0)), 40);
        assert_eq!(m.cpu.reg(Reg(1)), 20); // Callee-saved via stack.
        assert_eq!(m.cpu.reg(Reg::SP), 4096);
    }

    #[test]
    fn loads_and_stores_with_offsets() {
        let src = "
.org 0
  mov r1, 0x200
  mov r2, 0xABCD
  store.w [r1 + 4], r2
  load.b r3, [r1 + 4]
  load.b r4, [r1 + 5]
  hlt
";
        let mut m = machine_for(src, 4096);
        m.run(100).unwrap();
        assert_eq!(m.cpu.reg(Reg(3)), 0xCD);
        assert_eq!(m.cpu.reg(Reg(4)), 0xAB);
    }

    #[test]
    fn real_mode_cannot_reach_above_1mb() {
        let src = ".org 0\n mov r1, 0x100001\n load.b r0, [r1]\n hlt\n";
        let mut m = machine_for(src, 4096);
        let f = m.run(100).unwrap_err();
        assert!(matches!(
            f,
            Fault::AddressBeyondMode {
                mode: Mode::Real16,
                ..
            }
        ));
    }

    #[test]
    fn out_and_in_round_trip() {
        let src = ".org 0\n mov r1, 99\n out 0x10, r1\n in r2, 0x20\n hlt\n";
        let mut m = machine_for(src, 4096);
        assert_eq!(
            m.run(100).unwrap(),
            CpuExit::IoOut {
                port: 0x10,
                value: 99
            }
        );
        assert_eq!(m.run(100).unwrap(), CpuExit::IoIn { port: 0x20 });
        m.cpu.provide_in(1234);
        assert_eq!(m.run(100).unwrap(), CpuExit::Hlt);
        assert_eq!(m.cpu.reg(Reg(2)), 1234);
    }

    #[test]
    fn step_limit_is_reported() {
        let src = ".org 0\nspin: jmp spin\n";
        let mut m = machine_for(src, 4096);
        assert_eq!(m.run(50).unwrap(), CpuExit::StepLimit);
    }

    #[test]
    fn protected_mode_requires_gdt_and_pe() {
        // Without lgdt/PE the far jump faults.
        let mut m = machine_for(".org 0\n ljmp32 0\n", 4096);
        assert!(matches!(
            m.run(10).unwrap_err(),
            Fault::ModeViolation { .. }
        ));

        // With them it succeeds.
        let src = "
.org 0
  lgdt gdt
  mov r0, 1
  mov cr0, r0
  ljmp32 prot
prot:
  mov r5, 1
  hlt
gdt: .dq 0
";
        let mut m = machine_for(src, 4096);
        m.run(100).unwrap();
        assert_eq!(m.cpu.mode(), Mode::Prot32);
        assert_eq!(m.cpu.reg(Reg(5)), 1);
    }

    #[test]
    fn long_mode_requires_full_prerequisites() {
        // Protected mode reached, but no paging: ljmp64 must fault.
        let src = "
.org 0
  lgdt gdt
  mov r0, 1
  mov cr0, r0
  ljmp32 prot
prot:
  ljmp64 prot
gdt: .dq 0
";
        let mut m = machine_for(src, 4096);
        assert!(matches!(
            m.run(100).unwrap_err(),
            Fault::ModeViolation { .. }
        ));
    }

    #[test]
    fn pg_without_pae_faults() {
        let src = "
.org 0
  lgdt gdt
  mov r0, 1
  mov cr0, r0
  mov r0, 0x80000001
  mov cr0, r0
gdt: .dq 0
";
        let mut m = machine_for(src, 4096);
        assert!(matches!(
            m.run(100).unwrap_err(),
            Fault::ModeViolation { .. }
        ));
    }

    /// Builds page tables identity-mapping the first 1 GiB with 2 MiB pages,
    /// then enters long mode — the boot sequence of Table 1.
    fn long_mode_boot(extra: &str) -> String {
        format!(
            "
.org 0x8000
.equ EFER, 0xC0000080
  lgdt gdt
  mov r0, 1
  mov cr0, r0          ; PE
  ljmp32 prot
prot:
  ; Build PML4 @0x1000 -> PDPT @0x2000 -> PD @0x3000 (512 x 2MB).
  mov r1, 0x1000
  mov r2, 0x2003       ; PDPT | present | rw
  store.q [r1], r2
  mov r1, 0x2000
  mov r2, 0x3003
  store.q [r1], r2
  mov r3, 0           ; index
  mov r4, 0x83        ; 2MB page | present | rw (PS)
  mov r5, 0x3000
loop:
  store.q [r5], r4
  add r5, 8
  mov r6, 0x200000
  add r4, r6
  add r3, 1
  cmp r3, 512
  jl loop
  mov r7, 0x1000
  mov cr3, r7
  mov r7, 0x20         ; PAE
  mov cr4, r7
  mov r7, 0x100        ; LME
  wrmsr EFER, r7
  mov r7, 0x80000001   ; PG | PE
  mov cr0, r7
  ljmp64 longm
longm:
{extra}
  hlt
gdt: .dq 0
"
        )
    }

    #[test]
    fn full_boot_reaches_long_mode_and_translates() {
        let src = long_mode_boot(
            "  mov r1, 0x200000\n  mov r2, 77\n  store.q [r1], r2\n  load.q r9, [r1]\n",
        );
        let mut m = machine_for(&src, 4 * 1024 * 1024);
        assert_eq!(m.run(10_000).unwrap(), CpuExit::Hlt);
        assert_eq!(m.cpu.mode(), Mode::Long64);
        assert_eq!(m.cpu.reg(Reg(9)), 77);
        // The identity map really was identity: physical 0x200000 holds 77.
        assert_eq!(m.mem.read_u64(0x200000).unwrap(), 77);
    }

    #[test]
    fn boot_cost_matches_table_1_scale() {
        let src = long_mode_boot("");
        let img = assemble(&src).unwrap();
        let clock = Clock::new();
        let mut m = Machine::new(
            clock.clone(),
            CpuConfig::default(),
            4 * 1024 * 1024,
            img.entry,
        );
        m.load_image(&img);
        m.run(10_000).unwrap();
        let total = clock.now().get();
        // Table 1 sums to ≈36.5K cycles for the full bring-up; accept a
        // generous band around the paper's ≈30-40K.
        assert!(
            (25_000..55_000).contains(&total),
            "full boot cost {total} cycles outside the Table 1 band"
        );
    }

    #[test]
    fn unmapped_page_faults_in_long_mode() {
        // Map 1 GiB, then touch 2 GiB.
        let src = long_mode_boot("  mov r1, 0x80000000\n  load.q r2, [r1]\n");
        let mut m = machine_for(&src, 4 * 1024 * 1024);
        let f = m.run(10_000).unwrap_err();
        assert!(matches!(f, Fault::PageFault { vaddr } if vaddr == 0x8000_0000));
    }

    #[test]
    fn mapped_but_physically_absent_is_ept_violation() {
        // 16 MiB of guest memory; 1 GiB mapped; touching 512 MiB faults as a
        // physical (EPT) violation, not a page fault.
        let src = long_mode_boot("  mov r1, 0x20000000\n  load.q r2, [r1]\n");
        let mut m = machine_for(&src, 16 * 1024 * 1024);
        let f = m.run(10_000).unwrap_err();
        assert!(matches!(f, Fault::PhysOutOfBounds { .. }), "{f:?}");
    }

    #[test]
    fn marks_record_timestamps_in_order() {
        let src = ".org 0\n mark 1\n mov r0, 1\n mark 2\n hlt\n";
        let mut m = machine_for(src, 4096);
        m.run(100).unwrap();
        assert_eq!(m.cpu.marks.len(), 2);
        assert_eq!(m.cpu.marks[0].0, 1);
        assert_eq!(m.cpu.marks[1].0, 2);
        assert!(m.cpu.marks[0].1 <= m.cpu.marks[1].1);
    }

    #[test]
    fn save_restore_round_trips_state() {
        let src = ".org 0\n mov r0, 9\n mov r1, 8\n cmp r0, r1\n hlt\n mov r0, 0\n hlt\n";
        let mut m = machine_for(src, 4096);
        m.run(100).unwrap();
        let state = m.cpu.save_state();
        // Run further, then restore.
        m.run(100).unwrap();
        assert_eq!(m.cpu.reg(Reg(0)), 0);
        m.cpu.restore_state(&state);
        assert_eq!(m.cpu.reg(Reg(0)), 9);
        assert_eq!(m.cpu.save_state(), state);
    }

    #[test]
    fn fetch_straddling_contiguous_2m_pages_decodes() {
        // A 10-byte mov whose encoding crosses the 2 MiB page boundary at
        // 0x400000; the identity map makes the two pages physically
        // contiguous, but the fetch still goes through the two-page path.
        let src = long_mode_boot("  mov r1, 0x3FFFFC\n  jmp r1\n");
        let img = assemble(&src).unwrap();
        let mut m = Machine::new(
            Clock::new(),
            CpuConfig::default(),
            8 * 1024 * 1024,
            img.entry,
        );
        m.load_image(&img);
        let mut bytes = Vec::new();
        Inst::MovRI(Reg(9), 0xFEED_F00D).encode(&mut bytes);
        Inst::Hlt.encode(&mut bytes);
        m.mem.write_bytes(0x3F_FFFC, &bytes).unwrap();
        assert_eq!(m.run(10_000).unwrap(), CpuExit::Hlt);
        assert_eq!(m.cpu.reg(Reg(9)), 0xFEED_F00D);
    }

    #[test]
    fn fetch_straddling_noncontiguous_2m_pages_decodes() {
        // Remap the virtual page at 0x400000 to physical 0x800000: the
        // instruction's head and tail live in unrelated frames, so a fetch
        // that read physically-contiguous bytes would decode garbage.
        let extra = "
  mov r1, 0x3010       ; PD entry 2 (virtual 0x400000)
  mov r2, 0x800083     ; frame 0x800000 | PS | present | rw
  store.q [r1], r2
  mov r1, 0x3FFFFC
  jmp r1
";
        let src = long_mode_boot(extra);
        let img = assemble(&src).unwrap();
        let mut m = Machine::new(
            Clock::new(),
            CpuConfig::default(),
            16 * 1024 * 1024,
            img.entry,
        );
        m.load_image(&img);
        let mut head = Vec::new();
        Inst::MovRI(Reg(9), 0xABCD_1234).encode(&mut head);
        let tail = head.split_off(4);
        m.mem.write_bytes(0x3F_FFFC, &head).unwrap();
        m.mem.write_bytes(0x80_0000, &tail).unwrap();
        let mut hlt = Vec::new();
        Inst::Hlt.encode(&mut hlt);
        m.mem.write_bytes(0x80_0006, &hlt).unwrap();
        assert_eq!(m.run(10_000).unwrap(), CpuExit::Hlt);
        assert_eq!(m.cpu.reg(Reg(9)), 0xABCD_1234);
    }

    #[test]
    fn tlb_is_bounded_and_both_engines_agree_past_its_capacity() {
        // 200 distinct 2 MiB pages, touched twice over, through a 64-entry
        // TLB: PD entries 2.. alias the two frames that physically exist.
        // Pages 64, 128 and 192 collide with the code's own slot (page 0)
        // and must never displace it; the final store patches the running
        // block through an alias of its own frame.
        let extra = "
  mov sp, 0x7000
  mov r3, 2
  mov r5, 0x3010
remap:
  mov r4, r3
  and r4, 1
  shl r4, 21
  or r4, 0x83
  store.q [r5], r4
  add r5, 8
  add r3, 1
  cmp r3, 512
  jl remap
  mov r8, 0
lap:
  mov r3, 0
touch:
  mov r5, r3
  shl r5, 21
  load.q r6, [r5 + 0x100]
  store.q [r5 + 0x6100], r3
  push r3
  pop r7
  add r3, 1
  cmp r3, 200
  jl touch
  add r8, 1
  cmp r8, 2
  jl lap
  mov r9, 0
  mov r5, patch
  mov r6, 0x400000
  add r5, r6
  mov r6, 9
  store.b [r5 + 2], r6
patch:
  add r9, 1
";
        let img = assemble(&long_mode_boot(extra)).unwrap();
        let run = |engine: Engine| {
            let mut m = Machine::new(Clock::new(), CpuConfig::default(), 4 << 20, img.entry);
            m.load_image(&img);
            m.cpu.set_engine(engine);
            assert_eq!(m.run(100_000).unwrap(), CpuExit::Hlt, "{engine:?}");
            m
        };
        let (fast, reference) = (run(Engine::Fast), run(Engine::Reference));
        assert_eq!(fast.cpu.clock().now(), reference.cpu.clock().now());
        assert_eq!(fast.cpu.save_state(), reference.cpu.save_state());
        assert_eq!(fast.cpu.insts_retired(), reference.cpu.insts_retired());
        assert_eq!(fast.mem, reference.mem);
        assert_eq!(fast.cpu.reg(Reg(9)), 9, "aliased store patched the block");

        // Host memory for the TLB is a constant, whatever the guest maps.
        assert_eq!(std::mem::size_of::<Tlb>(), TLB_ENTRIES * 16);
        let resident = |m: &Machine| m.cpu.tlb.0.iter().filter(|e| e.0 != Tlb::INVALID).count();
        assert!(resident(&fast) > 32 && resident(&fast) <= TLB_ENTRIES);
        // The running code's translation survived 3 × 2 colliding refills.
        assert!(fast.cpu.long_identity_page_end(fast.cpu.pc).is_some());

        // More pages than entries means lap two walks again, which an
        // unbounded TLB would not. With 64 pages everything but page 0 (the
        // code's, never missed) walks once, on lap one: 63 walks. With 200,
        // every slot cycles through three or four pages, so each of the 196
        // ordinary pages walks on both laps; the three that collide with the
        // code's slot are never cached and walk for the store too; and the
        // final patch finds page 2's translation evicted.
        let walk = costs::GUEST_TLB_MISS_WALK + 3 * costs::GUEST_MEM;
        let cycles = |pages: u64| {
            let src = long_mode_boot(&extra.replace("cmp r3, 200", &format!("cmp r3, {pages}")));
            let img = assemble(&src).unwrap();
            let clock = Clock::new();
            let mut m = Machine::new(clock.clone(), CpuConfig::default(), 4 << 20, img.entry);
            m.load_image(&img);
            m.run(100_000).unwrap();
            clock.now().get()
        };
        // 32 → 64 pages adds 32 walks and 2 × 32 loop turns: calibrates a turn.
        let turn = (cycles(64) - cycles(32) - 32 * walk) / 64;
        let walks_200 = 2 * (196 + 3 * 2) + 1;
        assert_eq!(
            cycles(200) - cycles(64),
            2 * 136 * turn + (walks_200 - 63) * walk
        );
    }

    /// Compares [`Cpu::translate`] with [`Cpu::translate_full`] — the path
    /// below the identity window — for seeded accesses from `cpu`'s current
    /// state: the result, the ticks and the TLB afterwards must agree. Leaves
    /// the state as it found it.
    fn window_agrees(cpu: &mut Cpu, mem: &Memory, rng: &mut vclock::rng::Rng, state: &str) {
        let (tlb, end) = (cpu.tlb.clone(), cpu.identity_end);
        let edges = [
            0,
            1 << PAGE_2M_SHIFT,
            64 << PAGE_2M_SHIFT,
            REAL_MODE_LIMIT,
            PROT_MODE_LIMIT,
            CANONICAL_LIMIT,
            u64::MAX,
        ];
        for _ in 0..400 {
            let vaddr = match rng.below(3) {
                0 => edges[rng.below(edges.len())]
                    .wrapping_add(rng.below(32) as u64)
                    .wrapping_sub(16),
                1 => rng.below(4 << 20) as u64,
                _ => rng.next_u64(),
            };
            let len = [1, 2, 4, 8][rng.below(4)];
            let mut run = |full: bool| {
                cpu.tlb = tlb.clone();
                cpu.identity_end = end;
                let t0 = cpu.clock.now();
                let got = if full {
                    cpu.translate_full(mem, vaddr, len)
                } else {
                    cpu.translate(mem, vaddr, len)
                };
                (got, cpu.clock.now() - t0, cpu.tlb.clone())
            };
            assert_eq!(run(false), run(true), "{state}: {len} bytes at {vaddr:#x}");
        }
        cpu.tlb = tlb;
        cpu.identity_end = end;
    }

    #[test]
    fn the_identity_window_is_only_a_shortcut() {
        // Two address spaces over 1 GiB of 2 MiB pages: at 0x1000 the
        // identity map; at 0x5000 the same with pages 0 and 1 swapped.
        let mut mem = Memory::new(4 << 20);
        let mut put = |addr: u64, v: u64| mem.write_bytes(addr, &v.to_le_bytes()).unwrap();
        put(0x1000, 0x2003);
        put(0x2000, 0x3003);
        put(0x5000, 0x6003);
        put(0x6000, 0x4003);
        for page in 0..512 {
            put(0x3000 + 8 * page, page << PAGE_2M_SHIFT | 0x83);
            put(0x4000 + 8 * page, (page ^ 1) << PAGE_2M_SHIFT | 0x83);
        }
        let mut rng = vclock::rng::Rng::seeded(0x1D_E271);
        let mut cpu = Cpu::new(Clock::new(), CpuConfig::default(), 0x8000);
        // Every state is reached the way a guest reaches it, and names the
        // bound it must leave behind.
        let mut at = |cpu: &mut Cpu, state: &str, end: u64| {
            assert_eq!(cpu.identity_end, end, "{state}");
            window_agrees(cpu, &mem, &mut rng, state);
        };
        at(&mut cpu, "real mode", REAL_MODE_LIMIT);
        cpu.gdt_base = Some(0);
        cpu.write_cr(CrReg::Cr0, CR0_PE).unwrap();
        cpu.far_jump(JmpMode::Prot32, 0x8000).unwrap();
        at(&mut cpu, "protected mode", PROT_MODE_LIMIT);
        let protected = cpu.save_state();
        cpu.write_cr(CrReg::Cr3, 0x1000).unwrap();
        cpu.write_cr(CrReg::Cr4, CR4_PAE).unwrap();
        cpu.efer = EFER_LME;
        cpu.write_cr(CrReg::Cr0, CR0_PE | CR0_PG).unwrap();
        at(&mut cpu, "protected mode, paging on", PROT_MODE_LIMIT);
        cpu.far_jump(JmpMode::Long64, 0x8000).unwrap();
        at(&mut cpu, "long mode, TLB empty", 0);
        let long = cpu.save_state();
        let mem = &mem;
        let fill = |cpu: &mut Cpu, vaddr: u64| cpu.translate(mem, vaddr, 8).unwrap();
        fill(&mut cpu, 0x8000);
        at(&mut cpu, "long mode, page 0 identity", 1 << PAGE_2M_SHIFT);
        // Page 64 shares page 0's TLB slot; the running page is pinned.
        fill(&mut cpu, 64 << PAGE_2M_SHIFT);
        at(
            &mut cpu,
            "a colliding refill while page 0 runs",
            1 << PAGE_2M_SHIFT,
        );
        cpu.pc = 1 << PAGE_2M_SHIFT;
        fill(&mut cpu, 64 << PAGE_2M_SHIFT);
        at(&mut cpu, "page 0 displaced by page 64", 0);
        fill(&mut cpu, 0x100);
        at(&mut cpu, "page 0 refilled", 1 << PAGE_2M_SHIFT);
        cpu.write_cr(CrReg::Cr3, 0x5000).unwrap();
        at(&mut cpu, "after a CR3 write", 0);
        fill(&mut cpu, 0x100);
        at(&mut cpu, "long mode, page 0 mapped elsewhere", 0);
        cpu.restore_state(&protected);
        at(&mut cpu, "restored to protected mode", PROT_MODE_LIMIT);
        cpu.restore_state(&long);
        at(&mut cpu, "restored to long mode", 0);
        fill(&mut cpu, 0x100);
        at(&mut cpu, "restored, page 0 identity", 1 << PAGE_2M_SHIFT);
    }

    #[test]
    fn real_mode_fetch_clips_at_the_1mib_limit() {
        // Physical memory extends past 1 MiB, but real mode must not fetch
        // bytes beyond its reach: the truncated decode is an address fault,
        // not a read of invisible bytes. Identical on both engines.
        for engine in [Engine::Fast, Engine::Reference] {
            let mut m = Machine::new(
                Clock::new(),
                CpuConfig::default(),
                2 * 1024 * 1024,
                0xF_FFFC,
            );
            let mut bytes = Vec::new();
            Inst::MovRI(Reg(9), 42).encode(&mut bytes);
            m.mem.write_bytes(0xF_FFFC, &bytes).unwrap();
            m.cpu.set_engine(engine);
            let f = m.run(10).unwrap_err();
            assert_eq!(
                f,
                Fault::AddressBeyondMode {
                    vaddr: 0xF_FFFC,
                    mode: Mode::Real16,
                },
                "{engine:?}"
            );
        }
    }

    #[test]
    fn fetch_truncated_by_physical_memory_is_a_decode_fault() {
        // The instruction runs off the end of guest-physical memory (well
        // below the mode limit): that is a decode fault, not a mode fault.
        let mut m = Machine::new(Clock::new(), CpuConfig::default(), 4096, 4090);
        let mut bytes = Vec::new();
        Inst::MovRI(Reg(9), 42).encode(&mut bytes);
        m.mem.write_bytes(4090, &bytes[..6]).unwrap();
        let f = m.run(10).unwrap_err();
        assert_eq!(
            f,
            Fault::Decode {
                pc: 4090,
                cause: DecodeError::Truncated,
            }
        );
    }

    #[test]
    fn fib_20_runs_and_costs_hundreds_of_microseconds() {
        // The recursive fib of Figure 3/9.
        let src = "
.org 0x8000
  mov sp, 0x8000
  mov r1, 20
  call fib
  hlt
fib:
  cmp r1, 2
  jl .base
  push r1
  sub r1, 1
  call fib
  pop r1
  push r0
  sub r1, 2
  call fib
  pop r2
  add r0, r2
  ret
.base:
  mov r0, r1
  ret
";
        let img = assemble(src).unwrap();
        let clock = Clock::new();
        let mut m = Machine::new(clock.clone(), CpuConfig::native(), 64 * 1024, img.entry);
        m.load_image(&img);
        assert_eq!(m.run(3_000_000).unwrap(), CpuExit::Hlt);
        assert_eq!(m.cpu.reg(Reg(0)), 6765);
        let us = clock.now().as_micros();
        assert!(
            (50.0..2_000.0).contains(&us),
            "fib(20) took {us} µs — out of the expected real-hardware band"
        );
    }
}
