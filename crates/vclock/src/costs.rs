//! Calibrated cycle-cost model for the simulated `tinker` machine.
//!
//! Every constant is anchored to a number the paper reports (cited in the
//! doc comment) or to a widely measured property of the referenced hardware
//! generation. Composite costs in the paper (e.g. Table 1's 28 109-cycle
//! identity-map row) are *not* single constants here: they emerge from the
//! simulator executing the same sequence of operations the real boot code
//! executes, with these per-operation costs.
//!
//! Grouping:
//!
//! * `GUEST_*` — per-instruction costs charged by the `visa` interpreter.
//! * `MODE_*`  — costs of x86 mode-transition events (Table 1).
//! * `KVM_*` / `VM*` — hypervisor-interface costs (Figures 2 and 8).
//! * `HOST_*` — host-OS abstraction costs (Figures 2 and 8).
//! * `SGX_*`  — SGX comparison points (Figure 8).
//! * `MEM_*`  — memory-bandwidth model (Figure 12).

/// Cost of a simple ALU instruction (`add`, `sub`, `and`, `mov r,r`, ...).
pub const GUEST_ALU: u64 = 1;

/// Cost of an integer multiply.
pub const GUEST_MUL: u64 = 3;

/// Cost of an integer divide/modulo (x86 `div` latency class).
pub const GUEST_DIV: u64 = 22;

/// Cost of a load or store that hits the simulated TLB/cache path.
pub const GUEST_MEM: u64 = 4;

/// Additional cost of a hardware page-table walk on a simulated TLB miss
/// (three levels with 2 MB pages; the paper notes "12KB of memory
/// references" for the full identity map, §4.2).
pub const GUEST_TLB_MISS_WALK: u64 = 40;

/// Cost of a not-taken conditional branch.
pub const GUEST_BRANCH: u64 = 1;

/// Extra cost when a branch is taken (front-end redirect).
pub const GUEST_BRANCH_TAKEN: u64 = 1;

/// Cost of `call`/`ret` (stack engine assisted).
pub const GUEST_CALLRET: u64 = 2;

/// Cost of `push`/`pop`.
pub const GUEST_STACK: u64 = 2;

/// Cost of an `in`/`out` port instruction *before* the VM exit it triggers.
pub const GUEST_PIO: u64 = 20;

/// Cost of `hlt` before the VM exit it triggers.
pub const GUEST_HLT: u64 = 5;

/// Cost of loading the GDT from 16-bit real mode.
///
/// Table 1 reports "Load 32-bit GDT (lgdt)" at 4 118 cycles; the real-mode
/// `lgdt` is slow because the descriptor load is uncached and serializing.
pub const MODE_LGDT_REAL: u64 = 4_050;

/// Cost of re-loading the GDT from protected mode.
///
/// Table 1 reports "Long transition (lgdt)" at 681 cycles.
pub const MODE_LGDT_PROT: u64 = 640;

/// Cost of flipping CR0.PE (the protected-mode transition).
///
/// Table 1 reports "Protected transition" at 3 217 cycles — a serializing
/// control-register write that drains the pipeline and re-checks segment
/// state. The paper calls this cost "a bit surprising" for a single bit flip.
pub const MODE_CR0_PE: u64 = 3_150;

/// Cost of a far jump that switches to 32-bit code.
///
/// Table 1 reports "Jump to 32-bit (ljmp)" at 175 cycles.
pub const MODE_LJMP32: u64 = 170;

/// Cost of a far jump that switches to 64-bit code.
///
/// Table 1 reports "Jump to 64-bit (ljmp)" at 190 cycles.
pub const MODE_LJMP64: u64 = 185;

/// Cost of a write to CR3 (page-table base) including TLB shootdown.
pub const MODE_CR3_WRITE: u64 = 230;

/// Cost of a write to CR4 (PAE enable).
pub const MODE_CR4_WRITE: u64 = 150;

/// Cost of `wrmsr` to EFER (LME enable).
pub const MODE_WRMSR_EFER: u64 = 180;

/// Cost of flipping CR0.PG, excluding the EPT work it triggers.
pub const MODE_CR0_PG: u64 = 400;

/// Hypervisor-side cost of constructing the nested page table (EPT/NPT)
/// the first time the guest enables paging.
///
/// Table 1's identity-map row (28 109 cycles) bundles the guest's
/// page-table-build loop (~514 two-megabyte PDEs plus two upper-level
/// entries), the CR writes, and "construction of an EPT inside KVM" (§4.2);
/// this constant is the KVM-side share.
pub const KVM_EPT_BUILD: u64 = 22_000;

/// Base cycle cost per guest instruction *class*, indexed by the
/// discriminant of `visa::inst::OpClass` (Alu, Mul, Div, Mem, Branch,
/// CallRet, Stack, Pio, Halt, System, Mark — in that order).
///
/// This is the per-class cost table the predecoded interpreter dispatches
/// from; the constants are exactly the per-instruction `GUEST_*` ticks the
/// reference interpreter charges, so the two engines stay cycle-identical.
/// Classes whose timing lives elsewhere carry zero here: `Mem` ticks
/// [`GUEST_MEM`] inside the access helper, `System` costs depend on the
/// processor mode and the bits written, and `Mark` is free by design.
pub const GUEST_CLASS_BASE: [u64; 11] = [
    GUEST_ALU,     // Alu
    GUEST_MUL,     // Mul
    GUEST_DIV,     // Div
    0,             // Mem (charged per access by the helper)
    GUEST_BRANCH,  // Branch (+GUEST_BRANCH_TAKEN when taken)
    GUEST_CALLRET, // CallRet
    GUEST_STACK,   // Stack
    GUEST_PIO,     // Pio
    GUEST_HLT,     // Halt
    0,             // System (mode-dependent MODE_* costs)
    0,             // Mark (free rdtsc stand-in)
];

/// Pipeline-fill cost of the first instruction after VM entry.
///
/// Table 1 reports "First Instruction" at 74 cycles.
pub const GUEST_FIRST_INSTRUCTION: u64 = 74;

/// Cost of the `vmrun`/`vmlaunch` instruction proper (world switch in).
pub const VMENTRY: u64 = 1_050;

/// Cost of a VM exit (world switch out, exit-reason decode in KVM).
pub const VMEXIT: u64 = 750;

/// One user/kernel ring transition (syscall entry *or* return).
///
/// §6.3 notes hypercall exits are "doubly expensive due to the ring
/// transitions necessitated by KVM": each exit that reaches user space pays
/// a kernel→user return and a user→kernel re-entry on top of the world
/// switches.
pub const HOST_RING_TRANSITION: u64 = 400;

/// Fixed kernel-side dispatch cost of an `ioctl` (argument checks, fd
/// lookup, KVM sanity checks before `vmrun`, §4.2).
pub const KVM_IOCTL_DISPATCH: u64 = 700;

/// Kernel-side cost of `KVM_CREATE_VM`: allocating and initializing the
/// VMCS/VMCB and associated state (§5.2 "we pay a higher cost to construct
/// a virtine due to the host kernel's internal allocation of the VM state").
pub const KVM_CREATE_VM: u64 = 195_000;

/// Kernel-side cost of `KVM_CREATE_VCPU`.
pub const KVM_CREATE_VCPU: u64 = 28_000;

/// Fixed cost of `KVM_SET_USER_MEMORY_REGION` (slot bookkeeping).
pub const KVM_SET_MEMORY_FIXED: u64 = 6_000;

/// Per-4KiB-page cost of registering a memory region.
pub const KVM_SET_MEMORY_PER_PAGE: u64 = 12;

/// Cost of a null function call and return on the host ("function" bar of
/// Figure 2 — tens of cycles).
pub const HOST_FUNCTION_CALL: u64 = 30;

/// Cost of `pthread_create` immediately joined by `pthread_join`
/// ("Linux pthread" bar of Figure 2 — an order of magnitude above `vmrun`,
/// an order below full KVM VM creation).
pub const HOST_PTHREAD_CREATE_JOIN: u64 = 34_000;

/// Cost of `fork`+`exec`+`wait` for a minimal process (Figure 8's
/// "process" bar, included "for scale").
pub const HOST_PROCESS_SPAWN: u64 = 470_000;

/// Base cost of an ordinary (non-KVM) system call, excluding ring
/// transitions.
pub const HOST_SYSCALL_BASE: u64 = 250;

/// Per-byte cost of copying between user and kernel space.
pub const HOST_COPY_PER_BYTE_X1000: u64 = 120; // 0.120 cycles/byte.

/// Kernel network-stack cost per send/recv on a loopback socket, excluding
/// the copy (§4.2 notes the host network stack introduces large variance).
pub const HOST_NET_STACK: u64 = 5_200;

/// Cost of `accept` on a pending loopback connection.
pub const HOST_NET_ACCEPT: u64 = 7_000;

/// Queue-management cost per cross-virtine channel send/recv, excluding
/// the per-byte copy. Channels are in-kernel byte queues — no network
/// stack to run — so moving a message is much cheaper than a loopback
/// socket hop ([`HOST_NET_STACK`]).
pub const HOST_CHAN_OP: u64 = 900;

/// Cost of creating an SGX enclave ("SGX Create" of Figure 8; enclave
/// creation adds and measures EPC pages and is millisecond-scale —
/// the slowest bar on the log-scale axis).
pub const SGX_CREATE: u64 = 41_000_000;

/// Cost of entering an existing enclave ("ECALL" of Figure 8,
/// reusing a previously created context).
pub const SGX_ECALL: u64 = 14_300;

/// User-space bookkeeping to pop/push a virtine shell from Wasp's pool
/// (§5.2). Small by design: with caching plus asynchronous cleaning, shell
/// provisioning lands "within 4% of a bare vmrun".
pub const WASP_POOL_BOOKKEEPING: u64 = 60;

/// User-space bookkeeping to look up and pop a *warm* shell — a keyed
/// (tenant, virtine) list probe rather than the clean list's plain pop, so
/// slightly heavier than [`WASP_POOL_BOOKKEEPING`]. The warm path's real
/// saving is downstream: re-arming copies only the dirty-page delta
/// ([`memcpy_cycles`] over a handful of pages) instead of the full sparse
/// snapshot.
pub const WASP_WARM_BOOKKEEPING: u64 = 90;

/// memcpy bandwidth of `tinker` in bytes per cycle, times 1000.
///
/// §6.2 measures 6.7 GB/s; at 2.69 GHz that is 2.49 bytes/cycle, i.e.
/// ≈0.401 cycles/byte. A 16 MB image therefore costs ≈2.3 ms to copy,
/// matching Figure 12.
pub const MEM_BYTES_PER_KCYCLE: u64 = 2_490;

/// Cycle cost of copying `bytes` at the measured memcpy bandwidth.
pub fn memcpy_cycles(bytes: usize) -> u64 {
    // cycles = bytes / 2.49 = bytes * 1000 / 2490.
    (bytes as u64 * 1_000).div_ceil(MEM_BYTES_PER_KCYCLE)
}

/// Cycle cost of zeroing `bytes` (memset runs at memcpy-class bandwidth).
pub fn memset_cycles(bytes: usize) -> u64 {
    memcpy_cycles(bytes)
}

/// Cost of a complete `KVM_RUN` ioctl round trip, excluding guest execution:
/// user→kernel entry, dispatch, `vmrun`, one exit, and the return to user
/// space. This is the "vmrun" floor of Figures 2 and 8.
pub fn kvm_run_round_trip() -> u64 {
    HOST_RING_TRANSITION + KVM_IOCTL_DISPATCH + VMENTRY + VMEXIT + HOST_RING_TRANSITION
}

// ---------------------------------------------------------------------------
// vsched dispatcher costs (multi-tenant layer above Wasp). These model the
// per-request bookkeeping of a scheduling layer that must not disturb the
// microsecond-scale hot path the paper establishes: each is a handful of
// cache lines, orders of magnitude below `KVM_CREATE_VM`.

/// Admission control per request: token-bucket refill/charge plus the
/// in-flight-cap check (a few arithmetic ops and two cache lines).
pub const VSCHED_ADMISSION: u64 = 120;

/// One run-queue operation (binary-heap push or pop) on a shard.
pub const VSCHED_QUEUE_OP: u64 = 80;

/// Stealing a clean shell from a sibling shard: the one cross-shard
/// synchronization on the acquire path (lock hand-off plus the cache-line
/// migration of the pool entry). Charged only on steal, keeping the
/// shard-local hit path contention-free. This is the *same-CCX* floor of
/// the per-hop transfer model below; `vsched`'s topology layer picks the
/// constant matching the donor→thief distance.
pub const VSCHED_STEAL_TRANSFER: u64 = 1_400;

// Per-hop transfer costs: moving a shell (steal) or a suspended run
// (resume-time migration) between shards is priced by how far the cache
// lines travel on the simulated 2-socket `tinker` host. The same-CCX
// case is the historical flat cost above; the farther hops add the extra
// coherence latency real parts measure.

/// Transfer between shards sharing a core complex (one L3 slice): the
/// pool entry and shell metadata move within a shared last-level cache —
/// the [`VSCHED_STEAL_TRANSFER`] floor.
pub const VSCHED_TRANSFER_SAME_CCX: u64 = VSCHED_STEAL_TRANSFER;

/// Transfer between CCXs on the same socket: lines cross the on-die
/// fabric between L3 slices (measured CCX-to-CCX latency is ~2-3x the
/// shared-L3 hit on the referenced hardware generation).
pub const VSCHED_TRANSFER_CROSS_CCX: u64 = 3_400;

/// Transfer across sockets: every line crosses the inter-socket
/// interconnect, NUMA-remote at roughly 7x the shared-L3 cost — the
/// distance a topology-aware policy exists to avoid.
pub const VSCHED_TRANSFER_CROSS_SOCKET: u64 = 9_800;

/// Transfer between *nodes*: the run's state (arguments, suspended-run
/// image, admission record) leaves shared memory entirely and crosses
/// the cluster network — one simulated-net RPC round trip plus
/// serialization, ~8.5x the cross-socket hop. Kept below
/// [`KVM_CREATE_VM`] on purpose: evacuating a queued run to a healthy
/// node is still cheaper than letting the work die and re-minting a
/// cold VM for its retry, which is why cross-node evacuation rides the
/// same priced `Candidate` machinery as a steal instead of a bespoke
/// recovery path.
pub const VSCHED_TRANSFER_CROSS_NODE: u64 = 84_000;

/// Recording one trace span into the bounded in-memory ring when
/// invocation tracing is enabled: a timestamp read, a bucket index, and
/// a ring slot write (~two cache lines). Charged per span so the
/// tracing-on vs tracing-off ablation is deterministic in virtual time;
/// tracing disabled charges nothing, keeping traced-off runs
/// bit-identical to historical baselines.
pub const VTRACE_SPAN: u64 = 40;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cycles;

    #[test]
    fn memcpy_16mb_is_about_2_3_ms() {
        let cycles = memcpy_cycles(16 * 1024 * 1024);
        let ms = Cycles(cycles).as_millis();
        assert!((2.0..2.8).contains(&ms), "16MB copy took {ms} ms");
    }

    #[test]
    fn memcpy_is_monotone_and_zero_safe() {
        assert_eq!(memcpy_cycles(0), 0);
        assert!(memcpy_cycles(1) >= 1);
        assert!(memcpy_cycles(4096) < memcpy_cycles(8192));
    }

    #[test]
    fn vmrun_floor_is_a_few_thousand_cycles() {
        let floor = kvm_run_round_trip();
        assert!(
            (2_000..6_000).contains(&floor),
            "vmrun floor = {floor} cycles"
        );
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn abstraction_ordering_matches_figure_2() {
        // function < vmrun < pthread < KVM create < process (Figure 2/8).
        // The operands are calibration constants on purpose: the test
        // pins their relative order against future re-calibration.
        assert!(HOST_FUNCTION_CALL < kvm_run_round_trip());
        assert!(kvm_run_round_trip() < HOST_PTHREAD_CREATE_JOIN);
        assert!(HOST_PTHREAD_CREATE_JOIN < KVM_CREATE_VM);
        assert!(KVM_CREATE_VM < HOST_PROCESS_SPAWN);
        assert!(HOST_PROCESS_SPAWN < SGX_CREATE);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn transfer_costs_grow_with_distance() {
        // Same CCX < cross CCX < cross socket, and even the farthest hop
        // stays far below minting a new VM — stealing across sockets is
        // still worth it when the alternative is KVM_CREATE_VM.
        assert_eq!(VSCHED_TRANSFER_SAME_CCX, VSCHED_STEAL_TRANSFER);
        assert!(VSCHED_TRANSFER_SAME_CCX < VSCHED_TRANSFER_CROSS_CCX);
        assert!(VSCHED_TRANSFER_CROSS_CCX < VSCHED_TRANSFER_CROSS_SOCKET);
        assert!(VSCHED_TRANSFER_CROSS_SOCKET < KVM_CREATE_VM / 10);
        // The node hop leaves shared memory for the network: far above
        // any intra-node hop, but still below minting a cold VM, so
        // evacuating work off a failing node beats abandoning it.
        assert!(VSCHED_TRANSFER_CROSS_SOCKET < VSCHED_TRANSFER_CROSS_NODE);
        assert!(VSCHED_TRANSFER_CROSS_NODE < KVM_CREATE_VM);
    }

    #[test]
    fn class_table_uses_the_per_instruction_constants() {
        // The predecoded interpreter indexes this table by OpClass
        // discriminant; the entries must stay byte-for-byte the ticks the
        // reference interpreter charges or cycle-identity breaks.
        assert_eq!(GUEST_CLASS_BASE.len(), 11);
        assert_eq!(GUEST_CLASS_BASE[0], GUEST_ALU);
        assert_eq!(GUEST_CLASS_BASE[1], GUEST_MUL);
        assert_eq!(GUEST_CLASS_BASE[2], GUEST_DIV);
        assert_eq!(GUEST_CLASS_BASE[3], 0); // Mem: helper-charged.
        assert_eq!(GUEST_CLASS_BASE[4], GUEST_BRANCH);
        assert_eq!(GUEST_CLASS_BASE[5], GUEST_CALLRET);
        assert_eq!(GUEST_CLASS_BASE[6], GUEST_STACK);
        assert_eq!(GUEST_CLASS_BASE[7], GUEST_PIO);
        assert_eq!(GUEST_CLASS_BASE[8], GUEST_HLT);
        assert_eq!(GUEST_CLASS_BASE[9], 0); // System: mode-dependent.
        assert_eq!(GUEST_CLASS_BASE[10], 0); // Mark: free.
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn mode_costs_match_table_1_ordering() {
        // Table 1: ident map >> lgdt16 > protected transition > lgdt32
        // > ljmp64 > ljmp32 > first instruction.
        assert!(MODE_CR0_PE > MODE_LGDT_PROT);
        assert!(MODE_LGDT_REAL > MODE_CR0_PE);
        assert!(MODE_LJMP64 > MODE_LJMP32);
        assert!(MODE_LJMP32 > GUEST_FIRST_INSTRUCTION);
    }
}
