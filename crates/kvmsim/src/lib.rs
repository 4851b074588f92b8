//! # kvmsim — the hosted-hypervisor interface
//!
//! A KVM-shaped API (modelled on the rust-vmm `kvm-ioctls` crate the paper's
//! ecosystem would use) over the VISA machine: `Hypervisor` → [`VmFd`] →
//! [`VmFd::run`] → [`VmExit`]. Every operation charges the calibrated cost
//! of its real counterpart:
//!
//! * `KVM_CREATE_VM` pays the kernel-side VMCS/VMCB allocation that makes
//!   from-scratch virtine creation expensive (§5.2);
//! * `KVM_RUN` pays a user→kernel ring transition, KVM's sanity checks, the
//!   `vmrun` world switch in, and — when the guest exits — the world switch
//!   out plus the return ring transition. This is the "vmrun" floor of
//!   Figures 2 and 8, and why hypercall exits are "doubly expensive" (§6.3);
//! * the first guest instruction after entry pays the pipeline-fill cost of
//!   Table 1.
//!
//! ## What a shell-lifecycle step charges, and what it does
//!
//! The charge and the host work are two ledgers (`visa::mem` module docs).
//! The *charge* is by dirty extent, as the paper's figures are: `clean`
//! memsets [`visa::mem::Memory::dirty_bytes`], `snapshot` and `restore`
//! memcpy [`VmSnapshot::copied_bytes`], `restore_delta` one page per entry
//! of the dirty log. The *work* is by page:
//!
//! | step | physically |
//! |---|---|
//! | [`VmFd::clean`] / [`VmFd::clean_async`] | zeroes the pages that may hold a non-zero byte — afterwards none does — and resets the vCPU, keeping the shell's block cache |
//! | [`VmFd::snapshot`] | copies the two extents out and notes which pages they have content on |
//! | [`VmFd::restore`] | wipes as `clean` does, then copies exactly the pages the snapshot has content on |
//! | [`VmFd::restore_delta`] | copies exactly the pages in the dirty log |
//! | dropping the `VmFd` | wipes as `clean` does and retires the VM to the thread's spare list: its guest-memory buffer and its vCPU's block cache, which stays with that memory |
//! | [`Hypervisor::create_vm`] | charges the full from-scratch cost, builds a new vCPU in the reset state, and takes a retired shell of the size — already zero, its block cache adopted as `clean` adopts it — or allocates |
//!
//! `visa::mem::counters()` counts the pages and buffers.
//!
//! Both a KVM flavor (Linux) and a Hyper-V flavor (Windows,
//! `WHvRunVirtualProcessor`) are provided; the paper reports their
//! performance is similar, and the Hyper-V flavor differs only by a small
//! constant factor on the dispatch path.

use std::cell::RefCell;

use hostsim::HostKernel;
use vclock::costs;
use visa::asm::Image;
use visa::cpu::{Cpu, CpuConfig, CpuExit, CpuState, Fault};
use visa::mem::{Memory, SparseImage};
use visa::Reg;

/// Hypervisor flavor (the paper's Wasp runs on both, Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Linux KVM: `ioctl(KVM_RUN)`.
    Kvm,
    /// Windows Hyper-V: `WHvRunVirtualProcessor()`. Slightly heavier
    /// dispatch path; "Hyper-V performance was similar for our
    /// experiments" (§4.1).
    HyperV,
}

impl Flavor {
    fn dispatch_cost(self) -> u64 {
        match self {
            Flavor::Kvm => costs::KVM_IOCTL_DISPATCH,
            Flavor::HyperV => costs::KVM_IOCTL_DISPATCH + costs::KVM_IOCTL_DISPATCH / 8,
        }
    }
}

/// Reasons [`VmFd::run`] returned to user space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmExit {
    /// Guest executed `hlt`.
    Hlt,
    /// Guest wrote `value` to I/O `port` (Wasp hypercalls).
    IoOut {
        /// Port number.
        port: u16,
        /// Value written.
        value: u64,
    },
    /// Guest read from I/O `port`. Wasp answers none: it kills the guest.
    IoIn {
        /// Port number.
        port: u16,
    },
    /// The caller's step budget ran out (runaway-guest watchdog).
    StepLimit,
}

/// The entry point to the simulated virtualization API.
#[derive(Clone)]
pub struct Hypervisor {
    kernel: HostKernel,
    flavor: Flavor,
}

impl std::fmt::Debug for Hypervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hypervisor({:?})", self.flavor)
    }
}

impl Hypervisor {
    /// Opens the KVM device.
    pub fn kvm(kernel: HostKernel) -> Hypervisor {
        Hypervisor {
            kernel,
            flavor: Flavor::Kvm,
        }
    }

    /// Opens the Hyper-V platform.
    pub fn hyperv(kernel: HostKernel) -> Hypervisor {
        Hypervisor {
            kernel,
            flavor: Flavor::HyperV,
        }
    }

    /// The host kernel behind this hypervisor.
    pub fn kernel(&self) -> &HostKernel {
        &self.kernel
    }

    fn ioctl_round_trip_entry(&self) {
        self.kernel.ring_transition();
        self.kernel.clock().tick(self.flavor.dispatch_cost());
    }

    fn ioctl_round_trip_exit(&self) {
        self.kernel.ring_transition();
    }

    /// `KVM_CREATE_VM` + `KVM_SET_USER_MEMORY_REGION` + `KVM_CREATE_VCPU`:
    /// allocates a fresh virtual context with `mem_size` bytes of guest
    /// memory and the reset vector at `entry`.
    ///
    /// This is the expensive, from-scratch path of §5.2: "we pay a higher
    /// cost to construct a virtine due to the host kernel's internal
    /// allocation of the VM state (VMCS on Intel/VMCB on AMD)". It charges
    /// that cost whatever host state the simulator reuses underneath.
    pub fn create_vm(&self, mem_size: usize, entry: u64) -> VmFd {
        // KVM_CREATE_VM.
        self.ioctl_round_trip_entry();
        self.kernel.clock().tick(costs::KVM_CREATE_VM);
        self.ioctl_round_trip_exit();

        // KVM_SET_USER_MEMORY_REGION.
        self.ioctl_round_trip_entry();
        let pages = (mem_size as u64).div_ceil(4096);
        self.kernel
            .clock()
            .tick(costs::KVM_SET_MEMORY_FIXED + pages * costs::KVM_SET_MEMORY_PER_PAGE);
        self.ioctl_round_trip_exit();

        // KVM_CREATE_VCPU.
        self.ioctl_round_trip_entry();
        self.kernel.clock().tick(costs::KVM_CREATE_VCPU);
        self.ioctl_round_trip_exit();

        // The vCPU is reset exactly as from scratch; the host state a
        // retired shell of the size kept — a wiped buffer, and the block
        // cache the wipe's code-dirty marks vouch for — is reused under it.
        let mut cpu = Cpu::new(self.kernel.clock().clone(), CpuConfig::default(), entry);
        let mem = Memory::revive(mem_size, &mut cpu);
        VmFd {
            inner: Box::new(RefCell::new(VmInner {
                cpu,
                mem,
                kernel: self.kernel.clone(),
                flavor: self.flavor,
            })),
        }
    }
}

struct VmInner {
    cpu: Cpu,
    mem: Memory,
    kernel: HostKernel,
    flavor: Flavor,
}

/// A virtual machine and its one vCPU (the per-context "device file" of
/// §5.1): the only handle, owned, so whoever holds it holds the VM. Boxed,
/// so a shell moves between pools and runs as one pointer.
pub struct VmFd {
    inner: Box<RefCell<VmInner>>,
}

// The VM is gone: it retires as a wiped shell that keeps its vCPU's block
// cache for the next `create_vm` of its size.
impl Drop for VmFd {
    fn drop(&mut self) {
        let inner = self.inner.get_mut();
        inner.mem.retire(&mut inner.cpu);
    }
}

impl std::fmt::Debug for VmFd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VmFd({} bytes)", self.inner.borrow().mem.size())
    }
}

/// A snapshot of a VM: architected CPU state plus the dirty memory regions
/// (Wasp snapshotting, §5.2). Only written state is captured, so snapshot
/// and restore costs are proportional to the *image* (plus live heap/stack),
/// exactly the scaling Figure 12 measures.
#[derive(Debug, Clone)]
pub struct VmSnapshot {
    /// Architected CPU state at the snapshot point.
    pub cpu: CpuState,
    image: SparseImage,
}

impl VmSnapshot {
    /// Bytes a restore is charged for copying (the captured extents).
    pub fn copied_bytes(&self) -> usize {
        self.image.copied_bytes()
    }

    /// Guest memory size the snapshot targets.
    pub fn mem_size(&self) -> usize {
        self.image.mem_size()
    }
}

impl VmFd {
    /// Size of guest-physical memory.
    pub fn mem_size(&self) -> usize {
        self.inner.borrow().mem.size()
    }

    /// Loads a binary image into guest memory at its base address and points
    /// the vCPU at its entry. Wasp "simply accepts a binary image, loads it
    /// at guest virtual address 0x8000, and enters the VM context" (§5.1).
    /// Charges the userspace memcpy of the image bytes.
    ///
    /// # Panics
    ///
    /// Panics if the image does not fit in guest memory.
    pub fn load_image(&self, image: &Image) {
        let mut inner = self.inner.borrow_mut();
        inner.kernel.memcpy(image.bytes.len());
        inner
            .mem
            .write_bytes(image.base, &image.bytes)
            .expect("image must fit in guest memory");
        inner.cpu.pc = image.entry;
    }

    /// Reads guest memory (host-side access; bounds-checked).
    pub fn read_guest(&self, addr: u64, len: usize) -> Result<Vec<u8>, Fault> {
        let inner = self.inner.borrow();
        inner
            .mem
            .slice(addr, len as u64)
            .map(|s| s.to_vec())
            .map_err(|e| Fault::PhysOutOfBounds { paddr: e.paddr })
    }

    /// Writes guest memory (host-side access, such as argument marshalling;
    /// bounds-checked).
    pub fn write_guest(&self, addr: u64, data: &[u8]) -> Result<(), Fault> {
        let mut inner = self.inner.borrow_mut();
        inner
            .mem
            .write_bytes(addr, data)
            .map_err(|e| Fault::PhysOutOfBounds { paddr: e.paddr })
    }

    /// Lends the guest memory to `f` (a hypercall handler's access).
    pub fn with_mem<R>(&self, f: impl FnOnce(&mut Memory) -> R) -> R {
        f(&mut self.inner.borrow_mut().mem)
    }

    /// Zeroes the guest memory the virtine dirtied and resets the vCPU to
    /// the reset state at `entry` — the shell-cleaning step that
    /// "prevent\[s\] information leakage" (§5.2). Charges memset bandwidth
    /// for the dirty extents; zeroes the pages the virtine touched (EPT dirty
    /// tracking tells the hypervisor which those are).
    pub fn clean(&self, entry: u64) {
        let mut inner = self.inner.borrow_mut();
        let dirty = inner.mem.dirty_bytes() as usize;
        inner.kernel.memset(dirty);
        self.clean_uncharged_inner(&mut inner, entry);
    }

    /// Zeroes memory and resets the vCPU *without* charging the wipe to the
    /// shared clock: the asynchronous cleaning mode of §5.2, where shells
    /// are cleaned "in the background … when there are no incoming
    /// requests". The work still happens (isolation is preserved); only the
    /// requester's timeline is spared.
    pub fn clean_async(&self, entry: u64) {
        let mut inner = self.inner.borrow_mut();
        self.clean_uncharged_inner(&mut inner, entry);
    }

    fn clean_uncharged_inner(&self, inner: &mut VmInner, entry: u64) {
        inner.mem.clear();
        let clock = inner.cpu.clock().clone();
        // `Cpu::new` is the one definition of the reset state. The predecode
        // cache is not part of it: it is host-side state of the shell, and
        // `clear` just marked every page it zeroed code-dirty (as the next
        // load will every page it writes), so whichever image this shell
        // hosts next — the same tenant's or another's — has every retained
        // block compared with its own bytes before it can run.
        let mut fresh = Cpu::new(clock, CpuConfig::default(), entry);
        fresh.adopt_predecode(&mut inner.cpu);
        inner.cpu = fresh;
    }

    /// Captures a snapshot of the VM's dirty state. Charges the memcpy of
    /// the captured bytes (§5.2, §6.2: snapshots run at memcpy bandwidth).
    ///
    /// Also resets the dirty-page log: from this instant the log records
    /// exactly the pages that diverge from the captured snapshot, which is
    /// what [`VmFd::restore_delta`] re-arms.
    pub fn snapshot(&self) -> VmSnapshot {
        let mut inner = self.inner.borrow_mut();
        let image = inner.mem.snapshot_sparse();
        inner.kernel.memcpy(image.copied_bytes());
        inner.mem.reset_dirty_pages();
        VmSnapshot {
            cpu: inner.cpu.save_state(),
            image,
        }
    }

    /// Restores a snapshot. Charges the memcpy of the snapshot bytes — the
    /// dominant per-invocation cost Figure 12 measures against image size —
    /// plus a wipe of any residual dirty state in the shell. Physically:
    /// wipes the pages the shell touched, copies the pages the snapshot has
    /// content on.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's memory size differs from this VM's.
    pub fn restore(&self, snap: &VmSnapshot) {
        let mut inner = self.inner.borrow_mut();
        if !inner.mem.is_clean() {
            let dirty = inner.mem.dirty_bytes() as usize;
            inner.kernel.memset(dirty);
        }
        inner.kernel.memcpy(snap.copied_bytes());
        inner.mem.restore_sparse(&snap.image);
        inner.cpu.restore_state(&snap.cpu);
    }

    /// Pages (4 KiB) written since the last snapshot capture or (full or
    /// delta) restore — the simulated `KVM_GET_DIRTY_LOG`.
    pub fn dirty_log(&self) -> Vec<u64> {
        self.inner.borrow().mem.dirty_page_indices()
    }

    /// Delta re-arm (warm-shell fast path): restores only the pages the
    /// dirty log reports, copying their snapshot contents back at memcpy
    /// bandwidth — a handful of pages instead of the full sparse image.
    /// Returns the number of pages copied.
    ///
    /// Correctness relies on the log discipline: [`VmFd::snapshot`],
    /// [`VmFd::restore`], and this method all reset the log at a point
    /// where memory provably equals `snap`, and every subsequent guest or
    /// host write sets its page bit. The re-armed VM is therefore
    /// byte-identical to a full [`VmFd::restore`] (asserted by unit test).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's memory size differs from this VM's.
    pub fn restore_delta(&self, snap: &VmSnapshot) -> usize {
        let mut inner = self.inner.borrow_mut();
        let pages = inner.mem.dirty_page_count();
        inner.kernel.memcpy(pages * visa::mem::PAGE_SIZE as usize);
        inner.mem.restore_pages_sparse(&snap.image);
        inner.cpu.restore_state(&snap.cpu);
        pages
    }

    /// `KVM_RUN`: enters the guest and runs until it exits, faults, or
    /// retires `max_steps` instructions.
    pub fn run(&self, max_steps: u64) -> Result<VmExit, Fault> {
        let mut inner = self.inner.borrow_mut();
        let clock = inner.kernel.clock().clone();
        // User → kernel, KVM dispatch and sanity checks.
        clock.tick(costs::HOST_RING_TRANSITION + inner.flavor.dispatch_cost());
        // World switch in.
        clock.tick(costs::VMENTRY);
        inner.cpu.note_vmentry();

        let VmInner {
            ref mut cpu,
            ref mut mem,
            ..
        } = *inner;
        let result = cpu.run(mem, max_steps);

        // World switch out + kernel → user.
        clock.tick(costs::VMEXIT + costs::HOST_RING_TRANSITION);
        result.map(|exit| match exit {
            CpuExit::Hlt => VmExit::Hlt,
            CpuExit::IoOut { port, value } => VmExit::IoOut { port, value },
            CpuExit::IoIn { port } => VmExit::IoIn { port },
            CpuExit::StepLimit => VmExit::StepLimit,
        })
    }

    /// Reads a guest register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.inner.borrow().cpu.reg(r)
    }

    /// Writes a guest register.
    pub fn set_reg(&self, r: Reg, v: u64) {
        self.inner.borrow_mut().cpu.set_reg(r, v);
    }

    /// Drains the milestone marks recorded by the guest's `mark`
    /// instructions (experiment instrumentation).
    pub fn take_marks(&self) -> Vec<(u8, vclock::Cycles)> {
        std::mem::take(&mut self.inner.borrow_mut().cpu.marks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vclock::Clock;

    fn setup() -> (Clock, HostKernel, Hypervisor) {
        let clock = Clock::new();
        let kernel = HostKernel::new(clock.clone(), None);
        let hv = Hypervisor::kvm(kernel.clone());
        (clock, kernel, hv)
    }

    fn hlt_image() -> Image {
        visa::assemble(".org 0x8000\n hlt\n").unwrap()
    }

    #[test]
    fn create_vm_and_halt_matches_figure_2_kvm_bar() {
        let (clock, _, hv) = setup();
        let t0 = clock.now();
        let vm = hv.create_vm(64 * 1024, 0x8000);
        vm.load_image(&hlt_image());
        let exit = vm.run(100).unwrap();
        assert_eq!(exit, VmExit::Hlt);
        let total = (clock.now() - t0).get();
        // Figure 2's "KVM" bar: a few hundred thousand cycles.
        assert!(
            (150_000..600_000).contains(&total),
            "KVM create+hlt = {total} cycles"
        );
    }

    #[test]
    fn bare_kvm_run_is_a_few_thousand_cycles() {
        let (clock, _, hv) = setup();
        let vm = hv.create_vm(64 * 1024, 0x8000);
        vm.load_image(&visa::assemble(".org 0x8000\n hlt\n hlt\n").unwrap());
        vm.run(100).unwrap();
        // Second KVM_RUN measures the reusable floor (the "vmrun" bar).
        let t0 = clock.now();
        vm.run(100).unwrap();
        let total = (clock.now() - t0).get();
        assert!(
            (2_000..8_000).contains(&total),
            "vmrun floor = {total} cycles"
        );
    }

    #[test]
    fn hyperv_flavor_is_similar_but_not_identical() {
        let clock_k = Clock::new();
        let hv_k = Hypervisor::kvm(HostKernel::new(clock_k.clone(), None));
        let clock_h = Clock::new();
        let hv_h = Hypervisor::hyperv(HostKernel::new(clock_h.clone(), None));

        for (clock, hv) in [(&clock_k, &hv_k), (&clock_h, &hv_h)] {
            let vm = hv.create_vm(64 * 1024, 0x8000);
            vm.load_image(&hlt_image());
            vm.run(100).unwrap();
            assert!(clock.now().get() > 0);
        }
        let k = clock_k.now().get() as f64;
        let h = clock_h.now().get() as f64;
        assert!(h > k, "Hyper-V should be slightly slower");
        assert!(h / k < 1.05, "but similar (k={k}, h={h})");
    }

    #[test]
    fn io_out_reaches_userspace_with_port_and_value() {
        let (_, _, hv) = setup();
        let vm = hv.create_vm(64 * 1024, 0x8000);
        vm.load_image(&visa::assemble(".org 0x8000\n mov r1, 7\n out 0xF1, r1\n hlt\n").unwrap());
        assert_eq!(
            vm.run(100).unwrap(),
            VmExit::IoOut {
                port: 0xF1,
                value: 7
            }
        );
        assert_eq!(vm.run(100).unwrap(), VmExit::Hlt);
    }

    #[test]
    fn io_in_reaches_userspace_with_its_port() {
        let (_, _, hv) = setup();
        let vm = hv.create_vm(64 * 1024, 0x8000);
        vm.load_image(&visa::assemble(".org 0x8000\n in r2, 0x30\n hlt\n").unwrap());
        assert_eq!(vm.run(100).unwrap(), VmExit::IoIn { port: 0x30 });
    }

    #[test]
    fn guest_faults_surface_to_the_client() {
        let (_, _, hv) = setup();
        let vm = hv.create_vm(4096, 0x0);
        vm.load_image(&visa::assemble(".org 0\n mov r0, 1\n mov r1, 0\n div r0, r1\n").unwrap());
        let err = vm.run(100).unwrap_err();
        assert!(matches!(err, Fault::DivideByZero { .. }));
    }

    #[test]
    fn guest_memory_accessors_are_bounds_checked() {
        let (_, _, hv) = setup();
        let vm = hv.create_vm(4096, 0);
        vm.write_guest(0, b"abc").unwrap();
        assert_eq!(vm.read_guest(0, 3).unwrap(), b"abc");
        assert!(vm.read_guest(4095, 2).is_err());
        assert!(vm.write_guest(4096, b"x").is_err());
    }

    #[test]
    fn clean_wipes_memory_and_resets_cpu() {
        let (clock, _, hv) = setup();
        let vm = hv.create_vm(64 * 1024, 0x8000);
        vm.load_image(&hlt_image());
        vm.run(100).unwrap();
        let t0 = clock.now();
        vm.clean(0x8000);
        let sync_cost = (clock.now() - t0).get();
        assert!(sync_cost > 0, "synchronous clean must charge the wipe");
        assert!(vm.read_guest(0x8000, 1).unwrap()[0] == 0);

        // Async clean wipes too, but charges nothing.
        vm.load_image(&hlt_image());
        let t0 = clock.now();
        vm.clean_async(0x8000);
        // Loading charges, cleaning doesn't; compare to pre-clean time.
        assert_eq!((clock.now() - t0).get(), 0);
        assert!(vm.read_guest(0x8000, 1).unwrap()[0] == 0);
    }

    #[test]
    fn snapshot_restore_round_trips_and_charges_bandwidth() {
        let (clock, _, hv) = setup();
        let vm = hv.create_vm(1 << 20, 0x8000);
        vm.load_image(
            &visa::assemble(".org 0x8000\n mov r3, 1234\n out 1, r3\n mov r3, 0\n hlt\n").unwrap(),
        );
        // Run to the out (our "snapshot point").
        assert!(matches!(vm.run(100).unwrap(), VmExit::IoOut { .. }));
        let snap = vm.snapshot();
        assert_eq!(snap.mem_size(), 1 << 20);
        // Only the dirty image region is captured, not the whole 1 MiB.
        assert!(
            snap.copied_bytes() < 64 * 1024,
            "snapshot captured {} bytes",
            snap.copied_bytes()
        );

        // Continue: r3 gets clobbered.
        assert_eq!(vm.run(100).unwrap(), VmExit::Hlt);
        assert_eq!(vm.reg(Reg(3)), 0);

        // Restore: r3 is 1234 again and execution resumes past the out.
        let t0 = clock.now();
        vm.restore(&snap);
        let restore_cost = (clock.now() - t0).get();
        let full_copy = costs::memcpy_cycles(1 << 20);
        let sparse_copy = costs::memcpy_cycles(snap.copied_bytes());
        assert!(
            restore_cost >= sparse_copy && restore_cost < full_copy / 4,
            "restore cost {restore_cost} (sparse {sparse_copy}, full {full_copy})"
        );
        assert_eq!(vm.reg(Reg(3)), 1234);
        assert_eq!(vm.run(100).unwrap(), VmExit::Hlt);
    }

    #[test]
    fn dirty_log_tracks_exactly_the_written_pages() {
        let (_, _, hv) = setup();
        let vm = hv.create_vm(64 * 4096, 0x8000);
        vm.load_image(&hlt_image());
        vm.run(100).unwrap();
        let _snap = vm.snapshot(); // Resets the log.
        assert!(vm.dirty_log().is_empty());
        vm.write_guest(3 * 4096 + 17, &[1, 2, 3]).unwrap();
        vm.write_guest(40 * 4096, &[9]).unwrap();
        assert_eq!(vm.dirty_log(), vec![3, 40]);
    }

    #[test]
    fn delta_rearm_copies_exactly_the_dirty_set_and_matches_full_restore() {
        // Two identical VMs run the same program past a snapshot point and
        // dirty the same pages; one is re-armed with the page delta, the
        // other pays the full sparse restore. Guest memory, registers, and
        // the outcome of a subsequent run must be byte-identical.
        let mk = || {
            let (_, _, hv) = setup();
            let vm = hv.create_vm(1 << 20, 0x8000);
            // Init writes a marker, snapshots (port out), then clobbers the
            // marker, dirties a far page, and halts with r3 clobbered.
            vm.load_image(
                &visa::assemble(
                    "
.org 0x8000
  mov r3, 1234
  mov r1, 0x6000
  store.q [r1], r3
  out 1, r3
  mov r3, 0
  store.q [r1], r3
  mov r1, 0x9F000
  store.q [r1], r3
  hlt
",
                )
                .unwrap(),
            );
            assert!(matches!(vm.run(100).unwrap(), VmExit::IoOut { .. }));
            let snap = vm.snapshot();
            assert_eq!(vm.run(100).unwrap(), VmExit::Hlt);
            (vm, snap)
        };

        let (delta_vm, snap_a) = mk();
        let (full_vm, snap_b) = mk();
        // The post-snapshot code touched pages 6 (marker) and 0x9F (far
        // store) and nothing else.
        assert_eq!(delta_vm.dirty_log(), vec![0x6, 0x9F]);
        let copied = delta_vm.restore_delta(&snap_a);
        assert_eq!(copied, 2, "delta must copy exactly the dirtied pages");
        full_vm.restore(&snap_b);

        let size = 1 << 20;
        assert_eq!(
            delta_vm.read_guest(0, size).unwrap(),
            full_vm.read_guest(0, size).unwrap(),
            "delta re-arm must be byte-identical to a full restore"
        );
        // Both resume from the snapshot point and converge on the same
        // halt state.
        for vm in [&delta_vm, &full_vm] {
            assert_eq!(vm.reg(Reg(3)), 1234);
            assert_eq!(vm.run(100).unwrap(), VmExit::Hlt);
            assert_eq!(vm.reg(Reg(3)), 0);
        }
        assert_eq!(
            delta_vm.read_guest(0, size).unwrap(),
            full_vm.read_guest(0, size).unwrap()
        );
    }

    #[test]
    fn delta_rearm_is_far_cheaper_than_full_restore() {
        let (clock, _, hv) = setup();
        let vm = hv.create_vm(1 << 20, 0x8000);
        // A fat init footprint: 128 KiB of low memory dirtied before the
        // snapshot point, then one page dirtied after it.
        vm.load_image(&hlt_image());
        vm.write_guest(0, &vec![7u8; 128 * 1024]).unwrap();
        let snap = vm.snapshot();
        vm.write_guest(4096, &[1]).unwrap();

        let (_, delta_cost) = clock.time(|| vm.restore_delta(&snap));
        // Dirty it again the same way for the full-restore comparison.
        vm.write_guest(4096, &[1]).unwrap();
        let (_, full_cost) = clock.time(|| vm.restore(&snap));
        assert!(
            delta_cost.get() * 10 < full_cost.get(),
            "delta {delta_cost} vs full {full_cost}"
        );
    }

    #[test]
    fn step_limit_watchdog_fires() {
        let (_, _, hv) = setup();
        let vm = hv.create_vm(4096, 0);
        vm.load_image(&visa::assemble(".org 0\nspin: jmp spin\n").unwrap());
        assert_eq!(vm.run(1000).unwrap(), VmExit::StepLimit);
    }
}
