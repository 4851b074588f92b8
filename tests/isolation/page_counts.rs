//! A shell's host cost is the pages it touched — in exact counts.
//!
//! The virtual clock charges a wipe, a snapshot and a restore by the two
//! dirty *extents* (`Memory::dirty_bytes`, `VmSnapshot::copied_bytes`); what
//! the host does is page-exact (`visa::mem` module docs). These tests pin the
//! second ledger with `visa::mem::counters()` — per-thread, so each test reads
//! exact deltas of its own work — and are the gate for the mechanism: a wipe
//! that goes back to memsetting an extent, a restore that copies one, or a
//! `create_vm` that goes back to the allocator fails here, whatever the host
//! clock says that day.
//!
//! The other half of the bargain — a clean and a reload of the same image
//! still build and invalidate *zero* predecoded blocks — is pinned in
//! `predecode_retention`
//! (`rearming_or_cleaning_a_shell_for_the_same_image_rebuilds_nothing`), and
//! here for a VM created on a destroyed one's retired shell. Block counters
//! are process-wide, so these tests take turns with the suite's others.

use virtines::hostsim::HostKernel;
use virtines::kvmsim::{Hypervisor, VmExit, VmFd};
use virtines::vcc;
use virtines::vclock::Clock;
use virtines::visa::cpu::{CpuConfig, CpuExit, Machine};
use virtines::visa::mem::{counters, Counters, PAGE_SIZE};
use virtines::visa::{self, asm::Image};
use virtines::wasp::{
    CleanShell, HypercallMask, Invocation, Pool, PoolMode, RunResult, Shell, ShellRun, VirtineSpec,
    Wasp, WaspConfig,
};

use super::turn;

const MEM: usize = 1 << 20;

fn hv() -> Hypervisor {
    Hypervisor::kvm(HostKernel::new(Clock::new(), None))
}

/// Code on page 8, a stack word on page 7, a data word on page 6: three
/// pages by the snapshot point (`out`), and page 0x40 after it.
fn image() -> Image {
    virtines::wasp::hypercall::assemble(
        ".org 0x8000\n\
         \x20 mov sp, 0x8000\n mov r0, 7\n push r0\n\
         \x20 mov r3, 0x6000\n store.q [r3], r0\n\
         \x20 mov r5, HC_SNAPSHOT\n out HC_PORT, r5\n\
         \x20 mov r3, 0x40000\n store.q [r3], r0\n\
         \x20 hlt\n",
    )
    .unwrap()
}

/// A VM that has run [`image`] to its `out`.
fn at_snapshot_point(hv: &Hypervisor) -> VmFd {
    let vm = hv.create_vm(MEM, 0x8000);
    vm.load_image(&image());
    assert!(matches!(vm.run(100).unwrap(), VmExit::IoOut { .. }));
    vm
}

/// What `f` added to this thread's counters.
fn counted(f: impl FnOnce()) -> Counters {
    let before = counters();
    f();
    let after = counters();
    Counters {
        pages_wiped: after.pages_wiped - before.pages_wiped,
        pages_restored: after.pages_restored - before.pages_restored,
        pages_rearmed: after.pages_rearmed - before.pages_rearmed,
        buffers_allocated: after.buffers_allocated - before.buffers_allocated,
        buffers_recycled: after.buffers_recycled - before.buffers_recycled,
    }
}

#[test]
fn a_clean_wipes_exactly_the_pages_the_run_touched() {
    let _turn = turn();
    let vm = at_snapshot_point(&hv());
    assert_eq!(vm.run(100).unwrap(), VmExit::Hlt);
    // Pages 6, 7, 8 and 0x40 — while the extents the wipe is *charged* for
    // run from 0 to the end of the image and from 0x40000 to the top.
    assert_eq!(vm.dirty_log(), vec![6, 7, 8, 0x40]);
    let wiped = counted(|| vm.clean(0x8000));
    assert_eq!(wiped.pages_wiped, 4);
    assert!(vm.read_guest(0, MEM).unwrap().iter().all(|&b| b == 0));
    // Nothing left to wipe: a second clean touches no page at all.
    assert_eq!(counted(|| vm.clean_async(0x8000)).pages_wiped, 0);
}

#[test]
fn a_full_restore_copies_exactly_the_pages_of_its_image() {
    let _turn = turn();
    let hv = hv();
    let source = at_snapshot_point(&hv);
    let snap = source.snapshot();
    let expected = source.read_guest(0, MEM).unwrap();
    // Charged by extent: everything below the end of the image, plus the
    // (empty) high region. Copied by page: 6, 7 and 8.
    assert!(snap.copied_bytes() > 0x8000);

    // Onto a clean shell: nothing to wipe, three pages to copy.
    let shell = hv.create_vm(MEM, 0x8000);
    let onto_clean = counted(|| shell.restore(&snap));
    assert_eq!((onto_clean.pages_wiped, onto_clean.pages_restored), (0, 3));
    assert_eq!(shell.read_guest(0, MEM).unwrap(), expected);

    // Onto a dirty one: the run past the snapshot point adds page 0x40, so
    // four pages are wiped (the image's three are zeroed and copied back),
    // then the same three copied.
    assert_eq!(shell.run(100).unwrap(), VmExit::Hlt);
    let onto_dirty = counted(|| shell.restore(&snap));
    assert_eq!((onto_dirty.pages_wiped, onto_dirty.pages_restored), (4, 3));
    assert_eq!(shell.read_guest(0, MEM).unwrap(), expected);

    // The warm path is exact too, and is its own counter.
    assert_eq!(shell.run(100).unwrap(), VmExit::Hlt);
    let rearm = counted(|| assert_eq!(shell.restore_delta(&snap), 1));
    assert_eq!(
        (rearm.pages_wiped, rearm.pages_restored, rearm.pages_rearmed),
        (0, 0, 1)
    );
    assert_eq!(shell.read_guest(0, MEM).unwrap(), expected);
}

#[test]
fn a_compiled_function_that_touches_the_heap_wipes_a_handful_of_pages() {
    let _turn = turn();
    // `vcc` puts the heap at 0x28000, below the midpoint of its 512 KiB
    // shell, so one malloc'ed store stretches the low *extent* — the charge —
    // past 160 KiB. The host wipe is the pages: image, heap page, stack.
    let unit = vcc::compile(
        "virtine int touch(int n) { char* page = malloc(4096); page[n % 4096] = n; return n + 1; }",
    )
    .expect("compile");
    let v = unit.virtine("touch").unwrap();
    let wasp = Wasp::new(hv(), WaspConfig::default());
    let spec = VirtineSpec::new("touch", v.image.clone(), v.mem_size).with_snapshot(false);
    let id = wasp.register(spec).unwrap();
    let run = ShellRun {
        shell: Shell::Created(CleanShell::create(wasp.hypervisor(), v.mem_size)),
        id,
        args: &vcc::marshal_args(&[41]),
        invocation: Invocation::default(),
        narrow: HypercallMask::ALLOW_ALL,
        resumable: false,
    };
    let RunResult::Done(out, used) = wasp.run_on_shell(run).unwrap() else {
        unreachable!("non-resumable runs never suspend")
    };
    assert_eq!(out.ret, 42);
    let touched = used.dirty_log().len() as u64;
    let mut pool = Pool::new(PoolMode::Cached);
    let wiped = counted(|| pool.release(used)).pages_wiped;
    assert_eq!(wiped, touched);
    assert!(wiped < 20, "wiped {wiped} pages");
    let image_pages = (v.image.bytes.len() as u64).div_ceil(PAGE_SIZE);
    assert!(wiped >= image_pages + 2, "image, heap and stack at least");
}

#[test]
fn a_dirty_shell_charges_its_extent_whatever_the_host_wipes() {
    let _turn = turn();
    // The two ledgers side by side: one byte at 0x28000 is one page of host
    // work and 0x28001 bytes of virtual memset.
    let hv = hv();
    let clock = hv.kernel().clock().clone();
    let vm = hv.create_vm(512 * 1024, 0x8000);
    vm.write_guest(0x28000, &[1]).unwrap();
    let mut cycles = 0;
    let wiped = counted(|| cycles = clock.time(|| vm.clean(0x8000)).1.get());
    assert_eq!(wiped.pages_wiped, 1);
    assert_eq!(cycles, virtines::vclock::costs::memset_cycles(0x28001));
}

#[test]
fn create_vm_after_a_drop_goes_to_the_spare_list_not_the_allocator() {
    let _turn = turn();
    let hv = hv();
    // A size no other test on this thread uses, so the first ones allocate.
    // Two spares of the size are parked: the dirty VM's retired shell, then
    // the bare buffer of a `Machine` dropped after it.
    let size = 24 * PAGE_SIZE as usize;
    let first = counted(|| {
        let bare = Machine::new(Clock::new(), CpuConfig::default(), size, 0x8000);
        drop(at_dirty(&hv, size));
        drop(bare);
    });
    assert_eq!((first.buffers_allocated, first.buffers_recycled), (2, 0));
    // The dirty VM was dropped without a clean: its wipe happened at the
    // drop, of its code page and its data page.
    assert_eq!(first.pages_wiped, 2);
    // `create_vm` takes the retired shell over the newer bare buffer: all
    // zero, and the blocks its last vCPU built come with it, so the same
    // code builds none.
    let built = visa::pred::counters().blocks_built;
    let again = counted(|| {
        let vm = hv.create_vm(size, 0x8000);
        assert!(vm.read_guest(0, size).unwrap().iter().all(|&b| b == 0));
        vm.load_image(&dirtier());
        assert_eq!(vm.run(100).unwrap(), VmExit::Hlt);
    });
    assert_eq!((again.buffers_allocated, again.buffers_recycled), (0, 1));
    assert_eq!(visa::pred::counters().blocks_built, built, "blocks rebuilt");
    // Another size misses the list; live VMs of the size take one spare each
    // (the retired shell first), then the allocator.
    let other = counted(|| drop(hv.create_vm(size + PAGE_SIZE as usize, 0x8000)));
    assert_eq!((other.buffers_allocated, other.buffers_recycled), (1, 0));
    let three = counted(|| drop([0; 3].map(|_| hv.create_vm(size, 0x8000))));
    assert_eq!((three.buffers_allocated, three.buffers_recycled), (1, 2));
}

/// Stores to page 3 and halts: code on page 8, data on page 3.
fn dirtier() -> Image {
    visa::assemble(".org 0x8000\n mov r1, 0x3000\n store.q [r1], r1\n hlt\n").unwrap()
}

/// A VM of `size` bytes that has run [`dirtier`].
fn at_dirty(hv: &Hypervisor, size: usize) -> VmFd {
    let vm = hv.create_vm(size, 0x8000);
    vm.load_image(&dirtier());
    assert_eq!(vm.run(100).unwrap(), VmExit::Hlt);
    vm
}

#[test]
fn a_wipe_marks_code_dirty_exactly_the_pages_it_zeroes() {
    let _turn = turn();
    // The block cache revalidates what a wipe rewrote and nothing else: a
    // page that was zero and stays zero has not changed under any block.
    let mut m = Machine::new(Clock::new(), CpuConfig::default(), MEM, 0);
    m.load_image(&image());
    assert!(matches!(m.run(100).unwrap(), CpuExit::IoOut { .. }));
    let pages = MEM as u64 / PAGE_SIZE;
    for page in 0..pages {
        m.mem.clear_code_dirty_page(page);
    }
    let wiped = counted(|| m.mem.clear()).pages_wiped;
    let marked: Vec<u64> = (0..pages).filter(|&p| m.mem.code_page_dirty(p)).collect();
    assert_eq!(marked, vec![6, 7, 8]);
    assert_eq!(wiped, 3);
}
