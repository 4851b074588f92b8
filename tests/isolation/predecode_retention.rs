//! §5.2 isolation under a retained predecode cache.
//!
//! The paper's pooled shells are safe to hand from one virtine to the next
//! because a shell is wiped before reuse: "we can clear its context,
//! preventing information leakage" (§5.2). The simulator keeps one thing
//! across that wipe that the paper's hardware does not have: the shell's
//! predecoded-block cache. The claim these tests pin is that this changes
//! nothing a guest, a client, or the virtual clock can observe:
//!
//! *A cached block executes only after its captured source bytes have been
//! compared equal to the current guest memory over its whole range since the
//! last write to any page it overlaps; the cache is host-side derived state,
//! never readable by a guest and never visible to the virtual clock.*
//!
//! So the next occupant of a shell — another tenant's virtine with a
//! different image at the same base and entry, or a different snapshot
//! restored over the last one — computes exactly what it computes on a shell
//! nobody has used: same result bytes, same guest memory, same `Breakdown`,
//! same cycles. The previous occupant's blocks that do not match are found
//! by the revalidation sweep and counted in `blocks_invalidated`; the ones
//! that do match (both images boot through the same `vlibc` code) are the
//! reuse this buys.

use virtines::hostsim::HostKernel;
use virtines::kvmsim::{Hypervisor, VmExit, VmFd};
use virtines::vcc;
use virtines::vclock::Clock;
use virtines::visa::{self, Reg};
use virtines::wasp::{
    CleanShell, HypercallMask, Invocation, Pool, PoolMode, RunOutcome, RunResult, Shell, ShellRun,
    UsedShell, VirtineId, Wasp, WaspConfig,
};

use super::turn;

/// Two tenants' functions: same shape, same addresses, different constants
/// and a different secret left in guest memory.
const TENANT_A: &str = "
virtine int price(int n) {
    int* slot = (int*)0x60000;
    *slot = 0xA11CE;
    int acc = 0;
    int i;
    for (i = 0; i < n; i = i + 1) acc = acc + 1111;
    return acc;
}
";
const TENANT_B: &str = "
virtine int price(int n) {
    int* slot = (int*)0x60000;
    *slot = 0xB0B;
    int acc = 0;
    int i;
    for (i = 0; i < n; i = i + 1) acc = acc + 2222;
    return acc;
}
";

/// A runtime with both tenants' virtines registered (no snapshots: every
/// run loads its image onto a zeroed shell and boots, the pooled path).
fn runtime() -> (Wasp, VirtineId, VirtineId, usize) {
    let wasp = Wasp::new(
        Hypervisor::kvm(HostKernel::new(Clock::new(), None)),
        WaspConfig::default(),
    );
    let register = |src: &str| {
        let unit = vcc::compile(src).expect("compile");
        let v = unit.virtine("price").unwrap();
        let spec = virtines::wasp::VirtineSpec::new("price", v.image.clone(), v.mem_size)
            .with_snapshot(false);
        (wasp.register(spec).unwrap(), v.image.clone(), v.mem_size)
    };
    let (a, img_a, mem_size) = register(TENANT_A);
    let (b, img_b, _) = register(TENANT_B);
    assert_eq!((img_a.base, img_a.entry), (img_b.base, img_b.entry));
    assert_eq!(img_a.bytes.len(), img_b.bytes.len(), "same layout");
    assert_ne!(img_a.bytes, img_b.bytes);
    (wasp, a, b, mem_size)
}

fn run_on(wasp: &Wasp, shell: Shell, id: VirtineId, n: i64) -> (RunOutcome, UsedShell) {
    let run = ShellRun {
        shell,
        id,
        args: &vcc::marshal_args(&[n]),
        invocation: Invocation::default(),
        narrow: HypercallMask::ALLOW_ALL,
        resumable: false,
    };
    match wasp.run_on_shell(run).expect("run") {
        RunResult::Done(outcome, used) => (outcome, used),
        RunResult::Blocked(_) => unreachable!("non-resumable runs never suspend"),
    }
}

#[test]
fn a_cleaned_shell_serves_the_next_tenant_exactly_like_a_never_used_one() {
    let _turn = turn();

    // Tenant B on a shell nobody has used.
    let (fresh, _, b, mem_size) = runtime();
    let vm = CleanShell::create(fresh.hypervisor(), mem_size);
    let (expected, used) = run_on(&fresh, Shell::Clean(vm), b, 9);
    let expected_mem = used.read_guest(0, mem_size).unwrap();
    assert_eq!(expected.ret, 9 * 2222);

    // Tenant A runs on a shell; the shell is cleaned by `Pool::release`
    // and handed to tenant B.
    let (shared, a, b, _) = runtime();
    let vm = CleanShell::create(shared.hypervisor(), mem_size);
    let (first, used) = run_on(&shared, Shell::Clean(vm), a, 9);
    assert_eq!(first.ret, 9 * 1111);
    let mut pool = Pool::new(PoolMode::Cached);
    pool.release(used);
    let shell = pool.acquire(shared.hypervisor(), mem_size);
    assert!(matches!(shell, Shell::Clean(_)));
    let before = visa::pred::counters();
    let (got, used) = run_on(&shared, shell, b, 9);
    let after = visa::pred::counters();

    assert_eq!(got.ret, expected.ret, "A's cached `+ 1111` must not run");
    assert_eq!(got.exit, expected.exit);
    assert_eq!(got.result_bytes(), expected.result_bytes());
    assert_eq!(got.hypercalls, expected.hypercalls);
    assert_eq!(
        got.breakdown, expected.breakdown,
        "every term and the total"
    );
    assert_eq!(used.read_guest(0, mem_size).unwrap(), expected_mem);
    // A's blocks over the bytes that differ were found stale and dropped…
    assert!(
        after.blocks_invalidated > before.blocks_invalidated,
        "tenant A's blocks were not revalidated away"
    );
    // …and nothing of tenant A is left where B can read it.
    let secret = used.read_guest(0x60000, 8).unwrap();
    assert_eq!(u64::from_le_bytes(secret.try_into().unwrap()), 0xB0B);
}

/// Runs `vm` until it halts; returns the cycles that took.
fn run_to_halt(clock: &Clock, vm: &VmFd) -> u64 {
    let t0 = clock.now();
    loop {
        match vm.run(100_000).expect("guest fault") {
            VmExit::Hlt => return (clock.now() - t0).get(),
            VmExit::IoOut { .. } => {}
            other => panic!("unexpected exit {other:?}"),
        }
    }
}

#[test]
fn restoring_snapshot_y_over_a_shell_armed_from_x_runs_y() {
    let _turn = turn();
    // Same program text, different constants: X sums 3s, Y sums 5s. Each is
    // run to its `out` (the snapshot point) on a VM of its own.
    let program = |step: u64| {
        format!(
            ".org 0x8000\n\
             \x20 mov sp, 0x7000\n mov r0, 0\n mov r1, 0\n\
             \x20 mov r5, HC_SNAPSHOT\n out HC_PORT, r5\n\
             loop:\n\
             \x20 add r0, {step}\n push r0\n pop r2\n add r1, 1\n cmp r1, 50\n jl loop\n\
             \x20 mov r3, 0x6000\n store.q [r3], r0\n\
             \x20 hlt\n"
        )
    };
    let clock = Clock::new();
    let hv = Hypervisor::kvm(HostKernel::new(clock.clone(), None));
    let mem_size = 1 << 20;
    let snapshot_of = |step: u64| {
        let vm = hv.create_vm(mem_size, 0x8000);
        vm.load_image(&virtines::wasp::hypercall::assemble(&program(step)).unwrap());
        assert!(matches!(vm.run(100).unwrap(), VmExit::IoOut { .. }));
        vm.snapshot()
    };
    let (x, y) = (snapshot_of(3), snapshot_of(5));

    // Y on a shell nobody has used.
    let fresh = hv.create_vm(mem_size, 0x8000);
    fresh.restore(&y);
    let expected_cycles = run_to_halt(&clock, &fresh);
    assert_eq!(fresh.reg(Reg(0)), 250);

    // X runs on a shell (its loop is cached and hot), then Y is restored
    // over it — in full, and once more by delta after Y itself has run.
    let shell = hv.create_vm(mem_size, 0x8000);
    shell.restore(&x);
    run_to_halt(&clock, &shell);
    assert_eq!(shell.reg(Reg(0)), 150);
    let before = visa::pred::counters();
    shell.restore(&y);
    let full = run_to_halt(&clock, &shell);
    let after = visa::pred::counters();
    for r in 0..4 {
        assert_eq!(shell.reg(Reg(r)), fresh.reg(Reg(r)), "r{r}");
    }
    assert_eq!(full, expected_cycles);
    assert_eq!(
        shell.read_guest(0, mem_size).unwrap(),
        fresh.read_guest(0, mem_size).unwrap()
    );
    assert!(after.blocks_invalidated > before.blocks_invalidated);

    shell.restore_delta(&y);
    assert_eq!(run_to_halt(&clock, &shell), expected_cycles);
    assert_eq!(shell.reg(Reg(0)), 250);
}

#[test]
fn rearming_or_cleaning_a_shell_for_the_same_image_rebuilds_nothing() {
    // The other half of the bargain: what retention is *for*. Exact counts,
    // so this is the test that fails if a flush creeps back in.
    let _turn = turn();
    let clock = Clock::new();
    let hv = Hypervisor::kvm(HostKernel::new(clock.clone(), None));
    // Code on page 8, data on page 6, stack on page 7 and below.
    let image = virtines::wasp::hypercall::assemble(
        ".org 0x8000\n\
         \x20 mov sp, 0x8000\n mov r0, 0\n mov r1, 0\n\
         \x20 mov r5, HC_SNAPSHOT\n out HC_PORT, r5\n\
         loop:\n\
         \x20 add r0, 3\n push r0\n pop r2\n add r1, 1\n cmp r1, 50\n jl loop\n\
         \x20 mov r3, 0x6000\n store.q [r3], r0\n\
         \x20 hlt\n",
    )
    .unwrap();
    let vm = hv.create_vm(1 << 20, 0x8000);
    vm.load_image(&image);
    assert!(matches!(vm.run(100).unwrap(), VmExit::IoOut { .. }));
    let snap = vm.snapshot();
    let first = run_to_halt(&clock, &vm);

    let counted = |what: &str, rearm: &dyn Fn()| {
        let before = visa::pred::counters();
        rearm();
        let cycles = run_to_halt(&clock, &vm);
        let after = visa::pred::counters();
        assert_eq!(after.blocks_built, before.blocks_built, "{what}: built");
        assert_eq!(
            after.blocks_invalidated, before.blocks_invalidated,
            "{what}: invalidated"
        );
        cycles
    };
    // Warm path: only the data and stack pages come back.
    assert_eq!(
        counted("delta re-arm", &|| assert_eq!(vm.restore_delta(&snap), 2)),
        first
    );
    // Full restore: every page is suspect, every block revalidates.
    assert_eq!(counted("full restore", &|| vm.restore(&snap)), first);
    // Clean shell, same image loaded again: the fresh vCPU inherits the cache.
    let rerun = |clean: &dyn Fn()| {
        counted("clean + reload", &|| {
            clean();
            vm.load_image(&image);
            assert!(matches!(vm.run(100).unwrap(), VmExit::IoOut { .. }));
        })
    };
    assert_eq!(rerun(&|| vm.clean(0x8000)), first);
    assert_eq!(rerun(&|| vm.clean_async(0x8000)), first);
}
