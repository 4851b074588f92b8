//! §5.2 isolation across every way a guest-memory buffer changes hands.
//!
//! "We can clear its context, preventing information leakage" (§5.2) is the
//! whole security argument for pooled shells, and the wipe is now page-exact
//! and the buffer under a destroyed VM is recycled — so the claim is pinned
//! once per hand-over, against the same oracle each time:
//!
//! *Tenant B, on a shell that tenant A used and gave up by any route, computes
//! what it computes on a VM nobody has used: the same result, the same exit,
//! every one of the shell's guest bytes, every `Breakdown` term and the total.*
//!
//! A leaves a recognisable word on six pages — the args window, low data, the
//! `vcc` heap base, the upper half, the stack, and one written only after its
//! snapshot — and B sums exactly those words into its result, so residue shows
//! in B's return value as well as in the byte-for-byte comparison.

use std::rc::Rc;

use virtines::hostsim::HostKernel;
use virtines::kvmsim::{Hypervisor, VmFd};
use virtines::vclock::Clock;
use virtines::visa::mem::counters;
use virtines::visa::{self, asm::Image};
use virtines::wasp::{
    nr, Breakdown, ExitKind, HypercallMask, Invocation, Pool, PoolMode, RunOutcome, RunResult,
    ShellRun, ShellSource, VirtineId, VirtineSpec, Wasp, WaspConfig,
};

const MEM: usize = 512 * 1024;
const ENTRY: u64 = 0x8000;
const TENANT_A: u64 = 1;

/// Where A leaves its secret (besides the args window, which the host
/// writes): low data, the heap base, the upper half, its stack slot.
const SECRET_PREAMBLE: &str = "
.org 0x8000
  mov sp, 0x7F000
  mov r5, 0xA11CE
  push r5
  mov r1, 0x5000
  store.q [r1], r5
  mov r1, 0x28000
  store.q [r1], r5
  mov r1, 0x60000
  store.q [r1], r5
";

/// A, snapshotted: secrets, `snapshot()`, one more secret, returns its arg.
fn tenant_a() -> Image {
    let tail = "
  mov r0, 8
  out 0x1, r0
  mov r1, 0x31000
  store.q [r1], r5
  mov r1, 0
  load.q r0, [r1]
  hlt
";
    visa::assemble(&format!("{SECRET_PREAMBLE}{tail}")).unwrap()
}

/// A, parked: secrets, then a blocking `recv` nobody answers.
fn tenant_a_blocking() -> Image {
    let tail = "
  mov r0, 7
  mov r1, 0x4000
  mov r2, 64
  mov r3, 0
  out 0x1, r0
  hlt
";
    visa::assemble(&format!("{SECRET_PREAMBLE}{tail}")).unwrap()
}

/// B: sums the words where A's secrets were (and A's second argument word),
/// adds its own constant, leaves its own mark.
fn tenant_b() -> Image {
    let mut src = String::from(".org 0x8000\n mov sp, 0x7F000\n mov r0, 0xB0B\n");
    for addr in [8, 0x5000, 0x28000, 0x31000, 0x60000, 0x7EFF8] {
        src.push_str(&format!(" mov r1, {addr}\n load.q r2, [r1]\n add r0, r2\n"));
    }
    src.push_str(" push r0\n mov r1, 0x5000\n store.q [r1], r0\n hlt\n");
    visa::assemble(&src).unwrap()
}

struct Node {
    wasp: Wasp,
    a: VirtineId,
    a_blocking: VirtineId,
    b: VirtineId,
}

fn node() -> Node {
    let wasp = Wasp::new(
        Hypervisor::kvm(HostKernel::new(Clock::new(), None)),
        WaspConfig::default(),
    );
    let a = wasp.register(VirtineSpec::new("a", tenant_a(), MEM));
    let a_blocking = VirtineSpec::new("a-blocking", tenant_a_blocking(), MEM)
        .with_policy(HypercallMask::allowing(&[nr::RECV]))
        .with_snapshot(false);
    let b = VirtineSpec::new("b", tenant_b(), MEM).with_snapshot(false);
    Node {
        a: a.unwrap(),
        a_blocking: wasp.register(a_blocking).unwrap(),
        b: wasp.register(b).unwrap(),
        wasp,
    }
}

impl Node {
    fn create_vm(&self) -> VmFd {
        self.wasp.hypervisor().create_vm(MEM, ENTRY)
    }

    fn run(&self, vm: VmFd, source: ShellSource, id: VirtineId, args: &[u8]) -> RunResult {
        let run = ShellRun {
            vm,
            source,
            id,
            args,
            invocation: Invocation::default(),
            narrow: HypercallMask::ALLOW_ALL,
            resumable: true,
        };
        self.wasp
            .run_on_shell(run, &mut |_, _, _, _| None)
            .expect("run")
    }

    /// A runs to completion on a new VM; returns its outcome and the shell,
    /// dirty, with A's secret on six pages.
    fn a_has_run(&self) -> (RunOutcome, VmFd) {
        let mut args = 7u64.to_le_bytes().to_vec();
        args.extend(0xA11CEu64.to_le_bytes());
        let RunResult::Done(out, vm) =
            self.run(self.create_vm(), ShellSource::Created, self.a, &args)
        else {
            unreachable!("tenant A's snapshotted function never blocks")
        };
        assert_eq!(out.exit, ExitKind::Halted(7));
        for addr in [8, 0x5000, 0x28000, 0x31000, 0x60000, 0x7EFF8] {
            let word = vm.read_guest(addr, 8).unwrap();
            assert_eq!(u64::from_le_bytes(word.try_into().unwrap()), 0xA11CE);
        }
        (out, vm)
    }

    /// B on `vm`; returns what a client, the guest and the clock can see.
    fn b_runs_on(&self, vm: VmFd, source: ShellSource) -> Seen {
        let RunResult::Done(out, vm) = self.run(vm, source, self.b, &[]) else {
            unreachable!("tenant B never blocks")
        };
        Seen {
            exit: out.exit.clone(),
            ret: out.ret,
            result: out.result_bytes().to_vec(),
            hypercalls: out.hypercalls,
            breakdown: out.breakdown,
            mem: vm.read_guest(0, MEM).unwrap(),
        }
    }
}

/// Everything observable about one run of B.
struct Seen {
    exit: ExitKind,
    ret: u64,
    result: Vec<u8>,
    hypercalls: u64,
    breakdown: Breakdown,
    mem: Vec<u8>,
}

/// B on a VM nobody has used, entered the way `created` says. The oracle
/// runs on a thread of its own: spare buffers are per thread, so its guest
/// memory comes straight from the allocator whatever this thread has dropped.
fn b_on_a_never_used_vm(created: bool) -> Seen {
    let oracle = std::thread::spawn(move || {
        let fresh = node();
        let source = if created {
            ShellSource::Created
        } else {
            ShellSource::Clean
        };
        let seen = fresh.b_runs_on(fresh.create_vm(), source);
        assert_eq!(counters().buffers_recycled, 0);
        seen
    });
    let seen = oracle.join().expect("oracle run");
    assert_eq!(seen.exit, ExitKind::Halted(0xB0B));
    seen
}

fn assert_same(got: Seen, expected: &Seen, route: &str) {
    assert_eq!(got.exit, expected.exit, "{route}: B read A's residue");
    assert_eq!(got.ret, expected.ret, "{route}");
    assert_eq!(got.result, expected.result, "{route}");
    assert_eq!(got.hypercalls, expected.hypercalls, "{route}");
    assert_eq!(
        got.breakdown, expected.breakdown,
        "{route}: every term and the total"
    );
    assert!(got.mem == expected.mem, "{route}: guest memory differs");
}

#[test]
fn b_on_a_cleaned_shell_of_a() {
    // (a) `Pool::release` wipes — charged or in the background — and parks;
    // the next acquire hands the shell to whoever asks.
    let expected = b_on_a_never_used_vm(false);
    for mode in [PoolMode::Cached, PoolMode::CachedAsync] {
        let n = node();
        let mut pool = Pool::new(mode, ENTRY);
        let (_, vm) = n.a_has_run();
        pool.release(vm);
        let (vm, reused) = pool.acquire(n.wasp.hypervisor(), MEM);
        assert!(reused);
        assert_same(
            n.b_runs_on(vm, ShellSource::Clean),
            &expected,
            &format!("{mode:?}"),
        );
    }
}

#[test]
fn b_on_a_demoted_warm_shell_of_a() {
    // (b) A's shell parks warm — unwiped, holding everything A wrote — and is
    // then sacrificed to a request that found no clean shell.
    let expected = b_on_a_never_used_vm(false);
    let n = node();
    let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY);
    let (out, vm) = n.a_has_run();
    let snap = out.warm_state.expect("A's run is warm-parkable");
    pool.release_warm(vm, TENANT_A, n.a.into_raw(), snap);
    let vm = pool.take_warm_victim_of(TENANT_A, MEM).expect("a victim");
    assert_same(
        n.b_runs_on(vm, ShellSource::Clean),
        &expected,
        "demote-steal",
    );
}

/// (c) A's VM is destroyed *dirty* by `destroy`, and the next `create_vm` —
/// which takes the very buffer A's VM just gave up — serves B.
fn b_on_a_vm_created_after(route: &str, destroy: impl FnOnce(&Node, &mut Pool)) {
    let expected = b_on_a_never_used_vm(true);
    let n = node();
    let mut pool = Pool::new(PoolMode::CachedAsync, ENTRY);
    destroy(&n, &mut pool);
    let before = counters();
    let vm = n.create_vm();
    assert_eq!(
        counters().buffers_recycled - before.buffers_recycled,
        1,
        "{route}: B's VM must sit on the buffer A's VM dropped"
    );
    assert_same(n.b_runs_on(vm, ShellSource::Created), &expected, route);
}

#[test]
fn b_on_a_vm_created_after_a_dirty_shell_was_dropped() {
    b_on_a_vm_created_after("Pool::drop_shell", |n, pool| {
        let (_, vm) = n.a_has_run();
        pool.drop_shell(vm);
    });
}

#[test]
fn b_on_a_vm_created_after_a_failed_shards_teardown() {
    b_on_a_vm_created_after("Pool::drop_all_shells", |n, pool| {
        let (out, vm) = n.a_has_run();
        let snap: Rc<_> = out.warm_state.expect("parkable");
        pool.release_warm(vm, TENANT_A, n.a.into_raw(), snap);
        assert_eq!(pool.drop_all_shells(), 1);
    });
}

#[test]
fn b_on_a_vm_created_after_a_suspended_run_was_abandoned() {
    b_on_a_vm_created_after("a dropped SuspendedRun", |n, _| {
        let k = n.wasp.kernel();
        k.net_listen(80).unwrap();
        let _client = k.net_connect(80).unwrap();
        let server = k.net_accept(80).unwrap().unwrap();
        let run = ShellRun {
            vm: n.create_vm(),
            source: ShellSource::Created,
            id: n.a_blocking,
            args: &[0xA1; 16],
            invocation: Invocation::with_conn(server),
            narrow: HypercallMask::ALLOW_ALL,
            resumable: true,
        };
        let parked = n.wasp.run_on_shell(run, &mut |_, _, _, _| None).unwrap();
        let RunResult::Blocked(suspended) = parked else {
            panic!("A must park in its recv")
        };
        // The shell lives inside the suspension, secrets and all.
        drop(suspended);
    });
}

#[test]
fn b_on_a_vm_created_after_an_unpooled_release() {
    b_on_a_vm_created_after("PoolMode::Disabled", |n, _| {
        let mut unpooled = Pool::new(PoolMode::Disabled, ENTRY);
        let (_, vm) = n.a_has_run();
        unpooled.release(vm);
        assert_eq!(unpooled.idle_shells(), 0, "dropped, not parked");
    });
}
