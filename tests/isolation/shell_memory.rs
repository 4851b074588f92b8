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
//!
//! A destroyed VM retires as a shell that keeps its vCPU's block cache, and
//! `create_vm` revives it, so the created-VM routes also pin the other half:
//! A's blocks arrive with the shell, are found stale where B's bytes differ,
//! and none of them runs.

use virtines::hostsim::HostKernel;
use virtines::kvmsim::{Hypervisor, VmExit};
use virtines::vclock::Clock;
use virtines::visa::cpu::Fault;
use virtines::visa::mem::counters;
use virtines::visa::{self, asm::Image, pred, Reg};
use virtines::wasp::{
    nr, Breakdown, CleanShell, ExitKind, HypercallMask, Invocation, Pool, PoolMode, RunOutcome,
    RunResult, Shell, ShellRun, UsedShell, VirtineId, VirtineSpec, Wasp, WaspConfig,
};

use super::turn;

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
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  mov r1, 0x31000
  store.q [r1], r5
  mov r1, 0
  load.q r0, [r1]
  hlt
";
    virtines::wasp::hypercall::assemble(&format!("{SECRET_PREAMBLE}{tail}")).unwrap()
}

/// A, parked: secrets, then a blocking `recv` nobody answers.
fn tenant_a_blocking() -> Image {
    let tail = "
  mov r0, HC_RECV
  mov r1, 0x4000
  mov r2, 64
  mov r3, 0
  out HC_PORT, r0
  hlt
";
    virtines::wasp::hypercall::assemble(&format!("{SECRET_PREAMBLE}{tail}")).unwrap()
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
    fn create_vm(&self) -> CleanShell {
        CleanShell::create(self.wasp.hypervisor(), MEM)
    }

    fn run(&self, shell: Shell, id: VirtineId, args: &[u8]) -> RunResult {
        let run = ShellRun {
            shell,
            id,
            args,
            invocation: Invocation::default(),
            narrow: HypercallMask::ALLOW_ALL,
            resumable: true,
        };
        self.wasp.run_on_shell(run).expect("run")
    }

    /// A runs to completion on a new VM; returns its outcome and the shell,
    /// dirty, with A's secret on six pages.
    fn a_has_run(&self) -> (RunOutcome, UsedShell) {
        let mut args = 7u64.to_le_bytes().to_vec();
        args.extend(0xA11CEu64.to_le_bytes());
        let RunResult::Done(out, used) = self.run(Shell::Created(self.create_vm()), self.a, &args)
        else {
            unreachable!("tenant A's snapshotted function never blocks")
        };
        assert_eq!(out.exit, ExitKind::Halted(7));
        for addr in [8, 0x5000, 0x28000, 0x31000, 0x60000, 0x7EFF8] {
            let word = used.read_guest(addr, 8).unwrap();
            assert_eq!(u64::from_le_bytes(word.try_into().unwrap()), 0xA11CE);
        }
        (out, used)
    }

    /// B on `shell`; returns what a client, the guest and the clock can see.
    fn b_runs_on(&self, shell: Shell) -> Seen {
        let RunResult::Done(out, used) = self.run(shell, self.b, &[]) else {
            unreachable!("tenant B never blocks")
        };
        Seen {
            exit: out.exit.clone(),
            ret: out.ret,
            result: out.result_bytes().to_vec(),
            hypercalls: out.hypercalls,
            breakdown: out.breakdown,
            mem: used.read_guest(0, MEM).unwrap(),
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
        let vm = fresh.create_vm();
        let seen = fresh.b_runs_on(if created {
            Shell::Created(vm)
        } else {
            Shell::Clean(vm)
        });
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
    let _turn = turn();
    let expected = b_on_a_never_used_vm(false);
    for mode in [PoolMode::Cached, PoolMode::CachedAsync] {
        let n = node();
        let mut pool = Pool::new(mode);
        let (_, used) = n.a_has_run();
        pool.release(used);
        let shell = pool.acquire(n.wasp.hypervisor(), MEM);
        assert!(matches!(shell, Shell::Clean(_)));
        assert_same(n.b_runs_on(shell), &expected, &format!("{mode:?}"));
    }
}

#[test]
fn b_on_a_demoted_warm_shell_of_a() {
    // (b) A's shell parks warm — unwiped, holding everything A wrote — and is
    // then sacrificed to a request that found no clean shell.
    let _turn = turn();
    let expected = b_on_a_never_used_vm(false);
    let n = node();
    let mut pool = Pool::new(PoolMode::CachedAsync);
    let (_, used) = n.a_has_run();
    assert!(used.warm_parkable(), "A's run is warm-parkable");
    pool.release_warm(used, TENANT_A, n.a.into_raw());
    let clean = pool.take_warm_victim_of(TENANT_A, MEM).expect("a victim");
    assert_same(n.b_runs_on(Shell::Clean(clean)), &expected, "demote-steal");
}

/// What creating a VM and running B on it added: B's view, buffers
/// recycled, blocks built and blocks invalidated.
fn b_on_a_created_vm(n: &Node) -> (Seen, u64, u64, u64) {
    let (mem, blocks) = (counters(), pred::counters());
    let seen = n.b_runs_on(Shell::Created(n.create_vm()));
    let after = pred::counters();
    (
        seen,
        counters().buffers_recycled - mem.buffers_recycled,
        after.blocks_built - blocks.blocks_built,
        after.blocks_invalidated - blocks.blocks_invalidated,
    )
}

/// (c) A's VM is destroyed *dirty* by `destroy`, and the next `create_vm` —
/// which revives the very shell A's VM just retired, block cache and all —
/// serves B.
fn b_on_a_vm_created_after(route: &str, destroy: impl FnOnce(&Node, &mut Pool)) {
    let _turn = turn();
    let expected = b_on_a_never_used_vm(true);
    let n = node();
    let mut pool = Pool::new(PoolMode::CachedAsync);
    destroy(&n, &mut pool);
    let (seen, recycled, _, invalidated) = b_on_a_created_vm(&n);
    assert_eq!(
        recycled, 1,
        "{route}: B's VM must be the shell A's VM retired"
    );
    // B's image differs from A's at the same base and entry: A's blocks came
    // with the shell (a cold cache has none to drop), were found stale when
    // B reached them, and none ran — B sees what it sees on a never-used VM.
    assert!(invalidated > 0, "{route}: A's blocks did not come with it");
    assert_same(seen, &expected, route);
    // B's VM retires in turn; a create for the same image builds nothing.
    let (seen, recycled, built, _) = b_on_a_created_vm(&n);
    assert_eq!((recycled, built), (1, 0), "{route}: B again");
    assert_same(seen, &expected, &format!("{route}, B again"));
}

#[test]
fn b_on_a_vm_created_after_a_dirty_shell_was_dropped() {
    b_on_a_vm_created_after("Pool::drop_shell", |n, pool| {
        let (_, used) = n.a_has_run();
        pool.drop_shell(used);
    });
}

#[test]
fn b_on_a_vm_created_after_a_failed_shards_teardown() {
    b_on_a_vm_created_after("Pool::drop_all_shells", |n, pool| {
        let (_, used) = n.a_has_run();
        pool.release_warm(used, TENANT_A, n.a.into_raw());
        assert_eq!(pool.warm_shells(), 1, "parked warm");
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
            shell: Shell::Created(n.create_vm()),
            id: n.a_blocking,
            args: &[0xA1; 16],
            invocation: Invocation::with_conn(server),
            narrow: HypercallMask::ALLOW_ALL,
            resumable: true,
        };
        let parked = n.wasp.run_on_shell(run).unwrap();
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
        let mut unpooled = Pool::new(PoolMode::Disabled);
        let (_, used) = n.a_has_run();
        unpooled.release(used);
        assert_eq!(unpooled.idle_shells(), 0, "dropped, not parked");
    });
}

/// What a client of `kvmsim` sees of one guest: the exit, four registers,
/// the cycles from `create_vm` on, and every guest byte.
type Raw = (Result<VmExit, Fault>, [u64; 4], u64, Vec<u8>);

/// Creates a 64 KiB VM on `hv`, loads `image`, runs it; the VM is then
/// destroyed.
fn raw_run(hv: &Hypervisor, image: &Image) -> Raw {
    let clock = hv.kernel().clock().clone();
    let t0 = clock.now();
    let vm = hv.create_vm(64 * 1024, ENTRY);
    vm.load_image(image);
    let exit = vm.run(10_000);
    let regs = [0, 1, 2, 3].map(|r| vm.reg(Reg(r)));
    let mem = vm.read_guest(0, 64 * 1024).unwrap();
    (exit, regs, (clock.now() - t0).get(), mem)
}

fn raw_hv() -> Hypervisor {
    Hypervisor::kvm(HostKernel::new(Clock::new(), None))
}

#[test]
fn a_revived_block_cache_never_runs_a_block_from_a_page_the_next_image_leaves_zero() {
    // A jumps to a routine on page 15 of its VM. B, at the same base and
    // entry, is only the jump: on a VM nobody used it runs into zeroes
    // (`nop`s) and off the end of memory. A's block at the routine arrives in
    // B's VM with the retired shell, and B's load never writes page 15: only
    // the code-dirty mark A's wipe left there makes the block stale.
    let _turn = turn();
    let jump = ".org 0x8000\n mov r1, 0xF000\n jmp r1\n";
    let routine = " mov r0, 0xA11CE\n hlt\n";
    let b = visa::assemble(jump).unwrap();
    let pad = 0x7000 - b.bytes.len();
    let a = visa::assemble(&format!("{jump} .space {pad}\n{routine}")).unwrap();
    let at_f000 = visa::assemble(&format!(".org 0xF000\n{routine}")).unwrap();
    assert_eq!(a.bytes[0x7000..], at_f000.bytes);
    let b_alone = {
        let b = b.clone();
        std::thread::spawn(move || raw_run(&raw_hv(), &b))
    };
    let b_alone = b_alone.join().expect("oracle run");
    assert!(
        b_alone.0.is_err() && b_alone.1[0] == 0,
        "B runs off the end"
    );

    let hv = raw_hv();
    let (exit, regs, ..) = raw_run(&hv, &a);
    assert_eq!((exit, regs[0]), (Ok(VmExit::Hlt), 0xA11CE));
    // The same image on A's retired shell: A's blocks came with it.
    let before = (counters(), pred::counters());
    assert_eq!(raw_run(&hv, &a).1[0], 0xA11CE);
    assert_eq!(counters().buffers_recycled - before.0.buffers_recycled, 1);
    assert_eq!(pred::counters().blocks_built, before.1.blocks_built);
    // B on it: the stale routine block is dropped when B reaches it, and B
    // sees exactly what it sees on a VM nobody used.
    let before = pred::counters();
    let got = raw_run(&hv, &b);
    assert!(pred::counters().blocks_invalidated > before.blocks_invalidated);
    assert_eq!(got.1[0], 0, "A's routine ran for B");
    assert!(got == b_alone, "B differs from B on a never-used VM");
}
