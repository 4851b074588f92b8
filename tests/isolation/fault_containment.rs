//! A guest fault is contained (§5.2 for a virtine that crashes).
//!
//! Tenant A leaves a secret, takes its snapshot — so that only the fault
//! can keep its shell off the warm list — and then faults, one way per
//! test: a `jmp r` to `0xFFFF_FFFF_FFFF_0000`, or a load past the end of
//! guest memory. Each test checks that
//!
//! 1. the run ends as a contained `Fault`: the host does not panic, and the
//!    dispatcher completes the request as an abnormal exit;
//! 2. A's shell is never parked warm (the runtime's own rule is the unit
//!    test `wasp::runtime::tests::abnormal_exits_never_park_warm`);
//! 3. tenant B's next request, on the same one-shard dispatcher and so on
//!    A's wiped shell, equals B on a never-used shell: the same result
//!    bytes and the same completion. The runtime's own pool is checked
//!    the same way, where each `Breakdown` term is visible.

use virtines::hostsim::HostKernel;
use virtines::kvmsim::Hypervisor;
use virtines::vclock::Clock;
use virtines::visa::asm::Image;
use virtines::vsched::{Completion, Dispatcher, DispatcherConfig, Request, TenantProfile};
use virtines::wasp::{
    hypercall, nr, ExitKind, HypercallMask, Invocation, RunOutcome, VirtineId, VirtineSpec, Wasp,
    WaspConfig,
};

use super::turn;

const MEM: usize = 64 * 1024;

/// A jump far outside guest memory.
const WILD_JUMP: &str = " mov r1, 0xFFFFFFFFFFFF0000\n jmp r1\n";
/// A load of the first byte past the end of guest memory.
const LOAD_PAST_END: &str = " mov r1, 0x10000\n load.q r0, [r1]\n";

/// A: a secret at 0x5000, `snapshot()`, then `fault`.
fn tenant_a(fault: &str) -> Image {
    hypercall::assemble(&format!(
        ".org 0x8000
  mov r5, 0xA11CE
  mov r1, 0x5000
  store.q [r1], r5
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
{fault}  hlt
"
    ))
    .unwrap()
}

/// B: returns the word where A's secret was, so residue shows in its
/// result bytes.
fn tenant_b() -> Image {
    hypercall::assemble(
        ".org 0x8000
  mov r0, HC_RETURN_DATA
  mov r1, 0x5000
  mov r2, 8
  out HC_PORT, r0
  hlt
",
    )
    .unwrap()
}

fn wasp() -> Wasp {
    let hv = Hypervisor::kvm(HostKernel::new(Clock::new(), None));
    Wasp::new(hv, WaspConfig::default())
}

/// A's and B's specs, in registration order.
fn specs(fault: &str) -> [VirtineSpec; 2] {
    let a = VirtineSpec::new("a", tenant_a(fault), MEM);
    let b = VirtineSpec::new("b", tenant_b(), MEM)
        .with_policy(HypercallMask::allowing(&[nr::RETURN_DATA]))
        .with_snapshot(false);
    [a, b]
}

/// A one-shard dispatcher with A's and B's tenants and virtines, and one
/// never-used shell in its pool.
fn dispatcher(fault: &str) -> (Dispatcher, [(usize, VirtineId); 2]) {
    let config = DispatcherConfig {
        shards: 1,
        ..DispatcherConfig::default()
    };
    let mut d = Dispatcher::new(wasp(), config);
    let ids = specs(fault).map(|spec| {
        let profile = TenantProfile::new(spec.name.clone()).with_mask(HypercallMask::ALLOW_ALL);
        (d.add_tenant(profile).index(), d.register(spec).unwrap())
    });
    d.prewarm(MEM, 1);
    (d, ids)
}

/// Submits one request of `who` at `at_s` and runs it to completion.
fn serve(d: &mut Dispatcher, who: (usize, VirtineId), at_s: f64) -> Completion {
    let tenant = d.tenant_ids()[who.0];
    d.submit(Request::new(tenant, who.1, at_s)).unwrap();
    d.run_to_idle();
    let mut done = d.take_completions();
    assert_eq!(done.len(), 1);
    done.pop().unwrap()
}

/// What B's completion shows a client, its place in time aside.
fn seen(c: &Completion) -> (Vec<u8>, bool, bool, bool, u64, f64) {
    (
        c.result.clone(),
        c.exit_normal,
        c.reused_shell,
        c.warm_hit,
        c.exec_cycles,
        c.service,
    )
}

/// What B's run shows on the runtime's own pool.
fn outcome(o: &RunOutcome) -> (ExitKind, u64, Vec<u8>, virtines::wasp::Breakdown) {
    (
        o.exit.clone(),
        o.ret,
        o.result_bytes().to_vec(),
        o.breakdown,
    )
}

fn contained(fault: &str) {
    let _turn = turn();

    // The dispatcher: B after A's fault, against B on a never-used shell.
    let (mut oracle, [_, b]) = dispatcher(fault);
    let expected = serve(&mut oracle, b, 0.0);
    assert!(expected.exit_normal && expected.reused_shell && !expected.warm_hit);
    assert_eq!(
        expected.result, [0; 8],
        "a never-used shell holds no secret"
    );

    let (mut d, [a, b]) = dispatcher(fault);
    let crashed = serve(&mut d, a, 0.0);
    assert!(!crashed.exit_normal, "A's fault ends its run abnormally");
    assert_eq!(d.wasp().stats().snapshots_taken, 1, "A was warm-eligible");
    assert_eq!((d.warm_resident(), d.pool_stats().warm_parked), (0, 0));
    assert_eq!(
        d.shard_snapshots()[0].idle_shells,
        1,
        "wiped and parked clean"
    );
    let got = serve(&mut d, b, 0.001);
    assert_eq!(seen(&got), seen(&expected), "B read A's residue");

    // The runtime's own pool, where every `Breakdown` term shows.
    let never_used = wasp();
    let [_, spec_b] = specs(fault);
    let b = never_used.register(spec_b).unwrap();
    never_used.prewarm(MEM, 1);
    let expected = never_used.run(b, &[], Invocation::default()).unwrap();

    let w = wasp();
    let [spec_a, spec_b] = specs(fault);
    let (a, b) = (w.register(spec_a).unwrap(), w.register(spec_b).unwrap());
    w.prewarm(MEM, 1);
    let crashed = w.run(a, &[], Invocation::default()).unwrap();
    assert!(
        matches!(crashed.exit, ExitKind::Faulted(_)),
        "{:?}",
        crashed.exit
    );
    assert_eq!(w.pool_stats().warm_parked, 0, "a faulted shell parked warm");
    let got = w.run(b, &[], Invocation::default()).unwrap();
    assert_eq!(
        outcome(&got),
        outcome(&expected),
        "every term and the total"
    );
}

#[test]
fn a_wild_jump_is_contained_and_its_shell_serves_the_next_tenant_clean() {
    contained(WILD_JUMP);
}

#[test]
fn a_load_past_guest_memory_is_contained_and_its_shell_serves_the_next_tenant_clean() {
    contained(LOAD_PAST_END);
}
