//! Cross-crate integration tests: the §3.1 safety objectives and the
//! end-to-end pipelines (compiler → runtime → guest → host services).

use virtines::hostsim::HostKernel;
use virtines::kvmsim::Hypervisor;
use virtines::vcc;
use virtines::vclock::Clock;
use virtines::wasp::{
    ExitKind, HypercallMask, Invocation, PoolMode, VirtineSpec, Wasp, WaspConfig,
};

fn wasp_with(pool: PoolMode) -> Wasp {
    let clock = Clock::new();
    Wasp::new(
        Hypervisor::kvm(HostKernel::new(clock, None)),
        WaspConfig {
            pool_mode: pool,
            ..WaspConfig::default()
        },
    )
}

/// §3.1 "Host execution and data integrity": a virtine that goes wild
/// (bad memory, bad hypercalls, runaway loops) cannot affect the host
/// runtime, which keeps serving other virtines.
#[test]
fn hostile_virtines_cannot_harm_the_host() {
    let hostile = "
virtine int wild_write(int n) {
    int* p = (int*)0x7fffffff;
    *p = n;
    return 0;
}
virtine int wild_jump(int n) {
    int* p = (int*)0x50000000;   /* beyond the 1 GiB identity map */
    return *p;
}
";
    let unit = vcc::compile(hostile).expect("compile");
    let wasp = wasp_with(PoolMode::CachedAsync);
    for name in ["wild_write", "wild_jump"] {
        let id = unit.virtine(name).unwrap().register(&wasp).unwrap();
        let out = vcc::invoke(&wasp, id, &[7]).expect("run");
        assert!(
            matches!(out.exit, ExitKind::Faulted(_)),
            "{name} should fault, got {:?}",
            out.exit
        );
    }
    // The host is fine: a healthy virtine still runs.
    let ok = vcc::compile("virtine int ok(int n) { return n + 1; }").unwrap();
    let id = ok.virtine("ok").unwrap().register(&wasp).unwrap();
    assert_eq!(vcc::invoke(&wasp, id, &[41]).unwrap().ret, 42);
}

/// §3.1 "Virtine execution and data integrity": invocations never observe
/// each other's state, through any pool mode.
#[test]
fn virtine_state_is_disjoint_across_invocations() {
    let src = "
virtine int stash_then_read(int mode) {
    int* slot = (int*)0x60000;
    if (mode == 1) {
        *slot = 0xBEEF;
        return 0;
    }
    return *slot;
}
";
    for pool in [PoolMode::Disabled, PoolMode::Cached, PoolMode::CachedAsync] {
        let unit = vcc::compile(src).expect("compile");
        let wasp = wasp_with(pool);
        let id = unit
            .virtine("stash_then_read")
            .unwrap()
            .register(&wasp)
            .unwrap();
        let w = vcc::invoke(&wasp, id, &[1]).unwrap();
        assert!(w.exit.is_normal());
        let r = vcc::invoke(&wasp, id, &[0]).unwrap();
        assert_eq!(r.ret, 0, "secret leaked across invocations under {pool:?}");
    }
}

/// §3.1 "Virtine isolation": default-deny means no file, network, or
/// stdout access without explicit policy.
#[test]
fn default_deny_blocks_every_external_service() {
    let sneaky = r#"
virtine int exfil(int n) {
    int size = 0;
    if (vstat("/etc/passwd", &size) == 0) { return 1; }
    return 0;
}
"#;
    let unit = vcc::compile(sneaky).expect("compile");
    let wasp = wasp_with(PoolMode::CachedAsync);
    wasp.kernel()
        .fs_add_file("/etc/passwd", b"root:x:0".to_vec());
    let id = unit.virtine("exfil").unwrap().register(&wasp).unwrap();
    let out = vcc::invoke(&wasp, id, &[0]).unwrap();
    assert!(
        matches!(out.exit, ExitKind::Denied { .. }),
        "stat must be denied: {:?}",
        out.exit
    );
    assert_eq!(wasp.stats().denials, 1);
}

/// The Figure 6 lifecycle: request → provision/reuse → run → clean →
/// recycle, with snapshots layered on top (Figure 7).
#[test]
fn full_lifecycle_with_pool_and_snapshots() {
    let unit = vcc::compile(
        "virtine int work(int n) { int acc = 0; int i; for (i = 0; i < n; i = i + 1) acc = acc + i; return acc; }",
    )
    .expect("compile");
    let wasp = wasp_with(PoolMode::CachedAsync);
    let id = unit.virtine("work").unwrap().register(&wasp).unwrap();

    let first = vcc::invoke(&wasp, id, &[100]).unwrap();
    assert_eq!(first.ret, 4950);
    assert!(!first.breakdown.reused_shell);
    assert!(!first.breakdown.restored_snapshot);

    for i in 0..5 {
        let out = vcc::invoke(&wasp, id, &[i]).unwrap();
        assert_eq!(out.ret as i64, (0..i).sum::<i64>());
        assert!(out.breakdown.reused_shell, "run {i} should reuse a shell");
        assert!(out.breakdown.restored_snapshot);
    }
    let stats = wasp.stats();
    assert_eq!(stats.invocations, 6);
    assert_eq!(stats.snapshots_taken, 1);
    assert_eq!(stats.snapshot_restores, 5);
    assert_eq!(wasp.pool_stats().created, 1, "one shell serves everything");
}

/// Guest libc + host services: a virtine reads a host file through the
/// checked hypercall interface and returns a digest of it.
#[test]
fn guest_reads_host_file_through_policy() {
    let src = r#"
virtine_permissive int checksum_file(int n) {
    char path[32];
    strcpy(path, "/data/blob");
    int size = 0;
    if (vstat(path, &size) != 0) { return -1; }
    int fd = vopen(path);
    if (fd < 0) { return -2; }
    char* buf = malloc(size);
    int got = vread(fd, buf, size);
    if (got != size) { return -3; }
    vclose(fd);
    int sum = 0;
    int i;
    for (i = 0; i < size; i = i + 1) {
        sum = sum + buf[i];
    }
    return sum;
}
"#;
    let unit = vcc::compile(src).expect("compile");
    let wasp = wasp_with(PoolMode::CachedAsync);
    let blob: Vec<u8> = (1..=100u8).collect();
    let expected: i64 = blob.iter().map(|&b| b as i64).sum();
    wasp.kernel().fs_add_file("/data/blob", blob);
    let id = unit
        .virtine("checksum_file")
        .unwrap()
        .register(&wasp)
        .unwrap();
    let out = vcc::invoke(&wasp, id, &[0]).unwrap();
    assert!(out.exit.is_normal(), "{:?}", out.exit);
    assert_eq!(out.ret as i64, expected);
}

/// Wasp runs on both hypervisor flavors (Figure 5: KVM and Hyper-V).
#[test]
fn wasp_is_portable_across_backends() {
    let unit = vcc::compile("virtine int id(int x) { return x; }").expect("compile");
    let v = unit.virtine("id").unwrap();
    for hv in [
        Hypervisor::kvm(HostKernel::new(Clock::new(), None)),
        Hypervisor::hyperv(HostKernel::new(Clock::new(), None)),
    ] {
        let wasp = Wasp::new(hv, WaspConfig::default());
        let id = v.register(&wasp).unwrap();
        assert_eq!(vcc::invoke(&wasp, id, &[123]).unwrap().ret, 123);
    }
}

/// The §5.3 environment-variable snapshot opt-out.
#[test]
fn no_snapshot_env_disables_snapshots() {
    std::env::set_var(virtines::wasp::NO_SNAPSHOT_ENV, "1");
    let config = WaspConfig::from_env();
    std::env::remove_var(virtines::wasp::NO_SNAPSHOT_ENV);
    assert!(config.disable_snapshots);

    let wasp = Wasp::new(Hypervisor::kvm(HostKernel::new(Clock::new(), None)), config);
    let unit = vcc::compile("virtine int f(int x) { return x; }").unwrap();
    let id = unit.virtine("f").unwrap().register(&wasp).unwrap();
    vcc::invoke(&wasp, id, &[1]).unwrap();
    let second = vcc::invoke(&wasp, id, &[2]).unwrap();
    assert!(!second.breakdown.restored_snapshot);
    assert_eq!(wasp.stats().snapshots_taken, 0);
}

/// A denied hypercall kills only the offending virtine; a permitted one
/// with hostile arguments is rejected by the handler's validation
/// (threat model, §3.2).
#[test]
fn handlers_validate_hostile_arguments() {
    // write() with a buffer pointer way outside guest memory.
    let img = virtines::wasp::hypercall::assemble(
        "
.org 0x8000
  mov r0, HC_WRITE
  mov r1, 1
  mov r2, 0x7ffffff0    ; hostile pointer
  mov r3, 64
  out HC_PORT, r0
  hlt
",
    )
    .unwrap();
    let wasp = wasp_with(PoolMode::CachedAsync);
    let spec = VirtineSpec::new("hostile", img, 64 * 1024)
        .with_policy(HypercallMask::ALLOW_ALL)
        .with_snapshot(false);
    let id = wasp.register(spec).unwrap();
    let out = wasp.run(id, &[], Invocation::default()).unwrap();
    assert!(
        matches!(out.exit, ExitKind::Faulted(_)),
        "hostile pointer must fault the virtine: {:?}",
        out.exit
    );
}

/// Many distinct virtines share one runtime and pool without interference.
#[test]
fn many_virtines_share_one_runtime() {
    let src = "
virtine int add2(int x) { return x + 2; }
virtine int mul3(int x) { return x * 3; }
virtine int neg(int x) { return 0 - x; }
";
    let unit = vcc::compile(src).expect("compile");
    let wasp = wasp_with(PoolMode::CachedAsync);
    let ids: Vec<_> = ["add2", "mul3", "neg"]
        .iter()
        .map(|n| unit.virtine(n).unwrap().register(&wasp).unwrap())
        .collect();
    for round in 0..4i64 {
        assert_eq!(
            vcc::invoke(&wasp, ids[0], &[round]).unwrap().ret as i64,
            round + 2
        );
        assert_eq!(
            vcc::invoke(&wasp, ids[1], &[round]).unwrap().ret as i64,
            round * 3
        );
        assert_eq!(
            vcc::invoke(&wasp, ids[2], &[round]).unwrap().ret as i64,
            -round
        );
    }
    assert_eq!(wasp.stats().invocations, 12);
}
