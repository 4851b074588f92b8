//! Property-style tests over the dispatcher's isolation invariants,
//! driven by the repository's seeded PRNG (no external crates).

use hostsim::SockId;
use vclock::rng::Rng;
use vclock::Cycles;
use vsched::{
    Dispatcher, DispatcherConfig, HedgePolicy, Hop, Placement, Request, RetryPolicy, TenantProfile,
    Topology,
};
use wasp::{HypercallMask, Invocation, VirtineId, VirtineSpec, Wasp};

const MEM: usize = 64 * 1024;

/// Registers a consumer that blocking-`recv`s on its bound connection
/// into 0x4000 and halts with the count in r0 (0 at EOF).
fn recv_consumer(d: &mut Dispatcher) -> VirtineId {
    let img = wasp::hypercall::assemble(
        "
.org 0x8000
  mov r0, HC_RECV
  mov r1, 0x4000
  mov r2, 64
  mov r3, 0            ; flags: blocking
  out HC_PORT, r0
  hlt
",
    )
    .unwrap();
    let spec = VirtineSpec::new("c", img, MEM)
        .with_policy(HypercallMask::allowing(&[wasp::nr::RECV]))
        .with_snapshot(false);
    d.register(spec).unwrap()
}

/// A fresh connection on the dispatcher's kernel: the client end, and an
/// invocation bound to the server end. One per consumer, because a
/// socket admits one waiter.
fn connect(d: &Dispatcher) -> (SockId, Invocation) {
    const PORT: u16 = 90;
    let k = d.wasp().kernel();
    // Only the first call binds; later ones find the port in use.
    let _ = k.net_listen(PORT);
    let client = k.net_connect(PORT).unwrap();
    let server = k.net_accept(PORT).unwrap().unwrap();
    (client, Invocation::with_conn(server))
}

/// Seed matrix for the churn-style property tests: the long-committed
/// seed plus a small fixed spread, so the random interleavings cover
/// more of the space than any single seed while staying bit-for-bit
/// replayable (a failure names its seed and case).
const CHURN_SEEDS: &[u64] = &[0x11fec7c1e, 0x5eed_0001, 0xb0a7_10ad, 0x0fa1_10e5];

/// A tenant at its token-bucket limit is shed while other tenants keep
/// being served (ISSUE: admission isolation). Random arrival streams;
/// invariants checked on every stream:
///
/// * the throttled tenant's admissions never exceed its bucket's budget;
/// * the unthrottled tenant is never shed and every submission is served;
/// * everything admitted is eventually served.
#[test]
fn rate_limited_tenant_sheds_without_collateral_damage() {
    let mut rng = Rng::seeded(0x7e4a47);
    for case in 0..20 {
        let rate = rng.range_f64(20.0, 200.0);
        let burst = rng.range_u64(1, 8) as f64;
        let duration = rng.range_f64(0.05, 0.5);
        let n = rng.below(120) + 30;

        let mut d = Dispatcher::new(Wasp::new_kvm_default(), DispatcherConfig::default());
        let img = visa::assemble(".org 0x8000\n mov r0, 1\n hlt\n").unwrap();
        let id = d
            .register(VirtineSpec::new("f", img, MEM).with_snapshot(false))
            .unwrap();
        let throttled = d.add_tenant(TenantProfile::new("throttled").with_rate(rate, burst));
        let free = d.add_tenant(TenantProfile::new("free"));

        let mut arrivals: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, duration)).collect();
        arrivals.sort_by(f64::total_cmp);
        for (i, &t) in arrivals.iter().enumerate() {
            let tenant = if i % 2 == 0 { throttled } else { free };
            let _ = d.submit(Request::new(tenant, id, t));
        }
        d.run_to_idle();

        let ts = d.tenant_stats(throttled);
        let fs = d.tenant_stats(free);
        let budget = burst + rate * duration + 1.0;
        assert!(
            (ts.admitted as f64) <= budget,
            "case {case}: admitted {} > token budget {budget:.1} (rate {rate:.0}, burst {burst})",
            ts.admitted,
        );
        assert_eq!(
            ts.submitted,
            ts.admitted + ts.shed_rate_limit,
            "case {case}: throttled accounting"
        );
        assert_eq!(fs.shed(), 0, "case {case}: free tenant shed");
        assert_eq!(fs.served, fs.submitted, "case {case}: free tenant starved");
        assert_eq!(ts.served, ts.admitted, "case {case}: admitted not served");
        assert_eq!(ts.in_flight, 0, "case {case}");
        assert_eq!(fs.in_flight, 0, "case {case}");
    }
}

/// A shell released by tenant A and stolen by tenant B's shard is wiped
/// before reuse: B can never read A's data (§5.2's no-information-leakage
/// guarantee, extended across tenants and shards). Random secrets and
/// addresses; the reader returns the bytes at the secret's address via
/// `return_data` and must always see zeroes.
#[test]
fn stolen_shells_never_leak_across_tenants() {
    let mut rng = Rng::seeded(0x5713a1);
    for case in 0..15 {
        // A guest-memory address the image/stack regions don't touch.
        let addr = 0x4000 + 8 * rng.range_u64(0, 0x200);
        let secret = rng.next_u64() | 1; // Never zero.

        let mut d = Dispatcher::new(
            Wasp::new_kvm_default(),
            DispatcherConfig {
                shards: 2,
                placement: Placement::ByTenant,
                ..DispatcherConfig::default()
            },
        );
        // Tenant A (index 0) homes on shard 0; tenant B (index 1) on 1.
        let writer_img = visa::assemble(&format!(
            ".org 0x8000\n mov r1, {addr:#x}\n mov r2, {secret:#x}\n store.q [r1], r2\n hlt\n"
        ))
        .unwrap();
        let reader_img = wasp::hypercall::assemble(&format!(
            "
.org 0x8000
  mov r0, HC_RETURN_DATA ; return_data(addr, 8)
  mov r1, {addr:#x}
  mov r2, 8
  out HC_PORT, r0
  hlt
"
        ))
        .unwrap();
        let writer = d
            .register(VirtineSpec::new("writer", writer_img, MEM).with_snapshot(false))
            .unwrap();
        let reader = d
            .register(
                VirtineSpec::new("reader", reader_img, MEM)
                    .with_policy(HypercallMask::allowing(&[wasp::nr::RETURN_DATA]))
                    .with_snapshot(false),
            )
            .unwrap();
        let a = d.add_tenant(TenantProfile::new("a"));
        let b = d.add_tenant(TenantProfile::new("b").with_mask(HypercallMask::ALLOW_ALL));

        // A dirties a shell; it parks (wiped) in shard 0's pool.
        d.submit(Request::new(a, writer, 0.0)).unwrap();
        d.run_to_idle();
        assert_eq!(d.shard_snapshots()[0].idle_shells, 1, "case {case}");

        // B's home shard is dry: serving B steals A's shell.
        d.submit(Request::new(b, reader, 0.01)).unwrap();
        d.run_to_idle();
        let c = d.completions().last().unwrap();
        assert!(c.stolen_shell, "case {case}: steal did not happen");
        assert_eq!(d.tenant_stats(b).stolen_serves, 1, "case {case}");
        assert_eq!(
            c.result,
            vec![0u8; 8],
            "case {case}: tenant A's secret at {addr:#x} leaked to tenant B"
        );
    }
}

/// A *warm* shell — parked still holding a snapshotted run's state — is
/// never handed to a different tenant or a different virtine without a
/// full wipe and a clean-path acquire. Extends the stolen-shell-wipe
/// property to warm demotion (same shard, different key) and cross-shard
/// warm steals: in both scenarios a writer virtine plants a random secret
/// *after* its snapshot point (so the secret lives in the warm shell's
/// resident state), and a reader under a different key must always see
/// zeroes and never a warm hit.
#[test]
fn warm_shells_never_cross_tenants_or_virtines_without_a_wipe() {
    let mut rng = Rng::seeded(0x3a11ce);
    for case in 0..12 {
        // A guest-memory address the image/stack regions don't touch.
        let addr = 0x4000 + 8 * rng.range_u64(0, 0x200);
        let secret = rng.next_u64() | 1; // Never zero.

        // Scenario 0: same-shard demotion (different tenant).
        // Scenario 1: same-shard demotion (same tenant, different virtine).
        // Scenario 2: cross-shard warm steal.
        let scenario = case % 3;
        let shards = if scenario == 2 { 2 } else { 1 };

        let mut d = Dispatcher::new(
            Wasp::new_kvm_default(),
            DispatcherConfig {
                shards,
                placement: Placement::ByTenant,
                ..DispatcherConfig::default()
            },
        );
        // Writer: snapshots, then plants the secret post-snapshot. The
        // spec snapshot is enabled, so its shell parks *warm* with the
        // secret resident.
        let writer_img = wasp::hypercall::assemble(&format!(
            "
.org 0x8000
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  mov r1, {addr:#x}
  mov r2, {secret:#x}
  store.q [r1], r2
  hlt
"
        ))
        .unwrap();
        let reader_img = wasp::hypercall::assemble(&format!(
            "
.org 0x8000
  mov r0, HC_RETURN_DATA ; return_data(addr, 8)
  mov r1, {addr:#x}
  mov r2, 8
  out HC_PORT, r0
  hlt
"
        ))
        .unwrap();
        let writer = d
            .register(VirtineSpec::new("writer", writer_img, MEM))
            .unwrap();
        let reader = d
            .register(
                VirtineSpec::new("reader", reader_img, MEM)
                    .with_policy(HypercallMask::allowing(&[wasp::nr::RETURN_DATA]))
                    .with_snapshot(false),
            )
            .unwrap();
        // Tenant A gets the return_data ceiling too, so scenario 1 can use
        // the *same* tenant for the read and exercise the virtine half of
        // the warm key (the spec policies are what actually constrain each
        // virtine).
        let a = d.add_tenant(TenantProfile::new("a").with_mask(HypercallMask::ALLOW_ALL));
        let b = d.add_tenant(TenantProfile::new("b").with_mask(HypercallMask::ALLOW_ALL));
        let reading_tenant = if scenario == 1 { a } else { b };

        // The writer runs as tenant A and parks a warm shell (with the
        // secret resident) on its home shard.
        d.submit(Request::new(a, writer, 0.0)).unwrap();
        d.run_to_idle();
        let home = d.completions()[0].shard;
        assert_eq!(
            d.shard_snapshots()[home].warm_shells,
            1,
            "case {case}: writer must park warm"
        );

        // The reader runs under a different key; the only shell available
        // is the warm one, reachable via demotion (same shard) or a
        // cross-shard warm steal.
        d.submit(Request::new(reading_tenant, reader, 0.01))
            .unwrap();
        d.run_to_idle();
        let c = d.completions().last().unwrap();
        assert!(c.exit_normal, "case {case}: reader failed");
        assert!(!c.warm_hit, "case {case}: warm shell crossed keys");
        assert!(
            c.reused_shell,
            "case {case}: the shell must be recycled, not re-created"
        );
        if scenario == 2 {
            assert!(c.stolen_shell, "case {case}: cross-shard steal expected");
        }
        assert_eq!(
            c.result,
            vec![0u8; 8],
            "case {case}: secret {secret:#x} at {addr:#x} leaked through a warm shell \
             (scenario {scenario})"
        );
        assert_eq!(d.stats().warm_demotions, 1, "case {case}");
        assert_eq!(d.pool_stats().created, 1, "case {case}");
    }
}

/// A shell parked with a *blocked* run (suspended in a blocking `recv`)
/// is untouchable: it is never stolen by a dry sibling, never demoted as
/// a warm victim, and — when the run is killed mid-block at its tenant's
/// `max_block` — it re-enters circulation only through the full wipe.
/// Random secrets planted (post-snapshot, so they live in resident state)
/// by the blocked virtine before it parks; steal and demote traffic runs
/// around the parked shell the whole time.
#[test]
fn parked_blocked_shells_are_never_stolen_or_demoted_and_wipe_on_kill() {
    let mut rng = Rng::seeded(0xb10cced);
    for case in 0..8 {
        // A guest-memory address the image/stack regions don't touch.
        let addr = 0x4000 + 8 * rng.range_u64(0, 0x200);
        let secret = rng.next_u64() | 1; // Never zero.
        let max_block_s = rng.range_f64(0.01, 0.05);

        let mut d = Dispatcher::new(
            Wasp::new_kvm_default(),
            DispatcherConfig {
                shards: 2,
                placement: Placement::ByTenant,
                ..DispatcherConfig::default()
            },
        );
        // The blocked writer: snapshots (so warm machinery is armed for
        // this spec), plants the secret *after* the snapshot point, then
        // parks in a blocking recv nobody ever satisfies.
        let writer_img = wasp::hypercall::assemble(&format!(
            "
.org 0x8000
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  mov r1, {addr:#x}
  mov r2, {secret:#x}
  store.q [r1], r2
  mov r0, HC_RECV ; recv — blocks forever
  mov r1, 0x200
  mov r2, 64
  mov r3, 0
  out HC_PORT, r0
  hlt
"
        ))
        .unwrap();
        let reader_img = wasp::hypercall::assemble(&format!(
            "
.org 0x8000
  mov r0, HC_RETURN_DATA ; return_data(addr, 8)
  mov r1, {addr:#x}
  mov r2, 8
  out HC_PORT, r0
  hlt
"
        ))
        .unwrap();
        let writer = d
            .register(
                VirtineSpec::new("writer", writer_img, MEM)
                    .with_policy(HypercallMask::allowing(&[wasp::nr::RECV])),
            )
            .unwrap();
        let reader = d
            .register(
                VirtineSpec::new("reader", reader_img, MEM)
                    .with_policy(HypercallMask::allowing(&[wasp::nr::RETURN_DATA]))
                    .with_snapshot(false),
            )
            .unwrap();
        // Tenant a (home shard 0) parks the blocked writer; b (shard 1)
        // generates clean-shell traffic; c (shard 0) generates steal
        // pressure against shard 0 — whose only shell is the parked one.
        let a = d.add_tenant(
            TenantProfile::new("a")
                .with_mask(HypercallMask::ALLOW_ALL)
                .with_max_block(Cycles::from_secs(max_block_s)),
        );
        let b = d.add_tenant(TenantProfile::new("b").with_mask(HypercallMask::ALLOW_ALL));
        let c = d.add_tenant(TenantProfile::new("c").with_mask(HypercallMask::ALLOW_ALL));

        let k = d.wasp().kernel();
        k.net_listen(80).unwrap();
        let _client = k.net_connect(80).unwrap();
        let server = k.net_accept(80).unwrap().unwrap();
        d.submit(Request::new(a, writer, 0.0).with_invocation(wasp::Invocation::with_conn(server)))
            .unwrap();
        d.run_until(0.001);
        assert_eq!(d.parked(), 1, "case {case}: writer must park");
        assert_eq!(d.shard_snapshots()[0].parked, 1, "case {case}");
        assert_eq!(
            d.shard_snapshots()[0].idle_shells + d.shard_snapshots()[0].warm_shells,
            0,
            "case {case}: the parked shell is outside the pool"
        );

        // b seeds shard 1 with a clean shell; c's request on shard 0 then
        // finds an empty pool and must steal b's — never a's parked shell.
        d.submit(Request::new(b, reader, 0.002)).unwrap();
        d.run_until(0.004);
        d.submit(Request::new(c, reader, 0.005)).unwrap();
        d.run_until(0.007);
        let cs: Vec<&vsched::Completion> = d.completions().iter().collect();
        assert_eq!(cs.len(), 2, "case {case}: readers served while parked");
        for comp in &cs {
            assert!(comp.exit_normal, "case {case}");
            assert_eq!(
                comp.result,
                vec![0u8; 8],
                "case {case}: secret visible outside the parked shell"
            );
            assert!(!comp.warm_hit, "case {case}: nothing warm to hit");
        }
        let stolen_serve = cs.iter().filter(|c| c.stolen_shell).count();
        assert_eq!(
            stolen_serve, 1,
            "case {case}: c must steal b's clean shell, proving steal \
             pressure existed while the parked shell stayed untouched"
        );
        assert_eq!(d.parked(), 1, "case {case}: still parked through it all");
        assert_eq!(
            d.pool_stats().created,
            2,
            "case {case}: exactly the writer's shell and b's — stealing \
             never minted a third, and never took the parked one"
        );
        assert_eq!(d.stats().warm_demotions, 0, "case {case}");
        assert_eq!(d.pool_stats().warm_demoted, 0, "case {case}");

        // Let the tenant's max_block expire: the parked run is killed and
        // its shell — still holding the secret — re-enters circulation
        // only through the wiped release.
        d.run_to_idle();
        assert_eq!(d.parked(), 0, "case {case}");
        assert_eq!(d.stats().blocked_timeout, 1, "case {case}");
        assert_eq!(d.tenant_stats(a).blocked_timeout, 1, "case {case}");
        assert_eq!(d.tenant_stats(a).in_flight, 0, "case {case}");
        let killed = d.completions().last().unwrap();
        assert!(!killed.exit_normal, "case {case}: timeout kill is abnormal");

        // c reads again on shard 0: it reuses the killed shell (no new
        // creation) and must see zeroes at the secret's address.
        d.submit(Request::new(c, reader, max_block_s + 0.01))
            .unwrap();
        d.run_to_idle();
        let comp = d.completions().last().unwrap();
        assert!(comp.exit_normal && comp.reused_shell, "case {case}");
        assert_eq!(
            comp.result,
            vec![0u8; 8],
            "case {case}: secret {secret:#x} at {addr:#x} survived the \
             mid-block kill wipe"
        );
        assert_eq!(
            d.pool_stats().created,
            2,
            "case {case}: recycled, not re-created"
        );
    }
}

/// A wake storm: many runs parked, each on its own connection; every
/// client closes at one instant and every run wakes (EOF). Random storm sizes and configs;
/// invariants on every case:
///
/// * every parked run wakes and completes — the closes wake the whole
///   storm in one delivery;
/// * woken runs go to the *front* of the run queues: they all complete
///   before lower-priority work that was queued while they slept;
/// * in-flight accounting returns to zero and submitted = served;
/// * no shell leaks: every shell minted is back in a pool at the end
///   (parked shells re-enter circulation through their completion).
#[test]
fn peer_close_wakes_the_whole_storm_in_front_of_queued_work() {
    let mut rng = Rng::seeded(0x57011111);
    for case in 0..10 {
        let storm = rng.below(12) + 3;
        let shards = rng.below(3) + 1;
        let mut d = Dispatcher::new(
            Wasp::new_kvm_default(),
            DispatcherConfig {
                shards,
                ..DispatcherConfig::default()
            },
        );
        let consumer = recv_consumer(&mut d);
        let filler_img = visa::assemble(".org 0x8000\n mov r0, 1\n hlt\n").unwrap();
        let filler = d
            .register(VirtineSpec::new("f", filler_img, MEM).with_snapshot(false))
            .unwrap();
        let waiters = d.add_tenant(
            TenantProfile::new("waiters")
                .with_mask(HypercallMask::ALLOW_ALL)
                .with_priority(5),
        );
        let bulk = d.add_tenant(TenantProfile::new("bulk").with_priority(0));

        // The storm parks, one connection per run.
        let mut clients = Vec::new();
        for i in 0..storm {
            let (client, inv) = connect(&d);
            clients.push(client);
            d.submit(Request::new(waiters, consumer, i as f64 * 1e-4).with_invocation(inv))
                .unwrap();
        }
        d.run_until(0.01);
        assert_eq!(d.parked(), storm, "case {case}: whole storm parked");

        // Bulk work queues up behind the (future) wakes.
        let bulk_n = rng.below(20) + 5;
        for _ in 0..bulk_n {
            d.submit(Request::new(bulk, filler, 0.02)).unwrap();
        }

        // Every peer closes: EOF is readable — every waiter wakes at once.
        for client in clients {
            d.wasp().kernel().net_close(client).unwrap();
        }
        d.run_until(0.021);
        d.run_to_idle();

        assert_eq!(d.parked(), 0, "case {case}: storm fully woken");
        let s = d.stats();
        assert_eq!(s.blocked, storm as u64, "case {case}");
        assert_eq!(s.resumed, storm as u64, "case {case}: all resumed");
        assert_eq!(s.served, (storm + bulk_n) as u64, "case {case}");
        assert_eq!(s.submitted, s.served + s.shed(), "case {case}");
        assert_eq!(d.tenant_stats(waiters).in_flight, 0, "case {case}");
        assert_eq!(d.tenant_stats(bulk).in_flight, 0, "case {case}");

        // Front-of-queue: woken consumers enqueue at the front, so on
        // every shard they run contiguously — bulk work queued while
        // they slept may fill batches *before* the wake arrives, but
        // once the first woken consumer runs, no bulk may interleave
        // until the shard's last woken consumer is done.
        for shard in 0..shards {
            let order: Vec<usize> = d
                .completions()
                .iter()
                .filter(|c| c.shard == shard)
                .map(|c| c.tenant.index())
                .collect();
            let first = order.iter().position(|&t| t == waiters.index());
            let last = order.iter().rposition(|&t| t == waiters.index());
            if let (Some(first), Some(last)) = (first, last) {
                assert!(
                    order[first..=last].iter().all(|&t| t == waiters.index()),
                    "case {case}: bulk work interleaved with the woken \
                     storm on shard {shard}: {order:?}"
                );
            }
        }
        // Every consumer saw the clean 0 EOF (no error, no data).
        for c in d.completions().iter().filter(|c| c.virtine == consumer) {
            assert!(c.exit_normal, "case {case}: EOF must complete the run");
        }
        // No shell leaked: every shell minted is back in a pool (the
        // parked shells re-entered circulation through their completion).
        let snapshots = d.shard_snapshots();
        let pooled: usize = snapshots
            .iter()
            .map(|s| s.idle_shells + s.warm_shells)
            .sum();
        assert_eq!(
            pooled as u64,
            d.pool_stats().created,
            "case {case}: every minted shell must be back in a pool"
        );
    }
}

/// Resume-time migration preserves the two invariants that make it safe:
/// a migrated resume charges byte-identical guest cycles to a pinned one
/// (migration is accounting-invisible to the guest), and a run killed at
/// its block bound *after* migrating still wipes its shell before reuse
/// (wipe-on-kill isolation follows the shell, not the shard).
#[test]
fn migrated_resumes_charge_identical_cycles_and_wipe_on_kill() {
    let mut rng = Rng::seeded(0x316AA7E);
    for case in 0..8 {
        let addr = 0x4000 + 8 * rng.range_u64(0, 0x200);
        let secret = rng.next_u64() | 1;
        let fillers = rng.below(16) + 8;

        // The consumer plants a secret, then blocking-recvs twice on its
        // connection (the second recv is where a killed run dies).
        let consumer_img = wasp::hypercall::assemble(&format!(
            "
.org 0x8000
  mov r1, {addr:#x}
  mov r2, {secret:#x}
  store.q [r1], r2
  mov r0, HC_RECV ; recv #1
  mov r1, 0x200
  mov r2, 64
  mov r3, 0
  out HC_PORT, r0
  mov r0, HC_RECV ; recv #2
  mov r1, 0x300
  mov r2, 64
  mov r3, 0
  out HC_PORT, r0
  hlt
"
        ))
        .unwrap();
        let reader_img = wasp::hypercall::assemble(&format!(
            "
.org 0x8000
  mov r0, HC_RETURN_DATA ; return_data(addr, 8)
  mov r1, {addr:#x}
  mov r2, 8
  out HC_PORT, r0
  hlt
"
        ))
        .unwrap();
        let filler_img = visa::assemble(".org 0x8000\n hlt\n").unwrap();

        // One scenario runner: submits the consumer (tenant a, home shard
        // 0 under ByTenant), optionally skews shard 0 so the resume
        // migrates, wakes it once, and returns the dispatcher.
        let run_scenario = |skew: bool, max_block: Option<f64>| {
            let mut d = Dispatcher::new(
                Wasp::new_kvm_default(),
                DispatcherConfig {
                    shards: 2,
                    placement: Placement::ByTenant,
                    ..DispatcherConfig::default()
                },
            );
            let consumer = d
                .register(
                    VirtineSpec::new("c", consumer_img.clone(), MEM)
                        .with_policy(HypercallMask::allowing(&[wasp::nr::RECV]))
                        .with_snapshot(false),
                )
                .unwrap();
            let filler = d
                .register(VirtineSpec::new("f", filler_img.clone(), MEM).with_snapshot(false))
                .unwrap();
            let mut a = TenantProfile::new("a").with_mask(HypercallMask::ALLOW_ALL);
            if let Some(mb) = max_block {
                a = a.with_max_block(Cycles::from_secs(mb));
            }
            let a = d.add_tenant(a);
            let (client, inv) = connect(&d);
            d.submit(Request::new(a, consumer, 0.0).with_invocation(inv))
                .unwrap();
            d.run_until(0.001);
            assert_eq!(d.parked(), 1);
            if skew {
                for _ in 0..fillers {
                    d.submit(Request::new(a, filler, 0.002)).unwrap();
                }
            }
            // One message: wakes recv #1; recv #2 parks again (forever,
            // absent a max_block).
            d.wasp().kernel().net_send(client, b"payload1").unwrap();
            d.run_until(0.003);
            d.run_until(0.004);
            (d, consumer, a, client)
        };

        // Scenario A (pinned): no skew — the resume stays home. Complete
        // it with a second message.
        let (mut da, consumer_a, ta, client_a) = run_scenario(false, None);
        da.wasp().kernel().net_send(client_a, b"payload2").unwrap();
        da.run_to_idle();
        let ca = da
            .completions()
            .iter()
            .find(|c| c.virtine == consumer_a)
            .unwrap()
            .clone();
        assert!(ca.exit_normal && !ca.migrated, "case {case}: pinned run");
        assert_eq!(da.tenant_stats(ta).in_flight, 0);

        // Scenario B (migrated): shard 0's queue is stuffed, so the wake
        // re-admits the consumer on shard 1.
        let (mut db, consumer_b, _tb, client_b) = run_scenario(true, None);
        db.wasp().kernel().net_send(client_b, b"payload2").unwrap();
        db.run_to_idle();
        let cb = db
            .completions()
            .iter()
            .find(|c| c.virtine == consumer_b)
            .unwrap()
            .clone();
        assert!(cb.exit_normal, "case {case}");
        assert!(cb.migrated, "case {case}: skew must force the migration");
        assert_eq!(cb.shard, 1, "case {case}: landed on the idle sibling");
        assert!(db.stats().migrations >= 1, "case {case}");

        // The acceptance invariant: byte-identical guest cycles.
        assert_eq!(
            cb.exec_cycles, ca.exec_cycles,
            "case {case}: a migrated resume must charge exactly the guest \
             cycles a pinned one does"
        );
        assert_eq!(cb.resumes, ca.resumes, "case {case}");

        // Scenario C (wipe-on-kill after migration): same skewed wake,
        // but recv #2 never gets data and the tenant's max_block kills
        // the run — *on the shard it migrated to*. A reader reusing that
        // shard's shell must see zeroes at the secret's address.
        let (mut dc, consumer_c, tc, _client_c) = run_scenario(true, Some(0.01));
        dc.run_to_idle(); // Fires the block timeout on the landing shard.
        assert_eq!(dc.stats().blocked_timeout, 1, "case {case}");
        let killed = dc
            .completions()
            .iter()
            .find(|c| c.virtine == consumer_c)
            .unwrap()
            .clone();
        assert!(!killed.exit_normal, "case {case}: timeout kill is abnormal");
        assert!(killed.migrated, "case {case}: killed after migrating");
        assert_eq!(killed.shard, 1, "case {case}: died on the landing shard");

        let reader = dc
            .register(
                VirtineSpec::new("r", reader_img.clone(), MEM)
                    .with_policy(HypercallMask::allowing(&[wasp::nr::RETURN_DATA]))
                    .with_snapshot(false),
            )
            .unwrap();
        // Tenant b homes on shard 1 (the landing shard) and reuses the
        // killed run's shell there.
        let b = dc.add_tenant(TenantProfile::new("b").with_mask(HypercallMask::ALLOW_ALL));
        dc.submit(Request::new(b, reader, 1.0)).unwrap();
        dc.run_to_idle();
        let read = dc.completions().last().unwrap();
        assert!(read.exit_normal && read.reused_shell, "case {case}");
        assert_eq!(
            read.result,
            vec![0u8; 8],
            "case {case}: secret {secret:#x} at {addr:#x} survived the \
             wipe after a migrated kill"
        );
        assert_eq!(dc.tenant_stats(tc).in_flight, 0, "case {case}");
    }
}

/// Distance-biased stealing picks the *nearest* donor — a same-CCX donor
/// always beats a cross-socket one at equal load — and never weakens the
/// wipe-on-steal isolation guarantee. Random grouped topologies, random
/// donor-supply sets, random secrets: the thief's completion must always
/// read zeroes, and the steal must land in the distance class of the
/// nearest supplied shard.
#[test]
fn distance_biased_steals_pick_the_nearest_donor_and_never_leak() {
    let mut rng = Rng::seeded(0xd157a4ce);
    for case in 0..15 {
        // 2..=8 shards over 1-2 sockets x 1-2 CCXs x 1-2 shards.
        let (sockets, ccxs, per_ccx) = loop {
            let dims = (rng.below(2) + 1, rng.below(2) + 1, rng.below(2) + 1);
            if dims.0 * dims.1 * dims.2 >= 2 {
                break dims;
            }
        };
        let topology = Topology::grouped(sockets, ccxs, per_ccx);
        let shards = topology.shards();
        let addr = 0x4000 + 8 * rng.range_u64(0, 0x200);
        let secret = rng.next_u64() | 1;

        let mut d = Dispatcher::new(
            Wasp::new_kvm_default(),
            DispatcherConfig {
                shards,
                placement: Placement::ByTenant,
                topology: Some(topology.clone()),
                ..DispatcherConfig::default()
            },
        );
        let writer_img = visa::assemble(&format!(
            ".org 0x8000\n mov r1, {addr:#x}\n mov r2, {secret:#x}\n store.q [r1], r2\n hlt\n"
        ))
        .unwrap();
        let writer = d
            .register(VirtineSpec::new("writer", writer_img, MEM).with_snapshot(false))
            .unwrap();
        let reader_img = wasp::hypercall::assemble(&format!(
            "
.org 0x8000
  mov r0, HC_RETURN_DATA ; return_data(addr, 8)
  mov r1, {addr:#x}
  mov r2, 8
  out HC_PORT, r0
  hlt
"
        ))
        .unwrap();
        let reader = d
            .register(
                VirtineSpec::new("reader", reader_img, MEM)
                    .with_policy(HypercallMask::allowing(&[wasp::nr::RETURN_DATA]))
                    .with_snapshot(false),
            )
            .unwrap();
        // One tenant per shard (ByTenant: tenant i homes on shard i).
        let tenants: Vec<_> = (0..shards)
            .map(|i| {
                d.add_tenant(
                    TenantProfile::new(format!("t{i}")).with_mask(HypercallMask::ALLOW_ALL),
                )
            })
            .collect();

        // Supply: a random non-empty set of shards (excluding the thief's
        // home) each runs the secret-planting writer once, parking one
        // wiped clean shell locally.
        let thief_home = rng.below(shards);
        let supply: Vec<usize> = (0..shards)
            .filter(|&s| s != thief_home && rng.bool(0.6))
            .collect();
        if supply.is_empty() {
            continue;
        }
        // Prewarm one shell per supply shard first, so each writer is a
        // guaranteed *local* acquire (a dry writer shard would otherwise
        // steal an earlier writer's parked shell and skew the supply).
        for &s in &supply {
            d.prewarm_shard(s, MEM, 1);
        }
        let mut t = 0.0;
        for &s in &supply {
            d.submit(Request::new(tenants[s], writer, t)).unwrap();
            d.run_to_idle();
            t += 0.01;
        }
        assert_eq!(d.stats().stolen, 0, "case {case}: planting stole");
        for &s in &supply {
            assert_eq!(d.shard_snapshots()[s].idle_shells, 1, "case {case}");
        }

        // The thief's home is dry: serving it must steal from the
        // *nearest* supplied shard (lowest index within the class).
        let expected_hop = supply
            .iter()
            .map(|&s| topology.hop(thief_home, s))
            .min()
            .unwrap();
        let expected_donor = supply
            .iter()
            .copied()
            .filter(|&s| topology.hop(thief_home, s) == expected_hop)
            .min()
            .unwrap();
        d.submit(Request::new(tenants[thief_home], reader, t + 0.01))
            .unwrap();
        d.run_to_idle();
        let c = d.completions().last().unwrap();
        assert!(c.stolen_shell, "case {case}: steal did not happen");
        assert_eq!(c.shard, thief_home, "case {case}");
        assert_eq!(
            c.result,
            vec![0u8; 8],
            "case {case}: secret {secret:#x} at {addr:#x} leaked through a \
             distance-biased steal"
        );
        let s = d.stats();
        let by_class = (s.stolen_same_ccx, s.stolen_cross_ccx, s.stolen_cross_socket);
        let expected_class = match expected_hop {
            Hop::SameCcx => (1, 0, 0),
            Hop::SameSocket => (0, 1, 0),
            Hop::CrossSocket => (0, 0, 1),
            Hop::Local => unreachable!("supply excludes the thief"),
            Hop::CrossNode => unreachable!("intra-node topology never yields a node hop"),
        };
        assert_eq!(
            by_class, expected_class,
            "case {case}: steal crossed a farther hop than the nearest \
             donor ({expected_hop:?}) required"
        );
        assert_eq!(
            d.shard_snapshots()[expected_donor].stats.stolen_out,
            1,
            "case {case}: donor must be the nearest supplied shard \
             {expected_donor} (home {thief_home}, supply {supply:?})"
        );
        assert_eq!(s.stolen, 1, "case {case}");
    }
}

/// Per-tenant warm quotas and the global warm budget hold across shards
/// under an arbitrary steal/demote/migrate mix: random topologies, shell
/// scarcity (steal and demote pressure), parked-and-woken consumers
/// (resume-time migration), and random snapshotted request streams never
/// push any tenant above its quota or the platform above its budget.
#[test]
fn warm_quota_and_budget_hold_under_steal_demote_migrate_mix() {
    let mut rng = Rng::seeded(0x40a7a);
    for case in 0..10 {
        let (sockets, ccxs, per_ccx) = loop {
            let dims = (rng.below(2) + 1, rng.below(2) + 1, rng.below(2) + 1);
            if dims.0 * dims.1 * dims.2 >= 2 {
                break dims;
            }
        };
        let topology = Topology::grouped(sockets, ccxs, per_ccx);
        let shards = topology.shards();
        let quota = rng.below(2) + 1;
        let n_tenants = rng.below(2) + 2;
        let budget = quota + rng.below(quota * (n_tenants - 1) + 1);
        let placement = match rng.below(3) {
            0 => Placement::SnapshotAware,
            1 => Placement::LeastLoaded,
            _ => Placement::ByTenant,
        };

        let mut d = Dispatcher::new(
            Wasp::new_kvm_default(),
            DispatcherConfig {
                shards,
                placement,
                topology: Some(topology),
                warm_budget: Some(budget),
                warm_tenant_quota: Some(quota),
                ..DispatcherConfig::default()
            },
        );
        // Snapshotted worker: init, snapshot, a little post-snapshot work.
        let snap_img = wasp::hypercall::assemble(
            "
.org 0x8000
  mov r1, 0x7000
  mov r2, 41
  store.q [r1], r2
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  load.q r0, [r1]
  hlt
",
        )
        .unwrap();
        // Consumer: parks on an empty connection, completes on a send.
        let consumer = recv_consumer(&mut d);
        let tenants: Vec<_> = (0..n_tenants)
            .map(|i| {
                let virtines: Vec<_> = (0..rng.below(2) + 2)
                    .map(|v| {
                        d.register(VirtineSpec::new(format!("t{i}v{v}"), snap_img.clone(), MEM))
                            .unwrap()
                    })
                    .collect();
                let t = d.add_tenant(
                    TenantProfile::new(format!("t{i}")).with_mask(HypercallMask::ALLOW_ALL),
                );
                (t, virtines)
            })
            .collect();
        // Scarce prewarm: 0-1 shells per shard, so acquires exert steal
        // and warm-demote pressure against the quota machinery.
        d.prewarm(MEM, rng.below(2));

        let check = |d: &Dispatcher, at: &str| {
            let total: usize = d.warm_resident();
            assert!(
                total <= budget,
                "case {case} {at}: {total} warm resident > budget {budget}"
            );
            for (t, _) in &tenants {
                let r = d.warm_resident_of(*t);
                assert!(
                    r <= quota,
                    "case {case} {at}: tenant {} holds {r} > quota {quota}",
                    t.index()
                );
            }
        };

        // Park a consumer mid-stream, skew its home shard, wake it: the
        // resume migrates while warm parks keep landing.
        let (client, inv) = connect(&d);
        d.submit(Request::new(tenants[0].0, consumer, 0.0).with_invocation(inv))
            .unwrap();
        d.run_until(0.001);

        let mut t = 0.002;
        let n = rng.below(30) + 15;
        for i in 0..n {
            let (tenant, virtines) = &tenants[rng.below(n_tenants)];
            let virtine = virtines[rng.below(virtines.len())];
            d.submit(Request::new(*tenant, virtine, t).with_args(vec![i as u8]))
                .unwrap();
            if rng.bool(0.3) {
                d.run_to_idle();
                check(&d, "mid-stream");
            }
            t += rng.range_f64(0.0, 0.002);
        }
        d.wasp().kernel().net_send(client, b"wake").unwrap();
        d.run_until(t + 0.001);
        d.run_to_idle();
        check(&d, "after drain");

        let s = d.stats();
        assert_eq!(s.submitted, s.served + s.shed(), "case {case}");
        for (tenant, _) in &tenants {
            assert_eq!(d.tenant_stats(*tenant).in_flight, 0, "case {case}");
        }
    }
}

/// Shard lifecycle churn: random interleavings of submit / drain /
/// restore / fail / reconcile under live traffic — including parked
/// connection-bound consumers — preserve the exactly-once contract (every
/// admitted request is served once or shed once, never both, never
/// twice), leak no shells (pooled inventory balances creations minus
/// destructions), and keep warm tenant quotas holding on the surviving
/// shards. Drains and fails never take the last active shard, as an
/// operator's guardrail would ensure. Runs under the [`CHURN_SEEDS`]
/// matrix: the same total number of cases as before, spread across
/// seeds so the interleaving space is sampled more widely.
#[test]
fn lifecycle_churn_keeps_exactly_once_accounting_and_leaks_nothing() {
    for &seed in CHURN_SEEDS {
        lifecycle_churn_cases(seed, 2);
    }
}

fn lifecycle_churn_cases(seed: u64, cases: usize) {
    let mut rng = Rng::seeded(seed);
    for i in 0..cases {
        let case = format!("{seed:#x}/{i}");
        let shards = rng.below(3) + 2;
        let quota = rng.below(2) + 1;
        let placement = match rng.below(3) {
            0 => Placement::SnapshotAware,
            1 => Placement::LeastLoaded,
            _ => Placement::ByTenant,
        };
        let mut d = Dispatcher::new(
            Wasp::new_kvm_default(),
            DispatcherConfig {
                shards,
                placement,
                warm_tenant_quota: Some(quota),
                ..DispatcherConfig::default()
            },
        );
        // A snapshotted worker (exercises warm-shell migration) and a
        // blocking connection-bound consumer (exercises park migration,
        // grace eviction, and eviction-on-failure).
        let snap_img = wasp::hypercall::assemble(
            "
.org 0x8000
  mov r1, 0x7000
  mov r2, 41
  store.q [r1], r2
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  load.q r0, [r1]
  hlt
",
        )
        .unwrap();
        let worker = d.register(VirtineSpec::new("w", snap_img, MEM)).unwrap();
        let consumer = recv_consumer(&mut d);
        let n_tenants = rng.below(2) + 2;
        let tenants: Vec<_> = (0..n_tenants)
            .map(|i| {
                d.add_tenant(
                    TenantProfile::new(format!("t{i}")).with_mask(HypercallMask::ALLOW_ALL),
                )
            })
            .collect();
        let mut clients = Vec::new();

        let mut t = 0.0;
        let ops = rng.below(60) + 40;
        for _ in 0..ops {
            t += rng.range_f64(0.0, 0.002);
            match rng.below(10) {
                0..=4 => {
                    let tenant = tenants[rng.below(tenants.len())];
                    if rng.bool(0.25) {
                        let (client, inv) = connect(&d);
                        clients.push(client);
                        let _ = d.submit(Request::new(tenant, consumer, t).with_invocation(inv));
                    } else {
                        let _ = d.submit(Request::new(tenant, worker, t));
                    }
                }
                5 | 6 => {
                    let shard = rng.below(shards);
                    let actives = d.shard_states().iter().filter(|s| s.is_active()).count();
                    if actives > 1 || !d.shard_state(shard).is_active() {
                        d.drain_shard(shard);
                    }
                }
                7 => {
                    d.restore_shard(rng.below(shards));
                }
                8 => {
                    let shard = rng.below(shards);
                    let actives = d.shard_states().iter().filter(|s| s.is_active()).count();
                    if actives > 1 || !d.shard_state(shard).is_active() {
                        d.fail_shard(shard);
                    }
                }
                _ => {
                    d.reconcile();
                    d.run_until(t);
                }
            }
        }

        // Quiesce: restore every shard (a restored cluster has nothing to
        // reconcile), wake every still-parked consumer via EOF, and run
        // everything down.
        for shard in 0..shards {
            d.restore_shard(shard);
        }
        assert!(d.reconcile().is_empty(), "case {case}: restored != quiet");
        for client in clients {
            d.wasp().kernel().net_close(client).unwrap();
        }
        d.run_to_idle();
        assert_eq!(d.parked(), 0, "case {case}: runs left parked");

        let g = d.stats();
        assert_eq!(
            g.submitted,
            g.served + g.shed(),
            "case {case}: global conservation (served {}, evicted {})",
            g.served,
            g.shed_evicted,
        );
        assert_eq!(
            d.completions().len() as u64,
            g.served,
            "case {case}: exactly one completion per served run"
        );
        let (mut sub, mut served, mut shed) = (0, 0, 0);
        for &tid in &tenants {
            let s = d.tenant_stats(tid);
            assert_eq!(
                s.submitted,
                s.served + s.shed(),
                "case {case}: tenant {} conservation",
                tid.index()
            );
            assert_eq!(s.in_flight, 0, "case {case}");
            assert!(
                d.warm_resident_of(tid) <= quota,
                "case {case}: tenant {} warm quota violated on survivors",
                tid.index()
            );
            sub += s.submitted;
            served += s.served;
            shed += s.shed();
        }
        assert_eq!(
            (sub, served, shed),
            (g.submitted, g.served, g.shed()),
            "case {case}: tenant planes disagree with the dispatcher"
        );
        // No shell leaks: pooled inventory balances mint minus destroy.
        let p = d.pool_stats();
        let pooled: usize = d
            .shard_snapshots()
            .iter()
            .map(|s| s.idle_shells + s.warm_shells)
            .sum();
        assert_eq!(
            pooled as u64,
            p.created - p.dropped,
            "case {case}: shells leaked (created {}, dropped {})",
            p.created,
            p.dropped
        );
    }
}

/// The failover layer's exactly-once contract under adversarial
/// interleavings: random shard kills and restores under live traffic
/// from retry- and hedge-enabled tenants lose nothing (every admitted
/// request is eventually served once or shed once) and double-run
/// nothing (at most one completion per logical sequence number), with
/// the retry-backoff bridge term draining to zero at quiesce. Unlike
/// the lifecycle churn above, kills here MAY take the last active
/// shard — evacuation then has no destination and the work is lost to
/// the failure, which is exactly the loss the retry path exists to
/// absorb. After *every* step — not only at quiesce — the ledger balances
/// (see `conservation_holds`). Runs under the [`CHURN_SEEDS`] matrix.
#[test]
fn retry_and_hedge_interleavings_never_lose_or_double_run() {
    for &seed in CHURN_SEEDS {
        retry_churn_cases(seed, 2);
    }
}

/// The conservation identity, at any instant: every admitted request is
/// served, shed after admission, or still holds its in-flight slot —
/// queued, parked, or (the `retried_in_flight` subset) waiting out a retry
/// backoff with no live copy — on the dispatcher plane and on every
/// tenant's. `admitted` is the test's own per-tenant count of `Ok`
/// submits, so the stats cannot balance by agreeing with each other.
fn conservation_holds(d: &Dispatcher, tenants: &[vsched::TenantId], admitted: &[u64], case: &str) {
    let g = d.stats();
    let (mut in_flight, mut retried) = (0, 0);
    for (&id, &admitted) in tenants.iter().zip(admitted) {
        let t = d.tenant_stats(id);
        assert_eq!(t.admitted, admitted, "case {case}: tenant admitted");
        assert_eq!(
            t.admitted,
            t.served + t.shed_evicted + t.in_flight,
            "case {case}: tenant {} conservation",
            id.index()
        );
        assert!(t.retried_in_flight <= t.in_flight, "case {case}");
        in_flight += t.in_flight;
        retried += t.retried_in_flight;
    }
    assert_eq!(g.admitted, admitted.iter().sum::<u64>(), "case {case}");
    assert_eq!(g.retried_in_flight, retried, "case {case}: bridge term");
    assert_eq!(g.served, d.completions().len() as u64, "case {case}");
    // Unresolved admitted requests are exactly the held slots.
    assert_eq!(
        g.admitted - g.served - g.shed_evicted,
        in_flight,
        "case {case}: conservation"
    );
    let live: usize = d
        .shard_snapshots()
        .iter()
        .map(|s| s.queue_depth + s.parked)
        .sum();
    if live == 0 {
        // Nothing queued or parked: only backoffs still hold slots —
        // `admitted == served + shed_evicted + retried_in_flight`, the
        // form the docs state.
        assert_eq!(in_flight, retried, "case {case}: slots with no copy");
    }
}

fn retry_churn_cases(seed: u64, cases: usize) {
    let mut rng = Rng::seeded(seed);
    for i in 0..cases {
        let case = format!("{seed:#x}/{i}");
        let shards = rng.below(3) + 1;
        let placement = match rng.below(3) {
            0 => Placement::SnapshotAware,
            1 => Placement::LeastLoaded,
            _ => Placement::ByTenant,
        };
        let mut d = Dispatcher::new(
            Wasp::new_kvm_default(),
            DispatcherConfig {
                shards,
                placement,
                ..DispatcherConfig::default()
            },
        );
        // A plain halting worker (conn-free, so the dispatcher tracks it
        // for retry and hedging) plus a blocking connection-bound consumer,
        // never tracked, whose parked run dies with its shard and is shed.
        let img = visa::assemble(".org 0x8000\n mov r0, 3\n hlt\n").unwrap();
        let worker = d
            .register(VirtineSpec::new("w", img, MEM).with_snapshot(false))
            .unwrap();
        let consumer = recv_consumer(&mut d);
        let mut clients = Vec::new();
        let n_tenants = rng.below(2) + 2;
        let tenants: Vec<_> = (0..n_tenants)
            .map(|j| {
                let mut p = TenantProfile::new(format!("t{j}"))
                    .with_mask(HypercallMask::ALLOW_ALL)
                    .with_retry(
                        RetryPolicy::new()
                            .with_max_attempts((rng.below(3) + 2) as u32)
                            .with_backoff(Cycles::from_secs(rng.range_f64(0.0001, 0.001)))
                            .with_jitter(0.2),
                    );
                if rng.bool(0.5) {
                    p = p.with_hedge(
                        HedgePolicy::new()
                            .with_min_delay(Cycles::from_secs(rng.range_f64(0.0002, 0.002))),
                    );
                }
                d.add_tenant(p)
            })
            .collect();

        let mut t = 0.0;
        let mut admitted = vec![0u64; tenants.len()];
        let ops = rng.below(50) + 30;
        for _ in 0..ops {
            t += rng.range_f64(0.0, 0.002);
            match rng.below(8) {
                0..=4 => {
                    let who = rng.below(tenants.len());
                    let req = if rng.bool(0.2) {
                        let (client, inv) = connect(&d);
                        clients.push(client);
                        Request::new(tenants[who], consumer, t).with_invocation(inv)
                    } else {
                        Request::new(tenants[who], worker, t)
                    };
                    admitted[who] += u64::from(d.submit(req).is_ok());
                }
                5 => {
                    d.fail_shard(rng.below(shards));
                }
                6 => {
                    d.restore_shard(rng.below(shards));
                }
                _ => d.run_until(t),
            }
            conservation_holds(&d, &tenants, &admitted, &case);
        }

        // Quiesce: bring every shard back, wake the parked consumers via
        // EOF, and run the backoff queue and everything behind it down.
        for shard in 0..shards {
            d.restore_shard(shard);
        }
        for client in clients {
            d.wasp().kernel().net_close(client).unwrap();
        }
        d.run_to_idle();
        assert_eq!(d.parked(), 0, "case {case}: runs left parked");
        conservation_holds(&d, &tenants, &admitted, &case);

        // Zero lost: the ledger balances with the bridge term drained.
        let g = d.stats();
        assert_eq!(
            g.submitted,
            g.served + g.shed(),
            "case {case}: conservation (served {}, evicted {})",
            g.served,
            g.shed_evicted,
        );
        assert_eq!(
            g.retried_in_flight, 0,
            "case {case}: backoff bridge not drained"
        );

        // Zero double-run: at most one completion per logical seq, and
        // exactly one per served request — a hedge loser or a stale
        // retry surfacing as a second completion fails here.
        let mut seqs: Vec<u64> = d.completions().iter().map(|c| c.seq).collect();
        let n = seqs.len();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs.len(),
            n,
            "case {case}: a logical request completed twice"
        );
        assert_eq!(n as u64, g.served, "case {case}: one completion per served");

        for &id in &tenants {
            let s = d.tenant_stats(id);
            assert_eq!(s.in_flight, 0, "case {case}");
            assert_eq!(
                s.submitted,
                s.served + s.shed(),
                "case {case}: tenant {} conservation",
                id.index()
            );
            assert_eq!(s.retried_in_flight, 0, "case {case}");
        }
    }
}

/// Tracing observes a run; it must never change one. The same seeded mix
/// of serves, door sheds (in-flight cap, rate limit), parks, and hedged
/// requests yields identical `submit` results, identical completion
/// streams (every field), and identical stats with tracing on and off —
/// in particular a door shed's
/// one-span trace must not consume a request sequence number. The one
/// stat left out is `blocked_cycles`: parked time is read off the shared
/// clock, which tracing's own calibrated span cost advances. Runs under
/// the [`CHURN_SEEDS`] matrix.
#[test]
fn tracing_never_renumbers_or_retimes_a_run() {
    for &seed in CHURN_SEEDS {
        let plain = traced_or_not(seed, false);
        let traced = traced_or_not(seed, true);
        let first_shed = plain.0.iter().position(|r| r.is_err());
        let first_shed = first_shed.expect("the mix must shed at the door");
        assert!(plain.0[first_shed..].iter().any(|r| r.is_ok()));
        assert_eq!(plain.0, traced.0, "seed {seed:#x}: submit results");
        assert_eq!(plain.1, traced.1, "seed {seed:#x}: completions");
        assert_eq!(plain.2, traced.2, "seed {seed:#x}: stats");
    }
}

/// One seeded submit/shed/serve mix; returns every `submit` result, the
/// completion stream rendered field by field, and the final stats.
fn traced_or_not(
    seed: u64,
    trace: bool,
) -> (
    Vec<Result<u64, vsched::ShedReason>>,
    Vec<String>,
    vsched::DispatcherStats,
) {
    let mut rng = Rng::seeded(seed);
    let mut d = Dispatcher::new(
        Wasp::new_kvm_default(),
        DispatcherConfig {
            shards: rng.below(3) + 1,
            ..DispatcherConfig::default()
        },
    );
    if trace {
        d.enable_tracing(64);
    }
    let img = visa::assemble(".org 0x8000\n mov r0, 3\n hlt\n").unwrap();
    let worker = d
        .register(VirtineSpec::new("w", img, MEM).with_snapshot(false))
        .unwrap();
    let consumer = recv_consumer(&mut d);
    // Clients of parked consumers, oldest first; a wake sends to the
    // oldest.
    let mut clients = std::collections::VecDeque::new();
    let tenants = [
        d.add_tenant(TenantProfile::new("capped").with_max_in_flight(1)),
        d.add_tenant(TenantProfile::new("limited").with_rate(2_000.0, 2.0)),
        d.add_tenant(
            TenantProfile::new("hedged")
                .with_mask(HypercallMask::ALLOW_ALL)
                .with_hedge(HedgePolicy::new().with_min_delay(Cycles::from_secs(0.0002))),
        ),
    ];

    // A burst at t = 0 overruns the in-flight cap before anything ran.
    let mut results: Vec<_> = (0..4)
        .map(|_| d.submit(Request::new(tenants[0], worker, 0.0)))
        .collect();
    let mut t = 0.0;
    for _ in 0..rng.below(40) + 40 {
        t += rng.range_f64(0.0, 0.0004);
        let tenant = tenants[rng.below(tenants.len())];
        let mut req = Request::new(tenant, worker, t);
        match rng.below(6) {
            1 if tenant == tenants[2] => {
                let (client, inv) = connect(&d);
                clients.push_back(client);
                req = Request::new(tenant, consumer, t).with_invocation(inv);
            }
            2 => {
                if let Some(client) = clients.pop_front() {
                    d.wasp().kernel().net_send(client, b"wake").unwrap();
                }
            }
            3 => d.run_until(t),
            _ => {}
        }
        results.push(d.submit(req));
    }
    for client in clients {
        d.wasp().kernel().net_close(client).unwrap();
    }
    d.run_to_idle();
    let completions = d.completions().iter().map(|c| format!("{c:?}")).collect();
    let stats = vsched::DispatcherStats {
        blocked_cycles: 0,
        ..d.stats()
    };
    (results, completions, stats)
}

/// Work conservation under an arbitrary tenant mix: submitted =
/// served + shed across every tenant, and the dispatcher totals agree
/// with the per-tenant totals.
#[test]
fn accounting_is_conserved_for_any_mix() {
    let mut rng = Rng::seeded(0xacc7);
    for case in 0..10 {
        let shards = rng.below(8) + 1;
        let tenants_n = rng.below(5) + 1;
        let mut d = Dispatcher::new(
            Wasp::new_kvm_default(),
            DispatcherConfig {
                shards,
                batch_size: rng.below(8) + 1,
                ..DispatcherConfig::default()
            },
        );
        let img = visa::assemble(".org 0x8000\n hlt\n").unwrap();
        let id = d
            .register(VirtineSpec::new("f", img, MEM).with_snapshot(false))
            .unwrap();
        let tenants: Vec<_> = (0..tenants_n)
            .map(|i| {
                let mut p = TenantProfile::new(format!("t{i}"));
                if rng.bool(0.5) {
                    p = p.with_rate(rng.range_f64(50.0, 500.0), 4.0);
                }
                if rng.bool(0.3) {
                    p = p.with_max_in_flight(rng.below(6) + 1);
                }
                d.add_tenant(p.with_priority(rng.below(4) as u8))
            })
            .collect();
        let n = rng.below(150) + 20;
        let mut arrivals: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 0.2)).collect();
        arrivals.sort_by(f64::total_cmp);
        for &t in &arrivals {
            let tenant = tenants[rng.below(tenants.len())];
            let _ = d.submit(Request::new(tenant, id, t));
        }
        d.run_to_idle();

        let g = d.stats();
        assert_eq!(g.submitted, n as u64, "case {case}");
        assert_eq!(g.admitted, g.served, "case {case}");
        assert_eq!(g.submitted, g.served + g.shed(), "case {case}");
        let mut sub = 0;
        let mut served = 0;
        let mut shed = 0;
        for &t in &tenants {
            let s = d.tenant_stats(t);
            assert_eq!(s.submitted, s.served + s.shed(), "case {case}");
            assert_eq!(s.in_flight, 0, "case {case}");
            sub += s.submitted;
            served += s.served;
            shed += s.shed();
        }
        assert_eq!(
            (sub, served, shed),
            (g.submitted, g.served, g.shed()),
            "case {case}"
        );
        assert_eq!(d.completions().len() as u64, g.served, "case {case}");
    }
}
