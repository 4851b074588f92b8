//! Topology-aware placement: near-first steal resolution and the
//! cross-shard warm budget/quota policy, at 8 shards over 2 sockets.
//!
//! Two questions, two parts:
//!
//! 1. **Steal distance**: when a shard runs dry under skewed load, do its
//!    steals drain the CCX sibling first, then the same-socket shards,
//!    and only then cross the interconnect? Six blocking-recv virtines
//!    park on shard 0 holding their shells (each acquire must steal), in
//!    three phases sized to the supply at each distance — the
//!    distance-classed steal counters must fill strictly near-to-far.
//!
//! 2. **Warm sizing**: does the engine's global-budget + per-tenant-quota
//!    policy beat the fixed per-pool LRU capacity on warm-hit rate under
//!    a cache-hostile mix? Six steady tenants (one snapshotted function
//!    each) share the platform with one churning "hog" cycling 12
//!    functions. Fixed per-pool capacity lets the hog's parks evict the
//!    steady tenants' warm shells wherever they co-reside; a quota of 2
//!    makes the hog evict *itself*, so the steady tenants keep hitting —
//!    with the budget capping total residency at *half* the fixed
//!    configuration's worst case.
//!
//! Writes `BENCH_topology_steal.json` for the CI regression gate.

use bench::json::Obj;
use bench::scenario::{self, MEM};
use vsched::{
    BlockMode, Dispatcher, DispatcherConfig, Placement, Request, TenantProfile, Topology,
};
use wasp::{HypercallMask, Invocation, VirtineSpec, Wasp};

fn dispatcher(config: DispatcherConfig) -> Dispatcher {
    Dispatcher::new(Wasp::new_kvm_default(), config)
}

/// A connection-bound spec: blocking-recvs and halts — parks forever,
/// keeping its shell inside the suspension so every acquire must steal.
fn blocking_recv_spec() -> VirtineSpec {
    let img = visa::assemble(
        "
.org 0x8000
  mov r0, 7            ; recv
  mov r1, 0x4000
  mov r2, 64
  mov r3, 0            ; flags: blocking
  out 0x1, r0
  hlt
",
    )
    .expect("assemble");
    VirtineSpec::new("parked", img, MEM)
        .with_policy(HypercallMask::allowing(&[wasp::nr::RECV]))
        .with_snapshot(false)
}

struct StealLadder {
    same_ccx: u64,
    cross_ccx: u64,
    cross_socket: u64,
    /// Distance-class counters after each phase: the near-first proof.
    phases: Vec<(u64, u64, u64)>,
}

/// Part 1: drain the supply ladder. Shard 0 is the thief; supply is 2
/// shells on the CCX sibling (1), 1 each on the same-socket shards (2, 3),
/// and 2 on cross-socket shard 4.
fn steal_ladder() -> StealLadder {
    let mut d = dispatcher(DispatcherConfig {
        shards: 8,
        placement: Placement::ByTenant,
        topology: Some(Topology::grouped(2, 2, 2)),
        block: BlockMode::EventDriven,
        ..DispatcherConfig::default()
    });
    let blocked = d.register(blocking_recv_spec()).expect("register");
    let tenant = d.add_tenant(TenantProfile::new("skewed").with_mask(HypercallMask::ALLOW_ALL));
    d.prewarm_shard(1, MEM, 2);
    d.prewarm_shard(2, MEM, 1);
    d.prewarm_shard(3, MEM, 1);
    d.prewarm_shard(4, MEM, 2);

    let mut phases = Vec::new();
    let mut t = 0.0;
    let mut port = 100u16;
    // Phase sizes match the supply at each distance class.
    for phase in [2usize, 2, 2] {
        for _ in 0..phase {
            let k = d.wasp().kernel();
            k.net_listen(port).expect("listen");
            let _client = k.net_connect(port).expect("connect");
            let server = k.net_accept(port).expect("accept").expect("pending");
            port += 1;
            t += 0.001;
            d.submit(
                Request::new(tenant, blocked, t).with_invocation(Invocation::with_conn(server)),
            )
            .expect("admit");
            d.run_until(t + 0.0005);
        }
        let s = d.stats();
        phases.push((s.stolen_same_ccx, s.stolen_cross_ccx, s.stolen_cross_socket));
    }
    let s = d.stats();
    assert_eq!(d.parked(), 6, "every request parked holding a stolen shell");
    StealLadder {
        same_ccx: s.stolen_same_ccx,
        cross_ccx: s.stolen_cross_ccx,
        cross_socket: s.stolen_cross_socket,
        phases,
    }
}

struct WarmRun {
    label: &'static str,
    heavy_hit_rate: f64,
    steady_hit_rate: f64,
    overall_hit_rate: f64,
    p50_ms: f64,
    max_resident: usize,
}

/// Part 2: one replay of the concentration-vs-churn mix under a
/// warm-capacity policy. Tenants home by index (ByTenant): a *heavy*
/// tenant whose three functions all land on shard 0 (more keys than the
/// fixed per-pool capacity — the classic 3-keys-over-2-LRU-slots cycle
/// that never hits), five steady single-function tenants on shards 1-5,
/// and a *hog* cycling six functions on shard 6. The fixed per-pool
/// bound thrashes the heavy tenant while five pools sit half empty; a
/// global budget lets shard 0 hold all three keys, and the per-tenant
/// quota stops the hog's churn from claiming the budget.
fn warm_run(
    label: &'static str,
    warm_capacity: usize,
    warm_budget: Option<usize>,
    warm_tenant_quota: Option<usize>,
) -> WarmRun {
    const HEAVY_FNS: usize = 3;
    const STEADY: usize = 5;
    const HOG_FNS: usize = 6;
    const ROUNDS: usize = 25;

    let mut d = dispatcher(DispatcherConfig {
        shards: 8,
        placement: Placement::ByTenant,
        topology: Some(Topology::grouped(2, 2, 2)),
        warm_capacity,
        warm_budget,
        warm_tenant_quota,
        tick: vclock::Cycles::from_micros(5.0),
        ..DispatcherConfig::default()
    });
    let img = scenario::snap_image();
    // Tenant index = home shard under ByTenant: heavy → 0, steady → 1-5,
    // hog → 6.
    let heavy = d.add_tenant(TenantProfile::new("heavy"));
    let heavy_fns: Vec<_> = (0..HEAVY_FNS)
        .map(|i| {
            d.register(VirtineSpec::new(format!("heavy{i}"), img.clone(), MEM))
                .expect("register")
        })
        .collect();
    let steady: Vec<_> = (0..STEADY)
        .map(|i| {
            let t = d.add_tenant(TenantProfile::new(format!("steady{i}")));
            let v = d
                .register(VirtineSpec::new(format!("steady{i}"), img.clone(), MEM))
                .expect("register");
            (t, v)
        })
        .collect();
    let hog = d.add_tenant(TenantProfile::new("hog"));
    let hog_fns: Vec<_> = (0..HOG_FNS)
        .map(|i| {
            d.register(VirtineSpec::new(format!("hog{i}"), img.clone(), MEM))
                .expect("register")
        })
        .collect();
    // Provisioned clean shells: residency is bounded by policy, not by
    // shell scarcity.
    d.prewarm(MEM, 2);

    let mut t = 0.0;
    let mut hog_next = 0;
    let mut max_resident = 0;
    for _ in 0..ROUNDS {
        for &virtine in &heavy_fns {
            t += 0.0001;
            d.submit(Request::new(heavy, virtine, t)).expect("admit");
        }
        for &(tenant, virtine) in &steady {
            t += 0.0001;
            d.submit(Request::new(tenant, virtine, t)).expect("admit");
        }
        for _ in 0..HOG_FNS {
            t += 0.0001;
            d.submit(Request::new(hog, hog_fns[hog_next % HOG_FNS], t))
                .expect("admit");
            hog_next += 1;
        }
        d.run_to_idle();
        max_resident = max_resident.max(d.warm_resident());
    }

    let completions = d.take_completions();
    let lat_s: Vec<f64> = completions.iter().map(|c| c.latency()).collect();
    let (mut steady_warm, mut steady_served) = (0u64, 0u64);
    for &(tenant, _) in &steady {
        let ts = d.tenant_stats(tenant);
        steady_warm += ts.warm_serves;
        steady_served += ts.served;
    }
    let hs = d.tenant_stats(heavy);
    WarmRun {
        label,
        heavy_hit_rate: hs.warm_serves as f64 / hs.served as f64,
        steady_hit_rate: steady_warm as f64 / steady_served as f64,
        overall_hit_rate: d.stats().warm_hit_rate(),
        p50_ms: bench::hist_percentile_ms(&bench::latency_histogram(&lat_s), 50.0),
        max_resident,
    }
}

fn main() {
    let host = bench::HostTimer::start();
    bench::header(
        "Topology-aware placement: near-first steals + warm budget/quota (8 shards, 2 sockets)",
        "steals drain same-CCX, then same-socket, then cross-socket donors; \
         a global warm budget + per-tenant quotas beat fixed per-pool LRU \
         capacity on hit rate under a concentrated working set",
    );

    // Part 1: the steal-distance ladder.
    let ladder = steal_ladder();
    println!("# steal ladder: supply 2 same-CCX / 2 same-socket / 2 cross-socket shells");
    println!("phase                         same_ccx  cross_ccx  cross_socket");
    for (i, &(a, b, c)) in ladder.phases.iter().enumerate() {
        println!(
            "{:<28} {a:>9} {b:>10} {c:>13}",
            format!("after {} steals", 2 * (i + 1))
        );
    }
    assert_eq!(
        ladder.phases,
        vec![(2, 0, 0), (2, 2, 0), (2, 2, 2)],
        "steals must resolve strictly near-first"
    );
    assert_eq!(
        (ladder.same_ccx, ladder.cross_ccx, ladder.cross_socket),
        (2, 2, 2)
    );
    println!("# near donors drained before far ones at every phase");

    // Part 2: warm sizing policy — fixed per-pool LRU, a bare global
    // budget, and budget + quota. The fixed baseline may keep up to 16
    // shells resident (2 × 8 pools); both policy runs are capped at 11.
    let fixed = warm_run("fixed cap 2/pool", 2, None, None);
    let bare = warm_run("budget 11", 2, Some(11), None);
    let quota = warm_run("budget 11 + quota 3", 2, Some(11), Some(3));
    println!("#");
    println!(
        "# warm sizing: heavy tenant (3 fns, one shard) + 5 steady + 1 hog \
         cycling 6 fns, 25 rounds"
    );
    println!("policy                  heavy-hit  steady-hit  overall-hit   p50(ms)  max-resident");
    for r in [&fixed, &bare, &quota] {
        println!(
            "{:<22} {:>9.1}% {:>10.1}% {:>11.1}% {:>9.4} {:>13}",
            r.label,
            r.heavy_hit_rate * 100.0,
            r.steady_hit_rate * 100.0,
            r.overall_hit_rate * 100.0,
            r.p50_ms,
            r.max_resident,
        );
    }
    assert!(
        quota.heavy_hit_rate > fixed.heavy_hit_rate,
        "the global budget must un-thrash the heavy tenant: {:.3} vs {:.3}",
        quota.heavy_hit_rate,
        fixed.heavy_hit_rate
    );
    assert!(
        quota.overall_hit_rate > fixed.overall_hit_rate,
        "budget+quota must beat fixed per-pool capacity overall: {:.3} vs {:.3}",
        quota.overall_hit_rate,
        fixed.overall_hit_rate
    );
    assert!(
        quota.overall_hit_rate > bare.overall_hit_rate
            && quota.steady_hit_rate > bare.steady_hit_rate,
        "the quota is what keeps the hog's churn out of the budget: \
         overall {:.3} vs {:.3}",
        quota.overall_hit_rate,
        bare.overall_hit_rate
    );
    assert!(
        quota.max_resident <= 11 && bare.max_resident <= 11,
        "the budget is a hard residency ceiling: {} / {} vs 11",
        quota.max_resident,
        bare.max_resident
    );
    println!("# warm budget + tenant quota beat fixed per-pool capacity on hit rate");

    // JSON artifact for the CI regression gate.
    let steal = Obj::new()
        .val("same_ccx", ladder.same_ccx)
        .val("cross_ccx", ladder.cross_ccx)
        .val("cross_socket", ladder.cross_socket);
    let warm = [&fixed, &bare, &quota].map(|r| {
        Obj::new()
            .str("label", r.label)
            .num("heavy_hit_rate", r.heavy_hit_rate, 6)
            .num("steady_hit_rate", r.steady_hit_rate, 6)
            .num("overall_hit_rate", r.overall_hit_rate, 6)
            .num("p50_ms", r.p50_ms, 6)
            .val("max_resident", r.max_resident)
    });
    let doc = Obj::new().val("steal", steal).rows("warm", warm);
    bench::write_artifact("topology_steal", doc, &host);
}
