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
//!    a cache-hostile mix? A heavy tenant concentrates three functions on
//!    one shard, five steady tenants hold one each, and a churning "hog"
//!    cycles six. Fixed per-pool capacity thrashes the heavy tenant while
//!    other pools sit half empty; a bare global budget lets the hog's
//!    churn claim it; a quota of 3 makes the hog evict *itself*, so the
//!    others keep hitting — under a budget of 11 resident shells, below
//!    the fixed configuration's 16.
//!
//! The row's checks are part 2's; part 1's per-phase counters are not in
//! the artifact, so the near-first ladder is asserted in the run.

use super::mix::{self, MEM};
use crate::json::Obj;
use vsched::{
    BlockMode, Dispatcher, DispatcherConfig, Placement, Request, TenantProfile, Topology,
};
use wasp::{HypercallMask, Invocation, VirtineSpec, Wasp};

/// The global warm budget of the two policy runs: a hard residency
/// ceiling.
pub(super) const BUDGET: usize = 11;

fn dispatcher(config: DispatcherConfig) -> Dispatcher {
    Dispatcher::new(Wasp::new_kvm_default(), config)
}

/// A connection-bound spec: blocking-recvs and halts — parks forever,
/// keeping its shell inside the suspension so every acquire must steal.
fn blocking_recv_spec() -> VirtineSpec {
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
    .expect("assemble");
    VirtineSpec::new("parked", img, MEM)
        .with_policy(HypercallMask::allowing(&[wasp::nr::RECV]))
        .with_snapshot(false)
}

/// Part 1: drain the supply ladder. Shard 0 is the thief; supply is 2
/// shells on the CCX sibling (1), 1 each on the same-socket shards (2, 3),
/// and 2 on cross-socket shard 4.
fn steal_ladder() -> Obj {
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
    assert_eq!(d.parked(), 6, "every request parked holding a stolen shell");
    assert_eq!(
        phases,
        vec![(2, 0, 0), (2, 2, 0), (2, 2, 2)],
        "steals must resolve strictly near-first"
    );
    let s = d.stats();
    Obj::new()
        .val("same_ccx", s.stolen_same_ccx)
        .val("cross_ccx", s.stolen_cross_ccx)
        .val("cross_socket", s.stolen_cross_socket)
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
    label: &str,
    warm_capacity: usize,
    warm_budget: Option<usize>,
    warm_tenant_quota: Option<usize>,
) -> Obj {
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
    let img = mix::snap_image();
    // Tenant index = home shard under ByTenant: heavy → 0, steady → 1-5,
    // hog → 6.
    let heavy = d.add_tenant(TenantProfile::new("heavy"));
    let register = |d: &mut Dispatcher, name| mix::register(d, name, img.clone());
    let heavy_fns: Vec<_> = (0..HEAVY_FNS)
        .map(|i| register(&mut d, format!("heavy{i}")))
        .collect();
    let steady: Vec<_> = (0..STEADY)
        .map(|i| {
            let t = d.add_tenant(TenantProfile::new(format!("steady{i}")));
            (t, register(&mut d, format!("steady{i}")))
        })
        .collect();
    let hog = d.add_tenant(TenantProfile::new("hog"));
    let hog_fns: Vec<_> = (0..HOG_FNS)
        .map(|i| register(&mut d, format!("hog{i}")))
        .collect();
    // Provisioned clean shells: residency is bounded by policy, not by
    // shell scarcity.
    d.prewarm(MEM, 2);

    // Each round: the heavy tenant's functions, each steady tenant's, then
    // every hog function in turn, 100 µs apart.
    let heavy_round = heavy_fns.iter().map(|&v| (heavy, v));
    let hog_round = hog_fns.iter().map(|&v| (hog, v));
    let round: Vec<_> = heavy_round
        .chain(steady.iter().copied())
        .chain(hog_round)
        .collect();
    let mut t = 0.0;
    let mut max_resident = 0;
    for _ in 0..ROUNDS {
        for &(tenant, virtine) in &round {
            t += 0.0001;
            d.submit(Request::new(tenant, virtine, t)).expect("admit");
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
    let heavy_hit_rate = hs.warm_serves as f64 / hs.served as f64;
    let steady_hit_rate = steady_warm as f64 / steady_served as f64;
    let p50_ms = crate::hist_percentile_ms(&crate::latency_histogram(&lat_s), 50.0);
    Obj::new()
        .str("label", label)
        .num("heavy_hit_rate", heavy_hit_rate, 6)
        .num("steady_hit_rate", steady_hit_rate, 6)
        .num("overall_hit_rate", d.stats().warm_hit_rate(), 6)
        .num("p50_ms", p50_ms, 6)
        .val("max_resident", max_resident)
}

/// The steal ladder, then fixed per-pool capacity, a bare global budget,
/// and budget + quota.
pub(super) fn measure() -> Obj {
    let steal = steal_ladder();
    let warm = [
        warm_run("fixed cap 2/pool", 2, None, None),
        warm_run("budget 11", 2, Some(BUDGET), None),
        warm_run("budget 11 + quota 3", 2, Some(BUDGET), Some(3)),
    ];
    Obj::new().val("steal", steal).rows("warm", warm)
}
