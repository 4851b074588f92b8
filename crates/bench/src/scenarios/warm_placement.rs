//! Warm-shell snapshot cache × snapshot-aware placement, under the
//! Figure 15 burst pattern.
//!
//! Two questions, two parts:
//!
//! 1. **Micro**: how close does a warm-hit acquire+re-arm land to the bare
//!    `vmrun` floor the paper targets (§5.2: pooling + snapshotting puts
//!    provisioning "within 4% of a bare vmrun")? The warm path copies only
//!    the dirty-page delta of the previous invocation, so for a
//!    small-dirty-footprint virtine it must sit within 2x of
//!    `kvm_run_round_trip()` — versus the full sparse-snapshot memcpy the
//!    cold (clean-shell) path pays.
//! 2. **Macro**: does snapshot-aware placement in `vsched` convert that
//!    micro win into platform-level latency? The Locust pattern (§7.1:
//!    ramp, two bursts, ramp-down) is time-compressed until the bursts
//!    saturate the shards, with six tenants round-robined over their own
//!    snapshotted virtines, and replayed against a sweep of warm-cache
//!    size × placement policy at 4 and 8 shards.
//!
//! The row's checks: the warm hit's acquire+image sits at or under 2x
//! the vmrun floor and below the full restore; at 4 and 8 shards and each
//! warm capacity, snapshot-aware placement achieves a strictly higher
//! warm-hit rate than least-loaded placement with the same warm cache,
//! and a strictly lower p50 than the least-loaded baseline without one.
//! With least-loaded placement the warm cache can even backfire
//! (empty-queue placement alternates shards and each landing
//! demote-steals the *other* shard's warm shell). Asserted in the run:
//! the micro runs take the paths they measure, and every virtine exits
//! normally.

use crate::json::Obj;
use vclock::{costs, stats};
use vespid::load::{locust_pattern, pattern_arrivals};
use vsched::{Dispatcher, DispatcherConfig, Placement, Request, TenantProfile};
use wasp::{Invocation, VirtineSpec, Wasp, WaspConfig};

/// Time-compression factor for the 42 s Locust pattern.
const COMPRESS: f64 = 4_000.0;

/// Pattern scale (fraction of the full request count, same shape).
const SCALE: f64 = 0.5;

/// Tenants in the mix, each with its own snapshotted virtine.
const TENANTS: usize = 6;

/// Guest memory per virtine.
const MEM: usize = 256 * 1024;

/// The benchmark virtine: a fat init footprint (48 KiB written before the
/// snapshot point, so the full sparse restore is tens of microseconds),
/// then a small per-invocation footprint (the args page plus one store).
fn snap_image() -> visa::asm::Image {
    wasp::hypercall::assemble(
        "
.org 0x8000
  mov r1, 0x10000
  mov r2, 0
fill:
  store.q [r1], r2
  add r1, 8
  add r2, 1
  cmp r2, 6144
  jl fill
  mov r0, HC_SNAPSHOT
  out HC_PORT, r0
  mov r4, 0
  load.q r5, [r4]      ; arg
  mov r6, 0x12000
  store.q [r6], r5     ; one-page per-invocation footprint
  mov r0, r5
  add r0, 1
  hlt
",
    )
    .expect("assemble")
}

/// Part 1: warm-hit acquire+image versus the full-sparse-restore cold path.
fn micro() -> Obj {
    let run_pair = |warm_capacity: usize| {
        let w = Wasp::new(
            kvmsim::Hypervisor::kvm(hostsim::HostKernel::new(vclock::Clock::new(), None)),
            WaspConfig {
                warm_capacity,
                ..WaspConfig::default()
            },
        );
        let id = w
            .register(VirtineSpec::new("bench", snap_image(), MEM))
            .expect("register");
        let run = |i: u64| w.run(id, &i.to_le_bytes(), Invocation::default());
        // The first run is cold. Steady state: the repeats all take the
        // same fast path; run a few to confirm and report the last.
        (1..5).for_each(|i| drop(run(i).expect("run")));
        run(5).expect("run")
    };

    let warm = run_pair(wasp::DEFAULT_WARM_CAPACITY);
    assert!(warm.breakdown.warm_hit, "repeat run must warm-hit");
    let full = run_pair(0);
    assert!(
        full.breakdown.restored_snapshot && !full.breakdown.warm_hit,
        "warm-disabled repeat run must pay the full sparse restore"
    );
    let acquire_image = |b: &wasp::Breakdown| (b.acquire + b.image).get();
    Obj::new()
        .val("warm_acquire_image_cycles", acquire_image(&warm.breakdown))
        .val("full_acquire_image_cycles", acquire_image(&full.breakdown))
        .val("delta_pages", warm.breakdown.delta_pages)
        .val("ceiling_2x_vmrun", 2 * costs::kvm_run_round_trip())
}

/// Part 2: one Figure 15 replay through the dispatcher.
fn macro_run(
    label: &str,
    shards: usize,
    warm_capacity: usize,
    placement: Placement,
    arrivals: &[f64],
) -> Obj {
    let mut d = Dispatcher::new(
        Wasp::new_kvm_default(),
        DispatcherConfig {
            shards,
            warm_capacity,
            placement,
            // A 5 µs tick so batching quantization stays below the
            // restore-cost differences under study.
            tick: vclock::Cycles::from_micros(5.0),
            ..DispatcherConfig::default()
        },
    );
    let img = snap_image();
    let tenants: Vec<_> = (0..TENANTS)
        .map(|i| {
            let id = d
                .register(VirtineSpec::new(format!("fn{i}"), img.clone(), MEM))
                .expect("register");
            let t = d.add_tenant(TenantProfile::new(format!("tenant{i}")));
            (t, id)
        })
        .collect();
    // A provisioned platform fronts the burst with prewarmed shells (§5.2,
    // "warm-up before a burst"); without them a single shell would serve
    // the whole replay by migrating between shards, and every config would
    // measure steal traffic instead of placement quality.
    d.prewarm(MEM, TENANTS);

    for (i, &t) in arrivals.iter().enumerate() {
        let (tenant, virtine) = tenants[i % TENANTS];
        d.submit(
            Request::new(tenant, virtine, t / COMPRESS).with_args((i as u64).to_le_bytes().into()),
        )
        .expect("unthrottled tenants admit");
    }
    d.run_to_idle();

    let completions = d.take_completions();
    for c in &completions {
        assert!(c.exit_normal, "virtine failed under {label}");
    }
    let lat_ms: Vec<f64> = completions.iter().map(|c| c.latency() * 1e3).collect();
    let s = d.stats();
    let placement = match placement {
        Placement::SnapshotAware => "snapshot-aware",
        Placement::LeastLoaded => "least-loaded",
        Placement::ByTenant => "by-tenant",
    };
    // Acquire-path demotions and pool-internal LRU evictions disjointly
    // partition all warm-shell demotions.
    Obj::new()
        .str("label", label)
        .val("shards", shards)
        .val("warm_capacity", warm_capacity)
        .str("placement", placement)
        .val("served", s.served)
        .num("p50_ms", stats::percentile(&lat_ms, 50.0), 6)
        .num("p99_ms", stats::percentile(&lat_ms, 99.0), 6)
        .num("warm_hit_rate", s.warm_hit_rate(), 6)
        .val("warm_demotions", d.pool_stats().warm_demoted)
        .val("stolen", s.stolen)
        .val("created", d.pool_stats().created)
}

/// The micro pair, then the macro sweep: at 4 and then 8 shards, the
/// no-warm baseline, then least-loaded and snapshot-aware placement at
/// warm capacity 1, 2 and 8.
pub(super) fn measure() -> Obj {
    let micro = micro();
    let arrivals = pattern_arrivals(&locust_pattern(), SCALE);
    let mut runs = Vec::new();
    for shards in [4, 8] {
        runs.push(macro_run(
            "baseline",
            shards,
            0,
            Placement::LeastLoaded,
            &arrivals,
        ));
        for cap in [1, 2, 8] {
            let ll = Placement::LeastLoaded;
            runs.push(macro_run("least-loaded+warm", shards, cap, ll, &arrivals));
            let aware = Placement::SnapshotAware;
            runs.push(macro_run("snapshot-aware", shards, cap, aware, &arrivals));
        }
    }
    Obj::new().val("micro", micro).rows("macro", runs)
}
