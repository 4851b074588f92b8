//! Dispatcher scaling: shard count × tenant mix under the Figure 15 burst
//! pattern.
//!
//! The paper stops at one virtine client driving Wasp; this sweep shows
//! the `vsched` layer turning the same runtime into a traffic-serving
//! platform. The Locust pattern (§7.1: ramp, two bursts, ramp-down) is
//! time-compressed until one shard saturates, then replayed against
//! 1–8 shards with a three-tenant mix:
//!
//! * `free`      — unthrottled, the paying customer;
//! * `throttled` — token-bucketed at 50 rps, offered far more than that;
//! * `bursty`    — unthrottled but deprioritized (priority 0 vs 5).
//!
//! The row's checks: throughput scales ≥2× from 1 → 8 shards, and the
//! throttled tenant's excess is shed at admission without touching the
//! unthrottled one. Asserted in the run: the per-tenant stats cover every
//! served request. Shed and stolen-shell counts come straight from the
//! dispatcher stats surface; every number is virtual time, so the
//! committed baseline gates it exactly.

use crate::json::Obj;
use vclock::stats;
use vespid::load::{locust_pattern, pattern_arrivals};
use vespid::VespidPlatform;
use vsched::TenantProfile;
use wasp::HypercallMask;

/// Time-compression factor: the 42 s Locust pattern replayed in 42/C s,
/// multiplying every offered rate by C.
const COMPRESS: f64 = 400.0;

/// Token-bucket limit for the throttled tenant (requests per second).
const THROTTLE_RPS: f64 = 50.0;

/// Share of the full Locust pattern replayed: the least at which the
/// compressed bursts still saturate one shard, so sharding has queueing
/// to relieve.
const SCALE: f64 = 0.25;

/// One run at `shards` shards: its artifact row and its throughput.
fn run(shards: usize, arrivals: &[f64]) -> (Obj, f64) {
    let mut p = VespidPlatform::with_shards(4096, shards).expect("vespid engine");
    // The paying customer: unthrottled, priority 5 (the platform's own
    // default tenant sits at priority 0, so register a dedicated one).
    let free = p.add_tenant(
        TenantProfile::new("free")
            .with_mask(HypercallMask::ALLOW_ALL)
            .with_priority(5),
    );
    let throttled = p.add_tenant(
        TenantProfile::new("throttled")
            .with_rate(THROTTLE_RPS, 8.0)
            .with_mask(HypercallMask::ALLOW_ALL)
            .with_priority(5),
    );
    let bursty = p.add_tenant(
        TenantProfile::new("bursty")
            .with_mask(HypercallMask::ALLOW_ALL)
            .with_priority(0),
    );

    for (i, &t) in arrivals.iter().enumerate() {
        // Mix: 2 free : 1 throttled : 1 bursty.
        let tenant = match i % 4 {
            0 | 2 => free,
            1 => throttled,
            _ => bursty,
        };
        let _ = p.submit_for(tenant, t / COMPRESS);
    }
    p.dispatcher_mut().run_to_idle();

    let completions = p.dispatcher_mut().take_completions();
    for c in &completions {
        p.check(c);
    }
    let first = completions
        .iter()
        .map(|c| c.arrival)
        .fold(f64::MAX, f64::min);
    let last = completions.iter().map(|c| c.finish).fold(0.0f64, f64::max);
    let lat_ms: Vec<f64> = completions.iter().map(|c| c.latency() * 1e3).collect();
    let d = p.dispatcher();
    let (fs, ts, bs) = (
        d.tenant_stats(free),
        d.tenant_stats(throttled),
        d.tenant_stats(bursty),
    );
    let served = d.stats().served;
    assert_eq!(
        fs.served + ts.served + bs.served,
        served,
        "per-tenant stats must cover every served request"
    );
    let throughput = completions.len() as f64 / (last - first);
    let row = Obj::new()
        .val("shards", shards)
        .val("served", served)
        .num("throughput_rps", throughput, 3)
        .num("p50_ms", stats::percentile(&lat_ms, 50.0), 6)
        .num("p99_ms", stats::percentile(&lat_ms, 99.0), 6)
        .val("stolen", d.stats().stolen)
        .val("free_served", fs.served)
        .val("free_shed", fs.shed())
        .val("throttled_served", ts.served)
        .val("throttled_shed", ts.shed())
        .val("bursty_served", bs.served);
    (row, throughput)
}

/// Runs at 1, 2, 4 and 8 shards.
pub(super) fn measure() -> Obj {
    let arrivals = pattern_arrivals(&locust_pattern(), SCALE);
    let runs = [1, 2, 4, 8].map(|shards| run(shards, &arrivals));
    let speedup = runs[3].1 / runs[0].1;
    let config = Obj::new()
        .val("scale", SCALE)
        .val("compress", COMPRESS)
        .val("throttle_rps", THROTTLE_RPS);
    Obj::new()
        .rows("runs", runs.map(|r| r.0))
        .num("speedup", speedup, 4)
        .val("config", config)
}
