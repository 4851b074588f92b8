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
//! Expected shape: throughput scales ≥2× from 1 → 8 shards, the throttled
//! tenant's excess is shed at admission without touching the others, and
//! shed counts plus stolen-shell counts come straight from the dispatcher
//! stats surface.
//!
//! Writes `BENCH_dispatcher_scaling.json` for the CI gate; every number in
//! it is virtual time, so the committed baseline gates it exactly.

use bench::json::Obj;
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

struct RunResult {
    shards: usize,
    served: u64,
    throughput: f64,
    p50_ms: f64,
    p99_ms: f64,
    stolen: u64,
    free_served: u64,
    free_shed: u64,
    throttled_served: u64,
    throttled_shed: u64,
    bursty_served: u64,
}

fn run(shards: usize, arrivals: &[f64]) -> RunResult {
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
    RunResult {
        shards,
        served: d.stats().served,
        throughput: completions.len() as f64 / (last - first),
        p50_ms: stats::percentile(&lat_ms, 50.0),
        p99_ms: stats::percentile(&lat_ms, 99.0),
        stolen: d.stats().stolen,
        free_served: fs.served,
        free_shed: fs.shed(),
        throttled_served: ts.served,
        throttled_shed: ts.shed(),
        bursty_served: bs.served,
    }
}

fn main() {
    let host = bench::HostTimer::start();
    let scale = bench::trials(25) as f64 / 100.0;
    bench::header(
        "Dispatcher scaling: shards x tenant mix under the Figure 15 bursts",
        "throughput scales with shards; per-tenant rate limits shed the \
         abusive tenant without touching the others",
    );
    let arrivals = pattern_arrivals(&locust_pattern(), scale);
    println!(
        "# offered: {} requests over {:.2}s (scale {scale}, compression {COMPRESS}x, \
         peak ~{:.0} rps)",
        arrivals.len(),
        42.0 / COMPRESS,
        180.0 * COMPRESS * scale,
    );
    println!("shards   served  tput(req/s)    p50(ms)    p99(ms)   stolen | free s/shed throttled s/shed     bursty s");

    let mut by_shards = Vec::new();
    for shards in [1, 2, 4, 8] {
        let r = run(shards, &arrivals);
        println!(
            "{:>6} {:>8} {:>12.1} {:>10.3} {:>10.3} {:>8} | {:>7}/{:<4} {:>9}/{:<5} {:>12}",
            r.shards,
            r.served,
            r.throughput,
            r.p50_ms,
            r.p99_ms,
            r.stolen,
            r.free_served,
            r.free_shed,
            r.throttled_served,
            r.throttled_shed,
            r.bursty_served,
        );
        by_shards.push(r);
    }

    let one = &by_shards[0];
    let eight = &by_shards[by_shards.len() - 1];
    let speedup = eight.throughput / one.throughput;
    println!("#");
    println!("# 1 -> 8 shard throughput: {speedup:.2}x");
    // Below scale 0.25 the compressed pattern no longer saturates one
    // shard, so there is no queueing for sharding to relieve and the
    // speedup claim is vacuous — only assert it when the load binds.
    if scale >= 0.25 {
        assert!(
            speedup >= 2.0,
            "sharding must scale throughput >= 2x under the burst (got {speedup:.2}x)"
        );
    } else {
        println!(
            "# (scale {scale} < 0.25: load does not saturate one shard; speedup not asserted)"
        );
    }
    for r in &by_shards {
        assert_eq!(r.free_shed, 0, "unthrottled tenant must never be shed");
        assert!(
            r.throttled_shed > 0,
            "throttled tenant must hit its token bucket"
        );
        assert_eq!(
            r.free_served + r.throttled_served + r.bursty_served,
            r.served,
            "per-tenant stats must cover every served request"
        );
    }
    println!("# rate limits held; unthrottled tenants unaffected");

    let rows = by_shards.iter().map(|r| {
        Obj::new()
            .val("shards", r.shards)
            .val("served", r.served)
            .num("throughput_rps", r.throughput, 3)
            .num("p50_ms", r.p50_ms, 6)
            .num("p99_ms", r.p99_ms, 6)
            .val("stolen", r.stolen)
            .val("free_served", r.free_served)
            .val("free_shed", r.free_shed)
            .val("throttled_served", r.throttled_served)
            .val("throttled_shed", r.throttled_shed)
            .val("bursty_served", r.bursty_served)
    });
    let config = Obj::new()
        .val("scale", scale)
        .val("compress", COMPRESS)
        .val("throttle_rps", THROTTLE_RPS);
    let doc = Obj::new()
        .rows("runs", rows)
        .num("speedup", speedup, 4)
        .val("config", config);
    bench::write_artifact("dispatcher_scaling", doc, &host);
}
