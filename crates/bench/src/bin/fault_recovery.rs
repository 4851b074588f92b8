//! Health-driven failover under the Figure 15-style mix: a detector — not
//! an operator, not a scripted kill — declares a wedged shard failed,
//! the evacuation/retry machinery loses nothing, hedges escape an
//! injected straggler, and half-open probes bring the shard back.
//!
//! The reliability claim on top of the paper's economics: because
//! isolation contexts are cheap to kill and re-create (Wanninger et
//! al., EuroSys '22), failure handling can be *transparent*. The only
//! fault injected here is a gray one — [`vsched::FaultPlan::hang_shard`]
//! wedges a shard without marking it failed. Everything downstream is
//! observed behavior: suspicion accrues from missing batch-tick
//! heartbeats, a probe confirms the silence, the detector drives the
//! existing `fail_shard → reconcile → re-admit` path, and recovery
//! probes restore the shard once it wakes. Meanwhile tail hedging
//! (delay derived from the tenant's observed p99) rescues requests
//! stuck behind a straggler that never trips the detector.
//!
//! Acceptance:
//! * zero lost runs: every admitted request is served or shed after
//!   admission, with the retry bridge term drained at quiesce
//!   ([`bench::scenario::ExactlyOnce`]);
//! * zero double-runs: every completion's logical sequence number is
//!   unique (hedge losers and stale retries are suppressed);
//! * the shard failure is detector-declared (`declared == 1`) and
//!   probe-restored (`restored == 1`) with `false_positives == 0` —
//!   the plan contains no `kill_shard` entry at all;
//! * hedging holds the straggler-mix p99 within 1.5× the no-straggler
//!   baseline, though the straggler wedges for 6× the baseline p99;
//! * the whole scenario replays bit-for-bit: two invocations with the
//!   same seed produce identical (seq, shard, finish) streams.
//!
//! Writes `BENCH_fault_recovery.json` for the CI gate.

use bench::json::Obj;
use bench::scenario::{self, ExactlyOnce, Mix, Phase, MEM};
use vclock::Cycles;
use vsched::{
    FaultPlan, HealthConfig, HealthStats, HedgePolicy, Placement, Request, RetryPolicy, ShardState,
    TenantProfile,
};
use wasp::VirtineSpec;

const SHARDS: usize = 4;

/// Steady cadence: one fast request every 100 µs of virtual time, with
/// a slow one riding along every `SLOW_EVERY` rounds — the mix has a
/// genuine tail for the hedge delay to be derived from.
const CADENCE_S: f64 = 0.0001;
const SLOW_EVERY: usize = 4;

const STEADY_ROUNDS: usize = 100;
const STRAGGLER_ROUNDS: usize = 150;
const FAILOVER_ROUNDS: usize = 130;

/// Detector randomness (probe jitter) — the replay gate runs the whole
/// scenario twice under this one seed.
const HEALTH_SEED: u64 = 0xFA17;

/// The straggler wedges for 500 µs at a time: long enough to strand
/// work (≈ 3× the slow service time), short enough that suspicion
/// never crosses the declare threshold — a tail problem, not a failure.
const STRAGGLER_SHARD: usize = 1;
const STRAGGLER_HANG_S: f64 = 0.0005;
const STRAGGLER_PERIOD_S: f64 = 0.003;
const STRAGGLER_WINDOWS: usize = 5;

/// The failover hang: 10 ms of silence on shard 2, an eternity against
/// the 500 µs heartbeat interval. No `kill_shard` is planned — the
/// detector alone turns the silence into a declared failure.
const FAILOVER_SHARD: usize = 2;
const FAILOVER_HANG_S: f64 = 0.010;

/// Phases settle for 2 ms: the slow function's tail drains before the
/// next phase starts.
const SETTLE_S: f64 = 0.002;

struct Outcome {
    phases: Vec<Phase>,
    ledger: ExactlyOnce,
    retries: u64,
    health: HealthStats,
}

fn run_scenario() -> Outcome {
    let mut d = scenario::dispatcher(SHARDS, Placement::LeastLoaded);
    d.set_health(HealthConfig::new().with_seed(HEALTH_SEED));
    // Hedge delay rides the observed p99 at a 0.25 multiplier (floored
    // at 30 µs): well under the tail it escapes, well over the fast
    // path it must not duplicate. Retry is armed so detector-driven
    // evacuation with no survivor would re-submit rather than shed.
    let tenant = d.add_tenant(
        TenantProfile::new("app")
            .with_hedge(
                HedgePolicy::new()
                    .with_quantile(0.99, 0.25)
                    .with_min_delay(Cycles::from_secs(0.00003)),
            )
            .with_retry(RetryPolicy::new()),
    );
    let fast = d
        .register(VirtineSpec::new("fast", scenario::snap_image(), MEM))
        .expect("register");
    let slow = d
        .register(VirtineSpec::new("slow", scenario::slow_image(), MEM).with_snapshot(false))
        .expect("register");
    d.prewarm(MEM, 2);

    // Warm-up: establish the fast function's snapshot and one slow
    // sample outside the measured phases.
    let mut t = 0.0;
    for _ in 0..4 {
        t += CADENCE_S;
        d.submit(Request::new(tenant, fast, t)).expect("admit");
    }
    t += CADENCE_S;
    d.submit(Request::new(tenant, slow, t)).expect("admit");
    scenario::settle(&mut d, &mut t, 0.001);
    d.take_completions();

    let mix = Mix {
        tenant,
        fast: vec![fast],
        slow: Some((slow, SLOW_EVERY)),
        cadence_s: CADENCE_S,
    };
    let phase = |d: &mut _, t: &mut _, label, rounds| {
        Phase::record(d, t, label, SETTLE_S, |d, t| mix.drive(d, t, rounds))
    };

    // Steady state: the no-straggler baseline the hedge gate compares
    // against.
    let steady = phase(&mut d, &mut t, "steady", STEADY_ROUNDS);

    // Straggler: shard 1 wedges periodically — a gray failure the
    // detector must NOT declare (suspicion stays under threshold) and
    // hedging must absorb.
    let mut plan = FaultPlan::new();
    for k in 0..STRAGGLER_WINDOWS {
        plan = plan.hang_shard(
            Cycles::from_secs(t + 0.0005 + k as f64 * STRAGGLER_PERIOD_S),
            STRAGGLER_SHARD,
            Cycles::from_secs(STRAGGLER_HANG_S),
        );
    }
    d.set_fault_plan(plan);
    let straggler = phase(&mut d, &mut t, "straggler", STRAGGLER_ROUNDS);
    let declared_after_straggler = d.health_stats().expect("detector installed").declared;

    // Failover: shard 2 goes silent for 10 ms. The detector declares it
    // (probe-confirmed), evacuation re-homes its queue, and once the
    // hang lifts, half-open probes restore it — no operator calls.
    d.set_fault_plan(FaultPlan::new().hang_shard(
        Cycles::from_secs(t + 0.001),
        FAILOVER_SHARD,
        Cycles::from_secs(FAILOVER_HANG_S),
    ));
    let failover = phase(&mut d, &mut t, "failover", FAILOVER_ROUNDS);
    assert_eq!(
        d.shard_state(FAILOVER_SHARD),
        ShardState::Active,
        "the detector must have probed the recovered shard back in"
    );
    assert!(
        d.reconcile().is_empty(),
        "a restored fleet has nothing to reconcile"
    );

    d.run_to_idle();
    let s = d.stats();
    assert_eq!(
        declared_after_straggler, 0,
        "the straggler is a tail problem, not a failure — no declaration"
    );

    let phases = vec![steady, straggler, failover];
    Outcome {
        ledger: ExactlyOnce::of(&s, phases.iter().flat_map(|ph| &ph.completions)),
        phases,
        retries: s.retries_queued,
        health: d.health_stats().expect("detector installed"),
    }
}

fn main() {
    let host = bench::HostTimer::start();
    bench::header(
        "Health-driven failover: detector-declared failure, hedged straggler, probe-driven restore",
        "a wedged shard is declared failed from observed silence alone, its \
         work is recovered exactly once, hedges escape a straggler that never \
         trips the detector, and the whole scenario replays bit-for-bit",
    );
    println!(
        "# fast fn at {:.0} µs cadence (+ slow fn every {SLOW_EVERY} rounds) on {SHARDS} shards; \
         {STEADY_ROUNDS} steady / {STRAGGLER_ROUNDS} straggler / {FAILOVER_ROUNDS} failover rounds; \
         straggler hangs {}x{:.0} µs, failover hang {:.0} ms",
        CADENCE_S * 1e6,
        STRAGGLER_WINDOWS,
        STRAGGLER_HANG_S * 1e6,
        FAILOVER_HANG_S * 1e3,
    );

    // Replay fingerprint: every completion as (seq, shard, finish bits).
    let run = scenario::replay_twice(run_scenario, |o| {
        let all = o.phases.iter().flat_map(|ph| &ph.completions);
        all.map(|c| (c.seq, c.shard, c.finish.to_bits()))
            .collect::<Vec<_>>()
    });
    let hedges_fired = |ph: &Phase| ph.delta(|s| s.hedges_fired);
    let hedges_won = |ph: &Phase| ph.delta(|s| s.hedges_won);

    println!("phase        | served    p99(µs)   hedged      won");
    for ph in &run.phases {
        println!(
            "{:<12} | {:>6} {:>10.2} {:>8} {:>8}",
            ph.label,
            ph.delta(|s| s.served),
            ph.p99_us(),
            hedges_fired(ph),
            hedges_won(ph)
        );
    }
    let [steady, straggler, failover] = &run.phases[..] else {
        unreachable!("three phases")
    };
    let h = &run.health;
    let p99_factor = straggler.p99_us() / steady.p99_us();
    println!("#");
    println!(
        "# lost {}, duplicates {}, retries {}; detector declared {} restored {} \
         false-positives {} (probes {}); straggler p99 ×{p99_factor:.2}; replay ok",
        run.ledger.lost,
        run.ledger.duplicates,
        run.retries,
        h.declared,
        h.restored,
        h.false_positives,
        h.probes,
    );

    // Acceptance.
    assert_eq!(run.ledger.lost, 0, "failover lost runs");
    assert_eq!(
        run.ledger.duplicates, 0,
        "a logical request completed twice"
    );
    assert_eq!(
        h.declared, 1,
        "exactly the hung shard must be declared failed — by the detector, \
         not the fault plan"
    );
    assert_eq!(h.restored, 1, "the recovered shard must be probed back in");
    assert_eq!(h.false_positives, 0, "the detector paged on a live shard");
    assert!(
        hedges_won(straggler) > 0,
        "hedges must actually rescue straggler-stranded work"
    );
    assert!(
        p99_factor <= 1.5,
        "hedging must hold the straggler-mix p99 within 1.5× the baseline \
         (got ×{p99_factor:.2})"
    );

    let phase = |ph: &Phase| {
        let obj = Obj::new().val("served", ph.delta(|s| s.served));
        obj.num("p99_us", ph.p99_us(), 4)
    };
    let steady_row = phase(steady).val("hedges_fired", hedges_fired(steady));
    let straggler_row = phase(straggler)
        .val("hedges_fired", hedges_fired(straggler))
        .val("hedges_won", hedges_won(straggler))
        .num("p99_factor", p99_factor, 4);
    let failover_row = phase(failover).val("hedges_won", hedges_won(failover));
    let config = Obj::new()
        .val("shards", SHARDS)
        .val("cadence_s", CADENCE_S)
        .val("slow_every", SLOW_EVERY)
        .val("steady_rounds", STEADY_ROUNDS)
        .val("straggler_rounds", STRAGGLER_ROUNDS)
        .val("failover_rounds", FAILOVER_ROUNDS)
        .val("health_seed", HEALTH_SEED);
    let doc = Obj::new()
        .val("lost", run.ledger.lost)
        .val("duplicates", run.ledger.duplicates)
        .val("retries", run.retries)
        .val("detector", scenario::detector(h))
        .val("steady", steady_row)
        .val("straggler", straggler_row)
        .val("failover", failover_row)
        .val("config", config);
    bench::write_artifact("fault_recovery", doc, &host);
}
