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
//! The row's checks:
//! * zero lost runs: every admitted request is served or shed after
//!   admission, with the retry bridge term drained at quiesce
//!   ([`ExactlyOnce`]);
//! * zero double-runs: every completion's logical sequence number is
//!   unique (hedge losers and stale retries are suppressed);
//! * the shard failure is detector-declared (`declared == 1`) and
//!   probe-restored (`restored == 1`) with `false_positives == 0` —
//!   the plan contains no `kill_shard` entry at all;
//! * hedging wins straggler-stranded work and holds the straggler-mix
//!   p99 within 1.5× the no-straggler baseline, though the straggler
//!   wedges for 6× the baseline p99.
//!
//! Asserted in the run: the straggler is never declared, the recovered
//! shard is active with nothing to reconcile, and the whole scenario
//! replays bit-for-bit: two invocations with the same seed produce
//! identical (seq, shard, finish) streams.

use super::mix::{self, ExactlyOnce, Mix, Phase, MEM};
use crate::json::Obj;
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
    phases: [Phase; 3],
    ledger: ExactlyOnce,
    retries: u64,
    health: HealthStats,
}

fn run_scenario() -> Outcome {
    let mut d = mix::dispatcher(SHARDS, Placement::LeastLoaded);
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
    let fast = mix::register(&mut d, "fast", mix::snap_image());
    let slow = d
        .register(VirtineSpec::new("slow", mix::slow_image(), MEM).with_snapshot(false))
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
    mix::settle(&mut d, &mut t, 0.001);
    d.take_completions();

    let mix = Mix {
        tenant,
        fast: vec![fast],
        slow: Some((slow, SLOW_EVERY)),
        cadence_s: CADENCE_S,
    };

    // Steady state: the no-straggler baseline the hedge gate compares
    // against.
    let steady = mix.phase(&mut d, &mut t, STEADY_ROUNDS, SETTLE_S);

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
    let straggler = mix.phase(&mut d, &mut t, STRAGGLER_ROUNDS, SETTLE_S);
    let declared_after_straggler = d.health_stats().expect("detector installed").declared;

    // Failover: shard 2 goes silent for 10 ms. The detector declares it
    // (probe-confirmed), evacuation re-homes its queue, and once the
    // hang lifts, half-open probes restore it — no operator calls.
    d.set_fault_plan(FaultPlan::new().hang_shard(
        Cycles::from_secs(t + 0.001),
        FAILOVER_SHARD,
        Cycles::from_secs(FAILOVER_HANG_S),
    ));
    let failover = mix.phase(&mut d, &mut t, FAILOVER_ROUNDS, SETTLE_S);
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

    let phases = [steady, straggler, failover];
    Outcome {
        ledger: ExactlyOnce::of(&s, phases.iter().flat_map(|ph| &ph.completions)),
        phases,
        retries: s.retries_queued,
        health: d.health_stats().expect("detector installed"),
    }
}

/// Steady, straggler and failover phases, run twice to prove the replay.
pub(super) fn measure() -> Obj {
    // Replay fingerprint: every completion as (seq, shard, finish bits).
    let run = mix::replay_twice(run_scenario, |o| {
        let all = o.phases.iter().flat_map(|ph| &ph.completions);
        all.map(|c| (c.seq, c.shard, c.finish.to_bits()))
            .collect::<Vec<_>>()
    });
    let hedges_fired = |ph: &Phase| ph.delta(|s| s.hedges_fired);
    let hedges_won = |ph: &Phase| ph.delta(|s| s.hedges_won);

    let [steady, straggler, failover] = &run.phases;
    let p99_factor = straggler.p99_us() / steady.p99_us();
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
    Obj::new()
        .val("lost", run.ledger.lost)
        .val("duplicates", run.ledger.duplicates)
        .val("retries", run.retries)
        .val("detector", mix::detector(&run.health))
        .val("steady", steady_row)
        .val("straggler", straggler_row)
        .val("failover", failover_row)
        .val("config", config)
}
