//! Shard lifecycle under live traffic: a rolling drain/restore of half
//! the shards, then deterministic fault injection, under the Figure
//! 15-style serverless mix (snapshotted functions served by warm delta
//! re-arms, snapshot-aware placement).
//!
//! The operational claim on top of the paper's economics: shells and
//! runs are cheap enough to *move* that taking shards out of service
//! under live traffic costs little and loses nothing. One shard at a
//! time is drained (warm and clean shells evacuated through the priced
//! candidate machinery, queued work re-homed exactly once) and later
//! restored; then a seeded [`vsched::FaultPlan`] kills a shell and a
//! whole shard mid-traffic, exercising the same reconcile → re-admit
//! path without operator involvement.
//!
//! The row's checks:
//! * zero lost runs: every admitted request is served or shed after
//!   admission, across the whole run, fault phase included
//!   ([`ExactlyOnce`]);
//! * zero double-runs: every completion's logical sequence number is
//!   unique;
//! * post-restore warm-hit rate reconverges to within 10% of the steady
//!   state (the evacuated warm shells kept their identity);
//! * the drain-window p99 stays within 2× of steady state, the "near
//!   baseline" bound `blocked_io` uses;
//! * the planned faults destroy shells.
//!
//! Asserted in the run: the drained shard serves nothing that arrived
//! after its drain began (placement routes around the hole), each drain
//! converges, the planned shard kill fires, and only shard failure
//! evicts.

use super::mix::{self, ExactlyOnce, Mix, Phase};
use crate::json::Obj;
use vclock::Cycles;
use vsched::{FaultPlan, Placement, Request, ShardState};

const SHARDS: usize = 4;
const FNS: usize = 2;

/// Steady cadence: one request per function every 100 µs of virtual time.
const CADENCE_S: f64 = 0.0001;

const STEADY_ROUNDS: usize = 60;
/// Rounds with one shard down, per drained shard (shards 0 and 1 take
/// turns — half the fleet cycles through maintenance).
const DRAIN_ROUNDS_EACH: usize = 30;
const RECOVER_ROUNDS: usize = 60;
const FAULT_ROUNDS: usize = 40;

/// Phases settle for 500 µs: the snapshotted mix drains fast.
const SETTLE_S: f64 = 0.0005;

fn warm_rate(ph: &Phase) -> f64 {
    ph.delta(|s| s.warm_hits) as f64 / ph.delta(|s| s.served).max(1) as f64
}

/// Steady, rolling-drain, recovered and fault-plan phases.
pub(super) fn measure() -> Obj {
    let mut d = mix::dispatcher(SHARDS, Placement::SnapshotAware);
    let mix = Mix::snapped(&mut d, FNS, CADENCE_S);

    // Warm-up: establish each function's snapshot outside the measured
    // phases.
    let mut t = 0.0;
    for &f in &mix.fast {
        t += CADENCE_S;
        d.submit(Request::new(mix.tenant, f, t)).expect("admit");
    }
    mix::settle(&mut d, &mut t, 0.001);
    d.take_completions();

    let steady = mix.phase(&mut d, &mut t, STEADY_ROUNDS, SETTLE_S);

    // Rolling drain: shard 0 out, restore, then shard 1 out, restore.
    let mut drain_started_at = [0.0f64; 2];
    let drained = Phase::record(&mut d, &mut t, SETTLE_S, |d, t| {
        for (i, &shard) in [0usize, 1].iter().enumerate() {
            drain_started_at[i] = *t;
            d.drain_shard(shard);
            assert!(
                !d.shard_state(shard).is_active(),
                "shard {shard} must leave the candidate set"
            );
            mix.drive(d, t, DRAIN_ROUNDS_EACH);
            assert_eq!(
                d.shard_state(shard),
                ShardState::Drained,
                "evacuation must converge under live traffic"
            );
            d.restore_shard(shard);
        }
    });
    // Nothing that arrived after a shard's drain began may have served
    // on it while it was out.
    for (i, &shard) in [0usize, 1].iter().enumerate() {
        let window_end = drain_started_at[i] + DRAIN_ROUNDS_EACH as f64 * FNS as f64 * CADENCE_S;
        assert!(
            drained
                .completions
                .iter()
                .filter(|c| c.arrival > drain_started_at[i] && c.arrival <= window_end)
                .all(|c| c.shard != shard),
            "shard {shard} served traffic while draining"
        );
    }

    // Recovery: both shards back; the warm set must reconverge.
    let recovered = mix.phase(&mut d, &mut t, RECOVER_ROUNDS, SETTLE_S);

    // Fault injection: a single shell loss on shard 3, then shard 2
    // fails outright — both at fixed virtual instants, replayable from
    // the plan alone.
    let evictions_before = d.stats().shed_evicted;
    let fault_at = (t + 0.001, t + 0.002);
    d.set_fault_plan(
        FaultPlan::new()
            .kill_shell(Cycles::from_secs(fault_at.0), 3)
            .kill_shard(Cycles::from_secs(fault_at.1), 2),
    );
    let faulted = mix.phase(&mut d, &mut t, FAULT_ROUNDS, SETTLE_S);
    assert_eq!(
        d.shard_state(2),
        ShardState::Failed,
        "the planned shard kill must have fired"
    );
    d.restore_shard(2);
    assert!(
        d.reconcile().is_empty(),
        "a fully restored fleet has nothing to reconcile"
    );

    d.run_to_idle();
    let s = d.stats();
    let p = d.pool_stats();

    // Exactly-once accounting across every phase, faults included.
    let phases = [&steady, &drained, &recovered, &faulted];
    let ledger = ExactlyOnce::of(&s, phases.iter().flat_map(|ph| &ph.completions));
    let p99_factor = drained.p99_us() / steady.p99_us();
    let warm_recovery = warm_rate(&recovered) / warm_rate(&steady);
    assert_eq!(
        s.shed_evicted - evictions_before,
        s.evicted_failed,
        "this mix never parks, so only shard failure may evict"
    );

    let phase = |ph: &Phase| {
        let obj = Obj::new().val("served", ph.delta(|s| s.served));
        obj.num("p99_us", ph.p99_us(), 4)
            .num("warm_hit_rate", warm_rate(ph), 6)
    };
    let drain_row = phase(&drained).num("p99_factor", p99_factor, 4);
    let recovered_row = phase(&recovered).num("warm_recovery_ratio", warm_recovery, 6);
    let config = Obj::new()
        .val("shards", SHARDS)
        .val("fns", FNS)
        .val("cadence_s", CADENCE_S)
        .val("steady_rounds", STEADY_ROUNDS)
        .val("drain_rounds_each", DRAIN_ROUNDS_EACH)
        .val("recover_rounds", RECOVER_ROUNDS)
        .val("fault_rounds", FAULT_ROUNDS);
    Obj::new()
        .val("lost", ledger.lost)
        .val("double_run", ledger.duplicates)
        .val("evictions", s.shed_evicted)
        .val("shells_dropped", p.dropped)
        .val("steady", phase(&steady))
        .val("drain", drain_row)
        .val("recovered", recovered_row)
        .val("fault", phase(&faulted))
        .val("config", config)
}
