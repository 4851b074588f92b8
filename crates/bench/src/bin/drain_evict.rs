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
//! Acceptance:
//! * zero lost runs: every admitted request is served or shed after
//!   admission, across the whole run, fault phase included
//!   ([`bench::scenario::ExactlyOnce`]);
//! * zero double-runs: every completion's logical sequence number is
//!   unique;
//! * the drained shard serves nothing that arrived after its drain
//!   began — placement routes around the hole;
//! * post-restore warm-hit rate reconverges to within 10% of the steady
//!   state (the evacuated warm shells kept their identity);
//! * the drain-window p99 stays within a small factor of steady state
//!   (gated against the committed baseline by `check_regression`).
//!
//! Writes `BENCH_drain_evict.json` for the CI gate.

use bench::json::Obj;
use bench::scenario::{self, ExactlyOnce, Mix, Phase, MEM};
use vclock::Cycles;
use vsched::{FaultPlan, Placement, Request, ShardState, TenantProfile};
use wasp::VirtineSpec;

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

fn main() {
    let host = bench::HostTimer::start();
    bench::header(
        "Shard lifecycle: rolling drain/restore and fault injection under live traffic",
        "draining half the shards one at a time loses nothing, double-runs \
         nothing, and the evacuated warm set reconverges after restore; a \
         seeded fault plan exercises the same reconcile path",
    );
    println!(
        "# {FNS} snapshotted fns at {:.0} µs cadence on {SHARDS} shards; \
         {STEADY_ROUNDS} steady / {}x{DRAIN_ROUNDS_EACH} drained / \
         {RECOVER_ROUNDS} recovered / {FAULT_ROUNDS} fault rounds",
        CADENCE_S * 1e6,
        2
    );

    let mut d = scenario::dispatcher(SHARDS, Placement::SnapshotAware);
    let tenant = d.add_tenant(TenantProfile::new("app"));
    let fns: Vec<_> = (0..FNS)
        .map(|i| {
            d.register(VirtineSpec::new(
                format!("fn{i}"),
                scenario::snap_image(),
                MEM,
            ))
            .expect("register")
        })
        .collect();
    d.prewarm(MEM, 2);

    // Warm-up: establish each function's snapshot outside the measured
    // phases.
    let mut t = 0.0;
    for &f in &fns {
        t += CADENCE_S;
        d.submit(Request::new(tenant, f, t)).expect("admit");
    }
    scenario::settle(&mut d, &mut t, 0.001);
    d.take_completions();

    let mix = Mix {
        tenant,
        fast: fns,
        slow: None,
        cadence_s: CADENCE_S,
    };
    let drive = |d: &mut _, t: &mut _, rounds| mix.drive(d, t, rounds);

    // Steady state.
    let steady = Phase::record(&mut d, &mut t, "steady", SETTLE_S, |d, t| {
        drive(d, t, STEADY_ROUNDS)
    });

    // Rolling drain: shard 0 out, restore, then shard 1 out, restore.
    let mut drain_started_at = [0.0f64; 2];
    let drained = Phase::record(&mut d, &mut t, "rolling drain", SETTLE_S, |d, t| {
        for (i, &shard) in [0usize, 1].iter().enumerate() {
            drain_started_at[i] = *t;
            d.drain_shard(shard);
            assert!(
                !d.shard_state(shard).is_active(),
                "shard {shard} must leave the candidate set"
            );
            drive(d, t, DRAIN_ROUNDS_EACH);
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
    let recovered = Phase::record(&mut d, &mut t, "recovered", SETTLE_S, |d, t| {
        drive(d, t, RECOVER_ROUNDS)
    });

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
    let faulted = Phase::record(&mut d, &mut t, "fault plan", SETTLE_S, |d, t| {
        drive(d, t, FAULT_ROUNDS)
    });
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
    let (lost, double_run) = (ledger.lost, ledger.duplicates);

    println!("phase            | served    p99(µs)  warm-rate on-shard-0/1");
    for ph in phases {
        let on_drained = ph
            .completions
            .iter()
            .filter(|c| c.shard == 0 || c.shard == 1)
            .count();
        println!(
            "{:<16} | {:>6} {:>10.2} {:>10.3} {:>12}",
            ph.label,
            ph.delta(|s| s.served),
            ph.p99_us(),
            warm_rate(ph),
            on_drained
        );
    }
    let p99_factor = drained.p99_us() / steady.p99_us();
    let warm_recovery = warm_rate(&recovered) / warm_rate(&steady);
    println!("#");
    println!(
        "# lost {lost}, double-run {double_run}, evictions {} (grace {}, failed {}), \
         shells dropped {}; drain p99 ×{p99_factor:.2}, warm recovery {warm_recovery:.3}",
        s.shed_evicted, s.evicted_grace, s.evicted_failed, p.dropped
    );

    // Acceptance.
    assert_eq!(lost, 0, "lifecycle churn lost runs");
    assert_eq!(double_run, 0, "a re-homed run executed twice");
    assert!(
        warm_recovery >= 0.9,
        "post-restore warm-hit rate {:.3} fell more than 10% below steady {:.3}",
        warm_rate(&recovered),
        warm_rate(&steady)
    );
    assert!(
        p.dropped > 0,
        "the planned faults must actually destroy shells"
    );
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
    let doc = Obj::new()
        .val("lost", lost)
        .val("double_run", double_run)
        .val("evictions", s.shed_evicted)
        .val("shells_dropped", p.dropped)
        .val("steady", phase(&steady))
        .val("drain", drain_row)
        .val("recovered", recovered_row)
        .val("fault", phase(&faulted))
        .val("config", config);
    bench::write_artifact("drain_evict", doc, &host);
}
