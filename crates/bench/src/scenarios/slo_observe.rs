//! SLO-grade observability end-to-end: tracing, histograms, and
//! multiwindow burn-rate alerting over a degradation the operator
//! injects and then repairs.
//!
//! The Figure 15-style serverless mix (snapshotted functions served by
//! warm delta re-arms) runs healthy, then the warm budget is slashed to
//! zero mid-run — every invocation falls back to a cold create and
//! end-to-end latency jumps past the declared p99 threshold. The SLO
//! engine's fast (5-min-equivalent) and slow (1-hr-equivalent) windows,
//! scaled into virtual time, must both saturate and fire the *page*
//! alert within a bounded number of virtual cycles; restoring the budget
//! must clear it. A second, untraced run of the identical workload pins
//! the tracing ablation: span capture is host-side bookkeeping that
//! charges no virtual cycle, so the two runs' served latencies are equal
//! to the cycle.
//!
//! The row's checks: the traced run's page alert fires within
//! `FIRE_BOUND_CYCLES` of virtual time after the degradation and clears
//! after recovery; the healthy steady state meets the objective; tracing
//! records spans and its end-to-end overhead is exactly zero.
//!
//! Asserted in the run: the untraced run's alert does the same and it
//! records no span; the availability SLO stays quiet (nothing is shed —
//! this is a latency regression, and the alert taxonomy must say so);
//! and at the degraded steady state the latency SLO, and only it, reports
//! the page firing — the state the `/metrics` alert gauges read. The
//! traced run's span trees go to `TRACE_slo_observe.jsonl`.

use super::mix::{self, Mix};
use crate::json::Obj;
use vclock::Cycles;
use vsched::{Placement, Request};
use vtrace::slo::{BurnPolicy, Severity, SloEngine, SloSpec};

const SHARDS: usize = 4;
const FNS: usize = 2;

/// Steady cadence: one request per function every 100 µs of virtual time.
const CADENCE_S: f64 = 0.0001;

/// Rounds before the budget slash, between slash and restore, and after.
const HEALTHY_ROUNDS: usize = 40;
const DEGRADED_ROUNDS: usize = 40;
const RECOVERED_ROUNDS: usize = 60;

/// The end-to-end objective threshold: steady-state warm delta re-arms
/// land at 1.9-3.8 µs, clean re-arms at 6.2 µs — 5 µs splits them.
const E2E_THRESHOLD_US: f64 = 5.0;

/// The page alert must fire within this much virtual time of the
/// degradation (about 1.5 ms: enough bad events to saturate both
/// windows at the request cadence).
pub(super) const FIRE_BOUND_CYCLES: f64 = 6e6;

struct RunOut {
    served: u64,
    /// Sum of end-to-end cycles across served requests (the ablation
    /// metric: deterministic in virtual time).
    e2e_sum_cycles: u64,
    /// Virtual cycles from the budget slash to the page alert firing.
    alert_fire_cycles: u64,
    /// 1 when the page alert cleared after the budget was restored.
    alert_cleared: u64,
    /// Healthy-phase p90 off the dispatcher's own e2e histogram (the
    /// p99 of the small healthy sample is its first cold starts; p90 is
    /// the steady state the objective is set against).
    warm_p90_us: f64,
    trace_lines: String,
    spans: u64,
}

fn run(traced: bool) -> RunOut {
    let mut d = mix::dispatcher(SHARDS, Placement::SnapshotAware);
    // Provisioned clean shells: an acquire never has to steal a sibling's
    // warm shell, so the healthy phase genuinely runs on delta re-arms.
    let mix = Mix::snapped(&mut d, FNS, CADENCE_S);
    if traced {
        d.enable_tracing(4096);
    }

    // Warm-up: establish each function's snapshot before the SLO clock
    // starts, so the healthy phase measures the steady state.
    let mut t = 0.0;
    for &f in &mix.fast {
        t += CADENCE_S;
        d.submit(Request::new(mix.tenant, f, t)).expect("admit");
    }
    d.run_until(t + 0.001);

    // Virtual-time windows: the SRE workbook's 5-min/1-hr pair scaled so
    // the fast window holds ~4 rounds and the slow window ~24 rounds of
    // events at the request cadence.
    d.set_slo(SloEngine::new(
        vec![
            SloSpec::latency("e2e_p99", 0.99, Cycles::from_micros(E2E_THRESHOLD_US)),
            SloSpec::availability("availability", 0.999),
        ],
        BurnPolicy {
            fast_window: Cycles::from_micros(800.0),
            slow_window: Cycles::from_micros(4800.0),
            ..BurnPolicy::default()
        },
    ));

    let drive = |d: &mut _, t: &mut _, rounds| {
        for round in 0..rounds {
            mix.round(d, t, round);
            d.slo_tick();
        }
    };
    drive(&mut d, &mut t, HEALTHY_ROUNDS);
    // The injected incident: no warm shells anywhere, every invocation
    // cold-creates.
    let degrade_at = Cycles::from_secs(t);
    d.set_warm_budget(Some(0), Some(0));
    let warm_phase = d.e2e_hist().clone();
    drive(&mut d, &mut t, DEGRADED_ROUNDS);
    // Degraded steady state: the page is firing on the latency SLO and on
    // nothing else — the state `/metrics`' alert gauges read.
    if traced {
        let report = d.slo().expect("SLO engine installed").report();
        let paging: Vec<&str> = report
            .iter()
            .filter(|r| r.severity == Some(Severity::Page))
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(
            paging,
            ["e2e_p99"],
            "degraded state must page on latency only"
        );
    }
    let recovered_at = Cycles::from_secs(t);
    d.set_warm_budget(None, None);
    drive(&mut d, &mut t, RECOVERED_ROUNDS);
    d.run_to_idle();
    d.slo_tick();

    let log = d.slo().expect("slo engine").alert_log();
    let fire = log
        .iter()
        .find(|ev| {
            ev.slo == "e2e_p99" && ev.fired && ev.severity == Severity::Page && ev.at >= degrade_at
        })
        .unwrap_or_else(|| panic!("page alert never fired; log: {log:?}"));
    let cleared = log.iter().any(|ev| {
        ev.slo == "e2e_p99" && !ev.fired && ev.severity == Severity::Page && ev.at >= recovered_at
    });
    assert!(
        log.iter().all(|ev| ev.slo != "availability"),
        "nothing was shed; the availability SLO must stay quiet"
    );

    RunOut {
        served: d.stats().served,
        e2e_sum_cycles: d.e2e_hist().sum(),
        alert_fire_cycles: fire.at.saturating_sub(degrade_at).get(),
        alert_cleared: cleared as u64,
        warm_p90_us: Cycles(warm_phase.quantile(0.9)).as_micros(),
        trace_lines: d.trace_json_lines(None, 10_000),
        spans: d.trace().spans_recorded(),
    }
}

/// A traced and an untraced run of the same incident.
pub(super) fn measure() -> Obj {
    let traced = run(true);
    let untraced = run(false);
    assert!(
        untraced.alert_fire_cycles as f64 <= FIRE_BOUND_CYCLES,
        "untraced page alert took {} cycles (> {FIRE_BOUND_CYCLES}) to fire",
        untraced.alert_fire_cycles
    );
    assert_eq!(
        untraced.alert_cleared, 1,
        "page alert must clear after recovery"
    );
    assert_eq!(
        untraced.spans, 0,
        "the untraced run must record nothing (zero-cost when disabled)"
    );
    assert!(!traced.trace_lines.is_empty());
    std::fs::write("TRACE_slo_observe.jsonl", &traced.trace_lines).expect("write trace artifact");
    println!("# wrote TRACE_slo_observe.jsonl");

    let overhead_pct = 100.0 * (traced.e2e_sum_cycles as f64 - untraced.e2e_sum_cycles as f64)
        / untraced.e2e_sum_cycles as f64;
    let config = Obj::new()
        .val("shards", SHARDS)
        .val("fns", FNS)
        .val("cadence_s", CADENCE_S)
        .val("healthy_rounds", HEALTHY_ROUNDS)
        .val("degraded_rounds", DEGRADED_ROUNDS)
        .val("recovered_rounds", RECOVERED_ROUNDS)
        .val("e2e_threshold_us", E2E_THRESHOLD_US);
    Obj::new()
        .val("alert_fire_cycles", traced.alert_fire_cycles)
        .val("alert_cleared", traced.alert_cleared)
        .num("overhead_pct", overhead_pct, 6)
        .val("served", traced.served)
        .val("spans", traced.spans)
        .num("warm_p90_us", traced.warm_p90_us, 4)
        .val("config", config)
}
