//! CI bench-regression gate.
//!
//! Compares the headline metrics of freshly produced `BENCH_*.json`
//! artifacts (in the working directory, written by the acceptance bench
//! steps) against the committed baselines in `bench/baselines/`, and
//! exits non-zero when any metric regresses more than 15%:
//!
//! * lower-is-better metrics (latencies, cycles) fail above
//!   `baseline × 1.15`;
//! * higher-is-better metrics (hit rates) fail below `baseline × 0.85`;
//! * invariant metrics (busy-wait cycles, cycle identity) must hold
//!   exactly — they are correctness claims, not performance numbers.
//!
//! The benches run on a deterministic virtual clock, so in an unchanged
//! tree current == baseline bit-for-bit; the 15% band exists to absorb
//! intentional cost-model tweaks while still catching real regressions.
//! Refresh a baseline by re-running the bench and committing the JSON.

use bench::json::Json;

/// Relative tolerance before a drift counts as a regression.
const TOLERANCE: f64 = 0.15;

struct Gate {
    failures: u32,
    checks: u32,
}

impl Gate {
    /// One lower-is-better comparison.
    fn lower(&mut self, what: &str, baseline: f64, current: f64) {
        self.report(
            what,
            baseline,
            current,
            current <= baseline * (1.0 + TOLERANCE),
        );
    }

    /// One higher-is-better comparison.
    fn higher(&mut self, what: &str, baseline: f64, current: f64) {
        self.report(
            what,
            baseline,
            current,
            current >= baseline * (1.0 - TOLERANCE),
        );
    }

    /// One exact invariant (correctness, not performance).
    fn exact(&mut self, what: &str, baseline: f64, current: f64) {
        self.report(what, baseline, current, current == baseline);
    }

    /// One baseline-independent floor: `current` must be at least `floor`.
    fn at_least(&mut self, what: &str, floor: f64, current: f64) {
        self.report(what, floor, current, current >= floor);
    }

    fn report(&mut self, what: &str, baseline: f64, current: f64, ok: bool) {
        self.checks += 1;
        let delta = if baseline != 0.0 {
            format!("{:+.1}%", (current - baseline) / baseline * 100.0)
        } else {
            "n/a".to_string()
        };
        let verdict = if ok { "ok" } else { "REGRESSED" };
        println!("{verdict:>10}  {what:<58} baseline {baseline:>12.4}  current {current:>12.4}  ({delta})");
        if !ok {
            self.failures += 1;
        }
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

/// Loads a committed baseline by stem, resolving the baselines directory
/// from the repo root (`crates/bench/baselines`) or the bench crate
/// (`baselines`) so the gate runs from either working directory.
fn load_baseline(stem: &str) -> Json {
    for dir in ["crates/bench/baselines", "bench/baselines", "baselines"] {
        let path = format!("{dir}/{stem}.json");
        if std::path::Path::new(&path).exists() {
            return load(&path);
        }
    }
    panic!("no committed baseline for `{stem}` (looked under crates/bench/baselines)");
}

fn num(j: &Json, path: &str, file: &str) -> f64 {
    j.path(path)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{file}: missing numeric field `{path}`"))
}

/// The warm_placement macro row the gate tracks: snapshot-aware placement
/// at 4 shards with warm capacity 2 (the configuration the PR 2
/// acceptance pinned).
fn warm_macro_row(j: &Json, file: &str) -> Json {
    j.get("macro")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .find(|row| {
            row.get("label").and_then(Json::as_str) == Some("snapshot-aware")
                && row.get("shards").and_then(Json::as_f64) == Some(4.0)
                && row.get("warm_capacity").and_then(Json::as_f64) == Some(2.0)
        })
        .cloned()
        .unwrap_or_else(|| panic!("{file}: no snapshot-aware/4-shard/cap-2 macro row"))
}

/// The blocked_io run row with the given label.
fn blocked_run_row(j: &Json, label: &str, file: &str) -> Json {
    j.get("runs")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .find(|row| row.get("label").and_then(Json::as_str) == Some(label))
        .cloned()
        .unwrap_or_else(|| panic!("{file}: no run labelled `{label}`"))
}

fn main() {
    let mut gate = Gate {
        failures: 0,
        checks: 0,
    };
    println!(
        "# bench regression gate: current BENCH_*.json vs bench/baselines/ (>{:.0}% fails)",
        TOLERANCE * 100.0
    );

    // -- warm_placement -----------------------------------------------------
    let base = load_baseline("warm_placement");
    let cur = load("BENCH_warm_placement.json");
    gate.lower(
        "warm_placement: micro.warm_acquire_image_cycles",
        num(&base, "micro.warm_acquire_image_cycles", "baseline"),
        num(&cur, "micro.warm_acquire_image_cycles", "current"),
    );
    let (b_row, c_row) = (
        warm_macro_row(&base, "baseline"),
        warm_macro_row(&cur, "current"),
    );
    gate.lower(
        "warm_placement: snapshot-aware/4sh/cap2 p99_ms",
        num(&b_row, "p99_ms", "baseline"),
        num(&c_row, "p99_ms", "current"),
    );
    gate.higher(
        "warm_placement: snapshot-aware/4sh/cap2 warm_hit_rate",
        num(&b_row, "warm_hit_rate", "baseline"),
        num(&c_row, "warm_hit_rate", "current"),
    );

    // -- blocked_io ---------------------------------------------------------
    let base = load_baseline("blocked_io");
    let cur = load("BENCH_blocked_io.json");
    for label in ["baseline (no slow clients)", "event-driven + slow clients"] {
        let b = blocked_run_row(&base, label, "baseline");
        let c = blocked_run_row(&cur, label, "current");
        gate.lower(
            &format!("blocked_io: `{label}` fast_p99_ms"),
            num(&b, "fast_p99_ms", "baseline"),
            num(&c, "fast_p99_ms", "current"),
        );
    }
    let event = blocked_run_row(&cur, "event-driven + slow clients", "current");
    gate.exact(
        "blocked_io: event-driven busy_wait_cycles stays zero",
        0.0,
        num(&event, "busy_wait_cycles", "current"),
    );

    // -- topology_steal -----------------------------------------------------
    let base = load_baseline("topology_steal");
    let cur = load("BENCH_topology_steal.json");
    for metric in ["steal.same_ccx", "steal.cross_ccx", "steal.cross_socket"] {
        // Steal-distance resolution is a correctness claim of the
        // placement engine, not a performance number: the ladder must
        // drain exactly near-to-far.
        gate.exact(
            &format!("topology_steal: {metric}"),
            num(&base, metric, "baseline"),
            num(&cur, metric, "current"),
        );
    }
    let warm_row = |j: &Json, label: &str, file: &str| -> Json {
        j.get("warm")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .find(|row| row.get("label").and_then(Json::as_str) == Some(label))
            .cloned()
            .unwrap_or_else(|| panic!("{file}: no warm run labelled `{label}`"))
    };
    let (b_row, c_row) = (
        warm_row(&base, "budget 11 + quota 3", "baseline"),
        warm_row(&cur, "budget 11 + quota 3", "current"),
    );
    gate.higher(
        "topology_steal: budget+quota overall_hit_rate",
        num(&b_row, "overall_hit_rate", "baseline"),
        num(&c_row, "overall_hit_rate", "current"),
    );
    gate.higher(
        "topology_steal: budget+quota heavy_hit_rate",
        num(&b_row, "heavy_hit_rate", "baseline"),
        num(&c_row, "heavy_hit_rate", "current"),
    );
    gate.lower(
        "topology_steal: budget+quota p50_ms",
        num(&b_row, "p50_ms", "baseline"),
        num(&c_row, "p50_ms", "current"),
    );

    // -- chan_pipeline ------------------------------------------------------
    let base = load_baseline("chan_pipeline");
    let cur = load("BENCH_chan_pipeline.json");
    for metric in ["pipeline.stage_p99_ms", "pipeline.e2e_p99_ms"] {
        gate.lower(
            &format!("chan_pipeline: {metric}"),
            num(&base, metric, "baseline"),
            num(&cur, metric, "current"),
        );
    }
    gate.exact(
        "chan_pipeline: parked == unparked guest cycles (identity)",
        num(&cur, "cycle_identity.unparked_exec_cycles", "current"),
        num(&cur, "cycle_identity.parked_exec_cycles", "current"),
    );
    gate.higher(
        "chan_pipeline: skew migrations >= baseline floor",
        1.0,
        num(&cur, "skew.migrations", "current"),
    );

    // -- slo_observe --------------------------------------------------------
    let base = load_baseline("slo_observe");
    let cur = load("BENCH_slo_observe.json");
    gate.lower(
        "slo_observe: page alert_fire_cycles after budget slash",
        num(&base, "alert_fire_cycles", "baseline"),
        num(&cur, "alert_fire_cycles", "current"),
    );
    gate.exact(
        "slo_observe: page alert clears after recovery",
        1.0,
        num(&cur, "alert_cleared", "current"),
    );
    // Tracing must stay off the served-latency critical path: the
    // ablation overhead is a correctness claim (spans charge the global
    // clock, never the worker timeline), gated exactly at zero.
    gate.exact(
        "slo_observe: tracing overhead_pct on served e2e",
        num(&base, "overhead_pct", "baseline"),
        num(&cur, "overhead_pct", "current"),
    );
    gate.lower(
        "slo_observe: healthy-phase warm p90 (µs)",
        num(&base, "warm_p90_us", "baseline"),
        num(&cur, "warm_p90_us", "current"),
    );

    // -- drain_evict --------------------------------------------------------
    let base = load_baseline("drain_evict");
    let cur = load("BENCH_drain_evict.json");
    // Exactly-once under lifecycle churn is a correctness invariant, not
    // a performance number: gated exactly at zero, no drift allowance.
    gate.exact(
        "drain_evict: zero lost runs across drain/restore/fault phases",
        0.0,
        num(&cur, "lost", "current"),
    );
    gate.exact(
        "drain_evict: zero double-runs (re-homed work executes once)",
        0.0,
        num(&cur, "double_run", "current"),
    );
    gate.lower(
        "drain_evict: drain-window p99 (µs)",
        num(&base, "drain.p99_us", "baseline"),
        num(&cur, "drain.p99_us", "current"),
    );
    gate.higher(
        "drain_evict: post-restore warm-hit rate",
        num(&base, "recovered.warm_hit_rate", "baseline"),
        num(&cur, "recovered.warm_hit_rate", "current"),
    );

    // -- fault_recovery -----------------------------------------------------
    let base = load_baseline("fault_recovery");
    let cur = load("BENCH_fault_recovery.json");
    // The failover contract is correctness, not performance: nothing
    // lost, nothing double-run, and the detector never pages on a live
    // shard — all gated exactly, no drift allowance.
    gate.exact(
        "fault_recovery: zero lost runs across failover",
        0.0,
        num(&cur, "lost", "current"),
    );
    gate.exact(
        "fault_recovery: zero duplicates (retries and hedges dedup)",
        0.0,
        num(&cur, "duplicates", "current"),
    );
    gate.exact(
        "fault_recovery: detector false positives",
        0.0,
        num(&cur, "detector.false_positives", "current"),
    );
    gate.exact(
        "fault_recovery: detector-declared failures",
        num(&base, "detector.declared", "baseline"),
        num(&cur, "detector.declared", "current"),
    );
    gate.exact(
        "fault_recovery: probe-driven restores",
        num(&base, "detector.restored", "baseline"),
        num(&cur, "detector.restored", "current"),
    );
    gate.lower(
        "fault_recovery: steady p99 (µs)",
        num(&base, "steady.p99_us", "baseline"),
        num(&cur, "steady.p99_us", "current"),
    );
    gate.lower(
        "fault_recovery: hedged straggler-mix p99 factor",
        num(&base, "straggler.p99_factor", "baseline"),
        num(&cur, "straggler.p99_factor", "current"),
    );

    // -- ingress_fanout -------------------------------------------------------
    let base = load_baseline("ingress_fanout");
    let cur = load("BENCH_ingress_fanout.json");
    // Cluster-scale exactly-once is correctness: nothing lost in any
    // scenario, nothing double-run across a fence-and-replay failover,
    // and the node-level detector neither misses nor invents failures.
    for scenario in ["single", "fanout", "failover"] {
        gate.exact(
            &format!("ingress_fanout: zero lost connections ({scenario})"),
            0.0,
            num(&cur, &format!("{scenario}.lost"), "current"),
        );
    }
    gate.exact(
        "ingress_fanout: zero duplicates across cross-node failover",
        0.0,
        num(&cur, "failover.duplicates", "current"),
    );
    gate.exact(
        "ingress_fanout: detector-declared node failures",
        num(&base, "failover.detector.declared", "baseline"),
        num(&cur, "failover.detector.declared", "current"),
    );
    gate.exact(
        "ingress_fanout: probe-driven node restores",
        num(&base, "failover.detector.restored", "baseline"),
        num(&cur, "failover.detector.restored", "current"),
    );
    gate.exact(
        "ingress_fanout: node-detector false positives",
        0.0,
        num(&cur, "failover.detector.false_positives", "current"),
    );
    gate.lower(
        "ingress_fanout: fan-out p99 drift vs single-node (factor)",
        num(&base, "fanout.p99_factor", "baseline"),
        num(&cur, "fanout.p99_factor", "current"),
    );
    gate.lower(
        "ingress_fanout: failover p99 (µs)",
        num(&base, "failover.p99_us", "baseline"),
        num(&cur, "failover.p99_us", "current"),
    );

    // -- interp_speed ---------------------------------------------------------
    let base = load_baseline("interp_speed");
    let cur = load("BENCH_interp_speed.json");
    // Every kernel the bench ran, matched to its baseline row by name: a
    // kernel added to the bench is gated from the PR that commits its row.
    let kernels = |j: &Json| {
        j.get("kernels")
            .map(Json::items)
            .unwrap_or_default()
            .to_vec()
    };
    for row in kernels(&cur) {
        let kernel = row
            .get("kernel")
            .and_then(Json::as_str)
            .expect("kernel name");
        let base_row = kernels(&base)
            .into_iter()
            .find(|b| b.get("kernel").and_then(Json::as_str) == Some(kernel))
            .unwrap_or_else(|| panic!("interp_speed baseline has no `{kernel}` row"));
        // Retired instructions and virtual cycles are the deterministic
        // guest-side observables: any drift means the interpreter's
        // semantics or cost model changed, not the host machine.
        for field in ["insts", "virt_cycles"] {
            gate.exact(
                &format!("interp_speed: {kernel} {field}"),
                num(&base_row, field, "baseline"),
                num(&row, field, "current"),
            );
        }
        // The cycle-identity contract: fast and reference engines agree on
        // instructions, cycles, and the computed result, bit for bit.
        gate.exact(
            &format!("interp_speed: {kernel} engines byte- and cycle-identical"),
            1.0,
            num(&row, "cycle_identical", "current"),
        );
        // Host wall-clock is nondeterministic, so the speedup is gated as a
        // floor, not against the baseline's own reading: the row's
        // `min_speedup`, set by hand when the row is committed.
        let floor = num(&base_row, "min_speedup", "baseline");
        gate.at_least(
            &format!("interp_speed: {kernel} fast-over-reference speedup >= {floor}x"),
            floor,
            num(&row, "speedup", "current"),
        );
    }

    println!("#");
    if gate.failures > 0 {
        println!(
            "# {} of {} checks regressed beyond {:.0}%",
            gate.failures,
            gate.checks,
            TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!("# all {} checks within tolerance", gate.checks);
}
