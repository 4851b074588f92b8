//! The serving scenarios, one row each: the claims this repo makes on top
//! of the paper's economics, about the tiers built on Wasp (`vsched`,
//! `vhttp`'s server and ingress, `vtrace`'s SLO engine).
//!
//! Each [`Scenario`] in [`SCENARIOS`] is an id (also its artifact's stem),
//! the gist of its claim, the code that runs it and builds its artifact,
//! and the [`Check`]s that claim implies, each addressing the artifact by
//! the dotted path its baseline's gates use. What a claim needs but the
//! artifact does not carry (a replay fingerprint, a `/metrics` line, a
//! drained shard's completions) is asserted inside the run. The
//! `scenarios` binary runs every row in one process.

use crate::check::{self, Check};
use crate::json::{Json, Obj};
use crate::HostTimer;
use Check::{Band, Order, Ratio, StrictOrder};

mod blocked_io;
mod dispatcher_scaling;
mod drain_evict;
mod fault_recovery;
mod ingress_fanout;
pub mod mix;
mod slo_observe;
mod topology_steal;
mod warm_placement;

/// One serving scenario.
pub struct Scenario {
    /// Its id, and the stem of its artifact `BENCH_<id>.json`.
    pub id: &'static str,
    /// The gist of the claim it backs.
    pub claim: &'static str,
    /// Runs the scenario and builds its artifact.
    pub measure: fn() -> Obj,
    /// What the claim implies about the artifact. A `*` series with whole
    /// paths as keys orders numbers from anywhere in it.
    pub checks: &'static [Check<&'static str>],
}

const INF: f64 = f64::INFINITY;

/// Every scenario, in the order `scenarios` runs them.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        id: "blocked_io",
        claim: "slowloris clients parked in recv leave fast-tenant p99 within 2x of the \
                no-slow-client baseline, and burn no worker cycles; spin-polling them \
                degrades it 10x or more",
        measure: blocked_io::measure,
        // Runs: 0 no slow clients, 1 spin-poll, 2 event-driven.
        checks: &[
            Ratio("runs.2.fast_p99_ms", "runs.0.fast_p99_ms", 0.0, 2.0),
            Ratio("runs.1.fast_p99_ms", "runs.0.fast_p99_ms", 10.0, INF),
            Band("runs.2.busy_wait_cycles", 0.0, 0.0),
            Band("runs.1.busy_wait_cycles", 1.0, INF),
            // Half the slow clients' chunk gaps park and resume.
            Band("runs.2.resumed", blocked_io::MIN_RESUMED as f64, INF),
            Band("runs.2.max_parked_seen", 1.0, INF),
        ],
    },
    Scenario {
        id: "dispatcher_scaling",
        claim: "under the Figure 15 bursts throughput scales 2x or more from 1 to 8 \
                shards; the rate limit sheds only the throttled tenant",
        measure: dispatcher_scaling::measure,
        checks: &[
            Band("speedup", 2.0, INF),
            Band("runs.*.free_shed", 0.0, 0.0),
            Band("runs.*.throttled_shed", 1.0, INF),
        ],
    },
    Scenario {
        id: "drain_evict",
        claim: "draining half the shards one at a time under live traffic loses and \
                double-runs nothing, keeps p99 near steady state, and the evacuated \
                warm set reconverges; a seeded fault plan takes the same path",
        measure: drain_evict::measure,
        checks: &[
            Band("lost", 0.0, 0.0),
            Band("double_run", 0.0, 0.0),
            Band("drain.p99_factor", 0.0, 2.0),
            Band("recovered.warm_recovery_ratio", 0.9, INF),
            Band("shells_dropped", 1.0, INF),
        ],
    },
    Scenario {
        id: "fault_recovery",
        claim: "a wedged shard is declared failed from observed silence alone and probed \
                back in, its work recovered exactly once; hedges hold a straggler's p99 \
                within 1.5x of steady state",
        measure: fault_recovery::measure,
        checks: &[
            Band("lost", 0.0, 0.0),
            Band("duplicates", 0.0, 0.0),
            Band("detector.declared", 1.0, 1.0),
            Band("detector.restored", 1.0, 1.0),
            Band("detector.false_positives", 0.0, 0.0),
            Band("straggler.hedges_won", 1.0, INF),
            Band("straggler.p99_factor", 0.0, 1.5),
        ],
    },
    Scenario {
        id: "ingress_fanout",
        claim: "one edge spreads the mix over identical nodes and lowers its p99; a node \
                that goes silent is declared, fenced, replayed cross-node exactly once \
                and probed back in",
        measure: ingress_fanout::measure,
        checks: &[
            Band("single.lost", 0.0, 0.0),
            Band("fanout.lost", 0.0, 0.0),
            Band("failover.lost", 0.0, 0.0),
            Band("failover.duplicates", 0.0, 0.0),
            Band("fanout.routed.*", 1.0, INF),
            Band("fanout.p99_factor", 0.0, 1.0),
            Band("failover.redispatched", 1.0, INF),
            Band("failover.detector.declared", 1.0, 1.0),
            Band("failover.detector.restored", 1.0, 1.0),
            Band("failover.detector.false_positives", 0.0, 0.0),
        ],
    },
    Scenario {
        id: "slo_observe",
        claim: "multiwindow burn-rate alerts page within bounded virtual time of a \
                latency regression and clear after recovery; a traced run equals an \
                untraced one to the cycle",
        measure: slo_observe::measure,
        checks: &[
            StrictOrder("*", &["warm_p90_us", "config.e2e_threshold_us"]),
            Band("alert_fire_cycles", 0.0, slo_observe::FIRE_BOUND_CYCLES),
            Band("alert_cleared", 1.0, 1.0),
            Band("overhead_pct", 0.0, 0.0),
            Band("spans", 1.0, INF),
        ],
    },
    Scenario {
        id: "topology_steal",
        claim: "steals drain same-CCX, then same-socket, then cross-socket donors; a \
                global warm budget with per-tenant quotas beats fixed per-pool LRU \
                capacity on hit rate, under a hard residency ceiling",
        measure: topology_steal::measure,
        // Warm runs: 0 fixed per-pool capacity, 1 budget, 2 budget + quota.
        checks: &[
            StrictOrder("warm.*.heavy_hit_rate", &["0", "2"]),
            StrictOrder("warm.*.overall_hit_rate", &["0", "2"]),
            StrictOrder("warm.*.overall_hit_rate", &["1", "2"]),
            StrictOrder("warm.*.steady_hit_rate", &["1", "2"]),
            Band("warm.1.max_resident", 0.0, topology_steal::BUDGET as f64),
            Band("warm.2.max_resident", 0.0, topology_steal::BUDGET as f64),
        ],
    },
    Scenario {
        id: "warm_placement",
        claim: "a warm-hit re-arm lands within 2x of a bare vmrun and below a full \
                restore (§5.2); under the Figure 15 bursts snapshot-aware placement \
                strictly beats least-loaded on warm-hit rate, and the no-warm baseline \
                on p50, at 4 and 8 shards",
        measure: warm_placement::measure,
        // Macro runs at 4 shards, then again at 8: the no-warm baseline,
        // then least-loaded and snapshot-aware at warm capacity 1, 2, 8.
        checks: &[
            Order(
                "micro.*",
                &["warm_acquire_image_cycles", "ceiling_2x_vmrun"],
            ),
            StrictOrder(
                "micro.*",
                &["warm_acquire_image_cycles", "full_acquire_image_cycles"],
            ),
            StrictOrder("macro.*.warm_hit_rate", &["1", "2"]),
            StrictOrder("macro.*.warm_hit_rate", &["3", "4"]),
            StrictOrder("macro.*.warm_hit_rate", &["5", "6"]),
            StrictOrder("macro.*.warm_hit_rate", &["8", "9"]),
            StrictOrder("macro.*.warm_hit_rate", &["10", "11"]),
            StrictOrder("macro.*.warm_hit_rate", &["12", "13"]),
            StrictOrder("macro.*.p50_ms", &["2", "0"]),
            StrictOrder("macro.*.p50_ms", &["4", "0"]),
            StrictOrder("macro.*.p50_ms", &["6", "0"]),
            StrictOrder("macro.*.p50_ms", &["9", "7"]),
            StrictOrder("macro.*.p50_ms", &["11", "7"]),
            StrictOrder("macro.*.p50_ms", &["13", "7"]),
        ],
    },
];

/// Runs `s` under its own [`HostTimer`], writes `BENCH_<id>.json`, and
/// prints the artifact with its checks' verdicts. Returns how many checks
/// failed.
pub fn run(s: &Scenario) -> usize {
    let host = HostTimer::start();
    let doc = (s.measure)();
    let text = doc.document();
    crate::write_artifact(s.id, doc, &host);
    let artifact = Json::parse(&text).expect("an artifact parses");
    check::report(s.id, s.claim, &text, s.checks, &artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn baseline(stem: &str) -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("baselines/{stem}.json"));
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn every_baseline_has_exactly_one_producer() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let bins = ["paper", "interp_speed"];
        for bin in bins {
            assert!(dir.join(format!("src/bin/{bin}.rs")).exists(), "{bin}");
        }
        let mut producers: Vec<&str> = SCENARIOS.iter().map(|s| s.id).chain(bins).collect();
        producers.sort_unstable();
        let files = std::fs::read_dir(dir.join("baselines")).unwrap().flatten();
        let mut stems: Vec<String> = files
            .map(|e| e.file_name().into_string().unwrap())
            .map(|f| f.strip_suffix(".json").unwrap().to_string())
            .collect();
        stems.sort_unstable();
        assert_eq!(producers, stems);
    }

    #[test]
    fn every_scenario_check_reads_numbers_of_its_baseline_and_holds_there() {
        for s in SCENARIOS {
            let base = baseline(s.id);
            for check in s.checks {
                assert!(check.resolves(&base), "{}: {check:?}", s.id);
                assert!(check.holds(&base), "{}: {check:?}", s.id);
            }
        }
    }
}
